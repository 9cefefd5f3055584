"""Hot kernels: candidate ranking, mass-threshold retention, sampler support.

Pure Python, the package's only kernel implementation. Callers read the
kernels as module attributes at call time (``kernels.prune_prefix(...)``),
so a profiler can wrap them in place.

All three ranking kernels order candidates by descending value with ties
broken by lower index, so callers that enumerate candidates in a canonical
order get deterministic results.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

# Slack applied to cumulative-mass threshold comparisons, in the normalized
# linear domain. Absorbs log-sum-exp and summation rounding.
MASS_SLACK = 1e-12


def backend_name() -> str:
    """Name of the kernel implementation, recorded beside benchmark results."""
    return "pure"


def topk_indices(values: Sequence[float], k: int) -> list[int]:
    """Indices of the k (>= 0) largest values, descending, ties to the lower index."""
    order = sorted(range(len(values)), key=values.__getitem__, reverse=True)
    return order[: min(k, len(values))]


def prune_prefix(
    logprobs: Sequence[float],
    mass_fraction: float,
    max_width: int,
    total_logprob: float | None = None,
) -> list[int]:
    """Retain the minimal high-probability prefix covering ``mass_fraction``.

    Sorts candidates by descending log-probability (ties to lower index) and
    scans their normalized linear-domain cumulative sum until it reaches
    ``mass_fraction`` of the total mass, within MASS_SLACK. The retained count
    is clamped to [1, max_width]. ``mass_fraction`` in [0, 1] and
    ``max_width`` >= 1 are not re-checked here: MultipathConfig checks them.

    ``total_logprob`` gives the log of the full candidate mass when
    ``logprobs`` holds only a (sufficiently large) top subset of it; by
    default the total is the log-sum-exp of ``logprobs`` itself.

    Returns the retained indices into ``logprobs``, in rank order.
    """
    n = len(logprobs)
    if n == 0:
        raise ValueError("candidate list is empty")

    if total_logprob is None:
        total_logprob = log_sum_exp(logprobs)
    if total_logprob == -math.inf:
        raise ValueError("all candidates have zero probability")

    order = sorted(range(n), key=logprobs.__getitem__, reverse=True)
    limit = min(n, max_width)
    cum = 0.0
    comp = 0.0  # Kahan compensation
    for rank in range(limit):
        term = math.exp(logprobs[order[rank]] - total_logprob)
        y = term - comp
        t = cum + y
        comp = (t - cum) - y
        cum = t
        if cum >= mass_fraction - MASS_SLACK:
            return order[: rank + 1]
    return order[:limit]


def nucleus_prefix(probs: Sequence[float], top_p: float, top_k: int) -> list[int]:
    """Support of combined top-k / top-p selection, in descending-probability order.

    The support is the intersection of the top_k most probable tokens and the
    minimal set whose cumulative probability reaches top_p (within
    MASS_SLACK); with the shared tie order both sets are prefixes of the same
    ranking, so the intersection is the shorter prefix.

    This is the dense reference: it sorts the whole row. The sampler cuts
    the sparse row's ``ranked(top_k)`` with ``nucleus_count`` instead, and
    the tests hold the two equal.
    """
    if not 0.0 < top_p <= 1.0:
        raise ValueError(f"top_p must be in (0, 1], got {top_p}")
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    n = len(probs)
    if n == 0:
        raise ValueError("distribution is empty")

    order = sorted(range(n), key=probs.__getitem__, reverse=True)
    if probs[order[0]] <= 0.0:
        raise ValueError("all probabilities are zero")
    return order[: min(nucleus_count(map(probs.__getitem__, order), top_p), top_k)]


def nucleus_count(ranked_probs: Iterable[float], top_p: float) -> int:
    """Length of the shortest prefix of ``ranked_probs`` (descending) whose
    compensated cumulative sum reaches ``top_p`` within MASS_SLACK; all of
    them when none does."""
    count = 0
    cum = 0.0
    comp = 0.0  # Kahan compensation
    for p in ranked_probs:
        count += 1
        y = p - comp
        t = cum + y
        comp = (t - cum) - y
        cum = t
        if cum >= top_p - MASS_SLACK:
            break
    return count


def log_sum_exp(logprobs: Sequence[float]) -> float:
    """log(sum(exp(x))) of the entries, -inf for an all--inf input."""
    m = max(logprobs) if logprobs else -math.inf
    if m == -math.inf:
        return -math.inf
    # A plain left-to-right loop, not sum(): from Python 3.12 sum() uses
    # compensated summation, and the result must not depend on the version.
    acc = 0.0
    for x in logprobs:
        acc += math.exp(x - m)
    return m + math.log(acc)
