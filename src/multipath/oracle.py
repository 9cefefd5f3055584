"""Independent cross-checks for the decoders.

Everything here recomputes expected behavior by brute force (exhaustive
sequence enumeration, linear-scan pruning) with none of the decoder's
shortcuts, and reports human-readable counterexamples on disagreement. The
acceptance tests and the `oracle-check` command both run these.

The random model generator keeps every nonzero probability at or above
1/MAX_WEIGHT_SUM, so no candidate's relative mass can come within orders of
magnitude of the 1e-12 retention slack; threshold comparisons then cannot
flip on summation noise and set-level checks are exact.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from . import kernels
from .decoding import BeamConfig, MultipathConfig, beam_search, greedy_decode, multipath_decode
from .models import ModelInterface, SequencePath, StepDistribution, TableLM, Vocabulary

LETTERS = ("a", "b", "c")
MAX_WEIGHT = 15
# With V <= 4 the smallest conditional is 1/(1 + 3*MAX_WEIGHT); at horizon 5
# the smallest relative candidate mass is that to the fifth power, ~5e-9,
# still several thousand times the 1e-12 slack.
MAX_WEIGHT_SUM = 1 + (len(LETTERS)) * MAX_WEIGHT


def random_table_lm(rng: random.Random, max_vocab: int = 4, max_len: int = 5) -> tuple[TableLM, int]:
    """Random enumerable model: V <= max_vocab, horizon <= max_len.

    Rows cover every non-terminal context, supports are random subsets (so
    zero entries occur), weights are small integers (so exact ties occur),
    and rows at the final pre-horizon depth always give the end token mass,
    making at least one finished sequence reachable.
    """
    vocab_size = rng.randint(2, max_vocab)
    horizon = rng.randint(2, max_len)
    letters = LETTERS[: vocab_size - 1]
    vocab = Vocabulary(tokens=letters + ("$",), eos_id=vocab_size - 1)

    def random_row(force_eos: bool) -> StepDistribution:
        ids = list(range(vocab_size))
        size = rng.randint(1, vocab_size)
        support = set(rng.sample(ids, size))
        if force_eos:
            support.add(vocab.eos_id)
        weights = {t: rng.randint(1, MAX_WEIGHT) for t in support}
        total = sum(weights.values())
        return StepDistribution(probs=tuple(weights.get(t, 0) / total for t in ids))

    rows: dict[tuple[int, ...], StepDistribution] = {}
    contexts: list[tuple[int, ...]] = [()]
    for depth in range(horizon):
        next_contexts: list[tuple[int, ...]] = []
        for ctx in contexts:
            row = random_row(force_eos=depth == horizon - 1 or rng.random() < 0.5)
            rows[ctx] = row
            for t in range(vocab_size):
                if t != vocab.eos_id and row.probs[t] > 0.0 and depth + 1 < horizon:
                    next_contexts.append(ctx + (t,))
        contexts = next_contexts
    default = StepDistribution.uniform(vocab_size) if rng.random() < 0.5 else None
    return TableLM(vocabulary=vocab, rows=rows, default=default), horizon


# ---------------------------------------------------------------------------
# Exhaustive enumeration


def enumerate_finished(model: ModelInterface, prompt: Sequence[int], max_len: int) -> list[SequencePath]:
    """Every positive-probability sequence that reaches EOS within max_len tokens."""
    eos = model.vocabulary.eos_id
    out: list[SequencePath] = []

    def walk(path: SequencePath) -> None:
        if path.finished:
            out.append(path)
            return
        if len(path) >= max_len:
            return
        dist = model.next_distribution(prompt, path.tokens)
        for t, lp in enumerate(dist.logprobs):
            if lp != -math.inf:
                walk(path.extended(t, lp, eos))

    walk(SequencePath.empty())
    return out


def best_finished(model: ModelInterface, prompt: Sequence[int], max_len: int) -> SequencePath | None:
    """Minimum-perplexity finished sequence by exhaustive search.

    Ties prefer the shorter sequence, then the lexicographically smaller
    token path (the selection contract).
    """
    finished = enumerate_finished(model, prompt, max_len)
    if not finished:
        return None
    return min(finished, key=lambda p: (math.exp(-p.cum_logprob / len(p)), len(p), p.tokens))


# ---------------------------------------------------------------------------
# Candidate pools, pruned through the retention kernel


@dataclass(frozen=True)
class Candidate:
    """One single-token extension in a pruning pool."""

    parent_index: int
    token_id: int
    cum_logprob: float

    def __post_init__(self) -> None:
        if self.parent_index < 0:
            raise ValueError(f"parent_index must be >= 0, got {self.parent_index}")
        if self.token_id < 0:
            raise ValueError(f"token_id must be >= 0, got {self.token_id}")
        if math.isnan(self.cum_logprob) or self.cum_logprob == math.inf:
            raise ValueError(f"cum_logprob must be finite or -inf, got {self.cum_logprob}")


def prune_candidates(
    candidates: Sequence[Candidate],
    mass_fraction: float,
    max_width: int,
    total_logprob: float | None = None,
) -> tuple[list[Candidate], int]:
    """Retain the minimal prefix of ``candidates`` covering ``mass_fraction``.

    Candidates are ranked by descending probability with ties broken by
    (parent_index, token_id); the retained count is the smallest k whose
    normalized linear-domain cumulative mass reaches ``mass_fraction``
    (within the kernels' slack), clamped to [1, max_width]. ``total_logprob``
    overrides the pool mass when the list is a pre-selected subset of a
    larger pool.

    Returns (retained candidates in rank order, retained count). Raises
    ValueError when every candidate has probability zero.
    """
    if not candidates:
        raise ValueError("candidate list is empty")
    canonical = sorted(candidates, key=lambda c: (c.parent_index, c.token_id))
    values = [c.cum_logprob for c in canonical]
    retained_idx, k_i = kernels.prune_prefix(values, mass_fraction, max_width, total_logprob)
    return [canonical[i] for i in retained_idx], k_i


# ---------------------------------------------------------------------------
# Linear-scan pruning oracle


def prune_scan(
    candidates: Sequence[Candidate],
    mass_fraction: float,
    max_width: int,
) -> tuple[list[Candidate], int]:
    """Reference pruning: explicit sort, fsum normalization, linear scan."""
    canonical = sorted(candidates, key=lambda c: (c.parent_index, c.token_id))
    ranked = sorted(canonical, key=lambda c: (-c.cum_logprob, c.parent_index, c.token_id))
    shift = max(c.cum_logprob for c in ranked)
    if shift == -math.inf:
        raise ValueError("all candidates have zero probability")
    total = math.fsum(math.exp(c.cum_logprob - shift) for c in ranked)
    limit = min(len(ranked), max_width)
    count = limit
    for k in range(1, limit + 1):
        cum = math.fsum(math.exp(c.cum_logprob - shift) for c in ranked[:k]) / total
        if cum >= mass_fraction - kernels.MASS_SLACK:
            count = k
            break
    return ranked[:count], count


def random_candidates(rng: random.Random) -> list[Candidate]:
    """Random pruning pool: unique (parent, token) keys, duplicate values,
    occasional zero-probability entries, shuffled input order."""
    n = rng.randint(1, 40)
    keys = rng.sample([(p, t) for p in range(8) for t in range(8)], n)
    values = [-math.inf if rng.random() < 0.1 else rng.uniform(-8.0, 0.0) for _ in range(n)]
    # duplicate some values so the (parent, token) tie order is exercised
    for _ in range(n // 3):
        i, j = rng.randrange(n), rng.randrange(n)
        values[i] = values[j]
    if all(v == -math.inf for v in values):
        values[rng.randrange(n)] = rng.uniform(-8.0, 0.0)
    cands = [Candidate(parent_index=p, token_id=t, cum_logprob=v) for (p, t), v in zip(keys, values)]
    rng.shuffle(cands)
    return cands


# ---------------------------------------------------------------------------
# Check drivers (shared by tests and the oracle-check command)

def _mutate_result(mutate: str | None, retained: list[Candidate], k: int):
    """Deliberately corrupt a pruning result so the checks must catch it."""
    if mutate is None or k <= 1:
        return retained, k
    if mutate == "prune-off-by-one":
        return retained[:-1], k - 1
    raise ValueError(f"unknown mutation {mutate!r}")


def check_pruning(trials: int, seed: int, mutate: str | None = None) -> list[str]:
    """Compare prune_candidates against the linear-scan reference."""
    failures: list[str] = []
    rng = random.Random(seed)
    for trial in range(trials):
        cands = random_candidates(rng)
        mass_fraction = rng.random()
        max_width = rng.randint(1, len(cands) + 3)
        got, got_k = prune_candidates(cands, mass_fraction, max_width)
        got, got_k = _mutate_result(mutate, got, got_k)
        want, want_k = prune_scan(cands, mass_fraction, max_width)
        if got_k > max_width:
            failures.append(
                f"trial {trial}: retained {got_k} > max_width {max_width} "
                f"(n={len(cands)}, mass_fraction={mass_fraction!r})"
            )
        elif (got_k, got) != (want_k, want):
            failures.append(
                f"trial {trial}: retained {got_k} candidates, linear scan says {want_k} "
                f"(n={len(cands)}, mass_fraction={mass_fraction!r}, max_width={max_width})"
            )
        if failures and mutate is not None:
            break
    return failures


def check_exactness(models: int, seed: int, mutate: str | None = None) -> list[str]:
    """Exhaustive-cap decoding must return the enumerated min-PPL sequence."""
    failures: list[str] = []
    rng = random.Random(seed)
    for trial in range(models):
        model, max_len = random_table_lm(rng)
        vocab = model.vocabulary
        want = best_finished(model, (), max_len)
        if want is None:
            continue
        cfg = MultipathConfig(mass_fraction=1.0, max_width=vocab.size ** max_len, max_len=max_len)
        result = multipath_decode(model, (), cfg)
        got = result.chosen
        if mutate == "selection-max-prob":
            got = max(result.finished_candidates, key=lambda p: p.cum_logprob)
        if got.tokens != want.tokens:
            failures.append(
                f"model {trial}: chose {vocab.decode(got.tokens)!r} "
                f"(ppl {got.ppl():.12g}), enumeration says {vocab.decode(want.tokens)!r} "
                f"(ppl {want.ppl():.12g})"
            )
        elif abs(got.ppl() - want.ppl()) > 1e-9 * want.ppl():
            failures.append(
                f"model {trial}: ppl {got.ppl()!r} disagrees with enumerated {want.ppl()!r}"
            )
        if failures and mutate is not None:
            break
    return failures


def check_reductions(models: int, seed: int, mutate: str | None = None) -> list[str]:
    """Width-1 multipath equals greedy; mass 1.0 with cap B matches beam(B) sets."""
    failures: list[str] = []
    rng = random.Random(seed)
    for trial in range(models):
        model, max_len = random_table_lm(rng)
        vocab = model.vocabulary

        greedy = greedy_decode(model, (), max_len)
        narrow = multipath_decode(model, (), MultipathConfig(mass_fraction=1.0, max_width=1, max_len=max_len))
        narrow_tokens = narrow.chosen.tokens
        if mutate == "prune-off-by-one":
            narrow_tokens = narrow_tokens[:-1]
        if narrow_tokens != greedy.chosen.tokens:
            failures.append(
                f"model {trial}: width-1 decode {vocab.decode(narrow_tokens)!r} "
                f"!= greedy {vocab.decode(greedy.chosen.tokens)!r}"
            )

        for width in (2, 3):
            beam = beam_search(model, (), BeamConfig(width=width, max_len=max_len), record_trace=True)
            wide = multipath_decode(
                model, (), MultipathConfig(mass_fraction=1.0, max_width=width, max_len=max_len),
                record_trace=True,
            )
            if wide.retained_trace != beam.retained_trace:
                failures.append(
                    f"model {trial}: width-{width} retained sets diverge at step "
                    f"{_first_divergence(wide.retained_trace, beam.retained_trace)}"
                )
        if failures and mutate is not None:
            break
    return failures


def _first_divergence(a, b) -> int:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b))
