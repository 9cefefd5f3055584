"""Decoders: greedy, beam, nucleus sampling, entropy-adaptive sampling, and
the multipath decoder with mass-threshold pruning and min-perplexity selection.

The multipath decoder keeps a dynamically sized set of candidate sequences.
Each step every active path is expanded over the vocabulary, the pool is
pruned to the smallest high-probability prefix covering ``mass_fraction`` of
the pool's total probability (capped at ``max_width``), finished paths move
to a finished pool, and the final answer is the finished path with minimum
perplexity. Width 1 reduces to greedy; mass_fraction 1.0 with cap B retains
the same sets as beam search of width B.

Ordering discipline: active paths are kept sorted by token ids, and each
parent's children are enumerated in ascending token id, so the candidate
list is ordered lexicographically by token path. The ranking kernels break
value ties by list position, which therefore means "lexicographically
smaller path wins".
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Sequence

from . import kernels
from .models import ModelInterface, SequencePath, StepDistribution, Vocabulary

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# Configs


@dataclass(frozen=True)
class MultipathConfig:
    """Multipath decoder settings.

    mass_fraction: fraction of each step's total candidate probability mass
        that retained paths must cover (0 keeps one path, 1 keeps them all).
    max_width: hard cap on retained paths per step.
    max_len: maximum generated sequence length, end token included.
    """

    mass_fraction: float = 0.9
    max_width: int = 7
    max_len: int = 128

    def __post_init__(self) -> None:
        if not 0.0 <= self.mass_fraction <= 1.0:
            raise ValueError(f"mass_fraction must be in [0, 1], got {self.mass_fraction}")
        if self.max_width < 1:
            raise ValueError(f"max_width must be >= 1, got {self.max_width}")
        if self.max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {self.max_len}")


@dataclass(frozen=True)
class BeamConfig:
    width: int = 4
    max_len: int = 128

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        if self.max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {self.max_len}")


@dataclass(frozen=True)
class SamplerConfig:
    """Combined top-k / top-p sampling settings (defaults p=0.95, k=15)."""

    top_p: float = 0.95
    top_k: int = 15
    seed: int = 0
    max_len: int = 128

    def __post_init__(self) -> None:
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError(f"top_p must be in (0, 1], got {self.top_p}")
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if self.max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {self.max_len}")


@dataclass(frozen=True)
class AdaptiveConfig:
    """Entropy-adaptive sampler: per-step candidate count grows with the
    step distribution's entropy in bits, capped at base_k."""

    base_k: int = 7
    entropy_scale: float = 1.0
    seed: int = 0
    max_len: int = 128

    def __post_init__(self) -> None:
        if self.base_k < 1:
            raise ValueError(f"base_k must be >= 1, got {self.base_k}")
        if self.entropy_scale < 0.0:
            raise ValueError(f"entropy_scale must be >= 0, got {self.entropy_scale}")
        if self.max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {self.max_len}")


# ---------------------------------------------------------------------------
# Results


def _selection_key(path: SequencePath):
    # The -cum_logprob term is redundant in exact arithmetic (equal ppl and
    # length imply equal cum) and only guards float collapse of exp().
    return (path.ppl(), len(path.tokens), -path.cum_logprob, path.tokens)


def select_min_ppl(paths: Sequence[SequencePath]) -> SequencePath:
    """Path with minimum perplexity; ties prefer shorter, then smaller token ids."""
    if not paths:
        raise ValueError("no paths to select from")
    return min(paths, key=_selection_key)


@dataclass(frozen=True)
class DecodeResult:
    """Chosen sequence plus competing finished paths and step accounting.

    tokens_generated counts one token per model call, i.e. the number of
    active paths entering each step summed over steps; for the single-path
    decoders it equals the chosen sequence's length.
    """

    chosen: SequencePath
    finished_candidates: tuple[SequencePath, ...]
    truncated: tuple[SequencePath, ...]
    k_trace: tuple[int, ...]
    tokens_generated: int
    steps: int
    vocabulary: Vocabulary
    retained_trace: tuple[tuple[tuple[int, ...], ...], ...] | None = field(default=None, compare=False)

    def ranked_finished(self) -> list[SequencePath]:
        return sorted(self.finished_candidates, key=_selection_key)

    def to_json_dict(self) -> dict:
        vocab = self.vocabulary

        def path_dict(p: SequencePath) -> dict:
            return {
                "tokens": [vocab.tokens[i] for i in p.tokens],
                "text": vocab.decode(p.tokens),
                "cum_logprob": p.cum_logprob,
                "ppl": p.ppl(),
            }

        out = path_dict(self.chosen)
        out["k_trace"] = list(self.k_trace)
        out["tokens_generated"] = self.tokens_generated
        out["candidates"] = [path_dict(p) for p in self.ranked_finished()]
        return out


# ---------------------------------------------------------------------------
# Single-path decoders


def greedy_decode(model: ModelInterface, prompt: Sequence[int], max_len: int = 128) -> DecodeResult:
    """Highest-probability token at every step (ties to the lowest token id)."""
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    return _walk(model, prompt, max_len, lambda dist, _step: kernels.topk_indices(dist.probs, 1)[0])


def nucleus_sample(model: ModelInterface, prompt: Sequence[int], cfg: SamplerConfig) -> DecodeResult:
    """Sample each token from the renormalized top-k / top-p support."""
    rng = random.Random(cfg.seed)

    def pick(dist: StepDistribution, _step: int) -> int:
        support = kernels.nucleus_prefix(dist.probs, cfg.top_p, cfg.top_k)
        return _draw(rng, dist.probs, support)

    return _walk(model, prompt, cfg.max_len, pick)


def adaptive_decode(model: ModelInterface, prompt: Sequence[int], cfg: AdaptiveConfig) -> DecodeResult:
    """Sample within a top-k set whose size tracks the step entropy.

    k_step = clamp(round(entropy_scale * H_bits), 1, base_k), then a
    probability-proportional draw among the k_step most probable tokens.
    """
    rng = random.Random(cfg.seed)
    k_trace: list[int] = []

    def pick(dist: StepDistribution, _step: int) -> int:
        bits = dist.entropy() / LN2
        k_step = min(max(round(cfg.entropy_scale * bits), 1), cfg.base_k)
        k_trace.append(k_step)
        support = kernels.topk_indices(dist.probs, k_step)
        return _draw(rng, dist.probs, support)

    result = _walk(model, prompt, cfg.max_len, pick)
    return DecodeResult(
        chosen=result.chosen,
        finished_candidates=result.finished_candidates,
        truncated=result.truncated,
        k_trace=tuple(k_trace),
        tokens_generated=result.tokens_generated,
        steps=result.steps,
        vocabulary=result.vocabulary,
    )


def _draw(rng: random.Random, probs: Sequence[float], support: list[int]) -> int:
    """Probability-proportional draw over ``support`` (inverse CDF walk)."""
    total = math.fsum(probs[t] for t in support)
    if total <= 0.0:
        raise ValueError("support carries no probability mass")
    r = rng.random() * total
    cum = 0.0
    for t in support:
        cum += probs[t]
        if r < cum:
            return t
    return support[-1]


def _walk(model, prompt, max_len: int, pick) -> DecodeResult:
    """Shared single-path loop: pick one token per step until EOS or max_len."""
    prompt_ids = tuple(prompt)
    eos = model.vocabulary.eos_id
    path = SequencePath.empty()
    steps = 0
    for _ in range(max_len):
        dist = model.next_distribution(prompt_ids, path.tokens)
        token = pick(dist, steps)
        path = path.extended(token, dist.logprobs[token], eos)
        steps += 1
        if path.finished:
            break
    return DecodeResult(
        chosen=path,
        finished_candidates=(path,) if path.finished else (),
        truncated=() if path.finished else (path,),
        k_trace=(1,) * steps,
        tokens_generated=len(path),
        steps=steps,
        vocabulary=model.vocabulary,
    )


# ---------------------------------------------------------------------------
# Multi-path decoders


def _expand(model, prompt_ids, actives, width_cap):
    """All positive-probability single-token extensions of ``actives``.

    ``width_cap`` trims each parent to its top-``width_cap`` children (by
    probability, ties to the lower token id). Any child dropped this way has
    at least width_cap stronger siblings, so it can never enter the global
    top-width_cap prefix: the trim leaves every pruning outcome unchanged.
    Children are emitted in ascending token id per parent, so the candidate
    list stays lexicographically ordered by token path.
    """
    eos = model.vocabulary.eos_id
    paths: list[SequencePath] = []
    values: list[float] = []
    parent_cums: list[float] = []
    for parent in actives:
        dist = model.next_distribution(prompt_ids, parent.tokens)
        logprobs = dist.logprobs
        positive = [t for t in range(len(logprobs)) if logprobs[t] != -math.inf]
        if width_cap is not None and len(positive) > width_cap:
            keep = kernels.topk_indices([logprobs[t] for t in positive], width_cap)
            children = sorted(positive[i] for i in keep)
        else:
            children = positive
        for t in children:
            paths.append(parent.extended(t, logprobs[t], eos))
            values.append(parent.cum_logprob + logprobs[t])
        parent_cums.append(parent.cum_logprob)
    # Each row sums to 1, so the pool's total mass is the parents' mass even
    # when some children were trimmed away.
    return paths, values, kernels.log_sum_exp(parent_cums)


def _multi_walk(model, prompt, max_len, retain, record_trace, full_expansion, width_cap):
    prompt_ids = tuple(prompt)
    actives = [SequencePath.empty()]
    finished: list[SequencePath] = []
    k_trace: list[int] = []
    trace: list[tuple[tuple[int, ...], ...]] = []
    tokens_generated = 0
    steps = 0

    while actives and steps < max_len:
        steps += 1
        tokens_generated += len(actives)
        cap = None if full_expansion else width_cap
        paths, values, total = _expand(model, prompt_ids, actives, cap)
        retained_idx, k_i = retain(values, total)
        retained = [paths[i] for i in retained_idx]
        k_trace.append(k_i)
        if record_trace:
            trace.append(tuple(p.tokens for p in retained))
        finished.extend(p for p in retained if p.finished)
        actives = sorted((p for p in retained if not p.finished), key=lambda p: p.tokens)

    pool = finished if finished else actives
    return DecodeResult(
        chosen=select_min_ppl(pool),
        finished_candidates=tuple(finished),
        truncated=tuple(actives),
        k_trace=tuple(k_trace),
        tokens_generated=tokens_generated,
        steps=steps,
        vocabulary=model.vocabulary,
        retained_trace=tuple(trace) if record_trace else None,
    )


def multipath_decode(
    model: ModelInterface,
    prompt: Sequence[int],
    cfg: MultipathConfig,
    record_trace: bool = False,
    full_expansion: bool = False,
) -> DecodeResult:
    """Mass-threshold tree decoding with min-perplexity selection.

    Per step, all active paths expand over the vocabulary and the pool is
    pruned to the smallest mass-covering prefix (see kernels.prune_prefix);
    retained finished paths move to the finished pool and stop expanding.
    The answer is the minimum-perplexity finished path, falling back to the
    max_len-truncated actives when nothing finished.

    ``full_expansion`` materializes every positive-probability child instead
    of the per-parent top-max_width trim; results are identical (the trim
    argument is in _expand) and the flag exists so tests can say so.
    """

    def retain(values, total):
        return kernels.prune_prefix(values, cfg.mass_fraction, cfg.max_width, total)

    return _multi_walk(model, prompt, cfg.max_len, retain, record_trace, full_expansion, cfg.max_width)


def beam_search(
    model: ModelInterface,
    prompt: Sequence[int],
    cfg: BeamConfig,
    record_trace: bool = False,
) -> DecodeResult:
    """Fixed-width search: keep the ``width`` highest-probability paths per step.

    Only positive-probability extensions compete (a zero-probability path
    can never pad a beam). Finished paths leave the active set; the final
    choice is the minimum-perplexity finished path, like multipath_decode.
    """

    def retain(values, _total):
        idx = kernels.topk_indices(values, cfg.width)
        return idx, len(idx)

    return _multi_walk(model, prompt, cfg.max_len, retain, record_trace, False, cfg.width)
