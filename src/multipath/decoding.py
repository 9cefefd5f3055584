"""Decoders: greedy, beam, nucleus sampling, entropy-adaptive sampling, and
the multipath decoder with mass-threshold pruning and min-perplexity selection.

The multipath decoder keeps a dynamically sized set of candidate sequences.
Each step pools the single-token extensions of every active path, prunes
the pool to the smallest high-probability prefix covering
``mass_fraction`` of its total probability (capped at ``max_width``), moves
finished paths to a finished pool, and answers with the finished path of
minimum perplexity. Each step's kept paths are the decode's record
(``DecodeResult.retained``); every other step count is derived from them.

Two limits reduce to classical decoders, each away from one corner case.
Width 1 picks greedy's tokens unless two probabilities of a row share a
log: ``children`` ranks by logprob, so such a tie goes to the lower id,
where greedy ranks by probability. mass_fraction 1.0 with cap B keeps the
sets of beam search of width B unless fewer than B of a step's candidates
hold all but MASS_SLACK of its pool: the scan stops there, and beam keeps B.

The pool is lazy: it holds each candidate as (parent, token, value), with
value the candidate's cumulative logprob, and a SequencePath is built only
for the candidates the step retains.

Ordering discipline: active paths are kept sorted by token ids, and each
parent's children are enumerated in ascending token id, so the candidate
list is ordered lexicographically by token path. The ranking kernels break
value ties by list position, which therefore means "lexicographically
smaller path wins".
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Sequence

from . import kernels
from .models import ModelInterface, SamplingTable, SequencePath, StepDistribution, Vocabulary, perplexity

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
    max_len: int = 128

    def __post_init__(self) -> None:
        if self.base_k < 1:
            raise ValueError(f"base_k must be >= 1, got {self.base_k}")
        if self.max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {self.max_len}")


# ---------------------------------------------------------------------------
# Results


def _selection_key(path: SequencePath):
    # The -cum_logprob term is redundant in exact arithmetic (equal ppl and
    # length imply equal cum) and only guards float collapse of exp().
    return (perplexity(path.cum_logprob, len(path.tokens)), len(path.tokens), -path.cum_logprob, path.tokens)


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
    decoders it equals the chosen sequence's length. ``retained`` holds the
    kept paths of each step of multipath and beam decoding, whose k_trace
    is the number kept per step; the single-path decoders leave it empty.
    """

    chosen: SequencePath
    finished_candidates: tuple[SequencePath, ...]
    truncated: tuple[SequencePath, ...]
    k_trace: tuple[int, ...]
    tokens_generated: int
    vocabulary: Vocabulary
    retained: tuple[tuple[SequencePath, ...], ...] = field(default=(), compare=False)

    @property
    def steps(self) -> int:
        """Decode steps taken; every decoder's k_trace has one entry per step."""
        return len(self.k_trace)

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
    return _walk(model, prompt, max_len, lambda dist: dist.sampling_table(1, 1.0), lambda: 0.0)


def nucleus_sample(model: ModelInterface, prompt: Sequence[int], cfg: SamplerConfig, seed: int) -> DecodeResult:
    """Sample each token from the renormalized top-k / top-p support, drawing
    from ``random.Random(seed)``."""
    top_k, top_p = cfg.top_k, cfg.top_p
    return _walk(model, prompt, cfg.max_len, lambda dist: dist.sampling_table(top_k, top_p),
                 random.Random(seed).random)


def adaptive_decode(model: ModelInterface, prompt: Sequence[int], cfg: AdaptiveConfig, seed: int) -> DecodeResult:
    """Sample within a top-k set whose size tracks the step entropy, drawing
    from ``random.Random(seed)``.

    k_step = clamp(round(H_bits), 1, base_k), then a
    probability-proportional draw among the k_step most probable tokens.
    """
    k_trace: list[int] = []

    def table_of(dist: StepDistribution) -> SamplingTable:
        bits = dist.entropy() / LN2
        k_step = min(max(round(bits), 1), cfg.base_k)
        k_trace.append(k_step)
        # The top_p = 1.0 cut keeps all of ranked(k_step). Were the first
        # j < k_step of them to hold 1 - MASS_SLACK of the mass, H would be
        # at most log2(j) + 1e-7 bits, below k_step - 0.5, the least entropy
        # that rounds to k_step or more.
        return dist.sampling_table(k_step, 1.0)

    result = _walk(model, prompt, cfg.max_len, table_of, random.Random(seed).random)
    return replace(result, k_trace=tuple(k_trace))


def _walk(model, prompt, max_len: int, table_of, draw) -> DecodeResult:
    """Shared single-path loop: pick one token per step until EOS or max_len
    (callers guarantee max_len >= 1).

    Each step picks from the row's ``table_of(row)`` (a SamplingTable) with
    one ``draw()`` in [0, 1): the first token whose running sum exceeds the
    draw times the total, and the last token when none does. The loop
    carries the tokens and their running logprob sum, added in step order,
    and builds one path at the end.
    """
    vocabulary = model.vocabulary
    prompt_ids = vocabulary.check_ids(prompt, "prompt")
    eos = vocabulary.eos_id
    tokens: tuple[int, ...] = ()
    cum = 0.0
    for _ in range(max_len):
        dist = model.next_distribution(prompt_ids, tokens)
        support, cumulative, total = table_of(dist)
        token = support[min(bisect_right(cumulative, draw() * total), len(support) - 1)]
        tokens += (token,)
        cum += dist.logprob(token)
        if token == eos:
            break
    path = SequencePath(tokens, cum, token == eos)
    return DecodeResult(
        chosen=path,
        finished_candidates=(path,) if path.finished else (),
        truncated=() if path.finished else (path,),
        k_trace=(1,) * len(tokens),
        tokens_generated=len(tokens),
        vocabulary=vocabulary,
    )


# ---------------------------------------------------------------------------
# Multi-path decoders


def _expand(model, prompt_ids, actives, width_cap: int):
    """The pool of single-token extensions of ``actives``, without building
    a path for any of them, and the log of the pool's total mass.

    Each parent keeps its top-``width_cap`` positive-probability children (by
    probability, ties to the lower token id), which StepDistribution.children
    reads from the row without visiting the whole vocabulary. Any child
    dropped this way has at least width_cap stronger siblings, so it can
    never enter the global top-width_cap prefix: the trim leaves every
    pruning outcome unchanged.
    Children are emitted in ascending token id per parent, so the candidate
    list stays lexicographically ordered by token path.

    Returns (parents, tokens, values, total): candidate i extends
    ``parents[i]`` by ``tokens[i]`` and has cumulative logprob ``values[i]``;
    ``total`` is the log of the untrimmed pool's mass.
    """
    parents: list[SequencePath] = []
    tokens: list[int] = []
    values: list[float] = []
    for parent in actives:
        cum = parent.cum_logprob
        for t, lp in model.next_distribution(prompt_ids, parent.tokens).children(width_cap):
            parents.append(parent)
            tokens.append(t)
            values.append(cum + lp)
    # Each row sums to 1, so the pool's total mass is the parents' mass even
    # when some children were trimmed away.
    return parents, tokens, values, kernels.log_sum_exp([p.cum_logprob for p in actives])


def _multi_walk(model, prompt, max_len, retain, width_cap):
    prompt_ids = model.vocabulary.check_ids(prompt, "prompt")
    eos = model.vocabulary.eos_id
    actives = [SequencePath((), 0.0, False)]
    finished: list[SequencePath] = []
    steps: list[tuple[SequencePath, ...]] = []
    tokens_generated = 0

    while actives and len(steps) < max_len:
        tokens_generated += len(actives)
        parents, tokens, values, total = _expand(model, prompt_ids, actives, width_cap)
        kept_idx = retain(values, total)
        # Positional on purpose: a keyword call matches each keyword to its
        # field by name, which CPython 3.11 does not specialize, and this
        # runs once per kept path per step (0.44 us per path by keyword
        # against 0.23 us positional, CPython 3.11.7).
        kept = tuple([SequencePath(parents[i].tokens + (tokens[i],), values[i], tokens[i] == eos) for i in kept_idx])
        steps.append(kept)
        finished.extend(p for p in kept if p.finished)
        # Pool order is lexicographic token order (see the module docstring),
        # so ascending pool index keeps the actives sorted.
        actives = [p for _, p in sorted(zip(kept_idx, kept)) if not p.finished]

    pool = finished if finished else actives
    return DecodeResult(
        chosen=select_min_ppl(pool),
        finished_candidates=tuple(finished),
        truncated=tuple(actives),
        k_trace=tuple(map(len, steps)),
        tokens_generated=tokens_generated,
        vocabulary=model.vocabulary,
        retained=tuple(steps),
    )


def multipath_decode(model: ModelInterface, prompt: Sequence[int], cfg: MultipathConfig) -> DecodeResult:
    """Mass-threshold tree decoding with min-perplexity selection.

    Per step, the children of all active paths are pooled and the pool is
    pruned to the smallest mass-covering prefix (see kernels.prune_prefix);
    retained finished paths move to the finished pool and stop expanding.
    The answer is the minimum-perplexity finished path, falling back to the
    max_len-truncated actives when nothing finished.
    """

    def retain(values, total):
        return kernels.prune_prefix(values, cfg.mass_fraction, cfg.max_width, total)

    return _multi_walk(model, prompt, cfg.max_len, retain, cfg.max_width)


def beam_search(model: ModelInterface, prompt: Sequence[int], cfg: BeamConfig) -> DecodeResult:
    """Fixed-width search: keep the ``width`` highest-probability paths per step.

    Only positive-probability extensions compete (a zero-probability path
    can never pad a beam). Finished paths leave the active set; the final
    choice is the minimum-perplexity finished path, like multipath_decode.
    """

    def retain(values, _total):
        return kernels.topk_indices(values, cfg.width)

    return _multi_walk(model, prompt, cfg.max_len, retain, cfg.width)
