"""Independent cross-checks for the decoders.

Everything here recomputes expected behavior by brute force (exhaustive
sequence enumeration, linear-scan pruning) with none of the decoder's
shortcuts, and reports human-readable counterexamples on disagreement. The
acceptance tests and the `oracle-check` command both run these. The pruning
check feeds the retention kernel random pools of candidate log-probabilities,
given as plain lists in the decoder's canonical order, so a value tie goes to
the lower list position.

The random model generator keeps every nonzero probability at or above
1/MAX_WEIGHT_SUM, so no candidate's relative mass can come within orders of
magnitude of the 1e-12 retention slack; threshold comparisons then cannot
flip on summation noise and set-level checks are exact.
"""

from __future__ import annotations

import math
import random
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

    def random_weights(force_eos: bool) -> dict[int, int]:
        """Token -> positive integer weight, for a random support."""
        size = rng.randint(1, vocab_size)
        support = set(rng.sample(range(vocab_size), size))
        if force_eos:
            support.add(vocab.eos_id)
        return {t: rng.randint(1, MAX_WEIGHT) for t in support}

    rows: dict[tuple[int, ...], StepDistribution] = {}
    contexts: list[tuple[int, ...]] = [()]
    for depth in range(horizon):
        next_contexts: list[tuple[int, ...]] = []
        for ctx in contexts:
            weights = random_weights(force_eos=depth == horizon - 1 or rng.random() < 0.5)
            total = sum(weights.values())
            rows[ctx] = StepDistribution(probs=tuple(weights.get(t, 0) / total for t in range(vocab_size)))
            if depth + 1 < horizon:
                next_contexts += [ctx + (t,) for t in sorted(weights) if t != vocab.eos_id]
        contexts = next_contexts
    default = StepDistribution.uniform(vocab_size) if rng.random() < 0.5 else None
    return TableLM(vocabulary=vocab, rows=rows, default=default), horizon


# ---------------------------------------------------------------------------
# Exhaustive enumeration


def enumerate_finished(model: ModelInterface, prompt: Sequence[int], max_len: int) -> list[SequencePath]:
    """Every positive-probability sequence that reaches EOS within max_len tokens."""
    prompt = model.vocabulary.check_ids(prompt, "prompt")
    eos = model.vocabulary.eos_id
    out: list[SequencePath] = []

    def walk(path: SequencePath) -> None:
        if path.finished:
            out.append(path)
            return
        if len(path) >= max_len:
            return
        dist = model.next_distribution(prompt, path.tokens)
        for t in range(len(dist)):
            lp = dist.logprob(t)
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
# Linear-scan pruning oracle


def prune_scan(values: Sequence[float], mass_fraction: float, max_width: int) -> tuple[list[int], int]:
    """Reference pruning: explicit sort, fsum normalization, linear scan.

    Ranks pool positions by (-value, index) and returns (retained indices in
    rank order, retained count), the same contract as kernels.prune_prefix.
    """
    ranked = sorted(range(len(values)), key=lambda i: (-values[i], i))
    shift = max(values, default=-math.inf)
    if shift == -math.inf:
        raise ValueError("all candidates have zero probability")
    masses = [math.exp(values[i] - shift) for i in ranked]
    total = math.fsum(masses)
    limit = min(len(ranked), max_width)
    count = limit
    for k in range(1, limit + 1):
        if math.fsum(masses[:k]) / total >= mass_fraction - kernels.MASS_SLACK:
            count = k
            break
    return ranked[:count], count


def random_pool(rng: random.Random) -> list[float]:
    """Random pruning pool of candidate log-probabilities, with duplicate
    values (so the index tie order is exercised) and occasional
    zero-probability (-inf) entries."""
    n = rng.randint(1, 40)
    values = [-math.inf if rng.random() < 0.1 else rng.uniform(-8.0, 0.0) for _ in range(n)]
    for _ in range(n // 3):
        i, j = rng.randrange(n), rng.randrange(n)
        values[i] = values[j]
    if all(v == -math.inf for v in values):
        values[rng.randrange(n)] = rng.uniform(-8.0, 0.0)
    return values


# ---------------------------------------------------------------------------
# Check drivers (shared by tests and the oracle-check command)

def _mutate_result(mutate: str | None, retained: list[int], k: int) -> tuple[list[int], int]:
    """Deliberately corrupt a pruning result so the checks must catch it."""
    if mutate is None or k <= 1:
        return retained, k
    if mutate == "prune-off-by-one":
        return retained[:-1], k - 1
    raise ValueError(f"unknown mutation {mutate!r}")


def check_pruning(trials: int, seed: int, mutate: str | None = None) -> list[str]:
    """Compare kernels.prune_prefix against the linear-scan reference."""
    failures: list[str] = []
    rng = random.Random(seed)
    for trial in range(trials):
        values = random_pool(rng)
        mass_fraction = rng.random()
        max_width = rng.randint(1, len(values) + 3)
        got, got_k = kernels.prune_prefix(values, mass_fraction, max_width)
        got, got_k = _mutate_result(mutate, got, got_k)
        want, want_k = prune_scan(values, mass_fraction, max_width)
        if got_k > max_width:
            failures.append(
                f"trial {trial}: retained {got_k} > max_width {max_width} "
                f"(n={len(values)}, mass_fraction={mass_fraction!r})"
            )
        elif (got_k, got) != (want_k, want):
            failures.append(
                f"trial {trial}: retained {got_k} candidates, linear scan says {want_k} "
                f"(n={len(values)}, mass_fraction={mass_fraction!r}, max_width={max_width})"
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


def check_reductions(models: int, seed: int) -> list[str]:
    """Width-1 multipath equals greedy; mass 1.0 with cap B matches beam(B) sets."""
    failures: list[str] = []
    rng = random.Random(seed)
    for trial in range(models):
        model, max_len = random_table_lm(rng)
        vocab = model.vocabulary

        greedy = greedy_decode(model, (), max_len)
        narrow = multipath_decode(model, (), MultipathConfig(mass_fraction=1.0, max_width=1, max_len=max_len))
        if narrow.chosen.tokens != greedy.chosen.tokens:
            failures.append(
                f"model {trial}: width-1 decode {vocab.decode(narrow.chosen.tokens)!r} "
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
    return failures


def _first_divergence(a, b) -> int:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b))
