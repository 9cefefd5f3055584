"""Independent cross-checks for the decoders.

Everything here recomputes expected behavior by brute force (exhaustive
sequence enumeration, linear-scan pruning, multipath steps over the
untrimmed pool of every child, sampler replays over the full sort of each
dense row) with none of the decoder's shortcuts, and reports
human-readable counterexamples on disagreement; MUTATIONS lists defects in
the shipped code that the checks must catch. The pruning check feeds the
retention kernel random pools of candidate log-probabilities, given as
plain lists in the decoder's canonical order, so a value tie goes to the
lower list position.

The decoder checks alternate two kinds of random model: dense table rows
with floor 0 (``random_table_lm``) and add-k n-gram rows, whose floor is
positive and whose children come through the row's floor-token shortcut
(``random_ngram_lm``). Both keep every nonzero conditional probability far
from the 1e-12 retention slack (MASS_SLACK), so threshold comparisons cannot
flip on summation noise and set-level checks are exact:

- a table row's weights are integers in [1, MAX_WEIGHT] over V <= 4 tokens,
  so each nonzero conditional is at least 1/MAX_WEIGHT_SUM = 1/46;
- an n-gram corpus has at most MAX_LINES lines of at most MAX_LINE_WORDS
  words, so no context is counted more than 4 * (4 + 1) = 20 times (each
  word and each line end is one transition), and every conditional is at
  least NGRAM_ADD_K / (20 + NGRAM_ADD_K * 4) = 1/44.

A pool's total mass is at most 1, so at horizon <= 5 every candidate's
relative mass is at least 46**-5, about 5e-9: thousands of times the
slack, and never the term a mass-1.0 scan could stop short of.

That keeps the reductions check clear of the two corner cases where the
reductions are not exact (see the decoding module docstring). Mass-1.0
multipath with cap B keeps fewer paths than beam(B) only when some
candidate holds less than MASS_SLACK of its pool, which the bound above
rules out. Width-1 multipath picks another token than greedy only when two
different probabilities of one row share a log, that is when they lie
within a few ulps of each other. Two different conditionals of one random
row differ by at least 1/20.5 of the smaller: a table row's weights are
integers of at most MAX_WEIGHT over one total (1/15), and an n-gram row's
are counts of at most 20 plus NGRAM_ADD_K over one denominator (1/20.5).
The samplers suite adds one fixed model with such a row (``tied_log_lm``),
on which greedy must pick the more probable of the two tokens.

The step check rebuilds each multipath step at widths 1-3 from the dense
rows, with no per-parent trim and no floor-token shortcut, and cuts the
whole pool with ``prune_scan``; ``check_exactness`` cannot see either
shortcut, because its width cap of V**horizon never trims a row.

The sampler check replays each sampler with its own ``random.Random(seed)``
over the dense row, sorted in full, and draws by a linear walk over the
running sums, where every sampler bisects its row's sampling table.
Its top-p cut sums the sorted prefix with fsum, where the sampler uses a
compensated sum; both are within an ulp of the exact sum, far inside
MASS_SLACK, so the cuts can differ only for a ``top_p`` within an ulp of a
prefix's mass less the slack, which no draw here comes near. The check
also holds the ``entropy()`` of each row the adaptive replay visits, which
adaptive sampling reads, to the fsum over the dense row, bit for bit.

The wire check (the one reason this module imports ``remote``) sends the
dense rows a step walk reads through ``remote._parse_distribution`` as a
model server's reply, a null logprob for each zero, and holds the parsed
row to exp(log p) of each probability p, and to 0.0 for each null.
"""

from __future__ import annotations

import contextlib
import math
import random
from typing import Iterator, Sequence

from . import decoding, kernels, remote
from .decoding import (
    AdaptiveConfig,
    BeamConfig,
    MultipathConfig,
    SamplerConfig,
    adaptive_decode,
    beam_search,
    greedy_decode,
    multipath_decode,
    nucleus_sample,
)
from .models import ModelInterface, NGramLM, SequencePath, StepDistribution, TableLM, Vocabulary, train_ngram

LETTERS = ("a", "b", "c")
MAX_WEIGHT = 15
# With V <= 4 the smallest table conditional is 1/(1 + 3*MAX_WEIGHT).
MAX_WEIGHT_SUM = 1 + (len(LETTERS)) * MAX_WEIGHT
# Corpus bounds and smoothing of the random n-gram models (see the module
# docstring for the smallest conditional they give).
MAX_LINES = 4
MAX_LINE_WORDS = 4
NGRAM_ADD_K = 0.5


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


def random_ngram_lm(rng: random.Random, max_len: int = 5) -> tuple[NGramLM, int]:
    """Random enumerable add-k n-gram model: V <= 4, order 1-3, horizon <= max_len.

    The corpus is 1..MAX_LINES lines of 1..MAX_LINE_WORDS words over up to
    three letters, so counts are small integers and rows hold exact ties,
    among their floor tokens above all.
    """
    letters = LETTERS[: rng.randint(1, len(LETTERS))]
    lines = [
        " ".join(rng.choice(letters) for _ in range(rng.randint(1, MAX_LINE_WORDS)))
        for _ in range(rng.randint(1, MAX_LINES))
    ]
    model = train_ngram("\n".join(lines), order=rng.randint(1, 3), add_k=NGRAM_ADD_K, eos_token="$")
    return model, rng.randint(2, max_len)


def random_model(rng: random.Random, trial: int) -> tuple[ModelInterface, int]:
    """Model ``trial`` of a check and its horizon: a table model for an even
    trial, an add-k n-gram model for an odd one."""
    return random_table_lm(rng) if trial % 2 == 0 else random_ngram_lm(rng)


def tied_log_lm() -> TableLM:
    """A fixed model whose first row holds two different probabilities that
    share a log: 0.01 for token 0 and the next double up for token 1; the
    other 98 tokens, the end token 99 among them, share the rest as the
    row's floor. Every later row gives the end token all the mass. Greedy
    picks token 1 first; width-1 multipath, which ranks children by
    logprob, picks token 0."""
    size, low, high = 100, 0.01, 0.010000000000000002
    vocab = Vocabulary(tokens=tuple(f"t{i}" for i in range(size - 1)) + ("$",), eos_id=size - 1)
    first = StepDistribution._trusted(size, (1.0 - low - high) / (size - 2), {0: low, 1: high})
    return TableLM(vocabulary=vocab, rows={(): first}, default=StepDistribution._trusted(size, 0.0, {size - 1: 1.0}))


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
                walk(SequencePath(tokens=path.tokens + (t,), cum_logprob=path.cum_logprob + lp, finished=t == eos))

    walk(SequencePath(tokens=(), cum_logprob=0.0, finished=False))
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


def prune_scan(values: Sequence[float], mass_fraction: float, max_width: int) -> list[int]:
    """Reference pruning: explicit sort, fsum normalization, linear scan.

    Ranks pool positions by (-value, index) and returns the retained indices
    in rank order, the same contract as kernels.prune_prefix.
    """
    ranked = sorted(range(len(values)), key=lambda i: (-values[i], i))
    shift = max(values, default=-math.inf)
    if shift == -math.inf:
        raise ValueError("all candidates have zero probability")
    masses = [math.exp(values[i] - shift) for i in ranked]
    total = math.fsum(masses)
    limit = min(len(ranked), max_width)
    for k in range(1, limit + 1):
        if math.fsum(masses[:k]) / total >= mass_fraction - kernels.MASS_SLACK:
            return ranked[:k]
    return ranked[:limit]


def untrimmed_retained(model: ModelInterface, cfg: MultipathConfig) -> tuple[tuple[SequencePath, ...], ...]:
    """Retained paths per step of a multipath decode from the empty
    prompt when every positive-probability child of every active path,
    read from the dense row, enters the pool and the whole pool goes
    through ``prune_scan``: no per-parent trim and no floor-token shortcut."""
    eos = model.vocabulary.eos_id
    actives = [SequencePath(tokens=(), cum_logprob=0.0, finished=False)]
    steps = []
    while actives and len(steps) < cfg.max_len:
        pool = [
            SequencePath(tokens=parent.tokens + (t,), cum_logprob=parent.cum_logprob + math.log(p), finished=t == eos)
            for parent in actives
            for t, p in enumerate(dense_row(model.next_distribution((), parent.tokens)))
            if p > 0.0
        ]
        kept = tuple(pool[i] for i in prune_scan([p.cum_logprob for p in pool], cfg.mass_fraction, cfg.max_width))
        steps.append(kept)
        actives = sorted((p for p in kept if not p.finished), key=lambda p: p.tokens)
    return tuple(steps)


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
# Sampler replays


def dense_row(row: StepDistribution) -> list[float]:
    """Every token's probability, in token order, read from the row's
    sparse store: none of its ranking shortcuts runs."""
    return [row._entries.get(t, row._floor) for t in range(len(row))]


def _full_sort(probs: Sequence[float]) -> list[int]:
    """Every token id by descending probability, ties to the lower id."""
    return sorted(range(len(probs)), key=lambda t: (-probs[t], t))


def _linear_draw(rng: random.Random, probs: Sequence[float], support: Sequence[int]) -> int:
    """Probability-proportional draw over ``support`` by a linear walk over
    its running sums; the last token when the draw lands past them."""
    r = rng.random() * math.fsum(probs[t] for t in support)
    cum = 0.0
    for t in support:
        cum += probs[t]
        if r < cum:
            return t
    return support[-1]


def _nucleus_support(probs: Sequence[float], top_k: int, top_p: float) -> list[int]:
    """The top-k tokens of the full sort, cut to the shortest prefix whose
    mass reaches ``top_p`` within MASS_SLACK (all of them when none does)."""
    top = _full_sort(probs)[:top_k]
    for n in range(1, len(top) + 1):
        if math.fsum(probs[t] for t in top[:n]) >= top_p - kernels.MASS_SLACK:
            return top[:n]
    return top


def dense_entropy(probs: Sequence[float]) -> float:
    """Shannon entropy in nats of a dense row, one fsum over its terms."""
    return -math.fsum(p * math.log(p) for p in probs if p > 0.0)


def replay_sampler(model: ModelInterface, max_len: int, pick) -> tuple[int, ...]:
    """The tokens of a single-path decode from the empty prompt that picks
    each token by ``pick(dense row)``, until the end token or ``max_len``."""
    eos = model.vocabulary.eos_id
    tokens: tuple[int, ...] = ()
    while len(tokens) < max_len and tokens[-1:] != (eos,):
        tokens += (pick(dense_row(model.next_distribution((), tokens))),)
    return tokens


# ---------------------------------------------------------------------------
# Injected defects and check drivers (shared by tests and the oracle-check command)


def _drop_last_retained(prune_prefix):
    def defect(*args):
        kept = prune_prefix(*args)
        return kept[:-1] if len(kept) > 1 else kept
    return defect


def _drop_last_support_token(sampling_table):
    def defect(row, top_k, top_p):
        table = sampling_table(row, top_k, top_p)
        if len(table.tokens) < 2:
            return table
        return table._replace(tokens=table.tokens[:-1], cumulative=table.cumulative[:-1])
    return defect


def _one_floor_token_fewer(candidates):
    def defect(row, k):
        return candidates(row, k)[: len(row._entries) + k - 1]
    return defect


def _one_child_fewer(expand):
    def defect(model, prompt_ids, actives, width_cap):
        return expand(model, prompt_ids, actives, width_cap - 1)
    return defect


def _ranked_by_logprob(_ranked):
    def defect(row, k):
        return tuple(sorted(row._candidates(k), key=lambda c: (-row.logprob(c[0]), c[0]))[:k])
    return defect


def _one_floor_term_fewer(entropy):
    def defect(row):
        floor = row._floor
        if floor == 0.0 or len(row._entries) == len(row):
            return entropy(row)
        return entropy(row) + floor * math.log(floor)
    return defect


def _null_as_tiny(parse):
    def defect(payload, vocab_size, origin):
        tiny = math.log(math.ulp(0.0))  # exp gives back math.ulp(0.0)
        return parse({"logprobs": [tiny if lp is None else lp for lp in payload["logprobs"]]}, vocab_size, origin)
    return defect


# Name -> (module or class, attribute, make_defect(original) -> replacement).
# Callers look the attribute up at call time, so every check that reaches it
# is hit.
MUTATIONS = {
    "prune-off-by-one": (kernels, "prune_prefix", _drop_last_retained),
    "selection-max-prob": (decoding, "select_min_ppl", lambda _: lambda paths: max(paths, key=lambda p: p.cum_logprob)),
    "sampling-table-short": (StepDistribution, "sampling_table", _drop_last_support_token),
    "floor-shortcut-short": (StepDistribution, "_candidates", _one_floor_token_fewer),
    "expand-short": (decoding, "_expand", _one_child_fewer),
    "ranked-by-logprob": (StepDistribution, "ranked", _ranked_by_logprob),
    "entropy-floor-short": (StepDistribution, "entropy", _one_floor_term_fewer),
    "wire-null-as-tiny": (remote, "_parse_distribution", _null_as_tiny),
}


@contextlib.contextmanager
def mutated(name: str) -> Iterator[None]:
    """Run the enclosed code with defect ``name`` of MUTATIONS in place."""
    module, attribute, make_defect = MUTATIONS[name]
    original = getattr(module, attribute)
    setattr(module, attribute, make_defect(original))
    try:
        yield
    finally:
        setattr(module, attribute, original)


@contextlib.contextmanager
def _failing_on_raise(failures: list[str], label: str) -> Iterator[None]:
    """Record an exception raised by the enclosed check of ``label`` as one
    of its failures, and go on with the next: a defect that makes the
    decoder raise is a counterexample like any other."""
    try:
        yield
    except Exception as exc:
        failures.append(f"{label}: raised {type(exc).__name__}: {exc}")


def check_pruning(trials: int, seed: int) -> list[str]:
    """Compare kernels.prune_prefix against the linear-scan reference."""
    failures: list[str] = []
    rng = random.Random(seed)
    for trial in range(trials):
        values = random_pool(rng)
        mass_fraction = rng.random()
        max_width = rng.randint(1, len(values) + 3)
        with _failing_on_raise(failures, f"trial {trial}"):
            got = kernels.prune_prefix(values, mass_fraction, max_width)
            want = prune_scan(values, mass_fraction, max_width)
            if got != want:
                failures.append(
                    f"trial {trial}: retained {got}, linear scan says {want} "
                    f"(n={len(values)}, mass_fraction={mass_fraction!r}, max_width={max_width})"
                )
    return failures


def check_exactness(models: int, seed: int) -> list[str]:
    """Exhaustive-cap decoding must return the enumerated min-PPL sequence."""
    failures: list[str] = []
    rng = random.Random(seed)
    for trial in range(models):
        model, max_len = random_model(rng, trial)
        vocab = model.vocabulary
        with _failing_on_raise(failures, f"model {trial}"):
            want = best_finished(model, (), max_len)
            if want is None:
                continue
            cfg = MultipathConfig(mass_fraction=1.0, max_width=vocab.size ** max_len, max_len=max_len)
            got = multipath_decode(model, (), cfg).chosen
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
    return failures


def check_reductions(models: int, seed: int) -> list[str]:
    """Width-1 multipath equals greedy; mass 1.0 with cap B keeps the paths
    beam(B) keeps at every step (see the module docstring for why the random
    models stay clear of the corner cases where neither holds)."""
    failures: list[str] = []
    rng = random.Random(seed)
    for trial in range(models):
        model, max_len = random_model(rng, trial)
        vocab = model.vocabulary
        with _failing_on_raise(failures, f"model {trial}"):
            greedy = greedy_decode(model, (), max_len)
            narrow = multipath_decode(model, (), MultipathConfig(mass_fraction=1.0, max_width=1, max_len=max_len))
            if narrow.chosen.tokens != greedy.chosen.tokens:
                failures.append(
                    f"model {trial}: width-1 decode {vocab.decode(narrow.chosen.tokens)!r} "
                    f"!= greedy {vocab.decode(greedy.chosen.tokens)!r}"
                )

            for width in (2, 3):
                beam = beam_search(model, (), BeamConfig(width=width, max_len=max_len))
                wide = multipath_decode(model, (), MultipathConfig(mass_fraction=1.0, max_width=width, max_len=max_len))
                if wide.retained != beam.retained:
                    failures.append(
                        f"model {trial}: width-{width} retained sets diverge at step "
                        f"{_first_divergence(wide.retained, beam.retained)}"
                    )
    return failures


def check_steps(models: int, seed: int) -> list[str]:
    """Each multipath step at widths 1-3 must keep the paths ``prune_scan``
    keeps of the untrimmed pool of every child of every active path."""
    failures: list[str] = []
    rng = random.Random(seed)
    for trial in range(models):
        model, max_len = random_model(rng, trial)
        for width in (1, 2, 3):
            cfg = MultipathConfig(
                mass_fraction=rng.choice((0.5, 0.8, 0.9, 1.0)), max_width=width, max_len=max_len,
            )
            with _failing_on_raise(failures, f"model {trial}"):
                got = multipath_decode(model, (), cfg).retained
                want = untrimmed_retained(model, cfg)
                if got != want:
                    failures.append(
                        f"model {trial}: width-{width} mass-{cfg.mass_fraction!r} retained sets diverge from the "
                        f"untrimmed pool at step {_first_divergence(got, want)}"
                    )
    return failures


def check_wire_rows(models: int, seed: int) -> list[str]:
    """Each row a width-3 ``untrimmed_retained`` walk reads, sent through
    ``remote._parse_distribution`` as a wire reply (a null logprob for each
    zero), must parse to exp(log p) of each probability p, bit for bit."""
    failures: list[str] = []
    rng = random.Random(seed)
    for trial in range(models):
        model, max_len = random_model(rng, trial)
        vocab = model.vocabulary
        with _failing_on_raise(failures, f"model {trial}"):
            walk = untrimmed_retained(model, MultipathConfig(mass_fraction=1.0, max_width=3, max_len=max_len))
            read = [()] + [p.tokens for step in walk for p in step if not p.finished and len(p) < max_len]
            for tokens in read:
                probs = dense_row(model.next_distribution((), tokens))
                reply = {"logprobs": [math.log(p) if p > 0.0 else None for p in probs]}
                got = dense_row(remote._parse_distribution(reply, vocab.size, f"model {trial}"))
                want = [math.exp(math.log(p)) if p > 0.0 else 0.0 for p in probs]
                if got != want:
                    failures.append(f"model {trial}: the row after {vocab.decode(tokens)!r} parses as {got}, "
                                    f"its wire logprobs give {want}")
    return failures


def _first_divergence(a, b) -> int:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b))


def check_samplers(models: int, seed: int) -> list[str]:
    """greedy_decode, nucleus_sample and adaptive_decode must pick, step for
    step, the tokens a replay over each dense row picks with the same
    ``random.Random(seed)``, and each row the adaptive replay visits must
    give the entropy of its dense row. The random models are followed by
    ``tied_log_lm``."""
    failures: list[str] = []
    rng = random.Random(seed)
    for trial in range(models + 1):
        if trial < models:
            label, (model, max_len) = f"model {trial}", random_model(rng, trial)
        else:
            label, model, max_len = "tied_log_lm", tied_log_lm(), 2
        vocab = model.vocabulary
        size = vocab.size
        top_p = rng.choice((0.3, 0.5, 0.8, 0.95, 1.0, rng.uniform(0.05, 1.0)))
        sampler = SamplerConfig(top_p=top_p, top_k=rng.randint(1, size + 1), max_len=max_len)
        sampler_seed = rng.randrange(2**32)
        adaptive = AdaptiveConfig(base_k=rng.randint(1, size + 1), max_len=max_len)
        adaptive_seed = rng.randrange(2**32)

        with _failing_on_raise(failures, label):
            greedy_want = replay_sampler(model, max_len, lambda probs: _full_sort(probs)[0])
            draws = random.Random(sampler_seed)
            nucleus_want = replay_sampler(model, max_len, lambda probs: _linear_draw(
                draws, probs, _nucleus_support(probs, sampler.top_k, sampler.top_p),
            ))
            draws_adaptive = random.Random(adaptive_seed)
            k_want: list[int] = []

            def adaptive_pick(probs: list[float]) -> int:
                k_want.append(min(max(round(dense_entropy(probs) / math.log(2.0)), 1), adaptive.base_k))
                return _linear_draw(draws_adaptive, probs, _full_sort(probs)[: k_want[-1]])

            adaptive_want = replay_sampler(model, max_len, adaptive_pick)
            for n in range(len(adaptive_want)):
                row = model.next_distribution((), adaptive_want[:n])
                got, want = row.entropy(), dense_entropy(dense_row(row))
                if got.hex() != want.hex():
                    failures.append(
                        f"{label}: entropy {got!r} after {vocab.decode(adaptive_want[:n])!r}, dense row says {want!r}"
                    )

            adaptive_got = adaptive_decode(model, (), adaptive, adaptive_seed)
            nucleus_got = nucleus_sample(model, (), sampler, sampler_seed).chosen.tokens
            for name, got, want in (
                ("greedy", greedy_decode(model, (), max_len).chosen.tokens, greedy_want),
                (f"nucleus(top_k={sampler.top_k}, top_p={sampler.top_p!r})", nucleus_got, nucleus_want),
                (f"adaptive(base_k={adaptive.base_k})", adaptive_got.chosen.tokens, adaptive_want),
            ):
                if got != want:
                    failures.append(f"{label}: {name} drew {vocab.decode(got)!r}, replay says {vocab.decode(want)!r}")
            if adaptive_got.k_trace != tuple(k_want):
                failures.append(f"{label}: adaptive k trace {list(adaptive_got.k_trace)}, replay says {k_want}")
    return failures
