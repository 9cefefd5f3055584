"""Decoder behavior: greedy, beam, nucleus, adaptive, multipath."""

from __future__ import annotations

import dataclasses
import math
import random
import re
from unittest import mock

import pytest
from conftest import row_probs
from hypothesis import assume, given, strategies as st

from multipath import decoding, kernels, oracle
from multipath.decoding import (
    AdaptiveConfig,
    BeamConfig,
    DecodeResult,
    MultipathConfig,
    SamplerConfig,
    adaptive_decode,
    beam_search,
    greedy_decode,
    multipath_decode,
    nucleus_sample,
    select_min_ppl,
)
from multipath.models import SequencePath, StepDistribution, TableLM, Vocabulary, sequence_logprob, train_ngram
from multipath.oracle import random_table_lm

ABC = Vocabulary(tokens=("a", "b", "$"), eos_id=2)


def path_of(tokens, logprobs, eos_id=2):
    path = SequencePath.empty()
    for tok, lp in zip(tokens, logprobs):
        path = path.extended(tok, lp, eos_id)
    return path


# ---------------------------------------------------------------------------
# config validation


@pytest.mark.parametrize(
    "make",
    [
        lambda: MultipathConfig(mass_fraction=1.5),
        lambda: MultipathConfig(mass_fraction=-0.1),
        lambda: MultipathConfig(max_width=0),
        lambda: MultipathConfig(max_len=0),
        lambda: BeamConfig(width=0),
        lambda: BeamConfig(max_len=0),
        lambda: SamplerConfig(top_p=0.0),
        lambda: SamplerConfig(top_p=1.2),
        lambda: SamplerConfig(top_k=0),
        lambda: SamplerConfig(max_len=0),
        lambda: AdaptiveConfig(base_k=0),
        lambda: AdaptiveConfig(max_len=0),
    ],
)
def test_config_validation(make):
    with pytest.raises(ValueError):
        make()


# ---------------------------------------------------------------------------
# greedy


def test_greedy_walks_the_trap(trap_model):
    out = greedy_decode(trap_model, ())
    assert trap_model.vocabulary.decode(out.chosen.tokens) == "b $"
    assert out.chosen.cum_logprob == pytest.approx(math.log(0.55) + math.log(0.5))
    assert out.tokens_generated == 2
    assert out.steps == 2
    assert out.k_trace == (1, 1)


def test_greedy_breaks_ties_to_lower_token_id():
    model = TableLM(
        vocabulary=ABC,
        rows={(): StepDistribution(probs=(0.4, 0.4, 0.2))},
        default=StepDistribution(probs=(0.0, 0.0, 1.0)),
    )
    out = greedy_decode(model, ())
    assert out.chosen.tokens == (0, 2)


def test_greedy_follows_one_hot_rows():
    vocab = Vocabulary(tokens=("x", "y", "$"), eos_id=2)
    model = TableLM(
        vocabulary=vocab,
        rows={
            (): StepDistribution(probs=(0.0, 1.0, 0.0)),
            (1,): StepDistribution(probs=(1.0, 0.0, 0.0)),
            (1, 0): StepDistribution(probs=(0.0, 0.0, 1.0)),
        },
    )
    out = greedy_decode(model, ())
    assert out.chosen.tokens == (1, 0, 2)
    assert out.chosen.finished
    assert out.chosen.cum_logprob == 0.0


def test_greedy_truncates_at_max_len(trap_model):
    model = TableLM(
        vocabulary=ABC,
        rows={},
        default=StepDistribution(probs=(0.5, 0.5, 0.0)),
    )
    out = greedy_decode(model, (), max_len=4)
    assert not out.chosen.finished
    assert len(out.chosen.tokens) == 4
    assert out.finished_candidates == ()
    assert out.truncated == (out.chosen,)
    with pytest.raises(ValueError, match="max_len"):
        greedy_decode(model, (), max_len=0)


# ---------------------------------------------------------------------------
# nucleus sampling


def test_nucleus_sticks_to_singleton_support():
    model = TableLM(
        vocabulary=ABC,
        rows={(): StepDistribution(probs=(0.96, 0.03, 0.01))},
        default=StepDistribution(probs=(0.0, 0.0, 1.0)),
    )
    for seed in range(200):
        out = nucleus_sample(model, (), SamplerConfig(top_p=0.95, top_k=15, seed=seed))
        assert out.chosen.tokens == (0, 2)


def test_nucleus_top_k_one_matches_greedy(trap_model):
    greedy = greedy_decode(trap_model, ())
    for seed in range(25):
        out = nucleus_sample(trap_model, (), SamplerConfig(top_p=1.0, top_k=1, seed=seed))
        assert out.chosen.tokens == greedy.chosen.tokens


def test_nucleus_is_deterministic_per_seed(trap_model):
    cfg = SamplerConfig(top_p=0.95, top_k=15, seed=11)
    a = nucleus_sample(trap_model, (), cfg)
    b = nucleus_sample(trap_model, (), cfg)
    assert a.chosen.tokens == b.chosen.tokens


def test_nucleus_first_step_frequency_tracks_probability(trap_model):
    # step 0 support is {b: 0.55, a: 0.45}; the draw must match those odds
    trials = 10000
    hits = 0
    for seed in range(trials):
        out = nucleus_sample(trap_model, (), SamplerConfig(top_p=0.95, top_k=15, seed=seed, max_len=1))
        hits += out.chosen.tokens[0] == 1
    rate = hits / trials
    sigma = math.sqrt(0.55 * 0.45 / trials)
    assert abs(rate - 0.55) <= 3 * sigma


# ---------------------------------------------------------------------------
# adaptive sampling


def test_adaptive_takes_one_hot_rows_deterministically():
    vocab = Vocabulary(tokens=("x", "y", "$"), eos_id=2)
    model = TableLM(
        vocabulary=vocab,
        rows={
            (): StepDistribution(probs=(0.0, 1.0, 0.0)),
            (1,): StepDistribution(probs=(0.0, 0.0, 1.0)),
        },
    )
    out = adaptive_decode(model, (), AdaptiveConfig(base_k=7, seed=3))
    assert out.chosen.tokens == (1, 2)
    assert out.k_trace == (1, 1)


def test_adaptive_k_tracks_entropy():
    # uniform over 4 tokens = 2 bits, so k_step = 2
    vocab = Vocabulary(tokens=("a", "b", "c", "$"), eos_id=3)
    model = TableLM(
        vocabulary=vocab,
        rows={(): StepDistribution.uniform(4)},
        default=StepDistribution(probs=(0.0, 0.0, 0.0, 1.0)),
    )
    out = adaptive_decode(model, (), AdaptiveConfig(base_k=7, seed=0))
    assert out.k_trace[0] == 2


def test_adaptive_k_caps_at_base_k():
    vocab = Vocabulary(tokens=tuple("abcdefgh"), eos_id=7)
    model = TableLM(
        vocabulary=vocab,
        rows={(): StepDistribution.uniform(8)},  # 3 bits
        default=StepDistribution(probs=(0.0,) * 7 + (1.0,)),
    )
    out = adaptive_decode(model, (), AdaptiveConfig(base_k=2, seed=0))
    assert out.k_trace[0] == 2


def test_adaptive_low_entropy_step_is_argmax(trap_model):
    # step 0 entropy is just under 1 bit, so k=1 forces the greedy token "b"
    for seed in range(50):
        out = adaptive_decode(trap_model, (), AdaptiveConfig(base_k=7, seed=seed))
        assert out.chosen.tokens[0] == 1


# ---------------------------------------------------------------------------
# the single-path samplers read the sparse row: their supports must equal
# the dense kernels' on the dense row


@st.composite
def sparse_rows(draw):
    """A _trusted row of V <= 40 with floor 0 or > 0; small integer weights
    make ties among the entries (and with the floor) common."""
    size = draw(st.integers(min_value=2, max_value=40))
    tokens = draw(st.lists(st.integers(min_value=0, max_value=size - 1), unique=True, max_size=size))
    floor_weight = draw(st.integers(min_value=0, max_value=3))
    weights = {t: draw(st.integers(min_value=0, max_value=5)) for t in tokens}
    total = sum(weights.values()) + floor_weight * (size - len(tokens))
    assume(total > 0)
    return StepDistribution._trusted(size, floor_weight / total, {t: w / total for t, w in weights.items()})


def one_row_model(row):
    """A model whose every row is ``row``."""
    return TableLM(vocabulary=Vocabulary(tokens=tuple(f"t{i}" for i in range(len(row))), eos_id=0), default=row)


def drawn_supports(decode, model, cfg):
    """The result of ``decode`` and the (token, probability) support each of
    its steps drew from."""
    with mock.patch.object(decoding, "_draw", wraps=decoding._draw) as draw:
        result = decode(model, (), cfg)
    return result, [list(call.args[1]) for call in draw.call_args_list]


@given(row=sparse_rows(), data=st.data(), top_p=st.floats(min_value=0.01, max_value=1.0))
def test_sparse_supports_match_dense_kernels(row, data, top_p):
    size = len(row)
    k = data.draw(st.integers(min_value=1, max_value=size + 2), label="k")
    # The dense row, read from the sparse store itself: ranked() is under test.
    probs = tuple(row._entries.get(t, row._floor) for t in range(size))
    dense = sorted(range(size), key=probs.__getitem__, reverse=True)
    assert row.ranked(k) == tuple((t, probs[t]) for t in dense[:k])

    model = one_row_model(row)
    _, [support] = drawn_supports(nucleus_sample, model, SamplerConfig(top_p=top_p, top_k=k, max_len=1))
    assert support == [(t, probs[t]) for t in kernels.nucleus_prefix(probs, top_p, k)]

    assert greedy_decode(model, (), 1).chosen.tokens == (kernels.topk_indices(probs, 1)[0],)

    result, [support] = drawn_supports(adaptive_decode, model, AdaptiveConfig(base_k=k, max_len=1))
    bits = -math.fsum(p * math.log(p) for p in probs if p > 0.0) / math.log(2.0)
    assert result.k_trace == (min(max(round(bits), 1), k),)
    assert support == [(t, probs[t]) for t in kernels.topk_indices(probs, result.k_trace[0])]


def test_every_decoder_builds_no_dense_row():
    # A V=1200 add-k bigram model: every row is sparse, and a decoder that
    # read its dense logprobs would leave them cached on the row.
    rng = random.Random(4)
    words = [f"w{i}" for i in range(1199)]
    corpus = "\n".join(" ".join(words[i:i + 10] + rng.sample(words, 3)) for i in range(0, len(words), 10))
    model = train_ngram(corpus, order=1, add_k=0.5)
    assert model.vocabulary.size >= 1000
    handed = []
    next_distribution = model.next_distribution

    def recording(prompt, prefix):
        handed.append(next_distribution(prompt, prefix))
        return handed[-1]

    model.next_distribution = recording
    for seed in range(3):
        prompt = model.vocabulary.encode(f"w{seed * 7}")
        nucleus_sample(model, prompt, SamplerConfig(seed=seed, max_len=20))
        greedy_decode(model, prompt, max_len=20)
        adaptive_decode(model, prompt, AdaptiveConfig(seed=seed, max_len=20))
        multipath_decode(model, prompt, MultipathConfig(max_len=20))
        beam_search(model, prompt, BeamConfig(max_len=20))
    assert handed
    for row in handed:
        assert "logprobs" not in vars(row), row


# ---------------------------------------------------------------------------
# select_min_ppl


def test_select_prefers_lower_ppl():
    good = path_of([0, 2], [math.log(0.9), math.log(0.9)])
    bad = path_of([1, 2], [math.log(0.5), math.log(0.5)])
    assert select_min_ppl([bad, good]) is good


def test_select_tie_prefers_shorter_then_lower_tokens():
    # same per-token probability, different lengths: equal ppl
    short = path_of([1, 2], [math.log(0.5)] * 2)
    long = path_of([0, 0, 2], [math.log(0.5)] * 3)
    assert select_min_ppl([long, short]) is short

    a = path_of([0, 2], [math.log(0.5)] * 2)
    b = path_of([1, 2], [math.log(0.5)] * 2)
    assert select_min_ppl([b, a]) is a


def test_select_rejects_empty():
    with pytest.raises(ValueError, match="no paths"):
        select_min_ppl([])


# ---------------------------------------------------------------------------
# multipath


def test_multipath_recovers_from_the_trap(trap_model):
    out = multipath_decode(trap_model, (), MultipathConfig(mass_fraction=0.9, max_width=7, max_len=2))
    assert trap_model.vocabulary.decode(out.chosen.tokens) == "a $"
    expected_ppl = math.exp(-(math.log(0.45) + math.log(0.9)) / 2)
    assert out.chosen.ppl() == expected_ppl
    assert out.k_trace == (2, 4)
    assert out.tokens_generated == 3
    assert out.steps == 2


def test_multipath_width_growth_saturates_at_cap(trap_model):
    out = multipath_decode(trap_model, (), MultipathConfig(mass_fraction=0.9, max_width=7, max_len=8))
    assert out.k_trace == (2, 4, 6, 7, 7, 7, 7, 7)
    assert out.tokens_generated == 29
    assert trap_model.vocabulary.decode(out.chosen.tokens) == "a $"


def test_multipath_width_one_is_greedy(trap_model):
    greedy = greedy_decode(trap_model, ())
    out = multipath_decode(trap_model, (), MultipathConfig(mass_fraction=0.9, max_width=1))
    assert out.chosen.tokens == greedy.chosen.tokens
    assert all(k == 1 for k in out.k_trace)


def untrimmed_retained_trace(model, cfg):
    """Retained token paths per step when every positive-probability child
    enters the pool and the whole pool goes through the linear-scan oracle."""
    eos = model.vocabulary.eos_id
    actives = [SequencePath.empty()]
    trace = []
    for _ in range(cfg.max_len):
        if not actives:
            break
        pool = [
            parent.extended(t, math.log(p), eos)
            for parent in actives
            for t, p in enumerate(row_probs(model.next_distribution((), parent.tokens)))
            if p > 0.0
        ]
        keep, _ = oracle.prune_scan([p.cum_logprob for p in pool], cfg.mass_fraction, cfg.max_width)
        retained = [pool[i] for i in keep]
        trace.append(tuple(p.tokens for p in retained))
        actives = sorted((p for p in retained if not p.finished), key=lambda p: p.tokens)
    return tuple(trace)


def test_multipath_child_trim_matches_untrimmed_pool(trap_model, monkeypatch):
    trims = []
    topk = kernels.topk_indices

    def counted_topk(values, k):
        trims.append(len(values))
        return topk(values, k)

    monkeypatch.setattr(kernels, "topk_indices", counted_topk)
    cases = [(trap_model, MultipathConfig(mass_fraction=0.9, max_width=2, max_len=6))]
    rng = random.Random(11)
    for _ in range(300):
        model, horizon = random_table_lm(rng)
        cfg = MultipathConfig(
            mass_fraction=rng.choice([0.5, 0.8, 0.9, 1.0]), max_width=rng.randint(1, 3), max_len=horizon,
        )
        cases.append((model, cfg))
    # Add-k n-gram rows are sparse: every token is positive, and the children
    # come from the row's few entries plus its lowest-id floor tokens.
    for _ in range(100):
        letters = "abcd"[: rng.randint(1, 4)]
        corpus = "\n".join(
            " ".join(rng.choice(letters) for _ in range(rng.randint(1, 5))) for _ in range(rng.randint(1, 5))
        )
        model = train_ngram(corpus, order=rng.randint(1, 3), add_k=rng.choice([0.25, 0.5, 1, 2]))
        cfg = MultipathConfig(
            mass_fraction=rng.choice([0.5, 0.8, 0.9, 1.0]), max_width=rng.randint(1, 3), max_len=rng.randint(1, 4),
        )
        cases.append((model, cfg))
    for model, cfg in cases:
        got = multipath_decode(model, (), cfg, record_trace=True).retained_trace
        assert got == untrimmed_retained_trace(model, cfg)
    # the per-parent trim must actually have dropped children
    assert trims


def test_multipath_builds_a_path_only_for_each_retained_candidate(monkeypatch):
    built = []

    class CountingPath(SequencePath):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    pooled, kept = [], []
    prune = kernels.prune_prefix
    monkeypatch.setattr(decoding, "SequencePath", CountingPath)
    monkeypatch.setattr(kernels, "prune_prefix", lambda values, *args: pooled.append(len(values)) or prune(values, *args))
    rng = random.Random(3)
    words = [f"w{i}" for i in range(40)]
    corpus = "\n".join(" ".join(rng.choice(words) for _ in range(rng.randint(2, 9))) for _ in range(60))
    model = train_ngram(corpus, order=2, add_k=0.01)
    for prompt_text in ("w1", "w7 w3", "w12 w12 w5"):
        prompt = model.vocabulary.encode(prompt_text)
        for cfg in (MultipathConfig(mass_fraction=0.9, max_width=7, max_len=12), MultipathConfig(max_width=1)):
            built.clear()
            out = multipath_decode(model, prompt, cfg)
            # the empty root plus one path per retained candidate
            assert len(built) == 1 + sum(out.k_trace)
            kept.append(sum(out.k_trace))
        built.clear()
        out = beam_search(model, prompt, BeamConfig(width=3, max_len=12))
        assert len(built) == 1 + sum(out.k_trace)
    # the decodes pooled far more candidates than they kept
    assert sum(pooled) > 2 * sum(kept)


def test_multipath_truncation_falls_back_to_active_paths():
    # no row ever reaches the end token, so nothing can finish
    model = TableLM(
        vocabulary=ABC,
        rows={},
        default=StepDistribution(probs=(0.6, 0.4, 0.0)),
    )
    out = multipath_decode(model, (), MultipathConfig(mass_fraction=0.9, max_width=3, max_len=4))
    assert out.finished_candidates == ()
    assert out.truncated
    assert not out.chosen.finished
    assert len(out.chosen.tokens) == 4
    assert out.chosen in out.truncated


def test_multipath_finished_paths_stop_expanding(trap_model):
    out = multipath_decode(trap_model, (), MultipathConfig(mass_fraction=0.9, max_width=7, max_len=8))
    finished_lengths = sorted(len(p.tokens) for p in out.finished_candidates)
    assert finished_lengths[0] == 2
    for p in out.finished_candidates:
        assert p.tokens[-1] == trap_model.vocabulary.eos_id
        assert p.tokens.count(trap_model.vocabulary.eos_id) == 1


def test_multipath_uses_prompt(digit_model, digit_dataset):
    prompts = [digit_model.vocabulary.encode(t.prompt) for t in digit_dataset.tasks[:2]]
    cfg = MultipathConfig(mass_fraction=0.9, max_width=7, max_len=4)
    out0 = multipath_decode(digit_model, prompts[0], cfg)
    out1 = multipath_decode(digit_model, prompts[1], cfg)
    assert out0.chosen.tokens != out1.chosen.tokens


# ---------------------------------------------------------------------------
# beam


def test_beam_two_also_recovers(trap_model):
    out = beam_search(trap_model, (), BeamConfig(width=2, max_len=2))
    assert trap_model.vocabulary.decode(out.chosen.tokens) == "a $"


def test_beam_width_one_is_greedy(trap_model):
    greedy = greedy_decode(trap_model, ())
    out = beam_search(trap_model, (), BeamConfig(width=1))
    assert out.chosen.tokens == greedy.chosen.tokens


def test_beam_matches_full_mass_multipath_sets(trap_model):
    width = 2
    beam = beam_search(trap_model, (), BeamConfig(width=width, max_len=4), record_trace=True)
    multi = multipath_decode(
        trap_model,
        (),
        MultipathConfig(mass_fraction=1.0, max_width=width, max_len=4),
        record_trace=True,
    )
    assert len(beam.retained_trace) == len(multi.retained_trace)
    for b_step, m_step in zip(beam.retained_trace, multi.retained_trace):
        assert set(b_step) == set(m_step)


# ---------------------------------------------------------------------------
# result structure and invariants


def test_decode_result_json_shape(trap_model):
    out = multipath_decode(trap_model, (), MultipathConfig(mass_fraction=0.9, max_width=7, max_len=2))
    data = out.to_json_dict()
    assert set(data) == {
        "tokens", "text", "cum_logprob", "ppl", "k_trace", "tokens_generated", "candidates",
    }
    assert data["tokens"] == ["a", "$"]
    assert data["text"] == "a $"
    assert data["k_trace"] == [2, 4]
    assert data["tokens_generated"] == 3
    assert data["ppl"] == out.chosen.ppl()
    # candidates are ranked best first and include the chosen path
    ppls = [c["ppl"] for c in data["candidates"]]
    assert ppls == sorted(ppls)
    assert data["candidates"][0]["text"] == "a $"


def test_ranked_finished_orders_by_selection_key(trap_model):
    out = multipath_decode(trap_model, (), MultipathConfig(mass_fraction=0.9, max_width=7, max_len=8))
    ranked = out.ranked_finished()
    assert ranked[0] == out.chosen
    ppls = [p.ppl() for p in ranked]
    assert ppls == sorted(ppls)


@pytest.mark.parametrize("seed", range(8))
def test_multipath_invariants_on_random_models(seed):
    rng = random.Random(seed)
    model, horizon = random_table_lm(rng)
    cfg = MultipathConfig(
        mass_fraction=rng.choice([0.5, 0.8, 0.9, 1.0]),
        max_width=rng.randint(1, 6),
        max_len=horizon,
    )
    out = multipath_decode(model, (), cfg)
    assert len(out.k_trace) == out.steps
    assert all(1 <= k <= cfg.max_width for k in out.k_trace)
    assert out.tokens_generated >= out.steps
    pool = out.finished_candidates if out.finished_candidates else out.truncated
    assert out.chosen in pool
    for p in out.finished_candidates:
        assert p.cum_logprob == pytest.approx(sequence_logprob(model, (), p.tokens), rel=1e-12)
        assert p.finished


# ---------------------------------------------------------------------------
# the oracles' failure reports: they run only when a decoder is wrong, so a
# broken decoder is patched in to make each one speak


def test_first_divergence_is_the_first_differing_step_or_the_shorter_length():
    assert oracle._first_divergence([(0,), (1,)], [(0,), (2,)]) == 1
    assert oracle._first_divergence([(0,)], [(0,), (1,)]) == 1
    assert oracle._first_divergence([], [(0,)]) == 0


def test_check_reductions_reports_a_greedy_mismatch(monkeypatch):
    def short_greedy(model, prompt, max_len):
        result = greedy_decode(model, prompt, max_len)
        return dataclasses.replace(result, chosen=dataclasses.replace(result.chosen, tokens=result.chosen.tokens[:-1]))

    monkeypatch.setattr(oracle, "greedy_decode", short_greedy)
    failures = oracle.check_reductions(3, seed=0)
    assert len(failures) == 3
    for failure in failures:
        assert re.fullmatch(r"model \d: width-1 decode '.*' != greedy '.*'", failure), failure


def test_check_reductions_reports_where_beam_sets_diverge(monkeypatch):
    def beam_missing_last_step(model, prompt, cfg, record_trace=False):
        result = beam_search(model, prompt, cfg, record_trace=record_trace)
        return dataclasses.replace(result, retained_trace=result.retained_trace[:-1])

    monkeypatch.setattr(oracle, "beam_search", beam_missing_last_step)
    failures = oracle.check_reductions(3, seed=0)
    assert len(failures) == 6
    for failure in failures:
        assert re.fullmatch(r"model \d: width-[23] retained sets diverge at step \d+", failure), failure


def test_check_pruning_reports_a_result_wider_than_max_width(monkeypatch):
    monkeypatch.setattr(kernels, "prune_prefix", lambda values, mass_fraction, max_width: (
        list(range(max_width + 1)), max_width + 1,
    ))
    failures = oracle.check_pruning(5, seed=0)
    assert len(failures) == 5
    for failure in failures:
        got, cap = map(int, re.match(r"trial \d: retained (\d+) > max_width (\d+) \(n=", failure).groups())
        assert got == cap + 1


def test_check_exactness_builds_no_dense_row(monkeypatch):
    # The enumeration reads each row through logprob(t); reading a row's
    # dense logprobs would leave them cached on it.
    models = []

    def recording(rng):
        models.append(random_table_lm(rng))
        return models[-1]

    monkeypatch.setattr(oracle, "random_table_lm", recording)
    assert oracle.check_exactness(20, seed=0) == []
    rows = [row for model, _ in models for row in model._rows.values()]
    assert len(rows) > 20
    for row in rows:
        assert "logprobs" not in vars(row), row


def test_check_exactness_reports_a_ppl_disagreement(monkeypatch):
    def misscored(model, prompt, cfg):
        result = multipath_decode(model, prompt, cfg)
        chosen = dataclasses.replace(result.chosen, cum_logprob=result.chosen.cum_logprob - 0.5)
        return dataclasses.replace(result, chosen=chosen)

    monkeypatch.setattr(oracle, "multipath_decode", misscored)
    failures = oracle.check_exactness(5, seed=0)
    assert failures
    for failure in failures:
        assert re.fullmatch(r"model \d: ppl \S+ disagrees with enumerated \S+", failure), failure
