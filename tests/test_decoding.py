"""Decoder behavior: greedy, beam, nucleus, adaptive, multipath."""

from __future__ import annotations

import math
import random

import pytest

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
from multipath.models import SequencePath, StepDistribution, TableLM, Vocabulary
from multipath.oracle import Candidate, prune_candidates, random_table_lm

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
        lambda: MultipathConfig(max_width=0),
        lambda: MultipathConfig(max_len=0),
        lambda: BeamConfig(width=0),
        lambda: BeamConfig(max_len=0),
        lambda: SamplerConfig(top_p=0.0),
        lambda: SamplerConfig(top_p=1.2),
        lambda: SamplerConfig(top_k=0),
        lambda: SamplerConfig(max_len=0),
        lambda: AdaptiveConfig(base_k=0),
        lambda: AdaptiveConfig(entropy_scale=-0.5),
        lambda: AdaptiveConfig(max_len=0),
    ],
)
def test_config_validation(make):
    with pytest.raises(ValueError):
        make()


def test_candidate_validation():
    with pytest.raises(ValueError, match="parent_index"):
        Candidate(parent_index=-1, token_id=0, cum_logprob=-1.0)
    with pytest.raises(ValueError, match="token_id"):
        Candidate(parent_index=0, token_id=-1, cum_logprob=-1.0)
    with pytest.raises(ValueError, match="cum_logprob"):
        Candidate(parent_index=0, token_id=0, cum_logprob=math.nan)
    # -inf is a legal value (probability zero)
    Candidate(parent_index=0, token_id=0, cum_logprob=-math.inf)


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
        out = adaptive_decode(trap_model, (), AdaptiveConfig(base_k=7, entropy_scale=1.0, seed=seed))
        assert out.chosen.tokens[0] == 1


# ---------------------------------------------------------------------------
# prune_candidates


def test_prune_candidates_ranks_then_retains():
    cands = [
        Candidate(parent_index=0, token_id=0, cum_logprob=math.log(0.2)),
        Candidate(parent_index=0, token_id=1, cum_logprob=math.log(0.5)),
        Candidate(parent_index=1, token_id=0, cum_logprob=math.log(0.3)),
    ]
    retained, k = prune_candidates(cands, mass_fraction=0.75, max_width=10)
    assert k == 2
    assert [c.cum_logprob for c in retained] == [math.log(0.5), math.log(0.3)]


def test_prune_candidates_tie_break_is_parent_then_token():
    third = math.log(1.0 / 3.0)
    cands = [
        Candidate(parent_index=1, token_id=0, cum_logprob=third),
        Candidate(parent_index=0, token_id=1, cum_logprob=third),
        Candidate(parent_index=0, token_id=0, cum_logprob=third),
    ]
    retained, k = prune_candidates(cands, mass_fraction=1.0, max_width=3)
    assert [(c.parent_index, c.token_id) for c in retained] == [(0, 0), (0, 1), (1, 0)]


def test_prune_candidates_input_order_is_irrelevant():
    rng = random.Random(5)
    cands = [
        Candidate(parent_index=p, token_id=t, cum_logprob=math.log((p + t + 1) / 12.0))
        for p in range(3)
        for t in range(2)
    ]
    base = prune_candidates(cands, 0.8, 4)
    for _ in range(10):
        shuffled = cands[:]
        rng.shuffle(shuffled)
        assert prune_candidates(shuffled, 0.8, 4) == base


def test_prune_candidates_rejects_degenerate_pools():
    with pytest.raises(ValueError, match="empty"):
        prune_candidates([], 0.9, 5)
    dead = [Candidate(parent_index=0, token_id=0, cum_logprob=-math.inf)]
    with pytest.raises(ValueError, match="zero probability"):
        prune_candidates(dead, 0.9, 5)


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


def test_multipath_full_expansion_changes_nothing(trap_model):
    cfg = MultipathConfig(mass_fraction=0.9, max_width=4, max_len=6)
    fast = multipath_decode(trap_model, (), cfg, record_trace=True)
    full = multipath_decode(trap_model, (), cfg, record_trace=True, full_expansion=True)
    assert fast == full
    assert fast.retained_trace == full.retained_trace


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
        p.validate()
        assert p.finished
