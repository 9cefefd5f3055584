"""Ranking/retention kernels: tie order, retention slack, input checks."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from multipath import kernels
from multipath.decoding import MultipathConfig, multipath_decode
from multipath.models import greedy_trap_lm


# One parameter, named by the backend, so the test ids keep their [pure] suffix.
@pytest.fixture(params=[kernels], ids=[kernels.backend_name()])
def kern(request):
    return request.param


def logprobs_of(probs):
    return [math.log(p) if p > 0.0 else -math.inf for p in probs]


# ---------------------------------------------------------------------------
# topk_indices


def test_topk_orders_descending(kern):
    assert kern.topk_indices([0.1, 0.4, 0.2, 0.3], 3) == [1, 3, 2]


def test_topk_ties_prefer_lower_index(kern):
    assert kern.topk_indices([0.25, 0.5, 0.25], 3) == [1, 0, 2]


def test_topk_clamps_to_length(kern):
    assert kern.topk_indices([1.0, 2.0], 10) == [1, 0]


def test_topk_zero_k(kern):
    assert kern.topk_indices([1.0, 2.0], 0) == []


# ---------------------------------------------------------------------------
# prune_prefix


def test_prune_keeps_minimal_mass_prefix(kern):
    lp = logprobs_of([0.5, 0.3, 0.2])
    assert kern.prune_prefix(lp, 0.75, 10) == [0, 1]
    assert kern.prune_prefix(lp, 0.5, 10) == [0]
    assert kern.prune_prefix(lp, 1.0, 10) == [0, 1, 2]


def test_prune_zero_mass_keeps_one(kern):
    lp = logprobs_of([0.5, 0.3, 0.2])
    assert kern.prune_prefix(lp, 0.0, 10) == [0]


def test_prune_caps_at_max_width(kern):
    lp = logprobs_of([0.25, 0.25, 0.25, 0.25])
    assert kern.prune_prefix(lp, 1.0, 2) == [0, 1]


def test_prune_ties_prefer_lower_index(kern):
    lp = logprobs_of([0.25, 0.5, 0.25])
    assert kern.prune_prefix(lp, 0.75, 10) == [1, 0]


def test_prune_threshold_within_slack_counts_as_reached(kern):
    # exact boundary: first candidate holds exactly half the mass
    lp = logprobs_of([0.5, 0.5])
    assert kern.prune_prefix(lp, 0.5, 10) == [0]
    assert kern.prune_prefix(lp, 0.5 + 1e-6, 10) == [0, 1]


def test_prune_total_override_treats_list_as_subset(kern):
    # the two listed candidates hold 0.4 of a pool of mass 1.0
    lp = logprobs_of([0.25, 0.15])
    assert kern.prune_prefix(lp, 0.3, 10, 0.0) == [0, 1]
    assert kern.prune_prefix(lp, 0.2, 10, 0.0) == [0]


def test_prune_unnormalized_values_allowed(kern):
    # total defaults to the log-sum-exp of the inputs
    lp = [math.log(3.0), math.log(1.0)]
    assert kern.prune_prefix(lp, 0.75, 10) == [0]


def test_prune_ignores_zero_probability_tail(kern):
    lp = logprobs_of([0.6, 0.4, 0.0])
    assert kern.prune_prefix(lp, 1.0, 10)[:2] == [0, 1]


def test_prune_rejects_empty(kern):
    with pytest.raises(ValueError, match="empty"):
        kern.prune_prefix([], 0.9, 5)


def test_prune_rejects_all_zero_mass(kern):
    with pytest.raises(ValueError, match="zero probability"):
        kern.prune_prefix([-math.inf, -math.inf], 0.9, 5)


# ---------------------------------------------------------------------------
# nucleus_prefix


def test_nucleus_is_shorter_of_topk_and_topp(kern):
    probs = [0.5, 0.3, 0.15, 0.05]
    assert kern.nucleus_prefix(probs, 0.75, 10) == [0, 1]
    assert kern.nucleus_prefix(probs, 0.99, 2) == [0, 1]
    assert kern.nucleus_prefix(probs, 1.0, 10) == [0, 1, 2, 3]


def test_nucleus_singleton_support(kern):
    assert kern.nucleus_prefix([0.96, 0.03, 0.01], 0.95, 15) == [0]


def test_nucleus_top_k_one_is_argmax(kern):
    assert kern.nucleus_prefix([0.2, 0.5, 0.3], 0.95, 1) == [1]


def test_nucleus_tie_order(kern):
    assert kern.nucleus_prefix([0.25, 0.25, 0.5], 1.0, 10) == [2, 0, 1]


def test_nucleus_rejects_bad_inputs(kern):
    with pytest.raises(ValueError, match="top_p"):
        kern.nucleus_prefix([1.0], 0.0, 1)
    with pytest.raises(ValueError, match="top_p"):
        kern.nucleus_prefix([1.0], 1.1, 1)
    with pytest.raises(ValueError, match="top_k"):
        kern.nucleus_prefix([1.0], 0.9, 0)
    with pytest.raises(ValueError, match="empty"):
        kern.nucleus_prefix([], 0.9, 1)
    with pytest.raises(ValueError, match="zero"):
        kern.nucleus_prefix([0.0, 0.0], 0.9, 1)


# ---------------------------------------------------------------------------
# log_sum_exp


def test_log_sum_exp_matches_direct_sum(kern):
    a, b = 0.3, 0.45
    got = kern.log_sum_exp([math.log(a), math.log(b)])
    assert got == pytest.approx(math.log(a + b), rel=1e-15)


def test_log_sum_exp_single_value(kern):
    assert kern.log_sum_exp([-2.5]) == pytest.approx(-2.5, rel=1e-15)


def test_log_sum_exp_all_neg_inf(kern):
    assert kern.log_sum_exp([-math.inf, -math.inf]) == -math.inf
    assert kern.log_sum_exp([]) == -math.inf
    assert kern.log_sum_exp(()) == -math.inf


def test_log_sum_exp_extreme_values_stable(kern):
    # naive exp would underflow; the max shift must keep this finite
    got = kern.log_sum_exp([-1000.0, -1000.0])
    assert got == pytest.approx(-1000.0 + math.log(2.0), rel=1e-12)


def test_log_sum_exp_ignores_neg_inf_entries(kern):
    got = kern.log_sum_exp([math.log(0.5), -math.inf])
    assert got == pytest.approx(math.log(0.5), rel=1e-15)


def test_log_sum_exp_sums_left_to_right_without_compensation():
    # A compensated sum (sum() from Python 3.12 on) gives 0x1.ffffffffffffep-52
    # here; the plain left-to-right sum must give the same bits on every version.
    got = kernels.log_sum_exp([0.0, -36.5, -36.5, -36.5])
    assert got == float.fromhex("0x1.7fffffffffffep-51")


# ---------------------------------------------------------------------------
# reference scan property (integer weights keep every comparison far from
# the retention slack, so the reference and the kernel cannot disagree on
# rounding)


def _prune_reference(logprobs, mass_fraction, max_width, total_logprob=None):
    if total_logprob is None:
        total_logprob = kernels.log_sum_exp(logprobs)
    order = sorted(range(len(logprobs)), key=lambda i: (-logprobs[i], i))
    limit = min(len(logprobs), max_width)
    terms = [math.exp(logprobs[i] - total_logprob) for i in order[:limit]]
    for rank in range(limit):
        if math.fsum(terms[: rank + 1]) >= mass_fraction - kernels.MASS_SLACK:
            return order[: rank + 1]
    return order[:limit]


weights = st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=40)
coarse_fraction = st.floats(min_value=0.0, max_value=1.0, allow_nan=False).map(
    lambda x: round(x, 6)
)


@given(ws=weights, mass=coarse_fraction, width=st.integers(min_value=1, max_value=12))
def test_prune_matches_linear_scan_reference(ws, mass, width):
    lp = [math.log(w) for w in ws]
    expected = _prune_reference(lp, mass, width)
    assert kernels.prune_prefix(lp, mass, width) == expected


@given(ws=weights, top_p=coarse_fraction, top_k=st.integers(min_value=1, max_value=12))
def test_nucleus_matches_reference(ws, top_p, top_k):
    if top_p == 0.0:
        top_p = 0.5
    total = sum(ws)
    probs = [w / total for w in ws]
    order = sorted(range(len(probs)), key=lambda i: (-probs[i], i))
    mass_count = len(probs)
    for rank in range(len(probs)):
        if math.fsum(probs[i] for i in order[: rank + 1]) >= top_p - kernels.MASS_SLACK:
            mass_count = rank + 1
            break
    expected = order[: min(mass_count, top_k)]
    assert kernels.nucleus_prefix(probs, top_p, top_k) == expected


@given(
    vals=st.lists(st.floats(min_value=-50.0, max_value=0.0, allow_nan=False), min_size=1, max_size=30),
    k=st.integers(min_value=0, max_value=35),
)
def test_topk_matches_reference(vals, k):
    expected = sorted(range(len(vals)), key=lambda i: (-vals[i], i))[: min(k, len(vals))]
    assert kernels.topk_indices(vals, k) == expected


# ---------------------------------------------------------------------------
# module surface: perfbench's tracer replaces these module attributes, so
# callers must look them up at call time


def test_kernels_module_exposes_the_traced_names(monkeypatch):
    assert kernels.backend_name() == "pure"
    for name in ("prune_prefix", "topk_indices", "nucleus_prefix", "log_sum_exp", "MASS_SLACK"):
        assert hasattr(kernels, name), name
    calls = []
    prune_prefix = kernels.prune_prefix

    def counted(*args):
        calls.append(args)
        return prune_prefix(*args)

    monkeypatch.setattr(kernels, "prune_prefix", counted)
    multipath_decode(greedy_trap_lm(), (), MultipathConfig(mass_fraction=0.9, max_width=7, max_len=4))
    assert calls
