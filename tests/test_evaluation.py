"""Change matrix, cost model, report serialization, run scoring."""

from __future__ import annotations

import json
import math

import pytest

from multipath import correction
from multipath.correction import CORRECTED, INITIAL, Attempt
from multipath.evaluation import (
    CSV_COLUMNS,
    ChangeMatrix,
    RunReport,
    breakeven_regen_fraction,
    cost_ratio,
    reports_to_csv,
    score_run,
)
from multipath.tasks import Dataset, Task


def attempt(task_id, text, stage=INITIAL, tokens=2, steps=2, strategy="none"):
    return Attempt(
        task_id=task_id,
        stage=stage,
        strategy=strategy,
        decoder_input="p",
        text=text,
        tokens_generated=tokens,
        steps=steps,
    )


def math_dataset(answers):
    tasks = tuple(
        Task(id=f"t{i}", prompt="q", domain="math", answer=ans)
        for i, ans in enumerate(answers)
    )
    return Dataset(name="toy", tasks=tasks)


# ---------------------------------------------------------------------------
# ChangeMatrix


def test_matrix_from_verdicts():
    matrix = ChangeMatrix.from_verdicts(
        [(True, True), (True, False), (False, True), (False, False), (True, True)]
    )
    assert (matrix.cc, matrix.ci, matrix.ic, matrix.ii) == (2, 1, 1, 1)
    assert matrix.total == 5
    assert matrix.accuracy_after() == pytest.approx(3 / 5)


def test_matrix_rejects_negative_counts():
    with pytest.raises(ValueError, match=">= 0"):
        ChangeMatrix(cc=-1, ci=0, ic=0, ii=0)


# ---------------------------------------------------------------------------
# cost model


def test_cost_model_validation():
    with pytest.raises(ValueError, match="regen_fraction"):
        cost_ratio("ftr_indicator", 1.5, 2.0)
    with pytest.raises(ValueError, match="regen_fraction"):
        cost_ratio("none", -0.1, 2.0)
    with pytest.raises(ValueError, match="mean_width"):
        cost_ratio("ftr_indicator", 0.5, 0.5)


def test_cost_estimate_closed_forms():
    assert cost_ratio("none", 0.25, 2.0) == 1.0
    for kind in ("feedback_as_prompt", "critic_prompt", "ioe_prompt"):
        assert cost_ratio(kind, 0.25, 2.0) == 2.0
    assert cost_ratio("ftr_indicator", 0.25, 2.0) == 1.5


def test_cost_estimate_no_regeneration_is_single_pass():
    assert cost_ratio("ftr_indicator", 0.0, 5.0) == cost_ratio("none", 0.0, 5.0)


def test_cost_estimate_breakeven_equals_two_pass():
    # p * n = 1 exactly: regenerating costs the same as a full second pass
    assert cost_ratio("ftr_indicator", 0.5, 2.0) == cost_ratio("critic_prompt", 0.5, 2.0)


def test_cost_estimate_monotone_in_regen_fraction():
    costs = [cost_ratio("ftr_indicator", p, 3.0) for p in (0.0, 0.2, 0.4, 0.8, 1.0)]
    assert costs == sorted(costs)


def test_cost_estimate_rejects_unknown_strategy():
    with pytest.raises(ValueError, match="unknown strategy"):
        cost_ratio("other", 0.0, 1.0)


def test_breakeven_fraction():
    assert breakeven_regen_fraction(2.0) == 0.5
    assert breakeven_regen_fraction(1.0) == 1.0
    with pytest.raises(ValueError, match="mean_width"):
        breakeven_regen_fraction(0.9)


# ---------------------------------------------------------------------------
# RunReport serialization


def sample_report():
    return RunReport(
        strategy="ftr_indicator",
        dataset="toy",
        size=4,
        accuracy=0.75,
        matrix=ChangeMatrix(cc=2, ci=0, ic=1, ii=1),
        tokens_stage1=8,
        tokens_stage2=10,
        regenerated=2,
        unit_tokens=2.0,
        regen_fraction=0.5,
        mean_width=2.5,
        est_cost_ratio=2.25,
        measured_cost_ratio=2.25,
    )


def test_report_json_round_trip():
    report = sample_report()
    assert json.loads(report.to_json()) == report.to_json_dict()
    assert report.to_json().endswith("\n")
    # canonical bytes: sorted keys, no whitespace
    body = report.to_json().rstrip("\n")
    assert body == json.dumps(json.loads(body), sort_keys=True, separators=(",", ":"))


def test_csv_row_formats_floats_by_repr():
    row = sample_report().csv_row()
    assert row == "ftr_indicator,toy,4,0.75,2,0,1,1,8,10,2.25,2.25"


def test_reports_to_csv_has_header():
    text = reports_to_csv([sample_report()])
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[0] == (
        "strategy,dataset,N,acc,cc,ci,ic,ii,"
        "tokens_stage1,tokens_stage2,est_cost_ratio,measured_cost_ratio"
    )
    assert len(lines) == 2
    assert text.endswith("\n")


# ---------------------------------------------------------------------------
# score_run


def test_score_run_counts_and_costs():
    dataset = math_dataset([1, 2, 3])
    pairs = [
        # t0: correct, untouched (identity final)
        (attempt("t0", "[1]"), attempt("t0", "[1]")),
        # t1: wrong then regenerated right, 5 tokens over 2 steps
        (attempt("t1", "[9]"), attempt("t1", "[2]", stage=CORRECTED, tokens=5, steps=2)),
        # t2: wrong, regenerated still wrong
        (attempt("t2", "[9]"), attempt("t2", "[8]", stage=CORRECTED, tokens=5, steps=2)),
    ]
    report = score_run(pairs, dataset, "ftr_indicator")
    assert (report.matrix.cc, report.matrix.ci, report.matrix.ic, report.matrix.ii) == (1, 0, 1, 1)
    assert report.size == 3
    assert report.accuracy == pytest.approx(2 / 3)
    assert report.tokens_stage1 == 6
    assert report.tokens_stage2 == 10
    assert report.regenerated == 2
    assert report.unit_tokens == pytest.approx(2.0)
    assert report.regen_fraction == pytest.approx(2 / 3)
    assert report.mean_width == pytest.approx(2.5)
    # est = 1 + p*n = 1 + (2/3)*2.5; measured = 16/6: identical here
    assert report.est_cost_ratio == pytest.approx(1 + (2 / 3) * 2.5)
    assert report.measured_cost_ratio == pytest.approx(16 / 6)
    assert report.est_cost_ratio == pytest.approx(report.measured_cost_ratio)


@pytest.mark.parametrize("counts", [
    [(11, 10)] * 10,
    [(7, 3), (5, 3), (9, 7), (3, 2), (11, 6), (13, 9), (2, 1), (17, 12)],
], ids=["ten-widths-of-1.1", "mixed-widths"])
def test_score_run_mean_width_is_a_left_to_right_sum(counts):
    # From Python 3.12 the builtin sum() of floats is compensated; the report
    # must hold the plain loop's value on every version.
    widths = [tokens / steps for tokens, steps in counts]
    total = 0.0
    for width in widths:
        total += width
    assert total != math.fsum(widths)  # the two summations differ on these widths
    dataset = math_dataset([1] * len(counts))
    pairs = [(attempt(f"t{i}", "[9]"), attempt(f"t{i}", "[1]", stage=CORRECTED, tokens=tokens, steps=steps))
             for i, (tokens, steps) in enumerate(counts)]
    assert score_run(pairs, dataset, "ftr_indicator").mean_width == total / len(counts)


def test_score_run_none_strategy_is_unit_cost():
    dataset = math_dataset([1])
    pairs = [(attempt("t0", "[1]"), attempt("t0", "[1]"))]
    report = score_run(pairs, dataset, "none")
    assert report.est_cost_ratio == 1.0
    assert report.measured_cost_ratio == 1.0
    assert report.regenerated == 0
    assert report.mean_width == 1.0


def test_score_run_identity_final_reuses_initial_verdict():
    # the final attempt still carries stage "initial": no second verification
    dataset = math_dataset([1])
    pairs = [(attempt("t0", "[1]"), attempt("t0", "[1]"))]
    report = score_run(pairs, dataset, "none")
    assert report.matrix.cc == 1


def test_score_run_requires_full_coverage():
    dataset = math_dataset([1, 2])
    pairs = [(attempt("t0", "[1]"), attempt("t0", "[1]"))]
    with pytest.raises(ValueError, match=r"no attempt pair for tasks: \['t1'\]"):
        score_run(pairs, dataset, "none")


def test_score_run_rejects_an_unknown_kind_before_verifying(tmp_path):
    # A math verdict runs nothing, so a code task's verifier counts the
    # verdicts: it appends one line per spawn.
    spawns = tmp_path / "spawns.log"
    task = Task(id="c0", prompt="q", domain="code", verify_cmd=("sh", "-c", 'echo ran >> "$0"', str(spawns)))
    dataset = Dataset(name="toy", tasks=(task,))
    pairs = [(attempt("c0", "x"), attempt("c0", "x"))]
    with pytest.raises(ValueError, match="unknown strategy kind 'bogus'"):
        score_run(pairs, dataset, "bogus")
    assert not spawns.exists()
    score_run(pairs, dataset, "none")
    assert spawns.read_text() == "ran\n"


def test_score_run_rejects_unknown_and_mismatched_pairs():
    dataset = math_dataset([1])
    stray = [(attempt("tX", "[1]"), attempt("tX", "[1]"))]
    with pytest.raises(ValueError, match="unknown task 'tX'"):
        score_run(stray, dataset, "none")
    crossed = [(attempt("t0", "[1]"), attempt("t1", "[1]"))]
    with pytest.raises(ValueError, match="mismatched pair"):
        score_run(crossed, dataset, "none")


def test_score_run_rejects_a_repeated_pair():
    # Three pairs for two tasks would score size 3 with task t0 counted twice.
    dataset = math_dataset([1, 2])
    pairs = [(attempt(t, f"[{i}]"), attempt(t, f"[{i}]")) for i, t in ((1, "t0"), (1, "t0"), (2, "t1"))]
    with pytest.raises(ValueError, match="more than one pair for task 't0'"):
        score_run(pairs, dataset, "none")


def test_score_run_judges_code_through_correction_verify(monkeypatch):
    # score_run and the feedback providers share correction.true_verdict,
    # so one patch of the verify it calls sees every code verdict.
    calls = []

    def fake_verify(task, text, timeout):
        calls.append(text)
        return text == "pass"

    monkeypatch.setattr(correction, "verify", fake_verify)
    task = Task(id="c0", prompt="q", domain="code", verify_cmd=("true",))
    pairs = [(attempt("c0", "pass"), attempt("c0", "fail", stage=CORRECTED))]
    report = score_run(pairs, Dataset(name="d", tasks=(task,)), "ftr_indicator")
    assert report.matrix == ChangeMatrix(cc=0, ci=1, ic=0, ii=0)
    assert calls == ["pass", "fail"]


def test_score_run_parallel_verification_matches_serial():
    dataset = math_dataset(list(range(8)))
    pairs = [
        (attempt(f"t{i}", f"[{i}]"), attempt(f"t{i}", f"[{i + i % 2}]", stage=CORRECTED, tokens=4, steps=2))
        for i in range(8)
    ]
    serial = score_run(pairs, dataset, "ftr_indicator", workers=1)
    parallel = score_run(pairs, dataset, "ftr_indicator", workers=4)
    assert serial == parallel
