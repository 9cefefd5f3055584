"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import compare
import reference
import run
from tracing import Tracer, instrument
from workloads import WORKLOADS


def traced_loop(name: str, work: Path, seconds: float):
    workload = WORKLOADS[name]
    program = workload.setup(workload.make_inputs(run.DEFAULT_SEED, work), work)
    try:
        first = [op() for op in program.ops]
        digests = [program.digest(output) for output in first]
        tokens = [program.tokens(output) for output in first]
        return run.timed_loop(program, seconds, True, digests, tokens)
    finally:
        program.close()


def test_digest_mismatch_prints_no_timings(tmp_path, capsys):
    expected = tmp_path / "expected.json"
    expected.write_text(json.dumps({"trap_decode": {"42": "0" * 64}}))
    code = run.main(["--workload", "trap_decode", "--seed", "42", "--seconds", "0.2", "--expected", str(expected)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "recorded for seed 42" in captured.err


def test_recorded_digest_passes(capsys):
    code = run.main(["--workload", "trap_decode", "--seed", "42", "--seconds", "0.2"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.UNITS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_layer_self_times_fit_in_traced_wall_time(name, tmp_path):
    loop = traced_loop(name, tmp_path, 0.5)
    tracer = loop["tracer"]
    assert loop["traced"]["wall"], "no op was traced"
    assert all(ns >= 0 for ns in tracer.self_ns.values())
    assert sum(tracer.self_ns.values()) <= sum(loop["traced"]["wall"])
    run.cross_check(loop)


def test_server_request_count_matches_round_trips(tmp_path):
    loop = traced_loop("remote_trap_decode", tmp_path, 0.5)
    round_trips = loop["tracer"].calls["remote.call"]
    assert round_trips > 0
    assert loop["server"]["requests"] == round_trips


def test_tracing_restores_every_patched_attribute(tmp_path):
    run.forget_program()
    WORKLOADS["trap_decode"].setup(WORKLOADS["trap_decode"].make_inputs(1, tmp_path), tmp_path)
    import multipath.cli as cli
    import multipath.decoding as decoding
    import multipath.models as models

    before = (decoding.multipath_decode, cli.main, vars(models.ModelInterface)["next_distribution"])
    tracer = Tracer()
    instrument(tracer)
    assert decoding.multipath_decode is not before[0]
    tracer.restore()
    assert (decoding.multipath_decode, cli.main, vars(models.ModelInterface)["next_distribution"]) == before


def test_reference_rejects_a_different_decode(tmp_path):
    workload = WORKLOADS["trap_decode"]
    program = workload.setup(workload.make_inputs(1, tmp_path), tmp_path)
    results = [op() for op in program.ops]
    program.check(results)
    expected = reference.multipath(lambda prefix: [0.5, 0.5, 0.0] if not prefix else [0.0, 0.0, 1.0], 0.95, 7, 24, eos=2)
    with pytest.raises(reference.CheckFailed):
        reference.check_decode("input 0", results[0], expected)


def test_compare_refuses_different_backends(capsys):
    record = {"workload": "trap_decode", "env": {"backend": "pure", "seed": 42},
              "metrics": {"op_latency_ms_p50": {"value": 1.0, "unit": "ms"}}}
    other = dict(record, env={"backend": "fast", "seed": 42})
    with pytest.raises(compare.Incomparable):
        compare.compare(record, other)
    assert compare.compare(record, record) == ["op_latency_ms_p50 1 -> 1 ms (+0.0%)"]
