#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the multipath package.

Run from the repository root; the package is imported from ``src``:

    python3 perfbench/run.py --workload trap_decode --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

One process drives a closed loop: each op starts when the previous one has
returned, and the ops cycle over the inputs the seed made. With ``--trace 0``
every op is timed plainly and the end-to-end metrics are printed; with
``--trace 1`` the ops alternate between plain and traced, and the per-layer
metrics of the traced ops are printed together with the tracing overhead.
Each metric is printed on its own line with unit and sample count; the last
line of standard output is one JSON object {"correct", "attempted",
"failed", "metrics"}.

Times are given at a fixed reference speed of the machine (see speed.py):
each op's CPU time is rescaled by the speed measured right around it, and
its waiting time is kept as it was. The plain wall-clock latencies are
printed too, and kept in the ``--out`` record. Per-layer times are plain
wall-clock time, summed over the traced ops and divided by their number.

Every output is checked. Each op must give the same bytes as the first op
on its input, traced or not; the first pass over the inputs must agree with
the benchmark's reference; and for a seed listed in expected_digests.json
the sha256 of that pass must equal the recorded one. On any disagreement
the run exits with code 1 and prints no timings.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from array import array
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402
from reference import CheckFailed  # noqa: E402
from tracing import Tracer, instrument, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 42
SETUP_REPEATS = 9
# Throughput is measured per window of this much op time; the median window
# is reported, so a pause in one window does not move it.
WINDOW_NS = 1_000_000_000
EXPECTED_DIGESTS = HERE / "expected_digests.json"
UNITS = {
    "setup_s": "s",
    "tokens_per_s": "1/s",
    "op_latency_ms_p50": "ms",
    "op_latency_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def forget_program() -> None:
    """Drop the imported package so the next set-up pays for importing it."""
    for name in [m for m in sys.modules if m == "multipath" or m.startswith("multipath.")]:
        del sys.modules[name]


def environment(seed: int) -> dict:
    kernels = sys.modules["multipath.kernels"]
    if not Path(kernels.__file__).resolve().is_relative_to(ROOT / "src"):
        raise CheckFailed(f"imported {kernels.__file__}, not the package under {ROOT / 'src'}")
    return {
        "backend": kernels.backend_name(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def run_digest(digests: list) -> str:
    return hashlib.sha256("\n".join(digests).encode("ascii")).hexdigest()


def set_up(workload, inputs, work: Path):
    times = []
    stopwatch = speed.Stopwatch()
    for repeat in range(SETUP_REPEATS):
        forget_program()
        program, _, scaled = stopwatch.time(lambda: workload.setup(inputs, work))
        times.append(scaled / 1e9)
        if repeat + 1 < SETUP_REPEATS:
            program.close()
    return program, times


def server_counters(program) -> dict:
    server = program.server
    names = ("requests", "service_ns", "bytes_received", "bytes_sent")
    return {name: getattr(server, name) if server else 0 for name in names}


def timed_loop(program, seconds: float, trace: bool, digests: list, tokens: list) -> dict:
    """Run ops for ``seconds``; with ``trace`` every second op is traced.

    Per op it keeps the wall time and the time at the reference speed, in ns.
    """
    tracer = Tracer()
    # Compact arrays: a list entry per op would raise the peak RSS measured
    # after the loop with the number of ops the machine managed to run.
    plain = {"wall": array("q"), "scaled": array("d")}
    traced_ops = {"wall": array("q"), "scaled": array("d")}
    server = dict.fromkeys(server_counters(program), 0)
    state = {"attempted": 0, "failed": 0, "traced_tokens": 0, "bytes_written": 0}
    rates, window_tokens, window_ns = [], 0, 0
    gc.collect()
    stopwatch = speed.Stopwatch()
    deadline = perf_counter() + seconds
    n = 0
    while perf_counter() < deadline:
        traced = trace and n % 2 == 1
        j = (n // 2 if trace else n) % len(program.ops)
        n += 1
        op = program.ops[j]
        if traced:
            instrument(tracer)
            before = server_counters(program)
        state["attempted"] += 1
        try:
            output, wall, scaled = stopwatch.time(lambda: tracer.span("op", op) if traced else op())
        except Exception:
            state["failed"] += 1
            if state["failed"] == 1:
                traceback.print_exc()
            continue
        finally:
            tracer.restore()
        if program.digest(output) != digests[j]:
            raise CheckFailed(f"input {j}: op output differs from the first op on the same input")
        times = traced_ops if traced else plain
        times["wall"].append(wall)
        times["scaled"].append(scaled)
        if traced:
            state["traced_tokens"] += tokens[j]
            state["bytes_written"] += program.bytes_written(output)
            for name, value in server_counters(program).items():
                server[name] += value - before[name]
        else:
            window_tokens += tokens[j]
            window_ns += scaled
            if window_ns >= WINDOW_NS:
                rates.append(window_tokens / window_ns * 1e9)
                window_tokens, window_ns = 0, 0
        program.release(output)
    if not rates and window_ns:
        rates.append(window_tokens / window_ns * 1e9)
    return dict(state, plain=plain, traced=traced_ops, rates=rates, tracer=tracer, server=server)


def cross_check(loop: dict) -> None:
    """Counts that two layers record independently must agree."""
    tracer, server = loop["tracer"], loop["server"]
    model_calls = tracer.calls["models"]
    if model_calls != loop["traced_tokens"]:
        raise CheckFailed(f"models.calls {model_calls} != tokens generated {loop['traced_tokens']}")
    # When the model is remote, every model call is a round trip or a hit.
    round_trips, cache_hits = tracer.calls["remote.call"], tracer.counts["remote.cache_hits"]
    if (round_trips or cache_hits) and round_trips + cache_hits != model_calls:
        raise CheckFailed(f"round trips {round_trips} + cache hits {cache_hits} != models.calls {model_calls}")
    if server["requests"] != round_trips:
        raise CheckFailed(f"server saw {server['requests']} requests, client made {round_trips}")


def measure(workload, seed: int, seconds: float, trace: bool, work: Path, expected: dict) -> dict:
    inputs = workload.make_inputs(seed, work)
    program, setup_times = set_up(workload, inputs, work)
    try:
        env = environment(seed)
        first = [op() for op in program.ops]
        digests = [program.digest(output) for output in first]
        tokens = [program.tokens(output) for output in first]
        digest = run_digest(digests)
        recorded = expected.get(workload.name, {}).get(str(seed))
        if recorded is not None and recorded != digest:
            raise CheckFailed(f"output digest {digest} != {recorded} recorded for seed {seed}")
        loop = timed_loop(program, seconds, trace, digests, tokens)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        program.check(first)
        for output in first:
            program.release(output)
    finally:
        program.close()
    if trace:
        cross_check(loop)
    plain = [ns / 1e6 for ns in loop["plain"]["scaled"]]
    wall = [ns / 1e6 for ns in loop["plain"]["wall"]]
    metrics = {}
    if trace:
        tracer, traced = loop["tracer"], [ns / 1e6 for ns in loop["traced"]["scaled"]]
        if not traced or not plain:
            raise CheckFailed("the run was too short to time both a plain and a traced op")
        for name, (value, unit) in layer_metrics(tracer, len(traced), loop["server"], loop["bytes_written"]).items():
            metrics[name] = {"value": value, "unit": unit, "n": len(traced)}
        metrics["trace.overhead_ratio"] = {
            "value": statistics.median(traced) / statistics.median(plain), "unit": "ratio", "n": len(traced)}
        metrics["trace.unattributed_ratio"] = {
            "value": tracer.self_ns["op"] / tracer.busy_ns["op"], "unit": "ratio", "n": len(traced)}
    else:
        if len(plain) < 2:
            raise CheckFailed("the run was too short to time two ops")
        values = {
            "setup_s": (statistics.median(setup_times), len(setup_times)),
            "tokens_per_s": (statistics.median(loop["rates"]), len(loop["rates"])),
            "op_latency_ms_p50": (statistics.median(plain), len(plain)),
            "op_latency_ms_p90": (statistics.quantiles(plain, n=10)[8], len(plain)),
            "peak_rss_mb": (peak_rss_mb, 1),
        }
        for name, (value, n) in values.items():
            metrics[name] = {"value": value, "unit": UNITS[name], "n": n}
    wall_clock = {}
    if len(wall) > 1:
        wall_clock = {"op_latency_ms_p50": statistics.median(wall), "op_latency_ms_p90": statistics.quantiles(wall, n=10)[8]}
    return {
        "workload": workload.name,
        "env": env,
        "digest": digest,
        "correct": loop["failed"] == 0,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": metrics,
        "wall_clock": wall_clock,
    }


def run_all(args) -> int:
    """Each workload in its own process, so each has its own peak memory."""
    worst = 0
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace), "--expected", str(args.expected)]
        worst = max(worst, subprocess.run(command, check=False).returncode)
    return worst


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", type=Path, default=EXPECTED_DIGESTS,
                        help="JSON file of recorded digests: {workload: {seed: sha256}}")
    parser.add_argument("--out", type=Path, help="also write the full result record to this JSON file")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # The remote workload's server is on loopback; never route it via a proxy.
    os.environ["no_proxy"] = "127.0.0.1"
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]
    expected = json.loads(args.expected.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as work:
        try:
            record = measure(workload, args.seed, args.seconds, bool(args.trace), Path(work), expected)
        except CheckFailed as exc:
            print(f"error: {workload.name} seed {args.seed}: {exc}", file=sys.stderr)
            return 1
    env = record["env"]
    print(f"{workload.name}: seed {env['seed']}, kernels {env['backend']}, python {env['python']}, "
          f"nproc {env['nproc']}, digest {record['digest']}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"  error_rate {failed / attempted:.4g} ({failed} of {attempted} ops failed)")
    for name, metric in record["metrics"].items():
        print(f"  {name} {metric['value']:.6g} {metric['unit']} (n={metric['n']})")
    for name, value in record["wall_clock"].items():
        print(f"  {name} {value:.6g} ms on the wall clock, not rescaled")
    if args.out:
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    result = {name: {"value": m["value"], "unit": m["unit"]} for name, m in record["metrics"].items()}
    print(json.dumps({"correct": record["correct"], "attempted": attempted, "failed": failed, "metrics": result}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
