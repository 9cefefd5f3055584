"""The benchmark's recorded-digest gate on every workload.

``perfbench/run.py`` exits 1 when a workload's output bytes differ from the
sha256 recorded in ``perfbench/expected_digests.json`` for that seed, so a
change that moves any output byte of a workload fails here.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("workload", ["trap_decode", "ngram_v2000_decode", "digits_compare", "remote_trap_decode"])
def test_benchmark_output_matches_recorded_digest(workload, seed):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "0.3"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
