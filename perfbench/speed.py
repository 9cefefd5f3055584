"""The machine's current speed, measured with a fixed unit of Python work.

On a shared host the same code runs at very different speeds from one
second to the next: a neighbour on the same physical core can slow it down
almost twofold for seconds at a time, and CPU time grows with wall time
when that happens, so neither tells how fast the program is. The benchmark
therefore measures the machine's speed right before and after every op with
the unit below, and reports the op's CPU time rescaled to a fixed reference
speed plus the time the op spent waiting, which the machine's speed does
not change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter_ns, thread_time_ns

# Nanoseconds the unit takes at the reference speed: the host's fast state
# on the 2-vCPU Xeon (2.1 GHz) virtual machine the benchmark was tuned on.
REFERENCE_UNIT_NS = 45_000
# A speed sample lasts a twentieth of the call before it, and at least this.
MIN_SAMPLE_NS = 200_000


@dataclass
class _Node:
    tokens: tuple
    logprob: float


def _unit() -> float:
    # Grow, rank and score a small tree of paths: the same kind of work as
    # the program's decoders, so a busy neighbour slows both alike.
    nodes = [_Node((), 0.0)]
    for i in range(60):
        parent = nodes[i // 3]
        nodes.append(_Node(parent.tokens + (i,), parent.logprob + math.log(0.5 + i % 5 / 10)))
    ranked = sorted(nodes, key=lambda node: (-node.logprob, node.tokens))
    return sum(math.exp(node.logprob) for node in ranked[:7])


def slowdown(sample_ns: int = MIN_SAMPLE_NS) -> float:
    """How many times slower than the reference speed the machine runs now,
    from running the unit for ``sample_ns``."""
    units = 0
    start = perf_counter_ns()
    while True:
        _unit()
        units += 1
        elapsed = perf_counter_ns() - start
        if elapsed >= sample_ns:
            return elapsed / units / REFERENCE_UNIT_NS


def scaled_ns(wall_ns: int, cpu_ns: int, slowdown: float) -> float:
    """A call's duration at the reference speed: CPU time rescaled, waiting kept."""
    cpu_ns = min(cpu_ns, wall_ns)
    return cpu_ns / slowdown + (wall_ns - cpu_ns)


class Stopwatch:
    """Times calls, sampling the machine's speed between them.

    A call's speed is the mean of the samples taken right before and right
    after it; each sample serves the calls on both sides of it, and lasts a
    twentieth of the call before it, so longer calls get steadier samples.
    """

    def __init__(self):
        self._slowdown = slowdown()

    def time(self, fn):
        """Call ``fn``; return its result, its wall time and its duration at
        the reference speed, in ns."""
        start, start_cpu = perf_counter_ns(), thread_time_ns()
        result = fn()
        wall, cpu = perf_counter_ns() - start, thread_time_ns() - start_cpu
        after = slowdown(max(MIN_SAMPLE_NS, wall // 20))
        scaled = scaled_ns(wall, cpu, (self._slowdown + after) / 2)
        self._slowdown = after
        return result, wall, scaled
