#!/usr/bin/env python3
"""Compare two result records written by ``run.py --out``.

    python3 perfbench/compare.py BASE.json NEW.json

Prints every metric the two records share with its relative change. Exits
with code 2, printing nothing else, when the records come from different
workloads or different kernel backends: the backend alone moves the
timings, so such a comparison says nothing about a change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


class Incomparable(Exception):
    pass


def compare(base: dict, new: dict) -> list:
    if base["workload"] != new["workload"]:
        raise Incomparable(f"workloads differ: {base['workload']} vs {new['workload']}")
    if base["env"]["backend"] != new["env"]["backend"]:
        raise Incomparable(f"kernel backends differ: {base['env']['backend']} vs {new['env']['backend']}")
    lines = []
    for name, old in base["metrics"].items():
        if name not in new["metrics"]:
            continue
        value = new["metrics"][name]["value"]
        change = f"{(value - old['value']) / old['value']:+.1%}" if old["value"] else "n/a"
        lines.append(f"{name} {old['value']:.6g} -> {value:.6g} {old['unit']} ({change})")
    return lines


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print("usage: compare.py BASE.json NEW.json", file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in paths)
    try:
        lines = compare(base, new)
    except Incomparable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{base['workload']}: seed {base['env']['seed']} -> {new['env']['seed']}, kernels {base['env']['backend']}")
    for line in lines:
        print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
