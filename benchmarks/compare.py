#!/usr/bin/env python3
"""Compare two sets of benchmark records, metric by metric.  Report only.

Usage (from the repository root)::

    python3 benchmarks/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the lines ``run.py --record FILE`` appended, one per run.
For every workload present on both sides and every end-to-end metric in
``BENCHMARK.json`` this prints each side's median and quartiles, the ratio
of medians (change / base) and a verdict:

* ``unresolved`` -- a side's quartile spread (IQR / median) exceeds the
  metric's bound, unless every change run is better than every base run;
* ``worse`` -- the change's median is worse than the base's by more than
  the bound;
* ``better`` -- the two sides' quartile ranges do not overlap and the
  change's lies on the better side;
* ``within bound`` -- anything else.

A verdict is not a gate: the exit code is 0 whenever both files parse.
Nor is ``better`` a claimed gain, which needs alternating paired runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: Path) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, from the untraced runs in ``path``."""
    values: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record["provenance"]["trace"]:
            continue
        workload = record["provenance"]["workload"]
        for name, metric in record["result"]["metrics"].items():
            values[workload][name].append(metric["value"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], change: list[float], bound: float, lower: bool) -> str:
    if len(base) < 2 or len(change) < 2:
        return "unresolved"
    (b1, bm, b3), (c1, cm, c3) = quartiles(base), quartiles(change)
    sign = 1.0 if lower else -1.0  # positive = worse
    if (b3 - b1) / bm > bound or (c3 - c1) / cm > bound:
        if all(sign * (c - b) < 0 for c in change for b in base):
            return "better"
        return "unresolved"
    if sign * (cm - bm) / bm > bound:
        return "worse"
    if (c3 < b1) if lower else (c1 > b3):
        return "better"
    return "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    base, change = load(args.base), load(args.change)
    print(f"{'workload':<18} {'metric':<12} {'base median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'ratio':>7}  verdict")
    for workload in sorted(set(base) & set(change)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b, c = base[workload].get(name), change[workload].get(name)
            if not b or not c:
                continue
            (b1, bm, b3), (c1, cm, c3) = quartiles(b), quartiles(c)
            v = verdict(b, c, metric["bound"], metric["better"] == "lower")
            print(f"{workload:<18} {name:<12} "
                  f"{f'{bm:.5g} [{b1:.5g}, {b3:.5g}] n={len(b)}':<34} "
                  f"{f'{cm:.5g} [{c1:.5g}, {c3:.5g}] n={len(c)}':<34} "
                  f"{cm / bm:>7.4f}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
