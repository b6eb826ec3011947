#!/usr/bin/env python3
"""Paired perf gate: perfbench throughput of a change against its base.

    python3 tools/perf_gate.py BASE_DIR CHANGE_DIR WORKLOAD [WORKLOAD ...]

BASE_DIR and CHANGE_DIR are two checkouts (a ``git worktree`` of the
base commit, and the change).  For each workload the gate runs
``perfbench/run.py --workload W --seconds SECONDS`` in the two trees by
turns, ``PAIRS`` times each, with the tree as the working directory
(the side that runs first alternates from pair to pair, so a drift in
host speed favours neither), and reads the JSON result line each run
prints last.

Exit 1 when a run is not ``correct``, when a run has ``failed > 0``, or
when the change's median ``items_per_s`` is lower than the base's by
more than the ``items_per_s`` bound in the base tree's
``BENCHMARK.json``.  Exit 0 otherwise; exit 2 on a usage error.  Each
workload's line also gives the spread between the quartiles of the base
side's own runs, the noise the bound has to clear.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from typing import List, Tuple

#: Timed seconds of each perfbench run (set-up comes on top).
SECONDS = 5
#: Base/change run pairs per workload.
PAIRS = 3
#: The end-to-end metric the gate compares.
METRIC = "items_per_s"


def read_bound(tree: str) -> float:
    """The relative ``items_per_s`` bound declared in ``tree``."""
    with open(os.path.join(tree, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    for metric in declared["end_to_end"]:
        if metric["name"] == METRIC:
            return float(metric["bound"])
    raise SystemExit(f"error: {tree}/BENCHMARK.json declares no {METRIC}")


def run_once(tree: str, workload: str) -> dict:
    """One perfbench run in ``tree``; its result line (a failed stand-in
    if it printed none)."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(SECONDS)],
        cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if done.returncode != 0 or not isinstance(result, dict):
        sys.stderr.write(done.stderr[-2000:])
        return {"correct": False, "failed": 0,
                "error": f"exit {done.returncode}, no result line"}
    return result


def rate(result: dict) -> float:
    """The run's ``items_per_s``; 0 for a run that printed none."""
    return float(result.get("metrics", {}).get(METRIC, {}).get("value", 0.0))


def quartile_spread(values: List[float]) -> float:
    """The distance between the quartiles, relative to the median."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return (high - low) / statistics.median(values)


def verdict(workload: str, base: List[dict], change: List[dict],
            bound: float) -> Tuple[str, List[str]]:
    """One workload's report line and its failures (none: it passes)."""
    failures = []
    for side, results in (("base", base), ("change", change)):
        for number, result in enumerate(results, 1):
            where = f"{workload}: {side} run {number}"
            if result.get("correct") is not True:
                failures.append(f"{where} is not correct "
                                f"{result.get('error', '')}".rstrip())
            if result.get("failed", 0) > 0:
                failures.append(f"{where} failed {result['failed']} of "
                                f"{result.get('attempted')} operations")
    base_rates = [rate(result) for result in base]
    base_median = statistics.median(base_rates)
    change_median = statistics.median(rate(result) for result in change)
    change_pct = (change_median / base_median - 1.0 if base_median
                  else float("-inf"))
    if change_pct < -bound:
        failures.append(f"{workload}: {METRIC} median {change_median:.1f} "
                        f"is {-change_pct:.1%} below the base's "
                        f"{base_median:.1f} (bound {bound:.0%})")
    line = (f"{workload}: {METRIC} median base {base_median:.1f}, change "
            f"{change_median:.1f} ({change_pct:+.1%}, fails below "
            f"{-bound:.0%}); base quartile spread "
            f"{quartile_spread(base_rates):.1%} over {len(base)} run(s)")
    return line, failures


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) < 3 or not all(os.path.isdir(tree) for tree in args[:2]):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base_tree, change_tree, workloads = args[0], args[1], args[2:]
    bound = read_bound(base_tree)
    failures = []
    for workload in workloads:
        base, change = [], []
        for pair in range(PAIRS):
            sides = [(base, base_tree), (change, change_tree)]
            for results, tree in sides[::-1] if pair % 2 else sides:
                results.append(run_once(tree, workload))
        line, failed = verdict(workload, base, change, bound)
        print(line, flush=True)
        failures += failed
    for failure in failures:
        print(f"FAIL {failure}")
    print("perf gate:", "FAIL" if failures else "OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
