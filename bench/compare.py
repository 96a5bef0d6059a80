#!/usr/bin/env python3
"""Compare two result files written by ``bench/run.py --out``.

    python3 bench/compare.py <a.json> <b.json>

One row per (workload, end-to-end metric): both medians, the ratio b/a
(base: a), the bound from ``BENCHMARK.json`` and a verdict —

* ``unresolved``  the run-to-run spread of either side is wider than the
  bound, so the two medians cannot be told apart (never reported as same);
* ``worse``       b's median is worse than a's by more than the bound;
* ``better``      b's median is better than a's by more than the bound;
* ``same``        anything else.

Exits 1 on any ``worse`` or any rise in ``failed_share``, and 2 when the
files cannot be compared at all: different kernel backend, seeds or
generated inputs.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from measure import median, spread  # noqa: E402

_CONTRACT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")


def load_runs(path: str) -> dict[str, list[dict]]:
    """End-to-end run records of one result file, by workload."""
    with open(path) as handle:
        document = json.load(handle)
    runs: dict[str, list[dict]] = {}
    for record in document["runs"]:
        if not record["trace"]:
            runs.setdefault(record["workload"], []).append(record)
    return runs


def signature(records: list[dict]) -> tuple:
    """What must be equal for two sets of runs to be comparable."""
    return (
        sorted({r["provenance"]["kernel_backend"] for r in records}),
        sorted((r["seed"], r["provenance"]["input_hash"]) for r in records),
    )


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple:
    """``(median a, median b, ratio b/a, wider spread, verdict)`` for one
    metric on one workload."""
    base, other = median(a), median(b)
    ratio = other / base if base else float("inf")
    wider = max(spread(a), spread(b))
    worsening = (ratio - 1.0) if better == "lower" else (1.0 - ratio)
    if wider > bound:
        outcome = "unresolved"
    elif worsening > bound:
        outcome = "worse"
    elif worsening < -bound:
        outcome = "better"
    else:
        outcome = "same"
    return base, other, ratio, wider, outcome


def compare(runs_a: dict, runs_b: dict, contract: dict) -> tuple[list[tuple], list[str]]:
    """Rows of the comparison table plus the reasons to fail it."""
    rows, problems = [], []
    for workload in sorted(set(runs_a) & set(runs_b)):
        a, b = runs_a[workload], runs_b[workload]
        for spec in contract["end_to_end"]:
            name = spec["name"]
            base, other, ratio, wider, outcome = verdict(
                [r["metrics"][name]["value"] for r in a],
                [r["metrics"][name]["value"] for r in b],
                spec["better"],
                spec["bound"],
            )
            rows.append(
                (workload, name, spec["unit"], base, other, ratio, wider, spec["bound"], outcome)
            )
            if outcome == "worse":
                problems.append(f"{workload} {name}: worse (b/a = {ratio:.3f}, base a)")
        failed_a = max(r["failed_share"] for r in a)
        failed_b = max(r["failed_share"] for r in b)
        if failed_b > failed_a:
            problems.append(f"{workload}: failed_share rose from {failed_a:.4g} to {failed_b:.4g}")
    return rows, problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    runs_a, runs_b = load_runs(argv[0]), load_runs(argv[1])
    with open(_CONTRACT) as handle:
        contract = json.load(handle)
    if set(runs_a) != set(runs_b):
        print(f"workloads differ: {sorted(runs_a)} vs {sorted(runs_b)}", file=sys.stderr)
        return 2
    for workload in runs_a:
        if signature(runs_a[workload]) != signature(runs_b[workload]):
            print(
                f"{workload}: kernel backend, seeds or input hashes differ; "
                "these results were not produced from the same inputs",
                file=sys.stderr,
            )
            return 2
    rows, problems = compare(runs_a, runs_b, contract)
    print(f"{'workload':15s} {'metric':17s} {'unit':6s} {'a':>11s} {'b':>11s} "
          f"{'b/a':>7s} {'spread':>7s} {'bound':>6s}  verdict")
    for workload, name, unit, a, b, ratio, wider, bound, outcome in rows:
        print(f"{workload:15s} {name:17s} {unit:6s} {a:11.5g} {b:11.5g} "
              f"{ratio:7.3f} {wider:7.1%} {bound:6.0%}  {outcome}")
    unresolved = sum(1 for row in rows if row[-1] == "unresolved")
    print(f"{len(rows)} rows, {unresolved} unresolved, {len(problems)} problem(s); ratios are b/a")
    for problem in problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
