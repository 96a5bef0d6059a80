#!/usr/bin/env python3
"""One seeded benchmark for the whole stack.

    python3 bench/run.py --workload <name|all> --seed <int> \\
        [--seconds <s>] [--trace [0|1]] [--smoke] [--out <file>]

Generates the workload's inputs from the seed, starts the system under
test, drives it from outside through its public functions, checks every
answer against the oracle and prints every metric by name with its unit.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` by default, the per-layer metrics with
``--trace 1``.  Exits non-zero on any failed operation.
"""

from __future__ import annotations

import time

_PROCESS_STARTED = time.perf_counter()

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
#: Set-ups measured per run, each in a fresh process; the median is reported.
SETUP_REPEATS = 3
_PROBE_TIMEOUT_S = 150

if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit(f"bench/run.py: no system under test at {ROOT}/src/repro")
# Everything the run builds or caches stays inside the checkout.
os.environ.setdefault("SWDUAL_CC_CACHE_DIR", os.path.join(ROOT, ".bench_build", "swdual-cc"))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import measure  # noqa: E402
from ladder import Ladder  # noqa: E402
from oracle import Oracle  # noqa: E402
from workloads import WORKLOADS, build_inputs  # noqa: E402

from repro.align.backend import resolve_backend  # noqa: E402
from repro.platform.benchstamp import bench_stamp  # noqa: E402

_IMPORT_SECONDS = time.perf_counter() - _PROCESS_STARTED

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    CONTRACT = json.load(_handle)


def setup_probe(workload, seed: int, smoke: bool) -> dict:
    """Child-process body: one cold set-up, from process start to the
    end of the first operation, input generation excluded."""
    inputs = build_inputs(workload, seed, smoke)
    segments = measure.leaked_segments()
    begun = measure.clock()
    system = workload.system(inputs)
    try:
        system.start()
        system.warm()
        seconds = measure.clock() - begun
    finally:
        system.close()
    return {
        "setup_s": _IMPORT_SECONDS + seconds,
        "failures": measure.hygiene_failures(segments),
    }


def measure_setups(workload, seed: int, smoke: bool, samples) -> list[float]:
    command = [sys.executable, os.path.abspath(__file__), "--workload", workload.name,
               "--seed", str(seed), "--setup-probe"] + (["--smoke"] if smoke else [])
    setups = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            command, capture_output=True, text=True, timeout=_PROBE_TIMEOUT_S, cwd=ROOT
        )
        if child.returncode != 0:
            samples.check(False, f"set-up probe exited {child.returncode}: {child.stderr[-500:]}")
            continue
        probe = json.loads(child.stdout.strip().splitlines()[-1])
        setups.append(probe["setup_s"])
        samples.check(not probe["failures"], f"set-up probe leaked: {probe['failures']}")
    return setups


def run_end_to_end(workload, inputs, oracle, seconds: float, seed: int, smoke: bool):
    segments = measure.leaked_segments()
    system = workload.system(inputs)
    try:
        system.start()
        system.warm()
        samples = workload.drive(system, inputs, oracle, seconds)
        lower_bound_gcups = system.lower_bound_gcups(oracle.kernel_gcups)
    finally:
        system.close()
    leaks = measure.hygiene_failures(segments)
    samples.check(not leaks, "; ".join(leaks))
    setups = measure_setups(workload, seed, smoke, samples)
    if not (samples.latencies_ms and samples.rates and setups):
        raise SystemExit(f"{workload.name}: nothing was measured: {samples.failures[:3]}")

    gcups = measure.median([cells for _, cells in samples.rates]) / 1e9
    p95, used = measure.tail(samples.latencies_ms, 95)
    requests = len(samples.latencies_ms)
    metrics = {
        "setup_s": (measure.median(setups), len(setups)),
        "gcups": (gcups, len(samples.rates)),
        "makespan_over_lb": (lower_bound_gcups / gcups, len(samples.rates)),
        "qps": (measure.median([n for n, _ in samples.rates]), len(samples.rates)),
        "latency_p50_ms": (measure.percentile(samples.latencies_ms, 50), requests),
        "latency_p95_ms": (p95, requests),
        "peak_rss_mb": (measure.peak_rss_mb(), 1),
    }
    notes = {"latency_p95_ms": f"p{used}"} if used != 95 else {}
    return samples, metrics, notes


def run_trace(workload, inputs, oracle, seconds: float):
    segments = measure.leaked_segments()
    recorder = measure.SpanRecorder(workload.name)
    ladder = Ladder(inputs, oracle, workload.top_rung, seconds, recorder)
    try:
        ladder.run()
    finally:
        recorder.write(os.path.join(OUT_DIR, f"trace-{workload.name}.json"))
    leaks = measure.hygiene_failures(segments)
    ladder.samples.check(not leaks, "; ".join(leaks))
    return ladder.samples, ladder.metrics, {}


def run_workload(name: str, args) -> dict:
    workload = WORKLOADS[name]
    inputs = build_inputs(workload, args.seed, args.smoke)
    backend = resolve_backend()  # probe and load the kernels before anything is timed
    oracle = Oracle(inputs.database, inputs.queries)
    spot_checked = oracle.spot_check(args.seed)
    if args.trace:
        samples, values, notes = run_trace(workload, inputs, oracle, args.seconds)
        declared = CONTRACT["per_layer"]
    else:
        samples, values, notes = run_end_to_end(
            workload, inputs, oracle, args.seconds, args.seed, args.smoke
        )
        declared = CONTRACT["end_to_end"]
    missing = {m["name"] for m in declared} ^ set(values)
    if missing:
        raise SystemExit(f"{name}: metrics out of step with BENCHMARK.json: {sorted(missing)}")

    metrics = {}
    for spec in declared:
        value, count = values[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"], "samples": count}
        if spec["name"] in notes:
            metrics[spec["name"]]["percentile"] = notes[spec["name"]]
        print(f"{name:15s} {spec['name']:32s} {value:14.6g} {spec['unit']:6s} n={count}"
              + (f" ({notes[spec['name']]})" if spec["name"] in notes else ""))
    for failure in samples.failures[:10]:
        print(f"{name}: FAILED: {failure}", file=sys.stderr, flush=True)
    return {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "correct": not samples.failures,
        "attempted": samples.attempted,
        "failed": len(samples.failures),
        "failed_share": len(samples.failures) / samples.attempted,
        "failures": samples.failures[:10],
        "metrics": metrics,
        "provenance": {
            **bench_stamp(),
            "nproc": os.cpu_count(),
            "workers": workload.workers,
            "kernel_backend": backend.name,
            "kernel_backend_fallback_reason": backend.fallback_reason,
            "input_hash": inputs.digest,
            "oracle_spot_checked_pairs": spot_checked,
        },
    }


def append_result(path: str, records: list[dict]) -> None:
    document = {"schema": 1, "runs": []}
    if os.path.exists(path):
        with open(path) as handle:
            document = json.load(handle)
    document["runs"].extend(records)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)


def refuse_dirty_baseline(path: str) -> None:
    """A file named ``bench/out/baseline*`` is what later changes are
    compared against, so it may only come from a clean revision."""
    path = os.path.abspath(path)
    if os.path.dirname(path) == OUT_DIR and os.path.basename(path).startswith("baseline"):
        revision = bench_stamp()["git_revision"]
        if revision is None or revision.endswith("+dirty"):
            sys.exit(f"bench/run.py: refusing to write {path} from revision {revision!r}")


def stop_resource_tracker() -> None:
    """The stdlib starts a helper process the first time shared memory
    is used and leaves it to exit on its own; stop it and wait for it,
    so that no process started here outlives the run."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed window (default: run_seconds of "
                        "BENCHMARK.json, 1 with --smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="run the per-layer ladder instead of the end-to-end load")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, seconds not minutes")
    parser.add_argument("--out", help="append the run records to this JSON file")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(CONTRACT["run_seconds"])

    try:
        if args.setup_probe:
            print(json.dumps(setup_probe(WORKLOADS[args.workload], args.seed, args.smoke)))
            return 0
        if args.out:
            refuse_dirty_baseline(args.out)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        records = [run_workload(name, args) for name in names]
    finally:
        stop_resource_tracker()
    if args.out:
        append_result(args.out, records)
    for record in records:
        print(json.dumps({
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {"value": m["value"], "unit": m["unit"]}
                for name, m in record["metrics"].items()
            },
        }))
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
