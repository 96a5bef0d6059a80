"""Every workload at ``--smoke`` size, end to end and traced, through the
real command line."""

import json
import os
import re
import subprocess
import sys

import pytest

from conftest import BENCH_DIR, ROOT

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    CONTRACT = json.load(_handle)
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(workload, seed, trace, out):
    child = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--smoke", "--trace", str(trace), "--out", str(out)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert child.returncode == 0, child.stderr[-2000:]
    return json.loads(child.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    lines = {
        (workload, trace): run(workload, 5, trace, out)
        for workload in WORKLOADS
        for trace in (0, 1)
    }
    # Once more on the same seed and once on another, for determinism.
    lines[("serve_short", 1, "again")] = run("serve_short", 5, 1, out)
    lines[("serve_short", 1, "other seed")] = run("serve_short", 6, 1, out)
    with open(out) as handle:
        return lines, json.load(handle)["runs"]


def test_contract_file_is_well_formed():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    names = [w["name"] for w in CONTRACT["workloads"]]
    for section in ("end_to_end", "per_layer"):
        for metric in CONTRACT[section]:
            names.append(metric["name"])
            assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    assert all(NAME.match(name) for name in names) and len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in CONTRACT["workloads"])
    bounds = {m["name"]: m["bound"] for m in CONTRACT["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_last_line_carries_every_declared_metric(results, workload, trace):
    line = results[0][(workload, trace)]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = line["metrics"][metric["name"]]
        assert set(reported) == {"value", "unit"} and reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_result_file_has_sample_counts_and_provenance(results):
    for record in results[1]:
        assert all(m["samples"] >= 1 for m in record["metrics"].values())
        provenance = record["provenance"]
        for key in ("git_revision", "nproc", "workers", "kernel_backend",
                    "kernel_backend_fallback_reason", "python_version",
                    "numpy_version", "input_hash"):
            assert key in provenance
        assert record["failed_share"] == 0


def test_same_seed_same_inputs_and_cells(results):
    lines, records = results
    first, again, other = (
        lines[("serve_short", 1)],
        lines[("serve_short", 1, "again")],
        lines[("serve_short", 1, "other seed")],
    )
    assert first["metrics"]["align.cells"] == again["metrics"]["align.cells"]
    hashes = [
        (r["seed"], r["provenance"]["input_hash"])
        for r in records
        if r["workload"] == "serve_short" and r["trace"]
    ]
    assert hashes[0] == hashes[1] and hashes[0][1] != hashes[2][1]
    assert other["correct"] is True


def test_trace_writes_one_span_file_per_workload(results):
    for workload in WORKLOADS:
        with open(os.path.join(BENCH_DIR, "out", f"trace-{workload}.json")) as handle:
            trace = json.load(handle)
        assert trace["workload"] == workload
        spans = trace["spans"]
        assert spans[0]["name"] == "ladder" and spans[0]["parent"] is None
        assert all({"name", "start", "end", "parent", "workload"} <= set(s) for s in spans)
        assert all(s["end"] >= s["start"] for s in spans)
