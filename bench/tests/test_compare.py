import json

import compare

CONTRACT = {
    "end_to_end": [
        {"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.08},
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.08},
    ]
}


def runs(qps, latency, failed_share=0.0, input_hash="h", backend="cc"):
    return [
        {
            "workload": "w",
            "seed": seed,
            "trace": False,
            "failed_share": failed_share,
            "metrics": {
                "qps": {"value": q, "unit": "1/s"},
                "latency_p50_ms": {"value": lat, "unit": "ms"},
            },
            "provenance": {"kernel_backend": backend, "input_hash": input_hash},
        }
        for seed, (q, lat) in enumerate(zip(qps, latency))
    ]


STEADY = [100.0, 101.0, 99.0, 100.5, 99.5]


def verdicts(a, b):
    rows, problems = compare.compare({"w": a}, {"w": b}, CONTRACT)
    return {row[1]: row[-1] for row in rows}, problems


def test_same_better_worse():
    base = runs(STEADY, STEADY)
    assert verdicts(base, runs(STEADY, STEADY)) == (
        {"qps": "same", "latency_p50_ms": "same"}, [])
    faster = runs([v * 1.2 for v in STEADY], [v / 1.2 for v in STEADY])
    assert verdicts(base, faster)[0] == {"qps": "better", "latency_p50_ms": "better"}
    slower = runs([v * 0.85 for v in STEADY], STEADY)
    outcome, problems = verdicts(base, slower)
    assert outcome == {"qps": "worse", "latency_p50_ms": "same"}
    assert len(problems) == 1 and "qps" in problems[0]


def test_spread_wider_than_the_bound_is_unresolved_never_same():
    noisy = [100.0, 120.0, 85.0, 110.0, 90.0]
    outcome, problems = verdicts(runs(noisy, STEADY), runs(noisy, STEADY))
    assert outcome == {"qps": "unresolved", "latency_p50_ms": "same"}
    assert problems == []


def test_a_rise_in_failed_share_is_a_problem():
    _, problems = verdicts(runs(STEADY, STEADY), runs(STEADY, STEADY, failed_share=0.01))
    assert problems and "failed_share" in problems[0]


def write(tmp_path, name, records):
    path = tmp_path / name
    path.write_text(json.dumps({"schema": 1, "runs": records}))
    return str(path)


def test_exit_codes(tmp_path, monkeypatch, capsys):
    contract = tmp_path / "BENCHMARK.json"
    contract.write_text(json.dumps(CONTRACT))
    monkeypatch.setattr(compare, "_CONTRACT", str(contract))
    a = write(tmp_path, "a.json", runs(STEADY, STEADY))
    assert compare.main([a, write(tmp_path, "b.json", runs(STEADY, STEADY))]) == 0
    assert "same" in capsys.readouterr().out
    slower = write(tmp_path, "c.json", runs([v * 0.8 for v in STEADY], STEADY))
    assert compare.main([a, slower]) == 1
    # Different generated inputs, or another kernel tier: not comparable.
    assert compare.main([a, write(tmp_path, "d.json", runs(STEADY, STEADY, input_hash="x"))]) == 2
    assert compare.main([a, write(tmp_path, "e.json", runs(STEADY, STEADY, backend="numpy"))]) == 2
