import statistics

import pytest

from measure import SpanRecorder, percentile, self_time, spread, supported_percentile, tail


@pytest.mark.parametrize(
    "count, wanted, used",
    [
        (19, 95, 50),  # fewer than 10 beyond even the 75th
        (40, 95, 75),
        (100, 95, 90),  # exactly 10 beyond the 90th
        (199, 95, 90),
        (200, 95, 95),  # exactly 10 beyond the 95th
        (999, 99, 95),
        (1000, 99, 99),
        (5000, 95, 95),  # never above what was asked for
    ],
)
def test_percentile_needs_ten_samples_beyond(count, wanted, used):
    assert supported_percentile(count, wanted) == used


def test_tail_reports_the_percentile_it_used():
    samples = list(range(100))
    value, used = tail(samples, 95)
    assert used == 90
    assert value == pytest.approx(percentile(samples, 90))
    assert percentile(samples, 50) == pytest.approx(49.5)
    assert percentile([7.0], 95) == 7.0


def test_self_time_is_the_rung_minus_the_rung_below():
    assert self_time(1.0, 0.75) == (0.25, True)
    own, valid = self_time(1.0, 1.04)  # 4 % below zero: noise
    assert own == pytest.approx(-0.04) and valid
    own, valid = self_time(1.0, 1.06)  # 6 % below zero: not the same inputs
    assert own == pytest.approx(-0.06) and not valid


def test_spread_is_the_interquartile_share_of_the_median():
    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.7, 10.0, 10.3, 9.8, 10.05]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert spread([5.0]) == 0.0
    assert spread([4.0, 5.0, 6.0]) == pytest.approx(0.4)


def test_spans_nest_and_can_be_switched_off():
    recorder = SpanRecorder("w")
    with recorder.span("outer"):
        with recorder.span("inner", query="q1"):
            pass
    recorder.enabled = False
    with recorder.span("untraced"):
        pass
    outer, inner = recorder.spans
    assert (outer["name"], outer["parent"]) == ("outer", None)
    assert (inner["name"], inner["parent"], inner["query"]) == ("inner", outer["id"], "q1")
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    assert all(span["workload"] == "w" for span in recorder.spans)
