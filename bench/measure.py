"""Measurement helpers shared by the harness, the ladder and compare.py.

Nothing here imports ``repro``: percentiles, spreads, the span recorder,
the ladder's self-time rule, process hygiene and RSS are plain stdlib so
``compare.py`` and the unit tests run without the system under test.
"""

from __future__ import annotations

import contextlib
import glob
import json
import os
import resource
import statistics
import time

clock = time.perf_counter

#: A percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10
_PERCENTILE_LADDER = (99, 95, 90, 75, 50)


def percentile(samples, pct: float) -> float:
    """Linear-interpolated percentile of *samples* (0 <= pct <= 100)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def supported_percentile(count: int, wanted: int) -> int:
    """The highest percentile <= *wanted* that *count* samples support.

    A percentile is supported when at least :data:`MIN_SAMPLES_BEYOND`
    samples lie beyond it; the median is the floor.
    """
    for pct in _PERCENTILE_LADDER:
        if pct <= wanted and count * (100 - pct) / 100.0 >= MIN_SAMPLES_BEYOND:
            return pct
    return 50


def tail(samples, wanted: int) -> tuple[float, int]:
    """``(value, percentile_used)``: the *wanted* percentile, stepped
    down to the highest one the sample count supports."""
    used = supported_percentile(len(samples), wanted)
    return percentile(samples, used), used


def median(samples) -> float:
    return float(statistics.median(samples))


def spread(values) -> float:
    """Inter-quartile distance as a share of the median — the steadiness
    measure the benchmark contract uses.  With fewer than four values
    the range stands in for the quartiles; one value has no spread."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    mid = statistics.median(values)
    if mid == 0:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(mid)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(mid)


#: How far below zero a rung's self time may fall, as a share of the rung.
SELF_TIME_TOLERANCE = 0.05


def self_time(rung: float, below: float) -> tuple[float, bool]:
    """``(self time, valid)`` of a rung standing on the rung *below*.

    Slightly negative values are measurement noise; one beyond
    ``-SELF_TIME_TOLERANCE * rung`` means the two rungs were not run on
    identical inputs or rosters, which invalidates the ladder."""
    own = rung - below
    return own, own >= -SELF_TIME_TOLERANCE * rung


class SpanRecorder:
    """In-memory spans recorded by the harness around calls into a layer.

    The ladder runs on one thread, so the parent is simply the innermost
    open span.  ``enabled`` switches recording off for the untraced
    passes the trace-overhead figure is taken from.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.enabled = True
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        record = {
            "id": index,
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "start": clock(),
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record["end"] = clock()
            self._open.pop()

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"workload": self.workload, "spans": self.spans}, handle)


def peak_rss_mb() -> float:
    """Peak resident set of the harness plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def leaked_segments() -> list[str]:
    """Shared-memory segments the system under test left behind."""
    return sorted(glob.glob("/dev/shm/swdual*"))


def live_children() -> list[str]:
    """Child processes of the harness that are still alive.

    The stdlib's multiprocessing resource tracker is infrastructure that
    lives as long as its parent; everything else must be gone once a
    workload has been torn down.
    """
    me = str(os.getpid())
    alive = []
    for stat_path in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat_path) as handle:
                stat = handle.read()
            # pid (comm) state ppid ...; comm may contain spaces.
            state, ppid = stat.rsplit(")", 1)[1].split()[:2]
            if ppid != me or state == "Z":
                continue
            pid = stat_path.split("/")[2]
            with open(f"/proc/{pid}/cmdline") as handle:
                cmdline = handle.read().replace("\0", " ").strip()
        except (OSError, IndexError, ValueError):
            continue
        if "resource_tracker" not in cmdline:
            alive.append(f"{pid}: {cmdline}")
    return alive


def hygiene_failures(before=(), settle_s: float = 2.0) -> list[str]:
    """Leak check run after a workload's tear-down; each returned line is
    one failed operation.  Segments listed in *before* (there when the
    workload started) belong to someone else; exiting children get
    *settle_s* to be reaped."""
    deadline = clock() + settle_s
    while clock() < deadline and live_children():
        time.sleep(0.05)
    failures = [
        f"leaked shm segment {path}" for path in leaked_segments() if path not in before
    ]
    failures += [f"surviving child process {child}" for child in live_children()]
    return failures
