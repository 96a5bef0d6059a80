"""The five workloads: seeded inputs, the system each one starts, and the
load each one applies.

Everything below drives the system from outside through its public
functions.  The program receives only generated data — no size, name or
seed of a workload is visible to it.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from measure import clock
from oracle import TOP_HITS, hit_pairs

from repro.cluster import ScatterGatherRouter, ShardManager
from repro.sequences import Sequence, random_profile, standard_query_set
from repro.service import SearchClient, SearchService, WarmPool

#: Ids of every record the harness appends start with this, so a read
#: racing a swap can tell the mutator's records from the base database.
MUTATOR_PREFIX = "churn"
#: Record lengths are drawn once, from this seed, for every run: the run's
#: seed decides the residues (and so every score and hit list), while the
#: shape the timings depend on — residue count, longest record, padding,
#: shard cut — stays the same from seed to seed.
_LENGTH_SEED = 2014
_FRESH_BATCHES = 8
_FRESH_BATCH_SIZE = 32
#: Pause after every acknowledged swap in the churn workload.
_CHURN_PAUSE_S = 0.1
_CLIENT_TIMEOUT_S = 60.0


@dataclass
class Inputs:
    """Everything a run feeds the program, all derived from the seed."""

    database: object
    queries: list
    fresh: list[list]
    digest: str


@dataclass
class Samples:
    """What one timed window produced."""

    #: Client-side submit -> terminal reply, one per request.
    latencies_ms: list[float] = field(default_factory=list)
    #: ``(requests/s, cells/s)`` per batch, or per one-second slice of a
    #: request stream; medians of these are the throughput metrics.
    rates: list[tuple[float, float]] = field(default_factory=list)
    swaps_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _database(name: str, sequences: int, mean_length: int, seed: int):
    """``small_database``'s recipe with the length profile pinned."""
    profile = random_profile(
        name, sequences, mean_length,
        min_length=20, max_length=max(60, mean_length * 4), seed=_LENGTH_SEED,
    )
    return profile.materialize(seed=seed)


def build_inputs(workload: "Workload", seed: int, smoke: bool = False) -> Inputs:
    sequences, mean_length = workload.db
    count, scale = workload.queries
    if smoke:
        sequences, count = max(24, sequences // 10), min(count, 8)
    database = _database("db", sequences, mean_length, seed)
    queries = standard_query_set(count).scaled(scale).materialize(seed + 1)
    pool = _database("fresh", _FRESH_BATCHES * _FRESH_BATCH_SIZE, mean_length, seed + 2)
    fresh = [
        [
            Sequence(id=f"{MUTATOR_PREFIX}{b}_{i}", codes=s.codes, alphabet=s.alphabet)
            for i, s in enumerate(pool[b * _FRESH_BATCH_SIZE : (b + 1) * _FRESH_BATCH_SIZE])
        ]
        for b in range(_FRESH_BATCHES)
    ]
    digest = hashlib.sha256(database.fingerprint().encode())
    for s in list(queries) + [s for batch in fresh for s in batch]:
        digest.update(s.id.encode() + b"\0" + s.codes.tobytes() + b"\1")
    return Inputs(database, list(queries), fresh, digest.hexdigest())


# -- systems under test ------------------------------------------------


class PoolSystem:
    """An offline ``WarmPool``: one operation is one batch of all queries."""

    def __init__(self, inputs: Inputs, **pool_kwargs):
        self.queries = inputs.queries
        self.pool = WarmPool(inputs.database, top_hits=TOP_HITS, **pool_kwargs)

    def start(self) -> None:
        self.pool.start()

    def warm(self) -> None:
        self.pool.run_batch(self.queries)

    def lower_bound_gcups(self, kernel_gcups: float) -> float:
        """Sum of per-worker rates: the pool's own calibration when it
        ran one, the bare kernel rate of this run otherwise."""
        rates = self.pool.measured_gcups or {}
        return sum(rates.get(kind, kernel_gcups) for _, kind in self.pool.roster)

    def close(self) -> None:
        self.pool.close()


def reply_hits(reply: dict):
    """The hit list of a complete ``result`` reply; ``None`` for anything
    else (``rejected``, ``error``, a ``partial`` merge)."""
    if reply.get("type") == "result" and not reply.get("partial"):
        return reply.get("hits", [])
    return None


def _swapped(reply: dict) -> bool:
    return reply.get("type") == "db_info" and reply.get("swapped") is True


class Served:
    """Client side of a network-facing system: one admin connection for
    warm-up and the database verbs.  ``close`` is safe after a failed
    ``start``: callers always pair the two."""

    admin: SearchClient | None = None
    address = None

    def __init__(self, queries):
        self.queries = queries

    def connect(self, address) -> None:
        self.address = address
        self.admin = SearchClient(*address, timeout=_CLIENT_TIMEOUT_S).connect()

    def warm(self) -> None:
        self.admin.query(self.queries[0])

    def append(self, batch) -> bool:
        return _swapped(self.admin.db_append(batch))

    def retire(self, batch) -> bool:
        return _swapped(self.admin.db_retire([s.id for s in batch]))

    def fingerprint(self) -> str:
        return self.admin.db_info()["fingerprint"]

    def close(self) -> None:
        if self.admin is not None:
            self.admin.close()


class ServiceSystem(Served):
    """A resident ``SearchService`` on loopback, in the harness process."""

    def __init__(self, inputs: Inputs, **service_kwargs):
        super().__init__(inputs.queries)
        self.service = SearchService(inputs.database, top_hits=TOP_HITS, **service_kwargs)

    def start(self) -> None:
        self.service.start()
        self.connect(self.service.address)

    def lower_bound_gcups(self, kernel_gcups: float) -> float:
        return len(self.service.pool.roster) * kernel_gcups

    def close(self) -> None:
        super().close()
        self.service.shutdown()


class ClusterSystem(Served):
    """Shard services in child processes behind a scatter-gather router."""

    def __init__(self, inputs: Inputs, num_shards: int, **service_kwargs):
        super().__init__(inputs.queries)
        self.workers = num_shards * (
            service_kwargs["num_cpu_workers"] + service_kwargs["num_gpu_workers"]
        )
        self.manager = ShardManager(
            database=inputs.database,
            num_shards=num_shards,
            service_kwargs=dict(top_hits=TOP_HITS, **service_kwargs),
        )
        self.router = ScatterGatherRouter(self.manager, top_hits=TOP_HITS)

    def start(self) -> None:
        self.manager.start()
        self.router.start()
        self.connect(self.router.address)

    def lower_bound_gcups(self, kernel_gcups: float) -> float:
        return self.workers * kernel_gcups

    def close(self) -> None:
        super().close()
        self.router.shutdown()
        self.manager.close()


# -- load generators ---------------------------------------------------


def drive_batches(system: PoolSystem, inputs: Inputs, oracle, seconds: float) -> Samples:
    """Whole batches back to back until *seconds* have passed.

    A request is one query of a batch: its latency runs from the batch's
    submission to the moment ``on_result`` streams its hit list.
    """
    samples = Samples()
    queries = inputs.queries
    cells = sum(oracle.cells)
    deadline = clock() + seconds
    while True:
        arrivals: list[tuple[int, float, object]] = []
        started = clock()
        report = system.pool.run_batch(
            queries,
            on_result=lambda index, result, worker, elapsed: arrivals.append(
                (index, clock(), result)
            ),
        )
        wall = clock() - started
        samples.rates.append((len(queries) / wall, cells / wall))
        seen = set()
        for index, arrived, result in arrivals:
            seen.add(index)
            samples.latencies_ms.append((arrived - started) * 1e3)
            samples.check(
                oracle.matches(index, hit_pairs(result.hits)),
                f"batch result for query {index} differs from the oracle",
            )
        for index in set(range(len(queries))) - seen:
            samples.check(False, f"query {index} never reported a result")
        samples.check(not report.quarantined, f"quarantined: {report.quarantined}")
        if clock() >= deadline:
            return samples


def _reader(address, lane: int, lanes: int, in_flight: int, inputs, check, stop, events, samples, lock):
    """One closed-loop connection: keep *in_flight* requests outstanding,
    send the next only when a reply arrives, until *stop* is set."""
    queries = inputs.queries
    pending: dict[str, tuple[float, int]] = {}
    sent = 0
    local: list[tuple[float, float, int, bool]] = []
    error = None
    try:
        with SearchClient(*address, timeout=_CLIENT_TIMEOUT_S) as client:
            while True:
                while not stop.is_set() and len(pending) < in_flight:
                    index = (sent + lane * len(queries) // lanes) % len(queries)
                    request_id = f"c{lane}-{sent}"
                    pending[request_id] = (clock(), index)
                    client.submit(queries[index], id=request_id)
                    sent += 1
                if not pending:
                    break
                reply = client.collect(1)[0]
                done = clock()
                submitted, index = pending.pop(str(reply.get("id")))
                hits = reply_hits(reply)
                ok = hits is not None and check(index, hits)
                local.append((done, (done - submitted) * 1e3, index, ok))
    except (OSError, KeyError, ValueError) as exc:  # timeout, closed link, unknown id, bad line
        error = f"connection {lane} failed: {type(exc).__name__}: {exc}"
    with lock:
        events.extend(local)
        for _ in pending:
            samples.check(False, error or f"connection {lane}: request never answered")


def drive_requests(
    system,
    inputs: Inputs,
    oracle,
    seconds: float,
    connections: int = 1,
    in_flight: int = 1,
    churn: bool = False,
) -> Samples:
    """Closed-loop request stream for *seconds*; with *churn*, a second
    connection appends and retires records beside the reads."""
    samples = Samples()
    stop = threading.Event()
    events: list[tuple[float, float, int, bool]] = []
    lock = threading.Lock()
    if churn:
        def check(index, hits):
            return oracle.matches_beside_writes(index, hits, MUTATOR_PREFIX)
    else:
        check = oracle.matches
    threads = [
        threading.Thread(
            target=_reader,
            args=(system.address, lane, connections, in_flight, inputs, check, stop,
                  events, samples, lock),
            name=f"bench-reader-{lane}",
        )
        for lane in range(connections)
    ]
    started = clock()
    for thread in threads:
        thread.start()
    try:
        if churn:
            base = system.fingerprint()
            cycle = 0
            while clock() - started < seconds:
                batch = inputs.fresh[cycle % len(inputs.fresh)]
                for mutate in (system.append, system.retire):
                    begun = clock()
                    ok = mutate(batch)
                    samples.swaps_ms.append((clock() - begun) * 1e3)
                    samples.check(ok, f"{mutate.__name__} was not acknowledged as swapped")
                    time.sleep(_CHURN_PAUSE_S)
                cycle += 1
        else:
            time.sleep(seconds)
    finally:
        stopped = clock()
        stop.set()
        for thread in threads:
            thread.join(timeout=_CLIENT_TIMEOUT_S + 5)
            samples.check(not thread.is_alive(), f"{thread.name} did not finish")
    if churn:
        samples.check(
            system.fingerprint() == base,
            "database fingerprint after the last retire differs from the initial one",
        )
    for done, latency_ms, index, ok in events:
        samples.latencies_ms.append(latency_ms)
        samples.check(ok, f"reply for query {index} differs from the oracle")
    # Throughput per one-second slice of the window, correct replies only.
    slices = max(1, int(stopped - started))
    width = (stopped - started) / slices
    counts = [[0, 0] for _ in range(slices)]
    for done, _, index, ok in events:
        if ok and done < stopped:
            bucket = counts[min(slices - 1, int((done - started) / width))]
            bucket[0] += 1
            bucket[1] += oracle.cells[index]
    samples.rates = [(n / width, cells / width) for n, cells in counts]
    return samples


# -- the workload table ------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: (sequences, mean length) of ``small_database``.
    db: tuple[int, int]
    #: (count, scale) of ``standard_query_set(count).scaled(scale)``.
    queries: tuple[int, float]
    system: Callable[[Inputs], object]
    drive: Callable[..., Samples]
    #: Worker processes/threads the system runs, recorded with the result.
    workers: dict
    #: The highest rung of the ladder this workload's own path reaches.
    top_rung: str


_SHARD = dict(num_cpu_workers=1, num_gpu_workers=0, backend="threads", policy="self")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="batch_scan",
            why="offline exact scan on the process transport, shm plane and chunk "
            "dispatch: kernel- and packing-bound, so request-path gains do not show",
            db=(2000, 350),
            queries=(24, 0.01),
            system=lambda inputs: PoolSystem(
                inputs, backend="processes", data_plane="shm", dispatch="chunk",
                policy="self", num_cpu_workers=2, num_gpu_workers=0,
            ),
            drive=drive_batches,
            workers={"cpu": 2, "gpu": 0},
            top_rung="procpool",
        ),
        Workload(
            name="hybrid_sched",
            why="the paper's case: calibrated dual-approximation allocation over one cpu-role "
            "and one gpu-role worker, so allocation quality and the wavefront kernel decide",
            db=(600, 100),
            queries=(24, 0.08),
            system=lambda inputs: PoolSystem(
                inputs, backend="threads", policy="swdual-dp", calibrate=True,
                num_cpu_workers=1, num_gpu_workers=1,
            ),
            drive=drive_batches,
            workers={"cpu": 1, "gpu": 1},
            top_rung="pool",
        ),
        Workload(
            name="serve_short",
            why="short queries against a resident service, 2 connections x 4 in flight: "
            "most of a request is above the kernel (JSON, socket, admission, batching)",
            db=(64, 100),
            queries=(64, 0.02),
            system=lambda inputs: ServiceSystem(
                inputs, backend="threads", policy="self",
                num_cpu_workers=2, num_gpu_workers=0,
            ),
            drive=partial(drive_requests, connections=2, in_flight=4),
            workers={"cpu": 2, "gpu": 0},
            top_rung="service",
        ),
        Workload(
            name="serve_churn",
            why="reads beside db_append/db_retire swaps: every swap repacks and evicts "
            "the memos, so caching more or packing slower pays here",
            db=(2000, 100),
            queries=(16, 0.02),
            system=lambda inputs: ServiceSystem(
                inputs, backend="threads", policy="self",
                num_cpu_workers=1, num_gpu_workers=0,
            ),
            drive=partial(drive_requests, connections=1, in_flight=1, churn=True),
            workers={"cpu": 1, "gpu": 0},
            top_rung="service",
        ),
        Workload(
            name="cluster_fanout",
            why="two shard processes behind the scatter-gather router, one request at a time: "
            "fan-out, per-shard links and top-k merge; bypasses chunk dispatch and the allocator",
            db=(400, 150),
            queries=(64, 0.04),
            system=lambda inputs: ClusterSystem(inputs, num_shards=2, **_SHARD),
            drive=partial(drive_requests, connections=1, in_flight=1),
            workers={"cpu": 2, "gpu": 0, "shards": 2},
            top_rung="router2",
        ),
    )
}
