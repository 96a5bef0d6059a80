"""The traced run: one set of seeded inputs pushed through every layer
boundary in turn.

Rungs stand on each other like this (a rung's ``*_self_*`` metric is its
time minus the rung it stands on, both taken on identical queries, one
query per call, one worker)::

    kernel  <- worker <- pool (threads) <- service <- router/1 shard
                      <- procpool (processes, shm, chunk)

The service rung talks straight to the one shard process the router/1
rung fans out to, so the two differ by the router and nothing else.

The rungs of the chain are all started first and then timed in rounds —
one pass of every rung per round, the best pass of each kept — so a noisy
spell on a shared box inflates neighbouring rungs alike instead of making
one rung look faster than the one it stands on.

Side rungs that are not part of a self-time chain: the wavefront kernel,
query profiles, packing/sharing/mutating the database, calibration, the
allocator with a calibrated 1 cpu + 1 gpu pool, a churn spell on the
service rung, and the router over two shards.

The ladder sees only data (a database, queries, fresh records); the one
thing a workload contributes besides its inputs is the name of its top
rung, on which the cost of the harness's own span recording is measured.
"""

from __future__ import annotations

import contextlib

from measure import clock, median, percentile, self_time
from oracle import TOP_HITS, hit_pairs
from workloads import (
    ClusterSystem,
    Inputs,
    Samples,
    Served,
    drive_requests,
    reply_hits,
)

from repro.align import QueryProfile, sw_score_packed, sw_score_wavefront_packed
from repro.core import SWDualScheduler, TaskSet
from repro.engine import (
    KernelWorker,
    QueryResult,
    Hit,
    calibrate_live,
    merge_query_results,
    predict_static_allocation,
)
from repro.sequences import (
    PackedDatabase,
    SequenceDatabase,
    apply_append,
    apply_retire,
)
from repro.sequences.shm import attach_packed, share_packed
from repro.service import WarmPool, decode_message, encode_message

#: DP cells one pass over the ladder's queries may cost; the ladder uses
#: the longest prefix of the workload's queries that fits.
LADDER_CELLS = 150_000_000
#: Same for the (far slower) numpy wavefront kernel.
WAVEFRONT_CELLS = 4_000_000
#: ``calibrate_live`` probes the longest record against the whole
#: database with both kernels; databases beyond this many probe cells
#: are calibrated on a leading sample of their records instead.
CALIBRATION_CELLS = 25_000_000
#: Shares of ``--seconds``: the chain's rounds, and each of the two side
#: rungs that are timed by repeated passes (wavefront, hybrid pool).
_CHAIN_SHARE = 0.7
_SIDE_SHARE = 0.1
_MIN_PASSES = 3
_MAX_PASSES = 200
_CHURN_SECONDS = 1.0
#: The allocation policy of the hybrid workload ("3/2dp" in core's terms).
_ALLOCATOR = "swdual-dp"
_ONE_CPU = dict(num_cpu_workers=1, num_gpu_workers=0, backend="threads", policy="self")


def _prefix(cells: list[int], budget: int) -> int:
    """Length of the longest prefix of *cells* within *budget* (>= 1)."""
    total = count = 0
    for c in cells:
        if count and total + c > budget:
            break
        total += c
        count += 1
    return count


def calibration_sample(database) -> SequenceDatabase:
    """Leading records of *database* whose calibration probe (longest
    record x residues) stays within :data:`CALIBRATION_CELLS`."""
    longest = residues = 0
    kept = []
    for record in database:
        longest = max(longest, len(record))
        residues += len(record)
        if kept and longest * residues > CALIBRATION_CELLS:
            break
        kept.append(record)
    if len(kept) == len(database):
        return database
    return SequenceDatabase(database.name, kept)


class Ladder:
    def __init__(self, inputs: Inputs, oracle, top_rung: str, seconds: float, recorder):
        count = _prefix(oracle.cells, LADDER_CELLS)
        self.inputs = Inputs(inputs.database, inputs.queries[:count], inputs.fresh, inputs.digest)
        self.database = inputs.database
        self.queries = self.inputs.queries
        self.cells = sum(oracle.cells[:count])
        self.oracle = oracle
        self.scheme = oracle.scheme
        self.top_rung = top_rung
        self.seconds = seconds
        self.recorder = recorder
        self.samples = Samples()
        self.metrics: dict[str, tuple[float, int]] = {}
        self.packed = PackedDatabase.from_database(inputs.database)

    # -- plumbing --------------------------------------------------------

    def put(self, name: str, value: float, samples: int = 1) -> None:
        self.metrics[name] = (float(value), samples)

    def get(self, name: str) -> float:
        return self.metrics[name][0]

    def check(self, hit_lists, rung: str) -> None:
        for index, hits in enumerate(hit_lists):
            self.samples.check(
                hits is not None and self.oracle.matches(index, hits),
                f"{rung}: answer for query {index} differs from the oracle",
            )

    def _time(self, rung: str, one_pass) -> float:
        with self.recorder.span(f"pass.{rung}"):
            begun = clock()
            one_pass()
            return clock() - begun

    def passes(self, rung: str, one_pass) -> tuple[float, int]:
        """Best wall of repeated passes of a side rung (noise only adds)."""
        walls: list[float] = []
        started = clock()
        while len(walls) < _MIN_PASSES or (
            clock() - started < self.seconds * _SIDE_SHARE and len(walls) < _MAX_PASSES
        ):
            walls.append(self._time(rung, one_pass))
        return min(walls), len(walls)

    def rounds(self, chain: dict) -> tuple[dict[str, float], int]:
        """Best wall per rung over interleaved rounds of the whole chain.

        In every round the workload's top rung is also passed once with
        span recording off; the difference is the tracing overhead.
        """
        walls: dict[str, list[float]] = {rung: [] for rung in chain}
        untraced: list[float] = []
        started = clock()
        done = 0
        while done < _MIN_PASSES or (
            clock() - started < self.seconds * _CHAIN_SHARE and done < _MAX_PASSES
        ):
            for rung, one_pass in chain.items():
                walls[rung].append(self._time(rung, one_pass))
            self.recorder.enabled = False
            try:
                untraced.append(self._time(self.top_rung, chain[self.top_rung]))
            finally:
                self.recorder.enabled = True
            done += 1
        traced = min(walls[self.top_rung])
        self.put(
            "harness.trace_overhead_pct", (traced - min(untraced)) / min(untraced) * 100.0, done
        )
        return {rung: min(times) for rung, times in walls.items()}, done

    def put_self(self, name: str, rung: float, below: float, samples: int) -> None:
        """Record a rung's self time; one that breaks the ladder rule is
        a failed operation (and is still reported, so it can be read)."""
        own, valid = self_time(rung, below)
        self.samples.check(valid, f"{name}: self time {own:.6g} of a {rung:.6g} rung")
        self.put(name, own, samples)

    def timed(self, name: str, call, repeats: int = 3):
        """Median seconds of *repeats* calls; returns ``(seconds, last result)``."""
        walls = []
        for _ in range(repeats):
            with self.recorder.span(name):
                begun = clock()
                result = call()
                walls.append(clock() - begun)
        return median(walls), result

    # -- rungs -----------------------------------------------------------

    def run(self) -> None:
        with self.recorder.span("ladder", queries=len(self.queries), cells=self.cells):
            self.sequences()
            self.align()
            self.core()
            self.chain()

    def sequences(self) -> None:
        seconds, packed = self.timed(
            "sequences.pack", lambda: PackedDatabase.from_database(self.database)
        )
        self.put("sequences.pack_s", seconds, 3)
        self.put("sequences.chunks", len(packed.chunks))
        self.put("sequences.pack_efficiency", packed.pack_efficiency)

        shares, attaches = [], []
        for _ in range(3):
            with self.recorder.span("sequences.share_packed"):
                begun = clock()
                arena = share_packed(packed)
                shares.append(clock() - begun)
            try:
                with self.recorder.span("sequences.attach_packed"):
                    begun = clock()
                    attached, _view = attach_packed(arena.manifest)
                    attaches.append(clock() - begun)
                attached.close()
            finally:
                arena.close()
        self.put("sequences.shm_share_s", median(shares), 3)
        self.put("sequences.shm_attach_s", median(attaches), 3)

        batch = self.inputs.fresh[0]
        seconds, restored = self.timed(
            "sequences.mutate",
            lambda: apply_retire(apply_append(self.database, batch), [s.id for s in batch]),
        )
        self.put("sequences.mutate_s", seconds, 3)
        self.samples.check(
            restored.fingerprint() == self.database.fingerprint(),
            "append followed by retire did not restore the database fingerprint",
        )

    def align(self) -> None:
        self.put("align.cells", self.cells)
        few = _prefix(self.oracle.cells[: len(self.queries)], WAVEFRONT_CELLS)

        def wavefront_pass():
            for query in self.queries[:few]:
                with self.recorder.span("align.sw_score_wavefront_packed", query=query.id):
                    sw_score_wavefront_packed(query, self.packed, self.scheme)

        seconds, count = self.passes("wavefront", wavefront_pass)
        self.put("align.wavefront_s", seconds, count)
        self.put(
            "align.wavefront_gcups", sum(self.oracle.cells[:few]) / seconds / 1e9, count
        )

        builds = []
        for _ in range(3):
            for query in self.queries:
                begun = clock()
                QueryProfile(query, self.scheme)
                builds.append((clock() - begun) * 1e6)
        self.put("align.profile_us", median(builds), len(builds))

    def core(self) -> None:
        sample = calibration_sample(self.database)
        with self.recorder.span("engine.calibrate_live", records=len(sample)):
            begun = clock()
            rates = calibrate_live(sample, self.scheme, use_cache=False)
            self.put("engine.calibrate_s", clock() - begun)

        roster = [("cpu0", "cpu"), ("gpu0", "gpu")]
        residues = self.database.total_residues
        seconds, _ = self.timed(
            "core.predict_static_allocation",
            lambda: predict_static_allocation(self.queries, residues, roster, _ALLOCATOR, rates),
            repeats=5,
        )
        self.put("core.alloc_s", seconds, 5)
        lengths = [len(q) for q in self.queries]
        plan = SWDualScheduler("3/2dp").schedule_tasks(
            TaskSet(
                cpu_times=[n * residues / (rates["cpu"] * 1e9) for n in lengths],
                gpu_times=[n * residues / (rates["gpu"] * 1e9) for n in lengths],
                query_ids=[q.id for q in self.queries],
                query_lengths=lengths,
                db_residues=residues,
            ),
            1,
            1,
        )
        self.put("core.lambda_guesses", plan.result.iterations)
        self.put("core.predicted_makespan_s", plan.makespan)

        # The allocator's plan against what a calibrated 1 cpu + 1 gpu
        # pool actually takes for the same batch.
        reports = []
        with WarmPool(
            self.database, num_cpu_workers=1, num_gpu_workers=1, backend="threads",
            policy=_ALLOCATOR, measured_gcups=rates, top_hits=TOP_HITS,
        ) as pool:
            def hybrid_pass():
                with self.recorder.span("service.WarmPool.run_batch", roster="1cpu+1gpu"):
                    reports.append(pool.run_batch(self.queries))

            measured, count = self.passes("hybrid", hybrid_pass)
        report = reports[-1]
        self.check([hit_pairs(r.hits) for r in report.query_results], "hybrid pool")
        self.put("core.predicted_over_measured", plan.makespan / measured, count)
        # Shares of the batch wall, not seconds: a class the allocator
        # leaves empty is then a plain 0 ratio.
        busy = {"cpu": 0.0, "gpu": 0.0}
        for worker in report.worker_stats:
            busy[worker.kind] += worker.busy_seconds / report.wall_seconds
        self.put("engine.busy_share.cpu", busy["cpu"])
        self.put("engine.busy_share.gpu", busy["gpu"])
        self.put("engine.idle_share", 1.0 - sum(busy.values()) / len(report.worker_stats))

    def chain(self) -> None:
        """Start every rung of the chain, time them in rounds, then take
        the side measurements that need the running service and cluster."""
        n = len(self.queries)
        worker = KernelWorker(
            "cpu0", "cpu", self.database, self.scheme, packed=self.packed, top_hits=TOP_HITS
        )
        answers: dict[str, list] = {}
        reports: list = []

        def kernel_pass():
            for query in self.queries:
                with self.recorder.span("align.sw_score_packed", query=query.id):
                    sw_score_packed(query, self.packed, self.scheme)

        def worker_pass():
            answers["worker"] = []
            for query in self.queries:
                with self.recorder.span("engine.KernelWorker.execute", query=query.id):
                    answers["worker"].append(hit_pairs(worker.execute(query).result.hits))

        def pool_pass(rung, pool):
            def one_pass():
                reports.clear()
                for query in self.queries:
                    with self.recorder.span("service.WarmPool.run_batch", query=query.id):
                        reports.append(pool.run_batch([query]))
                answers[rung] = [hit_pairs(r.query_results[0].hits) for r in reports]
            return one_pass

        def request_pass(rung, system):
            def one_pass():
                replies[rung] = []
                for query in self.queries:
                    with self.recorder.span("service.SearchClient.query", via=rung, query=query.id):
                        replies[rung].append(system.admin.query(query))
                answers[rung] = [reply_hits(r) for r in replies[rung]]
            return one_pass

        replies: dict[str, list] = {}
        with contextlib.ExitStack() as stack:
            def started(system):
                stack.callback(system.close)
                system.start()
                system.warm()
                return system

            pool = stack.enter_context(WarmPool(self.database, top_hits=TOP_HITS, **_ONE_CPU))
            procpool = stack.enter_context(
                WarmPool(
                    self.database, top_hits=TOP_HITS, num_cpu_workers=1, num_gpu_workers=0,
                    backend="processes", data_plane="shm", dispatch="chunk", policy="self",
                )
            )
            procpool.run_batch(self.queries[:1])  # worker attaches and loads its kernels
            router1 = started(ClusterSystem(self.inputs, num_shards=1, **_ONE_CPU))
            service = Served(self.queries)  # the same shard, without the router
            stack.callback(service.close)
            service.connect(router1.manager.endpoints()["shard0"].address)
            with self.recorder.span("cluster.start", shards=2):
                begun = clock()
                router2 = started(ClusterSystem(self.inputs, num_shards=2, **_ONE_CPU))
                self.put("cluster.start_s", clock() - begun)

            best, count = self.rounds(
                {
                    "kernel": kernel_pass,
                    "worker": worker_pass,
                    "pool": pool_pass("pool", pool),
                    # Last of the two pools, so ``reports`` ends on its counters.
                    "procpool": pool_pass("procpool", procpool),
                    "service": request_pass("service", service),
                    "router1": request_pass("router1", router1),
                    "router2": request_pass("router2", router2),
                }
            )
            for rung, hit_lists in answers.items():
                self.check(hit_lists, rung)

            self.put("align.kernel_s", best["kernel"], count)
            self.put("align.kernel_gcups", self.cells / best["kernel"] / 1e9, count)
            padded = sum(len(q) for q in self.queries) * self.packed.padded_cells
            self.put("align.padded_gcups", padded / best["kernel"] / 1e9, count)
            self.put("engine.worker_s", best["worker"], count)
            self.put_self("engine.worker_self_s", best["worker"], best["kernel"], count)
            self.put("service.pool_batch_s", best["pool"], count)
            self.put_self("service.pool_self_s", best["pool"], best["worker"], count)
            self.put("engine.procpool_batch_s", best["procpool"], count)
            self.put_self("engine.procpool_self_s", best["procpool"], best["worker"], count)
            stats = [w for r in reports for w in r.worker_stats]
            self.put("engine.subtasks", sum(w.subtasks for w in stats))
            self.put("engine.steals", sum(w.steals for w in stats))
            recovery = procpool.recovery.counts()
            self.put("engine.retries", recovery.get("retry", 0) + recovery.get("requeue", 0))
            per_request = {rung: best[rung] / n * 1e3 for rung in ("pool", "service", "router1")}
            self.put("service.request_ms", per_request["service"], count)
            self.put_self(
                "service.request_self_ms", per_request["service"], per_request["pool"], count
            )
            self.put("cluster.router1_ms", per_request["router1"], count)
            self.put_self(
                "cluster.router_self_ms", per_request["router1"], per_request["service"], count
            )
            # Base: the same requests through the router over one shard.
            self.put("cluster.shard_speedup", best["router1"] / best["router2"], count)

            self._service_extras(service, replies["service"][-1])
            self._cluster_extras(router2)

    def _service_extras(self, system, recorded_reply: dict) -> None:
        n = len(self.queries)
        # Pipelined: every query in flight at once, so the admission
        # queue and the micro-batcher have something to do.
        client = system.admin
        latencies = []
        for _ in range(_MIN_PASSES):
            with self.recorder.span("service.pipelined", requests=n):
                sent = {client.submit(q, id=f"p{i}"): clock() for i, q in enumerate(self.queries)}
                for reply in client.collect(n):
                    latencies.append((clock() - sent[str(reply.get("id"))]) * 1e3)
                    index = int(str(reply.get("id"))[1:])
                    hits = reply_hits(reply)
                    self.samples.check(
                        hits is not None and self.oracle.matches(index, hits),
                        f"pipelined service reply for query {index} differs from the oracle",
                    )
        self.put("service.latency_p99_ms", percentile(latencies, 99), len(latencies))
        stats = client.stats()
        self.put("service.queue_wait_p50_ms", stats["queue_wait"]["p50_s"] * 1e3)
        self.put("service.batch_size_mean", stats["batches"]["mean_size"])
        self.put("service.rejected", stats["requests"]["rejected"])
        self.put("service.errors", stats["requests"]["errors"])

        codec = []
        for _ in range(200):
            begun = clock()
            decode_message(encode_message(recorded_reply))
            codec.append((clock() - begun) * 1e6)
        self.put("service.codec_us", median(codec), len(codec))

        with self.recorder.span("service.churn", seconds=_CHURN_SECONDS):
            churn = drive_requests(system, self.inputs, self.oracle, _CHURN_SECONDS, churn=True)
        self.samples.attempted += churn.attempted
        self.samples.failures += churn.failures
        self.put("service.swap_p50_ms", median(churn.swaps_ms), len(churn.swaps_ms))
        self.put("service.swap_p90_ms", percentile(churn.swaps_ms, 90), len(churn.swaps_ms))
        self.put(
            "service.swap_barrier_ms",
            median(churn.swaps_ms)
            - (self.get("sequences.mutate_s") + self.get("sequences.pack_s")) * 1e3,
            len(churn.swaps_ms),
        )
        self.put("service.read_stall_max_ms", max(churn.latencies_ms), len(churn.latencies_ms))

    def _cluster_extras(self, system) -> None:
        self._merge(system)
        stats = system.admin.stats()
        requests = stats["requests"]
        self.put(
            "cluster.partial_share",
            requests["partial"] / max(1, requests["completed"]),
            requests["completed"],
        )
        self.put("cluster.shards_failed", sum(s["failures"] for s in stats["shards"].values()))

    def _merge(self, system) -> None:
        """Time ``merge_query_results`` on the per-shard partials of one
        query, as recorded from the router's streaming mode."""
        client = system.admin
        request_id = client.submit(self.queries[-1], id="merge", stream=True)
        parts = [
            QueryResult("merge", tuple(Hit(subject, score) for subject, score in m["hits"]))
            for m in client.collect_stream(request_id)
            if m.get("type") == "partial"
        ]
        self.samples.check(len(parts) == 2, f"expected 2 streamed partials, got {len(parts)}")
        merges = []
        for _ in range(200):
            begun = clock()
            merge_query_results(parts, top=TOP_HITS)
            merges.append((clock() - begun) * 1e6)
        self.put("cluster.merge_us", median(merges), len(merges))
