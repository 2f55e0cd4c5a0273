"""What is genuinely scenario-specific about each ``repro bench`` drill.

Everything shared — corpus, probe set, the three-phase loop, baseline
comparison, rendering, gates, exit code, artefact — is
:mod:`repro.bench.runner`'s; a drill here only stands its deployment up,
does the one thing that makes it that scenario (the WAL ablation matrix,
the reader/mutator storm, kill-every-primary, the recovery race, the
1-vs-N worker sweep) and records gates plus ``wall`` / ``modeled``
numbers on the :class:`~repro.bench.runner.Run`.

Throughput in the ``modeled`` blocks is the repository's simulated-cost
currency: shards are independent deployments, so a cluster sustains
``queries / busy-time-of-the-busiest-shard``.  A single python process
cannot show the wall-clock parallelism of N machines, which is why those
ratios are reported and never gate; ``benchmarks/perf`` measures the
wall clock.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, List, Sequence

from repro.api import DeploymentSpec, RequestOptions, connect
from repro.bench.runner import PHASES, Mutation, PhaseRun, Run, fingerprints, run_phases
from repro.core.smartstore import SmartStore
from repro.ingest.compactor import CompactionPolicy
from repro.ingest.pipeline import IngestPipeline, recover, recover_from_storage
from repro.ingest.wal import WriteAheadLog
from repro.replication.fault import FaultInjector
from repro.replication.group import ReplicationConfig
from repro.server.worker import build_process_router
from repro.service import LoadGenerator, QueryService, ServiceConfig, repeated_stream
from repro.service.cache import result_fingerprint
from repro.shard.build import build_router
from repro.shard.load import PartitionLoad
from repro.shard.reshard import ReshardController
from repro.shard.router import ShardRouter
from repro.storage.store import SegmentStore

# ---------------------------------------------------------------------------- serve
SERVE_REPEAT = 4            # how often the unique workload recurs in the stream
SERVE_WORKERS = 4
SERVE_BATCH_WINDOW = 16
SERVE_GATE = "all results identical to serial baseline"
#: (label, result cache on, batcher on)
SERVE_CONFIGURATIONS = (
    ("service (cache + batching)", True, True),
    ("service (cache only)", True, False),
    ("service (batching only)", False, True),
    ("service (neither)", False, False),
)


def serve(run: Run) -> None:
    """The query service with cache and batcher ablated, against serial
    ``store.execute`` over a repeated-query stream (open loop)."""
    points, mix = run.probes()
    seed = run.size.seed
    stream = repeated_stream(points + mix, SERVE_REPEAT, seed=seed)
    run.config.update(requests=len(stream), repeat=SERVE_REPEAT, workers=SERVE_WORKERS)

    store = run.baseline()
    started = time.perf_counter()
    serial = [store.execute(q) for q in stream]
    serial_wall = time.perf_counter() - started
    reference = [result_fingerprint(r) for r in serial]

    rows: List[Dict[str, Any]] = [
        {"configuration": "serial uncached", "wall_s": serial_wall,
         "qps": len(stream) / serial_wall, "cache_hit_rate": None, "identical": True}
    ]
    for label, cache_on, batching_on in SERVE_CONFIGURATIONS:
        config = ServiceConfig(
            max_workers=SERVE_WORKERS,
            batch_window=SERVE_BATCH_WINDOW,
            cache_enabled=cache_on,
            batching_enabled=batching_on,
            seed=seed,
        )
        with QueryService(run.baseline(), config) as service:
            report = LoadGenerator(service, seed=seed).open_loop(stream)
            rows.append(
                {
                    "configuration": label,
                    "wall_s": report.wall_seconds,
                    "qps": report.achieved_qps,
                    "cache_hit_rate": service.cache.stats.hit_rate
                    if service.cache is not None
                    else None,
                    "identical": [result_fingerprint(r) for r in report.results]
                    == reference,
                }
            )
            if cache_on and batching_on:
                headers = ("query type", "requests", "engine", "cache", "coalesced",
                           "mean (ms)", "p50 (ms)", "p95 (ms)", "p99 (ms)")
                run.modeled["service latency (cache + batching)"] = [
                    dict(zip(headers, row)) for row in service.telemetry.report_rows()
                ]
    run.wall["configurations"] = rows
    run.gate(SERVE_GATE, all(row["identical"] for row in rows))


# ---------------------------------------------------------------------------- ingest
INGEST_FSYNC_BATCH = 16     # records per fsync in the batched-WAL configurations
INGEST_COMPACT_THRESHOLD = 24
INGEST_GATES = ("crash recovery identical", "drain == fresh build")
#: The WAL ablation matrix: (label, fsync_every or None = no WAL, compaction on).
INGEST_CONFIGURATIONS = (
    ("wal fsync/record + compaction", 1, True),
    (f"wal fsync/{INGEST_FSYNC_BATCH} + compaction", INGEST_FSYNC_BATCH, True),
    (f"wal fsync/{INGEST_FSYNC_BATCH}, no compaction", INGEST_FSYNC_BATCH, False),
    ("no wal (volatile) + compaction", None, True),
)
#: The configuration the gates run on: batched WAL with compaction, the
#: recommended production setting.
INGEST_GATED = 1


def ingest(run: Run) -> None:
    """The durable write path under the WAL ablation matrix, then crash
    recovery and drain equivalence on the batched-WAL configuration.

    Policy-driven compaction runs after each mutation in the compaction
    configurations (the service's ``auto_compact`` discipline).
    """
    stream = run.mutation_stream()
    policy = CompactionPolicy(
        max_staged_per_group=INGEST_COMPACT_THRESHOLD,
        max_staged_total=8 * INGEST_COMPACT_THRESHOLD,
    )
    run.config.update(fsync_batch=INGEST_FSYNC_BATCH, compact_threshold=INGEST_COMPACT_THRESHOLD)
    rows: List[Dict[str, Any]] = []
    for i, (label, fsync_every, compact_on) in enumerate(INGEST_CONFIGURATIONS):
        store = run.baseline()
        wal_path = run.workdir / f"wal-{i}.jsonl"
        wal = (
            WriteAheadLog(wal_path, fsync_every=fsync_every)
            if fsync_every is not None
            else None
        )
        pipeline = IngestPipeline(store, wal, policy=policy)
        checkpoint_dir = run.workdir / f"ckpt-{i}"
        if wal is not None:
            pipeline.checkpoint(checkpoint_dir)

        started = time.perf_counter()
        for kind, file in stream:
            getattr(pipeline, kind)(file)
            if compact_on:
                pipeline.compactor.run_once()
        wall = time.perf_counter() - started
        rows.append(
            {
                "configuration": label,
                "wall_s": wall,
                "mutations_per_s": len(stream) / wall if wall > 0 else 0.0,
                "fsyncs": wal.syncs if wal is not None else None,
                "compactions": pipeline.compactor.stats.group_compactions,
                "staged_left": len(pipeline.overlay),
            }
        )

        if i == INGEST_GATED:
            points, mix = run.probes(files=pipeline.materialized_files())
            probes = points + mix
            live = fingerprints(store, probes)
            pipeline.close()
            recovered = recover(checkpoint_dir, wal_path=wal_path)
            run.gate("crash recovery identical", fingerprints(recovered.store, probes) == live)
            recovered.compactor.drain()
            fresh = SmartStore.build(recovered.materialized_files(), run.store_config)
            run.gate(
                "drain == fresh build",
                fingerprints(recovered.store, probes) == fingerprints(fresh, probes),
            )
            recovered.close()
        else:
            pipeline.close()
    run.wall["configurations"] = rows


# ---------------------------------------------------------------------------- shard
SHARD_COUNTS = (1, 4)
SHARD_GATES = tuple(
    f"{n} shard(s): {phase} identical" for n in SHARD_COUNTS for phase in PHASES
)


def _scatter(phase_run: PhaseRun, n_queries: int) -> Dict[str, Any]:
    """The modeled scatter-gather figures of one phase run."""
    makespan = max(phase_run.busy)
    return {
        "busy_makespan_s": makespan,
        "scatter_qps": n_queries / makespan if makespan > 0 else 0.0,
    }


def shard(run: Run) -> None:
    """1 vs 4 shards behind the scatter-gather router over one unit
    budget, every phase fingerprint-gated against the unsharded baseline."""
    points, mix = run.probes()
    mutations = run.mutation_stream()
    _, reference = run.reference(points, mix, mutations)
    run.config.update(shards=list(SHARD_COUNTS), partitioner="semantic")

    wall_rows: List[Dict[str, Any]] = []
    modeled_rows: List[Dict[str, Any]] = []
    for count in SHARD_COUNTS:
        started = time.perf_counter()
        router = build_router(run.files, count, run.store_config)
        build_seconds = time.perf_counter() - started
        try:
            got = run_phases(router, router, points, mix, mutations)
            identical = run.gate_phases(f"{count} shard(s)", got, reference)
            stats = router.stats()
            # Build-time population per shard: how evenly the partitioner
            # split the corpus (post-mutation drift is second-order for a
            # stream this short and does not change the degeneracy verdict).
            labels = router.partitioner.assign(run.files)
            load = PartitionLoad(
                shards=count,
                populations=[int((labels == sid).sum()) for sid in range(count)],
                busy_seconds=list(got.busy),
            )
        finally:
            router.close()
        wall_rows.append(
            {
                "shards": count,
                "build_s": build_seconds,
                "mix_wall_s": got.probe_wall,
                "mutations_per_s": len(mutations) / got.mutation_wall
                if got.mutation_wall > 0
                else 0.0,
                "shards_contacted": int(stats["shards_contacted"]),
                "shards_pruned": int(stats["shards_pruned"]),
                "populations": load.populations,
                "identical": identical,
            }
        )
        modeled_rows.append(
            {
                "shards": count,
                **_scatter(got, len(mix) * len(PHASES)),
                "busy_share": load.busy_share,
                "utilization": load.busy_utilization,
                # A degenerate row's throughput measures one machine, not
                # the cluster; do not read a speedup out of it.
                "degenerate": load.degenerate,
            }
        )
    base = modeled_rows[0]["scatter_qps"]
    run.wall["rows"] = wall_rows
    run.modeled["rows"] = modeled_rows
    run.modeled["scatter_speedup"] = (
        modeled_rows[-1]["scatter_qps"] / base if base > 0 else None
    )


# ---------------------------------------------------------------------------- reshard
RESHARD_SHARDS = 4
RESHARD_READERS = 4         # concurrent reader threads during the storm
RESHARD_ROUNDS = 2          # storm rounds (mutation chunk + controller pass)
#: The rebalanced topology must clear the utilization floor the
#: degenerate build fails (0.51 on the seed-42 corpus).
RESHARD_MIN_UTILIZATION = 0.55
RESHARD_UTILIZATION_GATE = f"rebalanced: utilization > {RESHARD_MIN_UTILIZATION:.2f}"
RESHARD_GATES = (
    *(f"degenerate cycle: {phase} identical" for phase in PHASES),
    "storm: zero failed requests",
    "storm: reshard performed",
    *(f"rebalanced cycle: {phase} identical" for phase in PHASES),
    RESHARD_UTILIZATION_GATE,
)


def _storm(
    router: ShardRouter,
    controller: ReshardController,
    queries: Sequence[Any],
    mutations: Sequence[Mutation],
) -> Dict[str, Any]:
    """Mixed read/write traffic with controller passes interleaved.

    Reader threads loop the query mix (each starting at a different
    offset) until the storm ends; the main thread alternates mutation
    chunks with *unforced* ``run_once()`` — the controller acts on the
    real degeneracy verdict, then cools down rather than re-judging the
    fresh placement on a thin busy sample (forcing a pass on a balanced
    partition would manufacture churn).  Reader results are not
    fingerprint-checked here — they race live migrations by design — but
    every single request must complete; the equivalence gate is the full
    cycle that follows the storm.
    """
    stop = threading.Event()
    counts = [0] * RESHARD_READERS
    errors: List[BaseException] = []

    def read_loop(idx: int) -> None:
        position = idx
        while not stop.is_set():
            try:
                router.execute(queries[position % len(queries)])
            except BaseException as exc:  # any failure fails the gate
                errors.append(exc)
                return
            position += 1
            counts[idx] += 1

    threads = [
        threading.Thread(target=read_loop, args=(i,), daemon=True)
        for i in range(RESHARD_READERS)
    ]
    actions = moved = 0
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    try:
        chunk = max(1, -(-len(mutations) // RESHARD_ROUNDS))
        for round_index in range(RESHARD_ROUNDS):
            for kind, file in mutations[round_index * chunk : (round_index + 1) * chunk]:
                getattr(router, kind)(file)
            outcome = controller.run_once()
            if outcome.performed:
                actions += 1
                moved += outcome.moved
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30.0)
    return {
        "wall_s": time.perf_counter() - started,
        "requests": sum(counts),
        "failed_requests": len(errors),
        "writes": len(mutations),
        "actions": actions,
        "splits": controller.splits,
        "rebalances": controller.rebalances,
        "moved": moved,
    }


def reshard(run: Run) -> None:
    """A deliberately degenerate partition (legacy weighted cuts, half
    the corpus on one shard) repaired live by the reshard controller
    under a reader/mutator storm; placement changes, answers do not."""
    points, mix = run.probes()
    n_queries = len(mix) * len(PHASES)
    mutations = run.mutation_stream()
    baseline_pipe, reference_1 = run.reference(points, mix, mutations)
    run.config.update(
        shards=RESHARD_SHARDS, readers=RESHARD_READERS, rounds=RESHARD_ROUNDS
    )

    router = build_router(
        run.files, RESHARD_SHARDS, run.store_config, balance_fallback=False
    )
    controller = ReshardController(router)

    def cycle(name: str, got: PhaseRun, reference: PhaseRun) -> PartitionLoad:
        identical = run.gate_phases(f"{name} cycle", got, reference)
        load = PartitionLoad(
            shards=router.num_shards,
            populations=[len(p.materialized_files()) for p in router.pipelines],
            busy_seconds=list(got.busy),
        )
        scatter = _scatter(got, n_queries)
        makespan = scatter["busy_makespan_s"]
        run.modeled.setdefault("cycles", []).append(
            {
                "cycle": name,
                "shards": load.shards,
                **scatter,
                "speedup_vs_unsharded": reference.busy[0] / makespan if makespan > 0 else None,
                "utilization": load.busy_utilization,
                "degenerate": load.degenerate,
                "populations": load.populations,
                "identical": identical,
            }
        )
        return load

    try:
        cycle("degenerate", run_phases(router, router, points, mix, mutations), reference_1)

        storm_mutations = run.mutation_stream(3, files=baseline_pipe.materialized_files())
        storm = _storm(router, controller, points + mix, storm_mutations)
        run.wall["storm"] = [storm]
        run.gate("storm: zero failed requests", storm["failed_requests"] == 0)
        run.gate("storm: reshard performed", storm["actions"] >= 1)
        # Bring the baseline to the identical population (storm writes
        # replay in order; reader traffic and reshards changed nothing).
        for kind, file in storm_mutations:
            getattr(baseline_pipe, kind)(file)
        baseline_pipe.compactor.drain()
        router.compactor.drain()

        # The storm already mutated both sides; the second cycle probes
        # that state with an empty stream so it isolates the topology repair.
        reference_2 = run_phases(baseline_pipe.store, baseline_pipe, points, mix, [])
        load = cycle("rebalanced", run_phases(router, router, points, mix, []), reference_2)
        run.gate(RESHARD_UTILIZATION_GATE, load.busy_utilization > RESHARD_MIN_UTILIZATION)
    finally:
        controller.stop()
        router.close()


# ---------------------------------------------------------------------------- replica
REPLICA_SHARDS = 2
REPLICA_REPLICAS = 2        # per shard, in addition to the primary
REPLICA_MAX_LAG = 16        # async mode: bounded shipped-but-unapplied window
REPLICA_MODES = ("async", "sync")
#: Every primary is killed between the two halves of the mutation
#: stream, i.e. before the second phase.
REPLICA_PHASES = ("pre-failure", "failed over (in flight)", "caught up (drained)")
REPLICA_GATES = (
    *(f"{mode}: {phase} identical" for mode in REPLICA_MODES for phase in REPLICA_PHASES),
    *(f"{mode}: zero failed requests" for mode in REPLICA_MODES),
    *(f"{mode}: every primary failed over" for mode in REPLICA_MODES),
    "async: lag within bounded window",
)


def replica(run: Run) -> None:
    """Every shard a replica group; the live fault injector crashes every
    primary mid-stream and failover must be invisible to the client."""
    points, mix = run.probes()
    mutations = run.mutation_stream()
    _, reference = run.reference(points, mix, mutations, REPLICA_PHASES)
    run.config.update(
        shards=REPLICA_SHARDS, replicas=REPLICA_REPLICAS,
        modes=list(REPLICA_MODES), max_lag=REPLICA_MAX_LAG,
    )

    rows: List[Dict[str, Any]] = []
    for mode in REPLICA_MODES:
        started = time.perf_counter()
        router = build_router(
            run.files,
            REPLICA_SHARDS,
            run.store_config,
            replication=ReplicationConfig(
                replicas=REPLICA_REPLICAS, mode=mode, max_lag=REPLICA_MAX_LAG
            ),
        )
        build_seconds = time.perf_counter() - started
        try:
            got = run_phases(
                router, router, points, mix, mutations, REPLICA_PHASES,
                on_midpoint=FaultInjector(router).crash_primary,
            )
            router.anti_entropy()
            groups = router.replica_groups()
            identical = run.gate_phases(mode, got, reference, REPLICA_PHASES)
            run.gate(f"{mode}: zero failed requests", got.failed == 0)
            run.gate(
                f"{mode}: every primary failed over",
                all(g.failovers >= 1 for g in groups),
            )
            max_lag_seen = max(g.max_observed_lag for g in groups)
            if mode == "async":
                run.gate("async: lag within bounded window", max_lag_seen <= REPLICA_MAX_LAG)
            rows.append(
                {
                    "mode": mode,
                    "build_s": build_seconds,
                    "mutation_wall_s": got.mutation_wall,
                    "mix_wall_s": got.probe_wall,
                    "failovers": sum(g.failovers for g in groups),
                    "degraded_reads": sum(g.degraded_reads for g in groups),
                    "read_retries": sum(g.read_retries for g in groups),
                    "failed_requests": got.failed,
                    "max_observed_lag": max_lag_seen,
                    "anti_entropy_repaired": sum(g.anti_entropy_repairs for g in groups),
                    "identical": identical,
                }
            )
        finally:
            router.close()
    run.wall["rows"] = rows


# ---------------------------------------------------------------------------- client
CLIENT_PAGE_SIZE = 7
CLIENT_DEADLINE_PROBES = 3
CLIENT_GATES = (
    "client payloads identical to legacy facade",
    "page concatenation equals unpaginated result",
    "deadline expiries visible in telemetry",
)


def client(run: Run) -> None:
    """A sharded + replicated deployment built from one declarative spec
    and driven through one ``Client``: facade equivalence, cursor
    pagination, deadline telemetry."""
    spec = DeploymentSpec(
        topology="sharded_replicated", store=run.store_config, shards=2, replicas=1
    )
    run.config.update(spec=spec.to_dict(), page_size=CLIENT_PAGE_SIZE)
    points, mix = run.probes()
    workload = points + mix
    reference = fingerprints(run.baseline(), workload)

    started = time.perf_counter()
    with connect(spec, run.files) as conn:
        build_wall = time.perf_counter() - started
        started = time.perf_counter()
        responses = [conn.execute(q) for q in workload]
        query_wall = time.perf_counter() - started
        run.gate(
            "client payloads identical to legacy facade",
            [result_fingerprint(r.result) for r in responses] == reference,
        )

        pagination_ok = True
        for probe in mix:
            full = conn.execute(probe)
            pages = list(conn.pages(probe, CLIENT_PAGE_SIZE))
            pagination_ok = (
                pagination_ok
                and [f.file_id for p in pages for f in p.files]
                == [f.file_id for f in full.files]
                and [d for p in pages for d in p.distances] == full.distances
            )
        run.gate("page concatenation equals unpaginated result", pagination_ok)

        # An immediately-expiring budget must come back partial (policy
        # default) and show up in the expiry telemetry.
        for probe in mix[:CLIENT_DEADLINE_PROBES]:
            conn.execute(probe, RequestOptions(deadline_s=0.0))
        expired = conn.service.telemetry.deadline_expired
        run.gate("deadline expiries visible in telemetry", expired >= CLIENT_DEADLINE_PROBES)
        run.wall.update(
            build_wall_s=build_wall,
            query_wall_s=query_wall,
            requests=len(workload),
            deadline_probes_expired=expired,
            attribution=", ".join(f"{k}={v}" for k, v in responses[0].attribution.items()),
        )


# ---------------------------------------------------------------------------- net
NET_WORKERS = (1, 4)
#: Wall-clock throughput the largest worker count must reach over one worker.
NET_MIN_WALL_SPEEDUP = 2.5
NET_WALL_GATE = (
    f"{NET_WORKERS[-1]}-worker wall-clock throughput >= "
    f"{NET_MIN_WALL_SPEEDUP:.2f}x of 1-worker"
)
NET_GATES = (
    *(f"{n} worker(s): results identical to in-process baseline" for n in NET_WORKERS),
    NET_WALL_GATE,
)


def net(run: Run) -> None:
    """One OS process per shard behind the router, 1 vs 4 workers over the
    wire protocol: serialization must be lossless, and at the full sizing
    the sweep must scale on the wall clock where the host has the cores.

    The uniform query-point distribution spreads scan work across every
    worker (a Zipf stream would hammer one shard and cap the achievable
    speedup below the worker count).
    """
    _, workload = run.probes(distribution="uniform")
    reference = fingerprints(run.baseline(), workload)
    cores = os.cpu_count() or 1
    run.config.update(workers=list(NET_WORKERS))

    wall_rows: List[Dict[str, Any]] = []
    modeled_rows: List[Dict[str, Any]] = []
    for count in NET_WORKERS:
        started = time.perf_counter()
        router = build_process_router(
            run.files,
            count,
            run.store_config,
            units_per_shard=max(1, run.size.units // count),
        )
        build_seconds = time.perf_counter() - started
        try:
            router.reset_busy()
            started = time.perf_counter()
            prints = fingerprints(router, workload)
            wall = time.perf_counter() - started
            busy = router.busy_makespan()
        finally:
            router.close()
        identical = run.gate(
            f"{count} worker(s): results identical to in-process baseline",
            prints == reference,
        )
        wall_rows.append(
            {"workers": count, "build_s": build_seconds, "wall_s": wall,
             "wall_qps": len(workload) / wall if wall > 0 else 0.0,
             "identical": identical}
        )
        modeled_rows.append(
            {"workers": count, "busy_makespan_s": busy,
             "scatter_qps": len(workload) / busy if busy > 0 else 0.0}
        )

    def ratio(rows: List[Dict[str, Any]], key: str) -> Any:
        return rows[-1][key] / rows[0][key] if rows[0][key] > 0 else None

    wall_speedup = ratio(wall_rows, "wall_qps")
    run.wall.update(cores=cores, wall_speedup=wall_speedup, rows=wall_rows)
    run.modeled.update(scatter_speedup=ratio(modeled_rows, "scatter_qps"), rows=modeled_rows)
    # The ratio is judged only where it can mean something, and skipped
    # with the reason (never passed on a proxy) elsewhere: CI and the test
    # suite run the quick sizing and must not hinge on a host-dependent
    # timing, and N worker processes on fewer than N cores cannot show
    # wall-clock parallelism.
    if run.quick:
        run.skip(NET_WALL_GATE, "quick sizing")
    elif cores < NET_WORKERS[-1]:
        run.skip(NET_WALL_GATE, f"{cores} cores")
    else:
        run.gate(
            NET_WALL_GATE,
            wall_speedup is not None and wall_speedup >= NET_MIN_WALL_SPEEDUP,
        )


# ---------------------------------------------------------------------------- storage
STORAGE_MIN_SPEEDUP = 5.0
STORAGE_REPEATS = 3         # best-of, so scheduler noise cannot flip the ratio gate
STORAGE_SPEEDUP_GATE = f"recovery speedup >= {STORAGE_MIN_SPEEDUP:g}x"
STORAGE_GATES = (
    "recovery identical",
    "recovery is O(tail)",
    STORAGE_SPEEDUP_GATE,
    "evicted == resident",
)
_ALL_RESIDENT = 1_000_000


def storage(run: Run) -> None:
    """Publish a segment snapshot, keep writing a WAL tail, crash, then
    race the O(tail) recovery (mmap the segments, replay only the tail)
    against the O(corpus) full rebuild over the same final state — and
    recover once more starved to one resident segment."""
    wal_path = run.workdir / "store.wal"
    snap_root = run.workdir / "snap"
    run.config.update(repeats=STORAGE_REPEATS)

    store = run.baseline()
    pipeline = IngestPipeline(store, WriteAheadLog(wal_path, fsync_every=1))
    pipeline.attach_storage(SegmentStore(snap_root, resident_segments=_ALL_RESIDENT))
    manifest = pipeline.checkpoint()
    tail = run.mutation_stream()
    for kind, file in tail:
        getattr(pipeline, kind)(file)
    final_files = sorted(pipeline.materialized_files(), key=lambda f: f.file_id)
    points, mix = run.probes(files=final_files)
    probes = points + mix
    live = fingerprints(store, probes)
    pipeline.close()

    recovery_seconds = float("inf")
    for _ in range(STORAGE_REPEATS):
        started = time.perf_counter()
        recovered, report = recover_from_storage(
            snap_root, wal_path=wal_path, resident_segments=_ALL_RESIDENT
        )
        recovery_seconds = min(recovery_seconds, time.perf_counter() - started)
        recovered_prints = fingerprints(recovered.store, probes)
        recovered.close()

    rebuild_seconds = float("inf")
    for _ in range(STORAGE_REPEATS):
        started = time.perf_counter()
        SmartStore.build(final_files, run.store_config)
        rebuild_seconds = min(rebuild_seconds, time.perf_counter() - started)

    # Recovery under memory pressure: every query faults its group in
    # through the LRU and evicts another.
    evicted, _ = recover_from_storage(snap_root, wal_path=wal_path, resident_segments=1)
    evicted_prints = fingerprints(evicted.store, probes)
    assert evicted.storage is not None
    lru = evicted.storage.stats()
    # The restarted store's own checkpoint (generation 2): the replayed
    # tail is encoded, every other row is carried from generation 1.
    started = time.perf_counter()
    evicted.checkpoint()
    second_checkpoint_seconds = time.perf_counter() - started
    second = evicted.storage.stats()
    evicted.close()

    speedup = rebuild_seconds / recovery_seconds if recovery_seconds > 0 else float("inf")
    run.gate("recovery identical", recovered_prints == live)
    run.gate("recovery is O(tail)", report.wal_records_replayed == len(tail))
    run.gate(STORAGE_SPEEDUP_GATE, speedup >= STORAGE_MIN_SPEEDUP)
    run.gate("evicted == resident", evicted_prints == live and int(lru["evictions"]) > 0)
    run.wall.update(
        recovery_seconds=recovery_seconds,
        rebuild_seconds=rebuild_seconds,
        recovery_speedup=speedup,
        tail_mutations=len(tail),
        wal_records_replayed=report.wal_records_replayed,
        segments_published=len(manifest.get("segments", [])),  # type: ignore[arg-type]
        lru_faults=int(lru["faults"]),
        lru_evictions=int(lru["evictions"]),
        second_checkpoint_seconds=second_checkpoint_seconds,
        second_checkpoint_rows_carried=int(second["rows_carried"]),
        second_checkpoint_rows_encoded=int(second["rows_encoded"]),
    )
