"""What is genuinely scenario-specific about each ``repro bench`` drill.

Everything shared — corpus, probe set, the three-phase loop, baseline
comparison, rendering, gates, exit code, artefact — is
:mod:`repro.bench.runner`'s; a drill here only stands its deployment up,
does the one thing that makes it that scenario (crash recovery of a
batched WAL, the reader/mutator storm, kill-every-primary, the recovery
race) and records gates plus ``modeled`` figures on the
:class:`~repro.bench.runner.Run`.  ``modeled`` holds only what the cost
model and the run's inputs fix, so two runs of one seed write equal
blocks.

Throughput in the ``modeled`` blocks is the repository's simulated-cost
currency: shards are independent deployments, so a cluster sustains
``queries / busy-time-of-the-busiest-shard``.  A single python process
cannot show the wall-clock parallelism of N machines, which is why those
ratios are reported and never gate; ``benchmarks/perf`` measures the
wall clock.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Sequence

from repro.api import DeploymentSpec, RequestOptions, connect
from repro.bench.runner import PHASES, Mutation, PhaseRun, Run, fingerprints, run_phases
from repro.core.queries import ReadContext
from repro.core.smartstore import SmartStore
from repro.ingest.compactor import CompactionPolicy
from repro.ingest.pipeline import IngestPipeline, recover_from_storage
from repro.ingest.wal import WriteAheadLog
from repro.obs import get_registry
from repro.replication.fault import FaultInjector
from repro.replication.group import ReplicationConfig
from repro.service import (
    QUERY_KINDS,
    QueryService,
    ServiceConfig,
    latency_summary,
    repeated_stream,
)
from repro.service.cache import result_fingerprint
from repro.service.telemetry import SOURCES
from repro.shard.build import build_router
from repro.shard.load import PartitionLoad
from repro.shard.reshard import ReshardController
from repro.shard.router import ShardRouter
from repro.storage.store import SegmentStore
from repro.workloads.types import Query, kind_of

# ---------------------------------------------------------------------------- serve
SERVE_REPEAT = 4            # how often the unique workload recurs in the stream
SERVE_GATE = "all results identical to serial baseline"
#: (label, result cache on)
SERVE_CONFIGURATIONS = (
    ("service (cache)", True),
    ("service (no cache)", False),
)


def serve(run: Run) -> None:
    """``QueryService.execute_many`` with the result cache on and off,
    against serial ``store.execute`` over a repeated-query stream."""
    points, mix = run.probes()
    seed = run.size.seed
    stream = repeated_stream(points + mix, SERVE_REPEAT, seed=seed)
    run.config.update(requests=len(stream), repeat=SERVE_REPEAT)

    store = run.baseline()
    reference = [result_fingerprint(store.execute(q)) for q in stream]

    rows: List[Dict[str, Any]] = []
    for label, cache_on in SERVE_CONFIGURATIONS:
        config = ServiceConfig(cache_enabled=cache_on, seed=seed)
        with QueryService(run.baseline(), config) as service:
            before = _served()
            results = service.execute_many(stream)
            rows.append(
                {
                    "configuration": label,
                    "cache_hit_rate": service.cache.stats.hit_rate
                    if service.cache is not None
                    else None,
                    "identical": [result_fingerprint(r) for r in results]
                    == reference,
                }
            )
            if cache_on:
                after = _served()
                served = {key: int(after[key] - before[key]) for key in after}
                run.modeled["service latency (cache)"] = _latency_rows(
                    stream, results, served
                )
    run.modeled["configurations"] = rows
    run.gate(SERVE_GATE, all(row["identical"] for row in rows))


def _served() -> Dict[Any, float]:
    """``repro_requests_total`` by ``(kind, source)``, as it reads now."""
    registry = get_registry()
    return {
        (kind, source): registry.counter(
            "repro_requests_total", kind=kind, source=source
        ).value
        for kind in QUERY_KINDS
        for source in SOURCES
    }


def _latency_rows(
    stream: Sequence[Query], results: Sequence[Any], served: Dict[Any, int]
) -> List[Dict[str, Any]]:
    """One row per query kind: where its answers came from (``served``,
    the run's ``repro_requests_total`` increments) and the modeled
    latencies of its results."""
    rows = []
    for kind in QUERY_KINDS:
        latencies = [
            r.latency
            for q, r in zip(stream, results)
            if kind_of(q) == kind
        ]
        if not latencies:
            continue
        summary = latency_summary(latencies)
        rows.append(
            {
                "query type": kind,
                "requests": len(latencies),
                "engine": served[kind, "engine"],
                "cache": served[kind, "cache"] + served[kind, "negative"],
                **{f"{name} (ms)": f"{value * 1e3:.3f}" for name, value in summary.items()},
            }
        )
    return rows


# ---------------------------------------------------------------------------- ingest
INGEST_FSYNC_BATCH = 16     # records per fsync: the batched WAL
INGEST_COMPACT_THRESHOLD = 24
INGEST_GATES = ("crash recovery identical", "drain == fresh build")


def ingest(run: Run) -> None:
    """The durable write path (batched WAL, policy-driven compaction after
    each mutation, the service's ``auto_compact`` discipline), then crash
    recovery and drain equivalence."""
    stream = run.mutation_stream()
    policy = CompactionPolicy(
        max_staged_per_group=INGEST_COMPACT_THRESHOLD,
        max_staged_total=8 * INGEST_COMPACT_THRESHOLD,
    )
    run.config.update(fsync_batch=INGEST_FSYNC_BATCH, compact_threshold=INGEST_COMPACT_THRESHOLD)
    store = run.baseline()
    wal_path = run.workdir / "wal.jsonl"
    wal = WriteAheadLog(wal_path, fsync_every=INGEST_FSYNC_BATCH)
    pipeline = IngestPipeline(store, wal, policy=policy)
    snapshot_root = run.workdir / "snap"
    pipeline.attach_storage(SegmentStore(snapshot_root))
    pipeline.checkpoint()
    for kind, file in stream:
        getattr(pipeline, kind)(file)
        pipeline.compactor.run_once()
    run.modeled.update(
        fsyncs=wal.syncs,
        compactions=pipeline.compactor.stats.group_compactions,
        staged_left=len(pipeline.overlay),
    )

    points, mix = run.probes(files=pipeline.materialized_files())
    probes = points + mix
    live = fingerprints(store, probes)
    pipeline.close()
    recovered, _report = recover_from_storage(snapshot_root, wal_path=wal_path)
    run.gate("crash recovery identical", fingerprints(recovered.store, probes) == live)
    recovered.compactor.drain()
    fresh = SmartStore.build(recovered.materialized_files(), run.store_config)
    run.gate(
        "drain == fresh build",
        fingerprints(recovered.store, probes) == fingerprints(fresh, probes),
    )
    recovered.close()


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

    modeled_rows: List[Dict[str, Any]] = []
    for count in SHARD_COUNTS:
        router = build_router(run.files, count, run.store_config)
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
        modeled_rows.append(
            {
                "shards": count,
                **_scatter(got, len(mix) * len(PHASES)),
                "busy_share": load.busy_share,
                "utilization": load.busy_utilization,
                # A degenerate row's throughput measures one machine, not
                # the cluster; do not read a speedup out of it.
                "degenerate": load.degenerate,
                "shards_contacted": int(stats["shards_contacted"]),
                "shards_pruned": int(stats["shards_pruned"]),
                "populations": load.populations,
                "identical": identical,
            }
        )
    base = modeled_rows[0]["scatter_qps"]
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
    cycle that follows the storm.  Readers name their home unit, so they
    draw nothing from a shard's home-unit RNG: however many reads the
    scheduler lets through, the cycle after the storm starts from the
    same draw state and models the same cost.
    """
    stop = threading.Event()
    home = ReadContext(home_unit=0)
    errors: List[BaseException] = []

    def read_loop(idx: int) -> None:
        position = idx
        while not stop.is_set():
            try:
                router.execute(queries[position % len(queries)], home)
            except BaseException as exc:  # any failure fails the gate
                errors.append(exc)
                return
            position += 1

    threads = [
        threading.Thread(target=read_loop, args=(i,), daemon=True)
        for i in range(RESHARD_READERS)
    ]
    actions = moved = 0
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
        run.modeled["storm"] = [storm]
        run.gate("storm: zero failed requests", storm["failed_requests"] == 0)
        run.gate("storm: reshard performed", storm["actions"] >= 1)
        # Bring the baseline to the identical population (storm writes
        # replay in order; reader traffic and reshards changed nothing).
        for kind, file in storm_mutations:
            getattr(baseline_pipe, kind)(file)
        baseline_pipe.compactor.drain()
        router.compactor.drain()
        # The storm's reads piled a thread-timed amount onto the busy
        # accumulators; the cycle reads deltas, whose float rounding would
        # follow that amount.
        router.reset_busy()

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
        router = build_router(
            run.files,
            REPLICA_SHARDS,
            run.store_config,
            replication=ReplicationConfig(
                replicas=REPLICA_REPLICAS, mode=mode, max_lag=REPLICA_MAX_LAG
            ),
        )
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
    run.modeled["rows"] = rows


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

    with connect(spec, run.files) as conn:
        responses = [conn.execute(q) for q in workload]
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
        telemetry = conn.service.telemetry
        before = telemetry.as_dict()["deadline_expired"]
        for probe in mix[:CLIENT_DEADLINE_PROBES]:
            conn.execute(probe, RequestOptions(deadline_s=0.0))
        expired = telemetry.as_dict()["deadline_expired"] - before
        run.gate("deadline expiries visible in telemetry", expired >= CLIENT_DEADLINE_PROBES)
        run.modeled.update(
            requests=len(workload),
            deadline_probes_expired=expired,
            attribution=", ".join(f"{k}={v}" for k, v in responses[0].attribution.items()),
        )


# ---------------------------------------------------------------------------- storage
STORAGE_MIN_SPEEDUP = 5.0
#: Recover/rebuild pairs, timed back to back; the gate reads the median of
#: the per-pair ratios, so a noisy moment moves one pair, not a side.
STORAGE_PAIRS = 7
STORAGE_SPEEDUP_GATE = f"recovery speedup >= {STORAGE_MIN_SPEEDUP:g}x"
STORAGE_COLD_GATE = "cold reads pin nothing and match live"
STORAGE_GATES = (
    "recovery identical",
    "recovery is O(tail)",
    STORAGE_SPEEDUP_GATE,
    STORAGE_COLD_GATE,
    "second checkpoint carried rows",
    "second checkpoint encoded at most the tail",
)


def storage(run: Run) -> None:
    """Publish a segment snapshot, keep writing a WAL tail, crash, then
    race the O(tail) recovery (mmap the segments, replay only the tail)
    against the O(corpus) full rebuild over the same final state — and
    recover once more to probe the segment blocks cold.

    The race is the one clock in the drills: it decides the speedup gate
    on the median of ``STORAGE_PAIRS`` interleaved recover/rebuild ratios
    and publishes no seconds (``benchmarks/perf``'s ``ingest_restart``
    times recovery).  The restarted store's own checkpoint must carry
    rows forward: a publish that silently re-encodes every row passes
    every other gate."""
    wal_path = run.workdir / "store.wal"
    snap_root = run.workdir / "snap"
    run.config.update(pairs=STORAGE_PAIRS)

    store = run.baseline()
    pipeline = IngestPipeline(store, WriteAheadLog(wal_path, fsync_every=1))
    pipeline.attach_storage(SegmentStore(snap_root))
    manifest = pipeline.checkpoint()
    tail = run.mutation_stream()
    for kind, file in tail:
        getattr(pipeline, kind)(file)
    final_files = sorted(pipeline.materialized_files(), key=lambda f: f.file_id)
    points, mix = run.probes(files=final_files)
    probes = points + mix
    live = fingerprints(store, probes)
    pipeline.close()

    ratios = []
    for _ in range(STORAGE_PAIRS):
        started = time.perf_counter()
        recovered, report = recover_from_storage(snap_root, wal_path=wal_path)
        recovery_seconds = time.perf_counter() - started
        recovered_prints = fingerprints(recovered.store, probes)
        recovered.close()
        started = time.perf_counter()
        SmartStore.build(final_files, run.store_config)
        rebuild_seconds = time.perf_counter() - started
        ratios.append(rebuild_seconds / recovery_seconds)

    # The probes over cold segment blocks, read as they are: no read may
    # make a unit writable.
    cold, _ = recover_from_storage(snap_root, wal_path=wal_path)
    assert cold.storage is not None
    pins = cold.storage.stats()["pins"]
    cold_prints = fingerprints(cold.store, probes)
    read_pins = cold.storage.stats()["pins"] - pins
    cold_units = sum(s.backing_segment() is not None for s in cold.store.cluster)
    # The restarted store's own checkpoint (generation 2): the replayed
    # tail is encoded, every other row is carried from generation 1.
    cold.checkpoint()
    second = cold.storage.stats()
    cold.close()
    carried, encoded = int(second["rows_carried"]), int(second["rows_encoded"])

    speedup = sorted(ratios)[len(ratios) // 2]
    run.gate("recovery identical", recovered_prints == live)
    run.gate("recovery is O(tail)", report.wal_records_replayed == len(tail))
    run.gate(STORAGE_SPEEDUP_GATE, speedup >= STORAGE_MIN_SPEEDUP)
    run.gate(
        STORAGE_COLD_GATE, cold_prints == live and cold_units > 0 and read_pins == 0
    )
    run.gate("second checkpoint carried rows", carried > 0)
    run.gate("second checkpoint encoded at most the tail", encoded <= len(tail))
    run.modeled.update(
        tail_mutations=len(tail),
        wal_records_replayed=report.wal_records_replayed,
        segments_published=len(manifest.get("segments", [])),  # type: ignore[arg-type]
        cold_units=cold_units,
        second_checkpoint_rows_carried=carried,
        second_checkpoint_rows_encoded=encoded,
    )
