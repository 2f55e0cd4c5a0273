"""The metric and workload names every later performance claim uses.

``END_TO_END`` are what a user of the system sees; ``PER_LAYER`` are
single-layer figures (layer names are ``src/repro/`` packages).  Every
time and rate is reported on the reference machine of
:mod:`perfbench.calibrate` (the measured value is kept as ``raw``).  Each
end-to-end metric carries the bound ``--compare`` enforces: the share of
the previous median by which it may worsen before it counts as a
regression.  ``BENCHMARK.json`` at the repository root is the driver's
view of the same names (see README.md for how the two relate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = ["END_TO_END", "METRICS", "PER_LAYER", "WORKLOADS", "Metric"]

WORKLOADS: Dict[str, str] = {
    "scan_plain": (
        "plain deployment, all-distinct point/range/top-k reads: the result "
        "cache never hits, so the engine does nearly all the work"
    ),
    "hot_cached": (
        "same deployment, Zipf reads from 512 distinct queries: every read is "
        "a cache hit, so the engine is bypassed and api/service are the cost"
    ),
    "ingest_restart": (
        "durable segment-backed store: mutations beside reads with checkpoints, "
        "then a kill, restarts and cold reads past the resident-segment LRU"
    ),
    "net_sharded_replicated": (
        "repro serve subprocess, 4 shards x 2 replicas, one RemoteClient, 90% "
        "reads: wire codec, server threads, router scatter and replica shipping"
    ),
}

ALL = tuple(WORKLOADS)
INGEST = ("ingest_restart",)
NET = ("net_sharded_replicated",)
WRITERS = INGEST + NET
PLAIN = ("scan_plain", "hot_cached")
IN_PROCESS = PLAIN + INGEST
ENGINE = ("scan_plain",) + INGEST + NET


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    workloads: Tuple[str, ...] = ALL
    bound: Optional[float] = None  # end-to-end only


def _e2e(name: str, unit: str, better: str, bound: float, workloads: Tuple[str, ...] = ALL) -> Metric:
    return Metric(name, unit, better, workloads, bound)


#: Every wall-clock metric gets the widest bound the driver allows: on the
#: shared 2-core sandbox ten runs of the same code spread 0.02-0.10 of
#: their median on the reference machine in a quiet hour and up to 0.17 in
#: a restless one (measured: README.md, "Steadiness"; as measured, up to
#: 0.4), and a bound needs a multiple of the spread to tell a regression
#: from the machine's mood.  Counts and sizes keep tight bounds.
TIMING_BOUND = 0.25

END_TO_END: Tuple[Metric, ...] = (
    _e2e("setup_s", "s", "lower", TIMING_BOUND),
    _e2e("ops_per_s", "1/s", "higher", TIMING_BOUND),
    _e2e("cpu_ms_per_op", "ms", "lower", TIMING_BOUND),
    _e2e("point_p50_ms", "ms", "lower", TIMING_BOUND),
    _e2e("range_p50_ms", "ms", "lower", TIMING_BOUND),
    _e2e("topk_p50_ms", "ms", "lower", TIMING_BOUND),
    _e2e("read_p95_ms", "ms", "lower", TIMING_BOUND),
    _e2e("read_p99_ms", "ms", "lower", TIMING_BOUND),
    _e2e("mutation_p50_ms", "ms", "lower", TIMING_BOUND, WRITERS),
    _e2e("mutation_p99_ms", "ms", "lower", TIMING_BOUND, WRITERS),
    _e2e("recovery_s", "s", "lower", TIMING_BOUND, INGEST),
    _e2e("recall", "ratio", "higher", 0.01),
    _e2e("failed_ratio", "ratio", "lower", 0.0),
    _e2e("stored_bytes_per_file", "B", "lower", 0.02, INGEST),
    _e2e("peak_rss_mb", "MB", "lower", 0.10),
)


def _layer(name: str, unit: str, better: str, workloads: Tuple[str, ...]) -> Metric:
    return Metric(name, unit, better, workloads)


PER_LAYER: Tuple[Metric, ...] = (
    _layer("api.self_ms", "ms", "lower", IN_PROCESS + NET),
    _layer("service.self_ms", "ms", "lower", IN_PROCESS + NET),
    _layer("service.cache_hit_ratio", "ratio", "higher", IN_PROCESS + NET),
    _layer("service.cache_hit_us", "us", "lower", IN_PROCESS + NET),
    _layer("service.cache_evictions", "count", "lower", IN_PROCESS + NET),
    _layer("service.rejected", "count", "lower", IN_PROCESS + NET),
    _layer("service.batch_ops_per_s", "1/s", "higher", PLAIN),
    # hot_cached never reaches the engine: its core.*_ms is absent (0).
    _layer("core.point_ms", "ms", "lower", ENGINE),
    _layer("core.range_ms", "ms", "lower", ENGINE),
    _layer("core.topk_ms", "ms", "lower", ENGINE),
    _layer("core.records_scanned_per_result", "count", "lower", ALL),
    _layer("core.groups_visited_per_query", "count", "lower", ALL),
    _layer("bloom.probes_per_query", "count", "lower", ALL),
    _layer("rtree.index_accesses_per_query", "count", "lower", ALL),
    _layer("core.build_s", "s", "lower", ALL),
    _layer("ingest.pipeline_mutation_ms", "ms", "lower", INGEST),
    _layer("ingest.wal_append_us", "us", "lower", INGEST),
    _layer("ingest.wal_fsyncs", "count", "lower", INGEST),
    _layer("ingest.wal_bytes_per_mutation", "B", "lower", INGEST),
    _layer("ingest.compaction_runs", "count", "lower", INGEST),
    _layer("ingest.compaction_changes", "count", "higher", INGEST),
    _layer("ingest.drain_s", "s", "lower", INGEST),
    _layer("ingest.overlay_staged_peak", "count", "lower", INGEST),
    _layer("ingest.checkpoint_s", "s", "lower", INGEST),
    _layer("storage.publish_bytes_per_checkpoint", "B", "lower", INGEST),
    _layer("storage.segments_written", "count", "lower", INGEST),
    _layer("ingest.ryw_read_ms", "ms", "lower", INGEST),
    _layer("storage.recover_s", "s", "lower", INGEST),
    _layer("storage.tail_records_replayed", "count", "lower", INGEST),
    _layer("storage.segment_open_ms", "ms", "lower", INGEST),
    _layer("storage.fault_ins_per_kop", "count", "lower", INGEST),
    _layer("storage.evictions_per_kop", "count", "lower", INGEST),
    _layer("storage.cold_over_resident_topk", "ratio", "lower", INGEST),
    _layer("shard.router_ms", "ms", "lower", NET),
    _layer("shard.router_self_ms", "ms", "lower", NET),
    _layer("shard.shards_contacted_per_query", "count", "lower", NET),
    _layer("shard.pruned_ratio", "ratio", "higher", NET),
    _layer("shard.partition_utilization", "ratio", "higher", NET),
    _layer("replication.read_self_ms", "ms", "lower", NET),
    _layer("replication.mutation_ms", "ms", "lower", NET),
    _layer("replication.ship_lag_max", "count", "lower", NET),
    _layer("replication.catchup_applies", "count", "lower", NET),
    _layer("server.wire_overhead_ms", "ms", "lower", NET),
    _layer("server.rtt_floor_us", "us", "lower", NET),
    _layer("server.codec_encode_us", "us", "lower", NET),
    _layer("server.codec_decode_us", "us", "lower", NET),
    _layer("server.bytes_per_response", "B", "lower", NET),
    _layer("obs.tracing_overhead_ratio", "ratio", "lower", ("scan_plain",)),
    _layer("bench.corpus_gen_s", "s", "lower", ALL),
    _layer("bench.oracle_s", "s", "lower", ALL),
    _layer("bench.trace_overhead_ratio", "ratio", "lower", ALL),
    _layer("bench.machine_speed", "ratio", "lower", ALL),
)

METRICS: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}
