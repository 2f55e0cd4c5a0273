"""The scenario table behind ``python -m repro bench``.

One row per drill: what is stood up, which ``benchmarks/perf`` workload
carries that path's wall-clock numbers, the drill body, the two sizings
and the gates the exit code asserts.  The sizings are constants, not
flags: ``quick`` is what CI and the test suite run, ``full`` is what
``repro bench --all`` regenerates the committed
``benchmarks/results/BENCH_<scenario>.json`` artefacts with.
"""

from __future__ import annotations

from typing import Dict

from repro.bench import drills
from repro.bench.runner import Scenario, Size

__all__ = ["SCENARIOS"]

_ROWS = (
    Scenario(
        name="serve",
        summary="query service with result cache and batcher ablated vs serial execution",
        deployment="QueryService over one store, cache x batcher on/off",
        perf_workload="scan_plain, hot_cached",
        drill=drills.serve,
        quick=Size("generic", 0.05, seed=42, units=4, queries=3),
        full=Size("msn", 0.5, seed=42, units=20, queries=12),
        gates=(drills.SERVE_GATE,),
    ),
    Scenario(
        name="ingest",
        summary="durable write path under the WAL ablation: crash recovery, drain equivalence",
        deployment="IngestPipeline over one store, WAL fsync x compaction matrix",
        perf_workload="ingest_restart",
        drill=drills.ingest,
        quick=Size("generic", 0.1, seed=7, units=6, queries=6, mutations=90),
        full=Size("msn", 0.5, seed=42, units=8, queries=6, mutations=120),
        gates=drills.INGEST_GATES,
    ),
    Scenario(
        name="shard",
        summary="scatter-gather equivalence across shard counts through three mutation phases",
        deployment="ShardRouter, 1 vs 4 shards over one unit budget",
        perf_workload="net_sharded_replicated",
        drill=drills.shard,
        quick=Size("generic", 0.3, seed=7, units=8, queries=6, mutations=45),
        full=Size("msn", 0.5, seed=7, units=8, queries=6, mutations=45),
        gates=drills.SHARD_GATES,
    ),
    Scenario(
        name="reshard",
        summary="live rebalance of a degenerate partition under a reader/mutator storm",
        deployment="4-shard router on legacy weighted cuts + ReshardController",
        perf_workload="net_sharded_replicated",
        drill=drills.reshard,
        # The degenerate partition under repair is a property of this exact
        # corpus (seed-42 MSN at 1,250 files), so both sizings are the same.
        quick=Size("msn", 0.5, seed=42, units=16, queries=8, mutations=45),
        full=Size("msn", 0.5, seed=42, units=16, queries=8, mutations=45),
        gates=drills.RESHARD_GATES,
    ),
    Scenario(
        name="replica",
        summary="kill every primary mid-workload; failover must be invisible",
        deployment="2 shards x (1 primary + 2 replicas), async and sync shipping",
        perf_workload="net_sharded_replicated",
        drill=drills.replica,
        quick=Size("generic", 0.2, seed=7, units=8, queries=5, mutations=42),
        full=Size("msn", 0.5, seed=42, units=8, queries=6, mutations=48),
        gates=drills.REPLICA_GATES,
    ),
    Scenario(
        name="client",
        summary="one Client over a declarative spec: facade equivalence, pagination, deadlines",
        deployment="connect(DeploymentSpec sharded_replicated, 2 shards x 2 copies)",
        perf_workload="scan_plain (api.self_ms)",
        drill=drills.client,
        quick=Size("generic", 0.2, seed=7, units=8, queries=5),
        full=Size("msn", 0.5, seed=42, units=8, queries=6),
        gates=drills.CLIENT_GATES,
    ),
    Scenario(
        name="net",
        summary="process-per-shard scatter over the wire protocol, 1 vs 4 worker processes",
        deployment="one OS process per shard behind the router, 1 vs 4 workers",
        perf_workload="net_sharded_replicated",
        drill=drills.net,
        quick=Size("generic", 0.2, seed=7, units=8, queries=6),
        full=Size("msn", 0.5, seed=42, units=16, queries=24),
        gates=drills.NET_GATES,
    ),
    Scenario(
        name="storage",
        summary="O(tail) snapshot recovery raced against a full rebuild; LRU-starved restart",
        deployment="durable pipeline + segment store: checkpoint, WAL tail, cold start",
        perf_workload="ingest_restart",
        drill=drills.storage,
        # The 5x recovery-ratio gate needs a corpus whose rebuild dwarfs
        # process noise, so the quick sizing is the full one (about a second).
        quick=Size("msn", 2.0, seed=3, units=16, queries=6, mutations=48),
        full=Size("msn", 2.0, seed=3, units=16, queries=6, mutations=48),
        gates=drills.STORAGE_GATES,
    ),
)

SCENARIOS: Dict[str, Scenario] = {row.name: row for row in _ROWS}
