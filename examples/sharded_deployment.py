#!/usr/bin/env python
"""Horizontal sharding: a corpus split across four SmartStore deployments.

This walks the sharded serving stack end to end:

1. split the MSN corpus into 4 semantic shards (popularity-weighted
   quantile slices of the principal LSI component) behind a
   :class:`~repro.shard.router.ShardRouter`, each shard with its own
   write-ahead log;
2. show that scatter-gather point/range/top-k answers are
   fingerprint-identical to an unsharded deployment of the same total
   size — including while a mutation stream is staged in flight, and
   again after every shard's compactor drained;
3. print the router's pruning statistics (how many shard contacts the
   filename Bloom filters, bounding boxes and the shared top-k MaxD
   threshold avoided) and the per-shard busy times behind the
   scatter-gather throughput model;
4. run the concurrent :class:`QueryService` directly over the router —
   batching, result caching (per-shard cache epochs) and telemetry work
   unchanged.

Run with:  python examples/sharded_deployment.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import QueryService, SmartStore, SmartStoreConfig
from repro.ingest.pipeline import IngestPipeline
from repro.service.cache import result_fingerprint
from repro.api import DeploymentSpec, connect
from repro.traces import msn_trace
from repro.workloads.generator import QueryWorkloadGenerator


def probe(target, queries):
    return [result_fingerprint(target.execute(q)) for q in queries]


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-shard-"))
    files = msn_trace(scale=0.5, seed=29).file_metadata()
    config = SmartStoreConfig(num_units=16, seed=7, search_breadth=64)

    print(f"Corpus: {len(files)} files; building 1 baseline + 4 shards ...")
    baseline = SmartStore.build(files, config)
    baseline_pipeline = IngestPipeline(baseline)
    client = connect(
        DeploymentSpec(
            topology="sharded", store=config, shards=4, wal_dir=str(workdir)
        ),
        files,
    )
    router = client.store  # the ShardRouter behind the unified client
    print(f"  {router!r}")
    print(f"  files per shard: {router.stats()['files_per_shard']}")

    generator = QueryWorkloadGenerator(files, seed=13)
    queries = (
        generator.point_queries(6, existing_fraction=0.8)
        + generator.range_queries(6, distribution="zipf")
        + generator.topk_queries(6, k=8, distribution="zipf")
    )

    assert probe(router, queries) == probe(baseline, queries)
    print("Scatter-gather answers identical to the unsharded baseline: yes")

    print("Staging 45 mutations through both write paths ...")
    for kind, file in generator.mutation_stream(24, 14, 7):
        getattr(router, kind)(file)
        getattr(baseline_pipeline, kind)(file)
    assert probe(router, queries) == probe(baseline, queries)
    print("  identical with mutations in flight: yes")

    router.compactor.drain()
    baseline_pipeline.compactor.drain()
    assert probe(router, queries) == probe(baseline, queries)
    print("  identical after per-shard compaction drain: yes")

    stats = router.stats()
    contacted, pruned = stats["shards_contacted"], stats["shards_pruned"]
    print(
        f"Router pruning: {pruned}/{contacted + pruned} shard contacts avoided "
        f"(Bloom summaries, bounding boxes, shared MaxD)"
    )
    busy = stats["shard_busy_seconds"]
    print(
        "Per-shard simulated busy seconds: "
        + ", ".join(f"{b * 1e3:.1f}ms" for b in busy)
        + f"  (busiest shard bounds throughput: {max(busy) * 1e3:.1f}ms)"
    )

    print("Serving the same workload through QueryService over the router ...")
    with QueryService(router) as service:
        results = service.execute_many(queries * 3)
        assert [result_fingerprint(r) for r in results] == probe(baseline, queries) * 3
        print(f"  cache: {service.cache!r}")
    client.close()
    print(f"Shard WALs under {workdir} (one per shard): "
          f"{sorted(p.name for p in workdir.glob('shard-*.wal'))}")


if __name__ == "__main__":
    main()
