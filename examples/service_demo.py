#!/usr/bin/env python
"""The concurrent query service end to end.

Builds a SmartStore deployment over the synthetic MSN trace, then drives it
with a repeated-query stream two ways:

* through the service (``execute_many``: each request served on this
  thread) with the result cache enabled, and
* the same stream against an uncached, serial facade for comparison.

Also demonstrates versioning-aware invalidation: after inserting new files
the cache flushes itself, and a previously missing filename starts
resolving without any explicit cache management.

Run with:  python examples/service_demo.py
"""

from __future__ import annotations

import time

from repro import PointQuery, SmartStore, SmartStoreConfig
from repro.eval.reporting import format_table
from repro.metadata.file_metadata import FileMetadata
from repro.service import (
    QUERY_KINDS,
    QueryService,
    ServiceConfig,
    kind_of,
    latency_summary,
    repeated_stream,
)
from repro.traces import msn_trace
from repro.workloads.generator import QueryWorkloadGenerator


def main() -> None:
    files = msn_trace(scale=0.5, seed=29).file_metadata()
    store = SmartStore.build(files, SmartStoreConfig(num_units=30, seed=17))
    print(f"deployment: {store!r}")

    generator = QueryWorkloadGenerator(files, seed=13)
    base = (
        generator.point_queries(15, existing_fraction=0.8)
        + generator.range_queries(10, distribution="zipf")
        + generator.topk_queries(10, k=8)
    )
    stream = repeated_stream(base, 5, seed=3)
    print(f"workload: {len(base)} unique queries x5 = {len(stream)} requests\n")

    # Serial, uncached baseline.
    baseline_store = SmartStore.build(files, SmartStoreConfig(num_units=30, seed=17))
    started = time.perf_counter()
    for query in stream:
        baseline_store.execute(query)
    serial_wall = time.perf_counter() - started

    # The service, cache enabled.
    with QueryService(store, ServiceConfig(seed=5)) as service:
        started = time.perf_counter()
        results = service.execute_many(stream)
        service_wall = time.perf_counter() - started
        print(
            format_table(
                ["configuration", "wall (s)", "qps", "speedup"],
                [
                    ["serial uncached", f"{serial_wall:.3f}",
                     f"{len(stream) / serial_wall:.0f}", "1.00x"],
                    ["service (cache)", f"{service_wall:.3f}",
                     f"{len(stream) / service_wall:.0f}",
                     f"{serial_wall / service_wall:.2f}x"],
                ],
                title="throughput",
            )
        )
        # Where answers came from: the service's counters.  The modeled
        # (cost-model) latency percentiles: the results themselves.
        classes = service.stats()["telemetry"]["classes"]
        rows = []
        for kind in QUERY_KINDS:
            c = classes[kind]
            latencies = [
                r.latency
                for q, r in zip(stream, results)
                if kind_of(q) == kind
            ]
            summary = latency_summary(latencies)
            rows.append(
                [kind, c["count"], c["engine_executions"],
                 c["cache_hits"] + c["negative_hits"],
                 *(f"{summary[k] * 1e3:.3f}" for k in ("mean", "p50", "p95", "p99"))]
            )
        print(
            format_table(
                ["query type", "requests", "engine", "cache",
                 "mean (ms)", "p50 (ms)", "p95 (ms)", "p99 (ms)"],
                rows,
                title="service telemetry (modeled latency)",
            )
        )
        print(f"cache: {service.cache!r}")

        # Versioning-aware invalidation: a brand-new file becomes visible
        # through the service without any manual cache management.
        new_file = FileMetadata(
            path="/msn/new/fresh-arrival.dat",
            attributes=dict(files[0].attributes),
        )
        miss = service.execute(PointQuery(new_file.filename))
        store.insert_file(new_file)  # flushes the cache via the version chains
        hit = service.execute(PointQuery(new_file.filename))
        print(
            f"\n{new_file.filename}: before insert found={miss.found}, "
            f"after insert found={hit.found} "
            f"(cache invalidations: {service.cache.stats.invalidations})"
        )


if __name__ == "__main__":
    main()
