#!/usr/bin/env python
"""Observability end to end: tracing, metrics, and the slow-query log.

This walks :mod:`repro.obs` across a real deployment, inside one script:

1. **trace** — enable tracing, run a sharded + replicated workload, and
   watch one request become a span tree covering every stage boundary
   (client edge, admission, cache lookup, engine, per-shard scatter,
   replica read and catch-up);
2. **export** — write the spans as JSONL and as Chrome trace-event JSON
   (open ``obs_demo/trace.chrome.json`` at https://ui.perfetto.dev or
   ``chrome://tracing`` to see the waterfall);
3. **metrics** — render the process-wide
   :class:`~repro.obs.metrics.MetricsRegistry` (request counters,
   modeled-latency histograms, replication counters) as Prometheus text
   exposition — ``*_modeled_seconds`` series hold cost-model latencies,
   not measured ones;
4. **slow-query log** — set a threshold and capture one structured
   record per slow request, span breakdown included.

Against a *served* deployment the same data is one op away:
``repro serve --spec spec.json --trace`` then
``repro obs-export --address tcp://...``.

Run with:  python examples/observability_demo.py
"""

from __future__ import annotations

from pathlib import Path

from repro.api import DeploymentSpec, connect
from repro.core.smartstore import SmartStoreConfig
from repro.obs import configure, get_registry, get_slowlog, get_tracer
from repro.traces import msn_trace
from repro.workloads.generator import QueryWorkloadGenerator

OUT_DIR = Path("obs_demo")


def main() -> None:
    # Observability must be configured before the deployment is built so
    # every layer sees the switches.
    configure(tracing=True, slow_query_threshold_s=0.0)

    files = msn_trace(scale=0.3, seed=29).file_metadata()
    spec = DeploymentSpec(
        topology="sharded_replicated",
        store=SmartStoreConfig(num_units=8, seed=7, search_breadth=48),
        shards=2,
        replicas=1,
    )
    generator = QueryWorkloadGenerator(files, seed=17)
    queries = generator.range_queries(3) + generator.topk_queries(3, k=8)

    # ------------------------------------------------ 1. a traced workload
    with connect(spec, files) as client:
        responses = [client.execute(q) for q in queries]
        client.delete(files[0])  # mutations trace too

    tracer = get_tracer()
    last = responses[-1]
    print(f"{len(responses)} traced queries; last trace_id={last.trace_id}")
    spans = sorted(
        tracer.collector.spans_for(last.trace_id), key=lambda s: s.start_s
    )
    print(f"one request, {len(spans)} spans:")
    for span in spans:
        indent = "  " if span.parent_id else ""
        print(
            f"  {indent}{span.name:22s} {span.duration_s * 1e3:8.3f} ms  "
            f"{span.tags}"
        )

    # --------------------------------------------------- 2. export formats
    OUT_DIR.mkdir(exist_ok=True)
    jsonl = tracer.collector.export_jsonl(OUT_DIR / "trace.jsonl")
    chrome = tracer.collector.export_chrome(OUT_DIR / "trace.chrome.json")
    print(f"\nwrote {jsonl} ({len(tracer.collector)} spans)")
    print(f"wrote {chrome}  <- open at https://ui.perfetto.dev")

    # ------------------------------------------------------- 3. metrics
    text = get_registry().render_prometheus()
    (OUT_DIR / "metrics.prom").write_text(text, encoding="utf-8")
    interesting = [
        line
        for line in text.splitlines()
        if line.startswith(
            (
                "# HELP repro_request_modeled_seconds",
                "repro_request_modeled_seconds_count",
                "repro_requests_total",
                "repro_mutations_total",
            )
        )
        and not line.endswith(" 0")
    ]
    print("\nPrometheus exposition (excerpt):")
    for line in interesting[:12]:
        print(f"  {line}")
    print(f"  ... full exposition in {OUT_DIR / 'metrics.prom'}")

    # -------------------------------------------------- 4. slow-query log
    records = get_slowlog().records()
    print(f"\nslow-query log captured {len(records)} records "
          f"(threshold 0s: everything is 'slow')")
    record = records[-1]
    print(
        f"last record: kind={record['kind']} wall={record['wall_s'] * 1e3:.2f}ms "
        f"complete={record['complete']} spans={len(record['spans'])}"
    )

    # The demo leaves global state clean for embedders.
    configure(tracing=False, slow_query_threshold_s=None)


if __name__ == "__main__":
    main()
