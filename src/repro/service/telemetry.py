"""Service-level telemetry: throughput and latency percentiles per query type.

The cluster-level :class:`~repro.cluster.metrics.Metrics` counts *events*
(messages, probes, scans) for one query or one whole workload; the service
telemetry aggregates **per-query-type distributions** on top of it:

* request counts, split into engine executions, positive/negative cache
  hits and coalesced rides;
* simulated-latency percentiles (p50/p95/p99) and means;
* a merged :class:`Metrics` per query type (so the event counters of the
  whole service run stay available);
* wall-clock throughput over the measurement window.

Simulated latency distributions are deterministic for a given workload and
service seed (execution order does not change any request's simulated
cost); the wall-clock figures are whatever the host delivered.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.metrics import Metrics
from repro.obs import get_registry
from repro.workloads.types import Query, kind_of

__all__ = [
    "QUERY_KINDS",
    "MUTATION_KINDS",
    "NetworkStats",
    "QueryClassStats",
    "ServiceTelemetry",
    "kind_of",
]

#: Telemetry classes, in reporting order.
QUERY_KINDS = ("point", "range", "topk")

#: Mutation classes (the ingest path through the service).
MUTATION_KINDS = ("insert", "delete", "modify")

#: Where a served request's answer came from (see :class:`QueryClassStats`).
SOURCES = ("engine", "cache", "negative", "coalesced")

#: Percentiles reported for every query class.
PERCENTILES = (50.0, 95.0, 99.0)


@dataclass
class QueryClassStats:
    """Aggregated statistics of one query type."""

    kind: str
    count: int = 0
    engine_executions: int = 0
    cache_hits: int = 0
    negative_hits: int = 0
    coalesced: int = 0
    latencies: List[float] = field(default_factory=list)
    metrics: Metrics = field(default_factory=Metrics)

    # ------------------------------------------------------------------ recording
    def observe(
        self,
        latency: float,
        metrics: Optional[Metrics] = None,
        *,
        source: str = "engine",
    ) -> None:
        """Record one served request.

        ``source`` is ``"engine"``, ``"cache"``, ``"negative"`` or
        ``"coalesced"``.
        """
        self.count += 1
        self.latencies.append(latency)
        if metrics is not None:
            self.metrics.merge(metrics)
        if source == "engine":
            self.engine_executions += 1
        elif source == "cache":
            self.cache_hits += 1
        elif source == "negative":
            self.negative_hits += 1
        elif source == "coalesced":
            self.coalesced += 1
        else:
            raise ValueError(f"unknown request source {source!r}")

    # ------------------------------------------------------------------ summaries
    @property
    def mean_latency(self) -> float:
        return float(np.mean(self.latencies)) if self.latencies else 0.0

    @property
    def total_latency(self) -> float:
        return float(np.sum(self.latencies)) if self.latencies else 0.0

    def percentiles(self) -> Dict[str, float]:
        """Simulated-latency percentiles ``{"p50": ..., "p95": ..., "p99": ...}``."""
        if not self.latencies:
            return {f"p{int(p)}": 0.0 for p in PERCENTILES}
        values = np.percentile(np.asarray(self.latencies), PERCENTILES)
        return {f"p{int(p)}": float(v) for p, v in zip(PERCENTILES, values)}

    @property
    def cache_hit_rate(self) -> float:
        served = self.cache_hits + self.negative_hits
        return served / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, object]:
        d: Dict[str, object] = {
            "kind": self.kind,
            "count": self.count,
            "engine_executions": self.engine_executions,
            "cache_hits": self.cache_hits,
            "negative_hits": self.negative_hits,
            "coalesced": self.coalesced,
            "cache_hit_rate": self.cache_hit_rate,
            "mean_latency_s": self.mean_latency,
            "total_latency_s": self.total_latency,
        }
        d.update(self.percentiles())
        return d


@dataclass
class NetworkStats:
    """Front-door transport counters (zero unless the deployment serves
    remote clients — see :class:`repro.server.server.StoreServer`).

    ``worker_processes`` / ``worker_calls_failed`` mirror the
    process-per-shard execution mode: how many shard worker processes the
    deployment runs, and how many scatter calls to them failed (each such
    failure surfaced as an incomplete per-shard result, never a hang).
    """

    connections_accepted: int = 0
    connections_rejected: int = 0
    connections_active: int = 0
    requests_served: int = 0
    requests_rejected: int = 0
    protocol_errors: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    worker_processes: int = 0
    worker_calls_failed: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "connections_accepted": self.connections_accepted,
            "connections_rejected": self.connections_rejected,
            "connections_active": self.connections_active,
            "requests_served": self.requests_served,
            "requests_rejected": self.requests_rejected,
            "protocol_errors": self.protocol_errors,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "worker_processes": self.worker_processes,
            "worker_calls_failed": self.worker_calls_failed,
        }


class ServiceTelemetry:
    """Thread-safe aggregation of every request the service serves."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._classes: Dict[str, QueryClassStats] = {
            kind: QueryClassStats(kind) for kind in (*QUERY_KINDS, *MUTATION_KINDS)
        }
        self._wall_started: Optional[float] = None
        self._wall_elapsed = 0.0
        self.rejected = 0
        # Requests whose cooperative deadline expired before the engine
        # could finish (served partial or failed, per the caller's
        # policy) — the expiry is visible here either way.
        self.deadline_expired = 0
        # Replication events observed through the store (see
        # ShardRouter.drain_replication_events): primary promotions, reads
        # served while part of a replica group was unhealthy, and internal
        # read retries that kept those requests from failing.
        self.failovers = 0
        self.degraded_reads = 0
        self.replica_retries = 0
        # Transport counters, populated only when a network front door
        # (or a process-per-shard router) sits over this service.
        self.network = NetworkStats()
        # Every number recorded here is mirrored into the process-wide
        # metrics registry (repro.obs), so one Prometheus export carries
        # the whole deployment's telemetry alongside worker-side series.
        # The registry is captured here, and the series every request
        # touches are bound here too: the request path increments
        # instruments, it never looks them up by name and labels.
        registry = self._registry = get_registry()
        self._requests = {
            (kind, source): registry.counter(
                "repro_requests_total",
                "Requests served, by query kind and serving source",
                kind=kind,
                source=source,
            )
            for kind in QUERY_KINDS
            for source in SOURCES
        }
        self._request_latency = {
            kind: registry.histogram(
                "repro_request_latency_seconds",
                "Simulated request latency, by query kind",
                kind=kind,
            )
            for kind in QUERY_KINDS
        }
        self._mutations = {
            kind: registry.counter(
                "repro_mutations_total",
                "Mutations applied through the ingest path, by kind",
                kind=kind,
            )
            for kind in MUTATION_KINDS
        }
        self._mutation_latency = {
            kind: registry.histogram(
                "repro_mutation_latency_seconds",
                "Simulated mutation latency, by kind",
                kind=kind,
            )
            for kind in MUTATION_KINDS
        }
        self._rejections = registry.counter(
            "repro_requests_rejected_total",
            "Requests rejected at the admission window",
        )
        self._deadline_expiries = registry.counter(
            "repro_deadline_expired_total",
            "Requests whose cooperative deadline expired",
        )
        self._net_requests = {
            rejected: registry.counter(
                "repro_net_requests_total",
                "Framed requests handled by the front door, by outcome",
                outcome="rejected" if rejected else "served",
            )
            for rejected in (False, True)
        }
        self._net_bytes_in, self._net_bytes_out = (
            registry.counter(
                "repro_net_bytes_total",
                "Wire payload bytes, by direction",
                direction=direction,
            )
            for direction in ("in", "out")
        )

    # ------------------------------------------------------------------ wall clock
    def start_window(self) -> None:
        """Open (or re-open) the wall-clock measurement window."""
        with self._lock:
            if self._wall_started is None:
                self._wall_started = time.perf_counter()

    def stop_window(self) -> None:
        """Close the window, accumulating elapsed wall time."""
        with self._lock:
            if self._wall_started is not None:
                self._wall_elapsed += time.perf_counter() - self._wall_started
                self._wall_started = None

    def _wall_seconds_locked(self) -> float:
        """Closed windows plus the open one, if any (caller holds the lock)."""
        if self._wall_started is None:
            return self._wall_elapsed
        return self._wall_elapsed + time.perf_counter() - self._wall_started

    @property
    def wall_seconds(self) -> float:
        with self._lock:
            return self._wall_seconds_locked()

    # ------------------------------------------------------------------ recording
    def observe(
        self,
        query: Query,
        latency: float,
        metrics: Optional[Metrics] = None,
        *,
        source: str = "engine",
    ) -> None:
        kind = kind_of(query)
        with self._lock:
            self._classes[kind].observe(latency, metrics, source=source)
        self._requests[kind, source].inc()
        self._request_latency[kind].observe(latency)

    def observe_mutation(
        self,
        kind: str,
        latency: float,
        metrics: Optional[Metrics] = None,
    ) -> None:
        """Record one mutation served by the ingest path.

        Mutations always execute on the engine side (there is nothing to
        cache or coalesce), so they land in the ``engine`` source bucket of
        their own telemetry class.
        """
        if kind not in MUTATION_KINDS:
            raise ValueError(f"unknown mutation kind {kind!r}")
        with self._lock:
            self._classes[kind].observe(latency, metrics, source="engine")
        self._mutations[kind].inc()
        self._mutation_latency[kind].observe(latency)

    def record_rejection(self) -> None:
        with self._lock:
            self.rejected += 1
        self._rejections.inc()

    def record_deadline_expiry(self) -> None:
        """Count one request whose deadline ran out mid-execution."""
        with self._lock:
            self.deadline_expired += 1
        self._deadline_expiries.inc()

    def record_connection(self, *, accepted: bool) -> None:
        """Count one inbound connection (accepted or turned away)."""
        with self._lock:
            if accepted:
                self.network.connections_accepted += 1
                self.network.connections_active += 1
            else:
                self.network.connections_rejected += 1
            active = self.network.connections_active
        self._registry.counter(
            "repro_net_connections_total",
            "Inbound connections, by admission outcome",
            outcome="accepted" if accepted else "rejected",
        ).inc()
        self._registry.gauge(
            "repro_net_connections_active", "Currently open client connections"
        ).set(active)

    def record_disconnect(self) -> None:
        with self._lock:
            self.network.connections_active = max(
                0, self.network.connections_active - 1
            )
            active = self.network.connections_active
        self._registry.gauge(
            "repro_net_connections_active", "Currently open client connections"
        ).set(active)

    def record_net_request(
        self, *, bytes_in: int = 0, bytes_out: int = 0, rejected: bool = False
    ) -> None:
        """Count one framed request handled by the front door."""
        with self._lock:
            if rejected:
                self.network.requests_rejected += 1
            else:
                self.network.requests_served += 1
            self.network.bytes_in += bytes_in
            self.network.bytes_out += bytes_out
        self._net_requests[rejected].inc()
        if bytes_in:
            self._net_bytes_in.inc(bytes_in)
        if bytes_out:
            self._net_bytes_out.inc(bytes_out)

    def record_protocol_error(self) -> None:
        with self._lock:
            self.network.protocol_errors += 1
        self._registry.counter(
            "repro_net_protocol_errors_total",
            "Malformed frames received by the front door",
        ).inc()

    def record_worker_stats(self, *, processes: int, calls_failed: int) -> None:
        """Mirror the process-per-shard router's health into telemetry."""
        with self._lock:
            self.network.worker_processes = processes
            self.network.worker_calls_failed = calls_failed
        self._registry.gauge(
            "repro_worker_processes", "Live shard worker processes"
        ).set(processes)
        self._registry.gauge(
            "repro_worker_calls_failed",
            "Scatter calls that failed against a worker process",
        ).set(calls_failed)

    def record_replication_events(self, events: Dict[str, int]) -> None:
        """Fold replication-event deltas into the service-level counters."""
        failovers = int(events.get("failovers", 0))
        degraded = int(events.get("degraded_reads", 0))
        retries = int(events.get("replica_retries", 0))
        with self._lock:
            self.failovers += failovers
            self.degraded_reads += degraded
            self.replica_retries += retries
        if failovers:
            self._registry.counter(
                "repro_replication_failovers_total", "Primary promotions"
            ).inc(failovers)
        if degraded:
            self._registry.counter(
                "repro_replication_degraded_reads_total",
                "Reads served while a replica group was unhealthy",
            ).inc(degraded)
        if retries:
            self._registry.counter(
                "repro_replication_read_retries_total",
                "Internal replica read retries that kept requests alive",
            ).inc(retries)

    # ------------------------------------------------------------------ reading
    def query_class(self, kind: str) -> QueryClassStats:
        return self._classes[kind]

    @property
    def total_requests(self) -> int:
        with self._lock:
            return sum(c.count for c in self._classes.values())

    @property
    def throughput_qps(self) -> float:
        """Requests served per wall-clock second over the open windows."""
        wall = self.wall_seconds
        return self.total_requests / wall if wall > 0 else 0.0

    def as_dict(self) -> Dict[str, object]:
        with self._lock:
            return {
                "total_requests": sum(c.count for c in self._classes.values()),
                "wall_seconds": self._wall_seconds_locked(),
                "rejected": self.rejected,
                "deadline_expired": self.deadline_expired,
                "failovers": self.failovers,
                "degraded_reads": self.degraded_reads,
                "replica_retries": self.replica_retries,
                "network": self.network.as_dict(),
                "classes": {k: c.as_dict() for k, c in self._classes.items()},
            }

    def report_rows(self) -> List[List[object]]:
        """Rows for :func:`repro.eval.reporting.format_table`."""
        rows: List[List[object]] = []
        with self._lock:
            for kind in (*QUERY_KINDS, *MUTATION_KINDS):
                c = self._classes[kind]
                if c.count == 0:
                    continue
                p = c.percentiles()
                rows.append(
                    [
                        kind,
                        c.count,
                        c.engine_executions,
                        c.cache_hits + c.negative_hits,
                        c.coalesced,
                        f"{c.mean_latency * 1e3:.3f}",
                        f"{p['p50'] * 1e3:.3f}",
                        f"{p['p95'] * 1e3:.3f}",
                        f"{p['p99'] * 1e3:.3f}",
                    ]
                )
        return rows

    def __repr__(self) -> str:
        return (
            f"ServiceTelemetry(requests={self.total_requests}, "
            f"wall={self.wall_seconds:.3f}s, qps={self.throughput_qps:.1f})"
        )
