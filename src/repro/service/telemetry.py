"""Service telemetry: the registry series every served request lands in.

A served request is recorded once, in the process-wide
:class:`~repro.obs.metrics.MetricsRegistry` that the ``metrics`` op and
``repro obs-export`` render.  :class:`ServiceTelemetry` binds those series
when it is built, so the request path increments instruments and never
looks one up by name and labels; :meth:`ServiceTelemetry.as_dict` reads the
same instruments back for ``stats()``.  Like every other series they belong
to the process: services built over one registry share them.

Request latencies are cost-model outputs, not measurements.  A histogram
keeps their sum and count, so ``stats()`` reports a mean; exact
percentiles come from the results a caller holds
(:func:`repro.service.loadgen.latency_summary`).
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from repro.obs import Histogram, get_registry
from repro.workloads.types import Query, kind_of

__all__ = ["QUERY_KINDS", "MUTATION_KINDS", "SOURCES", "ServiceTelemetry", "kind_of"]

#: Query classes, in reporting order.
QUERY_KINDS = ("point", "range", "topk")

#: Mutation classes (the ingest path through the service).
MUTATION_KINDS = ("insert", "delete", "modify")

#: Where a served read's answer came from.
SOURCES = ("engine", "cache", "negative")

_MODELED = "cost-model, not measured"


def _class_dict(
    kind: str, served: Mapping[str, int], latency: Histogram
) -> Dict[str, Any]:
    count = sum(served.values())
    hits = served["cache"] + served["negative"]
    return {
        "kind": kind,
        "count": count,
        "engine_executions": served["engine"],
        "cache_hits": served["cache"],
        "negative_hits": served["negative"],
        "cache_hit_rate": hits / count if count else 0.0,
        "mean_latency_s": latency.sum / latency.count if latency.count else 0.0,
        "total_latency_s": latency.sum,
    }


class ServiceTelemetry:
    """The service's series in the process-wide metrics registry."""

    def __init__(self) -> None:
        registry = get_registry()
        counter, gauge = registry.counter, registry.gauge
        self._requests = {
            (kind, source): counter(
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
                "repro_request_modeled_seconds",
                f"Request latency by query kind ({_MODELED})",
                kind=kind,
            )
            for kind in QUERY_KINDS
        }
        self._mutations = {
            kind: counter(
                "repro_mutations_total",
                "Mutations applied through the ingest path, by kind",
                kind=kind,
            )
            for kind in MUTATION_KINDS
        }
        self._mutation_latency = {
            kind: registry.histogram(
                "repro_mutation_modeled_seconds",
                f"Mutation latency by kind ({_MODELED})",
                kind=kind,
            )
            for kind in MUTATION_KINDS
        }
        # The remaining counts, under their stats() names.
        self._events = {
            "rejected": counter(
                "repro_requests_rejected_total",
                "Requests rejected at the admission window",
            ),
            # Deadlines that expired before the engine could finish (served
            # partial or failed, per the caller's policy).
            "deadline_expired": counter(
                "repro_deadline_expired_total",
                "Requests whose cooperative deadline expired",
            ),
            # Replication events drained from the store (see
            # ShardRouter.drain_replication_events).
            "failovers": counter(
                "repro_replication_failovers_total", "Primary promotions"
            ),
            "degraded_reads": counter(
                "repro_replication_degraded_reads_total",
                "Reads served while a replica group was unhealthy",
            ),
            "replica_retries": counter(
                "repro_replication_read_retries_total",
                "Internal replica read retries that kept requests alive",
            ),
        }
        # Transport counts, moved only when a network front door sits over
        # this service.
        connections = "Inbound connections, by admission outcome"
        net_requests = "Framed requests handled by the front door, by outcome"
        net_bytes = "Wire payload bytes, by direction"
        self._network = {
            "connections_accepted": counter(
                "repro_net_connections_total", connections, outcome="accepted"
            ),
            "connections_rejected": counter(
                "repro_net_connections_total", connections, outcome="rejected"
            ),
            "connections_active": gauge(
                "repro_net_connections_active", "Currently open client connections"
            ),
            "requests_served": counter(
                "repro_net_requests_total", net_requests, outcome="served"
            ),
            "requests_rejected": counter(
                "repro_net_requests_total", net_requests, outcome="rejected"
            ),
            "protocol_errors": counter(
                "repro_net_protocol_errors_total",
                "Malformed frames received by the front door",
            ),
            "bytes_in": counter("repro_net_bytes_total", net_bytes, direction="in"),
            "bytes_out": counter("repro_net_bytes_total", net_bytes, direction="out"),
        }

    # ------------------------------------------------------------------ recording
    def observe(self, query: Query, latency: float, *, source: str = "engine") -> None:
        """Record one served read; ``source`` is one of :data:`SOURCES`."""
        kind = kind_of(query)
        self._requests[kind, source].inc()
        self._request_latency[kind].observe(latency)

    def observe_mutation(self, kind: str, latency: float) -> None:
        """Record one mutation served by the ingest path."""
        self._mutations[kind].inc()
        self._mutation_latency[kind].observe(latency)

    def record_rejection(self) -> None:
        self._events["rejected"].inc()

    def record_deadline_expiry(self) -> None:
        """Count one request whose deadline ran out mid-execution."""
        self._events["deadline_expired"].inc()

    def record_replication_events(self, events: Mapping[str, int]) -> None:
        """Fold replication-event deltas into the service-level counters."""
        for name in ("failovers", "degraded_reads", "replica_retries"):
            amount = int(events.get(name, 0))
            if amount:
                self._events[name].inc(amount)

    def record_connection(self, *, accepted: bool) -> None:
        """Count one inbound connection (accepted or turned away)."""
        if accepted:
            self._network["connections_accepted"].inc()
            self._network["connections_active"].inc()
        else:
            self._network["connections_rejected"].inc()

    def record_disconnect(self) -> None:
        self._network["connections_active"].dec()

    def record_net_request(
        self, *, bytes_in: int = 0, bytes_out: int = 0, rejected: bool = False
    ) -> None:
        """Count one framed request handled by the front door."""
        self._network["requests_rejected" if rejected else "requests_served"].inc()
        if bytes_in:
            self._network["bytes_in"].inc(bytes_in)
        if bytes_out:
            self._network["bytes_out"].inc(bytes_out)

    def record_protocol_error(self) -> None:
        self._network["protocol_errors"].inc()

    # ------------------------------------------------------------------ reading
    def network(self) -> Dict[str, int]:
        """Front-door transport counts (zero without a network front door)."""
        return {name: int(i.value) for name, i in self._network.items()}

    def as_dict(self) -> Dict[str, Any]:
        """The ``stats()["telemetry"]`` document, read from the series."""
        classes = {
            kind: _class_dict(
                kind,
                {s: int(self._requests[kind, s].value) for s in SOURCES},
                self._request_latency[kind],
            )
            for kind in QUERY_KINDS
        }
        for kind in MUTATION_KINDS:
            # Mutations always execute on the engine side: nothing to cache.
            served = dict.fromkeys(SOURCES, 0)
            served["engine"] = int(self._mutations[kind].value)
            classes[kind] = _class_dict(kind, served, self._mutation_latency[kind])
        counters = [*self._requests.values(), *self._mutations.values()]
        d: Dict[str, Any] = {"total_requests": int(sum(c.value for c in counters))}
        d.update((name, int(c.value)) for name, c in self._events.items())
        d["network"] = self.network()
        d["classes"] = classes
        return d

    def __repr__(self) -> str:
        return f"ServiceTelemetry(requests={self.as_dict()['total_requests']})"
