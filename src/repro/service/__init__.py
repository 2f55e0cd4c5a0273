"""The query-service subsystem: serving semantics over a built SmartStore.

``repro.service`` turns the library facade into a service:

``repro.service.service``
    :class:`QueryService` — concurrent request execution with deterministic
    per-request seeds/home units, plus :class:`ServiceConfig`.
``repro.service.cache``
    :class:`ResultCache` — versioning-aware LRU for positive results and a
    Bloom-backed negative cache for point-query misses.
``repro.service.batching``
    :class:`RequestBatcher` (windowing + coalescing of identical queries)
    and :class:`AdmissionController` (bounded in-flight window).
``repro.service.telemetry``
    :class:`ServiceTelemetry` — per-query-type throughput and p50/p95/p99
    simulated-latency aggregation on top of the cluster metrics.
``repro.service.loadgen``
    :class:`LoadGenerator` — open- and closed-loop clients driving the
    service from synthetic workloads or trace-replay access streams
    (used by ``repro bench serve``, ``examples/service_demo.py`` and the
    service tests).
"""

from repro.service.batching import (
    AdmissionController,
    RequestBatcher,
    ServiceOverloadedError,
    ServiceRequest,
)
from repro.service.cache import CacheHit, CacheStats, ResultCache, result_fingerprint
from repro.service.loadgen import (
    LoadGenerator,
    LoadReport,
    repeated_stream,
    replay_point_stream,
)
from repro.service.service import QueryService, ServiceConfig
from repro.service.telemetry import (
    MUTATION_KINDS,
    QUERY_KINDS,
    QueryClassStats,
    ServiceTelemetry,
    kind_of,
)

__all__ = [
    "AdmissionController",
    "CacheHit",
    "CacheStats",
    "MUTATION_KINDS",
    "QUERY_KINDS",
    "LoadGenerator",
    "LoadReport",
    "QueryClassStats",
    "QueryService",
    "RequestBatcher",
    "ResultCache",
    "ServiceConfig",
    "ServiceOverloadedError",
    "ServiceRequest",
    "ServiceTelemetry",
    "kind_of",
    "repeated_stream",
    "replay_point_stream",
    "result_fingerprint",
]
