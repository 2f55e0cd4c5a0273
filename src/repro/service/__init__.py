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
    :class:`ServiceTelemetry` — per-query-type request counts and modeled
    latencies, recorded once in the process-wide metrics registry.
``repro.service.loadgen``
    :class:`LoadGenerator` — an open-loop client driving the
    service from synthetic workloads (used by ``repro bench serve``,
    ``examples/service_demo.py`` and the service tests), and :func:`latency_summary` over a run's results.
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
    latency_summary,
    repeated_stream,
)
from repro.service.service import QueryService, ServiceConfig
from repro.service.telemetry import (
    MUTATION_KINDS,
    QUERY_KINDS,
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
    "QueryService",
    "RequestBatcher",
    "ResultCache",
    "ServiceConfig",
    "ServiceOverloadedError",
    "ServiceRequest",
    "ServiceTelemetry",
    "kind_of",
    "latency_summary",
    "repeated_stream",
    "result_fingerprint",
]
