"""The query-service subsystem: serving semantics over a built SmartStore.

``repro.service`` turns the library facade into a service:

``repro.service.service``
    :class:`QueryService` — concurrent run-to-completion request execution
    with deterministic per-request seeds/home units, plus
    :class:`ServiceConfig`.
``repro.service.cache``
    :class:`ResultCache` — versioning-aware LRU for positive results and a
    Bloom-backed negative cache for point-query misses.
``repro.service.admission``
    :class:`AdmissionController` (bounded in-flight window) and the
    :class:`ServiceRequest` it admits.
``repro.service.telemetry``
    :class:`ServiceTelemetry` — per-query-type request counts and modeled
    latencies, recorded once in the process-wide metrics registry.
``repro.service.loadgen``
    :func:`repeated_stream` — the repeated-query stream of the caching
    ablation (``repro bench serve``, ``examples/service_demo.py``) — and
    :func:`latency_summary` over a run's results.
"""

from repro.service.admission import (
    AdmissionController,
    ServiceOverloadedError,
    ServiceRequest,
)
from repro.service.cache import CacheHit, CacheStats, ResultCache, result_fingerprint
from repro.service.loadgen import latency_summary, repeated_stream
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
    "QueryService",
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
