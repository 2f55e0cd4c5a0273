"""Observability for the whole stack: tracing, metrics, slow-query log.

One import point for the three process-wide singletons every layer
shares:

* :func:`get_tracer` — distributed tracing (:mod:`repro.obs.trace`);
  off by default, spans are no-ops until :func:`configure` (or the
  ``REPRO_TRACE=1`` environment variable) enables it.
* :func:`get_registry` — the unified :class:`MetricsRegistry`
  (:mod:`repro.obs.metrics`); always on, mirrors every number
  ``ServiceTelemetry`` and friends already compute.
* :func:`get_slowlog` — the structured slow-query log
  (:mod:`repro.obs.slowlog`); enabled by giving it a threshold
  (``REPRO_SLOW_QUERY_S=0.05`` or ``configure(slow_query_threshold_s=...)``).
"""

from __future__ import annotations

import os
from typing import Optional, Union

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from .slowlog import SlowQueryLog, get_slowlog, set_slowlog
from .trace import (
    Span,
    SpanCollector,
    TraceContext,
    Tracer,
    context_from_wire,
    context_to_wire,
    get_tracer,
    set_tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanCollector",
    "SlowQueryLog",
    "TraceContext",
    "Tracer",
    "configure",
    "context_from_wire",
    "context_to_wire",
    "get_registry",
    "get_slowlog",
    "get_tracer",
    "set_registry",
    "set_slowlog",
    "set_tracer",
    "tracing_enabled",
]

_UNSET = object()


def configure(
    *,
    tracing: Optional[bool] = None,
    slow_query_threshold_s: object = _UNSET,
    slow_query_path: object = _UNSET,
) -> None:
    """Adjust process-wide observability; only passed arguments change.

    ``tracing=True/False`` flips span recording.  ``slow_query_threshold_s``
    (seconds, or ``None`` to disable) and ``slow_query_path`` (JSONL file,
    or ``None`` for in-memory only) reconfigure the slow-query log,
    preserving whichever of the two is not passed.
    """
    if tracing is not None:
        get_tracer().enabled = bool(tracing)
    if slow_query_threshold_s is not _UNSET or slow_query_path is not _UNSET:
        current = get_slowlog()
        threshold = (
            current.threshold_s
            if slow_query_threshold_s is _UNSET
            else slow_query_threshold_s
        )
        path = current.path if slow_query_path is _UNSET else slow_query_path
        set_slowlog(
            SlowQueryLog(
                threshold if threshold is None else float(threshold),  # type: ignore[arg-type]
                path=path,  # type: ignore[arg-type]
            )
        )


def tracing_enabled() -> bool:
    return get_tracer().enabled


def _bootstrap_from_env() -> None:
    """Honour REPRO_TRACE / REPRO_SLOW_QUERY_S / REPRO_SLOW_QUERY_LOG."""
    if os.environ.get("REPRO_TRACE", "").lower() in ("1", "true", "yes", "on"):
        configure(tracing=True)
    raw = os.environ.get("REPRO_SLOW_QUERY_S")
    if raw:
        try:
            threshold: Optional[float] = float(raw)
        except ValueError:
            threshold = None
        if threshold is not None:
            configure(
                slow_query_threshold_s=threshold,
                slow_query_path=os.environ.get("REPRO_SLOW_QUERY_LOG") or None,
            )


_bootstrap_from_env()
