"""Unified metrics: counters, gauges, fixed-bucket histograms — one registry.

Every number the stack computes (request counts and modeled latencies,
network byte counters, replication/failover counters) lives in one
process-wide :class:`MetricsRegistry`, so a single export shows the whole
deployment.  The registry is:

* **Label-aware.**  Instruments are keyed by ``(name, labels)``;
  ``registry.counter("repro_requests_total", kind="topk")`` get-or-creates
  one series per label set, Prometheus-style.
* **Prometheus-renderable.**  :meth:`render_prometheus` emits text
  exposition format (``# HELP`` / ``# TYPE``, cumulative
  ``_bucket{le=...}`` + ``+Inf``, ``_sum``, ``_count``) served by the
  ``metrics`` server op and the ``obs-export`` CLI subcommand.

Stdlib-only, like the rest of :mod:`repro.obs`.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
]

LabelItems = Tuple[Tuple[str, str], ...]

#: Default latency buckets (seconds): 100µs .. 10s, roughly 1-2-5.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


def _label_items(labels: Mapping[str, Any]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(items: LabelItems, extra: Sequence[Tuple[str, str]] = ()) -> str:
    merged = list(items) + list(extra)
    if not merged:
        return ""
    body = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in merged
    )
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class Counter:
    """Monotonically increasing count."""

    kind = "counter"

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += amount


class Gauge:
    """Point-in-time value."""

    kind = "gauge"

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount


class Histogram:
    """Fixed-bucket histogram: per-bucket counts plus sum and count.

    Buckets are upper bounds; observation routing is a bisect.  A
    snapshot holds non-cumulative per-bucket counts (plus an overflow
    slot); rendering produces the cumulative Prometheus ``_bucket`` series.
    """

    kind = "histogram"

    __slots__ = ("buckets", "counts", "sum", "count", "_lock")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        ordered = tuple(float(b) for b in buckets)
        if not ordered or any(
            b >= c for b, c in zip(ordered, ordered[1:])
        ):
            raise ValueError("buckets must be non-empty and strictly increasing")
        self.buckets = ordered
        self.counts = [0] * (len(ordered) + 1)  # final slot: > last bound
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect_left(self.buckets, value)
        with self._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "buckets": list(self.buckets),
                "counts": list(self.counts),
                "sum": self.sum,
                "count": self.count,
            }


class MetricsRegistry:
    """Get-or-create instrument store keyed by ``(name, labels)``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[Tuple[str, LabelItems], Any] = {}
        self._help: Dict[str, str] = {}
        self._buckets: Dict[str, Tuple[float, ...]] = {}

    # ------------------------------------------------------------------ factories
    def _get(
        self,
        name: str,
        labels: Mapping[str, Any],
        factory: Any,
        help_text: Optional[str],
    ) -> Any:
        key = (name, _label_items(labels))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = factory()
                self._instruments[key] = instrument
            if help_text and name not in self._help:
                self._help[name] = help_text
            return instrument

    def counter(
        self, name: str, help_text: Optional[str] = None, **labels: Any
    ) -> Counter:
        instrument = self._get(name, labels, Counter, help_text)
        if not isinstance(instrument, Counter):
            raise TypeError(f"{name} is registered as {instrument.kind}")
        return instrument

    def gauge(
        self, name: str, help_text: Optional[str] = None, **labels: Any
    ) -> Gauge:
        instrument = self._get(name, labels, Gauge, help_text)
        if not isinstance(instrument, Gauge):
            raise TypeError(f"{name} is registered as {instrument.kind}")
        return instrument

    def histogram(
        self,
        name: str,
        help_text: Optional[str] = None,
        buckets: Optional[Sequence[float]] = None,
        **labels: Any,
    ) -> Histogram:
        with self._lock:
            bounds = self._buckets.setdefault(
                name, tuple(buckets) if buckets else DEFAULT_BUCKETS
            )
        instrument = self._get(
            name, labels, lambda: Histogram(bounds), help_text
        )
        if not isinstance(instrument, Histogram):
            raise TypeError(f"{name} is registered as {instrument.kind}")
        return instrument

    # ------------------------------------------------------------------ introspection
    def series(self) -> List[Tuple[str, LabelItems, Any]]:
        with self._lock:
            return [
                (name, labels, instrument)
                for (name, labels), instrument in sorted(
                    self._instruments.items()
                )
            ]

    def clear(self) -> None:
        with self._lock:
            self._instruments.clear()
            self._help.clear()
            self._buckets.clear()

    # ------------------------------------------------------------------ render
    def render_prometheus(self) -> str:
        """Text exposition format (the `metrics` op / scrape payload)."""
        with self._lock:
            help_text = dict(self._help)
        lines: List[str] = []
        seen_header = set()
        for name, labels, instrument in self.series():
            if name not in seen_header:
                seen_header.add(name)
                lines.append(
                    f"# HELP {name} {help_text.get(name, name)}"
                )
                lines.append(f"# TYPE {name} {instrument.kind}")
            if isinstance(instrument, Histogram):
                snap = instrument.snapshot()
                cumulative = 0
                for bound, count in zip(snap["buckets"], snap["counts"]):
                    cumulative += count
                    lines.append(
                        f"{name}_bucket"
                        f"{_render_labels(labels, [('le', _format_value(bound))])}"
                        f" {cumulative}"
                    )
                lines.append(
                    f"{name}_bucket"
                    f"{_render_labels(labels, [('le', '+Inf')])}"
                    f" {snap['count']}"
                )
                lines.append(
                    f"{name}_sum{_render_labels(labels)}"
                    f" {_format_value(snap['sum'])}"
                )
                lines.append(
                    f"{name}_count{_render_labels(labels)} {snap['count']}"
                )
            else:
                lines.append(
                    f"{name}{_render_labels(labels)}"
                    f" {_format_value(instrument.value)}"
                )
        return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------- process-wide default
_default_registry = MetricsRegistry()
_registry_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide registry every layer's telemetry mirrors into."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry (tests); returns the old one."""
    global _default_registry
    with _registry_lock:
        previous, _default_registry = _default_registry, registry
        return previous
