"""Distributed tracing: one request's waterfall across every layer.

A :class:`TraceContext` — a trace id plus the id of the span the next
layer should parent under — is created at the client (or server) edge of
a request and travels with it, through
:class:`~repro.api.options.RequestOptions` and the wire-protocol
envelope.  Every stage boundary the request crosses (admission wait,
cache lookup, per-shard scatter scan, replica selection and
catch-up, WAL append/fsync, serialisation) records one :class:`Span` into
the process-wide bounded :class:`SpanCollector`.

Design constraints, in order:

* **Cheap when disabled.**  Tracing is off by default; every
  instrumentation point costs one attribute check and returns a shared
  no-op context manager.  The hot path never allocates for untraced
  requests.
* **Deterministic shape.**  Span *ids* are drawn from per-tracer
  counters and span *structure* (names, parentage, counts) is a pure
  function of what the request did — thread scheduling and the simulated
  clock cannot change the tree, so trace-shape assertions are testable.
  Timestamps are wall-clock (``time.perf_counter`` relative to the
  collector's origin) and only feed the waterfall rendering.
* **Degrade, never fail.**  A malformed trace header from the wire
  (:func:`context_from_wire`) yields a *fresh* trace, not an error — a
  bad peer must not be able to fail requests by corrupting telemetry.

Spans export as JSONL (one span object per line) and as the Chrome
trace-event format (``[{"ph": "X", ...}]``), so a trace file opens
directly in Perfetto / ``chrome://tracing``.

This module is stdlib-only: every layer of the stack (including the
dependency-free :mod:`repro.api.options`) may import it.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Deque, Dict, Iterator, List, Optional, Union

__all__ = [
    "Span",
    "SpanCollector",
    "TraceContext",
    "Tracer",
    "context_from_wire",
    "context_to_wire",
    "get_tracer",
    "set_tracer",
]

PathLike = Union[str, Path]

#: Bound on one collector's retained spans (oldest evicted first).
DEFAULT_COLLECTOR_CAPACITY = 65536

#: Trace/span ids longer than this are treated as malformed.
MAX_ID_LENGTH = 128


def _new_trace_id() -> str:
    return uuid.uuid4().hex[:16]


def _valid_id(value: Any) -> bool:
    return (
        isinstance(value, str)
        and 0 < len(value) <= MAX_ID_LENGTH
        and value.isprintable()
    )


@dataclass(frozen=True)
class TraceContext:
    """Where in a trace the next span belongs: trace id + parent span id.

    ``span_id`` is the id of the span the *next* child should parent
    under (empty string = root level).  Contexts are immutable; entering
    a span yields a new context for the layers below.
    """

    trace_id: str
    span_id: str = ""

    @classmethod
    def new(cls) -> "TraceContext":
        return cls(trace_id=_new_trace_id(), span_id="")


def context_to_wire(ctx: Optional[TraceContext]) -> Optional[Dict[str, str]]:
    """Serialise a context for a protocol envelope (None stays None)."""
    if ctx is None:
        return None
    return {"trace_id": ctx.trace_id, "span_id": ctx.span_id}


def context_from_wire(payload: Any) -> Optional[TraceContext]:
    """Rebuild a context from a wire payload, degrading on malformation.

    Any shape of garbage — wrong type, missing/oversized/unprintable
    ids — yields ``None`` (the receiver starts a fresh trace) rather
    than an error: telemetry corruption must never fail a request.
    """
    if not isinstance(payload, dict):
        return None
    trace_id = payload.get("trace_id")
    if not _valid_id(trace_id):
        return None
    span_id = payload.get("span_id", "")
    if span_id is None:
        span_id = ""
    if not isinstance(span_id, str) or len(span_id) > MAX_ID_LENGTH:
        return None
    return TraceContext(trace_id=str(trace_id), span_id=str(span_id))


@dataclass
class Span:
    """One recorded stage of one traced request."""

    trace_id: str
    span_id: str
    parent_id: str
    name: str
    start_s: float
    end_s: float = 0.0
    tags: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return max(0.0, self.end_s - self.start_s)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "tags": dict(self.tags),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Span":
        return cls(
            trace_id=str(payload["trace_id"]),
            span_id=str(payload["span_id"]),
            parent_id=str(payload.get("parent_id", "")),
            name=str(payload["name"]),
            start_s=float(payload.get("start_s", 0.0)),
            end_s=float(payload.get("end_s", 0.0)),
            tags=dict(payload.get("tags", {})),
        )


class SpanCollector:
    """Bounded, thread-safe sink for finished spans.

    The bound makes a long-lived traced deployment safe: the collector
    retains the most recent ``capacity`` spans and counts what it had to
    drop.  Export never clears — :meth:`take` does, per trace, for a
    consumer that hands a trace's spans on.
    """

    def __init__(self, capacity: int = DEFAULT_COLLECTOR_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._spans: Deque[Span] = deque()
        self.dropped = 0

    def record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)
            while len(self._spans) > self.capacity:
                self._spans.popleft()
                self.dropped += 1

    def ingest(self, payloads: Any) -> int:
        """Fold spans shipped from another process (best effort).

        Malformed entries are skipped, not raised: a peer's telemetry
        must never fail the command that reads it.
        """
        if not isinstance(payloads, (list, tuple)):
            return 0
        count = 0
        for payload in payloads:
            try:
                self.record(Span.from_dict(payload))
                count += 1
            except (KeyError, TypeError, ValueError):
                continue
        return count

    def snapshot(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def spans_for(self, trace_id: str) -> List[Span]:
        with self._lock:
            return [s for s in self._spans if s.trace_id == trace_id]

    def take(self, trace_id: str) -> List[Span]:
        """Remove and return every retained span of one trace."""
        with self._lock:
            taken = [s for s in self._spans if s.trace_id == trace_id]
            if taken:
                self._spans = deque(
                    s for s in self._spans if s.trace_id != trace_id
                )
            return taken

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    # ------------------------------------------------------------------ export
    def export_jsonl(self, path: PathLike) -> Path:
        """One span object per line — the machine-diffable form."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in self.snapshot():
                fh.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
        return path

    def export_chrome(self, path: PathLike) -> Path:
        """Chrome trace-event JSON — opens directly in Perfetto.

        Spans become complete events (``"ph": "X"``); each trace renders
        as its own "process" row so concurrent requests do not overlap.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = self.snapshot()
        origin = min((s.start_s for s in spans), default=0.0)
        trace_rows: Dict[str, int] = {}
        events: List[Dict[str, Any]] = []
        for span in spans:
            pid = trace_rows.setdefault(span.trace_id, len(trace_rows) + 1)
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": (span.start_s - origin) * 1e6,
                    "dur": span.duration_s * 1e6,
                    "pid": pid,
                    "tid": 1,
                    "args": {
                        "trace_id": span.trace_id,
                        "span_id": span.span_id,
                        "parent_id": span.parent_id,
                        **{str(k): v for k, v in span.tags.items()},
                    },
                }
            )
        document = {
            "traceEvents": events,
            "metadata": {"tool": "repro.obs", "pid_is_trace": True},
        }
        with path.open("w", encoding="utf-8") as fh:
            json.dump(document, fh)
            fh.write("\n")
        return path


class _NoopSpan:
    """The shared do-nothing span handle untraced code paths receive."""

    __slots__ = ()

    tags: Dict[str, Any] = {}
    span_id = ""
    trace_id = ""

    def tag(self, **_tags: Any) -> None:
        return None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


class _ActiveSpan:
    """Context manager recording one span and scoping the child context."""

    __slots__ = ("_tracer", "_span", "_token")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span
        self._token: Optional[TraceContext] = None

    @property
    def tags(self) -> Dict[str, Any]:
        return self._span.tags

    @property
    def span_id(self) -> str:
        return self._span.span_id

    @property
    def trace_id(self) -> str:
        return self._span.trace_id

    def tag(self, **tags: Any) -> None:
        self._span.tags.update(tags)

    def __enter__(self) -> "_ActiveSpan":
        self._token = self._tracer._push(
            TraceContext(self._span.trace_id, self._span.span_id)
        )
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._span.end_s = time.perf_counter()
        self._tracer._pop(self._token)
        self._tracer.collector.record(self._span)


class Tracer:
    """Span factory over one collector, with a thread-local active context.

    ``span(name)`` parents under the calling thread's current context
    (set by the enclosing span) and is a no-op when tracing is disabled
    *or* no context is active — lower layers (WAL, replica group) only
    record inside a traced request.  ``root(name)`` starts a trace
    explicitly; the client/server edges call it.
    """

    def __init__(
        self, collector: Optional[SpanCollector] = None, *, enabled: bool = False
    ) -> None:
        self.collector = collector if collector is not None else SpanCollector()
        self.enabled = enabled
        self._local = threading.local()
        self._counter_lock = threading.Lock()
        self._next_span = 0
        # Distinguishes span ids minted by different processes (a client's
        # and its server's spans can meet in one collector, obs-export).
        self._prefix = f"{os.getpid() % 0xFFFF:04x}"

    # ------------------------------------------------------------------ context plumbing
    def current(self) -> Optional[TraceContext]:
        return getattr(self._local, "ctx", None)

    def _push(self, ctx: TraceContext) -> Optional[TraceContext]:
        previous = self.current()
        self._local.ctx = ctx
        return previous

    def _pop(self, previous: Optional[TraceContext]) -> None:
        self._local.ctx = previous

    def _next_span_id(self) -> str:
        with self._counter_lock:
            self._next_span += 1
            return f"{self._prefix}-{self._next_span}"

    # ------------------------------------------------------------------ span factories
    def span(
        self,
        name: str,
        ctx: Optional[TraceContext] = None,
        **tags: Any,
    ) -> Union[_ActiveSpan, _NoopSpan]:
        """A child span under ``ctx`` (default: the thread's current one).

        No-op when disabled or when no context is available: spans never
        invent a trace mid-stack.
        """
        if not self.enabled:
            return _NOOP_SPAN
        if ctx is None:
            ctx = self.current()
            if ctx is None:
                return _NOOP_SPAN
        span = Span(
            trace_id=ctx.trace_id,
            span_id=self._next_span_id(),
            parent_id=ctx.span_id,
            name=name,
            start_s=time.perf_counter(),
            tags=dict(tags),
        )
        return _ActiveSpan(self, span)

    def root(
        self,
        name: str,
        trace_id: Optional[str] = None,
        **tags: Any,
    ) -> Union[_ActiveSpan, _NoopSpan]:
        """Start (or continue, given ``trace_id``) a trace with a root span."""
        if not self.enabled:
            return _NOOP_SPAN
        ctx = TraceContext(
            trace_id=trace_id if _valid_id(trace_id) else _new_trace_id(),
            span_id="",
        )
        return self.span(name, ctx, **tags)


# ---------------------------------------------------------------------------- process-wide default
_default_tracer = Tracer()
_tracer_lock = threading.Lock()


def get_tracer() -> Tracer:
    """The process-wide tracer every instrumentation point uses."""
    return _default_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the process-wide tracer (tests, workers); returns the old one."""
    global _default_tracer
    with _tracer_lock:
        previous, _default_tracer = _default_tracer, tracer
        return previous
