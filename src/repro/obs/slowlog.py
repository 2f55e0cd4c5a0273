"""Structured slow-query log: one JSON record per over-threshold request.

When a request's wall time crosses the configured threshold, the client
edge (local :class:`~repro.api.client.Client` or
:class:`~repro.server.remote.RemoteClient`) emits one self-contained
JSON record carrying everything needed to explain the latency without
re-running the request:

.. code-block:: json

    {
      "ts": "2026-08-08T12:00:00+00:00",
      "trace_id": "9f2c4e1a8b3d5f07",
      "kind": "topk",
      "wall_s": 0.1841,
      "latency_s": 0.1794,
      "threshold_s": 0.05,
      "complete": false,
      "deadline_expired": true,
      "attribution": {"topology": "sharded", "shards": 4},
      "epoch": "…",
      "spans": [{"name": "shard.scan", "duration_s": 0.17, "...": "..."}]
    }

``spans`` is the request's full span breakdown (present when tracing is
on), so the record doubles as an inline trace for the one request that
mattered.  Records go to a bounded in-memory ring (for tests and the
``stats`` surface) and optionally append to a JSONL file.

Disabled by default (threshold ``None``); stdlib-only.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Sequence, Union

__all__ = ["SlowQueryLog", "get_slowlog", "set_slowlog"]

DEFAULT_RING_CAPACITY = 256


class SlowQueryLog:
    """Threshold-gated structured event log for slow requests."""

    def __init__(
        self,
        threshold_s: Optional[float] = None,
        *,
        path: Optional[Union[str, Path]] = None,
        capacity: int = DEFAULT_RING_CAPACITY,
    ) -> None:
        if threshold_s is not None and threshold_s < 0:
            raise ValueError("threshold_s must be >= 0")
        self.threshold_s = threshold_s
        self.path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._records: Deque[Dict[str, Any]] = deque(maxlen=max(1, capacity))
        self.emitted = 0

    @property
    def enabled(self) -> bool:
        return self.threshold_s is not None

    def maybe_record(
        self,
        *,
        wall_s: float,
        kind: str,
        trace_id: Optional[str] = None,
        latency_s: Optional[float] = None,
        complete: bool = True,
        deadline_expired: bool = False,
        attribution: Optional[Dict[str, Any]] = None,
        epoch: Optional[str] = None,
        spans: Optional[Sequence[Any]] = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> Optional[Dict[str, Any]]:
        """Emit one record iff enabled and ``wall_s`` crosses the threshold.

        ``spans`` accepts :class:`~repro.obs.trace.Span` objects or
        pre-serialised dicts.  Returns the record (or ``None``); never
        raises — a logging failure must not fail the request.
        """
        if self.threshold_s is None or wall_s < self.threshold_s:
            return None
        span_dicts: List[Dict[str, Any]] = []
        for span in spans or ():
            try:
                payload = span.to_dict() if hasattr(span, "to_dict") else dict(span)
                payload["duration_s"] = max(
                    0.0,
                    float(payload.get("end_s", 0.0))
                    - float(payload.get("start_s", 0.0)),
                )
                span_dicts.append(payload)
            except (TypeError, ValueError):
                continue
        record: Dict[str, Any] = {
            "ts": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "trace_id": trace_id,
            "kind": kind,
            "wall_s": wall_s,
            "latency_s": latency_s if latency_s is not None else wall_s,
            "threshold_s": self.threshold_s,
            "complete": complete,
            "deadline_expired": deadline_expired,
            "attribution": dict(attribution or {}),
            "epoch": epoch,
            "spans": span_dicts,
        }
        if extra:
            record.update(extra)
        with self._lock:
            self._records.append(record)
            self.emitted += 1
        if self.path is not None:
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                with self.path.open("a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record, sort_keys=True) + "\n")
            except OSError:
                pass  # never fail the request over a log write
        return record

    def records(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._records)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self.emitted = 0


# ---------------------------------------------------------------------------- process-wide default
_default_slowlog = SlowQueryLog()
_slowlog_lock = threading.Lock()


def get_slowlog() -> SlowQueryLog:
    return _default_slowlog


def set_slowlog(slowlog: SlowQueryLog) -> SlowQueryLog:
    global _default_slowlog
    with _slowlog_lock:
        previous, _default_slowlog = _default_slowlog, slowlog
        return previous
