"""The harness's own span recorder.

Spans are recorded around calls into each layer's public functions, from
outside the program: name, start, end, the span that caused it and the id
of the op they belong to.  They are kept in memory (flat preallocated
arrays, so recording costs a few stores and disturbs the timed call as
little as possible) and written out as JSON-Lines when the run ends.
(Folding ``repro.obs`` spans into the same breakdown is a later change.)
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["SpanRecorder"]


class SpanRecorder:
    """In-memory span sink; :meth:`timed` wraps one call at one layer boundary."""

    def __init__(self, capacity: int) -> None:
        self._start = np.zeros(capacity, dtype=np.float64)
        self._end = np.zeros(capacity, dtype=np.float64)
        self._op = np.zeros(capacity, dtype=np.int64)
        self._label = np.zeros(capacity, dtype=np.int16)
        self._labels: List[Tuple[str, Optional[str], str]] = []  # (name, parent, kind)
        self._label_codes: Dict[Tuple[str, Optional[str], str], int] = {}
        self._count = 0

    def timed(
        self,
        name: str,
        parent: Optional[str],
        op_id: int,
        kind: str,
        fn: Callable[[Any], Any],
        arg: Any,
    ) -> Tuple[Any, float]:
        """Call ``fn(arg)`` inside a span; returns ``(result, seconds)``.

        ``parent`` names the enclosing layer's span of the same op id.
        """
        key = (name, parent, kind)
        code = self._label_codes.get(key)
        if code is None:
            code = self._label_codes[key] = len(self._labels)
            self._labels.append(key)
        at = self._count
        start = perf_counter()
        out = fn(arg)
        end = perf_counter()
        self._start[at] = start
        self._end[at] = end
        self._op[at] = op_id
        self._label[at] = code
        self._count = at + 1
        return out, end - start

    def __len__(self) -> int:
        return self._count

    def write(self, path: Path, workload: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for at in range(self._count):
                name, parent, kind = self._labels[self._label[at]]
                record = {
                    "workload": workload,
                    "op": int(self._op[at]),
                    "kind": kind,
                    "name": name,
                    "parent": parent,
                    "start": float(self._start[at]),
                    "end": float(self._end[at]),
                }
                fh.write(json.dumps(record) + "\n")
