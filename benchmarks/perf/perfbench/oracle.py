"""Benchmark-owned ground truth: a vectorised numpy mirror of the live
population, tracked through every acknowledged mutation.

* point — by filename over the live records;
* range — by raw-attribute window (inclusive bounds);
* top-k — by Euclidean distance in the engine's index space (``log1p`` on
  the schema's wide-range attributes, then min-max over the build-time
  population's bounds — the deployment's ``index_lower`` / ``index_upper``),
  ordered by ``(distance, file_id)``.

The oracle shares no code with the query path: only the schema and the
attribute-matrix helpers that turn records into rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.metadata.attributes import AttributeSchema, DEFAULT_SCHEMA
from repro.metadata.file_metadata import FileMetadata
from repro.metadata.matrix import attribute_matrix
from repro.workloads.types import PointQuery, RangeQuery, TopKQuery

__all__ = ["Oracle", "Tally"]

#: Reported and recomputed top-k distances must agree to this tolerance
#: (both are float64 sums of three squares; anything larger is a wrong row).
DISTANCE_TOLERANCE = 1e-9


@dataclass
class Tally:
    """Attempted / failed / recall accounting of one run."""

    attempted: int = 0
    failed: int = 0
    recalls: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:  # enough to diagnose, bounded in size
            self.failures.append(reason)

    @property
    def recall(self) -> float:
        return float(np.mean(self.recalls)) if self.recalls else 1.0

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.recalls.extend(other.recalls)
        self.failures.extend(other.failures[: 20 - len(self.failures)])


class Oracle:
    """The live population as dense arrays, answering all three query kinds.

    Attributes are stored one contiguous array per dimension (``[dim, row]``)
    so a scan touches only the constrained columns.
    """

    def __init__(
        self,
        files: Sequence[FileMetadata],
        schema: AttributeSchema = DEFAULT_SCHEMA,
        *,
        spare_rows: int = 0,
    ) -> None:
        self.schema = schema
        self._log_mask = np.array(schema.log_scale_mask(), dtype=bool)
        n = len(files)
        capacity = n + spare_rows
        raw = attribute_matrix(files, schema)
        index = self._to_index_space(raw)
        # Normalisation bounds are those of the build-time population; the
        # generated mutation streams never extend them.
        self.index_lower = index.min(axis=0)
        self.index_upper = index.max(axis=0)
        span = self.index_upper - self.index_lower
        self._span = np.where(span > 0, span, 1.0)
        self._raw = np.zeros((schema.dimension, capacity), dtype=np.float64)
        self._norm = np.zeros_like(self._raw)
        self._ids = np.zeros(capacity, dtype=np.int64)
        self._alive = np.zeros(capacity, dtype=bool)
        self._raw[:, :n] = raw.T
        self._norm[:, :n] = self._normalise(raw).T
        self._ids[:n] = [f.file_id for f in files]
        self._alive[:n] = True
        self._rows = n
        self._row_of: Dict[int, int] = {int(fid): row for row, fid in enumerate(self._ids[:n])}
        self._rows_named: Dict[str, List[int]] = {}
        for row, file in enumerate(files):
            self._rows_named.setdefault(file.filename, []).append(row)
        # Ground truth per query, valid until the next mutation (a hot
        # workload asks the same few hundred queries thousands of times).
        self._truth: Dict[Any, Any] = {}

    # ------------------------------------------------------------------ geometry
    def _to_index_space(self, raw: np.ndarray) -> np.ndarray:
        out = np.array(raw, dtype=np.float64, copy=True)
        out[..., self._log_mask] = np.log1p(np.maximum(out[..., self._log_mask], 0.0))
        return out

    def _normalise(self, raw: np.ndarray) -> np.ndarray:
        norm = (self._to_index_space(raw) - self.index_lower) / self._span
        return np.clip(norm, 0.0, 1.0)

    # ------------------------------------------------------------------ population
    def __len__(self) -> int:
        return int(self._alive[: self._rows].sum())

    def _write(self, row: int, file: FileMetadata) -> None:
        raw_row = attribute_matrix([file], self.schema)[0]
        self._raw[:, row] = raw_row
        self._norm[:, row] = self._normalise(raw_row)
        self._ids[row] = file.file_id
        self._alive[row] = True

    def apply(self, kind: str, file: FileMetadata) -> None:
        """Track one acknowledged mutation."""
        self._truth.clear()
        row = self._row_of.get(int(file.file_id))
        if kind == "delete":
            if row is not None:
                self._alive[row] = False
            return
        if row is None:
            row = self._rows
            if row >= len(self._ids):
                raise ValueError("oracle is out of spare rows; raise spare_rows")
            self._rows += 1
            self._row_of[int(file.file_id)] = row
            self._rows_named.setdefault(file.filename, []).append(row)
        self._write(row, file)

    def live_ids(self) -> np.ndarray:
        """File ids of the live records, in row order."""
        return self._ids[: self._rows][self._alive[: self._rows]]

    # ------------------------------------------------------------------ ground truth
    def point(self, query: PointQuery) -> np.ndarray:
        rows = [r for r in self._rows_named.get(query.filename, ()) if self._alive[r]]
        return np.sort(self._ids[rows]) if rows else np.empty(0, dtype=np.int64)

    def range(self, query: RangeQuery) -> np.ndarray:
        """Sorted ids of the live records inside the raw-attribute window."""
        n = self._rows
        rows: Optional[np.ndarray] = None
        for col, lo, hi in zip(self.schema.indices(query.attributes), query.lower, query.upper):
            values = self._raw[col, :n] if rows is None else self._raw[col, rows]
            inside = (values >= lo) & (values <= hi)
            rows = np.flatnonzero(inside) if rows is None else rows[inside]
        assert rows is not None  # a range query constrains at least one attribute
        return np.sort(self._ids[rows[self._alive[rows]]])

    def _target(self, query: TopKQuery) -> Tuple[List[int], np.ndarray]:
        cols = list(self.schema.indices(query.attributes))
        full = np.zeros(self.schema.dimension, dtype=np.float64)
        full[cols] = query.values
        return cols, self._normalise(full)[cols]

    def distances(self, query: TopKQuery, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """Index-space distance of ``rows`` (default: every row) to the
        query point; dead rows are infinitely far."""
        n = self._rows
        cols, target = self._target(query)
        total = np.zeros(n if rows is None else len(rows), dtype=np.float64)
        for col, t in zip(cols, target):
            delta = (self._norm[col, :n] if rows is None else self._norm[col, rows]) - t
            total += delta * delta
        dists = np.sqrt(total)
        dists[~(self._alive[:n] if rows is None else self._alive[rows])] = np.inf
        return dists

    def topk(
        self, query: TopKQuery, within: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids, distances)`` of the k nearest live records, ordered by
        ``(distance, file_id)``.

        ``within`` is an optional proven upper bound on the k-th distance
        (the largest distance among any k distinct live records): only
        rows at or inside it need ranking.
        """
        dists = self.distances(query)
        k = min(query.k, len(self))
        if k == 0:
            return np.empty(0, dtype=np.int64), np.empty(0)
        if within is None:
            within = float(np.partition(dists, k - 1)[k - 1])
        rows = np.flatnonzero(dists <= within)  # keeps every tie at the cut
        order = np.lexsort((self._ids[rows], dists[rows]))[:k]
        rows = rows[order]
        return self._ids[rows], dists[rows]

    # ------------------------------------------------------------------ checking
    def check(self, query: Any, answer: "Answer", tally: Tally) -> None:
        """Score one read against the current population."""
        tally.attempted += 1
        label = type(query).__name__
        if answer.error is not None:
            tally.fail(f"{label}: {answer.error}")
        elif not answer.complete:
            tally.fail(f"{label}: complete=False")
        elif isinstance(query, PointQuery):
            want = self._truth.get(query)
            if want is None:
                want = self._truth[query] = self.point(query)
            if not np.array_equal(np.sort(answer.ids), want):
                tally.fail(
                    f"point {query.filename!r}: got {answer.ids.tolist()} want {want.tolist()}"
                )
        elif isinstance(query, RangeQuery):
            want = self._truth.get(query)
            if want is None:
                want = self._truth[query] = self.range(query)
            if np.array_equal(answer.ids, want):  # both in file-id order
                tally.recalls.append(1.0)
                return
            hits = np.intersect1d(answer.ids, want).size
            if hits != answer.ids.size:
                tally.fail(f"{query}: {answer.ids.size - hits} returned files outside the window")
            tally.recalls.append(hits / want.size if want.size else 1.0)
        else:
            self._check_topk(query, answer, tally)

    def _check_topk(self, query: TopKQuery, answer: "Answer", tally: Tally) -> None:
        got = answer.ids
        known = self._truth.get(query)
        if (
            known is not None
            and answer.distances is not None
            and np.array_equal(got, known[0])
            and np.allclose(answer.distances, known[1], rtol=0.0, atol=DISTANCE_TOLERANCE)
        ):
            tally.recalls.append(1.0)
            return
        rows = np.asarray([self._row_of.get(int(fid), -1) for fid in got], dtype=np.int64)
        if np.any(rows < 0) or np.unique(got).size != got.size:
            tally.fail(f"{query}: returned an unknown or repeated file")
            tally.recalls.append(0.0)
            return
        true = self.distances(query, rows)
        if not np.all(np.isfinite(true)):
            tally.fail(f"{query}: returned a deleted file")
            tally.recalls.append(0.0)
            return
        if answer.distances is not None and not np.allclose(
            true, answer.distances, rtol=0.0, atol=DISTANCE_TOLERANCE
        ):
            tally.fail(f"{query}: reported distances differ from the index-space geometry")
        # k distinct live records bound the ideal k-th distance from above.
        within = float(true.max()) if got.size >= min(query.k, len(self)) and got.size else None
        want, want_dists = self._truth[query] = self.topk(query, within)
        if not want.size:
            tally.recalls.append(1.0)
            return
        # A returned file counts as ideal when it is in the ideal set or
        # ties its k-th distance to within float rounding.
        ideal = np.isin(got, want) | (true <= want_dists[-1] + DISTANCE_TOLERANCE)
        tally.recalls.append(min(int(ideal.sum()), want.size) / want.size)


@dataclass
class Answer:
    """What one read returned, reduced to what the oracle compares."""

    ids: np.ndarray
    distances: Optional[np.ndarray] = None
    complete: bool = True
    error: Optional[str] = None
    records: Optional[Dict[int, Dict[str, float]]] = None  # id -> attributes, on request

    @classmethod
    def of(cls, response: Any, *, with_records: bool = False) -> "Answer":
        """From a :class:`repro.api.response.Response` (or an exception)."""
        if isinstance(response, BaseException):
            return cls(np.empty(0, dtype=np.int64), error=f"{type(response).__name__}: {response}")
        files = response.files
        dists = response.distances
        return cls(
            ids=np.fromiter((f.file_id for f in files), dtype=np.int64, count=len(files)),
            distances=np.asarray(dists, dtype=np.float64) if dists else None,
            complete=bool(response.complete),
            records={f.file_id: dict(f.attributes) for f in files} if with_records else None,
        )
