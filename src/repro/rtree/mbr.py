"""Minimum Bounding Rectangles (MBRs).

An MBR is the minimal axis-aligned hyper-rectangle enclosing a set of points
in the D-dimensional attribute space.  Every node of a (semantic) R-tree
advertises the MBR of everything reachable through it, which is what lets
range and top-k queries prune entire subtrees (§2.2, §3.3).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

__all__ = ["MBR", "MBRStack"]


class MBR:
    """An axis-aligned minimum bounding rectangle.

    Instances are immutable: every combining operation returns a new MBR.
    ``lower`` and ``upper`` are float arrays of equal length (the attribute
    dimensionality), with ``lower <= upper`` element-wise.
    """

    __slots__ = ("lower", "upper")

    def __init__(self, lower: Sequence[float], upper: Sequence[float]) -> None:
        lower = np.asarray(lower, dtype=np.float64)
        upper = np.asarray(upper, dtype=np.float64)
        if lower.ndim != 1 or upper.ndim != 1 or lower.shape != upper.shape:
            raise ValueError(
                f"lower/upper must be 1-D arrays of equal length, got shapes "
                f"{lower.shape} and {upper.shape}"
            )
        if lower.size == 0:
            raise ValueError("an MBR must have at least one dimension")
        if np.any(lower > upper):
            raise ValueError(f"lower bound exceeds upper bound: {lower} > {upper}")
        self.lower = lower
        self.upper = upper
        self.lower.setflags(write=False)
        self.upper.setflags(write=False)

    # ------------------------------------------------------------------ constructors
    @classmethod
    def from_point(cls, point: Sequence[float]) -> "MBR":
        """Degenerate MBR covering a single point."""
        point = np.asarray(point, dtype=np.float64)
        return cls(point, point.copy())

    @classmethod
    def from_points(cls, points: np.ndarray) -> "MBR":
        """Tight MBR of an ``(n, D)`` point matrix."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim == 1:
            points = points[None, :]
        if points.size == 0:
            raise ValueError("cannot build an MBR from an empty point set")
        return cls(points.min(axis=0), points.max(axis=0))

    @classmethod
    def union_of(cls, mbrs: Iterable["MBR"]) -> "MBR":
        """Smallest MBR containing every MBR in ``mbrs`` (must be non-empty)."""
        mbrs = list(mbrs)
        if not mbrs:
            raise ValueError("cannot compute the union of zero MBRs")
        lower = np.minimum.reduce([m.lower for m in mbrs])
        upper = np.maximum.reduce([m.upper for m in mbrs])
        return cls(lower, upper)

    # ------------------------------------------------------------------ predicates
    @property
    def dimension(self) -> int:
        return self.lower.shape[0]

    def contains_point(self, point: Sequence[float]) -> bool:
        """True when ``point`` lies inside (or on the boundary of) this MBR."""
        point = np.asarray(point, dtype=np.float64)
        return bool(np.all(point >= self.lower) and np.all(point <= self.upper))

    def contains(self, other: "MBR") -> bool:
        """True when ``other`` lies entirely within this MBR."""
        return bool(np.all(other.lower >= self.lower) and np.all(other.upper <= self.upper))

    def intersects(self, other: "MBR") -> bool:
        """True when the two rectangles share at least one point."""
        return bool(np.all(self.lower <= other.upper) and np.all(other.lower <= self.upper))

    # ------------------------------------------------------------------ measures
    def area(self) -> float:
        """Hyper-volume of the rectangle (product of side lengths)."""
        return float(np.prod(self.upper - self.lower))

    def margin(self) -> float:
        """Sum of side lengths (the "perimeter" measure used by some splits)."""
        return float(np.sum(self.upper - self.lower))

    def union(self, other: "MBR") -> "MBR":
        """Smallest MBR covering both rectangles."""
        return MBR(np.minimum(self.lower, other.lower), np.maximum(self.upper, other.upper))

    def intersection_area(self, other: "MBR") -> float:
        """Hyper-volume of the overlap region (0 when disjoint)."""
        overlap = np.minimum(self.upper, other.upper) - np.maximum(self.lower, other.lower)
        if np.any(overlap < 0):
            return 0.0
        return float(np.prod(overlap))

    def enlargement(self, other: "MBR") -> float:
        """Area increase needed for this MBR to also cover ``other``.

        This is the ChooseLeaf criterion of Guttman's insertion algorithm.
        """
        return self.union(other).area() - self.area()

    def extend_point(self, point: Sequence[float]) -> "MBR":
        """Smallest MBR covering this rectangle and ``point``."""
        point = np.asarray(point, dtype=np.float64)
        return MBR(np.minimum(self.lower, point), np.maximum(self.upper, point))

    def center(self) -> np.ndarray:
        """Geometric centre of the rectangle."""
        return (self.lower + self.upper) / 2.0

    def min_distance(self, point: Sequence[float]) -> float:
        """MINDIST: Euclidean distance from ``point`` to the nearest face.

        Zero when the point lies inside the rectangle.  This lower bound is
        what makes best-first k-NN search admissible.
        """
        point = np.asarray(point, dtype=np.float64)
        below = np.maximum(self.lower - point, 0.0)
        above = np.maximum(point - self.upper, 0.0)
        delta = np.maximum(below, above)
        return float(np.sqrt(np.sum(delta**2)))

    def max_distance(self, point: Sequence[float]) -> float:
        """Distance from ``point`` to the farthest corner of the rectangle."""
        point = np.asarray(point, dtype=np.float64)
        delta = np.maximum(np.abs(point - self.lower), np.abs(point - self.upper))
        return float(np.sqrt(np.sum(delta**2)))

    # ------------------------------------------------------------------ dunder
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MBR):
            return NotImplemented
        return bool(np.array_equal(self.lower, other.lower) and np.array_equal(self.upper, other.upper))

    def __hash__(self) -> int:
        return hash((self.lower.tobytes(), self.upper.tobytes()))

    def __repr__(self) -> str:
        lo = np.array2string(self.lower, precision=3, separator=",")
        hi = np.array2string(self.upper, precision=3, separator=",")
        return f"MBR(lower={lo}, upper={hi})"

    def as_tuple(self) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
        """Plain-tuple form, convenient for serialisation and tests."""
        return tuple(self.lower.tolist()), tuple(self.upper.tolist())


class MBRStack:
    """The MBRs of many nodes as stacked rows, tested with one kernel.

    ``lower`` / ``upper`` are ``(n, D)`` arrays (row ``i`` is node ``i``'s
    box) and ``present`` masks the rows whose node has an MBR at all: an
    empty node never intersects a window and sits at infinite MINDIST,
    exactly like the single-node tests.  The arithmetic is the single-node
    arithmetic applied row-wise, so every value is bit-identical to it —
    which is why columns are selected with :meth:`columns` (C-ordered rows:
    a row-wise sum then adds in the order a 1-D sum does).
    """

    __slots__ = ("lower", "upper", "present")

    def __init__(self, mbrs: Sequence[Optional[MBR]]) -> None:
        self.present = np.fromiter((m is not None for m in mbrs), dtype=bool, count=len(mbrs))
        dimension = next((m.dimension for m in mbrs if m is not None), 0)
        self.lower = np.zeros((len(mbrs), dimension), dtype=np.float64)
        self.upper = np.zeros((len(mbrs), dimension), dtype=np.float64)
        for row, mbr in enumerate(mbrs):
            if mbr is not None:
                self.lower[row] = mbr.lower
                self.upper[row] = mbr.upper

    def __len__(self) -> int:
        return self.present.shape[0]

    def columns(self, attr_indices: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """``(lower, upper)`` restricted to the given attributes, each row
        contiguous in memory (``array[:, idx]`` would be column-major)."""
        idx = list(attr_indices)
        return np.take(self.lower, idx, axis=1), np.take(self.upper, idx, axis=1)

    def intersects_subrange(
        self, attr_indices: Sequence[int], lower: np.ndarray, upper: np.ndarray
    ) -> np.ndarray:
        """Per row: does the box overlap the window on the constrained
        attributes?  (Unconstrained dimensions always match.)"""
        if not self.present.any():
            return self.present.copy()
        box_lo, box_hi = self.columns(attr_indices)
        return ((box_lo <= upper) & (lower <= box_hi)).all(axis=1) & self.present

    def min_distance_subrange(
        self,
        attr_indices: Sequence[int],
        point: np.ndarray,
        norm_lower: np.ndarray,
        norm_upper: np.ndarray,
    ) -> np.ndarray:
        """Per row: MINDIST from a query point on the constrained
        attributes, in the min-max normalised space clipped to ``[0, 1]``
        (the geometry actual top-k distances are computed in)."""
        if not self.present.any():
            return np.full(len(self), np.inf)
        box_lo, box_hi = self.columns(attr_indices)
        span = np.where(norm_upper - norm_lower > 0, norm_upper - norm_lower, 1.0)
        box_lo = np.clip((box_lo - norm_lower) / span, 0.0, 1.0)
        box_hi = np.clip((box_hi - norm_lower) / span, 0.0, 1.0)
        q = np.clip((np.asarray(point, dtype=np.float64) - norm_lower) / span, 0.0, 1.0)
        delta = np.maximum(np.maximum(box_lo - q, 0.0), np.maximum(q - box_hi, 0.0))
        return np.where(self.present, np.sqrt(np.sum(delta**2, axis=1)), np.inf)
