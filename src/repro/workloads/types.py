"""Query types: point, range and top-k.

These are the three query interfaces SmartStore exposes (§1.2).  They are
deliberately plain, immutable value objects: the query engines of the core
system, of the baselines and of the evaluation harness all consume the same
objects, which is what makes the latency/recall comparisons apples-to-apples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

__all__ = ["PointQuery", "RangeQuery", "TopKQuery", "Query", "kind_of"]


@dataclass(frozen=True)
class PointQuery:
    """A filename-based point query: "does file ``filename`` exist, and where?"

    Filename indexing remains the dominant query type in file systems; in
    SmartStore it routes over the hierarchical Bloom filters (§3.3.3).
    """

    filename: str

    def __post_init__(self) -> None:
        if not self.filename:
            raise ValueError("filename must be non-empty")


@dataclass(frozen=True)
class RangeQuery:
    """A multi-dimensional range query.

    Finds every file whose value of ``attributes[i]`` lies within
    ``[lower[i], upper[i]]`` for all constrained attributes — e.g. *"files
    revised between 10:00 and 16:20 with 30-50 MB read and 5-8 MB written"*
    is the 3-attribute example of §5.1.
    """

    attributes: Tuple[str, ...]
    lower: Tuple[float, ...]
    upper: Tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.attributes:
            raise ValueError("a range query must constrain at least one attribute")
        if not (len(self.attributes) == len(self.lower) == len(self.upper)):
            raise ValueError(
                "attributes, lower and upper must have the same length, got "
                f"{len(self.attributes)}, {len(self.lower)}, {len(self.upper)}"
            )
        # Non-finite bounds are rejected outright: NaN compares False with
        # everything, so a NaN bound would sail through the lo > hi check
        # below yet silently defeat (or vacuously satisfy) MBR pruning and
        # per-record comparisons downstream; ±inf windows are equally
        # meaningless in the index space.
        if any(not math.isfinite(v) for v in (*self.lower, *self.upper)):
            raise ValueError("range bounds must be finite (NaN/inf are not allowed)")
        if any(lo > hi for lo, hi in zip(self.lower, self.upper)):
            raise ValueError("every lower bound must not exceed its upper bound")
        if len(set(self.attributes)) != len(self.attributes):
            raise ValueError("attributes must not repeat")

    @property
    def dimensionality(self) -> int:
        return len(self.attributes)


@dataclass(frozen=True)
class TopKQuery:
    """A top-k nearest-neighbour query.

    Finds the ``k`` files whose constrained attribute values are closest to
    ``values`` — e.g. *"10 files closest to: size ≈ 300 MB, last visited
    around Jan 1 2008"* from §1.1.  Distances are measured in the
    deployment's normalised attribute space so that dimensions with very
    different units are comparable.
    """

    attributes: Tuple[str, ...]
    values: Tuple[float, ...]
    k: int

    def __post_init__(self) -> None:
        if not self.attributes:
            raise ValueError("a top-k query must constrain at least one attribute")
        if len(self.attributes) != len(self.values):
            raise ValueError(
                f"attributes and values must have the same length, got "
                f"{len(self.attributes)} and {len(self.values)}"
            )
        if any(not math.isfinite(v) for v in self.values):
            raise ValueError("top-k query values must be finite (NaN/inf are not allowed)")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if len(set(self.attributes)) != len(self.attributes):
            raise ValueError("attributes must not repeat")

    @property
    def dimensionality(self) -> int:
        return len(self.attributes)


Query = Union[PointQuery, RangeQuery, TopKQuery]


def kind_of(query: Query) -> str:
    """Short class name of a query object: ``point`` / ``range`` / ``topk``
    (telemetry classes, router counters, span tags)."""
    if isinstance(query, PointQuery):
        return "point"
    if isinstance(query, RangeQuery):
        return "range"
    if isinstance(query, TopKQuery):
        return "topk"
    raise TypeError(f"unsupported query type {type(query)!r}")
