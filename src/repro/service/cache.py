"""Result caching for the query service.

Two cooperating structures:

* a **positive LRU cache** keyed by the (hashable, frozen) query objects of
  :mod:`repro.workloads.types`, holding the full :class:`QueryResult` of a
  previous execution;
* a **negative cache** for filename point-query *misses*: a Bloom filter
  (reusing :mod:`repro.bloom`) fronts an exact set of missed filenames.  The
  filter answers "was this filename ever recorded as a miss?" in O(k) bit
  probes and, because Bloom filters have no false negatives, a filter miss
  skips the set lookup entirely.  The exact set is what makes the answer
  *safe*: a Bloom false positive alone never turns into a wrong "not found"
  answer.

Both structures are versioning-aware: the cache subscribes to the
deployment's :class:`~repro.core.versioning.VersioningManager`, so any
recorded metadata change (insert/delete/modify) or reconfiguration flushes
every cached entry.  Flushing (rather than surgical invalidation) is the
only always-correct policy — an insertion can change the answer of any
range, top-k or previously-missing point query.

Cache hits are re-costed: the returned :class:`QueryResult` carries the
original result payload (files, distances, found) but fresh
:class:`~repro.cluster.metrics.Metrics` describing the *cost of serving
from the cache* (one in-memory index probe; plus the Bloom probe for
negative hits), so service telemetry reflects what the cluster actually did.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Set

from repro.bloom.bloom import BloomFilter
from repro.cluster.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.cluster.metrics import Metrics
from repro.core.queries import QueryResult
from repro.core.versioning import VersioningManager
from repro.workloads.types import PointQuery, Query

__all__ = ["CacheHit", "CacheStats", "ResultCache", "result_fingerprint"]


def result_fingerprint(result: QueryResult) -> str:
    """Stable digest of a query result's *payload*.

    Covers the matched files (path, id and attribute values), the found
    flag and the top-k distances — everything a client observes — while
    excluding the cost-accounting fields (metrics, latency, hops), which
    legitimately differ between a cache hit and an engine execution.  Used
    by the equivalence tests and the ``repro bench`` drills.
    """
    h = hashlib.sha256()
    # Every field is terminated by a separator byte that cannot occur in
    # the field itself, so adjacent fields can never be re-segmented into
    # a colliding concatenation (path="a",id=12 vs path="a1",id=2).
    h.update(b"found=1\x1f" if result.found else b"found=0\x1f")
    for f in result.files:
        h.update(f.path.encode("utf-8") + b"\x1f")
        h.update(str(f.file_id).encode("ascii") + b"\x1f")
        for name in sorted(f.attributes):
            h.update(f"{name}={f.attributes[name]!r}\x1f".encode("utf-8"))
        h.update(b"\x1e")  # record separator between files
    for d in result.distances:
        h.update(f"{d:.12g}\x1f".encode("ascii"))
    return h.hexdigest()


@dataclass(frozen=True)
class CacheHit:
    """A successful lookup: the serving result and which side answered.

    ``source`` is ``"cache"`` (positive LRU) or ``"negative"`` (Bloom-backed
    miss cache) — telemetry keeps the two apart.
    """

    result: QueryResult
    source: str


@dataclass
class CacheStats:
    """Hit/miss accounting of the result cache."""

    hits: int = 0
    misses: int = 0
    negative_hits: int = 0
    insertions: int = 0
    evictions: int = 0
    invalidations: int = 0
    stale_drops: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.negative_hits + self.misses

    @property
    def hit_rate(self) -> float:
        served = self.hits + self.negative_hits
        return served / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "negative_hits": self.negative_hits,
            "misses": self.misses,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "stale_drops": self.stale_drops,
            "hit_rate": self.hit_rate,
        }


class ResultCache:
    """Versioning-aware LRU + negative result cache.

    Parameters
    ----------
    capacity:
        Maximum number of positive entries (least recently used evicted).
    negative_capacity:
        Maximum number of filenames remembered as misses; reaching it
        resets the negative side (Bloom filters cannot delete).
    negative_bits / negative_hashes:
        Bloom-filter geometry of the negative cache front.
    versioning:
        When given, the cache subscribes to it and flushes on every
        metadata mutation and reconfiguration.
    cost_model:
        Used to price cache-hit serving (memory probe / Bloom probe).
    """

    def __init__(
        self,
        capacity: int = 2048,
        *,
        negative_capacity: int = 8192,
        negative_bits: int = 8192,
        negative_hashes: int = 5,
        versioning: Optional[VersioningManager] = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if negative_capacity < 1:
            raise ValueError(f"negative_capacity must be >= 1, got {negative_capacity}")
        self.capacity = capacity
        self.negative_capacity = negative_capacity
        self.cost_model = cost_model
        self._lru: "OrderedDict[Query, QueryResult]" = OrderedDict()
        self._neg_bloom = BloomFilter(negative_bits, negative_hashes)
        self._neg_filenames: Set[str] = set()
        self._lock = threading.Lock()
        self.stats = CacheStats()
        self._versioning = versioning
        if versioning is not None:
            versioning.subscribe(self.invalidate)

    # ------------------------------------------------------------------ serving
    def _hit_result(self, cached: QueryResult, *, bloom_probe: bool = False) -> QueryResult:
        """A serving copy of ``cached``: same payload, cache-hit cost."""
        metrics = Metrics()
        metrics.record_index_access()
        if bloom_probe:
            metrics.record_bloom_probe()
        return QueryResult(
            files=list(cached.files),
            metrics=metrics,
            latency=metrics.latency(self.cost_model),
            groups_visited=0,
            hops=0,
            found=cached.found,
            distances=list(cached.distances),
        )

    def _negative_result(self) -> QueryResult:
        metrics = Metrics()
        metrics.record_bloom_probe()
        return QueryResult(
            files=[],
            metrics=metrics,
            latency=metrics.latency(self.cost_model),
            groups_visited=0,
            hops=0,
            found=False,
            distances=[],
        )

    def lookup(self, query: Query) -> Optional[CacheHit]:
        """The cached result for ``query``, or ``None`` on a cache miss."""
        with self._lock:
            cached = self._lru.get(query)
            if cached is not None:
                self._lru.move_to_end(query)
                self.stats.hits += 1
                return CacheHit(self._hit_result(cached), "cache")
            if isinstance(query, PointQuery):
                # Bloom front: no false negatives, so a filter miss proves
                # the filename was never recorded; the exact set guards
                # against the filter's false positives.
                if (
                    self._neg_bloom.contains(query.filename)
                    and query.filename in self._neg_filenames
                ):
                    self.stats.negative_hits += 1
                    return CacheHit(self._negative_result(), "negative")
            self.stats.misses += 1
            return None

    # ------------------------------------------------------------------ population
    def store(
        self, query: Query, result: QueryResult, *, epoch: Optional[int] = None
    ) -> None:
        """Remember an engine execution's outcome.

        ``epoch`` is the versioning change clock observed *before* the
        execution started.  If the clock has advanced since, the result was
        computed against a state that has already been mutated (and the
        mutation's invalidation flush may have run before this store) — the
        stale result is dropped instead of poisoning the flushed cache.
        """
        with self._lock:
            if (
                epoch is not None
                and self._versioning is not None
                and self._versioning.change_clock != epoch
            ):
                self.stats.stale_drops += 1
                return
            if isinstance(query, PointQuery) and not result.found:
                if len(self._neg_filenames) >= self.negative_capacity:
                    self._neg_bloom.clear()
                    self._neg_filenames.clear()
                self._neg_bloom.add(query.filename)
                self._neg_filenames.add(query.filename)
                self.stats.insertions += 1
                return
            self._lru[query] = result
            self._lru.move_to_end(query)
            self.stats.insertions += 1
            while len(self._lru) > self.capacity:
                self._lru.popitem(last=False)
                self.stats.evictions += 1

    def invalidate(self) -> None:
        """Flush everything (called on every versioning mutation).

        Only flushes that actually clear entries are counted: the
        versioning manager notifies on every recorded change, and a burst
        of mutations against an already-empty cache is a no-op that must
        not inflate the telemetry's flush count.
        """
        with self._lock:
            if self._lru or self._neg_filenames:
                self._lru.clear()
                self._neg_bloom.clear()
                self._neg_filenames.clear()
                self.stats.invalidations += 1

    def detach(self) -> None:
        """Unsubscribe from the versioning manager (service shutdown)."""
        if self._versioning is not None:
            self._versioning.unsubscribe(self.invalidate)

    # ------------------------------------------------------------------ introspection
    def __len__(self) -> int:
        return len(self._lru)

    @property
    def negative_size(self) -> int:
        return len(self._neg_filenames)

    def __repr__(self) -> str:
        return (
            f"ResultCache(entries={len(self._lru)}/{self.capacity}, "
            f"negative={len(self._neg_filenames)}/{self.negative_capacity}, "
            f"hit_rate={self.stats.hit_rate:.3f})"
        )
