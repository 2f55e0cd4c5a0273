"""Corpus partitioning for horizontal sharding.

A shard partitioner splits one file population into ``N`` sub-corpora, each
of which becomes an independent SmartStore deployment, and afterwards routes
every *new* record to a shard.  Two partitioners:

* :class:`SemanticShardPartitioner` — the default.  The corpus is projected
  into the LSI semantic subspace (the same §3.1 machinery the in-store
  grouping uses) and its *principal semantic component* is cut into ``N``
  contiguous quantile slices, weighted by file popularity
  (``access_count``) when the schema records it.  Slices are disjoint
  intervals of the dominant correlation direction, so shard bounding boxes
  barely overlap — a narrow range window or top-k neighbourhood intersects
  one or two shards — and popularity weighting splits the *hot* region
  across shards, balancing query load rather than raw file counts (the
  quantity that actually limits scatter-gather throughput).

* :class:`HashShardPartitioner` — the fallback when no semantic structure
  is wanted (or the corpus is too degenerate to fit LSI): stable modulo
  hashing of the (MD5-derived, process-independent) file id.  Placement is
  uniform but carries no locality, so the router must contact every shard
  for complex queries.

Both are deterministic: the same corpus and shard count always produce
the same assignment, and :meth:`shard_for` is a pure
function of the record — the scatter-gather equivalence gates depend on
that.

:func:`corpus_index_bounds` computes the corpus-wide index-space bounds
that every shard must be built with (``SmartStore.build(...,
index_bounds=...)``) so distances and normalisation agree across shards.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.lsi.model import LSIModel
from repro.metadata.attributes import AttributeSchema, DEFAULT_SCHEMA
from repro.metadata.file_metadata import FileMetadata
from repro.metadata.matrix import attribute_matrix, log_transform

__all__ = [
    "corpus_index_bounds",
    "SemanticShardPartitioner",
    "HashShardPartitioner",
    "ShardPartitioner",
    "make_partitioner",
]

#: Attribute used to weight the slice quantiles (query load concentrates on
#: popular files — the workload generators anchor Zipf traffic on it).
POPULARITY_ATTRIBUTE = "access_count"


def corpus_index_bounds(
    files: Sequence[FileMetadata], schema: AttributeSchema = DEFAULT_SCHEMA
) -> Tuple[np.ndarray, np.ndarray]:
    """Corpus-wide per-attribute bounds of the index space.

    The index space is the log-transformed attribute space (wide-range
    attributes ``log1p``-ed); these are exactly the bounds an unsharded
    ``SmartStore.build`` over the same population would derive, which is
    why injecting them into every shard makes per-shard distances
    comparable with the unsharded baseline.
    """
    matrix = log_transform(attribute_matrix(files, schema), schema)
    return matrix.min(axis=0), matrix.max(axis=0)


class SemanticShardPartitioner:
    """LSI-space k-way split of a corpus into semantically coherent shards.

    Parameters
    ----------
    files:
        The build-time corpus; :attr:`labels` holds its shard assignment.
    num_shards:
        Requested shard count (capped at the corpus size).
    schema, rank:
        Attribute schema and LSI rank — mirror the corresponding
        :class:`~repro.core.smartstore.SmartStoreConfig` knobs so a sharded
        deployment is parameterised consistently.
    balance_fallback:
        When True (the default) a slice split whose weighted cuts leave
        one shard with more than ``2/num_shards`` of the corpus is redone
        as population-balanced quantile cuts.  Weighted cuts degrade that
        way when the popularity weights are near-uniform *and* the
        component has long runs of near-identical values (the CLI-default
        seed-42 corpus): every tied record lands on one side of a cut, so
        one shard swallows half the corpus and scatter throughput
        collapses to the single hot shard.  ``False`` preserves the
        legacy behaviour (the ``repro bench reshard`` drill uses it to
        reproduce the degenerate build the live reshard must repair).
    """

    kind = "semantic"

    def __init__(
        self,
        files: Sequence[FileMetadata],
        num_shards: int,
        schema: AttributeSchema = DEFAULT_SCHEMA,
        *,
        rank: int = 5,
        balance_fallback: bool = True,
    ) -> None:
        files = list(files)
        if not files:
            raise ValueError("cannot partition an empty corpus")
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.schema = schema
        self.balance_fallback = balance_fallback
        self.num_shards = min(num_shards, len(files))
        # Fit knob, kept so refit() can recut a live corpus consistently.
        self._rank = rank

        matrix = log_transform(attribute_matrix(files, schema), schema)
        self._lower = matrix.min(axis=0)
        self._upper = matrix.max(axis=0)
        span = self._upper - self._lower
        self._span = np.where(span > 0, span, 1.0)
        normalised = (matrix - self._lower) / self._span
        self._center = normalised.mean(axis=0)

        rank = max(1, min(rank, schema.dimension, len(files)))
        self._lsi = LSIModel.fit_items(normalised - self._center, rank)
        # Cut values on the principal component, and slice-interval index
        # -> shard id.  The map is the identity on a fresh build;
        # split_slice() inserts new shard ids without renumbering existing
        # ones, so routed ownership and summaries survive a live reshard.
        # A one-shard partitioner has no cuts: everything is shard 0.
        self._cuts: Optional[np.ndarray] = None
        self._slice_shards: Optional[List[int]] = None
        if self.num_shards == 1:
            labels = np.zeros(len(files), dtype=np.intp)
        else:
            labels = self._slice_labels(files, self._lsi.item_vectors()[:, 0])
        self._labels = np.asarray(labels, dtype=np.intp)

    def _slice_labels(self, files: Sequence[FileMetadata], c1: np.ndarray) -> np.ndarray:
        """Popularity-weighted quantile slices of the principal component.

        Cut values sit at the weighted quantiles of the component, so each
        slice carries roughly the same expected *query load*; records tying
        a cut value exactly always land on the lower slice (``side="left"``
        both here and in :meth:`shard_for`, keeping build assignment and
        post-build routing consistent).
        """
        n = self.num_shards
        m = len(files)
        weights = np.asarray(
            [float(f.attributes.get(POPULARITY_ATTRIBUTE, 1.0)) + 1.0 for f in files]
        )
        order = np.argsort(c1, kind="stable")
        cumulative = np.cumsum(weights[order])
        cumulative = cumulative / cumulative[-1]
        cut_positions = np.searchsorted(cumulative, np.arange(1, n) / n)
        cuts = c1[order[np.minimum(cut_positions, m - 1)]]
        labels = np.searchsorted(cuts, c1, side="left")
        counts = np.bincount(labels, minlength=n)
        skewed = self.balance_fallback and counts.max() * n > 2 * m
        if np.unique(labels).size < n or skewed:
            # Two failure modes of the value-based weighted cuts collapse
            # here.  (1) Degenerate component (long runs of identical
            # values): a cut lands inside a tied run and every tied record
            # falls on one side, leaving a shard empty.  (2) The same tie
            # mechanics silently hand one shard >2/n of the corpus while
            # the linear ``access_count`` weights understate how hard the
            # Zipf-anchored workloads actually hammer the hot region (the
            # seed-42 skew PR 8 diagnosed: 51% of the corpus and 49% of
            # busy time on one shard).  The fallback re-cuts by sorted
            # *position* (splitting tied runs), balancing the Zipf-by-rank
            # load the generators emit, under a hard population cap that
            # keeps every slice strictly under 2/n of the corpus.
            # Post-build routing still uses the (re-derived) cut values; a
            # boundary tie may then route to a neighbouring shard, which
            # is harmless — ownership of build-time records is tracked by
            # the router.
            boundaries = self._balanced_boundaries(files, order)
            chunk = np.searchsorted(boundaries, np.arange(m), side="left")
            labels = np.empty(m, dtype=np.intp)
            labels[order] = chunk
            cuts = c1[order[boundaries]]
        self._cuts = np.asarray(cuts, dtype=np.float64)
        self._slice_shards = list(range(n))
        return labels

    def _balanced_boundaries(self, files: Sequence[FileMetadata], order: np.ndarray) -> np.ndarray:
        """Greedy position boundaries balancing Zipf load under a size cap.

        Each slice extends along the sorted component until it has
        absorbed its 1/n share of the modelled query load — Zipf weight by
        ``access_count`` rank, the distribution the workload generators
        anchor traffic on; uniform when popularity is flat, which reduces
        to population-balanced quantiles — clamped so no slice (including
        the implicit last one) ever holds more than ``1.8/n`` of the
        corpus: comfortably below the 2/n degeneracy threshold the router
        monitors.  Returns the index (into ``order``) of the last member
        of each of the first ``n-1`` slices.
        """
        n = self.num_shards
        m = len(files)
        popularity = np.asarray(
            [float(f.attributes.get(POPULARITY_ATTRIBUTE, 0.0)) for f in files]
        )
        if popularity.max() > popularity.min():
            ranks = np.argsort(-popularity, kind="stable")
            weights = np.empty(m)
            weights[ranks] = 1.0 / np.arange(1, m + 1)
        else:
            weights = np.ones(m)
        prefix = np.cumsum(weights[order])
        total = prefix[-1]
        cap = max(1, int(np.ceil(1.8 * m / n)))
        boundaries = np.empty(n - 1, dtype=np.intp)
        start = 0
        for j in range(n - 1):
            # End position hitting this slice's cumulative load target...
            end = int(np.searchsorted(prefix, total * (j + 1) / n)) + 1
            # ...clamped so this slice keeps >=1 file and <=cap files, every
            # remaining slice keeps >=1 file, and the files left over for
            # the remaining slices still fit under their caps.
            remaining = n - 1 - j
            end = max(end, start + 1, m - remaining * cap)
            end = min(end, start + cap, m - remaining)
            boundaries[j] = end - 1
            start = end
        return boundaries

    @property
    def labels(self) -> np.ndarray:
        """Shard label per build-time corpus file (copy)."""
        return self._labels.copy()

    def assign(self, files: Sequence[FileMetadata]) -> np.ndarray:
        """Shard assignment of the build-time corpus.

        Callers must pass the same corpus the partitioner was fitted on;
        post-build records are routed one at a time via :meth:`shard_for`.
        """
        if len(files) != len(self._labels):
            raise ValueError(
                f"assign() expects the fitted corpus ({len(self._labels)} files), "
                f"got {len(files)}"
            )
        return self.labels

    def fold(self, file: FileMetadata) -> np.ndarray:
        """One record's coordinates in the partitioner's LSI subspace.

        ``scale=False`` gives the plain ``U_p^T q`` projection, which for a
        fitted item reproduces its ``item_vectors`` row exactly — the
        coordinates the cuts live in — so routing is geometrically
        consistent with the build-time split.
        """
        row = log_transform(attribute_matrix([file], self.schema), self.schema)[0]
        normalised = np.clip((row - self._lower) / self._span, 0.0, 1.0)
        return self._lsi.fold_in(normalised - self._center, scale=False)

    def shard_for(self, file: FileMetadata) -> int:
        """The shard a new record belongs to: the slice whose component
        interval contains it (a record on a cut value goes to the lower
        slice), or shard 0 on a one-shard partitioner.  Deterministic, so
        replaying the same mutation stream always routes identically.
        """
        if self._cuts is None or self._slice_shards is None:
            return 0
        interval = int(np.searchsorted(self._cuts, self.fold(file)[0], side="left"))
        return self._slice_shards[interval]

    # ------------------------------------------------------------------ live reshard
    def refit(self, files: Sequence[FileMetadata]) -> "SemanticShardPartitioner":
        """A fresh partitioner over the *live* corpus with this one's LSI rank.

        Recuts the principal component at fresh popularity-weighted
        quantiles for the current shard count — the planning step of a
        live rebalance.  The balanced fallback is always on for a refit
        (recutting into the degenerate legacy shape would be pointless),
        and slice intervals map to shard ids in order, matching the
        identity layout the router's shards are stored in.
        """
        return SemanticShardPartitioner(
            files,
            self.num_shards,
            self.schema,
            rank=self._rank,
            balance_fallback=True,
        )

    @property
    def supports_split(self) -> bool:
        """Whether :meth:`split_slice` can recut this partitioner live
        (it has fitted cuts: false for one shard, and hash partitioners
        have no such method)."""
        return self._cuts is not None and self._slice_shards is not None

    def principal_value(self, file: FileMetadata) -> float:
        """One record's coordinate on the principal component — the axis
        the slice cuts live on (what a live split recuts against)."""
        return float(self.fold(file)[0])

    def split_slice(self, shard_id: int, cut: float) -> int:
        """Split ``shard_id``'s slice at ``cut``; returns the new shard id.

        The lower sub-interval (component value <= ``cut``, matching the
        ``side="left"`` tie rule everywhere else) keeps ``shard_id``; the
        upper one is assigned the next free shard id.  Existing shard ids
        never renumber — the interval->shard indirection absorbs the
        insertion — so router ownership maps, summaries and busy
        accounting stay valid across the recut.
        """
        if self._cuts is None or self._slice_shards is None:
            raise ValueError(
                "split_slice requires fitted slice cuts "
                f"(a {self.num_shards}-shard partitioner has none)"
            )
        try:
            interval = self._slice_shards.index(shard_id)
        except ValueError:
            raise ValueError(f"shard {shard_id} owns no slice interval") from None
        lower = -np.inf if interval == 0 else float(self._cuts[interval - 1])
        upper = (
            np.inf
            if interval == len(self._cuts)
            else float(self._cuts[interval])
        )
        if not lower < cut < upper:
            raise ValueError(
                f"cut {cut!r} outside shard {shard_id}'s slice "
                f"({lower!r}, {upper!r}]"
            )
        new_id = self.num_shards
        self._cuts = np.insert(self._cuts, interval, cut)
        self._slice_shards.insert(interval + 1, new_id)
        self.num_shards += 1
        return new_id


class HashShardPartitioner:
    """Stable modulo-hash placement over the (MD5-derived) file id.

    No locality — the router cannot prune shards for complex queries — but
    no fitting step either, and the assignment survives any corpus change.
    """

    kind = "hash"

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = num_shards

    def assign(self, files: Sequence[FileMetadata]) -> np.ndarray:
        return np.asarray([self.shard_for(f) for f in files], dtype=np.intp)

    def shard_for(self, file: FileMetadata) -> int:
        return int(file.file_id % self.num_shards)


#: Either concrete partitioner; both expose ``shard_for`` and ``kind``.
ShardPartitioner = Union[SemanticShardPartitioner, HashShardPartitioner]


def make_partitioner(
    files: Sequence[FileMetadata],
    num_shards: int,
    *,
    kind: str = "semantic",
    schema: AttributeSchema = DEFAULT_SCHEMA,
    rank: int = 5,
    balance_fallback: bool = True,
) -> "ShardPartitioner":
    """Factory over the two partitioners (``semantic`` / ``hash``)."""
    if kind == "semantic":
        return SemanticShardPartitioner(
            files,
            num_shards,
            schema,
            rank=rank,
            balance_fallback=balance_fallback,
        )
    if kind == "hash":
        return HashShardPartitioner(num_shards)
    raise ValueError(f"unknown partitioner kind {kind!r}; expected 'semantic' or 'hash'")
