"""Semantic grouping (§3.1).

Two grouping problems are solved here, both with the LSI machinery:

1. **File → storage unit partitioning.**  Files are projected into the LSI
   semantic subspace and partitioned into approximately equal-sized groups
   (Statement 1 requires balanced group sizes) such that files within a
   group are more correlated with each other than with files outside it.

2. **Unit → index unit aggregation.**  Storage units (and, recursively,
   index units) are aggregated level by level: two nodes join the same
   group when their semantic correlation exceeds the per-level admission
   threshold ``epsilon_i``; when a node qualifies for several groups the
   most correlated one wins.  The levels produced here become the levels of
   the semantic R-tree.

The quantitative quality measure of §1.1 — the total squared distance of
items to their group centroids — is implemented in
:func:`grouping_quality` and drives the optimal-threshold study of
Figure 11.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.lsi.kmeans import balanced_kmeans
from repro.lsi.model import LSIModel
from repro.metadata.attributes import AttributeSchema, DEFAULT_SCHEMA
from repro.metadata.file_metadata import FileMetadata
from repro.metadata.matrix import attribute_matrix, log_transform, normalize_matrix

__all__ = [
    "SemanticPartition",
    "partition_files",
    "group_by_correlation",
    "build_group_levels",
    "grouping_quality",
    "optimal_threshold",
]


@dataclass
class SemanticPartition:
    """Result of partitioning files onto storage units.

    Attributes
    ----------
    labels:
        ``(n_files,)`` storage-unit index per file.
    semantic_vectors:
        ``(n_files, p)`` LSI coordinates of every file.
    lsi:
        The fitted :class:`~repro.lsi.model.LSIModel` (needed later to fold
        in query vectors).
    norm_lower, norm_upper:
        The deployment-wide normalisation bounds derived from the file
        population (installed on every storage server).
    quality:
        The within-group squared-distance measure of §1.1 for this
        partition (lower is better).
    """

    labels: np.ndarray
    semantic_vectors: np.ndarray
    lsi: LSIModel
    norm_lower: np.ndarray
    norm_upper: np.ndarray
    center: np.ndarray
    quality: float

    @property
    def n_groups(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0


def partition_files(
    files: Sequence[FileMetadata],
    num_units: int,
    schema: AttributeSchema = DEFAULT_SCHEMA,
    *,
    rank: int = 5,
    seed: Optional[int] = None,
    raw: Optional[np.ndarray] = None,
) -> SemanticPartition:
    """Partition ``files`` into ``num_units`` semantically coherent groups.

    The pipeline is: raw attribute matrix → log-transform of wide-range
    attributes → min-max normalisation → centring → LSI projection →
    balanced K-means in the semantic subspace.  The centring step (subtract
    the per-attribute mean before the SVD) matters: without it the leading
    singular direction merely encodes the all-positive offset of the data
    and every item looks "correlated" with every other one, which destroys
    the discriminative power of the cosine thresholds.  Balanced K-means
    (rather than thresholded agglomeration) is used at the file level
    because Statement 1 requires group sizes to be approximately equal —
    each group must fit one storage unit.  ``raw`` is
    ``attribute_matrix(files, schema)`` when the caller already holds it.
    """
    if not files:
        raise ValueError("cannot partition an empty file population")
    if num_units < 1:
        raise ValueError(f"num_units must be >= 1, got {num_units}")
    num_units = min(num_units, len(files))

    if raw is None:
        raw = attribute_matrix(files, schema)
    transformed = log_transform(raw, schema)
    normalised, lower, upper = normalize_matrix(transformed)
    center = normalised.mean(axis=0)
    centred = normalised - center

    rank = max(1, min(rank, schema.dimension, len(files)))
    lsi = LSIModel.fit_items(centred, rank)
    sem = lsi.item_vectors()

    if num_units == 1:
        labels = np.zeros(len(files), dtype=np.intp)
    else:
        labels = balanced_kmeans(sem, num_units, seed=seed).labels

    quality = grouping_quality(sem, labels)
    return SemanticPartition(
        labels=labels,
        semantic_vectors=sem,
        lsi=lsi,
        norm_lower=lower,
        norm_upper=upper,
        center=center,
        quality=quality,
    )


def group_by_correlation(
    vectors: np.ndarray,
    threshold: float,
    *,
    max_group_size: int = 8,
) -> List[List[int]]:
    """Aggregate items into groups by semantic correlation.

    Implements the §3.1.2 rule: two nodes are aggregated when their
    correlation exceeds the admission threshold; a node correlated with
    several candidates joins the most correlated one.  Agglomeration is
    *centroid-linkage*: after every merge the group is represented by the
    centroid of its members and further merges are decided on centroid
    correlations.  (Single-linkage chaining — merging A with C merely
    because both correlate with B — would produce sprawling groups whose
    MBRs cover most of the attribute space, defeating the purpose of the
    grouping.)  Groups never exceed ``max_group_size`` (the R-tree fan-out
    bound ``M``).

    Items that correlate with nothing above the threshold remain singleton
    groups.  The function always returns at least one group and never loses
    an item.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    n = vectors.shape[0]
    if n == 0:
        return []
    if threshold < -1.0 or threshold > 1.0:
        raise ValueError(f"threshold must be in [-1, 1], got {threshold}")
    if max_group_size < 1:
        raise ValueError("max_group_size must be >= 1")
    if n == 1:
        return [[0]]

    def centroid_corr(centroids: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(centroids, axis=1, keepdims=True)
        unit = centroids / np.where(norms > 0, norms, 1.0)
        corr = np.clip(unit @ unit.T, -1.0, 1.0)
        np.fill_diagonal(corr, -np.inf)
        return corr

    members: List[List[int]] = [[i] for i in range(n)]
    centroids = vectors.copy()
    active = list(range(n))

    while len(active) > 1:
        corr = centroid_corr(centroids[active])
        # Mask out merges that would overflow the fan-out bound.
        sizes = np.array([len(members[g]) for g in active])
        too_big = (sizes[:, None] + sizes[None, :]) > max_group_size
        corr[too_big] = -np.inf
        best_flat = int(np.argmax(corr))
        best_i, best_j = divmod(best_flat, len(active))
        if corr[best_i, best_j] < threshold or not np.isfinite(corr[best_i, best_j]):
            break
        ga, gb = active[best_i], active[best_j]
        members[ga].extend(members[gb])
        centroids[ga] = vectors[members[ga]].mean(axis=0)
        members[gb] = []
        active.remove(gb)

    return [m for m in members if m]


def build_group_levels(
    vectors: np.ndarray,
    *,
    thresholds: Sequence[float],
    max_fanout: int = 8,
) -> List[List[List[int]]]:
    """Iteratively aggregate items level by level until a single root group.

    ``thresholds[i]`` is the admission constant ``epsilon_{i+1}`` applied
    when building level ``i+1`` from level ``i``; when the hierarchy needs
    more levels than thresholds were supplied, the last threshold is reused
    (progressively relaxed if no merge happens, to guarantee termination).

    Returns a list of levels; ``levels[0]`` is a list of singleton groups
    (the leaves), ``levels[i]`` is a list of groups of *indices into
    level i-1*.  The last level always has exactly one group (the root).
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    n = vectors.shape[0]
    if n == 0:
        raise ValueError("cannot build a hierarchy over zero items")
    if max_fanout < 2:
        raise ValueError("max_fanout must be >= 2")
    if not thresholds:
        raise ValueError("at least one threshold is required")

    levels: List[List[List[int]]] = [[[i] for i in range(n)]]
    current_vectors = vectors
    level = 0
    while current_vectors.shape[0] > 1:
        threshold = thresholds[min(level, len(thresholds) - 1)]
        groups = group_by_correlation(
            current_vectors, threshold, max_group_size=max_fanout
        )
        # Guarantee progress: if nothing merged, relax the threshold until
        # something does (in the limit, threshold -1 merges the best pairs).
        relax = threshold
        while len(groups) == current_vectors.shape[0] and relax > -1.0:
            relax = max(-1.0, relax - 0.1)
            groups = group_by_correlation(
                current_vectors, relax, max_group_size=max_fanout
            )
        if len(groups) == current_vectors.shape[0]:
            # Still nothing merged (identical vectors edge case): force a
            # single parent over chunks of max_fanout children.
            groups = [
                list(range(i, min(i + max_fanout, current_vectors.shape[0])))
                for i in range(0, current_vectors.shape[0], max_fanout)
            ]
        levels.append(groups)
        current_vectors = np.vstack(
            [current_vectors[g].mean(axis=0) for g in groups]
        )
        level += 1

    return levels


def grouping_quality(points: np.ndarray, labels: np.ndarray) -> float:
    """The §1.1 semantic-correlation measure: total squared distance to centroids.

    ``sum_i sum_{f in G_i} ||f - C_i||^2`` — lower values indicate tighter,
    more semantically coherent groups.
    """
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    if points.shape[0] != labels.shape[0]:
        raise ValueError("points and labels must have the same length")
    total = 0.0
    for g in np.unique(labels):
        members = points[labels == g]
        centroid = members.mean(axis=0)
        total += float(np.sum((members - centroid) ** 2))
    return total


def optimal_threshold(
    vectors: np.ndarray,
    *,
    candidates: Optional[Sequence[float]] = None,
    max_fanout: int = 8,
) -> Tuple[float, float]:
    """Find the admission threshold minimising the grouping-quality measure.

    Used for the Figure 11 study (optimal threshold vs. system scale and
    vs. tree level).  Returns ``(best_threshold, best_quality)``.  The
    quality of a candidate threshold is evaluated on the groups produced by
    a single aggregation pass; a degenerate outcome where every item stays
    a singleton is penalised by treating the whole population as one group
    (which is what the system would have to fall back to).
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.shape[0] < 2:
        return 1.0, 0.0
    if candidates is None:
        candidates = np.round(np.arange(0.05, 1.0, 0.05), 3)

    best_threshold = float(candidates[0])
    best_quality = np.inf
    for threshold in candidates:
        groups = group_by_correlation(vectors, float(threshold), max_group_size=max_fanout)
        if len(groups) in (1, vectors.shape[0]):
            # No real grouping happened (everything merged or nothing did);
            # such thresholds do not reduce the search space.
            labels = np.zeros(vectors.shape[0], dtype=np.intp)
        else:
            labels = np.empty(vectors.shape[0], dtype=np.intp)
            for gid, members in enumerate(groups):
                labels[members] = gid
        quality = grouping_quality(vectors, labels)
        if quality < best_quality:
            best_quality = quality
            best_threshold = float(threshold)
    return best_threshold, float(best_quality)
