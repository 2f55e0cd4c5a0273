"""K-means clustering: the grouping alternative discussed in §3.1.1.

The paper argues for LSI over K-means (sensitivity to initialisation and to
the choice of ``K``) but the comparison only makes sense if K-means exists
as an ablation baseline, so a small, fully vectorised implementation lives
here.  A *balanced* variant is also provided because the semantic grouping
statement requires "group sizes are approximately equal", and the balanced
assignment is what the file→storage-unit partitioner builds on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["KMeansResult", "kmeans", "balanced_kmeans"]


@dataclass(frozen=True)
class KMeansResult:
    """Result of a K-means run.

    Attributes
    ----------
    labels:
        ``(n,)`` cluster index per point.
    centroids:
        ``(k, d)`` final cluster centroids.
    inertia:
        Total within-cluster sum of squared distances — exactly the
        quantitative semantic-correlation measure of §1.1.
    iterations:
        Number of Lloyd iterations executed.
    """

    labels: np.ndarray
    centroids: np.ndarray
    inertia: float
    iterations: int

    @property
    def n_clusters(self) -> int:
        return self.centroids.shape[0]


def _init_centroids(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centroids according to distance."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = points[first]
    closest_sq = np.sum((points - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        total = closest_sq.sum()
        if total <= 0:
            # All remaining points coincide with an existing centroid.
            centroids[i:] = points[int(rng.integers(n))]
            break
        probs = closest_sq / total
        chosen = int(rng.choice(n, p=probs))
        centroids[i] = points[chosen]
        dist_sq = np.sum((points - centroids[i]) ** 2, axis=1)
        np.minimum(closest_sq, dist_sq, out=closest_sq)
    return centroids


def _pairwise_sq_dist(
    points: np.ndarray, centroids: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """``(n, k)`` squared Euclidean distances, computed without Python loops.

    ``||x||^2 - 2 x.c + ||c||^2`` is accumulated in the product's own
    buffer (the operations, order and bits of ``p_sq - 2.0 * cross + c_sq``)
    and ``out`` hands back a result the caller is done with: at 50,000 x 60
    each fresh ``(n, k)`` array is 24 MB of untouched pages, and faulting
    four in per call was 0.3-2.2 s of a 1.3-3.4 s build.
    """
    p_sq = np.sum(points**2, axis=1)[:, None]
    c_sq = np.sum(centroids**2, axis=1)[None, :]
    d = np.matmul(points, centroids.T, out=out)
    d *= -2.0
    d += p_sq
    d += c_sq
    np.maximum(d, 0.0, out=d)
    return d


def kmeans(
    points: np.ndarray,
    k: int,
    *,
    max_iter: int = 100,
    tol: float = 1e-6,
    seed: Optional[int] = None,
) -> KMeansResult:
    """Lloyd's K-means with k-means++ initialisation.

    Parameters
    ----------
    points:
        ``(n, d)`` data matrix.
    k:
        Number of clusters, ``1 <= k <= n``.
    max_iter, tol:
        Iteration cap and relative-inertia convergence tolerance.
    seed:
        Seed for reproducible initialisation.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {points.shape}")
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")

    rng = np.random.default_rng(seed)
    centroids = _init_centroids(points, k, rng)
    prev_inertia = np.inf
    labels = np.zeros(n, dtype=np.intp)
    iterations = 0
    dists = None

    for iterations in range(1, max_iter + 1):
        dists = _pairwise_sq_dist(points, centroids, out=dists)
        labels = np.argmin(dists, axis=1)
        inertia = float(dists[np.arange(n), labels].sum())

        # Recompute centroids; re-seed any emptied cluster on the farthest point.
        for c in range(k):
            members = labels == c
            if members.any():
                centroids[c] = points[members].mean(axis=0)
            else:
                farthest = int(np.argmax(dists[np.arange(n), labels]))
                centroids[c] = points[farthest]

        if prev_inertia - inertia <= tol * max(prev_inertia, 1e-12):
            prev_inertia = inertia
            break
        prev_inertia = inertia

    final_d = _pairwise_sq_dist(points, centroids, out=dists)
    labels = np.argmin(final_d, axis=1)
    inertia = float(final_d[np.arange(n), labels].sum())
    return KMeansResult(labels=labels, centroids=centroids, inertia=inertia, iterations=iterations)


def balanced_kmeans(
    points: np.ndarray,
    k: int,
    *,
    max_iter: int = 100,
    slack: float = 1.2,
    seed: Optional[int] = None,
) -> KMeansResult:
    """K-means followed by a balancing pass that equalises cluster sizes.

    The semantic grouping statement (§3.1.1) asks for groups of
    *approximately* equal size — storage units have comparable capacity.
    After a standard K-means run, points are re-assigned greedily (most
    confident assignments first) with a per-cluster capacity of
    ``ceil(slack * n / k)``; the slack keeps clusters roughly balanced
    without forcing semantically unrelated points into a cluster purely to
    hit an exact quota.
    """
    points = np.asarray(points, dtype=np.float64)
    if slack < 1.0:
        raise ValueError("slack must be >= 1.0")
    base = kmeans(points, k, max_iter=max_iter, seed=seed)
    n = points.shape[0]
    capacity = max(1, int(np.ceil(slack * n / k)))

    dists = _pairwise_sq_dist(points, base.centroids)
    # Confidence = gap between best and second-best centroid; assign the most
    # confident points first so only genuinely ambiguous points overflow.
    sorted_d = np.sort(dists, axis=1)
    confidence = sorted_d[:, 1] - sorted_d[:, 0] if k > 1 else sorted_d[:, 0]
    order = np.argsort(-confidence)

    counts = np.zeros(k, dtype=np.intp)
    labels = np.empty(n, dtype=np.intp)
    for idx in order:
        for candidate in np.argsort(dists[idx]):
            if counts[candidate] < capacity:
                labels[idx] = candidate
                counts[candidate] += 1
                break

    centroids = np.empty_like(base.centroids)
    for c in range(k):
        members = labels == c
        centroids[c] = points[members].mean(axis=0) if members.any() else base.centroids[c]
    final_d = _pairwise_sq_dist(points, centroids, out=dists)
    inertia = float(final_d[np.arange(n), labels].sum())
    return KMeansResult(labels=labels, centroids=centroids, inertia=inertia, iterations=base.iterations)
