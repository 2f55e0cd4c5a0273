"""Tests for the K-means baseline and its balanced variant."""

import numpy as np
import pytest

from repro.lsi.kmeans import _pairwise_sq_dist, balanced_kmeans, kmeans


def blobs(k=3, per=20, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-10, 10, size=(k, 2))
    points = np.vstack([rng.normal(c, 0.2, size=(per, 2)) for c in centers])
    return points


class TestKMeans:
    def test_labels_and_centroids_shape(self):
        pts = blobs()
        result = kmeans(pts, 3, seed=0)
        assert result.labels.shape == (pts.shape[0],)
        assert result.centroids.shape == (3, 2)
        assert result.n_clusters == 3

    def test_labels_in_range(self):
        result = kmeans(blobs(), 3, seed=0)
        assert result.labels.min() >= 0
        assert result.labels.max() < 3

    def test_recovers_well_separated_blobs(self):
        pts = blobs(k=3, per=30, seed=1)
        result = kmeans(pts, 3, seed=1)
        # Each true blob should map to a single cluster label.
        for b in range(3):
            labels = result.labels[b * 30:(b + 1) * 30]
            assert len(set(labels.tolist())) == 1

    def test_inertia_nonnegative_and_decreases_with_k(self):
        pts = blobs()
        inertias = [kmeans(pts, k, seed=0).inertia for k in (1, 3, 6)]
        assert all(i >= 0 for i in inertias)
        assert inertias[0] >= inertias[1] >= inertias[2]

    def test_k_equals_n(self):
        pts = blobs(k=2, per=3)
        result = kmeans(pts, len(pts), seed=0)
        assert result.inertia == pytest.approx(0.0, abs=1e-9)

    def test_k_one(self):
        pts = blobs()
        result = kmeans(pts, 1, seed=0)
        assert np.allclose(result.centroids[0], pts.mean(axis=0))

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            kmeans(blobs(), 0)
        with pytest.raises(ValueError):
            kmeans(np.ones((3, 2)), 5)

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            kmeans(np.ones(10), 2)

    def test_deterministic_with_seed(self):
        pts = blobs()
        a = kmeans(pts, 3, seed=42)
        b = kmeans(pts, 3, seed=42)
        assert np.array_equal(a.labels, b.labels)

    def test_duplicate_points(self):
        pts = np.ones((10, 3))
        result = kmeans(pts, 2, seed=0)
        assert result.inertia == pytest.approx(0.0, abs=1e-9)


class TestPairwiseDistances:
    def test_in_place_accumulation_keeps_the_bits(self):
        """The kernel accumulates in the product's buffer and reuses a
        buffer it is handed; both must be bit-equal to the formula as it is
        written on paper (labels, hence every placement, depend on it)."""
        rng = np.random.default_rng(5)
        points, centroids = rng.normal(size=(4_000, 5)) * 3.0, rng.normal(size=(60, 5))
        p_sq = np.sum(points**2, axis=1)[:, None]
        c_sq = np.sum(centroids**2, axis=1)[None, :]
        expected = np.maximum(p_sq - 2.0 * (points @ centroids.T) + c_sq, 0.0)
        fresh = _pairwise_sq_dist(points, centroids)
        assert fresh.tobytes() == expected.tobytes()
        buffer = np.full_like(expected, np.nan)
        assert _pairwise_sq_dist(points, centroids, out=buffer) is buffer
        assert buffer.tobytes() == expected.tobytes()


class TestBalancedKMeans:
    def test_sizes_within_capacity(self):
        pts = blobs(k=3, per=20, seed=2)
        result = balanced_kmeans(pts, 4, slack=1.2, seed=2)
        counts = np.bincount(result.labels, minlength=4)
        capacity = int(np.ceil(1.2 * len(pts) / 4))
        assert counts.max() <= capacity

    def test_all_points_assigned(self):
        pts = blobs()
        result = balanced_kmeans(pts, 5, seed=0)
        assert result.labels.shape == (len(pts),)
        assert set(result.labels.tolist()) <= set(range(5))

    def test_balanced_no_worse_than_double_inertia_on_balanced_data(self):
        pts = blobs(k=4, per=25, seed=3)
        plain = kmeans(pts, 4, seed=3)
        balanced = balanced_kmeans(pts, 4, seed=3)
        assert balanced.inertia <= 2.0 * plain.inertia + 1e-9

    def test_invalid_slack(self):
        with pytest.raises(ValueError):
            balanced_kmeans(blobs(), 3, slack=0.5)

    def test_exact_balance_with_slack_one(self):
        pts = blobs(k=2, per=10, seed=4)
        result = balanced_kmeans(pts, 4, slack=1.0, seed=4)
        counts = np.bincount(result.labels, minlength=4)
        assert counts.max() <= int(np.ceil(len(pts) / 4))
