"""Latent Semantic Indexing (LSI) machinery.

SmartStore measures the semantic correlation between files (and between
storage/index units) with Latent Semantic Indexing built on a truncated
Singular Value Decomposition (§3.1.1).  This subpackage provides:

* :func:`~repro.lsi.svd.truncated_svd` — a thin, shape-checked wrapper over
  ``scipy.linalg.svd(..., full_matrices=False)`` / ``scipy.sparse.linalg.svds``
  that always returns a rank-``p`` factorisation.
* :class:`~repro.lsi.model.LSIModel` — fit an attribute–item matrix, project
  items into the ``p``-dimensional semantic subspace, fold in query vectors
  (``q_hat = Sigma^-1 U^T q``) and compute pairwise semantic correlations.
* :func:`~repro.lsi.kmeans.kmeans` — the K-means alternative the paper
  discusses (and argues against) in §3.1.1, kept as an ablation baseline.
"""

from repro.lsi.svd import truncated_svd
from repro.lsi.model import LSIModel
from repro.lsi.kmeans import kmeans, KMeansResult, balanced_kmeans

__all__ = [
    "truncated_svd",
    "LSIModel",
    "kmeans",
    "balanced_kmeans",
    "KMeansResult",
]
