"""Comparison systems used by the evaluation.

The two baselines of the paper's §5.1:

* :class:`~repro.baselines.dbms.DBMSBaseline` — "a popular database
  approach that uses a B+-tree to index each metadata attribute".  All
  per-attribute indexes live on a single database server and, at the scales
  the paper targets, are disk resident; multi-attribute queries intersect
  per-attribute scans and top-k queries degenerate to linear scans.
* :class:`~repro.baselines.rtree_db.RTreeBaseline` — "a simple,
  non-semantic R-tree-based database approach" holding every file's
  multi-dimensional attribute point in one centralised R-tree, ignoring
  metadata semantics.

Two further comparators from the related-work discussion (§6.2), used by
the ablation benchmarks:

* :class:`~repro.baselines.spyglass.SpyglassBaseline` — a Spyglass-style
  single-server index: the namespace is carved into subtree partitions,
  each indexed by a K-D tree with an attribute-bounds signature for
  pruning.
* :class:`~repro.namespace.baseline.DirectoryTreeBaseline` (in
  :mod:`repro.namespace`) — the conventional directory-tree organisation
  answering complex queries by brute-force walks.

All comparators expose the same three query interfaces as SmartStore and
charge each query's work to that query's own
:class:`~repro.cluster.metrics.Metrics`, so the Table 4 / Figure 7
comparisons are apples-to-apples.
"""

from repro.baselines.dbms import DBMSBaseline
from repro.baselines.rtree_db import RTreeBaseline
from repro.baselines.spyglass import SpyglassBaseline

__all__ = ["DBMSBaseline", "RTreeBaseline", "SpyglassBaseline"]
