"""System reconfiguration (§3.2) and node split/merge (§4.1).

Storage units join and leave a running deployment:

* **Insertion** — the new unit is offered to a randomly chosen group; if its
  semantic correlation with the group vector exceeds the admission
  threshold it is accepted, otherwise the request is forwarded to the next
  most correlated group (each forward is a message).  After acceptance the
  group's MBR / semantic vector / Bloom filter are refreshed upward, and the
  group is split if it now exceeds the fan-out bound ``M``.
* **Deletion** — the unit is unlinked, ancestors are refreshed, and a group
  left with fewer than ``m`` children is merged into its most correlated
  sibling; a parent left with a single child is collapsed (height adjustment
  propagates upward).

Split and merge follow the classical R-tree discipline with the semantic
twist that children are redistributed by semantic-vector similarity rather
than purely by geometric area.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.cluster.metrics import Metrics
from repro.core.semantic_rtree import SemanticNode, SemanticRTree, StorageUnitDescriptor
from repro.bloom.bloom import BloomFilter
from repro.lsi.kmeans import kmeans

__all__ = [
    "insert_storage_unit",
    "delete_storage_unit",
    "split_group",
    "merge_into_sibling",
    "refresh_upward",
]


def _correlation(a: Optional[np.ndarray], b: Optional[np.ndarray]) -> float:
    """Cosine similarity of two semantic vectors (0 when either is missing)."""
    if a is None or b is None:
        return 0.0
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    if denom == 0:
        return 0.0
    return float(np.dot(a, b) / denom)


def insert_storage_unit(
    tree: SemanticRTree,
    descriptor: StorageUnitDescriptor,
    *,
    admission_threshold: float = 0.5,
    rng: Optional[np.random.Generator] = None,
    metrics: Optional[Metrics] = None,
) -> Tuple[SemanticNode, int]:
    """Insert a new storage unit into the semantic R-tree.

    Returns ``(group_joined, forwards)`` where ``forwards`` is the number of
    admission checks that failed before a group accepted the unit (each one
    is an inter-group message).  If no group's correlation reaches the
    admission threshold the most correlated group accepts the unit anyway —
    the threshold balances load, it must not lose units.  The unit's leaf
    filter takes the tree's width (every union up its path needs it).
    """
    if descriptor.unit_id in tree.leaves:
        raise ValueError(f"storage unit {descriptor.unit_id} is already part of the tree")
    # Fixed fallback stream: reconfiguration must be reproducible even
    # when the caller does not thread a seeded generator through.
    rng = rng if rng is not None else np.random.default_rng(0)
    metrics = metrics if metrics is not None else Metrics()

    groups = tree.first_level_groups()
    # Start at a randomly chosen group, then forward by decreasing correlation.
    correlations = [
        (_correlation(descriptor.semantic_vector, g.semantic_vector), g) for g in groups
    ]
    start = int(rng.integers(len(groups)))
    ordered = [correlations[start]] + sorted(
        correlations[:start] + correlations[start + 1:], key=lambda pair: -pair[0]
    )

    forwards = 0
    chosen: Optional[SemanticNode] = None
    for corr, group in ordered:
        metrics.record_index_access()
        if corr >= admission_threshold:
            chosen = group
            break
        forwards += 1
        metrics.record_message()
    if chosen is None:
        # Nobody met the threshold; fall back to the most correlated group.
        chosen = max(correlations, key=lambda pair: pair[0])[1]

    probe = tree.summaries().probe_filter
    assert probe is not None, "a built tree carries Bloom filters"
    bloom = BloomFilter(probe.num_bits, probe.num_hashes)
    bloom.add_many(descriptor.filenames)
    leaf = tree.allocate_node(
        0,
        mbr=descriptor.mbr,
        semantic_vector=np.asarray(descriptor.semantic_vector, dtype=np.float64),
        bloom=bloom,
        unit_id=descriptor.unit_id,
    )
    leaf.file_count = descriptor.file_count
    # A degenerate tree may have a leaf as its "first-level group".
    if chosen.is_leaf:
        parent = tree.allocate_node(1)
        grand = chosen.parent
        if grand is not None:
            grand.remove_child(chosen)
            grand.add_child(parent)
        else:
            tree.root = parent
        parent.add_child(chosen)
        chosen = parent
    chosen.add_child(leaf)
    refresh_upward(chosen)

    if len(chosen.children) > tree.max_fanout:
        split_group(tree, chosen)
    return chosen, forwards


def delete_storage_unit(
    tree: SemanticRTree,
    unit_id: int,
    *,
    min_children: Optional[int] = None,
) -> bool:
    """Remove a storage unit from the tree.

    Returns False when the unit is unknown.  Groups that fall below the
    minimum occupancy are merged into their most correlated sibling, and a
    parent left with a single child is collapsed so the height adjustment
    propagates upward (§3.2.2).
    """
    leaf = tree.leaves.get(unit_id)
    if leaf is None:
        return False
    if min_children is None:
        min_children = max(1, tree.max_fanout // 2)

    parent = leaf.parent
    if parent is None:
        raise ValueError("cannot delete the only storage unit in the system")
    parent.remove_child(leaf)
    tree.forget_node(leaf)
    refresh_upward(parent)

    if len(parent.children) < min_children:
        merge_into_sibling(tree, parent)
    _collapse_single_child_chains(tree)
    return True


def split_group(tree: SemanticRTree, group: SemanticNode) -> Tuple[SemanticNode, SemanticNode]:
    """Split an overflowing group into two semantically coherent halves.

    Children are partitioned by 2-means over their semantic vectors (the
    semantic analogue of Guttman's quadratic split); the new sibling is
    attached to the same parent, which may in turn overflow and split.
    """
    children = list(group.children)
    if len(children) < 2:
        raise ValueError("cannot split a group with fewer than two children")
    vectors = np.vstack(
        [
            c.semantic_vector
            if c.semantic_vector is not None
            else np.zeros_like(children[0].semantic_vector)
            for c in children
        ]
    )
    labels = kmeans(vectors, 2, seed=0).labels
    # Guard against a degenerate assignment that leaves one side empty.
    if len(set(labels.tolist())) < 2:
        labels = np.array([i % 2 for i in range(len(children))])

    keep = [c for c, l in zip(children, labels) if l == 0]
    move = [c for c, l in zip(children, labels) if l == 1]
    if not keep or not move:
        half = len(children) // 2
        keep, move = children[:half], children[half:]

    group.children = []
    for child in keep:
        group.add_child(child)
    sibling = tree.allocate_node(group.level)
    for child in move:
        sibling.add_child(child)
    group.refresh_from_children()
    sibling.refresh_from_children()
    # The new index unit needs a physical host (build-time mapping only ran
    # once); keep the paper's discipline of hosting an index unit on one of
    # its own descendant storage units.
    descendants = sibling.descendant_unit_ids()
    if sibling.hosted_on is None and descendants:
        sibling.hosted_on = descendants[0]

    parent = group.parent
    if parent is None:
        new_root = tree.allocate_node(group.level + 1)
        new_root.add_child(group)
        new_root.add_child(sibling)
        new_root.refresh_from_children()
        tree.root = new_root
    else:
        parent.add_child(sibling)
        refresh_upward(parent)
        if len(parent.children) > tree.max_fanout:
            split_group(tree, parent)
    return group, sibling


def merge_into_sibling(tree: SemanticRTree, group: SemanticNode) -> Optional[SemanticNode]:
    """Merge an under-full group into its most correlated sibling.

    Returns the sibling that absorbed the children, or None when the group
    has no sibling at its own level (the root cannot be merged away, and a
    storage unit beside it cannot take children).
    """
    parent = group.parent
    if parent is None:
        return None
    siblings = [c for c in parent.children if c is not group and c.level == group.level]
    if not siblings:
        return None
    best = max(siblings, key=lambda s: _correlation(group.semantic_vector, s.semantic_vector))
    for child in list(group.children):
        best.add_child(child)
    group.children = []
    parent.remove_child(group)
    tree.forget_node(group)
    best.refresh_from_children()
    refresh_upward(parent)
    if len(best.children) > tree.max_fanout:
        split_group(tree, best)
    return best


def refresh_upward(node: Optional[SemanticNode]) -> None:
    """Recompute the summaries of ``node`` and every ancestor, bottom-up."""
    while node is not None:
        node.refresh_from_children()
        node = node.parent


def _collapse_single_child_chains(tree: SemanticRTree) -> None:
    """Collapse internal nodes left with a single child (height adjustment)."""
    changed = True
    while changed:
        changed = False
        # The root itself collapses downward when it has a single child.
        while not tree.root.is_leaf and len(tree.root.children) == 1:
            old_root = tree.root
            tree.root = old_root.children[0]
            tree.root.parent = None
            tree.forget_node(old_root)
            changed = True
        for node in list(tree.nodes):
            if node.is_leaf or node is tree.root or node.parent is None:
                continue
            if len(node.children) == 1:
                child = node.children[0]
                parent = node.parent
                parent.remove_child(node)
                parent.add_child(child)
                tree.forget_node(node)
                refresh_upward(parent)
                changed = True
