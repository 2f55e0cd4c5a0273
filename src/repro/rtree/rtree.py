"""A dynamic Guttman R-tree.

This is the substrate shared by the centralised non-semantic R-tree baseline
and by pieces of the semantic R-tree (node split/merge follow "the classical
algorithms in R-tree", §4.1).  The implementation follows Guttman's original
algorithms: ChooseLeaf by least enlargement, quadratic split, and deletion
with tree condensation and re-insertion.

Data records are ``(point, payload)`` pairs; internal nodes hold child
entries with their MBRs.  An optional ``access_counter`` callback is invoked
once per node visited, which is how the evaluation harness charges index
probes to the simulated cost model without entangling the data structure
with the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.rtree.mbr import MBR

__all__ = ["RTree", "RTreeNode", "RTreeEntry"]


@dataclass(eq=False)
class RTreeEntry:
    """A leaf-level data record: a point in attribute space plus a payload.

    Identity semantics (``eq=False``): two entries are the same only if they
    are the same object, which is what the split/delete bookkeeping relies
    on (comparing numpy points element-wise would be both slow and
    ambiguous).
    """

    point: np.ndarray
    payload: object

    def __post_init__(self) -> None:
        self.point = np.asarray(self.point, dtype=np.float64)

    def mbr(self) -> MBR:
        return MBR.from_point(self.point)


class RTreeNode:
    """One node of the R-tree.

    Leaf nodes hold :class:`RTreeEntry` records; internal nodes hold child
    :class:`RTreeNode` objects.  Every node caches the MBR of its contents.
    """

    __slots__ = ("is_leaf", "entries", "children", "mbr", "parent")

    def __init__(self, is_leaf: bool = True) -> None:
        self.is_leaf = is_leaf
        self.entries: List[RTreeEntry] = []
        self.children: List["RTreeNode"] = []
        self.mbr: Optional[MBR] = None
        self.parent: Optional["RTreeNode"] = None

    # ------------------------------------------------------------------ content
    def items(self) -> Sequence[object]:
        """The node's children (entries for leaves, nodes for internals)."""
        return self.entries if self.is_leaf else self.children

    def __len__(self) -> int:
        return len(self.entries) if self.is_leaf else len(self.children)

    def recompute_mbr(self) -> None:
        """Refresh the cached MBR from the node's current contents."""
        if self.is_leaf:
            if not self.entries:
                self.mbr = None
            else:
                points = np.vstack([e.point for e in self.entries])
                self.mbr = MBR.from_points(points)
        else:
            child_mbrs = [c.mbr for c in self.children if c.mbr is not None]
            self.mbr = MBR.union_of(child_mbrs) if child_mbrs else None

    def add_child(self, child: "RTreeNode") -> None:
        self.children.append(child)
        child.parent = self


def _item_mbr(item: object) -> MBR:
    """MBR of either an entry or a node (used by the split heuristics)."""
    if isinstance(item, RTreeEntry):
        return item.mbr()
    return item.mbr  # type: ignore[union-attr]


class RTree:
    """Dynamic R-tree with Guttman insertion/deletion and window search.

    Parameters
    ----------
    dimension:
        Dimensionality of the indexed points.
    max_entries:
        Fan-out bound ``M``; nodes split when they exceed it.
    min_entries:
        Underflow bound ``m``; defaults to ``M // 2`` (the paper sets
        ``m <= M/2`` and tunes it per workload, §4.1).
    access_counter:
        Optional callable invoked once for every node visited by a search
        or update, used by the evaluation cost model.
    """

    def __init__(
        self,
        dimension: int,
        max_entries: int = 8,
        min_entries: Optional[int] = None,
        access_counter: Optional[Callable[[], None]] = None,
    ) -> None:
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        if max_entries < 2:
            raise ValueError(f"max_entries must be >= 2, got {max_entries}")
        if min_entries is None:
            min_entries = max(1, max_entries // 2)
        if not 1 <= min_entries <= max_entries // 2:
            raise ValueError(
                f"min_entries must satisfy 1 <= m <= M/2 (M={max_entries}), got {min_entries}"
            )
        self.dimension = dimension
        self.max_entries = max_entries
        self.min_entries = min_entries
        self.root = RTreeNode(is_leaf=True)
        self._size = 0
        self._access_counter = access_counter

    # ------------------------------------------------------------------ basic facts
    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels (1 for a tree that is just a leaf root)."""
        h = 1
        node = self.root
        while not node.is_leaf:
            node = node.children[0]
            h += 1
        return h

    def node_count(self) -> int:
        """Total number of nodes in the tree."""
        return sum(1 for _ in self.iter_nodes())

    def iter_nodes(self) -> Iterator[RTreeNode]:
        """Depth-first iterator over every node."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.extend(node.children)

    def iter_entries(self) -> Iterator[RTreeEntry]:
        """Iterator over every stored data record."""
        for node in self.iter_nodes():
            if node.is_leaf:
                yield from node.entries

    def _touch(self, count: int = 1) -> None:
        if self._access_counter is not None:
            for _ in range(count):
                self._access_counter()

    # ------------------------------------------------------------------ insertion
    def insert(self, point: Sequence[float], payload: object) -> None:
        """Insert a data record at ``point`` carrying ``payload``."""
        point = np.asarray(point, dtype=np.float64)
        if point.shape != (self.dimension,):
            raise ValueError(
                f"point has shape {point.shape}, expected ({self.dimension},)"
            )
        entry = RTreeEntry(point=point, payload=payload)
        leaf = self._choose_leaf(self.root, entry)
        leaf.entries.append(entry)
        self._adjust_upward(leaf)
        if len(leaf.entries) > self.max_entries:
            self._split_node(leaf)
        self._size += 1

    def _choose_leaf(self, node: RTreeNode, entry: RTreeEntry) -> RTreeNode:
        self._touch()
        while not node.is_leaf:
            entry_mbr = entry.mbr()
            best_child = None
            best_key = None
            for child in node.children:
                enlargement = child.mbr.enlargement(entry_mbr) if child.mbr else 0.0
                area = child.mbr.area() if child.mbr else 0.0
                key = (enlargement, area)
                if best_key is None or key < best_key:
                    best_key = key
                    best_child = child
            node = best_child
            self._touch()
        return node

    def _adjust_upward(self, node: RTreeNode) -> None:
        while node is not None:
            node.recompute_mbr()
            node = node.parent

    # ------------------------------------------------------------------ splitting
    def _split_node(self, node: RTreeNode) -> None:
        """Quadratic split of an overflowing node, propagating upward."""
        items = list(node.items())
        seed_a, seed_b = self._pick_seeds(items)
        group_a: List[object] = [items[seed_a]]
        group_b: List[object] = [items[seed_b]]
        mbr_a = _item_mbr(items[seed_a])
        mbr_b = _item_mbr(items[seed_b])
        remaining = [it for i, it in enumerate(items) if i not in (seed_a, seed_b)]

        while remaining:
            # If one group needs every remaining item to reach the minimum, assign all.
            if len(group_a) + len(remaining) <= self.min_entries:
                group_a.extend(remaining)
                remaining = []
                break
            if len(group_b) + len(remaining) <= self.min_entries:
                group_b.extend(remaining)
                remaining = []
                break
            item, cost_a, cost_b = self._pick_next(remaining, mbr_a, mbr_b)
            remaining = [x for x in remaining if x is not item]
            item_mbr = _item_mbr(item)
            if cost_a < cost_b or (cost_a == cost_b and len(group_a) <= len(group_b)):
                group_a.append(item)
                mbr_a = mbr_a.union(item_mbr)
            else:
                group_b.append(item)
                mbr_b = mbr_b.union(item_mbr)

        sibling = RTreeNode(is_leaf=node.is_leaf)
        if node.is_leaf:
            node.entries = list(group_a)  # type: ignore[arg-type]
            sibling.entries = list(group_b)  # type: ignore[arg-type]
        else:
            node.children = []
            for child in group_a:
                node.add_child(child)  # type: ignore[arg-type]
            for child in group_b:
                sibling.add_child(child)  # type: ignore[arg-type]
        node.recompute_mbr()
        sibling.recompute_mbr()

        parent = node.parent
        if parent is None:
            new_root = RTreeNode(is_leaf=False)
            new_root.add_child(node)
            new_root.add_child(sibling)
            new_root.recompute_mbr()
            self.root = new_root
        else:
            parent.add_child(sibling)
            self._adjust_upward(parent)
            if len(parent.children) > self.max_entries:
                self._split_node(parent)

    @staticmethod
    def _pick_seeds(items: Sequence[object]) -> Tuple[int, int]:
        """Quadratic seed picking: the pair wasting the most area together."""
        best_pair = (0, 1)
        best_waste = -np.inf
        mbrs = [_item_mbr(it) for it in items]
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                waste = mbrs[i].union(mbrs[j]).area() - mbrs[i].area() - mbrs[j].area()
                if waste > best_waste:
                    best_waste = waste
                    best_pair = (i, j)
        return best_pair

    @staticmethod
    def _pick_next(
        remaining: Sequence[object], mbr_a: MBR, mbr_b: MBR
    ) -> Tuple[object, float, float]:
        """Pick the item with the strongest preference for one of the groups."""
        best_item = None
        best_diff = -1.0
        best_costs = (0.0, 0.0)
        for item in remaining:
            m = _item_mbr(item)
            cost_a = mbr_a.enlargement(m)
            cost_b = mbr_b.enlargement(m)
            diff = abs(cost_a - cost_b)
            if diff > best_diff:
                best_diff = diff
                best_item = item
                best_costs = (cost_a, cost_b)
        return best_item, best_costs[0], best_costs[1]

    # ------------------------------------------------------------------ deletion
    def delete(self, point: Sequence[float], payload: object) -> bool:
        """Remove the record with this exact point and payload.

        Returns True when a record was removed.  Underflowing nodes are
        condensed: their surviving records are re-inserted, exactly as in
        Guttman's CondenseTree.
        """
        point = np.asarray(point, dtype=np.float64)
        leaf = self._find_leaf(self.root, point, payload)
        if leaf is None:
            return False
        leaf.entries = [
            e for e in leaf.entries if not (np.array_equal(e.point, point) and e.payload == payload)
        ]
        self._size -= 1
        self._condense(leaf)
        # Shrink the root if it became a lone-child internal node.
        while not self.root.is_leaf and len(self.root.children) == 1:
            self.root = self.root.children[0]
            self.root.parent = None
        return True

    def _find_leaf(self, node: RTreeNode, point: np.ndarray, payload: object) -> Optional[RTreeNode]:
        self._touch()
        if node.is_leaf:
            for e in node.entries:
                if np.array_equal(e.point, point) and e.payload == payload:
                    return node
            return None
        for child in node.children:
            if child.mbr is not None and child.mbr.contains_point(point):
                found = self._find_leaf(child, point, payload)
                if found is not None:
                    return found
        return None

    def _condense(self, node: RTreeNode) -> None:
        orphaned_entries: List[RTreeEntry] = []
        orphaned_nodes: List[RTreeNode] = []
        current = node
        while current.parent is not None:
            parent = current.parent
            if len(current) < self.min_entries:
                parent.children.remove(current)
                if current.is_leaf:
                    orphaned_entries.extend(current.entries)
                else:
                    orphaned_nodes.extend(current.children)
            else:
                current.recompute_mbr()
            current = parent
        self.root.recompute_mbr()

        for entry in orphaned_entries:
            self._size -= 1
            self.insert(entry.point, entry.payload)
        for orphan in orphaned_nodes:
            for entry in _collect_entries(orphan):
                self._size -= 1
                self.insert(entry.point, entry.payload)

    # ------------------------------------------------------------------ search
    def search_range(self, lower: Sequence[float], upper: Sequence[float]) -> List[RTreeEntry]:
        """All records whose point falls inside the query window."""
        window = MBR(lower, upper)
        results: List[RTreeEntry] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            self._touch()
            if node.mbr is None or not node.mbr.intersects(window):
                continue
            if node.is_leaf:
                for e in node.entries:
                    if window.contains_point(e.point):
                        results.append(e)
            else:
                stack.extend(node.children)
        return results

    def search_point(self, point: Sequence[float]) -> List[RTreeEntry]:
        """All records stored exactly at ``point``."""
        point = np.asarray(point, dtype=np.float64)
        return [e for e in self.search_range(point, point) if np.array_equal(e.point, point)]

    def count_in_range(self, lower: Sequence[float], upper: Sequence[float]) -> int:
        """Number of records inside the window (no materialisation)."""
        return len(self.search_range(lower, upper))


def _collect_entries(node: RTreeNode) -> List[RTreeEntry]:
    """All data records under ``node`` (used when re-inserting orphans)."""
    out: List[RTreeEntry] = []
    stack = [node]
    while stack:
        current = stack.pop()
        if current.is_leaf:
            out.extend(current.entries)
        else:
            stack.extend(current.children)
    return out
