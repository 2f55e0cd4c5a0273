"""The semantic R-tree (§2, §3).

The semantic R-tree is evolved from the classical R-tree: its leaf nodes are
*storage units* (metadata servers holding file metadata) and its non-leaf
nodes are *index units* holding location/mapping information.  Every node
carries three summaries of the metadata reachable through it:

* an **MBR** over the raw attribute space (range-query pruning),
* a **semantic vector** — the centroid of its children in the LSI subspace
  (top-k routing and correlation-based insertion), and
* a **Bloom filter** — the union of its children's filters (filename point
  queries, Figure 4).

The tree is built bottom-up by the iterative semantic grouping of
:mod:`repro.core.grouping` and is deliberately decoupled from the cluster
simulator: traversal methods accept a :class:`~repro.cluster.metrics.Metrics`
object so that callers decide how probes are charged.

The nodes are the primary state.  Queries read *derived* columnar copies of
their summaries (:class:`SummaryTables`: one bit-matrix row per node filter,
stacked MBR rows per first-level group and per group leaf) so that one query
probes every node with one numpy gather instead of one call per node.  The
copies are rebuilt lazily behind one seam —
:meth:`SemanticRTree.invalidate_summaries`, reached from every write to a
node's ``bloom`` / ``mbr`` / ``children`` and to the tree's root and node
registries — and are never written directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.bloom.bloom import BloomFilter
from repro.cluster.metrics import Metrics
from repro.core.grouping import build_group_levels
from repro.rtree.mbr import MBR, MBRStack

__all__ = ["StorageUnitDescriptor", "SemanticNode", "SemanticRTree", "SummaryTables"]


@dataclass
class StorageUnitDescriptor:
    """Static description of one storage unit used to build the tree.

    Attributes
    ----------
    unit_id:
        Identifier of the storage unit (matches the cluster simulator).
    mbr:
        MBR of the unit's files in raw attribute space (None when empty).
    centroid:
        Centroid of the unit's files in raw attribute space.
    semantic_vector:
        The unit's coordinates in the LSI semantic subspace.
    filenames:
        Filenames stored on the unit (feeds the leaf Bloom filter).
    file_count:
        Number of files on the unit.
    bloom:
        The unit's filter over exactly ``filenames`` when its server already
        built one: the leaf copies it instead of hashing every name again.
    """

    unit_id: int
    mbr: Optional[MBR]
    centroid: Optional[np.ndarray]
    semantic_vector: np.ndarray
    filenames: List[str] = field(default_factory=list)
    file_count: int = 0
    bloom: Optional[BloomFilter] = None


class SemanticNode:
    """One node of the semantic R-tree (storage unit or index unit)."""

    __slots__ = (
        "node_id",
        "level",
        "_children",
        "parent",
        "_mbr",
        "semantic_vector",
        "_bloom",
        "unit_id",
        "hosted_on",
        "replica_hosts",
        "file_count",
        "_tree",
    )

    def __init__(
        self,
        node_id: int,
        level: int,
        *,
        mbr: Optional[MBR] = None,
        semantic_vector: Optional[np.ndarray] = None,
        bloom: Optional[BloomFilter] = None,
        unit_id: Optional[int] = None,
    ) -> None:
        self.node_id = node_id
        self.level = level
        self._tree: Optional["SemanticRTree"] = None  # set when a tree adopts the node
        self._children: Tuple["SemanticNode", ...] = ()
        self.parent: Optional["SemanticNode"] = None
        self._mbr = mbr
        self.semantic_vector = semantic_vector
        self._bloom = bloom
        self.unit_id = unit_id          # set only for storage units (leaves)
        self.hosted_on: Optional[int] = unit_id  # server hosting this node
        self.replica_hosts: List[int] = []       # extra hosts (root multi-mapping)
        self.file_count = 0

    # ------------------------------------------------------------------ structure
    @property
    def is_leaf(self) -> bool:
        """True for storage units (level 0)."""
        return self.level == 0

    # The summaries queries prune by (``mbr``, ``bloom``) and the topology
    # (``children``) are written only through these setters, which is what
    # keeps the tree's derived tables honest: every write reaches
    # :meth:`SemanticRTree.invalidate_summaries`.  ``children`` is a tuple
    # so that an in-place edit cannot slip past the seam.
    def _summaries_changed(self) -> None:
        if self._tree is not None:
            self._tree.invalidate_summaries()

    @property
    def mbr(self) -> Optional[MBR]:
        return self._mbr

    @mbr.setter
    def mbr(self, value: Optional[MBR]) -> None:
        self._mbr = value
        self._summaries_changed()

    @property
    def bloom(self) -> Optional[BloomFilter]:
        return self._bloom

    @bloom.setter
    def bloom(self, value: Optional[BloomFilter]) -> None:
        self._bloom = value
        self._summaries_changed()

    @property
    def children(self) -> Tuple["SemanticNode", ...]:
        return self._children

    @children.setter
    def children(self, value: Sequence["SemanticNode"]) -> None:
        self._children = tuple(value)
        self._summaries_changed()

    def add_child(self, child: "SemanticNode") -> None:
        child.parent = self
        self.children = self._children + (child,)

    def remove_child(self, child: "SemanticNode") -> None:
        """Unlink ``child`` (its ``parent`` pointer is left to the caller)."""
        if child not in self._children:
            raise ValueError(f"node {child.node_id} is not a child of node {self.node_id}")
        self.children = tuple(c for c in self._children if c is not child)

    def descendant_leaves(self) -> List["SemanticNode"]:
        """Every storage unit reachable through this node (self included if leaf)."""
        if self.is_leaf:
            return [self]
        out: List["SemanticNode"] = []
        stack = list(self.children)
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out.append(node)
            else:
                stack.extend(node.children)
        return out

    def descendant_unit_ids(self) -> List[int]:
        return [leaf.unit_id for leaf in self.descendant_leaves()]

    def siblings(self) -> List["SemanticNode"]:
        if self.parent is None:
            return []
        return [c for c in self.parent.children if c is not self]

    # ------------------------------------------------------------------ summaries
    def refresh_from_children(self) -> None:
        """Recompute MBR, semantic vector, Bloom filter and file count bottom-up."""
        if self.is_leaf or not self.children:
            return
        child_mbrs = [c.mbr for c in self.children if c.mbr is not None]
        self.mbr = MBR.union_of(child_mbrs) if child_mbrs else None
        vectors = [c.semantic_vector for c in self.children if c.semantic_vector is not None]
        self.semantic_vector = np.mean(np.vstack(vectors), axis=0) if vectors else None
        blooms = [c.bloom for c in self.children if c.bloom is not None]
        self.bloom = BloomFilter.union_of(blooms) if blooms else None
        self.file_count = sum(c.file_count for c in self.children)

    def intersects_subrange(
        self, attr_indices: Sequence[int], lower: np.ndarray, upper: np.ndarray
    ) -> bool:
        """MBR overlap test restricted to the constrained attributes.

        Queries constrain an arbitrary subset of the ``D`` dimensions; the
        unconstrained dimensions always match.
        """
        if self.mbr is None:
            return False
        idx = list(attr_indices)
        node_lo = self.mbr.lower[idx]
        node_hi = self.mbr.upper[idx]
        return bool(np.all(node_lo <= upper) and np.all(lower <= node_hi))

    def min_distance_subrange(
        self,
        attr_indices: Sequence[int],
        point: np.ndarray,
        norm_lower: np.ndarray,
        norm_upper: np.ndarray,
    ) -> float:
        """MINDIST from a (raw-space) query point restricted to a subset of
        attributes, computed in the deployment's normalised space.

        Normalisation bounds are per constrained attribute; because min-max
        normalisation is monotone per dimension, normalising the MBR's
        corner coordinates yields the MBR of the normalised points.

        Everything is clipped to ``[0, 1]`` exactly like
        ``normalize_index_values`` clips the coordinates actual distances
        are computed from — MINDIST must be a lower bound in the *same*
        geometry as the distances it prunes against, or an out-of-bounds
        query point would overestimate MINDIST and prune groups (or, at the
        router level, whole shards) that hold true top-k members.
        """
        if self.mbr is None:
            return float("inf")
        idx = list(attr_indices)
        span = np.where(norm_upper - norm_lower > 0, norm_upper - norm_lower, 1.0)
        node_lo = np.clip((self.mbr.lower[idx] - norm_lower) / span, 0.0, 1.0)
        node_hi = np.clip((self.mbr.upper[idx] - norm_lower) / span, 0.0, 1.0)
        q = np.clip((np.asarray(point, dtype=np.float64) - norm_lower) / span, 0.0, 1.0)
        below = np.maximum(node_lo - q, 0.0)
        above = np.maximum(q - node_hi, 0.0)
        delta = np.maximum(below, above)
        return float(np.sqrt(np.sum(delta**2)))

    def __repr__(self) -> str:
        kind = "storage" if self.is_leaf else "index"
        return (
            f"SemanticNode(id={self.node_id}, level={self.level}, kind={kind}, "
            f"children={len(self.children)}, files={self.file_count})"
        )


class SummaryTables:
    """Columnar copies of a tree's node summaries (derived state).

    Built by :meth:`SemanticRTree.summaries` from the nodes, replaced
    wholesale after any invalidation, never edited.  Every node reachable
    from the root has one row, in one row order:

    ``nodes`` / ``child_rows``
        The node, and the rows of its children in ``children`` order — so a
        stack walk over rows visits nodes exactly as a walk over objects.
    ``bloom_bits``
        Its Bloom filter's bits (all ones for a node without a filter,
        which a filename walk never prunes).
    ``boxes``
        Its MBR.
    ``groups`` / ``group_rows``
        The first-level index units in ``node_id`` order, and their rows.
    :meth:`leaves_of`
        A group's storage units, and their rows.
    """

    __slots__ = (
        "epoch",
        "nodes",
        "child_rows",
        "bloom_bits",
        "probe_filter",
        "boxes",
        "groups",
        "group_rows",
        "_row_of",
        "_leaves",
    )

    def __init__(self, tree: "SemanticRTree", epoch: int) -> None:
        self.epoch = epoch
        self.nodes: List[SemanticNode] = []
        self._row_of: Dict[int, int] = {}
        stack = [tree.root]
        while stack:
            node = stack.pop()
            self._row_of[id(node)] = len(self.nodes)
            self.nodes.append(node)
            stack.extend(node.children)
        self.child_rows: List[List[int]] = [
            [self._row_of[id(child)] for child in node.children] for node in self.nodes
        ]
        #: Any one filter of the tree (they all share parameters): hashes a
        #: key into the positions ``bloom_bits`` is gathered at.
        self.probe_filter: Optional[BloomFilter] = next(
            (n.bloom for n in self.nodes if n.bloom is not None), None
        )
        num_bits = self.probe_filter.num_bits if self.probe_filter is not None else 0
        self.bloom_bits = np.ones((len(self.nodes), num_bits), dtype=bool)
        for row, node in enumerate(self.nodes):
            if node.bloom is not None:
                self.bloom_bits[row] = node.bloom.bits
        self.boxes = MBRStack([n.mbr for n in self.nodes])

        parents = {
            leaf.parent.node_id: leaf.parent for leaf in tree.leaves.values() if leaf.parent
        }
        self.groups: List[SemanticNode] = (
            sorted(parents.values(), key=lambda n: n.node_id) if parents else [tree.root]
        )
        self.group_rows = np.asarray([self._row_of[id(g)] for g in self.groups], dtype=np.intp)
        self._leaves: Dict[int, Tuple[List[SemanticNode], List[int]]] = {}

    def leaves_of(self, group: SemanticNode) -> Tuple[List[SemanticNode], List[int]]:
        """``group.descendant_leaves()`` and those leaves' rows (walked on
        first use, then kept for the tables' lifetime)."""
        entry = self._leaves.get(id(group))
        if entry is None:
            leaves = group.descendant_leaves()
            entry = self._leaves[id(group)] = (
                leaves,
                [self._row_of[id(leaf)] for leaf in leaves],
            )
        return entry


class SemanticRTree:
    """The semantic R-tree over a set of storage units.

    Built with :meth:`build`; traversal methods take an explicit
    :class:`~repro.cluster.metrics.Metrics` object and record index-node
    accesses on it (memory-resident — SmartStore's index fits in memory).
    """

    def __init__(
        self,
        root: SemanticNode,
        nodes: List[SemanticNode],
        leaves: Dict[int, SemanticNode],
        thresholds: Sequence[float],
        max_fanout: int,
    ) -> None:
        self._root = root
        self.nodes = nodes
        self.leaves = leaves
        self.thresholds = list(thresholds)
        self.max_fanout = max_fanout
        # Derived summary tables: valid while their epoch is the tree's.
        self._summary_epoch = 0
        self._summaries: Optional[SummaryTables] = None
        for node in nodes:
            node._tree = self

    @property
    def root(self) -> SemanticNode:
        return self._root

    @root.setter
    def root(self, node: SemanticNode) -> None:
        self._root = node
        self.invalidate_summaries()

    # ------------------------------------------------------------------ derived summary tables
    def invalidate_summaries(self) -> None:
        """The one invalidation seam of the derived tables.

        Reached from every write that can change what a table row says: a
        node's ``mbr`` / ``bloom`` / ``children`` setters, the root setter,
        :meth:`allocate_node` / :meth:`forget_node`, and the in-place
        filter update of :meth:`refresh_leaf`.  Bumping an epoch (instead
        of dropping the tables) means tables a concurrent reader was still
        building when the write landed are recognised as stale.
        """
        self._summary_epoch += 1

    def summaries(self) -> SummaryTables:
        """The current summary tables, rebuilt if anything changed."""
        tables = self._summaries
        if tables is None or tables.epoch != self._summary_epoch:
            tables = self._summaries = SummaryTables(self, self._summary_epoch)
        return tables

    # ------------------------------------------------------------------ construction
    @classmethod
    def build(
        cls,
        units: Sequence[StorageUnitDescriptor],
        *,
        thresholds: Sequence[float],
        max_fanout: int = 8,
        bloom_bits: int = 1024,
        bloom_hashes: int = 7,
    ) -> "SemanticRTree":
        """Build the tree bottom-up from storage-unit descriptors.

        The per-level admission thresholds ``epsilon_i`` drive the semantic
        grouping; ``max_fanout`` is the R-tree bound ``M``.
        """
        if not units:
            raise ValueError("cannot build a semantic R-tree over zero storage units")

        nodes: List[SemanticNode] = []
        next_id = 0

        def allocate(level: int, **kwargs) -> SemanticNode:
            nonlocal next_id
            node = SemanticNode(next_id, level, **kwargs)
            next_id += 1
            nodes.append(node)
            return node

        # Leaves: one per storage unit.
        leaf_nodes: List[SemanticNode] = []
        leaves: Dict[int, SemanticNode] = {}
        for unit in units:
            if unit.bloom is not None:
                bloom = unit.bloom.copy()
            else:
                bloom = BloomFilter(bloom_bits, bloom_hashes)
                bloom.add_many(unit.filenames)
            leaf = allocate(
                0,
                mbr=unit.mbr,
                semantic_vector=np.asarray(unit.semantic_vector, dtype=np.float64),
                bloom=bloom,
                unit_id=unit.unit_id,
            )
            leaf.file_count = unit.file_count
            leaf_nodes.append(leaf)
            leaves[unit.unit_id] = leaf

        if len(leaf_nodes) == 1:
            return cls(leaf_nodes[0], nodes, leaves, thresholds, max_fanout)

        vectors = np.vstack([u.semantic_vector for u in units])
        levels = build_group_levels(vectors, thresholds=thresholds, max_fanout=max_fanout)

        # levels[0] are singleton groups over the leaves; levels[i>=1] group the
        # previous level's nodes.  Materialise index units level by level.
        previous: List[SemanticNode] = leaf_nodes
        for level_index in range(1, len(levels)):
            groups = levels[level_index]
            current: List[SemanticNode] = []
            for group in groups:
                only_child = previous[group[0]] if len(group) == 1 else None
                if (
                    only_child is not None
                    and level_index < len(levels) - 1
                    and not only_child.is_leaf
                ):
                    # A lone *index-unit* child needs no extra parent; promote
                    # it.  Lone storage units always get a level-1 parent so
                    # that the first-level groups partition the leaves (query
                    # routing and version chains rely on that).
                    current.append(only_child)
                    continue
                parent = allocate(level_index)
                for child_idx in group:
                    parent.add_child(previous[child_idx])
                parent.refresh_from_children()
                current.append(parent)
            previous = current

        root = previous[0]
        # Normalise levels: a promoted node may sit at a lower level than its
        # siblings; levels are informational, structure is what matters.
        return cls(root, nodes, leaves, thresholds, max_fanout)

    # ------------------------------------------------------------------ node allocation
    def allocate_node(self, level: int, **kwargs) -> SemanticNode:
        """Create a new node registered with this tree (used by reconfiguration)."""
        next_id = max((n.node_id for n in self.nodes), default=-1) + 1
        node = SemanticNode(next_id, level, **kwargs)
        node._tree = self
        self.nodes.append(node)
        if node.is_leaf and node.unit_id is not None:
            self.leaves[node.unit_id] = node
        self.invalidate_summaries()
        return node

    def forget_node(self, node: SemanticNode) -> None:
        """Remove a node from the tree's registries (it must already be unlinked)."""
        self.nodes = [n for n in self.nodes if n.node_id != node.node_id]
        if node.is_leaf and node.unit_id is not None:
            self.leaves.pop(node.unit_id, None)
        self.invalidate_summaries()

    # ------------------------------------------------------------------ inventory
    def __iter__(self) -> Iterator[SemanticNode]:
        return iter(self.nodes)

    @property
    def num_storage_units(self) -> int:
        return len(self.leaves)

    def index_units(self) -> List[SemanticNode]:
        """Every non-leaf node of the tree."""
        return [n for n in self.nodes if not n.is_leaf and n.children]

    @property
    def num_index_units(self) -> int:
        return len(self.index_units())

    def first_level_groups(self) -> List[SemanticNode]:
        """The first-level index units (the "groups" of the paper).

        These are the parents of storage units; their semantic vectors are
        what the off-line pre-processing replicates to every server.  For a
        degenerate single-unit tree the root itself is returned.
        """
        return list(self.summaries().groups)

    def group_of_unit(self, unit_id: int) -> SemanticNode:
        """The first-level index unit covering a given storage unit."""
        leaf = self.leaves[unit_id]
        return leaf.parent if leaf.parent is not None else leaf

    @property
    def height(self) -> int:
        """Number of levels from a leaf to the root (1 for a single node)."""
        depth = 1
        node = self.root
        while node.children:
            node = node.children[0]
            depth += 1
        return depth

    # ------------------------------------------------------------------ traversal
    def leaves_for_range(
        self,
        attr_indices: Sequence[int],
        lower: Sequence[float],
        upper: Sequence[float],
        metrics: Optional[Metrics] = None,
    ) -> List[SemanticNode]:
        """Storage units whose MBR intersects the query window.

        Each node inspected is charged as one in-memory index access.
        """
        metrics = metrics if metrics is not None else Metrics()
        lower = np.asarray(lower, dtype=np.float64)
        upper = np.asarray(upper, dtype=np.float64)
        hits: List[SemanticNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            metrics.record_index_access()
            if not node.intersects_subrange(attr_indices, lower, upper):
                continue
            if node.is_leaf:
                hits.append(node)
            else:
                stack.extend(node.children)
        return hits

    def groups_for_range(
        self,
        attr_indices: Sequence[int],
        lower: Sequence[float],
        upper: Sequence[float],
        metrics: Optional[Metrics] = None,
    ) -> List[SemanticNode]:
        """First-level index units whose MBR intersects the query window."""
        metrics = metrics if metrics is not None else Metrics()
        lower = np.asarray(lower, dtype=np.float64)
        upper = np.asarray(upper, dtype=np.float64)
        tables = self.summaries()
        metrics.record_index_access(len(tables.groups))
        overlaps = tables.boxes.intersects_subrange(attr_indices, lower, upper)
        return [g for g, hit in zip(tables.groups, overlaps[tables.group_rows]) if hit]

    def most_correlated_group(
        self,
        semantic_vector: np.ndarray,
        metrics: Optional[Metrics] = None,
    ) -> Tuple[SemanticNode, float]:
        """The first-level index unit most semantically correlated with a vector."""
        metrics = metrics if metrics is not None else Metrics()
        query = np.asarray(semantic_vector, dtype=np.float64)
        q_norm = np.linalg.norm(query)
        best: Optional[SemanticNode] = None
        best_sim = -np.inf
        for group in self.first_level_groups():
            metrics.record_index_access()
            vec = group.semantic_vector
            if vec is None:
                continue
            denom = q_norm * np.linalg.norm(vec)
            sim = float(np.dot(query, vec) / denom) if denom > 0 else 0.0
            if sim > best_sim:
                best_sim = sim
                best = group
        if best is None:
            best = self.first_level_groups()[0]
            best_sim = 0.0
        return best, best_sim

    def route_filename(
        self,
        filename: str,
        metrics: Optional[Metrics] = None,
    ) -> List[SemanticNode]:
        """Storage units whose Bloom-filter path reports ``filename``.

        Descends from the root along children whose filters hit; every
        filter consulted is charged as a Bloom probe.
        """
        return self.route_positions(self.filename_positions(filename), metrics)

    def filename_positions(self, filename: str) -> Sequence[int]:
        """Hash ``filename`` once into the probe positions of this tree's
        filters (every node filter and every unit's own filter share them)."""
        probe = self.summaries().probe_filter
        return probe.positions(filename) if probe is not None else np.empty(0, dtype=np.intp)

    def route_positions(
        self,
        positions: Sequence[int],
        metrics: Optional[Metrics] = None,
    ) -> List[SemanticNode]:
        """:meth:`route_filename` for an already hashed filename: all node
        filters are tested with one gather, then the same root-down walk
        picks the hit path and counts the filters it consulted."""
        metrics = metrics if metrics is not None else Metrics()
        tables = self.summaries()
        passes = tables.bloom_bits[:, positions].all(axis=1).tolist()
        hits: List[SemanticNode] = []
        probed = 0
        stack = [0]  # the root's row
        while stack:
            row = stack.pop()
            probed += 1
            if not passes[row]:
                continue
            node = tables.nodes[row]
            if node.is_leaf:
                hits.append(node)
            else:
                stack.extend(tables.child_rows[row])
        metrics.record_bloom_probe(probed)
        return hits

    # ------------------------------------------------------------------ maintenance
    def refresh_leaf(
        self,
        unit_id: int,
        *,
        mbr: Optional[MBR],
        file_count: int,
        new_filenames: Sequence[str] = (),
    ) -> None:
        """Update a leaf's summaries after local changes and propagate upward."""
        leaf = self.leaves[unit_id]
        leaf.mbr = mbr
        leaf.file_count = file_count
        if new_filenames and leaf.bloom is not None:
            leaf.bloom.add_many(new_filenames)
            self.invalidate_summaries()
        node = leaf.parent
        while node is not None:
            node.refresh_from_children()
            node = node.parent

    # ------------------------------------------------------------------ space accounting
    def index_size_bytes(self, *, vector_bytes: int = 96, entry_bytes: int = 64) -> int:
        """Approximate storage footprint of the tree's index state.

        Every node stores an MBR/centroid entry plus a semantic vector and
        (for index units) the union Bloom filter.
        """
        total = 0
        for node in self.nodes:
            total += entry_bytes + vector_bytes
            if node.bloom is not None and not node.is_leaf:
                total += node.bloom.size_bytes()
        return total
