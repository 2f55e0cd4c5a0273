"""Hierarchical Bloom-filter index (Figure 4).

Each leaf (storage unit) owns a Bloom filter over its local filenames; each
internal node (index unit) owns the union of its children's filters.  A
filename point query starts at the root and descends only along children
whose filter reports the key, so the set of leaves actually probed is small
— this mirrors the group-based hierarchical Bloom-filter array approach the
paper builds on (§2.2, ref. [28]).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bloom.bloom import BloomFilter, DEFAULT_BITS, DEFAULT_HASHES

__all__ = ["HierarchicalBloomIndex"]


@dataclass
class _BloomNode:
    """Internal node of the hierarchy: a filter plus child node ids."""

    node_id: int
    bloom: BloomFilter
    children: List[int] = field(default_factory=list)
    is_leaf: bool = True
    leaf_key: Optional[object] = None  # caller-provided identity of the leaf (e.g. unit id)


class HierarchicalBloomIndex:
    """A tree of Bloom filters mirroring the semantic R-tree's shape.

    The index is built bottom-up: leaves are registered with
    :meth:`add_leaf`, internal levels with :meth:`add_internal`, and the
    last internal node added becomes the root.  Point lookups then walk the
    hierarchy and return the leaf keys whose filters (and all ancestors'
    filters) report the queried filename.
    """

    def __init__(self, num_bits: int = DEFAULT_BITS, num_hashes: int = DEFAULT_HASHES) -> None:
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._nodes: Dict[int, _BloomNode] = {}
        self._next_id = 0
        self.root_id: Optional[int] = None

    # ------------------------------------------------------------------ construction
    def add_leaf(self, leaf_key: object, filenames: Iterable[str]) -> int:
        """Register a leaf holding ``filenames``; returns the node id."""
        bloom = BloomFilter(self.num_bits, self.num_hashes)
        bloom.add_many(filenames)
        node_id = self._allocate()
        self._nodes[node_id] = _BloomNode(node_id, bloom, is_leaf=True, leaf_key=leaf_key)
        if self.root_id is None:
            self.root_id = node_id
        return node_id

    def add_internal(self, child_ids: Sequence[int]) -> int:
        """Create an internal node as the union of existing nodes."""
        if not child_ids:
            raise ValueError("an internal Bloom node needs at least one child")
        children = [self._nodes[c] for c in child_ids]
        bloom = BloomFilter.union_of([c.bloom for c in children])
        node_id = self._allocate()
        self._nodes[node_id] = _BloomNode(
            node_id, bloom, children=list(child_ids), is_leaf=False
        )
        self.root_id = node_id
        return node_id

    def _allocate(self) -> int:
        node_id = self._next_id
        self._next_id += 1
        return node_id

    # ------------------------------------------------------------------ updates
    def add_filename(self, leaf_id: int, filename: str) -> None:
        """Add a filename to a leaf and refresh every ancestor union filter.

        Ancestors are found by scanning the (small) node table; hierarchy
        sizes here are bounded by the number of storage units, not files.
        """
        node = self._nodes[leaf_id]
        if not node.is_leaf:
            raise ValueError(f"node {leaf_id} is not a leaf")
        node.bloom.add(filename)
        # Propagate to every ancestor containing this leaf.
        child = leaf_id
        changed = True
        while changed:
            changed = False
            for candidate in self._nodes.values():
                if not candidate.is_leaf and child in candidate.children:
                    candidate.bloom.add(filename)
                    child = candidate.node_id
                    changed = True
                    break

    # ------------------------------------------------------------------ queries
    def lookup(self, filename: str) -> Tuple[List[object], int]:
        """Return ``(leaf_keys, nodes_probed)`` for a filename point query.

        ``leaf_keys`` is the list of leaf identities whose filters report
        the filename (possibly empty); ``nodes_probed`` counts every Bloom
        filter consulted, which the evaluation charges to the cost model.
        """
        if self.root_id is None:
            return [], 0
        hits: List[object] = []
        probed = 0
        # Every filter shares the index's parameters: hash once, probe many.
        positions = self._nodes[self.root_id].bloom.positions(filename)
        stack = [self.root_id]
        while stack:
            node = self._nodes[stack.pop()]
            probed += 1
            if not node.bloom.contains_positions(positions):
                continue
            if node.is_leaf:
                hits.append(node.leaf_key)
            else:
                stack.extend(node.children)
        return hits, probed

    # ------------------------------------------------------------------ analytics
    def leaf_ids(self) -> List[int]:
        return [n.node_id for n in self._nodes.values() if n.is_leaf]

    def node_count(self) -> int:
        return len(self._nodes)

    def size_bytes(self) -> int:
        """Total storage footprint of every filter in the hierarchy."""
        return sum(n.bloom.size_bytes() for n in self._nodes.values())
