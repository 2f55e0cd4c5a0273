"""Off-line pre-processing (§3.4): replicated index vectors and lazy updating.

The on-line query approach multicasts messages to locate the semantic R-tree
nodes most correlated with a request; that traffic is the dominant cost in
Figure 13.  The off-line approach avoids it: every storage unit keeps a
local replica of the *first-level index units'* summaries (semantic vector
plus MBR), so the home unit can determine the target group with purely
local computation and forward the request directly.

Replicas go stale as metadata changes.  Lazy updating bounds the staleness:
each group accumulates a change counter and, once the number of changes
exceeds ``lazy_update_threshold`` (5 % in the prototype) of the group's
files, the group's index unit multicasts its latest replica to every storage
unit — those messages are charged to the metrics object handed in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.metrics import Metrics
from repro.core.semantic_rtree import SemanticNode, SemanticRTree
from repro.rtree.mbr import MBR, MBRStack

__all__ = ["IndexReplica", "OfflineRouter"]


@dataclass
class IndexReplica:
    """A storage unit's local copy of one first-level index unit's summary."""

    group_id: int
    semantic_vector: np.ndarray
    mbr: Optional[MBR]
    hosted_on: Optional[int]


class OfflineRouter:
    """Local routing over replicated first-level index summaries.

    One router instance models the replica set every storage unit holds
    (the replicas are identical on all units — what differs per unit is
    only *which* server does the local computation, which costs no
    messages either way).
    """

    def __init__(
        self,
        tree: SemanticRTree,
        *,
        lazy_update_threshold: float = 0.05,
    ) -> None:
        if not 0.0 < lazy_update_threshold <= 1.0:
            raise ValueError("lazy_update_threshold must be in (0, 1]")
        self.tree = tree
        self.lazy_update_threshold = lazy_update_threshold
        self.replicas: Dict[int, IndexReplica] = {}
        # The replicas' (deliberately stale) MBRs stacked in ``replicas``
        # order, re-stacked whenever a replica is stored.
        self._boxes = MBRStack([])
        self._pending_changes: Dict[int, int] = {}
        self.lazy_update_multicasts = 0
        self.refresh_all()

    # ------------------------------------------------------------------ replica management
    def refresh_all(self) -> None:
        """Snapshot every first-level index unit into the replica set."""
        self.replicas = {}
        for group in self.tree.first_level_groups():
            self._snapshot(group)
        self._restack()
        self._pending_changes = {gid: 0 for gid in self.replicas}

    def refresh_group(
        self,
        group: SemanticNode,
        metrics: Optional[Metrics] = None,
        *,
        num_units: int = 0,
    ) -> None:
        """Re-snapshot one group's replica after a partial reconfiguration.

        Incremental compaction refreshes only the group it drained instead
        of re-replicating every first-level summary (:meth:`refresh_all`).
        The multicast that pushes the fresh replica to the other storage
        units is charged to ``metrics`` (``num_units - 1`` messages), and
        the group's lazy-update change counter is reset — its replica is
        exact again.
        """
        metrics = metrics if metrics is not None else Metrics()
        self._store_replica(group)
        self._pending_changes[group.node_id] = 0
        if num_units > 1:
            metrics.record_message(num_units - 1)
            self.lazy_update_multicasts += 1

    def _store_replica(self, group: SemanticNode) -> None:
        """Replace one group's replica record and re-stack the MBRs."""
        self._snapshot(group)
        self._restack()

    def _restack(self) -> None:
        self._boxes = MBRStack([r.mbr for r in self.replicas.values()])

    def _snapshot(self, group: SemanticNode) -> None:
        """Write ``group``'s replica record (callers re-stack afterwards)."""
        vector = (
            np.asarray(group.semantic_vector, dtype=np.float64)
            if group.semantic_vector is not None
            else np.zeros(1)
        )
        self.replicas[group.node_id] = IndexReplica(
            group_id=group.node_id,
            semantic_vector=vector,
            mbr=group.mbr,
            hosted_on=group.hosted_on,
        )

    def record_change(
        self,
        group: SemanticNode,
        metrics: Optional[Metrics] = None,
        *,
        num_units: int,
    ) -> bool:
        """Register one metadata change in ``group``; maybe trigger lazy update.

        Returns True when the change pushed the group over the lazy-update
        threshold, in which case the group's index unit multicasts its
        fresh replica to every other storage unit (``num_units - 1``
        messages, charged to ``metrics``) and the replica snapshot is
        refreshed.
        """
        metrics = metrics if metrics is not None else Metrics()
        gid = group.node_id
        self._pending_changes[gid] = self._pending_changes.get(gid, 0) + 1
        group_files = max(group.file_count, 1)
        if self._pending_changes[gid] / group_files > self.lazy_update_threshold:
            metrics.record_message(max(num_units - 1, 0))
            self.lazy_update_multicasts += 1
            self._store_replica(group)
            self._pending_changes[gid] = 0
            return True
        return False

    def pending_changes(self, group_id: int) -> int:
        return self._pending_changes.get(group_id, 0)

    # ------------------------------------------------------------------ routing
    def target_group_for_vector(
        self,
        semantic_vector: np.ndarray,
        metrics: Optional[Metrics] = None,
    ) -> Tuple[int, float]:
        """Group id most correlated with a (folded-in) query vector.

        Charges one in-memory index access per replica inspected; no
        messages — this is the whole point of the off-line approach.
        """
        metrics = metrics if metrics is not None else Metrics()
        query = np.asarray(semantic_vector, dtype=np.float64)
        q_norm = np.linalg.norm(query)
        best_gid = next(iter(self.replicas))
        best_sim = -np.inf
        for gid, replica in self.replicas.items():
            metrics.record_index_access()
            vec = replica.semantic_vector
            denom = q_norm * np.linalg.norm(vec)
            sim = float(np.dot(query, vec[: query.shape[0]]) / denom) if denom > 0 else 0.0
            if sim > best_sim:
                best_sim = sim
                best_gid = gid
        return best_gid, best_sim

    def groups_for_range(
        self,
        attr_indices: Sequence[int],
        lower: Sequence[float],
        upper: Sequence[float],
        metrics: Optional[Metrics] = None,
    ) -> List[int]:
        """Group ids whose replicated MBR intersects the query window."""
        metrics = metrics if metrics is not None else Metrics()
        lower = np.asarray(lower, dtype=np.float64)
        upper = np.asarray(upper, dtype=np.float64)
        metrics.record_index_access(len(self.replicas))
        mask = self._boxes.intersects_subrange(attr_indices, lower, upper)
        return [gid for gid, hit in zip(self.replicas, mask) if hit]

    def replica_space_bytes(self, *, vector_bytes: int = 96, entry_bytes: int = 64) -> int:
        """Per-server footprint of the replica set (every server stores one copy)."""
        return len(self.replicas) * (vector_bytes + entry_bytes)
