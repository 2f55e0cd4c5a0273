"""Background compaction: draining staged mutations into the semantic R-tree.

Staged mutations are visible to every read at once, but they cost every
read a merge and the version chains grow without bound.  The
:class:`Compactor` incrementally folds staged mutations into the primary
structures, one first-level group at a time:

1. the group's version chain is cleared (flushing subscribed result
   caches) and its ordered changes applied to the owning storage units —
   leaf MBRs, Bloom filters and file counts refreshed in one pass; the
   index now serves them;
2. a group grown *hot* (its file count far above the mean) is split into
   two semantically coherent halves (§4.1 node split), and the query
   engine's topology map refreshed;
3. the group's off-line replica is re-snapshotted and multicast to the
   other storage units — the same lazy-update accounting the paper charges,
   but scoped to the one group that changed instead of a full
   :meth:`~repro.core.offline.OfflineRouter.refresh_all`.

Which groups are due is decided by a :class:`CompactionPolicy`: a per-group
staged-count threshold, a total staged budget, an age bound (measured in
mutations staged since, so policies stay deterministic) and a skew factor
that drains groups absorbing a disproportionate share of the write stream.

The compactor can run inline (``run_once`` / ``drain``) or as a background
daemon thread (``start`` / ``stop``).  All entry points serialise on the
pipeline's mutation lock, so staging and compaction never interleave.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.core.reconfig import split_group

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ingest.pipeline import IngestPipeline

__all__ = ["CompactionPolicy", "CompactionStats", "Compactor"]


@dataclass(frozen=True)
class CompactionPolicy:
    """When to drain staged mutations.

    ``max_staged_per_group``
        A group with at least this many staged mutations is due.
    ``max_staged_total``
        When the whole store holds at least this many staged files,
        every non-empty group is due (bounds total query overhead).
    ``max_age``
        A group whose oldest staged mutation is at least this many
        mutations old is due (bounds staleness under skewed traffic, in
        mutations rather than wall seconds so tests are deterministic).
    ``skew_factor``
        A group staging more than ``skew_factor`` times the mean staged
        count is due early — hot groups pay their compaction cost before
        they distort every query.  ``0`` disables the rule.
    ``hot_group_factor``
        After draining, a group whose file count exceeds this multiple of
        the mean group population is split (``0`` disables splitting).
    """

    max_staged_per_group: int = 64
    max_staged_total: int = 512
    max_age: int = 4096
    skew_factor: float = 4.0
    hot_group_factor: float = 4.0

    def __post_init__(self) -> None:
        if self.max_staged_per_group < 1:
            raise ValueError("max_staged_per_group must be >= 1")
        if self.max_staged_total < 1:
            raise ValueError("max_staged_total must be >= 1")
        if self.max_age < 1:
            raise ValueError("max_age must be >= 1")
        if self.skew_factor < 0 or self.hot_group_factor < 0:
            raise ValueError("skew_factor and hot_group_factor must be >= 0")


@dataclass
class CompactionStats:
    """Counters for what compaction has done so far."""

    runs: int = 0
    group_compactions: int = 0
    changes_applied: int = 0
    group_splits: int = 0
    replica_refreshes: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "runs": self.runs,
            "group_compactions": self.group_compactions,
            "changes_applied": self.changes_applied,
            "group_splits": self.group_splits,
            "replica_refreshes": self.replica_refreshes,
        }


class Compactor:
    """Incremental drain of a pipeline's staged mutations."""

    def __init__(
        self,
        pipeline: "IngestPipeline",
        policy: Optional[CompactionPolicy] = None,
        *,
        interval: float = 0.05,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be > 0")
        self.pipeline = pipeline
        self.policy = policy if policy is not None else CompactionPolicy()
        self.interval = interval
        self.stats = CompactionStats()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ policy
    def due_groups(self) -> List[int]:
        """Group ids the policy says should be drained now."""
        backlog = self.pipeline.store.versioning.group_backlog()
        if not backlog:
            return []
        policy = self.policy
        total = sum(n for n, _ in backlog.values())
        if total >= policy.max_staged_total:
            return sorted(backlog)
        skew = bool(policy.skew_factor) and len(backlog) > 1
        hot = policy.skew_factor * (total / len(backlog))
        return sorted(
            gid
            for gid, (n, age) in backlog.items()
            if n >= policy.max_staged_per_group or (skew and n > hot) or age >= policy.max_age
        )

    # ------------------------------------------------------------------ draining
    def compact_group(self, group_id: int) -> int:
        """Drain one group's staged mutations into the primary structures.

        Returns the number of changes applied.  Safe to call for a group
        with nothing pending (no-op).
        """
        store = self.pipeline.store
        with self.pipeline.lock:
            changes = store.versioning.clear_group(group_id)
            if not changes:
                return 0
            applied = store.apply_changes(changes)
            group = store.engine.node_by_id(group_id)
            if group is not None and group.children:
                # A split already refreshed the whole replica set (the
                # first-level group list changed); refreshing again would
                # double-charge the multicast.
                if not self._maybe_split(group):
                    store.offline_router.refresh_group(
                        group, num_units=store.cluster.num_units
                    )
                self.stats.replica_refreshes += 1
            # Anything cached against the half-applied state must go.
            store.versioning.touch()
            self.stats.group_compactions += 1
            self.stats.changes_applied += applied
            return applied

    def _maybe_split(self, group: Any) -> bool:
        """Split ``group`` if hot; returns True when a split happened."""
        if not self.policy.hot_group_factor:
            return False
        store = self.pipeline.store
        groups = store.tree.walk_first_level_groups()
        if len(groups) < 1 or len(group.children) < 2:
            return False
        mean_files = sum(g.file_count for g in groups) / len(groups)
        if group.file_count <= self.policy.hot_group_factor * max(mean_files, 1.0):
            return False
        split_group(store.tree, group)
        # New index units exist: the engine's node map and the whole replica
        # set (the first-level group list changed) must follow.
        store.engine.refresh_topology()
        store.offline_router.refresh_all()
        self.stats.group_splits += 1
        return True

    def run_once(self) -> int:
        """Drain every group the policy marks as due; returns changes applied."""
        self.stats.runs += 1
        applied = 0
        for gid in self.due_groups():
            applied += self.compact_group(gid)
        return applied

    def drain(self) -> int:
        """Drain *everything* staged, regardless of policy thresholds."""
        self.stats.runs += 1
        applied = 0
        # Groups may gain entries while draining (concurrent writers); loop
        # until no chain holds a change.
        while True:
            group_ids = self.pipeline.store.versioning.group_ids()
            if not group_ids:
                break
            for gid in group_ids:
                applied += self.compact_group(gid)
        return applied

    # ------------------------------------------------------------------ background worker
    def start(self) -> "Compactor":
        """Run the policy loop on a daemon thread until :meth:`stop`.

        Concurrency contract: draining restructures storage units and the
        semantic R-tree under the pipeline's mutation lock, which engine
        *reads* do not take.  Run the background thread only when
        concurrent readers are absent or tolerate transiently inconsistent
        answers; services that interleave reads and writes should instead
        let :class:`~repro.service.service.QueryService` drive compaction
        (``auto_compact``), which serialises it against query execution on
        the service's state lock, or call :meth:`run_once`/:meth:`drain`
        from their own quiescent points.
        """
        if self._thread is not None:
            return self
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(self.interval):
                self.run_once()

        self._thread = threading.Thread(
            target=loop, name="repro-compactor", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None

    def __repr__(self) -> str:
        s = self.stats
        return (
            f"Compactor(running={self.running}, compactions={s.group_compactions}, "
            f"applied={s.changes_applied}, splits={s.group_splits})"
        )
