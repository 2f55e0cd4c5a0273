"""The staging overlay: read-your-writes over not-yet-compacted mutations.

Staged mutations live in the version chains (the paper's mechanism, charged
per entry scanned) *and* in this overlay — an id-indexed, per-group view
that the query engine merges in O(1)-per-probe:

* a query that matches a **staged insert or modify** returns the staged
  record immediately (its attribute values win over any indexed copy);
* a query whose indexed result set contains a **staged delete** masks that
  record out — something the bare version chains never did (deletions only
  took effect at reconfiguration);
* the :class:`~repro.ingest.compactor.Compactor` reads the per-group counts
  and ages to decide which groups to drain next.

The overlay keeps the *latest* staged mutation per file id (an insert
followed by a delete nets out to a masked id; a duplicate insert replaces
the earlier record), while the version chain keeps the full ordered change
list — the chain is what compaction applies, the overlay is what reads
consult.  All methods are thread-safe: the query service reads the overlay
from pool threads while the compactor drains it from its own.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import count
from typing import Dict, List, Optional, Set, Tuple

from repro.metadata.file_metadata import FileMetadata

__all__ = ["StagedMutation", "StagingOverlay"]

#: Mutation kinds the overlay stages.
STAGE_KINDS = ("insert", "delete", "modify")


@dataclass(frozen=True)
class StagedMutation:
    """The latest staged mutation of one file.

    ``seq`` is the WAL sequence number when the mutation was logged (or a
    local monotone counter for volatile pipelines); ``tick`` is the
    overlay's own admission counter, used as the age measure — ages in
    "mutations since staged" keep compaction policies deterministic, unlike
    wall-clock timestamps.
    """

    seq: int
    kind: str
    file: FileMetadata
    group_id: int
    unit_id: int
    tick: int


class StagingOverlay:
    """Per-group staged mutations with id- and filename-indexed lookups."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._latest: Dict[int, StagedMutation] = {}          # file_id -> latest
        self._groups: Dict[int, Dict[int, StagedMutation]] = {}  # gid -> file_id -> m
        self._by_filename: Dict[str, Set[int]] = {}
        self._ticks = count(1)
        self.staged_total = 0      # mutations ever staged
        self.drained_total = 0     # mutations handed to compaction

    # ------------------------------------------------------------------ staging
    def stage(
        self, kind: str, file: FileMetadata, *, group_id: int, unit_id: int, seq: int
    ) -> StagedMutation:
        """Record ``kind`` as the latest staged mutation of ``file``."""
        if kind not in STAGE_KINDS:
            raise ValueError(f"unknown mutation kind {kind!r}")
        with self._lock:
            staged = StagedMutation(
                seq=seq,
                kind=kind,
                file=file,
                group_id=group_id,
                unit_id=unit_id,
                tick=next(self._ticks),
            )
            self._unlink(file.file_id)
            self._latest[file.file_id] = staged
            self._groups.setdefault(group_id, {})[file.file_id] = staged
            self._by_filename.setdefault(file.filename, set()).add(file.file_id)
            self.staged_total += 1
            return staged

    def _unlink(self, file_id: int) -> None:
        prev = self._latest.pop(file_id, None)
        if prev is None:
            return
        group = self._groups.get(prev.group_id)
        if group is not None:
            group.pop(file_id, None)
            if not group:
                self._groups.pop(prev.group_id, None)
        named = self._by_filename.get(prev.file.filename)
        if named is not None:
            named.discard(file_id)
            if not named:
                self._by_filename.pop(prev.file.filename, None)

    # ------------------------------------------------------------------ read-your-writes
    def __len__(self) -> int:
        with self._lock:
            return len(self._latest)

    def get(self, file_id: int) -> Optional[StagedMutation]:
        with self._lock:
            return self._latest.get(file_id)

    def is_deleted(self, file_id: int) -> bool:
        """True when the latest staged mutation of ``file_id`` is a delete."""
        with self._lock:
            staged = self._latest.get(file_id)
            return staged is not None and staged.kind == "delete"

    def staged_ids(self) -> Set[int]:
        """Ids of every staged file (any kind) — the records whose indexed
        copies are stale and must be masked out of scans."""
        with self._lock:
            return set(self._latest.keys())

    def snapshot(self) -> "Tuple[Dict[int, FileMetadata], Set[int]]":
        """One consistent view: ``(live records by id, deleted ids)``.

        The single merge primitive the query engine and the pipeline's
        materialised view build on — one lock acquisition per query, and
        one place that defines which staged records are visible.
        """
        with self._lock:
            live = {
                fid: m.file for fid, m in self._latest.items() if m.kind != "delete"
            }
            deleted = {
                fid for fid, m in self._latest.items() if m.kind == "delete"
            }
            return live, deleted

    def files_named(self, filename: str) -> List[FileMetadata]:
        """Visible staged records whose filename matches (point-query merge)."""
        with self._lock:
            out: List[FileMetadata] = []
            for fid in self._by_filename.get(filename, ()):
                staged = self._latest.get(fid)
                if staged is not None and staged.kind != "delete":
                    out.append(staged.file)
            return out

    # ------------------------------------------------------------------ compaction support
    def group_ids(self) -> List[int]:
        with self._lock:
            return sorted(self._groups.keys())

    def group_sizes(self) -> Dict[int, int]:
        with self._lock:
            return {gid: len(members) for gid, members in self._groups.items()}

    def group_age(self, group_id: int) -> int:
        """Age of the group's oldest staged mutation, in mutations staged since."""
        with self._lock:
            members = self._groups.get(group_id)
            if not members:
                return 0
            oldest = min(m.tick for m in members.values())
            return self.staged_total - oldest + 1

    def discard_group(self, group_id: int) -> List[StagedMutation]:
        """Drop (and return) every staged mutation of one group.

        Called by compaction *after* the group's version-chain changes have
        been applied to the primary structures — the staged entries are no
        longer needed for read-your-writes because the index now serves
        them.
        """
        with self._lock:
            members = self._groups.pop(group_id, None)
            if not members:
                return []
            dropped = list(members.values())
            for staged in dropped:
                fid = staged.file.file_id
                self._latest.pop(fid, None)
                named = self._by_filename.get(staged.file.filename)
                if named is not None:
                    named.discard(fid)
                    if not named:
                        self._by_filename.pop(staged.file.filename, None)
            self.drained_total += len(dropped)
            return dropped

    def clear(self) -> int:
        """Drop everything (full reconfiguration applied all chains)."""
        with self._lock:
            dropped = len(self._latest)
            self._latest.clear()
            self._groups.clear()
            self._by_filename.clear()
            self.drained_total += dropped
            return dropped

    # ------------------------------------------------------------------ introspection
    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "staged": len(self._latest),
                "staged_total": self.staged_total,
                "drained_total": self.drained_total,
                "groups": len(self._groups),
                "deletes": sum(1 for m in self._latest.values() if m.kind == "delete"),
            }

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"StagingOverlay(staged={s['staged']}, groups={s['groups']}, "
            f"deletes={s['deletes']}, drained={s['drained_total']})"
        )
