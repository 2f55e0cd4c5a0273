"""Versioning-based consistency (§4.4): the one store of pending changes.

SmartStore replicates index information (the first-level index units'
semantic vectors, MBRs and Bloom filters) to speed up queries; replicas are
not updated synchronously, so the metadata changes (insertions, deletions,
attribute modifications) not yet folded into the originals are kept in a
*version chain* attached to each first-level index unit (group).

A group's chain is the ordered log of its pending changes, and it is the
only place a change is recorded.  Everything else is derived from the logs:

* the latest change per file id — it routes a pending file's later
  mutations to the same group, and it is what reads merge;
* per group, how many files have their latest change there and how old the
  oldest of those is, in changes recorded since (what compaction policies
  read);
* versions: ``version_ratio`` changes make one version ("comprehensive
  versioning" is ``version_ratio == 1``), so a chain of ``n`` changes holds
  ``ceil(n / version_ratio)`` of them — the space Figure 14(a) reports;
* the cost of rolling through the chains: one in-memory record scan per
  change, taken from their length (Figure 14(b)'s extra latency).

A read takes them as one :class:`PendingView`, built once per change, and
sees them under one of two visibility rules
(:meth:`repro.core.queries.QueryEngine._pending`):

* the paper's chain view — queries *with* versioning add the chains' latest
  inserts and modifies to what the index finds; a deletion takes effect at
  reconfiguration.  Queries *without* versioning see only the index, which
  is what degrades recall in Tables 5 and 6;
* read-your-writes, selected by attaching an ingest pipeline — a pending
  record replaces its indexed copy and a pending delete hides it.

Reconfiguration applies every chain to the originals and clears it;
incremental compaction does the same one group at a time.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.metadata.file_metadata import FileMetadata

__all__ = ["PendingView", "VersionedChange", "VersioningManager"]


@dataclass(frozen=True)
class VersionedChange:
    """One metadata change in a version chain (``kind`` is ``"insert"``,
    ``"delete"`` or ``"modify"``; ``unit_id`` the storage unit it applies
    to — for a file already applied, the unit holding its indexed copy)."""

    kind: str
    file: FileMetadata
    unit_id: int


class PendingView:
    """The pending changes as every read sees them until the next change.

    Built by :meth:`VersioningManager.snapshot` and shared, never copied or
    mutated: ``live`` maps each pending file whose latest change is an
    insert or modify to that record (``records``, in order), ``pending``
    holds every pending id, deletes included, and ``entries`` counts the
    changes across the chains.  ``per_unit`` counts the pending ids whose
    latest change names each unit — where an applied file's indexed copy
    lives.  The records' name index and raw columns are derived on first
    use (two readers racing derive equal values).
    """

    def __init__(
        self,
        live: Dict[int, FileMetadata],
        pending: FrozenSet[int],
        entries: int,
        per_unit: Dict[int, int],
    ) -> None:
        self.live = live
        self.pending = pending
        self.entries = entries
        self.per_unit = per_unit
        self.records = list(live.values())
        self._by_name: Optional[Dict[str, List[FileMetadata]]] = None
        self._columns: Dict[str, np.ndarray] = {}

    def named(self, filename: str) -> List[FileMetadata]:
        """The live records named ``filename``, ``records`` order."""
        if self._by_name is None:
            by_name: Dict[str, List[FileMetadata]] = {}
            for f in self.records:
                by_name.setdefault(f.filename, []).append(f)
            self._by_name = by_name
        return self._by_name.get(filename, [])

    def columns(self, names: Sequence[str]) -> List[np.ndarray]:
        """The records' raw float64 values of each attribute of ``names``."""
        for name in names:
            if name not in self._columns:
                values = (f.attributes[name] for f in self.records)
                self._columns[name] = np.fromiter(values, np.float64, len(self.records))
        return [self._columns[name] for name in names]


class VersioningManager:
    """Every group's version chain, and the views derived from them.

    Thread-safe: the query service reads the store while a compactor
    drains it; one lock covers the chains, their views and the change
    clock.
    """

    def __init__(self, version_ratio: int = 1) -> None:
        if version_ratio < 1:
            raise ValueError(f"version_ratio must be >= 1, got {version_ratio}")
        self.version_ratio = version_ratio
        self._lock = threading.Lock()
        # group id -> its pending changes, oldest first.  A cleared group
        # keeps its (empty) chain: Figure 14(a) averages over every group
        # that ever recorded a change.
        self._chains: Dict[int, List[VersionedChange]] = {}
        self._entries = 0
        # Derived: file id -> (group id, tick, change) of its latest change,
        # and group id -> {file id: tick} over the latest changes recorded
        # there, oldest first.  ``tick`` numbers the recorded changes.
        self._latest: Dict[int, Tuple[int, int, VersionedChange]] = {}
        self._members: Dict[int, Dict[int, int]] = {}
        self._ticks = 0
        # Monotone counter bumped on every recorded change and on every
        # reconfiguration; consumers that cache derived state (the query
        # service's result cache) compare against it to detect staleness.
        self._change_clock = 0
        self._listeners: List[Callable[[], None]] = []
        self._view: Optional[PendingView] = None  # as of ``_view_clock``
        self._view_clock = 0

    # ------------------------------------------------------------------ change notification
    @property
    def change_clock(self) -> int:
        """Number of mutations (changes recorded + chains cleared) so far."""
        return self._change_clock

    def subscribe(self, listener: Callable[[], None]) -> None:
        """Register a callback invoked after every mutation.

        Listeners must be cheap and must not raise; the query service's
        result cache uses this to invalidate eagerly instead of polling
        :attr:`change_clock`.
        """
        self._listeners.append(listener)

    def unsubscribe(self, listener: Callable[[], None]) -> None:
        """Remove a previously subscribed listener (no-op if absent)."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def _notify(self) -> None:
        for listener in list(self._listeners):
            listener()

    def touch(self) -> None:
        """Bump the change clock for a mutation that bypassed the chains.

        Reconfiguration applies the cleared changes to the primary
        structures *after* :meth:`clear_all` returns; callers invoke this
        once the structures are consistent again so caches flushed mid-way
        do not retain results computed against the half-applied state.
        """
        with self._lock:
            self._change_clock += 1
        self._notify()

    # ------------------------------------------------------------------ recording
    def record(self, group_id: int, change: VersionedChange) -> None:
        """Append ``change`` to its group's chain."""
        fid = change.file.file_id
        with self._lock:
            self._chains.setdefault(group_id, []).append(change)
            self._entries += 1
            self._ticks += 1
            self._unlink(fid)
            self._latest[fid] = (group_id, self._ticks, change)
            self._members.setdefault(group_id, {})[fid] = self._ticks
            self._change_clock += 1
        self._notify()

    def _unlink(self, file_id: int) -> None:
        prev = self._latest.pop(file_id, None)
        if prev is not None:
            members = self._members[prev[0]]
            del members[file_id]
            if not members:
                del self._members[prev[0]]

    # ------------------------------------------------------------------ reading
    def __len__(self) -> int:
        """Number of files with a pending change (deletes included)."""
        return len(self._latest)

    def latest(self, file_id: int) -> Optional[VersionedChange]:
        """The file's latest pending change, or ``None``.  Mutations of a
        pending file follow it to the same storage unit (and so group): one
        file's history never splits across chains."""
        with self._lock:
            found = self._latest.get(file_id)
        return None if found is None else found[2]

    def snapshot(self) -> PendingView:
        """One consistent view for a read, built once per change clock."""
        with self._lock:
            if self._view is None or self._view_clock != self._change_clock:
                self._view = self._build_view()
                self._view_clock = self._change_clock
            return self._view

    def _build_view(self) -> PendingView:
        live: Dict[int, FileMetadata] = {}
        per_unit: Dict[int, int] = {}
        for fid, (_, _, change) in self._latest.items():
            if change.kind != "delete":
                live[fid] = change.file
            per_unit[change.unit_id] = per_unit.get(change.unit_id, 0) + 1
        return PendingView(live, frozenset(self._latest), self._entries, per_unit)

    # ------------------------------------------------------------------ compaction support
    def group_ids(self) -> List[int]:
        """Groups with a pending change, in id order."""
        with self._lock:
            return sorted(gid for gid, chain in self._chains.items() if chain)

    def group_backlog(self) -> Dict[int, Tuple[int, int]]:
        """Per group holding a latest change, in one locked pass: how many
        files have their latest change there, and the age of the oldest of
        those in changes recorded since (what compaction policies read)."""
        with self._lock:
            ticks = self._ticks
            return {
                gid: (len(members), ticks - next(iter(members.values())) + 1)
                for gid, members in self._members.items()
            }

    def space_bytes_per_group(
        self, record_bytes: int = 256, header_bytes: int = 32
    ) -> Dict[int, int]:
        """Figure 14(a): space consumed by attached versions, per index unit
        (one header per version, one record per change)."""
        ratio = self.version_ratio
        with self._lock:
            return {
                gid: -(-len(chain) // ratio) * header_bytes + len(chain) * record_bytes
                for gid, chain in self._chains.items()
            }

    def clear_group(self, group_id: int) -> List[VersionedChange]:
        """Take one group's pending changes (used by incremental compaction).

        Bumps the change clock (and so flushes subscribed caches) only when
        the chain actually held changes — the caller is about to apply them
        to the primary structures.
        """
        with self._lock:
            changes = self._chains.get(group_id)
            if not changes:
                return []
            self._chains[group_id] = []
            self._entries -= len(changes)
            for fid in self._members.pop(group_id, {}):
                del self._latest[fid]
            self._change_clock += 1
        self._notify()
        return changes

    def clear_all(self) -> Dict[int, List[VersionedChange]]:
        """Apply-and-forget every chain (used by reconfiguration)."""
        with self._lock:
            applied = self._chains
            self._chains = {gid: [] for gid in applied}
            self._entries = 0
            self._latest.clear()
            self._members.clear()
            self._change_clock += 1
        self._notify()
        return applied

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "staged": len(self._latest),
                "entries": self._entries,
                "groups": len(self._members),
                "deletes": sum(1 for *_, c in self._latest.values() if c.kind == "delete"),
            }
