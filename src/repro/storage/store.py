"""The tiered segment store: publish, fault/evict LRU, and recovery.

:class:`SegmentStore` owns one snapshot root::

    <root>/MANIFEST.json      the atomically-swapped snapshot descriptor
    <root>/segments/          immutable segment files (per group, per
                              generation — never rewritten in place)
    <root>/quarantine/        segments that failed checksum validation

Publish ordering (the invariants in docs/INVARIANTS.md §12):

1. every new/changed group's segment is written tmp + fsync + rename;
2. the manifest naming the full live set is written tmp + fsync + rename
   (so the manifest only ever points at fsynced segments, and readers
   see either the old snapshot or the new one — never a mix);
3. only *after* the manifest rename are unreferenced segment files
   purged, and the WAL tail truncated by the caller.

Clean groups (no mutations since the previous publish, same unit set)
re-use their existing segment files.  A changed group's segment is
rewritten, but only the rows ``apply_changes`` reported are encoded: every
other row — wherever the previous generation stored it, so group splits
and unit moves included — is copied out of the still-open previous
segments (:class:`~repro.storage.segment.CarryIndex`), a cold unit as one
slice without being materialized.  The bytes are those of a full encode;
the CPU is proportional to the change.

At query time the store is the fault/evict authority: a unit holding a
:class:`~repro.storage.lazy.SegmentRows` block asks it for residency
before a scan, and an LRU bounded by ``resident_segments`` evicts the
least-recently-scanned group's arrays (``storage.fault_in`` /
``storage.evict`` spans + ``storage_segment_*`` counters make the churn
observable).  Materialized (mutated) units hold an in-memory block and
are pinned out of the LRU until the next publish rebinds them cold.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro.cluster.node import StorageServer

from repro.obs import get_registry, get_tracer
from repro.storage.lazy import bind_segment
from repro.storage.manifest import (
    MANIFEST_FORMAT,
    MANIFEST_NAME,
    manifest_from_store,
    restore_store,
)
from repro.storage.segment import (
    CarryIndex,
    Segment,
    SegmentCorruptError,
    write_segment,
)

__all__ = [
    "RecoveryReport",
    "SegmentStore",
    "open_storage",
    "has_snapshot",
    "ship_snapshot",
]

PathLike = Union[str, Path]


@dataclass
class RecoveryReport:
    """What a cold start actually did — the O(tail) proof artifact."""

    root: str
    wal_seq: int
    segments_loaded: int
    files_indexed: int
    segments_quarantined: List[str] = field(default_factory=list)
    groups_quarantined: List[int] = field(default_factory=list)
    wal_records_replayed: int = 0


class SegmentStore:
    """Owner of one snapshot root: publish, residency LRU, quarantine."""

    def __init__(self, root: PathLike, *, resident_segments: int = 8) -> None:
        self.root = Path(root)
        self.segments_dir = self.root / "segments"
        self.quarantine_dir = self.root / "quarantine"
        self.segments_dir.mkdir(parents=True, exist_ok=True)
        self.resident_budget = max(1, int(resident_segments))
        self._lock = threading.RLock()
        self._segments: Dict[str, Segment] = {}
        self._manifest: Optional[Dict[str, Any]] = None
        # Generation is monotone per root, across restarts AND across a
        # fresh SegmentStore bound to an old root (a replica rebuilt in
        # place): peek the published manifest so the next publish can
        # never reuse — and overwrite — a live segment name.
        self._generation = 0
        peek = self.root / MANIFEST_NAME
        if peek.is_file():
            try:
                with peek.open("r", encoding="utf-8") as fh:
                    self._generation = int(json.load(fh).get("generation", 0))
            except (OSError, ValueError):
                self._generation = 0
        self._dirty_units: Set[int] = set()
        self._changed_ids: Set[int] = set()
        self._all_dirty = True
        self._resident: "OrderedDict[int, None]" = OrderedDict()
        self._group_of_unit: Dict[int, int] = {}
        self._group_servers: Dict[int, List[StorageServer]] = {}
        self.faults = 0
        self.evictions = 0
        self.pins = 0
        self.rows_carried = 0
        self.rows_encoded = 0
        registry = get_registry()
        self._fault_counter = registry.counter(
            "storage_segment_fault_total", "Segment groups faulted into residency"
        )
        self._evict_counter = registry.counter(
            "storage_segment_evict_total", "Segment groups evicted from residency"
        )
        self._pin_counter = registry.counter(
            "storage_segment_pin_total",
            "Segment units materialized (pinned out of the residency LRU)",
        )
        self._carried_counter = registry.counter(
            "storage_rows_carried_total",
            "Rows a publish copied from the previous generation's segments",
        )
        self._encoded_counter = registry.counter(
            "storage_rows_encoded_total", "Rows a publish JSON-encoded and hashed"
        )

    # ------------------------------------------------------------------ attach
    def attach(self, store: Any) -> None:
        """Bind to a SmartStore: dirty-unit tracking + topology map."""
        store.on_units_touched = self._on_units_touched
        self._reindex_topology(store)

    def _reindex_topology(self, store: Any) -> None:
        group_of_unit: Dict[int, int] = {}
        group_servers: Dict[int, List[StorageServer]] = {}
        for group in store.tree.first_level_groups():
            for leaf in group.descendant_leaves():
                if leaf.unit_id is None:
                    continue
                group_of_unit[leaf.unit_id] = group.node_id
                server = store.cluster.servers.get(leaf.unit_id)
                if server is not None and server.residency is self:
                    group_servers.setdefault(group.node_id, []).append(server)
        with self._lock:
            self._group_of_unit = group_of_unit
            self._group_servers = group_servers

    def _on_units_touched(self, unit_ids: Any, file_ids: Any) -> None:
        with self._lock:
            self._dirty_units.update(int(u) for u in unit_ids)
            self._changed_ids.update(int(f) for f in file_ids)

    def mark_all_dirty(self) -> None:
        """Force the next publish to rewrite every group (reshard/repack)."""
        with self._lock:
            self._all_dirty = True

    @property
    def manifest(self) -> Optional[Dict[str, Any]]:
        return self._manifest

    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    # ------------------------------------------------------------------ residency LRU
    def ensure_resident(self, server: StorageServer) -> None:
        """Called by a unit before it scans a segment block: fault its
        group in."""
        with self._lock:
            group_id = self._group_of_unit.get(server.unit_id)
            if group_id in self._resident and server.rows.cached:
                self._resident.move_to_end(group_id)
                return
            if group_id is not None:
                self.fault_in(group_id)
            # Outside the topology map, or it moved under us (e.g.
            # mid-compaction): load the asking unit directly rather than
            # answer slowly.
            server.rows.load()

    def fault_in(self, group_id: int) -> None:
        """Load one group's arrays into RAM, evicting LRU overflow."""
        with self._lock:
            with get_tracer().span("storage.fault_in", group_id=group_id):
                for server in self._group_servers.get(group_id, []):
                    server.rows.load()
                self._resident[group_id] = None
                self._resident.move_to_end(group_id)
                self.faults += 1
                self._fault_counter.inc()
                while len(self._resident) > self.resident_budget:
                    victim, _ = self._resident.popitem(last=False)
                    self._evict_locked(victim)

    def _evict_locked(self, group_id: int) -> None:
        with get_tracer().span("storage.evict", group_id=group_id):
            for server in self._group_servers.get(group_id, []):
                server.rows.drop()
            self.evictions += 1
            self._evict_counter.inc()

    def note_pinned(self) -> None:
        """A unit made itself writable: one full decode, out of the LRU's hands."""
        with self._lock:
            self.pins += 1
            self._pin_counter.inc()

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "faults": self.faults,
                "evictions": self.evictions,
                "pins": self.pins,
                "resident_groups": len(self._resident),
                "resident_budget": self.resident_budget,
                "segments": len(self._segments),
                "generation": self._generation,
                "rows_carried": self.rows_carried,
                "rows_encoded": self.rows_encoded,
            }

    # ------------------------------------------------------------------ publish
    def publish_snapshot(self, store: Any, *, wal_seq: int) -> Dict[str, Any]:
        """Write segments for changed groups + swap the manifest.

        The caller (``IngestPipeline.checkpoint``) holds the coarse
        write-path lock and has drained the staging overlay, so the live
        servers hold exactly the applied state this snapshot freezes.
        """
        with get_tracer().span("storage.publish", wal_seq=wal_seq) as span:
            manifest = self._publish(store, wal_seq=wal_seq)
            span.tag(
                generation=manifest["generation"],
                segments=len(manifest["segments"]),
                rows_carried=self.rows_carried,
                rows_encoded=self.rows_encoded,
            )
            return manifest

    def _publish(self, store: Any, *, wal_seq: int) -> Dict[str, Any]:
        tree = store.tree
        groups = tree.first_level_groups()
        with self._lock:
            generation = self._generation + 1
            prev_segments: Dict[str, Dict[str, Any]] = (
                dict(self._manifest["segments"]) if self._manifest else {}
            )
            dirty_units = set(self._dirty_units)
            all_dirty = self._all_dirty
            # Unchanged rows are copied from the segments this process
            # verified or wrote; after mark_all_dirty the live records
            # did not come through apply_changes, so nothing is trusted.
            carry = (
                CarryIndex()
                if all_dirty
                else CarryIndex(list(self._segments.values()), self._changed_ids)
            )
        segments_meta: Dict[str, Dict[str, Any]] = {}
        rows_written = rows_carried = 0
        for group in groups:
            group_id = group.node_id
            unit_ids = sorted(
                leaf.unit_id
                for leaf in group.descendant_leaves()
                if leaf.unit_id is not None
            )
            prev = prev_segments.get(str(group_id))
            prev_units = (
                sorted(int(u) for u in prev["units"]) if prev is not None else None
            )
            clean = (
                not all_dirty
                and prev is not None
                and prev_units == unit_ids
                and not (dirty_units & set(unit_ids))
                and prev["name"] in self._segments
            )
            if clean:
                assert prev is not None
                segments_meta[str(group_id)] = prev
                continue
            name = f"seg-{generation:08d}-g{group_id}.seg"
            info = write_segment(
                self.segments_dir / name,
                group_id,
                [(uid, store.cluster.server(uid)) for uid in unit_ids],
                store.schema,
                carry,
            )
            rows_written += info.count
            rows_carried += info.rows_carried
            segments_meta[str(group_id)] = {
                "name": info.name,
                "count": info.count,
                "bytes": info.size_bytes,
                "data_crc": info.data_crc,
                "units": {str(u): [a, b] for u, (a, b) in info.units.items()},
            }
        manifest = manifest_from_store(store, wal_seq=wal_seq, segments=segments_meta)
        # Monotone across restarts (restored from the manifest), so a new
        # publish can never reuse — and overwrite — an old segment name.
        manifest["generation"] = generation
        tmp = self.root / (MANIFEST_NAME + ".tmp")
        with tmp.open("w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.manifest_path())
        self._install_manifest(store, manifest, generation)
        with self._lock:
            self.rows_carried = rows_carried
            self.rows_encoded = rows_written - rows_carried
        self._carried_counter.inc(rows_carried)
        self._encoded_counter.inc(rows_written - rows_carried)
        return manifest

    def _install_manifest(
        self, store: Any, manifest: Dict[str, Any], generation: int
    ) -> None:
        """Open the published set, rebind the units of rewritten groups
        cold, and purge unreferenced segments."""
        new_segments: Dict[str, Segment] = {}
        for entry in manifest["segments"].values():
            name = str(entry["name"])
            segment = self._segments.get(name)
            if segment is None:
                segment = Segment.open(
                    self.segments_dir / name,
                    expected_crc=int(entry["data_crc"]),
                    verify=False,
                )
            new_segments[name] = segment

        # The units this store manages get their rows of the new segments
        # (their RAM copies are now redundant).  Plain in-memory units (a
        # freshly built primary) are untouched.
        for segment in new_segments.values():
            for unit_id, row_range in segment.units.items():
                server = store.cluster.server(unit_id)
                if server.residency is self and server.backing_segment() is not segment:
                    bind_segment(server, segment, row_range)

        with self._lock:
            stale = [
                seg for name, seg in self._segments.items() if name not in new_segments
            ]
            self._adopt(manifest, new_segments, generation)
            self._resident.clear()
        self._reindex_topology(store)
        for segment in stale:
            segment.close()
        # Purge-only-after-manifest-publish: by now the renamed manifest
        # no longer references these files.
        for path in self.segments_dir.glob("*.seg"):
            if path.name not in new_segments:
                path.unlink(missing_ok=True)
        for path in self.segments_dir.glob("*.tmp"):
            path.unlink(missing_ok=True)

    # ------------------------------------------------------------------ restore
    def _adopt(
        self,
        manifest: Dict[str, Any],
        segments_by_name: Dict[str, Segment],
        generation: int,
    ) -> None:
        with self._lock:
            self._segments = segments_by_name
            self._manifest = manifest
            self._generation = generation
            self._all_dirty = False
            self._dirty_units.clear()
            self._changed_ids.clear()

    def close(self) -> None:
        with self._lock:
            segments = list(self._segments.values())
            self._segments = {}
        for segment in segments:
            segment.close()


def ship_snapshot(
    source: SegmentStore, dest_root: PathLike, manifest: Dict[str, Any]
) -> Tuple[int, int]:
    """Copy ``manifest``'s segment set plus the manifest into ``dest_root``.

    The incremental "manifest + missing segments" transfer behind
    snapshot-shipping resync: a segment the destination already holds
    under the same name with the same data CRC (per its own published
    manifest) is skipped; everything else is copied tmp + fsync + rename.
    The manifest lands *last*, so the receiving root obeys the same §12
    publish ordering as a local checkpoint — its manifest only ever names
    fsynced segments.  Returns ``(bytes_shipped, segments_shipped)``.
    """
    dest_root = Path(dest_root)
    dest_segments = dest_root / "segments"
    dest_segments.mkdir(parents=True, exist_ok=True)
    have: Dict[str, int] = {}
    dest_manifest_path = dest_root / MANIFEST_NAME
    if dest_manifest_path.is_file():
        try:
            with dest_manifest_path.open("r", encoding="utf-8") as fh:
                prev = json.load(fh)
            for entry in dict(prev.get("segments", {})).values():
                have[str(entry["name"])] = int(entry["data_crc"])
        except (OSError, ValueError, KeyError, TypeError):
            have = {}
    bytes_shipped = 0
    segments_shipped = 0
    for entry in dict(manifest["segments"]).values():
        name = str(entry["name"])
        crc = int(entry["data_crc"])
        dest_path = dest_segments / name
        if have.get(name) == crc and dest_path.is_file():
            continue
        payload = (source.segments_dir / name).read_bytes()
        tmp = dest_segments / (name + ".tmp")
        with tmp.open("wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, dest_path)
        bytes_shipped += len(payload)
        segments_shipped += 1
    body = json.dumps(manifest)
    tmp = dest_root / (MANIFEST_NAME + ".tmp")
    with tmp.open("w", encoding="utf-8") as fh:
        fh.write(body)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, dest_manifest_path)
    bytes_shipped += len(body)
    return bytes_shipped, segments_shipped


def has_snapshot(root: PathLike) -> bool:
    """True when ``root`` holds a published manifest to restore from."""
    return (Path(root) / MANIFEST_NAME).is_file()


def open_storage(
    root: PathLike, *, resident_segments: int = 8
) -> Tuple[Any, SegmentStore, RecoveryReport]:
    """Cold-start a store from a snapshot root: O(manifest + tail).

    Opens and checksum-validates every segment the manifest names;
    segments that fail validation are moved to ``quarantine/`` and their
    groups restore empty (the caller's WAL replay brings back whatever
    the tail holds — a detected-and-degraded answer, never a wrong one).
    Returns ``(smartstore, segment_store, report)``.
    """
    root = Path(root)
    manifest_path = root / MANIFEST_NAME
    with manifest_path.open("r", encoding="utf-8") as fh:
        manifest: Dict[str, Any] = json.load(fh)
    if manifest.get("format") != MANIFEST_FORMAT:
        raise ValueError(
            f"{manifest_path}: not a segment manifest "
            f"(format={manifest.get('format')!r})"
        )
    segstore = SegmentStore(root, resident_segments=resident_segments)
    segments_by_name: Dict[str, Segment] = {}
    quarantined_groups: List[int] = []
    quarantined_files: List[str] = []
    table: Dict[str, Dict[str, Any]] = dict(manifest["segments"])
    for gid_str, entry in table.items():
        group_id = int(gid_str)
        name = str(entry["name"])
        path = segstore.segments_dir / name
        try:
            segment = Segment.open(
                path, expected_crc=int(entry["data_crc"]), verify=True
            )
            if segment.group_id != group_id or segment.count != int(entry["count"]):
                segment.close()
                raise SegmentCorruptError(
                    f"{path}: header disagrees with manifest "
                    f"(group={segment.group_id}, count={segment.count})"
                )
        except SegmentCorruptError:
            quarantined_groups.append(group_id)
            quarantined_files.append(name)
            segstore.quarantine_dir.mkdir(parents=True, exist_ok=True)
            try:
                os.replace(path, segstore.quarantine_dir / name)
            except OSError:
                pass
            continue
        segments_by_name[name] = segment
    # Drop quarantined entries from the adopted manifest so the next
    # publish rewrites those groups from live state.
    adopted = dict(manifest)
    adopted["segments"] = {
        gid: entry
        for gid, entry in table.items()
        if int(gid) not in set(quarantined_groups)
    }
    store = restore_store(
        manifest,
        segments=segments_by_name.values(),
        quarantined_groups=set(quarantined_groups),
        segstore=segstore,
    )
    segstore._adopt(
        adopted, segments_by_name, generation=int(manifest.get("generation", 1))
    )
    segstore.attach(store)
    report = RecoveryReport(
        root=str(root),
        wal_seq=int(manifest["wal_seq"]),
        segments_loaded=len(segments_by_name),
        files_indexed=store.file_count(),
        segments_quarantined=quarantined_files,
        groups_quarantined=sorted(quarantined_groups),
    )
    return store, segstore, report
