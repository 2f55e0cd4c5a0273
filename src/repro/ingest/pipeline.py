"""The durable ingest pipeline: WAL → version chains → compaction.

An :class:`IngestPipeline` turns a built :class:`~repro.core.smartstore.SmartStore`
into an online read/write deployment:

* every mutation is appended to the :class:`~repro.ingest.wal.WriteAheadLog`
  *first* (when one is attached — a volatile pipeline skips durability but
  keeps the same staging semantics);
* it is then staged through :meth:`SmartStore.stage_mutation`, which records
  it once, in the owning group's version chain; attaching the pipeline
  switches the store's reads to read-your-writes, so every subsequent
  point/range/top-k query reflects it immediately, deletions included;
* a :class:`~repro.ingest.compactor.Compactor` — inline or on a background
  thread — incrementally folds staged mutations into the semantic R-tree;
* :meth:`checkpoint` publishes a segment snapshot through the attached
  :class:`~repro.storage.store.SegmentStore` and truncates the log;
  :func:`recover_from_storage` cold-starts an equivalent pipeline from
  that snapshot plus a WAL-tail replay after a crash.

Typical use::

    store = SmartStore.build(files, config)
    pipeline = IngestPipeline(store, wal=WriteAheadLog(path, fsync_every=64))
    pipeline.attach_storage(SegmentStore(snap_dir))
    pipeline.insert(new_file)          # durable + immediately queryable
    pipeline.compactor.run_once()      # or pipeline.compactor.start()
    pipeline.checkpoint()              # snapshot publish + WAL truncation
    ...
    recovered, report = recover_from_storage(snap_dir, wal_path=path)
"""

from __future__ import annotations

import threading
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    ContextManager,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.smartstore import SmartStore, SmartStoreConfig, StageOutcome
from repro.ingest.compactor import CompactionPolicy, Compactor
from repro.ingest.wal import WALRecord, WriteAheadLog
from repro.metadata.attributes import AttributeSchema, DEFAULT_SCHEMA
from repro.metadata.file_metadata import FileMetadata
from repro.obs import get_tracer

__all__ = [
    "MutationReceipt",
    "IngestPipeline",
    "open_member",
    "recover_from_storage",
    "replay_tail",
]

PathLike = Union[str, Path]


@dataclass(frozen=True)
class MutationReceipt:
    """What the caller gets back for one accepted mutation.

    ``seq`` is the WAL sequence number (a local monotone counter for
    volatile pipelines), ``group_id`` the first-level group whose version
    chain recorded the change (:data:`~repro.core.smartstore.UNKNOWN_GROUP`
    for rejected deletes/modifies of unknown files), ``latency`` the
    simulated staging cost under the deployment's cost model.
    """

    seq: int
    kind: str
    file_id: int
    group_id: int
    unit_id: int
    known: bool
    latency: float


class IngestPipeline:
    """Durable online mutations over one deployment."""

    def __init__(
        self,
        store: SmartStore,
        wal: Optional[WriteAheadLog] = None,
        *,
        policy: Optional[CompactionPolicy] = None,
        watermark: int = 0,
    ) -> None:
        self.store = store
        self.wal = wal
        # The store's pending changes, now read with read-your-writes
        # visibility; ``len(overlay)`` is the number of staged files.
        self.overlay = store.engine.overlay = store.versioning
        # Serialises staging against compaction (and concurrent writers).
        self.lock = threading.RLock()
        self.compactor = Compactor(self, policy)
        self.mutations = 0
        self.rejected = 0
        # Watermark: the highest sequence number the store reflects.  A
        # replica's freshness (its failover priority) is exactly this.
        self.applied_seq = max(watermark, wal.last_seq if wal is not None else 0)
        # The pipeline is the sequence authority for both durable and
        # volatile deployments; an attached WAL follows it (explicit-seq
        # appends), so the numbering survives a WAL swap at resync.
        self._next_local_seq = self.applied_seq + 1
        # Mutation feed: every staged mutation is handed to subscribers as
        # a WAL-style record — the replication layer ships these to the
        # replica group.  Durable pipelines forward the WAL's own shipping
        # hook (fired on append, i.e. before staging under the mutation
        # lock); volatile ones emit after staging.  Either way subscribers
        # see records in exactly the order the store applies them.
        self._mutation_listeners: List[Callable[[WALRecord], None]] = []
        if wal is not None:
            wal.subscribe(self._forward_record)
        # Tiered segment store (repro.storage.SegmentStore) that
        # checkpoint() publishes through; None until attach_storage().
        self.storage: Optional[Any] = None
        self._closed = False

    # ------------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Stop background compaction and close the log and the attached
        segment store (staged state stays; a unit bound to a segment keeps
        reading its mapping)."""
        if self._closed:
            return
        self._closed = True
        self.compactor.stop()
        if self.wal is not None:
            self.wal.close()
        if self.storage is not None:
            self.storage.close()

    def __enter__(self) -> "IngestPipeline":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ mutations
    def _apply(self, kind: str, file: FileMetadata) -> MutationReceipt:
        if self._closed:
            raise RuntimeError("pipeline is closed")
        if kind != "delete":
            self.store.schema.require(file.path, file.attributes)
        with self.lock, get_tracer().span("ingest.apply", kind=kind):
            # Log first: the mutation must be durable before any in-memory
            # structure reflects it, or a crash could acknowledge a write
            # that recovery cannot reproduce.  The WAL's shipping hook
            # forwards the record to the mutation feed right here.
            seq = self._next_local_seq
            self._next_local_seq += 1
            if self.wal is not None:
                self.wal.append(kind, file, seq=seq)
            outcome = self.store.stage_mutation(kind, file)
            self.mutations += 1
            if not outcome.known:
                self.rejected += 1
            self.applied_seq = seq
            if self.wal is None and self._mutation_listeners:
                record = WALRecord(seq=seq, kind=kind, file=file)
                for listener in self._mutation_listeners:
                    listener(record)
            return self._receipt(seq, outcome)

    def _receipt(self, seq: int, outcome: StageOutcome) -> MutationReceipt:
        return MutationReceipt(
            seq=seq,
            kind=outcome.kind,
            file_id=outcome.file.file_id,
            group_id=outcome.group_id,
            unit_id=outcome.unit_id,
            known=outcome.known,
            latency=outcome.metrics.latency(self.store.config.cost_model),
        )

    def insert(self, file: FileMetadata) -> MutationReceipt:
        """Durably insert one metadata record (immediately queryable)."""
        return self._apply("insert", file)

    def delete(self, file: FileMetadata) -> MutationReceipt:
        """Durably delete one record (masked from queries immediately).

        Deletes of unknown files are logged (the intent was accepted) but
        staged nowhere; the receipt's ``known`` flag is False.
        """
        return self._apply("delete", file)

    def modify(self, file: FileMetadata) -> MutationReceipt:
        """Durably replace one record's attribute values."""
        return self._apply("modify", file)

    # ------------------------------------------------------------------ replication
    def _forward_record(self, record: WALRecord) -> None:
        """WAL shipping hook → the pipeline's mutation feed (durable path)."""
        for listener in self._mutation_listeners:
            listener(record)

    def subscribe_mutations(self, listener: Callable[[WALRecord], None]) -> None:
        """Register a shipping hook, called with every locally originated
        mutation (durable pipelines forward their WAL's append hook;
        volatile ones emit directly).

        The hook fires inside the mutation lock, so subscribers observe
        records in exactly the order the store applies them.  Records
        applied via :meth:`apply_replicated` are *not* emitted — a replica
        must never re-ship what was shipped to it.
        """
        self._mutation_listeners.append(listener)

    def unsubscribe_mutations(self, listener: Callable[[WALRecord], None]) -> None:
        if listener in self._mutation_listeners:
            self._mutation_listeners.remove(listener)

    def apply_replicated(self, record: WALRecord) -> Optional[MutationReceipt]:
        """Apply one shipped WAL record on the replica side.

        A durable replica archives the segment in its *own* log first
        (under the primary's sequence number, without firing the shipping
        hooks — a replica must never re-ship), so a later promotion keeps
        writing WAL-first on the new primary's local disk.  Then the
        record is staged, the applied-seq watermark advances, and the
        sequence counter follows the primary's numbering.  Records at or
        below the watermark are duplicates from a catch-up overlap and are
        skipped (returns ``None``) — re-shipping is idempotent by
        construction.
        """
        if self._closed:
            raise RuntimeError("pipeline is closed")
        if record.file is None:  # checkpoint markers carry no mutation
            return None
        with self.lock:
            if record.seq <= self.applied_seq:
                return None
            if self.wal is not None:
                self.wal.append(
                    record.kind, record.file, seq=record.seq, notify=False
                )
            outcome = self.store.stage_mutation(record.kind, record.file)
            self.mutations += 1
            if not outcome.known:
                self.rejected += 1
            self.applied_seq = record.seq
            self._next_local_seq = record.seq + 1
            return self._receipt(record.seq, outcome)

    # ------------------------------------------------------------------ views
    def materialized_files(self) -> List[FileMetadata]:
        """The logical population: applied records plus staged net effect."""
        with self.lock:
            merged: Dict[int, FileMetadata] = {f.file_id: f for f in self.store.files}
            view = self.overlay.snapshot()
            merged.update(view.live)
            for fid in view.pending.difference(view.live):
                merged.pop(fid, None)
            return list(merged.values())

    def stats(self) -> Dict[str, object]:
        d: Dict[str, object] = {
            "mutations": self.mutations,
            "rejected_unknown": self.rejected,
            "applied_seq": self.applied_seq,
            "overlay": self.overlay.stats(),
            "compaction": self.compactor.stats.as_dict(),
        }
        if self.wal is not None:
            d["wal"] = {
                "path": str(self.wal.path),
                "last_seq": self.wal.last_seq,
                "appended": self.wal.appended,
                "syncs": self.wal.syncs,
                "fsync_every": self.wal.fsync_every,
                "size_bytes": self.wal.size_bytes(),
            }
        return d

    # ------------------------------------------------------------------ checkpointing
    def attach_storage(self, storage: Any) -> None:
        """Bind the tiered segment store ``checkpoint()`` publishes through."""
        self.storage = storage
        storage.attach(self.store)

    def checkpoint(
        self, exclusive: Callable[[], ContextManager[Any]] = nullcontext
    ) -> Dict[str, object]:
        """Publish a segment snapshot and truncate the log.

        The compactor drains the version chains (so the live servers hold
        exactly the applied state), changed groups are frozen into
        immutable segment files, the manifest is swapped atomically, and
        only then is the WAL tail truncated.  A crash between the manifest
        swap and the truncation leaves a new snapshot over an untruncated
        log; replaying records the snapshot already holds is idempotent
        (inserts/modifies replace in place, deletes of absent files are
        observable no-ops).  Recovery is O(tail):
        :func:`recover_from_storage` mmaps the segments and replays only
        post-checkpoint WAL records.  Returns the published manifest.

        ``exclusive`` makes the lock held around the drain only — a query
        service passes the write side of its state lock, so no read scans
        a unit the drain is patching; it is taken before the pipeline
        lock, as a mutation takes them, and released before the publish
        writes and fsyncs anything (the pipeline lock stays held, so the
        applied state the publish freezes cannot move).

        Raises ``ValueError`` when no segment store is attached.
        """
        if self.storage is None:
            raise ValueError(
                "checkpoint() needs a segment store attached (attach_storage)"
            )
        with ExitStack() as held:
            with exclusive():
                held.enter_context(self.lock)
                # Drain first: segments freeze *applied* state, so no change
                # may be pending when the groups are written.  The
                # compactor's drain re-enters the pipeline lock (RLock).
                self.compactor.drain()
            seq = self.applied_seq
            manifest = self.storage.publish_snapshot(self.store, wal_seq=seq)
            if self.wal is not None:
                self.wal.truncate_through(seq)
            return manifest

    def __repr__(self) -> str:
        return (
            f"IngestPipeline(store={self.store!r}, "
            f"wal={'on' if self.wal is not None else 'off'}, "
            f"mutations={self.mutations}, staged={len(self.overlay)})"
        )


def replay_tail(pipeline: IngestPipeline, after_seq: int) -> int:
    """Re-stage (without re-logging) every intact WAL record above ``after_seq``.

    The one replay loop every cold-start path shares: ``after_seq`` is the
    sequence number the pipeline's freshly built or restored store already
    reflects (a checkpoint's or snapshot's ``wal_seq``; 0 for a store built
    from a bare population).  Checkpoint markers carry no mutation and are
    skipped.  Returns the number of records replayed.
    """
    wal = pipeline.wal
    if wal is None:
        return 0
    replayed = 0
    with get_tracer().span("ingest.replay_tail", after_seq=after_seq) as span:
        for record in wal.replay():
            if record.seq <= after_seq or record.kind == "checkpoint":
                continue
            if record.file is None:
                continue
            pipeline.store.stage_mutation(record.kind, record.file)
            pipeline.mutations += 1
            pipeline.applied_seq = record.seq
            replayed += 1
        span.tag(replayed=replayed)
    pipeline._next_local_seq = max(pipeline._next_local_seq, pipeline.applied_seq + 1)
    return replayed


def open_member(
    root: Optional[PathLike],
    wal_path: Optional[PathLike],
    files: Optional[Sequence[FileMetadata]] = None,
    config: Optional[SmartStoreConfig] = None,
    schema: AttributeSchema = DEFAULT_SCHEMA,
    *,
    index_bounds: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    fsync_every: int = 1,
    policy: Optional[CompactionPolicy] = None,
    watermark: Optional[int] = None,
) -> Tuple[IngestPipeline, Any]:
    """Open one store, shard or replica: the one construction seam.

    Restores ``root`` when it holds a published snapshot, else builds the
    store from ``files`` (``config``, corpus-wide ``index_bounds``) with a
    fresh segment store at ``root``; then opens the log at ``wal_path``
    and replays it above what the store reflects (the snapshot's
    ``wal_seq``, 0 for a build).  ``watermark`` is the resync / split
    form: ``files`` (even over a snapshot) or, without them, the snapshot
    at ``root`` hold everything through ``watermark``; the log restarts
    empty, nothing is replayed and the numbering goes on from there.

    Returns ``(pipeline, report)``: the :class:`repro.storage.RecoveryReport`
    of a restore (``wal_records_replayed`` counts the replay), or ``None``.
    """
    from repro.storage import SegmentStore, has_snapshot, open_storage

    report, segstore, after_seq = None, None, 0
    if root is not None and (files is None or (watermark is None and has_snapshot(root))):
        store, segstore, report = open_storage(root)
        after_seq = report.wal_seq
    elif files is None:
        raise ValueError("open_member needs files to build from, or a snapshot root")
    else:
        store = SmartStore.build(
            list(files), config or SmartStoreConfig(), schema, index_bounds=index_bounds
        )
        segstore = SegmentStore(root) if root is not None else None
    wal = None
    if wal_path is not None:
        if watermark is not None:
            Path(wal_path).unlink(missing_ok=True)
        wal = WriteAheadLog(wal_path, fsync_every=fsync_every)
    pipeline = IngestPipeline(
        store,
        wal,
        policy=policy,
        watermark=after_seq if watermark is None else watermark,
    )
    if segstore is not None:
        pipeline.attach_storage(segstore)
    if watermark is None:
        replayed = replay_tail(pipeline, after_seq)
        if report is not None:
            report.wal_records_replayed += replayed
    return pipeline, report


def recover_from_storage(
    root: PathLike,
    *,
    wal_path: Optional[PathLike] = None,
    fsync_every: int = 1,
    policy: Optional[CompactionPolicy] = None,
    resident_segments: int = 8,
) -> Tuple[IngestPipeline, Any]:
    """Cold-start a pipeline from a segment snapshot + the WAL tail.

    :func:`open_member` restoring ``root``: O(tail) — the manifest
    restores the tree, LSI projection and normalisation bounds (no SVD, no
    k-means), the segments are mmap'd without decoding a record, and only
    WAL records above the manifest's ``wal_seq`` are re-staged.  Segments
    that fail their checksum are quarantined and their groups restore
    empty (a detected, degraded-but-correct answer, never a wrong one).
    ``resident_segments`` is accepted and ignored (see
    :class:`repro.storage.StorageConfig`).
    """
    return open_member(root, wal_path, fsync_every=fsync_every, policy=policy)
