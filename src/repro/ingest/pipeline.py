"""The durable ingest pipeline: WAL → staging overlay → compaction.

An :class:`IngestPipeline` turns a built :class:`~repro.core.smartstore.SmartStore`
into an online read/write deployment:

* every mutation is appended to the :class:`~repro.ingest.wal.WriteAheadLog`
  *first* (when one is attached — a volatile pipeline skips durability but
  keeps the same staging semantics);
* it is then staged through :meth:`SmartStore.stage_mutation`, which records
  it in the owning group's version chain *and* in the
  :class:`~repro.ingest.overlay.StagingOverlay`, so every subsequent
  point/range/top-k query reflects it immediately (read-your-writes,
  including deletion masking);
* a :class:`~repro.ingest.compactor.Compactor` — inline or on a background
  thread — incrementally folds staged mutations into the semantic R-tree;
* :meth:`checkpoint` persists the current logical population and truncates
  the log; :func:`recover` rebuilds an equivalent pipeline from the latest
  checkpoint plus a WAL replay after a crash.

Typical use::

    store = SmartStore.build(files, config)
    pipeline = IngestPipeline(store, wal=WriteAheadLog(path, fsync_every=64))
    pipeline.insert(new_file)          # durable + immediately queryable
    pipeline.compactor.run_once()      # or pipeline.compactor.start()
    pipeline.checkpoint(ckpt_dir)      # snapshot + WAL truncation
    ...
    recovered = recover(ckpt_dir, wal_path=path)   # after a crash
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.core.smartstore import (
    SmartStore,
    StageOutcome,
    UNKNOWN_GROUP,
    config_from_dict,
    config_to_dict,
)
from repro.ingest.compactor import CompactionPolicy, Compactor
from repro.ingest.overlay import StagingOverlay
from repro.ingest.wal import WALRecord, WriteAheadLog
from repro.metadata.file_metadata import FileMetadata
from repro.obs import get_tracer
from repro.persistence.jsonl import load_files, save_files, schema_from_dict, schema_to_dict

__all__ = [
    "MutationReceipt",
    "IngestPipeline",
    "recover",
    "recover_from_storage",
    "replay_tail",
    "CHECKPOINT_FORMAT",
]

PathLike = Union[str, Path]

CHECKPOINT_FORMAT = "repro.checkpoint"
CHECKPOINT_VERSION = 1

CHECKPOINT_META = "checkpoint.meta.json"
CHECKPOINT_FILES = "checkpoint.files.jsonl"


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
    ) -> None:
        self.store = store
        self.wal = wal
        self.overlay = StagingOverlay()
        store.attach_overlay(self.overlay)
        # Serialises staging against compaction (and concurrent writers).
        self.lock = threading.RLock()
        self.compactor = Compactor(self, policy)
        self.mutations = 0
        self.rejected = 0
        # The pipeline is the sequence authority for both durable and
        # volatile deployments; an attached WAL follows it (explicit-seq
        # appends), so the numbering survives a WAL swap at resync.
        self._next_local_seq = wal.last_seq + 1 if wal is not None else 1
        # Watermark: the highest sequence number staged into the store.  A
        # replica's freshness (and therefore its failover priority) is
        # exactly this number.
        self.applied_seq = wal.last_seq if wal is not None else 0
        # Mutation feed: every staged mutation is handed to subscribers as
        # a WAL-style record — the replication layer ships these to the
        # replica group.  Durable pipelines forward the WAL's own shipping
        # hook (fired on append, i.e. before staging under the mutation
        # lock); volatile ones emit after staging.  Either way subscribers
        # see records in exactly the order the store applies them.
        self._mutation_listeners: List[Callable[[WALRecord], None]] = []
        if wal is not None:
            wal.subscribe(self._forward_record)
        # Optional tiered segment store (repro.storage.SegmentStore); when
        # attached, checkpoint() publishes an mmap-able snapshot instead of
        # (or as well as) the legacy JSONL population dump.
        self.storage: Optional[Any] = None
        self._closed = False

    # ------------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Stop background compaction and close the log (staged state stays)."""
        if self._closed:
            return
        self._closed = True
        self.compactor.stop()
        if self.wal is not None:
            self.wal.close()

    def __enter__(self) -> "IngestPipeline":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ mutations
    def _apply(self, kind: str, file: FileMetadata) -> MutationReceipt:
        if self._closed:
            raise RuntimeError("pipeline is closed")
        with self.lock, get_tracer().span("ingest.apply", kind=kind):
            # Log first: the mutation must be durable before any in-memory
            # structure reflects it, or a crash could acknowledge a write
            # that recovery cannot reproduce.  The WAL's shipping hook
            # forwards the record to the mutation feed right here.
            seq = self._next_local_seq
            self._next_local_seq += 1
            if self.wal is not None:
                self.wal.append(kind, file, seq=seq)
            outcome = self.store.stage_mutation(kind, file, seq=seq)
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
            outcome = self.store.stage_mutation(record.kind, record.file, seq=record.seq)
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
            live, deleted = self.overlay.snapshot()
            merged.update(live)
            for fid in deleted:
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
        """Bind a tiered segment store; ``checkpoint()`` (no directory)
        then publishes snapshots through it."""
        self.storage = storage
        storage.attach(self.store)

    def checkpoint(self, directory: Optional[PathLike] = None) -> Dict[str, object]:
        """Persist the logical population and truncate the log.

        With a :class:`~repro.storage.store.SegmentStore` attached and no
        ``directory`` given, the checkpoint is a *snapshot publish*: the
        compactor drains the staging overlay (so the live servers hold
        exactly the applied state), changed groups are frozen into
        immutable segment files, the manifest is swapped atomically, and
        only then is the WAL tail truncated.  Recovery from that snapshot
        is O(tail): :func:`recover_from_storage` mmaps the segments and
        replays only post-checkpoint WAL records.

        With a ``directory``, the legacy JSONL checkpoint is written (and
        recovery rebuilds the store from the full population).

        The checkpoint captures everything logged so far (applied *and*
        staged mutations — recovery rebuilds the overlay-visible state from
        the population alone), so the WAL can drop every record at or below
        the checkpoint sequence.  Both artefacts are written atomically
        (temp + fsync + rename), population first, metadata second, WAL
        truncation last; a crash at any point leaves a recoverable pair:
        either the previous checkpoint with the untruncated log, or — when
        only the metadata swap is outstanding — the old metadata over the
        new population, which WAL replay reconciles because re-staging a
        logged mutation is idempotent (inserts/modifies replace in place,
        deletes of absent files are observable no-ops).
        """
        if directory is None:
            if self.storage is None:
                raise ValueError(
                    "checkpoint() needs a directory unless a segment store "
                    "is attached (attach_storage)"
                )
            return self._checkpoint_storage()
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        with self.lock:
            seq = self.wal.last_seq if self.wal is not None else self._next_local_seq - 1
            files = self.materialized_files()
            files_tmp = directory / (CHECKPOINT_FILES + ".tmp")
            save_files(files, files_tmp)
            with files_tmp.open("a", encoding="utf-8") as fh:
                fh.flush()
                # Checkpoint captures the population atomically with the
                # wal_seq it records, so the durable flush happens under
                # the pipeline lock by design (rare, admin-paced path).
                os.fsync(fh.fileno())  # repro-lint: disable=lock-discipline
            os.replace(files_tmp, directory / CHECKPOINT_FILES)
            meta = {
                "format": CHECKPOINT_FORMAT,
                "version": CHECKPOINT_VERSION,
                "wal_seq": seq,
                "num_files": len(files),
                "config": config_to_dict(self.store.config),
                "schema": schema_to_dict(self.store.schema),
            }
            tmp = directory / (CHECKPOINT_META + ".tmp")
            with tmp.open("w", encoding="utf-8") as fh:
                json.dump(meta, fh, indent=2, sort_keys=True)
                fh.write("\n")
                fh.flush()
                # Same rationale as the files fsync above: meta must land
                # with the population it describes.
                os.fsync(fh.fileno())  # repro-lint: disable=lock-discipline
            os.replace(tmp, directory / CHECKPOINT_META)
            if self.wal is not None:
                self.wal.truncate_through(seq)
            return meta

    def _checkpoint_storage(self) -> Dict[str, object]:
        """Publish an mmap-able snapshot through the attached segment store."""
        with self.lock:
            # Drain first: segments freeze *applied* state, so the staging
            # overlay must be empty when the groups are written.  The
            # compactor's drain re-enters the pipeline lock (RLock).
            self.compactor.drain()
            seq = self.wal.last_seq if self.wal is not None else self._next_local_seq - 1
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
            pipeline.store.stage_mutation(record.kind, record.file, seq=record.seq)
            pipeline.mutations += 1
            pipeline.applied_seq = record.seq
            replayed += 1
        span.tag(replayed=replayed)
    pipeline._next_local_seq = max(pipeline._next_local_seq, pipeline.applied_seq + 1)
    return replayed


def recover(
    checkpoint_dir: PathLike,
    *,
    wal_path: Optional[PathLike] = None,
    fsync_every: int = 1,
    policy: Optional[CompactionPolicy] = None,
) -> IngestPipeline:
    """Rebuild a pipeline from the latest checkpoint plus a WAL replay.

    The store is rebuilt from the checkpointed population with the
    checkpointed configuration, then every intact WAL record with a
    sequence number above the checkpoint is re-staged (without re-logging).
    A torn or corrupt log tail — the signature of a crash mid-append — ends
    the replay at the last intact record, exactly matching what the WAL's
    durability contract promised the writer.

    The returned pipeline keeps appending to the same log, so recovery is
    also how a cleanly shut down deployment resumes.
    """
    checkpoint_dir = Path(checkpoint_dir)
    with (checkpoint_dir / CHECKPOINT_META).open("r", encoding="utf-8") as fh:
        meta = json.load(fh)
    if meta.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(
            f"{checkpoint_dir} is not a checkpoint (format={meta.get('format')!r})"
        )
    files = load_files(checkpoint_dir / CHECKPOINT_FILES)
    config = config_from_dict(meta["config"])
    schema = schema_from_dict(meta["schema"])
    store = SmartStore.build(files, config, schema)

    wal = WriteAheadLog(wal_path, fsync_every=fsync_every) if wal_path is not None else None
    pipeline = IngestPipeline(store, wal, policy=policy)
    replay_tail(pipeline, int(meta.get("wal_seq", 0)))
    return pipeline


def recover_from_storage(
    root: PathLike,
    *,
    wal_path: Optional[PathLike] = None,
    fsync_every: int = 1,
    policy: Optional[CompactionPolicy] = None,
    resident_segments: int = 8,
) -> Tuple[IngestPipeline, Any]:
    """Cold-start a pipeline from a segment snapshot + the WAL tail.

    O(tail) recovery: the manifest restores the tree, LSI projection and
    normalisation bounds directly (no SVD, no k-means), the segments are
    mmap'd without decoding a single record, and only WAL records with a
    sequence number above the manifest's ``wal_seq`` are re-staged.
    Segments that fail their checksum are quarantined by
    :func:`repro.storage.open_storage`; their groups restore empty and
    the replay brings back whatever the tail holds — a detected,
    degraded-but-correct answer, never a wrong one.

    Returns ``(pipeline, report)`` where ``report`` is a
    :class:`repro.storage.RecoveryReport` whose ``wal_records_replayed``
    is the O(tail) witness.
    """
    from repro.storage import open_storage

    store, segstore, report = open_storage(root, resident_segments=resident_segments)
    wal = WriteAheadLog(wal_path, fsync_every=fsync_every) if wal_path is not None else None
    pipeline = IngestPipeline(store, wal, policy=policy)
    pipeline.attach_storage(segstore)
    snapshot_seq = report.wal_seq
    if wal is not None:
        report.wal_records_replayed += replay_tail(pipeline, snapshot_seq)
    else:
        # Volatile (plain-topology) deployments keep the snapshot's
        # sequence numbering so a later publish stays monotone.
        pipeline.applied_seq = snapshot_seq
        pipeline._next_local_seq = snapshot_seq + 1
    return pipeline, report
