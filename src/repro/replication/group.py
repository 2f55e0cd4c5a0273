"""Replica groups: one primary + N replicas behind a single write/read facade.

A :class:`ReplicaGroup` owns ``N + 1`` complete SmartStore deployments —
each with its own cluster, semantic R-tree, version chains and ingest
pipeline — built identically from the same member population, so any
replica answers any query with the same payload.  The group presents the
familiar two-sided surface of the serving stack:

* like a **store** — ``execute(query, ctx)`` (the shared read entry
  point, see :class:`~repro.core.queries.ReadContext`) serves from a
  healthy replica with failover retries, and ``cluster``, ``versioning``,
  ``schema``, ``files`` and ``config`` delegate to the current primary —
  so a :class:`~repro.shard.router.ShardRouter` or a
  :class:`~repro.service.service.QueryService` runs over a group unchanged;
* like an **IngestPipeline** — ``insert`` / ``delete`` / ``modify``
  returning :class:`~repro.ingest.pipeline.MutationReceipt`, an
  ``overlay``, a ``compactor`` driving every member's compactor, and
  ``stats()``.

The replication protocol:

**Writes** go WAL-first to the primary (its pipeline logs — which fires
the shipping hook — then stages).  The group ships each emitted record
into every replica's pending queue; a durable replica archives the
segment in its own local log as it applies it, so whichever member is
later promoted keeps writing WAL-first on its own disk.  In ``sync`` mode the queues are
drained before the write returns; in ``async`` mode they drain lazily —
bounded by ``max_lag``: a healthy replica is pumped down to the window on
the write path, an unresponsive one is left to its circuit breaker.

**Reads** rotate across members whose breaker admits them.  The chosen
replica is first caught up from its pending queue (*catch-up-on-read*), so
every acknowledged write is visible no matter which replica answers — the
property the byte-identical fingerprint gates rely on.  A read served
after skipping or retrying past an unhealthy member is counted as
*degraded*.

**Failover**: when the primary fails a write, the freshest live replica —
highest applied WAL sequence — is promoted after fully replaying its
shipped log; the write retries on the new primary (the applied-seq
watermark makes a double-shipped record idempotent).  Promotion during
catch-up failure falls back to the next-freshest replica.

**Anti-entropy**: :meth:`ReplicaGroup.anti_entropy` compares per-replica
population fingerprints and repairs any divergent replica — how a
crashed ex-primary (which may hold a record that never shipped) rejoins
safely.  When both the primary and the divergent member run over tiered
segment storage the repair is *snapshot-shipping resync*: the primary
publishes a fresh snapshot, its manifest plus the segments the member is
missing are copied over, and the member cold-starts from them (mmap — no
rebuild).  Without storage on both ends the member is rebuilt from the
primary's materialised population.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import deque
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    ContextManager,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.queries import QueryResult, ReadContext
from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.core.versioning import VersioningManager
from repro.ingest.compactor import CompactionStats
from repro.ingest.pipeline import IngestPipeline, MutationReceipt, open_member
from repro.ingest.wal import WALRecord, WriteAheadLog
from repro.metadata.attributes import AttributeSchema
from repro.metadata.file_metadata import FileMetadata
from repro.obs import get_registry, get_tracer
from repro.replication.fault import (
    GroupUnavailableError,
    ReplicaCrashedError,
    ReplicaPausedError,
    ReplicaUnavailableError,
)
from repro.replication.health import BreakerPolicy, HealthTracker
from repro.storage import ship_snapshot
from repro.workloads.types import Query, kind_of

__all__ = [
    "ReplicationConfig",
    "Replica",
    "ReplicaGroup",
    "population_fingerprint",
]

#: Replication modes: ``async`` ships lazily within the lag window,
#: ``sync`` drains every healthy replica before acknowledging a write.
REPLICATION_MODES = ("async", "sync")


@dataclass(frozen=True)
class ReplicationConfig:
    """How a replica group (or every group of a sharded router) replicates.

    ``replicas``
        Replicas *in addition to* the primary (``2`` means three copies).
    ``mode``
        ``"async"`` (bounded-lag shipping) or ``"sync"``.
    ``max_lag``
        Async only: the most shipped-but-unapplied records a healthy
        replica may accumulate before the write path pumps it down.
    ``breaker``
        Per-replica circuit-breaker policy.
    """

    replicas: int = 1
    mode: str = "async"
    max_lag: int = 64
    breaker: BreakerPolicy = BreakerPolicy()

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError("a replica group needs at least 1 replica")
        if self.mode not in REPLICATION_MODES:
            raise ValueError(f"mode must be one of {REPLICATION_MODES}")
        if self.max_lag < 1:
            raise ValueError("max_lag must be >= 1")


def population_fingerprint(files: Sequence[FileMetadata]) -> str:
    """Order-independent digest of a logical population.

    Hashes every record's id, path and attribute values in file-id order;
    two replicas whose logical populations agree produce the same digest no
    matter how their physical layouts differ.  The anti-entropy pass
    compares these per member.
    """
    h = hashlib.sha256()
    for f in sorted(files, key=lambda f: f.file_id):
        h.update(str(f.file_id).encode("ascii") + b"\x1f")
        h.update(f.path.encode("utf-8") + b"\x1f")
        for name in sorted(f.attributes):
            h.update(f"{name}={f.attributes[name]!r}\x1f".encode("utf-8"))
        h.update(b"\x1e")
    return h.hexdigest()


class Replica:
    """One member of a replica group: a full deployment plus health state."""

    def __init__(
        self,
        replica_id: int,
        store: SmartStore,
        pipeline: IngestPipeline,
        *,
        breaker: BreakerPolicy = BreakerPolicy(),
    ) -> None:
        self.replica_id = replica_id
        self.store = store
        self.pipeline = pipeline
        self.tracker = HealthTracker(breaker)
        # Shipped-but-unapplied WAL records, oldest first.  Appends only
        # take the queue lock so the primary's write path never blocks
        # behind a long read on this replica.
        self.pending: Deque[WALRecord] = deque()
        self._queue_lock = threading.Lock()
        # Serialises apply/pump/query on this replica's structures.
        self.lock = threading.RLock()
        # Fault state, flipped by repro.replication.fault.FaultInjector.
        self.crashed = False
        self.paused = False
        self.slow_seconds = 0.0
        self.fail_point: Optional[str] = None  # "before_ship" | "after_ship"
        self.crash_after_applies: Optional[int] = None

    @property
    def applied_seq(self) -> int:
        return self.pipeline.applied_seq

    def lag(self) -> int:
        with self._queue_lock:
            return len(self.pending)

    def enqueue(self, record: WALRecord) -> int:
        with self._queue_lock:
            self.pending.append(record)
            return len(self.pending)

    def next_pending(self) -> Optional[WALRecord]:
        with self._queue_lock:
            return self.pending[0] if self.pending else None

    def pop_pending(self) -> None:
        with self._queue_lock:
            if self.pending:
                self.pending.popleft()

    def clear_pending(self) -> None:
        with self._queue_lock:
            self.pending.clear()

    def check_available(self) -> None:
        """Raise if the replica cannot serve; simulate slowness if armed."""
        if self.crashed:
            raise ReplicaCrashedError(f"replica {self.replica_id} is crashed")
        if self.paused:
            raise ReplicaPausedError(f"replica {self.replica_id} is paused")
        if self.slow_seconds:
            time.sleep(self.slow_seconds)

    def __repr__(self) -> str:
        return (
            f"Replica(id={self.replica_id}, applied_seq={self.applied_seq}, "
            f"lag={self.lag()}, state={self.tracker.state!r}, "
            f"crashed={self.crashed}, paused={self.paused})"
        )


class _GroupVersioning:
    """Composite change clock over every member, resilient to resync.

    ``change_clock`` is ``(resyncs, *per-member clocks)`` read dynamically,
    so a mutation on any member — or a replica rebuild — makes cached
    results stale.  Listeners are remembered and re-subscribed to the fresh
    manager whenever a resync swaps a member's store out.
    """

    def __init__(self, group: "ReplicaGroup") -> None:
        self._group = group
        self._listeners: List[Callable[[], None]] = []

    @property
    def change_clock(self) -> Tuple[int, ...]:
        return (
            self._group.resyncs,
            *(m.store.versioning.change_clock for m in self._group.members),
        )

    def subscribe(self, listener: Callable[[], None]) -> None:
        self._listeners.append(listener)
        for member in self._group.members:
            member.store.versioning.subscribe(listener)

    def unsubscribe(self, listener: Callable[[], None]) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)
        for member in self._group.members:
            member.store.versioning.unsubscribe(listener)

    def rewire(self, manager: Any) -> None:
        """Subscribe the remembered listeners to a resynced member's manager."""
        for listener in self._listeners:
            manager.subscribe(listener)


class _GroupCompactor:
    """Drives every member's compactor (replicas catch up first)."""

    def __init__(self, group: "ReplicaGroup") -> None:
        self._group = group

    @property
    def stats(self) -> CompactionStats:
        return self._group.primary.pipeline.compactor.stats

    def _sweep(self, entry_point: str) -> int:
        group = self._group
        applied = 0
        for member in group.members:
            if member.crashed or member.paused:
                continue
            with member.lock:
                try:
                    group.pump(member)
                except ReplicaUnavailableError:
                    member.tracker.record_failure()
                    continue
                applied += getattr(member.pipeline.compactor, entry_point)()
        return applied

    def run_once(self) -> int:
        return self._sweep("run_once")

    def drain(self) -> int:
        return self._sweep("drain")


class ReplicaGroup:
    """One primary plus N replicas acting as a single store + write path."""

    def __init__(
        self,
        members: Sequence[Replica],
        *,
        mode: str = "async",
        max_lag: int = 64,
        primary_id: int = 0,
    ) -> None:
        if len(members) < 2:
            raise ValueError("a replica group needs a primary and >= 1 replica")
        if mode not in REPLICATION_MODES:
            raise ValueError(f"mode must be one of {REPLICATION_MODES}")
        self.members = list(members)
        self.mode = mode
        self.max_lag = max_lag
        self._primary_id = primary_id
        self._lock = threading.RLock()
        self._rr = 0
        self.versioning = _GroupVersioning(self)
        self.compactor = _GroupCompactor(self)
        # Counters (all monotone; the router/service drain deltas).
        self.failovers = 0
        self.degraded_reads = 0
        self.read_retries = 0
        self.reads_served = 0
        self.writes_acked = 0
        self.resyncs = 0
        self.snapshot_ships = 0
        self.snapshot_bytes = 0
        self.rebuild_resyncs = 0
        registry = get_registry()
        self._ship_counter = registry.counter(
            "resync_snapshot_ship_total",
            "Replica resyncs served by snapshot shipping (vs full rebuild)",
        )
        self._ship_bytes_counter = registry.counter(
            "resync_snapshot_bytes_total",
            "Bytes (segments + manifest) copied during snapshot-shipping resyncs",
        )
        self.anti_entropy_checks = 0
        self.anti_entropy_repairs = 0
        self.max_observed_lag = 0
        self._events_seen: Dict[str, int] = {}
        self._closed = False
        for member in self.members:
            self._wire_shipping(member)

    # ------------------------------------------------------------------ membership
    def _wire_shipping(self, member: Replica) -> None:
        member.pipeline.subscribe_mutations(
            lambda record, m=member: self._on_record(m, record)
        )

    @property
    def primary_id(self) -> int:
        with self._lock:
            return self._primary_id

    @property
    def primary(self) -> Replica:
        with self._lock:
            return self.members[self._primary_id]

    @property
    def num_replicas(self) -> int:
        return len(self.members) - 1

    # ------------------------------------------------------------------ store facade
    @property
    def schema(self) -> AttributeSchema:
        return self.primary.store.schema

    @property
    def config(self) -> SmartStoreConfig:
        return self.primary.store.config

    @property
    def files(self) -> List[FileMetadata]:
        return self.primary.store.files

    def file_count(self) -> int:
        """Size of the primary's applied population (no record is read)."""
        return int(self.primary.store.file_count())

    @property
    def index_lower(self) -> np.ndarray:
        return self.primary.store.index_lower

    @property
    def index_upper(self) -> np.ndarray:
        return self.primary.store.index_upper

    @property
    def cluster(self) -> Any:
        return self.primary.store.cluster

    @property
    def overlay(self) -> VersioningManager:
        return self.primary.pipeline.overlay

    @property
    def wal(self) -> Optional[WriteAheadLog]:
        return self.primary.pipeline.wal

    def default_pipeline(self) -> "ReplicaGroup":
        """The group is its own write path (QueryService hook)."""
        return self

    def execute(self, query: Query, ctx: Optional[ReadContext] = None) -> QueryResult:
        """The shared read entry point: :meth:`read`.  The result's
        :class:`~repro.cluster.metrics.Metrics` is this request's cost on
        the member that served it."""
        return self.read(query, ctx)

    def materialized_files(self) -> List[FileMetadata]:
        return self.primary.pipeline.materialized_files()

    def checkpoint(
        self, exclusive: Callable[[], ContextManager[Any]] = nullcontext
    ) -> Dict[str, object]:
        """Publish a segment snapshot on every storage-backed member.

        Replicas are pumped down to the primary's watermark first, so all
        members freeze the same logical population and a later cold start
        restores a coherent group.  Every member is pumped and drained
        under ``exclusive`` (see :meth:`IngestPipeline.checkpoint`), then
        publishes outside it; the group lock, held throughout, keeps any
        new write out of the members in between.  Returns the primary's
        manifest.
        """
        result: Dict[str, object] = {}
        with ExitStack() as held:
            with exclusive():
                held.enter_context(self._lock)
                primary = self.members[self._primary_id]
                members = [
                    m
                    for m in self.members
                    if not (m.crashed or m.paused)
                    and getattr(m.pipeline, "storage", None) is not None
                ]
                for member in members:
                    with member.lock:
                        if member is not primary:
                            self._pump_quietly(member)
                        member.pipeline.compactor.drain()
            for member in members:
                with member.lock:
                    manifest = member.pipeline.checkpoint()
                    if member is primary:
                        result = manifest
        if not members:
            raise ValueError(
                "checkpoint() needs a segment store attached to at least "
                "the primary (DeploymentSpec.storage / attach_storage)"
            )
        return result

    # ------------------------------------------------------------------ shipping
    def _on_record(self, source: Replica, record: WALRecord) -> None:
        """Mutation-feed hook: ship the primary's records to the replicas.

        Fires for every member's pipeline, but only the *current* primary's
        emissions ship — a replica's own applies (catch-up) and an
        ex-primary's death throes must not echo back into the queues.
        """
        with self._lock:
            if self.members[self._primary_id] is not source:
                return
            others = [m for m in self.members if m is not source]
        for member in others:
            member.enqueue(record)

    def pump(self, member: Replica, *, budget: Optional[int] = None) -> int:
        """Apply ``member``'s pending shipped records (oldest first).

        Raises :class:`ReplicaUnavailableError` when the member cannot
        apply (crashed / paused / armed crash countdown fires); the caller
        decides whether that means breaker bookkeeping or promotion
        fallback.  Returns the number of records applied.
        """
        applied = 0
        with member.lock:
            while budget is None or applied < budget:
                member.check_available()
                record = member.next_pending()
                if record is None:
                    break
                if member.crash_after_applies is not None and member.crash_after_applies <= 0:
                    member.crashed = True
                    member.crash_after_applies = None
                    raise ReplicaCrashedError(
                        f"replica {member.replica_id} crashed during catch-up"
                    )
                member.pipeline.apply_replicated(record)
                member.pop_pending()
                applied += 1
                if member.crash_after_applies is not None:
                    member.crash_after_applies -= 1
        return applied

    # ------------------------------------------------------------------ writes
    def insert(self, file: FileMetadata) -> MutationReceipt:
        """Insert on the primary, ship to replicas (fails over if needed)."""
        return self._mutate("insert", file)

    def delete(self, file: FileMetadata) -> MutationReceipt:
        """Delete on the primary, ship to replicas (fails over if needed)."""
        return self._mutate("delete", file)

    def modify(self, file: FileMetadata) -> MutationReceipt:
        """Modify on the primary, ship to replicas (fails over if needed)."""
        return self._mutate("modify", file)

    def _mutate(self, kind: str, file: FileMetadata) -> MutationReceipt:
        if self._closed:
            raise RuntimeError("replica group is closed")
        with self._lock:
            # One failover attempt per member is enough: each retry either
            # succeeds or permanently removes a candidate from promotion.
            for _ in range(len(self.members)):
                primary = self.members[self._primary_id]
                try:
                    receipt = self._mutate_on(primary, kind, file)
                except ReplicaUnavailableError:
                    primary.tracker.record_failure()
                    self.promote()  # raises GroupUnavailableError when hopeless
                    continue
                primary.tracker.record_success()
                self.writes_acked += 1
                return receipt
        raise GroupUnavailableError("no replica could accept the write")

    def _mutate_on(self, primary: Replica, kind: str, file: FileMetadata) -> MutationReceipt:
        primary.check_available()
        receipt = getattr(primary.pipeline, kind)(file)
        # The pipeline's mutation feed already shipped the record via
        # _on_record; the one-shot fail points model the crash landing just
        # around that instant.
        if primary.fail_point == "before_ship":
            # Logged locally, segment never left: un-ship what the feed
            # enqueued, then die.  The client write is NOT acknowledged;
            # its retry lands on the promoted replica.
            primary.fail_point = None
            primary.crashed = True
            for member in self.members:
                if member is primary:
                    continue
                with member._queue_lock:
                    if member.pending and member.pending[-1].seq == receipt.seq:
                        member.pending.pop()
            raise ReplicaCrashedError(
                f"primary {primary.replica_id} crashed before shipping seq {receipt.seq}"
            )
        if primary.fail_point == "after_ship":
            # Segment shipped, ack never sent: the retry double-applies,
            # which the replicas' seq watermark makes idempotent.
            primary.fail_point = None
            primary.crashed = True
            raise ReplicaCrashedError(
                f"primary {primary.replica_id} crashed after shipping seq {receipt.seq}"
            )
        if self.mode == "sync":
            for member in self.members:
                if member is primary:
                    continue
                self._pump_quietly(member)
        else:
            for member in self.members:
                if member is primary or member.lag() <= self.max_lag:
                    continue
                # Bounded lag window: a healthy replica is pumped back
                # inside it before the write is acknowledged; an
                # unresponsive one is left to its circuit breaker.
                self._pump_quietly(member, budget=member.lag() - self.max_lag)
        # The window is a promise about *healthy* replicas — a crashed or
        # paused member's queue grows until reintegration and must not
        # count against the bounded-lag gate.
        for member in self.members:
            if member is primary or member.crashed or member.paused:
                continue
            lag = member.lag()
            if lag > self.max_observed_lag:
                self.max_observed_lag = lag
        return receipt

    def _pump_quietly(self, member: Replica, *, budget: Optional[int] = None) -> None:
        try:
            self.pump(member, budget=budget)
            member.tracker.record_success()
        except ReplicaUnavailableError:
            member.tracker.record_failure()

    # ------------------------------------------------------------------ failover
    def promote(self) -> Replica:
        """Promote the freshest live replica to primary.

        Candidates are tried in decreasing applied-seq order; each is
        caught up by replaying its shipped log before taking over.  A
        candidate that dies mid catch-up is skipped (and its breaker
        debited) in favour of the next-freshest.
        """
        with self._lock:
            order = sorted(
                (i for i in range(len(self.members)) if i != self._primary_id),
                key=lambda i: (-self.members[i].applied_seq, i),
            )
            for idx in order:
                candidate = self.members[idx]
                try:
                    candidate.check_available()
                    self.pump(candidate)  # catch-up: replay the shipped log
                except ReplicaUnavailableError:
                    candidate.tracker.record_failure()
                    continue
                self._primary_id = idx
                candidate.tracker.record_success()
                self.failovers += 1
                return candidate
            raise GroupUnavailableError(
                "no live replica is available for promotion"
            )

    # ------------------------------------------------------------------ reads
    def read(self, query: Query, ctx: Optional[ReadContext] = None) -> QueryResult:
        """Serve one query from a healthy member (catch-up-on-read).

        Members are tried in rotating order; breakers filter candidates
        up front, failures during the attempt rotate to the next member.
        A read that had to skip or retry past anyone counts as degraded.

        ``ctx.consistency`` relaxes the catch-up-on-read step (the
        default, ``"primary"``, fully drains the chosen member's
        shipped-record queue first, so every acknowledged write is
        visible — primary-equivalent visibility from any member):

        * ``"any_replica"`` skips catch-up entirely — the member answers
          from whatever it has applied, trailing the primary by up to its
          current replication lag;
        * ``"bounded"`` pumps the member down to at most
          ``ctx.max_staleness`` shipped-but-unapplied records before
          answering.

        The context is forwarded whole to the serving member's engine.
        """
        ctx = ctx if ctx is not None else ReadContext()
        kind = kind_of(query)
        if self._closed:
            raise RuntimeError("replica group is closed")
        with self._lock:
            start = self._rr
            self._rr = (self._rr + 1) % len(self.members)
        degraded = False
        last_error: Optional[Exception] = None
        for offset in range(len(self.members)):
            member = self.members[(start + offset) % len(self.members)]
            if not member.tracker.available():
                degraded = True
                continue
            try:
                with member.lock, get_tracer().span(
                    "replica.read",
                    replica=member.replica_id,
                    consistency=ctx.consistency,
                    kind=kind,
                ) as read_span:
                    member.check_available()
                    if ctx.consistency == "any_replica":
                        pass  # serve as-is; staleness bounded only by lag
                    elif ctx.consistency == "bounded":
                        excess = member.lag() - max(0, ctx.max_staleness)
                        if excess > 0:
                            with get_tracer().span(
                                "replica.catchup",
                                replica=member.replica_id,
                                budget=excess,
                            ):
                                self.pump(member, budget=excess)
                    else:
                        with get_tracer().span(
                            "replica.catchup", replica=member.replica_id
                        ):
                            self.pump(member)
                    result: QueryResult = member.store.engine.execute(query, ctx)
                    read_span.tag(degraded=degraded)
            except ReplicaUnavailableError as exc:
                member.tracker.record_failure()
                with self._lock:
                    self.read_retries += 1
                degraded = True
                last_error = exc
                continue
            member.tracker.record_success()
            with self._lock:
                self.reads_served += 1
                if degraded:
                    self.degraded_reads += 1
            return result
        raise GroupUnavailableError(
            f"no replica could serve the {kind} query"
        ) from last_error

    def drain_replication_events(self) -> Dict[str, int]:
        """Failover/degraded-read/retry counts since the last drain.

        Same contract as
        :meth:`~repro.shard.router.ShardRouter.drain_replication_events` —
        the query service polls this after engine executions when it runs
        directly over one group.
        """
        with self._lock:
            totals = {
                "failovers": self.failovers,
                "degraded_reads": self.degraded_reads,
                "replica_retries": self.read_retries,
            }
            delta = {k: v - self._events_seen.get(k, 0) for k, v in totals.items()}
            self._events_seen = totals
            return delta

    # ------------------------------------------------------------------ anti-entropy
    def fingerprints(self) -> List[Optional[str]]:
        """Per-member population fingerprints (``None`` for crashed members)."""
        prints: List[Optional[str]] = []
        for member in self.members:
            if member.crashed or member.paused:
                prints.append(None)
                continue
            with member.lock:
                prints.append(population_fingerprint(member.pipeline.materialized_files()))
        return prints

    def anti_entropy(self) -> Dict[str, int]:
        """Reconcile replicas against the primary's population fingerprint.

        Each live replica is caught up from its shipped log, then its
        logical-population digest is compared with the primary's; a
        divergent replica (e.g. an ex-primary holding a never-shipped
        record) is rebuilt from the primary's materialised population.
        Returns ``{"checked": ..., "repaired": ...}``.
        """
        with self._lock:
            primary = self.members[self._primary_id]
            with primary.lock:
                reference = population_fingerprint(primary.pipeline.materialized_files())
            checked = repaired = 0
            for member in self.members:
                if member is primary or member.crashed or member.paused:
                    continue
                checked += 1
                self._pump_quietly(member)
                with member.lock:
                    digest = population_fingerprint(member.pipeline.materialized_files())
                if digest != reference:
                    self._resync(member)
                    repaired += 1
            self.anti_entropy_checks += checked
            self.anti_entropy_repairs += repaired
            return {"checked": checked, "repaired": repaired}

    def reintegrate(self, member: Replica) -> None:
        """Bring a recovered member back into rotation.

        Replays its queued shipped records; if its population still
        diverges from the primary's (it applied something that never
        shipped), it is rebuilt outright.  Its breaker is closed on
        success — recovery is the strongest health signal there is.
        """
        with self._lock:
            if member is self.members[self._primary_id]:
                member.tracker.record_success()
                return
            try:
                self.pump(member)
            except ReplicaUnavailableError:
                member.tracker.record_failure()
                return
            primary = self.members[self._primary_id]
            with primary.lock:
                reference = population_fingerprint(primary.pipeline.materialized_files())
            with member.lock:
                digest = population_fingerprint(member.pipeline.materialized_files())
            if digest != reference:
                self._resync(member)
            member.tracker.record_success()

    def _resync(self, member: Replica) -> None:
        """Bring one divergent replica back in line with the primary.

        Snapshot-shipping is preferred whenever both ends run over tiered
        segment storage: publish a fresh primary snapshot, ship its
        manifest plus whatever segments the member is missing and
        cold-start the member from them (mmap, no rebuild).  Anything
        that disqualifies or fails the ship — no storage on either side,
        shared root, an I/O error, or damage detected while restoring the
        shipped bytes — falls back to a full rebuild from the primary's
        materialised population.
        """
        primary = self.members[self._primary_id]
        if self._resync_snapshot(primary, member):
            return
        self._resync_rebuild(primary, member)

    def _resync_snapshot(self, primary: Replica, member: Replica) -> bool:
        src = getattr(primary.pipeline, "storage", None)
        dst = getattr(member.pipeline, "storage", None)
        if src is None or dst is None or Path(src.root) == Path(dst.root):
            return False
        try:
            # The publish captures everything the primary has applied and
            # truncates its log, so the snapshot alone is the member's
            # new state: there is no WAL tail to ship beside it.
            with primary.lock:
                manifest = primary.pipeline.checkpoint()
            watermark = int(manifest["wal_seq"])  # type: ignore[arg-type]
            with get_tracer().span(
                "storage.resync_ship",
                replica=member.replica_id,
                watermark=watermark,
            ) as span:
                bytes_shipped, segments_shipped = ship_snapshot(
                    src, dst.root, manifest
                )
                span.tag(bytes=bytes_shipped, segments=segments_shipped)
        except (OSError, ValueError, KeyError):
            return False
        with member.lock:
            try:
                report = self._reopen(member, None, watermark)
            except (OSError, ValueError):
                return False
            if report.segments_quarantined:
                # The shipped bytes were damaged in flight: the member is
                # consistent but degraded — let the rebuild path finish.
                return False
        self.resyncs += 1
        self.snapshot_ships += 1
        self.snapshot_bytes += bytes_shipped
        self._ship_counter.inc()
        self._ship_bytes_counter.inc(bytes_shipped)
        return True

    def _resync_rebuild(self, primary: Replica, member: Replica) -> None:
        """Rebuild one replica from the primary's logical population.

        The member keeps its compaction policy, and a durable member gets
        a fresh log at its old path (the rebuilt population supersedes the
        divergent records; shipped segments resume at the watermark).  A
        storage-backed member gets a fresh segment store on its old root
        — generation continues from the root's published manifest, so the
        next publish never overwrites a live segment file.
        """
        with primary.lock:
            files = sorted(
                primary.pipeline.materialized_files(), key=lambda f: f.file_id
            )
            watermark = primary.pipeline.applied_seq
        with member.lock:
            self._reopen(member, files, watermark)
        self.resyncs += 1
        self.rebuild_resyncs += 1

    def _reopen(
        self, member: Replica, files: Optional[List[FileMetadata]], watermark: int
    ) -> Any:
        """Replace a member's deployment (member lock held) with one opened
        at ``watermark`` — from ``files``, or from the snapshot at its
        segment root — over its log path (restarted empty), segment root and
        compaction policy.  Returns the restore's report (``None`` for a
        build)."""
        old = member.pipeline
        old.close()  # and its segment store
        wal, storage = old.wal, old.storage
        pipeline, report = open_member(
            storage.root if storage is not None else None,
            wal.path if wal is not None else None,
            files,
            self.config,
            self.schema,
            index_bounds=(self.index_lower, self.index_upper),
            fsync_every=wal.fsync_every if wal is not None else 1,
            policy=old.compactor.policy,
            watermark=watermark,
        )
        member.store = pipeline.store
        member.pipeline = pipeline
        member.clear_pending()
        self._wire_shipping(member)
        self.versioning.rewire(pipeline.store.versioning)
        return report

    # ------------------------------------------------------------------ lifecycle
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for member in self.members:
            member.pipeline.close()

    def __enter__(self) -> "ReplicaGroup":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ introspection
    def stats(self) -> Dict[str, object]:
        return {
            "members": len(self.members),
            "primary": self.primary_id,
            "mode": self.mode,
            "max_lag": self.max_lag,
            "failovers": self.failovers,
            "degraded_reads": self.degraded_reads,
            "read_retries": self.read_retries,
            "reads_served": self.reads_served,
            "writes_acked": self.writes_acked,
            "resyncs": self.resyncs,
            "snapshot_ships": self.snapshot_ships,
            "snapshot_bytes": self.snapshot_bytes,
            "rebuild_resyncs": self.rebuild_resyncs,
            "anti_entropy": {
                "checked": self.anti_entropy_checks,
                "repaired": self.anti_entropy_repairs,
            },
            "max_observed_lag": self.max_observed_lag,
            "replicas": [
                {
                    "replica_id": m.replica_id,
                    "applied_seq": m.applied_seq,
                    "lag": m.lag(),
                    "breaker": m.tracker.as_dict(),
                    "crashed": m.crashed,
                    "paused": m.paused,
                }
                for m in self.members
            ],
            "ingest": self.primary.pipeline.stats(),
        }

    def __repr__(self) -> str:
        return (
            f"ReplicaGroup(members={len(self.members)}, primary={self.primary_id}, "
            f"mode={self.mode!r}, failovers={self.failovers})"
        )

