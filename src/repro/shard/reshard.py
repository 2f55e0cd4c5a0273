"""Online elasticity: live shard split & rebalance under traffic.

The scaling benchmark can *detect* a degenerate partition (one hot shard
holding most of the corpus or absorbing most of the busy time — see
:class:`~repro.shard.load.PartitionLoad`); this module *repairs* one
without stopping the deployment.  A :class:`ReshardController` watches a
:class:`~repro.shard.router.ShardRouter`'s live load report and, when the
partition is degenerate, splits the hot shard in four phases:

1. **Plan** — recut the hot shard's slice of the principal semantic
   component at a fresh popularity-weighted median (Zipf-by-rank weights,
   the load model the workload generators actually emit), so the two
   halves carry comparable *query load*, not just comparable file counts.
2. **Backfill** — build a brand-new SmartStore deployment over the moving
   half's snapshot, then catch it up like a replica: the controller
   subscribes to the source pipeline's mutation feed
   (:meth:`~repro.ingest.pipeline.IngestPipeline.subscribe_mutations` —
   the same hook replication ships WAL segments through) and applies
   every record touching a moving file via
   :meth:`~repro.ingest.pipeline.IngestPipeline.apply_replicated`
   (idempotent: the applied-seq watermark skips duplicates).  The old
   owner keeps serving reads *and writes* the whole time.
3. **Flip** — take the router's topology write lock (queries and routed
   mutations drain; new ones briefly queue), drain the final backlog,
   recut the partitioner (:meth:`SemanticShardPartitioner.split_slice`
   inserts the new shard id without renumbering existing ones), install
   the new shard, and repoint ownership of every moving file.  Installing
   grows the composite cache-epoch tuple's *arity*, so no pre-split epoch
   can ever compare equal again: every cached result is stale by
   construction, and in-flight paginated reads ride their
   placement-independent cursors (fingerprint + offset, no shard ids) to
   byte-identical pages.
4. **Handoff** — stage deletes for the moved files on the old shard
   (still under the write lock), so the populations are disjoint the
   instant traffic resumes.  Summaries stay conservative: the old shard's
   box/filter never shrink, which can only cost a wasted probe, never a
   wrong answer.

Splitting grows capacity, but the degenerate CLI-default corpus needs the
opposite repair: the *same* shard count behind *better* cuts.  A cut that
lands inside the Zipf-hot head of the principal component makes every
piece of the hot neighbourhood cost nearly a full scan on every shard
that overlaps it — measured on the seed-42 corpus, no sequence of splits
beats ~1.1x while a fresh balanced build reaches ~2x.  So the
controller's primary repair is :meth:`ReshardController.rebalance`:

1. **Recut** — refit the partitioner on the live corpus
   (:meth:`SemanticShardPartitioner.refit`): fresh popularity-weighted
   quantile cuts for the current shard count, balanced fallback on.
2. **Migrate** — under the topology write lock, every file whose fresh
   slice disagrees with its current owner moves as a WAL-logged
   delete+insert pair, so per-shard mutation histories stay replayable
   and the union population never changes (fingerprint equivalence is
   structural, not coincidental).
3. **Repack** — each store is rebuilt over its live population with the
   same config and corpus-wide index bounds.  Migration alone leaves
   recipient stores with index groups laid out for their *old*
   population (measured: the migrated topology runs ~25% hotter than a
   fresh build of identical placement); repacking restores fresh-build
   locality.  Re-registering the rebuilt stores grows the composite
   cache-epoch tuple's arity, so every pre-rebalance cached page is
   stale by construction — the same flush-by-arity argument the split
   path relies on.

:meth:`ReshardController.run_once` tries the rebalance first and falls
back to a split only when the fresh quantiles already agree with the
current placement (the corpus genuinely needs more shards, not better
cuts).

Scope: resharding requires in-process, unreplicated shards using the
fitted ``slice`` partitioner strategy (``supports_split``).  Replicated
and process-mode topologies report ``performed=False`` with a reason
instead of raising — elasticity is advisory, never a crash.

Durability: when the source shard is durable the new shard gets its own
``shard-<id>.wal`` next to it, and every backfilled record is re-logged
there under the source's sequence numbers.  The new WAL starts at the
split (the snapshot base is not re-logged), so crash recovery of a
split-off shard needs a checkpoint first — exactly the replica-resync
contract, documented in ``docs/INVARIANTS.md``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.smartstore import SmartStore
from repro.ingest.pipeline import IngestPipeline
from repro.ingest.wal import WALRecord, WriteAheadLog
from repro.metadata.file_metadata import FileMetadata
from repro.obs import get_registry, get_tracer
from repro.shard.load import PartitionLoad
from repro.storage import SegmentStore
from repro.shard.partitioner import (
    POPULARITY_ATTRIBUTE,
    SemanticShardPartitioner,
)
from repro.shard.router import ShardRouter

__all__ = [
    "ReshardPolicy",
    "ReshardOutcome",
    "ReshardController",
    "FRESH_PLACEMENT",
]


@dataclass(frozen=True)
class ReshardPolicy:
    """When the controller is allowed to split.

    ``max_shards`` bounds topology growth (every split adds one shard);
    ``min_split_population`` refuses to split a shard too small for two
    viable halves; ``min_busy_seconds`` requires enough measured traffic
    for the busy-share half of the degeneracy verdict to mean something —
    below it, only the population-share half of
    :attr:`~repro.shard.load.PartitionLoad.degenerate` can trigger.
    ``cooldown_evaluations`` skips the degeneracy verdict for that many
    passes after a performed reshard: the action resets the busy
    accounting, so the window right after it holds too thin a sample to
    judge the *new* placement — acting on it is flapping, not repair.
    """

    max_shards: int = 16
    min_split_population: int = 8
    min_busy_seconds: float = 0.0
    cooldown_evaluations: int = 1


#: The rebalance no-op reason run_once() treats as "cuts can't help,
#: consider growing capacity instead".
FRESH_PLACEMENT = "placement already matches the fresh quantile cuts"


@dataclass
class ReshardOutcome:
    """What one controller pass decided and did."""

    performed: bool
    reason: str
    action: str = "none"
    source_shard: Optional[int] = None
    new_shard: Optional[int] = None
    moved: int = 0
    catch_up: int = 0
    handoff_deletes: int = 0
    repacked: int = 0
    load: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "performed": self.performed,
            "reason": self.reason,
            "action": self.action,
            "source_shard": self.source_shard,
            "new_shard": self.new_shard,
            "moved": self.moved,
            "catch_up": self.catch_up,
            "handoff_deletes": self.handoff_deletes,
            "repacked": self.repacked,
            "load": dict(self.load),
        }


class _Backlog:
    """Mutation records shipped while the backfill is in flight.

    The listener appends from writer threads (inside the source
    pipeline's mutation lock, so records arrive in apply order); the
    controller drains batches from its own thread.  A tiny lock decouples
    the two — the listener must never block on backfill progress.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: List[WALRecord] = []

    def append(self, record: WALRecord) -> None:
        with self._lock:
            self._records.append(record)

    def drain(self) -> List[WALRecord]:
        with self._lock:
            drained, self._records = self._records, []
            return drained

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


class ReshardController:
    """Detect degenerate partitions on a live router and repair them.

    One controller per router; :meth:`run_once` is the whole loop body
    (evaluate, then rebalance — or split, when fresh cuts can't help —
    if warranted), :meth:`start` runs it on a background thread.  All
    reshard actions are serialised by an internal lock, so a manual
    :meth:`split`/:meth:`rebalance` and the background loop can never
    interleave.
    """

    def __init__(
        self, router: ShardRouter, policy: Optional[ReshardPolicy] = None
    ) -> None:
        self.router = router
        self.policy = policy if policy is not None else ReshardPolicy()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.evaluations = 0
        self.splits = 0
        self.rebalances = 0
        self.skipped = 0
        self._cooldown = 0
        self.last_outcome: Optional[ReshardOutcome] = None

    # ------------------------------------------------------------------ policy
    def _supported(self) -> Optional[str]:
        """None when the router can be resharded, else the reason it can't."""
        router = self.router
        part = router.partitioner
        if not isinstance(part, SemanticShardPartitioner) or not part.supports_split:
            return "partitioner does not support live slice splits"
        if router.replicated:
            return "replicated shards cannot be split live yet"
        if not all(isinstance(s, SmartStore) for s in router.shards):
            return "only in-process shard backends can be split live"
        return None

    def evaluate(self) -> Tuple[PartitionLoad, Optional[str]]:
        """Current load plus the reason not to reshard (None = act now)."""
        self.evaluations += 1
        load = self.router.load_report()
        unsupported = self._supported()
        if unsupported is not None:
            return load, unsupported
        if self._cooldown > 0:
            self._cooldown -= 1
            return load, "cooling down after a recent reshard"
        if sum(load.busy_seconds) < self.policy.min_busy_seconds:
            if not (load.populations and load.population_share >= load.population_cap):
                return load, "not enough measured traffic to judge balance"
        if not load.degenerate:
            return load, "partition is balanced"
        return load, None

    def run_once(self, *, force: bool = False) -> ReshardOutcome:
        """One controller pass: evaluate, repair if warranted.

        The repair is a :meth:`rebalance` (recut every slice at fresh
        popularity-weighted quantiles, migrate, repack); a split of the
        hot shard is the fallback when the fresh quantiles already match
        the current placement — then the corpus needs more shards, not
        different cuts.  ``force=True`` skips the degeneracy verdict
        (support and safety checks still apply) — the knob the bench and
        the ``reshard`` wire op use to exercise a reshard on demand.
        """
        with self._lock:
            load, reason = self.evaluate()
            if reason is not None and not (force and self._forceable(reason)):
                self.skipped += 1
                outcome = ReshardOutcome(
                    performed=False, reason=reason, load=load.as_dict()
                )
                self.last_outcome = outcome
                return outcome
            outcome = self._rebalance_locked(load)
            if not outcome.performed and outcome.reason == FRESH_PLACEMENT:
                outcome = self._grow_locked(load, outcome)
            self.last_outcome = outcome
            return outcome

    def _grow_locked(
        self, load: PartitionLoad, fallback: ReshardOutcome
    ) -> ReshardOutcome:
        """Split the hot shard when a rebalance had nothing to move
        (controller lock held).  Returns ``fallback`` annotated with the
        refusal when policy forbids growing."""
        if load.shards >= self.policy.max_shards:
            fallback.reason += (
                f"; already at max_shards={self.policy.max_shards}"
            )
            return fallback
        hot = load.hottest_shard()
        if hot is None:
            fallback.reason += "; no load measured to pick a split target"
            return fallback
        if load.populations[hot] < self.policy.min_split_population:
            fallback.reason += (
                f"; hot shard {hot} holds only {load.populations[hot]} files "
                f"(< min_split_population={self.policy.min_split_population})"
            )
            return fallback
        return self._split_locked(hot, load)

    @staticmethod
    def _forceable(reason: str) -> bool:
        """Which evaluate() refusals ``force=True`` may override: verdicts
        about *whether the partition needs it*, never about whether a
        split is possible or safe."""
        return (
            reason in ("partition is balanced",)
            or reason.startswith("not enough measured traffic")
            or reason.startswith("cooling down")
        )

    def split(self, shard_id: int) -> ReshardOutcome:
        """Split one specific shard now (support/size checks still apply)."""
        with self._lock:
            unsupported = self._supported()
            if unsupported is not None:
                self.skipped += 1
                outcome = ReshardOutcome(
                    performed=False, reason=unsupported, action="split"
                )
                self.last_outcome = outcome
                return outcome
            load = self.router.load_report()
            if shard_id < 0 or shard_id >= load.shards:
                outcome = ReshardOutcome(
                    performed=False,
                    reason=f"no shard {shard_id} (topology has {load.shards})",
                    action="split",
                    load=load.as_dict(),
                )
                self.last_outcome = outcome
                return outcome
            outcome = self._split_locked(shard_id, load)
            self.last_outcome = outcome
            return outcome

    def rebalance(self) -> ReshardOutcome:
        """Recut every slice at fresh quantiles now (support checks still
        apply; the degeneracy verdict is not consulted)."""
        with self._lock:
            unsupported = self._supported()
            if unsupported is not None:
                self.skipped += 1
                outcome = ReshardOutcome(
                    performed=False, reason=unsupported, action="rebalance"
                )
                self.last_outcome = outcome
                return outcome
            load = self.router.load_report()
            outcome = self._rebalance_locked(load)
            self.last_outcome = outcome
            return outcome

    # ------------------------------------------------------------------ rebalance protocol
    def _rebalance_locked(self, load: PartitionLoad) -> ReshardOutcome:
        """The recut/migrate/repack protocol (controller lock held).

        Two exclusive (topology write lock) sections with a serving
        window between them: **migrate** stages the WAL-logged
        delete+insert pairs, swaps the recut partitioner and refreshes
        every summary, then releases the lock — traffic serves the
        (correct, just slower) overlay-heavy placement; then
        **drain+repack** folds the staged moves into the stores and swaps
        each for a fresh build over its drained population.  The drain
        must sit inside the exclusive section: compaction restructures
        storage units engine *reads* do not lock (the
        :class:`~repro.ingest.compactor.Compactor` contract), so draining
        while readers hold only the topology read side races their group
        scans.  A split can overlap serving during its long phase because
        the new store is invisible until the flip — a rebalance mutates
        stores traffic is actively reading.
        """
        router = self.router
        part = router.partitioner
        assert isinstance(part, SemanticShardPartitioner)
        tracer = get_tracer()

        with tracer.span("reshard.rebalance", shards=router.num_shards):
            with router._topology.write_locked():
                pipes: List[IngestPipeline] = []
                for pipe in router.pipelines:
                    assert isinstance(pipe, IngestPipeline)
                    pipes.append(pipe)
                live: List[FileMetadata] = [
                    f for pipe in pipes for f in pipe.materialized_files()
                ]
                if len(live) < router.num_shards:
                    return ReshardOutcome(
                        performed=False,
                        reason="corpus smaller than the shard count",
                        action="rebalance",
                        load=load.as_dict(),
                    )
                fresh = part.refit(live)
                labels = fresh.labels
                moves: List[Tuple[FileMetadata, int, int]] = []
                for file, label in zip(live, labels):
                    target = int(label)
                    source = router._owner.get(file.file_id)
                    if source is not None and source != target:
                        moves.append((file, source, target))
                if not moves:
                    return ReshardOutcome(
                        performed=False,
                        reason=FRESH_PLACEMENT,
                        action="rebalance",
                        load=load.as_dict(),
                    )
                # Migrate: WAL-logged delete+insert pairs keep every
                # shard's mutation history replayable and the union
                # population unchanged at every instant.
                with tracer.span("reshard.migrate", moves=len(moves)):
                    for file, source, target in moves:
                        pipes[source].delete(file)
                        pipes[target].insert(file)
                        router._owner[file.file_id] = target
                router.partitioner = fresh
                # Summaries must cover the new placement before traffic
                # resumes: a recipient shard missing its new files from
                # the bloom/box would be wrongly pruned — a wrong answer,
                # not a wasted probe.
                for shard_id in range(len(router.shards)):
                    self._refresh_summary_locked(shard_id)

            with tracer.span("reshard.repack", shards=router.num_shards):
                with router._topology.write_locked():
                    # Fold the staged moves in first: repacking from a
                    # half-staged population bakes the migration overlay
                    # into a grouping measurably worse than a fresh build.
                    router.compactor.drain()
                    for shard_id in range(len(router.shards)):
                        self._repack_shard_locked(shard_id)

            # Freeze the repacked placement into fresh segments — outside
            # the exclusive section (no segment fsync under the topology
            # lock), one pipeline lock at a time.
            for pipe in list(router.pipelines):
                if (
                    isinstance(pipe, IngestPipeline)
                    and pipe.storage is not None
                ):
                    pipe.checkpoint()

            # Pre-rebalance busy accounting measured the old placement.
            router.reset_busy()
            self.rebalances += 1
            self._cooldown = self.policy.cooldown_evaluations
            registry = get_registry()
            registry.counter(
                "reshard_rebalances_total",
                "Live rebalances (recut + migrate + repack) performed",
            ).inc()
            registry.counter(
                "reshard_files_moved_total",
                "Files moved between shards by live resharding",
            ).inc(float(len(moves)))
            return ReshardOutcome(
                performed=True,
                reason="rebalanced at fresh quantile cuts",
                action="rebalance",
                moved=len(moves),
                repacked=len(router.shards),
                load=load.as_dict(),
            )

    def _repack_shard_locked(self, shard_id: int) -> None:
        """Rebuild one shard's store over its live population (topology
        write lock held).

        Migration leaves stores with index groups laid out for their old
        population, which measures ~25% hotter than a fresh build of the
        identical placement; repacking rebuilds each store with the same
        config and corpus-wide index bounds.  The WAL carries over
        untouched (the move mutations are already logged) and the
        sequence watermarks continue.  Re-registering the rebuilt store
        grows the composite cache-epoch tuple's arity, which is exactly
        the global-flush-by-construction contract a topology change must
        honour.
        """
        router = self.router
        pipe = router.pipelines[shard_id]
        store = router.shards[shard_id]
        assert isinstance(pipe, IngestPipeline)
        assert isinstance(store, SmartStore)
        files = pipe.materialized_files()
        if not files:
            return
        rebuilt = SmartStore.build(
            files,
            store.config,
            router.schema,
            index_bounds=(store.index_lower, store.index_upper),
        )
        if pipe.wal is not None:
            pipe.wal.unsubscribe(pipe._forward_record)
        new_pipe = IngestPipeline(rebuilt, pipe.wal)
        new_pipe.applied_seq = pipe.applied_seq
        new_pipe._next_local_seq = pipe._next_local_seq
        storage = pipe.storage
        if storage is not None:
            # Same segment root follows the rebuilt store; the repack
            # rewrote every group's layout, so every segment is stale.
            # Publishing happens *after* the exclusive section (no
            # segment fsync under the topology lock — INVARIANTS §12).
            new_pipe.attach_storage(storage)
            storage.mark_all_dirty()
        router.shards[shard_id] = rebuilt
        router.pipelines[shard_id] = new_pipe
        router.versioning.attach(rebuilt.versioning)

    def _refresh_summary_locked(self, shard_id: int) -> None:
        """Rebuild one shard's router summary over its live population
        (topology write lock held)."""
        router = self.router
        pipe = router.pipelines[shard_id]
        assert isinstance(pipe, IngestPipeline)
        router._summaries[shard_id] = router.summarise(
            shard_id, pipe.materialized_files()
        )

    # ------------------------------------------------------------------ split protocol
    def _plan_cut(
        self,
        part: SemanticShardPartitioner,
        members: List[FileMetadata],
        *,
        by_load: bool,
    ) -> Tuple[Optional[float], Optional[str]]:
        """The weighted median of the hot slice's principal component.

        Files at or below the cut stay (the ``side="left"`` tie rule used
        everywhere else); strictly above move.  ``by_load=True`` weights
        members Zipf by ``access_count`` rank — the load distribution the
        workload generators emit — so the two halves split the *modelled
        query load* evenly (the right cut when busy time tripped the
        verdict); ``by_load=False`` weights uniformly, halving the
        *population* (the right cut when the population share tripped it —
        a load-median there would shave a small hot tail off a huge shard
        and converge glacially).  Returns ``(None, reason)`` when no cut
        can separate the slice (all members tie on the component).
        """
        m = len(members)
        if m < 2:
            return None, "hot shard holds fewer than two files"
        values = np.asarray([part.principal_value(f) for f in members])
        popularity = np.asarray(
            [float(f.attributes.get(POPULARITY_ATTRIBUTE, 0.0)) for f in members]
        )
        if by_load and popularity.max() > popularity.min():
            ranks = np.argsort(-popularity, kind="stable")
            weights = np.empty(m)
            weights[ranks] = 1.0 / np.arange(1, m + 1)
        else:
            weights = np.ones(m)
        order = np.argsort(values, kind="stable")
        prefix = np.cumsum(weights[order])
        pos = int(np.searchsorted(prefix, prefix[-1] / 2.0))
        pos = min(max(pos, 0), m - 2)
        cut = float(values[order[pos]])
        # A cut inside a tied run strands the whole run on the staying
        # side; slide to the last position holding this value so at least
        # one member sits strictly above.
        while pos < m - 1 and values[order[pos + 1]] <= cut:
            pos += 1
            cut = float(values[order[pos]])
        if pos >= m - 1:
            return None, (
                "hot slice is indivisible: every member ties on the "
                "principal component"
            )
        return cut, None

    def _split_locked(self, shard_id: int, load: PartitionLoad) -> ReshardOutcome:
        """The four-phase split protocol (controller lock held)."""
        router = self.router
        part = router.partitioner
        assert isinstance(part, SemanticShardPartitioner)
        source_store = router.shards[shard_id]
        source_pipe = router.pipelines[shard_id]
        assert isinstance(source_store, SmartStore)
        assert isinstance(source_pipe, IngestPipeline)
        tracer = get_tracer()

        with tracer.span("reshard.split", shard=shard_id):
            backlog = _Backlog()
            source_pipe.subscribe_mutations(backlog.append)
            try:
                # -------- snapshot (source keeps serving after this block)
                with source_pipe.lock:
                    members = source_pipe.materialized_files()
                    watermark = source_pipe.applied_seq

                # Population imbalance wants a count-median cut; busy-time
                # imbalance wants a load-median cut (see _plan_cut).
                population_hot = (
                    bool(load.populations)
                    and load.population_share >= load.population_cap
                )
                cut, no_cut = self._plan_cut(
                    part, members, by_load=not population_hot
                )
                if cut is None:
                    self.skipped += 1
                    return ReshardOutcome(
                        performed=False,
                        reason=no_cut or "no viable cut",
                        action="split",
                        source_shard=shard_id,
                        load=load.as_dict(),
                    )
                moving = [
                    f for f in members if part.principal_value(f) > cut
                ]
                moving_ids: Set[int] = {f.file_id for f in moving}

                # -------- backfill: build the new deployment, then catch up
                catch_up = 0
                with tracer.span(
                    "reshard.backfill", shard=shard_id, moving=len(moving)
                ):
                    new_store = SmartStore.build(
                        moving,
                        source_store.config,
                        router.schema,
                        index_bounds=(
                            source_store.index_lower,
                            source_store.index_upper,
                        ),
                    )
                    new_wal: Optional[WriteAheadLog] = None
                    if source_pipe.wal is not None:
                        new_wal = WriteAheadLog(
                            source_pipe.wal.path.parent
                            / f"shard-{len(router.shards)}.wal",
                            fsync_every=source_pipe.wal.fsync_every,
                        )
                    new_pipe = IngestPipeline(new_store, new_wal)
                    source_storage = source_pipe.storage
                    if source_storage is not None:
                        # The split-off shard gets its own segment root
                        # beside the source's (shard-<i> siblings under
                        # one storage root), born all-dirty so its first
                        # publish freezes the whole moved population.
                        new_root = (
                            Path(source_storage.root).parent
                            / f"shard-{len(router.shards)}"
                        )
                        new_pipe.attach_storage(
                            SegmentStore(
                                new_root,
                                resident_segments=source_storage.resident_budget,
                            )
                        )
                    # Same numbering adjustment a replica resync performs:
                    # the snapshot covers everything through the watermark,
                    # so apply_replicated()'s idempotence filter starts
                    # there and the new shard continues the source's
                    # sequence numbering.
                    new_pipe.applied_seq = watermark
                    new_pipe._next_local_seq = watermark + 1
                    # Catch up concurrent traffic while the source still
                    # serves: drain-until-quiet, leaving only the final
                    # (write-locked) drain for the flip.
                    while True:
                        records = backlog.drain()
                        if not records:
                            break
                        catch_up += self._apply_backlog(
                            new_pipe, records, moving_ids
                        )

                # -------- flip: exclusive topology transition
                with tracer.span("reshard.flip", shard=shard_id):
                    with router._topology.write_locked():
                        catch_up += self._apply_backlog(
                            new_pipe, backlog.drain(), moving_ids
                        )
                        source_pipe.unsubscribe_mutations(backlog.append)
                        new_id = part.split_slice(shard_id, cut)
                        # Covers the snapshot plus the catch-up backlog.
                        summary = router.summarise(
                            new_id, new_pipe.materialized_files()
                        )
                        router._install_shard_locked(
                            new_store, new_pipe, summary, sorted(moving_ids)
                        )
                        # -------- handoff: disjoint populations before
                        # traffic resumes.  Deletes of files the traffic
                        # already removed would be rejected-unknown noise,
                        # so only files still materialised on the source go.
                        still_there = {
                            f.file_id for f in source_pipe.materialized_files()
                        }
                        handoff = [
                            f for f in members if f.file_id in moving_ids
                            and f.file_id in still_there
                        ]
                        for file in handoff:
                            source_pipe.delete(file)

                # Drain+repack emits segments: both halves of the split
                # publish their new placement — outside the flip's
                # exclusive section (no segment fsync under the topology
                # lock), serialised on each pipeline's own lock.
                if source_pipe.storage is not None:
                    source_pipe.checkpoint()
                if new_pipe.storage is not None:
                    new_pipe.checkpoint()

                # Pre-split busy accounting measured the *old* placement;
                # left in place it would keep nominating the shard that was
                # just split.  Start the next evaluation window fresh.
                router.reset_busy()
                self.splits += 1
                self._cooldown = self.policy.cooldown_evaluations
                registry = get_registry()
                registry.counter(
                    "reshard_splits_total",
                    "Live shard splits performed by the reshard controller",
                ).inc()
                registry.counter(
                    "reshard_files_moved_total",
                    "Files moved to a new shard by live splits",
                ).inc(float(len(moving)))
                return ReshardOutcome(
                    performed=True,
                    reason="split hot shard",
                    action="split",
                    source_shard=shard_id,
                    new_shard=new_id,
                    moved=len(moving),
                    catch_up=catch_up,
                    handoff_deletes=len(handoff),
                    load=load.as_dict(),
                )
            finally:
                # Idempotent: already removed on the success path.
                source_pipe.unsubscribe_mutations(backlog.append)

    @staticmethod
    def _apply_backlog(
        new_pipe: IngestPipeline,
        records: List[WALRecord],
        moving_ids: Set[int],
    ) -> int:
        """Catch the new shard up on records touching moving files.

        Records for files outside the moving set (including files inserted
        *during* the backfill, which the owner map keeps on the source
        shard) are dropped; duplicates are skipped by the applied-seq
        watermark inside ``apply_replicated``.
        """
        applied = 0
        for record in records:
            if record.file is None or record.file.file_id not in moving_ids:
                continue
            if new_pipe.apply_replicated(record) is not None:
                applied += 1
        return applied

    # ------------------------------------------------------------------ background loop
    def start(self, interval_s: float = 1.0) -> None:
        """Run :meth:`run_once` every ``interval_s`` on a daemon thread."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(interval_s):
                self.run_once()

        self._thread = threading.Thread(
            target=loop, name="repro-reshard", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    # ------------------------------------------------------------------ introspection
    def stats(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {
            "evaluations": self.evaluations,
            "splits": self.splits,
            "rebalances": self.rebalances,
            "skipped": self.skipped,
            "running": self._thread is not None and self._thread.is_alive(),
        }
        if self.last_outcome is not None:
            d["last_outcome"] = self.last_outcome.as_dict()
        return d

    def __repr__(self) -> str:
        return (
            f"ReshardController(shards={self.router.num_shards}, "
            f"splits={self.splits}, rebalances={self.rebalances}, "
            f"evaluations={self.evaluations})"
        )
