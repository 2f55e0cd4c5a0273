"""Opening deployments: :func:`build_router` for the sharded topologies,
:func:`build_group` for a replica group (alone or as one shard).

Every store, shard and replica is opened by
:func:`repro.ingest.pipeline.open_member` (restore or build, replay its
log); what a topology keeps beside its members is then derived from what
they hold — a router's owner map and summaries from each shard's
materialised population, a group's primary and history from its members'
logs (:func:`elect`) — so every topology restarts with every acknowledged
write (docs/INVARIANTS.md §20).
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.smartstore import SmartStoreConfig
from repro.ingest.compactor import CompactionPolicy
from repro.ingest.pipeline import IngestPipeline, open_member
from repro.ingest.wal import WALRecord, WriteAheadLog
from repro.metadata.attributes import AttributeSchema, DEFAULT_SCHEMA
from repro.metadata.file_metadata import FileMetadata
from repro.replication.group import Replica, ReplicaGroup, ReplicationConfig
from repro.shard.partitioner import (
    ShardPartitioner,
    corpus_index_bounds,
    make_partitioner,
)
from repro.shard.router import ShardRouter
from repro.storage import StorageConfig, has_snapshot, snapshot_seq

__all__ = ["build_group", "build_router", "elect", "split_corpus"]

PathLike = Union[str, Path]


def split_corpus(
    files: Sequence[FileMetadata],
    num_shards: int,
    config: SmartStoreConfig,
    schema: AttributeSchema,
    *,
    partitioner: str = "semantic",
    balance_fallback: bool = True,
    units_per_shard: Optional[int] = None,
) -> Tuple[
    ShardPartitioner,
    List[List[FileMetadata]],
    Tuple[np.ndarray, np.ndarray],
    SmartStoreConfig,
]:
    """Partition a corpus: ``(partitioner, per-shard files, corpus-wide
    index bounds, per-shard config)``.

    ``config.num_units`` is interpreted as the *total* storage-unit budget:
    each shard receives ``num_units // shards`` units (at least one) unless
    ``units_per_shard`` overrides it, so a 4-shard deployment is compared
    against a single store of the same total size.
    """
    files = list(files)
    if not files:
        raise ValueError("cannot shard an empty corpus")
    part = make_partitioner(
        files,
        num_shards,
        kind=partitioner,
        schema=schema,
        rank=config.lsi_rank,
        balance_fallback=balance_fallback,
    )
    effective = getattr(part, "num_shards", num_shards)
    shard_files: List[List[FileMetadata]] = [[] for _ in range(effective)]
    for file, label in zip(files, part.assign(files)):
        shard_files[int(label)].append(file)
    for sid, members in enumerate(shard_files):
        if not members:
            raise ValueError(
                f"shard {sid} received no files ({len(files)} files over "
                f"{effective} shards); lower num_shards or use the semantic "
                f"partitioner, which balances shard sizes"
            )
    units = (
        units_per_shard
        if units_per_shard is not None
        else max(1, config.num_units // effective)
    )
    return (
        part,
        shard_files,
        corpus_index_bounds(files, schema),
        replace(config, num_units=units),
    )


def _shards_on_disk(
    root: Optional[Path], wal_dir: Optional[PathLike]
) -> Tuple[Set[int], Set[int]]:
    """``(published, present)``: ids of the ``shard-<i>`` roots under
    ``root`` where the shard (or a replica) published a snapshot, and of
    every ``shard-<i>`` root or ``shard-<i>.wal`` log left on disk."""
    roots = list(root.glob("shard-*")) if root is not None else []
    logs = list(Path(wal_dir).glob("shard-*.wal")) if wal_dir is not None else []
    ids = {p: int(p.stem[6:]) for p in roots + logs if p.stem[6:].isdigit()}
    published = {
        ids[p] for p in roots if p in ids and any(map(has_snapshot, (p, *p.glob("r[0-9]*"))))
    }
    return published, set(ids.values())


def build_router(
    files: Sequence[FileMetadata],
    num_shards: int,
    config: Optional[SmartStoreConfig] = None,
    schema: AttributeSchema = DEFAULT_SCHEMA,
    *,
    partitioner: str = "semantic",
    balance_fallback: bool = True,
    units_per_shard: Optional[int] = None,
    wal_dir: Optional[PathLike] = None,
    fsync_every: int = 1,
    policy: Optional[CompactionPolicy] = None,
    replication: Optional[ReplicationConfig] = None,
    storage: Optional[StorageConfig] = None,
) -> ShardRouter:
    """Open ``num_shards`` SmartStore deployments over a corpus + a router.

    ``partitioner`` picks the corpus split (``"semantic"`` / ``"hash"``,
    see :mod:`repro.shard.partitioner`); the unit budget follows
    :func:`split_corpus`.  ``wal_dir`` gives every shard its own log
    (``shard-<i>.wal``), ``policy`` its compaction policy, ``storage`` its
    own segment root (``<root>/shard-<i>``), and ``replication`` makes
    every shard a :func:`build_group` over those.

    One rule per shard, first start or restart: a shard whose root holds
    a published snapshot is restored, any other is built from its
    :func:`split_corpus` slice of ``files`` (without ``files``, a
    ``ValueError`` names the shards that have not published); then its
    log is replayed.  The router derives owners and summaries from the
    shards' replayed populations, and when any shard was restored the
    partitioner placing new records is refitted over them too.
    """
    config = config if config is not None else SmartStoreConfig()
    files = list(files)
    root = Path(storage.root) if storage is not None and storage.root else None
    published, present = _shards_on_disk(root, wal_dir)
    top = max(published) + 1 if published else 0
    part: Optional[ShardPartitioner] = None
    slices: List[List[FileMetadata]] = []
    bounds: Optional[Tuple[np.ndarray, np.ndarray]] = None
    shard_config = config
    unpublished = set(range(max(top, num_shards))) - published
    if unpublished and (files or not published):
        part, slices, bounds, shard_config = split_corpus(
            files,
            num_shards,
            config,
            schema,
            partitioner=partitioner,
            balance_fallback=balance_fallback,
            units_per_shard=units_per_shard,
        )
    count = max(top, len(slices) or num_shards)
    # A shard past the slices of ``files`` was split off a live shard whose
    # log deletes what moved: without its snapshot those files are gone.
    lost = sorted(
        s for s in set(range(count)) | present if s >= len(slices) and s not in published
    )
    if lost:
        why = (
            "they were split off a live shard (docs/INVARIANTS.md §11)"
            if files
            else "no files were given to build them from"
        )
        raise ValueError(f"shards {lost} have published no snapshot under {root}; {why}")
    roots = [root / f"shard-{sid}" if root is not None else None for sid in range(count)]
    logs = [Path(wal_dir) / f"shard-{sid}.wal" if wal_dir else None for sid in range(count)]
    if wal_dir is not None:
        Path(wal_dir).mkdir(parents=True, exist_ok=True)
    pipelines: List[object]
    if replication is not None:
        pipelines = [
            build_group(
                slices[sid] if sid < len(slices) else [],
                shard_config,
                schema,
                replication=replication,
                index_bounds=bounds,
                wal_path=logs[sid],
                fsync_every=fsync_every,
                policy=policy,
                storage=StorageConfig(root=str(roots[sid])) if root is not None else None,
            )
            for sid in range(count)
        ]
        shards = list(pipelines)
    else:
        pipelines = [
            open_member(
                roots[sid],
                logs[sid],
                None if sid in published else slices[sid],
                shard_config,
                schema,
                index_bounds=bounds,
                fsync_every=fsync_every,
                policy=policy,
            )[0]
            for sid in range(count)
        ]
        shards = [pipeline.store for pipeline in pipelines]  # type: ignore[attr-defined]
    if published:
        # New records are placed by cuts over what the shards hold now.
        part = make_partitioner(
            [f for p in pipelines for f in p.materialized_files()],  # type: ignore[attr-defined]
            count,
            kind=partitioner,
            schema=schema,
            rank=config.lsi_rank,
            balance_fallback=balance_fallback,
        )
    return ShardRouter(shards, part, pipelines=pipelines)  # type: ignore[arg-type]


def elect(
    wal_paths: Sequence[Optional[PathLike]], roots: Sequence[Optional[PathLike]]
) -> Tuple[int, bool]:
    """Pick a replica group's primary from its members' logs and bring
    every log to the group's history: ``(primary id, agreed)``.

    A member *reaches* the highest sequence number its log holds or its
    snapshot reflects; the one that reaches furthest is the primary (ties
    to the lower id).  The history is the logs merged by sequence number,
    and where two hold the same number the member that reaches further
    wins (ties again to the lower id): a record a crashed primary logged
    but never shipped loses to what its successor acknowledged under that
    number, and a log a resync or failover left with gaps is filled from
    the others.  Unless ``agreed`` — every member's snapshot and log the
    same — each log is rewritten to the history above its snapshot.
    """
    logs = [
        [r for r in WriteAheadLog.scan(path) if r.file is not None] if path else []
        for path in wal_paths
    ]
    snaps = [snapshot_seq(root) if root is not None else 0 for root in roots]
    reach = [max(snap, log[-1].seq if log else 0) for snap, log in zip(snaps, logs)]
    order = sorted(range(len(logs)), key=lambda j: (-reach[j], j))
    agreed = len(set(snaps)) == 1 and all(log == logs[0] for log in logs)
    if not agreed:
        merged: Dict[int, WALRecord] = {}
        for j in order:
            for record in logs[j]:
                merged.setdefault(record.seq, record)
        history = [merged[seq] for seq in sorted(merged)]
        for path, snap in zip(wal_paths, snaps):
            if path is not None:
                WriteAheadLog.rewrite(path, [r for r in history if r.seq > snap])
    return order[0], agreed


def build_group(
    files: Sequence[FileMetadata],
    config: Optional[SmartStoreConfig] = None,
    schema: AttributeSchema = DEFAULT_SCHEMA,
    *,
    replication: Optional[ReplicationConfig] = None,
    index_bounds: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    wal_path: Optional[PathLike] = None,
    fsync_every: int = 1,
    policy: Optional[CompactionPolicy] = None,
    storage: Optional[StorageConfig] = None,
) -> ReplicaGroup:
    """Open ``replication.replicas + 1`` deployments of one population as a group.

    Each member is opened by :func:`open_member` over its own segment root
    (``<root>``, then ``<root>/r<i>``) and its own log (``wal_path``, then
    ``<name>.r<i>``, where a replica archives what it applies, so a
    promoted primary keeps writing WAL-first on its own disk): restored
    from a published snapshot, else built from ``files`` with the same
    config and ``index_bounds``, so any member answers any query with the
    same payload.  :func:`elect` picks the primary and brings every log to
    the group's history before it is replayed.  A member with neither a
    snapshot nor ``files`` is built from an opened member's population;
    members that still differ are repaired by anti-entropy.
    """
    config = config if config is not None else SmartStoreConfig()
    replication = replication if replication is not None else ReplicationConfig()
    files = list(files)
    count = replication.replicas + 1
    root = Path(storage.root) if storage is not None and storage.root else None
    roots = [None if root is None else root / f"r{j}" if j else root for j in range(count)]
    paths = [
        None if wal_path is None else Path(f"{wal_path}.r{j}" if j else wal_path)
        for j in range(count)
    ]
    primary_id, agreed = elect(paths, roots)
    pipelines: List[Optional[IngestPipeline]] = [
        open_member(
            member_root,
            path,
            files or None,
            config,
            schema,
            index_bounds=index_bounds,
            fsync_every=fsync_every,
            policy=policy,
        )[0]
        if files or (member_root is not None and has_snapshot(member_root))
        else None
        for member_root, path in zip(roots, paths)
    ]
    source = next((p for p in pipelines if p is not None), None)
    if source is None:
        raise ValueError("a replica group needs files or a member snapshot to open")
    for j, pipeline in enumerate(pipelines):
        if pipeline is None:
            pipelines[j] = open_member(
                roots[j],
                paths[j],
                sorted(source.materialized_files(), key=lambda f: f.file_id),
                source.store.config,
                schema,
                index_bounds=(source.store.index_lower, source.store.index_upper),
                fsync_every=fsync_every,
                policy=policy,
                watermark=source.applied_seq,
            )[0]
    group = ReplicaGroup(
        [
            Replica(j, p.store, p, breaker=replication.breaker)  # type: ignore[union-attr]
            for j, p in enumerate(pipelines)
        ],
        mode=replication.mode,
        max_lag=replication.max_lag,
        primary_id=primary_id,
    )
    if not agreed:
        group.anti_entropy()
    return group
