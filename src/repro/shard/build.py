"""Standing a :class:`~repro.shard.router.ShardRouter` up from a corpus.

:func:`build_router` is what ``connect`` calls for the sharded topologies;
the process-per-shard builder
(:func:`repro.server.worker.build_process_router`) shares
:func:`split_corpus` with it.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.ingest.compactor import CompactionPolicy
from repro.ingest.pipeline import IngestPipeline, recover_from_storage
from repro.ingest.wal import WriteAheadLog
from repro.metadata.attributes import AttributeSchema, DEFAULT_SCHEMA
from repro.metadata.file_metadata import FileMetadata
from repro.replication.group import ReplicationConfig, build_group
from repro.shard.partitioner import (
    ShardPartitioner,
    corpus_index_bounds,
    make_partitioner,
)
from repro.shard.router import ShardRouter
from repro.storage import SegmentStore, StorageConfig, has_snapshot

__all__ = ["build_router", "split_corpus"]


def split_corpus(
    files: Sequence[FileMetadata],
    num_shards: int,
    config: SmartStoreConfig,
    schema: AttributeSchema,
    *,
    partitioner: str = "semantic",
    strategy: str = "slice",
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
        seed=config.seed,
        strategy=strategy,
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


def _shard_wal_path(
    wal_dir: Optional[Union[str, Path]], shard_id: int
) -> Optional[Path]:
    if wal_dir is None:
        return None
    base = Path(wal_dir)
    base.mkdir(parents=True, exist_ok=True)
    return base / f"shard-{shard_id}.wal"


def build_router(
    files: Sequence[FileMetadata],
    num_shards: int,
    config: Optional[SmartStoreConfig] = None,
    schema: AttributeSchema = DEFAULT_SCHEMA,
    *,
    partitioner: str = "semantic",
    strategy: str = "slice",
    balance_fallback: bool = True,
    units_per_shard: Optional[int] = None,
    wal_dir: Optional[Union[str, Path]] = None,
    fsync_every: int = 1,
    policy: Optional[CompactionPolicy] = None,
    replication: Optional[ReplicationConfig] = None,
    storage: Optional[StorageConfig] = None,
) -> ShardRouter:
    """Split a corpus into ``num_shards`` SmartStore deployments + a router.

    ``partitioner`` picks the corpus split (``"semantic"`` / ``"hash"``);
    ``strategy`` refines the semantic split (``"slice"`` / ``"kmeans"``,
    see :class:`~repro.shard.partitioner.SemanticShardPartitioner`); the
    unit budget follows :func:`split_corpus`.

    ``wal_dir`` makes every shard's ingest pipeline durable with its own
    write-ahead log (``shard-<i>.wal``); omitted, shards stage in memory
    only.  ``policy`` is the per-shard
    :class:`~repro.ingest.compactor.CompactionPolicy`.

    ``replication`` turns every shard into a
    :class:`~repro.replication.group.ReplicaGroup` of
    ``replication.replicas + 1`` identically-built deployments: writes go
    WAL-first to each group's primary (``shard-<i>.wal``) and ship to its
    replicas, each of which archives the shipped segments in its own
    ``shard-<i>.wal.r<j>`` — so a promoted primary keeps writing WAL-first
    on its own "disk".

    ``storage`` (a :class:`~repro.storage.StorageConfig` with a root)
    gives every shard its own segment-store root (``<root>/shard-<i>``,
    and ``<root>/shard-<i>/r<j>`` per replica when replicated): shard
    checkpoints publish mmap-able snapshots there, and when the roots
    already hold published snapshots the whole router cold-starts from
    them — per-shard manifest + mmap'd segments + WAL tail — instead of
    re-partitioning and rebuilding ``files``.
    """
    config = config if config is not None else SmartStoreConfig()
    if storage is not None and not storage.root:
        storage = None
    restored = None
    if storage is not None:
        restored = _restore_shards(
            storage, config, schema, wal_dir, fsync_every, policy, replication
        )
    if restored is not None:
        shards, pipelines = restored
        # Re-fit over the restored union, so new inserts keep routing
        # semantically.
        part = make_partitioner(
            [f for shard in shards for f in shard.files],  # type: ignore[attr-defined]
            len(shards),
            kind=partitioner,
            schema=schema,
            rank=config.lsi_rank,
            seed=config.seed,
            strategy=strategy,
            balance_fallback=balance_fallback,
        )
        return ShardRouter(shards, part, pipelines=pipelines)  # type: ignore[arg-type]
    part, shard_files, bounds, shard_config = split_corpus(
        files,
        num_shards,
        config,
        schema,
        partitioner=partitioner,
        strategy=strategy,
        balance_fallback=balance_fallback,
        units_per_shard=units_per_shard,
    )

    def shard_storage(sid: int) -> Optional[StorageConfig]:
        if storage is None:
            return None
        return replace(storage, root=str(Path(storage.root) / f"shard-{sid}"))  # type: ignore[arg-type]

    if replication is not None:
        groups = [
            build_group(
                members,
                shard_config,
                schema,
                replication=replication,
                index_bounds=bounds,
                wal_path=_shard_wal_path(wal_dir, sid),
                fsync_every=fsync_every,
                policy=policy,
                storage=shard_storage(sid),
            )
            for sid, members in enumerate(shard_files)
        ]
        return ShardRouter(groups, part, pipelines=groups)

    stores = [
        SmartStore.build(members, shard_config, schema, index_bounds=bounds)
        for members in shard_files
    ]
    pipelines = []
    for sid, store in enumerate(stores):
        wal_path = _shard_wal_path(wal_dir, sid)
        wal = (
            WriteAheadLog(wal_path, fsync_every=fsync_every)
            if wal_path is not None
            else None
        )
        pipeline = IngestPipeline(store, wal, policy=policy)
        scfg = shard_storage(sid)
        if scfg is not None:
            pipeline.attach_storage(
                SegmentStore(
                    scfg.root,  # type: ignore[arg-type]  # derived from a set root
                    resident_segments=scfg.resident_segments,
                )
            )
        pipelines.append(pipeline)
    return ShardRouter(stores, part, pipelines=pipelines)


def _restore_shards(
    storage: StorageConfig,
    config: SmartStoreConfig,
    schema: AttributeSchema,
    wal_dir: Optional[Union[str, Path]],
    fsync_every: int,
    policy: Optional[CompactionPolicy],
    replication: Optional[ReplicationConfig],
) -> Optional[Tuple[List[object], List[object]]]:
    """Cold-start ``(shards, pipelines)`` from per-shard snapshot roots, or
    ``None``.

    Requires a contiguous ``shard-0 .. shard-N`` set of roots that all
    hold published manifests (a partially-checkpointed root falls back to
    the fresh build).  Each shard restores O(its WAL tail) — manifest +
    mmap'd segments + tail replay.  (Router summaries decode each shard's
    population either way.)
    """
    root = Path(storage.root)  # type: ignore[arg-type]  # caller checked root
    roots: List[Tuple[int, Path]] = []
    for path in root.glob("shard-*"):
        if not path.is_dir():
            continue
        try:
            sid = int(path.name.split("-", 1)[1])
        except ValueError:
            continue
        roots.append((sid, path))
    if not roots:
        return None
    roots.sort()
    if [sid for sid, _ in roots] != list(range(len(roots))):
        return None
    if not all(has_snapshot(path) for _, path in roots):
        return None
    shards: List[object] = []
    pipelines: List[object] = []
    for sid, shard_root in roots:
        wal_path = _shard_wal_path(wal_dir, sid)
        if replication is not None:
            group = build_group(
                [],
                config,
                schema,
                replication=replication,
                wal_path=wal_path,
                fsync_every=fsync_every,
                policy=policy,
                storage=replace(storage, root=str(shard_root)),
            )
            shards.append(group)
            pipelines.append(group)
        else:
            pipeline, _report = recover_from_storage(
                shard_root,
                wal_path=wal_path,
                fsync_every=fsync_every,
                policy=policy,
                resident_segments=storage.resident_segments,
            )
            shards.append(pipeline.store)
            pipelines.append(pipeline)
    return shards, pipelines
