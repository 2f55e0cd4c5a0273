"""The SmartStore facade: the public API of the reproduction.

A :class:`SmartStore` instance owns the whole deployment: the cluster of
storage units, the semantic R-tree(s), the off-line routing replicas, the
version chains and the query engine.  Typical use::

    from repro import PointQuery, RangeQuery, SmartStore, SmartStoreConfig, TopKQuery
    from repro.traces import msn_trace

    trace = msn_trace()
    store = SmartStore.build(trace.file_metadata(), SmartStoreConfig(num_units=60))

    result = store.execute(RangeQuery(("mtime", "read_bytes"), (0.0, 1e6), (3600.0, 5e7)))
    top = store.execute(TopKQuery(("size", "mtime"), (300e6, 7200.0), 10))
    hit = store.execute(PointQuery("file0000042.dat"))

Every query returns a :class:`~repro.core.queries.QueryResult` carrying the
matching metadata, the per-query event counters and the simulated latency.
(The unified client front door in :mod:`repro.api` is layered on top.)
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.cluster.metrics import Metrics
from repro.cluster.simulator import ClusterSimulator
from repro.core.grouping import SemanticPartition, optimal_threshold, partition_files
from repro.core.mapping import map_index_units, multi_map_root
from repro.core.offline import OfflineRouter
from repro.core.queries import QueryEngine, QueryResult, ReadContext
from repro.core.semantic_rtree import SemanticRTree, StorageUnitDescriptor
from repro.core.versioning import VersionedChange, VersioningManager
from repro.lsi.model import LSIModel
from repro.metadata.attributes import AttributeSchema, DEFAULT_SCHEMA
from repro.metadata.file_metadata import FileMetadata
from repro.metadata.matrix import attribute_matrix
from repro.workloads.types import Query

__all__ = [
    "SmartStoreConfig",
    "SmartStore",
    "QueryResult",
    "StageOutcome",
    "UNKNOWN_GROUP",
    "config_to_dict",
    "config_from_dict",
]

#: Sentinel group id returned by :meth:`SmartStore.delete_file` /
#: :meth:`SmartStore.modify_file` when the target file is unknown — neither
#: applied to any storage unit nor pending in a version chain.  The mutation
#: is *not* recorded in that case, so reconfiguration and compaction never
#: see (and never mis-apply) deletions of files that do not exist.
UNKNOWN_GROUP = -1


@dataclass(frozen=True)
class StageOutcome:
    """Result of staging one mutation (insert / delete / modify).

    ``known`` is False only for deletions/modifications of files the
    deployment has never seen (``group_id`` is then :data:`UNKNOWN_GROUP`
    and nothing was recorded).  ``metrics`` carries the staging cost —
    routing probes, version-chain append, lazy-update multicasts — already
    merged into the cluster-wide accounting.
    """

    kind: str
    file: FileMetadata
    group_id: int
    unit_id: int
    metrics: Metrics
    known: bool = True


@dataclass(frozen=True)
class SmartStoreConfig:
    """Configuration of a SmartStore deployment.

    The defaults reproduce the prototype parameters of §5.1: 60 storage
    units, 1024-bit / 7-hash Bloom filters, a 10 % automatic-configuration
    threshold, a 5 % lazy-update threshold, off-line pre-processing and
    versioning enabled.
    """

    num_units: int = 60
    lsi_rank: int = 5
    max_fanout: int = 8
    thresholds: Optional[Tuple[float, ...]] = None
    bloom_bits: int = 1024
    bloom_hashes: int = 7
    mode: str = "offline"
    versioning_enabled: bool = True
    version_ratio: int = 1
    lazy_update_threshold: float = 0.05
    autoconfig_threshold: float = 0.10
    admission_threshold: float = 0.5
    search_breadth: int = 4
    cost_model: CostModel = DEFAULT_COST_MODEL
    seed: Optional[int] = 42

    def __post_init__(self) -> None:
        if self.num_units < 1:
            raise ValueError("num_units must be >= 1")
        if self.lsi_rank < 1:
            raise ValueError("lsi_rank must be >= 1")
        if self.max_fanout < 2:
            raise ValueError("max_fanout must be >= 2")
        if self.mode not in ("offline", "online"):
            raise ValueError("mode must be 'offline' or 'online'")
        if self.version_ratio < 1:
            raise ValueError("version_ratio must be >= 1")
        if not 0.0 < self.lazy_update_threshold <= 1.0:
            raise ValueError("lazy_update_threshold must be in (0, 1]")
        if self.search_breadth < 1:
            raise ValueError("search_breadth must be >= 1")


#: The JSON-safe configuration fields.  Cost-model constants are
#: intentionally excluded (they default deterministically) and explicit
#: threshold tuples travel separately; everything a rebuild needs to
#: reproduce the same deployment from the same population is kept.
_JSON_CONFIG_FIELDS = (
    "num_units",
    "lsi_rank",
    "max_fanout",
    "bloom_bits",
    "bloom_hashes",
    "mode",
    "versioning_enabled",
    "version_ratio",
    "lazy_update_threshold",
    "autoconfig_threshold",
    "admission_threshold",
    "search_breadth",
    "seed",
)


def config_to_dict(config: SmartStoreConfig) -> Dict[str, object]:
    """Serialise the JSON-safe fields of a build configuration."""
    payload: Dict[str, object] = {
        name: getattr(config, name) for name in _JSON_CONFIG_FIELDS
    }
    if config.thresholds is not None:
        payload["thresholds"] = list(config.thresholds)
    return payload


def config_from_dict(payload: Dict[str, object]) -> SmartStoreConfig:
    """Rebuild a :class:`SmartStoreConfig` from :func:`config_to_dict` output.

    Unknown keys are ignored so older artefacts survive config growth.
    """
    kwargs: Dict[str, object] = {
        key: payload[key] for key in _JSON_CONFIG_FIELDS if key in payload
    }
    if payload.get("thresholds") is not None:
        kwargs["thresholds"] = tuple(payload["thresholds"])  # type: ignore[arg-type]
    return SmartStoreConfig(**kwargs)  # type: ignore[arg-type]


class SmartStore:
    """A built SmartStore deployment.

    Use :meth:`build` to construct one from a file population; direct
    instantiation is reserved for the builder.
    """

    def __init__(
        self,
        *,
        config: SmartStoreConfig,
        schema: AttributeSchema,
        cluster: ClusterSimulator,
        tree: SemanticRTree,
        partition: SemanticPartition,
        lsi: LSIModel,
        index_lower: np.ndarray,
        index_upper: np.ndarray,
        versioning: VersioningManager,
        offline_router: OfflineRouter,
        engine: QueryEngine,
    ) -> None:
        self.config = config
        self.schema = schema
        self.cluster = cluster
        self.tree = tree
        self.partition = partition
        self.lsi = lsi
        self.index_lower = index_lower
        self.index_upper = index_upper
        self.versioning = versioning
        self.offline_router = offline_router
        self.engine = engine
        self._pending_insertions = 0
        self._pending_deletions = 0
        # Optional staging overlay (attached by the ingest pipeline); when
        # present, every staged mutation is mirrored into it so queries get
        # id-indexed read-your-writes including deletion masking.
        self.overlay = None
        # The applied population, id-indexed: the unit each file's metadata
        # lives on (the record itself is that unit's row), so deletion and
        # duplicate checks are O(1).  Its order is the order `files` reports;
        # apply_changes() maintains it.
        self._file_locations: Dict[int, int] = {}
        for unit_id, server in cluster.servers.items():
            self._file_locations.update(dict.fromkeys(server.file_ids().tolist(), unit_id))
        # Optional change listener (set by the tiered segment store);
        # called with the unit ids and the file ids each apply_changes
        # batch touched, so an incremental snapshot publish rewrites only
        # changed groups and re-encodes only changed rows.
        self.on_units_touched = None
        self._metrics_lock = threading.Lock()

    @property
    def files(self) -> List[FileMetadata]:
        """The applied (non-pending) file population, in insertion order
        (unit by unit on a restored store).  Decodes every row still in a
        segment: for admin-paced callers (resync, reshard, drills) only."""
        records = {f.file_id: f for server in self.cluster for f in server.rows.records()}
        # A stats reader may race a compaction: report what both maps hold.
        return [records[fid] for fid in list(self._file_locations) if fid in records]

    def file_count(self) -> int:
        """Size of the applied population (no record is read)."""
        return len(self._file_locations)

    def file_by_id(self, file_id: int) -> Optional[FileMetadata]:
        """Look an applied metadata record up in its owning unit's rows."""
        unit_id = self._file_locations.get(file_id)
        if unit_id is None:
            return None
        server = self.cluster.server(unit_id)
        rows = np.flatnonzero(server.file_ids() == file_id)
        return server.record_at(int(rows[0])) if rows.size else None

    def attach_overlay(self, overlay) -> None:
        """Attach a staging overlay (read-your-writes for the ingest path).

        The overlay is mirrored by :meth:`stage_mutation` and consulted by
        the query engine; the ingest pipeline owns its lifecycle.
        """
        self.overlay = overlay
        self.engine.overlay = overlay

    def detach_overlay(self) -> None:
        self.overlay = None
        self.engine.overlay = None

    # ------------------------------------------------------------------ construction
    @classmethod
    def build(
        cls,
        files: Sequence[FileMetadata],
        config: Optional[SmartStoreConfig] = None,
        schema: AttributeSchema = DEFAULT_SCHEMA,
        *,
        index_bounds: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> "SmartStore":
        """Build a deployment from a file population.

        The pipeline (§3.1): LSI over the file attribute matrix → balanced
        partitioning of files onto storage units → per-unit semantic vectors
        → iterative semantic grouping into the semantic R-tree → Bloom
        filters per node → index-unit mapping and root multi-mapping →
        off-line replicas and version chains.

        ``index_bounds`` overrides the deployment-wide ``(lower, upper)``
        index-space normalisation bounds that are otherwise derived from
        the build-time population.  A sharded deployment injects the
        *corpus-wide* bounds here so that top-k distances and min-max
        normalisation agree exactly across sibling shards and with an
        unsharded baseline over the union population — the precondition for
        fingerprint-identical scatter-gather merges.
        """
        config = config if config is not None else SmartStoreConfig()
        files = list(files)
        if not files:
            raise ValueError("cannot build SmartStore over an empty file population")

        rng = np.random.default_rng(config.seed)
        raw = attribute_matrix(files, schema)
        partition = partition_files(
            files, config.num_units, schema, rank=config.lsi_rank, seed=config.seed, raw=raw
        )
        num_units = partition.n_groups

        # The deployment's index space is the log-transformed attribute
        # space; its bounds over the build-time population are what every
        # server normalises against.
        index_lower, index_upper = partition.norm_lower, partition.norm_upper
        if index_bounds is not None:
            index_lower = np.asarray(index_bounds[0], dtype=np.float64).copy()
            index_upper = np.asarray(index_bounds[1], dtype=np.float64).copy()

        cluster = ClusterSimulator(
            num_units,
            schema,
            cost_model=config.cost_model,
            seed=config.seed,
            bloom_bits=config.bloom_bits,
            bloom_hashes=config.bloom_hashes,
        )
        cluster.install_normalization(index_lower, index_upper)
        labels = partition.labels
        for unit_id in range(num_units):
            members = np.flatnonzero(labels == unit_id)
            # Each unit is handed its rows of the matrix the partitioner
            # vectorised: no second vector() pass over the corpus.
            cluster.server(unit_id).add_files(
                [files[i] for i in members.tolist()], raw[members]
            )

        descriptors = cls._unit_descriptors(cluster, partition)
        thresholds = (
            list(config.thresholds)
            if config.thresholds is not None
            else cls._auto_thresholds(descriptors, config.max_fanout)
        )

        tree = SemanticRTree.build(
            descriptors,
            thresholds=thresholds,
            max_fanout=config.max_fanout,
            bloom_bits=config.bloom_bits,
            bloom_hashes=config.bloom_hashes,
        )
        map_index_units(tree, rng)
        multi_map_root(tree, rng)

        versioning = VersioningManager(config.version_ratio)
        offline_router = OfflineRouter(
            tree, lazy_update_threshold=config.lazy_update_threshold
        )
        engine = QueryEngine(
            tree=tree,
            cluster=cluster,
            lsi=partition.lsi,
            schema=schema,
            index_lower=index_lower,
            index_upper=index_upper,
            log_mask=schema.log_scale_mask(),
            center=partition.center,
            versioning=versioning,
            offline_router=offline_router,
            mode=config.mode,
            versioning_enabled=config.versioning_enabled,
            search_breadth=config.search_breadth,
            cost_model=config.cost_model,
        )
        store = cls(
            config=config,
            schema=schema,
            cluster=cluster,
            tree=tree,
            partition=partition,
            lsi=partition.lsi,
            index_lower=index_lower,
            index_upper=index_upper,
            versioning=versioning,
            offline_router=offline_router,
            engine=engine,
        )
        # `files` reports a built store's population in input order.
        store._file_locations = dict(zip((f.file_id for f in files), labels.tolist()))
        return store

    @staticmethod
    def _unit_descriptors(
        cluster: ClusterSimulator, partition: SemanticPartition
    ) -> List[StorageUnitDescriptor]:
        """Per-unit descriptors (MBR, centroid, semantic vector, filenames)."""
        labels = partition.labels
        sem = partition.semantic_vectors
        global_mean = sem.mean(axis=0)
        descriptors: List[StorageUnitDescriptor] = []
        for unit_id in cluster.unit_ids():
            server = cluster.server(unit_id)
            members = np.nonzero(labels == unit_id)[0]
            vector = sem[members].mean(axis=0) if members.size else global_mean
            descriptors.append(
                StorageUnitDescriptor(
                    unit_id=unit_id,
                    mbr=server.mbr(),
                    centroid=server.centroid(),
                    semantic_vector=vector,
                    filenames=server.filenames(),
                    file_count=len(server),
                    # Freshly filled servers: the filter covers exactly
                    # these names, so the leaf copies it.
                    bloom=server.bloom,
                )
            )
        return descriptors

    @staticmethod
    def _auto_thresholds(
        descriptors: Sequence[StorageUnitDescriptor], max_fanout: int
    ) -> List[float]:
        """Derive per-level admission thresholds by sampling analysis (§3.2.1).

        The first-level threshold minimises the §1.1 grouping measure over
        the unit semantic vectors; higher levels relax it progressively
        because aggregated groups are intrinsically less correlated.
        """
        vectors = np.vstack([d.semantic_vector for d in descriptors])
        base, _ = optimal_threshold(vectors, max_fanout=max_fanout)
        return [max(0.0, base - 0.1 * level) for level in range(6)]

    # ------------------------------------------------------------------ query API
    def execute(self, query: Query, ctx: Optional[ReadContext] = None) -> QueryResult:
        """Execute any query object against the deployment.

        The read entry point every store-shaped backend shares (see
        :class:`~repro.core.queries.ReadContext`); merges the per-query
        counters into the cluster accounting, exactly once, under the
        store's own lock (the query service calls this from pool threads).
        """
        result = self.engine.execute(query, ctx)
        with self._metrics_lock:
            self.cluster.metrics.merge(result.metrics)
        return result

    def default_pipeline(self):
        """A volatile :class:`~repro.ingest.pipeline.IngestPipeline` over this
        deployment (overlay staging, no write-ahead log).

        The query service calls this lazily on the first mutation when no
        pipeline was supplied; a :class:`~repro.shard.router.ShardRouter`
        overrides the same hook to return itself, routing mutations to its
        per-shard pipelines instead.  Imported lazily: the ingest layer
        depends on this module.
        """
        from repro.ingest.pipeline import IngestPipeline

        return IngestPipeline(self)

    # ------------------------------------------------------------------ updates
    def file_semantic_vector(self, file: FileMetadata) -> np.ndarray:
        """Fold one file's attributes into the LSI semantic subspace."""
        idx = list(range(self.schema.dimension))
        values = [file.attributes.get(name, 0.0) for name in self.schema.names]
        normalised = self.engine.normalize_index_values(
            idx, self.engine.to_index_space(idx, values)
        )
        return self.engine.fold_normalized_vector(normalised)

    def stage_mutation(
        self, kind: str, file: FileMetadata, *, seq: int = 0
    ) -> StageOutcome:
        """Stage one mutation: version chain, overlay, lazy-update accounting.

        This is the single write entry point shared by the classic facade
        methods (:meth:`insert_file`, :meth:`delete_file`,
        :meth:`modify_file`) and the durable ingest pipeline (which logs to
        its write-ahead log first and passes the WAL sequence number in as
        ``seq``).

        Routing:

        * a genuinely new file goes to the most correlated group (off-line
          replica routing) and its least-loaded storage unit;
        * a mutation of an *applied* file is routed to the unit that stores
          it (the id-indexed location map knows in O(1));
        * a mutation of a *pending* file (inserted but not yet compacted)
          follows the staged insert's placement, so insert-then-delete nets
          out within one group's chain;
        * a delete/modify of an unknown file records nothing and returns
          ``known=False`` with :data:`UNKNOWN_GROUP`.
        """
        if kind not in ("insert", "delete", "modify"):
            raise ValueError(f"unknown mutation kind {kind!r}")
        metrics = Metrics()
        pending_unit: Optional[int] = None
        pending_kind: Optional[str] = None
        if self.overlay is not None:
            staged = self.overlay.get(file.file_id)
            if staged is not None:
                pending_unit, pending_kind = staged.unit_id, staged.kind
        if pending_kind is None:
            pending = self.versioning.pending_change_for(file.file_id)
            if pending is not None:
                pending_unit, pending_kind = pending[1].unit_id, pending[1].kind
        # The pending state is the file's logical truth and takes precedence
        # over the applied-location map: a staged delete makes the file
        # absent for delete/modify *even if its record is still applied*,
        # so the observable outcome does not depend on compaction timing.
        if pending_kind is not None:
            if kind == "insert" or pending_kind != "delete":
                # Mutations of a pending file follow the earlier changes'
                # placement, so one file's history stays in one chain and
                # compaction applies it in record order (re-inserting a
                # pending-deleted file included).
                owner = pending_unit
            else:
                owner = None
        else:
            owner = self._file_locations.get(file.file_id)

        if owner is not None:
            # Known file: route to its owner (duplicate inserts become
            # in-place replacements instead of second copies).
            group = self.tree.group_of_unit(owner)
            gid = group.node_id
            unit_id = owner
            metrics.record_message(2)  # forward to the owning unit + ack
        elif kind == "insert":
            sem = self.file_semantic_vector(file)
            gid, _ = self.offline_router.target_group_for_vector(sem, metrics)
            group = self.engine.node_by_id(gid)
            target_leaf = min(group.descendant_leaves(), key=lambda l: l.file_count)
            unit_id = target_leaf.unit_id
            metrics.record_message(2)  # forward to the owning storage unit + ack
        else:
            # Deleting / modifying a file nobody has ever inserted: observable
            # no-op (the routing probe is still charged — the request had to
            # be looked up somewhere before it could be rejected).
            sem = self.file_semantic_vector(file)
            self.offline_router.target_group_for_vector(sem, metrics)
            self.cluster.metrics.merge(metrics)
            return StageOutcome(
                kind=kind,
                file=file,
                group_id=UNKNOWN_GROUP,
                unit_id=UNKNOWN_GROUP,
                metrics=metrics,
                known=False,
            )

        self.versioning.record(
            gid, VersionedChange(kind=kind, file=file, unit_id=unit_id)
        )
        if self.overlay is not None:
            self.overlay.stage(kind, file, group_id=gid, unit_id=unit_id, seq=seq)
        self.offline_router.record_change(group, metrics, num_units=self.cluster.num_units)
        if kind == "delete":
            self._pending_deletions += 1
        else:
            self._pending_insertions += 1
        self.cluster.metrics.merge(metrics)
        return StageOutcome(
            kind=kind, file=file, group_id=gid, unit_id=unit_id, metrics=metrics
        )

    def insert_file(self, file: FileMetadata) -> int:
        """Insert a file's metadata into the deployment.

        The most correlated group is located with the off-line replicas, the
        change is recorded in that group's version chain (visible to
        versioned queries immediately) and the lazy-update protocol decides
        when replicas are refreshed.  Returns the id of the group that
        accepted the file.
        """
        return self.stage_mutation("insert", file).group_id

    def delete_file(self, file: FileMetadata) -> int:
        """Record the deletion of a file's metadata (applied at compaction).

        Returns the group the deletion was recorded in, or
        :data:`UNKNOWN_GROUP` when the file was never inserted — in that
        case nothing is recorded, so later reconfiguration/compaction cannot
        corrupt the population or the leaf counts.
        """
        return self.stage_mutation("delete", file).group_id

    def modify_file(self, file: FileMetadata) -> int:
        """Record new attribute values for an existing file.

        ``file`` carries the full updated record (same id/path, new
        attribute values); unknown files return :data:`UNKNOWN_GROUP`.
        """
        return self.stage_mutation("modify", file).group_id

    def apply_changes(self, changes: Sequence[VersionedChange]) -> int:
        """Apply an ordered list of versioned changes to the primary structures.

        Shared by full reconfiguration (all chains) and incremental
        compaction (one group's chain).  Inserts/modifies of an
        already-applied file replace the stored record in place (no
        duplicate copies), deletions are O(1) against the id-indexed
        population map and tolerate unknown files, and every touched leaf's
        MBR / Bloom filter / file count is refreshed once at the end.
        """
        touched: Dict[int, List[str]] = {}
        applied = 0
        for change in changes:
            fid = change.file.file_id
            if change.kind in ("insert", "modify"):
                prev_unit = self._file_locations.get(fid)
                if prev_unit is not None:
                    self.cluster.server(prev_unit).remove_file(fid)
                    touched.setdefault(prev_unit, [])
                self.cluster.server(change.unit_id).add_file(change.file)
                self._file_locations[fid] = change.unit_id
                touched.setdefault(change.unit_id, []).append(change.file.filename)
                self._pending_insertions = max(0, self._pending_insertions - 1)
            else:  # delete
                removed = self.cluster.server(change.unit_id).remove_file(fid)
                owner = self._file_locations.pop(fid, None)
                if removed is None and owner is not None and owner != change.unit_id:
                    # The record moved since the deletion was staged; chase it.
                    self.cluster.server(owner).remove_file(fid)
                    touched.setdefault(owner, [])
                if removed is not None or owner is not None:
                    touched.setdefault(change.unit_id, [])
                self._pending_deletions = max(0, self._pending_deletions - 1)
            applied += 1
        for unit_id, new_names in touched.items():
            server = self.cluster.server(unit_id)
            self.tree.refresh_leaf(
                unit_id,
                mbr=server.mbr(),
                file_count=len(server),
                new_filenames=new_names,
            )
        if touched and self.on_units_touched is not None:
            self.on_units_touched(
                list(touched.keys()), [change.file.file_id for change in changes]
            )
        return applied

    def reconfigure(self) -> int:
        """Apply every pending versioned change to the primary structures.

        Insertions land on their owning storage units (Bloom filters and
        MBRs refreshed), deletions are applied, the version chains are
        cleared and the off-line replicas re-snapshotted.  Returns the
        number of changes applied.
        """
        applied = 0
        for gid, changes in self.versioning.clear_all().items():
            applied += self.apply_changes(changes)
        if self.overlay is not None:
            self.overlay.clear()
        self.offline_router.refresh_all()
        self._pending_insertions = 0
        self._pending_deletions = 0
        self.versioning.touch()
        return applied

    # ------------------------------------------------------------------ accounting
    def index_space_bytes_per_unit(self) -> Dict[int, int]:
        """Index-state footprint per storage unit (Figure 7).

        Counts the semantic R-tree nodes each server hosts, the replicated
        first-level index vectors every server stores, the leaf Bloom
        filter, and the version chains attached to locally hosted groups.
        Raw metadata records are excluded — every compared system must store
        those and they would only dilute the comparison.
        """
        cm = self.config.cost_model
        per_unit: Dict[int, int] = {}
        replica_bytes = self.offline_router.replica_space_bytes(
            vector_bytes=cm.semantic_vector_bytes, entry_bytes=cm.index_entry_bytes
        )
        version_space = self.versioning.space_bytes_per_group(cm.metadata_record_bytes)
        hosted_versions: Dict[int, int] = {}
        for group in self.tree.first_level_groups():
            host = group.hosted_on if group.hosted_on is not None else 0
            hosted_versions[host] = hosted_versions.get(host, 0) + version_space.get(group.node_id, 0)

        for unit_id in self.cluster.unit_ids():
            server = self.cluster.server(unit_id)
            hosted_nodes = [
                n
                for n in self.tree.nodes
                if n.hosted_on == unit_id or unit_id in n.replica_hosts
            ]
            node_bytes = 0
            for node in hosted_nodes:
                node_bytes += cm.index_entry_bytes + cm.semantic_vector_bytes
                if node.bloom is not None:
                    node_bytes += node.bloom.size_bytes()
            per_unit[unit_id] = (
                node_bytes
                + replica_bytes
                + server.bloom.size_bytes()
                + hosted_versions.get(unit_id, 0)
            )
        return per_unit

    def total_index_space_bytes(self) -> int:
        return sum(self.index_space_bytes_per_unit().values())

    def stats(self) -> Dict[str, object]:
        """Deployment statistics used by the benchmarks and examples."""
        return {
            "num_units": self.cluster.num_units,
            "num_files": self.cluster.total_files(),
            "pending_insertions": self._pending_insertions,
            "pending_deletions": self._pending_deletions,
            "tree_height": self.tree.height,
            "num_index_units": self.tree.num_index_units,
            "first_level_groups": len(self.tree.first_level_groups()),
            "index_space_bytes": self.total_index_space_bytes(),
            "mode": self.config.mode,
            "versioning": self.config.versioning_enabled,
        }

    def __repr__(self) -> str:
        return (
            f"SmartStore(units={self.cluster.num_units}, files={self.cluster.total_files()}, "
            f"index_units={self.tree.num_index_units}, mode={self.config.mode!r})"
        )
