"""SmartStore reproduction: semantic-aware metadata organization (SC'09).

This package is a from-scratch Python reproduction of *SmartStore: A New
Metadata Organization Paradigm with Semantic-Awareness for Next-Generation
File Systems* (Hua, Jiang, Zhu, Feng, Tian — SC 2009).

Top-level layout
----------------
``repro.metadata``
    File-metadata model, attribute schema and attribute-matrix utilities.
``repro.lsi``
    Latent Semantic Indexing on top of a truncated SVD, plus the K-means
    baseline grouping tool discussed in the paper.
``repro.rtree``
    A generic Guttman R-tree substrate (MBRs, quadratic split, range
    search and branch-and-bound k-NN).
``repro.bloom``
    MD5-based Bloom filters, sized per tree, used for filename point
    queries.
``repro.btree``
    A B+-tree substrate used by the per-attribute DBMS baseline.
``repro.core``
    The SmartStore system itself: semantic grouping, the distributed
    semantic R-tree, on-line/off-line query engines, automatic
    configuration, index-unit mapping and versioning.
``repro.baselines``
    The two comparison systems of the paper's evaluation: ``DBMSBaseline``
    (one B+-tree per attribute) and ``RTreeBaseline`` (a centralised,
    non-semantic R-tree).
``repro.cluster``
    The discrete cost-accounting cluster simulator that stands in for the
    paper's 60-node prototype testbed.
``repro.traces``
    Synthetic HP / MSN / EECS trace generators and the Trace Intensifying
    Factor (TIF) scale-up procedure.
``repro.workloads``
    Point / range / top-k query workload synthesis under Uniform, Gauss
    and Zipf distributions.
``repro.eval``
    Recall / latency / space metrics, experiment harness and the
    table/figure reporters used by ``benchmarks/``.
``repro.service``
    The concurrent query-service layer: run-to-completion execution with
    admission control, versioning-aware result caching and service
    telemetry.
``repro.ingest``
    The durable write path: write-ahead logging with fsync batching,
    read-your-writes over the version chains, incremental background compaction
    into the semantic R-tree, and checkpoint + WAL-replay crash recovery.
``repro.shard``
    Horizontal sharding: semantic corpus partitioning (LSI-space k-way
    split with a hash fallback) and a scatter-gather router over N
    independent SmartStore deployments with exact summary pruning, a
    shared top-k MaxD threshold and per-shard ingest pipelines.
``repro.replication``
    The availability layer: replica groups (1 primary + N replicas per
    shard) with WAL-segment shipping, bounded-lag async or sync modes,
    circuit-breaker health tracking, live primary failover with catch-up
    replay, anti-entropy reconciliation and real-deployment fault
    injection (crash / pause / slow).
``repro.api``
    The unified client front door: a declarative
    :class:`~repro.api.spec.DeploymentSpec` from which one
    :func:`~repro.api.client.connect` builds any topology, per-request
    options (deadline / consistency / pagination), opaque resumable
    cursors and a uniform response envelope.  New code should program
    against this layer; the per-layer entry points above remain for
    library use.
``repro.bench``
    The exit-code-asserted correctness drills behind ``python -m repro
    bench``: one scenario table, one runner.  (Wall-clock performance is
    measured by ``benchmarks/perf/``.)
"""

from repro.metadata import AttributeSchema, FileMetadata, DEFAULT_SCHEMA
from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.ingest import CompactionPolicy, IngestPipeline, WriteAheadLog, recover_from_storage
from repro.replication import FaultInjector, ReplicaGroup, ReplicationConfig
from repro.service import QueryService, ServiceConfig
from repro.shard import ShardRouter
from repro.workloads import PointQuery, RangeQuery, TopKQuery
from repro.api import (
    Client,
    DeploymentSpec,
    RequestOptions,
    Response,
    connect,
)

__version__ = "1.19.0"

__all__ = [
    "AttributeSchema",
    "Client",
    "DeploymentSpec",
    "RequestOptions",
    "Response",
    "connect",
    "FileMetadata",
    "DEFAULT_SCHEMA",
    "SmartStore",
    "SmartStoreConfig",
    "QueryService",
    "ShardRouter",
    "FaultInjector",
    "ReplicaGroup",
    "ReplicationConfig",
    "ServiceConfig",
    "IngestPipeline",
    "WriteAheadLog",
    "CompactionPolicy",
    "recover_from_storage",
    "PointQuery",
    "RangeQuery",
    "TopKQuery",
    "__version__",
]
