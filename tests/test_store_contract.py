"""One contract for every store-shaped backend: ``execute(query, ctx)``.

``SmartStore``, a thread ``ShardRouter``, a ``ShardRouter`` over replica
groups, a bare ``ReplicaGroup`` and the process-per-shard router all answer
the same read entry point on one :class:`~repro.core.queries.ReadContext`.
Whatever a caller is talking to, the context's five fields mean the same
thing, a field the backend has no use for is accepted and ignored, and each
call lands in the backend's aggregate counters exactly once.
"""

from dataclasses import fields

import pytest

from repro.api import DeploymentSpec, connect
from repro.api.options import Deadline
from repro.cluster.metrics import Metrics
from repro.core.queries import ReadContext
from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.service.cache import result_fingerprint
from repro.workloads.generator import QueryWorkloadGenerator
from repro.workloads.types import PointQuery, RangeQuery, TopKQuery

from helpers import TIE_ATTRS, make_files, make_twins

CONFIG = SmartStoreConfig(num_units=8, seed=2, search_breadth=64)

BACKENDS = {
    "plain": DeploymentSpec(topology="plain", store=CONFIG),
    "sharded": DeploymentSpec(topology="sharded", store=CONFIG, shards=3),
    "sharded_replicated": DeploymentSpec(
        topology="sharded_replicated", store=CONFIG, shards=2, replicas=1
    ),
    "replicated": DeploymentSpec(topology="replicated", store=CONFIG, replicas=1),
    "processes": DeploymentSpec(
        topology="sharded", store=CONFIG, shards=2, execution="processes"
    ),
}


@pytest.fixture(scope="module")
def population():
    """Clustered files plus a block of identical records, so top-k answers
    anchored on the block are decided purely by tie-breaking."""
    return make_files(90, clusters=4) + make_twins(10)


@pytest.fixture(scope="module")
def workload(population):
    generator = QueryWorkloadGenerator(population, seed=23)
    return (
        generator.point_queries(4, existing_fraction=0.75)
        + generator.range_queries(4, distribution="zipf")
        + generator.topk_queries(4, k=6, distribution="zipf")
        + [
            PointQuery("twin03.dat"),
            RangeQuery(("size",), (TIE_ATTRS["size"] - 1.0,), (TIE_ATTRS["size"] + 1.0,)),
            TopKQuery(("size", "mtime"), (TIE_ATTRS["size"], TIE_ATTRS["mtime"]), k=5),
        ]
    )


@pytest.fixture(scope="module")
def reference(population, workload):
    """What an unsharded, unreplicated store answers."""
    baseline = SmartStore.build(population, CONFIG)
    return [result_fingerprint(baseline.execute(q)) for q in workload]


@pytest.fixture(scope="module", params=list(BACKENDS))
def store(request, population):
    with connect(BACKENDS[request.param], population) as client:
        yield client.store


def fingerprints(store, queries, *ctx):
    return [result_fingerprint(store.execute(q, *ctx)) for q in queries]


def test_context_is_optional_and_answers_match_the_unsharded_baseline(
    store, workload, reference
):
    assert fingerprints(store, workload) == reference
    assert fingerprints(store, workload, ReadContext()) == reference


def test_every_home_unit_answers_identically(store, workload, reference):
    for home in store.cluster.unit_ids():
        assert fingerprints(store, workload, ReadContext(home_unit=home)) == reference


def test_expired_deadline_is_incomplete_and_never_raises(store, workload):
    for query in workload:
        result = store.execute(query, ReadContext(deadline=Deadline.after(0.0)))
        assert not result.complete
        assert result.files == []


@pytest.mark.parametrize(
    "ctx",
    [
        ReadContext(consistency="any_replica"),
        ReadContext(consistency="bounded", max_staleness=2),
    ],
    ids=["any_replica", "bounded"],
)
def test_consistency_is_accepted_by_every_backend(store, workload, reference, ctx):
    # Nothing is in flight, so every level reads the same data; the point
    # is that no caller needs to know whether its backend is replicated.
    assert fingerprints(store, workload, ctx) == reference


def test_topk_bound_prunes_without_losing_qualifying_members(store, workload):
    for query in (q for q in workload if isinstance(q, TopKQuery)):
        unbounded = store.execute(query)
        ids = [f.file_id for f in unbounded.files]
        # The bound a router ships (the k-th-best distance): the answer is
        # a subset of the unbounded one, nothing beyond the bound.
        kth = unbounded.distances[-1]
        shipped = store.execute(query, ReadContext(max_d_bound=kth))
        assert {f.file_id for f in shipped.files} <= set(ids)
        assert all(d <= kth for d in shipped.distances)
        assert result_fingerprint(shipped) == result_fingerprint(unbounded)
        # A tighter bound may prune whole groups and shards, but every
        # member at or below it must still come back, in canonical order.
        tight = unbounded.distances[len(ids) // 2]
        qualifying = [
            (d, i) for d, i in zip(unbounded.distances, ids) if d <= tight
        ]
        bounded = store.execute(query, ReadContext(max_d_bound=tight))
        got = list(zip(bounded.distances, (f.file_id for f in bounded.files)))
        assert got[: len(qualifying)] == qualifying


def test_each_call_lands_in_the_aggregate_exactly_once(store, workload):
    counters = [f.name for f in fields(Metrics) if f.type == "int"]
    assert len(counters) == 6
    for query in workload:
        aggregate = store.cluster.metrics
        before = {name: getattr(aggregate, name) for name in counters}
        result = store.execute(query, ReadContext(home_unit=0))
        aggregate = store.cluster.metrics
        for name in counters:
            assert getattr(aggregate, name) - before[name] == getattr(
                result.metrics, name
            ), name
        assert result.metrics.units_visited <= aggregate.units_visited


def test_unsupported_query_type_is_a_type_error(store):
    with pytest.raises(TypeError):
        store.execute("not-a-query")
