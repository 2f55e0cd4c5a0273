"""Cross-placement equivalence: answers must not depend on where a request
lands or where records physically live.

Three layers of the guarantee, each exercised with distance ties and staged
mutations in flight:

* the same workload executed from **every home unit** of one deployment
  returns identical result fingerprints (the payload a client observes is
  a pure function of the logical population);
* two deployments with **different physical layouts** (unit counts, build
  seeds) over the same logical population answer identically under
  exhaustive search breadth — the property the PR 2 drain-equivalence gate
  and the sharded merge both rely on;
* a :class:`~repro.shard.router.ShardRouter` answers identically to its
  unsharded baseline (and from every home unit: that case lives in
  ``test_store_contract.py``, which runs it on every backend).
"""

import numpy as np
import pytest

from repro.core.queries import ReadContext
from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.ingest.pipeline import IngestPipeline
from repro.service.cache import result_fingerprint
from repro.shard.build import build_router
from repro.workloads.generator import QueryWorkloadGenerator
from repro.workloads.types import PointQuery, RangeQuery, TopKQuery

from helpers import TIE_ATTRS, make_files, make_twins


@pytest.fixture(scope="module")
def population():
    """A clustered population plus a block of identical records (exact ties)."""
    return make_files(90, clusters=4) + make_twins(10)


@pytest.fixture(scope="module")
def workload(population):
    generator = QueryWorkloadGenerator(population, seed=23)
    queries = (
        generator.point_queries(6, existing_fraction=0.7)
        + generator.range_queries(6, distribution="zipf")
        + generator.topk_queries(6, k=8, distribution="zipf")
    )
    # Tie-sensitive probes: anchored exactly on the twin block, with k below
    # the twin count so the result is decided purely by tie-breaking, plus a
    # range window covering all twins and a point query on a twin filename.
    queries.append(
        TopKQuery(("size", "mtime"), (TIE_ATTRS["size"], TIE_ATTRS["mtime"]), k=5)
    )
    queries.append(RangeQuery(("size",), (TIE_ATTRS["size"] - 1.0,), (TIE_ATTRS["size"] + 1.0,)))
    queries.append(PointQuery("twin03.dat"))
    return queries


@pytest.fixture(scope="module")
def mutations(population):
    return QueryWorkloadGenerator(population, seed=31).mutation_stream(8, 5, 4)


def _fingerprints(run_query, queries):
    return [result_fingerprint(run_query(q)) for q in queries]


def _engine_runner(store, home):
    return lambda query: store.execute(query, ReadContext(home_unit=home))


class TestSingleStoreCrossPlacement:
    def test_every_home_unit_answers_identically(self, population, workload, mutations):
        store = SmartStore.build(
            population, SmartStoreConfig(num_units=9, seed=1, search_breadth=64)
        )
        pipeline = IngestPipeline(store)
        homes = store.cluster.unit_ids()

        reference = _fingerprints(_engine_runner(store, homes[0]), workload)
        for home in homes[1:]:
            assert _fingerprints(_engine_runner(store, home), workload) == reference

        # Stage mutations (including a delete of a tie member, so deletion
        # masking participates in the tie-break) and re-check while they
        # are in flight, then again after the drain.
        tie_victim = next(f for f in population if f.path == "/ties/twin05.dat")
        pipeline.delete(tie_victim)
        for kind, file in mutations:
            getattr(pipeline, kind)(file)
        staged_reference = _fingerprints(_engine_runner(store, homes[0]), workload)
        for home in homes[1:]:
            assert (
                _fingerprints(_engine_runner(store, home), workload)
                == staged_reference
            )
        assert staged_reference != reference  # the mutations are visible

        pipeline.compactor.drain()
        drained_reference = _fingerprints(_engine_runner(store, homes[0]), workload)
        assert drained_reference == staged_reference
        for home in homes[1:]:
            assert (
                _fingerprints(_engine_runner(store, home), workload)
                == drained_reference
            )

    def test_different_layouts_answer_identically(self, population, workload):
        layouts = [
            SmartStoreConfig(num_units=9, seed=1, search_breadth=64),
            SmartStoreConfig(num_units=6, seed=11, search_breadth=64),
            SmartStoreConfig(num_units=13, seed=5, search_breadth=64),
        ]
        outcomes = []
        for config in layouts:
            store = SmartStore.build(population, config)
            outcomes.append(_fingerprints(store.execute, workload))
        assert outcomes[0] == outcomes[1] == outcomes[2]


class TestShardRouterCrossPlacement:
    @pytest.fixture(scope="class")
    def router(self, population):
        router = build_router(
            population,
            3,
            SmartStoreConfig(num_units=9, seed=1, search_breadth=64),
        )
        yield router
        router.close()

    def test_router_matches_unsharded_baseline(self, population, workload, router, mutations):
        baseline = SmartStore.build(
            population, SmartStoreConfig(num_units=9, seed=1, search_breadth=64)
        )
        baseline_pipeline = IngestPipeline(baseline)
        assert _fingerprints(router.execute, workload) == _fingerprints(
            baseline.execute, workload
        )
        for kind, file in mutations:
            getattr(router, kind)(file)
            getattr(baseline_pipeline, kind)(file)
        assert _fingerprints(router.execute, workload) == _fingerprints(
            baseline.execute, workload
        )
        router.compactor.drain()
        baseline_pipeline.compactor.drain()
        assert _fingerprints(router.execute, workload) == _fingerprints(
            baseline.execute, workload
        )
