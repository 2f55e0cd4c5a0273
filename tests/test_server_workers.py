"""Worker-process-per-shard execution: equivalence, failure, lifecycle.

Covers the process-router half of the network subsystem:

* a process-per-shard deployment answers point / range / top-k queries
  **byte-identically** (result fingerprints) to the in-process sharded
  router and to an unsharded store (``test_store_contract.py``, which
  runs the process router beside every other backend);
* mutations route to the owning worker, receipts round-trip, and reads
  observe the writes;
* **killing a worker mid-scatter** degrades exactly per policy — the
  default ``"partial"`` policy yields ``complete=False`` with
  ``shards_down`` attribution, ``on_deadline="fail"`` raises
  :class:`PartialResultError`, and the surviving shards keep answering;
* worker shutdown is idempotent and leaves no live child processes.
"""

import os
import signal
import time

import pytest

from repro.api import DeploymentSpec, RequestOptions, connect
from repro.api.options import PartialResultError
from repro.core.smartstore import SmartStoreConfig
from repro.metadata.attributes import DEFAULT_SCHEMA
from repro.metadata.file_metadata import FileMetadata
from repro.server.worker import build_process_router
from repro.service.cache import result_fingerprint
from repro.shard.build import build_router
from repro.workloads.generator import QueryWorkloadGenerator
from repro.workloads.types import PointQuery

from helpers import make_files

CONFIG = SmartStoreConfig(num_units=6, seed=3, search_breadth=64)


@pytest.fixture(scope="module")
def population():
    return make_files(80, clusters=4)


@pytest.fixture(scope="module")
def workload(population):
    generator = QueryWorkloadGenerator(population, DEFAULT_SCHEMA, seed=17)
    queries = []
    queries.extend(generator.point_queries(4))
    queries.extend(generator.range_queries(4))
    queries.extend(generator.topk_queries(4, k=5))
    return queries


@pytest.fixture(scope="module")
def process_router(population):
    router = build_process_router(
        population, 2, CONFIG, DEFAULT_SCHEMA, units_per_shard=3
    )
    yield router
    router.close()


class TestAccounting:
    def test_busy_accounting_travels_over_the_wire(self, process_router, workload):
        process_router.reset_busy()
        for query in workload[:6]:
            process_router.execute(query)
        assert process_router.busy_makespan() > 0.0


class TestMutations:
    def test_delete_visible(self, process_router, population):
        victim = population[5]
        assert process_router.execute(PointQuery(victim.filename)).found
        receipt = process_router.default_pipeline().delete(victim)
        assert receipt.kind == "delete"
        assert receipt.known
        assert not process_router.execute(PointQuery(victim.filename)).found

    def test_mutation_stream_matches_local_router(self, population, workload):
        """The same mutation stream applied to a process router and an
        in-process router leaves both answering every query identically —
        receipts and all."""
        local = build_router(
            population, 2, CONFIG, DEFAULT_SCHEMA, units_per_shard=3
        )
        remote = build_process_router(
            population, 2, CONFIG, DEFAULT_SCHEMA, units_per_shard=3
        )
        try:
            generator = QueryWorkloadGenerator(population, DEFAULT_SCHEMA, seed=41)
            for kind, file in generator.mutation_stream(4, 4, 4):
                lhs = getattr(local.default_pipeline(), kind)(file)
                rhs = getattr(remote.default_pipeline(), kind)(file)
                assert (lhs.kind, lhs.file_id, lhs.known) == (
                    rhs.kind, rhs.file_id, rhs.known
                )
            local.compactor.drain()
            remote.compactor.drain()
            for query in workload:
                assert result_fingerprint(remote.execute(query)) == result_fingerprint(
                    local.execute(query)
                ), query
        finally:
            local.close()
            remote.close()


class TestWorkerDeath:
    """Kill a worker process and watch the degradation contract."""

    @pytest.fixture()
    def client(self, population):
        spec = DeploymentSpec(
            topology="sharded", shards=2, execution="processes", store=CONFIG
        )
        client = connect(spec, population)
        yield client
        client.close()

    @staticmethod
    def _kill_one(router):
        proxy = router.shards[0]
        proxy.process.kill()
        proxy.process.join(timeout=10.0)
        return proxy.shard_id

    def test_partial_policy_attributes_dead_shard(self, client, workload):
        # Healthy first: a scatter query is complete.
        scatter = [q for q in workload if not isinstance(q, PointQuery)]
        assert client.execute(scatter[0]).complete

        dead = self._kill_one(client.store)
        # A *different* query: the identical one would be served complete
        # from the result cache (the epoch did not change).
        response = client.execute(scatter[1])  # default policy: "partial"
        assert response.complete is False
        assert dead in response.attribution["shards_down"]
        assert response.attribution["execution"] == "processes"
        # The surviving worker still contributes real results for its half.
        assert client.store.dead_shards() == [dead]

    def test_fail_policy_raises_partial_result_error(self, client, workload):
        query = next(q for q in workload if not isinstance(q, PointQuery))
        self._kill_one(client.store)
        with pytest.raises(PartialResultError, match="shards down"):
            client.execute(query, RequestOptions(on_deadline="fail"))

    def test_kill_mid_scatter_never_hangs(self, client, population):
        """SIGKILL delivered while a scatter is in flight must surface as a
        degraded response (or clean partial error), never a hang."""
        router = client.store
        victim = router.shards[1]
        # A stream of distinct scatter queries (identical ones would be
        # answered from the result cache after the first).
        generator = QueryWorkloadGenerator(population, DEFAULT_SCHEMA, seed=99)
        queries = iter(generator.range_queries(200))

        import threading

        def assassin():
            time.sleep(0.005)
            os.kill(victim.process.pid, signal.SIGKILL)

        killer = threading.Thread(target=assassin)
        killer.start()
        deadline = time.monotonic() + 30.0
        response = None
        while time.monotonic() < deadline:
            response = client.execute(next(queries))
            if not response.complete:
                break
            time.sleep(0.01)
        killer.join()
        assert response is not None
        assert response.complete is False
        assert victim.shard_id in response.attribution["shards_down"]

    def test_stats_report_failed_calls(self, client, workload):
        query = next(q for q in workload if not isinstance(q, PointQuery))
        self._kill_one(client.store)
        client.execute(query)
        stats = client.store.stats()
        assert stats["shard_calls_failed"] >= 1
        assert stats["dead_shards"]


class TestLifecycle:
    def test_close_is_idempotent_and_reaps_children(self, population):
        router = build_process_router(
            population, 2, CONFIG, DEFAULT_SCHEMA, units_per_shard=3
        )
        processes = [proxy.process for proxy in router.shards]
        assert all(p.is_alive() for p in processes)
        router.close()
        router.close()  # second close must be a no-op
        assert all(not p.is_alive() for p in processes)

    def test_single_worker_router_works(self, population):
        router = build_process_router(
            population, 1, CONFIG, DEFAULT_SCHEMA, units_per_shard=6
        )
        try:
            result = router.execute(PointQuery(population[0].filename))
            assert result.found
        finally:
            router.close()

    def test_spec_validation_gates_processes_execution(self):
        with pytest.raises(ValueError, match="execution"):
            DeploymentSpec(topology="plain", execution="processes")
        with pytest.raises(ValueError, match="execution"):
            DeploymentSpec(topology="sharded", shards=2, execution="fibers")
