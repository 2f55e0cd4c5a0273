"""The unified client front door: specs, connect(), the response envelope.

The acceptance property this file gates: one ``connect(DeploymentSpec)``
builds all five topology shapes, and on a shared workload the new
``Client`` returns byte-identical payloads to the legacy facades over
the same logical population.
"""

import json

import pytest

from repro.api import (
    Client,
    DeploymentSpec,
    RequestOptions,
    Response,
    connect,
    load_spec,
    save_spec,
)
from repro.api.spec import TOPOLOGIES, service_config_from_dict, service_config_to_dict
from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.persistence.jsonl import save_files
from repro.service import QueryService, ServiceConfig, ServiceOverloadedError
from repro.service.cache import result_fingerprint
from repro.workloads.generator import QueryWorkloadGenerator
from repro.workloads.types import PointQuery, RangeQuery, TopKQuery

from helpers import make_files

CONFIG = SmartStoreConfig(num_units=6, seed=3, search_breadth=64)


@pytest.fixture(scope="module")
def population():
    return make_files(80, clusters=4)


@pytest.fixture(scope="module")
def workload(population):
    generator = QueryWorkloadGenerator(population, seed=17)
    return (
        generator.point_queries(4, existing_fraction=0.75)
        + generator.range_queries(4, distribution="zipf")
        + generator.topk_queries(4, k=6, distribution="zipf")
    )


def spec_for(topology: str, tmp_path) -> DeploymentSpec:
    kwargs = {"topology": topology, "store": CONFIG, "shards": 2, "replicas": 1}
    if topology == "durable":
        kwargs["wal_dir"] = str(tmp_path / "wal")
    return DeploymentSpec(**kwargs)


class TestDeploymentSpec:
    def test_json_round_trip_all_topologies(self, tmp_path):
        for topology in TOPOLOGIES:
            spec = spec_for(topology, tmp_path)
            again = DeploymentSpec.from_dict(spec.to_dict())
            assert again == spec
            path = tmp_path / f"{topology}.json"
            save_spec(spec, path)
            assert load_spec(path) == spec
            # The artefact is plain JSON a human (or the CLI) can edit.
            assert json.loads(path.read_text())["topology"] == topology

    def test_round_trip_preserves_nested_configs(self, tmp_path):
        spec = DeploymentSpec(
            topology="sharded_replicated",
            store=SmartStoreConfig(num_units=12, seed=9, search_breadth=5),
            shards=3,
            replicas=2,
            replication_mode="sync",
            max_lag=7,
            service=ServiceConfig(max_in_flight=4, cache_enabled=False),
        )
        again = DeploymentSpec.from_dict(spec.to_dict())
        assert again.store.num_units == 12
        assert again.store.search_breadth == 5
        assert again.service.cache_enabled is False
        assert again.service.max_in_flight == 4
        assert again.replication_config().mode == "sync"
        assert again.replication_config().max_lag == 7

    def test_service_config_dict_ignores_unknown_keys(self):
        payload = service_config_to_dict(ServiceConfig(max_in_flight=3))
        payload["future_knob"] = True
        payload["max_workers"] = 4  # a field older specs still carry
        assert service_config_from_dict(payload) == ServiceConfig(max_in_flight=3)

    def test_saved_spec_with_retired_keys_still_loads(self, tmp_path):
        # Specs saved before these fields were removed carry them.
        spec = spec_for("sharded", tmp_path)
        payload = spec.to_dict()
        current = tmp_path / "current.json"
        current.write_text(json.dumps(payload))
        payload["partition_strategy"] = "slice"
        payload["service"].update(
            negative_bloom_bits=8192,
            negative_bloom_hashes=5,
            batch_window=16,
            batching_enabled=False,
        )
        for execution in ("threads", "processes"):
            payload["execution"] = execution
            older = tmp_path / f"older-{execution}.json"
            older.write_text(json.dumps(payload))
            assert load_spec(older) == load_spec(current) == spec

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"topology": "mesh"},
            {"topology": "sharded", "shards": 1},
            {"topology": "replicated", "replicas": 0},
            {"topology": "durable"},  # wal_dir required
            {"topology": "plain", "wal_dir": "/tmp/x"},
            {"topology": "replicated", "replication_mode": "psychic"},
            {"topology": "plain", "fsync_every": 0},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DeploymentSpec(**kwargs)


class TestConnectAllTopologies:
    def test_client_matches_legacy_facade_everywhere(
        self, population, workload, tmp_path
    ):
        """The cross-placement acceptance gate: every topology's client
        answers fingerprint-identically to a plain legacy store."""
        legacy = SmartStore.build(population, CONFIG)
        reference = [result_fingerprint(legacy.execute(q)) for q in workload]
        for topology in TOPOLOGIES:
            with connect(spec_for(topology, tmp_path), population) as client:
                fingerprints = [
                    result_fingerprint(client.execute(q).result) for q in workload
                ]
                assert fingerprints == reference, topology

    def test_uniform_surface(self, population, tmp_path):
        for topology in TOPOLOGIES:
            with connect(spec_for(topology, tmp_path), population) as client:
                assert isinstance(client, Client)
                assert client.topology == topology
                response = client.execute(PointQuery(population[0].filename))
                assert isinstance(response, Response)
                assert response.kind == "query"
                assert response.complete and not response.deadline_expired
                assert response.attribution["topology"] == topology
                stats = client.stats()
                assert stats["topology"] == topology
                assert stats["spec"]["topology"] == topology
                assert "service" in stats and "store" in stats

    def test_attribution_names_shards_and_replicas(self, population, tmp_path):
        with connect(spec_for("sharded_replicated", tmp_path), population) as client:
            attribution = client.execute(PointQuery("nope.dat")).attribution
            assert attribution["shards"] == 2
            assert attribution["replicas_per_shard"] == 1
            assert attribution["primaries"] == [0, 0]
        with connect(spec_for("replicated", tmp_path), population) as client:
            attribution = client.execute(PointQuery("nope.dat")).attribution
            assert attribution["replicas"] == 1
            assert attribution["primary"] == 0


class TestConnectPopulationLoading:
    def test_connect_loads_population_from_spec(self, population, tmp_path):
        path = tmp_path / "population.jsonl"
        save_files(population, path)
        spec = DeploymentSpec(topology="plain", store=CONFIG, population=str(path))
        with connect(spec) as client:
            assert client.execute(PointQuery(population[0].filename)).found

    def test_connect_without_population_rejected(self):
        with pytest.raises(ValueError, match="population"):
            connect(DeploymentSpec(topology="plain", store=CONFIG))


class TestClientMutations:
    @pytest.mark.parametrize("topology", list(TOPOLOGIES))
    def test_mutations_round_trip_everywhere(self, population, tmp_path, topology):
        generator = QueryWorkloadGenerator(population, seed=29)
        stream = generator.mutation_stream(4, 2, 2)
        with connect(spec_for(topology, tmp_path), population) as client:
            for kind, file in stream:
                response = getattr(client, kind)(file)
                assert response.kind == "mutation"
                assert response.receipt is not None
                assert response.receipt.kind == kind
            # Every staged mutation is immediately visible through the
            # same client (read-your-writes through the envelope).
            inserted = next(file for kind, file in stream if kind == "insert")
            assert client.execute(PointQuery(inserted.filename)).found

    def test_durable_restart_replays_the_wal(self, population, tmp_path):
        """Regression: a ``durable`` spec without a ``storage`` block
        rebuilt from ``files`` on restart, adopted the old log's sequence
        number and never replayed it — acked mutations silently vanished."""
        spec = spec_for("durable", tmp_path)
        victim, newcomer = population[5], make_files(81, clusters=4)[-1]
        with connect(spec, population) as client:
            assert client.delete(victim).receipt.seq == 1
            assert client.insert(newcomer).receipt.seq == 2
            assert not client.execute(PointQuery(victim.filename)).found
        with connect(spec, population) as client:
            pipeline = client.service.pipeline
            assert (pipeline.applied_seq, pipeline.mutations) == (2, 2)
            assert not client.execute(PointQuery(victim.filename)).found
            assert client.execute(PointQuery(newcomer.filename)).found
            # The restarted log keeps numbering where the old one stopped.
            assert client.delete(newcomer).receipt.seq == 3

    @pytest.mark.parametrize("topology", ["sharded", "replicated", "sharded_replicated"])
    def test_wal_restart_replays_on_every_topology(self, topology, population, tmp_path):
        import dataclasses

        spec = dataclasses.replace(
            spec_for(topology, tmp_path), wal_dir=str(tmp_path / "wal")
        )
        victim, newcomer = population[5], make_files(81, clusters=4)[-1]
        with connect(spec, population) as client:
            client.delete(victim)
            client.insert(newcomer)
            assert not client.execute(PointQuery(victim.filename)).found
        with connect(spec, population) as client:
            assert not client.execute(PointQuery(victim.filename)).found
            assert client.execute(PointQuery(newcomer.filename)).found

    def test_delete_of_unknown_file_reports_unknown(self, population, tmp_path):
        from repro.metadata.file_metadata import FileMetadata

        with connect(spec_for("plain", tmp_path), population) as client:
            ghost = FileMetadata(path="/nowhere/ghost.dat", attributes={"size": 1.0})
            response = client.delete(ghost)
            assert response.receipt is not None and not response.receipt.known

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_unowned_delete_is_logged_and_unknown_on_every_topology(
        self, topology, population, tmp_path
    ):
        """A delete needs only the id: no shard owning the file, no
        attributes to place it by, and still a receipt, never a
        ``KeyError`` from the partitioner."""
        from repro.metadata.file_metadata import FileMetadata

        ghost = FileMetadata(path="/nowhere/ghost.dat", attributes={"size": 1.0})
        with connect(spec_for(topology, tmp_path), population) as client:
            before = client.store.file_count()
            receipt = client.delete(ghost).receipt
            assert receipt is not None and not receipt.known
            assert receipt.seq == 1
            assert client.store.file_count() == before
            assert client.execute(PointQuery(population[0].filename)).found


class TestAsyncSubmit:
    def test_submit_resolves_to_response(self, population, workload, tmp_path):
        with connect(spec_for("plain", tmp_path), population) as client:
            futures = [client.submit(q) for q in workload]
            assert all(f.done() for f in futures)  # served at the call
            responses = [f.result() for f in futures]
            direct = [client.execute(q) for q in workload]
            assert [result_fingerprint(r.result) for r in responses] == [
                result_fingerprint(r.result) for r in direct
            ]

    def test_execute_many_preserves_order(self, population, workload, tmp_path):
        with connect(spec_for("sharded", tmp_path), population) as client:
            responses = client.execute_many(workload)
            assert len(responses) == len(workload)
            direct = [result_fingerprint(client.execute(q).result) for q in workload]
            assert [result_fingerprint(r.result) for r in responses] == direct

    def test_submit_rejects_paginated_options(self, population, tmp_path):
        with connect(spec_for("plain", tmp_path), population) as client:
            with pytest.raises(ValueError, match="paginated"):
                client.submit(
                    RangeQuery(("size",), (0.0,), (1e9,)),
                    RequestOptions(page_size=5),
                )
            assert client.service.admission.admitted == 0

    def test_a_rejected_submit_comes_back_in_its_future(self, population, tmp_path):
        spec = DeploymentSpec(
            topology="plain",
            store=CONFIG,
            service=ServiceConfig(max_in_flight=2, block_on_overload=False),
        )
        with connect(spec, population) as client:
            admission = client.service.admission
            assert admission.admit() and admission.admit()  # every slot held
            try:
                future = client.submit(PointQuery(population[0].filename))
                assert future.done()
                with pytest.raises(ServiceOverloadedError):
                    future.result()
                # A rejection takes no slot, so it must release none.
                assert admission.in_flight == 2
                assert admission.rejected == 1
            finally:
                admission.release(2)
            assert client.submit(PointQuery(population[0].filename)).result().found
            assert admission.in_flight == 0

    def test_a_raising_backend_comes_back_in_its_future(self, population):
        class Raising:
            def __init__(self, store):
                self._store = store
                self.raises = True

            def __getattr__(self, name):
                return getattr(self._store, name)

            def execute(self, query, ctx=None):
                if self.raises:
                    raise RuntimeError("boom")
                return self._store.execute(query, ctx)

        store = Raising(SmartStore.build(population, CONFIG))
        spec = DeploymentSpec(topology="plain", store=CONFIG)
        with Client(spec, store, QueryService(store)) as client:
            admission = client.service.admission
            assert admission.admit()  # a second slot: a double release frees it
            try:
                future = client.submit(PointQuery(population[0].filename))
                assert future.done()
                with pytest.raises(RuntimeError, match="boom"):
                    future.result()
                assert admission.in_flight == 1
            finally:
                admission.release()
            assert admission.in_flight == 0
            store.raises = False
            assert client.submit(PointQuery(population[0].filename)).result().found


class TestEnvelope:
    def test_topk_response_carries_distances(self, population, tmp_path):
        query = TopKQuery(("size", "mtime"), (8192.0, 2100.0), 5)
        with connect(spec_for("plain", tmp_path), population) as client:
            response = client.execute(query)
            assert len(response.files) == 5
            assert len(response.distances) == 5
            assert response.distances == sorted(response.distances)
            summary = response.as_dict()
            assert summary["kind"] == "query" and summary["files"] == 5

    def test_closed_client_is_idempotent(self, population, tmp_path):
        client = connect(spec_for("plain", tmp_path), population)
        client.close()
        client.close()  # second close is a no-op
