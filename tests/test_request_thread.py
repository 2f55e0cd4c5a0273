"""A served request never changes threads — counted, not timed.

From the socket to the leaf scan and back: a ``StoreServer`` handler reads
one frame and finishes it; a router scatters on its caller; a batch
(``execute_many``, ``submit``) runs its engine steps on its caller; a
mutation runs to completion where it was asked.  The tests record ``threading.get_ident()``
inside the engine and the ingest pipeline and count ``Future`` /
``ThreadPoolExecutor.submit`` / ``WireCodec.encode`` calls; no assertion
here is about time, so CI guards the path on any machine.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

import pytest

from repro.api import DeploymentSpec, connect
from repro.core.queries import QueryEngine
from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.ingest.pipeline import IngestPipeline
from repro.obs import Tracer, get_tracer, set_tracer
from repro.server import StoreServer
from repro.server.protocol import WireCodec
from repro.service import QueryService, ServiceConfig, ServiceOverloadedError
from repro.shard.build import build_router
from repro.workloads.types import PointQuery, RangeQuery, TopKQuery

from helpers import make_files
from test_service_hot_path import (  # noqa: F401  (counted is a fixture)
    NOTHING,
    counted,
    held_slot,
    marker,
)

STORE_CONFIG = SmartStoreConfig(num_units=8, seed=3, search_breadth=64)
SHARDS = 4
EVERYTHING = RangeQuery(("size",), (0.0,), (1e12,))


def spec_for(topology, tmp_path):
    extra = {"wal_dir": str(tmp_path / "wal")} if topology == "durable" else {}
    return DeploymentSpec(
        topology=topology, store=STORE_CONFIG, shards=SHARDS, replicas=1, **extra
    )


@pytest.fixture(scope="module")
def population():
    return make_files(120, clusters=4)


def reads(population):
    """A point, a range over every shard and a top-k whose primary shard
    cannot fill ``k`` (so its second phase fans out to all the others),
    with the fewest shards each must contact."""
    anchor = population[7]
    attributes = ("size", "mtime")
    return [
        (PointQuery(anchor.filename), 1),
        (EVERYTHING, SHARDS),
        (
            TopKQuery(attributes, tuple(anchor.attributes[a] for a in attributes), 50),
            SHARDS,
        ),
    ]


@pytest.fixture()
def engine_threads(monkeypatch):
    """``(ident, thread name)`` of every engine execution, at the leaf every
    shard backend ends in."""
    seen = []
    original = QueryEngine.execute

    def execute(self, query, ctx=None):
        thread = threading.current_thread()
        seen.append((thread.ident, thread.name))
        return original(self, query, ctx)

    monkeypatch.setattr(QueryEngine, "execute", execute)
    return seen


@pytest.fixture()
def pipeline_threads(monkeypatch):
    """``(kind, ident)`` of every mutation a primary's ingest pipeline took."""
    seen = []
    for kind in ("insert", "delete", "modify"):
        original = getattr(IngestPipeline, kind)

        def mutate(self, file, _kind=kind, _original=original):
            seen.append((_kind, threading.get_ident()))
            return _original(self, file)

        monkeypatch.setattr(IngestPipeline, kind, mutate)
    return seen


# ---------------------------------------------------------------------------- reads
class TestScatterRunsOnTheCaller:
    def test_through_the_router(self, population, engine_threads):
        with build_router(population, SHARDS, STORE_CONFIG) as router:
            for query, at_least in reads(population):
                del engine_threads[:]
                before = router.shards_contacted
                assert router.execute(query).files
                contacted = router.shards_contacted - before
                assert contacted >= at_least
                assert engine_threads == [
                    (threading.get_ident(), threading.current_thread().name)
                ] * contacted

    def test_through_the_client_on_replica_groups(
        self, population, engine_threads, counted, tmp_path
    ):
        with connect(spec_for("sharded_replicated", tmp_path), population) as client:
            for query, at_least in reads(population):
                del engine_threads[:]
                counted.update(NOTHING)
                assert client.execute(query).files
                assert len(engine_threads) >= at_least
                assert {ident for ident, _ in engine_threads} == {threading.get_ident()}
                assert (counted["Future"], counted["pool_submit"]) == (0, 0)

    def test_through_a_server_handler(self, population, engine_threads, tmp_path):
        client = connect(spec_for("sharded_replicated", tmp_path), population)
        with StoreServer(client, owns_client=True) as server:
            with connect(server.address) as remote:
                for query, at_least in reads(population):
                    del engine_threads[:]
                    assert remote.execute(query).files
                    assert len(engine_threads) >= at_least
                    idents = {ident for ident, _ in engine_threads}
                    names = {name for _, name in engine_threads}
                    assert len(idents) == 1 and names == {"repro-server-conn"}

    def test_a_scan_span_parents_under_the_request_on_either_path(self, population):
        previous = set_tracer(Tracer(enabled=True))
        try:
            tracer = get_tracer()
            with build_router(population, SHARDS, STORE_CONFIG) as router:
                with tracer.root("request") as request:
                    router.execute(EVERYTHING)
                scans = [
                    s
                    for s in tracer.collector.spans_for(request.trace_id)
                    if s.name == "shard.scan"
                ]
                assert len(scans) == SHARDS
                assert {s.parent_id for s in scans} == {request.span_id}
        finally:
            set_tracer(previous)


class TestThePoolIsForSocketWaits:
    """No backend's engine step is a socket wait, so the service keeps no
    pool: a batch runs every engine step on the thread that asked."""

    @pytest.mark.parametrize("topology", ["plain", "sharded"])
    def test_a_batch_runs_every_engine_step_on_the_caller(
        self, topology, population, engine_threads, counted, tmp_path
    ):
        with connect(spec_for(topology, tmp_path), population) as client:
            queries = [q for q, _ in reads(population)]
            del engine_threads[:]
            counted.update(NOTHING)
            assert all(r.files for r in client.execute_many(queries))  # 3 misses
            futures = [client.submit(q) for q in queries]  # 3 hits
            assert all(f.done() and f.result().files for f in futures)
            assert counted["pool_submit"] == 0
        assert len(engine_threads) >= len(queries)
        assert {ident for ident, _ in engine_threads} == {threading.get_ident()}


# ---------------------------------------------------------------------------- mutations
new_file = marker  # a record no population holds, ``i`` apart in size


class TestMutationsRunOnTheCaller:
    @pytest.mark.parametrize("topology", ["plain", "durable", "sharded_replicated"])
    def test_client_mutations_change_no_thread_and_allocate_nothing(
        self, topology, population, pipeline_threads, counted, tmp_path
    ):
        with connect(spec_for(topology, tmp_path), population) as client:
            client.insert(new_file(0))  # first mutation: lazy pipeline set-up
            del pipeline_threads[:]
            counted.update(NOTHING)
            assert client.insert(new_file(1)).receipt.known
            assert client.modify(new_file(1).with_updates(mtime=9999.0)).receipt.known
            assert client.delete(new_file(1)).receipt.known
            assert (counted["Future"], counted["pool_submit"]) == (0, 0)
            me = threading.get_ident()
            assert pipeline_threads == [("insert", me), ("modify", me), ("delete", me)]
            assert not client.execute(PointQuery(new_file(1).filename)).found
            assert client.execute(PointQuery(new_file(0).filename)).found
            assert client.service.admission.in_flight == 0
            served = client.stats()["service"]["telemetry"]["classes"]
            assert [served[k]["count"] for k in ("insert", "modify", "delete")] == [2, 1, 1]


class OrderedPipeline:
    """The service's pipeline behind a proxy that notes the order mutations
    were applied in, and can raise."""

    def __init__(self, pipeline):
        self._pipeline = pipeline
        self.order = []
        self.raises = None

    def __getattr__(self, name):
        return getattr(self._pipeline, name)

    def _apply(self, kind, file):
        if self.raises is not None:
            raise self.raises
        self.order.append((kind, file.file_id))
        return getattr(self._pipeline, kind)(file)

    def insert(self, file):
        return self._apply("insert", file)

    def delete(self, file):
        return self._apply("delete", file)


def ordered_service(population, config=None):
    store = SmartStore.build(population, STORE_CONFIG)
    pipeline = OrderedPipeline(store.default_pipeline())
    return QueryService(store, config, pipeline=pipeline), pipeline


class TestInlineMutationFailures:
    def test_a_raising_pipeline_reaches_the_caller_and_releases_once(self, population):
        service, pipeline = ordered_service(population)
        with service:
            with held_slot(service):
                pipeline.raises = OSError("disk full")
                with pytest.raises(OSError, match="disk full"):
                    service.mutate("insert", new_file(4))
                assert service.admission.in_flight == 1
            assert service.admission.in_flight == 0
            telemetry = service.telemetry
            assert telemetry.as_dict()["classes"]["insert"]["count"] == 0
            pipeline.raises = None
            assert service.mutate("insert", new_file(4)).known
            assert telemetry.as_dict()["classes"]["insert"]["count"] == 1

    def test_a_rejected_mutation_takes_no_slot(self, population):
        config = ServiceConfig(max_in_flight=1, block_on_overload=False)
        service, pipeline = ordered_service(population, config)
        with service:
            with held_slot(service):
                with pytest.raises(ServiceOverloadedError):
                    service.mutate("insert", new_file(5))
                assert service.admission.in_flight == 1
                assert service.telemetry.as_dict()["rejected"] == 1
            assert not pipeline.order
            assert service.mutate("insert", new_file(5)).known
            assert service.admission.in_flight == 0

    def test_mutate_after_close(self, population):
        service, pipeline = ordered_service(population)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.mutate("insert", new_file(6))
        assert service.admission.in_flight == 0 and service.admission.admitted == 0
        assert not pipeline.order

# ---------------------------------------------------------------------------- the connection loop
LENGTH = struct.Struct("!I")


def exchange(address, raw):
    """Send one hand-framed payload, return the reply's payload bytes."""
    host, port = address[len("tcp://"):].rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=30) as conn:
        conn.sendall(LENGTH.pack(len(raw)) + raw)
        header = conn.recv(LENGTH.size, socket.MSG_WAITALL)
        return conn.recv(LENGTH.unpack(header)[0], socket.MSG_WAITALL)


class TestConnectionLoop:
    @pytest.fixture()
    def server(self, population):
        client = connect(DeploymentSpec(topology="plain", store=STORE_CONFIG), population)
        with StoreServer(client, owns_client=True) as server:
            yield server

    def test_a_request_costs_one_encode(self, server, population, monkeypatch):
        encoded_on = []
        original = WireCodec.encode

        def encode(self, payload):
            encoded_on.append(threading.current_thread().name)
            return original(self, payload)

        monkeypatch.setattr(WireCodec, "encode", encode)
        with connect(server.address) as remote:
            del encoded_on[:]
            assert remote.execute(PointQuery(population[3].filename)).found
            assert remote.insert(new_file(8)).receipt.known
            remote.ping()
            # One per reply (counted before close() sends its "bye").
            assert encoded_on.count("repro-server-conn") == 3

    def test_bytes_in_is_the_frame_that_arrived(self, server):
        network = server.client.service.telemetry.network
        # Key order and whitespace no compact re-encode would reproduce.
        raw = b'{ "op" : "ping",\n  "id" : 41 }'
        before = network()
        reply = exchange(server.address, raw)
        assert b'"ok":true' in reply and b'"id":41' in reply
        # The handler accounts a request after sending its reply, and says
        # it has let go of the connection after that.
        deadline = time.monotonic() + 30
        while network()["connections_active"] and time.monotonic() < deadline:
            time.sleep(0.01)
        after = network()
        assert [after[k] - before[k] for k in ("requests_served", "bytes_in", "bytes_out")] == [
            1,
            len(raw),
            len(reply),
        ]

    def test_close_wakes_an_idle_handler(self, population):
        client = connect(DeploymentSpec(topology="plain", store=STORE_CONFIG), population)
        server = StoreServer(client, owns_client=True).start()
        remote = connect(server.address)
        try:
            remote.ping()
            (handler,) = [t for t in server._handlers if t.is_alive()]
            server.close()
            handler.join(timeout=30)
            assert not handler.is_alive()
        finally:
            remote.close()
            server.close()
