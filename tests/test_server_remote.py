"""Remote client over the wire: topology equivalence, pagination, lifecycle.

The tentpole contract of the network front door: ``connect("tcp://...")``
is a drop-in for the local client.  Specifically:

* for **all five topology shapes** the remote client's result
  fingerprints are byte-identical to the local client's for the same
  workload, and so are the results themselves: every record with its
  attribute key order, and every distance compared with ``==``;
* pagination over the wire: concatenated pages equal the unpaginated
  result, cursors survive the round-trip, and mutations in flight do not
  corrupt an open pinned stream;
* ``close()`` is idempotent on both clients — double-close and
  close-with-open-cursors never raise, and closing deterministically
  releases pinned snapshots (the satellite regression for
  :meth:`repro.api.client.Client.close`).
"""

import pytest

from repro.api import DeploymentSpec, RequestOptions, connect
from repro.core.smartstore import SmartStoreConfig
from repro.metadata.attributes import DEFAULT_SCHEMA
from repro.metadata.file_metadata import FileMetadata
from repro.server import RemoteClient, StoreServer, serve_spec
from repro.service.cache import result_fingerprint
from repro.workloads.generator import QueryWorkloadGenerator
from repro.workloads.types import PointQuery, RangeQuery

from helpers import make_files

CONFIG = SmartStoreConfig(num_units=6, seed=3, search_breadth=64)
TOPOLOGIES = ("plain", "durable", "sharded", "replicated", "sharded_replicated")


def spec_for(topology: str, tmp_path) -> DeploymentSpec:
    kwargs = {"topology": topology, "store": CONFIG, "shards": 2, "replicas": 1}
    if topology == "durable":
        kwargs["wal_dir"] = str(tmp_path / "wal")
    return DeploymentSpec(**kwargs)


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


def fingerprints(client, workload):
    return [result_fingerprint(client.execute(q).result) for q in workload]


class TestTopologyEquivalence:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_remote_fingerprints_match_local(
        self, topology, population, workload, tmp_path
    ):
        local = connect(spec_for(topology, tmp_path), population)
        reference = fingerprints(local, workload)
        local.close()

        server = serve_spec(spec_for(topology, tmp_path / "srv"), population)
        try:
            remote = connect(server.address)
            try:
                assert fingerprints(remote, workload) == reference
            finally:
                remote.close()
        finally:
            server.close()


def results(client, workload):
    return [client.execute(q).result for q in workload]


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_remote_results_equal_local_exactly(topology, population, workload, tmp_path):
    """``result_fingerprint`` sorts attribute names, ignores ``extra`` and
    rounds distances; this compares what a caller actually receives."""
    local = connect(spec_for(topology, tmp_path), population)
    reference = results(local, workload)
    local.close()

    server = serve_spec(spec_for(topology, tmp_path / "srv"), population)
    try:
        remote = connect(server.address)
        try:
            received = results(remote, workload)
        finally:
            remote.close()
    finally:
        server.close()
    assert any(r.files for r in reference) and any(r.distances for r in reference)
    for got, want in zip(received, reference):
        assert got.files == want.files
        assert [list(f.attributes) for f in got.files] == [
            list(f.attributes) for f in want.files
        ]
        assert got.distances == want.distances
    assert len(received) == len(reference)


def test_unowned_delete_reports_unknown_over_the_wire(population, tmp_path):
    ghost = FileMetadata(path="/nowhere/ghost.dat", attributes={"size": 1.0})
    server = serve_spec(spec_for("sharded_replicated", tmp_path), population)
    try:
        remote = connect(server.address)
        try:
            receipt = remote.delete(ghost).receipt
            assert receipt is not None and not receipt.known
        finally:
            remote.close()
    finally:
        server.close()


@pytest.fixture(scope="module")
def server(population):
    srv = serve_spec(
        DeploymentSpec(topology="sharded", shards=2, store=CONFIG), population
    )
    yield srv
    srv.close()


@pytest.fixture()
def remote(server):
    client = connect(server.address)
    yield client
    client.close()


SCAN = RangeQuery(("size",), (0.0,), (1e12,))


class TestRemotePagination:
    def test_page_concat_equals_unpaginated(self, remote):
        full = remote.execute(SCAN)
        paged_files, paged_distances = [], []
        for page in remote.pages(SCAN, page_size=7):
            paged_files.extend(f.path for f in page.files)
            paged_distances.extend(page.distances)
        assert paged_files == [f.path for f in full.result.files]
        assert paged_distances == full.result.distances

    def test_manual_cursor_walk(self, remote):
        response = remote.execute(SCAN, RequestOptions(page_size=5))
        assert response.page is not None
        pages = [response.page]
        while pages[-1].cursor is not None:
            pages.append(
                remote.execute(SCAN, RequestOptions(cursor=pages[-1].cursor)).page
            )
        full = remote.execute(SCAN)
        walked = [f.path for page in pages for f in page.files]
        assert walked == [f.path for f in full.result.files]

    def test_mutation_in_flight_does_not_corrupt_pinned_stream(
        self, remote, population
    ):
        """Start a paginated read, mutate under it, finish the read: the
        pinned snapshot keeps serving the pre-mutation view."""
        first = remote.execute(SCAN, RequestOptions(page_size=6))
        expected = [f.path for f in remote.execute(SCAN).result.files]

        victim = population[11]
        receipt = remote.delete(victim).receipt
        assert receipt.kind == "delete"

        walked = [f.path for f in first.page.files]
        cursor = first.page.cursor
        while cursor is not None:
            page = remote.execute(SCAN, RequestOptions(cursor=cursor)).page
            walked.extend(f.path for f in page.files)
            cursor = page.cursor
        assert walked == expected  # snapshot view, deletion not visible

    def test_mutations_round_trip_and_bump_epoch(self, remote, population):
        before = remote.epoch()
        extra = FileMetadata(
            path="/data/proj0/remote-insert.dat",
            attributes=dict(population[0].attributes),
        )
        receipt = remote.insert(extra).receipt
        assert receipt.kind == "insert"
        assert remote.epoch() != before
        changed = FileMetadata(
            path=population[3].path, attributes=dict(population[3].attributes)
        )
        assert remote.modify(changed).receipt.kind == "modify"

    def test_execute_many_and_submit(self, remote, workload):
        sync = [result_fingerprint(remote.execute(q).result) for q in workload[:6]]
        batched = [
            result_fingerprint(r.result) for r in remote.execute_many(workload[:6])
        ]
        futures = [remote.submit(q) for q in workload[:6]]
        async_prints = [result_fingerprint(f.result().result) for f in futures]
        assert batched == sync
        assert async_prints == sync

    def test_stats_and_ping(self, remote):
        assert remote.ping() is True
        stats = remote.stats()
        network = stats["service"]["telemetry"]["network"]
        assert network["requests_served"] >= 1
        assert network["connections_accepted"] >= 1


class TestCloseSemantics:
    """Satellite: close() idempotence + deterministic snapshot release."""

    def test_local_double_close_is_silent(self, population, tmp_path):
        client = connect(spec_for("sharded", tmp_path), population)
        client.close()
        client.close()  # must not raise

    def test_local_close_with_open_cursors_releases_snapshots(
        self, population, tmp_path
    ):
        client = connect(spec_for("plain", tmp_path), population)
        response = client.execute(SCAN, RequestOptions(page_size=4))
        assert response.page.cursor is not None  # stream left open
        stream = client.pages(SCAN, page_size=3)
        next(stream)  # second open cursor, mid-iteration
        assert len(client._snapshots) > 0
        client.close()
        assert len(client._snapshots) == 0  # deterministic release
        client.close()  # and still idempotent afterwards

    def test_context_manager_exit_after_explicit_close(self, population, tmp_path):
        with connect(spec_for("plain", tmp_path), population) as client:
            client.execute(SCAN, RequestOptions(page_size=4))
            client.close()
        # __exit__ double-closes: must not raise.

    def test_remote_double_close_is_silent(self, server):
        client = connect(server.address)
        client.ping()
        client.close()
        client.close()

    def test_remote_close_with_open_cursor(self, server):
        client = connect(server.address)
        response = client.execute(SCAN, RequestOptions(page_size=4))
        assert response.page.cursor is not None
        client.close()
        client.close()

    def test_remote_context_manager(self, server):
        with connect(server.address) as client:
            assert isinstance(client, RemoteClient)
            assert client.ping() is True
        with pytest.raises(Exception):
            client.ping()  # closed client must not silently work

    def test_server_close_is_idempotent(self, population):
        client = connect(
            DeploymentSpec(topology="plain", store=CONFIG), population
        )
        srv = StoreServer(client, owns_client=True).start()
        srv.close()
        srv.close()


class TestConnectValidation:
    def test_connect_rejects_non_tcp_string(self):
        with pytest.raises(ValueError, match="tcp://"):
            connect("http://127.0.0.1:1")

    def test_connect_rejects_files_with_remote_address(self, population, server):
        with pytest.raises(ValueError, match="files"):
            connect(server.address, population)
