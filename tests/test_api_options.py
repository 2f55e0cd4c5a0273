"""Request options: deadlines, consistency levels, and cursor pagination.

Covers the acceptance properties of the unified client API:

* a deadline shorter than the scan time returns (policy ``"partial"``) or
  fails (policy ``"fail"``) within 2x the deadline, with the expiry
  visible in service telemetry;
* consistency levels map onto the replica group's catch-up-on-read
  machinery (``primary`` = fully caught up, ``any_replica`` = no
  catch-up, ``bounded`` = catch up to within ``max_staleness`` records);
* paginated page-concatenation equals the unpaginated result on every
  topology — including under concurrent mutations (the cursor pins the
  first execution's snapshot), after snapshot loss (resume strictly after
  the last served key) and across a mid-stream primary failover.
"""

import time

import pytest

from repro.api import (
    DeadlineExceededError,
    DeploymentSpec,
    InvalidCursorError,
    RequestOptions,
    connect,
)
from repro.api.cursor import Cursor
from repro.cluster.metrics import Metrics
from repro.cluster.node import StorageServer
from repro.core.queries import QueryResult, ReadContext
from repro.core.smartstore import SmartStoreConfig
from repro.metadata.file_metadata import FileMetadata
from repro.replication.fault import FaultInjector
from repro.replication.group import ReplicationConfig
from repro.shard.build import build_group
from repro.service.cache import result_fingerprint
from repro.workloads.generator import QueryWorkloadGenerator
from repro.workloads.types import PointQuery, RangeQuery, TopKQuery

from helpers import make_files

CONFIG = SmartStoreConfig(num_units=6, seed=3, search_breadth=64)

ALL_TOPOLOGIES = ("plain", "durable", "sharded", "replicated", "sharded_replicated")

WIDE_RANGE = RangeQuery(("size",), (0.0,), (1e12,))


def spec_for(topology, tmp_path, **overrides):
    kwargs = {"topology": topology, "store": CONFIG, "shards": 2, "replicas": 1}
    if topology == "durable":
        kwargs["wal_dir"] = str(tmp_path / "wal")
    kwargs.update(overrides)
    return DeploymentSpec(**kwargs)


def pages_payload(pages):
    files = [f for p in pages for f in p.page.files]
    distances = [d for p in pages for d in p.page.distances]
    return files, distances


def payload_fingerprint(files, distances):
    return result_fingerprint(
        QueryResult(
            files=list(files),
            metrics=Metrics(),
            latency=0.0,
            groups_visited=1,
            hops=0,
            found=bool(files),
            distances=list(distances),
        )
    )


class TestRequestOptionsValidation:
    def test_defaults_are_unconstrained(self):
        options = RequestOptions()
        assert not options.constrained and not options.paginated
        assert options.start() is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline_s": -1.0},
            {"deadline_s": float("nan")},
            {"deadline_s": float("inf")},
            {"on_deadline": "explode"},
            {"consistency": "psychic"},
            {"max_staleness": -1},
            {"page_size": 0},
        ],
    )
    def test_invalid_options_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RequestOptions(**kwargs)

    def test_constraining_fields_detected(self):
        assert RequestOptions(deadline_s=1.0).constrained
        assert RequestOptions(consistency="any_replica").constrained
        assert RequestOptions(page_size=10).constrained
        assert RequestOptions(page_size=10).paginated


class TestDeadlines:
    #: Injected per-scan sleep and the request budget.  The cooperative
    #: check fires between scans, so the deterministic schedule is: scan 1
    #: ends at SCAN_SLEEP (< DEADLINE, continue), scan 2 ends at
    #: 2*SCAN_SLEEP (> DEADLINE, expire at the next check) — wall time
    #: ~2*SCAN_SLEEP, leaving DEADLINE - ... ≈ 0.3 s of real headroom
    #: under the 2x-deadline bound even on a loaded CI runner.
    SCAN_SLEEP = 0.35
    DEADLINE = 0.5

    @pytest.fixture()
    def slow_client(self, tmp_path, monkeypatch):
        """A plain deployment whose every storage-unit range scan sleeps.

        The sleep models a genuinely slow distributed scan, so the
        cooperative per-leaf deadline checks are exercised mid-flight
        rather than before any work happens.
        """
        population = make_files(60, clusters=4)
        real_scan = StorageServer.scan_range

        def slow_scan(self, *args, **kwargs):
            time.sleep(TestDeadlines.SCAN_SLEEP)
            return real_scan(self, *args, **kwargs)

        monkeypatch.setattr(StorageServer, "scan_range", slow_scan)
        client = connect(spec_for("plain", tmp_path), population)
        yield client
        client.close()

    def test_partial_within_twice_the_deadline(self, slow_client):
        deadline = self.DEADLINE
        started = time.perf_counter()
        response = slow_client.execute(
            WIDE_RANGE, RequestOptions(deadline_s=deadline, on_deadline="partial")
        )
        wall = time.perf_counter() - started
        assert not response.complete
        assert response.deadline_expired
        # Cooperative checks run per leaf scan, so the overshoot is
        # bounded by one scan: well inside 2x the deadline.
        assert wall < 2 * deadline
        # A partial answer is a correct subset: re-running without a
        # deadline yields a superset of the same files.
        full = slow_client.execute(WIDE_RANGE)
        partial_ids = {f.file_id for f in response.files}
        assert partial_ids <= {f.file_id for f in full.files}
        assert len(full.files) > len(response.files)

    def test_fail_policy_raises_within_twice_the_deadline(self, slow_client):
        deadline = self.DEADLINE
        started = time.perf_counter()
        with pytest.raises(DeadlineExceededError):
            slow_client.execute(
                WIDE_RANGE, RequestOptions(deadline_s=deadline, on_deadline="fail")
            )
        assert time.perf_counter() - started < 2 * deadline

    def test_expiry_visible_in_service_telemetry(self, slow_client):
        telemetry = slow_client.service.telemetry
        before = telemetry.as_dict()["deadline_expired"]
        slow_client.execute(WIDE_RANGE, RequestOptions(deadline_s=self.DEADLINE))
        after = telemetry.as_dict()["deadline_expired"]
        assert after == before + 1
        assert slow_client.stats()["service"]["telemetry"]["deadline_expired"] == after

    @pytest.mark.parametrize("topology", list(ALL_TOPOLOGIES))
    def test_already_expired_deadline_everywhere(self, tmp_path, topology):
        """deadline_s=0 expires at admission on every topology: the
        request does no engine work and still reports the expiry."""
        population = make_files(40, clusters=4)
        with connect(spec_for(topology, tmp_path), population) as client:
            response = client.execute(WIDE_RANGE, RequestOptions(deadline_s=0.0))
            assert response.deadline_expired and not response.complete
            assert response.files == []
            assert client.stats()["service"]["telemetry"]["deadline_expired"] >= 1

    def test_deadline_partials_never_poison_the_cache(self, tmp_path):
        population = make_files(40, clusters=4)
        with connect(spec_for("plain", tmp_path), population) as client:
            full_before = client.execute(WIDE_RANGE)
            client.execute(WIDE_RANGE, RequestOptions(deadline_s=0.0))
            full_after = client.execute(WIDE_RANGE)
            assert result_fingerprint(full_after.result) == result_fingerprint(
                full_before.result
            )
            assert full_after.complete

    def test_deadline_applies_to_topk(self, slow_client, monkeypatch):
        # The engine's per-leaf kNN scan.
        real_knn = StorageServer.knn_candidates

        def slow_knn(self, *args, **kwargs):
            time.sleep(TestDeadlines.SCAN_SLEEP)
            return real_knn(self, *args, **kwargs)

        monkeypatch.setattr(StorageServer, "knn_candidates", slow_knn)
        deadline = self.DEADLINE
        started = time.perf_counter()
        response = slow_client.execute(
            TopKQuery(("size", "mtime"), (8192.0, 2100.0), 10),
            RequestOptions(deadline_s=deadline),
        )
        assert time.perf_counter() - started < 2 * deadline
        assert not response.complete and response.deadline_expired


class TestConsistencyLevels:
    @pytest.fixture(scope="class")
    def group(self):
        population = make_files(50, clusters=4)
        group = build_group(
            population,
            CONFIG,
            replication=ReplicationConfig(replicas=1, mode="async", max_lag=64),
        )
        yield group
        group.close()

    def new_file(self, i):
        return FileMetadata(
            path=f"/fresh/opt{i:03d}.dat",
            attributes={
                "size": 4096.0,
                "ctime": 1010.0,
                "mtime": 1080.0,
                "atime": 1140.0,
                "read_bytes": 2048.0,
                "write_bytes": 512.0,
                "access_count": 3.0,
                "owner": 1.0,
            },
        )

    def test_any_replica_may_trail_then_bounded_catches_up(self, group):
        fresh = self.new_file(0)
        group.insert(fresh)
        replica = group.members[1]
        assert replica.lag() == 1  # shipped, not yet applied
        query = PointQuery(fresh.filename)
        # any_replica skips catch-up: over one full rotation, the read
        # served by the lagging replica misses the acked write while the
        # primary-served read sees it.
        founds = [
            group.read(query, ReadContext(consistency="any_replica")).found
            for _ in range(2)
        ]
        assert sorted(founds) == [False, True]
        assert replica.lag() == 1  # untouched by any_replica reads
        # bounded with max_staleness=0 is a fully caught-up read.
        founds = [
            group.read(
                query, ReadContext(consistency="bounded", max_staleness=0)
            ).found
            for _ in range(2)
        ]
        assert founds == [True, True]
        assert replica.lag() == 0

    def test_bounded_staleness_pumps_down_to_the_window(self, group):
        fresh = [self.new_file(i) for i in range(1, 5)]
        for f in fresh:
            group.insert(f)
        replica = group.members[1]
        assert replica.lag() == 4
        # Serve every read from the replica (rotation alternates), asking
        # for at most 2 stale records: the pump drains exactly down to 2.
        for _ in range(2):
            group.read(
                PointQuery(fresh[0].filename),
                ReadContext(consistency="bounded", max_staleness=2),
            )
        assert replica.lag() == 2

    def test_default_read_is_fully_caught_up(self, group):
        fresh = self.new_file(9)
        group.insert(fresh)
        for _ in range(2):
            assert group.read(PointQuery(fresh.filename)).found

    def test_relaxed_consistency_through_the_client(self, tmp_path):
        """On a sync-mode replicated deployment every member is always
        caught up, so every consistency level answers identically —
        verifying the option plumbs through service and group."""
        population = make_files(40, clusters=4)
        spec = spec_for("replicated", tmp_path, replication_mode="sync")
        workload = [
            WIDE_RANGE,
            PointQuery(population[5].filename),
            TopKQuery(("size", "mtime"), (8192.0, 2100.0), 5),
        ]
        with connect(spec, population) as client:
            for query in workload:
                reference = result_fingerprint(client.execute(query).result)
                for level, staleness in (
                    ("primary", 0),
                    ("any_replica", 0),
                    ("bounded", 3),
                ):
                    got = client.execute(
                        query,
                        RequestOptions(consistency=level, max_staleness=staleness),
                    )
                    assert result_fingerprint(got.result) == reference


class TestCursorPagination:
    @pytest.mark.parametrize("topology", list(ALL_TOPOLOGIES))
    @pytest.mark.parametrize("page_size", [1, 7, 1000])
    def test_page_concatenation_equals_unpaginated(
        self, tmp_path, topology, page_size
    ):
        population = make_files(60, clusters=4)
        queries = [
            WIDE_RANGE,
            TopKQuery(("size", "mtime"), (8192.0, 2100.0), 20),
            PointQuery(population[3].filename),
        ]
        with connect(spec_for(topology, tmp_path), population) as client:
            for query in queries:
                full = client.execute(query).result
                pages = list(client.pages(query, page_size))
                files, distances = pages_payload(pages)
                assert payload_fingerprint(files, distances) == result_fingerprint(
                    full
                ), (topology, type(query).__name__, page_size)
                assert [p.page.index for p in pages] == list(range(len(pages)))
                assert all(len(p.page.files) <= page_size for p in pages)
                assert pages[-1].page.exhausted

    def test_pages_stay_stable_under_concurrent_mutations(self, tmp_path):
        """The acceptance property: page concatenation equals the
        unpaginated result *as of the first page*, even though mutations
        land between page fetches — the cursor pins the snapshot."""
        population = make_files(60, clusters=4)
        mutations = QueryWorkloadGenerator(population, seed=31).mutation_stream(6, 4, 3)
        for topology in ("plain", "sharded", "sharded_replicated"):
            with connect(spec_for(topology, tmp_path), population) as client:
                before = client.execute(WIDE_RANGE).result
                first = client.execute(WIDE_RANGE, RequestOptions(page_size=9))
                collected = [first]
                cursor = first.cursor
                for kind, file in mutations:  # land mid-stream
                    getattr(client, kind)(file)
                while cursor is not None:
                    page = client.execute(WIDE_RANGE, RequestOptions(cursor=cursor))
                    assert page.page.pinned
                    collected.append(page)
                    cursor = page.cursor
                files, distances = pages_payload(collected)
                assert payload_fingerprint(files, distances) == result_fingerprint(
                    before
                ), topology
                # And the live (unpinned) answer did move on.
                after = client.execute(WIDE_RANGE).result
                assert result_fingerprint(after) != result_fingerprint(before)

    def test_cursor_resumes_after_snapshot_loss(self, tmp_path):
        """A cursor outliving its pinned snapshot still resumes: the query
        re-executes and continues strictly after the last served key."""
        population = make_files(60, clusters=4)
        for query in (WIDE_RANGE, TopKQuery(("size", "mtime"), (8192.0, 2100.0), 25)):
            with connect(spec_for("sharded", tmp_path), population) as client:
                full = client.execute(query).result
                first = client.execute(query, RequestOptions(page_size=8))
                collected = [first]
                cursor = first.cursor
                lost = False
                while cursor is not None:
                    if not lost:
                        client._snapshots.clear()  # simulate restart/eviction
                        lost = True
                    page = client.execute(query, RequestOptions(cursor=cursor))
                    collected.append(page)
                    cursor = page.cursor
                assert not collected[1].page.pinned  # recomputed resume
                files, distances = pages_payload(collected)
                assert payload_fingerprint(files, distances) == result_fingerprint(full)

    def test_cursor_resume_across_primary_failover(self, tmp_path):
        """Mid-stream primary failover: later pages — pinned *and*
        recomputed — still concatenate to the original result."""
        population = make_files(60, clusters=4)
        spec = spec_for("sharded_replicated", tmp_path, replicas=2)
        with connect(spec, population) as client:
            full = client.execute(WIDE_RANGE).result
            first = client.execute(WIDE_RANGE, RequestOptions(page_size=10))
            injector = FaultInjector(client.store)
            killed = injector.crash_primary()
            assert killed  # every shard's primary is down
            collected = [first]
            cursor = first.cursor
            cleared = False
            while cursor is not None:
                page = client.execute(WIDE_RANGE, RequestOptions(cursor=cursor))
                collected.append(page)
                cursor = page.cursor
                if not cleared:
                    client._snapshots.clear()  # force one recomputed resume
                    cleared = True
            files, distances = pages_payload(collected)
            assert payload_fingerprint(files, distances) == result_fingerprint(full)
            # A write after the crash proves the failover really happened.
            fresh = FileMetadata(
                path="/fresh/after-failover.dat",
                attributes={
                    "size": 2048.0,
                    "ctime": 1010.0,
                    "mtime": 1111.0,
                    "atime": 1140.0,
                    "read_bytes": 1024.0,
                    "write_bytes": 256.0,
                    "access_count": 2.0,
                    "owner": 1.0,
                },
            )
            assert client.insert(fresh).receipt.known
            assert any(g.failovers > 0 for g in client.store.replica_groups())

    def test_cursor_of_other_query_rejected(self, tmp_path):
        population = make_files(30, clusters=3)
        with connect(spec_for("plain", tmp_path), population) as client:
            first = client.execute(WIDE_RANGE, RequestOptions(page_size=3))
            other = RangeQuery(("size",), (0.0,), (5e11,))
            with pytest.raises(InvalidCursorError, match="different query"):
                client.execute(other, RequestOptions(cursor=first.cursor))

    def test_garbage_cursor_rejected(self, tmp_path):
        population = make_files(30, clusters=3)
        with connect(spec_for("plain", tmp_path), population) as client:
            for token in ("not-base64!!", "aGVsbG8=", ""):
                with pytest.raises(InvalidCursorError):
                    client.execute(WIDE_RANGE, RequestOptions(cursor=token))

    def test_cursor_token_round_trip(self):
        cursor = Cursor(
            query_fp="ab" * 12,
            snapshot_id="s7",
            offset=42,
            last_key=(0.125, 991),
            epoch="(3, 4)",
            page_size=16,
            page_index=3,
        )
        assert Cursor.decode(cursor.encode()) == cursor
        plain = Cursor(
            query_fp="cd" * 12,
            snapshot_id="s8",
            offset=5,
            last_key=17,
            epoch="9",
            page_size=5,
        )
        assert Cursor.decode(plain.encode()) == plain
