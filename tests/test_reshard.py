"""Online elasticity: the reshard controller, live rebalance, and the
balanced-fallback partitioner fix.

The bugfix story this file gates:

* **the bug** — the legacy popularity-weighted cuts concentrate half of
  the CLI-default seed-42 corpus on one shard (a degenerate partition;
  scatter "speedup" ~1.0x).  The balanced fallback caps any shard's
  population share, and the fixed build clears the effective-utilization
  floor the degenerate build failed;
* **the repair** — on a live degenerate router,
  :meth:`~repro.shard.reshard.ReshardController.run_once` rebalances
  (recut / migrate / repack) without stopping the deployment: answers
  are fingerprint-identical across the repair, the composite cache
  epoch's *arity* grows (every cached result stale by construction),
  and the post-repair partition is balanced;
* **the decisions** — unsupported topologies refuse politely, balanced
  partitions skip, ``force=True`` overrides verdicts but never safety
  checks, a performed reshard arms the anti-flapping cooldown, and
  policy bounds (``max_shards``, ``min_split_population``) annotate the
  outcome instead of raising;
* **cursors survive** — a paginated read opened before a forced reshard
  finishes byte-identical to the unpaginated result (placement-
  independent cursors);
* **storm smoke** — reader threads racing a live split + rebalance see
  zero errors and identical answers before and after.
"""

import threading

import numpy as np
import pytest

from repro.api import DeploymentSpec, RequestOptions, connect
from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.metadata.attributes import DEFAULT_SCHEMA
from repro.server import serve_spec
from repro.service import QueryService, ServiceConfig
from repro.service.cache import result_fingerprint
from repro.shard import SemanticShardPartitioner
from repro.shard.reshard import FRESH_PLACEMENT, ReshardController, ReshardPolicy
from repro.shard.build import build_router
from repro.traces.msn import msn_trace
from repro.workloads.generator import QueryWorkloadGenerator
from repro.workloads.types import RangeQuery

from helpers import make_files

SMALL_CONFIG = SmartStoreConfig(num_units=8, seed=2, search_breadth=64)

# The CLI-default recipe that exhibited the degenerate partition: seed-42
# corpus at scale 0.5 (1250 files), 16 units over 4 shards.
CLI_SEED = 42
CLI_SHARDS = 4
CLI_CONFIG = SmartStoreConfig(num_units=16, seed=CLI_SEED, search_breadth=64)

WIDE_RANGE = RangeQuery(("size",), (0.0,), (1e12,))


@pytest.fixture(scope="module")
def small_files():
    return make_files(160, clusters=4)


@pytest.fixture(scope="module")
def cli_corpus():
    return msn_trace(scale=0.5, seed=CLI_SEED).file_metadata()


@pytest.fixture(scope="module")
def cli_workload(cli_corpus):
    """(point queries, range/top-k mix): the `repro bench reshard` probe set."""
    generator = QueryWorkloadGenerator(cli_corpus, DEFAULT_SCHEMA, seed=CLI_SEED + 1)
    points = generator.point_queries(8, existing_fraction=0.8)
    return points, generator.mixed_complex_queries(8, 8, k=8, distribution="zipf")


def fingerprints(target, queries):
    return [result_fingerprint(target.execute(q)) for q in queries]


# ------------------------------------------------------------------ the bug
class TestBalancedFallback:
    """The partitioner regression: legacy weighted cuts degenerate on the
    CLI-default corpus; the balanced fallback caps the share."""

    def test_legacy_cuts_reproduce_the_degenerate_partition(self, cli_corpus):
        legacy = SemanticShardPartitioner(
            cli_corpus, CLI_SHARDS, balance_fallback=False
        )
        counts = np.bincount(legacy.labels, minlength=CLI_SHARDS)
        # Half the corpus on one shard — the partition PR 8's bench
        # flagged (populations [644, 339, 70, 197] on this corpus).
        assert counts.max() / counts.sum() >= 0.5

    def test_balanced_fallback_caps_the_share(self, cli_corpus):
        part = SemanticShardPartitioner(cli_corpus, CLI_SHARDS)
        counts = np.bincount(part.labels, minlength=CLI_SHARDS)
        assert counts.min() > 0
        load_cap = min(0.9, 2.0 / CLI_SHARDS)
        assert counts.max() / counts.sum() < load_cap

    def test_cli_default_build_clears_the_utilization_floor(
        self, cli_corpus, cli_workload
    ):
        """The satellite acceptance: seed-42 / 16-unit / 4-shard with the
        fallback on measures > 0.55 effective utilization (the degenerate
        build measured 0.51)."""
        _, complex_mix = cli_workload
        with build_router(cli_corpus, CLI_SHARDS, CLI_CONFIG) as router:
            for query in complex_mix:
                router.execute(query)
            load = router.load_report()
            assert not load.degenerate
            assert load.busy_utilization > 0.55


# ------------------------------------------------------------------ the repair
class TestDegenerateRebalanceLive:
    """run_once() on a live degenerate router: the whole repair story in
    one pass — verdict, rebalance, equivalence, flush, cooldown."""

    def test_run_once_repairs_the_degenerate_partition(
        self, cli_corpus, cli_workload
    ):
        points, complex_mix = cli_workload
        queries = list(points) + list(complex_mix)
        with build_router(
            cli_corpus, CLI_SHARDS, CLI_CONFIG, balance_fallback=False
        ) as router:
            # The bug is live: the legacy build is degenerate by
            # population share alone (no traffic needed for the verdict).
            before = router.load_report()
            assert before.degenerate
            assert before.population_share >= 0.5

            reference = fingerprints(router, queries)
            arity_before = len(router.versioning.change_clock)
            epoch_before = router.versioning.change_clock

            controller = ReshardController(router)
            outcome = controller.run_once()  # unforced: the real verdict
            assert outcome.performed
            assert outcome.action == "rebalance"
            assert outcome.moved > 0
            assert outcome.repacked == CLI_SHARDS
            assert controller.rebalances == 1

            # Same shard count, balanced placement, identical answers.
            after = router.load_report()
            assert after.shards == CLI_SHARDS
            assert not after.degenerate
            assert after.population_share < before.population_share
            assert sum(after.populations) == sum(before.populations)
            assert fingerprints(router, queries) == reference

            # Repack re-registers every store: the composite epoch's
            # arity grows, so no pre-rebalance epoch compares equal.
            assert len(router.versioning.change_clock) > arity_before
            assert router.versioning.change_clock != epoch_before

            # The performed action armed the cooldown (anti-flapping):
            # the next pass sits out instead of judging the thin
            # post-reset busy sample, and the one after sees balance.
            _, reason = controller.evaluate()
            assert reason == "cooling down after a recent reshard"
            _, reason = controller.evaluate()
            assert reason == "partition is balanced"

            # The repaired topology clears the utilization floor the
            # degenerate build failed.
            for query in complex_mix:
                router.execute(query)
            assert router.load_report().busy_utilization > 0.55


# ------------------------------------------------------------------ decisions
class TestControllerDecisions:
    def test_hash_partitioner_is_unsupported_even_forced(self, small_files):
        with build_router(
            small_files, 2, SMALL_CONFIG, partitioner="hash"
        ) as router:
            controller = ReshardController(router)
            outcome = controller.run_once()
            assert not outcome.performed
            assert outcome.action == "none"
            assert "does not support" in outcome.reason
            # force overrides verdicts, never support checks.
            forced = controller.run_once(force=True)
            assert not forced.performed
            assert forced.reason == outcome.reason
            assert controller.skipped == 2

    def test_balanced_partition_skips(self, small_files):
        with build_router(small_files, 2, SMALL_CONFIG) as router:
            controller = ReshardController(router)
            outcome = controller.run_once()
            assert not outcome.performed
            assert outcome.reason == "partition is balanced"
            assert outcome.action == "none"
            assert outcome.load["populations"] == router.load_report().populations

    def test_forced_pass_on_fresh_placement_splits(self, small_files):
        """A freshly built balanced router already matches its own fresh
        quantiles, so the forced pass falls through the rebalance to the
        split path and grows the topology — answers unchanged."""
        generator = QueryWorkloadGenerator(small_files, DEFAULT_SCHEMA, seed=11)
        queries = generator.range_queries(4, distribution="zipf") + (
            generator.topk_queries(4, k=6, distribution="zipf")
        )
        with build_router(small_files, 2, SMALL_CONFIG) as router:
            reference = fingerprints(router, queries)
            controller = ReshardController(router)
            outcome = controller.run_once(force=True)
            assert outcome.performed
            assert outcome.action == "split"
            assert router.num_shards == 3
            assert len(router.versioning.change_clock) == 3
            assert fingerprints(router, queries) == reference
            # Union population is preserved; the moved files left the
            # source shard (disjoint populations after the handoff).
            load = router.load_report()
            assert sum(load.populations) == len(small_files)
            assert min(load.populations) > 0

    def test_cooldown_is_consumed_then_cleared(self, small_files):
        with build_router(small_files, 2, SMALL_CONFIG) as router:
            controller = ReshardController(router)
            assert controller.run_once(force=True).performed
            _, reason = controller.evaluate()
            assert reason == "cooling down after a recent reshard"
            _, reason = controller.evaluate()
            assert reason != "cooling down after a recent reshard"

    def test_force_overrides_cooldown(self, small_files):
        with build_router(small_files, 2, SMALL_CONFIG) as router:
            controller = ReshardController(
                router, ReshardPolicy(cooldown_evaluations=5)
            )
            assert controller.run_once(force=True).performed
            # Unforced passes sit out the cooldown...
            assert not controller.run_once().performed
            # ...but force is explicitly allowed through it.
            forced = controller.run_once(force=True)
            assert "cooling down" not in forced.reason

    def test_max_shards_refusal_annotates_the_outcome(self, small_files):
        with build_router(small_files, 2, SMALL_CONFIG) as router:
            controller = ReshardController(router, ReshardPolicy(max_shards=2))
            outcome = controller.run_once(force=True)
            assert not outcome.performed
            assert outcome.reason.startswith(FRESH_PLACEMENT)
            assert "max_shards=2" in outcome.reason
            assert router.num_shards == 2

    def test_min_split_population_refusal(self, small_files):
        with build_router(small_files, 2, SMALL_CONFIG) as router:
            controller = ReshardController(
                router, ReshardPolicy(min_split_population=10_000)
            )
            outcome = controller.run_once(force=True)
            assert not outcome.performed
            assert "min_split_population" in outcome.reason
            assert router.num_shards == 2

    def test_split_of_unknown_shard_refuses(self, small_files):
        with build_router(small_files, 2, SMALL_CONFIG) as router:
            controller = ReshardController(router)
            outcome = controller.split(99)
            assert not outcome.performed
            assert "no shard 99" in outcome.reason
            assert outcome.action == "split"


# ------------------------------------------------------------------ cache epochs
class TestEpochArityFlush:
    """Satellite regression alongside tests/test_service_cache.py: a
    shard-count change is a global cache flush *by construction* — the
    composite epoch tuple grows arity, so no stale entry can ever hit."""

    def test_split_grows_epoch_arity_and_flushes_service_cache(
        self, small_files
    ):
        generator = QueryWorkloadGenerator(small_files, DEFAULT_SCHEMA, seed=13)
        queries = generator.range_queries(4, distribution="zipf") + (
            generator.topk_queries(4, k=6, distribution="zipf")
        )
        with build_router(small_files, 2, SMALL_CONFIG) as router:
            with QueryService(router, ServiceConfig(seed=9)) as service:
                reference = [
                    result_fingerprint(r)
                    for r in service.execute_many(list(queries))
                ]
                # Warm cache: the re-run hits.
                service.execute_many(list(queries))
                assert service.cache.stats.hits > 0
                epoch_before = router.versioning.change_clock

                outcome = ReshardController(router).run_once(force=True)
                assert outcome.performed

                assert len(router.versioning.change_clock) > len(epoch_before)
                assert router.versioning.change_clock != epoch_before
                results = service.execute_many(list(queries))
                assert [result_fingerprint(r) for r in results] == reference
                assert service.cache.stats.invalidations >= 1


# ------------------------------------------------------------------ cursors
class TestCursorsSurviveReshard:
    """Satellite: a page stream opened before the reshard concatenates to
    the unpaginated result — cursors are placement-independent."""

    @staticmethod
    def _pages_payload(pages):
        files = [f for p in pages for f in p.page.files]
        distances = [d for p in pages for d in p.page.distances]
        return files, distances

    def test_pages_concatenate_identically_across_forced_reshard(
        self, small_files, tmp_path
    ):
        spec = DeploymentSpec(
            topology="sharded",
            store=SmartStoreConfig(num_units=6, seed=3, search_breadth=64),
            shards=2,
        )
        client = connect(spec, small_files)
        try:
            reference = result_fingerprint(client.execute(WIDE_RANGE).result)

            first = client.execute(WIDE_RANGE, RequestOptions(page_size=13))
            pages = [first]
            outcome = client.reshard(force=True)
            assert outcome["performed"]
            cursor = first.cursor
            while cursor is not None:
                page = client.execute(
                    WIDE_RANGE, RequestOptions(cursor=cursor)
                )
                pages.append(page)
                cursor = page.cursor
            assert len(pages) > 2
            files, distances = self._pages_payload(pages)
            from repro.cluster.metrics import Metrics
            from repro.core.queries import QueryResult

            got = result_fingerprint(
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
            assert got == reference
            # A stream opened *after* the reshard answers identically too.
            post = list(client.pages(WIDE_RANGE, page_size=13))
            files, distances = self._pages_payload(post)
            got = result_fingerprint(
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
            assert got == reference
        finally:
            client.close()


# ------------------------------------------------------------------ API surface
class TestReshardSurface:
    def test_plain_topology_reports_advisory_refusal(self, small_files):
        spec = DeploymentSpec(
            topology="plain",
            store=SmartStoreConfig(num_units=6, seed=3, search_breadth=64),
        )
        client = connect(spec, small_files)
        try:
            outcome = client.reshard()
            assert outcome["performed"] is False
            assert outcome["action"] == "none"
            assert "plain" in outcome["reason"]
        finally:
            client.close()

    def test_remote_reshard_op_round_trips(self, small_files):
        spec = DeploymentSpec(
            topology="sharded",
            store=SmartStoreConfig(num_units=6, seed=3, search_breadth=64),
            shards=2,
        )
        server = serve_spec(spec, small_files)
        try:
            remote = connect(server.address)
            try:
                reference = result_fingerprint(
                    remote.execute(WIDE_RANGE).result
                )
                outcome = remote.reshard(force=True)
                assert outcome["performed"] is True
                assert outcome["action"] in ("split", "rebalance")
                after = result_fingerprint(remote.execute(WIDE_RANGE).result)
                assert after == reference
            finally:
                remote.close()
        finally:
            server.close()


# ------------------------------------------------------------------ storm smoke
class TestStormSmoke:
    """Readers racing a live split and rebalance: zero errors, identical
    answers, population preserved (the drain-inside-exclusive contract)."""

    def test_readers_race_split_and_rebalance(self, small_files):
        generator = QueryWorkloadGenerator(small_files, DEFAULT_SCHEMA, seed=19)
        queries = generator.range_queries(4, distribution="zipf") + (
            generator.topk_queries(4, k=6, distribution="zipf")
        )
        with build_router(small_files, 2, SMALL_CONFIG) as router:
            reference = fingerprints(router, queries)
            controller = ReshardController(router)
            errors = []
            stop = threading.Event()

            def reader():
                while not stop.is_set():
                    try:
                        for query in queries:
                            router.execute(query)
                    except Exception as exc:  # noqa: BLE001 - the assertion
                        errors.append(exc)
                        return

            threads = [threading.Thread(target=reader) for _ in range(4)]
            for t in threads:
                t.start()
            try:
                load = router.load_report()
                hot = load.hottest_shard()
                assert controller.split(hot if hot is not None else 0).performed
                controller.rebalance()  # may be FRESH_PLACEMENT; must not race
            finally:
                stop.set()
                for t in threads:
                    t.join(timeout=30.0)
            assert not errors, f"reader hit {errors[0]!r}"
            assert fingerprints(router, queries) == reference
            assert sum(router.load_report().populations) == len(small_files)
