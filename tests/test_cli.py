"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.bench import SCENARIOS, Scenario, Size, run_bench
from repro.bench.drills import NET_WALL_GATE
from repro.cli import (
    EXPERIMENT_INDEX,
    _parse_range_terms,
    _parse_topk_terms,
    build_parser,
    main,
)
from repro.persistence import load_snapshot, load_trace, save_files

from helpers import make_files


class TestParsers:
    def test_range_terms(self):
        q = _parse_range_terms(["size=10:20", "mtime=0:100"])
        assert q.attributes == ("size", "mtime")
        assert q.lower == (10.0, 0.0)
        assert q.upper == (20.0, 100.0)

    def test_range_terms_invalid(self):
        with pytest.raises(ValueError):
            _parse_range_terms(["size=10"])
        with pytest.raises(ValueError):
            _parse_range_terms(["size"])

    def test_topk_terms(self):
        q = _parse_topk_terms(["size=300", "mtime=50"], k=6)
        assert q.attributes == ("size", "mtime")
        assert q.values == (300.0, 50.0)
        assert q.k == 6

    def test_topk_terms_invalid(self):
        with pytest.raises(ValueError):
            _parse_topk_terms(["size"], k=3)

    def test_build_parser_has_all_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["experiments"])
        assert args.command == "experiments"


class TestTraceCommand:
    def test_trace_summary_printed(self, capsys):
        assert main(["trace", "--profile", "generic", "--scale", "0.05", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "trace" in out.lower()
        assert "total_requests" in out

    def test_trace_saved(self, tmp_path, capsys):
        out_file = tmp_path / "trace.jsonl"
        pop_file = tmp_path / "pop.jsonl"
        code = main([
            "trace", "--profile", "generic", "--scale", "0.05", "--seed", "2",
            "--output", str(out_file), "--population-output", str(pop_file),
        ])
        assert code == 0
        trace = load_trace(out_file)
        assert len(trace.files) > 0
        assert pop_file.exists()

    def test_trace_with_tif(self, capsys):
        assert main(["trace", "--profile", "generic", "--scale", "0.05", "--tif", "3"]) == 0
        assert "TIF=3" in capsys.readouterr().out


class TestBuildCommand:
    def test_build_from_profile(self, capsys, tmp_path):
        snap_path = tmp_path / "snap.json"
        code = main([
            "build", "--profile", "generic", "--scale", "0.05", "--units", "6",
            "--snapshot", str(snap_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "num_units" in out
        snapshot = load_snapshot(snap_path)
        assert snapshot.num_units == 6

    def test_build_from_saved_population(self, capsys, tmp_path):
        pop = tmp_path / "pop.jsonl"
        save_files(make_files(80, clusters=4), pop)
        assert main(["build", "--input", str(pop), "--units", "5"]) == 0
        assert "num_files" in capsys.readouterr().out

    def test_build_missing_input_file(self, capsys):
        assert main(["build", "--input", "/no/such/file.jsonl"]) == 2
        assert "error:" in capsys.readouterr().err


class TestQueryCommand:
    @pytest.fixture()
    def population(self, tmp_path):
        path = tmp_path / "pop.jsonl"
        save_files(make_files(120, clusters=4), path)
        return str(path)

    def test_point_query(self, population, capsys):
        files = make_files(120, clusters=4)
        code = main([
            "query", "--input", population, "--units", "6", "point", files[0].filename,
        ])
        assert code == 0
        assert "point query" in capsys.readouterr().out

    def test_range_query(self, population, capsys):
        code = main([
            "query", "--input", population, "--units", "6",
            "range", "size=0:1e9", "owner=0:1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "range query" in out
        assert "latency" in out

    def test_topk_query(self, population, capsys):
        code = main([
            "query", "--input", population, "--units", "6", "-k", "5",
            "topk", "size=4096", "mtime=2100",
        ])
        assert code == 0
        assert "5" in capsys.readouterr().out

    def test_bad_range_term_is_an_error(self, population, capsys):
        code = main(["query", "--input", population, "range", "size"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestCompareCommand:
    def test_compare_prints_all_systems(self, capsys, tmp_path):
        pop = tmp_path / "pop.jsonl"
        save_files(make_files(100, clusters=4), pop)
        code = main([
            "compare", "--input", str(pop), "--units", "5", "--queries", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("SmartStore", "R-tree", "DBMS", "Directory tree", "Spyglass"):
            assert name in out


class TestBenchCommand:
    """`repro bench`: one parametrised drill per scenario-table row."""

    @pytest.mark.parametrize("name", list(SCENARIOS))
    def test_quick_drill_passes_and_reports_every_declared_gate(
        self, name, capsys, _bench_artefacts_in_tmp
    ):
        # Exit code 0 is itself the assertion that every gate passed.
        assert main(["bench", name, "--quick"]) == 0
        out = capsys.readouterr().out
        assert f"== bench {name} (quick)" in out
        doc = json.loads((_bench_artefacts_in_tmp / f"BENCH_{name}.json").read_text())
        assert doc["config"]["mode"] == "quick"
        # The emitted gate set is exactly the declared one: no gate can be
        # dropped (or invented) silently.  A gate the host cannot run is
        # reported under "skipped" with its reason, never as passed.
        assert set(doc["gates"]) | set(doc["skipped"]) == set(SCENARIOS[name].gates)
        assert not set(doc["gates"]) & set(doc["skipped"])
        assert all(doc["gates"].values())
        for gate in doc["gates"]:
            assert gate in out

    def test_declared_gates_are_the_committed_ones(self):
        # The names CI and downstream tooling key on (PR 13's committed
        # artefacts, minus the three demoted busy-makespan proxy gates).
        assert SCENARIOS["serve"].gates == ("all results identical to serial baseline",)
        assert set(SCENARIOS["ingest"].gates) == {
            "crash recovery identical", "drain == fresh build"}
        assert "4 shard(s): mutations in flight identical" in SCENARIOS["shard"].gates
        assert "rebalanced: utilization > 0.55" in SCENARIOS["reshard"].gates
        assert "async: lag within bounded window" in SCENARIOS["replica"].gates
        assert "sync: every primary failed over" in SCENARIOS["replica"].gates
        assert "page concatenation equals unpaginated result" in SCENARIOS["client"].gates
        assert "recovery speedup >= 5x" in SCENARIOS["storage"].gates
        assert "recovery is O(tail)" in SCENARIOS["storage"].gates
        every = {g for s in SCENARIOS.values() for g in s.gates}
        assert not every & {
            "scatter throughput >= 1.50x",
            "4-worker scatter throughput >= 2.50x of 1-worker",
            "rebalanced: speedup > 1.3x",
        }
        assert [len(s.gates) for s in SCENARIOS.values()] == [1, 2, 6, 9, 11, 3, 3, 4]

    def test_committed_artefacts_report_the_declared_gate_sets(self):
        # Shape only: tier-1 must not hinge on which host or revision last
        # regenerated the checked-in data (`python -m repro bench --all`).
        results = Path(__file__).resolve().parent.parent / "benchmarks" / "results"
        assert {p.name for p in results.glob("BENCH_*.json")} == {
            f"BENCH_{name}.json" for name in SCENARIOS
        }
        for name, scenario in SCENARIOS.items():
            doc = json.loads((results / f"BENCH_{name}.json").read_text())
            assert {"gates", "skipped", "wall", "modeled"} <= set(doc), name
            assert set(doc["gates"]) | set(doc["skipped"]) == set(scenario.gates), name

    @pytest.mark.parametrize("cores", [1, 4])
    def test_quick_net_drill_does_not_depend_on_the_core_count(
        self, cores, monkeypatch, capsys, _bench_artefacts_in_tmp
    ):
        # The wall-clock scaling ratio is a property of the host; the quick
        # sizing (CI, this suite) never judges it.
        monkeypatch.setattr("os.cpu_count", lambda: cores)
        assert main(["bench", "net", "--quick"]) == 0
        doc = json.loads((_bench_artefacts_in_tmp / "BENCH_net.json").read_text())
        assert doc["skipped"] == {NET_WALL_GATE: "quick sizing"}
        assert doc["wall"]["cores"] == cores and doc["wall"]["wall_speedup"] > 0

    def test_full_net_drill_judges_the_wall_gate_only_where_the_cores_exist(
        self, monkeypatch, capsys, _bench_artefacts_in_tmp
    ):
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        assert main(["bench", "net"]) == 0
        doc = json.loads((_bench_artefacts_in_tmp / "BENCH_net.json").read_text())
        assert doc["skipped"] == {NET_WALL_GATE: "2 cores"}
        # With the cores claimed the ratio is judged, and the exit code
        # follows the measurement whichever way it falls on this host.
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        code = main(["bench", "net"])
        doc = json.loads((_bench_artefacts_in_tmp / "BENCH_net.json").read_text())
        assert not doc["skipped"]
        assert doc["gates"][NET_WALL_GATE] == (doc["wall"]["wall_speedup"] >= 2.5)
        assert code == (0 if doc["gates"][NET_WALL_GATE] else 1)

    def test_proxy_figures_are_reported_as_modeled_not_gated(
        self, capsys, _bench_artefacts_in_tmp
    ):
        assert main(["bench", "shard", "--quick"]) == 0
        doc = json.loads((_bench_artefacts_in_tmp / "BENCH_shard.json").read_text())
        assert doc["modeled"]["scatter_speedup"] > 0
        assert {"busy_makespan_s", "scatter_qps"} <= set(doc["modeled"]["rows"][0])
        assert "busy_makespan_s" not in doc["wall"]["rows"][0]
        assert "mix_wall_s" not in doc["modeled"]["rows"][0]

    def test_list_prints_the_scenario_table(self, capsys, _bench_artefacts_in_tmp):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for scenario in SCENARIOS.values():
            assert scenario.name in out and scenario.deployment in out
        assert not list(_bench_artefacts_in_tmp.iterdir())  # listed, not run

    def test_unknown_scenario_is_an_error(self, capsys):
        assert main(["bench", "serve", "nope", "--quick"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err and "nope" in err

    def test_no_scenario_is_an_error(self, capsys):
        assert main(["bench"]) == 2
        assert "--all" in capsys.readouterr().err

    def test_bench_takes_no_sizing_flags(self, capsys):
        # Sizes are per-scenario constants; the 66 per-bench flags are gone.
        with pytest.raises(SystemExit):
            main(["bench", "serve", "--scale", "0.1"])
        assert "unrecognized arguments" in capsys.readouterr().err

    @staticmethod
    def _stub(drill, gates):
        size = Size("generic", 0.05, seed=1, units=4, queries=2)
        return Scenario(
            name="stub", summary="stub", deployment="none", perf_workload="-",
            drill=drill, quick=size, full=size, gates=gates,
        )

    def test_false_gate_yields_exit_1(self, capsys):
        def drill(run):
            run.gate("holds", True)
            run.gate("breaks", False)

        table = {"stub": self._stub(drill, ("holds", "breaks"))}
        code = run_bench(table, ["stub"], run_all=False, list_only=False, quick=True)
        assert code == 1
        out = capsys.readouterr().out
        assert "NO" in out

    def test_dropped_gate_yields_exit_1(self, capsys, _bench_artefacts_in_tmp):
        table = {"stub": self._stub(lambda run: run.gate("holds", True), ("holds", "dropped"))}
        assert run_bench(table, [], run_all=True, list_only=False, quick=True) == 1
        doc = json.loads((_bench_artefacts_in_tmp / "BENCH_stub.json").read_text())
        assert doc["gates"] == {"holds": True, "dropped": False}

    def test_undeclared_gate_is_rejected(self):
        table = {"stub": self._stub(lambda run: run.gate("surprise", True), ())}
        with pytest.raises(RuntimeError, match="does not declare"):
            run_bench(table, ["stub"], run_all=False, list_only=False, quick=True)


class TestExperimentsCommand:
    def test_lists_every_bench_module(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for module in EXPERIMENT_INDEX:
            assert module in out
        assert "repro bench --list" in out

    def test_index_is_exactly_the_paper_benchmarks_on_disk(self):
        benchmarks = Path(__file__).resolve().parent.parent / "benchmarks"
        assert set(EXPERIMENT_INDEX) == {p.name for p in benchmarks.glob("bench_*.py")}
