"""Command-line interface: ``python -m repro <subcommand>``.

The CLI is a thin layer over the library so that the common workflows —
generate a trace, build a deployment, poke it with queries, compare against
the baselines — do not require writing a script.  Every subcommand prints
human-readable tables (the same formatter the benchmarks use) and most can
persist their artefacts via :mod:`repro.persistence`.

Subcommands
-----------
``trace``
    Generate one of the synthetic traces (hp / msn / eecs / generic), print
    its Tables-1-3-style summary and optionally save it as JSON-Lines.
``build``
    Build a SmartStore deployment over a trace or a saved population, print
    its statistics and optionally publish it as a segment snapshot that
    ``connect`` with ``storage.root`` cold-starts from.
``query``
    Build a deployment and run a single point / range / top-k query against
    it, printing the matching files and the query cost.
``compare``
    Run a mixed workload against SmartStore and the baselines (non-semantic
    R-tree, per-attribute DBMS, directory tree) and print the latency /
    message comparison (a small, live version of the paper's Table 4).
``serve``
    Stand a deployment spec up and serve it over TCP: the network front
    door.  Remote clients dial it with ``repro.api.connect("tcp://...")``
    and get the full client surface (queries with request options,
    pagination, mutations) over the wire protocol.
``bench``
    Run the exit-code-asserted correctness drills from the scenario table
    in :mod:`repro.bench` (``serve``, ``ingest``, ``shard``, ``reshard``,
    ``replica``, ``client``, ``storage``): each stands one layer
    of the service stack up, mutates / reshards / kills / restarts it and
    gates every answer against an unsharded baseline.  ``--list`` prints
    the table, ``--quick`` runs the CI sizing, ``--all`` regenerates every
    ``benchmarks/results/BENCH_<scenario>.json``.  Wall-clock performance
    is measured by ``benchmarks/perf/``, not here.
``lint``
    Run repro-lint — the project-specific invariant rules (deadline
    propagation, WAL-first ordering, lock discipline, error-envelope
    exhaustiveness, span coverage, determinism, exception hygiene) — over
    the source tree, gated by the committed ratchet baseline.  Exits
    non-zero on any finding not covered by the baseline, so CI runs it as
    the static-analysis gate.
``experiments``
    List the benchmark modules and the paper table/figure each regenerates.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.baselines.dbms import DBMSBaseline
from repro.baselines.rtree_db import RTreeBaseline
from repro.baselines.spyglass import SpyglassBaseline
from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.eval.harness import run_query_workload
from repro.eval.reporting import format_bytes, format_seconds, format_table
from repro.metadata.attributes import DEFAULT_SCHEMA
from repro.metadata.file_metadata import FileMetadata
from repro.namespace.baseline import DirectoryTreeBaseline
from repro.persistence import load_files, load_trace, save_files, save_trace
from repro.storage import SegmentStore
from repro.traces import TRACE_PROFILES, make_trace
from repro.workloads.generator import QueryWorkloadGenerator
from repro.workloads.types import PointQuery, RangeQuery, TopKQuery

__all__ = ["main", "build_parser"]

#: Benchmark module -> what it reproduces (used by ``repro experiments``).
EXPERIMENT_INDEX: Dict[str, str] = {
    "bench_tables_1_2_3_traces.py": "Tables 1-3: scaled-up HP/MSN/EECS trace statistics (TIF)",
    "bench_table4_query_latency.py": "Table 4: point/range/top-k latency, SmartStore vs R-tree vs DBMS",
    "bench_fig7_space_overhead.py": "Figure 7: per-node index space overhead",
    "bench_fig8_routing_hops.py": "Figure 8: routing-distance (hops) distribution",
    "bench_fig9_point_hit_rate.py": "Figure 9: Bloom-filter point-query hit rate",
    "bench_fig10_recall_distributions.py": "Figure 10: recall of complex queries per query distribution",
    "bench_fig11_optimal_thresholds.py": "Figure 11: optimal grouping thresholds vs scale / tree level",
    "bench_fig12_recall_scalability.py": "Figure 12: recall vs system scale",
    "bench_fig13_online_offline.py": "Figure 13: on-line vs off-line latency and messages",
    "bench_fig14_versioning_overhead.py": "Figure 14: versioning space and latency overhead",
    "bench_tables_5_6_versioning_recall.py": "Tables 5-6: recall with and without versioning",
    "bench_ablation_grouping.py": "Ablation: LSI grouping vs K-means vs random placement",
    "bench_ablation_autoconfig.py": "Ablation: automatic multi-tree configuration",
    "bench_ablation_bloom.py": "Ablation: Bloom filter sizing",
    "bench_ablation_directory.py": "Ablation: directory-tree organisation vs SmartStore (namespace locality)",
    "bench_ablation_failures.py": "Ablation: availability and root failover under unit crashes",
    "bench_ablation_spyglass.py": "Ablation: Spyglass-style single-server partitioned index vs SmartStore",
}


# ---------------------------------------------------------------------------- helpers
def _load_population(path: str) -> List[FileMetadata]:
    """Load a file population from either a trace or a population artefact."""
    try:
        return load_files(path)
    except ValueError:
        return load_trace(path).file_metadata()


def _print(text: str) -> None:
    sys.stdout.write(text + "\n")


def _summary_rows(summary) -> List[List[object]]:
    d = summary.as_dict()
    return [[key, value] for key, value in d.items()]


def _parse_range_terms(terms: Sequence[str]) -> RangeQuery:
    """Parse ``attr=lo:hi`` terms into a :class:`RangeQuery`."""
    attributes: List[str] = []
    lower: List[float] = []
    upper: List[float] = []
    for term in terms:
        if "=" not in term or ":" not in term.split("=", 1)[1]:
            raise ValueError(f"range term {term!r} must look like attr=lo:hi")
        name, bounds = term.split("=", 1)
        lo, hi = bounds.split(":", 1)
        attributes.append(name)
        lower.append(float(lo))
        upper.append(float(hi))
    return RangeQuery(tuple(attributes), tuple(lower), tuple(upper))


def _parse_topk_terms(terms: Sequence[str], k: int) -> TopKQuery:
    """Parse ``attr=value`` terms into a :class:`TopKQuery`."""
    attributes: List[str] = []
    values: List[float] = []
    for term in terms:
        if "=" not in term:
            raise ValueError(f"top-k term {term!r} must look like attr=value")
        name, value = term.split("=", 1)
        attributes.append(name)
        values.append(float(value))
    return TopKQuery(tuple(attributes), tuple(values), k)


# ---------------------------------------------------------------------------- subcommands
def _cmd_trace(args: argparse.Namespace) -> int:
    trace = make_trace(args.profile, args.scale, args.seed, args.tif)
    summary = trace.summary()
    _print(
        format_table(
            ["statistic", "value"],
            _summary_rows(summary),
            title=f"{args.profile.upper()} trace (scale={args.scale}, TIF={args.tif})",
        )
    )
    if args.output:
        lines = save_trace(trace, args.output)
        _print(f"trace written to {args.output} ({lines} lines)")
    if args.population_output:
        count = save_files(trace.file_metadata(), args.population_output)
        _print(f"file population written to {args.population_output} ({count} records)")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    if args.input:
        files = _load_population(args.input)
    else:
        files = make_trace(args.profile, args.scale, args.seed, 1).file_metadata()
    config = SmartStoreConfig(num_units=args.units, seed=args.seed, mode=args.mode)
    store = SmartStore.build(files, config)
    stats = store.stats()
    rows = [[key, value] for key, value in stats.items()]
    rows.append(["index space (pretty)", format_bytes(stats["index_space_bytes"])])
    _print(format_table(["statistic", "value"], rows, title="SmartStore deployment"))
    if args.snapshot:
        segstore = SegmentStore(args.snapshot)
        try:
            segstore.attach(store)
            segstore.publish_snapshot(store, wal_seq=0)
        finally:
            segstore.close()
        _print(f"segment snapshot published to {args.snapshot}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    files = _load_population(args.input) if args.input else make_trace(
        args.profile, args.scale, args.seed, 1
    ).file_metadata()
    store = SmartStore.build(files, SmartStoreConfig(num_units=args.units, seed=args.seed))

    if args.kind == "point":
        query = PointQuery(args.terms[0])
    elif args.kind == "range":
        query = _parse_range_terms(args.terms)
    else:
        query = _parse_topk_terms(args.terms, args.k)

    result = store.execute(query)
    rows = [
        [f.path, format_bytes(f.get("size")), f"{f.get('mtime'):.0f}"]
        for f in result.files[: args.limit]
    ]
    _print(
        format_table(
            ["path", "size", "mtime"],
            rows,
            title=f"{args.kind} query: {len(result.files)} result(s), "
            f"latency {format_seconds(result.latency)}, "
            f"{result.metrics.messages} messages, {result.hops} hop(s)",
        )
    )
    if len(result.files) > args.limit:
        _print(f"... {len(result.files) - args.limit} more result(s) not shown")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    files = _load_population(args.input) if args.input else make_trace(
        args.profile, args.scale, args.seed, 1
    ).file_metadata()

    store = SmartStore.build(files, SmartStoreConfig(num_units=args.units, seed=args.seed))
    systems = [
        ("SmartStore", store),
        ("R-tree (non-semantic)", RTreeBaseline(files, DEFAULT_SCHEMA)),
        ("DBMS (B+-tree per attribute)", DBMSBaseline(files, DEFAULT_SCHEMA)),
        ("Directory tree", DirectoryTreeBaseline(files, DEFAULT_SCHEMA)),
        ("Spyglass-style (K-D partitions)", SpyglassBaseline(files, DEFAULT_SCHEMA)),
    ]
    generator = QueryWorkloadGenerator(files, DEFAULT_SCHEMA, seed=args.seed)
    workloads = {
        "point": generator.point_queries(args.queries),
        "range": generator.range_queries(args.queries, distribution=args.distribution),
        "top-k": generator.topk_queries(args.queries, k=8, distribution=args.distribution),
    }

    rows = []
    for kind, queries in workloads.items():
        for name, system in systems:
            outcome = run_query_workload(system, queries)
            rows.append(
                [
                    kind,
                    name,
                    format_seconds(outcome.total_latency),
                    f"{outcome.total_messages}",
                ]
            )
    _print(
        format_table(
            ["workload", "system", "total latency", "messages"],
            rows,
            title=f"SmartStore vs. baselines ({len(files)} files, "
            f"{args.queries} queries per workload, {args.distribution} distribution)",
        )
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro import obs
    from repro.api import load_spec
    from repro.server import serve_spec

    if args.trace or args.slow_query_s is not None:
        # Before the deployment is built, so every layer it builds sees
        # the switches.
        obs.configure(
            tracing=bool(args.trace),
            slow_query_threshold_s=args.slow_query_s,
            slow_query_path=args.slow_query_log,
        )
        if args.trace:
            _print("tracing enabled (export via the trace_export op / repro obs-export)")
        if args.slow_query_s is not None:
            _print(f"slow-query log enabled at {args.slow_query_s}s threshold")

    spec = load_spec(args.spec)
    files = _load_population(args.input) if args.input else None

    server = serve_spec(
        spec,
        files,
        listen=args.listen,
        max_connections=args.max_connections,
        max_in_flight=args.max_in_flight,
        allow_remote_shutdown=args.allow_remote_shutdown,
    )
    _print(f"serving {spec.topology} deployment at {server.address}")
    sys.stdout.flush()

    stop = threading.Event()

    def _stop(signum, frame):  # pragma: no cover - signal path
        stop.set()

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, _stop)
        except ValueError:  # pragma: no cover - non-main-thread embedding
            pass
    try:
        # Wake periodically so remote shutdown (server._closed) is noticed.
        while not stop.is_set() and not server._closed:
            stop.wait(0.25)
    finally:
        server.close()
        _print("server stopped")
    return 0


def _cmd_obs_export(args: argparse.Namespace) -> int:
    from repro.obs import SpanCollector
    from repro.server.remote import connect_remote

    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with connect_remote(args.address) as client:
        metrics_text = client.metrics_text()
        spans = client.export_spans()

    prom_path = out_dir / f"{args.prefix}.prom"
    prom_path.write_text(metrics_text, encoding="utf-8")

    # Re-materialise the server's spans locally so both export formats
    # come from the same collector code path.
    collector = SpanCollector(capacity=max(1, len(spans) or 1))
    ingested = collector.ingest(spans)
    jsonl_path = collector.export_jsonl(out_dir / f"{args.prefix}_trace.jsonl")
    chrome_path = collector.export_chrome(
        out_dir / f"{args.prefix}_trace.chrome.json"
    )

    _print(f"wrote {prom_path} ({len(metrics_text.splitlines())} lines)")
    _print(f"wrote {jsonl_path} ({ingested} spans)")
    _print(f"wrote {chrome_path} (open in Perfetto / chrome://tracing)")
    if not ingested:
        _print("note: no spans on the server — was it started with --trace?")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    # Imported here: the drills pull in the whole service stack (sharding,
    # replication, storage), which the other subcommands never need.
    from repro.bench import SCENARIOS, run_bench

    return run_bench(
        SCENARIOS,
        args.scenarios,
        run_all=args.all,
        list_only=args.list,
        quick=args.quick,
    )


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run repro-lint (the project invariant rules) over a source tree.

    Exit code 0 when every finding is covered by the ratchet baseline
    (or there are none), 1 when new findings appear.  With
    ``--baseline-update`` the current findings *become* the baseline —
    the ratchet only ever moves deliberately.
    """
    from repro.analysis.engine import (
        load_baseline,
        run_lint,
        write_baseline,
    )
    from repro.analysis.rules import build_rules

    root = Path(args.root).resolve()
    if not root.is_dir():
        raise ValueError(f"lint root {root} is not a directory")
    baseline_path = (
        Path(args.baseline)
        if args.baseline is not None
        else root / "analysis" / "baseline.json"
    )

    if args.list_rules:
        rows = [[rule.name, rule.summary] for rule in build_rules()]
        _print(format_table(["rule", "invariant"], rows, title="repro-lint rules"))
        return 0

    report = run_lint(root)
    baseline = load_baseline(baseline_path)
    fresh = report.new_findings(baseline)

    if args.baseline_update:
        write_baseline(baseline_path, report.findings)
        _print(
            f"[baseline updated: {len(report.findings)} finding(s) "
            f"recorded in {baseline_path}]"
        )
        return 0

    for finding in fresh:
        _print(finding.render())
    waived = len(report.findings) - len(fresh)
    _print(
        f"[repro-lint: {report.files_checked} files, "
        f"{len(report.rule_names)} rules, {len(fresh)} new finding(s), "
        f"{waived} baselined, {len(report.suppressed)} suppressed]"
    )
    return 1 if fresh else 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    rows = [[module, what] for module, what in sorted(EXPERIMENT_INDEX.items())]
    _print(
        format_table(
            ["benchmark module", "reproduces"],
            rows,
            title="Run with: pytest benchmarks/<module> --benchmark-only",
        )
    )
    _print(
        "service-stack correctness drills: python -m repro bench --list; "
        "wall-clock performance: python benchmarks/perf/run.py"
    )
    return 0


# ---------------------------------------------------------------------------- parser
def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SmartStore (SC'09) reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_trace_source(p: argparse.ArgumentParser) -> None:
        p.add_argument("--profile", choices=TRACE_PROFILES, default="msn",
                       help="synthetic trace profile (default: msn)")
        p.add_argument("--scale", type=float, default=0.5,
                       help="trace down-scaling factor (default: 0.5)")
        p.add_argument("--seed", type=int, default=42, help="random seed")

    p_trace = sub.add_parser("trace", help="generate a synthetic trace")
    add_trace_source(p_trace)
    p_trace.add_argument("--tif", type=int, default=1,
                         help="Trace Intensifying Factor (sub-trace replication)")
    p_trace.add_argument("--output", help="write the trace as JSON-Lines")
    p_trace.add_argument("--population-output",
                         help="write only the file population as JSON-Lines")
    p_trace.set_defaults(func=_cmd_trace)

    p_build = sub.add_parser("build", help="build a SmartStore deployment")
    add_trace_source(p_build)
    p_build.add_argument("--input", help="population or trace JSON-Lines to index")
    p_build.add_argument("--units", type=int, default=60, help="number of storage units")
    p_build.add_argument("--mode", choices=("offline", "online"), default="offline")
    p_build.add_argument("--snapshot", help="publish a segment snapshot into this directory")
    p_build.set_defaults(func=_cmd_build)

    p_query = sub.add_parser("query", help="run one query against a deployment")
    add_trace_source(p_query)
    p_query.add_argument("--input", help="population or trace JSON-Lines to index")
    p_query.add_argument("--units", type=int, default=20, help="number of storage units")
    p_query.add_argument("--limit", type=int, default=10, help="max results to print")
    p_query.add_argument("-k", type=int, default=8, help="k for top-k queries")
    p_query.add_argument("kind", choices=("point", "range", "topk"))
    p_query.add_argument(
        "terms",
        nargs="+",
        help="point: FILENAME | range: attr=lo:hi ... | topk: attr=value ...",
    )
    p_query.set_defaults(func=_cmd_query)

    p_cmp = sub.add_parser("compare", help="compare SmartStore against the baselines")
    add_trace_source(p_cmp)
    p_cmp.add_argument("--input", help="population or trace JSON-Lines to index")
    p_cmp.add_argument("--units", type=int, default=20, help="number of storage units")
    p_cmp.add_argument("--queries", type=int, default=20, help="queries per workload")
    p_cmp.add_argument("--distribution", choices=("uniform", "gauss", "zipf"), default="zipf")
    p_cmp.set_defaults(func=_cmd_compare)

    p_srv = sub.add_parser(
        "serve",
        help="serve a deployment spec over TCP (the network front door)",
    )
    p_srv.add_argument("--spec", required=True,
                       help="deployment spec JSON to stand up and serve")
    p_srv.add_argument("--input",
                       help="population or trace JSON-Lines to index "
                       "(default: the spec's population path)")
    p_srv.add_argument("--listen",
                       help="tcp://host:port to bind (default: the spec's "
                       "listen address, else an ephemeral loopback port)")
    p_srv.add_argument("--max-connections", type=int, default=64,
                       help="concurrent connection cap")
    p_srv.add_argument("--max-in-flight", type=int, default=None,
                       help="concurrent request admission cap (composes with "
                       "the service's own max_in_flight)")
    p_srv.add_argument("--allow-remote-shutdown", action="store_true",
                       help="accept the wire protocol's shutdown op")
    p_srv.add_argument("--trace", action="store_true",
                       help="enable distributed tracing (spans exportable "
                       "via the trace_export op / repro obs-export)")
    p_srv.add_argument("--slow-query-s", type=float, default=None,
                       help="emit a structured slow-query record for "
                       "requests slower than this many seconds")
    p_srv.add_argument("--slow-query-log",
                       help="append slow-query records to this JSONL file "
                       "(default: in-memory ring only)")
    p_srv.set_defaults(func=_cmd_serve)

    p_obs = sub.add_parser(
        "obs-export",
        help="export metrics and traces from a running server",
    )
    p_obs.add_argument("--address", required=True,
                       help="tcp://host:port of the running repro serve")
    p_obs.add_argument("--output-dir", default="obs",
                       help="directory for the exported artefacts "
                       "(default: ./obs)")
    p_obs.add_argument("--prefix", default="repro",
                       help="artefact filename prefix (default: repro)")
    p_obs.set_defaults(func=_cmd_obs_export)

    p_bench = sub.add_parser(
        "bench",
        help="run the exit-code-asserted correctness drills (see --list)",
    )
    p_bench.add_argument("scenarios", nargs="*", metavar="SCENARIO",
                         help="scenario names from the table (see --list)")
    p_bench.add_argument("--all", action="store_true",
                         help="run every scenario in the table")
    p_bench.add_argument("--list", action="store_true",
                         help="print the scenario table and exit")
    p_bench.add_argument("--quick", action="store_true",
                         help="run the CI sizing instead of the one that "
                         "regenerates the committed artefacts")
    p_bench.set_defaults(func=_cmd_bench)

    p_lint = sub.add_parser(
        "lint",
        help="run the project invariant rules (repro-lint) over src/repro",
    )
    p_lint.add_argument(
        "--root",
        default=str(Path(__file__).resolve().parent),
        help="source tree to lint (default: the installed repro package)",
    )
    p_lint.add_argument(
        "--baseline",
        default=None,
        help="ratchet baseline JSON (default: <root>/analysis/baseline.json)",
    )
    p_lint.add_argument(
        "--baseline-update",
        action="store_true",
        help="accept the current findings as the new baseline",
    )
    p_lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    p_lint.set_defaults(func=_cmd_lint)

    p_exp = sub.add_parser("experiments", help="list the benchmark/experiment index")
    p_exp.set_defaults(func=_cmd_experiments)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, FileNotFoundError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
