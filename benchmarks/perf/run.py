#!/usr/bin/env python3
"""One wall-clock benchmark for the whole request path.

Two ways to run it, from the repository root:

* the report (people)::

      PYTHONPATH=src python benchmarks/perf/run.py [--workload NAME ...]
          [--seed N] [--passes N] [--quick] [--compare PREV.json]

  runs every workload (each in its own child process, once untraced for
  the end-to-end metrics and once traced for the per-layer peel), prints
  every metric by name with unit, value and spread, checks every answer
  against the oracle, and writes ``results/latest.json`` plus one
  ``results/trace_<workload>.jsonl`` per workload;

* one measured run (the driver, and the report's own children)::

      python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

  whose last line of output is one JSON object with ``correct``,
  ``attempted``, ``failed`` and ``metrics``.

``--selftest`` checks the oracle against ``repro.eval.recall`` instead.
See README.md beside this file for the workloads, metrics and method.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
RESULTS = HERE / "results"
WORK = HERE / ".work"

# The program under test is imported from source; the harness's own
# modules sit beside this file.
sys.path[:0] = [str(HERE), str(REPO / "src")]


def load_contract() -> Dict[str, Any]:
    with (REPO / "BENCHMARK.json").open("r", encoding="utf-8") as fh:
        return json.load(fh)


def single_run(args: argparse.Namespace) -> int:
    """One workload, one seed, one JSON line."""
    from perfbench.workloads import RunConfig, run_workload

    contract = load_contract()
    listed = contract["per_layer"] if args.trace else contract["end_to_end"]
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload[0]}-", dir=WORK))
    started = perf_counter()
    try:
        result = run_workload(
            RunConfig(
                workload=args.workload[0],
                seed=args.seed,
                trace=bool(args.trace),
                workdir=workdir,
                results_dir=RESULTS,
                seconds=args.seconds,
                passes=args.passes,
                quick=args.quick,
            ),
            Path(__file__).resolve(),
            REPO / "src",
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wall = perf_counter() - started

    if args.detail_out:
        doc = {
            "workload": args.workload[0],
            "seed": args.seed,
            "trace": bool(args.trace),
            "wall_s": wall,
            "metrics": result.metrics,
            "attempted": result.tally.attempted,
            "failed": result.tally.failed,
            "detail": result.detail,
        }
        Path(args.detail_out).write_text(json.dumps(doc, indent=1), encoding="utf-8")

    # The contract's view: every listed metric, value and unit only; a
    # per-layer metric this workload does not exercise reads 0.
    metrics = {}
    for entry in listed:
        doc = result.metrics.get(entry["name"])
        metrics[entry["name"]] = {
            "value": doc["value"] if doc is not None else 0.0,
            "unit": entry["unit"],
        }
    tally = result.tally
    correct = tally.failed == 0 and tally.recall == 1.0
    for line in tally.failures:
        print(f"FAILED: {line}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="workload name (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measure each workload this long")
    parser.add_argument("--passes", type=int, help="measure exactly this many passes instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="one measured run: 0 end-to-end, 1 per-layer")
    parser.add_argument("--quick", action="store_true", help="smoke mode: 5,000 files, 1 pass, a tenth of the ops")
    parser.add_argument("--compare", metavar="PREV.json", help="diff this run against a previous results file")
    parser.add_argument("--selftest", action="store_true", help="check the oracle and exit")
    parser.add_argument("--detail-out", help=argparse.SUPPRESS)
    parser.add_argument("--host-job", help=argparse.SUPPRESS)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.host_job:
        from perfbench.hosts import run_host_job

        return run_host_job(args.host_job)
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            print("error: --trace needs exactly one --workload", file=sys.stderr)
            return 2
        if args.seconds is None and args.passes is None:
            print("error: --trace needs --seconds (or --passes)", file=sys.stderr)
            return 2
        return single_run(args)
    if args.selftest:
        from perfbench.selftest import run_selftest

        return run_selftest(REPO / "BENCHMARK.json")
    from perfbench.report import run_report

    return run_report(args, Path(__file__).resolve(), REPO, RESULTS)


if __name__ == "__main__":
    sys.exit(main())
