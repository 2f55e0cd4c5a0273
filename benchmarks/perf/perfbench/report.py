"""The report: every workload, every metric by name, one results file.

Each workload runs in two child processes of its own — untraced for the
end-to-end metrics, traced for the per-layer peel — so peak memory and
cache state are per workload and the tracer can never touch an
end-to-end number.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

import numpy

import repro

from .catalog import END_TO_END, PER_LAYER, WORKLOADS, Metric
from .compare import comparable, compare

__all__ = ["run_report"]

#: Measured passes of a full report run.
PASSES = 5

#: A child that runs longer than this is killed and reported as failed.
CHILD_TIMEOUT_S = 600.0


def _git_revision(repo: Path) -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=repo, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _stamp(repo: Path, args: Any, passes: Optional[int]) -> Dict[str, Any]:
    return {
        "format": "repro.perf-results",
        "version": 1,
        "repo_version": repro.__version__,
        "git_revision": _git_revision(repo),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": args.seed,
        "passes": passes,
        "seconds": args.seconds,
        "quick": bool(args.quick),
        "started": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _run_child(
    script: Path, workload: str, trace: int, args: Any, passes: Optional[int]
) -> Dict[str, Any]:
    """One measured run in a fresh interpreter; returns its detail document."""
    with tempfile.TemporaryDirectory(prefix="report-", dir=script.parent / ".work") as tmp:
        detail = Path(tmp) / "detail.json"
        command = [
            sys.executable, str(script),
            "--workload", workload, "--seed", str(args.seed), "--trace", str(trace),
            "--detail-out", str(detail),
        ]
        command += ["--passes", str(passes)] if passes is not None else ["--seconds", str(args.seconds)]
        if args.quick:
            command.append("--quick")
        done = subprocess.run(command, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0 or not detail.exists():
            raise RuntimeError(f"{workload} (trace={trace}) exited with code {done.returncode}")
        return json.loads(detail.read_text(encoding="utf-8"))


def _pick(metrics: Dict[str, Any], specs: Sequence[Metric], workload: str) -> Dict[str, Any]:
    return {
        m.name: metrics[m.name] for m in specs if workload in m.workloads and m.name in metrics
    }


def _missing(found: Dict[str, Any], specs: Sequence[Metric], workload: str) -> List[str]:
    return [m.name for m in specs if workload in m.workloads and m.name not in found]


def _format_value(value: float) -> str:
    if value == 0 or abs(value) >= 1000:
        return f"{value:,.1f}"
    return f"{value:.4g}"


def _print_metrics(title: str, found: Dict[str, Any], specs: Sequence[Metric]) -> None:
    print(f"  {title}")
    by_name = {m.name: m for m in specs}
    for name, doc in found.items():
        spec = by_name[name]
        line = f"    {name:38s} {_format_value(doc['value']):>12s} {doc['unit']:6s}"
        spread = doc.get("spread")
        if spread and spread["n"] > 1:
            line += (
                f" [min {_format_value(spread['min'])}  q1 {_format_value(spread['q1'])}"
                f"  q3 {_format_value(spread['q3'])}  max {_format_value(spread['max'])}"
                f"  n={spread['n']}]"
            )
        if "percentile" in doc:
            short = doc["percentile"] != doc["asked"]
            note = f" (too few samples for p{doc['asked']:g})" if short else ""
            line += f" p{doc['percentile']:g} over {doc['samples']} samples{note}"
        if spec.bound is not None:
            line += f"  bound {spec.bound:g}"
        print(line)


def _print_workload(name: str, doc: Dict[str, Any]) -> None:
    print(f"\n== {name} == {WORKLOADS[name]}")
    print(
        f"  {doc['passes']} passes x {doc['ops_per_pass'][0] if doc['ops_per_pass'] else 0} ops, "
        f"timed {sum(doc['timed_s']):.1f} s, wall {doc['wall_s']:.1f} s, "
        f"{doc['attempted']} answers checked, {doc['failed']} failed, inputs {doc['input_sha256'][:12]}"
    )
    _print_metrics("end-to-end", doc["end_to_end"], END_TO_END)
    _print_metrics("per-layer", doc["per_layer"], PER_LAYER)
    trace = doc["trace"]
    shares = ", ".join(f"{k} {v:+.1%}" for k, v in trace["sum_over_untraced_minus_1"].items())
    verdict = "ok" if trace["within_tolerance"] else "OUT OF TOLERANCE"
    print(
        f"  trace: layer self times vs untraced median: {shares} "
        f"(tolerance {trace['tolerance']:.0%}: {verdict}); "
        f"engine share of the request {trace['engine_share_of_request']:.1%}"
    )
    for problem in doc["problems"]:
        print(f"  PROBLEM: {problem}")


def _print_comparison(rows: Sequence[Any]) -> None:
    print("\n== compare ==")
    print(
        f"  {'metric':24s} {'workload':24s} {'previous':>12s} {'current':>12s} "
        f"{'spread':>8s} {'spread':>8s} {'worsening':>10s}  verdict"
    )
    for name, workload, old, new, old_spread, new_spread, worsening, verdict in rows:
        print(
            f"  {name:24s} {workload:24s} {_format_value(old):>12s} {_format_value(new):>12s} "
            f"{old_spread:8.1%} {new_spread:8.1%} {worsening:+10.1%}  {verdict}"
        )


def run_report(args: Any, script: Path, repo: Path, results_dir: Path) -> int:
    workloads = args.workload or list(WORKLOADS)
    unknown = [w for w in workloads if w not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload(s) {unknown}; choose from {list(WORKLOADS)}", file=sys.stderr)
        return 2
    previous = None
    if args.compare:
        previous = json.loads(Path(args.compare).read_text(encoding="utf-8"))
    passes = None if args.seconds is not None else (1 if args.quick else args.passes or PASSES)
    (script.parent / ".work").mkdir(parents=True, exist_ok=True)
    results: Dict[str, Any] = _stamp(repo, args, passes)
    # Only a full run of every workload may be diffed against another.
    results["comparable"] = not args.quick and workloads == list(WORKLOADS) and passes is not None
    results["workloads"] = {}
    failed = False
    for workload in workloads:
        started = perf_counter()
        untraced = _run_child(script, workload, 0, args, passes)
        traced = _run_child(script, workload, 1, args, passes)
        end_to_end = _pick(untraced["metrics"], END_TO_END, workload)
        per_layer = _pick(traced["metrics"], PER_LAYER, workload)
        problems = [f"missing metric {n}" for n in _missing(end_to_end, END_TO_END, workload)]
        problems += [f"missing metric {n}" for n in _missing(per_layer, PER_LAYER, workload)]
        problems += untraced["detail"]["failures"] + traced["detail"]["failures"]
        if end_to_end.get("recall", {}).get("value") != 1.0:
            problems.append("recall below 1.0")
        # A --quick pass is a few dozen ops: too few to resolve the tolerance.
        if not traced["detail"]["trace"]["within_tolerance"] and not args.quick:
            problems.append("traced self times do not add up to the untraced median")
        doc = {
            "why": WORKLOADS[workload],
            "wall_s": perf_counter() - started,
            "passes": untraced["detail"]["passes"],
            "ops_per_pass": untraced["detail"]["ops_per_pass"],
            "timed_s": untraced["detail"]["timed_s"],
            "input_sha256": untraced["detail"]["input_sha256"],
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "trace": traced["detail"]["trace"],
            "problems": problems,
        }
        results["workloads"][workload] = doc
        failed = failed or bool(problems) or doc["failed"] > 0
        _print_workload(workload, doc)

    results_dir.mkdir(parents=True, exist_ok=True)
    target = results_dir / ("latest.json" if results["comparable"] else "partial.json")
    target.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"\nresults written to {target} (comparable: {str(results['comparable']).lower()})")

    if previous is not None:
        reason = comparable(previous, results)
        if reason is not None:
            print(f"error: refusing to compare: {reason}", file=sys.stderr)
            return 2
        rows = compare(previous, results)
        _print_comparison(rows)
        worse = [row for row in rows if row[-1] == "worse"]
        if worse:
            print(f"\n{len(worse)} metric(s) worse than {args.compare}")
            failed = True
    return 1 if failed else 0
