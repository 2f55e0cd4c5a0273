"""Evaluation harness: metrics, experiment runners and reporters.

Everything the ``benchmarks/`` directory needs to regenerate the paper's
tables and figures lives here:

* :mod:`repro.eval.recall` — the "Recall" measure of §5.4 plus brute-force
  ground-truth helpers;
* :mod:`repro.eval.harness` — builders for SmartStore and the two baselines
  over a trace, workload runners that aggregate latency / message / hop
  statistics, and the staleness (versioning) experiment of Tables 5-6;
* :mod:`repro.eval.space` — per-node space overhead comparison (Figure 7);
* :mod:`repro.eval.thresholds` — the optimal-threshold studies (Figure 11);
* :mod:`repro.eval.reporting` — plain-text table formatting shared by the
  benchmarks and EXPERIMENTS.md;
* :mod:`repro.eval.tracking` — machine-readable ``BENCH_<scenario>.json``
  artefacts every ``repro bench`` drill writes alongside its tables.
"""

from repro.eval.recall import recall, ground_truth_range, ground_truth_topk
from repro.eval.harness import (
    SystemUnderTest,
    WorkloadResult,
    build_smartstore,
    build_baselines,
    run_query_workload,
    hop_distribution,
    point_query_hit_rate,
    StalenessExperiment,
)
from repro.eval.space import space_comparison
from repro.eval.thresholds import optimal_threshold_vs_scale, optimal_threshold_per_level
from repro.eval.reporting import format_table, format_seconds, format_bytes
from repro.eval.tracking import bench_json_path, write_bench_json

__all__ = [
    "bench_json_path",
    "write_bench_json",
    "recall",
    "ground_truth_range",
    "ground_truth_topk",
    "SystemUnderTest",
    "WorkloadResult",
    "build_smartstore",
    "build_baselines",
    "run_query_workload",
    "hop_distribution",
    "point_query_hit_rate",
    "StalenessExperiment",
    "space_comparison",
    "optimal_threshold_vs_scale",
    "optimal_threshold_per_level",
    "format_table",
    "format_seconds",
    "format_bytes",
]
