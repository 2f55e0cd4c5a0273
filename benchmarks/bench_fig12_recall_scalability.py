"""Figure 12: recall as a function of system scale (Gauss and Zipf).

The paper executes 2000 mixed requests (1000 range + 1000 top-k) against
deployments of 20-100 storage units and shows that recall stays high as the
system grows.  The reproduction sweeps the same unit counts with a reduced
query budget and the same staleness scenario used by the other recall
experiments.
"""

from __future__ import annotations

import pytest

from _bench_utils import record_result
from repro.core.smartstore import SmartStoreConfig
from repro.eval.harness import StalenessExperiment
from repro.eval.reporting import format_table
from repro.workloads.generator import QueryWorkloadGenerator

UNIT_COUNTS = (20, 40, 60, 80)
N_RANGE = 30
N_TOPK = 30
UPDATE_FRACTION = 0.10


def _recall_at_scale(files, num_units: int, distribution: str) -> float:
    experiment = StalenessExperiment(
        files,
        update_fraction=UPDATE_FRACTION,
        config=SmartStoreConfig(num_units=num_units, seed=9, bloom_bits=1024),
        seed=17,
    )
    store = experiment.build(versioning=True)
    generator = QueryWorkloadGenerator(files, seed=23)
    queries = generator.mixed_complex_queries(
        N_RANGE, N_TOPK, distribution=distribution, k=8
    )
    return experiment.run(store, queries).mean_recall


@pytest.mark.parametrize("distribution", ["gauss", "zipf"])
def test_fig12_recall_vs_scale(benchmark, distribution, msn_files):
    def sweep():
        return [(n, _recall_at_scale(msn_files, n, distribution)) for n in UNIT_COUNTS]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = format_table(
        ["storage units", "recall"],
        [[n, f"{r * 100:.1f}%"] for n, r in rows],
        title=f"Figure 12 — recall vs. system scale ({distribution.capitalize()} queries, "
              f"{N_RANGE} range + {N_TOPK} top-8, versioning on)",
    )
    record_result(f"fig12_recall_scalability_{distribution}", table)

    # Qualitative claim: recall stays high across scales (no collapse as the
    # number of storage units grows).
    recalls = [r for _, r in rows]
    assert min(recalls) > 0.85
    assert max(recalls) - min(recalls) < 0.15
