"""Figure 13: on-line vs. off-line query execution (latency and messages).

The on-line approach locates the relevant index units by multicasting from
the home unit; the off-line approach pre-replicates the first-level index
summaries on every storage unit so the target groups are found by purely
local computation.  The paper shows the off-line approach reduces both the
query latency and (especially) the number of internal network messages, with
the gap widening as the system grows.
"""

from __future__ import annotations

import pytest

from _bench_utils import record_result
from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.eval.harness import run_query_workload
from repro.eval.reporting import format_table
from repro.workloads.generator import QueryWorkloadGenerator

UNIT_COUNTS = (20, 40, 60)
N_RANGE = 30
N_TOPK = 30


def _compare_modes(files, num_units: int):
    generator = QueryWorkloadGenerator(files, seed=19)
    queries = generator.mixed_complex_queries(N_RANGE, N_TOPK, distribution="zipf", k=8)
    out = {}
    for mode in ("online", "offline"):
        store = SmartStore.build(
            files,
            SmartStoreConfig(num_units=num_units, seed=8, mode=mode, bloom_bits=1024),
        )
        result = run_query_workload(store, queries)
        out[mode] = (result.mean_latency, result.total_messages)
    return out


def test_fig13_online_vs_offline(benchmark, msn_files):
    sweep = benchmark.pedantic(
        lambda: {n: _compare_modes(msn_files, n) for n in UNIT_COUNTS}, rounds=1, iterations=1
    )

    latency_rows = []
    message_rows = []
    for n, result in sweep.items():
        on_lat, on_msg = result["online"]
        off_lat, off_msg = result["offline"]
        latency_rows.append([n, f"{on_lat * 1e3:.2f}", f"{off_lat * 1e3:.2f}"])
        message_rows.append([n, on_msg, off_msg])

    table_a = format_table(
        ["storage units", "on-line latency (ms/query)", "off-line latency (ms/query)"],
        latency_rows,
        title="Figure 13(a) — query latency, on-line vs. off-line (MSN, Zipf)",
    )
    table_b = format_table(
        ["storage units", "on-line messages", "off-line messages"],
        message_rows,
        title=f"Figure 13(b) — network messages for {N_RANGE + N_TOPK} complex queries",
    )
    record_result("fig13_online_offline", table_a + "\n\n" + table_b)

    # Qualitative claims: off-line never sends more messages, and the message
    # gap grows with the system size (the multicast fan-out grows).
    gaps = []
    for n in UNIT_COUNTS:
        on_lat, on_msg = sweep[n]["online"]
        off_lat, off_msg = sweep[n]["offline"]
        assert off_msg < on_msg
        assert off_lat <= on_lat * 1.05
        gaps.append(on_msg - off_msg)
    assert gaps[-1] > gaps[0]
