"""Request streams for a :class:`~repro.service.service.QueryService` and
the summary of what they cost.

:func:`repeated_stream` turns a base workload (from
:class:`~repro.workloads.generator.QueryWorkloadGenerator`) into the
deterministically shuffled repeated-query stream the caching ablation
drives; :func:`latency_summary` reports the modeled latencies of a run's
results.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.workloads.types import Query

__all__ = ["latency_summary", "repeated_stream"]

#: Percentiles :func:`latency_summary` reports.
PERCENTILES = (50.0, 95.0, 99.0)


def latency_summary(latencies: Sequence[float]) -> Dict[str, float]:
    """Mean and p50/p95/p99 of modeled (cost-model) request latencies, as
    ``{"mean": ..., "p50": ..., "p95": ..., "p99": ...}``; zeros when empty."""
    if not latencies:
        return {"mean": 0.0, **{f"p{int(p)}": 0.0 for p in PERCENTILES}}
    summary = {"mean": float(np.mean(latencies))}
    values = np.percentile(np.asarray(latencies), PERCENTILES)
    summary.update((f"p{int(p)}", float(v)) for p, v in zip(PERCENTILES, values))
    return summary


def repeated_stream(
    queries: Sequence[Query], repeat: int, *, seed: int = 0
) -> List[Query]:
    """``repeat`` copies of a base workload, shuffled deterministically.

    This is the repeated-query stream the caching ablation uses: every
    query recurs ``repeat`` times, interleaved, the way popular requests
    recur in real query traffic.
    """
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    stream: List[Query] = [q for _ in range(repeat) for q in queries]
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(stream))
    return [stream[i] for i in order]
