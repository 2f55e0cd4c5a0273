"""Open-loop load generation against a :class:`QueryService`.

In the **open loop** model requests arrive on their own schedule
regardless of completions (Poisson arrivals at ``rate_qps``, or as fast as
the submitter can go when no rate is given).  Offered load does *not*
adapt, which is the model that exposes overload and admission behaviour.
(A closed-loop client is any caller of ``QueryService.execute``.)

Query streams come from :class:`~repro.workloads.generator.QueryWorkloadGenerator`
(synthetic attribute-space workloads).  All load-generator randomness
(stream shuffling, inter-arrival gaps) is driven by an explicit
seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.queries import QueryResult
from repro.service.batching import ServiceOverloadedError
from repro.service.service import QueryService
from repro.workloads.types import Query

__all__ = [
    "LoadReport",
    "LoadGenerator",
    "latency_summary",
    "repeated_stream",
]

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


@dataclass
class LoadReport:
    """Outcome of one load-generation run."""

    mode: str
    requests: int
    completed: int
    rejected: int
    wall_seconds: float
    results: List[Optional[QueryResult]] = field(default_factory=list)

    @property
    def achieved_qps(self) -> float:
        return self.completed / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def total_simulated_latency(self) -> float:
        return float(
            sum(r.latency for r in self.results if r is not None)
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "requests": self.requests,
            "completed": self.completed,
            "rejected": self.rejected,
            "wall_seconds": self.wall_seconds,
            "achieved_qps": self.achieved_qps,
            "total_simulated_latency_s": self.total_simulated_latency,
        }


class LoadGenerator:
    """Drives a query service with a workload under a chosen client model."""

    def __init__(self, service: QueryService, *, seed: int = 11) -> None:
        self.service = service
        self.seed = seed

    # ------------------------------------------------------------------ open loop
    def open_loop(
        self,
        queries: Sequence[Query],
        *,
        rate_qps: Optional[float] = None,
        collect_results: bool = True,
    ) -> LoadReport:
        """Submit the stream on a fixed schedule, then drain.

        With ``rate_qps`` the submitter spaces requests by exponential
        inter-arrival gaps (Poisson arrivals); without it, requests are
        submitted back-to-back.  Rejected submissions (admission limit with
        ``block_on_overload=False``) leave a ``None`` in the results.
        """
        if rate_qps is not None and rate_qps <= 0.0:
            raise ValueError(f"rate_qps must be positive, got {rate_qps}")
        queries = list(queries)
        rng = np.random.default_rng([self.seed, 0x0BE2])
        results: List[Optional[QueryResult]] = [None] * len(queries)
        futures: List[Optional[object]] = [None] * len(queries)
        rejected = 0

        started = time.perf_counter()
        next_arrival = started
        for i, query in enumerate(queries):
            if rate_qps is not None:
                next_arrival += float(rng.exponential(1.0 / rate_qps))
                delay = next_arrival - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            try:
                futures[i] = self.service.submit(query)
            except ServiceOverloadedError:
                rejected += 1
        self.service.drain()
        for i, future in enumerate(futures):
            if future is not None:
                results[i] = future.result()
        wall = time.perf_counter() - started

        completed = sum(1 for r in results if r is not None)
        return LoadReport(
            mode="open",
            requests=len(queries),
            completed=completed,
            rejected=rejected,
            wall_seconds=wall,
            results=results if collect_results else [],
        )
