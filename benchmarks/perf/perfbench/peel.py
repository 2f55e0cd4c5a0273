"""The per-layer peel: timing a client's layers from outside, op by op.

Every layer is measured by wrapping calls into its public functions in
spans (:mod:`perfbench.spans`).  A layer's self time is its span minus its
child's; the self times must add up to the untraced end-to-end latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .calibrate import SpeedMeter
from .inputs import READ_KINDS, Op
from .measure import PassResult, run_pass
from .spans import SpanRecorder
from .stats import median

__all__ = [
    "API",
    "CORE",
    "SERVICE",
    "Deeper",
    "Peel",
    "cache_counts",
    "core_metrics",
    "metric",
    "peel_client",
    "prime_cache",
    "query_counts",
    "switch_cost_ratio",
    "trace_verdict",
]

#: Most ops per block of the traced depth sweeps (see ``peel_client``).
PEEL_BLOCK = 64


def _block_size(n: int) -> int:
    """Blocks small enough that a short pass still rotates through every
    depth order several times."""
    return max(4, min(PEEL_BLOCK, n // 16))

#: The traced self times must add up to the untraced median this closely.
TRACE_TOLERANCE = 0.15

MetricDoc = Dict[str, Any]


def metric(value: float, unit: str, **extra: Any) -> MetricDoc:
    return {"value": float(value), "unit": unit, **extra}


API = "api.Client.execute"
SERVICE = "service.QueryService.execute"
CORE = "core.SmartStore.execute"


def prime_cache(service: Any, primer: Sequence[Op]) -> None:
    """Put the result cache in the state every measured pass starts from:
    empty, then holding exactly the primer's queries."""
    if service.cache is not None:
        service.cache.invalidate()
    for _kind, query in primer:
        service.execute(query)


def cache_hits(service: Any) -> int:
    stats = service.cache.stats
    return int(stats.hits + stats.negative_hits)


def cache_counts(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, MetricDoc]:
    """Result-cache and admission counts between two ``QueryService.stats()``
    documents."""
    c0, c1 = before["cache"], after["cache"]
    lookups = sum(c1[k] - c0[k] for k in ("hits", "negative_hits", "misses"))
    hits = sum(c1[k] - c0[k] for k in ("hits", "negative_hits"))
    return {
        "service.cache_hit_ratio": metric(hits / max(1, lookups), "ratio"),
        "service.cache_evictions": metric(c1["evictions"] - c0["evictions"], "count"),
        "service.rejected": metric(after["rejected"] - before["rejected"], "count"),
    }


def query_counts(responses: Sequence[Any]) -> Dict[str, MetricDoc]:
    """Exact per-query work counts from ``QueryResult.metrics``."""
    scanned = results = groups = probes = accesses = 0
    for response in responses:
        m = response.result.metrics
        scanned += m.memory_records_scanned + m.disk_records_scanned
        results += len(response.files)
        groups += response.result.groups_visited
        probes += m.bloom_probes
        # Bloom probes are also charged as index accesses; peel them off.
        accesses += m.memory_index_accesses + m.disk_index_accesses - m.bloom_probes
    n = max(1, len(responses))
    return {
        "core.records_scanned_per_result": metric(scanned / max(1, results), "count"),
        "core.groups_visited_per_query": metric(groups / n, "count"),
        "bloom.probes_per_query": metric(probes / n, "count"),
        "rtree.index_accesses_per_query": metric(accesses / n, "count"),
    }


@dataclass
class Peel:
    """Per-op durations of one traced round over a client's layers."""

    kinds: List[str]
    reference: np.ndarray  # untraced Client.execute latencies (same blocks)
    api: np.ndarray  # traced Client.execute
    service: np.ndarray  # traced QueryService.execute
    below: np.ndarray  # time spent under the service (0 on cache hits)
    above: np.ndarray  # the outer caller's latencies (zeros without one)

    def of_kind(self, values: np.ndarray, kind: str) -> np.ndarray:
        mask = np.fromiter((k == kind for k in self.kinds), dtype=bool, count=len(self.kinds))
        return values[mask]

    def check(self) -> Dict[str, float]:
        """Per query kind: (sum of the layers' median self times) over the
        untraced end-to-end median, minus one."""
        out: Dict[str, float] = {}
        for kind in READ_KINDS:
            ref = self.of_kind(self.reference, kind)
            if not ref.size:
                continue
            parts = (
                median(self.of_kind(self.api - self.service, kind))
                + median(self.of_kind(self.service - self.below, kind))
                + median(self.of_kind(self.below, kind))
            )
            out[kind] = parts / median(ref) - 1.0
        return out


class Deeper:
    """Further depths under the layer below the service (see
    :func:`peel_client`): ``arm`` runs just before that layer's timed
    call, ``record`` just after it."""

    def arm(self) -> None:
        pass

    def record(self, op_id: int, kind: str, query: Any) -> None:
        raise NotImplementedError


def peel_client(
    client: Any,
    ops: Sequence[Op],
    primer: Sequence[Op],
    recorder: SpanRecorder,
    meter: SpeedMeter,
    below_name: str,
    below_fn: Callable[[Any], Any],
    deeper: Optional[Deeper] = None,
    outer: Optional[Tuple[str, Callable[[Any], Any]]] = None,
) -> Tuple[Peel, PassResult, Dict[str, MetricDoc]]:
    """One traced round: an untraced reference pass (counts, cache
    statistics, answers), then the same ops again one sweep per depth —
    ``Client.execute`` untraced, ``Client.execute``, ``QueryService.execute``
    and, for the ops the service misses on, the layer under it.

    The sweeps go block by block (``PEEL_BLOCK`` ops at most) with the depth order
    rotating from block to block, so an op's three timings lie a fraction
    of a second apart (whatever else the machine is doing is common to
    them) and no depth is always the first to touch a query's data.  The
    cache is put back to its primed state before every sweep that follows
    a miss, so every depth sees the same hit pattern; which ops hit is
    observed, per block, by an untimed pass through the service.
    ``meter`` keeps sampling the machine's speed throughout.
    ``deeper`` records further depths of a miss; ``outer`` is one more
    caller above the client (a ``RemoteClient`` on a server running the
    same spec), swept in the same rotation."""
    service = client.service

    prime_cache(service, primer)
    before = service.stats()
    reference = run_pass(client, ops, meter)
    after = service.stats()
    layer: Dict[str, MetricDoc] = query_counts(reference.outs)
    layer.update(cache_counts(before, after))

    n = len(ops)
    api = np.zeros(n, dtype=np.float64)
    in_service = np.zeros(n, dtype=np.float64)
    below = np.zeros(n, dtype=np.float64)
    untraced = np.zeros(n, dtype=np.float64)
    above = np.zeros(n, dtype=np.float64)
    # A reference pass that never missed left the cache as it found it.
    dirty = after["cache"]["misses"] > before["cache"]["misses"]
    size = _block_size(n)
    for block, first in enumerate(range(0, n, size)):
        ids = range(first, min(first + size, n))
        if dirty:
            prime_cache(service, primer)
        missed: List[int] = []
        for i in ids:
            seen = cache_hits(service)
            service.execute(ops[i][1])
            if cache_hits(service) == seen:
                missed.append(i)
        dirty = bool(missed)
        order: Tuple[Optional[str], ...] = (None, API, SERVICE, below_name)
        if outer is not None:
            order += (outer[0],)
        turn = block % len(order)
        for depth in order[turn:] + order[:turn]:
            if depth == below_name:
                for i in missed:
                    kind, query = ops[i]
                    if deeper is not None:
                        deeper.arm()
                    _, below[i] = recorder.timed(below_name, SERVICE, i, kind, below_fn, query)
                    if deeper is not None:
                        deeper.record(i, kind, query)
                continue
            if outer is not None and depth == outer[0]:
                for i in ids:
                    kind, query = ops[i]
                    _, above[i] = recorder.timed(depth, None, i, kind, outer[1], query)
                continue
            if dirty:
                prime_cache(service, primer)
            if depth is None:  # the untraced baseline the layers must add up to
                untraced[ids.start : ids.stop] = run_pass(
                    client, ops[ids.start : ids.stop], meter
                ).latencies
                continue
            fn, out, parent = (
                (client.execute, api, outer[0] if outer else None)
                if depth == API
                else (service.execute, in_service, API)
            )
            for i in ids:
                kind, query = ops[i]
                _, out[i] = recorder.timed(depth, parent, i, kind, fn, query)

    # A warmed key: ask once untimed, then time the repeat.
    on_hit: List[float] = []
    for i, (kind, query) in enumerate(ops[-256:], start=n):
        service.execute(query)
        on_hit.append(recorder.timed(SERVICE + "#hit", None, i, kind, service.execute, query)[1])
    layer["service.cache_hit_us"] = metric(1e6 * median(on_hit), "us")

    peel = Peel([k for k, _ in ops], untraced, api, in_service, below, above)
    layer["api.self_ms"] = metric(1e3 * median(api - in_service), "ms")
    layer["service.self_ms"] = metric(1e3 * median(in_service - below), "ms")
    layer["bench.trace_overhead_ratio"] = metric(
        float(api.sum() / untraced.sum()), "ratio"
    )
    return peel, reference, layer


def switch_cost_ratio(
    client: Any,
    ops: Sequence[Op],
    primer: Sequence[Op],
    switch: Callable[[bool], None],
    meter: SpeedMeter,
) -> float:
    """Time spent on ``ops`` with a process-wide switch on, over the time
    with it off — block by block, alternating which goes first, so the
    two sides share whatever else the machine is doing."""
    spent = {True: 0.0, False: 0.0}
    size = _block_size(len(ops))
    for block, first in enumerate(range(0, len(ops), size)):
        chunk = ops[first : first + size]
        for state in (True, False) if block % 2 else (False, True):
            prime_cache(client.service, primer)
            switch(state)
            try:
                spent[state] += float(run_pass(client, chunk, meter).latencies.sum())
            finally:
                switch(False)
    return spent[True] / spent[False]


def core_metrics(peel: Peel) -> Dict[str, MetricDoc]:
    """Engine time by query kind (over the ops that reached the engine)."""
    out: Dict[str, MetricDoc] = {}
    for kind in READ_KINDS:
        values = peel.of_kind(peel.below, kind)
        values = values[values > 0]
        if values.size:
            out[f"core.{kind}_ms"] = metric(1e3 * median(values), "ms", samples=int(values.size))
    return out


def trace_verdict(peel: Peel) -> Dict[str, Any]:
    deviation = peel.check()
    worst = max((abs(v) for v in deviation.values()), default=0.0)
    return {
        "sum_over_untraced_minus_1": deviation,
        "within_tolerance": worst <= TRACE_TOLERANCE,
        "tolerance": TRACE_TOLERANCE,
        "engine_share_of_request": float(peel.below.sum() / peel.api.sum()),
    }


