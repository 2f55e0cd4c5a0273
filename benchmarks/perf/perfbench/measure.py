"""The closed measurement loop, answer reduction and verification.

One generator thread, one connection: the next op is sent only after the
previous one completed.  Latencies are per-op ``perf_counter`` deltas;
verification against the oracle happens after the timed window, never
inside it.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .calibrate import SpeedMeter
from .inputs import ALL_READS, MUTATION_KINDS, RYW, Op
from .oracle import Answer, Oracle, Tally
from .stats import median, spread, tail_percentile

__all__ = [
    "PassResult",
    "latency_metric",
    "reduce_outs",
    "run_pass",
    "set_up_repeatedly",
    "summarise_passes",
    "timing_metric",
    "verify_pass",
]


@dataclass(eq=False)  # identity, not array comparison
class PassResult:
    """Raw outcome of one timed pass."""

    kinds: np.ndarray  # one op kind (str) per op
    latencies: np.ndarray  # seconds, one per op
    cpu: np.ndarray  # CPU seconds of the process running the loop, one per op
    wall_s: float
    outs: List[Any] = field(default_factory=list)  # reduced answers (see reduce_outs)
    extra_cpu_s: float = 0.0  # CPU of a server process, when there is one
    speeds: Optional[np.ndarray] = None  # machine speed when each op ran

    def __post_init__(self) -> None:
        self.kinds = np.asarray(self.kinds, dtype=object)
        if self.speeds is None:
            self.speeds = np.ones(len(self.latencies), dtype=np.float64)

    def of_kind(self, *kinds: str) -> np.ndarray:
        return self.latencies[np.isin(self.kinds, kinds)]

    @property
    def ops(self) -> int:
        """Requests completed (checkpoints are maintenance, not requests)."""
        return int(np.count_nonzero(self.kinds != "checkpoint"))

    @property
    def stretch(self) -> float:
        """Reference-machine seconds per measured second over the pass
        (latency-weighted)."""
        total = float(self.latencies.sum())
        return float((self.latencies / self.speeds).sum()) / total if total else 1.0


#: ``(seconds, machine speed meanwhile)`` of one timed action.
Timing = Tuple[float, float]


def set_up_repeatedly(
    make: Callable[[int], Any], repeats: int, meter: SpeedMeter
) -> Tuple[Any, List[Timing]]:
    """Stand a deployment up ``repeats`` times — ``make(attempt)`` returns
    once its first request is answered — closing each before the next; the
    last one is returned live with every attempt's timing."""
    times: List[Timing] = []
    handle = None
    for attempt in range(repeats):
        if handle is not None:
            handle.close()
            handle = None
            gc.collect()
        seconds, speed, handle = meter.timed(lambda: make(attempt))
        times.append((seconds, speed))
    return handle, times


def timing_metric(samples: Sequence[Timing]) -> Dict[str, Any]:
    """Median seconds on the reference machine, raw median beside it."""
    scaled = [seconds / speed for seconds, speed in samples]
    return {
        "value": median(scaled),
        "unit": "s",
        "raw": median([seconds for seconds, _speed in samples]),
        "spread": spread(scaled),
    }


def _resolve(target: Any, kind: str) -> Callable[[Any], Any]:
    if kind in ALL_READS:
        return target.execute
    if kind == "checkpoint":
        return lambda _none: target.checkpoint()
    return getattr(target, kind)


def run_pass(target: Any, ops: Sequence[Op], meter: SpeedMeter) -> PassResult:
    """Send ``ops`` to ``target`` one after another, timing each.

    ``target`` is a ``Client`` or a ``RemoteClient``.  An op that raises
    is recorded (the exception becomes its answer) and the loop goes on.
    ``meter`` samples the machine's speed every 50 ms while the pass runs
    (between ops, outside every op's timed region and out of the pass's
    wall), so that each op can be put on the reference machine, and
    judged quiet or disturbed, afterwards.
    """
    calls = {kind: _resolve(target, kind) for kind in {k for k, _ in ops}}
    n = len(ops)
    latencies = np.empty(n, dtype=np.float64)
    cpu = np.empty(n, dtype=np.float64)
    sent_at = np.empty(n, dtype=np.float64)
    outs: List[Any] = [None] * n
    clock, cpu_clock = perf_counter, time.process_time
    paused = 0.0
    started = clock()
    for i, (kind, arg) in enumerate(ops):
        call = calls[kind]
        if meter.due(clock()):
            paused += meter.sample()
        cpu_before = cpu_clock()
        sent = sent_at[i] = clock()
        try:
            outs[i] = call(arg)
        except Exception as exc:  # noqa: BLE001 - a failed op is a data point
            outs[i] = exc
        latencies[i] = clock() - sent
        cpu[i] = cpu_clock() - cpu_before
    wall = clock() - started - paused
    if meter.due(clock(), 0.005):  # the last ops need a sample after them too
        meter.sample()
    speeds = meter.speed_at(sent_at) if n else None
    return PassResult([k for k, _ in ops], latencies, cpu, wall, outs, speeds=speeds)


def reduce_outs(ops: Sequence[Op], outs: Sequence[Any]) -> List[Any]:
    """Shrink raw responses to what verification needs (and what can cross
    a process boundary): an :class:`Answer` per read, ``True`` / ``False``
    / error text per mutation, error text or what the checkpoint published
    (segments and bytes written) per checkpoint."""
    reduced: List[Any] = []
    for (kind, _arg), out in zip(ops, outs):
        if kind in ALL_READS:
            reduced.append(Answer.of(out))
        elif isinstance(out, BaseException):
            reduced.append(f"{type(out).__name__}: {out}")
        elif kind in MUTATION_KINDS:
            reduced.append(bool(out.receipt.known))
        else:
            reduced.append(_published(out))
    return reduced


def _published(manifest: Dict[str, Any]) -> Dict[str, int]:
    """Segments and bytes one checkpoint wrote: the manifest entries
    carrying its own generation (clean groups keep their older segment)."""
    prefix = f"seg-{int(manifest['generation']):08d}-"
    written = [e for e in manifest["segments"].values() if str(e["name"]).startswith(prefix)]
    return {
        "segments_written": len(written),
        "bytes_written": sum(int(e["bytes"]) for e in written),
    }


def verify_pass(
    oracle: Oracle, ops: Sequence[Op], reduced: Sequence[Any], tally: Tally
) -> None:
    """Replay one pass against the oracle in op order: reads are scored on
    the population as it was when they ran, acknowledged mutations are
    then tracked."""
    for (kind, arg), out in zip(ops, reduced):
        if kind in ALL_READS:
            oracle.check(arg, out, tally)
            continue
        tally.attempted += 1
        if isinstance(out, str):
            tally.fail(f"{kind}: {out}")
        elif kind in MUTATION_KINDS:
            if out:
                oracle.apply(kind, arg)
            else:
                tally.fail(f"{kind} of {arg.path!r} refused as unknown")


def throughput_metrics(passes: Sequence[PassResult]) -> Dict[str, Dict[str, Any]]:
    """Requests per second and CPU per request over all the passes, on
    the reference machine: every op's latency and CPU divided by its own
    machine speed, then summed.  The seconds are the ops' latencies
    (checkpoints included) — the loop is closed, so that is the wall clock
    less the harness's own loop (< 2%).  A server process's CPU is known
    pass by pass only and is scaled by the pass's mean speed.  The spreads
    are pass by pass."""

    def rate(chosen: Sequence[PassResult]) -> float:
        seconds = sum(float((p.latencies / p.speeds).sum()) for p in chosen)
        return sum(p.ops for p in chosen) / seconds

    def cpu_ms(chosen: Sequence[PassResult]) -> float:
        seconds = sum(float((p.cpu / p.speeds).sum()) + p.extra_cpu_s * p.stretch for p in chosen)
        return 1e3 * seconds / sum(p.ops for p in chosen)

    requests = sum(p.ops for p in passes)
    return {
        "ops_per_s": {
            "value": rate(passes),
            "unit": "1/s",
            "raw": requests / sum(float(p.latencies.sum()) for p in passes),
            "spread": spread([rate([p]) for p in passes]),
        },
        "cpu_ms_per_op": {
            "value": cpu_ms(passes),
            "unit": "ms",
            "raw": 1e3 * sum(float(p.cpu.sum()) + p.extra_cpu_s for p in passes) / requests,
            "spread": spread([cpu_ms([p]) for p in passes]),
        },
    }


def latency_metric(
    passes: Sequence[PassResult], kinds: Sequence[str], tail: Optional[float] = None
) -> Optional[Dict[str, Any]]:
    """A percentile (ms) of the ``kinds`` latencies pooled across
    ``passes``, each on the reference machine; the same percentile as
    measured is kept as ``raw``.

    When no pass mutates the store, the percentile is taken over the
    *quiet half* of the passes' ops — those that ran at or below the
    passes' median machine speed: a disturbed moment does not only scale
    latencies, it smears them.  With mutations among the ops the store
    changes from moment to moment, a gate that picks moments would pick
    store states, and every op counts.

    The median — or the ``tail`` percentile asked for, else the highest
    lower one with ten samples beyond it (in half the sample when only the
    quiet half counts: a size fixed by the op counts, so the percentile
    never changes from run to run), named in ``percentile``.  The spread
    is the same percentile pass by pass."""
    chosen = [np.isin(p.kinds, kinds) for p in passes]
    raw = np.concatenate([p.latencies[c] for p, c in zip(passes, chosen)])
    if not raw.size:
        return None
    speeds = np.concatenate([p.speeds[c] for p, c in zip(passes, chosen)])
    owner = np.concatenate([np.full(int(c.sum()), at) for at, c in enumerate(chosen)])
    settled = not any(np.isin(p.kinds, MUTATION_KINDS).any() for p in passes)
    if settled:
        counted = speeds <= median(np.concatenate([p.speeds for p in passes]))
    else:
        counted = np.ones(raw.size, dtype=bool)
    pct = 50.0
    if tail is not None:
        pct = tail_percentile(raw.size // 2 if settled else raw.size, tail)
    scaled = raw / speeds
    doc = {
        "value": 1e3 * float(np.percentile(scaled[counted], pct)),
        "unit": "ms",
        "raw": 1e3 * float(np.percentile(raw, pct)),
        "samples": int(np.count_nonzero(counted)),
        "spread": spread(
            [
                1e3 * float(np.percentile(scaled[counted & (owner == at)], pct))
                for at in range(len(passes))
                if (counted & (owner == at)).any()
            ]
        ),
    }
    if tail is not None:
        doc["percentile"], doc["asked"] = pct, tail
    return doc


def summarise_passes(
    passes: Sequence[PassResult], read_passes: Optional[Sequence[PassResult]] = None
) -> Dict[str, Dict[str, Any]]:
    """The timing metrics every workload shares, on the reference machine,
    with the value as measured beside each (``raw``).  ``read_passes``
    (default: the same passes) are where the per-kind read medians come
    from; the read tail pools both."""
    reads = list(passes if read_passes is None else read_passes)
    pooled = list(passes) + (list(read_passes) if read_passes is not None else [])
    out: Dict[str, Optional[Dict[str, Any]]] = dict(throughput_metrics(passes))
    out["point_p50_ms"] = latency_metric(reads, ("point", RYW))
    out["range_p50_ms"] = latency_metric(reads, ("range",))
    out["topk_p50_ms"] = latency_metric(reads, ("topk",))
    out["read_p95_ms"] = latency_metric(pooled, ALL_READS, tail=95.0)
    out["read_p99_ms"] = latency_metric(pooled, ALL_READS, tail=99.0)
    out["mutation_p50_ms"] = latency_metric(passes, MUTATION_KINDS)
    out["mutation_p99_ms"] = latency_metric(passes, MUTATION_KINDS, tail=99.0)
    return {name: doc for name, doc in out.items() if doc is not None}
