"""Machine-speed calibration: what makes timings comparable across runs.

The sandbox this benchmark runs on is a few cores of a shared host, and it
flips between two states every second or so: the same code runs 30-45%
slower while a neighbour is busy (no steal time is reported; wall time and
CPU seconds stretch together), and the share of a 10-second window spent
in the slow state is anything from a tenth to nine tenths.  No median over
the window survives that, so while anything is timed a fixed *reference
kernel* — Python bytecode and numpy work of the kind the program itself
does — is run every 50 ms, between ops.  An op's *machine speed* is the
slower of the two kernel samples around it over ``REFERENCE_KERNEL_S``,
and every measured time is divided by it, i.e. it becomes the time the
request would take on a machine that runs the kernel in exactly one
millisecond.  A program change moves the numerator only; a machine mood
moves both.  On read-only passes the samples also say which half of the
ops ran in the quieter moments (``measure.latency_metric``).

Measured over ten runs of ``hot_cached`` while the machine was restless,
the spread between runs (quartile distance over median) falls from
0.16-0.28 as measured to 0.05-0.10.  The per-layer peel, whose figures are
differences and shares inside one run, is scaled by the run's median speed
alone.  Raw, unscaled values are kept beside every normalised one.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List, Tuple

import numpy as np

from .stats import median

__all__ = ["REFERENCE_KERNEL_S", "SpeedMeter", "kernel", "on_reference_machine"]

#: The reference machine runs :func:`kernel` in this many seconds (the
#: 2-core sandbox: 0.75-1.0 ms, so speeds are a little under 1).
REFERENCE_KERNEL_S = 1e-3

#: Kernel runs per calibration sample; the faster one counts, so a single
#: interrupt does not pass for a slow machine.
KERNELS_PER_SAMPLE = 2

#: Seconds between calibration samples while something is being timed
#: (the machine changes state within a second; the samples cost ~4%).
SAMPLE_EVERY_S = 0.05

_VECTOR = np.arange(20_000, dtype=np.float64)


def kernel() -> float:
    """A fixed slice of interpreter and numpy work (about a millisecond):
    dict stores, integer arithmetic, attribute-free loops, then masked
    vector math over 20,000 doubles."""
    slots = {}
    total = 0
    for i in range(4000):
        slots[i & 255] = total
        total += i * i
    selected = 0.0
    for _ in range(10):
        norms = np.sqrt(_VECTOR * _VECTOR + 1.0)
        inside = (norms > 100.0) & (norms < 5000.0)
        selected = float(norms[inside].sum())
    return total + selected


class SpeedMeter:
    """The calibration samples of one process's run, on its clock."""

    def __init__(self) -> None:
        self.times: List[float] = []  # perf_counter at each sample
        self.samples: List[float] = []  # seconds per kernel run

    def due(self, now: float, every: float = SAMPLE_EVERY_S) -> bool:
        """Whether ``every`` seconds have passed since the latest sample."""
        return not self.times or now - self.times[-1] >= every

    def sample(self) -> float:
        """Take one calibration sample — the faster of
        ``KERNELS_PER_SAMPLE`` back-to-back kernel runs — and return the
        seconds it took, for the caller to keep out of its window."""
        started = perf_counter()
        best = float("inf")
        previous = started
        for _ in range(KERNELS_PER_SAMPLE):
            kernel()
            now = perf_counter()
            best = min(best, now - previous)
            previous = now
        self.times.append(0.5 * (started + previous))
        self.samples.append(best)
        return previous - started

    def speed_at(self, when: Any) -> Any:
        """Machine speed at ``perf_counter`` time(s) ``when``: the slower
        of the samples just before and just after (1.0 = the reference
        machine; 1.3 = everything takes 30% longer).  The slower one,
        because a state change anywhere between the two disturbed what
        ran there."""
        samples = np.asarray(self.samples, dtype=np.float64)
        after = np.searchsorted(self.times, when).clip(1, len(samples) - 1)
        return np.maximum(samples[after - 1], samples[after]) / REFERENCE_KERNEL_S

    def timed(self, fn: Any) -> Tuple[float, float, Any]:
        """``(seconds, machine speed, result)`` of one call too long to
        sample inside (a set-up, a recovery): the mean of a sample just
        before and one just after it."""
        self.sample()
        started = perf_counter()
        result = fn()
        ended = perf_counter()
        self.sample()
        speed = 0.5 * (self.samples[-2] + self.samples[-1]) / REFERENCE_KERNEL_S
        return ended - started, speed, result

    @property
    def speed(self) -> float:
        """The run's typical machine speed: the median sample."""
        return median(self.samples) / REFERENCE_KERNEL_S if self.samples else 1.0


#: How a unit scales when the machine is ``speed`` times slower.
_SCALING = {"s": -1, "ms": -1, "us": -1, "1/s": 1}


def on_reference_machine(metrics: Dict[str, Dict[str, Any]], speed: float) -> None:
    """Rescale every time and rate in ``metrics`` (in place) to the
    reference machine, keeping the measured value as ``raw``."""
    for doc in metrics.values():
        power = _SCALING.get(doc.get("unit", ""))
        if power is None or "raw" in doc:  # not a time, or already normalised
            continue
        factor = speed**power
        doc["raw"] = doc["value"]
        doc["value"] = doc["value"] * factor
        if "spread" in doc:
            doc["spread"] = {
                key: value if key == "n" else value * factor
                for key, value in doc["spread"].items()
            }
