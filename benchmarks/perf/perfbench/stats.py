"""Order statistics for the perf harness: medians, tail percentiles, spreads.

Every reported timing is a median (or the highest percentile the sample
supports) with its spread beside it; nothing here averages away a tail.
"""

from __future__ import annotations

import statistics
from typing import Dict, Sequence

import numpy as np

__all__ = ["median", "spread", "tail_percentile"]

#: A percentile is only reported with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10

#: Tail percentiles tried in order; the first the sample supports wins.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0)


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def tail_percentile(samples: int, wanted: float = 99.0) -> float:
    """The tail percentile a sample of this size supports: ``wanted`` when
    at least ten samples lie beyond it, else the highest lower rung of
    :data:`TAIL_LADDER` that qualifies (the median when the sample
    supports no tail at all)."""
    for pct in TAIL_LADDER:
        if pct <= wanted and samples * (100.0 - pct) / 100.0 >= MIN_TAIL_SAMPLES:
            return pct
    return 50.0


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Min, quartiles, max and sample count of per-pass values."""
    data = [float(v) for v in values]
    if len(data) >= 2:
        q1, _, q3 = statistics.quantiles(data, n=4)
    else:
        q1 = q3 = data[0] if data else 0.0
    return {
        "min": min(data, default=0.0),
        "q1": q1,
        "q3": q3,
        "max": max(data, default=0.0),
        "n": len(data),
    }
