"""Query workload synthesis.

No public file-system traces contain complex-query requests, so the paper
synthesises them (§5.1): range queries are random hyper-rectangles and top-k
queries are random points in the multi-dimensional attribute space, with the
query coordinates following Uniform, Gauss or Zipf distributions.  This
subpackage defines the three query types SmartStore serves (point, range,
top-k) and a generator that synthesises workloads of each kind over a given
file population.
"""

from repro.workloads.types import PointQuery, RangeQuery, TopKQuery, Query
from repro.workloads.generator import QueryWorkloadGenerator, DISTRIBUTIONS

__all__ = [
    "PointQuery",
    "RangeQuery",
    "TopKQuery",
    "Query",
    "QueryWorkloadGenerator",
    "DISTRIBUTIONS",
]
