"""Cluster / network cost-accounting simulator.

The paper evaluates SmartStore on a 60-node Linux cluster.  This repository
replaces the physical testbed with a discrete cost-accounting simulator:

* :class:`~repro.cluster.costmodel.CostModel` — converts counted events
  (network hops, in-memory index probes, disk page accesses, records
  scanned) into simulated seconds and bytes.
* :class:`~repro.cluster.metrics.Metrics` — one request's event counters,
  charged by SmartStore, the baselines, and the query engines.
* :class:`~repro.cluster.node.StorageServer` — a simulated metadata server
  hosting one storage unit's file metadata (with vectorised local scans).
* :class:`~repro.cluster.simulator.ClusterSimulator` — the container
  holding a deployment's servers.

The simulator preserves the quantities the paper's results are actually
driven by — how many units a query touches, how many messages are multicast,
how many index pages and records are inspected — and therefore preserves the
relative shapes of Table 4 and Figures 7, 8, 13 and 14 without requiring the
original hardware.
"""

from repro.cluster.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.cluster.metrics import Metrics
from repro.cluster.node import StorageServer
from repro.cluster.simulator import ClusterSimulator

__all__ = [
    "CostModel",
    "DEFAULT_COST_MODEL",
    "Metrics",
    "StorageServer",
    "ClusterSimulator",
]
