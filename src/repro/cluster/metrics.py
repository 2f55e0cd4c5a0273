"""One request's event counters: the cost model's ledger.

SmartStore, the baselines and the query engines charge each read or
mutation to its own :class:`Metrics`, which counts *what happened* (messages
sent, servers visited, index nodes probed, records scanned); the
:class:`~repro.cluster.costmodel.CostModel` converts the counts into
simulated seconds.  Keeping the two separate lets one run of a workload be
re-costed under different hardware assumptions without re-executing it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Set

from repro.cluster.costmodel import CostModel, DEFAULT_COST_MODEL

__all__ = ["Metrics"]


@dataclass
class Metrics:
    """Mutable event counters for one request (a scatter merges its parts).

    Attributes
    ----------
    messages:
        Total inter-server messages (each one is a network hop).
    units_visited:
        Identifiers of the distinct storage units that did local work.
    memory_index_accesses / disk_index_accesses:
        Index-node probes charged at memory / disk speed.
    memory_records_scanned / disk_records_scanned:
        Metadata records inspected at memory / disk speed.
    bloom_probes:
        Bloom-filter membership checks (charged as memory index accesses,
        tracked separately because Figure 9 reports on them).
    """

    messages: int = 0
    units_visited: Set[int] = field(default_factory=set)
    memory_index_accesses: int = 0
    disk_index_accesses: int = 0
    memory_records_scanned: int = 0
    disk_records_scanned: int = 0
    bloom_probes: int = 0

    # ------------------------------------------------------------------ recording
    def record_message(self, count: int = 1) -> None:
        """Record ``count`` point-to-point messages."""
        if count < 0:
            raise ValueError("message count must be non-negative")
        self.messages += count

    def record_unit_visit(self, unit_id: int) -> None:
        """Record that storage unit ``unit_id`` performed local work."""
        self.units_visited.add(unit_id)

    def record_index_access(self, count: int = 1, *, on_disk: bool = False) -> None:
        """Record index-node probes (memory by default)."""
        if on_disk:
            self.disk_index_accesses += count
        else:
            self.memory_index_accesses += count

    def record_scan(self, count: int, *, on_disk: bool = False) -> None:
        """Record ``count`` metadata records inspected."""
        if on_disk:
            self.disk_records_scanned += count
        else:
            self.memory_records_scanned += count

    def record_bloom_probe(self, count: int = 1) -> None:
        """Record Bloom-filter membership checks."""
        self.bloom_probes += count
        self.memory_index_accesses += count

    # ------------------------------------------------------------------ aggregation
    def merge(self, other: "Metrics") -> None:
        """Accumulate another metrics object into this one (in place)."""
        self.messages += other.messages
        self.units_visited |= other.units_visited
        self.memory_index_accesses += other.memory_index_accesses
        self.disk_index_accesses += other.disk_index_accesses
        self.memory_records_scanned += other.memory_records_scanned
        self.disk_records_scanned += other.disk_records_scanned
        self.bloom_probes += other.bloom_probes

    def copy(self) -> "Metrics":
        clone = Metrics()
        clone.merge(self)
        return clone

    def reset(self) -> None:
        """Zero every counter."""
        self.messages = 0
        self.units_visited = set()
        self.memory_index_accesses = 0
        self.disk_index_accesses = 0
        self.memory_records_scanned = 0
        self.disk_records_scanned = 0
        self.bloom_probes = 0

    # ------------------------------------------------------------------ derived values
    @property
    def hops(self) -> int:
        """Routing distance: messages needed beyond the home unit.

        Figure 8 reports the distribution of this value; a query answered
        entirely by the home unit has 0 hops.
        """
        return self.messages

    def latency(self, cost_model: CostModel = DEFAULT_COST_MODEL) -> float:
        """Simulated latency in seconds under ``cost_model``."""
        return (
            self.messages * cost_model.network_hop_latency
            + self.memory_index_accesses * cost_model.memory_index_access
            + self.disk_index_accesses * cost_model.disk_index_access
            + self.memory_records_scanned * cost_model.memory_record_scan
            + self.disk_records_scanned * cost_model.disk_record_scan
        )

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict snapshot (for reporting and tests)."""
        return {
            "messages": self.messages,
            "units_visited": len(self.units_visited),
            "memory_index_accesses": self.memory_index_accesses,
            "disk_index_accesses": self.disk_index_accesses,
            "memory_records_scanned": self.memory_records_scanned,
            "disk_records_scanned": self.disk_records_scanned,
            "bloom_probes": self.bloom_probes,
        }

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"Metrics({parts})"
