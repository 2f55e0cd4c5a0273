"""Failure injection: server crashes, index re-hosting and root failover.

§4.3 motivates the root multi-mapping with reliability: the root (and, more
generally, every index unit) is a logical tree node hosted on some storage
server, and a server crash must not take the query service down with it.
This module injects crashes into a built SmartStore deployment and measures
their consequences:

* which index units lose their host and whether they can be re-hosted from
  surviving replicas / recomputed from surviving children,
* whether the root remains reachable (it should, as long as at least one of
  its multi-mapped replicas survives — that is the point of §4.3),
* how much of the file population remains reachable,
* how query results degrade while some units are down (the degraded recall
  of a complex query is the fraction of its ideal results that still live on
  reachable servers).

The injector never mutates the deployment's data structures — a crash is a
visibility overlay — so recovery is exact and experiments can sweep crash
patterns over the same build.

The overlay answers "what would this crash pattern cost?"; what a crash
*actually* costs a live replicated deployment is the ``repro bench
replica`` drill's question (:class:`~repro.replication.fault.FaultInjector`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set

import numpy as np

from repro.core.queries import QueryResult
from repro.core.semantic_rtree import SemanticNode
from repro.core.smartstore import SmartStore
from repro.metadata.file_metadata import FileMetadata
from repro.workloads.types import Query, RangeQuery, TopKQuery

__all__ = [
    "AvailabilityReport",
    "DegradedQueryResult",
    "RootFailoverReport",
    "FailureInjector",
]


@dataclass(frozen=True)
class AvailabilityReport:
    """System-level availability under the currently injected failures.

    Attributes
    ----------
    failed_units / alive_units:
        Counts of crashed and surviving storage units.
    file_availability:
        Fraction of the file population stored on surviving units.
    root_reachable:
        True when the root is hosted (primary or any §4.3 replica) on a
        surviving unit.
    index_units_lost_host / index_units_rehostable:
        Index units whose host crashed, and how many of those can be
        re-hosted immediately because at least one descendant storage unit
        survived (their MBR/semantic vector can be recomputed bottom-up).
    orphaned_groups:
        First-level groups whose *every* storage unit crashed — their files
        are genuinely unavailable until the servers come back.
    """

    failed_units: int
    alive_units: int
    file_availability: float
    root_reachable: bool
    index_units_lost_host: int
    index_units_rehostable: int
    orphaned_groups: int

    def as_dict(self) -> Dict[str, float]:
        return {
            "failed_units": self.failed_units,
            "alive_units": self.alive_units,
            "file_availability": self.file_availability,
            "root_reachable": float(self.root_reachable),
            "index_units_lost_host": self.index_units_lost_host,
            "index_units_rehostable": self.index_units_rehostable,
            "orphaned_groups": self.orphaned_groups,
        }


@dataclass(frozen=True)
class RootFailoverReport:
    """Outcome of promoting a root replica after the primary host crashed.

    Attributes
    ----------
    failed_over:
        True when a promotion actually happened (the primary was down and a
        replica survived).
    old_host / new_host:
        The crashed primary and the promoted replica host (``None`` when no
        promotion happened).
    messages:
        Inter-server messages charged for the promotion: informing every
        first-level group of the new primary.
    """

    failed_over: bool
    old_host: Optional[int]
    new_host: Optional[int]
    messages: int


@dataclass
class DegradedQueryResult:
    """A query result filtered down to what surviving servers can return.

    Attributes
    ----------
    result:
        The unfiltered result as the healthy deployment would have produced
        it.
    available_files:
        The subset of ``result.files`` whose owning storage unit is alive.
    lost_files:
        The results that are currently unreachable.
    availability:
        ``len(available_files) / len(result.files)`` (1.0 for an empty
        result set — nothing was lost).
    """

    result: QueryResult
    available_files: List[FileMetadata] = field(default_factory=list)
    lost_files: List[FileMetadata] = field(default_factory=list)

    @property
    def availability(self) -> float:
        total = len(self.result.files)
        if total == 0:
            return 1.0
        return len(self.available_files) / total


class FailureInjector:
    """Crash / recover storage units of a SmartStore deployment.

    Parameters
    ----------
    store:
        The deployment under test.  It is never mutated; failures are an
        overlay maintained by the injector.
    seed:
        Seed for the random crash selection helpers.
    """

    def __init__(self, store: SmartStore, seed: Optional[int] = None) -> None:
        self.store = store
        self.rng = np.random.default_rng(seed)
        self._failed: Set[int] = set()

    # ------------------------------------------------------------------ crash / recover
    @property
    def failed_units(self) -> Set[int]:
        """The currently crashed storage units."""
        return set(self._failed)

    def is_alive(self, unit_id: int) -> bool:
        return unit_id not in self._failed

    def crash_unit(self, unit_id: int) -> None:
        """Mark ``unit_id`` as crashed."""
        if unit_id not in self.store.cluster.servers:
            raise KeyError(f"unknown storage unit {unit_id}")
        self._failed.add(unit_id)

    def crash_units(self, unit_ids: Iterable[int]) -> None:
        for unit_id in unit_ids:
            self.crash_unit(unit_id)

    def crash_random_units(self, count: int) -> List[int]:
        """Crash ``count`` distinct, currently alive units chosen at random."""
        alive = [u for u in self.store.cluster.unit_ids() if u not in self._failed]
        if count > len(alive):
            raise ValueError(
                f"cannot crash {count} units, only {len(alive)} are still alive"
            )
        chosen = [int(u) for u in self.rng.choice(alive, size=count, replace=False)]
        self._failed.update(chosen)
        return chosen

    def recover_unit(self, unit_id: int) -> None:
        """Bring a crashed unit back."""
        self._failed.discard(unit_id)

    def recover_all(self) -> None:
        self._failed.clear()

    # ------------------------------------------------------------------ availability analysis
    def _root_hosts(self) -> List[int]:
        root = self.store.tree.root
        hosts = []
        if root.hosted_on is not None:
            hosts.append(root.hosted_on)
        hosts.extend(root.replica_hosts)
        return hosts

    def root_reachable(self) -> bool:
        """True when at least one root host (primary or replica) is alive."""
        return any(h not in self._failed for h in self._root_hosts())

    def _index_units_lost_host(self) -> List[SemanticNode]:
        return [
            node
            for node in self.store.tree.index_units()
            if node.hosted_on is not None and node.hosted_on in self._failed
        ]

    def availability_report(self) -> AvailabilityReport:
        """Summarise what the injected failures cost the deployment."""
        cluster = self.store.cluster
        total_files = cluster.total_files()
        lost_files = sum(
            len(cluster.server(u)) for u in self._failed if u in cluster.servers
        )
        available = (total_files - lost_files) / total_files if total_files else 1.0

        lost_host = self._index_units_lost_host()
        rehostable = 0
        for node in lost_host:
            survivors = [u for u in node.descendant_unit_ids() if u not in self._failed]
            if node is self.store.tree.root:
                # The root can also fail over to any of its §4.3 replicas.
                if self.root_reachable() or survivors:
                    rehostable += 1
            elif survivors:
                rehostable += 1

        orphaned = sum(
            1
            for group in self.store.tree.first_level_groups()
            if group.descendant_unit_ids()
            and all(u in self._failed for u in group.descendant_unit_ids())
        )
        return AvailabilityReport(
            failed_units=len(self._failed),
            alive_units=cluster.num_units - len(self._failed),
            file_availability=available,
            root_reachable=self.root_reachable(),
            index_units_lost_host=len(lost_host),
            index_units_rehostable=rehostable,
            orphaned_groups=orphaned,
        )

    # ------------------------------------------------------------------ root failover (§4.3)
    def root_failover(self) -> RootFailoverReport:
        """Promote a surviving root replica when the primary host is down.

        The promotion multicasts the new primary's identity to every
        first-level group (one message each) plus one message per surviving
        replica to refresh its view.  The deployment's tree is updated in
        place (``root.hosted_on``) because a promotion is a real
        configuration change, unlike the crash overlay.
        """
        root = self.store.tree.root
        old_host = root.hosted_on
        if old_host is None or old_host not in self._failed:
            return RootFailoverReport(failed_over=False, old_host=old_host, new_host=old_host, messages=0)

        candidates = [h for h in root.replica_hosts if h not in self._failed]
        if not candidates:
            # Last resort: any alive unit can recompute the root from the
            # surviving first-level groups.
            candidates = [u for u in self.store.cluster.unit_ids() if u not in self._failed]
        if not candidates:
            return RootFailoverReport(failed_over=False, old_host=old_host, new_host=None, messages=0)

        new_host = int(candidates[0])
        groups = self.store.tree.first_level_groups()
        messages = len(groups) + max(0, len(root.replica_hosts) - 1)

        root.hosted_on = new_host
        if new_host in root.replica_hosts:
            root.replica_hosts = [h for h in root.replica_hosts if h != new_host]
        return RootFailoverReport(
            failed_over=True, old_host=old_host, new_host=new_host, messages=messages
        )

    # ------------------------------------------------------------------ degraded queries
    def unit_of_file(self, file: FileMetadata) -> Optional[int]:
        """The storage unit currently holding ``file``, if known."""
        return self.store._file_locations.get(file.file_id)

    def run_degraded_query(self, query: Query) -> DegradedQueryResult:
        """Execute ``query`` and split its results into reachable and lost."""
        result = self.store.execute(query)
        available: List[FileMetadata] = []
        lost: List[FileMetadata] = []
        for f in result.files:
            owner = self.unit_of_file(f)
            if owner is not None and owner in self._failed:
                lost.append(f)
            else:
                available.append(f)
        return DegradedQueryResult(result=result, available_files=available, lost_files=lost)

    def degraded_recall(
        self,
        queries: Sequence[Query],
        ideal_population: Optional[Sequence[FileMetadata]] = None,
    ) -> float:
        """Mean fraction of ideal results still reachable across ``queries``.

        ``ideal_population`` defaults to the deployment's file population;
        only complex queries contribute (point queries are binary).
        """
        from repro.eval.recall import ground_truth_range, ground_truth_topk, recall

        population = list(ideal_population) if ideal_population is not None else self.store.files
        values: List[float] = []
        for query in queries:
            if isinstance(query, RangeQuery):
                ideal = ground_truth_range(population, query)
            elif isinstance(query, TopKQuery):
                ideal = ground_truth_topk(
                    population,
                    query,
                    self.store.schema,
                    raw_lower=self.store.index_lower,
                    raw_upper=self.store.index_upper,
                )
            else:
                continue
            if not ideal:
                continue
            degraded = self.run_degraded_query(query)
            values.append(recall(degraded.available_files, ideal))
        return float(np.mean(values)) if values else 1.0

    def __repr__(self) -> str:
        return (
            f"FailureInjector(failed={sorted(self._failed)}, "
            f"alive={self.store.cluster.num_units - len(self._failed)})"
        )
