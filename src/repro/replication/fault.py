"""Fault injection against *real* replica deployments.

:mod:`repro.cluster.failures` injects crashes as a visibility overlay — the
deployment's structures are never touched, which is ideal for sweeping
crash patterns over one build.  This module is the complement: its
:class:`FaultInjector` flips fault state on live
:class:`~repro.replication.group.Replica` objects, so the replication
protocol (health trackers, circuit breakers, promotion, catch-up,
anti-entropy) reacts exactly as it would in production.  Both the
fault-injection tests and ``repro bench replica`` drive their deployments
through this injector.

Fault kinds:

* **crash** — every operation against the replica raises
  :class:`ReplicaCrashedError` until :meth:`FaultInjector.recover` runs;
  recovery reintegrates the replica through the group (catch-up replay
  plus an anti-entropy fingerprint check, so a diverged ex-primary is
  rebuilt rather than trusted).
* **pause** — the replica stops responding (reads fail over, shipped
  records queue up) but loses nothing; resume catches it up from its queue.
* **slow** — operations succeed after a simulated delay; slowness is not
  incorrectness, so results stay byte-identical.
* **one-shot primary fail points** — ``before_ship`` / ``after_ship``
  crash the primary at the two interesting instants of a write: after the
  WAL append but before the segment left the box (the write is *not*
  acked; the retry lands on the promoted replica), and after shipping
  (the retry double-applies, which the seq watermark makes idempotent).
* **crash_after_applies** — arms a countdown so the replica dies mid
  catch-up, exercising promotion fallback to the next-freshest replica.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

__all__ = [
    "ReplicaUnavailableError",
    "ReplicaCrashedError",
    "ReplicaPausedError",
    "GroupUnavailableError",
    "FaultInjector",
]


class ReplicaUnavailableError(RuntimeError):
    """A replica could not serve the operation (crash or pause)."""


class ReplicaCrashedError(ReplicaUnavailableError):
    """The replica is crashed: it answers nothing until recovered."""


class ReplicaPausedError(ReplicaUnavailableError):
    """The replica is paused (unresponsive but not losing state)."""


class GroupUnavailableError(RuntimeError):
    """Every member of a replica group is unavailable."""


class FaultInjector:
    """Crash / pause / slow live replicas of one or more replica groups.

    Parameters
    ----------
    groups:
        The replica groups under test — a single
        :class:`~repro.replication.group.ReplicaGroup`, a sequence of them,
        or anything exposing ``replica_groups()`` (a replication-enabled
        :class:`~repro.shard.router.ShardRouter`).
    """

    def __init__(self, groups: Any) -> None:
        if hasattr(groups, "replica_groups"):
            groups = groups.replica_groups()
        elif hasattr(groups, "members"):  # a single ReplicaGroup
            groups = [groups]
        self.groups: List[Any] = list(groups)
        if not self.groups:
            raise ValueError("FaultInjector needs at least one replica group")

    # ------------------------------------------------------------------ helpers
    def _replica(self, group_id: int, replica_id: int) -> Any:
        return self.groups[group_id].members[replica_id]

    # ------------------------------------------------------------------ crashes
    def crash(self, group_id: int, replica_id: int) -> None:
        """Crash one replica: every operation raises until recovery."""
        self._replica(group_id, replica_id).crashed = True

    def crash_primary(self, group_id: Optional[int] = None) -> List[int]:
        """Crash the current primary of one group (or of every group).

        Returns the replica ids that were killed, in group order.
        """
        targets = (
            range(len(self.groups)) if group_id is None else [group_id]
        )
        killed = []
        for gid in targets:
            group = self.groups[gid]
            primary_id = group.primary_id
            group.members[primary_id].crashed = True
            killed.append(primary_id)
        return killed

    def recover(self, group_id: int, replica_id: int) -> None:
        """Bring a crashed/paused replica back and reintegrate it.

        Reintegration replays the replica's queued shipped records and then
        runs the group's anti-entropy check against it: an ex-primary that
        applied a record which never shipped is detected by fingerprint
        mismatch and rebuilt from the current primary rather than serving
        divergent answers.
        """
        replica = self._replica(group_id, replica_id)
        replica.crashed = False
        replica.paused = False
        replica.crash_after_applies = None
        self.groups[group_id].reintegrate(replica)

    def crash_after_applies(self, group_id: int, replica_id: int, count: int) -> None:
        """Arm the replica to crash after applying ``count`` more records."""
        if count < 0:
            raise ValueError("count must be >= 0")
        self._replica(group_id, replica_id).crash_after_applies = count

    def fail_primary_at(self, group_id: int, point: str) -> None:
        """One-shot: crash the primary at a ship-relative instant.

        ``point`` is ``"before_ship"`` (WAL append done, segment never
        leaves) or ``"after_ship"`` (segment shipped, ack never sent).
        """
        if point not in ("before_ship", "after_ship"):
            raise ValueError(f"unknown fail point {point!r}")
        group = self.groups[group_id]
        group.members[group.primary_id].fail_point = point

    # ------------------------------------------------------------------ pause / slow
    def pause(self, group_id: int, replica_id: int) -> None:
        """Pause one replica (unresponsive; shipped records queue up)."""
        self._replica(group_id, replica_id).paused = True

    def resume(self, group_id: int, replica_id: int) -> None:
        """Resume a paused replica and catch it up from its queue."""
        replica = self._replica(group_id, replica_id)
        replica.paused = False
        self.groups[group_id].reintegrate(replica)

    def slow(self, group_id: int, replica_id: int, seconds: float) -> None:
        """Make one replica serve with an extra wall-clock delay."""
        if seconds < 0:
            raise ValueError("seconds must be >= 0")
        self._replica(group_id, replica_id).slow_seconds = float(seconds)

    # ------------------------------------------------------------------ introspection
    def active_faults(self) -> Dict[str, List[str]]:
        """Faults currently in force, keyed by kind."""
        out: Dict[str, List[str]] = {"crashed": [], "paused": [], "slow": [], "armed": []}
        for gid, group in enumerate(self.groups):
            for replica in group.members:
                tag = f"g{gid}/r{replica.replica_id}"
                if replica.crashed:
                    out["crashed"].append(tag)
                if replica.paused:
                    out["paused"].append(tag)
                if replica.slow_seconds:
                    out["slow"].append(tag)
                if replica.fail_point or replica.crash_after_applies is not None:
                    out["armed"].append(tag)
        return out

    def clear_all(self) -> None:
        """Lift every fault and reintegrate every member."""
        for gid, group in enumerate(self.groups):
            for replica in group.members:
                replica.slow_seconds = 0.0
                replica.fail_point = None
                if replica.crashed or replica.paused:
                    self.recover(gid, replica.replica_id)

    def __repr__(self) -> str:
        active = {k: v for k, v in self.active_faults().items() if v}
        return f"FaultInjector(groups={len(self.groups)}, active={active})"
