"""Per-request options: deadline, consistency preference, pagination.

A :class:`RequestOptions` travels with one request through the unified
client (:mod:`repro.api.client`) and the layers below it:

* **Deadline** — a wall-clock budget for the whole request, measured from
  admission.  Deadlines are *cooperative*: the query engine checks the
  budget between per-group scans, the shard router between scatter
  phases, and the service before dispatching at all, so an expired
  request stops doing work at the next check rather than being
  preempted.  What an expiry means is the caller's choice
  (:attr:`RequestOptions.on_deadline`): ``"partial"`` returns whatever
  was gathered before the budget ran out (the response is marked
  incomplete), ``"fail"`` raises :class:`DeadlineExceededError`.
* **Consistency** — where a replicated deployment may serve the read:
  ``"primary"`` (the current primary, read-your-writes), ``"any_replica"``
  (any healthy member, no catch-up — may trail the primary by up to the
  replication lag) or ``"bounded"`` (any member caught up to within
  :attr:`RequestOptions.max_staleness` shipped-but-unapplied records).
  Unreplicated deployments serve every level identically.
* **Pagination** — ``page_size`` asks for :class:`~repro.api.response.ResultPage`
  results; ``cursor`` resumes a previous page stream (see
  :mod:`repro.api.cursor` for the token contract).

This module is deliberately dependency-free (stdlib only): the layers
below the client duck-type against it without importing the API package.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "CONSISTENCY_LEVELS",
    "DEADLINE_POLICIES",
    "Deadline",
    "DeadlineExceededError",
    "PartialResultError",
    "RequestOptions",
]

#: Where a replicated deployment may serve a read.
CONSISTENCY_LEVELS = ("primary", "any_replica", "bounded")

#: What an expired deadline means for the response.
DEADLINE_POLICIES = ("partial", "fail")


class DeadlineExceededError(TimeoutError):
    """A request with ``on_deadline="fail"`` ran out of budget."""


class PartialResultError(RuntimeError):
    """A request with ``on_deadline="fail"`` came back incomplete for a
    reason other than its deadline.  Requests with the default
    ``"partial"`` policy receive the incomplete payload
    (``complete=False``) instead."""


@dataclass(frozen=True)
class Deadline:
    """A started deadline: an absolute expiry on the monotonic clock.

    Created by :meth:`RequestOptions.start` at admission time, so queue
    wait counts against the budget.  The layers below check
    :meth:`expired` cooperatively between units of work.
    """

    expires_at: float
    budget_s: float

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        return cls(expires_at=time.monotonic() + seconds, budget_s=seconds)

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self.expires_at - time.monotonic()

    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at


@dataclass(frozen=True)
class RequestOptions:
    """Options carried by one request through the unified client API.

    All fields default to the unconstrained behaviour, so
    ``RequestOptions()`` is exactly a legacy request: no deadline, fully
    caught-up reads, one unpaginated result.
    """

    deadline_s: Optional[float] = None
    on_deadline: str = "partial"
    consistency: str = "primary"
    max_staleness: int = 0
    page_size: Optional[int] = None
    cursor: Optional[str] = None
    #: Distributed-tracing correlation (see :mod:`repro.obs.trace`).
    #: Set by the client edge when tracing is enabled, or supplied by a
    #: caller continuing an existing trace.  Telemetry-only: trace fields
    #: never make a request :attr:`constrained` — a traced request must
    #: behave (cache) exactly like its untraced twin.
    trace_id: Optional[str] = None
    trace_parent: Optional[str] = None

    def __post_init__(self) -> None:
        if self.deadline_s is not None and (
            not math.isfinite(self.deadline_s) or self.deadline_s < 0.0
        ):
            raise ValueError("deadline_s must be a finite, non-negative number")
        if self.on_deadline not in DEADLINE_POLICIES:
            raise ValueError(f"on_deadline must be one of {DEADLINE_POLICIES}")
        if self.consistency not in CONSISTENCY_LEVELS:
            raise ValueError(f"consistency must be one of {CONSISTENCY_LEVELS}")
        if self.max_staleness < 0:
            raise ValueError("max_staleness must be >= 0")
        if self.page_size is not None and self.page_size < 1:
            raise ValueError("page_size must be >= 1")

    # ------------------------------------------------------------------ helpers
    @property
    def constrained(self) -> bool:
        """True when any option deviates from legacy semantics.

        Constrained requests bypass the service's result cache: a
        deadline partial must never be served to (or
        stored for) an unconstrained caller, and a relaxed-consistency
        read is not interchangeable with a caught-up one.
        """
        return (
            self.deadline_s is not None
            or self.consistency != "primary"
            or self.page_size is not None
            or self.cursor is not None
        )

    @property
    def traced(self) -> bool:
        return self.trace_id is not None

    @property
    def paginated(self) -> bool:
        return self.page_size is not None or self.cursor is not None

    def start(self) -> Optional[Deadline]:
        """Start the deadline clock (None when no deadline was requested)."""
        if self.deadline_s is None:
            return None
        return Deadline.after(self.deadline_s)
