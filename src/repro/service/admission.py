"""Admission control for the query service.

Admission caps the number of requests admitted but not yet completed.
Callers either block until a slot frees up (backpressure, the default —
what a closed-loop client wants) or are rejected immediately
(``block=False`` — what an overloaded service does).
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Tuple

from repro.workloads.types import Query

__all__ = [
    "ServiceOverloadedError",
    "ServiceRequest",
    "AdmissionController",
]


class ServiceOverloadedError(RuntimeError):
    """Raised when a non-blocking request exceeds the admission limit."""


class ServiceRequest:
    """One admitted request travelling through the service.

    ``request_id`` is assigned in admission order.  ``seed`` and
    ``home_unit`` are a pure function of ``(service seed, request_id)``
    whether or not anybody reads them: they are drawn by ``draw`` on first
    read, so a request that never reaches the engine (a cache hit or an
    already-expired deadline) never pays for the ``Generator`` behind
    them, and cost accounting still does not depend on thread scheduling
    or on how many draws happened before.  A request
    built with a literal ``seed`` / ``home_unit`` pair is pre-drawn.

    ``options`` / ``deadline`` carry the unified client API's per-request
    options (:class:`repro.api.options.RequestOptions`) and the started
    deadline clock; both stay ``None`` for a request without options.
    Requests with constraining options bypass the result cache.
    """

    __slots__ = (
        "request_id",
        "query",
        "options",
        "deadline",
        "_identity",
        "_draw",
    )

    def __init__(
        self,
        request_id: int,
        query: Query,
        seed: Optional[int] = None,
        home_unit: Optional[int] = None,
        *,
        draw: Optional[Callable[[int], Tuple[int, int]]] = None,
        options: Optional[object] = None,
        deadline: Optional[object] = None,
    ) -> None:
        if (seed is None) != (home_unit is None):
            raise ValueError(
                "seed and home_unit are drawn together: pass both or neither"
            )
        if seed is None and draw is None:
            raise ValueError(
                "a request needs a (seed, home_unit) pair or a draw function"
            )
        self.request_id = request_id
        self.query = query
        self.options = options
        self.deadline = deadline
        self._identity: Optional[Tuple[int, int]] = (
            None if seed is None or home_unit is None else (seed, home_unit)
        )
        self._draw = draw

    def _drawn(self) -> Tuple[int, int]:
        identity = self._identity
        if identity is None:
            # Two threads racing here both compute the same pair.
            assert self._draw is not None
            identity = self._identity = self._draw(self.request_id)
        return identity

    @property
    def seed(self) -> int:
        """The per-request seed; kept to make the draw replayable when debugging."""
        return self._drawn()[0]

    @property
    def home_unit(self) -> int:
        return self._drawn()[1]

    def __repr__(self) -> str:
        drawn = (
            "undrawn"
            if self._identity is None
            else "seed=%d, home_unit=%d" % self._identity
        )
        return (
            f"ServiceRequest(request_id={self.request_id}, "
            f"query={self.query!r}, {drawn})"
        )


class AdmissionController:
    """Counting semaphore with optional rejection and drain support."""

    def __init__(self, max_in_flight: int, *, block: bool = True) -> None:
        if max_in_flight < 1:
            raise ValueError(f"max_in_flight must be >= 1, got {max_in_flight}")
        self.max_in_flight = max_in_flight
        self.block = block
        self._in_flight = 0
        self._admitted = 0
        self._rejected = 0
        self._cond = threading.Condition()

    # ------------------------------------------------------------------ slots
    def admit(self) -> bool:
        """Take a slot; blocks or returns ``False`` depending on policy."""
        with self._cond:
            if not self.block and self._in_flight >= self.max_in_flight:
                self._rejected += 1
                return False
            while self._in_flight >= self.max_in_flight:
                self._cond.wait()
            self._in_flight += 1
            self._admitted += 1
            return True

    def release(self, count: int = 1) -> None:
        with self._cond:
            self._in_flight = max(0, self._in_flight - count)
            self._cond.notify_all()

    def drain(self) -> None:
        """Block until no admitted request remains in flight."""
        with self._cond:
            while self._in_flight > 0:
                self._cond.wait()

    # ------------------------------------------------------------------ accounting
    @property
    def in_flight(self) -> int:
        with self._cond:
            return self._in_flight

    @property
    def admitted(self) -> int:
        return self._admitted

    @property
    def rejected(self) -> int:
        return self._rejected

    def __repr__(self) -> str:
        return (
            f"AdmissionController(in_flight={self.in_flight}/{self.max_in_flight}, "
            f"admitted={self._admitted}, rejected={self._rejected})"
        )
