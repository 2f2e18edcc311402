"""Admission control: bounded queues, a max-inflight gate, deadlines.

Overload policy of the serving layer, in one place:

* :class:`AdmissionGate` — at most ``max_inflight`` requests execute at
  once; up to ``max_waiting`` more may queue for a slot.  Anything beyond
  that is **shed immediately** with
  :class:`~repro.exceptions.ServiceOverloadedError` (HTTP 429 +
  ``Retry-After``) instead of growing an unbounded backlog — under
  saturation the latency of *accepted* requests stays bounded by
  ``max_waiting / throughput``.
* :class:`Deadline` — a monotonic per-request budget.  A request that
  cannot get a slot (or finish) inside its budget fails with
  :class:`~repro.exceptions.DeadlineExceededError` (HTTP 504); a late
  response is worthless, so the server stops working on it at the next
  check.

Both are plain threading constructs with an injectable clock so tests
drive them deterministically.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from ..exceptions import DeadlineExceededError, ServiceOverloadedError

Clock = Callable[[], float]


class Deadline:
    """A monotonic deadline: ``budget`` seconds from construction."""

    __slots__ = ("expires_at", "_clock")

    def __init__(self, budget: float, clock: Clock = time.monotonic):
        self._clock = clock
        self.expires_at = clock() + budget

    def remaining(self) -> float:
        return self.expires_at - self._clock()

    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self, what: str = "request") -> None:
        """Raise the typed 504 when the budget is spent."""
        if self.expired():
            raise DeadlineExceededError(f"{what} missed its deadline")


class AdmissionGate:
    """Bounded-concurrency gate with a bounded wait queue (see module docs)."""

    def __init__(self, max_inflight: int, max_waiting: int,
                 retry_after: float = 0.5, clock: Clock = time.monotonic):
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if max_waiting < 0:
            raise ValueError("max_waiting must be >= 0")
        self.max_inflight = max_inflight
        self.max_waiting = max_waiting
        self.retry_after = retry_after
        self._clock = clock
        self._lock = threading.Lock()
        self._slot_free = threading.Condition(self._lock)
        self.inflight = 0
        self.waiting = 0
        #: Lifetime counters (read under the lock by ``stats``).
        self.admitted_total = 0
        self.shed_total = 0
        self.deadline_total = 0

    def acquire(self, deadline: Optional[Deadline] = None) -> None:
        """Take an execution slot, or shed/expire the request.

        Raises :class:`ServiceOverloadedError` when the wait queue is full
        (immediate shed — the caller should retry after ``retry_after``) and
        :class:`DeadlineExceededError` when the slot does not free up inside
        the request's deadline.
        """
        with self._slot_free:
            if self.inflight < self.max_inflight:
                self.inflight += 1
                self.admitted_total += 1
                return
            if self.waiting >= self.max_waiting:
                self.shed_total += 1
                raise ServiceOverloadedError(
                    f"server saturated: {self.inflight} in flight, "
                    f"{self.waiting} waiting (max_waiting={self.max_waiting})",
                    retry_after=self.retry_after)
            self.waiting += 1
            try:
                while self.inflight >= self.max_inflight:
                    if deadline is None:
                        self._slot_free.wait()
                        continue
                    remaining = deadline.remaining()
                    if remaining <= 0.0:
                        self.deadline_total += 1
                        raise DeadlineExceededError(
                            "request expired while queued for a slot")
                    self._slot_free.wait(remaining)
                self.inflight += 1
                self.admitted_total += 1
            finally:
                self.waiting -= 1

    def release(self) -> None:
        with self._slot_free:
            self.inflight -= 1
            self._slot_free.notify()

    def __enter__(self) -> "AdmissionGate":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def stats(self) -> dict:
        with self._lock:
            return {
                "inflight": self.inflight,
                "waiting": self.waiting,
                "max_inflight": self.max_inflight,
                "max_waiting": self.max_waiting,
                "admitted_total": self.admitted_total,
                "shed_total": self.shed_total,
                "deadline_total": self.deadline_total,
            }
