"""Fault-injection harness for the durability and resilience layers.

Two families of faults live here:

* **Crash points** (:func:`crash_at`) — process death at named seams inside
  the durability code, exercised by ``tests/test_durability_crash.py``.
* **Task faults** (:class:`FaultyExecutor`) — per-task compute failures for
  the resilience layer: an executor proxy that wraps any real executor and
  injects fail-once/fail-N, hangs, wrong-result-then-correct, simulated and
  *real* pool death into chosen tasks, deterministically by task name and
  attempt number.  Exercised by ``tests/test_resilience.py``, mostly over
  :class:`ThreadPool`, a pool that can hang a task without spawning a
  process.

The durability code is laced with named :func:`repro.durability.crash_point`
seams (see :data:`repro.durability.CRASH_POINTS`): every WAL append step,
every step of the checkpoint publish dance, and the overlay rebase
boundary.  This harness installs a process-wide hook that raises
:class:`SimulatedCrash` at a chosen seam, simulating the process dying
exactly there with whatever half-state is already on disk — a torn WAL
record, a published-but-untruncated checkpoint, and so on.

Usage::

    with crash_at("wal.append.torn") as crash:
        try:
            durable.replay(log)          # dies mid-append of some batch
        except SimulatedCrash:
            pass
    assert crash.fired                   # the seam was actually reached
    recovered = DurableStreamSession.recover(directory)

``crash_at(name, skip=n)`` lets the first ``n`` hits of the seam pass so a
crash can be planted in a *later* batch or checkpoint.  The context manager
always uninstalls the hook, so recovery (and reference runs) execute
crash-free.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import os
import threading
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Optional

from repro.durability import CRASH_POINTS, install_crash_hook, uninstall_crash_hook
from repro.parallel.executor import Executor, _PoolExecutor


class SimulatedCrash(Exception):
    """Raised by the injected hook to simulate process death at a seam."""

    def __init__(self, point: str):
        super().__init__(f"simulated crash at {point}")
        self.point = point


class CrashPlan:
    """Mutable record of one injection: how often the seam fired."""

    def __init__(self, point: str, skip: int):
        self.point = point
        self.skip = skip
        self.hits = 0

    @property
    def fired(self) -> bool:
        return self.hits > self.skip

    def __call__(self, point: str) -> None:
        if point != self.point:
            return
        self.hits += 1
        if self.hits > self.skip:
            raise SimulatedCrash(point)


@contextmanager
def crash_at(point: str, skip: int = 0):
    """Install a hook that raises :class:`SimulatedCrash` at ``point``.

    The first ``skip`` hits of the seam are let through.  Yields the
    :class:`CrashPlan` so the caller can assert the seam was reached.
    """
    if point not in CRASH_POINTS:
        raise ValueError(f"unknown crash point: {point!r}")
    plan = CrashPlan(point, skip)
    install_crash_hook(plan)
    try:
        yield plan
    finally:
        uninstall_crash_hook()


@contextmanager
def record_crash_points():
    """Install a hook that records (without raising) every seam hit."""
    hits = []
    install_crash_hook(hits.append)
    try:
        yield hits
    finally:
        uninstall_crash_hook()


# --------------------------------------------------------------------------
# Task-fault injection for the resilience layer
# --------------------------------------------------------------------------

class ThreadPool(_PoolExecutor):
    """A pool of ``workers`` threads behind the library's pool logic.

    The library ships no thread executor (every matcher holds the GIL, so
    one is slower than the serial executor); the supervision tests keep
    this one because it hands out real futures, can hang a task, and starts
    no process.  Its tasks run in this process, so the grid runs them on
    its views in place, as under the serial executor.
    """

    kind = "threads"

    def _make_pool(self) -> concurrent.futures.Executor:
        return concurrent.futures.ThreadPoolExecutor(max_workers=self.workers)


#: Fault kinds understood by :class:`FaultSpec`.
FAULT_KINDS = ("fail", "hang", "wrong-result", "pool-death", "worker-exit")


class FaultInjected(Exception):
    """The transient failure raised into faulted task attempts (picklable)."""

    def __init__(self, name: str, attempt: int):
        super().__init__(f"injected fault in task {name!r} (attempt {attempt})")
        self.name = name
        self.attempt = attempt

    def __reduce__(self):  # exceptions with extra ctor args need help pickling
        return (FaultInjected, (self.name, self.attempt))


@dataclass(frozen=True)
class FaultSpec:
    """What goes wrong with one task, and for how many attempts (picklable).

    * ``fail`` — raise :class:`FaultInjected`;
    * ``hang`` — wait ``delay`` seconds (or until the executor closes, in
      a thread) *then* compute the correct result
      (a straggler / deadline-buster; correctness is unaffected if a late
      result ever slipped through — which the supervisor must prevent);
    * ``wrong-result`` — compute the result, then corrupt it (a
      misrouted/garbled worker reply the validator must reject);
    * ``pool-death`` — raise ``BrokenProcessPool`` (simulated pool loss,
      works under any pool executor);
    * ``worker-exit`` — ``os._exit(3)`` in the worker: *real* pool death.
      Only meaningful under a process pool — never inject into threads.

    The fault hits the task's first ``times`` attempts; later attempts run
    clean.  Attempts are counted by the :class:`FaultyExecutor` in the
    parent at wrap time, so the behaviour is deterministic per (task,
    attempt) even across worker processes.
    """

    kind: str
    times: int = 1
    delay: float = 0.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.times < 1:
            raise ValueError("times must be >= 1")


#: Set when a :class:`FaultyExecutor` closes, so a hang in one of its pool
#: threads ends then instead of sleeping out its delay.  A process worker
#: holds its own copy, which closing does not set: there a hang lasts its
#: full delay.
_release_hangs = threading.Event()


def _corrupt(result: object) -> object:
    """Make a result the grid's validator must reject."""
    if dataclasses.is_dataclass(result) and hasattr(result, "name"):
        return dataclasses.replace(result, name=str(result.name) + "!corrupt")
    return ("corrupted", result)


def _faulted_call(kind: Optional[str], name: str, attempt: int, delay: float,
                  fn: Callable[[], object]) -> object:
    """Execute one (possibly faulted) attempt.  Module-level: must pickle."""
    if kind is None:
        return fn()
    if kind == "fail":
        raise FaultInjected(name, attempt)
    if kind == "hang":
        _release_hangs.wait(timeout=delay)
        return fn()
    if kind == "wrong-result":
        return _corrupt(fn())
    if kind == "pool-death":
        raise BrokenProcessPool(
            f"injected pool death in task {name!r} (attempt {attempt})")
    if kind == "worker-exit":
        os._exit(3)
    raise AssertionError(f"unhandled fault kind {kind!r}")


class FaultyExecutor(Executor):
    """Executor proxy injecting per-task faults per a schedule (test double).

    Wraps a real executor and rewrites every task callable — whether it
    flows through :meth:`map_tasks`, the supervision seam
    :meth:`submit_task`, or the degraded :meth:`run_inline` path — through
    :func:`_faulted_call` according to ``schedule`` (task name →
    :class:`FaultSpec`; the key ``"*"`` faults every task not listed
    explicitly).  Attempt counting happens here, in the parent, so fault
    decisions are deterministic regardless of which worker runs the
    attempt.  ``schedule`` stays mutable on purpose — tests arm faults
    after a clean cold start by updating it in place.
    """

    def __init__(self, inner: Executor, schedule: Dict[str, FaultSpec]):
        self.inner = inner
        self.schedule = dict(schedule)
        self.kind = inner.kind
        self.supports_supervision = inner.supports_supervision
        #: attempts wrapped so far, per task name (includes clean attempts).
        self.attempts: Dict[str, int] = {}

    def _wrap(self, name: str, fn: Callable[[], object]) -> Callable[[], object]:
        attempt = self.attempts.get(name, 0) + 1
        self.attempts[name] = attempt
        # "*" faults every task (each one counted separately).
        spec = self.schedule.get(name, self.schedule.get("*"))
        kind = spec.kind if spec is not None and attempt <= spec.times else None
        delay = spec.delay if spec is not None else 0.0
        return partial(_faulted_call, kind, name, attempt, delay, fn)

    # Everything below forwards to the inner executor with wrapped callables.
    def map_tasks(self, tasks):
        return self.inner.map_tasks(
            [(name, self._wrap(name, fn)) for name, fn in tasks])

    def submit_task(self, name, fn):
        return self.inner.submit_task(name, self._wrap(name, fn))

    def run_inline(self, name, fn):
        return self.inner.run_inline(name, self._wrap(name, fn))

    def rebuild(self):
        self.inner.rebuild()

    def share(self, key, value):
        self.inner.share(key, value)

    def unshare(self, key):
        self.inner.unshare(key)

    # Leaving releases the hangs still waiting, so the inner pool's shutdown
    # does not sit out their delay; entering re-arms them.
    def close(self):
        _release_hangs.set()
        self.inner.close()

    def __enter__(self):
        _release_hangs.clear()
        self.inner.__enter__()
        return self

    def __exit__(self, *exc_info):
        _release_hangs.set()
        self.inner.__exit__(*exc_info)
