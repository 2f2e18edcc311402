"""Pluggable executors for the map phase of a round.

The grid in :mod:`repro.parallel.grid` performs each round's per-neighborhood
matcher computation through one of these executors:

* :class:`SerialExecutor` — one task after another, in submission order; the
  default and the reference behaviour the process pool must reproduce.
* :class:`ProcessExecutor` — a process pool; real CPU parallelism for pure
  Python matchers, at the cost of pickling task payloads to the workers.

Every matcher here holds the GIL, so a thread pool would only add overhead
to the serial executor, and the library ships none; :class:`_PoolExecutor`
keeps the pool logic behind one ``_make_pool`` seam.

All executors consume generic ``(name, callable)`` tasks and return results
keyed by task name, so applications can also drive their own per-neighborhood
work through them.  :class:`ProcessExecutor` additionally requires each
callable (and its return value) to be picklable — a module-level function
wrapped with :func:`functools.partial` over picklable arguments, as
:func:`repro.parallel.tasks.execute_map_task` is used by the grid.

Pool-backed executors ship a round's tasks in at most ``4 × workers`` chunks,
one pool round trip each.  Outside a ``with`` block every non-empty call opens
a one-shot pool; the grid keeps one open across its rounds::

    with ProcessExecutor(workers=8) as executor:
        GridExecutor(scheme="mmp", executor=executor).run(matcher, store, cover)

:class:`repro.parallel.resilience.ResilientExecutor` supervises tasks one by
one instead, through the :meth:`Executor.submit_task` seam below.
"""

from __future__ import annotations

import abc
import concurrent.futures
import os
from typing import Callable, ClassVar, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..exceptions import ExperimentError
from . import shared as _shared

ResultT = TypeVar("ResultT")
NamedTask = Tuple[str, Callable[[], ResultT]]

#: Spec strings accepted by :func:`make_executor` (and the CLI's ``--executor``).
EXECUTOR_KINDS = ("serial", "processes")


class Executor(abc.ABC):
    """Executes a batch of named tasks and returns their results by name.

    Executors are context managers: ``with`` keeps any backing worker pool
    alive across :meth:`map_tasks` calls and releases it on exit.  Outside a
    ``with`` block the serial executor needs no resources and the pool-backed
    executors fall back to a one-shot pool per call.
    """

    #: Spec string identifying the executor family (``"serial"``, ...).
    kind: ClassVar[str] = "abstract"

    @abc.abstractmethod
    def map_tasks(self, tasks: Sequence[NamedTask]) -> Dict[str, ResultT]:
        """Execute all tasks and return their results keyed by task name.

        Raises the first failure (in completion order) after cancelling every
        task that has not started; partial results are discarded.  Pool
        executors cancel whole chunks, and a failing task's chunk-mates
        after it never run.
        """

    def close(self) -> None:
        """Release any backing worker pool (idempotent; no-op by default)."""

    # ----------------------------------------------------------- supervision
    #: Whether :meth:`submit_task` yields real futures this executor's
    #: supervisor can watch individually (pool-backed executors only).
    supports_supervision: ClassVar[bool] = False

    def submit_task(self, name: str,
                    fn: Callable[[], ResultT]) -> Optional["concurrent.futures.Future"]:
        """Submit one named task for future-level supervision.

        Returns ``None`` when the executor cannot hand out futures (the
        serial executor, or a pool-backed executor outside a ``with`` block);
        supervisors then fall back to running tasks inline.
        """
        return None

    def run_inline(self, name: str, fn: Callable[[], ResultT]) -> ResultT:
        """Run one task on the calling thread (the degraded serial path).

        This bypasses any worker pool entirely — it is the last resort the
        resilient executor uses for a task whose pool attempts all failed.
        """
        return fn()

    def rebuild(self) -> None:
        """Recreate the backing pool after it broke (no-op without a pool)."""

    # --------------------------------------------------------------- sharing
    def share(self, key: str, value) -> None:
        """Broadcast a round-invariant payload to every worker process.

        Only :class:`ProcessExecutor` has workers to send it to: in-process
        tasks read the caller's objects, so this is a no-op here.
        """

    def unshare(self, key: str) -> None:
        """Drop a previously shared payload (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(kind={self.kind!r})"


class SerialExecutor(Executor):
    """Runs tasks one after another, in order (fully deterministic)."""

    kind = "serial"

    def map_tasks(self, tasks: Sequence[NamedTask]) -> Dict[str, ResultT]:
        return {name: task() for name, task in tasks}


def _run_chunk(tasks: Sequence[NamedTask]) -> List[Tuple[str, ResultT]]:
    """Run one chunk of a pool round in order (module-level so it pickles)."""
    return [(name, task()) for name, task in tasks]


class _PoolExecutor(Executor):
    """Shared submit/collect/cancel logic for pool-backed executors."""

    supports_supervision = True

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._pool: Optional[concurrent.futures.Executor] = None
        self._depth = 0

    @abc.abstractmethod
    def _make_pool(self) -> concurrent.futures.Executor:
        """Create the backing pool with ``self.workers`` workers."""

    def submit_task(self, name: str,
                    fn: Callable[[], ResultT]) -> Optional[concurrent.futures.Future]:
        if self._pool is None:
            return None
        return self._pool.submit(fn)

    def rebuild(self) -> None:
        """Replace a (possibly broken) open pool with a fresh one.

        Futures still queued on the old pool are cancelled; running tasks
        finish but nobody collects them.  A closed executor stays closed.
        For :class:`ProcessExecutor` the fresh pool re-ships every recorded
        broadcast payload through its initializer, so shared snapshots
        survive pool death.
        """
        if self._pool is None:
            return
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = self._make_pool()

    def map_tasks(self, tasks: Sequence[NamedTask]) -> Dict[str, ResultT]:
        if not tasks:
            return {}
        if self._pool is not None:
            return self._collect(self._pool, tasks)
        with self._make_pool() as pool:
            return self._collect(pool, tasks)

    def _collect(self, pool: concurrent.futures.Executor,
                 tasks: Sequence[NamedTask]) -> Dict[str, ResultT]:
        # Round-robin deal: a round's tasks cost one pool round trip per
        # chunk, not per task.
        count = min(len(tasks), 4 * self.workers)
        futures = [pool.submit(_run_chunk, tasks[i::count]) for i in range(count)]
        results: Dict[str, ResultT] = {}
        try:
            for future in concurrent.futures.as_completed(futures):
                results.update(future.result())
        except BaseException:
            # First failure wins: cancel every chunk not yet started and
            # propagate.  Running chunks finish but their results are dropped.
            for pending in futures:
                pending.cancel()
            raise
        return results

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._depth = 0

    def __enter__(self) -> "Executor":
        if self._pool is None:
            self._pool = self._make_pool()
        self._depth += 1
        return self

    def __exit__(self, *exc_info) -> None:
        self._depth -= 1
        if self._depth <= 0:
            self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(workers={self.workers})"


class ProcessExecutor(_PoolExecutor):
    """Runs tasks in a process pool of ``workers`` processes.

    Task callables and their results cross a process boundary, so both must
    be picklable: use module-level functions (optionally wrapped with
    :func:`functools.partial`) over picklable payloads, never lambdas or
    closures.  The grid satisfies this by shipping
    :class:`repro.parallel.tasks.MapTask` payloads over a broadcast snapshot.
    """

    kind = "processes"

    def __init__(self, workers: Optional[int] = None, mp_context=None):
        super().__init__(workers if workers is not None else (os.cpu_count() or 1))
        self.mp_context = mp_context
        self._shared_payloads: Dict[str, object] = {}

    def share(self, key: str, value) -> None:
        """Broadcast a payload to every worker, and to this process.

        Payloads are shipped through the pool's ``initializer``, so each
        worker unpickles them exactly once; an open pool is re-spawned to
        get them, and so is a pool that :meth:`rebuild` replaces.  The
        payload is also installed here, where the degraded inline run
        (:meth:`run_inline`) resolves it.
        """
        self._shared_payloads[key] = value
        _shared.share_local(key, value)
        self.rebuild()

    def unshare(self, key: str) -> None:
        self._shared_payloads.pop(key, None)
        _shared.unshare_local(key)

    def _make_pool(self) -> concurrent.futures.Executor:
        initializer = None
        initargs = ()
        if self._shared_payloads:
            initializer = _shared.install_shared
            initargs = (dict(self._shared_payloads),)
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=self.workers, mp_context=self.mp_context,
            initializer=initializer, initargs=initargs)


def make_executor(kind: str, workers: Optional[int] = None) -> Executor:
    """Build an executor from a spec string (``serial``/``processes``).

    ``workers`` is ignored by the serial executor; the process pool falls
    back to one worker per CPU when it is ``None``.  A
    non-positive worker count is a configuration error and raises
    :class:`~repro.exceptions.ExperimentError` rather than leaking a
    ``ValueError`` out of the pool constructor.
    """
    normalized = kind.lower()
    if workers is not None and workers < 1:
        raise ExperimentError(
            f"executor workers must be >= 1, got {workers}")
    if normalized == "serial":
        return SerialExecutor()
    if normalized == "processes":
        return ProcessExecutor(workers)
    raise ExperimentError(
        f"unknown executor kind {kind!r}; known kinds: {EXECUTOR_KINDS}")
