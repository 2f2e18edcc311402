"""Fault-tolerant task supervision: retries, deadlines, speculation, degradation.

The plain executors of :mod:`repro.parallel.executor` have all-or-nothing
rounds: the first task failure cancels everything and discards partial
results.  That is the right contract for a correctness bug, but on a real
grid workers are *lossy* — tasks fail transiently, straggle, or take their
whole pool down with them — and the paper's deployment assumes rounds
survive that.  :class:`ResilientExecutor` wraps any existing executor and
upgrades :meth:`~repro.parallel.executor.Executor.map_tasks` into a
supervised round driven by a :class:`FaultPolicy`:

* **bounded retries** — a failed attempt is retried with exponential
  backoff; the jitter is derived from a seeded hash of ``(task name,
  attempt)``, so schedules are reproducible and no wall-clock randomness
  ever reaches results;
* **per-task deadlines** — an attempt running past ``task_timeout`` is
  abandoned (its late result is never committed) and retried;
* **speculative re-execution** — once enough tasks of the round finished,
  a quantile-based latency threshold identifies stragglers and launches one
  duplicate attempt each; whichever attempt commits first wins, duplicates
  are discarded *by task name*, so the reduce stays deterministic and match
  sets stay byte-identical to a serial run;
* **pool recovery** — a :class:`concurrent.futures.BrokenExecutor` (e.g.
  ``BrokenProcessPool`` after a worker died) rebuilds the inner pool, which
  re-ships every broadcast payload to its new workers, and resubmits every
  uncommitted task; pool loss is never charged against a task's retry
  budget;
* **quarantine with graceful degradation** — a task that exhausts its
  budget is re-run *inline on the caller* (the degraded serial path,
  bypassing the pool entirely); only if that also fails does a typed
  :class:`~repro.exceptions.TaskFailedError` surface, carrying the full
  per-attempt history.

Results can additionally be screened through a ``validator`` callback
(``validator(name, result) -> bool``); a result failing validation — a
misrouted or corrupted worker reply — counts as a failed attempt and is
retried.  The grid wires a validator that rejects any
:class:`~repro.parallel.tasks.MapResult` whose name does not match its task.

Every supervised round produces a :class:`RoundReport` (attempts, retries,
timeouts, speculative launches/wins, degraded runs, pool rebuilds) which
:class:`~repro.parallel.grid.GridExecutor` collects per round into
:attr:`~repro.parallel.grid.GridRunResult.round_reports`.

Determinism argument: task callables are pure functions of their payload,
results are committed into a dict keyed by task name, and the only results
that can commit are (a) a successful, validated attempt of the right task or
(b) nothing.  Retried, duplicated, abandoned and replayed attempts therefore
change *when* a result arrives, never *what* it is — which is what the chaos
matrix in ``tests/test_resilience.py`` asserts against an uninjected serial
reference.
"""

from __future__ import annotations

import concurrent.futures
import heapq
import itertools
import math
import time
import zlib
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..exceptions import ExperimentError, TaskFailedError
from ..obs.trace import span
from .executor import Executor, NamedTask, ResultT

#: Result validator signature: ``(task name, result) -> is the result sane?``
Validator = Callable[[str, object], bool]

#: Speculation copies an attempt once SPECULATION_MIN_DONE tasks of its round
#: finished and it ran SPECULATION_FACTOR x their SPECULATION_QUANTILE time.
SPECULATION_QUANTILE = 0.75
SPECULATION_FACTOR = 2.0
SPECULATION_MIN_DONE = 3


@dataclass(frozen=True)
class FaultPolicy:
    """Knobs of one supervised round (immutable, picklable).

    The defaults are conservative: retries on, no deadline, no speculation —
    a clean run pays only the supervision loop itself, one pool submission
    per attempt (``tests/test_counted_invariants.py`` counts them).
    """

    #: Seconds an attempt may run before it is abandoned and retried
    #: (``None`` disables deadlines).  Enforced only for pool-backed inner
    #: executors; an inline (serial) attempt cannot be preempted.
    task_timeout: Optional[float] = None
    #: Failed attempts re-scheduled per task before quarantine.
    retries: int = 2
    #: Base delay of the exponential backoff, in seconds.
    backoff_base: float = 0.05
    #: Growth factor per consecutive failure.
    backoff_factor: float = 2.0
    #: Upper bound on a single backoff delay, in seconds.
    backoff_max: float = 2.0
    #: Seed of the deterministic jitter (hash of seed, task name, attempt).
    jitter_seed: int = 0
    #: Launch speculative duplicates of straggler tasks (``SPECULATION_*``).
    speculate: bool = False
    #: Re-run quarantined tasks inline on the caller before giving up.
    degrade_serially: bool = True
    #: Pool rebuilds tolerated per round before the round is abandoned.
    max_pool_rebuilds: int = 2

    def __post_init__(self):
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ExperimentError("task_timeout must be positive (or None)")
        if self.retries < 0:
            raise ExperimentError("retries must be >= 0")
        if self.backoff_base < 0 or self.backoff_factor < 1.0 \
                or self.backoff_max < self.backoff_base:
            raise ExperimentError(
                "backoff must satisfy base >= 0, factor >= 1, max >= base")
        if self.max_pool_rebuilds < 0:
            raise ExperimentError("max_pool_rebuilds must be >= 0")


@dataclass
class AttemptRecord:
    """One attempt of one task, as recorded by the supervisor (picklable)."""

    #: 1-based attempt number within the task.
    index: int
    #: ``"pool"`` for attempts through the inner executor, ``"degraded"``
    #: for the final inline re-run on the caller.
    kind: str = "pool"
    #: Whether this attempt was a speculative duplicate of a straggler.
    speculative: bool = False
    #: ``ok`` / ``error`` / ``timeout`` / ``invalid`` / ``pool-lost`` /
    #: ``superseded`` (a duplicate that lost the commit race) / ``running``.
    outcome: str = "running"
    #: ``repr`` of the failure, when the attempt failed.
    error: Optional[str] = None
    duration: float = 0.0


@dataclass
class RoundReport:
    """Supervision counters of one ``map_tasks`` round (picklable)."""

    tasks: int = 0
    attempts: int = 0
    retries: int = 0
    failures: int = 0
    timeouts: int = 0
    invalid_results: int = 0
    speculative_launches: int = 0
    speculative_wins: int = 0
    degraded: int = 0
    pool_rebuilds: int = 0
    duplicates_discarded: int = 0

    def merge(self, other: "RoundReport") -> None:
        """Accumulate another round's counters into this one."""
        for spec in fields(self):
            setattr(self, spec.name,
                    getattr(self, spec.name) + getattr(other, spec.name))

    @classmethod
    def aggregate(cls, reports: Sequence["RoundReport"]) -> "RoundReport":
        total = cls()
        for report in reports:
            total.merge(report)
        return total


class SupervisionHistory:
    """Bounded per-session accumulation of supervised-round reports.

    A long-lived session runs one grid round-set per change batch, each
    producing a list of :class:`RoundReport`\\ s
    (:attr:`~repro.parallel.grid.GridRunResult.round_reports` — one per
    round, unbounded *across* batches if the caller keeps them all).  This class keeps that history bounded: the last
    ``limit`` per-batch aggregate reports are retained verbatim while
    running **aggregate counters** (one merged :class:`RoundReport` plus
    batch/round totals) cover everything ever recorded, including evicted
    entries — so operational metrics never lose information while memory
    stays O(limit).
    """

    def __init__(self, limit: int = 64):
        if limit < 0:
            raise ExperimentError("supervision history limit must be >= 0 "
                                  "(0 keeps aggregates only)")
        self.limit = limit
        #: Merged counters over every round ever recorded (never evicted).
        self.totals = RoundReport()
        self.batches_recorded = 0
        self.rounds_recorded = 0
        #: Per-batch aggregate reports evicted to honour ``limit``.
        self.batches_evicted = 0
        self._recent: deque = deque(maxlen=limit if limit > 0 else 1)
        if limit == 0:
            self._recent = deque(maxlen=0)

    def record(self, reports: Sequence[RoundReport]) -> None:
        """Fold one batch's round reports into the history.

        Batches that ran unsupervised (no fault policy — empty ``reports``)
        still count toward ``batches_recorded`` so gaps are visible.
        """
        self.batches_recorded += 1
        self.rounds_recorded += len(reports)
        batch_report = RoundReport.aggregate(reports)
        self.totals.merge(batch_report)
        if self.limit == 0:
            self.batches_evicted += 1
            return
        if len(self._recent) == self.limit:
            self.batches_evicted += 1
        self._recent.append(batch_report)

    @property
    def recent(self) -> Tuple[RoundReport, ...]:
        """The retained per-batch aggregates, oldest first (≤ ``limit``)."""
        return tuple(self._recent)

    def snapshot(self) -> Dict[str, int]:
        """Aggregate counters as a flat JSON-compatible dict (for metrics)."""
        counters = {spec.name: getattr(self.totals, spec.name)
                    for spec in fields(self.totals)}
        counters.update(
            batches_recorded=self.batches_recorded,
            rounds_recorded=self.rounds_recorded,
            batches_evicted=self.batches_evicted,
            history_limit=self.limit,
        )
        return counters

    def __len__(self) -> int:
        return len(self._recent)


class _TaskState:
    """Mutable supervision state of one task within a round."""

    __slots__ = ("name", "fn", "attempts", "attempts_started",
                 "charged_failures", "speculated", "pending_retry")

    def __init__(self, name: str, fn: Callable[[], object]):
        self.name = name
        self.fn = fn
        self.attempts: List[AttemptRecord] = []
        self.attempts_started = 0
        self.charged_failures = 0
        self.speculated = False
        self.pending_retry = False


def _quantile(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    index = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[index]


class ResilientExecutor(Executor):
    """Wraps any :class:`Executor` with per-task fault tolerance (see module docs).

    Like the executors it wraps, a resilient executor is a context manager;
    entering it enters the inner executor, so a worker pool is opened once
    per run and reused across rounds.  ``share``/``unshare`` broadcasts are
    delegated to the inner executor, whose rebuilt pool re-ships them before
    any task is resubmitted.
    """

    def __init__(self, inner: Executor, policy: Optional[FaultPolicy] = None,
                 validator: Optional[Validator] = None):
        if isinstance(inner, ResilientExecutor):
            raise ExperimentError("refusing to nest resilient executors")
        self.inner = inner
        self.policy = policy if policy is not None else FaultPolicy()
        self.validator = validator
        self.kind = f"resilient+{inner.kind}"
        #: Report of the most recent round; :meth:`pop_report` consumes it.
        self.last_report: Optional[RoundReport] = None

    # -------------------------------------------------------------- plumbing
    def share(self, key: str, value) -> None:
        self.inner.share(key, value)

    def unshare(self, key: str) -> None:
        self.inner.unshare(key)

    def close(self) -> None:
        self.inner.close()

    def __enter__(self) -> "ResilientExecutor":
        self.inner.__enter__()
        return self

    def __exit__(self, *exc_info) -> None:
        self.inner.__exit__(*exc_info)

    def pop_report(self) -> Optional[RoundReport]:
        """Return and clear the report of the last supervised round."""
        report, self.last_report = self.last_report, None
        return report

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResilientExecutor({self.inner!r}, {self.policy!r})"

    # ------------------------------------------------------------- map phase
    def map_tasks(self, tasks: Sequence[NamedTask]) -> Dict[str, ResultT]:
        with self.inner:
            if self.inner.supports_supervision:
                return self._run_supervised(tasks)
            return self._run_inline(tasks)

    # The inline path (serial inner executor): per-task retry granularity
    # without futures.  Deadlines and speculation need a pool and are
    # documented as pool-only; everything else behaves identically.
    def _run_inline(self, tasks: Sequence[NamedTask]) -> Dict[str, ResultT]:
        report = RoundReport(tasks=len(tasks))
        results: Dict[str, ResultT] = {}
        for name, fn in tasks:
            if name in results:
                raise ExperimentError(f"duplicate task name {name!r}")
            state = _TaskState(name, fn)
            while True:
                state.attempts_started += 1
                attempt = AttemptRecord(index=state.attempts_started)
                state.attempts.append(attempt)
                report.attempts += 1
                started = time.perf_counter()
                try:
                    # One-task batches through the inner executor keep its
                    # submission seam (and any test proxy around it) in play.
                    value = self.inner.map_tasks([(name, fn)])[name]
                except Exception as error:
                    attempt.duration = time.perf_counter() - started
                    attempt.outcome = "error"
                    attempt.error = repr(error)
                    report.failures += 1
                else:
                    attempt.duration = time.perf_counter() - started
                    if self.validator is not None \
                            and not self.validator(name, value):
                        attempt.outcome = "invalid"
                        attempt.error = "result failed validation"
                        report.invalid_results += 1
                    else:
                        attempt.outcome = "ok"
                        results[name] = value
                        break
                state.charged_failures += 1
                if state.charged_failures <= self.policy.retries:
                    report.retries += 1
                    time.sleep(self._backoff_delay(name, state.charged_failures))
                else:
                    self._quarantine(state, report, results)
                    break
        self.last_report = report
        return results

    # The supervised path (pool-backed inner executor): an event loop over
    # live futures, which is what makes deadlines, speculation and pool
    # recovery possible.
    def _run_supervised(self, tasks: Sequence[NamedTask]) -> Dict[str, ResultT]:
        policy = self.policy
        report = RoundReport(tasks=len(tasks))
        states: Dict[str, _TaskState] = {}
        for name, fn in tasks:
            if name in states:
                raise ExperimentError(f"duplicate task name {name!r}")
            states[name] = _TaskState(name, fn)
        results: Dict[str, ResultT] = {}
        #: future -> (state, attempt record, monotonic start time)
        active: Dict[concurrent.futures.Future,
                     Tuple[_TaskState, AttemptRecord, float]] = {}
        #: min-heap of (ready time, tiebreak, task name) — both initial
        #: submissions (ready now) and scheduled retries flow through it.
        queue: List[Tuple[float, int, str]] = []
        tiebreak = itertools.count()
        durations: List[float] = []

        def enqueue(state: _TaskState, ready: float) -> None:
            heapq.heappush(queue, (ready, next(tiebreak), state.name))
            state.pending_retry = True

        def submit(state: _TaskState, speculative: bool = False) -> None:
            state.attempts_started += 1
            attempt = AttemptRecord(index=state.attempts_started,
                                    speculative=speculative)
            state.attempts.append(attempt)
            report.attempts += 1
            if speculative:
                state.speculated = True
                report.speculative_launches += 1
            future = self.inner.submit_task(state.name, state.fn)
            if future is None:
                raise ExperimentError(
                    "inner executor stopped supporting supervision mid-round")
            active[future] = (state, attempt, time.monotonic())

        def active_count(state: _TaskState) -> int:
            return sum(1 for held, _, _ in active.values() if held is state)

        def after_failure(state: _TaskState) -> None:
            state.charged_failures += 1
            if state.charged_failures <= policy.retries:
                report.retries += 1
                delay = self._backoff_delay(state.name, state.charged_failures)
                enqueue(state, time.monotonic() + delay)
            elif active_count(state) == 0:
                # Budget exhausted and nothing else in flight for this task:
                # quarantine now.  With a duplicate still running, defer —
                # its completion decides (commit, or reach this same branch).
                self._quarantine(state, report, results)

        def recover_pool(extra_lost: Sequence[_TaskState] = ()) -> None:
            report.pool_rebuilds += 1
            if report.pool_rebuilds > policy.max_pool_rebuilds:
                raise ExperimentError(
                    f"worker pool died {report.pool_rebuilds} times in one "
                    f"round (max_pool_rebuilds={policy.max_pool_rebuilds}); "
                    "giving up on the round")
            for future, (state, attempt, started) in active.items():
                attempt.outcome = "pool-lost"
                attempt.duration = time.monotonic() - started
                future.cancel()
            lost = {state.name for state, _, _ in active.values()}
            lost.update(state.name for state in extra_lost)
            active.clear()
            with span("supervision.pool_rebuild",
                      rebuild=report.pool_rebuilds, lost=len(lost)):
                self.inner.rebuild()
            now = time.monotonic()
            for name in sorted(lost):
                state = states[name]
                # Pool death is not the task's fault: resubmit without
                # charging the retry budget (unless a retry is already
                # queued for it).
                if name not in results and not state.pending_retry:
                    enqueue(state, now)

        try:
            now = time.monotonic()
            for state in states.values():
                enqueue(state, now)
            while len(results) < len(states):
                now = time.monotonic()
                # Launch everything that is due (initial work and retries).
                while queue and queue[0][0] <= now:
                    _, _, name = heapq.heappop(queue)
                    state = states[name]
                    state.pending_retry = False
                    if name in results:
                        continue
                    try:
                        submit(state)
                    except concurrent.futures.BrokenExecutor:
                        state.attempts[-1].outcome = "pool-lost"
                        recover_pool()
                        if name not in results and not state.pending_retry:
                            enqueue(state, time.monotonic())
                # Speculation: duplicate stragglers once the round has a
                # meaningful latency distribution.
                threshold: Optional[float] = None
                if policy.speculate and \
                        len(durations) >= SPECULATION_MIN_DONE:
                    threshold = _quantile(durations, SPECULATION_QUANTILE) \
                        * SPECULATION_FACTOR
                    for state, attempt, started in list(active.values()):
                        if state.speculated or state.name in results:
                            continue
                        if now - started > threshold \
                                and active_count(state) == 1:
                            try:
                                submit(state, speculative=True)
                            except concurrent.futures.BrokenExecutor:
                                state.attempts[-1].outcome = "pool-lost"
                                recover_pool()
                                break
                if not active:
                    if not queue:
                        raise ExperimentError(
                            "resilient round stalled: unfinished tasks with "
                            "no attempt in flight and none scheduled")
                    time.sleep(max(0.0, queue[0][0] - time.monotonic()))
                    continue
                done = self._wait(active, queue, threshold, durations)
                now = time.monotonic()
                broken_states: List[_TaskState] = []
                for future in done:
                    state, attempt, started = active.pop(future)
                    attempt.duration = now - started
                    if state.name in results:
                        attempt.outcome = "superseded"
                        report.duplicates_discarded += 1
                        continue
                    error = future.exception()
                    if isinstance(error, concurrent.futures.BrokenExecutor):
                        attempt.outcome = "pool-lost"
                        broken_states.append(state)
                        continue
                    if error is not None:
                        attempt.outcome = "error"
                        attempt.error = repr(error)
                        report.failures += 1
                        after_failure(state)
                        continue
                    value = future.result()
                    if self.validator is not None \
                            and not self.validator(state.name, value):
                        attempt.outcome = "invalid"
                        attempt.error = "result failed validation"
                        report.invalid_results += 1
                        after_failure(state)
                        continue
                    attempt.outcome = "ok"
                    results[state.name] = value
                    durations.append(attempt.duration)
                    if attempt.speculative:
                        report.speculative_wins += 1
                if broken_states:
                    recover_pool(extra_lost=broken_states)
                    continue
                # Deadline scan: abandon attempts past the task timeout.
                # An abandoned future is never read again — a late result
                # cannot commit.
                if policy.task_timeout is not None:
                    for future in list(active):
                        state, attempt, started = active[future]
                        if now - started < policy.task_timeout \
                                or state.name in results:
                            continue
                        del active[future]
                        future.cancel()
                        attempt.outcome = "timeout"
                        attempt.duration = now - started
                        report.timeouts += 1
                        after_failure(state)
        except BaseException:
            for future in active:
                future.cancel()
            self.last_report = report
            raise
        self.last_report = report
        return results

    def _wait(self, active, queue, threshold: Optional[float],
              durations: Sequence[float]):
        """Block until some attempt completes or the next scheduled event.

        With no deadline, no queued retry and no armed speculation the wait
        is unbounded (pure completion-driven — this is why a clean run pays
        almost nothing for supervision).
        """
        policy = self.policy
        now = time.monotonic()
        deadlines: List[float] = []
        if queue:
            deadlines.append(queue[0][0])
        if policy.task_timeout is not None:
            deadlines.extend(started + policy.task_timeout
                             for _, _, started in active.values())
        if policy.speculate:
            if threshold is not None:
                deadlines.extend(
                    started + threshold
                    for state, _, started in active.values()
                    if not state.speculated)
            elif len(durations) >= SPECULATION_MIN_DONE:
                deadlines.append(now)  # threshold just became computable
        timeout = None
        if deadlines:
            timeout = max(0.0, min(deadlines) - now)
        done, _ = concurrent.futures.wait(
            set(active), timeout=timeout,
            return_when=concurrent.futures.FIRST_COMPLETED)
        return done

    # ------------------------------------------------------------ last lines
    def _quarantine(self, state: _TaskState, report: RoundReport,
                    results: Dict[str, ResultT]) -> None:
        """Budget exhausted: degraded inline re-run, then the typed failure."""
        if not self.policy.degrade_serially:
            raise TaskFailedError(state.name, state.attempts)
        report.degraded += 1
        state.attempts_started += 1
        attempt = AttemptRecord(index=state.attempts_started, kind="degraded")
        state.attempts.append(attempt)
        report.attempts += 1
        started = time.perf_counter()
        try:
            with span("supervision.degraded_run", task=state.name):
                value = self.inner.run_inline(state.name, state.fn)
        except Exception as error:
            attempt.duration = time.perf_counter() - started
            attempt.outcome = "error"
            attempt.error = repr(error)
            raise TaskFailedError(state.name, state.attempts) from error
        attempt.duration = time.perf_counter() - started
        if self.validator is not None \
                and not self.validator(state.name, value):
            attempt.outcome = "invalid"
            attempt.error = "result failed validation"
            raise TaskFailedError(state.name, state.attempts)
        attempt.outcome = "ok"
        results[state.name] = value

    def _backoff_delay(self, name: str, failure_count: int) -> float:
        """Exponential backoff with deterministic, seeded jitter."""
        policy = self.policy
        base = min(policy.backoff_max,
                   policy.backoff_base
                   * policy.backoff_factor ** (failure_count - 1))
        token = f"{policy.jitter_seed}:{name}:{failure_count}".encode("utf-8")
        jitter = zlib.crc32(token) / 2 ** 32
        return base * (1.0 + jitter)
