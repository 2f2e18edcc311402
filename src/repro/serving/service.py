"""The resolution service: epoch reads, single-writer commits, lifecycle.

:class:`MatchService` turns a standing
:class:`~repro.streaming.StreamSession` (or its durable wrapper) into a
long-lived, always-available resolution service:

* **epoch-snapshot reads** — every read pins the current immutable
  :class:`~repro.serving.epoch.Epoch` once and answers entirely from it; a
  new epoch is published with one atomic reference swap after each
  committed batch, so readers never observe a torn commit and commits
  never block reads;
* **single-writer commit loop** — delta batches enter a bounded queue and
  are applied by one background thread in arrival order (the session is
  single-writer by construction; the queue is the serialization point);
* **admission control** — reads pass an
  :class:`~repro.serving.admission.AdmissionGate` (max-inflight +
  bounded wait queue, shed with 429, per-request deadline with 504);
  writes are shed when the commit queue is full;
* **graceful degradation** — a
  :class:`~repro.serving.breaker.CircuitBreaker` trips the service to
  read-only mode on repeated :class:`~repro.exceptions.TaskFailedError` /
  :class:`~repro.exceptions.DurabilityError` commits and probes its way
  back half-open, instead of dying;
* **crash-safe lifecycle** — ``starting → ready → draining → stopped``;
  readiness is gated until startup (including
  :meth:`~repro.durability.DurableStreamSession.recover` from a durable
  directory) completes, and :meth:`drain` finishes every accepted batch,
  writes a final checkpoint (durable sessions) and stops cleanly — a
  drained-then-recovered service is byte-identical to one that never
  stopped.
"""

from __future__ import annotations

import queue
import signal
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..exceptions import (
    DataModelError,
    DeltaError,
    ServiceError,
    ServiceOverloadedError,
    ServiceReadOnlyError,
    ServiceUnavailableError,
)
from ..kernels import backend as kernel_backend
from ..kernels.counters import COUNTERS as KERNEL_COUNTERS
from ..obs import registry as obs_registry
from ..obs.exposition import render_prometheus
from ..obs.trace import span
from ..streaming.deltas import ChangeBatch
from ..streaming.runner import BatchResult
from .admission import AdmissionGate, Deadline
from .breaker import CircuitBreaker
from .epoch import Epoch

Clock = Callable[[], float]

#: Operational counters every service instance registers (legacy key →
#: help text).  The legacy keys survive as the ``counters`` block of the
#: JSON :meth:`MatchService.metrics` document; the registry names are the
#: same keys under a ``service_`` prefix.
_COUNTER_HELP = {
    "reads_total": "Read requests received",
    "reads_ok": "Read requests answered successfully",
    "reads_failed": "Read requests shed, timed out or errored",
    "deltas_accepted": "Delta batches accepted into the commit queue",
    "deltas_shed": "Delta batches shed because the commit queue was full",
    "deltas_invalid": "Delta batches rejected by pre-commit validation",
    "deltas_rejected_read_only": "Delta batches refused in read-only mode",
    "commits_total": "Delta batches committed",
    "commit_failures": "Delta batches that failed during commit",
    "epochs_published": "Epoch snapshots published",
}

#: Lifecycle states (monotone except ready ↔ read-only, which is a mode,
#: not a state: the breaker owns it).
STARTING = "starting"
READY = "ready"
DRAINING = "draining"
STOPPED = "stopped"
FAILED = "failed"

_STOP = object()


@dataclass(frozen=True)
class ServiceConfig:
    """Operational knobs of one :class:`MatchService` (validated up front)."""

    #: Reads executing at once; beyond this they queue.
    max_inflight: int = 32
    #: Reads allowed to queue for a slot; beyond this they are shed (429).
    max_waiting: int = 64
    #: Delta batches allowed in the commit queue; beyond this writes shed.
    delta_queue_limit: int = 16
    #: Default per-read deadline in seconds (504 when missed).
    default_deadline: float = 5.0
    #: ``Retry-After`` hint attached to shed responses, in seconds.
    retry_after: float = 0.5
    #: Consecutive commit failures that trip the breaker to read-only.
    breaker_threshold: int = 3
    #: Seconds the breaker stays open before admitting a half-open probe.
    breaker_cooldown: float = 5.0

    def __post_init__(self):
        if self.max_inflight < 1:
            raise ServiceError("max_inflight must be >= 1")
        if self.max_waiting < 0:
            raise ServiceError("max_waiting must be >= 0")
        if self.delta_queue_limit < 1:
            raise ServiceError("delta_queue_limit must be >= 1")
        if self.default_deadline <= 0:
            raise ServiceError("default_deadline must be positive")
        if self.retry_after <= 0:
            raise ServiceError("retry_after must be positive")
        if self.breaker_threshold < 1:
            raise ServiceError("breaker_threshold must be >= 1")
        if self.breaker_cooldown <= 0:
            raise ServiceError("breaker_cooldown must be positive")


def _latency_summary(histogram: obs_registry.Histogram) -> Dict[str, float]:
    """Count / sum / mean of one latency histogram (for the JSON document)."""
    _, total, count = histogram.value()
    return {"count": count, "sum_seconds": total,
            "mean_seconds": (total / count) if count else 0.0}


def _kernel_summary() -> Dict:
    """The ``kernels`` block of the JSON document: this process's counters."""
    block = {name: int(counter.value())
             for name, counter in KERNEL_COUNTERS.items()}
    checked = block["prefilter_checked"]
    block["prefilter_hit_rate"] = \
        block["prefilter_pruned"] / checked if checked else 0.0
    block["backend"] = kernel_backend()
    # True once any vectorised leg ran here: numpy is a first-need import.
    block["numpy_loaded"] = "numpy" in sys.modules
    return block


class CommitTicket:
    """Handle for one accepted delta batch: wait for its commit outcome."""

    def __init__(self):
        self._done = threading.Event()
        self.result: Optional[BatchResult] = None
        self.error: Optional[BaseException] = None

    def _complete(self, result: BatchResult) -> None:
        self.result = result
        self._done.set()

    def _fail(self, error: BaseException) -> None:
        self.error = error
        self._done.set()

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> BatchResult:
        """Block until the batch committed; re-raise its failure if it did
        not.  Raises :class:`~repro.exceptions.DeadlineExceededError` when
        ``timeout`` elapses first (the batch itself stays queued and will
        still commit)."""
        if not self._done.wait(timeout):
            from ..exceptions import DeadlineExceededError
            raise DeadlineExceededError(
                "batch accepted but not committed within the wait timeout")
        if self.error is not None:
            raise self.error
        return self.result


class MatchService:
    """A resilient resolution service over one stream session (module docs)."""

    def __init__(self, session=None, *,
                 session_factory: Optional[Callable[[], object]] = None,
                 config: Optional[ServiceConfig] = None,
                 clock: Clock = time.monotonic):
        if (session is None) == (session_factory is None):
            raise ServiceError(
                "pass exactly one of session= or session_factory=")
        self.config = config if config is not None else ServiceConfig()
        self._clock = clock
        self._session = session
        self._session_factory = session_factory
        self._state = STARTING
        self._state_lock = threading.Lock()
        self._startup_error: Optional[BaseException] = None
        self._ready = threading.Event()
        self._epoch: Optional[Epoch] = None
        self.gate = AdmissionGate(self.config.max_inflight,
                                  self.config.max_waiting,
                                  retry_after=self.config.retry_after,
                                  clock=clock)
        self.breaker = CircuitBreaker(threshold=self.config.breaker_threshold,
                                      cooldown=self.config.breaker_cooldown,
                                      clock=clock)
        self._deltas: "queue.Queue" = queue.Queue(
            maxsize=self.config.delta_queue_limit)
        self._commit_thread: Optional[threading.Thread] = None
        self._startup_thread: Optional[threading.Thread] = None
        self._drain_requested = threading.Event()
        self._previous_handlers: Dict[int, object] = {}
        #: Guards the point-in-time fields snapshotted by :meth:`metrics`
        #: (started-at / epoch-published-at timestamps); individual metric
        #: updates take the per-metric registry locks instead.
        self._metrics_lock = threading.Lock()
        self._started_at: Optional[float] = None
        self._epoch_published_at: Optional[float] = None
        #: Per-service metrics registry.  Instance-scoped so two services in
        #: one process never mix counts; the Prometheus exposition merges it
        #: with the process-wide registry (grid, kernels, WAL, ...).
        self.registry = obs_registry.MetricsRegistry()
        self._counters: Dict[str, obs_registry.Counter] = {
            key: self.registry.counter(f"service_{key}", help_text)
            for key, help_text in _COUNTER_HELP.items()
        }
        self._read_seconds = self.registry.histogram(
            "service_read_seconds", "End-to-end latency of one read request")
        self._commit_seconds = self.registry.histogram(
            "service_commit_seconds", "Commit-loop latency of one batch")
        self._uptime_gauge = self.registry.gauge(
            "service_uptime_seconds", "Seconds since the service became ready")
        self._epoch_gauge = self.registry.gauge(
            "service_epoch", "Id of the currently published epoch")
        self._epoch_age_gauge = self.registry.gauge(
            "service_epoch_age_seconds",
            "Seconds since the current epoch was published")
        self._queue_depth_gauge = self.registry.gauge(
            "service_delta_queue_depth", "Delta batches waiting to commit")

    # ------------------------------------------------------------ lifecycle
    @classmethod
    def recover(cls, directory, config: Optional[ServiceConfig] = None,
                clock: Clock = time.monotonic, **recover_kwargs) -> "MatchService":
        """A service whose startup is crash recovery from ``directory``.

        The heavy work (checkpoint load + WAL tail replay) runs inside
        :meth:`start` / :meth:`start_background`, so an HTTP frontend can
        already answer ``/ready`` (503) while recovery is in progress.
        Recovery failures surface as the typed
        :class:`~repro.exceptions.RecoveryError` from :meth:`start`.
        """
        from ..durability import DurableStreamSession

        def factory():
            return DurableStreamSession.recover(directory, **recover_kwargs)

        return cls(session_factory=factory, config=config, clock=clock)

    @property
    def state(self) -> str:
        with self._state_lock:
            return self._state

    @property
    def ready(self) -> bool:
        return self.state == READY

    @property
    def read_only(self) -> bool:
        """Degraded mode: the commit breaker is not closed."""
        from .breaker import CLOSED
        return self.breaker.state != CLOSED

    @property
    def session(self):
        return self._session

    def start(self) -> "MatchService":
        """Run startup synchronously: build/recover the session, publish the
        first epoch, start the commit loop, flip to ready."""
        try:
            if self._session is None:
                self._session = self._session_factory()
            if not self._session.started:
                self._session.start()
            self._publish_epoch()
        except BaseException as error:
            with self._state_lock:
                self._state = FAILED
                self._startup_error = error
            raise
        self._commit_thread = threading.Thread(
            target=self._commit_loop, name="match-service-commit", daemon=True)
        self._commit_thread.start()
        with self._metrics_lock:
            self._started_at = self._clock()
        with self._state_lock:
            self._state = READY
        self._ready.set()
        return self

    def start_background(self) -> threading.Thread:
        """Run :meth:`start` in a thread; readiness stays gated meanwhile.

        A startup failure is recorded (``state == "failed"``,
        :attr:`startup_error`) instead of raised — poll :attr:`state` or
        :meth:`wait_ready`.
        """
        def runner():
            try:
                self.start()
            except BaseException:
                pass  # recorded by start()

        self._startup_thread = threading.Thread(
            target=runner, name="match-service-startup", daemon=True)
        self._startup_thread.start()
        return self._startup_thread

    @property
    def startup_error(self) -> Optional[BaseException]:
        return self._startup_error

    def wait_ready(self, timeout: Optional[float] = None) -> bool:
        """Block until ready (True) or startup failed / timed out (False)."""
        deadline = None if timeout is None else self._clock() + timeout
        while True:
            if self.ready:
                return True
            if self.state == FAILED:
                return False
            remaining = None if deadline is None \
                else deadline - self._clock()
            if remaining is not None and remaining <= 0:
                return False
            if self._ready.wait(0.01 if remaining is None
                                else min(0.01, remaining)):
                return True

    # ----------------------------------------------------------- signals
    def install_signal_handlers(self) -> bool:
        """SIGTERM/SIGINT → request a drain (handled by the serve loop).

        The handler only sets a flag; the actual drain (finish in-flight
        batch, final checkpoint, stop) runs on whichever thread waits in
        :meth:`wait_for_drain_request` / calls :meth:`drain`.  Returns
        ``False`` outside the main thread (CPython delivers signals there).
        """
        try:
            self._previous_handlers = {
                signal.SIGTERM: signal.signal(signal.SIGTERM, self._on_signal),
                signal.SIGINT: signal.signal(signal.SIGINT, self._on_signal),
            }
        except ValueError:
            self._previous_handlers = {}
            return False
        return True

    def uninstall_signal_handlers(self) -> None:
        for signum, handler in self._previous_handlers.items():
            signal.signal(signum, handler)
        self._previous_handlers = {}

    def _on_signal(self, signum, frame) -> None:
        self._drain_requested.set()

    def request_drain(self) -> None:
        self._drain_requested.set()

    def wait_for_drain_request(self, timeout: Optional[float] = None) -> bool:
        return self._drain_requested.wait(timeout)

    # -------------------------------------------------------------- reads
    def _pin_epoch(self) -> Epoch:
        epoch = self._epoch  # single atomic reference read
        if epoch is None:
            raise ServiceUnavailableError(
                f"service is {self.state}: no epoch published yet",
                retry_after=self.config.retry_after)
        return epoch

    def read(self, fn: Callable[[Epoch], object],
             deadline_seconds: Optional[float] = None):
        """Run one read against a pinned epoch under full admission control.

        ``fn`` receives the pinned :class:`Epoch` and must not touch the
        session — the epoch is the entire read surface.
        """
        if self.state == STOPPED:
            raise ServiceUnavailableError("service is stopped",
                                          retry_after=self.config.retry_after)
        deadline = Deadline(deadline_seconds
                            if deadline_seconds is not None
                            else self.config.default_deadline,
                            clock=self._clock)
        self._count("reads_total")
        started = time.perf_counter()
        with span("serve.read"):
            try:
                self.gate.acquire(deadline)
            except ServiceError:
                self._count("reads_failed")
                self._read_seconds.observe(time.perf_counter() - started)
                raise
            try:
                epoch = self._pin_epoch()
                result = fn(epoch)
                deadline.check("read")
            except Exception:
                self._count("reads_failed")
                raise
            else:
                self._count("reads_ok")
                return result
            finally:
                self.gate.release()
                self._read_seconds.observe(time.perf_counter() - started)

    def resolve(self, entity_id: str,
                deadline_seconds: Optional[float] = None) -> Dict:
        def run(epoch: Epoch) -> Dict:
            return {"entity": entity_id,
                    "canonical": epoch.resolve(entity_id),
                    "epoch": epoch.epoch_id}
        return self.read(run, deadline_seconds)

    def cluster(self, entity_id: str,
                deadline_seconds: Optional[float] = None) -> Dict:
        def run(epoch: Epoch) -> Dict:
            return {"entity": entity_id,
                    "members": list(epoch.cluster(entity_id)),
                    "epoch": epoch.epoch_id}
        return self.read(run, deadline_seconds)

    def same(self, first: str, second: str,
             deadline_seconds: Optional[float] = None) -> Dict:
        def run(epoch: Epoch) -> Dict:
            return {"a": first, "b": second,
                    "same": epoch.same(first, second),
                    "epoch": epoch.epoch_id}
        return self.read(run, deadline_seconds)

    def current_epoch(self) -> Optional[Epoch]:
        """The published epoch, without admission control (internal/tests)."""
        return self._epoch

    # -------------------------------------------------------------- writes
    def submit_deltas(self, batch: ChangeBatch) -> CommitTicket:
        """Enqueue one batch for the single-writer commit loop.

        Raises the typed refusals instead of queueing unboundedly:
        :class:`ServiceUnavailableError` before ready / while draining,
        :class:`ServiceReadOnlyError` while the breaker is open, and
        :class:`ServiceOverloadedError` when the commit queue is full.
        The returned :class:`CommitTicket` resolves when the batch commits
        (a new epoch is then already published) or fails.
        """
        state = self.state
        if state != READY:
            raise ServiceUnavailableError(
                f"service is {state}: not accepting deltas",
                retry_after=self.config.retry_after)
        if not self.breaker.allows_writes():
            self._count("deltas_rejected_read_only")
            raise ServiceReadOnlyError(
                "service is in read-only mode (commit circuit breaker "
                f"open, state={self.breaker.state})",
                retry_after=max(self.breaker.retry_after(),
                                self.config.retry_after))
        ticket = CommitTicket()
        try:
            self._deltas.put_nowait((ticket, batch))
        except queue.Full:
            self._count("deltas_shed")
            raise ServiceOverloadedError(
                f"commit queue full ({self.config.delta_queue_limit} "
                "batches pending)",
                retry_after=self.config.retry_after) from None
        self._count("deltas_accepted")
        return ticket

    def apply_deltas(self, batch: ChangeBatch,
                     timeout: Optional[float] = None) -> BatchResult:
        """Submit one batch and wait for its commit (convenience wrapper)."""
        return self.submit_deltas(batch).wait(timeout)

    # --------------------------------------------------------- commit loop
    def _commit_loop(self) -> None:
        while True:
            item = self._deltas.get()
            if item is _STOP:
                return
            ticket, batch = item
            if not self.breaker.admit():
                # Raced into an open breaker after enqueue: refuse late
                # rather than burn the probe budget out of order.
                ticket._fail(ServiceReadOnlyError(
                    "commit refused: circuit breaker opened while the "
                    "batch was queued",
                    retry_after=self.breaker.retry_after()))
                continue
            try:
                # Client errors are rejected *before* anything mutates —
                # the session never partially applies a bad batch.
                self._validate_batch(batch)
            except (DeltaError, DataModelError) as error:
                self._count("deltas_invalid")
                self.breaker.release_probe()
                ticket._fail(error)
                continue
            commit_started = time.perf_counter()
            try:
                with span("serve.commit", ops=len(batch)):
                    result = self._session.apply(batch)
            except BaseException as error:
                # A batch that passed validation and still failed means the
                # substrate (pool, WAL, matcher) is suspect: charge the
                # breaker — repeated failures walk the degradation ladder
                # down to read-only instead of killing the service.
                # (TaskFailedError and DurabilityError are the designed
                # cases; anything else is treated just as conservatively.)
                self._count("commit_failures")
                self.breaker.record_failure()
                self._commit_seconds.observe(time.perf_counter() - commit_started)
                ticket._fail(error)
            else:
                self._count("commits_total")
                self.breaker.record_success()
                self._publish_epoch()
                self._commit_seconds.observe(time.perf_counter() - commit_started)
                ticket._complete(result)

    def _validate_batch(self, batch: ChangeBatch) -> None:
        """Reject a batch that would fail semantically, without mutating.

        Simulates entity presence across the batch (adds/removes earlier in
        the same batch count) and checks relation names, covering every
        client-error path of :meth:`StreamSession.apply`: duplicate
        ``add_entity``, unknown entity in ``update``/``remove``/
        ``upsert_similarity``/``add_evidence``, unknown relation in tuple
        deltas.
        """
        from ..streaming.deltas import (AddEntity, AddEvidence, AddTuple,
                                        RemoveEntity, RemoveTuple,
                                        UpdateEntity, UpsertSimilarity)
        store = self._inner_session().overlay
        added: set = set()
        removed: set = set()

        def present(entity_id: str) -> bool:
            if entity_id in added:
                return True
            if entity_id in removed:
                return False
            return store.has_entity(entity_id)

        for delta in batch:
            if isinstance(delta, AddEntity):
                entity_id = delta.entity.entity_id
                if present(entity_id):
                    raise DeltaError(
                        f"add_entity: id already present: {entity_id!r}")
                added.add(entity_id)
                removed.discard(entity_id)
            elif isinstance(delta, UpdateEntity):
                entity_id = delta.entity.entity_id
                if not present(entity_id):
                    raise DeltaError(
                        f"update_entity: unknown entity {entity_id!r}")
            elif isinstance(delta, RemoveEntity):
                if not present(delta.entity_id):
                    raise DeltaError(
                        f"remove_entity: unknown entity {delta.entity_id!r}")
                removed.add(delta.entity_id)
                added.discard(delta.entity_id)
            elif isinstance(delta, (AddTuple, RemoveTuple)):
                if not store.has_relation(delta.relation):
                    raise DeltaError(
                        f"{delta.op}: unknown relation {delta.relation!r}")
            elif isinstance(delta, UpsertSimilarity):
                for entity_id in delta.pair:
                    if not present(entity_id):
                        raise DeltaError(
                            f"upsert_similarity: unknown entity "
                            f"{entity_id!r}")
            elif isinstance(delta, AddEvidence):
                for entity_id in delta.pair:
                    if not present(entity_id):
                        raise DeltaError(
                            f"evidence references unknown entity "
                            f"{entity_id!r}")

    def _publish_epoch(self) -> None:
        session = self._inner_session()
        epoch = Epoch(self._session.batches_applied,
                      self._session.matches,
                      session.overlay.entity_ids())
        self._epoch = epoch  # the atomic swap: readers pin old or new, never both
        with self._metrics_lock:
            self._epoch_published_at = self._clock()
        self._count("epochs_published")

    def _inner_session(self):
        """The raw StreamSession under an optional durable wrapper."""
        return getattr(self._session, "session", self._session)

    # --------------------------------------------------------------- drain
    def drain(self, checkpoint: bool = True) -> None:
        """Finish every accepted batch, checkpoint, stop (idempotent).

        New deltas are refused as soon as draining starts; batches already
        accepted (their tickets are outstanding promises) are committed
        first because the stop sentinel queues FIFO behind them.  Durable
        sessions then write a final checkpoint, so a subsequent
        :meth:`recover` starts from it instead of a WAL replay.
        """
        with self._state_lock:
            if self._state in (STOPPED, FAILED):
                return
            was_ready = self._state == READY
            self._state = DRAINING
        if was_ready and self._commit_thread is not None:
            self._deltas.put(_STOP)
            self._commit_thread.join()
            self._commit_thread = None
        if self._session is not None and hasattr(self._session, "close"):
            # DurableStreamSession: final checkpoint + WAL release.
            self._session.close(checkpoint=checkpoint
                                and self._session.started)
        self.uninstall_signal_handlers()
        with self._state_lock:
            self._state = STOPPED

    # ------------------------------------------------------------- metrics
    def _count(self, key: str) -> None:
        self._counters[key].inc()

    def _observe_gauges(self):
        """Refresh the point-in-time gauges ahead of a registry snapshot.

        The timestamp fields are read together under ``_metrics_lock`` (one
        consistent cut); the gauge writes and the later formatting happen
        outside it.  Returns ``(uptime, epoch age)`` in seconds.
        """
        now = self._clock()
        with self._metrics_lock:
            started_at = self._started_at
            published_at = self._epoch_published_at
        epoch = self._epoch
        uptime = None if started_at is None else max(0.0, now - started_at)
        epoch_age = None if published_at is None \
            else max(0.0, now - published_at)
        if uptime is not None:
            self._uptime_gauge.set(uptime)
        if epoch is not None:
            self._epoch_gauge.set(float(epoch.epoch_id))
        if epoch_age is not None:
            self._epoch_age_gauge.set(epoch_age)
        self._queue_depth_gauge.set(float(self._deltas.qsize()))
        return uptime, epoch_age

    def metrics(self) -> Dict:
        """One JSON-compatible snapshot of every operational counter."""
        uptime, epoch_age = self._observe_gauges()
        counters = {key: int(handle.value())
                    for key, handle in self._counters.items()}
        epoch = self._epoch
        session = self._session
        supervision = None
        if session is not None:
            history = getattr(self._inner_session(), "supervision", None)
            if history is not None:
                supervision = history.snapshot()
        return {
            "state": self.state,
            "mode": "read-only" if self.read_only else "read-write",
            "epoch": None if epoch is None else epoch.epoch_id,
            "epoch_age_seconds": epoch_age,
            "uptime_seconds": uptime,
            "matches": None if epoch is None else len(epoch.matches),
            "entities": None if epoch is None else len(epoch.entity_ids),
            "counters": counters,
            "admission": self.gate.stats(),
            "breaker": self.breaker.stats(),
            "delta_queue_depth": self._deltas.qsize(),
            "delta_queue_limit": self.config.delta_queue_limit,
            "supervision": supervision,
            "kernels": None if session is None else _kernel_summary(),
            "latency": {
                "read": _latency_summary(self._read_seconds),
                "commit": _latency_summary(self._commit_seconds),
            },
        }

    def prometheus_metrics(self) -> str:
        """Prometheus text exposition (0.0.4): this service's registry
        merged with the process-wide one (grid, kernels, WAL, caches)."""
        self._observe_gauges()
        return render_prometheus(self.registry.snapshot(),
                                 obs_registry.registry().snapshot())

    def health(self) -> Dict:
        """Liveness document (always served, even degraded or draining)."""
        epoch = self._epoch
        return {
            "status": "ok" if self.state in (READY, STARTING, DRAINING)
            else "failed",
            "state": self.state,
            "mode": "read-only" if self.read_only else "read-write",
            "breaker": self.breaker.state,
            "epoch": None if epoch is None else epoch.epoch_id,
        }
