"""Map-phase task bodies for the grid executor.

Section 6.3 runs each round's active neighborhoods as independent map tasks.
Where a task runs decides its form:

* **in process** (the serial executor, or any pool of threads) the grid
  calls :func:`run_in_place` on the neighborhood's view, taken from the
  grid's ``store_cache`` — nothing is copied or encoded;
* **in a worker process** (:class:`repro.parallel.executor.ProcessExecutor`)
  the grid ships a :class:`MapTask`: the :class:`~repro.datamodel.CompactStore`
  snapshot and the matcher are broadcast once per worker
  (:mod:`repro.parallel.shared`), and each task carries only the
  neighborhood's integer member list and int-encoded evidence —
  :func:`execute_map_task` restricts the snapshot to a cached view on the
  receiving side.

Either way a task carries the neighborhood's result from the previous round
(``warm_start``): the per-neighborhood evidence only grows across rounds, so
for idempotent + monotone matchers that declare ``supports_warm_start`` the
old result is contained in the new one and seeds the search — which is how
later rounds only pay for the delta their new evidence causes, even in a
worker process where the matcher's in-memory caches of earlier runs are
gone.

Both entry points run one task body, whose :class:`MapResult` is the one
channel back to the reduce phase: the neighborhood's matches, any maximal
messages (MMP), the measured duration (which feeds the simulated-grid
model), the matcher-call count, and the task's telemetry — captured spans
and every registry update made inside the task (kernel work, grounding and
rule-evaluation counts alike).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Tuple

from ..core.maximal import compute_maximal_messages
from ..core.messages import MaximalMessage
from ..datamodel import EntityPair, EntityStore, Evidence
from ..matchers import TypeIMatcher
from ..obs import registry as obs_registry
from ..obs import trace as obs_trace
from . import shared


@dataclass(frozen=True)
class MapTask:
    """One neighborhood's map task for a worker process (picklable).

    The payload references the snapshot (and the matcher) broadcast through
    :meth:`repro.parallel.executor.Executor.share` and carries only the
    neighborhood's *integer* member list plus int-encoded evidence pairs —
    a few hundred bytes where a pickled restricted store is kilobytes.  The
    executing process resolves the snapshot from its local registry and
    restricts it to a cached zero-copy view.
    """

    name: str
    #: Registry key of the broadcast :class:`CompactStore` snapshot.
    snapshot: str
    #: Registry key of the broadcast matcher.
    matcher_key: str
    #: Sorted interned indices of the neighborhood's entities.
    members: Tuple[int, ...]
    #: Int-encoded ``(min_index, max_index)`` positive-evidence pairs.
    evidence: Tuple[Tuple[int, int], ...]
    compute_messages: bool = False
    #: Int-encoded previous-round matches (``supports_warm_start`` only).
    warm_start: Tuple[Tuple[int, int], ...] = ()
    #: Int-encoded standing negative-evidence pairs for this neighborhood
    #: (pairs the matcher must never return).
    negative: Tuple[Tuple[int, int], ...] = ()
    #: Capture the task's spans for re-parenting into the grid's tracer
    #: (set iff the grid's process has tracing enabled).
    trace: bool = False


@dataclass(frozen=True)
class MapResult:
    """What a map task sends back to the reduce phase (picklable)."""

    name: str
    matches: FrozenSet[EntityPair]
    messages: Tuple[MaximalMessage, ...]
    duration: float
    matcher_calls: int
    #: Spans recorded inside the task, as :meth:`TaskCapture.wire` tuples —
    #: empty unless the task was dispatched with ``trace=True``.  The grid's
    #: reduce phase re-parents them under the round span.
    spans: Tuple = ()
    #: Metric updates made inside the task — kernel work included
    #: (:meth:`~repro.obs.registry.RegistryDelta.as_wire`), folded into the
    #: parent's registry by the reduce phase.
    metric_deltas: Tuple = ()


def validate_map_result(name: str, result: object) -> bool:
    """Sanity-check one map result against the task that produced it.

    Used as the :class:`~repro.parallel.resilience.ResilientExecutor`
    validator by the grid: a reply that is not a :class:`MapResult`, or one
    carrying another task's name (a misrouted or corrupted worker reply),
    must not commit — it is treated as a failed attempt and retried.
    """
    return isinstance(result, MapResult) and result.name == name


class _TaskRunner:
    """The runner :func:`~repro.core.maximal.compute_maximal_messages` probes.

    It only needs ``run`` and ``candidate_pairs``; scoping them to the
    task's single restricted store keeps the payload independent of the
    cover and the global store.
    """

    def __init__(self, matcher: TypeIMatcher, store: EntityStore,
                 warm_start: FrozenSet[EntityPair] = frozenset(),
                 negative: FrozenSet[EntityPair] = frozenset()):
        self.matcher = matcher
        self.store = store
        self.warm_start = warm_start if getattr(
            matcher, "supports_warm_start", False) else frozenset()
        #: Standing negative evidence folded into *every* call (including the
        #: maximal-message probes), so per-call negatives stay identical —
        #: which is what keeps warm starts sound.
        self.negative = negative
        self.calls = 0

    def run(self, name: str, positive: Iterable[EntityPair] = (),
            negative: Iterable[EntityPair] = ()) -> FrozenSet[EntityPair]:
        evidence = Evidence.of(positive, frozenset(negative) | self.negative) \
            .restricted_to(self.store.entity_ids())
        self.calls += 1
        if self.warm_start:
            # Every call of this task carries at least the task's evidence
            # snapshot, which contains the previous round's evidence — so the
            # previous round's result stays a sound seed for the probes too.
            return self.matcher.match(self.store, evidence,
                                      warm_start=self.warm_start)
        return self.matcher.match(self.store, evidence)

    def candidate_pairs(self, name: str) -> FrozenSet[EntityPair]:
        return self.store.similar_pairs()


def _run_task(name: str, compute_messages: bool, trace: bool,
              resolve) -> MapResult:
    """The one map-task body: match, optional maximal-message probe, result.

    ``resolve()`` yields ``(matcher, store, evidence, warm_start,
    negative)`` and runs inside the task span, so resolving a shipped task's
    view is part of the task's measured time.  Registry updates (kernel
    counters included) and spans made here ride back on the result.
    """
    started = time.perf_counter()
    with obs_registry.capturing() as metric_delta, \
            obs_trace.task_capture(trace) as span_capture:
        with obs_trace.span("grid.task", task=name) as task_span:
            matcher, store, evidence, warm_start, negative = resolve()
            runner = _TaskRunner(matcher, store, warm_start=warm_start,
                                 negative=negative)
            found = runner.run(name, positive=evidence)
            messages: Tuple[MaximalMessage, ...] = ()
            if compute_messages:
                messages = tuple(compute_maximal_messages(
                    runner, name, evidence_matches=evidence,
                    unconditioned_output=found))
            task_span.add_attrs(evidence=len(evidence), matches=len(found),
                                calls=runner.calls)
    return MapResult(
        name=name,
        matches=found,
        messages=messages,
        duration=time.perf_counter() - started,
        matcher_calls=runner.calls,
        spans=span_capture.wire() if span_capture is not None else (),
        metric_deltas=metric_delta.as_wire(),
    )


def run_in_place(name: str, matcher: TypeIMatcher, store: EntityStore,
                 evidence: FrozenSet[EntityPair], compute_messages: bool = False,
                 warm_start: FrozenSet[EntityPair] = frozenset(),
                 negative: FrozenSet[EntityPair] = frozenset(),
                 trace: bool = False) -> MapResult:
    """Run one neighborhood on its view, in the calling process.

    The entry in-process executors call: ``store`` is the neighborhood's
    view itself, so matcher caches keyed on it stay warm across rounds and
    runs.
    """
    return _run_task(name, compute_messages, trace,
                     lambda: (matcher, store, evidence, warm_start, negative))


def execute_map_task(task: MapTask) -> MapResult:
    """Run one shipped neighborhood against the broadcast snapshot.

    Resolves the snapshot and matcher from the process-local shared registry
    (see :mod:`repro.parallel.shared`), restricts the snapshot to a cached
    zero-copy view of the task's members and decodes the int-encoded
    evidence.  Must stay a module-level function: :class:`ProcessExecutor`
    pickles ``functools.partial(execute_map_task, task)`` to its workers.
    """
    def resolve():
        snapshot = shared.get_shared(task.snapshot)
        return (shared.get_shared(task.matcher_key),
                shared.view_for(task.snapshot, task.members),
                frozenset(snapshot.decode_pairs(task.evidence)),
                frozenset(snapshot.decode_pairs(task.warm_start)),
                frozenset(snapshot.decode_pairs(task.negative)))

    return _run_task(task.name, task.compute_messages, task.trace, resolve)
