"""Round-based (MapReduce-style) parallel execution of the framework.

Section 6.3 parallelises message passing in rounds: every active neighborhood
is processed in parallel (the Map), the new evidence is collected (the
Reduce), and the next round's active set is derived from it.  The paper runs
this on a 30-machine Hadoop grid; here the map phase is dispatched through a
pluggable :class:`~repro.parallel.executor.Executor` — serial or a process
pool — against an immutable evidence snapshot, and the reduce phase
merges per-neighborhood results in deterministic (sorted-name) order, so all
executors produce identical match sets — the ones the paper's sequential
loops reach too (the schemes are consistent, Theorem 2).  The rounds run to
the fixpoint: until no neighborhood is active, with each neighborhood capped
at ``k²`` activations (Theorem 3's termination bound).

Two per-round costs are kept incremental: the evidence snapshot is *routed*
instead of re-restricted (each new match is added once to the evidence set of
the neighborhoods containing both its entities), and each task carries its
neighborhood's previous-round result as a warm start (per-neighborhood
evidence only grows across rounds, so for idempotent + monotone matchers the
old result seeds the new search — crucial under the process executor, where
matcher-side caches do not survive pickling).  The same two facts pick the
next round's active set (:func:`repro.core.activation.woken_by`): a new pair
wakes the neighborhoods it is routed to, unless their last output holds it.

Two complementary views of grid wall-clock come out of one run:

* the *measured* ``elapsed_seconds`` of the run under the chosen executor
  (real speedup on this machine), and
* the *simulated* wall-clock of a grid of ``W`` machines, evaluated from the
  recorded per-neighborhood durations: each round's neighborhoods are randomly
  assigned to the ``W`` workers (statistical skew included, as in the paper)
  and the round takes as long as its most loaded worker, plus a fixed
  per-round overhead modelling job setup on the grid.
  :meth:`GridRunResult.simulated_wall_clock` can be evaluated for any machine
  count, which is how the Table-1 bench compares 1 vs 30 machines from a
  single run.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Union

from ..blocking import Cover
from ..core import SchemeResult
from ..core.activation import woken_by
from ..core.messages import MaximalMessageSet
from ..core.mmp import promote_messages
from ..datamodel import CompactStore, EntityPair, EntityStore
from ..exceptions import ExperimentError, MatcherError
from ..matchers import TypeIIMatcher, TypeIMatcher
from ..obs import registry as obs_registry
from ..obs import trace as obs_trace
from .executor import Executor, NamedTask, SerialExecutor, make_executor
from .partitioner import Task, lpt_partition, makespan, random_partition, total_work
from .resilience import FaultPolicy, ResilientExecutor, RoundReport
from .tasks import (
    MapResult,
    MapTask,
    execute_map_task,
    run_in_place,
    validate_map_result,
)


# Registry handles for the grid's work accounting — get-or-create once at
# import, cheap locked increments per round / committed task thereafter.
_GRID_RUNS = obs_registry.counter(
    "grid_runs_total", "Grid runs executed", labels=("scheme", "executor"))
_GRID_ROUNDS = obs_registry.counter(
    "grid_rounds_total", "Grid rounds executed")
_GRID_TASKS = obs_registry.counter(
    "grid_tasks_total", "Map-task results committed by reduce phases")
_GRID_MATCHES = obs_registry.counter(
    "grid_new_matches_total", "New matches committed by reduce phases")
_ROUND_SECONDS = obs_registry.histogram(
    "grid_round_seconds", "Wall-clock of one grid round")
_TASK_SECONDS = obs_registry.histogram(
    "grid_task_seconds", "In-task measured duration of committed map results")
_SUPERVISION_TOTALS = {
    name: obs_registry.counter(
        f"supervision_{name}_total", f"Supervised-round {name.replace('_', ' ')}")
    for name in ("attempts", "retries", "failures", "timeouts",
                 "speculative_launches", "speculative_wins", "degraded",
                 "pool_rebuilds")
}
_CACHE_HITS = obs_registry.counter(
    "lru_cache_hits_total", "LRU cache hits", labels=("cache",))
_CACHE_MISSES = obs_registry.counter(
    "lru_cache_misses_total", "LRU cache misses", labels=("cache",))


@dataclass
class GridRunResult:
    """Matches plus the per-round task durations recorded by the executor."""

    scheme: str
    matcher: str
    matches: FrozenSet[EntityPair]
    rounds: List[List[Task]] = field(default_factory=list)
    neighborhood_runs: int = 0
    #: Neighborhoods in the cover the run went over.
    neighborhoods: int = 0
    #: SMP: new matches committed by the reduce phases (the simple messages);
    #: MMP: maximal messages created; NO-MP: 0.
    messages_passed: int = 0
    elapsed_seconds: float = 0.0
    executor: str = "serial"
    #: Final per-neighborhood result of every neighborhood that ran, filled
    #: only when ``run(collect_results=True)`` — the provenance the streaming
    #: layer keeps to decide what a later delta invalidates.
    neighborhood_results: Dict[str, FrozenSet[EntityPair]] = field(default_factory=dict)
    #: First derivation of each newly-found pair: ``pair -> (neighborhood
    #: name, 0-based round index)``, deterministic (sorted-name reduce order).
    #: Also only filled under ``collect_results=True``; pairs seeded through
    #: ``initial_matches`` keep whatever provenance the caller tracks.
    pair_origins: Dict[EntityPair, Tuple[str, int]] = field(default_factory=dict)
    #: One supervision report per round, filled only when the run went through
    #: a :class:`~repro.parallel.resilience.ResilientExecutor` (i.e. a
    #: ``fault_policy`` was configured): attempts, retries, timeouts,
    #: speculative launches/wins, degraded tasks, pool rebuilds.
    round_reports: List[RoundReport] = field(default_factory=list)

    @property
    def round_count(self) -> int:
        return len(self.rounds)

    def total_compute_seconds(self) -> float:
        """Total matcher compute across all rounds (single-machine work).

        Only meaningful for a run under the serial executor: durations are
        measured inside whichever executor ran the tasks, so a concurrent run
        inflates them with GIL/scheduler contention.
        """
        return sum(total_work(tasks) for tasks in self.rounds)

    def simulated_wall_clock(self, workers: int, per_round_overhead: float = 0.0,
                             seed: int = 0, strategy: str = "random") -> float:
        """Simulated wall-clock of running the recorded rounds on ``workers`` machines.

        Use durations recorded by a *serial* run as the input (see
        :meth:`total_compute_seconds`); simulating a grid from contended
        thread/process timings overstates per-task compute.
        """
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if strategy not in ("random", "lpt"):
            raise ExperimentError(f"unknown partition strategy {strategy!r}")
        clock = 0.0
        for round_index, tasks in enumerate(self.rounds):
            if not tasks:
                continue
            if strategy == "random":
                assignment = random_partition(tasks, workers, seed=seed + round_index)
            else:
                assignment = lpt_partition(tasks, workers)
            clock += makespan(assignment) + per_round_overhead
        return clock

    def speedup(self, workers: int, per_round_overhead: float = 0.0,
                seed: int = 0) -> float:
        """Speedup of ``workers`` machines over a single machine."""
        single = self.simulated_wall_clock(1, per_round_overhead, seed)
        multi = self.simulated_wall_clock(workers, per_round_overhead, seed)
        if multi == 0.0:
            return 1.0
        return single / multi

    def to_scheme_result(self) -> SchemeResult:
        """View as a plain :class:`SchemeResult` (single-machine timing)."""
        return SchemeResult(
            scheme=self.scheme,
            matcher=self.matcher,
            matches=self.matches,
            neighborhood_runs=self.neighborhood_runs,
            neighborhoods=self.neighborhoods,
            rounds=self.round_count,
            messages_passed=self.messages_passed,
            elapsed_seconds=self.elapsed_seconds,
            matcher_seconds=self.total_compute_seconds(),
        )


class GridExecutor:
    """Round-based executor for NO-MP, SMP and MMP with a pluggable map phase.

    ``executor`` selects how each round's active neighborhoods are executed:
    an :class:`~repro.parallel.executor.Executor` instance, a spec string
    (``"serial"``, ``"processes"``), or ``None`` for serial.
    Whatever the executor, the produced match set is identical: every task of
    a round reads the same immutable evidence snapshot and the reduce phase
    merges results in sorted neighborhood order.

    Each run enters the executor for its duration, so a worker pool is opened
    once, reused for every round, and released on exit.  A caller-supplied
    executor that is already inside a ``with executor:`` block keeps its pool
    open across runs (entry is re-entrant); a pool the caller opened is never
    closed here, though a process pool re-spawns its workers when a run
    shares its snapshot into it.

    A ``fault_policy`` (:class:`~repro.parallel.resilience.FaultPolicy`)
    wraps the chosen executor in a
    :class:`~repro.parallel.resilience.ResilientExecutor` with a result
    validator, upgrading rounds from first-failure-aborts to supervised
    execution (retries, deadlines, speculation, degradation); each round's
    :class:`~repro.parallel.resilience.RoundReport` is collected into
    :attr:`GridRunResult.round_reports`.  A caller-supplied resilient
    executor is used as-is (its own policy wins), gaining the grid's
    validator only if it has none.
    """

    def __init__(self, scheme: str = "smp",
                 executor: Union[Executor, str, None] = None,
                 workers: Optional[int] = None,
                 fault_policy: Optional[FaultPolicy] = None):
        normalized = scheme.lower().replace("_", "-")
        if normalized not in ("no-mp", "nomp", "smp", "mmp"):
            raise ExperimentError(f"unknown grid scheme {scheme!r}")
        self.scheme = "no-mp" if normalized in ("no-mp", "nomp") else normalized
        if executor is None:
            self.executor: Executor = SerialExecutor()
        elif isinstance(executor, str):
            self.executor = make_executor(executor, workers)
        else:
            self.executor = executor
        if isinstance(self.executor, ResilientExecutor):
            if self.executor.validator is None:
                self.executor.validator = validate_map_result
        elif fault_policy is not None:
            self.executor = ResilientExecutor(
                self.executor, fault_policy, validator=validate_map_result)

    # -------------------------------------------------------------------- run
    def run(self, matcher: TypeIMatcher, store: EntityStore, cover: Cover,
            initial_matches: FrozenSet[EntityPair] = frozenset(),
            initial_active: Optional[Iterable[str]] = None,
            negative_evidence: FrozenSet[EntityPair] = frozenset(),
            collect_results: bool = False,
            store_cache: Optional[Dict[str, EntityStore]] = None) -> GridRunResult:
        """Run the rounds until no neighborhood produces anything new.

        The defaults reproduce a cold batch run: every neighborhood active in
        round one, no standing evidence.  The streaming layer instead seeds
        ``initial_matches`` with the still-valid part of the previous match
        set, activates only the ``initial_active`` dirty neighborhoods, and
        threads the standing ``negative_evidence`` into every task; for
        monotone, idempotent matchers the chaotic iteration from that seed
        converges to the same fixpoint a cold run reaches on the final
        instance.  ``collect_results`` returns each ran neighborhood's final
        matches in :attr:`GridRunResult.neighborhood_results`;
        ``store_cache`` shares the neighborhood views in-process tasks run
        on (keyed by name) across runs; the caller owns invalidation.  A
        process pool never reads it: its workers restrict their own copy of
        the snapshot.

        MMP probes each neighborhood's maximal messages on its first visit
        only: later visits still run the matcher with the grown evidence
        (which is what promotes messages into matches), and messages are
        only ever *used* through the step-7 score check, so soundness holds.
        """
        if self.scheme == "mmp" and not isinstance(matcher, TypeIIMatcher):
            raise MatcherError("the mmp grid scheme requires a Type-II matcher")
        active_seed = None if initial_active is None else set(initial_active)
        if active_seed is not None:
            unknown = active_seed - set(cover.names())
            if unknown:
                raise ExperimentError(
                    f"initial_active names unknown neighborhoods: {sorted(unknown)[:3]}")
        # Neighborhood views for in-process tasks, built once per
        # neighborhood.
        stores: Dict[str, EntityStore] = \
            store_cache if store_cache is not None else {}

        def neighborhood_store(name: str) -> EntityStore:
            cached = stores.get(name)
            if cached is None:
                cached = store.restrict(cover.neighborhood(name).entity_ids)
                stores[name] = cached
            return cached

        started = time.perf_counter()

        # Where a task runs decides its form.  In-process executors run each
        # neighborhood on its cached view.  A process pool reads a compact
        # snapshot (the caller's, or one taken of this store for the run)
        # that it is sent once per worker with the matcher, so each task
        # ships only integer member lists and int-encoded evidence.
        snapshot: Optional[CompactStore] = None
        snapshot_keys: tuple = ()
        if "processes" in self.executor.kind:
            snapshot = store if isinstance(store, CompactStore) \
                else CompactStore.from_store(store)
            snapshot_keys = (snapshot.snapshot_token,
                             snapshot.snapshot_token + "/matcher")
            self.executor.share(snapshot_keys[0], snapshot)
            self.executor.share(snapshot_keys[1], matcher)
        member_cache: Dict[str, tuple] = {}

        matches: Set[EntityPair] = set(initial_matches)
        message_set = MaximalMessageSet()
        probed: Set[str] = set()
        active: Set[str] = set(cover.names()) if active_seed is None else active_seed
        rounds: List[List[Task]] = []
        neighborhood_runs = messages_passed = 0
        # Theorem 3 bounds termination: a neighborhood of k entities is
        # activated at most k² times.  (woken_by alone stays under the cap:
        # each wake-up needs a pair new to this run with both ends inside.)
        activations: Counter = Counter()
        # Standing negative evidence, routed once per neighborhood (negatives
        # never change during a run).
        negative_index: Dict[str, FrozenSet[EntityPair]] = {}
        if negative_evidence:
            routed_negative: Dict[str, Set[EntityPair]] = {}
            for pair in negative_evidence:
                for name in cover.neighborhoods_of_pair(pair):
                    routed_negative.setdefault(name, set()).add(pair)
            negative_index = {name: frozenset(pairs)
                              for name, pairs in routed_negative.items()}
        empty: FrozenSet[EntityPair] = frozenset()
        # Per-neighborhood evidence, maintained incrementally: each new match
        # is routed once to the neighborhoods containing both its entities (a
        # neighborhood's set is made with its first pair), instead of
        # re-restricting the full snapshot for every active neighborhood
        # every round (O(new pairs · degree) vs O(|matches| · |active|)).
        evidence_index: Dict[str, Set[EntityPair]] = defaultdict(set)
        distributed: Set[EntityPair] = set()
        # Last output of every neighborhood that ran: it decides which new
        # pairs wake it again and, as its evidence only grows, warm-starts
        # that visit (matchers that support it) even in a fresh process.
        warm_capable = bool(getattr(matcher, "supports_warm_start", False))
        last_results: Dict[str, FrozenSet[EntityPair]] = {}

        pair_origins: Dict[EntityPair, Tuple[str, int]] = {}
        round_reports: List[RoundReport] = []
        pop_report = getattr(self.executor, "pop_report", None)
        # One flag decides whether tasks capture spans for re-parenting; it
        # travels on the task payloads so pool workers (which have no tracer)
        # know to collect.
        trace_tasks = obs_trace.enabled()
        try:
            with obs_trace.span("grid.run", scheme=self.scheme,
                                executor=self.executor.kind,
                                neighborhoods=len(cover.names())) as run_span, \
                    self.executor:
                while active:
                    round_index = len(rounds)
                    round_started = time.perf_counter()
                    round_span = obs_trace.span("grid.round",
                                                round=round_index,
                                                active=len(active))
                    with round_span:
                        evidence_snapshot = frozenset(matches)
                        for pair in evidence_snapshot - distributed:
                            for name in cover.neighborhoods_of_pair(pair):
                                evidence_index[name].add(pair)
                        distributed |= evidence_snapshot

                        # Map phase: every active neighborhood runs against
                        # the snapshot, dispatched through the executor.
                        tasks: List[NamedTask] = []
                        for name in sorted(active):
                            activations[name] += 1
                            compute_messages = self.scheme == "mmp" and \
                                name not in probed
                            if compute_messages:
                                probed.add(name)
                            warm_start = last_results.get(name, empty) \
                                if warm_capable else empty
                            negative = negative_index.get(name, empty)
                            evidence = evidence_index.get(name, empty)
                            if snapshot is None:
                                tasks.append((name, partial(
                                    run_in_place, name, matcher,
                                    neighborhood_store(name),
                                    frozenset(evidence),
                                    compute_messages=compute_messages,
                                    warm_start=warm_start, negative=negative,
                                    trace=trace_tasks)))
                                continue
                            members = member_cache.get(name)
                            if members is None:
                                members = snapshot.indices_for(
                                    cover.neighborhood(name).entity_ids)
                                member_cache[name] = members
                            payload = MapTask(
                                name=name, snapshot=snapshot_keys[0],
                                matcher_key=snapshot_keys[1], members=members,
                                evidence=snapshot.encode_pairs(evidence),
                                compute_messages=compute_messages,
                                warm_start=snapshot.encode_pairs(warm_start),
                                negative=snapshot.encode_pairs(negative),
                                trace=trace_tasks)
                            tasks.append((name, partial(execute_map_task,
                                                        payload)))
                        results = self.executor.map_tasks(tasks)
                        current_report: Optional[RoundReport] = None
                        if pop_report is not None:
                            current_report = pop_report()
                            if current_report is not None:
                                round_reports.append(current_report)
                                for field_name, handle in \
                                        _SUPERVISION_TOTALS.items():
                                    handle.inc(getattr(current_report,
                                                       field_name))

                        # Reduce phase: merge per-neighborhood results in
                        # sorted-name order (independent of executor
                        # completion order), promote maximal messages (MMP
                        # only).  Worker telemetry folds in here too: task
                        # spans re-parent under the round span and metric
                        # deltas land in this process's registry.
                        round_tasks: List[Task] = []
                        round_new: Set[EntityPair] = set()
                        for name in sorted(results):
                            result: MapResult = results[name]
                            fresh = result.matches - evidence_snapshot
                            if collect_results:
                                for pair in fresh - round_new:
                                    pair_origins.setdefault(pair, (name, round_index))
                            round_new |= fresh
                            message_set.add_all(result.messages)
                            messages_passed += len(result.messages)
                            neighborhood_runs += result.matcher_calls
                            round_tasks.append((name, result.duration))
                            _TASK_SECONDS.observe(result.duration)
                            worker_spans = getattr(result, "spans", ())
                            if worker_spans:
                                obs_trace.fold(worker_spans, round_span)
                            worker_metrics = getattr(result, "metric_deltas", ())
                            if worker_metrics:
                                obs_registry.registry().apply_wire(worker_metrics)
                            last_results[name] = result.matches
                        rounds.append(round_tasks)

                        matches |= round_new
                        if self.scheme == "smp":
                            messages_passed += len(round_new)
                        elif self.scheme == "mmp":
                            round_new |= promote_messages(matcher, store,
                                                          matches, message_set)

                        active = set() if self.scheme == "no-mp" else {
                            name for name in woken_by(cover, round_new,
                                                      last_results)
                            if activations[name] <
                            max(len(cover.neighborhood(name)) ** 2, 1)}
                        round_span.add_attrs(tasks=len(round_tasks),
                                             new_matches=len(round_new))
                    _GRID_ROUNDS.inc()
                    _GRID_TASKS.inc(len(round_tasks))
                    _GRID_MATCHES.inc(len(round_new))
                    _ROUND_SECONDS.observe(time.perf_counter() - round_started)
                run_span.add_attrs(rounds=len(rounds), matches=len(matches))
        finally:
            for key in snapshot_keys:
                self.executor.unshare(key)
        _GRID_RUNS.inc(scheme=self.scheme, executor=self.executor.kind)
        consume_cache_stats = getattr(matcher, "consume_cache_stats", None)
        if consume_cache_stats is not None:
            # Matcher-side LRU efficacy (parent-process matcher only; a
            # broadcast copy in a pool worker keeps its own tallies).
            for cache, stats in consume_cache_stats().items():
                _CACHE_HITS.inc(stats["hits"], cache=cache)
                _CACHE_MISSES.inc(stats["misses"], cache=cache)

        elapsed = time.perf_counter() - started
        return GridRunResult(
            scheme=self.scheme,
            matcher=matcher.name,
            matches=frozenset(matches),
            rounds=rounds,
            neighborhood_runs=neighborhood_runs,
            neighborhoods=len(cover.names()),
            messages_passed=messages_passed,
            elapsed_seconds=elapsed,
            executor=self.executor.kind,
            neighborhood_results=last_results if collect_results else {},
            pair_origins=pair_origins,
            round_reports=round_reports,
        )
