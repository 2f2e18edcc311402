"""The scalable collective entity-matching framework (top-level facade).

:class:`EMFramework` wires together the three components of the paper's
approach — a black-box matcher, a cover of the entities, and a message-passing
scheme — behind one object:

>>> framework = EMFramework(matcher=MLNMatcher(), store=store, cover=cover)
>>> result = framework.run("mmp")
>>> result.matches

The cover can either be supplied directly or built from a blocker (Canopy by
default) with boundary expansion to make it total.  The framework exposes the
schemes of the paper (NO-MP, SMP, MMP), the holistic FULL run, and the UB
evaluation bound, and reuses one :class:`NeighborhoodRunner` so that
neighborhood stores (and any matcher-side caches keyed on them) are shared
between schemes.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Union

from ..blocking import Blocker, CanopyBlocker, Cover, build_total_cover
from ..datamodel import CompactStore, EntityPair, EntityStore, Evidence, MatchSet
from ..exceptions import ExperimentError, MatcherError
from ..matchers import TypeIIMatcher, TypeIMatcher
from ..obs import registry as obs_registry
from ..obs.trace import span
from .full import FullRun
from .mmp import MaximalMessagePassing
from .nomp import NoMessagePassing
from .result import SchemeResult
from .runner import NeighborhoodRunner
from .smp import SimpleMessagePassing
from .upper_bound import UpperBoundScheme

#: Names accepted by :meth:`EMFramework.run`.
SCHEMES = ("no-mp", "smp", "mmp", "full")

#: Storage backends accepted by :class:`EMFramework` (and the CLI's
#: ``--store-backend``).  ``dict`` keeps the reference
#: :class:`~repro.datamodel.EntityStore`; ``compact`` snapshots it into a
#: :class:`~repro.datamodel.CompactStore` — interned ids, flat arrays,
#: zero-copy ``restrict()`` views, and broadcast-once grid payloads.
STORE_BACKENDS = ("dict", "compact")


def _fold_blocking_telemetry(blocker) -> None:
    """Surface one cover build's scorer-memo tallies through the registry.

    Scorer memos keep plain-int hit/miss counts (the per-pair path is far
    too hot for registry updates); each build uses a fresh scorer, so the
    lifetime stats of that scorer are exactly this build's delta.
    """
    memo_stats = getattr(blocker, "memo_stats", None)
    if memo_stats is not None:
        hits = obs_registry.counter(
            "lru_cache_hits_total", "LRU cache hits", labels=("cache",))
        misses = obs_registry.counter(
            "lru_cache_misses_total", "LRU cache misses", labels=("cache",))
        for cache, stats in memo_stats().items():
            hits.inc(stats["hits"], cache=cache)
            misses.inc(stats["misses"], cache=cache)


class EMFramework:
    """Facade over covers, matchers and message-passing schemes."""

    def __init__(self, matcher: TypeIMatcher, store: EntityStore,
                 cover: Optional[Cover] = None,
                 blocker: Optional[Blocker] = None,
                 relation_names: Optional[Iterable[str]] = None,
                 store_backend: str = "dict",
                 fault_policy=None):
        normalized_backend = store_backend.lower()
        if normalized_backend not in STORE_BACKENDS:
            raise ExperimentError(
                f"unknown store backend {store_backend!r}; "
                f"known backends: {STORE_BACKENDS}")
        if normalized_backend == "compact" and not isinstance(store, CompactStore):
            store = CompactStore.from_store(store)
        self.store_backend = "compact" if isinstance(store, CompactStore) \
            else "dict"
        self.matcher = matcher
        self.store = store
        #: Default :class:`~repro.parallel.resilience.FaultPolicy` for every
        #: grid/stream run of this framework (``None`` keeps the plain
        #: all-or-nothing executor contract).
        self.fault_policy = fault_policy
        self._runner: Optional[NeighborhoodRunner] = None
        self._stream = None
        self._cover = cover
        # Also kept for open_stream()/serve(): the stream session builds its
        # own cover with the same blocker (None when a cover was supplied).
        self._blocker: Optional[Blocker] = None
        self._relation_names: Optional[list] = None
        if cover is not None:
            cover.validate_covering(store)
        else:
            self._blocker = blocker if blocker is not None else CanopyBlocker()
            if relation_names is None:
                # Default to totality w.r.t. the relations the bibliographic
                # matchers actually use (the coauthor relation); callers with
                # other relational evidence pass relation_names explicitly.
                relation_names = ["coauthor"] if store.has_relation("coauthor") \
                    else store.relation_names()
            self._relation_names = list(relation_names)

    # ----------------------------------------------------------------- cover
    @property
    def cover(self) -> Cover:
        """The total cover the batch schemes run on, built on first use —
        :meth:`open_stream` and :meth:`serve` never ask for it (the stream
        session maintains its own), so they pay for one build, not two."""
        if self._cover is None:
            self._build_cover()
        return self._cover

    def _build_cover(self) -> None:
        with span("blocking.total_cover") as cover_span:
            cover = build_total_cover(self._blocker, self.store,
                                      relation_names=self._relation_names)
            cover_span.add_attrs(neighborhoods=len(cover.names()))
        _fold_blocking_telemetry(self._blocker)
        cover.validate_covering(self.store)
        self._cover = cover

    # ---------------------------------------------------------------- runner
    @property
    def runner(self) -> NeighborhoodRunner:
        """The shared neighborhood runner (created lazily, counters reset per run)."""
        if self._runner is None:
            self._runner = NeighborhoodRunner(self.matcher, self.store, self.cover)
        return self._runner

    def _fresh_runner(self) -> NeighborhoodRunner:
        runner = self.runner
        runner.reset_counters()
        return runner

    # ----------------------------------------------------------------- runs
    def run_no_mp(self) -> SchemeResult:
        """Run the matcher per neighborhood with no message passing."""
        return NoMessagePassing().run(self.matcher, self.store, self.cover,
                                      runner=self._fresh_runner())

    def run_smp(self, max_activations_per_neighborhood: Optional[int] = None) -> SchemeResult:
        """Run the Simple Message Passing scheme (Algorithm 1)."""
        scheme = SimpleMessagePassing(max_activations_per_neighborhood)
        return scheme.run(self.matcher, self.store, self.cover,
                          runner=self._fresh_runner())

    def run_mmp(self, max_activations_per_neighborhood: Optional[int] = None,
                compute_messages_once: bool = True) -> SchemeResult:
        """Run the Maximal Message Passing scheme (Algorithm 3; Type-II only)."""
        scheme = MaximalMessagePassing(max_activations_per_neighborhood,
                                       compute_messages_once=compute_messages_once)
        return scheme.run(self.matcher, self.store, self.cover,
                          runner=self._fresh_runner())

    def run_full(self) -> SchemeResult:
        """Run the matcher holistically on the whole store."""
        return FullRun().run(self.matcher, self.store)

    def run_full_prefix(self, neighborhood_count: int) -> SchemeResult:
        """Run the matcher holistically on the first ``k`` neighborhoods (Figure 3(f))."""
        return FullRun().run_on_prefix(self.matcher, self.store, self.cover,
                                       neighborhood_count)

    def run_upper_bound(self, ground_truth: Iterable[EntityPair]) -> SchemeResult:
        """Compute the UB bound; requires a Type-II matcher."""
        if not isinstance(self.matcher, TypeIIMatcher):
            return UpperBoundScheme().run_type1(self.matcher, self.store, self.cover,
                                                ground_truth)
        return UpperBoundScheme().run(self.matcher, self.store, ground_truth)

    def run_grid(self, scheme: str = "smp", executor=None,
                 workers: Optional[int] = None, max_rounds: int = 50,
                 compute_messages_once: bool = True, fault_policy=None):
        """Run a scheme on the round-based grid executor (Section 6.3).

        ``executor`` picks the map-phase engine: an
        :class:`~repro.parallel.executor.Executor` instance, a spec string
        (``"serial"``, ``"threads"``, ``"processes"``), or ``None`` for
        serial.  Whatever the executor, the returned
        :class:`~repro.parallel.grid.GridRunResult` carries the same match
        set as the corresponding sequential scheme; ``workers`` sizes the
        pool when ``executor`` is a spec string.  ``fault_policy`` (defaults
        to the framework-wide policy) supervises the rounds — see
        :mod:`repro.parallel.resilience`.
        """
        # Imported lazily: repro.parallel itself imports from repro.core.
        from ..parallel.grid import GridExecutor
        grid = GridExecutor(scheme=scheme, max_rounds=max_rounds,
                            compute_messages_once=compute_messages_once,
                            executor=executor, workers=workers,
                            fault_policy=fault_policy if fault_policy is not None
                            else self.fault_policy)
        return grid.run(self.matcher, self.store, self.cover)

    def run(self, scheme: str, **kwargs) -> SchemeResult:
        """Run a scheme selected by name (``"no-mp"``, ``"smp"``, ``"mmp"``, ``"full"``)."""
        normalized = scheme.lower().replace("_", "-")
        if normalized in ("no-mp", "nomp"):
            return self.run_no_mp()
        if normalized == "smp":
            return self.run_smp(**kwargs)
        if normalized == "mmp":
            return self.run_mmp(**kwargs)
        if normalized == "full":
            return self.run_full()
        raise ExperimentError(f"unknown scheme {scheme!r}; known schemes: {SCHEMES}")

    def run_all(self, include_full: bool = False) -> Dict[str, SchemeResult]:
        """Run NO-MP, SMP and (for Type-II matchers) MMP; optionally FULL too."""
        results = {"no-mp": self.run_no_mp(), "smp": self.run_smp()}
        if isinstance(self.matcher, TypeIIMatcher):
            results["mmp"] = self.run_mmp()
        if include_full:
            results["full"] = self.run_full()
        return results

    # ------------------------------------------------------------- streaming
    def open_stream(self, executor=None, workers: Optional[int] = None,
                    max_rounds: int = 50, rebase_threshold: int = 5000,
                    durable_dir=None, checkpoint_every: int = 8,
                    fsync: bool = True, fault_policy=None,
                    checkpoint_on_signal: bool = False):
        """Open a delta-ingestion session on this framework's instance.

        The returned :class:`~repro.streaming.StreamSession` cold-runs the
        SMP grid on the current store (building its own cover with the same
        blocker configuration — byte-identical to this framework's) and then
        maintains the standing match set incrementally through
        :meth:`~repro.streaming.StreamSession.apply`.  Requires the framework
        to have been constructed from a :class:`CanopyBlocker` (not an
        explicit cover): the streaming layer repairs the canopy cover as the
        instance mutates, and any other blocker is a ``CoverError``.

        With ``durable_dir`` the session is wrapped in a
        :class:`~repro.durability.DurableStreamSession`: change batches are
        committed to a write-ahead log before they mutate anything, a
        checkpoint is published every ``checkpoint_every`` batches, and
        :meth:`~repro.durability.DurableStreamSession.recover` can rebuild
        the standing state from that directory after a crash.

        ``fault_policy`` (defaults to the framework-wide policy) supervises
        every grid round the session runs — a lost worker mid-delta-batch is
        retried/degraded instead of aborting the batch, composing with the
        WAL-ahead contract.  ``checkpoint_on_signal=True`` (durable sessions
        only) installs SIGTERM/SIGINT handlers that finish the in-flight
        batch, write a final checkpoint, and exit cleanly.
        """
        self._require_blocker("open_stream")
        if checkpoint_on_signal and durable_dir is None:
            raise ExperimentError(
                "checkpoint_on_signal requires durable_dir: there is nowhere "
                "to write the final checkpoint without a durable session")
        self._stream = self._new_session(
            executor, workers, fault_policy, durable_dir, checkpoint_every,
            fsync, checkpoint_on_signal, max_rounds=max_rounds,
            rebase_threshold=rebase_threshold)
        self._stream.start()
        return self._stream

    def _require_blocker(self, entry_point: str) -> None:
        if self._blocker is None:
            raise ExperimentError(
                f"{entry_point} requires a blocker-built framework; a "
                "framework constructed from an explicit cover cannot repair "
                "that cover as the instance mutates")

    def _new_session(self, executor, workers, fault_policy, durable_dir,
                     checkpoint_every, fsync, checkpoint_on_signal=False,
                     **session_options):
        """An unstarted (durable, given ``durable_dir``) stream session."""
        # Imported lazily: repro.streaming imports from repro.parallel.
        from ..streaming import StreamSession
        session = StreamSession(
            self.matcher, self.store, blocker=self._blocker,
            relation_names=self._relation_names, executor=executor,
            workers=workers,
            fault_policy=fault_policy if fault_policy is not None
            else self.fault_policy, **session_options)
        if durable_dir is not None:
            from ..durability import DurableStreamSession
            session = DurableStreamSession(
                session, durable_dir, checkpoint_every=checkpoint_every,
                fsync=fsync, checkpoint_on_signal=checkpoint_on_signal)
        return session

    def apply_deltas(self, batch):
        """Apply one :class:`~repro.streaming.ChangeBatch` to the standing
        stream session (opened lazily with default settings on first use)."""
        if self._stream is None:
            self.open_stream()
        return self._stream.apply(batch)

    # --------------------------------------------------------------- serving
    def serve(self, config=None, executor=None, workers: Optional[int] = None,
              durable_dir=None, checkpoint_every: int = 8, fsync: bool = True,
              fault_policy=None):
        """Wrap this framework's instance in a resolution service.

        Returns an **unstarted**
        :class:`~repro.serving.MatchService` whose startup (the SMP cold run
        that seeds the first epoch — the expensive part) happens inside
        :meth:`~repro.serving.MatchService.start` /
        :meth:`~repro.serving.MatchService.start_background`, so an HTTP
        frontend can already answer readiness probes while it runs.  With
        ``durable_dir`` the underlying session is durable (WAL +
        checkpoints), making the served state crash-recoverable via
        ``MatchService.recover``.  Same blocker requirement as
        :meth:`open_stream`.
        """
        from ..serving import MatchService
        self._require_blocker("serve")
        return MatchService(
            session_factory=lambda: self._new_session(
                executor, workers, fault_policy, durable_dir,
                checkpoint_every, fsync),
            config=config)

    # ------------------------------------------------------------- utilities
    def cover_stats(self) -> Dict[str, float]:
        """Size statistics of the cover (matches the numbers the paper reports)."""
        return self.cover.stats()

    def clusters(self, result: SchemeResult) -> list:
        """Entity clusters implied by a scheme result (what downstream users want)."""
        return MatchSet(result.matches).clusters()
