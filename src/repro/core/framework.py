"""The scalable collective entity-matching framework (top-level facade).

:class:`EMFramework` wires together the three components of the paper's
approach — a black-box matcher, a cover of the entities, and a message-passing
scheme — behind one object:

>>> framework = EMFramework(matcher=MLNMatcher(), store=store, cover=cover)
>>> result = framework.run("mmp")
>>> result.matches

The cover can either be supplied directly or built from a blocker (Canopy by
default) with boundary expansion to make it total.  The framework exposes the
schemes of the paper (NO-MP, SMP, MMP) — all three run on the round-based
grid of Section 6.3, serial unless an executor is named — the holistic FULL
run, and the UB evaluation bound.

The entry point decides which store a run reads.  Batch runs (the schemes,
FULL, UB and the cover build) read one :class:`~repro.datamodel.CompactStore`
snapshot of the instance, taken on first use and kept: every neighborhood is
a zero-copy view of that one base, so the views share its MLN binding index
and matcher-side caches keyed on them carry over between schemes.
:meth:`EMFramework.serve` hands the caller's store to the stream session
instead, which layers its mutations over it and never reads the snapshot.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..blocking import Blocker, CanopyBlocker, Cover, build_total_cover
from ..datamodel import CompactStore, EntityPair, EntityStore, MatchSet, StoreView
from ..exceptions import ExperimentError
from ..matchers import TypeIIMatcher, TypeIMatcher
from ..obs import registry as obs_registry
from ..obs.trace import span
from .full import FullRun
from .result import SchemeResult
from .upper_bound import UpperBoundScheme

#: Names accepted by :meth:`EMFramework.run`.
SCHEMES = ("no-mp", "smp", "mmp", "full")


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
    """Facade over covers, matchers and message-passing schemes.

    ``store_backend`` is retired: batch runs always read the compact
    snapshot, and ``"compact"`` is the one value accepted.
    """

    def __init__(self, matcher: TypeIMatcher, store: EntityStore,
                 cover: Optional[Cover] = None,
                 blocker: Optional[Blocker] = None,
                 relation_names: Optional[Iterable[str]] = None,
                 store_backend: str = "compact",
                 fault_policy=None):
        if store_backend != "compact":
            raise ExperimentError(
                f"store_backend={store_backend!r}: the option is retired; "
                "batch runs always read a compact snapshot of the store")
        self.matcher = matcher
        #: The caller's store: what :meth:`serve` streams over.
        self.store = store
        self._snapshot: Optional[CompactStore] = \
            store if isinstance(store, CompactStore) else None
        #: Default :class:`~repro.parallel.resilience.FaultPolicy` for every
        #: grid/stream run of this framework (``None`` keeps the plain
        #: all-or-nothing executor contract).
        self.fault_policy = fault_policy
        # Neighborhood views of the snapshot that in-process runs read,
        # built once and kept across runs (the cover never changes), so
        # matcher caches keyed on them carry over.
        self._store_cache: Dict[str, StoreView] = {}
        self._cover = cover
        # Also kept for serve(): the stream session builds its own cover with
        # the same blocker (None when a cover was supplied).
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

    # -------------------------------------------------------------- snapshot
    @property
    def snapshot(self) -> CompactStore:
        """The compact snapshot every batch run reads, taken on first use —
        :meth:`serve` never asks for it."""
        if self._snapshot is None:
            self._snapshot = CompactStore.from_store(self.store)
        return self._snapshot

    # ----------------------------------------------------------------- cover
    @property
    def cover(self) -> Cover:
        """The total cover the batch schemes run on, built on first use —
        :meth:`serve` never asks for it (the stream session maintains its
        own), so it pays for one build, not two."""
        if self._cover is None:
            self._build_cover()
        return self._cover

    def _build_cover(self) -> None:
        snapshot = self.snapshot
        with span("blocking.total_cover") as cover_span:
            cover = build_total_cover(self._blocker, snapshot,
                                      relation_names=self._relation_names)
            cover_span.add_attrs(neighborhoods=len(cover.names()))
        _fold_blocking_telemetry(self._blocker)
        cover.validate_covering(snapshot)
        self._cover = cover

    # ----------------------------------------------------------------- runs
    def run_full(self) -> SchemeResult:
        """Run the matcher holistically on the whole store."""
        return FullRun().run(self.matcher, self.snapshot)

    def run_full_prefix(self, neighborhood_count: int) -> SchemeResult:
        """Run the matcher holistically on the first ``k`` neighborhoods (Figure 3(f))."""
        return FullRun().run_on_prefix(self.matcher, self.snapshot, self.cover,
                                       neighborhood_count)

    def run_upper_bound(self, ground_truth: Iterable[EntityPair]) -> SchemeResult:
        """Compute the UB bound; requires a Type-II matcher."""
        if not isinstance(self.matcher, TypeIIMatcher):
            return UpperBoundScheme().run_type1(self.matcher, self.snapshot,
                                                self.cover, ground_truth)
        return UpperBoundScheme().run(self.matcher, self.snapshot, ground_truth)

    def run_grid(self, scheme: str = "smp", executor=None,
                 workers: Optional[int] = None, fault_policy=None):
        """Run a scheme on the round-based grid executor (Section 6.3).

        ``executor`` picks the map-phase engine: an
        :class:`~repro.parallel.executor.Executor` instance, a spec string
        (``"serial"``, ``"processes"``), or ``None`` for serial; whatever
        the executor, the returned :class:`~repro.parallel.grid.GridRunResult`
        carries the same match set.  ``workers`` sizes the pool when ``executor`` is a spec string.
        ``fault_policy`` (defaults to the framework-wide policy) supervises
        the rounds — see :mod:`repro.parallel.resilience`.
        """
        # Imported lazily: repro.parallel itself imports from repro.core.
        from ..parallel.grid import GridExecutor
        grid = GridExecutor(scheme=scheme, executor=executor, workers=workers,
                            fault_policy=fault_policy if fault_policy is not None
                            else self.fault_policy)
        return grid.run(self.matcher, self.snapshot, self.cover,
                        store_cache=self._store_cache)

    def run(self, scheme: str, executor=None, workers: Optional[int] = None,
            fault_policy=None) -> SchemeResult:
        """Run a scheme selected by name (``"no-mp"``, ``"smp"``, ``"mmp"``, ``"full"``).

        NO-MP, SMP and MMP go through :meth:`run_grid` (same arguments);
        ``"full"`` is one holistic matcher call and takes none of them.
        """
        normalized = scheme.lower().replace("_", "-")
        if normalized == "full":
            if any(option is not None for option in (executor, workers, fault_policy)):
                raise ExperimentError(
                    "the full run is one matcher call; executor, workers and "
                    "fault_policy apply to the grid schemes only")
            return self.run_full()
        if normalized in ("no-mp", "nomp", "smp", "mmp"):
            return self.run_grid(normalized, executor=executor, workers=workers,
                                 fault_policy=fault_policy).to_scheme_result()
        raise ExperimentError(f"unknown scheme {scheme!r}; known schemes: {SCHEMES}")

    def run_all(self, include_full: bool = False) -> Dict[str, SchemeResult]:
        """Run NO-MP, SMP and (for Type-II matchers) MMP; optionally FULL too."""
        results = {"no-mp": self.run("no-mp"), "smp": self.run("smp")}
        if isinstance(self.matcher, TypeIIMatcher):
            results["mmp"] = self.run("mmp")
        if include_full:
            results["full"] = self.run_full()
        return results

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
        frontend can already answer readiness probes while it runs.  The
        session streams over the caller's store (not the batch snapshot) and
        builds its own cover with this framework's blocker, so the framework
        must have been built from a blocker, not an explicit cover.  With
        ``durable_dir`` the session is durable (WAL + checkpoints), making the
        served state crash-recoverable via ``MatchService.recover``.
        ``fault_policy`` (defaults to the framework-wide policy) supervises
        every grid round the session runs.
        """
        if self._blocker is None:
            raise ExperimentError(
                "serve requires a blocker-built framework; a framework "
                "constructed from an explicit cover cannot repair that cover "
                "as the instance mutates")
        # Imported lazily: repro.streaming imports from repro.parallel.
        from ..serving import MatchService
        from ..streaming import StreamSession

        def new_session():
            session = StreamSession(
                self.matcher, self.store, blocker=self._blocker,
                relation_names=self._relation_names, executor=executor,
                workers=workers,
                fault_policy=fault_policy if fault_policy is not None
                else self.fault_policy)
            if durable_dir is not None:
                from ..durability import DurableStreamSession
                session = DurableStreamSession(
                    session, durable_dir, checkpoint_every=checkpoint_every,
                    fsync=fsync)
            return session

        return MatchService(session_factory=new_session, config=config)

    # ------------------------------------------------------------- utilities
    def cover_stats(self) -> Dict[str, float]:
        """Size statistics of the cover (matches the numbers the paper reports)."""
        return self.cover.stats()

    def clusters(self, result: SchemeResult) -> list:
        """Entity clusters implied by a scheme result (what downstream users want)."""
        return MatchSet(result.matches).clusters()
