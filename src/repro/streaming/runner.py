"""The delta runner: dirty-neighborhood re-matching over a standing match set.

A :class:`StreamSession` owns the standing state of one continuously-updated
matching problem: the instance (base snapshot + :class:`StoreOverlay`), the
incrementally-maintained total cover, the standing external evidence, the
standing match set and — crucially — per-neighborhood *provenance*:

* ``results[members]`` — the last output of the neighborhood with that member
  set, valid while its sub-instance is untouched (the grid invariant
  guarantees the last run of every neighborhood saw the full final evidence);
* ``origins[pair] = (members, round)`` — the neighborhood and global round
  that *first derived* each standing pair, used to decide which standing
  matches survive a deletion.

Applying a :class:`~repro.streaming.deltas.ChangeBatch` then runs in four
steps:

1. **mutate** — deltas are layered into the overlay, producing a
   :class:`~repro.streaming.overlay.DeltaImpact` ledger;
2. **repair the cover** — :class:`IncrementalCoverMaintainer` re-scores only
   the dirty canopies and reuses cached boundary expansions; the result is
   byte-identical to a cold cover build on the current instance;
3. **retract** — the provenance is replayed in first-derivation (round)
   order: a standing pair stays in the seed only when its origin neighborhood
   is clean and every earlier-round pair inside that neighborhood survived.
   Pairs that fail are dropped (tombstoned if not re-derived) and every
   neighborhood containing them is scheduled;
4. **re-match** — only the dirty/tainted neighborhoods are scheduled through
   :class:`~repro.parallel.grid.GridExecutor`, seeded with the surviving
   matches, warm-started per round like any grid run; new pairs activate
   their neighborhoods exactly as in a cold run.

For idempotent, monotone matchers this chaotic iteration from a sound seed
converges to the *same least fixpoint* a cold batch run reaches on the final
instance — replaying any delta stream is byte-identical to matching the
final instance from scratch (asserted by the hypothesis replay-equivalence
tests).
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..blocking import CanopyBlocker, Cover
from ..datamodel import CompactStore, EntityPair, EntityStore, Evidence
from ..durability.crashpoints import crash_point
from ..exceptions import DeltaError
from ..matchers import TypeIMatcher
from ..obs import registry as obs_registry
from ..obs.trace import span
from ..parallel.grid import GridExecutor, GridRunResult
from .deltas import AddEvidence, ChangeBatch, Delta, RemoveEvidence
from .maintainer import IncrementalCoverMaintainer
from .overlay import DeltaImpact, StoreOverlay

Members = FrozenSet[str]

#: Provenance round assigned to external positive evidence: it precedes every
#: derived pair, because a cold run seeds it before round zero.
_EVIDENCE_ROUND = -1

_STREAM_BATCHES = obs_registry.counter(
    "stream_batches_total", "Change batches applied across stream sessions")
_STREAM_OPS = obs_registry.counter(
    "stream_ops_total", "Individual delta operations applied")
_STREAM_RETRACTED = obs_registry.counter(
    "stream_retracted_total", "Standing pairs retracted by batch application")
_STREAM_REBASES = obs_registry.counter(
    "stream_rebases_total", "Overlay rebases triggered by the delta threshold")
_BATCH_SECONDS = obs_registry.histogram(
    "stream_batch_seconds", "Wall-clock time to apply one change batch")


@dataclass
class BatchResult:
    """Outcome of applying one change batch (or of the cold start)."""

    batch_index: int
    #: Number of delta ops applied (0 for the cold start).
    ops: int
    #: The standing match set after the batch.
    matches: FrozenSet[EntityPair]
    #: Pairs that entered the standing match set this batch.
    added: FrozenSet[EntityPair]
    #: Tombstones: pairs retracted from the standing match set this batch.
    retracted: FrozenSet[EntityPair]
    #: Neighborhoods scheduled initially (dirty + tainted).
    dirty_neighborhoods: int
    #: Neighborhoods that actually ran (includes chain activations).
    reran_neighborhoods: int
    total_neighborhoods: int
    rounds: int
    matcher_calls: int
    elapsed_seconds: float
    rebased: bool = False
    cover_stats: Dict[str, float] = field(default_factory=dict)

    @property
    def reran_fraction(self) -> float:
        return self.reran_neighborhoods / max(1, self.total_neighborhoods)


class StreamSession:
    """Standing matcher state over a mutating instance (see module docs)."""

    def __init__(self, matcher: TypeIMatcher,
                 store: EntityStore,
                 blocker: Optional[CanopyBlocker] = None,
                 relation_names: Optional[Iterable[str]] = None,
                 scheme: str = "smp",
                 executor=None,
                 workers: Optional[int] = None,
                 expansion_rounds: int = 1,
                 rebase_threshold: int = 5000,
                 fault_policy=None,
                 supervision_limit: int = 64):
        normalized = scheme.lower().replace("_", "-")
        if normalized != "smp":
            raise DeltaError(
                f"streaming supports the smp scheme only, got {scheme!r} "
                "(no-mp has no fixpoint to maintain; mmp carries message "
                "state the delta runner does not track)")
        self.matcher = matcher
        self.scheme = "smp"
        if relation_names is None:
            relation_names = ["coauthor"] if store.has_relation("coauthor") \
                else store.relation_names()
        self.relation_names = list(relation_names)
        self.blocker = blocker if blocker is not None else CanopyBlocker()
        if rebase_threshold < 1:
            raise ValueError("rebase_threshold must be >= 1")
        self.rebase_threshold = rebase_threshold
        self.overlay = StoreOverlay(store)
        self.maintainer = IncrementalCoverMaintainer(
            self.blocker, relation_names=self.relation_names,
            rounds=expansion_rounds)
        # With a fault policy every grid round of the session (cold run and
        # per-batch re-matching alike) is supervised: a lost worker or a
        # transiently failing task is retried/degraded instead of aborting
        # the batch.  :meth:`cold_matches` stays policy-free — verification
        # uses the plain serial reference on purpose.
        self._grid = GridExecutor(scheme="smp", executor=executor,
                                  workers=workers, fault_policy=fault_policy)
        #: A pristine copy of the matcher (pickling drops its caches) used by
        #: :meth:`cold_matches` so verification never sees warm state.
        self._matcher_blueprint = pickle.dumps(matcher)
        # ----------------------------- standing state -----------------------
        self.cover: Optional[Cover] = None
        self.matches: FrozenSet[EntityPair] = frozenset()
        self.evidence: Evidence = Evidence.empty()
        self._results: Dict[Members, FrozenSet[EntityPair]] = {}
        self._origins: Dict[EntityPair, Tuple[Members, int]] = {}
        # Neighborhood stores (overlay views) of *clean* neighborhoods, kept
        # across batches so caching matchers (the MLN matcher's per-store
        # ground networks and warm-start results) survive between deltas —
        # re-grounding is then paid only where the sub-instance changed.
        self._store_cache: Dict[Members, EntityStore] = {}
        self._round_offset = 0
        self.batches_applied = 0
        self.started = False
        # Supervision history across the session's lifetime.  Each batch's
        # grid run yields one RoundReport per round; a long-lived
        # session would accumulate them without bound, so only the last
        # ``supervision_limit`` per-batch aggregates are retained verbatim
        # while running totals cover everything (including evicted batches).
        from ..parallel.resilience import SupervisionHistory
        self.supervision = SupervisionHistory(limit=supervision_limit)

    # ------------------------------------------------------------ cold start
    def start(self) -> BatchResult:
        """Cold-build the cover, run the full batch matcher, seed provenance."""
        if self.started:
            raise DeltaError("stream session already started")
        started_at = time.perf_counter()
        with span("stream.cold_start") as start_span:
            store = self.overlay
            cover = self.maintainer.build(store)
            name_cache: Dict[str, EntityStore] = {}
            # Pairless neighborhoods produce nothing — skip them here and
            # record empty standing results in ``_absorb``.
            matchable = [neighborhood.name for neighborhood in cover
                         if len(neighborhood) > 1]
            result = self._grid.run(self.matcher, store, cover,
                                    initial_matches=self.evidence.positive,
                                    initial_active=matchable,
                                    negative_evidence=self.evidence.negative,
                                    collect_results=True,
                                    store_cache=name_cache)
            self.cover = cover
            self._absorb(result, cover, clean_results={},
                         name_cache=name_cache)
            self.supervision.record(result.round_reports)
            self.started = True
            self.batches_applied = 0
            start_span.add_attrs(neighborhoods=len(cover),
                                 matches=len(self.matches))
        return BatchResult(
            batch_index=0,
            ops=0,
            matches=self.matches,
            added=self.matches,
            retracted=frozenset(),
            dirty_neighborhoods=len(cover),
            reran_neighborhoods=len(result.neighborhood_results),
            total_neighborhoods=len(cover),
            rounds=result.round_count,
            matcher_calls=result.neighborhood_runs,
            elapsed_seconds=time.perf_counter() - started_at,
            cover_stats=self.maintainer.stats(),
        )

    # ----------------------------------------------------------- apply batch
    def apply(self, batch: ChangeBatch) -> BatchResult:
        """Apply one change batch and restore the standing-state invariants."""
        if not self.started:
            self.start()
        started_at = time.perf_counter()
        previous_matches = self.matches

        with span("stream.batch", batch=self.batches_applied + 1,
                  ops=len(batch)) as batch_span:
            with span("stream.mutate"):
                impact = DeltaImpact()
                for delta in batch:
                    self._apply_delta(delta, impact)
                self._cascade_evidence_removals(impact)

            with span("stream.cover_repair") as repair_span:
                cover = self.maintainer.update(self.overlay, impact)
                repair_span.add_attrs(
                    rescored_centers=self.maintainer.last_dirty_centers,
                    patched_entries=self.maintainer.last_patched_entries)

            with span("stream.retract") as retract_span:
                dirty_names = self._dirty_neighborhoods(cover, impact)
                valid, active = self._retract(cover, dirty_names)
                retract_span.add_attrs(dirty=len(active))

            # Seed the grid with the cached stores of clean neighborhoods:
            # their sub-instance is unchanged, so re-activated runs hit the
            # matcher's per-store caches instead of re-grounding.
            name_cache: Dict[str, EntityStore] = {}
            for neighborhood in cover:
                if neighborhood.name in dirty_names:
                    continue
                cached = self._store_cache.get(neighborhood.entity_ids)
                if cached is not None:
                    name_cache[neighborhood.name] = cached

            with span("stream.rematch"):
                result = self._grid.run(
                    self.matcher, self.overlay, cover,
                    initial_matches=frozenset(valid),
                    initial_active=active,
                    negative_evidence=self.evidence.negative,
                    collect_results=True,
                    store_cache=name_cache)

            clean_results = dict(self._results)
            self.cover = cover
            self._absorb(result, cover, clean_results=clean_results,
                         name_cache=name_cache)
            self.supervision.record(result.round_reports)

            rebased = False
            if self.overlay.delta_size() >= self.rebase_threshold:
                with span("stream.rebase"):
                    crash_point("rebase.before")
                    self.overlay = StoreOverlay(self.overlay.to_entity_store())
                    # Cached views read through the retired overlay.
                    self._store_cache = {}
                    crash_point("rebase.after")
                rebased = True
                _STREAM_REBASES.inc()

            self.batches_applied += 1
            batch_span.add_attrs(matches=len(self.matches),
                                 retracted=len(previous_matches - self.matches),
                                 rebased=rebased)

        _STREAM_BATCHES.inc()
        _STREAM_OPS.inc(len(batch))
        _STREAM_RETRACTED.inc(len(previous_matches - self.matches))
        _BATCH_SECONDS.observe(time.perf_counter() - started_at)
        return BatchResult(
            batch_index=self.batches_applied,
            ops=len(batch),
            matches=self.matches,
            added=self.matches - previous_matches,
            retracted=previous_matches - self.matches,
            dirty_neighborhoods=len(active),
            reran_neighborhoods=len(result.neighborhood_results),
            total_neighborhoods=len(cover),
            rounds=result.round_count,
            matcher_calls=result.neighborhood_runs,
            elapsed_seconds=time.perf_counter() - started_at,
            rebased=rebased,
            cover_stats=self.maintainer.stats(),
        )

    def replay(self, batches: Iterable[ChangeBatch]) -> List[BatchResult]:
        """Apply a sequence of batches; returns one result per batch."""
        return [self.apply(batch) for batch in batches]

    # --------------------------------------------------------------- deltas
    def _apply_delta(self, delta: Delta, impact: DeltaImpact) -> None:
        if isinstance(delta, AddEvidence):
            pair = delta.pair
            for entity_id in pair:
                if not self.overlay.has_entity(entity_id):
                    raise DeltaError(f"evidence references unknown entity "
                                     f"{entity_id!r}")
            # Latest assertion wins: asserting one polarity retracts the
            # other, so a stream can flip a verdict without an explicit
            # remove_evidence in between.
            if delta.polarity == "positive":
                if pair in self.evidence.positive:
                    return
                self.evidence = Evidence(
                    self.evidence.positive | {pair},
                    self.evidence.negative - {pair})
            else:
                if pair in self.evidence.negative:
                    return
                self.evidence = Evidence(
                    self.evidence.positive - {pair},
                    self.evidence.negative | {pair})
            impact.changed_evidence.add(pair)
        elif isinstance(delta, RemoveEvidence):
            pair = delta.pair
            if delta.polarity == "positive":
                if pair not in self.evidence.positive:
                    return
                self.evidence = Evidence(self.evidence.positive - {pair},
                                         self.evidence.negative)
            else:
                if pair not in self.evidence.negative:
                    return
                self.evidence = Evidence(self.evidence.positive,
                                         self.evidence.negative - {pair})
            impact.changed_evidence.add(pair)
        else:
            self.overlay.apply_delta(delta, impact)

    def _cascade_evidence_removals(self, impact: DeltaImpact) -> None:
        """Standing evidence on removed entities is retracted with them."""
        if not impact.removed_entities:
            return
        removed = impact.removed_entities
        stale_pos = frozenset(p for p in self.evidence.positive
                              if p.first in removed or p.second in removed)
        stale_neg = frozenset(p for p in self.evidence.negative
                              if p.first in removed or p.second in removed)
        if stale_pos or stale_neg:
            self.evidence = Evidence(self.evidence.positive - stale_pos,
                                     self.evidence.negative - stale_neg)
            impact.changed_evidence |= stale_pos | stale_neg

    # ------------------------------------------------------------ dirtiness
    def _dirty_neighborhoods(self, cover: Cover,
                             impact: DeltaImpact) -> Set[str]:
        """Neighborhoods of the *new* cover whose sub-instance (or standing
        per-neighborhood result) is stale."""
        dirty: Set[str] = set()
        known = self._results
        for neighborhood in cover:
            if neighborhood.entity_ids not in known:
                dirty.add(neighborhood.name)
        for entity_id in impact.updated_entities:
            dirty |= cover.neighborhoods_of(entity_id)
        # Both ends inside — the activation rule; it also covers newly
        # asserted positive evidence, so ``_retract`` need not wake for it.
        for pair in impact.changed_similarity | impact.changed_evidence:
            dirty |= cover.neighborhoods_of_pair(pair)
        for _, tup in impact.changed_tuples:
            common: Optional[Set[str]] = None
            for entity_id in tup:
                memberships = cover.neighborhoods_of(entity_id)
                common = set(memberships) if common is None \
                    else common & memberships
                if not common:
                    break
            if common:
                dirty |= common
        # Pairless neighborhoods cannot produce (or lose) matches — exclude
        # them from scheduling; ``_absorb`` records their standing result as
        # empty without ever running the matcher on them.
        return {name for name in dirty if len(cover.neighborhood(name)) > 1}

    # ------------------------------------------------------------ retraction
    def _retract(self, cover: Cover, dirty_names: Set[str]
                 ) -> Tuple[Set[EntityPair], Set[str]]:
        """Delete-and-rederive seed: the surviving matches and the active set.

        A standing pair survives iff its first-derivation neighborhood is
        clean in the new cover and every pair that derivation could have used
        as evidence (earlier-round pairs inside the same neighborhood)
        survives too.  The recursion is well-founded because the grid derives
        matches in stratified rounds.  Anything that does not survive is
        dropped from the seed, and every neighborhood whose sub-instance
        contains a dropped pair is scheduled for re-matching — if the pair is
        still genuinely derivable the re-run brings it straight back.
        """
        clean = {neighborhood.entity_ids for neighborhood in cover
                 if neighborhood.name not in dirty_names
                 and neighborhood.entity_ids in self._results}
        positive = self.evidence.positive

        # One pass splits the derived pairs: those whose origin is gone or
        # dirty (or that were evidence, since retracted) fall at once; the
        # rest are listed under their clean origin with their round.
        derived_in: Dict[Members, List[Tuple[int, EntityPair]]] = {}
        falling: List[Tuple[int, EntityPair]] = []
        for pair in self.matches - positive:
            origin = self._origins.get(pair)
            if origin is None:
                falling.append((_EVIDENCE_ROUND, pair))
            elif origin[0] not in clean:
                falling.append((origin[1], pair))
            else:
                derived_in.setdefault(origin[0], []).append((origin[1], pair))

        # A fallen pair takes down every pair a clean neighborhood holding it
        # derived in a later round (it may have been that derivation's
        # evidence); walked from the fallen pairs only, in any order: the
        # result is the least fixpoint either way.
        dropped = {pair for _, pair in falling}
        lowest: Dict[Members, int] = {}
        while falling:
            pair_round, pair = falling.pop()
            for name in cover.neighborhoods_of_pair(pair):
                members = cover.neighborhood(name).entity_ids
                if members not in clean or lowest.get(members, pair_round + 1) <= pair_round:
                    continue
                lowest[members] = pair_round
                for later_round, later in derived_in.get(members, ()):
                    if later_round > pair_round and later not in dropped:
                        dropped.add(later)
                        falling.append((later_round, later))
        valid = set(positive) | (self.matches - dropped)

        active = set(dirty_names)
        for pair in self.matches - valid:
            active |= cover.neighborhoods_of_pair(pair)
        return valid, {name for name in active
                       if len(cover.neighborhood(name)) > 1}

    # -------------------------------------------------------------- absorb
    def _absorb(self, result: GridRunResult, cover: Cover,
                clean_results: Dict[Members, FrozenSet[EntityPair]],
                name_cache: Dict[str, EntityStore]) -> None:
        """Fold a grid run into the standing state (results + provenance)."""
        members_of = {name: cover.neighborhood(name).entity_ids
                      for name in result.neighborhood_results}
        fresh: Dict[Members, FrozenSet[EntityPair]] = {}
        stores: Dict[Members, EntityStore] = {}
        for neighborhood in cover:
            members = neighborhood.entity_ids
            ran = result.neighborhood_results.get(neighborhood.name)
            if ran is not None:
                fresh[members] = ran
            else:
                kept = clean_results.get(members)
                if kept is not None:
                    fresh[members] = kept
                elif len(members) < 2:
                    # Never scheduled: a pairless neighborhood's output is
                    # empty by construction.
                    fresh[members] = frozenset()
            cached_store = name_cache.get(neighborhood.name)
            if cached_store is not None:
                stores[members] = cached_store
        self._results = fresh
        self._store_cache = stores
        self.matches = result.matches
        for pair, (name, round_index) in result.pair_origins.items():
            self._origins[pair] = (members_of[name],
                                   self._round_offset + round_index)
        self._round_offset += max(1, result.round_count)
        self._origins = {pair: origin for pair, origin in self._origins.items()
                         if pair in self.matches}

    # ----------------------------------------------------- durable snapshot
    def standing_state(self) -> Dict:
        """The standing session state as a JSON-compatible dict.

        Together with the materialised instance (:meth:`final_store`) and
        the session configuration this is everything a checkpoint needs to
        rebuild the session without re-running the cold start; the
        durability layer (:mod:`repro.durability`) snapshots it.
        """
        def as_json(pairs: Iterable[EntityPair]) -> List[List[str]]:
            # Sorted as id lists: EntityPair's order, compared in C.
            return sorted([pair.first, pair.second] for pair in pairs)

        return {
            "batches_applied": self.batches_applied,
            "round_offset": self._round_offset,
            "matches": as_json(self.matches),
            "evidence": {
                "positive": as_json(self.evidence.positive),
                "negative": as_json(self.evidence.negative),
            },
            "results": [
                {"members": members, "pairs": as_json(pairs)}
                for members, pairs in sorted((sorted(members), pairs)
                                             for members, pairs in self._results.items())
            ],
            "origins": [
                {"first": first, "second": second,
                 "members": sorted(members), "round": round_index}
                for first, second, members, round_index in sorted(
                    (pair.first, pair.second, members, round_index)
                    for pair, (members, round_index) in self._origins.items())
            ],
        }

    def restore_standing(self, state: Dict,
                         canopies: Optional[Dict] = None) -> None:
        """Restore a :meth:`standing_state` snapshot into this (fresh) session.

        The cover is rebuilt from the current store (from the snapshot's
        ``canopies`` cache when given, else cold) — byte-identical to the
        incrementally-maintained cover the snapshot was taken against (the
        maintainer contract) — and the standing results/provenance are
        reinstalled, so the next :meth:`apply` behaves exactly as it would
        have in the original session.  Neighborhood-store caches are *not*
        part of the snapshot; they repopulate lazily (performance only).
        """
        if self.started:
            raise DeltaError("cannot restore standing state into a session "
                             "that already started")
        self.cover = self.maintainer.build(self.overlay, canopies)
        self.matches = frozenset(EntityPair.of(a, b)
                                 for a, b in state["matches"])
        self.evidence = Evidence(
            frozenset(EntityPair.of(a, b)
                      for a, b in state["evidence"]["positive"]),
            frozenset(EntityPair.of(a, b)
                      for a, b in state["evidence"]["negative"]))
        self._results = {
            frozenset(entry["members"]):
                frozenset(EntityPair.of(a, b) for a, b in entry["pairs"])
            for entry in state["results"]}
        self._origins = {
            EntityPair.of(entry["first"], entry["second"]):
                (frozenset(entry["members"]), int(entry["round"]))
            for entry in state["origins"]}
        self._round_offset = int(state["round_offset"])
        self.batches_applied = int(state["batches_applied"])
        self._store_cache = {}
        self.started = True

    def session_config(self) -> Dict:
        """The constructor configuration a checkpoint must reproduce."""
        return {
            "relation_names": list(self.relation_names),
            "expansion_rounds": self.maintainer.rounds,
            "rebase_threshold": self.rebase_threshold,
            "supervision_limit": self.supervision.limit,
        }

    # -------------------------------------------------------- verification
    def fresh_matcher(self) -> TypeIMatcher:
        """A cache-free copy of the session's matcher (same configuration)."""
        return pickle.loads(self._matcher_blueprint)

    def final_store(self) -> EntityStore:
        """The current instance, materialised as a plain dict store."""
        return self.overlay.to_entity_store()

    def cold_matches(self) -> FrozenSet[EntityPair]:
        """A cold batch run on the current (final) instance.

        Builds the cover from scratch with the same blocker configuration and
        runs the same scheme under a serial grid with a pristine matcher —
        the reference the replay-equivalence contract is checked against.
        Like every batch run, it reads one :class:`CompactStore` snapshot.
        """
        from ..blocking import build_total_cover
        store = CompactStore.from_store(self.overlay)
        cover = build_total_cover(self.blocker, store,
                                  relation_names=self.relation_names,
                                  rounds=self.maintainer.rounds)
        grid = GridExecutor(scheme="smp")
        result = grid.run(self.fresh_matcher(), store, cover,
                          initial_matches=self.evidence.positive,
                          negative_evidence=self.evidence.negative)
        return result.matches

    def verify(self) -> bool:
        """Whether the standing matches equal a cold run on the final instance."""
        return self.matches == self.cold_matches()
