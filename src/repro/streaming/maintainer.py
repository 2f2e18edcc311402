"""Incremental maintenance of the total cover under instance deltas.

A cold cover build does two expensive things: it *scores* every canopy
center against its token-sharing candidates, and it *expands* every canopy by
boundary walks over the relations.  Both are pure functions of local slices
of the instance, which makes them cacheable across delta batches:

* ``canopy_fn(center)`` — the canopy and tight-removal set of one center —
  depends only on the center's profile, the token postings it touches and the
  candidates' profiles, and membership is symmetric: ``x ∈ canopy(c)`` iff
  ``c ∈ canopy(x)`` (same token-sharing candidate relation, same score
  either way round).  So the sweep of a *changed* entity ``x`` — needed
  anyway — names every cached entry it joins, with the score that decides
  the tight set, and ``x``'s previous canopy names every entry it leaves:
  cached entries are patched in place (set adds and discards, no center is
  re-scored) and stay equal to a cold ``canopy_fn`` on the current instance.
  The *acceptance sweep* (cheap set algebra over the seeded shuffle order)
  re-runs every batch over the cached canopies, so the cover is
  **byte-identical** to a cold
  :meth:`~repro.blocking.canopy.CanopyBlocker.build_cover` on the final
  instance while the scoring work is proportional to the delta.
* ``expand_members(relations, canopy)`` — the boundary expansion of one
  canopy — can only change when an added/removed tuple of an expansion
  relation touches the canopy (with more than one round: the expanded set),
  so expansions are memoized per canopy member-set and invalidated by the
  tuple deltas.

Nothing else is rebuilt per batch either: the shuffled center order is kept
sorted by :meth:`~repro.blocking.canopy.CanopyBlocker.center_rank` (one
insert or delete per changed entity), the sweep goes straight to member sets
(no intermediate canopy :class:`Cover`), and the total cover is patched from
the previous one — only member sets that appeared or disappeared are
re-indexed.

The maintainer takes only a :class:`~repro.blocking.canopy.CanopyBlocker`,
the one blocker every entry point builds covers with; any other blocker is
a :class:`~repro.exceptions.CoverError`.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..blocking import CanopyBlocker, Cover, Neighborhood
from ..blocking.boundary import attach_leftover_singletons, expand_members, validate_total
from ..blocking.canopy import split_canopy
from ..exceptions import CoverError
from ..similarity.profiles import EntityProfile, ProfiledNameScorer, default_tokenizer
from .overlay import DeltaImpact


class IncrementalCoverMaintainer:
    """Keeps a total cover in sync with a mutating instance.

    The contract is exact: after every :meth:`update`, the maintained cover
    equals ``build_total_cover(blocker, store, relation_names, rounds)`` run
    cold on the current instance — neighborhood names, member sets and
    ordering included.  This is what lets the delta runner reuse the standing
    per-neighborhood results of clean neighborhoods while still matching a
    cold batch run bit for bit.
    """

    def __init__(self, blocker: CanopyBlocker,
                 relation_names: Optional[Iterable[str]] = None,
                 rounds: int = 1):
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not isinstance(blocker, CanopyBlocker):
            raise CoverError(f"the streaming cover maintainer repairs canopy "
                             f"covers only; got {type(blocker).__name__}")
        self.blocker = blocker
        self.relation_names = list(relation_names) if relation_names is not None else None
        self.rounds = rounds
        # --- canopy-side caches --------------------------------------------
        self._profiles: Dict[str, EntityProfile] = {}
        self._parts: Dict[str, Tuple[str, str]] = {}
        self._postings: Dict[str, Set[str]] = {}
        self._scorer = ProfiledNameScorer(self._parts)
        # center -> (canopy, tight-removal set), patched in place by update().
        self._canopy_cache: Dict[str, Tuple[Set[str], Set[str]]] = {}
        # The indexed entities' center ranks, sorted: the shuffled order.
        self._ranked: List[Tuple[bytes, str]] = []
        # The entities of the last build, not yet profiled: the index is
        # built from them on the first update or the first uncached canopy.
        self._unindexed: Optional[List] = None
        # The last cover handed out, which the next one is patched from.
        self._cover: Optional[Cover] = None
        # --- expansion-side cache -----------------------------------------
        self._expansion_cache: Dict[FrozenSet[str], FrozenSet[str]] = {}
        # --- per-update statistics -----------------------------------------
        self.last_dirty_centers = 0
        self.last_patched_entries = 0
        self.last_center_count = 0
        self.last_full_rebuild = False

    # ------------------------------------------------------------- profiles
    def _relevant(self, entity) -> bool:
        entity_type = self.blocker.entity_type
        return entity_type is None or entity.entity_type == entity_type

    def _index_profile(self, entity) -> None:
        profile = EntityProfile(entity, self.blocker.text_attributes,
                                default_tokenizer)
        entity_id = entity.entity_id
        self._profiles[entity_id] = profile
        self._parts[entity_id] = (profile.norm_first, profile.norm_last)
        for token in profile.token_set:
            self._postings.setdefault(token, set()).add(entity_id)

    def _forget(self, entity_id: str) -> None:
        """Take a removed (or about to be re-rendered) entity out of the
        index and out of every cached canopy that holds it."""
        if entity_id not in self._profiles:
            return
        own = self._canopy_cache.pop(entity_id, None)
        # By symmetry its own canopy names the entries holding it; without
        # one, every center sharing a token is a (superset) candidate.
        for center_id in (own[0] if own is not None
                          else self._candidates(entity_id)):
            entry = self._canopy_cache.get(center_id)
            if entry is not None and entity_id in entry[0]:
                entry[0].discard(entity_id)
                entry[1].discard(entity_id)
                self.last_patched_entries += 1
        del self._parts[entity_id]
        del self._ranked[bisect_left(self._ranked,
                                     self.blocker.center_rank(entity_id))]
        for token in self._profiles.pop(entity_id).token_set:
            bucket = self._postings[token]
            bucket.discard(entity_id)
            if not bucket:
                del self._postings[token]

    def _candidates(self, center_id: str) -> Set[str]:
        out: Set[str] = set()
        postings = self._postings
        for token in self._profiles[center_id].token_set:
            bucket = postings.get(token)
            if bucket is not None:
                out.update(bucket)
        out.discard(center_id)
        return out

    def _canopy_fn(self, center_id: str) -> Tuple[Set[str], Set[str]]:
        """The profiled per-center canopy, identical to the cold path: the
        cache entry itself, which callers must not edit."""
        cached = self._canopy_cache.get(center_id)
        if cached is None:
            self._index_unindexed()
            blocker = self.blocker
            cached = self._canopy_cache[center_id] = split_canopy(
                center_id, self._scorer.canopy_scores(
                    center_id, self._candidates(center_id),
                    blocker.loose_threshold), blocker.tight_threshold)
            self.last_dirty_centers += 1
        return cached

    # ----------------------------------------------------------- base cover
    def _base_canopies(self) -> List[Tuple[str, FrozenSet[str]]]:
        """The base cover as ``(name, members)``: the acceptance sweep over
        the cached canopies in the kept order.  The sweep leaves no entity to
        a singleton: each one is in the canopy of the center that took it
        out of the pool."""
        order = [entity_id for _, entity_id in self._ranked]
        self.last_center_count = len(order)
        return [(f"canopy-{index}", frozenset(canopy)) for index, canopy
                in enumerate(self.blocker.sweep(order, self._canopy_fn))]

    def _index_unindexed(self) -> None:
        """Profile the entities of the last build (the instance its canopies
        describe, which the store may have moved on from), if not done yet."""
        entities, self._unindexed = self._unindexed, None
        if entities is not None:
            for entity in entities:
                self._index_profile(entity)

    # ------------------------------------------------------------ expansion
    def _total_cover(self, store) -> Cover:
        """Base cover, then boundary expansion through the expansion cache,
        patched into the previous cover."""
        names = self.relation_names if self.relation_names is not None \
            else store.relation_names()
        relations = [store.relation(name) for name in names]
        fresh_cache: Dict[FrozenSet[str], FrozenSet[str]] = {}
        expanded: List[Neighborhood] = []
        previous = self._cover
        for name, members in self._base_canopies():
            expansion = self._expansion_cache.get(members)
            if expansion is None:
                expansion = frozenset(expand_members(relations, members, self.rounds))
            fresh_cache[members] = expansion
            # A neighborhood that kept its name and members is reused.
            kept = previous.get(name) if previous is not None else None
            expanded.append(kept if kept is not None and kept.entity_ids == expansion
                            else Neighborhood(name, expansion))
        # Entries for canopies that no longer exist are dropped here, so the
        # cache never outlives the cover it describes (a member set that
        # disappears and later reappears must be recomputed: intermediate
        # batches did not track its staleness).
        self._expansion_cache = fresh_cache
        total = attach_leftover_singletons(expanded, store, previous)
        validate_total(total, store, self.relation_names)
        self._cover = total
        return total

    # ----------------------------------------------------------------- cold
    def build(self, store, canopies: Optional[Dict] = None) -> Cover:
        """Build the total cover from scratch and seed every cache;
        ``canopies`` (a :meth:`canopy_state` of this instance) seeds the
        canopy cache, so no canopy is scored, and the profile index waits
        for the first update."""
        self.last_dirty_centers = self.last_patched_entries = 0
        self._canopy_cache.clear()
        self._expansion_cache.clear()
        self._cover = None
        self._profiles.clear()
        self._parts.clear()
        self._postings.clear()
        self._unindexed = [entity for entity in store.entities()
                           if self._relevant(entity)]
        self._ranked = sorted(self.blocker.center_rank(entity.entity_id)
                              for entity in self._unindexed)
        for center_id, (canopy, tight) in (canopies or {}).items():
            self._canopy_cache[center_id] = (set(canopy), set(tight))
        total = self._total_cover(store)
        self.last_full_rebuild = True
        return total

    def canopy_state(self) -> Dict[str, List[List[str]]]:
        """The canopy cache as JSON, ``center -> [canopy, tight set]`` with
        both sorted."""
        return {center_id: [sorted(canopy), sorted(tight)]
                for center_id, (canopy, tight) in self._canopy_cache.items()}

    # ---------------------------------------------------------- incremental
    def update(self, store, impact: DeltaImpact) -> Cover:
        """Repair the cover for one applied change batch.

        ``store`` is the overlay *after* the batch was applied; ``impact``
        is the ledger of what the batch touched.
        """
        self.last_dirty_centers = self.last_patched_entries = 0
        self.last_full_rebuild = False
        self._index_unindexed()

        # Expansion invalidation first.  A cached expansion can only change
        # when a changed tuple of an expansion relation touches its members
        # (after one round; with more, its expanded set).  A removed entity's
        # tuples are among the changes.
        names = self.relation_names
        touched = {entity_id for name, tup in impact.changed_tuples
                   if names is None or name in names for entity_id in tup}
        if touched:
            self._expansion_cache = {
                members: expansion
                for members, expansion in self._expansion_cache.items()
                if touched.isdisjoint(members if self.rounds == 1 else expansion)}

        self._patch_canopies(store, impact)
        return self._total_cover(store)

    def _patch_canopies(self, store, impact: DeltaImpact) -> None:
        """Bring every cached canopy up to the current instance (see module
        doc): one sweep per changed entity, set edits everywhere else."""
        for entity_id in impact.removed_entities | impact.updated_entities:
            self._forget(entity_id)
        changed: List[str] = []
        for entity_id in impact.updated_entities | impact.added_entities:
            entity = store.entity(entity_id)
            if self._relevant(entity):
                self._index_profile(entity)
                insort(self._ranked, self.blocker.center_rank(entity_id))
                changed.append(entity_id)
        # Every new rendering is indexed before any is scored, so each sweep
        # sees the final instance.
        for entity_id in changed:
            canopy, tight = self._canopy_fn(entity_id)
            for center_id in canopy:
                entry = self._canopy_cache.get(center_id)
                if center_id != entity_id and entry is not None \
                        and entity_id not in entry[0]:
                    entry[0].add(entity_id)
                    if center_id in tight:
                        entry[1].add(entity_id)
                    self.last_patched_entries += 1

    # ------------------------------------------------------------ telemetry
    def stats(self) -> Dict[str, float]:
        centers = max(1, self.last_center_count)
        return {
            "centers": self.last_center_count,
            "rescored_centers": self.last_dirty_centers,
            "patched_entries": self.last_patched_entries,
            "rescored_fraction": self.last_dirty_centers / centers,
            "full_rebuild": float(self.last_full_rebuild),
            "cached_expansions": len(self._expansion_cache),
        }
