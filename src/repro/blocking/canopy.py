"""Canopy clustering (McCallum, Nigam & Ungar, KDD 2000).

The paper builds its covers "by first constructing a total cover over the
Similar relation using the Canopies algorithm, and then taking the boundary of
each neighborhood with respect to other relations" (Section 4).  Canopies use
a *cheap* similarity with two thresholds:

* ``loose`` — entities within this similarity of the canopy center join the
  canopy (canopies may overlap),
* ``tight`` — entities within this similarity of the center are removed from
  the pool of potential future centers.

The result is a set of overlapping neighborhoods such that every pair of
sufficiently-similar entities shares at least one canopy — i.e. a total cover
over the ``Similar`` relation.

The cheap similarity is the structured author-name score
(:data:`~repro.similarity.name_similarity.DEFAULT_AUTHOR_SIMILARITY`): the
framework scales *any* matcher, and every entry point blocks with this one
canopy.  Entities are tokenized and normalized once into an
:class:`~repro.similarity.profiles.EntityProfileIndex` and pair scores go
through a memoized scorer with sound upper-bound pruning.  The
string-at-a-time builder this replaced is the oracle
``tests/reference/canopy.py``; covers are bitwise identical.
"""

from __future__ import annotations

import hashlib
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..datamodel import Entity, EntityStore
from ..exceptions import CoverError
from ..kernels.names import canopy_sweep
from ..obs import registry as obs_registry
from ..obs.trace import span
from ..similarity.name_similarity import DEFAULT_AUTHOR_SIMILARITY
from ..similarity.profiles import EntityProfileIndex, ProfiledNameScorer
from .base import Blocker
from .cover import Cover

#: ``canopy_fn(center_id) -> (canopy ids, removed ids)`` — one center's canopy.
CanopyFn = Callable[[str], Tuple[Set[str], Set[str]]]

_COVERS = obs_registry.counter(
    "blocking_covers_total", "Canopy covers built")
_COVER_SECONDS = obs_registry.histogram(
    "blocking_cover_seconds", "Wall-clock of one canopy cover build")


def author_name_cheap_similarity(a: Entity, b: Entity) -> float:
    """The canopy's cheap similarity, one pair of entities at a time.

    The blocker scores through :class:`ProfiledNameScorer` instead; this
    spelling is what ``tests/reference/canopy.py`` scores with, and what a
    blocker pickled before the ``similarity`` parameter was removed names.
    """
    return DEFAULT_AUTHOR_SIMILARITY.score_entities(a, b)


def split_canopy(center, scored: Iterable[Tuple[object, float]],
                 tight: float) -> Tuple[set, set]:
    """One center's ``(canopy, removed)`` from its scored candidates.

    ``scored`` yields ``(candidate, score)`` with every score already at or
    above the loose threshold: each candidate joins the canopy, and those at
    or above ``tight`` also leave the pool of future centers.
    """
    canopy = {center}
    removed = {center}
    for candidate, score in scored:
        canopy.add(candidate)
        if score >= tight:
            removed.add(candidate)
    return canopy, removed


class CanopyBlocker(Blocker):
    """Canopy clustering over a cheap similarity measure.

    Parameters
    ----------
    loose_threshold:
        Entities at least this similar to a canopy center join the canopy.
    tight_threshold:
        Entities at least this similar to the center stop being candidate
        centers themselves.  Must be ≥ ``loose_threshold``.
    entity_type:
        When set, only entities of this type are clustered into canopies
        (papers, for instance, are attached later via boundary expansion).
    text_attributes:
        Attribute(s) used by the inverted-index pre-filter.  Candidate
        neighbours for a center are restricted to entities sharing at least
        one token/character trigram with the center, which keeps canopy
        construction far below quadratic on realistic name data.
    seed:
        Seed for the random choice of canopy centers (canopies are randomised
        but the downstream framework is order-invariant).
    """

    def __init__(self, loose_threshold: float = 0.78, tight_threshold: float = 0.92,
                 entity_type: Optional[str] = "author",
                 text_attributes: Sequence[str] = ("fname", "lname"),
                 seed: int = 0):
        if not 0.0 <= loose_threshold <= tight_threshold <= 1.0:
            raise ValueError("thresholds must satisfy 0 <= loose <= tight <= 1")
        self.loose_threshold = loose_threshold
        self.tight_threshold = tight_threshold
        self.entity_type = entity_type
        self.text_attributes = tuple(text_attributes)
        self.seed = seed
        # The profiled scorer of the most recent canopy build (None until a
        # profiled build ran): holds the bounded FIFO memos whose hit/miss
        # stats :meth:`memo_stats` surfaces for the metrics registry.
        self._last_scorer: Optional[ProfiledNameScorer] = None

    def __setstate__(self, state: Dict) -> None:
        """Unpickle, also from checkpoints written while the blocker still
        had a ``similarity`` parameter: the author-name default is dropped,
        and any other mode, which no longer exists, is refused."""
        similarity = state.pop("similarity", author_name_cheap_similarity)
        if similarity is not author_name_cheap_similarity:
            raise CoverError(f"pickled CanopyBlocker uses similarity "
                             f"{similarity!r}; only the author-name canopy "
                             "exists")
        self.__dict__.update(state)

    def memo_stats(self) -> Dict[str, Dict[str, int]]:
        """Scorer memo efficacy of the most recent build (empty if none)."""
        if self._last_scorer is None:
            return {}
        return self._last_scorer.memo_stats()

    # ------------------------------------------------------------- selection
    def clustered_entities(self, store: EntityStore) -> List[Entity]:
        """The entities this blocker clusters, in sorted entity-id order."""
        if self.entity_type is not None:
            entities = store.entities_of_type(self.entity_type)
        else:
            entities = store.entities()
        return sorted(entities, key=lambda e: e.entity_id)

    def shuffled_order(self, entities: Sequence[Entity]) -> List[str]:
        """Seeded random center-processing order over ``entities``.

        The order is *insertion-stable*: each entity's position comes from a
        per-entity keyed hash of ``(seed, entity_id)``, so adding or removing
        one entity inserts/deletes one element without perturbing the
        relative order of all the others.  (A global ``random.shuffle`` over
        the id list would re-permute everything whenever the entity set
        changes by a single element, which would force the streaming cover
        maintainer to treat every canopy as dirty on every delta batch.)
        """
        return sorted((entity.entity_id for entity in entities),
                      key=self.center_rank)

    def center_rank(self, entity_id: str) -> Tuple[bytes, str]:
        """An entity's sort key in :meth:`shuffled_order`; the streaming
        cover maintainer keeps the order sorted by it, one insert or delete
        per changed entity."""
        digest = hashlib.blake2b(entity_id.encode("utf-8"),
                                 key=str(self.seed).encode("utf-8")[:64],
                                 digest_size=8).digest()
        return digest, entity_id

    def profile_index(self, entities: Sequence[Entity],
                      profiles: Optional[EntityProfileIndex] = None) -> EntityProfileIndex:
        """A profile index covering exactly ``entities``; reuses ``profiles`` when compatible."""
        if profiles is not None and profiles.matches(
                (entity.entity_id for entity in entities), self.text_attributes):
            return profiles
        return EntityProfileIndex(entities, text_attributes=self.text_attributes)

    # --------------------------------------------------------- canopy builders
    def canopy_factory(self, entities: Sequence[Entity],
                       profiles: Optional[EntityProfileIndex] = None) -> CanopyFn:
        """The per-center canopy function over ``entities``."""
        loose, tight = self.loose_threshold, self.tight_threshold
        pindex = self.profile_index(entities, profiles)
        scorer = ProfiledNameScorer(pindex.name_parts())
        self._last_scorer = scorer
        # One leg per sweep, chosen from its pilot; canopies are identical
        # either way.
        scores = canopy_sweep(scorer, pindex.postings, (
            pindex.profile(center_id).token_set
            for center_id in self.shuffled_order(entities)))

        def profiled_canopy(center_id: str) -> Tuple[Set[str], Set[str]]:
            return split_canopy(center_id, scores(
                center_id, pindex.profile(center_id).token_set, loose), tight)

        return profiled_canopy

    # ----------------------------------------------------------- interned path
    def _interner_for(self, store: EntityStore):
        """The store's id interner when the interned fast path applies.

        The interned path runs over a :class:`~repro.datamodel.CompactStore`:
        candidate generation and the center sweep then run entirely in the
        snapshot's integer id space
        (``similarity/profiles.InternedProfileSpace``) and only the final
        canopies are decoded back to entity ids.  Scores go through the same
        :class:`ProfiledNameScorer` arithmetic, so covers are identical to
        the string-keyed path (asserted in ``tests/test_compact_store.py``).
        """
        return getattr(store, "interner", None)

    def _interned_canopies(self, entities: Sequence[Entity], interner,
                           profiles: Optional[EntityProfileIndex] = None
                           ) -> List[Set[str]]:
        """Canopy sweep in integer id space; canopies decoded at the end."""
        index = self.profile_index(entities, profiles)
        space = index.interned_space(interner)
        scorer = ProfiledNameScorer(space.parts)
        self._last_scorer = scorer
        order = [interner.index_of(entity_id)
                 for entity_id in self.shuffled_order(entities)]
        scores = canopy_sweep(scorer, space.postings,
                              (space.tokens[center] for center in order))
        loose, tight = self.loose_threshold, self.tight_threshold

        def interned_canopy(center: int) -> Tuple[Set[int], Set[int]]:
            return split_canopy(
                center, scores(center, space.tokens[center], loose), tight)

        return [space.decode(canopy)
                for canopy in self.sweep(order, interned_canopy)]

    @staticmethod
    def sweep(order: Sequence[str], canopy_fn: CanopyFn) -> List[Set[str]]:
        """Sequential center sweep: the canonical canopy acceptance loop.

        Walks ``order``, accepting each id still in the remaining pool as a
        center and removing that canopy's tight-threshold members from the
        pool.  Every id of ``order`` ends up in a canopy: a center is in its
        own, and an id leaves the pool only through the tight set of a canopy
        holding it.  The streaming cover maintainer replays this same loop
        over its cached per-center canopies.
        """
        remaining: Set[str] = set(order)
        canopies: List[Set[str]] = []
        for center_id in order:
            if center_id not in remaining:
                continue
            canopy, removed = canopy_fn(center_id)
            remaining -= removed
            canopies.append(canopy)
        return canopies

    # ----------------------------------------------------------------- cover
    def build_cover(self, store: EntityStore,
                    profiles: Optional[EntityProfileIndex] = None) -> Cover:
        """Run the canopy algorithm and return the resulting cover.

        Entities of other types (when ``entity_type`` is set) are *not*
        included here; boundary expansion pulls them in afterwards.
        ``profiles`` may supply a prebuilt
        :class:`~repro.similarity.profiles.EntityProfileIndex` covering
        exactly the clustered entities.
        """
        started = time.perf_counter()
        with span("blocking.cover") as cover_span:
            entities = self.clustered_entities(store)
            cover_span.add_attrs(entities=len(entities))
            interner = self._interner_for(store)
            if interner is not None:
                canopies = self._interned_canopies(entities, interner, profiles)
            else:
                canopy_fn = self.canopy_factory(entities, profiles)
                canopies = self.sweep(self.shuffled_order(entities), canopy_fn)

            cover = self._make_neighborhoods(canopies, prefix="canopy-")
            cover_span.add_attrs(neighborhoods=len(cover.names()))
        _COVERS.inc()
        _COVER_SECONDS.observe(time.perf_counter() - started)
        return cover
