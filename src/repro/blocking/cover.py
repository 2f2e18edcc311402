"""Neighborhoods, covers and total covers (Section 4 of the paper).

A *neighborhood* is a subset of the entities; a *cover* is a set of
(potentially overlapping) neighborhoods whose union is the entity set; a
cover is *total* w.r.t. a relation set ``R`` when every relation tuple is
fully contained in at least one neighborhood (Definition 7).  Tuples not
contained in any neighborhood would be "lost": they would never participate
in any matching decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..datamodel import EntityPair, EntityStore
from ..exceptions import CoverError


@dataclass(frozen=True)
class Neighborhood:
    """A named subset of the entity ids."""

    name: str
    entity_ids: FrozenSet[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entity_ids", frozenset(self.entity_ids))
        if not self.entity_ids:
            raise CoverError(f"neighborhood {self.name!r} is empty")

    def __len__(self) -> int:
        return len(self.entity_ids)

    def __contains__(self, entity_id: str) -> bool:
        return entity_id in self.entity_ids

    def __iter__(self) -> Iterator[str]:
        return iter(self.entity_ids)

    def contains_pair(self, pair: EntityPair) -> bool:
        """Whether both members of ``pair`` lie inside this neighborhood."""
        return pair.first in self.entity_ids and pair.second in self.entity_ids

    def expanded(self, extra_entity_ids: Iterable[str], suffix: str = "") -> "Neighborhood":
        """A copy with extra entities added (used by boundary expansion)."""
        name = self.name + suffix if suffix else self.name
        return Neighborhood(name, self.entity_ids | set(extra_entity_ids))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Neighborhood({self.name!r}, size={len(self.entity_ids)})"


class Cover:
    """An ordered collection of neighborhoods covering (part of) the entities.

    Membership is indexed by member set: ``entity -> member sets holding
    it``, ``member set -> names``.  A cover built with ``previous`` edits a
    copy of that cover's index for the member sets that appeared or
    disappeared, instead of re-indexing every neighborhood — how the
    streaming maintainer patches its cover each batch (neighborhood names
    shift as canopies come and go, member sets mostly do not).
    """

    def __init__(self, neighborhoods: Iterable[Neighborhood] = (),
                 previous: Optional["Cover"] = None):
        self._neighborhoods: List[Neighborhood] = list(neighborhoods)
        self._by_name: Dict[str, Neighborhood] = {n.name: n for n in self._neighborhoods}
        if len(self._by_name) != len(self._neighborhoods):
            raise CoverError("neighborhood names within a cover must be unique")
        self._names: Dict[FrozenSet[str], List[str]] = {}
        for neighborhood in self._neighborhoods:
            self._names.setdefault(neighborhood.entity_ids, []).append(neighborhood.name)
        old_names, membership = ({}, {}) if previous is None \
            else (previous._names, dict(previous._membership))
        dropped = old_names.keys() - self._names.keys()
        added = self._names.keys() - old_names.keys()
        touched = set().union(*dropped, *added)
        for entity_id in touched:       # copied: ``previous`` keeps its index
            membership[entity_id] = set(membership.get(entity_id, ()))
        for members in dropped:
            for entity_id in members:
                membership[entity_id].discard(members)
        for members in added:
            for entity_id in members:
                membership[entity_id].add(members)
        for entity_id in touched:
            if not membership[entity_id]:
                del membership[entity_id]
        self._membership: Dict[str, Set[FrozenSet[str]]] = membership

    # ---------------------------------------------------------------- basics
    def __len__(self) -> int:
        return len(self._neighborhoods)

    def __iter__(self) -> Iterator[Neighborhood]:
        return iter(self._neighborhoods)

    def __getitem__(self, index: int) -> Neighborhood:
        return self._neighborhoods[index]

    def get(self, name: str) -> Optional[Neighborhood]:
        """The neighborhood named ``name``, or ``None``."""
        return self._by_name.get(name)

    def neighborhood(self, name: str) -> Neighborhood:
        try:
            return self._by_name[name]
        except KeyError:
            raise CoverError(f"no neighborhood named {name!r} in this cover") from None

    def names(self) -> List[str]:
        return [n.name for n in self._neighborhoods]

    def covered_entities(self) -> FrozenSet[str]:
        """Union of all neighborhoods."""
        return frozenset(self._membership)

    def _names_of(self, member_sets: Iterable[FrozenSet[str]]) -> FrozenSet[str]:
        names = self._names
        return frozenset(name for members in member_sets for name in names[members])

    def neighborhoods_of(self, entity_id: str) -> FrozenSet[str]:
        """Names of the neighborhoods containing ``entity_id``."""
        return self._names_of(self._membership.get(entity_id, ()))

    def neighborhoods_of_pair(self, pair: EntityPair) -> FrozenSet[str]:
        """Names of the neighborhoods containing *both* members of ``pair``."""
        held = self._membership.get(pair.first)
        if not held:
            return frozenset()
        return self._names_of(held.intersection(self._membership.get(pair.second, ())))

    # ------------------------------------------------------------ validation
    def covers(self, entity_ids: Iterable[str]) -> bool:
        """Whether the union of neighborhoods includes all of ``entity_ids``."""
        return set(entity_ids) <= set(self._membership)

    def validate_covering(self, store: EntityStore) -> None:
        """Raise :class:`CoverError` unless every entity of ``store`` is covered."""
        missing = store.entity_ids() - self.covered_entities()
        if missing:
            sample = sorted(missing)[:5]
            raise CoverError(
                f"cover misses {len(missing)} entities (e.g. {sample}); not a valid cover"
            )

    def uncovered_tuples(self, store: EntityStore,
                         relation_names: Optional[Iterable[str]] = None
                         ) -> Dict[str, List[Tuple[str, ...]]]:
        """Relation tuples not fully contained in any neighborhood, per relation.

        A cover is total (Definition 7) iff this is empty for every relation
        in ``R``.
        """
        names = list(relation_names) if relation_names is not None else store.relation_names()
        missing: Dict[str, List[Tuple[str, ...]]] = {}
        for name in names:
            relation = store.relation(name)
            for tup in relation:
                if not self._tuple_covered(tup):
                    missing.setdefault(name, []).append(tup)
        return missing

    def _tuple_covered(self, tup: Sequence[str]) -> bool:
        membership = self._membership
        held = membership.get(tup[0])
        if not held:
            return False
        if len(tup) == 2:       # the common case, without building a set
            return not held.isdisjoint(membership.get(tup[1], ()))
        return bool(held.intersection(*(membership.get(e, ()) for e in tup[1:])))

    def is_total(self, store: EntityStore,
                 relation_names: Optional[Iterable[str]] = None) -> bool:
        """Whether this cover is a total cover of ``store`` w.r.t. the relations."""
        if not self.covers(store.entity_ids()):
            return False
        return not self.uncovered_tuples(store, relation_names)

    # ----------------------------------------------------------------- stats
    def max_neighborhood_size(self) -> int:
        return max((len(n) for n in self._neighborhoods), default=0)

    def total_pairs(self) -> int:
        """Total number of candidate entity pairs across neighborhoods.

        This is the quantity the paper reports ("13K neighborhoods containing
        a total of 1.3M entity pairs"): the sum over neighborhoods of
        ``k * (k - 1) / 2``.
        """
        return sum(len(n) * (len(n) - 1) // 2 for n in self._neighborhoods)

    def stats(self) -> Dict[str, float]:
        sizes = [len(n) for n in self._neighborhoods]
        if not sizes:
            return {"neighborhoods": 0, "entities": 0, "max_size": 0,
                    "mean_size": 0.0, "total_pairs": 0}
        return {
            "neighborhoods": len(sizes),
            "entities": len(self._membership),
            "max_size": max(sizes),
            "mean_size": sum(sizes) / len(sizes),
            "total_pairs": self.total_pairs(),
        }

    def subset(self, count: int) -> "Cover":
        """The cover formed by the first ``count`` neighborhoods (Figure 3(f) sweeps)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return Cover(self._neighborhoods[:count])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stats = self.stats()
        return (f"Cover(neighborhoods={stats['neighborhoods']}, "
                f"max_size={stats['max_size']}, total_pairs={stats['total_pairs']})")
