"""Match sets and operations on them.

A *match set* is a set of :class:`~repro.datamodel.pair.EntityPair` declared
to refer to the same real-world entity.  This module provides a small value
class with the operations the framework needs:

* set algebra (union/difference/subset tests),
* transitive closure (used when a matcher applies the equivalence constraint
  after matching, Appendix A),
* conversion to clusters (connected components of the match graph), which is
  what downstream consumers of an entity-resolution result usually want.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Set, Tuple

from .pair import EntityPair, all_pairs, pairs_from


class DisjointSets:
    """Union-find over entity ids whose ``find`` is a dict lookup.

    ``index`` maps every united id to the one member set its whole component
    shares (read it, do not write it); :meth:`unite` folds the smaller set
    into the larger, so all unions together cost O(n log n).
    """

    __slots__ = ("index",)

    def __init__(self, pairs: Iterable[Iterable[str]] = ()):
        self.index: Dict[str, Set[str]] = {}
        for first, second in pairs:
            self.unite(first, second)

    def unite(self, first: str, second: str) -> None:
        large = self.index.setdefault(first, {first})
        small = self.index.setdefault(second, {second})
        if large is not small:
            if len(large) < len(small):
                large, small = small, large
            large |= small
            for member in small:
                self.index[member] = large

    def components(self) -> List[Set[str]]:
        """The distinct member sets (every one has at least two members)."""
        return list({id(members): members
                     for members in self.index.values()}.values())


class MatchSet:
    """An immutable set of entity pairs declared as matches."""

    __slots__ = ("_pairs",)

    def __init__(self, pairs: Iterable[EntityPair] = ()):
        self._pairs: FrozenSet[EntityPair] = pairs_from(pairs)

    # ---------------------------------------------------------------- dunders
    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[EntityPair]:
        return iter(self._pairs)

    def __contains__(self, pair: EntityPair) -> bool:
        return pair in self._pairs

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MatchSet):
            return self._pairs == other._pairs
        if isinstance(other, (set, frozenset)):
            return self._pairs == frozenset(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._pairs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MatchSet({sorted(self._pairs)!r})"

    # ---------------------------------------------------------------- algebra
    @property
    def pairs(self) -> FrozenSet[EntityPair]:
        return self._pairs

    def union(self, other: Iterable[EntityPair]) -> "MatchSet":
        return MatchSet(self._pairs | pairs_from(other))

    def difference(self, other: Iterable[EntityPair]) -> "MatchSet":
        return MatchSet(self._pairs - pairs_from(other))

    def intersection(self, other: Iterable[EntityPair]) -> "MatchSet":
        return MatchSet(self._pairs & pairs_from(other))

    def issubset(self, other: Iterable[EntityPair]) -> bool:
        return self._pairs <= pairs_from(other)

    def issuperset(self, other: Iterable[EntityPair]) -> bool:
        return self._pairs >= pairs_from(other)

    # ------------------------------------------------------------ equivalence
    def entity_ids(self) -> Set[str]:
        """All entity ids participating in some match."""
        ids: Set[str] = set()
        for pair in self._pairs:
            ids.add(pair.first)
            ids.add(pair.second)
        return ids

    def clusters(self) -> List[FrozenSet[str]]:
        """Connected components of the match graph, as frozensets of entity ids."""
        return [frozenset(component)
                for component in DisjointSets(self._pairs).components()]

    def transitive_closure(self) -> "MatchSet":
        """All pairs implied by the equivalence relation generated by this set.

        Appendix A of the paper notes that taking the transitive closure of a
        monotone matcher preserves monotonicity; matchers that enforce
        transitivity call this at the end of each run.
        """
        return MatchSet.from_clusters(self.clusters())

    def is_transitively_closed(self) -> bool:
        return self.transitive_closure() == self

    # ---------------------------------------------------------------- exports
    def to_tuples(self) -> List[Tuple[str, str]]:
        return sorted(pair.as_tuple() for pair in self._pairs)

    @classmethod
    def from_clusters(cls, clusters: Iterable[Iterable[str]]) -> "MatchSet":
        """Build the fully-connected match set implied by entity clusters."""
        pairs: Set[EntityPair] = set()
        for cluster in clusters:
            pairs |= all_pairs(cluster)
        return cls(pairs)

    @classmethod
    def from_entity_labels(cls, labels: Mapping[str, str]) -> "MatchSet":
        """Ground-truth construction: entities sharing a label are matches.

        ``labels`` maps entity id → true real-world entity id; every pair of
        entities with the same label is a true match.
        """
        groups: Dict[str, List[str]] = {}
        for entity_id, label in labels.items():
            groups.setdefault(label, []).append(entity_id)
        return cls.from_clusters(groups.values())
