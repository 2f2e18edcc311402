"""Immutable read epochs: the snapshot a resolution request pins.

An :class:`Epoch` is everything a read needs, frozen at one committed batch
boundary: the standing match set, the entity universe of the instance at
that point, and a canonical-cluster index (union-find over the transitive
closure of the matches, canonical member = lexicographic minimum).  Epochs
are *immutable after construction* — the serving layer publishes a new
epoch with one atomic reference swap per committed batch, so:

* a reader that pinned an epoch keeps a consistent view for its whole
  request, no matter how many commits land meanwhile;
* commits never block reads and reads never block commits — there is no
  read lock, only the single reference assignment (atomic under CPython);
* two lookups inside one request can never observe different batches
  (no torn commit), which is the property the threaded epoch-swap tests
  hammer on.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Tuple

from ..datamodel import DisjointSets, EntityPair
from ..exceptions import UnknownEntityError


class Epoch:
    """One immutable, fully-indexed snapshot of the standing match set."""

    __slots__ = ("epoch_id", "matches", "entity_ids", "_canonical",
                 "_members")

    def __init__(self, epoch_id: int, matches: FrozenSet[EntityPair],
                 entity_ids: Iterable[str]):
        self.epoch_id = epoch_id
        self.matches = frozenset(matches)
        self.entity_ids = frozenset(entity_ids)
        self._canonical, self._members = self._index(self.matches)

    @staticmethod
    def _index(matches: FrozenSet[EntityPair]) -> Tuple[Dict[str, str],
                                                        Dict[str, Tuple[str, ...]]]:
        """Cluster index over the matches; canonical = min id of the cluster."""
        canonical: Dict[str, str] = {}
        members: Dict[str, Tuple[str, ...]] = {}
        for component in DisjointSets(matches).components():
            ordered = tuple(sorted(component))
            head = ordered[0]
            for entity_id in ordered:
                canonical[entity_id] = head
            members[head] = ordered
        return canonical, members

    # -------------------------------------------------------------- queries
    def _require(self, entity_id: str) -> None:
        if entity_id not in self.entity_ids:
            raise UnknownEntityError(entity_id)

    def resolve(self, entity_id: str) -> str:
        """The canonical representative of ``entity_id``'s cluster."""
        self._require(entity_id)
        return self._canonical.get(entity_id, entity_id)

    def cluster(self, entity_id: str) -> Tuple[str, ...]:
        """All members of ``entity_id``'s cluster, sorted (singleton when
        the entity matched nothing)."""
        self._require(entity_id)
        head = self._canonical.get(entity_id)
        if head is None:
            return (entity_id,)
        return self._members[head]

    def same(self, first: str, second: str) -> bool:
        """Whether two entities resolve to the same canonical entity."""
        self._require(first)
        self._require(second)
        if first == second:
            return True
        head_a = self._canonical.get(first)
        head_b = self._canonical.get(second)
        return head_a is not None and head_a == head_b

    def cluster_count(self) -> int:
        """Non-singleton clusters in this epoch."""
        return len(self._members)

    def __contains__(self, entity_id: str) -> bool:
        return entity_id in self.entity_ids

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Epoch(id={self.epoch_id}, matches={len(self.matches)}, "
                f"entities={len(self.entity_ids)})")
