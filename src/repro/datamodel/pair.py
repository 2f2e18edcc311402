"""Canonical entity pairs.

Match decisions in the paper are over unordered pairs of entities.  To make
sets of matches well-behaved Python sets, a pair is always stored in canonical
order (smaller entity id first).  The framework, the matchers, the message
passing algorithms and the evaluation code all exchange ``EntityPair`` values,
never raw tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Iterator, Set, Tuple, Union

from ..exceptions import InvalidPairError
from .entity import Entity


PairLike = Union["EntityPair", Tuple[str, str]]


@dataclass(frozen=True, order=True)
class EntityPair:
    """An unordered pair of entity ids stored in canonical (sorted) order.

    The hash is computed once, at construction: pairs are hashed far more
    often than they are built (every set and dict of matches, candidates and
    groundings).  String hashes differ between processes, so the hash is not
    pickled: unpickling recomputes it.
    """

    __slots__ = ("first", "second", "_hash")

    first: str
    second: str

    def __post_init__(self) -> None:
        if self.first == self.second:
            raise InvalidPairError(
                f"an EntityPair must reference two distinct entities, got {self.first!r} twice"
            )
        if self.first > self.second:
            # Canonicalise: the dataclass is frozen so use object.__setattr__.
            first, second = self.second, self.first
            object.__setattr__(self, "first", first)
            object.__setattr__(self, "second", second)
        object.__setattr__(self, "_hash", hash((self.first, self.second)))

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> Tuple[str, str]:
        return self.first, self.second

    def __setstate__(self, state) -> None:
        # A tuple, or the ``{'first', 'second'}`` dict of the pickles
        # written before the hash was cached.
        first, second = (state["first"], state["second"]) \
            if isinstance(state, dict) else state
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)
        object.__setattr__(self, "_hash", hash((first, second)))

    @classmethod
    def of(cls, a: Union[str, Entity], b: Union[str, Entity]) -> "EntityPair":
        """Build a pair from two ids or two :class:`Entity` objects."""
        first = a.entity_id if isinstance(a, Entity) else a
        second = b.entity_id if isinstance(b, Entity) else b
        return cls(first, second)

    @classmethod
    def coerce(cls, value: PairLike) -> "EntityPair":
        """Coerce an ``EntityPair`` or ``(id, id)`` tuple into an ``EntityPair``."""
        if isinstance(value, EntityPair):
            return value
        first, second = value
        return cls.of(first, second)

    def __iter__(self) -> Iterator[str]:
        yield self.first
        yield self.second

    def other(self, entity_id: str) -> str:
        """Return the member of the pair that is not ``entity_id``."""
        if entity_id == self.first:
            return self.second
        if entity_id == self.second:
            return self.first
        raise KeyError(f"{entity_id!r} is not part of {self!r}")

    def involves(self, entity_id: str) -> bool:
        """Whether ``entity_id`` is one of the two members."""
        return entity_id == self.first or entity_id == self.second

    def as_tuple(self) -> Tuple[str, str]:
        return (self.first, self.second)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.first}~{self.second})"


def pairs_from(values: Iterable[PairLike]) -> FrozenSet[EntityPair]:
    """Coerce an iterable of pair-likes into a frozenset of canonical pairs."""
    return frozenset(EntityPair.coerce(value) for value in values)


def all_pairs(entity_ids: Iterable[str]) -> Set[EntityPair]:
    """All unordered pairs over ``entity_ids`` (quadratic; used on neighborhoods)."""
    ids = sorted(set(entity_ids))
    result: Set[EntityPair] = set()
    for i, first in enumerate(ids):
        for second in ids[i + 1:]:
            result.add(EntityPair(first, second))
    return result


def pairs_involving(pairs: Iterable[EntityPair], entity_ids: Iterable[str]) -> Set[EntityPair]:
    """Subset of ``pairs`` touching at least one id in ``entity_ids``."""
    wanted = set(entity_ids)
    return {pair for pair in pairs if pair.first in wanted or pair.second in wanted}
