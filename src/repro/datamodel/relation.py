"""Relations over entities.

The paper's data model has, besides the entity attributes, a set of relations
``R = {Authored, Cites, Coauthor, Similar, ...}``.  A :class:`Relation` here
is a named set of tuples of entity ids (binary relations are the common case
but any arity ≥ 1 is supported).  Relations know how to compute the *induced*
sub-relation ``R(C)`` for a subset of entities ``C``, which is the operation
the total-cover definition (Definition 7) and boundary expansion are built on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple


#: Conventional relation names used by the bibliographic data model.
AUTHORED = "authored"
CITES = "cites"
COAUTHOR = "coauthor"
SIMILAR = "similar"


RelationTuple = Tuple[str, ...]


@dataclass
class Relation:
    """A named relation: a set of tuples of entity ids.

    Parameters
    ----------
    name:
        Relation name, e.g. ``"coauthor"``.
    arity:
        Number of entity positions in each tuple (≥ 1).
    symmetric:
        When true (e.g. ``Coauthor``), tuples are stored in canonical sorted
        order so ``(a, b)`` and ``(b, a)`` are the same tuple.  Only
        meaningful for binary relations.
    """

    name: str
    arity: int = 2
    symmetric: bool = False
    _tuples: Set[RelationTuple] = field(default_factory=set, repr=False)
    _index: Dict[str, Set[RelationTuple]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValueError("relation arity must be >= 1")
        if self.symmetric and self.arity != 2:
            raise ValueError("symmetric relations must be binary")

    # ------------------------------------------------------------------ basic
    def _canonical(self, tup: Sequence[str]) -> RelationTuple:
        if len(tup) != self.arity:
            raise ValueError(
                f"relation {self.name!r} has arity {self.arity}, got tuple of length {len(tup)}"
            )
        canonical = tuple(tup)
        if self.symmetric and canonical[0] > canonical[1]:
            canonical = (canonical[1], canonical[0])
        return canonical

    def add(self, *entity_ids: str) -> None:
        """Add a tuple to the relation (idempotent)."""
        self.add_canonical(self._canonical(entity_ids))

    def add_canonical(self, tup: RelationTuple) -> None:
        """:meth:`add` for a tuple already in this relation's canonical form
        (one read from a relation with the same signature)."""
        if tup in self._tuples:
            return
        self._tuples.add(tup)
        for entity_id in set(tup):
            self._index.setdefault(entity_id, set()).add(tup)

    def discard(self, *entity_ids: str) -> None:
        """Remove a tuple if present."""
        tup = self._canonical(entity_ids)
        if tup not in self._tuples:
            return
        self._tuples.discard(tup)
        for entity_id in set(tup):
            bucket = self._index.get(entity_id)
            if bucket is not None:
                bucket.discard(tup)
                if not bucket:
                    del self._index[entity_id]

    def __contains__(self, tup: Sequence[str]) -> bool:
        return self._canonical(tup) in self._tuples

    def contains(self, *entity_ids: str) -> bool:
        """Membership test with ids as positional arguments."""
        return self._canonical(entity_ids) in self._tuples

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[RelationTuple]:
        return iter(self._tuples)

    def tuples(self) -> FrozenSet[RelationTuple]:
        """All tuples as a frozenset."""
        return frozenset(self._tuples)

    # -------------------------------------------------------------- traversal
    def tuples_of(self, entity_id: str) -> FrozenSet[RelationTuple]:
        """Tuples in which ``entity_id`` participates."""
        return frozenset(self._index.get(entity_id, frozenset()))

    def neighbors(self, entity_id: str) -> Set[str]:
        """Entity ids co-occurring with ``entity_id`` in some tuple."""
        out: Set[str] = set()
        for tup in self._index.get(entity_id, ()):  # type: ignore[arg-type]
            out.update(tup)
        out.discard(entity_id)
        return out

    def participants(self) -> Set[str]:
        """All entity ids occurring in the relation."""
        return set(self._index)

    def tuples_touching(self, entity_ids: Iterable[str]) -> Iterator[RelationTuple]:
        """Tuples with at least one member in ``entity_ids``.

        Walks whichever side is smaller: the members' per-entity tuple index
        when the set is small, or the relation's tuples in one pass when the
        set is larger than the relation.  Tuples shared by several members
        may be yielded more than once on the index path — callers
        accumulating into a set are unaffected.
        """
        members = entity_ids if isinstance(entity_ids, (set, frozenset)) \
            else set(entity_ids)
        if len(members) <= len(self._tuples):
            for entity_id in members:
                yield from self._index.get(entity_id, ())
        else:
            for tup in self._tuples:
                if not members.isdisjoint(tup):
                    yield tup

    # --------------------------------------------------------------- algebra
    def induced(self, entity_ids: Iterable[str]) -> "Relation":
        """``R(C)``: the sub-relation whose tuples lie entirely inside ``entity_ids``."""
        allowed = set(entity_ids)
        induced = Relation(self.name, self.arity, self.symmetric)
        # Only tuples touching the allowed set are looked at: neighborhoods
        # are small, relations can be large.
        for tup in self.tuples_touching(allowed):
            if allowed.issuperset(tup):
                induced.add_canonical(tup)
        return induced

    def union(self, other: "Relation") -> "Relation":
        """Union of two relations with the same signature."""
        self._check_signature(other)
        merged = self.copy()
        for tup in other._tuples:
            merged.add_canonical(tup)
        return merged

    def copy(self) -> "Relation":
        clone = Relation(self.name, self.arity, self.symmetric)
        for tup in self._tuples:
            clone.add_canonical(tup)
        return clone

    def _check_signature(self, other: "Relation") -> None:
        if (self.name, self.arity, self.symmetric) != (other.name, other.arity, other.symmetric):
            raise ValueError(
                f"relation signature mismatch: {self.name}/{self.arity} vs {other.name}/{other.arity}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            self.name == other.name
            and self.arity == other.arity
            and self.symmetric == other.symmetric
            and self._tuples == other._tuples
        )


class RelationReads:
    """The relation read interface that follows from ``tuples_of``,
    iteration and ``in``: mixed into the relation-likes besides
    :class:`Relation` (compact relations, overlaid relations, induced
    windows), which answer those three their own way."""

    __slots__ = ()

    def contains(self, *entity_ids: str) -> bool:
        return entity_ids in self

    def tuples(self) -> FrozenSet[RelationTuple]:
        return frozenset(self)

    def neighbors(self, entity_id: str) -> Set[str]:
        out: Set[str] = set()
        for tup in self.tuples_of(entity_id):
            out.update(tup)
        out.discard(entity_id)
        return out

    def participants(self) -> Set[str]:
        return {entity_id for tup in self for entity_id in tup}

    def tuples_touching(self, entity_ids: Iterable[str]) -> Iterator[RelationTuple]:
        """Tuples with at least one member in ``entity_ids`` (may repeat)."""
        members = entity_ids if isinstance(entity_ids, (set, frozenset)) \
            else set(entity_ids)
        for entity_id in members:
            yield from self.tuples_of(entity_id)

    def copy(self) -> Relation:
        """A plain mutable :class:`Relation` with the same tuples."""
        clone = Relation(self.name, self.arity, self.symmetric)
        for tup in self:
            clone.add_canonical(tup)
        return clone

    def __eq__(self, other: object) -> bool:
        if not hasattr(other, "tuples"):
            return NotImplemented
        return (self.name, self.arity, self.symmetric, self.tuples()) == \
            (other.name, other.arity, other.symmetric, other.tuples())


def coauthor_from_authored(authored: Relation, name: str = COAUTHOR) -> Relation:
    """Derive the symmetric ``Coauthor`` relation by self-joining ``Authored``.

    ``Authored(a, p)`` tuples are joined on the paper id ``p``; every pair of
    distinct authors of the same paper becomes a ``Coauthor`` tuple.  This
    mirrors the paper's remark that Coauthor "can easily be derived through a
    self-join on Authored".
    """
    if authored.arity != 2:
        raise ValueError("authored relation must be binary (author, paper)")
    papers_to_authors: Dict[str, List[str]] = {}
    for author_id, paper_id in authored:
        papers_to_authors.setdefault(paper_id, []).append(author_id)
    coauthor = Relation(name, arity=2, symmetric=True)
    for authors in papers_to_authors.values():
        unique_authors = sorted(set(authors))
        for i, a1 in enumerate(unique_authors):
            for a2 in unique_authors[i + 1:]:
                coauthor.add(a1, a2)
    return coauthor
