"""Evidence facts: what a rule set is grounded against.

The facts of a store are, per similarity edge ``(a, b)`` of level ``s``,
``similar(a, b, s)`` and ``similar(b, a, s)`` (rules treat the predicate as
symmetric by grounding both orders) plus the level-free ``similar(a, b)``
and ``similar(b, a)`` of the Section-2 rules; and, per tuple of the coauthor
relation (and any extra relations), a fact under the relation's name, both
orders for a binary one.  Everything not listed is false (closed world).
The *candidate pairs* — the entity pairs for which an ``equals`` ground atom
exists at all — are the similarity edges.  Restricting the query atoms to
candidate pairs is what keeps the ground network small (the paper's "1.3M
matching decisions" are exactly the candidate pairs produced by the cover)
and mirrors how practical MLN matchers are deployed.
"""

from __future__ import annotations

from functools import partial
from typing import (AbstractSet, Callable, Collection, Dict, Iterable, List, Mapping,
                    Sequence, Tuple, Union)

from ..datamodel import EntityPair
from ..datamodel.relation import SIMILAR

GroundValue = Union[str, int]
GroundTuple = Tuple[GroundValue, ...]


class _Filled(dict):
    """A dict filling a missing key by ``fill(key)``."""

    __slots__ = ("_fill",)

    def __init__(self, fill: Callable):
        self._fill = fill

    def __missing__(self, key):
        value = self[key] = self._fill(key)
        return value


def _bucket(store, relations: Tuple[str, ...], partners: Mapping[str, Mapping[str, EntityPair]],
            entity_id: str) -> Dict[Tuple[str, int], Tuple[GroundTuple, ...]]:
    # Tuples, not sets: a bucket holds a handful of facts, and a tuple takes
    # a fraction of a set's memory.
    buckets: Dict[Tuple[str, int], Tuple[GroundTuple, ...]] = {}
    if partners[entity_id]:
        first: List[GroundTuple] = []
        second: List[GroundTuple] = []
        for other, pair in partners[entity_id].items():
            level = store.similarity_level(pair)
            first += ((entity_id, other, level), (entity_id, other))
            second += ((other, entity_id, level), (other, entity_id))
        buckets[SIMILAR, 0], buckets[SIMILAR, 1] = tuple(first), tuple(second)
    for name in relations:
        relation = store.relation(name)
        tuples = relation.tuples_of(entity_id)
        if tuples and relation.arity == 2:
            # Both orders of every tuple: (entity, other) and (other, entity).
            others = {b if a == entity_id else a for a, b in tuples}
            buckets[name, 0] = tuple([(entity_id, other) for other in others])
            buckets[name, 1] = tuple([(other, entity_id) for other in others])
        elif tuples:
            for position in range(relation.arity):
                held = tuple([tup for tup in tuples if tup[position] == entity_id])
                if held:
                    buckets[name, position] = held
    return buckets


class StoreFacts:
    """The evidence facts and candidate pairs of a store, read off it lazily.

    Nothing is materialised up front: an entity's candidate pairs are read
    (``similar_pairs_of``) the first time ``partners`` is asked for them, and
    its facts bucketed by (predicate, position) the first time ``buckets``
    is — so grounding a few neighborhoods of a large base reads only the
    entities their bindings reach.  A predicate's whole fact set is built,
    from every entity's bucket, only for an atom none of whose bound values
    is an entity id.  The store must not change while the facts are read (a
    changed store gets new ``StoreFacts``); the containers handed out are
    shared, not copies.  The fills hold the store, not this object: no cycle.
    """

    def __init__(self, store, relation_names: Sequence[str]):
        self._store = store
        relations = tuple(name for name in relation_names if store.has_relation(name))
        #: entity -> other end -> candidate pair.
        self.partners: Mapping[str, Mapping[str, EntityPair]] = _Filled(
            lambda entity_id: {pair.second if pair.first == entity_id else pair.first: pair
                               for pair in store.similar_pairs_of(entity_id)})
        #: entity -> (predicate, position) -> the facts holding it there.
        self.buckets: Mapping[str, Mapping[Tuple[str, int], Collection[GroundTuple]]] = \
            _Filled(partial(_bucket, store, relations, self.partners))
        self._whole: Dict[str, AbstractSet[GroundTuple]] = {}

    def candidates(self) -> Iterable[EntityPair]:
        return [edge.pair for edge in self._store.similarity_edges()]

    def fact_set(self, predicate: str) -> AbstractSet[GroundTuple]:
        """Every fact of ``predicate`` (all arities): each one holds an entity
        at position 0, so it is the union of those buckets."""
        facts = self._whole.get(predicate)
        if facts is None:
            buckets, key = self.buckets, (predicate, 0)
            facts = self._whole[predicate] = frozenset(
                fact for entity_id in self._store.entity_ids()
                for fact in buckets[entity_id].get(key, ()))
        return facts
