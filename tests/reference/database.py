"""Reference evidence database: every fact of a store, materialised up front.

The eager database the MLN grounded against before facts were read off the
store lazily (:class:`repro.mln.database.StoreFacts`), kept here, out of
``src/``, as the input of the nested-loop oracle in
``tests/reference/grounding.py``.

The database holds, per evidence predicate, the set of ground tuples that are
true (closed-world: everything not listed is false), plus the set of
*candidate query pairs* — the entity pairs for which an ``equals`` ground atom
exists at all.  Restricting the query atoms to candidate pairs is what keeps
the ground network small (the paper's "1.3M matching decisions" are exactly
the candidate pairs produced by the cover) and mirrors how practical MLN
matchers are deployed.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import AbstractSet, Dict, FrozenSet, List, Mapping, Sequence, Set, Tuple, Union

from repro.datamodel import COAUTHOR, EntityPair, EntityStore

GroundValue = Union[str, int]
GroundTuple = Tuple[GroundValue, ...]

_NO_FACTS: FrozenSet[GroundTuple] = frozenset()
_NO_INDEX: Mapping = MappingProxyType({})


class EvidenceDatabase:
    """Ground evidence facts plus the candidate ``equals`` pairs."""

    def __init__(self) -> None:
        self._facts: Dict[str, Set[GroundTuple]] = {}
        # Per-predicate, per-position index: position -> value -> tuples,
        # built on the first ``index_for`` of that position.
        self._index: Dict[str, Dict[int, Dict[GroundValue, Set[GroundTuple]]]] = {}
        self._candidates: Set[EntityPair] = set()

    # ----------------------------------------------------------------- facts
    def add_fact(self, predicate: str, *values: GroundValue) -> None:
        """Assert a ground evidence fact."""
        tup = tuple(values)
        facts = self._facts.setdefault(predicate, set())
        if tup in facts:
            return
        facts.add(tup)
        for position, index in self._index.get(predicate, {}).items():
            if position < len(tup):
                index.setdefault(tup[position], set()).add(tup)

    def facts(self, predicate: str) -> FrozenSet[GroundTuple]:
        return frozenset(self._facts.get(predicate, frozenset()))

    def holds(self, predicate: str, *values: GroundValue) -> bool:
        return tuple(values) in self._facts.get(predicate, set())

    def predicates(self) -> List[str]:
        return sorted(self._facts)

    # Read-only views for the oracle's joins: the returned containers
    # are the stored ones, never copies — callers must not mutate them.
    def fact_set(self, predicate: str) -> AbstractSet[GroundTuple]:
        """Every tuple of ``predicate`` (all arities), shared."""
        return self._facts.get(predicate, _NO_FACTS)

    def index_for(self, predicate: str,
                  position: int) -> Mapping[GroundValue, AbstractSet[GroundTuple]]:
        """value → tuples of ``predicate`` holding it at ``position``, shared
        (built on first request, then kept current by :meth:`add_fact`)."""
        facts = self._facts.get(predicate)
        if not facts:
            return _NO_INDEX
        indexes = self._index.setdefault(predicate, {})
        index = indexes.get(position)
        if index is None:
            index = indexes[position] = {}
            for tup in facts:
                if position < len(tup):
                    index.setdefault(tup[position], set()).add(tup)
        return index

    def lookup(self, predicate: str,
               bound: Dict[int, GroundValue]) -> AbstractSet[GroundTuple]:
        """Tuples of ``predicate`` matching the partially-bound positions.

        ``bound`` maps argument position → required value.  With zero or one
        bound position the stored set is handed back as is (read-only by
        contract); with more the per-position buckets are intersected
        smallest first.
        """
        if not bound:
            return self.fact_set(predicate)
        buckets = sorted(
            (self.index_for(predicate, position).get(value, _NO_FACTS)
             for position, value in bound.items()),
            key=len)
        if len(buckets) == 1 or not buckets[0]:
            return buckets[0]
        return frozenset(buckets[0].intersection(*buckets[1:]))

    # ------------------------------------------------------------ candidates
    def add_candidate(self, pair: EntityPair) -> None:
        """Register an entity pair as a possible match decision."""
        if pair in self._candidates:
            return
        self._candidates.add(pair)

    def candidates(self) -> FrozenSet[EntityPair]:
        return frozenset(self._candidates)

    def is_candidate(self, pair: EntityPair) -> bool:
        return pair in self._candidates

    # ----------------------------------------------------------------- stats
    def stats(self) -> Dict[str, int]:
        return {
            "predicates": len(self._facts),
            "facts": sum(len(f) for f in self._facts.values()),
            "candidate_pairs": len(self._candidates),
        }


def database_from_store(store: EntityStore,
                        coauthor_relation: str = COAUTHOR,
                        extra_relations: Sequence[str] = (),
                        include_levelless_similar: bool = True) -> EvidenceDatabase:
    """Build an :class:`EvidenceDatabase` from an :class:`EntityStore`.

    * Every similarity edge of the store with level ``s`` produces the facts
      ``similar(a, b, s)`` and ``similar(b, a, s)`` (rules treat the predicate
      as symmetric by grounding both orders), plus, when
      ``include_levelless_similar`` is set, a level-free ``similar(a, b)``
      fact used by the Section-2 example rules.
    * The coauthor relation (and any ``extra_relations``) produce symmetric
      binary facts under their relation name.
    * Every similarity edge also registers its pair as a candidate match.
    """
    db = EvidenceDatabase()
    for edge in store.similarity_edges():
        a, b = edge.pair.first, edge.pair.second
        db.add_fact("similar", a, b, edge.level)
        db.add_fact("similar", b, a, edge.level)
        if include_levelless_similar:
            db.add_fact("similar", a, b)
            db.add_fact("similar", b, a)
        db.add_candidate(edge.pair)

    relation_names = [coauthor_relation, *extra_relations]
    for name in relation_names:
        if not store.has_relation(name):
            continue
        relation = store.relation(name)
        for tup in relation:
            db.add_fact(name, *tup)
            if relation.arity == 2:
                db.add_fact(name, tup[1], tup[0])
    return db
