"""Compact columnar snapshots: interned ids, flat arrays, lazy views.

The dict-based :class:`~repro.datamodel.store.EntityStore` is the reference
container, but its ``restrict()`` deep-materialises an induced store (entities,
relations, similarity edges) for every neighborhood in every round, and the
grid executor pickles each of those restricted stores to worker processes.
This module provides the compact snapshot every batch run reads
(:class:`~repro.core.EMFramework` takes one per instance):

* :class:`EntityInterner` — a bijection between entity-id strings and dense
  integer indices; every other structure here speaks integers internally and
  decodes at the edge.
* :class:`CompactRelation` — a relation stored as one flat, sorted array of
  int-encoded tuples plus a CSR adjacency (entity index → indices of the
  tuples touching it).  It implements the read API of
  :class:`~repro.datamodel.relation.Relation` and adds integer-space
  traversals used by boundary expansion and view materialisation.
* :class:`CompactStore` — an immutable snapshot of a whole EM instance:
  entity list, interner, compact relations, and the similarity edges as
  parallel flat arrays (pairs / scores / levels) with their own CSR adjacency.
  ``restrict()`` is O(subset): it returns a :class:`StoreView`, never copies.
* :class:`StoreView` — a lazy window over an id-subset of a snapshot.  It
  implements the :class:`EntityStore` *read* interface; every read resolves
  through the snapshot's shared arrays, and its relations are
  :class:`InducedRelation` windows that filter the snapshot's CSR adjacency
  by membership instead of copying ``R(C)``.

Snapshots carry a process-unique ``snapshot_token`` so the parallel layer can
broadcast one pickled copy per worker and ship only integer neighborhood
member lists per task (see :mod:`repro.parallel.shared`).

Parity with the dict store — identical entities, induced relations,
similarity edges and final match sets — is asserted by
``tests/test_compact_store.py``.
"""

from __future__ import annotations

import uuid
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..exceptions import UnknownEntityError, UnknownRelationError
from .entity import Entity
from .pair import EntityPair
from .relation import Relation, RelationReads, RelationTuple
from .store import SimilarityEdge, StoreReads

#: An int-encoded relation tuple.
IndexTuple = Tuple[int, ...]
#: An int-encoded similarity pair in canonical ``(min_index, max_index)`` order.
IndexPair = Tuple[int, int]


def _csr_adjacency(size: int, rows: Sequence[Iterable[int]]
                   ) -> Tuple[List[int], List[int]]:
    """CSR adjacency: entity index -> indices of the ``rows`` it occurs in."""
    counts = [0] * size
    for row in rows:
        for entity_index in row:
            counts[entity_index] += 1
    indptr = [0] * (size + 1)
    for index, count in enumerate(counts):
        indptr[index + 1] = indptr[index] + count
    adj = [0] * indptr[-1]
    cursor = indptr[:-1]
    for row_index, row in enumerate(rows):
        for entity_index in row:
            adj[cursor[entity_index]] = row_index
            cursor[entity_index] += 1
    return indptr, adj


class EntityInterner:
    """Bijection between entity-id strings and dense integer indices."""

    __slots__ = ("_ids", "_index")

    def __init__(self, ids: Iterable[str]):
        self._ids: List[str] = list(ids)
        self._index: Dict[str, int] = {
            entity_id: index for index, entity_id in enumerate(self._ids)}
        if len(self._index) != len(self._ids):
            raise ValueError("duplicate entity ids cannot be interned")

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, entity_id: str) -> bool:
        return entity_id in self._index

    def find(self, entity_id: str) -> Optional[int]:
        """The id's index, or ``None`` when it is not interned."""
        return self._index.get(entity_id)

    def index_of(self, entity_id: str) -> int:
        try:
            return self._index[entity_id]
        except KeyError:
            raise UnknownEntityError(entity_id) from None

    def id_of(self, index: int) -> str:
        return self._ids[index]

    def indices_of(self, entity_ids: Iterable[str]) -> List[int]:
        index = self._index
        try:
            return [index[entity_id] for entity_id in entity_ids]
        except KeyError as missing:
            raise UnknownEntityError(missing.args[0]) from None

    def ids_of(self, indices: Iterable[int]) -> List[str]:
        ids = self._ids
        return [ids[index] for index in indices]

    def ids(self) -> List[str]:
        """All interned ids in index order (do not mutate)."""
        return self._ids


class CompactRelation(RelationReads):
    """A relation as flat int-encoded tuples with CSR adjacency.

    Implements the read interface of
    :class:`~repro.datamodel.relation.Relation` (decoding to strings at the
    edge, each tuple once per snapshot) plus integer-space traversals.
    Immutable: built once from a relation's tuples against a fixed
    :class:`EntityInterner`.  Reads go through three hooks —
    :meth:`_index_of`, :meth:`tuple_indices_of` and :meth:`_visible` — which
    :class:`InducedRelation` narrows to a member set.
    """

    __slots__ = ("name", "arity", "symmetric", "interner",
                 "_tuples", "_tuple_set", "_indptr", "_adj", "_decoded")

    def __init__(self, name: str, arity: int, symmetric: bool,
                 interner: EntityInterner,
                 tuples: Iterable[Sequence[str]]):
        if arity < 1:
            raise ValueError("relation arity must be >= 1")
        if symmetric and arity != 2:
            raise ValueError("symmetric relations must be binary")
        self.name = name
        self.arity = arity
        self.symmetric = symmetric
        self.interner = interner
        encoded: Set[IndexTuple] = set()
        for tup in tuples:
            encoded.add(self._encode(tup))
        self._tuples: List[IndexTuple] = sorted(encoded)
        self._tuple_set: Set[IndexTuple] = encoded
        self._indptr, self._adj = _csr_adjacency(
            len(interner), [set(tup) for tup in self._tuples])
        self._decoded: Optional[List[RelationTuple]] = None

    # ------------------------------------------------------------- encoding
    def _encode(self, tup: Sequence[str]) -> IndexTuple:
        if len(tup) != self.arity:
            raise ValueError(
                f"relation {self.name!r} has arity {self.arity}, "
                f"got tuple of length {len(tup)}")
        encoded = tuple(self.interner.index_of(entity_id) for entity_id in tup)
        if self.symmetric:
            # Canonical order must match Relation's *string* canonicalisation;
            # index order follows insertion, not lexicographic id order.
            if tup[0] > tup[1]:
                encoded = (encoded[1], encoded[0])
        return encoded

    def decoded(self) -> List[RelationTuple]:
        """Every tuple as entity ids, parallel to the flat array (built once
        per snapshot, in Relation's canonical order; do not mutate)."""
        if self._decoded is None:
            ids = self.interner.ids()
            self._decoded = [tuple([ids[index] for index in tup])
                             for tup in self._tuples]
        return self._decoded

    # ---------------------------------------------------------- visibility
    def _index_of(self, entity_id: str) -> Optional[int]:
        """The entity's index, or ``None`` when no visible tuple can hold it."""
        return self.interner.find(entity_id)

    def _visible(self) -> Sequence[int]:
        """Indices of the tuples this relation shows, ascending."""
        return range(len(self._tuples))

    # ---------------------------------------------------------- Relation API
    def __len__(self) -> int:
        return len(self._visible())

    def __iter__(self) -> Iterator[RelationTuple]:
        decoded = self.decoded()
        return (decoded[tuple_index] for tuple_index in self._visible())

    def __contains__(self, tup: Sequence[str]) -> bool:
        return self.contains(*tup)

    def contains(self, *entity_ids: str) -> bool:
        if any(self._index_of(entity_id) is None for entity_id in entity_ids):
            return False
        return self._encode(entity_ids) in self._tuple_set

    def tuples_of(self, entity_id: str) -> FrozenSet[RelationTuple]:
        entity_index = self._index_of(entity_id)
        if entity_index is None:
            return frozenset()
        decoded = self.decoded()
        return frozenset(decoded[tuple_index]
                         for tuple_index in self.tuple_indices_of(entity_index))

    def neighbors(self, entity_id: str) -> Set[str]:
        entity_index = self._index_of(entity_id)
        if entity_index is None:
            return set()
        out: Set[int] = set()
        tuples = self._tuples
        for tuple_index in self.tuple_indices_of(entity_index):
            out.update(tuples[tuple_index])
        out.discard(entity_index)
        return set(self.interner.ids_of(out))

    def participants(self) -> Set[str]:
        tuples = self._tuples
        return set(self.interner.ids_of(
            {entity_index for tuple_index in self._visible()
             for entity_index in tuples[tuple_index]}))

    def tuples_touching(self, entity_ids: Iterable[str]) -> Iterator[RelationTuple]:
        """Tuples with at least one member in ``entity_ids`` (may yield dups)."""
        decoded = self.decoded()
        for entity_index in {self._index_of(entity_id) for entity_id in entity_ids}:
            if entity_index is not None:
                for tuple_index in self.tuple_indices_of(entity_index):
                    yield decoded[tuple_index]

    def induced(self, entity_ids: Iterable[str]) -> Relation:
        """``R(C)`` as a plain (dict-backed) :class:`Relation`."""
        members = {entity_index for entity_index in map(self._index_of, entity_ids)
                   if entity_index is not None}
        induced = Relation(self.name, self.arity, self.symmetric)
        decoded = self.decoded()
        for tuple_index in self.induced_tuple_indices(members):
            induced.add_canonical(decoded[tuple_index])
        return induced

    def __hash__(self) -> int:  # pragma: no cover - relations rarely hashed
        return hash((self.name, self.arity, self.symmetric))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{type(self).__name__}({self.name!r}, arity={self.arity}, "
                f"tuples={len(self)})")

    # ---------------------------------------------------------- integer API
    def tuple_indices_of(self, entity_index: int) -> Sequence[int]:
        """Indices (into the flat tuple array) of tuples touching the entity."""
        return self._adj[self._indptr[entity_index]:self._indptr[entity_index + 1]]

    def member_indices_touching(self, frontier: Set[int]) -> Set[int]:
        """All entity indices of tuples touching ``frontier`` (frontier included).

        This is the integer-space core of boundary expansion: one CSR walk
        over the frontier's adjacency (linear in the tuples it touches), no
        string re-keying.
        """
        out: Set[int] = set()
        tuples = self._tuples
        for entity_index in frontier:
            for tuple_index in self.tuple_indices_of(entity_index):
                out.update(tuples[tuple_index])
        return out

    def induced_tuple_indices(self, members: AbstractSet[int]) -> List[int]:
        """Sorted indices of visible tuples lying entirely inside ``members``."""
        tuples = self._tuples
        candidates: Set[int] = set()
        for entity_index in members:
            candidates.update(self.tuple_indices_of(entity_index))
        return sorted(tuple_index for tuple_index in candidates
                      if members.issuperset(tuples[tuple_index]))


class InducedRelation(CompactRelation):
    """``R(C)`` without materialising it: a :class:`CompactRelation` seen
    through a view's member set.

    Shares the snapshot relation's arrays and decoded tuples; reads filter
    them by membership as they go, so a caller pays only for the entities
    it asks about.  The full tuple list is worked out on first need.
    """

    __slots__ = ("base", "members", "_shown")

    def __init__(self, base: CompactRelation, members: FrozenSet[int]):
        self.base, self.members, self._shown = base, members, None
        self.name, self.arity, self.symmetric = base.name, base.arity, base.symmetric
        self.interner, self._tuples, self._tuple_set = \
            base.interner, base._tuples, base._tuple_set

    def decoded(self) -> List[RelationTuple]:
        return self.base.decoded()

    def _index_of(self, entity_id: str) -> Optional[int]:
        entity_index = self.interner.find(entity_id)
        return entity_index if entity_index in self.members else None

    def _visible(self) -> Sequence[int]:
        if self._shown is None:
            self._shown = self.base.induced_tuple_indices(self.members)
        return self._shown

    def tuple_indices_of(self, entity_index: int) -> Sequence[int]:
        members, tuples = self.members, self._tuples
        return [tuple_index for tuple_index in self.base.tuple_indices_of(entity_index)
                if members.issuperset(tuples[tuple_index])]


class CompactStore(StoreReads):
    """Immutable columnar snapshot of an EM instance.

    Exposes the read interface of :class:`EntityStore`; mutation methods
    raise.  Build one from a populated dict store via :meth:`from_store`, or
    directly from entities / relations / similarity edges.  ``restrict()``
    returns a zero-copy :class:`StoreView`.
    """

    #: Never changes: an immutable snapshot has one generation.
    generation = 0

    def __init__(self, entities: Iterable[Entity] = (),
                 relations: Iterable[Union[Relation, CompactRelation]] = (),
                 similarity_edges: Iterable = ()):
        self._entities: List[Entity] = list(entities)
        self.interner = EntityInterner(e.entity_id for e in self._entities)
        self._by_type: Dict[str, List[int]] = {}
        for index, entity in enumerate(self._entities):
            self._by_type.setdefault(entity.entity_type, []).append(index)
        self._relations: Dict[str, CompactRelation] = {}
        for relation in relations:
            self._relations[relation.name] = CompactRelation(
                relation.name, relation.arity, relation.symmetric,
                self.interner, sorted(relation.tuples()))
        # Similarity edges as parallel flat arrays, sorted by index pair.
        triples: List[Tuple[IndexPair, float, int]] = []
        for edge in similarity_edges:
            if isinstance(edge, SimilarityEdge):
                pair, score, level = edge.pair, edge.score, edge.level
            else:
                pair, score, level = edge
                pair = EntityPair.coerce(pair)
            first = self.interner.index_of(pair.first)
            second = self.interner.index_of(pair.second)
            key = (first, second) if first < second else (second, first)
            # Validate score/level through the edge dataclass once, at build.
            SimilarityEdge(pair, score, level)
            triples.append((key, score, level))
        triples.sort(key=lambda item: item[0])
        self._edge_pairs: List[IndexPair] = [key for key, _, _ in triples]
        self._edge_scores: List[float] = [score for _, score, _ in triples]
        self._edge_levels: List[int] = [level for _, _, level in triples]
        self._edge_index: Dict[IndexPair, int] = {
            key: index for index, key in enumerate(self._edge_pairs)}
        if len(self._edge_index) != len(self._edge_pairs):
            raise ValueError("duplicate similarity edges in snapshot input")
        self._edge_indptr, self._edge_adj = _csr_adjacency(
            len(self.interner), self._edge_pairs)
        #: Process-unique token used by the parallel layer to broadcast this
        #: snapshot once per worker (see :mod:`repro.parallel.shared`).
        self.snapshot_token = f"compact-{uuid.uuid4().hex}"
        self._entity_ids: Optional[FrozenSet[str]] = None
        self._similar_pairs: Optional[FrozenSet[EntityPair]] = None
        self._decoded_edges: Optional[List[SimilarityEdge]] = None

    @classmethod
    def from_store(cls, store) -> "CompactStore":
        """Snapshot any store-like object exposing the EntityStore read API."""
        return cls(store.entities(), store.relations(), store.similarity_edges())

    # --------------------------------------------------------------- entities
    def entity(self, entity_id: str) -> Entity:
        return self._entities[self.interner.index_of(entity_id)]

    def entity_at(self, index: int) -> Entity:
        return self._entities[index]

    def has_entity(self, entity_id: str) -> bool:
        return entity_id in self.interner

    def entity_ids(self) -> FrozenSet[str]:
        if self._entity_ids is None:
            self._entity_ids = frozenset(self.interner.ids())
        return self._entity_ids

    def entities(self) -> List[Entity]:
        return list(self._entities)

    def entities_of_type(self, entity_type: str) -> List[Entity]:
        return [self._entities[index]
                for index in self._by_type.get(entity_type, ())]

    def __len__(self) -> int:
        return len(self._entities)

    # -------------------------------------------------------------- relations
    def relation(self, name: str) -> CompactRelation:
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(name) from None

    def has_relation(self, name: str) -> bool:
        return name in self._relations

    def relation_names(self) -> List[str]:
        return sorted(self._relations)

    # ------------------------------------------------------------- similarity
    def _edge_key(self, pair: EntityPair) -> Optional[IndexPair]:
        first, second = self.interner.find(pair.first), self.interner.find(pair.second)
        if first is None or second is None:
            return None
        return (first, second) if first < second else (second, first)

    def decoded_edges(self) -> List[SimilarityEdge]:
        """Every similarity edge decoded, parallel to the flat arrays (built
        once per snapshot; do not mutate)."""
        if self._decoded_edges is None:
            ids = self.interner.ids()
            self._decoded_edges = [
                SimilarityEdge(EntityPair.of(ids[first], ids[second]), score, level)
                for (first, second), score, level in zip(
                    self._edge_pairs, self._edge_scores, self._edge_levels)]
        return self._decoded_edges

    def edge_at(self, edge_index: int) -> SimilarityEdge:
        return self.decoded_edges()[edge_index]

    def similarity(self, pair: EntityPair) -> Optional[SimilarityEdge]:
        key = self._edge_key(pair)
        if key is None:
            return None
        edge_index = self._edge_index.get(key)
        if edge_index is None:
            return None
        return self.edge_at(edge_index)

    def similarity_level(self, pair: EntityPair, default: int = 0) -> int:
        key = self._edge_key(pair)
        if key is None:
            return default
        edge_index = self._edge_index.get(key)
        return self._edge_levels[edge_index] if edge_index is not None else default

    def similar_pairs(self) -> FrozenSet[EntityPair]:
        if self._similar_pairs is None:
            self._similar_pairs = frozenset(
                edge.pair for edge in self.decoded_edges())
        return self._similar_pairs

    def similar_pairs_of(self, entity_id: str) -> FrozenSet[EntityPair]:
        entity_index = self.interner.find(entity_id)
        if entity_index is None:
            return frozenset()
        edges = self.decoded_edges()
        return frozenset(edges[edge_index].pair
                         for edge_index in self.edge_indices_of(entity_index))

    def similarity_edges(self) -> List[SimilarityEdge]:
        return list(self.decoded_edges())

    def edge_indices_of(self, entity_index: int) -> Sequence[int]:
        """Indices (into the flat edge arrays) of edges touching the entity."""
        return self._edge_adj[
            self._edge_indptr[entity_index]:self._edge_indptr[entity_index + 1]]

    def edge_pair_at(self, edge_index: int) -> IndexPair:
        return self._edge_pairs[edge_index]

    # ------------------------------------------------------------ restriction
    def restrict(self, entity_ids: Iterable[str]) -> "StoreView":
        """The sub-instance induced by ``entity_ids`` as a zero-copy view."""
        return StoreView(self, frozenset(self.interner.indices_of(entity_ids)))

    def restrict_indices(self, member_indices: Iterable[int]) -> "StoreView":
        """View over pre-validated integer member indices (worker fast path)."""
        return StoreView(self, frozenset(member_indices))

    def indices_for(self, entity_ids: Iterable[str]) -> Tuple[int, ...]:
        """Sorted integer indices of ``entity_ids`` (the task-payload encoding)."""
        return tuple(sorted(self.interner.indices_of(entity_ids)))

    # ------------------------------------------------------------- pair codec
    def encode_pairs(self, pairs: Iterable[EntityPair]) -> Tuple[IndexPair, ...]:
        """Pairs as sorted canonical index pairs (compact task payloads)."""
        index_of = self.interner.index_of
        encoded = []
        for pair in pairs:
            first, second = index_of(pair.first), index_of(pair.second)
            encoded.append((first, second) if first < second else (second, first))
        return tuple(sorted(encoded))

    def decode_pairs(self, encoded: Iterable[IndexPair]) -> List[EntityPair]:
        ids = self.interner.ids()
        return [EntityPair.of(ids[first], ids[second])
                for first, second in encoded]

    # ---------------------------------------------------------------- utility
    def copy(self) -> "CompactStore":
        return CompactStore.from_store(self)

    def stats(self) -> Dict[str, int]:
        return {
            "entities": len(self._entities),
            "relations": len(self._relations),
            "relation_tuples": sum(len(rel) for rel in self._relations.values()),
            "similar_pairs": len(self._edge_pairs),
        }

    # --------------------------------------------------------------- mutation
    def _immutable(self, operation: str):
        raise TypeError(
            f"CompactStore is an immutable snapshot and does not support "
            f"{operation}; build a dict EntityStore and re-snapshot it via "
            f"CompactStore.from_store")

    def add_entity(self, entity: Entity) -> None:
        self._immutable("add_entity")

    def add_entities(self, entities: Iterable[Entity]) -> None:
        self._immutable("add_entities")

    def add_relation(self, relation) -> None:
        self._immutable("add_relation")

    def add_similarity(self, pair: EntityPair, score: float, level: int) -> None:
        self._immutable("add_similarity")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stats = self.stats()
        return (f"CompactStore(entities={stats['entities']}, "
                f"relations={stats['relations']}, "
                f"similar_pairs={stats['similar_pairs']})")


class StoreView(StoreReads):
    """Lazy, zero-copy window over an id-subset of a :class:`CompactStore`.

    Construction is O(1) beyond holding the member set; every read resolves
    through the snapshot's shared arrays and its once-decoded tuples and
    edges.  Relations are zero-copy :class:`InducedRelation` windows, so a
    neighborhood pays only for the entities its matcher asks about.  Views
    are read-only; ``to_entity_store()`` materialises a mutable copy.
    """

    __slots__ = ("base", "_members", "_member_order", "_entity_ids",
                 "_similar_pairs", "_edge_indices", "__weakref__")

    def __init__(self, base: CompactStore, member_indices: FrozenSet[int]):
        self.base = base
        self._members: FrozenSet[int] = member_indices
        self._member_order: Optional[List[int]] = None
        self._entity_ids: Optional[FrozenSet[str]] = None
        self._similar_pairs: Optional[FrozenSet[EntityPair]] = None
        self._edge_indices: Optional[List[int]] = None

    # --------------------------------------------------------------- members
    @property
    def member_indices(self) -> FrozenSet[int]:
        return self._members

    def _ordered_members(self) -> List[int]:
        if self._member_order is None:
            self._member_order = sorted(self._members)
        return self._member_order

    def _index_of_member(self, entity_id: str) -> int:
        index = self.base.interner.index_of(entity_id)
        if index not in self._members:
            raise UnknownEntityError(entity_id)
        return index

    # -------------------------------------------------------------- entities
    def entity(self, entity_id: str) -> Entity:
        return self.base.entity_at(self._index_of_member(entity_id))

    def has_entity(self, entity_id: str) -> bool:
        return self.base.interner.find(entity_id) in self._members

    def entity_ids(self) -> FrozenSet[str]:
        if self._entity_ids is None:
            self._entity_ids = frozenset(
                self.base.interner.ids_of(self._members))
        return self._entity_ids

    def entities(self) -> List[Entity]:
        return [self.base.entity_at(index) for index in self._ordered_members()]

    def __len__(self) -> int:
        return len(self._members)

    # -------------------------------------------------------------- relations
    def relation(self, name: str) -> InducedRelation:
        return InducedRelation(self.base.relation(name), self._members)

    def has_relation(self, name: str) -> bool:
        return self.base.has_relation(name)

    def relation_names(self) -> List[str]:
        return self.base.relation_names()

    # ------------------------------------------------------------- similarity
    def _member_edge_indices(self) -> List[int]:
        if self._edge_indices is None:
            members = self._members
            base = self.base
            collected: Set[int] = set()
            for entity_index in members:
                for edge_index in base.edge_indices_of(entity_index):
                    first, second = base.edge_pair_at(edge_index)
                    if first in members and second in members:
                        collected.add(edge_index)
            self._edge_indices = sorted(collected)
        return self._edge_indices

    def similarity(self, pair: EntityPair) -> Optional[SimilarityEdge]:
        key = self.base._edge_key(pair)
        if key is None or key[0] not in self._members or key[1] not in self._members:
            return None
        return self.base.similarity(pair)

    def similar_pairs(self) -> FrozenSet[EntityPair]:
        if self._similar_pairs is None:
            self._similar_pairs = frozenset(
                edge.pair for edge in self.similarity_edges())
        return self._similar_pairs

    def similar_pairs_of(self, entity_id: str) -> FrozenSet[EntityPair]:
        if not self.has_entity(entity_id):
            return frozenset()
        base, members = self.base, self._members
        edges = base.decoded_edges()
        return frozenset(
            edges[edge_index].pair
            for edge_index in base.edge_indices_of(base.interner.index_of(entity_id))
            if members.issuperset(base.edge_pair_at(edge_index)))

    def similarity_edges(self) -> List[SimilarityEdge]:
        edges = self.base.decoded_edges()
        return [edges[edge_index] for edge_index in self._member_edge_indices()]

    # ------------------------------------------------------------ restriction
    def restriction(self) -> Tuple[CompactStore, FrozenSet[str]]:
        return self.base, self.entity_ids()

    def restrict(self, entity_ids: Iterable[str]) -> "StoreView":
        indices = []
        for entity_id in entity_ids:
            indices.append(self._index_of_member(entity_id))
        return StoreView(self.base, frozenset(indices))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"StoreView(entities={len(self._members)}, "
                f"base={self.base!r})")
