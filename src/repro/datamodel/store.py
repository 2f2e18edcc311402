"""Entity store: the full EM problem instance.

An :class:`EntityStore` bundles the entity collection ``E`` with the relation
set ``R`` and a similarity index (the ``Similar`` relation of the paper,
stored with its discretised score levels).  It is the single object handed to
matchers, cover builders and the message-passing framework.

The store supports cheap *restriction* to a subset of entities
(:meth:`EntityStore.restrict`), which is how a neighborhood is materialised
before being handed to the black-box matcher: the restricted store exposes the
induced relations ``R(C)`` and the induced similarity edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from ..exceptions import UnknownEntityError, UnknownRelationError
from .entity import Entity
from .pair import EntityPair
from .relation import COAUTHOR, Relation, coauthor_from_authored


@dataclass
class SimilarityEdge:
    """A scored similarity edge between two entities.

    ``score`` is the raw similarity in [0, 1]; ``level`` is the discretised
    level in {1, 2, 3} used by the paper's MLN and RULES programs (3 = most
    similar).
    """

    pair: EntityPair
    score: float
    level: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"similarity score must be in [0, 1], got {self.score}")
        if self.level not in (1, 2, 3):
            raise ValueError(f"similarity level must be 1, 2 or 3, got {self.level}")


class EntityStore:
    """Container for entities, relations and similarity evidence."""

    def __init__(self, entities: Iterable[Entity] = (),
                 relations: Iterable[Relation] = ()):
        self._entities: Dict[str, Entity] = {}
        self._relations: Dict[str, Relation] = {}
        self._similar: Dict[EntityPair, SimilarityEdge] = {}
        self._similar_index: Dict[str, Set[EntityPair]] = {}
        # (authored_name, coauthor_name) -> (authored tuples snapshot,
        # derived relation); invalidated on add_relation, and guarded by the
        # snapshot against in-place mutation of the source relation.
        self._derived_coauthor: Dict[Tuple[str, str],
                                     Tuple[FrozenSet, Relation]] = {}
        for entity in entities:
            self.add_entity(entity)
        for relation in relations:
            self.add_relation(relation)

    # --------------------------------------------------------------- entities
    def add_entity(self, entity: Entity) -> None:
        """Register an entity (idempotent for identical entities)."""
        existing = self._entities.get(entity.entity_id)
        if existing is not None and existing != entity:
            raise ValueError(f"conflicting entity registered twice: {entity.entity_id!r}")
        self._entities[entity.entity_id] = entity

    def add_entities(self, entities: Iterable[Entity]) -> None:
        for entity in entities:
            self.add_entity(entity)

    def replace_entity(self, entity: Entity) -> Entity:
        """Replace a registered entity's record (attribute updates).

        Relations and similarity edges referencing the id are left in place —
        an attribute update does not change the graph structure.  Returns the
        previous :class:`Entity`.
        """
        try:
            previous = self._entities[entity.entity_id]
        except KeyError:
            raise UnknownEntityError(entity.entity_id) from None
        self._entities[entity.entity_id] = entity
        return previous

    def remove_entity(self, entity_id: str) -> Entity:
        """Remove an entity along with everything referencing it.

        Cascades: every relation tuple touching the entity is discarded and
        every similarity edge incident to it is removed, so the store stays
        internally consistent (no dangling references).  The derived-coauthor
        cache is invalidated because the cascade may mutate the source
        relation.  Returns the removed :class:`Entity`.
        """
        try:
            entity = self._entities.pop(entity_id)
        except KeyError:
            raise UnknownEntityError(entity_id) from None
        for relation in self._relations.values():
            for tup in list(relation.tuples_of(entity_id)):
                relation.discard(*tup)
        for pair in list(self._similar_index.get(entity_id, ())):
            self.remove_similarity(pair)
        self._derived_coauthor.clear()
        return entity

    def entity(self, entity_id: str) -> Entity:
        try:
            return self._entities[entity_id]
        except KeyError:
            raise UnknownEntityError(entity_id) from None

    def has_entity(self, entity_id: str) -> bool:
        return entity_id in self._entities

    def entity_ids(self) -> FrozenSet[str]:
        return frozenset(self._entities)

    def entities(self) -> List[Entity]:
        return list(self._entities.values())

    def entities_of_type(self, entity_type: str) -> List[Entity]:
        return [e for e in self._entities.values() if e.entity_type == entity_type]

    def __len__(self) -> int:
        return len(self._entities)

    def __contains__(self, entity_id: str) -> bool:
        return entity_id in self._entities

    def __iter__(self) -> Iterator[Entity]:
        return iter(self._entities.values())

    # -------------------------------------------------------------- relations
    def add_relation(self, relation: Relation) -> None:
        """Register (or replace) a relation by name."""
        self._relations[relation.name] = relation
        # Any relation change may invalidate cached derivations (the source
        # Authored relation could have been replaced or extended in place).
        self._derived_coauthor.clear()

    def remove_tuple(self, relation_name: str, *entity_ids: str) -> None:
        """Discard one tuple of a registered relation (no-op when absent).

        Goes through the store so the derived-coauthor cache is invalidated:
        the removed tuple may belong to the source ``authored`` relation (the
        snapshot guard in :meth:`derive_coauthor` would also catch the drift,
        but eager invalidation keeps the cache from pinning stale relations).
        """
        self.relation(relation_name).discard(*entity_ids)
        self._derived_coauthor.clear()

    def remove_relation(self, name: str) -> Relation:
        """Unregister and return a whole relation."""
        try:
            removed = self._relations.pop(name)
        except KeyError:
            raise UnknownRelationError(name) from None
        self._derived_coauthor.clear()
        return removed

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(name) from None

    def has_relation(self, name: str) -> bool:
        return name in self._relations

    def relation_names(self) -> List[str]:
        return sorted(self._relations)

    def relations(self) -> List[Relation]:
        return [self._relations[name] for name in sorted(self._relations)]

    def derive_coauthor(self, authored_name: str = "authored",
                        coauthor_name: str = COAUTHOR) -> Relation:
        """Derive and register the Coauthor relation from Authored.

        The derivation (a self-join on Authored) is cached on the store, so
        repeated neighborhood builds do not re-derive the same COAUTHOR
        tuples.  The cache is invalidated whenever :meth:`add_relation` runs
        and additionally guarded by a snapshot of the source tuples, so
        in-place mutation of the Authored relation also triggers a fresh
        derivation.
        """
        cache_key = (authored_name, coauthor_name)
        source_tuples = self.relation(authored_name).tuples()
        cached = self._derived_coauthor.get(cache_key)
        if cached is not None and cached[0] == source_tuples:
            coauthor = cached[1]
        else:
            coauthor = coauthor_from_authored(self.relation(authored_name),
                                              coauthor_name)
        self.add_relation(coauthor)
        # Cache after add_relation: registering the derived relation clears
        # the cache, so re-insert the fresh entry.
        self._derived_coauthor[cache_key] = (source_tuples, coauthor)
        return coauthor

    # ------------------------------------------------------------- similarity
    def add_similarity(self, pair: EntityPair, score: float, level: int) -> None:
        """Record a (discretised) similarity edge between two known entities."""
        for entity_id in pair:
            if entity_id not in self._entities:
                raise UnknownEntityError(entity_id)
        edge = SimilarityEdge(pair, score, level)
        self._similar[pair] = edge
        for entity_id in pair:
            self._similar_index.setdefault(entity_id, set()).add(pair)

    def remove_similarity(self, pair: EntityPair) -> Optional[SimilarityEdge]:
        """Remove the similarity edge for ``pair`` (returns it, or ``None``).

        The per-entity similarity postings are updated in place; empty
        posting buckets are dropped so the index never accumulates dead
        entries over a long mutation stream.
        """
        edge = self._similar.pop(pair, None)
        if edge is None:
            return None
        for entity_id in pair:
            bucket = self._similar_index.get(entity_id)
            if bucket is not None:
                bucket.discard(pair)
                if not bucket:
                    del self._similar_index[entity_id]
        return edge

    def similarity(self, pair: EntityPair) -> Optional[SimilarityEdge]:
        """The similarity edge for ``pair``, or ``None`` when the pair was never scored."""
        return self._similar.get(pair)

    def similarity_level(self, pair: EntityPair, default: int = 0) -> int:
        edge = self._similar.get(pair)
        return edge.level if edge is not None else default

    def similar_pairs(self) -> FrozenSet[EntityPair]:
        """All pairs with a recorded similarity edge (the candidate match pairs)."""
        return frozenset(self._similar)

    def similar_pairs_of(self, entity_id: str) -> FrozenSet[EntityPair]:
        return frozenset(self._similar_index.get(entity_id, frozenset()))

    def similarity_edges(self) -> List[SimilarityEdge]:
        return list(self._similar.values())

    # ------------------------------------------------------------ restriction
    def restriction(self) -> Tuple["EntityStore", Optional[FrozenSet[str]]]:
        """``(base, members)``: the store this one restricts and the entity
        ids it keeps (``None``: all).  A materialised store is its own base."""
        return self, None

    def restrict(self, entity_ids: Iterable[str]) -> "EntityStore":
        """Materialise the sub-instance induced by ``entity_ids``.

        The restricted store contains the selected entities, the induced
        relations ``R(C)`` and the similarity edges with both endpoints in
        ``C``.  This is the object handed to the black-box matcher when it is
        run on a neighborhood.
        """
        selected = set(entity_ids)
        unknown = selected - set(self._entities)
        if unknown:
            raise UnknownEntityError(sorted(unknown)[0])
        restricted = EntityStore(
            entities=(self._entities[eid] for eid in selected),
            relations=(rel.induced(selected) for rel in self._relations.values()),
        )
        # Walk whichever side is smaller.  Small subsets go through the
        # per-entity ``_similar_index`` postings; subsets covering most of
        # the store scan the edge list once instead of re-deriving it from
        # the postings (which visits every inner edge twice, once per
        # endpoint).  Either way each surviving edge is added exactly once.
        if len(selected) < len(self._similar):
            seen: Set[EntityPair] = set()
            for entity_id in selected:
                for pair in self._similar_index.get(entity_id, ()):  # type: ignore[arg-type]
                    if pair in seen:
                        continue
                    if pair.first in selected and pair.second in selected:
                        seen.add(pair)
                        edge = self._similar[pair]
                        restricted.add_similarity(pair, edge.score, edge.level)
        else:
            for pair, edge in self._similar.items():
                if pair.first in selected and pair.second in selected:
                    restricted.add_similarity(pair, edge.score, edge.level)
        return restricted

    # ---------------------------------------------------------------- utility
    def related_entities(self, entity_id: str,
                         relation_names: Optional[Iterable[str]] = None) -> Set[str]:
        """Entities sharing a relation tuple with ``entity_id``.

        Used to compute the *boundary* of a neighborhood (Section 4): the
        entities that co-occur with a member of the neighborhood in some
        relation tuple.
        """
        names = list(relation_names) if relation_names is not None else list(self._relations)
        related: Set[str] = set()
        for name in names:
            relation = self.relation(name)
            related.update(relation.neighbors(entity_id))
        return related

    def copy(self) -> "EntityStore":
        clone = EntityStore(entities=self._entities.values(),
                            relations=(rel.copy() for rel in self._relations.values()))
        for edge in self._similar.values():
            clone.add_similarity(edge.pair, edge.score, edge.level)
        return clone

    def stats(self) -> Dict[str, int]:
        """Summary statistics used by reports and the experiment harness."""
        return {
            "entities": len(self._entities),
            "relations": len(self._relations),
            "relation_tuples": sum(len(rel) for rel in self._relations.values()),
            "similar_pairs": len(self._similar),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stats = self.stats()
        return (f"EntityStore(entities={stats['entities']}, relations={stats['relations']}, "
                f"similar_pairs={stats['similar_pairs']})")


class StoreReads:
    """The store read interface that follows from the rest of it: mixed
    into the stores besides :class:`EntityStore` (compact snapshots and their
    views, the streaming overlay and its views)."""

    __slots__ = ()

    def entities_of_type(self, entity_type: str) -> List[Entity]:
        return [entity for entity in self.entities()
                if entity.entity_type == entity_type]

    def __contains__(self, entity_id: str) -> bool:
        return self.has_entity(entity_id)

    def __iter__(self) -> Iterator[Entity]:
        return iter(self.entities())

    def relations(self) -> list:
        return [self.relation(name) for name in self.relation_names()]

    def restriction(self) -> Tuple[object, Optional[FrozenSet[str]]]:
        """As :meth:`EntityStore.restriction`; views name their base."""
        return self, None

    def similarity_level(self, pair: EntityPair, default: int = 0) -> int:
        edge = self.similarity(pair)
        return edge.level if edge is not None else default

    def related_entities(self, entity_id: str,
                         relation_names: Optional[Iterable[str]] = None) -> Set[str]:
        related: Set[str] = set()
        for name in self.relation_names() if relation_names is None else relation_names:
            related.update(self.relation(name).neighbors(entity_id))
        return related

    def to_entity_store(self) -> EntityStore:
        """Materialise a mutable dict store."""
        store = EntityStore(entities=self.entities(),
                            relations=(relation.copy() for relation in self.relations()))
        for edge in self.similarity_edges():
            store.add_similarity(edge.pair, edge.score, edge.level)
        return store

    def copy(self) -> EntityStore:
        return self.to_entity_store()

    def stats(self) -> Dict[str, int]:
        return {"entities": len(self), "relations": len(self.relation_names()),
                "relation_tuples": sum(len(relation) for relation in self.relations()),
                "similar_pairs": len(self.similarity_edges())}
