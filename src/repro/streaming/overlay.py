"""Mutable overlay over an immutable (or shared) base store.

The streaming engine never mutates the instance a session was opened on:
deltas accumulate in a :class:`StoreOverlay` that layers added/updated/removed
entities, relation tuples and similarity edges over the base snapshot — which
may be the reference dict :class:`~repro.datamodel.EntityStore` or an
immutable columnar :class:`~repro.datamodel.CompactStore`.  The overlay
exposes the full *read* interface of :class:`EntityStore`, so covers are
(re)built against it and neighborhood sub-stores are materialised from it
exactly as they would be from a cold store.

When the overlay grows past a threshold the session *rebases*: the overlay is
materialised into a fresh base snapshot (compact again when the base was
compact) and a new, empty overlay is layered on top — reads get fast again
and the delta bookkeeping stays proportional to the recent churn, not the
stream's lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..datamodel import (
    CompactStore,
    Entity,
    EntityPair,
    EntityStore,
    Relation,
    SimilarityEdge,
)
from ..exceptions import DeltaError, UnknownEntityError, UnknownRelationError

RelationTuple = Tuple[str, ...]


class RelationOverlay:
    """Read view of one relation: base tuples minus removals plus additions."""

    def __init__(self, base):
        self._base = base
        self.name: str = base.name
        self.arity: int = base.arity
        self.symmetric: bool = base.symmetric
        self._added: Set[RelationTuple] = set()
        self._added_index: Dict[str, Set[RelationTuple]] = {}
        self._removed: Set[RelationTuple] = set()

    # ------------------------------------------------------------- mutation
    def _canonical(self, tup: Sequence[str]) -> RelationTuple:
        if len(tup) != self.arity:
            raise DeltaError(
                f"relation {self.name!r} has arity {self.arity}, "
                f"got tuple of length {len(tup)}")
        canonical = tuple(tup)
        if self.symmetric and canonical[0] > canonical[1]:
            canonical = (canonical[1], canonical[0])
        return canonical

    def add(self, tup: Sequence[str]) -> Optional[RelationTuple]:
        """Add a tuple; returns the canonical tuple, or ``None`` when it was
        already present (idempotent adds carry no impact)."""
        canonical = self._canonical(tup)
        if canonical in self._removed:
            self._removed.discard(canonical)
            return canonical
        if canonical in self._added or canonical in self._base:
            return None
        self._added.add(canonical)
        for entity_id in set(canonical):
            self._added_index.setdefault(entity_id, set()).add(canonical)
        return canonical

    def remove(self, tup: Sequence[str]) -> Optional[RelationTuple]:
        """Remove a tuple; returns the canonical tuple, or ``None`` when absent."""
        canonical = self._canonical(tup)
        if canonical in self._added:
            self._added.discard(canonical)
            for entity_id in set(canonical):
                bucket = self._added_index.get(entity_id)
                if bucket is not None:
                    bucket.discard(canonical)
                    if not bucket:
                        del self._added_index[entity_id]
            return canonical
        if canonical in self._removed or canonical not in self._base:
            return None
        self._removed.add(canonical)
        return canonical

    def delta_size(self) -> int:
        return len(self._added) + len(self._removed)

    # ----------------------------------------------------------------- reads
    def __len__(self) -> int:
        return len(self._base) - len(self._removed) + len(self._added)

    def __iter__(self) -> Iterator[RelationTuple]:
        if self._removed:
            for tup in self._base:
                if tup not in self._removed:
                    yield tup
        else:
            yield from self._base
        yield from self._added

    def __contains__(self, tup: Sequence[str]) -> bool:
        canonical = self._canonical(tup)
        if canonical in self._removed:
            return False
        return canonical in self._added or canonical in self._base

    def contains(self, *entity_ids: str) -> bool:
        return self.__contains__(entity_ids)

    def tuples(self) -> FrozenSet[RelationTuple]:
        return frozenset(self)

    def tuples_of(self, entity_id: str) -> FrozenSet[RelationTuple]:
        base_tuples = self._base.tuples_of(entity_id)
        if self._removed:
            base_tuples = base_tuples - self._removed
        added = self._added_index.get(entity_id)
        return base_tuples | added if added else frozenset(base_tuples)

    def neighbors(self, entity_id: str) -> Set[str]:
        out: Set[str] = set()
        for tup in self.tuples_of(entity_id):
            out.update(tup)
        out.discard(entity_id)
        return out

    def participants(self) -> Set[str]:
        out: Set[str] = set()
        for tup in self:
            out.update(tup)
        return out

    def tuples_touching(self, entity_ids: Iterable[str]) -> Iterator[RelationTuple]:
        """Tuples with at least one member in ``entity_ids`` (may repeat)."""
        members = entity_ids if isinstance(entity_ids, (set, frozenset)) \
            else set(entity_ids)
        for entity_id in members:
            yield from self.tuples_of(entity_id)

    def induced(self, entity_ids: Iterable[str]) -> Relation:
        allowed = set(entity_ids)
        induced = Relation(self.name, self.arity, self.symmetric)
        removed = self._removed
        for tup in self._base.tuples_touching(allowed):
            if allowed.issuperset(tup) and tup not in removed:
                induced.add_canonical(tup)
        for entity_id in allowed:
            for tup in self._added_index.get(entity_id, ()):
                if allowed.issuperset(tup):
                    induced.add_canonical(tup)
        return induced

    def copy(self) -> Relation:
        """Materialise the overlaid relation into a plain mutable Relation."""
        clone = Relation(self.name, self.arity, self.symmetric)
        for tup in self:
            clone.add(*tup)
        return clone


@dataclass
class DeltaImpact:
    """What one applied change batch touched — the dirtiness ledger.

    The cover maintainer and the delta runner read this to decide which
    canopies to patch, which cached expansions to drop and which
    neighborhoods to re-match.
    """

    added_entities: Set[str] = field(default_factory=set)
    updated_entities: Set[str] = field(default_factory=set)
    removed_entities: Set[str] = field(default_factory=set)
    #: Canonical (relation name, tuple) of every added or removed tuple.
    changed_tuples: Set[Tuple[str, RelationTuple]] = field(default_factory=set)
    #: Pairs whose similarity edge was added, removed or re-scored.
    changed_similarity: Set[EntityPair] = field(default_factory=set)
    #: Pairs whose standing external evidence changed (either polarity).
    changed_evidence: Set[EntityPair] = field(default_factory=set)

    def is_empty(self) -> bool:
        return not (self.added_entities or self.updated_entities
                    or self.removed_entities or self.changed_tuples
                    or self.changed_similarity or self.changed_evidence)

    def changed_entity_ids(self) -> Set[str]:
        """All entity ids whose own record changed (added/updated/removed)."""
        return self.added_entities | self.updated_entities | self.removed_entities

    def tuple_touched_entities(self) -> Set[str]:
        """Entity ids occurring in any added or removed relation tuple."""
        touched: Set[str] = set()
        for _, tup in self.changed_tuples:
            touched.update(tup)
        return touched


class StoreOverlay:
    """EntityStore-compatible read view of ``base`` plus layered mutations."""

    def __init__(self, base):
        self.base = base
        self._added_entities: Dict[str, Entity] = {}
        self._removed_entities: Set[str] = set()
        self._relations: Dict[str, RelationOverlay] = {
            name: RelationOverlay(base.relation(name))
            for name in base.relation_names()}
        self._added_edges: Dict[EntityPair, SimilarityEdge] = {}
        self._removed_edges: Set[EntityPair] = set()
        self._added_edge_index: Dict[str, Set[EntityPair]] = {}
        #: Number of individual mutations layered since the last rebase.
        self.mutation_count = 0
        # Memoised derived sets, invalidated on every mutation.
        self._memo: Dict[str, object] = {}

    # ------------------------------------------------------------- mutation
    def _touch(self) -> None:
        self.mutation_count += 1
        self._memo.clear()

    def add_entity(self, entity: Entity) -> None:
        if self.has_entity(entity.entity_id):
            raise DeltaError(f"add_entity: id already present: {entity.entity_id!r}")
        self._removed_entities.discard(entity.entity_id)
        self._added_entities[entity.entity_id] = entity
        self._touch()

    def update_entity(self, entity: Entity) -> Entity:
        previous = self.entity(entity.entity_id)
        self._added_entities[entity.entity_id] = entity
        self._touch()
        return previous

    def remove_entity(self, entity_id: str) -> Tuple[Entity, List[Tuple[str, RelationTuple]],
                                                     List[EntityPair]]:
        """Remove an entity, cascading over tuples and similarity edges.

        Returns ``(previous entity, removed (relation, tuple) list, removed
        similarity pairs)`` so the caller can account the cascade as impact.
        """
        previous = self.entity(entity_id)
        removed_tuples: List[Tuple[str, RelationTuple]] = []
        for name, overlay in self._relations.items():
            for tup in list(overlay.tuples_of(entity_id)):
                if overlay.remove(tup) is not None:
                    removed_tuples.append((name, tup))
        removed_pairs = [pair for pair in self.similar_pairs_of(entity_id)
                         if self.remove_similarity(pair)]
        if entity_id in self._added_entities:
            del self._added_entities[entity_id]
        if self.base.has_entity(entity_id):
            self._removed_entities.add(entity_id)
        self._touch()
        return previous, removed_tuples, removed_pairs

    def add_tuple(self, relation_name: str,
                  members: Sequence[str]) -> Optional[RelationTuple]:
        overlay = self._relations.get(relation_name)
        if overlay is None:
            raise UnknownRelationError(relation_name)
        added = overlay.add(members)
        if added is not None:
            self._touch()
        return added

    def remove_tuple(self, relation_name: str,
                     members: Sequence[str]) -> Optional[RelationTuple]:
        overlay = self._relations.get(relation_name)
        if overlay is None:
            raise UnknownRelationError(relation_name)
        removed = overlay.remove(members)
        if removed is not None:
            self._touch()
        return removed

    def upsert_similarity(self, pair: EntityPair, score: float, level: int) -> bool:
        """Add or update an edge; returns whether anything changed."""
        for entity_id in pair:
            if not self.has_entity(entity_id):
                raise UnknownEntityError(entity_id)
        current = self.similarity(pair)
        if current is not None and current.score == score and current.level == level:
            return False
        self._added_edges[pair] = SimilarityEdge(pair, score, level)
        self._removed_edges.discard(pair)
        for entity_id in pair:
            self._added_edge_index.setdefault(entity_id, set()).add(pair)
        self._touch()
        return True

    def remove_similarity(self, pair: EntityPair) -> bool:
        """Remove the edge for ``pair``; returns whether it existed."""
        existed = False
        if pair in self._added_edges:
            del self._added_edges[pair]
            for entity_id in pair:
                bucket = self._added_edge_index.get(entity_id)
                if bucket is not None:
                    bucket.discard(pair)
                    if not bucket:
                        del self._added_edge_index[entity_id]
            existed = True
        if pair not in self._removed_edges and self.base.similarity(pair) is not None:
            self._removed_edges.add(pair)
            existed = True
        if existed:
            self._touch()
        return existed

    # ------------------------------------------------------------- entities
    def entity(self, entity_id: str) -> Entity:
        added = self._added_entities.get(entity_id)
        if added is not None:
            return added
        if entity_id in self._removed_entities:
            raise UnknownEntityError(entity_id)
        return self.base.entity(entity_id)

    def has_entity(self, entity_id: str) -> bool:
        if entity_id in self._added_entities:
            return True
        if entity_id in self._removed_entities:
            return False
        return self.base.has_entity(entity_id)

    def entity_ids(self) -> FrozenSet[str]:
        cached = self._memo.get("entity_ids")
        if cached is None:
            cached = (self.base.entity_ids() - self._removed_entities) \
                | frozenset(self._added_entities)
            self._memo["entity_ids"] = cached
        return cached  # type: ignore[return-value]

    def entities(self) -> List[Entity]:
        out = [entity for entity in self.base.entities()
               if entity.entity_id not in self._removed_entities
               and entity.entity_id not in self._added_entities]
        out.extend(self._added_entities.values())
        return out

    def entities_of_type(self, entity_type: str) -> List[Entity]:
        return [entity for entity in self.entities()
                if entity.entity_type == entity_type]

    def __len__(self) -> int:
        return len(self.entity_ids())

    def __contains__(self, entity_id: str) -> bool:
        return self.has_entity(entity_id)

    def __iter__(self) -> Iterator[Entity]:
        return iter(self.entities())

    # ------------------------------------------------------------ relations
    def relation(self, name: str) -> RelationOverlay:
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(name) from None

    def has_relation(self, name: str) -> bool:
        return name in self._relations

    def relation_names(self) -> List[str]:
        return sorted(self._relations)

    def relations(self) -> List[RelationOverlay]:
        return [self._relations[name] for name in sorted(self._relations)]

    # ----------------------------------------------------------- similarity
    def similarity(self, pair: EntityPair) -> Optional[SimilarityEdge]:
        edge = self._added_edges.get(pair)
        if edge is not None:
            return edge
        if pair in self._removed_edges:
            return None
        return self.base.similarity(pair)

    def similarity_level(self, pair: EntityPair, default: int = 0) -> int:
        edge = self.similarity(pair)
        return edge.level if edge is not None else default

    def similar_pairs(self) -> FrozenSet[EntityPair]:
        cached = self._memo.get("similar_pairs")
        if cached is None:
            cached = (self.base.similar_pairs() - self._removed_edges) \
                | frozenset(self._added_edges)
            self._memo["similar_pairs"] = cached
        return cached  # type: ignore[return-value]

    def similar_pairs_of(self, entity_id: str) -> FrozenSet[EntityPair]:
        base_pairs = self.base.similar_pairs_of(entity_id) \
            if self.base.has_entity(entity_id) else frozenset()
        if self._removed_edges:
            base_pairs = base_pairs - self._removed_edges
        added = self._added_edge_index.get(entity_id)
        return frozenset(base_pairs | added) if added else frozenset(base_pairs)

    def similarity_edges(self) -> List[SimilarityEdge]:
        out = [edge for pair, edge in self._iter_edges()]
        return out

    def _iter_edges(self) -> Iterator[Tuple[EntityPair, SimilarityEdge]]:
        for edge in self.base.similarity_edges():
            pair = edge.pair
            if pair in self._removed_edges or pair in self._added_edges:
                continue
            yield pair, edge
        for pair, edge in self._added_edges.items():
            yield pair, edge

    # ---------------------------------------------------------- restriction
    def restrict(self, entity_ids: Iterable[str]) -> EntityStore:
        """Materialise the induced sub-instance as a plain dict store."""
        selected = set(entity_ids)
        unknown = {eid for eid in selected if not self.has_entity(eid)}
        if unknown:
            raise UnknownEntityError(sorted(unknown)[0])
        restricted = EntityStore(
            entities=(self.entity(eid) for eid in selected),
            relations=(overlay.induced(selected)
                       for overlay in self._relations.values()),
        )
        seen: Set[EntityPair] = set()
        for entity_id in selected:
            for pair in self.similar_pairs_of(entity_id):
                if pair in seen:
                    continue
                if pair.first in selected and pair.second in selected:
                    seen.add(pair)
                    edge = self.similarity(pair)
                    restricted.add_similarity(pair, edge.score, edge.level)
        return restricted

    # -------------------------------------------------------------- utility
    def stats(self) -> Dict[str, int]:
        return {
            "entities": len(self),
            "relations": len(self._relations),
            "relation_tuples": sum(len(rel) for rel in self._relations.values()),
            "similar_pairs": len(self.similar_pairs()),
        }

    # ---------------------------------------------------------------- apply
    def apply_delta(self, delta, impact: DeltaImpact) -> None:
        """Apply one store-level delta, accounting its effect into ``impact``.

        Evidence deltas are session state, not store state — the caller
        (:class:`~repro.streaming.runner.StreamSession`) handles them.
        """
        from .deltas import (AddEntity, AddTuple, RemoveEntity,
                             RemoveSimilarity, RemoveTuple, UpdateEntity,
                             UpsertSimilarity)
        if isinstance(delta, AddEntity):
            self.add_entity(delta.entity)
            impact.added_entities.add(delta.entity.entity_id)
        elif isinstance(delta, UpdateEntity):
            if self.update_entity(delta.entity) != delta.entity:
                impact.updated_entities.add(delta.entity.entity_id)
        elif isinstance(delta, RemoveEntity):
            _, removed_tuples, removed_pairs = \
                self.remove_entity(delta.entity_id)
            # An entity added (or updated) earlier in the same batch and
            # removed now leaves no add/update trace — only the removal.
            impact.added_entities.discard(delta.entity_id)
            impact.updated_entities.discard(delta.entity_id)
            impact.removed_entities.add(delta.entity_id)
            impact.changed_tuples.update(removed_tuples)
            impact.changed_similarity.update(removed_pairs)
        elif isinstance(delta, AddTuple):
            added = self.add_tuple(delta.relation, delta.members)
            if added is not None:
                impact.changed_tuples.add((delta.relation, added))
        elif isinstance(delta, RemoveTuple):
            removed = self.remove_tuple(delta.relation, delta.members)
            if removed is not None:
                impact.changed_tuples.add((delta.relation, removed))
        elif isinstance(delta, UpsertSimilarity):
            if self.upsert_similarity(delta.pair, delta.score, delta.level):
                impact.changed_similarity.add(delta.pair)
        elif isinstance(delta, RemoveSimilarity):
            if self.remove_similarity(delta.pair):
                impact.changed_similarity.add(delta.pair)
        else:
            raise DeltaError(f"not a store delta: {type(delta).__name__}")

    # --------------------------------------------------------------- rebase
    def delta_size(self) -> int:
        """Current size of the layered mutation state (rebase trigger)."""
        return (len(self._added_entities) + len(self._removed_entities)
                + len(self._added_edges) + len(self._removed_edges)
                + sum(overlay.delta_size() for overlay in self._relations.values()))

    def to_entity_store(self) -> EntityStore:
        """Materialise the overlaid instance into a fresh dict store."""
        store = EntityStore(
            entities=sorted(self.entities(), key=lambda e: e.entity_id),
            relations=(overlay.copy() for overlay in self.relations()),
        )
        for _, edge in self._iter_edges():
            store.add_similarity(edge.pair, edge.score, edge.level)
        return store

    def rebase(self):
        """Materialise into a fresh base snapshot (same backend as the base)."""
        materialised = self.to_entity_store()
        if isinstance(self.base, CompactStore):
            return CompactStore.from_store(materialised)
        return materialised

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stats = self.stats()
        return (f"StoreOverlay(entities={stats['entities']}, "
                f"mutations={self.mutation_count}, delta={self.delta_size()})")
