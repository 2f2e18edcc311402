"""Mutable overlay over an immutable (or shared) base store.

The streaming engine never mutates the instance a session was opened on:
deltas accumulate in a :class:`StoreOverlay` that layers added/updated/removed
entities, relation tuples and similarity edges over the base snapshot — which
may be the reference dict :class:`~repro.datamodel.EntityStore` or an
immutable columnar :class:`~repro.datamodel.CompactStore`.  The overlay
exposes the full *read* interface of :class:`EntityStore`, so covers are
(re)built against it, and its :meth:`StoreOverlay.restrict` hands each
neighborhood out as an :class:`OverlayView` — the same reads a materialised
sub-store would answer, answered through base and overlay, nothing copied.

When the overlay grows past a threshold the session *rebases*: the overlay is
materialised into a fresh dict base and a new, empty overlay is layered on
top — reads get fast again and the delta bookkeeping stays proportional to
the recent churn, not the stream's lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..datamodel import (
    Entity,
    EntityPair,
    EntityStore,
    Relation,
    SimilarityEdge,
)
from ..datamodel.relation import RelationReads
from ..datamodel.store import StoreReads
from ..exceptions import DeltaError, UnknownEntityError, UnknownRelationError

RelationTuple = Tuple[str, ...]


class RelationOverlay(RelationReads):
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

    def tuples_of(self, entity_id: str) -> FrozenSet[RelationTuple]:
        base_tuples = self._base.tuples_of(entity_id)
        if self._removed:
            base_tuples = base_tuples - self._removed
        added = self._added_index.get(entity_id)
        return base_tuples | added if added else frozenset(base_tuples)

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


class StoreOverlay(StoreReads):
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

    @property
    def generation(self) -> int:
        """Changes with every mutation: what was read off the overlay at one
        generation holds until the next."""
        return self.mutation_count

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

    def __len__(self) -> int:
        return len(self.entity_ids())

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

    # ----------------------------------------------------------- similarity
    def similarity(self, pair: EntityPair) -> Optional[SimilarityEdge]:
        edge = self._added_edges.get(pair)
        if edge is not None:
            return edge
        if pair in self._removed_edges:
            return None
        return self.base.similarity(pair)

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
        if base_pairs and self._removed_edges:
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
    def restrict(self, entity_ids: Iterable[str]) -> "OverlayView":
        """The induced sub-instance as a read-only :class:`OverlayView`."""
        selected = frozenset(entity_ids)
        unknown = [eid for eid in selected if not self.has_entity(eid)]
        if unknown:
            raise UnknownEntityError(sorted(unknown)[0])
        return OverlayView(self, selected)

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
        """Materialise the overlaid instance into a fresh dict store (the
        base of the next overlay when the session rebases)."""
        store = EntityStore(
            entities=sorted(self.entities(), key=lambda e: e.entity_id),
            relations=(overlay.copy() for overlay in self.relations()),
        )
        for _, edge in self._iter_edges():
            store.add_similarity(edge.pair, edge.score, edge.level)
        return store

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"StoreOverlay(entities={len(self)}, "
                f"mutations={self.mutation_count}, delta={self.delta_size()})")


class InducedWindow(RelationReads):
    """``R(C)`` of one relation, read through: a tuple of the relation shows
    when every entity in it is a member of ``C``.  Nothing is copied up
    front; each member's tuples are filtered once, on first read, and the
    full tuple set is worked out on first need."""

    def __init__(self, relation, members: FrozenSet[str]):
        self._relation, self._members = relation, members
        self.name, self.arity, self.symmetric = \
            relation.name, relation.arity, relation.symmetric
        self._of: Dict[str, FrozenSet[RelationTuple]] = {}
        self._shown: Optional[FrozenSet[RelationTuple]] = None

    def tuples_of(self, entity_id: str) -> FrozenSet[RelationTuple]:
        shown = self._of.get(entity_id)
        if shown is None:
            members = self._members
            shown = self._of[entity_id] = frozenset(
                tup for tup in self._relation.tuples_of(entity_id)
                if members.issuperset(tup)) if entity_id in members \
                else frozenset()
        return shown

    def tuples(self) -> FrozenSet[RelationTuple]:
        if self._shown is None:
            self._shown = frozenset(self.tuples_touching(self._members))
        return self._shown

    def __len__(self) -> int:
        return len(self.tuples())

    def __iter__(self) -> Iterator[RelationTuple]:
        return iter(self.tuples())

    def __contains__(self, tup: Sequence[str]) -> bool:
        return self._members.issuperset(tup) and tup in self._relation

    def induced(self, entity_ids: Iterable[str]) -> Relation:
        return self._relation.induced(self._members.intersection(entity_ids))


class OverlayView(StoreReads):
    """Read-only window of one neighborhood over a :class:`StoreOverlay`.

    The streaming runner's neighborhood store, over a dict base and a compact
    one alike: every read resolves through the overlay (base plus layered
    deltas) and is filtered by the member set, so a commit pays only for
    what its matcher reads.  A view stays valid while its sub-instance is
    unchanged — which is exactly when the runner keeps it for a clean
    neighborhood across batches.  ``to_entity_store()`` materialises a
    mutable copy (what a process pool is shipped).
    """

    def __init__(self, overlay: StoreOverlay, members: FrozenSet[str]):
        self.overlay, self._members = overlay, members
        self._relations: Dict[str, InducedWindow] = {}
        self._edges: Optional[List[SimilarityEdge]] = None

    def entity(self, entity_id: str) -> Entity:
        if entity_id not in self._members:
            raise UnknownEntityError(entity_id)
        return self.overlay.entity(entity_id)

    def has_entity(self, entity_id: str) -> bool:
        return entity_id in self._members

    def entity_ids(self) -> FrozenSet[str]:
        return self._members

    def entities(self) -> List[Entity]:
        return [self.overlay.entity(eid) for eid in sorted(self._members)]

    def __len__(self) -> int:
        return len(self._members)

    def relation(self, name: str) -> InducedWindow:
        window = self._relations.get(name)
        if window is None:
            window = self._relations[name] = InducedWindow(
                self.overlay.relation(name), self._members)
        return window

    def has_relation(self, name: str) -> bool:
        return self.overlay.has_relation(name)

    def relation_names(self) -> List[str]:
        return self.overlay.relation_names()

    def similarity(self, pair: EntityPair) -> Optional[SimilarityEdge]:
        if pair.first in self._members and pair.second in self._members:
            return self.overlay.similarity(pair)
        return None

    def similar_pairs_of(self, entity_id: str) -> FrozenSet[EntityPair]:
        members = self._members
        if entity_id not in members:
            return frozenset()
        return frozenset(pair for pair in self.overlay.similar_pairs_of(entity_id)
                         if pair.first in members and pair.second in members)

    def similarity_edges(self) -> List[SimilarityEdge]:
        if self._edges is None:
            # Each inner edge once, from its first member.
            overlay, members = self.overlay, self._members
            self._edges = [overlay.similarity(pair) for entity_id in members
                           for pair in overlay.similar_pairs_of(entity_id)
                           if pair.first == entity_id and pair.second in members]
        return list(self._edges)

    def similar_pairs(self) -> FrozenSet[EntityPair]:
        return frozenset(edge.pair for edge in self.similarity_edges())

    def restriction(self) -> Tuple[StoreOverlay, FrozenSet[str]]:
        return self.overlay, self._members

    def restrict(self, entity_ids: Iterable[str]) -> "OverlayView":
        selected = frozenset(entity_ids)
        unknown = selected - self._members
        if unknown:
            raise UnknownEntityError(sorted(unknown)[0])
        return OverlayView(self.overlay, selected)
