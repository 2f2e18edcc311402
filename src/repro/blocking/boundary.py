"""Boundary expansion: turning any cover into a total cover (Section 4).

The boundary of a neighborhood ``C`` is the set of entities ``e`` for which
there is an entity ``e'`` in ``C`` such that both occur together in some
relation tuple.  Expanding every neighborhood by its boundary yields a total
cover: every relation tuple has at least one member in some neighborhood, so
after expansion the whole tuple is inside that neighborhood.

The paper's covers are built this way: Canopies over the ``Similar`` relation
followed by boundary expansion with respect to the other relations (Coauthor,
Authored, Cites), which is what brings dissimilar entities — and entities of
different types, e.g. papers — into the same neighborhood.

The implementation is inverted relative to the definition: instead of one
neighbor lookup per member per relation (each allocating a fresh neighbor
set), each relation is traversed once per round via
:meth:`~repro.datamodel.relation.Relation.tuples_touching`, and multi-round
expansion only follows the *frontier* — the members added in the previous
round — since older members' neighbors are already inside.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set

from ..datamodel import EntityStore, Relation
from ..exceptions import CoverError
from .cover import Cover, Neighborhood


def relations_boundary(relations: Sequence[Relation], members: Set[str]) -> Set[str]:
    """Entities outside ``members`` sharing a tuple of any relation with a member."""
    boundary: Set[str] = set()
    for relation in relations:
        for tup in relation.tuples_touching(members):
            boundary.update(tup)
    return boundary - members


def _shared_interner(relations: Sequence[Relation]):
    """The common id interner when *all* relations are compact, else ``None``.

    :class:`~repro.datamodel.CompactRelation` objects built from one
    :class:`~repro.datamodel.CompactStore` share the store's interner; when a
    neighborhood is expanded against such relations the whole multi-round
    expansion can run in integer space (one CSR walk per round, no string
    re-keying) and decode once at the end.
    """
    interner = None
    for relation in relations:
        candidate = getattr(relation, "interner", None)
        if candidate is None:
            return None
        if interner is None:
            interner = candidate
        elif candidate is not interner:
            return None
    return interner


def expand_members(relations: Sequence[Relation], entity_ids: Iterable[str],
                   rounds: int = 1) -> Set[str]:
    """``rounds`` rounds of boundary expansion of one neighborhood's members.

    After the first round only the frontier (the previously added entities)
    is followed: a member added in round ``k`` already pulled in all of its
    relation partners, so re-scanning it in round ``k + 1`` cannot add
    anything new.  The result is identical to re-expanding the full member
    set every round.

    When every relation is a :class:`~repro.datamodel.CompactRelation` over
    one shared interner the expansion runs in the interned integer space and
    decodes the member set once at the end (same result, asserted by
    ``tests/test_compact_store.py``).
    """
    interner = _shared_interner(relations)
    if interner is not None:
        # Ids outside the snapshot can touch no tuple; like the string path,
        # they pass through into the result untouched.
        int_members: Set[int] = set()
        unknown: Set[str] = set()
        for entity_id in entity_ids:
            if entity_id in interner:
                int_members.add(interner.index_of(entity_id))
            else:
                unknown.add(entity_id)
        int_frontier = int_members
        for _ in range(rounds):
            touched: Set[int] = set()
            for relation in relations:
                touched |= relation.member_indices_touching(int_frontier)
            fresh_indices = touched - int_members
            if not fresh_indices:
                break
            int_members |= fresh_indices
            int_frontier = fresh_indices
        return set(interner.ids_of(int_members)) | unknown

    members: Set[str] = set(entity_ids)
    frontier = members
    for _ in range(rounds):
        fresh = relations_boundary(relations, frontier) - members
        if not fresh:
            break
        members |= fresh
        frontier = fresh
    return members


def neighborhood_boundary(store: EntityStore, entity_ids: Iterable[str],
                          relation_names: Optional[Iterable[str]] = None) -> Set[str]:
    """Entities outside ``entity_ids`` sharing a relation tuple with a member.

    Parameters
    ----------
    store:
        The full entity store providing the relations.
    entity_ids:
        The neighborhood being expanded.
    relation_names:
        Relations to follow; defaults to every relation in the store.
    """
    names = list(relation_names) if relation_names is not None else store.relation_names()
    return relations_boundary([store.relation(name) for name in names],
                              set(entity_ids))


def expand_to_total_cover(cover: Cover, store: EntityStore,
                          relation_names: Optional[Iterable[str]] = None,
                          rounds: int = 1) -> Cover:
    """Expand every neighborhood of ``cover`` by its boundary.

    One round of expansion makes every relation tuple that *touches* a covered
    entity fully contained in some neighborhood; when every entity of the
    relations is covered by the base cover (the typical case: canopies over
    the author references, boundary over the reference-level ``coauthor``
    relation) the result is therefore a total cover.  Tuples none of whose
    members appear in the base cover (e.g. paper-to-paper ``cites`` tuples
    under an author-only cover) may need more ``rounds`` or a different base
    cover; pass only the relations the matcher actually uses via
    ``relation_names``.

    Entities of the store that appear in no neighborhood at all (e.g. papers
    when the base cover only clustered authors) are attached to the
    neighborhoods of their related entities by the same expansion; entities
    related to nothing and covered by nothing are collected into singleton
    neighborhoods so the result is always a cover of the full store.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    names = list(relation_names) if relation_names is not None else store.relation_names()
    relations = [store.relation(name) for name in names]

    expanded: List[Neighborhood] = [
        Neighborhood(neighborhood.name,
                     frozenset(expand_members(relations, neighborhood.entity_ids, rounds)))
        for neighborhood in cover
    ]
    return attach_leftover_singletons(expanded, store)


def attach_leftover_singletons(expanded: List[Neighborhood],
                               store: EntityStore,
                               previous: Optional[Cover] = None) -> Cover:
    """Cover of ``expanded`` plus a singleton per still-uncovered store entity.

    Public because the streaming cover maintainer replays exactly this step
    when it patches a total cover: it passes its ``previous`` cover, whose
    unchanged singletons are reused and whose index is patched (see
    :class:`~repro.blocking.cover.Cover`).
    """
    covered: Set[str] = set()
    for neighborhood in expanded:
        covered.update(neighborhood.entity_ids)
    for index, entity_id in enumerate(sorted(store.entity_ids() - covered)):
        name = f"singleton-{index}"
        kept = previous.get(name) if previous is not None else None
        expanded.append(kept if kept is not None and entity_id in kept.entity_ids
                        else Neighborhood(name, frozenset({entity_id})))
    return Cover(expanded, previous)


def build_total_cover(blocker, store: EntityStore,
                      relation_names: Optional[Iterable[str]] = None,
                      rounds: int = 1, validate: bool = True) -> Cover:
    """Convenience pipeline: run ``blocker`` then expand to a total cover.

    When ``validate`` is true the resulting cover is checked to be total with
    respect to the requested relations and a :class:`CoverError` is raised
    otherwise — a cheap sanity check that catches mis-configured relation
    names early.
    """
    base_cover = blocker.build_cover(store)
    total = expand_to_total_cover(base_cover, store, relation_names, rounds)
    if validate:
        validate_total(total, store, relation_names)
    return total


def validate_total(cover: Cover, store: EntityStore,
                   relation_names: Optional[Iterable[str]] = None) -> None:
    """Raise :class:`CoverError` unless ``cover`` is total w.r.t. the relations."""
    names = list(relation_names) if relation_names is not None else store.relation_names()
    missing = cover.uncovered_tuples(store, names)
    if missing:
        relation, tuples = next(iter(missing.items()))
        raise CoverError(
            f"boundary expansion failed to produce a total cover: relation {relation!r} "
            f"has {len(tuples)} uncovered tuples (e.g. {tuples[0]})"
        )
