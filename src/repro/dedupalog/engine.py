"""Evaluation engine for RULES programs.

The engine evaluates a :class:`~repro.dedupalog.ast.DedupalogProgram` over an
:class:`~repro.datamodel.store.EntityStore`:

1. **Hard rules** seed the match set from external equality relations.
2. **Soft positive rules** are applied iteratively to a least fixpoint: a
   candidate pair is added as soon as some rule's similarity level and
   coauthor-support requirement are met.  Because rules only *add* matches,
   the fixpoint is unique and the evaluation is monotone in both the entity
   set and the positive evidence (Proposition 5).
3. **Soft negative rules**, when present, are reconciled with the positive
   matches by pivot correlation clustering (3-approximation).
4. **Transitive closure**, when the program requests it, is part of the
   positive fixpoint (closure-implied equalities support further rules) and
   follows the clustering otherwise; Appendix A: it preserves monotonicity.

Negative evidence pairs are never matched and are excluded from the closure's
input edges (they may still end up implied by the closure of other matches,
in which case they are dropped again — negative evidence is authoritative).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from ..datamodel import (
    COAUTHOR,
    DisjointSets,
    EntityPair,
    EntityStore,
    MatchSet,
    all_pairs,
)
from ..obs import registry as obs_registry
from .ast import DedupalogProgram
from .clustering import clusters_to_matches, pivot_correlation_clustering

_CANDIDATES = obs_registry.counter(
    "dedupalog_candidates_total", "Similarity edges classified by the RULES evaluator")
_SUPPORT_CHECKS = obs_registry.counter(
    "dedupalog_support_checks_total",
    "Pending candidates whose coauthor support was examined")

#: ``equal[x]``: the ids known equal to ``x`` — its matched partners, or, under
#: transitive closure, the member set of its component (``DisjointSets.index``).
_Equalities = Dict[str, Set[str]]


def _link(equal: _Equalities, first: str, second: str) -> None:
    equal.setdefault(first, set()).add(second)
    equal.setdefault(second, set()).add(first)


def _equal_coauthor_pairs(first_coauthors: Set[str], second_coauthors: Set[str],
                          equal: _Equalities,
                          barred: Set[Tuple[str, str]]) -> Set[Tuple[str, str]]:
    """Distinct unordered ``{c1, c2}``, ``c1 != c2``, one coauthor of each end,
    known equal and not ``barred`` (the paper's rule 3: ``{c1, c2} != {c3, c4}``)."""
    found: Set[Tuple[str, str]] = set()
    for c1 in first_coauthors:
        known = equal.get(c1)
        if known:
            for c2 in known & second_coauthors:
                key = (c1, c2) if c1 < c2 else (c2, c1)
                if c1 != c2 and key not in barred:
                    found.add(key)
    return found


class DedupalogEngine:
    """Evaluates a RULES program against an entity store."""

    def __init__(self, program: DedupalogProgram, coauthor_relation: str = COAUTHOR,
                 clustering_seed: int = 0):
        program.validate()
        self.program = program
        self.coauthor_relation = coauthor_relation
        self.clustering_seed = clustering_seed

    # ------------------------------------------------------------------ api
    def evaluate(self, store: EntityStore,
                 positive: Iterable[EntityPair] = (),
                 negative: Iterable[EntityPair] = ()) -> FrozenSet[EntityPair]:
        """Run the program and return the derived match set."""
        positive_set = frozenset(positive)
        negative_set = frozenset(negative) - positive_set
        seed = set(positive_set) | self._apply_hard_rules(store, negative_set)
        monotone = not self.program.negative_rules
        closed = self.program.transitive_closure
        matches = self._positive_rules(store, seed, negative_set, closed and monotone)
        if not monotone:
            matches = self._resolve_negative_rules(store, matches, negative_set)
            if closed:
                matches = MatchSet(matches).transitive_closure().pairs - negative_set
        return frozenset(matches)

    # ------------------------------------------------------------ hard rules
    def _apply_hard_rules(self, store: EntityStore,
                          negative: FrozenSet[EntityPair]) -> Set[EntityPair]:
        derived: Set[EntityPair] = set()
        for rule in self.program.hard_rules:
            if store.has_relation(rule.source_relation) \
                    and store.relation(rule.source_relation).arity == 2:
                derived.update(
                    EntityPair.of(first, second)
                    for first, second in store.relation(rule.source_relation)
                    if first != second)
        return derived - negative

    # ------------------------------------------------------- positive rules
    def _coauthors(self, store: EntityStore):
        """``entity id -> coauthor ids`` (empty without a coauthor relation)."""
        if not store.has_relation(self.coauthor_relation):
            return lambda entity_id: set()
        return store.relation(self.coauthor_relation).neighbors

    def _positive_rules(self, store: EntityStore, seed: Set[EntityPair],
                        negative: FrozenSet[EntityPair],
                        closed: bool) -> Set[EntityPair]:
        """Least fixpoint of the soft positive rules above ``seed``.

        One pass classifies every similarity edge — skipped, accepted, or
        *pending* on the coauthor support it still misses — and only the
        pending candidates are revisited, while a pass accepted something.
        With ``closed`` the transitive closure is part of the fixpoint:
        implied equalities count as support the moment a pair is accepted,
        and the implied pairs are written out once, at the end.  Negative
        evidence is never support and never output.  Rules and closure are
        both monotone in the match set, so any fair order of application
        reaches the same least fixpoint.
        """
        need: Dict[int, int] = {}       # level -> least support any rule asks
        for rule in self.program.soft_rules:
            need[rule.level] = min(rule.min_coauthor_support,
                                   need.get(rule.level, rule.min_coauthor_support))
        barred = {pair.as_tuple() for pair in negative}
        components = DisjointSets()
        equal: _Equalities = components.index if closed else {}
        unite = components.unite if closed else partial(_link, equal)
        for pair in seed:
            unite(pair.first, pair.second)

        neighbors = self._coauthors(store)
        coauthors: Dict[str, Set[str]] = {}     # fetched once per entity
        matches = set(seed)
        pending: List[Tuple[EntityPair, Set[str], Set[str], int]] = []
        edges = store.similarity_edges()
        for edge in edges:
            pair = edge.pair
            missing = need.get(edge.level)
            if missing is None or pair.second in equal.get(pair.first, ()) \
                    or pair in negative:
                continue
            if missing:
                for entity_id in pair:
                    if entity_id not in coauthors:
                        coauthors[entity_id] = neighbors(entity_id)
                first, second = coauthors[pair.first], coauthors[pair.second]
                # Literally shared coauthors support the pair from the start.
                missing -= len(first & second)
                if missing > 0:
                    if first and second:
                        pending.append((pair, first, second, missing))
                    continue
            unite(pair.first, pair.second)
            matches.add(pair)

        checks = 0
        progressed = True
        while pending and progressed:
            progressed = False
            waiting = []
            for candidate in pending:
                pair, first, second, missing = candidate
                if pair.second in equal.get(pair.first, ()):
                    continue            # implied by the closure meanwhile
                checks += 1
                if len(_equal_coauthor_pairs(first, second, equal, barred)) >= missing:
                    unite(pair.first, pair.second)
                    matches.add(pair)
                    progressed = True
                else:
                    waiting.append(candidate)
            pending = waiting
        _CANDIDATES.inc(len(edges))
        _SUPPORT_CHECKS.inc(checks)

        if closed:
            # A two-member component is the seeded or accepted pair itself;
            # only larger ones imply pairs nobody derived.
            for members in components.components():
                if len(members) > 2:
                    matches |= all_pairs(members)
            matches -= negative
        return matches

    # ------------------------------------------------------- negative rules
    def _negative_votes(self, store: EntityStore,
                        matches: Set[EntityPair]) -> Set[EntityPair]:
        """Pairs some negative rule votes against."""
        votes: Set[EntityPair] = set()
        for rule in self.program.negative_rules:
            if rule.kind == "no_shared_coauthor":
                neighbors = self._coauthors(store)
                equal: _Equalities = {}
                for pair in matches:
                    _link(equal, pair.first, pair.second)
                for pair in matches:
                    first, second = neighbors(pair.first), neighbors(pair.second)
                    if first.isdisjoint(second) and not _equal_coauthor_pairs(
                            first, second, equal, set()):
                        votes.add(pair)
            elif rule.kind == "low_similarity":
                for pair in matches:
                    if store.similarity_level(pair) < rule.threshold_level:
                        votes.add(pair)
        return votes

    def _resolve_negative_rules(self, store: EntityStore, matches: Set[EntityPair],
                                negative: FrozenSet[EntityPair]) -> Set[EntityPair]:
        votes = self._negative_votes(store, matches)
        if not votes and not negative:
            return matches
        nodes = {entity_id for pair in matches for entity_id in pair}
        clusters = pivot_correlation_clustering(
            nodes,
            positive_edges=[p for p in matches if p not in votes],
            negative_edges=set(votes) | set(negative),
            seed=self.clustering_seed,
        )
        clustered = clusters_to_matches(clusters)
        return {p for p in clustered if p not in negative}
