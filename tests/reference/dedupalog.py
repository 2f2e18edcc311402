"""Reference RULES evaluator: the sweep-and-close loop the pending loop replaced.

``DedupalogEngine`` below is the evaluator as it stood before the semi-naive
rewrite, verbatim: ``_positive_fixpoint`` re-sweeps every candidate pair until
nothing changes, re-deriving each coauthor cross product through
``EntityPair`` probes, and the monotone path interleaves that fixpoint with a
materialised ``MatchSet`` transitive closure until two pair sets compare
equal.  Kept here, out of ``src/``, as the oracle
:class:`repro.dedupalog.DedupalogEngine` is compared against — both must
return the identical frozenset for every store, program and evidence.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.datamodel import COAUTHOR, EntityPair, EntityStore, MatchSet
from repro.dedupalog.ast import DedupalogProgram, HardEqualityRule, SoftNegativeRule, SoftSimilarityRule
from repro.dedupalog.clustering import clusters_to_matches, pivot_correlation_clustering


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

        matches: Set[EntityPair] = set(p for p in positive_set if p not in negative_set)
        matches |= self._apply_hard_rules(store, negative_set)
        matches = self._positive_fixpoint(store, matches, negative_set)

        if self.program.negative_rules:
            matches = self._resolve_negative_rules(store, matches, negative_set)

        if self.program.transitive_closure:
            # Closure-derived equalities can enable further rule derivations
            # (they count as matched coauthor pairs), so closure and the
            # positive fixpoint are interleaved until nothing changes.  This is
            # the "transitive closure at the end of each iteration" treatment
            # of Appendix A and keeps the matcher monotone — and therefore the
            # holistic run a superset of any message-passing run.
            while True:
                closed = MatchSet(matches).transitive_closure().pairs
                closed = set(p for p in closed if p not in negative_set)
                expanded = self._positive_fixpoint(store, set(closed), negative_set) \
                    if not self.program.negative_rules else closed
                if expanded == matches:
                    break
                matches = expanded

        return frozenset(matches)

    # ------------------------------------------------------------ hard rules
    def _apply_hard_rules(self, store: EntityStore,
                          negative: FrozenSet[EntityPair]) -> Set[EntityPair]:
        derived: Set[EntityPair] = set()
        for rule in self.program.hard_rules:
            if not store.has_relation(rule.source_relation):
                continue
            relation = store.relation(rule.source_relation)
            if relation.arity != 2:
                continue
            for first, second in relation:
                if first == second:
                    continue
                pair = EntityPair.of(first, second)
                if pair not in negative:
                    derived.add(pair)
        return derived

    # ------------------------------------------------------- positive rules
    def _coauthor_support(self, store: EntityStore, pair: EntityPair,
                          matches: Set[EntityPair]) -> int:
        """Number of distinct coauthor pairs of ``pair`` that are known equal.

        A coauthor pair ``(c1, c2)`` supports the match when ``c1 == c2`` (a
        literally shared coauthor) or ``(c1, c2)`` is already in the match
        set.  Distinctness is over unordered coauthor pairs, as in the
        paper's rule 3 (``{c1, c2} != {c3, c4}``).
        """
        if not store.has_relation(self.coauthor_relation):
            return 0
        relation = store.relation(self.coauthor_relation)
        coauthors_first = relation.neighbors(pair.first)
        coauthors_second = relation.neighbors(pair.second)
        if not coauthors_first or not coauthors_second:
            return 0
        support: Set[Tuple[str, ...]] = set()
        for c1 in coauthors_first:
            for c2 in coauthors_second:
                if c1 == c2:
                    support.add((c1,))
                elif EntityPair.of(c1, c2) in matches:
                    support.add(tuple(sorted((c1, c2))))
        return len(support)

    def _positive_fixpoint(self, store: EntityStore, matches: Set[EntityPair],
                           negative: FrozenSet[EntityPair]) -> Set[EntityPair]:
        candidates = [pair for pair in sorted(store.similar_pairs())
                      if pair not in negative]
        soft_rules = sorted(self.program.soft_rules, key=lambda r: -r.level)
        changed = True
        while changed:
            changed = False
            for pair in candidates:
                if pair in matches:
                    continue
                level = store.similarity_level(pair)
                if level == 0:
                    continue
                support: Optional[int] = None
                for rule in soft_rules:
                    if rule.level != level:
                        continue
                    if rule.min_coauthor_support == 0:
                        matches.add(pair)
                        changed = True
                        break
                    if support is None:
                        support = self._coauthor_support(store, pair, matches)
                    if support >= rule.min_coauthor_support:
                        matches.add(pair)
                        changed = True
                        break
        return matches

    # ------------------------------------------------------- negative rules
    def _negative_votes(self, store: EntityStore,
                        matches: Set[EntityPair]) -> Set[EntityPair]:
        """Pairs some negative rule votes against."""
        votes: Set[EntityPair] = set()
        for rule in self.program.negative_rules:
            if rule.kind == "no_shared_coauthor":
                for pair in matches:
                    if self._coauthor_support(store, pair, matches) == 0:
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
