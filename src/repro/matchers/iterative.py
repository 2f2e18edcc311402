"""Iterative relational matcher (Bhattacharya & Getoor / Dong et al. style).

Appendix D classifies collective approaches into *iterative* and
*purely-collective*.  Iterative matchers repeatedly re-score candidate pairs,
using already-made match decisions as extra relational evidence, until a
fixpoint; they are simple and monotone but suffer from the bootstrapping
problem (a chain of mutually-dependent matches is never entered).

This matcher scores a candidate pair as a weighted combination of its
attribute similarity and the number of matched (or shared) coauthor pairs,
and accepts pairs above a threshold.  It is included both as a literature
baseline and as a second well-behaved Type-I matcher for exercising the
framework.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple

from ..datamodel import COAUTHOR, EntityPair, EntityStore, Evidence
from .base import TypeIMatcher


@dataclass(frozen=True)
class IterativeMatcherConfig:
    """Scoring configuration for :class:`IterativeMatcher`.

    ``attribute_weight`` multiplies the raw similarity score (in [0, 1]);
    ``relational_weight`` multiplies the number of supporting coauthor pairs
    (capped at ``max_relational_support`` to avoid unbounded scores);
    ``match_threshold`` is the acceptance cut-off.
    """

    attribute_weight: float = 1.0
    relational_weight: float = 0.4
    max_relational_support: int = 3
    match_threshold: float = 1.05

    def __post_init__(self) -> None:
        if self.max_relational_support < 0:
            raise ValueError("max_relational_support must be >= 0")


class IterativeMatcher(TypeIMatcher):
    """Iteratively propagate match decisions through the coauthor relation."""

    name = "iterative"

    def __init__(self, config: Optional[IterativeMatcherConfig] = None,
                 coauthor_relation: str = COAUTHOR):
        self.config = config if config is not None else IterativeMatcherConfig()
        self.coauthor_relation = coauthor_relation
        self.match_calls = 0

    # --------------------------------------------------------------- scoring
    def _relational_support(self, store: EntityStore, pair: EntityPair,
                            matches: Set[EntityPair]) -> int:
        if not store.has_relation(self.coauthor_relation):
            return 0
        relation = store.relation(self.coauthor_relation)
        coauthors_a = relation.neighbors(pair.first)
        coauthors_b = relation.neighbors(pair.second)
        if not coauthors_a or not coauthors_b:
            return 0
        support: Set[Tuple[str, ...]] = set()
        for c1 in coauthors_a:
            for c2 in coauthors_b:
                if c1 == c2:
                    support.add((c1,))
                elif EntityPair.of(c1, c2) in matches:
                    support.add(tuple(sorted((c1, c2))))
        return min(len(support), self.config.max_relational_support)

    def pair_score(self, store: EntityStore, pair: EntityPair,
                   matches: Set[EntityPair]) -> float:
        """Combined attribute + relational score of ``pair`` given current matches."""
        edge = store.similarity(pair)
        attribute_score = edge.score if edge is not None else 0.0
        support = self._relational_support(store, pair, matches)
        return (self.config.attribute_weight * attribute_score
                + self.config.relational_weight * support)

    # -------------------------------------------------------------- matching
    def match(self, store: EntityStore,
              evidence: Optional[Evidence] = None) -> FrozenSet[EntityPair]:
        evidence = evidence if evidence is not None else Evidence.empty()
        self.match_calls += 1
        positive, negative = evidence.pairs_inside(store.entity_ids())
        matches: Set[EntityPair] = set(positive)
        candidates = [p for p in sorted(store.similar_pairs()) if p not in negative]
        changed = True
        while changed:
            changed = False
            for pair in candidates:
                if pair in matches:
                    continue
                if self.pair_score(store, pair, matches) >= self.config.match_threshold:
                    matches.add(pair)
                    changed = True
        return frozenset(matches)
