"""Pair-wise (non-relational) baseline matcher in the Fellegi–Sunter style.

Appendix D's survey starts with the classic non-relational approaches
(Newcombe; Fellegi & Sunter): each candidate pair is classified independently
from attribute similarity alone.  This matcher implements that baseline:

* each configured attribute comparison contributes a log-likelihood-ratio
  weight — ``log(m/u)`` on agreement and ``log((1-m)/(1-u))`` on
  disagreement, where ``m``/``u`` are the match/unmatch agreement
  probabilities;
* a pair is declared a match when its total weight exceeds a threshold.

It ignores relational information entirely, so it cannot disambiguate
same-name authors; the example applications use it to show the accuracy gap
to the collective matchers.  Positive evidence is unioned into the output and
negative evidence removed, which keeps the matcher trivially well-behaved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..datamodel import Entity, EntityPair, EntityStore, Evidence
from ..similarity import jaro_winkler_similarity
from .base import TypeIMatcher


@dataclass(frozen=True)
class AttributeComparison:
    """One attribute comparison in the Fellegi–Sunter model.

    Parameters
    ----------
    attribute:
        Entity attribute to compare.
    similarity:
        String similarity applied to the two values.
    agreement_threshold:
        Similarity at or above which the attribute is considered to agree.
    m_probability / u_probability:
        Probability of agreement among true matches / true non-matches.
    """

    attribute: str
    similarity: Callable[[str, str], float] = jaro_winkler_similarity
    agreement_threshold: float = 0.9
    m_probability: float = 0.95
    u_probability: float = 0.05

    def __post_init__(self) -> None:
        for probability in (self.m_probability, self.u_probability):
            if not 0.0 < probability < 1.0:
                raise ValueError("m/u probabilities must lie strictly between 0 and 1")

    @property
    def agreement_weight(self) -> float:
        return math.log(self.m_probability / self.u_probability)

    @property
    def disagreement_weight(self) -> float:
        return math.log((1.0 - self.m_probability) / (1.0 - self.u_probability))

    def weight(self, entity_a: Entity, entity_b: Entity) -> float:
        value_a = str(entity_a.get(self.attribute, ""))
        value_b = str(entity_b.get(self.attribute, ""))
        if not value_a and not value_b:
            return 0.0
        score = self.similarity(value_a, value_b)
        if score >= self.agreement_threshold:
            return self.agreement_weight
        return self.disagreement_weight


def default_author_comparisons() -> List[AttributeComparison]:
    """Default comparisons for author references: first and last name."""
    return [
        AttributeComparison("lname", m_probability=0.97, u_probability=0.02),
        AttributeComparison("fname", m_probability=0.90, u_probability=0.10,
                            agreement_threshold=0.85),
    ]


class PairwiseMatcher(TypeIMatcher):
    """Independent pair-wise classification of the candidate pairs."""

    name = "pairwise"

    def __init__(self, comparisons: Optional[Sequence[AttributeComparison]] = None,
                 match_threshold: float = 3.0):
        self.comparisons = list(comparisons) if comparisons is not None \
            else default_author_comparisons()
        if not self.comparisons:
            raise ValueError("at least one attribute comparison is required")
        self.match_threshold = match_threshold
        self.match_calls = 0

    def pair_weight(self, store: EntityStore, pair: EntityPair) -> float:
        """Total Fellegi–Sunter weight of one candidate pair."""
        entity_a = store.entity(pair.first)
        entity_b = store.entity(pair.second)
        return sum(comparison.weight(entity_a, entity_b) for comparison in self.comparisons)

    def match(self, store: EntityStore,
              evidence: Optional[Evidence] = None) -> FrozenSet[EntityPair]:
        evidence = evidence if evidence is not None else Evidence.empty()
        self.match_calls += 1
        positive, negative = evidence.pairs_inside(store.entity_ids())
        matches = set(positive)
        for pair in store.similar_pairs():
            if pair in negative or pair in matches:
                continue
            if self.pair_weight(store, pair) >= self.match_threshold:
                matches.add(pair)
        return frozenset(matches)
