"""Rule representation for the Dedupalog-style RULES matcher.

The paper's second matcher (Appendix B/C) is based on the declarative
Dedupalog framework of Arasu, Ré and Suciu: users state hard and soft rules in
a datalog-like language, the engine instantiates the ``equals`` predicate so
that no hard rule is violated and the number of violated soft rules is
minimised, and the result is transitively closed.

This module defines the rule classes for the fragment the paper uses:

* :class:`HardEqualityRule` — ``equals(x, y) <= SomePredicate(x, y)`` (hard):
  an externally supplied equality (e.g. a curated mapping) that must hold.
* :class:`SoftSimilarityRule` — the paper's family of soft positive rules:
  a pair with discretised similarity level ``level`` is matched when it has at
  least ``min_coauthor_support`` *distinct* pairs of already-matched
  (or identical) coauthors.  The Appendix-B program is exactly the three
  instances ``(level=3, support=0)``, ``(level=2, support=1)`` and
  ``(level=1, support=2)``.
* :class:`SoftNegativeRule` — a soft rule voting *against* matching a pair
  (e.g. "authors without any shared coauthor are unlikely to be equal").
  Negative soft rules are resolved by correlation clustering.

The positive fragment without negative rules is monotone (Proposition 5),
which is what the framework's soundness guarantee needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..exceptions import RuleParseError


@dataclass(frozen=True)
class HardEqualityRule:
    """``equals(x, y) <= source_relation(x, y)`` as a hard constraint."""

    name: str
    source_relation: str

    def __post_init__(self) -> None:
        if not self.source_relation:
            raise ValueError("source_relation must be a non-empty relation name")


@dataclass(frozen=True)
class SoftSimilarityRule:
    """Soft positive rule parameterised by similarity level and coauthor support.

    ``equals(e1, e2)`` is derived when ``similar(e1, e2, level)`` holds and at
    least ``min_coauthor_support`` distinct pairs ``(c1, c2)`` of coauthors of
    ``e1`` and ``e2`` are already known equal (either matched or the same
    entity).
    """

    name: str
    level: int
    min_coauthor_support: int = 0

    def __post_init__(self) -> None:
        if self.level not in (1, 2, 3):
            raise ValueError(f"similarity level must be in {{1,2,3}}, got {self.level}")
        if self.min_coauthor_support < 0:
            raise ValueError("min_coauthor_support must be >= 0")


@dataclass(frozen=True)
class SoftNegativeRule:
    """Soft rule voting against a match.

    ``kind`` selects the built-in condition:

    * ``"no_shared_coauthor"`` — penalise matching a pair with no matched or
      shared coauthor (the example negative rule from Appendix A),
    * ``"low_similarity"`` — penalise matching a pair whose similarity level is
      below ``threshold_level``.

    ``weight`` is the cost of violating the rule, used by the correlation
    clustering objective.
    """

    name: str
    kind: str = "no_shared_coauthor"
    threshold_level: int = 1
    weight: float = 1.0

    _KINDS = ("no_shared_coauthor", "low_similarity")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown negative-rule kind {self.kind!r}; known: {self._KINDS}")
        if self.weight <= 0:
            raise ValueError("weight must be positive")


@dataclass
class DedupalogProgram:
    """A complete RULES program: hard rules, soft rules, negative rules."""

    hard_rules: List[HardEqualityRule] = field(default_factory=list)
    soft_rules: List[SoftSimilarityRule] = field(default_factory=list)
    negative_rules: List[SoftNegativeRule] = field(default_factory=list)
    transitive_closure: bool = True

    def validate(self) -> None:
        """Check that rule names are unique across the program."""
        names = self.rule_names()
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise RuleParseError(f"duplicate rule names in program: {sorted(duplicates)}")

    def is_monotone(self) -> bool:
        """Whether the program lies in the monotone fragment (Proposition 5).

        Negative rules and the transitive-closure *constraint* are the two
        features that can break monotonicity; taking the transitive closure
        *after* matching (the way the engine applies it) preserves it.
        """
        return not self.negative_rules

    def rule_names(self) -> List[str]:
        return ([r.name for r in self.hard_rules]
                + [r.name for r in self.soft_rules]
                + [r.name for r in self.negative_rules])


def paper_rules_program() -> DedupalogProgram:
    """The Appendix-B RULES program.

    * similarity 3 ⇒ match outright,
    * similarity 2 ⇒ match with at least one matching coauthor pair,
    * similarity 1 ⇒ match with at least two distinct matching coauthor pairs,
    * transitive closure applied at the end.
    """
    program = DedupalogProgram(
        soft_rules=[
            SoftSimilarityRule("similar3", level=3, min_coauthor_support=0),
            SoftSimilarityRule("similar2_coauthor", level=2, min_coauthor_support=1),
            SoftSimilarityRule("similar1_two_coauthors", level=1, min_coauthor_support=2),
        ],
        transitive_closure=True,
    )
    program.validate()
    return program
