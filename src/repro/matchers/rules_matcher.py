"""The RULES matcher: Dedupalog-style declarative matching as a Type-I black box.

This is the paper's second matcher (Appendix B/C): three soft collective
rules evaluated to a least fixpoint followed by a transitive closure.  It is
deterministic (Type-I), monotone in the positive fragment, and fast — the
paper runs it on the full datasets directly, which is what makes the exact
soundness/completeness measurements of Figure 4 possible.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Optional

from ..datamodel import EntityPair, EntityStore, Evidence
from ..dedupalog import DedupalogEngine, DedupalogProgram, paper_rules_program
from .base import TypeIMatcher


class RulesMatcher(TypeIMatcher):
    """Declarative rule-based collective matcher (Type-I)."""

    name = "rules"

    def __init__(self, program: Optional[DedupalogProgram] = None,
                 coauthor_relation: str = "coauthor", clustering_seed: int = 0):
        self.program = program if program is not None else paper_rules_program()
        self.engine = DedupalogEngine(self.program, coauthor_relation=coauthor_relation,
                                      clustering_seed=clustering_seed)
        #: Number of times :meth:`match` has been invoked.
        self.match_calls = 0

    def match(self, store: EntityStore,
              evidence: Optional[Evidence] = None) -> FrozenSet[EntityPair]:
        evidence = evidence if evidence is not None else Evidence.empty()
        self.match_calls += 1
        positive, negative = evidence.pairs_inside(store.entity_ids())
        return self.engine.evaluate(store, positive=positive, negative=negative)

    @property
    def is_monotone_program(self) -> bool:
        """Whether the configured program lies in the monotone fragment."""
        return self.program.is_monotone()
