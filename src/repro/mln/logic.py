"""First-order rule language for the MLN matcher.

The MLN matcher of Singla & Domingos, as used by the paper, is configured by
weighted implication rules such as (Appendix B)::

    similar(e1, e2, 3)                                   => equals(e1, e2)   12.75
    coauthor(e1, c1) ^ coauthor(e2, c2) ^ equals(c1, c2) => equals(e1, e2)    2.46

This module defines the small rule language: terms (variables / constants),
atoms, and weighted implication rules whose head is always the query predicate
``equals``.  Bodies mix *evidence* atoms (``similar``, ``coauthor``, ...) that
are grounded against the data, and *query* atoms (``equals``) whose truth is
decided by inference.

Proposition 4 of the paper shows that rules with at most one ``equals`` atom
in the body yield a monotone, supermodular matcher; :meth:`Rule.validate`
checks that restriction (it can be relaxed explicitly for experimentation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from ..exceptions import MatcherError

#: Name of the query predicate whose groundings inference decides.
QUERY_PREDICATE = "equals"


@dataclass(frozen=True)
class Variable:
    """A logical variable, e.g. ``e1``."""

    name: str

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


@dataclass(frozen=True)
class Constant:
    """A constant term, e.g. the similarity level ``3``."""

    value: Union[str, int]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return repr(self.value)


Term = Union[Variable, Constant]


def var(name: str) -> Variable:
    """Shorthand constructor for a :class:`Variable`."""
    return Variable(name)


def const(value: Union[str, int]) -> Constant:
    """Shorthand constructor for a :class:`Constant`."""
    return Constant(value)


@dataclass(frozen=True)
class Atom:
    """A predicate applied to terms, e.g. ``coauthor(e1, c1)``."""

    predicate: str
    terms: Tuple[Term, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))

    @property
    def is_query(self) -> bool:
        """Whether this atom is over the query predicate ``equals``."""
        return self.predicate == QUERY_PREDICATE

    def variables(self) -> FrozenSet[Variable]:
        return frozenset(term for term in self.terms if isinstance(term, Variable))

    def substitute(self, binding: Dict[Variable, str]) -> Tuple[Union[str, int], ...]:
        """Apply a variable binding, returning a tuple of ground values.

        Raises ``KeyError`` when a variable is unbound — grounding always binds
        all variables of an atom before substituting.
        """
        values: List[Union[str, int]] = []
        for term in self.terms:
            if isinstance(term, Constant):
                values.append(term.value)
            else:
                values.append(binding[term])
        return tuple(values)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        args = ", ".join(repr(t) for t in self.terms)
        return f"{self.predicate}({args})"


def atom(predicate: str, *terms: Union[Term, str, int]) -> Atom:
    """Build an :class:`Atom`, coercing bare strings to variables and ints to constants.

    Strings are treated as variable names (the common case when writing rules
    in code); wrap a string in :func:`const` to make it a constant.
    """
    coerced: List[Term] = []
    for term in terms:
        if isinstance(term, (Variable, Constant)):
            coerced.append(term)
        elif isinstance(term, int):
            coerced.append(Constant(term))
        else:
            coerced.append(Variable(term))
    return Atom(predicate, tuple(coerced))


@dataclass(frozen=True)
class Rule:
    """A weighted implication rule ``body => head``.

    ``head`` must be a query (``equals``) atom.  ``body`` may contain evidence
    atoms and query atoms; the monotone fragment allows at most one query atom
    in the body.
    """

    name: str
    body: Tuple[Atom, ...]
    head: Atom
    weight: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", tuple(self.body))
        if not self.head.is_query:
            raise MatcherError(
                f"rule {self.name!r}: the head must be an {QUERY_PREDICATE!r} atom, "
                f"got {self.head.predicate!r}"
            )
        # The evidence/query split is read on every grounding; compute it once.
        object.__setattr__(
            self, "_evidence_atoms", tuple(a for a in self.body if not a.is_query))
        object.__setattr__(
            self, "_query_atoms", tuple(a for a in self.body if a.is_query))

    def evidence_atoms(self) -> Tuple[Atom, ...]:
        return self._evidence_atoms

    def query_atoms(self) -> Tuple[Atom, ...]:
        return self._query_atoms

    def variables(self) -> FrozenSet[Variable]:
        variables = set(self.head.variables())
        for body_atom in self.body:
            variables |= body_atom.variables()
        return frozenset(variables)

    def is_monotone_fragment(self) -> bool:
        """At most one query atom in the body (Proposition 4)."""
        return len(self.query_atoms()) <= 1

    def validate(self, allow_non_monotone: bool = False) -> None:
        """Raise :class:`MatcherError` if the rule leaves the monotone fragment."""
        if not allow_non_monotone and not self.is_monotone_fragment():
            raise MatcherError(
                f"rule {self.name!r} has {len(self.query_atoms())} {QUERY_PREDICATE!r} atoms "
                "in its body; only one is allowed in the monotone fragment "
                "(pass allow_non_monotone=True to override)"
            )
        head_vars = self.head.variables()
        body_vars: set = set()
        for body_atom in self.body:
            body_vars |= body_atom.variables()
        unbound = head_vars - body_vars
        if unbound:
            raise MatcherError(
                f"rule {self.name!r}: head variables {sorted(v.name for v in unbound)} "
                "do not appear in the body and cannot be grounded"
            )

    def check_groundable(self) -> None:
        """Raise :class:`MatcherError` unless a join plan exists for the rule.

        Every ``equals`` atom (head included) must be binary, and each of its
        variables must be bound by some evidence atom of the body.
        """
        evidence_vars: set = set()
        for evidence_atom in self.evidence_atoms():
            evidence_vars |= evidence_atom.variables()
        for query_atom in (self.head, *self.query_atoms()):
            if len(query_atom.terms) != 2:
                raise MatcherError(
                    f"rule {self.name!r}: {query_atom!r} must be binary, "
                    f"got arity {len(query_atom.terms)}"
                )
            unbound = query_atom.variables() - evidence_vars
            if unbound:
                raise MatcherError(
                    f"rule {self.name!r}: variables {sorted(v.name for v in unbound)} "
                    f"of {query_atom!r} are bound by no evidence atom of the body"
                )

    def with_weight(self, weight: float) -> "Rule":
        """A copy of this rule carrying a different weight (used by learning)."""
        return Rule(self.name, self.body, self.head, weight)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = " ^ ".join(repr(a) for a in self.body)
        return f"Rule({self.name}: {body} => {self.head!r} [{self.weight:+.2f}])"


class RuleSet:
    """An ordered collection of rules with unique names."""

    def __init__(self, rules: Iterable[Rule] = ()):
        self._rules: List[Rule] = []
        self._by_name: Dict[str, Rule] = {}
        for rule in rules:
            self.add(rule)

    def add(self, rule: Rule) -> None:
        if rule.name in self._by_name:
            raise MatcherError(f"duplicate rule name {rule.name!r}")
        rule.validate(allow_non_monotone=True)
        rule.check_groundable()
        self._rules.append(rule)
        self._by_name[rule.name] = rule

    def __iter__(self):
        return iter(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def __getitem__(self, name: str) -> Rule:
        return self._by_name[name]

    def names(self) -> List[str]:
        return [rule.name for rule in self._rules]

    def weights(self) -> Dict[str, float]:
        return {rule.name: rule.weight for rule in self._rules}

    def with_weights(self, weights: Dict[str, float]) -> "RuleSet":
        """A copy of the rule set with per-rule weights replaced."""
        return RuleSet(
            rule.with_weight(weights.get(rule.name, rule.weight)) for rule in self._rules
        )

    def is_monotone_fragment(self) -> bool:
        return all(rule.is_monotone_fragment() for rule in self._rules)


#: The weights learnt by Alchemy and reported in Appendix B of the paper.
PAPER_WEIGHTS: Dict[str, float] = {
    "similar_1": -2.28,
    "similar_2": -3.84,
    "similar_3": 12.75,
    "coauthor": 2.46,
}


def paper_author_rules(weights: Optional[Dict[str, float]] = None) -> RuleSet:
    """The Appendix-B MLN program for author matching.

    Rules 1-3 connect the discretised similarity level to a match decision;
    rule 4 rewards matching a pair of authors who have a pair of matching
    coauthors.  ``weights`` overrides the paper's learnt weights.
    """
    w = dict(PAPER_WEIGHTS)
    if weights:
        w.update(weights)
    rules = RuleSet()
    for level in (1, 2, 3):
        rules.add(Rule(
            name=f"similar_{level}",
            body=(atom("similar", "e1", "e2", level),),
            head=atom(QUERY_PREDICATE, "e1", "e2"),
            weight=w[f"similar_{level}"],
        ))
    rules.add(Rule(
        name="coauthor",
        body=(
            atom("coauthor", "e1", "c1"),
            atom("coauthor", "e2", "c2"),
            atom(QUERY_PREDICATE, "c1", "c2"),
        ),
        head=atom(QUERY_PREDICATE, "e1", "e2"),
        weight=w["coauthor"],
    ))
    return rules
