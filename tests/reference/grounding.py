"""Reference grounder: the nested-loop join the compiled plans replaced.

Joins the evidence atoms in written order, materialising every binding as a
``dict``, and only then drops the bindings whose head or body pair is
reflexive or not a candidate.  Quadratic on rules whose evidence atoms share
no variable — kept here, out of ``src/``, as the oracle the plan-based
:class:`repro.mln.Grounder` is compared against.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.datamodel import EntityPair
from repro.matchers import MLNMatcher
from repro.mln import (QUERY_PREDICATE, Atom, Constant, GroundNetwork, GroundRule,
                       Rule, RuleSet, Variable, atom)
from tests.reference.database import EvidenceDatabase, database_from_store

Binding = Dict[Variable, object]


def _extend_bindings(bindings: List[Binding], atom_: Atom,
                     database: EvidenceDatabase) -> List[Binding]:
    """Join one evidence atom into the current set of partial bindings."""
    extended: List[Binding] = []
    arity = len(atom_.terms)
    for binding in bindings:
        bound_positions = {}
        for position, term in enumerate(atom_.terms):
            if isinstance(term, Constant):
                bound_positions[position] = term.value
            elif term in binding:
                bound_positions[position] = binding[term]
        for fact in database.lookup(atom_.predicate, bound_positions):
            if len(fact) != arity:
                continue
            new_binding = dict(binding)
            consistent = True
            for position, term in enumerate(atom_.terms):
                value = fact[position]
                if isinstance(term, Constant):
                    if term.value != value:
                        consistent = False
                        break
                else:
                    existing = new_binding.get(term)
                    if existing is None:
                        new_binding[term] = value
                    elif existing != value:
                        consistent = False
                        break
            if consistent:
                extended.append(new_binding)
    return extended


def _query_pair(atom_: Atom, binding: Binding) -> Optional[EntityPair]:
    """Ground a query atom to an :class:`EntityPair`, or ``None`` when reflexive."""
    first, second = (str(value) for value in atom_.substitute(binding))
    if first == second:
        return None
    return EntityPair.of(first, second)


def reference_ground_rule(rule: Rule, database: EvidenceDatabase) -> List[GroundRule]:
    """All groundings of ``rule`` that can possibly fire (arbitrary order)."""
    bindings: List[Binding] = [{}]
    for evidence_atom in rule.evidence_atoms():
        bindings = _extend_bindings(bindings, evidence_atom, database)
        if not bindings:
            return []

    groundings: List[GroundRule] = []
    seen: Set[Tuple[EntityPair, FrozenSet[EntityPair]]] = set()
    for binding in bindings:
        head_pair = _query_pair(rule.head, binding)
        if head_pair is None or not database.is_candidate(head_pair):
            continue
        body_pairs: Set[EntityPair] = set()
        possible = True
        for query_atom in rule.query_atoms():
            pair = _query_pair(query_atom, binding)
            if pair is None:
                continue  # reflexive equals in the body is always true
            if not database.is_candidate(pair):
                possible = False
                break
            if pair != head_pair:
                body_pairs.add(pair)
        key = (head_pair, frozenset(body_pairs))
        if not possible or key in seen:
            continue
        seen.add(key)
        groundings.append(GroundRule(rule.name, rule.weight, *key))
    return groundings


def reference_ground(rules: RuleSet, database: EvidenceDatabase) -> List[GroundRule]:
    """Ground every rule of the rule set with the nested-loop join."""
    groundings: List[GroundRule] = []
    for rule in rules:
        groundings.extend(reference_ground_rule(rule, database))
    return groundings


def reference_network(rules: RuleSet, store) -> GroundNetwork:
    """The oracle network of ``store``: its eager database grounded by the
    nested-loop join, each rule's groundings in canonical order (head pair,
    then sorted body pairs), rules in order."""
    database = database_from_store(store)
    groundings: List[GroundRule] = []
    for rule in rules:
        groundings.extend(sorted(
            reference_ground_rule(rule, database),
            key=lambda g: (g.head_pair.first, g.head_pair.second,
                           sorted((p.first, p.second) for p in g.body_pairs))))
    return GroundNetwork(groundings, database.candidates())


class ReferenceMLNMatcher(MLNMatcher):
    """The MLN matcher with every network grounded afresh by the oracle:
    no network cache, no binding index."""

    def network_for(self, store) -> GroundNetwork:
        return reference_network(self.mln.rules, store)


def section2_example_rules(similar_weight: float = -5.0,
                           coauthor_weight: float = 8.0) -> RuleSet:
    """The two-rule program of Section 2.1 (R1 with weight −5, R2 with weight +8).

    Used by tests to reproduce the worked example of the paper (matching the
    (a1,a2), (b2,b3), (c2,c3) chain changes the score by exactly +1).
    """
    rules = RuleSet()
    rules.add(Rule(
        name="R1",
        body=(atom("similar", "x", "y"),),
        head=atom(QUERY_PREDICATE, "x", "y"),
        weight=similar_weight,
    ))
    rules.add(Rule(
        name="R2",
        body=(
            atom("similar", "x1", "y1"),
            atom("coauthor", "x1", "x2"),
            atom("coauthor", "y1", "y2"),
            atom(QUERY_PREDICATE, "x2", "y2"),
        ),
        head=atom(QUERY_PREDICATE, "x1", "y1"),
        weight=coauthor_weight,
    ))
    return rules


def support_graph(network: GroundNetwork) -> Dict[EntityPair, Set[EntityPair]]:
    """Undirected graph connecting pairs that co-occur in some grounding:
    pairs in different connected components never influence each other."""
    graph: Dict[EntityPair, Set[EntityPair]] = {pair: set() for pair in network.candidates}
    for grounding in network.groundings:
        pairs = sorted(grounding.pairs())
        for i, first in enumerate(pairs):
            for second in pairs[i + 1:]:
                graph.setdefault(first, set()).add(second)
                graph.setdefault(second, set()).add(first)
    return graph
