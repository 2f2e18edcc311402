"""Grounding: instantiate first-order rules against an evidence database.

A *grounding* of a rule binds every variable to an entity id (or constant)
such that all *evidence* atoms in the body hold in the database.  What is left
of the grounding is its query part:

* ``head_pair`` — the ``equals`` pair the rule concludes,
* ``body_pairs`` — the ``equals`` pairs the body still requires.

Scoring follows the paper's exposition (Section 2.1): a ground rule
*fires* — and contributes its weight — exactly when its remaining body pairs
and its head pair are all in the current match set.  Reflexive ``equals``
atoms (same entity on both sides) are always true and are dropped;
groundings whose head or body requires a pair that is not a candidate match
can never fire and are skipped.  Groundings that map to the same
``(rule, head_pair, body_pairs)`` triple are de-duplicated, which matches the
paper's arithmetic in the worked example (each supporting coauthor pair is
counted once).

This "fires" semantics is supermodular and monotone because all the mass a
match set can gain or lose by adding one more pair comes from groundings in
which that pair participates positively.

Each rule is compiled once into a *join plan* (:class:`_RulePlan`) that is
driven by the candidate pairs rather than by the evidence relations: the
only bindings ever enumerated are those whose head is a match decision that
exists, so the cost of a grounding is ``Σ over candidate pairs of the product
of the joined buckets`` (``deg·deg`` for the Appendix-B coauthor rule) and
never the cross product of two relations.  ``equals`` terms are entity ids:
they are compared and looked up as the ground values themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..datamodel import EntityPair
from ..obs import registry as obs_registry
from .database import EvidenceDatabase, GroundValue
from .logic import Atom, Constant, Rule, RuleSet, Term

_BINDINGS = obs_registry.counter(
    "mln_ground_bindings_total",
    "Partial bindings enumerated by the grounding joins (seeds + joined facts)")
_GROUNDINGS = obs_registry.counter(
    "mln_groundings_total", "Ground rules emitted by the grounder")


@dataclass(frozen=True)
class GroundRule:
    """A grounded rule: fires when ``body_pairs ⊆ M`` and ``head_pair ∈ M``."""

    rule_name: str
    weight: float
    head_pair: EntityPair
    body_pairs: FrozenSet[EntityPair]

    def fires(self, matches: FrozenSet[EntityPair]) -> bool:
        """Whether the grounding contributes its weight under match set ``matches``."""
        return self.head_pair in matches and self.body_pairs <= matches

    def pairs(self) -> FrozenSet[EntityPair]:
        """All query pairs this grounding depends on."""
        return self.body_pairs | {self.head_pair}


#: ``(position in the atom, binding slot)``
_Link = Tuple[int, int]
#: ``(slot, slot, is_head)`` — an ``equals`` atom checked as soon as both
#: slots are bound.  A body atom passes when reflexive or a candidate; the
#: head must be a non-reflexive candidate.
_Filter = Tuple[int, int, bool]


@dataclass(frozen=True)
class _Step:
    """Join one evidence atom into the partial binding."""

    predicate: str
    #: Slot of every term in written order (the arity is its length).
    slots: Tuple[int, ...]
    #: Positions whose slot is bound on arrival: index lookups, then equality.
    bound: Tuple[_Link, ...]
    #: First occurrence of each new variable: assigned from the joined fact.
    binds: Tuple[_Link, ...]
    #: Later occurrences of a new variable inside this atom: equality.
    repeats: Tuple[_Link, ...]


@dataclass(frozen=True)
class _RulePlan:
    """The compiled join of one rule.

    Variables and constants are integer *slots* of one flat list; constants
    are pre-filled, so at run time every term is a slot and whether a slot is
    bound at a given depth is known from compilation.
    """

    rule_name: str
    weight: float
    #: The slot list every enumeration starts from (constants filled in).
    initial: Tuple[Optional[GroundValue], ...]
    #: Head slots when the head is two distinct variables: the join is then
    #: seeded from the candidate pairs, both orientations.
    seed: Optional[Tuple[int, int]]
    steps: Tuple[_Step, ...]
    #: ``filters[d]`` run on arrival at depth ``d`` (``len(steps)`` = emit).
    filters: Tuple[Tuple[_Filter, ...], ...]
    head: Tuple[int, int]
    body: Tuple[Tuple[int, int], ...]


def compile_rule(rule: Rule) -> _RulePlan:
    """Compile ``rule`` into its join plan (raises ``MatcherError`` if malformed)."""
    rule.check_groundable()
    slot_of: Dict[Term, int] = {}
    initial: List[Optional[GroundValue]] = []
    bound: Set[int] = set()

    def slot(term: Term) -> int:
        index = slot_of.get(term)
        if index is None:
            index = slot_of[term] = len(initial)
            if isinstance(term, Constant):
                initial.append(term.value)
                bound.add(index)
            else:
                initial.append(None)
        return index

    def link(atom_: Atom) -> Tuple[int, ...]:
        return tuple(slot(term) for term in atom_.terms)

    head = link(rule.head)
    body = tuple(link(query_atom) for query_atom in rule.query_atoms())
    pending: List[_Filter] = [(a, b, False) for a, b in body]
    seed = None
    if head[0] != head[1] and not bound.intersection(head):
        seed = head
        bound.update(head)
    else:
        pending.append((head[0], head[1], True))

    def due_filters() -> Tuple[_Filter, ...]:
        due = tuple(f for f in pending if f[0] in bound and f[1] in bound)
        pending[:] = [f for f in pending if f not in due]
        return due

    filters = [due_filters()]
    steps: List[_Step] = []
    remaining = [(order, link(atom_), atom_.predicate)
                 for order, atom_ in enumerate(rule.evidence_atoms())]
    while remaining:
        # Greedy: pure membership tests first, then most bound positions,
        # ties in rule order — so every lookup is as index-driven as it can be.
        choice = min(remaining, key=lambda entry: (
            any(s not in bound for s in entry[1]),
            -sum(s in bound for s in entry[1]),
            entry[0]))
        remaining.remove(choice)
        _, slots, predicate = choice
        known: List[_Link] = []
        binds: List[_Link] = []
        repeats: List[_Link] = []
        fresh: Set[int] = set()
        for position, index in enumerate(slots):
            if index in bound:
                known.append((position, index))
            elif index in fresh:
                repeats.append((position, index))
            else:
                fresh.add(index)
                binds.append((position, index))
        bound.update(fresh)
        steps.append(_Step(predicate, slots, tuple(known), tuple(binds),
                           tuple(repeats)))
        filters.append(due_filters())
    return _RulePlan(rule.name, rule.weight, tuple(initial), seed,
                     tuple(steps), tuple(filters), head, body)


#: Dedupe key of one grounding: ``(head_pair, body_pairs)``.
_Key = Tuple[EntityPair, FrozenSet[EntityPair]]


def _enumerate(plan: _RulePlan,
               database: EvidenceDatabase) -> Tuple[Set[_Key], int]:
    """Run ``plan`` depth-first: the distinct grounding keys it reaches.

    Also returns the number of partial bindings enumerated (seeds plus joined
    facts) — the join work, of which the keys are the useful part.
    """
    candidates = database.candidate_index()
    slots = list(plan.initial)
    filters = plan.filters
    head_x, head_y = plan.head
    body = plan.body
    depth_of_emit = len(plan.steps)
    # Resolve each step's relation once per call, not once per binding.
    steps = [
        (step, database.fact_set(step.predicate),
         [(position, index, database.index_for(step.predicate, position))
          for position, index in step.bound])
        for step in plan.steps
    ]
    found: Set[_Key] = set()
    bindings = 0

    def descend(depth: int) -> None:
        nonlocal bindings
        for a, b, is_head in filters[depth]:
            first, second = slots[a], slots[b]
            if first == second:
                if is_head:
                    return
            elif (first, second) not in candidates:
                return
        if depth == depth_of_emit:
            head_pair = candidates[slots[head_x], slots[head_y]]
            body_pairs = []
            for a, b in body:
                first, second = slots[a], slots[b]
                if first != second:
                    pair = candidates[first, second]
                    if pair is not head_pair:
                        body_pairs.append(pair)
            found.add((head_pair, frozenset(body_pairs)))
            return
        step, facts, lookups = steps[depth]
        if not step.binds:
            if tuple([slots[index] for index in step.slots]) in facts:
                bindings += 1
                descend(depth + 1)
            return
        arity = len(step.slots)
        for _, index, by_value in lookups:
            bucket = by_value.get(slots[index], ())
            if len(bucket) < len(facts):
                facts = bucket
        check = lookups if len(lookups) > 1 else ()
        binds, repeats = step.binds, step.repeats
        for fact in facts:
            if len(fact) != arity:
                continue
            for position, index, _ in check:
                if fact[position] != slots[index]:
                    break
            else:
                for position, index in binds:
                    slots[index] = fact[position]
                for position, index in repeats:
                    if fact[position] != slots[index]:
                        break
                else:
                    bindings += 1
                    descend(depth + 1)

    if plan.seed is None:
        descend(0)
    else:
        seed_x, seed_y = plan.seed
        for first, second in candidates:
            slots[seed_x], slots[seed_y] = first, second
            bindings += 1
            descend(0)
    return found, bindings


def _canonical(key: _Key) -> Tuple:
    head_pair, body_pairs = key
    return (head_pair.first, head_pair.second,
            sorted((pair.first, pair.second) for pair in body_pairs))


class Grounder:
    """Grounds a :class:`RuleSet` against an :class:`EvidenceDatabase`."""

    def __init__(self, rules: RuleSet):
        self.rules = rules
        self._plans = tuple(compile_rule(rule) for rule in rules)

    def ground(self, database: EvidenceDatabase) -> List[GroundRule]:
        """Every grounding that can possibly fire, in canonical order.

        The order — rule order, then head pair, then sorted body pairs — is
        independent of hash seeds, so every process builds the same network
        and sums its weights in the same order.
        """
        groundings: List[GroundRule] = []
        bindings = 0
        for plan in self._plans:
            found, joined = _enumerate(plan, database)
            bindings += joined
            groundings.extend(
                GroundRule(plan.rule_name, plan.weight, head_pair, body_pairs)
                for head_pair, body_pairs in sorted(found, key=_canonical))
        _BINDINGS.inc(bindings)
        _GROUNDINGS.inc(len(groundings))
        return groundings
