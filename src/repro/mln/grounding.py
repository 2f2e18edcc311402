"""Grounding: instantiate first-order rules against evidence facts.

A *grounding* of a rule binds every variable to an entity id (or constant)
such that all *evidence* atoms in the body hold among the facts.  What is left
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

Groundings are found once per base, not once per neighborhood.  A
neighborhood store is a restriction of a larger *base* (a ``StoreView`` of
its ``CompactStore``, an ``OverlayView`` of its ``StoreOverlay``), and its
evidence facts and candidate pairs are exactly the base's with every entity
inside.  So a grounding of the neighborhood is exactly a grounding of the
base whose *witness* — the entity ids it reads — lies inside the
neighborhood.  A :class:`BindingIndex` enumerates each (rule plan, candidate
head) once against the base, keeps the keys it finds with their witnesses,
and hands every restriction the slice its members keep; overlapping
neighborhoods share the join work instead of repeating it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import AbstractSet, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..datamodel import EntityPair
from ..obs import registry as obs_registry
from .database import GroundTuple, GroundValue
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
    #: ``bound`` with each position's bucket key, ``(predicate, position)``.
    lookups: Tuple[Tuple[int, int, Tuple[str, int]], ...]
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
    #: Slots a grounding reads entity ids from: the variables and string
    #: constants of every evidence atom and of every ``equals`` atom of two
    #: slots, bar the seed's (a slice only asks for heads inside it).  The
    #: string values they hold in a binding are its witness.
    witness: Tuple[int, ...]


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
        steps.append(_Step(predicate, slots, tuple(known),
                           tuple((position, index, (predicate, position))
                                 for position, index in known),
                           tuple(binds), tuple(repeats)))
        filters.append(due_filters())
    read = {index for step in steps for index in step.slots}
    read.update(index for pair in (head, *body) if pair[0] != pair[1]
                for index in pair)
    read.difference_update(seed or ())
    witness = tuple(sorted(index for index in read
                           if initial[index] is None or isinstance(initial[index], str)))
    return _RulePlan(rule.name, rule.weight, tuple(initial), seed,
                     tuple(steps), tuple(filters), head, body, witness)


#: Dedupe key of one grounding: ``(head_pair, body_pairs)``.
_Key = Tuple[EntityPair, FrozenSet[EntityPair]]
#: The witness slots' values in one binding.
_Read = Tuple[GroundValue, ...]
_NO_FACTS: FrozenSet[GroundTuple] = frozenset()
#: Groundings in canonical order, each with its witnesses (entity id sets).
_Entries = Tuple[Tuple[GroundRule, Tuple[FrozenSet[str], ...]], ...]


def _enumerate(plan: _RulePlan, facts, heads: Optional[Iterable[EntityPair]],
               witnessed: bool = True) -> Tuple[Dict[_Key, Optional[Set[_Read]]], int]:
    """Run ``plan`` depth-first over the fact source ``facts``: the distinct
    grounding keys it reaches, each with what the bindings that reach it
    hold in the witness slots (``None`` unless ``witnessed``).

    A seeded plan starts from each of ``heads``, both orientations; an
    unseeded one (``heads`` is ``None``) starts once.  Also returns the
    number of partial bindings enumerated (seeds plus joined facts) — the
    join work, of which the keys are the useful part.
    """
    partners, buckets, fact_set = facts.partners, facts.buckets, facts.fact_set
    slots = list(plan.initial)
    filters, steps, body = plan.filters, plan.steps, plan.body
    # The witness slots' values as a tuple (one slot listed twice, since a
    # lone index would make itemgetter return a bare value).
    read = None
    if witnessed:
        read = itemgetter(*plan.witness, *plan.witness[:1]) if plan.witness else lambda _: ()
    head_x, head_y = plan.head
    depth_of_emit = len(steps)
    found: Dict[_Key, Optional[Set[_Read]]] = defaultdict(set) if witnessed else {}
    bindings = 0

    def descend(depth: int) -> None:
        nonlocal bindings
        for a, b, is_head in filters[depth]:
            first, second = slots[a], slots[b]
            if first == second:
                if is_head:
                    return
            elif second not in partners[first]:
                return
        if depth == depth_of_emit:
            x, y = slots[head_x], slots[head_y]
            head_pair = partners[x][y]
            body_pairs = []
            for a, b in body:
                first, second = slots[a], slots[b]
                if first != second and not (
                        (first == x and second == y) or (first == y and second == x)):
                    body_pairs.append(partners[first][second])
            if read is None:
                found[head_pair, frozenset(body_pairs)] = None
            else:
                found[head_pair, frozenset(body_pairs)].add(read(slots))
            return
        step = steps[depth]
        bound = step.bound
        # An entity id picks the bucket; every other bound value is checked.
        for _, index, key in step.lookups:
            value = slots[index]
            if value.__class__ is str:
                facts_ = buckets[value].get(key, _NO_FACTS)
                check = bound if len(bound) > 1 else ()
                break
        else:
            facts_ = fact_set(step.predicate)
            check = bound
        if not step.binds:
            if tuple([slots[index] for index in step.slots]) in facts_:
                bindings += 1
                descend(depth + 1)
            return
        arity = len(step.slots)
        binds, repeats = step.binds, step.repeats
        for fact in facts_:
            if len(fact) != arity:
                continue
            for position, index in check:
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

    if heads is None:
        descend(0)
    else:
        seed_x, seed_y = plan.seed
        for head in heads:
            for first, second in ((head.first, head.second), (head.second, head.first)):
                slots[seed_x], slots[seed_y] = first, second
                bindings += 1
                descend(0)
    del descend  # a self-referencing closure: free what it holds now, not in the GC
    return found, bindings


def _canonical(key: _Key) -> Tuple:
    head_pair, body_pairs = key
    return (head_pair.first, head_pair.second,
            sorted((pair.first, pair.second) for pair in body_pairs))


_pair_order = attrgetter("first", "second")


def _entries(plan: _RulePlan, found: Dict[_Key, Set[_Read]]) -> _Entries:
    """``found``'s groundings in canonical order, each with its witnesses: the
    entity ids (string values) among the witness slots' values of a binding."""
    return tuple((GroundRule(plan.rule_name, plan.weight, *key),
                  tuple({frozenset([value for value in values if value.__class__ is str])
                         for values in read}))
                 for key, read in sorted(found.items(), key=lambda item: _canonical(item[0])))


class BindingIndex:
    """Every grounding of one fact source, found once per candidate head and
    handed out in slices.

    A seeded plan's groundings are enumerated per head the first time a
    slice holds that head, both orientations in one go; an unseeded plan's
    all at once, the first time a slice needs it.  Nothing is enumerated
    twice, so a batch of overlapping slices costs at most one grounding of
    the whole source.
    """

    def __init__(self, plans: Tuple[_RulePlan, ...], facts):
        self._plans = plans
        self._facts = facts
        # Per plan: head pair -> that head's entries, once enumerated (an
        # unseeded plan's are all filed under ``None``).
        self._by_head: List[Dict[Optional[EntityPair], _Entries]] = [{} for _ in plans]

    def slice(self, members: Optional[AbstractSet[str]]
              ) -> Tuple[List[GroundRule], List[EntityPair]]:
        """The groundings and the candidate pairs of the restriction to
        ``members`` (``None``: the whole source).

        Groundings come in canonical order — rule order, then head pair,
        then sorted body pairs — which is independent of hash seeds, so
        every process builds the same network and sums its weights in the
        same order.  It equals grounding the restriction itself: a grounding
        is kept when one of its witnesses lies inside ``members``.
        """
        facts = self._facts
        heads = sorted(facts.candidates() if members is None else (
            pair for member in members for other, pair in facts.partners[member].items()
            if other in members and pair.first == member), key=_pair_order)
        groundings: List[GroundRule] = []
        bindings = 0
        for plan, by_head in zip(self._plans, self._by_head):
            wanted = heads if plan.seed is not None else [None]
            runs = [by_head.get(head) for head in wanted]
            missing = [head for head, entries in zip(wanted, runs) if entries is None]
            if missing:
                found, joined = _enumerate(
                    plan, facts, missing if plan.seed is not None else None)
                bindings += joined
                per_head: Dict[Optional[EntityPair], Dict[_Key, Set[_Read]]] = \
                    {head: {} for head in missing}
                for key, reads in found.items():
                    per_head[key[0] if plan.seed is not None else None][key] = reads
                for head, keys in per_head.items():
                    by_head[head] = _entries(plan, keys)
                runs = [by_head[head] for head in wanted]
            for entries in runs:
                for grounding, witnesses in entries:
                    for witness in witnesses:
                        if members is None or members.issuperset(witness):
                            groundings.append(grounding)
                            break
        _BINDINGS.inc(bindings)
        _GROUNDINGS.inc(len(groundings))
        return groundings, heads


class Grounder:
    """Grounds a :class:`RuleSet` against a fact source.

    A fact source has ``candidates()``, the candidate pairs; two mappings
    that answer every entity id, ``partners[entity]`` (other end ->
    candidate pair) and ``buckets[entity]`` (``(predicate, position)`` ->
    the facts holding the entity there); and ``fact_set(predicate)``, every
    fact of a predicate.  :class:`~repro.mln.database.StoreFacts` reads them
    off a store.  One grounded whole is grounded by :meth:`ground`; one
    whose restrictions are, by a :class:`BindingIndex` of :attr:`plans`.
    """

    def __init__(self, rules: RuleSet):
        self.rules = rules
        self.plans = tuple(compile_rule(rule) for rule in rules)

    def ground(self, facts) -> Tuple[List[GroundRule], List[EntityPair]]:
        """Every grounding of the whole source that can possibly fire, in
        the canonical order of :meth:`BindingIndex.slice`, and the candidate
        pairs.  Nothing is kept for a later call: no witnesses, no per-head
        entries."""
        heads = list(facts.candidates())
        groundings: List[GroundRule] = []
        bindings = 0
        for plan in self.plans:
            found, joined = _enumerate(plan, facts, heads if plan.seed is not None else None,
                                       witnessed=False)
            bindings += joined
            groundings.extend(GroundRule(plan.rule_name, plan.weight, *key)
                              for key in sorted(found, key=_canonical))
        _BINDINGS.inc(bindings)
        _GROUNDINGS.inc(len(groundings))
        return groundings, heads
