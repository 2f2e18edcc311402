"""Shared builders for the test suite.

The builders construct small, fully-deterministic entity-matching instances
with known structure so that tests can assert exact outputs:

* :func:`build_shared_coauthor_store` — the Section 2.1 situation: two author
  records that are similar and share a literal coauthor, so the MLN matches
  them on the reflexivity-backed coauthor rule.
* :func:`build_support_pair_store` — two candidate pairs supporting each
  other through a coauthored paper (the basic collective 2-cycle).
* :func:`build_chain_store` — a ring of ``n`` authors, each co-authoring with
  the next, where every cross-source record pair is weakly similar: no proper
  subset of the ring's pairs is worth matching but the full ring is.  This is
  the chicken-and-egg structure of Section 5.2 that only MMP can resolve when
  the cover splits the ring.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.blocking import Cover, Neighborhood
from repro.datamodel import (
    COAUTHOR,
    Entity,
    EntityPair,
    EntityStore,
    Relation,
    make_author,
)
from repro.kernels.counters import COUNTERS as KERNEL_COUNTERS
from repro.mln import Rule, RuleSet, atom


@contextmanager
def kernel_work() -> Iterator[Dict[str, int]]:
    """Growth of this process's four ``kernel_*_total`` registry counters over
    the block, filled in on exit (work done in pool workers counts once the
    grid's reduce phase has folded their deltas in)."""
    before = {name: counter.value()
              for name, counter in KERNEL_COUNTERS.items()}
    work: Dict[str, int] = {}
    yield work
    work.update((name, int(counter.value() - before[name]))
                for name, counter in KERNEL_COUNTERS.items())


def add_coauthor_edges(store: EntityStore, edges: Sequence[Tuple[str, str]]) -> None:
    """Attach an explicit symmetric coauthor relation to ``store``."""
    relation = Relation(COAUTHOR, arity=2, symmetric=True)
    for first, second in edges:
        relation.add(first, second)
    store.add_relation(relation)


def weighted_rules(similar_weight: float, coauthor_weight: float) -> RuleSet:
    """A two-rule MLN program: level-free similarity plus coauthor support."""
    rules = RuleSet()
    rules.add(Rule(
        name="similar",
        body=(atom("similar", "x", "y"),),
        head=atom("equals", "x", "y"),
        weight=similar_weight,
    ))
    rules.add(Rule(
        name="coauthor",
        body=(
            atom("coauthor", "x", "c1"),
            atom("coauthor", "y", "c2"),
            atom("equals", "c1", "c2"),
        ),
        head=atom("equals", "x", "y"),
        weight=coauthor_weight,
    ))
    return rules


def leveled_rules(level1: float, level2: float, level3: float,
                  coauthor: float) -> RuleSet:
    """An Appendix-B-shaped program with custom weights (used by scheme tests)."""
    rules = RuleSet()
    for level, weight in ((1, level1), (2, level2), (3, level3)):
        rules.add(Rule(
            name=f"similar_{level}",
            body=(atom("similar", "e1", "e2", level),),
            head=atom("equals", "e1", "e2"),
            weight=weight,
        ))
    rules.add(Rule(
        name="coauthor",
        body=(
            atom("coauthor", "e1", "c1"),
            atom("coauthor", "e2", "c2"),
            atom("equals", "c1", "c2"),
        ),
        head=atom("equals", "e1", "e2"),
        weight=coauthor,
    ))
    return rules


def build_shared_coauthor_store() -> EntityStore:
    """Two similar records ``c1``/``c2`` sharing the literal coauthor ``d1``.

    With weights (-5, +8) the pair (c1, c2) is matched: the similarity rule
    costs 5 but the coauthor rule fires through the reflexive ``d1 = d1``.
    """
    store = EntityStore()
    store.add_entities([
        make_author("c1", "Carl", "Neumann"),
        make_author("c2", "Carl", "Neumann"),
        make_author("d1", "Dora", "Ivanova"),
    ])
    add_coauthor_edges(store, [("c1", "d1"), ("c2", "d1")])
    store.add_similarity(EntityPair.of("c1", "c2"), 0.97, 3)
    return store


def build_support_pair_store() -> EntityStore:
    """Two candidate pairs (a1,a2) and (b1,b2) supporting each other.

    ``a1`` co-authors with ``b1`` and ``a2`` with ``b2``; both cross pairs are
    similar.  Whether they are matched depends on whether twice the similarity
    weight plus twice the coauthor weight is positive.
    """
    store = EntityStore()
    store.add_entities([
        make_author("a1", "Alice", "Walker"),
        make_author("a2", "A.", "Walker"),
        make_author("b1", "Bob", "Keller"),
        make_author("b2", "B.", "Keller"),
    ])
    add_coauthor_edges(store, [("a1", "b1"), ("a2", "b2")])
    store.add_similarity(EntityPair.of("a1", "a2"), 0.9, 1)
    store.add_similarity(EntityPair.of("b1", "b2"), 0.9, 1)
    return store


def chain_pair(index: int) -> EntityPair:
    """The cross-source record pair of ring author ``index``."""
    return EntityPair.of(f"x{index}-s0", f"x{index}-s1")


def build_chain_store(length: int = 4, level: int = 2) -> EntityStore:
    """A ring of ``length`` authors, two records each, weak cross-source pairs.

    Author ``i`` co-authors with author ``(i+1) % length``; the records of
    both appear in each of the two sources, so the coauthor relation links
    ``xi-s0 — x(i+1)-s0`` and ``xi-s1 — x(i+1)-s1``.  Every cross-source pair
    ``(xi-s0, xi-s1)`` has similarity level ``level``.
    """
    if length < 3:
        raise ValueError("a chain needs at least 3 authors")
    store = EntityStore()
    for index in range(length):
        for source in (0, 1):
            store.add_entity(make_author(
                f"x{index}-s{source}", "J.", f"Ring{index}", source=f"s{source}"))
    edges: List[Tuple[str, str]] = []
    for index in range(length):
        neighbor = (index + 1) % length
        for source in (0, 1):
            edges.append((f"x{index}-s{source}", f"x{neighbor}-s{source}"))
    add_coauthor_edges(store, edges)
    for index in range(length):
        store.add_similarity(chain_pair(index), 0.9, level)
    return store


def chain_cover(length: int = 4, window: int = 3) -> Cover:
    """A cover of the ring store where each neighborhood sees ``window`` authors.

    Neighborhood ``i`` contains the records of authors ``i .. i+window-1``
    (mod ``length``); no neighborhood contains the whole ring, so no single
    matcher run can justify matching any pair on its own.
    """
    neighborhoods = []
    for start in range(length):
        members = set()
        for offset in range(window):
            index = (start + offset) % length
            members.add(f"x{index}-s0")
            members.add(f"x{index}-s1")
        neighborhoods.append(Neighborhood(f"ring-{start}", frozenset(members)))
    return Cover(neighborhoods)


#: Weights used together with :func:`build_two_hop_store` (see its docstring).
TWO_HOP_WEIGHTS = {"level1": -3.0, "level2": -6.0, "level3": 10.0, "coauthor": 4.0}


def two_hop_rules() -> RuleSet:
    """The rule set that makes :func:`build_two_hop_store` separate NO-MP from SMP."""
    return leveled_rules(TWO_HOP_WEIGHTS["level1"], TWO_HOP_WEIGHTS["level2"],
                         TWO_HOP_WEIGHTS["level3"], TWO_HOP_WEIGHTS["coauthor"])


def build_two_hop_store() -> Tuple[EntityStore, Cover]:
    """A 2-hop dependency that separates NO-MP from SMP (with :func:`two_hop_rules`).

    * (a1, a2) is weak (level 1, weight −3) and its only coauthor support is
      (b1, b2);
    * (b1, b2) is hard (level 2, weight −6); its supports are (a1, a2) plus
      the two strong pairs (c1, c2) and (d1, d2);
    * (c1, c2) and (d1, d2) are strong (level 3, weight +10).

    With coauthor weight +4, the neighborhood {a, b} can match nothing (the
    joint score of its two pairs is −3 − 6 + 2·4 = −1), while the
    neighborhood {b, c, d} matches c, d and then b (−6 + 2·4 = +2).  Once
    SMP delivers (b1, b2) as evidence, the {a, b} neighborhood matches
    (a1, a2) (−3 + 2·4 = +5).  NO-MP therefore misses (a1, a2); SMP finds it.
    """
    store = EntityStore()
    store.add_entities([
        make_author("a1", "A.", "Arnold"), make_author("a2", "Aaron", "Arnold"),
        make_author("b1", "B.", "Bishop"), make_author("b2", "Boris", "Bishop"),
        make_author("c1", "Clara", "Cohen"), make_author("c2", "Clara", "Cohen"),
        make_author("d1", "Dina", "Dorn"), make_author("d2", "Dina", "Dorn"),
    ])
    add_coauthor_edges(store, [
        ("a1", "b1"), ("a2", "b2"),      # A and B co-author (both sources)
        ("b1", "c1"), ("b2", "c2"),      # B and C co-author (both sources)
        ("b1", "d1"), ("b2", "d2"),      # B and D co-author (both sources)
    ])
    store.add_similarity(EntityPair.of("a1", "a2"), 0.90, 1)
    store.add_similarity(EntityPair.of("b1", "b2"), 0.90, 2)
    store.add_similarity(EntityPair.of("c1", "c2"), 0.99, 3)
    store.add_similarity(EntityPair.of("d1", "d2"), 0.99, 3)
    cover = Cover([
        Neighborhood("ab", frozenset({"a1", "a2", "b1", "b2"})),
        Neighborhood("bcd", frozenset({"b1", "b2", "c1", "c2", "d1", "d2"})),
    ])
    return store, cover


def build_path_store(length: int = 70) -> Tuple[EntityStore, Cover]:
    """A path of ``length`` neighborhoods for :func:`two_hop_rules`, each pair
    justified only by the pair before it.

    Author ``i`` has one record per source, ``pi-s0``/``pi-s1``, and
    co-authors with author ``i+1`` in both sources.  The head pair of author
    0 is strong (level 3); every other pair is hard (level 2: −6 alone,
    −6 + 8 = +2 once the previous pair is evidence).  Neighborhood ``i``
    holds authors ``i-1`` and ``i``, so after the first round (pairs 0 and
    1) each round of SMP adds one pair: the fixpoint, all ``length`` pairs,
    is ``length - 1`` rounds away.
    """
    store = EntityStore()
    for index in range(length):
        for source in (0, 1):
            store.add_entity(make_author(f"p{index}-s{source}", "P.",
                                         f"Path{index}", source=f"s{source}"))
    add_coauthor_edges(store, [(f"p{index}-s{source}", f"p{index + 1}-s{source}")
                               for index in range(length - 1)
                               for source in (0, 1)])
    neighborhoods = []
    for index in range(length):
        store.add_similarity(EntityPair.of(f"p{index}-s0", f"p{index}-s1"),
                             0.99 if index == 0 else 0.90, 3 if index == 0 else 2)
        authors = (index - 1, index) if index else (index,)
        neighborhoods.append(Neighborhood(f"path-{index:03d}", frozenset(
            f"p{author}-s{source}" for author in authors for source in (0, 1))))
    return store, Cover(neighborhoods)


def pair(a: str, b: str) -> EntityPair:
    """Terse pair constructor for test assertions."""
    return EntityPair.of(a, b)
