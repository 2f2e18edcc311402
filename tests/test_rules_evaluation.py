"""The RULES evaluator against its oracle, and the properties the grid leans on.

``repro.dedupalog.DedupalogEngine`` classifies every similarity edge once and
revisits only the candidates still pending on coauthor support, with the
transitive closure kept as a disjoint-set structure.  The evaluator it
replaced (``tests/reference/dedupalog.py``: sweep every candidate until
nothing changes, materialise the closure, repeat) must return the identical
frozenset for every store backend, program and evidence; the matcher built
on it must stay idempotent and monotone (Definitions 4/6 — what the tight
activation rule relies on); and the work must be bounded by the pending
list, not by sweeps × candidates.
"""

from __future__ import annotations

import os
import subprocess
import sys
from itertools import combinations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datamodel import CompactStore, EntityPair, EntityStore, Relation, make_author
from repro.dedupalog import (
    DedupalogEngine,
    DedupalogProgram,
    HardEqualityRule,
    SoftNegativeRule,
    SoftSimilarityRule,
    paper_rules_program,
)
from repro.matchers import RulesMatcher
from repro.matchers.properties import check_idempotence, check_monotonicity
from repro.obs import registry as obs_registry
from repro.streaming.overlay import StoreOverlay
from tests.reference.dedupalog import DedupalogEngine as ReferenceEngine
from tests.util import add_coauthor_edges

_LEVEL_SCORES = {1: 0.87, 2: 0.91, 3: 0.97}
_PAPER_SOFT = [(3, 0), (2, 1), (1, 2)]


def _program(soft=_PAPER_SOFT, hard=False, negative=(), closure=True):
    return DedupalogProgram(
        hard_rules=[HardEqualityRule("hard", "authoreq")] if hard else [],
        soft_rules=[SoftSimilarityRule(f"soft{index}", level, support)
                    for index, (level, support) in enumerate(soft)],
        negative_rules=[SoftNegativeRule(f"neg{index}", kind=kind, threshold_level=2)
                        for index, kind in enumerate(negative)],
        transitive_closure=closure)


MONOTONE_PROGRAMS = {
    "paper": lambda: paper_rules_program(),
    "closure-off": lambda: _program(closure=False),
    # Two rules on level 1: either firing suffices, so support 1 decides.
    "two-rules-one-level": lambda: _program(soft=_PAPER_SOFT + [(1, 1), (2, 3)]),
    "hard-rule": lambda: _program(hard=True),
    "hard-rule-closure-off": lambda: _program(hard=True, closure=False),
}
PROGRAMS = dict(MONOTONE_PROGRAMS, **{
    "no-shared-coauthor": lambda: _program(negative=["no_shared_coauthor"]),
    "low-similarity": lambda: _program(negative=["low_similarity"]),
    "negative-rules-closure-off": lambda: _program(
        negative=["no_shared_coauthor", "low_similarity"], closure=False),
})


@st.composite
def rule_instances(draw):
    """A random author instance: ids, dict store, and all its id pairs."""
    count = draw(st.integers(min_value=6, max_value=14))
    ids = [f"a{index:02d}" for index in range(count)]
    id_pairs = list(combinations(ids, 2))
    store = EntityStore()
    store.add_entities(make_author(entity_id, "J.", f"Name{entity_id}")
                       for entity_id in ids)
    add_coauthor_edges(store, draw(st.lists(
        st.sampled_from(id_pairs), max_size=3 * count, unique=True)))
    external = Relation("authoreq", arity=2)
    for first, second in draw(st.lists(st.sampled_from(id_pairs + [(ids[0], ids[0])]),
                                       max_size=3, unique=True)):
        external.add(first, second)
    store.add_relation(external)
    edges = draw(st.lists(
        st.tuples(st.sampled_from(id_pairs), st.integers(min_value=0, max_value=3)),
        max_size=2 * count, unique_by=lambda edge: edge[0]))
    for (first, second), level in edges:
        if level:           # level 0 is "no similarity edge"
            store.add_similarity(EntityPair.of(first, second),
                                 _LEVEL_SCORES[level], level)
    return ids, store, [EntityPair.of(*id_pair) for id_pair in id_pairs]


def _draw_evidence(data, store, id_pairs):
    """Random V+/V−, plus the two awkward cases on purpose.

    A pair of the unconstrained output asserted negative lands *inside* a
    would-be closure component whenever that component has three members,
    and one pair is asserted both ways (positive evidence wins).
    """
    pairs = st.lists(st.sampled_from(id_pairs), max_size=4, unique=True)
    positive, negative = set(data.draw(pairs)), set(data.draw(pairs))
    unconstrained = sorted(ReferenceEngine(paper_rules_program()).evaluate(store))
    if unconstrained and data.draw(st.booleans()):
        negative.add(data.draw(st.sampled_from(unconstrained)))
    if negative and data.draw(st.booleans()):
        positive.add(data.draw(st.sampled_from(sorted(negative))))
    return frozenset(positive), frozenset(negative)


def _mutated_overlay(data, base, ids, id_pairs):
    """A ``StoreOverlay`` with tuples, edges and an entity added and removed."""
    overlay = StoreOverlay(base)
    tuples = st.lists(st.sampled_from(id_pairs), max_size=4, unique=True)
    for pair in data.draw(tuples):
        overlay.add_tuple("coauthor", pair.as_tuple())
    for pair in data.draw(tuples):
        overlay.remove_tuple("coauthor", pair.as_tuple())
    for pair in data.draw(tuples):
        level = data.draw(st.integers(min_value=1, max_value=3))
        overlay.upsert_similarity(pair, _LEVEL_SCORES[level], level)
    for pair in data.draw(tuples):
        overlay.remove_similarity(pair)
    overlay.remove_entity(data.draw(st.sampled_from(ids)))
    return overlay


def _assert_parity(program_name, store, positive, negative):
    program = PROGRAMS[program_name]()
    expected = ReferenceEngine(program).evaluate(store, positive, negative)
    actual = DedupalogEngine(program).evaluate(store, positive, negative)
    assert actual == expected, program_name
    assert isinstance(actual, frozenset)


# -------------------------------------------------------------- oracle parity
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(instance=rule_instances(), data=st.data())
def test_evaluator_equals_the_reference_on_every_store_backend(instance, data):
    ids, store, id_pairs = instance
    positive, negative = _draw_evidence(data, store, id_pairs)
    subset = data.draw(st.lists(st.sampled_from(ids), min_size=2, unique=True))
    compact = CompactStore.from_store(store)
    overlay = _mutated_overlay(data, data.draw(st.sampled_from([store, compact])),
                               ids, id_pairs)
    inside = [entity_id for entity_id in subset if overlay.has_entity(entity_id)]
    stores = [store, store.restrict(subset), compact, compact.restrict(subset),
              compact.restrict(subset).restrict(subset[:-1]),
              overlay, overlay.restrict(inside)]
    for program_name in PROGRAMS:
        for candidate_store in stores:
            _assert_parity(program_name, candidate_store, positive, negative)


def test_negative_pair_inside_a_closure_component_is_dropped_not_counted():
    # a~b and b~c close to {a, b, c}; a~c is negative, so it is neither
    # output nor support for x~y, whose only coauthor pair is (a, c).
    store = EntityStore()
    store.add_entities(make_author(entity_id, "J.", "Doe")
                       for entity_id in ("a", "b", "c", "x", "y"))
    add_coauthor_edges(store, [("x", "a"), ("y", "c")])
    for first, second, level in (("a", "b", 3), ("b", "c", 3), ("x", "y", 2)):
        store.add_similarity(EntityPair.of(first, second), _LEVEL_SCORES[level], level)
    barred = [EntityPair.of("a", "c")]
    engine = DedupalogEngine(paper_rules_program())
    assert engine.evaluate(store) == {
        EntityPair.of("a", "b"), EntityPair.of("b", "c"), EntityPair.of("a", "c"),
        EntityPair.of("x", "y")}
    assert engine.evaluate(store, negative=barred) == {
        EntityPair.of("a", "b"), EntityPair.of("b", "c")}
    # Asserted both ways, positive evidence wins.
    assert EntityPair.of("x", "y") in engine.evaluate(
        store, positive=barred, negative=barred)
    for positive, negative in (((), ()), ((), barred), (barred, barred)):
        _assert_parity("paper", store, frozenset(positive), frozenset(negative))


# ------------------------------------------------- Definitions 4/6 on RULES
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(instance=rule_instances(), seed=st.integers(min_value=0, max_value=1000))
def test_rules_matcher_is_idempotent_and_monotone(instance, seed):
    _, store, _ = instance
    for program_name, build in MONOTONE_PROGRAMS.items():
        matcher = RulesMatcher(build())
        assert matcher.is_monotone_program
        for check in (check_idempotence, check_monotonicity):
            report = check(matcher, store, trials=3, seed=seed)
            assert report.ok, (program_name, [str(v) for v in report.violations])


# ------------------------------------------------------------------ work bound
def _counters():
    return (obs_registry.counter("dedupalog_candidates_total").value(),
            obs_registry.counter("dedupalog_support_checks_total").value())


def _level1_store(candidates):
    """``candidates`` level-1 pairs, each end with one private coauthor."""
    store = EntityStore()
    edges = []
    for index in range(candidates):
        names = [f"{role}{index:03d}" for role in ("l", "r", "lc", "rc")]
        store.add_entities(make_author(name, "J.", f"Name{index}") for name in names)
        edges += [(names[0], names[2]), (names[1], names[3])]
    add_coauthor_edges(store, edges)
    for index in range(candidates):
        store.add_similarity(EntityPair.of(f"l{index:03d}", f"r{index:03d}"),
                             _LEVEL_SCORES[1], 1)
    return store


def test_unsupported_candidates_are_examined_once_not_once_per_sweep():
    store = _level1_store(200)
    engine = DedupalogEngine(paper_rules_program())
    before = _counters()
    assert engine.evaluate(store) == frozenset()
    classified, checked = (after - start for after, start in zip(_counters(), before))
    # One classification per edge, one support check per pending candidate,
    # and no second pass because the first accepted nothing.
    assert (classified, checked) == (200, 200)


def test_only_pending_candidates_are_revisited():
    # A chain: l0~r0 is level 3; candidate k (level 2) is supported only by
    # candidate k-1 being matched, and the edge list holds them in reverse.
    store = EntityStore()
    length = 6
    for index in range(length):
        store.add_entities([make_author(f"l{index}", "J.", "Doe"),
                            make_author(f"r{index}", "J.", "Doe")])
    add_coauthor_edges(store, [(f"{side}{index}", f"{side}{index - 1}")
                               for index in range(1, length) for side in "lr"])
    for index in reversed(range(length)):
        level = 3 if index == 0 else 2
        store.add_similarity(EntityPair.of(f"l{index}", f"r{index}"),
                             _LEVEL_SCORES[level], level)
    before = _counters()
    matches = DedupalogEngine(paper_rules_program()).evaluate(store)
    assert matches == {EntityPair.of(f"l{index}", f"r{index}")
                       for index in range(length)}
    classified, checked = (after - start for after, start in zip(_counters(), before))
    # Pass k accepts one link of the chain and re-examines only what is left:
    # 5 + 4 + 3 + 2 + 1 checks for 5 pending candidates, never the level-3 pair.
    assert (classified, checked) == (length, 15)
    _assert_parity("paper", store, frozenset(), frozenset())


# ------------------------------------------------------- hash-seed independence
_HASHSEED_SCRIPT = """
from repro.datasets import dblp_tiny
from repro.datamodel import Evidence
from repro.matchers import RulesMatcher
store = dblp_tiny().store
candidates = sorted(store.similar_pairs())
evidence = Evidence.of(positive=candidates[::7], negative=candidates[3::7])
print(sorted(pair.as_tuple() for pair in RulesMatcher().match(store, evidence)))
"""


def test_evaluation_does_not_depend_on_the_hash_seed():
    outputs = []
    for hash_seed in ("1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", _HASHSEED_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1] and len(outputs[0]) > 10
