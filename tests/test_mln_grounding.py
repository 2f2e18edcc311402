"""Tests for grounding and the ground network (scoring, deltas)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.datamodel import EntityPair, EntityStore, make_author
from repro.exceptions import MatcherError
from repro.mln import (
    Grounder,
    MarkovLogicNetwork,
    Rule,
    RuleSet,
    atom,
    const,
    paper_author_rules,
)
from repro.obs import registry as obs_registry
from tests.reference.database import database_from_store
from tests.reference.grounding import reference_ground, section2_example_rules, support_graph
from tests.util import (
    add_coauthor_edges,
    build_shared_coauthor_store,
    build_support_pair_store,
    pair,
    weighted_rules,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def ground(store, rules):
    return MarkovLogicNetwork(rules).ground(store)


class TestGrounding:
    def test_shared_coauthor_grounding(self):
        """The reflexive d1 = d1 coauthor grounding of Section 2.1 exists."""
        store = build_shared_coauthor_store()
        network = ground(store, section2_example_rules())
        c_pair = pair("c1", "c2")
        groundings = network.groundings_touching(c_pair)
        # R1 unit grounding plus the R2 grounding with empty body (via d1).
        names = sorted(g.rule_name for g in groundings)
        assert names == ["R1", "R2"]
        r2 = [g for g in groundings if g.rule_name == "R2"][0]
        assert r2.head_pair == c_pair
        assert r2.body_pairs == frozenset()

    def test_support_pair_grounding_is_mutual(self):
        store = build_support_pair_store()
        network = ground(store, weighted_rules(-5.0, 8.0))
        a_pair, b_pair = pair("a1", "a2"), pair("b1", "b2")
        coauthor_groundings = [g for g in network.groundings if g.rule_name == "coauthor"]
        heads = {g.head_pair for g in coauthor_groundings}
        assert heads == {a_pair, b_pair}
        for grounding in coauthor_groundings:
            assert grounding.body_pairs == {b_pair if grounding.head_pair == a_pair else a_pair}

    def test_symmetric_duplicates_are_deduplicated(self):
        """Reversed coauthor orderings must not double-count a grounding."""
        store = build_support_pair_store()
        network = ground(store, weighted_rules(-5.0, 8.0))
        coauthor_groundings = [g for g in network.groundings if g.rule_name == "coauthor"]
        assert len(coauthor_groundings) == 2  # one per head pair

    def test_non_candidate_heads_skipped(self):
        store = build_shared_coauthor_store()
        network = ground(store, section2_example_rules())
        for grounding in network.groundings:
            assert grounding.head_pair in network.candidates

    def test_paper_rules_levels_ground_separately(self):
        store = build_support_pair_store()  # both pairs are level 1
        network = ground(store, paper_author_rules())
        unit_rules = {g.rule_name for g in network.groundings if not g.body_pairs}
        assert "similar_1" in unit_rules
        assert "similar_3" not in unit_rules


#: Rule programs the plan compiler must handle like the nested-loop oracle.
PARITY_PROGRAMS = {
    "paper": paper_author_rules(),
    "section2": section2_example_rules(),
    "constant_in_body": RuleSet([Rule(
        "via_e0",
        (atom("coauthor", "x", const("e0")), atom("similar", "x", "y"),
         atom("coauthor", "y", "c"), atom("equals", "c", const("e0"))),
        atom("equals", "x", "y"), 1.5)]),
    "repeated_head_variable": RuleSet([Rule(
        "reflexive", (atom("coauthor", "x", "y"),), atom("equals", "x", "x"), 1.0)]),
    "constant_in_head": RuleSet([Rule(
        "to_e0", (atom("coauthor", "x", "c"), atom("equals", "c", const("e1"))),
        atom("equals", "x", const("e0")), 1.0)]),
    "self_join": RuleSet([Rule(
        "loop", (atom("coauthor", "x", "x"), atom("similar", "x", "y")),
        atom("equals", "x", "y"), 1.0)]),
    "two_equals_body": RuleSet([Rule(
        "square",
        (atom("coauthor", "x", "c1"), atom("coauthor", "y", "c2"),
         atom("coauthor", "c1", "d1"), atom("coauthor", "c2", "d2"),
         atom("equals", "c1", "c2"), atom("equals", "d1", "d2")),
        atom("equals", "x", "y"), 0.5)]),
}

ENTITY_IDS = [f"e{i}" for i in range(6)]
ID_PAIRS = st.tuples(st.sampled_from(ENTITY_IDS), st.sampled_from(ENTITY_IDS))


@st.composite
def small_stores(draw):
    store = EntityStore()
    store.add_entities([make_author(i, "A", f"N{i}") for i in ENTITY_IDS])
    # Self-loops included: coauthor(x, x) facts exercise repeated variables.
    add_coauthor_edges(store, draw(st.lists(ID_PAIRS, max_size=16)))
    similar = draw(st.dictionaries(
        ID_PAIRS.filter(lambda ab: ab[0] != ab[1]).map(lambda ab: EntityPair.of(*ab)),
        st.integers(1, 3), max_size=10))
    for candidate, level in similar.items():
        store.add_similarity(candidate, 0.9, level)
    return store


def grounding_set(groundings):
    keys = [(g.rule_name, g.weight, g.head_pair, g.body_pairs) for g in groundings]
    assert len(keys) == len(set(keys)), "duplicate grounding emitted"
    return set(keys)


@settings(max_examples=120, deadline=None)
@given(store=small_stores(), program=st.sampled_from(sorted(PARITY_PROGRAMS)))
def test_plan_matches_reference(store, program):
    """The compiled join plans ground exactly what the nested-loop oracle does."""
    rules = PARITY_PROGRAMS[program]
    planned = MarkovLogicNetwork(rules).ground(store).groundings
    assert grounding_set(planned) == grounding_set(
        reference_ground(rules, database_from_store(store)))
    # Canonical order: rule order, then head pair, then sorted body pairs.
    order = {name: index for index, name in enumerate(rules.names())}
    keys = [(order[g.rule_name], g.head_pair, sorted(g.body_pairs)) for g in planned]
    assert keys == sorted(keys)


def _counter_value(name):
    return obs_registry.registry().get(name).value()


class TestJoinWork:
    def test_no_candidates_means_no_bindings(self):
        """~300 coauthor tuples but no similarity edge: nothing to enumerate.

        The nested-loop join materialised |coauthor|^2 bindings here before
        discarding every one of them for lack of a candidate head.
        """
        store = EntityStore()
        ids = [f"a{i:02d}" for i in range(25)]
        store.add_entities([make_author(i, "A", f"N{i}") for i in ids])
        add_coauthor_edges(store, [(a, b) for i, a in enumerate(ids)
                                   for b in ids[i + 1:i + 7]])
        assert len(database_from_store(store).facts("coauthor")) >= 250
        before = _counter_value("mln_ground_bindings_total")
        assert not MarkovLogicNetwork(paper_author_rules()).ground(store).groundings
        assert _counter_value("mln_ground_bindings_total") == before

    def test_counters_report_bindings_and_groundings(self):
        store = build_support_pair_store()
        bindings = _counter_value("mln_ground_bindings_total")
        groundings = _counter_value("mln_groundings_total")
        emitted = MarkovLogicNetwork(weighted_rules(-5.0, 8.0)).ground(store).groundings
        assert _counter_value("mln_groundings_total") - groundings == len(emitted) == 4
        # Two candidates x two orientations x two rules seed 8 bindings; every
        # seed joins similar(x, y) or one coauthor of each side.
        assert _counter_value("mln_ground_bindings_total") - bindings == 20


class TestMalformedRules:
    def test_non_binary_equals_is_a_matcher_error(self):
        rule = Rule("wide", (atom("similar", "x", "y"), atom("equals", "x", "y", "z")),
                    atom("equals", "x", "y"), 1.0)
        with pytest.raises(MatcherError, match="must be binary"):
            RuleSet([rule])
        with pytest.raises(MatcherError, match="must be binary"):
            Grounder([rule])

    def test_query_variable_without_evidence_is_a_matcher_error(self):
        rule = Rule("dangling", (atom("coauthor", "e1", "c1"), atom("equals", "c1", "e2")),
                    atom("equals", "e1", "e2"), 1.0)
        with pytest.raises(MatcherError, match="bound by no evidence atom"):
            RuleSet([rule])
        with pytest.raises(MatcherError, match="bound by no evidence atom"):
            Grounder([rule])


GROUND_IN_SUBPROCESS = """
from repro.datasets import hepth_like
from repro.mln import MarkovLogicNetwork, paper_author_rules
network = MarkovLogicNetwork(paper_author_rules()).ground(hepth_like(scale=0.1).store)
for g in network.groundings:
    print(g.rule_name, g.head_pair, sorted(g.body_pairs))
"""


def test_grounding_order_is_independent_of_the_hash_seed():
    """Two processes with different PYTHONHASHSEED emit the same sequence."""
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=str(REPO_ROOT / "src"))
        outputs.append(subprocess.run(
            [sys.executable, "-c", GROUND_IN_SUBPROCESS], env=env, check=True,
            capture_output=True, text=True, timeout=120).stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n") > 50


class TestNetworkScoring:
    def test_score_of_empty_world(self):
        store = build_shared_coauthor_store()
        network = ground(store, section2_example_rules())
        assert network.score(()) == 0.0

    def test_section2_score_arithmetic(self):
        """Matching (c1, c2) changes the score by -5 + 8 = +3 (Section 2.1)."""
        store = build_shared_coauthor_store()
        network = ground(store, section2_example_rules())
        c_pair = pair("c1", "c2")
        assert network.score({c_pair}) == pytest.approx(3.0)
        assert network.delta_single(c_pair, ()) == pytest.approx(3.0)

    def test_support_pair_collective_score(self):
        """Two mutually supporting pairs: 2*(-5) + 2*8 = +6 together."""
        store = build_support_pair_store()
        network = ground(store, weighted_rules(-5.0, 8.0))
        a_pair, b_pair = pair("a1", "a2"), pair("b1", "b2")
        assert network.score({a_pair}) == pytest.approx(-5.0)
        assert network.score({a_pair, b_pair}) == pytest.approx(6.0)
        assert network.delta({b_pair}, {a_pair}) == pytest.approx(11.0)

    def test_delta_matches_score_difference(self):
        store = build_support_pair_store()
        network = ground(store, weighted_rules(-3.0, 2.0))
        a_pair, b_pair = pair("a1", "a2"), pair("b1", "b2")
        base = {a_pair}
        assert network.delta({b_pair}, base) == pytest.approx(
            network.score(base | {b_pair}) - network.score(base))

    def test_delta_of_already_present_pair_is_zero(self):
        store = build_support_pair_store()
        network = ground(store, weighted_rules(-3.0, 2.0))
        a_pair = pair("a1", "a2")
        assert network.delta({a_pair}, {a_pair}) == 0.0

    def test_explain_breakdown(self):
        store = build_shared_coauthor_store()
        network = ground(store, section2_example_rules())
        breakdown = network.explain({pair("c1", "c2")})
        assert breakdown == {"R1": pytest.approx(-5.0), "R2": pytest.approx(8.0)}

    def test_support_graph(self):
        store = build_support_pair_store()
        network = ground(store, weighted_rules(-5.0, 8.0))
        graph = support_graph(network)
        assert pair("b1", "b2") in graph[pair("a1", "a2")]

    def test_log_probability_equals_score(self):
        store = build_support_pair_store()
        network = ground(store, weighted_rules(-5.0, 8.0))
        world = {pair("a1", "a2")}
        assert network.log_probability(world) == network.score(world)

    def test_size(self):
        store = build_support_pair_store()
        network = ground(store, weighted_rules(-5.0, 8.0))
        size = network.size()
        assert size["candidates"] == 2
        assert size["groundings"] == 4
