"""Property and unit tests for the incremental counting engine.

The naive :class:`GroundNetwork` ``score``/``delta`` methods are the reference
implementation; :class:`WorldState` must agree with them — to floating-point
tolerance — for *arbitrary* networks and add sequences, and the counting
inference engine must produce byte-identical match sets to the naive engine
(``tests/reference/inference.py``) on well-behaved (supermodular) networks,
warm-started or not.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datamodel import EntityPair
from repro.mln import (
    GreedyCollectiveInference,
    GroundNetwork,
    GroundRule,
    MarkovLogicNetwork,
    WorldState,
)
from tests.reference.grounding import section2_example_rules, support_graph
from tests.reference.inference import NaiveCollectiveInference
from tests.util import (
    build_chain_store,
    build_shared_coauthor_store,
    build_support_pair_store,
    build_two_hop_store,
    chain_pair,
    leveled_rules,
    pair,
    two_hop_rules,
    weighted_rules,
)

TOLERANCE = 1e-9

ENTITY_IDS = [f"e{i}" for i in range(6)]
ALL_PAIRS = [EntityPair.of(a, b) for a, b in combinations(ENTITY_IDS, 2)]


def ground(store, rules):
    return MarkovLogicNetwork(rules).ground(store)


# ----------------------------------------------------------- strategies
weights = st.floats(min_value=-10.0, max_value=10.0,
                    allow_nan=False, allow_infinity=False)


@st.composite
def groundings(draw, supermodular: bool = False):
    head = draw(st.sampled_from(ALL_PAIRS))
    body = frozenset(draw(st.sets(st.sampled_from(ALL_PAIRS), max_size=3))) - {head}
    weight = draw(weights)
    if supermodular and body:
        # Supermodularity requires non-negative weights on multi-pair
        # groundings (Proposition 4's shape); single-pair groundings may be
        # arbitrarily negative.
        weight = abs(weight)
    return GroundRule(rule_name="r", weight=weight, head_pair=head,
                      body_pairs=body)


def networks(supermodular: bool = False):
    return st.lists(groundings(supermodular=supermodular),
                    max_size=20).map(lambda gs: GroundNetwork(gs, ALL_PAIRS))


add_sequences = st.lists(st.sampled_from(ALL_PAIRS), max_size=12)


# ------------------------------------------------- score/delta parity
class TestWorldStateParity:
    @given(network=networks(), sequence=add_sequences)
    @settings(max_examples=120, deadline=None)
    def test_score_tracks_naive_score_along_any_add_sequence(self, network, sequence):
        state = WorldState(network)
        world = set()
        for added in sequence:
            state.add(added)
            world.add(added)
            assert state.score == pytest.approx(network.score(world), abs=TOLERANCE)
            assert state.world == frozenset(world)

    @given(network=networks(), sequence=add_sequences,
           probe=st.sampled_from(ALL_PAIRS))
    @settings(max_examples=120, deadline=None)
    def test_delta_single_equals_naive_delta(self, network, sequence, probe):
        state = WorldState(network, initial=sequence)
        world = frozenset(sequence)
        assert state.delta_single(probe) == pytest.approx(
            network.delta_single(probe, world), abs=TOLERANCE)

    @given(network=networks(), sequence=add_sequences,
           group=st.sets(st.sampled_from(ALL_PAIRS), max_size=5))
    @settings(max_examples=120, deadline=None)
    def test_group_delta_equals_naive_delta(self, network, sequence, group):
        state = WorldState(network, initial=sequence)
        world = frozenset(sequence)
        assert state.delta(group) == pytest.approx(
            network.delta(group, world), abs=TOLERANCE)

    @given(network=networks(), sequence=add_sequences)
    @settings(max_examples=60, deadline=None)
    def test_add_returns_the_delta_it_causes(self, network, sequence):
        state = WorldState(network)
        for added in sequence:
            expected = state.delta_single(added)
            assert state.add(added) == pytest.approx(expected, abs=TOLERANCE)


class TestWorldStateBasics:
    def network(self):
        return ground(build_support_pair_store(), weighted_rules(-5.0, 8.0))

    def test_empty_state(self):
        state = WorldState(self.network())
        assert state.score == 0.0
        assert len(state) == 0
        assert state.world == frozenset()

    def test_re_adding_is_a_noop(self):
        state = WorldState(self.network())
        first = state.add(pair("a1", "a2"))
        assert state.add(pair("a1", "a2")) == 0.0
        assert state.score == pytest.approx(first)

    def test_non_candidate_pairs_join_silently(self):
        state = WorldState(self.network())
        assert state.add(pair("zz1", "zz2")) == 0.0
        assert pair("zz1", "zz2") in state
        # naive semantics agree: unknown pairs never change any grounding
        assert state.score == pytest.approx(self.network().score(state.world))

    def test_copy_is_independent(self):
        state = WorldState(self.network())
        clone = state.copy()
        clone.add(pair("a1", "a2"))
        assert pair("a1", "a2") not in state
        assert state.score == 0.0
        assert clone.score == pytest.approx(
            self.network().score({pair("a1", "a2")}))

    def test_add_all_totals_the_gains(self):
        network = self.network()
        both = [pair("a1", "a2"), pair("b1", "b2")]
        state = WorldState(network)
        gained = state.add_all(both)
        assert gained == pytest.approx(network.score(both))
        assert gained == pytest.approx(6.0)  # 2·(−5) + 2·8

    def test_initial_world_is_scored(self):
        network = self.network()
        state = WorldState(network, initial=[pair("a1", "a2")])
        assert state.score == pytest.approx(network.score({pair("a1", "a2")}))


class TestNetworkIndexViews:
    def test_affected_pairs_mirrors_support_graph(self):
        network = ground(build_chain_store(4, level=2),
                         leveled_rules(-2.28, -3.84, 12.75, 2.46))
        graph = support_graph(network)
        for candidate in network.candidates:
            assert network.affected_pairs(candidate) == frozenset(graph[candidate])

    def test_grounding_views_are_aligned(self):
        network = ground(build_support_pair_store(), weighted_rules(-5.0, 8.0))
        assert len(network.grounding_weights) == len(network.groundings)
        assert len(network.grounding_sizes) == len(network.groundings)
        for index, grounding in enumerate(network.groundings):
            assert network.grounding_weights[index] == grounding.weight
            assert network.grounding_sizes[index] == len(grounding.pairs())
            for queried in grounding.pairs():
                assert index in network.touching_indexes(queried)


# ------------------------------------------------- inference parity
def infer_both(network, options=None, **kwargs):
    """The shipped engine and the ``tests/reference/inference.py`` oracle."""
    options = options or {}
    counting = GreedyCollectiveInference(**options).infer(network, **kwargs)
    naive = NaiveCollectiveInference(**options).infer(network, **kwargs)
    return counting, naive


ENGINES = (GreedyCollectiveInference, NaiveCollectiveInference)


class TestCountingInferenceParity:
    FIXTURES = [
        (build_shared_coauthor_store(), section2_example_rules()),
        (build_support_pair_store(), weighted_rules(-5.0, 8.0)),
        (build_support_pair_store(), weighted_rules(-20.0, 8.0)),
        (build_chain_store(4, level=2), leveled_rules(-2.28, -3.84, 12.75, 2.46)),
        (build_chain_store(6, level=2), leveled_rules(-2.28, -3.84, 12.75, 2.46)),
        (build_two_hop_store()[0], two_hop_rules()),
    ]

    def test_identical_on_paper_fixtures(self):
        for store, rules in self.FIXTURES:
            network = ground(store, rules)
            counting, naive = infer_both(network)
            assert counting.matches == naive.matches, rules.names()
            assert counting.score == pytest.approx(naive.score)

    def test_identical_under_evidence(self):
        network = ground(build_support_pair_store(), weighted_rules(-20.0, 8.0))
        forced = pair("a1", "a2")
        counting, naive = infer_both(network, fixed_true=[forced])
        assert counting.matches == naive.matches
        blocked = pair("c1", "c2")
        network2 = ground(build_shared_coauthor_store(), section2_example_rules())
        counting2, naive2 = infer_both(network2, fixed_false=[blocked])
        assert counting2.matches == naive2.matches

    @given(network=networks(supermodular=True),
           evidence=st.sets(st.sampled_from(ALL_PAIRS), max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_identical_on_random_supermodular_networks(self, network, evidence):
        counting, naive = infer_both(network, fixed_true=evidence)
        assert counting.matches == naive.matches

    @given(network=networks(supermodular=True))
    @settings(max_examples=40, deadline=None)
    def test_identical_without_group_moves(self, network):
        counting, naive = infer_both(network, {"enable_group_moves": False})
        assert counting.matches == naive.matches

    @given(network=networks(supermodular=True),
           evidence=st.sets(st.sampled_from(ALL_PAIRS), max_size=3),
           blocked=st.sets(st.sampled_from(ALL_PAIRS), max_size=2),
           group_moves=st.booleans(), zero_gain=st.booleans(),
           warm_fraction=st.sampled_from([0.0, 0.5, 1.0]))
    @settings(max_examples=120, deadline=None)
    def test_identical_under_every_option(self, network, evidence, blocked,
                                          group_moves, zero_gain,
                                          warm_fraction):
        options = {"enable_group_moves": group_moves,
                   "accept_zero_gain_groups": zero_gain}
        clamps = {"fixed_true": evidence, "fixed_false": blocked}
        counting, naive = infer_both(network, options, **clamps)
        assert counting.matches == naive.matches
        # A warm start drawn from inside the cold answer reaches it again.
        ordered = sorted(naive.matches)
        warm = ordered[:int(len(ordered) * warm_fraction)]
        warm_counting, warm_naive = infer_both(network, options,
                                               warm_start=warm, **clamps)
        assert warm_counting.matches == warm_naive.matches == naive.matches


class TestWarmStartInference:
    def test_warm_equals_cold_on_fixtures(self):
        for store, rules in TestCountingInferenceParity.FIXTURES:
            network = ground(store, rules)
            for engine in ENGINES:
                inference = engine()
                cold = inference.infer(network)
                warm = inference.infer(network, warm_start=cold.matches)
                assert warm.matches == cold.matches
                assert warm.score == pytest.approx(cold.score)

    def test_warm_start_with_growing_evidence_matches_cold(self):
        """The message-passing pattern: chain results as evidence grows."""
        store = build_chain_store(6, level=2)
        network = ground(store, leveled_rules(-2.28, -3.84, 12.75, 2.46))
        ring = [chain_pair(i) for i in range(6)]
        for engine in ENGINES:
            inference = engine()
            previous = frozenset()
            for reveal in range(0, 7, 2):
                evidence = frozenset(ring[:reveal])
                warm = inference.infer(network, fixed_true=evidence,
                                       warm_start=previous)
                cold = inference.infer(network, fixed_true=evidence)
                assert warm.matches == cold.matches
                previous = warm.matches

    def test_warm_start_restricted_to_candidates(self):
        network = ground(build_support_pair_store(), weighted_rules(-5.0, 8.0))
        stray = pair("zz1", "zz2")
        result = GreedyCollectiveInference().infer(network, warm_start=[stray])
        assert stray not in result.matches

    def test_warm_start_never_overrides_fixed_false(self):
        network = ground(build_shared_coauthor_store(), section2_example_rules())
        blocked = pair("c1", "c2")
        result = GreedyCollectiveInference().infer(
            network, fixed_false=[blocked], warm_start=[blocked])
        assert blocked not in result.matches

    @given(network=networks(supermodular=True),
           evidence=st.sets(st.sampled_from(ALL_PAIRS), max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_warm_equals_cold_on_random_supermodular_networks(self, network, evidence):
        inference = GreedyCollectiveInference()
        cold = inference.infer(network, fixed_true=evidence)
        warm = inference.infer(network, fixed_true=evidence,
                               warm_start=cold.matches)
        assert warm.matches == cold.matches
