"""Tests for MAP inference (greedy collective search and exhaustive reference)."""

import pytest

from repro.datamodel import EntityPair
from repro.exceptions import InferenceError
from repro.mln import (
    GreedyCollectiveInference,
    MarkovLogicNetwork,
)
from tests.reference.grounding import section2_example_rules
from tests.reference.inference import exhaustive_map
from tests.util import (
    build_chain_store,
    build_shared_coauthor_store,
    build_support_pair_store,
    chain_pair,
    leveled_rules,
    pair,
    weighted_rules,
)


def ground(store, rules):
    return MarkovLogicNetwork(rules).ground(store)


class TestGreedyInference:
    def test_shared_coauthor_pair_is_matched(self):
        network = ground(build_shared_coauthor_store(), section2_example_rules())
        result = GreedyCollectiveInference().infer(network)
        assert result.matches == {pair("c1", "c2")}
        assert result.score == pytest.approx(3.0)

    def test_negative_pair_not_matched(self):
        """With a prohibitive similarity weight nothing is matched."""
        network = ground(build_shared_coauthor_store(), weighted_rules(-20.0, 8.0))
        result = GreedyCollectiveInference().infer(network)
        assert result.matches == frozenset()

    def test_collective_two_cycle_found_by_group_move(self):
        """Neither pair is individually worth matching, together they are."""
        network = ground(build_support_pair_store(), weighted_rules(-5.0, 8.0))
        result = GreedyCollectiveInference().infer(network)
        assert result.matches == {pair("a1", "a2"), pair("b1", "b2")}
        assert result.score == pytest.approx(6.0)

    def test_group_moves_disabled_misses_the_cycle(self):
        network = ground(build_support_pair_store(), weighted_rules(-5.0, 8.0))
        inference = GreedyCollectiveInference(enable_group_moves=False)
        assert inference.infer(network).matches == frozenset()

    def test_chain_ring_matched_collectively(self):
        """A ring of level-2 pairs is only worth matching as a whole."""
        store = build_chain_store(length=4, level=2)
        network = ground(store, leveled_rules(-2.28, -3.84, 12.75, 2.46))
        result = GreedyCollectiveInference().infer(network)
        assert result.matches == {chain_pair(i) for i in range(4)}

    def test_positive_evidence_is_clamped_in(self):
        network = ground(build_support_pair_store(), weighted_rules(-20.0, 8.0))
        forced = pair("a1", "a2")
        result = GreedyCollectiveInference().infer(network, fixed_true=[forced])
        assert forced in result.matches

    def test_negative_evidence_is_clamped_out(self):
        network = ground(build_shared_coauthor_store(), section2_example_rules())
        blocked = pair("c1", "c2")
        result = GreedyCollectiveInference().infer(network, fixed_false=[blocked])
        assert blocked not in result.matches

    def test_positive_evidence_wins_over_negative(self):
        network = ground(build_shared_coauthor_store(), section2_example_rules())
        target = pair("c1", "c2")
        result = GreedyCollectiveInference().infer(
            network, fixed_true=[target], fixed_false=[target])
        assert target in result.matches

    def test_invalid_max_iterations(self):
        with pytest.raises(ValueError):
            GreedyCollectiveInference(max_iterations=0)


class TestExhaustiveMap:
    def test_agrees_with_greedy_on_small_instances(self):
        for store, rules in [
            (build_shared_coauthor_store(), section2_example_rules()),
            (build_support_pair_store(), weighted_rules(-5.0, 8.0)),
            (build_support_pair_store(), weighted_rules(-20.0, 8.0)),
            (build_chain_store(4, level=2), leveled_rules(-2.28, -3.84, 12.75, 2.46)),
        ]:
            network = ground(store, rules)
            greedy = GreedyCollectiveInference().infer(network)
            exact = exhaustive_map(network)
            assert greedy.score == pytest.approx(exact.score), rules.names()
            assert greedy.matches == exact.matches

    def test_respects_evidence(self):
        network = ground(build_support_pair_store(), weighted_rules(-20.0, 8.0))
        forced = pair("a1", "a2")
        result = exhaustive_map(network, fixed_true=[forced])
        assert forced in result.matches

    def test_candidate_limit(self):
        store = build_chain_store(length=20, level=2)
        network = ground(store, leveled_rules(-2.28, -3.84, 12.75, 2.46))
        with pytest.raises(InferenceError):
            exhaustive_map(network, max_candidates=10)
