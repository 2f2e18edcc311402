"""Tests for the MarkovLogicNetwork facade and the voted-perceptron learner."""

import pytest

from repro.datamodel import EntityPair, MatchSet
from repro.mln import (
    MarkovLogicNetwork,
    TrainingExample,
    VotedPerceptronLearner,
    paper_author_rules,
)
from tests.reference.grounding import section2_example_rules
from tests.reference.inference import exhaustive_map_state
from tests.util import (
    build_shared_coauthor_store,
    build_support_pair_store,
    pair,
    weighted_rules,
)


class TestMarkovLogicNetwork:
    def test_map_state_on_shared_coauthor_store(self):
        mln = MarkovLogicNetwork(rules=section2_example_rules())
        result = mln.map_state(build_shared_coauthor_store())
        assert result.matches == {pair("c1", "c2")}

    def test_score_and_delta(self):
        store = build_support_pair_store()
        mln = MarkovLogicNetwork(rules=weighted_rules(-5.0, 8.0))
        a_pair, b_pair = pair("a1", "a2"), pair("b1", "b2")
        assert mln.score(store, {a_pair, b_pair}) == pytest.approx(6.0)
        assert mln.score_delta(store, {a_pair}, {b_pair}) == pytest.approx(11.0)

    def test_network_reuse_via_argument(self):
        store = build_support_pair_store()
        mln = MarkovLogicNetwork(rules=weighted_rules(-5.0, 8.0))
        network = mln.ground(store)
        result = mln.map_state(store, network=network)
        assert result.matches == {pair("a1", "a2"), pair("b1", "b2")}

    def test_exhaustive_map_state(self):
        mln = MarkovLogicNetwork(rules=section2_example_rules())
        result = exhaustive_map_state(mln, build_shared_coauthor_store())
        assert result.matches == {pair("c1", "c2")}

    def test_with_weights_returns_new_model(self):
        mln = MarkovLogicNetwork(rules=paper_author_rules())
        updated = mln.with_weights({"coauthor": 9.0})
        assert updated.weights()["coauthor"] == 9.0
        assert mln.weights()["coauthor"] != 9.0

    def test_evidence_in_map_state(self):
        store = build_support_pair_store()
        mln = MarkovLogicNetwork(rules=weighted_rules(-20.0, 8.0))
        forced = pair("a1", "a2")
        result = mln.map_state(store, positive=[forced])
        assert forced in result.matches


class TestVotedPerceptronLearner:
    def test_learning_moves_weights_toward_truth(self):
        """Start from weights that match nothing; learning should raise them."""
        store = build_shared_coauthor_store()
        truth = frozenset({pair("c1", "c2")})
        example = TrainingExample(store=store, true_matches=truth)
        rules = weighted_rules(similar_weight=-5.0, coauthor_weight=1.0)
        learner = VotedPerceptronLearner(learning_rate=1.0, epochs=5)
        weights, report = learner.learn(rules, [example])
        # The learner pushes up the weights of rules that fire under the truth
        # but not under the (empty) prediction.
        assert weights["similar"] > -5.0
        assert weights["coauthor"] > 1.0
        assert report.epochs == 5
        assert len(report.weight_history) == 5

    def test_no_update_when_prediction_correct(self):
        store = build_shared_coauthor_store()
        truth = frozenset({pair("c1", "c2")})
        example = TrainingExample(store=store, true_matches=truth)
        rules = section2_example_rules()  # already predicts the truth
        learner = VotedPerceptronLearner(learning_rate=1.0, epochs=3)
        weights, report = learner.learn(rules, [example])
        assert weights == pytest.approx({"R1": -5.0, "R2": 8.0})
        assert report.training_errors == [0, 0, 0]

    def test_from_match_set_constructor(self):
        store = build_shared_coauthor_store()
        example = TrainingExample.from_match_set(store, MatchSet([pair("c1", "c2")]))
        assert example.true_matches == {pair("c1", "c2")}

    def test_requires_examples(self):
        with pytest.raises(ValueError):
            VotedPerceptronLearner().learn(section2_example_rules(), [])

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            VotedPerceptronLearner(learning_rate=0.0)
        with pytest.raises(ValueError):
            VotedPerceptronLearner(epochs=0)
