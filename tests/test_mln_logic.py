"""Tests for repro.mln.logic and repro.mln.database."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datamodel import EntityPair
from repro.exceptions import MatcherError
from repro.mln import (
    PAPER_WEIGHTS,
    Rule,
    RuleSet,
    atom,
    const,
    paper_author_rules,
    var,
)
from tests.reference.database import EvidenceDatabase, database_from_store
from tests.reference.grounding import section2_example_rules
from tests.util import build_shared_coauthor_store


class TestTermsAndAtoms:
    def test_atom_coercion(self):
        a = atom("similar", "x", "y", 3)
        assert a.predicate == "similar"
        assert a.terms[0] == var("x")
        assert a.terms[2] == const(3)

    def test_atom_is_query(self):
        assert atom("equals", "x", "y").is_query
        assert not atom("similar", "x", "y").is_query

    def test_variables(self):
        a = atom("similar", "x", "y", 3)
        assert {v.name for v in a.variables()} == {"x", "y"}

    def test_substitute(self):
        a = atom("similar", "x", "y", 3)
        assert a.substitute({var("x"): "a", var("y"): "b"}) == ("a", "b", 3)

    def test_substitute_missing_binding(self):
        with pytest.raises(KeyError):
            atom("similar", "x", "y").substitute({var("x"): "a"})


class TestRules:
    def test_head_must_be_equals(self):
        with pytest.raises(MatcherError):
            Rule("bad", (atom("similar", "x", "y"),), atom("similar", "x", "y"), 1.0)

    def test_monotone_fragment_detection(self):
        rules = paper_author_rules()
        assert rules.is_monotone_fragment()
        non_monotone = Rule(
            "transitive",
            (atom("equals", "x", "y"), atom("equals", "y", "z")),
            atom("equals", "x", "z"),
            1.0,
        )
        assert not non_monotone.is_monotone_fragment()
        with pytest.raises(MatcherError):
            non_monotone.validate()
        non_monotone.validate(allow_non_monotone=True)

    def test_unbound_head_variable_rejected(self):
        rule = Rule("bad", (atom("similar", "x", "y"),), atom("equals", "x", "z"), 1.0)
        with pytest.raises(MatcherError):
            rule.validate()

    def test_with_weight(self):
        rule = paper_author_rules()["coauthor"]
        reweighted = rule.with_weight(5.0)
        assert reweighted.weight == 5.0
        assert rule.weight == PAPER_WEIGHTS["coauthor"]


class TestRuleSet:
    def test_paper_rules_weights(self):
        rules = paper_author_rules()
        assert rules.weights() == PAPER_WEIGHTS
        assert set(rules.names()) == {"similar_1", "similar_2", "similar_3", "coauthor"}

    def test_paper_rules_weight_override(self):
        rules = paper_author_rules({"coauthor": 5.0})
        assert rules["coauthor"].weight == 5.0
        assert rules["similar_3"].weight == PAPER_WEIGHTS["similar_3"]

    def test_duplicate_rule_name_rejected(self):
        rules = RuleSet()
        rules.add(Rule("r", (atom("similar", "x", "y"),), atom("equals", "x", "y"), 1.0))
        with pytest.raises(MatcherError):
            rules.add(Rule("r", (atom("similar", "x", "y"),), atom("equals", "x", "y"), 2.0))

    def test_with_weights_copy(self):
        rules = paper_author_rules()
        updated = rules.with_weights({"similar_1": 0.0})
        assert updated["similar_1"].weight == 0.0
        assert rules["similar_1"].weight == PAPER_WEIGHTS["similar_1"]

    def test_section2_rules(self):
        rules = section2_example_rules()
        assert rules["R1"].weight == -5.0
        assert rules["R2"].weight == 8.0


class TestEvidenceDatabase:
    def test_database_from_store(self):
        store = build_shared_coauthor_store()
        db = database_from_store(store)
        assert db.holds("similar", "c1", "c2", 3)
        assert db.holds("similar", "c2", "c1", 3)
        assert db.holds("coauthor", "c1", "d1")
        assert db.holds("coauthor", "d1", "c1")
        assert db.is_candidate(EntityPair.of("c1", "c2"))
        assert not db.is_candidate(EntityPair.of("c1", "d1"))

    def test_lookup_with_bindings(self):
        store = build_shared_coauthor_store()
        db = database_from_store(store)
        facts = db.lookup("coauthor", {0: "c1"})
        assert ("c1", "d1") in facts
        assert db.lookup("coauthor", {0: "nope"}) == frozenset()
        assert len(db.lookup("coauthor", {})) == 4
        assert db.lookup("coauthor", {0: "c1", 1: "d1"}) == {("c1", "d1")}
        assert db.lookup("coauthor", {0: "c1", 1: "c2"}) == frozenset()
        assert db.lookup("nope", {}) == db.lookup("nope", {0: "c1"}) == frozenset()
        # both arities of `similar` share the per-position buckets
        assert db.lookup("similar", {0: "c1", 1: "c2"}) == {
            ("c1", "c2"), ("c1", "c2", 3)}

    @settings(max_examples=100, deadline=None)
    @given(facts=st.lists(st.tuples(
               st.sampled_from(["coauthor", "similar"]),
               st.lists(st.sampled_from(["a", "b", "c", 1, 2]),
                        min_size=2, max_size=3).map(tuple))),
           built_early=st.lists(st.tuples(st.sampled_from(["coauthor", "similar"]),
                                          st.integers(0, 3))),
           split=st.integers(0, 20))
    def test_lazy_indexes_answer_like_eager_ones(self, facts, built_early, split):
        """Indexes are built on first request, yet every ``index_for`` and
        ``lookup`` answer equals one over all facts indexed up front -
        including facts added after an index was built."""
        db = EvidenceDatabase()
        for predicate, values in facts[:split]:
            db.add_fact(predicate, *values)
        for predicate, position in built_early:
            db.index_for(predicate, position)
        for predicate, values in facts[split:]:
            db.add_fact(predicate, *values)
        everything = {(predicate, values) for predicate, values in facts}
        for predicate in ("coauthor", "similar", "nope"):
            stored = {values for name, values in everything if name == predicate}
            for position in range(4):
                eager = {}
                for values in stored:
                    if position < len(values):
                        eager.setdefault(values[position], set()).add(values)
                assert dict(db.index_for(predicate, position)) == eager
                for value in ("a", 1, "zz"):
                    assert db.lookup(predicate, {position: value}) == \
                        eager.get(value, set())
            for bound in ({}, {0: "a", 1: "b"}, {0: 1, 2: "c"}):
                assert db.lookup(predicate, bound) == {
                    values for values in stored
                    if all(position < len(values) and values[position] == value
                           for position, value in bound.items())}

    def test_stats(self):
        db = database_from_store(build_shared_coauthor_store())
        stats = db.stats()
        assert stats["candidate_pairs"] == 1
        assert stats["facts"] > 0
