"""Tests for the Dedupalog rule language, parser, clustering and engine."""

import pytest

from repro.datamodel import EntityPair, EntityStore, Relation, make_author
from repro.dedupalog import (
    DedupalogEngine,
    DedupalogProgram,
    HardEqualityRule,
    PAPER_RULES_TEXT,
    SoftNegativeRule,
    SoftSimilarityRule,
    clustering_cost,
    clusters_to_matches,
    parse_program,
    paper_rules_program,
    pivot_correlation_clustering,
)
from repro.exceptions import RuleParseError
from tests.util import add_coauthor_edges, pair


class TestAst:
    def test_paper_program_structure(self):
        program = paper_rules_program()
        assert len(program.soft_rules) == 3
        assert program.transitive_closure
        assert program.is_monotone()
        levels = {(r.level, r.min_coauthor_support) for r in program.soft_rules}
        assert levels == {(3, 0), (2, 1), (1, 2)}

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            SoftSimilarityRule("bad", level=5)

    def test_invalid_negative_rule_kind(self):
        with pytest.raises(ValueError):
            SoftNegativeRule("bad", kind="nonsense")

    def test_duplicate_names_rejected(self):
        program = DedupalogProgram(soft_rules=[
            SoftSimilarityRule("r", level=3),
            SoftSimilarityRule("r", level=2, min_coauthor_support=1),
        ])
        with pytest.raises(RuleParseError):
            program.validate()

    def test_negative_rules_break_monotone_fragment(self):
        program = DedupalogProgram(negative_rules=[SoftNegativeRule("n")])
        assert not program.is_monotone()

    def test_hard_rule_requires_relation_name(self):
        with pytest.raises(ValueError):
            HardEqualityRule("h", source_relation="")


class TestParser:
    def test_parse_paper_rules_text(self):
        program = parse_program(PAPER_RULES_TEXT)
        assert len(program.soft_rules) == 3
        supports = sorted((r.level, r.min_coauthor_support) for r in program.soft_rules)
        assert supports == [(1, 2), (2, 1), (3, 0)]

    def test_parse_hard_rule(self):
        program = parse_program("equals(x, y) <= AuthorEQ(x, y).")
        assert len(program.hard_rules) == 1
        assert program.hard_rules[0].source_relation == "AuthorEQ"

    def test_parse_negative_rules(self):
        text = """
        !equals(x, y) <- no_shared_coauthor(x, y).
        !equals(x, y) <- low_similarity(x, y, 2).
        """
        program = parse_program(text)
        assert len(program.negative_rules) == 2
        assert program.negative_rules[1].threshold_level == 2

    def test_comments_and_blank_lines_ignored(self):
        program = parse_program("% just a comment\n\nequals(x,y) <- similar(x,y,3).")
        assert len(program.soft_rules) == 1

    def test_bad_head_rejected(self):
        with pytest.raises(RuleParseError):
            parse_program("matches(x, y) <- similar(x, y, 3).")

    def test_missing_operator_rejected(self):
        with pytest.raises(RuleParseError):
            parse_program("equals(x, y) : similar(x, y, 3).")

    def test_soft_rule_without_similar_rejected(self):
        with pytest.raises(RuleParseError):
            parse_program("equals(x, y) <- coauthor(x, c).")


class TestClustering:
    def test_positive_edges_cluster_together(self):
        clusters = pivot_correlation_clustering(
            ["a", "b", "c", "d"],
            positive_edges=[pair("a", "b"), pair("b", "c")],
            negative_edges=[],
        )
        by_node = {node: i for i, cluster in enumerate(clusters) for node in cluster}
        # The pivot algorithm is an approximation: it clusters b with at least
        # one of its positive neighbours, and never pulls in the isolated d.
        assert by_node["b"] in (by_node["a"], by_node["c"])
        assert all(by_node["d"] != by_node[n] for n in ("a", "b", "c"))

    def test_isolated_positive_component_fully_clustered(self):
        clusters = pivot_correlation_clustering(
            ["a", "b"], positive_edges=[pair("a", "b")], negative_edges=[])
        assert frozenset({"a", "b"}) in clusters

    def test_negative_edge_respected_from_pivot(self):
        clusters = pivot_correlation_clustering(
            ["a", "b"],
            positive_edges=[pair("a", "b")],
            negative_edges=[pair("a", "b")],
        )
        by_node = {node: i for i, cluster in enumerate(clusters) for node in cluster}
        assert by_node["a"] != by_node["b"]

    def test_all_nodes_clustered_exactly_once(self):
        nodes = ["a", "b", "c", "d", "e"]
        clusters = pivot_correlation_clustering(nodes, [pair("a", "b")], [])
        flattened = [node for cluster in clusters for node in cluster]
        assert sorted(flattened) == nodes

    def test_clusters_to_matches(self):
        matches = clusters_to_matches([frozenset({"a", "b", "c"}), frozenset({"x"})])
        assert matches == {pair("a", "b"), pair("a", "c"), pair("b", "c")}

    def test_clustering_cost(self):
        clusters = [frozenset({"a", "b"}), frozenset({"c"})]
        cost = clustering_cost(clusters,
                               positive_edges=[pair("a", "c")],
                               negative_edges=[pair("a", "b")])
        assert cost == pytest.approx(2.0)


def build_rules_store():
    """Three authors x 2 sources: A level 3, B level 2, C level 1."""
    store = EntityStore()
    store.add_entities([
        make_author("a1", "Alice", "Adams"), make_author("a2", "Alice", "Adams"),
        make_author("b1", "B.", "Berg"), make_author("b2", "Bruno", "Berg"),
        make_author("c1", "C.", "Cole"), make_author("c2", "Carla", "Cole"),
    ])
    add_coauthor_edges(store, [
        ("a1", "b1"), ("a2", "b2"),           # A-B co-authorship in both sources
        ("a1", "c1"), ("a2", "c2"),           # A-C co-authorship in both sources
        ("b1", "c1"), ("b2", "c2"),           # B-C co-authorship in both sources
    ])
    store.add_similarity(pair("a1", "a2"), 0.99, 3)
    store.add_similarity(pair("b1", "b2"), 0.91, 2)
    store.add_similarity(pair("c1", "c2"), 0.88, 1)
    return store


class TestEngine:
    def test_level3_matched_unconditionally(self):
        store = build_rules_store()
        engine = DedupalogEngine(paper_rules_program())
        matches = engine.evaluate(store)
        assert pair("a1", "a2") in matches

    def test_level2_needs_one_support_and_gets_it(self):
        store = build_rules_store()
        matches = DedupalogEngine(paper_rules_program()).evaluate(store)
        # B's support is the already-matched A pair (shared coauthors).
        assert pair("b1", "b2") in matches

    def test_level1_needs_two_supports(self):
        store = build_rules_store()
        matches = DedupalogEngine(paper_rules_program()).evaluate(store)
        # C is supported by both the A pair and the B pair.
        assert pair("c1", "c2") in matches

    def test_level1_not_matched_without_support(self):
        store = EntityStore()
        store.add_entities([make_author("c1", "C.", "Cole"), make_author("c2", "Carla", "Cole")])
        store.add_similarity(pair("c1", "c2"), 0.88, 1)
        matches = DedupalogEngine(paper_rules_program()).evaluate(store)
        assert matches == frozenset()

    def test_positive_evidence_respected(self):
        store = EntityStore()
        store.add_entities([make_author("c1", "C.", "Cole"), make_author("c2", "Carla", "Cole")])
        store.add_similarity(pair("c1", "c2"), 0.88, 1)
        matches = DedupalogEngine(paper_rules_program()).evaluate(
            store, positive=[pair("c1", "c2")])
        assert pair("c1", "c2") in matches

    def test_negative_evidence_respected(self):
        store = build_rules_store()
        matches = DedupalogEngine(paper_rules_program()).evaluate(
            store, negative=[pair("a1", "a2")])
        assert pair("a1", "a2") not in matches

    def test_transitive_closure_applied(self):
        store = build_rules_store()
        # Add a third record of author A, similar to a1 only.
        store.add_entity(make_author("a3", "Alice", "Adams"))
        store.add_similarity(pair("a1", "a3"), 0.99, 3)
        matches = DedupalogEngine(paper_rules_program()).evaluate(store)
        assert pair("a2", "a3") in matches  # implied by closure

    def test_closure_can_be_disabled(self):
        program = paper_rules_program()
        program.transitive_closure = False
        store = build_rules_store()
        store.add_entity(make_author("a3", "Alice", "Adams"))
        store.add_similarity(pair("a1", "a3"), 0.99, 3)
        matches = DedupalogEngine(program).evaluate(store)
        assert pair("a2", "a3") not in matches

    def test_hard_rule_seeds_matches(self):
        store = build_rules_store()
        external = Relation("authoreq", arity=2)
        external.add("c1", "c2")
        store.add_relation(external)
        program = DedupalogProgram(
            hard_rules=[HardEqualityRule("hard", "authoreq")],
            soft_rules=list(paper_rules_program().soft_rules),
        )
        matches = DedupalogEngine(program).evaluate(store)
        assert pair("c1", "c2") in matches

    def test_negative_rule_triggers_clustering(self):
        store = EntityStore()
        store.add_entities([
            make_author("x1", "Xenia", "Xu"), make_author("x2", "Xenia", "Xu"),
        ])
        store.add_similarity(pair("x1", "x2"), 0.99, 3)
        program = DedupalogProgram(
            soft_rules=[SoftSimilarityRule("s3", level=3)],
            negative_rules=[SoftNegativeRule("no_co", kind="no_shared_coauthor")],
        )
        matches = DedupalogEngine(program).evaluate(store)
        # The positive rule matches the pair, the negative rule vetoes it (no
        # shared coauthor), and correlation clustering resolves the conflict by
        # splitting the pair.
        assert pair("x1", "x2") not in matches


class TestParserContinuationsAndLevels:
    DOCSTRING_RULE = """
        equals(x, y) <- similar(x, y, 1), coauthor(x, c1), coauthor(y, c2), equals(c1, c2),
                        coauthor(x, c3), coauthor(y, c4), equals(c3, c4).
    """

    def test_documented_two_line_rule_parses(self):
        (rule,) = parse_program(self.DOCSTRING_RULE).soft_rules
        assert (rule.level, rule.min_coauthor_support) == (1, 2)

    def test_continuation_skips_comments_and_blank_lines(self):
        text = ("equals(x, y) <- similar(x, y, 2),   % needs one coauthor pair\n"
                "\n"
                "    coauthor(x, c1), coauthor(y, c2), equals(c1, c2).\n"
                "equals(x, y) <- similar(x, y, 3).\n")
        rules = parse_program(text).soft_rules
        assert [(r.level, r.min_coauthor_support) for r in rules] == [(2, 1), (3, 0)]

    def test_dangling_continuation_rejected(self):
        with pytest.raises(RuleParseError, match="continuation"):
            parse_program("equals(x, y) <- similar(x, y, 2),\n")

    def test_rewrapped_paper_text_is_the_paper_program(self):
        rewrapped = PAPER_RULES_TEXT.replace("), ", "),\n        ")
        assert rewrapped.count("\n") > PAPER_RULES_TEXT.count("\n")
        parsed, paper = parse_program(rewrapped), paper_rules_program()
        assert [(r.level, r.min_coauthor_support) for r in parsed.soft_rules] \
            == [(r.level, r.min_coauthor_support) for r in paper.soft_rules]
        assert (parsed.hard_rules, parsed.negative_rules, parsed.transitive_closure) \
            == (paper.hard_rules, paper.negative_rules, paper.transitive_closure)
        store = build_rules_store()
        assert DedupalogEngine(parsed).evaluate(store) \
            == DedupalogEngine(paper).evaluate(store)

    def test_low_similarity_level_out_of_range_rejected(self):
        with pytest.raises(RuleParseError, match="level"):
            parse_program("!equals(x, y) <- low_similarity(x, y, 5).")

    def test_low_similarity_level_defaults_to_one(self):
        (rule,) = parse_program("!equals(x, y) <- low_similarity(x, y).").negative_rules
        assert rule.threshold_level == 1
