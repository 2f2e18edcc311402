"""Tests for the matcher layer: MLN, RULES, pairwise, iterative, property checkers."""

import pytest

from repro.datamodel import EntityStore, Evidence, make_author
from repro.exceptions import MatcherError
from repro.matchers import (
    AttributeComparison,
    IterativeMatcher,
    IterativeMatcherConfig,
    MLNMatcher,
    PairwiseMatcher,
    RulesMatcher,
    check_idempotence,
    check_monotonicity,
)
from tests.reference.grounding import ReferenceMLNMatcher, section2_example_rules
from tests.reference.properties import check_supermodularity, check_well_behaved
from tests.util import (
    build_shared_coauthor_store,
    build_support_pair_store,
    pair,
    weighted_rules,
)


class TestMLNMatcher:
    def test_is_probabilistic(self):
        assert MLNMatcher().is_probabilistic

    def test_matches_shared_coauthor_pair(self):
        matcher = MLNMatcher(rules=section2_example_rules())
        matches = matcher.match(build_shared_coauthor_store())
        assert matches == {pair("c1", "c2")}

    def test_collective_support_pair(self):
        matcher = MLNMatcher(rules=weighted_rules(-5.0, 8.0))
        matches = matcher.match(build_support_pair_store())
        assert matches == {pair("a1", "a2"), pair("b1", "b2")}

    def test_negative_evidence_blocks(self):
        matcher = MLNMatcher(rules=section2_example_rules())
        matches = matcher.match(build_shared_coauthor_store(),
                                Evidence.of(negative=[pair("c1", "c2")]))
        assert matches == frozenset()

    def test_positive_evidence_included_in_output(self):
        matcher = MLNMatcher(rules=weighted_rules(-20.0, 8.0))
        store = build_support_pair_store()
        matches = matcher.match(store, Evidence.of(positive=[pair("a1", "a2")]))
        assert pair("a1", "a2") in matches

    def test_evidence_outside_store_is_ignored(self):
        matcher = MLNMatcher(rules=section2_example_rules())
        store = build_shared_coauthor_store()
        evidence = Evidence.of(positive=[pair("zz1", "zz2")])
        matches = matcher.match(store, evidence)
        assert pair("zz1", "zz2") not in matches

    def test_network_cache_reuses_store(self):
        matcher = MLNMatcher(rules=section2_example_rules())
        store = build_shared_coauthor_store()
        first = matcher.network_for(store)
        second = matcher.network_for(store)
        assert first is second
        matcher.clear_cache()
        assert matcher.network_for(store) is not first

    def test_cache_disabled(self):
        matcher = ReferenceMLNMatcher(rules=section2_example_rules())
        store = build_shared_coauthor_store()
        assert matcher.network_for(store) is not matcher.network_for(store)

    def test_score_delta(self):
        matcher = MLNMatcher(rules=weighted_rules(-5.0, 8.0))
        store = build_support_pair_store()
        delta = matcher.score_delta(store, {pair("a1", "a2")}, {pair("b1", "b2")})
        assert delta == pytest.approx(11.0)
        assert matcher.accepts(store, {pair("a1", "a2")}, {pair("b1", "b2")})

    def test_explain_and_candidates(self):
        matcher = MLNMatcher(rules=section2_example_rules())
        store = build_shared_coauthor_store()
        assert matcher.candidate_pairs(store) == {pair("c1", "c2")}
        breakdown = matcher.explain(store, {pair("c1", "c2")})
        assert breakdown["R2"] == pytest.approx(8.0)

    def test_match_calls_counter(self):
        matcher = MLNMatcher(rules=section2_example_rules())
        store = build_shared_coauthor_store()
        matcher.match(store)
        matcher.match(store)
        assert matcher.match_calls == 2


class TestRulesMatcher:
    def store(self):
        store = EntityStore()
        store.add_entities([
            make_author("a1", "Alice", "Adams"), make_author("a2", "Alice", "Adams"),
        ])
        store.add_similarity(pair("a1", "a2"), 0.99, 3)
        return store

    def test_not_probabilistic(self):
        assert not RulesMatcher().is_probabilistic

    def test_level3_match(self):
        assert RulesMatcher().match(self.store()) == {pair("a1", "a2")}

    def test_negative_evidence(self):
        matches = RulesMatcher().match(self.store(), Evidence.of(negative=[pair("a1", "a2")]))
        assert matches == frozenset()

    def test_monotone_program_flag(self):
        assert RulesMatcher().is_monotone_program

    def test_match_pairs_helper(self):
        matcher = RulesMatcher()
        assert matcher.match_pairs(self.store()) == {pair("a1", "a2")}


class TestPairwiseMatcher:
    def store(self):
        store = EntityStore()
        store.add_entities([
            make_author("a1", "Alice", "Adams"), make_author("a2", "Alice", "Adams"),
            make_author("b1", "Bob", "Berg"), make_author("b2", "Xavier", "Young"),
        ])
        store.add_similarity(pair("a1", "a2"), 0.99, 3)
        store.add_similarity(pair("b1", "b2"), 0.87, 1)
        return store

    def test_matches_agreeing_pair_only(self):
        matches = PairwiseMatcher().match(self.store())
        assert pair("a1", "a2") in matches
        assert pair("b1", "b2") not in matches

    def test_threshold_controls_matching(self):
        permissive = PairwiseMatcher(match_threshold=-100.0)
        assert pair("b1", "b2") in permissive.match(self.store())

    def test_pair_weight_sign(self):
        matcher = PairwiseMatcher()
        store = self.store()
        assert matcher.pair_weight(store, pair("a1", "a2")) > 0
        assert matcher.pair_weight(store, pair("b1", "b2")) < 0

    def test_evidence_handling(self):
        matcher = PairwiseMatcher()
        store = self.store()
        matches = matcher.match(store, Evidence.of(positive=[pair("b1", "b2")],
                                                   negative=[pair("a1", "a2")]))
        assert pair("b1", "b2") in matches
        assert pair("a1", "a2") not in matches

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            PairwiseMatcher(comparisons=[])
        with pytest.raises(ValueError):
            AttributeComparison("lname", m_probability=1.5)


class TestIterativeMatcher:
    def test_propagates_through_coauthors(self):
        store = build_support_pair_store()
        config = IterativeMatcherConfig(attribute_weight=1.0, relational_weight=0.4,
                                        match_threshold=1.05)
        # Alone, neither pair reaches the threshold (similarity 0.9); matching
        # one would push the other over it, but iterative matchers cannot
        # bootstrap - so nothing is matched without a seed.
        assert IterativeMatcher(config).match(store) == frozenset()
        seeded = IterativeMatcher(config).match(
            store, Evidence.of(positive=[pair("a1", "a2")]))
        assert pair("b1", "b2") in seeded

    def test_strong_pair_matched_directly(self):
        store = build_support_pair_store()
        config = IterativeMatcherConfig(match_threshold=0.85)
        matches = IterativeMatcher(config).match(store)
        assert matches == {pair("a1", "a2"), pair("b1", "b2")}

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            IterativeMatcherConfig(max_relational_support=-1)


class TestPropertyCheckers:
    def test_mln_matcher_is_well_behaved_on_small_instances(self):
        matcher = MLNMatcher(rules=weighted_rules(-5.0, 8.0))
        report = check_well_behaved(matcher, build_support_pair_store(), trials=4)
        assert report.ok, [str(v) for v in report.violations]
        assert report.checks > 0

    def test_rules_matcher_is_well_behaved(self, hepth_dataset):
        small_ids = sorted(hepth_dataset.store.entity_ids())[:40]
        store = hepth_dataset.store.restrict(small_ids)
        report = check_well_behaved(RulesMatcher(), store, trials=3)
        assert report.ok, [str(v) for v in report.violations]

    def test_supermodularity_check_on_mln(self):
        matcher = MLNMatcher(rules=weighted_rules(-5.0, 8.0))
        report = check_supermodularity(matcher, build_support_pair_store(), trials=10)
        assert report.ok

    def test_checkers_detect_broken_matcher(self):
        class BrokenMatcher(RulesMatcher):
            """Violates positive-evidence monotonicity by dropping matches."""

            def match(self, store, evidence=None):
                if evidence is not None and evidence.positive:
                    return frozenset()
                return super().match(store, evidence)

        store = EntityStore()
        store.add_entities([
            make_author("a1", "Alice", "Adams"), make_author("a2", "Alice", "Adams"),
        ])
        store.add_similarity(pair("a1", "a2"), 0.99, 3)
        report = check_idempotence(BrokenMatcher(), store, trials=3)
        report = report.merge(check_monotonicity(BrokenMatcher(), store, trials=3))
        assert not report.ok


class TestMLNCacheBounds:
    """The per-store cache LRU cap added for long-running streams (PR 5)."""

    def test_store_caches_are_lru_bounded(self):
        matcher = MLNMatcher(max_cached_stores=3)
        stores = [build_shared_coauthor_store() for _ in range(5)]
        for store in stores:
            matcher.match(store)
        assert len(matcher._network_cache) == 3
        assert len(matcher._result_cache) == 3
        # The most recent stores survive, the oldest were evicted.
        assert [ref() for ref in matcher._network_cache] == stores[-3:]

    def test_lru_refreshes_on_reuse(self):
        matcher = MLNMatcher(max_cached_stores=2)
        first, second, third = (build_shared_coauthor_store() for _ in range(3))
        matcher.match(first)
        matcher.match(second)
        matcher.match(first)   # refresh `first` to most-recent
        matcher.match(third)   # evicts `second`, not `first`
        assert [ref() for ref in matcher._network_cache] == [first, third]

    def test_collected_store_leaves_both_caches(self):
        import gc
        matcher = MLNMatcher()
        kept, dropped = build_shared_coauthor_store(), build_shared_coauthor_store()
        matcher.match(dropped)
        del dropped
        gc.collect()
        # The next cache call drops what the collected store left.
        matcher.match(kept)
        assert [ref() for ref in matcher._network_cache] == [kept]
        assert [ref() for ref in matcher._result_cache] == [kept]

    def test_threads_dropping_stores_leave_no_dead_entry(self):
        # Stores die on every thread, so callbacks queue keys while other
        # threads read, fill and drain both caches.
        import gc
        import sys
        import threading
        matcher = MLNMatcher(max_cached_stores=8)
        errors = []

        def worker():
            try:
                for _ in range(40):
                    matcher.match(build_shared_coauthor_store())
            except Exception as error:  # re-raised below, on the test thread
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        gc.collect()
        kept = build_shared_coauthor_store()
        matcher.match(kept)
        assert [ref() for ref in matcher._network_cache] == [kept]
        assert [ref() for ref in matcher._result_cache] == [kept]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            MLNMatcher(max_cached_stores=0)

    def test_pickling_drops_bounded_caches(self):
        import pickle
        matcher = MLNMatcher(max_cached_stores=4)
        store = build_shared_coauthor_store()
        matcher.match(store)
        clone = pickle.loads(pickle.dumps(matcher))
        assert len(clone._network_cache) == 0
        assert clone.max_cached_stores == 4
        # The revived caches keep working (and stay bounded) for a live
        # store; a collected store's entry goes at the next cache call.
        revived = build_shared_coauthor_store()
        clone.match(revived)
        assert len(clone._network_cache) == 1
