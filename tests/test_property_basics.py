"""Property-based tests (hypothesis) for the data model and similarity measures."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datamodel import EntityPair, MatchSet
from repro.similarity import (
    DEFAULT_LEVELS,
    jaro_similarity,
    jaro_winkler_similarity,
    soundex,
)

entity_ids = st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=6)
names = st.text(alphabet=string.ascii_lowercase, min_size=0, max_size=12)
pairs = st.tuples(entity_ids, entity_ids).filter(lambda t: t[0] != t[1])


class TestEntityPairProperties:
    @given(pairs)
    def test_canonical_order_invariant(self, ids):
        a, b = ids
        assert EntityPair.of(a, b) == EntityPair.of(b, a)
        pair = EntityPair.of(a, b)
        assert pair.first <= pair.second

    @given(st.lists(pairs, max_size=20))
    def test_pairs_form_well_behaved_sets(self, raw):
        pair_set = {EntityPair.of(a, b) for a, b in raw}
        reversed_set = {EntityPair.of(b, a) for a, b in raw}
        assert pair_set == reversed_set


class TestMatchSetProperties:
    @given(st.lists(pairs, max_size=25))
    def test_transitive_closure_is_idempotent_and_monotone(self, raw):
        match_set = MatchSet(EntityPair.of(a, b) for a, b in raw)
        closed = match_set.transitive_closure()
        assert match_set.issubset(closed.pairs)
        assert closed.transitive_closure() == closed

    @given(st.lists(pairs, max_size=25))
    def test_clusters_partition_the_matched_entities(self, raw):
        match_set = MatchSet(EntityPair.of(a, b) for a, b in raw)
        clusters = match_set.clusters()
        flattened = [entity for cluster in clusters for entity in cluster]
        assert len(flattened) == len(set(flattened))
        assert set(flattened) == match_set.entity_ids()

    @given(st.lists(pairs, max_size=25))
    def test_closure_equals_cluster_expansion(self, raw):
        match_set = MatchSet(EntityPair.of(a, b) for a, b in raw)
        closed = match_set.transitive_closure()
        from_clusters = MatchSet.from_clusters(match_set.clusters())
        assert closed == from_clusters


class TestSimilarityProperties:
    @given(names, names)
    def test_similarities_are_bounded_and_symmetric(self, a, b):
        for function in (jaro_similarity, jaro_winkler_similarity):
            forward = function(a, b)
            backward = function(b, a)
            assert 0.0 <= forward <= 1.0
            assert abs(forward - backward) < 1e-9

    @given(names)
    def test_self_similarity_is_one(self, a):
        assert jaro_similarity(a, a) == 1.0
        assert jaro_winkler_similarity(a, a) == 1.0

    @given(names)
    def test_soundex_format(self, name):
        code = soundex(name)
        assert len(code) == 4
        if any(c.isalpha() for c in name):
            assert code[0].isalpha() and code[0].isupper()

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_levels_monotone_in_score(self, score):
        level = DEFAULT_LEVELS.level(score)
        assert 0 <= level <= 3
        higher = min(1.0, score + 0.05)
        assert DEFAULT_LEVELS.level(higher) >= level
