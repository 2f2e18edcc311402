"""Tests for the blocking profile layer: index, scorers, pruning, parity.

The load-bearing guarantee of `repro.similarity.profiles` is *exactness*:
profile-backed scoring and pruning must never shift a canopy decision, so
covers built through profiles are byte-identical to the covers of the
string-at-a-time reference builder (``tests/reference/canopy.py``).  The
property tests here drive that across random generated stores and canopy
seeds.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.blocking import CanopyBlocker, build_total_cover
from repro.datamodel import CompactStore, EntityStore, make_author
from repro.datasets import GeneratorConfig, NameNoiseModel, generate_bibliography
from repro.similarity import (
    DEFAULT_AUTHOR_SIMILARITY,
    EntityProfileIndex,
    ProfiledNameScorer,
)
from repro.similarity.jaro import jaro_winkler_similarity
from repro.similarity.name_similarity import normalize_name_part
from tests.reference.canopy import NaiveCanopyBlocker


def small_dataset(seed: int, abbreviate: float = 0.5, authors: int = 40):
    config = GeneratorConfig(
        n_authors=authors, n_papers=authors * 2, n_sources=2,
        noise=NameNoiseModel(abbreviate_probability=abbreviate,
                             typo_probability=0.2),
        seed=seed,
    )
    return generate_bibliography(config)


def cover_signature(cover):
    return [(n.name, tuple(sorted(n.entity_ids))) for n in cover]


# --------------------------------------------------------------------- index
class TestEntityProfileIndex:
    def make_store(self):
        store = EntityStore()
        store.add_entities([
            make_author("a1", "John", "Smith"),
            make_author("a2", "J.", "Smith"),
            make_author("a3", "Mary", "Jones"),
        ])
        return store

    def test_profiles_cache_normalized_parts(self):
        index = EntityProfileIndex(self.make_store().entities())
        profile = index.profile("a2")
        assert profile.norm_first == "j"
        assert profile.norm_last == "smith"
        assert profile.text == "J. Smith"

    def test_candidates_match_token_sharing(self):
        index = EntityProfileIndex(self.make_store().entities())
        # A canopy center's candidates: every entity its tokens post to.
        candidates = {entity_id for token in index.profile("a1").token_set
                      for entity_id in index.postings[token]}
        assert "a2" in candidates          # shares "smith" tokens
        assert "a3" not in candidates      # no shared token

    def test_matches_checks_entity_set_and_attributes(self):
        store = self.make_store()
        index = EntityProfileIndex(store.entities())
        assert index.matches(["a1", "a2", "a3"], ("fname", "lname"))
        assert not index.matches(["a1", "a2"], ("fname", "lname"))
        assert not index.matches(["a1", "a2", "a3"], ("lname",))

    def test_matches_rejects_different_tokenizer(self):
        from repro.similarity.ngram import word_tokens
        store = self.make_store()
        default_index = EntityProfileIndex(store.entities())
        custom_index = EntityProfileIndex(store.entities(), tokenizer=word_tokens)
        ids = ["a1", "a2", "a3"]
        assert default_index.matches(ids, ("fname", "lname"))
        assert not custom_index.matches(ids, ("fname", "lname"))


# ------------------------------------------------------------------- scorer
class TestProfiledNameScorer:
    @settings(max_examples=200, deadline=None)
    @given(st.tuples(*(st.text(alphabet="abcdef .", max_size=8) for _ in range(4))))
    def test_score_matches_raw_string_path(self, names):
        first_a, last_a, first_b, last_b = names
        parts = {
            "x": (normalize_name_part(first_a), normalize_name_part(last_a)),
            "y": (normalize_name_part(first_b), normalize_name_part(last_b)),
        }
        scorer = ProfiledNameScorer(parts)
        expected = DEFAULT_AUTHOR_SIMILARITY.score((first_a, last_a), (first_b, last_b))
        assert scorer.score("x", "y") == expected
        assert scorer.score("y", "x") == expected

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(*(st.text(alphabet="abcdef .", max_size=8) for _ in range(4))),
           st.floats(min_value=0.0, max_value=1.0))
    def test_score_at_least_agrees_with_threshold(self, names, threshold):
        first_a, last_a, first_b, last_b = names
        parts = {
            "x": (normalize_name_part(first_a), normalize_name_part(last_a)),
            "y": (normalize_name_part(first_b), normalize_name_part(last_b)),
        }
        scorer = ProfiledNameScorer(parts)
        exact = scorer.score("x", "y")
        gated = scorer.score_at_least("x", "y", threshold)
        if exact >= threshold:
            assert gated == exact
        else:
            assert gated is None

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="abcdefgh", max_size=10),
           st.text(alphabet="abcdefgh", max_size=10))
    def test_upper_bound_dominates_jaro_winkler(self, a, b):
        scorer = ProfiledNameScorer({})
        assert scorer.jaro_winkler_upper_bound(a, b) >= jaro_winkler_similarity(a, b)

    def test_canopy_scores_equals_per_pair_scoring(self):
        rng = random.Random(3)
        names = ["smith", "smyth", "jones", "smithe", "j", ""]
        parts = {f"e{i}": (rng.choice(names), rng.choice(names)) for i in range(30)}
        scorer = ProfiledNameScorer(parts)
        ids = sorted(parts)
        for center in ids[:5]:
            batch = dict(scorer.canopy_scores(center, ids[5:], 0.7))
            reference = {}
            for candidate in ids[5:]:
                score = ProfiledNameScorer(parts).score(center, candidate)
                if score >= 0.7:
                    reference[candidate] = score
            assert batch == reference


# ------------------------------------------- cover parity with the reference
BACKENDS = ["python", pytest.param("numpy", marks=pytest.mark.skipif(
    kernels.numpy_or_none() is None, reason="numpy not installed"))]


class TestCanopyParityWithReference:
    """``CanopyBlocker`` against ``tests/reference/canopy.py``: same cover on
    the string-keyed path (dict store) and the interned path (compact store),
    on both kernel backends."""

    @staticmethod
    def assert_same_cover(store, **blocker_kwargs):
        expected = cover_signature(
            NaiveCanopyBlocker(**blocker_kwargs).build_cover(store))
        blocker = CanopyBlocker(**blocker_kwargs)
        assert cover_signature(blocker.build_cover(store)) == expected
        assert cover_signature(
            blocker.build_cover(CompactStore.from_store(store))) == expected

    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           canopy_seed=st.integers(min_value=0, max_value=50),
           abbreviate=st.sampled_from([0.0, 0.5, 1.0]))
    def test_covers_identical_to_reference(self, backend, seed, canopy_seed,
                                           abbreviate):
        with kernels.use(backend):
            self.assert_same_cover(small_dataset(seed, abbreviate).store,
                                   seed=canopy_seed)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("preset", ["hepth_dataset", "dblp_dataset"])
    def test_presets_identical_to_reference(self, request, backend, preset):
        with kernels.use(backend):
            self.assert_same_cover(request.getfixturevalue(preset).store)

    def test_total_cover_and_downstream_matches_identical(self):
        from repro.datamodel import MatchSet
        from repro.matchers import RulesMatcher

        dataset = small_dataset(seed=5)
        covers = {}
        matches = {}
        for label, blocker in (("naive", NaiveCanopyBlocker()),
                               ("profiled", CanopyBlocker())):
            cover = build_total_cover(blocker, dataset.store,
                                      relation_names=["coauthor"])
            covers[label] = cover_signature(cover)
            from repro.core import EMFramework
            result = EMFramework(RulesMatcher(), dataset.store, cover=cover).run("smp")
            matches[label] = MatchSet(result.matches).transitive_closure().pairs
        assert covers["naive"] == covers["profiled"]
        assert matches["naive"] == matches["profiled"]

    def test_prebuilt_profiles_reused_when_compatible(self):
        store = small_dataset(seed=9).store
        blocker = CanopyBlocker()
        entities = blocker.clustered_entities(store)
        index = EntityProfileIndex(entities)
        assert blocker.profile_index(entities, index) is index
        assert cover_signature(blocker.build_cover(store, profiles=index)) == \
            cover_signature(blocker.build_cover(store))

    def test_invalid_similarity_spec_rejected(self):
        # The canopy scores author names only: no similarity spec is taken.
        with pytest.raises(TypeError):
            CanopyBlocker(similarity="cosine")
