"""Tests for soundex, discretisation and author-name similarity."""

import pytest

from repro.similarity import (
    AuthorNameSimilarity,
    DEFAULT_LEVELS,
    SimilarityLevels,
    author_name_similarity,
    discretize,
    initials_compatible,
    is_initial,
    normalize_name_part,
    soundex,
)


class TestPhonetic:
    def test_soundex_known_codes(self):
        assert soundex("Robert") == "R163"
        assert soundex("Rupert") == "R163"
        assert soundex("Ashcraft") == soundex("Ashcroft")

    def test_soundex_empty(self):
        assert soundex("") == "0000"

    def test_soundex_padding(self):
        assert len(soundex("Lee")) == 4


class TestDiscretize:
    def test_default_levels_ordering(self):
        assert discretize(0.99) == 3
        assert discretize(DEFAULT_LEVELS.medium + 0.001) == 2
        assert discretize(DEFAULT_LEVELS.low + 0.001) == 1
        assert discretize(0.2) == 0

    def test_boundaries_inclusive(self):
        levels = SimilarityLevels(low=0.5, medium=0.7, high=0.9)
        assert levels.level(0.5) == 1
        assert levels.level(0.7) == 2
        assert levels.level(0.9) == 3

    def test_is_candidate(self):
        levels = SimilarityLevels(low=0.5, medium=0.7, high=0.9)
        assert levels.is_candidate(0.6)
        assert not levels.is_candidate(0.4)

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            SimilarityLevels(low=0.9, medium=0.5, high=0.95)


class TestAuthorNameSimilarity:
    def test_identical_full_names(self):
        assert author_name_similarity(("John", "Smith"), ("John", "Smith")) == pytest.approx(1.0)

    def test_identical_abbreviated_names_are_level3(self):
        score = author_name_similarity(("J.", "Smith"), ("J.", "Smith"))
        assert DEFAULT_LEVELS.level(score) == 3

    def test_initial_vs_full_is_ambiguous_level(self):
        score = author_name_similarity(("John", "Smith"), ("J.", "Smith"))
        assert DEFAULT_LEVELS.level(score) in (1, 2)

    def test_incompatible_initials_veto(self):
        score = author_name_similarity(("J.", "Smith"), ("M.", "Smith"))
        assert DEFAULT_LEVELS.level(score) == 0

    def test_different_last_names_low(self):
        score = author_name_similarity(("John", "Smith"), ("John", "Keller"))
        assert score < 0.8

    def test_symmetry(self):
        forward = author_name_similarity(("John", "Smith"), ("J.", "Smith"))
        backward = author_name_similarity(("J.", "Smith"), ("John", "Smith"))
        assert forward == pytest.approx(backward)

    def test_missing_first_name_is_weak_not_veto(self):
        score = author_name_similarity(("", "Smith"), ("John", "Smith"))
        assert 0.5 < score < 1.0

    def test_helpers(self):
        assert normalize_name_part(" J. ") == "j"
        assert is_initial("J.")
        assert not is_initial("Jo")
        assert initials_compatible("John", "J.")
        assert not initials_compatible("John", "M.")
        assert not initials_compatible("", "J.")

    def test_invalid_weight(self):
        with pytest.raises(ValueError):
            AuthorNameSimilarity(last_name_weight=1.5)

    def test_score_entities(self, hepth_dataset):
        authors = hepth_dataset.store.entities_of_type("author")[:2]
        measure = AuthorNameSimilarity()
        score = measure.score_entities(authors[0], authors[1])
        assert 0.0 <= score <= 1.0
