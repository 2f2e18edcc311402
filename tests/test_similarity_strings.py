"""Tests for the string similarity measures (jaro, jaro-winkler) and n-grams."""

import pytest

from repro.similarity import (
    character_ngrams,
    jaro_similarity,
    jaro_winkler_similarity,
    word_tokens,
)


class TestJaro:
    def test_identical_and_empty(self):
        assert jaro_similarity("martha", "martha") == 1.0
        assert jaro_similarity("", "abc") == 0.0
        assert jaro_similarity("abc", "") == 0.0

    def test_known_value_martha_marhta(self):
        assert jaro_similarity("martha", "marhta") == pytest.approx(0.944, abs=1e-3)

    def test_known_value_dixon_dicksonx(self):
        assert jaro_similarity("dixon", "dicksonx") == pytest.approx(0.767, abs=1e-3)

    def test_no_common_characters(self):
        assert jaro_similarity("abc", "xyz") == 0.0

    def test_jaro_winkler_boosts_common_prefix(self):
        plain = jaro_similarity("martha", "marhta")
        winkler = jaro_winkler_similarity("martha", "marhta")
        assert winkler > plain
        assert winkler == pytest.approx(0.961, abs=1e-3)

    def test_jaro_winkler_bounded_by_one(self):
        assert jaro_winkler_similarity("aaaa", "aaaa") == 1.0

    def test_jaro_winkler_prefix_weight_validation(self):
        with pytest.raises(ValueError):
            jaro_winkler_similarity("a", "b", prefix_weight=0.5)

    def test_symmetry(self):
        assert jaro_winkler_similarity("smith", "smyth") == pytest.approx(
            jaro_winkler_similarity("smyth", "smith"))


class TestNgrams:
    def test_character_ngrams_padding(self):
        grams = character_ngrams("ab", n=2)
        assert "#a" in grams and "b#" in grams

    def test_character_ngrams_no_padding(self):
        assert character_ngrams("abc", n=2, pad=False) == ["ab", "bc"]

    def test_short_string(self):
        assert character_ngrams("a", n=3, pad=False) == ["a"]

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            character_ngrams("abc", n=0)

    def test_word_tokens(self):
        assert word_tokens("Hello, World! 42") == ["hello", "world", "42"]
        assert word_tokens("") == []
