"""String similarity measures used to build the ``Similar`` relation and the canopies."""

from .discretize import DEFAULT_LEVELS, SimilarityLevels, discretize
from .jaro import jaro_similarity, jaro_winkler_similarity
from .name_similarity import (
    DEFAULT_AUTHOR_SIMILARITY,
    AuthorNameSimilarity,
    author_name_similarity,
    initials_compatible,
    is_initial,
    normalize_name_part,
)
from .ngram import character_ngrams, word_tokens
from .phonetic import soundex
from .profiles import (
    EntityProfile,
    EntityProfileIndex,
    ProfiledNameScorer,
    default_tokenizer,
)

__all__ = [
    "DEFAULT_AUTHOR_SIMILARITY",
    "DEFAULT_LEVELS",
    "AuthorNameSimilarity",
    "EntityProfile",
    "EntityProfileIndex",
    "ProfiledNameScorer",
    "SimilarityLevels",
    "author_name_similarity",
    "character_ngrams",
    "default_tokenizer",
    "discretize",
    "initials_compatible",
    "is_initial",
    "jaro_similarity",
    "jaro_winkler_similarity",
    "normalize_name_part",
    "soundex",
    "word_tokens",
]
