"""Author-name similarity aware of abbreviations.

The HEPTH dataset abbreviates author first names ("J. Doe"), while DBLP keeps
full names ("John Doe").  A plain string measure treats "J." and "John" as
quite different, so the bibliographic matchers use a structured comparison:

* last names are compared with Jaro-Winkler;
* first names are compared with Jaro-Winkler when both are spelled out; when
  at least one side is an initial, agreement of the initials is *weak*
  evidence (it cannot distinguish "John" from "James") and disagreement is a
  veto.

The combined score is designed so that the discretised levels line up with
the paper's MLN weights (Appendix B):

* two references with the *same rendered name* (including "J. Smith" vs
  "J. Smith") score ≈ 1.0 → level 3: matched on name evidence alone — which,
  exactly as in the paper, occasionally merges two genuinely different
  same-initial authors and keeps precision slightly below 1;
* an initial against a full first name with the same last name scores in the
  level-1/2 band: such pairs need matching-coauthor support to be matched,
  which is where the collective / message-passing machinery earns its keep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .jaro import jaro_winkler_similarity


def normalize_name_part(part: str) -> str:
    """Lower-case, strip periods and surrounding whitespace."""
    return part.replace(".", "").strip().lower()


def is_initial(part: str) -> bool:
    """Whether a first-name string is just an initial (e.g. ``"J."`` or ``"j"``)."""
    return len(normalize_name_part(part)) == 1


def initials_compatible(a: str, b: str) -> bool:
    """Whether two first names agree on their first letter."""
    norm_a, norm_b = normalize_name_part(a), normalize_name_part(b)
    if not norm_a or not norm_b:
        return False
    return norm_a[0] == norm_b[0]


@dataclass(frozen=True)
class AuthorNameSimilarity:
    """Configurable structured similarity between author references.

    Parameters
    ----------
    last_name_weight:
        Weight of the last-name score in the combination (the first name gets
        the complement).
    initial_pair_score:
        First-name component when *both* sides are initials and they agree —
        the rendered strings are then identical, so this is 1.0 by default
        (level 3 after combination).
    initial_full_score:
        First-name component when an initial faces a full first name with the
        same first letter: compatible but weak (level 1-2 band).
    initial_mismatch_score:
        First-name component when the initials disagree (a veto).
    missing_score:
        First-name component when one side has no first name at all.
    """

    last_name_weight: float = 0.65
    initial_pair_score: float = 1.0
    initial_full_score: float = 0.72
    initial_mismatch_score: float = 0.0
    missing_score: float = 0.72

    def __post_init__(self) -> None:
        if not 0.0 <= self.last_name_weight <= 1.0:
            raise ValueError("last_name_weight must be in [0, 1]")
        for value in (self.initial_pair_score, self.initial_full_score,
                      self.initial_mismatch_score, self.missing_score):
            if not 0.0 <= value <= 1.0:
                raise ValueError("first-name component scores must be in [0, 1]")

    def first_name_score_normalized(self, norm_a: str, norm_b: str) -> float:
        """First-name score from parts already passed through :func:`normalize_name_part`."""
        if not norm_a or not norm_b:
            # A missing first name is weak, ambiguous evidence.
            return self.missing_score
        initial_a, initial_b = len(norm_a) == 1, len(norm_b) == 1
        if initial_a or initial_b:
            if norm_a[0] != norm_b[0]:
                return self.initial_mismatch_score
            if initial_a and initial_b:
                return self.initial_pair_score
            return self.initial_full_score
        return jaro_winkler_similarity(norm_a, norm_b)

    def score_normalized(self, first_a: str, last_a: str,
                         first_b: str, last_b: str) -> float:
        """Combined score from already-normalised name parts.

        This is the single arithmetic path both the plain entity scorer and
        the profile-backed scorer (:mod:`repro.similarity.profiles`) go
        through, so covers built from cached normalized parts are bitwise
        identical to covers built from raw strings.
        """
        last_score = jaro_winkler_similarity(last_a, last_b)
        first_score = self.first_name_score_normalized(first_a, first_b)
        weight = self.last_name_weight
        return weight * last_score + (1.0 - weight) * first_score

    def score(self, name_a: Tuple[str, str], name_b: Tuple[str, str]) -> float:
        """Combined score for two ``(fname, lname)`` tuples, in [0, 1]."""
        first_a, last_a = name_a
        first_b, last_b = name_b
        return self.score_normalized(
            normalize_name_part(first_a), normalize_name_part(last_a),
            normalize_name_part(first_b), normalize_name_part(last_b))

    def score_entities(self, author_a, author_b) -> float:
        """Score two author :class:`~repro.datamodel.entity.Entity` objects."""
        return self.score(
            (author_a.get("fname", ""), author_a.get("lname", "")),
            (author_b.get("fname", ""), author_b.get("lname", "")),
        )


#: Default instance used by the dataset builders and examples.
DEFAULT_AUTHOR_SIMILARITY = AuthorNameSimilarity()


def author_name_similarity(name_a: Tuple[str, str], name_b: Tuple[str, str]) -> float:
    """Module-level convenience wrapper using the default configuration."""
    return DEFAULT_AUTHOR_SIMILARITY.score(name_a, name_b)
