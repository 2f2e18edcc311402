"""Evidence sets (V+, V−) handed to a matcher.

Definition 1 of the paper gives a Type-I matcher the signature
``E(E, V+, V−)`` where ``V+`` is a set of pairs known to be matches and
``V−`` a set of pairs known to be non-matches.  :class:`Evidence` is the value
object carrying those two sets through the framework.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Tuple

from ..exceptions import MatcherError
from .pair import EntityPair, pairs_from


@dataclass(frozen=True)
class Evidence:
    """Positive (known matches) and negative (known non-matches) evidence."""

    positive: FrozenSet[EntityPair] = field(default_factory=frozenset)
    negative: FrozenSet[EntityPair] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "positive", pairs_from(self.positive))
        object.__setattr__(self, "negative", pairs_from(self.negative))
        overlap = self.positive & self.negative
        if overlap:
            raise MatcherError(
                f"evidence is contradictory: {sorted(overlap)!r} marked both match and non-match"
            )

    @classmethod
    def empty(cls) -> "Evidence":
        return cls()

    @classmethod
    def of(cls, positive: Iterable[EntityPair] = (), negative: Iterable[EntityPair] = ()) -> "Evidence":
        # ``__post_init__`` coerces both sides (and checks for contradictions).
        return cls(positive, negative)

    def with_positive(self, pairs: Iterable[EntityPair]) -> "Evidence":
        """A copy with extra positive evidence added."""
        return Evidence(self.positive | pairs_from(pairs), self.negative)

    def with_negative(self, pairs: Iterable[EntityPair]) -> "Evidence":
        """A copy with extra negative evidence added."""
        return Evidence(self.positive, self.negative | pairs_from(pairs))

    def restricted_to(self, entity_ids: Iterable[str]) -> "Evidence":
        """Evidence restricted to pairs fully inside ``entity_ids``.

        Used when handing global evidence to a neighborhood run: pairs outside
        the neighborhood carry no information for the local matcher.
        """
        return Evidence(*self.pairs_inside(entity_ids))

    def pairs_inside(self, entity_ids: Iterable[str]
                     ) -> Tuple[FrozenSet[EntityPair], FrozenSet[EntityPair]]:
        """``(V+, V−)`` without the pairs that leave ``entity_ids``."""
        allowed = entity_ids if isinstance(entity_ids, (set, frozenset)) \
            else set(entity_ids)
        return (frozenset(p for p in self.positive
                          if p.first in allowed and p.second in allowed),
                frozenset(p for p in self.negative
                          if p.first in allowed and p.second in allowed))

    def is_empty(self) -> bool:
        return not self.positive and not self.negative

    def __len__(self) -> int:
        return len(self.positive) + len(self.negative)
