"""Reference activation rule: the paper's loose ``Neighbor(...)`` operator.

Algorithms 1 and 3 re-activate every neighborhood that shares *one* entity
with a new pair.  The program wakes fewer (``repro.core.activation.woken_by``:
both ends inside, pair absent from the neighborhood's last output); the loose
rule is kept here, out of ``src/``, as the oracle the tight one is compared
against — every neighborhood it wakes in addition must contribute nothing.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Set

from repro.blocking import Cover
from repro.datamodel import EntityPair


def neighbors_of_pairs(cover: Cover, pairs: Iterable[EntityPair]) -> FrozenSet[str]:
    """Neighborhoods containing at least one entity of any of ``pairs``."""
    affected: Set[str] = set()
    for pair in pairs:
        affected |= cover.neighborhoods_of(pair.first)
        affected |= cover.neighborhoods_of(pair.second)
    return frozenset(affected)


def loosely_woken_by(cover: Cover, new_pairs: Iterable[EntityPair],
                     last_outputs=None) -> Set[str]:
    """Drop-in for ``woken_by`` that ignores what the neighborhoods know."""
    return set(neighbors_of_pairs(cover, new_pairs))
