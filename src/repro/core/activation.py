"""The activation rule: which neighborhoods a new pair wakes.

A neighborhood run is a function of ``(sub-instance, V+, V−)`` and sees only
the evidence pairs with *both* ends inside it, so a newly decided pair ``p``
can change the answer of a neighborhood ``C`` only when both ends of ``p``
lie in ``C`` — and not even then when ``p`` is already in ``E(C, V)``, the
output of ``C``'s last run of this scheme run: for a well-behaved
(idempotent, monotone) matcher and ``N ⊆ E(C, V)``,

    ``E(C, V) ⊆ E(C, V ∪ N) ⊆ E(C, V ∪ E(C, V)) = E(C, V)``.

Every scheme routes its new pairs through :func:`woken_by`; the paper's looser
``Neighbor(...)`` operator (shares *one* entity) is the test oracle
``tests/reference/activation.py``.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Mapping, Set

from ..blocking import Cover
from ..datamodel import EntityPair
from ..obs import registry as obs_registry

_WAKEUPS = obs_registry.counter(
    "grid_wakeups_total", "Pair-to-neighborhood routings that woke a task")
_SUPPRESSED = obs_registry.counter(
    "grid_wakeups_suppressed_total",
    "Pair-to-neighborhood routings skipped: pair already in the last output")


def woken_by(cover: Cover, new_pairs: Iterable[EntityPair],
             last_outputs: Mapping[str, AbstractSet[EntityPair]]) -> Set[str]:
    """Names of the neighborhoods that ``new_pairs`` activate.

    ``last_outputs`` maps each neighborhood that already ran in this scheme
    run to its latest output; one that has not run is always woken.
    """
    woken: Set[str] = set()
    wakeups = suppressed = 0
    for pair in new_pairs:
        for name in cover.neighborhoods_of_pair(pair):
            if pair in last_outputs.get(name, ()):
                suppressed += 1
            else:
                wakeups += 1
                woken.add(name)
    _WAKEUPS.inc(wakeups)
    _SUPPRESSED.inc(suppressed)
    return woken
