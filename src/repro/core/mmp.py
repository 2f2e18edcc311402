"""MMP's step 7 (Algorithm 3): promoting maximal messages into matches.

MMP extends SMP for probabilistic (Type-II) matchers.  Besides the plain
matches, every processed neighborhood also emits its *maximal messages*
(Algorithm 2, :mod:`repro.core.maximal`).  Maximal messages from different
neighborhoods are merged when they overlap (the ``(T ∪ TC)*`` operation,
Proposition 3), and a merged message is promoted to actual matches as soon as
the matcher's probability does not decrease when the whole message is added
to the current match set (step 7: ``P(M+ ∪ M) ≥ P(M+)``) — this is what
resolves the chicken-and-egg chains that SMP cannot (Section 5.2).  The grid
(:mod:`repro.parallel.grid`) runs the scheme and calls
:func:`promote_messages` after every round's reduce.

For supermodular Type-II matchers MMP is sound, consistent and terminates
(Theorem 4) with cost linear in the number of neighborhoods (Theorem 5).
"""

from __future__ import annotations

from typing import Set

from ..datamodel import EntityPair, EntityStore
from ..matchers import TypeIIMatcher
from .messages import MaximalMessageSet

#: Numerical tolerance for the step-7 probability comparison.
SCORE_TOLERANCE = 1e-9


def promote_messages(matcher: TypeIIMatcher, store: EntityStore,
                     matches: Set[EntityPair],
                     message_set: MaximalMessageSet) -> Set[EntityPair]:
    """Step 7: move sound maximal messages into the match set.

    A message is sound once ``P(M+ ∪ M) ≥ P(M+)``; promoting one message
    can make another sound (its pairs now count as evidence), so the check
    loops until no further message is promoted.
    """
    promoted: Set[EntityPair] = set()
    progress = True
    while progress:
        progress = False
        for message in message_set.messages():
            pending = frozenset(p for p in message if p not in matches)
            if not pending:
                message_set.discard_pairs(message)
                continue
            if matcher.score_delta(store, matches, pending) >= -SCORE_TOLERANCE:
                matches |= pending
                promoted |= pending
                message_set.discard_pairs(message)
                progress = True
    return promoted
