"""MMP: the Maximal Message Passing scheme (Algorithm 3).

MMP extends SMP for probabilistic (Type-II) matchers.  Besides the plain
matches, every processed neighborhood also emits its *maximal messages*
(Algorithm 2).  Maximal messages from different neighborhoods are merged when
they overlap (the ``(T ∪ TC)*`` operation, Proposition 3), and a merged
message is promoted to actual matches as soon as the matcher's probability
does not decrease when the whole message is added to the current match set
(step 7: ``P(M+ ∪ M) ≥ P(M+)``) — this is what resolves the chicken-and-egg
chains that SMP cannot (Section 5.2).

For supermodular Type-II matchers MMP is sound, consistent and terminates
(Theorem 4) with cost linear in the number of neighborhoods (Theorem 5).
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, Iterable, List, Optional, Set

from ..blocking import Cover
from ..datamodel import EntityPair, EntityStore
from ..exceptions import MatcherError
from ..matchers import TypeIIMatcher, TypeIMatcher
from .activation import woken_by
from .active_set import ActiveNeighborhoodQueue
from .maximal import compute_maximal_messages
from .messages import MaximalMessage, MaximalMessageSet
from .result import SchemeResult
from .runner import NeighborhoodRunner

#: Numerical tolerance for the step-7 probability comparison.
SCORE_TOLERANCE = 1e-9


class MaximalMessagePassing:
    """The MMP scheme (Algorithm 3)."""

    scheme_name = "mmp"

    def __init__(self, max_activations_per_neighborhood: Optional[int] = None,
                 compute_messages_once: bool = True):
        #: Safety valve on revisits; ``None`` uses the theoretical bound k².
        self.max_activations_per_neighborhood = max_activations_per_neighborhood
        #: When true, Algorithm 2 is run only on the first visit of each
        #: neighborhood.  Later visits still run the matcher with the updated
        #: evidence (which is what promotes messages into matches), but do not
        #: re-probe every pair; this is the standard engineering shortcut and
        #: does not affect soundness (messages are only ever *used* through
        #: the step-7 probability check).
        self.compute_messages_once = compute_messages_once

    # -------------------------------------------------------------------- run
    def run(self, matcher: TypeIMatcher, store: EntityStore, cover: Cover,
            runner: Optional[NeighborhoodRunner] = None) -> SchemeResult:
        if not isinstance(matcher, TypeIIMatcher):
            raise MatcherError(
                "MMP requires a probabilistic (Type-II) matcher; "
                f"{matcher.name!r} is Type-I — use SMP instead"
            )
        runner = runner if runner is not None else NeighborhoodRunner(matcher, store, cover)
        started = time.perf_counter()

        active = ActiveNeighborhoodQueue(cover.names())
        matches: Set[EntityPair] = set()          # M+
        message_set = MaximalMessageSet()         # T
        last_outputs: Dict[str, FrozenSet[EntityPair]] = {}
        messages_created = 0
        activation_counts = {name: 0 for name in cover.names()}
        probed: Set[str] = set()
        limit = self.max_activations_per_neighborhood

        while active:
            name = active.pop()
            neighborhood = cover.neighborhood(name)
            cap = limit if limit is not None else max(len(neighborhood) ** 2, 1)
            if activation_counts[name] >= cap:
                continue
            activation_counts[name] += 1

            # Step 5: plain matches and maximal messages of this neighborhood.
            found = runner.run(name, positive=matches)
            last_outputs[name] = found
            new_matches = found - matches
            matches |= new_matches

            if not self.compute_messages_once or name not in probed:
                probed.add(name)
                new_messages = compute_maximal_messages(
                    runner, name, evidence_matches=matches,
                    unconditioned_output=found)
                messages_created += len(new_messages)
                message_set.add_all(new_messages)     # step 6: (T ∪ TC)*

            # Step 7: promote any message whose addition does not lower the score.
            promoted = promote_messages(matcher, store, matches, message_set)

            # Step 8: re-activate the neighborhoods anything new can teach.
            newly_decided = new_matches | promoted
            if newly_decided:
                active.add_all(n for n in woken_by(cover, newly_decided,
                                                   last_outputs)
                               if n != name)

        elapsed = time.perf_counter() - started
        return SchemeResult(
            scheme=self.scheme_name,
            matcher=matcher.name,
            matches=frozenset(matches),
            neighborhood_runs=runner.calls,
            neighborhoods=len(cover),
            rounds=max(activation_counts.values(), default=0),
            messages_passed=messages_created,
            elapsed_seconds=elapsed,
            matcher_seconds=runner.matcher_seconds,
            extra={
                "total_activations": float(sum(activation_counts.values())),
                "pending_message_pairs": float(message_set.pair_count()),
            },
        )

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
