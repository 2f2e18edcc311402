"""SMP: the Simple Message Passing scheme (Algorithm 1).

The scheme keeps a set ``A`` of active neighborhoods (initially all of them)
and a global set ``M+`` of matches found so far.  Processing a neighborhood
``C`` runs the matcher on ``C`` with ``M+`` as positive evidence; any *new*
matches re-activate the neighborhoods that can learn from them
(:func:`~repro.core.activation.woken_by` — the tight form of the paper's
``Neighbor(...)`` operator).  The scheme terminates when no neighborhood is
active.

For well-behaved matchers SMP is sound, consistent, and terminates after at
most ``k²`` activations per neighborhood (Theorems 2 and 3); in practice each
neighborhood is processed only a handful of times.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, Optional, Set

from ..blocking import Cover
from ..datamodel import EntityPair, EntityStore
from ..matchers import TypeIMatcher
from .activation import woken_by
from .active_set import ActiveNeighborhoodQueue
from .result import SchemeResult
from .runner import NeighborhoodRunner


class SimpleMessagePassing:
    """The SMP scheme (Algorithm 1)."""

    scheme_name = "smp"

    def __init__(self, max_activations_per_neighborhood: Optional[int] = None):
        #: Safety valve on revisits; ``None`` uses the theoretical bound k².
        self.max_activations_per_neighborhood = max_activations_per_neighborhood

    def run(self, matcher: TypeIMatcher, store: EntityStore, cover: Cover,
            runner: Optional[NeighborhoodRunner] = None) -> SchemeResult:
        runner = runner if runner is not None else NeighborhoodRunner(matcher, store, cover)
        started = time.perf_counter()

        active = ActiveNeighborhoodQueue(cover.names())
        matches: Set[EntityPair] = set()                     # M+
        last_outputs: Dict[str, FrozenSet[EntityPair]] = {}
        messages_passed = 0
        activation_counts = {name: 0 for name in cover.names()}
        limit = self.max_activations_per_neighborhood

        while active:
            name = active.pop()
            neighborhood = cover.neighborhood(name)
            cap = limit if limit is not None else max(len(neighborhood) ** 2, 1)
            if activation_counts[name] >= cap:
                continue
            activation_counts[name] += 1

            found = runner.run(name, positive=matches)        # E(C, M+)
            last_outputs[name] = found
            new_matches = found - matches
            if new_matches:
                # The new matches are the message: it wakes neighborhoods
                # holding both ends of a pair (never this one — its output).
                active.add_all(woken_by(cover, new_matches, last_outputs))
                messages_passed += len(new_matches)
                matches |= new_matches

        elapsed = time.perf_counter() - started
        return SchemeResult(
            scheme=self.scheme_name,
            matcher=matcher.name,
            matches=frozenset(matches),
            neighborhood_runs=runner.calls,
            neighborhoods=len(cover),
            rounds=max(activation_counts.values(), default=0),
            messages_passed=messages_passed,
            elapsed_seconds=elapsed,
            matcher_seconds=runner.matcher_seconds,
            extra={"total_activations": float(sum(activation_counts.values()))},
        )
