"""Reference schemes: the queue-driven NO-MP, SMP and MMP loops.

The program runs every scheme on the round-based grid
(``repro.parallel.grid.GridExecutor``, Section 6.3).  The paper states the
schemes as sequential loops instead — pop one active neighborhood, run the
matcher on it with the global match set ``M+`` as evidence, fold what it
found back into ``M+``, re-activate the neighborhoods that can learn from
it — and that is what this module keeps, out of ``src/``, as the oracle the
grid is compared against.  The schemes are consistent (Theorems 2 and 4), so
the two orders must reach the identical match set.

* :class:`ActiveNeighborhoodQueue` — the active set ``A`` (FIFO, set
  semantics).
* :class:`NeighborhoodRunner` — runs the matcher on one neighborhood: caches
  the restricted store, restricts the evidence to it, warm-starts revisits,
  counts calls and matcher time.
* :class:`NoMessagePassing`, :class:`SimpleMessagePassing` (Algorithm 1) and
  :class:`MaximalMessagePassing` (Algorithm 3).  SMP and MMP cap each
  neighborhood at ``k²`` activations (Theorem 3) unless
  ``max_activations_per_neighborhood`` says otherwise; MMP probes maximal
  messages on the first visit only unless ``compute_messages_once=False``.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, Dict, FrozenSet, Iterable, Iterator, Optional, Set

from repro.blocking import Cover
from repro.core import SchemeResult, compute_maximal_messages
from repro.core.activation import woken_by
from repro.core.messages import MaximalMessageSet
from repro.core.mmp import promote_messages
from repro.datamodel import EntityPair, EntityStore, Evidence
from repro.exceptions import MatcherError
from repro.matchers import TypeIIMatcher, TypeIMatcher, WarmStartCache


class ActiveNeighborhoodQueue:
    """A FIFO queue of neighborhood names with set semantics."""

    def __init__(self, names: Iterable[str] = ()):
        self._queue: Deque[str] = deque()
        self._members: Set[str] = set()
        #: Total number of activations ever enqueued (diagnostics).
        self.total_activations = 0
        self.add_all(names)

    def add(self, name: str) -> bool:
        """Activate ``name``; returns ``True`` when it was not already active."""
        if name in self._members:
            return False
        self._members.add(name)
        self._queue.append(name)
        self.total_activations += 1
        return True

    def add_all(self, names: Iterable[str]) -> int:
        """Activate several neighborhoods; returns how many were newly added."""
        added = 0
        for name in names:
            if self.add(name):
                added += 1
        return added

    def pop(self) -> str:
        """Remove and return the next active neighborhood (FIFO)."""
        name = self._queue.popleft()
        self._members.discard(name)
        return name

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)

    def __contains__(self, name: str) -> bool:
        return name in self._members

    def __iter__(self) -> Iterator[str]:
        return iter(list(self._queue))

    def drain(self) -> Iterator[str]:
        """Iterate by popping until empty."""
        while self._queue:
            yield self.pop()


class NeighborhoodRunner:
    """Runs a matcher on the neighborhoods of one cover over one store.

    For matchers that declare ``supports_warm_start`` but keep no result
    cache of their own, each neighborhood's recent results are remembered by
    evidence and the best compatible one (positive evidence a subset of the
    call's, negative evidence identical) seeds the next call.
    """

    def __init__(self, matcher: TypeIMatcher, store: EntityStore, cover: Cover):
        self.matcher = matcher
        self.store = store
        self.cover = cover
        self._neighborhood_stores: Dict[str, EntityStore] = {}
        self._warm_start = bool(getattr(matcher, "supports_warm_start", False)
                                and not getattr(matcher, "cache_results", False))
        self._recent_results: Dict[str, WarmStartCache] = {}
        #: Matcher invocations performed so far.
        self.calls = 0
        #: Total seconds spent inside the matcher.
        self.matcher_seconds = 0.0
        #: Per-neighborhood invocation counts.
        self.calls_per_neighborhood: Dict[str, int] = {}

    def neighborhood_store(self, name: str) -> EntityStore:
        """The restricted store of neighborhood ``name`` (built once, cached)."""
        cached = self._neighborhood_stores.get(name)
        if cached is None:
            cached = self.store.restrict(self.cover.neighborhood(name).entity_ids)
            self._neighborhood_stores[name] = cached
        return cached

    def candidate_pairs(self, name: str) -> FrozenSet[EntityPair]:
        """Candidate (similar) pairs fully inside neighborhood ``name``."""
        return self.neighborhood_store(name).similar_pairs()

    def run(self, name: str, positive: Iterable[EntityPair] = (),
            negative: Iterable[EntityPair] = ()) -> FrozenSet[EntityPair]:
        """Run the matcher on neighborhood ``name`` with the given evidence."""
        neighborhood_store = self.neighborhood_store(name)
        evidence = Evidence.of(positive, negative).restricted_to(
            neighborhood_store.entity_ids())
        started = time.perf_counter()
        if self._warm_start:
            recent = self._recent_results.get(name)
            if recent is None:
                recent = self._recent_results[name] = WarmStartCache()
            warm = recent.lookup(evidence.positive, evidence.negative)
            matches = self.matcher.match(neighborhood_store, evidence,
                                         warm_start=warm)
            recent.store(evidence.positive, evidence.negative, matches)
        else:
            matches = self.matcher.match(neighborhood_store, evidence)
        self.matcher_seconds += time.perf_counter() - started
        self.calls += 1
        self.calls_per_neighborhood[name] = self.calls_per_neighborhood.get(name, 0) + 1
        return matches

    def reset_counters(self) -> None:
        """Zero the call/time counters (the store cache is kept)."""
        self.calls = 0
        self.matcher_seconds = 0.0
        self.calls_per_neighborhood = {}


def _activation_cap(limit: Optional[int], cover: Cover, name: str) -> int:
    """``limit``, or the ``k²`` bound of Theorem 3 for this neighborhood."""
    return limit if limit is not None else max(len(cover.neighborhood(name)) ** 2, 1)


class NoMessagePassing:
    """NO-MP: the matcher once per neighborhood, no evidence, union of outputs."""

    scheme_name = "no-mp"

    def run(self, matcher: TypeIMatcher, store: EntityStore, cover: Cover,
            runner: Optional[NeighborhoodRunner] = None) -> SchemeResult:
        runner = runner if runner is not None else NeighborhoodRunner(matcher, store, cover)
        started = time.perf_counter()
        matches: Set[EntityPair] = set()
        for neighborhood in cover:
            matches |= runner.run(neighborhood.name)
        return SchemeResult(
            scheme=self.scheme_name,
            matcher=matcher.name,
            matches=frozenset(matches),
            neighborhood_runs=runner.calls,
            neighborhoods=len(cover),
            rounds=1,
            messages_passed=0,
            elapsed_seconds=time.perf_counter() - started,
            matcher_seconds=runner.matcher_seconds,
        )


class SimpleMessagePassing:
    """SMP (Algorithm 1): new matches re-activate the neighborhoods they wake."""

    scheme_name = "smp"

    def __init__(self, max_activations_per_neighborhood: Optional[int] = None):
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

        while active:
            name = active.pop()
            if activation_counts[name] >= _activation_cap(
                    self.max_activations_per_neighborhood, cover, name):
                continue
            activation_counts[name] += 1
            found = runner.run(name, positive=matches)        # E(C, M+)
            last_outputs[name] = found
            new_matches = found - matches
            if new_matches:
                active.add_all(woken_by(cover, new_matches, last_outputs))
                messages_passed += len(new_matches)
                matches |= new_matches

        return SchemeResult(
            scheme=self.scheme_name,
            matcher=matcher.name,
            matches=frozenset(matches),
            neighborhood_runs=runner.calls,
            neighborhoods=len(cover),
            rounds=max(activation_counts.values(), default=0),
            messages_passed=messages_passed,
            elapsed_seconds=time.perf_counter() - started,
            matcher_seconds=runner.matcher_seconds,
            extra={"total_activations": float(sum(activation_counts.values()))},
        )


class MaximalMessagePassing:
    """MMP (Algorithm 3): SMP plus merged maximal messages promoted by score."""

    scheme_name = "mmp"

    def __init__(self, max_activations_per_neighborhood: Optional[int] = None,
                 compute_messages_once: bool = True):
        self.max_activations_per_neighborhood = max_activations_per_neighborhood
        self.compute_messages_once = compute_messages_once

    def run(self, matcher: TypeIMatcher, store: EntityStore, cover: Cover,
            runner: Optional[NeighborhoodRunner] = None) -> SchemeResult:
        if not isinstance(matcher, TypeIIMatcher):
            raise MatcherError(
                "MMP requires a probabilistic (Type-II) matcher; "
                f"{matcher.name!r} is Type-I — use SMP instead")
        runner = runner if runner is not None else NeighborhoodRunner(matcher, store, cover)
        started = time.perf_counter()
        active = ActiveNeighborhoodQueue(cover.names())
        matches: Set[EntityPair] = set()          # M+
        message_set = MaximalMessageSet()         # T
        last_outputs: Dict[str, FrozenSet[EntityPair]] = {}
        messages_created = 0
        activation_counts = {name: 0 for name in cover.names()}
        probed: Set[str] = set()

        while active:
            name = active.pop()
            if activation_counts[name] >= _activation_cap(
                    self.max_activations_per_neighborhood, cover, name):
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

        return SchemeResult(
            scheme=self.scheme_name,
            matcher=matcher.name,
            matches=frozenset(matches),
            neighborhood_runs=runner.calls,
            neighborhoods=len(cover),
            rounds=max(activation_counts.values(), default=0),
            messages_passed=messages_created,
            elapsed_seconds=time.perf_counter() - started,
            matcher_seconds=runner.matcher_seconds,
            extra={
                "total_activations": float(sum(activation_counts.values())),
                "pending_message_pairs": float(message_set.pair_count()),
            },
        )


#: The oracle of each scheme name ``EMFramework.run`` accepts (bar ``full``).
SCHEMES = {
    "no-mp": NoMessagePassing,
    "smp": SimpleMessagePassing,
    "mmp": MaximalMessagePassing,
}
