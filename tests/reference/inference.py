"""Reference MAP searches: the set-based path the counting engine replaced,
and the exact brute force.

``NaiveCollectiveInference`` below carries what
``GreedyCollectiveInference(use_counting=False)`` ran, verbatim: every probe
is a full :meth:`GroundNetwork.delta_single` against a plain set world, the
greedy pass rescans every free candidate until nothing changes, and group
expansion rebuilds ``world | group`` per sweep.  Kept here, out of ``src/``,
as the oracle :class:`repro.mln.GreedyCollectiveInference` is compared
against — on supermodular networks both must return the identical match set,
with and without ``warm_start``, group moves and zero-gain groups.

:func:`exhaustive_map` enumerates every subset of the free candidates: the
exact MAP the greedy search is compared against on tiny networks.
"""

from __future__ import annotations

from itertools import combinations
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set

from repro.datamodel import EntityPair
from repro.exceptions import InferenceError
from repro.mln.inference import (SCORE_TOLERANCE, _INFERENCES, _ITERATIONS,
                                 GreedyCollectiveInference, InferenceResult)
from repro.mln.network import GroundNetwork
from repro.obs.trace import span


class NaiveCollectiveInference(GreedyCollectiveInference):
    """Greedy + collective-chain MAP search over plain sets."""

    def infer(self, network: GroundNetwork,
              fixed_true: Iterable[EntityPair] = (),
              fixed_false: Iterable[EntityPair] = (),
              warm_start: Optional[Iterable[EntityPair]] = ()) -> InferenceResult:
        """Return (an approximation of) the MAP match set of ``network``."""
        clamped_true = frozenset(fixed_true)
        clamped_false = frozenset(fixed_false) - clamped_true
        seed = set(clamped_true)
        if warm_start:
            seed |= (frozenset(warm_start) & network.candidates) - clamped_false
        return self._infer_naive(network, seed, clamped_false)

    # ------------------------------------------------------ naive reference
    def _infer_naive(self, network: GroundNetwork, seed: Set[EntityPair],
                     clamped_false: FrozenSet[EntityPair]) -> InferenceResult:
        with span("mln.infer", engine="naive",
                  candidates=len(network.candidates)) as infer_span:
            world: Set[EntityPair] = set(seed)
            free_candidates = [
                pair for pair in sorted(network.candidates)
                if pair not in world and pair not in clamped_false
            ]

            iterations = 0
            changed = True
            while changed and iterations < self.max_iterations:
                iterations += 1
                with span("mln.greedy_pass", iteration=iterations):
                    changed = self._greedy_pass(network, world, free_candidates)
                if self.enable_group_moves:
                    with span("mln.group_pass", iteration=iterations):
                        group_changed = self._group_pass(
                            network, world, free_candidates)
                    changed = changed or group_changed
            infer_span.add_attrs(iterations=iterations, matches=len(world))
        _INFERENCES.inc(engine="naive")
        _ITERATIONS.inc(iterations)
        matched = frozenset(world)
        return InferenceResult(matches=matched, score=network.score(matched),
                               iterations=iterations)

    def _greedy_pass(self, network: GroundNetwork, world: Set[EntityPair],
                     free_candidates: List[EntityPair]) -> bool:
        """Add every single pair with a strictly positive delta; loop to fixpoint."""
        changed_any = False
        progress = True
        while progress:
            progress = False
            for pair in free_candidates:
                if pair in world:
                    continue
                if network.delta_single(pair, world) > SCORE_TOLERANCE:
                    world.add(pair)
                    progress = True
                    changed_any = True
        return changed_any

    def _group_pass(self, network: GroundNetwork, world: Set[EntityPair],
                    free_candidates: List[EntityPair]) -> bool:
        """Try collective chain moves seeded at each unmatched pair."""
        changed_any = False
        for seed in free_candidates:
            if seed in world:
                continue
            group = self._expand_group(network, world, free_candidates, seed)
            joint_delta = network.delta(group, world)
            accept = joint_delta > SCORE_TOLERANCE or (
                self.accept_zero_gain_groups and joint_delta >= -SCORE_TOLERANCE
            )
            if accept:
                world.update(group)
                changed_any = True
        return changed_any

    @staticmethod
    def _expand_group(network: GroundNetwork, world: Set[EntityPair],
                      free_candidates: Sequence[EntityPair],
                      seed: EntityPair) -> Set[EntityPair]:
        """Grow a tentative group from ``seed`` by pulling in entailed pairs.

        A pair is entailed when, with the current world plus the tentative
        group assumed matched, its own delta becomes strictly positive.
        Because the network is supermodular this expansion is monotone and
        terminates once no further pair is entailed.
        """
        group: Set[EntityPair] = {seed}
        progress = True
        while progress:
            progress = False
            hypothetical = world | group
            for pair in free_candidates:
                if pair in hypothetical:
                    continue
                if network.delta_single(pair, hypothetical) > SCORE_TOLERANCE:
                    group.add(pair)
                    progress = True
        return group


def exhaustive_map(network: GroundNetwork,
                   fixed_true: Iterable[EntityPair] = (),
                   fixed_false: Iterable[EntityPair] = (),
                   max_candidates: int = 18,
                   prefer_larger: bool = True) -> InferenceResult:
    """Brute-force MAP over all subsets of the free candidate pairs.

    Only feasible for tiny candidate sets (≤ ``max_candidates`` free pairs);
    raises :class:`InferenceError` beyond that.  ``prefer_larger`` implements
    the Type-II tie-break: among equal-score sets the largest is returned.
    """
    clamped_true = frozenset(fixed_true)
    clamped_false = frozenset(fixed_false) - clamped_true
    free = [pair for pair in sorted(network.candidates)
            if pair not in clamped_true and pair not in clamped_false]
    if len(free) > max_candidates:
        raise InferenceError(
            f"exhaustive_map limited to {max_candidates} free candidates, got {len(free)}"
        )
    best_set: FrozenSet[EntityPair] = frozenset(clamped_true)
    best_score = network.score(best_set)
    for size in range(len(free) + 1):
        for chosen in combinations(free, size):
            world = frozenset(clamped_true) | frozenset(chosen)
            score = network.score(world)
            better = score > best_score + SCORE_TOLERANCE
            tie_and_larger = (
                prefer_larger
                and abs(score - best_score) <= SCORE_TOLERANCE
                and len(world) > len(best_set)
            )
            if better or tie_and_larger:
                best_score = score
                best_set = world
    return InferenceResult(matches=best_set, score=best_score, iterations=1)


def exhaustive_map_state(mln, store, positive: Iterable[EntityPair] = (),
                         negative: Iterable[EntityPair] = (),
                         max_candidates: int = 18) -> InferenceResult:
    """Exact MAP of ``mln`` on ``store`` by enumeration (tiny instances)."""
    return exhaustive_map(mln.ground(store), fixed_true=positive,
                          fixed_false=negative, max_candidates=max_candidates)
