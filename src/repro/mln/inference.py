"""MAP inference over a ground network.

The MAP (maximum a-posteriori) state of the ground network is the match set
with the highest score.

* :class:`GreedyCollectiveInference` — the inference procedure.  It combines
  greedy single-pair moves with *collective chain moves*: a pair whose own
  delta is non-positive is tentatively added, the positive-delta pairs it
  entails are pulled in, and the whole group is accepted only when its joint
  delta is positive.  This reproduces the collective behaviour of Section 2.1
  (the (a1,a2), (b2,b3), (c2,c3) chain is only worth matching as a whole) and,
  because the network is supermodular, never *removes* pairs — which keeps the
  resulting matcher monotone.

  The search runs on the **incremental counting engine**
  (:class:`~repro.mln.state.WorldState`): every probe costs the degree of one
  pair instead of a frozenset rebuild per touching grounding, and greedy
  progress propagates through a worklist seeded from the touching index —
  supermodularity guarantees only pairs sharing a grounding with a newly
  added pair can flip from non-positive to positive delta.  The full-rescan
  path against :meth:`GroundNetwork.delta` that it replaced is the oracle
  ``tests/reference/inference.py``.

  ``infer(..., warm_start=...)`` seeds the search with a previous result.
  This is sound whenever the warm-start set is contained in the cold answer —
  in particular when it is the matcher's own output under a subset of the
  current evidence (idempotence + monotonicity, Definition 4): the greedy
  closure from any subset of the fixpoint reaches the same fixpoint, so later
  message-passing rounds only pay for the delta their new evidence causes.

It respects evidence: pairs in ``fixed_true`` are clamped in, pairs in
``fixed_false`` are clamped out.  On tiny candidate sets it is compared
against the brute-force search over all subsets in
``tests/reference/inference.py``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, FrozenSet, Iterable, Optional, Set

from ..datamodel import EntityPair
from ..obs import registry as obs_registry
from ..obs.trace import span
from .network import GroundNetwork
from .state import WorldState

#: Numerical tolerance when comparing score deltas to zero.
SCORE_TOLERANCE = 1e-9

_INFERENCES = obs_registry.counter(
    "mln_inferences_total", "MAP inference runs", labels=("engine",))
_ITERATIONS = obs_registry.counter(
    "mln_inference_iterations_total", "Outer passes across inference runs")


@dataclass(frozen=True)
class InferenceResult:
    """Output of a MAP inference run."""

    matches: FrozenSet[EntityPair]
    score: float
    iterations: int


class GreedyCollectiveInference:
    """Greedy + collective-chain MAP search.

    Parameters
    ----------
    max_iterations:
        Safety bound on the number of outer passes; the search normally
        converges long before this.
    enable_group_moves:
        When disabled only single-pair greedy moves are made — this is the
        behaviour of a purely iterative matcher and is exposed so the effect
        of collective moves can be measured (ablation benches).
    accept_zero_gain_groups:
        When enabled a group whose joint delta is exactly zero is still
        accepted, implementing the Type-II tie-break "prefer the largest most
        likely set".  Disabled by default: strict improvement keeps the MAP
        state unique on generic weights.
    """

    #: Callers may pass ``warm_start`` to :meth:`infer` (feature-detection
    #: hook for matchers wrapping a custom inference object).
    supports_warm_start = True

    def __init__(self, max_iterations: int = 1000, enable_group_moves: bool = True,
                 accept_zero_gain_groups: bool = False):
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        self.max_iterations = max_iterations
        self.enable_group_moves = enable_group_moves
        self.accept_zero_gain_groups = accept_zero_gain_groups

    # ------------------------------------------------------------------ api
    def infer(self, network: GroundNetwork,
              fixed_true: Iterable[EntityPair] = (),
              fixed_false: Iterable[EntityPair] = (),
              warm_start: Optional[Iterable[EntityPair]] = ()) -> InferenceResult:
        """Return (an approximation of) the MAP match set of ``network``.

        ``warm_start`` pairs are seeded into the initial world (restricted to
        candidate pairs, minus ``fixed_false``).  Pass the previous round's
        matches when re-running with grown evidence: the search then only pays
        for the delta the new evidence causes.
        """
        clamped_true = frozenset(fixed_true)
        clamped_false = frozenset(fixed_false) - clamped_true
        seed = set(clamped_true)
        if warm_start:
            seed |= (frozenset(warm_start) & network.candidates) - clamped_false
        with span("mln.infer", engine="counting",
                  candidates=len(network.candidates)) as infer_span:
            state = WorldState(network, initial=seed)
            free: Set[EntityPair] = {
                pair for pair in network.candidates
                if pair not in state and pair not in clamped_false
            }

            iterations = 0
            changed = True
            while changed and iterations < self.max_iterations:
                iterations += 1
                with span("mln.greedy_pass", iteration=iterations):
                    changed = self._greedy_pass_counting(network, state, free)
                if self.enable_group_moves:
                    with span("mln.group_pass", iteration=iterations):
                        group_changed = self._group_pass_counting(
                            network, state, free)
                    changed = changed or group_changed
            infer_span.add_attrs(iterations=iterations,
                                 matches=len(state.world))
        _INFERENCES.inc(engine="counting")
        _ITERATIONS.inc(iterations)
        return InferenceResult(matches=state.world, score=state.score,
                               iterations=iterations)

    def _greedy_pass_counting(self, network: GroundNetwork, state: WorldState,
                              free: Set[EntityPair]) -> bool:
        """Add every single pair with a strictly positive delta, to fixpoint.

        The worklist starts from every free pair (earlier group moves may have
        left unrelated pairs positive) and thereafter re-enqueues only the
        pairs sharing a grounding with an accepted pair — the only pairs whose
        delta can have changed.  The fixpoint is the unique greedy closure, so
        the result matches the naive full-rescan reference.
        """
        changed_any = False
        worklist: Deque[EntityPair] = deque(sorted(free))
        queued: Set[EntityPair] = set(worklist)
        while worklist:
            pair = worklist.popleft()
            queued.discard(pair)
            if pair not in free:
                continue
            if state.delta_single(pair) > SCORE_TOLERANCE:
                state.add(pair)
                free.discard(pair)
                changed_any = True
                for neighbor in network.affected_pairs(pair):
                    if neighbor in free and neighbor not in queued:
                        worklist.append(neighbor)
                        queued.add(neighbor)
        return changed_any

    def _group_pass_counting(self, network: GroundNetwork, state: WorldState,
                             free: Set[EntityPair]) -> bool:
        """Try collective chain moves seeded at each unmatched pair."""
        changed_any = False
        for seed in sorted(free):
            if seed not in free:
                continue  # absorbed by an earlier group this pass
            group = self._expand_group_counting(network, state, free, seed)
            joint_delta = state.delta(group)
            accept = joint_delta > SCORE_TOLERANCE or (
                self.accept_zero_gain_groups and joint_delta >= -SCORE_TOLERANCE
            )
            if accept:
                for pair in group:
                    state.add(pair)
                    free.discard(pair)
                changed_any = True
        return changed_any

    @staticmethod
    def _expand_group_counting(network: GroundNetwork, state: WorldState,
                               free: Set[EntityPair],
                               seed: EntityPair) -> Set[EntityPair]:
        """Grow a tentative group from ``seed`` by pulling in entailed pairs.

        Runs on a hypothetical copy of the state so probes stay O(degree).
        The worklist again starts from every free pair — an earlier accepted
        group in the same pass may have made a pair far from ``seed``
        positive, and the naive reference would absorb it — and propagates
        through the touching index.
        """
        hypothetical = state.copy()
        hypothetical.add(seed)
        group: Set[EntityPair] = {seed}
        worklist: Deque[EntityPair] = deque(sorted(free))
        queued: Set[EntityPair] = set(worklist)
        while worklist:
            pair = worklist.popleft()
            queued.discard(pair)
            if pair in group or pair not in free:
                continue
            if hypothetical.delta_single(pair) > SCORE_TOLERANCE:
                hypothetical.add(pair)
                group.add(pair)
                for neighbor in network.affected_pairs(pair):
                    if neighbor in free and neighbor not in group \
                            and neighbor not in queued:
                        worklist.append(neighbor)
                        queued.add(neighbor)
        return group
