"""Incremental world state: counter-maintained scoring over a ground network.

The naive :meth:`~repro.mln.network.GroundNetwork.score`/``delta`` path
rebuilds frozensets and re-tests ``body_pairs <= matches`` for every touching
grounding on every probe.  :class:`WorldState` replaces those subset checks
with one integer per grounding — the number of its query pairs *not yet* in
the world.  Adding a pair decrements the counters of the groundings it touches
(via the network's touching index); a grounding fires exactly when its counter
reaches zero, at which point its weight is folded into a running score.  With
that invariant the hot operations of MAP inference become:

* ``score``        — a stored float, O(1);
* ``delta_single`` — sum the weights of touching groundings whose counter is
  exactly one, O(degree of the pair), with zero set copies;
* ``delta``        — count, per touched grounding, how many of the added pairs
  it is still missing and compare with its counter, O(total degree);
* ``add``          — decrement counters and collect newly-fired weights,
  O(degree of the pair).

This is what makes MMP step 7 "very cheap" at scale: a greedy-pass probe costs
the degree of one pair instead of a pass over every touching grounding's pair
sets.  The naive :class:`~repro.mln.network.GroundNetwork` methods stay as the
reference implementation; the property tests assert that both produce
identical numbers for arbitrary add sequences.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Set

from ..datamodel import EntityPair
from .network import GroundNetwork


class WorldState:
    """A mutable match set over a ground network with O(degree) score updates.

    The state never *removes* pairs — the greedy collective inference is
    monotone (pairs are only ever added), so counters only ever decrease.
    Hypothetical worlds (group expansion) are handled by :meth:`copy`, which
    keeps the arithmetic exact instead of replaying additions backwards.
    """

    __slots__ = ("_network", "_touching", "_weights", "_missing", "_world",
                 "_score")

    def __init__(self, network: GroundNetwork,
                 initial: Iterable[EntityPair] = ()):
        self._network = network
        # Borrowed read-only views of the network's indexes (shared, never
        # mutated here): pair -> grounding indexes, and per-grounding weights.
        self._touching: Dict[EntityPair, List[int]] = network.touching_map
        self._weights: List[float] = network.grounding_weights
        #: Per grounding: number of its query pairs not yet in the world.
        self._missing: List[int] = list(network.grounding_sizes)
        self._world: Set[EntityPair] = set()
        self._score = 0.0
        for pair in initial:
            self.add(pair)

    # ----------------------------------------------------------------- views
    @property
    def network(self) -> GroundNetwork:
        return self._network

    @property
    def score(self) -> float:
        """Total weight of the currently fired groundings (running total)."""
        return self._score

    @property
    def world(self) -> FrozenSet[EntityPair]:
        """The current match set as an immutable snapshot."""
        return frozenset(self._world)

    def __contains__(self, pair: EntityPair) -> bool:
        return pair in self._world

    def __len__(self) -> int:
        return len(self._world)

    # ------------------------------------------------------------- mutation
    def add(self, pair: EntityPair) -> float:
        """Add ``pair`` to the world; return the score gained.

        Pairs already present contribute nothing; pairs outside the candidate
        set touch no groundings and simply join the world (mirroring the naive
        semantics, where such pairs never change any grounding's state).
        """
        if pair in self._world:
            return 0.0
        self._world.add(pair)
        gained = 0.0
        missing = self._missing
        weights = self._weights
        for index in self._touching.get(pair, ()):
            remaining = missing[index] - 1
            missing[index] = remaining
            if remaining == 0:
                gained += weights[index]
        self._score += gained
        return gained

    def add_all(self, pairs: Iterable[EntityPair]) -> float:
        """Add every pair; return the total score gained."""
        return sum(self.add(pair) for pair in pairs)

    # --------------------------------------------------------------- probing
    def delta_single(self, pair: EntityPair) -> float:
        """Score change :meth:`add` would cause, without mutating anything.

        A touching grounding newly fires iff ``pair`` is its single missing
        query pair, i.e. its counter is exactly one.
        """
        if pair in self._world:
            return 0.0
        missing = self._missing
        weights = self._weights
        total = 0.0
        for index in self._touching.get(pair, ()):
            if missing[index] == 1:
                total += weights[index]
        return total

    def delta(self, pairs: Iterable[EntityPair]) -> float:
        """Score change of adding all of ``pairs`` at once (non-mutating).

        A touched grounding newly fires iff the additions supply *all* of its
        missing pairs — its counter equals the number of added pairs touching
        it (every addition is outside the world, so each touching addition is
        one of its missing pairs).
        """
        additions = [p for p in set(pairs) if p not in self._world]
        if not additions:
            return 0.0
        if len(additions) == 1:
            return self.delta_single(additions[0])
        hits: Dict[int, int] = {}
        for pair in additions:
            for index in self._touching.get(pair, ()):
                hits[index] = hits.get(index, 0) + 1
        missing = self._missing
        weights = self._weights
        return sum(weights[index] for index, supplied in hits.items()
                   if missing[index] == supplied)

    # ------------------------------------------------------------------ copy
    def copy(self) -> "WorldState":
        """An independent hypothetical world sharing the (immutable) indexes."""
        clone = WorldState.__new__(WorldState)
        clone._network = self._network
        clone._touching = self._touching
        clone._weights = self._weights
        clone._missing = list(self._missing)
        clone._world = set(self._world)
        clone._score = self._score
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WorldState(pairs={len(self._world)}, score={self._score:.3f})"
