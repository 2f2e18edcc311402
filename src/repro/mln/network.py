"""Ground network: scoring worlds and computing incremental deltas.

A :class:`GroundNetwork` holds the ground rules produced by the
:class:`~repro.mln.grounding.Grounder` together with per-pair indexes so that
the score change caused by adding one pair (or a group of pairs) to a match
set can be computed by touching only the groundings that mention those pairs.
This is the property the paper relies on for MMP step 7: "computing PE(S) for
a specific S is very cheap using the parameters of the model".

The *score* of a match set M is the total weight of the ground rules that fire
under M; the corresponding (unnormalised) probability is ``exp(score)``, so
score comparisons are probability comparisons.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..datamodel import EntityPair
from .grounding import GroundRule


class GroundNetwork:
    """An indexed collection of ground rules over a set of candidate pairs."""

    def __init__(self, groundings: Iterable[GroundRule],
                 candidates: Iterable[EntityPair]):
        self._groundings: List[GroundRule] = list(groundings)
        self._candidates: FrozenSet[EntityPair] = frozenset(candidates)
        # Flat per-grounding views consumed by the incremental WorldState:
        # weights, query-pair sets and their sizes, indexed like _groundings.
        self._weights: List[float] = [g.weight for g in self._groundings]
        self._grounding_pairs: List[FrozenSet[EntityPair]] = [
            g.pairs() for g in self._groundings
        ]
        self._sizes: List[int] = [len(pairs) for pairs in self._grounding_pairs]
        # pair -> indexes of groundings in which the pair participates.
        self._touching: Dict[EntityPair, List[int]] = {}
        for index, pairs in enumerate(self._grounding_pairs):
            for pair in pairs:
                self._touching.setdefault(pair, []).append(index)
        # pair -> pairs sharing a grounding with it (lazily built worklist
        # adjacency for the incremental inference engine).
        self._affected_cache: Dict[EntityPair, FrozenSet[EntityPair]] = {}

    # ---------------------------------------------------------------- access
    @property
    def candidates(self) -> FrozenSet[EntityPair]:
        """Pairs over which a match decision exists."""
        return self._candidates

    @property
    def groundings(self) -> Sequence[GroundRule]:
        return tuple(self._groundings)

    def groundings_touching(self, pair: EntityPair) -> List[GroundRule]:
        return [self._groundings[i] for i in self._touching.get(pair, ())]

    # ------------------------------------------------- incremental-state views
    # Read-only structural views consumed by repro.mln.state.WorldState; the
    # returned containers are shared, never copied — callers must not mutate.
    @property
    def touching_map(self) -> Dict[EntityPair, List[int]]:
        """pair -> indexes (into :attr:`groundings`) of groundings touching it."""
        return self._touching

    @property
    def grounding_weights(self) -> List[float]:
        """Per-grounding weights, indexed like :attr:`groundings`."""
        return self._weights

    @property
    def grounding_sizes(self) -> List[int]:
        """Per-grounding count of distinct query pairs (head + body)."""
        return self._sizes

    def touching_indexes(self, pair: EntityPair) -> Sequence[int]:
        """Indexes of the groundings in which ``pair`` participates."""
        return self._touching.get(pair, ())

    def affected_pairs(self, pair: EntityPair) -> FrozenSet[EntityPair]:
        """Pairs sharing at least one grounding with ``pair`` (cached).

        Adding ``pair`` to a world can only change the delta of these pairs —
        this is the worklist edge relation of the incremental greedy search.
        """
        cached = self._affected_cache.get(pair)
        if cached is not None:
            return cached
        affected: Set[EntityPair] = set()
        for index in self._touching.get(pair, ()):
            affected.update(self._grounding_pairs[index])
        affected.discard(pair)
        result = frozenset(affected)
        self._affected_cache[pair] = result
        return result

    def size(self) -> Dict[str, int]:
        return {"groundings": len(self._groundings), "candidates": len(self._candidates)}

    # --------------------------------------------------------------- scoring
    def score(self, matches: Iterable[EntityPair]) -> float:
        """Total weight of the groundings that fire under ``matches``."""
        world = frozenset(matches)
        return sum(g.weight for g in self._groundings if g.fires(world))

    def log_probability(self, matches: Iterable[EntityPair]) -> float:
        """Unnormalised log-probability of ``matches`` (identical to :meth:`score`).

        The normalisation constant is shared by every match set over the same
        entities, so comparisons of log-probabilities reduce to comparisons of
        scores — which is all the framework ever needs.
        """
        return self.score(matches)

    def delta(self, added: Iterable[EntityPair], matches: Iterable[EntityPair]) -> float:
        """Score change from adding ``added`` to ``matches``.

        Only groundings touching one of the added pairs can change state, so
        the computation is local.  Pairs already in ``matches`` contribute
        nothing.
        """
        base = frozenset(matches)
        additions = frozenset(added) - base
        if not additions:
            return 0.0
        extended = base | additions
        touched_indexes: Set[int] = set()
        for pair in additions:
            touched_indexes.update(self._touching.get(pair, ()))
        change = 0.0
        for index in touched_indexes:
            grounding = self._groundings[index]
            fired_before = grounding.fires(base)
            fired_after = grounding.fires(extended)
            if fired_after and not fired_before:
                change += grounding.weight
            elif fired_before and not fired_after:  # pragma: no cover - cannot happen for additions
                change -= grounding.weight
        return change

    def delta_single(self, pair: EntityPair, matches: Iterable[EntityPair]) -> float:
        """Score change from adding a single pair."""
        return self.delta((pair,), matches)

    def fired(self, matches: Iterable[EntityPair]) -> List[GroundRule]:
        """The groundings that fire under ``matches`` (useful for explanations)."""
        world = frozenset(matches)
        return [g for g in self._groundings if g.fires(world)]

    def explain(self, matches: Iterable[EntityPair]) -> Dict[str, float]:
        """Total fired weight per rule name — a human-readable score breakdown."""
        breakdown: Dict[str, float] = {}
        for grounding in self.fired(matches):
            breakdown[grounding.rule_name] = breakdown.get(grounding.rule_name, 0.0) + grounding.weight
        return breakdown
