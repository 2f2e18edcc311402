"""The MLN collective matcher wrapped as a Type-II black box.

This is the paper's primary matcher (Singla & Domingos's MLN-based entity
resolution, Appendix B rules).  It is:

* **collective** — the coauthor rule couples match decisions, so chains of
  mutually-supporting matches are found only when considered together;
* **probabilistic** — the score of any match set is the total weight of fired
  ground rules, so :meth:`log_score`/:meth:`score_delta` are cheap;
* **well-behaved** — with the paper's rule set (one ``equals`` atom per rule
  body, Proposition 4) the matcher is idempotent, monotone and supermodular,
  which is what the framework's soundness theorems require.

Ground networks are cached per entity store so that re-running the matcher on
the same neighborhood with more evidence (the common case during message
passing) does not pay the grounding cost again; a network missing from the
cache is a slice of the binding index of the store's base, so overlapping
neighborhoods of one base ground each binding once.  Next to the network cache
lives a per-store *result* cache: because the matcher is idempotent and
monotone, a previous result obtained under a subset of the current positive
evidence (and identical negative evidence) is contained in the current answer
and can seed — *warm-start* — the MAP search, so revisits and the per-pair
maximal-message probes only pay for the delta their extra evidence causes.
Both caches hold their stores weakly, drop a store's entries once it is
collected (so a retired streaming overlay is freed), and are not pickled.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set

from ..datamodel import EntityPair, EntityStore, Evidence
from ..mln import (
    GreedyCollectiveInference,
    GroundNetwork,
    MarkovLogicNetwork,
    RuleSet,
    paper_author_rules,
)
from .base import TypeIIMatcher, WarmStartCache


class MLNMatcher(TypeIIMatcher):
    """Markov-Logic-Network collective entity matcher (Type-II)."""

    name = "mln"
    supports_warm_start = True

    def __init__(self, rules: Optional[RuleSet] = None,
                 inference: Optional[GreedyCollectiveInference] = None,
                 coauthor_relation: str = "coauthor",
                 cache_results: bool = True,
                 max_cached_stores: int = 2048):
        self.mln = MarkovLogicNetwork(
            rules=rules if rules is not None else paper_author_rules(),
            inference=inference if inference is not None else GreedyCollectiveInference(),
            coauthor_relation=coauthor_relation,
        )
        self.cache_results = cache_results
        if max_cached_stores < 1:
            raise ValueError("max_cached_stores must be >= 1")
        #: LRU bound on the number of *live* stores with a cached network /
        #: result cache (an entry leaves when its store is collected).  The
        #: default comfortably covers one instance's worth of neighborhoods,
        #: so steady-state runs never thrash.
        self.max_cached_stores = max_cached_stores
        # weak reference to a store -> its network / its WarmStartCache of
        # recent results, most recently used last.  A collected store's key
        # pins nothing, answers no live store, and is queued by its callback
        # for the next call to drop.
        self._network_cache: "OrderedDict[weakref.ref, GroundNetwork]" = OrderedDict()
        self._result_cache: "OrderedDict[weakref.ref, WarmStartCache]" = OrderedDict()
        self._dead: List[weakref.ref] = []
        #: Number of times :meth:`match` has been invoked (used by the
        #: experiment harness to report matcher work).
        self.match_calls = 0
        # Cheap cache-efficacy tallies ([hits, misses] per cache — plain int
        # bumps, no lock needed under the GIL).  The grid folds the deltas
        # into the metrics registry via :meth:`consume_cache_stats`.
        self._cache_stats = {"mln_network": [0, 0], "mln_result": [0, 0]}
        self._cache_consumed = {"mln_network": [0, 0], "mln_result": [0, 0]}

    # -------------------------------------------------------------- networks
    def network_for(self, store: EntityStore) -> GroundNetwork:
        """The (cached) ground network for ``store``."""
        return self._cached(self._network_cache, "mln_network", store,
                            lambda: self.mln.ground(store))

    def _results_for(self, store: EntityStore) -> Optional[WarmStartCache]:
        """The per-store warm-start cache (``None`` when result caching is off)."""
        if not self.cache_results:
            return None
        return self._cached(self._result_cache, "mln_result", store, WarmStartCache)

    def _cached(self, cache: "OrderedDict", stat: str, store: EntityStore, make: Callable):
        """``cache``'s value for ``store``, ``make()`` on a miss (LRU-bounded)."""
        self._drop_dead()
        key = weakref.ref(store)
        value = cache.get(key)
        if value is not None:
            cache.move_to_end(key)
            self._cache_stats[stat][0] += 1
            return value
        self._cache_stats[stat][1] += 1
        value = make()
        cache[weakref.ref(store, self._dead.append)] = value
        while len(cache) > self.max_cached_stores:
            cache.popitem(last=False)
        return value

    def _drop_dead(self) -> None:
        """Drop the entries of stores collected since the last cache call.
        The weakref callback, which may run on any thread mid-edit of a
        cache, only queues them (``list.append`` is atomic)."""
        dead = self._dead
        while dead:
            try:
                ref = dead.pop()
            except IndexError:  # another thread took the last one
                return
            self._network_cache.pop(ref, None)
            self._result_cache.pop(ref, None)

    def clear_cache(self) -> None:
        self._network_cache.clear()
        self._result_cache.clear()

    def consume_cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Hits/misses since the last consume (registry-fold protocol).

        The grid calls this after each run and increments the process-wide
        ``lru_cache_{hits,misses}_total`` counters by the returned deltas, so
        repeated runs accumulate without double counting.
        """
        deltas = {}
        for name, (hits, misses) in self._cache_stats.items():
            seen_hits, seen_misses = self._cache_consumed[name]
            deltas[name] = {"hits": hits - seen_hits,
                            "misses": misses - seen_misses}
            self._cache_consumed[name] = [hits, misses]
        return deltas

    # -------------------------------------------------------------- pickling
    def __getstate__(self):
        # Both caches are keyed on store identity, meaningless in another
        # process, and shipping ground networks would dwarf the task payload —
        # the worker re-grounds its (small) neighborhood store.  The tallies
        # restart too: a worker copy's stats describe only its own caches.
        state = self.__dict__.copy()
        state["_network_cache"] = OrderedDict()
        state["_result_cache"] = OrderedDict()
        del state["_dead"]
        state["_cache_stats"] = {"mln_network": [0, 0], "mln_result": [0, 0]}
        state["_cache_consumed"] = {"mln_network": [0, 0],
                                    "mln_result": [0, 0]}
        return state

    def __setstate__(self, state):
        self.__dict__.update(state, _dead=[])  # older pickles carry none

    # -------------------------------------------------------------- matching
    def match(self, store: EntityStore,
              evidence: Optional[Evidence] = None,
              warm_start: Optional[Iterable[EntityPair]] = None) -> FrozenSet[EntityPair]:
        """Most likely match set of ``store`` under ``evidence``.

        ``warm_start`` pairs are seeded into the MAP search; the caller must
        guarantee they are contained in the answer (in practice: a previous
        result of this matcher on the same store under a subset of the current
        evidence).  Compatible results from the per-store cache are merged in
        automatically.
        """
        evidence = evidence if evidence is not None else Evidence.empty()
        self.match_calls += 1
        network = self.network_for(store)
        positive, negative = evidence.pairs_inside(store.entity_ids())

        warm: Set[EntityPair] = set(warm_start) if warm_start else set()
        results = self._results_for(store)
        if results is not None:
            cached = results.lookup(positive, negative)
            if cached is not None:
                warm |= cached

        inference = self.mln.inference
        if warm and getattr(inference, "supports_warm_start", False):
            result = inference.infer(network, fixed_true=positive,
                                     fixed_false=negative,
                                     warm_start=frozenset(warm))
        else:
            result = inference.infer(network, fixed_true=positive,
                                     fixed_false=negative)
        if results is not None:
            results.store(positive, negative, result.matches)
        return result.matches

    # --------------------------------------------------------------- scoring
    def log_score(self, store: EntityStore,
                  matches: Iterable[EntityPair]) -> float:
        return self.network_for(store).score(matches)

    def score_delta(self, store: EntityStore, base: Iterable[EntityPair],
                    added: Iterable[EntityPair]) -> float:
        return self.network_for(store).delta(added, base)

    # ------------------------------------------------------------ diagnostics
    def explain(self, store: EntityStore,
                matches: Iterable[EntityPair]) -> Dict[str, float]:
        """Per-rule breakdown of the score of ``matches`` (for debugging/reports)."""
        return self.network_for(store).explain(matches)

    def candidate_pairs(self, store: EntityStore) -> FrozenSet[EntityPair]:
        """The match decisions that exist for ``store`` (its similar pairs)."""
        return self.network_for(store).candidates
