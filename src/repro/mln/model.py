"""Markov Logic Network facade.

:class:`MarkovLogicNetwork` ties together the rule language, the evidence
facts of a store, the grounder, the ground network and MAP inference behind a
small API:

* :meth:`ground` — build the ground network for an entity store (a slice of
  the binding index of the store's base),
* :meth:`map_state` — MAP match set given evidence,
* :meth:`score` / :meth:`score_delta` — world scoring for MMP step 7.

This is the object the :class:`repro.matchers.mln_matcher.MLNMatcher` wraps
into the framework's black-box matcher protocol.
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterable, Optional, Sequence

from ..datamodel import EntityPair, EntityStore
from .database import StoreFacts
from .grounding import BindingIndex, Grounder
from .inference import GreedyCollectiveInference, InferenceResult
from .logic import RuleSet, paper_author_rules
from .network import GroundNetwork


class MarkovLogicNetwork:
    """A weighted first-order rule program with grounding and MAP inference."""

    def __init__(self, rules: Optional[RuleSet] = None,
                 inference: Optional[GreedyCollectiveInference] = None,
                 coauthor_relation: str = "coauthor",
                 extra_relations: Sequence[str] = ()):
        self.rules = rules if rules is not None else paper_author_rules()
        self.inference = inference if inference is not None else GreedyCollectiveInference()
        self.coauthor_relation = coauthor_relation
        self.extra_relations = tuple(extra_relations)
        self._grounder = Grounder(self.rules)
        self._init_indexes()

    def _init_indexes(self) -> None:
        # base -> (its generation, its BindingIndex); weak, so a retired base
        # (a rebased-away overlay, a dropped snapshot) takes its index along.
        # Two threads may both build a missing index: both are right.
        self._indexes: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def __getstate__(self):
        # Binding indexes describe this process's stores; a copy re-grounds.
        return {name: value for name, value in self.__dict__.items()
                if name != "_indexes"}

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._init_indexes()

    # ------------------------------------------------------------- grounding
    def ground(self, store: EntityStore) -> GroundNetwork:
        """Ground the rule program against ``store``.

        A base with a ``generation`` (a snapshot, a streaming overlay) keeps
        a binding index per generation; the base and each view of it get the
        slice their members keep, equal to grounding them.  A dict store,
        mutable in place and its own base, is grounded whole, keeping nothing.
        """
        base, members = store.restriction()
        relations = (self.coauthor_relation, *self.extra_relations)
        generation = getattr(base, "generation", None)
        if generation is None:
            return GroundNetwork(*self._grounder.ground(StoreFacts(base, relations)))
        held = self._indexes.get(base)
        if held is None or held[0] != generation:
            # The facts read the base through a proxy: the index is the weak
            # dictionary's value and must not keep its key alive.
            held = self._indexes[base] = (generation, BindingIndex(
                self._grounder.plans, StoreFacts(weakref.proxy(base), relations)))
        return GroundNetwork(*held[1].slice(members))

    # ------------------------------------------------------------- inference
    def map_state(self, store: EntityStore,
                  positive: Iterable[EntityPair] = (),
                  negative: Iterable[EntityPair] = (),
                  network: Optional[GroundNetwork] = None) -> InferenceResult:
        """MAP match set of ``store`` under the given evidence."""
        net = network if network is not None else self.ground(store)
        return self.inference.infer(net, fixed_true=positive, fixed_false=negative)

    # --------------------------------------------------------------- scoring
    def score(self, store: EntityStore, matches: Iterable[EntityPair],
              network: Optional[GroundNetwork] = None) -> float:
        """Score (unnormalised log-probability) of a match set over ``store``."""
        net = network if network is not None else self.ground(store)
        return net.score(matches)

    def score_delta(self, store: EntityStore, base: Iterable[EntityPair],
                    added: Iterable[EntityPair],
                    network: Optional[GroundNetwork] = None) -> float:
        """Score change of adding ``added`` on top of ``base``.

        This is the quantity MMP's step 7 compares against zero:
        ``P(M+ ∪ M) ≥ P(M+)`` holds iff the delta is ≥ 0.
        """
        net = network if network is not None else self.ground(store)
        return net.delta(added, base)

    # ----------------------------------------------------------------- admin
    def weights(self) -> Dict[str, float]:
        return self.rules.weights()

    def with_weights(self, weights: Dict[str, float]) -> "MarkovLogicNetwork":
        """A copy of this MLN with new rule weights (used after learning)."""
        return MarkovLogicNetwork(
            rules=self.rules.with_weights(weights),
            inference=self.inference,
            coauthor_relation=self.coauthor_relation,
            extra_relations=self.extra_relations,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MarkovLogicNetwork(rules={self.rules.names()})"
