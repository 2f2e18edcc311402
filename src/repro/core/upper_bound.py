"""UB: the ground-truth-conditioned upper bound of Section 6.1.

Running the full MLN on the whole dataset is infeasible at scale, so the paper
bounds what it *could* produce: for every candidate pair, the matcher is given
the ground truth about all other pairs as evidence and asked to decide the
pair.  For a supermodular matcher the set of pairs accepted this way is a
superset of what any actual full run can match, so its recall upper-bounds the
recall of the full run (and the completeness of a message-passing scheme can
be lower-bounded against it).

For Type-II matchers the per-pair decision reduces to a score comparison:
pair ``p`` is accepted when adding it to the ground-truth matches (restricted
to candidate pairs, excluding ``p``) does not decrease the probability.  A
generic (slower) fallback that literally re-runs a Type-I matcher per pair is
also provided.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple

from ..blocking import Cover
from ..datamodel import EntityPair, EntityStore, Evidence
from ..matchers import TypeIIMatcher, TypeIMatcher
from .mmp import SCORE_TOLERANCE
from .result import SchemeResult


class UpperBoundScheme:
    """The UB evaluation scheme (not an algorithm — it peeks at the ground truth)."""

    scheme_name = "ub"

    def run(self, matcher: TypeIIMatcher, store: EntityStore,
            ground_truth: Iterable[EntityPair],
            candidates: Optional[Iterable[EntityPair]] = None) -> SchemeResult:
        """Compute the UB match set for a Type-II matcher via score deltas."""
        started = time.perf_counter()
        candidate_pairs = frozenset(candidates) if candidates is not None \
            else store.similar_pairs()
        truth = frozenset(ground_truth) & candidate_pairs

        accepted: Set[EntityPair] = set()
        for pair in sorted(candidate_pairs):
            context = truth - {pair}
            if matcher.score_delta(store, context, {pair}) >= -SCORE_TOLERANCE:
                accepted.add(pair)

        elapsed = time.perf_counter() - started
        return SchemeResult(
            scheme=self.scheme_name,
            matcher=matcher.name,
            matches=frozenset(accepted),
            neighborhood_runs=0,
            neighborhoods=0,
            rounds=1,
            messages_passed=0,
            elapsed_seconds=elapsed,
            matcher_seconds=elapsed,
            extra={"candidate_pairs": float(len(candidate_pairs))},
        )

    def run_type1(self, matcher: TypeIMatcher, store: EntityStore, cover: Cover,
                  ground_truth: Iterable[EntityPair]) -> SchemeResult:
        """Generic UB for Type-I matchers: per-pair matcher runs on neighborhoods.

        For each candidate pair, the matcher is run on (the smallest)
        neighborhood containing the pair with the ground truth about all
        *other* pairs as positive evidence; the pair is accepted when it
        appears in the output.  Slower than the Type-II path but works for any
        matcher.
        """
        started = time.perf_counter()
        truth = Evidence.of(ground_truth)
        # name -> (restricted store, ground truth inside it), built once.
        restricted: Dict[str, Tuple[EntityStore, FrozenSet[EntityPair]]] = {}
        calls = 0
        accepted: Set[EntityPair] = set()
        for pair in sorted(store.similar_pairs()):
            containing = cover.neighborhoods_of_pair(pair)
            if not containing:
                continue
            name = min(containing, key=lambda n: len(cover.neighborhood(n)))
            if name not in restricted:
                members = cover.neighborhood(name).entity_ids
                restricted[name] = (store.restrict(members),
                                    truth.pairs_inside(members)[0])
            neighborhood_store, truth_inside = restricted[name]
            calls += 1
            if pair in matcher.match(neighborhood_store,
                                     Evidence(truth_inside - {pair})):
                accepted.add(pair)
        elapsed = time.perf_counter() - started
        return SchemeResult(
            scheme=self.scheme_name,
            matcher=matcher.name,
            matches=frozenset(accepted),
            neighborhood_runs=calls,
            neighborhoods=len(cover),
            rounds=1,
            messages_passed=0,
            elapsed_seconds=elapsed,
            matcher_seconds=elapsed,
        )
