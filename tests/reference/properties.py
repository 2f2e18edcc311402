"""Reference property check: supermodularity of a Type-II matcher's score.

Definition 6 is a property of the probabilistic matcher's score, which only
the MLN network has; no entry point checks it, so the sampler lives here,
out of ``src/``, beside the idempotence and monotonicity checks of
:mod:`repro.matchers.properties` it reports like.  :func:`check_well_behaved`
is the library's check with this leg added for Type-II matchers.
"""

from __future__ import annotations

import random

from repro.datamodel import EntityStore
from repro.matchers import PropertyReport, PropertyViolation, TypeIIMatcher, TypeIMatcher
from repro.matchers import check_well_behaved as check_idempotent_and_monotone


def check_supermodularity(matcher: TypeIIMatcher, store: EntityStore,
                          trials: int = 20, seed: int = 0) -> PropertyReport:
    """Definition 6: the score gain of one extra pair never shrinks as the set grows."""
    rng = random.Random(seed)
    report = PropertyReport()
    candidates = sorted(store.similar_pairs())
    if len(candidates) < 2:
        return report
    for _ in range(trials):
        pair = rng.choice(candidates)
        others = [p for p in candidates if p != pair]
        small_size = rng.randint(0, len(others))
        small = set(rng.sample(others, small_size))
        growth = [p for p in others if p not in small]
        extra_size = rng.randint(0, len(growth)) if growth else 0
        large = small | set(rng.sample(growth, extra_size))

        gain_small = matcher.score_delta(store, small, {pair})
        gain_large = matcher.score_delta(store, large, {pair})
        report.checks += 1
        if gain_large < gain_small - 1e-9:
            report.violations.append(PropertyViolation(
                "supermodularity",
                f"gain of {pair} dropped from {gain_small:.4f} (|S|={len(small)}) "
                f"to {gain_large:.4f} (|T|={len(large)})",
            ))
    return report


def check_well_behaved(matcher: TypeIMatcher, store: EntityStore,
                       trials: int = 5, seed: int = 0) -> PropertyReport:
    """Idempotence + monotonicity (+ supermodularity for Type-II matchers)."""
    report = check_idempotent_and_monotone(matcher, store, trials=trials, seed=seed)
    if isinstance(matcher, TypeIIMatcher):
        report = report.merge(check_supermodularity(matcher, store,
                                                    trials=trials * 4, seed=seed))
    return report
