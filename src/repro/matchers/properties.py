"""Empirical property checkers for black-box matchers.

The framework's guarantees (Theorems 1, 2, 4) hold for *well-behaved*
matchers: idempotent + monotone, and supermodular in the probabilistic case
(a score-level property of the MLN network, checked against the exact
oracle in ``tests/reference/properties.py``).  These checkers probe a matcher on a given instance and report violations,
which serves three purposes:

* validating that the built-in matchers honour their contracts (unit tests),
* letting users check whether *their* custom matcher can expect the soundness
  guarantee before plugging it into the framework,
* documenting precisely what each property means operationally.

All checks are necessarily empirical — they sample sub-instances and evidence
sets rather than proving the property — so a clean report is evidence, not
proof.  A non-empty violation list, however, is a definite counterexample.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..datamodel import EntityPair, EntityStore, Evidence
from .base import TypeIMatcher


@dataclass
class PropertyViolation:
    """A single observed violation of a matcher property."""

    property_name: str
    description: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.property_name}] {self.description}"


@dataclass
class PropertyReport:
    """Aggregated result of a property check run."""

    checks: int = 0
    violations: List[PropertyViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def merge(self, other: "PropertyReport") -> "PropertyReport":
        return PropertyReport(self.checks + other.checks,
                              self.violations + other.violations)


def _sample_evidence(pairs: Sequence[EntityPair], rng: random.Random,
                     max_size: int) -> FrozenSet[EntityPair]:
    if not pairs or max_size == 0:
        return frozenset()
    size = rng.randint(0, min(max_size, len(pairs)))
    return frozenset(rng.sample(list(pairs), size))


def check_idempotence(matcher: TypeIMatcher, store: EntityStore,
                      trials: int = 5, seed: int = 0) -> PropertyReport:
    """Definition 2: feeding the output back as positive evidence changes nothing."""
    rng = random.Random(seed)
    report = PropertyReport()
    candidate_pairs = sorted(store.similar_pairs())
    for _ in range(trials):
        negative = _sample_evidence(candidate_pairs, rng, max_size=2)
        output = matcher.match(store, Evidence.of(negative=negative))
        replayed = matcher.match(store, Evidence.of(positive=output, negative=negative))
        report.checks += 1
        if replayed != output:
            report.violations.append(PropertyViolation(
                "idempotence",
                f"output changed when re-fed as evidence: {sorted(output)} -> {sorted(replayed)}",
            ))
    return report


def check_monotonicity(matcher: TypeIMatcher, store: EntityStore,
                       trials: int = 5, seed: int = 0) -> PropertyReport:
    """Definition 3: more entities / more V+ gives ⊇ output; more V− gives ⊆ output."""
    rng = random.Random(seed)
    report = PropertyReport()
    all_ids = sorted(store.entity_ids())
    candidate_pairs = sorted(store.similar_pairs())
    baseline = matcher.match(store)

    for _ in range(trials):
        # (i) Entity monotonicity: the output on a random sub-instance is a subset.
        if len(all_ids) > 1:
            subset_size = rng.randint(1, len(all_ids))
            sub_ids = set(rng.sample(all_ids, subset_size))
            sub_store = store.restrict(sub_ids)
            sub_output = matcher.match(sub_store)
            report.checks += 1
            if not sub_output <= baseline:
                extra = sorted(sub_output - baseline)
                report.violations.append(PropertyViolation(
                    "monotonicity/entities",
                    f"sub-instance produced matches absent from the full run: {extra}",
                ))

        # (ii) Positive-evidence monotonicity.
        positive = _sample_evidence(candidate_pairs, rng, max_size=3)
        with_positive = matcher.match(store, Evidence.of(positive=positive))
        report.checks += 1
        if not with_positive >= baseline:
            missing = sorted(baseline - with_positive)
            report.violations.append(PropertyViolation(
                "monotonicity/positive-evidence",
                f"adding positive evidence lost matches: {missing}",
            ))

        # (iii) Negative-evidence anti-monotonicity.
        negative = _sample_evidence(candidate_pairs, rng, max_size=3)
        with_negative = matcher.match(store, Evidence.of(negative=negative))
        report.checks += 1
        if not with_negative <= baseline:
            extra = sorted(with_negative - baseline)
            report.violations.append(PropertyViolation(
                "monotonicity/negative-evidence",
                f"adding negative evidence produced new matches: {extra}",
            ))
    return report


def check_well_behaved(matcher: TypeIMatcher, store: EntityStore,
                       trials: int = 5, seed: int = 0) -> PropertyReport:
    """Idempotence + monotonicity (Definition 4)."""
    report = check_idempotence(matcher, store, trials=trials, seed=seed)
    return report.merge(check_monotonicity(matcher, store, trials=trials, seed=seed))
