"""Black-box matcher layer: protocols, concrete matchers, property checkers."""

from .base import TypeIIMatcher, TypeIMatcher, WarmStartCache
from .iterative import IterativeMatcher, IterativeMatcherConfig
from .mln_matcher import MLNMatcher
from .pairwise import AttributeComparison, PairwiseMatcher, default_author_comparisons
from .properties import (
    PropertyReport,
    PropertyViolation,
    check_idempotence,
    check_monotonicity,
    check_well_behaved,
)
from .rules_matcher import RulesMatcher

__all__ = [
    "AttributeComparison",
    "IterativeMatcher",
    "IterativeMatcherConfig",
    "MLNMatcher",
    "PairwiseMatcher",
    "PropertyReport",
    "PropertyViolation",
    "RulesMatcher",
    "TypeIIMatcher",
    "TypeIMatcher",
    "WarmStartCache",
    "check_idempotence",
    "check_monotonicity",
    "check_well_behaved",
    "default_author_comparisons",
]
