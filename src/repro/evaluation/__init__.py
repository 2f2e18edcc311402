"""Evaluation: accuracy metrics, soundness/completeness, report tables."""

from .blocking_metrics import (
    BlockingReport,
    covered_pairs,
    evaluate_cover,
    pair_completeness,
    reduction_ratio,
)
from .metrics import PrecisionRecall, cluster_metrics, precision_recall_f1
from .report import format_key_values, format_table
from .soundness import SoundnessReport, soundness_completeness

__all__ = [
    "BlockingReport",
    "PrecisionRecall",
    "SoundnessReport",
    "cluster_metrics",
    "covered_pairs",
    "evaluate_cover",
    "format_key_values",
    "format_table",
    "pair_completeness",
    "precision_recall_f1",
    "reduction_ratio",
    "soundness_completeness",
]
