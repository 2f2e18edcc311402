"""Tests for metrics, soundness/completeness and report tables."""

import pytest

from repro.datamodel import EntityPair
from repro.evaluation import (
    PrecisionRecall,
    cluster_metrics,
    format_key_values,
    format_table,
    precision_recall_f1,
    soundness_completeness,
)
from tests.util import pair


class TestPrecisionRecall:
    def test_perfect_prediction(self):
        truth = {pair("a", "b"), pair("c", "d")}
        metrics = precision_recall_f1(truth, truth)
        assert metrics.precision == 1.0
        assert metrics.recall == 1.0
        assert metrics.f1 == 1.0

    def test_counts(self):
        predicted = {pair("a", "b"), pair("x", "y")}
        truth = {pair("a", "b"), pair("c", "d")}
        metrics = precision_recall_f1(predicted, truth)
        assert metrics.true_positives == 1
        assert metrics.false_positives == 1
        assert metrics.false_negatives == 1
        assert metrics.precision == pytest.approx(0.5)
        assert metrics.recall == pytest.approx(0.5)
        assert metrics.f1 == pytest.approx(0.5)

    def test_empty_prediction(self):
        metrics = precision_recall_f1([], {pair("a", "b")})
        assert metrics.precision == 0.0
        assert metrics.recall == 0.0
        assert metrics.f1 == 0.0

    def test_empty_truth(self):
        metrics = precision_recall_f1({pair("a", "b")}, [])
        assert metrics.recall == 1.0
        assert metrics.precision == 0.0

    def test_both_empty(self):
        metrics = precision_recall_f1([], [])
        assert metrics.precision == 1.0 and metrics.recall == 1.0

    def test_restrict_to(self):
        predicted = {pair("a", "b"), pair("x", "y")}
        truth = {pair("a", "b"), pair("c", "d")}
        metrics = precision_recall_f1(predicted, truth, restrict_to={pair("a", "b")})
        assert metrics.precision == 1.0 and metrics.recall == 1.0

    def test_as_dict(self):
        metrics = precision_recall_f1({pair("a", "b")}, {pair("a", "b")})
        assert metrics.as_dict()["f1"] == 1.0

    def test_cluster_metrics(self):
        result = cluster_metrics([["a", "b"], ["x", "y", "z"]], [["a", "b"], ["x", "y"]])
        assert result["cluster_precision"] == pytest.approx(0.5)
        assert result["cluster_recall"] == pytest.approx(0.5)
        assert cluster_metrics([], [])["cluster_precision"] == 1.0


class TestSoundnessCompleteness:
    def test_sound_and_incomplete(self):
        scheme = {pair("a", "b")}
        reference = {pair("a", "b"), pair("c", "d")}
        report = soundness_completeness(scheme, reference)
        assert report.is_sound
        assert not report.is_complete
        assert report.completeness == pytest.approx(0.5)

    def test_unsound(self):
        report = soundness_completeness({pair("x", "y")}, {pair("a", "b")})
        assert report.soundness == 0.0

    def test_empty_scheme_is_vacuously_sound(self):
        report = soundness_completeness([], {pair("a", "b")})
        assert report.soundness == 1.0
        assert report.completeness == 0.0

    def test_as_dict(self):
        report = soundness_completeness({pair("a", "b")}, {pair("a", "b")})
        assert report.as_dict()["soundness"] == 1.0


class TestReport:
    def test_format_table(self):
        rows = [{"scheme": "smp", "f1": 0.91}, {"scheme": "mmp", "f1": 0.92}]
        text = format_table(rows, title="Accuracy")
        assert "Accuracy" in text
        assert "smp" in text and "0.920" in text

    def test_format_table_empty(self):
        assert "(empty)" in format_table([], title="Nothing")

    def test_format_key_values(self):
        text = format_key_values({"neighborhoods": 12, "pairs": 34.5}, title="Cover")
        assert "neighborhoods: 12" in text
        assert "34.500" in text
