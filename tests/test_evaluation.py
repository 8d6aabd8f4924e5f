from fractions import Fraction

import numpy as np
import pytest

from scorelink import (
    ConfusionCounts,
    DataError,
    confusion,
    error_report,
    roc,
)
from scorelink.evaluation import write_roc_csv, write_roc_svg


class TestConfusion:
    def test_perfect_ranking(self):
        counts = confusion([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0], 0.5)
        assert (counts.true_positive, counts.true_negative) == (2, 2)
        assert (counts.false_positive, counts.false_negative) == (0, 0)

    def test_fully_inverted(self):
        counts = confusion([0.4, 0.6], [1, 0], 0.5)
        assert counts.false_negative == 1
        assert counts.false_positive == 1

    def test_tie_at_threshold_predicts_one(self):
        counts = confusion([0.5], [1], 0.5)
        assert counts.true_positive == 1

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="length mismatch"):
            confusion([0.5, 0.6], [1], 0.5)

    def test_empty_input(self):
        with pytest.raises(DataError, match="empty"):
            confusion([], [], 0.5)

    def test_threshold_range(self):
        with pytest.raises(ValueError, match="threshold"):
            confusion([0.5], [1], 0.0)

    def test_nan_score_rejected(self):
        with pytest.raises(DataError, match="finite"):
            confusion([0.9, np.nan, 0.2, 0.7], [1, 1, 0, 0], 0.5)

    @pytest.mark.parametrize("label", [2, 0.6])
    def test_label_outside_zero_one_rejected(self, label):
        with pytest.raises(DataError, match="0 or 1"):
            confusion([0.9, 0.8, 0.2, 0.7], [1, label, 0, 0], 0.5)

    def test_counts_sum_to_total(self, rng):
        scores = rng.random(200)
        labels = rng.integers(0, 2, 200)
        counts = confusion(scores, labels, 0.5)
        assert counts.total == 200


class TestErrorReport:
    def test_perfect_counts(self):
        report = error_report(ConfusionCounts(2, 0, 2, 0), 0.5)
        assert report.test_error == 0.0
        assert report.type_i == 0.0
        assert report.type_ii == 0.0
        assert report.undefined == ()

    def test_arithmetic_from_definitions(self):
        """FP=1, TN=3, FN=1, TP=3: all three rates are 0.25."""
        report = error_report(ConfusionCounts(3, 1, 3, 1), 0.5)
        assert report.test_error == 0.25
        assert report.type_i == 0.25
        assert report.type_ii == 0.25

    def test_all_positive_labels_mark_type_i_undefined(self):
        report = error_report(ConfusionCounts(4, 0, 0, 1), 0.5)
        assert report.type_i == 0.0
        assert report.undefined == ("type_i",)

    def test_weighted_combination_identity(self, rng):
        """test_error is the label-frequency mix of type I and type II
        (checked in exact rational arithmetic on the counts)."""
        for _ in range(25):
            scores = rng.random(60)
            labels = rng.integers(0, 2, 60)
            if labels.min() == labels.max():
                continue
            counts = confusion(scores, labels, 0.5)
            report = error_report(counts, 0.5)
            n0 = counts.false_positive + counts.true_negative
            n1 = counts.false_negative + counts.true_positive
            lhs = Fraction(counts.false_positive + counts.false_negative, counts.total)
            rhs = Fraction(n0, counts.total) * Fraction(counts.false_positive, n0) + Fraction(
                n1, counts.total
            ) * Fraction(counts.false_negative, n1)
            assert lhs == rhs
            np.testing.assert_allclose(
                report.test_error,
                (n0 / counts.total) * report.type_i + (n1 / counts.total) * report.type_ii,
                rtol=0,
                atol=1e-15,
            )


class TestRoc:
    def test_perfect_separation(self):
        curve = roc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert curve.auc == pytest.approx(1.0)

    def test_anti_ranking(self):
        curve = roc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1])
        assert curve.auc == pytest.approx(0.0)

    def test_random_scores_give_half(self, rng):
        scores = rng.permutation(np.linspace(0.01, 0.99, 10_000))
        labels = np.tile([0, 1], 5_000)
        curve = roc(scores, labels)
        assert abs(curve.auc - 0.5) < 0.02

    def test_constant_scores_degenerate_curve(self):
        curve = roc([0.7, 0.7, 0.7, 0.7], [1, 0, 1, 0])
        assert curve.auc == pytest.approx(0.5)

    def test_endpoints_and_monotonicity(self, rng):
        scores = rng.random(300)
        labels = rng.integers(0, 2, 300)
        curve = roc(scores, labels)
        assert curve.thresholds[0] == 0.0
        assert curve.thresholds[-1] == 1.0
        assert (curve.miss_rate[0], curve.specificity[0]) == (0.0, 0.0)
        assert (curve.miss_rate[-1], curve.specificity[-1]) == (1.0, 1.0)
        assert np.all(np.diff(curve.miss_rate) >= 0)
        assert np.all(np.diff(curve.specificity) >= 0)

    def test_nan_score_rejected(self):
        with pytest.raises(DataError, match="finite"):
            roc([0.9, np.nan, 0.2, 0.7], [1, 1, 0, 0])

    @pytest.mark.parametrize("bad", [1.5, -0.1])
    def test_score_outside_unit_interval_rejected(self, bad):
        """A score beyond a threshold end would never cross it, and the
        sweep would not span (0, 0) to (1, 1)."""
        with pytest.raises(DataError, match=r"\[0, 1\]"):
            roc([0.2, 0.4, bad, 0.9], [0, 1, 1, 0])

    @pytest.mark.parametrize(
        "scores, labels, auc",
        [([1.0, 0.5], [1, 0], 1.0), ([1.0, 0.5, 1.0], [1, 0, 0], 0.75),
         ([0.0, 0.0, 0.5], [0, 1, 1], 0.75)],
    )
    def test_auc_counts_pairs_at_the_ends(self, scores, labels, auc):
        """At scores of exactly 0 or 1 the AUC is still the share of
        positive-negative pairs ranked correctly, ties counting half."""
        curve = roc(scores, labels)
        assert curve.auc == auc
        assert (curve.miss_rate[-1], curve.specificity[-1]) == (1.0, 1.0)

    def test_single_class_rejected(self):
        with pytest.raises(DataError, match="both classes"):
            roc([0.2, 0.8], [1, 1])

    def test_sweep_matches_error_report(self, rng):
        """Each interior ROC point equals the error report at its threshold."""
        scores = rng.random(120)
        labels = rng.integers(0, 2, 120)
        curve = roc(scores, labels)
        for k, t in enumerate(curve.thresholds):
            if not 0.0 < t < 1.0:
                continue
            report = error_report(confusion(scores, labels, t), t)
            assert curve.miss_rate[k] == report.type_ii
            assert curve.specificity[k] == 1.0 - report.type_i

    def test_auc_invariant_under_monotone_transform(self, rng):
        scores = rng.random(500)
        labels = rng.integers(0, 2, 500)
        base = roc(scores, labels).auc
        squeezed = roc(scores**3, labels).auc
        shifted = roc(1 / (1 + np.exp(-(5 * scores - 2))), labels).auc
        assert abs(base - squeezed) <= 1e-12
        assert abs(base - shifted) <= 1e-12


class TestEmitters:
    def test_csv_columns_and_fidelity(self, tmp_path, rng):
        scores = rng.random(50)
        labels = rng.integers(0, 2, 50)
        curve = roc(scores, labels)
        path = tmp_path / "roc.csv"
        write_roc_csv(curve, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "threshold,x,y"
        assert len(lines) == curve.thresholds.size + 1
        t, x, y = (float(v) for v in lines[5].split(","))
        assert t == curve.thresholds[4]
        assert x == curve.miss_rate[4]
        assert y == curve.specificity[4]

    def test_svg_structure(self, tmp_path, rng):
        scores = rng.random(50)
        labels = rng.integers(0, 2, 50)
        curves = {"M1": roc(scores, labels), "M2": roc(1 - scores, 1 - labels)}
        path = tmp_path / "roc.svg"
        write_roc_svg(curves, path)
        text = path.read_text()
        assert text.startswith("<svg")
        assert 'width="600" height="600"' in text
        assert "stroke-dasharray" in text  # diagonal reference line
        assert text.count("<polyline") == 2
        assert "M1" in text and "M2" in text
