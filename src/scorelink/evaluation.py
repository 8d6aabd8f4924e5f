"""Classification error accounting, Type I / Type II rates, ROC curves.

Label 1 (creditworthy) is the positive class and a point is predicted
positive when its score is >= the cut-off threshold. The error rates
follow the credit-scoring convention:

* Type I error: a truly non-creditworthy applicant accepted, i.e.
  FP / (FP + TN), conditional on true label 0 (the costly mistake);
* Type II error: a truly creditworthy applicant rejected, i.e.
  FN / (FN + TP), conditional on true label 1.

ROC curves are produced in the axes (x = Type II rate, y = 1 - Type I
rate); the sweep runs from threshold 0 (accept everyone) to 1 (reject
everyone), so both coordinates increase monotonically from (0, 0) to
(1, 1) and an uninformative scorer follows the diagonal. The conventional
pair (false positive rate, true positive rate) is (1 - y, 1 - x) of the
same sweep; both parameterizations enclose the same area, so ``auc`` is
the familiar AUC.
"""

from __future__ import annotations

import csv
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .exceptions import DataError


@dataclass(frozen=True)
class ConfusionCounts:
    """Prediction tallies at one threshold (positive = creditworthy, label 1)."""

    true_positive: int
    false_positive: int
    true_negative: int
    false_negative: int

    def __post_init__(self):
        for name in ("true_positive", "false_positive", "true_negative", "false_negative"):
            value = getattr(self, name)
            if value < 0 or value != int(value):
                raise ValueError(f"{name} must be a non-negative integer")

    @property
    def total(self) -> int:
        return self.true_positive + self.false_positive + self.true_negative + self.false_negative


@dataclass(frozen=True)
class ErrorReport:
    """Test, Type I, and Type II error rates at a cut-off.

    A conditional rate whose conditioning class is empty is reported as 0
    and listed in ``undefined``.
    """

    test_error: float
    type_i: float
    type_ii: float
    threshold: float
    undefined: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        out = {
            "test_error": self.test_error,
            "type_i": self.type_i,
            "type_ii": self.type_ii,
            "threshold": self.threshold,
        }
        if self.undefined:
            out["undefined"] = list(self.undefined)
        return out


@dataclass(frozen=True)
class RocCurve:
    """Threshold sweep in the (Type II, 1 - Type I) axes.

    ``miss_rate`` is the x coordinate (Type II error), ``specificity`` the
    y coordinate (1 - Type I error).
    """

    thresholds: np.ndarray
    miss_rate: np.ndarray
    specificity: np.ndarray
    auc: float


def _tally(scores: np.ndarray, labels: np.ndarray, threshold: float) -> tuple[np.ndarray, ...]:
    """(TP, FP, TN, FN) along the last axis of a stack of score vectors.

    ``scores`` and ``labels`` broadcast to one stack of shape (..., n);
    each count comes back as an integer array of the stack's shape.
    """
    predicted = scores >= threshold
    actual = labels == 1
    true_positive = np.count_nonzero(predicted & actual, axis=-1)
    false_positive = np.count_nonzero(predicted, axis=-1) - true_positive
    false_negative = np.count_nonzero(actual, axis=-1) - true_positive
    true_negative = scores.shape[-1] - true_positive - false_positive - false_negative
    return true_positive, false_positive, true_negative, false_negative


def _rates(true_positive, false_positive, true_negative, false_negative):
    """Test error, Type I and Type II rates of integer count arrays.

    A conditional rate whose conditioning class is empty is NaN (0 / 0).
    Each rate is one correctly rounded division of two exact integers.
    """
    with np.errstate(invalid="ignore"):
        test_error = (false_positive + false_negative) / (
            true_positive + false_positive + true_negative + false_negative
        )
        type_i = false_positive / (false_positive + true_negative)
        type_ii = false_negative / (false_negative + true_positive)
    return test_error, type_i, type_ii


def _validate_scores_labels(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.ndim != 1 or labels.ndim != 1:
        raise DataError("scores and labels must be 1-d")
    if scores.shape[0] != labels.shape[0]:
        raise DataError(
            f"length mismatch: {scores.shape[0]} scores vs {labels.shape[0]} labels"
        )
    if scores.shape[0] == 0:
        raise DataError("empty input")
    if not np.isfinite(scores).all():
        raise DataError("scores must be finite")
    if labels.dtype.kind not in "biuf" or not np.all((labels == 0) | (labels == 1)):
        raise DataError("labels must be 0 or 1")
    return scores, labels.astype(int)


def confusion(scores, labels, threshold: float = 0.5) -> ConfusionCounts:
    """Tally predictions (score >= threshold means predicted creditworthy).

    The block of one of the tally the experiment runs over every fit of a
    block of repetitions at once.
    """
    scores, labels = _validate_scores_labels(scores, labels)
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie strictly in (0, 1), got {threshold}")
    return ConfusionCounts(*(int(count) for count in _tally(scores, labels, threshold)))


def error_report(counts: ConfusionCounts, threshold: float = 0.5) -> ErrorReport:
    """Turn counts into the three error rates."""
    if counts.total == 0:
        raise ValueError("counts sum to zero")
    test_error, type_i, type_ii = (float(rate) for rate in _rates(*np.array(astuple(counts))))
    undefined = tuple(
        name for name, rate in (("type_i", type_i), ("type_ii", type_ii)) if np.isnan(rate)
    )
    return ErrorReport(
        test_error=test_error,
        type_i=0.0 if "type_i" in undefined else type_i,
        type_ii=0.0 if "type_ii" in undefined else type_ii,
        threshold=threshold,
        undefined=undefined,
    )


def roc(scores, labels) -> RocCurve:
    """Sweep all distinct score values (plus thresholds 0 and 1).

    Requires both classes present and every score in [0, 1]: the sweep
    starts at threshold 0 with every row accepted and ends at threshold 1
    with every row rejected, a score of 1 included. The AUC is the
    trapezoidal area under the sweep and is invariant under strictly
    monotone maps of the scores into [0, 1], since thresholds are taken
    from the scores themselves.
    """
    scores, labels = _validate_scores_labels(scores, labels)
    if not np.all((scores >= 0.0) & (scores <= 1.0)):
        raise DataError("ROC scores must lie in [0, 1]")
    positives = int(np.sum(labels == 1))
    negatives = labels.shape[0] - positives
    if positives == 0 or negatives == 0:
        raise DataError("ROC requires both classes present")

    thresholds = np.concatenate(([0.0], np.unique(scores), [1.0]))
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    pos_below = np.concatenate(([0], np.cumsum(labels[order] == 1)))
    # rows with score >= t are predicted positive, and none at the last t
    first_ge = np.searchsorted(sorted_scores, thresholds, side="left")
    first_ge[-1] = labels.shape[0]
    fn = pos_below[first_ge]
    tp = positives - fn
    fp = (labels.shape[0] - first_ge) - tp

    # computed with the exact expressions of error_report so that sweep
    # points and per-threshold reports agree bitwise
    x = fn / positives  # Type II error
    y = 1.0 - fp / negatives  # 1 - Type I error
    auc = float(np.sum(0.5 * np.diff(x) * (y[1:] + y[:-1])))
    return RocCurve(thresholds=thresholds, miss_rate=x, specificity=y, auc=auc)


def write_roc_csv(curve: RocCurve, path: str | Path) -> None:
    """Write the sweep as (threshold, x, y) rows, full precision."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["threshold", "x", "y"])
        for t, x, y in zip(curve.thresholds, curve.miss_rate, curve.specificity):
            writer.writerow([repr(float(t)), repr(float(x)), repr(float(y))])


_SVG_COLORS = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
    "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
)


def write_roc_svg(curves: dict[str, RocCurve], path: str | Path) -> None:
    """Minimal standalone SVG chart: 600x600 viewport, diagonal reference."""
    margin, span = 60.0, 480.0

    def px(x):
        return margin + x * span

    def py(y):
        return margin + span - y * span

    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="600" height="600" viewBox="0 0 600 600">',
        '<rect width="600" height="600" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{span}" height="{span}" '
        'fill="none" stroke="black"/>',
        f'<line x1="{px(0)}" y1="{py(0)}" x2="{px(1)}" y2="{py(1)}" '
        'stroke="gray" stroke-dasharray="6,4"/>',
        '<text x="300" y="585" text-anchor="middle" font-size="14">Type II error rate</text>',
        '<text x="18" y="300" text-anchor="middle" font-size="14" '
        'transform="rotate(-90 18 300)">1 - Type I error rate</text>',
    ]
    for k, (name, curve) in enumerate(sorted(curves.items())):
        color = _SVG_COLORS[k % len(_SVG_COLORS)]
        pts = " ".join(
            f"{px(x):.2f},{py(y):.2f}" for x, y in zip(curve.miss_rate, curve.specificity)
        )
        lines.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = margin + 18 + 16 * k
        lines.append(
            f'<line x1="{margin + 10}" y1="{ly - 4}" x2="{margin + 34}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        lines.append(
            f'<text x="{margin + 40}" y="{ly}" font-size="12">'
            f"{name} (AUC {curve.auc:.4f})</text>"
        )
    lines.append("</svg>")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
