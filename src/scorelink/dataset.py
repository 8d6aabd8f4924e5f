"""German credit data ingestion and subpopulation splitting.

The reference input is the numeric German credit file: a comma-separated
UTF-8 table of 1000 rows and 21 columns, one header row, every cell a
number. The target column (``kredit``) is 1 for creditworthy borrowers and
0 otherwise; the account-status column (``laufkont``) separates bank
customers (value > 1) from non-customers (value = 1).

A CSV body is read by numpy's C parser; a body it rejects, or whose table
fails the label or finiteness check, is read again cell by cell with
``float()``, which words the error with its row and column and accepts
the few spellings ``loadtxt`` does not. Both give bitwise the same sample.

Learning/test partitions are drawn with numpy's Philox bit generator
(philox4x64), a published counter-based PRNG, keyed by
``(seed, learning_size, repetition)`` so that every partition is
reproducible across runs, platforms, and process counts.
"""

from __future__ import annotations

import csv
import hashlib
import math
import warnings
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .exceptions import DataError

DEFAULT_TARGET_COLUMN = "kredit"
DEFAULT_SPLIT_COLUMN = "laufkont"


@dataclass(frozen=True)
class LabeledSample:
    """A feature matrix plus binary labels for one subpopulation.

    ``features`` has shape (n, d), ``labels`` shape (n,) with values in
    {0, 1}.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        feats = np.ascontiguousarray(self.features, dtype=float)
        labels = np.asarray(self.labels)
        if feats.ndim != 2:
            raise DataError("features must be a 2-d matrix")
        if labels.shape != (feats.shape[0],):
            raise DataError("labels must be a vector matching the row count")
        if feats.shape[0] == 0:
            raise DataError("empty dataset")
        # checked before the cast to int, which would turn 0.6 into 0
        if labels.dtype.kind not in "biuf" or not np.all((labels == 0) | (labels == 1)):
            raise DataError("labels must be 0 or 1")
        labels = labels.astype(int, copy=False)
        if len(self.feature_names) != feats.shape[1]:
            raise DataError("feature_names length must equal the column count")
        # a second copy of the split column would survive the split as a predictor
        for k, name in enumerate(self.feature_names):
            if name in self.feature_names[:k]:
                raise DataError(f"feature name {name!r} appears more than once")
        feats.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))

    @property
    def n_records(self) -> int:
        return self.features.shape[0]

    @property
    def dimension(self) -> int:
        return self.features.shape[1]

    def class_counts(self) -> tuple[int, int]:
        """(count of label 0, count of label 1)."""
        ones = int(self.labels.sum())
        return self.n_records - ones, ones

    def subset(self, indices: np.ndarray) -> "LabeledSample":
        return LabeledSample(self.features[indices], self.labels[indices], self.feature_names)


@dataclass(frozen=True)
class SplitPlan:
    """Repeated learning/test subsampling plan for the target subpopulation."""

    learning_size: int
    repetitions: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.learning_size < 1:
            raise DataError("learning_size must be positive")
        if self.repetitions < 1:
            raise DataError("repetitions must be >= 1")


def load_csv(path: str | Path, target_column: str = DEFAULT_TARGET_COLUMN) -> LabeledSample:
    """Load a numeric CSV with a header row into a LabeledSample.

    The target column supplies the binary label and is removed from the
    feature set. numpy's C parser (``np.loadtxt``) reads the body; when it
    rejects the body, or its table fails a check, the file is read again
    row by row with ``float()``. That row loop accepts the cells
    ``loadtxt`` does not (``1_000``, full-width digits) and words every
    error. Raises DataError for a missing, unreadable or non-UTF-8 file, a
    header naming a column twice, a missing target column, an unparseable
    or non-finite cell (reported with row and column, blank lines
    counted), a label other than 0 or 1, or an empty table.
    """
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as f:
            return _parse_csv(f, target_column, str(path))
    except FileNotFoundError:
        raise DataError(f"no such file: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


def load_german_credit() -> LabeledSample:
    """Load the packaged numeric German credit file (1000 rows, 21 columns)."""
    data = resources.files("scorelink").joinpath("data/german.csv")
    with data.open("r", newline="", encoding="utf-8") as f:
        return _parse_csv(f, DEFAULT_TARGET_COLUMN, "packaged german.csv")


def _parse_csv(f, target_column: str, origin: str) -> LabeledSample:
    """Parse the open text stream ``f`` (opened with ``newline=""``)."""
    reader = csv.reader(f)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{origin}: empty file") from None
    header = [h.strip() for h in header]
    for k, name in enumerate(header):
        if name in header[:k]:
            raise DataError(f"{origin}: column {name!r} appears more than once in the header")
    if target_column not in header:
        raise DataError(f"{origin}: target column {target_column!r} not in header")
    target_idx = header.index(target_column)
    feature_names = tuple(h for k, h in enumerate(header) if k != target_idx)

    # the row loop rereads a body the C parser rejects, so a stream that
    # cannot be rewound (a pipe) is read by the row loop alone
    if f.seekable():
        with warnings.catch_warnings():  # a header-only file is reported below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            try:
                table = np.loadtxt(
                    f, delimiter=",", comments=None, quotechar='"', ndmin=2, dtype=float
                )
            except ValueError:
                table = None
        if table is not None and table.shape[0] > 0 and table.shape[1] == len(header):
            labels = table[:, target_idx]
            features = np.delete(table, target_idx, axis=1)
            if np.all((labels == 0) | (labels == 1)) and np.isfinite(features).all():
                return LabeledSample(features, labels.astype(int), feature_names)
        f.seek(0)
        next(reader)
    return _parse_rows(reader, header, target_idx, feature_names, origin)


def _parse_rows(reader, header, target_idx, feature_names, origin: str) -> LabeledSample:
    """The body after the header, one ``float()`` per cell, row by row."""
    rows = []
    labels = []
    blank = []  # reader indices of skipped empty lines
    for i, row in enumerate(reader):
        if not row:
            blank.append(i)
            continue
        if len(row) != len(header):
            raise DataError(f"{origin}: row {i + 2} has {len(row)} cells, expected {len(header)}")
        values = []
        for j, cell in enumerate(row):
            try:
                values.append(float(cell))
            except ValueError:
                raise DataError(
                    f"{origin}: cell at row {i + 2}, column {header[j]!r} is not numeric: {cell!r}"
                ) from None
        label = values.pop(target_idx)
        if label not in (0.0, 1.0):
            raise DataError(f"{origin}: row {i + 2}: label must be 0 or 1, got {label}")
        rows.append(values)
        labels.append(int(label))

    if not rows:
        raise DataError(f"{origin}: empty dataset (header only)")
    features = np.array(rows)
    del rows  # the parsed rows are the peak memory of loading; the mask comes after
    finite = np.isfinite(features)
    if not finite.all():
        k, j = np.argwhere(~finite)[0]
        value = features[k, j]
        for i in blank:  # k becomes the reader index of the k-th data row
            if i <= k:
                k += 1
        raise DataError(f"{origin}: cell at row {k + 2}, column "
                        f"{feature_names[j]!r} is not finite: {value}")
    return LabeledSample(features, np.array(labels), feature_names)


def write_csv(
    sample: LabeledSample, path: str | Path, target_column: str = DEFAULT_TARGET_COLUMN
) -> None:
    """Write a sample back to CSV with the label as the last column."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(list(sample.feature_names) + [target_column])
        for x, y in zip(sample.features, sample.labels):
            writer.writerow([_format_number(v) for v in x] + [int(y)])


def _format_number(v: float) -> str:
    """Text that reads back as bitwise ``v``.

    Integral values below 2**53 are written as integers, so that codes
    stay ``2``, not ``2.0``; -0.0 and larger values are written by
    ``repr``, which keeps the sign of zero and needs no 301-digit integer
    for 1e300.
    """
    v = float(v)
    negative_zero = v == 0.0 and math.copysign(1.0, v) < 0.0
    if v.is_integer() and abs(v) < 2**53 and not negative_zero:
        return str(int(v))
    return repr(v)


def file_sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def split_by_account_status(
    sample: LabeledSample, split_column: str = DEFAULT_SPLIT_COLUMN
) -> tuple[LabeledSample, LabeledSample]:
    """Separate customers (split column > 1) from non-customers (= 1).

    The split column is removed from the predictors of both outputs: it is
    constant on the non-customer side, so its coefficient could never be
    estimated from a target sample. Split codes must be integers >= 1.
    """
    if split_column not in sample.feature_names:
        raise DataError(f"split column {split_column!r} not among features")
    col = sample.feature_names.index(split_column)
    values = sample.features[:, col]
    if np.any(values < 1):
        bad = int(np.argmax(values < 1))
        raise DataError(f"split column {split_column!r} has value below 1 at record {bad}")
    fractional = values != np.floor(values)
    if np.any(fractional):
        bad = int(np.argmax(fractional))
        raise DataError(
            f"split column {split_column!r} has non-integer value {values[bad]} at record {bad}"
        )

    keep = [j for j in range(sample.dimension) if j != col]
    names = tuple(n for j, n in enumerate(sample.feature_names) if j != col)
    source_mask = values > 1
    for mask, side in ((source_mask, "source"), (~source_mask, "target")):
        if not mask.any():
            raise DataError(f"empty subpopulation: no {side} records")
    return tuple(
        LabeledSample(sample.features[np.ix_(mask, keep)], sample.labels[mask], names)
        for mask in (source_mask, ~source_mask)
    )


def _philox(seed: int, learning_size: int, repetition_index: int) -> np.random.Generator:
    # philox4x64 key = (seed, learning_size * 2^32 + repetition); both words mod 2^64
    sub = (int(learning_size) << 32) + int(repetition_index)
    key = np.array([int(seed) % 2**64, sub % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def split_rows(
    target: LabeledSample, plan: SplitPlan, repetition_index: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Row indices (ascending) of one learning/test partition of the target.

    The learning rows are exactly ``plan.learning_size`` rows drawn
    without replacement; the test rows are the complement. The partition
    is a pure function of (seed, learning_size, repetition_index).
    """
    if not 0 <= repetition_index < plan.repetitions:
        raise DataError(
            f"repetition_index {repetition_index} outside [0, {plan.repetitions})"
        )
    n = plan.learning_size
    total = target.n_records
    if n >= total:
        raise DataError(f"learning_size {n} must be smaller than the target size {total}")

    chosen = _philox(plan.seed, n, repetition_index).permutation(total)[:n]
    mask = np.zeros(total, dtype=bool)
    mask[chosen] = True
    return np.flatnonzero(mask), np.flatnonzero(~mask)


def draw_split(
    target: LabeledSample, plan: SplitPlan, repetition_index: int = 0
) -> tuple[LabeledSample, LabeledSample]:
    """Draw one learning/test partition of the target subpopulation.

    The samples hold the rows of :func:`split_rows`, in row order.
    """
    learning_rows, test_rows = split_rows(target, plan, repetition_index)
    return target.subset(learning_rows), target.subset(test_rows)

