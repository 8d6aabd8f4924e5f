"""Repeated random-subsampling evaluation of the seven transfer models.

Protocol: fit the source score function once on all customer rows; then
for every learning size n and repetition r, draw a learning/test partition
of the non-customer subpopulation, estimate each model on the identical
learning sample, classify the test sample at the cut-off, and aggregate
the three error rates over repetitions.

A work unit is one learning size with a block of its repetitions: M2-M6
are fitted for the whole block by one batched Newton call per model, and
M7 by a few calls over chunks of it, each fit bitwise the one its
repetition alone would get. Every M7 refit starts one Newton step from
the source fit, a step built from the source rows' gradient and
information there, which the run computes once. After the fits, the
block is evaluated in array passes: every fit's scores on its test
split, the four confusion
counts and the three rates of all (repetition, model) pairs at once, each
bitwise what ``confusion`` and ``error_report`` give that pair alone.
An error rate whose conditioning class is empty in a test split is
recorded as NaN and left out of that metric's mean, standard deviation
and ``repetitions_used``. Units may run in a process pool; raw records
are sorted by (learning size, repetition, model) before any reduction, so
serial and parallel runs emit byte-identical outputs.
Partitions are drawn per (seed, n, repetition) -- independent across
learning sizes, shared across models within a repetition.

The sweep is the only place that fits a model: each record carries its
fit, and the ROC suite scores the fits of repetition 0 at one learning
size on that split's test rows.
"""

from __future__ import annotations

import csv
import json
import multiprocessing
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import LabeledSample, SplitPlan, split_rows
from .evaluation import RocCurve, _rates, _tally, roc, write_roc_csv, write_roc_svg
from .exceptions import DataError, NumericalError
from .links import (
    LinkModelKind,
    _chunks,
    _m7_block,
    _source_terms,
    _SourceTerms,
    _transition_block,
)
from .logistic import (
    FitConfig, FitReport, LogisticParams, _integer, _matvec, fit_mle, score, sigmoid,
)

ALL_MODELS = tuple(LinkModelKind)
_METRICS = ("test_error", "type_i", "type_ii")

TABLE_FILES = {metric: f"tables_{metric}.csv" for metric in _METRICS}
RAW_FILE = "raw_records.csv"
METADATA_FILE = "metadata.json"
SVG_FILE = "roc_all.svg"


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep settings; the defaults reproduce the published protocol."""

    learning_sizes: tuple[int, ...] = (50, 100, 150, 200)
    repetitions: int = 50
    seed: int = 0
    models: tuple[LinkModelKind, ...] = ALL_MODELS
    threshold: float = 0.5
    fit: FitConfig = field(default_factory=FitConfig)

    def __post_init__(self):
        if not self.learning_sizes:
            raise ValueError("learning_sizes must be non-empty")
        if _integer("repetitions", self.repetitions) < 1:
            raise ValueError("repetitions must be >= 1")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie strictly in (0, 1)")
        if not self.models:
            raise ValueError("models must be non-empty")
        sizes = tuple(_integer("learning size", n) for n in self.learning_sizes)
        object.__setattr__(self, "learning_sizes", sizes)
        object.__setattr__(self, "repetitions", int(self.repetitions))
        object.__setattr__(self, "models", tuple(self.models))
        for model in self.models:
            if not isinstance(model, LinkModelKind):
                raise ValueError(f"model must be a LinkModelKind, got {model!r}")
        for name, values in (("learning size", self.learning_sizes), ("model", self.models)):
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ValueError(f"duplicate {name} {getattr(repeated[0], 'value', repeated[0])}")

    @property
    def roc_learning_size(self) -> int:
        """Size used for the ROC suite: 200 when swept, else the largest."""
        return 200 if 200 in self.learning_sizes else max(self.learning_sizes)


@dataclass(frozen=True)
class RepetitionRecord:
    """One model evaluated on one learning/test partition."""

    learning_size: int
    repetition: int
    model: str
    converged: bool
    log_likelihood: float
    true_positive: int
    false_positive: int
    true_negative: int
    false_negative: int
    test_error: float
    type_i: float
    type_ii: float
    failed: bool = False
    # the fit as (intercept, *coefficients), None if it failed; not a CSV column
    target_params: tuple[float, ...] | None = None

    _FIELDS = (
        "learning_size", "repetition", "model", "converged", "log_likelihood",
        "true_positive", "false_positive", "true_negative", "false_negative",
        "test_error", "type_i", "type_ii", "failed",
    )


@dataclass(frozen=True)
class ResultTable:
    """Mean and standard deviation of one metric per (model, learning size)."""

    metric: str
    models: tuple[str, ...]
    learning_sizes: tuple[int, ...]
    means: np.ndarray  # shape (len(models), len(learning_sizes))
    stds: np.ndarray
    repetitions_used: np.ndarray

    def mean(self, model: LinkModelKind | str, learning_size: int) -> float:
        name = model.value if isinstance(model, LinkModelKind) else model
        return float(
            self.means[self.models.index(name), self.learning_sizes.index(learning_size)]
        )

    def std(self, model: LinkModelKind | str, learning_size: int) -> float:
        name = model.value if isinstance(model, LinkModelKind) else model
        return float(
            self.stds[self.models.index(name), self.learning_sizes.index(learning_size)]
        )


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    source_fit: FitReport
    records: tuple[RepetitionRecord, ...]
    tables: dict[str, ResultTable]

    @property
    def failures(self) -> int:
        return sum(1 for r in self.records if r.failed)


def _blocks(config: ExperimentConfig, dimension: int) -> list[tuple[int, range]]:
    """The work units: each learning size with its repetitions split into
    blocks of about equal size, each within ``_BLOCK_CELLS`` cells of its
    stacked M6 design (block size x n x (d + 1))."""
    return [
        (n, block)
        for n in config.learning_sizes
        for block in _chunks(config.repetitions, n * (dimension + 1))
    ]


def _run_unit(
    source: _SourceTerms,
    target: LabeledSample,
    config: ExperimentConfig,
    learning_size: int,
    repetitions: range,
) -> list[RepetitionRecord]:
    """Records of one block of repetitions at one learning size.

    M1-M6 transfer ``source.params``, the source fit, and M2-M6 are fitted
    for the whole block by one batched Newton call per model; M7, a refit
    on the pooled source rows started from the source fit with the source
    rows' gradient and information there, by one call per chunk of the
    block within the cell budget. The fits come back as arrays, and all of
    them are scored, tallied and turned into rates in array passes
    (:func:`_block_counts`, :func:`scorelink.evaluation._rates`).
    """
    plan = SplitPlan(learning_size, config.repetitions, config.seed)
    rows = [split_rows(target, plan, r) for r in repetitions]
    learning_rows = np.array([learning for learning, _ in rows])
    test_rows = np.array([test for _, test in rows])
    features = np.take(target.features, learning_rows, axis=0)
    labels = np.take(target.labels, learning_rows, axis=0)
    blocks = [
        _m7_block(source, features, labels, config.fit)
        if kind is LinkModelKind.M7
        else _transition_block(kind, source.params, features, labels, config.fit)
        for kind in config.models
    ]

    # (model, repetition) tables; a failed fit has zero parameters, and its
    # record keeps no counts, so that its rates are NaN
    failed = np.array([[error is not None for error in block.errors] for block in blocks])
    counts = _block_counts(
        target,
        test_rows,
        np.stack([block.intercepts for block in blocks]),
        np.stack([block.coefficients for block in blocks]),
        config.threshold,
    )
    counts[:, failed] = 0
    columns = [
        [block.converged for block in blocks],
        [block.log_likelihoods for block in blocks],
        *counts.tolist(),
        *(rate.tolist() for rate in _rates(*counts)),
        failed.tolist(),
        [
            [(b0, *b) if error is None else None for error, b0, b in
             zip(block.errors, block.intercepts.tolist(), block.coefficients.tolist())]
            for block in blocks
        ],
    ]
    per_model = [list(zip(*(column[k] for column in columns))) for k in range(len(blocks))]
    return [
        RepetitionRecord(learning_size, repetition, kind.value, *per_model[k][i])
        for i, repetition in enumerate(repetitions)
        for k, kind in enumerate(config.models)
    ]


def _block_counts(target, test_rows, intercepts, coefficients, threshold) -> np.ndarray:
    """(TP, FP, TN, FN) of each (model, repetition) fit on its test rows.

    ``test_rows`` (R, t) holds each repetition's test rows, ``intercepts``
    (K, R) and ``coefficients`` (K, R, d) the target parameters of the K
    models' fits; the result has shape (4, K, R). The test features of a
    chunk of repetitions are gathered into one (chunk, t, d) stack, so
    every fit's linear predictor is one BLAS product over the rows of its
    test split alone, as in :func:`scorelink.logistic.score`: every score,
    and so every count, is bitwise that of ``confusion(score(params,
    test.features), test.labels, threshold)``. Chunks keep the stack and
    the scores within ``_BLOCK_CELLS`` cells each.
    """
    models, repetitions = intercepts.shape
    counts = np.empty((4, models, repetitions), dtype=int)
    per_repetition = test_rows.shape[1] * max(target.dimension, models)
    for chunk in _chunks(repetitions, per_repetition):
        chunk = slice(chunk.start, chunk.stop)
        x = np.take(target.features, test_rows[chunk], axis=0)
        eta = intercepts[:, chunk, None] + _matvec(x, coefficients[:, chunk])
        labels = np.take(target.labels, test_rows[chunk], axis=0)
        counts[:, :, chunk] = _tally(sigmoid(eta), labels, threshold)
    return counts


_WORKER_STATE: dict = {}


def _worker_init(source, target, config) -> None:
    _WORKER_STATE.update(source=source, target=target, config=config)


def _worker_run(unit: tuple[int, range]) -> list[RepetitionRecord]:
    """The records of one (learning size, repetitions) unit."""
    state = _WORKER_STATE
    return _run_unit(state["source"], state["target"], state["config"], *unit)


def run_experiment(
    source: LabeledSample,
    target: LabeledSample,
    config: ExperimentConfig = ExperimentConfig(),
    jobs: int = 1,
) -> ExperimentResult:
    """Run the full sweep; deterministic for a given seed, whatever ``jobs`` is.

    The units run in a pool of ``min(jobs, units)`` worker processes, or
    in this process when that is 1.
    """
    _check_learning_sizes(config.learning_sizes, target)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    source_fit = fit_mle(source, config.fit)
    if not source_fit.converged:
        raise NumericalError("source fit did not converge")
    terms = _source_terms(source, source_fit.params)

    units = _blocks(config, target.dimension)
    workers = min(jobs, len(units))
    if workers > 1:
        with multiprocessing.Pool(
            workers,
            initializer=_worker_init,
            initargs=(terms, target, config),
        ) as pool:
            batches = pool.map(_worker_run, units)
    else:
        batches = [_run_unit(terms, target, config, n, block) for n, block in units]

    model_order = {kind.value: i for i, kind in enumerate(config.models)}
    records = sorted(
        (rec for batch in batches for rec in batch),
        key=lambda r: (r.learning_size, r.repetition, model_order[r.model]),
    )
    tables = _aggregate(records, config)
    return ExperimentResult(config, source_fit, tuple(records), tables)


def _check_learning_sizes(sizes, target: LabeledSample) -> None:
    for n in sizes:  # each must leave a non-empty test split
        if not 1 <= n < target.n_records:
            raise ValueError(
                f"learning size {n} must be at least 1 and below the target size "
                f"{target.n_records}"
            )


def roc_test_split(
    target: LabeledSample, config: ExperimentConfig, learning_size: int | None = None
) -> LabeledSample:
    """The test rows that the ROC suite scores: the repetition-0 split's at
    ``learning_size`` (by default ``config.roc_learning_size``).

    It needs no fit, so a run checks it first: a learning size outside
    the target raises ValueError as :func:`run_experiment` does, and rows
    of a single class, on which no ROC curve exists, raise DataError.
    """
    n = config.roc_learning_size if learning_size is None else learning_size
    _check_learning_sizes((n,), target)
    test = target.subset(split_rows(target, SplitPlan(n, config.repetitions, config.seed), 0)[1])
    if test.labels.min() == test.labels.max():
        raise DataError(
            f"ROC requires both classes present: the test rows of repetition 0 at "
            f"learning size {n} hold one class"
        )
    return test


def _aggregate(records, config: ExperimentConfig) -> dict[str, ResultTable]:
    models = tuple(kind.value for kind in config.models)
    sizes = config.learning_sizes
    # one pass groups the records; each cell keeps them in repetition order
    cells = {}
    for r in records:
        cells.setdefault((r.model, r.learning_size), []).append(r)
    tables = {}
    for metric in _METRICS:
        means = np.full((len(models), len(sizes)), np.nan)
        stds = np.full((len(models), len(sizes)), np.nan)
        used = np.zeros((len(models), len(sizes)), dtype=int)
        for i, model in enumerate(models):
            for j, n in enumerate(sizes):
                # failed records and undefined rates hold NaN
                values = np.array([getattr(r, metric) for r in cells.get((model, n), ())])
                values = values[~np.isnan(values)]
                used[i, j] = values.shape[0]
                if values.shape[0]:
                    means[i, j] = values.mean()
                    stds[i, j] = values.std(ddof=0)
        tables[metric] = ResultTable(metric, models, sizes, means, stds, used)
    return tables


def emit_roc_suite(
    source: LabeledSample,
    target: LabeledSample,
    config: ExperimentConfig = ExperimentConfig(),
    learning_size: int | None = None,
    out_dir: str | Path | None = None,
    result: ExperimentResult | None = None,
) -> dict[str, RocCurve]:
    """One ROC curve per model on the repetition-0 split at ``learning_size``,
    from the fits the sweep ``result`` made there (by default the sweep of
    ``config`` at that one size and one repetition: the same split). A
    split of a single class raises DataError before any fit (see
    :func:`roc_test_split`), a failed fit NumericalError. When ``out_dir``
    is given, writes one ``roc_<model>.csv`` per model and the combined
    ``roc_all.svg``.
    """
    n = config.roc_learning_size if learning_size is None else learning_size
    if result is not None and n not in result.config.learning_sizes:
        raise ValueError(f"learning size {n} was not swept")
    test = roc_test_split(target, config if result is None else result.config, n)
    if result is None:
        result = run_experiment(source, target, replace(config, learning_sizes=(n,), repetitions=1))

    curves = {}
    for record in (r for r in result.records if (r.learning_size, r.repetition) == (n, 0)):
        if record.target_params is None:
            raise NumericalError(f"{record.model} fit failed on repetition 0 at learning size {n}")
        intercept, *coefficients = record.target_params
        scores = score(LogisticParams(intercept, coefficients), test.features)
        curves[record.model] = roc(scores, test.labels)

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, curve in curves.items():
            write_roc_csv(curve, out_dir / f"roc_{name}.csv")
        write_roc_svg(curves, out_dir / SVG_FILE)
    return curves


def write_experiment_outputs(
    result: ExperimentResult,
    out_dir: str | Path,
    dataset_sha256: str | None = None,
    extra_metadata: dict | None = None,
) -> None:
    """Write the aggregated tables, raw records, and run metadata."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    for metric, table in result.tables.items():
        with open(out_dir / TABLE_FILES[metric], "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(["learning_size", "model", "mean", "std", "repetitions_used"])
            for j, n in enumerate(table.learning_sizes):
                for i, model in enumerate(table.models):
                    writer.writerow(
                        [
                            n,
                            model,
                            _round3(table.means[i, j]),
                            _round3(table.stds[i, j]),
                            int(table.repetitions_used[i, j]),
                        ]
                    )

    with open(out_dir / RAW_FILE, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(RepetitionRecord._FIELDS)
        writer.writerows(zip(*_raw_columns(result.records)))

    config = result.config
    metadata = {
        "tool": "scorelink",
        "version": __version__,
        "seed": config.seed,
        "learning_sizes": list(config.learning_sizes),
        "repetitions": config.repetitions,
        "models": [kind.value for kind in config.models],
        "threshold": config.threshold,
        "fit": {
            "max_iterations": config.fit.max_iterations,
            "gradient_tolerance": config.fit.gradient_tolerance,
            "ridge": config.fit.ridge,
        },
        "rng": "numpy Philox (philox4x64) keyed by (seed, learning_size, repetition)",
        "splits_shared_across_sizes": False,
        "failures": result.failures,
    }
    if dataset_sha256 is not None:
        metadata["dataset_sha256"] = dataset_sha256
    if extra_metadata:
        metadata.update(extra_metadata)
    with open(out_dir / METADATA_FILE, "w", encoding="utf-8") as f:
        json.dump(metadata, f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")


def _round3(value: float) -> str:
    return "" if np.isnan(value) else format(value, ".3f")


def _raw_columns(records) -> list[list[str]]:
    """The raw-records CSV columns as text, each formatted by its declared type.

    numpy scalars are converted to Python's first, because
    repr(np.float64(0.25)) is "np.float64(0.25)". Flags are written as 0/1
    and NaN as an empty cell.
    """
    types = {f.name: f.type for f in fields(RepetitionRecord)}
    columns = []
    for name in RepetitionRecord._FIELDS:
        values = map(attrgetter(name), records)
        if types[name] == "float":
            columns.append(["" if v != v else repr(v) for v in map(float, values)])
        elif types[name] == "str":
            columns.append(list(map(str, values)))
        else:  # int and bool
            columns.append(list(map(str, map(int, values))))
    return columns
