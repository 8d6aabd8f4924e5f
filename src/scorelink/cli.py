"""Command-line interface.

Subcommands: split, fit, transfer, evaluate, experiment, roc,
gaussian-check. ``experiment`` with defaults reproduces the full
repeated-split protocol end to end from the raw CSV.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
Failures print a single JSON line on stderr. An optional ``--config``
JSON file supplies defaults that explicit flags override.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import (
    DEFAULT_SPLIT_COLUMN,
    DEFAULT_TARGET_COLUMN,
    file_sha256,
    load_csv,
    split_by_account_status,
    write_csv,
)
from .evaluation import confusion, error_report
from .exceptions import DataError, NumericalError
from .experiment import (
    ExperimentConfig,
    emit_roc_suite,
    run_experiment,
    write_experiment_outputs,
)
from .gaussian import random_homoscedastic_pair, verify_link_consistency
from .links import LinkModelKind, estimate_transition, fit_m7
from .logistic import FitConfig, LogisticParams, fit_mle, score

USAGE_ERROR, DATA_ERROR, NUMERICAL_ERROR = 2, 3, 4

# Config keys each subcommand reads, with their defaults; a --config file
# may hold only these keys, and each has a flag of the same name.
_FIT = FitConfig()
_SWEEP = ExperimentConfig()
_FIT_KEYS = {
    "target_column": DEFAULT_TARGET_COLUMN,
    "ridge": _FIT.ridge,
    "max_iterations": _FIT.max_iterations,
    "tolerance": _FIT.gradient_tolerance,
}
_SPLIT_KEYS = {"target_column": DEFAULT_TARGET_COLUMN, "split_column": DEFAULT_SPLIT_COLUMN}
_EXPERIMENT_KEYS = {
    **_SPLIT_KEYS,
    "seed": _SWEEP.seed,
    "sizes": _SWEEP.learning_sizes,
    "repetitions": _SWEEP.repetitions,
    "models": [kind.value for kind in _SWEEP.models],
    "threshold": _SWEEP.threshold,
    "ridge": _SWEEP.fit.ridge,
    "jobs": 1,
}
_ROC_KEYS = {
    **_SPLIT_KEYS,
    "n": _SWEEP.roc_learning_size,
    "seed": _SWEEP.seed,
    "threshold": _SWEEP.threshold,
    "ridge": _SWEEP.fit.ridge,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with single-line machine-readable errors on exit code 2."""

    def error(self, message):
        _fail(USAGE_ERROR, message)


def _fail(code: int, message: str) -> None:
    print(json.dumps({"error": message, "code": code}, allow_nan=False), file=sys.stderr)
    sys.exit(code)


def _build_parser() -> _Parser:
    parser = _Parser(prog="scorelink", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"scorelink {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p):
        p.add_argument("--config", help="JSON file with default option values")

    p = sub.add_parser("split", help="separate customers from non-customers")
    p.add_argument("--data", required=True, help="numeric credit CSV")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--target-column", default=None)
    p.add_argument("--split-column", default=None)
    add_common(p)

    p = sub.add_parser("fit", help="fit the logistic score function by ML")
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="write parameter JSON here (default: stdout)")
    p.add_argument("--target-column", default=None)
    p.add_argument("--ridge", type=float, default=None)
    p.add_argument("--max-iterations", type=int, default=None)
    p.add_argument("--tolerance", type=float, default=None)
    add_common(p)

    p = sub.add_parser("transfer", help="estimate one link model on a learning sample")
    p.add_argument("--model", required=True, choices=[k.value for k in LinkModelKind])
    p.add_argument("--source-params", help="source parameter JSON (M1..M6)")
    p.add_argument("--source-data", help="source sample CSV (required for M7)")
    p.add_argument("--learning", required=True, help="target learning sample CSV")
    p.add_argument("--out", help="write transfer JSON here (default: stdout)")
    p.add_argument("--target-column", default=None)
    p.add_argument("--ridge", type=float, default=None)
    p.add_argument("--max-iterations", type=int, default=None)
    p.add_argument("--tolerance", type=float, default=None)
    add_common(p)

    p = sub.add_parser("evaluate", help="error rates of fitted params on a test CSV")
    p.add_argument("--params", required=True, help="parameter JSON file")
    p.add_argument("--data", required=True)
    p.add_argument("--target-column", default=None)
    p.add_argument("--threshold", type=float, default=None)
    add_common(p)

    p = sub.add_parser("experiment", help="full repeated-split protocol")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--sizes", default=None, help="comma-separated learning sizes")
    p.add_argument("--repetitions", type=int, default=None)
    p.add_argument("--models", default=None, help="comma-separated subset of M1..M7")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--ridge", type=float, default=None)
    p.add_argument("--jobs", type=int, default=None, help="worker processes")
    p.add_argument("--target-column", default=None)
    p.add_argument("--split-column", default=None)
    add_common(p)

    p = sub.add_parser("roc", help="per-model ROC curves on one designated split")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n", type=int, default=None, help="learning size (default 200)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--ridge", type=float, default=None)
    p.add_argument("--target-column", default=None)
    p.add_argument("--split-column", default=None)
    add_common(p)

    p = sub.add_parser("gaussian-check", help="closed-form affine-link consistency check")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--instances", type=int, default=None)
    add_common(p)

    return parser


def _merged(args, defaults: dict) -> dict:
    """Layer: hard defaults < --config file < explicit flags."""
    values = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            loaded = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise DataError(f"no such config file: {config_path}") from None
        except json.JSONDecodeError as exc:
            raise DataError(f"config file {config_path}: {exc}") from None
        unknown = set(loaded) - set(defaults)
        if unknown:
            raise _UsageError(f"unknown config keys: {sorted(unknown)}")
        values.update(loaded)
    for key in defaults:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return values


def _fit_config(values: dict) -> FitConfig:
    return FitConfig(
        max_iterations=int(values.get("max_iterations", _FIT.max_iterations)),
        gradient_tolerance=float(values.get("tolerance", _FIT.gradient_tolerance)),
        ridge=float(values["ridge"]),
    )


def _load_params(path: str) -> LogisticParams:
    try:
        return LogisticParams.load(path)
    except FileNotFoundError:
        raise DataError(f"no such file: {path}") from None
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        raise DataError(f"bad parameter file {path}: {exc}") from None


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, allow_nan=False)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _cmd_split(args) -> int:
    values = _merged(args, _SPLIT_KEYS)
    sample = load_csv(args.data, values["target_column"])
    source, target = split_by_account_status(sample, values["split_column"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(source, out / "source.csv", values["target_column"])
    write_csv(target, out / "target.csv", values["target_column"])
    counts = {"source_records": source.n_records, "target_records": target.n_records}
    print(json.dumps(counts, allow_nan=False))
    return 0


def _cmd_fit(args) -> int:
    values = _merged(args, _FIT_KEYS)
    sample = load_csv(args.data, values["target_column"])
    report = fit_mle(sample, _fit_config(values))
    payload = report.params.to_dict()
    payload.update(
        log_likelihood=report.log_likelihood,
        converged=report.converged,
        iterations=report.iterations,
    )
    _emit(payload, args.out)
    return 0


def _cmd_transfer(args) -> int:
    values = _merged(args, _FIT_KEYS)
    kind = LinkModelKind(args.model)
    learning = load_csv(args.learning, values["target_column"])
    config = _fit_config(values)
    if kind is LinkModelKind.M7:
        if not args.source_data:
            raise _UsageError("M7 requires --source-data")
        source_sample = load_csv(args.source_data, values["target_column"])
        fit = fit_m7(source_sample, learning, config)
    else:
        if not args.source_params:
            raise _UsageError(f"{kind.value} requires --source-params")
        fit = estimate_transition(kind, _load_params(args.source_params), learning, config)
    _emit(fit.to_dict(), args.out)
    return 0


def _cmd_evaluate(args) -> int:
    values = _merged(args, {"target_column": DEFAULT_TARGET_COLUMN,
                            "threshold": _SWEEP.threshold})
    params = _load_params(args.params)
    sample = load_csv(args.data, values["target_column"])
    threshold = float(values["threshold"])
    counts = confusion(score(params, sample.features), sample.labels, threshold)
    report = error_report(counts, threshold)
    payload = report.to_dict()
    payload.update(
        true_positive=counts.true_positive,
        false_positive=counts.false_positive,
        true_negative=counts.true_negative,
        false_negative=counts.false_negative,
    )
    _emit(payload, None)
    return 0


def _parse_list(value, caster) -> tuple:
    if isinstance(value, (list, tuple)):
        return tuple(caster(v) for v in value)
    return tuple(caster(v.strip()) for v in str(value).split(",") if v.strip())


def _cmd_experiment(args) -> int:
    values = _merged(args, _EXPERIMENT_KEYS)
    sample = load_csv(args.data, values["target_column"])
    source, target = split_by_account_status(sample, values["split_column"])
    config = ExperimentConfig(
        learning_sizes=_parse_list(values["sizes"], int),
        repetitions=int(values["repetitions"]),
        seed=int(values["seed"]),
        models=tuple(LinkModelKind(m) for m in _parse_list(values["models"], str)),
        threshold=float(values["threshold"]),
        fit=_fit_config(values),
    )
    result = run_experiment(source, target, config, jobs=int(values["jobs"]))
    write_experiment_outputs(
        result,
        args.out,
        dataset_sha256=file_sha256(args.data),
        extra_metadata={
            "source_records": source.n_records,
            "target_records": target.n_records,
        },
    )
    emit_roc_suite(source, target, config, out_dir=args.out,
                   source_params=result.source_fit.params)
    print(json.dumps({"out": str(args.out), "failures": result.failures}, allow_nan=False))
    return 0


def _cmd_roc(args) -> int:
    values = _merged(args, _ROC_KEYS)
    sample = load_csv(args.data, values["target_column"])
    source, target = split_by_account_status(sample, values["split_column"])
    config = ExperimentConfig(
        seed=int(values["seed"]),
        threshold=float(values["threshold"]),
        fit=_fit_config(values),
    )
    curves = emit_roc_suite(
        source, target, config, learning_size=int(values["n"]), out_dir=args.out
    )
    aucs = {name: round(curve.auc, 4) for name, curve in sorted(curves.items())}
    print(json.dumps(aucs, allow_nan=False))
    return 0


def _cmd_gaussian_check(args) -> int:
    values = _merged(args, {"dim": 5, "seed": 0, "instances": 1})
    dim = int(values["dim"])
    instances = int(values["instances"])
    if dim < 1 or instances < 1:
        raise _UsageError("--dim and --instances must be positive")
    rng = np.random.default_rng(int(values["seed"]))
    reports = []
    for _ in range(instances):
        spec, link = random_homoscedastic_pair(dim, rng)
        reports.append(verify_link_consistency(spec, link).to_dict())
    payload = reports[0] if instances == 1 else {
        "instances": reports,
        "max_residual": max(r["max_residual"] for r in reports),
    }
    payload["dim"] = dim
    print(json.dumps(payload, allow_nan=False))
    return 0


_COMMANDS = {
    "split": _cmd_split,
    "fit": _cmd_fit,
    "transfer": _cmd_transfer,
    "evaluate": _cmd_evaluate,
    "experiment": _cmd_experiment,
    "roc": _cmd_roc,
    "gaussian-check": _cmd_gaussian_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        _fail(USAGE_ERROR, str(exc))
    except DataError as exc:
        _fail(DATA_ERROR, str(exc))
    except (NumericalError, np.linalg.LinAlgError) as exc:
        _fail(NUMERICAL_ERROR, str(exc))
    except ValueError as exc:
        _fail(USAGE_ERROR, str(exc))
    return 0  # unreachable; _fail always exits


if __name__ == "__main__":
    sys.exit(main())
