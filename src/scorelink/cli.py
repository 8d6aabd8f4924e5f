"""Command-line interface.

Subcommands: split, fit, transfer, evaluate, experiment, roc,
gaussian-check. ``experiment`` with defaults reproduces the full
repeated-split protocol end to end from the raw CSV.

Each option is declared once, in ``_OPTIONS``. An optional ``--config``
JSON file supplies option values that explicit flags override. A config
value passes its flag's parser: a string is read as the flag's text, a
list option also takes a JSON list or a single value, and a number must
have the option's type (an integer will do for a float; a bool never does).

Exit codes: 0 success, 2 usage error or an output that cannot be
written, 3 data error or an input that cannot be read, 4 numerical
failure. Failures print a single JSON line on stderr.
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
    load_subpopulations,
    write_csv,
)
from .evaluation import confusion, error_report
from .exceptions import DataError, NumericalError
from .experiment import (
    ExperimentConfig,
    emit_roc_suite,
    roc_test_split,
    run_experiment,
    write_experiment_outputs,
)
from .gaussian import random_homoscedastic_pair, verify_link_consistency
from .links import LinkModelKind, estimate_transition, fit_m7
from .logistic import FitConfig, LogisticParams, fit_mle, score

USAGE_ERROR, DATA_ERROR, NUMERICAL_ERROR = 2, 3, 4


def _list_of(item):
    """Parser of a comma-separated list of ``item`` values."""

    def parse(text: str) -> tuple:
        return tuple(item(v.strip()) for v in text.split(",") if v.strip())

    parse.item = item
    parse.__name__ = f"{item.__name__} list"  # argparse names it in its errors
    return parse


_FIT = FitConfig()
_SWEEP = ExperimentConfig()

# Options: the flag --<name with dashes>, which is also the --config key
# <name>. name -> (parser of the flag's text, default, help)
_OPTIONS = {
    "target_column": (str, DEFAULT_TARGET_COLUMN, None),
    "split_column": (str, DEFAULT_SPLIT_COLUMN, None),
    "ridge": (float, _FIT.ridge, None),
    "max_iterations": (int, _FIT.max_iterations, None),
    "tolerance": (float, _FIT.gradient_tolerance, None),
    "threshold": (float, _SWEEP.threshold, None),
    "seed": (int, _SWEEP.seed, None),
    "sizes": (_list_of(int), _SWEEP.learning_sizes, "comma-separated learning sizes"),
    "repetitions": (int, _SWEEP.repetitions, None),
    "models": (_list_of(LinkModelKind), _SWEEP.models, "comma-separated subset of M1..M7"),
    "jobs": (int, 1, "worker processes, at least 1"),
    "n": (int, _SWEEP.roc_learning_size, "learning size of the split"),
    "dim": (int, 5, None),
    "instances": (int, 1, None),
}

# Flags that are not config keys: name -> add_argument keywords
_FLAGS = {
    "data": {"help": "numeric credit CSV"},
    "out": {"help": "output directory, or the JSON file of fit and transfer (default: stdout)"},
    "params": {"help": "parameter JSON file"},
    "model": {"choices": [kind.value for kind in LinkModelKind]},
    "source_params": {"help": "source parameter JSON (M1..M6)"},
    "source_data": {"help": "source sample CSV (required for M7)"},
    "learning": {"help": "target learning sample CSV"},
}

# The JSON numbers a config value may be for an option of each type.
_JSON_NUMBERS = {int: (int,), float: (int, float)}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with single-line machine-readable errors on exit code 2."""

    def error(self, message):
        _fail(USAGE_ERROR, message)


def _fail(code: int, message: str) -> None:
    print(json.dumps({"error": message, "code": code}, allow_nan=False), file=sys.stderr)
    sys.exit(code)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _build_parser() -> _Parser:
    parser = _Parser(prog="scorelink", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"scorelink {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, (_, help_text, required, optional, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in (*required, *optional):
            p.add_argument(_flag(name), required=name in required, **_FLAGS[name])
        for name in options:
            parse, _, help_text = _OPTIONS[name]
            p.add_argument(_flag(name), type=parse, help=help_text)
        p.add_argument("--config", help="JSON file with default option values")
    return parser


def _merged(args, names) -> dict:
    """Each option's value. Layer: defaults < --config file < explicit flags."""
    values = {name: _OPTIONS[name][1] for name in names}
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise DataError(f"no such config file: {args.config}") from None
        except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or JSON
            raise DataError(f"config file {args.config}: {exc}") from None
        if not isinstance(loaded, dict):
            raise DataError(f"config file {args.config}: not a JSON object")
        unknown = set(loaded) - set(names)
        if unknown:
            raise _UsageError(f"unknown config keys: {sorted(unknown)}")
        values.update((key, _config_value(key, value)) for key, value in loaded.items())
    for name in names:
        flag = getattr(args, name)
        if flag is not None:
            values[name] = flag
    return values


def _config_value(key: str, value):
    """A --config value, parsed as its flag's value would be."""
    parse = _OPTIONS[key][0]
    item = getattr(parse, "item", None)
    try:
        if isinstance(value, str):
            return parse(value)
        if item is None:
            return _json_value(parse, value)
        return tuple(_json_value(item, v) for v in (value if isinstance(value, list) else [value]))
    except (ValueError, OverflowError) as exc:
        raise _UsageError(f"config key {key!r}: {exc}") from None


def _json_value(parse, value):
    # type(), not isinstance(): a bool is never a number
    if isinstance(value, str) or type(value) in _JSON_NUMBERS.get(parse, ()):
        return parse(value)
    raise ValueError(f"expected {parse.__name__}, got {json.dumps(value)}")


def _fit_config(args) -> FitConfig:
    if "tolerance" in vars(args):  # fit and transfer; experiment and roc set only the ridge
        return FitConfig(max_iterations=args.max_iterations,
                         gradient_tolerance=args.tolerance, ridge=args.ridge)
    return FitConfig(ridge=args.ridge)


def _load_params(path: str) -> LogisticParams:
    try:
        return LogisticParams.load(path)
    except FileNotFoundError:
        raise DataError(f"no such file: {path}") from None
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"bad parameter file {path}: {exc}") from None


def _check_width(name: str, width: int, sample, path: str) -> None:
    """A data error unless the sample read from ``path`` has the ``width``
    features of ``name``."""
    if sample.dimension != width:
        raise DataError(f"{path} has {sample.dimension} features, but {name} has {width}")


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, allow_nan=False)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _check_out_dir(out: str) -> None:
    """--out must be a directory or creatable as one; checked before any
    input is read, and creates nothing."""
    existing = next(p for p in (Path(out), *Path(out).parents) if p.exists())
    if not existing.is_dir():
        raise _UsageError(f"--out {out}: {existing} is not a directory")


def _subpopulations(args):
    return load_subpopulations(args.data, args.target_column, args.split_column)


def _cmd_split(args) -> int:
    source, target = _subpopulations(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(source, out / "source.csv", args.target_column)
    write_csv(target, out / "target.csv", args.target_column)
    counts = {"source_records": source.n_records, "target_records": target.n_records}
    print(json.dumps(counts, allow_nan=False))
    return 0


def _cmd_fit(args) -> int:
    sample = load_csv(args.data, args.target_column)
    report = fit_mle(sample, _fit_config(args))
    payload = report.params.to_dict()
    payload.update(
        log_likelihood=report.log_likelihood,
        converged=report.converged,
        iterations=report.iterations,
    )
    _emit(payload, args.out)
    return 0


def _cmd_transfer(args) -> int:
    kind = LinkModelKind(args.model)
    learning = load_csv(args.learning, args.target_column)
    config = _fit_config(args)
    if kind is LinkModelKind.M7:
        if not args.source_data:
            raise _UsageError("M7 requires --source-data")
        source_sample = load_csv(args.source_data, args.target_column)
        _check_width("--source-data", source_sample.dimension, learning, args.learning)
        fit = fit_m7(source_sample, learning, config)
    else:
        if not args.source_params:
            raise _UsageError(f"{kind.value} requires --source-params")
        params = _load_params(args.source_params)
        _check_width("--source-params", params.dimension, learning, args.learning)
        fit = estimate_transition(kind, params, learning, config)
    _emit(fit.to_dict(), args.out)
    return 0


def _cmd_evaluate(args) -> int:
    params = _load_params(args.params)
    sample = load_csv(args.data, args.target_column)
    _check_width("--params", params.dimension, sample, args.data)
    counts = confusion(score(params, sample.features), sample.labels, args.threshold)
    report = error_report(counts, args.threshold)
    payload = report.to_dict()
    payload.update(
        true_positive=counts.true_positive,
        false_positive=counts.false_positive,
        true_negative=counts.true_negative,
        false_negative=counts.false_negative,
    )
    _emit(payload, None)
    return 0


def _cmd_experiment(args) -> int:
    _check_out_dir(args.out)
    source, target = _subpopulations(args)
    config = ExperimentConfig(
        learning_sizes=args.sizes,
        repetitions=args.repetitions,
        seed=args.seed,
        models=args.models,
        threshold=args.threshold,
        fit=_fit_config(args),
    )
    roc_test_split(target, config)  # a ROC split of one class fails before any fit
    result = run_experiment(source, target, config, jobs=args.jobs)
    write_experiment_outputs(
        result,
        args.out,
        dataset_sha256=file_sha256(args.data),
        extra_metadata={
            "source_records": source.n_records,
            "target_records": target.n_records,
        },
    )
    emit_roc_suite(source, target, config, out_dir=args.out, result=result)
    print(json.dumps({"out": str(args.out), "failures": result.failures}, allow_nan=False))
    return 0


def _cmd_roc(args) -> int:
    _check_out_dir(args.out)
    source, target = _subpopulations(args)
    config = ExperimentConfig(seed=args.seed, threshold=args.threshold, fit=_fit_config(args))
    curves = emit_roc_suite(source, target, config, learning_size=args.n, out_dir=args.out)
    aucs = {name: round(curve.auc, 4) for name, curve in sorted(curves.items())}
    print(json.dumps(aucs, allow_nan=False))
    return 0


def _cmd_gaussian_check(args) -> int:
    if args.dim < 1 or args.instances < 1:
        raise _UsageError("--dim and --instances must be positive")
    rng = np.random.default_rng(args.seed)
    reports = []
    for _ in range(args.instances):
        spec, link = random_homoscedastic_pair(args.dim, rng)
        reports.append(verify_link_consistency(spec, link).to_dict())
    payload = reports[0] if args.instances == 1 else {
        "instances": reports,
        "max_residual": max(r["max_residual"] for r in reports),
    }
    payload["dim"] = args.dim
    print(json.dumps(payload, allow_nan=False))
    return 0


_FIT_OPTIONS = ("target_column", "ridge", "max_iterations", "tolerance")
_SPLIT_OPTIONS = ("target_column", "split_column")

# command -> (handler, help, required flags, other flags, options)
_COMMANDS = {
    "split": (_cmd_split, "separate customers from non-customers",
              ("data", "out"), (), _SPLIT_OPTIONS),
    "fit": (_cmd_fit, "fit the logistic score function by ML",
            ("data",), ("out",), _FIT_OPTIONS),
    "transfer": (_cmd_transfer, "estimate one link model on a learning sample",
                 ("model", "learning"), ("source_params", "source_data", "out"), _FIT_OPTIONS),
    "evaluate": (_cmd_evaluate, "error rates of fitted params on a test CSV",
                 ("params", "data"), (), ("target_column", "threshold")),
    "experiment": (_cmd_experiment, "full repeated-split protocol", ("data", "out"), (),
                   (*_SPLIT_OPTIONS, "seed", "sizes", "repetitions", "models", "threshold",
                    "ridge", "jobs")),
    "roc": (_cmd_roc, "per-model ROC curves on one designated split", ("data", "out"), (),
            (*_SPLIT_OPTIONS, "n", "seed", "threshold", "ridge")),
    "gaussian-check": (_cmd_gaussian_check, "closed-form affine-link consistency check",
                       (), (), ("dim", "seed", "instances")),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler, _, _, _, options = _COMMANDS[args.command]
    try:
        vars(args).update(_merged(args, options))
        # stderr holds one JSON line or nothing; the engine and the checks
        # on its results handle an overflow on finite cells near the largest double
        with np.errstate(all="ignore"):
            return handler(args)
    except _UsageError as exc:
        _fail(USAGE_ERROR, str(exc))
    except DataError as exc:
        _fail(DATA_ERROR, str(exc))
    except (NumericalError, np.linalg.LinAlgError) as exc:
        _fail(NUMERICAL_ERROR, str(exc))
    except (ValueError, OSError) as exc:  # OSError: an output that cannot be written
        _fail(USAGE_ERROR, str(exc))
    return 0  # unreachable; _fail always exits


if __name__ == "__main__":
    sys.exit(main())
