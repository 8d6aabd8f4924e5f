"""Stage names of the scorelink benchmark, defined here and nowhere else.

A stage is the name of a span the traced run records at a layer
boundary. ``TRACED`` says which scorelink function each span wraps, and
:func:`pass_metrics` derives the per-layer metrics of BENCHMARK.json from
the spans of one protocol pass. Per-stage telemetry written by the
program itself should reuse these names so that its numbers line up with
the benchmark's.
"""

from __future__ import annotations

import statistics

CLI = "cli.main"
LOAD_CSV = "dataset.load_csv"
SPLIT = "dataset.split"
DRAW_SPLIT = "dataset.draw_split"
NEWTON = "logistic.newton"
FIT_MLE = "logistic.fit_mle"
LINK_MODELS = tuple(f"links.M{k}" for k in range(1, 8))
SCORE = "evaluation.score"
ERROR_REPORT = "evaluation.error_report"
ROC = "evaluation.roc"
WRITE_ROC = "evaluation.write_roc"
RUN = "experiment.run"
WORKER_UNIT = "experiment.worker_unit"
WRITE_OUTPUTS = "experiment.write_outputs"
ROC_SUITE = "experiment.roc_suite"


def _link_model(*args, **kwargs) -> str:
    kind = args[0] if args else kwargs["kind"]
    return f"links.{kind.value}"


def _newton_counts(args, kwargs, result) -> dict:
    rows, columns = (args[0] if args else kwargs["design"]).shape
    return {"iterations": result.iterations, "converged": int(result.converged),
            "cells": rows * columns}


def _output_bytes(args, kwargs, result) -> dict:
    from pathlib import Path

    from scorelink.experiment import METADATA_FILE, RAW_FILE, TABLE_FILES

    out = Path(args[1] if len(args) > 1 else kwargs["out_dir"])
    names = [*TABLE_FILES.values(), RAW_FILE, METADATA_FILE]
    return {"bytes": sum((out / name).stat().st_size for name in names)}


# (module, function) -> (span name or a function of the call's arguments
# giving it, function of (args, kwargs, result) giving the span's counts).
# The tracer installs each wrapper on every scorelink module attribute
# bound to the function, which covers the names cli, experiment and links
# import directly.
TRACED = {
    ("dataset", "load_csv"): (LOAD_CSV, None),
    ("dataset", "split_by_account_status"): (SPLIT, None),
    ("dataset", "draw_split"): (DRAW_SPLIT, None),
    ("logistic", "maximize_logistic"): (NEWTON, _newton_counts),
    ("logistic", "fit_mle"): (FIT_MLE, None),
    ("logistic", "score"): (SCORE, None),
    ("links", "estimate_transition"): (_link_model, None),
    ("links", "fit_m7"): (LINK_MODELS[6], None),
    ("evaluation", "error_report"): (ERROR_REPORT, None),
    ("evaluation", "roc"): (ROC, None),
    ("evaluation", "write_roc_csv"): (WRITE_ROC, None),
    ("evaluation", "write_roc_svg"): (WRITE_ROC, None),
    ("experiment", "run_experiment"): (RUN, None),
    ("experiment", "_worker_run"): (WORKER_UNIT, None),
    ("experiment", "write_experiment_outputs"): (WRITE_OUTPUTS, _output_bytes),
    ("experiment", "emit_roc_suite"): (ROC_SUITE, None),
}

# Busy time of a span name, summed over its spans in one pass.
_BUSY = {
    "dataset.load_csv_s": LOAD_CSV,
    "dataset.split_s": SPLIT,
    "dataset.draw_split_s": DRAW_SPLIT,
    "logistic.newton_s": NEWTON,
    "logistic.fit_mle_s": FIT_MLE,
    **{f"{name}_s": name for name in LINK_MODELS},
    "evaluation.score_s": SCORE,
    "evaluation.error_report_s": ERROR_REPORT,
    "evaluation.roc_s": ROC,
    "evaluation.write_roc_s": WRITE_ROC,
    "experiment.run_s": RUN,
    "experiment.write_outputs_s": WRITE_OUTPUTS,
    "experiment.roc_suite_s": ROC_SUITE,
}


def _self_time(spans, index: int) -> float:
    """Duration of a span minus the part of it its child spans cover."""
    start, end = spans[index][1], spans[index][2]
    covered, reach = 0.0, start
    children = sorted((s[1], s[2]) for s in spans if s[3] == index)
    for child_start, child_end in children:
        child_start, child_end = max(child_start, reach), min(child_end, end)
        if child_end > child_start:
            covered += child_end - child_start
            reach = child_end
    return end - start - covered


def pass_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its spans.

    Spans are ``[name, start, end, parent, run, counts]`` lists with the
    parent given as an index into ``spans``; worker-side spans must
    already be attached to the ``experiment.run`` span of their pass.
    """
    out = {metric: 0.0 for metric in _BUSY}
    for span in spans:
        for metric, name in _BUSY.items():
            if span[0] == name:
                out[metric] += span[2] - span[1]
    # a call that raised has no counts
    newton = [s[5] for s in spans if s[0] == NEWTON and s[5] is not None]
    out["dataset.draw_split_calls"] = sum(s[0] == DRAW_SPLIT for s in spans)
    out["logistic.newton_calls"] = len(newton)
    out["logistic.newton_iterations"] = sum(c["iterations"] for c in newton)
    out["logistic.converged_ratio"] = (
        sum(c["converged"] for c in newton) / len(newton) if newton else 1.0
    )
    out["logistic.design_cells"] = sum(c["cells"] for c in newton)
    out["experiment.output_bytes"] = sum(
        s[5]["bytes"] for s in spans if s[0] == WRITE_OUTPUTS and s[5] is not None
    )
    out["experiment.self_s"] = sum(
        _self_time(spans, i) for i, s in enumerate(spans) if s[0] == RUN
    )
    out["cli.self_s"] = sum(_self_time(spans, i) for i, s in enumerate(spans) if s[0] == CLI)
    return out


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median over passes of each per-pass metric."""
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}
