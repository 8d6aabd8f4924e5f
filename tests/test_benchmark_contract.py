"""What the benchmark (perfbench/) needs from scorelink.

The tracer wraps the functions named in ``stages.TRACED`` and reads counts
off the Newton engine's 2-D calls, which only ``fit_mle`` makes, and the
benchmark's scripts import names from scorelink; a rename, a deletion or a
signature change shows up here rather than in a benchmark run. The
perfbench files are loaded by path or parsed, and only read.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import scorelink.logistic as logistic_module
from scorelink import LabeledSample, fit_mle
from scorelink.logistic import maximize_logistic

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
STAGES_PATH = PERFBENCH / "stages.py"


@pytest.fixture(scope="module")
def stages():
    spec = importlib.util.spec_from_file_location("perfbench_stages", STAGES_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(stages):
    for module_name, function in stages.TRACED:
        module = importlib.import_module(f"scorelink.{module_name}")
        assert callable(getattr(module, function, None)), f"scorelink.{module_name}.{function}"


def test_newton_counts_read_a_2d_fit(stages, rng):
    design = np.column_stack([np.ones(40), rng.normal(size=(40, 2))])
    labels = rng.integers(0, 2, size=40)
    result = maximize_logistic(design, labels)
    assert type(result.iterations) is int and type(result.converged) is bool
    counts = stages._newton_counts((design, labels), {}, result)
    assert counts == {"iterations": result.iterations, "converged": int(result.converged),
                      "cells": 40 * 3}


def test_fit_mle_reaches_the_traced_newton_once(stages, rng, monkeypatch):
    """One fit_mle call makes exactly one call of the traced 2-D
    maximize_logistic, on the sample's own (n, d) features: the counts the
    tracer reads off it say n x d cells."""
    counts, traced = [], logistic_module.maximize_logistic

    def recording(*args, **kwargs):
        result = traced(*args, **kwargs)
        counts.append(stages._newton_counts(args, kwargs, result))
        return result

    monkeypatch.setattr(logistic_module, "maximize_logistic", recording)
    sample = LabeledSample(rng.normal(size=(40, 2)), np.arange(40) % 2, ("a", "b"))
    report = fit_mle(sample)
    assert counts == [{"iterations": report.iterations, "converged": int(report.converged),
                       "cells": 40 * 2}]


def scorelink_imports():
    """(file, module, name) of each ``from scorelink... import name`` in perfbench."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scorelink":
                for alias in node.names:
                    yield path.name, node.module, alias.name


def test_every_perfbench_import_resolves():
    imports = list(scorelink_imports())
    assert ("measure.py", "scorelink.links", "estimate_transition") in imports
    for filename, module_name, name in imports:
        module = importlib.import_module(module_name)
        # an attribute, or a submodule of a package, as in ``from scorelink import cli``
        found = hasattr(module, name) or (
            hasattr(module, "__path__")
            and importlib.util.find_spec(f"{module_name}.{name}") is not None
        )
        assert found, f"perfbench/{filename}: from {module_name} import {name}"
