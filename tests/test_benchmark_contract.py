"""What the benchmark's tracer (perfbench/stages.py) needs from scorelink.

The tracer wraps the functions named in ``stages.TRACED`` and reads counts
off the Newton engine's 2-D calls, so a rename or a signature change shows
up here rather than in a traced benchmark run. stages.py is loaded by path
and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from scorelink.logistic import maximize_logistic

STAGES_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "stages.py"


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
