"""Which German learning samples have no finite link MLE.

A logistic MLE exists only when the sample is not completely or
quasi-completely separated in the model's design (Albert & Anderson 1984,
Biometrika 71:1). Konis's linear program (2007, DPhil thesis, Oxford)
decides it: maximize sum_i s_i D_i w subject to s_i D_i w >= 0 and
|w_j| <= 1, with s_i = +1 for label 1 and -1 for label 0; the sample is
separated if and only if the optimum is positive.

M6's design [1, b_j x_j] spans the designs of M2, M4 and M5 (M5's columns
are a subset, M2's and M4's are sums of them), so a sample that M6 does
not separate separates none of them: M6 screens every sample, and the
nested kinds are checked only where M6 is separated. M3's design is the
intercept alone, separated only by a single-class sample.
"""

import numpy as np
import pytest

from scorelink import FitConfig, LinkModelKind, estimate_transition
from scorelink.dataset import SplitPlan, draw_split

# scipy comes with the "test" extra; without it this module skips
linprog = pytest.importorskip("scipy.optimize").linprog

SIZES = (50, 100, 150, 200)
REPETITIONS = 50
SEED = 0
NESTED = ("M2", "M4", "M5")
# separated samples per learning size, at the experiment's seed 0
SEPARATED = {
    "M2": {50: 0, 100: 0, 150: 0, 200: 0},
    "M4": {50: 0, 100: 0, 150: 0, 200: 0},
    "M5": {50: 10, 100: 0, 150: 0, 200: 0},
    "M6": {50: 31, 100: 20, 150: 9, 200: 3},
}


def separated(design: np.ndarray, labels: np.ndarray) -> bool:
    """Konis's test: is the sample separated in ``design``? A separated
    sample's optimum is at least about 1 here, a non-separated one's 0."""
    signed = design * (2.0 * labels - 1.0)[:, None]
    result = linprog(-signed.sum(axis=0), A_ub=-signed, b_ub=np.zeros(len(labels)),
                     bounds=(-1.0, 1.0), method="highs")
    assert result.status == 0, result.message
    return -result.fun > 1e-6


def link_designs(coefficients: np.ndarray, features: np.ndarray) -> dict:
    """The design of each kind's free parameters on a learning sample."""
    scaled = features * coefficients
    ones = np.ones((len(features), 1))
    common = scaled.sum(axis=1, keepdims=True)
    return {
        "M2": common,
        "M4": np.hstack([ones, common]),
        "M5": scaled,
        "M6": np.hstack([ones, scaled]),
    }


@pytest.fixture(scope="module")
def samples(target):
    """Every German learning sample of the sweep: (n, its learning sample)."""
    return [
        (n, draw_split(target, SplitPlan(n, REPETITIONS, SEED), rep)[0])
        for n in SIZES
        for rep in range(REPETITIONS)
    ]


@pytest.fixture(scope="module")
def separation(samples, source_fit):
    """The separated kinds of each learning sample, in the order of ``samples``."""
    coefficients = source_fit.params.coefficients
    found = []
    for _, learning in samples:
        designs = link_designs(coefficients, learning.features)
        labels = learning.labels.astype(float)
        kinds = set()
        if separated(designs["M6"], labels):
            kinds = {"M6"} | {kind for kind in NESTED if separated(designs[kind], labels)}
        found.append(kinds)
    return found


class TestSeparation:
    def test_separated_counts(self, samples, separation):
        """M5 is separated 10/0/0/0 times and M6 31/20/9/3 times at
        n = 50/100/150/200; M2 and M4 never."""
        counts = {kind: dict.fromkeys(SIZES, 0) for kind in SEPARATED}
        for (n, _), kinds in zip(samples, separation):
            for kind in kinds:
                counts[kind][n] += 1
        assert counts == SEPARATED

    def test_ridge_decides_only_the_separated_fits(self, samples, source_fit, separation):
        """Refitting M6 at ridge 1e-6 instead of 1e-8 moves a separated
        sample's target coefficients by more than 1 (median above 3), and a
        non-separated sample's by less than 1 (median below 0.01), at every n."""
        moves = {}
        for (n, learning), kinds in zip(samples, separation):
            fits = [
                estimate_transition(LinkModelKind.M6, source_fit.params, learning,
                                    FitConfig(ridge=ridge)).target_params.coefficients
                for ridge in (1e-8, 1e-6)
            ]
            moves.setdefault(n, {}).setdefault("M6" in kinds, []).append(
                np.abs(fits[1] - fits[0]).max()
            )
        for n, by_flag in moves.items():
            assert min(by_flag[True]) > 1.0 and np.median(by_flag[True]) > 3.0, n
            assert max(by_flag[False]) < 1.0 and np.median(by_flag[False]) < 0.01, n
