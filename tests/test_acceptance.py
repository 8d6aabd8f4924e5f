"""Acceptance suite: one test (or parametrized case) per criterion.

Each check prints a single ``PASS``/``FAIL`` line (run with ``pytest -s``
to see them all). The repeated-split protocol runs once per job count at
its defaults: 50 repetitions, learning sizes (50, 100, 150, 200), all
seven models, cut-off 0.5, seed 0.

Criteria 1 and 2 check the tables against oracles that this module
computes without ``run_experiment``, its aggregation or ``scorelink.links``.
The paper's values for the German credit data are printed beside each
result, labelled as the paper's, but not asserted: the packaged
``german.csv`` cannot produce them under the protocol (see README,
"Acceptance status").

* M1 cells: the closed-form full-target rate, within 4 standard errors
  of a 50-split mean (hypergeometric variance, not program output).
* M3, M4 and M7 cells: every n = 200 split redrawn with ``draw_split``
  and refitted independently (M3 by bisection on its score equation, M4
  and M7 by ``fit_mle`` on their own designs), classified at cut-off
  0.5; the confusion counts must equal the recorded ones on every split
  and the cell mean must equal the oracle mean to 1e-12.
* Criterion 2: paired comparisons over the 50 shared n = 200 splits.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from scorelink import (
    AffineLink,
    FitConfig,
    LabeledSample,
    LinkModelKind,
    LogisticParams,
    estimate_transition,
    fit_mle,
    log_likelihood,
    roc,
    score,
    verify_link_consistency,
)
from scorelink.dataset import SplitPlan, draw_split
from scorelink.experiment import (
    ExperimentConfig,
    emit_roc_suite,
    run_experiment,
    write_experiment_outputs,
)
from scorelink.gaussian import random_homoscedastic_pair
from scorelink.logistic import gradient

DEFAULT_CONFIG = ExperimentConfig(seed=0)

# the published protocol, stated here rather than read from the program
PROTOCOL_SEED = 0
PROTOCOL_REPETITIONS = 50
PROTOCOL_CUTOFF = 0.5
PROTOCOL_RIDGE = 1e-8
ORACLE_SIZE = 200  # every anchor cell sits at n = 200
M1_SIGMAS = 4.0


def report(ok: bool, label: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {label}")
    return ok


@pytest.fixture(scope="module")
def full_run(source, target):
    started = time.monotonic()
    result = run_experiment(source, target, DEFAULT_CONFIG, jobs=1)
    return result, time.monotonic() - started


# (metric, model, learning size, the paper's value for the German data)
ANCHORS = [
    ("test_error", "M3", 200, 0.308),
    ("type_i", "M4", 200, 0.218),
    ("type_i", "M1", 200, 0.336),
    ("type_ii", "M1", 200, 0.185),
    ("type_ii", "M7", 200, 0.203),
]


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * eta))


def _m1_closed_form(accepted, labels, test_size: int, repetitions: int) -> dict:
    """Expected M1 Type I / Type II over uniform test subsets, with tolerance.

    Given k test rows of class j, they are a uniform k-subset of the
    target's K class-j rows, so the conditional error rate has mean p (the
    full-target rate) and variance p (1 - p) (K - k) / (k (K - 1)); k is
    itself hypergeometric. The tolerance is ``M1_SIGMAS`` standard errors
    of a mean over ``repetitions`` independent splits. An empty class
    (rate reported as 0) has probability below 1e-20 here and is ignored.
    """
    total = labels.shape[0]
    out = {}
    for metric, cls, errors in (("type_i", 0, accepted), ("type_ii", 1, ~accepted)):
        members = labels == cls
        size = int(members.sum())
        rate = int(np.sum(errors & members)) / size
        variance = 0.0
        for k in range(1, min(size, test_size) + 1):
            weight = (
                math.comb(size, k)
                * math.comb(total - size, test_size - k)
                / math.comb(total, test_size)
            )
            variance += weight * rate * (1 - rate) * (size - k) / (k * (size - 1))
        out[metric] = (rate, M1_SIGMAS * math.sqrt(variance / repetitions))
    return out


def _bisect_shift(eta: np.ndarray, labels: np.ndarray, ridge: float) -> float:
    """Root c of the M3 score equation sum(y - sigmoid(eta + c)) - ridge c = 0."""

    def slope(c: float) -> float:
        return float(np.sum(labels - _sigmoid(eta + c))) - ridge * c

    lo, hi = -50.0, 50.0
    assert slope(lo) > 0.0 > slope(hi)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if slope(mid) > 0.0:
            lo = mid
        else:
            hi = mid


def _tally_rates(probs: np.ndarray, labels: np.ndarray):
    accepted = probs >= PROTOCOL_CUTOFF
    good = labels == 1
    counts = (
        int(np.sum(accepted & good)),
        int(np.sum(accepted & ~good)),
        int(np.sum(~accepted & ~good)),
        int(np.sum(~accepted & good)),
    )
    tp, fp, tn, fn = counts
    rates = {
        "test_error": (fp + fn) / labels.shape[0],
        "type_i": fp / (fp + tn),
        "type_ii": fn / (fn + tp),
    }
    return counts, rates


def _oracle_probs(model: str, source, source_params, learning, test) -> np.ndarray:
    if model == "M3":
        eta = source_params.linear_predictor(learning.features)
        shift = _bisect_shift(eta, learning.labels.astype(float), PROTOCOL_RIDGE)
        return _sigmoid(source_params.linear_predictor(test.features) + shift)
    if model == "M4":
        column = source_params.linear_predictor(learning.features)[:, None]
        fit = fit_mle(LabeledSample(column, learning.labels, ("source_eta",)))
        return score(fit.params, source_params.linear_predictor(test.features)[:, None])
    if model == "M7":
        pooled = LabeledSample(
            np.vstack([source.features, learning.features]),
            np.concatenate([source.labels, learning.labels]),
            learning.feature_names,
        )
        return score(fit_mle(pooled).params, test.features)
    raise ValueError(f"no per-split oracle for {model}")


@pytest.fixture(scope="module")
def oracles(source, source_fit, target):
    """Independent expectations for the criterion-1 anchor cells.

    ``closed_form[metric]`` holds M1's (rate, tolerance);
    ``counts[model][rep]`` the oracle's (TP, FP, TN, FN) on split ``rep``
    at n = 200 and ``rates[model][metric]`` its 50 per-split rates.
    """
    params = source_fit.params
    accepted = _sigmoid(params.linear_predictor(target.features)) >= PROTOCOL_CUTOFF
    closed_form = _m1_closed_form(
        accepted, target.labels, target.n_records - ORACLE_SIZE, PROTOCOL_REPETITIONS
    )
    plan = SplitPlan(ORACLE_SIZE, PROTOCOL_REPETITIONS, PROTOCOL_SEED)
    counts, rates = {}, {}
    for rep in range(PROTOCOL_REPETITIONS):
        learning, test = draw_split(target, plan, rep)
        for model in ("M3", "M4", "M7"):
            probs = _oracle_probs(model, source, params, learning, test)
            tally, split_rates = _tally_rates(probs, test.labels)
            counts.setdefault(model, {})[rep] = tally
            for metric, value in split_rates.items():
                rates.setdefault(model, {}).setdefault(metric, []).append(value)
    return {"closed_form": closed_form, "counts": counts, "rates": rates}


def _recorded_counts(result, model: str, n: int) -> dict:
    return {
        rec.repetition: (
            rec.true_positive, rec.false_positive, rec.true_negative, rec.false_negative
        )
        for rec in result.records
        if rec.model == model and rec.learning_size == n and not rec.failed
    }


class TestCriterion1TableReproduction:
    @pytest.mark.parametrize("metric,model,n,reference", ANCHORS)
    def test_anchor_cell(self, full_run, oracles, metric, model, n, reference):
        """Each anchor cell agrees with an independently computed oracle.

        M1: the closed-form full-target rate within 4 standard errors of a
        50-split mean. M3, M4, M7: equal confusion counts on every split and
        a cell mean equal to the per-split oracle's mean to 1e-12. The
        paper's value is reported only: see the module docstring.
        """
        result, _ = full_run
        ours = result.tables[metric].mean(model, n)
        paper = f"paper's value {reference:.3f}, not asserted"
        if model == "M1":
            expected, tolerance = oracles["closed_form"][metric]
            ok = abs(ours - expected) <= tolerance
            label = (
                f"criterion 1: M1 {metric} at n={n}: {ours:.3f} vs closed-form "
                f"full-target rate {expected:.3f} (tolerance {tolerance:.3f}); {paper}"
            )
        else:
            want = oracles["counts"][model]
            got = _recorded_counts(result, model, n)
            mismatches = sum(got.get(rep) != tally for rep, tally in want.items())
            expected = float(np.mean(oracles["rates"][model][metric]))
            ok = mismatches == 0 and abs(ours - expected) <= 1e-12
            label = (
                f"criterion 1: {model} {metric} at n={n}: {ours:.3f} vs per-split oracle "
                f"{expected:.3f} (|diff| {abs(ours - expected):.1e} <= 1e-12, "
                f"{mismatches}/{len(want)} count mismatches); {paper}"
            )
        assert report(ok, label), label

    def test_runtime_bound(self, full_run):
        _, elapsed = full_run
        assert report(
            elapsed < 300.0, f"criterion 1: full sweep runtime {elapsed:.1f}s < 300s"
        )


def _paired_z(first: dict, second: dict) -> float:
    """z statistic of the mean paired difference first - second."""
    reps = sorted(first.keys() & second.keys())
    diff = np.array([first[r] - second[r] for r in reps])
    return float(diff.mean() / (diff.std(ddof=1) / math.sqrt(diff.shape[0])))


class TestCriterion2QualitativeOrderings:
    def test_m3_m4_lowest_type_i(self, full_run):
        """Shift-adapted M3 and M4 remove the Type I excess of M1 and M7.

        For each of M3 and M4 against each of the unadapted M1 and the pooled
        M7, the paired z of the Type I difference over the shared n = 200
        splits is at most -3. The paper also ranks M3 and M4 lowest of all;
        on this coding M2, which ranks applicants identically, takes the
        lowest place, so that ordering is reported, not asserted.
        """
        result, _ = full_run
        per_split = {}
        for rec in result.records:
            if rec.learning_size == 200 and not rec.failed:
                per_split.setdefault(rec.model, {})[rec.repetition] = rec.type_i
        z = {
            (a, b): _paired_z(per_split[a], per_split[b])
            for a in ("M3", "M4")
            for b in ("M1", "M7")
        }
        table = result.tables["type_i"]
        ranked = sorted(table.models, key=lambda m: table.mean(m, 200))
        ranking = ", ".join(f"{m} {table.mean(m, 200):.3f}" for m in ranked)
        pairs = ", ".join(f"{a}-{b} {value:.1f}" for (a, b), value in z.items())
        label = (
            f"criterion 2: Type I at n=200, paired z <= -3 for {pairs}; "
            f"ranking {ranking} (paper's two lowest: M3, M4, not asserted)"
        )
        assert report(all(value <= -3.0 for value in z.values()), label), label

    def test_m1_lowest_type_ii(self, full_run):
        result, _ = full_run
        table = result.tables["type_ii"]
        ranked = sorted(table.models, key=lambda m: table.mean(m, 200))
        assert report(
            ranked[0] == "M1",
            f"criterion 2: lowest Type II at n=200 is M1 (got {ranked[0]})",
        )

    def test_m1_worst_or_second_worst_type_i(self, full_run):
        result, _ = full_run
        table = result.tables["type_i"]
        ranked = sorted(table.models, key=lambda m: table.mean(m, 200), reverse=True)
        assert report(
            "M1" in ranked[:2],
            f"criterion 2: M1 among two highest Type I at n=200 (order {ranked})",
        )


class TestCriterion3NestedLikelihoods:
    CHAINS = [
        ("M1", "M2"), ("M2", "M4"), ("M4", "M6"),
        ("M1", "M3"), ("M3", "M4"),
        ("M2", "M5"), ("M5", "M6"),
    ]

    def test_ordering_on_every_learning_sample(self, full_run):
        """LL(M1) <= LL(M2) <= LL(M4) <= LL(M6), LL(M1) <= LL(M3) <= LL(M4),
        LL(M2) <= LL(M5) <= LL(M6), slack 1e-6, among converged fits."""
        result, _ = full_run
        lls = {}
        for rec in result.records:
            if rec.converged and not rec.failed:
                lls[(rec.learning_size, rec.repetition, rec.model)] = rec.log_likelihood
        violations = []
        checked = 0
        for n in DEFAULT_CONFIG.learning_sizes:
            for rep in range(DEFAULT_CONFIG.repetitions):
                for lo, hi in self.CHAINS:
                    a = lls.get((n, rep, lo))
                    b = lls.get((n, rep, hi))
                    if a is None or b is None:
                        continue
                    checked += 1
                    if a > b + 1e-6:
                        violations.append((n, rep, lo, hi, a - b))
        assert report(
            not violations and checked > 0,
            f"criterion 3: nested-likelihood ordering, {checked} converged pairs, "
            f"{len(violations)} violations",
        ), violations[:10]


class TestCriterion4GaussianOracle:
    def test_hundred_random_instances(self):
        """beta* = scale^-1 beta and beta0* - beta0 = -alpha' beta* for 100
        random homoscedastic instances with common affine links."""
        rng = np.random.default_rng(1234)
        worst = 0.0
        for _ in range(100):
            dim = int(rng.integers(1, 9))
            spec, link = random_homoscedastic_pair(dim, rng)
            worst = max(worst, verify_link_consistency(spec, link).max_residual)
        assert report(
            worst < 1e-8, f"criterion 4: 100 random links, max residual {worst:.2e} < 1e-8"
        )

    def test_identity_link_exact(self):
        rng = np.random.default_rng(99)
        worst_resid, worst_c, worst_scale = 0.0, 0.0, 0.0
        for _ in range(20):
            spec, _ = random_homoscedastic_pair(int(rng.integers(1, 9)), rng)
            identity = AffineLink(np.ones(spec.dimension), np.zeros(spec.dimension))
            rep = verify_link_consistency(spec, identity)
            worst_resid = max(worst_resid, rep.max_residual)
            worst_c = max(worst_c, abs(rep.c_observed))
            worst_scale = max(worst_scale, float(np.max(np.abs(rep.scale_observed - 1.0))))
        assert report(
            worst_resid < 1e-12 and worst_c < 1e-12 and worst_scale < 1e-12,
            f"criterion 4: identity links give c=0, unit scales, residual {worst_resid:.2e} < 1e-12",
        )


class TestCriterion5OptimizerCorrectness:
    def test_gradient_finite_differences(self):
        """Analytic gradient vs central differences, 50 random instances."""
        rng = np.random.default_rng(555)
        step = 1e-5
        worst = 0.0
        for _ in range(50):
            d = int(rng.integers(1, 6))
            n = int(rng.integers(5, 40))
            feats = rng.normal(size=(n, d))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            sample = LabeledSample(feats, labels, tuple(f"x{j}" for j in range(d)))
            params = LogisticParams(rng.normal(), rng.normal(size=d))
            grad = gradient(params, sample)
            theta = np.concatenate(([params.intercept], params.coefficients))
            for j in range(theta.size):
                up, dn = theta.copy(), theta.copy()
                up[j] += step
                dn[j] -= step
                numeric = (
                    log_likelihood(LogisticParams(up[0], up[1:]), sample)
                    - log_likelihood(LogisticParams(dn[0], dn[1:]), sample)
                ) / (2 * step)
                denom = max(1.0, abs(numeric))
                worst = max(worst, abs(grad[j] - numeric) / denom)
        assert report(
            worst <= 1e-6, f"criterion 5: gradient vs central differences, worst {worst:.2e} <= 1e-6"
        )

    def test_converged_gradient_norms(self, source, target):
        rng = np.random.default_rng(777)
        reports = [fit_mle(source), fit_mle(target)]
        for _ in range(10):
            feats = rng.normal(size=(80, 3))
            labels = (rng.random(80) < 0.5).astype(int)
            reports.append(fit_mle(LabeledSample(feats, labels, ("a", "b", "c"))))
        worst = max(r.gradient_norm for r in reports if r.converged)
        n_conv = sum(r.converged for r in reports)
        assert report(
            n_conv == len(reports) and worst <= 1e-8,
            f"criterion 5: {n_conv}/{len(reports)} fits converged, worst gradient norm "
            f"{worst:.2e} <= 1e-8",
        )

    def test_toy_mle_matches_grid_search(self):
        x = np.array([-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0])
        y = np.array([0, 0, 1, 0, 1, 0, 1, 1])
        sample = LabeledSample(x[:, None], y, ("x",))
        fitted = fit_mle(sample, FitConfig(ridge=0.0))
        axis = np.round(np.arange(-10.0, 10.0 + 1e-9, 0.01), 2)
        ll = np.zeros((axis.size, axis.size))
        for xi, yi in zip(x, y):
            eta = axis[:, None] + axis[None, :] * xi
            ll += yi * eta - np.logaddexp(0.0, eta)
        i, j = np.unravel_index(np.argmax(ll), ll.shape)
        err = max(
            abs(fitted.params.intercept - axis[i]),
            abs(fitted.params.coefficients[0] - axis[j]),
        )
        assert report(
            fitted.converged and err <= 0.02,
            f"criterion 5: 1-D MLE vs grid search, deviation {err:.4f} <= 0.02",
        )

    def test_intercept_only_equals_logit_of_mean(self):
        labels = np.array([1] * 9 + [0] * 21)
        sample = LabeledSample(np.zeros((30, 4)), labels, ("a", "b", "c", "d"))
        fitted = fit_mle(sample)
        expected = math.log(0.3 / 0.7)
        err = abs(fitted.params.intercept - expected)
        assert report(
            err <= 1e-8, f"criterion 5: intercept-only MLE vs logit(mean), error {err:.2e} <= 1e-8"
        )


class TestCriterion6M6Equivalence:
    def test_matches_direct_fit(self, source_fit, target):
        assert np.min(np.abs(source_fit.params.coefficients)) > 1e-6
        worst_ll, worst_prob = 0.0, 0.0
        for rep in range(3):
            learning, _ = draw_split(target, SplitPlan(200, 50, seed=0), rep)
            m6 = estimate_transition(LinkModelKind.M6, source_fit.params, learning)
            direct = fit_mle(learning)
            if not (m6.converged and direct.converged):
                continue
            worst_ll = max(worst_ll, abs(m6.log_likelihood - direct.log_likelihood))
            worst_prob = max(
                worst_prob,
                float(
                    np.max(
                        np.abs(
                            score(m6.target_params, learning.features)
                            - score(direct.params, learning.features)
                        )
                    )
                ),
            )
        assert report(
            worst_ll <= 1e-6 and worst_prob <= 1e-6,
            f"criterion 6: M6 vs free refit, LL gap {worst_ll:.2e}, "
            f"probability gap {worst_prob:.2e} (both <= 1e-6)",
        )


class TestCriterion7EvaluationIdentities:
    def test_error_decomposition_exact(self, full_run):
        """test_error = P(Y=0) * type_i + P(Y=1) * type_ii on every split,
        verified in exact rational arithmetic on the stored counts."""
        result, _ = full_run
        checked = 0
        for rec in result.records:
            if rec.failed:
                continue
            n0 = rec.false_positive + rec.true_negative
            n1 = rec.false_negative + rec.true_positive
            total = n0 + n1
            if n0 == 0 or n1 == 0:
                continue
            lhs = Fraction(rec.false_positive + rec.false_negative, total)
            rhs = Fraction(n0, total) * Fraction(rec.false_positive, n0) + Fraction(
                n1, total
            ) * Fraction(rec.false_negative, n1)
            assert lhs == rhs
            assert rec.test_error == (rec.false_positive + rec.false_negative) / total
            assert rec.type_i == rec.false_positive / n0
            assert rec.type_ii == rec.false_negative / n1
            checked += 1
        assert report(
            checked == len(result.records),
            f"criterion 7: error decomposition exact on {checked} evaluated splits",
        )

    def test_roc_curves_above_diagonal(self, source, target):
        curves = emit_roc_suite(source, target, DEFAULT_CONFIG, learning_size=200)
        aucs = {name: c.auc for name, c in curves.items()}
        assert report(
            len(aucs) == 7 and all(a > 0.5 for a in aucs.values()),
            "criterion 7: all seven ROC AUCs at n=200 above 0.5 "
            + json.dumps({k: round(v, 4) for k, v in sorted(aucs.items())}),
        )

    def test_auc_monotone_invariance(self):
        rng = np.random.default_rng(31337)
        scores = rng.random(400) * 0.98 + 0.01
        labels = rng.integers(0, 2, 400)
        base = roc(scores, labels).auc
        worst = max(
            abs(base - roc(np.sqrt(scores), labels).auc),
            abs(base - roc(scores**5, labels).auc),
            abs(base - roc(1 / (1 + np.exp(-(3 * scores + 1))), labels).auc),
        )
        assert report(
            worst <= 1e-12, f"criterion 7: AUC invariance under monotone maps, {worst:.2e} <= 1e-12"
        )


class TestCriterion8Determinism:
    def test_byte_identical_outputs_across_job_counts(self, source, target, tmp_path):
        """Two full runs, jobs=1 vs jobs=2, byte-identical output files."""
        trees = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            result = run_experiment(source, target, DEFAULT_CONFIG, jobs=jobs)
            write_experiment_outputs(result, out, dataset_sha256="fixed")
            emit_roc_suite(source, target, DEFAULT_CONFIG, out_dir=out)
            trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert report(
            trees[0] == trees[1],
            "criterion 8: full runs with jobs=1 and jobs=2 wrote identical bytes",
        )
