import math

import numpy as np
import pytest

from scorelink import (
    FitConfig,
    LabeledSample,
    LogisticParams,
    NumericalError,
    classify,
    fit_mle,
    gradient,
    hessian,
    log_likelihood,
    score,
)


def random_instance(rng, n=25, d=4, scale=1.0):
    feats = rng.normal(size=(n, d))
    labels = rng.integers(0, 2, size=n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    sample = LabeledSample(feats, labels, tuple(f"x{j}" for j in range(d)))
    params = LogisticParams(scale * rng.normal(), scale * rng.normal(size=d))
    return params, sample


def naive_log_likelihood(params, sample, ridge=0.0):
    """Literal per-record summation, the independent oracle."""
    total = 0.0
    for features, label in zip(sample.features, sample.labels):
        eta = params.intercept + float(np.dot(params.coefficients, features))
        p = 1.0 / (1.0 + math.exp(-eta))
        total += math.log(p) if label == 1 else math.log(1.0 - p)
    return total - 0.5 * ridge * float(params.coefficients @ params.coefficients)


class TestScore:
    def test_zero_params_give_half(self, rng):
        params = LogisticParams(0.0, np.zeros(3))
        assert score(params, rng.normal(size=3)) == 0.5

    def test_intercept_ten(self):
        params = LogisticParams(10.0, np.zeros(2))
        np.testing.assert_allclose(score(params, [1.0, 2.0]), 0.9999546021312976, rtol=1e-12)

    def test_symmetry(self, rng):
        """score(params, x) + score(-params, x) = 1."""
        for _ in range(20):
            params, sample = random_instance(rng)
            negated = LogisticParams(-params.intercept, -params.coefficients)
            x = sample.features[0]
            assert score(params, x) + score(negated, x) == pytest.approx(1.0, abs=1e-15)

    def test_no_overflow_and_open_interval(self):
        params = LogisticParams(0.0, np.array([700.0]))
        hi = score(params, [1.0])
        lo = score(params, [-1.0])
        assert 0.0 < lo < hi < 1.0
        # far beyond saturation, still strictly inside (0, 1)
        extreme = LogisticParams(0.0, np.array([1e6]))
        assert 0.0 < score(extreme, [1.0]) < 1.0
        assert 0.0 < score(extreme, [-1.0]) < 1.0

    def test_dimension_mismatch(self):
        params = LogisticParams(0.0, np.zeros(3))
        with pytest.raises(ValueError, match="does not match"):
            score(params, [1.0, 2.0])


class TestLogLikelihood:
    def test_zero_params(self, rng):
        params, sample = random_instance(rng, n=17)
        zero = LogisticParams(0.0, np.zeros(sample.dimension))
        np.testing.assert_allclose(
            log_likelihood(zero, sample), 17 * math.log(0.5), rtol=1e-14
        )

    def test_single_record_probability(self):
        """Intercept arranged so that p = 0.9 for the lone y = 1 record."""
        params = LogisticParams(math.log(9.0), np.zeros(1))
        sample = LabeledSample(np.zeros((1, 1)), np.array([1]), ("x",))
        np.testing.assert_allclose(log_likelihood(params, sample), math.log(0.9), rtol=1e-14)

    def test_matches_naive_summation(self, rng):
        for _ in range(20):
            params, sample = random_instance(rng)
            np.testing.assert_allclose(
                log_likelihood(params, sample),
                naive_log_likelihood(params, sample),
                rtol=0,
                atol=1e-12,
            )

    def test_ridge_term(self, rng):
        params, sample = random_instance(rng)
        ridge = 0.37
        np.testing.assert_allclose(
            log_likelihood(params, sample, ridge),
            naive_log_likelihood(params, sample, ridge),
            atol=1e-12,
        )

    def test_finite_for_extreme_params(self):
        params = LogisticParams(500.0, np.array([300.0]))
        sample = LabeledSample(np.array([[1.0], [-1.0]]), np.array([0, 1]), ("x",))
        assert np.isfinite(log_likelihood(params, sample))


class TestDerivatives:
    def test_gradient_matches_central_differences(self, rng):
        step = 1e-5
        for _ in range(50):
            params, sample = random_instance(rng)
            ridge = float(rng.choice([0.0, 1e-3]))
            grad = gradient(params, sample, ridge)
            theta = np.concatenate(([params.intercept], params.coefficients))
            numeric = np.empty_like(theta)
            for j in range(theta.size):
                up, dn = theta.copy(), theta.copy()
                up[j] += step
                dn[j] -= step
                numeric[j] = (
                    log_likelihood(LogisticParams(up[0], up[1:]), sample, ridge)
                    - log_likelihood(LogisticParams(dn[0], dn[1:]), sample, ridge)
                ) / (2 * step)
            np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-7)

    def test_hessian_symmetric(self, rng):
        for _ in range(20):
            params, sample = random_instance(rng)
            h = hessian(params, sample)
            np.testing.assert_allclose(h, h.T, atol=1e-12)

    def test_hessian_negative_semidefinite(self, rng):
        for _ in range(10):
            params, sample = random_instance(rng)
            eigs = np.linalg.eigvalsh(hessian(params, sample))
            assert np.all(eigs <= 1e-10)
            eigs_ridge = np.linalg.eigvalsh(hessian(params, sample, ridge=1e-2))
            assert np.all(eigs_ridge < 0)

    def test_hessian_matches_gradient_differences(self, rng):
        step = 1e-6
        params, sample = random_instance(rng, n=12, d=3)
        h = hessian(params, sample)
        theta = np.concatenate(([params.intercept], params.coefficients))
        for j in range(theta.size):
            up, dn = theta.copy(), theta.copy()
            up[j] += step
            dn[j] -= step
            col = (
                gradient(LogisticParams(up[0], up[1:]), sample)
                - gradient(LogisticParams(dn[0], dn[1:]), sample)
            ) / (2 * step)
            np.testing.assert_allclose(h[:, j], col, rtol=1e-4, atol=1e-6)


class TestFitMle:
    def test_balanced_labels_independent_of_x(self):
        """{(0,0),(0,1),(1,0),(1,1)}: labels carry no information."""
        sample = LabeledSample(
            np.array([[0.0], [0.0], [1.0], [1.0]]), np.array([0, 1, 0, 1]), ("x",)
        )
        report = fit_mle(sample, FitConfig(ridge=0.0))
        assert report.converged
        np.testing.assert_allclose(report.params.intercept, 0.0, atol=1e-9)
        np.testing.assert_allclose(report.params.coefficients, [0.0], atol=1e-9)

    def test_intercept_only_equals_logit_of_mean(self, rng):
        labels = np.array([1] * 7 + [0] * 13)
        sample = LabeledSample(np.zeros((20, 3)), labels, ("a", "b", "c"))
        for ridge in (0.0, 1e-8):
            report = fit_mle(sample, FitConfig(ridge=ridge))
            assert report.converged
            np.testing.assert_allclose(
                report.params.intercept, math.log(0.35 / 0.65), atol=1e-8
            )
            np.testing.assert_allclose(report.params.coefficients, np.zeros(3), atol=1e-8)

    def test_matches_grid_search_oracle(self):
        """Exhaustive search over (b0, b) in [-10, 10]^2, resolution 0.01."""
        x = np.array([-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0])
        y = np.array([0, 0, 1, 0, 1, 0, 1, 1])
        sample = LabeledSample(x[:, None], y, ("x",))
        report = fit_mle(sample, FitConfig(ridge=0.0))
        assert report.converged

        axis = np.round(np.arange(-10.0, 10.0 + 1e-9, 0.01), 2)
        best = (-np.inf, None, None)
        ll = np.zeros((axis.size, axis.size))
        for xi, yi in zip(x, y):
            eta = axis[:, None] + axis[None, :] * xi
            ll += yi * eta - np.logaddexp(0.0, eta)
        i, j = np.unravel_index(np.argmax(ll), ll.shape)
        assert abs(report.params.intercept - axis[i]) <= 0.02
        assert abs(report.params.coefficients[0] - axis[j]) <= 0.02

    def test_monotone_objective_trace(self, target):
        report = fit_mle(target)
        diffs = np.diff(report.objective_trace)
        assert np.all(diffs >= -1e-9)

    def test_gradient_norm_at_optimum(self, source_fit):
        assert source_fit.gradient_norm <= 1e-8

    def test_affine_equivariance(self, rng):
        """Rescaling feature j by s divides its coefficient by s and leaves
        predicted probabilities unchanged."""
        feats = rng.normal(size=(60, 3))
        eta = 0.3 + feats @ np.array([1.0, -0.5, 0.25])
        labels = (rng.random(60) < 1 / (1 + np.exp(-eta))).astype(int)
        sample = LabeledSample(feats, labels, ("a", "b", "c"))
        s = 3.7
        scaled_feats = feats.copy()
        scaled_feats[:, 1] *= s
        scaled = LabeledSample(scaled_feats, labels, ("a", "b", "c"))
        r1 = fit_mle(sample, FitConfig(ridge=0.0))
        r2 = fit_mle(scaled, FitConfig(ridge=0.0))
        assert r1.converged and r2.converged
        np.testing.assert_allclose(
            r2.params.coefficients[1], r1.params.coefficients[1] / s, rtol=1e-6
        )
        np.testing.assert_allclose(
            score(r1.params, feats), score(r2.params, scaled_feats), atol=1e-8
        )

    def test_single_class_without_ridge_raises(self):
        sample = LabeledSample(np.array([[1.0], [2.0]]), np.array([1, 1]), ("x",))
        with pytest.raises(NumericalError, match="degenerate labels"):
            fit_mle(sample, FitConfig(ridge=0.0))

    def test_single_class_with_ridge_returns_finite(self):
        sample = LabeledSample(np.array([[1.0], [2.0]]), np.array([1, 1]), ("x",))
        report = fit_mle(sample, FitConfig(ridge=1e-8))
        assert np.isfinite(report.params.intercept)
        assert np.all(np.isfinite(report.params.coefficients))

    def test_german_source_fit(self, source_fit):
        assert source_fit.converged
        assert source_fit.iterations <= 100


class TestClassify:
    def test_boundary_goes_to_one(self):
        params = LogisticParams(0.0, np.zeros(1))  # score exactly 0.5
        assert classify(params, [0.0], threshold=0.5) == 1

    def test_below_threshold(self):
        params = LogisticParams(math.log(0.49 / 0.51), np.zeros(1))
        assert classify(params, [0.0], threshold=0.5) == 0

    @pytest.mark.parametrize("threshold", [0.0, 1.0, -0.1, 1.5])
    def test_threshold_contract(self, threshold):
        params = LogisticParams(0.0, np.zeros(1))
        with pytest.raises(ValueError, match="threshold"):
            classify(params, [0.0], threshold=threshold)


class TestSerialization:
    def test_json_roundtrip_full_precision(self, source_fit):
        params = source_fit.params
        again = LogisticParams.from_json(params.to_json())
        assert again.intercept == params.intercept
        np.testing.assert_array_equal(again.coefficients, params.coefficients)

    def test_field_order(self):
        text = LogisticParams(1.5, np.array([2.0, -3.0])).to_json()
        assert text.index("intercept") < text.index("coefficients")

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            LogisticParams(float("nan"), np.zeros(2))
        with pytest.raises(ValueError, match="finite"):
            LogisticParams(0.0, np.array([np.inf]))
