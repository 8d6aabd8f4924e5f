import numpy as np
import pytest

from scorelink import (
    AffineLink,
    FitConfig,
    GaussianClassParams,
    MixtureSpec,
    apply_link,
    fit_mle,
    gaussian_to_logistic,
    sample_mixture,
    verify_link_consistency,
)
from scorelink.gaussian import random_homoscedastic_pair


def two_class(mu1, mu2, cov, proportions=(0.5, 0.5)):
    cov = np.asarray(cov, dtype=float)
    return MixtureSpec(
        GaussianClassParams(np.asarray(mu1, float), cov),
        GaussianClassParams(np.asarray(mu2, float), cov),
        proportions,
    )


class TestTypes:
    def test_covariance_must_be_spd(self):
        with pytest.raises(ValueError, match="positive definite"):
            GaussianClassParams(np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]))
        with pytest.raises(ValueError, match="symmetric"):
            GaussianClassParams(np.zeros(2), np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_proportions_must_be_interior(self):
        with pytest.raises(ValueError, match="proportions"):
            two_class([0.0], [1.0], [[1.0]], proportions=(1.0, 0.0))

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="capped"):
            two_class(np.zeros(33), np.ones(33), np.eye(33))

    def test_scale_must_be_nonzero(self):
        with pytest.raises(ValueError, match="nonzero"):
            AffineLink(np.array([1.0, 0.0]), np.zeros(2))


class TestSampleMixture:
    def test_near_degenerate_mixture_is_single_class(self):
        spec = two_class([0.0], [5.0], [[1.0]], proportions=(1 - 1e-12, 1e-12))
        sample = sample_mixture(spec, 500, seed=3)
        assert np.all(sample.labels == 1)

    def test_law_of_large_numbers(self):
        spec = two_class([0.0], [0.0], [[1.0]])
        sample = sample_mixture(spec, 100_000, seed=11)
        assert abs(sample.features.mean()) < 0.02
        assert abs(sample.features.var() - 1.0) < 0.03

    def test_determinism(self):
        spec = two_class([1.0, -1.0], [0.0, 0.0], np.eye(2))
        a = sample_mixture(spec, 64, seed=5)
        b = sample_mixture(spec, 64, seed=5)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_class_proportion(self):
        spec = two_class([0.0], [0.0], [[1.0]], proportions=(0.3, 0.7))
        sample = sample_mixture(spec, 100_000, seed=1)
        assert abs(sample.labels.mean() - 0.3) < 0.01


class TestApplyLink:
    def test_identity_is_exact(self):
        spec = two_class([1.0, 2.0], [-1.0, 0.5], [[2.0, 0.3], [0.3, 1.0]])
        out = apply_link(spec, AffineLink(np.ones(2), np.zeros(2)))
        np.testing.assert_array_equal(out.class_one.mean, spec.class_one.mean)
        np.testing.assert_array_equal(out.class_one.covariance, spec.class_one.covariance)
        assert out.proportions == spec.proportions

    def test_covariance_scaling(self):
        spec = two_class([0.0, 0.0], [1.0, 1.0], np.eye(2))
        out = apply_link(spec, AffineLink(np.array([2.0, 3.0]), np.zeros(2)))
        np.testing.assert_allclose(out.class_one.covariance, np.diag([4.0, 9.0]))

    def test_mean_map(self):
        spec = two_class([1.0, 1.0], [0.0, 0.0], np.eye(2))
        link = AffineLink(np.array([2.0, 2.0]), np.array([0.0, 1.0]))
        out = apply_link(spec, link)
        np.testing.assert_allclose(out.class_one.mean, [2.0, 3.0])

    def test_monte_carlo_moments_match(self, rng):
        """Pushing samples through the map reproduces the analytic moments."""
        spec = two_class([1.0, -0.5], [0.2, 0.8], [[1.5, 0.4], [0.4, 0.9]])
        link = AffineLink(np.array([1.7, 0.6]), np.array([0.3, -1.0]))
        out = apply_link(spec, link)
        sample = sample_mixture(spec, 200_000, seed=8)
        pushed = sample.features * link.scale + link.offset
        for label, params in ((1, out.class_one), (0, out.class_two)):
            rows = pushed[sample.labels == label]
            np.testing.assert_allclose(rows.mean(axis=0), params.mean, atol=0.03)
            np.testing.assert_allclose(np.cov(rows.T), params.covariance, atol=0.08)


class TestGaussianToLogistic:
    def test_symmetric_means_zero_intercept(self):
        params = gaussian_to_logistic(two_class([1.0, 0.0], [-1.0, 0.0], np.eye(2)))
        np.testing.assert_allclose(params.coefficients, [2.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(params.intercept, 0.0, atol=1e-14)

    def test_hand_computed_diagonal_case(self):
        params = gaussian_to_logistic(
            two_class([1.0, 1.0], [0.0, 0.0], np.diag([2.0, 1.0]))
        )
        np.testing.assert_allclose(params.coefficients, [0.5, 1.0], rtol=1e-14)
        np.testing.assert_allclose(params.intercept, -0.75, rtol=1e-14)

    def test_heteroscedastic_rejected(self):
        spec = MixtureSpec(
            GaussianClassParams(np.zeros(2), np.eye(2)),
            GaussianClassParams(np.ones(2), 2 * np.eye(2)),
        )
        with pytest.raises(ValueError, match="homoscedastic"):
            gaussian_to_logistic(spec)

    def test_monte_carlo_oracle_equal_priors(self):
        """The MLE on a huge mixture draw recovers the closed form."""
        spec = two_class([1.0, 1.0], [0.0, 0.0], np.diag([2.0, 1.0]))
        exact = gaussian_to_logistic(spec)
        sample = sample_mixture(spec, 200_000, seed=17)
        report = fit_mle(sample, FitConfig(ridge=0.0))
        assert report.converged
        np.testing.assert_allclose(report.params.intercept, exact.intercept, atol=0.05)
        np.testing.assert_allclose(report.params.coefficients, exact.coefficients, atol=0.05)

    def test_monte_carlo_oracle_unequal_priors(self):
        """The prior-odds term in the intercept is what makes the MLE agree."""
        spec = two_class([0.8, -0.2], [0.0, 0.4], np.eye(2), proportions=(0.3, 0.7))
        exact = gaussian_to_logistic(spec)
        sample = sample_mixture(spec, 200_000, seed=29)
        report = fit_mle(sample, FitConfig(ridge=0.0))
        assert report.converged
        np.testing.assert_allclose(report.params.intercept, exact.intercept, atol=0.05)
        np.testing.assert_allclose(report.params.coefficients, exact.coefficients, atol=0.05)


class TestLinkConsistency:
    def test_identity_link(self):
        spec = two_class([1.0, 0.3], [-0.5, 0.1], [[1.2, 0.2], [0.2, 0.8]])
        report = verify_link_consistency(
            spec, AffineLink(np.ones(2), np.zeros(2))
        )
        assert report.max_residual < 1e-12
        np.testing.assert_allclose(report.c_observed, 0.0, atol=1e-12)
        np.testing.assert_allclose(report.scale_observed, np.ones(2), atol=1e-12)

    def test_pure_scaling(self):
        """scale (2, 2), no offset: coefficients halve, no shift."""
        spec = two_class([1.0, 0.0], [-1.0, 0.0], np.eye(2))
        report = verify_link_consistency(
            spec, AffineLink(np.array([2.0, 2.0]), np.zeros(2))
        )
        target = gaussian_to_logistic(
            apply_link(spec, AffineLink(np.array([2.0, 2.0]), np.zeros(2)))
        )
        np.testing.assert_allclose(target.coefficients, [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(report.c_observed, 0.0, atol=1e-12)
        assert report.max_residual < 1e-10

    def test_offset_induces_shift(self):
        """Common offset (1, 0) on the scaled link: c = -alpha' beta* = -1."""
        spec = two_class([1.0, 0.0], [-1.0, 0.0], np.eye(2))
        link = AffineLink(np.array([2.0, 2.0]), np.array([1.0, 0.0]))
        report = verify_link_consistency(spec, link)
        np.testing.assert_allclose(report.c_observed, -1.0, atol=1e-10)
        assert report.max_residual < 1e-10

    def test_hundred_random_instances(self):
        """Coefficient-link identity across random homoscedastic setups."""
        rng = np.random.default_rng(424242)
        worst = 0.0
        for k in range(100):
            dim = int(rng.integers(1, 9))
            spec, link = random_homoscedastic_pair(dim, rng)
            report = verify_link_consistency(spec, link)
            worst = max(worst, report.max_residual)
        assert worst < 1e-8

    def test_roundtrip_identity_exact(self):
        spec = two_class([0.7, -0.1], [0.2, 0.5], [[1.1, 0.1], [0.1, 0.9]])
        identity = AffineLink(np.ones(2), np.zeros(2))
        direct = gaussian_to_logistic(spec)
        via_link = gaussian_to_logistic(apply_link(spec, identity))
        assert via_link.intercept == direct.intercept
        np.testing.assert_array_equal(via_link.coefficients, direct.coefficients)
