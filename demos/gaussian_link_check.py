"""Walkthrough: why an affine link between two Gaussian subpopulations
forces a shift-and-scale link between their logistic score functions.

Run:  python demos/gaussian_link_check.py
"""

import numpy as np

from scorelink import (
    AffineLink,
    GaussianClassParams,
    MixtureSpec,
    apply_link,
    fit_mle,
    gaussian_to_logistic,
    sample_mixture,
    verify_link_consistency,
)

# a homoscedastic two-class source population in three dimensions
cov = np.array([[1.0, 0.3, 0.0], [0.3, 1.5, 0.2], [0.0, 0.2, 0.8]])
spec = MixtureSpec(
    GaussianClassParams(np.array([1.0, 0.5, -0.2]), cov),
    GaussianClassParams(np.array([-0.5, 0.0, 0.4]), cov),
)
theta = gaussian_to_logistic(spec)
print("source closed form: intercept %.4f, coefficients %s"
      % (theta.intercept, np.round(theta.coefficients, 4)))

# the MLE on a large simulated sample agrees with the closed form
sample = sample_mixture(spec, 200_000, seed=1)
fitted = fit_mle(sample).params
print("source MLE (n=200000): intercept %.4f, coefficients %s"
      % (fitted.intercept, np.round(fitted.coefficients, 4)))

# push the population through a common affine map x* = scale * x + offset
link = AffineLink(np.array([2.0, 0.5, 1.25]), np.array([0.4, -0.3, 0.0]))
theta_star = gaussian_to_logistic(apply_link(spec, link))
print("\ntarget closed form: intercept %.4f, coefficients %s"
      % (theta_star.intercept, np.round(theta_star.coefficients, 4)))
print("coefficients / scale", np.round(theta.coefficients / link.scale, 4),
      "(matches the target coefficients)")

report = verify_link_consistency(spec, link)
print("\nconsistency report:")
print("  observed shift c      %.6f" % report.c_observed)
print("  observed scales       %s" % np.round(report.scale_observed, 6))
print("  max residual          %.2e" % report.max_residual)
assert report.max_residual < 1e-8
print("  -> the score functions differ exactly by a shift and a diagonal scaling")
