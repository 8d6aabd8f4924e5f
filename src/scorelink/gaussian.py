"""Two-class Gaussian subpopulations, affine variable links, closed forms.

When the class-conditional feature distributions of two subpopulations are
multivariate normal with a shared covariance (homoscedastic), the exact
posterior of class 1 is logistic with

    beta  = Sigma^{-1} (mu_1 - mu_2),
    beta0 = (mu_2' Sigma^{-1} mu_2 - mu_1' Sigma^{-1} mu_1) / 2
            + log(pi_1 / pi_2).

If the target subpopulation's features arise from the source's through a
common affine map  x* = L x + alpha  (diagonal L, same map in both
classes), the two logistic parameter sets are linked by

    beta*_j = beta_j / L_j,         beta0* - beta0 = -alpha' beta*.

:func:`verify_link_consistency` checks this chain against the closed forms
and reports the observed shift, per-component scales, and the worst
residual. Simulation helpers provide Monte-Carlo oracles for the same
identities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import LabeledSample
from .logistic import LogisticParams

_SYMMETRY_TOL = 1e-12
_HOMOSCEDASTIC_TOL = 1e-10
_MAX_DIMENSION = 32


@dataclass(frozen=True)
class GaussianClassParams:
    """Mean vector and SPD covariance of one class-conditional Gaussian."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        if mean.ndim != 1:
            raise ValueError("mean must be a 1-d vector")
        d = mean.shape[0]
        if cov.shape != (d, d):
            raise ValueError(f"covariance must be {d}x{d}")
        if np.max(np.abs(cov - cov.T)) > _SYMMETRY_TOL:
            raise ValueError("covariance must be symmetric")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ValueError("covariance must be positive definite") from None
        mean, cov = mean.view(), cov.view()  # the caller's arrays stay writable
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @property
    def dimension(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class MixtureSpec:
    """Two labeled Gaussian classes with mixing proportions (pi_1, pi_2).

    Class 1 carries label 1 (creditworthy), class 2 label 0.
    """

    class_one: GaussianClassParams
    class_two: GaussianClassParams
    proportions: tuple[float, float] = (0.5, 0.5)

    def __post_init__(self):
        if self.class_one.dimension != self.class_two.dimension:
            raise ValueError("class dimensions differ")
        if self.class_one.dimension > _MAX_DIMENSION:
            raise ValueError(f"dimension capped at {_MAX_DIMENSION}")
        p1, p2 = self.proportions
        if not (p1 > 0 and p2 > 0 and abs(p1 + p2 - 1.0) < 1e-12):
            raise ValueError("proportions must be positive and sum to 1")
        object.__setattr__(self, "proportions", (float(p1), float(p2)))

    @property
    def dimension(self) -> int:
        return self.class_one.dimension


@dataclass(frozen=True)
class AffineLink:
    """Diagonal scaling plus one offset for both classes: x* = scale * x + offset."""

    scale: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        scale = np.asarray(self.scale, dtype=float)
        offset = np.asarray(self.offset, dtype=float)
        if scale.ndim != 1:
            raise ValueError("scale must be a 1-d vector")
        if offset.shape != scale.shape:
            raise ValueError(f"offset must have shape ({scale.shape[0]},)")
        if np.any(scale == 0):
            raise ValueError("scale entries must be nonzero")
        scale, offset = scale.view(), offset.view()  # the caller's arrays stay writable
        scale.setflags(write=False)
        offset.setflags(write=False)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "offset", offset)


@dataclass(frozen=True)
class LinkConsistencyReport:
    """Observed coefficient link with the worst absolute residual."""

    c_observed: float
    scale_observed: np.ndarray
    max_residual: float

    def to_dict(self) -> dict:
        return {
            "c_observed": self.c_observed,
            "scale_observed": self.scale_observed.tolist(),
            "max_residual": self.max_residual,
        }


def sample_mixture(spec: MixtureSpec, n: int, seed: int) -> LabeledSample:
    """Draw n i.i.d. labeled points from the mixture, deterministically."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < spec.proportions[0]).astype(int)
    normals = rng.standard_normal((n, spec.dimension))
    feats = np.empty((n, spec.dimension))
    for label, params in ((1, spec.class_one), (0, spec.class_two)):
        mask = labels == label
        chol = np.linalg.cholesky(params.covariance)
        feats[mask] = params.mean + normals[mask] @ chol.T
    names = tuple(f"x{j + 1}" for j in range(spec.dimension))
    return LabeledSample(feats, labels, names)


def apply_link(spec: MixtureSpec, link: AffineLink) -> MixtureSpec:
    """Push the mixture through the affine link:
    mu*_k = scale * mu_k + offset, Sigma*_k = scale Sigma_k scale.

    Mixing proportions carry over unchanged.
    """
    if link.scale.shape[0] != spec.dimension:
        raise ValueError(
            f"link dimension {link.scale.shape[0]} does not match mixture "
            f"dimension {spec.dimension}"
        )
    s = link.scale
    outer = np.outer(s, s)
    one, two = (
        GaussianClassParams(s * params.mean + link.offset, outer * params.covariance)
        for params in (spec.class_one, spec.class_two)
    )
    return MixtureSpec(one, two, spec.proportions)


def gaussian_to_logistic(spec: MixtureSpec) -> LogisticParams:
    """Exact logistic posterior parameters of a homoscedastic two-class mixture."""
    s1, s2 = spec.class_one.covariance, spec.class_two.covariance
    if np.max(np.abs(s1 - s2)) > _HOMOSCEDASTIC_TOL:
        raise ValueError("classes must share a covariance (homoscedastic)")
    mu1, mu2 = spec.class_one.mean, spec.class_two.mean
    chol = np.linalg.cholesky(s1)

    def solve(rhs):
        return np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))

    beta = solve(mu1 - mu2)
    quad2 = float(mu2 @ solve(mu2))
    quad1 = float(mu1 @ solve(mu1))
    p1, p2 = spec.proportions
    beta0 = 0.5 * (quad2 - quad1) + np.log(p1 / p2)
    return LogisticParams(beta0, beta)


def verify_link_consistency(spec: MixtureSpec, link: AffineLink) -> LinkConsistencyReport:
    """Check that the affine variable link induces the predicted
    coefficient link: beta*_j = beta_j / scale_j and
    beta0* - beta0 = -offset' beta*.

    Requires a homoscedastic source.
    """
    source = gaussian_to_logistic(spec)
    target = gaussian_to_logistic(apply_link(spec, link))

    expected_coefs = source.coefficients / link.scale
    expected_shift = -float(link.offset @ target.coefficients)
    c_observed = target.intercept - source.intercept

    residual = max(
        float(np.max(np.abs(target.coefficients - expected_coefs))),
        abs(c_observed - expected_shift),
    )
    nonzero = np.abs(target.coefficients) > 0
    scale_observed = np.ones(spec.dimension)
    scale_observed[nonzero] = source.coefficients[nonzero] / target.coefficients[nonzero]
    return LinkConsistencyReport(c_observed, scale_observed, residual)


def random_homoscedastic_pair(
    dimension: int, rng: np.random.Generator
) -> tuple[MixtureSpec, AffineLink]:
    """A random well-conditioned homoscedastic mixture and an affine link."""
    a = rng.standard_normal((dimension, dimension))
    cov = a @ a.T / dimension + np.eye(dimension)
    mu1 = rng.standard_normal(dimension)
    mu2 = rng.standard_normal(dimension)
    p1 = float(rng.uniform(0.2, 0.8))
    spec = MixtureSpec(
        GaussianClassParams(mu1, cov), GaussianClassParams(mu2, cov), (p1, 1.0 - p1)
    )
    link = AffineLink(rng.uniform(0.5, 2.0, dimension), rng.standard_normal(dimension))
    return spec, link
