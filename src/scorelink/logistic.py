"""Maximum-likelihood binary logistic regression.

The fitter is a full Newton method with step-halving line search on the
(optionally ridge-penalized) log-likelihood. A single engine,
:func:`maximize_logistic`, handles both the plain MLE and the constrained
transfer estimators in :mod:`scorelink.links`: it maximizes

    sum_i [ y_i eta_i - log(1 + exp(eta_i)) ]
        - 1/2 * sum_j penalty_j * (v_j - center_j)^2,

where ``eta = offset + design @ v``. All probability evaluations use a
numerically stable sigmoid (no overflow for any finite linear predictor)
and the likelihood uses ``logaddexp``, so both stay finite everywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import LabeledSample
from .exceptions import NumericalError

# score() never returns exactly 0 or 1 for a finite linear predictor
_P_LO = 1e-300
_P_HI = 1.0 - 1e-16

_MIN_STEP = 2.0**-60
_ARMIJO = 1e-4
# absolute noise allowance: near the optimum the true per-step gain drops
# below the objective's floating-point resolution, and a strict Armijo test
# would reject the (reliable) full Newton step forever
_NOISE_EPS = 1e-13


def sigmoid(eta):
    """Numerically stable logistic function, clipped into (0, 1)."""
    eta = np.asarray(eta, dtype=float)
    flat = np.atleast_1d(eta)
    out = np.empty_like(flat)
    pos = flat >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-flat[pos]))
    ez = np.exp(flat[~pos])
    out[~pos] = ez / (1.0 + ez)
    out = np.clip(out, _P_LO, _P_HI)
    return out.reshape(eta.shape)


@dataclass(frozen=True)
class LogisticParams:
    """Intercept and coefficient vector of a fitted score function."""

    intercept: float
    coefficients: np.ndarray

    def __post_init__(self):
        coefs = np.asarray(self.coefficients, dtype=float)
        if coefs.ndim != 1:
            raise ValueError("coefficients must be a 1-d vector")
        if not (np.isfinite(self.intercept) and np.all(np.isfinite(coefs))):
            raise ValueError("parameters must be finite")
        coefs.setflags(write=False)
        object.__setattr__(self, "intercept", float(self.intercept))
        object.__setattr__(self, "coefficients", coefs)

    @property
    def dimension(self) -> int:
        return self.coefficients.shape[0]

    def linear_predictor(self, x) -> np.ndarray | float:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dimension:
            raise ValueError(
                f"feature vector of length {x.shape[-1]} does not match "
                f"{self.dimension} coefficients"
            )
        return self.intercept + x @ self.coefficients

    def to_dict(self) -> dict:
        return {"intercept": self.intercept, "coefficients": self.coefficients.tolist()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "LogisticParams":
        return cls(float(data["intercept"]), np.asarray(data["coefficients"], dtype=float))

    @classmethod
    def from_json(cls, text: str) -> "LogisticParams":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str | Path) -> "LogisticParams":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


@dataclass(frozen=True)
class FitConfig:
    """Newton fitter settings.

    ``ridge`` is an l2 stabilizer on the coefficients (never the
    intercept); the tiny default guards against quasi-separation on small
    learning samples without visibly moving well-posed fits.
    """

    max_iterations: int = 100
    gradient_tolerance: float = 1e-8
    ridge: float = 1e-8

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if not self.gradient_tolerance > 0:
            raise ValueError("gradient_tolerance must be > 0")
        if self.ridge < 0:
            raise ValueError("ridge must be non-negative")


@dataclass(frozen=True)
class FitReport:
    """Outcome of a fit: parameters plus convergence diagnostics.

    ``log_likelihood`` is the unpenalized log-likelihood at the optimum;
    ``objective_trace`` records the penalized objective after each
    accepted Newton step (non-decreasing by construction).
    """

    params: LogisticParams
    log_likelihood: float
    iterations: int
    converged: bool
    gradient_norm: float
    objective_trace: tuple[float, ...] = ()


@dataclass(frozen=True)
class NewtonResult:
    x: np.ndarray
    converged: bool
    iterations: int
    gradient_norm: float
    objective: float
    objective_trace: tuple[float, ...]


# The Bernoulli kernel in the linear predictor eta = offset + design @ v.
# Every likelihood, gradient and Hessian in the package is built from these.
def _log_likelihood(labels: np.ndarray, eta: np.ndarray) -> float:
    return float(np.sum(labels * eta - np.logaddexp(0.0, eta)))


def _gradient(design: np.ndarray, labels: np.ndarray, eta: np.ndarray):
    """Gradient of the log-likelihood in v, and the fitted probabilities."""
    prob = sigmoid(eta)
    return design.T @ (labels - prob), prob


def _information(design: np.ndarray, prob: np.ndarray) -> np.ndarray:
    """Negated Hessian of the log-likelihood in v."""
    return (design * (prob * (1.0 - prob))[:, None]).T @ design


def _intercept_design(sample: LabeledSample, ridge: float) -> tuple[np.ndarray, np.ndarray]:
    """The [1, X] design of (intercept, coefficients) and its ridge vector.

    The intercept is never penalized.
    """
    design = np.column_stack([np.ones(sample.n_records), sample.features])
    penalty = np.concatenate(([0.0], np.full(sample.dimension, ridge)))
    return design, penalty


def maximize_logistic(
    design: np.ndarray,
    labels: np.ndarray,
    offset: np.ndarray | float = 0.0,
    penalty: np.ndarray | None = None,
    center: np.ndarray | None = None,
    start: np.ndarray | None = None,
    max_iterations: int = 100,
    gradient_tolerance: float = 1e-8,
) -> NewtonResult:
    """Newton maximization of the penalized logistic log-likelihood.

    Solves the (design, offset)-parameterized problem described in the
    module docstring. Falls back to a least-squares step, then to plain
    gradient ascent, if the Hessian solve fails.
    """
    design = np.asarray(design, dtype=float)
    y = np.asarray(labels, dtype=float)
    n, p = design.shape
    offset = np.broadcast_to(np.asarray(offset, dtype=float), (n,))
    penalty = np.zeros(p) if penalty is None else np.asarray(penalty, dtype=float)
    center = np.zeros(p) if center is None else np.asarray(center, dtype=float)
    v = np.zeros(p) if start is None else np.asarray(start, dtype=float).copy()

    def objective(vec):
        eta = offset + design @ vec
        return _log_likelihood(y, eta) - 0.5 * float(penalty @ (vec - center) ** 2)

    obj = objective(v)
    trace = [obj]
    converged = False
    gradient_norm = np.inf
    iterations = 0

    for iteration in range(max_iterations + 1):
        grad, prob = _gradient(design, y, offset + design @ v)
        grad -= penalty * (v - center)
        gradient_norm = float(np.linalg.norm(grad))
        if gradient_norm <= gradient_tolerance:
            converged = True
            break
        if iteration == max_iterations:
            break

        step = _solve_step(_information(design, prob) + np.diag(penalty), grad)
        slope = float(grad @ step)
        if slope <= 0.0:  # numerically not an ascent direction
            step = grad
            slope = float(grad @ grad)

        noise = _NOISE_EPS * (1.0 + abs(obj))
        t = 1.0
        accepted = False
        while t >= _MIN_STEP:
            candidate = v + t * step
            cand_obj = objective(candidate)
            if cand_obj >= obj + _ARMIJO * t * slope - noise:
                accepted = True
                break
            t /= 2.0
        if not accepted:  # numerical floor reached; no further progress possible
            break
        v = candidate
        obj = cand_obj
        trace.append(obj)
        iterations += 1

    return NewtonResult(v, converged, iterations, gradient_norm, obj, tuple(trace))


def _solve_step(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    try:
        factor = np.linalg.cholesky(hess)
        half = np.linalg.solve(factor, grad)
        return np.linalg.solve(factor.T, half)
    except np.linalg.LinAlgError:
        pass
    try:
        return np.linalg.lstsq(hess, grad, rcond=None)[0]
    except np.linalg.LinAlgError:
        return grad


def _check_dimensions(params: LogisticParams, sample: LabeledSample) -> None:
    if sample.dimension != params.dimension:
        raise ValueError(
            f"sample dimension {sample.dimension} does not match "
            f"{params.dimension} coefficients"
        )


def score(params: LogisticParams, x) -> np.ndarray | float:
    """Posterior probability of label 1 given features.

    Accepts a single feature vector (returns a float) or a matrix of rows
    (returns a vector). Stable for linear predictors of any magnitude and
    never returns exactly 0 or 1 for finite inputs.
    """
    eta = params.linear_predictor(x)
    out = sigmoid(eta)
    return float(out) if np.ndim(eta) == 0 else out


def log_likelihood(params: LogisticParams, sample: LabeledSample, ridge: float = 0.0) -> float:
    """Bernoulli log-likelihood of the sample, minus ridge * ||beta||^2 / 2."""
    _check_dimensions(params, sample)
    ll = _log_likelihood(sample.labels, params.linear_predictor(sample.features))
    return ll - 0.5 * ridge * float(params.coefficients @ params.coefficients)


def gradient(params: LogisticParams, sample: LabeledSample, ridge: float = 0.0) -> np.ndarray:
    """Gradient of :func:`log_likelihood` w.r.t. (intercept, coefficients)."""
    _check_dimensions(params, sample)
    design, penalty = _intercept_design(sample, ridge)
    grad, _ = _gradient(design, sample.labels, params.linear_predictor(sample.features))
    return grad - penalty * np.concatenate(([params.intercept], params.coefficients))


def hessian(params: LogisticParams, sample: LabeledSample, ridge: float = 0.0) -> np.ndarray:
    """Hessian of :func:`log_likelihood`: symmetric, negative semi-definite."""
    _check_dimensions(params, sample)
    design, penalty = _intercept_design(sample, ridge)
    prob = sigmoid(params.linear_predictor(sample.features))
    return -(_information(design, prob) + np.diag(penalty))


def _require_two_classes(sample: LabeledSample, ridge: float) -> None:
    """Raise NumericalError when an unpenalized fit on ``sample`` has no finite MLE."""
    zeros, ones = sample.class_counts()
    if (zeros == 0 or ones == 0) and ridge == 0.0:
        raise NumericalError("degenerate labels: sample contains a single class and ridge = 0")


def fit_mle(sample: LabeledSample, config: FitConfig = FitConfig()) -> FitReport:
    """Fit the logistic model by penalized maximum likelihood.

    A sample containing a single label value has no finite MLE; with
    ridge = 0 this raises NumericalError, while ridge > 0 returns the
    (finite, generally non-converged) stabilized fit.
    """
    if sample.dimension < 1:
        raise ValueError("sample must have at least one feature")
    _require_two_classes(sample, config.ridge)
    design, penalty = _intercept_design(sample, config.ridge)
    result = maximize_logistic(
        design,
        sample.labels,
        penalty=penalty,
        max_iterations=config.max_iterations,
        gradient_tolerance=config.gradient_tolerance,
    )
    params = LogisticParams(result.x[0], result.x[1:])
    return FitReport(
        params=params,
        log_likelihood=log_likelihood(params, sample),
        iterations=result.iterations,
        converged=result.converged,
        gradient_norm=result.gradient_norm,
        objective_trace=result.objective_trace,
    )


def classify(params: LogisticParams, x, threshold: float = 0.5):
    """Predict label 1 when the score is >= threshold (0 < threshold < 1)."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie strictly in (0, 1), got {threshold}")
    s = score(params, x)
    if np.ndim(s) == 0:
        return int(s >= threshold)
    return (s >= threshold).astype(int)
