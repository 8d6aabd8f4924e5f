"""Maximum-likelihood binary logistic regression.

The fitter is a full Newton method with step-halving line search on the
(optionally ridge-penalized) log-likelihood. A single engine,
:func:`maximize_logistic_batch`, fits a stack of independent problems,
each of which maximizes

    sum_i [ y_i eta_i - log(1 + exp(eta_i)) ]
        - 1/2 * sum_j penalty_j * (v_j - center_j)^2,

where ``eta = offset + design @ v``, and returns their results as one
:class:`NewtonBatch` of arrays, a row per member. The constrained
transfer estimators in :mod:`scorelink.links` call it on whole blocks;
:func:`fit_mle` fits one problem through :func:`maximize_logistic`, the
batch of one. All probability evaluations use a numerically stable
sigmoid (no overflow for any finite linear predictor) and the
likelihood uses ``logaddexp``, so both stay finite everywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

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
    e = np.exp(-np.abs(eta))  # never overflows
    return np.clip(np.where(eta >= 0, 1.0 / (1.0 + e), e / (1.0 + e)), _P_LO, _P_HI)


@dataclass(frozen=True)
class LogisticParams:
    """Intercept and coefficient vector of a fitted score function."""

    intercept: float
    coefficients: np.ndarray

    def __post_init__(self):
        coefs = np.asarray(self.coefficients, dtype=float)
        if coefs.ndim != 1:
            raise ValueError("coefficients must be a 1-d vector")
        if not (np.isfinite(self.intercept) and np.isfinite(coefs).all()):
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
        return json.dumps(self.to_dict(), allow_nan=False)

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


class NewtonBatch(NamedTuple):
    """The results of a stack of B Newton problems, a row per member.

    ``trace`` (B, T) holds each member's penalized objective at the start
    and after each accepted step: member b's first ``iterations[b] + 1``
    entries, then NaN. It has the starting column and one per iteration
    that ran a line search, so T is at most ``max_iterations + 1``.
    """

    x: np.ndarray  # (B, p)
    converged: np.ndarray  # (B,) bool
    iterations: np.ndarray  # (B,) int
    gradient_norm: np.ndarray  # (B,)
    objective: np.ndarray  # (B,)
    trace: np.ndarray  # (B, T)


# The Bernoulli kernel in the linear predictor eta = offset + design @ v.
# Every likelihood, gradient and Hessian in the package is built from these.
# Each takes one problem (design (n, p), vectors (n,)) or a stack of them
# (design (B, n, p), vectors (B, n)). A member of a stack goes through the
# same BLAS call, on the same shape and memory layout, as the problem alone,
# so its result is bitwise the same.
def _log_likelihood(labels: np.ndarray, eta: np.ndarray) -> np.ndarray:
    return (labels * eta - np.logaddexp(0.0, eta)).sum(axis=-1)


def _gradient(design: np.ndarray, labels: np.ndarray, eta: np.ndarray):
    """Gradient of the log-likelihood in v, and the fitted probabilities."""
    prob = sigmoid(eta)
    return _matvec(np.swapaxes(design, -1, -2), labels - prob), prob


def _information(design: np.ndarray, prob: np.ndarray) -> np.ndarray:
    """Negated Hessian of the log-likelihood in v."""
    return np.swapaxes(design * (prob * (1.0 - prob))[..., None], -1, -2) @ design


def _matvec(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    return np.matmul(matrix, vector[..., None])[..., 0]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner product over the last axis, one BLAS dot per member."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


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
) -> NewtonBatch:
    """Newton maximization of the penalized logistic log-likelihood.

    Solves the (design, offset)-parameterized problem described in the
    module docstring for one design of shape (n, p). It is the batch of
    one of :func:`maximize_logistic_batch`, which states the contract,
    and returns that member's fields: ``x`` (p,), the flags and norms as
    Python scalars, and the trace as a tuple of ``iterations + 1`` values.
    """
    design = np.asarray(design, dtype=float)
    n, _ = design.shape
    batch = maximize_logistic_batch(
        design[None],
        np.asarray(labels, dtype=float)[None],
        np.broadcast_to(np.asarray(offset, dtype=float), (1, n)),
        penalty,
        center,
        start,
        max_iterations,
        gradient_tolerance,
    )
    iterations = int(batch.iterations[0])
    return NewtonBatch(
        batch.x[0],
        bool(batch.converged[0]),
        iterations,
        float(batch.gradient_norm[0]),
        float(batch.objective[0]),
        tuple(batch.trace[0, : iterations + 1].tolist()),
    )


def maximize_logistic_batch(
    design: np.ndarray,
    labels: np.ndarray,
    offset: np.ndarray,
    penalty: np.ndarray | None = None,
    center: np.ndarray | None = None,
    start: np.ndarray | None = None,
    max_iterations: int = 100,
    gradient_tolerance: float = 1e-8,
) -> NewtonBatch:
    """Newton maximization of a stack of independent penalized problems.

    ``design`` has shape (B, n, p), ``labels`` and ``offset`` shape
    (B, n); ``penalty``, ``center`` and ``start`` (p,) are shared. Each
    member is its own optimization. It stops once its gradient norm is
    within ``gradient_tolerance``, when its line search reaches the step
    floor, or after ``max_iterations`` steps. A step solves the Newton
    system by Cholesky, falling back to least squares and then to the
    gradient if that fails, and takes the gradient when the result is not
    an ascent direction; step-halving then enforces the Armijo condition.
    The result holds member b's fields in row b, each bitwise those of the
    batch holding member b alone. The linear predictor computed for the
    objective at the accepted point is carried into the next iteration's
    gradient, so each Newton point costs one product with the design.

    Finished members are compacted out of ``design``, ``labels`` and
    ``offset`` in place, so with B > 1 these must be writable arrays
    that the caller hands over.
    """
    batch, _, p = design.shape
    penalty = np.zeros(p) if penalty is None else np.asarray(penalty, dtype=float)
    center = np.zeros(p) if center is None else np.asarray(center, dtype=float)
    start = np.zeros(p) if start is None else np.asarray(start, dtype=float)
    penalty_hessian = np.diag(penalty)
    running = (design, labels, offset)  # the rows of the members still running

    def objective(vec):
        """The objective at ``vec`` and its linear predictor."""
        x, y, off = running
        eta = off + _matvec(x, vec)
        return _log_likelihood(y, eta) - 0.5 * _dot(penalty, (vec - center) ** 2), eta

    members = np.arange(batch)  # the member whose problem each row holds
    v = np.repeat(start[None], batch, axis=0)
    obj, eta = objective(v)
    trace = [obj]  # then a (B,) column per line search, NaN where no step was taken
    out = NewtonBatch(
        np.empty((batch, p)),
        np.empty(batch, dtype=bool),
        np.empty(batch, dtype=int),
        np.empty(batch),
        np.empty(batch),
        None,
    )

    def finish(rows, converged, gradient_norm, iteration) -> bool:
        """Record the results of ``rows``; True when no member is left."""
        done = members[rows]
        out.x[done] = v[rows]
        out.converged[done] = converged[rows]
        out.iterations[done] = iteration
        out.gradient_norm[done] = gradient_norm[rows]
        out.objective[done] = obj[rows]
        return rows.all()

    def drop(rows):
        """Compact the members not in ``rows`` into the leading rows."""
        nonlocal running, members, v, obj, eta
        keep = np.flatnonzero(~rows)
        _compact(keep, design, labels, offset)
        running = (design[: len(keep)], labels[: len(keep)], offset[: len(keep)])
        members, v, obj, eta = members[keep], v[keep], obj[keep], eta[keep]
        return keep

    for iteration in range(max_iterations + 1):
        x, y, _ = running
        grad, prob = _gradient(x, y, eta)
        grad -= penalty * (v - center)
        squared_norm = _dot(grad, grad)
        gradient_norm = np.sqrt(squared_norm)
        converged = gradient_norm <= gradient_tolerance
        if iteration == max_iterations:
            finish(np.ones(len(v), dtype=bool), converged, gradient_norm, iteration)
            break
        if converged.any():
            if finish(converged, converged, gradient_norm, iteration):
                break
            keep = drop(converged)
            grad, prob = grad[keep], prob[keep]
            squared_norm, gradient_norm = squared_norm[keep], gradient_norm[keep]
            x, y, _ = running

        step = _newton_steps(_information(x, prob) + penalty_hessian, grad)
        slope = _dot(grad, step)
        uphill = slope <= 0.0  # numerically not an ascent direction
        if uphill.any():
            step[uphill] = grad[uphill]
            slope[uphill] = squared_norm[uphill]

        # Armijo step-halving, t = 1, 1/2, ... down to _MIN_STEP per member
        noise = _NOISE_EPS * (1.0 + np.abs(obj))
        candidate = v + step
        cand_obj, cand_eta = objective(candidate)
        accepted = cand_obj >= obj + _ARMIJO * slope - noise
        if accepted.all():
            v, obj, eta = candidate, cand_obj, cand_eta
        else:
            t = np.ones(len(v))
            searching = ~accepted
            while True:
                t[searching] /= 2.0
                searching &= t >= _MIN_STEP
                if not searching.any():
                    break
                # every row is evaluated: selecting the searching rows would
                # copy their designs, and an accepted row's value is not used
                trial = v + t[:, None] * step
                trial_obj, trial_eta = objective(trial)
                accept = searching & (trial_obj >= obj + _ARMIJO * t * slope - noise)
                candidate[accept] = trial[accept]
                cand_obj[accept] = trial_obj[accept]
                cand_eta[accept] = trial_eta[accept]
                accepted |= accept
                searching &= ~accept
            v = np.where(accepted[:, None], candidate, v)
            obj = np.where(accepted, cand_obj, obj)
            eta = np.where(accepted[:, None], cand_eta, eta)
        column = np.full(batch, np.nan)
        column[members[accepted]] = obj[accepted]
        trace.append(column)

        if not accepted.all():  # numerical floor reached; no further progress possible
            stuck = ~accepted
            if finish(stuck, np.zeros(len(v), dtype=bool), gradient_norm, iteration):
                break
            drop(stuck)

    return out._replace(trace=np.column_stack(trace))


def _compact(keep: np.ndarray, *stacks: np.ndarray) -> None:
    """Move rows ``keep`` (ascending) of each stack to its front, in place."""
    for row, member in enumerate(keep):
        if row != member:
            for stack in stacks:
                stack[row] = stack[member]


def _newton_steps(information: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve information @ step = grad for each member of a stack.

    A member whose Cholesky factorization, or a solve with its factor,
    fails takes a least-squares step, or the gradient if that fails too.
    A batched call fails for the whole stack, so the stack is halved until
    each failing member is alone.
    """
    try:
        factor = np.linalg.cholesky(information)
        half = np.linalg.solve(factor, grad[..., None])
        return np.linalg.solve(np.swapaxes(factor, -1, -2), half)[..., 0]
    except np.linalg.LinAlgError:
        pass
    if len(grad) > 1:
        mid = len(grad) // 2
        return np.concatenate(
            [_newton_steps(information[:mid], grad[:mid]), _newton_steps(information[mid:], grad[mid:])]
        )
    try:
        return np.linalg.lstsq(information[0], grad[0], rcond=None)[0][None]
    except np.linalg.LinAlgError:
        return grad.copy()


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
    ll = float(_log_likelihood(sample.labels, params.linear_predictor(sample.features)))
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


_SINGLE_CLASS = "degenerate labels: sample contains a single class and ridge = 0"


def _class_errors(ones, rows: int, ridge: float) -> list:
    """The NumericalError of each sample of ``rows`` rows, ``ones`` (an
    array) of them labelled 1, that has a single class at ridge 0, where an
    unpenalized fit has no finite MLE; None for the others."""
    single = ((ones == 0) | (ones == rows)) & (ridge == 0.0)
    return [NumericalError(_SINGLE_CLASS) if flag else None for flag in single.tolist()]


def fit_mle(sample: LabeledSample, config: FitConfig = FitConfig()) -> FitReport:
    """Fit the logistic model by penalized maximum likelihood.

    A sample containing a single label value has no finite MLE; with
    ridge = 0 this raises NumericalError, while ridge > 0 returns the
    (finite, generally non-converged) stabilized fit.
    """
    if sample.dimension < 1:
        raise ValueError("sample must have at least one feature")
    (error,) = _class_errors(sample.labels.sum(keepdims=True), sample.n_records, config.ridge)
    if error is not None:
        raise error
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
        objective_trace=result.trace,
    )

