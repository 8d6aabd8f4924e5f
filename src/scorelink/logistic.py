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
batch of one, on the sample's own features with an implicit intercept
column. All probability evaluations use a numerically stable
sigmoid (no overflow for any finite linear predictor), and the likelihood
the softplus max(eta, 0) + log1p(exp(-|eta|)), so both stay finite
everywhere; the two share the one exp(-|eta|) per point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dataset import _BLOCK_CELLS, LabeledSample
from .exceptions import NumericalError

# score() never returns exactly 0 or 1 for a finite linear predictor
_P_LO = 1e-300
_P_HI = 1.0 - 1e-16

# the line search's step sizes t = 1, 1/2, ... down to its floor 2**-60
_STEP_SIZES = tuple(2.0**-j for j in range(61))
_ARMIJO = 1e-4
# absolute noise allowance: near the optimum the true per-step gain drops
# below the objective's floating-point resolution, and a strict Armijo test
# would reject the (reliable) full Newton step forever
_NOISE_EPS = 1e-13


def sigmoid(eta):
    """Numerically stable logistic function, clipped into (0, 1)."""
    eta = np.asarray(eta, dtype=float)
    rows = np.atleast_1d(eta)
    return _probability(rows, _exp_neg_abs(rows)).reshape(eta.shape)


def _exp_neg_abs(eta: np.ndarray) -> np.ndarray:
    """exp(-|eta|), which never overflows, computed in its one new array."""
    e = np.abs(eta, out=np.empty(eta.shape))
    np.negative(e, out=e)
    return np.exp(e, out=e)


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
        coefs = coefs.view()  # the caller's array stays writable
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

    @classmethod
    def load(cls, path: str | Path) -> "LogisticParams":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls(float(data["intercept"]), np.asarray(data["coefficients"], dtype=float))


def _integer(name: str, value) -> int:
    """``value`` as an int; a bool, a float or any other non-integer is an error."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


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
        if _integer("max_iterations", self.max_iterations) < 1:
            raise ValueError("max_iterations must be positive")
        if not 0 < self.gradient_tolerance < np.inf:  # also rejects NaN
            raise ValueError("gradient_tolerance must be finite and > 0")
        if not 0 <= self.ridge < np.inf:
            raise ValueError("ridge must be finite and non-negative")


@dataclass(frozen=True)
class FitReport:
    """Outcome of a fit: parameters plus convergence diagnostics.

    ``log_likelihood`` is the unpenalized log-likelihood at the optimum.
    """

    params: LogisticParams
    log_likelihood: float
    iterations: int
    converged: bool
    gradient_norm: float


class NewtonBatch(NamedTuple):
    """The results of a stack of B Newton problems, a row per member."""

    x: np.ndarray  # (B, p)
    converged: np.ndarray  # (B,) bool
    iterations: np.ndarray  # (B,) int
    gradient_norm: np.ndarray  # (B,)


# The Bernoulli kernel in the linear predictor eta = offset + design @ v.
# Every likelihood, gradient and Hessian in the package is built from these.
# Each takes one problem (design (n, q), vectors (n,)) or a stack of them
# (design (B, n, q), vectors (B, n)), with two options. ``intercept`` puts
# an implicit leading column of ones in the design, so that v has p = q + 1
# entries and an [1, X] problem passes X itself. ``shared`` (1, m, q) holds
# rows that every member of a stack has, given once, ahead of its own rows:
# the vectors then cover a member's m + n rows, the shared ones first. A
# member of a stack goes through the same BLAS calls, on the same shapes and
# memory layouts, as the problem alone (a shared part by broadcasting, the
# same matrix in each member's call), so its result is bitwise the same.
# The likelihood and the probabilities are built from e = exp(-|eta|),
# which the Newton engine computes once per point and carries next to eta.
def _softplus(eta: np.ndarray, e: np.ndarray) -> np.ndarray:
    """log(1 + exp(eta)) from ``e = exp(-|eta|)``, finite for finite eta."""
    softplus = np.maximum(eta, 0.0)
    softplus += np.log1p(e)
    return softplus


def _probability(eta: np.ndarray, e: np.ndarray) -> np.ndarray:
    """sigmoid(eta) from ``e = exp(-|eta|)``: 1 / (1 + e) for eta >= 0 and
    e / (1 + e) below, clipped into (0, 1). As e lies in [0, 1], the
    numerator is max(e, [eta >= 0])."""
    prob = np.empty(e.shape)
    for rows in _row_blocks(prob):
        out = prob[..., rows]
        np.maximum(e[..., rows], eta[..., rows] >= 0, out=out)
        out /= e[..., rows] + 1.0
    np.maximum(prob, _P_LO, out=prob)
    return np.minimum(prob, _P_HI, out=prob)


def _log_likelihood(labels: np.ndarray, eta: np.ndarray, e: np.ndarray) -> np.ndarray:
    """sum_i [labels_i eta_i - softplus(eta_i)] over the last axis: the
    terms are written into one array and summed whole."""
    terms = np.empty(eta.shape)
    for rows in _row_blocks(terms):
        np.multiply(labels[..., rows], eta[..., rows], out=terms[..., rows])
        terms[..., rows] -= _softplus(eta[..., rows], e[..., rows])
    return terms.sum(axis=-1)


def _row_blocks(vectors: np.ndarray) -> list[slice]:
    """Slices of the last axis of ``vectors`` that hold at most
    ``_BLOCK_CELLS`` of its cells each (at least one row): the elementwise
    kernels write their result a block at a time, so that each of their
    temporaries stays within the budget."""
    height = max(1, _BLOCK_CELLS // max(1, vectors[..., :1].size))
    return [slice(lo, lo + height) for lo in range(0, vectors.shape[-1], height)]


def _parts(design: np.ndarray, shared: np.ndarray | None) -> tuple[np.ndarray, ...]:
    """The row parts of a problem, in the order of its rows."""
    return (design,) if shared is None else (shared, design)


def _spans(parts) -> list[slice]:
    """The slice of a member's rows that each of ``parts`` holds."""
    spans, start = [], 0
    for part in parts:
        spans.append(slice(start, start + part.shape[-2]))
        start = spans[-1].stop
    return spans


def _linear_predictor(design, vec, offset=None, intercept=False, shared=None) -> np.ndarray:
    """eta = offset + design @ vec over each member's rows, one product per
    row part, written into one array."""
    coefficients = vec[..., 1:] if intercept else vec
    if shared is None:
        eta = _matvec(design, coefficients)
    else:
        parts = _parts(design, shared)
        spans = _spans(parts)
        members = np.broadcast_shapes(vec.shape[:-1], design.shape[:-2])
        eta = np.empty(members + (spans[-1].stop,))
        for part, rows in zip(parts, spans):
            np.matmul(part, coefficients[..., None], out=eta[..., rows, None])
    if offset is not None:
        eta += offset
    if intercept:
        eta += vec[..., :1]
    return eta


def _gradient(design, labels, eta, e, intercept=False, shared=None):
    """Gradient of the log-likelihood in v, and the fitted probabilities."""
    prob = _probability(eta, e)
    residual = labels - prob

    def block(pieces, spans):
        total = _matvec(pieces[0].swapaxes(-1, -2), residual[..., spans[0]])
        for x, rows in zip(pieces[1:], spans[1:]):
            total += _matvec(x.swapaxes(-1, -2), residual[..., rows])
        return total

    grad = _row_sum(_parts(design, shared), block)
    if intercept:
        grad = np.concatenate((residual.sum(axis=-1)[..., None], grad), axis=-1)
    return grad, prob


# Cells (rows x columns) that a transient array of a Newton call may hold,
# ``_BLOCK_CELLS`` (defined in dataset.py, whose loaders gather within it):
# the stacked design handed to the batched engine (the M6 design of a block
# of repetitions), the engine's weighted copy z of a row block, the block's
# learning features and the link design's scaled copy of them, each at most
# 8 bytes x 2**16 cells = 512 KiB. There is no pooled M7 design: the engine
# takes M7's source rows once, as rows every member shares, and makes their
# weighted copy per member, a group of members within the budget at a
# time, so the links chunk M7's members at half their pooled rows' cells,
# m + n rows of d + 1 (a member larger than the budget is a chunk of its
# own). The engine copies a shared part within the budget column-major,
# once per call. :func:`_row_sum` keeps z within the budget per member at
# any design height by summing the gradient and the information over row
# blocks, and :func:`_information` takes the weights of a block's rows
# there. What may still span a whole member is a vector of its rows, and a
# pass holds few: eta and e = exp(-|eta|) at the point and at one
# line-search trial, the labels, the probabilities from the gradient to the
# information, and one vector whose sum over the whole row fixes the bits,
# the likelihood terms or the residual. The elementwise kernels write theirs
# a row block at a time (:func:`_row_blocks`), so that each temporary they
# make stays within the budget. The experiment's scoring pass gathers test
# features and scores in chunks within the same budget.


def _row_sum(parts, block) -> np.ndarray:
    """The sum of ``block(pieces, spans)`` over row blocks of
    ``_BLOCK_CELLS // q`` rows (at least one), in row order.

    A block's rows run on across the row ``parts``: ``pieces`` are the
    slices of parts that hold them, ``spans`` those rows' slices of a
    member's vectors. Both reductions over the rows, the gradient and the
    information, go through it. OpenBLAS does not split a block's row sum
    between its threads, as it does a longer product's, so the result does
    not depend on the thread count; and the blocks depend only on the
    parts' shapes, so a member of a stack is bitwise the problem alone. A
    problem of at most one block is that block, every part whole.
    """
    height = max(1, _BLOCK_CELLS // max(1, parts[-1].shape[-1]))
    spans = _spans(parts)
    rows = spans[-1].stop
    if rows <= height:
        return block(parts, spans)
    total = None
    for lo in range(0, rows, height):
        hi = min(lo + height, rows)
        met = [(part, span) for part, span in zip(parts, spans)
               if span.start < hi and lo < span.stop]
        pieces = [part[..., max(lo - span.start, 0):hi - span.start, :] for part, span in met]
        term = block(pieces, [slice(max(lo, span.start), min(hi, span.stop)) for _, span in met])
        if total is None:
            total = term
        else:
            total += term
    return total


def _information(design, prob, intercept=False, shared=None) -> np.ndarray:
    """Negated Hessian of the log-likelihood in v: z^T z with
    z = design * sqrt(prob * (1 - prob)), a symmetric product per row block.

    A block's z is written into one array stored transposed, (p, rows):
    sqrt(w) in its first row for the implicit intercept, then each part's
    weighted rows, every write running along the rows. On German M7
    chunks and on 3,276-row blocks this was faster than writing z row by
    row, into a strided [sqrt(w), X sqrt(w)] array or as z^T z bordered by
    z^T sqrt(w) and sum(w); on the M2-M6 designs it took the time, and gave
    the bits, of the row-major copy. The copy is written for a group of
    members at a time, as many as fit ``_BLOCK_CELLS`` together; each
    member's product is the same BLAS call in any group. The weights
    sqrt(prob * (1 - prob)) are taken for the block's rows of the group.
    """

    def gram(pieces, spans, prob):
        lo, hi = spans[0].start, spans[-1].stop
        root = 1.0 - prob[..., lo:hi]
        root *= prob[..., lo:hi]
        np.sqrt(root, out=root)
        zt = np.empty(root.shape[:-1] + (intercept + pieces[0].shape[-1], hi - lo))
        if intercept:
            zt[..., 0, :] = root
        for x, rows in zip(pieces, spans):
            local = slice(rows.start - lo, rows.stop - lo)
            np.multiply(x.swapaxes(-1, -2), root[..., None, local], out=zt[..., intercept:, local])
        return zt @ zt.swapaxes(-1, -2)

    def block(pieces, spans):
        # members in groups whose weighted copies fit the budget together
        p = intercept + pieces[0].shape[-1]
        group = max(1, _BLOCK_CELLS // max(1, p * (spans[-1].stop - spans[0].start)))
        if prob.ndim < 2 or len(prob) <= group:
            return gram(pieces, spans, prob)
        out = np.empty((len(prob), p, p))
        for start in range(0, len(prob), group):
            members = slice(start, start + group)
            out[members] = gram([x if len(x) == 1 else x[members] for x in pieces], spans,
                                prob[members])
        return out

    return _row_sum(_parts(design, shared), block)


def _matvec(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    return np.matmul(matrix, vector[..., None])[..., 0]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner product over the last axis, one BLAS dot per member."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _intercept_ridge(d: int, ridge: float) -> np.ndarray:
    """The ridge vector of (intercept, d coefficients); the intercept is
    never penalized."""
    return np.concatenate(([0.0], np.full(d, ridge)))


def maximize_logistic(
    design: np.ndarray,
    labels: np.ndarray,
    offset: np.ndarray | None = None,
    penalty: np.ndarray | None = None,
    center: np.ndarray | None = None,
    start: np.ndarray | None = None,
    max_iterations: int = 100,
    gradient_tolerance: float = 1e-8,
    intercept: bool = False,
) -> NewtonBatch:
    """Newton maximization of the penalized logistic log-likelihood.

    Solves the (design, offset)-parameterized problem described in the
    module docstring for one design of shape (n, q). It is the batch of
    one of :func:`maximize_logistic_batch`, which states the contract,
    and returns that member's fields: ``x`` (p,) and the convergence
    flag, iteration count and gradient norm as Python scalars.
    """
    design = np.asarray(design, dtype=float)
    n, _ = design.shape
    batch = maximize_logistic_batch(
        design[None],
        np.asarray(labels)[None],
        None if offset is None else np.broadcast_to(np.asarray(offset, dtype=float), (1, n)),
        penalty,
        center,
        start,
        max_iterations,
        gradient_tolerance,
        intercept,
    )
    return NewtonBatch(
        batch.x[0],
        bool(batch.converged[0]),
        int(batch.iterations[0]),
        float(batch.gradient_norm[0]),
    )


def maximize_logistic_batch(
    design: np.ndarray,
    labels: np.ndarray,
    offset: np.ndarray | None = None,
    penalty: np.ndarray | None = None,
    center: np.ndarray | None = None,
    start: np.ndarray | None = None,
    max_iterations: int = 100,
    gradient_tolerance: float = 1e-8,
    intercept: bool = False,
    shared: np.ndarray | None = None,
) -> NewtonBatch:
    """Newton maximization of a stack of independent penalized problems.

    ``design`` has shape (B, n, q). With ``intercept`` the design has an
    implicit leading column of ones, so that a problem has p = q + 1
    parameters, the intercept first; without it p = q. ``shared`` (1, m,
    q), if given, holds rows that every member has ahead of its own: each
    member's problem is the rows of ``shared`` followed by those of its
    design, and ``labels`` and ``offset`` (B, m + n) cover them all, the
    shared rows first. The offset is zero if None. ``penalty`` and
    ``center`` (p,) are shared. Each member is its
    own optimization. It stops once its gradient norm is within
    ``gradient_tolerance``, when its line search reaches the step floor,
    or after ``max_iterations`` steps. It starts at ``start``, zero by
    default: one (p,) point for every member, or a (B, p) stack of a
    point per member. Either way the engine copies it into a C-contiguous
    (B, p) array, so that each member's products with the design see the
    layout of the member alone, whatever the layout of ``start``. A start
    near the optimum, such as a fit of most of the same rows, saves
    iterations and moves only the last bits of the answer. A step is one
    LU solve of the Newton system, falling back to least squares and then
    to the gradient for a member whose LU factorization fails (see
    :func:`_newton_steps`), and takes the gradient when the result is not
    an ascent direction; step-halving then enforces the Armijo condition.
    The result holds member b's fields in row b, each bitwise those of the
    batch holding member b alone: ``x``, its last point, ``converged`` and
    ``gradient_norm`` there, and ``iterations``, the Newton steps it
    accepted. Every stop reason is recorded at one point, after a pass's
    gradient; a member whose line search reached the floor is recorded on
    the next pass, at the point it could not leave.
    The linear predictor computed for the objective at the accepted point,
    and its exp(-|eta|), are carried into the next pass's gradient, so
    each Newton point costs one product with the design and one exp.

    Finished members are compacted out of ``design``, ``labels`` and
    ``offset`` in place, so with B > 1 these must be writable arrays
    that the caller hands over; ``shared`` is only read. A shared part of
    at most ``_BLOCK_CELLS`` cells is copied column-major once per call:
    its weighted copy is then written along contiguous columns, and M7 on
    German's 726 source rows ran about 5% faster than on row-major rows.
    A larger one is read in place, so that its rows are held once.
    """
    batch, _, q = design.shape
    p = q + intercept
    if shared is not None and shared.size <= _BLOCK_CELLS:
        shared = np.asfortranarray(shared)
    penalty = np.zeros(p) if penalty is None else np.asarray(penalty, dtype=float)
    center = np.zeros(p) if center is None else np.asarray(center, dtype=float)
    start = np.zeros(p) if start is None else np.asarray(start, dtype=float)
    penalty_hessian = np.diag(penalty)

    def objective(vec):
        """The leading ``len(vec)`` members' objective at ``vec``, eta and exp(-|eta|)."""
        k = len(vec)
        eta = _linear_predictor(
            design[:k], vec, None if offset is None else offset[:k], intercept, shared
        )
        e = _exp_neg_abs(eta)
        value = _log_likelihood(labels[:k], eta, e) - 0.5 * _dot(penalty, (vec - center) ** 2)
        return value, eta, e

    members = np.arange(batch)  # the member whose problem each row holds
    v = np.array(np.broadcast_to(start, (batch, p)), order="C")
    obj, eta, e = objective(v)
    steps = np.zeros(batch, dtype=int)  # accepted Newton steps
    stuck = np.zeros(batch, dtype=bool)  # the last line search reached its floor
    out = NewtonBatch(
        np.empty((batch, p)),
        np.empty(batch, dtype=bool),
        np.empty(batch, dtype=int),
        np.empty(batch),
    )

    while True:
        k = len(v)
        grad, prob = _gradient(design[:k], labels[:k], eta, e, intercept, shared)
        grad -= penalty * (v - center)
        squared_norm = _dot(grad, grad)
        gradient_norm = np.sqrt(squared_norm)
        converged = gradient_norm <= gradient_tolerance
        # a stuck row's point, eta and e are those its failed search started
        # from, so this gradient is bitwise the one that search saw
        done = converged | stuck | (steps == max_iterations)
        if done.any():
            finished = members[done]
            out.x[finished] = v[done]
            out.converged[finished] = converged[done]
            out.iterations[finished] = steps[done]
            out.gradient_norm[finished] = gradient_norm[done]
            if done.all():
                return out
            keep = np.flatnonzero(~done)
            _compact(keep, design, labels, offset)
            members, v, obj, eta, e, steps = (a[keep] for a in (members, v, obj, eta, e, steps))
            grad, prob, squared_norm = grad[keep], prob[keep], squared_norm[keep]
            k = len(keep)

        information = _information(design[:k], prob, intercept, shared)
        del prob  # not held through the line search
        step = _newton_steps(information + penalty_hessian, grad)
        slope = _dot(grad, step)
        uphill = slope <= 0.0  # numerically not an ascent direction
        if uphill.any():
            step[uphill] = grad[uphill]
            slope[uphill] = squared_norm[uphill]

        # Armijo step-halving over _STEP_SIZES. Every row is evaluated at
        # each t: selecting the searching rows would copy their designs, and
        # an accepted row's value is not used.
        noise = _NOISE_EPS * (1.0 + np.abs(obj))
        stuck = np.ones(k, dtype=bool)  # no step accepted yet
        for t in _STEP_SIZES:
            trial = v + t * step
            trial_obj, trial_eta, trial_e = objective(trial)
            accept = stuck & (trial_obj >= obj + _ARMIJO * t * slope - noise)
            if accept.all():  # every row takes the full step: keep the trial arrays
                v, obj, eta, e = trial, trial_obj, trial_eta, trial_e
                stuck[:] = False
                break
            v[accept] = trial[accept]
            obj[accept] = trial_obj[accept]
            eta[accept] = trial_eta[accept]
            e[accept] = trial_e[accept]
            del trial_eta, trial_e  # one trial pair at a time, none through the next pass
            stuck &= ~accept
            if not stuck.any():
                break
        steps += ~stuck


def _compact(keep: np.ndarray, *stacks: np.ndarray) -> None:
    """Move rows ``keep`` (ascending) of each stack (None: no stack) to its
    front, in place."""
    stacks = [stack for stack in stacks if stack is not None]
    for row, member in enumerate(keep):
        if row != member:
            for stack in stacks:
                stack[row] = stack[member]


def _newton_steps(information: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve information @ step = grad for each member of a stack.

    One LU solve of the stack gives the steps. It fails for the whole
    stack when LU fails for one member, as on an exactly singular one, so
    the stack is then halved until each failing member is alone. That
    member takes a least-squares step, or the gradient if its information
    is not finite (LAPACK's least squares would print an error to stdout
    and fail) or the least-squares solve fails.
    """
    try:
        return np.linalg.solve(information, grad[..., None])[..., 0]
    except np.linalg.LinAlgError:
        pass
    if len(grad) > 1:
        mid = len(grad) // 2
        return np.concatenate(
            [_newton_steps(information[:mid], grad[:mid]), _newton_steps(information[mid:], grad[mid:])]
        )
    if np.isfinite(information).all():
        try:
            return np.linalg.lstsq(information[0], grad[0], rcond=None)[0][None]
        except np.linalg.LinAlgError:
            pass
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
    eta = params.linear_predictor(sample.features)
    ll = float(_log_likelihood(sample.labels, eta, _exp_neg_abs(eta)))
    return ll - 0.5 * ridge * float(params.coefficients @ params.coefficients)


def gradient(params: LogisticParams, sample: LabeledSample, ridge: float = 0.0) -> np.ndarray:
    """Gradient of :func:`log_likelihood` w.r.t. (intercept, coefficients)."""
    _check_dimensions(params, sample)
    eta = params.linear_predictor(sample.features)
    grad, _ = _gradient(sample.features, sample.labels, eta, _exp_neg_abs(eta), intercept=True)
    penalty = _intercept_ridge(sample.dimension, ridge)
    return grad - penalty * np.concatenate(([params.intercept], params.coefficients))


def hessian(params: LogisticParams, sample: LabeledSample, ridge: float = 0.0) -> np.ndarray:
    """Hessian of :func:`log_likelihood`: symmetric, negative semi-definite."""
    _check_dimensions(params, sample)
    prob = sigmoid(params.linear_predictor(sample.features))
    information = _information(sample.features, prob, intercept=True)
    return -(information + np.diag(_intercept_ridge(sample.dimension, ridge)))


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
    result = maximize_logistic(
        sample.features,
        sample.labels,
        penalty=_intercept_ridge(sample.dimension, config.ridge),
        max_iterations=config.max_iterations,
        gradient_tolerance=config.gradient_tolerance,
        intercept=True,
    )
    params = LogisticParams(result.x[0], result.x[1:])
    return FitReport(
        params=params,
        log_likelihood=log_likelihood(params, sample),
        iterations=result.iterations,
        converged=result.converged,
        gradient_norm=result.gradient_norm,
    )

