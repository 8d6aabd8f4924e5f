"""Parametric links transferring a source score function to the target.

Seven nested strategies tie the target score function (intercept b0*,
coefficients b*) to the source fit (b0, b) through a shift c and a
diagonal scaling L:

    b0* = b0 + c,    b*_j = L_j * b_j.

========  ======================  =========================
model     free parameters         constraint pattern
========  ======================  =========================
M1        none                    c = 0, L = I
M2        1 (lambda)              c = 0, L = lambda * I
M3        1 (c)                   L = I
M4        2 (c, lambda)           L = lambda * I
M5        d (diagonal L)          c = 0
M6        d + 1 (c, diagonal L)   none
M7        d + 1 (refit)           pooled source + learning
========  ======================  =========================

M1..M6 are the grid {shift c fixed at 0 | free} x {scale fixed at I |
one common lambda | one L_j per coefficient}, written down once as
``_GRID``. They maximize the learning-sample likelihood over exactly
their free parameters, holding the source fit fixed; estimation runs on
the reparameterized design (columns ``b_j * x_j``) so the free parameters
enter as ordinary logistic coefficients. M7 ignores the link structure
and refits on the pooled rows, warm-started at the source fit: the MLE of
all but the n learning rows, so a few Newton steps reach the pooled
optimum. The first of them is shared: the source rows' gradient and
information at the source fit are computed once, into the run's one
value of its source side (``_SourceTerms``), and each refit adds those
of its learning rows to take one exact Newton step before the engine
runs. No pooled design is built: the engine takes the source rows once,
as rows every member of a chunk shares, ahead of each member's own
learning rows, with the intercept column implicit, so a run holds the
source rows once. The link optimizations warm-start at the identity link
and share the Newton contract of :func:`scorelink.logistic.fit_mle`,
with the ridge applied to deviations from the identity: c^2,
(lambda - 1)^2, sum_j (L_j - 1)^2.

Every kind also fits a block of equal-size learning samples, given as
the (B, n, d) features and (B, n) labels the sweep holds, through the
batched Newton engine, each fit bitwise the one of its sample alone. The
block reads the engine's arrays of solutions and convergence flags
directly; :func:`estimate_transition` and :func:`fit_m7` are the block
of one and take the same path.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .dataset import LabeledSample
from .exceptions import DataError, NumericalError
from .logistic import (
    _BLOCK_CELLS,
    FitConfig,
    LogisticParams,
    _class_errors,
    _dot,
    _exp_neg_abs,
    _gradient,
    _information,
    _intercept_ridge,
    _linear_predictor,
    _log_likelihood,
    _matvec,
    _newton_steps,
    fit_mle,
    maximize_logistic_batch,
)

# below this magnitude a source coefficient makes its scale unidentifiable
IDENTIFIABILITY_EPS = 1e-10


def _chunks(count: int, member_cells: int) -> list[range]:
    """``range(count)`` in near-equal chunks whose stacked designs, of
    ``member_cells`` cells per member, fit in ``_BLOCK_CELLS`` (a member
    larger than the budget is a chunk of its own)."""
    largest = max(1, _BLOCK_CELLS // member_cells)
    pieces = -(-count // largest)
    bounds = [count * i // pieces for i in range(pieces + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


class LinkModelKind(Enum):
    M1 = "M1"
    M2 = "M2"
    M3 = "M3"
    M4 = "M4"
    M5 = "M5"
    M6 = "M6"
    M7 = "M7"

    def free_parameter_count(self, dimension: int) -> int:
        """Number of free parameters of this kind; for M5 and M6 an upper
        bound on those the estimator optimizes, as the scale of a source
        coefficient within ``IDENTIFIABILITY_EPS`` of zero is pinned at 1."""
        if self is LinkModelKind.M7:
            return dimension + 1  # the pooled refit estimates every parameter
        shift_free, scale = _GRID[self]
        return int(shift_free) + {"fixed": 0, "common": 1, "per-coefficient": dimension}[scale]


# kind -> (is the shift c free?, scale L: "fixed" = I, "common" = lambda * I
# or "per-coefficient" = diag(L_1, ..., L_d)); M7 is not a link
_GRID = {
    LinkModelKind.M1: (False, "fixed"),
    LinkModelKind.M2: (False, "common"),
    LinkModelKind.M3: (True, "fixed"),
    LinkModelKind.M4: (True, "common"),
    LinkModelKind.M5: (False, "per-coefficient"),
    LinkModelKind.M6: (True, "per-coefficient"),
}


@dataclass(frozen=True)
class TransitionParams:
    """Shift c and diagonal scaling of the source-to-target link."""

    shift: float
    scale: np.ndarray

    def __post_init__(self):
        scale = np.asarray(self.scale, dtype=float)
        if scale.ndim != 1:
            raise ValueError("scale must be a 1-d vector")
        if not (np.isfinite(self.shift) and np.isfinite(scale).all()):
            raise ValueError("transition parameters must be finite")
        scale = scale.view()  # the caller's array stays writable
        scale.setflags(write=False)
        object.__setattr__(self, "shift", float(self.shift))
        object.__setattr__(self, "scale", scale)


@dataclass(frozen=True)
class TransferFit:
    """A fitted target score function and how it was obtained.

    ``log_likelihood`` is always evaluated on the target learning sample
    (unpenalized), also for M1 and M7 whose estimation does not maximize
    it. ``unidentifiable`` lists coefficient indices whose scale was
    pinned to 1 because the source coefficient is numerically zero.
    """

    kind: LinkModelKind
    transition: TransitionParams | None
    target_params: LogisticParams
    log_likelihood: float
    converged: bool
    unidentifiable: tuple[int, ...] = ()

    def to_dict(self) -> dict:
        out = {"model": self.kind.value}
        if self.transition is not None:
            out["c"] = self.transition.shift
            out["lambda"] = self.transition.scale.tolist()
        out.update(self.target_params.to_dict())
        out["log_likelihood"] = self.log_likelihood
        out["converged"] = self.converged
        if self.unidentifiable:
            out["unidentifiable"] = list(self.unidentifiable)
        return out


def compose(source: LogisticParams, transition: TransitionParams) -> LogisticParams:
    """Apply the link: intercept + shift, coefficients scaled component-wise."""
    if transition.scale.shape[0] != source.dimension:
        raise ValueError(
            f"scale length {transition.scale.shape[0]} does not match "
            f"{source.dimension} coefficients"
        )
    return LogisticParams(
        source.intercept + transition.shift, transition.scale * source.coefficients
    )


def estimate_transition(
    kind: LinkModelKind,
    source: LogisticParams,
    learning: LabeledSample,
    config: FitConfig = FitConfig(),
) -> TransferFit:
    """Estimate the transition parameters of one link model (M1..M6).

    A model with no free parameters (M1) performs no optimization and
    ignores the learning sample's content; the other kinds run Newton over
    their free parameters, warm-started at the identity link.
    Non-convergence is reported through the flag, never raised; a fit
    with no finite answer raises NumericalError.
    """
    block = _transition_block(kind, source, learning.features[None], learning.labels[None], config)
    (fit,) = block.fits()
    if isinstance(fit, NumericalError):
        raise fit
    return fit


class _Block(NamedTuple):
    """The fits of a block of learning samples as arrays, a row per member.

    ``errors[i]`` is the NumericalError of a member without a finite fit,
    else None; that member's row holds zero parameters, a NaN
    log-likelihood and ``converged`` False. ``shift`` (B,) and ``scale``
    (B, d) are the links of M1-M6, None for M7.
    """

    kind: LinkModelKind
    errors: list
    intercepts: np.ndarray  # (B,)
    coefficients: np.ndarray  # (B, d)
    log_likelihoods: list
    converged: list
    shift: np.ndarray | None = None
    scale: np.ndarray | None = None
    unidentifiable: tuple[int, ...] = ()

    def fits(self) -> list[TransferFit | NumericalError]:
        """Each member's TransferFit, or its error."""
        return [
            error
            if error is not None
            else TransferFit(
                kind=self.kind,
                transition=None if self.shift is None
                else TransitionParams(self.shift[i], self.scale[i]),
                target_params=LogisticParams(self.intercepts[i], self.coefficients[i]),
                log_likelihood=self.log_likelihoods[i],
                converged=self.converged[i],
                unidentifiable=self.unidentifiable,
            )
            for i, error in enumerate(self.errors)
        ]


def _finish_block(
    kind, features, labels, errors, intercepts, coefficients, converged, **link
) -> _Block:
    """The _Block of a block's target parameters, checked and evaluated.

    A member whose parameters are not all finite gets its NumericalError.
    The log-likelihoods come from one kernel call over the block's
    learning ``features`` (B, n, d) and ``labels`` (B, n), a BLAS product
    per member on the layout of its sample alone, so each is bitwise
    ``log_likelihood(params, learning)``.
    """
    finite = np.isfinite(intercepts) & np.isfinite(coefficients).all(axis=1)
    for i in np.flatnonzero(~finite):
        errors[i] = errors[i] or NumericalError(f"{kind.value} fit has non-finite parameters")
    fitted = np.array([error is None for error in errors], dtype=bool)
    intercepts = np.where(fitted, intercepts, 0.0)
    coefficients = np.where(fitted[:, None], coefficients, 0.0)
    eta = intercepts[:, None] + _matvec(features, coefficients)
    likelihoods = _log_likelihood(labels, eta, _exp_neg_abs(eta))
    return _Block(
        kind,
        errors,
        intercepts,
        coefficients,
        np.where(fitted, likelihoods, np.nan).tolist(),
        (fitted & converged).tolist(),
        **link,
    )


def _transition_block(kind, source, features, labels, config) -> _Block:
    """One link model (M1..M6) fitted on each of a block of equal-size
    learning samples: ``features`` (B, n, d), each member C-contiguous as
    in a LabeledSample, and ``labels`` (B, n).

    The block's Newton fits run as one batched call, and each member's
    fit is bitwise that of :func:`estimate_transition` on it alone. A
    member with no finite answer (a single class at ridge 0, or fitted
    parameters that are not finite) gets its NumericalError in place of
    a fit; the other members are unaffected.
    """
    if kind is LinkModelKind.M7:
        raise ValueError("M7 is a pooled refit; use fit_m7")
    d = source.dimension
    if features.shape[-1] != d:
        raise ValueError(
            f"learning sample dimension {features.shape[-1]} does not match "
            f"{d} source coefficients"
        )
    shift_free, scale_kind = _GRID[kind]
    free = np.zeros(d, dtype=bool)
    if scale_kind == "per-coefficient":
        free = np.abs(source.coefficients) > IDENTIFIABILITY_EPS

    count, n = labels.shape
    shift, scale = np.zeros(count), np.ones((count, d))
    converged = np.ones(count, dtype=bool)
    has_design = shift_free or scale_kind != "fixed"  # every kind but M1
    errors = [None] * count
    if has_design:
        errors = _class_errors(labels.sum(axis=1), n, config.ridge)
    fitted = [i for i, error in enumerate(errors) if error is None]
    if has_design and fitted:
        design, offset = _link_design(shift_free, scale_kind, free, source, features, fitted)
        width = design.shape[-1]
        center = np.ones(width)
        center[: int(shift_free)] = 0.0
        result = maximize_logistic_batch(
            design,
            labels[fitted].astype(float),
            offset,
            penalty=np.full(width, config.ridge),
            center=center,
            start=center,
            max_iterations=config.max_iterations,
            gradient_tolerance=config.gradient_tolerance,
        )
        converged[fitted] = result.converged
        if shift_free:
            shift[fitted] = result.x[:, 0]
        if scale_kind == "common":
            scale[fitted] = result.x[:, -1:]
        else:
            scale[np.ix_(fitted, free)] = result.x[:, int(shift_free):]

    # the links of all members at once, elementwise the arithmetic of compose
    pinned = ()
    if scale_kind == "per-coefficient":
        pinned = tuple(int(j) for j in np.flatnonzero(~free))
    return _finish_block(
        kind,
        features,
        labels,
        errors,
        source.intercept + shift,
        scale * source.coefficients,
        converged,
        shift=shift,
        scale=scale,
        unidentifiable=pinned,
    )


def _link_design(shift_free, scale_kind, free, source, features, members):
    """Design and offset of the link problem of each of the ``members`` of
    a block of learning ``features`` (B, n, d), built in array operations
    over the block.

    Each identifiable column b_j * x_j with its own scale enters the
    design; a common lambda multiplies their row sum, the source score
    minus b0. Columns whose scale stays 1 join b0 in the offset. Besides
    the design and offset, a call holds one array of the members' scaled
    columns, the size of their features.

    A per-coefficient member's design is stored column-major, the layout
    the column selection ``scaled[:, free]`` gives a single fit. BLAS sums
    in another order on the other layout, and the last bits of an
    ill-conditioned M6 fit would move.
    """
    shift = int(shift_free)
    width = shift + {"fixed": 0, "common": 1, "per-coefficient": int(free.sum())}[scale_kind]
    scaled = features[members]  # a copy, scaled in place
    scaled *= source.coefficients
    count, n, _ = scaled.shape
    if scale_kind == "per-coefficient":
        design = np.empty((count, width, n)).transpose(0, 2, 1)
    else:
        design = np.empty((count, n, width))
    design[..., :shift] = 1.0
    offset = np.full((count, n), source.intercept)
    if scale_kind == "fixed":
        offset += scaled.sum(axis=-1)
    elif scale_kind == "common":
        design[..., shift] = scaled.sum(axis=-1)
    else:
        design[..., shift:] = scaled[..., free]
        offset += scaled[..., ~free].sum(axis=-1)
    return design, offset


class _SourceTerms(NamedTuple):
    """The source side of a run: the source ``sample``, its fit ``params``
    (b0, b), which the link models transfer and the pooled M7 refits start
    from, and the source rows' unpenalized log-likelihood ``gradient``
    (p,) and ``information`` (p, p) there, p = d + 1."""

    sample: LabeledSample
    params: LogisticParams
    gradient: np.ndarray
    information: np.ndarray


def _source_terms(sample: LabeledSample, params: LogisticParams) -> _SourceTerms:
    """The _SourceTerms of ``sample`` at ``params``, the derivatives from
    the Newton engine's own kernels on its features with the implicit
    intercept; the sweep computes them once per run, at the source fit."""
    x = np.concatenate(([params.intercept], params.coefficients))
    eta = _linear_predictor(sample.features, x, intercept=True)
    gradient, prob = _gradient(sample.features, sample.labels, eta, _exp_neg_abs(eta), True)
    return _SourceTerms(sample, params, gradient, _information(sample.features, prob, True))


def fit_m7(
    source_sample: LabeledSample,
    learning: LabeledSample,
    config: FitConfig = FitConfig(),
) -> TransferFit:
    """Refit on all source rows pooled with the learning rows.

    The two samples must name the same features in the same order, since
    their rows are pooled column by column; otherwise DataError names the
    first column that differs. Newton starts at the source fit, as the
    sweep's refits do, or at zero when the source alone has no fit (a
    single class at ridge 0), and takes the sweep's shared first step from
    there; the result is bitwise the sweep's, the block of one of its
    pooled refits. A fit with no finite answer raises NumericalError.
    """
    if source_sample.dimension == learning.dimension:  # else _m7_block words the error
        pairs = zip(source_sample.feature_names, learning.feature_names)
        for j, (source_name, name) in enumerate(pairs):
            if name != source_name:
                raise DataError(
                    f"feature column {j + 1} is {name!r} in the learning sample "
                    f"but {source_name!r} in the source sample"
                )
    try:
        start = fit_mle(source_sample, config).params
    except NumericalError:
        start = LogisticParams(0.0, np.zeros(source_sample.dimension))
    block = _m7_block(
        _source_terms(source_sample, start), learning.features[None], learning.labels[None], config
    )
    (fit,) = block.fits()
    if isinstance(fit, NumericalError):
        raise fit
    return fit


def _m7_block(source, features, labels, config) -> _Block:
    """M7 fitted on each of a block of equal-size learning samples,
    ``features`` (B, n, d) and ``labels`` (B, n), pooled with the rows of
    ``source``, the _SourceTerms of the source sample at a point v, which
    every refit starts from; the sweep passes those at the source fit.

    Each refit first takes one Newton step from v, all of them in one
    batched call over the block's learning rows (:func:`_first_steps`),
    and the engine then runs from there, on the source rows as the rows
    every member shares and its learning rows as its own; no pooled
    design is built. The members go through the engine in near-equal
    chunks within ``_BLOCK_CELLS``, each member counted at half its pooled
    rows' cells (see :func:`_pooled_fits`), and each fit is bitwise that
    of :func:`fit_m7` on its sample alone when ``source`` is what fit_m7
    computes. A member with no
    finite answer (a single class at ridge 0, or fitted parameters that
    are not finite) gets its NumericalError in place of a fit.
    """
    d = source.sample.dimension
    if d < 1:
        raise ValueError("sample must have at least one feature")
    if features.shape[-1] != d:
        raise ValueError(f"source dimension {d} does not match learning dimension "
                         f"{features.shape[-1]}")

    count, n = labels.shape
    errors = _class_errors(
        source.sample.labels.sum() + labels.sum(axis=1), source.sample.n_records + n, config.ridge
    )
    fitted = [i for i, error in enumerate(errors) if error is None]
    x = np.zeros((count, d + 1))
    converged = np.zeros(count, dtype=bool)
    if fitted:
        x[fitted], converged[fitted] = _pooled_fits(source, features, labels, fitted, config)
    return _finish_block(LinkModelKind.M7, features, labels, errors, x[:, 0], x[:, 1:], converged)


def _first_steps(source: _SourceTerms, features, labels, penalty) -> np.ndarray:
    """Each member's Newton start (B, p): the source fit v plus one Newton
    step of its pooled penalized problem from there.

    Every member's pooled gradient and information at v are the source
    rows' (``source``) plus those of its own learning rows, ``features``
    (B, n, d) with the implicit intercept and ``labels`` (B, n), which
    one batched call of the engine's kernels computes for the whole
    block. The step is the engine's own first Newton step from v, except
    for the order in which the rows are summed, and is taken in full,
    without a line search; the engine's steps from there are safeguarded
    as usual. A member whose step is not finite, or is not an ascent
    direction, starts at v.
    """
    x = np.concatenate(([source.params.intercept], source.params.coefficients))
    eta = _linear_predictor(features, x, intercept=True)
    gradient, prob = _gradient(features, labels, eta, _exp_neg_abs(eta), True)
    gradient = source.gradient + gradient - penalty * x
    information = source.information + _information(features, prob, True) + np.diag(penalty)
    step = _newton_steps(information, gradient)
    ascent = np.isfinite(step).all(axis=1) & (_dot(gradient, step) > 0.0)
    return np.where(ascent[:, None], x + step, x)


def _pooled_fits(source, features, labels, fitted, config):
    """The solutions and convergence flags of the pooled refits of the
    members ``fitted``, in near-equal chunks within ``_BLOCK_CELLS``, each
    starting from its :func:`_first_steps` point.

    No pooled design exists: each chunk hands the engine the source
    features once, as the rows every member shares, and a copy of its own
    members' learning features as their own rows, with the implicit
    intercept. The pooled labels are allocated once per block, as bytes
    (the engine reads 0 and 1 of any dtype as the same doubles), with the
    source labels written in once; a chunk overwrites only the learning
    labels. The engine's compaction moves whole member rows, and every
    member has the same source labels, so they stay intact.
    """
    (m, d), n = source.sample.features.shape, labels.shape[1]
    penalty = _intercept_ridge(d, config.ridge)
    starts = _first_steps(source, features[fitted], labels[fitted], penalty)
    # the engine writes the weighted copy a group of members at a time,
    # within the budget, so the rest of a chunk's transient memory is its
    # members' vectors and learning rows: a member counted at half its
    # pooled cells keeps a German M7 block's traced peak within about 1.2 MiB
    chunks = _chunks(len(fitted), (m + n) * (d + 1) // 2)
    pooled_labels = np.empty((max(map(len, chunks)), m + n), dtype=np.int8)
    pooled_labels[:, :m] = source.sample.labels
    x = np.empty((len(fitted), d + 1))
    converged = np.empty(len(fitted), dtype=bool)
    for chunk in chunks:
        members = slice(chunk.start, chunk.stop)
        pooled_labels[: len(chunk), m:] = labels[fitted[members]]
        result = maximize_logistic_batch(
            # a copy of C-contiguous members, the layout of a single fit's
            features[fitted[members]],
            pooled_labels[: len(chunk)],
            penalty=penalty,
            start=starts[members],
            max_iterations=config.max_iterations,
            gradient_tolerance=config.gradient_tolerance,
            intercept=True,
            shared=source.sample.features[None],
        )
        x[members], converged[members] = result.x, result.converged
    return x, converged
