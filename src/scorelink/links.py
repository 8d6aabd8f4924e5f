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
and refits on the pooled rows from zero. The link optimizations
warm-start at the identity link and share the Newton contract of
:func:`scorelink.logistic.fit_mle`, with the ridge applied to deviations
from the identity: c^2, (lambda - 1)^2, sum_j (L_j - 1)^2.

Every kind has a block form (:func:`estimate_transitions`,
:func:`fit_m7s`) that fits many equal-size learning samples through the
batched Newton engine, each fit bitwise the one of its sample alone.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .dataset import LabeledSample
from .exceptions import NumericalError
from .logistic import (
    FitConfig,
    LogisticParams,
    _log_likelihood,
    _matvec,
    _require_two_classes,
    maximize_logistic,
    maximize_logistic_batch,
)

# below this magnitude a source coefficient makes its scale unidentifiable
IDENTIFIABILITY_EPS = 1e-10

# Cells (rows x columns) that one stacked design handed to the batched
# Newton engine may hold: the M6 design of a block of repetitions, or the
# pooled M7 design of a chunk of one. That design, the engine's weighted
# copy of it and the block's learning features are the transient arrays of
# a call, each at most this many doubles: 3 x 8 bytes x 2**16 cells = 1.5 MB.
# The experiment's scoring pass gathers test features and scores in chunks
# within the same budget.
_BLOCK_CELLS = 2**16


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
        """Number of parameters the estimator optimizes for this kind."""
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
        scale.setflags(write=False)
        object.__setattr__(self, "shift", float(self.shift))
        object.__setattr__(self, "scale", scale)

    @classmethod
    def identity(cls, dimension: int) -> "TransitionParams":
        return cls(0.0, np.ones(dimension))


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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), allow_nan=False)

    @classmethod
    def from_dict(cls, data: dict) -> "TransferFit":
        kind = LinkModelKind(data["model"])
        transition = None
        if "c" in data:
            transition = TransitionParams(data["c"], np.asarray(data["lambda"], dtype=float))
        return cls(
            kind=kind,
            transition=transition,
            target_params=LogisticParams.from_dict(data),
            log_likelihood=float(data["log_likelihood"]),
            converged=bool(data["converged"]),
            unidentifiable=tuple(data.get("unidentifiable", ())),
        )


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
    (fit,) = estimate_transitions(kind, source, [learning], config)
    if isinstance(fit, NumericalError):
        raise fit
    return fit


def estimate_transitions(
    kind: LinkModelKind,
    source: LogisticParams,
    learnings: Sequence[LabeledSample],
    config: FitConfig = FitConfig(),
) -> list[TransferFit | NumericalError]:
    """Estimate one link model on each of a block of equal-size learning samples.

    The block's Newton fits run as one batched call, and each member's
    fit is bitwise that of :func:`estimate_transition` on it alone. A
    member with no finite answer (a single class at ridge 0, or fitted
    parameters that are not finite) gets its NumericalError in place of
    a fit; the other members are unaffected.
    """
    return _transition_block(kind, source, learnings, config).fits()


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


def _finish_block(kind, learnings, errors, intercepts, coefficients, converged, **link) -> _Block:
    """The _Block of a block's target parameters, checked and evaluated.

    A member whose parameters are not all finite gets its NumericalError.
    The log-likelihoods come from one kernel call over the stacked
    learning samples, a BLAS product per member on the layout of the
    sample alone, so each is bitwise ``log_likelihood(params, learning)``.
    """
    if not errors:  # an empty block
        return _Block(kind, errors, intercepts, coefficients, [], [], **link)
    finite = np.isfinite(intercepts) & np.isfinite(coefficients).all(axis=1)
    for i in np.flatnonzero(~finite):
        errors[i] = errors[i] or NumericalError(f"{kind.value} fit has non-finite parameters")
    fitted = np.array([error is None for error in errors])
    intercepts = np.where(fitted, intercepts, 0.0)
    coefficients = np.where(fitted[:, None], coefficients, 0.0)
    eta = intercepts[:, None] + _matvec(
        np.stack([learning.features for learning in learnings]), coefficients
    )
    likelihoods = _log_likelihood(np.stack([learning.labels for learning in learnings]), eta)
    return _Block(
        kind,
        errors,
        intercepts,
        coefficients,
        np.where(fitted, likelihoods, np.nan).tolist(),
        (fitted & converged).tolist(),
        **link,
    )


def _transition_block(kind, source, learnings, config) -> _Block:
    """The fits of :func:`estimate_transitions`, as a _Block."""
    if kind is LinkModelKind.M7:
        raise ValueError("M7 is a pooled refit; use fit_m7")
    d = source.dimension
    for learning in learnings:
        if learning.dimension != d:
            raise ValueError(
                f"learning sample dimension {learning.dimension} does not match "
                f"{d} source coefficients"
            )
    if len({learning.n_records for learning in learnings}) > 1:
        raise ValueError("the learning samples of a block must be of one size")
    shift_free, scale_kind = _GRID[kind]
    free = np.zeros(d, dtype=bool)
    if scale_kind == "per-coefficient":
        free = np.abs(source.coefficients) > IDENTIFIABILITY_EPS

    errors: list = [None] * len(learnings)
    shift, scale = np.zeros(len(learnings)), np.ones((len(learnings), d))
    converged = np.ones(len(learnings), dtype=bool)
    has_design = shift_free or scale_kind != "fixed"  # every kind but M1
    if has_design:
        for i, learning in enumerate(learnings):
            try:
                _require_two_classes(learning.class_counts(), config.ridge)
            except NumericalError as err:
                errors[i] = err
    fitted = [i for i, error in enumerate(errors) if error is None]
    if has_design and fitted:
        design, offset = _link_design(shift_free, scale_kind, free, source, learnings, fitted)
        labels = np.stack([learnings[i].labels for i in fitted]).astype(float)
        width = design.shape[-1]
        center = np.ones(width)
        center[: int(shift_free)] = 0.0
        newton = dict(
            penalty=np.full(width, config.ridge),
            center=center,
            start=center,
            max_iterations=config.max_iterations,
            gradient_tolerance=config.gradient_tolerance,
        )
        # a lone fit is one call of the 2-D entry point, which is where
        # the benchmark's tracer and the optimizer audit observe it
        if len(fitted) == 1:
            results = [maximize_logistic(design[0], labels[0], offset[0], **newton)]
        else:
            results = maximize_logistic_batch(design, labels, offset, **newton)
        x = np.array([result.x for result in results])
        converged[fitted] = [result.converged for result in results]
        if shift_free:
            shift[fitted] = x[:, 0]
        if scale_kind == "common":
            scale[fitted] = x[:, -1:]
        else:
            scale[np.ix_(fitted, free)] = x[:, int(shift_free):]

    # the links of all members at once, elementwise the arithmetic of compose
    pinned = ()
    if scale_kind == "per-coefficient":
        pinned = tuple(int(j) for j in np.flatnonzero(~free))
    return _finish_block(
        kind,
        learnings,
        errors,
        source.intercept + shift,
        scale * source.coefficients,
        converged,
        shift=shift,
        scale=scale,
        unidentifiable=pinned,
    )


def _link_design(shift_free, scale_kind, free, source, learnings, members):
    """Stacked design and offset of the link problem of each member.

    Each identifiable column b_j * x_j with its own scale enters the
    design; a common lambda multiplies their row sum, the source score
    minus b0. Columns whose scale stays 1 join b0 in the offset. The
    columns are built one member at a time, so no second stack is held.

    A per-coefficient member's design is stored column-major, the layout
    the column selection ``scaled[:, free]`` gives a single fit. BLAS sums
    in another order on the other layout, and the last bits of an
    ill-conditioned M6 fit would move.
    """
    shift = int(shift_free)
    width = shift + {"fixed": 0, "common": 1, "per-coefficient": int(free.sum())}[scale_kind]
    n = learnings[members[0]].n_records
    if scale_kind == "per-coefficient":
        design = np.empty((len(members), width, n)).transpose(0, 2, 1)
    else:
        design = np.empty((len(members), n, width))
    design[..., :shift] = 1.0
    offset = np.full((len(members), n), source.intercept)
    for row, i in enumerate(members):
        scaled = learnings[i].features * source.coefficients
        if scale_kind == "fixed":
            offset[row] += scaled.sum(axis=1)
        elif scale_kind == "common":
            design[row, :, shift] = scaled.sum(axis=1)
        else:
            design[row, :, shift:] = scaled[:, free]
            offset[row] += scaled[:, ~free].sum(axis=1)
    return design, offset


def fit_m7(
    source_sample: LabeledSample,
    learning: LabeledSample,
    config: FitConfig = FitConfig(),
) -> TransferFit:
    """Refit from scratch on all source rows pooled with the learning rows.

    The block of one of :func:`fit_m7s`; a fit with no finite answer
    raises NumericalError.
    """
    (fit,) = fit_m7s(source_sample, [learning], config)
    if isinstance(fit, NumericalError):
        raise fit
    return fit


def fit_m7s(
    source_sample: LabeledSample,
    learnings: Sequence[LabeledSample],
    config: FitConfig = FitConfig(),
) -> list[TransferFit | NumericalError]:
    """Fit M7 on each of a block of equal-size learning samples.

    The members go through the batched Newton engine in near-equal chunks,
    each within ``_BLOCK_CELLS`` cells of its stacked pooled design, and
    each fit is bitwise that of :func:`fit_m7` on its sample alone. A
    member with no finite answer (a single class at ridge 0, or fitted
    parameters that are not finite) gets its NumericalError in place of a
    fit.
    """
    return _m7_block(source_sample, learnings, config).fits()


def _m7_block(source_sample, learnings, config) -> _Block:
    """The fits of :func:`fit_m7s`, as a _Block."""
    d = source_sample.dimension
    if d < 1:
        raise ValueError("sample must have at least one feature")
    for learning in learnings:
        if learning.dimension != d:
            raise ValueError(
                f"source dimension {d} does not match "
                f"learning dimension {learning.dimension}"
            )
    if len({learning.n_records for learning in learnings}) > 1:
        raise ValueError("the learning samples of a block must be of one size")

    errors: list = [None] * len(learnings)
    source_zeros, source_ones = source_sample.class_counts()
    for i, learning in enumerate(learnings):
        zeros, ones = learning.class_counts()
        try:
            _require_two_classes((source_zeros + zeros, source_ones + ones), config.ridge)
        except NumericalError as err:
            errors[i] = err
    fitted = [i for i, error in enumerate(errors) if error is None]
    x = np.zeros((len(learnings), d + 1))
    converged = np.zeros(len(learnings), dtype=bool)
    if fitted:
        x[fitted], converged[fitted] = _pooled_fits(source_sample, learnings, fitted, config)
    return _finish_block(LinkModelKind.M7, learnings, errors, x[:, 0], x[:, 1:], converged)


def _pooled_fits(source_sample, learnings, fitted, config):
    """The solutions and convergence flags of the pooled refits of the
    members ``fitted``, in near-equal chunks within ``_BLOCK_CELLS``.

    The pooled design ``[1, X]``, labels and offsets are allocated once per
    block, with the intercept column and the source rows written in once;
    a chunk overwrites only the learning rows. The engine's compaction
    moves whole member rows, and every member has the same source rows,
    so they stay intact.
    """
    (m, d), n = source_sample.features.shape, learnings[fitted[0]].n_records
    chunks = _chunks(len(fitted), (m + n) * (d + 1))
    # each member a C-contiguous (m + n, d + 1) slab, the layout of the
    # single fit's design, so that BLAS sums every member in the same order
    design = np.empty((max(map(len, chunks)), m + n, d + 1))
    design[:, :, 0] = 1.0
    design[:, :m, 1:] = source_sample.features
    labels = np.empty(design.shape[:2])
    labels[:, :m] = source_sample.labels
    offset = np.zeros(design.shape[:2])
    newton = dict(
        penalty=np.concatenate(([0.0], np.full(d, config.ridge))),  # intercept free
        max_iterations=config.max_iterations,
        gradient_tolerance=config.gradient_tolerance,
    )
    results = []
    for chunk in chunks:
        members = [fitted[k] for k in chunk]
        for row, i in enumerate(members):
            design[row, m:, 1:] = learnings[i].features
            labels[row, m:] = learnings[i].labels
        # a lone fit is one call of the 2-D entry point, as in estimate_transitions
        if len(members) == 1:
            results.append(maximize_logistic(design[0], labels[0], **newton))
        else:
            k = len(members)
            results += maximize_logistic_batch(design[:k], labels[:k], offset[:k], **newton)
    return [result.x for result in results], [result.converged for result in results]
