import hashlib
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scorelink.experiment as experiment_module
import scorelink.links as links_module
import scorelink.logistic as logistic_module
from scorelink import (
    DataError,
    NumericalError,
    FitConfig,
    LabeledSample,
    LinkModelKind,
    LogisticParams,
    TransferFit,
    TransitionParams,
    cli,
    estimate_transition,
    fit_m7,
    fit_mle,
    log_likelihood,
    score,
)
from scorelink.dataset import SplitPlan, draw_split, split_rows
from scorelink.experiment import ExperimentConfig
from scorelink.gaussian import (
    AffineLink,
    GaussianClassParams,
    MixtureSpec,
    apply_link,
    gaussian_to_logistic,
    random_homoscedastic_pair,
    sample_mixture,
)
from scorelink.links import compose

ALL_TRANSITION_KINDS = [
    LinkModelKind.M2,
    LinkModelKind.M3,
    LinkModelKind.M4,
    LinkModelKind.M5,
    LinkModelKind.M6,
]


def synthetic_sample(params, n, rng):
    """Draw labels from the logistic model given random features."""
    feats = rng.normal(size=(n, params.dimension))
    probs = score(params, feats)
    labels = (rng.random(n) < probs).astype(int)
    names = tuple(f"x{j}" for j in range(params.dimension))
    return LabeledSample(feats, labels, names)


def block_fits(kind, source, source_sample, learnings, config=FitConfig()):
    """The fits of ``kind`` on the block of features and labels stacked
    from ``learnings``, a TransferFit or NumericalError per member; M7's
    pooled refits start from the source rows' terms at ``source``, as the
    sweep's start from those at its fit."""
    features = np.stack([learning.features for learning in learnings])
    labels = np.stack([learning.labels for learning in learnings])
    if kind is LinkModelKind.M7:
        terms = links_module._source_terms(source_sample, source)
        return links_module._m7_block(terms, features, labels, config).fits()
    return links_module._transition_block(kind, source, features, labels, config).fits()


class TestCompose:
    def test_identity(self):
        source = LogisticParams(1.5, np.array([0.5, -2.0]))
        out = compose(source, TransitionParams(0.0, np.ones(2)))
        assert out.intercept == source.intercept
        np.testing.assert_array_equal(out.coefficients, source.coefficients)

    def test_shift_adds_to_intercept(self):
        source = LogisticParams(1.5, np.array([0.5, -2.0]))
        out = compose(source, TransitionParams(2.0, np.ones(2)))
        assert out.intercept == 3.5
        np.testing.assert_array_equal(out.coefficients, source.coefficients)

    def test_scalar_scaling(self):
        source = LogisticParams(0.0, np.array([1.0, -1.0]))
        out = compose(source, TransitionParams(0.0, np.array([2.0, 2.0])))
        np.testing.assert_array_equal(out.coefficients, [2.0, -2.0])

    def test_dimension_mismatch(self):
        source = LogisticParams(0.0, np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="does not match"):
            compose(source, TransitionParams(0.0, np.ones(3)))


class TestM1:
    def test_identity_transition_and_params(self, source_fit, target):
        fit = estimate_transition(LinkModelKind.M1, source_fit.params, target)
        assert fit.transition.shift == 0.0
        np.testing.assert_array_equal(fit.transition.scale, np.ones(19))
        assert fit.target_params.intercept == source_fit.params.intercept
        np.testing.assert_array_equal(
            fit.target_params.coefficients, source_fit.params.coefficients
        )
        assert fit.converged

    def test_ignores_learning_sample_content(self, source_fit, target):
        plan = SplitPlan(50, 2, seed=99)
        a, _ = draw_split(target, plan, 0)
        b, _ = draw_split(target, plan, 1)
        fit_a = estimate_transition(LinkModelKind.M1, source_fit.params, a)
        fit_b = estimate_transition(LinkModelKind.M1, source_fit.params, b)
        np.testing.assert_array_equal(
            fit_a.target_params.coefficients, fit_b.target_params.coefficients
        )
        assert fit_a.target_params.intercept == fit_b.target_params.intercept

    def test_scores_match_source_model(self, source_fit, target):
        fit = estimate_transition(LinkModelKind.M1, source_fit.params, target)
        x = target.features[:5]
        np.testing.assert_array_equal(
            score(fit.target_params, x), score(source_fit.params, x)
        )


class TestTransitionEstimation:
    def test_m3_matches_grid_search(self, rng):
        """1-D grid over c in [-5, 5], step 1e-3, on the learning likelihood."""
        true_source = LogisticParams(-0.4, np.array([1.2, -0.8, 0.5]))
        shifted = compose(true_source, TransitionParams(0.7, np.ones(3)))
        learning = synthetic_sample(shifted, 400, rng)
        fit = estimate_transition(LinkModelKind.M3, true_source, learning, FitConfig(ridge=0.0))
        assert fit.converged

        grid = np.arange(-5.0, 5.0 + 1e-12, 1e-3)
        eta0 = true_source.intercept + learning.features @ true_source.coefficients
        ll = np.array(
            [
                np.sum(learning.labels * (eta0 + c) - np.logaddexp(0.0, eta0 + c))
                for c in grid
            ]
        )
        best = grid[np.argmax(ll)]
        assert abs(fit.transition.shift - best) <= 2e-3

    def test_m4_consistency_at_identity(self, rng):
        """Data generated by the source model itself: (c, lambda) near (0, 1)."""
        source = LogisticParams(0.3, np.array([0.9, -0.6]))
        learning = synthetic_sample(source, 5000, rng)
        fit = estimate_transition(LinkModelKind.M4, source, learning)
        assert fit.converged
        assert abs(fit.transition.shift - 0.0) <= 0.1
        assert abs(fit.transition.scale[0] - 1.0) <= 0.1

    def test_m2_scale_recovery(self, rng):
        source = LogisticParams(0.1, np.array([1.0, -0.7, 0.4]))
        stretched = compose(source, TransitionParams(0.0, np.full(3, 1.6)))
        learning = synthetic_sample(stretched, 8000, rng)
        fit = estimate_transition(LinkModelKind.M2, source, learning)
        assert fit.converged
        assert np.all(fit.transition.scale == fit.transition.scale[0])
        assert abs(fit.transition.scale[0] - 1.6) <= 0.15

    @pytest.mark.parametrize("kind", ALL_TRANSITION_KINDS)
    def test_constraint_patterns(self, kind, source_fit, target):
        learning, _ = draw_split(target, SplitPlan(150, 1, seed=4), 0)
        fit = estimate_transition(kind, source_fit.params, learning)
        c, scale = fit.transition.shift, fit.transition.scale
        if kind in (LinkModelKind.M2, LinkModelKind.M5):
            assert c == 0.0
        if kind in (LinkModelKind.M2, LinkModelKind.M4):
            assert np.all(scale == scale[0])
        if kind is LinkModelKind.M3:
            np.testing.assert_array_equal(scale, np.ones_like(scale))

    @pytest.mark.parametrize("kind", ALL_TRANSITION_KINDS)
    def test_composition_is_bitwise(self, kind, source_fit, target):
        learning, _ = draw_split(target, SplitPlan(100, 1, seed=8), 0)
        fit = estimate_transition(kind, source_fit.params, learning)
        composed = compose(source_fit.params, fit.transition)
        assert fit.target_params.intercept == composed.intercept
        np.testing.assert_array_equal(fit.target_params.coefficients, composed.coefficients)

    def test_optimizer_dimension_audit(self, source_fit, target, monkeypatch):
        """Each kind optimizes exactly its declared free-parameter count."""
        learning, _ = draw_split(target, SplitPlan(100, 1, seed=2), 0)
        seen = {}
        original = links_module.maximize_logistic_batch

        def recording(design, *args, **kwargs):
            seen["width"] = design.shape[-1]
            return original(design, *args, **kwargs)

        monkeypatch.setattr(links_module, "maximize_logistic_batch", recording)
        d = source_fit.params.dimension
        for kind in ALL_TRANSITION_KINDS:
            seen.clear()
            estimate_transition(kind, source_fit.params, learning)
            assert seen["width"] == kind.free_parameter_count(d)
        assert LinkModelKind.M1.free_parameter_count(d) == 0
        assert LinkModelKind.M7.free_parameter_count(d) == d + 1

    def test_determinism(self, source_fit, target):
        learning, _ = draw_split(target, SplitPlan(100, 1, seed=13), 0)
        a = estimate_transition(LinkModelKind.M6, source_fit.params, learning)
        b = estimate_transition(LinkModelKind.M6, source_fit.params, learning)
        assert a.transition.shift == b.transition.shift
        np.testing.assert_array_equal(a.transition.scale, b.transition.scale)
        assert a.log_likelihood == b.log_likelihood

    @pytest.mark.parametrize("kind", [LinkModelKind.M1, *ALL_TRANSITION_KINDS])
    def test_block_equals_single_fits(self, kind, source_fit, target):
        """A block's fits are bitwise those of each member fitted alone."""
        learnings = [draw_split(target, SplitPlan(150, 6, seed=4), r)[0] for r in range(6)]
        block = block_fits(kind, source_fit.params, None, learnings)
        for learning, fit in zip(learnings, block):
            alone = estimate_transition(kind, source_fit.params, learning)
            assert fit.transition.shift == alone.transition.shift
            assert fit.transition.scale.tobytes() == alone.transition.scale.tobytes()
            assert fit.target_params.coefficients.tobytes() == alone.target_params.coefficients.tobytes()
            assert (fit.log_likelihood, fit.converged) == (alone.log_likelihood, alone.converged)

    def test_m7_rejected(self, source_fit, target):
        with pytest.raises(ValueError, match="fit_m7"):
            estimate_transition(LinkModelKind.M7, source_fit.params, target)

    def test_dimension_mismatch(self, rng):
        source = LogisticParams(0.0, np.array([1.0, -1.0]))
        other = LabeledSample(rng.normal(size=(10, 3)), rng.integers(0, 2, 10), ("a", "b", "c"))
        with pytest.raises(ValueError, match="dimension 3 does not match 2"):
            estimate_transition(LinkModelKind.M4, source, other)

    def test_unidentifiable_scale_pinned(self, rng):
        """A numerically zero source coefficient keeps scale 1 and is flagged."""
        source = LogisticParams(0.2, np.array([1.0, 0.0, -0.8]))
        learning = synthetic_sample(source, 300, rng)
        fit = estimate_transition(LinkModelKind.M6, source, learning)
        assert fit.unidentifiable == (1,)
        assert fit.transition.scale[1] == 1.0


# The paper's {shift} x {scale} grid, written out independently of links.py.
SHIFT_FREE = {"M1": False, "M2": False, "M3": True, "M4": True, "M5": False, "M6": True}
SCALE = {"M1": "fixed", "M2": "common", "M3": "fixed", "M4": "common",
         "M5": "per-coefficient", "M6": "per-coefficient"}


@st.composite
def link_problems(draw):
    """A source fit of dimension 1..5, some coefficients exactly zero, and a
    learning sample drawn from a shifted and rescaled version of it."""
    d = draw(st.integers(1, 5))
    zero = np.array(draw(st.lists(st.booleans(), min_size=d, max_size=d)))
    magnitude = np.array(draw(st.lists(st.floats(0.2, 2.0), min_size=d, max_size=d)))
    sign = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=d, max_size=d)))
    source = LogisticParams(draw(st.floats(-1.0, 1.0)), np.where(zero, 0.0, sign * magnitude))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    truth = LogisticParams(
        source.intercept + rng.normal(scale=0.5),
        source.coefficients * rng.uniform(0.5, 1.5, size=d) + rng.normal(scale=0.2, size=d),
    )
    learning = synthetic_sample(truth, draw(st.integers(30, 150)), rng)
    return source, learning


class TestGridProperties:
    @given(link_problems())
    def test_every_kind_keeps_its_constraints(self, problem):
        source, learning = problem
        zero = tuple(int(j) for j in np.flatnonzero(source.coefficients == 0.0))
        fits = {kind.value: estimate_transition(kind, source, learning)
                for kind in LinkModelKind if kind is not LinkModelKind.M7}
        for name, fit in fits.items():
            shift, scale = fit.transition.shift, fit.transition.scale
            if not SHIFT_FREE[name]:
                assert shift == 0.0, name
            if SCALE[name] == "fixed":
                np.testing.assert_array_equal(scale, np.ones_like(scale), err_msg=name)
            if SCALE[name] == "common":
                assert np.all(scale == scale[0]), name
            expected = zero if SCALE[name] == "per-coefficient" else ()
            assert fit.unidentifiable == expected, name
            assert all(scale[j] == 1.0 for j in fit.unidentifiable), name
        assert fits["M1"].converged
        lls = {name: fit.log_likelihood for name, fit in fits.items() if fit.converged}
        for lo, hi in TestNestedLikelihoods.CHAINS:
            if lo in lls and hi in lls:
                assert lls[lo] <= lls[hi] + 1e-6, (lo, hi)


class TestLinkSymmetries:
    """Reparameterizations of a link problem that must not change its fits."""

    @given(link_problems(), st.data())
    def test_power_of_two_rescaling_is_bitwise(self, problem, data):
        """Feature j times 2^k with b_j times 2^-k leaves every product
        b_j * x_j, so every design and link, bitwise as it was."""
        source, learning = problem
        j = data.draw(st.integers(0, source.dimension - 1))
        k = data.draw(st.integers(-8, 8))
        features, coefficients = learning.features.copy(), source.coefficients.copy()
        features[:, j] *= 2.0**k
        coefficients[j] *= 2.0**-k
        rescaled_source = LogisticParams(source.intercept, coefficients)
        rescaled = LabeledSample(features, learning.labels, learning.feature_names)
        for kind in ALL_TRANSITION_KINDS:
            want = estimate_transition(kind, source, learning)
            got = estimate_transition(kind, rescaled_source, rescaled)
            assert got.transition.shift == want.transition.shift, kind
            assert got.transition.scale.tobytes() == want.transition.scale.tobytes(), kind
            assert got.log_likelihood == want.log_likelihood, kind

    @given(link_problems())
    def test_flipped_labels_and_negated_source_keep_the_likelihood(self, problem):
        """y -> 1 - y with (b0, b) -> (-b0, -b) maps each link problem onto
        itself with c -> -c, so each maximum log-likelihood stays. The
        parameters are not compared: on near-separated M5 and M6 fits they
        move by up to about 1e-6 within the gradient tolerance."""
        source, learning = problem
        negated = LogisticParams(-source.intercept, -source.coefficients)
        flipped = LabeledSample(learning.features, 1 - learning.labels, learning.feature_names)
        for kind in ALL_TRANSITION_KINDS:
            want = estimate_transition(kind, source, learning).log_likelihood
            got = estimate_transition(kind, negated, flipped).log_likelihood
            assert abs(got - want) <= 1e-9, kind


# chi-square 95% quantiles by degrees of freedom
CHI2_95 = {1: 3.841, 2: 5.991, 3: 7.815, 4: 9.488, 5: 11.070, 6: 12.592}


def at_separation(spec, distance):
    """``spec`` with its class means moved along their difference, about
    their midpoint, to Mahalanobis distance ``distance``."""
    one, two = spec.class_one, spec.class_two
    gap = one.mean - two.mean
    factor = distance / np.sqrt(gap @ np.linalg.solve(one.covariance, gap)) / 2.0
    middle = (one.mean + two.mean) / 2.0
    return MixtureSpec(
        GaussianClassParams(middle + factor * gap, one.covariance),
        GaussianClassParams(middle - factor * gap, two.covariance),
        spec.proportions,
    )


def true_links(spec, link, rng):
    """An affine feature link x* = L x + alpha, as (L, alpha), under which
    each of M1-M6 is exactly the true model of the target posterior:
    beta*_j = beta_j / L_j and c = -alpha' beta*."""
    d = spec.dimension
    common = np.full(d, rng.uniform(0.5, 2.0))
    alpha = link.offset
    target = gaussian_to_logistic(spec).coefficients / link.scale
    centred = alpha - (alpha @ target) / (target @ target) * target  # alpha' beta* = 0: c = 0
    return {
        LinkModelKind.M1: (np.ones(d), np.zeros(d)),
        LinkModelKind.M2: (common, np.zeros(d)),
        LinkModelKind.M3: (np.ones(d), alpha),
        LinkModelKind.M4: (common, alpha),
        LinkModelKind.M5: (link.scale, centred),
        LinkModelKind.M6: (link.scale, alpha),
    }


def nests(kind, truth):
    """Whether the link family of ``kind`` contains that of ``truth``."""
    order = {"fixed": 0, "common": 1, "per-coefficient": 2}
    (shift, scale), (true_shift, true_scale) = links_module._GRID[kind], links_module._GRID[truth]
    return shift >= true_shift and order[scale] >= order[true_scale]


class TestWellSpecifiedTruth:
    def test_likelihood_ratio_size(self):
        """With the exact source parameters and a target whose posterior is
        linked to the source's as one model Mk says, every model that nests
        Mk is well specified, so by Wilks' theorem 2(LL_M6 - LL_Mj) is
        about chi-square with the difference of free parameters as degrees
        of freedom. Over 400 samples of n = 200, the test at level 0.05
        rejects in 0.05 +- 0.033 of them (3 binomial standard errors).

        The classes are set 2 Mahalanobis units apart, a Bayes error near
        16%. random_homoscedastic_pair draws them 1.6 to 4.1 units apart
        over seeds 0-2, and at 3.7 units (seed 1) n = 200 is too few for the
        chi-square limit: sizes reach 0.18, while n = 2,000 brings every
        size back to 0.03-0.06. The power against models that do not nest
        the truth is printed, not asserted."""
        rng = np.random.default_rng(0)
        spec, link = random_homoscedastic_pair(5, rng)
        spec = at_separation(spec, 2.0)
        source = gaussian_to_logistic(spec)
        full = LinkModelKind.M6
        kinds = [kind for kind in LinkModelKind if kind not in (LinkModelKind.M7, full)]
        width = full.free_parameter_count(spec.dimension)
        for t, (truth, (scale, offset)) in enumerate(true_links(spec, link, rng).items()):
            target = apply_link(spec, AffineLink(scale, offset))
            samples = [sample_mixture(target, 200, 400 * t + b) for b in range(400)]
            features = np.stack([sample.features for sample in samples])
            labels = np.stack([sample.labels for sample in samples])
            lls = {}
            for kind in (*kinds, full):
                block = links_module._transition_block(
                    kind, source, features, labels, FitConfig(ridge=0.0)
                )
                assert all(block.converged)
                lls[kind] = np.array(block.log_likelihoods)
            rates = {
                kind: np.mean(
                    2.0 * (lls[full] - lls[kind])
                    > CHI2_95[width - kind.free_parameter_count(spec.dimension)]
                )
                for kind in kinds
            }
            print(f"{truth.value} true, rejected at 0.05:",
                  ", ".join(f"{k.value}{'' if nests(k, truth) else ' (power)'} {r:.3f}"
                            for k, r in rates.items()))
            for kind, rate in rates.items():
                if nests(kind, truth):
                    assert abs(rate - 0.05) <= 0.033, (truth, kind, rate)


class TestNestedLikelihoods:
    CHAINS = [
        ("M1", "M2"), ("M2", "M4"), ("M4", "M6"),
        ("M1", "M3"), ("M3", "M4"),
        ("M2", "M5"), ("M5", "M6"),
    ]

    def test_ordering_on_german_learning_samples(self, source, source_fit, target):
        for seed, n in ((0, 60), (1, 120), (2, 200)):
            learning, _ = draw_split(target, SplitPlan(n, 1, seed=seed), 0)
            lls = {}
            for kind in LinkModelKind:
                if kind is LinkModelKind.M7:
                    fit = fit_m7(source, learning)
                else:
                    fit = estimate_transition(kind, source_fit.params, learning)
                if fit.converged:
                    lls[kind.value] = fit.log_likelihood
            for lo, hi in self.CHAINS:
                if lo in lls and hi in lls:
                    assert lls[lo] <= lls[hi] + 1e-6


class TestM6Equivalence:
    def test_matches_unconstrained_refit(self, source_fit, target):
        """With every source coefficient away from zero, M6 spans the whole
        logistic family; it must agree with a direct fit on the sample."""
        assert np.min(np.abs(source_fit.params.coefficients)) > 1e-6
        learning, _ = draw_split(target, SplitPlan(200, 1, seed=21), 0)
        m6 = estimate_transition(LinkModelKind.M6, source_fit.params, learning)
        direct = fit_mle(learning)
        assert m6.converged and direct.converged
        assert abs(m6.log_likelihood - direct.log_likelihood) <= 1e-6
        np.testing.assert_allclose(
            score(m6.target_params, learning.features),
            score(direct.params, learning.features),
            atol=1e-6,
        )

    def test_matches_on_synthetic(self, rng):
        source = LogisticParams(-0.2, np.array([0.8, -0.5, 0.3, 1.1]))
        learning = synthetic_sample(source, 500, rng)
        m6 = estimate_transition(LinkModelKind.M6, source, learning)
        direct = fit_mle(learning)
        assert m6.converged and direct.converged
        assert abs(m6.log_likelihood - direct.log_likelihood) <= 1e-6
        np.testing.assert_allclose(
            score(m6.target_params, learning.features),
            score(direct.params, learning.features),
            atol=1e-6,
        )


class TestM7:
    def test_empty_learning_sample_impossible(self):
        with pytest.raises(DataError, match="empty"):
            LabeledSample(np.empty((0, 2)), np.empty(0), ("a", "b"))

    def test_duplication_invariance(self, rng):
        source = LogisticParams(0.4, np.array([1.0, -0.3]))
        sample = synthetic_sample(source, 200, rng)
        fit7 = fit_m7(sample, sample)
        single = fit_mle(sample)
        np.testing.assert_allclose(
            score(fit7.target_params, sample.features),
            score(single.params, sample.features),
            atol=1e-8,
        )

    def test_pooled_likelihood_beats_source_params(self, source, source_fit, target):
        learning, _ = draw_split(target, SplitPlan(150, 1, seed=33), 0)
        fit7 = fit_m7(source, learning)
        pooled = LabeledSample(
            np.vstack([source.features, learning.features]),
            np.concatenate([source.labels, learning.labels]),
            source.feature_names,
        )
        assert log_likelihood(fit7.target_params, pooled) >= log_likelihood(
            source_fit.params, pooled
        )

    def test_no_transition_params(self, source, target):
        learning, _ = draw_split(target, SplitPlan(50, 1, seed=5), 0)
        fit7 = fit_m7(source, learning)
        assert fit7.transition is None
        assert fit7.kind is LinkModelKind.M7

    def test_dimension_mismatch(self, source, rng):
        other = LabeledSample(rng.normal(size=(10, 3)), rng.integers(0, 2, 10), ("a", "b", "c"))
        with pytest.raises(ValueError, match="does not match"):
            fit_m7(source, other)

    def test_feature_names_must_match(self, source, target):
        """The rows are pooled by column, so the samples must name the same
        features in the same order."""
        learning, _ = draw_split(target, SplitPlan(50, 1, seed=5), 0)
        names = list(learning.feature_names)
        names[3] = "other"
        renamed = LabeledSample(learning.features, learning.labels, names)
        with pytest.raises(DataError, match="feature column 4 is 'other' in the learning "
                                            "sample but 'hoehe' in the source sample"):
            fit_m7(source, renamed)


def zero_first_column(sample):
    features = sample.features.copy()
    features[:, 0] = 0.0
    return LabeledSample(features, sample.labels, sample.feature_names)


def zero_start(dimension):
    return LogisticParams(0.0, np.zeros(dimension))


@st.composite
def m7_blocks(draw):
    """A source sample, a block of equal-size learning samples, a fit config
    and a cell budget that holds 1 to 4 pooled members per chunk.

    Block sizes run past the chunk size without being multiples of it.
    When some members are drawn with a zero feature, feature 0 is zero in
    the source rows and in those members' learning rows: at ridge 0 their
    pooled information is singular and their Newton steps fall back to
    least squares.
    """
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    truth = LogisticParams(rng.normal(scale=0.5), rng.normal(size=d))
    source = synthetic_sample(truth, draw(st.integers(40, 120)), rng)
    n = draw(st.integers(5, 30))
    learnings = [synthetic_sample(truth, n, rng) for _ in range(draw(st.integers(1, 9)))]
    zero = draw(st.lists(st.booleans(), min_size=len(learnings), max_size=len(learnings)))
    ridge = draw(st.sampled_from([0.0, 1e-8, 0.5]))
    if any(zero):
        source = zero_first_column(source)
        learnings = [zero_first_column(s) if z else s for s, z in zip(learnings, zero)]
        ridge = 0.0
    member_cells = (source.n_records + n) * (d + 1) // 2  # what a chunk counts
    budget = draw(st.integers(1, 4)) * member_cells + draw(st.integers(0, member_cells - 1))
    return source, learnings, FitConfig(ridge=ridge), budget


def fit_m7_start(source, config):
    """The point fit_m7 starts from: the source fit, or zero without one."""
    try:
        return fit_mle(source, config).params
    except NumericalError:
        return zero_start(source.dimension)


def intercept_design(features, ridge):
    """The C-contiguous [1, X] design (..., n, d + 1) of (intercept,
    coefficients) on ``features`` (..., n, d), and its ridge vector, which
    leaves the intercept unpenalized: the explicit form of the engine's
    implicit intercept column."""
    *rows, d = features.shape
    design = np.empty((*rows, d + 1))
    design[..., 0] = 1.0
    design[..., 1:] = features
    return design, np.concatenate(([0.0], np.full(d, ridge)))


def pooled_fit(source, learning, config, start):
    """The pooled refit as one Newton run of the engine on the explicit
    [1, X] design of the stacked rows, started at ``start`` without a shared
    first step: its parameters, convergence flag and Newton iterations."""
    pooled = LabeledSample(
        np.vstack([source.features, learning.features]),
        np.concatenate([source.labels, learning.labels]),
        learning.feature_names,
    )
    design, penalty = intercept_design(pooled.features, config.ridge)
    result = logistic_module.maximize_logistic_batch(
        design[None],
        pooled.labels[None].astype(float),
        np.zeros((1, pooled.n_records)),
        penalty,
        start=np.concatenate(([start.intercept], start.coefficients)),
        max_iterations=config.max_iterations,
        gradient_tolerance=config.gradient_tolerance,
    )
    params = LogisticParams(result.x[0, 0], result.x[0, 1:])
    return params, bool(result.converged[0]), int(result.iterations[0])


def params_bits(params):
    return np.concatenate(([params.intercept], params.coefficients)).tobytes()


class TestM7Blocks:
    @settings(max_examples=40)
    @given(m7_blocks())
    def test_member_equals_fit_m7_alone(self, block):
        """Every member of a chunked block, started from fit_m7's start, is
        bitwise fit_m7 on its sample alone: the shared first step is taken
        for the whole block in one call and the engine runs per chunk, and
        neither moves a member's bits."""
        source, learnings, config, budget = block
        start = fit_m7_start(source, config)
        with mock.patch.object(links_module, "_BLOCK_CELLS", budget):
            fits = block_fits(LinkModelKind.M7, start, source, learnings, config)
        for fit, learning in zip(fits, learnings):
            alone = fit_m7(source, learning, config)
            assert params_bits(fit.target_params) == params_bits(alone.target_params)
            assert (fit.converged, fit.log_likelihood) == (alone.converged, alone.log_likelihood)

    @settings(max_examples=40)
    @given(m7_blocks())
    def test_shared_source_rows_match_the_pooled_design(self, block):
        """The engine on a block whose members share the source rows, given
        once, with the implicit intercept, reaches each member's fit on its
        explicitly pooled [1, X] design (pooled_fit) from the same start:
        parameters within 1e-10 relative to 1 + their norm (an optimum may
        sit at zero), the same convergence flag and the same Newton
        iterations. Only the order of the row sums differs."""
        source, learnings, config, _ = block
        start = fit_m7_start(source, config)
        features = np.stack([learning.features for learning in learnings])
        labels = np.stack([
            np.concatenate([source.labels, learning.labels]) for learning in learnings
        ]).astype(float)
        result = logistic_module.maximize_logistic_batch(
            features,
            labels,
            penalty=logistic_module._intercept_ridge(source.dimension, config.ridge),
            start=np.concatenate(([start.intercept], start.coefficients)),
            max_iterations=config.max_iterations,
            gradient_tolerance=config.gradient_tolerance,
            intercept=True,
            shared=source.features[None],
        )
        for b, learning in enumerate(learnings):
            params, converged, iterations = pooled_fit(source, learning, config, start)
            want = np.concatenate(([params.intercept], params.coefficients))
            assert np.linalg.norm(result.x[b] - want) <= 1e-10 * (1.0 + np.linalg.norm(want))
            assert (bool(result.converged[b]), int(result.iterations[b])) == (converged, iterations)

    def test_zero_column_member_takes_least_squares(self, rng, monkeypatch):
        truth = LogisticParams(0.3, np.array([0.8, -1.0]))
        source = zero_first_column(synthetic_sample(truth, 80, rng))
        learnings = [synthetic_sample(truth, 20, rng) for _ in range(3)]
        learnings[1] = zero_first_column(learnings[1])
        config = FitConfig(ridge=0.0)
        start = fit_mle(source, config).params  # coefficient 0 on the zero column
        calls = []
        lstsq = np.linalg.lstsq

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return lstsq(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting)
        fits = block_fits(LinkModelKind.M7, start, source, learnings, config)
        assert calls and all(shape == (3, 3) for shape in calls)
        assert fits[1].target_params.coefficients[0] == 0.0
        assert all(fit.converged for fit in fits)

    def test_single_class_pooled_member_fails_alone(self, rng):
        names = ("a",)
        source = LabeledSample(rng.normal(size=(30, 1)), np.zeros(30, dtype=int), names)
        learnings = [
            LabeledSample(rng.normal(size=(6, 1)), labels, names)
            for labels in ([0, 1, 0, 1, 0, 0], [0] * 6, [1, 1, 0, 0, 1, 0])
        ]
        # a single-class source at ridge 0 has no fit, so fit_m7 starts at zero
        fits = block_fits(LinkModelKind.M7, zero_start(1), source, learnings, FitConfig(ridge=0.0))
        assert isinstance(fits[1], NumericalError)
        for i in (0, 2):
            alone = fit_m7(source, learnings[i], FitConfig(ridge=0.0))
            assert params_bits(fits[i].target_params) == params_bits(alone.target_params)
        with pytest.raises(NumericalError, match="single class"):
            fit_m7(source, learnings[1], FitConfig(ridge=0.0))


class TestM7Start:
    @pytest.fixture(scope="class")
    def blocks(self, source, target):
        """The German sweep's learning blocks at n = 50 and 200: for each,
        the split rows and the stacked features and labels."""
        out = {}
        for n in (50, 200):
            plan = SplitPlan(n, 50, seed=0)
            rows = [split_rows(target, plan, r) for r in range(plan.repetitions)]
            features = np.take(target.features, [learning for learning, _ in rows], axis=0)
            labels = np.take(target.labels, [learning for learning, _ in rows], axis=0)
            out[n] = rows, features, labels
        return out

    def test_start_moves_no_count_and_saves_iterations(
        self, source, source_fit, target, blocks, monkeypatch
    ):
        """On the German sweep's blocks at n = 50 and 200, M7 with the
        shared first step reaches the optimum of the engine run from the
        source fit on each pooled design: equal confusion counts on every
        test split and log-likelihoods within 1e-9. It takes strictly fewer
        Newton member-iterations in total, counted from the engine's
        NewtonBatch arrays; the shared step is not counted."""
        engine, iterations = links_module.maximize_logistic_batch, []

        def counting(*args, **kwargs):
            result = engine(*args, **kwargs)
            iterations.append(int(result.iterations.sum()))
            return result

        monkeypatch.setattr(links_module, "maximize_logistic_batch", counting)
        config = FitConfig()
        terms = links_module._source_terms(source, source_fit.params)
        totals = {}
        for n, (rows, features, labels) in blocks.items():
            block = links_module._m7_block(terms, features, labels, config)
            totals[n, "shared step"] = sum(iterations)
            iterations.clear()
            learnings = [LabeledSample(x, y, source.feature_names) for x, y in zip(features, labels)]
            plain = [pooled_fit(source, s, config, source_fit.params) for s in learnings]
            totals[n, "engine alone"] = sum(steps for _, _, steps in plain)
            assert block.converged == [True] * len(rows)
            assert all(converged for _, converged, _ in plain)
            params = [fit for fit, _, _ in plain]
            counts = experiment_module._block_counts(
                target,
                np.array([test for _, test in rows]),
                np.stack([block.intercepts, [p.intercept for p in params]]),
                np.stack([block.coefficients, [p.coefficients for p in params]]),
                ExperimentConfig().threshold,
            )
            np.testing.assert_array_equal(counts[:, 0], counts[:, 1])
            plain_likelihoods = [log_likelihood(p, s) for p, s in zip(params, learnings)]
            assert np.abs(np.subtract(block.log_likelihoods, plain_likelihoods)).max() <= 1e-9
        print("M7 member-iterations, engine from the source fit -> shared step:", totals)
        for n in blocks:
            assert totals[n, "shared step"] < totals[n, "engine alone"]

    def test_shared_step_is_the_engines_first_step(self, source, source_fit, blocks):
        """The shared first step, built from the source rows' terms and each
        member's learning rows, is the engine's own first Newton step on the
        pooled design, up to the order of the row sums."""
        config = FitConfig()
        terms = links_module._source_terms(source, source_fit.params)
        penalty = logistic_module._intercept_ridge(source.dimension, config.ridge)
        for rows, features, labels in blocks.values():
            starts = links_module._first_steps(terms, features, labels, penalty)
            for start, x, y in zip(starts, features, labels):
                learning = LabeledSample(x, y, source.feature_names)
                one_step = FitConfig(max_iterations=1)
                params, _, steps = pooled_fit(source, learning, one_step, source_fit.params)
                assert steps == 1
                np.testing.assert_allclose(
                    start, np.concatenate(([params.intercept], params.coefficients)),
                    rtol=1e-9, atol=1e-12,
                )


@st.composite
def unpacked_blocks(draw):
    """A link kind, a source fit with some coefficients exactly zero, the
    source sample it came from, and a block of equal-size learning samples
    at a ridge that may leave single-class members without a fit."""
    kind = draw(st.sampled_from(list(LinkModelKind)))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zero = np.array(draw(st.lists(st.booleans(), min_size=d, max_size=d)))
    truth = LogisticParams(rng.normal(scale=0.5), np.where(zero, 0.0, rng.normal(size=d)))
    source_sample = synthetic_sample(truth, draw(st.integers(30, 80)), rng)
    n = draw(st.integers(4, 30))
    learnings = [synthetic_sample(truth, n, rng) for _ in range(draw(st.integers(1, 6)))]
    config = FitConfig(ridge=draw(st.sampled_from([0.0, 1e-8, 0.5])))
    return kind, truth, source_sample, learnings, config


class TestBlockUnpacking:
    @settings(max_examples=60)
    @given(unpacked_blocks())
    def test_fits_are_bitwise_their_single_formulas(self, block):
        """A block-unpacked fit's log-likelihood is bitwise
        log_likelihood(target_params, learning), and an M1-M6 fit's target
        parameters are bitwise compose(source, transition)."""
        kind, source, source_sample, learnings, config = block
        fits = block_fits(kind, source, source_sample, learnings, config)
        for fit, learning in zip(fits, learnings):
            if isinstance(fit, NumericalError):
                continue
            expected = log_likelihood(fit.target_params, learning)
            assert fit.log_likelihood.hex() == expected.hex()
            if kind is not LinkModelKind.M7:
                assert params_bits(compose(source, fit.transition)) == params_bits(
                    fit.target_params
                )


# sha256 of the M1-M7 block fits of golden_blocks(), as fits_digest hashes them
BLOCK_FITS_SHA256 = "4809f63cba69d4a1d78729643f7243b2fb80603ea74a0c7dc2900585bd330f18"
# M7 chunks of two members, each counted at half its (40 + 20) x (d + 1) pooled cells
GOLDEN_M7_CELLS = 40 + 20


def golden_blocks():
    """Seeded blocks of five learning samples that reach the block paths the
    German golden bytes do not: source coefficients that are exactly 0 or
    within IDENTIFIABILITY_EPS of it (the columns M5 and M6 pin into the
    offset, up to three of them), feature columns scaled by 1e3 and
    1e-3, a single-class member at ridge 0 (at seed 3 also for M7, whose
    source rows are then of one class), and M7 fitted in chunks of two
    members, the last one alone when all five fit. Each block is (source
    params, source sample, learning samples, config)."""
    scale = np.array([1e3, 1.0, 1e-3, 1.0])
    pinned = ((1,), (0, 2, 3), (2,), (0, 1, 3))
    for seed, ridge in enumerate((0.0, 1e-8, 0.5, 0.0)):
        rng = np.random.default_rng(seed)
        d = 3 + seed % 2
        names = tuple(f"x{j}" for j in range(d))
        coefficients = rng.normal(size=d) / scale[:d]
        coefficients[list(pinned[seed])] = [0.0, 3e-11, -7e-11][: len(pinned[seed])]
        source = LogisticParams(rng.normal(scale=0.5), coefficients)

        def draw(n, single_class=False):
            features = rng.normal(size=(n, d)) * scale[:d]
            labels = (rng.random(n) < score(source, features)).astype(int)
            return LabeledSample(features, labels * (not single_class), names)

        source_sample = draw(40, single_class=seed == 3)
        learnings = [draw(20, single_class=i == 1) for i in range(5)]
        yield source, source_sample, learnings, FitConfig(ridge=ridge)


def fits_digest(digest, fits):
    """Add each fit's JSON and coefficient bytes, or its error's repr, to ``digest``."""
    for fit in fits:
        if isinstance(fit, NumericalError):
            digest.update(repr(fit).encode())
        else:
            digest.update(json.dumps(fit.to_dict(), allow_nan=False).encode())
            digest.update(fit.target_params.coefficients.tobytes())


class TestBlockDigest:
    def test_block_fits_are_pinned(self, monkeypatch):
        """The M1-M7 block fits of golden_blocks() hash to BLOCK_FITS_SHA256.

        The digest pins every bit of these fits, M7's started from the
        source rows' terms at the block's source parameters. It was
        re-pinned when M7 began at the source fit and a Newton step took
        one linear solve, when the kernel took one exp per Newton point
        and summed the gradient and a symmetric information over row
        blocks, when M7 took a shared first Newton step, and when the
        engine took the intercept column implicit and M7's source rows
        once, as rows its members share; only such a deliberate numerical
        re-baseline updates it, and says so in CHANGES.md.
        """
        digest = hashlib.sha256()
        for source, source_sample, learnings, config in golden_blocks():
            cells = GOLDEN_M7_CELLS * (source.dimension + 1)
            monkeypatch.setattr(links_module, "_BLOCK_CELLS", cells)
            for kind in LinkModelKind:
                fits_digest(digest, block_fits(kind, source, source_sample, learnings, config))
        assert digest.hexdigest() == BLOCK_FITS_SHA256


def reference_link_problem(shift_free, scale_kind, free, source, learning):
    """One member's link design and offset, built from its own (n, d)
    features alone: the reference for the block's array operations."""
    scaled = learning.features * source.coefficients
    ones = np.ones((learning.n_records, int(shift_free)))
    if scale_kind == "fixed":
        return ones, source.intercept + scaled.sum(axis=1)
    if scale_kind == "common":
        return np.column_stack([ones, scaled.sum(axis=1)]), np.full(len(scaled), source.intercept)
    return np.column_stack([ones, scaled[:, free]]), source.intercept + scaled[:, ~free].sum(axis=1)


class TestLinkDesign:
    @pytest.mark.parametrize("kind", ALL_TRANSITION_KINDS)
    def test_block_design_is_the_per_member_one(self, kind):
        """The block's designs and offsets are bitwise those built one member
        at a time, and a per-coefficient member's design is column-major,
        the layout of the single fit's column selection."""
        shift_free, scale_kind = links_module._GRID[kind]
        for source, _, learnings, _ in golden_blocks():
            free = np.abs(source.coefficients) > links_module.IDENTIFIABILITY_EPS
            if scale_kind != "per-coefficient":
                free[:] = False
            features = np.stack([learning.features for learning in learnings])
            members = [0, 2, 3]
            design, offset = links_module._link_design(
                shift_free, scale_kind, free, source, features, members
            )
            for row, i in enumerate(members):
                want_design, want_offset = reference_link_problem(
                    shift_free, scale_kind, free, source, learnings[i]
                )
                assert design[row].tobytes() == want_design.tobytes()
                assert offset[row].tobytes() == want_offset.tobytes()
                if scale_kind == "per-coefficient":
                    assert design[row].flags.f_contiguous


class TestScoreTarget:
    """A fit scores with its target parameters, the source fit linked."""

    def test_m3_shift_formula(self, source_fit, target):
        learning, _ = draw_split(target, SplitPlan(100, 1, seed=1), 0)
        fit = estimate_transition(LinkModelKind.M3, source_fit.params, learning)
        x = target.features[7]
        c = fit.transition.shift
        eta = source_fit.params.intercept + c + float(
            source_fit.params.coefficients @ x
        )
        np.testing.assert_allclose(
            score(fit.target_params, x), 1 / (1 + np.exp(-eta)), rtol=1e-12
        )

    def test_probability_increases_with_shift(self, source_fit, target):
        x = target.features[0]
        probs = [
            score(compose(source_fit.params, TransitionParams(c, np.ones(19))), x)
            for c in (-1.0, 0.0, 1.0, 2.0)
        ]
        assert np.all(np.diff(probs) > 0)


class TestTransferSerialization:
    def test_nan_log_likelihood_is_not_json(self, source_fit):
        fit = TransferFit(
            kind=LinkModelKind.M7,
            transition=None,
            target_params=source_fit.params,
            log_likelihood=float("nan"),
            converged=False,
        )
        with pytest.raises(ValueError, match="JSON compliant"):
            cli._emit(fit.to_dict(), None)

    def test_m1_serialized_fields(self, source_fit, target):
        fit = estimate_transition(LinkModelKind.M1, source_fit.params, target)
        data = fit.to_dict()
        assert data["model"] == "M1"
        assert data["c"] == 0.0
        assert data["lambda"] == [1.0] * 19
