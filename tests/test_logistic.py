import ctypes
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import scorelink.logistic as logistic_module
from scorelink import (
    FitConfig,
    LabeledSample,
    LogisticParams,
    NumericalError,
    fit_mle,
    log_likelihood,
    score,
)
from scorelink.logistic import (
    NewtonBatch,
    gradient,
    hessian,
    maximize_logistic,
    maximize_logistic_batch,
    sigmoid,
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

    def test_sigmoid_bitwise_equals_two_branch_formula(self):
        """The one-exp sigmoid gives every bit of the two-branch formula."""
        edges = [0.0, 1e-320, 709.8, 745.2, 1e308, np.inf]
        draws = np.random.default_rng(11).normal(scale=40.0, size=200_000)
        eta = np.concatenate([edges, np.negative(edges), draws])
        expected = np.empty_like(eta)
        pos = eta >= 0
        expected[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
        ez = np.exp(eta[~pos])
        expected[~pos] = ez / (1.0 + ez)
        expected = np.clip(expected, 1e-300, 1.0 - 1e-16)
        assert sigmoid(eta).tobytes() == expected.tobytes()
        assert np.signbit(eta[len(edges)])  # -0.0 is among the edge values


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

    def test_line_search_ascends(self, target):
        """Fits stopped after 1, 2, ... Newton steps are prefixes of one
        deterministic path, and its penalized objective never decreases."""
        full = fit_mle(target)
        assert full.iterations >= 3
        path = [LogisticParams(0.0, np.zeros(target.dimension))]  # the start
        for k in range(1, full.iterations + 1):
            path.append(fit_mle(target, FitConfig(max_iterations=k)).params)
        objective = [log_likelihood(params, target, FitConfig().ridge) for params in path]
        assert np.all(np.diff(objective) >= -1e-9)
        assert_same_bits(path[-1].coefficients, full.params.coefficients)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["ridge", "gradient_tolerance"])
    def test_non_finite_setting_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            FitConfig(**{field: value})

    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
    def test_non_integer_iteration_cap_rejected(self, value):
        """The cap is a step count. The engine stops on steps ==
        max_iterations, so a cap of 2.5 would never fire; a float, even a
        whole one, a bool or a string is an error."""
        with pytest.raises(ValueError, match="max_iterations must be an integer"):
            FitConfig(max_iterations=value)

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


class TestImplicitIntercept:
    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(40, 120),
           st.sampled_from([0.0, 1e-8, 0.5]), st.booleans())
    @example(seed=1, d=3, n=60, ridge=0.0, zero_column=True)
    def test_fit_mle_matches_the_explicit_design(self, seed, d, n, ridge, zero_column):
        """fit_mle passes the sample's own features with the engine's
        implicit intercept column. It reaches the engine's fit on the
        explicit [1, X] design: parameters within 1e-12 relative to
        1 + their norm, the same iteration count and the same converged
        flag. A sample with a zero column at ridge 0 has a singular
        information, and both paths take the least-squares fallback."""
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(n, d))
        truth = rng.normal(scale=0.5, size=d + 1)
        labels = (rng.random(n) < sigmoid(truth[0] + features @ truth[1:])).astype(int)
        labels[:2] = (0, 1)
        if zero_column:
            features[:, 0], ridge = 0.0, 0.0
        sample = LabeledSample(features, labels, tuple(f"x{j}" for j in range(d)))
        config = FitConfig(ridge=ridge)
        lstsq, singular = np.linalg.lstsq, []

        def recording(a, b, rcond=None):
            singular.append(True)
            return lstsq(a, b, rcond=rcond)

        with mock.patch.object(np.linalg, "lstsq", recording):
            report = fit_mle(sample, config)
            implicit_fallbacks = len(singular)
            explicit = maximize_logistic_batch(
                np.column_stack([np.ones(n), features])[None],
                labels[None].astype(float),
                penalty=np.concatenate(([0.0], np.full(d, ridge))),
                max_iterations=config.max_iterations,
                gradient_tolerance=config.gradient_tolerance,
            )
        got = np.concatenate(([report.params.intercept], report.params.coefficients))
        assert np.linalg.norm(got - explicit.x[0]) <= 1e-12 * (1.0 + np.linalg.norm(explicit.x[0]))
        assert (report.iterations, report.converged) == (
            int(explicit.iterations[0]), bool(explicit.converged[0])
        )
        assert report.converged
        if zero_column:
            assert 0 < implicit_fallbacks < len(singular)


class TestSerialization:
    def test_json_roundtrip_full_precision(self, source_fit, tmp_path):
        params = source_fit.params
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params.to_dict()), encoding="utf-8")
        again = LogisticParams.load(path)
        assert again.intercept == params.intercept
        np.testing.assert_array_equal(again.coefficients, params.coefficients)

    def test_field_order(self):
        data = LogisticParams(1.5, np.array([2.0, -3.0])).to_dict()
        assert list(data) == ["intercept", "coefficients"]

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            LogisticParams(float("nan"), np.zeros(2))
        with pytest.raises(ValueError, match="finite"):
            LogisticParams(0.0, np.array([np.inf]))


# Members of a Newton stack that take each exit and fallback of the engine.
MEMBER_KINDS = ("plain", "zero-column", "flat", "overflow", "slow")


@st.composite
def newton_stacks(draw):
    """A stack of logistic problems and the settings shared by its members.

    "zero-column" has an all-zero design column, so at ridge 0 its
    information is singular and the LU step falls back to least squares;
    "flat" has an all-zero design and converges at the start;
    "overflow" is separated by a column of size 1e200, whose squared
    gradient overflows, so its line search reaches the step floor; "slow"
    is separated by a column of size 1e50 and runs into the iteration cap.
    A cap of 0 stops every member at its start, before any step.
    """
    n = draw(st.integers(6, 40))
    p = draw(st.integers(2, 4))
    kinds = draw(st.lists(st.sampled_from(MEMBER_KINDS), min_size=2, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    design = rng.normal(size=(len(kinds), n, p))
    labels = rng.integers(0, 2, size=(len(kinds), n)).astype(float)
    for b, kind in enumerate(kinds):
        if kind == "zero-column":
            design[b, :, -1] = 0.0
        elif kind == "flat":
            design[b] = 0.0
        elif kind in ("overflow", "slow"):
            labels[b] = design[b, :, 1] > 0
            design[b, :, 1] *= 1e200 if kind == "overflow" else 1e50
    if draw(st.booleans()):  # each member column-major, as M5 and M6 store theirs
        design = np.ascontiguousarray(design.transpose(0, 2, 1)).transpose(0, 2, 1)
    settings = dict(
        penalty=np.full(p, draw(st.sampled_from([0.0, 1e-8, 0.5]))),
        center=rng.normal(size=p),
        max_iterations=draw(st.sampled_from([0, 1, 4, 30])),
        gradient_tolerance=draw(st.sampled_from([1e-8, 1e-4])),
    )
    settings["start"] = settings["center"]
    return kinds, design, labels, rng.normal(size=(len(kinds), n)), settings


def assert_same_bits(a, b):
    assert np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def reference_newton(design, labels, offset, penalty, center, start, max_iterations,
                     gradient_tolerance):
    """The one-problem Newton loop the batched engine replaced, as the oracle.

    It takes the engine's softplus, max(eta, 0) + log1p(exp(-|eta|)), and
    its symmetric information z^T z, but recomputes every quantity at each
    point instead of carrying it."""

    def objective(vec):
        eta = offset + design @ vec
        softplus = np.maximum(eta, 0.0) + np.log1p(np.exp(-np.abs(eta)))
        loglik = float(np.sum(labels * eta - softplus))
        return loglik - 0.5 * float(penalty @ (vec - center) ** 2)

    def solve(hess, grad):
        try:
            return np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            pass
        try:
            return np.linalg.lstsq(hess, grad, rcond=None)[0]
        except np.linalg.LinAlgError:
            return grad

    v = start.copy()
    obj = objective(v)
    converged, gradient_norm, iterations = False, np.inf, 0
    for iteration in range(max_iterations + 1):
        prob = sigmoid(offset + design @ v)
        grad = design.T @ (labels - prob) - penalty * (v - center)
        gradient_norm = float(np.linalg.norm(grad))
        if gradient_norm <= gradient_tolerance:
            converged = True
            break
        if iteration == max_iterations:
            break
        z = design * np.sqrt(prob * (1.0 - prob))[:, None]
        step = solve(z.T @ z + np.diag(penalty), grad)
        slope = float(grad @ step)
        if slope <= 0.0:
            step, slope = grad, float(grad @ grad)
        noise = 1e-13 * (1.0 + abs(obj))
        t = 1.0
        while t >= 2.0**-60:
            candidate = v + t * step
            cand_obj = objective(candidate)
            if cand_obj >= obj + 1e-4 * t * slope - noise:
                break
            t /= 2.0
        else:
            break
        v, obj = candidate, cand_obj
        iterations += 1
    return NewtonBatch(v, converged, iterations, gradient_norm)


class TestBatchedNewton:
    @given(newton_stacks())
    def test_member_equals_its_batch_of_one(self, stack):
        """Each member's result is bitwise that of the member fitted alone,
        by the batch of one and by the one-problem reference loop."""
        kinds, design, labels, offset, settings = stack
        with np.errstate(all="ignore"):
            batch = maximize_logistic_batch(
                design.copy(order="K"), labels.copy(), offset.copy(), **settings
            )
            for b, kind in enumerate(kinds):
                alone = maximize_logistic(design[b], labels[b], offset[b], **settings)
                reference = reference_newton(design[b], labels[b], offset[b], **settings)
                got = (bool(batch.converged[b]), int(batch.iterations[b]))
                for want in (alone, reference):
                    assert_same_bits(batch.x[b], want.x)
                    assert got == (want.converged, want.iterations), kind
                    assert_same_bits(batch.gradient_norm[b], want.gradient_norm)

    @given(newton_stacks(), st.booleans())
    def test_member_starts(self, stack, fortran):
        """With a (B, p) start, each member's result is bitwise that of the
        member fitted alone from its own start, also when the starts are
        stored column-major; the points the engine evaluates stay
        C-contiguous. A (p,) start gives bitwise the (B, p) stack of its
        copies."""
        kinds, design, labels, offset, settings = stack
        n, p = design.shape[1:]
        starts = settings["start"] + offset[:, :p]  # a distinct start per member
        if fortran:
            starts = np.asfortranarray(starts)
        matvec, layouts = logistic_module._matvec, []

        def recording(matrix, vector):
            if matrix.shape[-2:] == (n, p):  # the objective's design @ v
                layouts.append(vector.flags.c_contiguous)
            return matvec(matrix, vector)

        def run(start):
            batch_settings = dict(settings, start=start)
            return maximize_logistic_batch(
                design.copy(order="K"), labels.copy(), offset.copy(), **batch_settings
            )

        with np.errstate(all="ignore"), mock.patch.object(logistic_module, "_matvec", recording):
            batch = run(starts)
            shared = run(settings["start"])
            copies = run(np.tile(settings["start"], (len(kinds), 1)))
        assert layouts and all(layouts)
        for field in NewtonBatch._fields:
            assert_same_bits(getattr(shared, field), getattr(copies, field))
        with np.errstate(all="ignore"):
            for b in range(len(kinds)):
                alone = maximize_logistic(
                    design[b], labels[b], offset[b], **dict(settings, start=starts[b])
                )
                assert_same_bits(batch.x[b], alone.x)
                assert (bool(batch.converged[b]), int(batch.iterations[b])) == (
                    alone.converged,
                    alone.iterations,
                )
                assert_same_bits(batch.gradient_norm[b], alone.gradient_norm)

    def test_each_exit_and_fallback_is_taken(self, monkeypatch):
        """The special members of the property test do what it says they do."""
        rng = np.random.default_rng(3)
        kinds = ("plain", "zero-column", "flat", "overflow", "slow")
        design = rng.normal(size=(len(kinds), 30, 3))
        labels = rng.integers(0, 2, size=(len(kinds), 30)).astype(float)
        design[1, :, -1] = 0.0
        design[2] = 0.0
        for b, size in ((3, 1e200), (4, 1e50)):
            labels[b] = design[b, :, 1] > 0
            design[b, :, 1] *= size
        lstsq = np.linalg.lstsq
        singular = []

        def recording(a, b, rcond=None):
            singular.append(not np.any(a[:, -1]))
            return lstsq(a, b, rcond=rcond)

        monkeypatch.setattr(np.linalg, "lstsq", recording)
        with np.errstate(all="ignore"):
            result = maximize_logistic_batch(
                design, labels, np.zeros((len(kinds), 30)), np.zeros(3), max_iterations=30
            )
        assert singular and all(singular)  # only the zero-column member fell back
        # plain, zero-column and flat converge, flat at the start; overflow
        # stops at the step floor at once and slow at the iteration cap
        assert result.converged.tolist() == [True, True, True, False, False]
        assert result.iterations[2:].tolist() == [0, 0, 30]
        assert result.gradient_norm[3] == np.inf
        assert_same_bits(result.x[3], np.zeros(3))  # overflow never left the start


def single_product(design, prob):
    """The information matrix as one general product over all rows."""
    return np.swapaxes(design * (prob * (1.0 - prob))[..., None], -1, -2) @ design


def symmetric_product(design, prob):
    """The information matrix as one symmetric product z^T z over all rows,
    with z = design * sqrt(prob * (1 - prob))."""
    z = design * np.sqrt(prob * (1.0 - prob))[..., None]
    return np.swapaxes(z, -1, -2) @ z


class TestInformation:
    P = 21
    HEIGHT = logistic_module._BLOCK_CELLS // P  # rows of one block

    @pytest.mark.parametrize("shape", [(HEIGHT, P), (3, HEIGHT, P), (2, 40, P)])
    def test_one_block_is_the_single_product(self, rng, shape):
        """A design of at most one block takes the single symmetric product
        z^T z, bit for bit, and its result is exactly symmetric."""
        design = rng.normal(size=shape)
        prob = rng.uniform(0.05, 0.95, size=shape[:-1])
        information = logistic_module._information(design, prob)
        assert_same_bits(information, symmetric_product(design, prob))
        assert_same_bits(information, np.swapaxes(information, -1, -2))

    @pytest.mark.parametrize("column_major", [False, True])
    def test_blocked_member_is_itself_alone(self, rng, column_major):
        """In a stack of designs of about 2.5 blocks, each member is bitwise
        the member alone, and the block sum agrees with the single product
        to a relative 1e-12."""
        design = rng.normal(size=(2, 5 * self.HEIGHT // 2, self.P))
        if column_major:
            design = np.ascontiguousarray(design.transpose(0, 2, 1)).transpose(0, 2, 1)
        prob = rng.uniform(0.05, 0.95, size=design.shape[:-1])
        information = logistic_module._information(design, prob)
        reference = single_product(design, prob)
        for b in range(2):
            alone = logistic_module._information(design[b:b + 1], prob[b:b + 1])
            assert_same_bits(information[b], alone[0])
            np.testing.assert_allclose(information[b], reference[b], rtol=1e-12, atol=0)

    def test_weighted_copy_stays_within_the_budget(self, rng):
        """On a (1, 200,000, 21) design (34 MB) the kernel allocates under
        4 MB: one block's weighted copy, not a copy of the whole design."""
        design = rng.normal(size=(1, 200_000, self.P))
        prob = rng.uniform(0.05, 0.95, size=design.shape[:-1])
        tracemalloc.start()
        try:
            logistic_module._information(design, prob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestPassMemory:
    """A Newton pass over a long design holds few vectors of its length:
    eta and exp(-|eta|) at the point and at one line-search trial, the
    likelihood terms or the residual, and the probabilities. Every other
    temporary is a block within ``_BLOCK_CELLS``."""

    ROWS, D = 200_000, 20
    BOUND = 7.0  # traced peak over one row vector, ROWS x 8 bytes

    def sample(self, scale):
        rng = np.random.default_rng(29)
        features = rng.normal(size=(self.ROWS, self.D))
        eta = features @ rng.normal(scale=scale, size=self.D)
        labels = (rng.random(self.ROWS) < sigmoid(eta)).astype(int)
        return LabeledSample(features, labels, tuple(f"x{j}" for j in range(self.D)))

    def vectors_at_peak(self, fit):
        tracemalloc.start()
        try:
            result = fit()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak / (self.ROWS * 8)

    def test_fit_mle(self):
        """fit_mle on a 200,000 x 20 sample peaks at 5.7 row vectors, all
        of its steps full ones; 8.0 with full-length temporaries in the
        kernels and a float copy of the labels."""
        sample = self.sample(0.3)
        report, vectors = self.vectors_at_peak(lambda: fit_mle(sample))
        assert report.converged
        assert vectors < self.BOUND

    def test_halving_line_search(self):
        """From a far start, where the line search halves its steps, the
        engine peaks at 5.7 row vectors: it holds one trial pair at a
        time, and none through the next pass; 10.0 when a failed trial
        pair lived on."""
        sample = self.sample(3.0)
        result, vectors = self.vectors_at_peak(lambda: maximize_logistic(
            sample.features, sample.labels, start=np.full(self.D, 4.0)))
        assert result.converged and result.iterations > 5
        assert vectors < self.BOUND


finite_etas = hnp.arrays(
    float, st.integers(1, 60), elements=st.floats(allow_nan=False, allow_infinity=False)
)
EDGE_ETAS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e300, -1e300,
                      709.8, -745.1, 36.7, -36.7])


class TestOneExpKernel:
    """The kernel's quantities built from the one e = exp(-|eta|) per point."""

    @given(finite_etas)
    @example(EDGE_ETAS)
    def test_softplus_is_logaddexp(self, eta):
        """max(eta, 0) + log1p(e) is log(1 + exp(eta)) within a few ulp."""
        e = logistic_module._exp_neg_abs(eta)
        np.testing.assert_array_max_ulp(
            logistic_module._softplus(eta, e), np.logaddexp(0.0, eta), maxulp=4
        )

    @given(finite_etas)
    @example(EDGE_ETAS)
    def test_probability_from_e_is_sigmoid(self, eta):
        """The probability the gradient builds from the carried e is
        bitwise sigmoid(eta), so scores and counts do not move."""
        e = logistic_module._exp_neg_abs(eta)
        _, prob = logistic_module._gradient(np.ones((len(eta), 1)), np.zeros(len(eta)), eta, e)
        assert_same_bits(prob, sigmoid(eta))

    def test_one_exp_per_newton_point(self, rng, monkeypatch):
        """On a problem whose full Newton steps are all accepted, the engine
        takes one exp per point: the start and each accepted step."""
        design = np.column_stack([np.ones(300), rng.normal(size=(300, 2))])
        labels = (rng.random(300) < sigmoid(design @ [0.3, 1.0, -0.5])).astype(float)
        exp_neg_abs, calls = logistic_module._exp_neg_abs, []

        def counting(eta):
            calls.append(eta.shape)
            return exp_neg_abs(eta)

        monkeypatch.setattr(logistic_module, "_exp_neg_abs", counting)
        monkeypatch.setattr(logistic_module, "sigmoid", lambda eta: pytest.fail("sigmoid"))
        result = maximize_logistic(design, labels)
        assert result.converged and result.iterations >= 3
        assert len(calls) == result.iterations + 1

    @given(st.integers(1, 3), st.integers(0, 40))
    def test_zero_column_design(self, members, rows):
        """A (B, n, 0) design has a (B, 0) zero gradient and a (B, 0, 0)
        information, and neither raises."""
        design = np.zeros((members, rows, 0))
        eta = np.zeros((members, rows))
        grad, prob = logistic_module._gradient(
            design, np.ones((members, rows)), eta, logistic_module._exp_neg_abs(eta)
        )
        assert grad.shape == (members, 0)
        assert logistic_module._information(design, prob).shape == (members, 0, 0)

    @settings(max_examples=12)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 40), st.booleans())
    def test_blocked_gradient_member_is_itself_alone(self, seed, p, column_major):
        """In a stack of designs of about 2.5 blocks, each member's gradient
        is bitwise the member alone, and the block sum is within a relative
        1e-12 (in norm) of the single product over all rows."""
        rng = np.random.default_rng(seed)
        design = rng.normal(size=(2, 5 * (logistic_module._BLOCK_CELLS // p) // 2, p))
        if column_major:
            design = np.ascontiguousarray(design.transpose(0, 2, 1)).transpose(0, 2, 1)
        labels = rng.integers(0, 2, size=design.shape[:-1]).astype(float)
        eta = rng.normal(scale=3.0, size=design.shape[:-1])
        e = logistic_module._exp_neg_abs(eta)
        grad, prob = logistic_module._gradient(design, labels, eta, e)
        reference = (np.swapaxes(design, -1, -2) @ (labels - prob)[..., None])[..., 0]
        for b in range(2):
            alone, _ = logistic_module._gradient(
                design[b:b + 1], labels[b:b + 1], eta[b:b + 1], e[b:b + 1]
            )
            assert_same_bits(grad[b], alone[0])
            gap = np.linalg.norm(grad[b] - reference[b])
            assert gap <= 1e-12 * np.linalg.norm(reference[b])


@st.composite
def shared_stacks(draw):
    """A stack of problems whose members share a (1, m, q) part of their
    rows ahead of their own (B, n, q) rows, and a cell budget whose row
    blocks may end inside either part or straddle the two."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, m, n = draw(st.integers(1, 4)), draw(st.integers(1, 60)), draw(st.integers(1, 30))
    members = draw(st.integers(1, 4))
    shared = rng.normal(size=(1, m, q))
    own = rng.normal(size=(members, n, q))
    truth = rng.normal(scale=0.5, size=q + 1)
    labels = (rng.random((members, m + n)) < 0.5).astype(float)
    budget = q * draw(st.integers(1, m + n + 1))
    return shared, own, labels, truth, budget


class TestSharedRows:
    @settings(max_examples=40)
    @given(shared_stacks())
    def test_kernels_equal_the_explicit_pooled_design(self, stack):
        """With the implicit intercept and the shared rows given once, the
        linear predictor, the gradient and the information equal those of
        the explicit [1, X] design of each member's pooled rows within
        1e-12 relative, whatever rows the cell budget's blocks hold."""
        shared, own, labels, v, budget = stack
        members, n, q = own.shape
        pooled = np.concatenate([np.broadcast_to(shared, (members, *shared.shape[1:])), own], 1)
        design = np.concatenate([np.ones((*pooled.shape[:2], 1)), pooled], axis=2)
        with mock.patch.object(logistic_module, "_BLOCK_CELLS", budget):
            eta = logistic_module._linear_predictor(own, v, intercept=True, shared=shared)
            e = logistic_module._exp_neg_abs(eta)
            grad, prob = logistic_module._gradient(own, labels, eta, e, True, shared)
            information = logistic_module._information(own, prob, True, shared)
        want_eta = design @ v
        want_grad = np.swapaxes(design, -1, -2) @ (labels - prob)[..., None]
        want_information = single_product(design, prob)
        for got, want in ((eta, want_eta), (grad, want_grad[..., 0]),
                          (information, want_information)):
            assert np.abs(got - want).max() <= 1e-12 * (1.0 + np.abs(want).max())

    @settings(max_examples=40)
    @given(shared_stacks())
    def test_member_equals_its_batch_of_one(self, stack):
        """Each member of a stack with shared rows is bitwise the member
        fitted alone with the same shared rows, also when the cell budget
        splits and straddles the parts or leaves the shared part too large
        for its column-major copy."""
        shared, own, labels, truth, budget = stack
        settings = dict(penalty=np.full(own.shape[-1] + 1, 1e-8), intercept=True, shared=shared)
        with mock.patch.object(logistic_module, "_BLOCK_CELLS", budget):
            batch = maximize_logistic_batch(own.copy(), labels.copy(), **settings)
            for b in range(len(own)):
                alone = maximize_logistic_batch(own[b:b + 1].copy(), labels[b:b + 1].copy(),
                                                **settings)
                for field in NewtonBatch._fields:
                    assert_same_bits(getattr(batch, field)[b], getattr(alone, field)[0])


def information_stack(rng, members, p):
    """Positive-definite information matrices of logistic designs, and gradients."""
    design = rng.normal(size=(members, 3 * p, p))
    prob = rng.uniform(0.1, 0.9, size=(members, 3 * p))
    return single_product(design, prob), rng.normal(size=(members, p))


class TestNewtonSteps:
    def test_positive_definite_stack_takes_one_solve(self, rng, monkeypatch):
        """A stack of positive-definite members is solved by one LU call
        for all of them, each step to a residual of 1e-10 of its gradient."""
        information, grad = information_stack(rng, 7, 6)
        solve, calls = np.linalg.solve, []

        def counting(a, b):
            calls.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counting)
        monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kwargs: pytest.fail("lstsq"))
        steps = logistic_module._newton_steps(information, grad)
        assert calls == [information.shape]
        residual = np.einsum("bij,bj->bi", information, steps) - grad
        assert (np.linalg.norm(residual, axis=1) <= 1e-10 * np.linalg.norm(grad, axis=1)).all()

    def test_singular_member_alone_takes_least_squares(self, rng, monkeypatch):
        """A singular member among positive-definite ones takes lstsq on its
        own matrix; every other member takes the solve it takes alone."""
        information, grad = information_stack(rng, 5, 4)
        information[3, -1, :] = information[3, :, -1] = 0.0
        lstsq, solved = np.linalg.lstsq, []

        def recording(a, b, rcond=None):
            solved.append(a.copy())
            return lstsq(a, b, rcond=rcond)

        monkeypatch.setattr(np.linalg, "lstsq", recording)
        steps = logistic_module._newton_steps(information, grad)
        assert len(solved) == 1
        assert_same_bits(solved[0], information[3])
        assert_same_bits(steps[3], lstsq(information[3], grad[3], rcond=None)[0])
        for b in (0, 1, 2, 4):
            assert_same_bits(steps[b], np.linalg.solve(information[b], grad[b]))

    def test_indefinite_member_takes_the_solve(self, rng):
        """A symmetric, nonsingular but indefinite member is solved by LU
        with the rest of the stack, not sent to least squares: every step
        is bitwise that of np.linalg.solve on its own member."""
        information, grad = information_stack(rng, 4, 2)
        information[2] = [[1.0, 2.0], [2.0, 1.0]]
        steps = logistic_module._newton_steps(information, grad)
        for b in range(4):
            assert_same_bits(steps[b], np.linalg.solve(information[b], grad[b]))

    def test_non_finite_member_takes_its_gradient_silently(self, capfd):
        """A member whose information is not finite, and whose LU fails,
        takes its gradient without least squares, whose LAPACK routine
        would print to the process's standard output; nothing reaches
        either descriptor."""
        information = np.array([[[2.0, 0.5], [0.5, 1.0]], [[np.inf, 0.0], [0.0, 0.0]]])
        grad = np.array([[1.0, 1.0], [3.0, 4.0]])
        steps = logistic_module._newton_steps(information, grad)
        libc = ctypes.CDLL(None)
        libc.fflush.argtypes, libc.fflush.restype = [ctypes.c_void_p], ctypes.c_int
        libc.fflush(None)  # C stdio buffers what LAPACK prints
        assert capfd.readouterr() == ("", "")
        assert_same_bits(steps[0], np.linalg.solve(information[0], grad[0]))
        assert_same_bits(steps[1], grad[1])
