import numpy as np
import pytest

from hesspec import (GSupportClass, ProblemSpec, ResponseModel, ScaledIdentity,
                     WeightFn, classify_g_support, curvature, loss_value,
                     preprocess_trim, sample_response)
from hesspec.errors import DomainError


def spec_with(loss=None, weight=None, model=None, w_norm=0.0, p=8, n=32):
    w = np.zeros(p)
    if w_norm:
        w[0] = w_norm
    return ProblemSpec(p=p, n=n, mu=np.zeros(p), cov=ScaledIdentity(1.0),
                       w_star=np.zeros(p), w=w,
                       model=model or ResponseModel.logistic(),
                       weight=weight or WeightFn.loss_curvature(loss or "logistic"))


class TestCurvatureValues:
    def test_logistic_at_zero(self):
        assert curvature(WeightFn.loss_curvature("logistic"), 1.0, 0.0) == 0.25

    def test_logistic_formula(self):
        w = WeightFn.loss_curvature("logistic")
        h = 1.7
        expected = np.exp(h) / (1.0 + np.exp(h)) ** 2
        assert curvature(w, 1.0, h) == pytest.approx(expected, rel=1e-14)

    def test_logistic_large_argument_stable(self):
        w = WeightFn.loss_curvature("logistic")
        g = curvature(w, 1.0, 800.0)
        assert np.isfinite(g) and 0 <= g < 1e-100

    def test_exponential(self):
        w = WeightFn.loss_curvature("exponential")
        assert curvature(w, 1.0, 1.0) == pytest.approx(np.exp(-1.0), rel=1e-14)
        assert curvature(w, -1.0, 1.0) == pytest.approx(np.e, rel=1e-14)

    def test_square_is_constant(self):
        w = WeightFn.loss_curvature("square")
        assert np.all(curvature(w, np.array([0.3, -2.0]),
                                np.array([5.0, 0.1])) == 1.0)

    def test_phase_square(self):
        w = WeightFn.loss_curvature("phase_square")
        assert curvature(w, 4.0, 1.0) == pytest.approx(-1.0)
        assert curvature(w, 0.0, 2.0) == pytest.approx(12.0)

    def test_binary_losses_reject_soft_labels(self):
        for loss in ("logistic", "exponential"):
            with pytest.raises(DomainError):
                curvature(WeightFn.loss_curvature(loss), 0.5, 1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            curvature(WeightFn.loss_curvature("logistic"), 1.0, np.inf)


class TestCurvatureIsSecondDerivative:
    # central second difference of the loss reproduces the curvature
    @pytest.mark.parametrize("loss", ["logistic", "exponential", "square",
                                      "phase_square"])
    def test_finite_difference(self, loss):
        rng = np.random.default_rng(42)
        w = WeightFn.loss_curvature(loss)
        eps = 1e-4
        for _ in range(20):
            h = rng.uniform(-2.0, 2.0)
            if loss in ("logistic", "exponential"):
                y = rng.choice([-1.0, 1.0])
            else:
                y = rng.uniform(-1.0, 3.0)
            fd = (loss_value(loss, y, h + eps) - 2 * loss_value(loss, y, h)
                  + loss_value(loss, y, h - eps)) / eps ** 2
            assert curvature(w, y, h) == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_logistic_sign_symmetry(self):
        w = WeightFn.loss_curvature("logistic")
        h = np.linspace(-3, 3, 11)
        np.testing.assert_array_equal(curvature(w, 1.0, h),
                                      curvature(w, -1.0, -h))


class TestTrim:
    def test_fixed_points(self):
        c = 0.2
        assert preprocess_trim(1.0, c) == 0.0
        shift = np.sqrt(2.0 / c) - 1.0
        assert preprocess_trim(0.0, c) == pytest.approx(-1.0 / shift)
        # negative arguments clamp to the value at zero
        assert preprocess_trim(-5.0, c) == preprocess_trim(0.0, c)

    def test_approaches_one(self):
        assert preprocess_trim(1e9, 0.2) == pytest.approx(1.0, abs=1e-8)

    def test_monotone(self):
        t = np.linspace(-2, 50, 300)
        v = preprocess_trim(t, 0.2)
        assert np.all(np.diff(v) >= 0)

    def test_weight_bounds_are_attained_limits(self):
        c = 0.2
        w = WeightFn.trim(c)
        lo, hi = w.bounds
        assert preprocess_trim(0.0, c) == pytest.approx(lo)
        assert preprocess_trim(1e12, c) == pytest.approx(hi, abs=1e-10)
        assert np.all(curvature(w, np.linspace(0, 100, 50), 0.0) <= hi)

    @pytest.mark.parametrize("c, bounds", [
        (0.2, (-1.0 / (np.sqrt(10.0) - 1.0), 1.0)), (2.0, (None, 1.0)),
        (3.0, (None, None))])
    def test_trim_declares_its_range_for_every_ratio(self, c, bounds):
        assert WeightFn.trim(c).bounds == pytest.approx(bounds)
        # the map over t >= 0, up to and through the pole for c > 2
        pole = 1.0 - np.sqrt(2.0 / c)
        t = np.concatenate([pole + np.geomspace(1e-12, 1e3, 400),
                            pole - np.geomspace(1e-12, 1.0, 400)])
        v = preprocess_trim(t[t >= 0.0], c)
        lo, hi = bounds
        assert np.nanmax(v) > 1e6 if hi is None else np.nanmax(v) <= hi
        assert np.nanmin(v) < -1e6 if lo is None else (
            np.nanmin(v) >= lo - 1e-12)

    def test_trim_rejects_bad_ratio(self):
        with pytest.raises(DomainError):
            WeightFn.trim(0.0)


class TestSampleResponse:
    def test_deterministic_given_seed(self):
        h = np.linspace(-2, 2, 100)
        y1 = sample_response(ResponseModel.logistic(), h,
                             np.random.Generator(np.random.Philox(5)))
        y2 = sample_response(ResponseModel.logistic(), h,
                             np.random.Generator(np.random.Philox(5)))
        np.testing.assert_array_equal(y1, y2)

    def test_logistic_mean_matches_link(self):
        rng = np.random.default_rng(0)
        h = np.full(200_000, 1.3)
        y = sample_response(ResponseModel.logistic(), h, rng)
        assert set(np.unique(y)) == {-1.0, 1.0}
        assert y.mean() == pytest.approx(np.tanh(1.3 / 2.0), abs=5e-3)

    def test_phase_retrieval_is_squared_projection(self):
        h = np.array([-2.0, 0.5, 3.0])
        y = sample_response(ResponseModel.phase_retrieval(), h,
                            np.random.default_rng(0))
        np.testing.assert_allclose(y, h ** 2)

    def test_noisy_factor_noise_level(self):
        rng = np.random.default_rng(1)
        model = ResponseModel.noisy_factor(link=np.tanh, sigma=0.5)
        h = np.zeros(100_000)
        y = sample_response(model, h, rng)
        assert y.std() == pytest.approx(0.5, rel=0.02)

    def test_single_layer_nn(self):
        model = ResponseModel.single_layer_nn(activation=np.tanh)
        h = np.array([0.0, 1.0])
        np.testing.assert_allclose(
            sample_response(model, h, np.random.default_rng(0)), np.tanh(h))

    def test_model_validation(self):
        with pytest.raises(DomainError):
            ResponseModel("nonsense")
        with pytest.raises(DomainError):
            ResponseModel("noisy_factor")  # missing link


class TestSupportClassification:
    def test_logistic_bounded_quarter(self):
        cls = classify_g_support(spec_with("logistic", w_norm=1.0))
        assert cls.bounded and cls.upper_bound == 0.25 and cls.lower_bound == 0.0

    def test_square_constant(self):
        cls = classify_g_support(spec_with("square"))
        assert cls.bounded and cls.upper_bound == cls.lower_bound == 1.0

    def test_exponential_unbounded_with_random_projection(self):
        cls = classify_g_support(spec_with("exponential", w_norm=1.0))
        assert not cls.bounded

    def test_exponential_degenerate_projection_bounded(self):
        cls = classify_g_support(spec_with("exponential", w_norm=0.0))
        assert cls.bounded

    def test_phase_square_unbounded(self):
        spec = spec_with("phase_square", model=ResponseModel.phase_retrieval(),
                         w_norm=1.0)
        assert not classify_g_support(spec).bounded

    def test_trim_bounded_by_declaration(self):
        spec = spec_with(weight=WeightFn.trim(0.2),
                         model=ResponseModel.phase_retrieval(), w_norm=1.0)
        cls = classify_g_support(spec)
        assert cls.bounded and cls.upper_bound == 1.0

    @pytest.mark.parametrize("bounds", [None, (1.0,), (1.0, -1.0)],
                             ids=["missing", "one_value", "reversed"])
    def test_undeclared_preprocess_rejected(self, bounds):
        with pytest.raises(DomainError):
            WeightFn.preprocess(np.tanh, bounds)

    def test_declared_half_line_classified_as_declared(self):
        spec = spec_with(weight=WeightFn.preprocess(np.exp, (0.0, None)),
                         model=ResponseModel.phase_retrieval(), w_norm=1.0)
        cls = classify_g_support(spec)
        assert (cls.lower_bound, cls.upper_bound) == (0.0, None)
        assert not cls.bounded

    @pytest.mark.parametrize("lo, hi, bounded", [
        (0.0, 0.25, True), (1.0, 1.0, True), (0.0, None, False),
        (None, 1.0, False), (None, None, False)])
    def test_bounded_means_both_bounds_known(self, lo, hi, bounded):
        assert GSupportClass(lo, hi).bounded is bounded
