import numpy as np
import pytest

from hesspec import (ProblemSpec, QuadratureGrid, ResponseModel,
                     ScaledIdentity, WeightFn, curvature, curvature_moments,
                     effective_curvature, effective_curvature_sq,
                     expectation_engine)
from hesspec.errors import PoleError


def make_spec(loss="logistic", model=None, w=None, w_star=None, mu=None,
              weight=None, p=16, n=64):
    z = np.zeros(p)
    return ProblemSpec(p=p, n=n, mu=mu if mu is not None else z,
                       cov=ScaledIdentity(1.0),
                       w_star=w_star if w_star is not None else z,
                       w=w if w is not None else z,
                       model=model or ResponseModel.logistic(),
                       weight=weight or WeightFn.loss_curvature(loss))


def unit_vec(p, norm=1.0, k=0):
    v = np.zeros(p)
    v[k] = norm
    return v


class TestQuadratureGrid:
    def test_raw_weights_sum_to_sqrt_pi(self):
        g = QuadratureGrid.gauss_hermite(64)
        assert g.weights.sum() == pytest.approx(np.sqrt(np.pi), rel=1e-13)

    def test_normalized_is_standard_gaussian(self):
        g = QuadratureGrid.gauss_hermite(64).normalized()
        assert g.weights.sum() == pytest.approx(1.0, rel=1e-13)
        assert g.nodes @ g.weights == pytest.approx(0.0, abs=1e-13)
        assert (g.nodes ** 2) @ g.weights == pytest.approx(1.0, rel=1e-13)
        assert (g.nodes ** 4) @ g.weights == pytest.approx(3.0, rel=1e-12)

    def test_high_order_is_finite(self):
        g = QuadratureGrid.gauss_hermite(400).normalized()
        assert np.all(np.isfinite(g.weights)) and np.all(np.isfinite(g.nodes))


class TestConstantCurvature:
    # with w = w* = 0 the logistic curvature is identically 1/4, so every
    # expectation is a rational function of delta
    def test_e1(self):
        spec = make_spec()
        for delta in (0.0, 0.5, 2.0, 1.0 + 0.3j):
            assert effective_curvature(spec, delta) == pytest.approx(
                0.25 / (1.0 + 0.25 * delta), rel=1e-13)

    def test_e2(self):
        spec = make_spec()
        assert effective_curvature_sq(spec, 2.0) == pytest.approx(
            (0.25 / 1.5) ** 2, rel=1e-13)

    def test_square_loss(self):
        spec = make_spec("square")
        assert effective_curvature(spec, 0.5) == pytest.approx(2.0 / 3.0,
                                                               rel=1e-13)
        assert effective_curvature_sq(spec, 5.0) == pytest.approx(1.0 / 36.0,
                                                                  rel=1e-13)

    def test_moments_degenerate_projections(self):
        # zero-norm projections: K = 0, u = 0, so only the scalar survives
        spec = make_spec()
        mom = curvature_moments(spec, z=-1.0, delta=0.0)
        assert mom.entries[0, 0] == pytest.approx(0.25, rel=1e-13)
        np.testing.assert_allclose(np.abs(mom.entries[0, 1:]), 0.0, atol=1e-14)
        np.testing.assert_allclose(np.abs(mom.entries[1:, 1:]), 0.0, atol=1e-14)

    def test_pole_raises(self):
        spec = make_spec("square")
        with pytest.raises(PoleError):
            effective_curvature(spec, -1.0)


class TestLogisticExpectations:
    def test_against_monte_carlo(self):
        p = 16
        spec = make_spec(w=unit_vec(p, 1.3), w_star=unit_vec(p, 0.7))
        rng = np.random.default_rng(17)
        n_mc = 2_000_000
        h_star = 0.7 * rng.standard_normal(n_mc)
        # h shares the first coordinate with h*: cov = w^T w* = 0.91
        h = (1.3 / 0.7) * h_star
        prob = 1.0 / (1.0 + np.exp(-h_star))
        y = np.where(rng.random(n_mc) < prob, 1.0, -1.0)
        g = curvature(spec.weight, y, h)
        for delta in (0.0, 1.5):
            mc = np.mean(g / (1.0 + g * delta))
            se = np.std(g / (1.0 + g * delta)) / np.sqrt(n_mc)
            assert abs(effective_curvature(spec, delta) - mc) < 4 * se

    def test_even_projection_symmetry(self):
        # mu = w* = 0: y is a symmetric coin independent of h, and the
        # logistic curvature is even in yh, so E[f * u] vanishes
        p = 16
        spec = make_spec(w=unit_vec(p, 2.0))
        mom = curvature_moments(spec, z=-0.5, delta=0.3)
        assert abs(mom.entries[0, 2]) < 1e-13

    def test_flipping_w_leaves_e1(self):
        p = 16
        up = make_spec(w=unit_vec(p, 1.7), w_star=unit_vec(p, 0.5, k=1))
        dn = make_spec(w=-unit_vec(p, 1.7), w_star=unit_vec(p, 0.5, k=1))
        assert effective_curvature(up, 0.8) == pytest.approx(
            effective_curvature(dn, 0.8), rel=1e-13)


class TestEngineNumerics:
    def test_order_convergence(self):
        p = 16
        spec = make_spec(w=unit_vec(p, 2.0), w_star=unit_vec(p, 1.0, k=1),
                         mu=unit_vec(p, 0.5, k=2))
        lo = effective_curvature(spec, 0.7, order=64)
        hi = effective_curvature(spec, 0.7, order=128)
        assert abs(lo - hi) < 1e-9 * abs(hi)

    def test_conjugate_symmetry(self):
        p = 16
        spec = make_spec(w=unit_vec(p, 1.5))
        delta = 0.4 + 0.2j
        a = effective_curvature(spec, delta)
        b = effective_curvature(spec, np.conj(delta))
        assert a == pytest.approx(np.conj(b), rel=1e-14)

    def test_engine_is_cached(self):
        spec = make_spec()
        assert expectation_engine(spec) is expectation_engine(spec)
        assert expectation_engine(spec, 64) is not expectation_engine(spec, 128)

    def test_weights_are_a_probability(self):
        p = 16
        for model, weight in [
                (ResponseModel.logistic(), WeightFn.loss_curvature("logistic")),
                (ResponseModel.phase_retrieval(), WeightFn.trim(0.25)),
                (ResponseModel.noisy_factor(link=np.tanh, sigma=0.3),
                 WeightFn.loss_curvature("square"))]:
            spec = make_spec(model=model, weight=weight, w=unit_vec(p, 1.0),
                             w_star=unit_vec(p, 0.8, k=1))
            eng = expectation_engine(spec, 48)
            assert eng.wt.sum() == pytest.approx(1.0, rel=1e-12)
            assert np.all(eng.wt >= 0)

    def test_noisy_factor_against_direct_integral(self):
        # square loss makes g constant, so the noise marginalization must
        # preserve total mass exactly
        p = 8
        spec = make_spec(model=ResponseModel.noisy_factor(link=np.tanh,
                                                          sigma=0.7),
                         weight=WeightFn.loss_curvature("square"),
                         w=unit_vec(p, 1.0), p=p, n=4 * p)
        assert effective_curvature(spec, 0.25) == pytest.approx(0.8, rel=1e-12)


class TestSweep:
    """sweep is the one kernel behind moments(); k deltas span several
    chunks of the node intermediates here (2 x 96^2 logistic nodes)."""

    DELTAS = np.array([0.3 + 0.2j, -1.5 + 0.01j, 2.0 - 0.5j, 1j, 0.7 + 0j,
                       -0.2 - 0.3j, 4.0 + 4.0j])

    def engine(self):
        p = 16
        return expectation_engine(make_spec(w=unit_vec(p, 0.9),
                                            w_star=unit_vec(p, 0.7, k=1),
                                            mu=unit_vec(p, 0.5, k=2)))

    @pytest.mark.parametrize("square", [False, True])
    def test_matches_pointwise_calls(self, square):
        eng = self.engine()
        e1, e2, moments = eng.sweep(self.DELTAS, square=square)
        assert moments.shape == (len(self.DELTAS), 3, 3)
        for k, d in enumerate(self.DELTAS):
            np.testing.assert_allclose([e1[k], e2[k]], eng.e1_e2(d),
                                       rtol=1e-13, atol=1e-13)
            np.testing.assert_allclose(
                moments[k], eng.moments(None, d, square=square).entries,
                rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("square", [False, True])
    def test_matches_direct_moments(self, square):
        # E[f], E[f u] and E[f (u u^T - K)] summed node by node
        eng = self.engine()
        moments = eng.sweep(self.DELTAS, square=square)[2]
        for k, d in enumerate(self.DELTAS):
            f = eng.wt * (eng.g / (1.0 + eng.g * d)) ** (2 if square else 1)
            a, b = np.sum(f), eng.u @ f
            direct = np.block([[np.array([[a]]), b[None, :]],
                               [b[:, None], (eng.u * f) @ eng.u.T
                                - a * eng.spec.gram_U_pinv]])
            np.testing.assert_allclose(moments[k], direct, rtol=1e-13,
                                       atol=1e-13)

    def test_pole_raises_through_every_entry(self):
        spec = make_spec("square")      # g = 1: the pole is delta = -1
        eng = expectation_engine(spec)
        for delta in (-1.0, -1.0 + 0j):
            with pytest.raises(PoleError):
                eng.sweep([0.5, delta])
            with pytest.raises(PoleError):
                eng.moments(None, delta)
            with pytest.raises(PoleError):
                effective_curvature(spec, delta)


class TestScalarReduction:
    def test_matches_one_dimensional_quadrature(self):
        # mu = w* = 0, |w| = r: h ~ N(0, r^2) and y = +-1 fair coin, so
        # E[g/(1+g delta)] is a plain 1-D Gaussian integral
        p = 16
        r, delta = 2.01, 0.6
        spec = make_spec(w=unit_vec(p, r))
        grid = QuadratureGrid.gauss_hermite(300).normalized()
        q = np.exp(-np.abs(r * grid.nodes))
        g = q / (1.0 + q) ** 2
        direct = np.sum(grid.weights * g / (1.0 + g * delta))
        assert effective_curvature(spec, delta) == pytest.approx(direct,
                                                                 rel=1e-12)
