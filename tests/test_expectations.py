import itertools
from dataclasses import replace

import numpy as np
import pytest

from hesspec import (ProblemSpec, QuadratureGrid, ResponseModel,
                     ScaledIdentity, WeightFn, classify_g_support, curvature,
                     curvature_moments, effective_curvature,
                     effective_curvature_sq, expectation_engine, expectations)
from hesspec.config import build_spec
from hesspec.errors import ConfigError, PoleError
from hesspec.models import sample_response
from hesspec.presets import PRESETS, preset_config


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
        lo = effective_curvature(replace(spec, quad_order=64), 0.7)
        hi = effective_curvature(replace(spec, quad_order=128), 0.7)
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
        assert expectation_engine(replace(spec, quad_order=64)).order == 64

    def test_weights_are_a_probability(self):
        p = 16
        for model, weight in [
                (ResponseModel.logistic(), WeightFn.loss_curvature("logistic")),
                (ResponseModel.phase_retrieval(), WeightFn.trim(0.25)),
                (ResponseModel.noisy_factor(link=np.tanh, sigma=0.3),
                 WeightFn.loss_curvature("square"))]:
            spec = make_spec(model=model, weight=weight, w=unit_vec(p, 1.0),
                             w_star=unit_vec(p, 0.8, k=1))
            eng = expectation_engine(replace(spec, quad_order=48))
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
    """sweep is the one kernel behind moments(); with _SWEEP_BYTES cut to
    three rows per chunk, the k deltas span three chunks of the (delta,
    node) intermediates here."""

    DELTAS = np.array([0.3 + 0.2j, -1.5 + 0.01j, 2.0 - 0.5j, 1j, 0.7 + 0j,
                       -0.2 - 0.3j, 4.0 + 4.0j])

    @pytest.fixture
    def eng(self, monkeypatch):
        # h* = 0.7 xi_a and h = 0.9 xi_b are independent, both with mean 0
        p = 16
        eng = expectation_engine(make_spec(w=unit_vec(p, 0.9),
                                           w_star=unit_vec(p, 0.7, k=1),
                                           mu=unit_vec(p, 0.5, k=2)))
        monkeypatch.setattr(expectations, "_SWEEP_BYTES",
                            3 * 2 * 16 * len(eng.g))
        return eng

    @pytest.mark.parametrize("square", [False, True])
    def test_matches_pointwise_calls(self, eng, square):
        e1, e2, moments = eng.sweep(self.DELTAS, square=square)
        assert moments.shape == (len(self.DELTAS), 3, 3)
        for k, d in enumerate(self.DELTAS):
            np.testing.assert_allclose([e1[k], e2[k]], eng.e1_e2(d),
                                       rtol=1e-13, atol=1e-13)
            np.testing.assert_allclose(
                moments[k], eng.moments(None, d, square=square).entries,
                rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("square", [False, True])
    def test_matches_direct_moments(self, eng, square):
        # E[f], E[f u] and E[f (u u^T - K)] summed node by node over the
        # full tensor grid of (h*, h) and both labels, with u = K s
        grid = QuadratureGrid.gauss_hermite(eng.order).normalized()
        xa, xb = np.meshgrid(grid.nodes, grid.nodes, indexing="ij")
        w2 = np.outer(grid.weights, grid.weights).ravel()
        h_star, h = 0.7 * xa.ravel(), 0.9 * xb.ravel()
        prob = 1.0 / (1.0 + np.exp(-h_star))
        K = np.diag([1 / 0.49, 1 / 0.81])
        u = K @ np.vstack([h_star, h])
        moments = eng.sweep(self.DELTAS, square=square)[2]
        for k, d in enumerate(self.DELTAS):
            direct = 0.0
            for y, wy in ((1.0, prob), (-1.0, 1.0 - prob)):
                g = curvature(eng.spec.weight, y, h)
                f = w2 * wy * (g / (1.0 + g * d)) ** (2 if square else 1)
                a, b = np.sum(f), u @ f
                direct = direct + np.block([[np.array([[a]]), b[None, :]],
                                            [b[:, None], (u * f) @ u.T
                                             - a * K]])
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


class TestKernel:
    """The e1/e2 matrix-vector sums and the pole guard on a folded
    phase_square engine (g = 3h^2 - y takes both signs), with the batch
    cut into chunks of three rows as in TestSweep."""

    DELTAS = np.array([0.3 + 0.2j, -1.5 + 0.01j, 2.0 - 0.5j, 1j, 0.7 + 0j,
                       -0.2 - 0.3j, 4.0 + 4.0j, 0.05 + 1e-9j])

    @pytest.fixture
    def eng(self, monkeypatch):
        spec, _ = build_spec({"p": 16, "n": 64, "model": "phase_retrieval",
                              "loss": "phase_square", "seed": 3,
                              "w_star": "pm_block(1.0)", "quad_order": 24,
                              "w": "gaussian_norm(0.8)"})
        eng = expectation_engine(spec)
        monkeypatch.setattr(expectations, "_SWEEP_BYTES",
                            3 * 2 * 16 * len(eng.g))
        return eng

    def direct(self, eng, power):
        return np.array([np.sum(eng.wt * (eng.g / (1.0 + eng.g * d)) ** power)
                         for d in self.DELTAS])

    def test_matches_direct_formula(self, eng):
        assert len(eng.g) > 100 and eng.g.min() < 0 < eng.g.max()
        e1, e2 = self.direct(eng, 1), self.direct(eng, 2)
        for got in (eng.e1_e2(self.DELTAS),
                    np.transpose([eng.e1_e2(d) for d in self.DELTAS]),
                    eng.sweep(self.DELTAS)[:2]):
            np.testing.assert_allclose(got, [e1, e2], rtol=1e-13)
        for square, want in ((False, e1), (True, e2)):
            got = eng.sweep(self.DELTAS, square=square)
            np.testing.assert_allclose(got[:2], [e1, e2], rtol=1e-13)
            np.testing.assert_allclose(got[2][:, 0, 0], want, rtol=1e-13)

    def test_node_blocks_match_the_direct_formula(self, eng, monkeypatch):
        # a large engine's sums run over blocks of _DOT_NODES nodes, added
        # in order; 7-node blocks leave a last block of fewer nodes
        monkeypatch.setattr(expectations, "_DOT_NODES", 7)
        assert len(eng.g) % 7
        e1, e2 = self.direct(eng, 1), self.direct(eng, 2)
        np.testing.assert_allclose(eng.e1_e2(self.DELTAS), [e1, e2],
                                   rtol=1e-13)
        for square, want in ((False, e1), (True, e2)):
            got = eng.sweep(self.DELTAS, square=square)
            np.testing.assert_allclose(got[:2], [e1, e2], rtol=1e-13)
            np.testing.assert_allclose(got[2][:, 0, 0], want, rtol=1e-13)
        pole = -1.0 / eng.g[len(eng.g) // 2]
        with pytest.raises(PoleError) as err:
            eng.e1_e2(np.append(self.DELTAS, pole))
        assert err.value.node == eng.g[len(eng.g) // 2]

    def test_pole_at_an_interior_node(self, eng):
        k = np.flatnonzero((np.abs(eng.g) > 0.1) & (np.abs(eng.g) < 10))
        k = k[len(k) // 2]
        assert 0 < k < len(eng.g) - 1
        pole = -1.0 / eng.g[k]
        for delta in (pole, complex(pole), pole + 1e-13j):
            with pytest.raises(PoleError) as err:
                eng.e1_e2(delta)
            assert err.value.node == eng.g[k]
            with pytest.raises(PoleError):
                eng.e1_e2(np.append(self.DELTAS, delta))
            with pytest.raises(PoleError):
                eng.sweep([0.5, delta], square=True)
        near = pole + 1e-9 * np.array([1, -1, 1j, -1j])
        assert np.all(np.isfinite(eng.e1_e2(near)))
        assert np.all(np.isfinite(eng.sweep(near[:2].real)[0]))
        assert np.isfinite(eng.e1_e2(near[2])[1])


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


def unfolded_sums(spec, order, deltas):
    """(e1, e2, moments, squared moments) at each delta, summed node by
    node over the unfolded tensor grid in the engine's whitening."""
    law = spec.projection_law()
    factor = expectations._factor(law.cov,
                                  expectations._reads(spec.weight))
    rank = factor.shape[1]
    grid = QuadratureGrid.gauss_hermite(order).normalized()
    xi = np.array(list(itertools.product(grid.nodes, repeat=rank)))
    wt = np.array([np.prod(w) for w in itertools.product(grid.weights,
                                                          repeat=rank)])
    h_star, h = law.mean[:, None] + factor @ xi.reshape(len(wt), rank).T
    model = spec.model
    if model.kind == "logistic":
        prob = 1.0 / (1.0 + np.exp(-h_star))
        branches = [(np.ones_like(h), h_star, h, wt * prob),
                    (-np.ones_like(h), h_star, h, wt * (1.0 - prob))]
    elif model.kind == "noisy_factor" and model.sigma > 0:
        inner = QuadratureGrid.gauss_hermite(
            expectations._INNER_NOISE_ORDER).normalized()
        branches = [(model.link(h_star) + model.sigma * x, h_star, h, wt * v)
                    for x, v in zip(inner.nodes, inner.weights)]
    else:
        branches = [(sample_response(model, h_star, None), h_star, h, wt)]
    K = spec.gram_U_pinv
    out = []
    for d in deltas:
        e1 = e2 = 0.0
        mom = [np.zeros((3, 3), complex), np.zeros((3, 3), complex)]
        for y, hs, hh, w in branches:
            g = curvature(spec.weight, y, hh)
            u = K @ (np.vstack([hs, hh]) - law.mean[:, None])
            f = g / (1.0 + g * d)
            e1 += np.sum(w * f)
            e2 += np.sum(w * f * f)
            for m, ff in zip(mom, (w * f, w * f * f)):
                m[0, 0] += np.sum(ff)
                m[0, 1:] += u @ ff
                m[1:, 0] += u @ ff
                m[1:, 1:] += (u * ff) @ u.T - np.sum(ff) * K
        out.append((e1, e2, *mom))
    return out


MODELS = ["logistic", "phase_retrieval", {"kind": "noisy_factor"},
          {"kind": "noisy_factor", "link": "tanh", "sigma": 0.4},
          {"kind": "single_layer_nn"}]
WEIGHTS = [{"loss": "logistic"}, {"loss": "exponential"}, {"loss": "square"},
           {"loss": "phase_square"}, {"weight": "trim"}]
RANKS = {
    "rank0": {"mu": "gaussian_norm(0.6)"},
    "rank1_h": {"mu": "gaussian_norm(0.6)", "w": "gaussian_norm(1.1)"},
    "rank1_hstar": {"mu": "gaussian_norm(0.6)",
                    "w_star": "gaussian_norm(1.2)"},
    "rank1_parallel": {"mu": "gaussian_norm(0.9)", "w_star": "mu", "w": "mu"},
    "rank2": {"mu": "gaussian_norm(0.6)", "w_star": "pm_block(1.2)",
              "w": "gaussian_norm(1.1)"},
}


class TestFold:
    """The folded node set regroups the tensor-grid sums exactly, and the
    cut drops only nodes that cannot change a double."""

    DELTAS = np.array([0.0, 0.37, -0.2 + 0.5j, 1.3 - 0.8j, 0.9 + 1e-3j])

    @pytest.mark.parametrize("rank", sorted(RANKS))
    @pytest.mark.parametrize("weight", WEIGHTS, ids=lambda w: str(
        list(w.values())[0]))
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m if isinstance(
        m, str) else "-".join(map(str, m.values())))
    def test_matches_unfolded_sums(self, model, weight, rank):
        cfg = {"p": 16, "n": 64, "model": model, "seed": 3, "quad_order": 24,
               **weight, **RANKS[rank]}
        if weight.get("loss") in ("logistic", "exponential") and \
                model != "logistic":
            # binary losses need the logistic model's labels in {-1, +1}
            with pytest.raises(ConfigError, match="labels"):
                build_spec(cfg)
            return
        spec, _ = build_spec(cfg)
        eng = expectation_engine(spec)
        assert np.all(np.diff(eng.g) > 0)
        pointwise = np.array([eng.e1_e2(d) for d in self.DELTAS]).T
        got = [*eng.sweep(self.DELTAS), *pointwise,
               eng.sweep(self.DELTAS, square=True)[2]]
        e1, e2, moments, moments_sq = map(np.array, zip(
            *unfolded_sums(spec, 24, self.DELTAS)))
        # each quantity against its largest magnitude over the deltas
        for have, want in zip(got, (e1, e2, moments, e1, e2, moments_sq)):
            assert np.max(np.abs(have - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("name, loss, order, nodes", [
        ("fig1b", "logistic", 96, 68), ("fig1b", "square", 96, 1),
        ("fig1b", "exponential", 96, 136),
        ("fig1cd", "phase_square", 96, 1926),
        ("fig1cd", "phase_square", 400, 8630)])
    def test_node_counts(self, name, loss, order, nodes):
        # the fold leaves 96, 1, 192, 96^2 / 2 and 400^2 / 2 nodes; the cut
        # keeps a count that grows about linearly in the order
        spec, _ = build_spec(dict(preset_config(name), loss=loss,
                                  quad_order=order))
        eng = expectation_engine(spec)
        assert len(eng.g) == len(eng.wt) == nodes
        assert eng.wt.sum() == pytest.approx(1.0, rel=1e-13)

    NOISY = {"p": 400, "n": 2000, "w_star": "pm_block(1.0)",
             "w": "gaussian_norm(0.8)", "loss": "phase_square",
             "model": {"kind": "noisy_factor", "link": "tanh", "sigma": 0.3}}
    COMPLEX = [-0.2 + 0.5j, 1.3 - 0.8j, 0.9 + 1e-3j, 0.5 + 1e-8j,
               -0.02 + 1e-8j, -4.0 + 1e-8j]

    @pytest.mark.parametrize("cfg, order", [
        *[(preset_config(name), 96) for name in PRESETS],
        (preset_config("fig1cd"), 200), (NOISY, 48)],
        ids=[*PRESETS, "fig1cd-200", "noisy_factor-48"])
    def test_pruned_sums_match_the_full_grid(self, cfg, order, monkeypatch):
        spec, _ = build_spec(dict(cfg, quad_order=order))
        eng = expectation_engine(spec)
        # admissible real deltas: 0, a point on each bounded side of the
        # arc and the arc end itself where no node lies on the bound
        cls = classify_g_support(spec)
        deltas = self.COMPLEX + [0.0]
        if cls.lower_bound is not None and cls.lower_bound >= 0:
            deltas.append(1.0)
        if cls.upper_bound is not None and cls.upper_bound > 0:
            deltas.append(-0.5 / cls.upper_bound)
            if eng.g.max() < cls.upper_bound:
                deltas.append(-1.0 / cls.upper_bound)   # fig7: delta = -1
        deltas = np.array(deltas)
        got = [*eng.sweep(deltas), eng.sweep(deltas, square=True)[2]]
        want = map(np.array, zip(*unfolded_sums(spec, order, deltas)))
        for have, full in zip(got, want):
            assert np.max(np.abs(have - full)) <= 1e-14 * np.max(np.abs(full))

        # the omitted weight is under the cut times the largest weight times
        # the dropped count, and over |Im delta| >= 1e-8 it bounds the
        # omitted part of e1 within the tolerance above
        cut = expectations._WEIGHT_CUT
        monkeypatch.setattr(expectations, "_WEIGHT_CUT", 0.0)
        full = expectations.ExpectationEngine(spec)
        dropped = ~np.isin(full.g, eng.g)
        assert np.isin(eng.g, full.g).all()
        omitted = full.wt[dropped].sum()
        assert omitted <= cut * full.wt.max() * dropped.sum()
        assert omitted / 1e-8 <= 1e-14 * np.max(np.abs(got[0]))

    @pytest.mark.parametrize("cfg, order", [
        (preset_config("fig1a"), 96), (preset_config("fig1b"), 96),
        (dict(preset_config("fig2"), loss="exponential"), 96),
        (preset_config("fig1cd"), 96), (NOISY, 48), (NOISY, 96)],
        ids=["fig1a", "fig1b", "fig2-exponential", "fig1cd",
             "noisy_factor-48", "noisy_factor-96"])
    def test_pair_cut_keeps_every_bit(self, cfg, order, monkeypatch):
        # the (y-atom, node) pairs dropped before the fold move no kept
        # node; fig1b's first-moment columns cancel by 16 digits
        spec, _ = build_spec(dict(cfg, quad_order=order))
        cut = expectations.ExpectationEngine(spec)
        monkeypatch.setattr(expectations, "_PAIR_CUT", 0.0)
        full = expectations.ExpectationEngine(spec)
        assert np.array_equal(cut.g, full.g)
        for dtype in (float, complex):
            assert np.array_equal(cut._cols[np.dtype(dtype)],
                                  full._cols[np.dtype(dtype)])


class TestResponseLaw:
    """At w = w* = 0 the folded engine's g values are the exact finite law
    of g, and classify_g_support reads the same law of y."""

    @pytest.mark.parametrize("model, loss", [
        (m, w["loss"]) for m in MODELS for w in WEIGHTS[:4]
        if m == "logistic" or w["loss"] in ("square", "phase_square")],
        ids=lambda v: v if isinstance(v, str) else "-".join(
            map(str, v.values())))
    def test_range_is_the_engine_law(self, model, loss):
        spec, _ = build_spec({"p": 16, "n": 64, "model": model, "loss": loss,
                              "seed": 3, "quad_order": 24, **RANKS["rank0"]})
        cls = classify_g_support(spec)
        if spec.model.sigma > 0 and loss == "phase_square":
            # 3h^2 - y reads the Gaussian noise of y
            assert (cls.lower_bound, cls.upper_bound) == (None, None)
            return
        eng = expectation_engine(spec)
        assert (cls.lower_bound, cls.upper_bound) == (eng.g.min(),
                                                      eng.g.max())
