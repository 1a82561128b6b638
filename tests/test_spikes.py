import warnings

import numpy as np
import pytest

from hesspec import (Diagonal, ProblemSpec, ResponseModel, ScaledIdentity,
                     WeightFn, alignment, analyze, build_spec,
                     default_scan_range, find_spikes, model_spike_scalar,
                     resolvent_forms, signal_spike_closed_form, solve_point,
                     spike_det, spike_matrix, spike_matrix_deriv, support)
from hesspec.presets import preset_config


def make_spec(p, n, mu=0.0, w_star=0.0, w=0.0, cov=None, model=None,
              weight=None):
    def vec(norm, k):
        v = np.zeros(p)
        if norm:
            half = p // 2
            v[:half], v[half:] = -1.0, 1.0
            v *= norm / np.sqrt(p)
        return v
    return ProblemSpec(p=p, n=n, mu=vec(mu, 0), cov=cov or ScaledIdentity(1.0),
                       w_star=vec(w_star, 1), w=vec(w, 2),
                       model=model or ResponseModel.logistic(),
                       weight=weight or WeightFn.loss_curvature("logistic"))


def theory(spec):
    an = analyze(spec)
    return an.support, an.spikes


class TestResolventForms:
    def test_identity_cov_is_m_times_gram(self):
        spec = make_spec(64, 256, mu=0.9, w_star=0.7, w=1.2)
        z = -0.4
        pt = solve_point(spec, z)
        vqv = resolvent_forms(spec, z, point=pt)
        np.testing.assert_allclose(vqv, pt.m * (spec.V.T @ spec.V), rtol=1e-10)

    def test_against_dense_resolvent(self):
        # (e(z) C - z I)^{-1} assembled explicitly for a two-block C
        p = 200
        cov = Diagonal(np.repeat([1.0, 2.0], p // 2))
        spec = make_spec(p, 1200, mu=1.0, w_star=0.5, w=0.8, cov=cov)
        z = -0.6
        pt = solve_point(spec, z)
        dense = np.diag(1.0 / (pt.e.real * cov.entries - z))
        expected = spec.V.T @ dense @ spec.V
        np.testing.assert_allclose(resolvent_forms(spec, z, point=pt).real,
                                   expected, rtol=1e-10)

    def test_far_field_det_tends_to_one(self):
        spec = make_spec(64, 256, mu=0.9, w_star=0.7, w=1.2)
        assert spike_det(spec, -1e6) == pytest.approx(1.0, abs=1e-4)


class TestSignalSpike:
    def test_pure_signal_determinant_formula(self):
        # pure signal: det G(z) = 1 + rho * m(z) / (4 + c m(z))
        rho, p, n = 0.8, 512, 2048
        spec = make_spec(p, n, mu=np.sqrt(rho))
        c = p / n
        for z in (0.58, 0.65, 0.9, -0.2):
            m = solve_point(spec, z).m.real
            expected = 1.0 + rho * m / (4.0 + c * m)
            assert spike_det(spec, z) == pytest.approx(expected, rel=1e-9)

    def test_location_and_alignment_match_closed_form(self):
        rho, p, n = 0.8, 512, 2048
        spec = make_spec(p, n, mu=np.sqrt(rho))
        sup, spikes = theory(spec)
        assert len(spikes) == 1
        lam, align = signal_spike_closed_form(rho, p / n)
        s = spikes[0]
        assert s.location == pytest.approx(lam, abs=1e-8)
        assert s.side == "right"
        assert s.alignment[0, 0] / rho == pytest.approx(align, abs=1e-8)

    def test_subcritical_no_spike(self):
        p, n = 512, 2048
        spec = make_spec(p, n, mu=np.sqrt(0.3))  # below sqrt(c) = 0.5
        _, spikes = theory(spec)
        assert spikes == []

    def test_closed_form_threshold(self):
        lam, align = signal_spike_closed_form(0.4, 0.25)
        assert lam == 0.5625 and align == 0.0
        with pytest.raises(ValueError):
            signal_spike_closed_form(-1.0, 0.25)


class TestDerivative:
    def test_matches_finite_difference(self):
        spec = make_spec(64, 640, mu=0.6, w_star=0.4, w=2.0)
        rng = np.random.default_rng(31)
        h = 1e-6
        for _ in range(20):
            z = rng.uniform(0.61, 1.2)  # safely right of the bulk
            d = spike_matrix_deriv(spec, z)
            fd = (spike_matrix(spec, z + h).entries
                  - spike_matrix(spec, z - h).entries) / (2 * h)
            np.testing.assert_allclose(d, fd, rtol=1e-4, atol=1e-8)

    def test_det_derivative_via_jacobi_formula(self):
        spec = make_spec(64, 640, mu=0.9)
        z, h = 0.8, 1e-6
        G = spike_matrix(spec, z).entries.real
        Gp = spike_matrix_deriv(spec, z).real
        jacobi = np.linalg.det(G) * np.trace(np.linalg.solve(G, Gp))
        fd = (spike_det(spec, z + h) - spike_det(spec, z - h)) / (2 * h)
        assert jacobi == pytest.approx(fd, rel=1e-4)


class TestAlignmentMatrix:
    def test_symmetry_and_embedding(self):
        spec = make_spec(512, 2048, mu=1.0)
        _, spikes = theory(spec)
        A = spikes[0].alignment
        np.testing.assert_allclose(A, A.T, atol=1e-10)
        # w* and w are zero, so their rows/columns must be exactly zero
        np.testing.assert_array_equal(A[1:, :], np.zeros((2, 3)))

    def test_positive_on_the_signal_direction(self):
        spec = make_spec(512, 2048, mu=1.0)
        _, spikes = theory(spec)
        assert spikes[0].alignment[0, 0] > 0


class TestModelSpike:
    def test_scalar_solver_against_generic(self):
        p, n = 800, 8000
        w_norm = 2.01
        spec = make_spec(p, n, w=w_norm)
        sup, spikes = theory(spec)
        left = [s for s in spikes if s.side == "left"]
        assert len(left) == 1
        gap_s, align_s, loc_s, edge_s = model_spike_scalar(w_norm, p / n)
        s = left[0]
        assert s.location == pytest.approx(loc_s, abs=1e-6)
        assert s.alignment[2, 2] / w_norm ** 2 == pytest.approx(align_s,
                                                                abs=1e-5)
        assert s.gap == pytest.approx(gap_s, abs=2e-4)

    def test_no_spike_for_small_w(self):
        gap, align, loc, edge = model_spike_scalar(0.5, 0.1)
        assert gap is None and loc is None
        assert edge > 0

    def test_gap_is_unimodal_in_w(self):
        w_grid = np.linspace(1.2, 8.0, 18)
        gaps = [model_spike_scalar(w, 0.1)[0] for w in w_grid]
        gaps = np.array([g if g is not None else 0.0 for g in gaps])
        k = int(np.argmax(gaps))
        assert 0 < k < len(gaps) - 1
        assert np.all(np.diff(gaps[:k + 1]) > 0)
        assert np.all(np.diff(gaps[k:]) < 0)

    def test_edge_matches_generic_support(self):
        p, n = 800, 8000
        spec = make_spec(p, n, w=2.01)
        sup, _ = theory(spec)
        edge = model_spike_scalar(2.01, p / n)[3]
        assert sup.intervals[0][0] == pytest.approx(edge, abs=5e-4)


class TestMixedSpike:
    def test_mean_and_independent_w(self):
        # a mean direction plus an independent evaluation point: the
        # generic pipeline must still find a simple right spike whose
        # alignment concentrates on mu
        rng = np.random.default_rng(7)
        p, n = 400, 3000
        mu = rng.standard_normal(p)
        mu /= np.linalg.norm(mu)
        w = rng.standard_normal(p)
        w /= np.linalg.norm(w)
        spec = ProblemSpec(p=p, n=n, mu=mu, cov=ScaledIdentity(1.0),
                           w_star=mu.copy(), w=w,
                           model=ResponseModel.logistic(),
                           weight=WeightFn.loss_curvature("logistic"))
        sup, spikes = theory(spec)
        right = [s for s in spikes if s.side == "right"]
        assert len(right) == 1
        assert right[0].alignment[0, 0] > 0.1


def exact_theory(cfg, order=None):
    spec, _ = build_spec(cfg)
    sup = support(spec, default_scan_range(spec, order), order=order)
    return spec, sup, find_spikes(spec, sup, order=order)


class TestExactSpikes:
    @pytest.mark.parametrize("rho", [0.6, 1.0, 3.0, 10.0, 30.0])
    def test_signal_spike_closed_form(self, rho):
        spec, _, spikes = exact_theory({
            "p": 512, "n": 2048, "mu": "pm_block(%.17g)" % np.sqrt(rho),
            "model": "logistic", "loss": "logistic"})
        lam, align = signal_spike_closed_form(rho, spec.c)
        assert len(spikes) == 1
        assert spikes[0].location == pytest.approx(lam, abs=1e-9)
        assert spikes[0].cos2(spec.V)[0] == pytest.approx(align, abs=1e-9)

    @pytest.mark.parametrize("w_norm", [1.46, 2.01, 3.37, 8.0])
    def test_model_spike_edge_and_gap(self, w_norm):
        spec, sup, spikes = exact_theory({
            "p": 800, "n": 8000, "w": "pm_block(%.17g)" % w_norm,
            "model": "logistic", "loss": "logistic"}, order=400)
        gap, _, loc, edge = model_spike_scalar(w_norm, spec.c, order=400)
        assert sup.intervals[0][0] == pytest.approx(edge, abs=1e-9)
        assert len(spikes) == 1 and spikes[0].side == "left"
        assert spikes[0].location == pytest.approx(loc, abs=1e-9)
        assert spikes[0].gap == pytest.approx(gap, abs=1e-9)

    def test_two_atom_mean_spike_in_the_gap(self):
        # fig3 "four" with w = 0 (constant curvature 1/4); location and cos2
        # with mu computed once with perfbench/oracles.py constant_curvature
        cfg = dict(preset_config("fig3"), w="zeros",
                   cov={"diag_blocks": [[1.0, 400], [4.0, 400]]})
        spec, _, spikes = exact_theory(cfg)
        assert len(spikes) == 1
        assert spikes[0].location == pytest.approx(0.37580201441546773,
                                                   abs=1e-9)
        assert spikes[0].cos2(spec.V)[0] == pytest.approx(0.15975939504741854,
                                                          abs=1e-9)


class TestHardEdge:
    def test_no_spike_where_z_is_flat(self):
        # trimmed phase retrieval at c = 2: WeightFn.trim(2) ranges over
        # (-inf, 1), so the arc ends at delta = -1, a hard right edge at
        # z = 2 + E[g/(1-g)] = 2 + E[y - 1] = 2 where z(delta) is flat.
        # det G changes sign between the polished slope zero and the
        # arc's end, which map to the same z, and no spike lies there
        spec, _ = build_spec({
            "p": 400, "n": 200, "w_star": "pm_block(1.0)",
            "w": "pm_block(0.8)", "model": "phase_retrieval",
            "weight": "trim"})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            an = analyze(spec)
            assert an.spikes == []
        assert an.support.intervals[-1][1] == pytest.approx(2.0, abs=1e-9)


class TestTrimmedRetrieval:
    """fig7: phase retrieval with the trimming weight, c = 0.2 and
    w = sqrt(2/3) w*, at points of the preset's |w*| sweep."""

    NORMS = np.linspace(0.1, 2.0, 30)

    def theory(self, r, order=None):
        cfg = dict(preset_config("fig7"), w_star="pm_block(%.17g)" % r,
                   w="pm_block(%.17g)" % (r * np.sqrt(2.0 / 3.0)))
        return exact_theory(cfg, order)

    @pytest.mark.parametrize("k", [6, 7])
    def test_no_spike_below_threshold(self, k):
        # |w*| = 0.4931, 0.5586: the trimming oracle has no spike here
        _, _, spikes = self.theory(self.NORMS[k])
        assert spikes == []

    def test_hard_edge_and_spike(self):
        # |w*| = 0.6241; right edge, spike and its cos2 with w* from
        # perfbench/oracles.py trim_retrieval(0.6241..., 0.2, order=400)
        spec, sup, spikes = self.theory(self.NORMS[8], order=400)
        assert sup.intervals[-1][1] == pytest.approx(0.006958177413334821,
                                                     abs=1e-6)
        assert len(spikes) == 1
        assert spikes[0].location == pytest.approx(0.03810378054402788,
                                                   abs=1e-6)
        assert spikes[0].cos2(spec.V)[1] == pytest.approx(0.7431531674204144,
                                                          abs=1e-6)
