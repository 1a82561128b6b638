"""End-to-end acceptance checks against fixed reference values.

Each class checks one deliverable of the library: spike locations and
alignments against closed forms and against reference values of the
evaluation-point gap (the converged scalar solver, confirmed by an
independent Monte Carlo extrapolation), empirical Monte Carlo agreement
at the stated trial counts, density accuracy, support detection,
curvature-support classification, core numerical identities, and
distributional universality.
"""
import functools
import time

import numpy as np
import pytest
from scipy import stats

from hesspec import (ProblemSpec, ResponseModel, ScaledIdentity, WeightFn,
                     analyze, build_spec, classify_g_support, compare,
                     curvature, default_scan_range, density, loss_value,
                     measure_alignment, model_spike_scalar, pinv2, run_trial,
                     run_trials, signal_spike_closed_form, solve_point,
                     spike_matrix, spike_matrix_deriv, support)


def theory_pipeline(cfg, grid=400):
    spec, seed = build_spec(cfg)
    an = analyze(spec, grid=grid)
    return spec, seed, an.curve, an.support, an.spikes


def signal_cfg(rho, p=512, n=2048, seed=101):
    return {"p": p, "n": n, "mu": "pm_block(%.17g)" % np.sqrt(rho),
            "model": "logistic", "loss": "logistic", "seed": seed}


def evaluation_cfg(w_norm, p=800, n=8000, seed=102):
    return {"p": p, "n": n, "w": "pm_block(%.17g)" % w_norm,
            "model": "logistic", "loss": "logistic", "seed": seed}


def retrieval_cfg(w_star_norm, p=800, n=4000, seed=103):
    return {"p": p, "n": n, "w_star": "pm_block(%.17g)" % w_star_norm,
            "w": "pm_block(%.17g)" % (w_star_norm * np.sqrt(2.0 / 3.0)),
            "model": "phase_retrieval", "weight": "trim", "seed": seed}


class TestSignalSpikeLocation:
    def test_location_and_runtime(self):
        # warm the quadrature/eigensolver code paths before timing
        build_spec(signal_cfg(0.8))
        start = time.perf_counter()
        _, _, _, _, spikes = theory_pipeline(signal_cfg(0.8))
        elapsed = time.perf_counter() - start
        assert len(spikes) == 1
        assert spikes[0].location == pytest.approx(0.590625, abs=1e-6)
        assert elapsed < 1.0


class TestSignalAlignmentSweep:
    # reference alignment values at |mu|^2 = 0.10 ... 1.50
    REFERENCE = [0.000000, 0.000000, 0.000000, 0.000000, 0.000000,
                 0.215686, 0.360902, 0.464286, 0.541063, 0.600000,
                 0.646465, 0.683908, 0.714640, 0.740260, 0.761905]

    def test_theory_curve(self):
        start = time.perf_counter()
        for k, ref in enumerate(self.REFERENCE):
            rho = 0.1 * (k + 1)
            spec, _, _, _, spikes = theory_pipeline(signal_cfg(rho))
            got = (spikes[0].alignment[0, 0] / rho) if spikes else 0.0
            assert got == pytest.approx(ref, abs=1e-5), f"|mu|^2 = {rho}"
        assert time.perf_counter() - start < 110.0

    def test_empirical_alignment_50_trials(self):
        spec, seed, _, _, spikes = theory_pipeline(signal_cfg(1.0))
        theo = spikes[0].alignment[0, 0] / 1.0
        trials = run_trials(spec, "gaussian", [seed + k for k in range(50)],
                            [-1])
        vals = [measure_alignment(tr.paired[0][1], spec.mu) for tr in trials]
        assert abs(np.mean(vals) - theo) < 0.03


class TestEvaluationPointSpike:
    W_NORM = 2.01

    def test_theory_gap_reference_value(self):
        gap, _, _, _ = model_spike_scalar(self.W_NORM, 0.1)
        # converged scalar-solver value (Gauss-Hermite orders 96-800 agree to
        # 1e-10); an independent numpy-only Monte Carlo, n = 10p, p = 400 to
        # 3200, with the edge fitted as lambda_2(p) = E + a p^(-2/3), minus the
        # mean smallest eigenvalue, gives 0.01218 +- 7e-5
        assert gap == pytest.approx(0.01226, abs=5e-4)

    def test_theory_alignment_reference_value(self):
        _, align, _, _ = model_spike_scalar(self.W_NORM, 0.1)
        assert align == pytest.approx(0.8540, abs=5e-3)

    def test_empirical_50_trials(self):
        spec, seed, _, _, spikes = theory_pipeline(evaluation_cfg(self.W_NORM))
        left = [s for s in spikes if s.side == "left"]
        assert len(left) == 1
        spike = left[0]
        theo_align = spike.alignment[2, 2] / self.W_NORM ** 2
        gaps, aligns = [], []
        for tr in run_trials(spec, "gaussian", [seed + k for k in range(50)],
                             [0]):
            gaps.append(tr.eigenvalues[1] - tr.eigenvalues[0])
            aligns.append(measure_alignment(tr.paired[0][1], spec.w))
        assert abs(np.mean(gaps) - spike.gap) < 0.005
        assert abs(np.mean(aligns) - theo_align) < 0.03


class TestGapUnimodality:
    # gaps at c = 0.1 from the converged scalar solver (orders 400 and 800
    # agree to 4e-9 at |w| = 8); the Monte Carlo extrapolation described in
    # TestEvaluationPointSpike gives 0.00226 +- 6e-5 (1.46, fit over
    # p >= 800), 0.01891 +- 6e-5 (3.37) and 0.00815 +- 3e-5 (8.00)
    REFERENCE = {1.46: 0.00231, 3.37: 0.0190, 8.00: 0.00816}

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def gap(w_norm):
        return model_spike_scalar(w_norm, 0.1)[0]

    def test_small_w_reference_value(self):
        assert self.gap(1.46) == pytest.approx(self.REFERENCE[1.46], abs=5e-4)

    def test_peak_reference_value(self):
        assert self.gap(3.37) == pytest.approx(self.REFERENCE[3.37], abs=5e-4)

    def test_large_w_reference_value(self):
        assert self.gap(8.00) == pytest.approx(self.REFERENCE[8.00], abs=5e-4)

    def test_strict_unimodality(self):
        assert self.gap(3.37) > self.gap(1.46)
        assert self.gap(3.37) > self.gap(8.00)


class TestPreprocessingSpike:
    def test_theory_alignment_and_gap(self):
        start = time.perf_counter()
        spec, _, _, _, spikes = theory_pipeline(retrieval_cfg(0.76))
        s = max(spikes, key=lambda r: r.alignment[1, 1])
        cw = spec.cov.apply(spec.w_star)
        assert s.alignment[1, 1] / (cw @ cw) == pytest.approx(0.7737, abs=0.01)

        spec95, _, _, _, spikes95 = theory_pipeline(retrieval_cfg(0.95))
        s95 = max(spikes95, key=lambda r: r.alignment[1, 1])
        assert s95.gap == pytest.approx(0.15625, abs=0.005)
        assert time.perf_counter() - start < 600.0

    def test_empirical_50_trials(self):
        spec, seed, _, _, spikes = theory_pipeline(retrieval_cfg(0.76))
        s = max(spikes, key=lambda r: r.alignment[1, 1])
        cw = spec.cov.apply(spec.w_star)
        theo = s.alignment[1, 1] / (cw @ cw)
        vals = [measure_alignment(tr.paired[0][1], cw) for tr in run_trials(
            spec, "gaussian", [seed + k for k in range(50)], [-1])]
        assert abs(np.mean(vals) - theo) < 0.03

        spec95, seed95, _, _, spikes95 = theory_pipeline(retrieval_cfg(0.95))
        s95 = max(spikes95, key=lambda r: r.alignment[1, 1])
        gaps = [tr.eigenvalues[-1] - tr.eigenvalues[-2] for tr in run_trials(
            spec95, "gaussian", [seed95 + k for k in range(50)])]
        assert abs(np.mean(gaps) - s95.gap) < 0.03


class TestDensityAccuracy:
    def mp_density(self, x, c=0.25, scale=0.25):
        lo, hi = scale * (1 - np.sqrt(c)) ** 2, scale * (1 + np.sqrt(c)) ** 2
        return np.sqrt(np.maximum((hi - x) * (x - lo), 0.0)) \
            / (2 * np.pi * c * scale * x)

    def test_richardson_extrapolation_vs_analytic(self):
        z = np.zeros(512)
        spec = ProblemSpec(p=512, n=2048, mu=z, cov=ScaledIdentity(1.0),
                           w_star=z, w=z, model=ResponseModel.logistic(),
                           weight=WeightFn.loss_curvature("logistic"))
        grid = np.linspace(0.08, 0.55, 100)
        curve = density(spec, grid)
        rho1, eps = curve.density, curve.epsilon
        rho2 = np.array([solve_point(spec, complex(x, 2 * eps)).m.imag
                         for x in grid]) / np.pi
        extrapolated = 2 * rho1 - rho2
        assert np.max(np.abs(extrapolated - self.mp_density(grid))) < 1e-3

    def test_pooled_histogram_10_trials(self):
        cfg = {"p": 800, "n": 6000, "model": "logistic", "loss": "logistic",
               "seed": 104}
        spec, seed, curve, sup, _ = theory_pipeline(cfg)
        rep = compare(spec, curve, [], trials=10, base_seed=seed)
        assert rep.density_l1 < 0.05


class TestMultiBulkDetection:
    def run(self, top):
        cfg = {"p": 800, "n": 6000, "mu": "gaussian_norm(1.0)", "w": "mu",
               "cov": {"diag_blocks": [[1.0, 400], [top, 400]]},
               "model": "logistic", "loss": "logistic", "seed": 105}
        spec, _ = build_spec(cfg)
        lo, hi = default_scan_range(spec)
        return support(spec, (lo, hi))

    def test_well_separated_covariance_gives_two_bulks(self):
        start = time.perf_counter()
        assert self.run(4.0).bulk_count == 2
        assert time.perf_counter() - start < 30.0

    def test_close_covariance_gives_one_bulk(self):
        start = time.perf_counter()
        assert self.run(2.0).bulk_count == 1
        assert time.perf_counter() - start < 30.0


class TestSupportClassification:
    def test_logistic_bounded_by_quarter(self):
        spec, _ = build_spec({"p": 64, "n": 256, "w": "pm_block(1.0)",
                              "model": "logistic", "loss": "logistic"})
        cls = classify_g_support(spec)
        assert cls.bounded and cls.upper_bound == 0.25

    def test_exponential_unbounded(self):
        spec, _ = build_spec({"p": 64, "n": 256, "w": "pm_block(1.0)",
                              "model": "logistic", "loss": "exponential"})
        assert not classify_g_support(spec).bounded

    def test_phase_retrieval_curvature_unbounded(self):
        spec, _ = build_spec({"p": 64, "n": 256, "w_star": "pm_block(1.0)",
                              "w": "pm_block(0.8)",
                              "model": "phase_retrieval",
                              "loss": "phase_square"})
        assert not classify_g_support(spec).bounded


class TestNumericalProperties:
    def quarter_wishart(self, p=256, n=1024, w_norm=0.0):
        z = np.zeros(p)
        w = z.copy()
        if w_norm:
            w[:] = w_norm / np.sqrt(p)
        return ProblemSpec(p=p, n=n, mu=z, cov=ScaledIdentity(1.0), w_star=z,
                           w=w, model=ResponseModel.logistic(),
                           weight=WeightFn.loss_curvature("logistic"))

    def test_fixed_point_self_consistency(self):
        spec = self.quarter_wishart(w_norm=1.5)
        for z in (-0.4, 0.8, 0.3 + 0.02j):
            assert solve_point(spec, z).residual < 1e-10

    def test_branch_invariants_1000_random_points(self):
        spec = self.quarter_wishart(w_norm=2.0)
        rng = np.random.default_rng(41)
        for _ in range(1000):
            z = complex(rng.uniform(-0.6, 1.0), 10 ** rng.uniform(-3, 0.5))
            if rng.random() < 0.5:
                z = np.conj(z)
            pt = solve_point(spec, z)
            assert pt.m.imag * z.imag > 0
            assert pt.residual < 1e-10

    def test_spike_matrix_derivative_20_points(self):
        spec, _ = build_spec(signal_cfg(1.0, p=128, n=512))
        rng = np.random.default_rng(43)
        h = 1e-6
        for _ in range(20):
            z = rng.uniform(0.95, 2.0)
            d = spike_matrix_deriv(spec, z)
            fd = (spike_matrix(spec, z + h).entries
                  - spike_matrix(spec, z - h).entries) / (2 * h)
            np.testing.assert_allclose(d, fd, rtol=1e-4, atol=1e-9)

    def test_penrose_identities(self):
        rng = np.random.default_rng(44)
        v = rng.standard_normal(2)
        for g in (np.outer(v, v), np.array([[2.0, 0.5], [0.5, 1.0]]),
                  np.zeros((2, 2))):
            gp = pinv2(g)
            np.testing.assert_allclose(g @ gp @ g, g, atol=1e-12)
            np.testing.assert_allclose(gp @ g @ gp, gp, atol=1e-12)
            np.testing.assert_allclose((g @ gp).T, g @ gp, atol=1e-12)
            np.testing.assert_allclose((gp @ g).T, gp @ g, atol=1e-12)

    def test_trace_identity(self):
        spec, seed = build_spec(signal_cfg(0.8, p=128, n=512))
        tr = run_trial(spec, "gaussian", seed)
        # rebuild the per-sample pieces from the same stream
        from hesspec import sample_features, sample_response
        rng = np.random.Generator(np.random.Philox(seed))
        X = sample_features(spec, "gaussian", rng)
        y = sample_response(spec.model, spec.w_star @ X, rng)
        d = curvature(spec.weight, y, spec.w @ X)
        rhs = np.sum(d * np.sum(X * X, axis=0)) / spec.n
        assert tr.eigenvalues.sum() == pytest.approx(rhs, rel=1e-8)

    def test_curvature_second_difference(self):
        eps = 1e-4
        rng = np.random.default_rng(45)
        for loss in ("logistic", "exponential", "square", "phase_square"):
            w = WeightFn.loss_curvature(loss)
            for _ in range(5):
                h = rng.uniform(-1.5, 1.5)
                y = rng.choice([-1.0, 1.0]) if loss != "phase_square" \
                    else rng.uniform(0.0, 2.0)
                fd = (loss_value(loss, y, h + eps) - 2 * loss_value(loss, y, h)
                      + loss_value(loss, y, h - eps)) / eps ** 2
                assert curvature(w, y, h) == pytest.approx(fd, rel=1e-5,
                                                           abs=1e-7)

    def test_rotation_invariance(self):
        from hesspec import build_hessian
        rng = np.random.default_rng(46)
        X = rng.standard_normal((40, 160))
        d = rng.random(160)
        q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        e1 = np.linalg.eigvalsh(build_hessian(X, d))
        e2 = np.linalg.eigvalsh(build_hessian(q @ X, d))
        np.testing.assert_allclose(e1, e2, atol=1e-10)

    def test_nonnegative_spectrum_for_nonnegative_weights(self):
        spec, seed = build_spec(signal_cfg(0.8, p=128, n=512))
        tr = run_trial(spec, "gaussian", seed + 7)
        assert np.all(tr.eigenvalues >= -1e-10)


class TestUniversality:
    def test_gaussian_vs_rademacher_ks(self):
        cfg = {"p": 800, "n": 1200, "mu": "gaussian_norm(1.0)", "w": "mu",
               "model": "logistic", "loss": "logistic", "seed": 106}
        spec, seed = build_spec(cfg)
        n_seeds = 10
        gauss = [tr.eigenvalues for tr in run_trials(
            spec, "gaussian", [seed + k for k in range(n_seeds)])]
        rade = [tr.eigenvalues for tr in run_trials(
            spec, "rademacher", [seed + 100 + k for k in range(n_seeds)])]
        pooled_ks = stats.ks_2samp(np.concatenate(gauss), np.concatenate(rade),
                                   method="asymp").statistic
        spread = np.mean([stats.ks_2samp(gauss[i], gauss[j],
                                         method="asymp").statistic
                          for i in range(n_seeds)
                          for j in range(i + 1, n_seeds)])
        assert pooled_ks < 2 * spread
