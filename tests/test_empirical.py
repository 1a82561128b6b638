import numpy as np
import pytest

import json
import logging
import os
import re
import sys
import threading
import time
import tracemalloc
import weakref
from functools import partial
from types import SimpleNamespace

from hesspec import (ProblemSpec, ResponseModel, ScaledIdentity, WeightFn,
                     analyze, build_hessian, build_spec, compare, curvature,
                     default_scan_range, density, extract_outliers,
                     measure_alignment, run_trial, run_trials,
                     sample_features, sample_response, support, worker_count)
from hesspec import _openblas, empirical
from hesspec.bulk import SupportReport
from hesspec.empirical import EmpiricalSpectrum
from hesspec.presets import preset_config
from hesspec.errors import ConfigError, DomainError, NumericError


def signal_spec(rho=0.8, p=512, n=2048, seed=29):
    cfg = {"p": p, "n": n, "mu": "pm_block(%.17g)" % np.sqrt(rho),
           "model": "logistic", "loss": "logistic", "seed": seed}
    return build_spec(cfg)


def two_sided_spec(p=200, n=1000):
    """Trimmed phase retrieval with a left spike and two right spikes
    (0.5658 and 0.7529 at p = 200); the trimming weight takes both signs."""
    cfg = {"p": p, "n": n, "mu": "gaussian_norm(2.0)",
           "w_star": "pm_block(1.5)", "w": "pm_block(1.2247)",
           "model": "phase_retrieval", "weight": "trim", "seed": 3}
    return build_spec(cfg)


def trial_pieces(spec, seed):
    """Features and weights of run_trial(spec, "gaussian", seed), rebuilt
    from the same Philox stream."""
    rng = np.random.Generator(np.random.Philox(seed))
    X = sample_features(spec, "gaussian", rng)
    y = sample_response(spec.model, spec.w_star @ X, rng)
    return X, np.asarray(curvature(spec.weight, y, spec.w @ X), dtype=float)


class TestBuildHessian:
    def test_small_example(self):
        X = np.array([[1.0, 0.0], [0.0, 2.0]])
        d = np.array([3.0, 5.0])
        expected = np.array([[1.5, 0.0], [0.0, 10.0]])
        np.testing.assert_allclose(build_hessian(X, d), expected)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        H = build_hessian(rng.standard_normal((20, 80)), rng.random(80))
        np.testing.assert_array_equal(H, H.T)

    def test_dimension_check(self):
        with pytest.raises(DomainError):
            build_hessian(np.zeros((3, 4)), np.zeros(3))

    def test_trace_identity(self):
        # sum of eigenvalues = (1/n) sum_i d_i |x_i|^2
        rng = np.random.default_rng(1)
        X = rng.standard_normal((50, 200))
        d = rng.random(200)
        H = build_hessian(X, d)
        lhs = np.linalg.eigvalsh(H).sum()
        rhs = np.sum(d * np.sum(X * X, axis=0)) / 200
        assert lhs == pytest.approx(rhs, rel=1e-8)

    @pytest.mark.parametrize("shift", [0.8, -0.8])
    def test_mixed_sign_weights_match_dense_formula(self, shift):
        # mostly positive, then mostly negative weights, with some zeros
        rng = np.random.default_rng(3)
        X = rng.standard_normal((40, 150))
        d = rng.standard_normal(150) + shift
        assert 0 < np.count_nonzero(d < 0) != 75
        d[:5] = 0.0
        X0 = X.copy()
        H = build_hessian(X, d)
        np.testing.assert_allclose(H, (X0 * d) @ X0.T / 150, rtol=0,
                                   atol=1e-13 * np.abs(H).max())
        np.testing.assert_array_equal(H, H.T)
        np.testing.assert_array_equal(X, X0)     # the argument is untouched

    @staticmethod
    def block_weights(sign):
        """Weights on 101 columns, 16 to a Gram block: single-sign blocks
        of either sign, mixed blocks with either sign in the majority,
        zeros beside each sign, and a mixed last block of 5 columns."""
        rng = np.random.default_rng(4)
        d = rng.random(101) + 0.1
        d[16:32] *= -1                          # all negative
        d[32:48][[1, 5, 9]] *= -1               # mostly positive
        d[48:64][3:] *= -1                      # mostly negative
        d[64:80][::4] = 0.0                     # zeros and positives
        d[80:96] *= -1
        d[80:96][::3] = 0.0                     # zeros and negatives
        d[[97, 99]] *= -1
        return sign * d

    @pytest.mark.parametrize("columns", [1, 5, 16, 101, 200])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_blocks_match_dense_formula(self, monkeypatch, columns, sign):
        p, d = 12, self.block_weights(sign)
        monkeypatch.setattr(empirical, "_GRAM_BLOCK_BYTES", 8 * p * columns)
        X = np.random.default_rng(5).standard_normal((p, len(d)))
        H = build_hessian(X, d)
        np.testing.assert_allclose(H, (X * d) @ X.T / len(d), rtol=0,
                                   atol=1e-13 * np.abs(H).max())
        # a read-only X (copied a block at a time) and a writeable one
        # (overwritten in place) give the same bits
        owned = empirical._gram(X.copy(), d)
        np.testing.assert_array_equal(np.tril(H), owned)

    def test_rotation_invariance_of_spectrum(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((30, 120))
        d = rng.random(120)
        q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
        e1 = np.linalg.eigvalsh(build_hessian(X, d))
        e2 = np.linalg.eigvalsh(build_hessian(q @ X, d))
        np.testing.assert_allclose(e1, e2, atol=1e-10)


class TestRunTrial:
    def test_reproducible(self):
        spec, seed = signal_spec(p=64, n=256)
        a = run_trial(spec, "gaussian", seed, [-1])
        b = run_trial(spec, "gaussian", seed, [-1])
        np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
        np.testing.assert_array_equal(a.paired[0][1], b.paired[0][1])

    def test_logistic_hessian_is_psd(self):
        spec, seed = signal_spec(p=64, n=256)
        s = run_trial(spec, "gaussian", seed)
        assert np.all(s.eigenvalues >= -1e-10)

    def test_eigenvalues_sorted_and_vectors_unit(self):
        spec, seed = signal_spec(p=64, n=256)
        s = run_trial(spec, "rademacher", seed + 1, [0, -1])
        assert np.all(np.diff(s.eigenvalues) >= 0)
        for _, vec in s.paired:
            assert np.linalg.norm(vec) == pytest.approx(1.0, rel=1e-12)

    def test_eigensolver_failure_is_a_numeric_error(self, monkeypatch):
        # NaN curvature makes a NaN Gram, on which dsterf reports info > 0
        spec, seed = signal_spec(p=64, n=256)
        monkeypatch.setattr(empirical, "curvature",
                            lambda weight, y, h: np.full(len(h), np.nan))
        with pytest.raises(NumericError):
            run_trial(spec, "gaussian", seed)


class TestTrialGram:
    @pytest.mark.parametrize("make", [lambda: signal_spec(p=96, n=384),
                                      two_sided_spec],
                             ids=["logistic", "trim"])
    def test_matches_dense_eigendecomposition(self, make):
        spec, seed = make()
        X, d = trial_pieces(spec, seed)
        if spec.weight.kind == "preprocess":
            assert (d < 0).any() and (d > 0).any()
        H = (X * d) @ X.T / spec.n
        vals, vecs = np.linalg.eigh(0.5 * (H + H.T))
        np.testing.assert_allclose(np.linalg.eigvalsh(build_hessian(X, d)),
                                   vals, rtol=0,
                                   atol=1e-12 * np.abs(vals).max())
        near10 = 0.8 * vals[10] + 0.2 * vals[11]
        s = run_trial(spec, "gaussian", seed,
                      [(vals[5], vals[15], near10), 0, 1, -1, -2])
        np.testing.assert_allclose(s.eigenvalues, vals, rtol=0,
                                   atol=1e-12 * np.abs(vals).max())
        p = spec.p
        assert [k for k, _ in s.paired] == [10, 0, 1, p - 1, p - 2]
        for k, vec in s.paired:
            assert abs(vec @ vecs[:, k]) >= 1 - 1e-10

    def test_dense_covariance_matches_numpy_build(self):
        # the trial applies a dense C^{1/2} and projects on SciPy's BLAS;
        # rebuild X = mu + C^{1/2} Z, the weights and H with numpy alone
        # from the same Philox stream
        p, n, seed = 48, 192, 7
        rng = np.random.default_rng(2)
        Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        spec, _ = build_spec({"p": p, "n": n, "mu": "gaussian_norm(1.0)",
                              "w_star": "mu", "w": "pm_block(0.7)",
                              "cov": {"matrix": (Q * np.linspace(0.5, 3.0, p))
                                      @ Q.T}})
        rng = np.random.Generator(np.random.Philox(seed))
        X = spec.mu[:, None] + spec.cov.sqrt_apply(rng.standard_normal((p, n)))
        y = sample_response(spec.model, spec.w_star @ X, rng)
        d = np.asarray(curvature(spec.weight, y, spec.w @ X), dtype=float)
        want = np.linalg.eigvalsh((X * d) @ X.T / n)
        got = run_trial(spec, "gaussian", seed).eigenvalues
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-12 * np.abs(want).max())

    def test_dense_covariance_is_one_dgemm(self, monkeypatch):
        # C^{1/2} is one cached matrix, applied to the draw in one product
        spec, seed = build_spec({"p": 32, "n": 128, "cov": {"matrix": (
            np.eye(32) + 0.3 * np.ones((32, 32))).tolist()}})
        names, real = [], _openblas.blas

        def counted(name, *args):
            names.append(name)
            real(name, *args)

        monkeypatch.setattr(_openblas, "blas", counted)
        run_trial(spec, "gaussian", seed)
        assert names.count("dgemm") == 1


class TestPickedSolve:
    """Edge cases of the solve: every eigenvalue, and eigenvectors only at
    the picks, from one tridiagonal reduction."""

    @staticmethod
    def check(H, vals, pairs):
        # the eigenvalues of eigvalsh, and unit eigenvectors of H
        np.testing.assert_allclose(vals, np.linalg.eigvalsh(H), rtol=0,
                                   atol=1e-12 * np.abs(vals).max())
        norm = np.linalg.norm(H, 2)
        for k, vec in pairs:
            assert np.linalg.norm(vec) == pytest.approx(1.0, rel=1e-12)
            assert np.linalg.norm(H @ vec - vals[k] * vec) <= 1e-12 * norm

    @pytest.mark.parametrize("p, n", [(1, 8), (2, 8), (40, 10)],
                             ids=["p1", "p2", "n_below_p"])
    def test_trial(self, p, n):
        spec = ProblemSpec(p=p, n=n, mu=np.full(p, 0.5),
                           cov=ScaledIdentity(1.0), w_star=np.ones(p),
                           w=np.full(p, 0.3), model=ResponseModel.logistic(),
                           weight=WeightFn.loss_curvature("logistic"))
        H = build_hessian(*trial_pieces(spec, 3))
        k = min(p, 2)
        s = run_trial(spec, "gaussian", 3, [*range(k), *range(-1, -1 - k, -1)])
        assert [i for i, _ in s.paired] == [*range(k),
                                            *range(p - 1, p - 1 - k, -1)]
        self.check(H, s.eigenvalues, s.paired)
        if n < p:
            # the two lowest picks share the (p - n)-fold zero eigenvalue
            ev = s.eigenvalues
            assert np.abs(ev[:p - n]).max() <= 1e-12 * np.abs(ev).max()
            (_, v0), (_, v1) = s.paired[:2]
            assert abs(v0 @ v1) <= 1e-12

    def test_diagonal_matrix_splits(self):
        # a zero off-diagonal splits T into 1 x 1 blocks; 1.0 is repeated
        H = np.diag([3.0, 1.0, 2.0, 1.0, 5.0])
        T = empirical._Tridiagonal(np.array(H, order="F"))
        vals = T.eigenvalues()
        np.testing.assert_array_equal(vals, [1.0, 1.0, 2.0, 3.0, 5.0])
        vecs = T.eigenvectors([4, 0, 1, 3, 0])
        assert sorted(vecs) == [0, 1, 3, 4]
        self.check(H, vals, vecs.items())
        assert abs(vecs[0] @ vecs[1]) <= 1e-12

    def test_rejects_a_c_ordered_matrix(self):
        # LAPACK reads column-major memory through a bare pointer
        with pytest.raises(TypeError, match="Fortran-ordered"):
            empirical._Tridiagonal(np.eye(3))


class TestOutliers:
    def test_synthetic_spectrum(self):
        sup = SupportReport(intervals=[(0.0, 1.0)], bulk_count=1, bounded=True)
        spectrum = EmpiricalSpectrum(
            eigenvalues=np.array([-0.5, 0.1, 0.5, 0.9, 1.8]), seed=0)
        out = extract_outliers(spectrum, sup, edge_tol=0.05)
        assert [(o[0], o[1]) for o in out] == [(-0.5, "left"), (1.8, "right")]

    def test_empty_support(self):
        sup = SupportReport(intervals=[], bulk_count=0, bounded=True)
        spectrum = EmpiricalSpectrum(eigenvalues=np.array([1.0]), seed=0)
        assert extract_outliers(spectrum, sup) == []

    def test_default_tolerance_on_a_half_line(self):
        # fig2's exponential loss: support (0.4626, inf), so the width of
        # the finite ends is undefined and the eigenvalues' span sets it
        spec, seed = build_spec(dict(preset_config("fig2"),
                                     loss="exponential", p=200, n=1500))
        sup = support(spec, (-np.inf, np.inf))
        assert len(sup.intervals) == 1 and sup.intervals[0][1] == np.inf
        edge = sup.intervals[0][0]
        lam = run_trial(spec, "gaussian", seed).eigenvalues
        inside = lam[lam > edge]
        spectrum = EmpiricalSpectrum(eigenvalues=np.r_[0.2, inside], seed=0)
        assert extract_outliers(spectrum, sup) == [(0.2, "left", 0)]

    def test_spike_detected_in_most_seeds(self):
        spec, seed = signal_spec()
        lo, hi = default_scan_range(spec)
        sup = support(spec, (lo, hi))
        hits = 0
        n_seeds = 20
        for s in run_trials(spec, "gaussian",
                            [seed + k for k in range(n_seeds)]):
            out = extract_outliers(s, sup)
            if sum(1 for o in out if o[1] == "right") == 1:
                hits += 1
        assert hits >= 0.9 * n_seeds


class TestMeasureAlignment:
    def test_parallel_and_orthogonal(self):
        target = np.array([2.0, 0.0])
        assert measure_alignment(np.array([1.0, 0.0]), target) == 1.0
        assert measure_alignment(np.array([0.0, 1.0]), target) == 0.0

    def test_zero_target_rejected(self):
        with pytest.raises(DomainError):
            measure_alignment(np.ones(2), np.zeros(2))


class TestCompare:
    def test_deterministic_and_close_to_theory(self):
        spec, seed = signal_spec()
        an = analyze(spec)
        curve, spikes = an.curve, an.spikes
        rep1 = compare(spec, curve, spikes, trials=4, base_seed=seed)
        rep2 = compare(spec, curve, spikes, trials=4, base_seed=seed)
        assert rep1.seeds == rep2.seeds == [seed + k for k in range(4)]
        assert rep1.density_l1 == rep2.density_l1
        assert rep1.density_l1 < 0.1
        emp, theo, err = rep1.spike_errors[0]
        assert err < 0.02
        _, _, align_err = rep1.alignment_errors[0]
        assert align_err < 0.05

    @pytest.mark.parametrize("cfg, bound", [
        ({"p": 400, "n": 200, "loss": "square", "seed": 3}, 0.1),
        ({"p": 64, "n": 128, "model": "phase_retrieval",
          "loss": "phase_square"}, 1e-12),
    ], ids=["c2", "g_zero"])
    def test_atom_at_zero_is_theory(self, cfg, bound):
        # the pooled spectrum holds the atom at 0, of mass 1 - 1/c when
        # rank H <= n < p and 1 when g = 0 makes H = 0; the theory bin
        # at 0 holds it too, so it counts as no error
        spec, seed = build_spec(cfg)
        an = analyze(spec)
        assert (0.0, 0.0) in an.support.intervals
        rep = compare(spec, an.curve, an.spikes, trials=4, base_seed=seed)
        assert rep.density_l1 < bound

    def test_grid_order_leaves_density_l1(self):
        # density reads any grid order, so the comparison must too
        spec, seed = build_spec({"p": 200, "n": 800, "mu": "pm_block(1.0)",
                                 "seed": 7})
        an = analyze(spec)
        grid = an.curve.grid
        l1 = [compare(spec, density(spec, g), an.spikes, trials=2,
                      base_seed=seed).density_l1
              for g in (grid, grid[::-1],
                        grid[np.random.default_rng(3).permutation(len(grid))])]
        assert l1[0] < 0.1
        assert l1[1] == l1[0] and l1[2] == l1[0]

    @pytest.mark.parametrize("cfg, bound", [
        ({**preset_config("fig3"),
          "cov": {"diag_blocks": [[1.0, 400], [4.0, 400]]}}, 0.005),
        ({"p": 400, "n": 200, "loss": "square", "seed": 3}, 0.01),
    ], ids=["fig3_four", "c2"])
    def test_theory_quantiles_give_no_error(self, monkeypatch, cfg, bound):
        # pooled eigenvalues at the (k + 1/2)/N quantiles of the theory
        # measure (the curve's trapezoids and the atom of mass
        # max(0, 1 - 1/c) as exact zeros) read as the theory bin for bin
        spec, seed = build_spec(cfg)
        curve = analyze(spec).curve
        rank = np.argsort(curve.grid, kind="stable")
        x, f = curve.grid[rank], np.nan_to_num(curve.density[rank])
        cdf = np.concatenate(([0.0],
                              np.cumsum(np.diff(x) * (f[1:] + f[:-1]) / 2)))
        atom, below = max(0.0, 1.0 - 1.0 / spec.c), np.interp(0.0, x, cdf)
        q = (np.arange(4 * spec.p) + 0.5) / (4 * spec.p)
        pooled = np.where(q < below, np.interp(q, cdf, x),
                          np.where(q < below + atom, 0.0,
                                   np.interp(q - atom, cdf, x)))
        spectra = [EmpiricalSpectrum(eigenvalues=v, seed=seed + k)
                   for k, v in enumerate(np.split(pooled, 4))]
        monkeypatch.setattr(empirical, "run_trials",
                            lambda *args, **kwargs: spectra)
        rep = compare(spec, curve, [], trials=4, base_seed=seed)
        assert rep.density_l1 <= bound

    def test_atom_at_zero_inside_the_bulk(self):
        # c = 1.6 with the trimming weight: the bulk covers 0, so the exact
        # support lists no (0, 0), yet rank H <= n still puts an atom of
        # mass 1 - 1/c there (0.548 when it counted as error)
        spec, seed = build_spec({
            "p": 400, "n": 250, "w_star": "pm_block(1.0)",
            "w": "pm_block(0.8)", "model": "phase_retrieval",
            "weight": "trim", "seed": 3})
        an = analyze(spec)
        (left, right), = an.support.intervals
        assert left < 0.0 < right
        rep = compare(spec, an.curve, an.spikes, trials=4, base_seed=seed)
        assert rep.density_l1 < 0.25

    def test_given_spectra_are_scored_not_rerun(self, monkeypatch):
        # compare scores the caller's trials of seeds base_seed, ... and
        # refuses trials of other seeds
        spec, seed = signal_spec(p=64, n=256)
        an = analyze(spec)
        want = compare(spec, an.curve, an.spikes, trials=2, base_seed=seed)
        spectra = run_trials(spec, "gaussian", [seed, seed + 1], [-1])
        self.no_trials(monkeypatch)
        got = compare(spec, an.curve, an.spikes, trials=2, base_seed=seed,
                      spectra=spectra)
        assert got.density_l1 == want.density_l1
        assert got.spike_errors == want.spike_errors
        assert got.alignment_errors == want.alignment_errors
        with pytest.raises(DomainError, match="seeds"):
            compare(spec, an.curve, an.spikes, trials=2, base_seed=seed + 1,
                    spectra=spectra)

    @staticmethod
    def no_trials(monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(empirical, "run_trials", forbidden)

    @pytest.mark.parametrize("trials", [0, -1, True, 1.5, "2"])
    def test_no_trials_rejected(self, trials, monkeypatch):
        spec, seed = signal_spec(p=16, n=64)
        self.no_trials(monkeypatch)
        with pytest.raises(DomainError, match="trials >= 1"):
            compare(spec, None, [], trials=trials, base_seed=seed)

    @pytest.mark.parametrize("trials", [0, True, 1.5, "2"])
    def test_monte_carlo_needs_whole_trials(self, trials, monkeypatch):
        spec, seed = signal_spec(p=16, n=64)
        self.no_trials(monkeypatch)
        with pytest.raises(ConfigError, match="trials"):
            analyze(spec).monte_carlo(trials, seed)


class TestStatistics:
    def fake_trials(self, monkeypatch, tops):
        # one right spike; trial k has its top eigenvalue at tops[k] and
        # the unit top vector e_0, so every cos2 against mu is 1/2
        def run(spec, dist, seeds, picks):
            assert picks == [-1]
            vec = np.eye(4)[0]
            return [EmpiricalSpectrum(
                eigenvalues=np.array([0.0, 0.1, 0.2, top]), seed=s,
                paired=((3, vec),)) for s, top in zip(seeds, tops)]
        monkeypatch.setattr(empirical, "run_trials", run)

    def spike(self, spec):
        from hesspec.spikes import SpikeReport
        return SpikeReport(location=1.0, side="right", gap=0.5,
                           alignment=np.diag([1.0, 0.0, 0.0]),
                           det_residual=0.0)

    def test_standard_error_of_the_mean(self, monkeypatch):
        tops = [1.0, 1.2, 1.1, 0.9]
        self.fake_trials(monkeypatch, tops)
        spec = ProblemSpec(p=4, n=8, mu=np.array([1.0, 1.0, 0.0, 0.0]),
                           cov=ScaledIdentity(1.0), w_star=np.zeros(4),
                           w=np.zeros(4), model=ResponseModel.logistic(),
                           weight=WeightFn.loss_curvature("logistic"))
        curve = SimpleNamespace(grid=np.array([0.0, 2.0]),
                                density=np.array([0.5, 0.5]))
        rep = compare(spec, curve, [self.spike(spec)], trials=4, base_seed=0)
        emp, theo, err = rep.spike_errors[0]
        assert emp == pytest.approx(1.05) and err == pytest.approx(0.05)
        sd = np.sqrt(sum((t - 1.05) ** 2 for t in tops) / 3)
        assert rep.spike_stderr == [pytest.approx(sd / 2)]
        assert rep.alignment_errors[0][0] == pytest.approx(0.5)
        assert rep.alignment_stderr == [0.0]

    def test_single_trial_has_no_standard_error(self):
        spec, seed = signal_spec(p=64, n=256)
        results, _ = analyze(spec).monte_carlo(1, seed)
        cmp = results["comparison"]
        assert len(cmp["spike_errors"]) == 1
        assert cmp["spike_stderr"] == [None]
        assert cmp["alignment_stderr"] == [None]
        text = json.dumps(results, allow_nan=False)
        assert '"spike_stderr": [null]' in text

    @staticmethod
    def reports(monkeypatch, spec, an, seed, worker_counts):
        out = []
        for workers in worker_counts:
            monkeypatch.setenv("HESSPEC_THREADS", workers)
            out.append(compare(spec, an.curve, an.spikes, trials=3,
                               base_seed=seed))
        return out

    def test_same_report_for_any_worker_count(self, monkeypatch):
        # one worker threads BLAS, two pin it to one thread each: the sums
        # run in another order, so the reports agree to rounding only
        spec, seed = signal_spec(p=96, n=384)
        a, b = self.reports(monkeypatch, spec, analyze(spec), seed, ("1", "2"))
        assert a.seeds == b.seeds
        assert a.density_l1 == pytest.approx(b.density_l1, rel=1e-12)
        for name in ("spike_errors", "alignment_errors", "spike_stderr",
                     "alignment_stderr"):
            np.testing.assert_allclose(getattr(a, name), getattr(b, name),
                                       rtol=1e-12, atol=0, err_msg=name)

    def test_bit_identical_for_two_and_three_workers(self, monkeypatch):
        spec, seed = signal_spec(p=96, n=384)
        a, b = self.reports(monkeypatch, spec, analyze(spec), seed, ("2", "3"))
        assert a.density_l1 == b.density_l1 and a.seeds == b.seeds
        assert a.spike_errors == b.spike_errors
        assert a.alignment_errors == b.alignment_errors
        assert a.spike_stderr == b.spike_stderr
        assert a.alignment_stderr == b.alignment_stderr


class TestSharedDraws:
    def test_hit_is_bit_identical_and_read_only(self, noise_draws):
        # the exponential loss weighs each sample by its logistic label,
        # drawn after the features: a hit must also continue the Philox
        # stream where the draw ended
        def spec_at(norm):
            return build_spec({"p": 48, "n": 192, "seed": 5,
                               "mu": "pm_block(%g)" % norm, "w_star": "mu",
                               "w": "mu", "model": "logistic",
                               "loss": "exponential"})

        run, got = empirical._Run(), []
        for norm in (0.5, 1.5):            # the same law under another mu
            spec, seed = spec_at(norm)
            got.append(run_trial(spec, "gaussian", seed, [0, -1], run))
        assert noise_draws == [(48, 192)]
        held, _ = run.draw
        assert held.flags.writeable is False
        with pytest.raises(ValueError):
            held[0, 0] = 0.0
        for norm, s in zip((0.5, 1.5), got):
            spec, seed = spec_at(norm)
            want = run_trial(spec, "gaussian", seed, [0, -1])
            np.testing.assert_array_equal(s.eigenvalues, want.eigenvalues)
            np.testing.assert_array_equal(s.paired[0][1], want.paired[0][1])
            np.testing.assert_array_equal(s.paired[1][1], want.paired[1][1])

    def test_mean_zero_hit_reads_the_held_draw(self, monkeypatch,
                                               noise_draws):
        # fig7's trimming weight takes both signs; with mu = 0 a hit reads
        # the held draw itself, four Gram blocks to its 1000 columns
        monkeypatch.setattr(empirical, "_GRAM_BLOCK_BYTES", 8 * 200 * 300)
        spec, seed = build_spec(dict(preset_config("fig7"), p=200, n=1000))
        assert not spec.mu.any()
        run = empirical._Run()
        run_trial(spec, "gaussian", seed, [-1], run)
        before = run.draw[0].copy()
        got = run_trial(spec, "gaussian", seed, [0, -1], run)
        want = run_trial(spec, "gaussian", seed, [0, -1])
        assert noise_draws == [(200, 1000)] * 2
        np.testing.assert_array_equal(run.draw[0], before)
        np.testing.assert_array_equal(got.eigenvalues, want.eigenvalues)
        for (i, a), (j, b) in zip(got.paired, want.paired):
            assert i == j
            np.testing.assert_array_equal(a, b)

    def test_dense_hit_is_bit_identical(self, noise_draws):
        # a held draw of a dense C^{1/2} Z, read in place at mu = 0
        Q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((48, 48)))
        spec, seed = build_spec({"p": 48, "n": 192, "seed": 5, "cov": {
            "matrix": ((Q * np.linspace(0.5, 3.0, 48)) @ Q.T).tolist()}})
        run = empirical._Run()
        got = [run_trial(spec, "gaussian", seed, [-1], run) for _ in range(2)]
        assert noise_draws == [(48, 192)]
        want = run_trial(spec, "gaussian", seed, [-1])
        for s in got:
            np.testing.assert_array_equal(s.eigenvalues, want.eigenvalues)
            np.testing.assert_array_equal(s.paired[0][1], want.paired[0][1])

    @pytest.mark.parametrize("change", [
        {"n": 240}, {"p": 40}, {"cov": 1.5},
        {"cov": {"diag_blocks": [[1.0, 24], [2.0, 24]]}},
        {"cov": {"matrix": np.eye(48).tolist()}},    # same eigenvalues
        {"dist": "rademacher"},
    ], ids=["n", "p", "scale", "diagonal", "dense", "dist"])
    def test_another_law_redraws(self, noise_draws, change):
        # two jobs of one seed, the second under another feature law
        cfg = {"p": 48, "n": 192, "mu": "pm_block(1.0)", "model": "logistic",
               "loss": "logistic", "seed": 5}
        first, seed = build_spec(cfg)
        change = dict(change)
        dist = change.pop("dist", "gaussian")
        spec, _ = build_spec(dict(cfg, **change))
        got = empirical._pool([(first, "gaussian", seed, ()),
                               (spec, dist, seed, ())])[1]
        assert len(noise_draws) == 2
        want = run_trial(spec, dist, seed)
        np.testing.assert_array_equal(got.eigenvalues, want.eigenvalues)

    def test_pool_keeps_one_draw_per_seed(self, monkeypatch, caplog,
                                          noise_draws):
        # more workers than cores and a short switch interval, so jobs
        # interleave while a seed's first job draws; consecutive jobs of
        # one seed and feature law share its draw, a change of law redraws
        caplog.set_level(logging.DEBUG, logger="hesspec")
        monkeypatch.setenv("HESSPEC_THREADS", "4")
        specs = [signal_spec(rho, p=32, n=128)[0] for rho in (0.5, 0.8, 1.2)]
        specs.append(signal_spec(0.8, p=32, n=160)[0])      # another n
        seeds = [29 + k for k in range(4)]
        want = {id(spec): [s.eigenvalues for s in
                           run_trials(spec, "gaussian", seeds, [-1])]
                for spec in specs}
        del noise_draws[:]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for run in range(3):
                got = empirical._pool([(spec, "gaussian", seed, [-1])
                                       for seed in seeds for spec in specs])
                for j, s in enumerate(got):
                    k, spec = divmod(j, len(specs))
                    assert s.seed == seeds[k]
                    np.testing.assert_array_equal(
                        s.eigenvalues, want[id(specs[spec])][k])
        finally:
            sys.setswitchinterval(interval)
        assert len(noise_draws) == 3 * 2 * len(seeds)
        assert re.search(r"trials=16 workers=4 blas=\S+ draws=shared",
                         caplog.text)
        assert re.search(r"trials=4 workers=4 blas=\S+ draws=fresh",
                         caplog.text)

    def test_draw_is_freed_when_its_run_ends(self, monkeypatch):
        # the helper runs jobs 0 and 1, which share a draw, while the
        # calling thread is still getting job 2's picks: the draw must go
        # as job 1 ends, not when the waiting helper takes its next job
        monkeypatch.setenv("HESSPEC_THREADS", "2")
        drawn, ended, freed = [], [], []
        real_draw, real_trial = empirical._centred_features, run_trial

        def draw(*args):
            out = real_draw(*args)
            drawn.append(weakref.ref(out))
            return out

        def trial(*args, **kw):
            ended.append(real_trial(*args, **kw))
            return ended[-1]

        def picks():
            for _ in range(500):
                if len(ended) == 2 and drawn[0]() is None:
                    break
                time.sleep(0.01)
            freed.append(drawn[0]() is None)
            return ()

        monkeypatch.setattr(empirical, "_centred_features", draw)
        monkeypatch.setattr(empirical, "run_trial", trial)
        spec, seed = signal_spec(p=32, n=128)
        empirical._pool([(spec, "gaussian", seed, ()),
                         (spec, "gaussian", seed, ()),
                         (spec, "gaussian", seed + 1, picks)])
        assert len(drawn) == 1 and freed == [True]


class TestGramMemory:
    """What a trial allocates besides a held draw, with mixed-sign
    weights (phase retrieval's 3 h^2 - y, 39% negative here) and Gram
    blocks of 100 columns."""

    P, N, COLUMNS = 400, 1000, 100

    @pytest.fixture
    def case(self, monkeypatch):
        monkeypatch.setattr(empirical, "_GRAM_BLOCK_BYTES",
                            8 * self.P * self.COLUMNS)
        return build_spec({"p": self.P, "n": self.N,
                           "w_star": "pm_block(1.0)",
                           "w": "gaussian_norm(0.8)", "loss": "phase_square",
                           "model": "phase_retrieval"})

    @staticmethod
    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_held_draw_is_not_copied(self, case):
        spec, seed = case
        run = empirical._Run()
        run_trial(spec, "gaussian", seed, [-1], run)
        peak = self.peak(lambda: run_trial(spec, "gaussian", seed, [-1], run))
        assert peak < 8 * self.P * self.N

    def test_owned_draw_holds_no_minority_columns(self, case):
        spec, seed = case
        peak = self.peak(lambda: run_trial(spec, "gaussian", seed, [-1]))
        p, n = self.P, self.N
        assert peak <= 8 * (p * n + p * self.COLUMNS + p * p)

    def test_rank_k_columns_sum_to_n(self, monkeypatch, case):
        spec, seed = case
        d = trial_pieces(spec, seed)[1]
        assert 0.2 < np.mean(d < 0) < 0.8 and d.all()
        ranks, real = [], _openblas.blas

        def counted(name, *args):
            if name == "dsyrk":
                ranks.append(args[3])
            real(name, *args)

        monkeypatch.setattr(_openblas, "blas", counted)
        run_trial(spec, "gaussian", seed)
        assert sum(ranks) == self.N and len(ranks) == 2 * 10


class TestFortranArgument:
    """_fortran takes a Fortran-ordered array or a block of its rows;
    it passes a bare pointer, so it refuses anything else."""

    def call(self, A, lda=3):
        H = np.zeros((3, 3), order="F")
        _openblas.blas("dsyrk", "L", "T", 3, 3, 1.0, A, lda, 0.0, H, 3)
        return H

    def test_column_block(self):
        # the first 3 of 5 rows: a 3 x 3 block with leading dimension 5
        B = np.asfortranarray(np.arange(15.0).reshape(5, 3))
        np.testing.assert_array_equal(np.tril(self.call(B[:3], 5)),
                                      np.tril(B[:3].T @ B[:3]))

    @pytest.mark.parametrize("A", [
        np.eye(3), np.asfortranarray(np.eye(6))[::2, :3],
        np.asfortranarray(np.eye(3, dtype=np.float32))],
        ids=["c_ordered", "strided_rows", "float32"])
    def test_rejects(self, A):
        with pytest.raises(TypeError, match="Fortran-ordered"):
            self.call(A)

    def test_nonzero_info_raises(self):
        # dpotrf stops at the first non-positive pivot and reports it
        A = np.asfortranarray([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError, match="info = 2"):
            _openblas.lapack("dpotrf", "L", 2, A, 2)


class TestBlasPinning:
    @pytest.fixture
    def blas(self):
        blas = _openblas.thread_control()
        if blas is None:
            pytest.skip("SciPy's OpenBLAS thread count cannot be set")
        return blas

    @pytest.mark.parametrize("fail", [False, True], ids=["ok", "raising"])
    def test_thread_count_restored(self, monkeypatch, caplog, blas, fail):
        # SciPy's OpenBLAS, which runs every product of a trial, runs one
        # thread in each pooled trial and gets its count back afterwards
        get, _ = blas
        before = get()
        seen = []
        real = empirical.run_trial

        def trial(spec, dist, seed, picks, run=None):
            seen.append(get())
            if fail:
                raise NumericError("trial failed")
            return real(spec, dist, seed, picks, run)

        caplog.set_level(logging.DEBUG, logger="hesspec")
        monkeypatch.setenv("HESSPEC_THREADS", "2")
        monkeypatch.setattr(empirical, "run_trial", trial)
        spec, seed = signal_spec(p=32, n=128)
        an = analyze(spec)
        if fail:
            with pytest.raises(NumericError, match="trial failed"):
                compare(spec, an.curve, an.spikes, trials=2, base_seed=seed)
        else:
            compare(spec, an.curve, an.spikes, trials=2, base_seed=seed)
        assert seen and set(seen) == {1}     # a failure cancels the rest
        assert get() == before
        assert "trials=2 workers=2 blas=settable draws=fresh" in caplog.text

    def test_one_worker_loop(self, monkeypatch, caplog, blas):
        # a plain loop leaves SciPy's OpenBLAS at its own count
        get, put = blas
        before = get()
        put(2)
        try:
            seen = []
            caplog.set_level(logging.DEBUG, logger="hesspec")
            monkeypatch.setenv("HESSPEC_THREADS", "1")
            monkeypatch.setattr(
                empirical, "run_trial", lambda spec, dist, seed, picks,
                run=None: seen.append(get()))
            spec, _ = signal_spec(p=8, n=32)
            run_trials(spec, "gaussian", [5, 6])
            assert seen == [2, 2] and get() == 2
            assert "trials=2 workers=1 blas=settable" in caplog.text
        finally:
            put(before)

    @pytest.mark.parametrize("seeds, settable, logged", [
        ([5], True, "trials=1 workers=1 blas=settable"),
        ([5, 6, 7], False, "workers=1 blas=not-settable"),
    ], ids=["one_trial", "count_not_settable"])
    def test_serial_loop(self, monkeypatch, caplog, seeds, settable, logged):
        # one trial, or a thread count of SciPy's OpenBLAS that cannot be
        # set while HESSPEC_THREADS is unset: the trials run in order on
        # this thread
        caplog.set_level(logging.DEBUG, logger="hesspec")
        monkeypatch.delenv("HESSPEC_THREADS", raising=False)
        monkeypatch.setattr(empirical, "worker_count", lambda: 2)
        if not settable:
            monkeypatch.setattr(_openblas, "thread_control", lambda: None)
        elif _openblas.thread_control() is None:
            pytest.skip("SciPy's OpenBLAS thread count cannot be set")
        monkeypatch.setattr(empirical, "run_trial",
                            lambda spec, dist, seed, picks, run=None:
                            (seed, threading.current_thread()))
        here = threading.current_thread()
        spec, _ = signal_spec(p=8, n=32)
        assert run_trials(spec, "gaussian", seeds) == [(s, here) for s in seeds]
        assert logged in caplog.text

    def test_env_runs_a_pool_without_blas_control(self, monkeypatch, caplog):
        caplog.set_level(logging.DEBUG, logger="hesspec")
        monkeypatch.setenv("HESSPEC_THREADS", "2")
        monkeypatch.setattr(_openblas, "thread_control", lambda: None)
        both = threading.Barrier(2, timeout=30)

        def trial(spec, dist, seed, picks, run=None):
            if seed < 7:
                both.wait()            # the first two trials run at once
            return seed, threading.current_thread()

        monkeypatch.setattr(empirical, "run_trial", trial)
        out = run_trials(None, "gaussian", [5, 6, 7])
        assert [s for s, _ in out] == [5, 6, 7]
        assert len({t for _, t in out}) == 2
        assert "trials=3 workers=2 blas=not-settable" in caplog.text

    def test_failing_picks_stop_the_pool(self, monkeypatch, blas):
        # the calling thread gets picks in order while the helper runs the
        # jobs already queued; once picks 3 raises, no later picks is got
        # and at most the trial the helper was starting begins
        get, _ = blas
        before = get()
        events, error = [], ValueError("picks failed")

        def picks(k):
            events.append(("picks", k))
            if k == 3:
                events.append(("failed", k))
                raise error
            return ()

        def trial(spec, dist, seed, picks, run=None):
            events.append(("trial", seed))
            time.sleep(0.02)
            return seed

        monkeypatch.setenv("HESSPEC_THREADS", "2")
        monkeypatch.setattr(empirical, "run_trial", trial)
        spec, _ = signal_spec(p=8, n=32)
        with pytest.raises(ValueError) as caught:
            empirical._pool([(spec, "gaussian", 5 + k, partial(picks, k))
                             for k in range(8)])
        assert caught.value is error
        assert [k for what, k in events if what == "picks"] == [0, 1, 2, 3]
        after = events[events.index(("failed", 3)) + 1:]
        assert len(after) <= 1 and all(what == "trial" for what, _ in after)
        assert get() == before

    def test_empty_pool_starts_no_thread(self, monkeypatch):
        monkeypatch.setenv("HESSPEC_THREADS", "2")
        started, real = [], threading.Thread.start

        def start(self):
            started.append(self)
            real(self)

        monkeypatch.setattr(threading.Thread, "start", start)
        got = []
        runner = threading.Thread(
            target=lambda: got.append(empirical._pool([])), daemon=True)
        runner.start()
        runner.join(timeout=30)
        assert not runner.is_alive() and got == [[]]
        assert started == [runner]


class TestSidePairing:
    def test_kth_spike_pairs_with_kth_extreme(self):
        spec, seed = two_sided_spec()
        an = analyze(spec)
        spikes = an.spikes
        assert [s.side for s in spikes] == ["left", "right", "right"]
        rep = compare(spec, an.curve, spikes, trials=3, base_seed=seed)
        trials = [run_trial(spec, "gaussian", seed + k, [-1])
                  for k in range(3)]
        for rank, spike_no in ((0, 0), (-2, 1), (-1, 2)):
            emp, theo, err = rep.spike_errors[spike_no]
            assert emp == pytest.approx(
                np.mean([t.eigenvalues[rank] for t in trials]), rel=1e-12)
            assert err < 0.04
        # the inner right spike pairs with the second eigenvalue from the
        # top, the outer one with the top eigenvector
        assert rep.spike_errors[1][0] < rep.spike_errors[2][0]
        target = spec.V[:, np.argmax(np.diag(spikes[2].alignment))]
        top_cos2 = np.mean([measure_alignment(t.paired[0][1], target)
                            for t in trials])
        assert rep.alignment_errors[2][0] == pytest.approx(top_cos2,
                                                           rel=1e-10)


class TestInGapPairing:
    def test_in_gap_spike_pairs_inside_the_gap(self):
        # fig3 "four": a two-bulk support with a spike at 0.3366 in the gap
        from hesspec.presets import preset_config
        cfg = dict(preset_config("fig3"),
                   cov={"diag_blocks": [[1.0, 400], [4.0, 400]]})
        spec, seed = build_spec(cfg)
        an = analyze(spec)
        assert an.support.bulk_count == 2 and len(an.spikes) == 1
        rep = compare(spec, an.curve, an.spikes, trials=2, base_seed=seed)
        emp, theo, _ = rep.spike_errors[0]
        assert theo == pytest.approx(0.3366, abs=1e-4)
        assert emp == pytest.approx(theo, abs=0.02)

    def test_pairing_keeps_only_vectors(self):
        spec, seed = signal_spec(p=64, n=256)
        s = run_trial(spec, "gaussian", seed,
                      [(0.2, 0.3, 0.25), (10.0, 11.0, 10.5), -1, 0])
        (k, vec), (top, top_vec), (last, last_vec), (bottom, bottom_vec) = \
            s.paired
        ev = s.eigenvalues
        assert k == np.argmin(np.abs(ev - 0.25)) and 0.2 < ev[k] < 0.3
        assert top == last == len(ev) - 1    # empty gap: nearest overall
        assert bottom == 0
        np.testing.assert_array_equal(top_vec, last_vec)
        for v in (vec, top_vec, bottom_vec):
            assert v.base is None        # copies, not views of eigenvectors


class TestPicks:
    """run_trial returns one eigenpair per pick, in pick order, and compare
    makes one pick per spike, in spike order."""

    def test_pairs_in_the_order_asked(self):
        spec, seed = signal_spec(p=64, n=256)
        vals, vecs = np.linalg.eigh(build_hessian(*trial_pieces(spec, seed)))
        p = spec.p
        s = run_trial(spec, "gaussian", seed,
                      [-1, 3, (vals[20], vals[40], vals[30]), 0, -1, p - 1])
        assert [k for k, _ in s.paired] == [p - 1, 3, 30, 0, p - 1, p - 1]
        for k, vec in s.paired:
            assert abs(vec @ vecs[:, k]) >= 1 - 1e-10
        # a repeated pick, negative or not, gives the same vector
        for _, vec in s.paired[4:]:
            np.testing.assert_array_equal(vec, s.paired[0][1])

    def test_no_picks_solve_no_eigenvectors(self, monkeypatch):
        spec, seed = signal_spec(p=16, n=64)
        want = run_trial(spec, "gaussian", seed, [0]).eigenvalues

        def refuse(self, ks):
            raise AssertionError(f"eigenvectors asked at {ks}")

        monkeypatch.setattr(empirical._Tridiagonal, "eigenvectors", refuse)
        s = run_trial(spec, "gaussian", seed)
        assert s.paired == ()
        np.testing.assert_array_equal(s.eigenvalues, want)

    @pytest.mark.parametrize("pick", [16, -17])
    def test_index_out_of_range(self, pick):
        spec, seed = signal_spec(p=16, n=64)
        with pytest.raises(IndexError):
            run_trial(spec, "gaussian", seed, [pick])

    VALS = np.array([-1.0, -0.5, 0.2, 0.6, 1.4, 2.5, 4.0, 5.0])
    MU = np.arange(1.0, 9.0)

    def compare_picks(self, monkeypatch, located, sup=None):
        """The picks compare asks of run_trials for spikes at these
        (location, side), and its report, with the support sup in place
        of the spec's when given; trial s shifts every eigenvalue of VALS
        by s, and the vector at index k is e_k."""
        from hesspec.spikes import SpikeReport

        spikes = [SpikeReport(location=x, side=side, gap=0.1,
                              alignment=np.diag([1.0, 0.0, 0.0]),
                              det_residual=0.0) for x, side in located]
        asked = []

        def run(spec, dist, seeds, picks):
            asked.append(picks)
            ks = [empirical._pick_index(self.VALS, pick) for pick in picks]
            return [EmpiricalSpectrum(
                eigenvalues=self.VALS + s, seed=s,
                paired=tuple((k, np.eye(8)[k]) for k in ks)) for s in seeds]

        monkeypatch.setattr(empirical, "run_trials", run)
        if sup is not None:
            monkeypatch.setattr(empirical, "support", lambda spec, window: sup)
        spec = ProblemSpec(p=8, n=16, mu=self.MU, cov=ScaledIdentity(1.0),
                           w_star=np.zeros(8), w=np.zeros(8),
                           model=ResponseModel.logistic(),
                           weight=WeightFn.loss_curvature("logistic"))
        curve = SimpleNamespace(grid=np.array([0.0, 3.0]),
                                density=np.array([1 / 3, 1 / 3]))
        rep = compare(spec, curve, spikes, trials=2, base_seed=0)
        assert len(asked) == 1
        return asked[0], rep

    def test_compare_picks_per_spike(self, monkeypatch):
        # left inner, in-gap, right outer, left outer, right inner
        sup = SupportReport(intervals=[(2.0, 3.0), (0.0, 1.0)], bulk_count=2,
                            bounded=True)
        picks, rep = self.compare_picks(
            monkeypatch, [(-0.5, "left"), (1.5, "right"), (5.0, "right"),
                          (-1.0, "left"), (4.0, "right")], sup)
        assert picks == [1, (1.0, 2.0, 1.5), -1, 0, -2]
        # the mean over seeds 0 and 1 of each spike's picked eigenvalue,
        # and the cos2 of its vector e_k against mu
        picked = [1, 4, 7, 0, 6]
        assert [e for e, _, _ in rep.spike_errors] == pytest.approx(
            [self.VALS[k] + 0.5 for k in picked], rel=1e-15)
        assert [c for c, _, _ in rep.alignment_errors] == pytest.approx(
            [self.MU[k] ** 2 / (self.MU @ self.MU) for k in picked],
            rel=1e-15)

    def test_compare_ranks_equal_spikes_in_spike_order(self, monkeypatch):
        picks, _ = self.compare_picks(
            monkeypatch, [(4.0, "right"), (-1.0, "left"), (4.0, "right"),
                          (-1.0, "left")])
        assert picks == [-1, 0, -2, 1]


class TestWorkerCount:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("HESSPEC_THREADS", "2")
        assert worker_count() == 2

    def test_env_invalid(self, monkeypatch):
        monkeypatch.setenv("HESSPEC_THREADS", "many")
        with pytest.raises(DomainError, match="positive integer"):
            worker_count()

    @pytest.mark.parametrize("env", ["0", "-3"])
    def test_env_not_positive(self, monkeypatch, env):
        monkeypatch.setenv("HESSPEC_THREADS", env)
        with pytest.raises(DomainError, match="positive integer"):
            worker_count()

    def test_default_positive(self, monkeypatch):
        # every usable core runs a trial
        monkeypatch.delenv("HESSPEC_THREADS", raising=False)
        assert worker_count() == len(os.sched_getaffinity(0))
