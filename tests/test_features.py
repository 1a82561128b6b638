import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from hesspec import features
from hesspec import (DenseSPD, Diagonal, ProblemSpec, ResponseModel,
                     ScaledIdentity, WeightFn, cov_spectrum, pinv2,
                     projection_law, sample_features)
from hesspec.errors import DomainError


def make_spec(p, n, mu=None, cov=None, w_star=None, w=None):
    z = np.zeros(p)
    return ProblemSpec(p=p, n=n, mu=mu if mu is not None else z,
                       cov=cov or ScaledIdentity(1.0),
                       w_star=w_star if w_star is not None else z,
                       w=w if w is not None else z,
                       model=ResponseModel.logistic(),
                       weight=WeightFn.loss_curvature("logistic"))


class TestCovSpectrum:
    def test_scaled_identity(self):
        vals, wts = cov_spectrum(ScaledIdentity(2.5), 10)
        np.testing.assert_allclose(vals, [2.5])
        np.testing.assert_allclose(wts, [1.0])

    def test_diagonal_groups_repeats(self):
        vals, wts = cov_spectrum(Diagonal(np.array([1.0, 1.0, 2.0, 4.0])), 4)
        np.testing.assert_allclose(vals, [1.0, 2.0, 4.0])
        np.testing.assert_allclose(wts, [0.5, 0.25, 0.25])

    def test_dense_rotation_of_diagonal(self):
        # C = Q diag(1, 1, 4, 4) Q^T has the same spectral measure
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        C = q @ np.diag([1.0, 1.0, 4.0, 4.0]) @ q.T
        vals, wts = cov_spectrum(DenseSPD(C), 4)
        np.testing.assert_allclose(vals, [1.0, 4.0], atol=1e-10)
        np.testing.assert_allclose(wts, [0.5, 0.5])

    def test_dense_rejects_indefinite(self):
        with pytest.raises(DomainError):
            cov_spectrum(DenseSPD(np.diag([1.0, -1.0])), 2)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(5)
        C = rng.standard_normal((6, 6))
        C = C @ C.T + 6 * np.eye(6)
        _, wts = cov_spectrum(DenseSPD(C), 6)
        assert wts.sum() == pytest.approx(1.0, rel=1e-14)

    def test_sqrt_apply_squares_to_apply(self):
        rng = np.random.default_rng(7)
        C = rng.standard_normal((5, 5))
        C = C @ C.T + 5 * np.eye(5)
        for cov in (ScaledIdentity(3.0), Diagonal(np.arange(1.0, 6.0)),
                    DenseSPD(C)):
            v = rng.standard_normal(5)
            np.testing.assert_allclose(cov.sqrt_apply(cov.sqrt_apply(v)),
                                       cov.apply(v), rtol=1e-12)

    @pytest.mark.parametrize("make", [
        lambda: ScaledIdentity(0.0), lambda: ScaledIdentity(np.inf),
        lambda: Diagonal(np.array([1.0, -1.0])),
        lambda: Diagonal(np.ones((2, 2))),
        lambda: DenseSPD(np.ones((2, 3))),
        lambda: DenseSPD(np.array([[1.0, 0.5], [0.0, 1.0]])),
        lambda: cov_spectrum(DenseSPD(np.eye(3)), 4)],
        ids=["zero_scale", "infinite_scale", "negative_entry",
             "2d_entries", "not_square", "not_symmetric", "size_not_p"])
    def test_rejected(self, make):
        with pytest.raises(DomainError):
            make()


class TestAtomGrouping:
    """One grouping rule for every covariance form."""

    @staticmethod
    def spec_for(cov, mu, w_star, w):
        return make_spec(len(mu), 4 * len(mu), mu=mu, cov=cov,
                         w_star=w_star, w=w)

    def test_identity_forms_agree(self):
        p, s = 6, 2.5
        rng = np.random.default_rng(17)
        mu, w_star, w = rng.standard_normal((3, p))
        Z = rng.standard_normal((p, 5))
        specs = [self.spec_for(cov, mu, w_star, w) for cov in
                 (ScaledIdentity(s), Diagonal(np.full(p, s)),
                  DenseSPD(s * np.eye(p)))]
        ref = specs[0]
        for spec in specs[1:]:
            np.testing.assert_array_equal(spec.atoms[0], [s])
            np.testing.assert_array_equal(spec.atoms[1], [1.0])
            ((t, gram),) = zip(spec.atoms[0], spec.grams)
            assert t == s
            np.testing.assert_allclose(gram, ref.grams[0],
                                       rtol=1e-12)
            np.testing.assert_allclose(spec.cov.sqrt_apply(Z),
                                       ref.cov.sqrt_apply(Z), rtol=1e-12)

    def test_rotation_keeps_atoms_and_grams(self):
        # C' = Q diag(d) Q^T with mu, w*, w rotated by Q gives V' = Q V,
        # so every per-atom Gram of V is unchanged
        d = np.array([3.0, 1.0, 2.0, 1.0, 3.0, 3.0])
        rng = np.random.default_rng(19)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        mu, w_star, w = rng.standard_normal((3, 6))
        diag = self.spec_for(Diagonal(d), mu, w_star, w)
        dense = self.spec_for(DenseSPD(q @ np.diag(d) @ q.T),
                              q @ mu, q @ w_star, q @ w)
        np.testing.assert_array_equal(diag.atoms[0], [1.0, 2.0, 3.0])
        np.testing.assert_allclose(dense.atoms[0], diag.atoms[0], rtol=1e-12)
        np.testing.assert_allclose(dense.atoms[1], [2 / 6, 1 / 6, 3 / 6])
        np.testing.assert_array_equal(dense.atoms[1], diag.atoms[1])
        for t1, g1, t2, g2 in zip(diag.atoms[0], diag.grams, dense.atoms[0],
                                  dense.grams):
            assert t2 == pytest.approx(t1, rel=1e-12)
            np.testing.assert_allclose(g2, g1, atol=1e-10)

    def test_near_ties_share_an_atom(self):
        vals, wts = cov_spectrum(Diagonal(np.array([1.0, 1.0 + 1e-12, 2.0])), 3)
        np.testing.assert_allclose(vals, [1.0, 2.0])
        np.testing.assert_allclose(wts, [2 / 3, 1 / 3])


class TestProjectionLaw:
    def test_identity_cov_small_example(self):
        w_star = np.array([1.0, 0.0, 0.0])
        w = np.array([0.6, 0.8, 0.0])
        mu = np.array([0.5, 0.5, 0.0])
        spec = make_spec(3, 12, mu=mu, w_star=w_star, w=w)
        law = projection_law(spec)
        np.testing.assert_allclose(law.mean, [0.5, 0.7])
        np.testing.assert_allclose(law.cov, [[1.0, 0.6], [0.6, 1.0]])

    def test_diagonal_cov(self):
        cov = Diagonal(np.array([1.0, 4.0]))
        spec = make_spec(2, 8, cov=cov, w_star=np.array([1.0, 0.0]),
                         w=np.array([0.0, 1.0]))
        law = projection_law(spec)
        np.testing.assert_allclose(law.cov, [[1.0, 0.0], [0.0, 4.0]])

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(11)
        C = rng.standard_normal((4, 4))
        C = C @ C.T + 4 * np.eye(4)
        spec = make_spec(4, 400_000, mu=rng.standard_normal(4),
                         cov=DenseSPD(C), w_star=rng.standard_normal(4),
                         w=rng.standard_normal(4))
        law = projection_law(spec)
        X = sample_features(spec, "gaussian", np.random.default_rng(12))
        H = np.vstack([spec.w_star @ X, spec.w @ X])
        np.testing.assert_allclose(H.mean(axis=1), law.mean, atol=0.05)
        np.testing.assert_allclose(np.cov(H), law.cov, rtol=0.03, atol=0.05)


class TestPinv2:
    def test_invertible(self):
        g = np.array([[2.0, 1.0], [1.0, 3.0]])
        np.testing.assert_allclose(pinv2(g), np.linalg.inv(g), rtol=1e-12)

    def test_rank_one_penrose(self):
        v = np.array([3.0, 4.0])
        g = np.outer(v, v)
        gp = pinv2(g)
        np.testing.assert_allclose(g @ gp @ g, g, atol=1e-12)
        np.testing.assert_allclose(gp @ g @ gp, gp, atol=1e-12)
        np.testing.assert_allclose((g @ gp).T, g @ gp, atol=1e-12)
        np.testing.assert_allclose((gp @ g).T, gp @ g, atol=1e-12)

    def test_zero_matrix(self):
        np.testing.assert_array_equal(pinv2(np.zeros((2, 2))), np.zeros((2, 2)))


class TestProblemSpec:
    def test_signal_matrix_columns(self):
        cov = Diagonal(np.array([1.0, 2.0]))
        spec = make_spec(2, 8, mu=np.array([1.0, 0.0]), cov=cov,
                         w_star=np.array([0.0, 1.0]), w=np.array([1.0, 1.0]))
        np.testing.assert_allclose(spec.V[:, 0], [1.0, 0.0])
        np.testing.assert_allclose(spec.V[:, 1], [0.0, 2.0])
        np.testing.assert_allclose(spec.V[:, 2], [1.0, 2.0])

    def test_grouped_grams_sum_to_full_gram(self):
        rng = np.random.default_rng(13)
        C = rng.standard_normal((6, 6))
        C = C @ C.T + 6 * np.eye(6)
        spec = make_spec(6, 24, mu=rng.standard_normal(6), cov=DenseSPD(C),
                         w_star=rng.standard_normal(6),
                         w=rng.standard_normal(6))
        total = spec.grams.sum(0)
        np.testing.assert_allclose(total, spec.V.T @ spec.V, rtol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            make_spec(3, 12, mu=np.zeros(4))


class TestSampleFeatures:
    def test_rademacher_entries_are_signs(self):
        spec = make_spec(16, 64)
        X = sample_features(spec, "rademacher", np.random.default_rng(1))
        assert set(np.unique(X)) == {-1.0, 1.0}

    def test_gaussian_moments(self):
        spec = make_spec(4, 200_000, mu=np.array([1.0, -1.0, 0.0, 0.0]),
                         cov=Diagonal(np.array([1.0, 1.0, 2.0, 0.5])))
        X = sample_features(spec, "gaussian", np.random.default_rng(2))
        np.testing.assert_allclose(X.mean(axis=1), spec.mu, atol=0.02)
        np.testing.assert_allclose(X.var(axis=1), [1.0, 1.0, 2.0, 0.5],
                                   rtol=0.02)

    def test_student_t_standardized(self):
        # the t(7) noise is rescaled to unit variance; check against the
        # exact second moment dof/(dof-2) of the raw t distribution
        dof = 7.0
        raw_var, _ = integrate.quad(
            lambda t: t * t * (1 + t * t / dof) ** (-(dof + 1) / 2),
            -np.inf, np.inf)
        from scipy.special import gamma
        raw_var *= gamma((dof + 1) / 2) / (np.sqrt(dof * np.pi) * gamma(dof / 2))
        assert raw_var == pytest.approx(dof / (dof - 2), rel=1e-8)

        spec = make_spec(4, 400_000)
        X = sample_features(spec, "student_t:7", np.random.default_rng(3))
        assert X.var() == pytest.approx(1.0, rel=0.02)

    @pytest.mark.parametrize("cov", [
        ScaledIdentity(2.5),
        Diagonal(np.linspace(0.5, 3.0, 12)),
        DenseSPD(np.eye(12) + 0.3 * np.ones((12, 12))),
    ])
    def test_in_place_mean_is_bit_identical(self, cov):
        # X built in the noise buffer must reproduce the allocating form
        # mu + C^{1/2} Z exactly, for every feature law
        mu = np.linspace(-1.0, 1.0, 12)
        spec = make_spec(12, 40, mu=mu, cov=cov)
        noise = {
            "gaussian": lambda rng: rng.standard_normal((12, 40)),
            "rademacher": lambda rng: rng.integers(
                0, 2, size=(12, 40)).astype(float) * 2.0 - 1.0,
            "student_t:5": lambda rng: rng.standard_t(
                5.0, size=(12, 40)) * np.sqrt(3.0 / 5.0),
        }
        for dist, draw in noise.items():
            X = sample_features(spec, dist, np.random.default_rng(4))
            Z = draw(np.random.default_rng(4))
            np.testing.assert_array_equal(X, mu[:, None] + cov.sqrt_apply(Z),
                                          err_msg=dist)

    def test_rademacher_blocks_keep_the_int64_draw(self, monkeypatch):
        # five rows per block: 12 rows convert in two full blocks and a
        # remainder, bit for bit as the int64 draw cast to float
        monkeypatch.setattr(features, "_NOISE_BLOCK_BYTES", 8 * 40 * 5)
        X = sample_features(make_spec(12, 40), "rademacher",
                            np.random.default_rng(6))
        Z = np.random.default_rng(6).integers(0, 2, size=(12, 40))
        np.testing.assert_array_equal(X, Z.astype(float) * 2.0 - 1.0)

    def test_rademacher_peak_is_one_array_and_a_block(self):
        spec = make_spec(400, 3000)
        tracemalloc.start()
        try:
            X = sample_features(spec, "rademacher", np.random.default_rng(7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert X.nbytes == 8 * 400 * 3000
        assert X.nbytes < peak < X.nbytes + 2 * features._NOISE_BLOCK_BYTES

    def test_unknown_distribution(self):
        spec = make_spec(2, 4)
        with pytest.raises(DomainError):
            sample_features(spec, "cauchy", np.random.default_rng(0))
        with pytest.raises(DomainError):
            sample_features(spec, "student_t:2", np.random.default_rng(0))
