import numpy as np
import pytest

from hesspec import (Diagonal, ProblemSpec, ResponseModel, ScaledIdentity,
                     WeightFn, analyze, build_spec, classify_g_support,
                     default_scan_range, density, find_spikes, solve_point,
                     stieltjes_derivatives, support)
from hesspec.errors import BranchViolation, HesspecError
from hesspec.presets import preset_config


def quarter_wishart(p=512, n=2048):
    """Logistic spec with w = w* = mu = 0: the Hessian is (1/4) * Wishart."""
    z = np.zeros(p)
    return ProblemSpec(p=p, n=n, mu=z, cov=ScaledIdentity(1.0), w_star=z, w=z,
                       model=ResponseModel.logistic(),
                       weight=WeightFn.loss_curvature("logistic"))


def mp_stieltjes(z, c, scale=0.25):
    """Marchenko-Pastur Stieltjes transform of scale * Wishart(c)."""
    x = z / scale
    a = 1.0 - c - x
    root = np.sqrt(a * a - 4.0 * c * x + 0j)
    m1 = (a - root) / (2.0 * c * x) / scale
    m2 = (a + root) / (2.0 * c * x) / scale
    if np.imag(z) > 0:
        return m1 if m1.imag > 0 else m2
    # on the real axis off the support, m is real and increasing; the
    # physical branch is the one decaying like -1/z
    return m1 if abs(m1) < abs(m2) else m2


def fig3_four():
    """The fig3 "four" preset setting: two covariance atoms, logistic loss."""
    cfg = dict(preset_config("fig3"),
               cov={"diag_blocks": [[1.0, 400], [4.0, 400]]})
    return build_spec(cfg)[0]


def eps_density(spec, xs):
    """Im m / pi at x + i*eps for each x, eps as density() picks it for the
    grid xs: a check of the support edges that does not read them."""
    eps = max(1e-6, 1e-4 * (max(xs) - min(xs)) / 100.0)
    return np.array([solve_point(spec, x + 1j * eps).m.imag / np.pi
                     for x in xs])


def mp_density(x, c, scale=0.25):
    lo, hi = scale * (1 - np.sqrt(c)) ** 2, scale * (1 + np.sqrt(c)) ** 2
    inside = (x > lo) & (x < hi)
    out = np.zeros_like(np.asarray(x, dtype=float))
    xi = np.asarray(x)[inside]
    out[inside] = np.sqrt((hi - xi) * (xi - lo)) / (2 * np.pi * c * scale * xi)
    return out


class TestSolvePoint:
    def test_real_negative_axis_oracle(self):
        spec = quarter_wishart()
        pt = solve_point(spec, -0.25)
        exact = mp_stieltjes(-0.25, 0.25).real
        assert exact == pytest.approx(2.1245154965971, rel=1e-10)
        assert pt.m.real == pytest.approx(exact, rel=1e-9)
        assert pt.residual < 1e-10

    def test_far_field_decay(self):
        spec = quarter_wishart()
        pt = solve_point(spec, -1e6)
        assert pt.m.real == pytest.approx(1e-6, rel=1e-5)

    def test_inside_support_upper_half_plane(self):
        spec = quarter_wishart()
        pt = solve_point(spec, 0.3 + 1e-6j)
        assert pt.m.imag > 0
        assert pt.m.imag / np.pi == pytest.approx(mp_density(np.array([0.3]),
                                                             0.25)[0], rel=1e-3)

    def test_real_point_inside_support_rejected(self):
        spec = quarter_wishart()
        with pytest.raises(HesspecError):
            solve_point(spec, 0.3)

    def test_self_consistency(self):
        spec = quarter_wishart()
        for z in (-0.5, 0.7, 0.2 + 0.05j):
            pt = solve_point(spec, z)
            assert pt.residual < 1e-10

    def test_warm_start_agrees_with_cold(self):
        # warm_start only seeds the Newton solve at complex z
        spec = quarter_wishart()
        z = 0.60 + 1e-3j
        cold = solve_point(spec, z)
        near = solve_point(spec, 0.61 + 1e-3j)
        warm = solve_point(spec, z, warm_start=near.delta)
        assert abs(warm.m - cold.m) < 1e-8
        assert warm.iterations < cold.iterations

    def test_random_upper_half_plane_against_mp(self):
        spec = quarter_wishart()
        rng = np.random.default_rng(23)
        for _ in range(200):
            z = complex(rng.uniform(-0.5, 1.2), 10 ** rng.uniform(-3, 0))
            pt = solve_point(spec, z)
            assert abs(pt.m - mp_stieltjes(z, 0.25)) < 1e-9
            assert pt.m.imag * z.imag > 0

    @pytest.mark.parametrize("eps", [1e-6, 1e-5])
    def test_converges_at_the_edge(self, eps):
        # at the right MP edge a fixed-point step contracts by 1 - O(sqrt eps)
        z = 0.5625 + eps * 1j
        pt = solve_point(quarter_wishart(), z)
        assert abs(pt.m - mp_stieltjes(z, 0.25)) < 1e-9


class TestDerivatives:
    def test_m_prime_matches_finite_difference(self):
        spec = quarter_wishart()
        for z in (-0.3, 0.75, 0.4 + 0.1j):
            pt = solve_point(spec, z)
            _, m_prime, _ = stieltjes_derivatives(spec, pt)
            h = 1e-6
            fd = (solve_point(spec, z + h).m - solve_point(spec, z - h).m) / (2 * h)
            assert abs(m_prime - fd) < 1e-4 * max(1.0, abs(m_prime))

    def test_m_prime_positive_off_support(self):
        spec = quarter_wishart()
        for z in (-1.0, 0.01, 0.60, 5.0):
            pt = solve_point(spec, z)
            _, m_prime, _ = stieltjes_derivatives(spec, pt)
            assert m_prime.real > 0


class TestDensity:
    def test_matches_analytic_mp(self):
        spec = quarter_wishart()
        grid = np.linspace(0.08, 0.55, 60)
        curve = density(spec, grid, epsilon=1e-5)
        np.testing.assert_allclose(curve.density, mp_density(grid, 0.25),
                                   atol=2e-3)

    def test_total_mass(self):
        spec = quarter_wishart()
        lo, hi = default_scan_range(spec)
        grid = np.linspace(lo, hi, 500)
        curve = density(spec, grid)
        mass = np.trapezoid(np.nan_to_num(curve.density), grid)
        assert mass == pytest.approx(1.0, abs=0.02)

    def test_negation_of_w_leaves_density(self):
        p = 64
        w = np.zeros(p)
        w[0] = 2.0
        base = dict(p=p, n=4 * p, mu=np.zeros(p), cov=ScaledIdentity(1.0),
                    w_star=np.zeros(p), model=ResponseModel.logistic(),
                    weight=WeightFn.loss_curvature("logistic"))
        up = ProblemSpec(w=w, **base)
        dn = ProblemSpec(w=-w, **base)
        grid = np.linspace(0.01, 0.6, 40)
        np.testing.assert_allclose(density(up, grid).density,
                                   density(dn, grid).density, rtol=1e-8)

    def test_nan_outside_never_inside(self):
        spec = quarter_wishart()
        grid = np.linspace(0.1, 0.5, 30)
        assert np.all(np.isfinite(density(spec, grid).density))

    def test_stays_on_the_stieltjes_branch(self):
        # fig1cd's curvature is unbounded both ways; unguarded Newton steps
        # land on wrong-branch roots (Im m < 0) at some of these points
        spec, _ = build_spec(preset_config("fig1cd"))
        curve = density(spec, np.linspace(-10.0, 10.0, 400))
        assert np.all(curve.density > 0)

    @staticmethod
    def window_and_interior(spec, points=200):
        lo, hi = default_scan_range(spec)
        grid = np.linspace(lo, hi, points)
        inside = np.zeros(points, dtype=bool)
        for a, b in support(spec, (lo, hi)).intervals:
            if b > a:
                inside |= (grid >= a) & (grid <= b)
        return grid, inside

    @pytest.mark.parametrize("make", [quarter_wishart, fig3_four],
                             ids=["mp", "fig3-four"])
    def test_zero_off_the_support_one_solve_per_point_inside(self, make,
                                                             monkeypatch):
        import hesspec.bulk
        spec = make()
        grid, inside = self.window_and_interior(spec)
        calls = []
        solve = hesspec.bulk.solve_point

        def counted(*args, **kwargs):
            calls.append(args[1])
            return solve(*args, **kwargs)

        monkeypatch.setattr(hesspec.bulk, "solve_point", counted)
        curve = density(spec, grid)
        assert 0 < inside.sum() < len(grid) and len(calls) == inside.sum()
        assert np.all(curve.density[~inside] == 0.0)
        loop = [solve(spec, complex(x, curve.epsilon)).m.imag / np.pi
                for x in grid[inside]]
        np.testing.assert_allclose(curve.density[inside], loop, rtol=0,
                                   atol=1e-8 * max(loop))

    def test_unsorted_grid(self):
        spec = quarter_wishart()
        grid, _ = self.window_and_interior(spec)
        perm = np.random.default_rng(5).permutation(len(grid))
        curve = density(spec, grid[perm])
        np.testing.assert_array_equal(curve.grid, grid[perm])
        np.testing.assert_array_equal(curve.density,
                                      density(spec, grid).density[perm])

    @pytest.mark.parametrize("loss", ["square", "logistic"])
    def test_atom_at_zero_is_not_drawn(self, loss):
        # p = 2n: the continuous part has mass 1/c = 1/2, the atom at 0 the
        # rest; at w = 0 the logistic curvature is the constant 1/4
        z = np.zeros(400)
        spec = ProblemSpec(p=400, n=200, mu=z, cov=ScaledIdentity(1.0),
                           w_star=z, w=z, model=ResponseModel.logistic(),
                           weight=WeightFn.loss_curvature(loss))
        assert density(spec, [0.0]).density[0] == 0.0
        grid = np.linspace(*default_scan_range(spec), 4000)
        mass = np.trapezoid(density(spec, grid).density, grid)
        assert mass == pytest.approx(1.0 / spec.c, abs=1e-3)

    def test_failed_points_are_counted(self, monkeypatch, caplog):
        import hesspec.bulk
        from hesspec.errors import NonConvergence
        spec = quarter_wishart()
        grid = np.linspace(0.0, 0.7, 50)
        solve = hesspec.bulk.solve_point

        def fail_at_0_3(spec, z, *args, **kwargs):
            if z.real == grid[21]:
                raise NonConvergence("forced", residual=1.0)
            return solve(spec, z, *args, **kwargs)

        monkeypatch.setattr(hesspec.bulk, "solve_point", fail_at_0_3)
        with caplog.at_level("WARNING", logger="hesspec"):
            curve = density(spec, grid)
        assert np.flatnonzero(np.isnan(curve.density)).tolist() == [21]
        assert np.all(curve.density[22:35] > 0)
        warned = [r for r in caplog.records if r.name == "hesspec"]
        assert len(warned) == 1 and warned[0].levelname == "WARNING"
        assert "1 of 35 points" in warned[0].getMessage()
        assert f"eps={curve.epsilon:g}" in warned[0].getMessage()


class TestSupport:
    def test_mp_edges(self):
        spec = quarter_wishart()
        lo, hi = default_scan_range(spec)
        rep = support(spec, (lo, hi))
        assert rep.bulk_count == 1
        left, right = rep.intervals[0]
        assert left == pytest.approx(0.0625, abs=1e-3)
        assert right == pytest.approx(0.5625, abs=1e-3)
        assert rep.bounded

    def test_scaled_covariance_scales_edges(self):
        p = 128
        z = np.zeros(p)
        spec = ProblemSpec(p=p, n=4 * p, mu=z, cov=ScaledIdentity(2.0),
                           w_star=z, w=z, model=ResponseModel.logistic(),
                           weight=WeightFn.loss_curvature("square"))
        # square loss, C = 2I: plain Wishart scaled by 2
        lo, hi = default_scan_range(spec)
        rep = support(spec, (lo, hi))
        left, right = rep.intervals[0]
        assert left == pytest.approx(2 * 0.25, abs=4e-3)
        assert right == pytest.approx(2 * 2.25, abs=4e-3)

    def test_scan_window_contains_support(self):
        spec = quarter_wishart()
        lo, hi = default_scan_range(spec)
        assert lo < 0.0625 and hi > 0.5625

    def test_empty_when_scanned_off_support(self):
        spec = quarter_wishart()
        rep = support(spec, (5.0, 6.0))
        assert rep.intervals == [] and rep.bulk_count == 0


class TestMultiBulk:
    def test_two_bulks_split_and_merge(self):
        p = 800
        z = np.zeros(p)
        base = dict(p=p, n=6000, mu=z, w_star=z, w=z,
                    model=ResponseModel.logistic(),
                    weight=WeightFn.loss_curvature("square"))
        wide = ProblemSpec(cov=Diagonal(np.repeat([1.0, 8.0], p // 2)), **base)
        lo, hi = default_scan_range(wide)
        assert support(wide, (lo, hi)).bulk_count == 2
        narrow = ProblemSpec(cov=Diagonal(np.repeat([1.0, 1.3], p // 2)), **base)
        lo, hi = default_scan_range(narrow)
        assert support(narrow, (lo, hi)).bulk_count == 1

    def test_many_close_atoms(self):
        # 200 distinct covariance atoms, some far closer than their spread
        p = 200
        z = np.zeros(p)
        cov = Diagonal(np.random.default_rng(3).uniform(1.0, 3.0, p))
        spec = ProblemSpec(p=p, n=4 * p, mu=z, cov=cov, w_star=z, w=z,
                           model=ResponseModel.logistic(),
                           weight=WeightFn.loss_curvature("square"))
        (left, right), = support(spec, default_scan_range(spec)).intervals
        d = eps_density(spec, [left - 0.02, left + 0.02, right - 0.02,
                               right + 0.02])
        assert d[0] < 1e-3 < d[1] and d[3] < 1e-3 < d[2]


# The fig3 "four" covariance with w = 0, where the logistic curvature is the
# constant 1/4.  Edges computed once with perfbench/oracles.py
# constant_curvature(0.25, atoms, weights, rho, c), an independent two-atom
# Silverstein-Choi inverse map.
FIG3_FOUR_TWIN_EDGES = [0.12255924095212181, 0.3648172992221225,
                        0.5754273169541165, 1.6038628095383056]


def fig3_four_twin():
    cfg = dict(preset_config("fig3"), w="zeros",
               cov={"diag_blocks": [[1.0, 400], [4.0, 400]]})
    return build_spec(cfg)[0]


class TestExactEdges:
    @pytest.mark.parametrize("rho", [0.3, 30.0])
    def test_mp_edges_at_any_mean(self, rho):
        spec, _ = build_spec({"p": 512, "n": 2048,
                              "mu": "pm_block(%.17g)" % np.sqrt(rho),
                              "model": "logistic", "loss": "logistic"})
        rc = np.sqrt(spec.c)
        (left, right), = support(spec, default_scan_range(spec)).intervals
        assert left == pytest.approx(0.25 * (1 - rc) ** 2, abs=1e-9)
        assert right == pytest.approx(0.25 * (1 + rc) ** 2, abs=1e-9)

    def test_atom_at_zero_for_c_above_one(self):
        # square loss, C = I, p = 2n: MP edges (1 -+ sqrt 2)^2 plus the atom
        # of mass 1/2 at 0 that rank H <= n puts there
        z = np.zeros(400)
        spec = ProblemSpec(p=400, n=200, mu=z, cov=ScaledIdentity(1.0),
                           w_star=z, w=z, model=ResponseModel.logistic(),
                           weight=WeightFn.loss_curvature("square"))
        rep = support(spec, default_scan_range(spec))
        assert rep.intervals[0] == (0.0, 0.0)
        np.testing.assert_allclose(rep.intervals[1],
                                   [(1 - np.sqrt(2)) ** 2, (1 + np.sqrt(2)) ** 2],
                                   rtol=1e-12)

    def test_logistic_at_zero_weight_vector(self):
        # at w = 0 the logistic curvature is the constant 1/4, so the
        # measure is the square loss's with C = I/4, atom at 0 included
        z = np.zeros(400)
        base = dict(p=400, n=200, mu=z, w_star=z, w=z,
                    model=ResponseModel.logistic())
        logistic = ProblemSpec(cov=ScaledIdentity(1.0),
                               weight=WeightFn.loss_curvature("logistic"),
                               **base)
        square = ProblemSpec(cov=ScaledIdentity(0.25),
                             weight=WeightFn.loss_curvature("square"), **base)
        cls = classify_g_support(logistic)
        assert cls.bounded and cls.lower_bound == cls.upper_bound == 0.25
        rep = support(logistic, default_scan_range(logistic))
        assert rep.intervals[0] == (0.0, 0.0)
        np.testing.assert_allclose(
            rep.intervals[1],
            [0.25 * (1 - np.sqrt(2)) ** 2, 0.25 * (1 + np.sqrt(2)) ** 2],
            rtol=1e-12)
        assert rep.intervals == support(square,
                                        default_scan_range(square)).intervals

    def test_two_atom_edges(self):
        spec = fig3_four_twin()
        rep = support(spec, default_scan_range(spec))
        edges = [e for iv in rep.intervals for e in iv]
        np.testing.assert_allclose(edges, FIG3_FOUR_TWIN_EDGES, rtol=0,
                                   atol=1e-9)


class TestOneSidedWeightLaw:
    def test_exponential_loss_has_only_a_left_edge(self):
        spec, _ = build_spec(dict(preset_config("fig2"), loss="exponential"))
        cls = classify_g_support(spec)
        assert (cls.lower_bound, cls.upper_bound) == (0.0, None)
        lo, hi = default_scan_range(spec)
        rep = support(spec, (lo, hi))
        assert not rep.bounded and rep.bulk_count == 1
        left, right = rep.intervals[0]
        assert lo < left and right == hi
        # the complex fixed point agrees: no mass left of the edge
        d = eps_density(spec, [left - 0.01, left + 0.01])
        assert d[0] < 1e-3 < d[1]

    @pytest.mark.parametrize("cfg", [
        preset_config("fig1cd"),
        dict(preset_config("fig2"), loss="exponential")],
        ids=["fig1cd", "fig2-exponential"])
    def test_default_window_holds_the_mass(self, cfg):
        # the window comes from quantiles of g under the quadrature weights,
        # not from the extreme nodes
        curve = analyze(build_spec(cfg)[0]).curve
        mass = np.trapezoid(np.nan_to_num(curve.density), curve.grid)
        assert mass == pytest.approx(1.0, abs=0.01)

    def test_two_sided_unbounded_law_fills_the_window(self):
        spec, _ = build_spec(preset_config("fig1cd"))
        lo, hi = default_scan_range(spec)
        rep = support(spec, (lo, hi))
        assert rep.intervals == [(lo, hi)]
        assert not rep.bounded and rep.bulk_count == 1
        assert find_spikes(spec, rep) == []
