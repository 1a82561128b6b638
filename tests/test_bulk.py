import time
from dataclasses import replace
from math import comb

import numpy as np
import pytest
from scipy import optimize

from hesspec import (Diagonal, ProblemSpec, ResponseModel, ScaledIdentity,
                     WeightFn, analyze, build_spec, classify_g_support,
                     default_scan_range, density, find_spikes, solve_point,
                     stieltjes_derivatives, support)
from hesspec import bulk
from hesspec.errors import BranchViolation, HesspecError, NonConvergence
from hesspec.presets import PRESETS, _WRITES, preset_config


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

    def test_no_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(bulk, "FP_MAX_ITER", 1)
        with pytest.raises(NonConvergence):
            solve_point(quarter_wishart(), 0.3 + 1e-6j)

    def test_wrong_branch_raises(self, monkeypatch):
        # a converged root whose Im m has the sign opposite to Im z
        solve = bulk._iterate

        def conjugate(*args):
            pts, calls = solve(*args)
            return replace(pts, m=pts.m.conj()), calls

        monkeypatch.setattr(bulk, "_iterate", conjugate)
        with pytest.raises(BranchViolation):
            solve_point(quarter_wishart(), 0.3 + 1e-6j)


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
        curve = density(spec, grid)
        np.testing.assert_allclose(curve.density, mp_density(grid, 0.25),
                                   atol=2e-3)

    def test_total_mass(self):
        spec = quarter_wishart()
        lo, hi = default_scan_range(spec)
        grid = np.linspace(lo, hi, 500)
        curve = density(spec, grid)
        mass = np.trapezoid(np.nan_to_num(curve.density), grid)
        assert mass == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("p, n", [(200, 2000), (400, 800)],
                             ids=["c0.1", "c0.5"])
    def test_moments_match_marchenko_pastur(self, p, n):
        # square loss, C = I: H is a Wishart matrix, whose law has the
        # Narayana moments; x = (a+b)/2 - (b-a)/2 cos(theta) on the exact
        # support makes the trapezoid rule in theta spectrally accurate,
        # so what is left is the O(eps) bias of the solves
        spec, _ = build_spec({"p": p, "n": n, "loss": "square"})
        (a, b), = support(spec, (-np.inf, np.inf)).intervals
        theta = np.linspace(0.0, np.pi, 64)
        x = 0.5 * (a + b) - 0.5 * (b - a) * np.cos(theta)
        jac = density(spec, x).density * 0.5 * (b - a) * np.sin(theta)
        c = p / n
        for k in range(5):
            want = 1.0 if k == 0 else sum(
                c ** j / (j + 1) * comb(k, j) * comb(k - 1, j)
                for j in range(k))
            got = np.trapezoid(jac * x ** k, theta)
            assert got == pytest.approx(want, rel=1e-5), k

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

    def test_wide_wave_on_many_atoms(self, monkeypatch):
        # 800 atoms of C on a 2,000-point grid: the last wave solves over
        # 400 rows at once, each Newton step on a (row, atom) pole matrix
        # of more than 5 MB
        cfg = {"p": 800, "n": 1600,
               "cov": {"diag": np.linspace(0.5, 2.0, 800).tolist()},
               "mu": "gaussian_norm(1.0)", "w": "mu"}
        spec, _ = build_spec(cfg)
        assert len(spec.atoms[0]) == 800
        waves = TestEdgeSeeds.waves(monkeypatch)
        grid = np.linspace(*default_scan_range(spec), 2000)
        curve = density(spec, grid)
        assert max(len(w.z) for w in waves) > 400
        inside = np.flatnonzero(curve.density > 0)
        at = inside[np.linspace(0, len(inside) - 1, 10).astype(int)]
        cold = [solve_point(spec, complex(x, curve.epsilon)).m.imag / np.pi
                for x in grid[at]]
        np.testing.assert_allclose(curve.density[at], cold, rtol=0,
                                   atol=1e-9 * np.max(curve.density))

    @staticmethod
    def counted_e1_e2(monkeypatch):
        """The number of deltas of each ExpectationEngine.e1_e2 call."""
        from hesspec.expectations import ExpectationEngine
        rows = []
        e1_e2 = ExpectationEngine.e1_e2

        def counted(eng, delta):
            rows.append(np.size(delta))
            return e1_e2(eng, delta)

        monkeypatch.setattr(ExpectationEngine, "e1_e2", counted)
        return rows

    @pytest.mark.parametrize("make, points, max_calls, max_rows", [
        (fig3_four, 200, 10, np.inf),
        (lambda: build_spec(preset_config("fig1b"))[0], 200, 10, np.inf),
        (lambda: build_spec(preset_config("fig1cd"))[0], 400, np.inf, 961)],
        ids=["fig3-four", "fig1b", "fig1cd"])
    def test_batched_evaluations_are_few(self, make, points, max_calls,
                                         max_rows, monkeypatch):
        # the interior points are solved in waves of one batched e1_e2 call
        # per Newton step, seeded from their solved neighbours; bisection
        # waves seeded linearly in x take 36 and 39 calls on fig3-four and
        # fig1b, and 1,085 rows on fig1cd, and waves seeded from the points
        # next to the soft edges took 16 and 15 calls
        spec = make()
        lo, hi = default_scan_range(spec)
        grid = np.linspace(lo, hi, points)
        support(spec, (lo, hi))                # builds the exterior map
        rows = self.counted_e1_e2(monkeypatch)
        curve = density(spec, grid)
        assert np.all(np.isfinite(curve.density))
        assert 0 < len(rows) <= max_calls
        assert sum(rows) <= max_rows

    @pytest.mark.parametrize("cfg", [
        dict(preset_config("fig2"), loss="exponential"),
        preset_config("fig7")], ids=["fig2-exponential", "fig7"])
    def test_one_evaluation_per_newton_step(self, cfg, monkeypatch):
        # a wave's first e1_e2 call evaluates its starts, and every later
        # one takes one step of each active row, the damped step after a
        # rejected Newton candidate included, so the slowest row is in
        # every call; both densities have such rows
        spec, _ = build_spec(cfg)
        grid = np.linspace(*default_scan_range(spec), 400)
        bulk._exterior(spec)                  # built before counting
        rows = self.counted_e1_e2(monkeypatch)
        waves = []
        iterate = bulk._iterate

        def recorded(*args):
            pts, calls = iterate(*args)
            waves.append((pts.iterations, calls))
            return pts, calls

        monkeypatch.setattr(bulk, "_iterate", recorded)
        assert np.all(np.isfinite(density(spec, grid).density))
        for iterations, calls in waves:
            assert calls.tolist() == [iterations.max(), iterations.sum()]
        assert len(rows) == sum(calls[0] for _, calls in waves)
        assert sum(rows) == sum(calls[1] for _, calls in waves)

    @staticmethod
    def counted_iterate(monkeypatch, fail=None):
        """Record the z values that reach bulk._iterate; the solve fails
        at the z whose real part is `fail`."""
        from dataclasses import replace
        import hesspec.bulk
        calls = []
        iterate = hesspec.bulk._iterate

        def counted(eng, t, wts, c, z, start):
            calls.extend(np.real(z))
            pts, n = iterate(eng, t, wts, c, z, start)
            bad = pts.z.real == fail
            return replace(pts, residual=np.where(bad, 1.0, pts.residual)), n

        monkeypatch.setattr(hesspec.bulk, "_iterate", counted)
        return calls

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
        spec = make()
        grid, inside = self.window_and_interior(spec)
        calls = self.counted_iterate(monkeypatch)
        curve = density(spec, grid)
        assert 0 < inside.sum() < len(grid)
        assert sorted(calls) == grid[inside].tolist()
        assert np.all(curve.density[~inside] == 0.0)
        loop = [solve_point(spec, complex(x, curve.epsilon)).m.imag / np.pi
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

    def test_atom_at_zero_is_not_drawn_inside_a_bulk(self):
        # c = 2 and g unbounded both ways: the bulk covers 0, where the
        # atom of mass 1/2 would put (1/2) / (pi eps) on the grid point
        spec, _ = build_spec({
            "p": 400, "n": 200, "w_star": "pm_block(1.0)",
            "w": "gaussian_norm(0.8)", "model": "phase_retrieval",
            "loss": "phase_square", "seed": 3})
        grid = np.linspace(-6.0, 6.0, 2401)
        assert 0.0 in grid and support(spec, (-6.0, 6.0)).intervals == [
            (-6.0, 6.0)]
        curve = density(spec, grid)
        assert np.all(np.isfinite(curve.density))
        assert np.trapezoid(curve.density, grid) < 1.0

    def test_failed_points_are_counted(self, monkeypatch, caplog):
        spec = quarter_wishart()
        grid = np.linspace(0.0, 0.7, 50)
        self.counted_iterate(monkeypatch, fail=grid[21])
        with caplog.at_level("WARNING", logger="hesspec"):
            curve = density(spec, grid)
        assert np.flatnonzero(np.isnan(curve.density)).tolist() == [21]
        assert np.all(curve.density[22:35] > 0)
        warned = [r for r in caplog.records if r.name == "hesspec"]
        assert len(warned) == 1 and warned[0].levelname == "WARNING"
        assert "1 of 35 points" in warned[0].getMessage()
        assert f"eps={curve.epsilon:g}" in warned[0].getMessage()

    def test_logs_its_waves(self, caplog, monkeypatch):
        spec = quarter_wishart()
        grid = np.linspace(0.0, 0.7, 50)
        bulk._exterior(spec)                  # built before counting
        rows = self.counted_e1_e2(monkeypatch)
        with caplog.at_level("DEBUG", logger="hesspec"):
            density(spec, grid)
        logged = [r.getMessage() for r in caplog.records
                  if r.name == "hesspec" and r.levelname == "DEBUG"]
        assert len(logged) == 1
        # between the 2 solved edges, 35 points take the 7 that cut them
        # into 8 runs, then one wave of the 28 left
        assert logged[0] == (
            "density: 1 intervals, 35 interior points, 2 soft edges, "
            f"2 waves, {len(rows)} batched evaluations of {sum(rows)} rows, "
            "0 failed")


class TestEdgeSeeds:
    """Each soft edge is a solved row, with delta and d delta/du read off
    the edge's quadratic inverse map, so the first wave cuts each interval
    with one into 8 runs from the edges alone; an interval without one
    (its ends are hard edges or +-inf) starts from its middle point."""

    @staticmethod
    def waves(monkeypatch):
        """The StieltjesPoint of arrays of each bulk._iterate call."""
        import hesspec.bulk
        waves = []
        iterate = hesspec.bulk._iterate

        def recorded(*args):
            pts, n = iterate(*args)
            waves.append(pts)
            return pts, n

        monkeypatch.setattr(hesspec.bulk, "_iterate", recorded)
        return waves

    # at c = 1/2 the left edge lies on an angle of the exterior map's
    # grid, and at x = 0.021, where the O(eps) term below grows like 1/x
    @pytest.mark.parametrize("n, top, margin", [(2048, 0.7, 0.01),
                                                (1024, 0.8, 0.02)],
                             ids=["c0.25", "c0.5"])
    def test_marchenko_pastur_in_few_steps(self, monkeypatch, n, top,
                                           margin):
        spec = quarter_wishart(n=n)
        grid = np.linspace(0.0, top, 50)
        waves = self.waves(monkeypatch)
        curve = density(spec, grid)
        lo, hi = (0.25 * (1 + s * np.sqrt(spec.c)) ** 2 for s in (-1, 1))
        inside = grid[(grid >= lo) & (grid <= hi)]
        # the first wave is the 7 points that cut the interior into 8 runs,
        # started between the two edges; the points next to the edges are
        # in the second, and each takes at most 4 Newton steps after its
        # seed's evaluation
        cuts = len(inside) * np.arange(1, 8) // 8
        assert waves[0].z.real.tolist() == inside[cuts].tolist()
        assert len(waves) == 2
        nearest = np.isin(waves[1].z.real, inside[[0, -1]])
        assert np.count_nonzero(nearest) == 2
        assert np.max(waves[1].iterations[nearest]) - 1 <= 4
        eps = curve.epsilon
        at_eps = [mp_stieltjes(x + 1j * eps, spec.c).imag / np.pi
                  for x in grid]
        want = np.where((grid >= lo) & (grid <= hi), at_eps, 0.0)
        np.testing.assert_allclose(curve.density, want, rtol=0,
                                   atol=1e-9 * max(at_eps))
        # the eps-solution is the closed form on the axis to O(eps) at
        # points a grid step inside the edges
        away = (grid > lo + margin) & (grid < hi - margin)
        np.testing.assert_allclose(curve.density[away],
                                   mp_density(grid[away], spec.c), rtol=0,
                                   atol=100 * eps)

    @pytest.mark.parametrize("make", [
        fig3_four, lambda: build_spec(preset_config("fig7"))[0]],
        ids=["two-intervals", "trim-hard-edge"])
    def test_agrees_with_cold_solves(self, make, monkeypatch):
        spec = make()
        grid, inside = TestDensity.window_and_interior(spec)
        waves = self.waves(monkeypatch)
        curve = density(spec, grid)
        assert not np.any(np.isnan(curve.density))
        # every interval has a soft edge, so the first wave is the 7 points
        # that cut each interval's grid points into 8 runs, or all of them
        # where there are at most 16
        soft = bulk._exterior(spec).soft
        first, ends = [], []
        for a, b in support(spec, (grid[0], grid[-1])).intervals:
            pts = grid[(grid >= a) & (grid <= b)]
            cuts = (len(pts) * np.arange(1, 8) // 8 if len(pts) > 16
                    else np.arange(len(pts)))
            first += pts[cuts].tolist()
            ends += [a in soft, b in soft]
        assert waves[0].z.real.tolist() == first
        if make is not fig3_four:
            assert ends == [True, False]    # fig7's right edge is hard
        cold = [solve_point(spec, complex(x, curve.epsilon)).m.imag / np.pi
                for x in grid[inside]]
        np.testing.assert_allclose(curve.density[inside], cold, rtol=0,
                                   atol=1e-9 * max(cold))

    @pytest.mark.parametrize("make", [
        quarter_wishart, lambda: build_spec(preset_config("fig1b"))[0],
        fig3_four, lambda: build_spec(preset_config("fig7"))[0]],
        ids=["mp", "fig1b", "fig3-four", "fig7"])
    def test_grid_points_on_soft_edges(self, make, monkeypatch):
        # at a soft edge delta is real and F' = 0: a point there starts from
        # the edge's quadratic at x + i eps, and seeds no neighbour
        spec = make()
        window = np.linspace(*default_scan_range(spec), 398)
        edges = np.array(sorted(bulk._exterior(spec).soft))
        grid = np.sort(np.concatenate([window, edges]))
        rows = TestDensity.counted_e1_e2(monkeypatch)
        density(spec, window)
        plain = len(rows)
        curve = density(spec, grid)
        assert np.all(np.isfinite(curve.density))
        assert len(rows) - plain <= plain + 2
        cold = [solve_point(spec, complex(x, curve.epsilon)).m.imag / np.pi
                for x in edges]
        np.testing.assert_allclose(curve.density[np.isin(grid, edges)], cold,
                                   rtol=0, atol=1e-9 * np.max(curve.density))


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

    @pytest.mark.parametrize("cfg", [
        {"p": 512, "n": 2048, "mu": "pm_block(%.17g)" % np.sqrt(rho),
         "model": "logistic", "loss": "logistic"}
        for rho in (0.3, 1.0, 3.0, 10.0, 30.0)] + [
        dict(preset_config(name), **_WRITES[name].docs[stem])
        for name, stem in (("fig1a", "fig1a"), ("fig1b", "fig1b"),
                           ("fig3", "fig3_two"), ("fig3", "fig3_four"),
                           ("fig4", "fig4_theory"), ("fig5", "fig5"))],
        ids=["signal:0.3", "signal:1", "signal:3", "signal:10", "signal:30",
             "fig1a", "fig1b", "fig3_two", "fig3_four", "fig4", "fig5"])
    def test_default_window_resolves_the_bulk(self, cfg):
        # the mean moves isolated eigenvalues only, so the window frames the
        # bulk whatever |mu|: a quarter of the points inside, the mass whole
        spec, _ = build_spec(cfg)
        curve = analyze(spec).curve
        inside = sum(np.count_nonzero((a < curve.grid) & (curve.grid < b))
                     for a, b in support(spec, (-np.inf, np.inf)).intervals)
        mass = np.trapezoid(np.nan_to_num(curve.density), curve.grid)
        assert inside >= 100
        assert abs(mass - 1.0) <= 5e-3

    def test_empty_when_scanned_off_support(self):
        spec = quarter_wishart()
        rep = support(spec, (5.0, 6.0))
        assert rep.intervals == [] and rep.bulk_count == 0

    @pytest.mark.parametrize("cfg", [preset_config(name) for name in PRESETS]
                             + [{"p": 400, "n": 200, "loss": "square"},
                                {"p": 400, "n": 250, "w_star": "pm_block(1.0)",
                                 "w": "pm_block(0.8)", "weight": "trim",
                                 "model": "phase_retrieval"},
                                {"p": 64, "n": 128, "loss": "phase_square",
                                 "model": "phase_retrieval"}],
                             ids=list(PRESETS) + ["c2", "trim-c1.6", "g_zero"])
    def test_window_clips_the_exact_support(self, cfg):
        # support(spec, w) is the whole-line support clipped to w, plus the
        # atom (0, 0) when c > 1 or g = 0 and no clipped interval holds 0
        spec, _ = build_spec(cfg)
        exact = support(spec, (-np.inf, np.inf))
        bulks = [(a, b) for a, b in exact.intervals if b > a]
        ends = [v for iv in bulks for v in iv]
        assert exact.bounded == all(np.isfinite(ends))
        atom = spec.c > 1 or not bulks
        assert ((0.0, 0.0) in exact.intervals) == (
            atom and not any(a <= 0.0 <= b for a, b in bulks))
        lo, hi = default_scan_range(spec)
        windows = [(lo, hi), (min(lo, -1.0), -1e-3), (1e-3, max(hi, 1.0))]
        if bulks:   # a window ending inside the first interval
            a, b = bulks[0]
            windows.append((lo, 0.0 if a == -b else
                            a + 1.0 if b == np.inf else
                            b - 1.0 if a == -np.inf else 0.5 * (a + b)))
        for w_lo, w_hi in windows:
            clipped = [(max(a, w_lo), min(b, w_hi)) for a, b in bulks
                       if max(a, w_lo) < min(b, w_hi)]
            if atom and w_lo <= 0.0 <= w_hi and not any(
                    a <= 0.0 <= b for a, b in clipped):
                clipped = sorted(clipped + [(0.0, 0.0)])
            rep = support(spec, (w_lo, w_hi))
            assert rep.intervals == clipped
            assert rep.bulk_count == sum(b > a for a, b in clipped)
            assert rep.bounded == exact.bounded


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

    @pytest.mark.parametrize("w1, c", [(0.5, 800 / 6000), (0.2, 0.05),
                                       (0.9, 0.5)])
    def test_two_atom_gap_at_the_closed_form(self, w1, c):
        # on atoms 1 < t2 the gap's chi has the minimum c (a + b)^3 /
        # (t2 - 1)^2, a = w1^(1/3), b = (w2 t2^2)^(1/3): it opens iff that
        # is below 1; checked 1e-9 relative to either side of the boundary
        w = np.array([w1, 1.0 - w1])

        def excess(t2):
            a, b = np.cbrt(w * [1.0, t2 * t2])
            return c * (a + b) ** 3 - (t2 - 1.0) ** 2

        edge = optimize.brentq(excess, 1.0, 1e3, xtol=1e-15)
        if w1 == 0.5:
            assert edge == pytest.approx(2.1111054061, abs=1e-10)
        for r, gaps in ((1 - 1e-9, []), (1 + 1e-9, [0])):
            assert bulk._open_gaps(np.array([1.0, r * edge]), w, c) == gaps

    def test_one_atom_outer_branch_is_closed_form(self):
        # one atom: the bracket is the point t e - c t / delta, which the
        # bisection returns before any evaluation
        spec, _ = build_spec({"p": 256, "n": 512, "cov": 2.0,
                              "w": "pm_block(1.0)", "model": "logistic",
                              "loss": "logistic"})
        ext = bulk._exterior(spec)
        t, w = spec.atoms
        d = ext.delta(ext.theta[ext.theta != 0.0])
        e = ext.eng.sweep(d)[0]
        np.testing.assert_array_equal(bulk._branch_z(t, w, spec.c, None, d, e),
                                      t[0] * e - spec.c * t[0] / d)

    def test_gap_lists_match_bisection_to_adjacent_doubles(self):
        # on random 2-7 atom laws, with c at random and 1e-9 relative to
        # either side of one gap's boundary, the Newton minimum decides
        # chi < 1 as chi' bisected to two adjacent doubles does
        rng = np.random.default_rng(29)
        for _ in range(300):
            k = rng.integers(2, 8)
            t = np.sort(np.exp(rng.uniform(-3.0, 3.0, k)))
            w = rng.dirichlet(np.ones(k))
            wtt = w * t * t
            x = bulk._bisect(lambda x: (wtt / (t - x[:, None]) ** 3).sum(1),
                             t[:-1], t[1:])
            chi = (wtt / (t - x[:, None]) ** 2).sum(1)      # chi / c
            edge = 1.0 / chi[rng.integers(k - 1)]
            for c in (np.exp(rng.uniform(-5.0, 1.0)), (1 - 1e-9) * edge,
                      (1 + 1e-9) * edge):
                want = np.flatnonzero(c * chi < 1.0).tolist()
                assert bulk._open_gaps(t, w, c) == want

    @pytest.mark.parametrize("law, want", [
        ("uniform", ([], [])), ("wishart", ([0], [])),
        ("clusters", ([299, 599], [299]))])
    def test_gap_lists_on_800_atoms(self, law, want):
        # at c = 0.05 and 0.25 the bound and one bisection give the lists
        # of chi' bisected to two adjacent doubles on every gap
        t, w = eight_hundred_atoms(law)
        wtt = w * t * t

        def slope(x):                                       # chi' / 2c
            d = 1.0 / (t - x[:, None])
            return (wtt * d * d * d).sum(1)

        x = bulk._bisect(slope, t[:-1], t[1:])
        d = 1.0 / (t - x[:, None])
        chi = (wtt * d * d).sum(1)                          # chi / c
        for c, gaps in zip((0.05, 0.25), want):
            assert np.flatnonzero(c * chi < 1.0).tolist() == gaps
            assert bulk._open_gaps(t, w, c) == gaps

    def test_gap_list_on_800_atoms_is_fast(self):
        # the uniform law's narrowest gap (width 2.4e-7 at t = 1.37) is below
        # what a width-relative tolerance can resolve in doubles; the closed
        # form closes it, and the whole list takes milliseconds
        t, w = eight_hundred_atoms("uniform")
        times = []
        for _ in range(3):
            start = time.perf_counter()
            bulk._open_gaps(t, w, 0.05)
            times.append(time.perf_counter() - start)
        assert min(times) < 0.1


def eight_hundred_atoms(law):
    """800 equal-weight atoms of C, sorted: uniform on (1, 3), the
    eigenvalues of a sample covariance of 2,400 standard Gaussian draws in
    dimension 800, or 300, 300 and 200 values at 1, 3 and 6 with 0.01 N(0, 1)
    jitter (CI's three-cluster covariance); numpy seed 0."""
    rng = np.random.default_rng(0)
    if law == "uniform":
        t = rng.uniform(1.0, 3.0, 800)
    elif law == "wishart":
        x = rng.standard_normal((800, 2400))
        t = np.linalg.eigvalsh(x @ x.T / 2400)
    else:
        t = (np.repeat([1.0, 3.0, 6.0], [300, 300, 200])
             + 0.01 * rng.standard_normal(800))
    return np.sort(t), np.full(800, 1.0 / 800)


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
        assert rep.bulk_count == 1          # the atom is not a bulk
        np.testing.assert_allclose(rep.intervals[1],
                                   [(1 - np.sqrt(2)) ** 2, (1 + np.sqrt(2)) ** 2],
                                   rtol=1e-12)

    @pytest.mark.parametrize("n", [800, 200], ids=["c0.5", "c2"])
    def test_zero_weight_law_is_the_atom_at_zero(self, n):
        # w = w* = 0 under phase retrieval: g = 3h^2 - y = 0, so H = 0 and
        # the measure is the atom of mass 1 at 0, for every c
        spec, _ = build_spec({"p": 400, "n": n, "model": "phase_retrieval",
                              "loss": "phase_square"})
        cls = classify_g_support(spec)
        assert cls.lower_bound == cls.upper_bound == 0.0
        lo, hi = default_scan_range(spec)
        rep = support(spec, (lo, hi))
        assert rep.intervals == [(0.0, 0.0)] and rep.bulk_count == 0
        grid = np.linspace(lo, hi, 401)
        assert 0.0 in grid
        assert np.all(density(spec, grid).density == 0.0)
        assert find_spikes(spec, rep) == []

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

    @pytest.mark.parametrize("model", [
        "logistic", {"kind": "noisy_factor", "sigma": 0.5}],
        ids=["logistic", "noisy_factor"])
    def test_random_response_at_fixed_projections(self, model):
        # w = w* = 0: g = -y, which is +-1 for the logistic labels and
        # Gaussian for the noisy factor model, not one draw of y
        spec, _ = build_spec({"p": 400, "n": 1600, "model": model,
                              "loss": "phase_square"})
        an = analyze(spec)
        mass = np.trapezoid(np.nan_to_num(an.curve.density), an.curve.grid)
        assert mass == pytest.approx(1.0, abs=0.01)
        if model == "logistic":
            assert an.support.bounded
            (left, right), = an.support.intervals
            assert right == pytest.approx(1.1009173687604, abs=1e-12)
            assert left == pytest.approx(-right, abs=1e-12)
        else:
            assert not an.support.bounded

    def test_two_sided_unbounded_law_fills_the_window(self):
        spec, _ = build_spec(preset_config("fig1cd"))
        lo, hi = default_scan_range(spec)
        rep = support(spec, (lo, hi))
        assert rep.intervals == [(lo, hi)]
        assert not rep.bounded and rep.bulk_count == 1
        assert find_spikes(spec, rep) == []
