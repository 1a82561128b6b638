"""The limiting spectral measure: a fixed point off the real axis, an
inverse map on it.

The companion Stieltjes pair (delta(z), m(z)) solves

    delta = sum_j w_j * c * t_j / (e(delta) t_j - z),
    m     = sum_j w_j / (e(delta) t_j - z),

where (t_j, w_j) are the spectral atoms of C and e(delta) is the
effective curvature E[g/(1+g delta)].  Off the real axis delta is the
root of the first equation, found by one array Newton solve (_iterate)
guarded to stay on the Stieltjes branch, and the density follows by
Stieltjes inversion.

On the real axis outside the support the first equation is inverted
instead (Silverstein and Choi, 1995).  Every admissible delta, one with
1 + g delta != 0 wherever the weight g can fall, gives one z per branch:
z(delta) = s e(delta) - c s / delta for C = s I, and for several atoms
the root of the increasing secular equation left or right of all poles
e(delta) t_j (the outer branch) or between two of them (a gap branch).
The real exterior is exactly the set of z(delta) where dz/ddelta > 0.
Its boundary points, the support edges, are the zeros of the slope
numerator 1 - E2 (1/n) tr CQCQ, or an end of the admissible delta range
where the slope has no zero (a hard edge), and the support is the
complement of the exterior.  Edges therefore depend on no density
threshold, grid or scan window.  The admissible range comes from the
bounds of the weight law (classify_g_support), not from the quadrature
nodes; a law unbounded on both sides admits only delta = 0 and has no
real exterior.  One array kernel (_Exterior.eval) evaluates the grid and
a single angle alike, and one polisher (_polish) refines the edges, the
real-axis solves and the spikes of hesspec.spikes.

The density is the absolutely continuous part of the measure: exactly 0
off the support, and Im m(x + i eps) / pi at each grid point inside it,
where eps only regularises those interior solves.  They run in waves,
each one batched Newton solve (density).  The first takes the grid point
next to each soft edge, seeded from the exterior map's quadratic at that
edge (_Exterior.edge_seed); later waves bisect the runs between solved
points, seeded from the points around them, so a grid of N interior
points takes about log2(N) + 2 solves of arrays instead of N scalar
ones.  The atom at 0 that c > 1 puts there is reported by support() and
not drawn.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .errors import BranchViolation, NonConvergence
from .expectations import _SWEEP_BYTES, expectation_engine
from .models import classify_g_support

__all__ = [
    "StieltjesPoint",
    "DensityCurve",
    "SupportReport",
    "solve_point",
    "density",
    "support",
    "stieltjes_derivatives",
    "default_scan_range",
]

FP_TOL = 1e-11
FP_MAX_ITER = 10_000
_SIDE_POINTS = 160    # arc grid points toward 0 and toward each arc end
_BISECT_MAX = 200     # secular-root halvings; 2 adjacent doubles come first

_log = logging.getLogger("hesspec")


@dataclass(frozen=True, eq=False)
class StieltjesPoint:
    z: complex
    delta: complex
    m: complex
    e: complex
    iterations: int
    residual: float
    e2: complex            # E[g^2/(1+g delta)^2] at delta


@dataclass(frozen=True, eq=False)
class DensityCurve:
    grid: np.ndarray
    density: np.ndarray
    epsilon: float


@dataclass(frozen=True, eq=False)
class SupportReport:
    intervals: list
    bulk_count: int
    bounded: bool


def _iterate(eng, t, wts, c, z, start):
    """Newton's method for delta at each of an array of complex z, from
    starts given as the arrays (delta, e(delta), E2(delta)); returns the
    StieltjesPoint of arrays, one entry per z, of each last evaluation,
    and the number of batched e1_e2 calls made.

    The root is that of F(delta) = c sum_j w_j t_j / (e(delta) t_j - z)
    - delta, whose derivative F'(delta) = E2 (1/n) tr CQCQ - 1 is the
    negated slope numerator.  A Newton candidate is taken only if it stays
    in the half-plane of z, where the Stieltjes branch lies, and lowers
    |F|; otherwise the step is the damped fixed-point step delta + F/2,
    which maps that half-plane into itself.  Each z leaves the active set
    once |F| < FP_TOL; one whose residual is not below FP_TOL after
    FP_MAX_ITER steps has failed, and the caller decides what that means.
    """
    z = np.asarray(z, dtype=complex)
    d, e, e2 = (np.array(v, dtype=complex) for v in start)
    wt_t, wt_tt = wts * t, wts * t * t
    chunk = max(1, _SWEEP_BYTES // (16 * len(t)))

    def over_poles(num, z, e, power=1):
        """sum_j num_j / (e t_j - z)^power at each row, in row chunks
        whose (row, atom) intermediates stay within _SWEEP_BYTES."""
        return np.concatenate([
            (num / (np.outer(e[i:i + chunk], t) - z[i:i + chunk, None])
             ** power).sum(1) for i in range(0, len(z) or 1, chunk)])

    def residual(z, d, e):
        return c * over_poles(wt_t, z, e) - d

    F = residual(z, d, e)
    iterations = np.ones(len(z), dtype=int)
    calls = 0
    act = np.flatnonzero(~(np.abs(F) < FP_TOL))
    for _ in range(FP_MAX_ITER):
        if not len(act):
            break
        iterations[act] += 1
        za, Fa = z[act], F[act]
        new = d[act] - Fa / (e2[act] * c * over_poles(wt_tt, za, e[act], 2)
                             - 1.0)
        newton = new.imag * za.imag > 0
        if newton.any():
            cand = new[newton]
            ce, ce2 = eng.e1_e2(cand)
            cF = residual(za[newton], cand, ce)
            took = np.abs(cF) < np.abs(Fa[newton])
            rows = act[newton][took]
            d[rows], e[rows], e2[rows], F[rows] = (cand[took], ce[took],
                                                   ce2[took], cF[took])
            newton[newton] = took
            calls += 1
        damp = act[~newton]
        if len(damp):
            step = d[damp] + 0.5 * F[damp]
            d[damp] = step
            e[damp], e2[damp] = eng.e1_e2(step)
            F[damp] = residual(z[damp], step, e[damp])
            calls += 1
        act = act[~(np.abs(F[act]) < FP_TOL)]
    return StieltjesPoint(z=z, delta=d, m=over_poles(wts, z, e), e=e,
                          iterations=iterations, residual=np.abs(F),
                          e2=e2), calls


def stieltjes_derivatives(spec, point):
    """(delta'(z), m'(z), E[g^2/(1+g delta)^2]) at a solved point.

    Uses the explicit resolvent-derivative trace identities:
        delta' = (1/n) tr QCQ / (1 - E2 * (1/n) tr CQCQ),
        m'     = (1/p) tr Q (E2 delta' C + I) Q,
    with Q the deterministic resolvent equivalent and E2 = point.e2 the
    squared effective curvature, read off the point, not the nodes.
    """
    t, wts = spec.atoms
    c = spec.c
    e2 = point.e2
    denom = (point.e * t - point.z) ** 2
    tr_qcq = c * np.sum(wts * t / denom)
    tr_cqcq = c * np.sum(wts * t * t / denom)
    delta_prime = tr_qcq / (1.0 - e2 * tr_cqcq)
    m_prime = np.sum(wts * (e2 * delta_prime * t + 1.0) / denom)
    return delta_prime, m_prime, e2


def solve_point(spec, z, warm_start=None):
    """Solve for (delta, m) at one complex z, or at a real z off the support.

    A complex z runs the Newton solve of density (_iterate) on its own,
    from warm_start, the StieltjesPoint of an earlier complex solve, whose
    last evaluation (delta, e, E2) is reused (e and E2 depend on delta
    alone), or from -1/z when none is given; NonConvergence is raised if
    it fails.  A real z is inverted exactly on the exterior map
    (warm_start unused), and one inside the support raises BranchViolation.
    """
    z = complex(z)
    if z.imag == 0.0:
        return _exterior(spec).solve(z.real)
    t, wts = spec.atoms
    eng = expectation_engine(spec)
    if warm_start is None:
        d = complex(-1.0 / z)
        start = (d, *eng.e1_e2(d))
    else:
        start = warm_start.delta, warm_start.e, warm_start.e2
    pts, _ = _iterate(eng, t, wts, spec.c, [z], [[v] for v in start])
    point = StieltjesPoint(**{k: v[0].item() for k, v in vars(pts).items()})
    if not point.residual < FP_TOL:
        raise NonConvergence(
            f"Newton solve did not reach {FP_TOL:g} in {FP_MAX_ITER} "
            f"iterations at z={z}", residual=point.residual)
    if point.m.imag * z.imag > 0:
        return point
    raise BranchViolation(
        f"Im(m)*Im(z) <= 0 at z={z} (wrong Stieltjes branch)")


def default_scan_range(spec):
    """Heuristic window for the bulk spectrum.

    Uses the curvature bounds and the Marchenko-Pastur-type envelope
    |H| <= max(g) * max eig(C) * (1 + sqrt(c))^2, padded by the mean
    shift |mu|^2 and a 30% margin, so it contains the bulk when the law
    of g is bounded.  When it is unbounded on a side the bulk has no
    edge there, and the window is a quantile window: both bounds are the
    0.05% and 99.95% quantiles of g under the quadrature weights.
    """
    cls = classify_g_support(spec)
    if cls.bounded:
        g_lo, g_hi = cls.lower_bound, cls.upper_bound
    else:
        eng = expectation_engine(spec)
        rank = np.argsort(eng.g)
        cdf = np.cumsum(eng.wt[rank])
        g_lo, g_hi = eng.g[rank][np.searchsorted(cdf, [0.0005 * cdf[-1],
                                                       0.9995 * cdf[-1]])]
    t_max = float(spec.atoms[0][-1])
    envelope = t_max * (1.0 + np.sqrt(spec.c)) ** 2
    shift = float(spec.mu @ spec.mu) * max(abs(g_hi), abs(g_lo), 1e-3)
    hi = max(g_hi, 0.0) * envelope + shift
    lo = min(g_lo, 0.0) * envelope - shift
    span = max(hi - lo, 1e-3)
    return lo - 0.3 * span - 1e-3, hi + 0.3 * span + 1e-3


def density(spec, grid, epsilon=None):
    """Limiting density on a grid by Stieltjes inversion at x + i*eps.

    The curve is exactly 0 off the exact support (support(), without the
    atom at 0 for c > 1, which is not drawn).  Inside, every grid point
    gets one Newton solve at x + i*eps (_iterate), and eps (default
    1e-6 * max(1, grid span)) only regularises these solves.  They run
    in waves, one batched _iterate call per wave over all intervals.
    Wave 0 solves the point next to each soft edge (a zero of the slope
    of the exterior map), started from the root of the map's quadratic
    at that edge (_Exterior.edge_seed), and the middle point of each
    interval with no soft edge (its ends are +-inf or hard edges) from
    -1/z.  Each later wave solves the middle point of every run of
    unsolved points between solved ones (or between one and the
    interval's end), started from delta interpolated linearly in x
    between its converged neighbours, from its one converged neighbour,
    or from -1/z without one.  N points take about log2(N) + 2 waves.
    Points where the solver fails are NaN, never seed a neighbour, and
    their count is logged; a DEBUG line gives the edge-seeded points,
    the waves and the batched evaluations in all and in wave 0.
    """
    grid = np.asarray(grid, dtype=float)
    if epsilon is None:
        span = float(np.ptp(grid)) if len(grid) > 1 else 1.0
        epsilon = max(1e-6, 1e-4 * span / 100.0)
    out = np.zeros(len(grid))
    rank = np.argsort(grid, kind="stable")
    xs = grid[rank]
    intervals = _intervals(spec, -np.inf, np.inf)
    cuts = [(np.searchsorted(xs, a), np.searchsorted(xs, b, "right"))
            for a, b in intervals]
    # the interior points in ascending x, interval after interval; a run
    # [lo, hi) of unsolved ones has solved neighbours left and right (-1
    # for none), and each interval starts as one run
    inside = np.concatenate([rank[:0]] + [rank[i:j] for i, j in cuts])
    x = grid[inside]
    sizes = np.array([j - i for i, j in cuts], dtype=int)
    hi = np.cumsum(sizes)
    lo = hi - sizes
    lo, hi = lo[sizes > 0], hi[sizes > 0]
    ends = np.reshape(intervals, (-1, 2))[sizes > 0]
    left = right = np.full(len(lo), -1)
    delta = np.zeros(len(x), dtype=complex)    # kept where solved only
    ok = np.zeros(len(x), dtype=bool)
    t, wts = spec.atoms
    eng = expectation_engine(spec)
    ext = _exterior(spec)

    def solve(at, seed):
        """One wave: the points at from the starts seed, in one _iterate
        call; returns its batched e1_e2 calls."""
        z = x[at] + 1j * epsilon
        pts, n = _iterate(eng, t, wts, spec.c, z, (seed, *eng.e1_e2(seed)))
        solved = (pts.residual < FP_TOL) & (pts.m.imag * epsilon > 0)
        delta[at], ok[at] = np.where(solved, pts.delta, 0.0), solved
        out[inside[at]] = np.where(solved, pts.m.imag / np.pi, np.nan)
        return n + 1

    def split(lo, hi, left, right, at):
        """The nonempty runs [lo, at) and [at + 1, hi) that solving the
        point at of each run [lo, hi) leaves."""
        lo, hi = np.concatenate([lo, at + 1]), np.concatenate([at, hi])
        left, right = (np.concatenate([left, at]),
                       np.concatenate([at, right]))
        keep = lo < hi
        return lo[keep], hi[keep], left[keep], right[keep]

    # wave 0: the point next to each soft edge, from the edge's seed, and
    # the middle point of an interval with none, from -1/z
    soft_lo = np.isin(ends[:, 0], list(ext.soft))
    soft_hi = np.isin(ends[:, 1], list(ext.soft)) & (hi - lo > soft_lo)
    both = soft_lo & soft_hi
    first = np.select([soft_lo, soft_hi], [lo, hi - 1], (lo + hi - 1) // 2)
    at = np.concatenate([first, hi[both] - 1])
    x_e = np.concatenate([np.select([soft_lo, soft_hi], ends.T, np.nan),
                          ends[both, 1]])
    seed = -1.0 / (x[at] + 1j * epsilon)
    edge = ~np.isnan(x_e)
    seed[edge] = ext.edge_seed(x_e[edge], x[at[edge]] + 1j * epsilon)
    calls = wave0 = solve(at, seed) if len(at) else 0
    right, hi = np.where(both, hi - 1, right), hi - both
    lo, hi, left, right = split(lo, hi, left, right, first)
    waves = int(len(at) > 0)
    # later waves: the middle point of every run, from delta interpolated
    # linearly in x between its converged neighbours, from its one
    # converged neighbour, or from -1/z without one
    while len(lo):
        mid = (lo + hi - 1) // 2
        z = x[mid] + 1j * epsilon
        has_l, has_r = (left >= 0) & ok[left], (right >= 0) & ok[right]
        d_l = np.where(has_l, delta[left],
                       np.where(has_r, delta[right], -1.0 / z))
        d_r = np.where(has_r, delta[right], d_l)
        frac = np.divide(x[mid] - x[left], x[right] - x[left],
                         out=np.zeros(len(mid)),
                         where=has_l & has_r & (x[right] > x[left]))
        calls += solve(mid, d_l + frac * (d_r - d_l))
        waves += 1
        lo, hi, left, right = split(lo, hi, left, right, mid)
    failed = int(np.count_nonzero(np.isnan(out)))
    _log.debug("density: %d intervals, %d interior points, %d edge-seeded, "
               "%d waves, %d batched evaluations (%d in wave 0), %d failed",
               len(intervals), len(x), np.count_nonzero(edge), waves, calls,
               wave0, failed)
    if failed:
        _log.warning("density: %d of %d points inside the support failed "
                     "at eps=%g and are NaN", failed, len(x), epsilon)
    return DensityCurve(grid=grid, density=out, epsilon=float(epsilon))


@dataclass(frozen=True, eq=False)
class _Segment:
    """An arc interval on which z rises along one branch, tabulated at its
    grid points and ends in ascending theta; (z[0], z[-1]) is one interval
    of the real exterior (-inf or +inf at theta = 0 on the outer branch)."""

    gap: object          # None: the outer branch; j: between poles t_j, t_j+1
    theta: np.ndarray    # arc angles (see _Exterior)
    z: np.ndarray        # z(theta), non-decreasing
    e: np.ndarray        # e(delta(theta))
    moments: np.ndarray  # moment matrices at delta(theta), k x 3 x 3


def _polish(fn, lo, hi):
    """The root of fn, which changes sign between lo and hi, to 1e-15
    relative to the larger end (an arc angle for every caller)."""
    return optimize.brentq(fn, lo, hi, xtol=1e-15 * max(abs(lo), abs(hi)))


def _bisect(excess, lo, hi):
    """Elementwise root of an increasing function between lo and hi,
    halved until the bracket is two adjacent doubles."""
    for _ in range(_BISECT_MAX):
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            break
        up = excess(mid) > 0
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
    return 0.5 * (lo + hi)


def _branch_z(t, w, c, gap, delta, e):
    """z at arrays delta and e = e(delta) on one branch of the inverse map.

    z is a root of c sum_j w_j t_j / (e t_j - z) = delta, whose left side
    increases between consecutive poles e t_j.  The outer branch takes the
    root left of every pole when delta > 0 and right of every pole when
    delta < 0 (for one atom z = t e - c t / delta); gap branch j takes the
    root between the poles of t_j and t_j+1.
    """
    poles = np.outer(e, t)
    if gap is None:
        pull = c * (w @ t) / delta
        lo, hi = poles.min(1) - pull, poles.max(1) - pull
        if len(t) == 1:
            return lo
        lo = np.where(delta < 0, np.maximum(lo, poles.max(1)), lo)
        hi = np.where(delta > 0, np.minimum(hi, poles.min(1)), hi)
    else:
        lo = poles[:, gap:gap + 2].min(1)
        hi = poles[:, gap:gap + 2].max(1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _bisect(lambda x: c * np.sum(w * t / (poles - x[:, None]), 1)
                       - delta, lo, hi)


def _slope_sign(t, w, c, z, e, e2):
    """1 - E2 (1/n) tr CQCQ at arrays (z, e, E2): the sign of dz/ddelta."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return 1.0 - e2 * c * np.sum(w * t * t / (np.outer(e, t)
                                                  - z[:, None]) ** 2, 1)


def _open_gaps(t, w, c):
    """Pole gaps whose branch can rise anywhere.

    The slope numerator is 1 - (E2 / e^2) chi(z / e) with chi(x) =
    c sum_j w_j t_j^2 / (t_j - x)^2, and E2 >= e^2, so a gap branch rises
    only where chi < 1.  chi is convex on the gap: test its minimum.
    """
    def chi(x):
        return c * np.sum(w * t * t / (t - x) ** 2)

    return [j for j in range(len(t) - 1)
            if optimize.minimize_scalar(
                chi, bounds=(t[j], t[j + 1]), method="bounded",
                options={"xatol": 1e-12 * t[j + 1]}).fun < 1.0]


def _arc_side(bound, side, sigma, g):
    """Grid angles from 0 (exclusive) to one end of the admissible arc.

    1 + g delta = 0 at theta = arctan(sigma g) - pi/2, which increases
    with g, so the arc around theta = 0 ends at g_max below (side -1) and
    at g_min above (side +1, shifted by pi); an unknown bound ends it at
    0.  Points are geometric toward 0, where far spikes sit, and toward
    the end, where a hard edge may sit.  The end itself is a point when
    every quadrature node g lies strictly inside the bound.
    """
    if bound is None:
        return np.empty(0)
    end = np.arctan(sigma * bound) + side * np.pi / 2
    inside = g.min() - bound if side > 0 else bound - g.max()
    closed = bound != 0 and inside > 1e-12 * abs(bound)
    return end * np.concatenate([
        np.logspace(-10.0, np.log10(0.5), _SIDE_POINTS),
        1.0 - np.logspace(np.log10(0.5), -10.0, _SIDE_POINTS)[1:],
        [1.0] if closed else []])


class _Exterior:
    """The real exterior of the support, traced by the inverse map.

    The admissible deltas, those with 1 + g delta != 0 wherever g can
    fall, form one arc of the projective line around delta = 0, through
    delta = infinity (z = 0) when g_min > 0.  Along it, delta = sigma
    tan(theta) with sigma = 1/|E g|, z and its slope are continuous.  The
    map holds the theta grid and the rising segments, each with its own
    table and its edges polished on the slope.
    """

    def __init__(self, spec):
        self.eng = eng = expectation_engine(spec)
        self.t, self.w = spec.atoms
        self.c = spec.c
        e0 = abs(eng.e1(0.0))
        self.sigma = 1.0 / e0 if e0 > 0 else 1.0
        cls = classify_g_support(spec)
        self.theta = np.concatenate([
            _arc_side(cls.upper_bound, -1, self.sigma, eng.g)[::-1], [0.0],
            _arc_side(cls.lower_bound, +1, self.sigma, eng.g)])
        self.segments = []
        self.soft = {}
        if len(self.theta) == 1:
            return                    # g unbounded both ways: no exterior
        e, e2, moments = eng.sweep(self.delta(self.theta))
        for gap in [None] + _open_gaps(self.t, self.w, self.c):
            # the outer branch leaves through z = -inf / +inf at delta = 0
            ok = self.theta != 0.0 if gap is None else slice(None)
            z = np.full(len(self.theta), np.nan)
            z[ok] = _branch_z(self.t, self.w, self.c, gap,
                              self.delta(self.theta[ok]), e[ok])
            grid = (self.theta, z, e, moments)
            rising = np.flatnonzero(
                _slope_sign(self.t, self.w, self.c, z, e, e2) > 0)
            for run in np.split(rising, np.flatnonzero(np.diff(rising) > 1) + 1):
                if len(run):
                    rows = [self._end(gap, grid, run[0], run[0] - 1),
                            [col[run] for col in grid],
                            self._end(gap, grid, run[-1], run[-1] + 1)]
                    self.segments.append(_Segment(gap, *map(
                        np.concatenate, zip(*filter(None, rows)))))
        # the soft edges: segment ends where the slope vanishes, not at
        # z = +-inf or at an end of the arc (a hard edge); near one, z(theta)
        # ~ x_e + a (theta - theta_e)^2, with a read off the neighbour row
        for seg in self.segments:
            for end, nb in ((0, 1), (-1, -2)):
                th, x_e = seg.theta[end], seg.z[end]
                if np.isfinite(x_e) and th not in self.theta[[0, -1]]:
                    self.soft[float(x_e)] = th, ((seg.z[nb] - x_e)
                                                 / (seg.theta[nb] - th) ** 2)

    def delta(self, theta):
        return self.sigma * np.tan(theta)

    def edge_seed(self, x_e, z):
        """A start for delta at each complex z next to the soft edge x_e:
        the root theta_e + i sqrt((x_e - z) / a) of the edge's quadratic
        z = x_e + a (theta - theta_e)^2.  The principal root gives
        Im theta > 0, hence Im delta > 0, the branch of Im z > 0."""
        th, a = np.reshape([self.soft[v] for v in x_e], (-1, 2)).T
        return self.delta(th + 1j * np.sqrt((x_e - z) / a))

    def eval(self, gap, theta):
        """(z, e, E2, moments) at an array of angles on one branch."""
        d = self.delta(np.asarray(theta, dtype=float))
        e, e2, moments = self.eng.sweep(d)
        return _branch_z(self.t, self.w, self.c, gap, d, e), e, e2, moments

    def point(self, gap, theta, z=None):
        """The StieltjesPoint at one angle (at z if given, which z(theta)
        matches to rounding), with no fixed-point solve."""
        z_theta, e, e2, _ = self.eval(gap, [theta])
        z, e, d = z_theta[0] if z is None else z, e[0], self.delta(theta)
        pole = e * self.t - z
        target = self.c * np.sum(self.w * self.t / pole)
        return StieltjesPoint(z=complex(z), delta=complex(d),
                              m=complex(np.sum(self.w / pole)), e=complex(e),
                              iterations=0, residual=abs(d - target),
                              e2=complex(e2[0]))

    def solve(self, x):
        """The point at real x, where z(theta) = x on a rising segment."""
        for seg in self.segments:
            if seg.z[0] < x < seg.z[-1]:
                i = int(np.searchsorted(seg.z, x))
                # z is -inf (+inf) at theta = 0 on the outer branch's
                # positive (negative) side: step off it
                th = _polish(lambda u: self.eval(seg.gap, [u])[0][0] - x,
                             seg.theta[i - 1] or 1e-200,
                             seg.theta[i] or -1e-200)
                return self.point(seg.gap, th, x)
        raise BranchViolation(f"real z={x} is not outside the support")

    def _slope(self, gap, theta):
        z, e, e2, _ = self.eval(gap, [theta])
        return _slope_sign(self.t, self.w, self.c, z, e, e2)[0]

    def _end(self, gap, grid, inside, outside):
        """The table row (theta, z, e, moments) of the segment end between
        grid point inside (rising) and outside (not rising, or past the end
        of the arc), or None where inside is itself the end."""
        if not 0 <= outside < len(self.theta):
            return None
        th_out = self.theta[outside]
        if gap is None and th_out == 0.0:
            theta, _, e, moments = (col[[outside]] for col in grid)
            return theta, [-np.inf if outside < inside else np.inf], e, moments
        th = [_polish(lambda x: self._slope(gap, x), th_out,
                      self.theta[inside])]
        z, e, _, moments = self.eval(gap, th)
        return th, z, e, moments


def _exterior(spec):
    """The exterior map of the spec, built once per spec."""
    ext = spec._cache.get("exterior")
    if ext is None:
        ext = spec._cache["exterior"] = _Exterior(spec)
    return ext


def _intervals(spec, lo, hi):
    """The support within [lo, hi] as the complement of the real exterior,
    clipped; the atom at 0 is not included."""
    intervals, cur = [], lo
    for z_lo, z_hi in sorted((float(s.z[0]), float(s.z[-1]))
                             for s in _exterior(spec).segments):
        if cur < min(z_lo, hi):
            intervals.append((cur, min(z_lo, hi)))
        cur = max(cur, z_hi)
    if cur < hi:
        intervals.append((cur, hi))
    return intervals


def support(spec, scan_range, curve=None):
    """Support intervals of the limiting measure within a scan window.

    The support is the exact complement of the real exterior traced by
    the inverse map (module docstring), clipped to scan_range; its edges
    are exact up to the quadrature of the weight law, whose range comes
    from classify_g_support.  A weight law unbounded on both sides has
    no real exterior, so the report is the whole window as one interval.
    For c > 1 the atom at 0 is listed as (0, 0) unless an interval holds
    it; bulk_count counts only intervals of positive length, so not the
    atom.  curve is unused and kept for callers that pass it: no grid or
    density enters the edges.
    """
    lo, hi = float(scan_range[0]), float(scan_range[1])
    intervals = _intervals(spec, lo, hi)
    if spec.c > 1 and lo <= 0.0 <= hi and not any(a <= 0.0 <= b
                                                 for a, b in intervals):
        # rank H <= n < p: an atom of mass 1 - 1/c at 0
        intervals = sorted(intervals + [(0.0, 0.0)])
    return SupportReport(intervals=intervals,
                         bulk_count=sum(b > a for a, b in intervals),
                         bounded=classify_g_support(spec).bounded)
