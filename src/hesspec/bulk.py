"""The limiting spectral measure: a fixed point off the real axis, an
inverse map on it.

The companion Stieltjes pair (delta(z), m(z)) solves

    delta = sum_j w_j * c * t_j / (e(delta) t_j - z),
    m     = sum_j w_j / (e(delta) t_j - z),

where (t_j, w_j) are the spectral atoms of C and e(delta) is the
effective curvature E[g/(1+g delta)].  Off the real axis delta is the
root of the first equation, found by a Newton solve guarded to stay on
the Stieltjes branch, and the density follows by Stieltjes inversion.

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
where eps only regularises those interior solves.  The atom at 0 that
c > 1 puts there is reported by support() and not drawn.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .errors import BranchViolation, NonConvergence
from .expectations import DEFAULT_QUAD_ORDER, expectation_engine
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


def _iterate(eng, t, wts, c, z, delta):
    """Newton's method for delta at a complex z from one start; returns
    the StieltjesPoint of the last evaluation.

    The root is that of F(delta) = c sum_j w_j t_j / (e(delta) t_j - z)
    - delta, whose derivative F'(delta) = E2 (1/n) tr CQCQ - 1 is the
    negated slope numerator.  A Newton candidate is taken only if it stays
    in the half-plane of z, where the Stieltjes branch lies, and lowers
    |F|; otherwise the step is the damped fixed-point step delta + F/2,
    which maps that half-plane into itself.
    """
    def at(d):
        e, e2 = eng.e1_e2(d)
        pole = e * t - z
        return d, e, e2, pole, c * np.sum(wts * t / pole) - d

    cur = at(complex(delta))
    for it in range(1, FP_MAX_ITER + 1):
        d, e, e2, pole, F = cur
        if abs(F) < FP_TOL:
            return StieltjesPoint(z=z, delta=d, m=np.sum(wts / pole), e=e,
                                  iterations=it, residual=abs(F))
        new = d - F / (e2 * c * np.sum(wts * t * t / pole ** 2) - 1.0)
        if new.imag * z.imag > 0:
            cand = at(new)
            if abs(cand[-1]) < abs(F):
                cur = cand
                continue
        cur = at(d + 0.5 * F)
    raise NonConvergence(
        f"Newton solve did not reach {FP_TOL:g} in {FP_MAX_ITER} iterations "
        f"at z={z}",
        residual=abs(cur[-1]))


def stieltjes_derivatives(spec, point, order=None):
    """(delta'(z), m'(z), E[g^2/(1+g delta)^2]) at a solved point.

    Uses the explicit resolvent-derivative trace identities:
        delta' = (1/n) tr QCQ / (1 - E2 * (1/n) tr CQCQ),
        m'     = (1/p) tr Q (E2 delta' C + I) Q,
    with Q the deterministic resolvent equivalent and E2 the squared
    effective curvature.
    """
    eng = expectation_engine(spec, order)
    t, wts = spec.atoms
    c = spec.c
    e2 = eng.e2(point.delta)
    denom = (point.e * t - point.z) ** 2
    tr_qcq = c * np.sum(wts * t / denom)
    tr_cqcq = c * np.sum(wts * t * t / denom)
    delta_prime = tr_qcq / (1.0 - e2 * tr_cqcq)
    m_prime = np.sum(wts * (e2 * delta_prime * t + 1.0) / denom)
    return delta_prime, m_prime, e2


def solve_point(spec, z, warm_start=None, order=None):
    """Solve for (delta, m) at one complex z, or at a real z off the support.

    A complex z runs one Newton solve (_iterate) from warm_start, or from
    -1/z when none is given.  A real z is inverted exactly on the exterior
    map (warm_start unused), and one inside the support raises
    BranchViolation.
    """
    z = complex(z)
    if z.imag == 0.0:
        return _exterior(spec, order).solve(z.real)
    t, wts = spec.atoms
    point = _iterate(expectation_engine(spec, order), t, wts, spec.c, z,
                     -1.0 / z if warm_start is None else warm_start)
    if point.m.imag * z.imag > 0:
        return point
    raise BranchViolation(
        f"Im(m)*Im(z) <= 0 at z={z} (wrong Stieltjes branch)")


def default_scan_range(spec, order=None):
    """Heuristic window guaranteed to contain the bulk spectrum.

    Uses the curvature bounds (the 0.05% and 99.95% quantiles of g under
    the quadrature weights when the law is unbounded) and the
    Marchenko-Pastur-type envelope
    |H| <= max(g) * max eig(C) * (1 + sqrt(c))^2, padded by the mean
    shift |mu|^2 and a 30% margin.
    """
    cls = classify_g_support(spec)
    if cls.bounded:
        g_lo, g_hi = cls.lower_bound, cls.upper_bound
    else:
        eng = expectation_engine(spec, order)
        rank = np.argsort(eng.g)
        cdf = np.cumsum(eng.wt[rank])
        g_lo, g_hi = eng.g[rank][np.searchsorted(cdf, [0.0005 * cdf[-1],
                                                       0.9995 * cdf[-1]])]
    t_max = float(np.max(spec.atoms[0]))
    envelope = t_max * (1.0 + np.sqrt(spec.c)) ** 2
    shift = float(spec.mu @ spec.mu) * max(abs(g_hi), abs(g_lo), 1e-3)
    hi = max(g_hi, 0.0) * envelope + shift
    lo = min(g_lo, 0.0) * envelope - shift
    span = max(hi - lo, 1e-3)
    return lo - 0.3 * span - 1e-3, hi + 0.3 * span + 1e-3


def density(spec, grid, epsilon=None, order=None):
    """Limiting density on a grid by Stieltjes inversion at x + i*eps.

    The curve is exactly 0 off the exact support (support(), without the
    atom at 0 for c > 1, which is not drawn).  Inside, one Newton solve
    per grid point runs at x + i*eps, in ascending x, warm-started from
    the previous point of the same interval and from -1/z at the first;
    eps (default 1e-6 * max(1, grid span)) only regularises these solves.
    Points where the solver fails are NaN, and their count is logged.
    """
    grid = np.asarray(grid, dtype=float)
    if epsilon is None:
        span = float(np.ptp(grid)) if len(grid) > 1 else 1.0
        epsilon = max(1e-6, 1e-4 * span / 100.0)
    out = np.zeros(len(grid))
    rank = np.argsort(grid, kind="stable")
    xs = grid[rank]
    interior = failed = 0
    for a, b in _intervals(spec, -np.inf, np.inf, order):
        warm = None
        inside = rank[np.searchsorted(xs, a):np.searchsorted(xs, b, "right")]
        interior += len(inside)
        for i in inside:
            try:
                pt = solve_point(spec, complex(grid[i], epsilon),
                                 warm_start=warm, order=order)
                out[i] = pt.m.imag / np.pi
                warm = pt.delta
            except (NonConvergence, BranchViolation):
                out[i] = np.nan
                warm = None
                failed += 1
    if failed:
        _log.warning("density: %d of %d points inside the support failed "
                     "at eps=%g and are NaN", failed, interior, epsilon)
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

    def __init__(self, spec, order):
        self.eng = eng = expectation_engine(spec, order)
        rank = np.argsort(spec.atoms[0])
        self.t, self.w = spec.atoms[0][rank], spec.atoms[1][rank]
        self.c = spec.c
        e0 = abs(eng.e1(0.0))
        self.sigma = 1.0 / e0 if e0 > 0 else 1.0
        cls = classify_g_support(spec)
        self.theta = np.concatenate([
            _arc_side(cls.upper_bound, -1, self.sigma, eng.g)[::-1], [0.0],
            _arc_side(cls.lower_bound, +1, self.sigma, eng.g)])
        self.segments = []
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

    def delta(self, theta):
        return self.sigma * np.tan(theta)

    def eval(self, gap, theta):
        """(z, e, E2, moments) at an array of angles on one branch."""
        d = self.delta(np.asarray(theta, dtype=float))
        e, e2, moments = self.eng.sweep(d)
        return _branch_z(self.t, self.w, self.c, gap, d, e), e, e2, moments

    def point(self, gap, theta, z=None):
        """The StieltjesPoint at one angle (at z if given, which z(theta)
        matches to rounding), with no fixed-point solve."""
        z_theta, e, _, _ = self.eval(gap, [theta])
        z, e, d = z_theta[0] if z is None else z, e[0], self.delta(theta)
        pole = e * self.t - z
        target = self.c * np.sum(self.w * self.t / pole)
        return StieltjesPoint(z=complex(z), delta=complex(d),
                              m=complex(np.sum(self.w / pole)), e=complex(e),
                              iterations=0, residual=abs(d - target))

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


def _exterior(spec, order=None):
    """The exterior map of the spec, cached per quadrature order."""
    key = ("exterior", order or DEFAULT_QUAD_ORDER)
    ext = spec._cache.get(key)
    if ext is None:
        ext = spec._cache[key] = _Exterior(spec, order)
    return ext


def _intervals(spec, lo, hi, order=None):
    """The support within [lo, hi] as the complement of the real exterior,
    clipped; the atom at 0 is not included."""
    intervals, cur = [], lo
    for z_lo, z_hi in sorted((float(s.z[0]), float(s.z[-1]))
                             for s in _exterior(spec, order).segments):
        if cur < min(z_lo, hi):
            intervals.append((cur, min(z_lo, hi)))
        cur = max(cur, z_hi)
    if cur < hi:
        intervals.append((cur, hi))
    return intervals


def support(spec, scan_range, order=None, curve=None):
    """Support intervals of the limiting measure within a scan window.

    The support is the exact complement of the real exterior traced by
    the inverse map (module docstring), clipped to scan_range; its edges
    are exact up to the quadrature of the weight law, whose range comes
    from classify_g_support.  A weight law unbounded on both sides has
    no real exterior, so the report is the whole window as one interval.
    For c > 1 the atom at 0 is listed as (0, 0) unless an interval holds
    it.  curve is unused and kept for callers that pass it: no grid or
    density enters the edges.
    """
    lo, hi = float(scan_range[0]), float(scan_range[1])
    intervals = _intervals(spec, lo, hi, order)
    if spec.c > 1 and lo <= 0.0 <= hi and not any(a <= 0.0 <= b
                                                 for a, b in intervals):
        # rank H <= n < p: an atom of mass 1 - 1/c at 0
        intervals = sorted(intervals + [(0.0, 0.0)])
    return SupportReport(intervals=intervals, bulk_count=len(intervals),
                         bounded=classify_g_support(spec).bounded)
