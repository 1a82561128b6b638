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
where the slope has no zero (a hard edge), and the support, one list per
spec (_Exterior.intervals), is the complement of the exterior.  Edges
therefore depend on no density threshold, grid or scan window.  The
admissible range comes from the bounds of the weight law
(classify_g_support), not from the quadrature nodes; a law unbounded on
both sides admits only delta = 0 and has no real exterior.  One array
kernel (_Exterior.eval) evaluates the grid and a single angle alike, and
one polisher (_polish) refines the edges, the real-axis solves and the
spikes of hesspec.spikes.  Every trace of
Qbar(z) = (e(delta) C - z I)^-1 that these solvers and hesspec.spikes
read is one pole sum over the atoms of C (_pole_sum), at arrays of z.

The density is the absolutely continuous part of the measure: exactly 0
off the support, and Im m(x + i eps) / pi inside it, solved in a few
batched waves scheduled up front and started between solved points at
the soft edges (density).  The atom at 0, decided by the exterior map,
is listed by support(), and its Lorentzian is taken out of the curve.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import optimize

from .errors import BranchViolation, NonConvergence
from .expectations import expectation_engine
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
_BISECT_MAX = 200     # _bisect's cap; lo < hi of one sign reach 2 adjacent
                      # doubles within 53 + log2(hi / lo) halvings
_LAST_RUN = 16        # unsolved points a run may hold before the last wave
_WAVE_CUTS = 8        # runs a cutting wave makes of each longer run

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


def _pole_sum(t, z, e, k=1, tail=0):
    """sum_j num_j / (e t_j - z)^k over the atoms t_j of C at scalars or
    arrays z and e = e(delta(z)), as a function of num: one pole matrix
    for every trace of Qbar(z) = (e C - z I)^-1 its caller reads.  num
    holds the atoms on axis -1 - tail (tail = 2 for the Grams of
    spikes._vqv); the caller applies c."""
    pole = np.multiply.outer(e, t) - np.asarray(z)[..., None]
    pole = pole.reshape(pole.shape + (1,) * tail)
    denom = pole if k == 1 else pole ** k
    return lambda num: (num / denom).sum(-1 - tail)


def _iterate(eng, t, wts, c, z, start):
    """Newton's method for delta at each of an array of complex z, from
    the array of starting deltas; returns the StieltjesPoint of arrays,
    one entry per z, of each last evaluation, and the integer array
    (batched e1_e2 calls made, rows they evaluated).

    The root is that of F(delta) = c sum_j w_j t_j / (e(delta) t_j - z)
    - delta, one pole sum (_pole_sum) over all active rows, whose
    derivative F'(delta) is the negated slope numerator (_slope_sign).
    One e1_e2 call, one pass over the nodes, evaluates the starts and
    then each step's one candidate per active row: the damped fixed-point
    step delta + F/2, which maps z's half-plane, where the Stieltjes
    branch lies, into itself, where the Newton candidate leaves that
    half-plane or the row's last one did not lower |F| (and was dropped),
    and else the Newton candidate.  A z leaves the active set once
    |F| < FP_TOL; one still active after FP_MAX_ITER evaluations (its
    iterations) has failed, and the caller decides what that means.
    """
    z = np.asarray(z, dtype=complex)
    d = np.array(start, dtype=complex)
    wt_t = wts * t

    def residual(z, d, e):
        return c * _pole_sum(t, z, e)(wt_t) - d

    e, e2 = eng.e1_e2(d)
    F = residual(z, d, e)
    iterations = np.ones(len(z), dtype=int)
    calls = np.array([1, len(z)])
    damp = np.zeros(len(z), dtype=bool)       # last Newton candidate dropped
    act = np.flatnonzero(~(np.abs(F) < FP_TOL))
    while len(act) and calls[0] < FP_MAX_ITER:   # act was in every call
        iterations[act] += 1
        za, da, Fa = z[act], d[act], F[act]
        new = da + Fa / _slope_sign(t, wts, c, za, e[act], e2[act])
        newton = ~damp[act] & (new.imag * za.imag > 0)
        cand = np.where(newton, new, da + 0.5 * Fa)
        ce, ce2 = eng.e1_e2(cand)
        cF = residual(za, cand, ce)
        took = ~newton | (np.abs(cF) < np.abs(Fa))
        rows = act[took]
        d[rows], e[rows], e2[rows], F[rows] = (cand[took], ce[took],
                                               ce2[took], cF[took])
        damp[act] = ~took
        calls += 1, len(act)
        act = act[~(np.abs(F[act]) < FP_TOL)]
    return StieltjesPoint(z=z, delta=d, m=_pole_sum(t, z, e)(wts), e=e,
                          iterations=iterations, residual=np.abs(F),
                          e2=e2), calls


def stieltjes_derivatives(spec, point):
    """(delta'(z), m'(z), E[g^2/(1+g delta)^2]) at a solved point, or
    arrays of them at a StieltjesPoint of arrays.

    Uses the explicit resolvent-derivative trace identities:
        delta' = (1/n) tr QCQ / (1 - E2 * (1/n) tr CQCQ),
        m'     = (1/p) tr Q (E2 delta' C + I) Q,
    with Q the deterministic resolvent equivalent and E2 = point.e2 the
    squared effective curvature, read off the point, not the nodes.  The
    traces are pole sums (_pole_sum), delta's denominator _slope_sign.
    """
    t, wts = spec.atoms
    e2 = point.e2
    over_sq = _pole_sum(t, point.z, point.e, 2)
    tr_qcq = spec.c * over_sq(wts * t)
    delta_prime = tr_qcq / _slope_sign(t, wts, spec.c, point.z, point.e, e2)
    m_prime = over_sq(wts * (np.multiply.outer(e2 * delta_prime, t) + 1.0))
    return delta_prime, m_prime, e2


def solve_point(spec, z):
    """Solve for (delta, m) at one complex z, or at a real z off the support.

    A complex z runs the Newton solve of density (_iterate) on its own,
    from delta = -1/z, one pass over the nodes per step, damped where the
    Newton candidate leaves z's half-plane or the last one did not lower
    |F|; NonConvergence is raised if it fails.  A real z is
    inverted exactly on the exterior map, and one inside the support
    raises BranchViolation.
    """
    z = complex(z)
    if z.imag == 0.0:
        return _exterior(spec).solve(z.real)
    pts, _ = _iterate(expectation_engine(spec), *spec.atoms, spec.c, [z],
                      [-1.0 / z])
    point = StieltjesPoint(**{k: v[0].item() for k, v in vars(pts).items()})
    if not point.residual < FP_TOL:
        raise NonConvergence(
            f"Newton solve did not reach {FP_TOL:g} in {FP_MAX_ITER} "
            f"evaluations at z={z}", residual=point.residual)
    if point.m.imag * z.imag > 0:
        return point
    raise BranchViolation(
        f"Im(m)*Im(z) <= 0 at z={z} (wrong Stieltjes branch)")


def default_scan_range(spec):
    """Heuristic window for the bulk spectrum: the Marchenko-Pastur-type
    envelope |H| <= max(g) * max eig(C) * (1 + sqrt(c))^2 over the range
    of g, with a 30% margin.  It frames the bulk, not the spikes: mu and
    the signal directions reach the bulk only through the law of g.  When
    that law is unbounded on a side the bulk has no edge there, and g's
    range is its 0.05% and 99.95% quantiles under the quadrature weights.
    """
    cls = classify_g_support(spec)
    if cls.bounded:
        g_lo, g_hi = cls.lower_bound, cls.upper_bound
    else:
        eng = expectation_engine(spec)
        cdf = np.cumsum(eng.wt)
        g_lo, g_hi = eng.g[np.searchsorted(cdf, [0.0005 * cdf[-1],
                                                 0.9995 * cdf[-1]])]
    envelope = float(spec.atoms[0][-1]) * (1.0 + np.sqrt(spec.c)) ** 2
    lo, hi = min(g_lo, 0.0) * envelope, max(g_hi, 0.0) * envelope
    span = max(hi - lo, 1e-3)
    return lo - 0.3 * span - 1e-3, hi + 0.3 * span + 1e-3


def _edge_coordinate(x, a, b, soft_a, soft_b):
    """(u, dx/du, k) at points x of the interval [a, b]: u = arccos((a + b
    - 2x) / (b - a)), taken as 2 arctan2(sqrt(x - a), sqrt(b - x)), when
    both ends are soft edges, sqrt(x - a) or -sqrt(b - x) when one is, and
    x when neither is.  delta has a square root in x at a soft edge x_e
    and is smooth in u, and |x - x_e| ~ k (u - u_e)^2 there."""
    if soft_a and soft_b:
        ra, rb = np.sqrt(x - a), np.sqrt(b - x)
        return 2.0 * np.arctan2(ra, rb), ra * rb, 0.25 * (b - a)
    if soft_a or soft_b:
        rt = np.sqrt(x - a if soft_a else b - x)
        return (rt if soft_a else -rt), 2.0 * rt, 1.0
    return x, np.ones(len(x)), 1.0


def _waves(runs, size):
    """The wave (1, 2, ...) of each of size rows, from the runs (lo, hi,
    bounded) of unsolved rows [lo, hi) the intervals start as, bounded if
    a solved row lies beside; rows in no run keep wave 0.  A wave takes
    the middle row of each unbounded run, the _WAVE_CUTS - 1 rows that cut
    each run of more than _LAST_RUN rows into _WAVE_CUTS near-equal runs,
    and every row of each other run; the next takes the runs it leaves."""
    wave, level = np.zeros(size, dtype=int), 0
    while runs:
        level, todo, runs = level + 1, runs, []
        for lo, hi, bounded in todo:
            if bounded and hi - lo <= _LAST_RUN:
                wave[lo:hi] = level
                continue
            at = (lo + (hi - lo) * np.arange(1, _WAVE_CUTS) // _WAVE_CUTS
                  if bounded else [(lo + hi - 1) // 2])
            wave[at] = level
            ends = [lo - 1, *at, hi]
            runs += [(i + 1, j, True) for i, j in zip(ends, ends[1:])
                     if i + 1 < j]
    return wave


def density(spec, grid):
    """Limiting density on a grid by Stieltjes inversion at x + i*eps.

    The curve is exactly 0 off the exact support (_Exterior.intervals).
    Inside, every grid point gets one Newton solve at x + i*eps (_iterate)
    and reads Im m / pi less the Lorentzian atom * eps / (pi |x + i*eps|^2)
    that the atom at 0 (_Exterior.atom) puts there, so it is not drawn.  eps,
    1e-6 times the larger of 1 and the grid's span and reported as the curve's
    epsilon, only regularises these solves.  They run in the waves that
    _waves assigns up front, between solved rows at the soft edges
    (_Exterior.edge_row), one _iterate call per wave over all intervals:
    each step is one pass over the nodes at every unconverged row, damped
    where its Newton candidate leaves the upper half-plane or its last one
    did not lower |F|.  Every start comes from the nearest converged rows
    on either side in the interval's edge coordinate u (_edge_coordinate),
    where delta is smooth: cubic Hermite between two, with d delta/du =
    delta'(z) dx/du (stieltjes_derivatives, no engine call), a Taylor step
    from one, -1/z from none, reflected into the upper half-plane.  A grid
    point exactly on a soft edge, where F' = 0 at the edge's delta, starts
    from the edge's quadratic at x + i*eps (_Exterior.edge_seed).  It seeds
    no neighbour, nor does a point where the solver fails: that one is
    NaN, and failures are counted in a WARNING; a DEBUG line gives the
    waves and the batched evaluations.
    """
    grid = np.asarray(grid, dtype=float)
    span = float(np.ptp(grid)) if len(grid) > 1 else 1.0
    epsilon = max(1e-6, 1e-4 * span / 100.0)
    out = np.zeros(len(grid))
    rank = np.argsort(grid, kind="stable")
    xs = grid[rank]
    t, wts = spec.atoms
    eng = expectation_engine(spec)
    ext = _exterior(spec)
    # the rows, interval after interval in ascending x: the grid points of
    # interval iv (pos, their index in grid) between solved rows at its
    # soft edges (pos -1), with x, u, dx/du, delta and d delta/du
    parts = [(np.empty(0, dtype=int),) * 2 + (np.empty(0),) * 5]
    runs = []
    for k, (a, b) in enumerate(ext.intervals):
        soft_a, soft_b = a in ext.soft, b in ext.soft
        at = rank[np.searchsorted(xs, a):np.searchsorted(xs, b, "right")]
        xk = np.r_[[a] * soft_a, grid[at], [b] * soft_b]
        uk, dxdu, scale = _edge_coordinate(xk, a, b, soft_a, soft_b)
        dk, sk = np.zeros((2, len(xk)), dtype=complex)
        for i, x_e, side in ((0, a, 1.0), (-1, b, -1.0)):
            if x_e in ext.soft:
                dk[i], sk[i] = ext.edge_row(x_e, scale, side)
        first = sum(len(p[2]) for p in parts) + soft_a
        if len(at):
            runs.append((first, first + len(at), soft_a or soft_b))
        parts.append((np.r_[[-1] * soft_a, at, [-1] * soft_b].astype(int),
                      np.full(len(xk), k), xk, uk, dxdu, dk, sk))
    pos, iv, x, u, dxdu, delta, slope = map(np.concatenate, zip(*parts))
    n, idx = len(x), np.arange(len(x))
    ok = pos < 0                              # converged rows, to seed from
    waves = _waves(runs, n)
    counts = np.zeros(2, dtype=int)
    for wave in range(1, waves.max(initial=0) + 1):
        at = np.flatnonzero(waves == wave)
        z = x[at] + 1j * epsilon
        # the nearest converged rows left and right of each point (row 0
        # or n - 1 for none), used if they lie in its interval
        left = np.maximum.accumulate(np.where(ok, idx, 0))[at]
        right = np.minimum.accumulate(np.where(ok, idx, n - 1)[::-1])[::-1][at]
        has_l, has_r = (ok[nb] & (iv[nb] == iv[at]) for nb in (left, right))
        nb = np.where(has_l, left, right)
        seed = np.where(has_l | has_r,
                        delta[nb] + slope[nb] * (u[at] - u[nb]), -1.0 / z)
        both = has_l & has_r
        l, r = left[both], right[both]
        h = u[r] - u[l]
        s = np.divide(u[at[both]] - u[l], h, out=np.zeros(len(h)),
                      where=h > 0)
        seed[both] = ((1 + 2 * s) * (1 - s) ** 2 * delta[l]
                      + s * s * (3 - 2 * s) * delta[r]
                      + h * s * (1 - s) * ((1 - s) * slope[l] - s * slope[r]))
        edge = np.isin(x[at], list(ext.soft))
        seed[edge] = ext.edge_seed(x[at[edge]], z[edge])
        seed = seed.real + 1j * np.abs(seed.imag)
        pts, calls = _iterate(eng, t, wts, spec.c, z, seed)
        counts += calls
        solved = (pts.residual < FP_TOL) & (pts.m.imag > 0)
        ok[at] = keep = solved & ~edge
        delta[at] = np.where(keep, pts.delta, 0.0)
        slope[at] = np.where(
            keep, stieltjes_derivatives(spec, pts)[0] * dxdu[at], 0.0)
        # the atom at 0 adds ext.atom * epsilon / |z|^2 to Im m
        out[pos[at]] = np.where(solved, (pts.m.imag - ext.atom * epsilon
                                         / np.abs(z) ** 2) / np.pi, np.nan)
    failed = int(np.count_nonzero(np.isnan(out)))
    inside = int(np.count_nonzero(pos >= 0))
    _log.debug("density: %d intervals, %d interior points, %d soft edges, "
               "%d waves, %d batched evaluations of %d rows, %d failed",
               len(ext.intervals), inside, n - inside, waves.max(initial=0),
               *counts, failed)
    if failed:
        _log.warning("density: %d of %d points inside the support failed "
                     "at eps=%g and are NaN", failed, inside, epsilon)
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
        lo = np.where(delta < 0, np.maximum(lo, poles.max(1)), lo)
        hi = np.where(delta > 0, np.minimum(hi, poles.min(1)), hi)
    else:
        lo = poles[:, gap:gap + 2].min(1)
        hi = poles[:, gap:gap + 2].max(1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _bisect(lambda x: c * np.sum(w * t / (poles - x[:, None]), 1)
                       - delta, lo, hi)


def _slope_sign(t, w, c, z, e, e2):
    """The slope numerator 1 - E2 (1/n) tr CQCQ at arrays (z, e, E2): the
    sign of dz/ddelta on the real axis and -F'(delta) in _iterate."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return 1.0 - e2 * c * _pole_sum(t, z, e, 2)(w * t * t)


def _open_gaps(t, w, c):
    """Pole gaps whose branch can rise anywhere.

    The slope numerator is 1 - (E2 / e^2) chi(z / e) with chi(x) =
    c sum_j w_j t_j^2 / (t_j - x)^2, and E2 >= e^2, so a gap branch rises
    only where chi < 1.  The gap's two atoms alone bound chi below by
    c (a^1/3 + b^1/3)^3 / width^2, a and b their w t^2, and a gap whose
    bound is not below 1 is closed.  On the others chi is convex, and its
    minimum is the zero of chi'(x) = 2c sum_j w_j t_j^2 / (t_j - x)^3,
    increasing across the gap, bisected to two adjacent doubles.
    """
    wtt = w * t * t
    bound = c * (np.cbrt(wtt[:-1]) + np.cbrt(wtt[1:])) ** 3 / np.diff(t) ** 2
    gaps = np.flatnonzero(bound < 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = _bisect(lambda x: (wtt / (t - x[:, None]) ** 3).sum(1),
                    t[gaps], t[gaps + 1])
        chi = c * (wtt / (t - x[:, None]) ** 2).sum(1)
    return gaps[chi < 1.0].tolist()


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
    map holds the theta grid, the rising segments, each with its own
    table and its edges polished on the slope, the support, whether the
    law of g is bounded, and the mass of the atom at 0.
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
        self.bounded = cls.bounded
        # g = 0: H = 0, whose measure is the atom at 0 that the arc misses;
        # else rank H <= n puts mass 1 - 1/c there for c > 1
        self.g_zero = cls.lower_bound == cls.upper_bound == 0.0
        self.atom = 1.0 if self.g_zero else max(0.0, 1.0 - 1.0 / self.c)
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

    @cached_property
    def intervals(self):
        """The support, the complement of the rising segments on the line:
        [(-inf, inf)] with no exterior, [] when g = 0; no atom at 0."""
        if self.g_zero:
            return []
        out, cur = [], -np.inf
        for z_lo, z_hi in sorted((float(s.z[0]), float(s.z[-1]))
                                 for s in self.segments):
            out += [(cur, z_lo)] * (cur < z_lo)
            cur = max(cur, z_hi)
        return out + [(cur, np.inf)] * (cur < np.inf)

    def delta(self, theta):
        return self.sigma * np.tan(theta)

    def edge_row(self, x_e, k, side):
        """(delta, d delta/du) at the soft edge x_e in an edge coordinate u
        with |x - x_e| ~ k (u - u_e)^2, rising (side 1) or falling (side -1)
        into the support, where the edge's quadratic z = x_e + a (theta -
        theta_e)^2 puts theta - theta_e = i sqrt(k / |a|) |u - u_e|, on the
        branch with Im delta > 0; d delta/d theta = sigma + delta^2/sigma."""
        th, a = self.soft[x_e]
        d = self.delta(th)
        return d, side * 1j * (self.sigma + d * d / self.sigma) * np.sqrt(
            k / abs(a))

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
        over = _pole_sum(self.t, z, e)
        target = self.c * over(self.w * self.t)
        return StieltjesPoint(z=complex(z), delta=complex(d),
                              m=complex(over(self.w)), e=complex(e),
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
        of the arc), or None where inside is itself the end (past the arc,
        or a soft edge on inside's grid angle)."""
        if not 0 <= outside < len(self.theta):
            return None
        th_out = self.theta[outside]
        if gap is None and th_out == 0.0:
            theta, _, e, moments = (col[[outside]] for col in grid)
            return theta, [-np.inf if outside < inside else np.inf], e, moments
        th = _polish(lambda x: self._slope(gap, x), th_out, self.theta[inside])
        if th == self.theta[inside]:
            return None
        z, e, _, moments = self.eval(gap, [th])
        return [th], z, e, moments


def _exterior(spec):
    """The exterior map of the spec, built once per spec."""
    ext = spec._cache.get("exterior")
    if ext is None:
        ext = spec._cache["exterior"] = _Exterior(spec)
    return ext


def support(spec, scan_range, curve=None):
    """Support intervals of the limiting measure within a window.

    The spec's exact support (_Exterior.intervals) clipped to scan_range:
    (-inf, inf) keeps it whole, with an infinite end wherever g is
    unbounded on that side.  Edges are exact up to the quadrature of the
    weight law.  The atom at 0 (_Exterior.atom) is listed as (0, 0)
    unless an interval holds it; bulk_count counts only intervals of
    positive length, so not the atom, and bounded is the exterior map's
    flag.  curve is unused and kept for callers that pass it.
    """
    lo, hi = float(scan_range[0]), float(scan_range[1])
    ext = _exterior(spec)
    intervals = [(max(a, lo), min(b, hi)) for a, b in ext.intervals
                 if max(a, lo) < min(b, hi)]
    if ext.atom > 0 and lo <= 0.0 <= hi and not any(
            a <= 0.0 <= b for a, b in intervals):
        intervals = sorted(intervals + [(0.0, 0.0)])
    return SupportReport(intervals=intervals,
                         bulk_count=sum(b > a for a, b in intervals),
                         bounded=ext.bounded)
