"""Fixed-point solver for the limiting spectral measure.

The companion Stieltjes pair (delta(z), m(z)) solves

    delta = sum_j w_j * c * t_j / (e(delta) t_j - z),
    m     = sum_j w_j / (e(delta) t_j - z),

where (t_j, w_j) are the spectral atoms of C and e(delta) is the
effective curvature E[g/(1+g delta)].  The density follows by Stieltjes
inversion, and the support is detected by thresholding a density sweep
and refining the edges by bisection.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _iterate(eng, t, wts, c, z, delta0, accelerate=True):
    """Damped fixed-point iteration for delta; returns (delta, iterations).

    Baseline is a damped Picard step (eta = 0.5, halved when consecutive
    steps flip sign).  Near support edges the Picard rate degrades to
    1 - O(sqrt(eps)), so when progress stalls a secant step on the
    residual F(delta) = rhs(delta) - delta is attempted, guarded by a
    best-iterate reset.
    """
    delta = complex(delta0)
    eta = 0.5
    prev = None          # (delta, F) of the previous iterate
    prev_aF = np.inf
    best = None          # (delta, F, |F|)
    for it in range(1, FP_MAX_ITER + 1):
        e = eng.e1(delta)
        target = np.sum(wts * c * t / (e * t - z))
        F = target - delta
        aF = abs(F)
        if aF < FP_TOL:
            return target, it
        if best is None or aF < best[2]:
            best = (delta, F, aF)
        elif aF > 1e3 * best[2]:
            # runaway step: restart from the best iterate, damped only
            delta, F, aF = best
            prev, prev_aF = None, np.inf
            eta = max(eta * 0.5, 0.02)
        cand = None
        if accelerate and prev is not None and aF > 0.5 * prev_aF:
            denom = F - prev[1]
            if denom != 0:
                cand = delta - F * (delta - prev[0]) / denom
                if not (np.isfinite(cand.real) and np.isfinite(cand.imag)) \
                        or abs(cand - delta) > 1e3 * aF:
                    cand = None
        if prev is not None and (F.real * prev[1].real
                                 + F.imag * prev[1].imag) < 0:
            eta = max(eta * 0.5, 0.02)
        prev = (delta, F)
        prev_aF = aF
        delta = cand if cand is not None else delta + eta * F
    raise NonConvergence(
        f"fixed point did not reach {FP_TOL:g} in {FP_MAX_ITER} iterations "
        f"at z={z}",
        residual=aF)


def _finish(eng, t, wts, c, z, delta, iterations):
    e = eng.e1(delta)
    target = np.sum(wts * c * t / (e * t - z))
    m = np.sum(wts / (e * t - z))
    return StieltjesPoint(z=z, delta=delta, m=m, e=e,
                          iterations=iterations, residual=abs(delta - target))


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
    """Solve the (delta, m) fixed point at one complex or real-exterior z."""
    eng = expectation_engine(spec, order)
    t, wts = spec.atoms
    c = spec.c
    z = complex(z)
    real_axis = z.imag == 0.0

    starts = []
    if warm_start is not None:
        starts.append(complex(warm_start))
    starts.append(-1.0 / z if z != 0 else complex(-1.0))

    last_err = None
    for delta0, accel in [(d, a) for d in starts for a in (True, False)]:
        if real_axis:
            delta0 = complex(delta0.real)
        try:
            delta, it = _iterate(eng, t, wts, c, z, delta0, accelerate=accel)
        except NonConvergence as err:
            last_err = err
            continue
        point = _finish(eng, t, wts, c, z, delta, it)
        if not real_axis:
            if point.m.imag * z.imag > 0:
                return point
            last_err = BranchViolation(
                f"Im(m)*Im(z) <= 0 at z={z} (wrong Stieltjes branch)")
            continue
        # real axis: solution must be real with m'(z) > 0 (genuine
        # Stieltjes transform of a positive measure off its support)
        if abs(point.delta.imag) > 1e-9 or abs(point.m.imag) > 1e-9:
            last_err = BranchViolation(f"complex solution on the real axis at z={z}")
            continue
        point = StieltjesPoint(z=z, delta=complex(point.delta.real),
                               m=complex(point.m.real), e=complex(point.e.real),
                               iterations=point.iterations, residual=point.residual)
        _, m_prime, _ = stieltjes_derivatives(spec, point, order)
        if m_prime.real <= 0:
            last_err = BranchViolation(
                f"m'(z) <= 0 at real z={z.real} (wrong branch or z inside support)")
            continue
        return point
    raise last_err


def default_scan_range(spec, order=None):
    """Heuristic window guaranteed to contain the bulk spectrum.

    Uses the curvature bounds (sampled quantiles when the law is
    unbounded) and the Marchenko-Pastur-type envelope
    |H| <= max(g) * max eig(C) * (1 + sqrt(c))^2, padded by the mean
    shift |mu|^2 and a 30% margin.
    """
    cls = classify_g_support(spec)
    if cls.bounded:
        g_lo, g_hi = cls.lower_bound, cls.upper_bound
    else:
        eng = expectation_engine(spec, order)
        g_lo = float(np.quantile(eng.g, 0.0005))
        g_hi = float(np.quantile(eng.g, 0.9995))
    t_max = float(np.max(spec.atoms[0]))
    envelope = t_max * (1.0 + np.sqrt(spec.c)) ** 2
    shift = float(spec.mu @ spec.mu) * max(abs(g_hi), abs(g_lo), 1e-3)
    hi = max(g_hi, 0.0) * envelope + shift
    lo = min(g_lo, 0.0) * envelope - shift
    span = max(hi - lo, 1e-3)
    return lo - 0.3 * span - 1e-3, hi + 0.3 * span + 1e-3


def density(spec, grid, epsilon=None, order=None):
    """Limiting density on a grid by Stieltjes inversion at x + i*eps.

    Points where the solver fails are reported as NaN.
    """
    grid = np.asarray(grid, dtype=float)
    if epsilon is None:
        span = float(grid[-1] - grid[0]) if len(grid) > 1 else 1.0
        epsilon = max(1e-6, 1e-4 * span / 100.0)
    out = np.empty(len(grid))
    warm = None
    for i, x in enumerate(grid):
        try:
            pt = solve_point(spec, complex(x, epsilon), warm_start=warm,
                             order=order)
            out[i] = pt.m.imag / np.pi
            warm = pt.delta
        except (NonConvergence, BranchViolation):
            out[i] = np.nan
            warm = None
    return DensityCurve(grid=grid, density=out, epsilon=float(epsilon))


def _density_at(spec, x, epsilon, warm=None, order=None):
    pt = solve_point(spec, complex(x, epsilon), warm_start=warm, order=order)
    return pt.m.imag / np.pi, pt.delta


def support(spec, scan_range, resolution=400, order=None, curve=None):
    """Support intervals of the limiting measure on a scan window.

    The support is taken as the closure of {x : density(x) > theta} with
    theta = 1e-3 of the peak density; each edge is then refined by
    bisection on the threshold crossing to 1e-6 absolute.  For weight
    laws of unbounded support the report covers the scanned window only.
    """
    bounded = classify_g_support(spec).bounded
    lo, hi = float(scan_range[0]), float(scan_range[1])
    if curve is None:
        grid = np.linspace(lo, hi, resolution)
        curve = density(spec, grid, order=order)
    grid, dens, eps = curve.grid, curve.density, curve.epsilon

    finite = np.nan_to_num(dens, nan=np.inf)
    peak = np.nanmax(dens)
    # a scan that misses the bulk entirely sees only the O(eps) haze of
    # the regularized inversion; don't mistake its maximum for a peak
    if not np.isfinite(peak) or peak <= 1e3 * eps:
        return SupportReport(intervals=[], bulk_count=0, bounded=bounded)
    theta = 1e-3 * peak
    inside = finite > theta  # NaN (solver failure) counts as inside

    def refine(x_out, x_in):
        # bisection on the density threshold between an outside and an
        # inside point, warm-started from the inside neighbor
        try:
            _, warm = _density_at(spec, x_in, eps, order=order)
        except (NonConvergence, BranchViolation):
            warm = None
        for _ in range(64):
            if abs(x_in - x_out) < 1e-6:
                break
            mid = 0.5 * (x_out + x_in)
            try:
                d_mid, warm = _density_at(spec, mid, eps, warm=warm,
                                          order=order)
            except (NonConvergence, BranchViolation):
                d_mid, warm = np.inf, None
            if d_mid > theta:
                x_in = mid
            else:
                x_out = mid
        return 0.5 * (x_out + x_in)

    intervals = []
    i = 0
    while i < len(grid):
        if inside[i]:
            j = i
            while j + 1 < len(grid) and inside[j + 1]:
                j += 1
            left = grid[i] if i == 0 else refine(grid[i - 1], grid[i])
            right = grid[j] if j == len(grid) - 1 else refine(grid[j + 1], grid[j])
            intervals.append((float(left), float(right)))
            i = j + 1
        else:
            i += 1
    return SupportReport(intervals=intervals, bulk_count=len(intervals),
                         bounded=bounded)
