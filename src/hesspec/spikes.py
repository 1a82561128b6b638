"""Isolated eigenvalues and eigenvector alignments.

An eigenvalue detaches from the bulk at the real exterior zeros of

    det G(z),   G(z) = I + Lambda(z) V^T Qbar(z) V,

where V = [mu, C w*, C w], Qbar is the deterministic resolvent
equivalent and Lambda couples the curvature to the two projections.
find_spikes walks the real exterior along the inverse map z(delta) of
hesspec.bulk, so each (z, delta) pair is exact without a fixed-point
solve: det G is tabulated on every rising segment of the map, out to
z = -inf and +inf, and its sign changes are polished by brentq.  At a
root the asymptotic projection matrix V^T u u^T V follows from the
left/right null vectors of G and the explicit derivative G'(z).

Columns of V that vanish (e.g. mu = 0 or w = 0) are dropped so G
shrinks to 2x2 or 1x1; the pure-signal case w = w* = 0 is exactly the
1x1 reduction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .errors import ImaginaryLeak, MultiplicityViolation
from .bulk import _exterior, solve_point, stieltjes_derivatives
from .expectations import QuadratureGrid, expectation_engine

__all__ = [
    "SpikeMatrix",
    "SpikeReport",
    "resolvent_forms",
    "spike_matrix",
    "spike_det",
    "spike_matrix_deriv",
    "find_spikes",
    "alignment",
    "signal_spike_closed_form",
    "model_spike_scalar",
]


@dataclass(frozen=True, eq=False)
class SpikeMatrix:
    """G(z) together with its factors, restricted to the active columns."""

    entries: np.ndarray        # G on active columns
    z: float
    vqv: np.ndarray            # V^T Qbar V, active columns
    moments: object            # CurvatureMoments (full 3x3)
    active: np.ndarray         # indices of nonzero V columns
    point: object              # StieltjesPoint at z


@dataclass(frozen=True, eq=False)
class SpikeReport:
    location: float
    side: str                  # "left" or "right" of the nearest edge
    gap: float
    alignment: np.ndarray      # 3x3 projection matrix V^T u u^T V
    det_residual: float

    def cos2(self, V):
        """Squared cosines between the spike eigenvector and each column
        of V (0 for a zero column)."""
        out = []
        for k in range(3):
            nrm2 = V[:, k] @ V[:, k]
            out.append(float(self.alignment[k, k] / nrm2) if nrm2 > 0 else 0.0)
        return out


def _active_columns(spec):
    norms = np.linalg.norm(spec.V, axis=0)
    scale = max(norms.max(), 1.0)
    return np.flatnonzero(norms > 1e-12 * scale)


def resolvent_forms(spec, z, point=None, order=None):
    """V^T Qbar(z) V through the eigen-grouped partial Grams of C."""
    if point is None:
        point = solve_point(spec, z, order=order)
    out = np.zeros((3, 3), dtype=complex)
    for t_val, gram in spec.grouped_grams:
        out += gram / (point.e * t_val - point.z)
    return out


def _resolvent_forms_deriv(spec, point, delta_prime, e2):
    """d/dz of V^T Qbar V via Qbar' = Qbar (E2 delta' C + I) Qbar."""
    out = np.zeros((3, 3), dtype=complex)
    for t_val, gram in spec.grouped_grams:
        out += gram * (e2 * delta_prime * t_val + 1.0) / (point.e * t_val - point.z) ** 2
    return out


def spike_matrix(spec, z, point=None, order=None):
    """Assemble G(z) = I + Lambda(z) V^T Qbar(z) V on the active columns."""
    if point is None:
        point = solve_point(spec, z, order=order)
    eng = expectation_engine(spec, order)
    moments = eng.moments(point.z, point.delta)
    vqv = resolvent_forms(spec, z, point=point, order=order)
    active = _active_columns(spec)
    lam_a = moments.entries[np.ix_(active, active)]
    vqv_a = vqv[np.ix_(active, active)]
    entries = np.eye(len(active), dtype=complex) + lam_a @ vqv_a
    return SpikeMatrix(entries=entries, z=float(np.real(z)), vqv=vqv_a,
                       moments=moments, active=active, point=point)


def spike_det(spec, z, point=None, order=None):
    """Real determinant of G(z) at real exterior z."""
    gm = spike_matrix(spec, z, point=point, order=order)
    det = np.linalg.det(gm.entries)
    if abs(det.imag) > 1e-9 * max(1.0, abs(det.real)):
        raise ImaginaryLeak(
            f"det G carries imaginary residue {det.imag:g} at z={z}")
    return det.real


def spike_matrix_deriv(spec, z, point=None, order=None):
    """G'(z) = Lambda' V^T Qbar V + Lambda V^T Qbar' V on active columns."""
    if point is None:
        point = solve_point(spec, z, order=order)
    eng = expectation_engine(spec, order)
    delta_prime, _, e2 = stieltjes_derivatives(spec, point, order)
    lam = eng.moments(point.z, point.delta).entries
    lam_prime = -delta_prime * eng.moments(point.z, point.delta, square=True).entries
    vqv = resolvent_forms(spec, z, point=point, order=order)
    vqv_prime = _resolvent_forms_deriv(spec, point, delta_prime, e2)
    active = _active_columns(spec)
    ix = np.ix_(active, active)
    return lam_prime[ix] @ vqv[ix] + lam[ix] @ vqv_prime[ix]


def _grid_dets(spec, z, e, moments, active):
    """det G on the active columns at arrays (z, e) and moments."""
    vqv = sum(gram / (e * t_val - z)[:, None, None]
              for t_val, gram in spec.grouped_grams)
    ix = np.ix_(np.arange(len(z)), active, active)
    return np.linalg.det(np.eye(len(active)) + moments[ix] @ vqv[ix])


def find_spikes(spec, support_report, order=None):
    """Locate all real exterior roots of det G and attach alignments.

    On every rising segment of the inverse map (see hesspec.bulk) det G
    is tabulated along z(delta), from the cached grid and the segment's
    edges, and each sign change is polished by brentq on the delta arc
    until |dz| <= 1e-12.  Each spike point (z, delta) comes straight from
    the map, with no fixed-point solve; its gap and side refer to the
    exact edges of its segment.  support_report is unused and kept for
    callers that pass it: a law without a real exterior has no spikes.
    """
    ext = _exterior(spec, order)
    active = _active_columns(spec)

    def det_at(gap, theta):
        pt = ext.point(gap, theta)
        return spike_det(spec, pt.z, point=pt, order=order)

    reports = []
    for seg in ext.segments:
        k = seg.grid
        ths, zs = ext.theta[k], ext.z[seg.gap][k]
        vals = _grid_dets(spec, zs, ext.e[k], ext.moments[k], active)
        # edges found between grid points join the table
        for th, z in ((seg.th_lo, seg.z_lo), (seg.th_hi, seg.z_hi)):
            if np.isfinite(z) and th not in (ths[0], ths[-1]):
                at = 0 if th < ths[0] else len(ths)
                ths, zs = np.insert(ths, at, th), np.insert(zs, at, z)
                vals = np.insert(vals, at, det_at(seg.gap, th))
        for i in np.flatnonzero(vals[:-1] * vals[1:] < 0):
            xtol = 1e-12 * (ths[i + 1] - ths[i]) / (zs[i + 1] - zs[i])
            root = optimize.brentq(lambda th: det_at(seg.gap, th), ths[i],
                                   ths[i + 1], xtol=xtol)
            pt = ext.point(seg.gap, root)
            lam = pt.z.real
            # the nearer edge of the segment sets side and gap
            below, above = lam - seg.z_lo, seg.z_hi - lam
            side, gap = ("right", below) if below < above else ("left", above)
            reports.append(SpikeReport(
                location=float(lam), side=side, gap=float(gap),
                alignment=alignment(spec, lam, order=order, point=pt),
                det_residual=abs(spike_det(spec, lam, point=pt, order=order))))
    reports.sort(key=lambda r: r.location)
    return reports


def alignment(spec, lam, order=None, point=None):
    """Asymptotic projection matrix V^T u u^T V at a spike location.

    Built from the left/right null vectors of G(lam) and the explicit
    derivative G'(lam); embedded back into the full 3x3 indexing with
    zero rows/columns for dropped V columns.  point is the solved
    StieltjesPoint at lam, if known.
    """
    gm = spike_matrix(spec, lam, point=point, order=order)
    G = gm.entries.real
    eigvals, right = np.linalg.eig(G)
    idx = np.argsort(np.abs(eigvals))
    if len(eigvals) > 1 and np.abs(eigvals[idx[1]]) <= 1e-6:
        raise MultiplicityViolation(
            f"zero eigenvalue of G({lam}) is not simple")
    v_r = np.real(right[:, idx[0]])
    eigvals_l, left = np.linalg.eig(G.T)
    j = int(np.argmin(np.abs(eigvals_l - eigvals[idx[0]])))
    v_l = np.real(left[:, j])
    g_prime = spike_matrix_deriv(spec, lam, point=gm.point, order=order).real
    xi = np.outer(v_r, v_l) / (v_l @ g_prime @ v_r)
    proj = -gm.vqv.real @ xi
    proj = 0.5 * (proj + proj.T)
    out = np.zeros((3, 3))
    out[np.ix_(gm.active, gm.active)] = proj
    return out


def signal_spike_closed_form(rho, c):
    """Closed-form spike/alignment for the pure-signal logistic Hessian.

    For the logistic model at w = w* = 0 and C = I the Hessian is a
    quarter-scaled sample covariance with rank-one mean rho = |mu|^2.
    Above the detection threshold rho > sqrt(c) the isolated eigenvalue
    and squared cosine with mu are explicit; below it the top eigenvalue
    sticks to the bulk edge with zero alignment.
    """
    if rho < 0 or c <= 0:
        raise ValueError("need rho >= 0 and c > 0")
    if rho > np.sqrt(c):
        lam = 0.25 * (1.0 + rho + c * (rho + 1.0) / rho)
        align = (rho ** 2 - c) / (rho ** 2 + c * rho)
        return float(lam), float(align)
    edge = 0.25 * (1.0 + np.sqrt(c)) ** 2
    return float(edge), 0.0


def model_spike_scalar(w_norm, c, order=400):
    """Scalar solver for the left model spike of the logistic Hessian.

    Independent of the generic pipeline: for mu = 0, w* = 0, C = I the
    whole problem reduces to one scalar fixed point
        m(z) = 1 / (E[f(r, z)] - z),  f(t, z) = 1/(c m + 2 + e^t + e^{-t}),
    with r ~ N(0, |w|^2), solved through its inverse z(m) = E[f] - 1/m.
    The left support edge is the maximum of z(m); on the physical branch
    0 < m < m_edge below it the spike is the root of
    det(m) = 1 + m E[f q], q = r^2/|w|^2 - 1.  Returns (gap,
    alignment_cos2, location, edge), with Nones when no root exists.
    """
    grid = QuadratureGrid.gauss_hermite(order).normalized()
    wq = grid.weights
    ch = 2.0 + 2.0 * np.cosh(w_norm * grid.nodes)    # 2 + e^r + e^{-r}
    q = grid.nodes ** 2 - 1.0                         # r^2/|w|^2 - 1

    def z_of_m(m):
        return np.sum(wq / (c * m + ch)) - 1.0 / m

    def det(m):
        return 1.0 + m * np.sum(wq * q / (c * m + ch))

    res = optimize.minimize_scalar(lambda u: -z_of_m(np.exp(u)),
                                   bounds=(-8.0, 12.0), method="bounded",
                                   options={"xatol": 1e-12})
    m_edge = float(np.exp(res.x))
    edge = float(z_of_m(m_edge))
    # det -> 1 as m -> 0+ (z -> -inf); a spike needs a sign change
    if det(m_edge) >= 0:
        return None, None, None, edge
    m = optimize.brentq(det, 1e-12 * m_edge, m_edge, xtol=1e-15)
    fv = 1.0 / (c * m + ch)
    m_prime = m ** 2 / (1.0 - c * m ** 2 * np.sum(wq * fv ** 2))
    det_prime = m_prime * (np.sum(wq * fv * q)
                           - c * m * np.sum(wq * fv ** 2 * q))
    root = z_of_m(m)
    return float(edge - root), float(-m / det_prime), float(root), edge
