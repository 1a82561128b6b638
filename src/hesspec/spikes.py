"""Isolated eigenvalues and eigenvector alignments.

An eigenvalue detaches from the bulk at the real exterior zeros of

    det G(z),   G(z) = I + Lambda(z) V^T Qbar(z) V,

where V = [mu, C w*, C w], Qbar is the deterministic resolvent
equivalent and Lambda couples the curvature to the two projections.
find_spikes walks the real exterior along the inverse map z(delta) of
hesspec.bulk, so each (z, delta) pair is exact without a fixed-point
solve: det G is tabulated on the table of every rising segment of the
map, edges included and out to z = -inf and +inf, and each sign change
across a step where z moves is polished by bulk._polish, the root
polisher of the edges.  V^T Qbar V (with its z-derivative) and G each
have one kernel, _vqv and _g, that serves a table and a single point
alike.  At a root the asymptotic projection matrix V^T u u^T V follows
from the left/right null vectors of G and the explicit derivative G'(z).

Columns of V that vanish (e.g. mu = 0 or w = 0) are dropped so G
shrinks to 2x2 or 1x1; the pure-signal case w = w* = 0 is exactly the
1x1 reduction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .errors import ImaginaryLeak, MultiplicityViolation
from .bulk import _exterior, _polish, solve_point, stieltjes_derivatives
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


def _vqv(spec, z, e, slope=None):
    """V^T Qbar V at z and e = e(delta(z)), scalars or arrays (k x 3 x 3),
    through the eigen-grouped partial Grams of C; with slope = E2 delta'(z)
    also its z-derivative, via Qbar' = Qbar (E2 delta' C + I) Qbar."""
    z, e = np.asarray(z)[..., None, None], np.asarray(e)[..., None, None]
    vqv = vqv_prime = 0.0
    for t_val, gram in spec.grouped_grams:
        pole = e * t_val - z
        vqv = vqv + gram / pole
        if slope is not None:
            vqv_prime = vqv_prime + gram * (slope * t_val + 1.0) / pole ** 2
    return vqv if slope is None else (vqv, vqv_prime)


def _g(moments, vqv, active):
    """G = I + Lambda V^T Qbar V on the active columns, for one or a stack
    of (moments, vqv)."""
    ix = (..., active[:, None], active)
    return np.eye(len(active)) + moments[ix] @ vqv[ix]


def resolvent_forms(spec, z, point=None, order=None):
    """V^T Qbar(z) V through the eigen-grouped partial Grams of C."""
    if point is None:
        point = solve_point(spec, z, order=order)
    return _vqv(spec, point.z, point.e)


def spike_matrix(spec, z, point=None, order=None):
    """Assemble G(z) = I + Lambda(z) V^T Qbar(z) V on the active columns."""
    if point is None:
        point = solve_point(spec, z, order=order)
    moments = expectation_engine(spec, order).moments(point.z, point.delta)
    vqv = _vqv(spec, point.z, point.e)
    active = _active_columns(spec)
    return SpikeMatrix(entries=_g(moments.entries, vqv, active),
                       z=float(np.real(z)), vqv=vqv[np.ix_(active, active)],
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
    vqv, vqv_prime = _vqv(spec, point.z, point.e, e2 * delta_prime)
    active = _active_columns(spec)
    ix = np.ix_(active, active)
    return lam_prime[ix] @ vqv[ix] + lam[ix] @ vqv_prime[ix]


def find_spikes(spec, support_report, order=None):
    """Locate all real exterior roots of det G and attach alignments.

    On every rising segment of the inverse map (see hesspec.bulk) det G
    is tabulated along z(delta) on the segment's table, edges included,
    and each sign change across a step where z moves is polished on the
    delta arc by bulk._polish.  Each spike point (z, delta) comes straight
    from the map, with no fixed-point solve; its gap and side refer to the
    exact edges of its segment.  support_report is unused and kept for
    callers that pass it: a law without a real exterior has no spikes.
    """
    ext = _exterior(spec, order)
    active = _active_columns(spec)

    def dets(z, e, moments):
        return np.linalg.det(_g(moments, _vqv(spec, z, e), active))

    def det_at(gap, theta):
        z, e, _, moments = ext.eval(gap, [theta])
        return dets(z, e, moments)[0]

    reports = []
    for seg in ext.segments:
        vals = dets(seg.z, seg.e, seg.moments)
        # no root lies where z is flat (a hard edge at the end of the arc)
        step = (vals[:-1] * vals[1:] < 0) & (seg.z[1:] > seg.z[:-1])
        for i in np.flatnonzero(step):
            root = _polish(lambda th: det_at(seg.gap, th), seg.theta[i],
                           seg.theta[i + 1])
            pt = ext.point(seg.gap, root)
            lam = pt.z.real
            # the nearer edge of the segment sets side and gap
            below, above = lam - seg.z[0], seg.z[-1] - lam
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
