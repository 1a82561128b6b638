"""Isolated eigenvalues and eigenvector alignments.

An eigenvalue detaches from the bulk at the real exterior zeros of

    det G(z),   G(z) = I + Lambda(z) V^T Qbar(z) V,

where V = [mu, C w*, C w], Qbar is the deterministic resolvent
equivalent and Lambda couples the curvature to the two projections.
find_spikes walks the real exterior along the inverse map z(delta) of
hesspec.bulk, so each (z, delta) pair is exact without a fixed-point
solve: det G is tabulated on the table of every rising segment of the
map, edges included and out to z = -inf and +inf, and each sign change
across a step where z moves by more than 1e-12 relative is polished by
bulk._polish, the root polisher of the edges.  V^T Qbar V (with its
z-derivative) and G each have one kernel, _vqv and _g, that serves a table
and a single point alike.  One evaluation at a point (spike_matrix), which
every reader of G shares, gives G and the explicit derivative G'(z); at a
simple root, V^T u u^T V is minus the residue of V^T Qbar V G^-1, read
off the adjugate of G and Jacobi's formula (det G)' = tr(adj(G) G').

Columns of V that vanish (e.g. mu = 0 or w = 0) are dropped so G
shrinks to 2x2 or 1x1; the pure-signal case w = w* = 0 is exactly the
1x1 reduction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .errors import ImaginaryLeak, MultiplicityViolation
from .bulk import (_exterior, _pole_sum, _polish, solve_point,
                   stieltjes_derivatives)
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


_Z_FLAT = 1e-12    # relative z step within rounding: no spike lies on it


@dataclass(frozen=True, eq=False)
class SpikeMatrix:
    """G(z), G'(z) and V^T Qbar V on the active columns (spike_matrix)."""

    entries: np.ndarray        # G on active columns
    deriv: np.ndarray          # G'(z) on active columns
    z: float
    vqv: np.ndarray            # V^T Qbar V, active columns
    active: np.ndarray         # indices of nonzero V columns

    def det(self):
        """Real determinant of G at real exterior z."""
        det = np.linalg.det(self.entries)
        if abs(det.imag) > 1e-9 * max(1.0, abs(det.real)):
            raise ImaginaryLeak(
                f"det G carries imaginary residue {det.imag:g} at z={self.z}")
        return det.real

    def alignment(self):
        """V^T u u^T V at a simple root of det G, in the full 3x3 indexing
        (0 for dropped columns): minus the residue of V^T Qbar V G^-1,
        V^T Qbar V adj(G) / (det G)' with (det G)' = tr(adj(G) G') by
        Jacobi's formula, symmetrised."""
        G, deriv = self.entries.real, self.deriv.real
        k = np.arange(len(G))
        rest = np.array([k[k != i] for i in k])      # row i: all but i
        # cofactor (i, j): (-1)^(i+j) det G without row i and column j,
        # where numpy's det of a 0x0 matrix is 1
        minors = G[rest[:, None, :, None], rest[:, None]]
        adj = ((-1.0) ** np.add.outer(k, k) * np.linalg.det(minors)).T
        slope = np.trace(adj @ deriv)
        if abs(slope) <= 1e-12 * np.abs(adj).max() * np.abs(deriv).max():
            raise MultiplicityViolation(
                f"the root of det G at z={self.z} is not simple")
        proj = -self.vqv.real @ adj / slope
        out = np.zeros((3, 3))
        out[np.ix_(self.active, self.active)] = 0.5 * (proj + proj.T)
        return out


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


def _vqv(spec, z, e, slope=None):
    """V^T Qbar V at z and e = e(delta(z)), scalars or arrays (k x 3 x 3),
    the pole sum of the eigen-grouped partial Grams of C; with slope =
    E2 delta'(z) also its z-derivative, via Qbar' = Qbar (E2 delta' C + I)
    Qbar."""
    t, grams = spec.atoms[0], spec.grams
    vqv = _pole_sum(t, z, e, tail=2)(grams)
    if slope is None:
        return vqv
    rise = np.multiply.outer(slope, t)[..., None, None] + 1.0
    return vqv, _pole_sum(t, z, e, 2, tail=2)(grams * rise)


def _g(moments, vqv, active):
    """G = I + Lambda V^T Qbar V on the active columns, for one or a stack
    of (moments, vqv)."""
    ix = (..., active[:, None], active)
    return np.eye(len(active)) + moments[ix] @ vqv[ix]


def resolvent_forms(spec, z, point=None):
    """V^T Qbar(z) V through the eigen-grouped partial Grams of C."""
    if point is None:
        point = solve_point(spec, z)
    return _vqv(spec, point.z, point.e)


def spike_matrix(spec, z, point=None):
    """G(z) = I + Lambda V^T Qbar V and G'(z) on the active columns, at z or
    at its solved point: the one evaluation every reader of G shares, from
    the moments of g/(1+g delta) and of its square and one _vqv call."""
    if point is None:
        point = solve_point(spec, z)
    eng = expectation_engine(spec)
    delta_prime, _, e2 = stieltjes_derivatives(spec, point)
    lam = eng.moments(point.z, point.delta).entries
    lam_prime = -delta_prime * eng.moments(point.z, point.delta,
                                           square=True).entries
    vqv, vqv_prime = _vqv(spec, point.z, point.e, e2 * delta_prime)
    active = spec.active_columns
    ix = np.ix_(active, active)
    return SpikeMatrix(entries=_g(lam, vqv, active),
                       deriv=lam_prime[ix] @ vqv[ix] + lam[ix] @ vqv_prime[ix],
                       z=float(point.z.real), vqv=vqv[ix], active=active)


def spike_det(spec, z, point=None):
    """Real determinant of G(z) at real exterior z."""
    return spike_matrix(spec, z, point=point).det()


def spike_matrix_deriv(spec, z, point=None):
    """G'(z) = Lambda' V^T Qbar V + Lambda V^T Qbar' V on active columns."""
    return spike_matrix(spec, z, point=point).deriv


def find_spikes(spec, support_report):
    """All real exterior roots of det G, found as the module docstring
    says, each evaluated once (spike_matrix) for both its det residual and
    its alignment; gap and side refer to the exact edges of its segment.
    support_report is unused and kept for callers that pass it: a law
    without a real exterior has no spikes.
    """
    ext = _exterior(spec)
    active = spec.active_columns

    def dets(z, e, moments):
        return np.linalg.det(_g(moments, _vqv(spec, z, e), active))

    def det_at(gap, theta):
        z, e, _, moments = ext.eval(gap, [theta])
        return dets(z, e, moments)[0]

    reports = []
    for seg in ext.segments:
        vals = dets(seg.z, seg.e, seg.moments)
        # no root lies where z is flat to rounding (a hard edge at the end
        # of the arc, where det G can change sign in its last digits)
        moves = np.diff(seg.z) > _Z_FLAT * np.minimum(np.abs(seg.z[:-1]),
                                                      np.abs(seg.z[1:]))
        step = (vals[:-1] * vals[1:] < 0) & moves
        for i in np.flatnonzero(step):
            root = _polish(lambda th: det_at(seg.gap, th), seg.theta[i],
                           seg.theta[i + 1])
            pt = ext.point(seg.gap, root)
            gm = spike_matrix(spec, pt.z, point=pt)
            # the nearer edge of the segment sets side and gap
            below, above = gm.z - seg.z[0], seg.z[-1] - gm.z
            side, gap = ("right", below) if below < above else ("left", above)
            reports.append(SpikeReport(
                location=gm.z, side=side, gap=float(gap),
                alignment=gm.alignment(), det_residual=abs(gm.det())))
    reports.sort(key=lambda r: r.location)
    return reports


def alignment(spec, lam, point=None):
    """Asymptotic projection matrix V^T u u^T V at a spike location lam
    (SpikeMatrix.alignment); point is its solved StieltjesPoint, if known."""
    return spike_matrix(spec, lam, point=point).alignment()


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
    # 2 + e^r + e^{-r} = e^{|r|} (1 + e^{-|r|})^2, so f never overflows
    t = np.exp(-np.abs(w_norm * grid.nodes))
    s = (1.0 + t) ** 2
    q = grid.nodes ** 2 - 1.0                         # r^2/|w|^2 - 1

    def f(m):
        return t / (c * m * t + s)

    def z_of_m(m):
        return np.sum(wq * f(m)) - 1.0 / m

    def det(m):
        return 1.0 + m * np.sum(wq * q * f(m))

    res = optimize.minimize_scalar(lambda u: -z_of_m(np.exp(u)),
                                   bounds=(-8.0, 12.0), method="bounded",
                                   options={"xatol": 1e-12})
    m_edge = float(np.exp(res.x))
    edge = float(z_of_m(m_edge))
    # det -> 1 as m -> 0+ (z -> -inf); a spike needs a sign change
    if det(m_edge) >= 0:
        return None, None, None, edge
    m = optimize.brentq(det, 1e-12 * m_edge, m_edge, xtol=1e-15)
    fv = f(m)
    m_prime = m ** 2 / (1.0 - c * m ** 2 * np.sum(wq * fv ** 2))
    det_prime = m_prime * (np.sum(wq * fv * q)
                           - c * m * np.sum(wq * fv ** 2 * q))
    root = z_of_m(m)
    return float(edge - root), float(-m / det_prime), float(root), edge
