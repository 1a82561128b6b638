"""Isolated eigenvalues and eigenvector alignments.

An eigenvalue detaches from the bulk at the real exterior zeros of

    det G(z),   G(z) = I + Lambda(z) V^T Qbar(z) V,

where V = [mu, C w*, C w], Qbar is the deterministic resolvent
equivalent and Lambda couples the curvature to the two projections.
At a root the asymptotic projection matrix V^T u u^T V follows from the
left/right null vectors of G and the explicit derivative G'(z).

Columns of V that vanish (e.g. mu = 0 or w = 0) are dropped so G
shrinks to 2x2 or 1x1; the pure-signal case w = w* = 0 is exactly the
1x1 reduction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .errors import (BranchViolation, ImaginaryLeak, MultiplicityViolation,
                     NonConvergence)
from .bulk import solve_point, stieltjes_derivatives
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

SCAN_MARGIN = 3.0   # exterior scan reach beyond the hull, in support widths
MESH = 200          # determinant evaluations per scanned segment


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


def _support_hull(support_report):
    edges = [e for iv in support_report.intervals for e in iv]
    return min(edges), max(edges)


def _edge_distance(support_report, lam):
    """(gap, side) of a point relative to the support intervals."""
    best = (np.inf, "right")
    for left, right in support_report.intervals:
        if lam < left:
            d = left - lam
            if d < best[0]:
                best = (d, "left")
        elif lam > right:
            d = lam - right
            if d < best[0]:
                best = (d, "right")
        else:
            return 0.0, "inside"
    return best


def find_spikes(spec, support_report, order=None):
    """Locate all real exterior roots of det G and attach alignments.

    Each complement interval of the support (and a margin of
    SCAN_MARGIN support widths beyond the outermost edges) is scanned on
    MESH points for sign changes of the determinant; brackets are
    polished to 1e-10.  An empty support has no spikes.
    """
    if not support_report.intervals:
        return []
    lo, hi = _support_hull(support_report)
    width = max(hi - lo, 1e-12)
    margin = SCAN_MARGIN * width
    standoff = max(1e-6, 1e-4 * width)

    segments = []
    left_ends = [lo] + [iv[0] for iv in support_report.intervals[1:]]
    right_ends = [iv[1] for iv in support_report.intervals]
    segments.append(((lo - margin, lo - standoff), "near_b"))
    for gap_l, gap_r in zip(right_ends[:-1], left_ends[1:]):
        segments.append(((gap_l + standoff, gap_r - standoff), "center"))
    segments.append(((hi + standoff, hi + margin), "near_a"))

    def det_at(x, warm):
        pt = solve_point(spec, x, warm_start=warm[0], order=order)
        warm[0] = pt.delta
        return spike_det(spec, x, point=pt, order=order)

    reports = []
    for (a, b), hard_end in segments:
        if b <= a:
            continue
        xs = np.linspace(a, b, MESH)
        # visit the easy (far-from-edge) points first so the warm-start
        # chain is established before the near-edge points are attempted
        if hard_end == "near_a":
            visit = range(MESH - 1, -1, -1)
        elif hard_end == "near_b":
            visit = range(MESH)
        else:
            mid = MESH // 2
            visit = sorted(range(MESH), key=lambda k: abs(k - mid))
        vals = np.empty(MESH)
        deltas = np.full(MESH, np.nan, dtype=complex)
        warm = [None]
        for i in visit:
            try:
                vals[i] = det_at(xs[i], warm)
                deltas[i] = warm[0]
            except (NonConvergence, BranchViolation, ImaginaryLeak):
                vals[i] = np.nan
                warm[0] = None
        for i in range(MESH - 1):
            v0, v1 = vals[i], vals[i + 1]
            if not (np.isfinite(v0) and np.isfinite(v1)) or v0 * v1 > 0:
                continue
            seed = deltas[i] if np.isfinite(deltas[i]) else deltas[i + 1]
            root = optimize.brentq(lambda x: det_at(x, [seed]),
                                   xs[i], xs[i + 1], xtol=1e-10)
            gap, side = _edge_distance(support_report, root)
            align = alignment(spec, root, order=order)
            reports.append(SpikeReport(location=float(root), side=side,
                                       gap=float(gap), alignment=align,
                                       det_residual=abs(spike_det(spec, root,
                                                                  order=order))))
    reports.sort(key=lambda r: r.location)
    return reports


def alignment(spec, lam, order=None):
    """Asymptotic projection matrix V^T u u^T V at a spike location.

    Built from the left/right null vectors of G(lam) and the explicit
    derivative G'(lam); embedded back into the full 3x3 indexing with
    zero rows/columns for dropped V columns.
    """
    gm = spike_matrix(spec, lam, order=order)
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


def _model_spike_scalar_funcs(w_norm, c, order=400):
    grid = QuadratureGrid.gauss_hermite(order).normalized()
    r = w_norm * grid.nodes
    wq = grid.weights
    ch = 2.0 + 2.0 * np.cosh(r)          # 2 + e^r + e^{-r}
    q = grid.nodes ** 2 - 1.0            # r^2/|w|^2 - 1

    def f(m):
        return 1.0 / (c * m + ch)

    def z_of_m(m):
        return np.sum(wq * f(m)) - 1.0 / m

    return f, z_of_m, wq, q


def model_spike_scalar(w_norm, c, order=400):
    """Scalar solver for the left model spike of the logistic Hessian.

    Independent of the generic pipeline: for mu = 0, w* = 0, C = I the
    whole problem reduces to one scalar fixed point
        m(z) = 1 / (E[f(r, z)] - z),  f(t, z) = 1/(c m + 2 + e^t + e^{-t}),
    with r ~ N(0, |w|^2).  Returns (gap, alignment_cos2, location, edge),
    with Nones when no exterior root exists.
    """
    f, z_of_m, wq, q = _model_spike_scalar_funcs(w_norm, c, order)

    # the left support edge is the maximum of z(m) over the real branch
    res = optimize.minimize_scalar(lambda u: -z_of_m(np.exp(u)),
                                   bounds=(-8.0, 12.0), method="bounded",
                                   options={"xatol": 1e-12})
    m_edge = float(np.exp(res.x))
    edge = float(z_of_m(m_edge))

    def m_of_z(z, m0):
        m = m0
        for _ in range(20_000):
            target = 1.0 / (np.sum(wq * f(m)) - z)
            if abs(target - m) < 1e-13:
                return target
            m = 0.5 * (m + target)
        raise NonConvergence("scalar m fixed point stalled", residual=abs(target - m))

    def det_at(z, m0):
        m = m_of_z(z, m0)
        return 1.0 + m * np.sum(wq * f(m) * q), m

    # scan the physical branch (m < m_edge) from the edge down to 0+
    zs = np.linspace(edge * (1.0 - 1e-6), edge * 1e-3, 400)
    m_warm = m_edge * 0.999
    prev = None
    root = None
    for z in zs:
        try:
            val, m_warm = det_at(z, m_warm)
        except NonConvergence:
            prev = None
            continue
        if prev is not None and prev[1] * val < 0:
            lo, hi = z, prev[0]
            m_br = m_warm
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                v, m_br = det_at(mid, m_br)
                if v * val > 0:
                    lo = mid
                else:
                    hi = mid
                if hi - lo < 1e-13:
                    break
            root = 0.5 * (lo + hi)
            break
        prev = (z, val)
    if root is None:
        return None, None, None, edge

    m = m_of_z(root, m_edge * 0.5)
    fv = f(m)
    ef2 = np.sum(wq * fv ** 2)
    m_prime = m ** 2 / (1.0 - c * m ** 2 * ef2)
    det_prime = m_prime * (np.sum(wq * fv * q) - c * m * np.sum(wq * fv ** 2 * q))
    align = -m / det_prime
    return float(edge - root), float(align), float(root), edge
