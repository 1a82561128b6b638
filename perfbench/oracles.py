"""Independent oracles for the benchmark's accuracy checks.

The library's own closed forms (``signal_spike_closed_form``,
``model_spike_scalar``) cover the signal and evaluation-point configs.
This module adds two more, each solved on the real axis through an
explicit inverse map z(.) rather than the library's complex fixed
point, density thresholding and determinant mesh:

* ``trim_retrieval``: phase retrieval with the trimming map, C = I,
  mu = 0 (the ``fig7`` sweep).  With s = e^T x ~ N(0, 1), y = r^2 s^2 and
  T = trim(y), the exterior is parametrized by delta through
      z(delta) = E[T / (1 + T delta)] - c / delta,
  a spike solves E[T (s^2 - 1) / (1 + T delta)] + c / delta = 0 and its
  squared cosine with w* is z' / (z' + E[T^2 s^2 / (1 + T delta)^2]).
  T approaches 1 only as y -> infinity, so the right branch ends at
  delta = -1 (a hard edge) when z' has no root on (-1, 0).
* ``constant_curvature``: a mean mu under a multi-atom covariance with
  constant curvature g (w = w* = 0 under the logistic model, g = 1/4).
  Edges are the critical values of the Silverstein-Choi map
      z(m) = -1/m + c sum_j w_j tau_j / (1 + tau_j m),  tau_j = g t_j,
  and a spike is a root of G = 1 + e sum_j rho_j / (e t_j - z) with
  e = -g z m, on a branch where z'(m) > 0.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import optimize
from scipy.special import roots_hermite

_SCAN = 2001


@dataclass
class OracleSpectrum:
    """Edges (ascending) and spikes [(location, cos2)] of one config."""

    edges: list
    spikes: list = field(default_factory=list)


def _normal_rule(order):
    x, w = roots_hermite(order)
    return x * np.sqrt(2.0), w / np.sqrt(np.pi)


def _roots(f, grid):
    """Every sign change of the vectorized f on grid, polished by brentq."""
    vals = f(grid)
    idx = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
    def scalar(x):
        return float(np.squeeze(f(x)))

    return [optimize.brentq(scalar, grid[i], grid[i + 1], xtol=1e-15,
                            rtol=1e-15)
            for i in idx]


def trim_retrieval(r, c, order=400):
    """Edges and spikes for trimmed phase retrieval at teacher norm r."""
    s, wq = _normal_rule(order)
    s2 = s * s
    y = r * r * s2
    shift = np.sqrt(2.0 / c) - 1.0
    T = (y - 1.0) / (y + shift)

    def mean(num, d, power=1):
        d = np.atleast_1d(np.asarray(d, dtype=float))
        den = (1.0 + np.outer(d, T)) ** power
        out = (num / den) @ wq
        return out if out.size > 1 else float(out[0])

    def z(d):
        return mean(T, d) - c / np.asarray(d)

    def zp(d):
        return -mean(T * T, d, 2) + c / np.asarray(d) ** 2

    def spike_eq(d):
        return mean(T * (s2 - 1.0), d) + c / np.asarray(d)

    def cos2(d):
        zpd = zp(d)
        return zpd / (zpd + mean(T * T * s2, d, 2))

    # right branch: delta in [-1, 0), dense toward 0 where z -> +inf
    right = -np.logspace(0.0, -9.0, _SCAN)
    crit = _roots(zp, right)
    d_r = max(crit) if crit else -1.0
    # left branch: delta in (0, shift), where 1 + T_min delta vanishes
    left = shift * np.logspace(-9.0, np.log10(1.0 - 1e-9), _SCAN)
    d_l = min(_roots(zp, left))

    out = OracleSpectrum(edges=[z(d_l), z(d_r)])
    if spike_eq(d_l) < 0:
        d = optimize.brentq(spike_eq, 1e-12, d_l, xtol=1e-16, rtol=1e-15)
        out.spikes.append((z(d), cos2(d)))
    if spike_eq(d_r) > 0:
        d = optimize.brentq(spike_eq, d_r, -1e-12, xtol=1e-16, rtol=1e-15)
        out.spikes.append((z(d), cos2(d)))
    return out


def constant_curvature(g, atoms, weights, rho, c):
    """Edges and mean spikes for constant curvature g.

    atoms/weights are the spectral atoms of C, rho[j] the squared norm of
    the part of mu in the eigenspace of atoms[j].
    """
    t = np.asarray(atoms, dtype=float)
    wts = np.asarray(weights, dtype=float)
    rho = np.asarray(rho, dtype=float)
    tau = g * t

    def z(m):
        m = np.atleast_1d(np.asarray(m, dtype=float))
        return -1.0 / m + c * (wts * tau / (1.0 + np.outer(m, tau))).sum(1)

    def zp(m):
        m = np.atleast_1d(np.asarray(m, dtype=float))
        return 1.0 / m ** 2 - c * (wts * tau ** 2
                                   / (1.0 + np.outer(m, tau)) ** 2).sum(1)

    def parts(m):
        zm = z(m)
        e = -g * zm * np.atleast_1d(m)
        pole = np.outer(e, t) - zm[:, None]
        return zm, e, pole

    def G(m):
        _, e, pole = parts(m)
        out = 1.0 + e * (rho / pole).sum(1)
        return out if out.size > 1 else float(out[0])

    def cos2(m):
        zm, e, pole = parts(m)
        dz = zp(m)
        de = -g * (dz * m + zm)
        q = (rho / pole).sum(1)
        dq = -(rho * (np.outer(de, t) - dz[:, None]) / pole ** 2).sum(1)
        dG_dz = (de * q + e * dq) / dz
        return float((-q / dG_dz)[0] / rho.sum())

    poles = np.sort(-1.0 / tau)
    # (-inf, -1/tau_min), between consecutive poles, and (-1/tau_max, 0)
    u = 0.5 * (1.0 - np.cos(np.linspace(0.0, np.pi, _SCAN)))[1:-1]
    grids = [poles[0] - np.logspace(6.0, -9.0, _SCAN)]
    for a, b in zip(poles[:-1], poles[1:]):
        grids.append(a + (b - a) * u)
    grids.append(poles[-1] * (1.0 - u))
    out = OracleSpectrum(edges=[])
    for grid in grids:
        out.edges += [float(z(m)[0]) for m in _roots(zp, grid)]
        for m in _roots(G, grid):
            if zp(m)[0] > 0:
                out.spikes.append((float(z(m)[0]), cos2(m)))
    out.edges.sort()
    out.spikes.sort()
    return out
