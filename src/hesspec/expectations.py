"""Population expectations over (h*, h, y) via Gauss-Hermite quadrature.

Everything the asymptotic solvers need is an average of a function of
the curvature g = g(y, h) and of the 2-vector s = (h* - w*^T mu,
h - w^T mu).  The pair (h*, h) is exactly Gaussian with the law given
by the feature spec, and y is marginalized exactly (two-point sum for
the logistic model, deterministic substitution for phase retrieval and
single-layer networks, an inner quadrature for the noisy factor model).
The Gaussian integral is whitened through the eigenfactor of the 2x2
projection covariance; rank-deficient laws (w parallel to w*, or zero
vectors) drop to 1-D or 0-D quadrature automatically.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PoleError
from .models import curvature, sample_response

__all__ = [
    "QuadratureGrid",
    "CurvatureMoments",
    "DEFAULT_QUAD_ORDER",
    "effective_curvature",
    "effective_curvature_sq",
    "curvature_moments",
    "expectation_engine",
]

DEFAULT_QUAD_ORDER = 96
_INNER_NOISE_ORDER = 32
_SWEEP_BYTES = 2 << 20   # (delta, node) intermediates of one sweep chunk


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Gauss-Hermite nodes/weights normalized to the N(0,1) measure."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    @staticmethod
    def gauss_hermite(order):
        """Physicists' rule: weights sum to sqrt(pi)."""
        from scipy.special import roots_hermite
        nodes, weights = roots_hermite(order)
        return QuadratureGrid(nodes=nodes, weights=weights, order=order)

    def normalized(self):
        """Rescale so nodes are N(0,1) draws and weights sum to 1."""
        return QuadratureGrid(nodes=self.nodes * np.sqrt(2.0),
                              weights=self.weights / np.sqrt(np.pi),
                              order=self.order)


@dataclass(frozen=True, eq=False)
class CurvatureMoments:
    """The 3x3 matrix of curvature/projection moments at (z, delta).

    entries[0, 0]   = E[f],
    entries[0, 1:]  = E[f * u],
    entries[1:, 1:] = E[f * (u u^T - K)],
    with f = g/(1 + g delta), u = K s and K = (U^T U)^+.
    """

    entries: np.ndarray
    z: complex
    delta: complex


class ExpectationEngine:
    """Precomputed node set (g_k, s_k, weight_k) for one problem spec.

    Construction whitens the projection law and marginalizes y once; each
    expectation afterwards is a single vectorized reduction, which keeps
    the Newton iterations cheap.
    """

    def __init__(self, spec, order=DEFAULT_QUAD_ORDER):
        self.spec = spec
        self.order = order
        law = spec.projection_law()
        vals, vecs = np.linalg.eigh(law.cov)
        scale = max(np.max(vals), 1.0)
        keep = vals > 1e-14 * scale
        rank = int(keep.sum())

        grid = QuadratureGrid.gauss_hermite(order).normalized()
        if rank == 0:
            pts = law.mean[:, None]
            wts = np.array([1.0])
        elif rank == 1:
            direction = vecs[:, keep][:, 0] * np.sqrt(vals[keep][0])
            pts = law.mean[:, None] + np.outer(direction, grid.nodes)
            wts = grid.weights.copy()
        else:
            xi1, xi2 = np.meshgrid(grid.nodes, grid.nodes, indexing="ij")
            xi = np.vstack([xi1.ravel(), xi2.ravel()])
            pts = law.mean[:, None] + (vecs * np.sqrt(np.clip(vals, 0, None))) @ xi
            wts = np.outer(grid.weights, grid.weights).ravel()

        h_star, h = pts
        model = spec.model
        if model.kind == "logistic":
            prob = 1.0 / (1.0 + np.exp(-h_star))
            y = np.concatenate([np.ones_like(h_star), -np.ones_like(h_star)])
            wts = np.concatenate([wts * prob, wts * (1.0 - prob)])
            h = np.concatenate([h, h])
            h_star = np.concatenate([h_star, h_star])
        elif model.kind == "noisy_factor" and model.sigma > 0:
            inner = QuadratureGrid.gauss_hermite(_INNER_NOISE_ORDER).normalized()
            y = (np.asarray(model.link(h_star), dtype=float)[:, None]
                 + model.sigma * inner.nodes[None, :]).ravel()
            wts = np.outer(wts, inner.weights).ravel()
            h = np.repeat(h, _INNER_NOISE_ORDER)
            h_star = np.repeat(h_star, _INNER_NOISE_ORDER)
        else:
            # deterministic responses: y is a function of h_star
            rng = np.random.Generator(np.random.Philox(0))
            y = np.asarray(sample_response(model, h_star, rng), dtype=float)

        self.g = np.asarray(curvature(spec.weight, y, h), dtype=float)
        self.wt = wts
        self.s = np.vstack([h_star, h]) - law.mean[:, None]
        self.u = spec.gram_U_pinv @ self.s
        u0, u1 = self.u
        # the node columns whose weighted sums fill the moment matrix
        self._cols = np.column_stack([np.ones_like(u0), u0, u1, u0 * u0,
                                      u0 * u1, u1 * u1])

    def _damped(self, delta):
        """g / (1 + g delta), broadcast over the nodes (last axis)."""
        f = self.g * delta
        f += 1.0
        bad = np.abs(f) <= 1e-12
        if np.any(bad):
            g = self.g[np.nonzero(bad)[-1][0]]
            raise PoleError(
                f"1 + g*delta vanished at a quadrature node (g={g:.6g})",
                node=g)
        return np.divide(self.g, f, out=f)

    def e1(self, delta):
        """E[g / (1 + g delta)]."""
        return self.e1_e2(delta)[0]

    def e2(self, delta):
        """E[g^2 / (1 + g delta)^2]."""
        return self.e1_e2(delta)[1]

    def e1_e2(self, delta):
        """(e1, e2) at one delta from a single pass over the nodes."""
        f = self._damped(delta)
        fw = self.wt * f
        return np.sum(fw), np.dot(fw, f)

    def moments(self, z, delta, square=False):
        """The 3x3 moment matrix; with square=True the weight is
        g^2/(1+g delta)^2 (as needed for the z-derivative)."""
        return CurvatureMoments(entries=self.sweep([delta], square)[2][0],
                                z=z, delta=delta)

    def sweep(self, deltas, square=False):
        """e1, e2 and the moment matrices (k x 3 x 3) at k real or complex
        deltas; with square=True the matrices weigh g^2/(1+g delta)^2.

        The (delta, node) intermediates are built in chunks that together
        stay within _SWEEP_BYTES, however long the grid is.
        """
        deltas = np.asarray(deltas)
        dtype = np.result_type(deltas, float)
        k = len(deltas)
        e1, e2 = np.empty(k, dtype), np.empty(k, dtype)
        raw = np.empty((k, 6), dtype)
        rows = max(1, _SWEEP_BYTES // (2 * dtype.itemsize * len(self.g)))
        for start in range(0, k, rows):
            part = slice(start, start + rows)
            f = self._damped(deltas[part, None])
            fw = f * self.wt
            f *= fw
            e1[part], e2[part] = fw.sum(1), f.sum(1)
            raw[part] = (f if square else fw) @ self._cols
        moments = np.empty((k, 3, 3), dtype)
        moments[:, 0, 0] = raw[:, 0]
        moments[:, 0, 1:] = raw[:, 1:3]
        moments[:, 1:, 0] = raw[:, 1:3]
        moments[:, 1:, 1:] = (raw[:, [[3, 4], [4, 5]]]
                              - raw[:, 0, None, None] * self.spec.gram_U_pinv)
        return e1, e2, moments


def expectation_engine(spec, order=None):
    """Engine for the spec, cached per quadrature order."""
    order = order or DEFAULT_QUAD_ORDER
    key = ("engine", order)
    eng = spec._cache.get(key)
    if eng is None:
        eng = ExpectationEngine(spec, order)
        spec._cache[key] = eng
    return eng


def effective_curvature(spec, delta, order=None):
    """E[g/(1+g delta)], the scalar multiplying C in the resolvent equivalent."""
    return expectation_engine(spec, order).e1(delta)


def effective_curvature_sq(spec, delta, order=None):
    """E[g^2/(1+g delta)^2], the weight appearing in all z-derivatives."""
    return expectation_engine(spec, order).e2(delta)


def curvature_moments(spec, z, delta, order=None):
    """The 3x3 moment matrix coupling the curvature to (h*, h)."""
    return expectation_engine(spec, order).moments(z, delta)
