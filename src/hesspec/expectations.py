"""Population expectations over (h*, h, y) via Gauss-Hermite quadrature.

Everything the asymptotic solvers need is an average of a function of
the curvature g = g(y, h) and of the 2-vector s = (h* - w*^T mu,
h - w^T mu).  The pair (h*, h) is exactly Gaussian with the law given
by the feature spec, and y is marginalized over the atoms of its law
(models.response_atoms): the two labels of the logistic model, link(h*)
for a noiseless link model, and an inner Gauss-Hermite rule for the
noise of a link model with sigma > 0.

The Gaussian integral runs on a tensor grid in whitened coordinates.
Every set of nodes with one g value is folded into a single node that
carries their summed weight and weighted u-columns.  That regroups the
sums exactly, because g is the only node value the delta-dependent
factor g/(1 + g delta) reads.  When g reads one projection besides y (h
for a loss curvature, h* for a preprocessing map) the whitening is a
Cholesky factor ordered on that projection, so it reads the first
coordinate only: the logistic loss keeps one node per first coordinate,
the square loss one node in all.  The phase_square curvature 3h^2 - y
reads both projections and keeps the eigenfactor of the 2x2 covariance;
its grid folds only where nodes share g, as the mirrored nodes of a
mean-zero law do.  Rank-deficient laws (w parallel to w*, or zero
vectors) drop to 1-D or 0-D grids automatically.

After the fold, every node whose weight is below _WEIGHT_CUT times the
largest weight is dropped: tensor products of Gauss-Hermite weights reach
far below what can change a double, so fig1cd keeps 1,926 of its 4,608
folded nodes.  The omitted weight W is at most _WEIGHT_CUT times the
largest weight times the number of dropped nodes (9e-31 for fig1cd,
6e-30 for a noisy factor's 294,912-node grid).  Each omitted term of e1
is w f with f = g/(1 + g delta), and |f| <= 1/|Im delta| for complex
delta, so the omitted part of e1 is at most W/|Im delta| and that of E2
at most W/|Im delta|^2; a moment column's term carries one more factor,
at most quadratic in the node.  On the admissible real arc f is finite
at every node and grows at most polynomially in it (3h^2 - y, or
g/(1 - g) near a trimmed bound), or as e^|h| for the exponential loss at
delta = 0: far slower than the Gaussian weight falls.

Before the fold, the (y-atom, node) pairs lighter than _PAIR_CUT times
_WEIGHT_CUT times the heaviest pair over the pair count are dropped.
Together they weigh eps^2 times less than the cut of the heaviest folded
node, so the cut drops every folded node that they alone make up, and a
kept node moves only where a column's sum cancels by more than 1/eps:
the kept nodes of the preset specs and of a noisy factor at orders
48-200 are bit-identical to a build without this cut.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PoleError
from .models import curvature, response_atoms

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
_DOT_NODES = 10_000      # nodes per block of a sum; see _sums
_WEIGHT_CUT = 1e-30      # folded nodes lighter than this x the heaviest go
# (y-atom, node) pairs lighter than this x _WEIGHT_CUT x the heaviest pair
# over the pair count go before the fold; see the module docstring
_PAIR_CUT = np.finfo(float).eps ** 2


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


def _reads(weight):
    """The projection g reads besides y: 1 (h) for a loss curvature, 0
    (h*) for a preprocessing map, None for the phase_square curvature
    3h^2 - y, which reads h and, through y, h*."""
    if weight.kind == "preprocess":
        return 0
    return None if weight.loss == "phase_square" else 1


def _factor(cov, axis):
    """A 2 x r factor F with F F^T = cov, r its rank: the count of
    eigenvalues (or pivots) above 1e-14 max(largest eigenvalue, 1).

    With axis None, F is the eigenfactor.  Otherwise it is the Cholesky
    factor ordered on projection `axis`: row `axis` is zero past the
    first column, so that projection reads the first coordinate only.
    """
    vals, vecs = np.linalg.eigh(cov)
    tol = 1e-14 * max(np.max(vals), 1.0)
    if axis is None:
        keep = vals > tol
        return vecs[:, keep] * np.sqrt(vals[keep])
    cols = []
    if cov[axis, axis] > tol:
        cols.append(cov[:, axis] / np.sqrt(cov[axis, axis]))
        cov = cov - np.outer(cols[0], cols[0])
    other = 1 - axis
    if cov[other, other] > tol:
        cols.append(np.sqrt(cov[other, other]) * np.eye(2)[other])
    return np.reshape(np.transpose(cols), (2, len(cols)))


class ExpectationEngine:
    """Precomputed node set (g_k, weight_k, weighted u-columns) for one
    problem spec, from the Gauss-Hermite rule of order spec.quad_order.

    Construction whitens the projection law, marginalizes y on the
    (y-atom, node) pairs the pair cut keeps, folds the nodes that share
    a g value once and drops the nodes lighter than _WEIGHT_CUT times
    the heaviest, within the bounds of the module docstring; each
    expectation afterwards is one dot product per delta (and per block
    of _DOT_NODES nodes) of the (delta, node) values with the node
    weights, over one delta or a batch of them, which keeps the Newton
    iterations cheap.
    g and wt are the kept law of g, on its unique values in ascending order.
    """

    def __init__(self, spec):
        self.spec = spec
        self.order = order = spec.quad_order
        law = spec.projection_law()
        axis = _reads(spec.weight)
        factor = _factor(law.cov, axis)
        rank = factor.shape[1]
        grid = QuadratureGrid.gauss_hermite(order).normalized()
        xi = np.reshape(np.meshgrid(*[grid.nodes] * rank, indexing="ij"),
                        (rank, order ** rank))
        wts = np.prod(np.meshgrid(*[grid.weights] * rank, indexing="ij"),
                      axis=0).ravel()
        h_star, h = law.mean[:, None] + factor @ xi

        # y's law as k atoms at each node; the node set is y-major
        noise = (QuadratureGrid.gauss_hermite(_INNER_NOISE_ORDER).normalized()
                 if spec.model.sigma > 0 else None)
        ys, yw = response_atoms(spec.model, h_star, noise)
        wts = wts * yw
        floor = _PAIR_CUT * _WEIGHT_CUT * wts.max() / wts.size
        atom, at = np.nonzero(wts >= floor)
        y, wts, h_star, h = ys[atom, at], wts[atom, at], h_star[at], h[at]

        g = np.asarray(curvature(spec.weight, y, h), dtype=float)
        u0, u1 = spec.gram_U_pinv @ (np.vstack([h_star, h])
                                     - law.mean[:, None])
        # the weighted node columns whose sums fill the moment matrix
        cols = wts * np.array([np.ones_like(u0), u0, u1, u0 * u0, u0 * u1,
                               u1 * u1])
        g, node = np.unique(g, return_inverse=True)
        cols = np.array([np.bincount(node, c, len(g)) for c in cols])
        keep = cols[0] >= _WEIGHT_CUT * cols[0].max()
        # np.compress keeps the rows C-contiguous for the row dots; a mask
        # index on axis 1 would not
        g, cols = g[keep], np.compress(keep, cols, axis=1)
        self.g = g
        self.wt = cols[0]
        # the node columns in each dtype the sums run in, so no call casts
        self._cols = {np.dtype(float): cols,
                      np.dtype(complex): cols.astype(complex)}

    def _damped(self, deltas, nodes):
        """g / (1 + g delta) at a 1-D array of deltas, one row each, over
        the nodes in the slice `nodes`.

        |1 + g delta| <= 1e-12 is a pole.  It needs |Im(g delta)| <= 1e-12
        and |g delta| >= 1 - 1e-12, so |Im delta| <= 2e-12 |delta|: only
        such rows are searched for one, which spares the complex rows of
        a Stieltjes solve the node-by-node test.
        """
        g = self.g[nodes]
        f = np.multiply.outer(deltas, g)
        f += 1.0
        near = np.abs(deltas.imag) <= 2e-12 * np.abs(deltas)
        if near.any():
            bad = np.nonzero(np.abs(f[near]) <= 1e-12)[1]
            if len(bad):
                raise PoleError(
                    f"1 + g*delta vanished at a quadrature node "
                    f"(g={g[bad[0]]:.6g})", node=g[bad[0]])
        return np.divide(g, f, out=f)

    def e1(self, delta):
        """E[g / (1 + g delta)]."""
        return self.e1_e2(delta)[0]

    def e1_e2(self, delta):
        """(e1, e2) at one delta, or arrays of them at each of a 1-D
        array of deltas (in chunks that stay within _SWEEP_BYTES, as in
        sweep)."""
        e1, e2, _ = self._sums(np.atleast_1d(delta))
        return (e1[0], e2[0]) if np.ndim(delta) == 0 else (e1, e2)

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
        e1, e2, raw = self._sums(deltas, True, square)
        moments = np.empty((len(raw), 3, 3), raw.dtype)
        moments[:, 0, 0] = raw[:, 0]
        moments[:, 0, 1:] = raw[:, 1:3]
        moments[:, 1:, 0] = raw[:, 1:3]
        moments[:, 1:, 1:] = (raw[:, [[3, 4], [4, 5]]]
                              - raw[:, 0, None, None] * self.spec.gram_U_pinv)
        return e1, e2, moments

    def _sums(self, deltas, moments=False, square=False):
        """e1 = f @ wt, e2 = f^2 @ wt and, with moments, the sums of the
        node columns weighed by f = g/(1+g delta) (f^2 with square=True),
        at a 1-D array of deltas; the sums are None without moments.  The
        (delta, node) intermediates are built in blocks of at most
        _DOT_NODES nodes that together stay within _SWEEP_BYTES, and the
        sums of the node blocks are added in order.

        e1 and e2 are taken row by row (np.vecdot), one BLAS dot per row
        and node block.  OpenBLAS runs a gemv over a batch of rows, or a
        dot over more than 10^4 nodes, on several threads, which then spin
        for ~0.1 s and slow the Monte Carlo trials that follow.
        """
        deltas = np.asarray(deltas)
        dtype = np.result_type(deltas, float)
        cols = self._cols[dtype]
        k, n = len(deltas), len(self.g)
        e1, e2 = np.zeros(k, dtype), np.zeros(k, dtype)
        raw = np.zeros((k, len(cols)), dtype) if moments else None
        width = min(n, _DOT_NODES)
        rows = max(1, _SWEEP_BYTES // (2 * dtype.itemsize * width))
        for start in range(0, k, rows):
            part = slice(start, start + rows)
            for j in range(0, n, width):
                nodes = slice(j, j + width)
                block = cols[:, nodes]
                f = self._damped(deltas[part], nodes)
                e1[part] += np.vecdot(block[0], f)
                if moments and not square:
                    raw[part] += f @ block.T
                f *= f
                e2[part] += np.vecdot(block[0], f)
                if moments and square:
                    raw[part] += f @ block.T
        return e1, e2, raw


def expectation_engine(spec):
    """The engine of the spec, at its quad_order, built once per spec."""
    eng = spec._cache.get("engine")
    if eng is None:
        eng = spec._cache["engine"] = ExpectationEngine(spec)
    return eng


def effective_curvature(spec, delta):
    """E[g/(1+g delta)], the scalar multiplying C in the resolvent equivalent."""
    return expectation_engine(spec).e1(delta)


def effective_curvature_sq(spec, delta):
    """E[g^2/(1+g delta)^2], the weight appearing in all z-derivatives."""
    return expectation_engine(spec).e1_e2(delta)[1]


def curvature_moments(spec, z, delta):
    """The 3x3 moment matrix coupling the curvature to (h*, h)."""
    return expectation_engine(spec).moments(z, delta)
