"""Feature statistics (mu, C), parameter vectors and derived geometry.

A :class:`ProblemSpec` bundles everything the asymptotic theory needs:
the Gaussian feature law N(mu, C), the teacher/evaluation vectors
(w_star, w), the response model and the diagonal weight.  Derived
objects -- the spectral measure of C, the 2-D law of (h*, h), the
signal matrix V = [mu, C w*, C w] and the Gram pseudo-inverse
(U^T U)^+ -- are cached on the spec and shared read-only.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _openblas
from .errors import DomainError
from .expectations import DEFAULT_QUAD_ORDER

__all__ = [
    "ScaledIdentity",
    "Diagonal",
    "DenseSPD",
    "ProblemSpec",
    "ProjectionLaw",
    "cov_spectrum",
    "projection_law",
    "pinv2",
    "sample_features",
    "check_dist",
]

_NOISE_BLOCK_BYTES = 1 << 20    # Rademacher signs converted per row block


class _Covariance:
    """A covariance C known through eigen(p): its eigenvalues and an
    orthonormal eigenbasis, None when C is diagonal, else with a root."""

    def sqrt_apply(self, z):
        """C^{1/2} z for a length-p vector or a p x n matrix z."""
        vals, basis = self.eigen(len(z))
        root = np.sqrt(vals).reshape((-1,) + (1,) * (np.ndim(z) - 1))
        return root * z if basis is None else self.root @ z


@dataclass(frozen=True)
class ScaledIdentity(_Covariance):
    """C = s * I."""

    scale: float = 1.0

    def __post_init__(self):
        if not 0 < self.scale < np.inf:
            raise DomainError("covariance scale must be positive and finite")

    def apply(self, v):
        return self.scale * np.asarray(v, dtype=float)

    def eigen(self, p):
        return np.full(p, float(self.scale)), None


@dataclass(frozen=True, eq=False)
class Diagonal(_Covariance):
    """C = diag(entries)."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 1 or not np.all((e > 0) & (e < np.inf)):
            raise DomainError("diagonal covariance entries must be finite, > 0")
        object.__setattr__(self, "entries", e)

    def apply(self, v):
        return self.entries * np.asarray(v, dtype=float)

    def eigen(self, p):
        if len(self.entries) != p:
            raise DomainError("diagonal length does not match p")
        return self.entries, None


@dataclass(frozen=True, eq=False)
class DenseSPD(_Covariance):
    """Full symmetric positive-definite covariance."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError("covariance matrix must be square")
        if not np.allclose(m, m.T, atol=1e-10):
            raise DomainError("covariance matrix must be symmetric")
        object.__setattr__(self, "matrix", 0.5 * (m + m.T))

    def apply(self, v):
        return self.matrix @ np.asarray(v, dtype=float)

    @cached_property
    def _eig(self):
        vals, vecs = np.linalg.eigh(self.matrix)
        if not np.all(vals > 0):    # NaN too, as from a non-finite matrix
            raise DomainError(
                "covariance matrix must be finite and positive definite")
        return vals, vecs

    def eigen(self, p):
        if self.matrix.shape[0] != p:
            raise DomainError("covariance size does not match p")
        return self._eig

    @cached_property
    def root(self):
        """C^{1/2} = B diag(sqrt(vals)) B^T, read by sqrt_apply and draws."""
        vals, vecs = self._eig
        return (vecs * np.sqrt(vals)) @ vecs.T


@dataclass(frozen=True, eq=False)
class ProjectionLaw:
    """Exact 2-D Gaussian law of (h*, h) = (w*^T x, w^T x)."""

    mean: np.ndarray
    cov: np.ndarray


def _group(vals):
    """Group eigenvalues into ascending atoms.

    Sorted ascending, a value starts a new atom when it exceeds the first
    value of the current atom by more than 1e-9 * max(largest, 1).  An
    atom of exactly equal values keeps that value (a mean can be off by
    an ulp); any other takes their mean.  Returns (values, weights
    summing to 1, the eigenvalue indices of each atom).
    """
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    tol = 1e-9 * max(vals[-1], 1.0)
    starts = [0]
    for i in range(1, len(vals)):
        if vals[i] - vals[starts[-1]] > tol:
            starts.append(i)
    atoms = [v[0] if v[0] == v[-1] else v.mean()
             for v in np.split(vals, starts[1:])]
    counts = np.diff(starts + [len(vals)])
    return np.array(atoms), counts / len(vals), np.split(order, starts[1:])


def cov_spectrum(cov, p):
    """Atoms (values, weights) of the spectral measure of C; weights sum to 1."""
    return _group(cov.eigen(p)[0])[:2]


def pinv2(gram):
    """Moore-Penrose pseudoinverse of a small symmetric PSD matrix.

    Eigenvalues below 1e-10 times the largest are treated as exact zeros.
    """
    gram = np.asarray(gram, dtype=float)
    vals, vecs = np.linalg.eigh(0.5 * (gram + gram.T))
    tol = 1e-10 * max(vals.max(initial=0.0), 0.0)
    inv = np.where(vals > tol, 1.0 / np.where(vals > tol, vals, 1.0), 0.0)
    return (vecs * inv) @ vecs.T


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Complete input to both the asymptotic theory and the simulation."""

    p: int
    n: int
    mu: np.ndarray
    cov: object
    w_star: np.ndarray
    w: np.ndarray
    model: object
    weight: object
    quad_order: int = DEFAULT_QUAD_ORDER    # the theory's Gauss-Hermite order

    def __post_init__(self):
        if self.p <= 0 or self.n <= 0:
            raise DomainError("p and n must be positive")
        if not isinstance(self.quad_order, (int, np.integer)) or \
                self.quad_order < 1:
            raise DomainError("quad_order must be an integer >= 1")
        for name in ("mu", "w_star", "w"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (self.p,) or not np.all(np.isfinite(v)):
                raise DomainError(f"{name} must be finite, of length {self.p}")
            object.__setattr__(self, name, v)
        self.cov.eigen(self.p)    # rejects a wrong size or a non-SPD matrix
        if self.weight.loss in ("logistic", "exponential") and \
                self.model.kind != "logistic":
            raise DomainError(
                f"the {self.weight.loss} loss needs labels in {{-1, +1}}, "
                f"which only the logistic model draws, not {self.model.kind}")

    @property
    def c(self):
        return self.p / self.n

    @cached_property
    def V(self):
        """Signal matrix [mu, C w*, C w], p x 3."""
        return np.column_stack([self.mu, self.cov.apply(self.w_star),
                                self.cov.apply(self.w)])

    @cached_property
    def active_columns(self):
        """The columns of V that G keeps: norm > 1e-12 max(norms, 1)."""
        norms = np.linalg.norm(self.V, axis=0)
        return np.flatnonzero(norms > 1e-12 * max(norms.max(), 1.0))

    @cached_property
    def gram_U(self):
        """U^T U for U = C^{1/2} [w*, w]."""
        cw_star = self.cov.apply(self.w_star)
        cw = self.cov.apply(self.w)
        return np.array([[self.w_star @ cw_star, self.w_star @ cw],
                         [self.w @ cw_star, self.w @ cw]])

    @cached_property
    def gram_U_pinv(self):
        return pinv2(self.gram_U)

    @cached_property
    def _grouping(self):
        vals, basis = self.cov.eigen(self.p)
        return _group(vals), basis

    @property
    def atoms(self):
        """Spectral atoms (values ascending, weights) of C."""
        return self._grouping[0][:2]

    @cached_property
    def grams(self):
        """Per-atom partial Grams of V in the eigenbasis of C, stacked in
        the order of the atoms (k x 3 x 3); rows.T @ rows of one array is
        numpy's symmetric product, so each Gram is exactly symmetric."""
        (_, _, groups), basis = self._grouping
        W = self.V if basis is None else basis.T @ self.V
        return np.array([rows.T @ rows for rows in (W[ix] for ix in groups)])

    def projection_law(self):
        return projection_law(self)

    # mutable per-instance cache: the expectation engine and the exterior map
    @cached_property
    def _cache(self):
        return {}


def projection_law(spec):
    """Gaussian law of the pair (h*, h) under x ~ N(mu, C)."""
    mean = np.array([spec.w_star @ spec.mu, spec.w @ spec.mu])
    cov = 0.5 * (spec.gram_U + spec.gram_U.T)
    return ProjectionLaw(mean=mean, cov=cov)


def check_dist(dist):
    """The dof of a feature law "student_t[:dof]" (dof > 2, default 7),
    None for "gaussian" and "rademacher"; ValueError for anything else."""
    if dist in ("gaussian", "rademacher"):
        return None
    name, colon, arg = dist.partition(":")
    if name != "student_t":
        raise DomainError(f"unknown feature distribution: {dist!r}")
    dof = float(arg) if colon else 7.0
    if not 2 < dof < np.inf:
        raise DomainError(f"student_t needs dof > 2, got {dist!r}")
    return dof


def _standardized_noise(dist, shape, rng):
    """Zero-mean, unit-variance p x n noise of the law dist, built in
    its draw's buffer: Rademacher signs are converted from the int64
    draw in place, one row block of _NOISE_BLOCK_BYTES at a time."""
    dof = check_dist(dist)
    if dof is not None:
        z = rng.standard_t(dof, size=shape)
        z *= np.sqrt((dof - 2.0) / dof)
        return z
    if dist == "gaussian":
        return rng.standard_normal(shape)
    bits = rng.integers(0, 2, size=shape, dtype=np.int64)
    z = bits.view(float)
    rows = max(1, _NOISE_BLOCK_BYTES // (8 * shape[1]))
    for start in range(0, shape[0], rows):
        block = slice(start, start + rows)
        z[block] = 2.0 * bits[block] - 1.0
    return z


def _centred_features(spec, dist, rng):
    """The p x n matrix with columns C^{1/2} z_i: the noise buffer, its
    rows scaled, for a diagonal C; for a dense C, a fresh buffer (two
    p x n arrays meanwhile) from one dgemm of the cached root on SciPy's
    BLAS, on the transposed views, the call numpy makes for root @ Z."""
    X = _standardized_noise(dist, (spec.p, spec.n), rng)
    vals, basis = spec.cov.eigen(spec.p)
    if basis is None:
        return np.multiply(X, np.sqrt(vals)[:, None], out=X)
    out = np.empty_like(X)
    _openblas.blas("dgemm", "N", "N", spec.n, spec.p, spec.p, 1.0, X.T,
                   spec.n, spec.cov.root.T, spec.p, 0.0, out.T, spec.n)
    return out


def sample_features(spec, dist, rng):
    """Sample the p x n feature matrix X with columns mu + C^{1/2} z_i.

    mu is added in place to C^{1/2} Z (_centred_features), with the
    values of mu + cov.sqrt_apply(z), so a trial holds one p x n array
    (two while a dense C is applied).
    """
    X = _centred_features(spec, dist, rng)
    X += spec.mu[:, None]
    return X
