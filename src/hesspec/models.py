"""Response models, loss curvatures and preprocessing weights.

A response model is the law of y given the teacher projection h*:
labels y = +-1 with P(y = 1) = 1/(1 + e^{-h*}), or y = link(h*) +
sigma xi with xi ~ N(0, 1).  response_atoms gives it as atoms, which
the expectation engine and classify_g_support read.

The empirical Hessian H = (1/n) X D X^T carries diagonal weights
D_ii = g(y_i, h_i) with h_i = w^T x_i.  For a twice-differentiable loss
the weight is the curvature g = d^2 l(y, h) / dh^2; for spectral
preprocessing it is a map f(y) that ignores h and declares its range.
Both go through :class:`WeightFn`, the "modified matrix" of spectral
initialization included, and classify_g_support reads g's exact range.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import DomainError

__all__ = [
    "ResponseModel",
    "WeightFn",
    "GSupportClass",
    "curvature",
    "loss_value",
    "sample_response",
    "preprocess_trim",
    "classify_g_support",
]

_LOSSES = ("logistic", "exponential", "square", "phase_square")
# the range of each loss curvature when a projection it reads is Gaussian
_GAUSSIAN_RANGE = {"logistic": (0.0, 0.25), "exponential": (0.0, None),
                   "square": (1.0, 1.0), "phase_square": (None, None)}


@dataclass(frozen=True)
class ResponseModel:
    """Conditional law of the response y given the teacher projection h*.

    kind is one of "logistic", "phase_retrieval", "noisy_factor",
    "single_layer_nn".  The logistic model draws labels y = +-1 with
    P(y = 1) = 1/(1 + e^{-h*}); every other kind is y = link(h*) + sigma
    xi with xi ~ N(0, 1), and needs a link.  sigma is finite and >= 0;
    the logistic model does not read it.
    """

    kind: str
    link: Optional[Callable] = None
    sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in ("logistic", "phase_retrieval", "noisy_factor",
                             "single_layer_nn"):
            raise DomainError(f"unknown response model kind: {self.kind!r}")
        if self.kind != "logistic" and self.link is None:
            raise DomainError(f"{self.kind} requires a link function")
        if not 0 <= self.sigma < np.inf:    # NaN fails too
            raise DomainError("noise std must be finite and nonnegative")

    @staticmethod
    def logistic():
        return ResponseModel("logistic")

    @staticmethod
    def phase_retrieval():
        return ResponseModel("phase_retrieval", link=np.square)

    @staticmethod
    def noisy_factor(link=None, sigma=0.0):
        return ResponseModel("noisy_factor", link=link or (lambda t: t),
                             sigma=sigma)

    @staticmethod
    def single_layer_nn(activation=np.tanh):
        return ResponseModel("single_layer_nn", link=activation)


@dataclass(frozen=True)
class WeightFn:
    """Diagonal weight g(y, h): a loss curvature or a preprocessing map.

    ``kind`` is "loss_curvature" (with ``loss`` naming one of the four
    built-in losses) or "preprocess" (with ``map`` applied to y only).
    A preprocessing map must declare its exact range as ``bounds =
    (lo, hi)`` over the responses it can see, with None marking a side
    on which it is unbounded; the support classification reads it.
    """

    kind: str
    loss: Optional[str] = None
    map: Optional[Callable] = None
    bounds: Optional[tuple] = None

    def __post_init__(self):
        if self.kind == "loss_curvature":
            if self.loss not in _LOSSES:
                raise DomainError(f"unknown loss: {self.loss!r}")
        elif self.kind == "preprocess":
            if self.map is None:
                raise DomainError("preprocess weight requires a map")
            if self.bounds is None or len(self.bounds) != 2 or (
                    None not in self.bounds and
                    not self.bounds[0] <= self.bounds[1]):
                raise DomainError("preprocess weight requires bounds (lo, hi), "
                                  f"lo <= hi or None; got {self.bounds!r}")
        else:
            raise DomainError(f"unknown weight kind: {self.kind!r}")

    @staticmethod
    def loss_curvature(loss):
        return WeightFn("loss_curvature", loss=loss)

    @staticmethod
    def preprocess(map, bounds):
        return WeightFn("preprocess", map=map, bounds=bounds)

    @staticmethod
    def trim(c):
        """Trimming map f(t) = (max(t,0) - 1)/(max(t,0) + sqrt(2/c) - 1).

        Range over t >= 0: [f(0), 1) for c < 2, (-inf, 1) at c = 2, and
        both ways unbounded for c > 2 (a pole at t = 1 - sqrt(2/c))."""
        if c <= 0:
            raise DomainError("dimension ratio c must be positive")
        shift = np.sqrt(2.0 / c) - 1.0
        bounds = ((-1.0 / shift, 1.0) if shift > 0 else
                  (None, 1.0 if shift == 0 else None))
        return WeightFn("preprocess", map=lambda t: preprocess_trim(t, c),
                        bounds=bounds)


@dataclass(frozen=True)
class GSupportClass:
    """Range [lower_bound, upper_bound] of g, None for an unbounded side."""

    lower_bound: Optional[float]
    upper_bound: Optional[float]

    @property
    def bounded(self):
        return self.lower_bound is not None and self.upper_bound is not None


def _check_labels(y):
    if not np.all(np.abs(np.abs(np.asarray(y, dtype=float)) - 1.0) < 1e-12):
        raise DomainError("binary losses require labels in {-1, +1}")


def curvature(weight, y, h):
    """Evaluate the weight g(y, h).  Vectorized over y and h."""
    y = np.asarray(y, dtype=float)
    h = np.asarray(h, dtype=float)
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(h))):
        raise DomainError("non-finite y or h")
    if weight.kind == "preprocess":
        out = np.asarray(weight.map(y), dtype=float)
        return out[()] if out.ndim == 0 else out

    loss = weight.loss
    if loss == "logistic":
        _check_labels(y)
        # e^{yh}/(1+e^{yh})^2, evaluated through e^{-|yh|} so neither
        # factor overflows for large |h|
        q = np.exp(-np.abs(y * h))
        out = q / (1.0 + q) ** 2
    elif loss == "exponential":
        _check_labels(y)
        out = np.exp(-y * h)
    elif loss == "square":
        out = np.ones(np.broadcast(y, h).shape)
    else:  # phase_square: l = (y - h^2)^2 / 4
        out = 3.0 * h ** 2 - y
    out = np.asarray(out)
    return out[()] if out.ndim == 0 else out


def loss_value(loss, y, h):
    """The loss l(y, h) itself; used to cross-check curvatures."""
    y = np.asarray(y, dtype=float)
    h = np.asarray(h, dtype=float)
    if loss == "logistic":
        return np.logaddexp(0.0, -y * h)
    if loss == "exponential":
        return np.exp(-y * h)
    if loss == "square":
        return 0.5 * (y - h) ** 2
    if loss == "phase_square":
        return 0.25 * (y - h ** 2) ** 2
    raise DomainError(f"unknown loss: {loss!r}")


def response_atoms(model, h_star, noise=None):
    """y's law at each entry of the array h_star as k atoms: (values,
    weights), each k x len(h_star), the weights summing to 1 over k.  The
    logistic model has the labels +1 and -1; a link model has link(h*)
    when sigma = 0, else link(h*) + sigma x at the nodes x of `noise`, a
    rule for N(0, 1) with attributes nodes and weights (summing to 1)."""
    h_star = np.asarray(h_star, dtype=float)
    if model.kind == "logistic":
        prob = 1.0 / (1.0 + np.exp(-h_star))
        ones = np.ones_like(h_star)
        return np.array([ones, -ones]), np.array([prob, 1.0 - prob])
    y = np.asarray(model.link(h_star), dtype=float)
    if model.sigma == 0:
        return y[None], np.ones((1, len(h_star)))
    ys = y + model.sigma * noise.nodes[:, None]
    return ys, np.broadcast_to(noise.weights[:, None], ys.shape)


def sample_response(model, h_star, rng):
    """Draw y ~ f(y | h*) for each entry of h_star; rng is read only by
    the labels and by the noise of sigma > 0."""
    h_star = np.asarray(h_star, dtype=float)
    if not np.all(np.isfinite(h_star)):
        raise DomainError("non-finite h_star")
    if model.kind == "logistic":
        prob = 1.0 / (1.0 + np.exp(-h_star))
        y = np.where(rng.random(h_star.shape) < prob, 1.0, -1.0)
    else:
        y = np.asarray(model.link(h_star), dtype=float)
        if model.sigma > 0:
            y = y + model.sigma * rng.standard_normal(h_star.shape)
    return y[()] if y.ndim == 0 else y


def preprocess_trim(t, c):
    """Trimming function (max(t,0) - 1)/(max(t,0) + sqrt(2/c) - 1)."""
    if c <= 0:
        raise DomainError("dimension ratio c must be positive")
    tp = np.maximum(np.asarray(t, dtype=float), 0.0)
    out = (tp - 1.0) / (tp + np.sqrt(2.0 / c) - 1.0)
    out = np.asarray(out)
    return out[()] if out.ndim == 0 else out


def classify_g_support(spec):
    """The exact range of the weight law g under the spec's projections.

    A preprocessing map has its declared bounds.  A loss curvature has
    the loss's range over a Gaussian input when h is Gaussian, or for
    3h^2 - y (phase_square) when y is, through h* or the noise.  Else
    h and h* are constants and g takes one value per atom of y's law
    (response_atoms).  A side that is unbounded is None; the other side
    keeps its bound (the exponential loss: lower_bound 0).
    """
    w = spec.weight
    if w.kind == "preprocess":
        lo, hi = (None if b is None else float(b) for b in w.bounds)
        return GSupportClass(lo, hi)
    law, model = spec.projection_law(), spec.model
    if law.cov[1, 1] > 0 or w.loss == "phase_square" and (
            model.sigma > 0 or law.cov[0, 0] > 0):
        return GSupportClass(*_GAUSSIAN_RANGE[w.loss])
    # no other curvature reads y's noise, so its noiseless atoms suffice
    ys, _ = response_atoms(replace(model, sigma=0.0), law.mean[:1])
    g = curvature(w, ys, law.mean[1])
    return GSupportClass(float(np.min(g)), float(np.max(g)))
