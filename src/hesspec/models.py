"""Response models, loss curvatures and preprocessing weights.

The empirical Hessian H = (1/n) X D X^T carries diagonal weights
D_ii = g(y_i, h_i) with h_i = w^T x_i.  For a twice-differentiable loss
the weight is the curvature g = d^2 l(y, h) / dh^2; for spectral
preprocessing it is a map f(y) that ignores h and declares its range.
Both go through :class:`WeightFn`, the "modified matrix" of spectral
initialization included, and classify_g_support reads g's exact range.
"""
from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class ResponseModel:
    """Conditional law of the response y given the teacher projection h*.

    kind is one of "logistic", "phase_retrieval", "noisy_factor",
    "single_layer_nn".  The factor model needs a scalar ``link`` and a
    noise level ``sigma``; the single-layer network needs ``activation``.
    """

    kind: str
    link: Optional[Callable] = None
    sigma: float = 0.0
    activation: Optional[Callable] = None

    def __post_init__(self):
        if self.kind not in ("logistic", "phase_retrieval", "noisy_factor",
                             "single_layer_nn"):
            raise DomainError(f"unknown response model kind: {self.kind!r}")
        if self.kind == "noisy_factor":
            if self.link is None:
                raise DomainError("noisy_factor requires a link function")
            if self.sigma < 0:
                raise DomainError("noise std must be nonnegative")
        if self.kind == "single_layer_nn" and self.activation is None:
            raise DomainError("single_layer_nn requires an activation")

    @staticmethod
    def logistic():
        return ResponseModel("logistic")

    @staticmethod
    def phase_retrieval():
        return ResponseModel("phase_retrieval")

    @staticmethod
    def noisy_factor(link=None, sigma=0.0):
        return ResponseModel("noisy_factor", link=link or (lambda t: t),
                             sigma=sigma)

    @staticmethod
    def single_layer_nn(activation=np.tanh):
        return ResponseModel("single_layer_nn", activation=activation)


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
    def preprocess(map, bounds=None):
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


def sample_response(model, h_star, rng):
    """Draw y ~ f(y | h*) for each entry of h_star."""
    h_star = np.asarray(h_star, dtype=float)
    if not np.all(np.isfinite(h_star)):
        raise DomainError("non-finite h_star")
    if model.kind == "logistic":
        prob = 1.0 / (1.0 + np.exp(-h_star))
        y = np.where(rng.random(h_star.shape) < prob, 1.0, -1.0)
    elif model.kind == "phase_retrieval":
        y = h_star ** 2
    elif model.kind == "noisy_factor":
        y = np.asarray(model.link(h_star), dtype=float)
        if model.sigma > 0:
            y = y + model.sigma * rng.standard_normal(h_star.shape)
    else:  # single_layer_nn
        y = np.asarray(model.activation(h_star), dtype=float)
    y = np.asarray(y)
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
    """The range of the weight law g under the spec's projections.

    Exact for every weight: a preprocessing map's declared bounds, and
    closed forms for the built-in losses.  A law unbounded on one side
    still reports the bound of its other side (the exponential loss:
    lower_bound 0, upper_bound None).
    """
    w = spec.weight
    if w.kind == "preprocess":
        lo, hi = (None if b is None else float(b) for b in w.bounds)
        return GSupportClass(lo, hi)
    law = spec.projection_law()
    var_h = law.cov[1, 1]
    var_hs = law.cov[0, 0]
    loss = w.loss
    if loss == "logistic":
        if var_h > 0:
            return GSupportClass(0.0, 0.25)
        q = np.exp(-abs(law.mean[1]))
        g0 = float(q / (1.0 + q) ** 2)
        return GSupportClass(g0, g0)
    if loss == "square":
        return GSupportClass(1.0, 1.0)
    if loss == "exponential":
        if var_h > 0:
            return GSupportClass(0.0, None)   # log-normal e^{-yh}
        mh = law.mean[1]
        vals = (np.exp(-mh), np.exp(mh))
        return GSupportClass(float(min(vals)), float(max(vals)))
    # phase_square: g = 3h^2 - y
    if var_h > 0 or var_hs > 0:
        return GSupportClass(None, None)
    h0 = law.mean[1]
    y0 = sample_response(spec.model, law.mean[0],
                         np.random.Generator(np.random.Philox(0)))
    g0 = float(3.0 * h0 ** 2 - np.asarray(y0))
    return GSupportClass(g0, g0)
