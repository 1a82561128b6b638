"""Configuration parsing: JSON spec files and named vector patterns.

A config is a JSON object with keys
    p, n, mu, cov, w_star, w, model, loss | weight, seed, quad_order,
quad_order being the theory's Gauss-Hermite order (default 96).
Vectors are literal lists or named patterns:
    "zeros"             -- the zero vector,
    "pm_block(r)"       -- [-1...,+1...]/sqrt(p) scaled to norm r,
    "gaussian_norm(r)"  -- a seed-deterministic Gaussian direction of norm r,
    "mu"                -- alias for the resolved mean vector.
cov is a number (a scale), a list (a diagonal), or a dict holding one
of "scale", "diag", "diag_blocks" ([[value, count], ...]), "matrix".
model is "logistic", "phase_retrieval", or a dict with "kind" and only
that kind's keys: "link" ("identity" or "tanh") and "sigma" for
"noisy_factor", "activation" ("tanh" or "identity") for
"single_layer_nn".
Patterns resolve deterministically from the seed through per-field
counter-based streams, so a config file pins the exact spec.
"""
from __future__ import annotations

import json
import re

import numpy as np

from .errors import ConfigError
from .expectations import DEFAULT_QUAD_ORDER
from .features import DenseSPD, Diagonal, ProblemSpec, ScaledIdentity
from .models import ResponseModel, WeightFn

__all__ = ["load_config", "build_spec", "spec_echo", "resolve_vector"]

_VALID_KEYS = ("p", "n", "mu", "cov", "w_star", "w", "model", "loss",
               "weight", "seed", "quad_order")
_FIELD_STREAMS = {"mu": 1, "w_star": 2, "w": 3}
_LINKS = {"identity": lambda t: t, "tanh": np.tanh}
_MODEL_KEYS = {"noisy_factor": {"kind", "link", "sigma"},
               "single_layer_nn": {"kind", "activation"}}
# each link model's config key for its link, and the default link name
_LINK_KEYS = {"noisy_factor": ("link", "identity"),
              "single_layer_nn": ("activation", "tanh")}


def load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(cfg) - set(_VALID_KEYS))
    if unknown:
        raise ConfigError(
            f"unknown config keys {unknown}; valid keys: {list(_VALID_KEYS)}")
    return cfg


def _field_rng(seed, name):
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence((int(seed), _FIELD_STREAMS[name]))))


def resolve_vector(entry, p, seed, name, mu=None):
    """Resolve a vector config entry (list or named pattern) to length p."""
    if isinstance(entry, (list, tuple)):
        v = _reals(entry, name)
        if v.shape != (p,):
            raise ConfigError(f"{name} literal must have length p={p}")
        return v
    if not isinstance(entry, str):
        raise ConfigError(f"{name} must be a list or a pattern string")
    if entry == "zeros":
        return np.zeros(p)
    if entry == "mu":
        if mu is None:
            raise ConfigError(f"{name}: 'mu' alias needs mu resolved first")
        return mu.copy()
    m = re.fullmatch(r"pm_block\(([^)]+)\)", entry)
    if m:
        if p % 2:
            raise ConfigError("pm_block requires even p")
        base = np.concatenate([-np.ones(p // 2), np.ones(p // 2)]) / np.sqrt(p)
        return base * float(m.group(1))
    m = re.fullmatch(r"gaussian_norm\(([^)]+)\)", entry)
    if m:
        v = _field_rng(seed, name).standard_normal(p)
        return v / np.linalg.norm(v) * float(m.group(1))
    raise ConfigError(f"{name}: unknown vector pattern {entry!r}")


def _resolve_cov(entry, p):
    if entry is None:
        return ScaledIdentity(1.0)
    if isinstance(entry, (int, float)):
        return ScaledIdentity(_real(entry, "cov"))
    if isinstance(entry, (list, tuple)):
        return Diagonal(_reals(entry, "cov"))
    if isinstance(entry, dict) and len(entry) == 1:
        (form, value), = entry.items()
        if form == "scale":
            return ScaledIdentity(_real(value, "cov scale"))
        if form == "diag":
            return Diagonal(_reals(value, "cov diag"))
        if form == "matrix":
            return DenseSPD(_reals(value, "cov matrix", ndim=2))
        if form == "diag_blocks":
            d = np.concatenate([np.full(_integer(count, "diag_blocks count"),
                                        _real(val, "diag_blocks value"))
                                for val, count in value])
            if len(d) != p:
                raise ConfigError("diag_blocks counts must sum to p")
            return Diagonal(d)
    raise ConfigError(f"cannot interpret covariance entry {entry!r} (a dict "
                      "holds exactly one of scale, diag, diag_blocks, matrix)")


def _resolve_model(entry):
    if entry is None or entry == "logistic":
        return ResponseModel.logistic()
    if entry == "phase_retrieval":
        return ResponseModel.phase_retrieval()
    kind = entry.get("kind") if isinstance(entry, dict) else None
    if kind not in _MODEL_KEYS:
        raise ConfigError(f"cannot interpret model entry {entry!r}")
    if set(entry) - _MODEL_KEYS[kind]:
        raise ConfigError(f"a {kind} model takes the keys "
                          f"{sorted(_MODEL_KEYS[kind])}, got {sorted(entry)}")
    key, default = _LINK_KEYS[kind]
    link = _LINKS.get(entry.get(key, default))
    if link is None:
        raise ConfigError(f"unknown {key} {entry[key]!r}")
    return ResponseModel(kind, link, _real(entry.get("sigma", 0.0), "sigma"))


def _resolve_weight(cfg, p, n):
    loss = cfg.get("loss")
    weight = cfg.get("weight")
    if loss is not None and weight is not None:
        raise ConfigError("give either 'loss' or 'weight', not both")
    if weight is None:
        return WeightFn.loss_curvature(loss or "logistic")
    if weight == "trim":
        return WeightFn.trim(p / n)
    raise ConfigError(f"unknown weight {weight!r} (expected 'trim')")


def _integer(value, name):
    """value, a whole number, not a bool, as int."""
    whole = isinstance(value, (int, np.integer)) or (
        isinstance(value, float) and value.is_integer())
    if whole and not isinstance(value, bool):
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _reals(value, name, ndim=1):
    """value, numbers nested ndim lists deep, as a float array; a bool or
    a string is a ConfigError.  The spec classes reject non-finite values
    (JSON reads NaN and Infinity as numbers)."""
    cells = np.asarray(value, dtype=object)
    real = (int, float, np.integer, np.floating)
    if cells.ndim != ndim or not all(issubclass(t, real) and t is not bool
                                     for t in set(map(type, cells.flat))):
        what = ("a number", "a list of numbers", "a list of number lists")
        raise ConfigError(f"{name} must be {what[ndim]}, not {value!r:.60}")
    return cells.astype(float)


def _real(value, name):
    return float(_reals(value, name, ndim=0))


def build_spec(cfg):
    """Resolve a parsed config dict into a ProblemSpec and its seed.

    Every rejection of the config's values (missing keys, entries that
    are not finite numbers, a fractional p or count, a bool for a
    number, an unknown loss, a binary loss without the logistic model,
    p <= 0, a seed < 0, ...) is a ConfigError.
    """
    for key in ("p", "n"):
        if key not in cfg:
            raise ConfigError(f"config missing required key {key!r}")
    p, n = _integer(cfg["p"], "p"), _integer(cfg["n"], "n")
    seed = _integer(cfg.get("seed", 0), "seed")
    order = _integer(cfg.get("quad_order", DEFAULT_QUAD_ORDER), "quad_order")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    try:
        mu = resolve_vector(cfg.get("mu", "zeros"), p, seed, "mu")
        w_star = resolve_vector(cfg.get("w_star", "zeros"), p, seed, "w_star",
                                mu=mu)
        w = resolve_vector(cfg.get("w", "zeros"), p, seed, "w", mu=mu)
        spec = ProblemSpec(p=p, n=n, mu=mu, cov=_resolve_cov(cfg.get("cov"), p),
                           w_star=w_star, w=w,
                           model=_resolve_model(cfg.get("model")),
                           weight=_resolve_weight(cfg, p, n),
                           quad_order=order)
    except ConfigError:
        raise
    except (TypeError, ValueError) as err:
        # DomainError is a ValueError: the spec classes reject the values
        raise ConfigError(f"invalid config: {err}") from err
    return spec, seed


def _cov_echo(cov):
    if isinstance(cov, ScaledIdentity):
        return {"kind": "scaled_identity", "scale": cov.scale}
    if isinstance(cov, Diagonal):
        return {"kind": "diagonal", "entries": cov.entries.tolist()}
    return {"kind": "dense_spd", "matrix": cov.matrix.tolist()}


def spec_echo(spec, seed=None):
    """Fully resolved spec (vectors expanded) for report documents."""
    model = spec.model
    weight = spec.weight
    echo_model = {"kind": model.kind, "sigma": model.sigma}
    if model.kind in _LINK_KEYS:
        # the link under its config key and name (a link built in code
        # under its __name__)
        echo_model[_LINK_KEYS[model.kind][0]] = next(
            (name for name, fn in _LINKS.items() if fn is model.link),
            getattr(model.link, "__name__", repr(model.link)))
    echo = {
        "p": spec.p,
        "n": spec.n,
        "mu": spec.mu.tolist(),
        "w_star": spec.w_star.tolist(),
        "w": spec.w.tolist(),
        "cov": _cov_echo(spec.cov),
        "model": echo_model,
        "weight": {"kind": weight.kind, "loss": weight.loss,
                   "bounds": list(weight.bounds) if weight.bounds else None},
        "quad_order": spec.quad_order,
    }
    if seed is not None:
        echo["seed"] = int(seed)
    return echo
