"""The theory pipeline, the parameter sweep and the named experiment presets.

analyze() runs the chain the theory defines -- the exact support, the
spikes and the density on a scan window, each on first use -- and its
Analysis turns the result into the report dict that every document
carries, optionally with a Monte Carlo comparison.  sweep() tabulates
the first spike along a parameter path.  The CLI and the presets both
go through these two functions.

Each preset pins a full setting (p, n, vectors, covariance, model,
weight) in a plain config dict that round-trips through the standard
config parser.  One row of a table says what it writes into an output
directory (report documents, pooled trial tables, a sweep table), and
run_preset reads that row, knowing no preset by name.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .bulk import default_scan_range, density, support
from .config import _integer, build_spec, spec_echo
from .empirical import _pool, _spike_picks, compare, run_trials
from .errors import ConfigError
from .features import ProblemSpec
from .report import emit_document, emit_table
from .spikes import find_spikes

__all__ = ["Analysis", "analyze", "sweep", "PRESETS", "preset_config",
           "run_preset"]


def pm_block(norm):
    """The config pattern of the +-1 block vector of Euclidean norm `norm`."""
    return "pm_block(%.17g)" % norm


def _base(p, n, **kw):
    cfg = {"p": p, "n": n, "seed": 1234}
    cfg.update(kw)
    return cfg


# Reference settings; vectors are patterns resolved from the preset seed.
PRESETS = {
    # one covariance bulk, all three signal vectors random of unit norm
    "fig1a": _base(800, 6000, mu="gaussian_norm(1.0)", w_star="mu", w="mu",
                   model="logistic", loss="logistic"),
    # evaluation vector independent of the teacher/mean direction
    "fig1b": _base(800, 6000, mu="gaussian_norm(1.0)", w_star="mu",
                   w="gaussian_norm(1.0)", model="logistic", loss="logistic"),
    # phase retrieval Hessian with a strong teacher
    "fig1cd": _base(800, 6000, w_star="pm_block(2.0)", w="gaussian_norm(1.0)",
                    model="phase_retrieval", loss="phase_square"),
    # logistic vs exponential loss on the same data (run emits both)
    "fig2": _base(800, 6000, w="pm_block(1.0)", model="logistic",
                  loss="logistic"),
    # single- vs multi-bulk covariance (run emits both)
    "fig3": _base(800, 6000, mu="gaussian_norm(1.0)", w="mu", model="logistic",
                  loss="logistic", cov={"diag_blocks": [[1.0, 400], [2.0, 400]]}),
    # universality: three feature laws at heavier aspect ratio
    "fig4": _base(800, 1200, mu="gaussian_norm(1.0)", w="mu", model="logistic",
                  loss="logistic"),
    # pure signal spike sweep over |mu|^2
    "fig5": _base(512, 2048, mu="pm_block(0.894427190999915878)",
                  model="logistic", loss="logistic"),
    # pure model spike sweep over |w|
    "fig6": _base(800, 8000, w="pm_block(2.01)", model="logistic",
                  loss="logistic"),
    # phase retrieval with trimming preprocessing, w = sqrt(2/3) w*
    "fig7": _base(800, 4000, w_star="pm_block(0.76)",
                  w=pm_block(0.76 * np.sqrt(2.0 / 3.0)),
                  model="phase_retrieval", weight="trim"),
}


class _Writes(NamedTuple):
    """What a preset writes, in run_preset's order."""
    docs: dict                # file stem -> config changes
    pooled: tuple = ()        # feature laws
    sweep: tuple = None       # (label, values, value -> config changes)
    trials: int = 1           # Monte Carlo trials when run_preset gets none


_WRITES = {
    **{name: _Writes({name: {}}) for name in ("fig1a", "fig1b", "fig1cd")},
    "fig2": _Writes({f"fig2_{loss}": {"loss": loss}
                     for loss in ("logistic", "exponential")}),
    "fig3": _Writes({
        f"fig3_{tag}": {"cov": {"diag_blocks": [[1.0, 400], [top, 400]]}}
        for tag, top in (("two", 2.0), ("four", 4.0))}),
    "fig4": _Writes({"fig4_theory": {}}, pooled=("gaussian", "rademacher",
                                                 "student_t:7"), trials=10),
    "fig5": _Writes({"fig5": {}}, sweep=(
        "mu_norm2", [k / 10 for k in range(1, 16)],
        lambda rho2: {"mu": pm_block(np.sqrt(rho2))}), trials=50),
    "fig6": _Writes({}, sweep=("norm", np.linspace(0.1, 8.0, 30),
                               lambda v: {"w": pm_block(v)}), trials=50),
    "fig7": _Writes({}, sweep=("norm", np.linspace(0.1, 2.0, 30), lambda v: {
        "w_star": pm_block(v), "w": pm_block(v * np.sqrt(2.0 / 3.0))}),
        trials=50),
}


def preset_config(name):
    try:
        return dict(PRESETS[name])
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; have {sorted(PRESETS)}")


@dataclass(frozen=True, eq=False)
class Analysis:
    """One theory run: its exact support, spikes and density curve, each
    on first use; only the curve reads scan_range (None: automatic)."""

    spec: ProblemSpec
    scan_range: tuple = None
    grid: int = 400

    @cached_property
    def curve(self):
        lo, hi = (default_scan_range(self.spec) if self.scan_range is None
                  else self.scan_range)
        return density(self.spec, np.linspace(lo, hi, self.grid))

    @cached_property
    def support(self):
        # the module-level support(), not this property, on the whole line
        return support(self.spec, (-np.inf, np.inf))

    @cached_property
    def spikes(self):
        return find_spikes(self.spec, self.support)

    def results(self):
        """The report dict: the exact support, an unbounded end as null, then
        per spike its location, side, gap, cos2 and det G residual."""
        sup = self.support
        return {
            "support": {"intervals": [[None if np.isinf(v) else v for v in iv]
                                      for iv in sup.intervals],
                        "bulk_count": sup.bulk_count, "bounded": sup.bounded},
            "spikes": [{"lambda": s.location, "side": s.side, "gap": s.gap,
                        "cos2": s.cos2(self.spec.V),
                        "det_residual": s.det_residual} for s in self.spikes],
        }

    def monte_carlo(self, trials, seed, dist="gaussian"):
        """results() plus a 'comparison' entry, compare()'s report of
        `trials` finite-size trials seeded seed, seed+1, ... (every field
        but the seeds) and the feature law `dist`; returns (results, seeds)."""
        trials = _integer(trials, "trials")
        if trials < 1:
            raise ConfigError(f"Monte Carlo needs trials >= 1, got {trials}")
        rep = compare(self.spec, self.curve, self.spikes, trials,
                      base_seed=seed, dist=dist)
        results, comparison = self.results(), dict(vars(rep), dist=dist)
        seeds = comparison.pop("seeds")
        results["comparison"] = comparison
        return results, seeds


def analyze(spec, scan_range=None, grid=400):
    """The Analysis of spec: its exact support, spikes and density on
    `grid` points of scan_range (default: the automatic window), each on
    first use and on the Gauss-Hermite rule of order spec.quad_order.  A
    window needs finite ends lo < hi, checked here with the grid."""
    if grid < 2:
        raise ConfigError(f"grid needs at least 2 points, got {grid}")
    if scan_range is not None and not (np.isfinite(scan_range).all()
                                       and scan_range[0] < scan_range[1]):
        raise ConfigError(f"the window needs finite ends lo < hi, got "
                          f"{scan_range!r}")
    return Analysis(spec, scan_range, grid)


def sweep(cfg, values, rescale, path, label, trials=0):
    """Tabulate the first spike of rescale(cfg, v) for each v in values.

    Rows are [v, lambda, gap, alignment], read from the Analysis's first
    spike with alignment its largest cos2 (NaN, 0, 0 when there is no
    spike); with trials, the mean empirical eigenvalue and cos2 that
    compare() pairs with that spike follow.  No row depends on a scan
    window.  The table goes to path, or to stdout when path is None.  The
    quadrature order is cfg's quad_order, read when each value's spec is
    built.

    trials is a whole number >= 0, checked before anything is built.
    Every value's spec and Analysis are built first.  Then all (value,
    seed) trials run in one pool (empirical._pool), seed-major: every
    value of a seed before the next seed.  The calling thread solves the
    values' theory in order as it queues their trials, while the pool's
    helpers run the trials already queued.  The trials of one seed at
    consecutive values of one feature law (p, n, C, Gaussian noise) share
    one draw of its centred features, made by the first of them and freed
    after the last (an empirical._Run); each value adds its own mu to
    them, so the table is bit-identical to drawing afresh at every value
    with SciPy's OpenBLAS at the pool's thread count, and a value with
    mu = 0 reads them in place (see empirical._gram).  A value whose law
    differs from the value before draws anew.  compare() then scores each
    value's trials.
    """
    trials = _integer(trials, "trials")
    if trials < 0:
        raise ConfigError(f"a sweep cannot run {trials} trials")
    built = [build_spec(rescale(dict(cfg), val)) for val in values]
    analyses = [analyze(spec) for spec, _ in built]
    if trials:
        def picks(an):
            an.curve       # compare reads it after the pool; solve it now
            return _spike_picks(an.support, an.spikes)

        spectra = _pool([(spec, "gaussian", seed + k, partial(picks, an))
                         for k in range(trials)
                         for an, (spec, seed) in zip(analyses, built)])
    rows = []
    for v, (val, an, (spec, seed)) in enumerate(zip(values, analyses, built)):
        first = an.spikes[0] if an.spikes else None
        row = ([val, first.location, first.gap, max(first.cos2(spec.V))]
               if first else [val, np.nan, 0.0, 0.0])
        if trials:
            rep = compare(spec, an.curve, an.spikes, trials, base_seed=seed,
                          spectra=spectra[v::len(values)])
            row += ([rep.spike_errors[0][0], rep.alignment_errors[0][0]]
                    if first else [np.nan, np.nan])
        rows.append(row)
    header = [label, "lambda", "gap", "alignment"]
    if trials:
        header += ["empirical_lambda", "empirical_alignment"]
    return emit_table(path, header, rows)


def _write_theory(out, stem, spec, seed, trials):
    """Density table and report document of one preset setting."""
    an = analyze(spec)
    files = [emit_table(os.path.join(out, f"{stem}_density.csv"),
                        ["x", "density"],
                        zip(an.curve.grid, np.nan_to_num(an.curve.density)))]
    results, seeds = an.monte_carlo(trials, seed) if trials else (
        an.results(), [])
    files.append(emit_document(os.path.join(out, f"{stem}_report.json"),
                               spec_echo(spec, seed), results, seeds))
    return files


def run_preset(name, out, trials=None, order=None):
    """Run one preset at quad_order `order` (default 96); returns its files.

    Its _WRITES row says what: a density table and report per document,
    a table per feature law of the eigenvalues pooled over `trials` trials
    (a whole number, default the row's), then a sweep table at `trials`
    per value; the documents run them only when neither of those does.
    A bad `trials` or config leaves no directory.
    """
    cfg = preset_config(name)
    row = _WRITES[name]
    if order is not None:
        cfg["quad_order"] = order
    trials = row.trials if trials is None else _integer(trials, "trials")
    if trials < (1 if row.pooled else 0):
        raise ConfigError(f"preset {name} cannot run {trials} trials")
    spec, seed = build_spec(cfg)     # a config error leaves no directory
    os.makedirs(out, exist_ok=True)
    files = []
    doc_trials = 0 if row.pooled or row.sweep else trials
    for stem, change in row.docs.items():
        built = build_spec(dict(cfg, **change)) if change else (spec, seed)
        files += _write_theory(out, stem, *built, doc_trials)
    for dist in row.pooled:
        pooled = np.concatenate([s.eigenvalues for s in run_trials(
            spec, dist, [seed + k for k in range(trials)])])
        files.append(emit_table(
            os.path.join(out, f"{name}_{dist.replace(':', '')}.csv"),
            ["eigenvalue"], [[v] for v in pooled]))
    if row.sweep:
        label, values, vectors = row.sweep
        files.append(sweep(cfg, values, lambda c, v: {**c, **vectors(v)},
                           os.path.join(out, f"{name}_sweep.csv"), label,
                           trials))
    return files
