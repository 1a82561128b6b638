"""The theory pipeline, the parameter sweep and the named experiment presets.

analyze() runs the chain the theory defines -- scan window, then the
density, support and spikes on first use -- and its Analysis turns the
result into the report dict that every document carries, optionally
with a Monte Carlo comparison.  sweep() tabulates the first spike along
a parameter path.  The CLI and the presets both go through these two
functions.

Each preset pins a full setting (p, n, vectors, covariance, model,
weight) and writes density tables, spike/sweep tables and comparison
documents into an output directory.  Presets are plain config dicts
plus a driver, so every one of them round-trips through the standard
config parser.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._version import __version__ as _version
from .bulk import default_scan_range, density, support
from .config import build_spec, spec_echo
from .empirical import compare, run_trial
from .errors import ConfigError
from .features import ProblemSpec
from .report import emit_document, emit_table
from .spikes import find_spikes

__all__ = ["Analysis", "analyze", "sweep", "PRESETS", "preset_config",
           "run_preset"]


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
                  w="pm_block(%.17g)" % (0.76 * np.sqrt(2.0 / 3.0)),
                  model="phase_retrieval", weight="trim"),
}

_FIG5_RHO2 = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
              1.1, 1.2, 1.3, 1.4, 1.5]
_FIG6_WNORM = np.linspace(0.1, 8.0, 30)
_FIG7_WNORM = np.linspace(0.1, 2.0, 30)
# Monte Carlo trials when run_preset is given none (fig4: seeds pooled
# per feature law; fig5-7: trials per sweep value); the others use 1
_DEFAULT_TRIALS = {"fig4": 10, "fig5": 50, "fig6": 50, "fig7": 50}


def preset_config(name):
    try:
        return dict(PRESETS[name])
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; have {sorted(PRESETS)}")


@dataclass(frozen=True, eq=False)
class Analysis:
    """One theory run on a scan window: the density curve on `grid`
    points of it, the support and the spikes, each computed on first use."""

    spec: ProblemSpec
    scan_range: tuple
    grid: int = 400
    order: int | None = None

    @cached_property
    def curve(self):
        lo, hi = self.scan_range
        return density(self.spec, np.linspace(lo, hi, self.grid),
                       order=self.order)

    @cached_property
    def support(self):
        # the module-level support(), not this property
        return support(self.spec, self.scan_range, order=self.order)

    @cached_property
    def spikes(self):
        return find_spikes(self.spec, self.support, order=self.order)

    def results(self):
        """The report dict: support, then per spike its location, side,
        gap, cos2 with each column of V and det G residual."""
        sup = self.support
        return {
            "support": {"intervals": sup.intervals,
                        "bulk_count": sup.bulk_count, "bounded": sup.bounded},
            "spikes": [{"lambda": s.location, "side": s.side, "gap": s.gap,
                        "cos2": s.cos2(self.spec.V),
                        "det_residual": s.det_residual} for s in self.spikes],
        }

    def monte_carlo(self, trials, seed, dist="gaussian"):
        """results() plus a 'comparison' entry from `trials` finite-size
        trials seeded seed, seed+1, ...; returns (results, seeds)."""
        if trials < 1:
            raise ConfigError(f"Monte Carlo needs trials >= 1, got {trials}")
        rep = compare(self.spec, self.curve, self.spikes, trials,
                      base_seed=seed, dist=dist, support_report=self.support)
        results = self.results()
        results["comparison"] = {
            "density_l1": rep.density_l1,
            "spike_errors": rep.spike_errors,
            "alignment_errors": rep.alignment_errors,
            "spike_stderr": rep.spike_stderr,
            "alignment_stderr": rep.alignment_stderr,
            "trials": rep.trials,
            "dist": dist,
        }
        return results, rep.seeds


def analyze(spec, scan_range=None, grid=400, order=None):
    """The Analysis of spec on scan_range (default: the automatic window);
    the density on `grid` points, the support and the spikes are computed
    on first use; order is the Gauss-Hermite order (default 96)."""
    if grid < 2:
        raise ConfigError(f"grid needs at least 2 points, got {grid}")
    lo, hi = scan_range if scan_range is not None else default_scan_range(
        spec, order)
    return Analysis(spec, (lo, hi), grid, order)


def sweep(cfg, values, rescale, path, label, trials=0, scan_range=None,
          order=None):
    """Tabulate the first spike of rescale(cfg, v) for each v in values.

    Rows are [v, lambda, gap, alignment] with alignment the largest
    cos2 (NaN, 0, 0 when there is no spike); with trials, the mean
    empirical eigenvalue and cos2 paired with that spike follow.  The
    table goes to path, or to stdout when path is None.
    """
    rows = []
    for val in values:
        spec, seed = build_spec(rescale(dict(cfg), val))
        an = analyze(spec, scan_range, order=order)
        res = an.monte_carlo(trials, seed)[0] if trials else an.results()
        first = res["spikes"][0] if res["spikes"] else None
        row = ([val, first["lambda"], first["gap"], max(first["cos2"])]
               if first else [val, np.nan, 0.0, 0.0])
        if trials:
            cmp = res["comparison"]
            row += ([cmp["spike_errors"][0][0], cmp["alignment_errors"][0][0]]
                    if cmp["spike_errors"] else [np.nan, np.nan])
        rows.append(row)
    header = [label, "lambda", "gap", "alignment"]
    if trials:
        header += ["empirical_lambda", "empirical_alignment"]
    return emit_table(path, header, rows)


def _write_theory(out, stem, cfg, trials, order):
    """Density table and report document of one preset setting."""
    spec, seed = build_spec(cfg)
    an = analyze(spec, order=order)
    files = [emit_table(os.path.join(out, f"{stem}_density.csv"),
                        ["x", "density"],
                        zip(an.curve.grid, np.nan_to_num(an.curve.density)))]
    results, seeds = an.monte_carlo(trials, seed) if trials else (
        an.results(), [])
    files.append(emit_document(os.path.join(out, f"{stem}_report.json"),
                               spec_echo(spec, seed), results, seeds,
                               _version))
    return files


def run_preset(name, out, trials=None, order=None):
    """Run one preset; returns the list of files written."""
    cfg = preset_config(name)
    if trials is None:
        trials = _DEFAULT_TRIALS.get(name, 1)
    if trials < (1 if name == "fig4" else 0):
        raise ConfigError(f"preset {name} cannot run {trials} trials")
    os.makedirs(out, exist_ok=True)
    files = []

    if name in ("fig1a", "fig1b", "fig1cd"):
        files += _write_theory(out, name, cfg, trials, order)
    elif name == "fig2":
        for loss in ("logistic", "exponential"):
            files += _write_theory(out, f"fig2_{loss}", dict(cfg, loss=loss),
                                   trials, order)
    elif name == "fig3":
        for tag, top in (("two", 2.0), ("four", 4.0)):
            c = dict(cfg, cov={"diag_blocks": [[1.0, 400], [top, 400]]})
            files += _write_theory(out, f"fig3_{tag}", c, trials, order)
    elif name == "fig4":
        files += _write_theory(out, "fig4_theory", cfg, 0, order)
        spec, seed = build_spec(cfg)
        for dist in ("gaussian", "rademacher", "student_t:7"):
            pooled = np.concatenate(
                [run_trial(spec, dist, seed + k).eigenvalues
                 for k in range(trials)])
            tag = dist.replace(":", "")
            files.append(emit_table(os.path.join(out, f"fig4_{tag}.csv"),
                                    ["eigenvalue"], [[v] for v in pooled]))
    elif name == "fig5":
        files += _write_theory(out, "fig5", cfg, 0, order)

        def rescale(c, rho2):
            c["mu"] = "pm_block(%.17g)" % np.sqrt(rho2)
            return c

        files.append(sweep(cfg, _FIG5_RHO2, rescale,
                           os.path.join(out, "fig5_sweep.csv"), "mu_norm2",
                           trials, order=order))
    else:  # fig6, fig7
        def rescale(c, val):
            if name == "fig6":
                c["w"] = "pm_block(%.17g)" % val
            else:
                c["w_star"] = "pm_block(%.17g)" % val
                c["w"] = "pm_block(%.17g)" % (val * np.sqrt(2.0 / 3.0))
            return c

        files.append(sweep(cfg, _FIG6_WNORM if name == "fig6" else _FIG7_WNORM,
                           rescale, os.path.join(out, f"{name}_sweep.csv"),
                           "norm", trials, order=order))
    return files
