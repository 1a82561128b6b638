"""Command-line front end.

Subcommands:
    density   -- limiting density table on a grid
    spikes    -- support intervals plus isolated eigenvalues
    align     -- the spikes report plus each spike's projection matrix
    simulate  -- one finite-size trial, eigenvalues to a table
    compare   -- Monte Carlo vs. theory discrepancy report
    sweep     -- spike location/alignment along a parameter path
    preset    -- run a named built-in experiment

All but preset read a JSON config (--config; --seed replaces its seed
before the spec is built) and write '#'-headed comma tables or JSON
documents (--out, default stdout).  The theory comes from
presets.analyze and presets.sweep, as in the presets.  Exit codes: 0 ok,
1 config error (including bad numeric arguments), 2 numerical failure.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .config import build_spec, load_config, spec_echo
from .empirical import run_trial
from .errors import ConfigError, HesspecError
from .features import check_dist
from .presets import PRESETS, analyze, run_preset, sweep
from .report import emit_document, emit_table

__all__ = ["main"]


def _parse_range(text):
    try:
        a, b = (float(v) for v in text.split(":"))
    except ValueError:
        raise ConfigError(f"range must be 'a:b', got {text!r}")
    if not b > a:
        raise ConfigError(f"range must satisfy a < b, got {text!r}")
    return a, b


def _parse_values(text):
    try:
        a, b, n = text.split(":")
        if int(n) >= 1:
            return np.linspace(float(a), float(b), int(n))
    except ValueError:
        pass
    raise ConfigError(f"values must be 'a:b:n' with n >= 1, got {text!r}")


def _dist(args):
    try:
        check_dist(args.dist)
    except ValueError as err:    # DomainError, or a dof that is no number
        raise ConfigError(f"--dist: {err}") from err
    return args.dist


def _scan_args(args):
    """analyze() keyword arguments from --range and --quad-order."""
    return {"scan_range": _parse_range(args.range) if args.range else None,
            "order": args.quad_order}


def _config(args):
    """The config file, with --seed in place of its seed when given."""
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    return cfg


def _cmd_density(args):
    spec, _ = build_spec(_config(args))
    curve = analyze(spec, grid=args.grid, **_scan_args(args)).curve
    emit_table(args.out, ["x", "density"],
               zip(curve.grid, np.nan_to_num(curve.density)))


def _cmd_spikes(args):
    spec, seed = build_spec(_config(args))
    an = analyze(spec, **_scan_args(args))
    results = an.results()
    if args.command == "align":
        for entry, s in zip(results["spikes"], an.spikes):
            entry["projection"] = s.alignment.tolist()
    emit_document(args.out, spec_echo(spec, seed), results, [], __version__)


def _cmd_simulate(args):
    dist = _dist(args)
    spec, seed = build_spec(_config(args))
    spectrum = run_trial(spec, dist, seed)
    emit_table(args.out, ["eigenvalue"], [[v] for v in spectrum.eigenvalues])


def _cmd_compare(args):
    dist = _dist(args)
    spec, seed = build_spec(_config(args))
    an = analyze(spec, grid=args.grid, **_scan_args(args))
    results, seeds = an.monte_carlo(args.trials, seed, dist)
    emit_document(args.out, spec_echo(spec, seed), results, seeds, __version__)


_SWEEP_KEYS = {"w_norm": "w", "w_star_norm": "w_star", "mu_norm": "mu"}


def _cmd_sweep(args):
    key = _SWEEP_KEYS[args.param]

    def rescale(c, val):
        c[key] = "pm_block(%.17g)" % val
        return c

    sweep(_config(args), _parse_values(args.values), rescale,
          args.out, args.param, **_scan_args(args))


def _cmd_preset(args):
    files = run_preset(args.name, args.out or ".", trials=args.trials,
                       order=args.quad_order)
    for f in files:
        sys.stdout.write(f + "\n")


def _add_scan_opts(sub):
    sub.add_argument("--range", help="scan window 'a:b' (default: automatic)")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hesspec",
        description="Asymptotic spectra of generalized linear model Hessians")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name, fn, text):
        s = subs.add_parser(name, help=text)
        s.set_defaults(fn=fn)
        s.add_argument("--out", help="output file (default stdout)")
        if name != "simulate":
            s.add_argument("--quad-order", type=int, default=None,
                           help="Gauss-Hermite order (default 96)")
        if name != "preset":
            s.add_argument("--config", required=True)
            s.add_argument("--seed", type=int, default=None,
                           help="replace the config seed")
        if name in ("density", "compare"):     # the ones that draw a density
            s.add_argument("--grid", type=int, default=400,
                           help="number of density grid points (default 400)")
        return s

    _add_scan_opts(sub("density", _cmd_density, "limiting density table"))
    _add_scan_opts(sub("spikes", _cmd_spikes,
                       "support and isolated eigenvalues"))
    _add_scan_opts(sub("align", _cmd_spikes, "spike eigenvector projections"))

    s = sub("simulate", _cmd_simulate, "one finite-size spectrum")
    s.add_argument("--dist", default="gaussian",
                   help="feature law: gaussian, rademacher, student_t:dof")

    s = sub("compare", _cmd_compare, "Monte Carlo vs theory report")
    s.add_argument("--trials", type=int, default=10)
    s.add_argument("--dist", default="gaussian")
    _add_scan_opts(s)

    s = sub("sweep", _cmd_sweep, "spike curves along a parameter path")
    s.add_argument("--param", required=True, choices=sorted(_SWEEP_KEYS))
    s.add_argument("--values", required=True, help="'a:b:n' linspace")
    _add_scan_opts(s)

    s = sub("preset", _cmd_preset, "run a named experiment")
    s.add_argument("name", choices=sorted(PRESETS))
    s.add_argument("--trials", type=int, default=None)

    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except ConfigError as err:
        sys.stderr.write(f"config error: {err}\n")
        return 1
    except HesspecError as err:
        sys.stderr.write(f"numerical failure: {err}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
