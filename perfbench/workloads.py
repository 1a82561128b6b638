"""The benchmark's workloads: inputs, one timed pass, and output checks.

Every workload is a closed loop driven by one caller in one process; the
only other threads are the library's Monte Carlo pool (its default size,
HESSPEC_THREADS unset) and OpenBLAS's own.  A workload exposes

* ``setup()``: builds inputs and evaluates oracles (untimed by passes);
* ``run_pass(out_dir)``: the timed work, returning raw outputs;
* ``check(outputs, tally, acc)``: compares one pass's outputs with the
  oracles, recording operations in a Tally and errors in a MaxError.

The library is called only through module attributes
(``hesspec.bulk.density`` and so on), so the tracer's wrappers see the
calls the benchmark makes as well as those the library makes.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import time

import numpy as np

import hesspec
from hesspec import bulk, config, empirical, expectations, presets, spikes

import oracles

PRESET_SEED = 1234      # pinned by every hesspec preset
GRID = 400              # scan resolution of hesspec.presets and the CLI


def pipeline(spec):
    """scan -> density -> support -> find_spikes, as the presets run it."""
    lo, hi = bulk.default_scan_range(spec)
    curve = bulk.density(spec, np.linspace(lo, hi, GRID))
    sup = bulk.support(spec, (lo, hi), curve=curve)
    found = spikes.find_spikes(spec, sup) if sup.intervals else []
    return curve, sup, found


def mass(curve):
    """Integral of the density curve over its grid (NaN points as 0)."""
    return float(np.trapezoid(np.nan_to_num(curve.density), curve.grid))


def cos2(spec, spike, col):
    v = spec.V[:, col]
    return float(spike.alignment[col, col] / (v @ v))


def warm_up(mc_spec):
    """Touch every layer once on a tiny problem (lazy imports, quadrature
    rules), then run one trial at the workload's Monte Carlo size so the
    BLAS threads and large allocations are warm before the first pass."""
    spec, seed = config.build_spec({"p": 64, "n": 256, "mu": "pm_block(1.2)",
                                    "model": "logistic", "loss": "logistic",
                                    "seed": 1})
    pipeline(spec)
    empirical.run_trial(mc_spec, "gaussian", seed)


class Observed:
    """Return values and wall time of calls made inside run_preset.

    run_preset writes neither the density curves of a sweep nor the
    compare time, so preset workloads observe ``hesspec.presets.compare``
    and ``hesspec.presets.density``.  This records two clock reads per
    call and no spans.
    """

    def __init__(self):
        self.calls = {}

    def install(self, owner, attr):
        original = getattr(owner, attr)
        sink = self.calls.setdefault(attr, [])

        def observed(*args, **kwargs):
            start = time.perf_counter()
            out = original(*args, **kwargs)
            sink.append((time.perf_counter() - start, out))
            return out

        observed.__wrapped__ = original
        setattr(owner, attr, observed)

    def take(self, attr):
        out = self.calls.get(attr, [])
        self.calls[attr] = []
        return out


def _digests(paths):
    out = {}
    for path in paths:
        with open(path, "rb") as fh:
            out[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _check_files(files, expected, tally, reference, label):
    """Record one operation per expected output: missing, or bytes that
    differ from the first pass, count as failed."""
    names = {os.path.basename(f) for f in files}
    digests = _digests(files)
    for name in expected:
        if name not in names:
            tally.record(f"{label}:{name}", error="output missing")
        elif name in reference and reference[name] != digests[name]:
            tally.record(f"{label}:{name}", error="bytes differ between passes")
        else:
            tally.record(f"{label}:{name}")
        reference.setdefault(name, digests.get(name))
    return digests


def _mc_errors(report, acc, where):
    for _, _, err in report.spike_errors:
        acc.add("mc_spike_abs_err", err, where)
    for _, _, err in report.alignment_errors:
        acc.add("mc_cos2_abs_err", err, where)
    acc.add("density_l1", report.density_l1, where)


class TheoryOracle:
    name = "theory_oracle"
    why = ("library pipeline on 14 configs, 12 with independent oracles, "
           "then a 4-trial MC check of fig1b: bulk/spikes control flow and "
           "the 18,432-node fig1b quadrature")
    mc_trials = 4

    def __init__(self, seed, smoke=False):
        self.seed = seed
        rhos = [0.8, 3.0] if smoke else [0.3, 0.6, 0.8, 1.0, 1.5, 3.0, 10.0, 30.0]
        w_norms = [2.01] if smoke else [1.46, 2.01, 3.37, 8.0]
        self.points = (
            [("signal", rho, {"p": 512, "n": 2048,
                              "mu": "pm_block(%.17g)" % np.sqrt(rho),
                              "model": "logistic", "loss": "logistic",
                              "seed": seed})
             for rho in rhos]
            + [("evaluation", w, {"p": 800, "n": 8000,
                                  "w": "pm_block(%.17g)" % w,
                                  "model": "logistic", "loss": "logistic",
                                  "seed": seed})
               for w in w_norms]
            + ([] if smoke else [("preset", name, presets.preset_config(name))
                                 for name in ("fig1b", "fig1cd")]))
        # the seed fixes the order in which the configs are visited
        random.Random(seed).shuffle(self.points)
        # the MC leg checks fig1b, which has no closed-form oracle; the
        # smoke run uses the cheap signal config instead
        self.mc_label = "signal:0.8" if smoke else "preset:fig1b"

    def seeds(self):
        return {"seed": self.seed, "config_seed": self.seed,
                "mc_base_seed": PRESET_SEED,
                "note": "the seed sets the visit order and the config seed "
                        "field; fig1b/fig1cd keep the preset seed 1234"}

    def setup(self):
        self.specs = []
        self.oracle = {}
        for kind, param, cfg in self.points:
            spec, _ = config.build_spec(cfg)
            expectations.expectation_engine(spec)
            label = f"{kind}:{param:g}" if kind != "preset" else f"preset:{param}"
            self.specs.append((label, kind, param, spec))
            c = spec.c
            if kind == "signal":
                lam, align = hesspec.signal_spike_closed_form(param, c)
                mp = [0.25 * (1 - np.sqrt(c)) ** 2, 0.25 * (1 + np.sqrt(c)) ** 2]
                self.oracle[label] = {
                    "edges": mp,
                    "spikes": [(lam, align)] if param > np.sqrt(c) else []}
            elif kind == "evaluation":
                _, align, loc, edge = hesspec.model_spike_scalar(param, c)
                self.oracle[label] = {
                    "left_edge": edge,
                    "spikes": [(loc, align)] if loc is not None else []}
        warm_up(self._spec(self.mc_label))

    def _spec(self, label):
        return next(s for lab, _, _, s in self.specs if lab == label)

    def run_pass(self, out_dir):
        results = {}
        units = {}
        for label, _, _, spec in self.specs:
            start = time.perf_counter()
            try:
                results[label] = pipeline(spec)
            except Exception as err:
                results[label] = err
            units[label] = time.perf_counter() - start
        return {"theory": results, "units": units}

    def check(self, out, tally, acc):
        for label, kind, param, spec in self.specs:
            res = out["theory"][label]
            if isinstance(res, Exception):
                tally.record(label, error=repr(res))
                continue
            curve, sup, found = res
            m = mass(curve)
            acc.add("mass_abs_err", m - 1.0, label)
            if not sup.intervals and m > 0.1:
                tally.record(label, mismatch=f"empty support, density mass {m:.3f}")
                continue
            oracle = self.oracle.get(label)
            if oracle is None:
                tally.record(label)
                continue
            col = 0 if kind == "signal" else 2
            if kind == "signal" and len(sup.intervals) == 1:
                for got, want in zip(sup.intervals[0], oracle["edges"]):
                    acc.add("edge_abs_err", got - want, label)
            if kind == "evaluation" and sup.intervals:
                acc.add("edge_abs_err", sup.intervals[0][0] - oracle["left_edge"],
                        label)
            if len(found) != len(oracle["spikes"]):
                tally.record(label, mismatch=f"{len(found)} spikes found, oracle "
                             f"has {len(oracle['spikes'])}")
                continue
            for spike, (loc, align) in zip(found, oracle["spikes"]):
                acc.add("spike_abs_err", spike.location - loc, label)
                acc.add("cos2_abs_err", cos2(spec, spike, col) - align, label)
            tally.record(label)
        return {"rates": self._mc_leg(out["theory"], tally, acc)}

    def _mc_leg(self, theory, tally, acc):
        """Monte Carlo check of the fig1b theory, which has no closed-form
        oracle.  It runs after the timed pass, so wall_s is the theory
        pipeline alone; its compare time gives trials_per_s."""
        label = "mc:" + self.mc_label
        res = theory[self.mc_label]
        if isinstance(res, Exception):
            tally.record(label, error="no theory to compare with")
            return []
        curve, _, found = res
        start = time.perf_counter()
        try:
            rep = empirical.compare(self._spec(self.mc_label), curve, found,
                                    self.mc_trials, base_seed=PRESET_SEED)
        except Exception as err:
            tally.record(label, error=repr(err))
            return []
        elapsed = time.perf_counter() - start
        tally.record(label)
        _mc_errors(rep, acc, label)
        return [rep.trials / elapsed]


class _PresetWorkload:
    preset = None
    trials = None
    expected = ()

    def __init__(self, seed, smoke=False):
        self.seed = seed
        self.reference = {}
        self.observed = Observed()

    def seeds(self):
        return {"seed": self.seed, "preset_seed": PRESET_SEED,
                "note": f"{self.preset} runs at its pinned seed {PRESET_SEED}; "
                        "the seed argument does not change its inputs"}

    def setup(self):
        self.observed.install(presets, "compare")
        self.observed.install(presets, "density")
        spec, _ = config.build_spec(presets.preset_config(self.preset))
        warm_up(spec)

    def run_preset(self, out_dir):
        try:
            files = presets.run_preset(self.preset, out_dir, trials=self.trials)
        except Exception as err:
            files = err
        return files

    def mc_rates(self):
        """Trials per second of each observed compare call of the pass."""
        calls = self.observed.take("compare")
        return {"rates": [rep.trials / t for t, rep in calls]}, calls


class PresetFig3(_PresetWorkload):
    name = "preset_fig3"
    why = ("fig3 preset with 4 trials plus its constant-curvature twin: "
           "concurrent trials in the MC pool, multi-interval support, the "
           "in-gap spike, the writers")
    preset = "fig3"
    trials = 4
    expected = ("fig3_two_density.csv", "fig3_two_report.json",
                "fig3_four_density.csv", "fig3_four_report.json")

    def setup(self):
        super().setup()
        # The fig3 "four" covariance with w = 0: the logistic curvature is
        # then the constant 1/4 and the two-atom inverse map is exact.
        cfg = dict(presets.preset_config("fig3"), w="zeros",
                   cov={"diag_blocks": [[1.0, 400], [4.0, 400]]})
        self.twin, _ = config.build_spec(cfg)
        expectations.expectation_engine(self.twin)
        entries = self.twin.cov.entries
        atoms, weights = self.twin.atoms
        rho = [float(np.sum(self.twin.mu[entries == t] ** 2)) for t in atoms]
        self.twin_oracle = oracles.constant_curvature(
            0.25, atoms, weights, rho, self.twin.c)

    def run_pass(self, out_dir):
        start = time.perf_counter()
        files = self.run_preset(out_dir)
        mid = time.perf_counter()
        try:
            twin = pipeline(self.twin)
        except Exception as err:
            twin = err
        units = {"preset": mid - start, "twin": time.perf_counter() - mid}
        return {"files": files, "twin": twin, "units": units}

    def check(self, out, tally, acc):
        mc, _ = self.mc_rates()
        self.observed.take("density")
        files = out["files"]
        if isinstance(files, Exception):
            for name in self.expected:
                tally.record(f"fig3:{name}", error=repr(files))
        else:
            self.digests = _check_files(files, self.expected, tally,
                                        self.reference, "fig3")
            for path in files:
                name = os.path.basename(path)
                if name.endswith("_report.json"):
                    with open(path) as fh:
                        cmp = json.load(fh)["results"].get("comparison", {})
                    for _, _, err in cmp.get("spike_errors", []):
                        acc.add("mc_spike_abs_err", err, name)
                    for _, _, err in cmp.get("alignment_errors", []):
                        acc.add("mc_cos2_abs_err", err, name)
                    if "density_l1" in cmp:
                        acc.add("density_l1", cmp["density_l1"], name)
                elif name.endswith("_density.csv"):
                    x, d = np.loadtxt(path, delimiter=",", comments="#").T
                    acc.add("mass_abs_err", np.trapezoid(d, x) - 1.0, name)

        label = "twin:fig3_four_w0"
        twin = out["twin"]
        if isinstance(twin, Exception):
            tally.record(label, error=repr(twin))
            return mc
        curve, sup, found = twin
        acc.add("mass_abs_err", mass(curve) - 1.0, label)
        want = self.twin_oracle
        edges = [e for iv in sup.intervals for e in iv]
        if len(edges) != len(want.edges) or len(found) != len(want.spikes):
            tally.record(label, mismatch=f"{len(sup.intervals)} intervals and "
                         f"{len(found)} spikes, oracle has {len(want.edges) // 2} "
                         f"and {len(want.spikes)}")
            return mc
        for got, ref in zip(edges, want.edges):
            acc.add("edge_abs_err", got - ref, label)
        for spike, (loc, align) in zip(found, want.spikes):
            acc.add("spike_abs_err", spike.location - loc, label)
            acc.add("cos2_abs_err", cos2(self.twin, spike, 0) - align, label)
        tally.record(label)
        return mc


class SweepFig7(_PresetWorkload):
    name = "sweep_fig7"
    why = ("fig7 sweep with 1 trial per value: 30 theory solves and 30 "
           "redraws of the same features with the pool idle, checked against "
           "the trimming closed form")
    preset = "fig7"
    trials = 1
    expected = ("fig7_sweep.csv",)
    norms = np.linspace(0.1, 2.0, 30)   # the fig7 sweep grid of |w*|

    def setup(self):
        super().setup()
        cfg = presets.preset_config("fig7")
        c = cfg["p"] / cfg["n"]
        self.oracle = [oracles.trim_retrieval(r, c) for r in self.norms]

    def run_pass(self, out_dir):
        return {"files": self.run_preset(out_dir)}

    def check(self, out, tally, acc):
        mc, calls = self.mc_rates()
        for _, rep in calls:
            acc.add("density_l1", rep.density_l1, "fig7")
        for _, curve in self.observed.take("density"):
            acc.add("mass_abs_err", mass(curve) - 1.0, "fig7")
        files = out["files"]
        if isinstance(files, Exception):
            tally.record("fig7:fig7_sweep.csv", error=repr(files))
            for r in self.norms:
                tally.record(f"fig7:{r:.4f}", error=repr(files))
            return mc
        self.digests = _check_files(files, self.expected, tally, self.reference,
                                    "fig7")
        path = next((f for f in files if f.endswith("fig7_sweep.csv")), None)
        rows = np.loadtxt(path, delimiter=",", comments="#", ndmin=2) \
            if path else np.zeros((0, 6))
        for k, r in enumerate(self.norms):
            label = f"fig7:{r:.4f}"
            if k >= len(rows) or abs(rows[k, 0] - r) > 1e-12:
                tally.record(label, error="sweep row missing")
                continue
            _, lam, gap, align, emp_lam, emp_align = rows[k]
            want = self.oracle[k]
            found = np.isfinite(lam)
            if found != bool(want.spikes):
                tally.record(label, mismatch=(
                    f"spike at {lam:.6g}, oracle has none" if found
                    else f"no spike, oracle has {want.spikes[0][0]:.6g}"))
                continue
            if found:
                loc, ref_align = min(want.spikes, key=lambda s: abs(s[0] - lam))
                right = loc > want.edges[1]
                edge = lam - gap if right else lam + gap
                acc.add("spike_abs_err", lam - loc, label)
                acc.add("edge_abs_err", edge - want.edges[1 if right else 0], label)
                acc.add("cos2_abs_err", align - ref_align, label)
                if np.isfinite(emp_lam):
                    acc.add("mc_spike_abs_err", emp_lam - lam, label)
                    acc.add("mc_cos2_abs_err", emp_align - align, label)
            tally.record(label)
        return mc


WORKLOADS = {w.name: w for w in (TheoryOracle, PresetFig3, SweepFig7)}
