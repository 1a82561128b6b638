"""Which library calls the traced run wraps, and the per-layer metrics.

Layers are the modules of ``hesspec``; ``cli`` is argument glue over the
same calls and is not measured.  A call is wrapped at every module
attribute through which it is reached (``hesspec.bulk.density`` for the
benchmark's own pipeline, ``hesspec.presets.density`` inside
``run_preset``), under one span name per layer call.
"""
from __future__ import annotations

import os

import numpy as np

from hesspec import bulk, config, empirical, expectations, presets, spikes

# metric -> unit, in the order BENCHMARK.json lists them
METRICS = {
    "bulk.scan_s": "s", "bulk.density_s": "s", "bulk.support_s": "s",
    "bulk.solve_point_calls": "count", "bulk.fp_iterations": "count",
    "bulk.solve_point_failed": "count", "bulk.density_nan_points": "count",
    "spikes.find_spikes_s": "s", "spikes.alignment_s": "s",
    "spikes.spike_det_calls": "count", "spikes.found": "count",
    "spikes.det_residual_max": "1",
    "expectations.engine_build_s": "s", "expectations.e1_calls": "count",
    "expectations.e1_s": "s", "expectations.nodes": "count",
    "features.sample_s": "s", "models.response_s": "s",
    "models.curvature_s": "s", "empirical.gram_s": "s",
    "empirical.eig_self_s": "s", "empirical.compare_s": "s",
    "empirical.run_trial_busy_s": "s", "empirical.trial_s_p50": "s",
    "empirical.pool_busy_ratio": "1", "config.build_spec_s": "s",
    "presets.self_s": "s", "report.emit_s": "s", "report.bytes_written": "B",
    "trace.overhead_s": "s", "trace.spans": "count",
}


def install(tr):
    """Wrap the layer boundaries of hesspec with spans from tr."""
    def fp(point, args):
        tr.count("bulk.fp_iterations", point.iterations)

    def fp_failed(exc):
        tr.count("bulk.solve_point_failed")

    def nan_points(curve, args):
        tr.count("bulk.density_nan_points", int(np.isnan(curve.density).sum()))

    def found(reports, args):
        tr.count("spikes.found", len(reports))
        for rep in reports:
            tr.peak("spikes.det_residual_max", rep.det_residual)

    seen = {}

    def nodes(value, args):
        eng = args[0]
        key = (tr.pass_no, id(eng))
        if key not in seen:
            seen[key] = True
            tr.count("expectations.nodes", len(eng.wt))

    def written(path, args):
        tr.count("report.bytes_written", os.path.getsize(path))

    for owner in (bulk, spikes):
        tr.install(owner, "solve_point", "bulk.solve_point", fp, fp_failed)
    for owner in (bulk, presets):
        tr.install(owner, "default_scan_range", "bulk.scan")
        tr.install(owner, "density", "bulk.density", nan_points)
        tr.install(owner, "support", "bulk.support")
    for owner in (spikes, presets):
        tr.install(owner, "find_spikes", "spikes.find_spikes", found)
    tr.install(spikes, "spike_det", "spikes.spike_det")
    tr.install(spikes, "alignment", "spikes.alignment")
    tr.install(expectations.ExpectationEngine, "__init__",
               "expectations.engine_build")
    tr.install(expectations.ExpectationEngine, "e1", "expectations.e1", nodes)
    tr.install(empirical, "sample_features", "features.sample")
    tr.install(empirical, "sample_response", "models.response")
    tr.install(empirical, "curvature", "models.curvature")
    tr.install(empirical, "build_hessian", "empirical.gram")
    tr.install(empirical, "run_trial", "empirical.run_trial")
    for owner in (empirical, presets):
        tr.install(owner, "compare", "empirical.compare")
    for owner in (config, presets):
        tr.install(owner, "build_spec", "config.build_spec")
    tr.install(presets, "run_preset", "presets.run_preset")
    tr.install(presets, "emit_table", "report.emit", written)
    tr.install(presets, "emit_document", "report.emit", written)


def per_pass(spans, self_times, counters, pass_no):
    """Per-layer metrics of one traced pass.

    self_times is tracing.self_times over all spans.
    """
    sel = spans["pass"] == pass_no
    names = spans["names"]
    self_s = self_times[sel]
    dur = (spans["end"] - spans["start"])[sel]
    name_of = names[spans["name"][sel]] if len(names) else np.array([])

    def incl(name):
        return float(dur[name_of == name].sum())

    def own(name):
        return float(self_s[name_of == name].sum())

    def calls(name):
        return float(np.count_nonzero(name_of == name))

    trials = dur[name_of == "empirical.run_trial"]
    compare_s = incl("empirical.compare")
    busy = float(trials.sum())
    out = {
        "bulk.scan_s": incl("bulk.scan"),
        "bulk.density_s": incl("bulk.density"),
        "bulk.support_s": incl("bulk.support"),
        "bulk.solve_point_calls": calls("bulk.solve_point"),
        "spikes.find_spikes_s": incl("spikes.find_spikes"),
        "spikes.alignment_s": incl("spikes.alignment"),
        "spikes.spike_det_calls": calls("spikes.spike_det"),
        "expectations.engine_build_s": incl("expectations.engine_build"),
        "expectations.e1_calls": calls("expectations.e1"),
        "expectations.e1_s": incl("expectations.e1"),
        "features.sample_s": incl("features.sample"),
        "models.response_s": incl("models.response"),
        "models.curvature_s": incl("models.curvature"),
        "empirical.gram_s": incl("empirical.gram"),
        "empirical.eig_self_s": own("empirical.run_trial"),
        "empirical.compare_s": compare_s,
        "empirical.run_trial_busy_s": busy,
        "empirical.trial_s_p50": float(np.median(trials)) if len(trials) else 0.0,
        "empirical.pool_busy_ratio": busy / compare_s if compare_s > 0 else 0.0,
        "config.build_spec_s": incl("config.build_spec"),
        "presets.self_s": own("presets.run_preset"),
        "report.emit_s": incl("report.emit"),
        "trace.spans": float(np.count_nonzero(sel)),
    }
    for key in ("bulk.fp_iterations", "bulk.solve_point_failed",
                "bulk.density_nan_points", "spikes.found",
                "spikes.det_residual_max", "expectations.nodes",
                "report.bytes_written"):
        out[key] = float(counters.get(key, 0.0))
    return out
