import json
import os

import numpy as np
import pytest

from hesspec import ConfigError, analyze, build_spec, run_preset
from hesspec.presets import PRESETS, _WRITES, preset_config, sweep


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_files_match_the_pipeline(tmp_path, name):
    # each report is analyze() of its document's config, each sweep table
    # sweep() on the preset's path, each pooled table trials x p values
    row = _WRITES[name]
    trials = 1 if row.pooled else 0
    run_preset(name, str(tmp_path), trials=trials)
    cfg = preset_config(name)
    for stem, change in row.docs.items():
        spec, seed = build_spec(dict(cfg, **change))
        with open(tmp_path / f"{stem}_report.json") as fh:
            doc = json.load(fh)
        assert doc["seeds"] == []
        assert doc["spec_echo"]["seed"] == seed
        assert doc["results"] == json.loads(json.dumps(analyze(spec).results()))
    for dist in row.pooled:
        pooled = np.loadtxt(tmp_path / f"{name}_{dist.replace(':', '')}.csv",
                            comments="#")
        assert pooled.shape == (trials * cfg["p"],)
    if row.sweep:
        label, values, vectors = row.sweep
        direct = sweep(cfg, values, lambda c, v: {**c, **vectors(v)},
                       str(tmp_path / "direct.csv"), label, trials)
        with open(direct, "rb") as fh:
            assert (tmp_path / f"{name}_sweep.csv").read_bytes() == fh.read()


@pytest.mark.parametrize("name, trials", [
    ("fig4", 1.5), ("fig1a", 1.5), ("fig7", 0.5), ("fig1a", True),
    ("fig5", "1")])
def test_trials_not_a_whole_number_leave_no_directory(tmp_path, name, trials):
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match="trials must be an integer"):
        run_preset(name, str(out), trials=trials)
    assert not out.exists()


def test_spike_reports_build_no_density(tmp_path, monkeypatch):
    import hesspec.presets
    from hesspec.cli import main

    cfg = {"p": 512, "n": 2048, "mu": "pm_block(0.89442719099991588)",
           "model": "logistic", "loss": "logistic", "seed": 7}
    path = tmp_path / "sig.json"
    path.write_text(json.dumps(cfg))
    before = tmp_path / "before.json"
    assert main(["spikes", "--config", str(path), "--out", str(before)]) == 0

    def no_density(*args, **kwargs):
        raise AssertionError("the density curve is not read here")

    monkeypatch.setattr(hesspec.presets, "density", no_density)
    after = tmp_path / "after.json"
    assert main(["spikes", "--config", str(path), "--out", str(after)]) == 0
    assert after.read_bytes() == before.read_bytes()
    spec, _ = build_spec(cfg)
    assert len(analyze(spec).results()["spikes"]) == 1

    def rescale(c, rho2):
        c["mu"] = "pm_block(%.17g)" % rho2 ** 0.5
        return c

    table = tmp_path / "sweep.csv"
    hesspec.presets.sweep(cfg, [0.8, 1.5], rescale, str(table), "mu_norm2")
    assert len(table.read_text().splitlines()) == 3


@pytest.mark.parametrize("name, trials, files", [
    ("fig1a", 0, ["fig1a_density.csv", "fig1a_report.json"]),
    ("fig1b", 0, ["fig1b_density.csv", "fig1b_report.json"]),
    ("fig1cd", 0, ["fig1cd_density.csv", "fig1cd_report.json"]),
    ("fig3", 0, ["fig3_four_density.csv", "fig3_four_report.json",
                 "fig3_two_density.csv", "fig3_two_report.json"]),
    ("fig4", 1, ["fig4_gaussian.csv", "fig4_rademacher.csv",
                 "fig4_student_t7.csv", "fig4_theory_density.csv",
                 "fig4_theory_report.json"]),
    ("fig5", 0, ["fig5_density.csv", "fig5_report.json", "fig5_sweep.csv"]),
    ("fig6", 0, ["fig6_sweep.csv"]),
    ("fig7", 0, ["fig7_sweep.csv"]),
    ("fig2", 0, ["fig2_exponential_density.csv",
                 "fig2_exponential_report.json", "fig2_logistic_density.csv",
                 "fig2_logistic_report.json"]),
])
def test_preset_writes_its_files(tmp_path, name, trials, files):
    written = run_preset(name, str(tmp_path), trials=trials)
    assert sorted(os.path.basename(f) for f in written) == files
    assert sorted(os.listdir(tmp_path)) == files
    for f in written:
        if f.endswith("_sweep.csv"):    # 15 values of |mu|^2, 30 norms
            rows = np.loadtxt(f, delimiter=",", comments="#", ndmin=2)
            assert rows.shape == ({"fig5": 15}.get(name, 30), 4)
        elif name == "fig4" and not f.endswith(("_density.csv", ".json")):
            assert np.loadtxt(f, comments="#").shape == (800,)


def test_sweep_with_trials_adds_empirical_columns(tmp_path):
    cfg = {"p": 64, "n": 256, "model": "logistic", "loss": "logistic",
           "seed": 3}

    def rescale(c, rho2):
        c["mu"] = "pm_block(%.17g)" % rho2 ** 0.5
        return c

    # |mu|^2 = 0.09 is below the detection threshold sqrt(c) = 0.5
    path = sweep(cfg, [0.09, 2.25], rescale, str(tmp_path / "s.csv"),
                 "mu_norm2", trials=2)
    with open(path) as fh:
        assert fh.readline() == ("# mu_norm2,lambda,gap,alignment,"
                                 "empirical_lambda,empirical_alignment\n")
    rows = np.loadtxt(path, delimiter=",", comments="#")
    assert rows.shape == (2, 6)
    assert np.isnan(rows[0, [1, 4, 5]]).all()
    assert np.isfinite(rows[1]).all()
    assert rows[1, 4] == pytest.approx(rows[1, 1], abs=0.05)


def _pm_block(key, scale=1.0):
    def rescale(c, val):
        c[key] = "pm_block(%.17g)" % (val * scale)
        return c
    return rescale


def _trim_pair(c, val):
    c["w_star"] = "pm_block(%.17g)" % val
    c["w"] = "pm_block(%.17g)" % (val * np.sqrt(2.0 / 3.0))
    return c


# (config, rescale, values); every value has a spike to pair with
SWEEPS = {
    "mu": ({"p": 64, "n": 256, "model": "logistic", "loss": "logistic",
            "seed": 3}, _pm_block("mu"), [1.2, 1.5, 2.0]),
    "w": ({"p": 64, "n": 640, "model": "logistic", "loss": "logistic",
           "seed": 3}, _pm_block("w"), [2.0, 3.0]),
    "w_star": ({"p": 64, "n": 256, "model": "phase_retrieval",
                "weight": "trim", "seed": 3}, _trim_pair, [0.8, 1.5]),
}


@pytest.mark.parametrize("trials", [1, 2])
@pytest.mark.parametrize("param", sorted(SWEEPS))
def test_shared_draws_keep_the_table(tmp_path, monkeypatch, noise_draws,
                                     param, trials):
    # trials <= workers: one draw per seed for the whole sweep, and the
    # same bytes as a draw per value
    import hesspec.presets

    monkeypatch.setenv("HESSPEC_THREADS", "2")
    cfg, rescale, values = SWEEPS[param]
    shared = sweep(cfg, values, rescale, str(tmp_path / "shared.csv"), param,
                   trials=trials)
    assert len(noise_draws) == trials
    real = hesspec.presets.compare
    monkeypatch.setattr(hesspec.presets, "compare",
                        lambda *args, shared=None, **kw: real(*args, **kw))
    fresh = sweep(cfg, values, rescale, str(tmp_path / "fresh.csv"), param,
                  trials=trials)
    assert len(noise_draws) == trials + trials * len(values)
    with open(shared, "rb") as a, open(fresh, "rb") as b:
        assert a.read() == b.read()
    rows = np.loadtxt(shared, delimiter=",", comments="#", ndmin=2)
    assert np.isfinite(rows[:, 4:]).all()


@pytest.mark.parametrize("trials, rescale, values", [
    (3, _pm_block("mu"), [1.2, 1.5]),         # more trials than workers
    (2, lambda c, n: dict(c, n=n), [256, 320]),
    (2, lambda c, s: dict(c, cov=s), [1.0, 1.5]),
], ids=["trials_above_workers", "n", "cov"])
def test_sweep_redraws(tmp_path, monkeypatch, noise_draws, trials, rescale,
                       values):
    monkeypatch.setenv("HESSPEC_THREADS", "2")
    cfg = dict(SWEEPS["mu"][0], mu="pm_block(1.5)")
    sweep(cfg, values, rescale, str(tmp_path / "s.csv"), "v", trials=trials)
    assert len(noise_draws) == trials * len(values)


def test_sweep_compares_through_the_presets_module(tmp_path, monkeypatch):
    # perfbench reads trials_per_s, density_l1 and mass_abs_err of a
    # sweep from these two module attributes, once per value
    import hesspec.presets

    calls = {"compare": 0, "density": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(hesspec.presets, name),
                    **kw):
            calls[_name] += 1
            return _real(*args, **kw)
        monkeypatch.setattr(hesspec.presets, name, counted)
    cfg, rescale, values = SWEEPS["mu"]
    sweep(cfg, values, rescale, str(tmp_path / "s.csv"), "mu", trials=1)
    assert calls == {"compare": len(values), "density": len(values)}


def test_preset_order_reaches_every_spec(tmp_path, monkeypatch):
    # run_preset(order=) is the preset config's quad_order, so the theory
    # document and each sweep value are built at that order
    import hesspec.presets

    orders = []

    def recorded(cfg, _real=hesspec.presets.build_spec):
        spec, seed = _real(cfg)
        orders.append(spec.quad_order)
        return spec, seed

    monkeypatch.setattr(hesspec.presets, "build_spec", recorded)
    run_preset("fig5", str(tmp_path), trials=0, order=48)
    assert orders == [48] * 16


@pytest.mark.parametrize("name, stem, intervals", [
    ("fig1cd", "fig1cd", [[None, None]]),
    ("fig2", "fig2_exponential", [[0.4625949529537695, None]])],
    ids=["fig1cd", "fig2-exponential"])
def test_report_writes_unbounded_ends_as_null(tmp_path, name, stem, intervals):
    # the report carries the exact support, not the scan window: g is
    # unbounded both ways (fig1cd) or above (the exponential loss)
    run_preset(name, str(tmp_path), trials=0)
    with open(tmp_path / f"{stem}_report.json") as fh:
        sup = json.load(fh)["results"]["support"]
    assert not sup["bounded"] and sup["bulk_count"] == 1
    (left, right), = sup["intervals"]
    (want_left, want_right), = intervals
    assert right is None
    assert left is None if want_left is None else left == pytest.approx(
        want_left, rel=1e-12)


@pytest.mark.parametrize("window", [(0.8, -0.1), (0.3, 0.3),
                                    (np.nan, 1.0), (0.0, np.inf)],
                         ids=["reversed", "empty", "nan", "infinite"])
def test_bad_window_is_a_config_error(monkeypatch, window):
    # analyze checks the window before anything is solved
    import hesspec.bulk

    def forbidden(*args, **kwargs):
        raise AssertionError("a density point was solved")

    monkeypatch.setattr(hesspec.bulk, "_iterate", forbidden)
    spec, _ = build_spec({"p": 64, "n": 256, "mu": "pm_block(1.0)"})
    with pytest.raises(ConfigError, match="window"):
        analyze(spec, window).curve


def test_report_resolves_no_window(monkeypatch):
    # the support and spikes are exact functions of the model; only the
    # density curve reads the scan window
    import hesspec.presets

    calls = []

    def counted(spec, _real=hesspec.presets.default_scan_range):
        calls.append(spec)
        return _real(spec)

    monkeypatch.setattr(hesspec.presets, "default_scan_range", counted)
    spec, _ = build_spec(preset_config("fig1b"))
    an = analyze(spec)
    an.results()
    assert calls == []
    assert len(an.curve.grid) == 400 and calls == [spec]


def test_report_echoes_the_quadrature_order(tmp_path):
    files = run_preset("fig1a", str(tmp_path), trials=0, order=48)
    with open(next(f for f in files if f.endswith(".json"))) as fh:
        assert json.load(fh)["spec_echo"]["quad_order"] == 48


def test_unknown_preset_is_a_config_error():
    with pytest.raises(ConfigError, match="unknown preset"):
        preset_config("fig99")
