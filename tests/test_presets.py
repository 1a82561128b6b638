import json
import os

from hesspec import analyze, build_spec, run_preset
from hesspec.presets import preset_config


def test_fig2_reports_match_analyze(tmp_path):
    files = run_preset("fig2", str(tmp_path), trials=0)
    assert sorted(os.path.basename(f) for f in files) == [
        "fig2_exponential_density.csv", "fig2_exponential_report.json",
        "fig2_logistic_density.csv", "fig2_logistic_report.json"]
    for loss in ("logistic", "exponential"):
        spec, seed = build_spec(dict(preset_config("fig2"), loss=loss))
        with open(tmp_path / f"fig2_{loss}_report.json") as fh:
            doc = json.load(fh)
        assert doc["seeds"] == []
        assert doc["spec_echo"]["seed"] == seed
        assert doc["results"] == json.loads(json.dumps(analyze(spec).results()))


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
