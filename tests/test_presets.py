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
