"""Reduced end-to-end runs of the benchmark command."""
import json
import os
import shutil
import subprocess
import sys

import pytest

import layers
import run

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)


def _run(cwd, *extra):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           "theory_oracle", "--seed", "7", "--seconds", "1", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace, names", [("0", run.END_TO_END),
                                          ("1", layers.METRICS)])
def test_smoke_run_prints_every_metric(trace, names):
    done = _run(ROOT, "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] == 0
    assert set(line["metrics"]) == set(names)
    for name, entry in line["metrics"].items():
        assert entry["unit"] == names[name]
        assert isinstance(entry["value"], float)
    if trace == "0":
        assert all(line["metrics"][k]["value"] > 0 for k in names)


def test_benchmark_json_matches_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.METRICS
    import workloads
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_workload_reasons_match_benchmark_json():
    import workloads
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {name: w.why for name, w in workloads.WORKLOADS.items()}
