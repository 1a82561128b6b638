import json

import numpy as np
import pytest

from hesspec.cli import main
from hesspec.spikes import model_spike_scalar


@pytest.fixture
def mp_config(tmp_path):
    path = tmp_path / "mp.json"
    path.write_text(json.dumps({"p": 512, "n": 2048, "model": "logistic",
                                "loss": "logistic", "seed": 7}))
    return str(path)


@pytest.fixture
def signal_config(tmp_path):
    path = tmp_path / "sig.json"
    path.write_text(json.dumps({"p": 512, "n": 2048,
                                "mu": "pm_block(0.89442719099991588)",
                                "model": "logistic", "loss": "logistic",
                                "seed": 7}))
    return str(path)


class TestDensityCommand:
    def test_table_format(self, mp_config, tmp_path):
        out = str(tmp_path / "d.csv")
        rc = main(["density", "--config", mp_config, "--range", "0.0:0.7",
                   "--grid", "20", "--out", out])
        assert rc == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "# x,density"
        assert len(lines) == 21
        first = lines[1].split(",")
        assert len(first) == 2 and float(first[0]) == 0.0

    def test_constant_weight_support_is_mp(self, mp_config, tmp_path):
        out = str(tmp_path / "d.csv")
        assert main(["density", "--config", mp_config, "--grid", "300",
                     "--out", out]) == 0
        data = np.loadtxt(out, delimiter=",", comments="#")
        x, rho = data[:, 0], data[:, 1]
        occupied = x[rho > 1e-3 * rho.max()]
        assert occupied.min() == pytest.approx(0.0625, abs=5e-3)
        assert occupied.max() == pytest.approx(0.5625, abs=5e-3)

    def test_byte_reproducible(self, signal_config, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["density", "--config", signal_config, "--grid", "50",
              "--range", "0.0:0.7", "--out", a])
        main(["density", "--config", signal_config, "--grid", "50",
              "--range", "0.0:0.7", "--out", b])
        assert open(a, "rb").read() == open(b, "rb").read()


class TestSpikesCommand:
    def test_document_contents(self, signal_config, tmp_path):
        out = str(tmp_path / "s.json")
        assert main(["spikes", "--config", signal_config, "--out", out]) == 0
        doc = json.load(open(out))
        assert set(doc) == {"spec_echo", "results", "seeds", "tool_version"}
        spikes = doc["results"]["spikes"]
        assert len(spikes) == 1
        assert spikes[0]["lambda"] == pytest.approx(0.590625, abs=1e-6)
        assert spikes[0]["side"] == "right"
        assert len(spikes[0]["cos2"]) == 3

    def test_spec_echo_expands_vectors(self, signal_config, tmp_path):
        out = str(tmp_path / "s.json")
        main(["spikes", "--config", signal_config, "--out", out])
        echo = json.load(open(out))["spec_echo"]
        mu = np.array(echo["mu"])
        assert mu.shape == (512,)
        assert mu @ mu == pytest.approx(0.8, rel=1e-12)
        assert echo["seed"] == 7
        assert echo["weight"]["loss"] == "logistic"


class TestAlignCommand:
    def test_projection_matrix_present(self, signal_config, tmp_path):
        out = str(tmp_path / "a.json")
        assert main(["align", "--config", signal_config, "--out", out]) == 0
        spikes = json.load(open(out))["results"]["spikes"]
        proj = np.array(spikes[0]["projection"])
        assert proj.shape == (3, 3)
        assert proj[0, 0] / 0.8 == pytest.approx(0.464285714, abs=1e-6)


class TestSimulateCommand:
    def test_eigenvalue_table(self, mp_config, tmp_path):
        out = str(tmp_path / "e.csv")
        assert main(["simulate", "--config", mp_config, "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "# eigenvalue"
        assert len(lines) == 513
        vals = np.array([float(v) for v in lines[1:]])
        assert np.all(np.diff(vals) >= 0)


class TestCompareCommand:
    def test_report_with_seeds(self, signal_config, tmp_path):
        out = str(tmp_path / "c.json")
        assert main(["compare", "--config", signal_config, "--trials", "2",
                     "--grid", "200", "--out", out]) == 0
        doc = json.load(open(out))
        comp = doc["results"]["comparison"]
        assert comp["trials"] == 2
        assert doc["seeds"] == [7, 8]
        assert comp["density_l1"] < 0.2

    def test_window_does_not_clip_the_support(self, tmp_path):
        # --range draws the density on (0, 0.3); the report keeps the exact
        # Marchenko-Pastur support of g = 1/4 at c = 1/4
        path = tmp_path / "spike.json"
        path.write_text(json.dumps({"p": 256, "n": 1024, "mu": "pm_block(1.0)",
                                    "model": "logistic", "loss": "logistic",
                                    "seed": 7}))
        out = str(tmp_path / "c.json")
        assert main(["compare", "--config", str(path), "--range", "0.0:0.3",
                     "--trials", "1", "--grid", "100", "--out", out]) == 0
        (left, right), = json.load(open(out))["results"]["support"]["intervals"]
        assert left == pytest.approx(0.0625, abs=1e-12)
        assert right == pytest.approx(0.5625, abs=1e-12)


class TestSweepCommand:
    def test_row_count_and_threshold(self, mp_config, tmp_path):
        out = str(tmp_path / "w.csv")
        assert main(["sweep", "--config", mp_config, "--param", "mu_norm",
                     "--values", "0.4:1.0:3", "--out", out]) == 0
        data = np.loadtxt(out, delimiter=",", comments="#")
        assert data.shape == (3, 4)
        # 0.4^2 and 0.7^2 are below the detection threshold sqrt(c) = 0.5
        assert np.isnan(data[0, 1])
        assert data[2, 1] == pytest.approx(0.625, abs=1e-6)


class TestErrors:
    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"p": 8, "n": 16, "frobnicate": 1}))
        assert main(["density", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "frobnicate" in err and "valid keys" in err

    def test_malformed_json_exits_one(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["density", "--config", str(path)]) == 1

    def test_numeric_failure_exits_two(self, mp_config, monkeypatch, capsys):
        import hesspec.cli
        from hesspec.errors import NonConvergence

        def diverge(*args, **kwargs):
            raise NonConvergence("no root")

        monkeypatch.setattr(hesspec.cli, "run_trials", diverge)
        assert main(["simulate", "--config", mp_config]) == 2
        assert capsys.readouterr().err.startswith("numerical failure:")

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    @pytest.mark.parametrize("dist", ["cauchy", "student_t:2", "student_t:x",
                                      "gaussian:3"])
    def test_bad_feature_law_exits_one(self, mp_config, capsys, command, dist):
        assert main([command, "--config", mp_config, "--dist", dist]) == 1
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("values", ["0.5:1.0:0", "0.5:1.0:-2", "0.5:1.0",
                                        "0.5:1.0:x"])
    def test_bad_sweep_values_exit_one(self, mp_config, tmp_path, values):
        out = tmp_path / "w.csv"
        assert main(["sweep", "--config", mp_config, "--param", "mu_norm",
                     "--values", values, "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("text", ["1.0:0.5", "-inf:inf", "0:inf"],
                             ids=["reversed", "both_infinite",
                                  "upper_infinite"])
    def test_bad_range_exits_one(self, mp_config, capsys, text):
        assert main(["density", "--config", mp_config,
                     "--range=" + text]) == 1
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("text", ["0.5", "0:1:2", "a:1"])
    def test_range_not_a_pair_exits_one(self, mp_config, capsys, text):
        assert main(["density", "--config", mp_config,
                     "--range=" + text]) == 1
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("cfg", [
        {"p": "abc", "n": 16},
        {"p": 8, "n": 16, "cov": {"diag_blocks": [[1.0, "four"], [2.0, 4]]}},
        {"p": 8, "n": 16, "loss": "hinge"},
        {"p": 0, "n": 16},
        {"p": 8, "n": 256.7},
        {"p": 8, "n": 16, "mu": "pm_block(nan)"},
        {"p": 8, "n": 16, "quad_order": 0},
        {"p": 8, "n": 16, "quad_order": -3},
        {"p": 8, "n": 16, "quad_order": 2.5},
        {"p": True, "n": 4},
        {"p": 8, "n": 16, "quad_order": True},
        {"p": 8, "n": 16, "cov": True},
        {"p": 8, "n": 16, "seed": -1},
        {"p": 8, "n": 16, "cov": {"scale": True}},
        {"p": 8, "n": 16, "cov": {"diag": [True] + [1.0] * 7}},
        {"p": 8, "n": 16, "cov": [2.0] * 7 + [True]},
        {"p": 2, "n": 16, "cov": {"matrix": [[2.0, False], [False, 2.0]]}},
        {"p": 8, "n": 16, "mu": [True, False] * 4},
        {"p": 8, "n": 16, "cov": {"diag_blocks": [[True, 4], [2.0, 4]]}},
        {"p": 8, "n": 16, "cov": {"diag_blocks": [[1.0, True], [2.0, 7]]}},
        {"p": 4, "n": 16, "cov": {"diag_blocks": [[1.0, 2.7], [2.0, 2.2]]}},
        {"p": 8, "n": 16, "loss": "square",
         "model": {"kind": "noisy_factor", "sigma": True}},
        {"p": 8, "n": 16, "loss": "square",
         "model": {"kind": "noisy_factor", "sigma": float("nan")}},
        {"p": 8, "n": 16, "loss": "square",
         "model": {"kind": "noisy_factor", "sigma": float("inf")}},
        {"p": 2, "n": 16, "cov": {"scale": 2.0, "diag": [1.0, 3.0]}},
        {"p": 2, "n": 16, "cov": {"diag": [1.0, 3.0],
                                  "matrix": [[1.0, 0.0], [0.0, 3.0]]}},
        {"p": 8, "n": 16, "loss": "square",
         "model": {"kind": "noisy_factor", "sigma": 0.3, "sgima": 5}},
        {"p": 8, "n": 16, "loss": "square",
         "model": {"kind": "single_layer_nn", "link": "identity"}},
    ], ids=["p_not_integer", "diag_blocks_count", "unknown_loss", "p_zero",
            "n_fractional", "mu_nan", "quad_order_zero",
            "quad_order_negative", "quad_order_fractional", "p_bool",
            "quad_order_bool", "cov_bool", "seed_negative", "scale_bool",
            "diag_bool", "cov_list_bool", "matrix_bool", "mu_bool",
            "diag_blocks_value_bool", "diag_blocks_count_bool",
            "diag_blocks_count_fractional", "sigma_bool", "sigma_nan",
            "sigma_infinite", "cov_scale_and_diag", "cov_diag_and_matrix",
            "model_misspelt_sigma", "model_network_link"])
    def test_invalid_config_value_exits_one(self, tmp_path, capsys, cfg):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["spikes", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("command", ["spikes", "simulate"])
    @pytest.mark.parametrize("model, loss", [
        ("phase_retrieval", "logistic"), ("phase_retrieval", "exponential"),
        ({"kind": "noisy_factor"}, "logistic"),
        ({"kind": "single_layer_nn"}, "exponential")],
        ids=["phase_logistic", "phase_exponential", "factor_logistic",
             "network_exponential"])
    def test_binary_loss_without_labels_exits_one(self, tmp_path, capsys,
                                                  command, model, loss):
        # only the logistic model draws the labels in {-1, +1} that the
        # logistic and exponential losses need
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"p": 8, "n": 32, "model": model,
                                    "loss": loss,
                                    "w_star": "pm_block(1.0)"}))
        assert main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "labels" in err

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_negative_seed_flag_exits_one(self, mp_config, capsys, command):
        assert main([command, "--config", mp_config, "--seed", "-1"]) == 1
        assert capsys.readouterr().err.startswith("config error:")

    def test_quad_order_zero_flag_exits_one(self, mp_config, capsys):
        assert main(["spikes", "--config", mp_config,
                     "--quad-order", "0"]) == 1
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("grid", ["0", "1"])
    def test_grid_below_two_exits_one(self, mp_config, grid):
        assert main(["density", "--config", mp_config, "--grid", grid]) == 1

    def test_compare_without_trials_exits_one(self, mp_config):
        assert main(["compare", "--config", mp_config, "--trials", "0",
                     "--grid", "50"]) == 1

    def test_negative_preset_trials_exits_one(self, tmp_path):
        out = tmp_path / "p"
        assert main(["preset", "fig2", "--trials", "-1",
                     "--out", str(out)]) == 1
        assert not out.exists()

    def test_invalid_preset_config_leaves_no_directory(self, tmp_path):
        out = tmp_path / "p"
        assert main(["preset", "fig5", "--trials", "0", "--quad-order", "0",
                     "--out", str(out)]) == 1
        assert not out.exists()

    def test_fig4_without_trials_exits_one(self, tmp_path):
        assert main(["preset", "fig4", "--trials", "0",
                     "--out", str(tmp_path)]) == 1


class TestSeedOverride:
    @pytest.mark.parametrize("args", [
        ["density", "--grid", "50"],
        ["spikes"],
        ["align"],
        ["simulate"],
        ["compare", "--trials", "1", "--grid", "50"],
        ["sweep", "--param", "w_norm", "--values", "0.5:1.5:2"],
    ], ids=lambda a: a[0])
    def test_equals_config_with_that_seed(self, tmp_path, args):
        cfg = {"p": 64, "n": 256, "mu": "gaussian_norm(1.2)",
               "w": "gaussian_norm(0.8)", "model": "logistic",
               "loss": "logistic", "seed": 7}
        paths = {}
        for seed in (7, 5):
            paths[seed] = tmp_path / f"s{seed}.json"
            paths[seed].write_text(json.dumps(dict(cfg, seed=seed)))

        def run(config, *extra):
            out = tmp_path / "out"
            assert main(args + ["--config", str(config), "--out", str(out),
                                *extra]) == 0
            return out.read_bytes()

        overridden = run(paths[7], "--seed", "5")
        assert overridden == run(paths[5])
        assert overridden != run(paths[7])


class TestQuadOrder:
    """--quad-order reaches the support, the spike and the sweep: at order
    400 the model spike matches the scalar oracle at the same order, which
    the default order 96 misses by more than 1e-6 at |w| = 8."""

    @pytest.mark.parametrize("args", [
        ["spikes"], ["sweep", "--param", "w_norm", "--values", "8:8:1"]],
        ids=lambda a: a[0])
    def test_reaches_every_layer(self, tmp_path, args):
        path = tmp_path / "w8.json"
        path.write_text(json.dumps({"p": 800, "n": 8000, "w": "pm_block(8)",
                                    "model": "logistic", "loss": "logistic"}))
        gap, _, loc, _ = model_spike_scalar(8.0, 0.1, order=400)

        def spike(*extra):
            out = tmp_path / "out"
            assert main(args + ["--config", str(path), "--out", str(out),
                                *extra]) == 0
            if args[0] == "sweep":
                row = np.loadtxt(out, delimiter=",", comments="#", ndmin=2)[0]
                return np.array([row[1], row[2]])
            first = json.load(open(out))["results"]["spikes"][0]
            return np.array([first["lambda"], first["gap"]])

        np.testing.assert_allclose(spike("--quad-order", "400"), [loc, gap],
                                   rtol=0, atol=1e-9)
        assert np.all(np.abs(spike() - [loc, gap]) > 1e-6)

    def test_echoed_in_the_document(self, signal_config, tmp_path):
        out = tmp_path / "s.json"
        for args, order in (([], 96), (["--quad-order", "48"], 48)):
            assert main(["spikes", "--config", signal_config, "--out",
                         str(out), *args]) == 0
            assert json.load(open(out))["spec_echo"]["quad_order"] == order


class TestStdout:
    @pytest.mark.parametrize("command", ["density", "spikes"])
    def test_stdout_matches_out_file(self, signal_config, tmp_path, capsys,
                                     command):
        args = [command, "--config", signal_config]
        if command == "density":
            args += ["--grid", "100"]
        out = tmp_path / "out"
        assert main(args + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()

    def test_density_solves_only_inside_the_support(self, mp_config, capsys,
                                                   monkeypatch):
        import hesspec.bulk
        import hesspec.cli
        import hesspec.empirical
        import hesspec.presets
        import hesspec.spikes
        from hesspec import build_spec, default_scan_range, load_config
        from hesspec.bulk import support

        def forbidden(*args, **kwargs):
            raise AssertionError("density needs no spikes and no Monte Carlo")

        for module in (hesspec.spikes, hesspec.presets, hesspec.cli):
            monkeypatch.setattr(module, "find_spikes", forbidden, raising=False)
        for module in (hesspec.empirical, hesspec.presets, hesspec.cli):
            monkeypatch.setattr(module, "compare", forbidden, raising=False)
        calls = []
        iterate = hesspec.bulk._iterate

        def counted(eng, t, wts, c, z, start):
            calls.extend(np.real(z))
            return iterate(eng, t, wts, c, z, start)

        monkeypatch.setattr(hesspec.bulk, "_iterate", counted)
        assert main(["density", "--config", mp_config, "--grid", "20"]) == 0
        assert capsys.readouterr().out.startswith("# x,density\n")
        spec, _ = build_spec(load_config(mp_config))
        lo, hi = default_scan_range(spec)
        grid = np.linspace(lo, hi, 20)
        inside = [x for x in grid if any(a <= x <= b for a, b in support(
            spec, (lo, hi)).intervals if b > a)]
        assert 0 < len(inside) < 20 and sorted(calls) == inside
