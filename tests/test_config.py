import json

import numpy as np
import pytest

from hesspec import (DenseSPD, Diagonal, ScaledIdentity, build_spec,
                     load_config, spec_echo)
from hesspec.errors import ConfigError


def base(**kw):
    cfg = {"p": 4, "n": 16, "seed": 3}
    cfg.update(kw)
    return cfg


DENSE = [[2.0, 0.5, 0.0, 0.0], [0.5, 1.0, 0.0, 0.0],
         [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 3.0]]


class TestCovariance:
    @pytest.mark.parametrize("entry, kind, value", [
        (2.5, ScaledIdentity, 2.5),
        ({"scale": 0.5}, ScaledIdentity, 0.5),
        ([1.0, 2.0, 3.0, 4.0], Diagonal, [1.0, 2.0, 3.0, 4.0]),
        ({"diag": [4.0, 3.0, 2.0, 1.0]}, Diagonal, [4.0, 3.0, 2.0, 1.0]),
        ({"diag_blocks": [[1.0, 1], [2.0, 3]]}, Diagonal, [1.0, 2.0, 2.0, 2.0]),
        ({"matrix": DENSE}, DenseSPD, DENSE),
    ], ids=["number", "scale", "list", "diag", "diag_blocks", "matrix"])
    def test_forms(self, entry, kind, value):
        cov = build_spec(base(cov=entry))[0].cov
        assert isinstance(cov, kind)
        field = {ScaledIdentity: "scale", Diagonal: "entries",
                 DenseSPD: "matrix"}[kind]
        np.testing.assert_array_equal(getattr(cov, field), value)

    @pytest.mark.parametrize("entry", [
        {"diag_blocks": [[1.0, 1], [2.0, 2]]}, {"eigen": [1.0]}, "identity",
        [1.0, 2.0], {"matrix": np.diag([1.0, 1.0, 1.0, -1.0]).tolist()},
        {"scale": "nan"}, {"scale": "inf"},
        {"diag_blocks": [[1.0, 2], ["nan", 2]]},
        {"matrix": np.diag([1.0, 1.0, 1.0, np.inf]).tolist()},
        {"scale": 2.0, "diag": [1.0, 3.0, 1.0, 3.0]},
        {"diag": [1.0, 3.0, 1.0, 3.0], "matrix": DENSE}, {}],
        ids=["blocks_miss_p", "unknown_dict", "string", "diag_miss_p",
             "matrix_not_definite", "scale_nan", "scale_inf",
             "diag_blocks_nan", "matrix_inf", "scale_and_diag",
             "diag_and_matrix", "empty_dict"])
    def test_rejected(self, entry):
        with pytest.raises(ConfigError):
            build_spec(base(cov=entry))


class TestModel:
    @pytest.mark.parametrize("entry, at_one", [
        ({"kind": "noisy_factor"}, 1.0),
        ({"kind": "noisy_factor", "link": "tanh", "sigma": 0.3}, np.tanh(1.0)),
    ], ids=["identity", "tanh"])
    def test_noisy_factor(self, entry, at_one):
        model = build_spec(base(model=entry, loss="square"))[0].model
        assert model.kind == "noisy_factor"
        assert model.sigma == entry.get("sigma", 0.0)
        assert model.link(1.0) == at_one

    def test_single_layer_nn(self):
        model = build_spec(base(model={"kind": "single_layer_nn"},
                                loss="square"))[0].model
        assert model.kind == "single_layer_nn"
        assert model.link(1.0) == np.tanh(1.0)

    @pytest.mark.parametrize("entry", [
        {"kind": "noisy_factor", "link": "relu"},
        {"kind": "single_layer_nn", "activation": "relu"},
        {"kind": "noisy_factor", "sigma": -1.0},
        {"kind": "teacher"}, "probit",
        {"kind": "noisy_factor", "sigma": 0.3, "sgima": 5},
        {"kind": "single_layer_nn", "link": "identity"},
        {"kind": "noisy_factor", "activation": "tanh"}],
        ids=["unknown_link", "unknown_activation", "negative_sigma",
             "unknown_kind", "unknown_name", "misspelt_sigma",
             "network_link", "factor_activation"])
    def test_rejected(self, entry):
        # the square loss takes every model, so no label check rejects it
        with pytest.raises(ConfigError):
            build_spec(base(model=entry, loss="square"))


class TestVectorsAndKeys:
    @pytest.mark.parametrize("cfg", [
        base(mu=[1.0, 2.0]),
        base(p=5, w="pm_block(1.0)"),
        base(w="ones(1.0)"),
        base(w=3.0),
        base(loss="logistic", weight="trim"),
        base(weight="clip"),
        {"n": 16},
        base(mu="mu"),
    ], ids=["literal_length", "pm_block_odd_p", "unknown_pattern",
            "not_a_vector", "loss_and_weight", "unknown_weight", "missing_p",
            "mu_alias_without_mu"])
    def test_rejected(self, cfg):
        with pytest.raises(ConfigError):
            build_spec(cfg)

    def test_literal_and_alias(self):
        spec, seed = build_spec(base(mu=[1.0, 0.0, 0.0, 2.0], w_star="mu"))
        np.testing.assert_array_equal(spec.mu, [1.0, 0.0, 0.0, 2.0])
        np.testing.assert_array_equal(spec.w_star, spec.mu)
        assert seed == 3

    def test_load_rejects_a_non_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([1, 2]))
        with pytest.raises(ConfigError):
            load_config(str(path))


class TestSpecEcho:
    def test_diagonal(self):
        echo = spec_echo(build_spec(base(cov=[1.0, 2.0, 3.0, 4.0]))[0], 3)
        assert echo["cov"] == {"kind": "diagonal",
                               "entries": [1.0, 2.0, 3.0, 4.0]}
        assert echo["seed"] == 3

    def test_dense(self):
        echo = spec_echo(build_spec(base(cov={"matrix": DENSE}))[0])
        assert echo["cov"] == {"kind": "dense_spd", "matrix": DENSE}
        assert "seed" not in echo

    def test_link_is_echoed(self):
        def echo(model):
            cfg = base(model=model, loss="square")
            return spec_echo(build_spec(cfg)[0])["model"]

        identity = echo({"kind": "noisy_factor", "sigma": 0.5})
        tanh = echo({"kind": "noisy_factor", "link": "tanh", "sigma": 0.5})
        assert identity == {"kind": "noisy_factor", "sigma": 0.5,
                            "link": "identity"}
        assert tanh == dict(identity, link="tanh")
        assert echo({"kind": "single_layer_nn"}) == {
            "kind": "single_layer_nn", "sigma": 0.0, "activation": "tanh"}
        assert echo("logistic") == {"kind": "logistic", "sigma": 0.0}

    def test_trim_bounds(self):
        spec = build_spec(base(model="phase_retrieval", weight="trim"))[0]
        echo = json.loads(json.dumps(spec_echo(spec)))
        assert echo["weight"]["kind"] == "preprocess"
        assert echo["weight"]["bounds"] == [-1.0 / (np.sqrt(8.0) - 1.0), 1.0]
