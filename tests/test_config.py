import json

import pytest

from snodep.config import DEFAULTS, load_config, resolve_heads
from snodep.data import ValidationError


# the default document as `snodep train` writes it, keys in this order
DEFAULT_DOCUMENT = {
    "model": {"kind": "snodep", "head": None, "latent_family": None, "d_r": 64,
              "d_z": 32, "d_d": 32, "hidden": 64},
    "solver": {"method": "rk4", "steps_per_unit": 10},
    "train": {"steps": 5000, "batch_size": 32, "lr": 1e-3, "seed": 0,
              "context_len": 8, "target_len": 13, "frequency": 1.0, "kl_weight": 1.0},
    "eval": {"contexts": 8, "frequency": 1.0},
    "data": {"kind": "expression", "normalized": False},
    "scfea": {"steps": 1000, "lr": 5e-3, "hidden": 16, "lambda_nt": 0.1, "seed": 0},
    "knockout": {"k": 20, "subsets": 5, "seed": 0},
}


class TestLoadConfig:
    def test_default_document(self):
        assert json.dumps(load_config(), indent=2) == json.dumps(DEFAULT_DOCUMENT, indent=2)

    def test_defaults_returned_untouched(self):
        cfg = load_config()
        assert cfg == DEFAULTS
        assert cfg is not DEFAULTS

    def test_file_and_override_merge(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"train": {"steps": 7}}))
        cfg = load_config(p, overrides={"train": {"lr": 0.5}})
        assert cfg["train"]["steps"] == 7
        assert cfg["train"]["lr"] == 0.5
        assert cfg["train"]["batch_size"] == DEFAULTS["train"]["batch_size"]

    def test_unknown_keys_rejected_with_path(self):
        with pytest.raises(ValidationError, match="train.stepz"):
            load_config(overrides={"train": {"stepz": 1}})
        with pytest.raises(ValidationError, match="'traain'"):
            load_config(overrides={"traain": {}})
        with pytest.raises(ValidationError, match="unknown config key 'model.encode_time'"):
            load_config(overrides={"model": {"encode_time": False}})

    def test_section_must_be_object(self):
        with pytest.raises(ValidationError):
            load_config(overrides={"train": 3})

    def test_kind_encoder_consistency(self):
        # the encoder follows from model.kind; there is no key to contradict it
        with pytest.raises(ValidationError, match="unknown config key 'model.encoder'"):
            load_config(overrides={"model": {"kind": "np", "encoder": "lstm"}})

    def test_value_validation(self):
        with pytest.raises(ValidationError):
            load_config(overrides={"model": {"kind": "gp"}})
        with pytest.raises(ValidationError):
            load_config(overrides={"data": {"kind": "protein"}})
        with pytest.raises(ValidationError):
            load_config(overrides={"train": {"frequency": 0.0}})
        with pytest.raises(ValidationError):
            load_config(overrides={"eval": {"frequency": 1.5}})


    @pytest.mark.parametrize("override, message", [
        ({"train": {"steps": "5"}}, "config key 'train.steps' must be int"),
        ({"train": {"steps": True}}, "config key 'train.steps' must be int"),
        ({"solver": {"steps_per_unit": 2.0}}, "config key 'solver.steps_per_unit' must be int"),
        ({"train": {"lr": "0.1"}}, "config key 'train.lr' must be float"),
        ({"data": {"normalized": "no"}}, "config key 'data.normalized' must be bool"),
        ({"model": {"head": 1}}, "config key 'model.head' must be str or null"),
        ({"model": {"kind": None}}, "config key 'model.kind' must be str"),
    ])
    def test_value_types(self, override, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            load_config(overrides=override)

    def test_int_passes_for_float_and_null_for_null(self):
        cfg = load_config(overrides={"train": {"lr": 1},
                                     "model": {"head": None, "latent_family": "normal"}})
        assert cfg["train"]["lr"] == 1
        assert resolve_heads(cfg) == ("poisson", "normal")

    @pytest.mark.parametrize("override, message", [
        ({"train": {"batch_size": 0}}, "section 'train': batch_size must be >= 1"),
        ({"model": {"d_z": 0}}, "section 'model': d_z must be >= 1"),
        ({"model": {"d_r": 0}}, "section 'model': d_r must be >= 1"),
        ({"model": {"d_d": 0}}, "section 'model': d_d must be >= 1"),
        ({"model": {"hidden": 0}}, "section 'model': hidden must be >= 1"),
        ({"solver": {"steps_per_unit": 0}}, "section 'solver': steps_per_unit must be >= 1"),
        ({"scfea": {"hidden": 0}}, "section 'scfea': hidden must be >= 1"),
        ({"eval": {"contexts": 0}}, "eval.contexts must be >= 1"),
        ({"scfea": {"lambda_nt": -1}}, "section 'scfea': lambda_nt must be >= 0"),
        ({"scfea": {"lr": 0}}, "section 'scfea': lr must be > 0"),
        ({"scfea": {"lr": -0.01}}, "section 'scfea': lr must be > 0"),
        ({"scfea": {"steps": -1}}, "section 'scfea': steps must be >= 0"),
        ({"train": {"lr": 0.0}}, "section 'train': lr must be > 0"),
        ({"train": {"lr": -1e-3}}, "section 'train': lr must be > 0"),
        ({"train": {"steps": -5}}, "section 'train': steps must be >= 0"),
        ({"train": {"kl_weight": -0.5}}, "section 'train': kl_weight must be >= 0"),
        ({"train": {"context_len": 13}},
         "section 'train': context_len must be < target_len"),
        ({"train": {"context_len": 8, "target_len": 6}},
         "section 'train': context_len must be < target_len"),
        ({"knockout": {"k": 0}}, "knockout.k must be >= 1"),
        ({"knockout": {"subsets": 1}}, "knockout.subsets must be >= 2"),
    ])
    def test_ranges_name_the_key(self, override, message):
        with pytest.raises(ValidationError, match=message):
            load_config(overrides=override)

    def test_range_edges_accepted(self):
        load_config(overrides={"train": {"steps": 0, "kl_weight": 0, "context_len": 12},
                               "scfea": {"steps": 0, "lambda_nt": 0},
                               "knockout": {"k": 1, "subsets": 2}})


class TestResolveHeads:
    def test_raw_expression_defaults(self):
        head, family = resolve_heads(load_config())
        assert (head, family) == ("poisson", "lognormal")

    def test_normalized_expression(self):
        cfg = load_config(overrides={"data": {"normalized": True}})
        head, family = resolve_heads(cfg)
        assert (head, family) == ("gaussian", "lognormal")

    def test_flux_defaults(self):
        cfg = load_config(overrides={"data": {"kind": "flux"}})
        assert resolve_heads(cfg) == ("gaussian", "normal")

    def test_explicit_choices_win(self):
        cfg = load_config(overrides={"model": {"head": "gaussian",
                                               "latent_family": "normal"}})
        assert resolve_heads(cfg) == ("gaussian", "normal")
