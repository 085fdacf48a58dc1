import json

import pytest

from snodep.config import DEFAULTS, load_config, resolve_heads
from snodep.data import ValidationError


class TestLoadConfig:
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
