"""Run configuration: a sectioned JSON document with full defaults.

Unknown keys are rejected so typos fail fast. ``None`` values mean "derive
from the data kind" (head, latent family); the encoder follows from
``model.kind`` (``models.ENCODER_FOR_KIND``).
"""

from __future__ import annotations

import copy
import json

from .data import ValidationError
from .models import ENCODER_FOR_KIND

DEFAULTS = {
    "model": {
        "kind": "snodep",          # np | nodep | snodep | snodep_gruode
        "head": None,              # poisson | gaussian; derived from data.kind
        "latent_family": None,     # lognormal | normal; derived from data.kind
        "d_r": 64,
        "d_z": 32,
        "d_d": 32,
        "hidden": 64,
        "encode_time": False,
    },
    "solver": {
        "method": "rk4",
        "steps_per_unit": 10,
    },
    "train": {
        "steps": 5000,
        "batch_size": 32,
        "lr": 1e-3,
        "seed": 0,
        "context_len": 8,
        "target_len": 13,
        "frequency": 1.0,
        "kl_weight": 1.0,
    },
    "eval": {
        "contexts": 8,
        "frequency": 1.0,
    },
    "data": {
        "kind": "expression",      # expression | flux | balance
        "normalized": False,
    },
    "scfea": {
        "steps": 1000,
        "lr": 5e-3,
        "hidden": 16,
        "lambda_nt": 0.1,
        "seed": 0,
    },
    "knockout": {
        "k": 20,
        "subsets": 5,
        "seed": 0,
    },
}


def _merge(defaults, overrides, path=""):
    out = copy.deepcopy(defaults)
    for key, value in overrides.items():
        full = f"{path}{key}"
        if key not in defaults:
            raise ValidationError(f"unknown config key '{full}'")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ValidationError(f"config section '{full}' must be an object")
            out[key] = _merge(defaults[key], value, f"{full}.")
        else:
            out[key] = value
    return out


def load_config(path=None, overrides=None):
    """Defaults merged with an optional JSON file and an optional dict."""
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        with open(path) as fh:
            doc = json.load(fh)
        cfg = _merge(cfg, doc)
    if overrides:
        cfg = _merge(cfg, overrides)
    _validate(cfg)
    return cfg


def _validate(cfg):
    kind = cfg["model"]["kind"]
    if kind not in ENCODER_FOR_KIND:
        raise ValidationError(f"model.kind must be one of {sorted(ENCODER_FOR_KIND)}")
    if cfg["data"]["kind"] not in ("expression", "flux", "balance"):
        raise ValidationError("data.kind must be expression, flux, or balance")
    if not 0.0 < cfg["train"]["frequency"] <= 1.0:
        raise ValidationError("train.frequency must lie in (0, 1]")
    if not 0.0 < cfg["eval"]["frequency"] <= 1.0:
        raise ValidationError("eval.frequency must lie in (0, 1]")


def resolve_heads(cfg):
    """Fill derived head/latent-family choices from the data kind."""
    data_kind = cfg["data"]["kind"]
    raw_counts = data_kind == "expression" and not cfg["data"]["normalized"]
    head = cfg["model"]["head"] or ("poisson" if raw_counts else "gaussian")
    family = cfg["model"]["latent_family"] or (
        "lognormal" if data_kind == "expression" else "normal")
    return head, family
