"""Run configuration: a JSON document of seven sections with full defaults.

The typed configs (``ModelConfig``, ``SolverConfig``, ``TrainConfig``,
``ScfeaConfig``) hold the defaults and range rules of the keys they back.
``load_config`` merges the defaults, a JSON file, then overrides (the CLI's
flags); it rejects unknown keys and values not of their default's type (an
int passes for a float, a string for a null) and builds the typed configs.
"""

from __future__ import annotations

import copy
import json
from dataclasses import fields

from .data import DATASET_KINDS, ValidationError
from .models import ModelConfig
from .ode import SolverConfig
from .scfea import ScfeaConfig
from .training import TrainConfig


def _defaults(cls, names=None):
    """The field defaults of dataclass ``cls``, in field order."""
    return {f.name: f.default for f in fields(cls) if names is None or f.name in names}


DEFAULTS = {
    "model": {
        "kind": "snodep",          # np | nodep | snodep | snodep_gruode
        "head": None,              # poisson | gaussian; derived from data.kind
        "latent_family": None,     # lognormal | normal; derived from data.kind
        **_defaults(ModelConfig, ("d_r", "d_z", "d_d", "hidden")),
    },
    "solver": _defaults(SolverConfig),
    "train": _defaults(TrainConfig),
    "eval": {"contexts": 8, "frequency": 1.0},
    "data": {"kind": "expression", "normalized": False},  # kind: expression | flux | balance
    "scfea": _defaults(ScfeaConfig),
    "knockout": {"k": 20, "subsets": 5, "seed": 0},
}

# type of a key's default -> (the exact types a value may have, their name)
_ACCEPTS = {bool: ((bool,), "bool"), int: ((int,), "int"),
            float: ((int, float), "float"), str: ((str,), "str"),
            type(None): ((str, type(None)), "str or null")}


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
            types, name = _ACCEPTS[type(defaults[key])]
            if type(value) not in types:
                raise ValidationError(f"config key '{full}' must be {name}")
            out[key] = value
    return out


def load_config(path=None, overrides=None):
    """Defaults merged with an optional JSON file, then an optional dict."""
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        with open(path) as fh:
            cfg = _merge(cfg, json.load(fh))
    cfg = _merge(cfg, overrides or {})
    _validate(cfg)
    return cfg


def _validate(cfg):
    if cfg["data"]["kind"] not in DATASET_KINDS:
        raise ValidationError(f"data.kind must be one of {DATASET_KINDS}")
    if cfg["eval"]["contexts"] < 1:
        raise ValidationError("eval.contexts must be >= 1")
    if not 0.0 < cfg["eval"]["frequency"] <= 1.0:
        raise ValidationError("eval.frequency must lie in (0, 1]")
    if cfg["knockout"]["k"] < 1:
        raise ValidationError("knockout.k must be >= 1")
    if cfg["knockout"]["subsets"] < 2:
        raise ValidationError("knockout.subsets must be >= 2, for a train/test split")
    model_config(cfg, d_y=1)    # d_y comes from the data
    train_config(cfg)
    scfea_config(cfg)


def resolve_heads(cfg):
    """Fill derived head/latent-family choices from the data kind."""
    data_kind = cfg["data"]["kind"]
    raw_counts = data_kind == "expression" and not cfg["data"]["normalized"]
    head = cfg["model"]["head"] or ("poisson" if raw_counts else "gaussian")
    family = cfg["model"]["latent_family"] or (
        "lognormal" if data_kind == "expression" else "normal")
    return head, family


def _typed(cls, section, values, **extra):
    """``cls(**values, **extra)``; a broken rule names the config section."""
    try:
        return cls(**values, **extra)
    except ValueError as exc:
        raise ValidationError(f"config section '{section}': {exc}") from None


def model_config(cfg, d_y):
    """The ``ModelConfig`` of ``cfg`` for data with ``d_y`` features."""
    head, family = resolve_heads(cfg)
    return _typed(ModelConfig, "model",
                  {**cfg["model"], "head": head, "latent_family": family},
                  d_y=d_y, solver=_typed(SolverConfig, "solver", cfg["solver"]))


def train_config(cfg):
    return _typed(TrainConfig, "train", cfg["train"])


def scfea_config(cfg):
    return _typed(ScfeaConfig, "scfea", cfg["scfea"])
