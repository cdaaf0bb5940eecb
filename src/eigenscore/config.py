"""Run configuration: a single JSON document validated up front.

Unknown keys are rejected everywhere so that a typo fails loudly instead
of silently falling back to a default.
"""
from __future__ import annotations

import json

import jsonschema

from .errors import ConfigError
from .gmm import GaussianMixture
from .mlp import MlpDenoiser, TrainConfig
from .pipeline import AGGREGATIONS, FeatureConfig
from .schedule import KINDS, NoiseSchedule, build_schedule, default_timesteps
from .spectral import SpectralConfig

_NUMBER_ROW = {"type": "array", "items": {"type": "number"}, "minItems": 1}

MODEL_GMM_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind", "weights", "means", "covariances"],
    "properties": {
        "kind": {"const": "gmm"},
        "weights": _NUMBER_ROW,
        "means": {"type": "array", "items": _NUMBER_ROW, "minItems": 1},
        "covariances": {
            "type": "array",
            "items": {"type": "array", "items": _NUMBER_ROW, "minItems": 1},
            "minItems": 1,
        },
    },
}

MODEL_MLP_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind", "checkpoint"],
    "properties": {
        "kind": {"const": "mlp"},
        "checkpoint": {"type": "string"},
    },
}

SPECTRAL_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "n_iters": {"type": "integer", "minimum": 1},
        "fd_rel": {"type": "number", "exclusiveMinimum": 0},
        "early_stop_tol": {"type": "number", "minimum": 0},
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "seed": {"type": "integer", "minimum": 0},
        "model": {"oneOf": [MODEL_GMM_SCHEMA, MODEL_MLP_SCHEMA]},
        "schedule": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": list(KINDS)},
                "sigma_min": {"type": "number", "exclusiveMinimum": 0},
                "sigma_max": {"type": "number", "exclusiveMinimum": 0},
                "t_max": {"type": "integer", "minimum": 2},
            },
        },
        "feature": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "timesteps": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 1},
                    "minItems": 1,
                },
                "top_k": {"type": "integer", "minimum": 1},
                "n_reps": {"type": "integer", "minimum": 1},
                "aggregation": {"enum": list(AGGREGATIONS)},
                "spectral": SPECTRAL_SCHEMA,
            },
        },
        "data": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n": {"type": "integer", "minimum": 1},
                "stream": {"type": "integer", "minimum": 0},
            },
        },
        "train": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "steps": {"type": "integer", "minimum": 1},
                "batch_size": {"type": "integer", "minimum": 1},
                "lr": {"type": "number", "exclusiveMinimum": 0},
                "hidden": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 1},
                    "minItems": 1,
                },
                "seed": {"type": "integer", "minimum": 0},
            },
        },
    },
}

CALIBRATION_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["metric", "timesteps", "aggregation", "mu", "sigma", "layout", "n_train"],
    "properties": {
        "metric": {"type": "string"},
        "timesteps": {"type": "array", "items": {"type": "integer"}},
        "aggregation": {"enum": list(AGGREGATIONS)},
        "mu": _NUMBER_ROW,
        "sigma": _NUMBER_ROW,
        "layout": {
            "type": "array",
            "items": {
                "type": "array",
                "items": {"type": "integer"},
                "minItems": 2,
                "maxItems": 2,
            },
        },
        "n_train": {"type": "integer", "minimum": 2},
        "config_hash": {"type": "string"},
    },
}


def _validate(doc, schema, label: str) -> None:
    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as e:
        where = "/".join(str(p) for p in e.absolute_path) or "<top level>"
        raise ConfigError(f"{label} invalid at {where}: {e.message}") from e


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    _validate(doc, CONFIG_SCHEMA, f"config {path}")
    return doc


def require(cfg: dict, section: str) -> dict:
    if section not in cfg:
        raise ConfigError(f"config is missing the {section!r} section")
    return cfg[section]


def model_from_config(cfg: dict):
    section = require(cfg, "model")
    if section["kind"] == "gmm":
        return GaussianMixture(section["weights"], section["means"], section["covariances"])
    return MlpDenoiser.load(section["checkpoint"])


def schedule_from_config(cfg: dict) -> NoiseSchedule:
    s = cfg.get("schedule", {})
    return build_schedule(
        kind=s.get("kind", "geometric"),
        sigma_min=s.get("sigma_min", 0.02),
        sigma_max=s.get("sigma_max", 10.0),
        t_max=s.get("t_max", 1000),
    )


def feature_config_from_config(cfg: dict, schedule: NoiseSchedule) -> FeatureConfig:
    # the schema admits only dataclass fields, so omitted keys take the
    # dataclass defaults
    f = dict(cfg.get("feature", {}))
    spectral = f.pop("spectral", {})
    if "timesteps" not in f:
        f["timesteps"] = default_timesteps(schedule)
    config = FeatureConfig(**f)
    config.spectral = SpectralConfig(top_k=config.top_k, **spectral)
    return config


def train_config_from_config(cfg: dict) -> tuple[TrainConfig, tuple[int, ...]]:
    t = dict(cfg.get("train", {}))
    hidden = tuple(t.pop("hidden", (128, 128)))
    return TrainConfig(**t), hidden


def load_calibration_doc(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"calibration {path} is not valid JSON: {e}") from e
    _validate(doc, CALIBRATION_SCHEMA, f"calibration {path}")
    return doc
