"""Run configuration: a single JSON document validated up front.

Unknown keys are rejected everywhere so that a typo fails loudly instead
of silently falling back to a default.
"""
from __future__ import annotations

import json

from jsonschema import Draft202012Validator, ValidationError
from jsonschema.exceptions import best_match
from jsonschema.validators import extend

from .errors import BadRangeError, ConfigError, IndexOutOfRangeError
from .gmm import GaussianMixture
from .mlp import DEFAULT_HIDDEN, MlpDenoiser, TrainConfig
from .pipeline import AGGREGATIONS, FeatureConfig
from .schedule import KINDS, NoiseSchedule, build_schedule, default_timesteps, validate_timesteps
from .spectral import SpectralConfig


def _number_errors(value, depth: int, path: tuple):
    """Errors of a non-empty array nested `depth` deep with number leaves.

    Each error names the path and message that the per-item schema
    {"type": "array", "items": ..., "minItems": 1} around {"type": "number"}
    would give, without running every number through the type machinery.
    """
    if type(value) is not list:
        yield ValidationError(f"{value!r} is not of type 'array'", path=path, instance=value)
    elif not value:
        yield ValidationError(f"{value!r} should be non-empty", path=path, instance=value)
    elif depth == 1:
        for i, v in enumerate(value):
            if type(v) is not float and type(v) is not int:
                yield ValidationError(
                    f"{v!r} is not of type 'number'", path=(*path, i), instance=v
                )
    else:
        for i, row in enumerate(value):
            yield from _number_errors(row, depth - 1, (*path, i))


def _numbers(validator, depth, instance, schema):
    # the "numbers" keyword: {"numbers": 2} is a non-empty array of
    # non-empty arrays of numbers
    yield from _number_errors(instance, depth, ())


# JSON Schema counts 2.0 as an integer, which range() and shapes reject
_INTEGER = Draft202012Validator.TYPE_CHECKER.redefine("integer", lambda _, v: type(v) is int)
_Validator = extend(Draft202012Validator, {"numbers": _numbers}, type_checker=_INTEGER)

MODEL_GMM_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind", "weights", "means", "covariances"],
    "properties": {
        "kind": {"const": "gmm"},
        "weights": {"numbers": 1},
        "means": {"numbers": 2},
        "covariances": {"numbers": 3},
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
        # dispatch on kind, so an error names the field of the kind given
        "model": {
            "type": "object",
            "required": ["kind"],
            "properties": {"kind": {"enum": ["gmm", "mlp"]}},
            "allOf": [
                {"if": {"properties": {"kind": {"const": kind}}}, "then": schema}
                for kind, schema in (("gmm", MODEL_GMM_SCHEMA), ("mlp", MODEL_MLP_SCHEMA))
            ],
        },
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
        "mu": {"numbers": 1},
        "sigma": {"numbers": 1},
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


_CONFIG_VALIDATOR = _Validator(CONFIG_SCHEMA)
_CALIBRATION_VALIDATOR = _Validator(CALIBRATION_SCHEMA)


def _validate(doc, validator, label: str) -> None:
    e = best_match(validator.iter_errors(doc))
    if e is not None:
        where = "/".join(str(p) for p in e.absolute_path) or "<top level>"
        raise ConfigError(f"{label} invalid at {where}: {e.message}") from e


def load_config(path: str) -> dict:
    def no_constant(name):
        # Python's json reads these literals as floats the schema's numbers admit
        raise ConfigError(f"config {path} is not valid JSON: {name} is not a number")

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=no_constant)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    _validate(doc, _CONFIG_VALIDATOR, f"config {path}")
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
    try:
        return build_schedule(
            kind=s.get("kind", "geometric"),
            sigma_min=s.get("sigma_min", 0.02),
            sigma_max=s.get("sigma_max", 10.0),
            t_max=s.get("t_max", 1000),
        )
    except BadRangeError as e:
        raise ConfigError(f"config invalid at schedule: {e}") from None


def feature_config_from_config(cfg: dict, schedule: NoiseSchedule) -> FeatureConfig:
    # the schema admits only dataclass fields, so omitted keys take the
    # dataclass defaults
    f = dict(cfg.get("feature", {}))
    spectral = f.pop("spectral", {})
    f.setdefault("timesteps", default_timesteps(schedule))
    checked_timesteps(schedule, f["timesteps"], "config", "feature/timesteps")
    return FeatureConfig(**f, spectral=SpectralConfig(**spectral))


def checked_timesteps(schedule: NoiseSchedule, timesteps, label: str, where: str) -> tuple[int, ...]:
    """`validate_timesteps`, whose rejection of a document's selection is a
    ConfigError naming the document and the field."""
    try:
        return validate_timesteps(schedule, timesteps)
    except (BadRangeError, IndexOutOfRangeError) as e:
        raise ConfigError(f"{label} invalid at {where} for the config's schedule: {e}") from None


def train_config_from_config(cfg: dict) -> tuple[TrainConfig, tuple[int, ...]]:
    t = dict(cfg.get("train", {}))
    hidden = tuple(t.pop("hidden", DEFAULT_HIDDEN))
    return TrainConfig(**t), hidden


def load_calibration_doc(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ConfigError(f"calibration {path} is not valid JSON: {e}") from e
    _validate(doc, _CALIBRATION_VALIDATOR, f"calibration {path}")
    return doc
