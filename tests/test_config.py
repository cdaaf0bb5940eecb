import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from eigenscore.config import (
    CALIBRATION_SCHEMA,
    CONFIG_SCHEMA,
    feature_config_from_config,
    load_calibration_doc,
    load_config,
    model_from_config,
    require,
    schedule_from_config,
    train_config_from_config,
)
from eigenscore.errors import ConfigError
from eigenscore.gmm import GaussianMixture
from eigenscore.mlp import MlpDenoiser, TrainConfig
from eigenscore.pipeline import Calibration


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


GMM_MODEL = {
    "kind": "gmm",
    "weights": [0.5, 0.5],
    "means": [[-1.0], [1.0]],
    "covariances": [[[1.0]], [[1.0]]],
}


def test_minimal_config_loads_with_defaults(tmp_path):
    cfg = load_config(write_json(tmp_path, "c.json", {"model": GMM_MODEL}))
    sched = schedule_from_config(cfg)
    assert sched.kind == "geometric"
    assert sched.sigmas[0] == pytest.approx(0.02)
    assert sched.sigmas[-1] == pytest.approx(10.0)
    assert len(sched.sigmas) == 1000
    fcfg = feature_config_from_config(cfg, sched)
    assert fcfg.timesteps == (518, 630, 695, 741, 777)
    assert fcfg.top_k == 3 and fcfg.n_reps == 20 and fcfg.aggregation == "mean"
    assert fcfg.spectral.n_iters == 15
    assert fcfg.spectral.top_k == 3
    model = model_from_config(cfg)
    assert isinstance(model, GaussianMixture)
    assert model.n_components == 2


def test_explicit_sections_round_trip(tmp_path):
    doc = {
        "seed": 7,
        "model": GMM_MODEL,
        "schedule": {"kind": "linear", "sigma_min": 0.5, "sigma_max": 2.0, "t_max": 4},
        "feature": {
            "timesteps": [2, 3],
            "top_k": 1,
            "n_reps": 5,
            "aggregation": "median",
            "spectral": {"n_iters": 9, "fd_rel": 1e-2, "early_stop_tol": 0.0},
        },
    }
    cfg = load_config(write_json(tmp_path, "c.json", doc))
    sched = schedule_from_config(cfg)
    assert sched.kind == "linear" and len(sched.sigmas) == 4
    fcfg = feature_config_from_config(cfg, sched)
    assert fcfg.timesteps == (2, 3)
    assert fcfg.aggregation == "median"
    assert fcfg.spectral.n_iters == 9
    assert fcfg.spectral.fd_rel == 1e-2
    assert fcfg.spectral.top_k == 1  # follows feature top_k


def test_unknown_top_level_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="typo"):
        load_config(write_json(tmp_path, "c.json", {"typo": 1, "model": GMM_MODEL}))


def test_unknown_nested_key_rejected(tmp_path):
    doc = {"model": GMM_MODEL, "feature": {"reps": 3}}
    with pytest.raises(ConfigError, match="feature"):
        load_config(write_json(tmp_path, "c.json", doc))


def test_bad_enum_rejected_with_path(tmp_path):
    doc = {"model": GMM_MODEL, "feature": {"aggregation": "max"}}
    with pytest.raises(ConfigError, match="feature/aggregation"):
        load_config(write_json(tmp_path, "c.json", doc))


def test_model_oneof_rejects_hybrid(tmp_path):
    doc = {"model": {"kind": "gmm", "checkpoint": "x.bin"}}
    with pytest.raises(ConfigError):
        load_config(write_json(tmp_path, "c.json", doc))


def test_non_json_file_rejected(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(path))


def test_require_reports_missing_section():
    with pytest.raises(ConfigError, match="'model'"):
        require({}, "model")


def test_mlp_model_loads_from_checkpoint(tmp_path):
    net = MlpDenoiser(2, hidden=(4,), seed=0)
    ckpt = str(tmp_path / "net.bin")
    net.save(ckpt)
    cfg = {"model": {"kind": "mlp", "checkpoint": ckpt}}
    loaded = model_from_config(cfg)
    assert isinstance(loaded, MlpDenoiser)
    x = np.array([[0.3, -0.2]])
    assert np.array_equal(loaded.denoise(x, 1.0), net.denoise(x, 1.0))


def test_train_config_defaults_and_overrides():
    tcfg, hidden = train_config_from_config({})
    assert isinstance(tcfg, TrainConfig)
    assert tcfg.steps == 20000 and hidden == (128, 128)
    tcfg, hidden = train_config_from_config(
        {"train": {"steps": 10, "hidden": [8], "lr": 0.01, "seed": 3}}
    )
    assert tcfg.steps == 10 and tcfg.lr == 0.01 and tcfg.seed == 3
    assert hidden == (8,)


def test_calibration_doc_schema(tmp_path):
    calib = Calibration(
        metric="eigenscore",
        timesteps=(1, 2),
        aggregation="mean",
        mu=np.array([0.0, 1.0]),
        sigma=np.array([1.0, 2.0]),
        layout=((1, 1), (2, 1)),
        n_train=5,
        config_hash="deadbeef",
    )
    path = write_json(tmp_path, "calib.json", calib.to_dict())
    doc = load_calibration_doc(path)
    back = Calibration.from_dict(doc)
    assert back.timesteps == (1, 2)
    bad = calib.to_dict()
    del bad["mu"]
    with pytest.raises(ConfigError, match="mu"):
        load_calibration_doc(write_json(tmp_path, "bad.json", bad))
    wrong = calib.to_dict()
    wrong["aggregation"] = "trimmed"
    with pytest.raises(ConfigError):
        load_calibration_doc(write_json(tmp_path, "wrong.json", wrong))


def per_item_schema(schema):
    """The schema with each {"numbers": depth} spelled out item by item, as
    the numeric fields were checked before the keyword: the reference."""
    if isinstance(schema, dict):
        if set(schema) == {"numbers"}:
            inner = {"type": "number"}
            for _ in range(schema["numbers"]):
                inner = {"type": "array", "items": inner, "minItems": 1}
            return inner
        return {k: per_item_schema(v) for k, v in schema.items()}
    if isinstance(schema, list):
        return [per_item_schema(v) for v in schema]
    return schema


REFERENCE = {
    "config": Draft202012Validator(per_item_schema(CONFIG_SCHEMA)),
    "calibration": Draft202012Validator(per_item_schema(CALIBRATION_SCHEMA)),
}
LOADERS = {"config": load_config, "calibration": load_calibration_doc}


def test_reference_schemas_are_valid():
    for validator in REFERENCE.values():
        Draft202012Validator.check_schema(validator.schema)
    Draft202012Validator.check_schema(CONFIG_SCHEMA)
    Draft202012Validator.check_schema(CALIBRATION_SCHEMA)


def calibration_doc():
    return {
        "metric": "eigenscore",
        "timesteps": [1, 2],
        "aggregation": "mean",
        "mu": [0.0, 1.0],
        "sigma": [1.0, 2.0],
        "layout": [[1, 1], [2, 1]],
        "n_train": 5,
    }


def reference_outcome(kind, doc):
    """(path, message) of the error the per-item schema reports, or None."""
    e = best_match(REFERENCE[kind].iter_errors(doc))
    if e is None:
        return None
    return "/".join(str(p) for p in e.absolute_path), e.message


def loaded_outcome(tmp_path, kind, doc):
    path = write_json(tmp_path, f"{kind}.json", doc)
    try:
        LOADERS[kind](path)
    except ConfigError as e:
        where, _, message = str(e).partition(" invalid at ")[2].partition(": ")
        return where, message
    return None


# (document kind, path of a numeric field inside it, nesting depth)
NUMERIC_FIELDS = [
    ("config", ("model", "weights"), 1),
    ("config", ("model", "means"), 2),
    ("config", ("model", "covariances"), 3),
    ("calibration", ("mu",), 1),
    ("calibration", ("sigma",), 1),
]
BAD_VALUES = {
    "bool": True,
    "string": "x",
    "null": None,
    "empty row": [],
    "scalar": 1.5,
    "dict": {"a": 1.0},
}


@pytest.mark.parametrize("kind, field, depth", NUMERIC_FIELDS)
@pytest.mark.parametrize("bad", BAD_VALUES)
def test_bad_number_names_path_and_message(tmp_path, kind, field, depth, bad):
    base = {"model": copy.deepcopy(GMM_MODEL)} if kind == "config" else calibration_doc()
    # one bad value at each level, from the field itself down to a leaf
    for level in range(depth + 1):
        value = BAD_VALUES[bad]
        if bad == "scalar" and level == depth:
            continue  # a number is what a leaf should be
        doc = copy.deepcopy(base)
        holder = doc
        for key in field[:-1]:
            holder = holder[key]
        key, where = field[-1], list(field)
        for _ in range(level):
            holder, key = holder[key], 0
            where.append(0)
        holder[key] = value
        got = loaded_outcome(tmp_path, kind, doc)
        assert got == reference_outcome(kind, doc)
        assert got[0] == "/".join(map(str, where))
        assert got[1].startswith(repr(value))


@pytest.mark.parametrize(
    "model, where, message",
    [
        (dict(GMM_MODEL, weights=0.5), "model/weights", "0.5 is not of type 'array'"),
        (
            {k: v for k, v in GMM_MODEL.items() if k != "covariances"},
            "model",
            "'covariances' is a required property",
        ),
        (
            dict(GMM_MODEL, extra=1),
            "model",
            "Additional properties are not allowed ('extra' was unexpected)",
        ),
        ({"kind": "mlp"}, "model", "'checkpoint' is a required property"),
        (dict(GMM_MODEL, kind="foo"), "model/kind", "'foo' is not one of ['gmm', 'mlp']"),
    ],
    ids=["scalar-weights", "no-covariances", "extra-key", "mlp-no-checkpoint", "unknown-kind"],
)
def test_model_error_names_the_field_of_its_kind(tmp_path, model, where, message):
    assert loaded_outcome(tmp_path, "config", {"model": model}) == (where, message)


def integer_paths(schema, path=()):
    """The path of every integer in documents of the schema; an array's
    entry is its item 0."""
    if schema.get("type") == "integer":
        yield path
    for key, sub in schema.get("properties", {}).items():
        yield from integer_paths(sub, (*path, key))
    if "items" in schema:
        yield from integer_paths(schema["items"], (*path, 0))


def with_value(doc, path, value):
    """A copy of doc with value at path, making the sections and arrays on the way."""
    doc = copy.deepcopy(doc)
    holder = doc
    for key, nxt in zip(path, path[1:]):
        if isinstance(holder, dict) and key not in holder:
            holder[key] = [] if isinstance(nxt, int) else {}
        holder = holder[key]
        if isinstance(holder, list) and not holder:
            holder.append(None)
    holder[path[-1]] = value
    return doc


INTEGER_FIELDS = [("config", p) for p in integer_paths(CONFIG_SCHEMA)] + [
    ("calibration", p) for p in integer_paths(CALIBRATION_SCHEMA)
]


@pytest.mark.parametrize(
    "kind, path", INTEGER_FIELDS, ids=[f"{k}-{'/'.join(map(str, p))}" for k, p in INTEGER_FIELDS]
)
def test_integral_float_is_not_an_integer(tmp_path, kind, path):
    base = {"model": GMM_MODEL} if kind == "config" else calibration_doc()
    assert loaded_outcome(tmp_path, kind, with_value(base, path, 3)) is None
    got = loaded_outcome(tmp_path, kind, with_value(base, path, 3.0))
    assert got == ("/".join(map(str, path)), "3.0 is not of type 'integer'")


NUMBER = st.one_of(st.integers(-5, 5), st.floats(-1e3, 1e3))
JUNK = st.sampled_from([True, False, None, "x", {}, {"a": 1.0}, []])


def maybe_bad(strategy):
    # rarely bad at any one node, so that about half the documents are valid
    return st.integers(0, 29).flatmap(lambda i: JUNK if i == 0 else strategy)


def nested(depth):
    if depth == 0:
        return maybe_bad(NUMBER)
    return maybe_bad(st.lists(nested(depth - 1), min_size=1, max_size=2))


@settings(max_examples=300, deadline=None)
@given(
    weights=nested(1),
    means=nested(2),
    covariances=nested(3),
    mu=nested(1),
    sigma=nested(1),
    extra=st.sampled_from([{}, {"seed": -1}, {"feature": {"top_k": 0}}]),
)
def test_numbers_keyword_agrees_with_per_item_schema(
    tmp_path_factory, weights, means, covariances, mu, sigma, extra
):
    tmp_path = tmp_path_factory.mktemp("docs")
    model = {"kind": "gmm", "weights": weights, "means": means, "covariances": covariances}
    calib = dict(calibration_doc(), mu=mu, sigma=sigma)
    for kind, doc in (("config", {"model": model, **extra}), ("calibration", calib)):
        assert loaded_outcome(tmp_path, kind, doc) == reference_outcome(kind, doc)


NUMBER_OR_BIG = st.one_of(st.floats(), st.integers(), st.integers(-(2**1100), 2**1100))
JSON_LEAF = st.one_of(st.none(), st.booleans(), NUMBER_OR_BIG, st.sampled_from(["", "x", "mse", "all"]))
JSON_VALUE = st.recursive(
    JSON_LEAF,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)
# per field, an array entry or a whole value of the type the schema admits,
# so that many mutations get past the schema to Calibration.from_dict
CALIBRATION_ENTRIES = {
    "timesteps": st.integers(),
    "mu": NUMBER_OR_BIG,
    "sigma": NUMBER_OR_BIG,
    "layout": st.lists(st.integers(), min_size=2, max_size=2),
}
CALIBRATION_VALUES = {
    **{key: st.lists(entry, max_size=3) for key, entry in CALIBRATION_ENTRIES.items()},
    "metric": st.sampled_from(["eigenscore", "mse", "nll", "Eigenscore", ""]),
    "aggregation": st.sampled_from(["mean", "median", "all"]),
    "n_train": st.integers(),
    "config_hash": st.text(max_size=4),
    "extra": JSON_VALUE,
}


@st.composite
def mutated_calibration(draw):
    """A valid calibration document with a few fields, or entries of its
    arrays, replaced, removed, added to or cut short."""
    doc = dict(calibration_doc(), config_hash="deadbeef")
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(sorted(CALIBRATION_VALUES)))
        op = draw(st.sampled_from(["set", "set-entry", "append", "truncate", "delete"]))
        held = doc.get(key)
        entry = st.one_of(JSON_LEAF, CALIBRATION_ENTRIES.get(key, JSON_LEAF))
        if op == "delete":
            doc.pop(key, None)
        elif isinstance(held, list) and op == "set-entry" and held:
            held[draw(st.integers(0, len(held) - 1))] = draw(entry)
        elif isinstance(held, list) and op == "append":
            held.append(draw(entry))
        elif isinstance(held, list) and op == "truncate":
            del held[draw(st.integers(0, len(held))) :]
        else:
            doc[key] = draw(st.one_of(JSON_VALUE, CALIBRATION_VALUES[key]))
    return doc


@settings(max_examples=500, deadline=None)
@given(doc=mutated_calibration())
def test_accepted_calibration_docs_load_or_raise_config_error(tmp_path_factory, doc):
    # whatever load_calibration_doc accepts, Calibration.from_dict either
    # loads or rejects with a ConfigError, so `score` exits 2, not with a
    # traceback
    path = write_json(tmp_path_factory.mktemp("calib"), "calib.json", doc)
    try:
        loaded = load_calibration_doc(path)
    except ConfigError:
        return
    try:
        calib = Calibration.from_dict(loaded)
    except ConfigError:
        return
    assert len(calib.mu) == len(calib.sigma) == len(calib.layout)
    assert np.all(np.isfinite(calib.mu)) and np.all(calib.sigma >= 0.0)
