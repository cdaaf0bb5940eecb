import json
import struct

import numpy as np
import pytest

from eigenscore import pipeline
from eigenscore.cli import main
from eigenscore.gmm import GaussianMixture
from eigenscore.mlp import CKPT_MAGIC, CKPT_VERSION
from eigenscore.rng import LANE_NOISE, LANE_SPECTRAL, RngStream, gaussian_vec
from eigenscore.schedule import build_schedule, sigma_at
from eigenscore.spectral import SpectralConfig, subspace_iteration
from eigenscore.tensorio import read_tensor, write_tensor

BASE_CFG = {
    "seed": 0,
    "model": {
        "kind": "gmm",
        "weights": [0.5, 0.5],
        "means": [[-1.0, 0.0], [1.0, 0.0]],
        "covariances": [[[0.6, 0.0], [0.0, 0.6]], [[0.9, 0.0], [0.0, 0.9]]],
    },
    "schedule": {"kind": "geometric", "sigma_min": 0.1, "sigma_max": 3.0, "t_max": 12},
    "feature": {"timesteps": [3, 7], "top_k": 2, "n_reps": 2},
    "data": {"n": 6},
}


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE_CFG))
    return str(path)


def make_cfg(tmp_path, name="config2.json", **overrides):
    doc = json.loads(json.dumps(BASE_CFG))
    for key, val in overrides.items():
        if isinstance(val, dict):
            doc.setdefault(key, {}).update(val)
        else:
            doc[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_flow(cfg_path, tmp_path, metric=None):
    data = str(tmp_path / "data.bin")
    calib = str(tmp_path / "calib.json")
    scores = str(tmp_path / "scores.csv")
    assert main(["gen-data", "--config", cfg_path, "--out", data]) == 0
    fit = ["fit", "--config", cfg_path, "--data", data, "--out", calib]
    if metric:
        fit += ["--metric", metric]
    assert main(fit) == 0
    assert main(
        ["score", "--config", cfg_path, "--calibration", calib, "--data", data, "--out", scores]
    ) == 0
    return data, calib, scores


def test_gen_data_shape_and_determinism(cfg_path, tmp_path, capsys):
    out1 = str(tmp_path / "a.bin")
    out2 = str(tmp_path / "b.bin")
    assert main(["gen-data", "--config", cfg_path, "--out", out1]) == 0
    assert "wrote 6 samples of dim 2" in capsys.readouterr().out
    assert main(["gen-data", "--config", cfg_path, "--out", out2]) == 0
    a, b = read_tensor(out1), read_tensor(out2)
    assert a.shape == (6, 2)
    assert np.array_equal(a, b)
    # a different stream gives different draws
    out3 = str(tmp_path / "c.bin")
    assert main(["gen-data", "--config", cfg_path, "--stream", "5", "--out", out3]) == 0
    assert not np.array_equal(a, read_tensor(out3))


def test_full_flow_score_csv(cfg_path, tmp_path):
    _, calib_path, scores = run_flow(cfg_path, tmp_path)
    calib = json.loads((tmp_path / "calib.json").read_text())
    assert calib["metric"] == "eigenscore"
    assert calib["timesteps"] == [3, 7]
    assert calib["n_train"] == 6
    lines = (tmp_path / "scores.csv").read_text().splitlines()
    assert lines[0] == "id,score,z_1,z_2"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == "0"
    float(first[1])  # parsea


def _iterated_cfg(tmp_path):
    """A d = 20 mixture at top_k 1: the budget 1 * (15 + 1) = 16 is below d,
    so the basis iterates, and at early_stop_tol 1e-3 its rows stop at
    sweeps from 1 to the cap of 15."""
    d = 20
    model = {
        "kind": "gmm",
        "weights": [0.5, 0.5],
        "means": [[-1.0] + [0.0] * (d - 1), [1.0] + [0.0] * (d - 1)],
        "covariances": [np.diag(np.linspace(a, b, d)).tolist() for a, b in ((0.2, 2.0), (1.5, 0.3))],
    }
    feature = {"top_k": 1, "spectral": {"early_stop_tol": 1e-3}}
    return make_cfg(tmp_path, name="iterated.json", model=model, feature=feature)


@pytest.mark.parametrize(
    "metric, iterated",
    [(m, False) for m in ("eigenscore", "mse", "score-norm", "score-deriv", "nll")] + [("eigenscore", True)],
    ids=["eigenscore", "mse", "score-norm", "score-deriv", "nll", "eigenscore-iterated"],
)
def test_score_threads_byte_identical(cfg_path, tmp_path, monkeypatch, metric, iterated):
    sweeps = []
    if iterated:
        cfg_path = _iterated_cfg(tmp_path)
        engine = pipeline.subspace_iteration_batch

        def recording(*args, **kwargs):
            out = engine(*args, **kwargs)
            sweeps.extend(res.n_iters for res in out)
            return out

        monkeypatch.setattr(pipeline, "subspace_iteration_batch", recording)
    data, calib, scores = run_flow(cfg_path, tmp_path, metric=metric)
    if iterated:
        # the rows stop at different sweeps, some before the cap
        assert len(set(sweeps)) > 1 and min(sweeps) < 15
    out8 = str(tmp_path / "scores8.csv")
    assert main(
        [
            "score", "--config", cfg_path, "--calibration", calib,
            "--data", data, "--out", out8, "--threads", "8",
        ]
    ) == 0
    assert (tmp_path / "scores.csv").read_bytes() == (tmp_path / "scores8.csv").read_bytes()


def test_score_env_threads(cfg_path, tmp_path, monkeypatch):
    data, calib, _ = run_flow(cfg_path, tmp_path)
    monkeypatch.setenv("EIGENSCORE_THREADS", "3")
    out = str(tmp_path / "env.csv")
    assert main(
        ["score", "--config", cfg_path, "--calibration", calib, "--data", data, "--out", out]
    ) == 0
    assert (tmp_path / "scores.csv").read_bytes() == (tmp_path / "env.csv").read_bytes()
    monkeypatch.setenv("EIGENSCORE_THREADS", "zero")
    assert main(
        ["score", "--config", cfg_path, "--calibration", calib, "--data", data, "--out", out]
    ) == 2


def test_score_rejects_non_positive_threads(cfg_path, tmp_path, capsys):
    data, calib, _ = run_flow(cfg_path, tmp_path)
    out = str(tmp_path / "t.csv")
    for n in ("0", "-2"):
        assert main(
            [
                "score", "--config", cfg_path, "--calibration", calib, "--data", data,
                "--out", out, "--threads", n,
            ]
        ) == 2
        assert "--threads must be >= 1" in capsys.readouterr().err
    assert main(["fit", "--config", cfg_path, "--data", data, "--out", calib, "--threads", "0"]) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen-data", "--n", "0"], "--n must be >= 1, got 0"),
        (["gen-data", "--n", "-3"], "--n must be >= 1, got -3"),
        (["gen-data", "--stream", "-1"], "--stream must be >= 0, got -1"),
        (["verify", "--seed", "-1"], "--seed must be >= 0, got -1"),
    ],
    ids=["n-zero", "n-negative", "stream-negative", "seed-negative"],
)
def test_out_of_range_flag_is_usage_error(cfg_path, tmp_path, capsys, argv, message):
    out = tmp_path / "out.json"
    if argv[0] == "gen-data":
        argv = argv + ["--config", cfg_path, "--out", str(out)]
    else:
        argv = argv + ["--json-out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    # rejected before any work: nothing printed, nothing written
    assert captured.out == ""
    assert not out.exists()


def test_score_json_and_components(cfg_path, tmp_path):
    data, calib, _ = run_flow(cfg_path, tmp_path)
    out = str(tmp_path / "s.csv")
    jout = str(tmp_path / "s.json")
    comps = str(tmp_path / "comps.bin")
    assert main(
        [
            "score", "--config", cfg_path, "--calibration", calib, "--data", data,
            "--out", out, "--json-out", jout, "--export-components", comps,
        ]
    ) == 0
    summary = json.loads((tmp_path / "s.json").read_text())
    assert summary["n"] == 6 and summary["metric"] == "eigenscore"
    assert summary["min_score"] <= summary["mean_score"] <= summary["max_score"]
    vecs = read_tensor(comps)
    assert vecs.shape == (6, 2, 2)
    assert np.allclose(np.linalg.norm(vecs, axis=2), 1.0, atol=1e-9)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_exported_components_equal_rep0_probe(cfg_path, tmp_path, threads):
    # the reference is the repetition-0 probe on its own streams, written
    # as the tensor stores it (float32)
    data, calib, _ = run_flow(cfg_path, tmp_path)
    comps = str(tmp_path / "comps.bin")
    assert main(
        [
            "score", "--config", cfg_path, "--calibration", calib, "--data", data,
            "--out", str(tmp_path / "s.csv"), "--export-components", comps, "--threads", threads,
        ]
    ) == 0
    m = BASE_CFG["model"]
    model = GaussianMixture(m["weights"], m["means"], m["covariances"])
    sched = build_schedule(**BASE_CFG["schedule"])
    want = np.zeros((6, 2, 2))
    for sid, x in enumerate(read_tensor(data).astype(float)):
        for ti, t in enumerate(BASE_CFG["feature"]["timesteps"]):
            sigma = sigma_at(sched, t)
            z = gaussian_vec(RngStream(0, (sid, t, 0, LANE_NOISE)), 2, sigma)
            res = subspace_iteration(
                model, x + z, sigma, SpectralConfig(top_k=2), rng=RngStream(0, (sid, t, 0, LANE_SPECTRAL))
            )
            want[sid, ti] = res.eigenvectors[:, 0]
    assert np.array_equal(read_tensor(comps), want.astype(np.float32))


def test_export_needs_eigenscore_calibration(cfg_path, tmp_path, capsys):
    data, calib, _ = run_flow(cfg_path, tmp_path, metric="mse")
    out = tmp_path / "x.csv"
    code = main(
        [
            "score", "--config", cfg_path, "--calibration", calib, "--data", data,
            "--out", str(out), "--export-components", str(tmp_path / "c.bin"),
        ]
    )
    assert code == 2
    assert "eigenscore calibration" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "c.bin").exists()


def test_score_zero_rows(cfg_path, tmp_path):
    _, calib, _ = run_flow(cfg_path, tmp_path)
    empty = str(tmp_path / "empty.bin")
    write_tensor(empty, np.zeros((0, 2)))
    jout, comps = tmp_path / "s.json", tmp_path / "c.bin"
    assert main(
        [
            "score", "--config", cfg_path, "--calibration", calib, "--data", empty,
            "--out", str(tmp_path / "s.csv"), "--json-out", str(jout), "--export-components", str(comps),
        ]
    ) == 0
    summary = json.loads(jout.read_text())
    assert summary["n"] == 0
    assert summary["mean_score"] is None and summary["min_score"] is None and summary["max_score"] is None
    assert read_tensor(str(comps)).shape == (0, 2, 2)
    assert (tmp_path / "s.csv").read_text() == "id,score,z_1,z_2\n"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("mu", lambda v: [float("nan")] + v[1:], "mu/0: nan must be finite"),
        ("mu", lambda v: v[:1], "mu: 1 values for 2 layout entries"),
        ("sigma", lambda v: v[:1], "sigma: 1 values for 2 layout entries"),
        ("sigma", lambda v: [-v[0]] + v[1:], "must be finite and >= 0"),
        ("mu", lambda v: [10**400] + v[1:], "mu: integer beyond float range"),
        ("sigma", lambda v: v[:1] + [-(10**400)], "sigma: integer beyond float range"),
    ],
    ids=["nan-mu", "short-mu", "short-sigma", "negative-sigma", "huge-int-mu", "huge-int-sigma"],
)
def test_bad_calibration_is_usage_error(cfg_path, tmp_path, capsys, field, value, message):
    data, calib, _ = run_flow(cfg_path, tmp_path)
    doc = json.loads((tmp_path / "calib.json").read_text())
    doc[field] = value(doc[field])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "x.csv"
    code = main(
        ["score", "--config", cfg_path, "--calibration", str(bad), "--data", data, "--out", str(out)]
    )
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_unknown_calibration_metric_fails_before_model_loads(cfg_path, tmp_path, capsys):
    data, calib, _ = run_flow(cfg_path, tmp_path)
    doc = json.loads((tmp_path / "calib.json").read_text())
    doc["metric"] = "foo"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    # the checkpoint does not exist, so loading the model would exit 3
    missing = tmp_path / "missing.json"
    model = {"kind": "mlp", "checkpoint": str(tmp_path / "none.bin")}
    missing.write_text(json.dumps({**BASE_CFG, "model": model}))
    out = tmp_path / "x.csv"
    args = ["score", "--config", str(missing), "--data", data, "--out", str(out)]
    assert main(args + ["--calibration", calib]) == 3
    capsys.readouterr()
    assert main(args + ["--calibration", str(bad)]) == 2
    assert "calibration invalid at metric: 'foo'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "metric, fitted, edit",
    [
        (None, "all", {"aggregation": "mean"}),
        (None, "mean", {"aggregation": "all", "layout": [[3, 1], [3, 2], [7, 1]]}),
        (None, "mean", {"timesteps": [518]}),
        (None, "mean", {"layout": [[7, 1], [3, 1]]}),
        ("mse", "mean", {"aggregation": "median"}),
        ("mse", "mean", {"layout": [[3, 1]]}),
    ],
    ids=[
        "eigenscore-all-to-mean", "eigenscore-unequal-slots", "eigenscore-timesteps", "eigenscore-order",
        "mse-aggregation", "mse-layout",
    ],
)
def test_calibration_layout_checked_before_model_loads(tmp_path, capsys, metric, fitted, edit):
    # a fitted calibration whose layout its own metric, timesteps and
    # aggregation do not give is a bad calibration (exit 2), not a layout
    # mismatch found after every feature was computed
    cfg = make_cfg(tmp_path, name="fitted.json", feature={"aggregation": fitted})
    data, calib, _ = run_flow(cfg, tmp_path, metric=metric)
    doc = json.loads((tmp_path / "calib.json").read_text())
    doc.update(edit)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    # the checkpoint does not exist, so loading the model would exit 3
    missing = tmp_path / "missing.json"
    model = {"kind": "mlp", "checkpoint": str(tmp_path / "none.bin")}
    missing.write_text(json.dumps({**BASE_CFG, "model": model}))
    out = tmp_path / "x.csv"
    args = ["score", "--config", str(missing), "--data", data, "--out", str(out)]
    assert main(args + ["--calibration", str(bad)]) == 2
    assert "calibration invalid at layout" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fitted", ["mean", "median"])
def test_calibration_layout_checked_against_config_n_reps(cfg_path, tmp_path, capsys, fitted):
    # a mean or median calibration edited to "all" has the layout of "all"
    # with one repetition, so it loads; the config's n_reps (2) tells it
    # apart before the data is read, where a missing --data would exit 3
    cfg = make_cfg(tmp_path, name="fitted.json", feature={"aggregation": fitted})
    run_flow(cfg, tmp_path)
    doc = json.loads((tmp_path / "calib.json").read_text())
    doc["aggregation"] = "all"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "x.csv"
    missing = str(tmp_path / "none.bin")
    args = ["score", "--config", cfg_path, "--data", missing, "--out", str(out)]
    assert main(args + ["--calibration", str(tmp_path / "calib.json")]) == 3
    capsys.readouterr()
    assert main(args + ["--calibration", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "calibration invalid at layout" in err and "n_reps 2" in err
    assert not out.exists()


def test_calibration_timesteps_checked_against_config_schedule(cfg_path, tmp_path, capsys):
    # a calibration fitted on a 20-level schedule at t = 15 cannot be scored
    # under the 12-level one; that is a usage error found before the data is
    # read, where a missing --data would exit 3
    long_cfg = make_cfg(
        tmp_path, name="long.json", schedule={"t_max": 20}, feature={"timesteps": [3, 15]}
    )
    _, calib, _ = run_flow(long_cfg, tmp_path)
    out = tmp_path / "x.csv"
    missing = str(tmp_path / "none.bin")
    args = ["score", "--calibration", calib, "--data", missing, "--out", str(out)]
    assert main(args + ["--config", long_cfg]) == 3
    capsys.readouterr()
    assert main(args + ["--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert "calibration invalid at timesteps" in err and "t=15 outside [1, 12]" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "timesteps, metric, message",
    [
        ([3, 15], None, "t=15 outside [1, 12]"),
        ([7, 3], None, "timesteps must be strictly increasing"),
        ([3], "score-deriv", "score-deriv needs two or more, got 1"),
    ],
    ids=["beyond-t-max", "decreasing", "score-deriv-one-timestep"],
)
def test_feature_timesteps_checked_before_data_is_read(cfg_path, tmp_path, capsys, timesteps, metric, message):
    # a timestep selection the config alone rules out is a usage error found
    # before --data is read, where a missing --data would exit 3.  score takes
    # its timesteps from the calibration, so one timestep is fine there
    _, calib, _ = run_flow(cfg_path, tmp_path, metric=metric)
    bad = make_cfg(tmp_path, name="bad.json", feature={"timesteps": timesteps})
    missing = str(tmp_path / "none.bin")
    out = tmp_path / "x.out"
    fit = ["fit", "--data", missing, "--out", str(out)] + (["--metric", metric] if metric else [])
    score = ["score", "--calibration", calib, "--data", missing, "--out", str(out)]
    for argv in [fit] if metric else [fit, score]:
        assert main(argv + ["--config", cfg_path]) == 3
        capsys.readouterr()
        assert main(argv + ["--config", bad]) == 2
        err = capsys.readouterr().err
        assert "config invalid at feature/timesteps" in err and message in err
        assert not out.exists()


def _mlp_cfg(tmp_path, data):
    """A config whose model is a small net trained on data, and its path."""
    net_cfg = make_cfg(
        tmp_path, name="mlp.json", train={"steps": 40, "batch_size": 4, "hidden": [4], "seed": 0}
    )
    doc = json.loads((tmp_path / "mlp.json").read_text())
    doc["model"] = {"kind": "mlp", "checkpoint": str(tmp_path / "net.bin")}
    (tmp_path / "mlp.json").write_text(json.dumps(doc))
    assert main(["train", "--config", net_cfg, "--data", data, "--out", str(tmp_path / "net.bin")]) == 0
    return net_cfg


@pytest.mark.parametrize("kind", ["gmm", "mlp"])
def test_data_width_checked_against_model_dim(cfg_path, tmp_path, capsys, kind):
    # rows of width 3 for a d = 2 model are malformed data (exit 3) naming
    # the file, not a numerical failure inside the denoiser
    data = str(tmp_path / "data.bin")
    assert main(["gen-data", "--config", cfg_path, "--out", data]) == 0
    cfg = cfg_path if kind == "gmm" else _mlp_cfg(tmp_path, data)
    calib = str(tmp_path / "calib.json")
    assert main(["fit", "--config", cfg, "--data", data, "--out", calib]) == 0
    wide = str(tmp_path / "wide.bin")
    write_tensor(wide, np.ones((4, 3)))
    out = tmp_path / "out"
    capsys.readouterr()
    for extra in ([], ["--calibration", calib]):
        command = "score" if extra else "fit"
        assert main([command, "--config", cfg, "--data", wide, "--out", str(out)] + extra) == 3
        assert "wide.bin: rows of width 3, but the model's dim is 2" in capsys.readouterr().err
        assert not out.exists()


def test_zero_sigma_calibration_is_accepted(cfg_path, tmp_path):
    # a constant coordinate has sigma 0; SIGMA_FLOOR handles it
    data, calib, _ = run_flow(cfg_path, tmp_path)
    doc = json.loads((tmp_path / "calib.json").read_text())
    doc["sigma"] = [0.0] * len(doc["sigma"])
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps(doc))
    out = str(tmp_path / "x.csv")
    assert main(
        ["score", "--config", cfg_path, "--calibration", str(zero), "--data", data, "--out", out]
    ) == 0


def test_metric_conflict_is_usage_error(cfg_path, tmp_path, capsys):
    # score takes its metric from the calibration; --metric is fit's flag
    data, calib, _ = run_flow(cfg_path, tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "score", "--config", cfg_path, "--calibration", calib,
                "--data", data, "--out", str(tmp_path / "x.csv"), "--metric", "mse",
            ]
        )
    assert exc.value.code == 2
    assert "unrecognized arguments: --metric mse" in capsys.readouterr().err


def test_config_hash_mismatch_warns(cfg_path, tmp_path, caplog):
    data, calib, _ = run_flow(cfg_path, tmp_path)
    other_cfg = make_cfg(tmp_path, feature={"n_reps": 3})
    import logging

    with caplog.at_level(logging.WARNING, logger="eigenscore.cli"):
        code = main(
            [
                "score", "--config", other_cfg, "--calibration", calib,
                "--data", data, "--out", str(tmp_path / "x.csv"),
            ]
        )
    assert code == 0
    assert any("different configuration" in r.message for r in caplog.records)


def _hash_warned(cfg, calib, data, tmp_path, caplog) -> bool:
    import logging

    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="eigenscore.cli"):
        out = str(tmp_path / "x.csv")
        assert main(
            ["score", "--config", cfg, "--calibration", calib, "--data", data, "--out", out]
        ) == 0
    return any("different configuration" in r.message for r in caplog.records)


def test_config_hash_covers_mixture_values_not_spelling(cfg_path, tmp_path, caplog):
    data, calib, _ = run_flow(cfg_path, tmp_path)
    assert not _hash_warned(cfg_path, calib, data, tmp_path, caplog)
    # the same mixture with integer-valued entries written as 1 and 0
    model = json.loads(json.dumps(BASE_CFG["model"]))
    model["means"] = [[-1, 0], [1, 0]]
    ints = make_cfg(tmp_path, name="ints.json", model=model)
    assert not _hash_warned(ints, calib, data, tmp_path, caplog)
    model["covariances"][1][1][1] = 0.91
    changed = make_cfg(tmp_path, name="cov.json", model=model)
    assert _hash_warned(changed, calib, data, tmp_path, caplog)


def test_calibration_of_the_column_norm_estimator_warns(cfg_path, tmp_path, caplog):
    # a calibration fitted on BASE_CFG before eigenvalues came from Ritz
    # vectors carries this hash; its features came from another estimator
    data, calib, _ = run_flow(cfg_path, tmp_path)
    doc = json.loads((tmp_path / "calib.json").read_text())
    doc["config_hash"] = "bc71e3a038ec9a8d"
    (tmp_path / "calib.json").write_text(json.dumps(doc))
    assert _hash_warned(cfg_path, calib, data, tmp_path, caplog)


@pytest.mark.parametrize(
    "top_k, metric, old_hash, warns",
    [
        (1, None, "c228308962318a78", True),
        (2, None, "679e52bb7eb0784e", True),
        (2, "mse", "47419194da78cf71", False),
        (1, "mse", "2ae787a12559d5ae", False),
        (1, None, "08f9e20ed9c8302b", True),
    ],
    ids=["covered", "top_k-is-d", "mse", "mse-covered", "norm-estimate"],
)
def test_calibration_of_the_capped_iteration_warns(tmp_path, caplog, top_k, metric, old_hash, warns):
    # the first four hashes are what calibrations fitted while rows with
    # top_k < d always iterated carry, the last what one fitted on the full
    # basis while eigenvalues were sigma^2 ||J y|| carries.  Every eigenscore
    # feature has moved since (to the full basis at top_k 1, to sigma^2 times
    # the Ritz values at both), so those calibrations must warn; a
    # baseline's features did not move and must not warn
    cfg = make_cfg(tmp_path, name="capped.json", feature={"top_k": top_k})
    data, calib, _ = run_flow(cfg, tmp_path, metric=metric)
    doc = json.loads((tmp_path / "calib.json").read_text())
    doc["config_hash"] = old_hash
    (tmp_path / "calib.json").write_text(json.dumps(doc))
    assert _hash_warned(cfg, calib, data, tmp_path, caplog) == warns


def test_retrained_checkpoint_warns(cfg_path, tmp_path, caplog):
    # a net retrained into the same path must not silently reuse the old
    # calibration
    data = str(tmp_path / "data.bin")
    assert main(["gen-data", "--config", cfg_path, "--out", data]) == 0
    net = str(tmp_path / "net.bin")
    cfgs = []
    for seed in (0, 1):
        train = {"steps": 40, "batch_size": 4, "hidden": [4], "seed": seed}
        path = make_cfg(tmp_path, name=f"mlp{seed}.json", train=train)
        doc = json.loads((tmp_path / f"mlp{seed}.json").read_text())
        doc["model"] = {"kind": "mlp", "checkpoint": net}
        (tmp_path / f"mlp{seed}.json").write_text(json.dumps(doc))
        cfgs.append(path)
    assert main(["train", "--config", cfgs[0], "--data", data, "--out", net]) == 0
    calib = str(tmp_path / "mlp_calib.json")
    assert main(["fit", "--config", cfgs[0], "--data", data, "--out", calib]) == 0
    assert not _hash_warned(cfgs[0], calib, data, tmp_path, caplog)
    assert main(["train", "--config", cfgs[1], "--data", data, "--out", net]) == 0
    assert _hash_warned(cfgs[0], calib, data, tmp_path, caplog)


@pytest.mark.parametrize("metric", ["mse", "score-norm", "eigenscore"])
def test_score_takes_timesteps_from_calibration(cfg_path, tmp_path, metric):
    # config_hash does not cover timesteps, so a changed config must not
    # change which timesteps a calibration is scored at
    data, calib, scores = run_flow(cfg_path, tmp_path, metric=metric)
    other_cfg = make_cfg(tmp_path, feature={"timesteps": [11]})
    other = tmp_path / "other.csv"
    assert main(
        ["score", "--config", other_cfg, "--calibration", calib, "--data", data, "--out", str(other)]
    ) == 0
    assert other.read_bytes() == (tmp_path / "scores.csv").read_bytes()


@pytest.mark.parametrize("command", ["train", "fit", "score"])
def test_non_finite_data_is_format_error(cfg_path, tmp_path, capsys, command):
    data, calib, _ = run_flow(cfg_path, tmp_path)
    rows = read_tensor(data)
    rows[2, 1] = np.nan
    rows[4, 0] = np.inf
    bad = str(tmp_path / "bad.bin")
    write_tensor(bad, rows)
    out = tmp_path / "out"
    argv = [command, "--config", cfg_path, "--data", bad, "--out", str(out)]
    if command == "score":
        argv += ["--calibration", calib]
    capsys.readouterr()
    assert main(argv) == 3
    assert "bad.bin: row 2 has a non-finite entry" in capsys.readouterr().err
    assert not out.exists()


def test_mse_metric_flow_and_eval(cfg_path, tmp_path, capsys):
    data, calib, scores = run_flow(cfg_path, tmp_path, metric="mse")
    doc = json.loads((tmp_path / "calib.json").read_text())
    assert doc["metric"] == "mse"
    assert doc["layout"] == [[0, 1]]
    # far-away points have much larger denoising error
    far = read_tensor(data) + 40.0
    far_path = str(tmp_path / "far.bin")
    write_tensor(far_path, far)
    far_scores = str(tmp_path / "far.csv")
    assert main(
        ["score", "--config", cfg_path, "--calibration", calib, "--data", far_path, "--out", far_scores]
    ) == 0
    capsys.readouterr()
    jout = str(tmp_path / "ev.json")
    roc = str(tmp_path / "roc.csv")
    assert main(
        ["eval", "--ind", scores, "--ood", far_scores, "--json-out", jout, "--roc-out", roc]
    ) == 0
    out = capsys.readouterr().out
    assert "AUROC 1.000000" in out
    assert json.loads((tmp_path / "ev.json").read_text())["auroc"] == 1.0
    roc_lines = (tmp_path / "roc.csv").read_text().splitlines()
    assert roc_lines[0] == "threshold,fpr,tpr"
    assert len(roc_lines) == 13  # 12 distinct scores


def test_eval_rejects_foreign_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("foo,bar\n1,2\n")
    ok = tmp_path / "ok.csv"
    ok.write_text("id,score\n0,1.5\n")
    assert main(["eval", "--ind", str(bad), "--ood", str(ok)]) == 2


@pytest.mark.parametrize("row", ["1,np.float64(2.0)", "1"])
def test_eval_rejects_malformed_score_row(tmp_path, capsys, row):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"id,score\n0,1.5\n{row}\n")
    ok = tmp_path / "ok.csv"
    ok.write_text("id,score\n0,1.5\n")
    assert main(["eval", "--ind", str(ok), "--ood", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"{bad}, line 3" in err


def test_missing_file_is_io_error(cfg_path, tmp_path):
    assert main(
        ["fit", "--config", cfg_path, "--data", str(tmp_path / "nope.bin"), "--out", str(tmp_path / "c.json")]
    ) == 3


def test_corrupt_tensor_is_format_error(cfg_path, tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOTATENSOR")
    assert main(
        ["fit", "--config", cfg_path, "--data", str(bad), "--out", str(tmp_path / "c.json")]
    ) == 3


def test_invalid_config_is_usage_error(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{")
    assert main(["gen-data", "--config", str(p), "--out", str(tmp_path / "d.bin")]) == 2
    q = tmp_path / "unknown.json"
    q.write_text(json.dumps({"model": BASE_CFG["model"], "bogus": 1}))
    assert main(["gen-data", "--config", str(q), "--out", str(tmp_path / "d.bin")]) == 2


@pytest.mark.parametrize(
    "command, section, key, value",
    [("gen-data", "data", "n", 6.0), ("fit", "feature", "n_reps", 2.0)],
)
def test_integral_float_config_is_usage_error(cfg_path, tmp_path, capsys, command, section, key, value):
    data = str(tmp_path / "data.bin")
    assert main(["gen-data", "--config", cfg_path, "--out", data]) == 0
    bad = make_cfg(tmp_path, **{section: {key: value}})
    argv = [command, "--config", bad, "--out", str(tmp_path / "out")]
    if command == "fit":
        argv += ["--data", data]
    assert main(argv) == 2
    assert f"invalid at {section}/{key}: {value} is not of type 'integer'" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_diverged_training_is_numerical_failure(cfg_path, tmp_path, capsys):
    data = str(tmp_path / "data.bin")
    assert main(["gen-data", "--config", cfg_path, "--out", data]) == 0
    net_cfg = make_cfg(
        tmp_path, name="mlp.json", train={"steps": 5, "batch_size": 4, "hidden": [4], "lr": 1e200}
    )
    net = tmp_path / "net.bin"
    assert main(["train", "--config", net_cfg, "--data", data, "--out", str(net)]) == 4
    assert "loss became non-finite" in capsys.readouterr().err
    assert not net.exists() and not (tmp_path / "net.bin.json").exists()


def test_gen_data_needs_analytic_model(cfg_path, tmp_path):
    data = str(tmp_path / "data.bin")
    assert main(["gen-data", "--config", cfg_path, "--out", data]) == 0
    net_cfg = make_cfg(
        tmp_path,
        name="mlp.json",
        model={"kind": "mlp", "checkpoint": str(tmp_path / "net.bin")},
        train={"steps": 40, "batch_size": 4, "hidden": [4], "seed": 0},
    )
    # drop gmm-only keys so the model section validates as an mlp one
    doc = json.loads((tmp_path / "mlp.json").read_text())
    doc["model"] = {"kind": "mlp", "checkpoint": str(tmp_path / "net.bin")}
    (tmp_path / "mlp.json").write_text(json.dumps(doc))
    assert main(["train", "--config", net_cfg, "--data", data, "--out", str(tmp_path / "net.bin")]) == 0
    assert main(["gen-data", "--config", net_cfg, "--out", str(tmp_path / "x.bin")]) == 4


def test_trained_model_scores(cfg_path, tmp_path):
    data = str(tmp_path / "data.bin")
    assert main(["gen-data", "--config", cfg_path, "--out", data]) == 0
    net_cfg = _mlp_cfg(tmp_path, data)
    calib = str(tmp_path / "mlp_calib.json")
    scores = str(tmp_path / "mlp_scores.csv")
    assert main(["fit", "--config", net_cfg, "--data", data, "--out", calib]) == 0
    assert main(
        ["score", "--config", net_cfg, "--calibration", calib, "--data", data, "--out", scores]
    ) == 0
    lines = (tmp_path / "mlp_scores.csv").read_text().splitlines()
    assert len(lines) == 7


def test_zero_width_checkpoint_is_format_error(cfg_path, tmp_path, capsys):
    # widths (3, 0, 2): the loaded net would ignore its input
    data = str(tmp_path / "data.bin")
    assert main(["gen-data", "--config", cfg_path, "--out", data]) == 0
    ckpt = tmp_path / "zero.bin"
    header = struct.pack("<II3I", CKPT_VERSION, 2, 3, 0, 2)
    ckpt.write_bytes(CKPT_MAGIC + header + np.array([0.5, -0.5]).astype("<f8").tobytes())
    net_cfg = make_cfg(tmp_path, name="mlp.json")
    doc = json.loads((tmp_path / "mlp.json").read_text())
    doc["model"] = {"kind": "mlp", "checkpoint": str(ckpt)}
    (tmp_path / "mlp.json").write_text(json.dumps(doc))
    assert main(["fit", "--config", net_cfg, "--data", data, "--out", str(tmp_path / "c.json")]) == 3
    assert "must all be >= 1" in capsys.readouterr().err


def test_verify_cli_passes(tmp_path, capsys):
    jout = str(tmp_path / "verify.json")
    assert main(["verify", "--seed", "0", "--json-out", jout]) == 0
    out = capsys.readouterr().out
    assert "all passed" in out
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["all_pass"] is True
    assert len(doc["checks"]) >= 15
