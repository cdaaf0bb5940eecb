"""Command-line front end.

Subcommands: gen-data, train, fit, score, eval, verify.  Exit codes:
0 success, 1 verification failure, 2 usage or config error, 3 I/O or
file-format error, 4 numerical failure.  All outputs are deterministic
for a fixed config and seed, and all writes are atomic.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import logging
import os
import sys
from dataclasses import replace

import numpy as np

from . import config as cfgmod
from .errors import (
    AnalyticModelRequiredError,
    CheckpointFormatError,
    ConfigError,
    EigenscoreError,
    TensorFormatError,
)
from .evaluate import auroc
from .gmm import GaussianMixture
from .mlp import MlpDenoiser
from .pipeline import (
    BASELINES,
    METRICS,
    Calibration,
    _layout,
    config_hash,
    eigen_score,
    extract_features,
    fit_calibration,
)
from .rng import LANE_DATA, RngStream
from .tensorio import atomic_write_text, read_tensor, write_tensor
from .verify import run_all

log = logging.getLogger(__name__)

FLOAT_FMT = "%.17g"


def _at_least(value, lo: int, flag: str):
    if value is not None and value < lo:
        raise ConfigError(f"{flag} must be >= {lo}, got {value}")
    return value


def _thread_count(args) -> int:
    if args.threads is not None:
        return _at_least(args.threads, 1, "--threads")
    env = os.environ.get("EIGENSCORE_THREADS")
    if env is None:
        return 1
    try:
        n = int(env)
    except ValueError:
        raise ConfigError(f"EIGENSCORE_THREADS={env!r} is not an integer")
    return _at_least(n, 1, "EIGENSCORE_THREADS")


def _model_desc(model) -> dict:
    """The model as config_hash sees it: its kind, shape and a sha256 of its
    float64 parameters, so a retrained net or an edited mixture changes the
    hash and an equal model spelt differently in JSON does not."""
    if isinstance(model, GaussianMixture):
        desc = {"kind": "gmm", "shape": [model.n_components, model.dim]}
        params = (model.weights, model.means, model.covariances)
    else:
        desc = {"kind": "mlp", "widths": list(model.widths)}
        params = (model.params,)
    digest = hashlib.sha256()
    for a in params:
        digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    desc["sha256"] = digest.hexdigest()
    return desc


def _read_rows(path, what, dim=None):
    """The 2-d data tensor at path, as float, with every entry finite and,
    given a model's dim, rows of that width."""
    xs = read_tensor(path).astype(float)
    if xs.ndim != 2:
        raise TensorFormatError(f"{what} data must be 2-d, got shape {xs.shape}")
    if dim is not None and xs.shape[1] != dim:
        raise TensorFormatError(f"{path}: rows of width {xs.shape[1]}, but the model's dim is {dim}")
    bad = np.flatnonzero(~np.isfinite(xs).all(axis=1))
    if bad.size:
        raise TensorFormatError(f"{path}: row {bad[0]} has a non-finite entry")
    return xs


def _load_inputs(args):
    cfg = cfgmod.load_config(args.config)
    model = cfgmod.model_from_config(cfg)
    schedule = cfgmod.schedule_from_config(cfg)
    fcfg = cfgmod.feature_config_from_config(cfg, schedule)
    seed = cfg.get("seed", 0)
    return model, schedule, fcfg, seed


# -- subcommands ----------------------------------------------------------


def cmd_gen_data(args) -> int:
    _at_least(args.n, 1, "--n")
    _at_least(args.stream, 0, "--stream")
    cfg = cfgmod.load_config(args.config)
    model = cfgmod.model_from_config(cfg)
    if not isinstance(model, GaussianMixture):
        raise AnalyticModelRequiredError("gen-data samples from an analytic mixture")
    data_cfg = cfg.get("data", {})
    n = args.n if args.n is not None else data_cfg.get("n", 1000)
    stream = args.stream if args.stream is not None else data_cfg.get("stream", 0)
    seed = cfg.get("seed", 0)
    xs = model.sample(RngStream(seed, (LANE_DATA, stream)), n)
    write_tensor(args.out, xs)
    print(f"wrote {n} samples of dim {model.dim} to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = cfgmod.load_config(args.config)
    schedule = cfgmod.schedule_from_config(cfg)
    tcfg, hidden = cfgmod.train_config_from_config(cfg)
    data = _read_rows(args.data, "training")
    net = MlpDenoiser(data.shape[1], hidden=hidden, seed=tcfg.seed)
    losses = net.train(data, schedule, tcfg)
    net.save(args.out, train_config=tcfg)
    print(
        f"trained {len(hidden)}-hidden-layer denoiser on {data.shape[0]} samples: "
        f"loss {losses[0]:.6g} -> {losses[-1]:.6g}, saved to {args.out}"
    )
    return 0


def cmd_fit(args) -> int:
    model, schedule, fcfg, seed = _load_inputs(args)
    metric = args.metric
    if metric == "score-deriv" and len(fcfg.timesteps) < 2:
        raise ConfigError(f"config invalid at feature/timesteps: score-deriv needs two or more, got {len(fcfg.timesteps)}")
    xs = _read_rows(args.data, "fit", model.dim)
    threads = _thread_count(args)
    feats = extract_features(model, xs, schedule, fcfg, seed, threads=threads, metric=metric)
    calib = fit_calibration(
        feats,
        aggregation=fcfg.aggregation,
        metric=metric,
        config_hash=config_hash(_model_desc(model), schedule, fcfg, metric),
        timesteps=fcfg.timesteps,
    )
    atomic_write_text(args.out, json.dumps(calib.to_dict(), indent=2, sort_keys=True) + "\n")
    print(f"calibrated {metric} on {len(feats)} samples -> {args.out}")
    return 0


def cmd_score(args) -> int:
    calib = Calibration.from_dict(cfgmod.load_calibration_doc(args.calibration))
    if args.export_components is not None and calib.metric in BASELINES:
        raise ConfigError(
            f"--export-components needs an eigenscore calibration, got {calib.metric}"
        )
    model, schedule, fcfg, seed = _load_inputs(args)
    # the calibration does not record n_reps, so only the config can tell a
    # mean or median layout from that of "all" with one repetition
    if calib.metric not in BASELINES and calib.layout != _layout(calib.timesteps, calib.aggregation, fcfg.n_reps):
        raise ConfigError(
            f"calibration invalid at layout: its {len(calib.layout)} entries are not those of "
            f"{calib.aggregation!r} aggregation over timesteps {list(calib.timesteps)} "
            f"with the config's n_reps {fcfg.n_reps}"
        )
    cfgmod.checked_timesteps(schedule, calib.timesteps, "calibration", "timesteps")
    expected_hash = config_hash(_model_desc(model), schedule, fcfg, calib.metric)
    if calib.config_hash and calib.config_hash != expected_hash:
        log.warning(
            "calibration was fit under a different configuration "
            "(hash %s, current %s)", calib.config_hash, expected_hash,
        )
    xs = _read_rows(args.data, "score", model.dim)
    threads = _thread_count(args)
    run_cfg = replace(fcfg, timesteps=calib.timesteps, aggregation=calib.aggregation)
    feats = extract_features(model, xs, schedule, run_cfg, seed, threads=threads, metric=calib.metric)
    records = [eigen_score(f, calib) for f in feats]

    buf = io.StringIO()
    m = len(calib.mu)
    header = ["id", "score"] + [f"z_{j}" for j in range(1, m + 1)]
    buf.write(",".join(header) + "\n")
    for rec in records:
        cells = [str(rec.sample_id), FLOAT_FMT % rec.score]
        cells += [FLOAT_FMT % z for z in rec.z]
        buf.write(",".join(cells) + "\n")
    atomic_write_text(args.out, buf.getvalue())

    if args.export_components is not None:
        empty = np.empty((0, len(calib.timesteps), xs.shape[1]))
        comps = np.stack([f.components for f in feats]) if feats else empty
        write_tensor(args.export_components, comps)
    if args.json_out is not None:
        scores = [r.score for r in records]
        summary = {
            "metric": calib.metric,
            "n": len(records),
            "mean_score": float(np.mean(scores)) if scores else None,
            "min_score": min(scores, default=None),
            "max_score": max(scores, default=None),
            "config_hash": expected_hash,
        }
        atomic_write_text(args.json_out, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"scored {len(records)} samples with {calib.metric} -> {args.out}")
    return 0


def _read_scores_csv(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path} is not a score CSV: {e}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None or len(header) < 2 or header[0] != "id" or header[1] != "score":
        raise ConfigError(f"{path} is not a score CSV (want 'id,score,...' header)")
    scores = []
    for row in reader:
        if not row:
            continue
        try:
            scores.append(float(row[1]))
        except (IndexError, ValueError):
            raise ConfigError(
                f"{path}, line {reader.line_num}: want 'id,score,...', got {row!r}"
            ) from None
    return np.array(scores)


def cmd_eval(args) -> int:
    ind = _read_scores_csv(args.ind)
    ood = _read_scores_csv(args.ood)
    result = auroc(ind, ood)
    print(
        f"AUROC {result.auroc:.6f}  (n_ind={result.n_ind} n_ood={result.n_ood}, "
        f"higher score = more out-of-distribution)"
    )
    if args.json_out is not None:
        atomic_write_text(
            args.json_out, json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"
        )
    if args.roc_out is not None:
        buf = io.StringIO()
        buf.write("threshold,fpr,tpr\n")
        # curve arrays carry the prepended origin; thresholds align from 1
        for th, f, t in zip(result.thresholds, result.fpr[1:], result.tpr[1:]):
            buf.write(
                ",".join((FLOAT_FMT % th, FLOAT_FMT % f, FLOAT_FMT % t)) + "\n"
            )
        atomic_write_text(args.roc_out, buf.getvalue())
    return 0


def cmd_verify(args) -> int:
    report = run_all(_at_least(args.seed, 0, "--seed"))
    print(report.format_table())
    if args.json_out is not None:
        atomic_write_text(
            args.json_out, json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        )
    return 0 if report.all_pass else 1


# -- argument parsing -----------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigenscore",
        description="Out-of-distribution detection from the posterior spectrum of a denoiser.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, threads=False):
        p.add_argument("--config", required=True, help="JSON run configuration")
        if threads:
            p.add_argument(
                "--threads",
                type=int,
                default=None,
                help="worker threads (default: EIGENSCORE_THREADS or 1)",
            )

    p = sub.add_parser("gen-data", help="sample a dataset from an analytic mixture")
    add_common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--stream", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a small denoising network")
    add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("fit", help="calibrate a metric on training data")
    add_common(p, threads=True)
    p.add_argument("--metric", choices=METRICS, default=METRICS[0])
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("score", help="score samples against a calibration")
    add_common(p, threads=True)
    p.add_argument("--calibration", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--json-out", default=None)
    p.add_argument("--export-components", default=None, help="tensor of leading eigenvectors")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("eval", help="AUROC from two score CSVs")
    p.add_argument("--ind", required=True, help="in-distribution scores")
    p.add_argument("--ood", required=True, help="out-of-distribution scores")
    p.add_argument("--json-out", default=None)
    p.add_argument("--roc-out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run the analytic self-checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (TensorFormatError, CheckpointFormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except EigenscoreError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
