"""The three benchmark workloads and their output checks.

Each workload builds its inputs from the workload seed alone, sets up
(models, data, calibration), then serves closed-loop requests from one
client: the next request is sent when the previous one returns.

gmm2d-stream      one sample per request through the public API
                  (eigen_feature + eigen_score, one thread) on the paper's
                  concentric d=2 mixture; stresses spectral, linalg and rng
                  bookkeeping, since the denoiser is cheap at d=2.
gmm64-batch       `eigenscore score --threads 2` on small tensors of a fixed
                  8-component d=64 mixture, in process through cli.main;
                  stresses gmm.denoise, the thread pool, config and tensorio.
mlp32-train-score `eigenscore train` of a d=32 MLP denoiser in set-up, then
                  `score` with the checkpoint; the mlp layer runs
                  forward+backward+Adam in training, forward-only in scoring.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import logging
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from eigenscore import cli, evaluate, pipeline, spectral, tensorio
from eigenscore.gmm import GaussianMixture
from eigenscore.pipeline import FeatureConfig
from eigenscore.rng import LANE_DATA, LANE_NOISE, RngStream, gaussian_vec
from eigenscore.schedule import build_schedule, default_timesteps, sigma_at

# The default schedule the CLI builds when a config names none.
SCHEDULE = dict(kind="geometric", sigma_min=0.02, sigma_max=10.0, t_max=1000)


@dataclass
class Phase:
    """Operation counts of one phase of a run."""

    attempted: int = 0
    succeeded: int = 0
    failed: int = 0
    retries: int = 0
    imputed: int = 0


class PipelineLog(logging.Handler):
    """Counts rank-deficient retries and median imputations per phase.

    eigen_feature logs one warning per successful retry and one per
    timestep with imputed repetitions; an imputed repetition is a retry
    that failed, so it counts as a retry too.
    """

    def __init__(self, run):
        super().__init__(level=logging.WARNING)
        self.run = run

    def emit(self, record):
        phase = self.run.phase
        if "retry succeeded" in record.msg:
            phase.retries += 1
        elif "imputed" in record.msg:
            n = int(record.args[2])
            phase.imputed += n
            phase.retries += n


class Run:
    """State shared by a workload and the run loop: phases and checks."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.phases: dict[str, Phase] = {}
        self.phase = self.enter("setup")
        self.checks: list[tuple[str, bool, str]] = []

    def enter(self, name: str) -> Phase:
        self.phase = self.phases.setdefault(name, Phase())
        return self.phase

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append((name, bool(ok), detail))

    def op(self, fn, *args, **kwargs):
        """Call fn as one counted operation; returns (ok, result)."""
        self.phase.attempted += 1
        try:
            result = fn(*args, **kwargs)
        except Exception as e:  # a failed operation is counted, not fatal
            self.phase.failed += 1
            self.check("no_exceptions", False, f"{type(e).__name__}: {e}")
            return False, None
        self.phase.succeeded += 1
        return True, result

    def cli(self, *argv: str) -> bool:
        """Run `eigenscore <argv>` in process; ok iff it exits with code 0."""
        out = io.StringIO()
        self.phase.attempted += 1
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(list(argv))
        except SystemExit as e:  # argparse rejects bad arguments this way
            code = e.code
        except Exception as e:  # an error the CLI does not map to an exit code
            code = f"{type(e).__name__}: {e}"
        if code == 0:
            self.phase.succeeded += 1
        else:
            self.phase.failed += 1
            self.check("cli_exit_0", False, f"{argv[0]} exited {code}: {out.getvalue()[-200:]}")
        return code == 0


def _random_spd(gen, d: int) -> np.ndarray:
    a = gen.standard_normal((d, d))
    return a @ a.T / d + 0.05 * np.eye(d)


def _fixed_mixture(d: int, m: int, fixed_seed: int):
    """A mixture that does not depend on the run seed, and its OOD copy.

    A Gaussian-mixture posterior covariance grows only where components
    compete for a point, so the out-of-distribution copy puts each
    component halfway between two neighbouring means.
    """
    gen = np.random.default_rng(fixed_seed)
    w = gen.uniform(0.5, 1.0, size=m)
    model = GaussianMixture(
        w / w.sum(),
        gen.normal(0.0, 1.0, size=(m, d)),
        np.stack([_random_spd(gen, d) for _ in range(m)]),
    )
    halfway = 0.5 * (model.means + np.roll(model.means, 1, axis=0))
    return model, GaussianMixture(model.weights, halfway, model.covariances)


def gmm_flops_per_row(model: GaussianMixture) -> float:
    """FLOPs of one denoised row, from array sizes: two d x d products per
    component (the quadratic form and the score pull) dominate."""
    return 4.0 * model.n_components * model.dim**2 + 6.0 * model.n_components * model.dim


def mlp_flops_per_row(widths) -> float:
    """Multiply-adds of one forward row through the dense layers, x2."""
    return 2.0 * sum(a * b for a, b in zip(widths[:-1], widths[1:]))


# The accuracy points do not depend on the run seed, so topk_rel_err is the
# same on every run of one build and moves only when the estimator does.
CHECK_SEED = 0
CHECK_REPS = 4


def topk_rel_err(run, model, ood, sched, fcfg) -> float:
    """Max relative error of eigen_feature's per-repetition top-k sums.

    The points are two in- and two out-of-distribution samples, every
    configured timestep and the first CHECK_REPS repetitions.  eigen_feature
    with aggregation "all" returns the estimated top-k eigenvalue sum of
    every (timestep, repetition); the analytic spectrum is taken at the
    same noisy point, rebuilt from the documented (seed, sample id,
    timestep, repetition, lane) noise stream.
    """
    cfg = FeatureConfig(
        timesteps=fcfg.timesteps, top_k=fcfg.top_k, n_reps=fcfg.n_reps, aggregation="all"
    )
    xs = np.concatenate([
        m.sample(RngStream(CHECK_SEED, (LANE_DATA, lane)), 2) for lane, m in ((1, model), (2, ood))
    ])
    worst = 0.0
    for sample_id, x in enumerate(xs):
        ok, feat = run.op(pipeline.eigen_feature, model, x, sched, cfg, CHECK_SEED, sample_id=sample_id)
        if not ok:
            return math.inf
        for (t, slot), value in zip(feat.layout, feat.values):
            rep = slot - 1
            if rep >= CHECK_REPS:
                continue
            sigma = sigma_at(sched, t)
            noise = gaussian_vec(RngStream(CHECK_SEED, (sample_id, t, rep, LANE_NOISE)), x.shape[0], sigma)
            exact = float(np.sum(spectral.analytic_spectrum(model, x + noise, sigma, fcfg.top_k).eigenvalues))
            worst = max(worst, abs(value - exact) / exact)
    return worst


class Workload:
    """What every workload shares: its output floors and the accuracy check.

    Subclasses set model/ood (analytic mixtures), sched, fcfg and flops
    (per-row FLOPs of gmm and mlp denoising) in setup, and provide
    setup(run), request(run, i) -> samples served, and evaluate(run) -> AUROC.
    """

    auroc_floor = 0.75
    topk_tol = 0.05

    def check(self, run) -> float:
        worst = topk_rel_err(run, self.model, self.ood, self.sched, self.fcfg)
        run.check("topk_rel_err", worst <= self.topk_tol, f"{worst:.3g} <= {self.topk_tol}")
        return worst


# -- gmm2d-stream -------------------------------------------------------------


class Gmm2dStream(Workload):
    """The paper's concentric d=2 mixture, one sample per request."""

    min_requests = 150  # p90 latency needs 10 requests beyond it
    auroc_requests = 150  # AUROC over the first 75 in- and 75 out-of-distribution
    auroc_floor = 0.8
    topk_tol = 0.01
    n_cal = 8
    pool = 4096
    id_base = 1_000_000  # request sample ids, clear of the calibration ids

    def setup(self, run):
        weights = [0.6, 0.37, 0.03]
        covs = [0.09 * np.eye(2), 1.0 * np.eye(2), 16.0 * np.eye(2)]
        ind = GaussianMixture(weights, np.zeros((3, 2)), covs)
        shift = 3.0 * math.sqrt(np.trace(ind.covariance()) / 2.0)
        ood = GaussianMixture(weights, np.full((3, 2), [shift, 0.0]), covs)
        sched = build_schedule(**SCHEDULE)
        fcfg = FeatureConfig(timesteps=default_timesteps(sched), top_k=3, n_reps=20)
        cal = ind.sample(RngStream(run.seed, (LANE_DATA, 0)), self.n_cal)
        feats = [
            run.op(pipeline.eigen_feature, ind, x, sched, fcfg, run.seed, sample_id=i)
            for i, x in enumerate(cal)
        ]
        _, self.calib = run.op(pipeline.fit_calibration, [f for ok, f in feats if ok], "mean")
        self.model, self.ood, self.sched, self.fcfg = ind, ood, sched, fcfg
        self.flops = (gmm_flops_per_row(ind), 0.0)
        # requests alternate in- and out-of-distribution samples
        self.xs = (
            ind.sample(RngStream(run.seed, (LANE_DATA, 1)), self.pool),
            ood.sample(RngStream(run.seed, (LANE_DATA, 2)), self.pool),
        )
        self.scores: list[float] = []

    def _x(self, i):
        return self.xs[i % 2][(i // 2) % self.pool]

    def _score(self, seed, x, sample_id):
        feat = pipeline.eigen_feature(self.model, x, self.sched, self.fcfg, seed, sample_id=sample_id)
        return pipeline.eigen_score(feat, self.calib)

    def request(self, run, i: int) -> int:
        ok, rec = run.op(self._score, run.seed, self._x(i), self.id_base + i)
        self.scores.append(rec.score if ok else math.nan)
        return 1

    def evaluate(self, run) -> float:
        scores = np.asarray(self.scores)
        run.check("scores_finite", np.all(np.isfinite(scores)), f"{scores.size} scores")
        first = scores[: self.auroc_requests]
        ok, res = run.op(evaluate.auroc, first[0::2], first[1::2])
        area = res.auroc if ok else math.nan
        run.check(
            "auroc_floor",
            first.size == self.auroc_requests and area >= self.auroc_floor,
            f"{area:.4f} >= {self.auroc_floor} over {first.size} requests",
        )
        return area


# -- CLI workloads ---------------------------------------------------------------


def _read_scores(path: str):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in row[1:]] for row in rows[1:]]


class CliWorkload(Workload):
    """Set-up and score requests through `eigenscore` subcommands.

    Requests alternate between in- and out-of-distribution batch tensors,
    cycling through `batches` of each; the first pass over them is the
    fixed set the AUROC is computed on.
    """

    batch = 4
    batches = 8
    threads = 1
    n_fit = 4

    @property
    def min_requests(self) -> int:
        return 2 * self.batches

    def _write_json(self, run, name, doc) -> str:
        path = run.path(name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def _gmm_doc(self, model, seed) -> dict:
        return {"seed": seed, "model": {"kind": "gmm", **model.to_dict()}}

    def _split(self, run, kind) -> list[str]:
        pool = tensorio.read_tensor(run.path(f"{kind}.bin"))
        paths = []
        for b in range(self.batches):
            path = run.path(f"{kind}-{b}.bin")
            tensorio.write_tensor(path, pool[b * self.batch : (b + 1) * self.batch])
            paths.append(path)
        return paths

    def setup(self, run):
        self.first_pass: dict[str, list[str]] = {"ind": [], "ood": []}
        n = str(self.batches * self.batch)
        ind_data, ood_data, self.config = self.configs(run)
        run.cli("gen-data", "--config", ind_data, "--n", n, "--stream", "1", "--out", run.path("ind.bin"))
        run.cli("gen-data", "--config", ood_data, "--n", n, "--stream", "2", "--out", run.path("ood.bin"))
        run.cli("gen-data", "--config", ind_data, "--n", str(self.n_fit), "--stream", "3", "--out", run.path("fit.bin"))
        self.inputs = {kind: self._split(run, kind) for kind in ("ind", "ood")}
        self.train(run, ind_data)
        run.cli(
            "fit", "--config", self.config, "--data", run.path("fit.bin"),
            "--out", run.path("calib.json"), "--threads", str(self.threads),
        )

    def train(self, run, data_config) -> None:
        pass

    def score(self, run, data, out, threads) -> bool:
        return run.cli(
            "score", "--config", self.config, "--calibration", run.path("calib.json"),
            "--data", data, "--out", out, "--threads", str(threads),
        )

    def request(self, run, i: int) -> int:
        kind = ("ind", "ood")[i % 2]
        b = (i // 2) % self.batches
        first = i < 2 * self.batches
        out = run.path(f"scores-{kind}-{b}.csv" if first else "scores.csv")
        if self.score(run, self.inputs[kind][b], out, self.threads):
            header, rows = _read_scores(out)
            if first:
                self.first_pass[kind].append(out)
            values = np.array(rows)
            ok = values.shape == (self.batch, len(header) - 1) and np.all(np.isfinite(values))
            if not ok:
                run.check("scores_finite", False, f"{out}: shape {values.shape} or non-finite")
        return self.batch

    def evaluate(self, run) -> float:
        """`eigenscore eval` over the first pass of in- and out-of-distribution scores."""
        complete = all(len(v) == self.batches for v in self.first_pass.values())
        run.check("scores_finite", complete, f"first pass of {2 * self.batches} batches scored")
        area = math.nan
        if complete:
            for kind, paths in self.first_pass.items():
                with open(run.path(f"all-{kind}.csv"), "w", encoding="utf-8") as fh:
                    for j, path in enumerate(paths):
                        with open(path, encoding="utf-8") as part:
                            lines = part.readlines()
                        fh.writelines(lines if j == 0 else lines[1:])
            if run.cli(
                "eval", "--ind", run.path("all-ind.csv"), "--ood", run.path("all-ood.csv"),
                "--json-out", run.path("auroc.json"),
            ):
                with open(run.path("auroc.json"), encoding="utf-8") as fh:
                    area = json.load(fh)["auroc"]
        run.check("auroc_floor", area >= self.auroc_floor, f"{area:.4f} >= {self.auroc_floor}")
        return area


class Gmm64Batch(CliWorkload):
    """A fixed 8-component d=64 mixture scored by `score --threads 2`."""

    threads = 2
    top_k = 8
    auroc_floor = 0.9

    def configs(self, run):
        ind, ood = _fixed_mixture(64, 8, fixed_seed=64)
        self.model, self.ood = ind, ood
        self.flops = (gmm_flops_per_row(ind), 0.0)
        self.sched = build_schedule(**SCHEDULE)
        # one timestep, the default nearest sigma = 1, keeps a request near
        # one second
        self.fcfg = FeatureConfig(timesteps=default_timesteps(self.sched)[1:2], top_k=self.top_k, n_reps=20)
        feature = {"timesteps": list(self.fcfg.timesteps), "top_k": self.top_k, "n_reps": 20}
        ind_doc = {**self._gmm_doc(ind, run.seed), "feature": feature}
        ind_path = self._write_json(run, "ind.json", ind_doc)
        ood_path = self._write_json(run, "ood.json", self._gmm_doc(ood, run.seed))
        return ind_path, ood_path, ind_path

    def check(self, run) -> float:
        worst = super().check(run)
        # thread-count invariance: byte-identical CSVs on a two-row slice
        slice_path = run.path("slice.bin")
        tensorio.write_tensor(slice_path, tensorio.read_tensor(self.inputs["ind"][0])[:2])
        blobs = []
        for threads in (1, 2):
            out = run.path(f"slice-t{threads}.csv")
            if self.score(run, slice_path, out, threads):
                with open(out, "rb") as fh:
                    blobs.append(fh.read())
        run.check(
            "threads_invariant",
            len(blobs) == 2 and blobs[0] == blobs[1],
            "score CSV identical with --threads 1 and --threads 2",
        )
        return worst


class Mlp32TrainScore(CliWorkload):
    """An MLP denoiser trained on a d=32 mixture, then used for scoring."""

    threads = 1
    batch = 8
    dim = 32
    hidden = (128, 128)
    train_steps = 1500
    n_train = 1024
    topk_tol = 0.1  # three of 32 eigenvalues with small gaps converge slowly

    def configs(self, run):
        ind, ood = _fixed_mixture(self.dim, 4, fixed_seed=32)
        self.model, self.ood = ind, ood
        self.flops = (0.0, mlp_flops_per_row((self.dim + 1, *self.hidden, self.dim)))
        self.sched = build_schedule(**SCHEDULE)
        self.fcfg = FeatureConfig(timesteps=default_timesteps(self.sched)[1:2], top_k=3, n_reps=20)
        self.checkpoint = run.path("net.bin")
        doc = {
            "seed": run.seed,
            "model": {"kind": "mlp", "checkpoint": self.checkpoint},
            "feature": {"timesteps": list(self.fcfg.timesteps), "top_k": 3, "n_reps": 20},
            "train": {"steps": self.train_steps, "batch_size": 64, "hidden": list(self.hidden), "seed": 0},
        }
        ind_path = self._write_json(run, "ind.json", self._gmm_doc(ind, run.seed))
        ood_path = self._write_json(run, "ood.json", self._gmm_doc(ood, run.seed))
        return ind_path, ood_path, self._write_json(run, "mlp.json", doc)

    def train(self, run, data_config) -> None:
        run.cli(
            "gen-data", "--config", data_config, "--n", str(self.n_train), "--stream", "0",
            "--out", run.path("train.bin"),
        )
        t0 = time.perf_counter()
        if run.cli("train", "--config", self.config, "--data", run.path("train.bin"), "--out", self.checkpoint):
            self.train_steps_per_s = self.train_steps / (time.perf_counter() - t0)


WORKLOADS = {
    "gmm2d-stream": Gmm2dStream,
    "gmm64-batch": Gmm64Batch,
    "mlp32-train-score": Mlp32TrainScore,
}
