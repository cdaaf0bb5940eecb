"""From per-sample spectra to calibrated out-of-distribution scores.

For each selected timestep t and repetition i, a sample x is perturbed to
x_t = x + sigma_t z and the top eigenvalues of the posterior covariance are
estimated at x_t; their sum is the raw feature.  Features are aggregated
over repetitions, z-scored per coordinate against training-set statistics,
and summed into a single score where larger means more out-of-distribution.
"""
from __future__ import annotations

import hashlib
import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    AnalyticModelRequiredError,
    BadRangeError,
    ConfigError,
    LayoutMismatchError,
    TooFewSamplesError,
    TooFewTimestepsError,
)
from .rng import LANE_NOISE, LANE_SPECTRAL, RngStream, gaussian_vec
from .schedule import NoiseSchedule, sigma_at, validate_timesteps
# subspace_iteration is unused here, but perfbench/spans.py traces it in this namespace
from .spectral import (
    SpectralConfig,
    _as_denoise_fn,
    full_basis,
    subspace_iteration,
    subspace_iteration_batch,
)

log = logging.getLogger(__name__)

AGGREGATIONS = ("mean", "median", "all")
SIGMA_FLOOR = 1e-12

# Shared unit-noise draws for the score-derivative baseline use this lane in
# place of a timestep index, since one draw spans all selected timesteps.
_PATH_LANE = 0


@dataclass
class FeatureConfig:
    """What `eigen_feature` computes per sample.

    top_k is owned here: construction copies it into `spectral` (a new
    SpectralConfig, so the one passed in is left as it was), and the probe
    never sees another value.
    """

    timesteps: tuple[int, ...]
    top_k: int = 3
    n_reps: int = 20
    aggregation: str = "mean"
    spectral: SpectralConfig = field(default_factory=SpectralConfig)

    def __post_init__(self):
        self.timesteps = tuple(int(t) for t in self.timesteps)
        if self.aggregation not in AGGREGATIONS:
            raise BadRangeError(
                f"aggregation must be one of {AGGREGATIONS}, got {self.aggregation!r}"
            )
        if self.n_reps < 1:
            raise BadRangeError(f"n_reps must be >= 1, got {self.n_reps}")
        self.spectral = replace(self.spectral, top_k=self.top_k)


@dataclass
class EigenFeature:
    """Aggregated eigenvalue-sum features for one sample.

    layout pairs (timestep, slot): slot is 1 for mean/median aggregation
    and runs 1..n_reps when all repetitions are kept.  components (T, d)
    holds, per timestep, the leading eigenvector of repetition 0; it is
    None for the baseline metrics.
    """

    sample_id: int
    values: np.ndarray
    layout: tuple[tuple[int, int], ...]
    components: np.ndarray | None = None


@dataclass
class Calibration:
    """Per-coordinate training statistics used to z-score features."""

    metric: str
    timesteps: tuple[int, ...]
    aggregation: str
    mu: np.ndarray
    sigma: np.ndarray
    layout: tuple[tuple[int, int], ...]
    n_train: int
    config_hash: str = ""

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "timesteps": list(self.timesteps),
            "aggregation": self.aggregation,
            "mu": [float(v) for v in self.mu],
            "sigma": [float(v) for v in self.sigma],
            "layout": [[int(t), int(s)] for t, s in self.layout],
            "n_train": self.n_train,
            "config_hash": self.config_hash,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Calibration":
        """Calibration from its document; an unknown metric, a layout other
        than the one its metric, timesteps and aggregation give, or mu and
        sigma that would give nan or finite-looking wrong scores, are a
        ConfigError naming the field."""
        if d["metric"] not in METRICS:
            raise ConfigError(
                f"calibration invalid at metric: {d['metric']!r} is not one of {METRICS}"
            )
        layout = tuple((int(t), int(s)) for t, s in d["layout"])
        timesteps = tuple(int(t) for t in d["timesteps"])
        want = _layout(timesteps, d["aggregation"], max(1, len(layout) // max(1, len(timesteps))))
        if d["metric"] in BASELINES:
            want = ((0, 1),) if d["aggregation"] == "mean" else None
        if layout != want:
            raise ConfigError(
                f"calibration invalid at layout: its {len(layout)} entries are not those of "
                f"{d['metric']} over timesteps {list(timesteps)} with {d['aggregation']!r} aggregation"
            )
        fields = {}
        for name in ("mu", "sigma"):
            try:
                values = fields[name] = np.asarray(d[name], dtype=float)
            except OverflowError:
                raise ConfigError(f"calibration invalid at {name}: integer beyond float range") from None
            if values.shape != (len(layout),):
                raise ConfigError(
                    f"calibration invalid at {name}: "
                    f"{values.size} values for {len(layout)} layout entries"
                )
            for i, v in enumerate(values):
                # sigma 0 is a constant coordinate, floored at SIGMA_FLOOR
                if not np.isfinite(v) or (name == "sigma" and v < 0):
                    rule = "finite and >= 0" if name == "sigma" else "finite"
                    raise ConfigError(f"calibration invalid at {name}/{i}: {v} must be {rule}")
        return cls(
            metric=d["metric"],
            timesteps=timesteps,
            aggregation=d["aggregation"],
            mu=fields["mu"],
            sigma=fields["sigma"],
            layout=layout,
            n_train=int(d["n_train"]),
            config_hash=d.get("config_hash", ""),
        )


@dataclass
class ScoreRecord:
    sample_id: int
    score: float
    z: np.ndarray


def config_hash(model_desc, schedule: NoiseSchedule, config: FeatureConfig, metric: str) -> str:
    """Stable short hash of everything that shapes a feature vector.

    The spectral section names the estimator, so eigenscore calibrations
    fitted by an earlier estimator no longer match.  Baseline metrics keep
    the name their calibrations were fitted under, since no probe shapes
    their features.
    """
    estimator = "rayleigh-ritz" if metric in BASELINES else "ritz values of sym(J)"
    doc = {
        "model": model_desc,
        "schedule": schedule.to_dict(),
        "metric": metric,
        "top_k": config.top_k,
        "n_reps": config.n_reps,
        "spectral": {
            "estimator": estimator,
            "n_iters": config.spectral.n_iters,
            "fd_rel": config.spectral.fd_rel,
            "early_stop_tol": config.spectral.early_stop_tol,
        },
    }
    blob = json.dumps(doc, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


# -- feature extraction ---------------------------------------------------


def _noisy_points(x, timesteps, sigmas, reps, seed, sample_id):
    """x + sigma_t z for each timestep t (noise level sigma_t) and each
    repetition in reps, timestep-major; z from its (sample, t, rep, LANE_NOISE) stream."""
    rngs = [RngStream(seed, (sample_id, t, rep, LANE_NOISE)) for t in timesteps for rep in reps]
    return x[None, :] + gaussian_vec(rngs, x.shape[0], np.repeat(sigmas, len(reps)))


def eigen_feature(
    denoiser,
    x: np.ndarray,
    schedule: NoiseSchedule,
    config: FeatureConfig,
    seed: int,
    sample_id: int = 0,
) -> EigenFeature:
    """Eigenvalue-sum feature vector for one sample.

    Per (timestep, repetition) the noise draw and the spectral starting
    directions come from streams keyed by (sample_id, t, repetition), so
    the result does not depend on evaluation order; the starting
    directions' streams are built only when the probe iterates (see
    `spectral.full_basis`).  All (timestep, repetition) rows run as one
    `subspace_iteration_batch` call, one probe per row; a row whose
    Jacobian products lose rank reads the eigenvalues of the subspace it
    found, about 0 for the missing ones.  The feature also carries each
    timestep's leading eigenvector from repetition 0
    (`EigenFeature.components`), the only rows whose Ritz vectors the
    probe computes.
    """
    x = np.asarray(x, dtype=float)
    timesteps = validate_timesteps(schedule, config.timesteps)
    n_reps = config.n_reps
    reps = range(n_reps)
    sigmas = [sigma_at(schedule, t) for t in timesteps]
    # every (timestep, repetition) row shares one probe, timestep-major, so
    # each denoiser call covers one timestep's active rows; every row still
    # follows its own (sample, t, rep)-keyed streams
    x_ts = _noisy_points(x, timesteps, sigmas, reps, seed, sample_id)
    rngs = None
    if not full_basis(config.spectral, x.shape[0]):
        rngs = [RngStream(seed, (sample_id, t, rep, LANE_SPECTRAL)) for t in timesteps for rep in reps]
    # components read only repetition 0's vectors, so only those rows ask for them
    first = np.arange(x_ts.shape[0]) % n_reps == 0
    all_results = subspace_iteration_batch(
        denoiser, x_ts, np.repeat(sigmas, n_reps), config.spectral, rngs, vectors=first
    )
    vals = np.array([r.eigenvalues for r in all_results])
    raw = np.add.reduce(vals, axis=1).reshape(len(timesteps), n_reps)
    components = np.array([r.eigenvectors[:, 0] for r in all_results[::n_reps]])
    feature = _aggregate(raw, timesteps, config.aggregation, n_reps, sample_id)
    return replace(feature, components=components)


def _layout(timesteps, aggregation, n_reps) -> tuple[tuple[int, int], ...]:
    """An eigenscore feature's (timestep, slot) pairs: slots 1..n_reps under all, else 1."""
    slots = n_reps if aggregation == "all" else 1
    return tuple((t, i + 1) for t in timesteps for i in range(slots))


def _aggregate(raw, timesteps, aggregation, n_reps, sample_id) -> EigenFeature:
    if aggregation == "mean":
        values = raw.mean(axis=1)
    elif aggregation == "median":
        values = np.median(raw, axis=1)
    else:
        values = raw.reshape(-1)
    layout = _layout(timesteps, aggregation, n_reps)
    return EigenFeature(sample_id=sample_id, values=values, layout=layout)


def extract_features(
    denoiser,
    xs: np.ndarray,
    schedule: NoiseSchedule,
    config: FeatureConfig,
    seed: int,
    threads: int = 1,
    sample_ids=None,
    metric: str = "eigenscore",
) -> list[EigenFeature]:
    """The metric's feature for each row of xs, optionally on a thread pool.

    eigenscore runs `eigen_feature`; a baseline (a `BASELINES` entry) gives
    one whole-sample value with layout ((0, 1),) from config's timesteps and
    n_reps.  Results are identical for any thread count: all randomness is
    keyed by (seed, sample_id, timestep, repetition) and collection
    preserves order.
    """
    if metric not in METRICS:
        raise BadRangeError(f"metric must be one of {METRICS}, got {metric!r}")
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ids = list(range(xs.shape[0])) if sample_ids is None else list(sample_ids)
    if len(ids) != xs.shape[0]:
        raise BadRangeError("sample_ids length does not match data")

    def work(row_and_id):
        row, sid = row_and_id
        if metric == "eigenscore":
            return eigen_feature(denoiser, row, schedule, config, seed, sample_id=sid)
        value = BASELINES[metric](
            denoiser, row, schedule, config.timesteps, config.n_reps, seed, sample_id=sid
        )
        return EigenFeature(sample_id=sid, values=np.array([value]), layout=((0, 1),))

    items = list(zip(xs, ids))
    if threads <= 1:
        return [work(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(work, items))


# -- calibration and scoring ----------------------------------------------


def _common_layout(features) -> tuple[tuple[int, int], ...]:
    layout = features[0].layout
    for f in features[1:]:
        if f.layout != layout:
            raise LayoutMismatchError(
                f"feature layouts differ: {f.layout} vs {layout}"
            )
    return layout


def fit_calibration(
    features: list[EigenFeature],
    aggregation: str,
    metric: str = "eigenscore",
    config_hash: str = "",
    timesteps=None,
) -> Calibration:
    """Per-coordinate mean and population standard deviation (divide by N).

    timesteps defaults to the distinct ones in the layout; scalar metrics
    whose layout does not encode timesteps pass them explicitly.  A
    baseline's single value is recorded with aggregation "mean", whatever
    aggregation is passed.
    """
    if len(features) < 2:
        raise TooFewSamplesError(f"calibration needs >= 2 samples, got {len(features)}")
    if metric in BASELINES:
        aggregation = "mean"
    layout = _common_layout(features)
    stacked = np.stack([f.values for f in features])
    if timesteps is None:
        timesteps = tuple(dict.fromkeys(t for t, _ in layout))
    else:
        timesteps = tuple(int(t) for t in timesteps)
    return Calibration(
        metric=metric,
        timesteps=timesteps,
        aggregation=aggregation,
        mu=stacked.mean(axis=0),
        sigma=stacked.std(axis=0),  # population convention, ddof=0
        layout=layout,
        n_train=len(features),
        config_hash=config_hash,
    )


def eigen_score(feature: EigenFeature, calibration: Calibration) -> ScoreRecord:
    """Sum of per-coordinate z-scores; higher means more out-of-distribution."""
    if feature.layout != calibration.layout:
        raise LayoutMismatchError(
            f"feature layout {feature.layout} does not match calibration"
        )
    z = (feature.values - calibration.mu) / np.maximum(calibration.sigma, SIGMA_FLOOR)
    return ScoreRecord(sample_id=feature.sample_id, score=float(np.sum(z)), z=z)


def reduce_feature(feature: EigenFeature, timesteps, aggregation: str) -> EigenFeature:
    """Restrict an all-repetitions feature to a timestep subset and aggregate."""
    if aggregation not in AGGREGATIONS:
        raise BadRangeError(f"unknown aggregation {aggregation!r}")
    per_t: dict[int, list[float]] = {}
    for (t, _), v in zip(feature.layout, feature.values):
        per_t.setdefault(t, []).append(float(v))
    missing = [t for t in timesteps if t not in per_t]
    if missing:
        raise LayoutMismatchError(f"timesteps {missing} absent from feature layout")
    n_reps = len(per_t[timesteps[0]])
    raw = np.array([per_t[t] for t in timesteps])
    return _aggregate(raw, tuple(timesteps), aggregation, n_reps, feature.sample_id)


# -- tuning ---------------------------------------------------------------


@dataclass
class TuneResult:
    timesteps: tuple[int, ...]
    aggregation: str
    auroc: float
    table: list


def contiguous_subsets(timesteps) -> list[tuple[int, ...]]:
    ts = tuple(timesteps)
    return [ts[i:j] for i in range(len(ts)) for j in range(i + 1, len(ts) + 1)]


def tune(
    train_features: list[EigenFeature],
    val_ind_features: list[EigenFeature],
    val_ood_features,
) -> TuneResult:
    """Pick (timesteps, aggregation) maximizing validation AUROC.

    All features must carry every repetition (aggregation "all") over the
    full timestep list; every contiguous run of those timesteps, under
    every aggregation, is a candidate, evaluated by reducing them.  Ties
    prefer fewer timesteps, then mean over median over all.  Without
    validation out-of-distribution data the configured defaults are
    returned with a warning.
    """
    from .evaluate import auroc  # local import to avoid a cycle

    full_t = tuple(dict.fromkeys(t for t, _ in _common_layout(train_features)))
    if not val_ood_features:
        log.warning("no validation out-of-distribution data; keeping default timesteps and mean aggregation")
        return TuneResult(timesteps=full_t, aggregation="mean", auroc=float("nan"), table=[])
    agg_rank = {a: i for i, a in enumerate(AGGREGATIONS)}
    table = []
    for ts in contiguous_subsets(full_t):
        for agg in AGGREGATIONS:
            calib = fit_calibration(
                [reduce_feature(f, ts, agg) for f in train_features], agg
            )
            ind = [eigen_score(reduce_feature(f, ts, agg), calib).score for f in val_ind_features]
            ood = [eigen_score(reduce_feature(f, ts, agg), calib).score for f in val_ood_features]
            table.append((auroc(ind, ood).auroc, tuple(ts), agg))
    table.sort(key=lambda row: (-row[0], len(row[1]), agg_rank[row[2]], row[1]))
    best = table[0]
    return TuneResult(timesteps=best[1], aggregation=best[2], auroc=best[0], table=table)


# -- baseline scores ------------------------------------------------------


def _mean_sq_norm(v: np.ndarray) -> float:
    """Mean over rows of the squared row norm."""
    return float(np.mean(np.sum(v * v, axis=1)))


def _denoised_reps(denoiser, x, schedule, timesteps, n_reps, seed, sample_id):
    """(sigma, noisy points, denoised points) for each selected timestep.

    The n_reps noisy points are drawn as `eigen_feature` draws them, and the
    denoiser is resolved as the spectral engine resolves it.
    """
    fn = _as_denoise_fn(denoiser)
    ts = validate_timesteps(schedule, timesteps)
    sigmas = [sigma_at(schedule, t) for t in ts]
    all_pts = _noisy_points(x, ts, sigmas, range(n_reps), seed, sample_id)
    for i, sigma in enumerate(sigmas):
        pts = all_pts[i * n_reps : (i + 1) * n_reps]
        yield sigma, pts, fn(pts, sigma)


def mse_score(denoiser, x, schedule, timesteps, n_reps, seed, sample_id: int = 0) -> float:
    """Mean squared denoising error over timesteps and repetitions."""
    x = np.asarray(x, dtype=float)
    reps = _denoised_reps(denoiser, x, schedule, timesteps, n_reps, seed, sample_id)
    errs = [_mean_sq_norm(den - x[None, :]) for _, _, den in reps]
    return sum(errs) / len(errs)


def score_norm(denoiser, x, schedule, timesteps, n_reps, seed, sample_id: int = 0) -> float:
    """Root of the summed mean squared noise-estimate norm.

    The noise estimate is eps = (x_t - D(x_t)) / sigma_t; the score is
    sqrt(sum over t of mean over repetitions of ||eps||^2).
    """
    x = np.asarray(x, dtype=float)
    reps = _denoised_reps(denoiser, x, schedule, timesteps, n_reps, seed, sample_id)
    return float(np.sqrt(sum(_mean_sq_norm((pts - den) / sigma) for sigma, pts, den in reps)))


def score_derivative_norm(denoiser, x, schedule, timesteps, n_reps, seed, sample_id: int = 0) -> float:
    """Root-sum-square of finite differences of eps across timesteps.

    Each repetition keeps one underlying unit draw z and evaluates
    eps_t = (x_t - D(x_t)) / sigma_t at x_t = x + sigma_t z for every
    selected t; consecutive differences are divided by the index gap.
    """
    x = np.asarray(x, dtype=float)
    ts = validate_timesteps(schedule, timesteps)
    if len(ts) < 2:
        raise TooFewTimestepsError("need at least two timesteps for a t-derivative")
    fn = _as_denoise_fn(denoiser)
    d = x.shape[0]
    eps = np.empty((len(ts), n_reps, d))
    zs = gaussian_vec(
        [RngStream(seed, (sample_id, _PATH_LANE, i, LANE_NOISE)) for i in range(n_reps)], d, 1.0
    )
    for ti, t in enumerate(ts):
        sigma = sigma_at(schedule, t)
        pts = x[None, :] + sigma * zs
        eps[ti] = (pts - fn(pts, sigma)) / sigma
    total = 0.0
    for ti in range(len(ts) - 1):
        gap = ts[ti + 1] - ts[ti]
        total += _mean_sq_norm((eps[ti + 1] - eps[ti]) / gap)
    return float(np.sqrt(total))


def nll_score(model, x, schedule, timesteps) -> float:
    """Negative noisy log density summed over timesteps (analytic models only)."""
    logpdf = getattr(model, "noisy_logpdf", None)
    if logpdf is None:
        raise AnalyticModelRequiredError("nll_score needs a model with noisy_logpdf")
    x = np.asarray(x, dtype=float)
    return float(
        -sum(logpdf(x, sigma_at(schedule, t)) for t in validate_timesteps(schedule, timesteps))
    )


# The metric table: name -> f(denoiser, x, schedule, timesteps, n_reps, seed,
# sample_id) for each baseline (nll draws no noise, so it drops the last
# three); these names are the CLI's --metric choices and a calibration's
# "metric" field.
BASELINES = {
    "mse": mse_score,
    "score-norm": score_norm,
    "score-deriv": score_derivative_norm,
    "nll": lambda model, x, schedule, timesteps, *_, **__: nll_score(model, x, schedule, timesteps),
}
METRICS = ("eigenscore", *BASELINES)
