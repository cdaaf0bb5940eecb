import hashlib
import logging
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenscore.errors import (
    AnalyticModelRequiredError,
    BadRangeError,
    LayoutMismatchError,
    TooFewSamplesError,
    TooFewTimestepsError,
)
from eigenscore.gmm import GaussianMixture
from eigenscore.mlp import MlpDenoiser
from eigenscore.pipeline import (
    BASELINES,
    Calibration,
    EigenFeature,
    FeatureConfig,
    config_hash,
    contiguous_subsets,
    eigen_feature,
    eigen_score,
    extract_features,
    fit_calibration,
    mse_score,
    nll_score,
    reduce_feature,
    score_derivative_norm,
    score_norm,
    tune,
)
from eigenscore.rng import LANE_NOISE, LANE_SPECTRAL, RngStream, gaussian_vec
from eigenscore.schedule import build_schedule, sigma_at
from eigenscore.spectral import SpectralConfig, subspace_iteration


def small_model(d=2):
    means = np.pad([[-1.0], [1.0]], ((0, 0), (0, d - 1)))
    return GaussianMixture([0.5, 0.5], means, [np.eye(d) * 0.6, np.eye(d) * 0.9])


# The collapse tests need a QR of products that vanish, so the probe must
# iterate: top_k 1 with the default 15 re-orthonormalizations does so only
# past d = 16
ITERATED_DIM = 17


def small_schedule():
    return build_schedule("geometric", 0.1, 3.0, 12)


def test_feature_layout_mean_and_median():
    model, sched = small_model(), small_schedule()
    cfg = FeatureConfig(timesteps=(3, 7), top_k=2, n_reps=3, aggregation="mean")
    feat = eigen_feature(model, np.array([0.2, -0.1]), sched, cfg, seed=0, sample_id=4)
    assert feat.sample_id == 4
    assert feat.layout == ((3, 1), (7, 1))
    assert feat.values.shape == (2,)
    med = eigen_feature(
        model,
        np.array([0.2, -0.1]),
        sched,
        FeatureConfig(timesteps=(3, 7), top_k=2, n_reps=3, aggregation="median"),
        seed=0,
        sample_id=4,
    )
    assert med.layout == feat.layout


def test_feature_layout_all_keeps_every_repetition():
    model, sched = small_model(), small_schedule()
    cfg = FeatureConfig(timesteps=(3, 7), top_k=2, n_reps=3, aggregation="all")
    feat = eigen_feature(model, np.zeros(2), sched, cfg, seed=0)
    assert feat.layout == ((3, 1), (3, 2), (3, 3), (7, 1), (7, 2), (7, 3))
    assert feat.values.shape == (6,)


def test_feature_aggregations_consistent():
    model, sched = small_model(), small_schedule()
    base = dict(timesteps=(3, 7), top_k=2, n_reps=5)
    x = np.array([0.5, 0.5])
    all_f = eigen_feature(
        model, x, sched, FeatureConfig(aggregation="all", **base), seed=1
    )
    mean_f = eigen_feature(
        model, x, sched, FeatureConfig(aggregation="mean", **base), seed=1
    )
    med_f = eigen_feature(
        model, x, sched, FeatureConfig(aggregation="median", **base), seed=1
    )
    per_t = all_f.values.reshape(2, 5)
    assert np.allclose(mean_f.values, per_t.mean(axis=1), atol=0.0)
    assert np.allclose(med_f.values, np.median(per_t, axis=1), atol=0.0)


def test_feature_matches_manual_subspace_run():
    # one repetition recomputed by hand from the same streams
    model, sched = small_model(), small_schedule()
    cfg = FeatureConfig(timesteps=(5,), top_k=2, n_reps=3, aggregation="all")
    seed, sid, t, rep = 9, 2, 5, 1
    feat = eigen_feature(model, np.array([0.3, 0.7]), sched, cfg, seed=seed, sample_id=sid)
    sigma = sigma_at(sched, t)
    z = gaussian_vec(RngStream(seed, (sid, t, rep, LANE_NOISE)), 2, sigma)
    res = subspace_iteration(
        model,
        np.array([0.3, 0.7]) + z,
        sigma,
        SpectralConfig(top_k=2),
        rng=RngStream(seed, (sid, t, rep, LANE_SPECTRAL)),
    )
    assert feat.values[rep] == float(np.sum(res.eigenvalues))


def test_feature_independent_of_other_samples():
    model, sched = small_model(), small_schedule()
    cfg = FeatureConfig(timesteps=(3, 7), top_k=2, n_reps=2)
    alone = eigen_feature(model, np.array([1.0, 1.0]), sched, cfg, seed=3, sample_id=17)
    xs = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    feats = extract_features(model, xs, sched, cfg, seed=3, sample_ids=[5, 17, 40])
    assert np.array_equal(feats[1].values, alone.values)


def test_extract_features_threads_equal():
    model, sched = small_model(), small_schedule()
    cfg = FeatureConfig(timesteps=(3, 7), top_k=2, n_reps=2)
    xs = model.sample(RngStream(0, (0,)), 6)
    a = extract_features(model, xs, sched, cfg, seed=0, threads=1)
    b = extract_features(model, xs, sched, cfg, seed=0, threads=4)
    assert all(np.array_equal(x.values, y.values) for x, y in zip(a, b))
    assert [f.sample_id for f in a] == [f.sample_id for f in b] == list(range(6))


def test_extract_features_threads_equal_high_dim():
    # d=300 is past d=126, from where OpenBLAS can round a GEMM row
    # differently with the call's row count; the pool's thread count must
    # still change no bit
    d, m = 300, 4
    gen = np.random.default_rng(300)
    factors = gen.normal(size=(m, d, d)) / np.sqrt(d)
    covs = factors @ np.swapaxes(factors, 1, 2) + 0.5 * np.eye(d)
    model = GaussianMixture(np.full(m, 1.0 / m), 2.0 * gen.normal(size=(m, d)), covs)
    cfg = FeatureConfig(timesteps=(3, 7), top_k=2, n_reps=2)
    xs = model.sample(RngStream(0, (0,)), 5)
    runs = [
        extract_features(model, xs, small_schedule(), cfg, seed=0, threads=n) for n in (1, 2, 3)
    ]
    for feats in runs[1:]:
        for a, b in zip(runs[0], feats):
            assert a.values.tobytes() == b.values.tobytes()
            assert a.components.tobytes() == b.components.tobytes()


def test_extract_features_checks_ids():
    model, sched = small_model(), small_schedule()
    cfg = FeatureConfig(timesteps=(3,), top_k=1, n_reps=1)
    with pytest.raises(BadRangeError):
        extract_features(model, np.zeros((2, 2)), sched, cfg, seed=0, sample_ids=[1])


class CollapsingNear:
    """model's denoiser, zeroed in a ball of radius 0.1 around each center
    (at one noise level only, if sigma is given): the Jacobian vanishes
    there, so a probe whose noisy point lies in a ball reads zeros."""

    def __init__(self, model, centers, sigma=None):
        self.model, self.centers, self.sigma = model, centers, sigma

    def denoise(self, pts, s):
        out = self.model.denoise(pts, s)
        if self.sigma is None or s == self.sigma:
            for c in self.centers:
                out[np.linalg.norm(pts - c, axis=1) < 0.1] = 0.0
        return out


def noisy_point(x, sched, seed, sid, t, rep):
    """The noisy point of repetition rep at timestep t, as eigen_feature draws it."""
    return x + gaussian_vec(RngStream(seed, (sid, t, rep, LANE_NOISE)), x.shape[0], sigma_at(sched, t))


def test_local_rank_deficiency_reads_zero(caplog):
    # the Jacobian vanishes around the noisy point of one repetition: that
    # repetition reads 0, with no second probe, no imputation and no log
    # line, and the others keep the healthy model's every bit
    model, sched = small_model(ITERATED_DIM), small_schedule()
    cfg = FeatureConfig(timesteps=(5,), top_k=1, n_reps=3, aggregation="all")
    seed, sid, t, rep = 11, 0, 5, 1
    x = np.pad([0.4, -0.2], (0, ITERATED_DIM - 2))
    collapsing = CollapsingNear(model, [noisy_point(x, sched, seed, sid, t, rep)])
    with caplog.at_level(logging.DEBUG, logger="eigenscore"):
        feat = eigen_feature(collapsing, x, sched, cfg, seed=seed, sample_id=sid)
    assert not caplog.records
    healthy = eigen_feature(model, x, sched, cfg, seed=seed, sample_id=sid)
    assert feat.values[rep] == 0.0 and healthy.values[rep] > 0.0
    others = [0, 2]
    assert np.array_equal(feat.values[others], healthy.values[others])
    assert np.array_equal(feat.components, healthy.components)


def test_spectral_streams_built_only_when_the_probe_draws(monkeypatch):
    # a full basis draws no starting directions, so eigen_feature builds no
    # (sample, t, rep, LANE_SPECTRAL) stream for it; an iterated probe builds
    # one per (timestep, repetition) row
    built = []
    original = RngStream.__init__

    def recording(self, seed, stream=()):
        original(self, seed, stream)
        built.append(self.stream)

    monkeypatch.setattr(RngStream, "__init__", recording)
    cfg = FeatureConfig(timesteps=(3, 7), top_k=1, n_reps=3)
    for d, want in ((2, 0), (ITERATED_DIM, 2 * 3)):
        built.clear()
        eigen_feature(small_model(d), np.zeros(d), small_schedule(), cfg, seed=0)
        assert sum(len(s) == 4 and s[3] == LANE_SPECTRAL for s in built) == want


def rep0_component(model, x, sched, t, seed, sid, top_k=2):
    """The leading eigenvector of repetition 0, probed on its own."""
    sigma = sigma_at(sched, t)
    res = subspace_iteration(
        model,
        noisy_point(x, sched, seed, sid, t, 0),
        sigma,
        SpectralConfig(top_k=top_k),
        rng=RngStream(seed, (sid, t, 0, LANE_SPECTRAL)),
    )
    return res.eigenvectors[:, 0]


@pytest.mark.parametrize("threads", [1, 2])
def test_components_equal_rep0_probe(threads):
    model, sched = small_model(), small_schedule()
    cfg = FeatureConfig(timesteps=(3, 7), top_k=2, n_reps=3)
    xs = model.sample(RngStream(0, (0,)), 4)
    feats = extract_features(model, xs, sched, cfg, seed=5, threads=threads)
    for sid, (x, f) in enumerate(zip(xs, feats)):
        want = np.stack([rep0_component(model, x, sched, t, 5, sid) for t in (3, 7)])
        assert f.components.shape == (2, 2)
        assert np.array_equal(f.components, want)


def test_components_come_from_collapsed_rep0():
    # repetition 0 collapses; the component is still its probe's leading
    # Ritz vector, a unit vector, and the other repetitions are untouched
    model, sched = small_model(ITERATED_DIM), small_schedule()
    cfg = FeatureConfig(timesteps=(5,), top_k=1, n_reps=3, aggregation="all")
    seed, sid, t = 11, 0, 5
    x = np.pad([0.4, -0.2], (0, ITERATED_DIM - 2))
    collapsing = CollapsingNear(model, [noisy_point(x, sched, seed, sid, t, 0)])
    feat = eigen_feature(collapsing, x, sched, cfg, seed=seed, sample_id=sid)
    want = rep0_component(collapsing, x, sched, t, seed, sid, top_k=1)
    assert np.array_equal(feat.components[0], want)
    assert np.linalg.norm(want) == pytest.approx(1.0)
    assert not np.array_equal(want, rep0_component(model, x, sched, t, seed, sid, top_k=1))
    healthy = eigen_feature(model, x, sched, cfg, seed=seed, sample_id=sid)
    assert feat.values[0] == 0.0
    assert np.array_equal(feat.values[1:], healthy.values[1:])


def test_all_repetitions_collapsed_read_zero(caplog):
    # every repetition of one timestep collapses: the timestep reads 0
    # under every aggregation, with no error, and the other timestep keeps
    # every bit
    model, sched = small_model(ITERATED_DIM), small_schedule()
    seed, sid, t = 11, 0, 5
    x = np.pad([0.4, -0.2], (0, ITERATED_DIM - 2))
    centers = [noisy_point(x, sched, seed, sid, t, rep) for rep in range(3)]
    collapsing = CollapsingNear(model, centers, sigma=sigma_at(sched, t))
    for agg in ("all", "mean", "median"):
        cfg = FeatureConfig(timesteps=(3, 5), top_k=1, n_reps=3, aggregation=agg)
        with caplog.at_level(logging.DEBUG, logger="eigenscore"):
            feat = eigen_feature(collapsing, x, sched, cfg, seed=seed, sample_id=sid)
        healthy = eigen_feature(model, x, sched, cfg, seed=seed, sample_id=sid)
        values, want = feat.values.reshape(2, -1), healthy.values.reshape(2, -1)
        assert np.array_equal(values[1], np.zeros_like(values[1]))
        assert np.array_equal(values[0], want[0])
        assert np.array_equal(feat.components[0], healthy.components[0])
    assert not caplog.records


def test_multi_timestep_collapse_leaves_other_timesteps_alone(caplog):
    # the denoiser collapses only at t=5's noise level, around repetitions
    # 0 and 1: those two read 0, and every other repetition and timestep,
    # components included, keeps the healthy model's every bit
    model, sched = small_model(ITERATED_DIM), small_schedule()
    cfg = FeatureConfig(timesteps=(3, 5, 7), top_k=1, n_reps=4, aggregation="all")
    seed, sid, t = 11, 4, 5
    x = np.pad([0.4, -0.2], (0, ITERATED_DIM - 2))
    centers = [noisy_point(x, sched, seed, sid, t, rep) for rep in (0, 1)]
    collapsing = CollapsingNear(model, centers, sigma=sigma_at(sched, t))
    with caplog.at_level(logging.DEBUG, logger="eigenscore"):
        feat = eigen_feature(collapsing, x, sched, cfg, seed=seed, sample_id=sid)
    assert not caplog.records
    healthy = eigen_feature(model, x, sched, cfg, seed=seed, sample_id=sid)
    values, want = feat.values.reshape(3, 4), healthy.values.reshape(3, 4)
    assert np.array_equal(values[[0, 2]], want[[0, 2]])
    assert np.array_equal(feat.components[[0, 2]], healthy.components[[0, 2]])
    assert np.array_equal(values[1, :2], [0.0, 0.0])
    assert np.array_equal(values[1, 2:], want[1, 2:])


def test_rank_two_mixture_feature_is_finite():
    # top_k 4 at d = 100 iterates, and a rank-2 posterior makes its block
    # products lose rank on every repetition: the feature is still the sum
    # of the leading eigenvalues, about the two non-zero ones
    d, m = 100, 3
    gen = np.random.default_rng(0)
    factors = gen.standard_normal((m, d, 2))
    model = GaussianMixture(np.full(m, 1.0 / m), 2.0 * gen.standard_normal((m, d)), factors @ np.swapaxes(factors, 1, 2))
    sched = small_schedule()
    cfg = FeatureConfig(timesteps=(3, 7), top_k=4, n_reps=3, aggregation="all")
    x = model.sample(RngStream(1, (0,)), 1)[0]
    feat = eigen_feature(model, x, sched, cfg, seed=2)
    assert np.all(np.isfinite(feat.values)) and np.all(feat.values > 0.0)
    assert np.all(np.isfinite(feat.components))


def test_zero_denoiser_gives_zero_features(caplog):
    # D = 0 has a zero Jacobian: every probe collapses at once, on the
    # iterated path and on the full basis, and reads 0 without a warning
    sched = small_schedule()
    cfg = FeatureConfig(timesteps=(3, 7), top_k=1, n_reps=3, aggregation="all")
    for d in (ITERATED_DIM, 2):
        with warnings.catch_warnings(), caplog.at_level(logging.DEBUG, logger="eigenscore"):
            warnings.simplefilter("error")
            feat = eigen_feature(lambda x, s: np.zeros_like(x), np.ones(d), sched, cfg, seed=0)
        assert np.array_equal(feat.values, np.zeros(6))
        assert np.all(np.isfinite(feat.components))
    assert not caplog.records


def random_mixture(d, m, seed):
    gen = np.random.default_rng(seed)
    covs = []
    for _ in range(m):
        a = gen.standard_normal((d, d)) / np.sqrt(d)
        covs.append(a @ a.T + 0.05 * np.eye(d))
    return GaussianMixture(np.full(m, 1.0 / m), gen.standard_normal((m, d)), covs)


@pytest.mark.parametrize(
    "kind, aggregation, top_k, n_iters, want",
    [
        ("paper2d", "mean", 3, 15, "bebd1bcbd3d2d2b3b132b870c47e8504a9f579afc752f7bd9a46f5a5dd6a2726"),
        ("paper2d", "all", 2, 15, "08a29039d59445aef1c8595947c802c409d7764d5cc2ac3b4165846c32489533"),
        ("mixture24", "mean", 5, 15, "2ea0583575808ebd8248084120742c20037c30ebc7a392a18f80d63a7207a8bc"),
        ("mixture24", "all", 3, 15, "5f58c6fafb9e274f670bdbdc6c1277fd871db0253725205fd4dc78d7f41e0989"),
        ("mlp8", "mean", 3, 15, "1a4632de5865c453def0f9849a138c74843dbf941778b22eadf44bc1ad1eb74a"),
        ("mlp8", "all", 5, 15, "4f7cbf7c2cf61b35f4adfdc8922c09bfb2366519254f3b59cf1b62ae62a5af15"),
        ("mixture24", "mean", 5, 3, "c2b850f02e705a28bfbbdcb46dd80d6e9f60245cf724b0304d96e7adff47f2f2"),
    ],
    # ids without the digest, so a re-recorded digest keeps the test's name
    ids=[
        "paper2d-mean-3", "paper2d-all-2", "mixture24-mean-5", "mixture24-all-3", "mlp8-mean-3", "mlp8-all-5",
        "mixture24-mean-5-iterated",
    ],
)
def test_multi_timestep_features_pinned(kind, aggregation, top_k, n_iters, want):
    # sha256 of eigen_feature values and components over five timesteps,
    # recorded from the Ritz-value estimator; any change
    # to a row's arithmetic or to the points a denoiser call receives shows
    # here (x86-64, OpenBLAS).  With 15 sweeps every case covers its d and
    # takes the full basis; the last one (5 * 4 < 24) iterates
    if kind == "paper2d":
        weights, covs = [0.6, 0.37, 0.03], [0.09 * np.eye(2), np.eye(2), 16.0 * np.eye(2)]
        model = GaussianMixture(weights, np.zeros((3, 2)), covs)
    else:
        model = random_mixture(24, 3, seed=24) if kind == "mixture24" else MlpDenoiser(8, (16, 16), seed=3)
    sched = build_schedule("geometric", 0.02, 10.0, 1000)
    cfg = FeatureConfig(
        timesteps=(1, 50, 200, 500, 1000), top_k=top_k, n_reps=6, aggregation=aggregation,
        spectral=SpectralConfig(n_iters=n_iters),
    )
    xs = np.random.default_rng(model.dim).standard_normal((2, model.dim))
    digest = hashlib.sha256()
    for sid, x in enumerate(xs):
        feat = eigen_feature(model, x, sched, cfg, seed=7, sample_id=sid)
        digest.update(feat.values.tobytes())
        digest.update(feat.components.tobytes())
    assert digest.hexdigest() == want


@pytest.mark.parametrize(
    "kind, n_iters", [("mixture24", 15), ("mixture24", 3), ("mlp8", 15)],
    ids=["mixture24-full-basis", "mixture24-iterated", "mlp8-full-basis"],
)
def test_eigen_feature_takes_eigh_for_one_row_per_timestep(monkeypatch, kind, n_iters):
    # components read repetition 0's leading vector only, so of the
    # 5 timesteps x 6 repetitions one row per timestep takes eigh
    model = random_mixture(24, 3, seed=24) if kind == "mixture24" else MlpDenoiser(8, (16, 16), seed=3)
    sched = build_schedule("geometric", 0.02, 10.0, 1000)
    cfg = FeatureConfig(
        timesteps=(1, 50, 200, 500, 1000), top_k=5, n_reps=6, spectral=SpectralConfig(n_iters=n_iters)
    )
    x = np.random.default_rng(model.dim).standard_normal(model.dim)
    rows = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        rows.append(a.shape[0] if a.ndim == 3 else 1)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    feat = eigen_feature(model, x, sched, cfg, seed=7)
    assert sum(rows) == 5
    assert feat.components.shape == (5, model.dim)


def test_fit_calibration_oracle():
    layout = ((1, 1), (2, 1))
    feats = [
        EigenFeature(0, np.array([1.0, 10.0]), layout),
        EigenFeature(1, np.array([3.0, 10.0]), layout),
        EigenFeature(2, np.array([5.0, 10.0]), layout),
    ]
    calib = fit_calibration(feats, aggregation="mean")
    assert np.allclose(calib.mu, [3.0, 10.0])
    # population convention: std of (1,3,5) is sqrt(8/3)
    assert calib.sigma[0] == pytest.approx(np.sqrt(8.0 / 3.0), rel=1e-12)
    assert calib.sigma[1] == 0.0
    assert calib.timesteps == (1, 2)
    assert calib.n_train == 3


def test_fit_calibration_needs_two_samples():
    with pytest.raises(TooFewSamplesError):
        fit_calibration([EigenFeature(0, np.array([1.0]), ((1, 1),))], "mean")


def test_fit_calibration_rejects_mixed_layouts():
    with pytest.raises(LayoutMismatchError):
        fit_calibration(
            [
                EigenFeature(0, np.array([1.0]), ((1, 1),)),
                EigenFeature(1, np.array([1.0]), ((2, 1),)),
            ],
            "mean",
        )


def test_eigen_score_z_oracle():
    layout = ((1, 1), (2, 1))
    calib = Calibration(
        metric="eigenscore",
        timesteps=(1, 2),
        aggregation="mean",
        mu=np.array([1.0, 2.0]),
        sigma=np.array([2.0, 0.5]),
        layout=layout,
        n_train=10,
    )
    rec = eigen_score(EigenFeature(3, np.array([2.0, 1.0]), layout), calib)
    assert np.allclose(rec.z, [0.5, -2.0])
    assert rec.score == pytest.approx(-1.5)
    assert rec.sample_id == 3


def test_eigen_score_floors_zero_spread():
    layout = ((1, 1),)
    calib = Calibration(
        metric="eigenscore",
        timesteps=(1,),
        aggregation="mean",
        mu=np.array([5.0]),
        sigma=np.array([0.0]),
        layout=layout,
        n_train=4,
    )
    rec = eigen_score(EigenFeature(0, np.array([5.0 + 1e-9]), layout), calib)
    assert np.isfinite(rec.score)
    assert rec.z[0] == pytest.approx(1e-9 / 1e-12)


def test_eigen_score_layout_mismatch():
    calib = Calibration(
        metric="eigenscore",
        timesteps=(1,),
        aggregation="mean",
        mu=np.array([0.0]),
        sigma=np.array([1.0]),
        layout=((1, 1),),
        n_train=4,
    )
    with pytest.raises(LayoutMismatchError):
        eigen_score(EigenFeature(0, np.array([0.0]), ((2, 1),)), calib)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_training_z_scores_average_to_zero(seed):
    gen = np.random.default_rng(seed)
    layout = ((1, 1), (2, 1), (3, 1))
    vals = gen.normal(size=(6, 3)) + np.arange(3)
    vals[:, 0] += np.linspace(0.0, 1.0, 6)  # guarantee spread
    feats = [EigenFeature(i, vals[i], layout) for i in range(6)]
    calib = fit_calibration(feats, "mean")
    zbar = np.mean([eigen_score(f, calib).z for f in feats], axis=0)
    assert np.allclose(zbar, 0.0, atol=1e-9)


def test_reduce_feature_subsets_and_aggregates():
    layout = ((2, 1), (2, 2), (5, 1), (5, 2))
    feat = EigenFeature(7, np.array([1.0, 3.0, 10.0, 20.0]), layout)
    red = reduce_feature(feat, (5,), "mean")
    assert red.layout == ((5, 1),)
    assert red.values[0] == pytest.approx(15.0)
    assert red.sample_id == 7
    both = reduce_feature(feat, (2, 5), "median")
    assert np.allclose(both.values, [2.0, 15.0])
    kept = reduce_feature(feat, (2,), "all")
    assert kept.layout == ((2, 1), (2, 2))
    assert np.allclose(kept.values, [1.0, 3.0])


def test_reduce_feature_validates():
    feat = EigenFeature(0, np.array([1.0, 2.0]), ((2, 1), (2, 2)))
    with pytest.raises(LayoutMismatchError):
        reduce_feature(feat, (9,), "mean")
    with pytest.raises(BadRangeError):
        reduce_feature(feat, (2,), "mode")


def test_contiguous_subsets():
    assert contiguous_subsets((1, 2, 3)) == [
        (1,),
        (1, 2),
        (1, 2, 3),
        (2,),
        (2, 3),
        (3,),
    ]


def _planted_features(gen, n, shift_t5=0.0, base_id=0):
    layout = tuple((t, s) for t in (2, 5) for s in (1, 2, 3))
    out = []
    for i in range(n):
        vals = gen.normal(0.0, 1.0, size=6)
        vals[3:] += shift_t5
        out.append(EigenFeature(base_id + i, vals, layout))
    return out


def test_tune_finds_planted_timestep():
    gen = np.random.default_rng(0)
    train = _planted_features(gen, 20)
    val_ind = _planted_features(gen, 15, base_id=100)
    val_ood = _planted_features(gen, 15, shift_t5=50.0, base_id=200)
    result = tune(train, val_ind, val_ood)
    # timestep 5 alone separates perfectly; ties prefer fewer timesteps
    # and mean aggregation
    assert result.timesteps == (5,)
    assert result.aggregation == "mean"
    assert result.auroc == 1.0


def test_tune_without_ood_returns_defaults(caplog):
    gen = np.random.default_rng(1)
    train = _planted_features(gen, 8)
    val_ind = _planted_features(gen, 8, base_id=50)
    with caplog.at_level(logging.WARNING, logger="eigenscore.pipeline"):
        result = tune(train, val_ind, [])
    assert result.timesteps == (2, 5)
    assert result.aggregation == "mean"
    assert np.isnan(result.auroc)
    assert any("no validation" in r.message for r in caplog.records)


def test_mse_score_matches_manual_recomputation():
    model, sched = small_model(), small_schedule()
    x = np.array([0.5, -0.5])
    ts, n_reps, seed, sid = (3, 7), 4, 2, 6
    got = mse_score(model, x, sched, ts, n_reps, seed, sample_id=sid)
    total = 0.0
    for t in ts:
        sigma = sigma_at(sched, t)
        errs = []
        for i in range(n_reps):
            z = gaussian_vec(RngStream(seed, (sid, t, i, LANE_NOISE)), 2, sigma)
            err = model.denoise(x + z, sigma) - x
            errs.append(err @ err)
        total += np.mean(errs)
    assert got == pytest.approx(total / len(ts), rel=1e-12)


def test_score_norm_statistical_oracle():
    # unit 1-d Gaussian at sigma=1 and x = 0: x_t = z with unit variance,
    # eps = x_t / 2, so E||eps||^2 = 1/4 and the score is about 1/2
    g = GaussianMixture.single([0.0], [[1.0]])
    sched = build_schedule("linear", 1.0, 2.0, 2)
    val = score_norm(g, np.array([0.0]), sched, (1,), 400, seed=0)
    assert val == pytest.approx(0.5, abs=0.05)


def test_score_derivative_norm_manual():
    model, sched = small_model(), small_schedule()
    x = np.array([0.1, 0.2])
    ts, n_reps, seed, sid = (3, 5, 9), 3, 4, 2
    got = score_derivative_norm(model, x, sched, ts, n_reps, seed, sample_id=sid)
    zs = np.stack(
        [
            gaussian_vec(RngStream(seed, (sid, 0, i, LANE_NOISE)), 2, 1.0)
            for i in range(n_reps)
        ]
    )
    eps = []
    for t in ts:
        sigma = sigma_at(sched, t)
        pts = x[None, :] + sigma * zs
        eps.append((pts - model.denoise(pts, sigma)) / sigma)
    total = 0.0
    for a, b, gap in ((0, 1, 2), (1, 2, 4)):
        diff = (eps[b] - eps[a]) / gap
        total += np.mean(np.sum(diff * diff, axis=1))
    assert got == pytest.approx(np.sqrt(total), rel=1e-12)


@pytest.mark.parametrize(
    "baseline, ts", [(mse_score, (3, 7)), (score_norm, (3, 7)), (score_derivative_norm, (3, 5, 9))]
)
def test_baseline_takes_plain_callable(baseline, ts):
    # a plain f(x, sigma) is a denoiser, as for the spectral engine
    model, sched = small_model(), small_schedule()
    x = np.array([0.3, -0.4])
    want = baseline(model, x, sched, ts, 3, 1, sample_id=2)
    assert baseline(model.denoise, x, sched, ts, 3, 1, sample_id=2) == want


@pytest.mark.parametrize("threads", [1, 3])
def test_extract_features_runs_baselines(threads):
    model, sched = small_model(), small_schedule()
    xs = np.array([[0.2, -0.1], [1.5, 0.4], [-2.0, 1.0]])
    cfg = FeatureConfig(timesteps=(3, 7), n_reps=4)
    for metric, baseline in BASELINES.items():
        feats = extract_features(model, xs, sched, cfg, seed=2, threads=threads, metric=metric)
        for sid, (x, f) in enumerate(zip(xs, feats)):
            if metric == "nll":
                want = nll_score(model, x, sched, cfg.timesteps)
            else:
                want = baseline(model, x, sched, cfg.timesteps, cfg.n_reps, 2, sample_id=sid)
            assert f.sample_id == sid and f.layout == ((0, 1),) and f.components is None
            assert f.values.tolist() == [want]


def test_extract_features_rejects_unknown_metric():
    model, sched, cfg = small_model(), small_schedule(), FeatureConfig(timesteps=(3,))
    with pytest.raises(BadRangeError, match="metric must be one of"):
        extract_features(model, np.zeros((1, 2)), sched, cfg, seed=0, metric="foo")


def test_baseline_calibration_records_mean_aggregation():
    feats = [EigenFeature(i, np.array([float(i)]), ((0, 1),)) for i in range(3)]
    assert fit_calibration(feats, "all", metric="mse", timesteps=(3,)).aggregation == "mean"
    assert fit_calibration(feats, "median").aggregation == "median"


def test_score_derivative_needs_two_timesteps():
    model, sched = small_model(), small_schedule()
    with pytest.raises(TooFewTimestepsError):
        score_derivative_norm(model, np.zeros(2), sched, (3,), 2, seed=0)


def test_nll_score_oracle():
    g = GaussianMixture.single([0.0], [[1.0]])
    sched = build_schedule("linear", 1.0, 2.0, 2)
    # -log density of N(0, 1 + 1) at zero
    assert nll_score(g, np.array([0.0]), sched, (1,)) == pytest.approx(
        1.2655121234846454, abs=1e-14
    )
    assert nll_score(g, np.array([0.0]), sched, (1, 2)) > nll_score(
        g, np.array([0.0]), sched, (1,)
    )


def test_nll_score_needs_analytic_model():
    sched = build_schedule("linear", 1.0, 2.0, 2)
    with pytest.raises(AnalyticModelRequiredError):
        nll_score(lambda x, s: x, np.zeros(1), sched, (1,))


def test_config_hash_stable_and_sensitive():
    sched = small_schedule()
    cfg = FeatureConfig(timesteps=(3, 7), top_k=2, n_reps=4)
    a = config_hash({"kind": "gmm"}, sched, cfg, "eigenscore")
    b = config_hash({"kind": "gmm"}, sched, cfg, "eigenscore")
    assert a == b and len(a) == 16
    c = config_hash({"kind": "gmm"}, sched, FeatureConfig(timesteps=(3, 7), top_k=3), "eigenscore")
    assert c != a
    d = config_hash({"kind": "gmm"}, sched, cfg, "mse")
    assert d != a


def test_config_hash_names_the_ritz_estimator_and_keeps_baseline_hashes():
    # eigenscore features moved to sigma^2 times the Ritz values, so their
    # hash moved from the one earlier calibrations carry (fd19ed518f6fae72
    # for this configuration); a baseline's features did not, and its hash
    # is the one its calibrations were fitted under
    sched = small_schedule()
    cfg = FeatureConfig(timesteps=(3, 7), top_k=2, n_reps=4)
    assert config_hash({"kind": "gmm"}, sched, cfg, "eigenscore") == "2fa64aa94d34083d"
    assert config_hash({"kind": "gmm"}, sched, cfg, "mse") == "5fadc0a1441d74a4"


def test_calibration_round_trips_through_dict():
    calib = Calibration(
        metric="mse",
        timesteps=(3, 7),
        aggregation="mean",
        mu=np.array([1.0]),
        sigma=np.array([2.0]),
        layout=((0, 1),),
        n_train=12,
        config_hash="abc",
    )
    back = Calibration.from_dict(calib.to_dict())
    assert back.metric == "mse"
    assert back.timesteps == (3, 7)
    assert np.array_equal(back.mu, calib.mu)
    assert back.layout == ((0, 1),)
    assert back.config_hash == "abc"


def test_feature_config_validates():
    with pytest.raises(BadRangeError):
        FeatureConfig(timesteps=(1,), aggregation="max")
    with pytest.raises(BadRangeError):
        FeatureConfig(timesteps=(1,), n_reps=0)


def test_feature_config_owns_top_k():
    spectral = SpectralConfig()
    cfg = FeatureConfig(timesteps=(1,), top_k=2, spectral=spectral)
    assert cfg.spectral.top_k == 2
    assert spectral.top_k == 3 and cfg.spectral is not spectral
    assert FeatureConfig(timesteps=(1,), top_k=5).spectral.top_k == 5
