"""End-to-end acceptance checks, one per guaranteed behavior.

Each test prints a single [PASS]/[FAIL] line with the measured values so a
plain pytest run doubles as an acceptance report.  Numeric targets and time
budgets live here, spelled out, and the computations use only the public
package API plus the analytic mixture oracles.
"""
import json
import time

import numpy as np
import pytest

from eigenscore.cli import main as cli_main
from eigenscore.evaluate import auroc
from eigenscore.gmm import GaussianMixture
from eigenscore.linalg import qr_orthonormalize, sym_eig
from eigenscore.mlp import MlpDenoiser, TrainConfig
from eigenscore.pipeline import (
    FeatureConfig,
    eigen_score,
    extract_features,
    fit_calibration,
)
from eigenscore.rng import LANE_DATA, RngStream
from eigenscore.schedule import build_schedule, default_timesteps
from eigenscore.spectral import SpectralConfig, exact_spectrum, subspace_iteration
from eigenscore.verify import (
    kl_quadrature,
    mc_denoising_gap,
    random_benchmark_case,
    random_gaussian,
    random_mixture,
    spectrum_deviation,
)
from eigenscore.gmm import kl_gaussians


def report(capsys, ok, label, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_01_kl_from_denoising_gaps(capsys):
    # integrating the closed-form denoising gap over noise levels recovers
    # KL(N(0,1) || N(1,1)) = 1/2
    t0 = time.perf_counter()
    p = GaussianMixture.single([0.0], [[1.0]])
    q = GaussianMixture.single([1.0], [[1.0]])
    value = kl_quadrature(p, q).value
    elapsed = time.perf_counter() - t0
    err = abs(value - 0.5)
    ok = err <= 2e-3 and elapsed < 1.0
    report(
        capsys, ok,
        "01 KL from accumulated denoising gaps",
        f"value={value:.7f} |err|={err:.2e} (tol 2e-3), {elapsed:.2f}s (budget 1s)",
    )


def test_02_denoising_and_score_routes_agree(capsys):
    # the same KL integral through the score-gap route differs only by
    # roundoff, and both land on the closed form
    t0 = time.perf_counter()
    gen = RngStream(0, (LANE_DATA, 0)).generator()
    pairs = [(GaussianMixture.single([0.0], [[1.0]]), GaussianMixture.single([1.0], [[1.0]]))]
    pairs += [(random_gaussian(gen, d), random_gaussian(gen, d)) for d in (1, 2, 3)]
    worst_route = 0.0
    worst_exact = 0.0
    for p, q in pairs:
        den = kl_quadrature(p, q, route="denoising").value
        sco = kl_quadrature(p, q, route="score").value
        exact = kl_gaussians(p, q)
        worst_route = max(worst_route, abs(den - sco) / max(1.0, exact))
        worst_exact = max(worst_exact, abs(den - exact))
    elapsed = time.perf_counter() - t0
    ok = worst_route <= 1e-6 and worst_exact <= 2e-3 and elapsed < 1.0
    report(
        capsys, ok,
        "02 denoising route vs score route",
        f"route gap={worst_route:.2e} (tol 1e-6), closed-form gap={worst_exact:.2e} "
        f"(tol 2e-3), {elapsed:.2f}s (budget 1s)",
    )


def test_03_subspace_matches_dense_oracles(capsys):
    # 50 random mixtures: matrix-free top-3 eigenvalues against a dense
    # finite-difference Jacobian, and that Jacobian against the closed form.
    # At d = 4..16 the budget 3 * 21 covers d and the probe takes the full
    # basis; 50 more at d = 64..96 run the iterated path to the same bound
    t0 = time.perf_counter()
    gen = RngStream(1234, (LANE_DATA, 0)).generator()
    config = SpectralConfig(top_k=3, n_iters=20, fd_rel=1e-3, early_stop_tol=0.0)
    worst_sub = 0.0
    worst_exact = 0.0
    for i in range(50):
        model, x_t, sigma = random_benchmark_case(gen)
        est = subspace_iteration(
            model, x_t, sigma, config, rng=RngStream(1234, (LANE_DATA, 1, i))
        )
        ex = exact_spectrum(model, x_t, sigma, top_k=3)
        rel = np.max(np.abs(est.eigenvalues - ex.eigenvalues) / np.abs(ex.eigenvalues))
        worst_sub = max(worst_sub, float(rel))
        analytic, _ = sym_eig(model.posterior_cov(x_t, sigma).cov)
        gap = np.max(np.abs(ex.eigenvalues - analytic[:3])) / max(1.0, float(analytic[0]))
        worst_exact = max(worst_exact, float(gap))
    gen = RngStream(1234, (LANE_DATA, 12)).generator()
    worst_iter = 0.0
    for i in range(50):
        model, x_t, sigma = random_benchmark_case(gen, dims=(64, 97))
        est = subspace_iteration(
            model, x_t, sigma, config, rng=RngStream(1234, (LANE_DATA, 13, i))
        )
        assert est.n_iters == config.n_iters
        ex = exact_spectrum(model, x_t, sigma, top_k=3)
        rel = np.max(np.abs(est.eigenvalues - ex.eigenvalues) / np.abs(ex.eigenvalues))
        worst_iter = max(worst_iter, float(rel))
    elapsed = time.perf_counter() - t0
    ok = worst_sub <= 1e-2 and worst_iter <= 1e-2 and worst_exact <= 1e-4 and elapsed < 30.0
    report(
        capsys, ok,
        "03 subspace iteration vs dense oracles",
        f"50 + 50 cases, worst rel err={worst_sub:.2e} full basis, {worst_iter:.2e} "
        f"iterated (tol 1e-2), dense vs closed form={worst_exact:.2e} (tol 1e-4), "
        f"{elapsed:.1f}s (budget 30s)",
    )


def test_04_spectrum_flattens_at_high_noise(capsys):
    # far above the data scale the posterior covariance approaches
    # sigma^2 I; for a unit Gaussian the deviation is exactly 1/(1+sigma^2)
    iso = GaussianMixture.single(np.zeros(3), np.eye(3))
    worst_iso = 0.0
    sigmas = (10.0, 30.0, 100.0)
    for si, sigma in enumerate(sigmas):
        dev = spectrum_deviation(iso, sigma, 5, RngStream(0, (LANE_DATA, 6, si)))
        worst_iso = max(worst_iso, abs(dev - 1.0 / (1.0 + sigma * sigma)))
    two = GaussianMixture([0.5, 0.5], [[-2.0, 0.0], [2.0, 0.0]], [np.eye(2), np.eye(2)])
    devs = [
        spectrum_deviation(two, sigma, 40, RngStream(0, (LANE_DATA, 7, si)))
        for si, sigma in enumerate(sigmas)
    ]
    mono = all(devs[i + 1] <= devs[i] + 1e-12 for i in range(len(devs) - 1))
    ok = worst_iso <= 1e-9 and mono and devs[-1] <= 0.05
    report(
        capsys, ok,
        "04 high-noise spectrum flattening",
        f"unit-Gaussian closed-form gap={worst_iso:.1e} (tol 1e-9), deviations "
        f"{devs[0]:.3f}/{devs[1]:.4f}/{devs[2]:.5f} monotone={mono}, "
        f"final <= 0.05",
    )


def test_05_top_k_trace_bound(capsys):
    # summed top-k eigenvalues dominate the trace of any k-dimensional
    # projection of the posterior covariance, with equality on eigenvectors
    gen = RngStream(0, (LANE_DATA, 8)).generator()
    worst_excess = -np.inf
    worst_attain = 0.0
    trials = 0
    for mi in range(10):
        d = int(gen.integers(3, 7))
        model = random_mixture(gen, d, 2)
        sigma = float(gen.choice([0.5, 1.0, 2.0]))
        x_t = model.sample(RngStream(0, (LANE_DATA, 9, mi)), 1)[0] + sigma * gen.standard_normal(d)
        cov = model.posterior_cov(x_t, sigma).cov
        vals, vecs = sym_eig(cov)
        for _ in range(50):
            k = int(gen.integers(1, min(d, 3) + 1))
            v, _ = qr_orthonormalize(gen.standard_normal((d, k)))
            excess = float(np.trace(v.T @ cov @ v) - np.sum(vals[:k]))
            worst_excess = max(worst_excess, excess)
            trials += 1
        for k in range(1, min(d, 3) + 1):
            attained = float(np.trace(vecs[:, :k].T @ cov @ vecs[:, :k]))
            worst_attain = max(worst_attain, abs(attained - float(np.sum(vals[:k]))))
    ok = worst_excess <= 1e-8 and worst_attain <= 1e-10
    report(
        capsys, ok,
        "05 top-k trace bound",
        f"{trials} projections, worst excess={worst_excess:.2e} (tol 1e-8), "
        f"eigenbasis attainment gap={worst_attain:.2e} (tol 1e-10)",
    )


def test_06_posterior_identities(capsys):
    # the posterior mean is exactly x_t + sigma^2 * score, and the posterior
    # covariance matches sigma^2 times the denoiser Jacobian (equivalently
    # sigma^2 (I + sigma^2 H) for the score derivative H)
    gen = RngStream(0, (LANE_DATA, 2)).generator()
    worst_mean = 0.0
    worst_hess = 0.0
    worst_jac = 0.0
    for case in range(12):
        d = int(gen.integers(1, 4))
        m = int(gen.integers(1, 4))
        model = random_mixture(gen, d, m)
        sigma = float(gen.choice([0.3, 1.0, 3.0]))
        x = model.sample(RngStream(0, (LANE_DATA, 3, case)), 1)[0]
        x_t = x + sigma * gen.standard_normal(d)
        s2 = sigma * sigma
        worst_mean = max(
            worst_mean,
            float(np.max(np.abs(model.denoise(x_t, sigma) - (x_t + s2 * model.score(x_t, sigma))))),
        )
        cov = model.posterior_cov(x_t, sigma).cov
        h = 1e-4 * max(1.0, float(np.max(np.abs(x_t))))
        hess = np.empty((d, d))
        jac = np.empty((d, d))
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            hess[:, j] = (model.score(x_t + e, sigma) - model.score(x_t - e, sigma)) / (2 * h)
            jac[:, j] = (model.denoise(x_t + e, sigma) - model.denoise(x_t - e, sigma)) / (2 * h)
        hess = 0.5 * (hess + hess.T)
        worst_hess = max(worst_hess, float(np.max(np.abs(s2 * (np.eye(d) + s2 * hess) - cov))))
        worst_jac = max(worst_jac, float(np.max(np.abs(s2 * 0.5 * (jac + jac.T) - cov))))
    ok = worst_mean == 0.0 and worst_hess <= 1e-4 and worst_jac <= 1e-4
    report(
        capsys, ok,
        "06 posterior mean and covariance identities",
        f"12 cases, mean identity gap={worst_mean:.1e} (exact), cov vs score "
        f"Hessian={worst_hess:.2e}, cov vs denoiser Jacobian={worst_jac:.2e} (tol 1e-4)",
    )


def test_07_squared_error_matches_trace(capsys):
    # E ||x - D(x_t)||^2 equals E tr Cov[x | x_t]; paired Monte Carlo
    gen = RngStream(0, (LANE_DATA, 4)).generator()
    model = random_mixture(gen, 2, 2)
    sigma = 1.0
    n = 100000
    x = model.sample(RngStream(0, (LANE_DATA, 5)), n)
    x_t = x + sigma * gen.standard_normal(x.shape)
    err = x - model.denoise(x_t, sigma)
    sq = np.sum(err * err, axis=1)
    traces = np.array([np.trace(model.posterior_cov(pt, sigma).cov) for pt in x_t])
    diff = sq - traces
    se = float(np.std(diff)) / np.sqrt(n)
    pull = abs(float(np.mean(diff))) / se
    ok = pull <= 3.0
    report(
        capsys, ok,
        "07 expected squared error equals covariance trace",
        f"n={n}, |mean diff| = {pull:.2f} standard errors (tol 3)",
    )


def test_08_trained_denoiser_matches_analytic(capsys):
    # a small trained network reproduces the closed-form posterior mean of
    # a unit Gaussian, and its estimated top eigenvalue lands near
    # sigma^2/(1+sigma^2) = 1/2 at sigma = 1
    t0 = time.perf_counter()
    data = RngStream(11, (0,)).generator().standard_normal((4096, 1))
    sched = build_schedule("geometric", 0.1, 3.0, 24)
    net = MlpDenoiser(1, seed=4)
    net.train(data, sched, TrainConfig(steps=40000))
    grid = np.linspace(-2.5, 2.5, 21)[:, None]
    errs = []
    for sigma in (0.25, 0.5, 1.0, 1.5, 2.0):
        target = grid / (1.0 + sigma * sigma)
        errs.append(np.mean((net.denoise(grid, sigma) - target) ** 2))
    mse = float(np.mean(errs))
    res = subspace_iteration(
        net, np.zeros(1), 1.0, SpectralConfig(top_k=1), rng=RngStream(11, (1,))
    )
    lam = float(res.eigenvalues[0])
    elapsed = time.perf_counter() - t0
    ok = mse <= 0.01 and abs(lam - 0.5) <= 0.1 and elapsed < 120.0
    report(
        capsys, ok,
        "08 trained denoiser vs closed form",
        f"grid MSE={mse:.5f} (tol 0.01), top eigenvalue at sigma=1: {lam:.4f} "
        f"(target 0.5 +- 0.1), {elapsed:.0f}s (budget 120s)",
    )


def test_09_end_to_end_detection(capsys):
    # full pipeline on a concentric scale mixture: scores must separate a
    # mean-shifted copy (AUROC >= 0.90) while an independent in-distribution
    # batch stays at chance
    t0 = time.perf_counter()
    seed = 0
    weights = [0.6, 0.37, 0.03]
    covs = [0.09 * np.eye(2), 1.0 * np.eye(2), 16.0 * np.eye(2)]
    ind_model = GaussianMixture(weights, np.zeros((3, 2)), covs)
    shift = 3.0 * float(np.sqrt(np.trace(ind_model.covariance()) / 2.0))
    ood_model = GaussianMixture(weights, np.full((3, 2), [shift, 0.0]), covs)
    sched = build_schedule("geometric", 0.02, 10.0, 1000)
    fcfg = FeatureConfig(
        timesteps=default_timesteps(sched), top_k=3, n_reps=20, aggregation="mean"
    )

    def features(source, stream, base_id):
        xs = source.sample(RngStream(seed, (LANE_DATA, stream)), 500)
        return extract_features(
            ind_model, xs, sched, fcfg, seed,
            sample_ids=range(base_id, base_id + 500),
        )

    train = features(ind_model, 0, 0)
    ind = features(ind_model, 1, 1000)
    ood = features(ood_model, 2, 2000)
    null = features(ind_model, 3, 3000)
    calib = fit_calibration(train, "mean")

    def scores(feats):
        return [eigen_score(f, calib).score for f in feats]

    detect = auroc(scores(ind), scores(ood)).auroc
    chance = auroc(scores(ind), scores(null)).auroc
    elapsed = time.perf_counter() - t0
    ok = detect >= 0.90 and 0.45 <= chance <= 0.55 and elapsed < 300.0
    report(
        capsys, ok,
        "09 end-to-end detection",
        f"500+500 samples, AUROC={detect:.4f} (need >= 0.90), null "
        f"AUROC={chance:.4f} (need 0.45..0.55), {elapsed:.0f}s (budget 300s)",
    )


def test_10_auroc_reference_values(capsys):
    a = auroc([1.0, 3.0], [2.0, 4.0]).auroc
    b = auroc([2.0, 2.0], [2.0, 2.0]).auroc
    c = auroc([0.0, 1.0], [2.0, 3.0]).auroc
    d = auroc([0.0, 1.0], [1.0, 2.0]).auroc
    gen = np.random.default_rng(5)
    ind = np.round(gen.normal(size=40), 1)
    ood = np.round(gen.normal(0.7, 1.0, size=30), 1)
    base = auroc(ind, ood).auroc
    affine = auroc(2.0 * ind + 1.0, 2.0 * ood + 1.0).auroc
    cubic = auroc(ind**3, ood**3).auroc
    inv = max(abs(affine - base), abs(cubic - base))
    ok = a == 0.75 and b == 0.5 and c == 1.0 and d == 0.875 and inv <= 1e-12
    report(
        capsys, ok,
        "10 AUROC reference values",
        f"interleaved={a} ties={b} separated={c} half-credit={d}, monotone "
        f"invariance gap={inv:.1e} (tol 1e-12)",
    )


def test_11_cli_thread_count_invariance(capsys, tmp_path):
    # identical score files for any worker count
    cfg = {
        "seed": 0,
        "model": {
            "kind": "gmm",
            "weights": [0.5, 0.5],
            "means": [[-1.0, 0.0], [1.0, 0.0]],
            "covariances": [[[0.6, 0.0], [0.0, 0.6]], [[0.9, 0.0], [0.0, 0.9]]],
        },
        "schedule": {"kind": "geometric", "sigma_min": 0.1, "sigma_max": 3.0, "t_max": 12},
        "feature": {"timesteps": [3, 7], "top_k": 2, "n_reps": 3},
        "data": {"n": 8},
    }
    cfg_path = str(tmp_path / "config.json")
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    data = str(tmp_path / "data.bin")
    calib = str(tmp_path / "calib.json")
    out1 = str(tmp_path / "scores1.csv")
    out8 = str(tmp_path / "scores8.csv")
    assert cli_main(["gen-data", "--config", cfg_path, "--out", data]) == 0
    assert cli_main(["fit", "--config", cfg_path, "--data", data, "--out", calib]) == 0
    code1 = cli_main(
        ["score", "--config", cfg_path, "--calibration", calib, "--data", data,
         "--out", out1, "--threads", "1"]
    )
    code8 = cli_main(
        ["score", "--config", cfg_path, "--calibration", calib, "--data", data,
         "--out", out8, "--threads", "8"]
    )
    same = (tmp_path / "scores1.csv").read_bytes() == (tmp_path / "scores8.csv").read_bytes()
    ok = code1 == 0 and code8 == 0 and same
    report(
        capsys, ok,
        "11 CLI thread-count invariance",
        f"score CSVs byte-identical across --threads 1 vs 8: {same}",
    )
