import numpy as np
import pytest

from eigenscore.errors import NotSingleGaussianError
from eigenscore.gmm import GaussianMixture, kl_gaussians
from eigenscore.rng import RngStream
from eigenscore.verify import (
    VerifyCheck,
    VerifyReport,
    denoising_gap,
    kl_quadrature,
    mc_denoising_gap,
    random_benchmark_case,
    random_gaussian,
    random_mixture,
    random_spd,
    score_gap,
    spectrum_deviation,
    verify_error_trace,
    verify_kl,
    verify_posterior_identities,
    verify_spectral_accuracy,
    verify_spectrum_flattening,
    verify_trace_bound,
)


def test_report_formatting_and_all_pass():
    rep = VerifyReport()
    rep.extend(
        [
            VerifyCheck("alpha", True, 1.0, "<= 2"),
            VerifyCheck("beta", False, 3.0, "<= 2", detail="worst of 5"),
        ]
    )
    assert not rep.all_pass
    table = rep.format_table()
    assert "PASS  alpha" in table
    assert "FAIL  beta" in table
    assert "(worst of 5)" in table
    assert table.splitlines()[-1] == "2 checks, 1 failed"
    d = rep.to_dict()
    assert d["all_pass"] is False and len(d["checks"]) == 2
    ok = VerifyReport([VerifyCheck("alpha", True, 1.0, "<= 2")])
    assert ok.all_pass
    assert ok.format_table().splitlines()[-1] == "1 checks, all passed"


def test_random_spd_is_spd():
    gen = np.random.default_rng(0)
    for d in (2, 5, 9):
        a = random_spd(gen, d)
        assert np.array_equal(a, a.T)
        assert np.linalg.eigvalsh(a).min() > 0


def test_random_mixture_well_formed():
    gen = np.random.default_rng(1)
    g = random_mixture(gen, 3, 2)
    assert g.weights.sum() == pytest.approx(1.0)
    assert g.n_components == 2 and g.dim == 3
    assert np.linalg.eigvalsh(g.covariance()).min() > 0


def test_random_benchmark_case_shapes():
    gen = np.random.default_rng(2)
    model, x_t, sigma = random_benchmark_case(gen)
    assert 4 <= model.dim <= 16
    assert model.n_components in (2, 3)
    assert x_t.shape == (model.dim,)
    assert 1.0 <= sigma <= 2.0
    # shared covariance across components
    assert np.array_equal(model.covariances[0], model.covariances[-1])


def test_denoising_gap_zero_for_identical():
    g = random_gaussian(np.random.default_rng(3), 4)
    assert denoising_gap(g, g, 0.7) == 0.0


def test_gap_routes_agree_pointwise():
    # (I - A_q) = sigma^2 T_q^-1 makes the two quadratic forms equal up
    # to the sigma^4 factor
    gen = np.random.default_rng(4)
    p, q = random_gaussian(gen, 5), random_gaussian(gen, 5)
    for sigma in (0.3, 1.0, 4.0):
        assert denoising_gap(p, q, sigma) == pytest.approx(
            sigma**4 * score_gap(p, q, sigma), rel=1e-10
        )


def test_gaps_reject_mixtures():
    gen = np.random.default_rng(5)
    g2 = random_mixture(gen, 3, 2)
    g1 = random_gaussian(gen, 3)
    with pytest.raises(NotSingleGaussianError):
        denoising_gap(g2, g1, 1.0)
    with pytest.raises(NotSingleGaussianError):
        score_gap(g1, g2, 1.0)


def test_kl_quadrature_canonical_pair():
    p = GaussianMixture.single([0.0], [[1.0]])
    q = GaussianMixture.single([1.0], [[1.0]])
    res = kl_quadrature(p, q)
    assert res.value == pytest.approx(0.5, abs=2e-3)
    assert res.value == pytest.approx(
        float(np.trapezoid(res.integrand * res.sigmas, np.log(res.sigmas))) + res.tail + res.head,
        rel=1e-12,
    )
    assert res.sigmas.shape == (400,)
    assert np.all(np.isfinite(res.integrand))


def test_kl_quadrature_routes_and_exact():
    gen = np.random.default_rng(6)
    p, q = random_gaussian(gen, 4), random_gaussian(gen, 4)
    exact = kl_gaussians(p, q)
    den = kl_quadrature(p, q, route="denoising")
    sco = kl_quadrature(p, q, route="score")
    assert den.value == pytest.approx(exact, rel=2e-3, abs=2e-3)
    assert abs(den.value - sco.value) < 1e-6 * max(1.0, exact)
    with pytest.raises(ValueError):
        kl_quadrature(p, q, route="secant")


def test_mc_gap_agrees_with_closed_form():
    gen = np.random.default_rng(7)
    p, q = random_gaussian(gen, 3), random_gaussian(gen, 3)
    exact = denoising_gap(p, q, 1.3)
    est, se = mc_denoising_gap(p, q, 1.3, 20000, RngStream(7, (1,)))
    assert se > 0
    assert abs(est - exact) < 5 * se


def test_spectrum_deviation_single_gaussian_exact():
    g = GaussianMixture.single(np.zeros(3), np.eye(3))
    for sigma in (2.0, 10.0):
        dev = spectrum_deviation(g, sigma, 8, RngStream(1))
        assert dev == pytest.approx(1.0 / (1.0 + sigma * sigma), rel=1e-12)


def test_group_kl_passes():
    assert all(c.passed for c in verify_kl(seed=0))


@pytest.mark.parametrize("seed", range(1, 6))
def test_group_kl_passes_across_seeds(seed):
    # seed 0 is test_group_kl_passes; seed 5 draws a d=1 pair whose integrand is still large at the grid's
    # lowest sigma; without the head estimate its quadrature reads 2.25e-3 low
    failed = [(c.name, c.value) for c in verify_kl(seed=seed) if not c.passed]
    assert failed == []


def test_group_posterior_identities_passes():
    assert all(c.passed for c in verify_posterior_identities(seed=0))


def test_group_error_trace_passes():
    assert all(c.passed for c in verify_error_trace(seed=0))


def test_group_spectrum_flattening_passes():
    assert all(c.passed for c in verify_spectrum_flattening(seed=0))


def test_group_trace_bound_passes():
    assert all(c.passed for c in verify_trace_bound(seed=0))


def test_group_spectral_accuracy_passes():
    assert all(c.passed for c in verify_spectral_accuracy(seed=0, n_cases=4))
