import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenscore.errors import (
    BadRangeError,
    DimMismatchError,
    NonFiniteError,
    NotPSDError,
    NotSingleGaussianError,
    SingularCovarianceError,
)
from eigenscore.gmm import (
    SIGMA_CACHE_MAX,
    GaussianMixture,
    block_rows,
    kl_gaussians,
    logsumexp,
)
from eigenscore.rng import RngStream


def unit_1d():
    return GaussianMixture.single([0.0], [[1.0]])


# log density of x_t = x + sigma z for N(0,1) at sigma=1 is N(0, 2);
# at x_t=0 that is -log(4 pi)/2 and each unit of x_t^2 adds x_t^2/4
def test_noisy_logpdf_oracles():
    g = unit_1d()
    assert g.noisy_logpdf(np.array([0.0]), 1.0) == pytest.approx(
        -1.2655121234846454, abs=1e-15
    )
    assert g.noisy_logpdf(np.array([1.0]), 1.0) == pytest.approx(
        -1.5155121234846454, abs=1e-15
    )


def test_noisy_logpdf_batched_matches_single():
    g = GaussianMixture(
        [0.5, 0.5], [[-1.0, 0.0], [1.0, 0.0]], [np.eye(2) * 0.5, np.eye(2) * 2.0]
    )
    pts = np.array([[0.0, 0.0], [1.0, -1.0], [3.0, 2.0]])
    batch = g.noisy_logpdf(pts, 0.7)
    singles = [g.noisy_logpdf(p, 0.7) for p in pts]
    assert np.allclose(batch, singles, atol=0.0)


@settings(max_examples=25, deadline=None)
@given(st.floats(-5.0, 5.0), st.floats(-3.0, 3.0))
def test_noisy_logpdf_translation_invariance(shift, x):
    base = GaussianMixture(
        [0.3, 0.7], [[-1.0], [0.5]], [[[0.4]], [[1.2]]]
    )
    moved = GaussianMixture(
        [0.3, 0.7], [[-1.0 + shift], [0.5 + shift]], [[[0.4]], [[1.2]]]
    )
    a = base.noisy_logpdf(np.array([x]), 1.3)
    b = moved.noisy_logpdf(np.array([x + shift]), 1.3)
    assert a == pytest.approx(b, abs=1e-10)


def test_score_single_gaussian_closed_form():
    g = unit_1d()
    # score of N(0, 1 + sigma^2) is -x / (1 + sigma^2)
    for sigma in (0.5, 1.0, 2.0):
        for x in (-2.0, 0.3, 5.0):
            want = -x / (1.0 + sigma * sigma)
            assert g.score(np.array([x]), sigma)[0] == pytest.approx(want, rel=1e-12)


def test_denoise_is_posterior_mean_shrinkage():
    g = unit_1d()
    # E[x | x_t] = x_t / (1 + sigma^2) for a unit Gaussian
    x = np.array([1.7])
    for sigma in (0.3, 1.0, 3.0):
        want = 1.7 / (1.0 + sigma * sigma)
        assert g.denoise(x, sigma)[0] == pytest.approx(want, rel=1e-12)


def test_denoise_equals_tweedie_update_bitwise():
    g = GaussianMixture(
        [0.4, 0.6], [[0.0, 0.0], [2.0, 1.0]], [np.eye(2), 0.5 * np.eye(2)]
    )
    pts = g.sample(RngStream(0, (1,)), 5)
    s = 0.8
    assert np.array_equal(g.denoise(pts, s), pts + s * s * g.score(pts, s))


def random_mixture(d, m, seed):
    gen = np.random.default_rng(seed)
    covs = []
    for _ in range(m):
        a = gen.standard_normal((d, d)) / np.sqrt(d)
        covs.append(a @ a.T + 0.05 * np.eye(d))
    weights = gen.random(m) + 0.2
    return GaussianMixture(weights / weights.sum(), 2.0 * gen.standard_normal((m, d)), covs)


def einsum_denoise(g, x, sigma):
    """The per-component einsums the stacked GEMM replaced, as a reference."""
    s2 = sigma * sigma
    lifted = g._evals + s2
    inv = np.einsum("mij,mj,mkj->mik", g._evecs, 1.0 / lifted, g._evecs)
    lognorm = (
        np.log(g.weights) - 0.5 * g.dim * np.log(2.0 * np.pi) - 0.5 * np.sum(np.log(lifted), axis=1)
    )
    dx = x[None, :, :] - g.means[:, None, :]
    logc = lognorm[:, None] - 0.5 * np.einsum("mbi,mij,mbj->mb", dx, inv, dx)
    r = np.exp(logc - logsumexp(logc, axis=0, keepdims=True))
    pull = np.einsum("mij,mbj->mbi", inv, g.means[:, None, :] - x[None, :, :])
    return x + s2 * np.einsum("mb,mbi->bi", r, pull)


@pytest.mark.parametrize("d", [2, 8, 24, 64])
@pytest.mark.parametrize("m", [1, 3, 8])
def test_denoise_matches_einsum_reference(d, m):
    # the GEMM sums in another order, so agreement is to rounding only
    g = random_mixture(d, m, seed=10 * d + m)
    x = 2.0 * np.random.default_rng(d).standard_normal((40, d))
    for sigma in (0.05, 0.8, 5.0):
        want = einsum_denoise(g, x, sigma)
        got = g.denoise(x, sigma)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("d", [2, 24, 33, 65])
def test_denoise_rows_do_not_depend_on_row_count(d):
    # the spectral engine's batch contract rests on this: a row's bits are
    # the same in a call of any B >= 2 rows, whatever the input's layout and
    # wherever the call's row blocks begin and end
    g = random_mixture(d, 3, seed=d)
    block = block_rows(g.n_components, d)
    x = 2.0 * np.random.default_rng(d).standard_normal((max(320, 2 * block + 2), d))
    for xs in (x, np.asfortranarray(x)):
        full = [op(xs, 0.8) for op in (g.denoise, g.noisy_logpdf, g.responsibilities)]
        # callers' later reductions round by layout, so it must not follow x's
        assert full[0].flags.c_contiguous and full[2].flags.f_contiguous
        for b in (2, 3, 17, 320, block - 1, block, block + 1, 2 * block + 1):
            for part in (xs[:b], np.ascontiguousarray(xs[:b])):
                assert np.array_equal(g.denoise(part, 0.8), full[0][:b])
                assert np.array_equal(g.noisy_logpdf(part, 0.8), full[1][:b])
                assert np.array_equal(g.responsibilities(part, 0.8), full[2][:b])


def test_threads_sharing_a_model_match_a_fresh_one():
    # each thread runs its blocks in its own workspace: threads with
    # different row counts through one model get a fresh model's bits
    g = random_mixture(64, 8, seed=7)
    block = block_rows(8, 64)
    gen = np.random.default_rng(7)
    xs = [gen.standard_normal((b, 64)) for b in (2, block + 1, 2 * block + 1, 320)] * 3
    sigmas = [0.3, 1.1] * 6
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(lambda x, s: (g.denoise(x, s), g.noisy_logpdf(x, s)), x, s)
                for x, s in zip(xs, sigmas)
            ]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(old)
    for x, s, (den, logp) in zip(xs, sigmas, got):
        fresh = random_mixture(64, 8, seed=7)
        assert np.array_equal(den, fresh.denoise(x, s))
        assert np.array_equal(logp, fresh.noisy_logpdf(x, s))


def test_sigma_cache_is_bounded():
    # more distinct sigmas than the cache holds: it never grows past its
    # bound, and every output equals a fresh model's
    g = random_mixture(8, 3, seed=5)
    x = np.random.default_rng(5).standard_normal((6, 8))
    sigmas = np.geomspace(0.05, 5.0, 2 * SIGMA_CACHE_MAX + 7)
    first = [g.denoise(x, s) for s in sigmas]
    assert 0 < len(g._sigma_cache) <= SIGMA_CACHE_MAX
    again = [g.denoise(x, s) for s in sigmas[::-1]]
    assert len(g._sigma_cache) <= SIGMA_CACHE_MAX
    for s, a, b in zip(sigmas, first, again[::-1]):
        assert np.array_equal(a, b)
        assert np.array_equal(a, random_mixture(8, 3, seed=5).denoise(x, s))


def test_sigma_cache_shared_by_threads():
    # threads sharing one model fill and empty its cache concurrently; every
    # output must still equal a lone fresh model's
    g = random_mixture(4, 2, seed=6)
    x = np.random.default_rng(6).standard_normal((5, 4))
    sigmas = np.tile(np.geomspace(0.1, 3.0, 3 * SIGMA_CACHE_MAX), 3)
    want = {s: random_mixture(4, 2, seed=6).denoise(x, s) for s in sigmas[: 3 * SIGMA_CACHE_MAX]}
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(g.denoise, x, s) for s in sigmas]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(old)
    assert all(np.array_equal(out, want[s]) for s, out in zip(sigmas, got))
    # a thread switch between the size check and the insert lets each of the
    # other threads add one entry past the bound
    assert len(g._sigma_cache) <= SIGMA_CACHE_MAX + 3


def test_responsibilities_sum_to_one_and_symmetric_point():
    g = GaussianMixture(
        [0.5, 0.5], [[-1.0], [1.0]], [[[1.0]], [[1.0]]]
    )
    r = g.responsibilities(np.array([0.0]), 1.0)
    assert r == pytest.approx([0.5, 0.5], abs=1e-14)
    batch = g.responsibilities(np.array([[0.3], [-2.0]]), 1.0)
    assert np.allclose(batch.sum(axis=1), 1.0, atol=1e-14)


def test_posterior_cov_single_gaussian_closed_form():
    cov = np.array([[2.0, 0.5], [0.5, 1.0]])
    g = GaussianMixture.single([0.5, -1.0], cov)
    sigma = 0.9
    s2 = sigma * sigma
    stats = g.posterior_cov(np.array([1.0, 2.0]), sigma)
    want = s2 * cov @ np.linalg.inv(cov + s2 * np.eye(2))
    assert np.allclose(stats.cov, want, atol=1e-12)
    want_mean = np.array([0.5, -1.0]) + cov @ np.linalg.inv(cov + s2 * np.eye(2)) @ (
        np.array([1.0, 2.0]) - np.array([0.5, -1.0])
    )
    assert np.allclose(stats.mean, want_mean, atol=1e-12)


def test_posterior_cov_two_component_hand_formula():
    # 1-d, two unit-variance components: cov = within + r(1-r) gap^2
    g = GaussianMixture([0.5, 0.5], [[-1.0], [1.0]], [[[1.0]], [[1.0]]])
    sigma = 1.0
    x_t = np.array([0.4])
    r = g.responsibilities(x_t, sigma)
    within = sigma**2 * 1.0 / (1.0 + sigma**2)
    gain = 1.0 / (1.0 + sigma**2)
    post_means = np.array([-1.0 + gain * (0.4 + 1.0), 1.0 + gain * (0.4 - 1.0)])
    gap = post_means[0] - post_means[1]
    want = within + r[0] * r[1] * gap * gap
    assert g.posterior_cov(x_t, sigma).cov[0, 0] == pytest.approx(want, rel=1e-12)


def test_posterior_cov_symmetric_psd():
    g = GaussianMixture(
        [0.2, 0.8], [[0.0, 0.0], [3.0, -1.0]], [np.eye(2), np.diag([0.5, 2.0])]
    )
    stats = g.posterior_cov(np.array([1.5, -0.5]), 0.7)
    assert np.array_equal(stats.cov, stats.cov.T)
    assert np.min(np.linalg.eigvalsh(stats.cov)) >= -1e-12


def test_mixture_mean_and_covariance():
    g = GaussianMixture([0.25, 0.75], [[0.0], [2.0]], [[[1.0]], [[1.0]]])
    assert g.mean()[0] == pytest.approx(1.5)
    # law of total variance: 1 + 0.25*0.75*4
    assert g.covariance()[0, 0] == pytest.approx(1.0 + 0.25 * 0.75 * 4.0)


def test_sample_deterministic_and_moments():
    g = GaussianMixture(
        [0.3, 0.7], [[-2.0, 0.0], [1.0, 1.0]], [np.eye(2) * 0.5, np.eye(2) * 1.5]
    )
    a = g.sample(RngStream(42, (0,)), 4000)
    b = g.sample(RngStream(42, (0,)), 4000)
    assert np.array_equal(a, b)
    assert np.allclose(a.mean(axis=0), g.mean(), atol=0.1)
    assert np.allclose(np.cov(a.T, bias=True), g.covariance(), atol=0.2)


def test_sample_rejects_bad_n():
    with pytest.raises(BadRangeError):
        unit_1d().sample(RngStream(0), 0)


def test_weights_validation():
    with pytest.raises(BadRangeError):
        GaussianMixture([0.5, -0.5], [[0.0], [1.0]], [[[1.0]], [[1.0]]])
    with pytest.raises(BadRangeError):
        GaussianMixture([0.5, 0.6], [[0.0], [1.0]], [[[1.0]], [[1.0]]])
    # a tiny imbalance is renormalized
    g = GaussianMixture([0.5 + 4e-7, 0.5], [[0.0], [1.0]], [[[1.0]], [[1.0]]])
    assert g.weights.sum() == pytest.approx(1.0, abs=1e-15)


def test_shape_validation():
    with pytest.raises(DimMismatchError):
        GaussianMixture([1.0], [[0.0, 0.0]], [[[1.0]]])
    with pytest.raises(DimMismatchError):
        GaussianMixture([0.5, 0.5], [[0.0]], [[[1.0]], [[1.0]]])
    with pytest.raises(NonFiniteError):
        GaussianMixture([1.0], [[np.nan]], [[[1.0]]])


def test_covariance_validation():
    with pytest.raises(NotPSDError):
        GaussianMixture.single([0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(NotPSDError):
        GaussianMixture.single([0.0], [[-1.0]])


def test_point_dim_checked():
    g = unit_1d()
    with pytest.raises(DimMismatchError):
        g.noisy_logpdf(np.array([0.0, 1.0]), 1.0)
    with pytest.raises(DimMismatchError):
        g.posterior_cov(np.array([[0.0], [1.0]]), 1.0)


def test_sigma_must_be_positive():
    with pytest.raises(BadRangeError):
        unit_1d().noisy_logpdf(np.array([0.0]), 0.0)


def test_kl_identical_is_zero():
    g = GaussianMixture.single([1.0, -2.0], [[2.0, 0.3], [0.3, 1.0]])
    h = GaussianMixture.single([1.0, -2.0], [[2.0, 0.3], [0.3, 1.0]])
    assert kl_gaussians(g, h) == pytest.approx(0.0, abs=1e-14)


def test_kl_unit_shift_oracle():
    p = GaussianMixture.single([0.0], [[1.0]])
    q = GaussianMixture.single([1.0], [[1.0]])
    assert kl_gaussians(p, q) == pytest.approx(0.5, abs=1e-15)


def test_kl_variance_oracle():
    # KL(N(0,1) || N(0,4)) = log 2 - 3/8
    p = GaussianMixture.single([0.0], [[1.0]])
    q = GaussianMixture.single([0.0], [[4.0]])
    assert kl_gaussians(p, q) == pytest.approx(0.3181471805599453, abs=1e-15)


def test_kl_requires_single_components():
    two = GaussianMixture([0.5, 0.5], [[0.0], [1.0]], [[[1.0]], [[1.0]]])
    with pytest.raises(NotSingleGaussianError):
        kl_gaussians(two, unit_1d())


def test_kl_rejects_singular():
    p = GaussianMixture.single([0.0], [[0.0]])
    with pytest.raises(SingularCovarianceError):
        kl_gaussians(p, unit_1d())


def test_logsumexp_bit_identical_to_scipy():
    gen = np.random.default_rng(0)
    base = gen.standard_normal((5, 9)) * 30.0
    cases = [
        base,
        np.round(base / 30.0),  # ties, several maxima per column
        np.full((3, 4), 2.5),  # every entry a maximum
        np.where(gen.random((5, 9)) < 0.4, -np.inf, base),  # -inf entries
        np.full((4, 3), -np.inf),  # all -inf: the sum is empty
        base * 1e306,  # large magnitudes: exp(a) alone would overflow
        np.asfortranarray(base),
        base.T,  # strided input
        np.array([[1e308, 1e308], [-1e308, 5.0]]),
    ]
    inf_col = base.copy()
    inf_col[2, 3] = np.inf
    cases.append(inf_col)
    for a in cases:
        for axis in (0, 1):
            for keepdims in (False, True):
                with np.errstate(over="ignore"):  # scipy's own a - max(a)
                    want = scipy.special.logsumexp(a, axis=axis, keepdims=keepdims)
                got = logsumexp(a, axis=axis, keepdims=keepdims)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
    assert logsumexp(np.array([1.0, 2.0]), axis=0) == scipy.special.logsumexp([1.0, 2.0])


def logsumexp_cases():
    """The cases of test_logsumexp_bit_identical_to_scipy, then NaN ones."""
    gen = np.random.default_rng(0)
    base = gen.standard_normal((5, 9)) * 30.0
    cases = [
        base,
        np.round(base / 30.0),
        np.full((3, 4), 2.5),
        np.where(gen.random((5, 9)) < 0.4, -np.inf, base),
        np.full((4, 3), -np.inf),
        base * 1e306,
        np.asfortranarray(base),
        base.T,
        np.array([[1e308, 1e308], [-1e308, 5.0]]),
    ]
    inf_col = base.copy()
    inf_col[2, 3] = np.inf
    nan_col = base.copy()
    nan_col[:, 4] = np.nan  # a column that is all NaN: no entry equals its max
    nan_inf = base.copy()
    nan_inf[0, 0], nan_inf[1, 0], nan_inf[3, 1] = np.nan, np.inf, -np.inf
    nan_entries = np.where(gen.random((5, 9)) < 0.3, np.nan, base)
    return cases + [inf_col, nan_col, nan_inf, nan_entries]


def test_logsumexp_warning_free_and_bit_identical_to_scipy():
    # every step runs under one errstate block; a restatement that lets an
    # overflow or invalid-value warning out may keep the bits but fails here
    for a in logsumexp_cases():
        for axis in (0, 1):
            for keepdims in (False, True):
                with np.errstate(all="ignore"):  # scipy's own a - max(a)
                    want = scipy.special.logsumexp(a, axis=axis, keepdims=keepdims)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = logsumexp(a, axis=axis, keepdims=keepdims)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [2, 24, 65])
@pytest.mark.parametrize("m", [1, 3])
def test_denoise_equals_tweedie_update_bitwise_broadly(d, m):
    # denoise subtracts sigma^2 times minus the score, which must round as
    # x + sigma^2 * score does for any row count, layout and noise level
    g = random_mixture(d, m, seed=100 + 10 * d + m)
    x = 2.0 * np.random.default_rng(d + m).standard_normal((block_rows(m, d) + 1, d))
    for b in (1, 2, x.shape[0]):
        for xs in (x[:b], np.asfortranarray(x[:b])):
            for s in (0.05, 0.8, 5.0):
                want = xs + s * s * g.score(xs, s)
                assert g.denoise(xs, s).tobytes() == want.tobytes()


@pytest.mark.parametrize("sigma", [np.nan, np.inf, 1e200])
@pytest.mark.parametrize(
    "op", ["noisy_logpdf", "responsibilities", "score", "denoise", "posterior_cov"]
)
def test_sigma_must_have_a_finite_square(op, sigma):
    # NaN, inf and a sigma whose square overflows used to give NaN or -inf
    # results, some with no warning at all
    g = GaussianMixture([0.4, 0.6], [[0.0, 0.0], [2.0, 1.0]], [np.eye(2), 0.5 * np.eye(2)])
    with pytest.raises(BadRangeError, match="finite square"):
        getattr(g, op)(np.array([0.5, -1.0]), sigma)
