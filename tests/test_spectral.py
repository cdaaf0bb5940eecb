import warnings

import numpy as np
import pytest

from eigenscore.errors import (
    BadRangeError,
    DimMismatchError,
    DimTooLargeError,
    NonFiniteDenoiserOutputError,
)
from eigenscore.gmm import GaussianMixture
from eigenscore.linalg import qr_orthonormalize, sym_eig
from eigenscore.mlp import MlpDenoiser
from eigenscore.rng import RngStream, gaussian_vec
from eigenscore.spectral import (
    SpectralConfig,
    _jvp_stack,
    analytic_spectrum,
    exact_spectrum,
    full_basis,
    jvp,
    subspace_iteration,
    subspace_iteration_batch,
)


class LinearDenoiser:
    """D(x) = A x + b; its Jacobian is exactly A."""

    def __init__(self, a, b=None):
        self.a = np.asarray(a, dtype=float)
        self.b = np.zeros(self.a.shape[0]) if b is None else np.asarray(b, dtype=float)
        self.calls = 0
        self.rows = 0

    def denoise(self, x, sigma):
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        self.calls += 1
        self.rows += pts.shape[0]
        out = pts @ self.a.T + self.b
        return out[0] if np.asarray(x).ndim == 1 else out


def test_jvp_exact_on_linear_model():
    a = np.array([[2.0, 1.0], [0.0, -1.0]])
    lin = LinearDenoiser(a, b=[0.3, -0.7])
    v = np.array([1.0, 2.0])
    out = jvp(lin, np.array([0.5, 0.5]), 1.0, v, c=1e-3)
    assert np.allclose(out, a @ v, atol=1e-9)
    assert lin.rows == 2  # exactly two evaluations


def test_jvp_validates_inputs():
    lin = LinearDenoiser(np.eye(2))
    x = np.zeros(2)
    with pytest.raises(BadRangeError):
        jvp(lin, x, 1.0, np.zeros(2), c=1e-3)
    with pytest.raises(BadRangeError):
        jvp(lin, x, 0.0, np.ones(2), c=1e-3)
    with pytest.raises(BadRangeError):
        jvp(lin, x, 1.0, np.ones(2), c=0.0)
    with pytest.raises(DimMismatchError):
        jvp(lin, x, 1.0, np.ones(3), c=1e-3)


def test_jvp_warns_on_large_step():
    lin = LinearDenoiser(np.eye(2))
    with pytest.warns(UserWarning, match="finite-difference step"):
        jvp(lin, np.zeros(2), 1.0, np.ones(2), c=0.5)


def test_subspace_matches_analytic_diagonal():
    # diagonal prior: posterior eigenvalues are sigma^2 c_i / (c_i + sigma^2)
    c = np.array([4.0, 1.0, 0.25, 0.04])
    g = GaussianMixture.single(np.zeros(4), np.diag(c))
    sigma = 1.0
    want = np.sort(sigma**2 * c / (c + sigma**2))[::-1]
    cfg = SpectralConfig(top_k=3, n_iters=40, early_stop_tol=0.0)
    res = subspace_iteration(g, np.array([0.3, -0.2, 0.1, 0.0]), sigma, cfg, rng=RngStream(5))
    assert np.allclose(res.eigenvalues, want[:3], rtol=1e-6)
    # eigenvectors align with coordinate axes for a diagonal model
    for j, axis in enumerate(np.eye(4)[:3]):
        assert abs(abs(res.eigenvectors[:, j] @ axis) - 1.0) < 1e-4


def test_subspace_eval_count_and_iterations():
    # d = 17 is past the budget 2 * (7 + 1) = 16, so the basis iterates
    g = GaussianMixture.single(np.zeros(17), np.eye(17))
    cfg = SpectralConfig(top_k=2, n_iters=7, early_stop_tol=0.0)
    res = subspace_iteration(g, np.zeros(17), 1.0, cfg, rng=RngStream(0))
    assert res.n_iters == 7
    assert res.n_evals == 2 * 2 * (7 + 1)


def test_subspace_early_stop_cuts_iterations():
    g = GaussianMixture.single(np.zeros(3), np.diag([4.0, 1.0, 0.1]))
    cfg = SpectralConfig(top_k=2, n_iters=50, early_stop_tol=1e-8)
    res = subspace_iteration(g, np.array([0.2, 0.1, 0.0]), 0.8, cfg, rng=RngStream(1))
    assert res.n_iters < 50
    ref = subspace_iteration(
        g,
        np.array([0.2, 0.1, 0.0]),
        0.8,
        SpectralConfig(top_k=2, n_iters=50, early_stop_tol=0.0),
        rng=RngStream(1),
    )
    assert np.allclose(res.eigenvalues, ref.eigenvalues, rtol=1e-6)


def test_subspace_top_k_clamped_to_dim():
    g = GaussianMixture.single(np.zeros(2), np.eye(2))
    cfg = SpectralConfig(top_k=5, n_iters=5)
    res = subspace_iteration(g, np.zeros(2), 1.0, cfg, rng=RngStream(2))
    assert res.eigenvalues.shape == (2,)
    assert np.allclose(res.eigenvalues, 0.5, rtol=1e-8)


def test_subspace_deterministic_given_stream():
    g = GaussianMixture(
        [0.5, 0.5], [[-1.0, 0.0], [1.0, 0.0]], [np.eye(2), np.eye(2)]
    )
    cfg = SpectralConfig(top_k=2, n_iters=10)
    a = subspace_iteration(g, np.array([0.3, 0.4]), 1.0, cfg, rng=RngStream(7, (1, 2)))
    b = subspace_iteration(g, np.array([0.3, 0.4]), 1.0, cfg, rng=RngStream(7, (1, 2)))
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_subspace_negative_direction_kept_in_raw():
    # a denoiser with a negative Jacobian eigenvalue: clamped in
    # eigenvalues, preserved in raw_eigenvalues
    lin = LinearDenoiser(np.diag([1.0, -0.5]))
    cfg = SpectralConfig(top_k=2, n_iters=20, early_stop_tol=0.0)
    res = subspace_iteration(lin, np.zeros(2), 1.0, cfg, rng=RngStream(3))
    assert res.raw_eigenvalues[-1] == pytest.approx(-0.5, rel=1e-6)
    assert res.eigenvalues[-1] == 0.0
    assert res.eigenvalues[0] == pytest.approx(1.0, rel=1e-6)


def test_subspace_accepts_plain_callable():
    res = subspace_iteration(
        lambda x, sigma: 0.5 * np.asarray(x),
        np.zeros(3),
        1.0,
        SpectralConfig(top_k=1, n_iters=5),
        rng=RngStream(0),
    )
    assert res.eigenvalues[0] == pytest.approx(0.5, rel=1e-8)


def test_subspace_rejects_bad_args():
    g = GaussianMixture.single(np.zeros(2), np.eye(2))
    with pytest.raises(BadRangeError):
        subspace_iteration(g, np.zeros(2), -1.0, SpectralConfig(), rng=RngStream(0))
    with pytest.raises(BadRangeError):
        subspace_iteration(g, np.zeros(2), 1.0, SpectralConfig(top_k=0), rng=RngStream(0))
    with pytest.raises(DimMismatchError):
        subspace_iteration(g, np.zeros((2, 2)), 1.0, SpectralConfig(), rng=RngStream(0))


def test_subspace_propagates_non_finite_denoiser():
    def broken(x, sigma):
        return np.full_like(np.atleast_2d(x), np.nan)

    with pytest.raises(NonFiniteDenoiserOutputError):
        subspace_iteration(
            broken, np.zeros(2), 1.0, SpectralConfig(top_k=1, n_iters=2), rng=RngStream(0)
        )


def test_wrong_output_shape_is_dim_mismatch():
    # a denoiser that returns one point's shape for a whole batch is an
    # error naming both shapes, not a cue to call it point by point
    lin = LinearDenoiser(np.diag([2.0, 1.0]))

    def single_point(x, sigma):
        return lin.denoise(np.asarray(x)[0], sigma)

    with pytest.raises(DimMismatchError, match=r"shape \(2,\) for points of shape \(4, 2\)"):
        subspace_iteration(
            single_point, np.zeros(2), 1.0, SpectralConfig(top_k=2, n_iters=2), rng=RngStream(0)
        )


def random_mixture(d, m, seed):
    gen = np.random.default_rng(seed)
    covs = []
    for _ in range(m):
        a = gen.standard_normal((d, d)) / np.sqrt(d)
        covs.append(a @ a.T + 0.05 * np.eye(d))
    return GaussianMixture(np.full(m, 1.0 / m), gen.standard_normal((m, d)), covs)


def assert_same_result(got, want):
    assert np.array_equal(got.eigenvalues, want.eigenvalues)
    assert np.array_equal(got.raw_eigenvalues, want.raw_eigenvalues)
    assert np.array_equal(got.eigenvectors, want.eigenvectors)
    assert got.residual == want.residual
    assert got.n_iters == want.n_iters
    assert got.n_evals == want.n_evals


def test_batch_matches_sequential_bitwise():
    # subspace_iteration is the one-row batch: each row of a batch must
    # equal the same row alone, with and without early stopping
    g = GaussianMixture(
        [0.4, 0.6], [[-1.0, 0.5], [1.0, -0.5]], [np.eye(2) * 0.7, np.eye(2) * 1.3]
    )
    for tol in (0.0, 1e-4):
        cfg = SpectralConfig(top_k=2, n_iters=12, early_stop_tol=tol)
        x_ts = np.array([[0.2, 0.1], [-0.5, 0.9], [1.5, -1.2]])
        rngs = [RngStream(11, (r,)) for r in range(3)]
        batch = subspace_iteration_batch(g, x_ts, 0.9, cfg, rngs)
        for r in range(3):
            assert_same_result(batch[r], subspace_iteration(g, x_ts[r], 0.9, cfg, rng=rngs[r]))


def iterated(d, top_k, cap=15):
    """The largest n_iters up to cap whose budget top_k(n_iters + 1) stays
    below d, so the probe iterates instead of taking the full basis."""
    return min(cap, (d - 1) // top_k - 1)


@pytest.mark.parametrize(
    "d, top_k, model",
    [
        (49, 4, "mixture"),
        (57, 5, "mixture"),
        (97, 8, "mixture"),
        (40, 1, "mixture"),
        (33, 4, "matmul"),
        (33, 4, "elementwise"),
    ],
)
def test_batch_matches_sequential_bitwise_high_dim(d, top_k, model):
    # a row in a 12-row batch equals the same row alone; at d >= 16 numpy
    # sums contiguous axes pairwise and strided ones in sequence, so this
    # only holds if a row's layouts do not change with the row count.  The
    # mixture and the matmul return C-ordered rows, the elementwise callable
    # keeps the Fortran order of the points it is given.  Each case iterates
    # (k(n_iters + 1) < d), where rows leave the stack at different sweeps
    if model == "mixture":
        g = random_mixture(d, 3, seed=d)
    elif model == "elementwise":
        def g(x, sigma):
            return x * (1.0 - 0.1 * x * x)
    else:
        a = np.random.default_rng(d).standard_normal((d, d))
        g = LinearDenoiser(0.5 * (a + a.T))
    gen = np.random.default_rng(d)
    x_ts = gen.standard_normal((12, d))
    rngs = [RngStream(5, (d, r)) for r in range(12)]
    cfg = SpectralConfig(top_k=top_k, n_iters=iterated(d, top_k), early_stop_tol=1e-2)
    batch = subspace_iteration_batch(g, x_ts, 0.8, cfg, rngs)
    for r in range(12):
        assert_same_result(batch[r], subspace_iteration(g, x_ts[r], 0.8, cfg, rng=rngs[r]))
    if model != "matmul" and top_k > 1:
        # rows leave the stack at different sweeps
        assert len({res.n_iters for res in batch}) > 1


def test_batch_row_independent_of_batch_mates():
    # a row in a 20-row batch equals it alone and in a reordered batch
    g = random_mixture(20, 4, seed=1)
    x_ts = np.random.default_rng(2).standard_normal((20, 20))
    rngs = [RngStream(9, (r,)) for r in range(20)]
    cfg = SpectralConfig(top_k=4, n_iters=15, early_stop_tol=1e-4)
    batch = subspace_iteration_batch(g, x_ts, 1.1, cfg, rngs)
    for r in (0, 9, 19):
        alone = subspace_iteration_batch(g, x_ts[r : r + 1], 1.1, cfg, [rngs[r]])
        assert_same_result(batch[r], alone[0])
    # and in a reordered, smaller batch
    pick = [19, 3, 9]
    mixed = subspace_iteration_batch(g, x_ts[pick], 1.1, cfg, [rngs[r] for r in pick])
    for res, r in zip(mixed, pick):
        assert_same_result(res, batch[r])


@pytest.mark.parametrize(
    "kind, d, top_k, n_iters",
    [
        ("mixture", 24, 3, 15),
        ("mixture", 24, 3, 6),
        ("mlp", 8, 3, 15),
        ("mlp", 32, 2, 14),
    ],
    ids=["mixture-full-basis", "mixture-iterated", "mlp-full-basis", "mlp-iterated"],
)
def test_vectors_mask_keeps_values_and_the_asked_rows(kind, d, top_k, n_iters):
    # three noise levels x four repetitions; the mask decides only which
    # rows report vectors and a residual, never a row's values.  The
    # iterated cases stop rows at different sweeps, so under the masks below
    # a stopping set holds rows that ask and rows that do not
    model = random_mixture(d, 3, seed=d) if kind == "mixture" else MlpDenoiser(d, (16, 16), seed=3)
    cfg = SpectralConfig(top_k=top_k, n_iters=n_iters, early_stop_tol=1e-2)
    x_ts = np.random.default_rng(d).standard_normal((12, d))
    sigmas = np.repeat([0.3, 0.9, 2.0], 4)
    rngs = [RngStream(4, (r,)) for r in range(12)]
    first = np.tile([True, False, False, False], 3)
    every = subspace_iteration_batch(model, x_ts, sigmas, cfg, rngs)
    assert full_basis(cfg, d) == (n_iters == 15)
    if not full_basis(cfg, d):
        assert len({res.n_iters for res in every}) > 1
    for mask in (np.ones(12, dtype=bool), np.zeros(12, dtype=bool), first, np.arange(12) % 2 == 0):
        got = subspace_iteration_batch(model, x_ts, sigmas, cfg, rngs, vectors=mask)
        for r in range(12):
            assert np.array_equal(got[r].raw_eigenvalues, every[r].raw_eigenvalues)
            assert np.array_equal(got[r].eigenvalues, every[r].eigenvalues)
            assert (got[r].n_iters, got[r].n_evals) == (every[r].n_iters, every[r].n_evals)
            if mask[r]:
                assert_same_result(got[r], every[r])
            else:
                assert got[r].eigenvectors is None and got[r].residual is None


@pytest.mark.parametrize(
    "vectors", [np.ones(3, dtype=bool), np.ones((2, 2), dtype=bool), np.array([1, 0]), [0, 1]]
)
def test_vectors_mask_must_be_a_boolean_row_mask(vectors):
    g = GaussianMixture.single(np.zeros(2), np.eye(2))
    with pytest.raises(DimMismatchError, match="boolean mask of 2 rows"):
        subspace_iteration_batch(g, np.zeros((2, 2)), 1.0, SpectralConfig(), None, vectors=vectors)


def test_streams_read_only_when_the_basis_iterates():
    # the engine alone applies `full_basis`: a full-basis call leaves a
    # generator of streams unconsumed, and an iterated one takes any
    # iterable but still needs exactly one stream per row
    g = GaussianMixture.single(np.zeros(6), np.eye(6))
    x_ts = np.random.default_rng(5).standard_normal((3, 6))
    for cfg in (SpectralConfig(top_k=6), SpectralConfig(top_k=2, n_iters=1)):
        assert full_basis(cfg, 6) == (cfg.top_k == 6)
        streams = (RngStream(1, (r,)) for r in range(3))
        got = subspace_iteration_batch(g, x_ts, 0.9, cfg, streams)
        if full_basis(cfg, 6):
            assert len(list(streams)) == 3
        else:
            assert next(streams, None) is None
            want = subspace_iteration_batch(g, x_ts, 0.9, cfg, [RngStream(1, (r,)) for r in range(3)])
            for a, b in zip(got, want):
                assert_same_result(a, b)
            for bad, message in ((None, "rngs is None"), ([RngStream(1)] * 2, "3 points but 2 streams")):
                with pytest.raises(DimMismatchError, match=message):
                    subspace_iteration_batch(g, x_ts, 0.9, cfg, bad)
            with pytest.raises(DimMismatchError, match="3 points but 4 streams"):
                subspace_iteration_batch(g, x_ts, 0.9, cfg, (RngStream(1, (r,)) for r in range(4)))


class MostlyFine:
    """A standard-normal prior whose denoiser collapses near (9, ..., 9)."""

    def __init__(self, d=2):
        self.inner = GaussianMixture.single(np.zeros(d), np.eye(d))

    def denoise(self, x, sigma):
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        out = self.inner.denoise(pts, sigma)
        # the Jacobian is rank zero around points near (9, ..., 9)
        bad = np.all(np.abs(pts - 9.0) < 1.0, axis=1)
        out[bad] = 0.0
        return out[0] if np.asarray(x).ndim == 1 else out


def assert_collapsed(res, k):
    """A row whose products vanish: finite zeros, orthonormal Ritz vectors."""
    assert np.array_equal(res.raw_eigenvalues, np.zeros(k))
    assert np.array_equal(res.eigenvalues, np.zeros(k))
    assert res.residual == 0.0
    vecs = res.eigenvectors
    assert np.all(np.isfinite(vecs))
    np.testing.assert_allclose(vecs.T @ vecs, np.eye(k), atol=1e-12)


def test_batch_reports_rank_deficiency_per_row():
    # the middle row's products vanish on its first sweep: QR still hands
    # it an orthonormal basis, and it reads finite zeros, bit for bit what
    # it reads alone.  The rows around it keep iterating to the end and
    # still match their one-row results (d = 28 is past the budget
    # 3 * (8 + 1) = 27, so the basis iterates)
    cfg = SpectralConfig(top_k=3, n_iters=8, early_stop_tol=0.0)
    x_ts = np.zeros((5, 28))
    x_ts[2] = 9.0
    x_ts[[0, 1, 3, 4]] += np.random.default_rng(4).standard_normal((4, 28))
    rngs = [RngStream(2, (r,)) for r in range(5)]
    out = subspace_iteration_batch(MostlyFine(28), x_ts, 0.5, cfg, rngs)
    assert_collapsed(out[2], 3)
    for r in range(5):
        assert out[r].n_iters == 8
        assert_same_result(out[r], subspace_iteration(MostlyFine(28), x_ts[r], 0.5, cfg, rng=rngs[r]))
    assert np.all(out[0].eigenvalues > 0.0)


def test_batch_all_rows_rank_deficient():
    # k(n_iters + 1) = 6 < d = 8, so the basis iterates; every row collapses
    # and reads zeros, as it does alone.  With an early stop the zeros stop
    # on the second sweep, since no Ritz value moved
    for tol, sweeps in ((0.0, 5), (1e-4, 1)):
        cfg = SpectralConfig(top_k=1, n_iters=5, early_stop_tol=tol)
        x_ts = np.full((3, 8), 9.0)
        x_ts[1] += 0.1
        rngs = [RngStream(1, (r,)) for r in range(3)]
        out = subspace_iteration_batch(MostlyFine(8), x_ts, 0.5, cfg, rngs)
        for r, res in enumerate(out):
            assert_collapsed(res, 1)
            assert res.n_iters == sweeps
            assert_same_result(res, subspace_iteration(MostlyFine(8), x_ts[r], 0.5, cfg, rng=rngs[r]))


def rank_two_mixture(d, m, seed):
    """m components, each with a rank-2 covariance: where one component
    dominates, the posterior covariance has rank 2."""
    gen = np.random.default_rng(seed)
    factors = gen.standard_normal((m, d, 2))
    covs = factors @ np.swapaxes(factors, 1, 2)
    return GaussianMixture(np.full(m, 1.0 / m), 2.0 * gen.standard_normal((m, d)), covs)


@pytest.mark.parametrize("sigma", [0.1, 1.0])
def test_rank_two_posterior_matches_analytic(sigma):
    # top_k 4 against a rank-2 posterior: the block products lose rank, so
    # the subspace is invariant and the last two eigenvalues are about 0.
    # Every row still matches the closed form (d = 100 iterates at 4 * 16)
    model = rank_two_mixture(100, 3, seed=0)
    gen = np.random.default_rng(3)
    x_ts = model.sample(RngStream(3, (0,)), 12) + sigma * gen.standard_normal((12, 100))
    rngs = [RngStream(3, (r,)) for r in range(12)]
    cfg = SpectralConfig(top_k=4, n_iters=15, early_stop_tol=0.0)
    out = subspace_iteration_batch(model, x_ts, sigma, cfg, rngs)
    for x_t, res in zip(x_ts, out):
        want = analytic_spectrum(model, x_t, sigma, top_k=4).eigenvalues
        assert want[2] < 1e-10 * want[0]
        np.testing.assert_allclose(res.eigenvalues, want, rtol=1e-6, atol=1e-6 * want[0])


def scaled_mixture(scale):
    """A full-rank d = 40 mixture with its means scaled by sqrt(scale) and
    its covariances by scale."""
    g = random_mixture(40, 3, seed=1)
    return GaussianMixture(g.weights, np.sqrt(scale) * g.means, scale * g.covariances)


def test_tiny_posterior_is_estimated_to_scale():
    # at covariance scale 1e-12, sigma^2 J is about 1e-11: far below any
    # absolute rank threshold, yet an answer as good as at scale 1 for the
    # same points scaled alike (d = 40 iterates at 2 * 16)
    cfg = SpectralConfig(top_k=2)
    unit = np.random.default_rng(5).standard_normal((12, 40))
    rngs = [RngStream(3, (r,)) for r in range(12)]
    worst = []
    for scale in (1.0, 1e-12):
        model, x_ts = scaled_mixture(scale), np.sqrt(scale) * unit
        out = subspace_iteration_batch(model, x_ts, 1.0, cfg, rngs)
        errs = []
        for x_t, res in zip(x_ts, out):
            want = analytic_spectrum(model, x_t, 1.0, top_k=2).eigenvalues
            errs.append(np.max(np.abs(res.eigenvalues - want) / want))
        worst.append(max(errs))
    assert worst[1] <= worst[0]


def test_step_below_float_resolution_is_bad_range():
    # at x_t = 1e12 and sigma 1e-3 the step fd_rel * sigma = 1e-6 is below
    # x_t's float spacing (1.2e-4): x_t +- c v round to x_t, and every
    # product would read exactly 0.  The full basis (d = 2) and the iterated
    # path (d = 17 past the budget 16) both refuse, naming the row
    for d, top_k in ((2, 3), (17, 1)):
        model = GaussianMixture.single(np.zeros(d), np.eye(d))
        x_ts = np.ones((3, d))
        x_ts[1] = 1e12
        rngs = [RngStream(0, (r,)) for r in range(3)]
        with pytest.raises(BadRangeError, match="row 1: finite-difference step"):
            subspace_iteration_batch(model, x_ts, 1e-3, SpectralConfig(top_k=top_k), rngs)
        with pytest.raises(BadRangeError, match="float resolution"):
            subspace_iteration(model, x_ts[1], 1e-3, SpectralConfig(top_k=top_k), rngs[1])
    # jvp refuses a step below 1e-10 max|x_t| and takes one at it
    lin = LinearDenoiser(np.eye(2))
    with pytest.raises(BadRangeError, match="float resolution"):
        jvp(lin, np.array([1e12, 1.0]), 1e-3, np.ones(2), c=1e-6)
    with pytest.raises(BadRangeError):
        jvp(lin, np.array([-1e6, 0.0]), 1.0, np.ones(2), c=0.99e-4)
    np.testing.assert_allclose(jvp(lin, np.array([-1e6, 0.0]), 1.0, np.ones(2), c=1e-4), 1.0, rtol=1e-5)


class Recording:
    """Wraps a denoiser and keeps (sigma, points) of every call it gets."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def denoise(self, x, sigma):
        self.calls.append((sigma, np.asarray(x).tobytes(), np.asarray(x).flags.f_contiguous))
        return self.inner.denoise(x, sigma)


def test_mixed_sigma_rows_match_single_sigma_calls():
    # rows at three noise levels, interleaved in runs of one to three rows,
    # two of them collapsed to zeros: every row equals its own one-row call,
    # and its own single-sigma batch (d = 34 is past the budget
    # 3 * (10 + 1) = 33, so the basis iterates)
    cfg = SpectralConfig(top_k=3, n_iters=10, early_stop_tol=1e-4)
    sig = np.array([0.5, 0.5, 1.3, 0.8, 0.8, 0.8, 0.5, 1.3, 1.3, 0.5])
    x_ts = np.random.default_rng(8).standard_normal((sig.size, 34))
    x_ts[[4, 7]] = 9.0
    rngs = [RngStream(4, (r,)) for r in range(sig.size)]
    model = MostlyFine(34)
    batch = subspace_iteration_batch(model, x_ts, sig, cfg, rngs)
    for r in (4, 7):
        assert_collapsed(batch[r], 3)
    for r in range(sig.size):
        assert batch[r].sigma == sig[r]
        assert_same_result(batch[r], subspace_iteration(model, x_ts[r], sig[r], cfg, rng=rngs[r]))
    for s in (0.5, 0.8, 1.3):
        rows = np.flatnonzero(sig == s)
        alone = subspace_iteration_batch(model, x_ts[rows], s, cfg, [rngs[r] for r in rows])
        for r, res in zip(rows, alone):
            assert_same_result(batch[r], res)
    # three runs of 0.5 means three calls per sweep at that level
    many = Recording(model)
    subspace_iteration_batch(many, x_ts, sig, SpectralConfig(top_k=3, n_iters=1), rngs)
    assert [c[0] for c in many.calls][:6] == [0.5, 1.3, 0.8, 0.5, 1.3, 0.5]


def test_fused_levels_give_each_call_the_points_it_had_alone():
    # a network need not round a row alike in calls of different sizes, so
    # a level's rows must reach the denoiser exactly as in their own batch:
    # the same calls, points, layout and results, whatever levels share it
    net = MlpDenoiser(6, hidden=(8, 8), seed=2)
    levels = (0.3, 0.9, 2.5)
    x_ts = np.random.default_rng(3).standard_normal((3 * 4, 6))
    rngs = [RngStream(6, (r,)) for r in range(12)]
    cfg = SpectralConfig(top_k=3, n_iters=8, early_stop_tol=1e-3)
    fused = Recording(net)
    batch = subspace_iteration_batch(fused, x_ts, np.repeat(levels, 4), cfg, rngs)
    alone = Recording(net)
    for i, s in enumerate(levels):
        rows = slice(4 * i, 4 * i + 4)
        for res, want in zip(batch[rows], subspace_iteration_batch(alone, x_ts[rows], s, cfg, rngs[rows])):
            assert_same_result(res, want)
    assert sorted(fused.calls) == sorted(alone.calls)
    assert all(type(c[0]) is float for c in fused.calls)
    # the first sweep: one call per level, on all 4 rows' 2 * k points
    assert [c[0] for c in fused.calls[:3]] == list(levels)
    assert all(len(c[1]) == 4 * 2 * 3 * 6 * 8 for c in fused.calls[:3])


def test_batch_sigma_checked_per_row():
    g = GaussianMixture.single(np.zeros(2), np.eye(2))
    x_ts = np.zeros((3, 2))
    rngs = [RngStream(0, (r,)) for r in range(3)]
    cfg = SpectralConfig(top_k=1, n_iters=2)
    for bad in ([1.0, 2.0], [[1.0, 2.0, 3.0]], np.ones((3, 1))):
        with pytest.raises(DimMismatchError, match="sigma of shape"):
            subspace_iteration_batch(g, x_ts, bad, cfg, rngs)
    for bad in ([1.0, 0.0, 2.0], [1.0, 2.0, -0.5], [np.nan, 1.0, 1.0]):
        with pytest.raises(BadRangeError, match="sigma must be positive"):
            subspace_iteration_batch(g, x_ts, bad, cfg, rngs)


def test_large_step_warns_once_per_sigma():
    g = GaussianMixture.single(np.zeros(2), np.eye(2))
    sig = [1.0, 1.0, 2.0, 2.0, 1.0]
    cfg = SpectralConfig(top_k=1, n_iters=2, fd_rel=0.5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        subspace_iteration_batch(g, np.zeros((5, 2)), sig, cfg, [RngStream(0, (r,)) for r in range(5)])
    msgs = [str(w.message) for w in caught]
    assert msgs == [
        "finite-difference step c=0.5 exceeds 0.1*sigma=0.1; the linearization may be poor",
        "finite-difference step c=1 exceeds 0.1*sigma=0.2; the linearization may be poor",
    ]
    assert all(w.filename == __file__ for w in caught)


def pinned_model(kind, d):
    if kind == "mixture":
        return random_mixture(d, 3, seed=d)
    if kind == "matmul":
        a = np.random.default_rng(d).standard_normal((d, d))
        return LinearDenoiser(0.5 * (a + a.T))
    return MlpDenoiser(d, seed=0)  # untrained


@pytest.mark.parametrize(
    "kind, d, top_k, n_iters, want",
    [
        ("mixture", 2, 1, 10, [0.5491699663065864]),
        ("mixture", 2, 2, 10, [0.5491699663065864, 0.20234801404291142]),
        ("mixture", 24, 1, 15, [2.489198513678925]),
        (
            "mixture", 24, 5, 15,
            [2.489199995859544, 0.4083901775387436, 0.39237655228449436,
             0.375717249025349, 0.371742171752593],
        ),
        (
            "matmul", 33, 4, 15,
            [3.613083972499901, 3.3161812632215795, 3.2688893421404335, 2.913742344908805],
        ),
        ("mlp", 32, 3, 8, [0.3034629792168697, 0.23923712918139756, -0.14956325929398642]),
        (
            "mixture", 24, 5, 3,
            [2.4891652226133782, 0.38339626157665996, 0.3611838275138709,
             0.33812100953998936, 0.3125658058456516],
        ),
        (
            "matmul", 33, 4, 7,
            [3.4531755450056507, 2.8497308981140526, 1.379272426396307, -3.300510457010195],
        ),
    ],
)
def test_subspace_pinned_values(kind, d, top_k, n_iters, want):
    # sigma^2 times the Ritz values, recorded on these fixed inputs; a change
    # to the sweep's arithmetic shows here.  Where `full_basis` holds
    # the basis is the identity and one block product is the whole run
    x_t = np.random.default_rng(100 + d).standard_normal(d)
    cfg = SpectralConfig(top_k=top_k, n_iters=n_iters, early_stop_tol=0.0)
    res = subspace_iteration(
        pinned_model(kind, d), x_t, 0.7, cfg, rng=RngStream(23, (d, top_k))
    )
    full = full_basis(cfg, d)
    iters = 0 if full else n_iters
    assert res.n_iters == iters
    assert res.n_evals == 2 * (d if full else top_k) * (iters + 1)
    np.testing.assert_allclose(res.raw_eigenvalues, want, rtol=1e-12)
    assert np.array_equal(res.eigenvalues, np.clip(res.raw_eigenvalues, 0.0, None))


def rotated(eigvals, seed):
    """A symmetric matrix with these eigenvalues and random eigenvectors."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(eigvals),) * 2))
    return q @ np.diag(eigvals) @ q.T


@pytest.mark.parametrize(
    "model, top_k",
    [
        (GaussianMixture([0.6, 0.37, 0.03], np.zeros((3, 2)), [0.09 * np.eye(2), np.eye(2), 16 * np.eye(2)]), 3),
        (random_mixture(3, 3, seed=3), 3),
        (random_mixture(3, 3, seed=3), 5),
        (GaussianMixture.single(np.zeros(2), rotated([1.0, 0.99], seed=4)), 2),
        (random_mixture(24, 3, seed=24), 3),
    ],
    ids=["paper2d", "mixture3-k3", "mixture3-k5", "gaussian-ratio-0.99", "mixture24-k3-covered"],
)
def test_full_basis_takes_one_block_product(model, top_k):
    # with k >= d, or where `full_basis` holds for k < d, the basis is the
    # identity, so the Ritz values of the first block product are exact
    # whatever the eigenvalue ratio, and every row stops there: no
    # re-orthonormalization, 2d evaluations
    d = model.dim
    sig = np.repeat([0.05, 0.4, 1.0, 3.0], 4)
    x_ts = np.random.default_rng(d).standard_normal((sig.size, d))
    rngs = [RngStream(13, (r,)) for r in range(sig.size)]
    cfg = SpectralConfig(top_k=top_k)
    for x_t, s, res in zip(x_ts, sig, subspace_iteration_batch(model, x_ts, sig, cfg, rngs)):
        assert (res.n_iters, res.n_evals) == (0, 2 * d)
        want = analytic_spectrum(model, x_t, s, top_k=top_k).eigenvalues.sum()
        assert res.eigenvalues.sum() == pytest.approx(want, rel=1e-6)


class Untouchable:
    """A stream whose draws must never be asked for."""

    def child(self, *lanes):
        raise AssertionError("a full-basis row drew from its stream")


def test_full_basis_draws_nothing_and_calls_once_per_run():
    # the basis is the identity: no stream is touched, and each run of equal
    # sigma gets one denoiser call on its rows' points x +- c e_j
    model = random_mixture(3, 3, seed=3)
    sig = np.array([0.5, 0.5, 1.3, 0.8, 0.8])
    x_ts = np.random.default_rng(6).standard_normal((sig.size, 3))
    cfg = SpectralConfig(top_k=3)
    rec = Recording(model)
    out = subspace_iteration_batch(rec, x_ts, sig, cfg, [Untouchable()] * sig.size)
    assert all(res.n_evals == 6 for res in out)
    assert [call[0] for call in rec.calls] == [0.5, 1.3, 0.8]
    step = cfg.fd_rel * sig[:, None, None] * np.eye(3)
    pts = np.concatenate([x_ts[:, None] + step, x_ts[:, None] - step], axis=1)
    starts = [0, 2, 3, 5]
    for (_, got, _), a, b in zip(rec.calls, starts, starts[1:]):
        assert got == np.asfortranarray(pts[a:b].reshape(-1, 3)).tobytes()


def test_full_basis_exactly_when_the_cap_budget_covers_d():
    # top_k 3 with 3 re-orthonormalizations has a budget of k(n_iters + 1) = 12
    # columns: at d = 13 the rows iterate on their drawn starting directions,
    # and streams are required; at d = 12 they take the identity, touch no
    # stream (None will do) and match the dense oracle
    cfg = SpectralConfig(top_k=3, n_iters=3, early_stop_tol=0.0)
    for d in (13, 12):
        model = random_mixture(d, 3, seed=d)
        x_ts = np.random.default_rng(d).standard_normal((4, d))
        assert full_basis(cfg, d) == (d == 12)
        if d == 13:
            out = subspace_iteration_batch(model, x_ts, 0.7, cfg, [RngStream(3, (r,)) for r in range(4)])
            assert all((res.n_iters, res.n_evals) == (3, 2 * 3 * 4) for res in out)
            with pytest.raises(DimMismatchError, match="rngs is None"):
                subspace_iteration_batch(model, x_ts, 0.7, cfg, None)
            continue
        out = subspace_iteration_batch(model, x_ts, 0.7, cfg, [Untouchable()] * 4)
        for x_t, res, bare in zip(x_ts, out, subspace_iteration_batch(model, x_ts, 0.7, cfg, None)):
            assert (res.n_iters, res.n_evals) == (0, 2 * d)
            want = exact_spectrum(model, x_t, 0.7, top_k=3).raw_eigenvalues
            np.testing.assert_allclose(res.raw_eigenvalues, want, rtol=1e-6)
            assert_same_result(bare, res)


def test_full_basis_margin_past_d_32_and_ceiling_at_d_64():
    # past d = 32 the budget must cover d^2 / 32, since the dense d x d Ritz
    # problem grows as d^3; past d = 64 only top_k >= d takes the full basis
    def covers(top_k, n_iters, d):
        return full_basis(SpectralConfig(top_k=top_k, n_iters=n_iters), d)

    assert covers(2, 15, 32) and not covers(2, 14, 32)
    assert covers(5, 15, 48) and not covers(4, 15, 48)
    assert covers(8, 15, 64) and not covers(7, 15, 64) and not covers(4, 15, 64)
    assert not covers(64, 15, 65) and covers(65, 1, 65) and covers(100, 1, 65)
    # at d = 64 a budget of 4 * 16 = d still iterates, to the cap
    cfg = SpectralConfig(top_k=4, n_iters=15, early_stop_tol=0.0)
    model = random_mixture(64, 3, seed=64)
    x_ts = np.random.default_rng(64).standard_normal((2, 64))
    out = subspace_iteration_batch(model, x_ts, 0.7, cfg, [RngStream(3, (r,)) for r in range(2)])
    assert all((res.n_iters, res.n_evals) == (15, 2 * 4 * 16) for res in out)


def test_full_basis_calls_take_k_columns_at_a_time():
    # a covered row (k < d, `full_basis`) runs the identity's d columns k
    # at a time, so no denoiser call gets more points than an iterated sweep,
    # its run's rows x 2k; every row still makes 2d evaluations
    d, k = 13, 3
    model = random_mixture(d, 3, seed=d)
    sig = np.array([0.5, 0.5, 1.3, 0.8, 0.8])
    x_ts = np.random.default_rng(6).standard_normal((sig.size, d))
    rec = Recording(model)
    out = subspace_iteration_batch(rec, x_ts, sig, SpectralConfig(top_k=k, n_iters=4), None)
    assert all((res.n_iters, res.n_evals) == (0, 2 * d) for res in out)
    run_rows = {0.5: 2, 1.3: 1, 0.8: 2}
    points = [len(pts) // (8 * d) for _, pts, _ in rec.calls]
    assert all(n <= run_rows[s] * 2 * k for (s, _, _), n in zip(rec.calls, points))
    assert sum(points) == sig.size * 2 * d


def test_covered_network_reports_its_largest_signed_eigenpairs():
    # the untrained d=32 network at top_k 3 and the default 15 sweeps covers
    # d (3 * 16 >= 32): its Ritz vectors are the dense oracle's three leading
    # eigenvectors of sym(J), all with positive values, where 8 capped sweeps
    # (3 * 9 < 32) give a negative direction of large magnitude a slot.  J is
    # far from symmetric here (max |J - J^T| = 0.51), and the values are the
    # oracle's eigenvalues of sigma^2 sym(J)
    model = pinned_model("mlp", 32)
    x_t = np.random.default_rng(132).standard_normal(32)
    oracle = exact_spectrum(model, x_t, 0.7, top_k=3)
    res = subspace_iteration(model, x_t, 0.7, SpectralConfig(top_k=3), rng=Untouchable())
    cos = np.abs(np.sum(res.eigenvectors * oracle.eigenvectors, axis=0))
    np.testing.assert_allclose(cos, 1.0, atol=1e-9)
    assert np.all(res.raw_eigenvalues > 0.0)
    np.testing.assert_allclose(res.raw_eigenvalues, oracle.raw_eigenvalues, rtol=1e-7)
    capped = subspace_iteration(model, x_t, 0.7, SpectralConfig(top_k=3, n_iters=8), rng=RngStream(23, (32, 3)))
    assert capped.raw_eigenvalues[-1] < 0.0


def test_full_basis_ignores_iteration_settings():
    # nothing is left to iterate once the first product is exact, so the
    # sweep cap and the early-stop tolerance cannot change a bit
    model = random_mixture(3, 3, seed=3)
    x_ts = np.random.default_rng(7).standard_normal((6, 3))
    rngs = [RngStream(1, (r,)) for r in range(6)]
    cfgs = [SpectralConfig(top_k=5, n_iters=n, early_stop_tol=tol) for n in (1, 15) for tol in (0.0, 1e-4)]
    runs = [subspace_iteration_batch(model, x_ts, 0.6, cfg, rngs) for cfg in cfgs]
    for other in runs[1:]:
        for got, want in zip(other, runs[0]):
            assert_same_result(got, want)


def test_full_basis_rank_one_map_is_not_rank_deficient():
    # only a QR of the products can collapse, and the full basis takes none:
    # a rank-1 Jacobian gives (lambda, 0)
    v = np.array([0.6, 0.8])
    sigma = 0.9
    lin = LinearDenoiser(2.0 * np.outer(v, v))
    res = subspace_iteration(lin, np.ones(2), sigma, SpectralConfig(top_k=2), rng=Untouchable())
    np.testing.assert_allclose(res.eigenvalues, [2.0 * sigma**2, 0.0], rtol=1e-9, atol=1e-9)
    assert abs(res.eigenvectors[:, 0] @ v) == pytest.approx(1.0)


def test_full_basis_row_independent_of_mixed_sigma_batch_mates():
    # a row at one noise level among rows at others equals the row alone
    model = random_mixture(2, 3, seed=2)
    sig = np.array([0.3, 1.7, 1.7, 0.3, 0.05, 1.7])
    x_ts = np.random.default_rng(9).standard_normal((sig.size, 2))
    cfg = SpectralConfig(top_k=2)
    rngs = [RngStream(5, (r,)) for r in range(sig.size)]
    batch = subspace_iteration_batch(model, x_ts, sig, cfg, rngs)
    for r in range(sig.size):
        assert_same_result(batch[r], subspace_iteration(model, x_ts[r], sig[r], cfg, rng=rngs[r]))


def test_indefinite_jacobian_sorted_by_signed_value():
    # a non-PSD denoiser: at k = d the Ritz values are its whole signed
    # spectrum, reported descending by signed value and clamped at zero
    a = rotated([1.0, -0.95, 0.3, -0.4], seed=9)
    sigma = 0.8
    cfg = SpectralConfig(top_k=4)
    res = subspace_iteration(lambda x, s: x @ a.T, np.ones(4), sigma, cfg, rng=RngStream(2))
    want, _ = sym_eig(sigma * sigma * a)
    assert np.all(np.diff(res.raw_eigenvalues) < 0.0)
    np.testing.assert_allclose(res.raw_eigenvalues, want, rtol=1e-6)
    assert np.array_equal(res.eigenvalues, np.clip(res.raw_eigenvalues, 0.0, None))


def skew_map(d, seed):
    """A = V (Lambda + N) V^T with N antisymmetric and block-diagonal over
    V's first two columns and the rest: sym(A) = V Lambda V^T, the span of
    those two columns is invariant under A, and its eigenvalues (3.6 in
    magnitude) dominate the rest's (at most 0.6)."""
    gen = np.random.default_rng(seed)
    v, _ = np.linalg.qr(gen.standard_normal((d, d)))
    n = np.zeros((d, d))
    n[0, 1], n[1, 0] = 0.8, -0.8
    g = 0.1 / np.sqrt(d) * gen.standard_normal((d - 2, d - 2))
    n[2:, 2:] = g - g.T
    lam = np.concatenate([[4.0, 3.0], np.linspace(0.5, 0.05, d - 2)])
    return v @ (np.diag(lam) + n) @ v.T


@pytest.mark.parametrize("d, n_iters", [(6, 15), (40, 15)], ids=["full-basis", "iterated"])
def test_non_symmetric_map_reports_the_symmetric_part(d, n_iters):
    # the posterior covariance is sigma^2 sym(J): for a Ritz vector y of the
    # top-k span, ||J y|| = sqrt(lambda^2 + ||N y||^2) reads high, and the
    # estimate must be sigma^2 y^T J y, the top k of sigma^2 sym(A)
    k, sigma = 2, 0.7
    a = skew_map(d, seed=d)
    cfg = SpectralConfig(top_k=k, n_iters=n_iters, early_stop_tol=0.0)
    assert full_basis(cfg, d) == (d == 6)
    x_ts = np.random.default_rng(d).standard_normal((3, d))
    out = subspace_iteration_batch(LinearDenoiser(a), x_ts, sigma, cfg, [RngStream(4, (r,)) for r in range(3)])
    want, _ = sym_eig(sigma * sigma * 0.5 * (a + a.T))
    for res in out:
        assert res.n_iters == (0 if d == 6 else n_iters)
        np.testing.assert_allclose(res.raw_eigenvalues, want[:k], rtol=1e-9)


def ritz_stop_sweep(fn, x_t, sigma, cfg, rng):
    """The sweep at which a row stops when eigvalsh runs on every sweep: the
    early-stop rule of `subspace_iteration_batch` restated for one row."""
    d, k = x_t.size, min(cfg.top_k, x_t.size)
    mat = np.ascontiguousarray(gaussian_vec([rng.child(j) for j in range(k)], d, 1.0).T)[None]
    prev = None
    for sweep in range(cfg.n_iters):
        q, _ = qr_orthonormalize(mat)
        mat = _jvp_stack(fn, x_t[None], q, np.array([cfg.fd_rel * sigma]), [(0, 1, sigma)])
        h = np.matmul(np.swapaxes(q, 1, 2), mat)
        est = sigma * sigma * np.linalg.eigvalsh(0.5 * (h + np.swapaxes(h, 1, 2)))[:, ::-1]
        if prev is not None:
            top = max(np.abs(est).max(), 1e-300)
            if np.all(np.abs(est - prev) <= cfg.early_stop_tol * np.maximum(np.abs(prev), 1e-12 * top)):
                return sweep
        prev = est
    return cfg.n_iters


@pytest.mark.parametrize("model, tol", [("mixture", 1e-2), ("mixture", 1e-3), ("mlp", 1e-2), ("mlp", 1e-4)])
def test_early_stop_matches_eigvalsh_on_every_sweep(model, tol):
    # the engine solves for all its active rows' Ritz values in one stacked
    # eigvalsh, whose row count shrinks as rows stop, and compares each row's
    # values with those of the sweep before; every row must stop exactly
    # where the rule restated for that row alone stops.
    # d = 32 is past the budget 3 * (9 + 1) = 30, so the basis iterates; at
    # sigma 2 the mixture, and the network through its 8-wide hidden layer,
    # have gaps that let some rows, not all, stop early at each tolerance
    net = random_mixture(32, 3, seed=5) if model == "mixture" else MlpDenoiser(32, hidden=(8,), seed=5)
    x_ts = np.random.default_rng(5).standard_normal((24, 32))
    rngs = [RngStream(8, (r,)) for r in range(24)]
    cfg = SpectralConfig(top_k=3, n_iters=9, early_stop_tol=tol)
    got = [res.n_iters for res in subspace_iteration_batch(net, x_ts, 2.0, cfg, rngs)]
    want = [ritz_stop_sweep(net.denoise, x, 2.0, cfg, rng) for x, rng in zip(x_ts, rngs)]
    assert got == want
    assert 0 < sum(n < cfg.n_iters for n in got) < len(got)


@pytest.mark.parametrize("d, tol", [(32, 1e-2), (32, 0.0), (12, 1e-2)], ids=["iterated", "no-early-stop", "full-basis"])
def test_eigvalsh_once_per_active_row_per_sweep(monkeypatch, d, tol):
    # a stopped row reports the values its early-stop test compared, so each
    # sweep takes one stacked eigvalsh over the rows still active and no row
    # is solved twice
    net = random_mixture(d, 3, seed=5)
    x_ts = np.random.default_rng(5).standard_normal((24, d))
    rngs = [RngStream(8, (r,)) for r in range(24)]
    cfg = SpectralConfig(top_k=3, n_iters=9, early_stop_tol=tol)
    stacks = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        stacks.append(np.shape(a)[0])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    out = subspace_iteration_batch(net, x_ts, np.repeat([0.5, 2.0], 12), cfg, rngs)
    sweeps = [res.n_iters for res in out]
    assert sum(stacks) == sum(n + 1 for n in sweeps)
    assert len(stacks) == max(sweeps) + 1
    if d == 12:
        assert full_basis(cfg, d) and sweeps == [0] * 24
    elif tol > 0.0:
        assert 0 < sum(n < cfg.n_iters for n in sweeps) < 24 and len(set(sweeps)) > 2


def test_exact_spectrum_matches_analytic():
    g = GaussianMixture(
        [0.5, 0.5], [[-1.0, 0.0], [1.0, 0.0]], [np.eye(2) * 0.5, np.eye(2)]
    )
    x_t = np.array([0.4, -0.3])
    exact = exact_spectrum(g, x_t, 0.9)
    analytic = analytic_spectrum(g, x_t, 0.9)
    assert np.allclose(exact.eigenvalues, analytic.eigenvalues, atol=1e-7)
    assert exact.asymmetry < 1e-7
    assert exact.n_evals == 4


def test_exact_spectrum_top_k_and_guard():
    g = GaussianMixture.single(np.zeros(3), np.diag([3.0, 1.0, 0.1]))
    res = exact_spectrum(g, np.zeros(3), 1.0, top_k=2)
    assert res.eigenvalues.shape == (2,)
    want = np.array([3.0 / 4.0, 1.0 / 2.0])
    assert np.allclose(res.eigenvalues, want, atol=1e-8)
    big = np.zeros(5000)
    with pytest.raises(DimTooLargeError):
        exact_spectrum(lambda x, s: x, big, 1.0)


@pytest.mark.parametrize("top_k", [-1, 0])
def test_dense_oracles_reject_top_k_below_one(top_k):
    g = GaussianMixture.single(np.zeros(3), np.diag([3.0, 1.0, 0.1]))
    for oracle in (exact_spectrum, analytic_spectrum):
        with pytest.raises(BadRangeError, match="top_k must be >= 1"):
            oracle(g, np.zeros(3), 1.0, top_k=top_k)


def test_analytic_spectrum_requires_posterior_cov():
    from eigenscore.errors import AnalyticModelRequiredError

    with pytest.raises(AnalyticModelRequiredError):
        analytic_spectrum(lambda x, s: x, np.zeros(2), 1.0)


def test_analytic_spectrum_values():
    c = np.array([2.0, 0.5])
    g = GaussianMixture.single(np.zeros(2), np.diag(c))
    res = analytic_spectrum(g, np.array([1.0, 1.0]), 1.0)
    want = np.sort(c / (c + 1.0))[::-1]
    assert np.allclose(res.eigenvalues, want, atol=1e-12)


@pytest.mark.parametrize(
    "op",
    [
        lambda f, g, x: analytic_spectrum(g, x, np.nan),
        lambda f, g, x: jvp(f, x, np.nan, np.ones(2), 1e-3),
        lambda f, g, x: exact_spectrum(f, x, np.nan),
    ],
    ids=["analytic_spectrum", "jvp", "exact_spectrum"],
)
def test_nan_sigma_is_bad_range(op):
    # a NaN sigma passed `sigma <= 0` and surfaced later as a misleading
    # NonFiniteError, or not at all
    g = GaussianMixture([0.4, 0.6], [[0.0, 0.0], [2.0, 1.0]], [np.eye(2), 0.5 * np.eye(2)])
    with pytest.raises(BadRangeError):
        op(lambda x, s: 0.5 * x, g, np.array([0.5, -1.0]))
