"""Jacobian-free estimation of a denoiser's posterior covariance spectrum.

For x_t = x + sigma z, the posterior covariance Cov[x | x_t] equals sigma^2
times the denoiser Jacobian at x_t.  Its top eigenpairs are found by
subspace iteration where every Jacobian-vector product is a central finite
difference of two denoiser evaluations, so no Jacobian is ever formed.  A
dense finite-difference oracle (`exact_spectrum`) and the closed-form
posterior covariance of analytic mixtures (`analytic_spectrum`) back every
estimate in the tests.

A denoiser is any object with a `denoise(x, sigma)` method or any callable
`f(x, sigma)`, vectorized over a leading batch axis: n points of shape
(n, d) in, n denoised points of shape (n, d) out, all at the one float
noise level sigma.  The batch engine takes a noise level per row, so all
timesteps of a sample share one sweep loop; it calls the denoiser once per
run of consecutive rows with equal sigma.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    AnalyticModelRequiredError,
    BadRangeError,
    DimMismatchError,
    DimTooLargeError,
    NonFiniteDenoiserOutputError,
)
from .linalg import qr_orthonormalize, sym_eig
from .rng import RngStream, gaussian_vec

# Dense-oracle guard: 2d evaluations and an O(d^3) factorization beyond
# this are a mistake, not a use case.
MAX_DENSE_DIM = 4096

# Bytes of eigenvectors one eigh call of the probe may return: the stopped
# rows that ask for vectors on a full basis hold (rows, d, d) Ritz problems,
# factored in blocks of rows this size, so the whole eigenvector stack never
# exists at once.  Rows that ask only for values take eigvalsh, which returns
# no vectors.
EIGH_BLOCK_BYTES = 1 << 16

# Where `full_basis` pays.  It costs 2d denoiser evaluations plus dense d x d
# work (eigh of the Ritz problem and the rotation) that grows as d^3, against
# 2k(n_iters + 1) evaluations for a row at the cap.  Timed on 1 thread with
# mixtures and MLPs, it won whenever the budget k(n_iters + 1) covered d up
# to d = FULL_BASIS_DENSE_D; beyond that the budget had to cover
# d^2 / FULL_BASIS_DENSE_D (2d at d = 64).  Past FULL_BASIS_MAX_D even 2d
# lost with a cheap network (0.8-0.9x at d = 96), and the (rows, d, d)
# stacks grow as d^2, so larger d iterates unless top_k >= d.
FULL_BASIS_DENSE_D = 32
FULL_BASIS_MAX_D = 64

# A finite-difference step below this fraction of max |x_t| is an error:
# x_t +- c v then rounds toward x_t, and at this ratio rounding x_t alone
# already costs about 2e-6 of the step (float64 spacing 2.2e-16 / 1e-10).
FD_RESOLUTION = 1e-10


@dataclass
class SpectralConfig:
    """Knobs for the matrix-free spectral probe.

    top_k        number of leading eigenpairs (clamped to the data dim);
                 inside a FeatureConfig it is FeatureConfig.top_k
    n_iters      maximum re-orthonormalizations, so at most n_iters + 1
                 block Jacobian products of k = min(top_k, d) columns per
                 row.  It also decides the path: when that budget
                 k(n_iters + 1) covers d, with a margin for d > 32, up to
                 d = 64 (`full_basis`), the probe takes one block product
                 of the d coordinate axes instead, exact and cheaper than
                 a row at the cap
    fd_rel       finite-difference step as a fraction of sigma
    early_stop_tol  stop when every Ritz value changes by less than this
                 relative amount between sweeps; 0 disables; unused on the
                 full basis
    """

    top_k: int = 3
    n_iters: int = 15
    fd_rel: float = 1e-3
    early_stop_tol: float = 1e-4


@dataclass
class SpectralResult:
    """Eigenvalue estimates of sigma^2 * (denoiser Jacobian) at one point.

    `raw_eigenvalues` are signed and descending (for the probe, sigma^2 times
    Ritz values of sym(J)), `eigenvalues` the same clamped at 0, and
    `eigenvectors` (d, k) the matching vectors v_j.  `residual` is
    max_j ||sigma^2 J v_j - lambda_j v_j|| over max_j |lambda_j| (0 for the
    dense oracles).  `eigenvectors` and `residual` are None for a row that
    `subspace_iteration_batch`'s `vectors` mask leaves out.  `n_iters` is
    the re-orthonormalizations performed,
    `n_evals` the denoiser evaluations, 2k(n_iters + 1) for the subspace
    iteration (2d with n_iters 0 on the full basis), and `asymmetry`
    (dense oracle only) max |J - J^T|.
    """

    eigenvalues: np.ndarray
    raw_eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    sigma: float
    residual: float
    n_iters: int = 0
    n_evals: int = 0
    asymmetry: float | None = None


def full_basis(config: SpectralConfig, d: int) -> bool:
    """Whether the probe at data dimension d takes the identity as its basis.

    With k = min(top_k, d), it always does when k = d.  Otherwise it does
    when d <= FULL_BASIS_MAX_D and the capped budget of k(n_iters + 1) block
    columns covers d, and d^2 / FULL_BASIS_DENSE_D when that is larger: a
    row at the cap would then cost more than the identity's 2d evaluations
    and its dense d x d Ritz problem, and Rayleigh-Ritz on the whole space
    is exact where the capped row is not.
    """
    k = min(config.top_k, d)
    budget = k * (config.n_iters + 1)
    dense = FULL_BASIS_DENSE_D
    return k == d or (d <= FULL_BASIS_MAX_D and budget * dense >= d * max(d, dense))


def _as_denoise_fn(denoiser):
    fn = getattr(denoiser, "denoise", None)
    if fn is None:
        if not callable(denoiser):
            raise TypeError("denoiser must expose denoise(x, sigma) or be callable")
        fn = denoiser
    return fn


def _eval_batch(fn, points: np.ndarray, sigma: float) -> np.ndarray:
    # One memory layout for every call: the denoisers' einsum and matmul
    # kernels round differently for C- and Fortran-ordered input, so a
    # point's result is reproducible only if every call uses one layout.
    points = np.asfortranarray(points)
    out = np.asarray(fn(points, sigma), dtype=float)
    if out.shape != points.shape:
        raise DimMismatchError(
            f"denoiser returned shape {out.shape} for points of shape {points.shape}"
        )
    if not np.isfinite(out).all():
        raise NonFiniteDenoiserOutputError(
            f"denoiser returned non-finite values at sigma={sigma}"
        )
    return out


def _check_fd_step(c: float, sigma: float) -> None:
    if c <= 0.0:
        raise BadRangeError(f"finite-difference step must be positive, got {c}")
    if c > 0.1 * sigma:
        warnings.warn(
            f"finite-difference step c={c:.3g} exceeds 0.1*sigma={0.1 * sigma:.3g}; "
            "the linearization may be poor",
            stacklevel=3,
        )


def _check_fd_resolution(c: np.ndarray, x_ts: np.ndarray) -> None:
    """Raise BadRangeError naming the first row r of x_ts (n, d) whose step
    c[r] is below FD_RESOLUTION * max |x_ts[r]|."""
    floor = FD_RESOLUTION * np.maximum.reduce(np.abs(x_ts), axis=1)
    bad = np.flatnonzero(c < floor)
    if bad.size:
        r = bad[0]
        raise BadRangeError(
            f"row {r}: finite-difference step {c[r]:.3g} is below x_t's float "
            f"resolution, {FD_RESOLUTION:.0e} * max|x_t| = {floor[r]:.3g}"
        )


def jvp(denoiser, x_t: np.ndarray, sigma: float, v: np.ndarray, c: float) -> np.ndarray:
    """Jacobian-vector product of the denoiser at x_t along v.

    Central difference (D(x_t + c v) - D(x_t - c v)) / (2 c); exactly two
    denoiser evaluations.  A step c below 1e-10 * max |x_t| is a
    BadRangeError, since x_t +- c v would round to x_t.
    """
    x_t = np.asarray(x_t, dtype=float)
    v = np.asarray(v, dtype=float)
    if x_t.shape != v.shape or x_t.ndim != 1:
        raise DimMismatchError(f"shapes {x_t.shape} and {v.shape} must be equal 1-d")
    if not np.any(v != 0.0):
        raise BadRangeError("direction v must be non-zero")
    if not sigma > 0.0:
        raise BadRangeError(f"sigma must be positive, got {sigma}")
    _check_fd_step(c, sigma)
    _check_fd_resolution(np.array([c]), x_t[None])
    fn = _as_denoise_fn(denoiser)
    return _jvp_stack(fn, x_t[None], v[None, :, None], np.array([c]), [(0, 1, sigma)])[0, :, 0]


def _jvp_stack(
    fn, x_ts: np.ndarray, cols: np.ndarray, c: np.ndarray, runs: list, block: int | None = None
) -> np.ndarray:
    """Finite-difference Jacobian products for a stack of rows.

    x_ts is (n, d), cols (n, d, k) and c (n,), row r's step.  runs lists
    (start, stop, sigma) for the ranges of rows at one noise level; the
    denoiser is called once per run and per block of at most `block`
    columns (all k by default), on that run's contiguous slice of the
    block's finite-difference points, so no call gets more than
    2 * block points per row.  Returns the (n, d, k) products as a
    transposed view of a C-ordered (n, k, d) array, whatever the denoiser's
    output layout: a row's d-axis then stays contiguous whatever n is, and
    numpy sums a contiguous axis pairwise and a strided one in sequence, so
    later products and norms round alike only if every row keeps one layout.
    """
    n, d, k = cols.shape
    c = c[:, None, None]
    x = x_ts[:, None, :]
    products = np.empty((n, k, d))
    width = k if block is None else block
    for j in range(0, k, width):
        w = min(width, k - j)
        step = c * np.swapaxes(cols[:, :, j : j + w], 1, 2)
        pts = np.concatenate([x + step, x - step], axis=1).reshape(n * 2 * w, d)
        for a, b, sigma in runs:
            out = _eval_batch(fn, pts[2 * w * a : 2 * w * b], sigma).reshape(b - a, 2 * w, d)
            np.subtract(out[:, :w], out[:, w:], out=products[a:b, j : j + w])
    products /= 2.0 * c
    return np.swapaxes(products, 1, 2)


def subspace_iteration_batch(
    denoiser,
    x_ts: np.ndarray,
    sigma: float | np.ndarray,
    config: SpectralConfig,
    rngs: list | None,
    vectors: np.ndarray | None = None,
) -> list:
    """Estimate the top eigenpairs of sigma^2 * dD/dx at every row of x_ts.

    sigma is one noise level for every row or an (n,) array with one per
    row.  This is subspace iteration with Rayleigh-Ritz projection (Saad,
    Numerical Methods for Large Eigenvalue Problems, ch. 5).  With
    k = min(top_k, d), row r starts from the orthonormalized k random
    directions drawn from rngs[r], or from the d columns of the identity
    when `full_basis(config, d)` holds: k = d, or d <= 64 and the budget
    k(n_iters + 1) covers d with a margin that grows past d = 32.  Each
    sweep takes P = J Q, the finite-difference Jacobian product (step
    fd_rel * sigma_r) of the basis Q, and the Ritz values theta of
    H = sym(Q^T P); the next basis is qr(P).  A row stops once no
    sigma_r^2 theta changes by more than early_stop_tol (relative) from the
    sweep before, or after n_iters re-orthonormalizations.  When P loses
    rank, Q has found an invariant subspace: qr(P) still gives orthonormal
    columns whose span holds P's, and the eigenvalues missing from P read
    about 0.  A row's last sweep reports sigma_r^2 times its k largest Ritz
    values, descending, from eigvalsh(H).  A row in the boolean mask
    `vectors` (None: every row) also reports their Ritz vectors y = Q u
    (u from eigh(H)) and the residual, which takes J y = P u from the
    products it already holds; any other row reports None for both.  These
    are eigenvalues of the symmetric posterior covariance sigma_r^2 sym(J)
    on the basis, whatever J's asymmetry; a learned model's may be
    negative, clamped in `eigenvalues` and kept in `raw_eigenvalues`.  An
    iterated row costs 2 * k * (n_iters + 1) denoiser evaluations, and its
    basis converges to the k eigenvalues of largest magnitude.  The identity
    spans the whole space, so on the full basis Rayleigh-Ritz is exact
    after one product and its k largest Ritz values are the k largest
    signed eigenvalues of sym(J): every row stops there with n_iters 0 and
    2d evaluations on the points x +- c e_j, fewer than a row at the cap,
    and draws nothing from rngs (which may be None), makes no QR and takes
    no early-stop test.

    The active rows' bases are held as one (rows, d, width) stack, width k
    or d, and each sweep is a fixed set of whole-stack operations: one
    denoiser call per run of consecutive rows with equal sigma (so rows
    sharing a noise level are best passed next to each other) and per k
    basis columns, so no call gets more than the run's rows x 2k points;
    one stacked QR (none on the full basis); the early-stop test, with a
    stacked k x k eigvalsh for the rows whose trace of H moved little
    enough that they might stop.  Rows that stop take one stacked eigvalsh,
    the masked ones among them a stacked eigh as well, and leave the stack.

    Contract: a row's result is bit-identical whatever other rows share its
    batch, at whatever noise levels, in whatever order, whichever rows ask
    for vectors, and whatever thread count runs it; its values do not
    depend on whether it asks for vectors itself.  This holds for any
    denoiser whose output for a row does not depend, bit for bit, on the
    other rows of the call.
    `GaussianMixture` is one because its one stacked GEMM keeps operand
    layouts that depend on neither the row count nor the caller's layout
    (see `GaussianMixture._components`), and the engine always calls it with
    two or more rows; this rests on BLAS rounding a GEMM row alike for any
    row count, which OpenBLAS 0.3.31 does up to d = 192 on one BLAS thread
    and up to d = 125 on several.  A BLAS-backed network like `MlpDenoiser`
    can round a row differently with the row count; its rows then agree with
    the same row alone to about 1e-12 only, but still never depend on
    threads or on rows at other noise levels, which never share its call.

    A row whose step fd_rel * sigma_r is below 1e-10 * max |x_t| is a
    BadRangeError naming it: x_t +- c v would round to x_t, and every
    product would read 0.

    Returns a list of SpectralResult aligned with the rows.
    """
    x_ts = np.atleast_2d(np.asarray(x_ts, dtype=float))
    n_rows, d = x_ts.shape
    sigmas = np.asarray(sigma, dtype=float)
    if sigmas.ndim == 0:
        sigmas = np.full(n_rows, sigmas)
    if sigmas.shape != (n_rows,):
        raise DimMismatchError(f"{n_rows} points but sigma of shape {sigmas.shape}")
    if not (sigmas > 0.0).all():
        raise BadRangeError(f"sigma must be positive, got {sigmas[~(sigmas > 0.0)][0]}")
    if config.top_k < 1 or config.n_iters < 1:
        raise BadRangeError("top_k and n_iters must be >= 1")
    full = full_basis(config, d)
    if rngs is None:
        if not full:
            raise DimMismatchError(f"{n_rows} points draw starting directions, but rngs is None")
    elif len(rngs) != n_rows:
        raise DimMismatchError(f"{n_rows} points but {len(rngs)} streams")
    want = np.ones(n_rows, dtype=bool) if vectors is None else np.asarray(vectors)
    if want.dtype != bool or want.shape != (n_rows,):
        raise DimMismatchError(f"vectors must be a boolean mask of {n_rows} rows, got {want.dtype} {want.shape}")
    k = min(config.top_k, d)
    width = d if full else k
    fn = _as_denoise_fn(denoiser)
    levels = sigmas.tolist()
    for s in dict.fromkeys(levels):
        _check_fd_step(config.fd_rel * s, s)
    c = config.fd_rel * sigmas
    _check_fd_resolution(c, x_ts)
    s2 = sigmas * sigmas
    tol = config.early_stop_tol
    # a run is a range of rows at one noise level
    starts = [r for r in range(n_rows) if r == 0 or levels[r] != levels[r - 1]]

    def runs(rows):
        """(start, stop, sigma) of each run's members among rows, an increasing index array."""
        bounds = np.searchsorted(rows, starts).tolist() + [rows.size]
        return [(a, b, levels[r]) for a, b, r in zip(bounds, bounds[1:], starts) if a < b]

    if full:
        # the identity spans the whole space, so the first sweep's Ritz values
        # are exact and every row stops there; rngs go unused
        cols = np.broadcast_to(np.eye(d), (n_rows, d, d))
    else:
        # row r's column j is drawn from rngs[r].child(j)
        draws = gaussian_vec([rng.child(j) for rng in rngs for j in range(k)], d, 1.0)
        mat = np.ascontiguousarray(draws.reshape(n_rows, k, d).transpose(0, 2, 1))
    # the active rows are their original indices, points and the matrices
    # whose QR is the next basis
    outcome: list = [None] * n_rows
    act, xa, prev = np.arange(n_rows), x_ts, None
    for sweep in range(config.n_iters + 1):
        if not full:
            cols, _ = qr_orthonormalize(mat)
        # k columns per denoiser call, as an iterated sweep makes, whatever the width
        products = _jvp_stack(fn, xa, cols, c[act], runs(act), block=k)
        if full:
            # Q is the identity, so Q^T P is P: sym(P) without a (rows, d, d) copy
            h = products + np.swapaxes(products, 1, 2)
            h *= 0.5
        else:
            h = np.matmul(np.swapaxes(cols, 1, 2), products)
            h = 0.5 * (h + np.swapaxes(h, 1, 2))
        done = np.full(act.size, full or sweep == config.n_iters)
        if prev is not None and tol > 0.0 and sweep < config.n_iters:
            # Ritz values sum to the trace, and the test lets it move by at most
            # tol (sqrt(k) |H_prev|_F + 1e-12 k |H|_F): rows beyond twice that, plus
            # eigvalsh's roundoff, cannot stop and need no eigvalsh
            f, fp = (np.sqrt(np.add.reduce(a * a, axis=(1, 2))) for a in (h, prev))
            slack = 2.0 * tol * (np.sqrt(k) * fp + 1e-12 * k * f) + 1e-10 * k * (f + fp)
            cand = np.flatnonzero(np.abs(np.trace(h - prev, axis1=1, axis2=2)) <= slack)
            if cand.size:
                est, old = (s2[act[cand]][:, None] * np.linalg.eigvalsh(a[cand])[:, ::-1] for a in (h, prev))
                top = np.maximum(np.maximum.reduce(np.abs(est), axis=1), 1e-300)
                close = np.abs(est - old) <= tol * np.maximum(np.abs(old), 1e-12 * top[:, None])
                done[cand] = np.logical_and.reduce(close, axis=1)
        if done.any():
            # stopped rows take their k largest Ritz values from eigvalsh; those
            # that ask for vectors also rotate to the Ritz vectors y = Q u (u on
            # the full basis, where Q = I), whose J y = P u.  When every row
            # stops or asks, as on the full basis, views stand in for the
            # (rows, d, d) copies a mask would make
            stop = slice(None) if done.all() else done
            s2r = s2[act[stop]][:, None]
            raw = s2r * np.linalg.eigvalsh(h[stop])[:, : -k - 1 : -1]
            vals = np.clip(raw, 0.0, None)
            ask = done & want[act]
            pairs = {}
            if ask.any():
                sel = slice(None) if ask.all() else ask
                u = _top_eigh(h[sel], k)
                vecs = u if full else np.matmul(cols[sel], u)
                jv = np.matmul(products[sel], u)
                sub = ask[done]
                raw_a, s2a = raw[sub], s2r[sub]
                top = np.maximum(np.maximum.reduce(np.abs(raw_a), axis=1), 1e-300)
                resid = np.maximum.reduce(np.linalg.norm(s2a[:, None] * jv - raw_a[:, None, :] * vecs, axis=1), axis=1) / top
                pairs = dict(zip(act[ask].tolist(), zip(vecs, resid.tolist())))
            for i, r in enumerate(act[done].tolist()):
                vec, res = pairs.get(r, (None, None))
                outcome[r] = SpectralResult(
                    eigenvalues=vals[i],
                    raw_eigenvalues=raw[i],
                    eigenvectors=vec,
                    sigma=levels[r],
                    residual=res,
                    n_iters=sweep,
                    n_evals=2 * width * (sweep + 1),
                )
            keep = ~done
            act, xa, products, h = act[keep], xa[keep], products[keep], h[keep]
            if act.size == 0:
                break
        mat = products
        prev = h
    return outcome


def _top_eigh(h: np.ndarray, k: int) -> np.ndarray:
    """The eigenvectors (n, m, k) of the k largest eigenvalues, descending, of
    each symmetric matrix in the (n, m, m) stack h, from eigh on blocks of at
    most EIGH_BLOCK_BYTES of eigenvectors."""
    n, m, _ = h.shape
    u = np.empty((n, m, k))
    step = max(1, EIGH_BLOCK_BYTES // (8 * m * m))
    for i in range(0, n, step):
        u[i : i + step] = np.linalg.eigh(h[i : i + step])[1][:, :, : -k - 1 : -1]
    return u


def subspace_iteration(
    denoiser,
    x_t: np.ndarray,
    sigma: float,
    config: SpectralConfig,
    rng: RngStream,
) -> SpectralResult:
    """Estimate the top eigenpairs of sigma^2 * dD/dx at the one point x_t.

    The one-row case of `subspace_iteration_batch`, which describes the
    method.
    """
    x_t = np.asarray(x_t, dtype=float)
    if x_t.ndim != 1:
        raise DimMismatchError(f"x_t must be 1-d, got shape {x_t.shape}")
    (result,) = subspace_iteration_batch(denoiser, x_t[None], sigma, config, [rng])
    return result


def _dense_k(top_k: int | None, d: int) -> int:
    """The number of leading pairs a dense oracle returns: top_k clamped to d, or all d."""
    k = d if top_k is None else min(top_k, d)
    if k < 1:
        raise BadRangeError(f"top_k must be >= 1, got {top_k}")
    return k


def _dense_result(vals, vecs, k, sigma, n_evals, asymmetry=None) -> SpectralResult:
    """A dense oracle's result: the k leading pairs of a descending eigendecomposition."""
    raw = vals[:k]
    return SpectralResult(
        eigenvalues=np.clip(raw, 0.0, None),
        raw_eigenvalues=raw.copy(),
        eigenvectors=vecs[:, :k],
        sigma=float(sigma),
        residual=0.0,
        n_iters=0,
        n_evals=n_evals,
        asymmetry=asymmetry,
    )


def _fd_jacobian(fn, x_t: np.ndarray, sigma: float) -> np.ndarray:
    """Central-difference Jacobian of fn(., sigma) at the 1-d point x_t, all
    2d points in one call, with the step h = 1e-4 * max(1, max |x_t|)."""
    d = x_t.shape[0]
    h = 1e-4 * max(1.0, float(np.max(np.abs(x_t))))
    return _jvp_stack(fn, x_t[None], np.eye(d)[None], np.array([h]), [(0, 1, sigma)])[0]


def exact_spectrum(
    denoiser,
    x_t: np.ndarray,
    sigma: float,
    top_k: int | None = None,
) -> SpectralResult:
    """Dense finite-difference oracle for the same spectrum.

    Builds the full Jacobian with central differences (`_fd_jacobian`, 2d
    evaluations), symmetrizes, and solves the dense symmetric
    eigenproblem.  Guarded to d <= 4096.
    """
    x_t = np.asarray(x_t, dtype=float)
    if x_t.ndim != 1:
        raise DimMismatchError(f"x_t must be 1-d, got shape {x_t.shape}")
    if not sigma > 0.0:
        raise BadRangeError(f"sigma must be positive, got {sigma}")
    d = x_t.shape[0]
    if d > MAX_DENSE_DIM:
        raise DimTooLargeError(f"dense oracle limited to d <= {MAX_DENSE_DIM}, got {d}")
    k = _dense_k(top_k, d)
    jac = _fd_jacobian(_as_denoise_fn(denoiser), x_t, sigma)
    asym = float(np.max(np.abs(jac - jac.T)))
    vals, vecs = sym_eig((sigma * sigma) * jac)
    return _dense_result(vals, vecs, k, sigma, n_evals=2 * d, asymmetry=asym)


def analytic_spectrum(model, x_t: np.ndarray, sigma: float, top_k: int | None = None) -> SpectralResult:
    """Closed-form spectrum from an analytic model's posterior covariance."""
    post = getattr(model, "posterior_cov", None)
    if post is None:
        raise AnalyticModelRequiredError(
            "model has no posterior_cov; use exact_spectrum for learned denoisers"
        )
    stats = post(np.asarray(x_t, dtype=float), sigma)
    vals, vecs = sym_eig(stats.cov)
    return _dense_result(vals, vecs, _dense_k(top_k, vals.shape[0]), sigma, n_evals=0)
