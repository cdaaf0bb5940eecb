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
    RankDeficientError,
)
from .linalg import qr_orthonormalize, sym_eig
from .rng import RngStream, gaussian_vec

# Dense-oracle guard: 2d evaluations and an O(d^3) factorization beyond
# this are a mistake, not a use case.
MAX_DENSE_DIM = 4096


@dataclass
class SpectralConfig:
    """Knobs for the matrix-free spectral probe.

    top_k        number of leading eigenpairs (clamped to the data dim);
                 inside a FeatureConfig it is FeatureConfig.top_k
    n_iters      maximum subspace iterations
    fd_rel       finite-difference step as a fraction of sigma
    early_stop_tol  stop when every eigenvalue estimate changes by less
                 than this relative amount between iterations; 0 disables
    """

    top_k: int = 3
    n_iters: int = 15
    fd_rel: float = 1e-3
    early_stop_tol: float = 1e-4


@dataclass
class SpectralResult:
    """Eigenvalue estimates of sigma^2 * (denoiser Jacobian) at one point.

    `eigenvalues` are descending and clamped to be non-negative;
    `raw_eigenvalues` keep the signed estimates in the same order.
    `residual` is the subspace residual max_j ||sigma^2 J v_j - lambda_j v_j||
    over max_j |lambda_j| on the final columns (0 for the dense oracles),
    `n_iters` the sweeps performed, `n_evals` the denoiser evaluations and
    `asymmetry` (dense oracle only) max |J - J^T|.
    """

    eigenvalues: np.ndarray
    raw_eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    sigma: float
    residual: float
    n_iters: int = 0
    n_evals: int = 0
    asymmetry: float | None = None


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


def _col_norms(a: np.ndarray) -> np.ndarray:
    """np.linalg.norm(a, axis=1) of a real stack, by numpy's own arithmetic."""
    return np.sqrt(np.add.reduce(a * a, axis=1))


def _check_fd_step(c: float, sigma: float) -> None:
    if c <= 0.0:
        raise BadRangeError(f"finite-difference step must be positive, got {c}")
    if c > 0.1 * sigma:
        warnings.warn(
            f"finite-difference step c={c:.3g} exceeds 0.1*sigma={0.1 * sigma:.3g}; "
            "the linearization may be poor",
            stacklevel=3,
        )


def jvp(denoiser, x_t: np.ndarray, sigma: float, v: np.ndarray, c: float) -> np.ndarray:
    """Jacobian-vector product of the denoiser at x_t along v.

    Central difference (D(x_t + c v) - D(x_t - c v)) / (2 c); exactly two
    denoiser evaluations.
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
    fn = _as_denoise_fn(denoiser)
    return _jvp_stack(fn, x_t[None], v[None, :, None], np.array([c]), [(0, 1, sigma)])[0, :, 0]


def _jvp_stack(fn, x_ts: np.ndarray, cols: np.ndarray, c: np.ndarray, runs: list) -> np.ndarray:
    """Finite-difference Jacobian products for a stack of rows.

    x_ts is (n, d), cols (n, d, k) and c (n,), row r's step.  runs lists
    (start, stop, sigma) for the ranges of rows at one noise level; the
    denoiser is called once per run, on that run's contiguous slice of the
    finite-difference points.  Returns the (n, d, k) products as a
    transposed view of a C-ordered (n, k, d) array, whatever the denoiser's
    output layout: a row's d-axis then stays contiguous whatever n is, and
    numpy sums a contiguous axis pairwise and a strided one in sequence, so
    the norms taken later round alike only if every row keeps one layout.
    """
    n, d, k = cols.shape
    c = c[:, None, None]
    step = c * np.swapaxes(cols, 1, 2)
    x = x_ts[:, None, :]
    pts = np.concatenate([x + step, x - step], axis=1).reshape(n * 2 * k, d)
    products = np.empty((n, k, d))
    for a, b, sigma in runs:
        out = _eval_batch(fn, pts[2 * k * a : 2 * k * b], sigma).reshape(b - a, 2 * k, d)
        np.subtract(out[:, :k], out[:, k:], out=products[a:b])
    products /= 2.0 * c
    return np.swapaxes(products, 1, 2)


def subspace_iteration_batch(
    denoiser,
    x_ts: np.ndarray,
    sigma: float | np.ndarray,
    config: SpectralConfig,
    rngs: list,
) -> list:
    """Estimate the top eigenpairs of sigma^2 * dD/dx at every row of x_ts.

    sigma is one noise level for every row or an (n,) array with one per
    row.  Row r starts from random N(0, sigma_r^2 I) directions drawn from
    rngs[r].  Each sweep applies the finite-difference Jacobian product
    (step fd_rel * sigma_r) to every column and re-orthonormalizes, until no
    eigenvalue estimate changes by more than early_stop_tol (relative) or
    n_iters sweeps are done.  Eigenvalues are then re-evaluated on the final
    orthonormal columns: magnitude sigma_r^2 * ||J v_k|| per the product
    norm, sign from the Rayleigh quotient v_k^T J v_k (analytic posteriors
    are PSD, learned models occasionally are not; negatives are clamped in
    `eigenvalues` and kept in `raw_eigenvalues`).  A row costs
    2 * k * (sweeps + 1) denoiser evaluations.

    The active rows' directions are held as one (rows, d, k) stack, and each
    sweep is a fixed set of whole-stack operations: one denoiser call per
    run of consecutive rows with equal sigma (so rows sharing a noise level
    are best passed next to each other), on that run's active rows; one
    stacked QR; and array-wide norms, sorts and early-stop tests.  Rows that
    stop leave the stack; all survivors share one final eigenvalue pass,
    which alone computes the subspace residual.

    Contract: a row's result is bit-identical whatever other rows share its
    batch, at whatever noise levels, in whatever order, and whatever thread
    count runs it.  This holds for any denoiser whose output for a row does
    not depend, bit for bit, on the other rows of the call.
    `GaussianMixture` is one because its one stacked GEMM keeps operand
    layouts that depend on neither the row count nor the caller's layout
    (see `GaussianMixture._components`), and the engine always calls it with
    two or more rows; this rests on BLAS rounding a GEMM row alike for any
    row count, which OpenBLAS 0.3.31 does up to d = 192 on one BLAS thread
    and up to d = 125 on several.  A BLAS-backed network like `MlpDenoiser`
    can round a row differently with the row count; its rows then agree with
    the same row alone to about 1e-12 only, but still never depend on
    threads or on rows at other noise levels, which never share its call.

    Returns a list aligned with rngs whose entries are SpectralResult, or
    the RankDeficientError a row's orthonormalization raised so the caller
    can retry that row alone.
    """
    x_ts = np.atleast_2d(np.asarray(x_ts, dtype=float))
    n_rows, d = x_ts.shape
    if len(rngs) != n_rows:
        raise DimMismatchError(f"{n_rows} points but {len(rngs)} streams")
    sigmas = np.asarray(sigma, dtype=float)
    if sigmas.ndim == 0:
        sigmas = np.full(n_rows, sigmas)
    if sigmas.shape != (n_rows,):
        raise DimMismatchError(f"{n_rows} points but sigma of shape {sigmas.shape}")
    if not (sigmas > 0.0).all():
        raise BadRangeError(f"sigma must be positive, got {sigmas[~(sigmas > 0.0)][0]}")
    if config.top_k < 1 or config.n_iters < 1:
        raise BadRangeError("top_k and n_iters must be >= 1")
    k = min(config.top_k, d)
    fn = _as_denoise_fn(denoiser)
    levels = sigmas.tolist()
    for s in dict.fromkeys(levels):
        _check_fd_step(config.fd_rel * s, s)
    c = config.fd_rel * sigmas
    s2 = sigmas * sigmas
    check_stop = config.early_stop_tol > 0.0
    # a run is a range of rows at one noise level
    starts = [r for r in range(n_rows) if r == 0 or levels[r] != levels[r - 1]]

    def runs(rows):
        """(start, stop, sigma) of each run's members among rows, an increasing index array."""
        bounds = np.searchsorted(rows, starts).tolist() + [rows.size]
        return [(a, b, levels[r]) for a, b, r in zip(bounds, bounds[1:], starts) if a < b]

    # row r's column j is drawn from rngs[r].child(j)
    draws = gaussian_vec([rng.child(j) for rng in rngs for j in range(k)], d, np.repeat(sigmas, k))
    final_cols = np.ascontiguousarray(draws.reshape(n_rows, k, d).transpose(0, 2, 1))
    performed = np.zeros(n_rows, dtype=int)
    outcome: list = [None] * n_rows

    # the active rows: their original indices, points and current directions
    act = np.arange(n_rows)
    xa = x_ts
    cols = final_cols
    prev = None
    for sweep in range(config.n_iters):
        products = _jvp_stack(fn, xa, cols, c[act], runs(act))
        lam = s2[act][:, None] * _col_norms(products) / _col_norms(cols)
        top = np.maximum(np.maximum.reduce(lam, axis=1), 1e-300)
        try:
            cols, _ = qr_orthonormalize(products)
        except RankDeficientError as e:
            # rare: the collapsed rows leave, the rest are factored again
            for i in e.indices:
                outcome[act[i]] = RankDeficientError(
                    f"row {act[i]}, sweep {sweep + 1}: {e}", indices=(act[i],)
                )
            ok = np.ones(act.size, dtype=bool)
            ok[list(e.indices)] = False
            act, xa, lam, top, products = act[ok], xa[ok], lam[ok], top[ok], products[ok]
            prev = None if prev is None else prev[ok]
            if act.size == 0:
                break
            cols, _ = qr_orthonormalize(products)

        est = np.sort(lam, axis=1)[:, ::-1]
        if prev is not None and check_stop:
            done = np.logical_and.reduce(
                np.abs(est - prev)
                <= config.early_stop_tol * np.maximum(prev, 1e-12 * top[:, None]),
                axis=1,
            )
        else:
            done = np.zeros(act.size, dtype=bool)
        if sweep + 1 == config.n_iters:
            done[:] = True
        if done.any():
            final_cols[act[done]] = cols[done]
            performed[act[done]] = sweep + 1
            keep = ~done
            act, xa, cols, est = act[keep], xa[keep], cols[keep], est[keep]
            if act.size == 0:
                break
        prev = est

    # one shared final pass over every surviving row
    fin = np.array([r for r in range(n_rows) if outcome[r] is None], dtype=int)
    if fin.size == 0:
        return outcome
    cols = final_cols[fin]
    products = _jvp_stack(fn, x_ts[fin], cols, c[fin], runs(fin))
    s2 = s2[fin][:, None]
    lam_mag = s2 * _col_norms(products)
    sign = np.where(np.einsum("rij,rij->rj", cols, products) < 0.0, -1.0, 1.0)
    raw = sign * lam_mag
    top = np.maximum(np.maximum.reduce(lam_mag, axis=1), 1e-300)
    resid = _col_norms(s2[:, None] * products - raw[:, None, :] * cols)
    final_resid = np.maximum.reduce(resid, axis=1) / top
    order = np.argsort(raw, axis=1)[:, ::-1]
    raw = np.take_along_axis(raw, order, axis=1)
    vecs = np.take_along_axis(cols, order[:, None, :], axis=2)
    vals = np.clip(raw, 0.0, None)
    for i, r in enumerate(fin):
        n_it = int(performed[r])
        outcome[r] = SpectralResult(
            eigenvalues=vals[i],
            raw_eigenvalues=raw[i],
            eigenvectors=vecs[i],
            sigma=levels[r],
            residual=float(final_resid[i]),
            n_iters=n_it,
            n_evals=2 * k * (n_it + 1),
        )
    return outcome


def subspace_iteration(
    denoiser,
    x_t: np.ndarray,
    sigma: float,
    config: SpectralConfig,
    rng: RngStream,
) -> SpectralResult:
    """Estimate the top eigenpairs of sigma^2 * dD/dx at the one point x_t.

    The one-row case of `subspace_iteration_batch`, which describes the
    method; a collapsed subspace raises its RankDeficientError.
    """
    x_t = np.asarray(x_t, dtype=float)
    if x_t.ndim != 1:
        raise DimMismatchError(f"x_t must be 1-d, got shape {x_t.shape}")
    (result,) = subspace_iteration_batch(denoiser, x_t[None], sigma, config, [rng])
    if isinstance(result, RankDeficientError):
        raise result
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
