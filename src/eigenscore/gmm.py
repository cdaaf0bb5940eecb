"""Analytic Gaussian mixtures under additive Gaussian noise.

For a mixture p and noise level sigma, every quantity the rest of the
package estimates numerically has a closed form here: the marginal density
of x_t = x + sigma z, its score, the minimum-MSE denoiser E[x | x_t], and
the posterior covariance Cov[x | x_t].  These exact values are the oracles
for the spectral estimator and the verification suite.

Each component's covariance is eigendecomposed once at construction; all
per-sigma quantities are assembled from those factors, so adding sigma^2 I
never needs a fresh factorization.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadRangeError,
    DimMismatchError,
    NonFiniteError,
    NotPSDError,
    NotSingleGaussianError,
    SingularCovarianceError,
)
from .linalg import sym_eig
from .rng import RngStream

_LOG_2PI = float(np.log(2.0 * np.pi))

# Per-sigma factors kept by a mixture before its cache is emptied; at d=64
# with 8 components an entry holds about 0.8 MB.
SIGMA_CACHE_MAX = 32

# Bytes of one (m, rows, d) workspace buffer: the denoiser runs its rows in
# blocks this size so each thread reuses three cache-sized buffers instead of
# allocating whole-batch temporaries per call.  128 rows at d=64, m=8.
BLOCK_BYTES = 1 << 19


def block_rows(n_components: int, dim: int) -> int:
    """Rows per denoiser block for a mixture of this shape, at least 2."""
    return max(2, BLOCK_BYTES // (8 * n_components * dim))


def logsumexp(a: np.ndarray, axis: int, keepdims: bool = False) -> np.ndarray:
    """log(sum(exp(a))) along one axis, bit-identical to scipy.special.logsumexp.

    Same arithmetic as scipy's: the maxima are taken out of the sum and
    counted, the rest is shifted by the maximum, and the result is
    log1p(s / m) + log(m) + max (m = 0 only with a NaN max, and s is then
    NaN too).  Entries that come out non-finite (all -inf, any +inf or NaN)
    fall back to log(sum(exp(a))), as in scipy.  On a denoiser call's small
    arrays the cost is per numpy call, so the ufuncs' reduce is called
    directly: np.max and np.sum add µs of Python wrapper each.
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.maximum.reduce(a, axis=axis, keepdims=True)
        at_max = a == a_max
        m = np.add.reduce(at_max, axis=axis, keepdims=True, dtype=float)
        s = np.add.reduce(np.exp(np.where(at_max, -np.inf, a) - a_max), axis=axis, keepdims=True)
        s /= m
        out = np.log1p(s) + np.log(m) + a_max
        ok = np.isfinite(out)
        if not ok.all():
            out = np.where(ok, out, np.log(np.add.reduce(np.exp(a), axis=axis, keepdims=True)))
    if not keepdims:
        out = out.squeeze(axis)
    return out[()] if out.ndim == 0 else out


@dataclass(frozen=True)
class PosteriorStats:
    """Exact posterior mean and covariance of x given x_t."""

    mean: np.ndarray
    cov: np.ndarray


class GaussianMixture:
    """A finite mixture of Gaussians with exact noisy-marginal quantities.

    Parameters
    ----------
    weights : array_like, shape (m,)
        Positive and summing to 1 (a small tolerance is renormalized away).
    means : array_like, shape (m, d)
    covariances : array_like, shape (m, d, d)
        Symmetric positive semi-definite.

    The pointwise operations (noisy_logpdf, responsibilities, score,
    denoise) run their rows in blocks of block_rows(m, d) rows, about 128
    at d=64, m=8.  Each thread keeps one workspace on the model for the
    block temporaries, so threads may share a model but never a buffer.
    """

    def __init__(self, weights, means, covariances):
        w = np.asarray(weights, dtype=float)
        mu = np.atleast_2d(np.asarray(means, dtype=float))
        cov = np.asarray(covariances, dtype=float)
        if cov.ndim == 2:
            cov = cov[None, :, :]
        if w.ndim != 1:
            raise DimMismatchError("weights must be 1-d")
        m = w.shape[0]
        if mu.shape[0] != m or cov.shape[0] != m:
            raise DimMismatchError(
                f"component counts disagree: {m} weights, {mu.shape[0]} means, "
                f"{cov.shape[0]} covariances"
            )
        d = mu.shape[1]
        if cov.shape[1:] != (d, d):
            raise DimMismatchError(
                f"covariance shape {cov.shape[1:]} does not match dim {d}"
            )
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(mu)) and np.all(np.isfinite(cov))):
            raise NonFiniteError("mixture parameters contain non-finite entries")
        if np.any(w <= 0.0):
            raise BadRangeError("weights must be strictly positive")
        if abs(w.sum() - 1.0) > 1e-6:
            raise BadRangeError(f"weights must sum to 1, got {w.sum()!r}")

        self.weights = w / w.sum()
        self.means = mu
        self.covariances = cov
        self.n_components = m
        self.dim = d

        # Eigenfactors of each component covariance; sym_eig also enforces
        # symmetry.  Eigenvalues below a small negative floor are rejected,
        # tiny negatives are clamped to zero.
        evals = np.empty((m, d))
        evecs = np.empty((m, d, d))
        for i in range(m):
            asym = np.max(np.abs(cov[i] - cov[i].T))
            if asym > 1e-8:
                raise NotPSDError(f"covariance {i} asymmetric by {asym:.3e}")
            vals, vecs = sym_eig(cov[i])
            if np.min(vals) < -1e-10:
                raise NotPSDError(
                    f"covariance {i} has eigenvalue {np.min(vals):.3e} < 0"
                )
            evals[i] = np.clip(vals, 0.0, None)
            evecs[i] = vecs
        self._evals = evals
        self._evecs = evecs
        self._sigma_cache: dict[float, tuple] = {}
        self._block_rows = block_rows(m, d)
        self._local = threading.local()

    @classmethod
    def single(cls, mean, cov) -> "GaussianMixture":
        return cls([1.0], [np.asarray(mean, dtype=float)], [np.asarray(cov, dtype=float)])

    def mean(self) -> np.ndarray:
        """Mixture mean."""
        return self.weights @ self.means

    def covariance(self) -> np.ndarray:
        """Mixture covariance (within- plus between-component parts)."""
        mbar = self.mean()
        total = -np.outer(mbar, mbar)
        for i in range(self.n_components):
            total += self.weights[i] * (
                self.covariances[i] + np.outer(self.means[i], self.means[i])
            )
        return total

    def to_dict(self) -> dict:
        return {
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "covariances": self.covariances.tolist(),
        }

    # -- per-sigma factors ------------------------------------------------

    def _factors(self, sigma: float):
        """(inv_t, gain, postcov, lognorm) for each component at this sigma.

        inv_t   = ((C_i + sigma^2 I)^-1)^T, C-contiguous: the right operand
                  of the stacked GEMM each block of rows makes
        gain    = C_i (C_i + sigma^2 I)^-1          (posterior-mean gain)
        postcov = sigma^2 C_i (C_i + sigma^2 I)^-1  (per-component posterior cov)
        lognorm = log w_i - (d/2) log 2pi - (1/2) log det(C_i + sigma^2 I)
        """
        key = float(sigma)
        if not (key > 0.0 and math.isfinite(key * key)):
            raise BadRangeError(f"sigma must be positive with a finite square, got {sigma}")
        hit = self._sigma_cache.get(key)
        if hit is not None:
            return hit
        s2 = key * key
        lifted = self._evals + s2  # (m, d), strictly positive
        # V diag(s) V^T as one stacked GEMM: the 3-operand einsum is ~9x slower at d=64
        evecs, evecs_t = self._evecs, self._evecs.transpose(0, 2, 1)
        inv = np.matmul(evecs * (1.0 / lifted)[:, None, :], evecs_t)
        inv_t = np.ascontiguousarray(inv.transpose(0, 2, 1))
        gain = np.matmul(evecs * (self._evals / lifted)[:, None, :], evecs_t)
        postcov = s2 * gain
        lognorm = (
            np.log(self.weights)
            - 0.5 * self.dim * _LOG_2PI
            - 0.5 * np.sum(np.log(lifted), axis=1)
        )
        out = (inv_t, gain, postcov, lognorm)
        if len(self._sigma_cache) >= SIGMA_CACHE_MAX:
            # entries are pure functions of sigma, so emptying the cache
            # changes no output; clear() never iterates the dict that the
            # threads sharing this model may be filling
            self._sigma_cache.clear()
        self._sigma_cache[key] = out
        return out

    def _components(self, x2: np.ndarray, sigma: float):
        """Per block of rows of x2: (rows, logc, z).

        rows is the block's slice of x2; logc holds log of
        w_i * N(x; mu_i, C_i + sigma^2 I), shape (m, b), and z the whitened
        offsets z_i = (C_i + sigma^2 I)^-1 (x - mu_i), shape (m, b, d).  z is
        a view into this thread's workspace, overwritten by the next block.

        Blocks hold block_rows(m, d) rows; a 1-row tail joins the block
        before it, so no block of a call with B >= 2 has fewer than 2 rows.
        Each block is one stacked GEMM z = dx @ inv_t.  A row of z rounds
        alike for any b >= 2 because neither operand's layout depends on b or
        on the caller's layout: dx is built Fortran-ordered per component
        and inv_t is contiguous.  With a C-ordered dx, BLAS rounds a row
        differently with the row count (seen at d = 33 and d = 65).  Every
        later step is row-wise, so a row's bits do not depend on which block
        it falls in.
        """
        inv_t, _, _, lognorm = self._factors(sigma)
        b, d = x2.shape
        m = self.n_components
        step = self._block_rows
        dx_buf, z_buf, prod_buf = self._workspace(min(b, step + 1))
        start = 0
        while start < b:
            stop = b if b - start <= step + 1 else start + step
            rows = stop - start
            n = m * rows * d
            dx = dx_buf[:n].reshape(m, d, rows).transpose(0, 2, 1)
            z = z_buf[:n].reshape(m, rows, d)
            prod = prod_buf[:n].reshape(m, rows, d)
            np.subtract(x2[None, start:stop], self.means[:, None], out=dx)
            np.matmul(dx, inv_t, out=z)
            np.multiply(z, dx, out=prod)
            logc = np.add.reduce(prod, axis=2)
            logc *= -0.5
            logc += lognorm[:, None]
            yield slice(start, stop), logc, z
            start = stop

    def _workspace(self, rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """This thread's flat dx, z and product buffers, each with room for
        `rows` rows of all components.

        Every thread sharing the model gets its own, so no buffer is written
        by two threads; it is reused by the thread's later calls and grows
        only when a call needs more rows.
        """
        need = self.n_components * rows * self.dim
        ws = getattr(self._local, "ws", None)
        if ws is None or ws[0].size < need:
            ws = self._local.ws = tuple(np.empty(need) for _ in range(3))
        return ws

    def _as_batch(self, x) -> tuple[np.ndarray, bool]:
        a = np.asarray(x, dtype=float)
        single = a.ndim == 1
        if single:
            a = a[None, :]
        if a.ndim != 2 or a.shape[1] != self.dim:
            raise DimMismatchError(f"expected points of dim {self.dim}, got shape {np.shape(x)}")
        return a, single

    # -- public operations ------------------------------------------------

    def noisy_logpdf(self, x, sigma: float):
        """log density of x_t = x + sigma z at the given point(s)."""
        x2, single = self._as_batch(x)
        out = np.empty(x2.shape[0])
        for rows, logc, _ in self._components(x2, sigma):
            out[rows] = logsumexp(logc, axis=0)
        return float(out[0]) if single else out

    def responsibilities(self, x, sigma: float):
        """Posterior component probabilities given x_t, shape (..., m)."""
        x2, single = self._as_batch(x)
        r = np.empty((self.n_components, x2.shape[0]))
        for rows, logc, _ in self._components(x2, sigma):
            r[:, rows] = np.exp(logc - logsumexp(logc, axis=0, keepdims=True))
        return r[:, 0] if single else r.T

    def _pull(self, x2: np.ndarray, sigma: float) -> np.ndarray:
        """Minus the score, sum_i r_i z_i (the pull to mean i is -z_i), C-ordered."""
        out = np.empty(x2.shape)  # C-ordered whatever x's layout, as callers expect
        for rows, logc, z in self._components(x2, sigma):
            logc -= logsumexp(logc, axis=0, keepdims=True)
            np.einsum("mb,mbi->bi", np.exp(logc, out=logc), z, out=out[rows])
        return out

    def score(self, x, sigma: float):
        """Gradient of the noisy log density at x_t."""
        x2, single = self._as_batch(x)
        out = self._pull(x2, sigma)
        np.negative(out, out=out)
        return out[0] if single else out

    def denoise(self, x, sigma: float):
        """Minimum-MSE denoiser E[x | x_t] = x_t + sigma^2 * score(x_t).

        x_t - sigma^2 * (minus the score) rounds exactly as that sum does.

        For B >= 2 rows, a row's output is bit-identical whatever other rows
        share the call, whichever block it falls in and whatever the input's
        memory layout (see `_components`).  This rests on BLAS rounding a
        GEMM row alike for any row count, which OpenBLAS 0.3.31 does up to
        d = 192 on one BLAS thread and up to d = 125 on several.  A call
        with one point (B = 1) takes numpy's matrix-vector path and may
        differ from the same point in a batch in the last bits.
        """
        x2, single = self._as_batch(x)
        out = self._pull(x2, sigma)
        out *= sigma * sigma
        np.subtract(x2, out, out=out)
        return out[0] if single else out

    def posterior_cov(self, x, sigma: float) -> PosteriorStats:
        """Exact posterior mean and covariance of x given x_t = x.

        Cov[x | x_t] mixes the per-component posterior covariances with the
        spread of the per-component posterior means:
        sum_i r_i (C^post_i + m_i m_i^T) - m m^T.
        """
        x2, single = self._as_batch(x)
        if not single:
            raise DimMismatchError("posterior_cov takes a single point")
        xt = x2[0]
        _, gain, postcov, _ = self._factors(sigma)
        r = self.responsibilities(xt, sigma)
        pmeans = self.means + np.einsum("mij,mj->mi", gain, xt - self.means)
        mbar = r @ pmeans
        cov = -np.outer(mbar, mbar)
        for i in range(self.n_components):
            cov += r[i] * (postcov[i] + np.outer(pmeans[i], pmeans[i]))
        cov = 0.5 * (cov + cov.T)
        return PosteriorStats(mean=mbar, cov=cov)

    def sample(self, rng: RngStream, n: int) -> np.ndarray:
        """Draw n exact samples; deterministic in (seed, stream)."""
        if n < 1:
            raise BadRangeError(f"n must be >= 1, got {n}")
        gen = rng.generator()
        comps = gen.choice(self.n_components, size=n, p=self.weights)
        normals = gen.standard_normal((n, self.dim))
        out = np.empty((n, self.dim))
        for i in range(self.n_components):
            rows = comps == i
            if not np.any(rows):
                continue
            # Symmetric square root from the cached eigenfactors; components
            # with zero covariance just return their mean.
            root = self._evecs[i] * np.sqrt(self._evals[i])
            out[rows] = self.means[i] + normals[rows] @ root.T
        return out


def kl_gaussians(p: GaussianMixture, q: GaussianMixture) -> float:
    """KL divergence between two single-component Gaussians.

    KL(p || q) = 1/2 [ tr(Sq^-1 Sp) + (mq-mp)^T Sq^-1 (mq-mp) - d
                       + log det Sq - log det Sp ]
    """
    for g, name in ((p, "p"), (q, "q")):
        if g.n_components != 1:
            raise NotSingleGaussianError(f"{name} has {g.n_components} components")
    if p.dim != q.dim:
        raise DimMismatchError(f"dims disagree: {p.dim} vs {q.dim}")
    sp_vals = p._evals[0]
    sq_vals = q._evals[0]
    if np.min(sp_vals) <= 0.0 or np.min(sq_vals) <= 0.0:
        raise SingularCovarianceError("KL needs non-singular covariances")
    sq_inv = np.einsum("ij,j,kj->ik", q._evecs[0], 1.0 / sq_vals, q._evecs[0])
    delta = q.means[0] - p.means[0]
    return 0.5 * float(
        np.trace(sq_inv @ p.covariances[0])
        + delta @ sq_inv @ delta
        - p.dim
        + np.sum(np.log(sq_vals))
        - np.sum(np.log(sp_vals))
    )
