"""Dense linear algebra helpers with fixed conventions.

Thin wrappers over LAPACK (via numpy) that pin down the orderings and sign
conventions the rest of the package relies on: descending eigenvalues,
deterministic eigenvector signs, and QR factors with a non-negative R
diagonal.
"""
from __future__ import annotations

import numpy as np

from .errors import (
    DimMismatchError,
    NonFiniteError,
    NotSquareError,
    RankDeficientError,
)

# Columns whose R diagonal falls below this are treated as dependent.
RANK_TOL = 1e-10


def _check_finite(a: np.ndarray, name: str) -> None:
    if not np.isfinite(a).all():
        raise NonFiniteError(f"{name} contains non-finite entries")


def qr_orthonormalize(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR with columns flipped so diag(R) >= 0.

    A stack of matrices is factored in one call; each matrix gets exactly
    the factors it would get on its own.

    Parameters
    ----------
    mat : ndarray, shape (..., n, k), k <= n

    Returns
    -------
    q : ndarray, shape (..., n, k)
        Orthonormal columns spanning the input columns.
    r : ndarray, shape (..., k, k)
        Upper triangular, non-negative diagonal.

    Raises
    ------
    RankDeficientError
        If any R diagonal magnitude is below 1e-10, i.e. a column is
        numerically dependent on the ones before it.  For a stack, the
        error's `indices` name the deficient matrices as flat positions
        over the leading axes.
    """
    a = np.asarray(mat, dtype=float)
    if a.ndim < 2:
        raise DimMismatchError(f"expected an array of ndim >= 2, got ndim={a.ndim}")
    n, k = a.shape[-2:]
    if k > n:
        raise DimMismatchError(f"need k <= n, got shape {a.shape}")
    _check_finite(a, "matrix")
    q, r = np.linalg.qr(a, mode="reduced")
    diag = r.diagonal(axis1=-2, axis2=-1)
    smallest = np.minimum.reduce(np.abs(diag), axis=-1)
    if (smallest < RANK_TOL).any():
        if a.ndim == 2:
            raise RankDeficientError(
                f"column residual {smallest:.3e} below {RANK_TOL:.0e}"
            )
        bad = np.flatnonzero(smallest < RANK_TOL)
        raise RankDeficientError(
            f"matrices {bad.tolist()}: column residual "
            f"{smallest.min():.3e} below {RANK_TOL:.0e}",
            indices=bad.tolist(),
        )
    flip = np.where(diag < 0.0, -1.0, 1.0)
    return q * flip[..., None, :], r * flip[..., :, None]


def sym_eig(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix, descending eigenvalues.

    The input is symmetrized as (A + A^T)/2 before factoring.  Each
    eigenvector's sign is fixed so its first entry of non-negligible
    magnitude is positive, which makes oracle comparisons deterministic.

    Returns
    -------
    eigvals : ndarray, shape (n,), descending
    eigvecs : ndarray, shape (n, n), columns matching `eigvals`
    """
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {a.shape}")
    _check_finite(a, "matrix")
    sym = 0.5 * (a + a.T)
    vals, vecs = np.linalg.eigh(sym)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    mag = np.abs(vecs)
    first = np.argmax(mag > 1e-12 * np.max(mag, axis=0), axis=0)
    flip = vecs[first, np.arange(vecs.shape[1])] < 0.0
    vecs[:, flip] = -vecs[:, flip]
    return vals, vecs
