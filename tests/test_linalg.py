import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenscore.errors import DimMismatchError, NonFiniteError, NotSquareError
from eigenscore.linalg import qr_orthonormalize, sym_eig


def test_qr_single_column_oracle():
    q, r = qr_orthonormalize(np.array([[3.0], [4.0]]))
    assert np.allclose(q, [[0.6], [0.8]])
    assert np.allclose(r, [[5.0]])


def test_qr_reconstructs_and_r_diag_nonnegative():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 3))
    q, r = qr_orthonormalize(a)
    assert np.allclose(q @ r, a, atol=1e-12)
    assert np.allclose(q.T @ q, np.eye(3), atol=1e-12)
    assert np.all(np.diagonal(r) >= 0.0)


def test_qr_sign_convention_deterministic():
    # negating the input's columns must not change Q beyond column signs
    a = np.array([[-2.0, 0.0], [0.0, 3.0]])
    q, r = qr_orthonormalize(a)
    assert np.allclose(q, [[-1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(r, [[2.0, 0.0], [0.0, 3.0]])


def assert_orthonormal_factors(a, q, r):
    """Q^T Q = I to 1e-12, Q R = A, and R upper triangular with diag >= 0."""
    k = a.shape[-1]
    assert np.abs(np.swapaxes(q, -1, -2) @ q - np.eye(k)).max() <= 1e-12
    assert np.allclose(q @ r, a, rtol=0.0, atol=1e-12 * max(1.0, np.abs(a).max()))
    assert np.array_equal(r, np.triu(r))
    assert np.all(np.diagonal(r, axis1=-2, axis2=-1) >= 0.0)


def test_qr_dependent_columns_stay_orthonormal():
    # a dependent column is no error: Householder QR still gives orthonormal
    # columns whose span holds the input's, and a zero R diagonal
    equal, zero = np.ones((4, 2)), np.zeros((5, 3))
    rank_one = np.outer(np.arange(1.0, 7.0), [1.0, -2.0, 0.5])
    for a in (equal, zero, rank_one):
        q, r = qr_orthonormalize(a)
        assert_orthonormal_factors(a, q, r)
        assert np.min(np.abs(np.diagonal(r))) < 1e-10


def test_qr_near_dependent_columns_stay_orthonormal():
    a = np.array([[1.0, 1.0], [0.0, 1e-12], [0.0, 0.0]])
    q, r = qr_orthonormalize(a)
    assert_orthonormal_factors(a, q, r)
    assert r[1, 1] == pytest.approx(1e-12, rel=1e-9)


def test_qr_stack_matches_per_matrix_bitwise():
    gen = np.random.default_rng(2)
    for shape in ((7, 5, 3), (4, 16, 8), (3, 9, 1), (2, 3, 6, 4)):
        stack = gen.standard_normal(shape)
        q, r = qr_orthonormalize(stack)
        assert q.shape == shape and r.shape == shape[:-2] + (shape[-1], shape[-1])
        for idx in np.ndindex(*shape[:-2]):
            q1, r1 = qr_orthonormalize(stack[idx])
            assert np.array_equal(q[idx], q1) and np.array_equal(r[idx], r1)


def test_qr_stack_with_deficient_matrices_matches_per_matrix():
    stack = np.random.default_rng(3).standard_normal((6, 5, 2))
    stack[1] = 1.0  # two equal columns
    stack[4, :, 1] = 0.0  # a zero column
    q, r = qr_orthonormalize(stack)
    assert_orthonormal_factors(stack, q, r)
    for i in range(6):
        q1, r1 = qr_orthonormalize(stack[i])
        assert np.array_equal(q[i], q1) and np.array_equal(r[i], r1)


def test_stacked_eigh_is_per_matrix():
    # the spectral engine factors stopped rows' Ritz problems as one stack
    # (eigvalsh for every row, eigh for the rows that ask for vectors), so a
    # row's bits must not depend on which stack it sits in or where
    gen = np.random.default_rng(4)
    for d in (2, 3, 8, 32, 64):
        a = gen.standard_normal((9, d, d))
        stack = 0.5 * (a + np.swapaxes(a, 1, 2))
        alone = [(np.linalg.eigvalsh(m), np.linalg.eigh(m)) for m in stack]
        for rows in (slice(None), slice(0, 1), slice(3, 5), slice(4, 9), [8, 2, 5], np.arange(9) % 3 == 1):
            vals = np.linalg.eigvalsh(stack[rows])
            w, v = np.linalg.eigh(stack[rows])
            for i, r in enumerate(np.arange(9)[rows]):
                want_vals, (want_w, want_v) = alone[r]
                assert np.array_equal(vals[i], want_vals)
                assert np.array_equal(w[i], want_w) and np.array_equal(v[i], want_v)


def test_qr_wide_matrix_rejected():
    with pytest.raises(DimMismatchError):
        qr_orthonormalize(np.ones((2, 3)))


def test_qr_rejects_non_finite():
    with pytest.raises(NonFiniteError):
        qr_orthonormalize(np.array([[np.nan], [1.0]]))
    with pytest.raises(DimMismatchError):
        qr_orthonormalize(np.ones(3))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_qr_idempotent_on_orthonormal_input(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((5, 3)) + 0.1 * np.eye(5, 3)
    q, _ = qr_orthonormalize(a)
    q2, r2 = qr_orthonormalize(q)
    assert np.allclose(q2, q, atol=1e-12)
    assert np.allclose(r2, np.eye(3), atol=1e-12)


def test_sym_eig_oracle_2x2():
    vals, vecs = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(vals, [3.0, 1.0])
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(vecs[:, 0], [s, s])
    assert np.allclose(vecs[:, 1], [s, -s])  # first significant entry positive


def test_sym_eig_descending_and_orthonormal():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((7, 7))
    a = a + a.T
    vals, vecs = sym_eig(a)
    assert np.all(np.diff(vals) <= 1e-12)
    assert np.allclose(vecs.T @ vecs, np.eye(7), atol=1e-12)
    assert np.allclose(a @ vecs, vecs * vals, atol=1e-10)


def _sym_eig_loop(mat):
    # the per-column sign loop sym_eig used before it was vectorized
    sym = 0.5 * (mat + mat.T)
    vals, vecs = np.linalg.eigh(sym)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12 * np.max(np.abs(col)))[0]
        if nz.size and col[nz[0]] < 0.0:
            vecs[:, j] = -col
    return vals, vecs


def _sign_cases():
    rng = np.random.default_rng(11)
    for n in (1, 2, 5, 64):
        a = rng.standard_normal((n, n))
        yield a + a.T
    yield np.zeros((4, 4))
    yield np.eye(6)
    yield np.diag([3.0, 3.0, 1.0, 1.0, 1.0])
    # eigenvectors whose leading entries are zero or below the 1e-12 cut,
    # with the first significant entry of either sign
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    q[:2] = 0.0
    q[2, ::2] *= -1.0
    q[3] *= 1e-14
    yield q @ np.diag(np.arange(1.0, 7.0)) @ q.T
    yield np.kron(np.eye(3), [[0.0, -1.0], [-1.0, 0.0]])


@pytest.mark.parametrize("case", range(9))
def test_sym_eig_signs_match_column_loop(case):
    mat = list(_sign_cases())[case]
    vals, vecs = sym_eig(mat)
    ref_vals, ref_vecs = _sym_eig_loop(mat)
    assert vals.tobytes() == ref_vals.tobytes()
    assert vecs.tobytes() == ref_vecs.tobytes()


def test_sym_eig_symmetrizes_input():
    skew = np.array([[1.0, 2.0], [0.0, 1.0]])
    vals, _ = sym_eig(skew)
    ref, _ = sym_eig(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert np.allclose(vals, ref)


def test_sym_eig_rejects_non_square():
    with pytest.raises(NotSquareError):
        sym_eig(np.ones((2, 3)))


def test_sym_eig_rejects_non_finite():
    with pytest.raises(NonFiniteError):
        sym_eig(np.array([[np.inf, 0.0], [0.0, 1.0]]))
