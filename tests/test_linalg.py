import numpy as np
import pytest

from fusionweave import (
    NonSymmetric,
    Tolerance,
    numerical_rank,
    operator_norm,
    orthonormal_columns,
    pinv,
    reduced_min_modulus,
    sym_eig_extremes,
)


def test_tolerance_validation():
    Tolerance()
    with pytest.raises(ValueError):
        Tolerance(rank_tol=0.0)
    with pytest.raises(ValueError):
        Tolerance(frame_eps=1.5)
    with pytest.raises(ValueError):
        Tolerance(orth_tol=-1e-3)


def test_orthonormal_columns_already_orthonormal():
    A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    B = orthonormal_columns(A)
    assert B.shape == (3, 2)
    np.testing.assert_allclose(B.T @ B, np.eye(2), atol=1e-12)
    # spans the xy-plane
    np.testing.assert_allclose(B @ B.T, np.diag([1.0, 1.0, 0.0]), atol=1e-12)


def test_orthonormal_columns_rank_one_duplication():
    A = np.array([[1.0, 2.0], [0.0, 0.0]])
    B = orthonormal_columns(A)
    assert B.shape == (2, 1)
    np.testing.assert_allclose(np.abs(B[:, 0]), [1.0, 0.0], atol=1e-12)


def test_orthonormal_columns_normalizes():
    # ||(0, 1/2, 1)|| = sqrt(5)/2
    A = np.array([[0.0], [0.5], [1.0]])
    B = orthonormal_columns(A)
    expected = np.array([0.0, 1.0 / np.sqrt(5.0), 2.0 / np.sqrt(5.0)])
    np.testing.assert_allclose(np.abs(B[:, 0]), expected, atol=1e-12)


def test_orthonormal_columns_zero_and_empty():
    assert orthonormal_columns(np.zeros((3, 2))).shape == (3, 0)
    assert orthonormal_columns(np.zeros((3, 0))).shape == (3, 0)


def test_pinv_diagonal():
    np.testing.assert_allclose(
        pinv(np.diag([2.0, 1.0, 0.0])), np.diag([0.5, 1.0, 0.0]), atol=1e-12
    )
    np.testing.assert_allclose(pinv(np.eye(4)), np.eye(4), atol=1e-12)


def _penrose_residual(A, A_dag):
    scale = max(operator_norm(A), 1.0)
    return max(
        operator_norm(A @ A_dag @ A - A) / scale,
        operator_norm(A_dag @ A @ A_dag - A_dag) / max(operator_norm(A_dag), 1.0),
        operator_norm(A @ A_dag - (A @ A_dag).T),
        operator_norm(A_dag @ A - (A_dag @ A).T),
    )


def test_pinv_penrose_random_rank3():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 5))
    assert _penrose_residual(A, pinv(A)) <= 1e-9


def test_pinv_penrose_property_1000():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        r = int(rng.integers(0, min(n, m) + 1))
        A = (
            rng.standard_normal((n, r)) @ rng.standard_normal((r, m))
            if r
            else np.zeros((n, m))
        )
        assert _penrose_residual(A, pinv(A)) <= 1e-9


def test_sym_eig_extremes_examples():
    assert sym_eig_extremes(np.diag([1.0, 2.0, 1.0])) == (1.0, 2.0)
    assert sym_eig_extremes(np.eye(3)) == (1.0, 1.0)
    lo, hi = sym_eig_extremes([[1.5, 0.5], [0.5, 0.5]])
    np.testing.assert_allclose(lo, 1.0 - np.sqrt(2.0) / 2.0, rtol=1e-10)
    np.testing.assert_allclose(hi, 1.0 + np.sqrt(2.0) / 2.0, rtol=1e-10)


def test_sym_eig_rejects_nonsymmetric():
    with pytest.raises(NonSymmetric):
        sym_eig_extremes([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NonSymmetric):
        sym_eig_extremes(np.zeros((2, 3)))


@pytest.mark.parametrize("factor, accepted", [(1.0 - 1e-3, True), (1.0 + 1e-3, False)])
def test_sym_eig_symmetry_guard_boundary(factor, accepted):
    # the guard accepts ||S - S^T||_F <= orth_tol * max|lambda| and nothing more
    rng = np.random.default_rng(5)
    A = rng.standard_normal((4, 4))
    sym = A + A.T
    scale = np.max(np.abs(np.linalg.eigvalsh(sym)))
    K = np.triu(rng.standard_normal((4, 4)), 1)
    K = K - K.T
    # ||S - S^T||_F = 2 ||K||_F
    K *= factor * Tolerance().orth_tol * scale / (2.0 * np.linalg.norm(K))
    if accepted:
        lo, hi = sym_eig_extremes(sym + K)
        assert type(lo) is float and type(hi) is float
        assert max(-lo, hi) == pytest.approx(scale, rel=1e-12)
    else:
        with pytest.raises(NonSymmetric):
            sym_eig_extremes(sym + K)


def test_sym_eig_zero_and_empty():
    for S in (np.zeros((3, 3)), np.zeros((0, 0))):
        lo, hi = sym_eig_extremes(S)
        assert (lo, hi) == (0.0, 0.0)
        assert type(lo) is float and type(hi) is float


def test_sym_eig_sandwich_property():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((6, 6))
    S = A + A.T
    lo, hi = sym_eig_extremes(S)
    for _ in range(100):
        f = rng.standard_normal(6)
        f /= np.linalg.norm(f)
        q = float(f @ S @ f)
        assert lo - 1e-10 <= q <= hi + 1e-10


def test_operator_norm():
    assert operator_norm(np.diag([2.0, 1.0, 0.0])) == 2.0
    assert operator_norm(np.zeros((3, 3))) == 0.0
    # only nonzero column (0, -2/5, 1/5) has norm sqrt(5)/5
    gap = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -0.4], [0.0, 0.0, 0.2]])
    np.testing.assert_allclose(operator_norm(gap), np.sqrt(5.0) / 5.0, rtol=1e-12)


def test_reduced_min_modulus_examples():
    assert reduced_min_modulus(np.diag([2.0, 1.0, 0.0])) == 1.0
    assert reduced_min_modulus(np.eye(3)) == 1.0
    assert reduced_min_modulus(np.zeros((2, 2))) == 0.0
    # rank one (Tv) v^T with ||Tv|| = 1/sqrt(2), ||v|| = 1
    v = np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0)
    Tv = np.diag([2.0, 1.0, 0.0]) @ v
    np.testing.assert_allclose(
        reduced_min_modulus(np.outer(Tv, v)), 1.0 / np.sqrt(2.0), rtol=1e-12
    )


def test_reduced_min_modulus_transpose_and_pinv_norm():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n, m = rng.integers(1, 9, size=2)
        r = int(rng.integers(0, min(n, m) + 1))
        A = (
            rng.standard_normal((n, r)) @ rng.standard_normal((r, m))
            if r
            else np.zeros((n, m))
        )
        g = reduced_min_modulus(A)
        assert abs(g - reduced_min_modulus(A.T)) <= 1e-10 * max(1.0, g)
        assert operator_norm(A) >= g
        if g > 0.0:
            np.testing.assert_allclose(g, 1.0 / operator_norm(pinv(A)), rtol=1e-9)


def test_numerical_rank():
    cols = np.column_stack(
        [np.eye(3)[:, 0], np.eye(3)[:, 1], np.eye(3)[:, 1], np.eye(3)[:, 2]]
    )
    assert numerical_rank(cols) == 3
    assert numerical_rank(np.zeros((4, 4))) == 0
    assert numerical_rank(np.eye(4)) == 4
