"""Factorizations, SPD solves, and the small expm."""

import math

import numpy as np
import pytest

from predcal import (
    CholFactor,
    DimensionMismatch,
    NotPositiveDefinite,
    SymMatrix,
    cholesky,
    matrix_exponential,
    solve_spd,
)


def _random_spd(rng, n, scale=1.0):
    q = rng.standard_normal((n, n))
    return q @ q.T + scale * np.eye(n)


def test_symmatrix_symmetrizes_and_validates():
    m = SymMatrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
    assert np.array_equal(m.a, m.a.T)
    assert m.a[0, 1] == 1.0
    with pytest.raises(DimensionMismatch):
        SymMatrix(np.zeros((2, 3)))


def test_cholesky_identity():
    f = cholesky(np.eye(3))
    assert np.allclose(f.l, np.eye(3))


def test_cholesky_hand_worked_2x2():
    # [[4,2],[2,3]] = L L^T with L = [[2,0],[1,sqrt(2)]]
    f = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
    expected = np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]])
    assert np.allclose(f.l, expected, atol=1e-14)


def test_cholesky_rejects_indefinite():
    # eigenvalues 1 and -1
    with pytest.raises(NotPositiveDefinite):
        cholesky(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_cholesky_reconstructs_input():
    rng = np.random.default_rng(0)
    a = _random_spd(rng, 6)
    f = cholesky(SymMatrix(a))
    rel = np.linalg.norm(f.l @ f.l.T - a) / np.linalg.norm(a)
    assert rel < 1e-10


def test_solve_spd_identity_and_scaled_identity():
    f = cholesky(np.eye(4))
    b = np.arange(4.0)
    assert np.allclose(solve_spd(f, b), b)
    f2 = cholesky(2.0 * np.eye(2))
    assert np.allclose(solve_spd(f2, np.array([2.0, 4.0])), [1.0, 2.0])


def test_solve_spd_matches_dense_inverse_oracle():
    rng = np.random.default_rng(1)
    a = _random_spd(rng, 5)
    b = rng.standard_normal(5)
    x = solve_spd(cholesky(a), b)
    assert np.allclose(x, np.linalg.inv(a) @ b, atol=1e-9)


def test_solve_spd_dimension_mismatch():
    f = cholesky(np.eye(3))
    with pytest.raises(DimensionMismatch):
        solve_spd(f, np.ones(4))


def test_solve_after_cholesky_is_right_inverse_on_random_orders():
    rng = np.random.default_rng(2)
    for n in (2, 3, 8, 17, 33, 64):
        a = _random_spd(rng, n)
        f = cholesky(a)
        b = rng.standard_normal(n)
        x = solve_spd(f, b)
        assert np.linalg.norm(a @ x - b) <= 1e-8 * np.linalg.norm(b)


def test_matrix_exponential_zero_diagonal_nilpotent():
    assert np.allclose(matrix_exponential(np.zeros((3, 3))), np.eye(3))
    got = matrix_exponential(np.diag([1.0, 2.0]))
    assert np.allclose(got, np.diag([math.e, math.e**2]), rtol=1e-12)
    nil = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(matrix_exponential(nil), np.array([[1.0, 1.0], [0.0, 1.0]]), atol=1e-15)


def _expm_taylor(a, terms=60):
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    return out


def test_matrix_exponential_matches_taylor_on_small_norms():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = rng.integers(1, 9)
        a = rng.standard_normal((n, n))
        a *= 0.5 / max(np.abs(a).sum(axis=0).max(), 1e-12)
        got = matrix_exponential(a)
        want = _expm_taylor(a)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_matrix_exponential_inverse_identity():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        a = rng.standard_normal((n, n))
        a *= 10.0 / np.abs(a).sum(axis=0).max()
        e = matrix_exponential(a) @ matrix_exponential(-a)
        assert np.linalg.norm(e - np.eye(n)) < 1e-8


def test_matrix_exponential_rejects_large_orders():
    with pytest.raises(ValueError):
        matrix_exponential(np.eye(9))
    with pytest.raises(DimensionMismatch):
        matrix_exponential(np.zeros((2, 3)))


def test_cholfactor_exposes_order():
    assert CholFactor(np.eye(5)).order == 5
