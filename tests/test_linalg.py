"""Factorizations, SPD solves, and the matrix exponential."""

import ctypes
import glob
import itertools
import math
import os

import numpy as np
import pytest
import scipy
from scipy.linalg import expm as scipy_expm
from scipy.linalg import solve_triangular

from predcal import (
    CholFactor,
    DimensionMismatch,
    NotPositiveDefinite,
    cholesky,
    matrix_exponential,
    solve_lower,
    solve_spd,
)
from predcal.systems import _ion_generator


def _random_spd(rng, n, scale=1.0):
    q = rng.standard_normal((n, n))
    return q @ q.T + scale * np.eye(n)


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


def test_cholesky_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        cholesky(np.zeros((2, 3)))


def test_cholesky_reconstructs_input():
    rng = np.random.default_rng(0)
    a = _random_spd(rng, 6)
    f = cholesky(a)
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


def test_solve_lower_is_the_triangular_solve_bit_for_bit():
    rng = np.random.default_rng(3)
    for n in (1, 7, 50, 200):
        f = cholesky(_random_spd(rng, n))
        for b in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            z = solve_lower(f, b)
            assert z.shape == b.shape
            assert np.array_equal(z, solve_triangular(f.l, b, lower=True))
    # the quadratic form of solve_spd, from half the sweeps
    a = _random_spd(rng, 40)
    b = rng.standard_normal(40)
    z = solve_lower(cholesky(a), b)
    assert z @ z == pytest.approx(b @ solve_spd(cholesky(a), b), rel=1e-12)
    with pytest.raises(DimensionMismatch):
        solve_lower(cholesky(np.eye(3)), np.ones(4))
    with pytest.raises(DimensionMismatch):
        solve_lower(cholesky(np.eye(3)), np.ones((2, 3)))


def test_import_pins_the_bundled_openblas_to_one_thread():
    # predcal is imported above; each bundled build that is found must run one thread
    found = {}
    for pkg, symbol in ((np, "scipy_openblas_get_num_threads64_"),
                        (scipy, "scipy_openblas_get_num_threads")):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), pkg.__name__ + ".libs")
        for lib in glob.glob(os.path.join(libdir, "*openblas*.so*")):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            fn.argtypes = []
            fn.restype = ctypes.c_int
            found[lib] = fn()
    if not found:
        pytest.skip("no bundled OpenBLAS with a thread-count symbol")
    assert set(found.values()) == {1}, found


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
    # a (m, k, k) stack: each slice matches its Taylor sum and a lone call
    stack = rng.standard_normal((6, 4, 4))
    stack *= 0.5 / np.abs(stack).sum(axis=1).max(axis=1)[:, None, None]
    got = matrix_exponential(stack)
    assert got.shape == stack.shape
    for a, e in zip(stack, got):
        want = _expm_taylor(a)
        assert np.linalg.norm(e - want) <= 1e-10 * np.linalg.norm(want)
        assert np.array_equal(e, matrix_exponential(a))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_matrix_exponential_matches_scipy_expm_slice_by_slice():
    # the bounds sit 11x and 7x above the largest gaps measured against
    # scipy: 4.5e-16 relative over 2,600 random slices with 1-norms from
    # 1e-12 to 1, and 1.5e-14 absolute on these 56 ion slices, whose
    # 1-norms run from 2e-3 to 8e2, so they are squared 0 to 8 times and
    # each must keep the bits of its lone call
    rng = np.random.default_rng(11)
    special = np.stack([np.zeros((4, 4)), np.diag([-3.0, 0.5, 1.0, 2.0]),
                        np.triu(np.ones((4, 4)), 1)])  # zero, diagonal, nilpotent
    norms = np.logspace(-12, 0, 13)
    random = rng.standard_normal((13, 4, 4))
    random *= (norms / np.abs(random).sum(axis=1).max(axis=1))[:, None, None]
    for stack in (special, random):
        for a, e in zip(stack, matrix_exponential(stack)):
            ref = scipy_expm(a)
            assert np.linalg.norm(e - ref, 1) <= 5e-15 * np.linalg.norm(ref, 1)
    corners = np.array(list(itertools.product((0.01, 10.0), repeat=3)))
    times = np.exp(np.arange(-3.0, 4.0))
    ion = (times[:, None, None, None] * _ion_generator(corners)).reshape(-1, 4, 4)
    for a, e in zip(ion, matrix_exponential(ion)):
        assert np.max(np.abs(e - scipy_expm(a))) <= 1e-13
        assert np.array_equal(e, matrix_exponential(a))


def test_matrix_exponential_inverse_identity():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        a = rng.standard_normal((n, n))
        a *= 10.0 / np.abs(a).sum(axis=0).max()
        e = matrix_exponential(a) @ matrix_exponential(-a)
        assert np.linalg.norm(e - np.eye(n)) < 1e-8


def test_matrix_exponential_rejects_large_orders():
    with pytest.raises(DimensionMismatch):
        matrix_exponential(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch):
        matrix_exponential(np.zeros((5, 2, 3)))
    with pytest.raises(DimensionMismatch):
        matrix_exponential(np.zeros(4))


def test_cholfactor_exposes_order():
    assert CholFactor(np.eye(5)).order == 5
