"""Tests of the benchmark's reference computations.

    python3 -m pytest bench -q
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import oracles  # noqa: E402
from predcal import DEFAULT_JITTER, DEFAULT_LAMBDA_GRID, Dataset, KernelSpec, select_lambda_gcv  # noqa: E402


@pytest.mark.parametrize("psi", [0.05, 0.16, 0.3, 1.0])
def test_closed_form_norm_equals_quadratic_form_on_interpolant(psi):
    rng = np.random.default_rng(17)
    for m in (1, 3, 8):
        x = np.sort(rng.random(m))
        c = rng.standard_normal(m)
        k = oracles.matern32(x[:, None], x[:, None], psi)
        assert oracles.interpolant_norm_sq(x, c, psi) == pytest.approx(c @ k @ c, rel=1e-12)


def test_ex1_closed_form_bounds_the_grid_surrogate():
    closed = oracles.ex1_rkhs_norm_sq(np.array([-0.126, 0.374]), 0.16)
    assert closed == pytest.approx([1.40892, 2.14859], abs=1e-5)
    # the 200-node surrogate of predcal's profile at the same points
    assert np.all(np.array([1.40468, 2.14667]) < closed)


def test_eigen_gcv_equals_dense_inverse_gcv():
    rng = np.random.default_rng(5)
    for n in (10, 40, 120):
        x = rng.random((n, 1))
        r = np.sin(5 * x[:, 0]) + 0.2 * rng.standard_normal(n)
        gram = oracles.matern32(x, x, 0.3) + DEFAULT_JITTER * np.eye(n)
        grid = DEFAULT_LAMBDA_GRID[DEFAULT_LAMBDA_GRID >= 1e-6]
        fast = oracles.gcv_curve(gram, r, grid)
        dense = np.array([oracles.gcv_dense(gram, r, lam) for lam in grid])
        np.testing.assert_allclose(fast, dense, rtol=1e-8)


def test_eigen_gcv_scores_the_programs_pick_as_its_minimum():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(25, 401))
        psi = float(rng.choice([0.05, 0.1, 0.2, 0.3, 0.5, 1.0]))
        x = rng.random((n, 1))
        y = np.exp(np.pi * x[:, 0] / 5) * np.sin(2 * np.pi * x[:, 0]) + 0.3 * rng.standard_normal(n)
        lam = select_lambda_gcv(Dataset(x, y), None, KernelSpec("matern32", psi, 1))
        gram = oracles.matern32(x, x, psi) + DEFAULT_JITTER * np.eye(n)
        _, scores = oracles.gcv_argmin(gram, y, DEFAULT_LAMBDA_GRID)
        got = oracles.gcv_curve(gram, y, [lam])[0]
        assert got <= np.min(scores) * (1 + 1e-8), (n, psi, lam)


def test_stable_flat_prior_posterior_converges_monotonically():
    rng = np.random.default_rng(3)
    n = 400
    x = rng.random(n)
    y = 0.5 - x + 0.4 * x * x + 0.5 * np.sin(2 * np.pi * x) + 0.5 * rng.standard_normal(n)
    lam = 0.25 / n
    t = np.linspace(0.0, 1.0, 50)

    def predict(theta, coef):
        return oracles.quadratic_basis(t) @ theta + oracles.matern32(t[:, None], x[:, None], 0.3) @ coef

    limit = predict(*oracles.flat_prior_limit(x[:, None], y, 0.3, lam, DEFAULT_JITTER))
    devs = [
        np.max(np.abs(predict(*oracles.flat_prior_posterior(x[:, None], y, 0.3, lam, DEFAULT_JITTER, a))
                      - limit))
        for a in (1e4, 1e6, 1e8)
    ]
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 1e-8


def test_ion_response_matches_an_eigendecomposition():
    theta = np.array([2.5, 1.2, 0.8])
    a = oracles.ion_generator(theta)
    w, v = np.linalg.eig(a)
    x = np.linspace(0.0, 1.0, 11)
    ref = [((v * np.exp(np.exp(xi) * w)) @ np.linalg.inv(v))[0, 3].real for xi in x]
    np.testing.assert_allclose(oracles.ion_response(x, theta), ref, rtol=1e-10, atol=1e-14)
