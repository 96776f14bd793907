"""Ridge fits, prediction, GCV scoring, and smoothing-level selection."""

import numpy as np
import pytest

from predcal import (
    AllDegenerate,
    ComputerModel,
    DEFAULT_LAMBDA_GRID,
    Dataset,
    DegenerateTrace,
    KernelSpec,
    RngStream,
    fit_ridge,
    gcv_score,
    gram,
    predict_discrepancy,
    select_lambda_gcv,
    uniform,
    weighted_objective,
)
from predcal.experiments import _stream
from predcal.systems import generate_dataset, get_system

SPEC1 = KernelSpec("matern32", 0.3, 1)


def _random_instance(seed, n, psi=0.3):
    s = RngStream(seed)
    x = uniform(s, 1, size=n)
    y = np.sin(3.0 * x[:, 0]) + 0.3 * s.generator.standard_normal(n)
    return Dataset(x, y)


def test_dataset_coercion_and_validation():
    d = Dataset(np.array([0.1, 0.5, 0.9]), np.array([1.0, 2.0, 3.0]))
    assert d.x.shape == (3, 1)
    assert d.n == 3 and d.d == 1
    with pytest.raises(ValueError):
        Dataset(np.array([0.1, 1.5]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        Dataset(np.array([0.1, 0.5]), np.array([1.0]))
    for x, y in [([0.1, np.nan], [1.0, 2.0]), ([0.1, 0.5], [1.0, np.inf]), ([0.1, 0.5], [-np.inf, 2.0])]:
        with pytest.raises(ValueError, match="finite"):
            Dataset(np.array(x), np.array(y))


def test_fit_ridge_single_point_scalar_solve():
    # Sigma = [1] (no jitter), lambda = 1: c = y / (1 + 1)
    d = Dataset(np.array([0.5]), np.array([3.0]))
    gm = gram(SPEC1, d.x, jitter=0.0)
    fit = fit_ridge(d, None, SPEC1, 1.0, gram_matrix=gm)
    assert fit.coef[0] == pytest.approx(1.5, rel=1e-12)


def test_fit_ridge_total_shrinkage_at_huge_lambda():
    d = _random_instance(1, 20)
    fit = fit_ridge(d, None, SPEC1, 1e9)
    assert np.linalg.norm(fit.coef) <= 1e-6 * np.linalg.norm(d.y)


def test_fit_ridge_matches_normal_equations_oracle():
    # minimize (1/n)||r - S c||^2 + lam c' S c over the span directly:
    # (S'S/n + lam S) c = S' r / n
    d = _random_instance(2, 5)
    lam = 0.05
    gm = gram(SPEC1, d.x)
    s = gm.values
    fit = fit_ridge(d, None, SPEC1, lam, gram_matrix=gm)
    lhs = s @ s / d.n + lam * s
    rhs = s @ d.y / d.n
    oracle = np.linalg.solve(lhs, rhs)
    assert np.allclose(fit.coef, oracle, atol=1e-9)


def test_fit_ridge_subtracts_model_values():
    d = _random_instance(3, 12)
    eta = 0.7 * np.ones(12)
    fit = fit_ridge(d, eta, SPEC1, 0.1)
    shifted = fit_ridge(Dataset(d.x, d.y - 0.7), None, SPEC1, 0.1)
    assert np.allclose(fit.coef, shifted.coef, rtol=1e-12, atol=1e-14)


def test_fit_objective_never_beats_zero_function():
    # the fitted objective is at most that of h = 0, i.e. (1/n)||r||^2
    for seed in (4, 5, 6):
        d = _random_instance(seed, 15)
        gm = gram(SPEC1, d.x)
        for lam in (1e-4, 0.1, 10.0):
            fit = fit_ridge(d, None, SPEC1, lam, gram_matrix=gm)
            fitted = gm.values @ fit.coef
            obj = np.mean((d.y - fitted) ** 2) + lam * fit.coef @ gm.values @ fit.coef
            assert obj <= np.mean(d.y**2) + 1e-12


def test_monotone_shrinkage_in_lambda():
    d = _random_instance(7, 25)
    gm = gram(SPEC1, d.x)
    lams = np.logspace(-6, 2, 17)
    norms = []
    for lam in lams:
        fit = fit_ridge(d, None, SPEC1, lam, gram_matrix=gm)
        norms.append(float(fit.coef @ gm.values @ fit.coef))
    assert all(b <= a + 1e-10 for a, b in zip(norms, norms[1:]))


def test_predict_discrepancy_closed_cases():
    d = Dataset(np.array([0.5]), np.array([1.0]))
    fit = fit_ridge(d, None, SPEC1, 1.0)
    fit.coef = np.array([1.0])
    assert predict_discrepancy(fit, np.array([0.5])) == pytest.approx(1.0)
    fit.coef = np.array([0.0])
    assert predict_discrepancy(fit, np.array([0.1])) == 0.0


def test_predict_discrepancy_training_matrix_oracle():
    d = _random_instance(8, 10)
    fit = fit_ridge(d, None, SPEC1, 0.02)
    got = predict_discrepancy(fit, d.x)
    # raw kernel matrix (no jitter) times coefficients
    from predcal import kernel_cross

    want = kernel_cross(SPEC1, d.x, d.x) @ fit.coef
    assert np.allclose(got, want, atol=1e-10)


def test_gcv_heavy_smoothing_limit():
    d = _random_instance(9, 18)
    score = gcv_score(d, None, SPEC1, 1e12)
    assert score == pytest.approx(np.mean(d.y**2), rel=1e-6)


def test_gcv_zero_residual_is_zero():
    d = _random_instance(10, 12)
    assert gcv_score(d, d.y, SPEC1, 0.5) == 0.0


def _dense_gcv(s, y, lam):
    # A = S (S + n lam I)^{-1} from an explicit inverse
    n = y.shape[0]
    inv = np.linalg.inv(s + n * lam * np.eye(n))
    resid = y - s @ (inv @ y)
    tr_resid = n - np.sum(s * inv.T)
    return (np.sum(resid**2) / n) / (tr_resid / n) ** 2


def test_gcv_matches_dense_inverse_oracle():
    # one well-conditioned case, then two where Sigma + n*lambda I reaches
    # cond ~1e8 at the grid floor: psi = 1 at n = 200, and 20 pairs of
    # design points 1e-4 apart
    pairs = np.repeat(np.linspace(0.05, 0.95, 20), 2) + np.tile([0.0, 1e-4], 20)
    noise = 0.3 * RngStream(5).generator.standard_normal(40)
    cases = [
        (_random_instance(11, 6), SPEC1, (1e-3, 0.1, 2.0)),
        (_random_instance(11, 200), KernelSpec("matern32", 1.0, 1), (1e-8, 1e-5, 1e-2)),
        (Dataset(pairs, np.sin(3.0 * pairs) + noise), SPEC1, (1e-8, 1e-5, 1e-2)),
    ]
    for d, spec, lams in cases:
        gm = gram(spec, d.x)
        for lam in lams:
            got = gcv_score(d, None, spec, lam, gram_matrix=gm)
            assert got == pytest.approx(_dense_gcv(gm.values, d.y, lam), rel=1e-8)


def test_select_lambda_is_largest_dense_inverse_near_minimizer():
    # the pick is the largest grid lambda whose dense-inverse GCV score is
    # within 1e-8 relative of the grid minimum
    rng = np.random.default_rng(18)
    for n in (10, 25, 60, 150, 400):
        psi = float(rng.uniform(0.05, 1.0))
        d = _random_instance(int(rng.integers(1 << 30)), n)
        spec = KernelSpec("matern32", psi, 1)
        gm = gram(spec, d.x)
        scores = np.array([_dense_gcv(gm.values, d.y, lam) for lam in DEFAULT_LAMBDA_GRID])
        want = DEFAULT_LAMBDA_GRID[scores <= scores.min() * (1.0 + 1e-8)].max()
        assert select_lambda_gcv(d, None, spec, gram_matrix=gm) == want


def test_ridge_paths_solve_exact_duplicate_points_without_jitter():
    # Sigma is singular (every design point appears twice, no jitter), but
    # Sigma + n*lambda I is positive definite for lambda > 0
    x = np.repeat(np.linspace(0.05, 0.95, 12), 2)
    y = np.sin(3.0 * x) + 0.3 * RngStream(19).generator.standard_normal(24)
    d = Dataset(x, y)
    gm = gram(SPEC1, d.x, jitter=0.0)
    assert gm.jitter == 0.0
    model = ComputerModel(eta=lambda p, t: t[0] * p[:, 0], theta_box=[[-1.0, 1.0]])
    r = d.y - model.eval(d.x, [0.4])
    for lam in (1e-6, 1e-3, 1.0):
        m = gm.values + d.n * lam * np.eye(d.n)
        coef = fit_ridge(d, None, SPEC1, lam, gram_matrix=gm).coef
        want = np.linalg.solve(m, d.y)
        assert np.all(np.isfinite(coef))
        assert np.linalg.norm(coef - want) <= 1e-8 * np.linalg.norm(want)
        got = weighted_objective(d, model, SPEC1, lam, [0.4], gram_matrix=gm)
        assert got == pytest.approx(r @ np.linalg.solve(m, r), rel=1e-8)
    scores = np.array([_dense_gcv(gm.values, d.y, lam) for lam in DEFAULT_LAMBDA_GRID])
    want = DEFAULT_LAMBDA_GRID[scores <= scores.min() * (1.0 + 1e-8)].max()
    assert select_lambda_gcv(d, None, SPEC1, gram_matrix=gm) == want


def test_gcv_degenerate_trace_raises():
    d = _random_instance(12, 8)
    with pytest.raises(DegenerateTrace):
        gcv_score(d, None, SPEC1, 1e-25)


def test_gcv_invariant_to_data_reordering():
    d = _random_instance(13, 14)
    perm = RngStream(13, 1).generator.permutation(d.n)
    dp = Dataset(d.x[perm], d.y[perm])
    a = gcv_score(d, None, SPEC1, 0.05)
    b = gcv_score(dp, None, SPEC1, 0.05)
    assert a == pytest.approx(b, rel=1e-10)


def test_select_lambda_single_point_grid():
    d = _random_instance(14, 10)
    assert select_lambda_gcv(d, None, SPEC1, grid=[0.37]) == 0.37


def test_select_lambda_tie_goes_to_larger():
    # zero residuals score 0 at every lambda; the largest grid value wins
    d = _random_instance(15, 10)
    lam = select_lambda_gcv(d, d.y, SPEC1, grid=[1e-3, 1e-2, 1e-1])
    assert lam == 1e-1


def test_select_lambda_all_degenerate():
    d = _random_instance(16, 8)
    with pytest.raises(AllDegenerate):
        select_lambda_gcv(d, None, SPEC1, grid=[1e-30, 1e-28])


def test_select_lambda_interior_on_smooth_instance():
    sys1 = get_system("ex1")
    data = generate_dataset(sys1, 50, 0.5, _stream(20240101, 0, 0, 0))
    lam = select_lambda_gcv(data, None, SPEC1)
    assert DEFAULT_LAMBDA_GRID[0] < lam < DEFAULT_LAMBDA_GRID[-1]


def test_profile_identity_on_random_instances():
    # lambda * r' (Sigma + n lam I)^{-1} r equals the minimized Lagrangian
    # (1/n)||r - Sigma c||^2 + lam c' Sigma c at c = (Sigma + n lam I)^{-1} r
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(5, 30))
        d = Dataset(rng.random((n, 1)), rng.standard_normal(n))
        lam = float(rng.choice(DEFAULT_LAMBDA_GRID))
        gm = gram(SPEC1, d.x)
        m = gm.values + n * lam * np.eye(n)
        w = np.linalg.solve(m, d.y)
        lhs = lam * float(d.y @ w)
        fitted = gm.values @ w
        rhs = np.mean((d.y - fitted) ** 2) + lam * float(w @ gm.values @ w)
        assert lhs == pytest.approx(rhs, rel=1e-9)
