"""Ridge fits, prediction, GCV scoring, and smoothing-level selection."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from predcal import (
    ComputerModel,
    DEFAULT_LAMBDA_GRID,
    Dataset,
    DegenerateTrace,
    GramMatrix,
    KernelSpec,
    RngStream,
    calibrate_l2,
    fit_ridge,
    fit_ridge_gcv,
    gcv_score,
    gram,
    kernel_cross,
    predict_discrepancy,
    ridge_factor,
    select_lambda_gcv,
    solve_spd,
    uniform,
)
from predcal import regression
from predcal.calibrate import _weighted_misfit
from predcal.experiments import _stream, default_psi_grid
from predcal.regression import _gcv_level, _ridge_gcv_coef, _spectral_gcv, _spectrum
from predcal.systems import generate_dataset, get_system

SPEC1 = KernelSpec("matern32", 0.3, 1)


def _random_instance(seed, n, psi=0.3):
    s = RngStream(seed)
    x = uniform(s, 1, size=n)
    y = np.sin(3.0 * x[:, 0]) + 0.3 * s.generator.standard_normal(n)
    return Dataset(x, y)


def test_dataset_coercion_and_validation():
    d = Dataset([[0.1], [0.5], [0.9]], [1.0, 2.0, 3.0])
    assert d.x.shape == (3, 1) and d.x.dtype == float
    assert d.n == 3 and d.d == 1
    # a 1-d x is refused, not read as n points in one dimension
    with pytest.raises(ValueError, match=r"\(m, d\)"):
        Dataset(np.array([0.1, 0.5, 0.9]), np.array([1.0, 2.0, 3.0]))
    # coordinates outside [0, 1] are valid data; only L2 calibration refuses them
    off_cube = Dataset(np.array([[0.1], [1.5]]), np.array([1.0, 2.0]))
    assert off_cube.x[1, 0] == 1.5
    with pytest.raises(ValueError, match=r"in \[0, 1\]"):
        calibrate_l2(off_cube, get_system("ex1").model, SPEC1, stream=RngStream(1))
    with pytest.raises(ValueError):
        Dataset(np.array([[0.1], [0.5]]), np.array([1.0]))
    for x, y in [([0.1, np.nan], [1.0, 2.0]), ([0.1, 0.5], [1.0, np.inf]), ([0.1, 0.5], [-np.inf, 2.0])]:
        with pytest.raises(ValueError, match="finite"):
            Dataset(np.array(x).reshape(-1, 1), np.array(y))


def test_dataset_refuses_points_with_no_coordinate():
    # an (n, 0) design would pass until a KernelSpec of dimension 0 refused it
    with pytest.raises(ValueError, match="at least one coordinate"):
        Dataset(np.empty((5, 0)), np.zeros(5))


def test_fit_ridge_single_point_scalar_solve():
    # Sigma = [1] (no jitter), lambda = 1: c = y / (1 + 1)
    d = Dataset(np.array([[0.5]]), np.array([3.0]))
    gm = GramMatrix(kernel_cross(SPEC1, d.x, d.x), 0.0)
    coef = solve_spd(ridge_factor(gm, 1.0), d.y)
    assert coef[0] == pytest.approx(1.5, rel=1e-12)


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
    fit = fit_ridge(d, None, SPEC1, lam)
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
            fit = fit_ridge(d, None, SPEC1, lam)
            fitted = gm.values @ fit.coef
            obj = np.mean((d.y - fitted) ** 2) + lam * fit.coef @ gm.values @ fit.coef
            assert obj <= np.mean(d.y**2) + 1e-12


def test_monotone_shrinkage_in_lambda():
    d = _random_instance(7, 25)
    gm = gram(SPEC1, d.x)
    lams = np.logspace(-6, 2, 17)
    norms = []
    for lam in lams:
        fit = fit_ridge(d, None, SPEC1, lam)
        norms.append(float(fit.coef @ gm.values @ fit.coef))
    assert all(b <= a + 1e-10 for a, b in zip(norms, norms[1:]))


def test_predict_discrepancy_closed_cases():
    d = Dataset(np.array([[0.5]]), np.array([1.0]))
    fit = fit_ridge(d, None, SPEC1, 1.0)
    fit.coef = np.array([1.0])
    assert predict_discrepancy(fit, np.array([[0.5]])) == pytest.approx(1.0)
    fit.coef = np.array([0.0])
    assert predict_discrepancy(fit, np.array([[0.1]])) == 0.0


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
    pairs = (np.repeat(np.linspace(0.05, 0.95, 20), 2) + np.tile([0.0, 1e-4], 20))[:, None]
    noise = 0.3 * RngStream(5).generator.standard_normal(40)
    cases = [
        (_random_instance(11, 6), SPEC1, (1e-3, 0.1, 2.0)),
        (_random_instance(11, 200), KernelSpec("matern32", 1.0, 1), (1e-8, 1e-5, 1e-2)),
        (Dataset(pairs, np.sin(3.0 * pairs[:, 0]) + noise), SPEC1, (1e-8, 1e-5, 1e-2)),
    ]
    for d, spec, lams in cases:
        gm = gram(spec, d.x)
        for lam in lams:
            got = gcv_score(d, None, spec, lam)
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
        assert select_lambda_gcv(d, None, spec) == want


def test_ridge_paths_solve_exact_duplicate_points_without_jitter():
    # Sigma is singular (every design point appears twice, no jitter), but
    # Sigma + n*lambda I is positive definite for lambda > 0
    x = np.repeat(np.linspace(0.05, 0.95, 12), 2)[:, None]
    y = np.sin(3.0 * x[:, 0]) + 0.3 * RngStream(19).generator.standard_normal(24)
    d = Dataset(x, y)
    gm = GramMatrix(kernel_cross(SPEC1, d.x, d.x), 0.0)
    model = ComputerModel(eta=lambda p, th: th[:, :1] * p[:, 0], theta_box=[[-1.0, 1.0]])
    r = d.y - model.eval(d.x, [0.4])
    for lam in (1e-6, 1e-3, 1.0):
        m = gm.values + d.n * lam * np.eye(d.n)
        factor = ridge_factor(gm, lam)
        coef = solve_spd(factor, d.y)
        want = np.linalg.solve(m, d.y)
        assert np.all(np.isfinite(coef))
        assert np.linalg.norm(coef - want) <= 1e-8 * np.linalg.norm(want)
        got = _weighted_misfit(d, model, factor)(np.array([[0.4]]))[0]
        assert got == pytest.approx(r @ np.linalg.solve(m, r), rel=1e-8)
    scores = np.array([_dense_gcv(gm.values, d.y, lam) for lam in DEFAULT_LAMBDA_GRID])
    want = DEFAULT_LAMBDA_GRID[scores <= scores.min() * (1.0 + 1e-8)].max()
    # select_lambda_gcv's rule on the spectrum: the largest lambda at the minimum
    assert _gcv_level(*np.linalg.eigh(gm.values), d.y)[0] == want


def test_fit_ridge_gcv_is_select_then_fit_from_one_gram_matrix(monkeypatch):
    rng = np.random.default_rng(21)
    for dim in (1, 2):
        x = rng.random((30, dim))
        d = Dataset(x, np.sin(3.0 * x.sum(axis=1)) + 0.3 * rng.standard_normal(30))
        spec = KernelSpec("matern32", 0.3, dim)
        for eta in (None, 0.5 * np.cos(2.0 * x[:, 0])):
            lam, fit = fit_ridge_gcv(d, eta, spec)
            want_lam = select_lambda_gcv(d, eta, spec)
            want = fit_ridge(d, eta, spec, want_lam)
            assert lam == want_lam, (dim, eta is None)
            assert np.array_equal(fit.coef, want.coef), (dim, eta is None)
            assert fit.kernel == spec and np.array_equal(fit.train_x, d.x)
    builds = []

    def counted(spec, points):
        builds.append(spec)
        return gram(spec, points)

    monkeypatch.setattr(regression, "gram", counted)
    fit_ridge_gcv(d, None, spec)
    assert builds == [spec]


def test_eigen_ridge_fit_has_fit_ridge_gcvs_level_and_solves_at_it():
    # the cross-validation folds' fit: fit_ridge_gcv's lambda bit for bit, and
    # coefficients solving (Sigma + n*lambda I) c = r to a normwise backward
    # error of n * eps, since the eigendecomposition solve rounds differently;
    # the noiseless draws put lambda at the grid floor, and zero responses
    # tie every level, which goes to the largest
    eps = np.finfo(float).eps
    rng = np.random.default_rng(22)
    for dim in (1, 2):
        for n in (5, 17, 40):
            x = rng.random((n, dim))
            for noise in (None, 0.0, 0.01, 0.3):
                if noise is None:
                    d = Dataset(x, np.zeros(n))
                else:
                    d = Dataset(x, np.sin(3.0 * x.sum(axis=1)) + noise * rng.standard_normal(n))
                for psi in (0.05, 0.3, 1.0):
                    spec = KernelSpec("matern32", psi, dim)
                    sigma = gram(spec, x).values
                    lam, coef = _ridge_gcv_coef(sigma, d.y)
                    assert lam == fit_ridge_gcv(d, None, spec)[0], (dim, n, noise, psi)
                    m = sigma + n * lam * np.eye(n)
                    scale = np.linalg.norm(m, 2) * np.linalg.norm(coef) + np.linalg.norm(d.y)
                    assert np.linalg.norm(m @ coef - d.y) <= n * eps * scale, (dim, n, noise, psi)


@settings(max_examples=200, deadline=None)
@given(
    stack=st.integers(1, 6),
    m=st.integers(4, 60),
    d=st.sampled_from((1, 2)),
    psi_index=st.integers(0, len(default_psi_grid(1)) - 1),
    zero_rows=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_ridge_gcv_fit_rows_have_the_bits_of_their_single_calls(
    stack, m, d, psi_index, zero_rows, seed
):
    # one eigh over a stack of jittered Matern Gram matrices, as the psi-CV
    # folds of one size: each row's level and coefficients are its slice's
    # lone call's, bit for bit, and the level is select_lambda_gcv's; the first
    # zero_rows rows have zero residuals, which tie every level, and the tie
    # goes to the largest
    rng = np.random.default_rng(seed)
    spec = KernelSpec("matern32", default_psi_grid(d)[psi_index], d)
    xs = [rng.random((m, d)) for _ in range(stack)]
    sigma = np.stack([gram(spec, x).values for x in xs])
    r = rng.standard_normal((stack, m))
    r[:zero_rows] = 0.0
    lam, coef = _ridge_gcv_coef(sigma, r)
    assert lam.shape == (stack,) and coef.shape == (stack, m)
    for f in range(stack):
        lone_lam, lone_coef = _ridge_gcv_coef(sigma[f], r[f])
        assert lam[f] == lone_lam == select_lambda_gcv(Dataset(xs[f], r[f]), None, spec)
        assert np.array_equal(coef[f], lone_coef)
        if f < zero_rows:
            assert lam[f] == DEFAULT_LAMBDA_GRID[-1]


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


def test_select_lambda_tie_goes_to_larger():
    # zero residuals score 0 at every lambda; the largest grid value wins
    d = _random_instance(15, 10)
    lam = select_lambda_gcv(d, d.y, SPEC1)
    assert lam == DEFAULT_LAMBDA_GRID[-1]


def test_every_grid_score_is_finite_on_jittered_gram_matrices():
    # the jittered Gram matrix has eigenvalues in (0, n(1 + jitter)], so
    # tr(I - A) / n stays near 1e-8 or above at the grid floor, even for a
    # design of n coincident points (Sigma = 1 1^T + jitter I)
    rng = np.random.default_rng(16)
    for n in (2, 50, 400):
        y = rng.standard_normal(n)
        designs = (np.full((n, 1), 0.5), rng.random((n, 1)))
        for x in designs:
            for psi in (1e-3, 1e8):
                spec = KernelSpec("matern32", psi, 1)
                _, w, u = _spectrum(spec, x)
                score = _spectral_gcv(w, (u.T @ y) ** 2, DEFAULT_LAMBDA_GRID)
                assert score.shape == (60,) and np.all(np.isfinite(score)), (n, psi)


def test_positional_parameters_the_benchmark_tracer_reads():
    # bench/tracing.py reads a fourth positional argument of select_lambda_gcv
    # as a lambda grid, and a third of gram as a jitter
    expected = ((select_lambda_gcv, ["data", "eta_at_x", "kernel"]), (gram, ["spec", "points"]))
    for fn, names in expected:
        params = inspect.signature(fn).parameters.values()
        assert [p.name for p in params] == names
        assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params)


def test_non_finite_model_values_are_refused():
    d = _random_instance(16, 8)
    for bad in (np.nan, np.inf):
        eta = np.zeros(d.n)
        eta[3] = bad
        with pytest.raises(ValueError, match="finite"):
            select_lambda_gcv(d, eta, SPEC1)
        with pytest.raises(ValueError, match="finite"):
            gcv_score(d, eta, SPEC1, 0.1)
        with pytest.raises(ValueError, match="finite"):
            fit_ridge(d, eta, SPEC1, 0.1)
        with pytest.raises(ValueError, match="finite"):
            fit_ridge_gcv(d, eta, SPEC1)


def test_lambda_must_be_finite_and_positive():
    data = generate_dataset(get_system("ex1"), 20, 0.3, RngStream(1, 1))
    for lam in (0.0, -0.01, np.inf, np.nan):
        with pytest.raises(ValueError, match="finite and > 0"):
            gcv_score(data, None, SPEC1, lam)


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
