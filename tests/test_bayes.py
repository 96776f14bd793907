"""Posterior mean, partial-spline limit, and the convergence check."""

import numpy as np
import pytest

from predcal import (
    DEFAULT_SEED,
    BayesHyper,
    ComputerModel,
    Dataset,
    KernelSpec,
    LinearComputerModel,
    RankDeficientBasis,
    RngStream,
    calibrate_optpred,
    fit_ridge,
    gram,
    kernel_cross,
    normal,
    partial_spline_limit,
    posterior_mean,
    predict_discrepancy,
    ridge_factor,
    uniform,
    verify_proposition_limit,
)
from predcal import bayes

SPEC1 = KernelSpec("matern32", 0.3, 1)
BASIS1 = (lambda x: np.ones(len(x)), lambda x: x[:, 0])


def _instance(seed, n, noise=0.3):
    s = RngStream(seed)
    x = uniform(s, 1, size=n)
    y = 0.7 - 0.4 * x[:, 0] + np.sin(3.0 * x[:, 0]) + noise * s.generator.standard_normal(n)
    return Dataset(x, y)


def test_posterior_mean_zero_data():
    data = Dataset(_instance(20, 8).x, np.zeros(8))
    model = LinearComputerModel(BASIS1)
    hyper = BayesHyper(alpha=2.0, beta=1.5, sigma2=0.4)
    pts = np.linspace(0.0, 1.0, 7).reshape(-1, 1)
    assert np.all(posterior_mean(data, model, SPEC1, hyper, pts) == 0.0)


def test_posterior_mean_matches_gaussian_conditioning_oracle():
    # joint Gaussian: zeta = T theta + delta, theta ~ N(0, alpha I),
    # delta ~ GP(0, beta K), Y = zeta(X) + N(0, sigma2 I); condition directly
    data = _instance(21, 8)
    model = LinearComputerModel(BASIS1)
    hyper = BayesHyper(alpha=1.7, beta=0.9, sigma2=0.25)
    pts = np.linspace(0.05, 0.95, 6).reshape(-1, 1)

    t = model.basis_matrix(data.x)
    kxx = gram(SPEC1, data.x).values  # jittered, as the implementation uses
    ksx = kernel_cross(SPEC1, pts, data.x)
    h = model.basis_matrix(pts)
    c_yy = hyper.alpha * (t @ t.T) + hyper.beta * kxx + hyper.sigma2 * np.eye(8)
    c_sy = hyper.alpha * (h @ t.T) + hyper.beta * ksx
    want = c_sy @ np.linalg.solve(c_yy, data.y)

    got = posterior_mean(data, model, SPEC1, hyper, pts)
    assert np.allclose(got, want, atol=1e-8)


def test_posterior_mean_reduces_to_ridge_fit_at_tiny_alpha():
    data = _instance(22, 15)
    model = LinearComputerModel(BASIS1)
    beta, sigma2 = 2.0, 0.5
    hyper = BayesHyper(alpha=1e-12, beta=beta, sigma2=sigma2)
    lam = sigma2 / (data.n * beta)
    fit = fit_ridge(data, None, SPEC1, lam)
    pts = np.linspace(0.0, 1.0, 9).reshape(-1, 1)
    got = posterior_mean(data, model, SPEC1, hyper, pts)
    assert np.allclose(got, predict_discrepancy(fit, pts), atol=1e-9)


def test_posterior_mean_linear_in_y():
    base = _instance(23, 10)
    model = LinearComputerModel(BASIS1)
    hyper = BayesHyper(alpha=3.0, beta=1.0, sigma2=0.3)
    pts = np.linspace(0.1, 0.9, 5).reshape(-1, 1)
    s = RngStream(24)
    y1 = s.generator.standard_normal(10)
    y2 = s.generator.standard_normal(10)
    p1 = posterior_mean(Dataset(base.x, y1), model, SPEC1, hyper, pts)
    p2 = posterior_mean(Dataset(base.x, y2), model, SPEC1, hyper, pts)
    p12 = posterior_mean(Dataset(base.x, 2.0 * y1 - 0.5 * y2), model, SPEC1, hyper, pts)
    assert np.allclose(p12, 2.0 * p1 - 0.5 * p2, atol=1e-10)


def test_bayes_hyper_validation():
    with pytest.raises(ValueError):
        BayesHyper(alpha=0.0, beta=1.0, sigma2=1.0)
    with pytest.raises(ValueError):
        BayesHyper(alpha=1.0, beta=-1.0, sigma2=1.0)
    with pytest.raises(ValueError):
        BayesHyper(alpha=1.0, beta=1.0, sigma2=0.0)
    with pytest.raises(ValueError, match="beta must be finite"):
        BayesHyper(alpha=1.0, beta=np.inf, sigma2=0.25)
    with pytest.raises(ValueError, match="sigma2 must be finite"):
        BayesHyper(alpha=1.0, beta=1.0, sigma2=np.inf)
    assert BayesHyper(1.0, 2.0, 0.5).induced_lambda(10) == pytest.approx(0.025)


def test_partial_spline_heavy_penalty_is_plain_least_squares():
    data = _instance(26, 12)
    model = LinearComputerModel((lambda x: np.ones(len(x)),))
    theta, fit = partial_spline_limit(data, model, SPEC1, 1e9)
    assert theta[0] == pytest.approx(data.y.mean(), abs=1e-6)
    assert np.linalg.norm(fit.coef) < 1e-9


def test_partial_spline_exact_on_basis_span():
    x = uniform(RngStream(27), 1, size=14)
    theta0 = np.array([0.3, -1.2])
    t_cols = np.column_stack([np.ones(14), x[:, 0]])
    data = Dataset(x, t_cols @ theta0)
    theta, fit = partial_spline_limit(data, LinearComputerModel(BASIS1), SPEC1, 0.05)
    assert np.allclose(theta, theta0, atol=1e-8)
    assert np.linalg.norm(fit.coef) < 1e-8


def test_partial_spline_matches_block_kkt_oracle():
    # stationarity of (1/n)||Y - T theta - S c||^2 + lam c' S c gives the
    # block system [[T'T, T'S], [S T, S S + n lam S]] [theta; c] = [T'Y; S Y]
    data = _instance(28, 11)
    model = LinearComputerModel(BASIS1)
    lam = 0.02
    t = model.basis_matrix(data.x)
    s = gram(SPEC1, data.x).values
    n = data.n
    top = np.hstack([t.T @ t, t.T @ s])
    bot = np.hstack([s @ t, s @ s + n * lam * s])
    rhs = np.concatenate([t.T @ data.y, s @ data.y])
    sol = np.linalg.solve(np.vstack([top, bot]), rhs)
    theta, fit = partial_spline_limit(data, model, SPEC1, lam)
    assert np.allclose(theta, sol[:2], atol=1e-8)
    assert np.allclose(fit.coef, sol[2:], atol=1e-8)


def test_partial_spline_stationarity_residuals():
    data = _instance(29, 16)
    model = LinearComputerModel(BASIS1)
    lam = 0.01
    theta, fit = partial_spline_limit(data, model, SPEC1, lam)
    t = model.basis_matrix(data.x)
    m = gram(SPEC1, data.x).values + data.n * lam * np.eye(data.n)
    resid = data.y - t @ theta
    assert np.linalg.norm(t.T @ np.linalg.solve(m, resid)) < 1e-8
    assert np.linalg.norm(m @ fit.coef - resid) < 1e-8


def test_partial_spline_rejects_duplicate_basis():
    data = _instance(30, 10)
    model = LinearComputerModel((lambda x: x[:, 0], lambda x: x[:, 0]))
    with pytest.raises(RankDeficientBasis):
        partial_spline_limit(data, model, SPEC1, 0.1)


def test_partial_spline_rejects_nonpositive_lambda():
    data = _instance(31, 8)
    with pytest.raises(ValueError):
        partial_spline_limit(data, LinearComputerModel(BASIS1), SPEC1, 0.0)


def test_optpred_agrees_with_partial_spline_on_linear_model():
    # for a model linear in theta the weighted objective is convex, so the
    # search must land on the closed-form stationary point
    data = _instance(32, 30, noise=0.4)
    cmodel = ComputerModel(
        eta=lambda x, th: th[:, :1] + th[:, 1:] * x[:, 0], theta_box=[[-5.0, 5.0], [-5.0, 5.0]]
    )
    res = calibrate_optpred(data, cmodel, SPEC1, stream=RngStream(32, 1))
    theta, fit = partial_spline_limit(
        data, LinearComputerModel(BASIS1), SPEC1, res.lambda_used
    )
    assert np.allclose(res.theta_hat, theta, atol=1e-4)
    pts = np.linspace(0.0, 1.0, 21).reshape(-1, 1)
    assert np.allclose(
        predict_discrepancy(res.discrepancy, pts),
        predict_discrepancy(fit, pts),
        atol=1e-4,
    )


def test_verify_limit_zero_data():
    data = Dataset(_instance(33, 9).x, np.zeros(9))
    devs = verify_proposition_limit(
        data, LinearComputerModel(BASIS1), SPEC1, [1.0, 100.0], 1.0, 0.5,
        np.linspace(0, 1, 5).reshape(-1, 1),
    )
    assert np.all(devs == 0.0)


def _proposition_inputs(n):
    # the inputs `predcal proposition --n N` builds at its defaults
    stream = RngStream(DEFAULT_SEED, 0)
    x = uniform(stream, 1, size=n)
    model = LinearComputerModel(
        (lambda p: np.ones(p.shape[0]), lambda p: p[:, 0], lambda p: p[:, 0] ** 2)
    )
    y = (
        model.basis_matrix(x) @ normal(stream, 1.0, size=3)
        + 0.5 * np.sin(2.0 * np.pi * x[:, 0])
        + normal(stream, 0.5, size=n)
    )
    return Dataset(x, y), model, uniform(stream, 1, size=50)


def test_verify_limit_nonincreasing_and_small_at_large_alpha():
    small = (_instance(34, 20), LinearComputerModel(BASIS1), uniform(RngStream(34, 2), 1, size=50))
    # at n=400 an n x n factor of (alpha/beta) T T^T + Sigma + n*lambda I
    # loses digits as alpha grows and breaks the monotone sequence
    for data, model, pts in (small, _proposition_inputs(400)):
        devs = verify_proposition_limit(
            data, model, SPEC1, [1.0, 1e2, 1e4, 1e6, 1e8], 1.0, 0.25, pts
        )
        assert np.all(np.diff(devs) <= 1e-14)
        yrange = data.y.max() - data.y.min()
        assert devs[-1] <= 1e-5 * yrange


def test_verify_limit_rejects_bad_alpha_grid():
    data = _instance(35, 8)
    pts = np.array([[0.5]])
    with pytest.raises(ValueError):
        verify_proposition_limit(data, LinearComputerModel(BASIS1), SPEC1, [], 1.0, 0.5, pts)
    with pytest.raises(ValueError):
        verify_proposition_limit(
            data, LinearComputerModel(BASIS1), SPEC1, [1e4, 1e2], 1.0, 0.5, pts
        )
    # a NaN passes the increasing-order test, so it is refused on its own,
    # before any solve
    for bad in ([1.0, np.nan], [0.0, 1.0], [1.0, np.inf]):
        with pytest.raises(ValueError, match="alpha grid values must be finite and > 0"):
            verify_proposition_limit(data, LinearComputerModel(BASIS1), SPEC1, bad, 1.0, 0.5, pts)


def test_verify_limit_refuses_bad_beta_or_sigma2_before_factoring(monkeypatch):
    # beta = 0 once divided by zero, beta = sigma2 = -1 once factored and
    # solved the limit first, and an infinite value once blamed lambda
    calls = []

    def counted(*args):
        calls.append(args)
        return ridge_factor(*args)

    monkeypatch.setattr(bayes, "ridge_factor", counted)
    data = _instance(36, 10)
    pts = np.array([[0.5]])
    cases = [(0.0, 0.25, "beta"), (-1.0, -0.25, "beta"), (np.inf, 0.25, "beta"),
             (1.0, np.inf, "sigma2")]
    for beta, sigma2, name in cases:
        with pytest.raises(ValueError, match=f"^{name} must be finite and > 0$"):
            verify_proposition_limit(
                data, LinearComputerModel(BASIS1), SPEC1, [1.0, 1e2], beta, sigma2, pts
            )
    assert calls == []


def test_linear_model_validation():
    with pytest.raises(ValueError):
        LinearComputerModel(())
    model = LinearComputerModel((lambda x: np.zeros(3),))
    with pytest.raises(ValueError):
        model.basis_matrix(np.zeros((2, 1)))
