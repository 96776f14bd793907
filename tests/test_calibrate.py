"""Calibrators, the weighted objective, and the box-constrained optimizer."""

import numpy as np
import pytest

from predcal import (
    ComputerModel,
    Dataset,
    KernelSpec,
    ObjectiveNonFinite,
    RngStream,
    calibrate_l2,
    calibrate_ls,
    calibrate_optpred,
    fit_ridge,
    gram,
    lagrangian_value,
    minimize_box,
    predict_discrepancy,
    uniform,
    weighted_objective,
)
from predcal.kernels import GramMatrix
from predcal.systems import generate_dataset, get_system

SPEC1 = KernelSpec("matern32", 0.3, 1)


def test_minimize_box_quadratic():
    theta, value = minimize_box(
        lambda t: (t[0] - 0.3) ** 2, [[0.0, 1.0]], 5, RngStream(1)
    )
    assert abs(theta[0] - 0.3) < 1e-5
    assert value < 1e-9


def test_minimize_box_constant_objective():
    theta, value = minimize_box(lambda t: 7.25, [[0.0, 1.0], [2.0, 3.0]], 3, RngStream(2))
    assert value == 7.25
    assert 0.0 <= theta[0] <= 1.0 and 2.0 <= theta[1] <= 3.0


def test_minimize_box_rosenbrock():
    def rosen(t):
        return (1.0 - t[0]) ** 2 + 100.0 * (t[1] - t[0] ** 2) ** 2

    theta, value = minimize_box(rosen, [[-2.0, 2.0], [-2.0, 2.0]], 10, RngStream(3))
    assert value < 1e-6
    assert np.allclose(theta, [1.0, 1.0], atol=1e-2)


def test_minimize_box_stays_feasible_and_uses_extra_start():
    # objective minimized exactly at the extra start
    target = np.array([0.123456])
    theta, value = minimize_box(
        lambda t: np.sum((t - target) ** 2),
        [[0.0, 1.0]],
        1,
        RngStream(4),
        extra_points=[target],
    )
    assert value <= 1e-16
    assert abs(theta[0] - target[0]) < 1e-8


def test_minimize_box_rejects_nonfinite():
    with pytest.raises(ObjectiveNonFinite):
        minimize_box(lambda t: float("nan"), [[0.0, 1.0]], 2, RngStream(5))


def test_computer_model_validation():
    with pytest.raises(ValueError):
        ComputerModel(eta=lambda x, t: np.zeros(len(x)), theta_box=[[1.0, 1.0]])
    m = ComputerModel(eta=lambda x, t: x[:, 0] * t[0], theta_box=[[0.0, 1.0]])
    assert m.p == 1
    with pytest.raises(ValueError):
        # eta returning the wrong number of outputs
        bad = ComputerModel(eta=lambda x, t: np.zeros(3), theta_box=[[0.0, 1.0]])
        bad.eval(np.zeros((2, 1)), [0.5])
    # a theta of the wrong length is refused, not ignored or half read
    for name, theta in (("ex1", [0.3, 99.0]), ("ex2", [0.5]), ("ion", [1.0, 2.0])):
        system = get_system(name)
        with pytest.raises(ValueError, match=f"p={system.model.p}"):
            system.model.eval(np.full((2, system.d), 0.5), theta)


def test_calibrate_ls_constant_model_recovers_mean():
    s = RngStream(6)
    x = uniform(s, 1, size=30)
    y = 0.8 + 0.1 * s.generator.standard_normal(30)
    data = Dataset(x, y)
    model = ComputerModel(eta=lambda x, t: np.full(len(x), t[0]), theta_box=[[-2.0, 2.0]])
    res = calibrate_ls(data, model, stream=RngStream(6, 1))
    assert res.method == "LS"
    assert res.theta_hat[0] == pytest.approx(y.mean(), abs=1e-6)


def test_calibrate_ls_shift_equivariance_with_intercept_model():
    s = RngStream(7)
    x = uniform(s, 1, size=25)
    y = np.sin(2.0 * x[:, 0]) + 0.2 * s.generator.standard_normal(25)
    model = ComputerModel(eta=lambda x, t: np.full(len(x), t[0]), theta_box=[[-5.0, 5.0]])
    a = calibrate_ls(Dataset(x, y), model, stream=RngStream(7, 1))
    b = calibrate_ls(Dataset(x, y + 1.5), model, stream=RngStream(7, 1))
    assert b.theta_hat[0] - a.theta_hat[0] == pytest.approx(1.5, abs=1e-5)


def test_calibrate_ls_noiseless_recovery():
    sys1 = get_system("ex1")
    s = RngStream(8)
    x = uniform(s, 1, size=40)
    theta0 = np.array([0.42])
    y = sys1.model.eval(x, theta0)
    res = calibrate_ls(Dataset(x, y), sys1.model, stream=RngStream(8, 1))
    assert abs(res.theta_hat[0] - 0.42) < 1e-4
    assert res.theta_hat[0] >= -1.0 and res.theta_hat[0] <= 1.0


def test_calibrate_ls_ex1_limit():
    sys1 = get_system("ex1")
    data = generate_dataset(sys1, 200, np.sqrt(0.1), RngStream(9))
    res = calibrate_ls(data, sys1.model, stream=RngStream(9, 1))
    assert abs(res.theta_hat[0] - (-0.1780)) < 0.15


def test_calibrate_l2_recovers_scaling_of_own_fit():
    # model family that contains the nonparametric fit exactly at theta = 1
    sys1 = get_system("ex1")
    data = generate_dataset(sys1, 60, 0.2, RngStream(10))
    from predcal import select_lambda_gcv

    lam = select_lambda_gcv(data, None, SPEC1)
    zfit = fit_ridge(data, None, SPEC1, lam)
    model = ComputerModel(
        eta=lambda x, t: t[0] * predict_discrepancy(zfit, x), theta_box=[[0.0, 2.0]]
    )
    res = calibrate_l2(data, model, SPEC1, stream=RngStream(10, 1))
    assert res.method == "L2"
    assert abs(res.theta_hat[0] - 1.0) < 1e-4


def test_calibrate_l2_deterministic_under_same_stream():
    sys1 = get_system("ex1")
    data = generate_dataset(sys1, 40, 0.3, RngStream(11))
    a = calibrate_l2(data, sys1.model, SPEC1, stream=RngStream(11, 1))
    b = calibrate_l2(data, sys1.model, SPEC1, stream=RngStream(11, 1))
    assert np.array_equal(a.theta_hat, b.theta_hat)


def test_calibrate_l2_ex1_limit():
    sys1 = get_system("ex1")
    data = generate_dataset(sys1, 200, np.sqrt(0.1), RngStream(12))
    res = calibrate_l2(data, sys1.model, SPEC1, stream=RngStream(12, 1))
    assert abs(res.theta_hat[0] - (-0.1780)) < 0.15


def test_weighted_objective_zero_at_perfect_fit():
    sys1 = get_system("ex1")
    s = RngStream(13)
    x = uniform(s, 1, size=20)
    theta0 = np.array([0.2])
    data = Dataset(x, sys1.model.eval(x, theta0))
    assert weighted_objective(data, sys1.model, SPEC1, 0.01, theta0) == pytest.approx(0.0, abs=1e-20)


def test_weighted_objective_scalar_weight_when_kernel_vanishes():
    # zero kernel matrix (jitter only): the form collapses to ||r||^2 / (n lam + jitter)
    s = RngStream(14)
    x = uniform(s, 1, size=6)
    y = s.generator.standard_normal(6)
    data = Dataset(x, y)
    jitter = 1e-8
    gm = GramMatrix(values=jitter * np.eye(6), jitter=jitter)
    model = ComputerModel(eta=lambda x, t: np.zeros(len(x)), theta_box=[[0.0, 1.0]])
    lam = 0.3
    got = weighted_objective(data, model, SPEC1, lam, [0.5], gram_matrix=gm)
    want = float(y @ y) / (6 * lam + jitter)
    assert got == pytest.approx(want, rel=1e-12)


def test_weighted_objective_matches_profiled_lagrangian():
    sys1 = get_system("ex1")
    data = generate_dataset(sys1, 25, 0.4, RngStream(15))
    for lam in (1e-4, 0.03, 1.0):
        for tval in (-0.7, 0.1, 0.9):
            w = weighted_objective(data, sys1.model, SPEC1, lam, [tval])
            lag = lagrangian_value(data, sys1.model, SPEC1, lam, [tval])
            assert lam * w == pytest.approx(lag, rel=1e-9)


def test_calibrate_optpred_perfect_model():
    sys1 = get_system("ex1")
    s = RngStream(16)
    x = uniform(s, 1, size=30)
    theta0 = np.array([0.35])
    data = Dataset(x, sys1.model.eval(x, theta0))
    one = calibrate_optpred(data, sys1.model, SPEC1, mode="one_step", stream=RngStream(16, 1))
    assert one.method == "OptPred-OneStep"
    assert abs(one.theta_hat[0] - 0.35) < 1e-4
    assert np.linalg.norm(one.discrepancy.coef) < 1e-4
    full = calibrate_optpred(data, sys1.model, SPEC1, mode="full", stream=RngStream(16, 1))
    assert full.method == "OptPred-Full"
    assert abs(full.theta_hat[0] - one.theta_hat[0]) < 1e-6


def test_calibrate_optpred_trace_nonincreasing_full_mode():
    sys1 = get_system("ex1")
    data = generate_dataset(sys1, 50, 0.5, RngStream(17))
    res = calibrate_optpred(data, sys1.model, SPEC1, mode="full", stream=RngStream(17, 1))
    tr = res.objective_trace
    assert len(tr) >= 2
    for a, b in zip(tr, tr[1:]):
        assert b <= a + 1e-12 * max(1.0, abs(a))
    assert res.lambda_used > 0
    assert -1.0 <= res.theta_hat[0] <= 1.0


def test_calibrate_optpred_discrepancy_is_the_ridge_fit_at_its_theta():
    # the final fit reuses the objective's factor and must match a fresh fit
    sys1 = get_system("ex1")
    data = generate_dataset(sys1, 30, 0.4, RngStream(19))
    for mode in ("one_step", "full"):
        res = calibrate_optpred(data, sys1.model, SPEC1, mode=mode, starts=3,
                                stream=RngStream(19, 1))
        want = fit_ridge(data, sys1.model.eval(data.x, res.theta_hat), SPEC1, res.lambda_used)
        assert np.array_equal(res.discrepancy.coef, want.coef)
        assert res.discrepancy.lam == res.lambda_used


def test_calibrate_optpred_theta_step_never_worse_than_warm_start():
    # the incoming parameter is a search start, so the weighted objective
    # cannot increase across the parameter update
    sys1 = get_system("ex1")
    data = generate_dataset(sys1, 40, 0.7, RngStream(18))
    res = calibrate_optpred(data, sys1.model, SPEC1, mode="one_step", stream=RngStream(18, 1))
    w_ls = weighted_objective(
        data, sys1.model, SPEC1, res.lambda_used, res.diagnostics["theta_ls"]
    )
    w_new = weighted_objective(data, sys1.model, SPEC1, res.lambda_used, res.theta_hat)
    assert w_new <= w_ls + 1e-10 * max(1.0, w_ls)


def test_calibrators_require_a_stream():
    sys1 = get_system("ex1")
    data = generate_dataset(sys1, 12, 0.3, RngStream(20))
    calls = (
        lambda: calibrate_ls(data, sys1.model),
        lambda: calibrate_l2(data, sys1.model, SPEC1),
        lambda: calibrate_optpred(data, sys1.model, SPEC1),
    )
    for call in calls:
        with pytest.raises(TypeError, match="stream"):
            call()


def test_objectives_reject_nonpositive_lambda():
    sys1 = get_system("ex1")
    data = generate_dataset(sys1, 12, 0.3, RngStream(21))
    for objective in (weighted_objective, lagrangian_value):
        for lam in (0.0, -1e-3, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="lambda"):
                objective(data, sys1.model, SPEC1, lam, [0.2])


def test_calibration_results_stay_in_box():
    sys2 = get_system("ex2")
    data = generate_dataset(sys2, 30, 0.3, RngStream(19))
    spec2 = KernelSpec("matern32", 0.5, 2)
    for res in (
        calibrate_ls(data, sys2.model, stream=RngStream(19, 1)),
        calibrate_l2(data, sys2.model, spec2, stream=RngStream(19, 2)),
        calibrate_optpred(data, sys2.model, spec2, stream=RngStream(19, 3)),
    ):
        box = sys2.model.theta_box
        assert np.all(res.theta_hat >= box[:, 0]) and np.all(res.theta_hat <= box[:, 1])
