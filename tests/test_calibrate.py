"""Calibrators, the weighted objective, and the box-constrained optimizer."""

import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from predcal import (
    BayesHyper,
    ComputerModel,
    Dataset,
    KernelSpec,
    LinearComputerModel,
    ObjectiveNonFinite,
    RngStream,
    calibrate_l2,
    calibrate_ls,
    calibrate_optpred,
    fit_ridge,
    gram,
    kernel_cross,
    lagrangian_value,
    latin_hypercube,
    minimize_box,
    posterior_mean,
    predict_discrepancy,
    ridge_factor,
    solve_spd,
    uniform,
    verify_proposition_limit,
    weighted_objective,
)
from predcal import calibrate
from predcal.calibrate import L2_NODES, _row_mean_square, _weighted_misfit
from predcal.kernels import GramMatrix, _unit_cube_nodes
from predcal.systems import generate_dataset, get_system

SPEC1 = KernelSpec("matern32", 0.3, 1)


def test_minimize_box_quadratic():
    theta, value = minimize_box(
        lambda t: (t[:, 0] - 0.3) ** 2, [[0.0, 1.0]], 5, RngStream(1)
    )
    assert abs(theta[0] - 0.3) < 1e-5
    assert value < 1e-9


def test_minimize_box_constant_objective():
    theta, value = minimize_box(
        lambda t: np.full(len(t), 7.25), [[0.0, 1.0], [2.0, 3.0]], 3, RngStream(2)
    )
    assert value == 7.25
    assert 0.0 <= theta[0] <= 1.0 and 2.0 <= theta[1] <= 3.0


def test_minimize_box_rosenbrock():
    def rosen(t):
        return (1.0 - t[:, 0]) ** 2 + 100.0 * (t[:, 1] - t[:, 0] ** 2) ** 2

    theta, value = minimize_box(rosen, [[-2.0, 2.0], [-2.0, 2.0]], 10, RngStream(3))
    assert value < 1e-6
    assert np.allclose(theta, [1.0, 1.0], atol=1e-2)


def test_minimize_box_stays_feasible_and_uses_extra_start():
    # objective minimized exactly at the extra start
    target = np.array([0.123456])
    theta, value = minimize_box(
        lambda t: np.sum((t - target) ** 2, axis=1),
        [[0.0, 1.0]],
        1,
        RngStream(4),
        extra_points=[target],
    )
    assert value <= 1e-16
    assert abs(theta[0] - target[0]) < 1e-8


def test_minimize_box_rejects_nonfinite():
    with pytest.raises(ObjectiveNonFinite):
        minimize_box(lambda t: np.full(len(t), np.nan), [[0.0, 1.0]], 2, RngStream(5))


def test_minimize_box_refuses_extra_starts_outside_the_box():
    queried = []

    def objective(t):
        queried.append(t.copy())
        return np.sum(t * t, axis=1)

    box = [[0.0, 1.0], [0.0, 1.0]]
    for bad in ([5.0, -3.0], [0.5, 1.5], [0.5], [0.5, 0.5, 0.5], [0.5, np.nan], [np.inf, 0.5]):
        with pytest.raises(ValueError, match="extra start"):
            minimize_box(objective, box, 2, RngStream(22), extra_points=[[0.2, 0.2], bad])
    assert queried == []
    # a start on a face is a point of the box
    theta, value = minimize_box(objective, box, 1, RngStream(22), extra_points=[[0.0, 1.0]])
    assert value < 1e-12


@pytest.mark.parametrize(
    "box", [[[0.0, np.inf]], [[-1e308, 1e308]], [[-1e308, 7e307]], [[0.0, 3.5e307]] * 6]
)
def test_box_with_a_nonfinite_bound_or_width_is_refused(box):
    # these once warned from the fold's remainder or an overflow and then
    # raised ObjectiveNonFinite at an infinite theta; -1e308..1e308
    # overflows the width, -1e308..7e307 the fold's period of two widths,
    # six rows of 0..3.5e307 a centroid's sum of six vertices
    queried = []

    def objective(t):
        queried.append(t)
        return np.sum(t * t, axis=1)

    bound = "max(p, 4) * (|low| + high - low) finite"
    message = re.escape(f"box bounds must be finite and {bound}, got {box}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            minimize_box(objective, box, 2, RngStream(1))
        with pytest.raises(ValueError, match=message):
            ComputerModel(eta=lambda x, t: t[:, :1] * x[:, 0], theta_box=box)
    assert queried == []


@pytest.mark.parametrize("row, p", [([-1e307, 1e307], 4), ([0.0, 4.4e307], 4), ([0.0, 2.9e307], 6)])
@pytest.mark.parametrize("starts", [1, 4])
def test_a_wide_box_within_the_bound_is_searched_without_overflow(row, p, starts):
    # one start searched alone and four in one lockstep; the objective
    # drives every start toward the low faces, past which expansions reach
    # two widths
    box = [row] * p
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        theta, value = minimize_box(lambda t: t.sum(axis=1), box, starts, RngStream(1))
    assert np.all(theta >= row[0]) and np.all(theta <= row[1])
    # below the value at the box's centre
    assert value == theta.sum() and value < p / 2 * (row[0] + row[1])


@pytest.mark.parametrize("starts", [2.5, True, "3", 0, -1, None])
def test_starts_that_is_not_an_integer_of_at_least_one_is_refused(starts):
    # these once failed inside numpy or with a str < int TypeError
    message = re.escape(f"starts must be an integer >= 1, got {starts!r}")
    with pytest.raises(ValueError, match=message):
        minimize_box(lambda t: np.sum(t * t, axis=1), [[0.0, 1.0]], starts, RngStream(1))
    system = get_system("ex1")
    data = generate_dataset(system, 8, 0.1, RngStream(2))
    with pytest.raises(ValueError, match=message):
        calibrate_ls(data, system.model, starts=starts, stream=RngStream(3))
    with pytest.raises(ValueError, match=message):
        calibrate_l2(data, system.model, SPEC1, starts=starts, stream=RngStream(3))
    with pytest.raises(ValueError, match=message):
        calibrate_optpred(data, system.model, SPEC1, starts=starts, stream=RngStream(3))


def test_computer_model_validation():
    with pytest.raises(ValueError):
        ComputerModel(eta=lambda x, t: np.zeros(len(x)), theta_box=[[1.0, 1.0]])
    m = ComputerModel(eta=lambda x, th: x[:, 0] * th[:, :1], theta_box=[[0.0, 1.0]])
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


_ONE_AXIS = np.array([0.1, 0.2, 0.3])
_LINEAR = LinearComputerModel((lambda x: np.ones(len(x)), lambda x: x[:, 0]))


def _ex1_data():
    return generate_dataset(get_system("ex1"), 6, 0.1, RngStream(40))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Dataset(_ONE_AXIS, np.zeros(3)), r"\(m, d\)"),
        (lambda: get_system("ex1").model.eval(_ONE_AXIS, [0.2]), r"\(m, d\)"),
        (lambda: get_system("ex1").model.eval_batch(_ONE_AXIS, [[0.2]]), r"\(m, d\)"),
        (lambda: kernel_cross(SPEC1, _ONE_AXIS, [[0.5]]), r"\(m, 1\)"),
        (lambda: kernel_cross(SPEC1, [[0.5]], _ONE_AXIS), r"\(m, 1\)"),
        (lambda: gram(SPEC1, _ONE_AXIS), r"\(m, 1\)"),
        (lambda: predict_discrepancy(fit_ridge(_ex1_data(), None, SPEC1, 0.1), _ONE_AXIS),
         r"\(m, 1\)"),
        (lambda: _LINEAR.basis_matrix(_ONE_AXIS), r"\(m, d\)"),
        (lambda: posterior_mean(_ex1_data(), _LINEAR, SPEC1, BayesHyper(1.0, 1.0, 0.1), _ONE_AXIS),
         r"\(m, d\)"),
        (lambda: verify_proposition_limit(_ex1_data(), _LINEAR, SPEC1, [1.0], 1.0, 0.1, _ONE_AXIS),
         r"\(m, d\)"),
        (lambda: ComputerModel(eta=lambda x, th: th[:, :1] * x[:, 0], theta_box=[0.0, 1.0]),
         r"\(p, 2\)"),
        (lambda: minimize_box(lambda t: t[:, 0] ** 2, [0.0, 1.0], 2, RngStream(41)), r"\(p, 2\)"),
        (lambda: latin_hypercube(RngStream(41), 2, [0.0, 1.0]), r"\(p, 2\)"),
    ],
    ids=[
        "Dataset", "ComputerModel.eval", "ComputerModel.eval_batch", "kernel_cross-x",
        "kernel_cross-y", "gram", "predict_discrepancy", "basis_matrix", "posterior_mean",
        "verify_proposition_limit", "ComputerModel-box", "minimize_box", "latin_hypercube",
    ],
)
def test_one_axis_arrays_are_refused(call, message):
    # points are (m, d) arrays and boxes (p, 2) arrays; a 1-d array is
    # neither one point nor n points in one dimension, nor one box row
    with pytest.raises(ValueError, match=message):
        call()


def test_readme_model_calibrates():
    # the README's "Your own computer model" example, run as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Your own computer model", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {"np": np, "ComputerModel": ComputerModel}
    exec(code, scope)
    model = scope["model"]
    x = uniform(RngStream(5), 1, size=20)
    data = Dataset(x, model.eval(x, [1.2, 3.0]))
    res = calibrate_ls(data, model, starts=3, stream=RngStream(5, 1))
    assert np.max(np.abs(res.theta_hat - [1.2, 3.0])) < 1e-4


def test_calibrate_ls_constant_model_recovers_mean():
    s = RngStream(6)
    x = uniform(s, 1, size=30)
    y = 0.8 + 0.1 * s.generator.standard_normal(30)
    data = Dataset(x, y)
    model = ComputerModel(eta=lambda x, th: np.repeat(th, len(x), axis=1), theta_box=[[-2.0, 2.0]])
    res = calibrate_ls(data, model, stream=RngStream(6, 1))
    assert res.method == "LS"
    assert res.theta_hat[0] == pytest.approx(y.mean(), abs=1e-6)


def test_calibrate_ls_shift_equivariance_with_intercept_model():
    s = RngStream(7)
    x = uniform(s, 1, size=25)
    y = np.sin(2.0 * x[:, 0]) + 0.2 * s.generator.standard_normal(25)
    model = ComputerModel(eta=lambda x, th: np.repeat(th, len(x), axis=1), theta_box=[[-5.0, 5.0]])
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
        eta=lambda x, th: th[:, :1] * predict_discrepancy(zfit, x), theta_box=[[0.0, 2.0]]
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


def _refuse_gram(monkeypatch):
    """Make every lookup of ``kernels.gram`` raise, so a test can show none is built."""
    from predcal import bayes, experiments, kernels, regression

    def refused(*args, **kwargs):
        raise AssertionError("a Gram matrix was built")

    for module in (kernels, regression, calibrate, experiments, bayes):
        monkeypatch.setattr(module, "gram", refused)


def test_calibrate_l2_refuses_a_design_outside_the_unit_cube_before_any_smoothing(monkeypatch):
    # the GCV smoother (a Gram matrix and an n x n eigh) once ran before the refusal
    _refuse_gram(monkeypatch)
    model = get_system("ex1").model
    for x in ([[0.2], [1.5], [0.4]], [[-0.25], [0.5]]):
        off_cube = Dataset(x, np.zeros(len(x)))
        with pytest.raises(ValueError, match=r"needs design coordinates in \[0, 1\], got min"):
            calibrate_l2(off_cube, model, SPEC1, stream=RngStream(1))


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
    model = ComputerModel(eta=lambda x, th: np.zeros((len(th), len(x))), theta_box=[[0.0, 1.0]])
    lam = 0.3
    got = _weighted_misfit(data, model, ridge_factor(gm, lam))(np.array([[0.5]]))[0]
    want = float(y @ y) / (6 * lam + jitter)
    assert got == pytest.approx(want, rel=1e-12)


def test_objective_reductions_have_the_bits_of_the_row_loops():
    # the weighted misfit's stacked row dots are [r_i @ w_i], and the LS and
    # L2 objectives' row means np.mean(d * d, axis=1), bit for bit, for
    # k = 1..12 rows of m = 1, 10, 50 and 576 (the L2 nodes) entries
    rng = np.random.default_rng(31)
    model = ComputerModel(
        eta=lambda x, th: np.sin(7.0 * th[:, :1] * x[:, 0] + th[:, 1:]),
        theta_box=[[0.0, 1.0], [0.0, 1.0]],
    )
    for m in (1, 10, 50, 576):
        data = Dataset(rng.random((m, 1)), rng.standard_normal(m))
        factor = ridge_factor(gram(SPEC1, data.x), 0.01)
        misfit = _weighted_misfit(data, model, factor)
        for k in range(1, 13):
            d = rng.standard_normal((k, m)) * 10.0 ** rng.uniform(-3.0, 3.0, (k, 1))
            assert np.array_equal(_row_mean_square(d), np.mean(d * d, axis=1)), (m, k)
            thetas = rng.random((k, 2))
            r = data.y - model.eval_batch(data.x, thetas)
            w = solve_spd(factor, r.T).T
            want = np.array([ri @ wi for ri, wi in zip(r, w)])
            assert np.array_equal(misfit(thetas), want), (m, k)


def test_ls_and_l2_objectives_are_row_means_of_squares(monkeypatch):
    # the objectives that calibrate_ls and calibrate_l2 hand to the search
    objectives = []
    search = calibrate.minimize_box

    def recording(objective, *args, **kwargs):
        objectives.append(objective)
        return search(objective, *args, **kwargs)

    monkeypatch.setattr(calibrate, "minimize_box", recording)
    system = get_system("ex1")
    data = generate_dataset(system, 30, 0.3, RngStream(32))
    calibrate_ls(data, system.model, starts=2, stream=RngStream(32, 1))
    l2 = calibrate_l2(data, system.model, SPEC1, starts=2, stream=RngStream(32, 2))
    ls_objective, l2_objective = objectives
    nodes = _unit_cube_nodes(1, L2_NODES)
    zhat = predict_discrepancy(fit_ridge(data, None, SPEC1, l2.lambda_used), nodes)
    rng = np.random.default_rng(32)
    for k in range(1, 13):
        thetas = system.model.theta_box[:, 0] + rng.random((k, 1)) * np.ptp(system.model.theta_box, axis=1)
        r = data.y - system.model.eval_batch(data.x, thetas)
        assert np.array_equal(ls_objective(thetas), np.mean(r * r, axis=1)), k
        diff = zhat - system.model.eval_batch(nodes, thetas)
        assert np.array_equal(l2_objective(thetas), np.mean(diff * diff, axis=1)), k


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
    res = calibrate_optpred(data, sys1.model, SPEC1, stream=RngStream(16, 1))
    assert res.method == "OptPred-OneStep"
    assert abs(res.theta_hat[0] - 0.35) < 1e-4
    assert np.linalg.norm(res.discrepancy.coef) < 1e-4


def test_calibrate_optpred_trace_nonincreasing():
    # warm start, then the search
    sys1 = get_system("ex1")
    data = generate_dataset(sys1, 50, 0.5, RngStream(17))
    res = calibrate_optpred(data, sys1.model, SPEC1, stream=RngStream(17, 1))
    tr = res.objective_trace
    assert len(tr) == 2
    for a, b in zip(tr, tr[1:]):
        assert b <= a + 1e-12 * max(1.0, abs(a))
    assert res.lambda_used > 0
    assert -1.0 <= res.theta_hat[0] <= 1.0


def test_calibrate_optpred_discrepancy_is_the_ridge_fit_at_its_theta():
    # the final fit reuses the objective's factor and must match a fresh fit
    sys1 = get_system("ex1")
    data = generate_dataset(sys1, 30, 0.4, RngStream(19))
    res = calibrate_optpred(data, sys1.model, SPEC1, starts=3, stream=RngStream(19, 1))
    want = fit_ridge(data, sys1.model.eval(data.x, res.theta_hat), SPEC1, res.lambda_used)
    assert np.array_equal(res.discrepancy.coef, want.coef)


def test_calibrate_optpred_theta_step_never_worse_than_warm_start():
    # the incoming parameter is a search start, so the weighted objective
    # cannot increase across the parameter update
    sys1 = get_system("ex1")
    data = generate_dataset(sys1, 40, 0.7, RngStream(18))
    res = calibrate_optpred(data, sys1.model, SPEC1, stream=RngStream(18, 1))
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
