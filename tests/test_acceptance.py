"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line; the
replicated-experiment criteria take a few minutes in total.  Criteria that
the pipeline does not reproduce fail here on purpose; the analysis lives
in the project notes, not in loosened tolerances.
"""

import time

import numpy as np
import pytest

from predcal import (
    BayesHyper,
    Dataset,
    ExperimentConfig,
    KernelSpec,
    LinearComputerModel,
    RngStream,
    fit_ridge,
    gcv_score,
    get_system,
    gram,
    kernel_cross,
    lagrangian_value,
    matrix_exponential,
    normal,
    partial_spline_limit,
    posterior_mean,
    run_experiment,
    uniform,
    verify_proposition_limit,
    weighted_objective,
)
from predcal.cli import cli_main
from predcal.regression import DEFAULT_LAMBDA_GRID

REFERENCE_PMSE_EX1 = {"OptCal": 0.0922, "LSCal": 0.1152, "NP": 0.1701, "NoBiasCorr": 0.3492}
REFERENCE_OPTCAL_EX2 = 0.0691


def _line(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status} ({detail})")


@pytest.fixture(scope="module")
def crit1_report():
    cfg = ExperimentConfig(system="ex1", n=50, sigma2=(0.1,), replicates=100)
    t0 = time.perf_counter()
    report = run_experiment(cfg, threads=1)
    report.elapsed = time.perf_counter() - t0
    return report


@pytest.fixture(scope="module")
def crit2_report():
    cfg = ExperimentConfig(system="ex2", n=50, sigma2=(0.05,), replicates=100)
    report = run_experiment(cfg, threads=1)
    return report


def test_criterion_1_ex1_ordering_and_magnitude(crit1_report):
    means = {m: crit1_report.mean(m, 0.1) for m in REFERENCE_PMSE_EX1}
    order_ok = (
        means["OptCal"] < means["LSCal"] < means["NP"] < means["NoBiasCorr"]
    )
    ratios = {m: means[m] / REFERENCE_PMSE_EX1[m] for m in REFERENCE_PMSE_EX1}
    magnitude_ok = all(abs(r - 1.0) <= 0.4 for r in ratios.values())
    runtime_ok = crit1_report.elapsed <= 600.0
    detail = (
        "ordering "
        + ("ok" if order_ok else "violated")
        + "; means "
        + " ".join(f"{m}={means[m]:.4f}[x{ratios[m]:.2f}]" for m in REFERENCE_PMSE_EX1)
        + f"; {crit1_report.elapsed:.0f}s"
    )
    _line(1, "ex1-ordering-and-magnitude", order_ok and magnitude_ok and runtime_ok, detail)
    assert order_ok and runtime_ok
    assert magnitude_ok


def test_criterion_2_ex2_ordering_and_optcal_magnitude(crit2_report):
    means = {m: crit2_report.mean(m, 0.05) for m in ("OptCal", "LSCal", "NP")}
    order_ok = means["OptCal"] < means["LSCal"] < means["NP"]
    ratio = means["OptCal"] / REFERENCE_OPTCAL_EX2
    magnitude_ok = abs(ratio - 1.0) <= 0.4
    detail = (
        "ordering " + ("ok" if order_ok else "violated")
        + "; " + " ".join(f"{m}={v:.4f}" for m, v in means.items())
        + f"; OptCal x{ratio:.2f} of reference"
    )
    _line(2, "ex2-ordering-and-optcal-magnitude", order_ok and magnitude_ok, detail)
    assert order_ok
    assert magnitude_ok


def _profile_minima(path):
    lines = path.read_text().strip().split("\n")
    arr = np.asarray([ln.split(",") for ln in lines[1:]], dtype=float)
    theta, vals = arr[:, 0], arr[:, 1]
    glob = theta[np.argmin(vals)]
    local = [
        (theta[i], vals[i])
        for i in range(1, len(vals) - 1)
        if vals[i] < vals[i - 1] and vals[i] < vals[i + 1]
    ]
    return glob, local


def test_criterion_3_profile_minimizers(tmp_path):
    t0 = time.perf_counter()
    rkhs_csv = tmp_path / "rkhs.csv"
    assert cli_main(["profile", "--model", "ex1", "--norm", "rkhs", "--out", str(rkhs_csv)]) == 0
    glob, local = _profile_minima(rkhs_csv)
    rkhs_global_ok = abs(glob - 0.3740) <= 0.03
    window = [t for t, _ in local if -0.4 <= t <= 0.0]
    rkhs_local_ok = bool(window) and min(abs(t + 0.1230) for t in window) <= 0.03

    l2_csv = tmp_path / "l2.csv"
    assert cli_main(["profile", "--model", "ex1", "--norm", "l2", "--out", str(l2_csv)]) == 0
    lines = l2_csv.read_text().strip().split("\n")
    arr = np.asarray([ln.split(",") for ln in lines[1:]], dtype=float)
    l2_argmin = arr[np.argmin(arr[:, 1]), 0]
    l2_ok = abs(l2_argmin - (-0.1780)) <= 0.02

    elapsed = time.perf_counter() - t0
    detail = (
        f"rkhs global argmin {glob:+.4f} (target +0.3740), "
        f"local minima at {[round(float(t), 4) for t, _ in local]}, "
        f"l2 argmin {l2_argmin:+.4f} (target -0.1780); {elapsed:.0f}s"
    )
    ok = rkhs_global_ok and rkhs_local_ok and l2_ok and elapsed <= 120.0
    _line(3, "profile-minimizers", ok, detail)
    assert rkhs_local_ok and l2_ok and elapsed <= 120.0
    assert rkhs_global_ok


def test_criterion_4_posterior_limit_convergence():
    stream = RngStream(901)
    x = uniform(stream, 1, size=20)
    basis = (
        lambda pts: np.ones(pts.shape[0]),
        lambda pts: pts[:, 0],
        lambda pts: pts[:, 0] ** 2,
    )
    model = LinearComputerModel(basis=basis)
    coefs = normal(stream, 1.0, size=3)
    sigma2, beta = 0.25, 1.0
    y = (
        model.basis_matrix(x) @ coefs
        + 0.5 * np.sin(2.0 * np.pi * x[:, 0])
        + normal(stream, np.sqrt(sigma2), size=20)
    )
    data = Dataset(x=x, y=y)
    alphas = (1.0, 1e2, 1e4, 1e6, 1e8)
    devs = verify_proposition_limit(
        data, model, KernelSpec("matern32", 0.3, 1), alphas, beta, sigma2,
        uniform(RngStream(901, 1), 1, size=50),
    )
    nonincreasing = bool(np.all(np.diff(devs) <= 1e-14))
    rel = devs[-1] / (data.y.max() - data.y.min())
    ok = nonincreasing and rel <= 1e-5
    _line(4, "posterior-limit-convergence", ok,
          f"deviations {[f'{d:.2e}' for d in devs]}, final relative {rel:.2e}")
    assert ok


def test_criterion_5_profile_identity():
    sys1 = get_system("ex1")
    stream = RngStream(902)
    worst = 0.0
    for _ in range(200):
        n = 5 + int(stream.generator.integers(46))
        x = uniform(stream, 1, size=n)
        y = sys1.zeta(x) + normal(stream, 0.5, size=n)
        data = Dataset(x, y)
        theta = np.asarray([stream.generator.uniform(-1.0, 1.0)])
        lam = float(DEFAULT_LAMBDA_GRID[stream.generator.integers(DEFAULT_LAMBDA_GRID.size)])
        kernel = KernelSpec("matern32", 0.3, 1)
        w = lam * weighted_objective(data, sys1.model, kernel, lam, theta)
        lag = lagrangian_value(data, sys1.model, kernel, lam, theta)
        worst = max(worst, abs(w - lag) / max(abs(lag), 1e-300))
    ok = worst <= 1e-9
    _line(5, "profile-identity-200-instances", ok, f"worst relative gap {worst:.2e}")
    assert ok


def test_criterion_6_alternating_descent():
    violations = 0
    total = 0
    for system, s2 in (("ex1", 0.1), ("ex2", 0.05)):
        cfg = ExperimentConfig(
            system=system, n=50, sigma2=(s2,), replicates=100,
            mc_test_points=1000, methods=("OptCal",),
        )
        report = run_experiment(cfg)
        for trace in report.traces.values():
            total += 1
            for a, b in zip(trace, trace[1:]):
                if b > a + 1e-12 * max(1.0, abs(a)):
                    violations += 1
                    break
    ok = violations == 0 and total == 200
    _line(6, "alternating-descent-traces", ok, f"{violations} violations in {total} traces")
    assert ok


def test_criterion_7_oracle_equivalences():
    stream = RngStream(903)
    kernel = KernelSpec("matern32", 0.3, 1)
    x = uniform(stream, 1, size=12)
    y = normal(stream, 1.0, size=12)
    data = Dataset(x, y)
    gaps = {}

    # ridge coefficients against the finite-basis normal equations
    lam = 0.02
    s = gram(kernel, data.x).values
    fit = fit_ridge(data, None, kernel, lam)
    c_oracle = np.linalg.solve(s.T @ s / 12 + lam * s, s.T @ y / 12)
    gaps["ridge"] = (float(np.max(np.abs(fit.coef - c_oracle))), 1e-9)

    # posterior mean against direct joint-Gaussian conditioning
    basis = (lambda pts: np.ones(pts.shape[0]), lambda pts: pts[:, 0])
    model = LinearComputerModel(basis)
    hyper = BayesHyper(alpha=1.3, beta=0.8, sigma2=0.3)
    pts = uniform(RngStream(903, 1), 1, size=7)
    t = model.basis_matrix(data.x)
    c_yy = hyper.alpha * (t @ t.T) + hyper.beta * s + hyper.sigma2 * np.eye(12)
    c_sy = hyper.alpha * (model.basis_matrix(pts) @ t.T) + hyper.beta * kernel_cross(
        kernel, pts, data.x
    )
    post_oracle = c_sy @ np.linalg.solve(c_yy, y)
    post = posterior_mean(data, model, kernel, hyper, pts)
    gaps["posterior"] = (float(np.max(np.abs(post - post_oracle))), 1e-8)

    # partial spline against the joint quadratic block system
    m_lam = 0.05
    top = np.hstack([t.T @ t, t.T @ s])
    bot = np.hstack([s @ t, s @ s + 12 * m_lam * s])
    sol = np.linalg.solve(np.vstack([top, bot]), np.concatenate([t.T @ y, s @ y]))
    theta, psl_fit = partial_spline_limit(data, model, kernel, m_lam)
    gaps["partial-spline"] = (
        float(max(np.max(np.abs(theta - sol[:2])), np.max(np.abs(psl_fit.coef - sol[2:])))),
        1e-8,
    )

    # GCV against an explicit dense-inverse influence matrix
    a_mat = s @ np.linalg.inv(s + 12 * lam * np.eye(12))
    resid = (np.eye(12) - a_mat) @ y
    gcv_oracle = (resid @ resid / 12) / (np.trace(np.eye(12) - a_mat) / 12) ** 2
    gaps["gcv"] = (
        float(abs(gcv_score(data, None, kernel, lam) - gcv_oracle) / gcv_oracle),
        1e-8,
    )

    # matrix exponential against a plain Taylor sum on a small-norm matrix
    a = stream.generator.standard_normal((5, 5))
    a *= 0.5 / np.linalg.norm(a, 1)
    term = np.eye(5)
    total = np.eye(5)
    for k in range(1, 60):
        term = term @ a / k
        total = total + term
    gaps["expm"] = (float(np.max(np.abs(matrix_exponential(a) - total))), 1e-10)

    ok = all(gap <= tol for gap, tol in gaps.values())
    detail = ", ".join(f"{k} {v[0]:.2e}<=?{v[1]:.0e}" for k, v in gaps.items())
    _line(7, "oracle-equivalences", ok, detail)
    assert ok


def test_criterion_8_np_rate_slope():
    t0 = time.perf_counter()
    sizes = (25, 50, 100, 200, 400)
    means = []
    for n in sizes:
        cfg = ExperimentConfig(
            system="ex1", n=n, sigma2=(0.25,), replicates=50,
            mc_test_points=20_000, methods=("NP",), psi=0.3,
        )
        report = run_experiment(cfg, threads=1)
        means.append(report.mean("NP", 0.25))
    slope = float(np.polyfit(np.log(sizes), np.log(means), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = -1.1 <= slope <= -0.45 and elapsed <= 300.0
    detail = (
        f"slope {slope:+.4f} (band [-1.10, -0.45]); mean PMSE "
        + " ".join(f"n{n}={m:.4f}" for n, m in zip(sizes, means))
        + f"; {elapsed:.0f}s"
    )
    _line(8, "np-rate-slope", ok, detail)
    assert elapsed <= 300.0
    assert -1.1 <= slope <= -0.45


def test_criterion_9_thread_determinism(crit1_report):
    cfg = ExperimentConfig(system="ex1", n=50, sigma2=(0.1,), replicates=100)
    report8 = run_experiment(cfg, threads=8)
    same = report8.to_csv().encode() == crit1_report.to_csv().encode()
    _line(9, "thread-determinism", same, "threads 1 vs 8 CSVs byte-identical"
          if same else "threads 1 vs 8 CSVs differ")
    assert same
