"""The benchmark's workloads: inputs, the timed operation, and output checks.

Each workload builds round ``r`` of its inputs from ``(seed, r)``, runs
them through predcal's public API in ``run``, and checks the outputs in
``check_round`` (every round) and ``check_run`` (once per run, for the
checks that cost as much as a round).  ``references`` computes the
checks' reference values; it is not part of set-up, since it runs none
of the program.  A check returns a list of
problems; an empty list means the outputs are correct.
"""

from __future__ import annotations

import math

import numpy as np

import oracles
import predcal
from predcal import (
    DEFAULT_LAMBDA_GRID,
    DEFAULT_SEED,
    Dataset,
    ExperimentConfig,
    KernelSpec,
    LinearComputerModel,
    RngStream,
    calibrate_optpred,
    cv5_select_psi,
    default_psi_grid,
    generate_dataset,
    get_system,
    ion_eta,
    normal,
    partial_spline_limit,
    predict_discrepancy,
    rkhs_norm_sq_approx,
    run_experiment,
    select_lambda_gcv,
    uniform,
    verify_proposition_limit,
)

# Stream ids at and above this value are the checks' own draws, so they
# never coincide with a round's inputs.
_CHECK_STREAM = 1 << 40
# Ties and rounding between two exact GCV evaluations of the same grid point.
GCV_RTOL = 1e-8
# Monte Carlo allowance, in standard deviations, for a PMSE against its
# quadrature value.
MC_SIGMAS = 5.0


def _config_seed(seed, r):
    return (int(seed) << 20) | r


def _pmse_problems(report, where):
    problems = []
    for (method, s2), vals in report.per_replicate.items():
        if not np.all(np.isfinite(vals)) or np.any(vals <= 0):
            problems.append(f"{where}: {method} at sigma2={s2} has PMSE {vals}")
    return problems


def _gcv_problems(data, kernel, where):
    """The program's NP GCV pick scores the oracle's minimum within GCV_RTOL."""
    lam = select_lambda_gcv(data, None, kernel)
    gram = oracles.matern32(data.x, data.x, kernel.psi) + predcal.DEFAULT_JITTER * np.eye(data.n)
    best_lam, scores = oracles.gcv_argmin(gram, data.y, DEFAULT_LAMBDA_GRID)
    got = oracles.gcv_curve(gram, data.y, [lam])[0]
    best = float(np.min(scores))
    if not got <= best * (1.0 + GCV_RTOL):
        return [f"{where}: GCV pick {lam:.3e} scores {got:.10g}, oracle {best_lam:.3e} scores {best:.10g}"]
    return []


class Ex1Pmse:
    """Paper experiment 1: all four predictors, psi by five-fold CV, 100k MC points."""

    name = "ex1-pmse"
    op = "replicate"

    def __init__(self, seed):
        self.seed = seed

    def references(self):
        _, self.l2_min, sd = oracles.ex1_min_l2_gap()
        self.mc_allowance = MC_SIGMAS * sd / math.sqrt(100_000)

    def inputs(self, r):
        return ExperimentConfig(
            system="ex1", n=50, sigma2=(0.1,), replicates=1, seed=_config_seed(self.seed, r)
        )

    def warmup(self):
        run_experiment(
            ExperimentConfig(system="ex1", n=10, sigma2=(0.1,), replicates=1,
                             mc_test_points=1000, starts=1, seed=0)
        )

    def run(self, config):
        return run_experiment(config)

    def ops(self, config):
        return config.replicates

    def check_round(self, config, report):
        problems = _pmse_problems(report, self.name)
        nobias = report.per_replicate[("NoBiasCorr", 0.1)]
        floor = self.l2_min - self.mc_allowance
        if np.any(nobias < floor):
            problems.append(f"NoBiasCorr PMSE {nobias} below the L2 gap floor {floor:.6f}")
        return 0, problems

    def check_run(self, config, report):
        system = get_system("ex1")
        problems = []
        for i, n in enumerate((50, 25, 200)):
            stream = RngStream(self.seed, _CHECK_STREAM + i)
            data = generate_dataset(system, n, math.sqrt(0.1), stream)
            if n == 50:
                psi = cv5_select_psi(data, "matern32", default_psi_grid(1), None, stream)
            else:
                psi = 0.3
            problems += _gcv_problems(data, KernelSpec("matern32", psi, 1), f"NP GCV n={n}")
        return problems


class LargeN:
    """Dense kernel algebra at n = 100-400: NP sweep, RKHS profile, flat-prior limit."""

    name = "large-n"
    op = "NP replicate, profile theta or flat-prior check"
    SWEEP = (100, 200, 400)
    PROFILE_PSI = 0.16
    PROFILE_GRID = 200
    REFINE_THETAS = (-0.126, 0.374)
    ALPHAS = (1.0, 1e2, 1e4, 1e6, 1e8)
    FLAT_N = 400
    # verify_proposition_limit promises a nonincreasing sequence; allow
    # the same rounding slack as the package's own acceptance check.
    MONOTONE_SLACK = 1e-14
    NORM_RTOL = 1e-9

    def __init__(self, seed):
        self.seed = seed
        self.thetas = np.arange(-1.0, 1.0 + 0.5e-3, 1e-3)
        self.flat = self._flat_prior_inputs()

    def references(self):
        self.closed_form = oracles.ex1_rkhs_norm_sq(self.thetas, self.PROFILE_PSI)

    @staticmethod
    def _flat_prior_inputs():
        # the inputs of `predcal proposition --n 400` at its defaults; they
        # do not depend on the workload seed
        n = LargeN.FLAT_N
        stream = RngStream(DEFAULT_SEED, 0)
        x = uniform(stream, 1, size=n)
        model = LinearComputerModel(basis=(
            lambda p: np.ones(p.shape[0]), lambda p: p[:, 0], lambda p: p[:, 0] ** 2,
        ))
        coefs = normal(stream, 1.0, size=3)
        y = (model.basis_matrix(x) @ coefs + 0.5 * np.sin(2.0 * np.pi * x[:, 0])
             + normal(stream, math.sqrt(0.25), size=n))
        return {
            "data": Dataset(x=x, y=y),
            "model": model,
            "kernel": KernelSpec("matern32", 0.3, 1),
            "beta": 1.0,
            "sigma2": 0.25,
            "test_points": uniform(stream, 1, size=50),
        }

    def inputs(self, r):
        return [
            ExperimentConfig(system="ex1", n=n, sigma2=(0.25,), replicates=1,
                             mc_test_points=20_000, methods=("NP",), psi=0.3,
                             seed=_config_seed(self.seed, r))
            for n in self.SWEEP
        ]

    def warmup(self):
        self._profile(self.thetas[:3])
        run_experiment(ExperimentConfig(system="ex1", n=10, sigma2=(0.25,), replicates=1,
                                        mc_test_points=1000, methods=("NP",), psi=0.3))

    def _profile(self, thetas, grid=PROFILE_GRID):
        system = get_system("ex1")
        spec = KernelSpec("matern32", self.PROFILE_PSI, 1)
        return np.array([
            rkhs_norm_sq_approx(
                spec, lambda p, t=t: system.zeta(p) - system.model.eval(p, [t]), grid
            )
            for t in thetas
        ])

    def run(self, configs):
        sweep = [run_experiment(c) for c in configs]
        profile = self._profile(self.thetas)
        f = self.flat
        devs = verify_proposition_limit(
            f["data"], f["model"], f["kernel"], self.ALPHAS, f["beta"], f["sigma2"],
            f["test_points"],
        )
        return sweep, profile, devs

    def ops(self, configs):
        return len(configs) + self.thetas.size + 1

    def check_round(self, configs, out):
        sweep, profile, devs = out
        problems = []
        for rep in sweep:
            problems += _pmse_problems(rep, f"{self.name} n={rep.config.n}")
        over = profile > self.closed_form * (1.0 + self.NORM_RTOL)
        if np.any(over):
            i = int(np.argmax(profile - self.closed_form))
            problems.append(
                f"surrogate norm {profile[i]:.10g} above closed form "
                f"{self.closed_form[i]:.10g} at theta={self.thetas[i]:+.3f}"
            )
        failed = int(np.any(np.diff(devs) > self.MONOTONE_SLACK))
        return failed, problems

    def check_run(self, configs, out):
        problems = []
        coarse = self._profile(self.REFINE_THETAS)
        fine = self._profile(self.REFINE_THETAS, grid=2 * self.PROFILE_GRID - 1)
        for t, c, fv in zip(self.REFINE_THETAS, coarse, fine):
            if fv < c * (1.0 - self.NORM_RTOL):
                problems.append(f"surrogate norm fell from {c:.10g} to {fv:.10g} on refinement at {t}")
        f = self.flat
        data = f["data"]
        lam = f["sigma2"] / (data.n * f["beta"])
        theta, fit = partial_spline_limit(data, f["model"], f["kernel"], lam)
        pts = f["test_points"]
        got = f["model"].basis_matrix(pts) @ theta + predict_discrepancy(fit, pts)
        ref_theta, ref_coef = oracles.flat_prior_limit(
            data.x, data.y, f["kernel"].psi, lam, predcal.DEFAULT_JITTER
        )
        ref = oracles.quadratic_basis(pts) @ ref_theta + oracles.matern32(pts, data.x, f["kernel"].psi) @ ref_coef
        gap = float(np.max(np.abs(got - ref)))
        if gap > 1e-9 * float(np.ptp(data.y)):
            problems.append(f"partial spline limit differs from the p x p solve by {gap:.3e}")
        return problems


class IonCalibrate:
    """One-step OptPred calibration of the 3-rate channel model, with its LS warm start."""

    name = "ion-calibrate"
    op = "calibration"
    TRUE_THETA = np.array([2.5, 1.2, 0.8])
    N = 10
    SIGMA = 0.02
    STARTS = 1
    PSI = 0.3
    # The rates are not identified by n=10 log times in [0, 1]: over 400
    # datasets (seeds 100-119, rounds 0-19) the LS rates lay more than 4
    # from the generating rates 12 times, up to 8.18, each time fitting
    # the data at least as well as the generating rates.  So the LS warm
    # start is held to its own criterion instead: its misfit against that
    # at the generating rates, with room for a Nelder-Mead stop short of
    # the minimum (the largest ratio over those datasets was 0.995), and
    # its fitted response to three noise levels of the truth (largest
    # seen 0.020 rms).  OptPred trades model fit for discrepancy fit, so
    # it is held to neither.  Small datasets make a calibration short,
    # so a run averages over many of them.
    LS_MISFIT_RTOL = 1e-2
    RESPONSE_TOL = 3.0 * SIGMA
    EXPM_TOL = 1e-10
    OBJ_RTOL = 1e-9

    def __init__(self, seed):
        self.seed = seed
        self.model = get_system("ion").model
        self.kernel = KernelSpec("matern32", self.PSI, 1)

    def references(self):
        pass

    def _dataset(self, stream, n):
        x = uniform(stream, 1, size=n)
        y = oracles.ion_response(x, self.TRUE_THETA) + normal(stream, self.SIGMA, size=n)
        return Dataset(x=x, y=y)

    def inputs(self, r):
        return self._dataset(RngStream(self.seed, 3 * r), self.N), r

    def warmup(self):
        # fixed data, so that the warm-up's search length does not vary with the seed
        small = self._dataset(RngStream(0, 0), 5)
        calibrate_optpred(small, self.model, self.kernel, starts=1, stream=RngStream(0, 1))

    def run(self, inp):
        data, r = inp
        return calibrate_optpred(data, self.model, self.kernel, starts=self.STARTS,
                                 stream=RngStream(self.seed, 3 * r + 1))

    def ops(self, inp):
        return 1

    def check_round(self, inp, opt):
        data, _ = inp
        problems = []
        truth = oracles.ion_response(data.x, self.TRUE_THETA)
        ls = opt.diagnostics["theta_ls"]
        for theta in (ls, opt.theta_hat):
            expm_gap = float(np.max(np.abs(ion_eta(data.x[:, 0], theta)
                                           - oracles.ion_response(data.x, theta))))
            if expm_gap > self.EXPM_TOL:
                problems.append(f"ion_eta differs from scipy expm by {expm_gap:.3e}")
        ls_misfit, true_misfit = (float(np.mean((data.y - oracles.ion_response(data.x, t)) ** 2))
                                  for t in (ls, self.TRUE_THETA))
        if ls_misfit > true_misfit * (1.0 + self.LS_MISFIT_RTOL):
            problems.append(f"LS rates {ls} misfit {ls_misfit:.6g}, generating rates {true_misfit:.6g}")
        fit_gap = float(np.sqrt(np.mean((oracles.ion_response(data.x, ls) - truth) ** 2)))
        if fit_gap > self.RESPONSE_TOL:
            problems.append(f"LS response off the truth by {fit_gap:.4f} rms")

        def misfit(theta):
            eta = oracles.ion_response(data.x, theta)
            return oracles.weighted_misfit(data.x, data.y, eta, self.PSI, opt.lambda_used,
                                           predcal.DEFAULT_JITTER)

        at_opt, at_ls = misfit(opt.theta_hat), misfit(ls)
        if at_opt > at_ls * (1.0 + self.OBJ_RTOL):
            problems.append(f"OptPred objective {at_opt:.10g} above its LS start {at_ls:.10g}")
        return 0, problems

    def check_run(self, inp, out):
        return []


WORKLOADS = {w.name: w for w in (Ex1Pmse, LargeN, IonCalibrate)}
