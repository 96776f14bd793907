"""Calibration of computer-model parameters against field data.

Three estimators are provided:

* ``calibrate_ls`` -- plain least squares on the data, ignoring any model
  discrepancy.
* ``calibrate_l2`` -- minimizes the L2 distance between the computer model
  and a nonparametric fit of the physical response (Monte Carlo over the
  input distribution).
* ``calibrate_optpred`` -- prediction-weighted calibration: after a least
  squares warm start fixes the smoothing level by GCV, the parameter is
  driven by the objective (Y - eta(theta))^T (Sigma + n*lambda I)^{-1}
  (Y - eta(theta)), which is the residual profile of the joint penalized
  problem over parameter and discrepancy.  One-step mode stops after a
  single search; full mode, with the smoothing level still frozen, re-runs
  the search on the same objective from the incumbent until the gain falls
  below 1e-8 relative.  Either way the discrepancy is fit once, at the
  final parameter.

All searches use a multi-start Nelder-Mead restricted to the parameter
box; candidate points that leave the box are reflected back through the
violated face.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .kernels import KernelSpec, gram
from .linalg import solve_spd
from .regression import (
    DiscrepancyFit,
    fit_ridge,
    predict_discrepancy,
    ridge_factor,
    select_lambda_gcv,
)
from .rng import latin_hypercube, uniform

__all__ = [
    "ObjectiveNonFinite",
    "ComputerModel",
    "CalibrationResult",
    "minimize_box",
    "calibrate_ls",
    "calibrate_l2",
    "weighted_objective",
    "lagrangian_value",
    "calibrate_optpred",
]

DEFAULT_STARTS = 10
SIMPLEX_TOL = 1e-8
MAX_NM_ITER = 500
# Monte Carlo points of the L2 distance, drawn once per calibration
L2_MC_POINTS = 4096
# most searches one full-mode OptPred run makes
MAX_OUTER_ROUNDS = 10


class ObjectiveNonFinite(Exception):
    """The objective returned NaN or infinity at a feasible point."""


@dataclass(frozen=True)
class ComputerModel:
    """A computer model eta(x, theta) with a rectangular parameter domain.

    ``eta`` maps an (m, d) array of inputs and a (p,) parameter vector to
    m outputs.  ``theta_box`` has one [low, high] row per parameter.
    """

    eta: Callable
    theta_box: np.ndarray

    def __post_init__(self):
        box = np.asarray(self.theta_box, dtype=float)
        if box.ndim == 1:
            box = box.reshape(1, 2)
        if box.ndim != 2 or box.shape[1] != 2:
            raise ValueError("theta_box must have shape (p, 2)")
        if np.any(box[:, 1] <= box[:, 0]):
            raise ValueError("theta_box rows must satisfy high > low")
        object.__setattr__(self, "theta_box", box)

    @property
    def p(self):
        return self.theta_box.shape[0]

    def eval(self, x, theta):
        """Evaluate the model at a batch of inputs, returning a 1-d array."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        theta = np.asarray(theta, dtype=float).reshape(-1)
        out = np.asarray(self.eta(x, theta), dtype=float).reshape(-1)
        if out.shape[0] != x.shape[0]:
            raise ValueError("eta must return one value per input row")
        return out


@dataclass
class CalibrationResult:
    """Outcome of one calibration run."""

    theta_hat: np.ndarray
    method: str
    discrepancy: Optional[DiscrepancyFit] = None
    lambda_used: Optional[float] = None
    objective_trace: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)


def _fold_into_box(x, box):
    """Reflect coordinates back through the violated box face."""
    lo = box[:, 0]
    w = box[:, 1] - lo
    t = np.mod(x - lo, 2.0 * w)
    return lo + w - np.abs(w - t)


def _nelder_mead(f, x0, box, tol=SIMPLEX_TOL, max_iter=MAX_NM_ITER):
    """Nelder-Mead from one start; returns (x_best, f_best).

    Every candidate is folded into the box before evaluation, so the
    search never queries an infeasible point.  Terminates when the
    simplex diameter (max infinity-norm distance to the best vertex)
    drops below ``tol`` or after ``max_iter`` iterations.
    """
    p = x0.shape[0]
    width = box[:, 1] - box[:, 0]
    verts = [np.array(x0, dtype=float)]
    for j in range(p):
        step = np.zeros(p)
        step[j] = 0.05 * width[j]
        verts.append(_fold_into_box(x0 + step, box))
    verts = np.array(verts)
    vals = np.array([f(v) for v in verts])

    for _ in range(max_iter):
        order = np.argsort(vals, kind="stable")
        verts = verts[order]
        vals = vals[order]
        if np.max(np.abs(verts[1:] - verts[0])) < tol:
            break
        centroid = np.mean(verts[:-1], axis=0)
        worst = verts[-1]

        xr = _fold_into_box(centroid + (centroid - worst), box)
        fr = f(xr)
        if fr < vals[0]:
            xe = _fold_into_box(centroid + 2.0 * (centroid - worst), box)
            fe = f(xe)
            if fe < fr:
                verts[-1], vals[-1] = xe, fe
            else:
                verts[-1], vals[-1] = xr, fr
        elif fr < vals[-2]:
            verts[-1], vals[-1] = xr, fr
        else:
            if fr < vals[-1]:
                xc = _fold_into_box(centroid + 0.5 * (xr - centroid), box)
            else:
                xc = _fold_into_box(centroid + 0.5 * (worst - centroid), box)
            fc = f(xc)
            if fc < min(fr, vals[-1]):
                verts[-1], vals[-1] = xc, fc
            else:
                for i in range(1, p + 1):
                    verts[i] = _fold_into_box(
                        verts[0] + 0.5 * (verts[i] - verts[0]), box
                    )
                    vals[i] = f(verts[i])

    best = int(np.argmin(vals))
    return verts[best].copy(), float(vals[best])


def minimize_box(objective, box, starts, stream, extra_points=()):
    """Multi-start Nelder-Mead over a box.

    ``starts`` Latin hypercube start points are drawn from ``stream``;
    any ``extra_points`` are prepended as additional starts.  The best
    local result wins; exact value ties go to the lexicographically
    smallest parameter vector.

    Returns
    -------
    (theta, value)

    Raises
    ------
    ObjectiveNonFinite
        If the objective produces a non-finite value anywhere.
    """
    box = np.asarray(box, dtype=float)
    if box.ndim == 1:
        box = box.reshape(1, 2)
    if starts < 1:
        raise ValueError("starts must be >= 1")

    def checked(theta):
        v = float(objective(theta))
        if not np.isfinite(v):
            raise ObjectiveNonFinite(f"objective is not finite at theta={theta}")
        return v

    inits = [np.asarray(q, dtype=float).reshape(-1) for q in extra_points]
    inits.extend(latin_hypercube(stream, starts, box))
    results = [_nelder_mead(checked, x0, box) for x0 in inits]
    best_x, best_v = min(results, key=lambda t: (t[1], tuple(t[0])))
    return best_x, best_v


def calibrate_ls(data, model, starts=DEFAULT_STARTS, *, stream):
    """Least squares calibration: minimize mean squared data-model misfit."""

    def objective(theta):
        r = data.y - model.eval(data.x, theta)
        return float(np.mean(r * r))

    theta, value = minimize_box(objective, model.theta_box, starts, stream)
    return CalibrationResult(
        theta_hat=theta,
        method="LS",
        diagnostics={"starts": starts, "best_objective": value},
    )


def calibrate_l2(data, model, kernel, starts=DEFAULT_STARTS, *, stream):
    """L2 calibration against a nonparametric fit of the physical response.

    The response is first smoothed with a GCV-tuned ridge fit; the
    parameter then minimizes the Monte Carlo estimate of the L2 distance
    between that fit and the computer model over the (uniform) input
    distribution.  The Monte Carlo draw is taken once and held fixed
    through the search.
    """
    gm = gram(kernel, data.x)
    lam = select_lambda_gcv(data, None, kernel, gram_matrix=gm)
    zhat_fit = fit_ridge(data, None, kernel, lam, gram_matrix=gm)
    draw = uniform(stream, data.d, size=L2_MC_POINTS)
    zhat = predict_discrepancy(zhat_fit, draw)

    def objective(theta):
        diff = zhat - model.eval(draw, theta)
        return float(np.mean(diff * diff))

    theta, value = minimize_box(objective, model.theta_box, starts, stream)
    return CalibrationResult(
        theta_hat=theta,
        method="L2",
        lambda_used=lam,
        diagnostics={"starts": starts, "best_objective": value},
    )


def _weighted_misfit(data, model, factor):
    """theta -> r^T M^{-1} r with r = Y - eta(X, theta), given M's factor."""

    def misfit(theta):
        r = data.y - model.eval(data.x, theta)
        return float(r @ solve_spd(factor, r))

    return misfit


def weighted_objective(data, model, kernel, lam, theta, gram_matrix=None):
    """The prediction-weighted misfit r^T (Sigma + n*lambda I)^{-1} r
    with r = Y - eta(X, theta).

    Up to the factor lambda this equals the minimum over the discrepancy
    of the penalized joint objective at fixed theta, so driving it down
    drives down the best achievable penalized fit.
    """
    gm = gram_matrix if gram_matrix is not None else gram(kernel, data.x)
    return _weighted_misfit(data, model, ridge_factor(gm, lam))(theta)


def lagrangian_value(data, model, kernel, lam, theta):
    """Penalized joint objective at theta with the discrepancy profiled out:

    (1/n) ||r - Sigma c||^2 + lambda c^T Sigma c  at  c = (Sigma + n*lambda I)^{-1} r.
    """
    gm = gram(kernel, data.x)
    r = data.y - model.eval(data.x, theta)
    c = solve_spd(ridge_factor(gm, lam), r)
    fitted = gm.values @ c
    return float(np.mean((r - fitted) ** 2) + lam * (c @ fitted))


def calibrate_optpred(data, model, kernel, mode="one_step", starts=DEFAULT_STARTS, *, stream):
    """Prediction-weighted calibration with a least squares warm start.

    Procedure: (1) least squares calibration; (2) GCV fixes the smoothing
    level at the warm start's residuals, and it stays frozen from then
    on; (3) the parameter minimizes the weighted misfit, with the
    incoming parameter always included as a search start; (4) the
    discrepancy is fit once, at the final parameter.  ``mode="full"``
    repeats (3) on the same objective from its incumbent until the value
    decreases by less than 1e-8 relative or ``MAX_OUTER_ROUNDS`` searches
    are done.

    The recorded ``objective_trace`` holds the profiled penalized
    objective after the warm start and after every search; it is
    nonincreasing by construction.
    """
    if mode not in ("one_step", "full"):
        raise ValueError("mode must be 'one_step' or 'full'")

    gm = gram(kernel, data.x)
    ls = calibrate_ls(data, model, starts=starts, stream=stream)
    theta = ls.theta_hat
    lam = select_lambda_gcv(data, model.eval(data.x, theta), kernel, gram_matrix=gm)

    # the smoothing level is frozen: one factorization serves every theta
    wobj = _weighted_misfit(data, model, ridge_factor(gm, lam))

    trace = [lam * wobj(theta)]
    for _ in range(1 if mode == "one_step" else MAX_OUTER_ROUNDS):
        theta, value = minimize_box(
            wobj, model.theta_box, starts, stream, extra_points=[theta]
        )
        trace.append(lam * value)
        if trace[-2] - trace[-1] < 1e-8 * max(abs(trace[-2]), 1e-300):
            break

    final_fit = fit_ridge(
        data, model.eval(data.x, theta), kernel, lam, gram_matrix=gm
    )
    return CalibrationResult(
        theta_hat=theta,
        method="OptPred-OneStep" if mode == "one_step" else "OptPred-Full",
        discrepancy=final_fit,
        lambda_used=lam,
        objective_trace=trace,
        diagnostics={
            "starts": starts,
            "best_objective": trace[-1],
            "theta_ls": ls.theta_hat,
        },
    )
