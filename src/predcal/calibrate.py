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
violated face.  The starts run in lockstep: every start's simplex lives
in one (k, p+1, p) array, and each iteration evaluates the objective at
most three times for all running starts together (the reflections; the
expansion and contraction points; the shrinks).  So an objective takes a
(k, p) array of parameter rows and returns their k values.  A computer
model has the same form: its ``eta`` maps inputs and a (k, p) array of
parameter rows to a (k, m) array, so the calibrators' objectives
evaluate the model at every row in one ``ComputerModel.eval_batch``
call.  Each start still follows its own path, with its own convergence
test and iteration limit: it reaches the same parameter and value, to
the bit, as it would searched alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .kernels import KernelSpec, gram
from .linalg import _as_box, _as_points, solve_spd
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

    ``eta`` maps an (m, d) array of inputs and a (k, p) array of parameter
    rows to a (k, m) array whose row i is the model at row i; the
    calibrators' searches evaluate all their candidate parameters of a
    step in one call.  ``theta_box`` has one [low, high] row per parameter.
    """

    eta: Callable
    theta_box: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta_box", _as_box(self.theta_box))

    @property
    def p(self):
        return self.theta_box.shape[0]

    def eval(self, x, theta):
        """Evaluate the model at (m, d) inputs and a (p,) theta, returning m values."""
        return self.eval_batch(x, np.reshape(theta, (1, -1)))[0]

    def eval_batch(self, x, thetas):
        """Evaluate the model at (m, d) inputs for each row of a (k, p) theta array.

        Returns a (k, m) array; row i equals ``eval(x, thetas[i])``.
        """
        x = _as_points(x)
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != self.p:
            raise ValueError(f"theta rows must hold p={self.p} values, got shape {thetas.shape}")
        out = np.asarray(self.eta(x, thetas), dtype=float)
        if out.shape != (thetas.shape[0], x.shape[0]):
            raise ValueError("eta must return one row per theta and one column per input")
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


def _box_fold(box):
    """The map of points into ``box``, as a function of an (..., p) array.

    Each coordinate is reflected back through the face it crossed, then
    clipped to the box: the reflection's rounding can leave a point an
    ulp outside a face (0.01 - 2e-16 for a [0.01, 10] row).
    """
    lo, hi = box[:, 0], box[:, 1]
    w = hi - lo
    top, period = lo + w, 2.0 * w

    def fold(x):
        y = top - np.abs(w - np.mod(x - lo, period))
        return np.minimum(np.maximum(y, lo, out=y), hi, out=y)

    return fold


def _nelder_mead_lockstep(f, x0, box, tol=SIMPLEX_TOL, max_iter=MAX_NM_ITER):
    """Nelder-Mead from every row of ``x0`` (k, p), the starts advanced together.

    ``f`` maps a (j, p) array of points to their j values.  Returns
    ``(thetas, values)`` of shapes (k, p) and (k,): row i is the best
    vertex of start i's final simplex, the point a search from ``x0[i]``
    alone would return.

    Every candidate is folded into the box before evaluation, so the
    search never queries an infeasible point.  A start stops when its
    simplex diameter (max infinity-norm distance to the best vertex)
    drops below ``tol`` or after ``max_iter`` iterations.  Each iteration
    calls ``f`` at most three times, each time on the running starts
    that need it: their reflection points; their expansion or
    contraction points; their shrunk simplices.
    """
    fold = _box_fold(box)
    k, p = x0.shape
    verts = np.empty((k, p + 1, p))
    verts[:, 0] = x0
    verts[:, 1:] = fold(x0[:, None, :] + np.diag(0.05 * (box[:, 1] - box[:, 0])))
    vals = f(verts.reshape(-1, p)).reshape(k, p + 1)

    thetas, values = np.empty((k, p)), np.empty(k)
    run = np.arange(k)  # the starts still searching, in the row order of verts
    rows = run[:, None]
    for _ in range(max_iter):
        order = vals.argsort(axis=1, kind="stable")
        verts, vals = verts[rows, order], vals[rows, order]
        done = np.maximum.reduce(np.abs(verts[:, 1:] - verts[:, :1]), axis=(1, 2)) < tol
        if np.count_nonzero(done):
            thetas[run[done]], values[run[done]] = verts[done, 0], vals[done, 0]
            run, verts, vals = run[~done], verts[~done], vals[~done]
            if not run.size:
                return thetas, values
            rows = rows[: run.size]
        centroid = np.add.reduce(verts[:, :-1], axis=1) / p
        worst = verts[:, -1]
        step = centroid - worst
        xr = fold(centroid + step)
        fr = f(xr)

        # beyond the best value: try the expansion; not below the second
        # worst: contract, toward the reflection if it beat the worst
        expand = fr < vals[:, 0]
        second = expand | (fr >= vals[:, -2])
        n_second = np.count_nonzero(second)
        if not n_second:
            verts[:, -1], vals[:, -1] = xr, fr
            continue
        inside = (fr >= vals[:, -1])[:, None]
        half = np.where(inside, worst, xr) - centroid
        x2 = fold(centroid + np.where(expand[:, None], 2.0 * step, 0.5 * half))
        if n_second == run.size:
            f2 = f(x2)
        else:
            f2 = np.full(run.size, np.inf)
            f2[second] = f(x2[second])
        # an expansion must beat the reflection, a contraction both the
        # reflection and the worst vertex; an expansion's fr is below the
        # worst value already, so one test serves both (f2 is inf elsewhere)
        take = f2 < np.minimum(fr, vals[:, -1])
        shrink = second & ~(expand | take)
        new_x, new_f = np.where(take[:, None], x2, xr), np.where(take, f2, fr)
        if shrink.any():
            v = verts[shrink]
            pts = fold(v[:, :1] + 0.5 * (v[:, 1:] - v[:, :1]))
            verts[shrink, 1:] = pts
            vals[shrink, 1:] = f(pts.reshape(-1, p)).reshape(-1, p)
            keep = ~shrink
            verts[keep, -1], vals[keep, -1] = new_x[keep], new_f[keep]
        else:
            verts[:, -1], vals[:, -1] = new_x, new_f

    best = vals.argmin(axis=1)
    thetas[run], values[run] = verts[rows[:, 0], best], vals[rows[:, 0], best]
    return thetas, values


def _extra_start(point, box):
    """An extra start as a (p,) array, refused unless it is a point of the box."""
    x = np.asarray(point, dtype=float).reshape(-1)
    if x.shape[0] != box.shape[0] or not (np.all(x >= box[:, 0]) and np.all(x <= box[:, 1])):
        raise ValueError(
            f"extra start {point!r} must hold p={box.shape[0]} finite values "
            f"inside the box {box.tolist()}"
        )
    return x


def minimize_box(objective, box, starts, stream, extra_points=()):
    """Multi-start Nelder-Mead over a box.

    ``objective`` maps a (k, p) array of parameter rows to an array of
    their k values.  ``starts`` Latin hypercube start points are drawn
    from ``stream``; any ``extra_points`` are prepended as additional
    starts, and each must hold p finite values inside the box.  All
    starts are searched in lockstep, so each iteration calls
    ``objective`` at most three times, on a batch holding one candidate
    (or, for a shrink, p) per running start; each start still reaches
    what a search from it alone would.  The best local result wins; exact
    value ties go to the lexicographically smallest parameter vector.

    Returns
    -------
    (theta, value)

    Raises
    ------
    ObjectiveNonFinite
        If the objective produces a non-finite value anywhere.
    ValueError
        If an extra start is not a point of the box.
    """
    box = _as_box(box)
    if starts < 1:
        raise ValueError("starts must be >= 1")
    p = box.shape[0]

    def checked(thetas):
        values = np.asarray(objective(thetas), dtype=float)
        if values.shape != (thetas.shape[0],):
            raise ValueError(
                f"objective must return one value per theta row, got shape {values.shape}"
            )
        finite = np.isfinite(values)
        if not finite.all():
            bad = thetas[np.argmin(finite)]
            raise ObjectiveNonFinite(f"objective is not finite at theta={bad}")
        return values

    inits = np.reshape([_extra_start(q, box) for q in extra_points], (-1, p))
    x0 = np.concatenate([inits, latin_hypercube(stream, starts, box)])
    thetas, values = _nelder_mead_lockstep(checked, x0, box)
    vals, rows = values.tolist(), thetas.tolist()
    best = min(range(len(vals)), key=lambda i: (vals[i], rows[i]))
    return thetas[best].copy(), vals[best]


def calibrate_ls(data, model, starts=DEFAULT_STARTS, *, stream):
    """Least squares calibration: minimize mean squared data-model misfit."""

    def objective(thetas):
        r = data.y - model.eval_batch(data.x, thetas)
        return np.mean(r * r, axis=1)

    theta, _ = minimize_box(objective, model.theta_box, starts, stream)
    return CalibrationResult(theta_hat=theta, method="LS")


def calibrate_l2(data, model, kernel, starts=DEFAULT_STARTS, *, stream):
    """L2 calibration against a nonparametric fit of the physical response.

    The response is first smoothed with a GCV-tuned ridge fit; the
    parameter then minimizes the Monte Carlo estimate of the L2 distance
    between that fit and the computer model over the uniform input
    distribution on the unit cube, so the design must lie in [0, 1]^d.
    The Monte Carlo draw is taken once and held fixed through the search.
    """
    if np.any(data.x < 0.0) or np.any(data.x > 1.0):
        raise ValueError("L2 calibration needs design coordinates in [0, 1]")
    gm = gram(kernel, data.x)
    lam = select_lambda_gcv(data, None, kernel, gram_matrix=gm)
    zhat_fit = fit_ridge(data, None, kernel, lam, gram_matrix=gm)
    draw = uniform(stream, data.d, size=L2_MC_POINTS)
    zhat = predict_discrepancy(zhat_fit, draw)

    def objective(thetas):
        diff = zhat - model.eval_batch(draw, thetas)
        return np.mean(diff * diff, axis=1)

    theta, _ = minimize_box(objective, model.theta_box, starts, stream)
    return CalibrationResult(theta_hat=theta, method="L2", lambda_used=lam)


def _weighted_misfit(data, model, factor):
    """(k, p) theta rows -> r^T M^{-1} r per row, r = Y - eta(X, theta), given M's factor."""

    def misfit(thetas):
        r = data.y - model.eval_batch(data.x, thetas)
        w = solve_spd(factor, r.T).T
        # one dot product per row: einsum's row sums differ in the last bits
        return np.array([ri @ wi for ri, wi in zip(r, w)])

    return misfit


def weighted_objective(data, model, kernel, lam, theta, gram_matrix=None):
    """The prediction-weighted misfit r^T (Sigma + n*lambda I)^{-1} r
    with r = Y - eta(X, theta).

    Up to the factor lambda this equals the minimum over the discrepancy
    of the penalized joint objective at fixed theta, so driving it down
    drives down the best achievable penalized fit.
    """
    gm = gram_matrix if gram_matrix is not None else gram(kernel, data.x)
    misfit = _weighted_misfit(data, model, ridge_factor(gm, lam))
    return float(misfit(np.reshape(theta, (1, -1)))[0])


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
    # and the final discrepancy fit
    factor = ridge_factor(gm, lam)
    wobj = _weighted_misfit(data, model, factor)

    trace = [lam * float(wobj(theta[None])[0])]
    for _ in range(1 if mode == "one_step" else MAX_OUTER_ROUNDS):
        theta, value = minimize_box(
            wobj, model.theta_box, starts, stream, extra_points=[theta]
        )
        trace.append(lam * value)
        if trace[-2] - trace[-1] < 1e-8 * max(abs(trace[-2]), 1e-300):
            break

    coef = solve_spd(factor, data.y - model.eval(data.x, theta))
    return CalibrationResult(
        theta_hat=theta,
        method="OptPred-OneStep" if mode == "one_step" else "OptPred-Full",
        discrepancy=DiscrepancyFit(coef=coef, kernel=kernel, train_x=data.x),
        lambda_used=lam,
        objective_trace=trace,
        diagnostics={"theta_ls": ls.theta_hat},
    )
