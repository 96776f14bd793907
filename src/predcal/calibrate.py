"""Calibration of computer-model parameters against field data.

Three estimators are provided:

* ``calibrate_ls`` -- plain least squares on the data, ignoring any model
  discrepancy.
* ``calibrate_l2`` -- minimizes the L2 distance between the computer model
  and a nonparametric fit of the physical response (a midpoint rule over
  the unit cube, the uniform input distribution).
* ``calibrate_optpred`` -- prediction-weighted calibration: after a least
  squares warm start fixes the smoothing level by GCV, the parameter is
  driven by the objective (Y - eta(theta))^T (Sigma + n*lambda I)^{-1}
  (Y - eta(theta)), which is the residual profile of the joint penalized
  problem over parameter and discrepancy.  One search, started also from
  the warm start, fixes the parameter; the discrepancy is then fit once,
  at that parameter.

All searches use a multi-start Nelder-Mead restricted to the parameter
box, which must have finite bounds and max(p, 4) * (|low| + high - low)
finite in each row, so that no number a search computes overflows;
candidate points that leave the box are reflected back through the
violated face.  Each start is one plain search that asks for the
points it needs next; the starts run in lockstep: each objective call
holds the next request of every running start (its first simplex, a
reflection, an expansion or contraction point, or a shrunk simplex).  So
an objective takes a (k, p) array of parameter rows and returns their k
values.  A computer model has the same form: its ``eta`` maps inputs
and a (k, p) array of parameter rows to a (k, m) array, so the
calibrators' objectives evaluate the model at every row in one
``ComputerModel.eval_batch`` call.  Each start still follows its own path, with its own convergence
test and iteration limit: it reaches the same parameter and value, to
the bit, as it would searched alone.

Each start's simplex, its first included, is a list of Python floats,
since at the few coordinates of these searches numpy's fixed cost per
call outweighs the arithmetic; its float64 operations, folds included,
are those of a one-start search in numpy, so it returns that search's bits.
This bookkeeping grows with the number of starts: at the calibrators'
ten (eleven with OptPred's warm start) it is cheap, while at a hundred
on a cheap objective it takes three to four times as long as keeping
all simplices in one numpy array.

Each public calibrator is one composition of private pieces that
``experiments.build_predictors`` also uses: ``calibrate_ls`` is one
least squares search; ``calibrate_optpred`` is ``calibrate_ls``, the GCV
level of its residuals on the design's ``regression._spectrum``, then
``_optpred_step`` from that parameter and level, both searches drawing
from one stream; ``calibrate_l2`` is the design's range check
(``_check_l2_design``), the GCV-tuned smoother of the response and
``_l2_search``.  So a replicate runs one least squares search and picks
one level at its residuals, the pair LSCal fits with and OptCal takes,
hands NP's fit to ``_l2_search`` and shares one spectrum; every result
keeps the bits of its calibrator run alone.
"""

from __future__ import annotations

import numbers
from bisect import insort
from dataclasses import dataclass, field
from operator import add, itemgetter
from typing import Callable, Optional

import numpy as np

from .kernels import KernelSpec, _unit_cube_nodes, gram
from .linalg import _as_box, _as_points, solve_spd
from .regression import (
    DiscrepancyFit,
    _gcv_level,
    _residuals,
    _spectrum,
    fit_ridge_gcv,
    predict_discrepancy,
    ridge_factor,
)
from .rng import latin_hypercube

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
# node budget of the L2 distance's midpoint rule: 576 nodes at d = 1, 24^2 at d = 2
L2_NODES = 576


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
        # not np.reshape, which takes a list through numpy's slower wrapper fallback
        return self.eval_batch(x, np.asarray(theta).reshape(1, -1))[0]

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
    """A fitted predictor x -> eta(x, theta_hat) + h(x) and how it was fitted.

    ``theta_hat`` is None when there is no model term (NP); ``discrepancy``
    is the expansion h, None when there is no correction.
    """

    theta_hat: Optional[np.ndarray]
    method: str
    discrepancy: Optional[DiscrepancyFit] = None
    lambda_used: Optional[float] = None
    objective_trace: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)


_value = itemgetter(0)


def _nelder_mead_lockstep(f, x0, box, tol=SIMPLEX_TOL, max_iter=MAX_NM_ITER):
    """Nelder-Mead from every start of ``x0``, the starts advanced together.

    ``x0`` is a list of starts, each a list of p Python floats, and ``f``
    maps a (j, p) array of points to their j values.  Returns a list of
    ``(value, point)`` pairs of Python floats, one per start in start
    order: pair i is the best vertex of start i's final simplex and its
    value, what a search from ``x0[i]`` alone would return.

    Every candidate is folded into the box before evaluation, so the
    search never queries an infeasible point.  A start stops when its
    simplex diameter (max infinity-norm distance to the best vertex)
    drops below ``tol`` or after ``max_iter`` iterations.

    Each start's search, ``search``, is a generator in the textbook order:
    it yields the points it needs next (its first simplex; the reflection;
    the expansion or contraction; the p shrunk points), then takes their
    values, one per point, from the iterator it is sent.  Each ``f`` call
    holds the next request of every running start, as one (j, p) array in
    start order, so ``f`` is called as often as the start with the most
    requests makes them.

    Each start's simplex is a list of ``(value, point)`` pairs of Python
    floats, stably sorted by value: numpy's fixed cost per call would
    outweigh the arithmetic of a few coordinates.  The first simplex is
    the start and its p steps of 5% of the box's widths, folded into the
    box.  The centroid is summed vertex after vertex.  Each move is
    ``origin + t * (target - origin)`` folded into the box: the reflection
    and the expansion are ``t = -1`` and ``t = -2`` toward the worst
    vertex, whose products equal ``centroid - worst`` and
    ``2 * (centroid - worst)`` exactly up to the sign of a zero, which the
    fold's ``%`` drops; contractions and shrinks are ``t = 0.5``.  The
    fold reflects a coordinate back through the face it crossed, then
    clips it to the box, as the reflection's rounding can leave it an ulp
    outside (0.01 - 2e-16 in a [0.01, 10] row).  Its ``%`` is ``np.mod``'s
    fmod-and-adjust rule and its clip returns the face on a tie and passes
    a NaN, as ``np.maximum`` and ``np.minimum`` do: the test oracle's
    numpy fold checks that.  A start stopped by ``max_iter`` returns the
    first vertex of its sorted simplex, the first minimum of its values.
    """
    p = box.shape[0]
    faces = [(low, high, high - low, low + (high - low), 2.0 * (high - low))
             for low, high in box.tolist()]
    steps = [0.05 * width for _, _, width, _, _ in faces]

    def fold(point):
        out = []
        for c, (low, high, width, top, period) in zip(point, faces):
            y = top - abs(width - (c - low) % period)
            out.append(low if low >= y else high if high <= y else y)
        return out

    def move(origin, target, t):
        return fold([a + t * (b - a) for a, b in zip(origin, target)])

    def converged(simplex):
        best = simplex[0][1]
        for _, x in simplex[1:]:
            for a, b in zip(x, best):
                if not abs(a - b) < tol:
                    return False
        return True

    def replace_worst(simplex, value, point):
        del simplex[-1]
        insort(simplex, (value, point), key=_value)

    def search(x):
        # the coordinates a vertex does not step add 0.0, which turns a -0.0 into +0.0
        verts = [x] + [fold([c + (step if i == j else 0.0) for i, c in enumerate(x)])
                       for j, step in enumerate(steps)]
        values = yield verts
        simplex = sorted([(next(values), v) for v in verts], key=_value)
        for _ in range(max_iter):
            if converged(simplex):
                break
            centroid = simplex[0][1]
            for _, v in simplex[1:-1]:
                centroid = list(map(add, centroid, v))
            centroid = [a / p for a in centroid]
            worst = simplex[-1][1]
            xr = move(centroid, worst, -1.0)
            fr = next((yield [xr]))
            if fr < simplex[0][0]:
                xe = move(centroid, worst, -2.0)
                fe = next((yield [xe]))
                if fe < fr:
                    replace_worst(simplex, fe, xe)
                else:
                    replace_worst(simplex, fr, xr)
            elif fr < simplex[-2][0]:
                replace_worst(simplex, fr, xr)
            else:
                # contract, toward the reflection if it beat the worst
                xc = move(centroid, worst if fr >= simplex[-1][0] else xr, 0.5)
                fc = next((yield [xc]))
                if fc < min(fr, simplex[-1][0]):
                    replace_worst(simplex, fc, xc)
                else:
                    pts = [move(simplex[0][1], v, 0.5) for _, v in simplex[1:]]
                    values = yield pts
                    simplex[1:] = [(next(values), v) for v in pts]
                    simplex.sort(key=_value)
        return simplex[0]

    results = [None] * len(x0)
    # the starts still searching, each with its search and its pending points
    running = [(i, s, next(s)) for i, s in enumerate(map(search, x0))]
    while running:
        vals = iter(f(np.array([x for _, _, pts in running for x in pts])).tolist())
        live = []
        for i, s, _ in running:
            try:
                live.append((i, s, s.send(vals)))
            except StopIteration as stop:
                results[i] = stop.value
        running = live
    return results


def _extra_start(point, box):
    """An extra start as a list of p Python floats, refused unless it is a point of the box."""
    x = np.asarray(point, dtype=float).reshape(-1)
    if x.shape[0] != box.shape[0] or not (np.all(x >= box[:, 0]) and np.all(x <= box[:, 1])):
        raise ValueError(
            f"extra start {point!r} must hold p={box.shape[0]} finite values "
            f"inside the box {box.tolist()}"
        )
    return x.tolist()


def minimize_box(objective, box, starts, stream, extra_points=()):
    """Multi-start Nelder-Mead over a box.

    ``objective`` maps a (k, p) array of parameter rows to an array of
    their k values.  ``starts`` Latin hypercube start points are drawn
    from ``stream``; any ``extra_points`` are prepended as additional
    starts, and each must hold p finite values inside the box.  All
    starts are searched in lockstep: each ``objective`` call holds the
    next request of every running start, one candidate (p for a shrink,
    p + 1 for its first simplex) per start; each start still reaches
    what a search from it alone would.  The least ``(value, theta)`` pair
    wins in Python's tuple order: the smaller value, and among exact value
    ties the lexicographically smaller parameter vector.

    Returns
    -------
    (theta, value)

    Raises
    ------
    ObjectiveNonFinite
        If the objective produces a non-finite value anywhere.
    ValueError
        If an extra start is not a point of the box, or the objective does
        not return one value per parameter row.
    """
    box = _as_box(box)
    if not isinstance(starts, numbers.Integral) or isinstance(starts, bool) or starts < 1:
        raise ValueError(f"starts must be an integer >= 1, got {starts!r}")
    x0 = [_extra_start(q, box) for q in extra_points]

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

    x0 += latin_hypercube(stream, starts, box).tolist()
    value, theta = min(_nelder_mead_lockstep(checked, x0, box))
    return np.array(theta), value


def _row_mean_square(d):
    """Mean of d * d along each row of a 2-D array: ``np.mean(d * d, axis=1)``'s
    sum and division, bit for bit, without its Python wrapper."""
    return np.add.reduce(d * d, axis=1) / d.shape[1]


def calibrate_ls(data, model, starts=DEFAULT_STARTS, *, stream):
    """Least squares calibration: minimize mean squared data-model misfit."""

    def objective(thetas):
        return _row_mean_square(data.y - model.eval_batch(data.x, thetas))

    theta, _ = minimize_box(objective, model.theta_box, starts, stream)
    return CalibrationResult(theta_hat=theta, method="LS")


def calibrate_l2(data, model, kernel, starts=DEFAULT_STARTS, *, stream):
    """L2 calibration against a nonparametric fit of the physical response.

    The response is first smoothed with a GCV-tuned ridge fit; the
    parameter then minimizes the L2 distance between that fit and the
    computer model over the uniform input distribution on the unit cube,
    so the design must lie in [0, 1]^d; any other design is refused before
    the smoothing.  The distance is the midpoint rule on ``L2_NODES``
    nodes; ``stream`` draws only the search's starts.
    """
    _check_l2_design(data.x)
    return _l2_search(data, model, fit_ridge_gcv(data, None, kernel), starts, stream)


def _check_l2_design(x):
    """Refuse a design ``x`` outside the unit cube, which L2 calibration integrates over."""
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError(f"L2 calibration needs design coordinates in [0, 1], got min "
                         f"{float(x.min())!r} and max {float(x.max())!r}")


def _l2_search(data, model, smoother, starts, stream):
    """The L2 search of ``calibrate_l2`` given its smoother, the ``(lam, fit)``
    of ``fit_ridge_gcv(data, None, kernel)``, on a design that
    ``_check_l2_design`` passed."""
    lam, zhat_fit = smoother
    nodes = _unit_cube_nodes(data.d, L2_NODES)
    zhat = predict_discrepancy(zhat_fit, nodes)

    def objective(thetas):
        return _row_mean_square(zhat - model.eval_batch(nodes, thetas))

    theta, _ = minimize_box(objective, model.theta_box, starts, stream)
    return CalibrationResult(theta_hat=theta, method="L2", lambda_used=lam)


def _weighted_misfit(data, model, factor):
    """(k, p) theta rows -> r^T M^{-1} r per row, r = Y - eta(X, theta), given M's factor."""

    def misfit(thetas):
        r = data.y - model.eval_batch(data.x, thetas)
        w = solve_spd(factor, r.T).T
        # one stacked matmul of 1 x n by n x 1 slices: each slice is a lone
        # dot product, r_i @ w_i bit for bit, where einsum's row sums differ
        # in the last bits
        return (r[:, None, :] @ w[:, :, None])[:, 0, 0]

    return misfit


def weighted_objective(data, model, kernel, lam, theta):
    """The prediction-weighted misfit r^T (Sigma + n*lambda I)^{-1} r
    with r = Y - eta(X, theta).

    Up to the factor lambda this equals the minimum over the discrepancy
    of the penalized joint objective at fixed theta, so driving it down
    drives down the best achievable penalized fit.
    """
    misfit = _weighted_misfit(data, model, ridge_factor(gram(kernel, data.x), lam))
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


def calibrate_optpred(data, model, kernel, starts=DEFAULT_STARTS, *, stream):
    """Prediction-weighted calibration with a least squares warm start.

    Procedure: (1) least squares calibration; (2) GCV fixes the smoothing
    level at the warm start's residuals; (3) the parameter minimizes the
    weighted misfit at that level, with the warm start included as a
    search start; (4) the discrepancy is fit once, at that parameter:
    steps (1) and (2) here, then ``_optpred_step``.

    The recorded ``objective_trace`` holds the profiled penalized
    objective after the warm start and after the search; it is
    nonincreasing by construction.
    """
    theta_ls = calibrate_ls(data, model, starts=starts, stream=stream).theta_hat
    gm, w, u = _spectrum(kernel, data.x)
    lam = float(_gcv_level(w, u, _residuals(data, model.eval(data.x, theta_ls)))[0])
    return _optpred_step(data, model, kernel, gm, theta_ls, lam, starts, stream)


def _optpred_step(data, model, kernel, gm, theta_ls, lam, starts, stream):
    """Steps (3) and (4) of ``calibrate_optpred`` from the warm start ``theta_ls`` and
    its GCV level ``lam``, on ``gm = gram(kernel, data.x)``; ``stream`` is the warm
    start's.  One factorization serves every theta and the discrepancy fit."""
    factor = ridge_factor(gm, lam)
    wobj = _weighted_misfit(data, model, factor)
    theta, value = minimize_box(wobj, model.theta_box, starts, stream, extra_points=[theta_ls])

    coef = solve_spd(factor, data.y - model.eval(data.x, theta))
    return CalibrationResult(
        theta_hat=theta,
        method="OptPred-OneStep",
        discrepancy=DiscrepancyFit(coef=coef, kernel=kernel, train_x=data.x),
        lambda_used=lam,
        objective_trace=[lam * float(wobj(theta_ls[None])[0]), lam * value],
        diagnostics={"theta_ls": theta_ls},
    )
