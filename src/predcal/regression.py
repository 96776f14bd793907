"""Kernel ridge regression for the model discrepancy, with GCV tuning.

Given data (X_i, Y_i) and computer-model values eta(X_i), the residuals
r_i = Y_i - eta(X_i) are smoothed by penalized least squares in the
kernel's Hilbert space:

    min_h  (1/n) sum_i (r_i - h(X_i))^2  +  lambda ||h||_H^2.

By the representer theorem the minimizer is h(x) = sum_i c_i K(X_i, x)
with coefficients solving (Sigma + n*lambda I) c = r, Sigma the Gram
matrix of the design.  The smoothing level is picked by generalized
cross-validation over the constant grid ``DEFAULT_LAMBDA_GRID``, and the
Gram matrix carries the constant jitter ``kernels.DEFAULT_JITTER``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, gram, kernel_apply
from .linalg import _as_points, cholesky, solve_spd

__all__ = [
    "Dataset",
    "DiscrepancyFit",
    "DegenerateTrace",
    "AllDegenerate",
    "DEFAULT_LAMBDA_GRID",
    "ridge_factor",
    "fit_ridge",
    "predict_discrepancy",
    "gcv_score",
    "select_lambda_gcv",
]

# 60 log-spaced smoothing levels spanning interpolation to heavy shrinkage.
DEFAULT_LAMBDA_GRID = np.logspace(-8.0, 1.0, 60)


class DegenerateTrace(Exception):
    """GCV denominator trace is numerically zero (lambda too small)."""


class AllDegenerate(Exception):
    """Every lambda in the grid produced a degenerate GCV denominator."""


@dataclass
class Dataset:
    """Design points and scalar responses.

    ``x`` is an (n, d) array of point rows, also for d = 1.  Every entry
    of ``x`` and ``y`` must be finite.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = _as_points(self.x)
        y = np.asarray(self.y, dtype=float).reshape(-1)
        if y.shape[0] != x.shape[0]:
            raise ValueError("x and y lengths differ")
        if x.shape[0] < 1:
            raise ValueError("dataset must contain at least one point")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("design points and responses must be finite")
        self.x = x
        self.y = y

    @property
    def n(self):
        return self.x.shape[0]

    @property
    def d(self):
        return self.x.shape[1]


@dataclass
class DiscrepancyFit:
    """A fitted kernel expansion h(x) = sum_i coef_i K(train_x_i, x)."""

    coef: np.ndarray
    kernel: KernelSpec
    train_x: np.ndarray


def _residuals(data, eta_at_x):
    if eta_at_x is None:
        return data.y.copy()
    eta = np.asarray(eta_at_x, dtype=float).reshape(-1)
    if eta.shape[0] != data.n:
        raise ValueError("eta_at_x must hold one value per design point")
    return data.y - eta


def ridge_factor(gram_matrix, lam):
    """Cholesky factor of M = Sigma + n*lam I, the matrix of every ridge solve.

    ``gram_matrix`` is the (jittered) Gram matrix Sigma of an n-point
    design.  For lam > 0 the n*lam term keeps M positive definite even
    when Sigma is singular.

    Raises
    ------
    ValueError
        If lam is not finite and > 0.
    """
    if not (np.isfinite(lam) and lam > 0):
        raise ValueError("lambda must be finite and > 0")
    n = gram_matrix.values.shape[0]
    return cholesky(gram_matrix.values + n * lam * np.eye(n))


def fit_ridge(data, eta_at_x, kernel, lam, gram_matrix=None):
    """Fit the discrepancy expansion at a fixed smoothing level.

    Parameters
    ----------
    data : Dataset
    eta_at_x : array_like or None
        Computer-model values at the design points; None means zeros, in
        which case the fit smooths the responses themselves.
    kernel : KernelSpec
    lam : float
        Smoothing level, > 0.
    gram_matrix : GramMatrix, optional
        Precomputed Gram matrix of ``data.x`` (saves rebuilding it when
        several fits share one design).
    """
    r = _residuals(data, eta_at_x)
    gm = gram_matrix if gram_matrix is not None else gram(kernel, data.x)
    coef = solve_spd(ridge_factor(gm, lam), r)
    return DiscrepancyFit(coef=coef, kernel=kernel, train_x=data.x)


def predict_discrepancy(fit, x):
    """Evaluate the fitted expansion at an (m, d) array of points; returns an (m,) array."""
    return kernel_apply(fit.kernel, x, fit.train_x, fit.coef)


def _gcv_curve(data, eta_at_x, kernel, lams, gram_matrix=None):
    """GCV scores over an array of lambdas, NaN where tr(I - A) <= 1e-12 * n.

    One eigendecomposition Sigma = U diag(w) U^T serves every lambda: with
    z = U^T r and s = n*lambda / (w + n*lambda), I - A = U diag(s) U^T, so
    (1/n)||r - A r||^2 = sum(s^2 z^2) / n and tr(I - A) = sum(s) (Golub,
    Heath & Wahba 1979).
    """
    r = _residuals(data, eta_at_x)
    gm = gram_matrix if gram_matrix is not None else gram(kernel, data.x)
    n = data.n
    w, u = np.linalg.eigh(gm.values)
    z2 = (u.T @ r) ** 2
    nlam = n * np.asarray(lams, dtype=float)[:, None]
    s = nlam / (w + nlam)
    tr_resid = np.sum(s, axis=1)
    score = np.full(tr_resid.shape, np.nan)
    np.divide((s * s) @ z2 / n, (tr_resid / n) ** 2, out=score, where=tr_resid > 1e-12 * n)
    return score


def gcv_score(data, eta_at_x, kernel, lam, gram_matrix=None):
    """Generalized cross-validation score of one smoothing level.

    GCV(lambda) = [ (1/n) ||r - A r||^2 ] / [ (1/n) tr(I - A) ]^2 with
    A = Sigma (Sigma + n*lambda I)^{-1} the influence matrix.

    Raises
    ------
    DegenerateTrace
        If tr(I - A) <= 1e-12 * n, where the score is numerically
        meaningless.
    """
    if not (np.isfinite(lam) and lam > 0):
        raise ValueError("lambda must be finite and > 0")
    score = float(_gcv_curve(data, eta_at_x, kernel, [lam], gram_matrix)[0])
    if np.isnan(score):
        raise DegenerateTrace(f"tr(I - A) <= 1e-12 * n at lambda = {lam:.3e}")
    return score


def select_lambda_gcv(data, eta_at_x, kernel, *, gram_matrix=None):
    """Pick the smoothing level in ``DEFAULT_LAMBDA_GRID`` minimizing GCV.

    Ties are broken toward the larger lambda (more smoothing).  Grid
    values whose denominator trace degenerates are skipped.

    Raises
    ------
    AllDegenerate
        If every grid value degenerates.
    """
    score = _gcv_curve(data, eta_at_x, kernel, DEFAULT_LAMBDA_GRID, gram_matrix)
    if np.all(np.isnan(score)):
        raise AllDegenerate("no lambda in the grid has a usable GCV denominator")
    # ascending grid: the last of the exact ties is the largest lambda
    return float(DEFAULT_LAMBDA_GRID[np.flatnonzero(score == np.nanmin(score))[-1]])
