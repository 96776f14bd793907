"""Kernel ridge regression for the model discrepancy, with GCV tuning.

Given data (X_i, Y_i) and computer-model values eta(X_i), the residuals
r_i = Y_i - eta(X_i) are smoothed by penalized least squares in the
kernel's Hilbert space:

    min_h  (1/n) sum_i (r_i - h(X_i))^2  +  lambda ||h||_H^2.

By the representer theorem the minimizer is h(x) = sum_i c_i K(X_i, x)
with coefficients solving (Sigma + n*lambda I) c = r, Sigma the Gram
matrix of the design with the constant jitter ``kernels.DEFAULT_JITTER``.
Generalized cross-validation picks the level on the constant grid
``DEFAULT_LAMBDA_GRID`` from one eigendecomposition Sigma = U diag(w) U^T
(``_spectrum``), and ``_gcv_level`` is the one level pick, so the fits of
several residuals on one design share one spectrum (``_fit_gcv``); the
public entry points each build their own.  The cross-validation folds,
whose Gram matrices are blocks of a larger one, also take their
coefficients from the eigendecomposition (``_ridge_gcv_coef``), one
``eigh`` call per stack of equal-sized folds, each stacked row with the
bits of its single call.
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
    "DEFAULT_LAMBDA_GRID",
    "ridge_factor",
    "fit_ridge",
    "fit_ridge_gcv",
    "predict_discrepancy",
    "gcv_score",
    "select_lambda_gcv",
]

# 60 log-spaced smoothing levels spanning interpolation to heavy shrinkage.
DEFAULT_LAMBDA_GRID = np.logspace(-8.0, 1.0, 60)


class DegenerateTrace(Exception):
    """GCV denominator trace is numerically zero (lambda too small)."""


@dataclass
class Dataset:
    """Design points and scalar responses.

    ``x`` is an (n, d) array of point rows with d >= 1, also for d = 1.
    Every entry of ``x`` and ``y`` must be finite.
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
        if x.shape[1] < 1:
            raise ValueError("design points must have at least one coordinate")
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
    if not np.all(np.isfinite(eta)):
        raise ValueError("eta_at_x must be finite")
    return data.y - eta


def ridge_factor(gram_matrix, lam):
    """Cholesky factor of M = Sigma + n*lam I, the matrix of every public ridge solve.

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


def fit_ridge(data, eta_at_x, kernel, lam):
    """Fit the discrepancy expansion at a fixed smoothing level.

    Parameters
    ----------
    data : Dataset
    eta_at_x : array_like or None
        Finite computer-model values at the design points; None means
        zeros, in which case the fit smooths the responses themselves.
    kernel : KernelSpec
        Builds the Gram matrix of ``data.x``.
    lam : float
        Smoothing level, > 0.
    """
    r = _residuals(data, eta_at_x)
    coef = solve_spd(ridge_factor(gram(kernel, data.x), lam), r)
    return DiscrepancyFit(coef=coef, kernel=kernel, train_x=data.x)


def predict_discrepancy(fit, x):
    """Evaluate the fitted expansion at an (m, d) array of points; returns an (m,) array."""
    return kernel_apply(fit.kernel, x, fit.train_x, fit.coef)


def _spectral_gcv(w, z2, lams):
    """GCV at each of the lambdas from the spectrum of an (n, n) matrix Sigma.

    ``w`` holds the eigenvalues of Sigma = U diag(w) U^T and ``z2`` the
    squares of z = U^T r.  With s = n*lambda / (w + n*lambda),
    I - A = U diag(s) U^T, so (1/n)||r - A r||^2 = sum(s^2 z^2) / n and
    tr(I - A) = sum(s) (Golub, Heath & Wahba 1979).  A score is NaN where
    tr(I - A) <= 1e-12 * n.  ``w`` and ``z2`` may carry leading stack axes,
    (..., n); the scores are then (..., len(lams)).
    """
    n = w.shape[-1]
    nlam = n * np.asarray(lams, dtype=float)[:, None]
    s = nlam / (w[..., None, :] + nlam)
    tr_resid = np.sum(s, axis=-1)
    score = np.full(tr_resid.shape, np.nan)
    rss = ((s * s) @ z2[..., None])[..., 0]
    np.divide(rss / n, (tr_resid / n) ** 2, out=score, where=tr_resid > 1e-12 * n)
    return score


def _spectrum(kernel, x):
    """``(gram, w, u)``: the Gram matrix Sigma of the design ``x`` under ``kernel``
    and its eigendecomposition Sigma = U diag(w) U^T, which every level pick reads."""
    gm = gram(kernel, x)
    w, u = np.linalg.eigh(gm.values)
    return gm, w, u


def _gcv_level(w, u, r):
    """``(lam, z)``: the ``DEFAULT_LAMBDA_GRID`` level minimizing GCV of residuals r
    on the spectrum ``(w, u)``, ties to the larger, and z = U^T r.

    No grid value has a degenerate trace: the jittered Gram matrix has
    eigenvalues in (0, n(1 + DEFAULT_JITTER)], so tr(I - A)/n is at least
    about 1e-8 at the grid floor, far above the 1e-12 cut.  With leading
    stack axes on ``w``, ``u`` and ``r``, each row has its slice's bits.
    """
    z = (np.swapaxes(u, -1, -2) @ r[..., None])[..., 0]
    score = _spectral_gcv(w, z**2, DEFAULT_LAMBDA_GRID)
    # ascending grid: the first minimum of the reversed scores is the largest tied lambda
    return DEFAULT_LAMBDA_GRID[-1 - np.argmin(score[..., ::-1], axis=-1)], z


def gcv_score(data, eta_at_x, kernel, lam):
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
    _, w, u = _spectrum(kernel, data.x)
    z = u.T @ _residuals(data, eta_at_x)
    score = float(_spectral_gcv(w, z**2, [lam])[0])
    if np.isnan(score):
        raise DegenerateTrace(f"tr(I - A) <= 1e-12 * n at lambda = {lam:.3e}")
    return score


def _ridge_gcv_coef(sigma, r):
    """The GCV-tuned ridge fit of r against the (n, n) Gram matrix sigma, from one
    eigendecomposition sigma = U diag(w) U^T: c = U (z / (w + n*lambda)), z = U^T r.

    Returns ``(lam, coef)``: ``_gcv_level``'s level, and the coefficients.  They
    are less accurate than ``ridge_factor``'s solve: at lambda = 1e-8, on the
    first 40 designs of acceptance criterion 5 (n from 5 to 50) against a
    40-digit solve, max |c - c_ref| / max |c_ref| was 3.7e-8 here and 7.6e-10
    for the Cholesky solve.  A stack (..., n, n) of ``sigma``
    with residuals (..., n) is fitted by one ``eigh`` call, each row of the
    levels (...) and coefficients (..., n) with the bits of its slice's own call.
    """
    w, u = np.linalg.eigh(sigma)
    lam, z = _gcv_level(w, u, r)
    scaled = z / (w + r.shape[-1] * lam[..., None])
    return lam, (u @ scaled[..., None])[..., 0]


def select_lambda_gcv(data, eta_at_x, kernel):
    """Pick the smoothing level in ``DEFAULT_LAMBDA_GRID`` minimizing GCV.

    Ties are broken toward the larger lambda (more smoothing).
    """
    _, w, u = _spectrum(kernel, data.x)
    return float(_gcv_level(w, u, _residuals(data, eta_at_x))[0])


def _fit_gcv(data, eta_at_x, kernel, spectrum):
    """``fit_ridge_gcv`` on ``spectrum``, the ``_spectrum(kernel, data.x)`` of a caller
    that fits several residuals on one design."""
    gm, w, u = spectrum
    r = _residuals(data, eta_at_x)
    lam = float(_gcv_level(w, u, r)[0])
    coef = solve_spd(ridge_factor(gm, lam), r)
    return lam, DiscrepancyFit(coef=coef, kernel=kernel, train_x=data.x)


def fit_ridge_gcv(data, eta_at_x, kernel):
    """The GCV-tuned discrepancy fit ``(lam, fit)``: ``select_lambda_gcv``'s level
    and ``fit_ridge``'s ``DiscrepancyFit`` at it, from one Gram matrix."""
    return _fit_gcv(data, eta_at_x, kernel, _spectrum(kernel, data.x))
