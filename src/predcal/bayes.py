"""Bayesian view of calibration for models linear in the parameter.

For eta(x, theta) = sum_j theta_j h_j(x), place independent priors
theta ~ N(0, alpha I) and a Gaussian process prior with covariance
beta K on the discrepancy, with N(0, sigma2) observation noise.  The
posterior mean of the physical response at x is then

    E[zeta(x) | Y] = [ (alpha/beta) h(x)^T T^T + k(x)^T ]
                     [ (alpha/beta) T T^T + Sigma + n*lambda I ]^{-1} Y,

where T is the basis matrix at the design, k(x) the kernel vector, and
lambda = sigma2 / (n beta).  As alpha grows the parametric part becomes
unpenalized and the posterior mean converges to the partial-spline
predictor computed by :func:`partial_spline_limit`; the limit is always
evaluated through its own closed form, never by plugging in a huge alpha.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .kernels import gram, kernel_apply, kernel_cross
from .linalg import _as_points, _is_real, solve_spd
from .regression import DiscrepancyFit, ridge_factor

__all__ = [
    "RankDeficientBasis",
    "LinearComputerModel",
    "BayesHyper",
    "posterior_mean",
    "partial_spline_limit",
    "verify_proposition_limit",
]


class RankDeficientBasis(Exception):
    """The basis matrix is numerically rank deficient at the design."""


@dataclass(frozen=True)
class LinearComputerModel:
    """A computer model that is a linear combination of fixed basis maps.

    Each basis function maps an (m, d) array of points to m values.
    """

    basis: Tuple[Callable, ...]

    def __post_init__(self):
        if len(self.basis) < 1:
            raise ValueError("at least one basis function is required")

    @property
    def p(self):
        return len(self.basis)

    def basis_matrix(self, x):
        """The (m, p) matrix of basis values at an (m, d) array of points."""
        x = _as_points(x)
        cols = [np.asarray(h(x), dtype=float).reshape(-1) for h in self.basis]
        t = np.column_stack(cols)
        if t.shape[0] != x.shape[0]:
            raise ValueError("basis functions must return one value per point")
        return t


@dataclass(frozen=True)
class BayesHyper:
    """Prior scales: parameter variance, process variance, noise variance."""

    alpha: float
    beta: float
    sigma2: float

    def __post_init__(self):
        for name in ("alpha", "beta", "sigma2"):
            value = getattr(self, name)
            if not (_is_real(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0")

    def induced_lambda(self, n):
        """The ridge level sigma2 / (n beta) implied by the priors."""
        return self.sigma2 / (n * self.beta)


def _basis_system(data, model, kernel, lam):
    """T, the Cholesky factor of M = Sigma + n*lam I, M^{-1} T and T^T M^{-1} T."""
    t = model.basis_matrix(data.x)
    factor = ridge_factor(gram(kernel, data.x), lam)
    w = solve_spd(factor, t)  # one solve per basis column
    g = t.T @ w
    return t, factor, w, 0.5 * (g + g.T)


def _solve(data, system, ridge):
    """theta and the kernel coefficients c from a :func:`_basis_system`:

        theta = (T^T M^{-1} T + ridge I)^{-1} T^T M^{-1} Y,
        c     = M^{-1} (Y - T theta).

    ``ridge`` is beta/alpha for the posterior mean and 0 for the
    partial-spline limit, which needs T^T M^{-1} T nonsingular.

    Raises
    ------
    RankDeficientBasis
        If ridge is 0 and T^T M^{-1} T has a numerically zero eigenvalue
        (below 1e-10).
    """
    t, factor, w, g = system
    if ridge == 0:
        eig0 = np.linalg.eigvalsh(g)[0]
        if eig0 <= 1e-10:
            raise RankDeficientBasis(f"smallest eigenvalue of T^T M^-1 T is {eig0:.3e}")
    theta = np.linalg.solve(g + ridge * np.eye(g.shape[0]), w.T @ data.y)
    return theta, solve_spd(factor, data.y - t @ theta)


def posterior_mean(data, model, kernel, hyper, x):
    """Posterior mean of the physical response at an (m, d) array of points; returns (m,).

    Evaluated in the p x p form of the module formula (Woodbury identity):
    with M = Sigma + n*lambda I,

        theta_t = (T^T M^{-1} T + (beta/alpha) I)^{-1} T^T M^{-1} Y,
        mean(x) = h(x)^T theta_t + k(x)^T M^{-1} (Y - T theta_t).

    The n x n matrix factored is M alone: adding (alpha/beta) T T^T to it
    would cost digits as alpha grows.
    """
    system = _basis_system(data, model, kernel, hyper.induced_lambda(data.n))
    theta, coef = _solve(data, system, hyper.beta / hyper.alpha)
    return model.basis_matrix(x) @ theta + kernel_apply(kernel, x, data.x, coef)


def partial_spline_limit(data, model, kernel, lam):
    """Partial-spline solution: unpenalized basis part plus kernel part.

    Solves, in closed form, the joint penalized least squares problem

        min_{theta, c} (1/n) ||Y - T theta - Sigma c||^2 + lam c^T Sigma c

    whose stationary equations give, with M = Sigma + n*lam I,

        theta_hat = (T^T M^{-1} T)^{-1} T^T M^{-1} Y,
        c         = M^{-1} (Y - T theta_hat).

    Returns
    -------
    (theta_hat, DiscrepancyFit)

    Raises
    ------
    RankDeficientBasis
        If T^T M^{-1} T has a numerically zero eigenvalue (below 1e-10).
    """
    theta, coef = _solve(data, _basis_system(data, model, kernel, lam), 0.0)
    return theta, DiscrepancyFit(coef=coef, kernel=kernel, train_x=data.x)


def verify_proposition_limit(data, model, kernel, alphas, beta, sigma2, test_points):
    """Deviation of the posterior mean from its diffuse-parameter limit.

    For each alpha in the increasing grid, computes the maximum absolute
    difference over the (m, d) ``test_points`` between the posterior
    mean and the partial-spline predictor at lambda = sigma2/(n beta).
    One factored system and one set of basis and kernel values at the
    test points serve the limit and every alpha.

    Returns
    -------
    ndarray
        One deviation per alpha; the sequence decreases toward zero as
        alpha grows.
    """
    alphas = np.asarray(alphas, dtype=float)
    if alphas.size < 1:
        raise ValueError("alpha grid is empty")
    # np.diff lets a NaN through, so every value is checked on its own first
    if not (np.all(np.isfinite(alphas)) and np.all(alphas > 0)):
        raise ValueError("alpha grid values must be finite and > 0")
    if np.any(np.diff(alphas) <= 0):
        raise ValueError("alpha grid must be strictly increasing")

    # beta and sigma2 are checked before anything is factored
    hyper = BayesHyper(alpha=float(alphas[0]), beta=beta, sigma2=sigma2)
    system = _basis_system(data, model, kernel, hyper.induced_lambda(data.n))
    h, k = model.basis_matrix(test_points), kernel_cross(kernel, test_points, data.x)

    def mean_at(ridge):
        theta, coef = _solve(data, system, ridge)
        return h @ theta + k @ coef

    limit = mean_at(0.0)
    devs = np.empty(alphas.size)
    for i, alpha in enumerate(alphas):
        devs[i] = float(np.max(np.abs(mean_at(beta / alpha) - limit)))
    return devs
