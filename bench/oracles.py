"""Reference computations for the benchmark's output checks.

Everything here is written in plain numpy/scipy from the definitions in
the paper, without calling predcal, so that a check compares the
program against an independent computation rather than against itself.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

# ex1 of the paper: zeta(x) = exp(pi x / 5) sin(2 pi x) and
# eta(x, theta) = zeta(x) - sqrt(theta^2 - theta + 1) (sin 2 pi theta x + cos 2 pi theta x),
# so the gap f = zeta - eta is a pure two-term wave.
EX1_THETA_BOX = (-1.0, 1.0)


def matern32(x, y, psi):
    """Matern-3/2 kernel matrix between point sets of shape (m, d) and (n, d)."""
    x = np.atleast_2d(x)
    y = np.atleast_2d(y)
    r = np.sqrt(np.maximum(np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=2), 0.0))
    q = r / psi
    return (1.0 + q) * np.exp(-q)


def ex1_gap(x, theta):
    """f(x) = zeta(x) - eta(x, theta) and its first two x-derivatives.

    ``x`` has shape (m,), ``theta`` shape (k,); results have shape (k, m).
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))[:, None]
    amp = np.sqrt(theta * theta - theta + 1.0)
    w = 2.0 * np.pi * theta
    s, c = np.sin(w * x), np.cos(w * x)
    f = amp * (s + c)
    f1 = amp * w * (c - s)
    f2 = -amp * w * w * (s + c)
    return f, f1, f2


def gauss_legendre(a, b, nodes):
    """Gauss-Legendre nodes and weights on [a, b]."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * (b - a)
    return a + half * (t + 1.0), half * w


def matern32_norm_sq(f0, f1_0, integrand_sq_integral, psi):
    """Closed-form squared Matern-3/2 RKHS norm of a function restricted to [0, 1].

    ``||f||^2 = f(0)^2 + psi^2 f'(0)^2 + (psi^3 / 4) int_0^1 (f'' + 2 f'/psi + f/psi^2)^2 dt``,
    from the state-space form of the Matern-3/2 process; the caller
    supplies f(0), f'(0) and the integral.
    """
    return f0 * f0 + psi * psi * f1_0 * f1_0 + 0.25 * psi**3 * integrand_sq_integral


def ex1_rkhs_norm_sq(thetas, psi, nodes=200):
    """Closed-form squared RKHS norm of the ex1 gap at each theta."""
    x, w = gauss_legendre(0.0, 1.0, nodes)
    f, f1, f2 = ex1_gap(x, thetas)
    op = f2 + 2.0 * f1 / psi + f / psi**2
    integral = (op * op) @ w
    f_0, f1_0, _ = ex1_gap(np.zeros(1), thetas)
    return matern32_norm_sq(f_0[:, 0], f1_0[:, 0], integral, psi)


def interpolant_norm_sq(nodes_x, coef, psi, gl_nodes=24):
    """Closed-form norm of h(t) = sum_i coef_i K(nodes_x_i, t), integrated piecewise.

    The integrand is smooth between interpolation nodes, so Gauss-Legendre
    on each piece is exact to rounding.
    """
    nodes_x = np.asarray(nodes_x, dtype=float)

    def h_and_derivs(t):
        u = t[:, None] - nodes_x[None, :]
        a = np.abs(u) / psi
        e = np.exp(-a)
        k0 = (1.0 + a) * e
        k1 = -(u / psi**2) * e
        k2 = (a - 1.0) / psi**2 * e
        return k0 @ coef, k1 @ coef, k2 @ coef

    cuts = np.unique(np.concatenate([[0.0, 1.0], nodes_x[(nodes_x > 0) & (nodes_x < 1)]]))
    integral = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        t, w = gauss_legendre(a, b, gl_nodes)
        h, h1, h2 = h_and_derivs(t)
        op = h2 + 2.0 * h1 / psi + h / psi**2
        integral += float((op * op) @ w)
    h0, h1_0, _ = h_and_derivs(np.zeros(1))
    return matern32_norm_sq(float(h0[0]), float(h1_0[0]), integral, psi)


def ex1_min_l2_gap(nodes=200):
    """min over theta in the ex1 box of int_0^1 (eta(x, theta) - zeta(x))^2 dx.

    A dense theta scan followed by golden-section refinement of the best
    bracket; returns (theta, value, max_sd) where max_sd bounds the
    standard deviation of the squared gap under uniform x over the box,
    which sets the Monte Carlo allowance of a PMSE estimate.
    """
    x, w = gauss_legendre(0.0, 1.0, nodes)

    def l2(th):
        f, _, _ = ex1_gap(x, th)
        return (f * f) @ w

    grid = np.linspace(*EX1_THETA_BOX, 2001)
    vals = l2(grid)
    i = int(np.argmin(vals))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    g = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(80):
        a = hi - g * (hi - lo)
        b = lo + g * (hi - lo)
        if l2(np.array([a]))[0] <= l2(np.array([b]))[0]:
            hi = b
        else:
            lo = a
    theta = 0.5 * (lo + hi)
    f, _, _ = ex1_gap(x, grid)
    second = (f**4) @ w
    max_sd = float(np.sqrt(np.max(second - vals * vals)))
    return theta, float(l2(np.array([theta]))[0]), max_sd


def gcv_curve(gram_values, r, grid):
    """GCV score over a lambda grid from one eigendecomposition.

    With Sigma = U diag(s) U^T and z = U^T r, the influence matrix acts as
    s / (s + n lambda) on z, so every lambda costs O(n).  Values whose
    denominator trace is below 1e-12 n are returned as +inf.
    """
    n = r.shape[0]
    s, u = np.linalg.eigh(gram_values)
    z = u.T @ r
    nlam = n * np.asarray(grid, dtype=float)[:, None]
    shrink = nlam / (s[None, :] + nlam)
    rss = np.sum((shrink * z[None, :]) ** 2, axis=1) / n
    tr = np.sum(shrink, axis=1)
    score = rss / (tr / n) ** 2
    score[tr <= 1e-12 * n] = np.inf
    return score


def gcv_dense(gram_values, r, lam):
    """GCV score of one lambda from an explicit inverse (slow reference)."""
    n = r.shape[0]
    a = gram_values @ np.linalg.inv(gram_values + n * lam * np.eye(n))
    resid = r - a @ r
    tr = n - np.trace(a)
    return (resid @ resid / n) / (tr / n) ** 2


def gcv_argmin(gram_values, r, grid):
    """Grid lambda of least GCV score, ties going to the larger lambda."""
    grid = np.sort(np.asarray(grid, dtype=float))
    score = gcv_curve(gram_values, r, grid)
    best = np.flatnonzero(score == np.min(score))[-1]
    return float(grid[best]), score


def ion_generator(theta):
    """Rate matrix of the four-state channel model."""
    t1, t2, t3 = theta
    return np.array(
        [
            [-t2 - t3, t1, 0.0, 0.0],
            [t2, -t1 - t2, t1, 0.0],
            [0.0, t2, -t1 - t2, t1],
            [0.0, 0.0, t2, -t1],
        ]
    )


def ion_response(x, theta):
    """exp(e^x A(theta))[0, 3] at each log time in ``x``, via scipy's expm."""
    a = ion_generator(theta)
    return np.array([expm(math.exp(xi) * a)[0, 3] for xi in np.ravel(x)])


def weighted_misfit(x, y, eta_at_x, psi, lam, jitter):
    """r^T (K + jitter I + n lam I)^{-1} r with r = y - eta, Matern-3/2 K."""
    n = y.shape[0]
    r = y - eta_at_x
    m = matern32(x, x, psi) + (jitter + n * lam) * np.eye(n)
    return float(r @ np.linalg.solve(m, r))


def quadratic_basis(x):
    x = np.ravel(x)
    return np.column_stack([np.ones_like(x), x, x * x])


def flat_prior_limit(x, y, psi, lam, jitter, basis=quadratic_basis):
    """Partial-spline parameter and coefficients from a p x p solve.

    theta = (T^T M^-1 T)^-1 T^T M^-1 Y and c = M^-1 (Y - T theta), with
    M = K + jitter I + n lam I; M is never updated by a large alpha.
    """
    n = y.shape[0]
    t = basis(x)
    m = matern32(x, x, psi) + (jitter + n * lam) * np.eye(n)
    mt = np.linalg.solve(m, t)
    my = np.linalg.solve(m, y)
    theta = np.linalg.solve(t.T @ mt, t.T @ my)
    coef = np.linalg.solve(m, y - t @ theta)
    return theta, coef


def flat_prior_posterior(x, y, psi, lam, jitter, alpha_over_beta, basis=quadratic_basis):
    """Posterior-mean parameter and coefficients at a finite alpha, stably.

    theta = (T^T M^-1 T + (beta/alpha) I)^-1 T^T M^-1 Y, so the large
    alpha/beta never enters a matrix that is factored.
    """
    n = y.shape[0]
    t = basis(x)
    m = matern32(x, x, psi) + (jitter + n * lam) * np.eye(n)
    mt = np.linalg.solve(m, t)
    my = np.linalg.solve(m, y)
    g = t.T @ mt + np.eye(t.shape[1]) / alpha_over_beta
    theta = np.linalg.solve(g, t.T @ my)
    coef = np.linalg.solve(m, y - t @ theta)
    return theta, coef
