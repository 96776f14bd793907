"""Matern-3/2 kernels, kernel expansions, Gram matrices, and a grid RKHS-norm surrogate.

The kernel is K(x, y) = (1 + r/psi) * exp(-r/psi) with r the Euclidean
distance and psi > 0 the length scale.

:func:`kernel_apply` evaluates an expansion h(x) = sum_i c_i K(x, x_i).
In one dimension the Matern-3/2 kernel is Markov, the covariance of a
two-state linear stochastic differential equation (Hartikainen & Sarkka
2010, IEEE MLSP), so h splits into the sum over design nodes left of x
and the sum over nodes right of x, and each is a linear recursion along
the sorted design.  One sweep each way leaves O(1) work per query after
a ``searchsorted``, and no (m, n) kernel matrix is formed.  In higher
dimensions the expansion is the dense product ``kernel_cross(...) @ c``.

Gram matrices are returned unfactored, with the constant diagonal jitter
``DEFAULT_JITTER``: ridge solves factor Sigma + n*lambda I, which the
n*lambda term keeps positive definite (``regression.ridge_factor``).
Only the norm surrogate factors a bare Gram matrix; there the jitter
starts at ``DEFAULT_JITTER`` and escalates by factors of 10 up to
``MAX_JITTER`` before giving up.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .linalg import DimensionMismatch, NotPositiveDefinite, _as_points, cholesky, solve_spd

__all__ = [
    "DEFAULT_JITTER",
    "MAX_JITTER",
    "KernelSpec",
    "GramMatrix",
    "kernel_cross",
    "kernel_apply",
    "gram",
    "rkhs_norm_sq_approx",
]

DEFAULT_JITTER = 1e-8
MAX_JITTER = 1e-4

_FAMILIES = ("matern32",)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family, length scale, and input dimension."""

    family: str
    psi: float
    dim: int

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if not (np.isfinite(self.psi) and self.psi > 0):
            raise ValueError("length scale psi must be finite and > 0")
        if self.dim < 1:
            raise ValueError("input dimension must be >= 1")


def _mat32(r, psi):
    q = r / psi
    return (1.0 + q) * np.exp(-q)


def kernel_cross(spec, x, y):
    """Kernel matrix K(x_i, y_j) for two point sets, shapes (m,d) and (n,d)."""
    return _mat32(cdist(_as_points(x, spec.dim), _as_points(y, spec.dim)), spec.psi)


def _one_sided_sums(t, c, psi):
    """Sums over the nodes at or left of each of the ascending nodes ``t``.

    Row j + 1 holds, for node j, A_j = sum_{i <= j} c_i e^{-q} and
    A_j + B_j with B_j = sum_{i <= j} c_i q e^{-q}, q = (t_j - t_i)/psi;
    row 0 is zero, for queries with no node on this side.  With
    g_j = (t_j - t_{j-1})/psi the parts follow A_j = c_j + e^{-g_j} A_{j-1}
    and B_j = e^{-g_j} (B_{j-1} + g_j A_{j-1}); every exponent is <= 0,
    so nothing overflows.
    """
    gap = np.diff(t, prepend=t[:1]) / psi
    a, s = [0.0], [0.0]
    aj = bj = 0.0
    for e, g, cj in zip(np.exp(-gap).tolist(), gap.tolist(), c.tolist()):
        aj, bj = cj + e * aj, e * (bj + g * aj)
        a.append(aj)
        s.append(aj + bj)
    return np.array(a), np.array(s)


def kernel_apply(spec, x, train_x, coef):
    """The expansion K(x, train_x) @ coef at (m, d) points ``x``; returns (m,).

    ``train_x`` is the (n, d) design and ``coef`` its n coefficients.
    At d = 1 the sums come from two sweeps over the sorted design (see
    the module notes), so no (m, n) matrix is formed, and the result
    agrees with the dense product to rounding.  At d > 1 it is the
    dense product.
    """
    x = _as_points(x, spec.dim)
    train_x = _as_points(train_x, spec.dim)
    coef = np.asarray(coef, dtype=float).reshape(-1)
    if coef.shape[0] != train_x.shape[0]:
        raise DimensionMismatch("coef must hold one value per design point")
    if spec.dim > 1:
        return kernel_cross(spec, x, train_x) @ coef
    order = np.argsort(train_x[:, 0], kind="stable")
    t, c = train_x[order, 0], coef[order]
    a_left, s_left = _one_sided_sums(t, c, spec.psi)
    # the mirrored design gives the sums over the nodes at or right of each node
    a_right, s_right = (w[::-1] for w in _one_sided_sums(-t[::-1], c[::-1], spec.psi))
    q = x[:, 0]
    # k nodes lie at or left of a query, so row k of every table belongs to
    # it, and t_pad[k], t_pad[k + 1] are its nearest nodes on either side;
    # the clamp to 0 only acts where a side has no node and its row is zero
    k = np.searchsorted(t, q, side="right")
    t_pad = np.concatenate([t[:1], t, t[-1:]])
    u = np.maximum(q - t_pad[k], 0.0) / spec.psi
    v = np.maximum(t_pad[k + 1] - q, 0.0) / spec.psi
    return np.exp(-u) * (s_left[k] + u * a_left[k]) + np.exp(-v) * (s_right[k] + v * a_right[k])


@dataclass(frozen=True)
class GramMatrix:
    """Kernel matrix of a design with ``jitter`` added to its diagonal."""

    values: np.ndarray
    jitter: float


def gram(spec, points):
    """The kernel matrix of a design plus ``DEFAULT_JITTER`` on its diagonal, unfactored."""
    k = kernel_cross(spec, points, points)
    return GramMatrix(k + DEFAULT_JITTER * np.eye(k.shape[0]), DEFAULT_JITTER)


def _unit_grid(dim, grid_size):
    """Uniform grid on [0,1]^dim with ``grid_size`` nodes per axis."""
    axes = [np.linspace(0.0, 1.0, grid_size) for _ in range(dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.reshape(-1) for m in mesh])


@functools.lru_cache(maxsize=1)
def _grid_factor(spec, grid_size):
    """The grid and the Cholesky factor of its jittered Gram matrix, both read-only.

    Cached, since a profile evaluates many functions on one grid.  The
    jitter escalates as described in :func:`rkhs_norm_sq_approx`.
    """
    pts = _unit_grid(spec.dim, grid_size)
    base = kernel_cross(spec, pts, pts)
    j = DEFAULT_JITTER
    while True:
        try:
            factor = cholesky(base + j * np.eye(pts.shape[0]))
            break
        except NotPositiveDefinite:
            j *= 10.0
            if j > MAX_JITTER:
                raise NotPositiveDefinite(
                    f"Gram matrix not factorizable even at jitter {MAX_JITTER}"
                )
    # every caller shares the cached grid and factor
    pts.setflags(write=False)
    factor.l.setflags(write=False)
    return pts, factor


def rkhs_norm_sq_approx(spec, g, grid_size):
    """Grid surrogate for the squared RKHS norm of a function.

    Evaluates ``g`` on a uniform grid G of the unit cube and returns the
    quadratic form g(G)^T (Sigma_G + jitter I)^{-1} g(G), the squared norm
    of the minimum-norm interpolant of g on G.  The value is a lower bound
    of the true squared norm and is nondecreasing under grid refinement.
    The jitter is ``DEFAULT_JITTER``; if Sigma_G + jitter I does not
    factor, it escalates by factors of 10 up to ``MAX_JITTER``.  The
    factor is reused while ``(spec, grid_size)`` stay the same, and so is
    the grid.

    Parameters
    ----------
    spec : KernelSpec
    g : callable
        Maps an ``(m, dim)`` array of points to ``m`` values; it is given
        the cached grid, which is read-only.
    grid_size : int
        Nodes per axis (the grid has ``grid_size ** dim`` points).

    Raises
    ------
    NotPositiveDefinite
        If no jitter up to ``MAX_JITTER`` yields a factorizable matrix.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    pts, factor = _grid_factor(spec, grid_size)
    vals = np.asarray(g(pts), dtype=float).reshape(-1)
    if vals.shape[0] != pts.shape[0]:
        raise DimensionMismatch("g must return one value per grid point")
    w = solve_spd(factor, vals)
    return float(vals @ w)
