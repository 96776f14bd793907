"""Matern-3/2 kernels, kernel expansions, Gram matrices, and a grid RKHS-norm surrogate.

The kernel is K(x, y) = (1 + r/psi) * exp(-r/psi) with r the Euclidean
distance and psi > 0 the length scale.

The distances are computed in numpy by one formula for every d: the
square root of the squared coordinate differences, summed in coordinate
order.  That is the sum ``scipy.spatial.distance.cdist`` forms, so every
kernel matrix has its bits (the tests hold the two together), and
importing the package loads no scipy.spatial, which would bring
scipy.sparse, scipy.special and scipy.constants along: about 60 ms and
9 MB of every process's start-up on a 2-CPU machine.

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
``MAX_JITTER`` before giving up.  With Sigma_G + jitter I = L L^T on the
grid G, the surrogate of ||g||^2 is ||L^{-1} g(G)||^2, one triangular
solve per function on the cached factor.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .linalg import (DimensionMismatch, NotPositiveDefinite, _as_points, _is_real, cholesky,
                     solve_lower)
from .rng import _integer

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
        # bool is a number to Python; a JSON true is no length scale
        if not (_is_real(self.psi) and self.psi > 0):
            raise ValueError(f"length scale psi must be a finite number > 0, got {self.psi!r}")
        if not (isinstance(self.dim, numbers.Integral) and not isinstance(self.dim, bool)
                and self.dim >= 1):
            raise ValueError(f"input dimension must be an integer >= 1, got {self.dim!r}")


def _mat32(r, psi):
    # (1 + q) * exp(-q) with q = r / psi, in place on one scratch array: the
    # same bits, and one temporary fewer per distance chunk
    q = r / psi
    e = np.exp(-q)
    q += 1.0
    q *= e
    return q


def _distances(x, y):
    """Euclidean distances between the rows of (m, d) ``x`` and (n, d) ``y``, as (m, n).

    The squared differences are summed in coordinate order and then
    square-rooted, as ``cdist(x, y)`` does, so the bits are its bits.
    """
    r = np.subtract.outer(x[:, 0], y[:, 0])
    r *= r
    for k in range(1, x.shape[1]):
        t = np.subtract.outer(x[:, k], y[:, k])
        t *= t
        r += t
    return np.sqrt(r, out=r)


def kernel_cross(spec, x, y):
    """Kernel matrix K(x_i, y_j) for two point sets, shapes (m,d) and (n,d).

    The distances are ``scipy.spatial.distance.cdist(x, y)`` bit for bit,
    computed in numpy (module notes).
    """
    return _mat32(_distances(_as_points(x, spec.dim), _as_points(y, spec.dim)), spec.psi)


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
    """The expansion K(x, train_x) @ coef at (m, d) points ``x``; returns (m,) or (m, k).

    ``train_x`` is the (n, d) design and ``coef`` its n coefficients, or
    an (n, k) array whose column j gives the bits of ``coef[:, j]`` alone.
    At d = 1 each column takes two sweeps over the sorted design (module
    notes), so no (m, n) matrix is formed, and the result agrees with the
    dense product to rounding.  At d > 1 it is the dense product.
    """
    x, train_x = _as_points(x, spec.dim), _as_points(train_x, spec.dim)
    coef = np.asarray(coef, dtype=float)
    if coef.ndim not in (1, 2) or coef.shape[0] != train_x.shape[0]:
        raise DimensionMismatch("coef must hold one value per design point, as (n,) or (n, k)")
    # one contiguous row per column, so each column takes the path of an (n,) call
    cols = np.ascontiguousarray(coef.reshape(coef.shape[0], -1).T)
    out = np.empty((cols.shape[0], x.shape[0]))
    if spec.dim > 1:
        cross = kernel_cross(spec, x, train_x)
        for j, c in enumerate(cols):
            out[j] = cross @ c
    else:
        order = np.argsort(train_x[:, 0], kind="stable")
        t, q = train_x[order, 0], x[:, 0]
        # k nodes lie at or left of a query, so row k of every table belongs to
        # it, and t_pad[k], t_pad[k + 1] are its nearest nodes on either side;
        # the clamp to 0 only acts where a side has no node and its row is zero
        k = np.searchsorted(t, q, side="right")
        t_pad = np.concatenate([t[:1], t, t[-1:]])
        u = np.maximum(q - t_pad[k], 0.0) / spec.psi
        v = np.maximum(t_pad[k + 1] - q, 0.0) / spec.psi
        eu, ev = np.exp(-u), np.exp(-v)
        for j, c in enumerate(cols[:, order]):
            a_left, s_left = _one_sided_sums(t, c, spec.psi)
            # the mirrored design gives the sums over the nodes at or right of each node
            a_right, s_right = (w[::-1] for w in _one_sided_sums(-t[::-1], c[::-1], spec.psi))
            out[j] = eu * (s_left[k] + u * a_left[k]) + ev * (s_right[k] + v * a_right[k])
    return out[0] if coef.ndim == 1 else out.T


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


@functools.lru_cache(maxsize=8)
def _unit_cube_nodes(dim, count):
    """Midpoint tensor rule on [0,1]^dim, (i + 1/2)/k on each axis with k the largest
    integer such that k**dim <= count: a cached, read-only (k**dim, dim) array.
    Unlike ``_unit_grid``'s, these nodes are not nested under refinement."""
    k = round(count ** (1.0 / dim))  # the float root may miss by one either way
    k -= k**dim > count
    k += (k + 1) ** dim <= count
    mesh = np.meshgrid(*[(np.arange(k) + 0.5) / k] * dim, indexing="ij")
    pts = np.column_stack([m.reshape(-1) for m in mesh])
    pts.setflags(write=False)
    return pts


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
    of the minimum-norm interpolant of g on G.  It is computed as
    ||L^{-1} g(G)||^2 with L the Cholesky factor of Sigma_G + jitter I:
    one triangular solve, and never negative.  The value is a lower bound
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
    grid_size = _integer("grid_size", grid_size)
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    pts, factor = _grid_factor(spec, grid_size)
    vals = np.asarray(g(pts), dtype=float).reshape(-1)
    if vals.shape[0] != pts.shape[0]:
        raise DimensionMismatch("g must return one value per grid point")
    z = solve_lower(factor, vals)
    return float(z @ z)
