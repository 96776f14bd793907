"""Matern-3/2 kernels, Gram matrices, and a grid RKHS-norm surrogate.

The kernel is K(x, y) = (1 + r/psi) * exp(-r/psi) with r the Euclidean
distance and psi > 0 the length scale.

Gram matrices are returned unfactored, with a small diagonal jitter that
is used as given: ridge solves factor Sigma + n*lambda I, which the
n*lambda term keeps positive definite (``regression.ridge_factor``).
Only the norm surrogate factors a bare Gram matrix, and there the jitter
escalates by factors of 10 up to a hard cap before giving up.
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


@dataclass(frozen=True)
class GramMatrix:
    """Kernel matrix of a design with ``jitter`` added to its diagonal."""

    values: np.ndarray
    jitter: float


def gram(spec, points, jitter=DEFAULT_JITTER):
    """Build the kernel matrix of a design plus a diagonal jitter.

    The matrix is not factored, and the jitter is used as given.
    """
    if jitter < 0:
        raise ValueError("jitter must be >= 0")
    j = float(jitter)
    k = kernel_cross(spec, points, points)
    return GramMatrix(values=k + j * np.eye(k.shape[0]), jitter=j)


def _unit_grid(dim, grid_size):
    """Uniform grid on [0,1]^dim with ``grid_size`` nodes per axis."""
    axes = [np.linspace(0.0, 1.0, grid_size) for _ in range(dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.reshape(-1) for m in mesh])


@functools.lru_cache(maxsize=1)
def _grid_factor(spec, grid_size, jitter):
    """The grid and the Cholesky factor of its jittered Gram matrix, both read-only.

    Cached, since a profile evaluates many functions on one grid.  The
    jitter escalates as described in :func:`rkhs_norm_sq_approx`.
    """
    if jitter < 0:
        raise ValueError("jitter must be >= 0")
    pts = _unit_grid(spec.dim, grid_size)
    base = kernel_cross(spec, pts, pts)
    j = float(jitter)
    while True:
        try:
            factor = cholesky(base + j * np.eye(pts.shape[0]))
            break
        except NotPositiveDefinite:
            j = DEFAULT_JITTER if j == 0 else j * 10.0
            if j > MAX_JITTER:
                raise NotPositiveDefinite(
                    f"Gram matrix not factorizable even at jitter {MAX_JITTER}"
                )
    # every caller shares the cached grid and factor
    pts.setflags(write=False)
    factor.l.setflags(write=False)
    return pts, factor


def rkhs_norm_sq_approx(spec, g, grid_size, jitter=DEFAULT_JITTER):
    """Grid surrogate for the squared RKHS norm of a function.

    Evaluates ``g`` on a uniform grid G of the unit cube and returns the
    quadratic form g(G)^T (Sigma_G + jitter I)^{-1} g(G), the squared norm
    of the minimum-norm interpolant of g on G.  The value is a lower bound
    of the true squared norm and is nondecreasing under grid refinement.
    If Sigma_G + jitter I does not factor, the jitter escalates by factors
    of 10 (starting from ``DEFAULT_JITTER`` when 0 was requested) up to
    ``MAX_JITTER``.  The factor is reused while ``(spec, grid_size,
    jitter)`` stay the same, and so is the grid.

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
    pts, factor = _grid_factor(spec, grid_size, jitter)
    vals = np.asarray(g(pts), dtype=float).reshape(-1)
    if vals.shape[0] != pts.shape[0]:
        raise DimensionMismatch("g must return one value per grid point")
    w = solve_spd(factor, vals)
    return float(vals @ w)
