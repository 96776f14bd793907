"""Dense symmetric positive-definite solves and small matrix exponentials.

The package's SPD solves route through the helpers here: a Cholesky
factorization, never an explicit inverse.  Dense factorizations are
delegated to LAPACK through scipy.  ``cholesky`` takes its input as
given, with no symmetrization and no retry: the ridge matrix
Sigma + n*lambda I (``regression.ridge_factor``) is positive definite by
construction, and the one bare Gram matrix the package factors, the
norm surrogate's grid in ``kernels``, escalates its own jitter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg import cholesky as _lapack_cholesky, LinAlgError

__all__ = [
    "NotPositiveDefinite",
    "DimensionMismatch",
    "CholFactor",
    "cholesky",
    "solve_spd",
    "matrix_exponential",
]


class NotPositiveDefinite(Exception):
    """The matrix has no Cholesky factorization (a pivot was <= 0)."""


class DimensionMismatch(ValueError):
    """Operand shapes are incompatible."""


@dataclass
class CholFactor:
    """Lower-triangular Cholesky factor L with A = L L^T."""

    l: np.ndarray

    @property
    def order(self):
        return self.l.shape[0]


def _as_square_array(a):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("expected a square matrix")
    return a


def cholesky(a):
    """Factor an SPD matrix as ``L L^T``.

    Raises
    ------
    NotPositiveDefinite
        If LAPACK encounters a nonpositive pivot.
    """
    m = _as_square_array(a)
    try:
        l = _lapack_cholesky(m, lower=True, check_finite=False)
    except LinAlgError as err:
        raise NotPositiveDefinite(str(err)) from err
    return CholFactor(l)


def solve_spd(factor, b):
    """Solve ``A x = b`` given the Cholesky factor of A.

    ``b`` may be a vector or a matrix of stacked right-hand sides.
    """
    b = np.asarray(b, dtype=float)
    if b.shape[0] != factor.order:
        raise DimensionMismatch(
            f"right-hand side has leading dimension {b.shape[0]}, "
            f"factor has order {factor.order}"
        )
    return cho_solve((factor.l, True), b, check_finite=False)


# Diagonal Pade(6,6) coefficients of exp.
_PADE6 = (1.0, 1 / 2, 5 / 44, 1 / 66, 1 / 792, 1 / 15840, 1 / 665280)


def matrix_exponential(a):
    """Matrix exponential of a small square matrix (order <= 8).

    Pade(6,6) approximation with scaling and squaring: the argument is
    halved until its 1-norm is at most 0.5, the rational approximant is
    evaluated there, and the result is squared back up.  At that norm the
    approximant is accurate to well below 1e-10 relative error.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("expected a square matrix")
    if a.shape[0] > 8:
        raise ValueError("matrix_exponential is restricted to order <= 8")
    norm1 = float(np.max(np.sum(np.abs(a), axis=0))) if a.size else 0.0
    squarings = 0
    if norm1 > 0.5:
        squarings = int(np.ceil(np.log2(norm1 / 0.5)))
    b = a / (2.0**squarings)

    n = a.shape[0]
    term = np.eye(n)
    num = _PADE6[0] * term
    den = _PADE6[0] * term
    sign = 1.0
    for c in _PADE6[1:]:
        term = term @ b
        sign = -sign
        num += c * term
        den += sign * c * term
    e = np.linalg.solve(den, num)
    for _ in range(squarings):
        e = e @ e
    return e
