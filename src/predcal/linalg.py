"""Dense symmetric positive-definite solves and matrix exponentials.

The package's SPD solves route through the helpers here: a Cholesky
factorization, never an explicit inverse.  Dense factorizations are
delegated to LAPACK through scipy.  ``cholesky`` takes its input as
given, with no symmetrization and no retry: the ridge matrix
Sigma + n*lambda I (``regression.ridge_factor``) is positive definite by
construction, and the one bare Gram matrix the package factors, the
norm surrogate's grid in ``kernels``, escalates its own jitter.  The
matrix exponential is scipy's ``expm``, taken over a whole stack of
matrices in one call (the ion model passes one matrix per design point).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, expm
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


def matrix_exponential(a):
    """Matrix exponential of a square matrix, or of each k x k slice of ``(..., k, k)``.

    Delegates to ``scipy.linalg.expm``: scaling and squaring with a Pade
    approximant whose degree and scaling are chosen per slice (Al-Mohy and
    Higham 2009), so a slice of a stack gets the same bits as a lone call.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch("expected a square matrix or a stack of them")
    return expm(a)
