"""Dense symmetric positive-definite solves and matrix exponentials.

The package's SPD solves route through the helpers here: a Cholesky
factorization, never an explicit inverse.  Dense factorizations are
delegated to LAPACK through scipy.linalg, the one part of scipy the
package imports.  ``cholesky`` and ``solve_spd`` call LAPACK ``potrf``
and ``potrs`` directly, the calls ``scipy.linalg.cholesky`` and
``cho_solve`` make behind their checks, so they have those functions'
bits at a few microseconds less per call.  A quadratic
form b^T A^{-1} b needs only half a solve: with A = L L^T it is
||L^{-1} b||^2, one triangular solve (``solve_lower``, LAPACK ``trtrs``).
``cholesky`` takes its input as given, with no symmetrization and no
retry: the ridge matrix Sigma + n*lambda I (``regression.ridge_factor``)
is positive definite by construction, and the one bare Gram matrix the
package factors, the norm surrogate's grid in ``kernels``, escalates its
own jitter.  The matrix exponential is a Pade-13 scaling and squaring
(Higham 2005) taken over a whole stack of matrices at once, with each
slice scaled by its own power of two; the ion model passes one matrix
per design point.  ``scipy.linalg.expm`` is its oracle in the tests.

The package's point, box and finite-real rules live here too: a set of
points is always an (m, d) array of rows, also for d = 1, and a
parameter box always a (p, 2) array of [low, high] rows.  A 1-d array
is refused, never read as one point or as one box row.  A real
parameter (a level, a scale) is a finite ``numbers.Real`` that is not a
bool (``_is_real``), so a string is refused with the checker's ValueError.

Importing this module, and so importing predcal, pins the OpenBLAS
builds bundled with numpy and with scipy to one thread for the whole
process.  The package's matrices are small (at most 400 rows, mostly
40-50, and 4 x 4 stacks for the ion model), and there idle BLAS threads
spin and contend more than they help.  On a 2-CPU machine an isolated
400 x 400 ``eigh`` took 8.7 ms on 2 threads and 9.9 ms on 1, yet the
ridge layer's self time (the ``eigh`` of spectral GCV) in the n = 100-400
benchmark fell from 0.063 to 0.011 s per round on one thread.  The pin
also makes results independent of ``OPENBLAS_NUM_THREADS`` and of the
worker count.  A caller who wants more threads for its own large
matrices can set them back after the import, through the builds'
``scipy_openblas_set_num_threads64_`` (numpy) and
``scipy_openblas_set_num_threads`` (scipy) entry points or threadpoolctl.
"""

from __future__ import annotations

import ctypes
import glob
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np
import scipy
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

__all__ = [
    "NotPositiveDefinite",
    "DimensionMismatch",
    "CholFactor",
    "cholesky",
    "solve_spd",
    "solve_lower",
    "matrix_exponential",
]


def _one_blas_thread():
    """Pin the OpenBLAS bundled with numpy and scipy to one thread.

    Called once, when this module is imported (module notes).  A library
    or symbol that is not found is left alone.
    """
    for pkg, symbol in ((np, "scipy_openblas_set_num_threads64_"),
                        (scipy, "scipy_openblas_set_num_threads")):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), pkg.__name__ + ".libs")
        for lib in glob.glob(os.path.join(libdir, "*openblas*.so*")):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            fn.argtypes = [ctypes.c_int]
            fn.restype = None
            fn(1)


_one_blas_thread()


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


def _as_points(a, d=None):
    """``a`` as a float (m, d) array of point rows, with d columns when ``d`` is given."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or (d is not None and a.shape[1] != d):
        width = "d" if d is None else d
        raise DimensionMismatch(f"points must form an (m, {width}) array, got shape {a.shape}")
    return a


def _is_real(value):
    """Whether ``value`` is a finite ``numbers.Real`` (numpy scalars too) and no bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and abs(value) < math.inf


def _as_box(box):
    """``box`` as a float (p, 2) array of finite [low, high] rows with high > low,
    each row's max(p, 4) * (|low| + high - low) finite.

    A Nelder-Mead candidate lies within two widths of the box, its fold
    into the box takes differences of up to three widths, and a centroid
    sums p vertices of the box, so that bound keeps every number a search
    computes finite.
    """
    box = np.asarray(box, dtype=float)
    if box.ndim != 2 or box.shape[1] != 2:
        raise ValueError(f"box must have shape (p, 2), got {box.shape}")
    # in Python floats, a product that overflows is inf without a numpy warning
    scale = max(box.shape[0], 4)
    if not all(math.isfinite(scale * (abs(low) + (high - low))) for low, high in box.tolist()):
        raise ValueError(
            "box bounds must be finite and max(p, 4) * (|low| + high - low) finite, "
            f"got {box.tolist()}"
        )
    if not np.all(box[:, 1] > box[:, 0]):
        raise ValueError("box rows must satisfy high > low")
    return box


def cholesky(a):
    """Factor an SPD matrix as ``L L^T``.

    The factorization is LAPACK ``potrf``, called directly: the call that
    ``scipy.linalg.cholesky`` wraps, so the bits are its bits, the upper
    triangle of L zeroed as it returns it.

    Raises
    ------
    NotPositiveDefinite
        If LAPACK encounters a nonpositive pivot.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("expected a square matrix")
    l, info = dpotrf(a, lower=1, clean=1)
    if info > 0:
        raise NotPositiveDefinite(f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"illegal argument {-info} to LAPACK potrf")
    return CholFactor(l)


def _as_rhs(factor, b):
    b = np.asarray(b, dtype=float)
    if b.shape[0] != factor.order:
        raise DimensionMismatch(
            f"right-hand side has leading dimension {b.shape[0]}, "
            f"factor has order {factor.order}"
        )
    return b


def solve_spd(factor, b):
    """Solve ``A x = b`` given the Cholesky factor of A.

    ``b`` may be a vector or a matrix of stacked right-hand sides.  The
    solve is LAPACK ``potrs``, called directly: the call that
    ``scipy.linalg.cho_solve`` wraps, so the bits are its bits, without
    its checks and batch dispatch (about 4 us a call at n = 10).
    """
    b = _as_rhs(factor, b)
    if b.size == 0:  # LAPACK refuses an order-0 system; cho_solve returns the empty array
        return np.empty_like(b)
    x, info = dpotrs(factor.l, b, lower=1)
    if info != 0:
        raise ValueError(f"illegal argument {-info} to LAPACK potrs")
    return x


def solve_lower(factor, b):
    """``L^{-1} b`` for the Cholesky factor L of A, by one triangular solve.

    ``b`` may be a vector or a matrix of stacked right-hand sides.  With
    z = L^{-1} b, the quadratic form b^T A^{-1} b is z^T z (Golub & Van
    Loan, *Matrix Computations*, ch. 4): half the sweeps of ``solve_spd``,
    and never negative.  The solve is LAPACK ``trtrs``, called directly.
    """
    b = _as_rhs(factor, b)
    if b.size == 0:  # LAPACK refuses an order-0 system, as in solve_spd
        return np.empty_like(b)
    z, info = dtrtrs(factor.l, b, lower=1)
    if info != 0:
        raise NotPositiveDefinite(f"triangular solve failed, LAPACK trtrs info {info}")
    return z


# Pade-13 coefficients b_0..b_13 and the 1-norm up to which the degree-13
# approximant meets double precision (Higham 2005)
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def matrix_exponential(a):
    """Matrix exponential of a square matrix, or of each k x k slice of ``(..., k, k)``.

    Scaling and squaring with the [13/13] Pade approximant (Higham 2005,
    *SIAM J. Matrix Anal. Appl.* 26(4)), vectorised over the stack: each
    slice A gets its own s, the least s >= 0 with ||A||_1 / 2^s <= theta_13,
    is scaled by exactly 2^-s, and its approximant is squared s times.
    Every step is elementwise or per slice, so a slice of a stack gets the
    same bits as a lone call.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch("expected a square matrix or a stack of them")
    b = _PADE13
    norm = np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0)
    # s = ceil(log2(norm / theta_13)), clipped at 0; frexp gives it without a
    # log of zero, and an exact power of two (mantissa 0.5) needs one less
    mant, s = np.frexp(norm / _THETA13)
    s = np.maximum(s - (mant == 0.5), 0)
    a = np.ldexp(a, -s[..., None, None])
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for i in range(int(s.max(initial=0))):
        r = np.where((s > i)[..., None, None], r @ r, r)
    return r
