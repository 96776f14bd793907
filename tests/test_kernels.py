"""Kernel evaluation, Gram assembly with jitter, and the norm surrogate."""

import math

import numpy as np
import pytest

from predcal import (
    DEFAULT_JITTER,
    DimensionMismatch,
    GramMatrix,
    KernelSpec,
    MAX_JITTER,
    NotPositiveDefinite,
    RngStream,
    cholesky,
    gram,
    kernel_cross,
    rkhs_norm_sq_approx,
    uniform,
)
from predcal import kernels
from predcal.kernels import _grid_factor
from predcal.systems import get_system


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("rbf", 0.3, 1)
    for psi in (0.0, -0.3, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="psi"):
            KernelSpec("matern32", psi, 1)
    with pytest.raises(ValueError):
        KernelSpec("matern32", 0.3, 0)


def test_kernel_cross_closed_forms():
    k = kernel_cross(KernelSpec("matern32", 0.25, 1), [[0.4], [0.0]], [[0.4], [0.25]])
    assert k[0, 0] == 1.0
    # r = psi gives 2/e
    assert k[1, 1] == pytest.approx(2.0 * math.exp(-1.0), rel=1e-14)
    # psi = 1, r = 3 gives 4 e^{-3}
    k3 = kernel_cross(KernelSpec("matern32", 1.0, 1), [[0.0]], [[3.0]])
    assert k3[0, 0] == pytest.approx(4.0 * math.exp(-3.0), rel=1e-14)


def test_kernel_cross_euclidean_distance_in_2d():
    spec = KernelSpec("matern32", 0.5, 2)
    r = math.sqrt(0.3**2 + 0.4**2)
    want = (1.0 + r / 0.5) * math.exp(-r / 0.5)
    assert kernel_cross(spec, [[0.0, 0.0]], [[0.3, 0.4]])[0, 0] == pytest.approx(want, rel=1e-14)


def test_kernel_cross_symmetry_on_sampled_pairs():
    spec = KernelSpec("matern32", 0.3, 2)
    pts = uniform(RngStream(17), 2, size=20)
    x, y = pts[0::2], pts[1::2]
    assert np.array_equal(kernel_cross(spec, x, y), kernel_cross(spec, y, x).T)


def test_kernel_cross_dimension_mismatch():
    spec = KernelSpec("matern32", 0.3, 2)
    with pytest.raises(DimensionMismatch):
        kernel_cross(spec, [[0.1]], [[0.2]])
    with pytest.raises(DimensionMismatch):
        kernel_cross(spec, [[0.1, 0.2]], [[0.2]])


def test_gram_single_point_and_diagonal():
    spec = KernelSpec("matern32", 0.3, 1)
    gm = gram(spec, [[0.5]])
    assert gm.values.shape == (1, 1)
    assert gm.values[0, 0] == pytest.approx(1.0 + DEFAULT_JITTER)


def test_gram_matches_elementwise_kernel_oracle():
    spec = KernelSpec("matern32", 0.4, 1)
    pts = np.array([[0.1], [0.35], [0.9]])
    for gm in (GramMatrix(kernel_cross(spec, pts, pts), 0.0), gram(spec, pts)):
        for i in range(3):
            for j in range(3):
                r = abs(pts[i, 0] - pts[j, 0])
                want = (1.0 + r / 0.4) * math.exp(-r / 0.4) + (0.0 if i != j else gm.jitter)
                assert gm.values[i, j] == pytest.approx(want, abs=1e-15)


def test_gram_positive_definite_on_random_designs():
    for d, n, seed in ((1, 500, 31), (2, 300, 32)):
        spec = KernelSpec("matern32", 0.3 * math.sqrt(d), d)
        pts = uniform(RngStream(seed), d, size=n)
        gm = gram(spec, pts)
        assert gm.values.shape == (n, n)
        cholesky(gm.values)  # would raise NotPositiveDefinite on failure


def test_kernel_cross_shape_and_consistency():
    spec = KernelSpec("matern32", 0.3, 1)
    x = np.array([[0.1], [0.2]])
    y = np.array([[0.3], [0.7], [0.9]])
    k = kernel_cross(spec, x, y)
    assert k.shape == (2, 3)
    assert k[1, 2] == pytest.approx((1.0 + 0.7 / 0.3) * math.exp(-0.7 / 0.3), rel=1e-14)


def test_norm_surrogate_zero_function():
    spec = KernelSpec("matern32", 0.3, 1)
    assert rkhs_norm_sq_approx(spec, lambda x: np.zeros(len(x)), 50) == 0.0


def test_norm_surrogate_reproducing_section():
    # g = K(x0, .) has unit squared norm; the surrogate approaches it from below
    spec = KernelSpec("matern32", 0.3, 1)
    x0 = np.array([[0.41]])
    g = lambda pts: kernel_cross(spec, pts, x0)[:, 0]
    val = rkhs_norm_sq_approx(spec, g, 200)
    assert 0.99 <= val <= 1.0 + 1e-6


def test_norm_surrogate_monotone_under_nested_refinement():
    # the 41-point grid is a subset of the 201-point grid (k/40 = 5k/200)
    spec = KernelSpec("matern32", 0.3, 1)
    sys1 = get_system("ex1")
    g = lambda pts: sys1.zeta(pts)
    coarse = rkhs_norm_sq_approx(spec, g, 41)
    fine = rkhs_norm_sq_approx(spec, g, 201)
    assert fine >= coarse - 1e-9


def test_norm_surrogate_constant_function_closed_form():
    # exact squared native norm of the constant 1 on [0,1] is 1 + 1/(4 psi)
    for psi in (0.16, 0.3, 0.5):
        spec = KernelSpec("matern32", psi, 1)
        val = rkhs_norm_sq_approx(spec, lambda x: np.ones(len(x)), 400)
        exact = 1.0 + 1.0 / (4.0 * psi)
        assert val <= exact + 1e-9
        assert val == pytest.approx(exact, rel=5e-3)


def _refusing_cholesky(min_jitter):
    """A cholesky that refuses any matrix whose diagonal jitter is below ``min_jitter``."""

    def refusing(a):
        # every Matern-3/2 diagonal entry is 1, so the jitter is diag - 1
        if np.min(np.diag(a)) - 1.0 < min_jitter:
            raise NotPositiveDefinite("refused by the test")
        return cholesky(a)

    return refusing


def test_norm_surrogate_escalates_jitter_on_singular_grid(monkeypatch):
    # at psi = 1e8 every kernel entry on [0,1] is 1 to within an ulp, so the
    # grid matrix is the all-ones matrix J; with factorizations refused below
    # a jitter of 5e-7 the jitter escalates from DEFAULT_JITTER to 1e-6, and
    # 1^T (J + eps I)^{-1} 1 = m / (m + eps)
    spec = KernelSpec("matern32", 1e8, 1)
    pts = np.linspace(0.0, 1.0, 50).reshape(-1, 1)
    assert np.max(np.abs(kernel_cross(spec, pts, pts) - 1.0)) <= 2.3e-16
    one = lambda x: np.ones(len(x))
    kernels._grid_factor.cache_clear()
    try:
        monkeypatch.setattr(kernels, "cholesky", _refusing_cholesky(5e-7))
        val = rkhs_norm_sq_approx(spec, one, 50)
        assert val == pytest.approx(50.0 / (50.0 + 1e-6), rel=1e-9)
        kernels._grid_factor.cache_clear()
        monkeypatch.setattr(kernels, "cholesky", _refusing_cholesky(np.inf))
        with pytest.raises(NotPositiveDefinite, match=f"even at jitter {MAX_JITTER}"):
            rkhs_norm_sq_approx(spec, one, 50)
    finally:
        kernels._grid_factor.cache_clear()


def test_norm_surrogate_matches_dense_solve_across_grid_sizes():
    # interleaved grid sizes: a factor cached for one grid never serves another
    spec = KernelSpec("matern32", 0.16, 1)
    g = lambda pts: np.sin(5.0 * pts[:, 0]) + pts[:, 0] ** 2
    for m in (200, 399, 200):
        pts = np.linspace(0.0, 1.0, m).reshape(-1, 1)
        vals = g(pts)
        want = vals @ np.linalg.solve(gram(spec, pts).values, vals)
        assert rkhs_norm_sq_approx(spec, g, m) == pytest.approx(want, rel=1e-8)
    # the cached grid and factor are shared by every caller, so they cannot be written
    pts, factor = _grid_factor(spec, 200)
    assert not pts.flags.writeable and not factor.l.flags.writeable


def test_norm_surrogate_builds_its_grid_once(monkeypatch):
    built = []
    unit_grid = kernels._unit_grid

    def counting_grid(dim, grid_size):
        built.append(grid_size)
        return unit_grid(dim, grid_size)

    monkeypatch.setattr(kernels, "_unit_grid", counting_grid)
    kernels._grid_factor.cache_clear()
    spec = KernelSpec("matern32", 0.2, 1)
    for shift in (0.0, 0.5, 1.0):
        rkhs_norm_sq_approx(spec, lambda x, s=shift: x[:, 0] + s, 37)
    assert built == [37]


def test_norm_surrogate_2d_grid():
    spec = KernelSpec("matern32", 0.5, 2)
    val = rkhs_norm_sq_approx(spec, lambda x: np.ones(len(x)), 21)
    assert val > 0.0


def test_ex1_profile_has_the_two_documented_local_minima():
    # At the pinned profile scale the discrepancy-norm curve of the ex1
    # family has one local minimizer near each documented location; which
    # of the two is global is asserted by the acceptance gate.
    spec = KernelSpec("matern32", 0.16, 1)
    sys1 = get_system("ex1")
    thetas = np.arange(-1.0, 1.0001, 5e-3)
    vals = []
    for t in thetas:
        f = lambda pts, t=t: sys1.zeta(pts) - sys1.model.eval(pts, [t])
        vals.append(rkhs_norm_sq_approx(spec, f, 100))
    vals = np.asarray(vals)
    neg = (thetas >= -0.4) & (thetas <= 0.0)
    pos = thetas >= 0.1
    t_neg = thetas[neg][np.argmin(vals[neg])]
    t_pos = thetas[pos][np.argmin(vals[pos])]
    assert abs(t_neg - (-0.1230)) <= 0.03
    assert abs(t_pos - 0.3740) <= 0.03


def _matern32_norm_sq_on_unit_interval(f, f1, f2, psi, nodes=200):
    """Closed-form squared Matern-3/2 norm of f restricted to [0, 1]:

    f(0)^2 + psi^2 f'(0)^2 + (psi^3 / 4) int_0^1 (f'' + 2 f'/psi + f/psi^2)^2 dt,
    with the integral by Gauss-Legendre quadrature (``f1`` and ``f2`` are
    the first two derivatives).
    """
    t, w = np.polynomial.legendre.leggauss(nodes)
    t, w = 0.5 * (t + 1.0), 0.5 * w
    op = f2(t) + 2.0 * f1(t) / psi + f(t) / psi**2
    return f(0.0) ** 2 + psi**2 * f1(0.0) ** 2 + 0.25 * psi**3 * float((op * op) @ w)


def test_norm_surrogate_approaches_the_closed_form_norm_from_below():
    # criterion 3's profile scale and its two reported minimizers; the ex1
    # gap zeta - eta is the wave a (sin wx + cos wx), a^2 = t^2 - t + 1, w = 2 pi t
    psi = 0.16
    spec = KernelSpec("matern32", psi, 1)
    sys1 = get_system("ex1")
    one = lambda x: np.ones_like(np.asarray(x, dtype=float))
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    # the closed form reproduces the constant's known norm 1 + 1/(4 psi)
    assert _matern32_norm_sq_on_unit_interval(one, zero, zero, psi) == pytest.approx(
        1.0 + 0.25 / psi, rel=1e-12
    )
    exact = {}
    for theta in (-0.126, 0.374):
        a, w = np.sqrt(theta * theta - theta + 1.0), 2.0 * np.pi * theta
        f = lambda x: a * (np.sin(w * x) + np.cos(w * x))
        f1 = lambda x: a * w * (np.cos(w * x) - np.sin(w * x))
        f2 = lambda x: -a * w * w * (np.sin(w * x) + np.cos(w * x))
        exact[theta] = _matern32_norm_sq_on_unit_interval(f, f1, f2, psi)
        g = lambda pts: sys1.zeta(pts) - sys1.model.eval(pts, [theta])
        # nested grids: node spacing 1/10, 1/20, ..., 1/160
        gaps = [exact[theta] - rkhs_norm_sq_approx(spec, g, n) for n in (11, 21, 41, 81, 161)]
        assert min(gaps) >= -1e-9 * exact[theta]
        assert all(fine < coarse for coarse, fine in zip(gaps, gaps[1:]))
        assert gaps[-1] < 5e-3 * exact[theta]
    # the closed form also puts the smaller norm at -0.126 (criterion 3 expects 0.374)
    assert exact[-0.126] < exact[0.374]


def test_norm_surrogate_validates_inputs():
    spec = KernelSpec("matern32", 0.3, 1)
    with pytest.raises(ValueError):
        rkhs_norm_sq_approx(spec, lambda x: np.ones(len(x)), 1)
    with pytest.raises(DimensionMismatch):
        rkhs_norm_sq_approx(spec, lambda x: np.ones(3), 50)
