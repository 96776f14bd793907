"""Kernel evaluation, Gram assembly with jitter, and the norm surrogate."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial.distance import cdist

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
    kernel_apply,
    kernel_cross,
    rkhs_norm_sq_approx,
    uniform,
)
from predcal import kernels
from predcal.experiments import default_psi_grid
from predcal.kernels import _grid_factor, _unit_cube_nodes
from predcal.systems import get_system


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("rbf", 0.3, 1)
    for psi in (0.0, -0.3, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="psi"):
            KernelSpec("matern32", psi, 1)
    with pytest.raises(ValueError):
        KernelSpec("matern32", 0.3, 0)
    # a length scale or dimension read from JSON may be a string or a bool;
    # the string once failed inside np.isfinite with a TypeError
    for psi in ("0.3", True, None, [0.3]):
        with pytest.raises(ValueError, match="psi must be a finite number > 0"):
            KernelSpec("matern32", psi, 1)
    for dim in ("1", 1.0, True):
        with pytest.raises(ValueError, match="input dimension must be an integer"):
            KernelSpec("matern32", 0.3, dim)


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


def test_mat32_has_the_bits_of_the_closed_form():
    # the in-place form must equal (1 + r/psi) exp(-r/psi) bit for bit, also at
    # r = 0 and where exp(-r/psi) underflows (r/psi > 700)
    r = np.concatenate([[0.0, 1e-300, 0.5, 1.0], np.linspace(0.0, 3.0, 1001),
                        [7.01, 7.5, 7.46, 100.0, 1e6]]).reshape(-1, 5)
    assert np.any(r / 0.01 > 700.0)
    for psi in (0.01, 0.16, 1.0, 1e8):
        q = r / psi
        assert np.array_equal(kernels._mat32(r, psi), (1.0 + q) * np.exp(-q))
    assert kernels._mat32(np.zeros((1, 1)), 0.3)[0, 0] == 1.0


@settings(max_examples=300, deadline=None)
@given(d=st.sampled_from([1, 2, 3]), m=st.integers(0, 60), n=st.integers(0, 60),
       log_scale=st.floats(-8.0, 3.0), shared=st.integers(0, 60), seed=st.integers(0, 2**32 - 1))
@example(d=2, m=0, n=4, log_scale=0.0, shared=0, seed=0)  # empty sets give (0, n) and (m, 0)
@example(d=2, m=4, n=0, log_scale=0.0, shared=0, seed=0)
@example(d=1, m=0, n=0, log_scale=0.0, shared=0, seed=0)
def test_kernel_cross_has_the_bits_of_cdist(d, m, n, log_scale, shared, seed):
    # scipy.spatial is the distance oracle here only: the package computes
    # the distances in numpy, and no kernel matrix may move by one bit
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, d)) * 10.0**log_scale
    y = rng.uniform(-1.0, 1.0, (n, d)) * 10.0**log_scale
    k = min(shared, m, n)
    y[:k] = x[rng.permutation(m)[:k]]  # points in both sets, at distance exactly 0
    spec = KernelSpec("matern32", float(rng.choice(default_psi_grid(d))), d)
    got = kernel_cross(spec, x, y)
    assert got.shape == (m, n)
    assert np.array_equal(got, kernels._mat32(cdist(x, y), spec.psi))


def test_importing_predcal_loads_scipy_linalg_alone():
    # scipy.spatial would bring scipy.sparse and scipy.special along, about
    # 60 ms and 9 MB of every process's start-up
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = ("import sys, predcal; "
             "print(' '.join(sorted(m for m in sys.modules if m.startswith('scipy.'))))")
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    assert "scipy.linalg" in loaded
    for heavy in ("scipy.spatial", "scipy.sparse", "scipy.special"):
        assert not any(m == heavy or m.startswith(heavy + ".") for m in loaded), heavy


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


def _sweep_case(n):
    """An unsorted n-point design with an exact duplicate node (n >= 2), its
    coefficients, and queries on the nodes, inside and outside [0, 1]."""
    rng = np.random.default_rng(n)
    design = rng.random((n, 1))
    if n > 1:
        design[-1] = design[0]
    coef = rng.standard_normal(n)
    queries = np.concatenate(
        [design, rng.uniform(-0.2, 1.2, (500, 1)), [[-50.0], [0.0], [1.0], [50.0]]]
    )
    return design, coef, queries


def _assert_columns_match_their_own_calls(spec, queries, design, coef):
    """Each column of an (n, k) call, k = 1 and 3, has the bits of the
    (n,) call with that column; the first column is ``coef``."""
    rng = np.random.default_rng(coef.size)
    for k in (1, 3):
        block = np.column_stack([coef] + [rng.standard_normal(coef.size) for _ in range(k - 1)])
        got = kernel_apply(spec, queries, design, block)
        assert got.shape == (queries.shape[0], k)
        for j in range(k):
            assert np.array_equal(got[:, j], kernel_apply(spec, queries, design, block[:, j]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [1, 2, 50, 400])
@pytest.mark.parametrize("psi", [1e-3, 0.05, 0.3, 1.0, 1e8])
def test_kernel_apply_matches_the_dense_product_in_1d(psi, n):
    spec = KernelSpec("matern32", psi, 1)
    design, coef, queries = _sweep_case(n)
    dense = kernel_cross(spec, queries, design) @ coef
    got = kernel_apply(spec, queries, design, coef)
    assert got.shape == (queries.shape[0],)
    assert np.max(np.abs(got - dense)) <= 1e-12 * np.sum(np.abs(coef))
    _assert_columns_match_their_own_calls(spec, queries, design, coef)


@pytest.mark.parametrize("psi", [1e-3, 0.3, 1e8])
def test_kernel_apply_is_bitwise_chunk_invariant(psi):
    # PMSE scoring applies fits block by block; the blocks must give the
    # bits of one whole call
    spec = KernelSpec("matern32", psi, 1)
    design, coef, queries = _sweep_case(50)
    whole = kernel_apply(spec, queries, design, coef)
    for k in (1, 7, 300, queries.shape[0] - 1):
        parts = [kernel_apply(spec, queries[:k], design, coef),
                 kernel_apply(spec, queries[k:], design, coef)]
        assert np.array_equal(np.concatenate(parts), whole)


def test_kernel_apply_is_the_dense_product_in_2d():
    spec = KernelSpec("matern32", 0.4, 2)
    design = uniform(RngStream(41), 2, size=30)
    queries = uniform(RngStream(42), 2, size=60)
    coef = np.random.default_rng(43).standard_normal(30)
    want = kernel_cross(spec, queries, design) @ coef
    assert np.array_equal(kernel_apply(spec, queries, design, coef), want)
    _assert_columns_match_their_own_calls(spec, queries, design, coef)


def test_kernel_apply_checks_shapes():
    spec = KernelSpec("matern32", 0.3, 1)
    design = np.array([[0.2], [0.6]])
    with pytest.raises(DimensionMismatch, match="one value per design point"):
        kernel_apply(spec, [[0.5]], design, [1.0, 2.0, 3.0])
    for bad_x, bad_design in (([0.5], design), ([[0.5]], [0.2, 0.6]), ([[0.5, 0.5]], design)):
        with pytest.raises(DimensionMismatch):
            kernel_apply(spec, bad_x, bad_design, [1.0, 2.0])
    # a coefficient array is (n,) or (n, k), never of another rank or row count
    for bad_coef in (np.ones((2, 1, 1)), np.ones((3, 2)), np.ones((1, 2))):
        with pytest.raises(DimensionMismatch, match="one value per design point"):
            kernel_apply(spec, [[0.5]], design, bad_coef)
    assert kernel_apply(spec, np.empty((0, 1)), design, [1.0, 2.0]).shape == (0,)
    for k in (1, 3):
        assert kernel_apply(spec, np.empty((0, 1)), design, np.ones((2, k))).shape == (0, k)


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


@pytest.mark.parametrize("count, dim, k", [(1000, 3, 10), (125, 3, 5), (4096, 2, 64),
                                           (1000, 2, 31), (576, 1, 576), (1, 2, 1)])
def test_unit_cube_nodes_take_the_integer_root(count, dim, k):
    # a float root floors 1000 ** (1/3) to 9 and 125 ** (1/3) to 4
    pts = _unit_cube_nodes(dim, count)
    assert pts.shape == (k**dim, dim)
    assert np.all(pts > 0.0) and np.all(pts < 1.0)
    assert np.allclose(pts.mean(axis=0), 0.5, rtol=0.0, atol=1e-12)
    assert np.array_equal(np.unique(pts[:, -1]), (np.arange(k) + 0.5) / k)


def test_unit_cube_nodes_are_cached_and_read_only():
    pts = _unit_cube_nodes(2, 400)
    assert _unit_cube_nodes(2, 400) is pts
    assert not pts.flags.writeable
    with pytest.raises(ValueError):
        pts[0, 0] = 0.0


@given(dim=st.integers(1, 3), count=st.integers(1, 5000))
@example(dim=3, count=1000)  # exact cubes are rare draws; a float root floors this one to 9
def test_unit_cube_nodes_per_axis_is_the_largest_fitting_root(dim, count):
    n = _unit_cube_nodes(dim, count).shape[0]
    k = round(n ** (1.0 / dim))
    assert k**dim == n
    assert k**dim <= count < (k + 1) ** dim


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
