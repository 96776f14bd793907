"""Stream determinism, distribution moments, and design stratification."""

import numpy as np
import pytest

from predcal import RngStream, latin_hypercube, normal, uniform


def test_stream_key_validation():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(2**64)
    with pytest.raises(ValueError):
        RngStream(3, stream_id=-5)


def test_uniform_range_and_shape():
    s = RngStream(7)
    x = uniform(s, 1, size=1)
    assert x.shape == (1, 1)
    assert 0.0 <= x[0, 0] <= 1.0
    pts = uniform(s, 3, size=40)
    assert pts.shape == (40, 3)
    assert np.all(pts >= 0.0) and np.all(pts <= 1.0)
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        uniform(s, 0, size=3)


def test_uniform_determinism_and_stream_separation():
    a = uniform(RngStream(11, 5), 2, size=100)
    b = uniform(RngStream(11, 5), 2, size=100)
    assert np.array_equal(a, b)
    c = uniform(RngStream(11, 6), 2, size=100)
    assert not np.array_equal(a, c)
    d = uniform(RngStream(12, 5), 2, size=100)
    assert not np.array_equal(a, d)


def test_uniform_mean_law_of_large_numbers():
    draws = uniform(RngStream(2024), 1, size=100_000)
    assert abs(draws.mean() - 0.5) < 0.01


def test_normal_zero_sigma_is_exact_zero():
    z = normal(RngStream(5), 0.0, size=1000)
    assert np.all(z == 0.0)


def test_normal_moments():
    z = normal(RngStream(99), 1.0, size=100_000)
    assert abs(z.var() - 1.0) < 0.05
    assert abs(z.mean()) < 0.02


def test_normal_determinism():
    a = normal(RngStream(1, 2), 0.7, size=64)
    b = normal(RngStream(1, 2), 0.7, size=64)
    assert np.array_equal(a, b)


def test_normal_rejects_negative_sigma():
    with pytest.raises(ValueError):
        normal(RngStream(1), -0.1, size=3)


def test_normal_rejects_nonfinite_sigma():
    # NaN fails no comparison with 0, so it needs its own check
    for sigma in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            normal(RngStream(1), sigma, size=3)


def test_normal_requires_size():
    with pytest.raises(TypeError):
        normal(RngStream(1), 1.0)


def test_latin_hypercube_single_point_unit_box():
    p = latin_hypercube(RngStream(8), 1, [[0.0, 1.0]])
    assert p.shape == (1, 1)
    assert 0.0 <= p[0, 0] <= 1.0


def test_latin_hypercube_stratifies_each_axis():
    # k=4 on [0,1]: exactly one point per quarter interval
    p = latin_hypercube(RngStream(21), 4, [[0.0, 1.0]])
    strata = np.sort(np.floor(p[:, 0] * 4).astype(int))
    assert np.array_equal(strata, [0, 1, 2, 3])
    # same property holds per axis in 2-d and in a shifted box
    q = latin_hypercube(RngStream(22), 10, [[-1.0, 1.0], [-1.0, 1.0]])
    assert np.all(q >= -1.0) and np.all(q <= 1.0)
    for j in range(2):
        strata = np.sort(np.floor((q[:, j] + 1.0) / 2.0 * 10).astype(int))
        assert np.array_equal(strata, np.arange(10))


def test_latin_hypercube_rejects_degenerate_box():
    with pytest.raises(ValueError):
        latin_hypercube(RngStream(1), 3, [[0.5, 0.5]])
    with pytest.raises(ValueError):
        latin_hypercube(RngStream(1), 0, [[0.0, 1.0]])
