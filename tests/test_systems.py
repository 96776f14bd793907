"""Benchmark systems: closed-form values, independent oracles, data I/O."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm as scipy_expm

from predcal import (
    KernelSpec,
    NoTruthAvailable,
    RngStream,
    calibrate_l2,
    ex1_eta,
    ex1_zeta,
    ex2_eta,
    ex2_zeta,
    ex3_eta,
    ex3_zeta,
    generate_dataset,
    get_system,
    ion_eta,
    load_dataset_csv,
    load_points_csv,
    rkhs_norm_sq_approx,
    system_names,
)
from predcal import systems
from predcal.systems import _ion_generator


def test_registry():
    assert system_names() == ("ex1", "ex2", "ex3", "ion")
    assert get_system("ex1").d == 1
    assert get_system("ex2").d == 2
    assert get_system("ion").zeta is None
    with pytest.raises(KeyError):
        get_system("nope")


def test_ex1_closed_values():
    assert ex1_zeta(0.0) == 0.0
    assert ex1_zeta(0.5) == pytest.approx(0.0, abs=1e-15)
    assert ex1_zeta(0.25) == pytest.approx(math.exp(math.pi / 20.0), rel=1e-14)


def _ex1_formula(x):
    return np.exp(np.pi * x / 5.0) * np.sin(2.0 * np.pi * x)


def _same_bits(got, x):
    want = _ex1_formula(x)
    return np.shape(got) == np.shape(want) and np.asarray(got).tobytes() == want.tobytes()


_EX1_POINT = st.floats(-50.0, 50.0)


@settings(max_examples=300, deadline=None)
@given(
    first=st.lists(_EX1_POINT, min_size=1, max_size=6),
    steps=st.lists(
        st.one_of(
            st.none(),  # the same array again
            st.tuples(st.integers(0, 5), _EX1_POINT),  # one entry edited in place
            st.lists(_EX1_POINT, min_size=1, max_size=6),  # a new array
        ),
        max_size=10,
    ),
)
def test_ex1_zeta_keeps_the_formulas_bits_over_repeats_and_in_place_edits(first, steps):
    x = np.array(first)
    for step in [None] + steps:
        if isinstance(step, tuple):
            i, v = step
            x[i % x.size] = v
        elif step is not None:
            x = np.array(step)
        got = ex1_zeta(x)
        assert _same_bits(got, x)
        got[:] = np.nan  # a caller's edit of a result reaches no later call


def test_ex1_zeta_returns_a_fresh_writeable_array():
    x = np.linspace(0.0, 1.0, 7)
    first, second = ex1_zeta(x), ex1_zeta(x)
    assert first.flags.writeable and second.flags.writeable
    assert not np.shares_memory(first, second)
    second[:] = 9.0
    assert _same_bits(first, x) and _same_bits(ex1_zeta(x), x)


def test_ex1_zeta_tells_apart_points_one_ulp_apart():
    x = np.linspace(0.1, 0.9, 5)  # x[2] = 0.5, where the truth is steep and near 0
    y = x.copy()
    y[2] = np.nextafter(0.5, 1.0)
    results = [ex1_zeta(p) for p in (x, y, x, y)]
    for got, p in zip(results, (x, y, x, y)):
        assert _same_bits(got, p)
    assert results[0][2] != results[1][2]
    # -0.0 == 0.0, but the truth keeps the sign: a value-equality key would mix them
    assert np.signbit(ex1_zeta(np.array([-0.0]))[0])
    assert not np.signbit(ex1_zeta(np.array([0.0]))[0])


def test_ex1_zeta_follows_a_read_only_view_whose_base_changes():
    base = np.linspace(0.0, 1.0, 9)
    view = base.view()
    view.flags.writeable = False
    assert _same_bits(ex1_zeta(view), base)
    base[3] = 0.77
    assert _same_bits(ex1_zeta(view), base)


def test_ex1_zeta_of_a_scalar_is_a_scalar_whatever_came_before():
    for x in (0.3, np.array([0.3]), 0.3, np.array([[0.3]]), 0.3):
        got = ex1_zeta(x)
        assert _same_bits(got, np.asarray(x, dtype=float))
    assert isinstance(ex1_zeta(0.3), np.float64)


def test_ex1_truth_is_computed_once_per_profile_and_keeps_its_bits(monkeypatch):
    # the truth once ran twice per theta: as zeta and inside the model
    calls = []
    truth = systems._ex1_truth

    def counted(x):
        calls.append(x.shape)
        return truth(x)

    monkeypatch.setattr(systems, "_ex1_truth", counted)
    monkeypatch.setattr(systems, "_ex1_last", None)
    system = get_system("ex1")
    spec = KernelSpec("matern32", 0.16, 1)
    thetas = np.linspace(-1.0, 1.0, 201)
    profile = [
        rkhs_norm_sq_approx(spec, lambda p, t=t: system.zeta(p) - system.model.eval(p, [t]), 200)
        for t in thetas
    ]
    assert calls == [(200,)]

    def closed_form(p, t):
        x = p[:, 0]
        zeta = _ex1_formula(x)
        arg = 2.0 * np.pi * t * x
        return zeta - (zeta - np.sqrt(t * t - t + 1.0) * (np.sin(arg) + np.cos(arg)))

    want = [rkhs_norm_sq_approx(spec, lambda p, t=t: closed_form(p, t), 200) for t in thetas]
    assert np.array(profile).tobytes() == np.array(want).tobytes()


def test_ex1_eta_at_zero_parameter_is_truth_minus_one():
    x = np.linspace(0.0, 1.0, 13)
    assert np.allclose(ex1_eta(x, 0.0), ex1_zeta(x) - 1.0, atol=1e-15)


def test_ex2_discrepancy_has_closed_form_at_matching_parameter():
    # at theta = (0.2, 0.4) the parametric parts cancel exactly
    rng = np.random.default_rng(40)
    x1 = rng.uniform(size=15)
    x2 = rng.uniform(size=15)
    want = np.exp(-x1) * (x1 + 0.5) * (x2 * x2 + x2 + 1.0)
    assert np.allclose(ex2_zeta(x1, x2) - ex2_eta(x1, x2, 0.2, 0.4), want, atol=1e-14)


def test_ex2_closed_values():
    assert ex2_zeta(0.0, 0.0) == pytest.approx((2.0 / 3.0) * math.exp(0.2) + 0.9, rel=1e-15)
    assert ex2_eta(0.0, 0.0, 0.0, 0.0) == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_ex3_closed_values():
    assert ex3_zeta(0.0) == pytest.approx(8.0, abs=1e-12)
    assert ex3_zeta(1.0) == pytest.approx(3.5157993916755608, abs=1e-12)
    assert ex3_eta(0.0, 3.0, 10.0) == 8.0
    assert ex3_eta(1.0, 3.0, 10.0) == pytest.approx(6.0)


def test_ex3_solves_drag_ode():
    # the closed form is the fall from height 8 with initial downward speed 1,
    # gravity 10 and quadratic drag 0.2 v^2; integrate the ODE independently
    sol = solve_ivp(
        lambda t, s: [s[1], -10.0 + 0.2 * s[1] ** 2],
        (0.0, 1.0),
        [8.0, -1.0],
        rtol=1e-11,
        atol=1e-12,
        dense_output=True,
    )
    xs = np.linspace(0.0, 1.0, 11)
    assert np.max(np.abs(sol.sol(xs)[0] - ex3_zeta(xs))) < 1e-9


def test_ion_tiny_time_is_near_zero():
    assert abs(ion_eta(-30.0, (1.0, 1.0, 1.0))) < 1e-10


def test_ion_matches_scipy_expm():
    rng = np.random.default_rng(41)
    for _ in range(20):
        x = float(rng.uniform(-2.0, 2.0))
        th = rng.uniform(0.01, 10.0, size=3)
        ref = scipy_expm(math.exp(x) * _ion_generator(th))[0, 3]
        assert ion_eta(x, th) == pytest.approx(ref, abs=1e-12)
    # box corners, where a symmetrised-eigh route errs by up to 4e-12
    for th in [(10.0, 0.01, 10.0), (0.01, 10.0, 0.01), (10.0, 10.0, 0.01)]:
        for x in (-3.0, -1.0, 0.0, 1.0, 2.0, 3.0):
            ref = scipy_expm(math.exp(x) * _ion_generator(th))[0, 3]
            assert ion_eta(x, th) == pytest.approx(ref, abs=1e-12)


def test_ion_generator_layout():
    t1, t2, t3 = 0.7, 0.3, 0.11
    a = _ion_generator((t1, t2, t3))
    want = np.array(
        [
            [-(t2 + t3), t1, 0.0, 0.0],
            [t2, -(t1 + t2), t1, 0.0],
            [0.0, t2, -(t1 + t2), t1],
            [0.0, 0.0, t2, -t1],
        ]
    )
    assert np.array_equal(a, want)


def test_ion_output_bounded_over_box():
    rng = np.random.default_rng(42)
    for _ in range(100):
        x = float(rng.uniform(-2.0, 2.0))
        th = rng.uniform(0.01, 10.0, size=3)
        v = ion_eta(x, th)
        assert np.isfinite(v) and abs(v) <= 1.0


def test_ion_vector_input():
    xs = np.array([-1.0, 0.0, 1.0])
    out = ion_eta(xs, (1.0, 2.0, 0.5))
    assert out.shape == (3,)
    assert out[1] == pytest.approx(ion_eta(0.0, (1.0, 2.0, 0.5)), abs=0.0)
    # one stacked call gives each point the bits of its scalar call
    xs = np.random.default_rng(43).uniform(-3.0, 3.0, size=50)
    out = ion_eta(xs, (10.0, 0.01, 10.0))
    assert [ion_eta(x, (10.0, 0.01, 10.0)) for x in xs] == out.tolist()
    # and so does one call over rows of rates, one result row per rate row
    rates = np.array([[10.0, 0.01, 10.0], [2.5, 1.2, 0.8]])
    rows = ion_eta(xs, rates)
    assert rows.shape == (2, 50)
    assert rows.tolist() == [ion_eta(xs, r).tolist() for r in rates]


def test_double_entry_scalar_reimplementation():
    # trap transcription slips: the same formulas written a second time
    # against math.* scalars, evaluated on random points
    def z1(x):
        return math.exp(math.pi * x / 5.0) * math.sin(2.0 * math.pi * x)

    def e1(x, t):
        amp = math.sqrt(t * t - t + 1.0)
        wave = math.sin(2.0 * math.pi * t * x) + math.cos(2.0 * math.pi * t * x)
        return z1(x) - amp * wave

    def z2(x1, x2):
        return (
            (2.0 / 3.0) * math.exp(x1 + 0.2)
            - x2 * math.sin(0.4)
            + 0.4
            + math.exp(-x1) * (x1 + 0.5) * (x2 * x2 + x2 + 1.0)
        )

    def e2(x1, x2, t1, t2):
        return (2.0 / 3.0) * math.exp(x1 + t1) - x2 * math.sin(t2) + t2

    def z3(x):
        c = 50.0 / 49.0
        s = math.atanh(math.sqrt(0.02))
        th = math.tanh(s + math.sqrt(2.0) * x)
        return 8.0 + 2.5 * math.log(c - c * th * th)

    def e3(x, v0, g):
        return 8.0 + v0 * x - 0.5 * g * x * x

    rng = np.random.default_rng(43)
    for _ in range(20):
        x1, x2 = rng.uniform(size=2)
        t = float(rng.uniform(-1.0, 1.0))
        t1, t2 = rng.uniform(size=2)
        v0 = float(rng.uniform(0.0, 5.0))
        g = float(rng.uniform(0.0, 20.0))
        assert ex1_zeta(x1) == pytest.approx(z1(x1), rel=1e-14, abs=1e-14)
        assert ex1_eta(x1, t) == pytest.approx(e1(x1, t), rel=1e-14, abs=1e-14)
        assert ex2_zeta(x1, x2) == pytest.approx(z2(x1, x2), rel=1e-14)
        assert ex2_eta(x1, x2, t1, t2) == pytest.approx(e2(x1, x2, t1, t2), rel=1e-14)
        assert ex3_zeta(x1) == pytest.approx(z3(x1), rel=1e-14)
        assert ex3_eta(x1, v0, g) == pytest.approx(e3(x1, v0, g), rel=1e-14)


def test_generate_dataset_noiseless():
    sys1 = get_system("ex1")
    data = generate_dataset(sys1, 12, 0.0, RngStream(44))
    assert data.n == 12
    assert np.array_equal(data.y, sys1.zeta(data.x))


def test_generate_dataset_deterministic():
    sys2 = get_system("ex2")
    a = generate_dataset(sys2, 9, 0.3, RngStream(45))
    b = generate_dataset(sys2, 9, 0.3, RngStream(45))
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    c = generate_dataset(sys2, 9, 0.3, RngStream(46))
    assert not np.array_equal(a.y, c.y)


def test_generate_dataset_noise_level():
    sys1 = get_system("ex1")
    data = generate_dataset(sys1, 2000, 1.0, RngStream(47))
    resid = data.y - sys1.zeta(data.x)
    assert abs(resid.mean()) < 0.05
    assert abs(resid.std() - 1.0) < 0.05


def test_generate_dataset_errors():
    with pytest.raises(NoTruthAvailable):
        generate_dataset(get_system("ion"), 5, 0.1, RngStream(48))
    with pytest.raises(ValueError):
        generate_dataset(get_system("ex1"), 0, 0.1, RngStream(48))


@pytest.mark.parametrize("n", [2.5, 3.0, True, "3", np.float64(3.0)])
def test_generate_dataset_size_must_be_an_integer(n):
    # the message names n, not the size of the uniform draw it feeds
    with pytest.raises(ValueError, match="^n must be an integer, got"):
        generate_dataset(get_system("ex1"), n, 0.1, RngStream(48))


def test_load_dataset_csv_round_trip(tmp_path):
    path = tmp_path / "d2.csv"
    rng = np.random.default_rng(49)
    x = rng.uniform(size=(6, 2))
    y = rng.standard_normal(6)
    lines = ["x1,x2,y"]
    lines += [f"{float(a)!r},{float(b)!r},{float(c)!r}" for (a, b), c in zip(x, y)]
    path.write_text("\n".join(lines) + "\n")
    data = load_dataset_csv(path)
    assert np.array_equal(data.x, x) and np.array_equal(data.y, y)


def test_load_dataset_csv_single_column_name(tmp_path):
    path = tmp_path / "d1.csv"
    path.write_text("x,y\n0.25,1.5\n0.75,-0.5\n")
    data = load_dataset_csv(path)
    assert data.x.shape == (2, 1)
    assert data.y[1] == -0.5


def test_load_dataset_csv_errors(tmp_path):
    bad_last = tmp_path / "a.csv"
    bad_last.write_text("x1,value\n0.1,2.0\n")
    with pytest.raises(ValueError):
        load_dataset_csv(bad_last)
    bad_name = tmp_path / "b.csv"
    bad_name.write_text("u1,x2,y\n0.1,0.2,2.0\n")
    with pytest.raises(ValueError):
        load_dataset_csv(bad_name)
    empty = tmp_path / "c.csv"
    empty.write_text("")
    with pytest.raises(ValueError):
        load_dataset_csv(empty)
    no_rows = tmp_path / "d.csv"
    no_rows.write_text("x,y\n")
    with pytest.raises(ValueError):
        load_dataset_csv(no_rows)
    too_wide = tmp_path / "f.csv"
    too_wide.write_text("x,y\n0.1,2.0,5.0\n")
    with pytest.raises(ValueError, match="column count"):
        load_dataset_csv(too_wide)
    # inputs outside the unit cube load; L2 calibration is what refuses them
    out_of_box = tmp_path / "e.csv"
    out_of_box.write_text("x,y\n1.5,0.0\n0.5,1.0\n")
    off_cube = load_dataset_csv(out_of_box)
    assert np.array_equal(off_cube.x, [[1.5], [0.5]])
    with pytest.raises(ValueError, match=r"in \[0, 1\]"):
        calibrate_l2(off_cube, get_system("ex1").model, KernelSpec("matern32", 0.3, 1),
                     stream=RngStream(1))
    not_finite = tmp_path / "g.csv"
    not_finite.write_text("x,y\n0.1,1.0\n0.2,nan\n")
    with pytest.raises(ValueError, match="finite"):
        load_dataset_csv(not_finite)


def test_csv_readers_name_the_file_line_and_value_of_a_non_number(tmp_path):
    # float()'s bare "could not convert string to float: 'abc'" named no file
    data = tmp_path / "data.csv"
    data.write_text("x1,y\n0.1,1.0\n0.2,abc\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(data))}:3: .*'abc'"):
        load_dataset_csv(data)
    points = tmp_path / "points.csv"
    points.write_text("x1,x2\n0.1,0.2\nzero,0.3\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(points))}:3: .*'zero'"):
        load_points_csv(points, 2)


def test_load_points_csv_rules(tmp_path):
    # the x alias at d = 1, later columns ignored, no unit-cube check
    path = tmp_path / "p1.csv"
    path.write_text("x,y\n1.5,7.0\n-0.25,8.0\n")
    assert np.array_equal(load_points_csv(path, 1), [[1.5], [-0.25]])
    two = tmp_path / "p2.csv"
    two.write_text("x1,x2,note\n0.1,0.2,a\n0.3,0.4,b\n")
    assert np.array_equal(load_points_csv(two, 2), [[0.1, 0.2], [0.3, 0.4]])
    for name, text, d in [
        ("empty.csv", "", 1),
        ("rows.csv", "x1\n", 1),
        ("name.csv", "t\n0.5\n", 1),
        ("alias.csv", "x,x2\n0.1,0.2\n", 2),
        ("short.csv", "x1\n0.5\n", 2),
        ("width.csv", "x1,x2\n0.5\n", 2),
    ]:
        bad = tmp_path / name
        bad.write_text(text)
        with pytest.raises(ValueError):
            load_points_csv(bad, d)
