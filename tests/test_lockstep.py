"""The lockstep Nelder-Mead and the batched models, against slow oracles.

``_nelder_mead`` below is the scalar search from one start that
``minimize_box`` ran, start after start, before its starts were
advanced together.  Every start of the lockstep search must end on the
oracle's parameter and value to the bit, and every named model must
equal its public formula at scalar parameters to the bit.
"""

import copy
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from predcal import (
    Dataset,
    KernelSpec,
    RngStream,
    calibrate_l2,
    calibrate_ls,
    calibrate_optpred,
    ex1_eta,
    ex2_eta,
    ex3_eta,
    generate_dataset,
    get_system,
    gram,
    ion_eta,
    minimize_box,
    normal,
    system_names,
    uniform,
)
from predcal import calibrate
from predcal.calibrate import MAX_NM_ITER, SIMPLEX_TOL, _nelder_mead_lockstep
from predcal.linalg import solve_spd
from predcal.regression import ridge_factor
from predcal.rng import latin_hypercube


def _box_fold(box):
    """The map of points into ``box``, as a function of an (..., p) array.

    Each coordinate is reflected back through the face it crossed, then
    clipped to the box: the reflection's rounding can leave a point an
    ulp outside a face (0.01 - 2e-16 for a [0.01, 10] row).  The search
    folds in Python floats; this numpy form is the reference it must
    equal.
    """
    lo, hi = box[:, 0], box[:, 1]
    w = hi - lo
    top, period = lo + w, 2.0 * w

    def fold(x):
        y = top - np.abs(w - np.mod(x - lo, period))
        return np.minimum(np.maximum(y, lo, out=y), hi, out=y)

    return fold


def _nelder_mead(f, x0, box, tol=SIMPLEX_TOL, max_iter=MAX_NM_ITER):
    """Nelder-Mead from one start with a scalar objective.

    Returns ``(x_best, f_best, requests)``: ``requests`` counts the point
    sets the search asked for, each answered before it could go on: the
    first simplex, each reflection, each expansion or contraction and each
    shrink.
    """
    fold = _box_fold(box)
    p = x0.shape[0]
    width = box[:, 1] - box[:, 0]
    verts = [np.array(x0, dtype=float)]
    for j in range(p):
        step = np.zeros(p)
        step[j] = 0.05 * width[j]
        verts.append(fold(x0 + step))
    verts = np.array(verts)
    vals = np.array([f(v) for v in verts])
    requests = 1

    for _ in range(max_iter):
        order = np.argsort(vals, kind="stable")
        verts = verts[order]
        vals = vals[order]
        if np.max(np.abs(verts[1:] - verts[0])) < tol:
            break
        centroid = np.mean(verts[:-1], axis=0)
        worst = verts[-1]

        xr = fold(centroid + (centroid - worst))
        fr = f(xr)
        requests += 1
        if fr < vals[0]:
            xe = fold(centroid + 2.0 * (centroid - worst))
            fe = f(xe)
            requests += 1
            if fe < fr:
                verts[-1], vals[-1] = xe, fe
            else:
                verts[-1], vals[-1] = xr, fr
        elif fr < vals[-2]:
            verts[-1], vals[-1] = xr, fr
        else:
            if fr < vals[-1]:
                xc = fold(centroid + 0.5 * (xr - centroid))
            else:
                xc = fold(centroid + 0.5 * (worst - centroid))
            fc = f(xc)
            requests += 1
            if fc < min(fr, vals[-1]):
                verts[-1], vals[-1] = xc, fc
            else:
                requests += 1
                for i in range(1, p + 1):
                    verts[i] = fold(verts[0] + 0.5 * (verts[i] - verts[0]))
                    vals[i] = f(verts[i])

    best = int(np.argmin(vals))
    return verts[best].copy(), float(vals[best]), requests


def _bits(a):
    return [float(v).hex() for v in np.ravel(a)]


def _assert_matches_oracle(objective, x0, box, **limits):
    """Each start of the lockstep ends where the scalar oracle ends from it
    alone, the lockstep queries the objective at the points the oracle
    searches query, each as often, and it calls the objective once for each
    request of the start that makes the most.  Returns the oracle's
    ``(x_best, f_best)`` per start."""
    rows, points = [], []
    pairs = _nelder_mead_lockstep(_recorded(objective, rows), x0.tolist(), box, **limits)

    def scalar(t):
        points.append(t)
        return float(objective(t[None])[0])

    searches = [_nelder_mead(scalar, x, box, **limits) for x in x0]
    want = [(theta, value) for theta, value, _ in searches]
    assert len(pairs) == len(want)
    for i, ((theta, value), (got_value, got_theta)) in enumerate(zip(want, pairs)):
        assert _bits(got_theta) == _bits(theta), f"start {i}"
        assert _bits(got_value) == _bits(value), f"start {i}"
    queried = Counter(tuple(_bits(t)) for t in np.concatenate(rows))
    assert queried == Counter(tuple(_bits(t)) for t in points)
    # each call holds the next request of every running start
    assert len(rows) == max(requests for _, _, requests in searches)
    return want


def _rosenbrock(t):
    return (1.0 - t[:, 0]) ** 2 + 100.0 * (t[:, 1] - t[:, 0] ** 2) ** 2


ROSEN_BOX = np.array([[-2.0, 2.0], [-2.0, 2.0]])


def test_lockstep_matches_oracle_on_rosenbrock():
    x0 = latin_hypercube(RngStream(3), 10, ROSEN_BOX)
    _assert_matches_oracle(_rosenbrock, x0, ROSEN_BOX)


def test_lockstep_matches_oracle_on_a_constant_objective():
    # every comparison is a tie: the stable sort and the shrink decide
    box = np.array([[0.0, 1.0], [2.0, 3.0]])
    x0 = latin_hypercube(RngStream(2), 4, box)
    want = _assert_matches_oracle(lambda t: np.full(len(t), 7.25), x0, box)
    theta, value = minimize_box(lambda t: np.full(len(t), 7.25), box, 4, RngStream(2))
    # ties go to the lexicographically smallest parameter
    assert (value, theta.tolist()) == min((v, x.tolist()) for x, v in want)


def test_lockstep_matches_oracle_when_stopped_by_the_iteration_limit():
    quad = lambda t: np.sum((t - 0.3) ** 2, axis=1)
    # tol 0 never converges, so every start runs MAX_NM_ITER iterations
    x0 = latin_hypercube(RngStream(23), 3, ROSEN_BOX)
    _assert_matches_oracle(_rosenbrock, x0, ROSEN_BOX, tol=0.0)
    # short limits stop some starts while others have converged, also
    # among many starts at p = 1
    one = np.array([[-2.0, 2.0]])
    # starts at the corners and on the faces, whose first steps leave the
    # box; in the last row low + (high - low) rounds above high, so the
    # step from 0.87 onto the face 0.9 folds an ulp outside until clipped
    faces = np.array([[0.01, 10.0], [-1.0, 1.0], [-0.0, 3.0], [0.3, 0.9]])
    on_faces = np.array([faces[:, 1], faces[:, 0], [10.0, 0.0, -0.0, 0.87], [5.0, 1.0, -0.0, 0.9]])
    for x0, box in ((latin_hypercube(RngStream(24), 10, ROSEN_BOX), ROSEN_BOX),
                    (latin_hypercube(RngStream(24), 20, one), one),
                    (on_faces, faces)):
        for max_iter in (0, 1, 7, 40, 70, MAX_NM_ITER):
            _assert_matches_oracle(quad, x0, box, max_iter=max_iter)


def test_lockstep_makes_at_most_three_calls_per_iteration():
    calls = []

    def counted(t):
        calls.append(len(t))
        return _rosenbrock(t)

    x0 = latin_hypercube(RngStream(25), 6, ROSEN_BOX)
    for max_iter in (1, 5, 30):
        calls.clear()
        _nelder_mead_lockstep(counted, x0.tolist(), ROSEN_BOX, max_iter=max_iter)
        assert calls[0] == 6 * 3  # every start's first simplex in one call
        assert len(calls) <= 1 + 3 * max_iter
        assert max(calls[1:]) <= 6 * 2  # at most one shrink (p points) per start


def test_search_never_queries_outside_a_box_with_inexact_width():
    # 10 - 0.01 rounds, and a plain reflection of 0.01 lands at 0.01 - 2e-16
    box = np.array([[0.01, 10.0]] * 3)
    seen = []

    def objective(t):
        seen.append(t.copy())
        return np.sum(t, axis=1)

    theta, _ = minimize_box(objective, box, 2, RngStream(26), extra_points=[box[:, 0]])
    pts = np.concatenate(seen)
    assert np.all(pts >= box[:, 0]) and np.all(pts <= box[:, 1])
    assert theta.tolist() == box[:, 0].tolist()


def _recorded(objective, calls):
    """``objective``, each of its calls' row array appended to ``calls``."""

    def recorded(t):
        calls.append(t.copy())
        return objective(t)

    return recorded


@settings(max_examples=150, deadline=None)
@given(
    p=st.integers(1, 4),
    k=st.integers(1, 8),
    max_iter=st.sampled_from([0, 1, 2, 5, 30, MAX_NM_ITER]),
    kind=st.sampled_from(["quadratic", "rounded", "wavy"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_both_loops_return_the_same_bits_from_the_same_calls(p, k, max_iter, kind, seed):
    """The lockstep and the scalar oracle loop, on random boxes and objectives."""
    rng = np.random.default_rng(seed)
    low = rng.uniform(-5.0, 5.0, p)
    box = np.column_stack([low, low + rng.uniform(1e-3, 10.0, p)])
    x0 = latin_hypercube(RngStream(seed), k, box)
    center, scale = rng.uniform(-6.0, 6.0, p), rng.uniform(0.1, 3.0, p)
    objective = {
        "quadratic": lambda t: np.sum(scale * (t - center) ** 2, axis=1),
        # coarse values: ties everywhere, and shrinks
        "rounded": lambda t: np.round(np.sum(np.abs(t - center), axis=1), 1),
        "wavy": lambda t: np.sum(np.sin(3.0 * t) + scale * t * t, axis=1),
    }[kind]
    _assert_matches_oracle(objective, x0, box, max_iter=max_iter)


def test_both_loops_clip_a_tie_to_the_face():
    """The lockstep and the scalar oracle loop return the face -0.0."""
    # the reflection 0.25 + (0.25 - 0.5) folds to +0.0 on the face -0.0, and
    # np.maximum returns its second argument, the face, on a tie
    box = np.array([[-0.0, 5.0]])
    calls = []
    x0 = np.array([[0.25]])
    [(value, theta)] = _nelder_mead_lockstep(_recorded(lambda t: t[:, 0], calls), [[0.25]], box)
    assert _bits(calls[1]) == _bits(theta) == _bits(value) == [(-0.0).hex()]
    _assert_matches_oracle(lambda t: t[:, 0], x0, box)


def _dataset(name):
    """A dataset, its kernel scale and start count for each model."""
    if name == "ion":
        stream = RngStream(27)
        x = uniform(stream, 1, size=10)
        y = get_system("ion").model.eval(x, [2.5, 1.2, 0.8]) + normal(stream, 0.02, size=10)
        return Dataset(x=x, y=y), 0.3, 1
    data = generate_dataset(get_system(name), 30, 0.3, RngStream(28))
    return data, 0.3 if name == "ex1" else 0.5, 10


@pytest.mark.parametrize("name", ["ex1", "ex2", "ion"])
def test_calibrators_searches_match_oracle(monkeypatch, name):
    """Every search of the LS, L2 and OptPred calibrators, start by start."""
    data, psi, starts = _dataset(name)
    system = get_system(name)
    kernel = KernelSpec("matern32", psi, system.d)
    if name == "ion":
        # 576 matrix exponentials per ion objective value are too slow for a test
        monkeypatch.setattr(calibrate, "L2_NODES", 32)
    real = calibrate.minimize_box
    searches = []

    def checked(objective, box, starts, stream, extra_points=()):
        box = np.asarray(box, dtype=float)
        draw = latin_hypercube(copy.deepcopy(stream), starts, box)
        x0 = np.concatenate([np.reshape(extra_points, (-1, box.shape[0])), draw])
        want = _assert_matches_oracle(objective, x0, box)
        theta, value = real(objective, box, starts, stream, extra_points)
        best = min(want, key=lambda t: (t[1], tuple(t[0])))
        assert _bits(theta) == _bits(best[0]) and _bits(value) == _bits(best[1])
        searches.append(len(x0))
        return theta, value

    monkeypatch.setattr(calibrate, "minimize_box", checked)
    model = system.model
    calibrate_ls(data, model, starts=starts, stream=RngStream(30, 1))
    calibrate_l2(data, model, kernel, starts=starts, stream=RngStream(30, 2))
    calibrate_optpred(data, model, kernel, starts=starts, stream=RngStream(30, 3))
    # LS, L2, then OptPred's warm start and its one search with the extra start
    assert searches == [starts, starts, starts, starts + 1]


def test_batched_objectives_equal_their_one_theta_forms(monkeypatch):
    """Row values of the LS and OptPred objectives equal the per-theta formulas."""
    system = get_system("ex2")
    data = generate_dataset(system, 25, 0.2, RngStream(31))
    kernel = KernelSpec("matern32", 0.5, 2)
    captured = []
    real = calibrate.minimize_box

    def capture(objective, *args, **kwargs):
        captured.append(objective)
        return real(objective, *args, **kwargs)

    monkeypatch.setattr(calibrate, "minimize_box", capture)
    res = calibrate_optpred(data, system.model, kernel, starts=2, stream=RngStream(31, 1))
    ls_objective, opt_objective = captured
    thetas = uniform(RngStream(32), 2, size=9)
    factor = ridge_factor(gram(kernel, data.x), res.lambda_used)
    for i, theta in enumerate(thetas):
        r = data.y - system.model.eval(data.x, theta)
        assert _bits(ls_objective(thetas)[i]) == _bits(float(np.mean(r * r)))
        assert _bits(opt_objective(thetas)[i]) == _bits(float(r @ solve_spd(factor, r)))


# the named models' public formulas at a (p,) theta, parameters passed as scalars
_FORMULAS = {
    "ex1": lambda x, t: ex1_eta(x[:, 0], t[0]),
    "ex2": lambda x, t: ex2_eta(x[:, 0], x[:, 1], t[0], t[1]),
    "ex3": lambda x, t: ex3_eta(x[:, 0], t[0], t[1]),
    "ion": lambda x, t: ion_eta(x[:, 0], t),
}


@pytest.mark.parametrize("name", system_names())
def test_named_models_batched_eta_equals_per_theta_eval(name):
    """Each named model is its scalar formula to the bit, at one theta or many."""
    system = get_system(name)
    model = system.model
    rng = np.random.default_rng(33)
    box = model.theta_box
    thetas = np.vstack([rng.uniform(box[:, 0], box[:, 1], size=(9, model.p)), box.T])
    if name == "ion":
        thetas = np.vstack([thetas, [10.0, 0.01, 10.0]])
    # a design and a batch above the default 10,000 scoring nodes (ion: fewer
    # points, each a matrix exponential)
    for m in (40, 4096 if name == "ion" else 32_768):
        x = rng.uniform(0.0, 1.0, size=(m, system.d))
        want = np.array([_FORMULAS[name](x, t) for t in thetas]).view(np.int64)
        per_theta = np.array([model.eval(x, t) for t in thetas])
        for got in (per_theta, model.eval_batch(x, thetas)):
            assert np.array_equal(got.view(np.int64), want)
    with pytest.raises(ValueError, match=f"p={model.p}"):
        model.eval_batch(x, np.zeros((2, model.p + 1)))
