"""Replication harness: psi selection, PMSE scoring, reports, config files."""

import numpy as np
import pytest
from scipy.integrate import quad

from predcal import (
    ComputerModel,
    DiscrepancyFit,
    ExperimentConfig,
    KernelSpec,
    NoTruthAvailable,
    Predictor,
    RngStream,
    build_predictors,
    cv5_select_psi,
    default_psi_grid,
    ex1_zeta,
    generate_dataset,
    get_system,
    kernel_cross,
    parse_config,
    pmse,
    predict,
    predict_discrepancy,
    run_experiment,
)
from predcal import experiments
from predcal.experiments import _stream
from predcal.systems import NamedSystem

# truth ex1_zeta; model theta_0 * zeta(x) + theta_1, so (1, 0) is exact
_AFFINE = NamedSystem(
    id="affine",
    zeta=lambda x: ex1_zeta(x[:, 0]),
    model=ComputerModel(
        eta=lambda x, th: th[:, :1] * ex1_zeta(x[:, 0]) + th[:, 1:],
        theta_box=[[-2.0, 2.0], [-2.0, 2.0]],
    ),
    d=1,
)


def _affine(t0, t1):
    return Predictor(np.array([t0, t1]), None)


def _toy_cfg(**kw):
    base = dict(
        system="ex1", n=12, sigma2=(0.1,), replicates=1,
        mc_test_points=1000, methods=("NP",), psi=0.3,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_default_psi_grid_scales_with_dimension():
    assert default_psi_grid(1) == (0.05, 0.1, 0.2, 0.3, 0.5, 1.0)
    assert default_psi_grid(4) == tuple(2.0 * p for p in default_psi_grid(1))


def test_config_validation():
    with pytest.raises(ValueError):
        _toy_cfg(n=1)
    with pytest.raises(ValueError):
        _toy_cfg(sigma2=())
    with pytest.raises(ValueError):
        _toy_cfg(sigma2=(-0.1,))
    for sigma2 in ((float("nan"),), (0.1, float("inf"))):
        with pytest.raises(ValueError, match="sigma2"):
            _toy_cfg(sigma2=sigma2)
    # a repeated noise level would overwrite the first one's scores
    with pytest.raises(ValueError, match="distinct"):
        _toy_cfg(sigma2=(0.1, 0.1))
    with pytest.raises(ValueError):
        _toy_cfg(replicates=0)
    with pytest.raises(ValueError):
        _toy_cfg(mc_test_points=999)
    with pytest.raises(ValueError):
        _toy_cfg(methods=("NP", "Oracle"))
    with pytest.raises(ValueError):
        _toy_cfg(methods=())
    with pytest.raises(ValueError):
        _toy_cfg(psi=-0.3)
    for psi in (float("inf"), float("nan"), True, "0.3"):
        with pytest.raises(ValueError, match="psi"):
            _toy_cfg(psi=psi)
    assert _toy_cfg(psi=1).psi == 1 and _toy_cfg(psi=np.float64(0.3)).psi == 0.3
    with pytest.raises(ValueError):
        _toy_cfg(starts=0)
    # integer fields take integral numbers only; the seed is an unsigned 64-bit value
    for key, value in (("n", 20.5), ("replicates", 1.5), ("mc_test_points", 1000.5),
                       ("starts", 2.5), ("starts", True), ("seed", 7.0), ("n", "12")):
        with pytest.raises(ValueError, match=key):
            _toy_cfg(**{key: value})
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            _toy_cfg(seed=seed)
    assert _toy_cfg(n=np.int64(12), seed=np.uint64(2**64 - 1)).seed == 2**64 - 1
    with pytest.raises(KeyError):
        _toy_cfg(system="nope")
    # five-fold cross-validation of psi needs five points; a fixed psi does not
    with pytest.raises(ValueError, match="cv5"):
        _toy_cfg(psi="cv5", n=4)
    assert _toy_cfg(psi="cv5", n=5).n == 5 and _toy_cfg(psi=0.3, n=4).n == 4


def test_cv5_single_value_grid():
    sys1 = get_system("ex1")
    data = generate_dataset(sys1, 20, 0.3, RngStream(60))
    assert cv5_select_psi(data, "matern32", [0.4], None, RngStream(60, 1)) == 0.4


def test_cv5_returns_grid_member_and_is_deterministic():
    sys1 = get_system("ex1")
    data = generate_dataset(sys1, 10, 0.3, RngStream(61))
    grid = default_psi_grid(1)
    a = cv5_select_psi(data, "matern32", grid, None, RngStream(61, 1))
    b = cv5_select_psi(data, "matern32", grid, None, RngStream(61, 1))
    assert a in grid
    assert a == b


def test_cv5_interior_on_smooth_instance():
    # n=50, sigma=0.5 draw via the harness streams; this replicate's pick
    # sits strictly inside the default grid
    sys1 = get_system("ex1")
    data = generate_dataset(sys1, 50, 0.5, _stream(20240101, 0, 3, 0))
    psi = cv5_select_psi(
        data, "matern32", default_psi_grid(1), None, _stream(20240101, 0, 3, 1)
    )
    grid = default_psi_grid(1)
    assert grid[0] < psi < grid[-1]


def test_cv5_ties_go_to_larger_scale():
    sys1 = get_system("ex1")
    data = generate_dataset(sys1, 15, 0.2, RngStream(62))
    # residuals are identically zero, so every scale scores 0
    psi = cv5_select_psi(
        data, "matern32", default_psi_grid(1), data.y, RngStream(62, 1)
    )
    assert psi == default_psi_grid(1)[-1]


def test_cv5_uses_the_requested_kernel_family():
    data = generate_dataset(get_system("ex1"), 10, 0.2, RngStream(63))
    with pytest.raises(ValueError, match="kernel family"):
        cv5_select_psi(data, "gaussian", [0.3], None, RngStream(63, 1))


def test_cv5_validation():
    sys1 = get_system("ex1")
    data = generate_dataset(sys1, 4, 0.2, RngStream(63))
    with pytest.raises(ValueError):
        cv5_select_psi(data, "matern32", [0.3], None, RngStream(63, 1))
    data10 = generate_dataset(sys1, 10, 0.2, RngStream(63))
    with pytest.raises(ValueError):
        cv5_select_psi(data10, "matern32", [], None, RngStream(63, 1))


def test_cv5_refuses_model_values_of_the_wrong_length():
    # one model value for 20 points is refused, as select_lambda_gcv refuses it,
    # not broadcast across the design
    data = generate_dataset(get_system("ex1"), 20, 0.3, RngStream(65))
    with pytest.raises(ValueError, match="one value per design point"):
        cv5_select_psi(data, "matern32", default_psi_grid(1), np.array([0.7]), RngStream(65, 1))


def test_pmse_exact_predictor():
    got = pmse({"exact": _affine(1.0, 0.0)}, _AFFINE, 2000, RngStream(64))
    assert got == {"exact": 0.0}


def test_pmse_constant_offset():
    val = pmse({"offset": _affine(1.0, 1.0)}, _AFFINE, 2000, RngStream(65))["offset"]
    assert val == pytest.approx(1.0, abs=1e-12)


def test_pmse_zero_predictor_matches_quadrature():
    want, quad_err = quad(lambda x: ex1_zeta(x) ** 2, 0.0, 1.0)
    assert quad_err < 1e-8
    got = pmse({"zero": _affine(0.0, 0.0)}, _AFFINE, 100_000, RngStream(66))["zero"]
    # compare within 3 standard errors of the Monte Carlo mean
    sq = ex1_zeta(np.ravel(RngStream(66).generator.random((100_000, 1)))) ** 2
    se = sq.std(ddof=1) / np.sqrt(sq.size)
    assert abs(got - want) <= 3.0 * se


def test_pmse_chunk_invariant(monkeypatch):
    preds = {"half": _affine(0.0, 0.5)}
    monkeypatch.setattr(experiments, "_PMSE_CHUNK", 64)
    a = pmse(preds, _AFFINE, 3000, RngStream(67))
    monkeypatch.setattr(experiments, "_PMSE_CHUNK", 1 << 20)
    b = pmse(preds, _AFFINE, 3000, RngStream(67))
    assert a == b


def test_pmse_of_a_mapping_scores_each_predictor_as_alone():
    # one test draw serves every predictor, so adding a method never
    # shifts another method's score
    sys1 = get_system("ex1")
    data = generate_dataset(sys1, 30, 0.3, RngStream(72))
    cfg = _toy_cfg(n=30, methods=("NoBiasCorr", "NP", "LSCal", "OptCal"), starts=2)
    streams = {"ls": RngStream(72, 2), "l2": RngStream(72, 3), "optpred": RngStream(72, 4)}
    preds, _ = build_predictors(data, sys1, KernelSpec("matern32", 0.3, 1), cfg, streams)
    together = pmse(preds, sys1, 5000, RngStream(72, 5))
    assert set(together) == set(preds)
    for name, p in preds.items():
        alone = pmse({name: p}, sys1, 5000, RngStream(72, 5))[name]
        assert alone.hex() == together[name].hex(), name


def test_predict_shares_the_kernel_matrix_and_matches_the_terms(monkeypatch):
    sys1 = get_system("ex1")
    data = generate_dataset(sys1, 20, 0.3, RngStream(73))
    cfg = _toy_cfg(n=20, methods=("NP", "LSCal"))
    streams = {"ls": RngStream(73, 2), "l2": RngStream(73, 3), "optpred": RngStream(73, 4)}
    preds, _ = build_predictors(data, sys1, KernelSpec("matern32", 0.3, 1), cfg, streams)
    np_fit, ls = preds["NP"].fit, preds["LSCal"]
    # a fit on another design needs a kernel matrix of its own
    head = DiscrepancyFit(np_fit.coef[:5], np_fit.kernel, data.x[:5].copy())
    preds["head"] = Predictor(None, head)
    x = np.linspace(0.0, 1.0, 17).reshape(-1, 1)
    calls = []

    def counted(*args):
        calls.append(args)
        return kernel_cross(*args)

    monkeypatch.setattr(experiments, "kernel_cross", counted)
    got = predict(sys1.model, preds, x)
    assert len(calls) == 2  # NP and LSCal both hold data.x under one kernel
    assert np.array_equal(got["NP"], predict_discrepancy(np_fit, x))
    want = sys1.model.eval(x, ls.theta) + predict_discrepancy(ls.fit, x)
    assert np.array_equal(got["LSCal"], want)
    assert np.array_equal(got["head"], predict_discrepancy(head, x))


def test_pmse_errors():
    ion = get_system("ion")
    zero = {"zero": Predictor(np.zeros(3), None)}
    with pytest.raises(NoTruthAvailable):
        pmse(zero, ion, 1000, RngStream(68))
    with pytest.raises(ValueError):
        pmse({"zero": _affine(0.0, 0.0)}, _AFFINE, 0, RngStream(68))


def test_build_predictors_perfect_model_noiseless():
    # truth inside the model family and no noise: every method is exact
    # up to the kernel interpolation floor
    model = ComputerModel(
        eta=lambda x, th: th[:, :1] * np.sin(2.0 * np.pi * x[:, 0]),
        theta_box=[[-2.0, 2.0]],
    )
    toy = NamedSystem(
        id="toy",
        zeta=lambda x: np.sin(2.0 * np.pi * x[:, 0]),
        model=model,
        d=1,
    )
    data = generate_dataset(toy, 200, 0.0, RngStream(69))
    cfg = _toy_cfg(n=200, sigma2=(0.0,), methods=("NoBiasCorr", "NP", "LSCal", "OptCal"))
    streams = {
        "ls": RngStream(69, 2), "l2": RngStream(69, 3), "optpred": RngStream(69, 4)
    }
    preds, info = build_predictors(data, toy, KernelSpec("matern32", 0.3, 1), cfg, streams)
    assert set(preds) == {"NoBiasCorr", "NP", "LSCal", "OptCal"}
    for method, score in pmse(preds, toy, 5000, RngStream(69, 5)).items():
        assert score <= 1e-6, method
    assert info["theta_ls"][0] == pytest.approx(1.0, abs=1e-6)


def test_build_predictors_single_method():
    sys1 = get_system("ex1")
    data = generate_dataset(sys1, 20, 0.3, RngStream(70))
    cfg = _toy_cfg(n=20, methods=("NP",))
    preds, info = build_predictors(
        data, sys1, KernelSpec("matern32", 0.3, 1), cfg,
        {"ls": RngStream(70, 2), "l2": RngStream(70, 3), "optpred": RngStream(70, 4)},
    )
    assert set(preds) == {"NP"}
    assert "np_lambda" in info and "theta_ls" not in info


def test_build_predictors_method_streams_are_isolated():
    # OptCal must come out the same whether or not LSCal runs beside it
    sys1 = get_system("ex1")
    data = generate_dataset(sys1, 20, 0.3, RngStream(71))
    kernel = KernelSpec("matern32", 0.3, 1)

    def fresh_streams():
        return {
            "ls": RngStream(71, 2), "l2": RngStream(71, 3), "optpred": RngStream(71, 4)
        }

    both, _ = build_predictors(
        data, sys1, kernel, _toy_cfg(n=20, methods=("LSCal", "OptCal")), fresh_streams()
    )
    alone, _ = build_predictors(
        data, sys1, kernel, _toy_cfg(n=20, methods=("OptCal",)), fresh_streams()
    )
    assert np.array_equal(both["OptCal"].theta, alone["OptCal"].theta)
    assert np.array_equal(both["OptCal"].fit.coef, alone["OptCal"].fit.coef)


def test_run_experiment_single_cell():
    rep = run_experiment(_toy_cfg())
    assert set(rep.per_replicate) == {("NP", 0.1)}
    assert rep.per_replicate[("NP", 0.1)].shape == (1,)
    assert rep.se("NP", 0.1) == 0.0


def test_run_experiment_extending_replicates_keeps_old_draws():
    a = run_experiment(_toy_cfg(replicates=2, methods=("NP", "LSCal")))
    b = run_experiment(_toy_cfg(replicates=4, methods=("NP", "LSCal")))
    for key, vals in a.per_replicate.items():
        assert np.array_equal(vals, b.per_replicate[key][:2])


def test_run_experiment_thread_count_does_not_change_output():
    cfg = _toy_cfg(replicates=3, sigma2=(0.1, 0.5), methods=("NP", "OptCal"))
    a = run_experiment(cfg, threads=1)
    b = run_experiment(cfg, threads=2)
    assert a.to_csv() == b.to_csv()
    for key in a.per_replicate:
        assert np.array_equal(a.per_replicate[key], b.per_replicate[key])


def test_run_experiment_starts_no_more_workers_than_cells(monkeypatch):
    started = []

    class InProcessPool:
        def __init__(self, max_workers, initializer):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            return map(fn, items)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", InProcessPool)
    cfg = _toy_cfg(replicates=3)
    want = run_experiment(cfg).to_csv()
    assert run_experiment(cfg, threads=8).to_csv() == want
    assert run_experiment(cfg, threads=2).to_csv() == want
    assert started == [3, 2]
    # one cell runs in this process, whatever the worker count
    run_experiment(_toy_cfg(), threads=0)
    run_experiment(_toy_cfg(), threads=4)
    assert started == [3, 2]
    with pytest.raises(ValueError, match="threads"):
        run_experiment(cfg, threads=-1)


def test_run_experiment_collects_traces_in_full_mode():
    cfg = _toy_cfg(replicates=2, methods=("OptCal",))
    rep = run_experiment(cfg, optpred_mode="full")
    assert set(rep.traces) == {(0.1, 0), (0.1, 1)}
    for trace in rep.traces.values():
        assert len(trace) >= 2
        for u, v in zip(trace, trace[1:]):
            assert v <= u + 1e-12 * max(1.0, abs(u))


def test_run_experiment_writes_out_file(tmp_path):
    out = tmp_path / "report.csv"
    rep = run_experiment(_toy_cfg(out=str(out)))
    assert out.read_text() == rep.to_csv()


def test_report_csv_shape_and_sorting():
    cfg = _toy_cfg(replicates=2, sigma2=(0.5, 0.1), methods=("NP", "LSCal"))
    rep = run_experiment(cfg)
    lines = rep.to_csv().strip().split("\n")
    assert lines[0] == "method,sigma2,mean_pmse,se_pmse,replicates"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [(r[0], float(r[1])) for r in rows] == [
        ("LSCal", 0.1), ("LSCal", 0.5), ("NP", 0.1), ("NP", 0.5)
    ]
    for r in rows:
        assert r[4] == "2"
        # 17 significant digits survive a read back
        assert float(r[2]) == rep.mean(r[0], float(r[1]))


def test_report_se_matches_sample_standard_deviation():
    rep = run_experiment(_toy_cfg(replicates=3))
    vals = rep.per_replicate[("NP", 0.1)]
    assert rep.se("NP", 0.1) == pytest.approx(np.std(vals, ddof=1), rel=1e-15)
    assert rep.mean("NP", 0.1) == pytest.approx(vals.mean(), rel=1e-15)


def test_optcal_beats_lscal_per_replicate():
    # at a fixed kernel scale the prediction-weighted parameter wins the
    # per-replicate comparison well above chance; with CV-selected scales
    # the two methods nearly coincide and the rate drops toward one half
    cfg = ExperimentConfig(
        system="ex1", n=50, sigma2=(0.1, 0.25), replicates=100,
        mc_test_points=20_000, methods=("LSCal", "OptCal"), psi=0.2,
    )
    rep = run_experiment(cfg, threads=1)
    for s2 in cfg.sigma2:
        assert rep.mean("OptCal", s2) < rep.mean("LSCal", s2)
    ls = rep.per_replicate[("LSCal", 0.25)]
    oc = rep.per_replicate[("OptCal", 0.25)]
    assert float(np.mean(oc <= ls)) >= 0.6


def test_parse_config_round_trip(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# toy experiment\n"
        "system = ex1\n"
        "n = 20\n"
        "sigma2 = 0.1, 0.25\n"
        "replicates = 3\n"
        "mc_test_points = 2000\n"
        "methods = NP, LSCal\n"
        "psi = 0.3\n"
        "starts = 3\n"
        "seed = 7\n"
        "out = r.csv\n"
    )
    cfg = parse_config(path)
    assert cfg == ExperimentConfig(
        system="ex1", n=20, sigma2=(0.1, 0.25), replicates=3, mc_test_points=2000,
        methods=("NP", "LSCal"), psi=0.3, starts=3,
        seed=7, out="r.csv",
    )


def test_parse_config_defaults_and_cv5(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("system=ex1\nn=20\nsigma2=0.1\nreplicates=2\npsi=cv5\n")
    cfg = parse_config(path)
    assert cfg.psi == "cv5"
    assert cfg.mc_test_points == 100_000


def test_parse_config_errors(tmp_path):
    cases = {
        "unknown.cfg": "system=ex1\nn=20\nsigma2=0.1\nreplicates=2\ncolor=red\n",
        "dup.cfg": "system=ex1\nsystem=ex2\nn=20\nsigma2=0.1\nreplicates=2\n",
        "missing.cfg": "system=ex1\nn=20\nreplicates=2\n",
        "noeq.cfg": "system ex1\n",
        "neglam.cfg": "system=ex1\nn=20\nsigma2=0.1\nreplicates=2\nlambda_grid=-1e-3,1e-3\n",
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ValueError):
            parse_config(path)
