"""Command-line plumbing: exit codes, CSV shapes, fit round trips."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import predcal
from predcal import (
    DEFAULT_SEED,
    KernelSpec,
    RngStream,
    calibrate_optpred,
    generate_dataset,
    get_system,
    load_dataset_csv,
    parse_config,
    predict,
    run_experiment,
    uniform,
)
from predcal.calibrate import L2_NODES
from predcal.cli import cli_main
from predcal.kernels import _unit_cube_nodes


def _write_dataset(path, n=25, noise=0.2, seed=80):
    sys1 = get_system("ex1")
    data = generate_dataset(sys1, n, noise, RngStream(seed))
    lines = ["x,y"] + [
        f"{float(a)!r},{float(b)!r}" for a, b in zip(data.x[:, 0], data.y)
    ]
    path.write_text("\n".join(lines) + "\n")
    return data


def _read_csv(path):
    lines = path.read_text().strip().split("\n")
    rows = [ln.split(",") for ln in lines[1:]]
    return lines[0], np.asarray(rows, dtype=float)


def test_no_arguments_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli_main([])
    assert exc.value.code == 2


def test_bad_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli_main(["profile", "--norm", "l3"])
    assert exc.value.code == 2


def test_missing_file_is_runtime_error(capsys):
    assert cli_main(["experiment", "--config", "/no/such/file.cfg"]) == 1
    assert "predcal: error" in capsys.readouterr().err


def test_profile_l2_csv(tmp_path):
    out = tmp_path / "l2.csv"
    assert cli_main(
        ["profile", "--model", "ex1", "--norm", "l2", "--step", "0.05", "--out", str(out)]
    ) == 0
    header, arr = _read_csv(out)
    assert header == "theta,norm_sq"
    assert arr.shape == (41, 2)
    assert np.all(np.isfinite(arr)) and np.all(arr[:, 1] >= 0)
    # coarse argmin sits on the negative side, far from the right edge
    best = arr[np.argmin(arr[:, 1]), 0]
    assert -0.4 <= best <= 0.0
    # each value is the mean squared truth-model gap on the L2 nodes, bit for bit
    system = get_system("ex1")
    pts = _unit_cube_nodes(1, L2_NODES)
    truth = system.zeta(pts)
    want = [float(np.mean((truth - system.model.eval(pts, [t])) ** 2)) for t in arr[:, 0]]
    assert [v.hex() for v in arr[:, 1]] == [v.hex() for v in want]


def test_profile_rkhs_csv(tmp_path):
    out = tmp_path / "rkhs.csv"
    assert cli_main(
        [
            "profile", "--model", "ex1", "--norm", "rkhs",
            "--step", "0.05", "--grid", "60", "--out", str(out),
        ]
    ) == 0
    header, arr = _read_csv(out)
    assert header == "theta,norm_sq"
    assert arr.shape == (41, 2)
    assert np.all(arr[:, 1] > 0)
    vals = arr[:, 1]
    interior_minima = [
        arr[i, 0]
        for i in range(1, len(vals) - 1)
        if vals[i] < vals[i - 1] and vals[i] < vals[i + 1]
    ]
    assert len(interior_minima) == 2
    assert -0.4 <= interior_minima[0] <= 0.0
    assert 0.2 <= interior_minima[1] <= 0.5


def test_profile_rkhs_csv_does_not_depend_on_the_blas_thread_count(tmp_path):
    # importing predcal pins OpenBLAS to one thread, whatever the environment
    # asks for; before that, this CSV differed from its second line on
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(predcal.__file__))]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    texts = []
    for threads in ("1", "2"):
        out = tmp_path / f"rkhs-{threads}.csv"
        subprocess.run(
            [sys.executable, "-m", "predcal", "profile", "--norm", "rkhs", "--step", "0.01",
             "--out", str(out)],
            env=dict(env, OPENBLAS_NUM_THREADS=threads), check=True, timeout=300,
        )
        texts.append(out.read_bytes())
    assert texts[0].count(b"\n") == 202
    assert texts[0] == texts[1]


def test_profile_step_must_be_finite_and_positive():
    for step in ("-0.1", "0", "nan", "inf"):
        with pytest.raises(SystemExit) as exc:
            cli_main(["profile", "--model", "ex1", "--norm", "l2", "--step", step])
        assert exc.value.code == 2


def test_profile_grid_stays_in_the_box(tmp_path):
    # lo + i*step: a step that does not divide the box stops short of its top
    out = tmp_path / "coarse.csv"
    assert cli_main(
        ["profile", "--model", "ex1", "--norm", "l2", "--step", "0.7", "--out", str(out)]
    ) == 0
    _, arr = _read_csv(out)
    assert arr[:, 0] == pytest.approx([-1.0, -0.3, 0.4], abs=1e-15)
    assert cli_main(
        ["profile", "--model", "ex1", "--norm", "l2", "--step", "0.3", "--out", str(out)]
    ) == 0
    assert _read_csv(out)[1][-1, 0] == pytest.approx(0.8, abs=1e-15)
    # the default step hits both ends and the middle exactly
    assert cli_main(["profile", "--model", "ex1", "--norm", "l2", "--out", str(out)]) == 0
    theta = _read_csv(out)[1][:, 0]
    assert theta.shape == (2001,)
    assert (theta[0], theta[1000], theta[2000]) == (-1.0, 0.0, 1.0)


def test_profile_model_without_one_parameter_and_a_truth_is_usage_error(capsys):
    # these once passed argparse and failed at run time with status 1
    for model in ("ex2", "ex3", "ion"):
        with pytest.raises(SystemExit) as exc:
            cli_main(["profile", "--model", model, "--norm", "l2"])
        assert exc.value.code == 2, model
        assert "--model" in capsys.readouterr().err


def test_calibrate_predict_round_trip(tmp_path, capsys):
    data_csv = tmp_path / "train.csv"
    _write_dataset(data_csv)
    fit_json = tmp_path / "fit.json"

    code = cli_main(
        [
            "calibrate", "--data", str(data_csv), "--model", "ex1",
            "--method", "optpred", "--psi", "0.3", "--out", str(fit_json),
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "method=OptPred-OneStep" in text
    assert "theta=" in text and "lambda=" in text

    payload = json.loads(fit_json.read_text())
    assert payload["model"] == "ex1"
    assert len(payload["coef"]) == 25
    assert payload["lambda"] > 0

    pts_csv = tmp_path / "pts.csv"
    pts = np.linspace(0.0, 1.0, 9)
    pts_csv.write_text("x1\n" + "\n".join(repr(float(p)) for p in pts) + "\n")
    pred_csv = tmp_path / "pred.csv"
    assert cli_main(
        ["predict", "--fit", str(fit_json), "--points", str(pts_csv), "--out", str(pred_csv)]
    ) == 0

    header, arr = _read_csv(pred_csv)
    assert header == "x1,prediction"
    assert arr.shape == (9, 2)

    # the CLI's prediction is the in-process record's, bit for bit: the
    # kernel of --psi 0.3, the starts from the stream that --seed keys
    data = load_dataset_csv(data_csv)
    system = get_system("ex1")
    result = calibrate_optpred(data, system.model, KernelSpec("matern32", 0.3, 1),
                               stream=RngStream(DEFAULT_SEED, 2))
    want = predict(system.model, {"fit": result}, pts.reshape(-1, 1))["fit"]
    assert [v.hex() for v in arr[:, 1]] == [float(v).hex() for v in want]
    assert [v.hex() for v in arr[:, 0]] == [float(v).hex() for v in pts]


def test_calibrate_ls_fit_predicts_model_only(tmp_path):
    data_csv = tmp_path / "train.csv"
    _write_dataset(data_csv, n=15)
    fit_json = tmp_path / "fit.json"
    assert cli_main(
        [
            "calibrate", "--data", str(data_csv), "--model", "ex1",
            "--method", "ls", "--out", str(fit_json),
        ]
    ) == 0
    payload = json.loads(fit_json.read_text())
    assert payload["coef"] is None

    pts_csv = tmp_path / "pts.csv"
    pts_csv.write_text("x\n0.25\n0.5\n")
    pred_csv = tmp_path / "pred.csv"
    assert cli_main(
        ["predict", "--fit", str(fit_json), "--points", str(pts_csv), "--out", str(pred_csv)]
    ) == 0
    _, arr = _read_csv(pred_csv)
    want = get_system("ex1").model.eval(np.array([[0.25], [0.5]]), payload["theta"])
    assert np.allclose(arr[:, 1], want, atol=1e-12)


def test_predict_accepts_training_csv_and_rejects_bad_header(tmp_path, capsys):
    data_csv = tmp_path / "train.csv"
    data = _write_dataset(data_csv, n=12)
    fit_json = tmp_path / "fit.json"
    assert cli_main(
        [
            "calibrate", "--data", str(data_csv), "--model", "ex1",
            "--method", "optpred", "--psi", "0.3", "--starts", "2", "--out", str(fit_json),
        ]
    ) == 0
    pred_csv = tmp_path / "pred.csv"
    # the y column after the inputs is ignored
    assert cli_main(
        ["predict", "--fit", str(fit_json), "--points", str(data_csv), "--out", str(pred_csv)]
    ) == 0
    _, arr = _read_csv(pred_csv)
    assert np.array_equal(arr[:, 0], data.x[:, 0])

    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("t\n0.25\n")
    capsys.readouterr()
    assert cli_main(["predict", "--fit", str(fit_json), "--points", str(bad_csv)]) == 1
    assert "predcal: error" in capsys.readouterr().err

    # a hand-edited fit whose theta has two entries for ex1's one
    payload = json.loads(fit_json.read_text())
    payload["theta"] = payload["theta"] + [99.0]
    fit_json.write_text(json.dumps(payload))
    assert cli_main(["predict", "--fit", str(fit_json), "--points", str(data_csv)]) == 1
    assert "p=1" in capsys.readouterr().err


def test_predict_names_a_missing_fit_key(tmp_path, capsys):
    data_csv = tmp_path / "train.csv"
    _write_dataset(data_csv, n=12)
    fit_json = tmp_path / "fit.json"
    assert cli_main(
        ["calibrate", "--data", str(data_csv), "--model", "ex1", "--method", "optpred",
         "--psi", "0.3", "--starts", "2", "--out", str(fit_json)]
    ) == 0
    full = json.loads(fit_json.read_text())
    broken = tmp_path / "broken.json"
    for key in ("theta", "kernel", "model"):
        broken.write_text(json.dumps({k: v for k, v in full.items() if k != key}))
        capsys.readouterr()
        assert cli_main(["predict", "--fit", str(broken), "--points", str(data_csv)]) == 1
        assert f"{broken}: fit JSON lacks key {key!r}" in capsys.readouterr().err


def test_predict_refuses_a_malformed_fit(tmp_path, capsys):
    # the first two once printed NaN predictions and exited 0
    data_csv = tmp_path / "train.csv"
    _write_dataset(data_csv, n=12)
    fit_json = tmp_path / "fit.json"
    assert cli_main(
        ["calibrate", "--data", str(data_csv), "--model", "ex1", "--method", "optpred",
         "--psi", "0.3", "--starts", "2", "--out", str(fit_json)]
    ) == 0
    full = json.loads(fit_json.read_text())
    broken = tmp_path / "broken.json"
    cases = [
        (dict(full, theta=None), "fit JSON key 'theta' must hold finite numbers"),
        (dict(full, train_x=[[float("nan")]]), "fit JSON key 'train_x' must hold finite numbers"),
        (dict(full, kernel=None), "fit JSON key 'kernel' must be an object"),
        ([full], "fit JSON must be an object"),
        # these five once blamed no file, or the points file
        ("model=ex1\n", "not a JSON file (Expecting value"),
        (dict(full, kernel=dict(full["kernel"], dim=2)),
         "fit JSON key 'kernel.dim' must be 1 for model 'ex1', got 2"),
        (dict(full, train_x=[row * 2 for row in full["train_x"]]),
         "fit JSON key 'train_x' must form an (n, 1) array, got shape (12, 2)"),
        (dict(full, coef=full["coef"][:5]),
         "fit JSON key 'coef' must hold one value per row of 'train_x' (12), got shape (5,)"),
        (dict(full, theta=[0.1, 0.2]),
         "fit JSON key 'theta' must hold p=1 values for model 'ex1', got 2"),
        # non-numbers and ragged arrays, which numpy cannot convert to a float array
        (dict(full, theta="abc"), "fit JSON key 'theta' must hold finite numbers"),
        (dict(full, train_x=[[0.1], [0.2, 0.3]]), "fit JSON key 'train_x' must hold finite numbers"),
        (dict(full, coef=[[0.1], [0.2, 0.3]]), "fit JSON key 'coef' must hold finite numbers"),
        # these once printed a quoted KeyError, or "unhashable type: 'list'"
        (dict(full, model="ex9"),
         "fit JSON key 'model' must be one of ('ex1', 'ex2', 'ex3', 'ion'), got 'ex9'"),
        (dict(full, model=["ex1"]),
         "fit JSON key 'model' must be one of ('ex1', 'ex2', 'ex3', 'ion'), got ['ex1']"),
        (dict(full, model=None),
         "fit JSON key 'model' must be one of ('ex1', 'ex2', 'ex3', 'ion'), got None"),
    ]
    for payload, message in cases:
        broken.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        capsys.readouterr()
        assert cli_main(["predict", "--fit", str(broken), "--points", str(data_csv)]) == 1
        out, err = capsys.readouterr()
        assert f"{broken}: {message}" in err and out == "", message


def test_predict_names_the_fit_and_key_of_a_refused_kernel(tmp_path, capsys):
    # a string psi once printed numpy's "ufunc 'isfinite' not supported", and
    # an unknown family named neither the file nor the key
    data_csv = tmp_path / "train.csv"
    _write_dataset(data_csv, n=12)
    fit_json = tmp_path / "fit.json"
    assert cli_main(
        ["calibrate", "--data", str(data_csv), "--model", "ex1", "--method", "optpred",
         "--psi", "0.3", "--starts", "2", "--out", str(fit_json)]
    ) == 0
    full = json.loads(fit_json.read_text())
    broken = tmp_path / "broken.json"
    cases = [
        (dict(psi="0.3"), "length scale psi must be a finite number > 0, got '0.3'"),
        (dict(psi=True), "length scale psi must be a finite number > 0, got True"),
        (dict(family="rbf"), "unknown kernel family 'rbf'"),
        (dict(dim="1"), "input dimension must be an integer >= 1, got '1'"),
    ]
    for change, reason in cases:
        broken.write_text(json.dumps(dict(full, kernel=dict(full["kernel"], **change))))
        capsys.readouterr()
        assert cli_main(["predict", "--fit", str(broken), "--points", str(data_csv)]) == 1
        out, err = capsys.readouterr()
        assert f"{broken}: fit JSON key 'kernel' is refused: {reason}" in err and out == "", reason


def test_predict_rejects_nonfinite_points(tmp_path, capsys):
    data_csv = tmp_path / "train.csv"
    _write_dataset(data_csv, n=10)
    fit_json = tmp_path / "fit.json"
    assert cli_main(
        ["calibrate", "--data", str(data_csv), "--model", "ex1", "--method", "ls",
         "--out", str(fit_json)]
    ) == 0
    pts_csv = tmp_path / "pts.csv"
    for bad in ("nan", "inf", "-inf"):
        pts_csv.write_text(f"x1\n0.25\n{bad}\n")
        capsys.readouterr()
        assert cli_main(["predict", "--fit", str(fit_json), "--points", str(pts_csv)]) == 1
        assert "finite" in capsys.readouterr().err


def test_calibrate_and_predict_name_the_file_and_line_of_a_non_number(tmp_path, capsys):
    # these once printed only "could not convert string to float: 'abc'"
    bad_data = tmp_path / "bad.csv"
    bad_data.write_text("x1,y\n0.2,abc\n")
    assert cli_main(["calibrate", "--data", str(bad_data), "--model", "ex1", "--method", "l2"]) == 1
    assert f"predcal: error: {bad_data}:2: " in capsys.readouterr().err

    data_csv, fit_json, bad_points = (tmp_path / f for f in ("train.csv", "fit.json", "pts.csv"))
    _write_dataset(data_csv, n=10)
    assert cli_main(["calibrate", "--data", str(data_csv), "--model", "ex1", "--method", "ls",
                     "--out", str(fit_json)]) == 0
    bad_points.write_text("x1\n0.25\nabc\n")
    capsys.readouterr()
    assert cli_main(["predict", "--fit", str(fit_json), "--points", str(bad_points)]) == 1
    out, err = capsys.readouterr()
    assert f"predcal: error: {bad_points}:3: " in err and "'abc'" in err and out == ""


def test_calibrate_l2_names_the_file_and_the_range_of_a_design_outside_the_unit_cube(
        tmp_path, capsys):
    # this once printed only "L2 calibration needs design coordinates in [0, 1]"
    data_csv = tmp_path / "wide.csv"
    x = np.linspace(-0.5, 1.5, 9)
    data_csv.write_text("x1,y\n" + "".join(f"{float(v)!r},{float(v)!r}\n" for v in x))
    assert cli_main(["calibrate", "--data", str(data_csv), "--model", "ex1", "--method", "l2",
                     "--psi", "0.3", "--starts", "1"]) == 1
    out, err = capsys.readouterr()
    assert err == (f"predcal: error: {data_csv}: L2 calibration needs design coordinates "
                   "in [0, 1], got min -0.5 and max 1.5\n")
    assert out == ""


def test_calibrate_dimension_mismatch(tmp_path, capsys):
    data_csv = tmp_path / "train.csv"
    _write_dataset(data_csv, n=10)
    assert cli_main(
        ["calibrate", "--data", str(data_csv), "--model", "ex2", "--method", "ls"]
    ) == 1
    assert "input column" in capsys.readouterr().err


def test_calibrate_rejects_nonpositive_or_infinite_psi(tmp_path, capsys):
    data_csv = tmp_path / "train.csv"
    _write_dataset(data_csv, n=10)
    for psi in ("inf", "0", "-0.3", "nan", "cv4"):
        with pytest.raises(SystemExit) as exc:
            cli_main(
                ["calibrate", "--data", str(data_csv), "--model", "ex1", "--method", "ls",
                 "--psi", psi]
            )
        assert exc.value.code == 2
        assert "psi" in capsys.readouterr().err


def test_positive_real_flags_are_usage_errors(capsys):
    # each of these once failed at run time with status 1
    cases = [
        ["profile", "--norm", "rkhs", "--psi", "0"],
        ["profile", "--norm", "rkhs", "--psi", "nan"],
        ["proposition", "--n", "5", "--beta", "inf"],
        ["proposition", "--n", "5", "--beta", "0"],
        ["proposition", "--n", "5", "--psi", "inf"],
        ["proposition", "--n", "5", "--sigma2", "-1"],
        ["proposition", "--n", "5", "--sigma2", "0"],
        # integer flags below their floor
        ["calibrate", "--data", "d.csv", "--model", "ex1", "--method", "ls", "--starts", "0"],
        ["profile", "--norm", "rkhs", "--grid", "1"],
        ["experiment", "--config", "c.cfg", "--threads", "-1"],
        ["proposition", "--n", "0"],
        ["proposition", "--n", "2"],
        # seeds outside [0, 2**64)
        ["experiment", "--config", "c.cfg", "--seed", "-1"],
        ["experiment", "--config", "c.cfg", "--seed", "18446744073709551616"],
        ["calibrate", "--data", "d.csv", "--model", "ex1", "--method", "ls", "--seed", "-1"],
        ["calibrate", "--data", "d.csv", "--model", "ex1", "--method", "ls",
         "--seed", "18446744073709551616"],
        ["proposition", "--n", "5", "--seed", "-1"],
        ["proposition", "--n", "5", "--seed", "18446744073709551616"],
        # alpha grids: not numbers, not finite, not > 0, not strictly increasing
        ["proposition", "--n", "5", "--alpha-grid", ""],
        ["proposition", "--n", "5", "--alpha-grid", "1,x"],
        ["proposition", "--n", "5", "--alpha-grid", "1,nan"],
        ["proposition", "--n", "5", "--alpha-grid", "1,inf"],
        ["proposition", "--n", "5", "--alpha-grid", "0,1"],
        ["proposition", "--n", "5", "--alpha-grid", "10,1"],
        ["proposition", "--n", "5", "--alpha-grid", "1,1"],
    ]
    for argv in cases:
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2, argv
        assert argv[-2] in capsys.readouterr().err


def test_calibrate_has_no_mode_flag(capsys):
    # OptPred is one procedure; the flag that once chose a second search is
    # gone, and it is not taken as an abbreviation of --model either
    cases = {
        ("--model", "ex1", "--mode", "one_step"): "unrecognized arguments: --mode one_step",
        ("--mode", "ex1"): "required: --model",
    }
    for argv, message in cases.items():
        with pytest.raises(SystemExit) as exc:
            cli_main(["calibrate", "--data", "d.csv", "--method", "optpred", *argv])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_calibrate_ls_chooses_no_kernel(tmp_path, capsys):
    # three rows are too few for five-fold psi cross-validation, which LS never uses
    data_csv = tmp_path / "train.csv"
    _write_dataset(data_csv, n=3)
    fit_json = tmp_path / "fit.json"
    assert cli_main(
        ["calibrate", "--data", str(data_csv), "--model", "ex1", "--method", "ls",
         "--starts", "2", "--out", str(fit_json)]
    ) == 0
    text = capsys.readouterr().out
    assert "psi=nan\n" in text and "lambda=nan\n" in text
    payload = json.loads(fit_json.read_text())
    assert payload["kernel"] is None and payload["coef"] is None


def test_calibrate_ion_ls_at_any_log_time(tmp_path, capsys):
    # ion inputs are log times, which need not lie in [0, 1]
    x = np.array([[-1.0], [0.5], [1.5]])
    y = get_system("ion").model.eval(x, [2.5, 1.2, 0.8])
    data_csv = tmp_path / "ion.csv"
    rows = "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(x[:, 0], y))
    data_csv.write_text("x,y\n" + rows)
    assert cli_main(
        ["calibrate", "--data", str(data_csv), "--model", "ion", "--method", "ls",
         "--starts", "2"]
    ) == 0
    text = capsys.readouterr().out
    assert "method=LS" in text
    theta = [float(v) for v in text.split("theta=")[1].split("\n")[0].split(",")]
    assert len(theta) == 3 and all(np.isfinite(theta))


def test_experiment_subcommand_matches_library(tmp_path, capsys):
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(
        "system=ex1\nn=12\nsigma2=0.1\nreplicates=2\n"
        "mc_test_points=1000\nmethods=NP\npsi=0.3\n"
    )
    out = tmp_path / "report.csv"
    assert cli_main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
    want = run_experiment(parse_config(cfg)).to_csv()
    assert out.read_text() == want
    assert capsys.readouterr().out == ""

    out2 = tmp_path / "report2.csv"
    assert cli_main(["experiment", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out2.read_bytes() == out.read_bytes()

    # without --out the same bytes go to stdout
    assert cli_main(["experiment", "--config", str(cfg)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.encode() == out.read_bytes() == want.encode()


def test_experiment_seed_override_changes_report(tmp_path):
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(
        "system=ex1\nn=12\nsigma2=0.1\nreplicates=1\n"
        "mc_test_points=1000\nmethods=NP\npsi=0.3\n"
    )
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli_main(["experiment", "--config", str(cfg), "--out", str(a)]) == 0
    assert cli_main(
        ["experiment", "--config", str(cfg), "--seed", "99", "--out", str(b)]
    ) == 0
    assert a.read_text() != b.read_text()


def test_proposition_subcommand(tmp_path):
    out = tmp_path / "prop.csv"
    # three points are the fewest that pin the quadratic basis
    assert cli_main(["proposition", "--n", "3", "--out", str(out)]) == 0
    assert cli_main(["proposition", "--n", "15", "--out", str(out)]) == 0
    header, arr = _read_csv(out)
    assert header == "alpha,max_deviation"
    assert arr.shape == (5, 2)
    assert np.all(np.diff(arr[:, 1]) <= 1e-14)
    assert arr[-1, 1] < 1e-4


def test_profile_stdout_when_no_out(capsys):
    assert cli_main(["profile", "--model", "ex1", "--norm", "l2", "--step", "0.5"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("theta,norm_sq\n")
    assert len(text.strip().split("\n")) == 6
