"""Command-line plumbing: exit codes, CSV shapes, fit round trips."""

import json

import numpy as np
import pytest

from predcal import (
    KernelSpec,
    RngStream,
    generate_dataset,
    get_system,
    parse_config,
    predict_discrepancy,
    run_experiment,
    uniform,
)
from predcal.cli import cli_main
from predcal.regression import DiscrepancyFit


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


def test_profile_step_must_be_finite_and_positive():
    for step in ("-0.1", "0", "nan", "inf"):
        with pytest.raises(SystemExit) as exc:
            cli_main(["profile", "--model", "ex1", "--norm", "l2", "--step", step])
        assert exc.value.code == 2


def test_profile_rejects_multi_parameter_model(capsys):
    assert cli_main(["profile", "--model", "ex2", "--norm", "l2"]) == 1
    assert "predcal: error" in capsys.readouterr().err


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

    # reconstruct the prediction from the saved payload
    system = get_system("ex1")
    fit = DiscrepancyFit(
        coef=np.asarray(payload["coef"]),
        lam=payload["lambda"],
        kernel=KernelSpec("matern32", payload["kernel"]["psi"], 1),
        train_x=np.asarray(payload["train_x"]),
    )
    want = system.model.eval(pts.reshape(-1, 1), payload["theta"])
    want = want + predict_discrepancy(fit, pts.reshape(-1, 1))
    assert np.allclose(arr[:, 1], want, atol=1e-12)


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
    for psi in ("inf", "0", "-0.3"):
        assert cli_main(
            ["calibrate", "--data", str(data_csv), "--model", "ex1", "--method", "ls", "--psi", psi]
        ) == 1
        assert "psi" in capsys.readouterr().err


def test_experiment_subcommand_matches_library(tmp_path):
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(
        "system=ex1\nn=12\nsigma2=0.1\nreplicates=2\n"
        "mc_test_points=1000\nmethods=NP\npsi=0.3\n"
    )
    out = tmp_path / "report.csv"
    assert cli_main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
    want = run_experiment(parse_config(cfg)).to_csv()
    assert out.read_text() == want

    out2 = tmp_path / "report2.csv"
    assert cli_main(["experiment", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out2.read_bytes() == out.read_bytes()


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
