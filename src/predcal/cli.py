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
from functools import partial

import numpy as np

from .bayes import LinearComputerModel, verify_proposition_limit
from .calibrate import (
    DEFAULT_STARTS,
    L2_NODES,
    CalibrationResult,
    _check_l2_design,
    _row_mean_square,
    calibrate_l2,
    calibrate_ls,
    calibrate_optpred,
)
from .experiments import (
    DEFAULT_SEED,
    choose_kernel,
    csv_text,
    parse_config,
    predict,
    run_experiment,
)
from .kernels import KernelSpec, _unit_cube_nodes, rkhs_norm_sq_approx
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
# the systems whose discrepancy norm profile is defined: one parameter and a truth
_PROFILE_MODELS = tuple(
    name for name in system_names()
    if get_system(name).zeta is not None and get_system(name).model.p == 1
)


def _finite_positive(text):
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return value


def _int_in(low, high=math.inf):
    def integer(text):  # argparse reports a non-integer as "invalid integer value"
        value = int(text)
        if not low <= value < high:
            raise argparse.ArgumentTypeError(f"must be an integer in [{low}, {high}), got {text!r}")
        return value

    return integer


def _alpha_grid(text):
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a comma list of numbers, got {text!r}") from None
    if not all(math.isfinite(v) and v > 0 for v in values):
        raise argparse.ArgumentTypeError(f"every value must be finite and > 0, got {text!r}")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise argparse.ArgumentTypeError(f"values must be strictly increasing, got {text!r}")
    return values


def _psi_or_cv5(text):
    return text if text == "cv5" else _finite_positive(text)


def _write(path, text):
    """Write ``text`` to the file ``path``, or to stdout when ``path`` is None."""
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_experiment(args):
    config = parse_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    _write(args.out, run_experiment(config, threads=args.threads).to_csv())
    return 0


def _cmd_calibrate(args):
    data = load_dataset_csv(args.data)
    system = get_system(args.model)
    if data.d != system.d:
        raise ValueError(
            f"dataset has {data.d} input column(s), model {args.model!r} expects {system.d}"
        )
    if args.method == "l2":
        # refused before choose_kernel's smoothing, with the data file named
        try:
            _check_l2_design(data.x)
        except ValueError as err:
            raise ValueError(f"{args.data}: {err}") from None
    # LS fits no discrepancy, so it has no kernel to choose
    kernel = None
    if args.method != "ls":
        kernel = choose_kernel(data, args.psi, RngStream(args.seed, 1))
    stream = RngStream(args.seed, 2)

    if args.method == "ls":
        result = calibrate_ls(data, system.model, starts=args.starts, stream=stream)
    elif args.method == "l2":
        result = calibrate_l2(data, system.model, kernel, starts=args.starts, stream=stream)
    else:
        result = calibrate_optpred(data, system.model, kernel, starts=args.starts, stream=stream)

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
        _write(args.out, json.dumps(payload, indent=1) + "\n")
    return 0


def _cmd_predict(args):
    try:
        with open(args.fit) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as err:
        raise ValueError(f"{args.fit}: not a JSON file ({err})") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{args.fit}: fit JSON must be an object, not {type(payload).__name__}")

    def finite(key):
        try:
            value = np.asarray(payload[key], dtype=float)
        except (TypeError, ValueError):  # not numbers, or ragged
            value = np.array(np.nan)
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{args.fit}: fit JSON key {key!r} must hold finite numbers")
        return value

    try:
        name, theta, fit = payload["model"], finite("theta"), None
        if payload.get("coef") is not None:
            spec = payload["kernel"]
            if not isinstance(spec, dict):
                raise ValueError(
                    f"{args.fit}: fit JSON key 'kernel' must be an object when 'coef' is given"
                )
            try:
                kernel = KernelSpec(spec["family"], spec["psi"], spec["dim"])
            except ValueError as err:
                raise ValueError(f"{args.fit}: fit JSON key 'kernel' is refused: {err}") from None
            fit = DiscrepancyFit(coef=finite("coef"), kernel=kernel, train_x=finite("train_x"))
    except KeyError as err:
        raise ValueError(f"{args.fit}: fit JSON lacks key {err.args[0]!r}") from None
    if name not in system_names():
        raise ValueError(
            f"{args.fit}: fit JSON key 'model' must be one of {system_names()}, got {name!r}"
        )
    system = get_system(name)
    d, p = system.d, system.model.p
    if theta.size != p:
        raise ValueError(
            f"{args.fit}: fit JSON key 'theta' must hold p={p} values for model {name!r}, "
            f"got {theta.size}"
        )
    if fit is not None:
        if fit.kernel.dim != d:
            raise ValueError(
                f"{args.fit}: fit JSON key 'kernel.dim' must be {d} for model {name!r}, "
                f"got {fit.kernel.dim}"
            )
        if fit.train_x.ndim != 2 or fit.train_x.shape[1] != d:
            raise ValueError(
                f"{args.fit}: fit JSON key 'train_x' must form an (n, {d}) array, "
                f"got shape {fit.train_x.shape}"
            )
        if fit.coef.shape != fit.train_x.shape[:1]:
            raise ValueError(
                f"{args.fit}: fit JSON key 'coef' must hold one value per row of 'train_x' "
                f"({fit.train_x.shape[0]}), got shape {fit.coef.shape}"
            )
    fitted = CalibrationResult(theta, payload.get("method", ""), fit)

    points = load_points_csv(args.points, system.d)
    pred = predict(system.model, {"fit": fitted}, points)["fit"]

    header = ",".join(f"x{j + 1}" for j in range(system.d)) + ",prediction"
    rows = [tuple(points[i]) + (float(pred[i]),) for i in range(points.shape[0])]
    _write(args.out, csv_text(header, rows))
    return 0


def _cmd_profile(args):
    system = get_system(args.model)
    lo, hi = system.model.theta_box[0]
    # lo + i*step, never past hi; the guard keeps an endpoint that the
    # division puts a rounding error short of a whole number of steps
    count = math.floor((hi - lo) / args.step + 1e-9) + 1
    thetas = np.minimum(lo + args.step * np.arange(count), hi)

    if args.norm == "l2":
        # the squared truth-model gap on the nodes that L2 calibration integrates over
        pts = _unit_cube_nodes(1, L2_NODES)
        truth = system.zeta(pts)
        values = _row_mean_square(truth - system.model.eval_batch(pts, thetas[:, None])).tolist()
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

    _write(args.out, csv_text("theta,norm_sq", zip(thetas, values)))
    return 0


def _cmd_proposition(args):
    alphas = args.alpha_grid
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
    _write(args.out, csv_text("alpha,max_deviation", zip(alphas, map(float, devs))))
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="predcal",
        description="Calibration and prediction experiments for computer models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # whole flag names only: argparse would otherwise read any prefix of a
    # flag, including the name of a removed flag, as that flag
    add_parser = partial(sub.add_parser, allow_abbrev=False)

    p = add_parser("experiment", help="run a replicated prediction experiment")
    p.add_argument("--config", required=True, help="key=value config file")
    p.add_argument("--seed", type=_int_in(0, 2**64), default=None, help="override the config seed")
    p.add_argument("--threads", type=_int_in(0), default=1, help="worker count, 0 = auto")
    p.add_argument("--out", default=None, help="report CSV path (default stdout)")
    p.set_defaults(func=_cmd_experiment)

    p = add_parser("calibrate", help="calibrate a model against a CSV dataset")
    p.add_argument("--data", required=True, help="dataset CSV with header x1,...,xd,y")
    p.add_argument("--model", required=True, choices=system_names())
    p.add_argument("--method", required=True, choices=("ls", "l2", "optpred"))
    p.add_argument("--psi", type=_psi_or_cv5, default="cv5",
                   help="kernel scale, or 'cv5' to cross-validate")
    p.add_argument("--starts", type=_int_in(1), default=DEFAULT_STARTS)
    p.add_argument("--seed", type=_int_in(0, 2**64), default=DEFAULT_SEED)
    p.add_argument("--out", default=None, help="write the fit as JSON for `predict`")
    p.set_defaults(func=_cmd_calibrate)

    p = add_parser("predict", help="evaluate a saved fit at new points")
    p.add_argument("--fit", required=True, help="fit JSON from `calibrate --out`")
    p.add_argument("--points", required=True, help="points CSV with header x1,...,xd")
    p.add_argument("--out", default=None, help="prediction CSV path (default stdout)")
    p.set_defaults(func=_cmd_predict)

    p = add_parser("profile", help="discrepancy-norm profile over theta")
    p.add_argument("--model", default="ex1", choices=_PROFILE_MODELS,
                   help="a system with one parameter and a known truth")
    p.add_argument("--norm", required=True, choices=("l2", "rkhs"))
    p.add_argument("--psi", type=_finite_positive, default=DEFAULT_PROFILE_PSI,
                   help="kernel scale for the rkhs norm")
    p.add_argument("--step", type=_finite_positive, default=1e-3, help="theta grid step")
    p.add_argument("--grid", type=_int_in(2), default=PROFILE_GRID_1D,
                   help="interpolation grid size for the rkhs norm")
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=_cmd_profile)

    p = add_parser("proposition", help="posterior-mean convergence table")
    p.add_argument("--n", type=_int_in(3), required=True,
                   help="design size, at least the 3 terms of the quadratic basis")
    p.add_argument("--alpha-grid", type=_alpha_grid, default="1,100,10000,1000000,100000000",
                   help="comma list of prior variances, finite, > 0 and strictly increasing")
    p.add_argument("--beta", type=_finite_positive, default=1.0)
    p.add_argument("--sigma2", type=_finite_positive, default=0.25)
    p.add_argument("--psi", type=_finite_positive, default=0.3)
    p.add_argument("--seed", type=_int_in(0, 2**64), default=DEFAULT_SEED)
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
