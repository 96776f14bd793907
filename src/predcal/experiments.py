"""Replicated prediction experiments over the named systems.

A run draws ``replicates`` independent datasets per noise level, builds
the requested predictors on each, and scores them by mean squared
prediction error against the noiseless truth on a fresh Monte Carlo
sample.  Per-replicate randomness comes from streams keyed by
(noise index, replicate, phase), so results are bit-identical no matter
how replicates are scheduled, and adding replicates never changes the
ones already run.

Each fitted predictor is a ``Predictor(theta, fit)`` record: the
computer model at ``theta`` plus the discrepancy expansion ``fit``, either
term absent when None.  Predictor names:

* ``NoBiasCorr`` -- computer model at the L2-calibrated parameter, no
  discrepancy correction.
* ``NP``        -- nonparametric ridge fit of the response alone.
* ``LSCal``     -- computer model at the least squares parameter plus a
  GCV-tuned discrepancy fit.
* ``OptCal``    -- computer model at the prediction-weighted parameter
  plus its discrepancy fit.
"""

from __future__ import annotations

import ctypes
import glob
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Optional

import numpy as np
import scipy

from .calibrate import DEFAULT_STARTS, calibrate_l2, calibrate_ls, calibrate_optpred
from .kernels import KernelSpec, gram, kernel_cross
from .regression import (
    Dataset,
    DiscrepancyFit,
    _residuals,
    fit_ridge,
    predict_discrepancy,
    select_lambda_gcv,
)
from .rng import RngStream, uniform
from .systems import NoTruthAvailable, generate_dataset, get_system

__all__ = [
    "METHOD_NAMES",
    "DEFAULT_SEED",
    "ExperimentConfig",
    "PmseReport",
    "Predictor",
    "default_psi_grid",
    "cv5_select_psi",
    "choose_kernel",
    "csv_text",
    "predict",
    "pmse",
    "build_predictors",
    "run_experiment",
    "parse_config",
]

METHOD_NAMES = ("NoBiasCorr", "NP", "LSCal", "OptCal")
DEFAULT_SEED = 20240101

# kernel length scales tried by cross-validation (unit-cube designs);
# scaled by sqrt(d) so the grid tracks typical pairwise distances
_PSI_GRID_1D = (0.05, 0.1, 0.2, 0.3, 0.5, 1.0)

# stream phases within one replicate
_PHASE_DATA = 0
_PHASE_PSI = 1
_PHASE_LS = 2
_PHASE_L2 = 3
_PHASE_OPTPRED = 4
_PHASE_TEST = 5

# test points scored per block; bounds the (block, n) kernel matrix
_PMSE_CHUNK = 32768

# the integer fields of ExperimentConfig
_INT_KEYS = ("n", "replicates", "mc_test_points", "starts", "seed")


def default_psi_grid(d):
    return tuple(p * math.sqrt(d) for p in _PSI_GRID_1D)


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings of one experiment run."""

    system: str
    n: int
    sigma2: tuple
    replicates: int
    mc_test_points: int = 100_000
    methods: tuple = METHOD_NAMES
    psi: object = "cv5"  # "cv5" or a fixed positive length scale
    starts: int = DEFAULT_STARTS
    seed: int = DEFAULT_SEED
    out: Optional[str] = None

    def __post_init__(self):
        get_system(self.system)
        for key in _INT_KEYS:
            value = getattr(self, key)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{key} must be an integer, got {value!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must lie in [0, 2**64)")
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if len(self.sigma2) < 1 or not all(math.isfinite(s) and s >= 0 for s in self.sigma2):
            raise ValueError("sigma2 must be a nonempty list of finite nonnegative values")
        if len(set(self.sigma2)) != len(self.sigma2):
            raise ValueError("sigma2 values must be distinct")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.mc_test_points < 1000:
            raise ValueError("mc_test_points must be >= 1000")
        bad = [m for m in self.methods if m not in METHOD_NAMES]
        if bad or not self.methods:
            raise ValueError(f"methods must be a nonempty subset of {METHOD_NAMES}")
        fixed_psi = isinstance(self.psi, numbers.Real) and not isinstance(self.psi, bool)
        if self.psi != "cv5" and not (fixed_psi and math.isfinite(self.psi) and self.psi > 0):
            raise ValueError("psi must be 'cv5' or a finite positive number")
        if self.psi == "cv5" and self.n < 5:
            raise ValueError("psi='cv5' needs n >= 5 for five-fold cross-validation")
        if self.starts < 1:
            raise ValueError("starts must be >= 1")


def _stream(seed, sigma_idx, replicate, phase):
    # (noise index, replicate, phase) packed into one 64-bit stream id;
    # independent of replicate count, so extending a run keeps old draws
    return RngStream(seed, (sigma_idx << 44) | (replicate << 4) | phase)


def cv5_select_psi(data, family, psi_grid, eta_at_x, stream):
    """Pick a kernel length scale by five-fold cross-validation.

    Folds come from one seeded shuffle of the design.  For every grid
    value, each fold is predicted by a GCV-tuned ridge fit of the
    remaining folds; the scale with the smallest summed squared error
    wins, ties going to the larger (smoother) scale.
    """
    psi_grid = sorted(float(p) for p in psi_grid)
    if not psi_grid:
        raise ValueError("psi grid is empty")
    if data.n < 5:
        raise ValueError("five-fold cross-validation needs at least 5 points")
    resid = _residuals(data, eta_at_x)

    perm = stream.generator.permutation(data.n)
    folds = np.array_split(perm, 5)

    best_psi = None
    best_err = np.inf
    for psi in psi_grid:
        spec = KernelSpec(family, psi, data.d)
        err = 0.0
        for fold in folds:
            mask = np.ones(data.n, dtype=bool)
            mask[fold] = False
            train = Dataset(x=data.x[mask], y=resid[mask])
            gm = gram(spec, train.x)
            lam = select_lambda_gcv(train, None, spec, gram_matrix=gm)
            fit = fit_ridge(train, None, spec, lam, gram_matrix=gm)
            pred = predict_discrepancy(fit, data.x[fold])
            err += float(np.sum((resid[fold] - pred) ** 2))
        if err <= best_err:  # ascending grid: ties keep the larger scale
            best_err = err
            best_psi = psi
    return best_psi


def choose_kernel(data, psi, stream):
    """The Matern-3/2 kernel at length scale ``psi``, or, for ``psi="cv5"``, at the
    five-fold CV pick over ``default_psi_grid`` with folds drawn from ``stream``."""
    if psi == "cv5":
        psi = cv5_select_psi(data, "matern32", default_psi_grid(data.d), None, stream)
    return KernelSpec("matern32", float(psi), data.d)


def csv_text(header, rows):
    """CSV text: the header line, then one line per row, floats as %.17g and other values by str."""
    lines = [header]
    for row in rows:
        lines.append(",".join("%.17g" % v if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Predictor:
    """A fitted predictor x -> eta(x, theta) + h(x).

    ``theta`` is None when there is no model term (NP); ``fit`` is the
    discrepancy expansion h, None when there is no correction.
    """

    theta: Optional[np.ndarray]
    fit: Optional[DiscrepancyFit]


def predict(model, predictors, x):
    """Evaluate a mapping of name -> Predictor at the points ``x`` (m, d).

    Returns a mapping of name -> (m,) array.  Fits that share a kernel
    and a training design share one kernel matrix; each still takes its
    own matrix-vector product.
    """
    cross = {}
    out = {}
    for name, p in predictors.items():
        value = None if p.theta is None else model.eval(x, p.theta)
        if p.fit is not None:
            key = (p.fit.kernel, id(p.fit.train_x))
            if key not in cross:
                cross[key] = kernel_cross(p.fit.kernel, x, p.fit.train_x)
            h = cross[key] @ p.fit.coef
            value = h if value is None else value + h
        out[name] = value
    return out


def pmse(predictors, system, mc_test_points, stream):
    """Mean squared prediction error of each predictor against the noiseless truth.

    Draws ``mc_test_points`` uniform inputs from ``stream`` once and, for
    every name -> Predictor of the mapping, averages (prediction - truth)^2
    over them; returns a mapping of name -> PMSE.  A predictor scores the
    same whichever others it is scored with.  Evaluation is chunked to
    bound memory; each average is taken over the full array at once.
    """
    if system.zeta is None:
        raise NoTruthAvailable(f"system {system.id!r} has no truth to score against")
    if mc_test_points < 1:
        raise ValueError("mc_test_points must be >= 1")
    x = uniform(stream, system.d, size=mc_test_points)
    sq = {name: np.empty(mc_test_points) for name in predictors}
    for lo in range(0, mc_test_points, _PMSE_CHUNK):
        hi = min(lo + _PMSE_CHUNK, mc_test_points)
        truth = system.zeta(x[lo:hi])
        for name, pred in predict(system.model, predictors, x[lo:hi]).items():
            diff = pred - truth
            sq[name][lo:hi] = diff * diff
    return {name: float(np.mean(v)) for name, v in sq.items()}


def build_predictors(data, system, kernel, config, streams, optpred_mode="one_step"):
    """Build the requested predictors on one dataset.

    ``streams`` maps phase names ("ls", "l2", "optpred") to independent
    streams, so each method's randomness is unaffected by which other
    methods run alongside it.

    Returns
    -------
    (predictors, info)
        ``predictors`` maps method name to a ``Predictor``; ``info``
        holds fitted parameters, smoothing levels, and the
        prediction-weighted objective trace when OptCal ran.
    """
    model = system.model
    predictors = {}
    info = {"psi": kernel.psi}
    gm = gram(kernel, data.x) if {"NP", "LSCal"} & set(config.methods) else None

    if "NP" in config.methods:
        lam = select_lambda_gcv(data, None, kernel, gram_matrix=gm)
        fit = fit_ridge(data, None, kernel, lam, gram_matrix=gm)
        predictors["NP"] = Predictor(None, fit)
        info["np_lambda"] = lam

    if "NoBiasCorr" in config.methods:
        res = calibrate_l2(data, model, kernel, starts=config.starts, stream=streams["l2"])
        predictors["NoBiasCorr"] = Predictor(res.theta_hat, None)
        info["theta_l2"] = res.theta_hat

    if "LSCal" in config.methods:
        res = calibrate_ls(data, model, starts=config.starts, stream=streams["ls"])
        eta0 = model.eval(data.x, res.theta_hat)
        lam = select_lambda_gcv(data, eta0, kernel, gram_matrix=gm)
        fit = fit_ridge(data, eta0, kernel, lam, gram_matrix=gm)
        predictors["LSCal"] = Predictor(res.theta_hat, fit)
        info["theta_ls"] = res.theta_hat
        info["ls_lambda"] = lam

    if "OptCal" in config.methods:
        res = calibrate_optpred(data, model, kernel, mode=optpred_mode, starts=config.starts,
                                stream=streams["optpred"])
        predictors["OptCal"] = Predictor(res.theta_hat, res.discrepancy)
        info["theta_opt"] = res.theta_hat
        info["opt_lambda"] = res.lambda_used
        info["opt_trace"] = list(res.objective_trace)

    return predictors, info


def _run_replicate(config, optpred_mode, cell):
    """PMSE scores and info of one (noise index, replicate) cell; a failure names the cell."""
    sigma_idx, replicate = cell
    try:
        system = get_system(config.system)
        stream = partial(_stream, config.seed, sigma_idx, replicate)
        sigma = math.sqrt(config.sigma2[sigma_idx])
        data = generate_dataset(system, config.n, sigma, stream(_PHASE_DATA))
        kernel = choose_kernel(data, config.psi, stream(_PHASE_PSI))
        streams = {"ls": stream(_PHASE_LS), "l2": stream(_PHASE_L2), "optpred": stream(_PHASE_OPTPRED)}
        predictors, info = build_predictors(
            data, system, kernel, config, streams, optpred_mode=optpred_mode
        )
        return pmse(predictors, system, config.mc_test_points, stream(_PHASE_TEST)), info
    except Exception as err:
        raise RuntimeError(
            f"replicate {replicate} at sigma2={config.sigma2[sigma_idx]} failed: {err}"
        ) from err


@dataclass
class PmseReport:
    """Aggregated scores of one experiment, plus per-replicate detail."""

    config: ExperimentConfig
    per_replicate: dict  # (method, sigma2) -> ndarray of replicate PMSEs
    traces: dict = field(default_factory=dict)  # (sigma2, replicate) -> OptCal trace

    def mean(self, method, sigma2):
        return float(np.mean(self.per_replicate[(method, sigma2)]))

    def se(self, method, sigma2):
        vals = self.per_replicate[(method, sigma2)]
        return float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0

    def to_csv(self):
        """Report as CSV text, rows sorted by (method, sigma2)."""
        rows = [
            (method, float(sigma2), self.mean(method, sigma2), self.se(method, sigma2),
             self.per_replicate[(method, sigma2)].size)
            for method, sigma2 in sorted(self.per_replicate)
        ]
        return csv_text("method,sigma2,mean_pmse,se_pmse,replicates", rows)

    def write(self, path):
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv())


def _one_blas_thread():
    """Pool initializer: pin the OpenBLAS bundled with numpy and scipy to one thread.

    Workers already split the CPUs between them; BLAS threads on top of
    that oversubscribe them.  A library or symbol that is not found is
    left alone.
    """
    for pkg, symbol in ((np, "scipy_openblas_set_num_threads64_"),
                        (scipy, "scipy_openblas_set_num_threads")):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), pkg.__name__ + ".libs")
        for lib in glob.glob(os.path.join(libdir, "*openblas*.so*")):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            fn.argtypes = [ctypes.c_int]
            fn.restype = None
            fn(1)


def run_experiment(config, threads=1, optpred_mode="one_step"):
    """Run every (noise level, replicate) cell and aggregate the scores.

    ``threads`` caps the worker processes (0 means one per CPU), each with
    one BLAS thread; no more start than there are cells, since a pool
    starts all of them at once, and a single worker runs in this process.
    Results are keyed by replicate index, so the output is identical for
    any worker count.  Any replicate failure aborts the run with the
    replicate index in the message.  When OptCal runs, the
    report's ``traces`` hold each replicate's OptPred objective trace.
    """
    if threads < 0:
        raise ValueError("threads must be >= 0")
    cells = [(si, r) for si in range(len(config.sigma2)) for r in range(config.replicates)]
    run = partial(_run_replicate, config, optpred_mode)
    workers = min(threads or os.cpu_count() or 1, len(cells))
    if workers == 1:
        outcomes = [run(c) for c in cells]
    else:
        with ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread) as pool:
            outcomes = list(pool.map(run, cells, chunksize=1))

    per_replicate = {
        (m, s2): np.empty(config.replicates)
        for m in config.methods
        for s2 in config.sigma2
    }
    traces = {}
    for (si, r), (scores, info) in zip(cells, outcomes):
        s2 = config.sigma2[si]
        for method, value in scores.items():
            per_replicate[(method, s2)][r] = value
        if "opt_trace" in info:
            traces[(s2, r)] = info["opt_trace"]

    report = PmseReport(config=config, per_replicate=per_replicate, traces=traces)
    if config.out:
        report.write(config.out)
    return report


def parse_config(path):
    """Read an ExperimentConfig from a flat key=value file.

    Lines are ``key=value``; ``#`` starts a comment; list values are
    comma-separated.  Keys are the ``ExperimentConfig`` field names.
    """
    raw = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            key = key.strip()
            value = value.strip()
            if key in raw:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            raw[key] = value

    unknown = set(raw) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ValueError(f"{path}: unknown keys {sorted(unknown)}")
    for req in ("system", "n", "sigma2", "replicates"):
        if req not in raw:
            raise ValueError(f"{path}: missing required key {req!r}")

    kwargs = {"system": raw["system"]}
    for key in raw.keys() & _INT_KEYS:
        kwargs[key] = int(raw[key])
    kwargs["sigma2"] = tuple(float(v) for v in raw["sigma2"].split(","))
    if "methods" in raw:
        kwargs["methods"] = tuple(m.strip() for m in raw["methods"].split(","))
    if "psi" in raw:
        kwargs["psi"] = "cv5" if raw["psi"] == "cv5" else float(raw["psi"])
    if "out" in raw:
        kwargs["out"] = raw["out"]
    return ExperimentConfig(**kwargs)
