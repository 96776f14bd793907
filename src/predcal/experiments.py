"""Replicated prediction experiments over the named systems.

A run draws ``replicates`` independent datasets per noise level, builds
the requested predictors on each, and scores them all by mean squared
prediction error against the noiseless truth, one midpoint rule over the
unit cube (``mc_test_points`` nodes).  Per-replicate randomness comes from
streams keyed by (noise index, replicate, phase), so the draws are the
same however the replicates are scheduled, and adding replicates never
changes the ones already run.

Each fitted predictor is a ``calibrate.CalibrationResult``, evaluated by
``predict``: the computer model at ``theta_hat`` plus the discrepancy
expansion ``discrepancy``, either term absent when None.  Predictor names:

* ``NoBiasCorr`` -- computer model at the L2-calibrated parameter, no
  discrepancy correction.
* ``NP``        -- nonparametric ridge fit of the response alone.
* ``LSCal``     -- computer model at the least squares parameter plus a
  GCV-tuned discrepancy fit.
* ``OptCal``    -- computer model at the prediction-weighted parameter
  plus its discrepancy fit.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .calibrate import (
    DEFAULT_STARTS,
    CalibrationResult,
    _check_l2_design,
    _l2_search,
    _ls_searches,
    _optpred_step,
)
from .kernels import KernelSpec, _unit_cube_nodes, gram, kernel_apply
from .regression import _fit_gcv, _residuals, _ridge_gcv_coef, _spectrum
from .rng import RngStream
from .systems import NoTruthAvailable, generate_dataset, get_system

__all__ = [
    "METHOD_NAMES",
    "DEFAULT_SEED",
    "ExperimentConfig",
    "PmseReport",
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

# the stream each least squares search draws its starts from: LSCal's own,
# and OptCal's, which its warm start shares with its weighted search
_LS_STREAMS = {"LSCal": "ls", "OptCal": "optpred"}

# the integer fields of ExperimentConfig
_INT_KEYS = ("n", "replicates", "mc_test_points", "starts", "seed")


def default_psi_grid(d):
    if d < 1:
        raise ValueError("input dimension must be >= 1")
    return tuple(p * math.sqrt(d) for p in _PSI_GRID_1D)


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings of one experiment run."""

    system: str
    n: int
    sigma2: tuple
    replicates: int
    mc_test_points: int = 10_000  # nodes of the PMSE midpoint rule
    methods: tuple = METHOD_NAMES
    psi: object = "cv5"  # "cv5" or a fixed positive length scale
    starts: int = DEFAULT_STARTS
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        # the list fields are stored as tuples, so a config hashes and equals
        # the one parse_config builds however its lists were given; a string
        # is iterable, but a list of its characters is no list that was meant
        for key in ("sigma2", "methods"):
            value = getattr(self, key)
            if isinstance(value, str) or not np.iterable(value):
                raise ValueError(f"{key} must be a list, got {value!r}")
            object.__setattr__(self, key, tuple(value))
        if get_system(self.system).zeta is None:
            raise ValueError(f"system {self.system!r} has no sampling truth")
        for key in _INT_KEYS:
            value = getattr(self, key)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{key} must be an integer, got {value!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must lie in [0, 2**64)")
        if self.n < 2:
            raise ValueError("n must be >= 2")
        levels_ok = all(isinstance(s, numbers.Real) and not isinstance(s, bool)
                        and math.isfinite(s) and s >= 0 for s in self.sigma2)
        if not (self.sigma2 and levels_ok):
            raise ValueError("sigma2 must be a nonempty list of finite nonnegative numbers")
        if len(set(self.sigma2)) != len(self.sigma2):
            raise ValueError("sigma2 values must be distinct")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.mc_test_points < 1000:
            raise ValueError("mc_test_points must be >= 1000")
        bad = [m for m in self.methods if m not in METHOD_NAMES]
        if bad or not self.methods:
            raise ValueError(f"methods must be a nonempty subset of {METHOD_NAMES}")
        repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if repeated:
            raise ValueError(f"methods must be distinct; repeated: {', '.join(repeated)}")
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

    One Gram matrix of the whole design per scale serves every fold: its
    training block is the training design's Gram matrix and its held-out
    block the held-out kernel matrix, both bit for bit, since the jitter
    sits only on the diagonal.  Each fold's level is ``fit_ridge_gcv``'s
    pick; ``_cv5_errors`` fits equal-sized folds as one stack, bit for bit.
    """
    psi_grid = sorted(float(p) for p in psi_grid)
    if not psi_grid:
        raise ValueError("psi grid is empty")
    if data.n < 5:
        raise ValueError("five-fold cross-validation needs at least 5 points")
    errors = _cv5_errors(data, family, psi_grid, eta_at_x, stream)
    # ascending grid: the first minimum of the reversed errors is the largest tied scale
    return psi_grid[-1 - int(np.argmin(errors[::-1]))]


def _cv5_errors(data, family, psi_grid, eta_at_x, stream):
    """The summed squared held-out errors of ``cv5_select_psi``, one per scale of
    ``psi_grid``.

    Per scale: one Gram matrix, then per fold size one gather of the
    stacked (F, m, m) training and (F, h, m) held-out blocks, one stacked
    ``_ridge_gcv_coef`` and one stacked prediction.  The fold errors are
    summed in fold order.
    """
    resid = _residuals(data, eta_at_x)
    folds = np.array_split(stream.generator.permutation(data.n), 5)
    # (held-out, training) index rows of the folds of each size; array_split
    # puts the larger folds first, so the groups keep the fold order
    groups = []
    for size in sorted({fold.size for fold in folds}, reverse=True):
        held_out = np.array([fold for fold in folds if fold.size == size])
        mask = np.ones((held_out.shape[0], data.n), dtype=bool)
        np.put_along_axis(mask, held_out, False, axis=1)
        groups.append((held_out, np.nonzero(mask)[1].reshape(held_out.shape[0], -1)))

    errors = np.empty(len(psi_grid))
    for i, psi in enumerate(psi_grid):
        sigma = gram(KernelSpec(family, psi, data.d), data.x).values
        fold_err = []
        for held_out, train in groups:
            _, coef = _ridge_gcv_coef(sigma[train[:, :, None], train[:, None, :]], resid[train])
            pred = (sigma[held_out[:, :, None], train[:, None, :]] @ coef[:, :, None])[:, :, 0]
            fold_err.append(np.sum((resid[held_out] - pred) ** 2, axis=1))
        err = 0.0
        for e in np.concatenate(fold_err):
            err += e
        errors[i] = err
    return errors


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


def predict(model, predictors, x):
    """Evaluate a mapping of name -> ``CalibrationResult`` at the points ``x`` (m, d).

    Returns a mapping of name -> (m,) array.  All model terms come from
    one ``eval_batch`` call, and the fits that share a kernel and a
    training design from one ``kernel_apply`` call, one coefficient column
    each; every value has the bits of its terms evaluated alone.
    """
    out = dict.fromkeys(predictors)
    modelled = [name for name, p in predictors.items() if p.theta_hat is not None]
    if modelled:
        thetas = np.reshape([predictors[name].theta_hat for name in modelled], (len(modelled), -1))
        out.update(zip(modelled, model.eval_batch(x, thetas)))
    groups = {}
    for name, p in predictors.items():
        if p.discrepancy is not None:
            groups.setdefault((p.discrepancy.kernel, id(p.discrepancy.train_x)), []).append(name)
    for names in groups.values():
        fits = [predictors[name].discrepancy for name in names]
        h = kernel_apply(fits[0].kernel, x, fits[0].train_x, np.column_stack([f.coef for f in fits]))
        for name, col in zip(names, h.T):
            out[name] = col if out[name] is None else out[name] + col
    return out


def pmse(predictors, system, nodes):
    """Mean squared prediction error of each predictor against the noiseless truth.

    For every name -> ``CalibrationResult`` of the mapping, integrates
    (prediction - truth)^2 over the unit cube by the midpoint rule with at
    most ``nodes`` nodes; returns a mapping of name -> PMSE, each the same
    whichever others it is scored with.  One ``predict`` call evaluates
    them all, so at d > 1 each shared kernel and design holds one
    (nodes, n) matrix.
    """
    if system.zeta is None:
        raise NoTruthAvailable(f"system {system.id!r} has no truth to score against")
    if nodes < 1:
        raise ValueError("nodes must be >= 1")
    x = _unit_cube_nodes(system.d, nodes)
    truth, preds = system.zeta(x), predict(system.model, predictors, x)
    return {name: float(np.mean(np.square(p - truth))) for name, p in preds.items()}


def build_predictors(data, system, kernel, config, streams):
    """Build the requested predictors on one dataset.

    ``streams`` maps phase names ("ls", "l2", "optpred") to independent
    streams, so each method's randomness is unaffected by which other
    methods run alongside it.

    Returns a mapping of method name -> ``CalibrationResult``: NP's is
    ``(None, "NP", fit, lambda)`` and LSCal's ``(theta_LS, "LS", fit, lambda)``,
    each fit ``fit_ridge_gcv``'s, NoBiasCorr's is ``calibrate_l2``'s and
    OptCal's ``calibrate_optpred``'s.  Each has the bits of its pieces run
    alone on its stream, but shared work is done once.  One Gram matrix of
    the design and its eigendecomposition (``regression._spectrum``) give
    NP's, LSCal's and OptPred's GCV levels.  LSCal's least squares search
    and OptCal's warm start run as one lockstep, each group of starts drawn
    from its own stream and keeping its own best (``calibrate._ls_searches``).
    NP's fit of the raw response is L2's smoother.  With NoBiasCorr asked
    for, a design outside the unit cube is refused before any fit.
    """
    model = system.model
    methods = config.methods
    if "NoBiasCorr" in methods:
        _check_l2_design(data.x)
    fits = {}
    spectrum = _spectrum(kernel, data.x)

    if "NP" in methods or "NoBiasCorr" in methods:
        smoother = _fit_gcv(data, None, kernel, spectrum)

    if "NP" in methods:
        lam, fit = smoother
        fits["NP"] = CalibrationResult(None, "NP", fit, lam)

    if "NoBiasCorr" in methods:
        fits["NoBiasCorr"] = _l2_search(data, model, smoother, config.starts, streams["l2"])

    searched = [m for m in ("LSCal", "OptCal") if m in methods]
    if searched:
        ls_streams = [streams[_LS_STREAMS[m]] for m in searched]
        theta_ls = dict(zip(searched, _ls_searches(data, model, config.starts, ls_streams)))

    if "LSCal" in methods:
        theta = theta_ls["LSCal"]
        lam, fit = _fit_gcv(data, model.eval(data.x, theta), kernel, spectrum)
        fits["LSCal"] = CalibrationResult(theta, "LS", fit, lam)

    if "OptCal" in methods:
        fits["OptCal"] = _optpred_step(data, model, kernel, spectrum, theta_ls["OptCal"],
                                       config.starts, streams["optpred"])

    return fits


def _run_replicate(config, cell):
    """PMSE scores and fitted predictors of one (noise index, replicate) cell; a
    failure names the cell."""
    sigma_idx, replicate = cell
    try:
        system = get_system(config.system)
        stream = partial(_stream, config.seed, sigma_idx, replicate)
        sigma = math.sqrt(config.sigma2[sigma_idx])
        data = generate_dataset(system, config.n, sigma, stream(_PHASE_DATA))
        kernel = choose_kernel(data, config.psi, stream(_PHASE_PSI))
        streams = {"ls": stream(_PHASE_LS), "l2": stream(_PHASE_L2), "optpred": stream(_PHASE_OPTPRED)}
        fits = build_predictors(data, system, kernel, config, streams)
        return pmse(fits, system, config.mc_test_points), fits
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
        """Standard deviation (ddof = 1) of the replicate PMSEs, the report's
        ``se_pmse``; not the standard error of their mean.  0 for one replicate."""
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


def run_experiment(config, threads=1):
    """Run every (noise level, replicate) cell and aggregate the scores.

    ``threads`` caps the worker processes (0 means one per CPU); no more
    start than there are cells, since a pool starts all of them at once, and
    a single worker runs in this process.  Every process that imports
    predcal runs one BLAS thread (``predcal.linalg``), and results are keyed
    by replicate index, so every worker count gives the same output bits.
    A replicate failure aborts the run with its index in the message.  When
    OptCal runs, ``traces`` hold each replicate's OptPred trace.  Returns the
    ``PmseReport`` and writes no file: ``report.to_csv()`` is its text.
    """
    if threads < 0:
        raise ValueError("threads must be >= 0")
    cells = [(si, r) for si in range(len(config.sigma2)) for r in range(config.replicates)]
    run = partial(_run_replicate, config)
    workers = min(threads or os.cpu_count() or 1, len(cells))
    if workers == 1:
        outcomes = [run(c) for c in cells]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(run, cells, chunksize=1))

    per_replicate = {
        (m, s2): np.empty(config.replicates)
        for m in config.methods
        for s2 in config.sigma2
    }
    traces = {}
    for (si, r), (scores, fits) in zip(cells, outcomes):
        s2 = config.sigma2[si]
        for method, value in scores.items():
            per_replicate[(method, s2)][r] = value
        if "OptCal" in fits:
            traces[(s2, r)] = fits["OptCal"].objective_trace

    return PmseReport(config=config, per_replicate=per_replicate, traces=traces)


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

    def converted(key, convert):
        try:
            return convert(raw[key])
        except ValueError as err:
            raise ValueError(f"{path}: {key} has an invalid value {raw[key]!r} ({err})") from None

    kwargs = {"system": raw["system"]}
    for key in raw.keys() & _INT_KEYS:
        kwargs[key] = converted(key, int)
    kwargs["sigma2"] = converted("sigma2", lambda v: tuple(float(s) for s in v.split(",")))
    if "methods" in raw:
        kwargs["methods"] = tuple(m.strip() for m in raw["methods"].split(","))
    if "psi" in raw:
        kwargs["psi"] = converted("psi", lambda v: "cv5" if v == "cv5" else float(v))
    try:
        return ExperimentConfig(**kwargs)
    except (ValueError, KeyError) as err:
        raise ValueError(f"{path}: {err.args[0]}") from None
