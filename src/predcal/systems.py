"""Named physical systems and computer models used by the experiments.

Each system bundles a ground-truth response (when one exists), a
computer model with its parameter box, and the input dimension.  The
trajectory system ``ex3`` is a drag-corrected fall whose computer model
is the frictionless quadratic; the ``ion`` system is a four-state
channel-gating model whose output is a matrix-exponential entry, and it
has no closed-form truth: data for it comes from a CSV file.  One model
call takes ``linalg.matrix_exponential``, the stacked Pade-13, over all
its (parameter row, design point) matrices at once; the tests check the
entry against ``scipy.linalg.expm``.  ex1's computer model is its truth
minus a distortion, so a search or a profile evaluates the truth on one
point set over and over: ``ex1_zeta`` keeps the values of its last
point set and hands out copies of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import csv
import math

import numpy as np

from .calibrate import ComputerModel
from .linalg import matrix_exponential
from .regression import Dataset
from .rng import _integer, normal, uniform

__all__ = [
    "NoTruthAvailable",
    "NamedSystem",
    "ex1_zeta",
    "ex1_eta",
    "ex2_zeta",
    "ex2_eta",
    "ex3_zeta",
    "ex3_eta",
    "ion_eta",
    "get_system",
    "system_names",
    "generate_dataset",
    "load_dataset_csv",
    "load_points_csv",
]


class NoTruthAvailable(Exception):
    """The system has no ground-truth response to sample from."""


@dataclass(frozen=True)
class NamedSystem:
    """A benchmark system: optional truth, computer model, input dimension."""

    id: str
    zeta: Optional[Callable]  # maps (m, d) points to m values
    model: ComputerModel
    d: int


def _ex1_truth(x):
    return np.exp(np.pi * x / 5.0) * np.sin(2.0 * np.pi * x)


# ex1_zeta's one slot: (shape, bytes) of the last points and a private copy
# of their values; replaced whole, so a reader never sees half an update
_ex1_last = None


def ex1_zeta(x):
    """Damped-growth oscillation exp(pi x / 5) sin(2 pi x).

    Points with the shape and the bytes of the previous call's get a
    fresh copy of its values, bit for bit what the formula gives; the key
    is the points' values, so neither a new array object nor a changed
    read-only view can be served stale values.
    """
    global _ex1_last
    x = np.asarray(x, dtype=float)
    key, last = x.tobytes(), _ex1_last
    if last is not None and last[0] == x.shape and last[1] == key:
        return last[2].copy()
    values = _ex1_truth(x)
    _ex1_last = (x.shape, key, values.copy())
    return values


def ex1_eta(x, theta):
    """Truth minus a one-parameter oscillatory distortion.

    ``theta`` is a scalar, or a (k, 1) column for a (k, m) result from
    (m,) inputs; the truth term is computed once either way.
    """
    x = np.asarray(x, dtype=float)
    amp = np.sqrt(theta * theta - theta + 1.0)
    arg = 2.0 * np.pi * theta * x
    wave = np.sin(arg) + np.cos(arg)
    return ex1_zeta(x) - amp * wave


def ex2_zeta(x1, x2):
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    return (
        (2.0 / 3.0) * np.exp(x1 + 0.2)
        - x2 * np.sin(0.4)
        + 0.4
        + np.exp(-x1) * (x1 + 0.5) * (x2 * x2 + x2 + 1.0)
    )


def ex2_eta(x1, x2, t1, t2):
    """Computer model of ex2; scalar parameters, or (k, 1) columns for a (k, m) result."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    return (2.0 / 3.0) * np.exp(x1 + t1) - x2 * np.sin(t2) + t2


_EX3_C = 50.0 / 49.0
_EX3_SHIFT = math.atanh(math.sqrt(0.02))


def ex3_zeta(x):
    """Height of a falling body with quadratic drag, started at 8."""
    x = np.asarray(x, dtype=float)
    th = np.tanh(_EX3_SHIFT + np.sqrt(2.0) * x)
    return 8.0 + 2.5 * np.log(_EX3_C - _EX3_C * th * th)

def ex3_eta(x, v0, g):
    """Frictionless trajectory 8 + v0 x - g x^2 / 2.

    ``v0`` and ``g`` are scalars, or (k, 1) columns for a (k, m) result.
    """
    x = np.asarray(x, dtype=float)
    return 8.0 + v0 * x - 0.5 * g * x * x


def _ion_generator(theta):
    """Generators A(theta), shape (..., 4, 4), of rate vectors of shape (..., 3)."""
    theta = np.asarray(theta, dtype=float)
    t1, t2, t3 = theta[..., 0], theta[..., 1], theta[..., 2]
    a = np.zeros(theta.shape[:-1] + (4, 4))
    a[..., 0, 0], a[..., 0, 1] = -t2 - t3, t1
    a[..., 1, 0], a[..., 1, 1], a[..., 1, 2] = t2, -t1 - t2, t1
    a[..., 2, 1], a[..., 2, 2], a[..., 2, 3] = t2, -t1 - t2, t1
    a[..., 3, 2], a[..., 3, 3] = t2, -t1
    return a


def ion_eta(x, theta):
    """Channel-gating model: first-row, last-column entry of exp(e^x A(theta)).

    ``x`` is an array of log times, and the result an array of its shape;
    ``theta`` holds the three positive transition rates.  A (k, 3) array
    of rate rows gives a (k,) + x.shape result, from one matrix
    exponential call over the whole stack.
    """
    theta = np.asarray(theta, dtype=float)
    a = _ion_generator(theta).reshape(theta.shape[:-1] + (1,) * np.ndim(x) + (4, 4))
    return matrix_exponential(np.exp(x)[..., None, None] * a)[..., 0, 3]


def _make_systems():
    ex1_model = ComputerModel(
        eta=lambda x, th: ex1_eta(x[:, 0], th[:, :1]),
        theta_box=[[-1.0, 1.0]],
    )
    ex2_model = ComputerModel(
        eta=lambda x, th: ex2_eta(x[:, 0], x[:, 1], th[:, :1], th[:, 1:]),
        theta_box=[[0.0, 1.0], [0.0, 1.0]],
    )
    ex3_model = ComputerModel(
        eta=lambda x, th: ex3_eta(x[:, 0], th[:, :1], th[:, 1:]),
        theta_box=[[0.0, 5.0], [0.0, 20.0]],
    )
    ion_model = ComputerModel(
        eta=lambda x, th: ion_eta(x[:, 0], th),
        theta_box=[[0.01, 10.0]] * 3,
    )
    return {
        "ex1": NamedSystem(
            id="ex1",
            zeta=lambda x: ex1_zeta(x[:, 0]),
            model=ex1_model,
            d=1,
        ),
        "ex2": NamedSystem(
            id="ex2",
            zeta=lambda x: ex2_zeta(x[:, 0], x[:, 1]),
            model=ex2_model,
            d=2,
        ),
        "ex3": NamedSystem(
            id="ex3",
            zeta=lambda x: ex3_zeta(x[:, 0]),
            model=ex3_model,
            d=1,
        ),
        "ion": NamedSystem(id="ion", zeta=None, model=ion_model, d=1),
    }


_SYSTEMS = _make_systems()


def system_names():
    return tuple(sorted(_SYSTEMS))


def get_system(name):
    try:
        return _SYSTEMS[name]
    except KeyError:
        raise KeyError(f"unknown system {name!r}; choose from {system_names()}") from None


def generate_dataset(system, n, sigma, stream):
    """Sample n noisy observations of the system truth at uniform inputs.

    Raises
    ------
    NoTruthAvailable
        For systems without a ground-truth response (``ion``).
    """
    if system.zeta is None:
        raise NoTruthAvailable(f"system {system.id!r} has no sampling truth")
    n = _integer("n", n)
    if n < 1:
        raise ValueError("n must be >= 1")
    x = uniform(stream, system.d, size=n)
    y = system.zeta(x) + normal(stream, sigma, size=n)
    return Dataset(x=x, y=y)


def _read_csv(path, d=None):
    """Read the numeric rows of a CSV whose header starts ``x1,...,xd``.

    A single input column may also be named plain ``x``.  With ``d``
    given, the first d columns are read and any after them ignored.  With
    ``d`` None the file is a dataset: the last column must be ``y``, the
    inputs are the columns before it, and every row must fill them all.
    Every value must be finite.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        header = [h.strip() for h in header]
        if d is None:
            if header[-1:] != ["y"]:
                raise ValueError(f"{path}: last column must be 'y', got {header[-1:]}")
            d, ncols, keep = len(header) - 1, len(header), None
        else:
            ncols = keep = d
        if d < 1 or len(header) < d:
            raise ValueError(f"{path}: expected {d} input column(s), got {header}")
        for j, name in enumerate(header[:d]):
            if name != f"x{j + 1}" and not (d == 1 and name == "x"):
                raise ValueError(
                    f"{path}: input column {j} must be named 'x{j + 1}', got {name!r}"
                )
        try:
            rows = [[float(v) for v in row[:keep]] for row in reader if row]
        except ValueError as err:  # float() names the value
            raise ValueError(f"{path}:{reader.line_num}: {err}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    if any(len(row) != ncols for row in rows):
        raise ValueError(f"{path}: inconsistent column count")
    arr = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{path}: values must be finite")
    return arr


def load_dataset_csv(path):
    """Read a dataset from CSV with header ``x1,...,xd,y``.

    A single input column may also be named plain ``x``.  Inputs may take
    any finite value, but L2 calibration needs them in the unit cube
    (rescale them before writing the file).
    """
    arr = _read_csv(path)
    return Dataset(x=arr[:, :-1], y=arr[:, -1])


def load_points_csv(path, d):
    """Read prediction points, an (m, d) array, from a CSV with header ``x1,...,xd``.

    Columns after the d inputs are ignored, so a dataset file serves as
    a points file.  Points need not lie in the unit cube.
    """
    return _read_csv(path, d)
