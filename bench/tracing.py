"""Span tracing of predcal's public functions, installed from outside.

``Tracer.install`` replaces each public function of the eight library
modules with a recording wrapper, in every ``predcal`` module namespace
that holds a reference to it, so calls made through ``from .x import f``
are caught as well.  A span is ``(name, start, end, parent)`` with times
from ``time.perf_counter``; spans stay in memory until the run ends.

``uninstall`` restores the original functions.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict

MODULES = (
    "rng",
    "linalg",
    "kernels",
    "regression",
    "calibrate",
    "bayes",
    "systems",
    "experiments",
)

# Model and truth formulas are traced through the objects that call them
# (``systems.eta`` and ``systems.zeta``), so their own names are skipped
# to keep those spans' self time whole.
_SKIP = {"ex1_eta", "ex1_zeta", "ex2_eta", "ex2_zeta", "ex3_eta", "ex3_zeta", "ion_eta"}


class Tracer:
    """In-memory span recorder with per-call counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(float)
        self._undo = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn, measure=None):
        spans, stack, counts = self.spans, self.stack, self.counts

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if measure is not None:
                measure(counts, args, kwargs, out)
            return out

        return functools.update_wrapper(traced, fn)

    # -- installation ----------------------------------------------------

    def install(self, callers=()):
        """Wrap the public functions in predcal and in the ``callers`` modules."""
        import predcal

        # before the lookups below are wrapped themselves
        model_cls = predcal.calibrate.ComputerModel
        self._patch(model_cls, "eval", self._wrap("systems.eta", model_cls.eval, _eta_points))
        for sysname in predcal.systems.system_names():
            system = predcal.systems.get_system(sysname)
            if system.zeta is not None:
                self._patch(system, "zeta", self._wrap("systems.zeta", system.zeta), frozen=True)
        measures = {
            "linalg.cholesky": _cholesky_flops,
            "kernels.kernel_cross": _cross_entries,
            "kernels.gram": _gram_jitter,
            "regression.predict_discrepancy": _predict_points,
            "regression.select_lambda_gcv": _gcv_edge,
        }
        namespaces = [m for k, m in sys.modules.items() if k.split(".")[0] == "predcal"]
        namespaces += callers
        for modname in MODULES:
            mod = getattr(predcal, modname)
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not isinstance(fn, types.FunctionType) or attr in _SKIP:
                    continue
                name = f"{modname}.{attr}"
                if name == "calibrate.minimize_box":
                    wrapped = self._wrap(name, self._counting_objective(fn))
                else:
                    wrapped = self._wrap(name, fn, measures.get(name))
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            self._patch(ns, key, wrapped)

    def _counting_objective(self, minimize_box):
        counts = self.counts

        def with_count(objective, *args, **kwargs):
            def counted(theta):
                counts["calibrate.objective.calls"] += 1
                return objective(theta)

            return minimize_box(counted, *args, **kwargs)

        return with_count

    def _patch(self, owner, key, value, frozen=False):
        old = owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
        setter = object.__setattr__ if frozen else setattr
        setter(owner, key, value)
        self._undo.append((owner, key, old, setter))

    def uninstall(self):
        while self._undo:
            owner, key, old, setter = self._undo.pop()
            setter(owner, key, old)


# -- counters measured at the call boundary -------------------------------


def _cholesky_flops(counts, args, kwargs, out):
    n = out.l.shape[0]
    counts["linalg.cholesky.gflop"] += n**3 / 3.0 / 1e9


def _cross_entries(counts, args, kwargs, out):
    counts["kernels.kernel_cross.mentries"] += out.size / 1e6


def _gram_jitter(counts, args, kwargs, out):
    from predcal.kernels import DEFAULT_JITTER

    requested = args[2] if len(args) > 2 else kwargs.get("jitter", DEFAULT_JITTER)
    if out.jitter > requested:
        counts["kernels.gram.jitter_raised"] += 1


def _predict_points(counts, args, kwargs, out):
    counts["regression.predict_discrepancy.points"] += 1 if isinstance(out, float) else len(out)


def _gcv_edge(counts, args, kwargs, out):
    import numpy as np
    from predcal.regression import DEFAULT_LAMBDA_GRID

    grid = args[3] if len(args) > 3 else kwargs.get("grid")
    grid = DEFAULT_LAMBDA_GRID if grid is None else np.asarray(grid, dtype=float)
    if out in (float(np.min(grid)), float(np.max(grid))):
        counts["regression.gcv_at_grid_edge"] += 1


def _eta_points(counts, args, kwargs, out):
    counts["systems.eta.points"] += len(out)


# -- aggregation -----------------------------------------------------------


def summarize(spans):
    """Per-name calls, inclusive and self seconds, and the root-span total.

    A span's self time is its duration minus the durations of its direct
    children; spans of one process nest without overlap, so the self times
    of all spans sum to the total duration of the root spans.
    """
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    stats = defaultdict(lambda: [0, 0.0, 0.0])
    root_s = 0.0
    for i, (name, t0, t1, parent) in enumerate(spans):
        s = stats[name]
        s[0] += 1
        s[1] += t1 - t0
        s[2] += t1 - t0 - child_time[i]
        if parent < 0:
            root_s += t1 - t0
    return dict(stats), root_s
