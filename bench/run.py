#!/usr/bin/env python3
"""Benchmark of predcal: one workload, timed or traced.

    python3 bench/run.py --workload ex1-pmse --seed 1 --seconds 15 --trace 0

Run from the repository root; the library is imported from ``src/``.
Set-up is timed in fresh processes (see ``probe_setup``).  With
``--trace 0`` the workload runs untraced, whole rounds at a time, until
the rounds have taken ``--seconds``; it reports the end-to-end metrics.
With ``--trace 1`` it alternates an untraced and a traced round on the
same inputs for the same time and reports the per-layer metrics from
the traced rounds, plus the tracing overhead.  Outputs are
checked either way.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("ex1-pmse", "large-n", "ion-calibrate")
SETUP_PROBES = 7
TRACE_DIR = os.path.join(ROOT, ".bench_trace")

# Per-layer metrics of the traced run: (name, unit, better).  Calls,
# self and inclusive seconds and the extra counters are per traced round.
_CALLS_SELF = (
    "regression.select_lambda_gcv", "regression.gcv_score", "regression.fit_ridge",
    "linalg.cholesky", "linalg.solve_spd", "experiments.cv5_select_psi",
    "experiments.pmse", "kernels.kernel_cross", "regression.predict_discrepancy",
    "calibrate.minimize_box", "systems.eta", "linalg.matrix_exponential",
    "kernels.gram", "kernels.rkhs_norm_sq_approx", "bayes.posterior_mean",
    "bayes.partial_spline_limit",
)
_COUNTERS = (
    ("regression.gcv_at_grid_edge", "count"),
    ("linalg.cholesky.gflop", "GFLOP"),
    ("kernels.kernel_cross.mentries", "Mentries"),
    ("regression.predict_discrepancy.points", "count"),
    ("calibrate.objective.calls", "count"),
    ("systems.eta.points", "count"),
    ("kernels.gram.jitter_raised", "count"),
)
_INCLUSIVE = (
    "calibrate.calibrate_ls", "calibrate.calibrate_l2", "calibrate.calibrate_optpred",
    "experiments.run_experiment", "experiments.build_predictors",
)
_MODULES = ("rng", "linalg", "kernels", "regression", "calibrate", "bayes", "systems", "experiments")

LAYER_METRICS = (
    [(f"{f}.calls", "count", "lower") for f in _CALLS_SELF]
    + [(f"{f}.self_s", "s", "lower") for f in _CALLS_SELF]
    + [(name, unit, "lower") for name, unit in _COUNTERS]
    + [(f"{f}.s", "s", "lower") for f in _INCLUSIVE]
    + [("systems.zeta.self_s", "s", "lower"),
       ("systems.generate_dataset.self_s", "s", "lower"),
       ("rng.calls", "count", "lower")]
    + [(f"{m}.self_s", "s", "lower") for m in _MODULES]
    + [("trace.wall_s", "s", "lower"),
       ("trace.untraced_s", "s", "lower"),
       ("trace.overhead_pct", "%", "lower")]
)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb():
    # ru_maxrss is in KiB on Linux; the set-up probes are children, so
    # only this process counts
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads():
    """Thread counts of the OpenBLAS builds bundled with numpy and scipy."""
    import numpy
    import scipy

    found = {}
    for pkg, symbol in ((numpy, "scipy_openblas_get_num_threads64_"),
                        (scipy, "scipy_openblas_get_num_threads")):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), pkg.__name__ + ".libs")
        for lib in glob.glob(os.path.join(libdir, "*openblas*.so*")):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            found[pkg.__name__] = fn()
    return found


def manifest(args, workload):
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "op": workload.op,
        "ops_per_round": workload.ops(workload.inputs(0)),
        "cpus": os.cpu_count(),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _timed_round(workload, inp):
    c0 = _cpu_s()
    w0 = time.perf_counter()
    out = workload.run(inp)
    wall = time.perf_counter() - w0
    return out, wall, _cpu_s() - c0


class Tally:
    """Operations attempted and failed, and the problems the checks found."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, inp, out):
        self.attempted += self.workload.ops(inp)
        failed, problems = self.workload.check_round(inp, out)
        self.failed += failed
        self.problems += problems


def run_timed(workload, seconds, tally):
    walls, cpus = [], []
    r = 0
    while not walls or sum(walls) < seconds:
        inp = workload.inputs(r)
        out, wall, cpu = _timed_round(workload, inp)
        walls.append(wall)
        cpus.append(cpu)
        tally.add(inp, out)
        if r == 0:
            tally.problems += workload.check_run(inp, out)
        r += 1
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "rounds": len(walls),
    }


def run_traced(workload, seconds, tally):
    import workloads
    from tracing import Tracer, summarize

    tracer = Tracer()
    inp = workload.inputs(0)
    plain, traced = [], []
    while not traced or sum(plain) + sum(traced) < seconds:
        out, wall, _ = _timed_round(workload, inp)
        plain.append(wall)
        tally.add(inp, out)
        tracer.install(callers=[workloads])
        try:
            out, wall, _ = _timed_round(workload, inp)
        finally:
            tracer.uninstall()
        traced.append(wall)
        tally.add(inp, out)
    tally.problems += workload.check_run(inp, out)

    rounds = len(traced)
    stats, root_s = summarize(tracer.spans)
    counts = tracer.counts
    os.makedirs(TRACE_DIR, exist_ok=True)
    with open(os.path.join(TRACE_DIR, f"{workload.name}.spans.json"), "w") as fh:
        json.dump(tracer.spans, fh)

    def per_round(v):
        return v / rounds

    values = {}
    for f in _CALLS_SELF:
        calls, _, own = stats.get(f, (0, 0.0, 0.0))
        values[f"{f}.calls"] = per_round(calls)
        values[f"{f}.self_s"] = per_round(own)
    for name, _ in _COUNTERS:
        values[name] = per_round(counts.get(name, 0.0))
    for f in _INCLUSIVE:
        values[f"{f}.s"] = per_round(stats.get(f, (0, 0.0, 0.0))[1])
    for f in ("systems.zeta", "systems.generate_dataset"):
        values[f"{f}.self_s"] = per_round(stats.get(f, (0, 0.0, 0.0))[2])
    module_calls = {m: 0 for m in _MODULES}
    module_self = {m: 0.0 for m in _MODULES}
    for name, (calls, _, own) in stats.items():
        module = name.split(".")[0]
        module_calls[module] += calls
        module_self[module] += own
    values["rng.calls"] = per_round(module_calls["rng"])
    for m in _MODULES:
        values[f"{m}.self_s"] = per_round(module_self[m])
    wall = statistics.fmean(traced)
    values["trace.wall_s"] = wall
    values["trace.untraced_s"] = wall - per_round(root_s)
    values["trace.overhead_pct"] = 100.0 * (wall / statistics.fmean(plain) - 1.0)
    print(f"traced rounds {rounds}: self time {per_round(root_s):.6f} s "
          f"+ untraced {values['trace.untraced_s']:.6f} s = wall {wall:.6f} s per round; "
          f"overhead {values['trace.overhead_pct']:+.2f}%")
    return values


def probe_setup(name, seed):
    """Set up a workload in this fresh process; print the seconds it took.

    Set-up is what precedes the timed rounds: importing predcal, building
    the workload and round 0's inputs, and a small warm-up call of the
    same code.  The checks' reference values are left out.
    """
    t0 = time.perf_counter()
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import predcal  # noqa: F401
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    workload.inputs(0)
    workload.warmup()
    print(time.perf_counter() - t0)


def _probe_setup_elapsed(name, seed):
    # a fresh process each time, so that imports are paid as a user pays them
    code = "import sys, run; run.probe_setup(sys.argv[1], int(sys.argv[2]))"
    proc = subprocess.run([sys.executable, "-c", code, name, str(seed)], cwd=HERE,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**40 or args.seconds <= 0:
        parser.error("--seed must be in [0, 2**40) and --seconds > 0")

    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    try:
        import predcal  # noqa: F401
    except ImportError as err:
        print(f"run.py: cannot import predcal from {ROOT}/src: {err}", file=sys.stderr)
        return 1
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    workload.references()
    workload.warmup()

    info = manifest(args, workload)
    print("manifest " + json.dumps(info, sort_keys=True))
    tally = Tally(workload)
    if args.trace:
        values = run_traced(workload, args.seconds, tally)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
    else:
        probes = [_probe_setup_elapsed(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        print("setup probes " + " ".join(f"{t:.4f}" for t in probes))
        values = run_timed(workload, args.seconds, tally)
        values["setup_s"] = statistics.median(probes)
        values["peak_rss_mb"] = _peak_rss_mb()
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print(f"rounds {values['rounds']}")
    for problem in tally.problems:
        print(f"CHECK FAILED: {problem}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
