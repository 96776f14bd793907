#!/usr/bin/env python3
"""Run every workload repeatedly and report each end-to-end metric's spread.

    python3 bench/steady.py --runs 10 [--first-seed 1] [--workload ex1-pmse ...] [--seconds N]

Each run is ``bench/run.py`` in its own process with seeds
``--first-seed``, ``--first-seed`` + 1, ..., so inputs differ between
runs.  For every workload and end-to-end metric it prints the median
and the spread -- the distance between the first and third quartile as
a share of the median -- next to the metric's bound from
BENCHMARK.json.  A spread below a third of the bound is marked
steady.  It also prints the operations attempted and failed per run and
whether the failed share is identical across runs.  With ``--runs 1``
it is the one command that runs every workload and prints every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), time.perf_counter() - t0


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", nargs="*", choices=names, default=names)
    args = parser.parse_args(argv)

    steady = True
    for workload in args.workload:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            res, elapsed = run_once(workload, seed, args.seconds)
            results.append(res)
            shown = "  ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items())
            print(f"{workload} seed={seed} correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} elapsed={elapsed:.1f}s  {shown}", flush=True)
        shares = {Fraction(r["failed"], r["attempted"]) for r in results}
        correct = all(r["correct"] for r in results)
        print(f"{workload}: correct in every run: {correct}; failed share "
              f"{'identical' if len(shares) == 1 else 'DIFFERS'}: {sorted(map(str, shares))}")
        steady &= correct and len(shares) == 1
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            sp = spread(values)
            ok = sp < metric["bound"] / 3
            steady &= ok or len(values) < 2
            label = "n/a" if len(values) < 2 else "steady" if ok else "NOT STEADY"
            print(f"  {metric['name']:<12} median {statistics.median(values):.6g} {metric['unit']:<4} "
                  f"spread {sp:.4f}  bound {metric['bound']:.2f}  {label}", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
