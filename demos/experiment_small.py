#!/usr/bin/env python3
"""A small replicated prediction experiment, end to end.

Runs the full harness on the benchmark system ``ex1``: replicated data
sets at two noise levels, four predictors per replicate (nonparametric,
model-only at the L2-calibrated parameter, and two bias-corrected
calibrated predictors), PMSE integrated against the known truth by a
midpoint rule over the unit cube.
Replicate counts and node budgets are kept small so the script
finishes in seconds; the report format is the same CSV the command line
interface writes.
"""

from predcal import ExperimentConfig, run_experiment

CONFIG = ExperimentConfig(
    system="ex1",
    n=50,
    sigma2=(0.1, 0.5),
    replicates=10,
    mc_test_points=5000,
)


def main():
    report = run_experiment(CONFIG, threads=1)
    print(report.to_csv())
    print("mean PMSE at each noise level, by method:")
    for s2 in CONFIG.sigma2:
        row = "  ".join(
            f"{m}={report.mean(m, s2):.4f}" for m in CONFIG.methods
        )
        print(f"  sigma2={s2}: {row}")
    print()
    print("replicates and node budgets are small here; the orderings tighten")
    print("as both grow (see the acceptance suite for the full-size runs)")


if __name__ == "__main__":
    main()
