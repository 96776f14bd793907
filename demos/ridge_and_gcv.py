#!/usr/bin/env python3
"""Kernel ridge regression with GCV-chosen smoothing.

Fits the nonparametric discrepancy estimator to noisy draws from the
benchmark response ``ex1`` and shows how the generalized cross validation
score traces out the smoothing level: too small overfits the noise, too
large flattens the fit.  Prints the score at a few grid points, the
selected value, and the resulting test error.
"""

import numpy as np

from predcal import (
    Dataset,
    KernelSpec,
    RngStream,
    fit_ridge_gcv,
    gcv_score,
    get_system,
    normal,
    predict_discrepancy,
    uniform,
)

N = 80
SIGMA = 0.3
KERNEL = KernelSpec("matern32", psi=0.3, dim=1)


def main():
    system = get_system("ex1")
    stream = RngStream(7)
    x = uniform(stream, 1, size=N)
    y = system.zeta(x) + normal(stream, SIGMA, size=N)
    data = Dataset(x, y)

    print(f"n={N} noisy observations of the ex1 response, sigma={SIGMA}")
    print()
    print("lambda        GCV score")
    for lam in np.logspace(-6, 0, 7):
        print(f"{lam:12.2e}  {gcv_score(data, None, KERNEL, lam):.6f}")

    lam, fit = fit_ridge_gcv(data, None, KERNEL)

    grid = np.linspace(0.0, 1.0, 2001)[:, None]
    err = predict_discrepancy(fit, grid) - system.zeta(grid)
    print()
    print(f"selected lambda  {lam:.4e}")
    print(f"mean squared error of the fit on a fine grid  {np.mean(err * err):.6f}")
    print(f"(noise variance was {SIGMA ** 2:.3f}; the fit should sit well below it)")


if __name__ == "__main__":
    main()
