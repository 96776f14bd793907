"""Prediction-oriented calibration of computer models.

The package fits a computer model eta(x, theta) to noisy field data
Y_i = zeta(X_i) + eps_i while modeling the physical-versus-model
discrepancy nonparametrically in the RKHS of a Matern-3/2 kernel.
Besides classical least squares and L2 calibration, it implements a
prediction-weighted calibration whose parameter update minimizes
(Y - eta)^T (Sigma + n*lambda I)^{-1} (Y - eta), the profiled form of
the joint penalized problem, and it verifies the Bayesian limit that
connects the penalized fit to a Gaussian-process posterior mean.

Importing predcal pins the OpenBLAS builds bundled with numpy and scipy
to one thread for the whole process, so results do not depend on
``OPENBLAS_NUM_THREADS`` or on the worker count; ``predcal.linalg`` says
why, what it costs a caller's own large matrices, and how to undo it.
"""

from .bayes import (
    BayesHyper,
    LinearComputerModel,
    RankDeficientBasis,
    partial_spline_limit,
    posterior_mean,
    verify_proposition_limit,
)
from .calibrate import (
    CalibrationResult,
    ComputerModel,
    ObjectiveNonFinite,
    calibrate_l2,
    calibrate_ls,
    calibrate_optpred,
    lagrangian_value,
    minimize_box,
    weighted_objective,
)
from .experiments import (
    DEFAULT_SEED,
    METHOD_NAMES,
    ExperimentConfig,
    PmseReport,
    build_predictors,
    choose_kernel,
    csv_text,
    cv5_select_psi,
    default_psi_grid,
    parse_config,
    pmse,
    predict,
    run_experiment,
)
from .kernels import (
    DEFAULT_JITTER,
    MAX_JITTER,
    GramMatrix,
    KernelSpec,
    gram,
    kernel_apply,
    kernel_cross,
    rkhs_norm_sq_approx,
)
from .linalg import (
    CholFactor,
    DimensionMismatch,
    NotPositiveDefinite,
    cholesky,
    matrix_exponential,
    solve_lower,
    solve_spd,
)
from .regression import (
    DEFAULT_LAMBDA_GRID,
    Dataset,
    DegenerateTrace,
    DiscrepancyFit,
    fit_ridge,
    fit_ridge_gcv,
    gcv_score,
    predict_discrepancy,
    ridge_factor,
    select_lambda_gcv,
)
from .rng import RngStream, latin_hypercube, normal, uniform
from .systems import (
    NamedSystem,
    NoTruthAvailable,
    ex1_eta,
    ex1_zeta,
    ex2_eta,
    ex2_zeta,
    ex3_eta,
    ex3_zeta,
    generate_dataset,
    get_system,
    ion_eta,
    load_dataset_csv,
    load_points_csv,
    system_names,
)

__version__ = "0.1.0"
