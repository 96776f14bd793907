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

# each module's __all__ is its public API; the package re-exports all eight
from .bayes import *
from .calibrate import *
from .experiments import *
from .kernels import *
from .linalg import *
from .regression import *
from .rng import *
from .systems import *

__version__ = "0.1.0"
