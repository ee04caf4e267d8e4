"""Grid-free spatial prediction for stationary Gaussian random fields.

Kernel predictors with finite-range correlation functions, linear-operator
observations (point values in any dimension; derivatives and interval
integrals in 1D) and marginal-likelihood parameter inference.  An
:class:`ObservationSet` holds its observations as columns (kind codes,
sites, values, error variances, directions, bounds) and is built from them;
its kind codes are :data:`KIND_CODES`, by the names in :data:`KINDS`.
``fit_global`` and ``fit_localized`` both return a
:class:`KernelPredictor`, which ``predict``, ``predict_variance``,
``predict_derivative``, ``predict_average`` and ``rasterize`` take in
either mode.
"""

from .corrfn import CorrelationModel
from .errors import (ConfigError, EstimationError, FactorizationError,
                     ObservationParseError, UnsupportedOperatorError)
from .inference import (MleResult, estimate_eta, estimate_joint, estimate_mu,
                        estimate_sigma2)
from .linalg import SparseSymmetric, cholesky
from .localized import approximate_inverse, fit_localized
from .obsmodel import (AVG, DERIV, KIND_CODES, KINDS, POINT, ObservationSet, assemble,
                       kernel_vector, read_observations_csv, write_observations_csv)
from .predictor import (GridSpec, KernelPredictor, fit_global, predict, predict_average,
                        predict_derivative, predict_variance, rasterize)

__version__ = "0.1.0"

__all__ = [
    "AVG", "DERIV", "KIND_CODES", "KINDS", "POINT",
    "ConfigError", "CorrelationModel", "EstimationError", "FactorizationError",
    "GridSpec", "KernelPredictor", "MleResult", "ObservationParseError", "ObservationSet",
    "SparseSymmetric", "UnsupportedOperatorError", "approximate_inverse", "assemble",
    "cholesky", "estimate_eta", "estimate_joint", "estimate_mu", "estimate_sigma2",
    "fit_global", "fit_localized", "kernel_vector", "predict", "predict_average",
    "predict_derivative", "predict_variance", "rasterize", "read_observations_csv",
    "write_observations_csv",
]
