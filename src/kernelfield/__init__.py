"""Grid-free spatial prediction for stationary Gaussian random fields.

Kernel predictors with finite-range correlation functions, linear-operator
observations (point values in any dimension; derivatives and interval
integrals in 1D) and marginal-likelihood parameter inference.
``fit_global`` and ``fit_localized`` both return a
:class:`KernelPredictor`, which ``predict``, ``predict_variance``,
``predict_derivative``, ``predict_average`` and ``rasterize`` take in
either mode.
"""

from .corrfn import (CorrelationModel, eval_gauss2, eval_matern52,
                     eval_spherical, spot_check_nonneg_definite)
from .errors import (ConfigError, EstimationError, FactorizationError,
                     ObservationParseError, UnsupportedOperatorError)
from .inference import (MleResult, estimate_eta, estimate_joint, estimate_mu,
                        estimate_sigma2)
from .linalg import SparseSymmetric, SpatialIndex, cholesky
from .localized import approximate_inverse, fit_localized
from .obsmodel import (AVG, DERIV, POINT, Observation, ObservationSet,
                       assemble, cross_correlation, kernel_value,
                       kernel_vector, read_observations_csv,
                       write_observations_csv)
from .predictor import (GridSpec, KernelPredictor, fit_global, kriging_predict,
                        predict, predict_average, predict_derivative,
                        predict_variance, rasterize)

__version__ = "0.1.0"

__all__ = [
    "AVG", "DERIV", "POINT",
    "ConfigError", "CorrelationModel", "EstimationError", "FactorizationError",
    "GridSpec", "KernelPredictor",
    "MleResult", "Observation", "ObservationParseError", "ObservationSet",
    "SparseSymmetric", "SpatialIndex", "UnsupportedOperatorError",
    "approximate_inverse", "assemble", "cholesky",
    "cross_correlation", "estimate_eta", "estimate_joint", "estimate_mu",
    "estimate_sigma2", "eval_gauss2", "eval_matern52", "eval_spherical",
    "fit_global", "fit_localized", "kernel_value", "kernel_vector",
    "kriging_predict", "predict", "predict_average", "predict_derivative",
    "predict_variance", "rasterize", "read_observations_csv",
    "spot_check_nonneg_definite", "write_observations_csv",
]
