"""Grid-free spatial prediction for stationary Gaussian random fields.

Global and localized kernel predictors with finite-range correlation
functions, linear-operator observations (point values, derivatives,
interval integrals) and marginal-likelihood parameter inference.
"""

from .corrfn import (CorrelationModel, eval_gauss2, eval_matern52,
                     eval_spherical, spot_check_nonneg_definite)
from .errors import (ConfigError, EstimationError, FactorizationError,
                     ObservationParseError, UnsupportedOperatorError)
from .inference import (MleResult, estimate_eta, estimate_joint, estimate_mu,
                        estimate_sigma2)
from .linalg import SparseSymmetric, SpatialIndex, cholesky
from .localized import (LocalizedFit, adjusted_variance, approximate_inverse,
                        fit_localized, predict_localized, rasterize_localized,
                        variance_localized)
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
    "GridSpec", "KernelPredictor", "LocalizedFit",
    "MleResult", "Observation", "ObservationParseError", "ObservationSet",
    "SparseSymmetric", "SpatialIndex", "UnsupportedOperatorError",
    "adjusted_variance", "approximate_inverse", "assemble", "cholesky",
    "cross_correlation", "estimate_eta", "estimate_joint", "estimate_mu",
    "estimate_sigma2", "eval_gauss2", "eval_matern52", "eval_spherical",
    "fit_global", "fit_localized", "kernel_value", "kernel_vector",
    "kriging_predict", "predict", "predict_average", "predict_derivative",
    "predict_localized", "predict_variance", "rasterize",
    "rasterize_localized", "read_observations_csv",
    "spot_check_nonneg_definite", "variance_localized",
    "write_observations_csv",
]
