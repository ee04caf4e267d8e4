"""Maximum marginal-likelihood estimation of the field mean, variance and range.

Given the correlation parameters, the mean and variance estimators are
closed-form generalized-least-squares expressions through the inverse
inter-correlation matrix: the Cholesky factor of the global fit, or the
sparse approximate inverse of the localized one.  :func:`profile_levels`
turns one unit-variance Cholesky factor into those estimates and the
negative log-likelihood at them.  The likelihood maximized over the mean and variance
is then a function of the range alone (Mardia & Marshall 1984, Biometrika
71), so the joint estimate is one bounded scalar search over the range.

The search analyses once and factors many times (as CHOLMOD does; Chen et
al. 2008, ACM TOMS 35(3)): the set's pairs, distances and factor layout are
found once per taper range, so one evaluation is the correlation values on
those pairs, one scatter into LAPACK storage, one factorization and two solves.

``scipy.optimize`` is imported by :func:`estimate_eta`, on a process's first
range search, not with this module: it adds about 9 MB of resident memory and
0.1-0.17 s to the start-up of a process that never searches (every command
but ``infer --eta-bounds``).  ``tests/test_cli.py`` fails if it is imported
at the top again.
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .corrfn import CorrelationModel
from .errors import EstimationError, FactorizationError
from .linalg import CholeskyFactor, SparseSymmetric, cholesky
from .obsmodel import ObservationSet, PairStructure, assemble

# Bounded Brent (minimize_scalar) first evaluates lo + _FIRST_PROBE * (hi - lo).
_FIRST_PROBE = 0.5 * (3.0 - math.sqrt(5.0))


@dataclass
class MleResult:
    mu_hat: float
    sigma2_hat: float
    eta_hat: Optional[float]
    neg_log_likelihood: Optional[float]
    iterations: int
    converged: bool = True

    def to_dict(self) -> dict:
        return {
            "mu": self.mu_hat,
            "sigma2": self.sigma2_hat,
            "eta": self.eta_hat,
            "nll": self.neg_log_likelihood,
            "iterations": self.iterations,
            "converged": self.converged,
        }


def _as_action(s_inv) -> Callable[[np.ndarray], np.ndarray]:
    """The action of an inverse: a Cholesky factor's solve, or the product
    with a sparse approximate inverse."""
    if isinstance(s_inv, CholeskyFactor):
        return s_inv.solve
    if isinstance(s_inv, SparseSymmetric):
        return s_inv.matvec
    raise TypeError(f"cannot interpret {type(s_inv).__name__} as an inverse")


def estimate_mu(s_inv_action, values, mean_image=None) -> float:
    """Generalized-least-squares mean through the inverse ``s_inv_action``:
    a :class:`CholeskyFactor` of S, or a sparse approximate inverse of S as
    a :class:`SparseSymmetric`.

    ``mean_image`` generalizes the all-ones vector to operator observations
    (0 for derivatives, interval length for interval integrals).
    """
    act = _as_action(s_inv_action)
    values = np.asarray(values, dtype=float)
    m = values.shape[0]
    if m < 1:
        raise EstimationError("mean estimation needs at least one observation")
    a = np.ones(m) if mean_image is None else np.asarray(mean_image, dtype=float)
    sa = act(a)
    denom = float(a @ sa)
    if denom <= 0.0:
        raise EstimationError(f"singular normalizer in mean estimation ({denom!r})")
    return float(sa @ values) / denom


def estimate_sigma2(s_inv_action, values, mu: float, mean_image=None) -> float:
    """Quadratic-form variance estimator with divisor m, through the inverse
    ``s_inv_action`` as in :func:`estimate_mu`.

    Raises :class:`EstimationError` when the estimate is negative, which an
    indefinite sparse approximate inverse can give.
    """
    act = _as_action(s_inv_action)
    values = np.asarray(values, dtype=float)
    m = values.shape[0]
    if m < 1:
        raise EstimationError("variance estimation needs at least one observation")
    a = np.ones(m) if mean_image is None else np.asarray(mean_image, dtype=float)
    resid = values - mu * a
    s2 = float(resid @ act(resid)) / m
    if s2 < 0.0:
        raise EstimationError(f"negative variance estimate {s2!r} (indefinite inverse action)")
    return s2


def _levels(factor: CholeskyFactor, obs_set: ObservationSet, mu: Optional[float],
            sigma2: Optional[float]) -> Tuple[float, float, Optional[float]]:
    """:func:`profile_levels` through the factor of the set's matrix, made
    with ``sigma2_r`` = ``sigma2``, or 1 for an estimated variance."""
    values, a, m = obs_set.values(), obs_set.mean_image(), obs_set.m
    if mu is None:
        mu = estimate_mu(factor, values, a)
    s2_hat = estimate_sigma2(factor, values, mu, a)
    sigma2 = s2_hat if sigma2 is None else sigma2
    if sigma2 <= 0.0:
        return mu, sigma2, None
    return mu, sigma2, 0.5 * (m * math.log(2.0 * math.pi * sigma2) + factor.logdet()
                              + m * s2_hat / sigma2)


def profile_levels(obs_set: ObservationSet, model: CorrelationModel,
                   mu: Optional[float] = None, sigma2: Optional[float] = None,
                   structure: Optional[PairStructure] = None
                   ) -> Tuple[float, float, Optional[float]]:
    """Mean, variance and negative log-likelihood from one factorization.

    Levels left as ``None`` take their GLS estimates under ``model``; with
    both estimated the NLL is the profiled ``(m log(2 pi sigma2) + log det R
    + m) / 2``.  The NLL is ``None`` when the variance is not positive.
    The matrix comes from ``structure``, the set's :class:`PairStructure` at
    the model's taper range, if given (to the same bits).  Raises
    :class:`FactorizationError` where the matrix does not factor.
    """
    if sigma2 is None and np.any(obs_set.error_vars() > 0.0):
        raise EstimationError("variance estimation with observation errors is not supported")
    sigma2_r = 1.0 if sigma2 is None else sigma2
    factor = cholesky(assemble(obs_set, model, sigma2_r) if structure is None
                      else structure.matrix(model, sigma2_r))
    return _levels(factor, obs_set, mu, sigma2)


def _objective(obs_set: ObservationSet, model: CorrelationModel, mu: Optional[float],
               sigma2: Optional[float], structure: Optional[PairStructure] = None
               ) -> Tuple[float, Optional[Tuple[float, float]]]:
    """NLL and levels of :func:`profile_levels` on the set's ``structure``
    under the model's taper range (built if not given); ``inf`` where the
    matrix does not factor."""
    structure = structure or PairStructure(obs_set, model.taper_range)
    try:
        factor = cholesky(structure.matrix(model, 1.0 if sigma2 is None else sigma2))
    except FactorizationError:
        return math.inf, None
    mu, sigma2, nll = _levels(factor, obs_set, mu, sigma2)
    if nll is None:
        raise EstimationError("zero variance estimate; residuals vanish")
    return nll, (mu, sigma2)


def estimate_eta(obs_set: ObservationSet, model_family: Callable[[float], CorrelationModel],
                 mu: Optional[float], sigma2: Optional[float],
                 search_bounds: Tuple[float, float], rel_tol: float = 1e-4,
                 max_iter: int = 500, structures: Optional[dict] = None) -> float:
    """Range in ``search_bounds`` minimizing the NLL at the given levels, or
    at the GLS levels of each range for a level given as ``None``.

    One bounded Brent search (``minimize_scalar``) to the absolute tolerance
    ``rel_tol * lo``, with at most ``max_iter`` evaluations of one
    factorization each, on one pair structure while the taper range stays.
    A range that does not factor scores ``inf``.  Brent
    cannot leave an infinite first probe, so while that probe fails the top
    of the bracket moves down to it (smaller ranges are better conditioned);
    :class:`EstimationError` is raised if no probe factors.  The search's
    structure is kept in the dict ``structures``, keyed by taper range.
    """
    if np.any(obs_set.error_vars() > 0.0):
        raise EstimationError("range estimation with observation errors is not supported")
    lo, hi = float(search_bounds[0]), float(search_bounds[1])
    if not 0.0 < lo < hi < math.inf:
        raise ValueError("search bounds must satisfy 0 < lo < hi < inf")

    structures = {} if structures is None else structures

    def structure(taper_range):  # the set's pair structure under the last taper range asked for
        if taper_range not in structures:
            structures.clear()
            structures[taper_range] = PairStructure(obs_set, taper_range)
        return structures[taper_range]

    @functools.cache  # Brent's first evaluation is the last probe below
    def objective(eta):
        model = model_family(eta)
        return _objective(obs_set, model, mu, sigma2, structure(model.taper_range))[0]

    for failed in range(max_iter):
        probe = lo + _FIRST_PROBE * (hi - lo)
        if math.isfinite(objective(probe)):
            break
        hi = probe
    else:
        raise EstimationError(f"the inter-correlation matrix does not factor at any "
                              f"range tried in [{lo}, {search_bounds[1]}]")
    from scipy.optimize import minimize_scalar  # deferred: see the module docstring
    with np.errstate(invalid="ignore"):  # Brent's parabolic steps meet inf values
        result = minimize_scalar(objective, bounds=(lo, hi), method="bounded",
                                 options={"xatol": rel_tol * lo, "maxiter": max_iter - failed})
    return float(result.x)


def negative_log_likelihood(obs_set: ObservationSet, model: CorrelationModel,
                            mu: float, sigma2: float) -> float:
    """Full Gaussian marginal negative log-likelihood of the observed values."""
    return profile_levels(obs_set, model, mu, sigma2)[2]


def estimate_joint(obs_set: ObservationSet, model_family: Callable[[float], CorrelationModel],
                   search_bounds: Tuple[float, float], max_iter: int = 50,
                   rel_tol: float = 1e-5) -> MleResult:
    """Joint maximum-likelihood mean, variance and range.

    The GLS levels maximize the likelihood at any fixed range, so this is
    :func:`estimate_eta` with both levels profiled out, then the levels at
    the estimate on the search's pair structure if it has the estimate's taper
    range.  ``iterations`` counts the search's objective evaluations.
    ``converged`` is false when all ``max_iter`` were spent, which is when
    Brent reports that it stopped short; that is reported, never raised.
    """
    if obs_set.m < 2:
        raise EstimationError("joint estimation needs at least two observations")
    evaluated = []

    def counted_family(eta):
        evaluated.append(eta)
        return model_family(eta)

    structures = {}
    eta = estimate_eta(obs_set, counted_family, None, None, search_bounds, rel_tol, max_iter,
                       structures)
    model = model_family(eta)
    mu, sigma2, nll = profile_levels(obs_set, model, structure=structures.get(model.taper_range))
    return MleResult(mu, sigma2, eta, nll, len(evaluated), len(evaluated) < max_iter)
