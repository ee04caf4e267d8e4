"""Maximum marginal-likelihood estimation of the field mean, variance and range.

Given the correlation parameters, the mean and variance estimators are
closed-form generalized-least-squares expressions through the inverse
inter-correlation matrix: the Cholesky factor of the global fit, or the
sparse approximate inverse of the localized one.  Both fits and the
likelihood take the set's matrix from :func:`level_matrix` (the global fit
and the likelihood with its factor, from :func:`level_factor`) and the
levels through its inverse from :func:`gls_levels` (the fits) or from
:func:`profile_levels`, which adds the negative log-likelihood at them.
The likelihood maximized over the mean and variance is then a function of
the range alone (Mardia & Marshall 1984, Biometrika 71), so the joint
estimate is one bounded scalar search over the base scale of a given model.

Its taper range stays, and with it the sparsity pattern, so the search
analyses once and factors many times (as CHOLMOD does; Chen et al. 2008,
ACM TOMS 35(3)): the set's pairs, distances and factor layout are found once
per search, so one evaluation is the values on those pairs (zeros included),
one scatter into LAPACK storage, one factorization and two solves.
The search is bounded Brent without derivatives (Brent 1973, ch. 5; Forsythe,
Malcolm & Moler 1977, ``fmin``), scipy's ``minimize_scalar(method="bounded")``
ported line for line onto Python floats, so that no process loads scipy's
optimizers (about 9 MB); a test holds it to scipy's evaluated points.  It
answers with a range it evaluated, so the search keeps the levels and NLL of
each range it evaluates and does not factor again at its answer: a search's
``iterations`` is its number of factorizations.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

import numpy as np

from .corrfn import CorrelationModel
from .errors import EstimationError, FactorizationError
from .linalg import CholeskyFactor, SparseSymmetric, cholesky
from .obsmodel import ObservationSet, PairStructure, assemble

# Bounded Brent first evaluates lo + _FIRST_PROBE * (hi - lo), and a golden
# step goes this fraction of the way into the larger part of the bracket.
_FIRST_PROBE = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)  # scipy's literal, not the machine epsilon: its steps to the bit
# A range search's cap on factorizations, and its tolerance as a fraction of
# the bracket's lower end.
_MAX_EVALS = 50
_REL_TOL = 1e-5


@dataclass
class MleResult:
    """Estimated levels, and the range (the searched model's base scale) and
    NLL where a search or a likelihood gave them; ``iterations`` counts a
    search's factorizations (1 without a search), and ``converged`` is false
    where a search spent its cap of them or answered at an end of its bracket
    (:func:`estimate_eta`).  The field names are the keys of ``infer``'s JSON
    document."""

    mu: float
    sigma2: float
    eta: Optional[float] = None
    nll: Optional[float] = None
    iterations: int = 1
    converged: bool = True


def _as_action(s_inv) -> Callable[[np.ndarray], np.ndarray]:
    """The action of an inverse: a Cholesky factor's solve, or the product
    with a sparse approximate inverse."""
    if isinstance(s_inv, CholeskyFactor):
        return s_inv.solve
    if isinstance(s_inv, SparseSymmetric):
        return s_inv.matvec
    raise TypeError(f"cannot interpret {type(s_inv).__name__} as an inverse")


def estimate_mu(s_inv_action, values, mean_image) -> float:
    """Generalized-least-squares mean through the inverse ``s_inv_action``:
    a :class:`CholeskyFactor` of S, or a sparse approximate inverse of S as
    a :class:`SparseSymmetric`.

    ``mean_image`` is the set's multiplier of the mean in each observation's
    expectation (:meth:`ObservationSet.mean_image`: 1 for point values, 0
    for derivatives, the length of an interval integral's interval).
    """
    act = _as_action(s_inv_action)
    values = np.asarray(values, dtype=float)
    m = values.shape[0]
    if m < 1:
        raise EstimationError("mean estimation needs at least one observation")
    a = np.asarray(mean_image, dtype=float)
    sa = act(a)
    denom = float(a @ sa)
    if denom <= 0.0:
        raise EstimationError(f"singular normalizer in mean estimation ({denom!r})")
    return float(sa @ values) / denom


def estimate_sigma2(s_inv_action, values, mu: float, mean_image) -> float:
    """Quadratic-form variance estimator with divisor m, through the inverse
    ``s_inv_action`` and with the ``mean_image`` of :func:`estimate_mu`.

    Raises :class:`EstimationError` when the estimate is negative and finite,
    which an indefinite sparse approximate inverse can give (an overflow to
    ``-inf`` is returned, for :func:`_levels` to refuse as not finite).
    """
    act = _as_action(s_inv_action)
    values = np.asarray(values, dtype=float)
    m = values.shape[0]
    if m < 1:
        raise EstimationError("variance estimation needs at least one observation")
    a = np.asarray(mean_image, dtype=float)
    resid = values - mu * a
    s2 = float(resid @ act(resid)) / m
    if -math.inf < s2 < 0.0:
        raise EstimationError(f"negative variance estimate {s2!r} (indefinite inverse action)")
    return s2


def level_matrix(obs_set: ObservationSet, model: CorrelationModel,
                 sigma2: Optional[float] = None,
                 structure: Optional[PairStructure] = None) -> SparseSymmetric:
    """The set's matrix S = R + diag(error_var / sigma2_r), from ``structure``
    (the set's :class:`PairStructure` at the model's taper range) if given:
    ``sigma2_r`` is a given ``sigma2``, or 1 for one to be estimated
    (``None``), which needs exact observations (:class:`EstimationError`)."""
    if sigma2 is None and obs_set.error_vars().any():  # error variances are >= 0
        raise EstimationError("variance estimation with observation errors is not supported")
    sigma2_r = 1.0 if sigma2 is None else sigma2
    if structure is None:
        return assemble(obs_set, model, sigma2_r)
    return structure.matrix(model, sigma2_r)


def level_factor(obs_set: ObservationSet, model: CorrelationModel,
                 sigma2: Optional[float] = None, structure: Optional[PairStructure] = None
                 ) -> Tuple[SparseSymmetric, CholeskyFactor]:
    """The set's :func:`level_matrix` and its Cholesky factor in the layout of
    ``structure`` (the set's :class:`PairStructure` at the model's taper
    range, built here if None), so a full pattern is never band-searched."""
    if structure is None:
        structure = PairStructure(obs_set, model.taper_range)
    matrix = level_matrix(obs_set, model, sigma2, structure)
    return matrix, cholesky(matrix, structure.layout)


def _levels(s_inv, obs_set: ObservationSet, mu: Optional[float],
            sigma2: Optional[float]) -> Tuple[float, float]:
    """``mu`` and ``sigma2``, each as given or, where ``None``, its GLS
    estimate through ``s_inv`` (:func:`estimate_mu`, :func:`estimate_sigma2`).
    An estimate that overflows (values near the largest float) is an
    :class:`EstimationError`, not a warning and a non-finite level, and so is
    an estimated ``sigma2`` that is not positive (vanishing residuals; the
    fits check a given one first)."""
    with np.errstate(over="ignore", invalid="ignore"):
        if mu is None:
            mu = estimate_mu(s_inv, obs_set.values(), obs_set.mean_image())
        if sigma2 is None:
            sigma2 = estimate_sigma2(s_inv, obs_set.values(), mu, obs_set.mean_image())
    if not (math.isfinite(mu) and math.isfinite(sigma2)):
        raise EstimationError(f"the estimated levels are not finite (mu {mu!r}, sigma2 "
                              f"{sigma2!r}): the observed values are too large")
    if sigma2 <= 0.0:
        raise EstimationError("estimated sigma2 is not positive")
    return mu, sigma2


def gls_levels(s_inv, obs_set: ObservationSet, mu: Optional[float] = None,
               sigma2: Optional[float] = None) -> Tuple[float, float, np.ndarray]:
    """The levels of :func:`_levels` and the weights A (values - mu *
    mean_image) through A = ``s_inv``, the :class:`CholeskyFactor` of the
    set's :func:`level_matrix` or a sparse approximate inverse Psi of it."""
    mu, sigma2 = _levels(s_inv, obs_set, mu, sigma2)
    return mu, sigma2, _as_action(s_inv)(obs_set.values() - mu * obs_set.mean_image())


def profile_levels(obs_set: ObservationSet, model: CorrelationModel,
                   structure: Optional[PairStructure] = None
                   ) -> Tuple[float, float, float]:
    """GLS mean and variance and the profiled NLL ``(m log(2 pi sigma2) +
    log det R + m) / 2`` under ``model``, from one factorization of the
    set's :func:`level_matrix` (:func:`level_factor`, on ``structure`` if given).

    Raises :class:`FactorizationError` where the matrix does not factor, and
    :class:`EstimationError` where the estimated variance is not positive
    (:func:`_levels`), so the NLL is always a number.
    """
    factor = level_factor(obs_set, model, None, structure)[1]
    mu, s2 = _levels(factor, obs_set, None, None)
    m = obs_set.m  # m * s2 / s2, not m: m alone moves the last digit of some reported NLLs
    return mu, s2, 0.5 * (m * math.log(2.0 * math.pi * s2) + factor.logdet() + m * s2 / s2)


def negative_log_likelihood(obs_set: ObservationSet, model: CorrelationModel,
                            mu: float, sigma2: float) -> float:
    """Gaussian marginal NLL of the observed values at the given levels: one
    factor of the set's :func:`level_matrix`, its log-determinant and one
    quadratic form."""
    factor = level_factor(obs_set, model, sigma2)[1]
    resid = obs_set.values() - mu * obs_set.mean_image()
    return 0.5 * (obs_set.m * math.log(2.0 * math.pi * sigma2) + factor.logdet()
                  + float(resid @ factor.solve(resid)) / sigma2)


def _bounded_brent(f: Callable[[float], float], a: float, b: float, xatol: float,
                   max_evals: int) -> float:
    """The best point of ``f`` in [a, b] that bounded Brent finds in at most
    ``max_evals`` evaluations: scipy's ``_minimize_scalar_bounded`` step for
    step, but stopped at the cap (scipy evaluates twice before it checks its
    ``maxiter``).  ``xf`` is the best point, ``nfc`` the second best and
    ``fulc`` the one before; ``rat`` is the last step and ``e`` the one before.
    ``f`` returns Python floats, whose arithmetic on ``inf`` (a range that
    does not factor) gives a quiet nan where numpy's would consult its error
    state."""
    fulc = a + _FIRST_PROBE * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while num < max_evals and abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = abs(e) <= tol1
        if not golden:  # a parabola through xf, nfc and fulc
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = -tol1 if xm < xf else tol1
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _FIRST_PROBE * e
        step = max(abs(rat), tol1)
        x = xf - step if rat < 0.0 else xf + step
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
    return xf


def estimate_eta(obs_set: ObservationSet, model: CorrelationModel,
                 search_bounds: Tuple[float, float]) -> MleResult:
    """The base scale in ``search_bounds`` minimizing the profiled NLL of
    :func:`profile_levels` under ``model`` with that scale, with its levels
    and NLL: ``model``'s kind and taper range stay, so one pair structure
    serves every evaluation.

    One bounded Brent search (:func:`_bounded_brent`) to the absolute
    tolerance ``_REL_TOL * lo``, with at most ``_MAX_EVALS`` evaluations of
    one factorization each.  A range that does not factor scores ``inf``.
    Brent cannot leave an infinite first probe, so while that probe fails the
    top of the bracket moves down to it (smaller ranges are better
    conditioned); :class:`EstimationError` is raised if no probe factors, and
    where a range's estimated variance is not positive (:func:`profile_levels`:
    vanishing residuals).  Bounds that do not satisfy ``0 < lo < hi < inf``
    are a :class:`ValueError`.

    Brent's answer is always a range it evaluated, so the result takes its
    levels and NLL from that evaluation, and ``iterations`` counts the
    search's factorizations, never more than ``_MAX_EVALS``: the search stops
    at the cap and answers the best range evaluated.  ``converged`` is false
    when all ``_MAX_EVALS`` were spent, and when the answer lies at an end of
    the bracket searched (``hi`` after any failed probe): within Brent's
    stopping distance of it, ``xatol + 2 sqrt(eps) eta``, where a likelihood
    with no optimum inside the bracket ends.  Either is reported, never
    raised.
    """
    lo, hi = float(search_bounds[0]), float(search_bounds[1])
    if not 0.0 < lo < hi < math.inf:
        raise ValueError("search bounds must satisfy 0 < lo < hi < inf")
    xatol = _REL_TOL * lo
    structure = PairStructure(obs_set, model.taper_range)
    evaluated = {}  # range -> (NLL, mu, sigma2); Brent's first evaluation is the last probe

    def objective(eta):
        if eta not in evaluated:
            try:
                mu, sigma2, nll = profile_levels(obs_set, replace(model, base_scale=eta),
                                                 structure)
            except FactorizationError:
                mu, sigma2, nll = None, None, math.inf
            evaluated[eta] = nll, mu, sigma2
        return evaluated[eta][0]

    for failed in range(_MAX_EVALS):
        probe = lo + _FIRST_PROBE * (hi - lo)
        if math.isfinite(objective(probe)):
            break
        hi = probe
    else:
        raise EstimationError(f"the inter-correlation matrix does not factor at any "
                              f"range tried in [{lo}, {search_bounds[1]}]")
    eta = _bounded_brent(objective, lo, hi, xatol, _MAX_EVALS - failed)
    nll, mu, sigma2 = evaluated[eta]
    at_end = min(eta - lo, hi - eta) <= xatol + 2.0 * math.sqrt(np.finfo(float).eps) * eta
    return MleResult(mu, sigma2, eta, nll, len(evaluated),
                     len(evaluated) < _MAX_EVALS and not at_end)


def estimate_joint(obs_set: ObservationSet, model: CorrelationModel,
                   search_bounds: Tuple[float, float]) -> MleResult:
    """Joint maximum-likelihood mean, variance and range: :func:`estimate_eta`
    on a set of at least two observations.  The GLS levels maximize the
    likelihood at any fixed range, so the search is over the range alone."""
    if obs_set.m < 2:
        raise EstimationError("joint estimation needs at least two observations")
    return estimate_eta(obs_set, model, search_bounds)
