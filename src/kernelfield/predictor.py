"""Kernel predictor for a stationary Gaussian random field, global or localized.

A fitted predictor is the function mu + nu(x)' w: predictions at any
location are weighted sums of observation kernel functions, so the predictor
is spatially continuous with no grid attached.  Its variance is
sigma2 * (1 - nu' A nu), where A is the inverse of the m-by-m
inter-correlation matrix S: exact, through the Cholesky factor of S, for the
global fit here, or the sparse approximate inverse Psi of the localized fit
(:mod:`.localized`).  One type, :class:`KernelPredictor`, holds either, and
:func:`predict`, :func:`predict_variance` and :func:`rasterize` serve both.

The pointwise Kriging construction (one weight solve per query location),
its independent cross-check, lives with the tests (``tests/oracles.py``):
it and the global predictor are mathematically identical, and the test suite
holds them to near machine agreement.
"""

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from . import obsmodel
from .corrfn import CorrelationModel
from .errors import EstimationError
from .inference import gls_levels, level_factor
from .linalg import CholeskyFactor, SparseSymmetric
from .obsmodel import ObservationSet, kernel_vector, over_query_blocks


@dataclass(frozen=True)
class GridSpec:
    """Regular lattice: per-axis (min, max, node count), row-major ordering."""

    mins: Tuple[float, ...]
    maxs: Tuple[float, ...]
    counts: Tuple[int, ...]

    def __post_init__(self):
        if not (len(self.mins) == len(self.maxs) == len(self.counts)):
            raise ValueError("mins, maxs, counts must have equal length")
        for lo, hi, n in zip(self.mins, self.maxs, self.counts):
            if n < 1:
                raise ValueError("grid counts must be >= 1")
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"grid bounds must be finite, got min {lo!r} and max {hi!r}")
            if hi < lo:
                raise ValueError("grid max must be >= min")

    @classmethod
    def parse(cls, text: str) -> "GridSpec":
        """Parse ``"min,max,count[;min,max,count[;...]]"``."""
        mins, maxs, counts = [], [], []
        for part in text.split(";"):
            fields = part.split(",")
            if len(fields) != 3:
                raise ValueError(f"grid axis {part!r} must be min,max,count")
            mins.append(float(fields[0]))
            maxs.append(float(fields[1]))
            counts.append(int(fields[2]))
        return cls(tuple(mins), tuple(maxs), tuple(counts))

    @property
    def dim(self) -> int:
        return len(self.counts)

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.counts))

    def axes(self):
        return [np.linspace(lo, hi, n) for lo, hi, n in zip(self.mins, self.maxs, self.counts)]

    def nodes(self) -> np.ndarray:
        """(n_nodes, dim) node coordinates, row-major (last axis fastest)."""
        grids = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([g.ravel(order="C") for g in grids], axis=1)


class KernelPredictor:
    """Fitted state of the global or the localized predictor, immutable after fit.

    ``inverse`` stands for the inverse of the inter-correlation matrix S
    through its ``quadratic_forms``: the :class:`CholeskyFactor` of S for the
    global fit (None for an empty set), or the sparse approximate inverse Psi
    for the localized fit; a fit keeps S as ``matrix``.  The localized fit
    alone sets ``k``, so a predictor is localized exactly when ``k`` is not
    None, with ``delta = k * taper_range``; it also sets ``deviation_var``
    (0 for the global fit) and ``negative_variance_at_obs``: the count of raw
    variances at the point sites below ``-1e-12 * sigma2`` (None for the
    global fit and on a predictor loaded from file).  Under a
    finite-range model each block of query points finds the observations
    within reach with one k-d tree pair query, and its kernels are a sparse
    matrix of those pairs.
    """

    def __init__(self, model: CorrelationModel, obs: ObservationSet, mu: float,
                 sigma2: float, weights: np.ndarray,
                 inverse: Union[CholeskyFactor, SparseSymmetric, None],
                 matrix: Optional[SparseSymmetric] = None, *, deviation_var: float = 0.0,
                 k: Optional[int] = None, negative_variance_at_obs: Optional[int] = None):
        self.model = model
        self.obs = obs
        self.mu = float(mu)
        self.sigma2 = float(sigma2)
        self.weights = np.asarray(weights, dtype=float)
        self.inverse = inverse
        self.matrix = matrix
        self.deviation_var = float(deviation_var)
        self.k = k
        self.negative_variance_at_obs = negative_variance_at_obs

    @property
    def delta(self) -> Optional[float]:
        """The localization range ``k * taper_range`` (None for a global fit)."""
        return None if self.k is None else float(self.k) * self.model.taper_range

    @property
    def dim(self) -> int:
        return self.obs.dim

    @property
    def mode(self) -> str:
        return "global" if self.k is None else "localized"


def _check_levels(mu: Optional[float], sigma2: Optional[float], m: Optional[int] = None):
    """ValueError unless a given ``mu`` is finite and a given ``sigma2`` is a
    positive finite real (None stands for an estimate); EstimationError if
    a level is to be estimated from ``m`` = 0 observations."""
    if sigma2 is not None and (not math.isfinite(sigma2) or sigma2 <= 0.0):
        raise ValueError("sigma2 must be a positive finite real")
    if mu is not None and not math.isfinite(mu):
        raise ValueError("mu must be finite")
    if m == 0 and (mu is None or sigma2 is None):
        raise EstimationError("cannot estimate mu/sigma2 from an empty observation set")


def fit_global(obs_set: ObservationSet, model: CorrelationModel, mu: Optional[float] = None,
               sigma2: Optional[float] = None) -> KernelPredictor:
    """Fit the global predictor: weights = S^{-1} (values - mu * mean_image).

    ``mean_image`` is the multiplier of ``mu`` in each observation's
    expectation (1 for point values, 0 for derivatives, interval length for
    interval integrals).  A level passed as ``None`` takes its GLS estimate
    through the factor of S (:func:`~.inference.level_factor`, in the layout of
    the set's pair structure; :func:`~.inference.gls_levels`), which is
    retained for variance queries.  An empty observation set yields the prior.
    """
    _check_levels(mu, sigma2, obs_set.m)
    if obs_set.m == 0:
        return KernelPredictor(model, obs_set, mu, sigma2, np.empty(0), None)
    matrix, factor = level_factor(obs_set, model, sigma2)
    mu, sigma2, weights = gls_levels(factor, obs_set, mu, sigma2)
    return KernelPredictor(model, obs_set, mu, sigma2, weights, factor, matrix)


def _variances(p: KernelPredictor, kernels) -> list:
    """The variance columns for the rows nu of ``kernels`` (dense or sparse),
    from the quadratic forms nu' A nu of ``p.inverse``.

    Global: sigma2 * (1 - nu' S^{-1} nu), clipped into [0, sigma2].
    Localized: the raw sigma2 * (1 - nu' Psi nu), unclamped (Psi is not
    guaranteed non-negative definite), and the adjusted variance, raw plus
    the deviation variance, floored at zero.
    """
    forms = p.inverse.quadratic_forms(kernels.T) if p.obs.m else np.zeros(kernels.shape[0])
    var = p.sigma2 * (1.0 - forms)
    if p.k is None:
        return [np.clip(var, 0.0, p.sigma2)]
    adjusted = var + p.deviation_var
    return [var, np.where(adjusted < 0.0, 0.0, adjusted)]


def predict(p: KernelPredictor, x):
    """Predicted field value at one point ``x`` (q,), or an (n,) array of
    values at the rows of an (n, q) block: mean plus the weighted kernel sum."""
    return over_query_blocks(
        x, lambda block: p.mu + kernel_vector(p.obs, block, p.model) @ p.weights)


def predict_variance(p: KernelPredictor, x):
    """Prediction variance at ``x`` (one point or an (n, q) block, as in
    :func:`predict`): the last variance column of :func:`rasterize`, clamped
    into [0, sigma2] for a global predictor and the adjusted variance for a
    localized one.  With a band factor, a point's forward solve starts at its
    kernel column's first nonzero row (:meth:`CholeskyFactor.quadratic_forms`),
    and a point beyond reach of every observation takes none: its global
    variance is sigma2."""
    return over_query_blocks(
        x, lambda block: _variances(p, kernel_vector(p.obs, block, p.model))[-1])


def _finite_numbers(values, n: int, name: str) -> np.ndarray:
    """``values`` as a float vector, refused unless it holds exactly ``n``
    finite numbers (a lone number counts as one)."""
    v = np.atleast_1d(np.asarray(values, dtype=float))
    if v.shape != (n,) or not np.isfinite(v).all():
        raise ValueError(f"{name} must hold exactly {n} finite number{'s' * (n > 1)}")
    return v


def predict_derivative(p: KernelPredictor, x, direction=None) -> float:
    """Directional derivative of the predictor at the point ``x``, along
    ``direction`` scaled to unit length (in 1D, +1 by default): the weighted
    sum of the kernels' derivatives, which are the correlations of the
    observations with a derivative probe (:func:`~.obsmodel.derivative_vector`),
    analytic in every dimension.  ``x`` and ``direction`` must each hold
    ``dim`` finite numbers (``ValueError``).
    """
    q = p.dim
    if direction is None:
        if q != 1:
            raise ValueError("direction required for dim >= 2")
        direction = [1.0]
    x = _finite_numbers(x, q, "x")
    direction = _finite_numbers(direction, q, "direction")
    norm = float(np.hypot.reduce(np.abs(direction)))  # as ObservationSet: no squares
    if norm == 0.0 or not math.isfinite(norm):
        raise ValueError("direction must be a nonzero finite vector")
    if p.obs.m == 0:
        return 0.0
    return float(p.weights @ obsmodel.derivative_vector(p.obs, x, direction / norm, p.model))


def predict_average(p: KernelPredictor, interval) -> float:
    """Predicted spatial average of the field over a 1D interval, two finite
    numbers ``(lo, hi)`` with lo < hi and a finite length and midpoint, as an
    avg row's (``ValueError``)."""
    if p.dim != 1:
        raise ValueError("average prediction is 1D only")
    lo, hi = map(float, _finite_numbers(interval, 2, "interval"))
    if not (lo < hi and math.isfinite(hi - lo) and math.isfinite(lo + hi)):
        raise ValueError("interval must satisfy lower < upper, with a finite length and midpoint")
    cross = obsmodel.interval_vector(p.obs, lo, hi, p.model)
    return p.mu + float(cross @ p.weights) / (hi - lo)


def rasterize(p: KernelPredictor, grid: GridSpec) -> np.ndarray:
    """Table of node coordinates, prediction and variance, in row-major node
    order: (n_nodes, dim + 2) for a global predictor, and (n_nodes, dim + 3)
    for a localized one, whose variance columns are the raw and the adjusted
    variance.

    Kernels are evaluated once per block of nodes and shared by all columns.
    """
    if grid.dim != p.dim:
        raise ValueError(f"grid dimension {grid.dim} != predictor dimension {p.dim}")

    def block_table(block):
        kernels = kernel_vector(p.obs, block, p.model)
        return np.column_stack([p.mu + kernels @ p.weights, *_variances(p, kernels)])

    nodes = grid.nodes()
    return np.column_stack([nodes, over_query_blocks(nodes, block_table)])
