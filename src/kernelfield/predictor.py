"""Global kernel predictor for a stationary Gaussian random field.

The fit solves one m-by-m system for a weight vector; predictions at any
location are then weighted sums of observation kernel functions, so the
predictor is a spatially continuous function with no grid attached.  The
pointwise Kriging construction (one weight solve per query location) is kept
alongside as an independent cross-check; the two are mathematically
identical and the test suite holds them to near machine agreement.
"""

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import obsmodel
from .corrfn import CorrelationModel
from .linalg import CholeskyFactor, SparseSymmetric, cholesky
from .obsmodel import ObservationSet, assemble, kernel_vector, over_query_blocks

_CLAMP_REL_TOL = 1e-12
_FD_STEP_HIGHDIM = 1e-6


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
    """Fitted state of the global predictor.

    Immutable after fit apart from ``clamp_count``, a diagnostic counter of
    variance values that fell outside [0, sigma2] by more than round-off.
    Under a finite-range model each block of query points finds the
    observations within reach with one k-d tree pair query, and its kernels
    are a sparse matrix of those pairs.
    """

    def __init__(self, model: CorrelationModel, obs: ObservationSet, mu: float,
                 sigma2: float, weights: np.ndarray,
                 factor: Optional[CholeskyFactor],
                 matrix: Optional[SparseSymmetric] = None,
                 deviation_var: float = 0.0):
        self.model = model
        self.obs = obs
        self.mu = float(mu)
        self.sigma2 = float(sigma2)
        self.weights = np.asarray(weights, dtype=float)
        self.factor = factor
        self.matrix = matrix
        self.deviation_var = float(deviation_var)
        self.clamp_count = 0

    @property
    def dim(self) -> int:
        return self.obs.dim


def fit_global(obs_set: ObservationSet, model: CorrelationModel, mu: float,
               sigma2: float) -> KernelPredictor:
    """Fit the global predictor: weights = S^{-1} (values - mu * mean_image).

    ``mean_image`` is the multiplier of ``mu`` in each observation's
    expectation (1 for point values, 0 for derivatives, interval length for
    interval integrals).  The Cholesky factor is retained for variance
    queries.  An empty observation set yields the prior.
    """
    if not math.isfinite(sigma2) or sigma2 <= 0.0:
        raise ValueError("sigma2 must be a positive finite real")
    if not math.isfinite(mu):
        raise ValueError("mu must be finite")
    if obs_set.m == 0:
        return KernelPredictor(model, obs_set, mu, sigma2, np.empty(0), None, None)
    matrix = assemble(obs_set, model, sigma2)
    factor = cholesky(matrix)
    resid = obs_set.values() - mu * obs_set.mean_image()
    weights = factor.solve(resid)
    return KernelPredictor(model, obs_set, mu, sigma2, weights, factor, matrix)


def _variance(p: KernelPredictor, kernels) -> np.ndarray:
    """sigma2 * (1 - ||L^{-1} P nu||^2) for each row nu of ``kernels`` (dense
    or sparse).

    Clamped into [0, sigma2]; excursions beyond round-off (1e-12 * sigma2)
    bump ``clamp_count``.
    """
    if p.obs.m == 0:
        return np.full(kernels.shape[0], p.sigma2)
    half = p.factor.forward_solve(kernels.T)
    var = p.sigma2 * (1.0 - np.einsum("ij,ij->j", half, half))
    tol = _CLAMP_REL_TOL * p.sigma2
    p.clamp_count += int(np.count_nonzero((var < -tol) | (var > p.sigma2 + tol)))
    return np.clip(var, 0.0, p.sigma2)


def predict(p: KernelPredictor, x):
    """Predicted field value at one point ``x`` (q,), or an (n,) array of
    values at the rows of an (n, q) block."""
    return over_query_blocks(
        x, lambda block: p.mu + kernel_vector(p.obs, block, p.model) @ p.weights)


def predict_variance(p: KernelPredictor, x):
    """Prediction variance sigma2 * (1 - nu' S^{-1} nu) at ``x`` (one point
    or an (n, q) block, as in :func:`predict`), clamped into [0, sigma2]."""
    return over_query_blocks(
        x, lambda block: _variance(p, kernel_vector(p.obs, block, p.model)))


def kriging_predict(obs_set: ObservationSet, model: CorrelationModel, mu: float,
                    sigma2: float, x, assembled: Optional[SparseSymmetric] = None
                    ) -> Tuple[float, float]:
    """Pointwise best-linear-unbiased prediction and variance at ``x``.

    Solves for a per-location weight vector with a plain dense LU solve,
    independent of the kernel predictor's factorization path; serves as the
    equivalence oracle.  ``assembled`` optionally reuses a precomputed
    inter-correlation matrix when querying many locations.
    """
    if obs_set.m == 0:
        return mu, sigma2
    mat = assembled if assembled is not None else assemble(obs_set, model, sigma2)
    dense = mat.to_dense()
    nu = kernel_vector(obs_set, x, model)
    alpha_x = np.linalg.solve(dense, nu)
    pred = mu + float(alpha_x @ (obs_set.values() - mu * obs_set.mean_image()))
    var = sigma2 * (1.0 - float(alpha_x @ dense @ alpha_x))
    return pred, var


def predict_derivative(p: KernelPredictor, x, direction=None, method: str = "auto") -> float:
    """Directional derivative of the predictor at ``x``.

    1D uses analytic kernel derivatives; higher dimensions use a central
    finite difference of :func:`predict` along the given unit direction.
    """
    q = p.dim
    if direction is None:
        if q != 1:
            raise ValueError("direction required for dim >= 2")
        direction = np.array([1.0])
    direction = np.atleast_1d(np.asarray(direction, dtype=float))
    norm = float(np.linalg.norm(direction))
    if norm == 0.0 or not math.isfinite(norm):
        raise ValueError("direction must be a nonzero finite vector")
    direction = direction / norm
    if method not in ("auto", "closed", "fd"):
        raise ValueError(f"unknown method {method!r}")
    use_closed = (method == "closed") or (method == "auto" and q == 1)
    if use_closed and q != 1:
        raise ValueError("closed-form derivative prediction is 1D only")
    if p.obs.m == 0:
        return 0.0
    if use_closed:
        xf = float(np.atleast_1d(np.asarray(x, dtype=float))[0])
        gradients = obsmodel.kernel_gradient_1d(p.obs, xf, p.model)
        return float(direction[0]) * float(p.weights @ gradients)
    h = _FD_STEP_HIGHDIM
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return (predict(p, x + h * direction) - predict(p, x - h * direction)) / (2.0 * h)


def predict_average(p: KernelPredictor, interval) -> float:
    """Predicted spatial average of the field over a 1D interval."""
    if p.dim != 1:
        raise ValueError("average prediction is 1D only")
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError("interval must satisfy lower < upper")
    cross = obsmodel.interval_vector(p.obs, lo, hi, p.model)
    return p.mu + float(cross @ p.weights) / (hi - lo)


def rasterize(p: KernelPredictor, grid: GridSpec) -> np.ndarray:
    """(n_nodes, dim + 2) table of node coordinates, prediction, variance.

    Kernels are evaluated once per block of nodes and shared by the
    prediction and the variance.
    """
    if grid.dim != p.dim:
        raise ValueError(f"grid dimension {grid.dim} != predictor dimension {p.dim}")

    def block_table(block):
        kernels = kernel_vector(p.obs, block, p.model)
        return np.column_stack([p.mu + kernels @ p.weights, _variance(p, kernels)])

    nodes = grid.nodes()
    return np.column_stack([nodes, over_query_blocks(nodes, block_table)])
