"""Heterogeneous observations as linear operators on a stationary random field.

Three observation kinds are supported:

* ``point``  -- the field value at a location, possibly with Gaussian error;
* ``deriv``  -- the directional derivative at a location;
* ``avg``    -- the unnormalized integral of the field over a 1D interval.

Each observation ``y`` induces a kernel function ``nu_y(x)`` (the correlation
between the field at ``x`` and the observed quantity) and pairwise
inter-correlation entries.  Both are evaluated as arrays, one call per pair
of observation kinds.  Interval entries have closed forms for both untapered
bases (Matern-5/2 and gauss2); only interval entries under a tapered model
use adaptive quadrature, and only derivatives at dim >= 2 (numeric mode) use
finite differences.  Entries that are provably zero under a finite-range
model (support separation at or beyond the taper range) are never stored,
neither in the inter-correlation matrix nor in the kernels of a block of
query points, which are then a sparse (CSR) matrix of the pairs that one
k-d tree query finds within reach (a dense array without a taper).
"""

import csv
import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.integrate import quad
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist
from scipy.special import erf

from .corrfn import SQRT5, CorrelationModel
from .errors import ObservationParseError, UnsupportedOperatorError
from .linalg import SparseSymmetric

POINT = "point"
DERIV = "deriv"
AVG = "avg"
KINDS = (POINT, DERIV, AVG)

# Integer kind codes; also the canonical argument order of pairwise entries.
KIND_CODES = {POINT: 0, DERIV: 1, AVG: 2}

# Query points per kernel block: bounds the dense (rows, m) kernels of an
# untapered model and the dense (m, rows) right-hand side of the global
# variance's forward solve, while keeping per-block overhead small.
BLOCK_ROWS = 256

QUAD_ABS_TOL = 1e-12  # keeps quadrature entries good to ~1e-10 after combination
_FD_STEP = 1e-5


@dataclass(eq=False)
class Observation:
    """One observed datum.

    ``location`` is the q-vector of the observation site for ``point`` and
    ``deriv`` kinds, and the pair (lower, upper) of interval bounds for
    ``avg`` (1D only).  ``value`` stores the observed number: the field
    value, the directional derivative, or the unnormalized interval integral
    respectively.  ``error_var`` is the additive Gaussian error variance
    (0 = exact).  ``direction`` (deriv only) is normalized to unit length.
    """

    kind: str
    location: np.ndarray
    value: float
    error_var: float = 0.0
    direction: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown observation kind {self.kind!r}")
        self.location = np.atleast_1d(np.asarray(self.location, dtype=float))
        self.value = float(self.value)
        self.error_var = float(self.error_var)
        if not np.all(np.isfinite(self.location)) or not math.isfinite(self.value):
            raise ValueError("observation location and value must be finite")
        if not math.isfinite(self.error_var) or self.error_var < 0.0:
            raise ValueError("error_var must be a finite non-negative real")
        if self.kind == AVG:
            if self.location.shape != (2,):
                raise ValueError("avg observation location must be (lower, upper)")
            if not self.location[0] < self.location[1]:
                raise ValueError("avg interval must satisfy lower < upper")
        if self.kind == DERIV:
            if self.direction is None:
                self.direction = np.ones(self.location.shape[0])
            self.direction = np.atleast_1d(np.asarray(self.direction, dtype=float))
            if self.direction.shape != self.location.shape:
                raise ValueError("direction must match location dimension")
            norm = float(np.linalg.norm(self.direction))
            if not math.isfinite(norm) or norm == 0.0:
                raise ValueError("direction must be a nonzero finite vector")
            self.direction = self.direction / norm
        elif self.direction is not None:
            raise ValueError("direction is only valid for deriv observations")

    @property
    def dim(self) -> int:
        return 1 if self.kind == AVG else self.location.shape[0]

    @property
    def rep_point(self) -> np.ndarray:
        """Representative site: the location, or the interval midpoint."""
        if self.kind == AVG:
            return np.array([0.5 * (self.location[0] + self.location[1])])
        return self.location

    @property
    def support_radius(self) -> float:
        """Radius of the observation's support around the representative site."""
        if self.kind == AVG:
            return 0.5 * float(self.location[1] - self.location[0])
        return 0.0

    @property
    def mean_image(self) -> float:
        """Multiplier of the field mean in the observation's expectation."""
        if self.kind == POINT:
            return 1.0
        if self.kind == DERIV:
            return 0.0
        return float(self.location[1] - self.location[0])


class ObservationSet:
    """Ordered, immutable collection of observations sharing one dimension.

    The per-observation quantities that queries need are held as read-only
    arrays built once at construction: kind codes (:data:`KIND_CODES`), rep
    points, support radii, mean image, values, error variances, unit
    directions (zero rows for non-deriv kinds) and interval bounds (NaN rows
    for non-avg kinds).  A k-d tree of the rep points is built on the first
    call of :meth:`rep_tree` and kept.  ``allow_numeric`` permits deriv kinds
    outside 1D, evaluated by finite differences; avg kinds are 1D only.
    """

    def __init__(self, observations: Sequence[Observation], dim: Optional[int] = None,
                 allow_numeric: bool = False):
        obs = list(observations)
        if dim is None:
            if not obs:
                raise ValueError("dimension required for an empty observation set")
            dim = obs[0].dim
        for i, o in enumerate(obs):
            if o.dim != dim:
                raise ValueError(f"observation {i} has dimension {o.dim}, set has {dim}")
            if o.kind != POINT and dim != 1 and not allow_numeric:
                raise ValueError(
                    f"observation {i}: {o.kind} kind needs dim 1 unless numeric mode is enabled"
                )
            if o.kind == AVG and dim != 1:
                raise ValueError(f"observation {i}: avg observations are 1D only")
        m = len(obs)
        kinds = np.array([KIND_CODES[o.kind] for o in obs], dtype=np.int8)
        reps = np.array([o.rep_point for o in obs], dtype=float).reshape(m, dim)
        radii = np.zeros(m)
        mean_image = np.ones(m)
        directions = np.zeros((m, dim))
        bounds = np.full((m, 2), np.nan)
        for i in np.flatnonzero(kinds != KIND_CODES[POINT]).tolist():
            o = obs[i]
            radii[i] = o.support_radius
            mean_image[i] = o.mean_image
            if o.kind == DERIV:
                directions[i] = o.direction
            else:
                bounds[i] = o.location
        self.observations = obs
        self.dim = int(dim)
        self.allow_numeric = bool(allow_numeric)
        self.kinds = kinds
        self.directions = directions
        self.bounds = bounds
        self._reps = reps
        self._point_mask = kinds == KIND_CODES[POINT]
        self._radii = radii
        self._mean_image = mean_image
        self._values = np.array([o.value for o in obs], dtype=float)
        self._error_vars = np.array([o.error_var for o in obs], dtype=float)
        self._tree: Optional[cKDTree] = None
        for arr in (kinds, directions, bounds, reps, self._point_mask, radii, mean_image,
                    self._values, self._error_vars):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return len(self.observations)

    def __iter__(self):
        return iter(self.observations)

    def __getitem__(self, i) -> Observation:
        return self.observations[i]

    @property
    def m(self) -> int:
        return len(self.observations)

    def values(self) -> np.ndarray:
        return self._values

    def mean_image(self) -> np.ndarray:
        return self._mean_image

    def error_vars(self) -> np.ndarray:
        return self._error_vars

    def rep_points(self) -> np.ndarray:
        return self._reps

    def support_radii(self) -> np.ndarray:
        return self._radii

    def point_mask(self) -> np.ndarray:
        return self._point_mask

    def rep_tree(self) -> cKDTree:
        """k-d tree of the rep points, built once (the set is immutable)."""
        if self._tree is None:
            self._tree = cKDTree(self._reps)
        return self._tree

    def with_values(self, values: np.ndarray) -> "ObservationSet":
        """Copy of the set with observed values replaced (same geometry)."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.m,):
            raise ValueError("values length must equal m")
        obs = [
            Observation(o.kind, o.location.copy(), float(v), o.error_var,
                        None if o.direction is None else o.direction.copy())
            for o, v in zip(self.observations, values)
        ]
        return ObservationSet(obs, dim=self.dim, allow_numeric=self.allow_numeric)


# -- operator correlations, evaluated as arrays by kind pair ----------------

_P, _D, _A = (KIND_CODES[k] for k in KINDS)


class _Operators(NamedTuple):
    """Operators of one kind as arrays that broadcast against each other:
    sites ``x`` (..., q) of points and derivatives, unit directions ``z``
    (..., q) of derivatives, bounds ``lo`` and ``hi`` (...) of intervals."""

    x: Optional[np.ndarray] = None
    z: Optional[np.ndarray] = None
    lo: Optional[np.ndarray] = None
    hi: Optional[np.ndarray] = None


def _operators(obs_set: ObservationSet, kind: int, idx) -> _Operators:
    """The operators of the observations at ``idx`` (an index or an index
    array), all of kind code ``kind``."""
    if kind == _A:
        return _Operators(lo=obs_set.bounds[idx, 0], hi=obs_set.bounds[idx, 1])
    return _Operators(obs_set.rep_points()[idx], obs_set.directions[idx] if kind == _D else None)


def _distances(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Euclidean distances between sites over the last axis, elementwise over
    the broadcast shape; summed per coordinate, so no (..., q) temporary."""
    if u.ndim == 3 and u.shape[1] == 1 and v.ndim == 2:  # query block (n, 1, q) vs sites (m, q)
        return cdist(u[:, 0], v)
    return np.sqrt(sum((u[..., k] - v[..., k]) ** 2 for k in range(u.shape[-1])))


def _base_integrals(model: CorrelationModel):
    """Closed-form integrals of the untapered base, as functions of a signed lag array.

    Returns the odd antiderivative F(t) = int_0^t rho and the even double
    antiderivative H(t) = int_0^t F, or ``None`` under a taper.  With a = |t|:

    * Matern-5/2, k = sqrt(5)/tau_m:
      F = (k/3) (8/k^2 - (8/k^2 + 5a/k + a^2) e^{-ka}),
      H = 8a/(3k) - 5/k^2 + (15/k^2 + 7a/k + a^2) e^{-ka} / 3;
    * gauss2 with scale s (erf integrals, Abramowitz & Stegun 7.1, 7.4):
      F = (s sqrt(pi)/2) erf(t/s),  H = t F(t) + (s^2/2) (e^{-(t/s)^2} - 1).
    """
    if model.taper_range is not None:
        return None
    s = model.base_scale
    if model.base_kind == "matern52":
        k = SQRT5 / s

        def F0(a):
            return (k / 3.0) * (8.0 / (k * k) - (8.0 / (k * k) + 5.0 * a / k + a * a) * np.exp(-k * a))

        def H0(a):
            return (8.0 * a / (3.0 * k) - 5.0 / (k * k)
                    + (15.0 / (k * k) + 7.0 * a / k + a * a) * np.exp(-k * a) / 3.0)
    else:
        def F0(a):
            return 0.5 * s * math.sqrt(math.pi) * erf(a / s)

        def H0(a):
            return a * F0(a) + 0.5 * s * s * np.expm1(-(a / s) ** 2)
    return (lambda t: np.sign(t) * F0(np.abs(t))), (lambda t: H0(np.abs(t)))


# -- quadrature for tapered interval entries --------------------------------

def _quad_interval_point(model: CorrelationModel, x: float, lo: float, hi: float) -> float:
    tau0 = model.taper_range  # breakpoints at the kernel's kinks
    pts = [p for p in (x - tau0, x, x + tau0) if lo < p < hi]
    return quad(lambda u: model.eval(abs(x - u)), lo, hi, points=pts or None, limit=200,
                epsabs=QUAD_ABS_TOL, epsrel=QUAD_ABS_TOL)[0]


def _quad_interval_interval(model: CorrelationModel, lo1, hi1, lo2, hi2) -> float:
    # Reduce the double integral over two intervals to one lag integral:
    # int int rho(u - v) dv du = int rho(t) * overlap(t) dt, where overlap(t)
    # is the length of [lo1, hi1] meeting [lo2 + t, hi2 + t].
    a, b = lo1 - hi2, hi1 - lo2
    tau0 = model.taper_range

    def integrand(t):
        w = min(hi1, hi2 + t) - max(lo1, lo2 + t)
        return model.eval(abs(t)) * w if w > 0.0 else 0.0

    pts = sorted({p for p in (lo1 - lo2, hi1 - hi2, 0.0, -tau0, tau0) if a < p < b})
    return quad(integrand, a, b, points=pts or None, limit=200,
                epsabs=QUAD_ABS_TOL, epsrel=QUAD_ABS_TOL)[0]


def _quadrature(model: CorrelationModel, integral, separation, *bounds) -> np.ndarray:
    """The scalar ``integral(model, *bounds)`` at each element of the broadcast
    arrays whose supports are closer than the taper range; the others are
    exact zeros.  This is the one per-entry loop, for tapered intervals."""
    separation, *bounds = np.broadcast_arrays(separation, *bounds)
    near = separation < model.taper_range
    out = np.zeros(near.shape)
    out[near] = [integral(model, *e) for e in zip(*(b[near].tolist() for b in bounds))]
    return out


def _interval_point(model: CorrelationModel, x, lo, hi) -> np.ndarray:
    """int_lo^hi rho(|x - u|) du, elementwise."""
    closed = _base_integrals(model)
    if closed is None:
        return _quadrature(model, _quad_interval_point, np.maximum(lo - x, x - hi), x, lo, hi)
    F, _ = closed
    return F(hi - x) - F(lo - x)


def _interval_interval(model: CorrelationModel, lo1, hi1, lo2, hi2) -> np.ndarray:
    """Double integral of rho(|u - v|) over [lo1, hi1] x [lo2, hi2], elementwise."""
    closed = _base_integrals(model)
    if closed is None:
        return _quadrature(model, _quad_interval_interval, np.maximum(lo1 - hi2, lo2 - hi1),
                           lo1, hi1, lo2, hi2)
    _, H = closed
    return H(hi1 - lo2) + H(lo1 - hi2) - H(hi1 - hi2) - H(lo1 - lo2)


def _require_smooth(model: CorrelationModel):
    if not model.smooth_origin:
        raise UnsupportedOperatorError(
            "derivative observations need a correlation model that is twice "
            "differentiable at the origin; the spherical taper is not"
        )


def _entries(model: CorrelationModel, ka: int, a: _Operators, kb: int, b: _Operators) -> np.ndarray:
    """Correlations between operators ``a`` of kind code ``ka`` and ``b`` of
    kind code ``kb``, elementwise over their broadcast shape.

    The pair is put in kind-code order first, so entries are exactly
    symmetric.  Derivatives in 1D use the signed-lag derivatives of the
    model; at dim >= 2 (numeric mode) they are central differences.
    """
    if ka > kb:
        return _entries(model, kb, b, ka, a)
    pair = (ka, kb)
    if pair == (_P, _P):
        return model.eval(_distances(a.x, b.x))
    if pair == (_P, _A):
        return _interval_point(model, a.x[..., 0], b.lo, b.hi)
    if pair == (_A, _A):
        return _interval_interval(model, a.lo, a.hi, b.lo, b.hi)
    _require_smooth(model)
    if pair == (_D, _A):
        c = a.x[..., 0]
        return a.z[..., 0] * (model.eval(np.abs(c - b.lo)) - model.eval(np.abs(c - b.hi)))
    if a.x.shape[-1] == 1:
        lag = a.x[..., 0] - b.x[..., 0]
        if pair == (_P, _D):
            return b.z[..., 0] * -model.deriv1(lag)
        return a.z[..., 0] * b.z[..., 0] * -model.deriv2(lag)
    h = _FD_STEP

    def pp(u, v):
        return model.eval(_distances(u, v))

    bp, bm = b.x + h * b.z, b.x - h * b.z
    if pair == (_P, _D):
        return (pp(a.x, bp) - pp(a.x, bm)) / (2.0 * h)
    ap, am = a.x + h * a.z, a.x - h * a.z
    return (pp(ap, bp) - pp(ap, bm) - pp(am, bp) + pp(am, bm)) / (4.0 * h * h)


def _correlations(obs_set: ObservationSet, kind: int, ops: _Operators, n: int,
                  model: CorrelationModel) -> np.ndarray:
    """(n, m) correlations between n operators of kind code ``kind``, held as
    arrays of leading shape (n, 1), and every observation of the set: one
    array evaluation per observation kind."""
    out = np.empty((n, obs_set.m))
    for code in np.flatnonzero(np.bincount(obs_set.kinds)).tolist():
        cols = np.flatnonzero(obs_set.kinds == code)
        out[:, cols] = _entries(model, kind, ops, code, _operators(obs_set, code, cols))
    return out


def _sparse_kernels(obs_set: ObservationSet, block: np.ndarray,
                    model: CorrelationModel) -> sp.csr_matrix:
    """(n, m) CSR kernels of every observation of a set at a block of n query
    points under a finite-range model.

    One k-d tree pair query finds every (node, observation) pair whose rep
    point lies within ``taper_range + max support radius``; no other entry
    can be nonzero.  Point columns are the model at the returned distances,
    other kinds one array evaluation each.  The query also returns pairs at
    exactly that reach and at distance zero, so entries are kept by value
    (nonzero), never by distance.
    """
    n, m = block.shape[0], obs_set.m
    if m == 0:
        return sp.csr_matrix((n, 0))
    if np.any(obs_set.kinds == _D):
        _require_smooth(model)  # as the dense path, whether or not a derivative is in reach
    reach = model.taper_range + float(obs_set.support_radii().max())
    pairs = cKDTree(block).sparse_distance_matrix(obs_set.rep_tree(), reach,
                                                   output_type="ndarray")
    i, j = pairs["i"], pairs["j"]
    kinds = obs_set.kinds[j]
    vals = np.empty(i.size)
    for code in np.flatnonzero(np.bincount(kinds)).tolist():
        sel = np.flatnonzero(kinds == code)
        vals[sel] = model.eval(pairs["v"][sel]) if code == _P else _entries(
            model, _P, _Operators(block[i[sel]]), code, _operators(obs_set, code, j[sel]))
    keep = vals != 0.0
    return sp.csr_matrix((vals[keep], (i[keep], j[keep])), shape=(n, m))


def kernel_value(obs, x, model: CorrelationModel):
    """Kernel function nu_y(x): correlation between the field at ``x`` and the
    observation ``obs``, or every observation of the set ``obs``.

    ``x`` is one point (q,) or a block of n points (n, q).  For one
    observation the result is a float at one point and an (n,) array over a
    block.  For a set it is a length-m array at one point, and over a block
    an (n, m) matrix: a CSR matrix of the nonzero kernels under a
    finite-range model (see :func:`_sparse_kernels`), a dense array without
    one.  Dense columns of each observation kind are one array evaluation;
    under a finite-range model, columns beyond the taper range are exact
    zeros.
    """
    one = isinstance(obs, Observation)
    obs_set = ObservationSet([obs], allow_numeric=True) if one else obs
    x = np.asarray(x, dtype=float)
    block = x.reshape(1, -1) if x.ndim <= 1 else x
    if block.ndim != 2 or block.shape[1] != obs_set.dim:
        raise ValueError(f"query points of shape {x.shape} for dimension {obs_set.dim}")
    if model.taper_range is not None and x.ndim == 2 and not one:
        return _sparse_kernels(obs_set, block, model)
    out = _correlations(obs_set, _P, _Operators(block[:, None, :]), block.shape[0], model)
    out = out[:, 0] if one else out
    return (float(out[0]) if one else out[0]) if x.ndim <= 1 else out


def kernel_vector(obs_set: ObservationSet, x, model: CorrelationModel):
    """Kernel values nu_y(x) of every observation of a set: a length-m vector
    at one query point ``x`` (q,), an (n, m) matrix at a block of n query
    points (n, q), sparse (CSR) under a finite-range model and dense
    otherwise.  This is :func:`kernel_value` of the whole set."""
    return kernel_value(obs_set, x, model)


def interval_vector(obs_set: ObservationSet, lo: float, hi: float,
                    model: CorrelationModel) -> np.ndarray:
    """Correlations between every observation of a 1D set and the integral
    of the field over [lo, hi]."""
    probe = _Operators(lo=np.array([[lo]], dtype=float), hi=np.array([[hi]], dtype=float))
    return _correlations(obs_set, _A, probe, 1, model)[0]


def kernel_gradient_1d(obs_set: ObservationSet, x: float, model: CorrelationModel) -> np.ndarray:
    """d/dx of every observation's kernel function at the 1D location ``x`` (analytic)."""
    lag = x - obs_set.rep_points()[:, 0]
    out = np.zeros(obs_set.m)
    pts = obs_set.point_mask()
    out[pts] = model.deriv1(lag[pts])
    derivs = obs_set.kinds == KIND_CODES[DERIV]
    if derivs.any():
        out[derivs] = obs_set.directions[derivs, 0] * -model.deriv2(lag[derivs])
    avgs = obs_set.kinds == KIND_CODES[AVG]
    lo, hi = obs_set.bounds[avgs].T
    out[avgs] = model.eval(np.abs(x - lo)) - model.eval(np.abs(x - hi))
    return out


def _support_separations(obs_set: ObservationSet, i, j) -> np.ndarray:
    """Euclidean distances between the supports of observations ``i`` and ``j``."""
    reps = obs_set.rep_points()
    if obs_set.dim > 1:  # points and derivatives only
        return _distances(reps[i], reps[j])
    lo, hi = np.where(np.isnan(obs_set.bounds), reps, obs_set.bounds).T
    return np.maximum(0.0, np.maximum(lo[i] - hi[j], lo[j] - hi[i]))


def support_separation(a: Observation, b: Observation) -> float:
    """Euclidean distance between the supports of two observations."""
    return float(_support_separations(ObservationSet([a, b], allow_numeric=True), 0, 1))


def cross_correlation(a: Observation, b: Observation, model: CorrelationModel,
                      sigma2_r: float) -> float:
    """Inter-correlation entry between two observations.

    Exactly symmetric in (a, b).  The error-variance ratio
    ``error_var / sigma2_r`` is added only when ``a`` and ``b`` are the same
    observation object (a diagonal entry).
    """
    if not math.isfinite(sigma2_r) or sigma2_r <= 0.0:
        raise ValueError("sigma2_r must be a positive finite real")
    pair = ObservationSet([a, b], allow_numeric=True)
    ka, kb = pair.kinds.tolist()
    val = float(_entries(model, ka, _operators(pair, ka, 0), kb, _operators(pair, kb, 1)))
    if a is b:
        val += a.error_var / sigma2_r
    return val


def over_query_blocks(x, fn):
    """Evaluate ``fn`` on blocks of at most :data:`BLOCK_ROWS` query points.

    ``x`` is one point (q,) or n points (n, q).  ``fn`` maps a (k, q) block
    to k results (a length-k array, or k rows); the results are joined in
    order, and for a single point its one result is returned as a scalar
    (or a row).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim <= 1:
        first = fn(x.reshape(1, -1))[0]
        return float(first) if np.ndim(first) == 0 else first
    starts = range(0, x.shape[0], BLOCK_ROWS) or [0]  # an empty block still yields no rows
    return np.concatenate([fn(x[s:s + BLOCK_ROWS]) for s in starts])


def _check_duplicate_exact_points(obs_set: ObservationSet, i: np.ndarray, j: np.ndarray):
    """Reject two exact point observations at one location, among the pairs
    ``(i[k], j[k])``, ``i > j``, which must include every zero-distance pair.

    Names the first observation whose location an earlier one already has,
    and the first observation at that location.  Coordinates compare with
    ``==``, so signed zeros count as one location.
    """
    exact = obs_set.point_mask() & (obs_set.error_vars() == 0.0)
    both = np.flatnonzero(exact[i] & exact[j])
    reps = obs_set.rep_points()
    same = both[np.all(reps[i[both]] == reps[j[both]], axis=1)]
    if same.size:
        first = same[np.lexsort((j[same], i[same]))[0]]
        raise ValueError(
            f"duplicate exact point observations at one location "
            f"(indices {j[first]} and {i[first]}) make the inter-correlation "
            f"matrix singular"
        )


def assemble(obs_set: ObservationSet, model: CorrelationModel, sigma2_r: float) -> SparseSymmetric:
    """Assemble the symmetric m-by-m observation inter-correlation matrix.

    Off-diagonal pairs are enumerated as whole arrays: all pairs without a
    taper, and pairs of rep points within ``taper_range + 2 * max radius``
    (a query of the set's k-d tree) under a finite-range model, of which
    pairs whose supports are separated by at least the taper range are
    provably zero and never stored.  The entries of each kind pair are one array evaluation.
    """
    m = obs_set.m
    if m < 1:
        raise ValueError("assemble requires at least one observation")
    if not math.isfinite(sigma2_r) or sigma2_r <= 0.0:
        raise ValueError("sigma2_r must be a positive finite real")

    tau0 = model.taper_range
    # Off-diagonal pairs (i, j) with i > j, then the diagonal.
    if tau0 is None:
        j, i = np.triu_indices(m, k=1)
    else:
        reach = tau0 + 2.0 * float(obs_set.support_radii().max())
        j, i = obs_set.rep_tree().query_pairs(reach, output_type="ndarray").reshape(-1, 2).T
        near = _support_separations(obs_set, i, j) < tau0
        i, j = i[near], j[near]
    _check_duplicate_exact_points(obs_set, i, j)
    i = np.concatenate([i, np.arange(m)])
    j = np.concatenate([j, np.arange(m)])
    kind_pairs = len(KINDS) * obs_set.kinds[i].astype(np.intp) + obs_set.kinds[j]
    vals = np.empty(i.size)
    for code in np.flatnonzero(np.bincount(kind_pairs)).tolist():
        sel = np.flatnonzero(kind_pairs == code)
        ka, kb = divmod(code, len(KINDS))
        vals[sel] = _entries(model, ka, _operators(obs_set, ka, i[sel]),
                             kb, _operators(obs_set, kb, j[sel]))
    vals[-m:] += obs_set.error_vars() / sigma2_r
    return SparseSymmetric.from_entries(m, i, j, vals)


# -- observation CSV --------------------------------------------------------
#
# Header: x1[,x2[,x3]],kind,value,error_var,p1,p2
#   point: x columns = location, p1/p2 empty
#   deriv: x columns = location, p1..pq = direction components
#   avg  : 1D only; x1 = interval midpoint (informative), p1,p2 = bounds

def read_observations_csv(path, allow_numeric: bool = False) -> ObservationSet:
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ObservationParseError(1, "empty observation file") from None
        header = [h.strip() for h in header]
        dim = 0
        while dim < len(header) and header[dim] == f"x{dim + 1}":
            dim += 1
        expected = [f"x{k + 1}" for k in range(dim)] + ["kind", "value", "error_var", "p1", "p2"]
        if dim < 1 or header != expected:
            raise ObservationParseError(
                1, f"bad header {header!r}, expected x1[,x2[,x3]],kind,value,error_var,p1,p2"
            )
        observations = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not f.strip() for f in row):
                continue
            if len(row) != len(expected):
                raise ObservationParseError(lineno, f"expected {len(expected)} fields, got {len(row)}")
            try:
                observations.append(_parse_row(row, dim))
            except (ValueError, TypeError) as exc:
                raise ObservationParseError(lineno, str(exc)) from exc
    if observations:
        return ObservationSet(observations, allow_numeric=allow_numeric)
    return ObservationSet([], dim=dim, allow_numeric=allow_numeric)


def _parse_field(raw: str, name: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"invalid numeric field {name}={raw!r}") from None


def _parse_row(row: List[str], dim: int) -> Observation:
    xs = [_parse_field(row[k], f"x{k + 1}") for k in range(dim)]
    kind = row[dim].strip()
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    value = _parse_field(row[dim + 1], "value")
    err_raw = row[dim + 2].strip()
    error_var = _parse_field(err_raw, "error_var") if err_raw else 0.0
    p1, p2 = row[dim + 3].strip(), row[dim + 4].strip()
    if kind == POINT:
        return Observation(POINT, np.array(xs), value, error_var)
    if kind == DERIV:
        if dim == 1:
            direction = np.array([_parse_field(p1, "p1")]) if p1 else np.array([1.0])
        elif dim == 2:
            if not p1 or not p2:
                raise ValueError("deriv in dim 2 needs direction components in p1,p2")
            direction = np.array([_parse_field(p1, "p1"), _parse_field(p2, "p2")])
        else:
            raise ValueError("deriv rows support dim <= 2 (p1,p2 hold the direction)")
        return Observation(DERIV, np.array(xs), value, error_var, direction)
    if dim != 1:
        raise ValueError("avg observations are 1D only")
    if not p1 or not p2:
        raise ValueError("avg row needs interval bounds in p1,p2")
    lo, hi = _parse_field(p1, "p1"), _parse_field(p2, "p2")
    return Observation(AVG, np.array([lo, hi]), value, error_var)


def write_observations_csv(path, obs_set: ObservationSet):
    dim = obs_set.dim
    header = [f"x{k + 1}" for k in range(dim)] + ["kind", "value", "error_var", "p1", "p2"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for o in obs_set:
            xs = [repr(float(v)) for v in o.rep_point]
            p1 = p2 = ""
            if o.kind == DERIV:
                p1 = repr(float(o.direction[0]))
                if dim >= 2:
                    p2 = repr(float(o.direction[1]))
            elif o.kind == AVG:
                p1, p2 = (repr(float(v)) for v in o.location)
            writer.writerow(xs + [o.kind, repr(o.value), repr(o.error_var), p1, p2])
