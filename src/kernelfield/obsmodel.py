"""Heterogeneous observations as linear operators on a stationary random field.

Three observation kinds: ``point`` (the field value at a location, possibly
with Gaussian error), ``deriv`` (the signed derivative at a 1D location) and
``avg`` (the unnormalized integral of the field over a 1D interval).  A
set holds its observations as columns, built and validated in one place
(:meth:`ObservationSet.from_arrays`); the CSV reader, the predictor file and
synthetic sets fill the columns directly, with no per-row objects.

Each observation ``y`` induces a kernel function ``nu_y(x)`` (the correlation
between the field at ``x`` and the observed quantity) and pairwise
inter-correlation entries.  Both are evaluated as arrays, one call per pair
of observation kinds.  Interval entries have closed forms for both untapered
bases (Matern-5/2 and gauss2), and derivative entries use the model's
analytic lag derivatives; only interval entries under a tapered model use
adaptive quadrature.  (Only :func:`~.predictor.predict_derivative` uses
finite differences, at dim >= 2: it predicts a derivative, but no
observation is one.)  Entries that are provably zero under a finite-range
model (support separation at or beyond the taper range) are never stored,
neither in the inter-correlation matrix nor in the kernels of a block of
query points, which are then a sparse (CSR) matrix of the pairs that one
k-d tree query finds within reach (a dense array without a taper).

``scipy.integrate`` is imported by the two quadrature routines, on the first
tapered interval entry, not with this module: with the ``scipy.optimize`` it
imports, it adds about 12 MB of resident memory and 0.2 s to the start-up of
a process that has no such entry.  ``tests/test_cli.py`` fails if it is
imported at the top again.
"""

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist
from scipy.special import erf

from .corrfn import SQRT5, CorrelationModel, _check_dist
from .errors import ObservationParseError, UnsupportedOperatorError
from .linalg import SparseSymmetric

POINT = "point"
DERIV = "deriv"
AVG = "avg"
KINDS = (POINT, DERIV, AVG)

# Integer kind codes; also the canonical argument order of pairwise entries.
KIND_CODES = {POINT: 0, DERIV: 1, AVG: 2}
_P, _D, _A = (KIND_CODES[k] for k in KINDS)

# Query points per kernel block: bounds the dense (rows, m) kernels of an
# untapered model and the dense (m, rows) right-hand side of the global
# variance's forward solve, while keeping per-block overhead small.
BLOCK_ROWS = 256

QUAD_ABS_TOL = 1e-12  # keeps quadrature entries good to ~1e-10 after combination
_CSV_FIELDS = ["kind", "value", "error_var", "p1", "p2"]  # after the site columns x1..xq


@dataclass(eq=False)
class Observation:
    """One hand-built observed datum (tests, ``example-a``); sets hold columns.

    ``location``: the q-vector site of ``point``, the 1D site of ``deriv``,
    the (lower, upper) bounds of ``avg``; ``deriv`` and ``avg`` are 1D only.
    ``error_var``: additive Gaussian error variance (0 = exact).
    ``direction`` (deriv only): the derivative's sign, a nonzero 1-vector
    (default [1]) normalized to [1] or [-1].  Packed as a one-row set, the
    row is validated by :meth:`ObservationSet.from_arrays`, shapes included.
    """

    kind: str
    location: np.ndarray
    value: float
    error_var: float = 0.0
    direction: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in KIND_CODES:
            raise ValueError(f"unknown observation kind {self.kind!r}")
        if self.direction is not None and self.kind != DERIV:
            raise ValueError("direction is only valid for deriv observations")
        self.location = np.atleast_1d(np.asarray(self.location, dtype=float))
        self.value, self.error_var = float(self.value), float(self.error_var)
        if self.kind == DERIV and self.direction is None:
            self.direction = np.ones(self.location.shape)
        unit = ObservationSet([self]).directions[0]  # validates the row
        self.direction = unit.copy() if self.kind == DERIV else None

    @property
    def dim(self) -> int:
        return 1 if self.kind == AVG else self.location.shape[0]

    @property
    def mean_image(self) -> float:
        """Multiplier of the field mean in the observation's expectation."""
        return float(ObservationSet([self]).mean_image()[0])


class _InvalidRow(ValueError):
    """Row ``row`` (0-based) of a set's columns breaks the rule ``reason``."""

    def __init__(self, row: int, reason: str):
        self.row, self.reason = row, reason
        super().__init__(f"observation {row}: {reason}")


def shaped_floats(a, shape, name: str) -> np.ndarray:
    """``a`` as a float array of the given shape (which an empty ``a`` takes)."""
    a = np.array(a, dtype=float)
    a = a.reshape(shape) if a.size == 0 == math.prod(shape) else a
    if a.shape != shape:
        raise ValueError(f"{name} of shape {a.shape}, expected {shape}")
    return a


class ObservationSet:
    """Ordered, immutable set of observations of one dimension, held as
    read-only columns: kind codes (:data:`KIND_CODES`), rep points (site or
    interval midpoint), support radii, mean image, values, error variances,
    unit directions (zero for non-deriv rows) and interval bounds (NaN for
    non-avg rows).  ``ObservationSet([...])`` packs hand-built
    :class:`Observation` objects; indexing or iterating builds them back.
    A set with a ``deriv`` or ``avg`` row is 1D.
    """

    def __init__(self, observations: Sequence[Observation], dim: Optional[int] = None):
        obs = list(observations)
        if dim is None and not obs:
            raise ValueError("dimension required for an empty observation set")
        dim = obs[0].dim if dim is None else dim
        for i, o in enumerate(obs):
            if o.dim != dim:
                raise ValueError(f"observation {i} has dimension {o.dim}, set has {dim}")
        self._set_columns(
            [KIND_CODES[o.kind] for o in obs],
            [[math.nan] * dim if o.kind == AVG else o.location for o in obs],
            [o.value for o in obs], [o.error_var for o in obs],
            [o.direction if o.kind == DERIV else [0.0] * dim for o in obs],
            [o.location if o.kind == AVG else [math.nan] * 2 for o in obs], dim)

    @classmethod
    def from_arrays(cls, kinds, sites, values, error_vars, directions=None, bounds=None,
                    dim: Optional[int] = None) -> "ObservationSet":
        """The set of m observations as columns: kind codes (m,), sites (m, dim)
        of point and deriv rows, values and error variances (m,), directions
        (m, dim) of deriv rows (normalized here), bounds (m, 2) of avg rows.

        The one validator of observations; its ``ValueError`` names the first
        row with an unknown kind, a deriv or avg row outside 1D, a non-finite
        number, a negative error variance, ``lower >= upper`` or a zero
        direction.
        """
        obs_set = cls.__new__(cls)
        obs_set._set_columns(kinds, sites, values, error_vars, directions, bounds, dim)
        return obs_set

    def _set_columns(self, kinds, sites, values, error_vars, directions, bounds, dim):
        kinds, dim = np.asarray(kinds), np.shape(sites)[-1] if dim is None else dim
        if kinds.ndim != 1 or int(dim) != dim or dim < 1:
            raise ValueError(f"kinds must be 1-D and dim a positive integer, got "
                             f"kinds of shape {kinds.shape} and dim {dim!r}")
        m, dim = kinds.shape[0], int(dim)
        point, deriv, avg = (kinds == code for code in (_P, _D, _A))
        sites = np.where(avg[:, None], math.nan, shaped_floats(sites, (m, dim), "sites"))
        values = shaped_floats(values, (m,), "values")
        error_vars = shaped_floats(error_vars, (m,), "error_vars")
        directions = np.zeros((m, dim)) if directions is None else np.where(
            deriv[:, None], shaped_floats(directions, (m, dim), "directions"), 0.0)
        bounds = np.full((m, 2), math.nan) if bounds is None else np.where(
            avg[:, None], shaped_floats(bounds, (m, 2), "bounds"), math.nan)
        lo, hi = bounds.T
        norms = np.hypot.reduce(np.abs(directions), axis=1)  # no squares to overflow
        with np.errstate(over="ignore", invalid="ignore"):
            width, twice_mid = hi - lo, lo + hi
        checks = [  # (bad rows, reason); of the rules a row breaks, the first is named
            (~(point | deriv | avg), "unknown observation kind"),
            ((deriv | avg) & (dim != 1), "deriv and avg observations are 1D only"),
            (~(avg | np.isfinite(sites).all(axis=1)) | ~np.isfinite(values),
             "observation location and value must be finite"),
            (~np.isfinite(error_vars) | (error_vars < 0.0),
             "error_var must be a finite non-negative real"),
            (avg & ~((lo < hi) & np.isfinite(width) & np.isfinite(twice_mid)),
             "avg interval must satisfy lower < upper, with a finite length and midpoint"),
            (deriv & ~(np.isfinite(norms) & (norms > 0.0)),
             "direction must be a nonzero finite vector"),
        ]
        bad = np.array([mask.argmax() if mask.any() else m for mask, _ in checks])
        if bad.min() < m:
            raise _InvalidRow(int(bad.min()), checks[int(bad.argmin())][1])
        directions[deriv] /= norms[deriv, None]
        self.dim = dim
        self.kinds, self.directions, self.bounds = kinds.astype(np.int8), directions, bounds
        self._reps = np.where(avg[:, None], (0.5 * twice_mid)[:, None], sites)
        self._radii = np.where(avg, 0.5 * width, 0.0)
        self._mean_image = np.where(avg, width, point.astype(float))
        self._values, self._error_vars, self._point_mask = values, error_vars, point
        self._tree: Optional[cKDTree] = None
        for arr in (self.kinds, directions, bounds, self._reps, point, self._radii,
                    self._mean_image, values, error_vars):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return self.m

    def __getitem__(self, i) -> Observation:  # iterating a set goes through here too
        i = range(self.m)[i]
        kind = KINDS[self.kinds[i]]
        return Observation(kind, (self.bounds if kind == AVG else self._reps)[i].copy(),
                           self._values[i], self._error_vars[i],
                           self.directions[i].copy() if kind == DERIV else None)

    @property
    def m(self) -> int:
        return self.kinds.shape[0]

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
        return ObservationSet.from_arrays(self.kinds, self._reps, values, self._error_vars,
                                          self.directions, self.bounds, self.dim)


# -- operator correlations, evaluated as arrays by kind pair ----------------


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
    from scipy.integrate import quad  # deferred: see the module docstring
    tau0 = model.taper_range  # breakpoints at the kernel's kinks
    pts = [p for p in (x - tau0, x, x + tau0) if lo < p < hi]
    return quad(lambda u: model.eval(abs(x - u)), lo, hi, points=pts or None, limit=200,
                epsabs=QUAD_ABS_TOL, epsrel=QUAD_ABS_TOL)[0]


def _quad_interval_interval(model: CorrelationModel, lo1, hi1, lo2, hi2) -> float:
    # Reduce the double integral over two intervals to one lag integral:
    # int int rho(u - v) dv du = int rho(t) * overlap(t) dt, where overlap(t)
    # is the length of [lo1, hi1] meeting [lo2 + t, hi2 + t].
    from scipy.integrate import quad  # deferred: see the module docstring
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
    symmetric.  Derivatives (1D) use the signed-lag derivatives of the model.
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
    lag = a.x[..., 0] - b.x[..., 0]
    if pair == (_P, _D):
        return b.z[..., 0] * -model.deriv1(lag)
    return a.z[..., 0] * b.z[..., 0] * -model.deriv2(lag)


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
    obs_set = ObservationSet([obs]) if one else obs
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
    if obs_set.dim > 1:  # points only
        return _distances(reps[i], reps[j])
    lo, hi = np.where(np.isnan(obs_set.bounds), reps, obs_set.bounds).T
    return np.maximum(0.0, np.maximum(lo[i] - hi[j], lo[j] - hi[i]))


def support_separation(a: Observation, b: Observation) -> float:
    """Euclidean distance between the supports of two observations."""
    return float(_support_separations(ObservationSet([a, b]), 0, 1))


def cross_correlation(a: Observation, b: Observation, model: CorrelationModel,
                      sigma2_r: float) -> float:
    """Inter-correlation entry between two observations.

    Exactly symmetric in (a, b).  The error-variance ratio
    ``error_var / sigma2_r`` is added only when ``a`` and ``b`` are the same
    observation object (a diagonal entry).
    """
    if not math.isfinite(sigma2_r) or sigma2_r <= 0.0:
        raise ValueError("sigma2_r must be a positive finite real")
    pair = ObservationSet([a, b])
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
    ``(i[k], j[k])`` in CSR order, ``i >= j``, which must include every point
    pair at distance zero.

    Names the first observation whose location an earlier one already has,
    and the first observation at that location.  Coordinates compare with
    ``==``, so signed zeros count as one location, and two sites whose
    distance underflows to zero do not.
    """
    exact = obs_set.point_mask() & (obs_set.error_vars() == 0.0)
    both = np.flatnonzero(exact[i] & exact[j] & (i != j))
    reps = obs_set.rep_points()
    same = both[np.all(reps[i[both]] == reps[j[both]], axis=1)]
    if same.size:
        raise ValueError(
            f"duplicate exact point observations at one location "
            f"(indices {j[same[0]]} and {i[same[0]]}) make the inter-correlation "
            f"matrix singular"
        )


class PairStructure:
    """What of a set's inter-correlation matrix only the taper range changes:
    the stored pairs (i >= j) in CSR order, the kind pairs with their operator
    arrays and the point-point distances.  Without a taper every pair is
    stored; under one, the pairs of rep points within ``taper_range + 2 * max
    radius`` (a k-d tree query) whose supports are closer than the taper
    range; the others are provably zero.  The pairs are put in CSR order by
    one int64 key, ``i * m + j``.

    Each point pair's distance is computed once: where every support is a
    site (dim > 1), it is the support separation of the pair, which also
    selects the pairs under a taper.  Building the structure looks for
    duplicate exact points among the coincident point pairs only (distance
    zero) and checks the distances once, so that :meth:`matrix` evaluates
    the model on them unchecked.
    """

    def __init__(self, obs_set: ObservationSet, taper_range: Optional[float]):
        m = obs_set.m
        if m < 1:
            raise ValueError("assemble requires at least one observation")
        sep = None  # support separations of the stored pairs, kept where they are distances
        if taper_range is None:
            i, j = np.tril_indices(m)
        else:
            reach = taper_range + 2.0 * float(obs_set.support_radii().max())
            j, i = obs_set.rep_tree().query_pairs(reach, output_type="ndarray").reshape(-1, 2).T
            sep = _support_separations(obs_set, i, j)
            near = sep < taper_range
            diagonal = np.arange(m)
            i, j = np.append(i[near], diagonal), np.append(j[near], diagonal)
            csr = np.argsort(i * m + j)  # unique keys: the order of lexsort((j, i))
            i, j = i[csr], j[csr]
            sep = np.append(sep[near], np.zeros(m))[csr] if obs_set.dim > 1 else None
        self.obs_set, self.taper_range = obs_set, taper_range
        self._diagonal, self._cols = np.flatnonzero(i == j), j
        self._indptr = np.append(0, self._diagonal + 1)  # each CSR row ends on its diagonal
        self._whole = None  # the first matrix with no zero entry; later ones share its layout
        kind_pairs = len(KINDS) * obs_set.kinds[i].astype(np.intp) + obs_set.kinds[j]
        # (positions, distances) of point pairs, (positions, ka, a, kb, b) of other kinds
        self._groups = []
        for code in np.flatnonzero(np.bincount(kind_pairs)).tolist():
            sel = np.flatnonzero(kind_pairs == code)
            ka, kb = divmod(code, len(KINDS))
            if code == 0:
                reps = obs_set.rep_points()
                dist = _distances(reps[i[sel]], reps[j[sel]]) if sep is None else sep[sel]
                coincident = sel[dist == 0.0]
                _check_duplicate_exact_points(obs_set, i[coincident], j[coincident])
                self._groups.append((sel, _check_dist(dist)))
            else:
                self._groups.append((sel, ka, _operators(obs_set, ka, i[sel]),
                                     kb, _operators(obs_set, kb, j[sel])))

    def matrix(self, model: CorrelationModel, sigma2_r: float) -> SparseSymmetric:
        """The matrix under ``model``, with ``error_var / sigma2_r`` on the
        diagonal: one array evaluation per kind pair, on the structure's
        pattern and factor layout (:meth:`SparseSymmetric.with_values`)."""
        if not math.isfinite(sigma2_r) or sigma2_r <= 0.0:
            raise ValueError("sigma2_r must be a positive finite real")
        if model.taper_range != self.taper_range:
            raise ValueError(f"a model of taper range {model.taper_range} on a pair "
                             f"structure of taper range {self.taper_range}")
        vals = np.empty(self._cols.size)
        for sel, *args in self._groups:
            vals[sel] = model._eval(*args) if len(args) == 1 else _entries(model, *args)
        vals[self._diagonal] += self.obs_set.error_vars() / sigma2_r
        if self._whole is not None:
            return self._whole.with_values(vals)
        m, whole = self.obs_set.m, bool(vals.all())
        # Copied where zeros are to be dropped, so that dropping leaves the structure whole;
        # otherwise the pattern is canonical by construction, and is not checked again.
        lower = sp.csr_matrix((vals, self._cols, self._indptr), (m, m), copy=not whole)
        if not whole:
            return SparseSymmetric(lower)
        self._whole = SparseSymmetric._canonical(lower, lower.data)
        return self._whole


def assemble(obs_set: ObservationSet, model: CorrelationModel, sigma2_r: float) -> SparseSymmetric:
    """Assemble the symmetric m-by-m observation inter-correlation matrix:
    the set's :class:`PairStructure` under the model's taper range (one sort
    key, one distance per point pair, duplicate exact points looked for among
    the coincident pairs only), then its values.  Entries that underflow to
    zero are not stored."""
    return PairStructure(obs_set, model.taper_range).matrix(model, sigma2_r)


# -- observation CSV --------------------------------------------------------


def read_observations_csv(path) -> ObservationSet:
    """The observation set of a CSV file ``x1[,x2[,x3]],kind,value,error_var,p1,p2``,
    read column by column: x = site (the midpoint of an avg row, ignored);
    p1 = the direction of a deriv row (its sign, default 1); p1,p2 = the
    bounds of an avg row.  Deriv and avg rows are 1D only, and other rows
    ignore p1 and p2.  Blank lines are skipped; a malformed row raises
    :class:`ObservationParseError` naming the 1-based line of the first one.
    """
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ObservationParseError(1, "empty observation file") from None
        header = [h.strip() for h in header]
        dim = len(header) - 5
        if dim < 1 or header != [f"x{k + 1}" for k in range(dim)] + _CSV_FIELDS:
            raise ObservationParseError(1, f"bad header {header!r}, expected "
                                           f"x1[,x2[,x3]],kind,value,error_var,p1,p2")
        rows = list(reader)
    lines = [n for n, row in enumerate(rows, start=2) if "".join(row).strip()]
    body = [rows[n - 2] for n in lines]
    try:
        return _parse_rows(body, dim)
    except ValueError as exc:
        error = exc
    # Every rule concerns one row, so rows [good, bad) hold a bad row exactly
    # when they fail to parse: bisect for the first bad row.
    good, bad = 0, len(body)
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            _parse_rows(body[good:mid], dim)
            good = mid
        except ValueError as exc:
            bad, error = mid, exc
    raise ObservationParseError(lines[bad - 1], getattr(error, "reason", str(error)))


def _parse_rows(rows, dim: int) -> ObservationSet:
    """The set of CSV data rows, one column at a time (ValueError on a bad row)."""
    width = dim + 5
    sizes = {len(row) for row in rows} - {width}
    if sizes:
        raise ValueError(f"expected {width} fields, got {sizes.pop()}")
    cols = [[f.strip() for f in col] for col in zip(*rows)] or [[]] * width
    names, p1, p2 = cols[dim], cols[dim + 3], cols[dim + 4]
    kinds = np.array([KIND_CODES.get(name, -1) for name in names], dtype=np.int8)
    if (kinds < 0).any():
        raise ValueError(f"unknown kind {names[int(np.argmax(kinds < 0))]!r}")
    deriv, avg = (np.flatnonzero(kinds == code).tolist() for code in (_D, _A))
    if any(not (p1[i] and p2[i]) for i in avg):
        raise ValueError("avg row needs both p1 and p2")
    p = np.zeros((len(rows), 2))
    p[avg] = np.column_stack([_floats([q[i] for i in avg], name)
                              for q, name in ((p1, "p1"), (p2, "p2"))])
    p[deriv, 0] = _floats([p1[i] or "1" for i in deriv], "p1")
    sites = np.column_stack([_floats(col, f"x{k + 1}") for k, col in enumerate(cols[:dim])])
    return ObservationSet.from_arrays(
        kinds, sites, _floats(cols[dim + 1], "value"),
        _floats([f or "0" for f in cols[dim + 2]], "error_var"),
        p[:, :1] if dim == 1 else None, p, dim)


def _floats(fields, name: str) -> np.ndarray:
    try:
        return np.fromiter(map(float, fields), dtype=float, count=len(fields))
    except ValueError as exc:
        raise ValueError(f"invalid numeric field {name}: {exc}") from None


def write_observations_csv(path, obs_set: ObservationSet):
    """Write the set as CSV (:func:`read_observations_csv`), numbers as shortest repr."""
    dim, kinds = obs_set.dim, obs_set.kinds
    table = np.full((obs_set.m, dim + 5), "", dtype=object)  # of str and float
    table[:, :dim] = obs_set.rep_points()
    table[:, dim] = np.array(KINDS, dtype=object)[kinds]
    table[:, dim + 1:dim + 3] = np.column_stack([obs_set.values(), obs_set.error_vars()])
    table[kinds == _D, dim + 3] = obs_set.directions[kinds == _D, 0]  # deriv rows are 1D
    table[kinds == _A, dim + 3:] = obs_set.bounds[kinds == _A]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([[f"x{k + 1}" for k in range(dim)] + _CSV_FIELDS]
                                 + table.tolist())
