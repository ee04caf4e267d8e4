"""Heterogeneous observations as linear operators on a stationary random field.

Three observation kinds are supported:

* ``point``  -- the field value at a location, possibly with Gaussian error;
* ``deriv``  -- the directional derivative at a location (1D closed forms,
  finite differences in higher dimensions);
* ``avg``    -- the unnormalized integral of the field over a 1D interval.

Each observation ``y`` induces a kernel function ``nu_y(x)`` (the correlation
between the field at ``x`` and the observed quantity) and pairwise
inter-correlation entries; both are computed in closed form for the
Matern-5/2 base without taper and by adaptive quadrature / finite
differences otherwise.  Entries that are provably zero under a finite-range
model (support separation at or beyond the taper range) are never stored.
"""

import csv
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import quad
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .corrfn import SQRT5, CorrelationModel
from .errors import ObservationParseError, UnsupportedOperatorError
from .linalg import SparseSymmetric

POINT = "point"
DERIV = "deriv"
AVG = "avg"
KINDS = (POINT, DERIV, AVG)

# Integer kind codes; also the canonical argument order of pairwise entries.
KIND_CODES = {POINT: 0, DERIV: 1, AVG: 2}

# Query points per kernel block: bounds the (rows, m) temporaries of batched
# evaluation while keeping per-block overhead small.
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

    @property
    def interval(self) -> Tuple[float, float]:
        if self.kind != AVG:
            raise ValueError("interval only defined for avg observations")
        return float(self.location[0]), float(self.location[1])


class ObservationSet:
    """Ordered, immutable collection of observations sharing one dimension.

    The per-observation quantities that queries need are held as read-only
    arrays built once at construction: kind codes (:data:`KIND_CODES`), rep
    points, support radii, mean image, values, error variances, unit
    directions (zero rows for non-deriv kinds) and interval bounds (NaN rows
    for non-avg kinds).  ``allow_numeric`` permits deriv/avg kinds outside
    1D, evaluated by finite differences and quadrature instead of closed
    forms.
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


# -- Matern-5/2 antiderivative family (untapered closed forms) ------------
#
# With k = sqrt(5)/tau_m and rho(t) = (1 + k t + (k t)^2/3) exp(-k t), t >= 0:
#   F(t) = int_0^t rho = (k/3) * (8/k^2 - G(t)),  G(t) = (8/k^2 + 5t/k + t^2) e^{-kt}
#   H(t) = int_0^t F   = 8t/(3k) - 5/k^2 + (1/3)(15/k^2 + 7t/k + t^2) e^{-kt}

def _m52_F(t: float, k: float) -> float:
    g = (8.0 / (k * k) + 5.0 * t / k + t * t) * math.exp(-k * t)
    return (k / 3.0) * (8.0 / (k * k) - g)


def _m52_H(t: float, k: float) -> float:
    e = math.exp(-k * t)
    return 8.0 * t / (3.0 * k) - 5.0 / (k * k) + (15.0 / (k * k) + 7.0 * t / k + t * t) * e / 3.0


def _m52_interval_point(x: float, lo: float, hi: float, k: float) -> float:
    """int_lo^hi rho(|x - u|) du for the untapered Matern-5/2 base."""
    if x <= lo:
        return _m52_F(hi - x, k) - _m52_F(lo - x, k)
    if x >= hi:
        return _m52_F(x - lo, k) - _m52_F(x - hi, k)
    return _m52_F(x - lo, k) + _m52_F(hi - x, k)


def _m52_interval_interval(lo1: float, hi1: float, lo2: float, hi2: float, k: float) -> float:
    """Double integral of rho(|u - v|) over [lo1,hi1] x [lo2,hi2]."""
    return (
        _m52_H(abs(hi1 - lo2), k)
        + _m52_H(abs(lo1 - hi2), k)
        - _m52_H(abs(hi1 - hi2), k)
        - _m52_H(abs(lo1 - lo2), k)
    )


def _has_m52_closed_forms(model: CorrelationModel) -> bool:
    return model.base_kind == "matern52" and model.taper_range is None


# -- quadrature fallbacks -------------------------------------------------

def _quad_breakpoints(model: CorrelationModel, centers, lo: float, hi: float) -> list:
    """Interior quadrature breakpoints: kernel kinks at centers and taper edges."""
    pts = set()
    for c in centers:
        cands = [c]
        if model.taper_range is not None:
            cands += [c - model.taper_range, c + model.taper_range]
        for p in cands:
            if lo < p < hi:
                pts.add(p)
    return sorted(pts)


def _quad_interval_point(model: CorrelationModel, x: float, lo: float, hi: float) -> float:
    pts = _quad_breakpoints(model, [x], lo, hi)
    val, _ = quad(
        lambda u: model.eval(abs(x - u)), lo, hi,
        points=pts or None, limit=200, epsabs=QUAD_ABS_TOL, epsrel=QUAD_ABS_TOL,
    )
    return val


def _quad_interval_interval(model: CorrelationModel, lo1, hi1, lo2, hi2) -> float:
    # Reduce the double integral over two intervals to one lag integral:
    # int int rho(u - v) dv du = int rho(t) * overlap(t) dt, where overlap(t)
    # is the length of [lo1, hi1] meeting [lo2 + t, hi2 + t].
    a, b = lo1 - hi2, hi1 - lo2

    def integrand(t):
        w = min(hi1, hi2 + t) - max(lo1, lo2 + t)
        return model.eval(abs(t)) * w if w > 0.0 else 0.0

    pts = set()
    for p in (lo1 - lo2, hi1 - hi2, 0.0):
        if a < p < b:
            pts.add(p)
    if model.taper_range is not None:
        for p in (-model.taper_range, model.taper_range):
            if a < p < b:
                pts.add(p)
    val, _ = quad(integrand, a, b, points=sorted(pts) or None, limit=200,
                  epsabs=QUAD_ABS_TOL, epsrel=QUAD_ABS_TOL)
    return val


# -- pairwise operator correlations ----------------------------------------

def _pp(model: CorrelationModel, xa: np.ndarray, xb: np.ndarray) -> float:
    return float(model.eval(float(np.linalg.norm(xa - xb))))


def _require_smooth(model: CorrelationModel):
    if not model.smooth_origin:
        raise UnsupportedOperatorError(
            "derivative observations need a correlation model that is twice "
            "differentiable at the origin; the spherical taper is not"
        )


def _pd(model: CorrelationModel, x: np.ndarray, c: np.ndarray, z: np.ndarray) -> float:
    _require_smooth(model)
    if x.shape[0] == 1:
        return float(z[0]) * -float(model.deriv1(float(x[0] - c[0])))
    h = _FD_STEP
    return (_pp(model, x, c + h * z) - _pp(model, x, c - h * z)) / (2.0 * h)


def _dd(model: CorrelationModel, c1, z1, c2, z2) -> float:
    _require_smooth(model)
    if c1.shape[0] == 1:
        return float(z1[0] * z2[0]) * -float(model.deriv2(float(c1[0] - c2[0])))
    h = _FD_STEP
    return (
        _pp(model, c1 + h * z1, c2 + h * z2)
        - _pp(model, c1 + h * z1, c2 - h * z2)
        - _pp(model, c1 - h * z1, c2 + h * z2)
        + _pp(model, c1 - h * z1, c2 - h * z2)
    ) / (4.0 * h * h)


def _pa(model: CorrelationModel, x: float, lo: float, hi: float) -> float:
    if _has_m52_closed_forms(model):
        return _m52_interval_point(x, lo, hi, SQRT5 / model.base_scale)
    return _quad_interval_point(model, x, lo, hi)


def _da(model: CorrelationModel, c: float, z: float, lo: float, hi: float) -> float:
    _require_smooth(model)
    return z * (float(model.eval(abs(c - lo))) - float(model.eval(abs(c - hi))))


def _aa(model: CorrelationModel, lo1, hi1, lo2, hi2) -> float:
    if _has_m52_closed_forms(model):
        return _m52_interval_interval(lo1, hi1, lo2, hi2, SQRT5 / model.base_scale)
    return _quad_interval_interval(model, lo1, hi1, lo2, hi2)


def kernel_value(obs: Observation, x, model: CorrelationModel) -> float:
    """Kernel function nu_y(x): correlation between the field at ``x`` and ``obs``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[0] != obs.dim:
        raise ValueError(f"query dimension {x.shape[0]} != observation dimension {obs.dim}")
    if obs.kind == POINT:
        return _pp(model, x, obs.location)
    if obs.kind == DERIV:
        return _pd(model, x, obs.location, obs.direction)
    lo, hi = obs.interval
    return _pa(model, float(x[0]), lo, hi)


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


def support_separation(a: Observation, b: Observation) -> float:
    """Euclidean distance between the supports of two observations."""
    if a.kind != AVG and b.kind != AVG:
        return float(np.linalg.norm(a.location - b.location))
    if a.kind == AVG and b.kind == AVG:
        lo1, hi1 = a.interval
        lo2, hi2 = b.interval
        return max(0.0, lo1 - hi2, lo2 - hi1)
    pt, iv = (a, b) if b.kind == AVG else (b, a)
    lo, hi = iv.interval
    x = float(pt.location[0])
    return max(0.0, lo - x, x - hi)


def cross_correlation(a: Observation, b: Observation, model: CorrelationModel,
                      sigma2_r: float) -> float:
    """Inter-correlation entry between two observations.

    Exactly symmetric in (a, b).  The error-variance ratio
    ``error_var / sigma2_r`` is added only when ``a`` and ``b`` are the same
    observation object (a diagonal entry).
    """
    if not math.isfinite(sigma2_r) or sigma2_r <= 0.0:
        raise ValueError("sigma2_r must be a positive finite real")
    if a.dim != b.dim:
        raise ValueError("observations have mismatched dimensions")
    first, second = (a, b) if KIND_CODES[a.kind] <= KIND_CODES[b.kind] else (b, a)
    val = _cross_value(first, second, model)
    if a is b:
        val += a.error_var / sigma2_r
    return val


def _cross_value(a: Observation, b: Observation, model: CorrelationModel) -> float:
    ka, kb = a.kind, b.kind
    if ka == POINT and kb == POINT:
        return _pp(model, a.location, b.location)
    if ka == POINT and kb == DERIV:
        return _pd(model, a.location, b.location, b.direction)
    if ka == POINT and kb == AVG:
        lo, hi = b.interval
        return _pa(model, float(a.location[0]), lo, hi)
    if ka == DERIV and kb == DERIV:
        return _dd(model, a.location, a.direction, b.location, b.direction)
    if ka == DERIV and kb == AVG:
        lo, hi = b.interval
        return _da(model, float(a.location[0]), float(a.direction[0]), lo, hi)
    lo1, hi1 = a.interval
    lo2, hi2 = b.interval
    return _aa(model, lo1, hi1, lo2, hi2)


def kernel_vector(obs_set: ObservationSet, x, model: CorrelationModel) -> np.ndarray:
    """Kernel values nu_y(x) of every observation.

    ``x`` is one query point of shape (q,), giving a length-m vector, or a
    block of n query points of shape (n, q), giving an (n, m) matrix.  Point
    columns are evaluated as whole arrays; deriv/avg columns go through
    :func:`kernel_value`.  Under a finite-range model, columns of
    observations beyond the taper range are exact zeros.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim <= 1
    block = x.reshape(1, -1) if single else x
    if block.ndim != 2 or block.shape[1] != obs_set.dim:
        raise ValueError(f"query points of shape {x.shape} for dimension {obs_set.dim}")
    pts = obs_set.point_mask()
    out = np.empty((block.shape[0], obs_set.m))
    out[:, pts] = model.eval(cdist(block, obs_set.rep_points()[pts]))
    for j in np.flatnonzero(~pts).tolist():
        o = obs_set[j]
        out[:, j] = [kernel_value(o, row, model) for row in block]
    return out[0] if single else out


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


def _check_duplicate_exact_points(obs_set: ObservationSet):
    exact = np.flatnonzero(obs_set.point_mask() & (obs_set.error_vars() == 0.0))
    if exact.size < 2:
        return
    # Adding 0.0 maps -0.0 to 0.0, so signed zeros count as one location.
    locations = obs_set.rep_points()[exact] + 0.0
    _, first, inverse = np.unique(locations, axis=0, return_index=True, return_inverse=True)
    first_of = first[inverse.reshape(-1)]
    repeats = np.flatnonzero(first_of != np.arange(exact.size))
    if repeats.size:
        i = repeats[0]
        raise ValueError(
            f"duplicate exact point observations at one location "
            f"(indices {exact[first_of[i]]} and {exact[i]}) make the inter-correlation "
            f"matrix singular"
        )


def assemble(obs_set: ObservationSet, model: CorrelationModel, sigma2_r: float) -> SparseSymmetric:
    """Assemble the symmetric m-by-m observation inter-correlation matrix.

    Off-diagonal pairs are enumerated as whole arrays: all pairs without a
    taper, and pairs of rep points within ``taper_range + 2 * max radius``
    (a k-d tree query) under a finite-range model.  Point-point entries are
    evaluated in one vectorized call; pairs with a deriv/avg observation go
    through :func:`cross_correlation`.  Entries whose supports are separated
    by at least the taper range are provably zero and never stored.
    """
    m = obs_set.m
    if m < 1:
        raise ValueError("assemble requires at least one observation")
    if not math.isfinite(sigma2_r) or sigma2_r <= 0.0:
        raise ValueError("sigma2_r must be a positive finite real")
    _check_duplicate_exact_points(obs_set)

    reps = obs_set.rep_points()
    is_point = obs_set.point_mask()
    tau0 = model.taper_range
    # Off-diagonal pairs (i, j) with i > j.
    if tau0 is None:
        j, i = np.triu_indices(m, k=1)
    else:
        reach = tau0 + 2.0 * float(obs_set.support_radii().max())
        j, i = cKDTree(reps).query_pairs(reach, output_type="ndarray").reshape(-1, 2).T

    both = is_point[i] & is_point[j]
    pi, pj = i[both], j[both]
    dists = np.linalg.norm(reps[pi] - reps[pj], axis=1)
    if tau0 is not None:
        keep = dists < tau0
        pi, pj, dists = pi[keep], pj[keep], dists[keep]
    diag = np.flatnonzero(is_point)
    diag_vals = model.eval(np.zeros(diag.size)) + obs_set.error_vars()[diag] / sigma2_r
    rows, cols, vals = [pi, diag], [pj, diag], [model.eval(dists), diag_vals]

    extra = []
    for r, c in zip(i[~both].tolist(), j[~both].tolist()):
        o_r, o_c = obs_set[r], obs_set[c]
        if tau0 is None or support_separation(o_r, o_c) < tau0:
            extra.append((r, c, cross_correlation(o_r, o_c, model, sigma2_r)))
    for r in np.flatnonzero(~is_point).tolist():
        extra.append((r, r, cross_correlation(obs_set[r], obs_set[r], model, sigma2_r)))
    if extra:
        er, ec, ev = zip(*extra)
        rows.append(er)
        cols.append(ec)
        vals.append(ev)
    return SparseSymmetric.from_entries(m, np.concatenate(rows), np.concatenate(cols),
                                        np.concatenate(vals))


# The inter-correlation matrix is plain symmetric sparse storage; the name
# records its role in the observation model.
InterCorrelationMatrix = SparseSymmetric


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
                lo, hi = o.interval
                p1, p2 = repr(lo), repr(hi)
            writer.writerow(xs + [o.kind, repr(o.value), repr(o.error_var), p1, p2])
