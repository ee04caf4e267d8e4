"""Heterogeneous observations as linear operators on a stationary random field.

Three observation kinds: ``point`` (the field value at a location, possibly
with Gaussian error), ``deriv`` (the signed derivative at a 1D location) and
``avg`` (the unnormalized integral of the field over a 1D interval).  A
set holds its observations as columns, built and validated in one place
(the :class:`ObservationSet` constructor); the CSV reader, the predictor
file, synthetic sets and the demonstration set fill the columns directly.

Each observation ``y`` induces a kernel function ``nu_y(x)`` (the correlation
between the field at ``x`` and the observed quantity) and pairwise
inter-correlation entries.  Both are evaluated as arrays, one call per
unordered pair of observation kinds (:func:`_entries`), and so are the
correlations with a predicted derivative (in any dimension) or interval
integral; the model is evaluated unchecked, on columns validated where a set
is built and query points checked where they enter.  Interval
entries are closed forms for every model, which :mod:`.corrfn` writes with
every other base formula (:meth:`CorrelationModel._integrals`), derivative
entries use the model's analytic lag derivatives, and no entry is a
quadrature or a finite difference.  Entries that are provably zero under a finite-range model
(support separation at or beyond the taper range) are exact zeros and are
never stored, neither in the inter-correlation matrix nor in the kernels of
a block of query points, which are then a sparse (CSR) matrix of the pairs
that one k-d tree query finds within reach (a dense array without a taper).
"""

import csv
import functools
import math
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .corrfn import CorrelationModel, _check_dist
from .errors import ObservationParseError, UnsupportedOperatorError
from .linalg import FactorLayout, SparseSymmetric, analyse, layout_in_order

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

_CSV_FIELDS = ["kind", "value", "error_var", "p1", "p2"]  # after the site columns x1..xq


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
    """Ordered, immutable set of m observations of one dimension, held as
    read-only columns: kind codes (:data:`KIND_CODES`), rep points (site or
    interval midpoint), support radii, mean image, values, error variances,
    unit directions (zero for non-deriv rows) and interval bounds (NaN for
    non-avg rows).  A set with a ``deriv`` or ``avg`` row is 1D.

    Built from kind codes (m,), sites (m, dim) of point and deriv rows,
    values and error variances (m,), directions (m, dim) of deriv rows
    (normalized here) and bounds (m, 2) of avg rows; ``dim`` defaults to
    the sites' last axis.  The one validator of observations: its
    ``ValueError`` names the first row with an unknown kind, a deriv or avg
    row outside 1D, a non-finite number, a negative error variance,
    ``lower >= upper`` or a zero direction.
    """

    def __init__(self, kinds, sites, values, error_vars, directions=None, bounds=None,
                 dim: Optional[int] = None):
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


def _interval_point(model: CorrelationModel, x, lo, hi) -> np.ndarray:
    """int_lo^hi rho(|x - u|) du, elementwise, from one evaluation of F at
    both lags; an exact 0 where the interval lies at least the taper range
    from x (F is constant there)."""
    f = model._integrals(np.stack([hi - x, lo - x]))[0]
    return f[0] - f[1]


def _interval_interval(model: CorrelationModel, lo1, hi1, lo2, hi2) -> np.ndarray:
    """Double integral of rho(|u - v|) over [lo1, hi1] x [lo2, hi2],
    elementwise, from one evaluation of H at the four lags; an exact 0 where
    the intervals lie at least the taper range apart (H is linear there, and
    its four terms cancel only up to rounding)."""
    t = np.stack([hi1 - lo2, lo1 - hi2, hi1 - hi2, lo1 - lo2])
    h = model._integrals(t)[1]
    val = h[0] + h[1] - h[2] - h[3]
    if model.taper_range is None:
        return val
    gap = np.maximum(t[1], -t[0])  # the larger of lo1 - hi2 and lo2 - hi1
    return np.where(gap < model.taper_range, val, 0.0)


def _require_smooth(obs_set: ObservationSet, taper_range: Optional[float]):
    """Refuse a set with a derivative observation under a taper: the spherical
    taper has a kink at the origin, so the correlation of two derivatives (the
    second lag derivative) is undefined there.  Checked where a set meets a
    model, not per entry."""
    if taper_range is not None and np.any(obs_set.kinds == _D):
        raise UnsupportedOperatorError(
            "derivative observations need a correlation model that is twice "
            "differentiable at the origin; the spherical taper is not"
        )


def _entries(model: CorrelationModel, ka: int, a: _Operators, kb: int, b: _Operators) -> np.ndarray:
    """Correlations between operators ``a`` of kind code ``ka`` and ``b`` of
    kind code ``kb``, elementwise over their broadcast shape: one array
    evaluation of the model per formula, each formula's terms stacked.

    The pair is put in kind-code order first (a pair structure stores its
    pairs so oriented), so entries are exactly symmetric.  A point and a
    derivative along z at sites u and v, distance d, correlate as -rho'(d)
    ((u - v).z) / d in any dimension (0 at d = 0); the other derivative
    pairs, like the interval pairs, are 1D.  The model is evaluated
    unchecked: the operators come from a validated set or a finite query
    block, and a set with a derivative meets no tapered model, as
    :func:`_require_smooth` refuses it where the two meet.
    """
    if ka > kb:
        return _entries(model, kb, b, ka, a)
    pair = (ka, kb)
    if pair == (_P, _P):
        return model._eval(_distances(a.x, b.x))
    if pair == (_P, _A):
        return _interval_point(model, a.x[..., 0], b.lo, b.hi)
    if pair == (_A, _A):
        return _interval_interval(model, a.lo, a.hi, b.lo, b.hi)
    if pair == (_P, _D):
        d = _distances(a.x, b.x)
        along = sum((a.x[..., k] - b.x[..., k]) * b.z[..., k] for k in range(a.x.shape[-1]))
        along = np.divide(along, d, out=np.zeros(np.shape(d)), where=d > 0.0)
        return -model._deriv1(d) * along
    if pair == (_D, _A):
        c = a.x[..., 0]
        rho = model._eval(np.abs(np.stack([c - b.lo, c - b.hi])))
        return a.z[..., 0] * (rho[0] - rho[1])
    return a.z[..., 0] * b.z[..., 0] * -model._base(np.abs(a.x[..., 0] - b.x[..., 0]), 2)


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
    reach = model.taper_range + float(obs_set.support_radii().max())
    pairs = cKDTree(block).sparse_distance_matrix(obs_set.rep_tree(), reach,
                                                   output_type="ndarray")
    i, j = pairs["i"], pairs["j"]
    kinds = obs_set.kinds[j]
    vals = np.empty(i.size)
    for code in np.flatnonzero(np.bincount(kinds)).tolist():
        sel = np.flatnonzero(kinds == code)
        vals[sel] = model._eval(pairs["v"][sel]) if code == _P else _entries(
            model, _P, _Operators(block[i[sel]]), code, _operators(obs_set, code, j[sel]))
    keep = vals != 0.0
    return sp.csr_matrix((vals[keep], (i[keep], j[keep])), shape=(n, m))


def kernel_value(obs_set: ObservationSet, x, model: CorrelationModel):
    """Kernel functions nu_y(x): correlations between the field at ``x`` and
    every observation y of the set.

    ``x`` is one point (q,) or a block of n points (n, q).  The result is a
    length-m array at one point, and over a block an (n, m) matrix: a CSR
    matrix of the nonzero kernels under a finite-range model (see
    :func:`_sparse_kernels`), a dense array without one.  Dense columns of
    each observation kind are one array evaluation; under a finite-range
    model, columns beyond the taper range are exact zeros.  The block is
    checked once to be finite (``ValueError``), and the model evaluated on
    it unchecked.
    """
    x = np.asarray(x, dtype=float)
    block = x.reshape(1, -1) if x.ndim <= 1 else x
    if block.ndim != 2 or block.shape[1] != obs_set.dim:
        raise ValueError(f"query points of shape {x.shape} for dimension {obs_set.dim}")
    if not np.isfinite(block).all():
        raise ValueError("query points must be finite")
    _require_smooth(obs_set, model.taper_range)
    if model.taper_range is not None and x.ndim == 2:
        return _sparse_kernels(obs_set, block, model)
    out = _correlations(obs_set, _P, _Operators(block[:, None, :]), block.shape[0], model)
    return out[0] if x.ndim <= 1 else out


def kernel_vector(obs_set: ObservationSet, x, model: CorrelationModel):
    """:func:`kernel_value`, under the name the predictors call: the
    benchmark's tracer counts the calls of each."""
    return kernel_value(obs_set, x, model)


def interval_vector(obs_set: ObservationSet, lo: float, hi: float,
                    model: CorrelationModel) -> np.ndarray:
    """Correlations between every observation of a 1D set and the integral
    of the field over [lo, hi]."""
    probe = _Operators(lo=np.array([[lo]], dtype=float), hi=np.array([[hi]], dtype=float))
    return _correlations(obs_set, _A, probe, 1, model)[0]


def derivative_vector(obs_set: ObservationSet, x: np.ndarray, z: np.ndarray,
                      model: CorrelationModel) -> np.ndarray:
    """Correlations between every observation of a set and the derivative of
    the field at the point ``x`` along the unit vector ``z``: the derivatives
    along z of the observations' kernel functions at x."""
    _require_smooth(obs_set, model.taper_range)
    probe = _Operators(x.reshape(1, 1, -1), z.reshape(1, 1, -1))
    return _correlations(obs_set, _D, probe, 1, model)[0]


def _support_separations(obs_set: ObservationSet, i, j) -> np.ndarray:
    """Euclidean distances between the supports of observations ``i`` and ``j``."""
    reps = obs_set.rep_points()
    if obs_set.dim > 1:  # points only
        return _distances(reps[i], reps[j])
    lo, hi = np.where(np.isnan(obs_set.bounds), reps, obs_set.bounds).T
    return np.maximum(0.0, np.maximum(lo[i] - hi[j], lo[j] - hi[i]))


def cross_correlation(obs_set: ObservationSet, i: int, j: int, model: CorrelationModel,
                      sigma2_r: float) -> float:
    """Inter-correlation entry between observations ``i`` and ``j`` of a set.

    Exactly symmetric in (i, j).  The error-variance ratio ``error_var /
    sigma2_r`` is added only on the diagonal (``i == j``).
    """
    if not math.isfinite(sigma2_r) or sigma2_r <= 0.0:
        raise ValueError("sigma2_r must be a positive finite real")
    _require_smooth(obs_set, model.taper_range)
    ka, kb = obs_set.kinds[[i, j]].tolist()
    val = float(_entries(model, ka, _operators(obs_set, ka, i), kb, _operators(obs_set, kb, j)))
    if i == j:
        val += obs_set.error_vars()[i] / sigma2_r
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


def _check_duplicate_exact(obs_set: ObservationSet, kind: int, i: np.ndarray, j: np.ndarray):
    """Reject two exact observations of kind code ``kind`` with one operator
    (a derivative's sign aside), whose equal (or opposite) rows make the
    matrix singular, among the pairs ``(i[k], j[k])`` of that kind in CSR
    order, ``i >= j``, which must include every such pair.

    Names the first observation whose operator an earlier one already has,
    and the first observation with that operator.  Coordinates compare with
    ``==``, so signed zeros count as one location, and two sites whose
    distance underflows to zero do not.
    """
    exact = obs_set.error_vars() == 0.0
    both = np.flatnonzero(exact[i] & exact[j] & (i != j))
    ops = obs_set.bounds if kind == _A else obs_set.rep_points()
    same = both[np.all(ops[i[both]] == ops[j[both]], axis=1)]
    if same.size:
        raise ValueError(
            f"duplicate exact {KINDS[kind]} observations "
            f"{'over one interval' if kind == _A else 'at one location'} "
            f"(indices {j[same[0]]} and {i[same[0]]}) make the inter-correlation "
            f"matrix singular"
        )


class PairStructure:
    """What of a set's inter-correlation matrix only the taper range changes:
    the stored pairs (i >= j) in CSR order, as a canonical
    :class:`SparseSymmetric` pattern whose copies hold the matrices, its
    factor layout, the point-point distances, and the other pairs grouped by
    their unordered kind pair (at most five groups), each pair's operators
    put in kind-code order, as arrays.  Without a taper every pair is stored,
    row by row; under one, the pairs of rep points within ``taper_range + 2 *
    max radius`` (a k-d tree query) whose supports are closer than the taper
    range, the others being provably zero, sorted by one int64 key.

    Each point pair's distance is computed once: where every support is a
    site (dim > 1), it is the support separation of the pair, which also
    selects the pairs under a taper.  Building the structure refuses a set
    with a derivative under a taper, looks for duplicate exact points among
    the coincident point pairs only (distance zero) and for duplicate exact
    derivatives or intervals among the pairs of their kind, and checks the
    distances once; the set's columns are checked where it is built, so
    :meth:`matrix` evaluates the model on all of them unchecked.
    """

    def __init__(self, obs_set: ObservationSet, taper_range: Optional[float]):
        m = obs_set.m
        if m < 1:
            raise ValueError("assemble requires at least one observation")
        _require_smooth(obs_set, taper_range)
        sep = None  # support separations of the stored pairs, kept where they are distances
        if taper_range is None:  # every pair: row r holds columns 0..r
            indptr = np.cumsum(np.arange(m + 1))
            i = np.repeat(np.arange(m), np.arange(1, m + 1))
            j = np.arange(indptr[-1]) - indptr[i]
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
            indptr = np.append(0, np.flatnonzero(i == j) + 1)  # each CSR row ends on its diagonal
        self.obs_set, self.taper_range = obs_set, taper_range
        self._diagonal = indptr[1:] - 1
        pattern = sp.csr_matrix((np.ones(j.size), j, indptr), (m, m))
        self._pattern = SparseSymmetric(pattern)
        kinds = obs_set.kinds
        if kinds.any():  # orient each pair in kind-code order, then group by one stable sort
            flip = kinds[i] > kinds[j]
            a, b = np.where(flip, j, i), np.where(flip, i, j)
            pairs = len(KINDS) * kinds[a].astype(np.intp) + kinds[b]
            by_pair = np.argsort(pairs, kind="stable")  # CSR order within a group
            ends = np.cumsum(np.bincount(pairs, minlength=len(KINDS) ** 2)).tolist()
            groups = [(by_pair[start:end], *divmod(code, len(KINDS)))
                      for code, (start, end) in enumerate(zip([0] + ends, ends)) if end > start]
        else:  # points only
            a, b, groups = i, j, [(slice(None), _P, _P)]
        # (positions, distances) of point pairs, (positions, ka, a, kb, b) of other kinds
        self._groups = []
        for sel, ka, kb in groups:
            at_a, at_b = a[sel], b[sel]
            if ka == kb == _P:
                reps = obs_set.rep_points()
                dist = _distances(reps[at_a], reps[at_b]) if sep is None else sep[sel]
                coincident = dist == 0.0
                _check_duplicate_exact(obs_set, _P, at_a[coincident], at_b[coincident])
                self._groups.append((sel, _check_dist(dist)))
            else:
                if ka == kb:  # every pair of one operator is stored: supports meet
                    _check_duplicate_exact(obs_set, ka, at_a, at_b)
                self._groups.append((sel, ka, _operators(obs_set, ka, at_a),
                                     kb, _operators(obs_set, kb, at_b)))

    @functools.cached_property
    def layout(self) -> FactorLayout:
        """The pattern's layout, made on first use: a tapered one's from
        :func:`~.linalg.analyse`, and the full pattern of an untapered one
        dense in natural order (:func:`~.linalg.layout_in_order`), with no
        band search."""
        if self.taper_range is None:
            return layout_in_order(self._pattern, None)
        return analyse(self._pattern)

    def matrix(self, model: CorrelationModel, sigma2_r: float) -> SparseSymmetric:
        """The matrix under ``model``, with ``error_var / sigma2_r`` on the
        diagonal: one array evaluation per unordered kind pair, held by a copy
        of the structure's pattern (:meth:`SparseSymmetric.with_values`),
        zeros too."""
        if not math.isfinite(sigma2_r) or sigma2_r <= 0.0:
            raise ValueError("sigma2_r must be a positive finite real")
        if model.taper_range != self.taper_range:
            raise ValueError(f"a model of taper range {model.taper_range} on a pair "
                             f"structure of taper range {self.taper_range}")
        vals = np.empty(self._pattern.nnz_lower)
        for sel, *args in self._groups:
            vals[sel] = model._eval(*args) if len(args) == 1 else _entries(model, *args)
        vals[self._diagonal] += self.obs_set.error_vars() / sigma2_r
        return self._pattern.with_values(vals)


def assemble(obs_set: ObservationSet, model: CorrelationModel, sigma2_r: float) -> SparseSymmetric:
    """Assemble the symmetric m-by-m observation inter-correlation matrix:
    the set's :class:`PairStructure` under the model's taper range (one sort
    key, one distance per point pair, duplicate exact points looked for among
    the coincident pairs only), then its values, an underflowed zero too."""
    return PairStructure(obs_set, model.taper_range).matrix(model, sigma2_r)


# -- observation CSV --------------------------------------------------------


def read_observations_csv(path) -> ObservationSet:
    """The observation set of a CSV file ``x1[,x2[,x3]],kind,value,error_var,p1,p2``,
    read column by column: x = site (the midpoint of an avg row, ignored);
    p1 = the direction of a deriv row (its sign, default 1); p1,p2 = the
    bounds of an avg row.  Deriv and avg rows are 1D only, and other rows
    ignore p1 and p2.  Blank lines are skipped, and so is a UTF-8 byte-order
    mark (as spreadsheet "CSV UTF-8" exports write); a malformed row raises
    :class:`ObservationParseError` naming the 1-based line of the first one.
    """
    with open(path, "r", newline="", encoding="utf-8-sig") as fh:
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
    return ObservationSet(
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
