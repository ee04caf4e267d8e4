"""Sparse symmetric storage (a lower-triangle CSR pattern and its values as
given, multiplied on that triangle), Cholesky factorization, dense (stacked)
SPD inversion, and a k-d tree spatial index.
The package finds its neighborhoods with ``scipy.spatial.cKDTree`` pair
queries and does not query :class:`SpatialIndex`; it is kept for the
benchmark's tracer, which wraps ``SpatialIndex.neighbors``.

A stored pattern is analysed once into a :class:`FactorLayout` and factored
many times in it (CHOLMOD's analyse and factorize phases: Chen, Davis, Hager &
Rajamanickam 2008, ACM TOMS 35(3)): a narrow-banded pattern (a finite-range
correlation) in LAPACK band storage, a full or wide-banded one densely.  The
band's order sorts the sites along the coordinate axis that gives the
narrowest band (a band ordering as in George & Liu 1981, *Computer Solution
of Large Sparse Positive Definite Systems*): a finite-range pattern joins
only sites closer than the range, so a sort along a long side of the sites'
box keeps every pair's indices close.  The forward solves of the global
variance's quadratic forms start at each column's first nonzero row (Gilbert
& Peierls 1988).  Localized sub-problems are inverted densely on purpose, one
LAPACK ``dposv`` call (a Cholesky factorization, its positive-definiteness
check and the solve) per matrix of a stack.  That call holds the interpreter
lock, so threads do not run the inversions of a stack in parallel.
"""

import math
from typing import NamedTuple, Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpbtrf, dpbtrs, dposv, dpotrf, dpotrs, dtbtrs
from scipy.spatial import cKDTree

from .errors import FactorizationError

# Columns per band solve of CholeskyFactor.quadratic_forms.  On 2D tapered sets
# at the benchmark's density (m=400 and 4000, 1 BLAS thread), 16 was within 6%
# of 32, and 64 took 1.5-1.8 times as long.
QUAD_GROUP = 32


class SparseSymmetric:
    """Symmetric n-by-n matrix held as its lower triangle L in CSR form.

    ``SparseSymmetric(pattern, values=None)`` holds ``values`` (``pattern.data``
    if None) on ``pattern`` as given: no copy, zeros too.  Its unchecked
    precondition: ``pattern`` is a canonical lower-triangle CSR matrix (column
    <= row, sorted and unique in each row) and ``values`` one float per entry.
    :meth:`with_values` copies share the pattern, and so its layout.  It is
    the one constructor: the pair structure, the localized fit and the
    predictor file's reader each build that canonical pattern themselves.
    Products read the stored triangle; the full view, made on first use,
    gathers rows.
    """

    def __init__(self, pattern: sp.csr_matrix, values: Optional[np.ndarray] = None):
        self._pattern = pattern
        self._values = pattern.data if values is None else values
        self._full: Optional[sp.csr_matrix] = None

    def with_values(self, values: np.ndarray) -> "SparseSymmetric":
        """This stored pattern holding the lower-triangle ``values`` (CSR order), zeros too."""
        return SparseSymmetric(self._pattern, values)

    # -- views -----------------------------------------------------------

    @property
    def order(self) -> int:
        return self._pattern.shape[0]

    @property
    def nnz_lower(self) -> int:
        return self._pattern.nnz

    def full(self) -> sp.csr_matrix:
        """Full symmetric CSR view L + strict(L)' with no stored zero (cached), strict(L)
        being L's values masked to zero from the diagonal up, on L's pattern."""
        if self._full is None:
            p = self._pattern
            lower = sp.csr_matrix((self._values, p.indices, p.indptr), p.shape)
            strict = np.where(p.indices < self._rows(), self._values, 0.0)
            self._full = lower + sp.csr_matrix((strict, p.indices, p.indptr), p.shape).T
        return self._full

    def to_dense(self) -> np.ndarray:
        return self.full().toarray()

    def lower_entries(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, values) of the stored lower triangle."""
        return self._rows(), self._pattern.indices.copy(), self._values.copy()

    def _rows(self) -> np.ndarray:
        """The row of each stored entry, in CSR order."""
        return np.repeat(np.arange(self.order), np.diff(self._pattern.indptr))

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """``A v``: each stored entry's term, and off the diagonal its mirror's."""
        return self._products(self._rows(), self._values, np.asarray(v, dtype=float))

    def _products(self, rows: np.ndarray, vals: np.ndarray, v: np.ndarray) -> np.ndarray:
        """:meth:`matvec` of ``v`` for ``vals`` on this pattern, whose entries lie in ``rows``."""
        cols, n = self._pattern.indices, self.order
        return (np.bincount(rows, vals * v[cols], n)
                + np.bincount(cols, np.where(rows != cols, vals * v[rows], 0.0), n))

    def matvec_and_abs_row_sums(self, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``A v`` and the row sums of ``|A|``, finding the stored entries' rows once."""
        rows = self._rows()
        return (self._products(rows, self._values, np.asarray(v, dtype=float)),
                self._products(rows, np.abs(self._values), np.ones(self.order)))

    def quadratic_forms(self, rhs) -> np.ndarray:
        """``v' A v`` for each column v of a dense or sparse (m, n) ``rhs``:
        the row sums of (K D) * K, elementwise, with K = rhs' and D the stored
        triangle, its off-diagonal doubled: ``sum_{i >= j} (2 - [i = j]) a_ij v_i v_j``."""
        p = self._pattern
        doubled = np.where(p.indices == self._rows(), self._values, 2.0 * self._values)
        k, d = sp.csr_matrix(rhs.T), sp.csr_matrix((doubled, p.indices, p.indptr), p.shape)
        return np.asarray((k @ d).multiply(k).sum(axis=1)).ravel()

    def submatrix(self, idx: np.ndarray) -> np.ndarray:
        """Dense symmetric sub-matrix for the given sorted index list."""
        idx = np.asarray(idx, dtype=np.int64)
        return self.full()[np.ix_(idx, idx)].toarray()

    def _row_nnz(self) -> np.ndarray:
        """Entries in each row of the full pattern (stored zeros too), counted on
        the lower triangle: the row's stored length plus its column's entries
        off the diagonal, found by position."""
        p = self._pattern
        off_diagonal = p.indices[p.indices != self._rows()]
        return np.diff(p.indptr) + np.bincount(off_diagonal, minlength=self.order)

    def max_row_nnz(self) -> int:
        return int(self._row_nnz().max(initial=0))

    def density(self) -> float:
        n = self.order
        return int(self._row_nnz().sum()) / (n * n) if n else 0.0


class FactorLayout(NamedTuple):
    """Where :func:`cholesky` puts a stored pattern's entries: the factor's
    order ``perm`` (a coordinate sort of the sites from :func:`analyse`, or
    the natural order) and its inverse, the ``storage`` ("band", of ``shape``
    (bw + 1, m) with ``2 * (bw + 1) <= m``, or "dense", (m, m) in natural
    order) and each entry's flat position ``at`` in it in Fortran order,
    which LAPACK takes uncopied.  Its arrays are read-only."""

    perm: np.ndarray
    inv_perm: np.ndarray
    storage: str
    shape: Tuple[int, int]
    at: np.ndarray


class CholeskyFactor:
    """Lower Cholesky factor L of a permuted SPD matrix, ``L @ L.T == A[perm][:, perm]``.

    ``lower`` is either dense, an (m, m) lower triangle, or LAPACK lower band
    storage, a (bw + 1, m) array whose row k holds the k-th sub-diagonal of
    L (``lower[k, j] == L[j + k, j]``; ``storage`` says which).  Solves and
    quadratic forms undo the permutation, so callers see the original
    ordering throughout.
    """

    def __init__(self, lower: np.ndarray, layout: FactorLayout):
        self.lower = lower
        self.perm, self._inv_perm, self.storage = layout.perm, layout.inv_perm, layout.storage
        # Sub-diagonals of L held by the storage (m - 1 when dense).
        self.bandwidth = lower.shape[0] - 1

    @property
    def order(self) -> int:
        return self.lower.shape[1]

    def _diagonal(self) -> np.ndarray:
        """The pivots of L (in the permuted order)."""
        return self.lower[0] if self.storage == "band" else np.diag(self.lower)

    def min_pivot(self) -> float:
        """Smallest squared diagonal entry of L."""
        return float(self._diagonal().min() ** 2)

    def _permuted(self, rhs) -> np.ndarray:
        """``rhs`` (a vector, a dense matrix or a sparse matrix) with its rows
        in the factor's order, as a dense array."""
        if not sp.issparse(rhs):
            rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.order:
            raise ValueError(f"rhs length {rhs.shape[0]} != order {self.order}")
        rhs = rhs[self.perm]
        return rhs.toarray() if sp.issparse(rhs) else rhs

    def solve(self, rhs) -> np.ndarray:
        """``A^{-1} rhs`` for a vector or the columns of a dense or sparse matrix."""
        b = self._permuted(rhs)
        if b.ndim == 2 and b.shape[1] == 0:
            return b  # no LAPACK call: dtbtrs on zero columns can corrupt the heap
        potrs = dpbtrs if self.storage == "band" else dpotrs
        x, info = potrs(self.lower, b, lower=1)
        if info != 0:
            raise FactorizationError(int(info), "triangular solve failed")
        return x[self._inv_perm]

    def quadratic_forms(self, rhs) -> np.ndarray:
        """``v' A^{-1} v`` for each column v of a dense or sparse (m, n) ``rhs``:
        the squared column norms of the forward solve ``L^{-1} P rhs``.

        In band storage that solve is zero above a column's first nonzero row.
        The columns, sorted by that row, are solved in groups of
        :data:`QUAD_GROUP` (one LAPACK call each, not one per column) on the
        trailing band from the group's first row on.  The rows skipped are
        exact zeros, and the norms are summed over all m rows, zeros included,
        since the sum's rounding depends on where a column starts: the forms
        equal a full-range solve's bit for bit.  An all-zero column takes no
        LAPACK call (``dtbtrs`` on no columns can corrupt the heap).  Dense
        storage makes one triangular solve.
        """
        b = self._permuted(rhs)
        if self.storage == "dense":
            half = solve_triangular(self.lower, b, lower=True, check_finite=False)
            return np.einsum("ij,ij->j", half, half)
        m, n = b.shape
        nonzero = b != 0.0
        first = np.where(nonzero.any(axis=0), nonzero.argmax(axis=0), m)
        order = np.argsort(first, kind="stable")[:np.count_nonzero(first < m)]
        out, padded = np.zeros(n), np.zeros((m, QUAD_GROUP), order="F")
        for start in range(0, order.size, QUAD_GROUP):
            cols = order[start:start + QUAD_GROUP]
            r0 = first[cols[0]]
            x, info = dtbtrs(self.lower[:, r0:], b[r0:, cols], uplo="L")
            if info != 0:
                raise FactorizationError(int(info), "triangular solve failed")
            block = padded[:, :cols.size]
            block[:r0], block[r0:] = 0.0, x
            out[cols] = np.einsum("ij,ij->j", block, block)
        return out

    def logdet(self) -> float:
        """log determinant of A (twice the log-diagonal sum of the factor)."""
        return 2.0 * float(np.sum(np.log(self._diagonal())))


def _layout(a: SparseSymmetric, rows: np.ndarray, perm: Optional[np.ndarray]):
    """The layout of the pattern of ``a``, with entries in ``rows``: dense in natural
    order with ``perm`` None, else band storage in the order ``perm`` if it fits."""
    m, cols = a.order, a._pattern.indices
    if perm is None:
        perm = inv_perm = np.arange(m, dtype=np.int64)
        storage, shape, at = "dense", (m, m), cols * m + rows
    else:
        inv_perm = np.empty_like(perm)
        inv_perm[perm] = np.arange(m)
        r, c = inv_perm[rows], inv_perm[cols]
        sub = np.abs(r - c)
        bw = int(sub.max(initial=0))
        if 2 * (bw + 1) > m:
            return None
        storage, shape, at = "band", (bw + 1, m), np.minimum(r, c) * (bw + 1) + sub
    for arr in (perm, inv_perm, at):
        arr.flags.writeable = False
    return FactorLayout(perm, inv_perm, storage, shape, at)


def analyse(a: SparseSymmetric, sites: Optional[np.ndarray] = None) -> FactorLayout:
    """The layout of the stored pattern of ``a``, stored zeros included, with
    ``sites`` an (m, q) array of one location per row (the set's rep points),
    or None for the row index as the one coordinate.  Each axis's stable sort
    is a candidate order, whose band is the largest rank difference over the
    stored entries; the narrowest band wins, the first axis on a tie.  It is
    laid out in band storage (LAPACK ``dpbtrf``) where ``2 * (bw + 1) <= m``,
    with no m-by-m array; else, for a full pattern in particular, densely in
    natural order (``dpotrf``)."""
    m, rows, cols = a.order, a._rows(), a._pattern.indices
    coords = np.arange(m)[:, None] if sites is None else sites
    best, width = None, m
    for axis in coords.T:
        order = np.argsort(axis, kind="stable")
        rank = np.empty(m, dtype=np.int64)
        rank[order] = np.arange(m)
        bw = int(np.abs(rank[rows] - rank[cols]).max(initial=0))
        if bw < width:
            best, width = order, bw
    return _layout(a, rows, best) or _layout(a, rows, None)


def dense_layout(a: SparseSymmetric) -> FactorLayout:
    """The layout of the stored pattern of ``a`` held densely in natural order."""
    return _layout(a, a._rows(), None)


def cholesky(a: SparseSymmetric, layout: Optional[FactorLayout] = None) -> CholeskyFactor:
    """Cholesky factorization of a :class:`SparseSymmetric` matrix: its values
    scattered into ``layout``, a layout of its stored pattern (if None,
    :func:`analyse` of ``a`` with its rows in natural order as the one
    coordinate), and factored there by LAPACK; :class:`FactorizationError`
    names the failing pivot (original indexing) of one not positive definite."""
    if layout is None:
        layout = analyse(a)
    transposed = np.zeros(layout.shape[::-1])
    transposed.reshape(-1)[layout.at] = a._values
    band = layout.storage == "band"
    factor, info = (dpbtrf(transposed.T, lower=1, overwrite_ab=1) if band
                    else dpotrf(transposed.T, lower=1, clean=1, overwrite_a=1))
    if info > 0:
        raise FactorizationError(int(layout.perm[info - 1]))
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {'dpbtrf' if band else 'dpotrf'}")
    return CholeskyFactor(factor, layout)


def dense_spd_inverse(stack: np.ndarray, center_index, row) -> np.ndarray:
    """Row ``row[j]`` of the inverse of each dense SPD matrix ``stack[j]`` of
    a (k, n, n) stack, as a (k, n) array.

    Each row is solved for against a unit vector by one LAPACK ``dposv``
    call, which reads the matrix's lower triangle only and fails where it is
    not positive definite; the FactorizationError raised then names
    ``center_index[j]`` (the localized neighborhood inversions pass their
    center rows).
    """
    eye = np.eye(stack.shape[-1])
    out = np.empty(stack.shape[:2])
    for j, member in enumerate(stack):
        # member.T is Fortran-ordered, so LAPACK takes it uncopied; its upper
        # triangle holds the lower one of member.
        x, info = dposv(member.T, eye[row[j]], lower=0)[1:]
        if info > 0:
            raise FactorizationError(int(center_index[j]))
        out[j] = x
    return out


class SpatialIndex:
    """A k-d tree (``scipy.spatial.cKDTree``) over a fixed point set in R^q.
    Neighborhoods use the strict inequality ``distance < radius``."""

    def __init__(self, points: np.ndarray):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.size == 0:
            points = points.reshape(0, 1)
        self.points = points
        self.dim = points.shape[1]
        self._tree = cKDTree(points)

    def neighbors(self, center, radius: float) -> np.ndarray:
        """Sorted indices of all points with Euclidean distance < radius."""
        if not math.isfinite(radius) or radius <= 0.0:
            raise ValueError("radius must be positive and finite")
        center = np.asarray(center, dtype=float).reshape(self.dim)
        cand = np.array(self._tree.query_ball_point(center, radius, return_sorted=True),
                        dtype=np.int64)  # distance <= radius
        diff = self.points[cand] - center
        return cand[np.einsum("ij,ij->i", diff, diff) < radius * radius]
