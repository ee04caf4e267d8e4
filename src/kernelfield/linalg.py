"""Sparse symmetric storage, Cholesky factorization, dense (stacked) SPD
inversion, and a k-d tree spatial index.  The package finds its
neighborhoods with ``scipy.spatial.cKDTree`` pair queries and does not query
:class:`SpatialIndex`; it is kept for the benchmark's tracer, which wraps
``SpatialIndex.neighbors``.

A sparse matrix whose reverse Cuthill-McKee order confines it to a narrow
band (a finite-range correlation) is factored in LAPACK band storage; a full
or wide-banded one is factored densely in natural order.  An order known
beforehand, such as a saved factor's, is used without choosing one.  The
forward solves of the global variance's quadratic forms start at each
column's first nonzero row (Gilbert & Peierls 1988).  Localized sub-problems are inverted densely on
purpose, one LAPACK ``dposv`` call (a Cholesky factorization, its
positive-definiteness check and the solve) per matrix of a stack.  That call
holds the interpreter lock, so threads do not run the inversions of a stack
in parallel.

``scipy.sparse.csgraph`` (reverse Cuthill-McKee) is imported by
:func:`_band_order` after its skip test, not with this module: it adds about
2 MB of resident memory and 20 ms to the start-up of a process whose
matrices are all full, as an untapered model's are.  ``tests/test_cli.py``
fails if it is imported at the top again.
"""

import functools
import math
from typing import Optional, Tuple

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
    """Symmetric n-by-n matrix stored as the lower triangle in CSR form.

    The stored pattern is explicit-zero-free and closed under transpose by
    construction.  The matrix an instance holds never changes; what it caches
    does: the full view (a producer that holds it, with no stored zero, may
    preset it as ``full``) and the factor layout that :func:`cholesky` works
    out for the pattern, which :meth:`with_values` copies share.
    """

    def __init__(self, lower: sp.csr_matrix, full: Optional[sp.csr_matrix] = None):
        lower = sp.csr_matrix(lower)
        lower.eliminate_zeros()
        lower.sum_duplicates()
        self._lower = self._pattern = lower
        self._values, self._full = lower.data, full
        self._layout = None  # cholesky's layout of the pattern, handed on to with_values copies

    @functools.cached_property
    def _lower(self) -> sp.csr_matrix:  # of a with_values copy, made on first use
        p = self._pattern
        return sp.csr_matrix((self._values, p.indices, p.indptr), p.shape)

    def with_values(self, values: np.ndarray) -> "SparseSymmetric":
        """This stored pattern holding the lower-triangle ``values`` (CSR order).

        Where none is zero, the copy shares the pattern and the factor layout
        made so far, so that :func:`cholesky` lays a pattern out once, and no
        CSR matrix is built.  Zeros are dropped, as by the constructor.
        """
        p = self._pattern
        if not values.all():  # copied, so that dropping zeros leaves the pattern whole
            return SparseSymmetric(sp.csr_matrix((values, p.indices, p.indptr), p.shape, copy=True))
        return SparseSymmetric._canonical(p, values, self._layout)

    @classmethod
    def _canonical(cls, pattern: sp.csr_matrix, values: np.ndarray,
                   layout=None) -> "SparseSymmetric":
        """The lower-triangle CSR ``pattern``, canonical (sorted, with no
        repeated entry), holding ``values``, none zero, and with the factor
        ``layout`` of that pattern if one is known: no pass over the arrays.
        Where ``values`` are the pattern's own data, it is the lower triangle."""
        out = cls.__new__(cls)
        out.__dict__.update(_pattern=pattern, _values=values, _full=None, _layout=layout)
        if values is pattern.data:
            out._lower = pattern
        return out

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_entries(cls, order: int, rows, cols, vals) -> "SparseSymmetric":
        """Build from (row, col, value) triples of one triangle (any mix).

        Each entry is folded to the lower triangle and the CSR arrays are
        built directly, after one sort on the int64 key ``row * order + col``.
        A repeated entry, such as one given as both (i, j) and (j, i), is a
        ``ValueError`` naming it: it is never summed.
        """
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        if not rows.shape == cols.shape == vals.shape:
            raise ValueError("rows, cols and vals must be of one length")
        lo_r, lo_c = np.maximum(rows, cols), np.minimum(rows, cols)
        keys = lo_r * order + lo_c
        csr = np.argsort(keys, kind="stable")  # linear on triples already in CSR order
        repeated = keys[csr[1:]] == keys[csr[:-1]]
        if repeated.any():
            k = csr[repeated.argmax()]
            raise ValueError(f"repeated entry ({lo_r[k]}, {lo_c[k]}) of the lower triangle")
        indptr = np.append(0, np.cumsum(np.bincount(lo_r, minlength=order)))
        return cls(sp.csr_matrix((vals[csr], lo_c[csr], indptr), shape=(order, order)))

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SparseSymmetric":
        dense = np.asarray(dense, dtype=float)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValueError("dense input must be square")
        return cls(sp.csr_matrix(np.tril(dense)))

    # -- views -----------------------------------------------------------

    @property
    def order(self) -> int:
        return self._pattern.shape[0]

    @property
    def nnz_lower(self) -> int:
        return self._pattern.nnz

    def full(self) -> sp.csr_matrix:
        """Full symmetric CSR view (cached)."""
        if self._full is None:
            strict = sp.tril(self._lower, k=-1)
            self._full = (self._lower + strict.T).tocsr()
        return self._full

    def to_dense(self) -> np.ndarray:
        return self.full().toarray()

    def lower_entries(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, values) of the stored lower triangle."""
        coo = self._lower.tocoo()
        return coo.row.copy(), coo.col.copy(), coo.data.copy()

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.full() @ np.asarray(v, dtype=float)

    def quadratic_forms(self, rhs) -> np.ndarray:
        """``v' A v`` for each column v of a dense or sparse (m, n) ``rhs``:
        the row sums of (K A) * K, elementwise, with K = rhs'."""
        k = sp.csr_matrix(rhs.T)
        return np.asarray((k @ self.full()).multiply(k).sum(axis=1)).ravel()

    def submatrix(self, idx: np.ndarray) -> np.ndarray:
        """Dense symmetric sub-matrix for the given sorted index list."""
        idx = np.asarray(idx, dtype=np.int64)
        return self.full()[np.ix_(idx, idx)].toarray()

    def _row_nnz(self) -> np.ndarray:
        """Entries in each row of the full view, counted on the lower triangle:
        the row's stored length plus its column's off-diagonal entries."""
        p = self._pattern
        off_diagonal = np.bincount(p.indices, minlength=self.order) - (p.diagonal() != 0)
        return np.diff(p.indptr) + off_diagonal

    def max_row_nnz(self) -> int:
        return int(self._row_nnz().max(initial=0))

    def density(self) -> float:
        n = self.order
        return int(self._row_nnz().sum()) / (n * n) if n else 0.0


class CholeskyFactor:
    """Lower Cholesky factor L of a permuted SPD matrix, ``L @ L.T == A[perm][:, perm]``.

    ``lower`` is either dense, an (m, m) lower triangle, or LAPACK lower band
    storage, a (bw + 1, m) array whose row k holds the k-th sub-diagonal of
    L (``lower[k, j] == L[j + k, j]``; ``storage`` says which).  Solves and
    quadratic forms undo the permutation, so callers see the original
    ordering throughout.
    """

    def __init__(self, lower: np.ndarray, perm: np.ndarray):
        self.lower = lower
        self.perm = perm
        self._inv_perm = np.argsort(perm)
        self.storage = "band" if lower.shape[0] < lower.shape[1] else "dense"
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

    def reconstruct(self) -> np.ndarray:
        """A in the original ordering; used by tests."""
        low = self.lower
        if self.storage == "band":
            m = self.order
            low = sp.diags([low[k, :m - k] for k in range(low.shape[0])],
                           -np.arange(low.shape[0]), shape=(m, m)).toarray()
        a_perm = low @ low.T
        return a_perm[np.ix_(self._inv_perm, self._inv_perm)]


def _check_factor_info(info: int, perm: np.ndarray, routine: str):
    if info > 0:
        raise FactorizationError(int(perm[info - 1]))
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")


def _band_order(a: SparseSymmetric) -> Optional[np.ndarray]:
    """The reverse Cuthill-McKee order of the graph of ``a``, or None where a
    row's entry count already rules the band out: a row with d off-diagonal
    entries needs a bandwidth of at least d / 2 in every order, so the band
    needs ``d + 2 <= m``.

    The graph is the full symmetric pattern, built from the stored lower
    triangle without the full view: row r is the stored row r followed by
    column r's entries below the diagonal (one ``tocsc``), so its indices are
    sorted as in the full view and the order is the same.
    """
    m, lower = a.order, a._pattern
    row_nnz = a._row_nnz()
    if not m or row_nnz.max() + 1 > m:
        return None
    from scipy.sparse.csgraph import reverse_cuthill_mckee  # deferred: see the module docstring
    csc = lower.tocsc()
    cols = np.repeat(np.arange(m), np.diff(csc.indptr))
    below = csc.indices > cols
    rows = np.concatenate([np.repeat(np.arange(m), np.diff(lower.indptr)), cols[below]])
    indices = np.concatenate([lower.indices, csc.indices[below]])
    indptr = np.concatenate([[0], np.cumsum(row_nnz)])
    graph = sp.csr_matrix((np.ones(indices.size, dtype=np.int8),
                           indices[np.argsort(rows, kind="stable")], indptr), (m, m))
    return np.asarray(reverse_cuthill_mckee(graph, symmetric_mode=True), dtype=np.int64)


def _factor_layout(a: SparseSymmetric, perm: Optional[np.ndarray]):
    """Where :func:`cholesky` puts the stored entries of ``a`` when factoring
    in the order ``perm``: the permutation, the storage shape, and each
    entry's flat position in that storage in Fortran order, in which LAPACK
    takes it without a copy.

    With ``perm`` None the storage is dense in natural order.  With a
    permutation it is band storage in that order, and the result is None if
    the band does not fit (``2 * (bw + 1) > m``).
    """
    m, lower = a.order, a._pattern
    rows = np.repeat(np.arange(m), np.diff(lower.indptr))
    if perm is None:
        return np.arange(m, dtype=np.int64), (m, m), lower.indices * m + rows
    inv_perm = np.empty_like(perm)
    inv_perm[perm] = np.arange(m)
    r, c = inv_perm[rows], inv_perm[lower.indices]
    sub = np.abs(r - c)
    bw = int(sub.max())
    if 2 * (bw + 1) > m:
        return None
    return perm, (bw + 1, m), np.minimum(r, c) * (bw + 1) + sub


def cholesky(a: SparseSymmetric, order="rcm") -> CholeskyFactor:
    """Cholesky factorization of a :class:`SparseSymmetric` matrix, in band
    storage where it allows it.

    The matrix is reordered by reverse Cuthill-McKee (RCM,
    :func:`_band_order`).  If that order brings every stored entry
    within ``bw`` of the diagonal with ``2 * (bw + 1) <= m``, the factor is
    held in (bw + 1, m) band storage (LAPACK ``dpbtrf``) and no m-by-m array
    is made.  Any other matrix, a full one in particular, is factored densely
    in natural order (``dpotrf``).  That layout is made once per stored
    pattern (:meth:`SparseSymmetric.with_values`); a call then scatters the
    values and factors them.

    ``order`` skips the choice for a matrix whose order is known, such
    as a saved factor's (:attr:`CholeskyFactor.perm` in band storage): None
    factors densely in natural order, and a permutation of ``0..m-1``
    factors in band storage in that order (ValueError if the band does not
    fit).  Either lays the pattern out afresh.

    Raises :class:`FactorizationError` naming the failing pivot (original
    indexing) when the matrix is not positive definite.
    """
    if not isinstance(order, str):
        a._layout = _factor_layout(a, order)
        if a._layout is None:
            raise ValueError("the band does not fit in the given order")
    elif a._layout is None:
        perm = _band_order(a)
        layout = None if perm is None else _factor_layout(a, perm)
        a._layout = layout or _factor_layout(a, None)
    perm, shape, at = a._layout
    transposed = np.zeros(shape[::-1])
    transposed.reshape(-1)[at] = a._values
    target = transposed.T
    band = shape[0] < shape[1]
    factor, info = (dpbtrf(target, lower=1, overwrite_ab=1) if band
                    else dpotrf(target, lower=1, clean=1, overwrite_a=1))
    _check_factor_info(info, perm, "dpbtrf" if band else "dpotrf")
    return CholeskyFactor(factor, perm)


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

    def __len__(self) -> int:
        return len(self.points)

    def neighbors(self, center, radius: float) -> np.ndarray:
        """Sorted indices of all points with Euclidean distance < radius."""
        if not math.isfinite(radius) or radius <= 0.0:
            raise ValueError("radius must be positive and finite")
        center = np.asarray(center, dtype=float).reshape(self.dim)
        cand = np.array(self._tree.query_ball_point(center, radius, return_sorted=True),
                        dtype=np.int64)  # distance <= radius
        diff = self.points[cand] - center
        return cand[np.einsum("ij,ij->i", diff, diff) < radius * radius]
