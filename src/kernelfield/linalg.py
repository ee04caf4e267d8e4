"""Sparse symmetric storage (a lower-triangle CSR pattern and its values as
given; only ``SparseSymmetric.from_entries`` drops explicit zeros), Cholesky
factorization, dense (stacked) SPD inversion, and a k-d tree spatial index.
The package finds its neighborhoods with ``scipy.spatial.cKDTree`` pair
queries and does not query :class:`SpatialIndex`; it is kept for the
benchmark's tracer, which wraps ``SpatialIndex.neighbors``.

A stored pattern is analysed once into a :class:`FactorLayout` and factored
many times in it (CHOLMOD's analyse and factorize phases: Chen, Davis, Hager &
Rajamanickam 2008, ACM TOMS 35(3)): a narrow-banded pattern (a finite-range
correlation) in LAPACK band storage, a full or wide-banded one densely.  The
forward solves of the global variance's quadratic forms start at each column's
first nonzero row (Gilbert & Peierls 1988).  Localized sub-problems are
inverted densely on purpose, one LAPACK ``dposv`` call (a Cholesky
factorization, its positive-definiteness check and the solve) per matrix of a
stack.  That call holds the interpreter lock, so threads do not run the
inversions of a stack in parallel.

``scipy.sparse.csgraph`` (reverse Cuthill-McKee) is imported by
:func:`_band_order` after its skip test, not with this module: it adds about
2 MB of resident memory and 20 ms to the start-up of a process whose
matrices are all full, as an untapered model's are.  ``tests/test_cli.py``
fails if it is imported at the top again.
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
    :meth:`with_values` copies share the pattern, and so its layout.
    :meth:`from_entries` validates triplets from outside and is the one place
    that drops explicit zeros.  The full view is made on first use.
    """

    def __init__(self, pattern: sp.csr_matrix, values: Optional[np.ndarray] = None):
        self._pattern = pattern
        self._values = pattern.data if values is None else values
        self._full: Optional[sp.csr_matrix] = None

    def with_values(self, values: np.ndarray) -> "SparseSymmetric":
        """This stored pattern holding the lower-triangle ``values`` (CSR order), zeros too."""
        return SparseSymmetric(self._pattern, values)

    @classmethod
    def from_entries(cls, order: int, rows, cols, vals) -> "SparseSymmetric":
        """Build from (row, col, value) triples of one triangle (any mix).

        Each entry is folded to the lower triangle and the CSR arrays are
        built directly, after one sort on the int64 key ``row * order + col``.
        A repeated entry, such as one given as both (i, j) and (j, i), is a
        ``ValueError`` naming it: it is never summed.  An entry of value zero
        is not stored.
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
        csr = csr[vals[csr] != 0.0]
        indptr = np.append(0, np.cumsum(np.bincount(lo_r[csr], minlength=order)))
        return cls(sp.csr_matrix((vals[csr], lo_c[csr], indptr), shape=(order, order)))

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
    order ``perm`` and its inverse, the ``storage`` ("band", of ``shape``
    (bw + 1, m) with ``2 * (bw + 1) <= m``, or "dense", (m, m)) and each
    entry's flat position ``at`` in it in Fortran order, which LAPACK takes
    uncopied.  Its arrays are read-only."""

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


def _band_order(a: SparseSymmetric) -> Optional[np.ndarray]:
    """The reverse Cuthill-McKee order of the graph of ``a``, or None where a
    row's entry count already rules the band out: a row with d off-diagonal
    entries needs a bandwidth of at least d / 2 in every order, so the band
    needs ``d + 2 <= m``.

    scipy builds the graph from the stored lower triangle L as L + L' (with
    ``symmetric_mode=False``): no entry cancels, as L and L' share only the
    diagonal, so it is the full view's pattern and the order is the same.
    """
    if not a.order or a.max_row_nnz() + 1 > a.order:
        return None
    from scipy.sparse.csgraph import reverse_cuthill_mckee  # deferred: see the module docstring
    return np.asarray(reverse_cuthill_mckee(a._pattern, symmetric_mode=False), dtype=np.int64)


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


def analyse(a: SparseSymmetric) -> FactorLayout:
    """The layout of the stored pattern of ``a``, stored zeros included: band
    storage (LAPACK ``dpbtrf``) in the reverse Cuthill-McKee order
    (:func:`_band_order`) where the band fits, with no m-by-m array; else, for
    a full pattern in particular, dense storage in natural order (``dpotrf``)."""
    rows, perm = a._rows(), _band_order(a)
    return (perm is not None and _layout(a, rows, perm)) or _layout(a, rows, None)


def layout_in_order(a: SparseSymmetric, order: Optional[np.ndarray]) -> FactorLayout:
    """The layout of the stored pattern of ``a`` in a known order, such as a saved
    factor's: None is dense in natural order, and a permutation of ``0..m-1``
    band storage in that order (ValueError if the band does not fit)."""
    layout = _layout(a, a._rows(), None if order is None else np.array(order, dtype=np.int64))
    if layout is None:
        raise ValueError("the band does not fit in the given order")
    return layout


def cholesky(a: SparseSymmetric, layout: Optional[FactorLayout] = None) -> CholeskyFactor:
    """Cholesky factorization of a :class:`SparseSymmetric` matrix: its values
    scattered into ``layout``, a layout of its stored pattern (:func:`analyse`
    of ``a`` if None), and factored there by LAPACK; :class:`FactorizationError`
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
