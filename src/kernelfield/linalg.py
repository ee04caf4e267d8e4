"""Sparse symmetric storage, Cholesky factorization, dense (stacked) SPD
inversion, and a grid-bucket spatial index (no longer used by the package,
which finds neighborhoods with ``scipy.spatial.cKDTree``).

A sparse matrix whose reverse Cuthill-McKee order confines it to a narrow
band (a finite-range correlation) is factored in LAPACK band storage; a full
or wide-banded one is factored densely in natural order.  Localized
sub-problems are inverted densely on purpose.
"""

import itertools
import math
from typing import Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpbtrf, dpbtrs, dpotrf, dpotrs, dtbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import FactorizationError


class SparseSymmetric:
    """Symmetric n-by-n matrix stored as the lower triangle in CSR form.

    The stored pattern is explicit-zero-free and closed under transpose by
    construction.  Instances are immutable after construction.
    """

    def __init__(self, lower: sp.csr_matrix):
        lower = sp.csr_matrix(lower)
        lower.eliminate_zeros()
        lower.sum_duplicates()
        self._lower = lower
        self._full: Optional[sp.csr_matrix] = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_entries(cls, order: int, rows, cols, vals) -> "SparseSymmetric":
        """Build from (row, col, value) triples of one triangle (any mix)."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        lo_r = np.maximum(rows, cols)
        lo_c = np.minimum(rows, cols)
        lower = sp.coo_matrix((vals, (lo_r, lo_c)), shape=(order, order)).tocsr()
        return cls(lower)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SparseSymmetric":
        dense = np.asarray(dense, dtype=float)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValueError("dense input must be square")
        return cls(sp.csr_matrix(np.tril(dense)))

    # -- views -----------------------------------------------------------

    @property
    def order(self) -> int:
        return self._lower.shape[0]

    @property
    def nnz_lower(self) -> int:
        return self._lower.nnz

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

    def submatrix(self, idx: np.ndarray) -> np.ndarray:
        """Dense symmetric sub-matrix for the given sorted index list."""
        idx = np.asarray(idx, dtype=np.int64)
        return self.full()[np.ix_(idx, idx)].toarray()

    def max_row_nnz(self) -> int:
        full = self.full()
        if full.nnz == 0:
            return 0
        return int(np.diff(full.indptr).max())

    def density(self) -> float:
        n = self.order
        return self.full().nnz / (n * n) if n else 0.0


class CholeskyFactor:
    """Lower Cholesky factor L of a permuted SPD matrix, ``L @ L.T == A[perm][:, perm]``.

    ``lower`` is either dense, an (m, m) lower triangle, or LAPACK lower band
    storage, a (bw + 1, m) array whose row k holds the k-th sub-diagonal of
    L (``lower[k, j] == L[j + k, j]``; ``storage`` says which).  Solves undo
    the permutation, so callers see the original ordering throughout.
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

    def forward_solve(self, rhs) -> np.ndarray:
        """``L^{-1} P rhs``: the permuted forward substitution alone.

        For any vector ``v``, ``v' A^{-1} v`` is the squared norm of
        ``forward_solve(v)``; the columns of a 2-D ``rhs``, dense or sparse,
        are solved together (a sparse one is made dense after the row
        permutation).
        """
        b = self._permuted(rhs)
        if b.ndim == 2 and b.shape[1] == 0:
            return b  # no LAPACK call: dtbtrs on zero columns can corrupt the heap
        if self.storage == "dense":
            return solve_triangular(self.lower, b, lower=True, check_finite=False)
        x, info = dtbtrs(self.lower, b, uplo="L")
        if info != 0:
            raise FactorizationError(int(info), "triangular solve failed")
        return x

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


def cholesky(a: Union[SparseSymmetric, np.ndarray]) -> CholeskyFactor:
    """Cholesky factorization, in band storage where a sparse matrix allows it.

    A :class:`SparseSymmetric` input is reordered by reverse Cuthill-McKee
    (RCM).  If that order brings every stored entry within ``bw`` of the
    diagonal with ``2 * (bw + 1) <= m``, the factor is held in (bw + 1, m)
    band storage (LAPACK ``dpbtrf``) and no m-by-m array is made.  Any other
    matrix, a full one in particular, is factored densely in natural order
    (``dpotrf``); RCM is skipped where a row's entry count already rules the
    band out: a row with d off-diagonal entries needs a bandwidth of at
    least d / 2 in every order, so the band needs ``d + 2 <= m``.  Dense ``ndarray`` inputs are factored
    densely in natural order.

    Raises :class:`FactorizationError` naming the failing pivot (original
    indexing) when the matrix is not positive definite.
    """
    if not isinstance(a, SparseSymmetric):
        dense = np.asarray(a, dtype=float)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValueError("matrix must be square")
        dense = 0.5 * (dense + dense.T)
    else:
        m, lower = a.order, a._lower
        off_diagonal = np.diff(lower.indptr) + np.bincount(lower.indices, minlength=m) - 2
        if m and off_diagonal.max() + 2 <= m:
            perm = np.asarray(reverse_cuthill_mckee(a.full(), symmetric_mode=True),
                              dtype=np.int64)
            inv_perm = np.empty_like(perm)
            inv_perm[perm] = np.arange(m)
            coo = lower.tocoo()
            r, c = inv_perm[coo.row], inv_perm[coo.col]
            sub, col = np.abs(r - c), np.minimum(r, c)
            bw = int(sub.max())
            if 2 * (bw + 1) <= m:
                band = np.zeros((bw + 1, m))
                band[sub, col] = coo.data
                factor, info = dpbtrf(band, lower=1, overwrite_ab=1)
                _check_factor_info(info, perm, "dpbtrf")
                return CholeskyFactor(factor, perm)
        dense = lower.toarray()
    perm = np.arange(dense.shape[0], dtype=np.int64)
    factor, info = dpotrf(dense, lower=1, clean=1, overwrite_a=1)
    _check_factor_info(info, perm, "dpotrf")
    return CholeskyFactor(factor, perm)


def solve(factor: CholeskyFactor, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs given the factor of A."""
    return factor.solve(rhs)


def dense_spd_inverse(a: np.ndarray, center_index=None, row=None) -> np.ndarray:
    """Inverse of a dense SPD matrix (n, n), or of each matrix of a (k, n, n) stack.

    Positive definiteness is checked by one (stacked) Cholesky factorization.
    ``center_index`` labels the FactorizationError raised when a matrix is not
    positive definite: one label for a matrix, one per matrix of a stack (the
    localized neighborhood inversions pass their center rows).  Unlabelled,
    the error names the failing pivot of the first failing matrix.

    ``row`` (one position per matrix) asks for that row of each inverse only,
    solved for against a unit vector: an (n,) row, or (k, n) for a stack.
    """
    a = np.asarray(a, dtype=float)
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        for j, member in enumerate(a.reshape((-1,) + a.shape[-2:])):
            info = dpotrf(member, lower=1, clean=0)[1]
            if info > 0:
                label = info - 1 if center_index is None else np.ravel(center_index)[j]
                raise FactorizationError(int(label)) from None
        # numpy and scipy may link different LAPACKs: if dpotrf factors every
        # member, no member or pivot is named.
        raise FactorizationError(None, "matrix not positive definite") from None
    if row is None:
        return np.linalg.inv(a)
    unit = np.eye(a.shape[-1])[np.asarray(row)]
    return np.linalg.solve(a, unit[..., None])[..., 0]


class SpatialIndex:
    """Uniform-grid bucket index over a fixed point set in R^q, q in {1,2,3}.

    Cell edge defaults to the intended query radius; queries at other radii
    remain correct (more cells are scanned).  Neighborhoods use the strict
    inequality ``distance < radius`` throughout.
    """

    def __init__(self, points: np.ndarray, cell: float):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.size == 0:
            points = points.reshape(0, 1)
        if not math.isfinite(cell) or cell <= 0.0:
            raise ValueError("cell edge must be positive and finite")
        self.points = points
        self.cell = float(cell)
        self.dim = points.shape[1]
        self._origin = points.min(axis=0) if len(points) else np.zeros(self.dim)
        self._buckets: dict = {}
        keys = np.floor((points - self._origin) / self.cell).astype(np.int64)
        for i, key in enumerate(map(tuple, keys)):
            self._buckets.setdefault(key, []).append(i)

    def __len__(self) -> int:
        return len(self.points)

    def neighbors(self, center, radius: float) -> np.ndarray:
        """Sorted indices of all points with Euclidean distance < radius."""
        if not math.isfinite(radius) or radius <= 0.0:
            raise ValueError("radius must be positive and finite")
        if len(self.points) == 0:
            return np.empty(0, dtype=np.int64)
        center = np.asarray(center, dtype=float).reshape(self.dim)
        lo = np.floor((center - radius - self._origin) / self.cell).astype(np.int64)
        hi = np.floor((center + radius - self._origin) / self.cell).astype(np.int64)
        ranges = [range(lo[k], hi[k] + 1) for k in range(self.dim)]
        cand: list = []
        for key in itertools.product(*ranges):
            cand.extend(self._buckets.get(key, ()))
        if not cand:
            return np.empty(0, dtype=np.int64)
        cand = np.asarray(cand, dtype=np.int64)
        diff = self.points[cand] - center
        mask = np.einsum("ij,ij->i", diff, diff) < radius * radius
        return np.sort(cand[mask])


def neighbors(index: SpatialIndex, center, radius: float) -> np.ndarray:
    """Module-level alias for :meth:`SpatialIndex.neighbors`."""
    return index.neighbors(center, radius)
