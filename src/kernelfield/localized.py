"""Localized kernel predictor for large observation sets.

The inverse inter-correlation matrix is replaced by a sparse approximation
built from per-observation neighborhood inversions: for every observation,
the sub-matrix over all observations within the localization range
``delta = k * taper_range`` is inverted densely and the center row of that
sub-inverse is copied into a support matrix, which is then symmetrized as
``(Psi + Psi') / 2`` (:func:`approximate_inverse`).  Psi keeps its lower
triangle, which every product reads.  The fit makes one pass over the
assembled matrix: the gather builds its full view, and the point sites'
diagnostics read its rows.

The fit is a :class:`~.predictor.KernelPredictor` whose inverse is Psi, so
the global predictor's ``predict``, ``predict_variance`` and ``rasterize``
serve it.  It keeps the correct spatial texture of the model (no
neighborhood-switching discontinuities) but no longer reproduces exact
observations perfectly.  The mean squared mismatch at the exactly observed
points (the deviation variance) measures the approximation, and the
adjusted variance, which ``predict_variance`` returns, is the raw localized
variance plus it.  It is a mean over the sites, not a per-node bound on the
localized predictor's error: on values drawn from a Matern-5/2 model (tau
0.5, taper 1.5) at m=4000 and k=2, it fell below the exact mean squared
error at 238 of 3600 nodes (by up to 1.9e-9, sigma2 = 1.79).
"""

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from .corrfn import CorrelationModel
from .errors import ConfigError
from .inference import gls_levels, level_matrix
from .linalg import SparseSymmetric, dense_spd_inverse
from .obsmodel import ObservationSet, kernel_vector, over_query_blocks
from .predictor import (KernelPredictor, _check_levels, _variances, predict,
                        rasterize)

# Largest order whose sub-matrices are gathered from a dense copy of the
# matrix (8 m^2 bytes) rather than from its CSR form.  At the benchmark's
# site density the dense gather (copy included) was 2.2x faster at m=1000
# and 1.2x at m=2000, but slower from m=2500 on (1.2x at m=4000, where the
# copy alone takes 128 MB).
_DENSE_GATHER_CUTOFF = 2000
_STACK_ENTRIES = 1 << 20  # most matrix entries in one stack of sub-matrices


def approximate_inverse(S: SparseSymmetric, locations, delta: float,
                        workers: int = 1) -> SparseSymmetric:
    """Sparse approximation of the inverse of a symmetric PD matrix.

    ``locations`` (one per row of ``S``) define the neighborhoods: row i of
    the support matrix receives the center row of the dense inverse of the
    sub-matrix over all indices with ``|x_i - x_j| < delta`` (strict).  The
    returned matrix is the lower half of ``(Psi + Psi') / 2``, each entry of
    the symmetric delta-pattern averaged with its mirror, with no exact zero
    stored; entry (i, j) is zero whenever the locations are ``delta`` or more apart.

    Rows with neighborhoods of one size are inverted together, as (k, n, n)
    stacks of at most ``_STACK_ENTRIES`` matrix entries; of each sub-matrix
    only the center row of the inverse is solved for.  A stack is gathered
    from a dense copy of ``S`` up to order ``_DENSE_GATHER_CUTOFF`` and from
    its CSR form above.  ``workers`` > 1 maps a thread pool of that size
    over the stacks, which depend only on the sizes, so the output is
    bit-identical for any worker count; only the gathers run in parallel,
    as the inversions hold the interpreter lock.
    """
    if not math.isfinite(delta) or delta <= 0.0:
        raise ValueError("delta must be positive and finite")
    m = S.order
    locations = np.atleast_2d(np.asarray(locations, dtype=float))
    if locations.shape[0] != m:
        raise ValueError(f"{locations.shape[0]} locations for order-{m} matrix")
    if m == 0:
        return SparseSymmetric(sp.csr_matrix((0, 0)))

    # query_pairs keeps pairs at distance exactly delta; the strict test drops them.
    i, j = cKDTree(locations).query_pairs(delta, output_type="ndarray").reshape(-1, 2).T
    diff = locations[i] - locations[j]
    near = np.einsum("ij,ij->i", diff, diff) < delta * delta
    i, j = i[near], j[near]  # the delta-pattern, sorted into CSR order by key row * m + col
    keys = np.sort(np.concatenate([i * m + j, j * m + i, np.arange(m) * (m + 1)]))
    rows, indices = np.divmod(keys, m)
    indptr = np.append(0, np.cumsum(np.bincount(rows, minlength=m)))
    dense = S.to_dense() if m <= _DENSE_GATHER_CUTOFF else None
    full = None if dense is not None else S.full()

    sizes = np.diff(indptr)
    by_size = np.argsort(sizes, kind="stable")
    chunks = []
    for group in np.split(by_size, np.flatnonzero(np.diff(sizes[by_size])) + 1):
        step = max(1, _STACK_ENTRIES // int(sizes[group[0]]) ** 2)
        chunks += [group[s:s + step] for s in range(0, group.size, step)]

    def chunk_task(centers: np.ndarray):
        n = int(sizes[centers[0]])
        slots = indptr[centers][:, None] + np.arange(n)
        idx = indices[slots]
        if dense is not None:
            sub = np.take(dense, idx[:, :, None] * m + idx[:, None, :])
        else:
            # in full's own index dtype (int32, where the keys are int64), to
            # which scipy would otherwise convert each of the n^2 query indices
            idx = idx.astype(full.indices.dtype)
            r, c = np.broadcast_arrays(idx[:, :, None], idx[:, None, :])
            sub = np.asarray(full[r.ravel(), c.ravel()]).reshape(r.shape)
        center = np.count_nonzero(idx < centers[:, None], axis=1)
        return slots, dense_spd_inverse(sub, centers, center)

    if workers == 1:
        results = [chunk_task(centers) for centers in chunks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(chunk_task, chunks))
    support = np.empty(keys.size)  # the center rows, on the delta-pattern
    for slots, vals in results:
        support[slots] = vals
    mirror = np.empty_like(keys)  # the entry (j, i) of each (i, j): the rank of key j * m + i
    mirror[np.argsort(indices * m + rows)] = np.arange(keys.size)
    sym = (support + support[mirror]) * 0.5
    keep = (indices <= rows) & (sym != 0.0)
    indptr = np.append(0, np.cumsum(np.bincount(rows[keep], minlength=m)))
    return SparseSymmetric(sp.csr_matrix((sym[keep], indices[keep], indptr), shape=(m, m)))


def fit_localized(obs_set: ObservationSet, model: CorrelationModel, k: int,
                  mu: Optional[float] = None, sigma2: Optional[float] = None,
                  workers: int = 1) -> KernelPredictor:
    """Fit the localized predictor with localization range ``k * taper_range``.

    ``mu`` and ``sigma2`` default to their GLS estimates through the
    approximate inverse, checked, estimated and refused as in
    :func:`~.predictor.fit_global` (an empty set, or one with observation
    errors, needs them given), and ``workers`` is that of
    :func:`approximate_inverse`.  The predictor's ``negative_variance_at_obs``
    is the count of raw variances at the point sites below ``-1e-12 * sigma2``.
    """
    if model.taper_range is None:
        raise ConfigError("localized fitting requires a finite-range (tapered) model")
    if int(k) != k or not 1 <= k <= sys.maxsize:  # the bound a predictor file's k keeps
        raise ValueError(f"k must be a positive integer no larger than {sys.maxsize}")
    _check_levels(mu, sigma2, obs_set.m)
    k, delta = int(k), float(k) * model.taper_range

    if obs_set.m == 0:
        return KernelPredictor(model, obs_set, mu, sigma2, np.empty(0),
                               SparseSymmetric(sp.csr_matrix((0, 0))), k=k,
                               negative_variance_at_obs=0)

    mat = level_matrix(obs_set, model, sigma2)
    psi = approximate_inverse(mat, obs_set.rep_points(), delta, workers=workers)
    mu, sigma2, weights = gls_levels(psi, obs_set, mu, sigma2)
    deviation_var, negative = _site_diagnostics(obs_set, model, mat, psi, mu, float(sigma2),
                                                weights)
    return KernelPredictor(model, obs_set, mu, sigma2, weights, psi, mat,
                           deviation_var=deviation_var, k=k, negative_variance_at_obs=negative)


def _site_diagnostics(obs: ObservationSet, model: CorrelationModel, S: SparseSymmetric,
                      psi: SparseSymmetric, mu: float, sigma2: float, weights: np.ndarray):
    """The deviation variance (mean squared mismatch between the exact point
    values and their localized predictions) and the count of raw variances at
    the point sites that are negative beyond round-off.  A point site's
    kernels are its row of ``S`` = R + diag(error_var / sigma2_r), with its own
    entry set to the lag-0 correlation."""
    points = np.flatnonzero(obs.point_mask())
    kernels = S.full()[points]
    own = kernels.indices == np.repeat(points, np.diff(kernels.indptr))
    kernels.data[own] = model.eval(0.0)
    exact = obs.error_vars()[points] == 0.0
    err = obs.values()[points][exact] - (mu + kernels @ weights)[exact]
    deviation_var = float(np.mean(err * err)) if exact.any() else 0.0
    raw = sigma2 * (1.0 - psi.quadratic_forms(kernels.T))
    return deviation_var, int(np.count_nonzero(raw < -1e-12 * sigma2))


# The benchmark's tracer (perfbench/tracing.py) wraps these three names, so
# they stay, as functions over the shared path rather than aliases, until it
# drops those metrics (ROADMAP, open item 1a).

def predict_localized(f: KernelPredictor, x):
    """:func:`~.predictor.predict` of a localized predictor."""
    return predict(f, x)


def variance_localized(f: KernelPredictor, x):
    """Raw localized variance sigma2 * (1 - nu' Psi nu) at ``x`` (one point
    or a block), unclamped: the first variance column of :func:`rasterize`."""
    return over_query_blocks(
        x, lambda block: _variances(f, kernel_vector(f.obs, block, f.model))[0])


def rasterize_localized(f: KernelPredictor, grid) -> np.ndarray:
    """:func:`~.predictor.rasterize` of a localized predictor."""
    return rasterize(f, grid)
