"""Localized kernel predictor for large observation sets.

The inverse inter-correlation matrix is replaced by a sparse approximation
built from per-observation neighborhood inversions: for every observation,
the sub-matrix over all observations within the localization range
``delta = k * taper_range`` is inverted densely and the center row of that
sub-inverse is copied into a support matrix, which is then symmetrized as
``(Psi + Psi') / 2``.  All neighborhoods come from one k-d tree pair query;
rows whose neighborhoods have the same size are gathered and inverted
together as one stack, and the stacks depend only on the sizes, so a thread
pool over them gives bit-identical output for any worker count.  The
inversions (LAPACK ``dposv``) hold the interpreter lock, so the workers
overlap only the gathers of the sub-matrices.  The fit makes one pass over
the assembled matrix: the gather builds its full view, and the diagnostics
at the point sites read their kernels off its rows.

The resulting predictor keeps the correct spatial texture of the model (no
neighborhood-switching discontinuities) but no longer reproduces exact
observations perfectly; the mean squared mismatch at exactly observed
points (the deviation variance) quantifies the approximation and is added
to the raw localized variance to give a reliable adjusted variance.
"""

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from .corrfn import CorrelationModel
from .errors import ConfigError, EstimationError
from .inference import estimate_mu, estimate_sigma2
from .linalg import SparseSymmetric, dense_spd_inverse
from .obsmodel import ObservationSet, assemble, kernel_vector, over_query_blocks
from .predictor import _CLAMP_REL_TOL

# Largest order whose sub-matrices are gathered from a dense copy of the
# matrix (8 m^2 bytes) rather than from its CSR form.  At the benchmark's
# site density the dense gather (copy included) was 2.2x faster at m=1000
# and 1.2x at m=2000, but slower from m=2500 on (1.2x at m=4000, where the
# copy alone takes 128 MB).
_DENSE_GATHER_CUTOFF = 2000
_STACK_ENTRIES = 1 << 20  # most matrix entries in one stack of sub-matrices


def approximate_inverse(S: SparseSymmetric, locations, delta: float,
                        workers: Optional[int] = 1) -> SparseSymmetric:
    """Sparse approximation of the inverse of a symmetric PD matrix.

    ``locations`` (one per row of ``S``) define the neighborhoods: row i of
    the support matrix receives the center row of the dense inverse of the
    sub-matrix over all indices with ``|x_i - x_j| < delta`` (strict).  The
    returned matrix is the symmetrized support matrix, with that sum as its
    preset full view; entry (i, j) is structurally zero whenever the
    locations are ``delta`` or more apart.

    Rows with neighborhoods of one size are inverted together, as (k, n, n)
    stacks of at most ``_STACK_ENTRIES`` matrix entries; of each sub-matrix
    only the center row of the inverse is solved for.  A stack is gathered
    from a dense copy of ``S`` up to order ``_DENSE_GATHER_CUTOFF`` and from
    its CSR form above.  ``workers`` > 1 (or None for all cores) maps a
    thread pool over the stacks, which depend only on the sizes, so the
    output is bit-identical for any worker count; only the gathers run in
    parallel, as the inversions hold the interpreter lock.
    """
    if not math.isfinite(delta) or delta <= 0.0:
        raise ValueError("delta must be positive and finite")
    m = S.order
    locations = np.atleast_2d(np.asarray(locations, dtype=float))
    if locations.shape[0] != m:
        raise ValueError(f"{locations.shape[0]} locations for order-{m} matrix")
    if m == 0:
        return SparseSymmetric.from_entries(0, [], [], [])

    # query_pairs keeps pairs at distance exactly delta; the strict test drops them.
    i, j = cKDTree(locations).query_pairs(delta, output_type="ndarray").reshape(-1, 2).T
    diff = locations[i] - locations[j]
    near = np.einsum("ij,ij->i", diff, diff) < delta * delta
    rows = np.concatenate([i[near], j[near], np.arange(m)])
    cols = np.concatenate([j[near], i[near], np.arange(m)])
    psi = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(m, m))  # Psi's pattern
    psi.sort_indices()
    indptr, indices = psi.indptr, psi.indices
    dense = S.to_dense() if m <= _DENSE_GATHER_CUTOFF else None
    full = None if dense is not None else S.full()

    sizes = np.diff(indptr)
    by_size = np.argsort(sizes, kind="stable")
    chunks = []
    for group in np.split(by_size, np.flatnonzero(np.diff(sizes[by_size])) + 1):
        step = max(1, _STACK_ENTRIES // int(sizes[group[0]]) ** 2)
        chunks += [group[s:s + step] for s in range(0, group.size, step)]

    def chunk_task(rows: np.ndarray):
        n = int(sizes[rows[0]])
        slots = indptr[rows][:, None] + np.arange(n)
        idx = indices[slots]
        if dense is not None:
            sub = np.take(dense, idx[:, :, None] * m + idx[:, None, :])
        else:
            r, c = np.broadcast_arrays(idx[:, :, None], idx[:, None, :])
            sub = np.asarray(full[r.ravel(), c.ravel()]).reshape(r.shape)
        center = np.count_nonzero(idx < rows[:, None], axis=1)
        return slots, dense_spd_inverse(sub, center_index=rows, row=center)

    if workers == 1:
        results = [chunk_task(rows) for rows in chunks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(chunk_task, chunks))
    for slots, vals in results:
        psi.data[slots] = vals
    sym = (psi + psi.T) * 0.5
    sym.eliminate_zeros()  # then it is the full view rebuilt from the lower triangle
    return SparseSymmetric(sp.tril(sym, format="csr"), full=sym)


class LocalizedFit:
    """Fitted state of the localized predictor.

    Under its finite-range model each block of query points finds the
    observations within reach with one k-d tree pair query, and its kernels
    are a sparse matrix of those pairs.
    """

    def __init__(self, model: CorrelationModel, obs: ObservationSet,
                 approx_inverse: SparseSymmetric, mu_star: float,
                 sigma2_star: float, weights_star: np.ndarray,
                 k: int, delta: float):
        self.model = model
        self.obs = obs
        self.approx_inverse = approx_inverse
        self.mu_star = float(mu_star)
        self.sigma2_star = float(sigma2_star)
        self.weights_star = np.asarray(weights_star, dtype=float)
        self.deviation_var = 0.0
        self.k = int(k)
        self.delta = float(delta)
        self.clamp_count = 0
        # Raw variances at the point sites below -1e-12 * sigma2_star (more
        # negative than round-off), counted when the fit is asked to (None
        # otherwise, and on a predictor loaded from file).
        self.negative_variance_at_obs: Optional[int] = None


def fit_localized(obs_set: ObservationSet, model: CorrelationModel, k: int,
                  mu: Optional[float] = None, sigma2: Optional[float] = None,
                  workers: Optional[int] = 1,
                  count_negative_variance: bool = False) -> LocalizedFit:
    """Fit the localized predictor with localization range ``k * taper_range``.

    ``mu`` and ``sigma2`` default to the generalized-least-squares estimates
    computed through the approximate inverse; pass explicit values to pin
    them (required when the set is empty, and for sets with observation
    errors where estimation is not supported).  ``count_negative_variance``
    sets ``negative_variance_at_obs``: the count of raw variances at the
    point sites below ``-1e-12 * sigma2_star``.
    """
    if model.taper_range is None:
        raise ConfigError("localized fitting requires a finite-range (tapered) model")
    if int(k) != k or k < 1:
        raise ValueError("k must be a positive integer")
    delta = float(k) * model.taper_range

    if obs_set.m == 0:
        if mu is None or sigma2 is None:
            raise EstimationError("empty observation set: mu and sigma2 must be supplied")
        empty = SparseSymmetric.from_entries(0, [], [], [])
        fit = LocalizedFit(model, obs_set, empty, mu, sigma2, np.empty(0), k, delta)
        if count_negative_variance:
            fit.negative_variance_at_obs = 0
        return fit

    if sigma2 is None and np.any(obs_set.error_vars() > 0.0):
        raise EstimationError(
            "variance estimation with observation errors is not supported; supply sigma2"
        )
    mat = assemble(obs_set, model, sigma2 if sigma2 is not None else 1.0)
    psi = approximate_inverse(mat, obs_set.rep_points(), delta, workers=workers)

    a, d = obs_set.mean_image(), obs_set.values()
    mu_star = estimate_mu(psi, d, a) if mu is None else float(mu)
    if sigma2 is None:
        s2 = estimate_sigma2(psi, d, mu_star, a)
        if s2 == 0.0:
            warnings.warn("zero localized variance estimate: residuals vanish")
    else:
        s2 = float(sigma2)

    fit = LocalizedFit(model, obs_set, psi, mu_star, s2, psi.matvec(d - mu_star * a), k, delta)
    _site_diagnostics(fit, mat, count_negative_variance)
    return fit


def _site_diagnostics(f: LocalizedFit, S: SparseSymmetric, count_negative_variance: bool):
    """Set the deviation variance (mean squared mismatch between the exact
    point values and their localized predictions) and, if asked, the count
    of raw variances at the point sites that are negative beyond round-off.
    A point site's kernels are its row of ``S`` = R + diag(error_var /
    sigma2_r), with its own entry set to the lag-0 correlation."""
    points = np.flatnonzero(f.obs.point_mask())
    kernels = S.full()[points]
    own = kernels.indices == np.repeat(points, np.diff(kernels.indptr))
    kernels.data[own] = f.model.eval(0.0)
    exact = f.obs.error_vars()[points] == 0.0
    err = f.obs.values()[points][exact] - (f.mu_star + kernels @ f.weights_star)[exact]
    f.deviation_var = float(np.mean(err * err)) if exact.any() else 0.0
    if count_negative_variance:
        raw = _raw_variance(f, kernels)
        f.negative_variance_at_obs = int(np.count_nonzero(raw < -_CLAMP_REL_TOL * f.sigma2_star))


def predict_localized(f: LocalizedFit, x):
    """Localized prediction at one point ``x`` (q,), or an (n,) array at the
    rows of an (n, q) block: mean plus the weighted kernel sum."""
    return over_query_blocks(
        x, lambda block: f.mu_star + kernel_vector(f.obs, block, f.model) @ f.weights_star)


def _raw_variance(f: LocalizedFit, kernels: sp.csr_matrix) -> np.ndarray:
    """sigma2* (1 - nu' Psi nu) for each row nu of the sparse ``kernels`` K:
    the quadratic forms are the row sums of (K Psi) * K, elementwise."""
    quad = (kernels @ f.approx_inverse.full()).multiply(kernels).sum(axis=1)
    return f.sigma2_star * (1.0 - np.asarray(quad).ravel())


def _adjusted(f: LocalizedFit, raw: np.ndarray) -> np.ndarray:
    """Raw variance plus the deviation variance, floored at zero; floored
    values bump ``clamp_count``."""
    adjusted = raw + f.deviation_var
    negative = adjusted < 0.0
    f.clamp_count += int(np.count_nonzero(negative))
    return np.where(negative, 0.0, adjusted)


def variance_localized(f: LocalizedFit, x):
    """Raw localized prediction variance at ``x`` (one point or a block).

    The approximate inverse is not guaranteed non-negative definite, so the
    value may fall slightly outside [0, sigma2_star]; it is returned
    unclamped (see :func:`adjusted_variance`).
    """
    return over_query_blocks(
        x, lambda block: _raw_variance(f, kernel_vector(f.obs, block, f.model)))


def adjusted_variance(f: LocalizedFit, x):
    """Localized variance plus the deviation variance, floored at zero."""
    return over_query_blocks(x, lambda block: _adjusted(f, variance_localized(f, block)))


def rasterize_localized(f: LocalizedFit, grid) -> np.ndarray:
    """(n_nodes, dim + 3) table: coordinates, prediction, raw variance,
    adjusted variance, in row-major node order.

    Kernels are evaluated once per block of nodes and shared by the three
    columns.
    """
    if grid.dim != f.obs.dim:
        raise ValueError(f"grid dimension {grid.dim} != observation dimension {f.obs.dim}")

    def block_table(block):
        kernels = kernel_vector(f.obs, block, f.model)
        raw = _raw_variance(f, kernels)
        return np.column_stack([f.mu_star + kernels @ f.weights_star, raw, _adjusted(f, raw)])

    nodes = grid.nodes()
    return np.column_stack([nodes, over_query_blocks(nodes, block_table)])
