"""Reference implementations the tests hold the package to.

The program runs none of these.  Each computes by the plain route what the
package computes another way: the pointwise Kriging predictor, the closed
forms of the correlation functions and their first two derivatives, with no
clip, interval integrals of a correlation by adaptive quadrature, an eigenvalue
check of non-negative definiteness, the dense matrix behind a sparse one
or a Cholesky factor, scipy's full view of a sparse one, the approximate
inverse symmetrized by scipy, and scipy's bounded Brent search.
"""

import math

import numpy as np
import scipy.sparse as sp
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.spatial.distance import cdist

from kernelfield import CorrelationModel, SparseSymmetric, assemble, kernel_vector
from kernelfield.linalg import dense_spd_inverse


# -- correlation functions, with no clipping: inf or nan where a product
# overflows, so a comparison keeps only the finite values.

def matern52(d, tau_m):
    """``(1 + k*d + (k*d)^2/3) * exp(-k*d)`` with ``k = sqrt(5)/tau_m``."""
    with np.errstate(all="ignore"):
        kd = (math.sqrt(5.0) / tau_m) * np.asarray(d, dtype=float)
        return (1.0 + kd + kd ** 2 / 3.0) * np.exp(-kd)


def gauss2(d, scale):
    """``exp(-(d/scale)^2)``."""
    with np.errstate(all="ignore"):
        return np.exp(-(np.asarray(d, dtype=float) / scale) ** 2)


def matern52_deriv1(d, tau_m):
    """``-(k^2/3) (d + k d^2) exp(-k d)``, the first derivative in ``d``, with
    the exponential as two halves: from ``k d`` ~ 708 on ``exp(-k d)`` is
    subnormal, and short of digits, where the derivative may be normal."""
    with np.errstate(all="ignore"):
        k = math.sqrt(5.0) / tau_m
        d = np.asarray(d, dtype=float)
        half = np.exp(-0.5 * k * d)
        return -(k * k / 3.0) * (d + k * d * d) * half * half


def matern52_deriv2(d, tau_m):
    """``-(k^2/3) (1 + k d - (k d)^2) exp(-k d)``, the second derivative in ``d``,
    as two factors with one ``k`` and one half of the exponential each: both are
    normal where the derivative is (``exp(-k d)`` alone is subnormal from ``k d``
    ~ 708 on), and 0 where the halves are, though ``k^2`` overflows below
    ``tau_m`` ~ 1.7e-154."""
    with np.errstate(all="ignore"):
        k = math.sqrt(5.0) / tau_m
        kd = k * np.asarray(d, dtype=float)
        half = np.exp(-0.5 * kd)
        return (-(k / 3.0) * ((1.0 + kd - kd ** 2) * half)) * (k * half)


def gauss2_deriv1(d, scale):
    """``-(2 d/scale^2) exp(-(d/scale)^2)``, with no square of the scale to
    underflow."""
    with np.errstate(all="ignore"):
        u = np.asarray(d, dtype=float) / scale
        return -(2.0 * u / scale) * np.exp(-u ** 2)


def gauss2_deriv2(d, scale):
    """``(4 (d/scale)^2 - 2) exp(-(d/scale)^2) / scale^2``."""
    with np.errstate(all="ignore"):
        u = np.asarray(d, dtype=float) / scale
        return (4.0 * u ** 2 - 2.0) / scale / scale * np.exp(-u ** 2)


def spherical(d, tau0):
    """``(1 + d/(2*tau0)) * (1 - d/tau0)^2`` for ``d < tau0``, 0 beyond."""
    d = np.asarray(d, dtype=float)
    with np.errstate(all="ignore"):  # beyond tau0, where the value is not used
        return np.where(d < tau0, (1.0 + d / (2.0 * tau0)) * (1.0 - d / tau0) ** 2, 0.0)


# -- interval integrals of a correlation by adaptive quadrature

QUAD_TOL = 1e-12  # keeps the entries good to ~1e-10 after combination


def _breakpoints(model, centre: float, lo: float, hi: float, *more):
    """Where quad must split [lo, hi] for an integrand rho(|u - centre|): the
    kink at the centre, the taper range and where the base falls off (1 to
    64 scales), so that a base much narrower than the interval is resolved."""
    offsets = [0.0] + [f * model.base_scale * 4.0 ** j for j in range(4) for f in (-1, 1)]
    if model.taper_range is not None:
        offsets += [-model.taper_range, model.taper_range]
    return sorted({p for p in [centre + o for o in offsets] + list(more) if lo < p < hi}) or None


def _too_narrow(lo: float, hi: float) -> bool:
    """Whether quad cannot be trusted to integrate over [lo, hi]: QUADPACK
    refuses to bisect a range within about 100 ulps of its ends, or 1000
    smallest normals wide ("extremely bad integrand behavior"), which an
    interval with a subnormal bound can ask for.  A range under 1e-12 of its
    magnitude (or 1e-12) is taken to be such."""
    return hi - lo <= 1e-12 * max(1.0, abs(lo), abs(hi))


def quad_interval_point(model, x: float, lo: float, hi: float) -> float:
    """int_lo^hi rho(|x - u|) du; over a range too narrow for quad, the
    midpoint rule, off by at most (hi - lo)^2 max|rho'| / 2."""
    if _too_narrow(lo, hi):
        return (hi - lo) * model.eval(abs(x - 0.5 * (lo + hi)))
    return quad(lambda u: model.eval(abs(x - u)), lo, hi, points=_breakpoints(model, x, lo, hi),
                limit=200, epsabs=QUAD_TOL, epsrel=QUAD_TOL)[0]


def quad_interval_interval(model, lo1: float, hi1: float, lo2: float, hi2: float) -> float:
    """Double integral of rho(|u - v|) over [lo1, hi1] x [lo2, hi2], as one lag
    integral: int rho(|t|) overlap(t) dt, where overlap(t) is the length of
    [lo1, hi1] meeting [lo2 + t, hi2 + t].  Over a lag range too narrow for
    quad, rho at the midpoints' lag times int overlap = the two lengths' product,
    off by at most that product times (b - a) max|rho'|."""
    a, b = lo1 - hi2, hi1 - lo2
    if _too_narrow(a, b):
        return (hi1 - lo1) * (hi2 - lo2) * model.eval(abs(0.5 * (lo1 + hi1) - 0.5 * (lo2 + hi2)))

    def integrand(t):
        w = min(hi1, hi2 + t) - max(lo1, lo2 + t)
        return model.eval(abs(t)) * w if w > 0.0 else 0.0

    return quad(integrand, a, b, points=_breakpoints(model, 0.0, a, b, lo1 - lo2, hi1 - hi2),
                limit=200, epsabs=QUAD_TOL, epsrel=QUAD_TOL)[0]


def spot_check_nonneg_definite(model, trials: int, n: int, rng_seed: int, dim: int = 2) -> bool:
    """Empirical non-negative-definiteness check.

    Draws ``n`` uniform locations in the unit box for each of ``trials``
    seeded trials, forms the n-by-n correlation matrix and returns True iff
    every minimum eigenvalue is >= -1e-8.  ``model`` may be a
    ``CorrelationModel`` or any callable mapping distance to correlation.
    """
    if trials < 1 or n < 1:
        raise ValueError("trials and n must be >= 1")
    fn = model.eval if isinstance(model, CorrelationModel) else model
    rng = np.random.default_rng(rng_seed)
    for _ in range(trials):
        pts = rng.random((n, dim))
        mat = np.asarray(fn(cdist(pts, pts)))
        if np.linalg.eigvalsh(mat).min() < -1e-8:
            return False
    return True


def kriging_predict(obs_set, model, mu: float, sigma2: float, x, assembled=None):
    """Pointwise best-linear-unbiased prediction and variance at ``x``.

    Solves for a per-location weight vector with a plain dense LU solve,
    independent of the kernel predictor's factorization path.  ``assembled``
    optionally reuses a precomputed inter-correlation matrix when querying
    many locations.
    """
    if obs_set.m == 0:
        return mu, sigma2
    mat = assembled if assembled is not None else assemble(obs_set, model, sigma2)
    dense = mat.to_dense()
    nu = kernel_vector(obs_set, x, model)
    alpha_x = np.linalg.solve(dense, nu)
    pred = mu + float(alpha_x @ (obs_set.values() - mu * obs_set.mean_image()))
    var = sigma2 * (1.0 - float(alpha_x @ dense @ alpha_x))
    return pred, var


def from_dense(dense) -> SparseSymmetric:
    """The :class:`SparseSymmetric` of a square array's lower triangle."""
    dense = np.asarray(dense, dtype=float)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
        raise ValueError("dense input must be square")
    return SparseSymmetric(sp.csr_matrix(np.tril(dense)))


def full_view(a: SparseSymmetric) -> sp.csr_matrix:
    """scipy's full view of a :class:`SparseSymmetric`, L + strict(L)' of its
    stored lower triangle L."""
    rows, cols, vals = a.lower_entries()
    lower = sp.csr_matrix((vals, (rows, cols)), shape=(a.order, a.order))
    return (lower + sp.tril(lower, -1).T).tocsr()


def reconstruct(factor) -> np.ndarray:
    """The matrix a :class:`CholeskyFactor` factors, ``L L'`` in the original
    order, from its dense or band storage."""
    low = factor.lower
    if factor.storage == "band":
        m = factor.order
        low = sp.diags([low[k, :m - k] for k in range(low.shape[0])],
                       -np.arange(low.shape[0]), shape=(m, m)).toarray()
    inv_perm = np.argsort(factor.perm)
    return (low @ low.T)[np.ix_(inv_perm, inv_perm)]


def approximate_inverse_lower(S: SparseSymmetric, locations, delta: float) -> sp.csr_matrix:
    """The lower triangle of the approximate inverse of ``S``, by scipy: row i
    of the support matrix is the center row of the inverse of the dense
    sub-matrix over the sites closer than ``delta`` to site i (squared
    distances against ``delta**2``, found by brute force; each sub-matrix
    inverted alone by the package's LAPACK call, so a row's bits are the
    package's), assembled from triplets; then ``(Psi + Psi') * 0.5``, its
    lower half, and its exact zeros dropped."""
    dense, pts = S.to_dense(), np.asarray(locations, dtype=float)
    rows, cols, vals = [], [], []
    for i in range(S.order):
        idx = np.flatnonzero(((pts - pts[i]) ** 2).sum(axis=1) < delta * delta)
        sub = dense[np.ix_(idx, idx)][None]
        vals.append(dense_spd_inverse(sub, [i], [np.searchsorted(idx, i)])[0])
        rows.append(np.full(idx.size, i))
        cols.append(idx)
    psi = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                        shape=(S.order, S.order))
    lower = sp.tril((psi + psi.T) * 0.5, format="csr")
    lower.eliminate_zeros()
    lower.sort_indices()
    return lower


def bounded_brent(f, lo: float, hi: float, xatol: float, maxiter: int):
    """scipy's bounded Brent search (``minimize_scalar(method="bounded")``)
    for the least ``f`` in [lo, hi]: its answer and the points it evaluated,
    in order.  Its parabolic steps subtract infinite values of ``f``."""
    points = []

    def recorded(x):
        points.append(float(x))
        return f(x)

    with np.errstate(invalid="ignore"):
        result = minimize_scalar(recorded, bounds=(lo, hi), method="bounded",
                                 options={"xatol": xatol, "maxiter": maxiter})
    return float(result.x), points
