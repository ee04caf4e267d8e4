"""Output checks against oracles computed here with numpy/scipy.

The oracles read the observation CSV and the program's output files
directly and rebuild every correlation in closed form, so they share no
code with kernelfield's obsmodel, predictor or linalg modules.  Only the
operators-1d reproduction check calls the library: it asks the loaded
predictor for each observed functional and compares with the data.

Each check returns ``(name, ok, detail)``.
"""

import csv
import json
import math

import numpy as np
import scipy.sparse as sp
from scipy.spatial.distance import cdist
from scipy.special import erf

from kernelfield import cli
from kernelfield import predictor as kp

# The predictor tests hold predictions and variances to this tolerance.
TOL = 1e-8
PSI_ROWS = 4  # rows of the approximate inverse checked per localized fit
POINT, DERIV, AVG = 0, 1, 2
_KIND_CODES = {"point": POINT, "deriv": DERIV, "avg": AVG}


# -- inputs and outputs ------------------------------------------------------

def read_functionals(path) -> dict:
    """Observation CSV as arrays: kind code, site x (n, dim), direction z,
    interval bounds lo/hi, observed value."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    dim = sum(1 for h in rows[0] if h.startswith("x"))
    body = [r for r in rows[1:] if r]
    kind = np.array([_KIND_CODES[r[dim]] for r in body])
    num = lambda col, empty: np.array([float(r[col]) if r[col] else empty for r in body])
    p1, p2 = num(dim + 3, 1.0), num(dim + 4, 0.0)
    return {
        "kind": kind,
        "x": np.array([[float(r[k]) for k in range(dim)] for r in body]),
        # A 1D direction is normalized to +-1; it defaults to +1.
        "z": np.where(kind == DERIV, np.sign(p1), 0.0),
        "lo": np.where(kind == AVG, p1, 0.0),
        "hi": np.where(kind == AVG, p2, 0.0),
        "value": num(dim + 1, 0.0),
    }


def point_functionals(nodes) -> dict:
    nodes = np.asarray(nodes, dtype=float)
    zeros = np.zeros(nodes.shape[0])
    return {"kind": np.zeros(nodes.shape[0], dtype=int), "x": nodes, "z": zeros,
            "lo": zeros, "hi": zeros}


def mean_image(f) -> np.ndarray:
    return np.select([f["kind"] == POINT, f["kind"] == AVG], [1.0, f["hi"] - f["lo"]], 0.0)


def read_raster(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


# -- correlations ------------------------------------------------------------

def correlation(d, model: dict) -> np.ndarray:
    """Base correlation times the optional spherical taper, at distances d."""
    kind, scale = model["base"]["kind"], float(model["base"]["scale"])
    if kind == "matern52":
        kd = math.sqrt(5.0) / scale * d
        rho = (1.0 + kd + kd * kd / 3.0) * np.exp(-kd)
    else:
        rho = np.exp(-(d / scale) ** 2)
    taper = model.get("taper_range")
    if taper is not None:
        u = d / float(taper)
        rho = rho * np.where(u < 1.0, (1.0 + 0.5 * u) * (1.0 - u) ** 2, 0.0)
    return rho


def covariance(a: dict, b: dict, model: dict) -> np.ndarray:
    """Unit-variance covariance between two sets of functionals.

    Point-only sets use any model; derivative and interval functionals are
    1D closed forms of the untapered gauss2 correlation g(t) = exp(-(t/s)^2).
    """
    if not (a["kind"] == POINT).all() or not (b["kind"] == POINT).all():
        return _gauss2_operator_cov(a, b, model)
    return correlation(cdist(a["x"], b["x"]), model)


def _gauss2_operator_cov(a, b, model):
    if model["base"]["kind"] != "gauss2" or model.get("taper_range") is not None:
        raise ValueError("operator oracle covers the untapered gauss2 model only")
    s = float(model["base"]["scale"])
    g = lambda t: np.exp(-(t / s) ** 2)
    F = lambda t: 0.5 * s * math.sqrt(math.pi) * erf(t / s)      # int_0^t g
    H = lambda t: t * F(t) + 0.5 * s * s * (g(t) - 1.0)          # int_0^t F
    ca, cb = a["x"][:, 0][:, None], b["x"][:, 0][None, :]
    za, zb = a["z"][:, None], b["z"][None, :]
    loa, hia = a["lo"][:, None], a["hi"][:, None]
    lob, hib = b["lo"][None, :], b["hi"][None, :]
    t = ca - cb
    gt = g(t)
    blocks = {
        (POINT, POINT): gt,
        (POINT, DERIV): zb * (2.0 * t / s**2) * gt,
        (DERIV, POINT): za * (-2.0 * t / s**2) * gt,
        (DERIV, DERIV): za * zb * (2.0 / s**2 - 4.0 * t * t / s**4) * gt,
        (POINT, AVG): F(ca - lob) - F(ca - hib),
        (AVG, POINT): F(cb - loa) - F(cb - hia),
        (DERIV, AVG): za * (g(ca - lob) - g(ca - hib)),
        (AVG, DERIV): zb * (g(cb - loa) - g(cb - hia)),
        (AVG, AVG): H(hia - lob) + H(loa - hib) - H(hia - hib) - H(loa - lob),
    }
    ka, kb = a["kind"][:, None], b["kind"][None, :]
    out = np.zeros((a["kind"].size, b["kind"].size))
    for (i, j), block in blocks.items():
        out = np.where((ka == i) & (kb == j), block, out)
    return out


# -- checks --------------------------------------------------------------------

def _max_abs(x) -> float:
    x = np.asarray(x, dtype=float)
    return float(np.max(np.abs(x))) if x.size else 0.0


def _within(name, err, tol):
    ok = bool(np.isfinite(err) and err <= tol)
    return name, ok, f"max error {err:.3g} (tolerance {tol:.0e})"


def _check_gls_levels(name, K, y, a, mu, s2):
    """mu and sigma2 against the generalized-least-squares estimates."""
    mu_o = float(a @ np.linalg.solve(K, y)) / float(a @ np.linalg.solve(K, a))
    r = y - mu_o * a
    s2_o = float(r @ np.linalg.solve(K, r)) / y.size
    return _within(name, max(abs(mu - mu_o) / max(1.0, abs(mu_o)), abs(s2 - s2_o) / s2_o), TOL)


def check_infer(obs: dict, model: dict, doc: dict, eta_bounds=None) -> list:
    """The reported NLL equals a direct evaluation at the reported
    (mu, sigma2, eta); without a range search, mu and sigma2 are the GLS
    estimates; with one, eta lies inside its bounds."""
    out = []
    if eta_bounds is not None:
        eta = doc["eta"]
        lo, hi = eta_bounds
        out.append(("infer.eta_in_bounds", eta is not None and lo <= eta <= hi,
                    f"eta {eta} in [{lo}, {hi}]"))
        model = dict(model, base={"kind": model["base"]["kind"], "scale": eta})
    K = covariance(obs, obs, model)
    y, a = obs["value"], mean_image(obs)
    mu, s2 = float(doc["mu"]), float(doc["sigma2"])
    if eta_bounds is None:
        out.append(_check_gls_levels("infer.gls_levels", K, y, a, mu, s2))
    r = y - mu * a
    sign, logdet = np.linalg.slogdet(K)
    nll = 0.5 * (y.size * math.log(2.0 * math.pi * s2) + logdet
                 + float(r @ np.linalg.solve(K, r)) / s2)
    err = abs(float(doc["nll"]) - nll) / max(1.0, abs(nll)) if sign > 0 else math.inf
    out.append(_within("infer.nll", err, TOL))
    return out


def check_global(obs: dict, predictor: dict, raster: np.ndarray, levels_estimated: bool) -> list:
    """Raster prediction and variance at every node against dense Kriging
    (cdist + np.linalg.solve); estimated levels against the GLS formulas."""
    out = []
    model = predictor["model"]
    mu, s2 = float(model["mu"]), float(model["sigma2"])
    K = covariance(obs, obs, model)
    y, a = obs["value"], mean_image(obs)
    if levels_estimated:
        out.append(_check_gls_levels("fit.gls_levels", K, y, a, mu, s2))
    dim = obs["x"].shape[1]
    nu = covariance(point_functionals(raster[:, :dim]), obs, model)
    alpha = np.linalg.solve(K, nu.T)
    pred = mu + alpha.T @ (y - mu * a)
    var = np.clip(s2 * (1.0 - np.einsum("nm,mn->n", nu, alpha)), 0.0, s2)
    out.append(_within("grid.prediction", _max_abs(raster[:, dim] - pred), TOL))
    out.append(_within("grid.variance", _max_abs(raster[:, dim + 1] - var), TOL))
    return out


def _psi(predictor) -> sp.csr_matrix:
    doc = predictor["localized"]["psi_lower"]
    lower = sp.coo_matrix((doc["vals"], (doc["rows"], doc["cols"])),
                          shape=(doc["order"], doc["order"])).tocsr()
    return (lower + sp.tril(lower, k=-1).T).tocsr()


def check_localized(obs: dict, predictor: dict, raster: np.ndarray, seed: int) -> list:
    """Localized raster and approximate inverse against their definitions.

    * prediction = mu* + sum_j w*_j rho(|x - x_j|) with the saved weights;
    * raw variance = sigma2* (1 - nu' Psi nu) with the saved Psi;
    * adjusted variance = max(raw + deviation_var, 0);
    * sampled rows of Psi = symmetrized centre rows of the dense inverses
      of the delta-neighbourhood blocks.
    """
    out = []
    model = predictor["model"]
    loc = predictor["localized"]
    mu, s2 = float(model["mu"]), float(model["sigma2"])
    w = np.asarray(predictor["weights"], dtype=float)
    psi = _psi(predictor)
    dim = obs["x"].shape[1]
    nu = covariance(point_functionals(raster[:, :dim]), obs, model)
    out.append(_within("grid.prediction", _max_abs(raster[:, dim] - (mu + nu @ w)), TOL))
    raw = s2 * (1.0 - np.einsum("nm,nm->n", np.asarray(nu @ psi), nu))
    out.append(_within("grid.raw_variance", _max_abs(raster[:, dim + 1] - raw), TOL))
    adjusted = np.maximum(raster[:, dim + 1] + float(loc["deviation_var"]), 0.0)
    out.append(_within("grid.adjusted_variance", _max_abs(raster[:, dim + 2] - adjusted), 1e-12))

    # Neighbourhoods use the strict |x_i - x_j| < delta on squared distances.
    x, delta = obs["x"], float(loc["delta"])
    m = x.shape[0]
    near = lambda i: np.flatnonzero(((x - x[i]) ** 2).sum(axis=1) < delta * delta)
    centre_rows = {}

    def centre_row(i):
        if i not in centre_rows:
            idx = near(i)
            block = covariance(point_functionals(x[idx]), point_functionals(x[idx]), model)
            centre_rows[i] = dict(zip(idx.tolist(),
                                      np.linalg.inv(block)[np.searchsorted(idx, i)]))
        return centre_rows[i]

    rng = np.random.default_rng(seed)
    err = 0.0
    for i in rng.choice(m, size=min(PSI_ROWS, m), replace=False):
        expect = np.zeros(m)
        for j, v in centre_row(int(i)).items():
            expect[j] = 0.5 * (v + centre_row(j)[int(i)])
        got = psi.getrow(int(i)).toarray().ravel()
        err = max(err, _max_abs(got - expect) / max(1.0, _max_abs(expect)))
    out.append(_within("fit.psi_rows", err, TOL))
    return out


def check_reproduction(obs: dict, predictor_path: str) -> list:
    """The loaded predictor reproduces every observed functional: point
    values, derivatives at deriv sites and integrals over avg intervals."""
    p = cli.load_predictor(predictor_path)
    got = []
    for kind, x, z, lo, hi in zip(obs["kind"], obs["x"][:, 0], obs["z"], obs["lo"], obs["hi"]):
        if kind == POINT:
            got.append(kp.predict(p, [x]))
        elif kind == DERIV:
            got.append(kp.predict_derivative(p, [x], direction=[z]))
        else:
            got.append(kp.predict_average(p, (lo, hi)) * (hi - lo))
    return [_within("fit.reproduces_observations", _max_abs(np.array(got) - obs["value"]), TOL)]
