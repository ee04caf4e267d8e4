"""Batch command-line interface.

Subcommands:

* ``fit``       -- ingest an observation CSV and a model JSON, fit the global
  or localized predictor, save it as JSON and print a run summary.
* ``grid``      -- rasterize a saved predictor over a regular grid to CSV.
* ``infer``     -- estimate mean/variance (and optionally the range) and
  print the result as JSON.
* ``example-a`` -- fit the built-in 1D three-operator demonstration set and
  print its weights.
* ``synth``     -- generate a seeded synthetic observation CSV.

A saved predictor is JSON with ``format`` "kernelfield-predictor" and
``version`` 5 (other versions exit 2): ``mode``, ``model``, ``dim``,
``weights`` (JSON numbers), ``observations`` and, for a localized predictor,
``localized``, whose ``psi_lower`` holds Psi's nonzero lower triangle in CSR
order as JSON lists ``rows``, ``cols`` and ``vals``, read back in that one
form.  The observation columns are binary arrays, after NumPy's
``.npy`` header (NEP 1): ``{"dtype": ..., "shape": [...], "data": <base64 of
the C-order bytes>}``: ``kind`` (``"|i1"`` codes of
:data:`obsmodel.KIND_CODES`), ``value`` and ``error_var`` (``"<f8"``, shape
(m,)), and ``site``, ``direction`` and ``bounds`` (``"<f8"``, shape (width,
rows): one row per coordinate over the rows of the kinds that have them).  A
global file stores no factor: loading makes it by the fit's own call
(:func:`inference.level_factor`), so a change to the order rule of
:func:`linalg.analyse` changes the factor a file loads into and bumps the file
version.

Exit codes: 0 success, 2 input error, 3 numerical failure.
"""

import argparse
import base64
import dataclasses
import functools
import json
import math
import sys
import time
from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import corrfn, inference, obsmodel
from .errors import (ConfigError, EstimationError, FactorizationError,
                     ObservationParseError, UnsupportedOperatorError)
from .linalg import CholeskyFactor, SparseSymmetric
from .localized import fit_localized
from .obsmodel import KIND_CODES, ObservationSet, read_observations_csv
from .predictor import GridSpec, KernelPredictor, _check_levels, fit_global, rasterize

PREDICTOR_FORMAT = "kernelfield-predictor"
PREDICTOR_VERSION = 5


def _load_model_file(path):
    """The model of a model file and its levels, None for "estimate"."""
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    model, *levels = corrfn.parse_model_config(cfg)
    return (model, *(None if spec == "estimate" else float(spec) for spec in levels))


def _check_counts(args):
    """ConfigError unless ``--k`` (at most ``sys.maxsize``, as a predictor file's
    k) and ``--workers`` are positive."""
    if not 1 <= args.k <= sys.maxsize:
        raise ConfigError(f"k must be a positive integer no larger than {sys.maxsize}")
    if args.workers < 1:
        raise ConfigError("--workers must be a positive integer")


# -- predictor (de)serialization --------------------------------------------

def _kind_rows(kinds) -> dict:  # the rows of each per-kind column of a predictor file
    avg = kinds == KIND_CODES[obsmodel.AVG]
    return {"site": ~avg, "direction": kinds == KIND_CODES[obsmodel.DERIV], "bounds": avg}


_ITEMSIZES = {"|i1": 1, "<f8": 8}  # of the dtypes a predictor file stores


def _encode(a: np.ndarray, dtype: str) -> dict:
    """``a`` as a binary array of a predictor file: its dtype string, its shape
    and the base64 of its C-order bytes in that dtype."""
    a = np.ascontiguousarray(a, dtype=dtype)
    return {"dtype": dtype, "shape": list(a.shape),
            "data": base64.b64encode(a.data).decode("ascii")}


def _decode(doc, name: str, dtype: str, shape: Optional[tuple] = None) -> np.ndarray:
    """The read-only array of an :func:`_encode` object ``doc`` (ValueError
    naming ``name`` unless its dtype string is ``dtype``, its shape a list of
    non-negative JSON integers, equal to ``shape`` if given, and its data
    strict base64 of exactly the bytes that shape holds)."""
    if not isinstance(doc, dict) or doc.get("dtype") != dtype:
        raise ValueError(f"{name} must be an array object of dtype {dtype!r}")
    dims, data = doc.get("shape"), doc.get("data")
    if not isinstance(dims, list) or any(type(n) is not int or n < 0 for n in dims):
        raise ValueError(f"{name}.shape must be a list of non-negative JSON integers")
    if shape is not None and tuple(dims) != shape:
        raise ValueError(f"{name} of shape {tuple(dims)}, expected {shape}")
    if not isinstance(data, str):
        raise ValueError(f"{name}.data must be a base64 string")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError:  # binascii.Error, or a character beyond ASCII
        raise ValueError(f"{name}.data is not valid base64") from None
    if len(raw) != _ITEMSIZES[dtype] * math.prod(dims):
        raise ValueError(f"{name} holds {len(raw)} bytes, not the {dtype} bytes of shape "
                         f"{tuple(dims)}")
    return np.frombuffer(raw, dtype=dtype).reshape(dims)


def _observation_columns(obs: ObservationSet) -> dict:
    """The observations as binary columns; ``site``, ``direction`` and
    ``bounds`` hold one row per coordinate over the rows of the kinds that
    have them."""
    full = {"site": obs.rep_points(), "direction": obs.directions, "bounds": obs.bounds}
    return {"kind": _encode(obs.kinds, "|i1"), "value": _encode(obs.values(), "<f8"),
            "error_var": _encode(obs.error_vars(), "<f8"),
            **{name: _encode(full[name][rows].T, "<f8")
               for name, rows in _kind_rows(obs.kinds).items()}}


def _json_numbers(a, name: str, kinds: str = "fiu") -> np.ndarray:
    """``a`` as the array ``np.asarray`` makes of it, whose dtype kind must be
    one of ``kinds`` unless it is empty, and whose values must be finite
    (ValueError naming ``name``): the check of the predictor file's lists of
    JSON numbers, ``weights`` and Psi's ``rows``, ``cols`` and ``vals``.

    One check of the whole array, with no loop over its elements, refuses
    strings (``U``), nulls and integers beyond 64 bits (``O``) and lists of
    booleans (``b``); a boolean among numbers converts to 0 or 1, as numpy
    converts it.  Python's ``json`` reads ``NaN`` and ``Infinity``, which
    the finiteness check refuses.
    """
    try:
        arr = np.asarray(a)
    except ValueError:  # a ragged nesting of lists
        raise ValueError(f"{name} must be a rectangular list of JSON numbers") from None
    if arr.size and arr.dtype.kind not in kinds:
        what = "JSON integers" if kinds == "iu" else "JSON numbers"
        raise ValueError(f"{name} must hold {what}, got {arr.dtype} values")
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise ValueError(f"{name} must hold finite numbers")
    return arr


def _observations_from_columns(path, doc) -> ObservationSet:
    """The observation set of a predictor file (ConfigError if malformed)."""
    try:
        cols, dim = doc["observations"], doc["dim"]
        kinds = _decode(cols["kind"], "observations.kind", "|i1")
        if kinds.ndim != 1:
            raise ValueError(f"observations.kind of shape {kinds.shape}, expected (m,)")
        kind_rows = _kind_rows(kinds)  # a deriv or avg row is 1D: checked before (m, dim) arrays
        if dim != 1 and (kind_rows["direction"] | kind_rows["bounds"]).any():
            raise ValueError(f"dim {dim!r}: deriv and avg observations are 1D only")
        m, full = kinds.size, {}
        for (name, rows), width in zip(kind_rows.items(), (dim, dim, 2)):
            given = _decode(cols[name], f"observations.{name}", "<f8", (width, int(rows.sum())))
            full[name] = np.zeros((m, width))
            full[name][rows] = given.T
        return ObservationSet(kinds, full["site"],
                              *(_decode(cols[name], f"observations.{name}", "<f8", (m,))
                                for name in ("value", "error_var")),
                              full["direction"], full["bounds"], dim)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed observation columns ({exc})") from None


def save_predictor(path, fitted: KernelPredictor):
    """Persist a fitted global or localized predictor as JSON."""
    doc = {
        "format": PREDICTOR_FORMAT,
        "version": PREDICTOR_VERSION,
        "mode": fitted.mode,
        "model": corrfn.model_config(fitted.model, fitted.mu, fitted.sigma2),
        "dim": fitted.obs.dim,
        "observations": _observation_columns(fitted.obs),
        "weights": fitted.weights.tolist(),
    }
    if fitted.mode == "localized":
        rows, cols, vals = fitted.inverse.lower_entries()
        doc["localized"] = {
            "k": fitted.k,
            "delta": fitted.delta,
            "deviation_var": fitted.deviation_var,
            "psi_lower": {
                "order": fitted.inverse.order,
                "rows": rows.tolist(),
                "cols": cols.tolist(),
                "vals": vals.tolist(),
            },
        }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc) + "\n")


def load_predictor(path) -> KernelPredictor:
    """Load a fitted predictor saved by :func:`save_predictor`.

    A global predictor's matrix and factor are made by the fit's own call,
    :func:`~.inference.level_factor`, from the observation columns, which
    round-trip bit for bit, so the loaded factor equals the fitted one byte
    for byte.  Weights and parameters are taken verbatim from the file, after
    a check that the weights solve that system to round-off (a matrix that
    does not factor fails first, with exit 3).  Localized weights are checked
    to equal the saved approximate inverse applied to the residuals of the
    observations, to round-off; their ``k`` must be a positive integer and
    their ``delta`` equal ``k * taper_range`` as the fit computes it.  Their
    ``psi_lower`` is read as the CSR lower triangle that this module saves
    (:func:`_read_psi`): ``order`` the JSON integer m, ``rows`` and ``cols``
    JSON integers in ``[0, order)`` and ``vals`` JSON numbers, three flat
    lists of one length whose entries lie in the lower triangle, in strictly
    increasing CSR order, each nonzero.  ``weights`` and Psi's ``vals`` must
    hold finite JSON numbers: a list that numpy reads as strings, nulls,
    integers beyond 64 bits or booleans is refused, with one dtype check per
    list, and so is ``NaN`` or ``Infinity``.  Each binary observation column
    must carry exactly its dtype string, a shape list of non-negative JSON
    integers that fits the file's m and kinds, and strict base64 of exactly
    the bytes of that shape; its values are then checked as a fit's are
    (:class:`ObservationSet` refuses an unknown kind code, a non-finite site,
    value or error variance, a bad interval and a bad direction).  The
    model's ``mu`` must be finite and its ``sigma2`` positive and finite, as
    a fit checks them, and ``dim`` a positive JSON integer.  A missing
    top-level field, a model number that is not a JSON number, or any other
    malformed content is a :class:`ConfigError` naming it.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != PREDICTOR_FORMAT:
        raise ConfigError(f"{path}: not a saved predictor file")
    if doc.get("version") != PREDICTOR_VERSION:
        raise ConfigError(f"{path}: predictor file version {doc.get('version')!r} is not "
                          f"the supported version {PREDICTOR_VERSION}")
    mode, loc = doc.get("mode"), doc.get("localized")
    if mode not in ("global", "localized"):
        raise ConfigError(f"{path}: mode must be global or localized, got {mode!r}")
    if mode == "localized" and not isinstance(loc, dict):
        raise ConfigError(f"{path}: a localized predictor needs its 'localized' block")
    missing = [field for field in ("model", "dim", "weights", "observations")
               if field not in doc]
    if missing:
        raise ConfigError(f"{path}: missing field {missing[0]!r}")
    try:
        model, mu, sigma2 = corrfn.parse_model_config(doc["model"])
    except ConfigError as exc:
        raise ConfigError(f"{path}: model: {exc}") from None
    if mu == "estimate" or sigma2 == "estimate":
        raise ConfigError(f"{path}: saved predictor must carry numeric mu and sigma2")
    try:
        _check_levels(mu, sigma2)
    except ValueError as exc:  # "mu must be ..." or "sigma2 must be ..."
        raise ConfigError(f"{path}: model.{exc}") from None
    if type(doc["dim"]) is not int or not 1 <= doc["dim"] <= sys.maxsize:  # as k: not a bool
        raise ConfigError(f"{path}: dim must be a positive JSON integer, got {doc['dim']!r}")
    obs = _observations_from_columns(path, doc)
    try:
        weights = _json_numbers(doc["weights"], "weights").astype(float)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if weights.shape != (obs.m,):
        raise ConfigError(f"{path}: {weights.size} weights for {obs.m} observations")
    if mode == "global":
        if obs.m == 0:
            return KernelPredictor(model, obs, mu, sigma2, weights, None)
        matrix, factor = inference.level_factor(obs, model, sigma2)
        _check_weights(path, matrix, weights, obs.values() - mu * obs.mean_image(),
                       "the weights do not solve the system of the saved observations")
        return KernelPredictor(model, obs, mu, sigma2, weights, factor, matrix)
    deviation_var = loc.get("deviation_var")  # not a bool, NaN, inf or a huge int
    if (type(deviation_var) not in (int, float)
            or not 0.0 <= deviation_var <= sys.float_info.max):
        raise ConfigError(f"{path}: localized.deviation_var must be a finite real >= 0, "
                          f"got {deviation_var!r}")
    k, delta = loc.get("k"), loc.get("delta")  # k not a bool, a float or a huge int
    if type(k) is not int or not 1 <= k <= sys.maxsize:
        raise ConfigError(f"{path}: localized.k must be a positive integer, got {k!r}")
    if (model.taper_range is None or type(delta) not in (int, float)
            or delta != float(k) * model.taper_range):
        raise ConfigError(f"{path}: localized.delta must be k * taper_range, got {delta!r}")
    psi = _read_psi(path, loc, obs.m)
    if obs.m:
        _check_weights(path, psi, obs.values() - mu * obs.mean_image(), weights,
                       "the weights are not the approximate inverse applied to the "
                       "residuals of the saved observations")
    return KernelPredictor(model, obs, mu, sigma2, weights, psi, deviation_var=deviation_var, k=k)


def _read_psi(path, loc: dict, m: int) -> SparseSymmetric:
    """The approximate inverse of a localized file's ``psi_lower`` block, read
    as the CSR lower triangle :func:`save_predictor` writes: an object whose
    ``order`` is the JSON integer m and whose ``rows``, ``cols`` (JSON
    integers in ``[0, order)``) and ``vals`` (finite JSON numbers) are flat
    lists of one length, each entry in the lower triangle (col <= row), its
    key ``row * m + col`` above the one before and its value nonzero.  A
    violation is a ConfigError naming the field (and the first bad entry)."""
    field = "localized.psi_lower"
    if "psi_lower" not in loc:
        raise ConfigError(f"{path}: missing field '{field}'")
    psi_doc = loc["psi_lower"]
    if not isinstance(psi_doc, dict):
        raise ConfigError(f"{path}: {field} must be an object with order, rows, cols and "
                          f"vals, got {type(psi_doc).__name__}")
    missing = [key for key in ("order", "rows", "cols", "vals") if key not in psi_doc]
    if missing:
        raise ConfigError(f"{path}: missing field '{field}.{missing[0]}'")
    order = psi_doc["order"]
    if type(order) is not int or order != m:  # not a bool, a float or a string
        raise ConfigError(f"{path}: approximate inverse of order {order!r} for {m} "
                          f"observations ({field}.order must be the JSON integer {m})")
    entries = {}
    try:
        for key, kinds in (("rows", "iu"), ("cols", "iu"), ("vals", "fiu")):
            entries[key] = _json_numbers(psi_doc[key], f"{field}.{key}", kinds)
            if entries[key].ndim != 1 or entries[key].size != entries["rows"].size:
                raise ValueError(f"{field}.{key} must be a flat list as long as "
                                 f"{field}.rows")
            if kinds == "iu" and entries[key].size and not (
                    0 <= entries[key].min() and entries[key].max() < m):
                raise ValueError(f"{field}.{key} must hold indices in [0, {m})")
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    rows, cols = entries["rows"].astype(np.int64), entries["cols"].astype(np.int64)
    vals, keys = entries["vals"].astype(float), rows * m + cols
    bad = (cols > rows) | (vals == 0.0)
    bad[1:] |= keys[1:] <= keys[:-1]  # a repeat, in either triangle, or a swap
    if bad.any():
        k = int(bad.argmax())
        entry = f"({rows[k]}, {cols[k]}, {float(vals[k])!r})"
        raise ConfigError(f"{path}: {field}: entry {k} {entry} is not the next nonzero entry "
                          f"of a lower triangle in CSR order")
    indptr = np.searchsorted(rows, np.arange(m + 1))
    return SparseSymmetric(sp.csr_matrix((vals, cols, indptr), shape=(m, m)))


def _check_weights(path, matrix: SparseSymmetric, x: np.ndarray, b: np.ndarray,
                   refusal: str):
    """Refuse with ``refusal`` unless ``matrix @ x`` reproduces ``b`` to round-off.

    The residual ``||b - M x||`` must stay below ``m * (eps * (||M|| ||x|| +
    ||b||) + tiny)`` (infinity norms; ``tiny``, the smallest normal number,
    covers underflow), which bounds the backward error of a Cholesky solve
    and the rounding error of a product.  A fresh global solve is not
    compared instead: on an ill-conditioned matrix it may differ from weights
    saved under another BLAS by far more than eps, while both solve the
    system to round-off.  ``M x`` and the row sums of ``|M|`` are products
    with the stored lower triangle, so loading builds no full view of M.
    """
    m = matrix.order
    mx, row_abs = matrix.matvec_and_abs_row_sums(x)
    residual = float(np.abs(b - mx).max())
    scale = row_abs.max() * np.abs(x).max() + np.abs(b).max()
    if not residual <= m * (np.finfo(float).eps * scale + np.finfo(float).tiny):
        raise ConfigError(f"{path}: {refusal} (residual {residual:.3g})")


def _write_raster_csv(path, table: np.ndarray, dim: int):
    """A :func:`rasterize` table as CSV: the coordinates, then ``prediction``,
    ``variance`` and, for a localized predictor, ``adjusted_variance``."""
    cols = [f"x{k + 1}" for k in range(dim)]
    cols += ["prediction", "variance", "adjusted_variance"][:table.shape[1] - dim]
    lines = [",".join(cols)] + [",".join(map(repr, row)) for row in table.tolist()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# -- fit -----------------------------------------------------------------

def _matrix_stats(mat: Optional[SparseSymmetric],
                  factor: Optional[CholeskyFactor] = None) -> Optional[dict]:
    if mat is None:
        return None
    stats = {
        "order": mat.order,
        "nnz_lower": mat.nnz_lower,
        "density": mat.density(),
        "max_row_nnz": mat.max_row_nnz(),
    }
    if factor is not None:
        stats.update(bandwidth=factor.bandwidth, factor_storage=factor.storage,
                     min_pivot=factor.min_pivot())
    return stats


def cmd_fit(args) -> int:
    model, mu, sigma2 = _load_model_file(args.model)
    _check_counts(args)
    t0 = time.perf_counter()
    obs = read_observations_csv(args.obs)
    t_read = time.perf_counter()
    summary = {"command": "fit", "mode": args.mode, "m": obs.m, "dim": obs.dim}

    if args.mode == "global":
        fitted = fit_global(obs, model, mu, sigma2)
    else:
        fitted = fit_localized(obs, model, args.k, mu=mu, sigma2=sigma2, workers=args.workers)
    psi = fitted.inverse if fitted.mode == "localized" else None
    summary.update(mu=fitted.mu, sigma2=fitted.sigma2, deviation_var=fitted.deviation_var,
                   k=fitted.k, delta=fitted.delta,
                   matrix=_matrix_stats(fitted.matrix, fitted.inverse if psi is None else None),
                   approx_inverse=_matrix_stats(psi), neighborhood_sizes=_neighborhood_sizes(psi),
                   negative_variance_at_obs=fitted.negative_variance_at_obs)
    t_fit = time.perf_counter()
    if args.out:
        save_predictor(args.out, fitted)
    t_save = time.perf_counter()
    summary["timing_s"] = {"read": t_read - t0, "fit": t_fit - t_read, "save": t_save - t_fit,
                           "total": t_save - t0}
    summary["outputs"] = {"predictor": args.out}
    _emit(summary, args.summary)
    return 0


def _neighborhood_sizes(psi: Optional[SparseSymmetric]) -> Optional[dict]:
    if psi is None or psi.order == 0:
        return None
    counts = psi._row_nnz()
    return {"min": int(counts.min()), "mean": float(counts.mean()), "max": int(counts.max())}


def _emit(doc: dict, path: Optional[str]):
    text = json.dumps(doc, indent=2)
    print(text)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")


# -- grid ------------------------------------------------------------------

def cmd_grid(args) -> int:
    fitted = load_predictor(args.predictor)
    _write_raster_csv(args.out, rasterize(fitted, GridSpec.parse(args.grid)), fitted.dim)
    return 0


# -- infer -------------------------------------------------------------------

def _parse_pair(text: str):
    """``"lo,hi"`` as two floats; (nan, nan) unless it is exactly two numbers."""
    try:
        lo, hi = (float(v) for v in text.split(","))
    except ValueError:
        return math.nan, math.nan
    return lo, hi


def _parse_eta_bounds(text: str):
    lo, hi = _parse_pair(text)
    if not 0.0 < lo < hi < math.inf:
        raise ConfigError(f"--eta-bounds must be lo,hi with 0 < lo < hi < inf, got {text!r}")
    return lo, hi


def cmd_infer(args) -> int:
    """Print mu, sigma2 and the profiled NLL (and the range, with ``--eta-bounds``).

    ``--mode localized`` prints the levels of the localized fit with
    ``nll: null``: that mode exists to avoid a global factor, and the
    likelihood needs one.
    """
    model = _load_model_file(args.model)[0]
    _check_counts(args)
    eta_bounds = _parse_eta_bounds(args.eta_bounds) if args.eta_bounds is not None else None
    if eta_bounds is not None and args.mode == "localized":
        raise ConfigError("--eta-bounds (a range search) needs --mode global")
    obs = read_observations_csv(args.obs)

    if args.mode == "localized":  # which refuses an untapered model and an empty set
        fit = fit_localized(obs, model, args.k, workers=args.workers)
        result = inference.MleResult(fit.mu, fit.sigma2)
    elif obs.m == 0:
        raise EstimationError("cannot infer parameters from an empty observation set")
    elif eta_bounds is not None:
        def family(eta):
            return corrfn.CorrelationModel(model.base_kind, eta, model.taper_range)
        result = inference.estimate_joint(obs, family, eta_bounds)
    else:
        mu, sigma2, nll = inference.profile_levels(obs, model)
        result = inference.MleResult(mu, sigma2, nll=nll)

    _emit(dataclasses.asdict(result), args.out)
    return 0


# -- example-a ----------------------------------------------------------------

def demo_observation_set(values=(1.0, 0.0, 2.0)) -> ObservationSet:
    """The built-in 1D demonstration set: a point value at 0, a derivative
    at -5, and an interval integral over [5, 6]."""
    if len(values) != 3:
        raise ConfigError("example-a needs exactly three observed values")
    kinds = [KIND_CODES[k] for k in (obsmodel.POINT, obsmodel.DERIV, obsmodel.AVG)]
    nan = math.nan
    return ObservationSet(kinds, [[0.0], [-5.0], [nan]], values, np.zeros(3),
                          [[0.0], [1.0], [0.0]], [[nan, nan], [nan, nan], [5.0, 6.0]])


def cmd_example_a(args) -> int:
    rng_param = float(args.range)
    if rng_param <= 0.0:
        raise ConfigError("range must be positive")
    try:
        values = [float(v) for v in args.values.split(",")]
    except ValueError:
        raise ConfigError(f"--values must be comma-separated numbers: {args.values!r}") from None
    obs = demo_observation_set(values)
    model = corrfn.CorrelationModel("matern52", rng_param)
    fitted = fit_global(obs, model, mu=0.0, sigma2=1.0)
    out = {"range": rng_param, "values": values,
           "weights": [float(w) for w in fitted.weights]}
    raster_path = None
    if args.out_prefix:
        grid = GridSpec.parse(f"-10,10,{args.nodes}")
        raster_path = f"{args.out_prefix}_raster.csv"
        _write_raster_csv(raster_path, rasterize(fitted, grid), 1)
    out["raster"] = raster_path
    print(json.dumps(out, indent=2))
    return 0


# -- synth ---------------------------------------------------------------------

def synthetic_observations(m: int, bounds, seed: int) -> ObservationSet:
    """Seeded synthetic point observations: uniform locations in a box with
    values from a fixed random-phase cosine mixture (smooth, deterministic)."""
    if m < 1:
        raise ConfigError("m must be >= 1")
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    q = len(bounds)
    rng = np.random.default_rng(seed)
    lows = np.array([b[0] for b in bounds])
    highs = np.array([b[1] for b in bounds])
    pts = rng.uniform(lows, highs, size=(m, q))
    n_waves = 8
    amps = rng.normal(0.0, 1.0, n_waves)
    freqs = rng.uniform(0.4, 1.6, size=(n_waves, q)) * rng.choice([-1.0, 1.0], size=(n_waves, q))
    phases = rng.uniform(0.0, 2.0 * np.pi, n_waves)
    vals = 10.0 + (amps[None, :] * np.cos(pts @ freqs.T + phases[None, :])).sum(axis=1)
    return ObservationSet(np.zeros(m, dtype=np.int8), pts, vals, np.zeros(m))


def _parse_bounds(text: str):
    out = []
    for part in text.split(";"):
        lo, hi = _parse_pair(part)
        if not -math.inf < lo < hi < math.inf:
            raise ConfigError(f"--bounds axis {part!r} must be lo,hi with finite lo < hi")
        out.append((lo, hi))
    return out


def cmd_synth(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
    bounds = _parse_bounds(args.bounds)
    obs = synthetic_observations(args.m, bounds, args.seed)
    obsmodel.write_observations_csv(args.out, obs)
    print(json.dumps({"m": obs.m, "dim": obs.dim, "seed": args.seed, "out": args.out}))
    return 0


# -- parser ----------------------------------------------------------------

@functools.cache  # built once per process: parsing leaves a parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kernelfield",
        description="Grid-free spatial prediction for stationary Gaussian random fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a predictor from an observation CSV")
    p_fit.add_argument("--obs", required=True, help="observation CSV path")
    p_fit.add_argument("--model", required=True, help="model config JSON path")
    p_fit.add_argument("--mode", choices=["global", "localized"], default="global")
    p_fit.add_argument("--k", type=int, default=2,
                       help="localization neighborhoods reach k * taper_range (default 2)")
    p_fit.add_argument("--out", required=True, help="output predictor JSON path")
    p_fit.add_argument("--summary", help="also write the run summary JSON here")
    p_fit.add_argument("--workers", type=int, default=1,
                       help="threads that gather the localized fit's neighborhood "
                            "sub-matrices (the inversions run one at a time)")
    p_fit.set_defaults(func=cmd_fit)

    p_grid = sub.add_parser("grid", help="rasterize a saved predictor")
    p_grid.add_argument("--predictor", required=True)
    p_grid.add_argument("--grid", required=True, help='"min,max,count[;min,max,count]"')
    p_grid.add_argument("--out", required=True, help="output raster CSV path")
    p_grid.set_defaults(func=cmd_grid)

    p_inf = sub.add_parser("infer", help="estimate model parameters")
    p_inf.add_argument("--obs", required=True)
    p_inf.add_argument("--model", required=True)
    p_inf.add_argument("--mode", choices=["global", "localized"], default="global",
                       help="global: GLS levels and NLL from one factor; localized: the "
                            "localized fit's levels with nll null (no global factor)")
    p_inf.add_argument("--k", type=int, default=2)
    p_inf.add_argument("--eta-bounds", dest="eta_bounds",
                       help='"lo,hi" search bracket for the base scale')
    p_inf.add_argument("--out", help="also write the result JSON here")
    p_inf.add_argument("--workers", type=int, default=1)
    p_inf.set_defaults(func=cmd_infer)

    p_ex = sub.add_parser("example-a", help="fit the built-in 1D demonstration set")
    p_ex.add_argument("--range", type=float, default=1.0)
    p_ex.add_argument("--values", default="1,0,2")
    p_ex.add_argument("--out-prefix", dest="out_prefix", default="example_a",
                      help="raster file prefix (empty string skips file output)")
    p_ex.add_argument("--nodes", type=int, default=2001)
    p_ex.set_defaults(func=cmd_example_a)

    p_syn = sub.add_parser("synth", help="generate a synthetic observation CSV")
    p_syn.add_argument("--m", type=int, required=True)
    p_syn.add_argument("--bounds", required=True, help='"lo,hi[;lo,hi[;lo,hi]]"')
    p_syn.add_argument("--seed", type=int, default=0)
    p_syn.add_argument("--out", required=True)
    p_syn.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(over="raise", invalid="raise"):  # exit 3, not a warning and a NaN
            return args.func(args)
    except (ObservationParseError, ConfigError, UnsupportedOperatorError, OSError,
            ValueError, KeyError) as exc:  # a JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FactorizationError, EstimationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FloatingPointError as exc:
        print(f"error: {exc}: an input number is too large to compute with", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
