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

Exit codes: 0 success, 2 input error, 3 numerical failure.
"""

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import corrfn, inference, obsmodel
from .errors import (ConfigError, EstimationError, FactorizationError,
                     ObservationParseError)
from .linalg import CholeskyFactor, SparseSymmetric, cholesky
from .localized import LocalizedFit, fit_localized, rasterize_localized
from .obsmodel import Observation, ObservationSet, assemble, read_observations_csv
from .predictor import GridSpec, KernelPredictor, fit_global, rasterize

PREDICTOR_FORMAT = "kernelfield-predictor"
PREDICTOR_VERSION = 1


@dataclass
class RunConfig:
    """Everything a fit/infer run needs, resolved from flags and the model file."""

    model: corrfn.CorrelationModel
    mu_spec: object  # float or "estimate"
    sigma2_spec: object
    obs_path: str
    mode: str = "global"
    k: int = 2
    out_path: Optional[str] = None
    summary_path: Optional[str] = None
    workers: int = 1

    def __post_init__(self):
        if self.mode not in ("global", "localized"):
            raise ConfigError(f"mode must be global or localized, got {self.mode!r}")
        if self.mode == "localized" and self.model.taper_range is None:
            raise ConfigError("localized mode requires a model with taper_range")
        if self.k < 1:
            raise ConfigError("k must be a positive integer")
        if self.workers < 1:
            raise ConfigError("--workers must be a positive integer")


def _load_model_file(path):
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return corrfn.parse_model_config(cfg)


def _config_from_args(args) -> RunConfig:
    model, mu_spec, sigma2_spec = _load_model_file(args.model)
    return RunConfig(
        model=model, mu_spec=mu_spec, sigma2_spec=sigma2_spec,
        obs_path=args.obs, mode=args.mode, k=args.k,
        out_path=getattr(args, "out", None),
        summary_path=getattr(args, "summary", None),
        workers=getattr(args, "workers", 1),
    )


# -- predictor (de)serialization --------------------------------------------

def _obs_to_json(o: Observation) -> dict:
    return {
        "kind": o.kind,
        "location": o.location.tolist(),
        "value": o.value,
        "error_var": o.error_var,
        "direction": None if o.direction is None else o.direction.tolist(),
    }


def _obs_from_json(rec: dict) -> Observation:
    return Observation(rec["kind"], np.array(rec["location"], dtype=float),
                       rec["value"], rec.get("error_var", 0.0),
                       None if rec.get("direction") is None
                       else np.array(rec["direction"], dtype=float))


def save_predictor(path, fitted):
    """Persist a fitted global or localized predictor as JSON."""
    if isinstance(fitted, LocalizedFit):
        mode, mu, sigma2 = "localized", fitted.mu_star, fitted.sigma2_star
        weights = fitted.weights_star
    else:
        mode, mu, sigma2 = "global", fitted.mu, fitted.sigma2
        weights = fitted.weights
    doc = {
        "format": PREDICTOR_FORMAT,
        "version": PREDICTOR_VERSION,
        "mode": mode,
        "model": corrfn.model_config(fitted.model, mu, sigma2),
        "dim": fitted.obs.dim,
        "observations": [_obs_to_json(o) for o in fitted.obs],
        "weights": weights.tolist(),
    }
    if isinstance(fitted, LocalizedFit):
        rows, cols, vals = fitted.approx_inverse.lower_entries()
        doc["localized"] = {
            "k": fitted.k,
            "delta": fitted.delta,
            "deviation_var": fitted.deviation_var,
            "psi_lower": {
                "order": fitted.approx_inverse.order,
                "rows": rows.tolist(),
                "cols": cols.tolist(),
                "vals": vals.tolist(),
            },
        }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc) + "\n")


def load_predictor(path):
    """Load a fitted predictor saved by :func:`save_predictor`.

    Global predictors reassemble and refactor the inter-correlation matrix
    (deterministically, from the echoed observations) for variance queries;
    weights and parameters are taken verbatim from the file, after a check
    that the weights solve that system to round-off.  Localized weights are
    checked to equal the saved approximate inverse applied to the residuals
    of the observations, to round-off.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != PREDICTOR_FORMAT:
        raise ConfigError(f"{path}: not a saved predictor file")
    if doc.get("version") != PREDICTOR_VERSION:
        raise ConfigError(f"{path}: predictor file version {doc.get('version')!r} is not "
                          f"the supported version {PREDICTOR_VERSION}")
    model, mu, sigma2 = corrfn.parse_model_config(doc["model"])
    if mu == "estimate" or sigma2 == "estimate":
        raise ConfigError(f"{path}: saved predictor must carry numeric mu and sigma2")
    obs = ObservationSet([_obs_from_json(r) for r in doc["observations"]], dim=doc["dim"])
    weights = np.array(doc["weights"], dtype=float)
    if weights.shape != (obs.m,):
        raise ConfigError(f"{path}: {weights.size} weights for {obs.m} observations")
    if doc["mode"] == "global":
        if obs.m == 0:
            return KernelPredictor(model, obs, mu, sigma2, weights, None, None)
        matrix = assemble(obs, model, sigma2)
        _check_weights(path, matrix, weights, obs.values() - mu * obs.mean_image(),
                       "the weights do not solve the system of the saved observations")
        return KernelPredictor(model, obs, mu, sigma2, weights, cholesky(matrix), matrix)
    loc = doc["localized"]
    psi_doc = loc["psi_lower"]
    if psi_doc["order"] != obs.m:
        raise ConfigError(f"{path}: approximate inverse of order {psi_doc['order']} "
                          f"for {obs.m} observations")
    psi = SparseSymmetric.from_entries(psi_doc["order"], psi_doc["rows"],
                                       psi_doc["cols"], psi_doc["vals"])
    if obs.m:
        _check_weights(path, psi, obs.values() - mu * obs.mean_image(), weights,
                       "the weights are not the approximate inverse applied to the "
                       "residuals of the saved observations")
    fit = LocalizedFit(model, obs, psi, mu, sigma2, weights, loc["k"], loc["delta"])
    fit.deviation_var = loc["deviation_var"]
    return fit


def _check_weights(path, matrix: SparseSymmetric, x: np.ndarray, b: np.ndarray,
                   refusal: str):
    """Refuse with ``refusal`` unless ``matrix @ x`` reproduces ``b`` to round-off.

    The residual ``||b - M x||`` must stay below ``m * eps * (||M|| ||x|| +
    ||b||)`` (infinity norms), which bounds the backward error of a Cholesky
    solve and the rounding error of a product.  A fresh global solve is not
    compared instead: on an ill-conditioned matrix it may differ from weights
    saved under another BLAS by far more than eps, while both solve the
    system to round-off.  ``M x`` and the row sums of ``|M|`` are summed from
    the stored lower triangle, so loading builds no full view of M.
    """
    m = matrix.order
    rows, cols, vals = matrix.lower_entries()
    off = rows != cols

    def row_sums(lower, upper):  # of the stored entries, and of their mirror images
        return np.bincount(rows, lower, m) + np.bincount(cols[off], upper[off], m)

    product = row_sums(vals * x[cols], vals * x[rows])
    row_abs = row_sums(np.abs(vals), np.abs(vals))
    residual = float(np.abs(b - product).max())
    scale = row_abs.max() * np.abs(x).max() + np.abs(b).max()
    if not residual <= m * np.finfo(float).eps * scale:
        raise ConfigError(f"{path}: {refusal} (residual {residual:.3g})")


def _write_raster_csv(path, table: np.ndarray, dim: int, localized_mode: bool):
    cols = [f"x{k + 1}" for k in range(dim)] + ["prediction", "variance"]
    if localized_mode:
        cols.append("adjusted_variance")
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in table:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


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
    cfg = _config_from_args(args)
    t0 = time.perf_counter()
    obs = read_observations_csv(cfg.obs_path)
    summary = {"command": "fit", "mode": cfg.mode, "m": obs.m, "dim": obs.dim}

    if cfg.mode == "global":
        mu, sigma2 = _resolve_global_levels(obs, cfg)
        fitted = fit_global(obs, cfg.model, mu, sigma2)
        summary.update(mu=mu, sigma2=sigma2, deviation_var=0.0, k=None, delta=None,
                       matrix=_matrix_stats(fitted.matrix, fitted.factor), approx_inverse=None,
                       neighborhood_sizes=None, negative_variance_at_obs=None)
    else:
        mu = None if cfg.mu_spec == "estimate" else float(cfg.mu_spec)
        sigma2 = None if cfg.sigma2_spec == "estimate" else float(cfg.sigma2_spec)
        fitted = fit_localized(obs, cfg.model, cfg.k, mu=mu, sigma2=sigma2,
                               workers=cfg.workers, count_negative_variance=True)
        sizes = _neighborhood_sizes(fitted)
        summary.update(
            mu=fitted.mu_star, sigma2=fitted.sigma2_star,
            deviation_var=fitted.deviation_var, k=fitted.k, delta=fitted.delta,
            matrix=None, approx_inverse=_matrix_stats(fitted.approx_inverse),
            neighborhood_sizes=sizes,
            negative_variance_at_obs=fitted.negative_variance_at_obs,
        )

    if cfg.out_path:
        save_predictor(cfg.out_path, fitted)
    summary["timing_s"] = {"total": time.perf_counter() - t0}
    summary["outputs"] = {"predictor": cfg.out_path}
    _emit(summary, cfg.summary_path)
    return 0


def _resolve_global_levels(obs: ObservationSet, cfg: RunConfig):
    fixed = [None if spec == "estimate" else float(spec)
             for spec in (cfg.mu_spec, cfg.sigma2_spec)]
    if None not in fixed:
        return tuple(fixed)
    if obs.m == 0:
        raise EstimationError("cannot estimate mu/sigma2 from an empty observation set")
    mu, sigma2, _ = inference.profile_levels(obs, cfg.model, *fixed)
    if sigma2 <= 0.0:
        raise EstimationError("estimated sigma2 is not positive")
    return mu, sigma2


def _neighborhood_sizes(fit: LocalizedFit) -> Optional[dict]:
    if fit.obs.m == 0:
        return None
    counts = np.diff(fit.approx_inverse.full().indptr)
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
    grid = GridSpec.parse(args.grid)
    localized_mode = isinstance(fitted, LocalizedFit)
    if grid.dim != fitted.obs.dim:
        raise ConfigError(f"grid dimension {grid.dim} != predictor dimension {fitted.obs.dim}")
    table = rasterize_localized(fitted, grid) if localized_mode else rasterize(fitted, grid)
    _write_raster_csv(args.out, table, grid.dim, localized_mode)
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
    cfg = _config_from_args(args)
    eta_bounds = _parse_eta_bounds(args.eta_bounds) if args.eta_bounds is not None else None
    if eta_bounds is not None and cfg.mode == "localized":
        raise ConfigError("--eta-bounds (a range search) needs --mode global")
    obs = read_observations_csv(cfg.obs_path)
    if obs.m == 0:
        raise EstimationError("cannot infer parameters from an empty observation set")

    if cfg.mode == "localized":
        fit = fit_localized(obs, cfg.model, cfg.k, workers=cfg.workers)
        result = inference.MleResult(fit.mu_star, fit.sigma2_star, None, None, 1, True)
    elif eta_bounds is not None:
        def family(eta, _m=cfg.model):
            return corrfn.CorrelationModel(_m.base_kind, eta, _m.taper_range)
        result = inference.estimate_joint(obs, family, eta_bounds)
    else:
        mu, sigma2, nll = inference.profile_levels(obs, cfg.model)
        result = inference.MleResult(mu, sigma2, None, nll, 1, True)

    _emit(result.to_dict(), getattr(args, "out", None))
    return 0


# -- example-a ----------------------------------------------------------------

def demo_observation_set(values=(1.0, 0.0, 2.0)) -> ObservationSet:
    """The built-in 1D demonstration set: a point value at 0, a derivative
    at -5, and an interval integral over [5, 6]."""
    v = [float(x) for x in values]
    if len(v) != 3:
        raise ConfigError("example-a needs exactly three observed values")
    return ObservationSet([
        Observation(obsmodel.POINT, np.array([0.0]), v[0]),
        Observation(obsmodel.DERIV, np.array([-5.0]), v[1], direction=np.array([1.0])),
        Observation(obsmodel.AVG, np.array([5.0, 6.0]), v[2]),
    ])


def cmd_example_a(args) -> int:
    rng_param = float(args.range)
    if rng_param <= 0.0:
        raise ConfigError("range must be positive")
    values = tuple(float(v) for v in args.values.split(","))
    obs = demo_observation_set(values)
    model = corrfn.CorrelationModel("matern52", rng_param)
    fitted = fit_global(obs, model, mu=0.0, sigma2=1.0)
    out = {"range": rng_param, "values": list(values),
           "weights": [float(w) for w in fitted.weights]}
    raster_path = None
    if args.out_prefix:
        grid = GridSpec.parse(f"-10,10,{args.nodes}")
        raster_path = f"{args.out_prefix}_raster.csv"
        _write_raster_csv(raster_path, rasterize(fitted, grid), 1, localized_mode=False)
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
    obs = [Observation(obsmodel.POINT, pts[i], float(vals[i])) for i in range(m)]
    return ObservationSet(obs, dim=q)


def _parse_bounds(text: str):
    out = []
    for part in text.split(";"):
        lo, hi = _parse_pair(part)
        if not -math.inf < lo < hi < math.inf:
            raise ConfigError(f"--bounds axis {part!r} must be lo,hi with finite lo < hi")
        out.append((lo, hi))
    return out


def cmd_synth(args) -> int:
    bounds = _parse_bounds(args.bounds)
    obs = synthetic_observations(args.m, bounds, args.seed)
    obsmodel.write_observations_csv(args.out, obs)
    print(json.dumps({"m": obs.m, "dim": obs.dim, "seed": args.seed, "out": args.out}))
    return 0


# -- parser ----------------------------------------------------------------

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
                       help="threads over the localized stacks of neighborhood inversions")
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
        return args.func(args)
    except (ObservationParseError, ConfigError, FileNotFoundError, IsADirectoryError,
            json.JSONDecodeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FactorizationError, EstimationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
