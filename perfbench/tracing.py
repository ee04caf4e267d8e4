"""Traced runs: wrap kernelfield's public functions and record spans.

A :class:`Tracer` replaces each target function or method with a wrapper
for the duration of a ``with`` block and puts every original back on exit.
Names bound by ``from .x import f`` live in several module namespaces, so
each binding of a target is rebound, in every kernelfield module, not only
the defining one; methods are patched on their class.

Each call becomes a span (name, start, end, parent, stage id) held in
arrays in memory; :meth:`Tracer.write` saves them when the run ends.  A
span's self time is its duration minus the time its child spans cover
(calls are synchronous and single-threaded, so children never overlap).
"""

import contextlib
import functools
import importlib
import os
import sys
import time
from array import array

import numpy as np

# Per-layer metrics: name, unit, span, statistic, and which end-to-end
# metric a change to that layer should move (on which workloads).
# Statistics: "calls", "s" (inclusive seconds), "self_s" (exclusive
# seconds), "errors" (calls that raised), ("sum"|"max"|"mean", key) over a
# per-call value, and "extern" for values the runner adds itself.
_EVAL = "infer_s; grid_nodes_per_s and fit_s on operators-1d"
_READ = "setup_s"
_ASSEMBLE = "fit_s, setup_s, infer_s"
_KVEC = "grid_nodes_per_s; fit_s on localized-grid"
_OPS = "fit_s, grid_nodes_per_s, setup_s on operators-1d"
_CHOL = "fit_s and setup_s on global-grid; infer_s"
_SOLVE = "grid_nodes_per_s on global-grid"
_NEIGH = "grid_nodes_per_s, fit_s on the tapered 2D workloads"
_LOCINV = "fit_s and grid_nodes_per_s on localized-grid"
_PRED = "grid_nodes_per_s, fit_s on global-grid, operators-1d, mle-2d"
_LOC = "fit_s and grid_nodes_per_s on localized-grid"
_INF = "infer_s (and infer_nll) on mle-2d; fit_s on global-grid"
_CLI = "fit_s, setup_s, grid_nodes_per_s"

PER_LAYER = (
    ("corrfn.eval.calls", "count", "corrfn.eval", "calls", _EVAL),
    ("corrfn.eval.points", "count", "corrfn.eval", ("sum", "points"), _EVAL),
    ("corrfn.eval.self_s", "s", "corrfn.eval", "self_s", _EVAL),
    ("obsmodel.read_observations_csv.s", "s", "obsmodel.read_observations_csv", "s", _READ),
    ("obsmodel.assemble.calls", "count", "obsmodel.assemble", "calls", _ASSEMBLE),
    ("obsmodel.assemble.s", "s", "obsmodel.assemble", "s", _ASSEMBLE),
    ("obsmodel.assemble.nnz_lower", "count", "obsmodel.assemble", ("sum", "nnz"), _ASSEMBLE),
    ("obsmodel.kernel_vector.calls", "count", "obsmodel.kernel_vector", "calls", _KVEC),
    ("obsmodel.kernel_vector.self_s", "s", "obsmodel.kernel_vector", "self_s", _KVEC),
    ("obsmodel.kernel_vector.entries", "count", "obsmodel.kernel_vector",
     ("sum", "entries"), _KVEC),
    ("obsmodel.rep_points.calls", "count", "obsmodel.rep_points", "calls", _KVEC),
    ("obsmodel.rep_points.s", "s", "obsmodel.rep_points", "s", _KVEC),
    ("obsmodel.point_mask.calls", "count", "obsmodel.point_mask", "calls", _KVEC),
    ("obsmodel.point_mask.s", "s", "obsmodel.point_mask", "s", _KVEC),
    ("obsmodel.kernel_value.calls", "count", "obsmodel.kernel_value", "calls", _OPS),
    ("obsmodel.kernel_value.s", "s", "obsmodel.kernel_value", "s", _OPS),
    ("obsmodel.cross_correlation.calls", "count", "obsmodel.cross_correlation", "calls", _OPS),
    ("obsmodel.cross_correlation.s", "s", "obsmodel.cross_correlation", "s", _OPS),
    ("linalg.cholesky.calls", "count", "linalg.cholesky", "calls", _CHOL),
    ("linalg.cholesky.s", "s", "linalg.cholesky", "s", _CHOL),
    ("linalg.cholesky.max_order", "rows", "linalg.cholesky", ("max", "order"), _CHOL),
    ("linalg.cholesky.failures", "count", "linalg.cholesky", "errors", _CHOL),
    ("linalg.cholesky.flops", "flop_computed", "linalg.cholesky", ("sum", "flops"), _CHOL),
    ("linalg.solve.calls", "count", "linalg.solve", "calls", _SOLVE),
    ("linalg.solve.s", "s", "linalg.solve", "s", _SOLVE),
    ("linalg.solve.rhs_cols", "count", "linalg.solve", ("sum", "rhs_cols"), _SOLVE),
    ("linalg.neighbors.calls", "count", "linalg.neighbors", "calls", _NEIGH),
    ("linalg.neighbors.s", "s", "linalg.neighbors", "s", _NEIGH),
    ("linalg.neighbors.returned", "count", "linalg.neighbors", ("sum", "returned"), _NEIGH),
    ("linalg.dense_spd_inverse.calls", "count", "linalg.dense_spd_inverse", "calls", _LOCINV),
    ("linalg.dense_spd_inverse.s", "s", "linalg.dense_spd_inverse", "s", _LOCINV),
    ("linalg.dense_spd_inverse.mean_order", "rows", "linalg.dense_spd_inverse",
     ("mean", "order"), _LOCINV),
    ("linalg.dense_spd_inverse.flops", "flop_computed", "linalg.dense_spd_inverse",
     ("sum", "flops"), _LOCINV),
    ("linalg.submatrix.calls", "count", "linalg.submatrix", "calls", _LOCINV),
    ("linalg.submatrix.s", "s", "linalg.submatrix", "s", _LOCINV),
    ("predictor.fit_global.s", "s", "predictor.fit_global", "s", _PRED),
    ("predictor.predict.calls", "count", "predictor.predict", "calls", _PRED),
    ("predictor.predict.self_s", "s", "predictor.predict", "self_s", _PRED),
    ("predictor.predict_variance.calls", "count", "predictor.predict_variance", "calls", _PRED),
    ("predictor.predict_variance.self_s", "s", "predictor.predict_variance", "self_s", _PRED),
    ("predictor.rasterize.s", "s", "predictor.rasterize", "s", _PRED),
    ("localized.fit_localized.s", "s", "localized.fit_localized", "s", _LOC),
    ("localized.approximate_inverse.s", "s", "localized.approximate_inverse", "s", _LOC),
    ("localized.approximate_inverse.nnz_lower", "count", "localized.approximate_inverse",
     ("sum", "nnz"), _LOC),
    ("localized.predict_localized.calls", "count", "localized.predict_localized", "calls", _LOC),
    ("localized.predict_localized.self_s", "s", "localized.predict_localized", "self_s", _LOC),
    ("localized.variance_localized.calls", "count", "localized.variance_localized", "calls", _LOC),
    ("localized.variance_localized.self_s", "s", "localized.variance_localized", "self_s", _LOC),
    ("localized.rasterize_localized.s", "s", "localized.rasterize_localized", "s", _LOC),
    ("inference.estimate_joint.s", "s", "inference.estimate_joint", "s", _INF),
    ("inference.sweeps", "count", "inference.estimate_joint", ("sum", "sweeps"), _INF),
    ("inference.objective_evals", "count", "inference.estimate_eta", "objective_evals", _INF),
    ("inference.estimate_eta.calls", "count", "inference.estimate_eta", "calls", _INF),
    ("inference.estimate_eta.s", "s", "inference.estimate_eta", "s", _INF),
    ("inference.negative_log_likelihood.s", "s", "inference.negative_log_likelihood", "s", _INF),
    ("inference.estimate_mu.calls", "count", "inference.estimate_mu", "calls", _INF),
    ("inference.estimate_sigma2.calls", "count", "inference.estimate_sigma2", "calls", _INF),
    ("cli.main.fit.self_s", "s", "cli.main.fit", "self_s", _CLI),
    ("cli.main.grid.self_s", "s", "cli.main.grid", "self_s", _CLI),
    ("cli.main.infer.self_s", "s", "cli.main.infer", "self_s", _CLI),
    ("cli.save_predictor.s", "s", "cli.save_predictor", "s", _CLI),
    ("cli.save_predictor.bytes", "bytes", "cli.save_predictor", ("sum", "bytes"), _CLI),
    ("cli.load_predictor.s", "s", "cli.load_predictor", "s", _CLI),
    ("cli.raster.bytes", "bytes", None, "extern", _CLI),
    ("trace.overhead_frac", "ratio", None, "extern", "none: traced-run cost, not the program's"),
)

# Count metrics repeat exactly between two traced runs of one seed.
COUNT_METRICS = tuple(name for name, unit, _, _, _ in PER_LAYER
                      if unit in ("count", "flop_computed", "rows", "bytes"))


def _rhs_cols(rhs):
    rhs = np.asarray(rhs)
    return 1 if rhs.ndim == 1 else rhs.shape[1]


def _kernel_entries(args, kwargs):
    subset = kwargs.get("subset", args[3] if len(args) > 3 else None)
    return args[0].m if subset is None else len(subset)


# Target functions: span name -> (module, class or None, attribute, values),
# where ``values(args, kwargs, result)`` returns per-call values for the
# ("sum"|"max"|"mean", key) statistics.
TARGETS = {
    "corrfn.eval": ("corrfn", "CorrelationModel", "eval",
                    lambda a, k, r: {"points": np.size(a[1])}),
    "obsmodel.read_observations_csv": ("obsmodel", None, "read_observations_csv", None),
    "obsmodel.assemble": ("obsmodel", None, "assemble", lambda a, k, r: {"nnz": r.nnz_lower}),
    "obsmodel.kernel_vector": ("obsmodel", None, "kernel_vector",
                               lambda a, k, r: {"entries": _kernel_entries(a, k)}),
    "obsmodel.kernel_value": ("obsmodel", None, "kernel_value", None),
    "obsmodel.cross_correlation": ("obsmodel", None, "cross_correlation", None),
    "obsmodel.rep_points": ("obsmodel", "ObservationSet", "rep_points", None),
    "obsmodel.point_mask": ("obsmodel", "ObservationSet", "point_mask", None),
    "linalg.cholesky": ("linalg", None, "cholesky",
                        lambda a, k, r: {"order": r.order, "flops": r.order ** 3 / 3.0}),
    "linalg.solve": ("linalg", "CholeskyFactor", "solve",
                     lambda a, k, r: {"rhs_cols": _rhs_cols(a[1])}),
    "linalg.neighbors": ("linalg", "SpatialIndex", "neighbors",
                         lambda a, k, r: {"returned": r.size}),
    # dpotrf (n^3/3) followed by dpotri (2n^3/3).
    "linalg.dense_spd_inverse": ("linalg", None, "dense_spd_inverse",
                                 lambda a, k, r: {"order": r.shape[0],
                                                  "flops": float(r.shape[0]) ** 3}),
    "linalg.submatrix": ("linalg", "SparseSymmetric", "submatrix", None),
    "predictor.fit_global": ("predictor", None, "fit_global", None),
    "predictor.predict": ("predictor", None, "predict", None),
    "predictor.predict_variance": ("predictor", None, "predict_variance", None),
    "predictor.rasterize": ("predictor", None, "rasterize", None),
    "localized.fit_localized": ("localized", None, "fit_localized", None),
    "localized.approximate_inverse": ("localized", None, "approximate_inverse",
                                      lambda a, k, r: {"nnz": r.nnz_lower}),
    "localized.predict_localized": ("localized", None, "predict_localized", None),
    "localized.variance_localized": ("localized", None, "variance_localized", None),
    "localized.rasterize_localized": ("localized", None, "rasterize_localized", None),
    "inference.estimate_joint": ("inference", None, "estimate_joint",
                                 lambda a, k, r: {"sweeps": r.iterations}),
    "inference.estimate_eta": ("inference", None, "estimate_eta", None),
    "inference.negative_log_likelihood": ("inference", None, "negative_log_likelihood", None),
    "inference.estimate_mu": ("inference", None, "estimate_mu", None),
    "inference.estimate_sigma2": ("inference", None, "estimate_sigma2", None),
    # Spans of cli.main are named per subcommand: cli.main.fit, cli.main.grid, ...
    "cli.main": ("cli", None, "main", None),
    "cli.save_predictor": ("cli", None, "save_predictor",
                           lambda a, k, r: {"bytes": os.path.getsize(a[0])}),
    "cli.load_predictor": ("cli", None, "load_predictor", None),
}


def kernelfield_modules():
    """Every loaded kernelfield module, the package itself included."""
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "kernelfield" or name.startswith("kernelfield."))]


class Tracer:
    """Span recorder that wraps :data:`TARGETS` while it is entered."""

    def __init__(self):
        self.names = []          # span-name id -> name
        self._name_ids = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.stage = array("l")
        self.errors = {}
        self.values = {}         # (span name, key) -> list of per-call values
        self.extern = {}
        self._stack = []
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _nid(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, name):
        i = len(self.start)
        parent = self._stack[-1] if self._stack else -1
        self.name_id.append(self._nid(name))
        self.parent.append(parent)
        self.stage.append(self.stage[parent] if parent >= 0 else i)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block of the runner's own code."""
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def add(self, name, value):
        """Add to a metric the runner measures itself (statistic "extern")."""
        self.extern[name] = self.extern.get(name, 0.0) + value

    def _wrap(self, name, fn, values):
        tracer = self
        per_subcommand = name == "cli.main"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = f"{name}.{args[0][0]}" if per_subcommand else name
            i = tracer._open(span_name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[span_name] = tracer.errors.get(span_name, 0) + 1
                raise
            finally:
                tracer._close(i)
            if values is not None:
                for key, v in values(args, kwargs, result).items():
                    tracer.values.setdefault((span_name, key), []).append(v)
            return result

        return wrapper

    # -- install / restore ---------------------------------------------------

    def __enter__(self):
        modules = kernelfield_modules()
        try:
            for name, (mod_name, cls_name, attr, values) in TARGETS.items():
                mod = importlib.import_module(f"kernelfield.{mod_name}")
                if cls_name is not None:
                    cls = getattr(mod, cls_name)
                    original = cls.__dict__[attr]
                    self._restore.append((cls, attr, original))
                    setattr(cls, attr, self._wrap(name, original, values))
                    continue
                original = getattr(mod, attr)
                wrapper = self._wrap(name, original, values)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is original:
                            self._restore.append((m, key, original))
                            setattr(m, key, wrapper)
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self._uninstall()
        return False

    def _uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def _arrays(self):
        return (np.asarray(self.name_id, dtype=np.int64), np.asarray(self.start, dtype=float),
                np.asarray(self.end, dtype=float), np.asarray(self.parent, dtype=np.int64))

    def metrics(self) -> dict:
        """Every per-layer metric of :data:`PER_LAYER`, 0 where no call was made."""
        nid, start, end, parent = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - covered
        by_name = {name: nid == i for i, name in enumerate(self.names)}
        empty = np.zeros(dur.size, dtype=bool)

        out = {}
        for metric, _unit, span, stat, _moves in PER_LAYER:
            mask = by_name.get(span, empty) if span is not None else empty
            if stat == "calls":
                value = int(mask.sum())
            elif stat == "s":
                value = float(dur[mask].sum())
            elif stat == "self_s":
                value = float(self_time[mask].sum())
            elif stat == "errors":
                value = int(self.errors.get(span, 0))
            elif stat == "extern":
                value = self.extern.get(metric, 0.0)
            elif stat == "objective_evals":
                value = self._count_under("linalg.cholesky", span, nid, parent)
            else:
                how, key = stat
                vals = self.values.get((span, key), [])
                if how == "sum":
                    value = sum(vals)
                elif how == "max":
                    value = max(vals, default=0)
                else:
                    value = sum(vals) / len(vals) if vals else 0.0
            out[metric] = value
        return out

    def _count_under(self, child, ancestor, nid, parent) -> int:
        """Number of ``child`` spans with an ``ancestor`` span above them."""
        if child not in self._name_ids or ancestor not in self._name_ids:
            return 0
        cid, aid = self._name_ids[child], self._name_ids[ancestor]
        count = 0
        for i in np.flatnonzero(nid == cid):
            p = parent[i]
            while p >= 0 and nid[p] != aid:
                p = parent[p]
            count += p >= 0
        return int(count)

    def write(self, path):
        """Save the spans (name, start, end, parent, stage) as a compressed npz."""
        nid, start, end, parent = self._arrays()
        stage = np.asarray(self.stage, dtype=np.int64)
        t0 = start.min() if start.size else 0.0
        np.savez_compressed(path, names=np.array(self.names, dtype=str), name_id=nid,
                            start=start - t0, end=end - t0, parent=parent, stage=stage)
