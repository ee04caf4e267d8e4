"""Workloads, their seeded inputs, and the timed pipeline rounds.

Every workload drives the program the way a user does, through
``kernelfield.cli.main``, one round at a time:

    infer -> fit -> set-up (CSV read + predictor load) -> grid

``mle-2d`` runs infer with a range search and fits the model it found; the
other workloads estimate only the levels at their configured range.  A
round covers all of a workload's input sets (``batch``); the timed loop
repeats rounds until the run's time is spent (see :func:`end_to_end` for
how the samples become metrics).
"""

import csv
import hashlib
import io
import json
import os
import resource
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from kernelfield import cli, obsmodel

from . import checks, tracing

BOX_2D = [(0.0, 20.0), (0.0, 20.0)]
TAPERED_M52 = {"base": {"kind": "matern52", "scale": 0.5}, "taper_range": 1.5,
               "mu": "estimate", "sigma2": "estimate"}
UNTAPERED_M52 = {"base": {"kind": "matern52", "scale": 1.0}, "taper_range": None,
                 "mu": "estimate", "sigma2": "estimate"}
GAUSS2_FIXED = {"base": {"kind": "gauss2", "scale": 0.5}, "taper_range": None,
                "mu": 10.0, "sigma2": 1.0}
OPS_SPACING = 0.5
SETUPS_PER_ROUND = 3

END_TO_END = (
    # name, unit
    ("setup_s", "s"),
    ("fit_s", "s"),
    ("grid_nodes_per_s", "nodes/s"),
    ("infer_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Printed in every run's report but not gated (see CHANGES.md).
REPORTED = (
    ("infer_nll", "nats"),
    ("infer_converged", "0/1"),
    ("failed_frac", "ratio"),
    ("machine_slowdown", "ratio"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    m: int
    grid: str
    model: dict
    mode: str = "global"
    batch: int = 1
    eta_bounds: Optional[Tuple[float, float]] = None
    operators_1d: bool = False

    @property
    def n_nodes(self) -> int:
        n = 1
        for axis in self.grid.split(";"):
            n *= int(axis.split(",")[2])
        return n


WORKLOADS = {
    "global-grid": Workload(
        "global-grid",
        "2D m=400 tapered Matern-5/2 points, global fit, 12x12 grid: query-heavy "
        "(kernel_vector and one factor solve per node), so raster work shows here",
        m=400, grid="0,20,12;0,20,12", model=TAPERED_M52),
    "localized-grid": Workload(
        "localized-grid",
        "the global-grid inputs fitted --mode localized --k 2: fit-heavy "
        "(neighbourhood inversions) with no global factor in fit or grid",
        m=400, grid="0,20,12;0,20,12", model=TAPERED_M52, mode="localized"),
    "mle-2d": Workload(
        "mle-2d",
        "36 sets of 2D m=30 untapered Matern-5/2 points, infer --eta-bounds 0.1,3 then "
        "fit and an 8x8 grid: the only range search, the likelihood layer",
        m=30, grid="0,20,8;0,20,8", model=UNTAPERED_M52, batch=36, eta_bounds=(0.1, 3.0)),
    "operators-1d": Workload(
        "operators-1d",
        "1D m=40 jittered lattice, 20% derivatives, 20% interval integrals, gauss2, "
        "40-node grid: the only non-point operators (quadrature into corrfn)",
        m=40, grid=f"0,{OPS_SPACING * 39},40", model=GAUSS2_FIXED, operators_1d=True),
}


# -- inputs ------------------------------------------------------------------

def _smooth(x):
    """Fixed smooth field: value, derivative and antiderivative."""
    f = 10.0 + np.sin(0.8 * x) + 0.5 * np.cos(0.3 * x + 1.0)
    df = 0.8 * np.cos(0.8 * x) - 0.15 * np.sin(0.3 * x + 1.0)
    big_f = 10.0 * x - np.cos(0.8 * x) / 0.8 + 0.5 * np.sin(0.3 * x + 1.0) / 0.3
    return f, df, big_f


def write_operator_observations(path, m: int, seed: int, spacing: float = OPS_SPACING):
    """1D mixed-operator set on a jittered lattice.

    Sites are ``spacing * (i + U(-0.2, 0.2))``, so neighbours stay at least
    0.6 * spacing apart and the gauss2 matrix factors; interval widths are
    0.1-0.3 (never overlapping a neighbour).  A fifth of the sites carry a
    derivative with a random sign, a fifth an interval integral, and values
    come from the fixed smooth function :func:`_smooth`.
    """
    rng = np.random.default_rng(seed)
    x = spacing * (np.arange(m) + rng.uniform(-0.2, 0.2, m))
    order = rng.permutation(m)
    kind = np.full(m, "point", dtype=object)
    kind[order[: m // 5]] = "deriv"
    kind[order[m // 5: 2 * (m // 5)]] = "avg"
    sign = rng.choice([-1.0, 1.0], m)
    half = 0.5 * rng.uniform(0.1, 0.3, m)
    f, df, _ = _smooth(x)
    lo, hi = x - half, x + half
    integral = _smooth(hi)[2] - _smooth(lo)[2]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "kind", "value", "error_var", "p1", "p2"])
        for i in range(m):
            if kind[i] == "point":
                row = [x[i], "point", f[i], 0.0, "", ""]
            elif kind[i] == "deriv":
                row = [x[i], "deriv", sign[i] * df[i], 0.0, sign[i], ""]
            else:
                row = [x[i], "avg", integral[i], 0.0, lo[i], hi[i]]
            writer.writerow([v if isinstance(v, str) else repr(float(v)) for v in row])


@dataclass
class Case:
    """One input set and the files its pipeline writes."""

    obs: str
    model: str
    infer_out: str
    fit_model: str
    predictor: str
    raster: str
    raster_digest: Optional[str] = None


def prepare(wl: Workload, seed: int, workdir: str) -> List[Case]:
    """Write every input of the workload for this seed; nothing is timed."""
    os.makedirs(workdir, exist_ok=True)
    model_path = os.path.join(workdir, "model.json")
    with open(model_path, "w") as fh:
        json.dump(wl.model, fh)
    cases = []
    for j in range(wl.batch):
        data_seed = seed if wl.batch == 1 else 1000 * seed + j
        path = lambda stem: os.path.join(workdir, f"{stem}_{j}")
        obs_path = path("obs") + ".csv"
        if wl.operators_1d:
            write_operator_observations(obs_path, wl.m, data_seed)
        else:
            obs = cli.synthetic_observations(wl.m, BOX_2D, data_seed)
            obsmodel.write_observations_csv(obs_path, obs)
        fit_model = path("fitted_model") + ".json" if wl.eta_bounds else model_path
        cases.append(Case(obs_path, model_path, path("infer") + ".json", fit_model,
                          path("predictor") + ".json", path("raster") + ".csv"))
    return cases


# -- rounds ------------------------------------------------------------------

class StageFailed(Exception):
    pass


STAGES = ("infer", "fit", "setup", "grid")

# Median time of reference_s() on the 2-vCPU machine the benchmark was
# written on, at a time when no other tenant slowed it.
REFERENCE_NOMINAL_S = 0.0025
_REF_SPD = np.eye(40) + 0.5 * np.ones((40, 40))
_REF_X = np.linspace(0.0, 3.0, 500)


def reference_s() -> float:
    """Time a fixed kernel of interpreter loops, small numpy operations and
    small LAPACK factorizations: the mix of work the program itself does."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(10000):
        acc += (i % 7) * 0.5
    for _ in range(100):
        np.linalg.cholesky(_REF_SPD)
        acc += float(np.exp(-_REF_X * _REF_X).sum())
    return time.perf_counter() - t0


@dataclass
class Round:
    """One pass over every input set.

    ``times[stage][set]`` lists the samples of a stage, and
    ``refs[stage][set]`` the reference-kernel time measured just before each.
    """

    sets: int
    wall_s: float = 0.0
    stages: int = 0
    infer_docs: list = field(default_factory=list)
    times: dict = field(init=False)
    refs: dict = field(init=False)

    def __post_init__(self):
        self.times = {stage: [[] for _ in range(self.sets)] for stage in STAGES}
        self.refs = {stage: [[] for _ in range(self.sets)] for stage in STAGES}

    def sample(self, stage, j, fn):
        ref = reference_s()
        t0 = time.perf_counter()
        fn()
        self.times[stage][j].append(time.perf_counter() - t0)
        self.refs[stage][j].append(ref)


def _run_cli(argv, rnd: Round):
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # a traceback is a failed operation, not a crash
        rc = f"{type(exc).__name__}: {exc}"
    rnd.stages += 1
    if rc != 0:
        raise StageFailed(f"{argv[0]} exited {rc!r}: {err.getvalue().strip()}")


def _setup(case: Case, tracer):
    if tracer is None:
        obsmodel.read_observations_csv(case.obs)
        cli.load_predictor(case.predictor)
    else:
        with tracer.span("bench.setup"):
            obsmodel.read_observations_csv(case.obs)
            cli.load_predictor(case.predictor)


def run_round(wl: Workload, cases: List[Case], tracer=None) -> Round:
    rnd = Round(len(cases))
    t_round = time.perf_counter()
    eta = ["--eta-bounds", ",".join(map(str, wl.eta_bounds))] if wl.eta_bounds else []
    for j, case in enumerate(cases):
        rnd.sample("infer", j, lambda: _run_cli(
            ["infer", "--obs", case.obs, "--model", case.model, "--out", case.infer_out] + eta,
            rnd))
        doc = checks.read_json(case.infer_out)
        rnd.infer_docs.append(doc)
        if wl.eta_bounds:
            fitted = dict(wl.model, base={"kind": wl.model["base"]["kind"], "scale": doc["eta"]},
                          mu=doc["mu"], sigma2=doc["sigma2"])
            with open(case.fit_model, "w") as fh:
                json.dump(fitted, fh)
        rnd.sample("fit", j, lambda: _run_cli(
            ["fit", "--obs", case.obs, "--model", case.fit_model, "--mode", wl.mode,
             "--k", "2", "--workers", "1", "--out", case.predictor], rnd))
        for _ in range(SETUPS_PER_ROUND):
            rnd.sample("setup", j, lambda: _setup(case, tracer))
        rnd.sample("grid", j, lambda: _run_cli(
            ["grid", "--predictor", case.predictor, "--grid", wl.grid, "--out", case.raster],
            rnd))

        with open(case.raster, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if case.raster_digest is None:
            case.raster_digest = digest
        elif digest != case.raster_digest:
            raise StageFailed(f"{case.raster} changed between rounds")
        if tracer is not None:
            tracer.add("cli.raster.bytes", os.path.getsize(case.raster))
    rnd.wall_s = time.perf_counter() - t_round
    return rnd


def machine_slowdown(rounds: List[Round]) -> float:
    """Median reference-kernel time of the run over its nominal time."""
    refs = [x for r in rounds for stage in STAGES for per_set in r.refs[stage] for x in per_set]
    return float(np.median(refs)) / REFERENCE_NOMINAL_S


def end_to_end(wl: Workload, rounds: List[Round], peak_rss_mb: float) -> dict:
    """Stage times per input set at the nominal machine speed.

    Other tenants of a shared machine slow whole stretches of a run, often
    by 30-100%, and every stage with them.  Each sample is therefore scaled
    by the nominal over the measured time of the reference kernel run just
    before it.  A stage's time is the median of its scaled samples for each
    input set, and the interquartile mean of those over the sets: a range
    search that hits its sweep cap on one set out of many would otherwise
    move the mean by a fifth (``infer_converged`` reports such sets).
    """
    def per_set(stage):
        medians = []
        for j in range(rounds[0].sets):
            t = np.array([x for r in rounds for x in r.times[stage][j]])
            ref = np.array([x for r in rounds for x in r.refs[stage][j]])
            medians.append(np.median(t * (REFERENCE_NOMINAL_S / ref)))
        medians = np.sort(medians)
        cut = len(medians) // 4
        return float(np.mean(medians[cut:len(medians) - cut]))

    return {
        "setup_s": per_set("setup"),
        "fit_s": per_set("fit"),
        "grid_nodes_per_s": wl.n_nodes / per_set("grid"),
        "infer_s": per_set("infer"),
        "peak_rss_mb": peak_rss_mb,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- checks ------------------------------------------------------------------

def run_checks(wl: Workload, cases: List[Case], seed: int) -> list:
    results = []
    for case in cases:
        obs = checks.read_functionals(case.obs)
        results += checks.check_infer(obs, wl.model, checks.read_json(case.infer_out),
                                      wl.eta_bounds)
        predictor = checks.read_json(case.predictor)
        raster = checks.read_raster(case.raster)
        if wl.mode == "localized":
            results += checks.check_localized(obs, predictor, raster, seed)
        else:
            estimated = wl.eta_bounds is None and wl.model["mu"] == "estimate"
            results += checks.check_global(obs, predictor, raster, levels_estimated=estimated)
        if wl.operators_1d:
            results += checks.check_reproduction(obs, case.predictor)
    return results


# -- one run -----------------------------------------------------------------

def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, workdir: str,
                 trace_path: Optional[str] = None) -> dict:
    """Run one workload and return its result and report.

    ``trace`` = False: timed rounds until ``seconds`` are spent, end-to-end
    metrics.  ``trace`` = True: a warm-up, an untraced and a traced round,
    per-layer metrics and the tracing overhead.  Outputs are checked in both modes.
    """
    cases = prepare(wl, seed, workdir)
    rounds: List[Round] = []
    attempted = failed = 0
    error = None
    metrics = {}
    try:
        if trace:
            # A warm-up round, then an untraced and a traced one.
            rounds += [run_round(wl, cases), run_round(wl, cases)]
            with tracing.Tracer() as tracer:
                rounds.append(run_round(wl, cases, tracer))
            tracer.extern["trace.overhead_frac"] = rounds[2].wall_s / rounds[1].wall_s - 1.0
            metrics = tracer.metrics()
            if trace_path:
                tracer.write(trace_path)
        else:
            t0 = time.perf_counter()
            while True:
                rounds.append(run_round(wl, cases))
                elapsed = time.perf_counter() - t0
                if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
                    break
            metrics = end_to_end(wl, rounds, peak_rss_mb())
    except StageFailed as exc:
        error = str(exc)
        failed += 1
    attempted += sum(r.stages for r in rounds) + (1 if error else 0)

    check_results = run_checks(wl, cases, seed) if error is None else []
    attempted += len(check_results)
    failed += sum(1 for _, ok, _ in check_results if not ok)
    last = rounds[-1] if rounds else Round(len(cases))
    reported = {
        "infer_nll": statistics.fmean(d["nll"] for d in last.infer_docs)
        if last.infer_docs else float("nan"),
        "infer_converged": statistics.fmean(bool(d["converged"]) for d in last.infer_docs)
        if last.infer_docs else 0.0,
        "failed_frac": failed / max(attempted, 1),
        "machine_slowdown": machine_slowdown(rounds) if rounds else float("nan"),
    }
    return {
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
        "reported": reported,
        "checks": check_results,
        "cases": cases,
        "rounds": len(rounds),
        "error": error,
    }
