"""kernelfield benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload global-grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` times pipeline rounds for ``--seconds`` and reports the
end-to-end metrics; ``--trace 1`` runs a warm-up, an untraced and a traced
round and reports the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  ``all``
runs every workload in its own process and prints a table of all metrics.

The program is imported from ``src/`` of the checkout; without it the run
fails with exit code 2.  BLAS runs with at most 2 threads, the CLI with one
worker.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
MAX_BLAS_THREADS = 1


def _parse(argv):
    parser = argparse.ArgumentParser(description="kernelfield benchmark")
    parser.add_argument("--workload", required=True, help="workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _environment(blas_threads: str) -> dict:
    import numpy
    import scipy

    def blas_version(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, AttributeError):
            return "unknown"

    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas_numpy": blas_version(numpy), "openblas_scipy": blas_version(scipy),
            "nproc": os.cpu_count(), "blas_threads": int(blas_threads), "workers": 1}


def _units() -> dict:
    from perfbench import tracing, workloads

    units = dict(workloads.END_TO_END + workloads.REPORTED)
    units.update((name, unit) for name, unit, *_ in tracing.PER_LAYER)
    return units


def emit(wl, args, out):
    """Print the run's report, then its result as the last line (JSON)."""
    env = _environment(os.environ.get("OPENBLAS_NUM_THREADS", "0"))
    print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} rounds={out['rounds']}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"sizes m={wl.m} batch={wl.batch} grid={wl.grid} nodes={wl.n_nodes} mode={wl.mode}")
    units = _units()
    for name, value in out["result"]["metrics"].items():
        print(f"metric {name} {value:.6g} {units[name]}")
    for name, value in out["reported"].items():
        print(f"reported {name} {value:.6g} {units[name]}")
    by_name = {}
    for name, ok, detail in out["checks"]:
        by_name.setdefault(name, []).append((ok, detail))
    for name, results in by_name.items():
        passed = sum(ok for ok, _ in results)
        worst = next((d for ok, d in results if not ok), results[-1][1])
        print(f"check {name} {passed}/{len(results)} passed, {worst}")
    if out["error"]:
        print(f"error {out['error']}")
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in out["result"]["metrics"].items()}
    print(json.dumps(dict(out["result"], metrics=metrics)))


def _run_one(args) -> int:
    from perfbench import workloads

    import kernelfield
    if not os.path.abspath(kernelfield.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"error: kernelfield imported from {kernelfield.__file__}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{wl.name}-seed{args.seed}"
    workdir = os.path.join(OUT_DIR, f"work-{tag}-{os.getpid()}")
    trace_path = os.path.join(OUT_DIR, f"trace-{tag}.npz") if args.trace else None
    try:
        out = workloads.run_workload(wl, args.seed, args.seconds, bool(args.trace),
                                     workdir, trace_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    emit(wl, args, out)
    return 0 if out["result"]["correct"] else 1


def _run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    from perfbench import workloads

    table, total = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print(proc.stdout, end="")
        print(proc.stderr, end="", file=sys.stderr)
        if proc.returncode not in (0, 1) or not lines:
            total["correct"] = False
            total["failed"] += 1
            continue
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for line in lines:
            kind, *rest = line.split()
            if kind in ("metric", "reported"):
                metric, value, unit = rest
                table.append((name, metric, value, unit))
                total["metrics"][f"{name}.{metric}"] = {"value": float(value), "unit": unit}
    print(f"\n{'workload':<16}{'metric':<40}{'value':>14}  unit")
    for name, metric, value, unit in table:
        print(f"{name:<16}{metric:<40}{value:>14}  {unit}")
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "kernelfield", "__init__.py")):
        print("error: no kernelfield sources under src/ of this checkout", file=sys.stderr)
        return 2
    # Thread counts must be fixed before numpy loads OpenBLAS.
    threads = str(min(MAX_BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import workloads

    if args.workload == "all":
        return _run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
