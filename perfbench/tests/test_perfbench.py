"""The benchmark's own tests, on tiny versions of every workload.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from perfbench import checks, run, tracing, workloads  # noqa: E402

SEED = 3
TINY_SIZES = {"global-grid": dict(m=80, grid="0,20,4;0,20,4"),
              "localized-grid": dict(m=80, grid="0,20,4;0,20,4"),
              "mle-2d": dict(m=15, grid="0,20,3;0,20,3", batch=2),
              "operators-1d": dict(m=20, grid="0,9.5,15")}
TINY = {name: dataclasses.replace(wl, **TINY_SIZES[name])
        for name, wl in workloads.WORKLOADS.items()}


def _run(wl, tmp_path, trace=False):
    return workloads.run_workload(wl, SEED, 0.01, trace, str(tmp_path / "work"))


@pytest.fixture(scope="module", params=sorted(TINY))
def untraced(request, tmp_path_factory):
    wl = TINY[request.param]
    return wl, _run(wl, tmp_path_factory.mktemp(wl.name))


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_code():
    doc = _benchmark_json()
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        [(name, unit) for name, unit, *_ in tracing.PER_LAYER]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == \
        [(wl.name, wl.why) for wl in workloads.WORKLOADS.values()]


def test_every_end_to_end_metric_is_printed_with_its_unit(untraced, capsys):
    wl, out = untraced
    assert out["result"]["correct"], out
    run.emit(wl, argparse.Namespace(seed=SEED, seconds=0.01, trace=0), out)
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for name, unit in workloads.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert any(line.startswith(f"metric {name} ") and line.endswith(f" {unit}")
                   for line in lines)
    for name, unit in workloads.REPORTED:
        assert any(line.startswith(f"reported {name} ") and line.endswith(f" {unit}")
                   for line in lines)
    assert any(line.startswith("env ") and "workers=1" in line for line in lines)


def _failed_checks(wl, out):
    return [name for name, ok, _ in workloads.run_checks(wl, out["cases"], SEED) if not ok]


def test_checks_fail_when_one_raster_value_is_perturbed(untraced):
    wl, out = untraced
    assert _failed_checks(wl, out) == []
    dim = wl.grid.count(";") + 1
    for case in out["cases"]:
        with open(case.raster) as fh:
            original = fh.read()
        header = original.splitlines()[0]
        table = np.loadtxt(case.raster, delimiter=",", skiprows=1, ndmin=2)
        for col in range(dim, table.shape[1]):
            bad = table.copy()
            bad[len(bad) // 2, col] += 1e-6
            np.savetxt(case.raster, bad, delimiter=",", header=header, comments="", fmt="%.17g")
            assert _failed_checks(wl, out), f"column {col} perturbation not caught"
        with open(case.raster, "w") as fh:
            fh.write(original)
    assert _failed_checks(wl, out) == []


def test_checks_fail_on_a_perturbed_nll_and_psi(untraced):
    wl, out = untraced
    case = out["cases"][0]
    for path, edit in [(case.infer_out, lambda d: d.update(nll=d["nll"] * (1 + 1e-6))),
                       (case.predictor, _perturb_psi)]:
        if path == case.predictor and wl.mode != "localized":
            continue
        with open(path) as fh:
            original = fh.read()
        doc = json.loads(original)
        edit(doc)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert _failed_checks(wl, out)
        with open(path, "w") as fh:
            fh.write(original)


def _perturb_psi(doc):
    """Perturb the diagonal entry of the first Psi row the check samples."""
    psi = doc["localized"]["psi_lower"]
    m = psi["order"]
    row = int(np.random.default_rng(SEED).choice(m, size=min(checks.PSI_ROWS, m),
                                                 replace=False)[0])
    k = next(k for k, (r, c) in enumerate(zip(psi["rows"], psi["cols"])) if r == c == row)
    psi["vals"][k] += 1e-6


def _same(a, b):
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def _bindings():
    snapshot = {}
    for mod in tracing.kernelfield_modules():
        for key, val in vars(mod).items():
            snapshot[(mod.__name__, key)] = val
            if isinstance(val, type) and val.__module__.startswith("kernelfield"):
                for attr, member in vars(val).items():
                    snapshot[(mod.__name__, key, attr)] = member
    return snapshot


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_counts_repeat_and_bindings_are_restored(name, tmp_path):
    wl = TINY[name]
    before = _bindings()
    first = _run(wl, tmp_path / "a", trace=True)
    assert _same(_bindings(), before)
    second = _run(wl, tmp_path / "b", trace=True)
    for out in (first, second):
        assert out["result"]["correct"], out
        assert set(out["result"]["metrics"]) == {m for m, *_ in tracing.PER_LAYER}
    counts = lambda out: {m: out["result"]["metrics"][m] for m in tracing.COUNT_METRICS}
    assert counts(first) == counts(second)
    metrics = first["result"]["metrics"]
    busy = {"global-grid": "linalg.solve.calls",
            "localized-grid": "linalg.dense_spd_inverse.calls",
            "mle-2d": "inference.objective_evals",
            "operators-1d": "obsmodel.kernel_value.calls"}
    assert metrics[busy[name]] > 0
    assert metrics["obsmodel.kernel_vector.calls"] > 0


def test_bindings_are_restored_when_the_traced_code_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            assert not _same(_bindings(), before)
            raise RuntimeError("boom")
    assert _same(_bindings(), before)


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "global-grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
