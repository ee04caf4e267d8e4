import base64
import contextlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kernelfield
from kernelfield import (AVG, DERIV, POINT, CorrelationModel, ObservationSet, SparseSymmetric,
                         assemble, cli, fit_global, fit_localized, localized, predict,
                         predict_variance, read_observations_csv, write_observations_csv)
from kernelfield.cli import load_predictor, main, save_predictor, synthetic_observations
from kernelfield.localized import variance_localized
from kernelfield.obsmodel import KINDS

from conftest import mixed_1d_lattice, observation_set, well_separated_points
from oracles import kriging_predict

TAPERED_MODEL = {"base": {"kind": "matern52", "scale": 0.5}, "taper_range": 1.5,
                 "mu": "estimate", "sigma2": "estimate"}


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def write_points(path, rows):
    lines = ["x1,x2,kind,value,error_var,p1,p2"]
    lines += [f"{x1},{x2},point,{v},,," for x1, x2, v in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def inputs(tmp_path):
    rng = np.random.default_rng(5)
    rows = [(x1, x2, v) for (x1, x2), v in zip(rng.uniform(0, 4, (30, 2)), rng.normal(size=30))]
    return (write_points(tmp_path / "obs.csv", rows),
            write_json(tmp_path / "model.json", TAPERED_MODEL))


def fit(tmp_path, obs, model, mode="global"):
    out = str(tmp_path / f"{mode}.json")
    assert main(["fit", "--obs", obs, "--model", model, "--mode", mode, "--out", out]) == 0
    return out


def binary(a, dtype):
    """``a`` as a binary array object of a predictor file, written with numpy
    and base64 alone."""
    a = np.ascontiguousarray(a, dtype=dtype)
    return {"dtype": dtype, "shape": list(a.shape),
            "data": base64.b64encode(a.tobytes()).decode("ascii")}


def unbinary(obj):
    """A writable copy of the array of a binary array object."""
    raw = base64.b64decode(obj["data"], validate=True)
    return np.frombuffer(raw, obj["dtype"]).reshape(obj["shape"]).copy()


@pytest.mark.parametrize("mode", ["global", "localized"])
def test_fit_reads_a_csv_with_a_byte_order_mark(tmp_path, inputs, mode):
    marked, plain = tmp_path / "marked.csv", tmp_path / "plain"
    with open(inputs[0], "rb") as fh:
        marked.write_bytes(b"\xef\xbb\xbf" + fh.read())
    plain.mkdir()
    got, want = fit(tmp_path, str(marked), inputs[1], mode), fit(plain, *inputs, mode)
    with open(got, "rb") as a, open(want, "rb") as b:
        assert a.read() == b.read()


def test_duplicate_signed_zero_points_exit_2(tmp_path, capsys):
    obs = write_points(tmp_path / "dup.csv", [(0.0, 1.0, 2.0), (1.0, 1.0, 0.5), (-0.0, 1.0, 3.0)])
    model = write_json(tmp_path / "model.json", TAPERED_MODEL)
    assert main(["fit", "--obs", obs, "--model", model, "--out", str(tmp_path / "p.json")]) == 2
    assert "duplicate exact point observations" in capsys.readouterr().err


def test_non_finite_grid_bounds_exit_2(tmp_path, inputs, capsys):
    predictor = fit(tmp_path, *inputs)
    capsys.readouterr()
    rc = main(["grid", "--predictor", predictor, "--grid", "nan,1,5;0,1,5",
               "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    assert "grid bounds must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["global", "localized"])
def test_weights_of_wrong_length_exit_2(tmp_path, inputs, capsys, mode):
    predictor = fit(tmp_path, *inputs, mode=mode)
    with open(predictor) as fh:
        doc = json.load(fh)
    doc["weights"] = doc["weights"][:-1]
    write_json(tmp_path / "bad.json", doc)
    capsys.readouterr()
    rc = main(["grid", "--predictor", str(tmp_path / "bad.json"), "--grid", "0,4,3;0,4,3",
               "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    assert "bad.json: 29 weights for 30 observations" in capsys.readouterr().err


def test_tampered_global_weight_exit_2(tmp_path, inputs, capsys):
    predictor = fit(tmp_path, *inputs)
    with open(predictor) as fh:
        doc = json.load(fh)
    assert np.array_equal(load_predictor(predictor).weights, doc["weights"])
    doc["weights"][7] *= 1.0 + 1e-6
    write_json(tmp_path / "bad.json", doc)
    capsys.readouterr()
    rc = main(["grid", "--predictor", str(tmp_path / "bad.json"), "--grid", "0,4,3;0,4,3",
               "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    assert "bad.json: the weights do not solve" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["global", "localized"])
def test_grid_of_another_dimension_exit_2(tmp_path, inputs, capsys, mode):
    predictor = fit(tmp_path, *inputs, mode=mode)
    capsys.readouterr()
    rc = main(["grid", "--predictor", predictor, "--grid", "0,4,3", "--out",
               str(tmp_path / "r.csv")])
    assert rc == 2
    assert "grid dimension 1 != predictor dimension 2" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_tampered_localized_weight_exit_2(tmp_path, inputs, capsys):
    predictor = fit(tmp_path, *inputs, mode="localized")
    with open(predictor) as fh:
        doc = json.load(fh)
    assert np.array_equal(load_predictor(predictor).weights, doc["weights"])
    doc["weights"][7] += 5.0
    write_json(tmp_path / "bad.json", doc)
    capsys.readouterr()
    rc = main(["grid", "--predictor", str(tmp_path / "bad.json"), "--grid", "0,4,3;0,4,3",
               "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    assert "bad.json: the weights are not the approximate inverse" in capsys.readouterr().err


@pytest.mark.parametrize("taper_range, storage", [(1.5, "band"), (None, "dense")])
def test_fit_summary_reports_the_factor(tmp_path, capsys, taper_range, storage):
    obs = str(tmp_path / "obs.csv")
    assert main(["synth", "--m", "200", "--bounds", "0,20;0,20", "--seed", "1",
                 "--out", obs]) == 0
    model = write_json(tmp_path / "model.json", dict(TAPERED_MODEL, taper_range=taper_range))
    capsys.readouterr()
    fit(tmp_path, obs, model)
    stats = json.loads(capsys.readouterr().out)["matrix"]
    assert stats["factor_storage"] == storage
    if storage == "band":
        assert 0 < stats["bandwidth"] < 99
    else:
        assert stats["bandwidth"] == 199
    assert 0.0 < stats["min_pivot"] <= 1.0


def test_fit_summary_counts_underflowed_entries(tmp_path, capsys):
    # Untapered gauss2 is exactly 0 beyond about 27 ranges: at range 0.3 the
    # far pairs of this 19.5-long row of sites underflow.  An untapered matrix
    # stores every pair all the same, and is factored densely.
    rng = np.random.default_rng(4)
    obs = write_points(tmp_path / "obs.csv",
                       [(0.5 * k, 0.0, v) for k, v in enumerate(rng.normal(size=40))])
    model = write_json(tmp_path / "model.json", {"base": {"kind": "gauss2", "scale": 0.3},
                                                 "mu": "estimate", "sigma2": "estimate"})
    capsys.readouterr()
    predictor = fit(tmp_path, obs, model)
    stats = json.loads(capsys.readouterr().out)["matrix"]
    assert (stats["nnz_lower"], stats["density"], stats["max_row_nnz"]) == (820, 1.0, 40)
    assert (stats["factor_storage"], stats["bandwidth"]) == ("dense", 39)
    assert load_predictor(predictor).inverse.storage == "dense"


def test_fit_summary_reports_the_matrix_in_both_modes(tmp_path, capsys):
    # Both fits assemble S; only the global one factors it.
    obs = str(tmp_path / "obs.csv")
    assert main(["synth", "--m", "400", "--bounds", "0,20;0,20", "--seed", "1",
                 "--out", obs]) == 0
    model = write_json(tmp_path / "model.json", TAPERED_MODEL)
    stats = {}
    for mode in ("global", "localized"):
        capsys.readouterr()
        predictor = fit(tmp_path, obs, model, mode)
        stats[mode] = json.loads(capsys.readouterr().out)
    shared = ("order", "nnz_lower", "density", "max_row_nnz")
    assert stats["localized"]["matrix"] == {key: stats["global"]["matrix"][key] for key in shared}
    assert stats["localized"]["matrix"]["order"] == 400
    assert stats["global"]["matrix"]["factor_storage"] == "band"
    # Psi stores no zero, so its neighbourhood sizes are its full view's row lengths.
    counts = np.diff(load_predictor(predictor).inverse.full().indptr)
    assert stats["localized"]["neighborhood_sizes"] == {
        "min": int(counts.min()), "mean": float(counts.mean()), "max": int(counts.max())}


@pytest.mark.parametrize("mode", ["global", "localized"])
def test_fit_reports_the_time_of_each_stage(tmp_path, inputs, capsys, mode):
    capsys.readouterr()
    fit(tmp_path, *inputs, mode)
    timing = json.loads(capsys.readouterr().out)["timing_s"]
    assert sorted(timing) == ["fit", "read", "save", "total"]
    assert all(seconds >= 0.0 for seconds in timing.values())
    stages = timing["read"] + timing["fit"] + timing["save"]
    assert stages == pytest.approx(timing["total"], rel=0.0, abs=1e-9)  # to rounding


def test_approximate_inverse_of_wrong_order_exit_2(tmp_path, inputs, capsys):
    predictor = fit(tmp_path, *inputs, mode="localized")
    with open(predictor) as fh:
        doc = json.load(fh)
    doc["localized"]["psi_lower"]["order"] = 31
    write_json(tmp_path / "bad.json", doc)
    capsys.readouterr()
    rc = main(["grid", "--predictor", str(tmp_path / "bad.json"), "--grid", "0,4,3;0,4,3",
               "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    assert "bad.json: approximate inverse of order 31 for 30 observations" in \
        capsys.readouterr().err


UNTAPERED_MODEL = {"base": {"kind": "matern52", "scale": 1.0}, "taper_range": None,
                   "mu": "estimate", "sigma2": "estimate"}


def strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not valid JSON")
    return json.loads(text, parse_constant=reject)


def infer(obs, model, *extra):
    return main(["infer", "--obs", obs, "--model", model, *extra])


@pytest.mark.parametrize("bounds", ["0.1", "0.1,inf", "nan,1", "0.1,1,2", "3,0.1", "0,1", "a,b"])
def test_bad_eta_bounds_exit_2(tmp_path, inputs, capsys, bounds):
    assert infer(*inputs, "--eta-bounds", bounds) == 2
    assert "--eta-bounds must be lo,hi with 0 < lo < hi < inf" in capsys.readouterr().err


def test_eta_bounds_in_localized_mode_exit_2(inputs, capsys):
    assert infer(*inputs, "--mode", "localized", "--eta-bounds", "0.1,3") == 2
    assert "needs --mode global" in capsys.readouterr().err


def test_localized_infer_writes_null_nll(inputs, capsys):
    assert infer(*inputs, "--mode", "localized") == 0
    doc = strict_json(capsys.readouterr().out)
    assert doc["nll"] is None and np.isfinite(doc["sigma2"])


def test_vanishing_variance_writes_null_nll(tmp_path, capsys):
    obs = write_points(tmp_path / "flat.csv", [(float(i), 0.0, 0.0) for i in range(5)])
    assert infer(obs, write_json(tmp_path / "model.json", UNTAPERED_MODEL)) == 0
    doc = strict_json(capsys.readouterr().out)
    assert doc["nll"] is None and doc["sigma2"] == 0.0


@pytest.mark.parametrize("mode", ["global", "localized"])
def test_zero_variance_estimate_exit_3(tmp_path, capsys, mode):
    # Two equal values out of each other's reach: the residuals vanish.
    obs = write_points(tmp_path / "two.csv", [(0.0, 0.0, 2.5), (7.0, 0.0, 2.5)])
    model = write_json(tmp_path / "model.json", TAPERED_MODEL)
    capsys.readouterr()
    assert main(["fit", "--obs", obs, "--model", model, "--mode", mode,
                 "--out", str(tmp_path / "p.json")]) == 3
    assert "estimated sigma2 is not positive" in capsys.readouterr().err
    assert not (tmp_path / "p.json").exists()
    if mode == "global":  # the documented null likelihood of a vanishing variance
        assert infer(obs, model) == 0
        doc = strict_json(capsys.readouterr().out)
        assert doc["nll"] is None and doc["sigma2"] == 0.0
    else:
        assert infer(obs, model, "--mode", mode) == 3
        assert "estimated sigma2 is not positive" in capsys.readouterr().err


def test_range_search_refuses_vanishing_residuals_exit_3(tmp_path, capsys):
    # Out of each other's reach at every range tried: S = I, the residuals vanish.
    obs = write_points(tmp_path / "two.csv", [(0.0, 0.0, 2.5), (7.0, 0.0, 2.5)])
    model = write_json(tmp_path / "model.json", TAPERED_MODEL)
    assert infer(obs, model, "--eta-bounds", "0.1,3") == 3
    assert "zero variance estimate; residuals vanish" in capsys.readouterr().err


@pytest.mark.parametrize("row", ["1.0,2.0,deriv,1.0,,1.0,0.0", "1.0,2.0,avg,1.0,,0.0,1.0"])
def test_operator_row_in_2d_exit_2(tmp_path, capsys, row):
    path = tmp_path / "obs.csv"
    path.write_text(f"x1,x2,kind,value,error_var,p1,p2\n0.5,0.5,point,1.0,,,\n{row}\n")
    model = write_json(tmp_path / "model.json", TAPERED_MODEL)
    capsys.readouterr()
    assert main(["fit", "--obs", str(path), "--model", model,
                 "--out", str(tmp_path / "p.json")]) == 2
    assert "line 3: deriv and avg observations are 1D only" in capsys.readouterr().err


def test_range_search_reports_eta_within_bounds(tmp_path, inputs, capsys):
    model = write_json(tmp_path / "untapered.json", UNTAPERED_MODEL)
    assert infer(inputs[0], model, "--eta-bounds", "0.1,3") == 0
    doc = strict_json(capsys.readouterr().out)
    assert np.isfinite(doc["eta"]) and 0.1 <= doc["eta"] <= 3.0
    # The values are independent draws, so the likelihood rises toward range
    # zero and the search ends at the bracket's lower end, not converged.
    assert doc["eta"] < 0.1 + 1e-5
    assert np.isfinite(doc["nll"]) and doc["converged"] is False


@pytest.mark.parametrize("model", [TAPERED_MODEL, UNTAPERED_MODEL], ids=["tapered", "untapered"])
def test_duplicate_points_in_range_search_exit_2(tmp_path, capsys, model):
    obs = write_points(tmp_path / "dup.csv", [(0.0, 1.0, 2.0), (1.0, 1.0, 0.5), (-0.0, 1.0, 3.0)])
    assert infer(obs, write_json(tmp_path / "model.json", model), "--eta-bounds", "0.1,3") == 2
    assert capsys.readouterr().err == (
        "error: duplicate exact point observations at one location (indices 0 and 2) "
        "make the inter-correlation matrix singular\n")


def test_infer_on_noisy_observations_exit_3(tmp_path, capsys):
    obs = tmp_path / "noisy.csv"
    obs.write_text("x1,x2,kind,value,error_var,p1,p2\n0,0,point,1.0,0.5,,\n"
                   "1,0,point,2.0,,,\n2.5,0,point,0.5,,,\n")
    assert infer(str(obs), write_json(tmp_path / "model.json", UNTAPERED_MODEL)) == 3
    assert "observation errors is not supported" in capsys.readouterr().err


def test_range_search_on_noisy_observations_exit_3(tmp_path, capsys):
    obs = tmp_path / "noisy.csv"
    obs.write_text("x1,x2,kind,value,error_var,p1,p2\n0,0,point,1.0,0.5,,\n"
                   "1,0,point,2.0,,,\n2.5,0,point,0.5,,,\n")
    model = write_json(tmp_path / "model.json", UNTAPERED_MODEL)
    assert infer(str(obs), model, "--eta-bounds", "0.1,3") == 3
    assert capsys.readouterr().err == (
        "error: variance estimation with observation errors is not supported\n")


@pytest.mark.parametrize("bounds", ["0,inf;0,1", "0.1", "0,1;0,1,2", "nan,1", "1,0"])
def test_bad_synth_bounds_exit_2(tmp_path, capsys, bounds):
    rc = main(["synth", "--m", "3", "--bounds", bounds, "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    bad = next(part for part in bounds.split(";") if part != "0,1")
    assert f"--bounds axis {bad!r} must be lo,hi with finite lo < hi" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("version", [1, 2, 3, 4, None, "5"])
def test_unsupported_predictor_version_exit_2(tmp_path, inputs, capsys, version):
    predictor = fit(tmp_path, *inputs)
    with open(predictor) as fh:
        doc = json.load(fh)
    assert doc["version"] == 5
    doc["version"] = version
    write_json(tmp_path / "bad.json", doc)
    capsys.readouterr()
    rc = main(["grid", "--predictor", str(tmp_path / "bad.json"), "--grid", "0,4,3;0,4,3",
               "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    assert f"bad.json: predictor file version {version!r} is not the supported version 5" in \
        capsys.readouterr().err


def version_4(doc, path):
    """A version 5 document as version 4 wrote it: a global file, saved at
    ``path``, also kept its factor's order ``factor_order``, the int64
    permutation of a band factor (``null`` for a dense one)."""
    old = json.loads(json.dumps(doc))
    if old["mode"] == "global":
        factor = load_predictor(path).inverse
        old["factor_order"] = binary(factor.perm, "<i8") if factor.storage == "band" else None
    old["version"] = 4
    return old


def version_3(doc):
    """A version 4 document as version 3 wrote it: its binary arrays (the
    observation columns, kinds by name, and a global file's factor order) as
    JSON lists."""
    old = json.loads(json.dumps(doc))
    cols = old["observations"]
    cols.update((name, unbinary(obj).tolist()) for name, obj in cols.items())
    cols["kind"] = [KINDS[code] for code in cols["kind"]]
    old.update([(name, unbinary(obj).tolist()) for name, obj in old.items()
                if isinstance(obj, dict) and "dtype" in obj])
    old["version"] = 3
    return old


@pytest.mark.parametrize("mode", ["global", "localized"])
def test_version_3_file_exit_2(tmp_path, inputs, capsys, mode):
    path = fit(tmp_path, *inputs, mode=mode)
    with open(path) as fh:
        old = version_3(version_4(json.load(fh), path))
    rc, err = grid_error(tmp_path, capsys, old)
    assert rc == 2 and "bad.json: predictor file version 3 is not the supported version 5" in err
    old["version"] = 5  # its JSON lists are not binary arrays
    rc, err = grid_error(tmp_path, capsys, old)
    assert rc == 2
    assert "observations.kind must be an array object of dtype '|i1'" in err


@pytest.mark.parametrize("command", ["fit", "infer"])
@pytest.mark.parametrize("mode", ["global", "localized"])
@pytest.mark.parametrize("workers", ["0", "-1"])
def test_non_positive_workers_exit_2(tmp_path, inputs, capsys, command, mode, workers):
    extra = ["--out", str(tmp_path / "p.json")] if command == "fit" else []
    rc = main([command, "--obs", inputs[0], "--model", inputs[1], "--mode", mode,
               "--workers", workers, *extra])
    assert rc == 2
    assert "--workers must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "infer"])
@pytest.mark.parametrize("mode", ["global", "localized"])
@pytest.mark.parametrize("case, code, message", [
    ("k0", 2, "k must be a positive integer"),
    ("untapered", 2, "requires a finite-range (tapered) model"),
    ("empty", 3, "from an empty observation set"),
])
def test_refused_runs_exit_codes(tmp_path, inputs, capsys, command, mode, case, code, message):
    obs, model, extra = inputs[0], inputs[1], []
    if case == "k0":
        extra = ["--k", "0"]
    elif case == "untapered":
        model = write_json(tmp_path / "untapered.json", UNTAPERED_MODEL)
    else:
        obs = write_points(tmp_path / "empty.csv", [])
    if command == "fit":
        extra += ["--out", str(tmp_path / "p.json")]
    rc = main([command, "--obs", obs, "--model", model, "--mode", mode, *extra])
    if case == "untapered" and mode == "global":  # the global fit takes any model
        assert rc == 0
        return
    assert rc == code
    assert message in capsys.readouterr().err
    assert not (tmp_path / "p.json").exists()


@pytest.mark.parametrize("command", ["fit", "infer"])
@pytest.mark.parametrize("k", ["100000000000000000000", "1" + "0" * 400], ids=["1e20", "1e400"])
def test_k_beyond_sys_maxsize_exits_2(tmp_path, inputs, capsys, command, k):
    # 1e20 once fitted a file that grid refused; 1e400 overflowed float(k) * taper_range
    extra = ["--out", str(tmp_path / "p.json")] if command == "fit" else []
    rc = main([command, "--obs", inputs[0], "--model", inputs[1], "--mode", "localized",
               "--k", k, *extra])
    assert rc == 2
    assert f"k must be a positive integer no larger than {sys.maxsize}" in \
        capsys.readouterr().err
    assert not (tmp_path / "p.json").exists()


def test_fit_at_k_sys_maxsize_writes_a_file_grid_loads(tmp_path, inputs):
    out = str(tmp_path / "p.json")
    assert main(["fit", "--obs", inputs[0], "--model", inputs[1], "--mode", "localized",
                 "--k", str(sys.maxsize), "--out", out]) == 0
    assert main(["grid", "--predictor", out, "--grid", "0,4,3;0,4,3",
                 "--out", str(tmp_path / "r.csv")]) == 0


def test_example_a_weights_and_refusals(capsys):
    assert main(["example-a", "--out-prefix", ""]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["weights"] == [0.9992489065501217, -0.0008487217470239765, 2.2387620753530677]
    assert (doc["range"], doc["values"], doc["raster"]) == (1.0, [1.0, 0.0, 2.0], None)
    for args, message in ((["--values", "1,2"], "example-a needs exactly three observed values"),
                          (["--range", "0"], "range must be positive")):
        assert main(["example-a", "--out-prefix", "", *args]) == 2
        assert message in capsys.readouterr().err


UNNAMED_REFUSALS = {  # each once exited 2 with a message that named no field
    "dim true": ("dim", True, "dim must be a positive JSON integer, got True"),
    "dim 1.0": ("dim", 1.0, "dim must be a positive JSON integer, got 1.0"),
    "dim string": ("dim", "1", "dim must be a positive JSON integer, got '1'"),
    "dim null": ("dim", None, "dim must be a positive JSON integer, got None"),
    "grid count 2.5": ("--grid", "0,1,2.5", "grid axis '0,1,2.5' must be min,max,count"),
    "grid min a": ("--grid", "a,1,3", "grid axis 'a,1,3' must be min,max,count"),
    "values x": ("--values", "1,x,2", "--values must be comma-separated numbers: '1,x,2'"),
    "seed -1": ("--seed", "-1", "--seed must be a non-negative integer, got -1"),
}


@pytest.mark.parametrize("field, value, message", UNNAMED_REFUSALS.values(),
                         ids=list(UNNAMED_REFUSALS))
def test_each_refusal_names_its_field(tmp_path, inputs, capsys, field, value, message):
    predictor, out = fit(tmp_path, *inputs), str(tmp_path / "out.csv")
    if field == "dim":
        doc = json.loads((tmp_path / "global.json").read_text())
        doc["dim"] = value
        predictor = write_json(tmp_path / "bad.json", doc)
    argv = {"dim": ["grid", "--predictor", predictor, "--grid", "0,4,3;0,4,3", "--out", out],
            "--grid": ["grid", "--predictor", predictor, "--grid", value, "--out", out],
            "--values": ["example-a", "--out-prefix", "", "--values", value],
            "--seed": ["synth", "--m", "5", "--bounds", "0,1", "--seed", value, "--out", out]}
    capsys.readouterr()
    assert main(argv[field]) == 2
    assert message in capsys.readouterr().err


def mixed_1d_set():
    """1D points, some noisy, and interval integrals: the point sites and the
    exact point sites differ."""
    rng = np.random.default_rng(11)
    rows = [(POINT, x, float(np.sin(x)), 0.05 if i % 4 == 1 else 0.0)
            for i, x in enumerate(np.arange(0.0, 8.0, 0.3) + rng.uniform(0, 0.1, 27))]
    rows += [(AVG, (lo, lo + 0.5), float(rng.normal(0, 0.5))) for lo in (0.7, 3.1, 5.6)]
    return observation_set(rows)


MIXED_MODEL = CorrelationModel("matern52", 0.6, 1.2)


@pytest.mark.parametrize("mode", ["global", "localized"])
def test_save_load_save_is_byte_identical(tmp_path, mode):
    obs = mixed_1d_set()
    if mode == "global":
        fitted = fit_global(obs, MIXED_MODEL, 0.1, 1.3)
    else:
        fitted = fit_localized(obs, MIXED_MODEL, 2, sigma2=1.3)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_predictor(str(first), fitted)
    loaded = load_predictor(str(first))
    save_predictor(str(second), loaded)
    assert first.read_bytes() == second.read_bytes()
    assert (loaded.mu, loaded.sigma2) == (fitted.mu, fitted.sigma2)
    assert np.array_equal(loaded.weights, fitted.weights)
    if mode == "global":
        return
    assert loaded.deviation_var == fitted.deviation_var
    for got, want in zip(loaded.inverse.lower_entries(), fitted.inverse.lower_entries()):
        assert np.array_equal(got, want)
    assert loaded.negative_variance_at_obs is None


def test_localized_site_diagnostics(tmp_path, capsys):
    obs = mixed_1d_set()
    fitted = fit_localized(obs, MIXED_MODEL, 2, sigma2=1.3)
    points = obs.point_mask()
    exact = points & (obs.error_vars() == 0.0)
    assert exact.sum() < points.sum()
    raw = variance_localized(fitted, obs.rep_points()[points])
    assert fitted.negative_variance_at_obs == np.count_nonzero(raw < -1e-12 * fitted.sigma2)
    err = obs.values()[exact] - predict(fitted, obs.rep_points()[exact])
    assert fitted.deviation_var == pytest.approx(np.mean(err * err), rel=1e-12)

    csv_path, summary = str(tmp_path / "mixed.csv"), tmp_path / "summary.json"
    write_observations_csv(csv_path, obs)
    model = write_json(tmp_path / "model.json", {
        "base": {"kind": "matern52", "scale": 0.6}, "taper_range": 1.2,
        "mu": "estimate", "sigma2": 1.3})
    assert main(["fit", "--obs", csv_path, "--model", model, "--mode", "localized",
                 "--out", str(tmp_path / "p.json"), "--summary", str(summary)]) == 0
    doc = json.loads(summary.read_text())
    assert doc["negative_variance_at_obs"] == fitted.negative_variance_at_obs
    assert doc["deviation_var"] == fitted.deviation_var


def test_localized_pipeline_builds_no_full_view_of_psi(tmp_path, inputs, monkeypatch):
    # Psi is multiplied on its stored lower triangle: fitting, saving, loading
    # and rasterizing take full views of S alone (its rows, for the gather of
    # the sub-matrices and the site diagnostics).
    psis, viewed, full = [], [], SparseSymmetric.full

    def recording_full(self):
        viewed.append(self)
        return full(self)

    def keeping(make):
        def kept(*args, **kwargs):
            psis.append(make(*args, **kwargs))
            return psis[-1]
        return kept

    monkeypatch.setattr(SparseSymmetric, "full", recording_full)
    monkeypatch.setattr(localized, "approximate_inverse", keeping(localized.approximate_inverse))
    monkeypatch.setattr(cli, "_psi_from_entries", keeping(cli._psi_from_entries))
    predictor = fit(tmp_path, *inputs, mode="localized")
    assert main(["grid", "--predictor", predictor, "--grid", "0,4,5;0,4,5",
                 "--out", str(tmp_path / "r.csv")]) == 0
    assert len(psis) == 2 and viewed  # the fit's Psi and the loaded one; S's views
    assert not any(a is psi for a in viewed for psi in psis)


def grid_exit_code(tmp_path, doc):
    write_json(tmp_path / "bad.json", doc)
    return main(["grid", "--predictor", str(tmp_path / "bad.json"), "--grid", "0,4,3;0,4,3",
                 "--out", str(tmp_path / "r.csv")])


def grid_error(tmp_path, capsys, doc):
    """The exit code of ``grid`` on ``doc`` and what it wrote to stderr."""
    capsys.readouterr()
    return grid_exit_code(tmp_path, doc), capsys.readouterr().err


def test_version_1_predictor_file_exit_2(tmp_path, capsys):
    legacy = {"format": "kernelfield-predictor", "version": 1, "mode": "global",
              "model": dict(TAPERED_MODEL, mu=0.0, sigma2=1.0), "dim": 2,
              "observations": [{"kind": "point", "location": [1.0, 2.0], "value": 0.5,
                                "error_var": 0.0, "direction": None}],
              "weights": [0.5]}
    assert grid_exit_code(tmp_path, legacy) == 2
    assert "predictor file version 1 is not the supported version 5" in capsys.readouterr().err


BAD_DEVIATION_VARS = {"text": "x", "null": None, "nan": float("nan"), "inf": float("inf"),
                      "negative": -0.5, "list": [0.1], "bool": True, "huge int": 10 ** 400}


@pytest.mark.parametrize("value", BAD_DEVIATION_VARS.values(), ids=list(BAD_DEVIATION_VARS))
def test_bad_deviation_var_exit_2(tmp_path, inputs, capsys, value):
    with open(fit(tmp_path, *inputs, mode="localized")) as fh:
        doc = json.load(fh)
    doc["localized"]["deviation_var"] = value
    capsys.readouterr()
    assert grid_exit_code(tmp_path, doc) == 2
    assert "bad.json: localized.deviation_var must be a finite real >= 0" in \
        capsys.readouterr().err


BAD_LOCALIZED_FIELDS = {"k float": ("k", 2.7), "k bool": ("k", True), "k zero": ("k", 0),
                        "k negative": ("k", -3), "k text": ("k", "2"), "k null": ("k", None),
                        "k huge": ("k", 10 ** 400), "delta negative": ("delta", -1.0),
                        "delta nan": ("delta", float("nan")), "delta text": ("delta", "3.0"),
                        "delta of k 1": ("delta", 1.5), "delta bool": ("delta", True)}


@pytest.mark.parametrize("field, value", BAD_LOCALIZED_FIELDS.values(),
                         ids=list(BAD_LOCALIZED_FIELDS))
def test_bad_localized_k_or_delta_exit_2(tmp_path, inputs, capsys, field, value):
    with open(fit(tmp_path, *inputs, mode="localized")) as fh:
        doc = json.load(fh)
    assert (doc["localized"]["k"], doc["localized"]["delta"]) == (2, 3.0)
    doc["localized"][field] = value
    capsys.readouterr()
    assert grid_exit_code(tmp_path, doc) == 2
    want = {"k": "localized.k must be a positive integer",
            "delta": "localized.delta must be k * taper_range"}[field]
    assert f"bad.json: {want}" in capsys.readouterr().err


@pytest.mark.parametrize("value", [0, 0.25])
def test_deviation_var_loads_as_a_float(tmp_path, inputs, value):
    with open(fit(tmp_path, *inputs, mode="localized")) as fh:
        doc = json.load(fh)
    doc["localized"]["deviation_var"] = value
    assert grid_exit_code(tmp_path, doc) == 0
    loaded = load_predictor(str(tmp_path / "bad.json")).deviation_var
    assert type(loaded) is float and loaded == value


@pytest.mark.parametrize("mode", ["Global", "LOCALIZED", "", None, 1, "missing"])
def test_unknown_predictor_mode_exit_2(tmp_path, inputs, capsys, mode):
    with open(fit(tmp_path, *inputs)) as fh:
        doc = json.load(fh)
    if mode == "missing":
        del doc["mode"]
    else:
        doc["mode"] = mode
    capsys.readouterr()
    assert grid_exit_code(tmp_path, doc) == 2
    assert "bad.json: mode must be global or localized" in capsys.readouterr().err


def test_localized_predictor_without_its_block_exit_2(tmp_path, inputs, capsys):
    with open(fit(tmp_path, *inputs, mode="localized")) as fh:
        doc = json.load(fh)
    del doc["localized"]
    capsys.readouterr()
    assert grid_exit_code(tmp_path, doc) == 2
    assert "bad.json: a localized predictor needs its 'localized' block" in \
        capsys.readouterr().err


def _set(*path, value):
    def mutate(cols):
        for key in path[:-1]:
            cols = cols[key]
        cols[path[-1]] = value
    return mutate


def _column(name, fn):
    """Replace the observation column ``name`` by ``fn`` of it."""
    def mutate(cols):
        cols[name] = fn(cols[name])
    return mutate


def _recoded(fn, dtype=None):
    """A binary array object whose array is ``fn`` of the given one's, written
    as ``dtype`` (by default the given one's)."""
    return lambda obj: binary(fn(unbinary(obj)), dtype or obj["dtype"])


def _element(k, value):  # element k of a binary array, in C order, set to value
    def fn(a):
        a.reshape(-1)[k] = value
        return a
    return _recoded(fn)


def _short_data(obj):  # the bytes of one element fewer than the shape holds
    return dict(obj, data=base64.b64encode(unbinary(obj).reshape(-1)[:-1].tobytes()).decode())


def _without_data(obj):
    return {key: obj[key] for key in obj if key != "data"}


def _no_array(field, dtype):
    return f"{field} must be an array object of dtype {dtype!r}"


MALFORMED_COLUMNS = {  # (edit of the columns, the refusal)
    "short value": (_column("value", _recoded(lambda a: a[:-1])),
                    "observations.value of shape (29,), expected (30,)"),
    "short kind": (_column("kind", _recoded(lambda a: a[:-1])),
                   "observations.site of shape (2, 30), expected (2, 29)"),
    "short site column": (_column("site", _recoded(lambda a: a[:, :-1])),
                          "observations.site of shape (2, 29), expected (2, 30)"),
    "one site column": (_column("site", _recoded(lambda a: a[:1])),
                        "observations.site of shape (1, 30), expected (2, 30)"),
    "bounds of no avg row": (_set("bounds", value=binary([[0.0], [1.0]], "<f8")),
                             "observations.bounds of shape (2, 1), expected (2, 0)"),
    "missing error_var": (lambda cols: cols.pop("error_var"), "'error_var'"),
    "unknown kind": (_column("kind", _element(2, 5)), "observation 2: unknown observation kind"),
    "unhashable kind": (_column("kind", lambda obj: dict(obj, dtype=[obj["dtype"]])),
                        _no_array("observations.kind", "|i1")),
    "nan value": (_column("value", _element(3, math.nan)),
                  "observation 3: observation location and value must be finite"),
    "null value": (_set("value", value=None), _no_array("observations.value", "<f8")),
    "text value": (_set("value", value="x"), _no_array("observations.value", "<f8")),
    "inf site": (_column("site", _element(4, math.inf)),
                 "observation 4: observation location and value must be finite"),
    "negative error_var": (_column("error_var", _element(5, -1.0)),
                           "observation 5: error_var must be a finite non-negative real"),
    "site not a list": (_column("site", lambda obj: dict(obj, shape=60)),
                        "observations.site.shape must be a list of non-negative JSON integers"),
    "value as <f4": (_column("value", _recoded(lambda a: a, "<f4")),
                     _no_array("observations.value", "<f8")),
    "value as >f8": (_column("value", _recoded(lambda a: a, ">f8")),
                     _no_array("observations.value", "<f8")),
    "kind as int64": (_column("kind", _recoded(lambda a: a, "<i8")),
                      _no_array("observations.kind", "|i1")),
    "kind as <f8": (_column("kind", _recoded(lambda a: a, "<f8")),
                    _no_array("observations.kind", "|i1")),
    "kind as |b1": (_column("kind", _recoded(lambda a: a != 0, "|b1")),
                    _no_array("observations.kind", "|i1")),
    "kind names": (_column("kind", lambda obj: ["point"] * 30),
                   _no_array("observations.kind", "|i1")),
    "value bad base64": (_column("value", lambda obj: dict(obj, data="*" + obj["data"][1:])),
                         "observations.value.data is not valid base64"),
    "site unpadded base64": (_column("site", lambda obj: dict(obj, data=obj["data"][:-1])),
                             "observations.site.data is not valid base64"),
    "value data not text": (_column("value", lambda obj: dict(obj, data=[obj["data"]])),
                            "observations.value.data must be a base64 string"),
    "value data missing": (_column("value", _without_data),
                           "observations.value.data must be a base64 string"),
    "value bytes short of the shape": (_column("value", _short_data),
                                       "observations.value holds 232 bytes, not the <f8 bytes "
                                       "of shape (30,)"),
    "kind bytes short of the shape": (_column("kind", _short_data),
                                      "observations.kind holds 29 bytes, not the |i1 bytes of "
                                      "shape (30,)"),
    "site negative shape": (_column("site", lambda obj: dict(obj, shape=[-2, 30])),
                            "observations.site.shape must be a list of non-negative JSON "
                            "integers"),
    "site float shape": (_column("site", lambda obj: dict(obj, shape=[2.0, 30])),
                         "observations.site.shape must be a list of non-negative JSON "
                         "integers"),
    "site bool shape": (_column("site", lambda obj: dict(obj, shape=[True, 30])),
                        "observations.site.shape must be a list of non-negative JSON "
                        "integers"),
    "2-D kind": (_column("kind", _recoded(lambda a: a.reshape(2, 15))),
                 "observations.kind of shape (2, 15), expected (m,)"),
}


@pytest.mark.parametrize("mutate, refusal", MALFORMED_COLUMNS.values(),
                         ids=list(MALFORMED_COLUMNS))
def test_malformed_observation_columns_exit_2(tmp_path, inputs, capsys, mutate, refusal):
    with open(fit(tmp_path, *inputs)) as fh:
        doc = json.load(fh)
    mutate(doc["observations"])
    capsys.readouterr()
    assert grid_exit_code(tmp_path, doc) == 2
    assert f"bad.json: malformed observation columns ({refusal}" in capsys.readouterr().err


def test_huge_dim_of_an_interval_set_exit_2(tmp_path, capsys):
    # A binary column declares its shape: (dim, 0) costs no bytes however
    # large dim is, and no (m, dim) array may be made of it.
    fitted = fit_global(observation_set([(AVG, (3.0 * i, 3.0 * i + 1.0), 1.0) for i in range(5)]),
                        CorrelationModel("matern52", 0.5), 0.0, 1.0)
    save_predictor(str(tmp_path / "avg.json"), fitted)
    doc = json.loads((tmp_path / "avg.json").read_text())
    doc["dim"] = 10 ** 12
    for name in ("site", "direction"):
        doc["observations"][name]["shape"] = [10 ** 12, 0]
    rc, err = grid_error(tmp_path, capsys, doc)
    assert rc == 2
    assert "malformed observation columns (dim 1000000000000: deriv and avg observations " \
        "are 1D only)" in err


def test_predictor_columns_are_strict_json(tmp_path, inputs):
    # Binary arrays in a strict JSON document; the weights stay JSON numbers.
    with open(fit(tmp_path, *inputs)) as fh:
        doc = strict_json(fh.read())
    cols = doc["observations"]
    assert {name: (obj["dtype"], obj["shape"], sorted(obj)) for name, obj in cols.items()} == {
        name: (dtype, shape, ["data", "dtype", "shape"]) for name, dtype, shape in (
            ("kind", "|i1", [30]), ("value", "<f8", [30]), ("error_var", "<f8", [30]),
            ("site", "<f8", [2, 30]), ("direction", "<f8", [2, 0]), ("bounds", "<f8", [2, 0]))}
    obs = read_observations_csv(inputs[0])
    assert unbinary(cols["kind"]).tolist() == [0] * 30
    for got, want in ((cols["value"], obs.values()), (cols["site"], obs.rep_points().T)):
        assert unbinary(got).tobytes() == np.ascontiguousarray(want).tobytes()
    assert len(doc["weights"]) == 30 and all(type(w) is float for w in doc["weights"])


def assert_same_array(x, y):
    assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


def assert_same_set(a, b):
    for x, y in zip([a.kinds, a.rep_points(), a.values(), a.error_vars(), a.directions,
                     a.bounds, a.mean_image()],
                    [b.kinds, b.rep_points(), b.values(), b.error_vars(), b.directions,
                     b.bounds, b.mean_image()]):
        assert_same_array(x, y)


def assert_same_predictor(loaded, fitted):
    """Every array of a loaded predictor equals the fitted one's in dtype,
    shape and bytes, and every number equals it."""
    assert (loaded.mode, loaded.model, loaded.mu, loaded.sigma2, loaded.k,
            loaded.deviation_var) == (fitted.mode, fitted.model, fitted.mu, fitted.sigma2,
                                      fitted.k, fitted.deviation_var)
    assert_same_set(loaded.obs, fitted.obs)
    assert_same_array(loaded.weights, fitted.weights)
    if fitted.mode == "global":
        assert_same_factor(loaded.inverse, fitted.inverse)
    else:
        for x, y in zip(loaded.inverse.lower_entries(), fitted.inverse.lower_entries()):
            assert_same_array(x, y)


def saved_and_loaded(fitted):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.json")
        save_predictor(path, fitted)
        with open(path) as fh:
            strict_json(fh.read())
        return load_predictor(path)


def test_subnormal_residual_loads():
    obs = observation_set([(DERIV, 0.0, 5e-324, 0.05)])
    fitted = fit_global(obs, CorrelationModel("matern52", 0.5), 0.3, 1.7)
    assert saved_and_loaded(fitted).weights.tobytes() == fitted.weights.tobytes()


@settings(max_examples=25, deadline=None)
@given(mixed_1d_lattice())
def test_mixed_1d_predictor_round_trip(obs):
    fitted = fit_global(obs, CorrelationModel("matern52", 0.5), 0.3, 1.7)
    assert_same_predictor(saved_and_loaded(fitted), fitted)
    assert_same_set(fitted.obs, obs)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 0.6), st.floats(0.0, 0.6), st.floats(-1e3, 1e3)),
                min_size=1, max_size=30))
@example([(0.3, 0.3, 1.0)] * 3)  # the tapered global factor is dense
@example([(0.3, 0.3, 1.0)] * 30)  # and in band storage
def test_2d_point_predictor_round_trip(points):
    sites = np.array([(i % 6 + a, i // 6 + b) for i, (a, b, _) in enumerate(points)])
    obs = ObservationSet(np.zeros(len(points), dtype=np.int8), sites,
                         [v for *_, v in points], np.zeros(len(points)))
    untapered = CorrelationModel(MIXED_MODEL.base_kind, MIXED_MODEL.base_scale)
    for fitted in (fit_global(obs, MIXED_MODEL, 0.1, 1.3), fit_global(obs, untapered, 0.1, 1.3),
                   fit_localized(obs, MIXED_MODEL, 2, sigma2=1.3)):
        assert_same_predictor(saved_and_loaded(fitted), fitted)
        assert_same_set(fitted.obs, obs)


BAD_NUMBERS = {"bool": True, "numeric text": "2.0", "nan text": "nan", "null": None,
               "list": [1.0], "huge int": 10 ** 400}
NUMBER_FIELDS = {"base.scale": ("base", "scale"), "taper_range": ("taper_range",),
                 "mu": ("mu",), "sigma2": ("sigma2",)}


@pytest.mark.parametrize("field, value", [  # a null taper_range is valid: an untapered model
    pytest.param(field, value, id=f"{field}-{name}") for field in NUMBER_FIELDS
    for name, value in BAD_NUMBERS.items() if (field, value) != ("taper_range", None)])
def test_model_numbers_must_be_json_numbers(tmp_path, inputs, capsys, field, value):
    bad = json.loads(json.dumps(TAPERED_MODEL))
    _set(*NUMBER_FIELDS[field], value=value)(bad)
    model = write_json(tmp_path / "bad_model.json", bad)
    capsys.readouterr()
    assert main(["fit", "--obs", inputs[0], "--model", model,
                 "--out", str(tmp_path / "p.json")]) == 2
    assert f"error: invalid {field}: {value!r} (a JSON number)" in capsys.readouterr().err

    with open(fit(tmp_path, *inputs)) as fh:
        doc = json.load(fh)
    _set("model", *NUMBER_FIELDS[field], value=value)(doc)
    rc, err = grid_error(tmp_path, capsys, doc)
    assert rc == 2
    assert f"bad.json: model: invalid {field}: {value!r} (a JSON number)" in err


def test_integer_model_numbers_are_accepted(tmp_path, inputs):
    model = write_json(tmp_path / "int_model.json", {
        "base": {"kind": "matern52", "scale": 1}, "taper_range": 2, "mu": 0, "sigma2": 1})
    loaded = load_predictor(fit(tmp_path, inputs[0], model))
    assert (loaded.model.base_scale, loaded.model.taper_range, loaded.mu, loaded.sigma2) == \
        (1.0, 2.0, 0.0, 1.0)


@pytest.mark.parametrize("mode, field", [
    (mode, field) for mode in ("global", "localized")
    for field in ("model", "dim", "weights", "observations")])
def test_missing_top_level_field_exit_2(tmp_path, inputs, capsys, mode, field):
    with open(fit(tmp_path, *inputs, mode=mode)) as fh:
        doc = json.load(fh)
    del doc[field]
    rc, err = grid_error(tmp_path, capsys, doc)
    assert rc == 2
    assert err == f"error: {tmp_path / 'bad.json'}: missing field {field!r}\n"


@pytest.mark.parametrize("doc", [[], "predictor", 3, None])
def test_predictor_file_not_an_object_exit_2(tmp_path, capsys, doc):
    rc, err = grid_error(tmp_path, capsys, doc)
    assert rc == 2
    assert "bad.json: not a saved predictor file" in err


def assert_same_factor(got, want):
    assert (got.storage, got.perm.dtype, got.lower.dtype) == \
        (want.storage, want.perm.dtype, want.lower.dtype)
    assert got.perm.tobytes() == want.perm.tobytes()
    assert (got.lower.shape, got.lower.tobytes()) == (want.lower.shape, want.lower.tobytes())


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 200), st.floats(0.5, 20.0), st.integers(0, 2 ** 16), st.booleans(),
       st.sampled_from([1, 2, 3]))
@example(30, 3.0, 1, True, 2)  # no axis sort's band fits: dense in natural order
@example(60, 1.0, 1, True, 2)  # a full row: no band in any order, dense in natural order
@example(200, 20.0, 1, True, 2)  # band storage
@example(200, 20.0, 1, False, 2)  # untapered: dense
@example(200, 20.0, 1, True, 1)  # band storage along the one axis
@example(200, 20.0, 1, True, 3)  # band storage, sorted along one of three axes
def test_global_round_trip_keeps_the_factor(m, side, seed, tapered, dim):
    # A load analyses the set's pattern afresh, as the fit does.  ``side`` is
    # a square's side; the box of another dimension keeps its mean spacing.
    edge = side * m ** (1.0 / dim - 0.5)
    obs = synthetic_observations(m, [(0.0, edge)] * dim, seed)
    fitted = fit_global(obs, CorrelationModel("matern52", 0.5, 1.5 if tapered else None))
    loaded = saved_and_loaded(fitted)
    assert_same_factor(loaded.inverse, fitted.inverse)
    if not tapered:
        assert fitted.inverse.storage == "dense"


def test_tapered_3d_fit_in_band_storage():
    # 150 sites in a cube at density 1: the analysis has three axes to sort along.
    rng = np.random.default_rng(4)
    side = 150 ** (1 / 3)
    sites = well_separated_points(rng, 150, 3, 0.0, side, 0.3)
    obs = observation_set([(POINT, p, float(np.cos(p).sum())) for p in sites], 3)
    model = CorrelationModel("matern52", 0.5, 1.5)
    fitted = fit_global(obs, model)
    f = fitted.inverse
    assert f.storage == "band" and 2 * (f.bandwidth + 1) <= 150
    assert any(np.array_equal(f.perm, np.argsort(sites[:, k], kind="stable")) for k in range(3))
    mat = assemble(obs, model, fitted.sigma2)
    for x in rng.uniform(0.0, side, (25, 3)):
        kp, kv = kriging_predict(obs, model, fitted.mu, fitted.sigma2, x, assembled=mat)
        assert predict(fitted, x) == pytest.approx(kp, abs=1e-8)
        assert predict_variance(fitted, x) == pytest.approx(max(kv, 0.0), abs=1e-8)
    assert np.abs(predict(fitted, sites) - obs.values()).max() <= 1e-8
    assert predict_variance(fitted, sites).max() <= 1e-8
    assert_same_factor(saved_and_loaded(fitted).inverse, f)


def test_version_4_file_exit_2(tmp_path, capsys):
    # A version 4 global file kept its band factor's order, which a load now
    # works out again as the fit does; the file is refused by its version.
    obs = str(tmp_path / "obs.csv")
    assert main(["synth", "--m", "200", "--bounds", "0,20;0,20", "--seed", "1",
                 "--out", obs]) == 0
    path = fit(tmp_path, obs, write_json(tmp_path / "model.json", TAPERED_MODEL))
    with open(path) as fh:
        doc = json.load(fh)
    assert "factor_order" not in doc
    old = version_4(doc, path)
    assert sorted(unbinary(old["factor_order"]).tolist()) == list(range(200))
    rc, err = grid_error(tmp_path, capsys, old)
    assert rc == 2 and "bad.json: predictor file version 4 is not the supported version 5" in err


def _edit(*path, fn):
    """Replace the field of a predictor document at ``path`` by ``fn`` of it."""
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = fn(doc[path[-1]])
    return edit


def _at(k, value):  # element k of a flat list, or of the first list of a nested one
    def fn(a):
        row = a[0] if isinstance(a[0], list) else a
        row[k] = value
        return a
    return fn


def _all_bools(a):
    return [_all_bools(v) if isinstance(v, list) else v != 0 for v in a]


NUMBER_EDITS = {"numeric text": _at(3, "0.5"), "all bools": _all_bools, "null": _at(3, None),
                "huge int": _at(3, 10 ** 400), "nested list": _at(3, [1.0]),
                "nan": _at(3, float("nan")), "infinity": _at(3, float("inf"))}
INDEX_EDITS = {"numeric text": _at(3, "3"), "all bools": _all_bools, "null": _at(3, None),
               "index 1.5": _at(3, 1.5), "index -1": _at(3, -1), "index m": _at(3, 30),
               "short": lambda a: a[:-1]}
ORDER_EDITS = {"numeric text": "30", "bool": True, "null": None, "float m": 30.0,
               "negative": -1, "list": [30]}  # m + 1: test_approximate_inverse_of_wrong_order
# Levels that a fit refuses (Python's json reads NaN and Infinity).
LEVEL_EDITS = {"sigma2": {"-1": -1.0, "0": 0.0, "nan": float("nan"), "infinity": float("inf")},
               "mu": {"nan": float("nan"), "infinity": float("inf"),
                      "-infinity": float("-inf")}}
PSI = ("localized", "psi_lower")
# The edits of NUMBER_EDITS as binary observation columns meet them: each is
# refused by the column's name, a NaN or an infinity by the set's own check
# of the observation it lands in.
COLUMN_EDITS = {
    "numeric text": lambda obj: dict(obj, shape=[str(n) for n in obj["shape"]]),
    "all bools": _recoded(lambda a: a != 0, "|b1"), "null": lambda obj: dict(obj, data=None),
    "huge int": lambda obj: dict(obj, shape=[10 ** 400] + obj["shape"][1:]),
    "nested list": lambda obj: dict(obj, shape=[obj["shape"]]),
    "nan": _element(3, math.nan), "infinity": _element(3, math.inf)}


def _repeat_an_entry(psi, flip):
    k = next(k for k, (r, c) in enumerate(zip(psi["rows"], psi["cols"])) if r != c)
    row, col = psi["rows"][k], psi["cols"][k]
    psi["rows"].append(col if flip else row)
    psi["cols"].append(row if flip else col)
    psi["vals"].append(0.0)


MALFORMED_FIELDS = [
    *[pytest.param(mode, "weights", _edit("weights", fn=fn), id=f"{mode}-weights-{name}")
      for mode in ("global", "localized") for name, fn in NUMBER_EDITS.items()],
    *[pytest.param(mode, "observation 3: " if name in ("nan", "infinity") else f"observations.{c}",
                   _edit("observations", c, fn=fn), id=f"{mode}-{c}-{name}")
      for mode in ("global", "localized") for c in ("value", "error_var", "site")
      for name, fn in COLUMN_EDITS.items()],
    *[pytest.param(mode, f"model.{level}", _set("model", level, value=value),
                   id=f"{mode}-model.{level}-{name}")
      for mode in ("global", "localized") for level, values in LEVEL_EDITS.items()
      for name, value in values.items()],
    *[pytest.param("localized", f"localized.psi_lower.{key}", _edit(*PSI, key, fn=fn),
                   id=f"psi-{key}-{name}")
      for key, edits in (("rows", INDEX_EDITS), ("cols", INDEX_EDITS), ("vals", NUMBER_EDITS))
      for name, fn in edits.items()],
    *[pytest.param("localized", "localized.psi_lower.order", _set(*PSI, "order", value=value),
                   id=f"psi-order-{name}")
      for name, value in ORDER_EDITS.items()],
    pytest.param("localized", "localized.psi_lower",
                 _edit(*PSI, fn=lambda psi: [psi["rows"], psi["cols"], psi["vals"]]),
                 id="psi-a-list"),
    pytest.param("localized", "localized.psi_lower", lambda doc: doc["localized"].pop("psi_lower"),
                 id="psi-missing"),
    pytest.param("localized", "localized.psi_lower.vals",
                 lambda doc: doc["localized"]["psi_lower"].pop("vals"), id="psi-vals-missing"),
    # an off-diagonal entry again with the value 0.0, as (i, j) and as (j, i):
    # summed, it would leave Psi and the weight check unchanged
    *[pytest.param("localized", "localized.psi_lower: repeated entry",
                   lambda doc, flip=flip: _repeat_an_entry(doc["localized"]["psi_lower"], flip),
                   id=f"psi-repeated-{name}")
      for name, flip in (("entry", False), ("transposed-entry", True))],
]


@pytest.mark.parametrize("mode, field, edit", MALFORMED_FIELDS)
def test_malformed_predictor_field_exit_2(tmp_path, inputs, capsys, mode, field, edit):
    with open(fit(tmp_path, *inputs, mode=mode)) as fh:
        doc = json.load(fh)
    assert len(doc["weights"]) == 30  # the m of the "index m" edits
    edit(doc)
    rc, err = grid_error(tmp_path, capsys, doc)
    assert rc == 2
    assert err.startswith(f"error: {tmp_path / 'bad.json'}: ") and field in err


@pytest.mark.parametrize("mode, path, refusal", [
    ("global", ("weights",), "the weights do not solve"),
    ("global", ("observations", "value"), "the weights do not solve"),
    ("localized", PSI + ("vals",), "the weights are not the approximate inverse")])
def test_a_bool_among_numbers_fails_the_weight_check(tmp_path, inputs, capsys, mode, path,
                                                     refusal):
    # numpy reads [0.3, true] as [0.3, 1.0]; the weights then no longer fit.  A
    # binary value column holds no bool: its element 3 becomes that 1.0.
    with open(fit(tmp_path, *inputs, mode=mode)) as fh:
        doc = json.load(fh)
    _edit(*path, fn=_element(3, 1.0) if path[0] == "observations" else _at(3, True))(doc)
    rc, err = grid_error(tmp_path, capsys, doc)
    assert rc == 2 and refusal in err


# scipy modules that kernelfield never imports: the range search is its own
# bounded Brent, tapered interval entries are closed forms and a band factor's
# order is a coordinate sort of the sites.
DEFERRED = ("scipy.optimize", "scipy.integrate", "scipy.sparse.csgraph")

IMPORT_GUARD = textwrap.dedent("""
    import contextlib, io, json, sys
    import numpy, scipy.linalg, scipy.sparse, scipy.spatial, scipy.special
    baseline = set(sys.modules)  # what scipy itself loads with the modules imported above
    from kernelfield.cli import main
    loaded = []
    for phase in json.loads(sys.argv[1]):
        for argv in phase:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, argv
        loaded.append({name: [name in baseline, name in sys.modules] for name in sys.argv[2:]})
    print(json.dumps(loaded))
""")


def operator_set_1d(m=30):
    """A 1-D jittered lattice of points, derivatives and interval integrals."""
    rng = np.random.default_rng(3)
    sites = 0.5 * (np.arange(m) + rng.uniform(-0.2, 0.2, m))
    return observation_set([(POINT, x, float(np.sin(x))) if i % 3 == 0 else
                            (DERIV, x, float(np.cos(x))) if i % 3 == 1 else
                            (AVG, (x, x + 0.2), float(0.2 * np.sin(x)))
                            for i, x in enumerate(sites)])


def test_cli_loads_only_the_scipy_it_uses(tmp_path):
    """No command loads a deferred module, the range search included."""
    files = {name: str(tmp_path / name) for name in ("pts.csv", "ops.csv", "mixed.csv")}
    write_observations_csv(files["ops.csv"], operator_set_1d())
    write_observations_csv(files["mixed.csv"], mixed_1d_set())
    models = {name: write_json(tmp_path / f"{name}.json", doc) for name, doc in {
        "tapered": TAPERED_MODEL, "untapered": UNTAPERED_MODEL,
        "gauss2": dict(UNTAPERED_MODEL, base={"kind": "gauss2", "scale": 0.5}),
        "mixed": dict(base={"kind": "matern52", "scale": 0.6}, taper_range=1.2, mu=0.1,
                      sigma2=1.3)}.items()}
    out, raster = str(tmp_path / "p.json"), str(tmp_path / "r.csv")

    def pipeline(obs, model, grid, *fit_extra):  # fit, grid and infer of one set
        return [["fit", "--obs", obs, "--model", models[model], "--out", out, *fit_extra],
                ["grid", "--predictor", out, "--grid", grid, "--out", raster],
                ["infer", "--obs", obs, "--model", models[model], *fit_extra]]

    grid_2d, grid_1d = "0,20,5;0,20,5", "0,15,9"
    phases = [
        [["synth", "--m", "200", "--bounds", "0,20;0,20", "--seed", "1",
          "--out", files["pts.csv"]]]
        + pipeline(files["pts.csv"], "untapered", grid_2d)
        + pipeline(files["ops.csv"], "gauss2", grid_1d)
        + [["example-a", "--out-prefix", ""]],
        pipeline(files["pts.csv"], "tapered", grid_2d)
        + pipeline(files["pts.csv"], "tapered", grid_2d, "--mode", "localized"),
        [["infer", "--obs", files["pts.csv"], "--model", models["untapered"],
          "--eta-bounds", "0.1,3"]],
        # tapered interval entries are closed forms too
        pipeline(files["mixed.csv"], "mixed", grid_1d)[:2],
    ]
    src = os.path.dirname(os.path.dirname(kernelfield.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, "-c", IMPORT_GUARD,
                          json.dumps(phases), *DEFERRED],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    for commands, seen in zip(phases, json.loads(run.stdout)):
        loaded = [name for name in DEFERRED if seen[name] == [False, True]]
        assert not loaded, f"{loaded} loaded by {[argv[0] for argv in commands]}"


# -- faulty numbers and repeated rows: exit 2 or 3, one error line ----------

def _fault_free_tables():
    """A valid 1D mixed-operator CSV and a valid 2D point CSV, as rows of
    fields, each with the models its runs take: (header, rows, models)."""
    rng = np.random.default_rng(2)
    ops = []
    for i, x in enumerate(0.6 * np.arange(12) + rng.uniform(0.0, 0.1, 12)):
        x, v = repr(float(x)), repr(float(np.sin(x)))
        ops.append([x, "point", v, "0", "", ""] if i % 3 == 0 else
                   [x, "deriv", v, "0", "-1" if i % 2 else "1", ""] if i % 3 == 1 else
                   [x, "avg", v, "0", x, repr(float(x) + 0.3)])
    points = [[repr(float(a)), repr(float(b)), "point", repr(float(np.cos(a + b))), "0", "", ""]
              for a, b in rng.uniform(0.0, 4.0, (12, 2))]
    return [("x1,kind,value,error_var,p1,p2", ops, (UNTAPERED_MODEL, TAPERED_MODEL)),
            ("x1,x2,kind,value,error_var,p1,p2", points, (TAPERED_MODEL, TAPERED_MODEL))]


FAULT_FREE = _fault_free_tables()
BAD_NUMBERS = ["nan", "inf", "-inf", "1.7e308"]


def _csv_text(header, rows):
    return "\n".join([header] + [",".join(row) for row in rows]) + "\n"


def _used_fields(row, dim):
    """The fields of a row that the reader turns into numbers it keeps, with
    the bad numbers each may take (a deriv row's p1 is a direction, whose
    size does not matter, so only a non-finite one is a fault)."""
    kind = row[dim]
    sites = [] if kind == "avg" else list(range(dim))
    fields = [(k, BAD_NUMBERS) for k in sites + [dim + 1, dim + 2]]
    if kind == "deriv":
        fields.append((dim + 3, BAD_NUMBERS[:3]))
    if kind == "avg":
        fields += [(dim + 3, BAD_NUMBERS), (dim + 4, BAD_NUMBERS)]
    return fields


@st.composite
def faulty_table(draw):
    """One fault-free table with one number made bad, or one row repeated."""
    header, rows, models = draw(st.sampled_from(FAULT_FREE))
    dim = header.split(",").index("kind")
    rows = [list(row) for row in rows]
    r = draw(st.integers(0, len(rows) - 1))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), list(rows[r]))
    else:
        field, numbers = draw(st.sampled_from(_used_fields(rows[r], dim)))
        rows[r][field] = draw(st.sampled_from(numbers))
    return _csv_text(header, rows), models


def _run_commands(tmp, table, models):
    """The exit codes and standard error of fit (both modes) and infer."""
    obs = os.path.join(tmp, "obs.csv")
    with open(obs, "w") as fh:
        fh.write(table)
    paths = [os.path.join(tmp, f"model{i}.json") for i in range(2)]
    for path, model in zip(paths, models):
        with open(path, "w") as fh:
            json.dump(model, fh)
    out = os.path.join(tmp, "p.json")
    runs = [["fit", "--obs", obs, "--model", paths[0], "--out", out],
            ["fit", "--obs", obs, "--model", paths[1], "--mode", "localized", "--out", out],
            ["infer", "--obs", obs, "--model", paths[0]]]
    results = []
    for argv in runs:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(argv)
        results.append((argv[:1] + argv[-2:], rc, err.getvalue()))
    return results


@pytest.mark.parametrize("case", range(len(FAULT_FREE)), ids=["ops-1d", "points-2d"])
def test_fault_free_tables_run(case):
    header, rows, models = FAULT_FREE[case]
    table = _csv_text(header, rows)
    with tempfile.TemporaryDirectory() as tmp:
        codes = [rc for _, rc, _ in _run_commands(tmp, table, models)]
    # The 1D set has derivatives, which a tapered (localized) model refuses.
    assert codes == ([0, 2, 0] if case == 0 else [0, 0, 0])


@settings(max_examples=60, deadline=None)
@given(faulty_table())
def test_a_bad_number_or_a_repeated_row_exits_2_or_3(fault):
    table, models = fault
    with tempfile.TemporaryDirectory() as tmp:
        for argv, rc, err in _run_commands(tmp, table, models):
            assert rc in (2, 3), (argv, rc, err)
            assert err.count("\n") == 1 and err.startswith("error: "), (argv, err)


@pytest.mark.parametrize("argv", [["fit"], ["fit", "--mode", "localized"], ["infer"],
                                  ["infer", "--eta-bounds", "0.1,3"]])
def test_derivatives_under_a_taper_exit_2(tmp_path, capsys, argv):
    obs = str(tmp_path / "ops.csv")
    write_observations_csv(obs, operator_set_1d())
    model = write_json(tmp_path / "model.json", TAPERED_MODEL)
    extra = ["--out", str(tmp_path / "p.json")] if argv[0] == "fit" else []
    assert main([*argv, "--obs", obs, "--model", model, *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: derivative observations need a correlation model that is "
                          "twice differentiable") and err.count("\n") == 1
    assert not (tmp_path / "p.json").exists()


def test_unwritable_or_unreadable_paths_exit_2(tmp_path, inputs, capsys):
    too_long = str(tmp_path / ("p" * 300 + ".json"))  # ENAMETOOLONG
    assert main(["fit", "--obs", inputs[0], "--model", inputs[1], "--out", too_long]) == 2
    assert "File name too long" in capsys.readouterr().err
    under_a_file = os.path.join(inputs[0], "x")  # NotADirectoryError
    assert main(["grid", "--predictor", under_a_file, "--grid", "0,1,3;0,1,3",
                 "--out", str(tmp_path / "r.csv")]) == 2
    assert "Not a directory" in capsys.readouterr().err


@pytest.mark.parametrize("values", [[1.7e308] * 20, [1e200, -1e200] * 10],
                         ids=["largest", "alternating"])
def test_overflowing_level_estimates_exit_3(tmp_path, capsys, values):
    rng = np.random.default_rng(8)
    sites = rng.uniform(0, 4, (20, 2))
    obs = write_points(tmp_path / "big.csv",
                       [(x1, x2, repr(v)) for (x1, x2), v in zip(sites, values)])
    model = write_json(tmp_path / "model.json", TAPERED_MODEL)
    out = str(tmp_path / "p.json")
    for argv in (["infer"], ["infer", "--mode", "localized"], ["fit", "--out", out],
                 ["fit", "--mode", "localized", "--out", out]):
        assert main([*argv, "--obs", obs, "--model", model]) == 3, argv
        assert "the estimated levels are not finite" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_an_overflowing_variance_is_not_called_indefinite(tmp_path):
    header, rows, models = FAULT_FREE[1]
    rows = [list(row) for row in rows]
    rows[4][3] = "1.7e308"  # here the variance's quadratic form overflows to -inf
    table = _csv_text(header, rows)
    for argv, rc, err in _run_commands(str(tmp_path), table, models):
        assert rc == 3 and "the estimated levels are not finite" in err, (argv, err)
        assert "sigma2 -inf" in err


def test_overflowing_levels_are_an_estimation_error():
    rng = np.random.default_rng(8)
    obs = ObservationSet(np.zeros(20, dtype=np.int8), rng.uniform(0, 4, (20, 2)),
                         np.full(20, 1.7e308), np.zeros(20))
    model = CorrelationModel("matern52", 0.5, 1.5)
    for fit_fn in (fit_global, lambda o, m: fit_localized(o, m, 2)):
        with pytest.raises(kernelfield.EstimationError, match="levels are not finite"):
            fit_fn(obs, model)


def test_a_site_too_far_to_compute_with_exits_3(tmp_path, capsys):
    obs = tmp_path / "far.csv"
    obs.write_text("x1,kind,value,error_var,p1,p2\n1.7e308,point,1.0,,,\n0.5,point,2.0,,,\n"
                   "1.5,point,0.5,,,\n")
    model = write_json(tmp_path / "model.json", UNTAPERED_MODEL)
    assert infer(str(obs), model) == 3
    assert capsys.readouterr().err == ("error: overflow encountered in square: an input "
                                       "number is too large to compute with\n")


@pytest.mark.parametrize("kind", ["gauss2", "matern52"])
def test_a_tiny_model_scale_leaves_the_sites_uncorrelated(tmp_path, capsys, kind):
    # Every correlation between distinct sites is exactly 0, so the levels are
    # the sample mean and the variance with divisor m.
    rng = np.random.default_rng(8)
    values = rng.normal(size=20)
    obs = write_points(tmp_path / "obs.csv", [(x1, x2, repr(float(v))) for (x1, x2), v
                                              in zip(rng.uniform(0, 4, (20, 2)), values)])
    model = write_json(tmp_path / "model.json", {"base": {"kind": kind, "scale": 1e-160}})
    assert infer(obs, model) == 0
    doc = strict_json(capsys.readouterr().out)
    assert doc["mu"] == pytest.approx(values.mean(), rel=1e-12)
    assert doc["sigma2"] == pytest.approx(np.var(values), rel=1e-12)


@pytest.mark.parametrize("kind, scale, var", [("matern52", 1e-150, 5.0 / 3.0 / 1e-150 ** 2),
                                               ("gauss2", 1e-100, 2.0 / 1e-100 ** 2)])
def test_a_derivative_row_at_a_tiny_model_scale(tmp_path, capsys, kind, scale, var):
    # The far point's slope is exactly 0 and no other pair correlates, so the
    # matrix is diag(1, var, 1), with var = -rho''(0) finite: the levels and
    # the likelihood are those of three independent rows.
    obs = tmp_path / "obs.csv"
    obs.write_text("x1,kind,value,error_var,p1,p2\n0,point,1.0,,,\n1,deriv,0.5,,1,\n"
                   "100000,point,2.0,,,\n")
    model = write_json(tmp_path / "model.json",
                       {"base": {"kind": kind, "scale": scale}, "mu": 0, "sigma2": 1})
    assert infer(str(obs), model) == 0
    doc = strict_json(capsys.readouterr().out)
    sigma2 = (0.5 + 0.25 / var) / 3.0
    assert doc["mu"] == 1.5 and doc["sigma2"] == pytest.approx(sigma2, rel=1e-15)
    assert doc["nll"] == pytest.approx(
        0.5 * (3.0 * np.log(2.0 * np.pi * sigma2) + np.log(var) + 3.0), rel=1e-13)


@pytest.mark.parametrize("scale, taper", [(1e-308, None), (1.0, 1e-310)],
                         ids=["base_scale", "taper_range"])
def test_a_scale_below_the_smallest_normal_float_exits_2(tmp_path, inputs, capsys, scale,
                                                         taper):
    # sqrt(5) / 1e-308 overflows, so the model is refused before it is used
    model = write_json(tmp_path / "model.json",
                       {"base": {"kind": "matern52", "scale": scale}, "taper_range": taper})
    assert infer(inputs[0], model) == 2
    assert f"must be a finite real of at least {sys.float_info.min!r}" in \
        capsys.readouterr().err


PUBLIC_NAMES = [
    "AVG", "ConfigError", "CorrelationModel", "DERIV", "EstimationError",
    "FactorizationError", "GridSpec", "KINDS", "KIND_CODES", "KernelPredictor", "MleResult",
    "ObservationParseError", "ObservationSet", "POINT", "SparseSymmetric",
    "UnsupportedOperatorError", "approximate_inverse", "assemble", "cholesky",
    "estimate_eta", "estimate_joint", "estimate_mu", "estimate_sigma2",
    "fit_global", "fit_localized", "kernel_vector", "predict",
    "predict_average", "predict_derivative", "predict_variance", "rasterize",
    "read_observations_csv", "write_observations_csv",
]


def test_the_package_exports_only_what_the_program_runs():
    from kernelfield import corrfn, linalg, obsmodel, predictor
    assert sorted(kernelfield.__all__) == PUBLIC_NAMES and len(PUBLIC_NAMES) == 33
    for name in PUBLIC_NAMES:
        assert getattr(kernelfield, name) is not None
    # The reference implementations the tests use live in tests/oracles.py.
    moved = ["eval_gauss2", "eval_matern52", "eval_spherical", "spot_check_nonneg_definite"]
    # Forms no command reaches are gone; these three stay in their modules,
    # where the benchmark's tracer wraps them, but the package does not export them.
    unexported = ["SpatialIndex", "cross_correlation", "kernel_value"]
    for owner, names in [(kernelfield, moved + ["kriging_predict"] + unexported),
                         (corrfn, moved + ["_check_lag", "_return_like"]),
                         (predictor, ["kriging_predict"]),
                         (corrfn.CorrelationModel, ["deriv1", "deriv2"]),
                         (predictor.GridSpec, ["n_nodes", "axes"]),
                         (linalg.SparseSymmetric, ["from_dense"]),
                         (linalg.CholeskyFactor, ["reconstruct"]),
                         (linalg.SpatialIndex, ["__len__"])]:
        for name in names:
            assert not hasattr(owner, name), (owner, name)
    assert callable(linalg.SpatialIndex.neighbors)
    assert callable(obsmodel.cross_correlation) and callable(obsmodel.kernel_value)
    direction = inspect.signature(predictor.predict_derivative).parameters["direction"]
    assert direction.default is inspect.Parameter.empty
