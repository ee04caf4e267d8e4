import json
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
from kernelfield import (AVG, DERIV, POINT, CorrelationModel, Observation, ObservationSet,
                         fit_global, fit_localized, predict, predict_variance,
                         read_observations_csv, write_observations_csv)
from kernelfield.cli import load_predictor, main, save_predictor, synthetic_observations
from kernelfield.localized import variance_localized

from conftest import mixed_1d_lattice

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
    assert np.isfinite(doc["nll"]) and doc["converged"] is True


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


@pytest.mark.parametrize("version", [1, 2, None, "3"])
def test_unsupported_predictor_version_exit_2(tmp_path, inputs, capsys, version):
    predictor = fit(tmp_path, *inputs)
    with open(predictor) as fh:
        doc = json.load(fh)
    assert doc["version"] == 3
    doc["version"] = version
    write_json(tmp_path / "bad.json", doc)
    capsys.readouterr()
    rc = main(["grid", "--predictor", str(tmp_path / "bad.json"), "--grid", "0,4,3;0,4,3",
               "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    assert f"bad.json: predictor file version {version!r} is not the supported version 3" in \
        capsys.readouterr().err


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


def mixed_1d_set():
    """1D points, some noisy, and interval integrals: the point sites and the
    exact point sites differ."""
    rng = np.random.default_rng(11)
    obs = [Observation(POINT, np.array([x]), float(np.sin(x)),
                       error_var=0.05 if i % 4 == 1 else 0.0)
           for i, x in enumerate(np.arange(0.0, 8.0, 0.3) + rng.uniform(0, 0.1, 27))]
    obs += [Observation(AVG, np.array([lo, lo + 0.5]), float(rng.normal(0, 0.5)))
            for lo in (0.7, 3.1, 5.6)]
    return ObservationSet(obs)


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
    fitted = fit_localized(obs, MIXED_MODEL, 2, sigma2=1.3, count_negative_variance=True)
    assert fit_localized(obs, MIXED_MODEL, 2, sigma2=1.3).negative_variance_at_obs is None
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
    assert "predictor file version 1 is not the supported version 3" in capsys.readouterr().err


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


MALFORMED_COLUMNS = {
    "short value": lambda cols: cols["value"].pop(),
    "short kind": lambda cols: cols["kind"].pop(),
    "short site column": lambda cols: cols["site"][1].pop(),
    "one site column": lambda cols: cols["site"].pop(),
    "bounds of no avg row": _set("bounds", 0, value=[0.0]),
    "missing error_var": lambda cols: cols.pop("error_var"),
    "unknown kind": _set("kind", 2, value="slope"),
    "unhashable kind": _set("kind", 2, value=["point"]),
    "nan value": _set("value", 3, value=float("nan")),
    "null value": _set("value", 3, value=None),
    "text value": _set("value", 3, value="x"),
    "inf site": _set("site", 0, 4, value=float("inf")),
    "negative error_var": _set("error_var", 5, value=-1.0),
    "site not a list": _set("site", 0, value=3.0),
}


@pytest.mark.parametrize("mutate", MALFORMED_COLUMNS.values(), ids=list(MALFORMED_COLUMNS))
def test_malformed_observation_columns_exit_2(tmp_path, inputs, capsys, mutate):
    with open(fit(tmp_path, *inputs)) as fh:
        doc = json.load(fh)
    mutate(doc["observations"])
    capsys.readouterr()
    assert grid_exit_code(tmp_path, doc) == 2
    assert "bad.json: malformed observation columns" in capsys.readouterr().err


def test_predictor_columns_are_strict_json(tmp_path, inputs):
    with open(fit(tmp_path, *inputs)) as fh:
        cols = strict_json(fh.read())["observations"]
    assert cols["kind"] == ["point"] * 30 and len(cols["value"]) == 30
    assert np.array(cols["site"]).shape == (2, 30)
    assert cols["direction"] == [[], []] and cols["bounds"] == [[], []]


def assert_same_set(a, b):
    for x, y in zip([a.kinds, a.rep_points(), a.values(), a.error_vars(), a.directions,
                     a.bounds, a.mean_image()],
                    [b.kinds, b.rep_points(), b.values(), b.error_vars(), b.directions,
                     b.bounds, b.mean_image()]):
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


def saved_and_loaded(fitted):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.json")
        save_predictor(path, fitted)
        with open(path) as fh:
            strict_json(fh.read())
        return load_predictor(path)


def test_subnormal_residual_loads():
    obs = ObservationSet([Observation(DERIV, [0.0], 5e-324, 0.05)])
    fitted = fit_global(obs, CorrelationModel("matern52", 0.5), 0.3, 1.7)
    assert saved_and_loaded(fitted).weights.tobytes() == fitted.weights.tobytes()


@settings(max_examples=25, deadline=None)
@given(mixed_1d_lattice())
def test_mixed_1d_predictor_round_trip(obs):
    fitted = fit_global(obs, CorrelationModel("matern52", 0.5), 0.3, 1.7)
    loaded = saved_and_loaded(fitted)
    assert_same_set(loaded.obs, obs)
    assert (loaded.mu, loaded.sigma2) == (fitted.mu, fitted.sigma2)
    assert loaded.weights.tobytes() == fitted.weights.tobytes()


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 0.6), st.floats(0.0, 0.6), st.floats(-1e3, 1e3)),
                min_size=1, max_size=30))
def test_2d_point_predictor_round_trip(points):
    sites = np.array([(i % 6 + a, i // 6 + b) for i, (a, b, _) in enumerate(points)])
    obs = ObservationSet.from_arrays(np.zeros(len(points), dtype=np.int8), sites,
                                     [v for *_, v in points], np.zeros(len(points)))
    for fitted in (fit_global(obs, MIXED_MODEL, 0.1, 1.3),
                   fit_localized(obs, MIXED_MODEL, 2, sigma2=1.3)):
        loaded = saved_and_loaded(fitted)
        assert_same_set(loaded.obs, obs)
        assert loaded.weights.tobytes() == fitted.weights.tobytes()


def test_columnar_paths_build_no_observation(tmp_path, monkeypatch):
    obs = mixed_1d_set()
    fitted = fit_global(obs, MIXED_MODEL, 0.1, 1.3)

    def refuse(self):
        raise AssertionError("an Observation was built")

    monkeypatch.setattr(Observation, "__post_init__", refuse)
    path, csv_path = str(tmp_path / "p.json"), str(tmp_path / "o.csv")
    save_predictor(path, fitted)
    assert load_predictor(path).obs.m == obs.m
    write_observations_csv(csv_path, obs)
    assert read_observations_csv(csv_path).m == obs.m
    assert obs.with_values(np.zeros(obs.m)).m == obs.m
    assert synthetic_observations(10, [(0.0, 1.0)], 1).m == 10


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
    for field in ("model", "dim", "weights", "observations", "factor_order")
    if (mode, field) != ("localized", "factor_order")])
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
@given(st.integers(2, 200), st.floats(0.5, 20.0), st.integers(0, 2 ** 16), st.booleans())
@example(30, 3.0, 1, True)  # RCM runs, but its band does not fit: dense in natural order
@example(60, 1.0, 1, True)  # a full row: no RCM, dense in natural order
@example(200, 20.0, 1, True)  # band storage
@example(200, 20.0, 1, False)  # untapered: dense
def test_global_round_trip_keeps_the_factor(m, side, seed, tapered):
    obs = synthetic_observations(m, [(0.0, side), (0.0, side)], seed)
    fitted = fit_global(obs, CorrelationModel("matern52", 0.5, 1.5 if tapered else None))
    loaded = saved_and_loaded(fitted)
    assert_same_factor(loaded.inverse, fitted.inverse)
    if not tapered:
        assert fitted.inverse.storage == "dense"


@pytest.fixture
def band_predictor(tmp_path):
    """A global predictor file whose factor is in band storage, and its document."""
    obs = str(tmp_path / "obs.csv")
    assert main(["synth", "--m", "200", "--bounds", "0,20;0,20", "--seed", "1",
                 "--out", obs]) == 0
    path = fit(tmp_path, obs, write_json(tmp_path / "model.json", TAPERED_MODEL))
    with open(path) as fh:
        doc = json.load(fh)
    assert sorted(doc["factor_order"]) == list(range(200))
    return path, doc


def _replace(k, value):
    def edit(order):
        order[k] = value
        return order
    return edit


BAD_FACTOR_ORDERS = {
    "short": lambda order: order[:-1],
    "long": lambda order: order + [0],
    "repeated index": lambda order: order[:-1] + order[:1],
    "index m": _replace(0, 200),
    "negative index": _replace(0, -1),
    "huge index": _replace(0, 10 ** 400),
    "float index": lambda order: [float(i) for i in order],
    "one float index": lambda order: [float(order[0])] + order[1:],
    "bool index": lambda order: [bool(i) if i in (0, 1) else i for i in order],
    "text index": lambda order: [str(order[0])] + order[1:],
    "not a list": lambda order: {"perm": order},
    "a number": lambda order: 0,
    "empty": lambda order: [],
    "band does not fit": lambda order: sorted(order),  # natural order of a 2-D set
}


@pytest.mark.parametrize("edit", BAD_FACTOR_ORDERS.values(), ids=list(BAD_FACTOR_ORDERS))
def test_bad_factor_order_exit_2(tmp_path, capsys, band_predictor, edit):
    doc = band_predictor[1]
    doc["factor_order"] = edit(doc["factor_order"])
    rc, err = grid_error(tmp_path, capsys, doc)
    assert rc == 2
    want = ("factor_order: the band does not fit" if edit is BAD_FACTOR_ORDERS["band does not fit"]
            else "factor_order must be null or a permutation of the 200 observation indices")
    assert f"bad.json: {want}" in err


@pytest.mark.parametrize("order", ["reversed", "null"])
def test_any_valid_factor_order_loads_the_same_predictor(tmp_path, band_predictor, order):
    path, doc = band_predictor
    doc["factor_order"] = doc["factor_order"][::-1] if order == "reversed" else None
    other = load_predictor(write_json(tmp_path / "other.json", doc))
    saved = load_predictor(path)
    assert other.inverse.storage == ("band" if order == "reversed" else "dense")
    assert other.inverse.perm.tolist() == (doc["factor_order"] or list(range(200)))
    nodes = np.random.default_rng(2).uniform(0.0, 20.0, (50, 2))
    for got, want in ((other.inverse.logdet(), saved.inverse.logdet()),
                      (predict_variance(other, nodes), predict_variance(saved, nodes))):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


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


def _repeat_an_entry(psi, flip):
    k = next(k for k, (r, c) in enumerate(zip(psi["rows"], psi["cols"])) if r != c)
    row, col = psi["rows"][k], psi["cols"][k]
    psi["rows"].append(col if flip else row)
    psi["cols"].append(row if flip else col)
    psi["vals"].append(0.0)


MALFORMED_FIELDS = [
    *[pytest.param(mode, ".".join(path), _edit(*path, fn=fn), id=f"{mode}-{path[-1]}-{name}")
      for mode in ("global", "localized")
      for path in [("weights",)] + [("observations", c) for c in ("value", "error_var", "site")]
      for name, fn in NUMBER_EDITS.items()],
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
    # numpy reads [0.3, true] as [0.3, 1.0]; the weights then no longer fit
    with open(fit(tmp_path, *inputs, mode=mode)) as fh:
        doc = json.load(fh)
    _edit(*path, fn=_at(3, True))(doc)
    rc, err = grid_error(tmp_path, capsys, doc)
    assert rc == 2 and refusal in err


# Modules that kernelfield imports only in the function that needs them.
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
    obs = [Observation(POINT, [x], float(np.sin(x))) if i % 3 == 0 else
           Observation(DERIV, [x], float(np.cos(x)), direction=[1.0]) if i % 3 == 1 else
           Observation(AVG, [x, x + 0.2], float(0.2 * np.sin(x))) for i, x in enumerate(sites)]
    return ObservationSet(obs)


def test_cli_loads_only_the_scipy_it_uses(tmp_path):
    """Each deferred module stays out of a process until a command needs it."""
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
    phases = [  # (commands, modules that must be loaded, modules that must not be)
        ([["synth", "--m", "200", "--bounds", "0,20;0,20", "--seed", "1",
           "--out", files["pts.csv"]]]
         + pipeline(files["pts.csv"], "untapered", grid_2d)
         + pipeline(files["ops.csv"], "gauss2", grid_1d)
         + [["example-a", "--out-prefix", ""]], (), DEFERRED),
        (pipeline(files["pts.csv"], "tapered", grid_2d)
         + pipeline(files["pts.csv"], "tapered", grid_2d, "--mode", "localized"),
         ("scipy.sparse.csgraph",), ("scipy.optimize", "scipy.integrate")),
        ([["infer", "--obs", files["pts.csv"], "--model", models["untapered"],
           "--eta-bounds", "0.1,3"]], ("scipy.optimize",), ("scipy.integrate",)),
        (pipeline(files["mixed.csv"], "mixed", grid_1d)[:2], ("scipy.integrate",), ()),
    ]
    src = os.path.dirname(os.path.dirname(kernelfield.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, "-c", IMPORT_GUARD,
                          json.dumps([commands for commands, *_ in phases]), *DEFERRED],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    for (commands, needed, absent), seen in zip(phases, json.loads(run.stdout)):
        names = [argv[0] for argv in commands]
        assert all(seen[name][1] for name in needed), f"{needed} not all loaded after {names}"
        loaded = [name for name in absent if seen[name] == [False, True]]
        assert not loaded, f"{loaded} loaded by {names}"
