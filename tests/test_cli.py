import json

import numpy as np
import pytest

from kernelfield.cli import main

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


def test_range_search_reports_eta_within_bounds(tmp_path, inputs, capsys):
    model = write_json(tmp_path / "untapered.json", UNTAPERED_MODEL)
    assert infer(inputs[0], model, "--eta-bounds", "0.1,3") == 0
    doc = strict_json(capsys.readouterr().out)
    assert np.isfinite(doc["eta"]) and 0.1 <= doc["eta"] <= 3.0
    assert np.isfinite(doc["nll"]) and doc["converged"] is True


def test_infer_on_noisy_observations_exit_3(tmp_path, capsys):
    obs = tmp_path / "noisy.csv"
    obs.write_text("x1,x2,kind,value,error_var,p1,p2\n0,0,point,1.0,0.5,,\n"
                   "1,0,point,2.0,,,\n2.5,0,point,0.5,,,\n")
    assert infer(str(obs), write_json(tmp_path / "model.json", UNTAPERED_MODEL)) == 3
    assert "observation errors is not supported" in capsys.readouterr().err


@pytest.mark.parametrize("bounds", ["0,inf;0,1", "0.1", "0,1;0,1,2", "nan,1", "1,0"])
def test_bad_synth_bounds_exit_2(tmp_path, capsys, bounds):
    rc = main(["synth", "--m", "3", "--bounds", bounds, "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    bad = next(part for part in bounds.split(";") if part != "0,1")
    assert f"--bounds axis {bad!r} must be lo,hi with finite lo < hi" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("version", [2, None, "1"])
def test_unsupported_predictor_version_exit_2(tmp_path, inputs, capsys, version):
    predictor = fit(tmp_path, *inputs)
    with open(predictor) as fh:
        doc = json.load(fh)
    assert doc["version"] == 1
    doc["version"] = version
    write_json(tmp_path / "bad.json", doc)
    capsys.readouterr()
    rc = main(["grid", "--predictor", str(tmp_path / "bad.json"), "--grid", "0,4,3;0,4,3",
               "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    assert f"bad.json: predictor file version {version!r} is not the supported version 1" in \
        capsys.readouterr().err
