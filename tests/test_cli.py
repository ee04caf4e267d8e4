import json

import numpy as np
import pytest

from kernelfield import (AVG, POINT, CorrelationModel, Observation, ObservationSet, fit_global,
                         fit_localized, predict_localized, variance_localized,
                         write_observations_csv)
from kernelfield.cli import load_predictor, main, save_predictor

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


def test_tampered_localized_weight_exit_2(tmp_path, inputs, capsys):
    predictor = fit(tmp_path, *inputs, mode="localized")
    with open(predictor) as fh:
        doc = json.load(fh)
    assert np.array_equal(load_predictor(predictor).weights_star, doc["weights"])
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


@pytest.mark.parametrize("command", ["fit", "infer"])
@pytest.mark.parametrize("mode", ["global", "localized"])
@pytest.mark.parametrize("workers", ["0", "-1"])
def test_non_positive_workers_exit_2(tmp_path, inputs, capsys, command, mode, workers):
    extra = ["--out", str(tmp_path / "p.json")] if command == "fit" else []
    rc = main([command, "--obs", inputs[0], "--model", inputs[1], "--mode", mode,
               "--workers", workers, *extra])
    assert rc == 2
    assert "--workers must be a positive integer" in capsys.readouterr().err


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
    if mode == "global":
        assert (loaded.mu, loaded.sigma2) == (fitted.mu, fitted.sigma2)
        assert np.array_equal(loaded.weights, fitted.weights)
        return
    assert (loaded.mu_star, loaded.sigma2_star) == (fitted.mu_star, fitted.sigma2_star)
    assert np.array_equal(loaded.weights_star, fitted.weights_star)
    assert loaded.deviation_var == fitted.deviation_var
    for got, want in zip(loaded.approx_inverse.lower_entries(),
                         fitted.approx_inverse.lower_entries()):
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
    assert fitted.negative_variance_at_obs == np.count_nonzero(raw < -1e-12 * fitted.sigma2_star)
    err = obs.values()[exact] - predict_localized(fitted, obs.rep_points()[exact])
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
