import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kernelfield import (POINT, CorrelationModel, EstimationError, FactorizationError,
                         assemble, cholesky, estimate_eta, estimate_joint, estimate_mu,
                         estimate_sigma2, fit_localized, inference, linalg, obsmodel)
from kernelfield.cli import synthetic_observations
from kernelfield.inference import level_matrix, negative_log_likelihood, profile_levels
from kernelfield.linalg import CholeskyFactor, analyse
from kernelfield.obsmodel import AVG, DERIV, PairStructure

from conftest import dense_factor, observation_set, well_separated_points
from oracles import bounded_brent, from_dense, reconstruct


def spd_action(rng, n):
    b = rng.normal(size=(n, n))
    a = b.T @ b + np.eye(n)
    return a, np.linalg.inv(a)


def product_action(a):
    """``a`` applied by multiplication, as a sparse approximate inverse is."""
    return from_dense(a)


def spaced_point_set(rng, m, min_sep=0.5, values=None):
    hi = 2.5 * m * min_sep  # room to place m points at the requested separation
    pts = well_separated_points(rng, m, 1, 0.0, hi, min_sep)
    vals = rng.normal(size=m) if values is None else values
    return observation_set([(POINT, pts[i], float(vals[i])) for i in range(m)])


class TestEstimateMu:
    def test_identity_gives_sample_mean(self):
        values = np.array([1.0, 2.0, 6.0])
        assert estimate_mu(product_action(np.eye(3)), values, np.ones(3)) == pytest.approx(
            values.mean(), abs=1e-14)

    def test_single_observation(self):
        assert estimate_mu(product_action(np.eye(1)), np.array([3.7]), np.ones(1)) == 3.7

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_inverse_formula(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        a, inv = spd_action(rng, n)
        values = rng.normal(size=n)
        ones = np.ones(n)
        oracle = (ones @ inv @ values) / (ones @ inv @ ones)
        assert estimate_mu(dense_factor(a), values, ones) == pytest.approx(oracle, abs=1e-10)

    def test_singular_normalizer_raises(self):
        with pytest.raises(EstimationError):
            estimate_mu(product_action(np.zeros((2, 2))), np.array([1.0, 2.0]), np.ones(2))

    def test_is_quadratic_form_minimizer(self):
        rng = np.random.default_rng(11)
        a, inv = spd_action(rng, 6)
        values = rng.normal(size=6)
        mu_hat = estimate_mu(dense_factor(a), values, np.ones(6))

        def qform(mu):
            r = values - mu
            return r @ inv @ r

        assert qform(mu_hat + 1e-3) > qform(mu_hat)
        assert qform(mu_hat - 1e-3) > qform(mu_hat)


class TestEstimateSigma2:
    def test_identity_gives_population_variance(self):
        values = np.array([1.0, 2.0, 6.0])
        mu = values.mean()
        assert estimate_sigma2(product_action(np.eye(3)), values, mu, np.ones(3)) == pytest.approx(
            np.mean((values - mu) ** 2), abs=1e-14)

    def test_zero_when_residuals_vanish(self):
        values = np.full(4, 2.5)
        assert estimate_sigma2(product_action(np.eye(4)), values, 2.5, np.ones(4)) == 0.0

    def test_negative_estimate_is_refused(self):
        # An indefinite action, as a sparse approximate inverse can be.
        with pytest.raises(EstimationError, match="negative variance estimate"):
            estimate_sigma2(product_action(-np.eye(3)), np.array([1.0, 2.0, 6.0]), 0.0, np.ones(3))

    @given(st.integers(min_value=0, max_value=10**6),
           st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=40, deadline=None)
    def test_residual_scaling(self, seed, c):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        a, _ = spd_action(rng, n)
        values = rng.normal(size=n)
        mu = 0.4
        f = dense_factor(a)
        s1 = estimate_sigma2(f, values, mu, np.ones(n))
        s2 = estimate_sigma2(f, mu + c * (values - mu), mu, np.ones(n))
        assert s2 == pytest.approx(c * c * s1, rel=1e-9)

    def test_matches_dense_inverse_formula(self):
        rng = np.random.default_rng(5)
        a, inv = spd_action(rng, 7)
        values = rng.normal(size=7)
        oracle = (values - 0.3) @ inv @ (values - 0.3) / 7
        assert estimate_sigma2(dense_factor(a), values, 0.3, np.ones(7)) == pytest.approx(
            oracle, abs=1e-10)


def taper_family(eta):
    # range parameter drives both the shape scale and the support
    return CorrelationModel("gauss2", 0.5 * eta, taper_range=eta)


def stepped_taper_family(eta):
    return CorrelationModel("matern52", 0.3 * eta, 1.0 if eta < 1.2 else 2.0)


class TestEstimateEta:
    def test_objective_prefers_small_range_for_iid_data(self):
        # seeded sanity direction check: for uncorrelated data the profiled
        # objective should not improve as the range parameter grows
        rng = np.random.default_rng(21)
        obs = spaced_point_set(rng, 150, min_sep=0.5)
        objs = [negative_log_likelihood(obs, taper_family(eta), 0.0, 1.0)
                for eta in (0.3, 0.6, 1.2, 2.4)]
        assert all(objs[i] <= objs[i + 1] + 1e-9 for i in range(len(objs) - 1))

    def test_minimizer_beats_bracket_endpoints(self):
        rng = np.random.default_rng(22)
        obs = spaced_point_set(rng, 30, min_sep=0.4)
        lo, hi = 0.2, 3.0
        f_hat = estimate_eta(obs, taper_family, (lo, hi), 1e-4, 500).nll
        assert f_hat <= profile_levels(obs, taper_family(lo))[2] + 1e-9
        assert f_hat <= profile_levels(obs, taper_family(hi))[2] + 1e-9

    def test_two_observation_smoke(self):
        obs = observation_set([(POINT, 0.0, 1.0), (POINT, 1.0, 2.0)])
        result = estimate_eta(obs, taper_family, (0.5, 2.0), 1e-4, 500)
        assert 0.5 <= result.eta <= 2.0
        assert np.isfinite(result.nll)
        assert result.nll == profile_levels(obs, taper_family(result.eta))[2]

    def test_bad_bounds(self):
        obs = observation_set([(POINT, 0.0, 1.0)])
        with pytest.raises(ValueError):
            estimate_eta(obs, taper_family, (1.0, 0.5), 1e-4, 500)

    def test_rejects_observation_errors(self):
        obs = observation_set([(POINT, 0.0, 1.0, 0.5), (POINT, 1.0, 1.0)])
        with pytest.raises(EstimationError, match="observation errors"):
            estimate_eta(obs, taper_family, (0.5, 2.0), 1e-4, 500)

    @pytest.mark.parametrize("max_iter", [0, -1, 2.0, True])
    def test_refuses_a_cap_that_is_not_a_positive_integer(self, max_iter):
        obs = observation_set([(POINT, 0.0, 1.0), (POINT, 1.0, 2.0)])
        with pytest.raises(ValueError, match="max_iter must be a positive integer"):
            estimate_eta(obs, lambda eta: pytest.fail("a range was evaluated"), (0.5, 2.0),
                         1e-4, max_iter)

    @pytest.mark.parametrize("rel_tol", [math.nan, math.inf, 0.0, -1e-4, "1e-4", True])
    def test_refuses_a_tolerance_that_is_not_positive_and_finite(self, rel_tol):
        obs = observation_set([(POINT, 0.0, 1.0), (POINT, 1.0, 2.0)])
        with pytest.raises(ValueError, match="rel_tol must be a positive finite real"):
            estimate_eta(obs, lambda eta: pytest.fail("a range was evaluated"), (0.5, 2.0),
                         rel_tol, 500)


class TestEstimateJoint:
    def test_identity_limit_recovers_moments(self):
        rng = np.random.default_rng(31)
        obs = spaced_point_set(rng, 25, min_sep=0.5)
        # every eta in the bracket keeps the taper below the minimum spacing,
        # so the inter-correlation matrix is the identity throughout
        result = estimate_joint(obs, taper_family, (0.05, 0.2))
        values = obs.values()
        assert result.mu == pytest.approx(values.mean(), abs=1e-10)
        assert result.sigma2 == pytest.approx(np.mean((values - values.mean()) ** 2),
                                              abs=1e-10)
        assert not result.converged  # a flat likelihood: Brent ends at the top of the bracket

    def test_deterministic(self):
        rng = np.random.default_rng(32)
        obs = spaced_point_set(rng, 20, min_sep=0.45)
        r1 = estimate_joint(obs, taper_family, (0.3, 2.0))
        r2 = estimate_joint(obs, taper_family, (0.3, 2.0))
        assert r1 == r2

    def test_simulated_field_mean_within_three_se(self):
        rng = np.random.default_rng(33)
        pts = well_separated_points(rng, 200, 1, 0.0, 20.0, 0.06)
        model_true = taper_family(1.0)
        obs_geom = observation_set([(POINT, p, 0.0) for p in pts])
        mat = assemble(obs_geom, model_true, 1.0).to_dense()
        values = np.linalg.cholesky(mat) @ rng.standard_normal(200)  # mu=0, sigma2=1
        obs = observation_set([(POINT, p, v) for p, v in zip(pts, values)])
        result = estimate_joint(obs, taper_family, (0.4, 2.5))
        fhat = cholesky(assemble(obs, taper_family(result.eta), 1.0))
        se = np.sqrt(result.sigma2 / (np.ones(200) @ fhat.solve(np.ones(200))))
        assert abs(result.mu - 0.0) <= 3.0 * se
        assert result.converged

    def test_needs_two_observations(self):
        obs = observation_set([(POINT, 0.0, 1.0)])
        with pytest.raises(EstimationError):
            estimate_joint(obs, taper_family, (0.5, 2.0))


class TestLocalizedVsGlobal:
    def test_full_delta_estimates_match_global(self):
        rng = np.random.default_rng(41)
        pts = well_separated_points(rng, 30, 1, 0.0, 5.0, 0.12)
        values = np.sin(pts[:, 0]) + rng.normal(0, 0.2, 30)
        obs = observation_set([(POINT, pts[i], float(values[i])) for i in range(30)])
        model = CorrelationModel("matern52", 0.7, 1.0)
        f = fit_localized(obs, model, k=10)  # delta 10 >> diameter 5
        factor = cholesky(assemble(obs, model, 1.0))
        mu_g = estimate_mu(factor, obs.values(), obs.mean_image())
        s2_g = estimate_sigma2(factor, obs.values(), mu_g, obs.mean_image())
        assert f.mu == pytest.approx(mu_g, abs=1e-8)
        assert f.sigma2 == pytest.approx(s2_g, abs=1e-8)


class TestNll:
    def test_matches_direct_gaussian_density(self):
        rng = np.random.default_rng(51)
        obs = spaced_point_set(rng, 12, min_sep=0.4)
        model = CorrelationModel("matern52", 1.2)
        mu, s2 = 0.3, 1.7
        mat = s2 * assemble(obs, model, s2).to_dense()
        r = obs.values() - mu
        direct = 0.5 * (12 * np.log(2 * np.pi) + np.linalg.slogdet(mat)[1]
                        + r @ np.linalg.solve(mat, r))
        assert negative_log_likelihood(obs, model, mu, s2) == pytest.approx(direct, rel=1e-10)


def dense_profiled_nll(obs, model):
    """Profiled NLL (GLS mean and variance plugged in) from dense numpy algebra."""
    k = assemble(obs, model, 1.0).to_dense()
    m, y, a = obs.m, obs.values(), obs.mean_image()
    mu = (a @ np.linalg.solve(k, y)) / (a @ np.linalg.solve(k, a))
    r = y - mu * a
    s2 = r @ np.linalg.solve(k, r) / m
    return 0.5 * (m * np.log(2 * np.pi * s2) + np.linalg.slogdet(k)[1] + m)


def matern_family(eta):
    return CorrelationModel("matern52", eta)


def gauss_family(eta):
    return CorrelationModel("gauss2", eta)


def matern_2d_set():
    return synthetic_observations(30, [(0.0, 20.0), (0.0, 20.0)], 5)


def gauss_1d_lattice():
    # Neighbours 0.3-0.7 apart: the gauss2 matrix stops factoring near eta 3.3.
    rng = np.random.default_rng(7)
    x = 0.5 * np.arange(20) + rng.uniform(-0.1, 0.1, 20)
    values = np.sin(0.7 * x) + 0.1 * rng.normal(size=20)
    return observation_set([(POINT, xi, float(v)) for xi, v in zip(x, values)])


class TestProfiledSearch:
    def test_reaches_scan_minimum(self):
        obs = matern_2d_set()
        result = estimate_joint(obs, matern_family, (0.1, 3.0))
        scan = min(dense_profiled_nll(obs, matern_family(eta))
                   for eta in np.geomspace(0.1, 3.0, 200))
        assert result.converged
        assert result.nll <= scan + 1e-6
        assert result.nll == pytest.approx(
            dense_profiled_nll(obs, matern_family(result.eta)), rel=1e-10)

    def test_range_that_does_not_factor_never_wins(self):
        obs = gauss_1d_lattice()
        lo, hi = 0.1, 20.0
        # Brent's first probe lands where the matrix does not factor.
        with pytest.raises(FactorizationError):
            cholesky(assemble(obs, gauss_family(lo + 0.382 * (hi - lo)), 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = estimate_joint(obs, gauss_family, (lo, hi))
        assert np.isfinite(result.nll)
        assert lo <= result.eta <= hi
        scan = min(dense_profiled_nll(obs, gauss_family(eta))
                   for eta in np.geomspace(lo, 2.0, 200))
        assert result.nll <= scan + 1e-6

    def test_a_search_through_infinite_values_raises_no_floating_point_error(self):
        # The first probe (2.35) factors and the golden step after it (3.75)
        # does not; Brent's next parabola multiplies that inf by zero.  The
        # CLI runs under np.errstate(invalid="raise").
        with np.errstate(all="raise"):
            result = estimate_joint(gauss_1d_lattice(), gauss_family, (0.1, 6.0))
        assert result.converged and 0.1 < result.eta < 2.35

    def test_nothing_factors_raises(self):
        obs = gauss_1d_lattice()
        with pytest.raises(EstimationError, match="does not factor"):
            estimate_joint(obs, gauss_family, (8.0, 20.0))

    @pytest.mark.parametrize("bounds, at_end", [
        ((0.1, 0.25), True), ((0.001, 0.25), True), ((1.0, 3.0), True), ((0.001, 1.0), False),
    ], ids=["below", "below-wide", "above", "interior-wide"])
    def test_converged_only_inside_the_bracket(self, bounds, at_end):
        # The optimum is near 0.53 (test_reaches_scan_minimum).  At the wide
        # brackets Brent ends further than xatol = 1e-5 * lo from an end.
        lo, hi = bounds
        result = estimate_joint(matern_2d_set(), matern_family, bounds)
        assert result.iterations < 50  # stopped by its tolerance, not by its cap
        assert (min(result.eta - lo, hi - result.eta) < 1e-5) == at_end
        assert result.converged == (not at_end)

    def test_evaluation_cap_reports_not_converged(self):
        result = estimate_joint(matern_2d_set(), matern_family, (0.1, 3.0), max_iter=3)
        assert not result.converged
        assert result.iterations == 3
        assert np.isfinite(result.nll)

    def test_cap_holds_when_the_probes_leave_brent_one_evaluation(self, monkeypatch):
        # Ranges above 0.5 do not factor: the probes at 1.21 and 0.52 fail and
        # the one at 0.26 leaves Brent one of the three evaluations.
        real_profile_levels, evaluated = inference.profile_levels, []

        def failing_above_half(obs_set, model, structure=None):
            evaluated.append(model.base_scale)
            if model.base_scale > 0.5:
                raise FactorizationError(0)
            return real_profile_levels(obs_set, model, structure)

        monkeypatch.setattr(inference, "profile_levels", failing_above_half)
        result = estimate_eta(matern_2d_set(), matern_family, (0.1, 3.0), 1e-5, 3)
        assert len(evaluated) == result.iterations == 3
        assert evaluated[0] > evaluated[1] > 0.5 > evaluated[2] == result.eta
        assert not result.converged

    def test_cap_of_one_evaluation_answers_the_first_probe(self, monkeypatch):
        factored, real_cholesky = [], inference.cholesky
        monkeypatch.setattr(inference, "cholesky",
                            lambda *args: factored.append(1) or real_cholesky(*args))
        result = estimate_joint(matern_2d_set(), matern_family, (0.1, 3.0), max_iter=1)
        assert len(factored) == result.iterations == 1
        assert result.eta == 0.1 + inference._FIRST_PROBE * (3.0 - 0.1)
        assert not result.converged

    @pytest.mark.parametrize("case", ["matern-2d", "gauss-1d"])
    def test_iterations_count_search_factorizations(self, monkeypatch, case):
        obs, family, bounds = {
            "matern-2d": (matern_2d_set(), matern_family, (0.1, 3.0)),
            "gauss-1d": (gauss_1d_lattice(), gauss_family, (0.1, 20.0)),
        }[case]
        calls = {"search": 0, "all": 0}
        in_search = []
        real_cholesky, real_estimate_eta = inference.cholesky, inference.estimate_eta

        def counting_cholesky(*args, **kwargs):
            calls["all"] += 1
            calls["search"] += bool(in_search)
            return real_cholesky(*args, **kwargs)

        def marked_estimate_eta(*args, **kwargs):
            in_search.append(True)
            try:
                return real_estimate_eta(*args, **kwargs)
            finally:
                in_search.pop()

        monkeypatch.setattr(inference, "cholesky", counting_cholesky)
        monkeypatch.setattr(inference, "estimate_eta", marked_estimate_eta)
        result = estimate_joint(obs, family, bounds)
        assert result.iterations == calls["search"] == calls["all"]

    @pytest.mark.parametrize("family", [matern_family, lambda eta: CorrelationModel(
        "matern52", eta, 1.5)], ids=["untapered", "tapered"])
    def test_levels_at_the_estimate_reuse_the_search_structure(self, monkeypatch, family):
        obs = synthetic_observations(60, [(0.0, 8.0), (0.0, 8.0)], 3)
        eta = estimate_eta(obs, family, (0.1, 1.4), 1e-5, 50).eta
        mu, sigma2, nll = profile_levels(obs, family(eta))
        built, layouts, analyses, factored, in_search = [], [], [], [], []
        real_structure, real_analyse = inference.PairStructure, obsmodel.analyse
        real_layout = linalg._layout
        real_cholesky, real_estimate_eta = inference.cholesky, inference.estimate_eta

        def marked_estimate_eta(*args, **kwargs):
            in_search.append(True)
            try:
                return real_estimate_eta(*args, **kwargs)
            finally:
                in_search.pop()

        monkeypatch.setattr(inference, "PairStructure",
                            lambda *args: built.append(1) or real_structure(*args))
        monkeypatch.setattr(obsmodel, "analyse",  # one call per band search
                            lambda *args: analyses.append(1) or real_analyse(*args))
        monkeypatch.setattr(linalg, "_layout",  # one call per layout made
                            lambda *args: layouts.append(1) or real_layout(*args))
        monkeypatch.setattr(inference, "cholesky",
                            lambda *args: factored.append(bool(in_search)) or real_cholesky(*args))
        monkeypatch.setattr(inference, "estimate_eta", marked_estimate_eta)
        result = estimate_joint(obs, family, (0.1, 1.4))
        assert (result.eta, result.mu, result.sigma2,
                result.nll) == (eta, mu, sigma2, nll)  # bit for bit
        # one layout; a full (untapered) pattern is laid out with no band search
        tapered = family(eta).taper_range is not None
        assert (len(built), len(layouts), len(analyses)) == (1, 1, int(tapered))
        assert factored == [True] * result.iterations  # none after the search


class TestProfileLevels:
    def test_matches_gls_and_nll(self):
        rng = np.random.default_rng(52)
        obs = spaced_point_set(rng, 15, min_sep=0.4)
        model = CorrelationModel("matern52", 1.1)
        mu, s2, nll = profile_levels(obs, model)
        factor = cholesky(assemble(obs, model, 1.0))
        assert mu == pytest.approx(estimate_mu(factor, obs.values(), obs.mean_image()), rel=1e-12)
        assert s2 == pytest.approx(estimate_sigma2(factor, obs.values(), mu, obs.mean_image()),
                                   rel=1e-12)
        assert nll == pytest.approx(negative_log_likelihood(obs, model, mu, s2), rel=1e-12)
        assert nll == pytest.approx(dense_profiled_nll(obs, model), rel=1e-10)

    def test_vanishing_residuals_give_no_nll(self):
        # sigma2 = 0 has no likelihood: refused, as the fits refuse it.
        obs = observation_set([(POINT, float(i), 0.0) for i in range(4)])
        with pytest.raises(EstimationError, match="estimated sigma2 is not positive"):
            profile_levels(obs, CorrelationModel("matern52", 1.0))

    def test_fixed_variance_allows_observation_errors(self):
        obs = observation_set([(POINT, 0.0, 1.0, 0.5), (POINT, 1.0, 2.0)])
        model = CorrelationModel("matern52", 1.0)
        with pytest.raises(EstimationError):
            profile_levels(obs, model)
        factor = cholesky(level_matrix(obs, model, 2.0))
        mu = estimate_mu(factor, obs.values(), obs.mean_image())
        mat = 2.0 * assemble(obs, model, 2.0).to_dense()  # 2 R + diag(error_var)
        r = obs.values() - mu
        direct = 0.5 * (2 * np.log(2 * np.pi) + np.linalg.slogdet(mat)[1]
                        + r @ np.linalg.solve(mat, r))
        assert negative_log_likelihood(obs, model, mu, 2.0) == pytest.approx(direct, rel=1e-12)


def factor_or_pivot(factor):
    try:
        return factor()
    except FactorizationError as exc:
        return exc.pivot_index


@st.composite
def search_cases(draw):
    """A set, a range family and the ranges of a search through one structure:
    2D point sets, tapered or not, under Matern-5/2, and 1D sets of points,
    derivatives and intervals under untapered gauss2 or Matern-5/2.  Small
    gauss2 ranges underflow far entries to zero; large ones may not factor."""
    case = draw(st.sampled_from(["2d-tapered", "2d-untapered", "1d-gauss2", "1d-matern"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(2, 24))
    etas = draw(st.lists(st.floats(0.02, 3.0), min_size=2, max_size=4))
    if case.startswith("2d"):
        pts = well_separated_points(rng, m, 2, 0.0, 6.0, 0.3)
        obs = observation_set([(POINT, p, float(rng.normal())) for p in pts])
        taper = 1.5 if case == "2d-tapered" else None
        return obs, lambda eta: CorrelationModel("matern52", eta, taper), etas
    x = 0.5 * (np.arange(m) + rng.uniform(-0.2, 0.2, m))
    kinds = rng.choice([POINT, POINT, POINT, DERIV, AVG], m)
    kinds[0] = POINT  # the mean is estimable
    obs = observation_set([
        (DERIV, xi, float(rng.normal()), 0.0, rng.choice([-1.0, 1.0]))
        if kind == DERIV else (AVG, [xi - 0.1, xi + 0.1], float(rng.normal()))
        if kind == AVG else (POINT, xi, float(rng.normal()))
        for xi, kind in zip(x, kinds)])
    base = "gauss2" if case == "1d-gauss2" else "matern52"
    return obs, lambda eta: CorrelationModel(base, eta), etas


@st.composite
def taper_changing_cases(draw):
    """A 1D point set and a family whose taper range changes with the range
    (equal to it, or stepped), with ranges drawn as in :func:`search_cases`."""
    obs = spaced_point_set(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                           draw(st.integers(2, 24)), min_sep=0.35)
    family = draw(st.sampled_from([taper_family, stepped_taper_family]))
    return obs, family, draw(st.lists(st.floats(0.3, 2.5), min_size=2, max_size=4))


class TestPairStructureReuse:
    @given(st.one_of(search_cases(), taper_changing_cases()))
    @settings(max_examples=60, deadline=None)
    def test_search_factors_exactly_iterations_times(self, case):
        obs, family, etas = case
        lo, hi = min(etas), max(etas)
        assume(lo < hi)
        factored, asked = [], []

        def counting_cholesky(*args, **kwargs):
            factored.append(1)
            return linalg.cholesky(*args, **kwargs)

        def recorded_family(eta):
            asked.append(eta)
            return family(eta)

        with mock.patch.object(inference, "cholesky", counting_cholesky):
            try:
                result = estimate_joint(obs, recorded_family, (lo, hi))
            except EstimationError as exc:
                assume("does not factor" not in str(exc))  # no probe factors
                raise
        assert len(factored) == result.iterations
        assert result.eta in asked  # Brent answers with a range it evaluated
        assert (result.mu, result.sigma2, result.nll) == profile_levels(
            obs, family(result.eta))  # bit for bit

    @given(search_cases())
    @settings(max_examples=80, deadline=None)
    def test_levels_through_one_structure_equal_fresh_assembly(self, case):
        obs, family, etas = case
        structure = PairStructure(obs, family(etas[0]).taper_range)
        for eta in etas:
            model = family(eta)
            matrix = structure.matrix(model, 1.0)
            reused = factor_or_pivot(lambda: cholesky(matrix, structure.layout))
            # A matrix made by the constructor: no zero stored, a layout of its own.
            zero_free = from_dense(matrix.to_dense())
            fresh = factor_or_pivot(
                lambda: cholesky(zero_free, analyse(zero_free, obs.rep_points())))
            if not isinstance(fresh, CholeskyFactor):
                assert reused == fresh  # the same failing pivot
                with pytest.raises(FactorizationError):
                    profile_levels(obs, model, structure)
                continue
            if fresh.storage == "dense":
                # Zeros scattered into dense storage in natural order change no
                # value of the factor (an underflowed -0.0 may leave a -0.0 in it).
                assert np.array_equal(reused.lower, fresh.lower)
                assert np.array_equal(reused.perm, fresh.perm)
            else:  # a band factor, maybe sorted along another axis than the zero-free pattern's
                want = zero_free.to_dense()
                scale = np.abs(want).max()
                for f in (reused, fresh):
                    assert np.abs(reconstruct(f) - want).max() <= 1e-13 * obs.m * scale
                assert reused.logdet() == pytest.approx(fresh.logdet(), rel=1e-9, abs=1e-9)
            # bit for bit
            assert profile_levels(obs, model, structure) == profile_levels(obs, model)

    @pytest.mark.parametrize("case", ["untapered-1d", "tapered-2d"])
    def test_matrices_with_underflowed_zeros_share_the_structure_layout(self, monkeypatch,
                                                                        case):
        # gauss2 is exactly 0 beyond about 27.3 ranges, so at small ranges the
        # far entries of the 1D lattice underflow, and under a taper of 1.5
        # those of the 2D set within the taper range (at the first probe,
        # eta = 0.0506 < 1.5 / 27.3).  The matrices store them as zeros on the
        # structure's pattern: one layout serves the whole search, and an
        # untapered matrix stays dense.
        rng = np.random.default_rng(10)
        if case == "untapered-1d":
            x = 0.5 * np.arange(40) + rng.uniform(-0.1, 0.1, 40)
            obs = observation_set([(POINT, xi, float(rng.normal())) for xi in x])
            family, bounds = gauss_family, (0.05, 2.0)
        else:
            obs = synthetic_observations(60, [(0.0, 8.0), (0.0, 8.0)], 3)
            family, bounds = (lambda eta: CorrelationModel("gauss2", eta, 1.5)), (0.02, 0.1)
        matrices, factors, layouts, analyses, built = [], [], [], [], []
        real_cholesky, real_analyse = inference.cholesky, obsmodel.analyse
        real_structure, real_layout = inference.PairStructure, linalg._layout

        def recording_cholesky(a, layout=None):
            matrices.append(a)
            factors.append(real_cholesky(a, layout))
            return factors[-1]

        monkeypatch.setattr(inference, "cholesky", recording_cholesky)
        monkeypatch.setattr(obsmodel, "analyse",  # one call per band search
                            lambda *args: analyses.append(1) or real_analyse(*args))
        monkeypatch.setattr(linalg, "_layout",  # one call per layout made
                            lambda *args: layouts.append(1) or real_layout(*args))
        monkeypatch.setattr(inference, "PairStructure",
                            lambda *args: built.append(1) or real_structure(*args))
        result = estimate_joint(obs, family, bounds)
        with_zeros = sum(not a._values.all() for a in matrices)
        assert len(matrices) == result.iterations and 0 < with_zeros < result.iterations
        assert len({a.nnz_lower for a in matrices}) == 1  # every pair the structure selects
        # one layout; a full (untapered) pattern is laid out with no band search
        assert (len(built), len(layouts), len(analyses)) == (1, 1, int(case == "tapered-2d"))
        assert {f.storage for f in factors} == {"dense" if case == "untapered-1d" else "band"}
        monkeypatch.undo()
        model = family(result.eta)
        assert (result.mu, result.sigma2, result.nll) == profile_levels(obs, model)  # bit for bit
        assert result.nll == pytest.approx(dense_profiled_nll(obs, model), rel=1e-10)

    @pytest.mark.parametrize("family", ["taper-is-range", "stepped-taper"])
    def test_taper_range_changing_with_eta(self, monkeypatch, family):
        family = {"taper-is-range": taper_family, "stepped-taper": stepped_taper_family}[family]
        obs = spaced_point_set(np.random.default_rng(23), 25, min_sep=0.35)
        real_structure = inference.PairStructure
        built, tapers = [], []

        def recording_structure(obs_set, taper_range):
            built.append(taper_range)
            return real_structure(obs_set, taper_range)

        class FreshEachTime:  # the search before structures were kept
            taper_range = object()  # equal to no model's, so one is built per evaluation

            def __init__(self, obs_set, taper_range):
                real = real_structure(obs_set, taper_range)
                self.matrix, self.layout = real.matrix, real.layout

        def recorded_family(eta):
            tapers.append(family(eta).taper_range)
            return family(eta)

        monkeypatch.setattr(inference, "PairStructure", recording_structure)
        result = estimate_joint(obs, recorded_family, (0.3, 2.5))
        assert len(tapers) == result.iterations
        assert built == [t for k, t in enumerate(tapers) if k == 0 or t != tapers[k - 1]]
        monkeypatch.setattr(inference, "PairStructure", FreshEachTime)
        assert estimate_joint(obs, family, (0.3, 2.5)) == result


@st.composite
def brent_cases(draw):
    """An objective on a bracket, with Brent's tolerance and cap: smooth (a
    parabola), multimodal (a sloped sine), rounded (either, to 0-3 digits:
    flat steps and ties) or with an inf plateau on one side of a threshold;
    brackets from 1e-6 to 1e3 wide, optima inside or outside them."""
    kind = draw(st.sampled_from(["smooth", "multimodal", "rounded", "inf-plateau"]))
    lo = draw(st.floats(-10.0, 10.0))
    width = 10.0 ** draw(st.floats(-6.0, 3.0))
    hi = lo + width
    centre = lo + draw(st.floats(-0.5, 1.5)) * width
    freq, phase = draw(st.floats(0.5, 60.0)) / width, draw(st.floats(0.0, 6.3))
    slope = draw(st.floats(-2.0, 2.0)) / width
    unrounded = kind in ("smooth", "multimodal")
    multimodal = kind == "multimodal" if unrounded else draw(st.booleans())

    def base(x):
        x = float(x)
        if multimodal:
            return math.sin(freq * (x - lo) + phase) + slope * (x - lo)
        u = (x - centre) / width
        return u * u

    if unrounded:
        f = base
    elif kind == "rounded":
        digits = draw(st.integers(0, 3))
        f = lambda x: round(base(x), digits)
    else:
        threshold, above = lo + draw(st.floats(0.0, 1.0)) * width, draw(st.booleans())
        f = lambda x: math.inf if (float(x) > threshold) == above else base(x)
    xatol = 10.0 ** draw(st.floats(-10.0, -1.0))
    return f, lo, hi, xatol, draw(st.integers(2, 60))


class TestBoundedBrent:
    @given(brent_cases())
    @settings(max_examples=300, deadline=None)
    def test_evaluates_the_points_of_minimize_scalar(self, case):
        f, lo, hi, xatol, maxiter = case
        assume(lo < hi)
        points = []
        x = inference._bounded_brent(lambda x: points.append(x) or f(x), lo, hi, xatol, maxiter)
        assert (x, points) == bounded_brent(f, lo, hi, xatol, maxiter)

    def test_stops_at_one_evaluation_where_minimize_scalar_takes_two(self):
        points = []
        x = inference._bounded_brent(lambda x: points.append(x) or (x - 1.0) ** 2,
                                     0.0, 3.0, 1e-5, 1)
        scipy_x, scipy_points = bounded_brent(lambda x: (x - 1.0) ** 2, 0.0, 3.0, 1e-5, 1)
        assert points == [x] == scipy_points[:1] and len(scipy_points) == 2

    def test_end_clamp_steps_right_where_the_best_point_is_the_midpoint(self):
        # After four points on [0, 1] the best point 0.88196... is exactly the
        # midpoint of the bracket [0.76393..., 1], and the next parabolic step
        # lands within tol2 of an end.  scipy steps tol1 to the right there
        # (sign(xm - xf) + (xm == xf)), so the fifth point is 0.93196....
        def f(x):
            u = x - 0.9789307483799152
            return u * u - u * u * u

        points = []
        inference._bounded_brent(lambda x: points.append(x) or f(x), 0.0, 1.0, 0.15, 50)
        assert points[3] == 0.5 * (points[2] + 1.0) and points[4] > points[3]
        assert points == bounded_brent(f, 0.0, 1.0, 0.15, 50)[1]

    @pytest.mark.parametrize("case", ["matern-2d", "gauss-1d"])
    def test_search_evaluates_the_ranges_of_minimize_scalar(self, monkeypatch, case):
        # matern-2d is shaped like the benchmark's mle-2d sets; on gauss-1d
        # the first probe and the largest ranges do not factor (inf).
        obs, family, bounds = {
            "matern-2d": (matern_2d_set(), matern_family, (0.1, 3.0)),
            "gauss-1d": (gauss_1d_lattice(), gauss_family, (0.1, 20.0)),
        }[case]
        asked = []

        def recorded_family(eta):
            asked.append(float(eta))
            return family(eta)

        result = estimate_joint(obs, recorded_family, bounds)
        ported, asked[:] = asked[:], []
        monkeypatch.setattr(inference, "_bounded_brent", lambda *args: bounded_brent(*args)[0])
        assert estimate_joint(obs, recorded_family, bounds) == result  # bit for bit
        assert asked == ported and len(ported) == result.iterations
