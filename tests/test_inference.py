import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kernelfield import (POINT, CorrelationModel, EstimationError, FactorizationError,
                         Observation, ObservationSet, assemble, cholesky,
                         estimate_eta, estimate_joint, estimate_mu, estimate_sigma2,
                         fit_localized, inference, linalg)
from kernelfield.cli import synthetic_observations
from kernelfield.inference import level_matrix, negative_log_likelihood, profile_levels
from kernelfield.linalg import CholeskyFactor, SparseSymmetric
from kernelfield.obsmodel import AVG, DERIV, PairStructure

from conftest import dense_factor, well_separated_points


def spd_action(rng, n):
    b = rng.normal(size=(n, n))
    a = b.T @ b + np.eye(n)
    return a, np.linalg.inv(a)


def product_action(a):
    """``a`` applied by multiplication, as a sparse approximate inverse is."""
    return SparseSymmetric.from_dense(a)


def spaced_point_set(rng, m, min_sep=0.5, values=None):
    hi = 2.5 * m * min_sep  # room to place m points at the requested separation
    pts = well_separated_points(rng, m, 1, 0.0, hi, min_sep)
    vals = rng.normal(size=m) if values is None else values
    return ObservationSet([Observation(POINT, pts[i], float(vals[i])) for i in range(m)])


class TestEstimateMu:
    def test_identity_gives_sample_mean(self):
        values = np.array([1.0, 2.0, 6.0])
        assert estimate_mu(product_action(np.eye(3)), values) == pytest.approx(values.mean(), abs=1e-14)

    def test_single_observation(self):
        assert estimate_mu(product_action(np.eye(1)), np.array([3.7])) == 3.7

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_inverse_formula(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        a, inv = spd_action(rng, n)
        values = rng.normal(size=n)
        ones = np.ones(n)
        oracle = (ones @ inv @ values) / (ones @ inv @ ones)
        assert estimate_mu(dense_factor(a), values) == pytest.approx(oracle, abs=1e-10)

    def test_singular_normalizer_raises(self):
        with pytest.raises(EstimationError):
            estimate_mu(product_action(np.zeros((2, 2))), np.array([1.0, 2.0]))

    def test_is_quadratic_form_minimizer(self):
        rng = np.random.default_rng(11)
        a, inv = spd_action(rng, 6)
        values = rng.normal(size=6)
        mu_hat = estimate_mu(dense_factor(a), values)

        def qform(mu):
            r = values - mu
            return r @ inv @ r

        assert qform(mu_hat + 1e-3) > qform(mu_hat)
        assert qform(mu_hat - 1e-3) > qform(mu_hat)


class TestEstimateSigma2:
    def test_identity_gives_population_variance(self):
        values = np.array([1.0, 2.0, 6.0])
        mu = values.mean()
        assert estimate_sigma2(product_action(np.eye(3)), values, mu) == pytest.approx(
            np.mean((values - mu) ** 2), abs=1e-14)

    def test_zero_when_residuals_vanish(self):
        values = np.full(4, 2.5)
        assert estimate_sigma2(product_action(np.eye(4)), values, 2.5) == 0.0

    def test_negative_estimate_is_refused(self):
        # An indefinite action, as a sparse approximate inverse can be.
        with pytest.raises(EstimationError, match="negative variance estimate"):
            estimate_sigma2(product_action(-np.eye(3)), np.array([1.0, 2.0, 6.0]), 0.0)

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
        s1 = estimate_sigma2(f, values, mu)
        s2 = estimate_sigma2(f, mu + c * (values - mu), mu)
        assert s2 == pytest.approx(c * c * s1, rel=1e-9)

    def test_matches_dense_inverse_formula(self):
        rng = np.random.default_rng(5)
        a, inv = spd_action(rng, 7)
        values = rng.normal(size=7)
        oracle = (values - 0.3) @ inv @ (values - 0.3) / 7
        assert estimate_sigma2(dense_factor(a), values, 0.3) == pytest.approx(oracle, abs=1e-10)


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
        obs = ObservationSet([Observation(POINT, np.array([0.0]), 1.0),
                              Observation(POINT, np.array([1.0]), 2.0)])
        result = estimate_eta(obs, taper_family, (0.5, 2.0), 1e-4, 500)
        assert 0.5 <= result.eta <= 2.0
        assert np.isfinite(result.nll)
        assert result.nll == profile_levels(obs, taper_family(result.eta))[2]

    def test_bad_bounds(self):
        obs = ObservationSet([Observation(POINT, np.array([0.0]), 1.0)])
        with pytest.raises(ValueError):
            estimate_eta(obs, taper_family, (1.0, 0.5), 1e-4, 500)

    def test_rejects_observation_errors(self):
        obs = ObservationSet([Observation(POINT, np.array([0.0]), 1.0, error_var=0.5),
                              Observation(POINT, np.array([1.0]), 1.0)])
        with pytest.raises(EstimationError, match="observation errors"):
            estimate_eta(obs, taper_family, (0.5, 2.0), 1e-4, 500)


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
        assert result.converged

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
        obs_geom = ObservationSet([Observation(POINT, p, 0.0) for p in pts])
        mat = assemble(obs_geom, model_true, 1.0).to_dense()
        values = np.linalg.cholesky(mat) @ rng.standard_normal(200)  # mu=0, sigma2=1
        obs = obs_geom.with_values(values)
        result = estimate_joint(obs, taper_family, (0.4, 2.5))
        fhat = cholesky(assemble(obs, taper_family(result.eta), 1.0))
        se = np.sqrt(result.sigma2 / (np.ones(200) @ fhat.solve(np.ones(200))))
        assert abs(result.mu - 0.0) <= 3.0 * se
        assert result.converged

    def test_needs_two_observations(self):
        obs = ObservationSet([Observation(POINT, np.array([0.0]), 1.0)])
        with pytest.raises(EstimationError):
            estimate_joint(obs, taper_family, (0.5, 2.0))


class TestLocalizedVsGlobal:
    def test_full_delta_estimates_match_global(self):
        rng = np.random.default_rng(41)
        pts = well_separated_points(rng, 30, 1, 0.0, 5.0, 0.12)
        values = np.sin(pts[:, 0]) + rng.normal(0, 0.2, 30)
        obs = ObservationSet([Observation(POINT, pts[i], float(values[i]))
                              for i in range(30)])
        model = CorrelationModel("matern52", 0.7, 1.0)
        f = fit_localized(obs, model, k=10)  # delta 10 >> diameter 5
        factor = cholesky(assemble(obs, model, 1.0))
        mu_g = estimate_mu(factor, obs.values())
        s2_g = estimate_sigma2(factor, obs.values(), mu_g)
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
    return ObservationSet([Observation(POINT, np.array([xi]), float(v))
                           for xi, v in zip(x, values)])


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

    def test_nothing_factors_raises(self):
        obs = gauss_1d_lattice()
        with pytest.raises(EstimationError, match="does not factor"):
            estimate_joint(obs, gauss_family, (8.0, 20.0))

    def test_evaluation_cap_reports_not_converged(self):
        result = estimate_joint(matern_2d_set(), matern_family, (0.1, 3.0), max_iter=3)
        assert not result.converged
        assert result.iterations == 3
        assert np.isfinite(result.nll)

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
        built, layouts, factored, in_search = [], [], [], []
        real_structure, real_layout = inference.PairStructure, linalg._factor_layout
        real_cholesky, real_estimate_eta = inference.cholesky, inference.estimate_eta

        def marked_estimate_eta(*args, **kwargs):
            in_search.append(True)
            try:
                return real_estimate_eta(*args, **kwargs)
            finally:
                in_search.pop()

        monkeypatch.setattr(inference, "PairStructure",
                            lambda *args: built.append(1) or real_structure(*args))
        monkeypatch.setattr(linalg, "_factor_layout",
                            lambda *args: layouts.append(1) or real_layout(*args))
        monkeypatch.setattr(inference, "cholesky",
                            lambda a: factored.append(bool(in_search)) or real_cholesky(a))
        monkeypatch.setattr(inference, "estimate_eta", marked_estimate_eta)
        result = estimate_joint(obs, family, (0.1, 1.4))
        assert (result.eta, result.mu, result.sigma2,
                result.nll) == (eta, mu, sigma2, nll)  # bit for bit
        assert (len(built), len(layouts)) == (1, 1)
        assert factored == [True] * result.iterations  # none after the search


class TestProfileLevels:
    def test_matches_gls_and_nll(self):
        rng = np.random.default_rng(52)
        obs = spaced_point_set(rng, 15, min_sep=0.4)
        model = CorrelationModel("matern52", 1.1)
        mu, s2, nll = profile_levels(obs, model)
        factor = cholesky(assemble(obs, model, 1.0))
        assert mu == pytest.approx(estimate_mu(factor, obs.values()), rel=1e-12)
        assert s2 == pytest.approx(estimate_sigma2(factor, obs.values(), mu), rel=1e-12)
        assert nll == pytest.approx(negative_log_likelihood(obs, model, mu, s2), rel=1e-12)
        assert nll == pytest.approx(dense_profiled_nll(obs, model), rel=1e-10)

    def test_vanishing_residuals_give_no_nll(self):
        obs = ObservationSet([Observation(POINT, np.array([float(i)]), 0.0) for i in range(4)])
        assert profile_levels(obs, CorrelationModel("matern52", 1.0)) == (0.0, 0.0, None)

    def test_fixed_variance_allows_observation_errors(self):
        obs = ObservationSet([Observation(POINT, np.array([0.0]), 1.0, error_var=0.5),
                              Observation(POINT, np.array([1.0]), 2.0)])
        model = CorrelationModel("matern52", 1.0)
        with pytest.raises(EstimationError):
            profile_levels(obs, model)
        factor = cholesky(level_matrix(obs, model, 2.0))
        mu = estimate_mu(factor, obs.values())
        mat = 2.0 * assemble(obs, model, 2.0).to_dense()  # 2 R + diag(error_var)
        r = obs.values() - mu
        direct = 0.5 * (2 * np.log(2 * np.pi) + np.linalg.slogdet(mat)[1]
                        + r @ np.linalg.solve(mat, r))
        assert negative_log_likelihood(obs, model, mu, 2.0) == pytest.approx(direct, rel=1e-12)


def factor_or_pivot(make):
    try:
        return cholesky(make())
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
        obs = ObservationSet([Observation(POINT, p, float(rng.normal())) for p in pts])
        taper = 1.5 if case == "2d-tapered" else None
        return obs, lambda eta: CorrelationModel("matern52", eta, taper), etas
    x = 0.5 * (np.arange(m) + rng.uniform(-0.2, 0.2, m))
    kinds = rng.choice([POINT, POINT, POINT, DERIV, AVG], m)
    kinds[0] = POINT  # the mean is estimable
    obs = ObservationSet([
        Observation(DERIV, [xi], float(rng.normal()), direction=[rng.choice([-1.0, 1.0])])
        if kind == DERIV else Observation(AVG, [xi - 0.1, xi + 0.1], float(rng.normal()))
        if kind == AVG else Observation(POINT, [xi], float(rng.normal()))
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
            reused = factor_or_pivot(lambda: structure.matrix(model, 1.0))
            # A matrix made by the constructor: no zero stored, a layout of its own.
            fresh = factor_or_pivot(lambda: SparseSymmetric.from_entries(
                obs.m, *assemble(obs, model, 1.0).lower_entries()))
            if not isinstance(fresh, CholeskyFactor):
                assert reused == fresh  # the same failing pivot
                with pytest.raises(FactorizationError):
                    profile_levels(obs, model, structure)
                continue
            assert np.array_equal(reused.lower, fresh.lower)
            assert np.array_equal(reused.perm, fresh.perm)
            # bit for bit
            assert profile_levels(obs, model, structure) == profile_levels(obs, model)

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
                self.matrix = real_structure(obs_set, taper_range).matrix

        def recorded_family(eta):
            tapers.append(family(eta).taper_range)
            return family(eta)

        monkeypatch.setattr(inference, "PairStructure", recording_structure)
        result = estimate_joint(obs, recorded_family, (0.3, 2.5))
        assert len(tapers) == result.iterations
        assert built == [t for k, t in enumerate(tapers) if k == 0 or t != tapers[k - 1]]
        monkeypatch.setattr(inference, "PairStructure", FreshEachTime)
        assert estimate_joint(obs, family, (0.3, 2.5)) == result
