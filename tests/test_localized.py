import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelfield import (AVG, POINT, ConfigError, CorrelationModel, EstimationError,
                         FactorizationError, GridSpec, ObservationSet,
                         approximate_inverse, assemble, fit_global, fit_localized, predict,
                         predict_variance, rasterize)
from kernelfield import localized
from kernelfield.localized import variance_localized
from kernelfield.cli import synthetic_observations

from conftest import observation_set
from oracles import from_dense, full_view

TAPERED = CorrelationModel("matern52", 0.8, 1.0)
G2T = CorrelationModel("gauss2", 0.5, 1.0)


def line_points(n, spacing, value_fn=np.sin):
    return observation_set([(POINT, i * spacing, float(value_fn(i * spacing)))
                            for i in range(n)])


class TestApproximateInverse:
    def test_full_neighborhood_equals_dense_inverse(self):
        obs = line_points(12, 0.3)
        mat = assemble(obs, TAPERED, 1.0)
        psi = approximate_inverse(mat, obs.rep_points(), delta=100.0)
        exact = np.linalg.inv(mat.to_dense())
        assert np.linalg.norm(psi.to_dense() - exact) < 1e-8

    def test_singleton_neighborhoods_unit_diagonal_identity(self):
        pts = np.array([[0.0], [10.0], [20.0], [30.0]])
        obs = observation_set([(POINT, p, 1.0) for p in pts])
        mat = assemble(obs, TAPERED, 1.0)
        psi = approximate_inverse(mat, pts, delta=0.5)
        assert np.array_equal(psi.to_dense(), np.eye(4))

    def test_five_colinear_points_hand_oracle(self):
        pts = np.array([[0.0], [0.4], [0.8], [1.2], [1.6]])
        obs = observation_set([(POINT, p, 0.0) for p in pts])
        mat = assemble(obs, CorrelationModel("matern52", 1.0, 1.0), 1.0)
        delta = 1.0
        got = approximate_inverse(mat, pts, delta).to_dense()

        dense = mat.to_dense()
        psi = np.zeros((5, 5))
        for i in range(5):
            idx = [j for j in range(5) if abs(pts[j, 0] - pts[i, 0]) < delta]
            sub = dense[np.ix_(idx, idx)]
            inv = np.linalg.inv(sub)
            psi[i, idx] = inv[idx.index(i)]
        oracle = 0.5 * (psi + psi.T)
        assert np.allclose(got, oracle, atol=1e-12)
        # sparsity respects the cutoff
        assert got[0, 3] == 0.0 and got[0, 4] == 0.0

    def test_symmetry_exact(self):
        obs = synthetic_observations(80, [(0.0, 4.0), (0.0, 4.0)], seed=5)
        mat = assemble(obs, G2T, 1.0)
        psi = approximate_inverse(mat, obs.rep_points(), delta=2.0)
        dense = psi.to_dense()
        assert np.array_equal(dense, dense.T)

    def test_workers_bit_identical(self):
        obs = synthetic_observations(150, [(0.0, 5.0), (0.0, 5.0)], seed=2)
        mat = assemble(obs, G2T, 1.0)
        base = approximate_inverse(mat, obs.rep_points(), delta=2.0, workers=1).to_dense()
        for workers in (2, 4):
            other = approximate_inverse(mat, obs.rep_points(), delta=2.0,
                                        workers=workers).to_dense()
            assert np.array_equal(base, other)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_non_pd_neighbourhood_names_its_center(self, workers):
        # Sites 0, 0.4, 0.8 with delta 0.5: the neighbourhoods {0, 1} and
        # {1, 2} are PD, the one of center 1, {0, 1, 2}, is not; the far
        # sites give singleton neighbourhoods in other stacks.
        pts = np.array([[0.0], [0.4], [0.8], [10.0], [20.0]])
        dense = np.eye(5)
        dense[:3, :3] = [[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]]
        with pytest.raises(FactorizationError) as exc:
            approximate_inverse(from_dense(dense), pts, 0.5, workers=workers)
        assert exc.value.pivot_index == 1

    def test_site_exactly_delta_away_is_outside(self):
        pts = np.array([[0.0], [0.5], [1.0]])
        obs = observation_set([(POINT, p, 0.0) for p in pts])
        mat = assemble(obs, TAPERED, 1.0)
        assert mat.nnz_lower == 5  # 0 and 1.0 are one taper range apart
        psi = approximate_inverse(mat, pts, delta=0.5)
        assert np.array_equal(psi.to_dense(), np.diag(1.0 / np.diag(mat.to_dense())))
        assert approximate_inverse(mat, pts, delta=0.5000001).nnz_lower == 5

    def test_pattern_matches_brute_force(self):
        obs = synthetic_observations(120, [(0.0, 4.0), (0.0, 4.0)], seed=3)
        pts = obs.rep_points()
        delta = 0.9
        psi = approximate_inverse(assemble(obs, G2T, 1.0), pts, delta)
        diff = pts[:, None, :] - pts[None, :, :]
        brute = np.einsum("ijk,ijk->ij", diff, diff) < delta * delta
        assert np.array_equal(psi.to_dense() != 0.0, brute)

    # The elementwise CSR gather of large matrices, and stacks of one
    # sub-matrix each, give the same bits as the default path.
    @pytest.mark.parametrize("name, value", [("_DENSE_GATHER_CUTOFF", 0), ("_STACK_ENTRIES", 1)])
    def test_gather_and_stack_size_bit_identical(self, monkeypatch, name, value):
        obs = synthetic_observations(150, [(0.0, 5.0), (0.0, 5.0)], seed=2)
        mat = assemble(obs, G2T, 1.0)
        base = approximate_inverse(mat, obs.rep_points(), delta=2.0).to_dense()
        monkeypatch.setattr(localized, name, value)
        other = approximate_inverse(mat, obs.rep_points(), delta=2.0).to_dense()
        assert np.array_equal(base, other)

    @given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=60),
           st.sampled_from([1, 2]), st.sampled_from(["matern52", "gauss2"]),
           st.floats(min_value=0.3, max_value=2.5))
    @settings(max_examples=40, deadline=None)
    def test_matches_per_row_numpy_inverses(self, seed, m, q, kind, delta):
        obs = synthetic_observations(m, [(0.0, 4.0)] * q, seed=seed)
        mat = assemble(obs, CorrelationModel(kind, 0.6, 1.0), 1.0)
        pts = obs.rep_points()
        got = approximate_inverse(mat, pts, delta).to_dense()

        dense = mat.to_dense()
        psi = np.zeros((m, m))
        cond = 1.0
        for i in range(m):
            idx = np.flatnonzero(((pts - pts[i]) ** 2).sum(axis=1) < delta * delta)
            sub = dense[np.ix_(idx, idx)]
            psi[i, idx] = np.linalg.inv(sub)[np.searchsorted(idx, i)]
            cond = max(cond, np.linalg.cond(sub))
        want = 0.5 * (psi + psi.T)
        # Both sides are backward stable: their difference is a few rounding
        # units of the worst neighbourhood's condition number.
        assert np.abs(got - want).max() <= 1e-14 * cond * np.abs(want).max()

    def test_invalid_delta(self):
        obs = line_points(3, 0.5)
        mat = assemble(obs, TAPERED, 1.0)
        with pytest.raises(ValueError):
            approximate_inverse(mat, obs.rep_points(), delta=0.0)


class TestFitLocalized:
    def test_full_delta_matches_global(self):
        obs = line_points(15, 0.25)
        f = fit_localized(obs, TAPERED, k=10)  # delta 10 >> diameter 3.5
        g = fit_global(obs, TAPERED, f.mu, f.sigma2)
        assert np.abs(f.weights - g.weights).max() < 1e-8
        rng = np.random.default_rng(1)
        for x in rng.uniform(-0.5, 4.0, 100):
            assert predict(f, [x]) == pytest.approx(predict(g, [x]), abs=1e-8)
            assert variance_localized(f, [x]) == pytest.approx(
                predict_variance(g, [x]), abs=1e-8 * f.sigma2)

    def test_single_point_reproduced(self):
        obs = observation_set([(POINT, 1.0, 4.5)])
        for k in (1, 3):
            with pytest.raises(EstimationError, match="estimated sigma2 is not positive"):
                fit_localized(obs, TAPERED, k=k)  # one value: the residual vanishes
            f = fit_localized(obs, TAPERED, k=k, sigma2=1.0)
            assert f.mu == pytest.approx(4.5)
            assert f.weights[0] == pytest.approx(4.5 - f.mu, abs=1e-14)
            assert predict(f, [1.0]) == pytest.approx(4.5, abs=1e-12)
            assert f.deviation_var == 0.0

    def test_untapered_model_rejected(self):
        obs = line_points(5, 0.3)
        with pytest.raises(ConfigError):
            fit_localized(obs, CorrelationModel("matern52", 1.0), k=2)

    def test_bad_k(self):
        obs = line_points(5, 0.3)
        with pytest.raises(ValueError):
            fit_localized(obs, TAPERED, k=0)

    @pytest.mark.parametrize("k", [sys.maxsize + 1, 10 ** 400], ids=["maxsize_plus_1", "1e400"])
    def test_k_beyond_sys_maxsize_refused(self, k):
        # a predictor file's k is at most sys.maxsize, and float(10**400) overflows
        with pytest.raises(ValueError, match="no larger than"):
            fit_localized(line_points(5, 0.3), TAPERED, k=k)

    def test_empty_set_needs_levels(self):
        obs = observation_set([], 1)
        with pytest.raises(EstimationError):
            fit_localized(obs, TAPERED, k=2)
        f = fit_localized(obs, TAPERED, k=2, mu=3.0, sigma2=2.0)
        assert predict(f, [0.0]) == 3.0
        assert variance_localized(f, [0.0]) == 2.0
        assert predict_variance(f, [0.0]) == 2.0

    def test_errors_require_explicit_sigma2(self):
        obs = observation_set([(POINT, 0.0, 1.0, 0.2), (POINT, 0.5, 2.0)])
        with pytest.raises(EstimationError):
            fit_localized(obs, TAPERED, k=2)
        fit_localized(obs, TAPERED, k=2, sigma2=1.0)

    def test_fixed_levels_respected(self):
        obs = line_points(10, 0.35)
        f = fit_localized(obs, TAPERED, k=2, mu=0.75, sigma2=3.0)
        assert f.mu == 0.75 and f.sigma2 == 3.0


class TestDeviationVariance:
    def test_zero_at_full_delta(self):
        obs = line_points(12, 0.3)
        f = fit_localized(obs, TAPERED, k=20)
        assert f.deviation_var < 1e-16 * f.sigma2

    def test_shrinks_with_larger_k(self):
        obs = synthetic_observations(220, [(0.0, 6.0), (0.0, 6.0)], seed=9)
        f1 = fit_localized(obs, G2T, k=1)
        f2 = fit_localized(obs, G2T, k=2)
        assert f2.deviation_var <= f1.deviation_var

    def test_excludes_non_point_observations(self):
        obs = observation_set([(POINT, 0.0, 1.0), (POINT, 0.4, 1.2), (AVG, (1.0, 1.5), 0.6)])
        f = fit_localized(obs, TAPERED, k=30)
        assert f.deviation_var < 1e-16


@st.composite
def site_pass_cases(draw):
    """A set and a tapered model: 2D point sets, or 1D lattices of points,
    some of them noisy, with a few interval integrals among them."""
    seed = draw(st.integers(0, 2**31 - 1))
    model = CorrelationModel(draw(st.sampled_from(["matern52", "gauss2"])), 0.6, 1.0)
    m = draw(st.integers(1, 60))
    if draw(st.booleans()):
        return synthetic_observations(m, [(0.0, 5.0), (0.0, 5.0)], seed=seed), model
    rng = np.random.default_rng(seed)
    x = 0.3 * np.arange(m) + rng.uniform(0.0, 0.1, m)
    noisy = rng.random(m) < draw(st.floats(0.0, 0.5))
    rows = [(POINT, xi, float(np.sin(xi)), 0.05 if e else 0.0) for xi, e in zip(x, noisy)]
    lows = 0.3 * m * rng.random(draw(st.integers(0, 3))) // 1.5 * 1.5  # 1.5 apart at least
    rows += [(AVG, (lo, lo + 0.5), float(rng.normal(0.0, 0.5))) for lo in np.unique(lows)]
    return observation_set(rows), model


class TestSitePass:
    """The site pass reads each point site's kernels off its row of the
    assembled matrix; the kernel path evaluates them again at the sites."""

    @given(site_pass_cases())
    @settings(max_examples=40, deadline=None)
    def test_rows_of_the_matrix_give_the_kernel_path_figures(self, case):
        obs, model = case
        f = fit_localized(obs, model, 2, sigma2=1.3)
        points = obs.point_mask()
        sites = obs.rep_points()[points]
        exact = obs.error_vars()[points] == 0.0
        err = obs.values()[points][exact] - predict(f, sites[exact])
        want = float(np.mean(err * err)) if exact.any() else 0.0
        assert abs(f.deviation_var - want) <= 1e-12 * want
        raw = variance_localized(f, sites)
        assert f.negative_variance_at_obs == np.count_nonzero(raw < -1e-12 * f.sigma2)

    @given(site_pass_cases())
    @settings(max_examples=40, deadline=None)
    def test_full_views_of_s_and_psi_are_scipys(self, case):
        obs, model = case
        mat = assemble(obs, model, 1.3)
        psi = approximate_inverse(mat, obs.rep_points(), delta=2.0)
        for a in (mat, psi):
            got, want = a.full(), full_view(a)
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
        assert np.all(psi.lower_entries()[2] != 0.0)  # Psi's exact zeros are not stored


class TestPermutationInvariance:
    """Reordering the observations changes the predictors by round-off only."""

    @given(st.integers(2, 150), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_predictions_and_variances_under_a_permutation(self, m, seed):
        side = 20.0 * np.sqrt(m / 400.0)  # the benchmark's site density
        obs = synthetic_observations(m, [(0.0, side), (0.0, side)], seed=seed)
        rng = np.random.default_rng(seed)
        p = rng.permutation(m)
        permuted = ObservationSet(obs.kinds[p], obs.rep_points()[p], obs.values()[p],
                                  obs.error_vars()[p])
        nodes = rng.uniform(-0.5, side + 0.5, (60, 2))
        model = CorrelationModel("matern52", 0.5, 1.5)
        for fit in (fit_global, lambda o, mdl: fit_localized(o, mdl, 2)):
            want, got = fit(obs, model), fit(permuted, model)
            for query in (predict, predict_variance):
                a, b = query(want, nodes), query(got, nodes)
                assert np.abs(b - a).max() <= 1e-10 * np.abs(a).max()


class TestInfluenceRadius:
    def test_far_value_perturbation_is_invisible_bitwise(self):
        # with fixed mu and sigma2, a value change farther than (k+1)*tau0
        # from the query cannot reach it through the localized weights
        k = 2
        spacing = 0.45
        obs = line_points(30, spacing)
        x_query = np.array([0.0])
        far = int(np.ceil((k + 1) * TAPERED.taper_range / spacing)) + 1
        values = obs.values().copy()
        f1 = fit_localized(obs, TAPERED, k=k, mu=0.1, sigma2=1.0)
        values[far] += 123.0
        moved = ObservationSet(obs.kinds, obs.rep_points(), values, obs.error_vars())
        f2 = fit_localized(moved, TAPERED, k=k, mu=0.1, sigma2=1.0)
        assert predict(f1, x_query) == predict(f2, x_query)

    def test_near_value_perturbation_is_visible(self):
        obs = line_points(30, 0.45)
        values = obs.values().copy()
        values[1] += 1.0
        f1 = fit_localized(obs, TAPERED, k=2, mu=0.1, sigma2=1.0)
        moved = ObservationSet(obs.kinds, obs.rep_points(), values, obs.error_vars())
        f2 = fit_localized(moved, TAPERED, k=2, mu=0.1, sigma2=1.0)
        assert predict(f1, [0.0]) != predict(f2, [0.0])


class TestVariances:
    def test_raw_can_exceed_global_but_adjusted_floors_at_zero(self):
        obs = synthetic_observations(100, [(0.0, 4.0), (0.0, 4.0)], seed=13)
        f = fit_localized(obs, G2T, k=1)
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.uniform(0, 4, 2)
            raw = variance_localized(f, x)
            adj = predict_variance(f, x)
            assert adj >= 0.0
            if raw >= 0.0:
                assert adj == pytest.approx(raw + f.deviation_var, rel=1e-12)

    def test_adjusted_near_deviation_at_exact_point(self):
        obs = synthetic_observations(120, [(0.0, 4.0), (0.0, 4.0)], seed=4)
        f = fit_localized(obs, G2T, k=2)
        x = obs.rep_points()[17]
        raw = variance_localized(f, x)
        assert abs(raw) < 1e-4 * f.sigma2
        assert predict_variance(f, x) == pytest.approx(f.deviation_var, abs=1e-4 * f.sigma2)

    def test_m0_variance_is_sigma2(self):
        f = fit_localized(observation_set([], 2), G2T, k=2, mu=0.0, sigma2=5.0)
        assert variance_localized(f, [0.0, 0.0]) == 5.0


class TestRasterizeLocalized:
    def test_columns_and_adjustment(self):
        obs = synthetic_observations(60, [(0.0, 3.0), (0.0, 3.0)], seed=6)
        f = fit_localized(obs, G2T, k=2)
        table = rasterize(f, GridSpec.parse("0,3,4;0,3,4"))
        assert table.shape == (16, 5)
        raw, adj = table[:, 3], table[:, 4]
        assert np.all(adj >= 0.0)
        mask = raw + f.deviation_var >= 0.0
        assert np.allclose(adj[mask], raw[mask] + f.deviation_var)

    def test_raw_variance_matches_dense_formula(self):
        obs = synthetic_observations(90, [(0.0, 4.0), (0.0, 4.0)], seed=8)
        f = fit_localized(obs, G2T, k=1)
        grid = GridSpec.parse("-0.5,4.5,11;-0.5,4.5,13")
        table = rasterize(f, grid)
        psi = f.inverse.to_dense()
        for x, raw in zip(grid.nodes(), table[:, 3]):
            nu = G2T.eval(np.linalg.norm(obs.rep_points() - x, axis=1))
            assert raw == pytest.approx(f.sigma2 * (1.0 - nu @ psi @ nu),
                                        abs=1e-12 * f.sigma2)

    def test_dimension_mismatch(self):
        obs = synthetic_observations(20, [(0.0, 3.0), (0.0, 3.0)], seed=6)
        f = fit_localized(obs, G2T, k=2)
        with pytest.raises(ValueError):
            rasterize(f, GridSpec.parse("0,1,2"))


class TestExactLimitConvergence:
    def test_frobenius_error_nonincreasing_in_k(self):
        obs = line_points(25, 0.22, value_fn=lambda x: np.cos(1.3 * x))
        mat = assemble(obs, TAPERED, 1.0)
        exact = np.linalg.inv(mat.to_dense())
        errs = []
        for k in (1, 2, 4, 40):
            psi = approximate_inverse(mat, obs.rep_points(), delta=k * TAPERED.taper_range)
            errs.append(np.linalg.norm(psi.to_dense() - exact))
        assert all(errs[i + 1] <= errs[i] + 1e-12 for i in range(len(errs) - 1))
        assert errs[-1] < 1e-8
