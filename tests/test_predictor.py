import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.spatial.distance import cdist

import kernelfield

from kernelfield import (AVG, DERIV, POINT, CorrelationModel, EstimationError, GridSpec,
                         ObservationSet, assemble, cholesky, estimate_mu,
                         fit_global, fit_localized, predict, predict_average,
                         predict_derivative, predict_variance, rasterize)
from kernelfield.cli import demo_observation_set
from kernelfield.inference import level_matrix, profile_levels
from kernelfield.obsmodel import BLOCK_ROWS

from conftest import mixed_1d_lattice, observation_set, random_instance, well_separated_points
from oracles import kriging_predict

M52 = CorrelationModel("matern52", 1.0)


def permute(obs, seed):
    """The 1D set ``obs`` with its rows in a seeded random order."""
    p = np.random.default_rng(seed).permutation(obs.m)
    return ObservationSet(obs.kinds[p], obs.rep_points()[p], obs.values()[p],
                          obs.error_vars()[p], obs.directions[p], obs.bounds[p], 1)


@st.composite
def tapered_points_and_intervals(draw):
    """A 1-D set of 2 to 6 point values and interval integrals on a jittered
    lattice of spacing 0.8, so that the benchmark's taper range 1.5 links
    neighbours and the set factors."""
    rows = draw(st.lists(st.tuples(st.sampled_from([POINT, AVG]), st.floats(0.0, 0.3),
                                   st.floats(0.1, 0.6), st.floats(-1e3, 1e3)),
                         min_size=2, max_size=6))
    return observation_set([
        (kind, [0.8 * i + jitter, 0.8 * i + jitter + width] if kind == AVG
         else 0.8 * i + jitter, value)
        for i, (kind, jitter, width, value) in enumerate(rows)])


def empty_predictor(mu=1.5, sigma2=2.0, dim=1):
    return fit_global(observation_set([], dim), M52, mu, sigma2)


class TestGridSpec:
    def test_parse_2d(self):
        g = GridSpec.parse("0,1,5;2,4,3")
        assert g.dim == 2 and g.n_nodes == 15
        assert g.mins == (0.0, 2.0) and g.counts == (5, 3)

    def test_nodes_row_major(self):
        g = GridSpec.parse("0,1,2;0,10,3")
        nodes = g.nodes()
        # last axis varies fastest
        assert np.allclose(nodes[:3, 0], 0.0)
        assert np.allclose(nodes[:3, 1], [0.0, 5.0, 10.0])

    def test_single_node(self):
        g = GridSpec.parse("3,3,1")
        assert np.allclose(g.nodes(), [[3.0]])

    def test_non_finite_bounds_rejected(self):
        for text in ("nan,1,5", "0,inf,5", "0,1,3;-inf,0,2"):
            with pytest.raises(ValueError, match="grid bounds must be finite"):
                GridSpec.parse(text)

    def test_invalid(self):
        with pytest.raises(ValueError):
            GridSpec.parse("0,1")
        with pytest.raises(ValueError):
            GridSpec((0.0,), (1.0,), (0,))
        with pytest.raises(ValueError):
            GridSpec((2.0,), (1.0,), (3,))


class TestPriorOnly:
    def test_predict_is_mu(self):
        p = empty_predictor()
        assert predict(p, [0.3]) == 1.5

    def test_variance_is_sigma2(self):
        p = empty_predictor()
        assert predict_variance(p, [0.3]) == 2.0

    def test_kriging_matches(self):
        obs = observation_set([], 1)
        assert kriging_predict(obs, M52, 1.5, 2.0, [0.0]) == (1.5, 2.0)

    def test_rasterize_constant(self):
        p = empty_predictor()
        table = rasterize(p, GridSpec.parse("0,1,4"))
        assert np.allclose(table[:, 1], 1.5) and np.allclose(table[:, 2], 2.0)

    def test_derivative_and_average(self):
        p = empty_predictor()
        assert predict_derivative(p, [0.0]) == 0.0
        assert predict_average(p, (0.0, 1.0)) == 1.5


class TestExactness:
    def test_exact_point_reproduced(self, demo_fit):
        assert predict(demo_fit, [0.0]) == pytest.approx(1.0, abs=1e-8)
        assert predict_variance(demo_fit, [0.0]) <= 1e-8

    def test_noisy_point_not_interpolated(self):
        obs = observation_set([(POINT, 0.0, 2.0, 1.0)])
        p = fit_global(obs, M52, 0.0, 1.0)
        assert predict(p, [0.0]) == pytest.approx(1.0, abs=1e-12)  # shrunk halfway to the mean
        assert predict_variance(p, [0.0]) > 0.1

    def test_variance_bounds_sampled(self):
        obs, model, mu, sigma2 = random_instance(12)
        p = fit_global(obs, model, mu, sigma2)
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.uniform(-1, 11, obs.dim)
            v = predict_variance(p, x)
            assert 0.0 <= v <= sigma2


class TestKrigingEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 6])
    def test_predictions_and_variances_agree(self, seed):
        obs, model, mu, sigma2 = random_instance(seed)
        p = fit_global(obs, model, mu, sigma2)
        mat = assemble(obs, model, sigma2)
        rng = np.random.default_rng(200 + seed)
        for _ in range(25):
            x = rng.uniform(-0.5, 10.5, obs.dim)
            kp, kv = kriging_predict(obs, model, mu, sigma2, x, assembled=mat)
            assert predict(p, x) == pytest.approx(kp, abs=1e-8)
            assert predict_variance(p, x) == pytest.approx(max(kv, 0.0), abs=1e-8)

    def test_single_exact_point_at_query(self):
        obs = observation_set([(POINT, 2.0, 7.5)])
        pred, var = kriging_predict(obs, M52, 1.0, 2.0, [2.0])
        assert pred == pytest.approx(7.5, abs=1e-12)
        assert abs(var) <= 1e-12


class TestValueIndependenceAndLocality:
    def test_variance_ignores_observed_values_bitwise(self):
        obs, model, mu, sigma2 = random_instance(4)
        p1 = fit_global(obs, model, mu, sigma2)
        rng = np.random.default_rng(77)
        obs2 = ObservationSet(obs.kinds, obs.rep_points(), rng.normal(size=obs.m),
                              obs.error_vars(), obs.directions, obs.bounds, obs.dim)
        p2 = fit_global(obs2, model, mu, sigma2)
        for x in rng.uniform(0, 10, (50, obs.dim)):
            assert predict_variance(p1, x) == predict_variance(p2, x)

    def test_single_far_observation_cannot_move_prediction(self):
        model = CorrelationModel("gauss2", 0.5, 1.0)
        x = np.array([5.0])
        for value in (1.0, 100.0):
            obs = observation_set([(POINT, 0.0, value)])
            p = fit_global(obs, model, 0.25, 1.0)
            assert predict(p, x) == 0.25


class TestOperatorPredictions:
    def test_derivative_matches_fd(self, demo_fit):
        h = 1e-5
        for x in (-8.0, -5.0, -1.3, 0.0, 2.2, 5.5, 7.9):
            fd = (predict(demo_fit, [x + h]) - predict(demo_fit, [x - h])) / (2 * h)
            assert predict_derivative(demo_fit, [x]) == pytest.approx(fd, abs=1e-6)

    def test_derivative_zero_at_lone_point_obs(self):
        obs = observation_set([(POINT, 1.0, 3.0)])
        p = fit_global(obs, M52, 0.0, 1.0)
        assert predict_derivative(p, [1.0]) == 0.0

    def test_derivative_direction_flip(self, demo_fit):
        assert predict_derivative(demo_fit, [2.0], direction=[-1.0]) == \
            -predict_derivative(demo_fit, [2.0], direction=[1.0])

    def test_derivative_fd_mode_2d(self):
        obs, model, mu, sigma2 = random_instance(1)  # dim 2
        p = fit_global(obs, model, mu, sigma2)
        x = np.array([5.0, 5.0])
        u = np.array([0.6, 0.8])
        h = 1e-5
        fd = (predict(p, x + h * u) - predict(p, x - h * u)) / (2 * h)
        assert predict_derivative(p, x, direction=u) == pytest.approx(fd, abs=1e-5)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("model", [CorrelationModel("matern52", 1.0),
                                       CorrelationModel("gauss2", 0.8),
                                       CorrelationModel("matern52", 0.8, 1.5)],
                             ids=["matern52", "gauss2", "tapered"])
    def test_derivative_matches_central_difference(self, dim, model):
        # Analytic in every dimension.  At a site a tapered kernel has a
        # cone, whose central difference is its symmetric slope 0, as the
        # derivative's convention; away from the sites both are smooth.
        rng = np.random.default_rng(dim)
        sites = well_separated_points(rng, 25, dim, 0.0, 4.0, 0.5)
        obs = ObservationSet(np.zeros(25, dtype=np.int8), sites, rng.normal(2.0, 1.0, 25),
                             np.zeros(25))
        fits = [fit_global(obs, model)]
        if model.taper_range is not None:
            fits.append(fit_localized(obs, model, 2))
        h = 1e-5
        for p in fits:
            for x in np.concatenate([rng.uniform(-0.5, 4.5, (12, dim)), sites[:6]]):
                z = rng.normal(size=dim)
                fd = (predict(p, x + h * z / np.linalg.norm(z))
                      - predict(p, x - h * z / np.linalg.norm(z))) / (2 * h)
                assert predict_derivative(p, x, z) == pytest.approx(fd, abs=1e-8)

    def test_average_matches_quadrature(self, demo_fit):
        for (a, b) in [(-1.0, 2.0), (4.5, 6.5), (-9.0, 9.0)]:
            oracle = quad(lambda u: predict(demo_fit, [u]), a, b,
                          epsabs=1e-12, epsrel=1e-12, limit=300)[0] / (b - a)
            assert predict_average(demo_fit, (a, b)) == pytest.approx(oracle, abs=1e-8)

    def test_average_matches_quadrature_gauss2(self):
        obs = observation_set([(POINT, 0.0, 1.2), (DERIV, 0.7, -0.5, 0.0, 1.0),
                               (AVG, (1.0, 1.8), 0.9), (POINT, 2.5, 0.4, 0.1)])
        p = fit_global(obs, CorrelationModel("gauss2", 0.6), 0.3, 1.5)
        for (a, b) in [(-1.0, 0.4), (0.9, 2.0), (-3.0, 5.0)]:
            oracle = quad(lambda u: predict(p, [u]), a, b,
                          epsabs=1e-13, epsrel=1e-13, limit=300)[0] / (b - a)
            assert predict_average(p, (a, b)) == pytest.approx(oracle, abs=1e-10)

    def test_average_matches_quadrature_tapered(self):
        # intervals that cross the taper range's kinks around the sites, and one beyond reach
        obs = observation_set([(POINT, 0.0, 1.2), (AVG, (1.0, 1.8), 0.9),
                               (POINT, 2.5, 0.4, 0.1)])
        p = fit_global(obs, CorrelationModel("matern52", 0.6, 1.5), 0.3, 1.5)
        for (a, b) in [(-1.0, 0.4), (0.9, 2.0), (-3.0, 5.0), (4.5, 6.0)]:
            kinks = [x for s in (0.0, 1.0, 1.8, 2.5) for x in (s - 1.5, s, s + 1.5) if a < x < b]
            oracle = quad(lambda u: predict(p, [u]), a, b, points=kinks or None,
                          epsabs=1e-13, epsrel=1e-13, limit=300)[0] / (b - a)
            assert predict_average(p, (a, b)) == pytest.approx(oracle, abs=1e-10)

    def test_average_degenerate_interval_limits_to_point(self, demo_fit):
        x = 0.7
        w = 1e-6
        assert predict_average(demo_fit, (x - w / 2, x + w / 2)) == \
            pytest.approx(predict(demo_fit, [x]), abs=1e-6)

    def test_average_empty_interval_rejected(self, demo_fit):
        with pytest.raises(ValueError):
            predict_average(demo_fit, (2.0, 2.0))

    @pytest.mark.parametrize("x, direction", [
        ([2.0, 7.0], None), ([2.0], [1.0, 5.0]), ([[2.0]], None), ([], None),
        ([np.nan], None), ([2.0], [np.inf]), ([2.0], [[1.0]])])
    def test_malformed_1d_derivative_query_refused(self, demo_fit, x, direction):
        with pytest.raises(ValueError, match="exactly 1 finite number"):
            predict_derivative(demo_fit, x, direction)

    @pytest.mark.parametrize("x, direction", [
        ([1.0], [1.0, 0.0]), ([1.0, 1.0], [1.0]), ([1.0, 1.0, 1.0], [1.0, 0.0]),
        ([1.0, np.inf], [1.0, 0.0]), ([1.0, 1.0], [1.0, np.nan]), ([[1.0, 1.0]], [1.0, 0.0])])
    def test_malformed_2d_derivative_query_refused(self, x, direction):
        p = fit_global(*random_instance(1))  # dim 2
        with pytest.raises(ValueError, match="exactly 2 finite numbers"):
            predict_derivative(p, x, direction)

    @pytest.mark.parametrize("interval", [
        (1.0, 2.0, 9.0), (1.0,), (), (1.0, np.inf), (-np.inf, 2.0), (np.nan, 2.0),
        [[1.0, 2.0]]])
    def test_malformed_interval_refused(self, demo_fit, interval):
        with pytest.raises(ValueError, match="exactly 2 finite numbers"):
            predict_average(demo_fit, interval)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_direction_normalized_as_an_observation_set_does(self, scale):
        # Its length is taken as ObservationSet takes a deriv row's, with no
        # squares to overflow or underflow.
        obs = ObservationSet(np.zeros(3, dtype=np.int8), [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                             [1.0, 2.0, 0.5], np.zeros(3))
        p = fit_global(obs, M52)
        want = predict_derivative(p, [0.3, 0.4], [1.0, 1.0])
        assert predict_derivative(p, [0.3, 0.4], [scale, scale]) == pytest.approx(want, rel=1e-15)

    def test_interval_of_infinite_length_refused_as_an_avg_row(self, demo_fit):
        with pytest.raises(ValueError, match="with a finite length and midpoint"):
            predict_average(demo_fit, (-1e308, 1e308))
        with pytest.raises(ValueError, match="with a finite length and midpoint"):
            predict_average(demo_fit, (1e308, 1.7e308))

    @pytest.mark.parametrize("model", [CorrelationModel("gauss2", 0.5),
                                       CorrelationModel("matern52", 0.5)],
                             ids=["gauss2", "matern52"])
    @settings(max_examples=25, deadline=None)
    @given(obs=mixed_1d_lattice(), seed=st.integers(0, 2 ** 32 - 1))
    def test_operator_predictions_under_a_permutation(self, model, obs, seed):
        assume(np.any(obs.mean_image() != 0.0))  # a set of derivatives alone has no GLS mean
        permuted = permute(obs, seed)
        want, got = fit_global(obs, model, sigma2=1.7), fit_global(permuted, model, sigma2=1.7)
        # Scaled by the largest |value| too: where the field is flat, mu and the
        # predictions carry round-off of that size.
        scale = np.abs(obs.values()).max()
        assert abs(got.mu - want.mu) <= 1e-12 * max(abs(want.mu), scale)
        end = 2.0 * obs.m + 1.0
        nodes = np.linspace(-2.0, end + 2.0, 41)[:, None]
        intervals = [(-1.0, 0.5), (0.3, end / 2.0), (end / 3.0, end + 1.0)]
        for query, x in ((predict, nodes), (predict_variance, nodes),
                         (lambda f, xs: [predict_derivative(f, x) for x in xs], nodes[::4]),
                         (lambda f, ivs: [predict_average(f, iv) for iv in ivs], intervals)):
            a, b = np.asarray(query(want, x)), np.asarray(query(got, x))
            floor = 0.0 if query is predict_variance else scale
            assert np.abs(b - a).max() <= 1e-10 * max(np.abs(a).max(), floor)

    @pytest.mark.parametrize("fit", [fit_global, lambda obs, model, **levels: fit_localized(
        obs, model, 2, **levels)], ids=["global", "localized"])
    @settings(max_examples=15, deadline=None)
    @given(obs=tapered_points_and_intervals(), seed=st.integers(0, 2 ** 32 - 1))
    def test_tapered_predictions_under_a_permutation(self, fit, obs, seed):
        model = CorrelationModel("matern52", 0.5, 1.5)
        want, got = fit(obs, model, sigma2=1.7), fit(permute(obs, seed), model, sigma2=1.7)
        scale = np.abs(obs.values()).max()
        end = 0.8 * obs.m + 1.0  # beyond the last interval
        nodes = np.linspace(-1.0, end, 31)[:, None]
        intervals = [(-1.0, 0.5), (0.3, end / 2.0), (end / 3.0, end)]
        for query, x, floor in ((predict, nodes, scale), (predict_variance, nodes, 0.0),
                                (lambda f, ivs: [predict_average(f, iv) for iv in ivs],
                                 intervals, scale)):
            a, b = np.asarray(query(want, x)), np.asarray(query(got, x))
            assert np.abs(b - a).max() <= 1e-10 * max(np.abs(a).max(), floor)


class TestRasterize:
    def test_single_node(self, demo_fit):
        table = rasterize(demo_fit, GridSpec.parse("0,0,1"))
        assert table.shape == (1, 3)
        assert table[0, 1] == pytest.approx(1.0, abs=1e-8)

    def test_demo_grid_node_at_origin(self, demo_fit):
        table = rasterize(demo_fit, GridSpec.parse("-10,10,2001"))
        node = table[1000]
        assert node[0] == 0.0
        assert node[1] == pytest.approx(1.0, abs=1e-8)
        assert node[2] <= 1e-8

    def test_dimension_mismatch(self, demo_fit):
        with pytest.raises(ValueError):
            rasterize(demo_fit, GridSpec.parse("0,1,2;0,1,2"))

    @pytest.mark.parametrize("n_nodes", [1, BLOCK_ROWS - 1, BLOCK_ROWS + 1])
    def test_tapered_2d_matches_kriging_across_blocks(self, n_nodes):
        rng = np.random.default_rng(31)
        model = CorrelationModel("matern52", 0.7, 1.5)
        pts = well_separated_points(rng, 40, 2, 0.0, 6.0, 0.3)
        obs = observation_set([(POINT, p, float(rng.normal(2.0, 1.0)), 0.3 if k % 7 == 0 else 0.0)
                               for k, p in enumerate(pts)])
        self._assert_matches_kriging(obs, model, 2.0, 1.7,
                                     GridSpec((-0.5, 0.3), (6.5, 5.9), (1, n_nodes)))

    def test_untapered_1d_operators_match_kriging(self):
        obs = observation_set([
            (POINT, 0.0, 1.0), (POINT, 1.1, 0.4, 0.2), (DERIV, 2.0, -0.5, 0.0, -1.0),
            (AVG, (3.0, 3.6), 0.9), (POINT, 4.2, 1.6), (DERIV, 5.0, 0.3), (AVG, (5.5, 7.0), 2.5),
        ])
        for model in (M52, CorrelationModel("gauss2", 0.8)):
            self._assert_matches_kriging(obs, model, 0.5, 1.3, GridSpec.parse("-1,8,45"))

    @staticmethod
    def _assert_matches_kriging(obs, model, mu, sigma2, grid):
        table = rasterize(fit_global(obs, model, mu, sigma2), grid)
        mat = assemble(obs, model, sigma2)
        oracle = np.array([kriging_predict(obs, model, mu, sigma2, x, assembled=mat)
                           for x in grid.nodes()])
        assert table.shape == (grid.n_nodes, grid.dim + 2)
        assert np.array_equal(table[:, :grid.dim], grid.nodes())
        np.testing.assert_allclose(table[:, grid.dim], oracle[:, 0], rtol=0.0, atol=1e-8)
        np.testing.assert_allclose(table[:, grid.dim + 1], np.clip(oracle[:, 1], 0.0, sigma2),
                                   rtol=0.0, atol=1e-8)


class TestSparseKernels:
    TAPERED = CorrelationModel("matern52", 0.5, 1.5)

    def test_tapered_queries_equal_dense_kernel_evaluation(self):
        rng = np.random.default_rng(12)
        pts = well_separated_points(rng, 60, 2, 0.0, 8.0, 0.3)
        obs = observation_set([(POINT, p, float(rng.normal(1.0, 1.0))) for p in pts])
        fitted = fit_global(obs, self.TAPERED, 1.0, 2.0)
        nodes = np.concatenate([rng.uniform(-1.0, 9.0, (30, 2)), pts[:3]])
        dense = self.TAPERED.eval(cdist(nodes, pts))
        np.testing.assert_allclose(predict(fitted, nodes), 1.0 + dense @ fitted.weights,
                                   rtol=0.0, atol=1e-14)
        expect = np.clip(2.0 * (1.0 - fitted.inverse.quadratic_forms(dense.T)), 0.0, 2.0)
        assert np.array_equal(predict_variance(fitted, nodes), expect)

    def test_empty_query_block_in_subprocess(self):
        # A zero-column right-hand side used to reach LAPACK's band triangular
        # solve, which can corrupt the heap and abort the process: run the
        # calls in a child so that a regression cannot kill the test runner.
        # The nodes of ``far`` lie beyond reach, so all their kernels are zero.
        code = textwrap.dedent("""
            import numpy as np
            from kernelfield import CorrelationModel, fit_global, predict_variance
            from kernelfield.cli import synthetic_observations
            obs = synthetic_observations(200, [(0.0, 20.0), (0.0, 20.0)], 1)
            p = fit_global(obs, CorrelationModel("matern52", 0.5, 1.5), 10.0, 4.0)
            assert p.inverse.storage == "band"
            far = np.column_stack([np.linspace(30.0, 40.0, 40), np.full(40, -5.0)])
            for _ in range(50):
                assert predict_variance(p, np.empty((0, 2))).shape == (0,)
                assert np.array_equal(predict_variance(p, far), np.full(40, 4.0))
            print("ok")
        """)
        src = os.path.dirname(os.path.dirname(kernelfield.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "ok"


class TestQueryValidation:
    @pytest.mark.parametrize("fit", ["global-untapered", "global-tapered", "localized"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_query_point_refused(self, fit, bad):
        # The kernels are evaluated unchecked, so the query block is checked
        # once: dense (untapered) and sparse (tapered) kernels, both fits.
        model = CorrelationModel("matern52", 1.0, None if fit == "global-untapered" else 1.5)
        obs = observation_set([(POINT, [0.4 * i, 0.1 * i], np.sin(i)) for i in range(6)])
        p = (fit_localized(obs, model, 2, 0.0, 1.0) if fit == "localized"
             else fit_global(obs, model, 0.0, 1.0))
        block = np.array([[0.3, 0.2], [bad, 0.5], [1.0, 1.0]])
        for x in (block[1], block[1, ::-1], block):
            for query in (predict, predict_variance):
                with pytest.raises(ValueError, match="query points must be finite"):
                    query(p, x)


def level_check_cases():
    """Each fit, global and localized, on an empty and a non-empty 1D set."""
    model = CorrelationModel("matern52", 1.0, 1.5)
    sets = (observation_set([], 1),
            observation_set([(POINT, 0.4 * i, np.sin(i)) for i in range(6)]))
    fits = (fit_global, lambda obs, mdl, mu, sigma2: fit_localized(obs, mdl, 2, mu, sigma2))
    return [(fit, obs, model) for fit in fits for obs in sets]


class TestFitValidation:
    def test_bad_sigma2(self):
        with pytest.raises(ValueError):
            fit_global(observation_set([], 1), M52, 0.0, 0.0)
        for fit, obs, model in level_check_cases():
            for sigma2 in (0.0, -1.0, float("nan"), float("inf")):
                with pytest.raises(ValueError, match="sigma2 must be a positive finite real"):
                    fit(obs, model, 0.0, sigma2)

    def test_bad_mu(self):
        with pytest.raises(ValueError):
            fit_global(observation_set([], 1), M52, float("nan"), 1.0)
        for fit, obs, model in level_check_cases():
            for mu in (float("nan"), float("inf"), -float("inf")):
                with pytest.raises(ValueError, match="mu must be finite"):
                    fit(obs, model, mu, 1.0)


class TestEstimatedLevels:
    @pytest.mark.parametrize("seed", range(0, 12, 2))
    def test_equal_to_the_levels_of_profile_levels_bitwise(self, seed):
        obs, model, _, _ = random_instance(seed)
        exact = ObservationSet(obs.kinds, obs.rep_points(), obs.values(), np.zeros(obs.m),
                               obs.directions, obs.bounds, obs.dim)
        mu, sigma2, _ = profile_levels(exact, model)
        want = fit_global(exact, model, mu, sigma2)
        for levels in ((None, None), (mu, None)):
            got = fit_global(exact, model, *levels)
            assert (got.mu, got.sigma2) == (mu, sigma2)
            assert got.weights.tobytes() == want.weights.tobytes()
        got = fit_global(obs, model, None, sigma2)
        assert got.mu == estimate_mu(cholesky(level_matrix(obs, model, sigma2)), obs.values(),
                                     obs.mean_image())

    def test_refusals(self):
        noisy = observation_set([(POINT, 0.0, 1.0, 0.5), (POINT, 1.0, 2.0)])
        with pytest.raises(EstimationError, match="observation errors"):
            fit_global(noisy, M52, 0.0)
        with pytest.raises(EstimationError, match="empty observation set"):
            fit_global(observation_set([], 1), M52, None, 1.0)
        flat = observation_set([(POINT, float(i), 0.0) for i in range(4)])
        with pytest.raises(EstimationError, match="estimated sigma2 is not positive"):
            fit_global(flat, M52)
