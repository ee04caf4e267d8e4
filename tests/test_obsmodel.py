import math
import os
import tempfile

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad
from scipy.spatial.distance import cdist

from kernelfield import (AVG, DERIV, POINT, CorrelationModel, Observation,
                         ObservationParseError, ObservationSet,
                         UnsupportedOperatorError, assemble,
                         cholesky, cross_correlation, kernel_value,
                         kernel_vector, read_observations_csv,
                         write_observations_csv)
from kernelfield.cli import demo_observation_set
from kernelfield.obsmodel import KIND_CODES, PairStructure, _distances, support_separation

M52 = CorrelationModel("matern52", 1.0)
M52_WIDE = CorrelationModel("matern52", 3.0)
G2 = CorrelationModel("gauss2", 0.5)
TAPERED = CorrelationModel("gauss2", 0.5, 1.0)


def pt(x, value=0.0, error_var=0.0):
    return Observation(POINT, np.atleast_1d(np.asarray(x, dtype=float)), value, error_var)


def dv(c, value=0.0, z=1.0, error_var=0.0):
    return Observation(DERIV, np.array([float(c)]), value, error_var, direction=np.array([z]))


def av(lo, hi, value=0.0, error_var=0.0):
    return Observation(AVG, np.array([float(lo), float(hi)]), value, error_var)


class TestObservationValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Observation("slope", np.array([0.0]), 1.0)

    def test_negative_error_var(self):
        with pytest.raises(ValueError):
            pt(0.0, error_var=-0.1)

    def test_avg_bounds_order(self):
        with pytest.raises(ValueError):
            av(2.0, 1.0)

    def test_direction_normalized(self):
        o = Observation(DERIV, np.array([0.0]), 1.0, direction=np.array([-3.0]))
        assert np.array_equal(o.direction, [-1.0])

    def test_direction_on_point_rejected(self):
        with pytest.raises(ValueError):
            Observation(POINT, np.array([0.0]), 1.0, direction=np.array([1.0]))

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            Observation(DERIV, np.array([0.0]), 1.0, direction=np.array([0.0]))

    def test_set_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError):
            ObservationSet([pt([0.0]), pt([0.0, 1.0])])

    def test_set_rejects_operators_in_2d(self):
        with pytest.raises(ValueError, match="deriv and avg observations are 1D only"):
            Observation(DERIV, np.array([0.0, 0.0]), 1.0, direction=np.array([1.0, 0.0]))
        for kind in (DERIV, AVG):
            with pytest.raises(ValueError, match="observation 1: deriv and avg .* 1D only"):
                ObservationSet.from_arrays([KIND_CODES[POINT], KIND_CODES[kind]], np.zeros((2, 2)),
                                           np.ones(2), np.zeros(2), [[0.0, 0.0], [1.0, 0.0]],
                                           [[np.nan, np.nan], [0.0, 1.0]])

    def test_empty_set_needs_dimension(self):
        with pytest.raises(ValueError):
            ObservationSet([])
        assert ObservationSet([], dim=2).m == 0

    def test_mean_image(self):
        assert pt(0.0).mean_image == 1.0
        assert dv(0.0).mean_image == 0.0
        assert av(2.0, 3.5).mean_image == pytest.approx(1.5)


class TestKernelValue:
    def test_point_at_own_location(self):
        assert kernel_value(pt(0.0), [0.0], M52) == 1.0

    def test_derivative_uncorrelated_at_center(self):
        assert kernel_value(dv(-5.0), [-5.0], M52) == 0.0

    def test_derivative_positive_right_of_center(self):
        # sign convention: the derivative observation correlates positively
        # with field values just to the right of its center
        assert kernel_value(dv(-5.0), [-4.9], M52) > 0.0
        assert kernel_value(dv(-5.0), [-5.1], M52) < 0.0

    def test_average_matches_quadrature(self):
        obs = av(5.0, 6.0)
        for x in [-3.0, 4.9, 5.5, 6.0, 9.7]:
            oracle = quad(lambda u: M52.eval(abs(x - u)), 5.0, 6.0,
                          epsabs=1e-13, epsrel=1e-13, limit=200)[0]
            assert kernel_value(obs, [x], M52) == pytest.approx(oracle, abs=1e-10)

    def test_average_quadrature_path_tapered(self):
        obs = av(0.0, 2.0)
        for x in [0.5, 1.1, 2.5, 3.5]:
            oracle = quad(lambda u: TAPERED.eval(abs(x - u)), 0.0, 2.0,
                          points=[p for p in (x - 1.0, x, x + 1.0) if 0 < p < 2],
                          epsabs=1e-13, epsrel=1e-13, limit=200)[0]
            assert kernel_value(obs, [x], TAPERED) == pytest.approx(oracle, abs=1e-10)

    def test_derivative_kernel_second_order_fd_convergence(self):
        obs = dv(0.5)
        x = 1.3
        exact = kernel_value(obs, [x], M52)
        errs = []
        for h in (1e-3, 1e-4):
            fd = (M52.eval(abs(x - (0.5 + h))) - M52.eval(abs(x - (0.5 - h)))) / (2 * h)
            errs.append(abs(exact - fd))
        assert errs[0] < 1e-5
        ratio = errs[0] / errs[1]
        assert 30.0 < ratio < 300.0  # second-order: ~100 per decade of h

    def test_derivative_rejected_for_tapered_model(self):
        with pytest.raises(UnsupportedOperatorError):
            kernel_value(dv(0.0), [0.5], TAPERED)
        with pytest.raises(UnsupportedOperatorError):  # a sparse block, none in reach
            kernel_vector(ObservationSet([pt(0.0), dv(1.0)]), [[50.0], [60.0]], TAPERED)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernel_value(pt([0.0, 0.0]), [0.0], G2)


def fd_dd_oracle(model, c1, z1, c2, z2, h=1e-4):
    f = lambda s, t: model.eval(abs((c1 + s * z1) - (c2 + t * z2)))
    return (f(h, h) - f(h, -h) - f(-h, h) + f(-h, -h)) / (4 * h * h)


class TestCrossCorrelation:
    def test_exact_point_self(self):
        a = pt(0.0)
        assert cross_correlation(a, a, M52, 1.0) == 1.0

    def test_point_self_with_error_ratio(self):
        a = pt(0.0, error_var=1.0)
        assert cross_correlation(a, a, M52, 1.0) == 2.0
        assert cross_correlation(a, a, M52, 4.0) == 1.25

    def test_identical_but_distinct_objects_are_offdiagonal(self):
        a, b = pt(0.0, error_var=1.0), pt(0.0, error_var=1.0)
        assert cross_correlation(a, b, M52, 1.0) == 1.0

    def test_derivative_self_value(self):
        a = dv(2.0)
        assert cross_correlation(a, a, M52, 1.0) == pytest.approx(5.0 / 3.0, abs=1e-12)
        # independent oracle: second central difference of the correlation at lag 0
        h = 1e-4
        fd = -(M52.eval(h) - 2.0 * M52.eval(0.0) + M52.eval(h)) / h**2
        assert cross_correlation(a, a, M52, 1.0) == pytest.approx(fd, abs=1e-4)

    def test_derivative_self_wide_range(self):
        a = dv(0.0)
        assert cross_correlation(a, a, M52_WIDE, 1.0) == pytest.approx(5.0 / 27.0, abs=1e-12)

    @pytest.mark.parametrize("model", [M52, G2])
    def test_point_deriv_matches_fd(self, model):
        a, b = pt(0.3), dv(1.1, z=-1.0)
        h = 1e-5
        fd = -1.0 * (model.eval(abs(0.3 - (1.1 + h))) - model.eval(abs(0.3 - (1.1 - h)))) / (2 * h)
        assert cross_correlation(a, b, model, 1.0) == pytest.approx(fd, abs=1e-7)

    @pytest.mark.parametrize("model", [M52, G2])
    def test_deriv_deriv_matches_fd(self, model):
        a, b = dv(0.0), dv(0.7, z=-1.0)
        oracle = fd_dd_oracle(model, 0.0, 1.0, 0.7, -1.0)
        assert cross_correlation(a, b, model, 1.0) == pytest.approx(oracle, abs=1e-6)

    @pytest.mark.parametrize("model", [M52, G2, TAPERED])
    def test_point_avg_matches_quadrature(self, model):
        a, b = pt(0.4), av(1.0, 2.2)
        oracle = quad(lambda u: model.eval(abs(0.4 - u)), 1.0, 2.2,
                      points=[1.4] if model.taper_range else None,
                      epsabs=1e-13, epsrel=1e-13, limit=200)[0]
        assert cross_correlation(a, b, model, 1.0) == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("model", [M52, G2])
    def test_deriv_avg_matches_quadrature_of_fd(self, model):
        a, b = dv(0.9), av(1.5, 3.0)
        h = 1e-5
        oracle = quad(
            lambda v: (model.eval(abs(0.9 + h - v)) - model.eval(abs(0.9 - h - v))) / (2 * h),
            1.5, 3.0, epsabs=1e-12, epsrel=1e-12, limit=200)[0]
        assert cross_correlation(a, b, model, 1.0) == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("model", [M52, G2, TAPERED])
    def test_avg_avg_matches_double_quadrature(self, model):
        a, b = av(0.0, 1.0), av(0.5, 2.5)
        oracle = dblquad(lambda u, v: model.eval(abs(u - v)), 0.5, 2.5, 0.0, 1.0,
                         epsabs=1e-11)[0]
        assert cross_correlation(a, b, model, 1.0) == pytest.approx(oracle, abs=1e-8)

    def test_avg_self_with_error(self):
        a = av(5.0, 6.0, error_var=0.5)
        base = av(5.0, 6.0)
        assert cross_correlation(a, a, M52, 2.0) == pytest.approx(
            cross_correlation(base, base, M52, 2.0) + 0.25, abs=1e-14)

    def test_symmetry_is_exact(self):
        pairs = [(pt(0.3), dv(1.0)), (pt(0.1), av(2.0, 3.0)), (dv(-1.0), av(0.0, 1.5)),
                 (pt(0.0), pt(2.0)), (dv(0.0), dv(1.0)), (av(0.0, 1.0), av(0.5, 2.0))]
        for a, b in pairs:
            assert cross_correlation(a, b, M52, 1.0) == cross_correlation(b, a, M52, 1.0)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_symmetry_property(self, seed):
        rng = np.random.default_rng(seed)
        def rand_obs():
            u = rng.random()
            x = float(rng.uniform(-3, 3))
            if u < 0.4:
                return pt(x)
            if u < 0.7:
                return dv(x, z=float(rng.choice([-1.0, 1.0])))
            return av(x, x + float(rng.uniform(0.2, 2.0)))
        a, b = rand_obs(), rand_obs()
        assert cross_correlation(a, b, M52, 1.0) == cross_correlation(b, a, M52, 1.0)

    def test_invalid_sigma2(self):
        with pytest.raises(ValueError):
            cross_correlation(pt(0.0), pt(1.0), M52, 0.0)


class TestGauss2ClosedForms:
    """Untapered gauss2 interval entries (erf closed forms) against quadrature."""

    @pytest.mark.parametrize("x", [-2.0, 0.3, 0.8, 1.1, 2.4, 1.1 + 1000 * 0.5],
                             ids=["left", "at_lo", "inside", "at_hi", "right", "lag_1000_scales"])
    def test_point_interval_matches_quadrature(self, x):
        lo, hi = 0.3, 1.1
        oracle = quad(lambda u: G2.eval(abs(x - u)), lo, hi,
                      points=[x] if lo < x < hi else None, epsabs=1e-14, epsrel=1e-14,
                      limit=200)[0]
        assert cross_correlation(pt(x), av(lo, hi), G2, 1.0) == pytest.approx(oracle, abs=1e-12)
        assert kernel_value(av(lo, hi), [x], G2) == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("a, b", [((0.0, 1.0), (0.5, 2.5)), ((0.0, 3.0), (1.0, 1.4)),
                                      ((0.0, 1.0), (1.0, 1.7)), ((0.0, 1.0), (1.6, 2.1)),
                                      ((0.0, 1.0), (1.0 + 1000 * 0.5, 2.2 + 1000 * 0.5))],
                             ids=["overlapping", "nested", "touching", "disjoint",
                                  "lag_1000_scales"])
    def test_interval_interval_matches_double_quadrature(self, a, b):
        oracle = dblquad(lambda u, v: G2.eval(abs(u - v)), b[0], b[1], a[0], a[1],
                         epsabs=1e-14, epsrel=1e-13)[0]
        assert cross_correlation(av(*a), av(*b), G2, 1.0) == pytest.approx(oracle, abs=1e-12)


class TestSupportSeparation:
    def test_points(self):
        assert support_separation(pt(0.0), pt(3.0)) == 3.0

    def test_point_interval(self):
        assert support_separation(pt(0.0), av(1.0, 2.0)) == 1.0
        assert support_separation(pt(1.5), av(1.0, 2.0)) == 0.0
        assert support_separation(av(1.0, 2.0), pt(4.0)) == 2.0

    def test_intervals(self):
        assert support_separation(av(0.0, 1.0), av(3.0, 4.0)) == 2.0
        assert support_separation(av(0.0, 2.0), av(1.0, 4.0)) == 0.0


def g2_mixed():
    """Closed-form interval entries: overlapping, nested, touching and
    disjoint intervals among points and derivatives, some noisy."""
    return ObservationSet([
        pt(0.0, 0.3), dv(0.4, 0.1, z=-1.0), av(0.2, 0.9, 0.5), pt(1.3, -0.2, 0.3),
        av(0.9, 1.6, 0.8), av(0.0, 3.0, 2.0, error_var=0.1), dv(2.0, -0.4),
        av(2.4, 3.0, 0.4), pt(3.1, 0.7),
    ])


def brute_force_matrix(obs, model, sigma2_r):
    """All-pairs cross_correlation matrix, with pairs whose supports are at
    least the taper range apart dropped; also returns the kept pattern."""
    m = obs.m
    dense = np.zeros((m, m))
    kept = np.zeros((m, m), dtype=bool)
    for i in range(m):
        a = obs[i]  # indexing builds a new object; the diagonal passes one object twice
        for j in range(i + 1):
            b = a if i == j else obs[j]
            if model.taper_range is not None and \
                    support_separation(a, b) >= model.taper_range:
                continue
            dense[i, j] = dense[j, i] = cross_correlation(a, b, model, sigma2_r)
            kept[i, j] = kept[j, i] = True
    return dense, kept


class TestAssemble:
    def test_single_exact_point(self):
        s = assemble(ObservationSet([pt(0.0, value=1.0)]), M52, 1.0)
        assert np.array_equal(s.to_dense(), [[1.0]])

    def test_two_distant_points_tapered_identity(self):
        s = assemble(ObservationSet([pt(0.0), pt(5.0)]), TAPERED, 1.0)
        assert np.array_equal(s.to_dense(), np.eye(2))
        assert s.nnz_lower == 2

    def test_demo_weight_reproduction(self):
        s = assemble(demo_observation_set((1, 0, 2)), M52, 1.0)
        alpha = np.linalg.solve(s.to_dense(), np.array([1.0, 0.0, 2.0]))
        assert np.allclose(alpha, [0.9992, -0.00085, 2.23876], atol=1e-3)

    def test_duplicate_exact_points_rejected(self):
        obs = ObservationSet([pt([1.0, 2.0], 1.0), pt([1.0, 2.0], 3.0)])
        with pytest.raises(ValueError, match="duplicate exact point"):
            assemble(obs, G2, 1.0)

    def test_duplicate_signed_zero_rejected(self):
        obs = ObservationSet([pt([0.0, 1.0], 1.0), pt([2.0, 1.0]), pt([-0.0, 1.0], 3.0)])
        with pytest.raises(ValueError, match=r"duplicate exact point.*indices 0 and 2"):
            assemble(obs, G2, 1.0)

    @pytest.mark.parametrize("model", [G2, TAPERED])
    @pytest.mark.parametrize("sites, named", [  # a third number is a noisy point's error_var
        ([[5.0, 5.0], [1.0, 2.0], [3.0, 3.0], [1.0, 2.0], [1.0, 2.0]], "1 and 3"),
        ([[1.0, 2.0], [5.0, 5.0], [5.0, 5.0], [1.0, 2.0]], "1 and 2"),
        # exact duplicates among noisy points at the same sites
        ([[1.0, 2.0, 0.5], [5.0, 5.0], [1.0, 2.0], [1.0, 2.0, 0.5], [5.0, 5.0, 0.5],
          [1.0, 2.0], [5.0, 5.0]], "2 and 5"),
        # 0 and 1 differ by a subnormal amount: their distance underflows to 0.0,
        # but they are two sites
        ([[0.0, 1.0], [1e-310, 1.0], [3.0, 3.0], [1e-310, 1.0]], "1 and 3"),
    ])
    def test_duplicate_names_first_repeat_and_its_first_site(self, model, sites, named):
        obs = ObservationSet([pt(x[:2], error_var=x[2] if len(x) > 2 else 0.0) for x in sites])
        with pytest.raises(ValueError, match=rf"duplicate exact point.*indices {named}\)"):
            assemble(obs, model, 1.0)

    def test_duplicate_with_error_allowed(self):
        obs = ObservationSet([pt([1.0, 2.0], 1.0), pt([1.0, 2.0], 3.0, error_var=0.5)])
        s = assemble(obs, G2, 1.0)
        cholesky(s)  # positive definite thanks to the error ratio

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            assemble(ObservationSet([], dim=1), M52, 1.0)

    def test_structure_refuses_a_model_of_another_taper_range(self):
        obs = ObservationSet([pt(0.0), pt(0.7), pt(3.0)])
        structure = PairStructure(obs, TAPERED.taper_range)
        assert np.array_equal(structure.matrix(TAPERED, 1.0).to_dense(),
                              assemble(obs, TAPERED, 1.0).to_dense())
        for model in (G2, CorrelationModel("gauss2", 0.5, 2.0)):
            with pytest.raises(ValueError, match="pair structure of taper range 1.0"):
                structure.matrix(model, 1.0)

    def test_matches_dense_brute_force_mixed_tapered(self):
        rng = np.random.default_rng(8)
        obs_list = [pt(x, value=float(rng.normal())) for x in np.arange(0.0, 6.0, 0.45)]
        obs_list.append(av(1.3, 2.1, value=0.5))
        obs_list.append(av(4.0, 4.4, value=0.2))
        obs = ObservationSet(obs_list)
        s = assemble(obs, TAPERED, 1.0)
        dense, _ = brute_force_matrix(obs, TAPERED, 1.0)
        assert np.allclose(s.to_dense(), dense, atol=1e-15)
        # absent entries are mathematically zero
        got = s.to_dense()
        m = obs.m
        for i in range(m):
            for j in range(m):
                if got[i, j] == 0.0 and i != j:
                    assert support_separation(obs[i], obs[j]) >= TAPERED.taper_range or \
                        cross_correlation(obs[i], obs[j], TAPERED, 1.0) == 0.0

    @pytest.mark.parametrize("case", ["tapered_1d_mixed", "untapered_2d", "gauss2_1d_mixed"])
    def test_matches_all_pairs_brute_force(self, case):
        rng = np.random.default_rng(21)
        if case == "tapered_1d_mixed":
            # Intervals whose supports sit just inside, exactly at and just
            # beyond the taper range from a point; a noisy point among exact ones.
            model, sigma2 = TAPERED, 2.0
            obs = ObservationSet([
                pt(0.0, 0.3), pt(0.9, -0.2, error_var=0.4), pt(3.0, 1.1),
                av(1.0 - 1e-9, 1.5), av(1.0, 1.8), av(1.0 + 1e-9, 2.2),
                av(3.4, 4.4), pt(5.4, 0.7), pt(7.0, 0.1, error_var=0.1),
            ])
        elif case == "gauss2_1d_mixed":
            model, sigma2, obs = G2, 1.5, g2_mixed()
        else:
            model, sigma2 = M52, 1.5
            obs = ObservationSet([pt(rng.uniform(0, 4, 2), float(rng.normal()),
                                     error_var=0.2 if k % 5 == 0 else 0.0)
                                  for k in range(25)])
        dense, kept = brute_force_matrix(obs, model, sigma2)
        got = assemble(obs, model, sigma2).to_dense()
        np.testing.assert_allclose(got, dense, rtol=0.0, atol=1e-15)
        assert np.array_equal(got != 0.0, kept)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_tapered_2d_csr_arrays_equal_the_all_pairs_reference(self, seed):
        # Sites on a dyadic lattice put pairs exactly tau0 apart (along an axis,
        # and 1.25 = |(0.75, 1.0)|); noisy points share sites with exact ones.
        rng = np.random.default_rng(seed)
        tau0 = float(rng.choice([0.5, 1.0, 1.25, 1.5]))
        model = CorrelationModel(str(rng.choice(["matern52", "gauss2"])), 0.4, tau0)
        exact = np.unique(rng.integers(0, 17, (int(rng.integers(1, 50)), 2)), axis=0) / 4.0
        noisy = np.concatenate([exact[rng.integers(0, len(exact), int(rng.integers(0, 15)))],
                                exact[:1] + [tau0, 0.0], rng.uniform(0.0, 4.0, (5, 2))])
        sites = np.concatenate([exact, noisy])
        error_vars = np.repeat([0.0, 0.3], [len(exact), len(noisy)])
        order = rng.permutation(len(sites))
        sites, error_vars, m = sites[order], error_vars[order], len(sites)
        obs = ObservationSet.from_arrays(np.zeros(m, dtype=np.int8), sites, np.zeros(m),
                                         error_vars)
        got = assemble(obs, model, 2.0)._lower
        i, j = np.tril_indices(m)
        dist = _distances(sites[i], sites[j])
        vals = model.eval(dist) + np.where(i == j, error_vars[i] / 2.0, 0.0)
        csr = np.lexsort((j, i))
        csr = csr[(dist[csr] < tau0) & (vals[csr] != 0.0)]
        assert np.array_equal(got.indptr, np.append(0, np.cumsum(np.bincount(i[csr], minlength=m))))
        assert np.array_equal(got.indices, j[csr])
        assert np.array_equal(got.data, vals[csr])

    def test_gauss2_interval_entries_match_quadrature(self):
        # brute_force_matrix shares the array path with assemble; this
        # checks every entry with an interval against quadrature of the
        # point correlation instead (derivatives as central differences).
        obs, sigma2, h = g2_mixed(), 1.5, 1e-4
        got = assemble(obs, G2, sigma2).to_dense() - np.diag(obs.error_vars() / sigma2)

        def integral(o, v):  # int rho(|u - v|) du over o's interval
            return quad(lambda u: G2.eval(abs(u - v)), *o.location,
                        epsabs=1e-14, epsrel=1e-14, limit=200)[0]

        for i, a in enumerate(obs):
            for j, b in enumerate(obs):
                if b.kind != AVG or (a.kind == AVG and j > i):
                    continue
                if a.kind == POINT:
                    oracle, tol = integral(b, a.location[0]), 1e-12
                elif a.kind == DERIV:
                    c, z = a.location[0], a.direction[0]
                    oracle = z * (integral(b, c + h) - integral(b, c - h)) / (2 * h)
                    tol = 1e-7
                else:
                    oracle = dblquad(lambda u, v: G2.eval(abs(u - v)), *b.location,
                                     *a.location, epsabs=1e-14, epsrel=1e-13)[0]
                    tol = 1e-12
                assert got[i, j] == got[j, i] == pytest.approx(oracle, abs=tol), (i, j)

    def test_sparsity_bounded_by_neighborhoods(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(0, 10, (120, 2))
        obs = ObservationSet([pt(p, value=0.0) for p in pts])
        s = assemble(obs, TAPERED, 1.0)
        max_in_ball = max(
            int(np.sum(np.linalg.norm(pts - pts[i], axis=1) < TAPERED.taper_range))
            for i in range(len(pts)))
        assert s.full().nnz <= obs.m * max_in_ball

    def test_positive_definite_for_shipped_configs(self):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            pts = rng.uniform(0, 8, (30, 2)) * 1.0
            obs = ObservationSet([pt(p, value=0.0) for p in pts])
            cholesky(assemble(obs, TAPERED, 1.0))


class TestKernelVector:
    def test_matches_pointwise(self):
        obs = demo_observation_set((1, 0, 2))
        x = [1.7]
        v = kernel_vector(obs, x, M52)
        expect = [kernel_value(o, x, M52) for o in obs]
        assert np.allclose(v, expect, atol=1e-15)

    def test_one_observation_over_a_block(self):
        obs = demo_observation_set((1, 0, 2))
        block = np.array([[-1.0], [0.4], [1.7]])
        got = kernel_value(obs[2], block, M52)
        assert got.shape == (3,)
        np.testing.assert_allclose(got, kernel_vector(obs, block, M52)[:, 2], rtol=0, atol=1e-15)
        assert isinstance(kernel_value(obs[2], [0.4], M52), float)

    def test_block_matches_single_point_calls(self):
        rng = np.random.default_rng(4)
        cases = [(demo_observation_set((1, 0, 2)), M52, rng.uniform(-8, 8, (7, 1))),
                 (ObservationSet([pt(p) for p in rng.uniform(0, 3, (12, 2))]), TAPERED,
                  rng.uniform(-1, 4, (9, 2)))]
        for obs, model, block in cases:
            got = kernel_vector(obs, block, model)
            got = got.toarray() if model.finite_range else got
            assert got.shape == (block.shape[0], obs.m)
            for row, x in zip(got, block):
                np.testing.assert_allclose(row, kernel_vector(obs, x, model),
                                           rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize("model", [M52, G2, TAPERED], ids=["matern52", "gauss2", "tapered"])
    def test_block_matches_per_entry_kernel_value(self, model):
        rng = np.random.default_rng(6)
        obs = [pt(x) for x in rng.uniform(-3, 3, 5)] + [av(-1.0, 0.5), av(1.2, 1.3), av(2.0, 4.5)]
        if model.smooth_origin:
            obs += [dv(-0.4), dv(2.1, z=-1.0)]
        obs = ObservationSet(obs)
        block = np.concatenate([rng.uniform(-5, 5, (9, 1)), [[-1.0], [1.3], [2.0]]])
        expect = [[kernel_value(o, x, model) for o in obs] for x in block]
        got = kernel_vector(obs, block, model)
        got = got.toarray() if model.finite_range else got
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-15)

    def test_block_type_by_model(self):
        obs = ObservationSet([pt([0.0, 1.0]), pt([3.0, 1.0])])
        block = np.array([[0.0, 0.5], [9.0, 9.0], [3.0, 1.0]])
        assert isinstance(kernel_vector(obs, block, TAPERED), sp.csr_matrix)
        assert isinstance(kernel_vector(obs, block, G2), np.ndarray)
        assert isinstance(kernel_vector(obs, block[0], TAPERED), np.ndarray)
        one = kernel_value(obs[0], block, TAPERED)
        assert isinstance(one, np.ndarray) and one.shape == (3,)
        empty = kernel_vector(ObservationSet([], dim=2), block, TAPERED)
        assert sp.issparse(empty) and empty.shape == (3, 0)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_sparse_block_equals_dense_evaluation(self, seed):
        # Nodes on sites keep the value 1.0; nodes exactly tau0 from a site
        # (sites on a dyadic lattice, offset along an axis) store no zero.
        rng = np.random.default_rng(seed)
        m, tau0 = int(rng.integers(1, 60)), float(rng.choice([0.5, 1.0, 1.5]))
        model = CorrelationModel(str(rng.choice(["matern52", "gauss2"])), 0.4, tau0)
        sites = np.round(rng.uniform(0.0, 4.0, (m, 2)) * 1024.0) / 1024.0
        obs = ObservationSet([pt(p) for p in sites])
        on = sites[rng.integers(0, m, 5)]
        at_range = sites[rng.integers(0, m, 5)] + np.array([tau0, 0.0])
        block = np.concatenate([rng.uniform(-1.0, 5.0, (20, 2)), on, at_range])
        got = kernel_vector(obs, block, model)
        assert isinstance(got, sp.csr_matrix)
        assert np.all(got.data != 0.0)
        assert np.array_equal(got.toarray(), model.eval(cdist(block, sites)))
        assert np.all(got.toarray()[20:25].max(axis=1) == 1.0)
        assert np.all(np.any(cdist(block[25:], sites) == tau0, axis=1))

    def test_sparse_block_equals_dense_evaluation_1d_operators(self):
        rng = np.random.default_rng(8)
        obs = ObservationSet([pt(x) for x in rng.uniform(-3, 3, 6)]
                             + [av(-1.0, 0.5), av(1.2, 1.3), av(2.0, 4.5)])
        block = np.concatenate([rng.uniform(-5, 5, (9, 1)), [[-1.0], [1.3], [2.0], [5.5]],
                                obs.rep_points()[:2] + TAPERED.taper_range])
        got = kernel_vector(obs, block, TAPERED)
        assert isinstance(got, sp.csr_matrix) and np.all(got.data != 0.0)
        dense = np.array([kernel_vector(obs, x, TAPERED) for x in block])
        assert np.array_equal(got.toarray(), dense)

    def test_rejects_wrong_query_dimension(self):
        obs = ObservationSet([pt([0.0, 1.0])])
        with pytest.raises(ValueError):
            kernel_vector(obs, [0.0, 1.0, 2.0], M52)


class TestCsv:
    def test_round_trip(self, tmp_path):
        obs = ObservationSet([
            pt(0.5, value=1.25, error_var=0.1),
            dv(-2.0, value=0.3, z=-1.0),
            av(1.0, 2.5, value=4.0),
        ])
        path = tmp_path / "obs.csv"
        write_observations_csv(path, obs)
        back = read_observations_csv(path)
        assert back.m == obs.m
        for a, b in zip(obs, back):
            assert a.kind == b.kind
            assert np.array_equal(a.location, b.location)
            assert a.value == b.value and a.error_var == b.error_var

    def test_round_trip_2d(self, tmp_path):
        obs = ObservationSet([pt([0.5, 1.5], value=2.0), pt([3.0, 0.25], value=-1.0)])
        path = tmp_path / "obs2.csv"
        write_observations_csv(path, obs)
        back = read_observations_csv(path)
        assert back.dim == 2 and np.array_equal(back.rep_points(), obs.rep_points())

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,kind,value,error_var,p1,p2\n0.0,point,1.0,,,\n1.0,point,oops,,,\n")
        from kernelfield import ObservationParseError
        with pytest.raises(ObservationParseError) as exc:
            read_observations_csv(path)
        assert exc.value.line == 3

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("lon,lat,value\n")
        from kernelfield import ObservationParseError
        with pytest.raises(ObservationParseError) as exc:
            read_observations_csv(path)
        assert exc.value.line == 1

    def test_header_only_gives_empty_set(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x1,x2,kind,value,error_var,p1,p2\n")
        obs = read_observations_csv(path)
        assert obs.m == 0 and obs.dim == 2


# -- columns: malformed CSV rows, round trips, from_arrays -------------------

CSV_1D, GOOD_1D = "x1,kind,value,error_var,p1,p2", "0.5,point,1.0,,,"
CSV_2D, GOOD_2D = "x1,x2,kind,value,error_var,p1,p2", "0.5,0.5,point,1.0,,,"
BAD_ROWS = {
    "nan value": (CSV_1D, "1.0,point,nan,,,"),
    "inf site": (CSV_1D, "inf,point,1.0,,,"),
    "nan deriv site": (CSV_1D, "nan,deriv,1.0,,,"),
    "inf error_var": (CSV_1D, "1.0,point,1.0,inf,,"),
    "negative error_var": (CSV_1D, "1.0,point,1.0,-0.5,,"),
    "lo > hi": (CSV_1D, "1.0,avg,1.0,,2.0,1.0"),
    "lo == hi": (CSV_1D, "1.0,avg,1.0,,1.5,1.5"),
    "inf bound": (CSV_1D, "1.0,avg,1.0,,1.0,inf"),
    "zero direction": (CSV_1D, "1.0,deriv,1.0,,0.0,"),
    "nan direction": (CSV_1D, "1.0,deriv,1.0,,nan,"),
    "unknown kind": (CSV_1D, "1.0,slope,1.0,,,"),
    "too few fields": (CSV_1D, "1.0,point,1.0,,"),
    "too many fields": (CSV_1D, "1.0,point,1.0,,,,"),
    "non-numeric value": (CSV_1D, "1.0,point,oops,,,"),
    "non-numeric site": (CSV_1D, "abc,point,1.0,,,"),
    "empty value": (CSV_1D, "1.0,point,,,,"),
    "avg without bounds": (CSV_1D, "1.0,avg,1.0,,2.0,"),
    "non-numeric bound": (CSV_1D, "1.0,avg,1.0,,x,2.0"),
    "2d deriv without p2": (CSV_2D, "1.0,2.0,deriv,1.0,,1.0,"),
    "2d avg": (CSV_2D, "1.0,2.0,avg,1.0,,1.0,2.0"),
    "2d nan site": (CSV_2D, "1.0,nan,point,1.0,,,"),
    "2d zero direction": (CSV_2D, "1.0,2.0,deriv,1.0,,0.0,0.0"),
}


def read_lines(tmp_path, *lines):
    path = tmp_path / "obs.csv"
    path.write_text("\n".join(lines) + "\n")
    return read_observations_csv(path)


def parse_error_line(tmp_path, *lines):
    with pytest.raises(ObservationParseError) as exc:
        read_lines(tmp_path, *lines)
    return exc.value.line


@pytest.mark.parametrize("header, bad", BAD_ROWS.values(), ids=list(BAD_ROWS))
def test_bad_row_after_blank_lines_names_its_line(tmp_path, header, bad):
    good = GOOD_1D if header == CSV_1D else GOOD_2D
    assert parse_error_line(tmp_path, header, good, "", " , ,", bad,
                            good.replace("0.5", "3.5")) == 5


def test_first_bad_row_is_named_whatever_its_fault(tmp_path):
    rule, field = "1.0,point,1.0,-0.5,,", "2.0,point,oops,,,"
    assert parse_error_line(tmp_path, CSV_1D, GOOD_1D, rule, "", field) == 3
    assert parse_error_line(tmp_path, CSV_1D, GOOD_1D, field, "", rule) == 3
    assert parse_error_line(tmp_path, CSV_1D, "1.0,point", "", rule, field) == 2


def test_operators_in_2d_name_their_line(tmp_path):
    for row in ("1.0,2.0,deriv,1.0,,1.0,0.0", "1.0,2.0,deriv,1.0,,,", "1.0,2.0,avg,1.0,,0.0,1.0"):
        with pytest.raises(ObservationParseError, match="line 4: deriv and avg .* 1D only"):
            read_lines(tmp_path, CSV_2D, GOOD_2D, "", row)


def test_point_rows_ignore_p_fields(tmp_path):
    obs = read_lines(tmp_path, CSV_1D, "0.5,point,1.0,,junk,")
    assert obs.m == 1 and obs.directions[0, 0] == 0.0 and np.isnan(obs.bounds[0]).all()


def columns_of(obs):
    """Every column a set stores."""
    return [obs.kinds, obs.rep_points(), obs.values(), obs.error_vars(), obs.directions,
            obs.bounds, obs.support_radii(), obs.mean_image(), obs.point_mask()]


def assert_same_columns(a, b):
    assert a.dim == b.dim
    for x, y in zip(columns_of(a), columns_of(b)):
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


FINITE = st.floats(allow_nan=False, allow_infinity=False)
ERROR_VARS = st.one_of(st.just(0.0), st.floats(0.0, 1e300))
NONZERO = FINITE.filter(lambda z: z != 0.0)
BOUNDS = st.tuples(FINITE, FINITE).map(sorted).filter(
    lambda b: b[0] < b[1] and np.isfinite(b[1] - b[0]) and np.isfinite(b[1] + b[0]))


@st.composite
def mixed_1d_rows(draw):
    """Rows (kind, site, value, error_var, direction, bounds) of a 1-D set
    with every kind, signed directions and some error variances."""
    kind = draw(st.sampled_from([POINT, DERIV, AVG]))
    return (kind, draw(FINITE), draw(FINITE), draw(ERROR_VARS),
            draw(NONZERO) if kind == DERIV else 0.0,
            draw(BOUNDS) if kind == AVG else (math.nan, math.nan))


def sets_of_rows(rows, dim):
    """The set of ``rows`` built from Observation objects and from arrays."""
    objects = ObservationSet([
        Observation(kind, bounds if kind == AVG else site, value, error_var,
                    [z] if kind == DERIV else None)
        for kind, site, value, error_var, z, bounds in rows], dim=dim)
    kinds, sites, values, error_vars, z, bounds = zip(*rows) if rows else ([],) * 6
    arrays = ObservationSet.from_arrays(
        [KIND_CODES[k] for k in kinds], np.reshape(sites, (len(rows), dim)), values,
        error_vars, np.reshape(z, (len(rows), 1)) if dim == 1 else None,
        np.reshape(bounds, (len(rows), 2)), dim)
    return objects, arrays


def csv_round_trip(obs):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "obs.csv")
        write_observations_csv(path, obs)
        return read_observations_csv(path)


@settings(max_examples=60, deadline=None)
@given(st.lists(mixed_1d_rows(), max_size=12))
def test_mixed_1d_columns_round_trip(rows):
    objects, arrays = sets_of_rows(rows, 1)
    assert_same_columns(arrays, objects)
    assert_same_columns(csv_round_trip(arrays), arrays)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.tuples(FINITE, FINITE), FINITE, ERROR_VARS), max_size=12))
def test_2d_point_columns_round_trip(points):
    rows = [(POINT, site, value, ev, 0.0, (math.nan, math.nan)) for site, value, ev in points]
    objects, arrays = sets_of_rows(rows, 2)
    assert_same_columns(arrays, objects)
    assert_same_columns(csv_round_trip(arrays), arrays)


def test_iterating_builds_observations_from_columns():
    obs = ObservationSet([pt(0.5, 1.25, 0.1), dv(-2.0, 0.3, z=-4.0), av(1.0, 2.5, 4.0)])
    a, b, c = obs
    assert (a.kind, a.location.tolist(), a.value, a.error_var) == (POINT, [0.5], 1.25, 0.1)
    assert (b.kind, b.direction.tolist()) == (DERIV, [-1.0])
    assert (c.kind, c.location.tolist(), c.mean_image) == (AVG, [1.0, 2.5], 1.5)
    assert obs[-1].kind == AVG
    with pytest.raises(IndexError):
        obs[3]


def test_from_arrays_names_the_first_bad_row():
    with pytest.raises(ValueError, match="observation 2: error_var"):
        ObservationSet.from_arrays([0, 0, 0, 0], np.zeros((4, 1)), np.ones(4),
                                   [0.0, 0.0, -1.0, np.nan])
    with pytest.raises(ValueError, match="observation 1: unknown observation kind"):
        ObservationSet.from_arrays([0, 7], np.zeros((2, 1)), np.ones(2), np.zeros(2))
    with pytest.raises(ValueError, match="values of shape"):
        ObservationSet.from_arrays([0, 0], np.zeros((2, 1)), np.ones(3), np.zeros(2))


def test_with_values_keeps_the_geometry():
    obs = ObservationSet([pt(0.5, 1.0), dv(-2.0, 0.3, z=-1.0), av(1.0, 2.5, 4.0)])
    moved = obs.with_values([7.0, 8.0, 9.0])
    assert moved.values().tolist() == [7.0, 8.0, 9.0]
    for got, want in zip(columns_of(moved), columns_of(obs)):
        if got is not moved.values():
            assert np.array_equal(got, want, equal_nan=got.dtype.kind == "f")
    with pytest.raises(ValueError):
        obs.with_values([1.0, np.nan, 2.0])
