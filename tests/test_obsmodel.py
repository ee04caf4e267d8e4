import math
import os
import re
import tempfile
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad
from scipy.spatial.distance import cdist

import kernelfield.obsmodel
from kernelfield import (AVG, DERIV, KIND_CODES, KINDS, POINT, CorrelationModel,
                         ObservationParseError, ObservationSet, UnsupportedOperatorError,
                         assemble, cholesky, cross_correlation, kernel_value, kernel_vector,
                         read_observations_csv, write_observations_csv)
from kernelfield.cli import demo_observation_set
from kernelfield.obsmodel import (PairStructure, _distances, _support_separations,
                                  derivative_vector)

import oracles
from conftest import observation_set

M52 = CorrelationModel("matern52", 1.0)
M52_WIDE = CorrelationModel("matern52", 3.0)
G2 = CorrelationModel("gauss2", 0.5)
TAPERED = CorrelationModel("gauss2", 0.5, 1.0)


def pt(x, value=0.0, error_var=0.0):
    return POINT, x, value, error_var


def dv(c, value=0.0, z=1.0, error_var=0.0):
    return DERIV, c, value, error_var, z


def av(lo, hi, value=0.0, error_var=0.0):
    return AVG, (lo, hi), value, error_var


def kernel_of(row, x, model):
    """The kernel of one observation, a set of its own, at one point ``x``."""
    return kernel_value(observation_set([row]), x, model)[0]


def entry(a, b, model, sigma2_r):
    """The inter-correlation entry between rows ``a`` and ``b`` of one set, or
    the diagonal entry of ``a`` where ``b`` is None."""
    if b is None:
        return cross_correlation(observation_set([a]), 0, 0, model, sigma2_r)
    return cross_correlation(observation_set([a, b]), 0, 1, model, sigma2_r)


def separation(a, b):
    return float(_support_separations(observation_set([a, b]), 0, 1))


class TestObservationValidation:
    def test_package_exports_the_kind_codes(self):
        assert KIND_CODES is kernelfield.obsmodel.KIND_CODES
        assert [KIND_CODES[k] for k in KINDS] == [0, 1, 2]
        obs = ObservationSet([KIND_CODES[DERIV]], [[0.5]], [1.0], [0.0], [[-2.0]])
        assert obs.kinds.tolist() == [1] and obs.directions.tolist() == [[-1.0]]

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="observation 0: unknown observation kind"):
            ObservationSet([5], [[0.0]], [1.0], [0.0])

    def test_negative_error_var(self):
        with pytest.raises(ValueError, match="error_var"):
            observation_set([pt(0.0, error_var=-0.1)])

    def test_avg_bounds_order(self):
        with pytest.raises(ValueError, match="lower < upper"):
            observation_set([av(2.0, 1.0)])

    def test_direction_normalized(self):
        obs = observation_set([dv(0.0, z=-3.0), pt(1.0)])
        assert np.array_equal(obs.directions, [[-1.0], [0.0]])

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError, match="direction must be a nonzero"):
            observation_set([dv(0.0, z=0.0)])

    def test_set_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError):
            ObservationSet([0, 0], [[0.0], [0.0, 1.0]], [1.0, 1.0], [0.0, 0.0])
        with pytest.raises(ValueError, match=r"sites of shape \(2, 2\), expected \(2, 1\)"):
            ObservationSet([0, 0], np.zeros((2, 2)), [1.0, 1.0], [0.0, 0.0], dim=1)

    def test_set_rejects_operators_in_2d(self):
        for kind in (DERIV, AVG):
            with pytest.raises(ValueError, match="observation 1: deriv and avg .* 1D only"):
                ObservationSet([KIND_CODES[POINT], KIND_CODES[kind]], np.zeros((2, 2)),
                               np.ones(2), np.zeros(2), [[0.0, 0.0], [1.0, 0.0]],
                               [[np.nan, np.nan], [0.0, 1.0]])

    def test_empty_set_needs_dimension(self):
        with pytest.raises(ValueError, match="dim a positive integer"):
            ObservationSet([], [], [], [])
        assert ObservationSet([], [], [], [], dim=2).m == 0

    def test_mean_image(self):
        obs = observation_set([pt(0.0), dv(0.0), av(2.0, 3.5)])
        assert obs.mean_image().tolist() == [1.0, 0.0, 1.5]


class TestKernelValue:
    def test_point_at_own_location(self):
        assert kernel_of(pt(0.0), [0.0], M52) == 1.0

    def test_derivative_uncorrelated_at_center(self):
        assert kernel_of(dv(-5.0), [-5.0], M52) == 0.0

    def test_derivative_positive_right_of_center(self):
        # sign convention: the derivative observation correlates positively
        # with field values just to the right of its center
        assert kernel_of(dv(-5.0), [-4.9], M52) > 0.0
        assert kernel_of(dv(-5.0), [-5.1], M52) < 0.0

    def test_average_matches_quadrature(self):
        obs = av(5.0, 6.0)
        for x in [-3.0, 4.9, 5.5, 6.0, 9.7]:
            oracle = quad(lambda u: M52.eval(abs(x - u)), 5.0, 6.0,
                          epsabs=1e-13, epsrel=1e-13, limit=200)[0]
            assert kernel_of(obs, [x], M52) == pytest.approx(oracle, abs=1e-10)

    def test_average_quadrature_path_tapered(self):
        obs = av(0.0, 2.0)
        for x in [0.5, 1.1, 2.5, 3.5]:
            oracle = quad(lambda u: TAPERED.eval(abs(x - u)), 0.0, 2.0,
                          points=[p for p in (x - 1.0, x, x + 1.0) if 0 < p < 2],
                          epsabs=1e-13, epsrel=1e-13, limit=200)[0]
            assert kernel_of(obs, [x], TAPERED) == pytest.approx(oracle, abs=1e-10)

    def test_derivative_kernel_second_order_fd_convergence(self):
        obs = dv(0.5)
        x = 1.3
        exact = kernel_of(obs, [x], M52)
        errs = []
        for h in (1e-3, 1e-4):
            fd = (M52.eval(abs(x - (0.5 + h))) - M52.eval(abs(x - (0.5 - h)))) / (2 * h)
            errs.append(abs(exact - fd))
        assert errs[0] < 1e-5
        ratio = errs[0] / errs[1]
        assert 30.0 < ratio < 300.0  # second-order: ~100 per decade of h

    def test_derivative_rejected_for_tapered_model(self):
        with pytest.raises(UnsupportedOperatorError):
            kernel_of(dv(0.0), [0.5], TAPERED)
        with pytest.raises(UnsupportedOperatorError):  # a sparse block, none in reach
            kernel_vector(observation_set([pt(0.0), dv(1.0)]), [[50.0], [60.0]], TAPERED)

    def test_derivative_set_refused_wherever_it_meets_a_taper(self):
        obs = observation_set([pt(0.0), dv(1.0), av(2.0, 3.0)])
        for meet in (lambda: assemble(obs, TAPERED, 1.0),
                     lambda: PairStructure(obs, TAPERED.taper_range),
                     lambda: cross_correlation(obs, 0, 2, TAPERED, 1.0),  # no derivative pair
                     lambda: kernel_value(obs, [9.0], TAPERED)):
            with pytest.raises(UnsupportedOperatorError, match="twice differentiable"):
                meet()
        assert assemble(obs, M52, 1.0).order == 3

    def test_derivative_probe_works_under_a_taper(self):
        # The probe's own derivative is not an observation: a point set has
        # kernels that are differentiable away from their sites, and the
        # symmetric slope 0 at them.
        obs = observation_set([pt([0.0, 0.0]), pt([0.5, 0.0]), pt([3.0, 3.0])], 2)
        z = np.array([1.0, 0.0])
        got = derivative_vector(obs, np.array([0.0, 0.0]), z, TAPERED)
        assert got[0] == 0.0 and got[2] == 0.0  # at its site; beyond the taper range
        assert got[1] == pytest.approx(-TAPERED.deriv1(0.5), rel=1e-14)  # toward the site


    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernel_of(pt([0.0, 0.0]), [0.0], G2)


def fd_dd_oracle(model, c1, z1, c2, z2, h=1e-4):
    f = lambda s, t: model.eval(abs((c1 + s * z1) - (c2 + t * z2)))
    return (f(h, h) - f(h, -h) - f(-h, h) + f(-h, -h)) / (4 * h * h)


class TestCrossCorrelation:
    def test_exact_point_self(self):
        a = pt(0.0)
        assert entry(a, None, M52, 1.0) == 1.0

    def test_point_self_with_error_ratio(self):
        obs = observation_set([pt(0.0, error_var=1.0), pt(0.0, error_var=1.0)])
        assert cross_correlation(obs, 1, 1, M52, 1.0) == 2.0
        assert cross_correlation(obs, 1, 1, M52, 4.0) == 1.25

    def test_identical_but_distinct_objects_are_offdiagonal(self):
        # two identical rows are still two observations: off the diagonal, no ratio
        obs = observation_set([pt(0.0, error_var=1.0), pt(0.0, error_var=1.0)])
        assert cross_correlation(obs, 0, 1, M52, 1.0) == 1.0
        assert cross_correlation(obs, 1, 0, M52, 4.0) == 1.0

    def test_derivative_self_value(self):
        a = dv(2.0)
        assert entry(a, None, M52, 1.0) == pytest.approx(5.0 / 3.0, abs=1e-12)
        # independent oracle: second central difference of the correlation at lag 0
        h = 1e-4
        fd = -(M52.eval(h) - 2.0 * M52.eval(0.0) + M52.eval(h)) / h**2
        assert entry(a, None, M52, 1.0) == pytest.approx(fd, abs=1e-4)

    def test_derivative_self_wide_range(self):
        a = dv(0.0)
        assert entry(a, None, M52_WIDE, 1.0) == pytest.approx(5.0 / 27.0, abs=1e-12)

    @pytest.mark.parametrize("model", [M52, G2])
    def test_point_deriv_matches_fd(self, model):
        a, b = pt(0.3), dv(1.1, z=-1.0)
        h = 1e-5
        fd = -1.0 * (model.eval(abs(0.3 - (1.1 + h))) - model.eval(abs(0.3 - (1.1 - h)))) / (2 * h)
        assert entry(a, b, model, 1.0) == pytest.approx(fd, abs=1e-7)

    @pytest.mark.parametrize("model", [M52, G2])
    def test_deriv_deriv_matches_fd(self, model):
        a, b = dv(0.0), dv(0.7, z=-1.0)
        oracle = fd_dd_oracle(model, 0.0, 1.0, 0.7, -1.0)
        assert entry(a, b, model, 1.0) == pytest.approx(oracle, abs=1e-6)

    @pytest.mark.parametrize("model", [M52, G2, TAPERED])
    def test_point_avg_matches_quadrature(self, model):
        a, b = pt(0.4), av(1.0, 2.2)
        oracle = quad(lambda u: model.eval(abs(0.4 - u)), 1.0, 2.2,
                      points=[1.4] if model.taper_range else None,
                      epsabs=1e-13, epsrel=1e-13, limit=200)[0]
        assert entry(a, b, model, 1.0) == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("model", [M52, G2])
    def test_deriv_avg_matches_quadrature_of_fd(self, model):
        a, b = dv(0.9), av(1.5, 3.0)
        h = 1e-5
        oracle = quad(
            lambda v: (model.eval(abs(0.9 + h - v)) - model.eval(abs(0.9 - h - v))) / (2 * h),
            1.5, 3.0, epsabs=1e-12, epsrel=1e-12, limit=200)[0]
        assert entry(a, b, model, 1.0) == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("model", [M52, G2, TAPERED])
    def test_avg_avg_matches_double_quadrature(self, model):
        a, b = av(0.0, 1.0), av(0.5, 2.5)
        oracle = dblquad(lambda u, v: model.eval(abs(u - v)), 0.5, 2.5, 0.0, 1.0,
                         epsabs=1e-11)[0]
        assert entry(a, b, model, 1.0) == pytest.approx(oracle, abs=1e-8)

    def test_avg_self_with_error(self):
        a = av(5.0, 6.0, error_var=0.5)
        base = av(5.0, 6.0)
        assert entry(a, None, M52, 2.0) == pytest.approx(
            entry(base, None, M52, 2.0) + 0.25, abs=1e-14)

    def test_symmetry_is_exact(self):
        pairs = [(pt(0.3), dv(1.0)), (pt(0.1), av(2.0, 3.0)), (dv(-1.0), av(0.0, 1.5)),
                 (pt(0.0), pt(2.0)), (dv(0.0), dv(1.0)), (av(0.0, 1.0), av(0.5, 2.0))]
        for a, b in pairs:
            assert entry(a, b, M52, 1.0) == entry(b, a, M52, 1.0)

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
        assert entry(a, b, M52, 1.0) == entry(b, a, M52, 1.0)

    def test_invalid_sigma2(self):
        with pytest.raises(ValueError):
            entry(pt(0.0), pt(1.0), M52, 0.0)


class TestGauss2ClosedForms:
    """Untapered gauss2 interval entries (erf closed forms) against quadrature."""

    @pytest.mark.parametrize("x", [-2.0, 0.3, 0.8, 1.1, 2.4, 1.1 + 1000 * 0.5],
                             ids=["left", "at_lo", "inside", "at_hi", "right", "lag_1000_scales"])
    def test_point_interval_matches_quadrature(self, x):
        lo, hi = 0.3, 1.1
        oracle = quad(lambda u: G2.eval(abs(x - u)), lo, hi,
                      points=[x] if lo < x < hi else None, epsabs=1e-14, epsrel=1e-14,
                      limit=200)[0]
        assert entry(pt(x), av(lo, hi), G2, 1.0) == pytest.approx(oracle, abs=1e-12)
        assert kernel_of(av(lo, hi), [x], G2) == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("a, b", [((0.0, 1.0), (0.5, 2.5)), ((0.0, 3.0), (1.0, 1.4)),
                                      ((0.0, 1.0), (1.0, 1.7)), ((0.0, 1.0), (1.6, 2.1)),
                                      ((0.0, 1.0), (1.0 + 1000 * 0.5, 2.2 + 1000 * 0.5))],
                             ids=["overlapping", "nested", "touching", "disjoint",
                                  "lag_1000_scales"])
    def test_interval_interval_matches_double_quadrature(self, a, b):
        oracle = dblquad(lambda u, v: G2.eval(abs(u - v)), b[0], b[1], a[0], a[1],
                         epsabs=1e-14, epsrel=1e-13)[0]
        assert entry(av(*a), av(*b), G2, 1.0) == pytest.approx(oracle, abs=1e-12)


# Positions in units of the taper range: the origin, +-1 and points just
# inside and beyond them, and points beyond reach of the origin.
LANDMARKS = (0.0, 1.0, -1.0, 1.0 - 1e-9, -1.0 + 1e-9, 1.0 + 1e-9, 2.5, -4.0)


@st.composite
def interval_cases(draw, max_log_ratio, max_log2_unit=0):
    """(model, unit, x, (lo1, hi1), (lo2, hi2)): a base of either kind, with or
    without the taper range ``unit`` (a power of 2), whose scale is 10^r units (|r| <= max_log_ratio); a point and
    two intervals from the landmarks and [-3, 3] units, so that intervals
    cross 0 and +-unit and some supports lie beyond reach of each other."""
    unit = 2.0 ** draw(st.integers(-max_log2_unit, max_log2_unit))
    scale = unit * 10.0 ** draw(st.floats(-max_log_ratio, max_log_ratio))
    model = CorrelationModel(draw(st.sampled_from(["matern52", "gauss2"])), scale,
                             draw(st.sampled_from([None, unit])))
    where = st.one_of(st.sampled_from(LANDMARKS), st.floats(-3.0, 3.0))
    x = unit * draw(where)
    a, b = (tuple(unit * np.sort(draw(st.lists(where, min_size=2, max_size=2))))
            for _ in range(2))
    assume(a[0] < a[1] and b[0] < b[1])  # also after a subnormal bound is scaled
    return model, unit, x, a, b


class TestIntervalEntries:
    """(point, avg) and (avg, avg) entries of both bases, tapered or not, in
    closed form, against quadrature and at extreme scale ratios."""

    @given(interval_cases(3.0))
    @settings(max_examples=150, deadline=None)
    def test_match_quadrature(self, case):
        model, _, x, a, b = case
        assert entry(pt(x), av(*a), model, 1.0) == pytest.approx(
            oracles.quad_interval_point(model, x, *a), abs=1e-10)
        assert entry(av(*a), av(*b), model, 1.0) == pytest.approx(
            oracles.quad_interval_interval(model, *a, *b), abs=1e-8)

    @pytest.mark.parametrize("tau_m", [1e3, 1e6])
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_untapered_matern_at_huge_scales_matches_quadrature(self, tau_m, data):
        # The positions of interval_cases; its model is replaced.
        _, _, x, a, b = data.draw(interval_cases(0.0))
        model = CorrelationModel("matern52", tau_m)
        assert entry(pt(x), av(*a), model, 1.0) == pytest.approx(
            oracles.quad_interval_point(model, x, *a), abs=1e-10)
        assert entry(av(*a), av(*b), model, 1.0) == pytest.approx(
            oracles.quad_interval_interval(model, *a, *b), abs=1e-8)

    @given(interval_cases(6.0, 10))
    @settings(max_examples=300, deadline=None)
    def test_finite_bounded_and_zero_beyond_reach_at_extreme_ratios(self, case):
        model, unit, x, a, b = case
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            point_avg = entry(pt(x), av(*a), model, 1.0)
            avg_avg = entry(av(*a), av(*b), model, 1.0)
        assert math.isfinite(avg_avg)
        # An integral of a correlation in [0, 1] over [lo, hi], up to the
        # rounding of the closed form's terms: as large as the lags (8 units at
        # most).
        size = 8.0 * unit
        slack = 64.0 * np.finfo(float).eps * size
        assert -slack <= point_avg <= a[1] - a[0] + slack
        if model.taper_range is not None:
            assert point_avg == 0.0 or separation(pt(x), av(*a)) < unit
            assert avg_avg == 0.0 or separation(av(*a), av(*b)) < unit


class TestSupportSeparation:
    def test_points(self):
        assert separation(pt(0.0), pt(3.0)) == 3.0
        assert separation(pt([0.0, 1.0]), pt([3.0, 5.0])) == 5.0

    def test_point_interval(self):
        assert separation(pt(0.0), av(1.0, 2.0)) == 1.0
        assert separation(pt(1.5), av(1.0, 2.0)) == 0.0
        assert separation(av(1.0, 2.0), pt(4.0)) == 2.0

    def test_intervals(self):
        assert separation(av(0.0, 1.0), av(3.0, 4.0)) == 2.0
        assert separation(av(0.0, 2.0), av(1.0, 4.0)) == 0.0


def g2_mixed():
    """Closed-form interval entries: overlapping, nested, touching and
    disjoint intervals among points and derivatives, some noisy."""
    return observation_set([
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
        for j in range(i + 1):
            if model.taper_range is not None and \
                    _support_separations(obs, i, j) >= model.taper_range:
                continue
            dense[i, j] = dense[j, i] = cross_correlation(obs, i, j, model, sigma2_r)
            kept[i, j] = kept[j, i] = True
    return dense, kept


def pattern(rows, cols, m):
    """The symmetric boolean pattern of (row, col) index arrays (either triangle or both)."""
    out = np.zeros((m, m), dtype=bool)
    out[rows, cols] = out[cols, rows] = True
    return out


@st.composite
def operator_sets(draw):
    """A 1-D set on a jittered lattice with a model for it: every kind under an
    untapered gauss2 or Matern-5/2 model, points and intervals under a taper;
    signed derivatives, overlapping intervals and some error variances."""
    taper = draw(st.one_of(st.none(), st.floats(0.5, 4.0)))
    model = CorrelationModel(draw(st.sampled_from(["gauss2", "matern52"])),
                             draw(st.floats(0.2, 3.0)), taper)
    spacing = draw(st.floats(0.3, 2.0))
    rows = draw(st.lists(st.tuples(st.sampled_from([POINT, AVG] if taper else KINDS),
                                   st.floats(0.0, 0.4), st.floats(0.1, 1.5),
                                   st.floats(-1e3, 1e3), st.sampled_from([0.0, 0.0, 0.05]),
                                   st.sampled_from([-3.0, 2.0])),
                         min_size=1, max_size=20))
    sites = [spacing * (i + jitter) for i, (_, jitter, *_) in enumerate(rows)]
    return observation_set([
        (kind, [x, x + width] if kind == AVG else x, value, error_var, z)
        for x, (kind, _, width, value, error_var, z) in zip(sites, rows)]), model


class TestAssemble:
    @given(operator_sets(), st.sampled_from([1.0, 2.5]))
    @settings(max_examples=60, deadline=None)
    def test_one_evaluation_per_unordered_kind_pair_equals_per_entry(self, case, sigma2_r):
        # The structure orients each stored pair in kind-code order and groups
        # the pairs by unordered kind pair: one _entries call per group (no
        # swapped call), the point pairs one evaluation on their distances.
        obs, model = case
        structure = PairStructure(obs, model.taper_range)
        calls, real_entries = [], kernelfield.obsmodel._entries

        def counting_entries(mdl, ka, a, kb, b):
            calls.append((ka, kb))
            return real_entries(mdl, ka, a, kb, b)

        with mock.patch.object(kernelfield.obsmodel, "_entries", counting_entries):
            counted = structure.matrix(model, sigma2_r)
        rows, cols, vals = assemble(obs, model, sigma2_r).lower_entries()
        kinds = np.sort(np.column_stack([obs.kinds[rows], obs.kinds[cols]]), axis=1)
        present = {tuple(pair) for pair in kinds.tolist()} - {(KIND_CODES[POINT],) * 2}
        assert sorted(calls) == sorted(present)
        assert counted._values.tobytes() == vals.tobytes()
        want = [cross_correlation(obs, r, c, model, sigma2_r) for r, c in zip(rows, cols)]
        assert vals.tobytes() == np.array(want).tobytes()  # bit for bit, signed zeros too

    def test_single_exact_point(self):
        s = assemble(observation_set([pt(0.0, value=1.0)]), M52, 1.0)
        assert np.array_equal(s.to_dense(), [[1.0]])

    def test_two_distant_points_tapered_identity(self):
        s = assemble(observation_set([pt(0.0), pt(5.0)]), TAPERED, 1.0)
        assert np.array_equal(s.to_dense(), np.eye(2))
        assert s.nnz_lower == 2

    def test_demo_weight_reproduction(self):
        s = assemble(demo_observation_set((1, 0, 2)), M52, 1.0)
        alpha = np.linalg.solve(s.to_dense(), np.array([1.0, 0.0, 2.0]))
        assert np.allclose(alpha, [0.9992, -0.00085, 2.23876], atol=1e-3)

    def test_duplicate_exact_points_rejected(self):
        obs = observation_set([pt([1.0, 2.0], 1.0), pt([1.0, 2.0], 3.0)])
        with pytest.raises(ValueError, match="duplicate exact point"):
            assemble(obs, G2, 1.0)

    def test_duplicate_signed_zero_rejected(self):
        obs = observation_set([pt([0.0, 1.0], 1.0), pt([2.0, 1.0]), pt([-0.0, 1.0], 3.0)])
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
        obs = observation_set([pt(x[:2], error_var=x[2] if len(x) > 2 else 0.0) for x in sites])
        with pytest.raises(ValueError, match=rf"duplicate exact point.*indices {named}\)"):
            assemble(obs, model, 1.0)

    @pytest.mark.parametrize("rows, named", [
        ([dv(1.0), pt(0.0), dv(1.0, z=-1.0)],
         "deriv observations at one location (indices 0 and 2)"),
        ([av(1.0, 2.0), av(1.0, 2.5), av(1.0, 2.0)],
         "avg observations over one interval (indices 0 and 2)")], ids=["deriv", "avg"])
    def test_duplicate_exact_operators_rejected(self, rows, named):
        with pytest.raises(ValueError, match=re.escape(f"duplicate exact {named}")):
            assemble(observation_set(rows), M52, 1.0)
        noisy = [row[:3] + (0.1,) + row[4:] for row in rows]  # error variances make it regular
        assert assemble(observation_set(noisy), M52, 1.0).order == 3

    def test_duplicate_with_error_allowed(self):
        obs = observation_set([pt([1.0, 2.0], 1.0), pt([1.0, 2.0], 3.0, error_var=0.5)])
        s = assemble(obs, G2, 1.0)
        cholesky(s)  # positive definite thanks to the error ratio

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            assemble(observation_set([], 1), M52, 1.0)

    def test_structure_refuses_a_model_of_another_taper_range(self):
        obs = observation_set([pt(0.0), pt(0.7), pt(3.0)])
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
        obs = observation_set(obs_list)
        s = assemble(obs, TAPERED, 1.0)
        dense, _ = brute_force_matrix(obs, TAPERED, 1.0)
        assert np.allclose(s.to_dense(), dense, atol=1e-15)
        # absent entries are mathematically zero
        got = s.to_dense()
        m = obs.m
        for i in range(m):
            for j in range(m):
                if got[i, j] == 0.0 and i != j:
                    assert _support_separations(obs, i, j) >= TAPERED.taper_range or \
                        cross_correlation(obs, i, j, TAPERED, 1.0) == 0.0

    @pytest.mark.parametrize("case", ["tapered_1d_mixed", "untapered_2d", "gauss2_1d_mixed"])
    def test_matches_all_pairs_brute_force(self, case):
        rng = np.random.default_rng(21)
        if case == "tapered_1d_mixed":
            # Intervals whose supports sit just inside, exactly at and just
            # beyond the taper range from a point; a noisy point among exact ones.
            model, sigma2 = TAPERED, 2.0
            obs = observation_set([
                pt(0.0, 0.3), pt(0.9, -0.2, error_var=0.4), pt(3.0, 1.1),
                av(1.0 - 1e-9, 1.5), av(1.0, 1.8), av(1.0 + 1e-9, 2.2),
                av(3.4, 4.4), pt(5.4, 0.7), pt(7.0, 0.1, error_var=0.1),
            ])
        elif case == "gauss2_1d_mixed":
            model, sigma2, obs = G2, 1.5, g2_mixed()
        else:
            model, sigma2 = M52, 1.5
            obs = observation_set([pt(rng.uniform(0, 4, 2), float(rng.normal()),
                                     error_var=0.2 if k % 5 == 0 else 0.0)
                                  for k in range(25)])
        dense, kept = brute_force_matrix(obs, model, sigma2)
        s = assemble(obs, model, sigma2)
        np.testing.assert_allclose(s.to_dense(), dense, rtol=0.0, atol=1e-15)
        # The structure selects the pairs, and the matrix stores each of them
        # whatever its value, zero included (the interval 1e-9 inside reach
        # has an exact entry of about 1e-29).
        structure = PairStructure(obs, model.taper_range)
        for a in (structure._pattern, s):
            rows, cols, _ = a.lower_entries()
            assert np.array_equal(pattern(rows, cols, obs.m), kept)
        rows, cols, vals = s.lower_entries()
        assert np.array_equal(vals, dense[rows, cols])

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
        obs = ObservationSet(np.zeros(m, dtype=np.int8), sites, np.zeros(m), error_vars)
        rows, cols, got = assemble(obs, model, 2.0).lower_entries()
        i, j = np.tril_indices(m)
        dist = _distances(sites[i], sites[j])
        vals = model.eval(dist) + np.where(i == j, error_vars[i] / 2.0, 0.0)
        csr = np.lexsort((j, i))
        csr = csr[dist[csr] < tau0]
        assert np.array_equal(rows, i[csr]) and np.array_equal(cols, j[csr])
        assert np.array_equal(got, vals[csr])

    def test_gauss2_interval_entries_match_quadrature(self):
        # brute_force_matrix shares the array path with assemble; this
        # checks every entry with an interval against quadrature of the
        # point correlation instead (derivatives as central differences).
        obs, sigma2, h = g2_mixed(), 1.5, 1e-4
        got = assemble(obs, G2, sigma2).to_dense() - np.diag(obs.error_vars() / sigma2)

        def integral(j, v):  # int rho(|u - v|) du over observation j's interval
            return quad(lambda u: G2.eval(abs(u - v)), *obs.bounds[j],
                        epsabs=1e-14, epsrel=1e-14, limit=200)[0]

        kinds, sites = [KINDS[k] for k in obs.kinds], obs.rep_points()[:, 0]
        for i in range(obs.m):
            for j in range(obs.m):
                if kinds[j] != AVG or (kinds[i] == AVG and j > i):
                    continue
                if kinds[i] == POINT:
                    oracle, tol = integral(j, sites[i]), 1e-12
                elif kinds[i] == DERIV:
                    c, z = sites[i], obs.directions[i, 0]
                    oracle = z * (integral(j, c + h) - integral(j, c - h)) / (2 * h)
                    tol = 1e-7
                else:
                    oracle = dblquad(lambda u, v: G2.eval(abs(u - v)), *obs.bounds[j],
                                     *obs.bounds[i], epsabs=1e-14, epsrel=1e-13)[0]
                    tol = 1e-12
                assert got[i, j] == got[j, i] == pytest.approx(oracle, abs=tol), (i, j)

    def test_sparsity_bounded_by_neighborhoods(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(0, 10, (120, 2))
        obs = observation_set([pt(p, value=0.0) for p in pts])
        s = assemble(obs, TAPERED, 1.0)
        max_in_ball = max(
            int(np.sum(np.linalg.norm(pts - pts[i], axis=1) < TAPERED.taper_range))
            for i in range(len(pts)))
        assert s.full().nnz <= obs.m * max_in_ball

    def test_positive_definite_for_shipped_configs(self):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            pts = rng.uniform(0, 8, (30, 2)) * 1.0
            obs = observation_set([pt(p, value=0.0) for p in pts])
            cholesky(assemble(obs, TAPERED, 1.0))


DEMO_ROWS = [pt(0.0, 1.0), dv(-5.0, 0.0), av(5.0, 6.0, 2.0)]  # demo_observation_set((1, 0, 2))


class TestKernelVector:
    def test_matches_pointwise(self):
        obs = demo_observation_set((1, 0, 2))
        assert_same_columns(obs, observation_set(DEMO_ROWS))
        x = [1.7]
        v = kernel_vector(obs, x, M52)
        expect = [kernel_of(row, x, M52) for row in DEMO_ROWS]
        assert np.allclose(v, expect, atol=1e-15)

    def test_one_observation_over_a_block(self):
        obs = demo_observation_set((1, 0, 2))
        one = observation_set(DEMO_ROWS[2:])
        block = np.array([[-1.0], [0.4], [1.7]])
        got = kernel_value(one, block, M52)
        assert got.shape == (3, 1)
        np.testing.assert_allclose(got[:, 0], kernel_vector(obs, block, M52)[:, 2],
                                   rtol=0, atol=1e-15)
        assert kernel_value(one, [0.4], M52).shape == (1,)

    def test_block_matches_single_point_calls(self):
        rng = np.random.default_rng(4)
        cases = [(demo_observation_set((1, 0, 2)), M52, rng.uniform(-8, 8, (7, 1))),
                 (observation_set([pt(p) for p in rng.uniform(0, 3, (12, 2))]), TAPERED,
                  rng.uniform(-1, 4, (9, 2)))]
        for obs, model, block in cases:
            got = kernel_vector(obs, block, model)
            got = got.toarray() if model.taper_range is not None else got
            assert got.shape == (block.shape[0], obs.m)
            for row, x in zip(got, block):
                np.testing.assert_allclose(row, kernel_vector(obs, x, model),
                                           rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize("model", [M52, G2, TAPERED], ids=["matern52", "gauss2", "tapered"])
    def test_block_matches_per_entry_kernel_value(self, model):
        rng = np.random.default_rng(6)
        rows = [pt(x) for x in rng.uniform(-3, 3, 5)] + [av(-1.0, 0.5), av(1.2, 1.3), av(2.0, 4.5)]
        if model.taper_range is None:
            rows += [dv(-0.4), dv(2.1, z=-1.0)]
        obs = observation_set(rows)
        block = np.concatenate([rng.uniform(-5, 5, (9, 1)), [[-1.0], [1.3], [2.0]]])
        expect = [[kernel_of(row, x, model) for row in rows] for x in block]
        got = kernel_vector(obs, block, model)
        got = got.toarray() if model.taper_range is not None else got
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-15)

    def test_block_type_by_model(self):
        obs = observation_set([pt([0.0, 1.0]), pt([3.0, 1.0])])
        block = np.array([[0.0, 0.5], [9.0, 9.0], [3.0, 1.0]])
        assert isinstance(kernel_vector(obs, block, TAPERED), sp.csr_matrix)
        assert isinstance(kernel_vector(obs, block, G2), np.ndarray)
        assert isinstance(kernel_vector(obs, block[0], TAPERED), np.ndarray)
        one = kernel_value(observation_set([pt([0.0, 1.0])]), block, TAPERED)
        assert isinstance(one, sp.csr_matrix) and one.shape == (3, 1)
        empty = kernel_vector(observation_set([], 2), block, TAPERED)
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
        obs = observation_set([pt(p) for p in sites])
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
        obs = observation_set([pt(x) for x in rng.uniform(-3, 3, 6)]
                             + [av(-1.0, 0.5), av(1.2, 1.3), av(2.0, 4.5)])
        block = np.concatenate([rng.uniform(-5, 5, (9, 1)), [[-1.0], [1.3], [2.0], [5.5]],
                                obs.rep_points()[:2] + TAPERED.taper_range])
        got = kernel_vector(obs, block, TAPERED)
        assert isinstance(got, sp.csr_matrix) and np.all(got.data != 0.0)
        dense = np.array([kernel_vector(obs, x, TAPERED) for x in block])
        assert np.array_equal(got.toarray(), dense)

    def test_rejects_wrong_query_dimension(self):
        obs = observation_set([pt([0.0, 1.0])])
        with pytest.raises(ValueError):
            kernel_vector(obs, [0.0, 1.0, 2.0], M52)


class TestCsv:
    def test_round_trip(self, tmp_path):
        obs = observation_set([
            pt(0.5, value=1.25, error_var=0.1),
            dv(-2.0, value=0.3, z=-1.0),
            av(1.0, 2.5, value=4.0),
        ])
        path = tmp_path / "obs.csv"
        write_observations_csv(path, obs)
        assert_same_columns(read_observations_csv(path), obs)

    def test_round_trip_2d(self, tmp_path):
        obs = observation_set([pt([0.5, 1.5], value=2.0), pt([3.0, 0.25], value=-1.0)])
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

    def test_byte_order_mark_reads_as_without_it(self, tmp_path):
        text = "x1,kind,value,error_var,p1,p2\n0.5,point,1.0,,,\n2.0,deriv,-0.5,0.1,-1,\n" \
               "3.0,avg,2.0,,2.5,3.5\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        assert_same_columns(read_observations_csv(marked), read_observations_csv(plain))


# -- columns: malformed CSV rows, round trips, the constructor ---------------

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


def set_of_rows(rows, dim):
    """The set of ``rows``, its columns given as arrays."""
    kinds, sites, values, error_vars, z, bounds = zip(*rows) if rows else ([],) * 6
    return ObservationSet(
        [KIND_CODES[k] for k in kinds], np.reshape(sites, (len(rows), dim)), values,
        error_vars, np.reshape(z, (len(rows), 1)) if dim == 1 else None,
        np.reshape(bounds, (len(rows), 2)), dim)


def assert_holds_rows(obs, rows):
    """Each column of ``obs`` holds its ``rows``' fields, or what they imply."""
    for i, (kind, site, value, error_var, z, (lo, hi)) in enumerate(rows):
        avg = kind == AVG
        assert (KINDS[obs.kinds[i]], obs.values()[i], obs.error_vars()[i]) == \
            (kind, value, error_var)
        assert obs.rep_points()[i].tolist() == \
            ([0.5 * (lo + hi)] if avg else np.atleast_1d(site).tolist())
        assert obs.support_radii()[i] == (0.5 * (hi - lo) if avg else 0.0)
        assert obs.mean_image()[i] == {POINT: 1.0, DERIV: 0.0, AVG: hi - lo}[kind]
        assert obs.directions[i].tolist() == \
            ([math.copysign(1.0, z)] if kind == DERIV else [0.0] * obs.dim)
        assert np.array_equal(obs.bounds[i], [lo, hi], equal_nan=True)  # NaN off avg rows
        assert obs.point_mask()[i] == (kind == POINT)


def csv_round_trip(obs):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "obs.csv")
        write_observations_csv(path, obs)
        return read_observations_csv(path)


@settings(max_examples=60, deadline=None)
@given(st.lists(mixed_1d_rows(), max_size=12))
def test_mixed_1d_columns_round_trip(rows):
    obs = set_of_rows(rows, 1)
    assert_holds_rows(obs, rows)
    assert_same_columns(csv_round_trip(obs), obs)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.tuples(FINITE, FINITE), FINITE, ERROR_VARS), max_size=12))
def test_2d_point_columns_round_trip(points):
    rows = [(POINT, site, value, ev, 0.0, (math.nan, math.nan)) for site, value, ev in points]
    obs = set_of_rows(rows, 2)
    assert_holds_rows(obs, rows)
    assert_same_columns(csv_round_trip(obs), obs)


def test_from_arrays_names_the_first_bad_row():
    with pytest.raises(ValueError, match="observation 2: error_var"):
        ObservationSet([0, 0, 0, 0], np.zeros((4, 1)), np.ones(4), [0.0, 0.0, -1.0, np.nan])
    with pytest.raises(ValueError, match="observation 1: unknown observation kind"):
        ObservationSet([0, 7], np.zeros((2, 1)), np.ones(2), np.zeros(2))
    with pytest.raises(ValueError, match="values of shape"):
        ObservationSet([0, 0], np.zeros((2, 1)), np.ones(3), np.zeros(2))
