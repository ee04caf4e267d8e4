import decimal
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelfield import CorrelationModel
from kernelfield.corrfn import SQRT5, _Matern52, _spherical

import oracles
from oracles import spot_check_nonneg_definite

# frozen from 50-digit evaluation of the closed forms
MATERN52_AT_1 = 0.52399410883182031
PRODUCT_AT_HALF = 0.11496232536607573  # exp(-1) * 0.3125


def taper_model(kind="gauss2", scale=0.5, tau0=1.0):
    return CorrelationModel(kind, scale, tau0)


def matern52(d, tau_m):
    return CorrelationModel("matern52", tau_m).eval(d)


def gauss2(d, scale):
    return CorrelationModel("gauss2", scale).eval(d)


def slope(model, lags):
    """The first lag derivative, through the core the operator table runs."""
    return model._deriv1(np.asarray(lags, dtype=float))


def curvature(model, lags):
    """The second lag derivative of an untapered model: the base's rho''."""
    return model._base(np.abs(np.asarray(lags, dtype=float)), 2)


class TestMatern52:
    def test_origin(self):
        assert matern52(0.0, 1.0) == 1.0

    def test_reference_value(self):
        assert matern52(1.0, 1.0) == pytest.approx(MATERN52_AT_1, abs=1e-15)

    def test_scale_invariance_examples(self):
        for t in [0.3, 1.0, 2.7, 9.9]:
            assert matern52(t, 3.0) == pytest.approx(matern52(t / 3.0, 1.0), abs=1e-14)

    @given(
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.5, max_value=2.0),
        st.floats(min_value=0.25, max_value=4.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_scale_invariance_property(self, d, tau, c):
        assert abs(matern52(d, c * tau) - matern52(d / c, tau)) <= 1e-14

    def test_vectorized(self):
        d = np.linspace(0, 5, 11)
        v = matern52(d, 1.0)
        assert v.shape == d.shape
        assert v[0] == 1.0 and np.all((v >= 0) & (v <= 1))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            matern52(-0.1, 1.0)
        with pytest.raises(ValueError):
            matern52(float("nan"), 1.0)
        with pytest.raises(ValueError):
            CorrelationModel("matern52", 0.0)
        with pytest.raises(ValueError):
            CorrelationModel("matern52", float("inf"))


# H(a) = int_0^a int_0^t rho, untapered Matern-5/2, at (tau_m, a): 50-digit
# values of its closed form by mpmath (a nested mpmath.quad agrees to 1e-44).
MATERN52_H = [(1e6, 0.5, 0.1249999999999956597222), (1e6, 2.0, 1.999999999998888888889),
              (1e6, 6.0, 17.99999999991), (0.5, 0.5, 0.111650108045026234668),
              (0.5, 2.0, 0.9429123434090026960208), (0.5, 6.0, 3.327708764033832061342)]

# G_n(x) = int_0^x t^n (1 + t + t^2/3) e^{-t} dt, Matern-5/2's moments, at the
# double x for n = 0..4: 50-digit values of its incomplete gamma sum by mpmath
# (an mpmath.quad of the integrand agrees to 1e-54).
MATERN52_MOMENTS = [
    (1e-08, ["1.0000000000000000153670052745729168543950643278874e-8",
             "5.0000000000000001675589416346180594827184022601054e-17",
             "3.3333333333333335092256083012847282389464785693795e-25",
             "2.500000000000000181447830523506952575531697647613e-33",
             "2.0000000000000001854160844917609229603973399445414e-41"]),
    (1e-06, ["9.9999999999994439919255627867157474105135526544197e-7",
             "4.999999999999582880814451661715762940184520191335e-13",
             "3.3333333333329995474811183184618088931361865818215e-19",
             "2.4999999999997217697033405332435682499681164202473e-25",
             "1.9999999999997614522430230671390836032728496897855e-31"]),
    (0.0001, ["9.9999999944444449319947668572252053488305700615801e-5",
              "4.9999999958333338194948197660380695646590375964898e-9",
              "3.3333333300000004851694626222164496535618323987894e-13",
              "2.499999997222222706647668088817004666350058385137e-17",
              "1.9999999976190481028943859012368614268070889281906e-21"]),
    (0.01, ["9.9999444452740841830631787908691563180874646340759e-3",
            "4.9999583340246120457142887619048491177571283327051e-5",
            "3.3333000005924682258263000750713075022580382315946e-7",
            "2.4999722227405935579549429696349173034628099719982e-9",
            "1.9999761909369377250205909707740200956525939676187e-11"]),
    (0.1, ["9.9944524171328016332632033040157597975485720273544e-2",
           "4.9958399688245034964789620028426688564295325831285e-3",
           "3.3300056821630885500675819634280181812402129936517e-4",
           "2.4972271904444979206550743538268729431969461365817e-5",
           "1.9976234612095064325636866904320776093831829886755e-6"]),
    (1.0, ["9.4989594119993583255422240591318261858621472185175e-1",
           "4.6282022555221136698854016800864930150166271727486e-1",
           "3.0381051001846094525765247311100298897872507597791e-1",
           "2.2553265781643967071565825937625547444448881430803e-1",
           "1.7911637779517780200353313154249496487038662352223e-1"]),
]


class TestMatern52Integrals:
    # At tau_m = 1e6 the closed form in expm1 cancels terms of size 1.2 a tau_m
    # (off by up to 5.9e-10); a F(a) - G_1/k^2 is within a few ulps.
    @pytest.mark.parametrize("tau_m, a, want", MATERN52_H)
    def test_h_against_50_digit_values(self, tau_m, a, want):
        h = CorrelationModel("matern52", tau_m)._integrals(np.array([a, -a]))[1]
        assert np.all(np.abs(h - want) <= 1e-14)

    # The gamma sums lost up to 59 eps at x = 1e-8; the series below x = 1.5
    # is exact to round-off.  At tau_m = sqrt(5) the rate k is exactly 1, so x
    # is the lag itself.
    @pytest.mark.parametrize("x, want", MATERN52_MOMENTS,
                             ids=[f"x={x:g}" for x, _ in MATERN52_MOMENTS])
    def test_moments_against_50_digit_values(self, x, want):
        length, g = _Matern52.moments(np.float64(x), SQRT5)
        assert length == 1.0 and g.shape == (5,)
        eps = decimal.Decimal(np.finfo(float).eps)
        for got, value in zip(g.tolist(), want):
            exact = decimal.Decimal(value)
            assert abs(decimal.Decimal(got) - exact) <= 4 * eps * exact


class TestGauss2:
    def test_origin(self):
        assert gauss2(0.0, 0.5) == 1.0

    def test_reference_value(self):
        assert gauss2(0.5, 0.5) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_tail_decay(self):
        assert gauss2(10.0, 0.5) < 1e-170

    def test_invalid(self):
        with pytest.raises(ValueError):
            CorrelationModel("gauss2", -1.0)


class TestSpherical:
    def test_origin(self):
        assert _spherical(np.float64(0.0), 1.0) == 1.0

    def test_boundary_exact_zero(self):
        assert _spherical(np.float64(1.0), 1.0) == 0.0
        assert _spherical(np.float64(1.5), 1.0) == 0.0

    def test_interior_value(self):
        assert _spherical(np.float64(0.5), 1.0) == pytest.approx(0.3125, abs=1e-15)
        d = np.linspace(0.0, 3.0, 301)
        for tau0 in (0.3, 1.0, 2.5):
            np.testing.assert_allclose(_spherical(d, tau0), oracles.spherical(d, tau0),
                                       rtol=1e-14, atol=1e-16)


class TestModelEval:
    def test_product_value(self):
        model = taper_model()
        assert model.eval(0.5) == pytest.approx(PRODUCT_AT_HALF, abs=1e-15)

    def test_origin_is_one(self):
        for model in [taper_model(), CorrelationModel("matern52", 2.0),
                      CorrelationModel("matern52", 1.0, 1.0)]:
            assert model.eval(0.0) == 1.0

    def test_finite_range_exact_zero(self):
        model = taper_model()
        assert model.eval(1.0) == 0.0
        assert model.eval(1.0000001) == 0.0
        d = np.array([0.2, 0.9999, 1.0, 3.0])
        v = model.eval(d)
        assert v[2] == 0.0 and v[3] == 0.0 and v[1] > 0.0

    @pytest.mark.parametrize("kind,scale", [("matern52", 0.7), ("gauss2", 0.5)])
    def test_monotone_nonincreasing_inside_range(self, kind, scale):
        model = CorrelationModel(kind, scale, 1.0)
        d = np.linspace(0.0, 1.0, 1000)
        v = np.asarray(model.eval(d))
        assert np.all(np.diff(v) <= 1e-15)
        assert np.all((v >= 0.0) & (v <= 1.0))

    def test_deterministic(self):
        model = taper_model()
        assert model.eval(0.37) == model.eval(0.37)

    def test_scalar_equals_array_to_the_bit(self):
        # At this distance a scalar's (1 - u) ** 2 (the scalar power) rounds
        # differently from an array's square, so a lone entry would differ
        # from the same entry assembled in an array.
        model = CorrelationModel("gauss2", 1.0, 1.1482589838037862)
        d = 0.6270629957669446 - 0.3
        assert model.eval(d) == model.eval(np.array([d]))[0] == 0.5250274236403600

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            CorrelationModel("cubic", 1.0)


class TestExtremeScales:
    """Where the scaled distance is past the point at which the exponential
    is exactly 0, no product on the way there overflows, however small the
    scale.  Underflow is not an error: it is how the tail reaches 0."""

    @given(st.sampled_from(["matern52", "gauss2"]), st.floats(-300.0, 3.0),
           st.one_of(st.none(), st.floats(-300.0, 3.0)),
           st.lists(st.floats(0.0, 1e150), max_size=10),
           st.lists(st.floats(0.0, 60.0), max_size=10))
    @settings(max_examples=300, deadline=None)
    def test_eval_raises_nothing_and_matches_the_closed_form(self, kind, log_scale, log_taper,
                                                             dists, ratios):
        scale = 10.0 ** log_scale
        taper = None if log_taper is None else 10.0 ** log_taper
        d = np.array(dists + [scale * r for r in ratios]  # raw, and near the cuts
                     + ([] if taper is None else [taper * r / 30.0 for r in ratios]))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = CorrelationModel(kind, scale, taper).eval(d)
        assert np.all((got >= 0.0) & (got <= 1.0 + np.finfo(float).eps))
        want = getattr(oracles, kind)(d, scale)
        if taper is not None:
            want = want * oracles.spherical(d, taper)
        finite = np.isfinite(want)
        np.testing.assert_allclose(got[finite], want[finite], rtol=1e-14,
                                   atol=np.finfo(float).tiny)

    @given(st.sampled_from(["matern52", "gauss2"]), st.sampled_from([1, 2]),
           st.floats(-300.0, 3.0), st.lists(st.floats(0.0, 1e150), max_size=10),
           st.lists(st.one_of(st.floats(0.0, 60.0), st.floats(300.0, 700.0)), max_size=10))
    @settings(max_examples=300, deadline=None)
    def test_derivatives_raise_nothing_and_match_the_closed_form(self, kind, order, log_scale,
                                                                 dists, ratios):
        # Near the cuts: a gauss2 ratio of 30, a Matern-5/2 ratio of 1500/sqrt(5); and
        # Matern-5/2 ratios of 317 to 333, where exp(-x) is subnormal.
        scale = 10.0 ** log_scale
        d = np.array(dists + [scale * r for r in ratios])
        want = getattr(oracles, f"{kind}_deriv{order}")(d, scale)
        d, want = d[np.isfinite(want)], want[np.isfinite(want)]
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = (slope, curvature)[order - 1](CorrelationModel(kind, scale), d)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=np.finfo(float).tiny)

    @pytest.mark.parametrize("kind", ["matern52", "gauss2"])
    def test_scales_below_the_smallest_normal_float_refused(self, kind):
        tiny = sys.float_info.min
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            assert CorrelationModel(kind, tiny, tiny).eval([0.0, 1.0]).tolist() == [1.0, 0.0]
        for scale, taper in ((1e-308, None), (tiny / 2.0, None), (1.0, 1e-308)):
            with pytest.raises(ValueError, match="must be a finite real of at least"):
                CorrelationModel(kind, scale, taper)


    @pytest.mark.parametrize("scale", [1e-160, 1e-300, sys.float_info.min])
    def test_matern52_deriv1_is_finite_at_any_scale(self, scale):
        # rho'(d) at range tau is rho'(d / tau) at range 1, over tau: finite,
        # though k^2 = 5/tau^2 overflows below tau ~ 1.7e-154.  The two x = k d
        # differ by rounding, which exp(-x) scales by x: 2 x eps is 3.2e-13 at 320.
        # 320: exp(-x) is subnormal; 700: past the clip
        ratios = np.array([0.0, 0.05, 0.4, 1.0, 3.0, 10.0, 320.0, 700.0])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = slope(CorrelationModel("matern52", scale), scale * ratios)
            assert slope(CorrelationModel("matern52", scale), [0.0, 1.0]).tolist() == [0.0, 0.0]
        want = slope(CorrelationModel("matern52", 1.0), ratios) / scale
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


    @pytest.mark.parametrize("kind", ["matern52", "gauss2"])
    @pytest.mark.parametrize("scale", [1e-160, 1e-300, sys.float_info.min])
    def test_derivatives_are_zero_past_the_clip_at_any_scale(self, kind, scale):
        # Past the clip the exponential is exactly 0, and so are rho' and rho'',
        # though their factors of k, k^2, 1/s or 1/s^2 overflow at these scales.
        lags = np.array([1.0, -1.0, 700.0 * scale, -1e3 * scale])
        model = CorrelationModel(kind, scale)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            first, second = slope(model, lags), curvature(model, lags)
        assert first.tolist() == [0.0] * 4
        assert second.tolist() == [0.0] * 4 and not np.signbit(second).any()

    def test_matern52_deriv2_where_exp_is_subnormal(self):
        # x = sqrt(5) d / tau_m = 737.9: e^{-x} is subnormal, rho'' normal.  40-digit
        # mpmath of -(k^2/3)(1 + x - x^2)e^{-x} at these two floats; the x of the code
        # differs from it by rounding, which e^{-x} scales by x: 2 x eps is 3.3e-13.
        got = curvature(CorrelationModel("matern52", 1e-5), 3.3e-3)
        assert got == pytest.approx(3.0924467697860032888e-305, rel=1e-12, abs=0.0)


class TestDerivatives:
    def test_deriv1_odd_and_zero_at_origin(self):
        model = CorrelationModel("matern52", 1.0)
        assert slope(model, 0.0) == 0.0
        assert slope(model, 0.4) == -slope(model, -0.4)

    def test_deriv1_matches_finite_difference(self):
        h = 1e-6
        for model in [CorrelationModel("matern52", 1.3), CorrelationModel("gauss2", 0.6)]:
            for t in [-1.2, -0.3, 0.5, 2.0]:
                fd = (model.eval(abs(t + h)) - model.eval(abs(t - h))) / (2 * h)
                assert slope(model, t) == pytest.approx(fd, abs=5e-9)

    def test_deriv2_matches_finite_difference(self):
        h = 1e-4
        for model in [CorrelationModel("matern52", 1.0), CorrelationModel("gauss2", 0.5)]:
            for t in [0.0, 0.3, -0.9]:
                fd = (model.eval(abs(t + h)) - 2 * model.eval(abs(t)) + model.eval(abs(t - h))) / h**2
                assert curvature(model, t) == pytest.approx(fd, abs=1e-5)

    def test_tapered_deriv1_raises_nothing_for_a_tiny_taper_range(self):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = slope(CorrelationModel("matern52", 1.0, 1e-200), [0.0, 1.0, -3.0])
        assert got.tolist() == [0.0, 0.0, 0.0]

    def test_tapered_deriv1_zero_beyond_range(self):
        model = taper_model()
        assert slope(model, 1.2) == 0.0
        fd = (model.eval(0.5 + 1e-7) - model.eval(0.5 - 1e-7)) / 2e-7
        assert slope(model, 0.5) == pytest.approx(fd, abs=1e-6)


class TestSpotCheck:
    def test_tapered_matern_is_nonneg_definite(self):
        model = CorrelationModel("matern52", 1.0, 1.0)
        assert spot_check_nonneg_definite(model, trials=20, n=15, rng_seed=7)

    def test_spherical_alone_is_nonneg_definite(self):
        assert spot_check_nonneg_definite(lambda d: _spherical(d, 0.8),
                                          trials=10, n=20, rng_seed=3)

    def test_invalid_function_fails(self):
        # truncated linear taper is not non-negative definite in 3D
        bad = lambda d: np.maximum(0.0, 1.0 - d / 0.5)
        assert not spot_check_nonneg_definite(bad, trials=20, n=80, rng_seed=11, dim=3)

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            spot_check_nonneg_definite(taper_model(), trials=0, n=5, rng_seed=1)
