"""Stationary isotropic correlation functions with an optional finite-range taper.

This module owns every base-correlation formula.  Each base kind is written
once, in a scaled distance ``x`` clipped where the exponential is already
exactly 0, so that no tiny scale overflows a product on the way there:
``matern52`` (:class:`_Matern52`, Matern-5/2 with range ``tau_m``) is
``(1 + x + x^2/3) exp(-x)`` at ``x = sqrt(5) d/tau_m``, and ``gauss2``
(:class:`_Gauss2`) is ``exp(-x^2)`` at ``x = d/scale``.  From ``x`` come the
value, the first two lag derivatives (scaled before the exponential, so they
overflow only where their plain closed forms do; Matern-5/2's first, at most
``0.28 k``, nowhere), and the antiderivatives and moments of every interval
integral (:meth:`CorrelationModel._integrals`).  Only ``eval`` checks its input:
the operator table calls the cores ``_eval``, ``_deriv1``, ``_base`` and
``_integrals`` on distances and lags checked where they are made.

The spherical taper ``(1 + d/(2*tau0)) * (1 - d/tau0)^2``, exactly 0 from
``d = tau0`` on, multiplies the base to give a finite range: the product is
again a correlation, and its exact zeros make sparsity patterns deterministic.
"""

import math
import sys
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.special import erf, gamma, gammainc

from .errors import ConfigError

SQRT5 = math.sqrt(5.0)

# Matern-5/2's moments below x = 1.5 by Taylor series: rho(t) = sum_p c_p t^p with
# c_p = (-1)^p (p - 1)(p - 3) / (3 p!), so G_n(x) = x^(n+1) sum_p c_p x^p / (p + n + 1);
# row p holds c_p / (p + n + 1) for n < 5, each rounded once.  24 terms are exact
# to round-off there (within 1.3 eps of 50-digit values, where the gamma sums
# lose up to 59 eps at small x and 3.5 eps near 1.5).
_M52_SERIES = np.array([[(-1) ** p * (p - 1) * (p - 3) / (3 * math.factorial(p) * (p + n + 1))
                         for n in range(5)] for p in range(24)])

ArrayLike = Union[float, np.ndarray]


def _check_dist(dist) -> np.ndarray:
    d = np.asarray(dist, dtype=float)
    if not np.all(np.isfinite(d)):
        raise ValueError("distance must be finite")
    if np.any(d < 0.0):
        raise ValueError("distance must be non-negative")
    return d


def _check_scale(scale, name) -> float:
    """A scale from the smallest normal float up: below it sqrt(5)/scale, the
    Matern-5/2 rate, overflows."""
    s = float(scale)
    if not math.isfinite(s) or s < sys.float_info.min:
        raise ValueError(f"{name} must be a finite real of at least {sys.float_info.min!r}, "
                         f"got {scale!r}")
    return s


class _Matern52:
    """Matern-5/2 at x = k d: its value, lag derivatives, F, H and moments."""

    @staticmethod
    def scaled(d, tau_m):
        """k, and x at d clipped where e^{-x/2} (and so e^{-x}) is exactly 0."""
        k = SQRT5 / tau_m
        return k, k * np.minimum(d, 1500.0 / k)

    @staticmethod
    def rho(d, tau_m, order):
        """rho (order 0), or its first or second derivative in d."""
        k, x = _Matern52.scaled(d, tau_m)
        if order == 0:
            return (1.0 + x + x * x / 3.0) * np.exp(-x)
        h = np.exp(-0.5 * x)  # e^{-x} in halves: subnormal where rho' and rho'' may be normal
        if order == 1:  # k/3 times x(1 + x)e^{-x}: k^2 overflows below tau_m ~ 1.7e-154
            return -(k / 3.0) * (x * (1.0 + x) * h) * h
        # -(k^2/3)(1 + x - x^2)e^{-x} as two factors, each with one k and one half:
        # both are normal where rho'' is, and 0 (not inf times 0) past the clip
        return (-(k / 3.0) * ((1.0 + x - x * x) * h)) * (k * h)

    @staticmethod
    def integrals(a, tau_m):
        """F(a) = int_0^a rho and H(a) = int_0^a F = a F(a) - G_1/k^2 (by parts, with no
        terms of size a/k to cancel at small k a), linear from the clip on."""
        k, x = _Matern52.scaled(a, tau_m)
        f = (-8.0 * np.expm1(-x) - (5.0 * x + x * x) * np.exp(-x)) / (3.0 * k)
        l, g = _Matern52.moments(a, tau_m)
        return f, a * f - l * l * g[1]

    @staticmethod
    def moments(c, tau_m):
        """The length 1/k, and G_n = int_0^x t^n rho(t) dt for n < 5: by Taylor
        series (:data:`_M52_SERIES`, Horner's rule) below x = 1.5, and from it
        on as a sum of lower incomplete gamma functions j! P(j + 1, x) (A&S 6.5)."""
        k, x = _Matern52.scaled(c, tau_m)
        j = np.arange(7.0).reshape(-1, *[1] * np.ndim(x))
        q = gamma(j + 1.0) * gammainc(j + 1.0, x)
        series = 0.0
        for coef in _M52_SERIES[::-1]:
            series = series * x + coef.reshape(j[:5].shape)
        return 1.0 / k, np.where(x < 1.5, series * x ** (j[:5] + 1.0),
                                 q[:5] + q[1:6] + q[2:] / 3.0)


class _Gauss2:
    """gauss2 at u = d/s: its value, lag derivatives, F, H and moments."""

    @staticmethod
    def scaled(d, s):
        """u, clipped where e^{-u^2} is exactly 0."""
        return np.minimum(d, 30.0 * s) / s

    @staticmethod
    def rho(d, s, order):
        """rho (order 0), or its first or second derivative in d."""
        u = _Gauss2.scaled(d, s)
        e = np.exp(-(u * u))
        if order == 0:
            return e
        # e times 2/s first, and the polynomial of rho'' cut to 0 where e is, so that
        # no tiny scale makes inf times 0 past the clip (at a power-of-two scale the
        # order of the factors moves no bit)
        if order == 1:
            return e * -(2.0 / s) * u
        return e * (2.0 / s) * (np.where(e > 0.0, 2.0 * u * u - 1.0, 0.0) / s)

    @staticmethod
    def integrals(a, s):
        """F(a) and H(a) by erf and expm1 (Abramowitz & Stegun 7.1)."""
        u = _Gauss2.scaled(a, s)
        f = 0.5 * s * math.sqrt(math.pi) * erf(u)
        return f, a * f + 0.5 * s * s * np.expm1(-(u * u))

    @staticmethod
    def moments(c, s):
        """The length s, and G_n = int_0^u t^n e^{-t^2} dt for n < 5, each
        Gamma(h) P(h, u^2)/2 at h = (n + 1)/2 (A&S 6.5)."""
        u = _Gauss2.scaled(c, s)
        h = 0.5 * np.arange(1.0, 6.0).reshape(-1, *[1] * np.ndim(u))
        return s, 0.5 * gamma(h) * gammainc(h, u * u)


_BASES = {"matern52": _Matern52, "gauss2": _Gauss2}


def _spherical(d: np.ndarray, tau0: float) -> np.ndarray:
    u = np.minimum(d, tau0) / tau0  # 1, and the taper exactly 0, from tau0 on
    # np.square, not ** 2: on a 0-d array ** 2 is the scalar power, which can
    # differ from an array's square in the last bit
    return (1.0 + 0.5 * u) * np.square(1.0 - u)


@dataclass(frozen=True)
class CorrelationModel:
    """Base correlation plus optional spherical taper.

    ``base_scale`` is ``tau_m`` for ``matern52`` and the denominator scale for
    ``gauss2``.  ``taper_range`` is the finite range ``tau0``; ``None`` means
    infinite range.  Instances are immutable and all methods are pure, so a
    model can be shared freely across threads.
    """

    base_kind: str
    base_scale: float
    taper_range: Optional[float] = None

    def __post_init__(self):
        if self.base_kind not in _BASES:
            raise ValueError(f"unknown base_kind {self.base_kind!r}, "
                             f"expected one of {tuple(_BASES)}")
        _check_scale(self.base_scale, "base_scale")
        if self.taper_range is not None:
            _check_scale(self.taper_range, "taper_range")

    # -- evaluation ----------------------------------------------------

    def eval(self, dist: ArrayLike) -> ArrayLike:
        """Correlation at Euclidean distance ``dist`` (base times taper), a
        float for a scalar ``dist``: the one checked evaluation."""
        value = self._eval(_check_dist(dist))
        return float(value) if np.ndim(dist) == 0 else value

    def _eval(self, d: np.ndarray) -> np.ndarray:
        """:meth:`eval` of a float array of distances already checked to be
        finite and non-negative, such as a pair structure's."""
        base = self._base(d)
        return base if self.taper_range is None else base * _spherical(d, self.taper_range)

    def _base(self, d: np.ndarray, order: int = 0) -> np.ndarray:
        """The base correlation (no taper) at checked distances ``d``, or its
        first or second derivative in ``d``."""
        return _BASES[self.base_kind].rho(d, self.base_scale, order)

    # -- lag derivatives (derivative operators) ---------------------------

    def _deriv1(self, t: np.ndarray) -> np.ndarray:
        """d/dtau of the correlation as a function of the signed 1D lags ``t``
        (floats checked to be finite); at a distance (lag >= 0) it is the slope
        rho'(d) of any dimension.  Odd, and 0 at lag 0, where a tapered model's
        one-sided slopes differ: their mean 0 is returned by convention."""
        a = np.abs(t)
        s = np.sign(t)
        base_d1 = self._base(a, 1) * s
        if self.taper_range is None:
            return base_d1
        t0 = self.taper_range
        u = np.minimum(a, t0) / t0
        tap_d1 = -(1.5 / t0) * (1.0 - u * u) * s  # the taper's slope within its range
        return np.where(a < t0, base_d1 * _spherical(a, t0) + self._base(a) * tap_d1, 0.0)

    # -- interval integrals (interval operators) ---------------------------

    def _integrals(self, t: np.ndarray):
        """F(t) = int_0^t rho (odd) and H(t) = int_0^t F (even) at signed lags t:
        untapered, the base kind's.  Below tau0 the spherical taper is the
        cubic 1 - 1.5 u/tau0 + 0.5 (u/tau0)^3 (Furrer, Genton & Nychka 2006), so
        under it F = b_0 - 1.5 b_1 + 0.5 b_3 and H = a F - tau0 (b_1 - 1.5 b_2 +
        0.5 b_4), a = |t|, with the base's moments b_n = int_0^c (u/tau0)^n
        rho_base(u) du = l (l/tau0)^n G_n(c/l) at c = min(a, tau0) for its length
        l, so no huge factor meets a tiny one.  The base scale is clipped at 1e8
        tau0, past which the base is 1 to rounding on [0, tau0].
        """
        kind, a, tau0 = _BASES[self.base_kind], np.abs(t), self.taper_range
        if tau0 is None:
            f, h = kind.integrals(a, self.base_scale)
            return np.sign(t) * f, h
        l, g = kind.moments(np.minimum(a, tau0), min(self.base_scale, 1e8 * tau0))
        b = l * (l / tau0) ** np.arange(5.0).reshape(-1, *[1] * a.ndim) * g
        f = b[0] - 1.5 * b[1] + 0.5 * b[3]
        return np.sign(t) * f, a * f - tau0 * (b[1] - 1.5 * b[2] + 0.5 * b[4])


# -- model configuration (JSON object) ---------------------------------

def _json_number(value, field: str) -> float:
    """``value`` as a float if it is a JSON number (an int or a float, not a
    bool or a string), else a ConfigError naming ``field``."""
    if type(value) in (int, float):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ConfigError(f"invalid {field}: {value!r} (a JSON number)")


def parse_model_config(cfg: dict):
    """Parse ``{"base": {"kind", "scale"}, "taper_range", "mu", "sigma2"}``.

    Returns ``(CorrelationModel, mu, sigma2)`` where ``mu``/``sigma2`` are
    floats or the string ``"estimate"`` (the default when absent).  Every
    number must be a JSON number: a bool or a numeric string is refused.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("model config must be a JSON object")
    try:
        kind, scale = cfg["base"]["kind"], cfg["base"]["scale"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"model config missing/invalid base section: {exc}") from exc
    taper = cfg.get("taper_range")
    try:
        model = CorrelationModel(kind, _json_number(scale, "base.scale"),
                                 None if taper is None else _json_number(taper, "taper_range"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    def level(key):
        v = cfg.get(key, "estimate")
        return "estimate" if v == "estimate" else _json_number(v, key)

    return model, level("mu"), level("sigma2")


def model_config(model: CorrelationModel, mu, sigma2) -> dict:
    """Inverse of :func:`parse_model_config`."""
    return {
        "base": {"kind": model.base_kind, "scale": model.base_scale},
        "taper_range": model.taper_range,
        "mu": mu,
        "sigma2": sigma2,
    }
