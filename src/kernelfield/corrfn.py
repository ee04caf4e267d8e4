"""Stationary isotropic correlation functions with an optional finite-range taper.

Two base correlations are shipped:

* ``matern52`` -- Matern with shape 5/2 and range parameter ``tau_m``:
  ``rho(d) = (1 + k*d + k^2*d^2/3) * exp(-k*d)`` with ``k = sqrt(5)/tau_m``.
* ``gauss2`` -- second-order exponential: ``rho(d) = exp(-(d/scale)^2)``.

A finite range is obtained by multiplying the base with the isotropic
spherical correlation ``(1 + d/(2*tau0)) * (1 - d/tau0)^2`` which is exactly
zero for ``d >= tau0``.  The product is again a valid correlation function,
and evaluating it returns an exact 0.0 beyond the taper range so downstream
sparsity patterns are deterministic.
"""

import math
import sys
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import ConfigError, UnsupportedOperatorError

SQRT5 = math.sqrt(5.0)

BASE_KINDS = ("matern52", "gauss2")

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


def _return_like(dist, value: np.ndarray):
    return float(value) if np.isscalar(dist) or np.ndim(dist) == 0 else value


# The formulas alone: their callers check the distances and scales.  Each
# clips the distance where its exponential is already exactly 0 (exp(-x) is
# 0 for x above about 745), so that no tiny scale overflows a product on the
# way there.

def _matern52(d: np.ndarray, tau_m: float) -> np.ndarray:
    k = SQRT5 / tau_m
    kd = k * np.minimum(d, 800.0 / k)
    return (1.0 + kd + kd * kd / 3.0) * np.exp(-kd)


def _gauss2(d: np.ndarray, scale: float) -> np.ndarray:
    u = np.minimum(d, 30.0 * scale) / scale
    return np.exp(-(u * u))


def _spherical(d: np.ndarray, tau0: float) -> np.ndarray:
    u = np.minimum(d, tau0) / tau0  # 1, and the taper exactly 0, from tau0 on
    return (1.0 + 0.5 * u) * (1.0 - u) ** 2


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
        if self.base_kind not in BASE_KINDS:
            raise ValueError(f"unknown base_kind {self.base_kind!r}, expected one of {BASE_KINDS}")
        _check_scale(self.base_scale, "base_scale")
        if self.taper_range is not None:
            _check_scale(self.taper_range, "taper_range")

    # -- evaluation ----------------------------------------------------

    def eval(self, dist: ArrayLike) -> ArrayLike:
        """Correlation at Euclidean distance ``dist`` (base times taper)."""
        return _return_like(dist, self._eval(_check_dist(dist)))

    def _eval(self, d: np.ndarray) -> np.ndarray:
        """:meth:`eval` of a float array of distances already checked to be
        finite and non-negative, such as a pair structure's."""
        base = self._base(d)
        return base if self.taper_range is None else base * _spherical(d, self.taper_range)

    def _base(self, d: np.ndarray) -> np.ndarray:
        """The base correlation at checked distances ``d`` (no taper)."""
        return (_matern52 if self.base_kind == "matern52" else _gauss2)(d, self.base_scale)

    # -- lag derivatives (derivative operators) ---------------------------

    def deriv1(self, lag: ArrayLike) -> ArrayLike:
        """d/dtau of the correlation as a function of the signed 1D lag; at a
        distance (lag >= 0) it is the slope rho'(d) of any dimension.

        Odd function; 0 at lag 0.  For tapered models the true one-sided
        slopes at lag 0 differ, so the symmetric value 0.0 is returned there
        by convention.
        """
        t = np.asarray(lag, dtype=float)
        if not np.all(np.isfinite(t)):
            raise ValueError("lag must be finite")
        a = np.abs(t)
        s = np.sign(t)
        base_d1 = self._base_deriv1_abs(a) * s
        if self.taper_range is None:
            return _return_like(lag, base_d1)
        t0 = self.taper_range
        u = np.minimum(a, t0) / t0
        tap_d1 = -(1.5 / t0) * (1.0 - u * u) * s  # the taper's slope within its range
        val = np.where(a < t0, base_d1 * _spherical(a, t0) + self._base(a) * tap_d1, 0.0)
        return _return_like(lag, val)

    def deriv2(self, lag: ArrayLike) -> ArrayLike:
        """Second derivative of the signed-lag correlation (untapered only)."""
        if self.taper_range is not None:
            raise UnsupportedOperatorError(
                "second derivative undefined at the origin for tapered correlation models"
            )
        t = np.asarray(lag, dtype=float)
        if not np.all(np.isfinite(t)):
            raise ValueError("lag must be finite")
        a = np.abs(t)
        if self.base_kind == "matern52":
            k = SQRT5 / self.base_scale
            val = -(k * k / 3.0) * (1.0 + k * a - (k * a) ** 2) * np.exp(-k * a)
        else:
            s2 = self.base_scale * self.base_scale
            val = (4.0 * a * a / (s2 * s2) - 2.0 / s2) * np.exp(-(a * a) / s2)
        return _return_like(lag, val)

    def _base_deriv1_abs(self, a: np.ndarray) -> np.ndarray:
        # derivative of the base wrt |lag|, evaluated at a >= 0
        if self.base_kind == "matern52":
            k = SQRT5 / self.base_scale
            return -(k * k / 3.0) * (a + k * a * a) * np.exp(-k * a)
        s2 = self.base_scale * self.base_scale
        return -(2.0 * a / s2) * np.exp(-(a * a) / s2)


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
