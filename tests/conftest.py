"""Shared generators for seeded random test instances.  The reference
implementations the tests compare against are in ``oracles.py``."""

import math

import numpy as np
import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st

from kernelfield import AVG, DERIV, KIND_CODES, POINT, CorrelationModel, ObservationSet, cholesky
from kernelfield.linalg import dense_layout

from oracles import from_dense


# Hypothesis's explain phase replays each shrunk failure through pytest's
# report formatting, which can take minutes for one failing property of this
# suite; without it the failure is still found, shrunk and reported.
settings.register_profile("no-explain", phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("no-explain")


def observation_set(rows, dim=None):
    """The set of ``rows`` ``(kind, location, value[, error_var[, direction]])``
    as columns: ``location`` is a site, or an avg row's (lower, upper) bounds,
    and ``direction`` is a deriv row's sign (default 1)."""
    cols = []
    for kind, location, value, *rest in rows:
        error_var, direction = (*rest, *(0.0, 1.0)[len(rest):])
        location = np.atleast_1d(np.asarray(location, dtype=float))
        site = [math.nan] if kind == AVG else location
        cols.append((KIND_CODES[kind], site, value, error_var,
                     [direction] if kind == DERIV else np.zeros(len(site)),
                     location if kind == AVG else [math.nan, math.nan]))
    kinds, sites, values, error_vars, directions, bounds = zip(*cols) if cols else ([],) * 6
    return ObservationSet(kinds, sites, values, error_vars, directions, bounds, dim)


def well_separated_points(rng, m, dim, lo, hi, min_sep):
    """Rejection-sample m points in [lo, hi]^dim with pairwise distance >= min_sep.

    Deterministic given the rng state; keeps inter-correlation matrices
    comfortably conditioned.
    """
    pts = []
    attempts = 0
    while len(pts) < m:
        cand = rng.uniform(lo, hi, dim)
        attempts += 1
        if attempts > 20000:
            raise RuntimeError("could not place points; lower m or min_sep")
        if all(np.linalg.norm(cand - p) >= min_sep for p in pts):
            pts.append(cand)
    return np.array(pts)


def dense_factor(a):
    """The Cholesky factor of a dense SPD array, held densely in natural order."""
    a = from_dense(a)
    return cholesky(a, dense_layout(a))


def random_instance(seed):
    """One seeded prediction problem: (obs_set, model, mu, sigma2).

    Alternates dimension 1/2, tapered/untapered models, mixes observation
    kinds in 1D (derivatives only for smooth-origin models), includes
    nonzero means and a few noisy point observations.
    """
    rng = np.random.default_rng(1000 + seed)
    dim = 1 if seed % 2 == 0 else 2
    tapered = seed % 3 == 0
    m = int(rng.integers(5, 41))
    mu = 0.0 if seed % 4 == 0 else float(rng.uniform(-3.0, 3.0))
    sigma2 = float(rng.uniform(0.5, 4.0))

    if seed % 5 < 3:
        base = CorrelationModel("matern52", float(rng.uniform(0.6, 2.0)))
    else:
        base = CorrelationModel("gauss2", float(rng.uniform(0.4, 0.8)))
    taper = float(rng.uniform(1.5, 3.0)) if tapered else None
    model = CorrelationModel(base.base_kind, base.base_scale, taper)

    min_sep = 0.25 if dim == 1 else 0.35
    pts = well_separated_points(rng, m, dim, 0.0, 10.0, min_sep)

    observations = []
    for i in range(m):
        value = float(rng.normal(mu, np.sqrt(sigma2)))
        error_var = float(rng.uniform(0.05, 0.5)) if rng.random() < 0.2 else 0.0
        if dim == 1:
            u = rng.random()
            if u < 0.15 and model.taper_range is None:
                observations.append((DERIV, pts[i], float(rng.normal(0.0, 1.0)), error_var,
                                     rng.choice([-1.0, 1.0])))
                continue
            if u < 0.30:
                width = float(rng.uniform(0.3, 1.2))
                lo_b = float(pts[i][0])
                observations.append((AVG, [lo_b, lo_b + width],
                                     float(rng.normal(mu * width, 1.0)), error_var))
                continue
        observations.append((POINT, pts[i], value, error_var))
    return observation_set(observations, dim), model, mu, sigma2


@st.composite
def mixed_1d_lattice(draw):
    """A 1-D set of every kind on a jittered lattice (so it factors):
    signed derivatives, intervals, some error variances."""
    rows = draw(st.lists(st.tuples(st.sampled_from([POINT, DERIV, AVG]), st.floats(0.0, 0.5),
                                   st.floats(0.1, 1.0), st.floats(-1e3, 1e3),
                                   st.sampled_from([0.0, 0.0, 0.05]),
                                   st.sampled_from([-3.0, 2.0])),
                         min_size=1, max_size=15))
    return observation_set([
        (kind, [2.0 * i + jitter, 2.0 * i + jitter + width] if kind == AVG
         else 2.0 * i + jitter, value, error_var, z)
        for i, (kind, jitter, width, value, error_var, z) in enumerate(rows)])


@pytest.fixture
def demo_fit():
    from kernelfield import fit_global
    from kernelfield.cli import demo_observation_set
    obs = demo_observation_set((1.0, 0.0, 2.0))
    return fit_global(obs, CorrelationModel("matern52", 1.0), 0.0, 1.0)
