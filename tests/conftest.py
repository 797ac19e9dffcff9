"""Shared fixtures: band structures and divisor trajectories reused across
the suite.  Session-scoped where construction is not free."""

import numpy as np
import pytest
from scipy.integrate import quad

from levitan import BandStructure, eval_G, eval_sqrtY
from levitan.spectral import as_point


def richardson(values, ratio=2.0):
    """Richardson-extrapolate a sequence f(h_k) with h_{k+1} = h_k / ratio.

    Assumes an error expansion in integer powers of h (use the appropriate
    variable substitution beforehand for half-power expansions).  Returns
    ``(limit, err_estimate)`` where the estimate is the last diagonal change.
    """
    t = [complex(v) for v in values]
    n = len(t)
    if n < 2:
        return (t[0] if n else np.nan), np.inf
    diag = [t[-1]]
    col = t
    for m in range(1, n):
        fac = ratio ** m
        col = [(fac * col[i + 1] - col[i]) / (fac - 1.0) for i in range(len(col) - 1)]
        diag.append(col[-1])
    limit = diag[-1]
    err = abs(diag[-1] - diag[-2])
    if abs(limit.imag) == 0.0:
        limit = limit.real
    return limit, err


def flow_integral_quad(ctx, p, x):
    """int_0^x Y^{1/2}(z) / G(z, t) dt by scipy ``quad`` on the real and the
    imaginary part, split at the trajectory's edge touches: a reference for
    the package's panel engine that shares none of its quadrature."""
    pt = as_point(p)
    sq = eval_sqrtY(ctx.band, pt)
    lo, hi = sorted((0.0, x))
    cuts = [t for t in ctx.trajectory.flip_points() if lo < t < hi] or None
    parts = [quad(lambda t: part(sq / eval_G(ctx, pt, t)), 0.0, x,
                  points=cuts, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
             for part in (np.real, np.imag)]
    return complex(*parts)


def periodic_edges(n_gaps):
    """Edge list 0, j^2 -/+ 0.1/j^2 (j = 1..N): gaps shrink like the periodic
    model while spacings grow linearly."""
    edges = [0.0]
    for j in range(1, n_gaps + 1):
        edges += [j * j - 0.1 / j ** 2, j * j + 0.1 / j ** 2]
    return tuple(edges)


@pytest.fixture(scope="session")
def free_band():
    return BandStructure((0.0,))


@pytest.fixture(scope="session")
def one_gap_band():
    return BandStructure((0.0, 1.0, 2.0))


@pytest.fixture(scope="session")
def n2_band():
    return BandStructure(periodic_edges(2))


@pytest.fixture(scope="session")
def n3_band():
    return BandStructure(periodic_edges(3))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260823)
