"""Shared fixtures: band structures and divisor trajectories reused across
the suite.  Session-scoped where construction is not free."""

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, quad

from levitan import BandStructure, eval_G, eval_sqrtY
from levitan.kernel import _amplitudes, _edge_denominators, tail_cutoff
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


def jacobi_kernel(ctx, perturbation, grid_params, tol, max_iter=50):
    """H on the rotated lattice by full-lattice Jacobi sweeps: a reference
    for ``solve_kernel``'s row march with the same discretization (trapezoid
    in b along each row, reverse trapezoid in a over the rows) but the
    opposite solution order.  Every sweep computes the whole lattice from the
    previous iterate, using two stored (M+1)^2 factor arrays per edge."""
    def rev_cumtrapz(a, axis=0):
        acc = cumulative_trapezoid(np.flip(a, axis=axis), dx=h, axis=axis,
                                   initial=0.0)
        return np.flip(acc, axis=axis)

    x0, h = grid_params.x0, grid_params.h
    x_max = grid_params.x_max
    if x_max is None:
        x_max = tail_cutoff(perturbation, x0, h, grid_params.tail_eps)
    m_steps = max(1, round((x_max - x0) / h))
    pos = x0 + h * np.arange(2 * m_steps + 1)
    qt = np.asarray(perturbation(pos), dtype=float)
    n_edges = len(ctx.band.edges)
    amps = _amplitudes(ctx, range(n_edges), pos)
    cks = -0.25 / _edge_denominators(ctx.band)

    mi = np.arange(m_steps + 1)[:, None]
    li = np.arange(m_steps + 1)[None, :]
    tri = li <= mi
    idx_m = np.clip(mi - li, 0, None)
    idx_p = mi + li
    f_term = np.zeros((m_steps + 1, m_steps + 1))
    outer, inner = [], []
    for k in range(n_edges):
        a = amps[k]
        phi_k = rev_cumtrapz(qt[:m_steps + 1] * np.abs(a[:m_steps + 1]) ** 2)
        o_k = a[idx_m] * np.conj(a)[idx_p]
        outer.append(o_k)
        inner.append(qt[idx_m] * np.conj(a)[idx_m] * a[idx_p])
        f_term += (-2.0 * cks[k]) * (o_k * phi_k[:, None]).real
    f_term *= tri

    h_cur = np.zeros_like(f_term)
    for _ in range(max_iter):
        acc = np.zeros(f_term.shape, dtype=complex)
        for k in range(n_edges):
            w = cumulative_trapezoid(inner[k] * h_cur, dx=h, axis=1,
                                     initial=0.0)
            acc += cks[k] * outer[k] * rev_cumtrapz(w, axis=0)
        h_new = (f_term - 4.0 * acc.real) * tri
        delta = float(np.max(np.abs(h_new - h_cur)))
        h_cur = h_new
        if delta < tol:
            return h_cur
    raise AssertionError("Jacobi sweeps did not converge")


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
