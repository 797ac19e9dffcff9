"""Shared fixtures: band structures and divisor trajectories reused across
the suite.  Session-scoped where construction is not free."""

import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, quad, solve_ivp

from levitan import BandStructure, DirichletDivisor, eval_G, eval_sqrtY
from levitan._numerics import rev_cumtrapz
from levitan.dubrovin import _omega
from levitan.kernel import (
    KernelBoundReport,
    _amplitudes,
    edge_amplitudes,
    tail_cutoff,
)
from levitan.spectral import as_point
from levitan.weyl import psi_on_grid


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


def dop853_flow(band, divisor, x_min, x_max, step, tol):
    """Angles theta_j on ``integrate_dubrovin``'s output grid by scipy's
    DOP853 with ``rtol = atol = max(tol / 100, 100 eps)``, sampled through
    its dense output: a reference for the Chebyshev-Picard panels that
    shares only the right-hand side with them.  Returns (x_grid, theta)."""
    k_lo, k_hi = round(x_min / step), round(x_max / step)
    x_grid = step * np.arange(k_lo, k_hi + 1)
    n0 = -k_lo
    c = np.clip((band.gap_mid - divisor.mu) / band.gap_half, -1.0, 1.0)
    theta0 = np.where(divisor.sigma < 0, 2.0 * math.pi - np.arccos(c),
                      np.arccos(c))
    rtol = max(tol / 100.0, 100.0 * np.finfo(float).eps)
    parts = []
    for t_eval in (x_grid[n0:], x_grid[n0::-1]):
        if len(t_eval) == 1:
            parts.append(theta0[None, :])
            continue
        sol = solve_ivp(lambda x, th: _omega(band, th), (0.0, t_eval[-1]),
                        theta0, method="DOP853", t_eval=t_eval, rtol=rtol,
                        atol=rtol)
        assert sol.success, sol.message
        parts.append(sol.y.T)
    return x_grid, np.vstack([parts[1][::-1][:-1], parts[0]])


def dop853_cs(ctx, z, x, tol=1e-13):
    """(c, c', s, s') at x for -y'' + p y = z y by scipy's DOP853 at
    ``rtol = atol = tol``, with one ``ctx.p_of`` call per stage: a reference
    for the Magnus propagator behind ``weyl._ode_cs`` that shares only p(x)
    with it."""
    def rhs(t, y):
        q = ctx.p_of(float(t)) - z
        return [y[1], q * y[0], y[3], q * y[2]]

    sol = solve_ivp(rhs, (0.0, x), np.array([1.0, 0.0, 0.0, 1.0], dtype=complex),
                    method="DOP853", rtol=tol, atol=tol)
    assert sol.success, sol.message
    return sol.y[:, -1]


def edge_products(band):
    """prod_{m != k} (E_k - E_m) for every edge k, as explicit products."""
    e = band.edges
    return np.array([math.prod(e[k] - e[m] for m in range(len(e)) if m != k)
                     for k in range(len(e))])


def jacobi_kernel(ctx, perturbation, grid_params, tol, max_iter=50):
    """H on the rotated lattice by full-lattice Jacobi sweeps: a reference
    for ``solve_kernel``'s row march with the same discretization (trapezoid
    in b along each row, reverse trapezoid in a over the rows) but the
    opposite solution order.  Every sweep computes the whole lattice from the
    previous iterate, using two stored (M+1)^2 factor arrays per edge.  It
    weights the unnormalized amplitudes a_k = b_k |P_k|^{1/4} by
    c_k = -1/4 / P_k, with P_k the explicit ``edge_products``."""
    x0, h = grid_params.x0, grid_params.h
    x_max = grid_params.x_max
    if x_max is None:
        x_max = tail_cutoff(perturbation, x0, h, grid_params.tail_eps)
    m_steps = max(1, round((x_max - x0) / h))
    pos = x0 + h * np.arange(2 * m_steps + 1)
    qt = np.asarray(perturbation(pos), dtype=float)
    n_edges = len(ctx.band.edges)
    prods = edge_products(ctx.band)
    amps = (_amplitudes(ctx, range(n_edges), pos)
            * np.abs(prods)[:, None] ** 0.25)
    cks = -0.25 / prods

    mi = np.arange(m_steps + 1)[:, None]
    li = np.arange(m_steps + 1)[None, :]
    tri = li <= mi
    idx_m = np.clip(mi - li, 0, None)
    idx_p = mi + li
    f_term = np.zeros((m_steps + 1, m_steps + 1))
    outer, inner = [], []
    for k in range(n_edges):
        a = amps[k]
        phi_k = rev_cumtrapz(qt[:m_steps + 1] * np.abs(a[:m_steps + 1]) ** 2, h)
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
            acc += cks[k] * outer[k] * rev_cumtrapz(w, h)
        h_new = (f_term - 4.0 * acc.real) * tri
        delta = float(np.max(np.abs(h_new - h_cur)))
        h_cur = h_new
        if delta < tol:
            return h_cur
    raise AssertionError("Jacobi sweeps did not converge")


def lattice_bound_check(grid, perturbation):
    """``kernel_bound_check`` in lattice form: a reference that builds the
    (M+1)^2 x and y lattices of the rotated grid and interpolates the tail
    integrals at every lattice point.  Its pointwise violations are ordered
    by u = (x + y)/2 and then v = (y - x)/2."""
    if grid.side == "-":
        perturbation = perturbation.mirrored()

    h = grid.h
    m = grid.half_width
    pos = grid.positions
    n_tail = max(2 * m, math.ceil((perturbation.support[1] - pos[0]) / h)) + 1
    tgrid = pos[0] + h * np.arange(n_tail + 1)
    aq = np.abs(perturbation(tgrid))
    r1 = rev_cumtrapz(aq, h)
    r2 = rev_cumtrapz(tgrid * aq, h)

    def q_plus(w):
        return np.interp(0.5 * np.asarray(w, dtype=float), tgrid, r1,
                         left=r1[0], right=0.0)

    def tail_q(x):
        x = np.asarray(x, dtype=float)
        a = np.interp(x, tgrid, r1, left=r1[0], right=0.0)
        b = np.interp(x, tgrid, r2, left=r2[0], right=0.0)
        return 2.0 * (b - x * a)

    c = grid.c_const
    xs = pos[:m + 1]
    c_of_x = 2.0 * c * np.exp(4.0 * c * tail_q(xs))

    mi = np.arange(m + 1)[:, None]
    li = np.arange(m + 1)[None, :]
    tri = li <= mi
    ix = np.clip(mi - li, 0, None)
    x_lat = pos[ix]
    y_lat = pos[mi + li]
    bound = 2.0 * c * np.exp(4.0 * c * tail_q(x_lat)) * q_plus(x_lat + y_lat)
    kabs = np.abs(grid.values)
    bad = tri & (kabs > bound + 1e-12)
    violations = [("pointwise", float(x_lat[i, j]), float(y_lat[i, j]),
                   float(kabs[i, j]), float(bound[i, j]))
                  for i, j in zip(*np.nonzero(bad))]

    sums = np.bincount(ix[tri], weights=kabs[tri] ** 2, minlength=m + 1)
    lhs = 2.0 * h * (sums - 0.5 * (kabs[:, 0] ** 2 + kabs[m, ::-1] ** 2))
    rhs = c_of_x ** 2 * q_plus(2.0 * xs) * tail_q(xs)
    violations += [("L2", float(xs[i]), float(lhs[i]), float(rhs[i]))
                   for i in np.nonzero(lhs > rhs + 1e-12)[0]]

    c1_fit = 0.0
    if m >= 3:
        vv = grid.values
        hu = (vv[2:, 1:-1] - vv[:-2, 1:-1]) / (2.0 * h)
        hv = (vv[1:-1, 2:] - vv[1:-1, :-2]) / (2.0 * h)
        dx_k = 0.5 * (hu - hv)
        dy_k = 0.5 * (hu + hv)
        ii = np.arange(1, m)[:, None]
        jj = np.arange(1, m)[None, :]
        x_in = pos[np.clip(ii - jj, 0, None)]
        y_in = pos[ii + jj]
        rhs = (np.abs(perturbation(0.5 * (x_in + y_in)))
               + q_plus(x_in + y_in))
        ok = (jj <= ii - 2) & (rhs > 1e-14)
        if np.any(ok):
            c1_fit = float(np.max(np.maximum(np.abs(dx_k), np.abs(dy_k))[ok]
                                  / rhs[ok]))

    mono = bool(np.all(np.diff(c_of_x) <= 1e-12 * max(1.0, c_of_x[0])))
    q_samples = np.column_stack([2.0 * xs, q_plus(2.0 * xs)])
    return KernelBoundReport(c_const=c, c_of_x=np.column_stack([xs, c_of_x]),
                             q_plus=q_samples, violations=violations,
                             c1_fitted=c1_fit, c_of_x_monotone=mono)


def jost_profile_rows(ctx, grid, p):
    """``jost_profile`` on a + grid by one ``np.trapezoid`` per row of K: a
    reference for the profile's single row sum over the triangle."""
    pos = grid.positions
    m = grid.half_width
    psi = psi_on_grid(ctx, p, pos, +1)
    phi = np.empty(m + 1, dtype=complex)
    h2 = 2.0 * grid.h
    for i in range(m + 1):
        js = np.arange(m - i + 1)
        row = grid.values[i + js, js]
        phi[i] = psi[i] + np.trapezoid(row * psi[i + 2 * js], dx=h2)
    return pos[: m + 1].copy(), phi


def residue_f_plus(ctx, edge_index, x, y, r, s):
    """The edge term f_+(E_k, x, y, r, s) = (-1)^k b_k(x) b_k(y) b_k(r)
    b_k(s) alone, from ``edge_amplitudes``: a per-edge reference for
    ``eval_D``; exactly 0 when a divisor point sits on E_k at any of the
    four positions."""
    b = edge_amplitudes(ctx, edge_index, np.array([x, y, r, s]))
    return float((-1.0) ** edge_index * ((b[0] * b[1]) * (b[2] * b[3])))


def k_at(grid, x, y):
    """K(x, y) read off a solved ``KernelGrid``: the stored value on a
    lattice node, the grid's spline between nodes, and 0 outside the support
    triangle (y < x on the + side, y > x on the - side)."""
    if grid.side == "-":
        x, y = -x, -y
    u = (x + y) * 0.5
    v = (y - x) * 0.5
    iu = (u - grid.x0) / grid.h
    iv = v / grid.h
    if y < x - 1e-12 or iv < -1e-9 or not -1e-9 <= iu <= grid.half_width + 1e-9:
        return 0.0
    if abs(iu - round(iu)) < 1e-9 and abs(iv - round(iv)) < 1e-9:
        return float(grid.values[int(round(iu)), int(round(iv))])
    return float(grid._interp.ev(u, max(v, 0.0)))


def schrodinger_residual(ctx, perturbation, phi_evaluator, p, x_window, h):
    """sup over the window of |-phi'' + (p + q - z) phi| with centered
    second differences of the supplied evaluator."""
    z = as_point(p).z
    a, b = float(x_window[0]), float(x_window[1])
    n = max(1, round((b - a) / h))
    xs = a + h * np.arange(n + 1)
    ext = np.concatenate([[a - h], xs, [b + h]])
    vals = np.array([phi_evaluator(float(t)) for t in ext])
    d2 = (vals[:-2] - 2.0 * vals[1:-1] + vals[2:]) / (h * h)
    pot = np.asarray(ctx.p_of(xs), dtype=float) + np.asarray(
        perturbation(xs), dtype=float)
    res = np.abs(-d2 + (pot - z) * vals[1:-1])
    return float(np.max(res))


def midpoint_divisor(band):
    """Each mu_j at its gap's midpoint, on the sheet sigma_j = +1."""
    return DirichletDivisor(tuple((float(m), 1) for m in band.gap_mid))


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
