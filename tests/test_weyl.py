"""Weyl solutions: closed forms on the free background, dual-representation
agreement, Herglotz and Wronskian checks, pole classification, and the
polynomial structure identity."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from levitan import (
    BandStructure,
    DirichletDivisor,
    DivisorTrajectory,
    PoleTag,
    SpectralPoint,
    WeylContext,
    classify_poles,
    eval_G,
    eval_H,
    eval_Y,
    eval_green,
    eval_m,
    eval_psi_ode,
    eval_psi_product,
    eval_sqrtY,
    integrate_dubrovin,
    psi_on_grid,
    structural_identity_check,
    wronskian_check,
)
from levitan.errors import (
    AmbiguousPole,
    AtDivisorPole,
    BranchAtEdge,
    QuadratureFailure,
    TooCloseToGap,
)
from levitan._numerics import principal_sqrt
from levitan.spectral import as_point
from levitan.weyl import _magnus_pass, _ode_cs, probe_csv

from conftest import (
    dop853_cs,
    flow_integral_quad,
    midpoint_divisor,
    periodic_edges,
)


@pytest.fixture(scope="module")
def free_ctx():
    band = BandStructure((0.0,))
    traj = integrate_dubrovin(band, DirichletDivisor(()), -3.0, 3.0, 0.05)
    return WeylContext(band, traj)


@pytest.fixture(scope="module")
def gap1_ctx():
    band = BandStructure((0.0, 1.0, 2.0))
    traj = integrate_dubrovin(band, DirichletDivisor(((1.5, 1),)),
                              -3.0, 3.0, 0.01, tol=1e-11)
    return WeylContext(band, traj)


@pytest.fixture(scope="module")
def gap2_ctx():
    band = BandStructure(periodic_edges(2))
    div = DirichletDivisor(((1.0, 1), (4.0, -1)))
    traj = integrate_dubrovin(band, div, -3.0, 3.0, 0.01, tol=1e-11)
    return WeylContext(band, traj)


@pytest.fixture(scope="module")
def gap10_ctx():
    # the periodic_like n = 10 fixture's band and divisor
    band = BandStructure(periodic_edges(10))
    div = DirichletDivisor(tuple((float(band.gap_mid[j]), 1 - 2 * (j % 2))
                                 for j in range(10)))
    traj = integrate_dubrovin(band, div, -3.0, 3.0, 0.01, tol=1e-11)
    return WeylContext(band, traj)


@pytest.fixture(scope="module")
def edge_ctx():
    # divisor starting exactly on the lower gap edge: mu(0) = E_1 = 1
    band = BandStructure((0.0, 1.0, 2.0))
    traj = integrate_dubrovin(band, DirichletDivisor(((1.0, 1),)),
                              -3.0, 3.0, 0.01, tol=1e-11)
    return WeylContext(band, traj)


# ---------------------------------------------------------------------------
# free background: everything in closed form
# ---------------------------------------------------------------------------

def test_free_m_closed_form(free_ctx):
    # m+- (z) = +- i sqrt(z); at z = 4 that is +-2i, at z = -1 it is -+1
    assert abs(eval_m(free_ctx, 4.0, 0.0, +1) - 2j) < 1e-12
    assert abs(eval_m(free_ctx, 4.0, 0.0, -1) + 2j) < 1e-12
    assert abs(eval_m(free_ctx, -1.0, 0.0, +1) + 1.0) < 1e-12
    assert abs(eval_m(free_ctx, -1.0, 0.0, -1) - 1.0) < 1e-12
    z = 0.3 + 1.1j
    assert abs(eval_m(free_ctx, z, 0.0, +1) - 1j * cmath.sqrt(z)) < 1e-12


def test_free_psi_exact(free_ctx):
    for z in (4.0, 2.0 + 1.5j):
        k = cmath.sqrt(z)
        for x in (-1.3, 0.7):
            for sgn in (+1, -1):
                want = cmath.exp(sgn * 1j * k * x)
                got = eval_psi_product(free_ctx, z, x, sgn)
                assert abs(got - want) < 1e-12 * abs(want)
                got_ode = eval_psi_ode(free_ctx, z, x, sgn)
                assert abs(got_ode - want) < 1e-9 * abs(want)


def test_free_green(free_ctx):
    assert abs(eval_green(free_ctx, 4.0) - 0.25j) < 1e-14
    # below the spectrum the Green function is real and positive
    g = eval_green(free_ctx, -1.0)
    assert abs(g - 0.5) < 1e-14


def test_free_cs_solution_values(free_ctx):
    c, cp, s, sp = next(_ode_cs(free_ctx, [4.0 + 0j], math.pi / 2))
    # c = cos(2x), s = sin(2x)/2 at z = 4
    assert abs(c + 1.0) < 1e-9
    assert abs(s) < 1e-9
    assert abs(cp) < 2e-9          # -2 sin(2x) = 0 at x = pi/2
    assert abs(sp + 1.0) < 1e-9    # cos(2x) = -1


# ---------------------------------------------------------------------------
# the (c, s) propagator
# ---------------------------------------------------------------------------

def test_magnus_pass_fourth_order(gap2_ctx):
    # each doubling of the step count cuts the pass difference 16-fold
    for z in (-1.0, 2.5 + 0.3j):
        ys = [_magnus_pass(gap2_ctx, np.array([z]), 1.5, n)[0]
              for n in (30, 60, 120)]
        d1, d2 = (np.max(np.abs(b - a)) for a, b in zip(ys, ys[1:]))
        assert 10.0 <= d1 / d2 <= 22.0


def test_ode_cs_matches_dop853(gap1_ctx, gap2_ctx, gap10_ctx):
    for ctx in (gap1_ctx, gap2_ctx, gap10_ctx):
        top = ctx.band.edges[-1]
        # the last z is within eps_gap of the first gap: the product route
        # refuses there, so this route is the only one
        near = ctx.band.gaps[0][1] + 0.5j * ctx.eps_gap
        with pytest.raises(TooCloseToGap):
            eval_psi_product(ctx, near, 1.0, +1)
        for z in (-1.0, 1.5 + 0.9j, top + 2.0 + 1.4j, near):
            for x in (-2.0, 1.5):
                want = dop853_cs(ctx, z, x)
                got = np.array(next(_ode_cs(ctx, [z], x)))
                assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def test_ode_tol_sets_the_sample_count(gap2_ctx, monkeypatch):
    from levitan import weyl
    counts = []
    p_of = WeylContext.p_of

    def counted(ctx, x):
        counts[-1] += np.size(x)
        return p_of(ctx, x)

    monkeypatch.setattr(WeylContext, "p_of", counted)
    vals = []
    for tol in (1e-8, 1e-12):
        counts.append(0)
        monkeypatch.setattr(weyl, "_ODE_TOL", tol)
        vals.append(np.array(next(_ode_cs(gap2_ctx, [1.5 + 0.9j], 2.0))))
    assert counts[0] < counts[1]
    assert np.max(np.abs(vals[0] - vals[1])) <= 1e-8 * np.max(np.abs(vals[1]))


def test_ode_cs_step_cap(gap1_ctx, monkeypatch):
    # a tolerance below rounding: no two passes agree before the step cap
    monkeypatch.setattr("levitan.weyl._ODE_TOL", 1e-18)
    with pytest.raises(QuadratureFailure, match="no two passes"):
        next(_ode_cs(gap1_ctx, [-1.0], 2.0))


def test_ode_cs_memory_does_not_grow_with_steps(gap10_ctx):
    # x = +-3 at _ODE_TOL = 1e-12 takes thousands of steps per pass; only one
    # batch of them is held at a time
    z = gap10_ctx.band.edges[-1] + 2.0 + 1.4j
    gap10_ctx.p_of(0.0)   # build the trajectory spline outside the trace
    for x in (-3.0, 3.0):
        tracemalloc.start()
        try:
            next(_ode_cs(gap10_ctx, [z], x))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


def _bits(*vals):
    """The bytes of complex values, so that equal means bit for bit."""
    return np.asarray(vals, dtype=complex).tobytes()


def test_ode_ladder_batch_is_each_z_alone(gap1_ctx, monkeypatch):
    # at x = 0.7, z far below E_0 needs 8 passes, z = 0.5 on a band rim 7
    # and z = -1 6: each leaves the shared ladder at its own pass with the
    # floats of its own ladder, and p is sampled once per pass for all
    from levitan import weyl
    zs = [-1000.0, SpectralPoint.upper(0.5).z, -1.0]
    passes = []
    magnus = weyl._magnus_pass

    def counted(ctx, z, x, n):
        passes.append(len(z))
        return magnus(ctx, z, x, n)

    monkeypatch.setattr(weyl, "_magnus_pass", counted)
    alone, counts = [], []
    for z in zs:
        passes.clear()
        alone.append(next(_ode_cs(gap1_ctx, [z], 0.7)))
        counts.append(len(passes))
    assert counts == [8, 7, 6]
    passes.clear()
    batch = list(_ode_cs(gap1_ctx, zs, 0.7))
    assert passes == [3] * 6 + [2, 1]
    assert _bits(*sum(batch, ())) == _bits(*sum(alone, ()))
    assert list(_ode_cs(gap1_ctx, zs, 0.0)) == [(1.0, 0.0, 0.0, 1.0)] * 3


def test_ode_ladder_raises_in_z_order(gap1_ctx, monkeypatch):
    # with a tolerance below rounding, z = -1 runs to the step cap, while
    # z = -1e300 overflows on the first pass: the first z's failure is the
    # one raised, as when each z is solved in turn
    monkeypatch.setattr("levitan.weyl._ODE_TOL", 1e-18)
    for zs, match in (([-1.0, -1e300], "no two passes"),
                      ([-1e300, -1.0], "non-finite solution from 40 steps")):
        with pytest.raises(QuadratureFailure, match=match), \
                np.errstate(over="ignore", invalid="ignore"):
            list(_ode_cs(gap1_ctx, zs, 2.0))


# ---------------------------------------------------------------------------
# G and H
# ---------------------------------------------------------------------------

def test_G_free_is_one(free_ctx):
    assert eval_G(free_ctx, 1.7 - 0.4j, 0.9) == 1.0 + 0.0j


def test_G_vanishes_at_divisor(gap1_ctx):
    mu = gap1_ctx.trajectory.mu_at(0.8)[0]
    assert eval_G(gap1_ctx, complex(mu), 0.8) == 0.0 + 0.0j


def test_G_matches_hand_product(gap2_ctx):
    z = 2.3 - 0.6j
    x = -1.1
    mu = gap2_ctx.trajectory.mu_at(x)
    norm = 0.9 * 3.975
    want = (z - mu[0]) * (z - mu[1]) / norm
    assert abs(eval_G(gap2_ctx, z, x) - want) < 1e-14 * abs(want)


def test_H_free_is_zero(free_ctx):
    assert eval_H(free_ctx, 2.0 + 0.3j, 0.4) == 0.0 + 0.0j


def test_H_matches_finite_difference(gap2_ctx):
    # H = (1/2) dG/dx; the trajectory is C^1, so a small centered difference
    # of G must reproduce the product-rule form
    h = 1e-5
    for z, x in ((-0.7 + 0.3j, 0.4), (3.1 + 0.0j, -1.2), (5.0 + 2.0j, 2.1)):
        fd = (eval_G(gap2_ctx, z, x + h) - eval_G(gap2_ctx, z, x - h)) / (4 * h)
        hv = eval_H(gap2_ctx, z, x)
        assert abs(hv - fd) < 1e-7 * max(1.0, abs(hv))


def test_H_matches_removed_factor_loop(gap2_ctx, n3_band):
    # reference: the product rule as an explicit double loop over the
    # divisor; only the summation order differs from the vectorized form
    traj = integrate_dubrovin(n3_band, midpoint_divisor(n3_band),
                              -1.0, 1.0, 0.01, tol=1e-11)
    n3_ctx = WeylContext(n3_band, traj)
    for ctx in (gap2_ctx, n3_ctx):
        for z, x in ((-0.7 + 0.3j, 0.4), (3.1 + 0.0j, -0.6), (5.0 + 2.0j, 0.9)):
            th = ctx.trajectory.theta_at(x)
            mu = ctx.trajectory.mu_at(x)
            rate = ctx.band.gap_half * np.sin(th) * ctx.trajectory.dtheta_at(x)
            acc = 0.0
            for l in range(len(mu)):
                prod = 1.0
                for k in range(len(mu)):
                    if k != l:
                        prod *= z - mu[k]
                acc += rate[l] * prod
            want = -0.5 * acc / math.prod(ctx.band.edges[1::2])
            assert abs(eval_H(ctx, z, x) - want) <= 1e-14 * abs(want)


def test_H_vanishes_for_edge_start(edge_ctx):
    # mu(0) sits on an edge, so mu'(0) = 0 and H(., 0) is identically zero
    for z in (-1.0, 0.5 + 0.5j, 3.0):
        assert eval_H(edge_ctx, z, 0.0) == 0.0 + 0.0j


def test_H_at_divisor_flow_consistency(gap1_ctx, gap2_ctx):
    # H(mu_j(x), x) = sigma_j(x) Y^{1/2}(mu_j(x)): the flow identity that
    # couples the divisor motion to the branch
    for ctx in (gap1_ctx, gap2_ctx):
        for x in (0.0, 0.35, -0.8):
            mu = ctx.trajectory.mu_at(x)
            sg = ctx.trajectory.sigma_at(x)
            for j in range(ctx.band.gap_count):
                lo, hi = ctx.band.gaps[j]
                if min(mu[j] - lo, hi - mu[j]) < 0.05 * (hi - lo):
                    continue  # too close to a turning point for a tight check
                h = eval_H(ctx, complex(mu[j]), x)
                want = sg[j] * eval_sqrtY(ctx.band, complex(mu[j]))
                assert abs(h - want) < 1e-6 * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# Weyl functions
# ---------------------------------------------------------------------------

def test_m_difference_identity(gap2_ctx):
    for z in (1.7 + 0.9j, -2.0 + 0.0j):
        lhs = eval_m(gap2_ctx, z, 0.0, +1) - eval_m(gap2_ctx, z, 0.0, -1)
        rhs = 2.0 * eval_sqrtY(gap2_ctx.band, z) / eval_G(gap2_ctx, z, 0.0)
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def test_m_conjugate_symmetry(gap1_ctx):
    for z in (0.6 + 0.8j, 2.4 + 0.15j):
        for sgn in (+1, -1):
            a = eval_m(gap1_ctx, z, 0.3, sgn)
            b = eval_m(gap1_ctx, z.conjugate(), 0.3, sgn)
            assert abs(b - a.conjugate()) < 1e-12 * abs(a)


def test_m_plus_is_herglotz(gap1_ctx, gap2_ctx):
    # Im m+(z) > 0 throughout the upper half plane, for the operator on any
    # half line (probe x = 0 and a shifted base point)
    for ctx in (gap1_ctx, gap2_ctx):
        for re in np.linspace(-2.0, 6.0, 9):
            for im in (0.1, 0.5, 2.0):
                for x in (0.0, 0.8):
                    m = eval_m(ctx, complex(re, im), x, +1)
                    assert m.imag > 0.0


def test_m_pole_and_removable_limit(gap1_ctx):
    # mu(0) = 1.5 with sigma = +1: the pole belongs to m+, while m- has a
    # removable point there
    with pytest.raises(AtDivisorPole):
        eval_m(gap1_ctx, 1.5, 0.0, +1)
    val = eval_m(gap1_ctx, 1.5, 0.0, -1)
    near = eval_m(gap1_ctx, 1.5 + 2e-6, 0.0, -1)
    assert abs(val - near) < 1e-4 * abs(val)


def test_m_removable_limit_two_gaps(gap2_ctx):
    # with two divisor points, H'(mu_j) takes the removed products of the
    # other one; the symmetric average of nearby values cancels the flow
    # residual's 1/delta term and leaves O(delta^2)
    for x in (0.0, 0.35, -0.8):
        mu = gap2_ctx.trajectory.mu_at(x)
        sg = gap2_ctx.trajectory.sigma_at(x)
        for j in range(2):
            lo, hi = gap2_ctx.band.gaps[j]
            d = 1e-3 * min(mu[j] - lo, hi - mu[j])
            sgn = -int(sg[j])
            val = eval_m(gap2_ctx, complex(mu[j]), x, sgn)
            near = 0.5 * (eval_m(gap2_ctx, mu[j] + d, x, sgn)
                          + eval_m(gap2_ctx, mu[j] - d, x, sgn))
            assert abs(val - near) < 1e-6 * max(1.0, abs(val))


def test_m_edge_divisor_rejects_both_signs(edge_ctx):
    for sgn in (+1, -1):
        with pytest.raises(AtDivisorPole):
            eval_m(edge_ctx, 1.0, 0.0, sgn)


def test_m_sign_argument(gap1_ctx):
    assert eval_m(gap1_ctx, 4.0 + 1j, 0.0, "+") == eval_m(gap1_ctx, 4.0 + 1j, 0.0, 1)
    with pytest.raises(ValueError):
        eval_m(gap1_ctx, 4.0 + 1j, 0.0, 0)


def test_m_is_its_definition_bit_for_bit(gap1_ctx, gap2_ctx, gap10_ctx):
    # off the poles m+- is (H +- Y^{1/2}) / G with the public G and H, to the
    # last bit
    rng = np.random.default_rng(3)
    for ctx in (gap1_ctx, gap2_ctx, gap10_ctx):
        for _ in range(40):
            z = complex(rng.uniform(-2.0, 12.0), rng.uniform(-2.0, 2.0))
            x = float(rng.uniform(-2.5, 2.5))
            for s in (+1, -1):
                want = complex((eval_H(ctx, z, x)
                                + s * eval_sqrtY(ctx.band, z))
                               / eval_G(ctx, z, x))
                assert eval_m(ctx, z, x, s) == want


def test_m_reads_the_angles_once(gap2_ctx, monkeypatch):
    calls = {"theta_at": 0, "dtheta_at": 0}
    for name in calls:
        orig = getattr(DivisorTrajectory, name)

        def counted(self, x, _orig=orig, _name=name):
            calls[_name] += 1
            return _orig(self, x)
        monkeypatch.setattr(DivisorTrajectory, name, counted)
    mu = gap2_ctx.trajectory.mu_at(0.35)
    sg = gap2_ctx.trajectory.sigma_at(0.35)
    # off the poles, and at mu_1 by the removable limit of the other sign
    probes = [(1.7 + 0.9j, +1), (-2.0 + 0.0j, -1),
              (complex(mu[0]), -int(sg[0]))]
    for z, s in probes:
        calls.update(theta_at=0, dtheta_at=0)
        eval_m(gap2_ctx, z, 0.35, s)
        assert calls == {"theta_at": 1, "dtheta_at": 1}


# ---------------------------------------------------------------------------
# psi: the two representations against each other
# ---------------------------------------------------------------------------

def test_psi_normalized_at_origin(gap1_ctx):
    for z in (-1.0, 2.6 + 0.3j):
        assert eval_psi_product(gap1_ctx, z, 0.0, +1) == 1.0 + 0.0j
        assert abs(eval_psi_ode(gap1_ctx, z, 0.0, +1) - 1.0) == 0.0


def test_psi_cross_representation(gap1_ctx, gap2_ctx):
    probes = {
        1: (-1.0, -0.3 + 0.7j, 2.6 + 0.3j, SpectralPoint.upper(0.45)),
        2: (-1.0, -0.3 + 0.7j, 2.6 + 0.3j, SpectralPoint.upper(0.5)),
    }
    for n, ctx in ((1, gap1_ctx), (2, gap2_ctx)):
        for z in probes[n]:
            for x in (-1.4, 0.9, 2.2):
                for sgn in (+1, -1):
                    a = eval_psi_product(ctx, z, x, sgn)
                    b = eval_psi_ode(ctx, z, x, sgn)
                    assert abs(a - b) < 1e-6 * abs(a)


def test_psi_boundary_symmetry(gap2_ctx):
    # on a band rim: psi+(z upper) = conj(psi+(z lower)) = psi-(z lower)
    for e in (0.45, 2.6):
        up = SpectralPoint.upper(e)
        dn = SpectralPoint.lower(e)
        for x in (0.7, -1.1):
            pu = eval_psi_product(gap2_ctx, up, x, +1)
            pl = eval_psi_product(gap2_ctx, dn, x, +1)
            ml = eval_psi_product(gap2_ctx, dn, x, -1)
            assert abs(pu - pl.conjugate()) < 1e-12 * abs(pu)
            assert abs(pu - ml) < 1e-12 * abs(pu)
    # same statement through the independent route
    pu = eval_psi_ode(gap2_ctx, SpectralPoint.upper(0.45), 0.7, +1)
    ml = eval_psi_ode(gap2_ctx, SpectralPoint.lower(0.45), 0.7, -1)
    assert abs(pu - ml) < 1e-8 * abs(pu)


def test_psi_product_refuses_near_gap(gap1_ctx):
    with pytest.raises(TooCloseToGap):
        eval_psi_product(gap1_ctx, 1.5, 0.7, +1)       # inside the gap
    with pytest.raises(TooCloseToGap):
        eval_psi_product(gap1_ctx, 2.0 + 1e-4j, 0.7, +1)  # within eps_gap
    # the initial-value route has no such restriction
    v = eval_psi_ode(gap1_ctx, 2.0 + 1e-4j, 0.7, +1)
    assert np.isfinite(v.real) and np.isfinite(v.imag)


def test_psi_quad_guard_wiring(gap1_ctx, monkeypatch):
    monkeypatch.setattr("levitan.weyl._QUAD_TOL", 1e-16)
    with pytest.raises(QuadratureFailure):
        eval_psi_product(gap1_ctx, -1.0, 2.0, +1)


def test_psi_on_grid_matches_pointwise(free_ctx, gap1_ctx, gap2_ctx):
    # panel ends (multiples of 0.05), points inside panels (0.0125 * odd)
    # and an edge touch of gap2_ctx, exactly and 1e-6 past it
    flips = gap2_ctx.trajectory.flip_points()
    touch = float(flips[np.argmin(np.abs(flips - 0.75))])
    inside = 0.0125 * np.array([-157.0, -3.0, 1.0, 45.0, 131.0])
    probes = np.concatenate([0.05 * np.array([-40.0, -29.0, 0.0, 17.0, 40.0]),
                             inside, [touch, touch + 1e-6]])
    xs = np.unique(np.concatenate([0.05 * np.arange(-40, 41), probes]))
    # free case against the exponential
    z = 2.0 + 1.5j
    vals = psi_on_grid(free_ctx, z, xs, +1)
    want = np.exp(1j * cmath.sqrt(z) * xs)
    assert np.max(np.abs(vals - want) / np.abs(want)) < 1e-12
    # gap cases: the grid and the one-point entry against a scipy-quad
    # reference for the flow integral
    for ctx, z in ((gap1_ctx, -1.0), (gap1_ctx, SpectralPoint.upper(0.45)),
                   (gap2_ctx, 2.6 + 0.3j)):
        for sgn in (+1, -1):
            vals = psi_on_grid(ctx, z, xs, sgn)
            for i in np.searchsorted(xs, probes):
                ref = psi_quad(ctx, z, float(xs[i]), sgn)
                assert abs(vals[i] - ref) < 1e-9 * abs(ref)
                point = eval_psi_product(ctx, z, float(xs[i]), sgn)
                assert abs(point - ref) < 1e-9 * abs(ref)
            # a grid ending at 0 from the left: exactly 1 there
            assert psi_on_grid(ctx, z, xs[xs <= 0.0], sgn)[-1] == 1.0


def test_psi_on_grid_nodes_independent_of_grid(monkeypatch):
    # the flow integral samples mu on fixed base panels, not at the grid
    # points: beyond the prefactor's one sample per grid point, refining
    # the grid fourfold must not add trajectory samples
    band = BandStructure(periodic_edges(10))
    div = DirichletDivisor(tuple(
        (0.5 * (lo + hi), 1 if j % 2 == 0 else -1)
        for j, (lo, hi) in enumerate(band.gaps)))
    traj = integrate_dubrovin(band, div, -1.0, 17.0, 0.01, tol=1e-11)
    ctx = WeylContext(band, traj)
    seen = [0]
    mu_at = traj.mu_at

    def counted(x):
        seen[0] += np.size(x)
        return mu_at(x)

    monkeypatch.setattr(traj, "mu_at", counted)
    counts = []
    for h in (0.05, 0.0125):
        xs = h * np.arange(round(-1.0 / h), round(17.0 / h) + 1)
        seen[0] = 0
        for z in (-1.0, 0.3 + 0.7j, SpectralPoint.upper(0.5)):
            psi_on_grid(ctx, z, xs, +1)
        counts.append(seen[0] - 3 * len(xs))
    assert 0 < counts[1] <= 1.05 * counts[0]


def psi_quad(ctx, p, x, sign):
    """psi_+- from the square-root prefactor and the scipy-quad flow
    integral of conftest."""
    z = as_point(p).z
    mu_x, mu_0 = ctx.trajectory.mu_at(x), ctx.trajectory.mu_at(0.0)
    pref = np.prod(principal_sqrt((z - mu_x) / (z - mu_0)))
    return pref * cmath.exp(sign * flow_integral_quad(ctx, p, x))


# off axis below E_0, on an upper and a lower band rim, and off axis
BATCH_POINTS = (-1.0, SpectralPoint.upper(0.5), SpectralPoint.lower(2.5),
                0.3 + 0.7j)


def test_psi_on_grid_batch_is_each_points_call(gap1_ctx):
    # one pass for a sequence of points reads the base panels' angles once;
    # every row is its point's own call, bit for bit, on the context and on
    # its mirror image
    xs = np.linspace(-2.0, 2.5, 19)
    for ctx in (gap1_ctx, gap1_ctx.mirrored()):
        for sgn in (+1, -1):
            batch = psi_on_grid(ctx, list(BATCH_POINTS), xs, sgn)
            assert batch.shape == (len(BATCH_POINTS), len(xs))
            for row, p in zip(batch, BATCH_POINTS):
                assert row.tobytes() == psi_on_grid(ctx, p, xs, sgn).tobytes()


def test_psi_on_grid_batch_under_a_refinement_cap(gap1_ctx, monkeypatch):
    # only z = 1.5 + 0.01j, over the gap, reaches a cap.  Below two
    # bisection levels it is accepted with other floats, the other points
    # keep theirs, and the batch is each point's call
    from levitan import weyl
    xs = np.linspace(-2.0, 2.0, 9)
    near = SpectralPoint(1.5 + 0.01j)
    points = list(BATCH_POINTS[:2]) + [near] + list(BATCH_POINTS[2:])
    free = [psi_on_grid(gap1_ctx, p, xs, +1).tobytes() for p in points]
    monkeypatch.setattr(weyl, "_MAX_DEPTH", 2)
    batch = psi_on_grid(gap1_ctx, points, xs, +1)
    for p, row, f in zip(points, batch, free):
        alone = psi_on_grid(gap1_ctx, p, xs, +1).tobytes()
        assert row.tobytes() == alone
        assert (alone == f) == (p is not near)
    # a level of over 50 failing panels on [-2, 2] stops its refinement
    # there, and its flow integral fails as in its own call
    monkeypatch.setattr(weyl, "_MAX_LIVE", 100)
    with pytest.raises(QuadratureFailure) as alone:
        psi_on_grid(gap1_ctx, near, xs, +1)
    with pytest.raises(QuadratureFailure) as batch:
        psi_on_grid(gap1_ctx, points, xs, +1)
    assert str(batch.value) == str(alone.value)


def test_psi_batch_raises_at_the_failing_points_turn(gap1_ctx):
    # the second of three points is within eps_gap: the batch raises what
    # that point's own call raises, after yielding the first point
    from levitan.weyl import _psi_parts
    near = SpectralPoint(2.0 + 0.5j * gap1_ctx.eps_gap)
    points = [SpectralPoint(-1.0), near, SpectralPoint(0.3 + 0.7j)]
    xs = np.linspace(-1.0, 1.0, 5)
    with pytest.raises(TooCloseToGap) as alone:
        psi_on_grid(gap1_ctx, near, xs, +1)
    assert "z = %s" % near.z in str(alone.value)
    with pytest.raises(TooCloseToGap) as batch:
        psi_on_grid(gap1_ctx, points, xs, +1)
    assert str(batch.value) == str(alone.value)
    parts = _psi_parts(gap1_ctx, points, xs)
    pref, w = next(parts)
    assert (pref * np.exp(w)).tobytes() == \
        psi_on_grid(gap1_ctx, points[0], xs, +1).tobytes()
    with pytest.raises(TooCloseToGap) as turn:
        next(parts)
    assert str(turn.value) == str(alone.value)


def test_psi_on_grid_quad_guard(gap1_ctx, monkeypatch):
    xs = np.linspace(0.0, 2.0, 11)
    monkeypatch.setattr("levitan.weyl._QUAD_TOL", 1e-16)
    with pytest.raises(QuadratureFailure):
        psi_on_grid(gap1_ctx, -1.0, xs, +1)
    monkeypatch.undo()
    assert np.all(np.isfinite(psi_on_grid(gap1_ctx, -1.0, xs, +1)))


@pytest.mark.parametrize("points", [-1.0, [-1.0, 3.0 + 0.5j]],
                         ids=["one_point", "two_points"])
@pytest.mark.parametrize("xs", [[0.0, 0.0], [0.5, 0.1], [-0.2, 0.3, 0.3],
                                [[0.0, 0.5]]],
                         ids=["repeat", "decreasing", "repeat_at_end", "2d"])
def test_psi_on_grid_rejects_a_grid_not_increasing(gap1_ctx, points, xs):
    with pytest.raises(ValueError, match="xs must be strictly increasing"):
        psi_on_grid(gap1_ctx, points, np.array(xs), +1)


def test_psi_product_near_gap_bisects(gap1_ctx):
    # at distance 0.01 from the gap the integrand peaks each time mu passes
    # Re z; the base panels alone fail _QUAD_TOL there (QuadratureFailure),
    # so the agreement with the reference needs the engine's bisection
    z = 1.5 + 0.01j
    for x in (0.7, -1.3):
        ref = psi_quad(gap1_ctx, z, x, +1)
        got = eval_psi_product(gap1_ctx, z, x, +1)
        assert abs(got - ref) < 1e-9 * abs(ref)
        grid = psi_on_grid(gap1_ctx, z, np.array(sorted((0.0, x))), +1)
        assert abs(grid[0 if x < 0 else 1] - ref) < 1e-9 * abs(ref)


def test_psi_decay_envelope(gap1_ctx):
    # |psi+(z, x)| should decay at least like exp(-0.9 x Im sqrt(z)) times
    # 1 + D/|z| for large |z|; fit D on a ring and check at twice the radius
    x = 1.3
    phis = np.linspace(0.25, math.pi - 0.25, 9)

    def normalized(r, phi):
        z = r * cmath.exp(1j * phi)
        v = eval_psi_product(gap1_ctx, z, x, +1)
        return abs(v) * math.exp(0.9 * x * cmath.sqrt(z).imag)

    d_fit = max(0.1, max((normalized(40.0, p) - 1.0) * 40.0 for p in phis))
    for p in phis:
        assert normalized(80.0, p) <= 1.0 + 2.0 * d_fit / 80.0


def test_psi_blowup_rate_at_interior_edge_pole(edge_ctx):
    # with mu(0) on the edge, m+(., 0) has an inverse-square-root singularity
    # there; |psi+| at fixed x then grows like delta^{-1/2} as z = E_1 - delta
    # approaches the edge through the band
    deltas = np.array([1e-3, 1e-4, 1e-5])
    mags = [abs(eval_psi_ode(edge_ctx, 1.0 - d, 0.8, +1)) for d in deltas]
    slope = np.polyfit(np.log(deltas), np.log(mags), 1)[0]
    assert abs(slope + 0.5) < 0.35


# ---------------------------------------------------------------------------
# Green function and Wronskian
# ---------------------------------------------------------------------------

def test_green_positivity_on_band_rims():
    band = BandStructure(periodic_edges(3))
    traj = integrate_dubrovin(band, midpoint_divisor(band),
                              -0.5, 0.5, 0.01, tol=1e-11)
    ctx = WeylContext(band, traj)
    bands = band.bands()
    probes = []
    for lo, hi in bands:
        hi_eff = hi if math.isfinite(hi) else lo + 4.0
        probes.extend(np.linspace(lo, hi_eff, 7)[1:-1])
    assert len(probes) >= 20
    for e in probes:
        g = eval_green(ctx, SpectralPoint.upper(e))
        v = g / 1j
        assert v.real > 0.0
        assert abs(v.imag) < 1e-13 * abs(v.real)
        # lower rim is the conjugate
        gl = eval_green(ctx, SpectralPoint.lower(e))
        assert abs(gl - g.conjugate()) < 1e-14 * abs(g)


def test_green_rejects_edges(gap1_ctx):
    with pytest.raises(BranchAtEdge):
        eval_green(gap1_ctx, 1.0)                       # untagged edge
    with pytest.raises(BranchAtEdge):
        eval_green(gap1_ctx, SpectralPoint.upper(2.0))  # tagged edge: Y = 0


def test_wronskian_residual(free_ctx, gap1_ctx, gap2_ctx):
    scale = abs(1.0 / eval_green(free_ctx, 4.0))
    assert wronskian_check(free_ctx, 4.0, 0.7)[0] < 1e-12 * scale
    for ctx in (gap1_ctx, gap2_ctx):
        scale = abs(1.0 / eval_green(ctx, -1.0))
        assert wronskian_check(ctx, -1.0, 0.7)[0] < 1e-9 * scale
        # at the base point the identity is algebraic
        assert wronskian_check(ctx, -1.0, 0.0)[0] < 1e-13 * scale


def test_wronskian_returns_g_and_the_ode_route_psi(gap1_ctx, gap2_ctx):
    # the pipeline's weyl_routes row reads the psi this solve forms
    for ctx in (gap1_ctx, gap2_ctx):
        for z in (-1.0, 0.3 + 0.7j):
            _, g, (psi_p, psi_m) = wronskian_check(ctx, z, 0.7)
            assert g == eval_green(ctx, z)
            assert psi_p == eval_psi_ode(ctx, z, 0.7, +1)
            assert psi_m == eval_psi_ode(ctx, z, 0.7, -1)


def test_wronskian_check_batch_is_each_points_call(gap1_ctx, gap2_ctx):
    # one Magnus ladder for a sequence of points; every tuple is its point's
    # own call, bit for bit
    for ctx in (gap1_ctx, gap2_ctx):
        for x in (0.7, -1.3, 0.0):
            batch = wronskian_check(ctx, list(BATCH_POINTS), x)
            assert len(batch) == len(BATCH_POINTS)
            for got, p in zip(batch, BATCH_POINTS):
                want = wronskian_check(ctx, p, x)
                assert got[0] == want[0]
                assert _bits(got[1], *got[2]) == _bits(want[1], *want[2])


def test_wronskian_x_independence(gap1_ctx):
    scale = abs(1.0 / eval_green(gap1_ctx, -1.0))
    r1 = wronskian_check(gap1_ctx, -1.0, 0.5)[0]
    r2 = wronskian_check(gap1_ctx, -1.0, 1.5)[0]
    assert abs(r1 - r2) < 1e-8 * scale


# ---------------------------------------------------------------------------
# pole classification
# ---------------------------------------------------------------------------

def test_classify_follows_sigma(gap1_ctx, gap2_ctx):
    assert classify_poles(gap1_ctx).tags == (PoleTag.M_PLUS,)
    assert classify_poles(gap2_ctx).tags == (PoleTag.M_PLUS, PoleTag.M_MINUS)


def test_classify_flips_with_sigma():
    band = BandStructure((0.0, 1.0, 2.0))
    traj = integrate_dubrovin(band, DirichletDivisor(((1.5, -1),)),
                              -0.2, 0.2, 0.01)
    ctx = WeylContext(band, traj)
    assert classify_poles(ctx).tags == (PoleTag.M_MINUS,)


def test_classify_edge_and_empty(free_ctx, edge_ctx):
    assert classify_poles(free_ctx).tags == ()
    assert classify_poles(edge_ctx).tags == (PoleTag.EDGE_MHAT,)


def test_classify_scale_free_many_gaps():
    # gaps at j^2 with half widths 0.2 j^-6: |Y^{1/2}(mu_j)| falls to ~1e-6,
    # below any absolute floor, while the vanishing numerator is ~1e-21
    n = 15
    edges = [0.0]
    for j in range(1, n + 1):
        edges += [j * j - 0.2 * j ** -6.0, j * j + 0.2 * j ** -6.0]
    band = BandStructure(tuple(edges))
    sigma = [1 if j % 2 == 0 else -1 for j in range(n)]
    div = DirichletDivisor(tuple((float(band.gap_mid[j]), sigma[j])
                                 for j in range(n)))
    traj = integrate_dubrovin(band, div, -0.5, 0.5, 0.01)
    tags = classify_poles(WeylContext(band, traj)).tags
    assert tags == tuple(PoleTag.M_PLUS if s > 0 else PoleTag.M_MINUS
                         for s in sigma)


def test_classify_degenerate_divisor_raises():
    # a frozen divisor a hair inside the gap: both numerators H +- Y^{1/2}
    # are tiny although mu is nominally interior -> inconsistent data
    band = BandStructure((0.0, 1.0, 2.0))
    mu = 1.0 + 3e-11
    th = math.acos(float((band.gap_mid[0] - mu) / band.gap_half[0]))
    grid = np.array([-0.1, 0.0, 0.1])
    traj = DivisorTrajectory(band, grid, np.full((3, 1), th), np.zeros((3, 1)))
    ctx = WeylContext(band, traj)
    with pytest.raises(AmbiguousPole):
        classify_poles(ctx)


# ---------------------------------------------------------------------------
# structure identity
# ---------------------------------------------------------------------------

def test_structural_identity_free_exact(free_ctx):
    assert structural_identity_check(free_ctx, 1.7 + 0.4j, 0.3) == 0.0


def test_structural_identity_random_probes(gap1_ctx, gap2_ctx):
    rng = np.random.default_rng(404)
    for ctx in (gap1_ctx, gap2_ctx):
        for _ in range(25):
            z = complex(rng.uniform(-2.0, 6.0), rng.uniform(-2.0, 2.0))
            x = rng.uniform(-2.5, 2.5)
            res = structural_identity_check(ctx, z, x)
            assert res <= 1e-5 * (1.0 + abs(eval_Y(ctx.band, z)))


def test_structural_identity_at_divisor(gap1_ctx):
    # at z = mu_j(x): G = 0 exactly, so the residual reduces to |H^2 - Y|,
    # which the flow keeps at the trajectory tolerance
    x = 0.6
    mu = complex(gap1_ctx.trajectory.mu_at(x)[0])
    res = structural_identity_check(gap1_ctx, mu, x)
    assert res < 1e-8


def test_structural_identity_window_guard(gap1_ctx):
    with pytest.raises(ValueError):
        structural_identity_check(gap1_ctx, 1.0 + 1.0j, 2.99)


# ---------------------------------------------------------------------------
# context plumbing and export
# ---------------------------------------------------------------------------

def test_context_eps_gap_default(free_ctx, gap1_ctx, gap2_ctx):
    assert free_ctx.eps_gap == 0.0
    assert gap1_ctx.eps_gap == pytest.approx(1e-3)
    assert gap2_ctx.eps_gap == pytest.approx(1e-3 * 0.05, rel=1e-12)


def test_context_rejects_foreign_trajectory(gap1_ctx):
    other = BandStructure((0.0, 0.5, 1.0))
    with pytest.raises(ValueError):
        WeylContext(other, gap1_ctx.trajectory)


def test_context_requires_origin_coverage():
    band = BandStructure((0.0, 1.0, 2.0))
    grid = np.array([1.0, 1.1, 1.2])
    traj = DivisorTrajectory(band, grid, np.full((3, 1), 0.5), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        WeylContext(band, traj)


def test_context_mirrored(gap1_ctx):
    mir = gap1_ctx.mirrored()
    np.testing.assert_allclose(mir.trajectory.mu_at(0.5),
                               gap1_ctx.trajectory.mu_at(-0.5), atol=1e-14)
    assert mir.eps_gap == gap1_ctx.eps_gap


def test_probe_csv(tmp_path, gap1_ctx):
    path = tmp_path / "probes.csv"
    points = [SpectralPoint.upper(0.45), -1.0 + 0.5j]
    xs = [-0.5, 0.0, 1.0]
    probe_csv(gap1_ctx, points, xs, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ("re_z,im_z,side,x,re_psi_plus,im_psi_plus,"
                        "re_psi_minus,im_psi_minus,re_m_plus,im_m_plus,"
                        "re_g,im_g")
    assert len(lines) == 1 + len(points) * len(xs)
    row = lines[1].split(",")
    assert row[2] == "upper"
    assert float(row[0]) == 0.45
    # values round-trip through the 17-digit format
    val = eval_psi_product(gap1_ctx, points[0], -0.5, +1)
    assert float(row[4]) == val.real


def test_probe_csv_keeps_row_order(tmp_path, gap1_ctx):
    # one engine pass per point serves unsorted and repeated x values in the
    # order given
    path = tmp_path / "probes.csv"
    xs = [1.0, -0.5, 1.0, 0.0]
    probe_csv(gap1_ctx, [-1.0 + 0.5j], xs, path)
    rows = [line.split(",") for line in path.read_text().strip().split("\n")[1:]]
    assert [float(r[3]) for r in rows] == xs
    assert rows[0] == rows[2]
    for r, x in zip(rows, xs):
        for col, sgn in ((4, +1), (6, -1)):
            want = eval_psi_product(gap1_ctx, -1.0 + 0.5j, x, sgn)
            got = complex(float(r[col]), float(r[col + 1]))
            assert abs(got - want) < 1e-12 * abs(want)


def test_probe_csv_returns_the_psi_it_writes(tmp_path, gap1_ctx):
    # the pipeline's weyl_routes row reads the returned psi at xs[0]: they
    # are the floats of the CSV, bit for bit
    points = [SpectralPoint.upper(0.45), -1.0 + 0.5j, SpectralPoint.lower(2.5)]
    xs = [0.7, -0.5, 0.0, 0.7]
    psi = probe_csv(gap1_ctx, points, xs, tmp_path / "probes.csv")
    assert psi.shape == (len(points), 2, len(xs))
    lines = (tmp_path / "probes.csv").read_text().strip().split("\n")[1:]
    assert len(lines) == len(points) * len(xs)
    for k, line in enumerate(lines):
        p, i = divmod(k, len(xs))
        re_p, im_p, re_m, im_m = map(float, line.split(",")[4:8])
        assert psi[p, 0, i] == complex(re_p, im_p)
        assert psi[p, 1, i] == complex(re_m, im_m)


def test_probe_csv_matches_per_value_writer(tmp_path, gap1_ctx):
    # the writer formats each point's rows at once; this one puts every
    # float through f17, one value at a time
    from levitan._numerics import f17
    from levitan.weyl import _psi_parts, eval_m
    points = [SpectralPoint.upper(0.45), SpectralPoint.lower(0.45),
              -1.0 + 0.5j]
    xs = [1.0, -0.5, 1.0, 0, 0.25]
    probe_csv(gap1_ctx, points, xs, tmp_path / "fast.csv")
    lines = [("re_z,im_z,side,x,re_psi_plus,im_psi_plus,re_psi_minus,"
              "im_psi_minus,re_m_plus,im_m_plus,re_g,im_g\n")]
    for pt in map(as_point, points):
        g = eval_green(gap1_ctx, pt)
        pref, w = next(_psi_parts(gap1_ctx, [pt], [float(x) for x in xs]))
        for x, pp, pm in zip(xs, (pref * np.exp(w)).tolist(),
                             (pref * np.exp(-w)).tolist()):
            mp = eval_m(gap1_ctx, pt, float(x), +1)
            row = [f17(pt.z.real), f17(pt.z.imag), pt.side.value, f17(x),
                   f17(pp.real), f17(pp.imag), f17(pm.real), f17(pm.imag),
                   f17(mp.real), f17(mp.imag), f17(g.real), f17(g.imag)]
            lines.append(",".join(row) + "\n")
    assert (tmp_path / "fast.csv").read_text() == "".join(lines)


def test_probe_csv_batch_is_point_by_point(tmp_path, gap1_ctx):
    # unsorted and repeated x probes: the file is the header and then each
    # point's rows as its own call writes them, and so is the returned psi
    xs = [0.5, -1.0, 0.5, 0.0, -0.25, 2.0, -1.0]
    psi = probe_csv(gap1_ctx, BATCH_POINTS, xs, tmp_path / "all.csv")
    header, blocks = None, []
    for i, p in enumerate(BATCH_POINTS):
        one = probe_csv(gap1_ctx, [p], xs, tmp_path / ("%d.csv" % i))
        assert one.tobytes() == psi[i:i + 1].tobytes()
        header, *rows = (tmp_path / ("%d.csv" % i)).read_text().splitlines(True)
        assert len(rows) == len(xs)
        blocks += rows
    assert (tmp_path / "all.csv").read_text() == header + "".join(blocks)


def test_probe_csv_raises_in_point_order(tmp_path, gap1_ctx):
    # point 1 is the band edge E_0, whose Green function diverges, and point
    # 2 is within eps_gap: as point by point, E_0 is refused first, after
    # point 0's rows are written
    near = SpectralPoint(2.0 + 0.5j * gap1_ctx.eps_gap)
    path = tmp_path / "probes.csv"
    with pytest.raises(BranchAtEdge):
        probe_csv(gap1_ctx, [-1.0, 0.0, near], [0.5, -0.5], path)
    assert len(path.read_text().splitlines()) == 1 + 2
    with pytest.raises(TooCloseToGap):
        probe_csv(gap1_ctx, [-1.0, near, 0.0], [0.5, -0.5], path)
