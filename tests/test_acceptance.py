"""Acceptance suite: one test per shipping criterion, pinned tolerances.

Each test is a self-contained property check at desk scale -- closed forms on
the free background, dual-route agreement, structural identities, decay
envelopes, confinement, validator behavior, and byte determinism.  Failure
of any single test here is a release blocker; tolerances are contractual and
must not be loosened.
"""

import cmath
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from levitan import (
    BandStructure,
    DirichletDivisor,
    GridParams,
    PerturbationProfile,
    SpectralPoint,
    WeylContext,
    eval_D,
    eval_Y,
    eval_green,
    eval_m,
    eval_psi_ode,
    eval_psi_product,
    generate_fixture,
    integrate_dubrovin,
    jost_direct,
    jost_from_kernel,
    kernel_bound_check,
    psi_on_grid,
    require_hypothesis,
    solve_kernel,
    structural_identity_check,
    validate_band_structure,
)
from levitan.cli import main
from levitan.errors import EmptyGap, GrowthViolation, NonMonotonic
from levitan.weyl import _ode_cs

from conftest import (jost_between_nodes, periodic_edges,
                      schrodinger_residual)

BUMP = PerturbationProfile.gaussian_bump(0.25, 0.0, 0.5)
SEED = 20260823


def _context(edges, entries, lo, hi, step=0.01, tol=1e-11):
    band = BandStructure(edges)
    traj = integrate_dubrovin(band, DirichletDivisor(entries), lo, hi, step,
                              tol=tol)
    return WeylContext(band, traj)


@pytest.fixture(scope="module")
def ctx0():
    return _context((0.0,), (), -12.0, 12.0)


@pytest.fixture(scope="module")
def ctx1():
    return _context((0.0, 1.0, 2.0), ((1.5, 1),), -12.0, 12.0)


@pytest.fixture(scope="module")
def ctx2():
    return _context(periodic_edges(2), ((1.0, 1), (4.0, -1)), -11.0, 11.0)


@pytest.fixture(scope="module")
def ctx3():
    return _context(periodic_edges(3), ((0.95, -1), (4.01, 1), (9.0, -1)),
                    -11.0, 11.0)


@pytest.fixture(scope="module")
def ctx4():
    return _context(periodic_edges(4),
                    ((1.0, 1), (4.0, -1), (9.0, 1), (16.0, -1)), -3.0, 3.0)


@pytest.fixture(scope="module")
def grids(ctx0, ctx1, ctx2, ctx3):
    """One solved kernel per background, h = 0.05, shared across criteria."""
    return {n: solve_kernel(ctx, BUMP, "+", GridParams(-1.0, 0.05), tol=1e-11)
            for n, ctx in ((0, ctx0), (1, ctx1), (2, ctx2), (3, ctx3))}


# ---------------------------------------------------------------------------
# 1. free-background closed forms
# ---------------------------------------------------------------------------

def test_01_free_background_closed_forms(ctx0):
    """m = +-i sqrt(z), psi = exp(+-i sqrt(z) x), g = -1/(2 i sqrt(z)) to
    relative 1e-10 on a 50-point z-by-x grid, in under a second."""
    zs = [-2.0 + 0.0j, -1.0 + 0.0j, -0.5 + 0.0j, 0.3 + 0.4j, 1.0 + 1.0j,
          2.0 + 0.5j, 4.0 + 2.0j, -1.0 + 1.0j, 0.5 + 2.0j, 3.0 + 0.1j]
    xs = np.array([-1.0, -0.3, 0.0, 0.4, 1.1])
    t0 = time.monotonic()
    worst = 0.0
    for z in zs:
        k = cmath.sqrt(z)
        for sign in (+1, -1):
            psi = psi_on_grid(ctx0, z, xs, sign)
            ref = np.exp(1j * sign * k * xs)
            worst = max(worst, float(np.max(np.abs(psi - ref) / np.abs(ref))))
            m = eval_m(ctx0, z, 0.0, sign)
            worst = max(worst, abs(m - 1j * sign * k) / abs(k))
        g = eval_green(ctx0, z)
        ref_g = -1.0 / (2j * k)
        worst = max(worst, abs(g - ref_g) / abs(ref_g))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-10
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. product vs ODE representation
# ---------------------------------------------------------------------------

def test_02_cross_representation_agreement(ctx1, ctx2, ctx3):
    """psi from the quadrature product and from direct integration agree to
    relative 1e-6: 100 probes per background, z kept off the gaps."""
    rng = np.random.default_rng(SEED)
    t0 = time.monotonic()
    for ctx in (ctx1, ctx2, ctx3):
        top = ctx.band.edges[-1]
        worst = 0.0
        for _ in range(100):
            if rng.uniform() < 0.15:
                z = complex(rng.uniform(-2.0, ctx.band.edges[0] - 1.0))
            else:
                z = complex(rng.uniform(-1.0, top + 1.0),
                            rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.5))
            x = float(rng.uniform(-2.0, 2.0))
            sign = int(rng.choice([-1, 1]))
            a = eval_psi_product(ctx, z, x, sign)
            b = eval_psi_ode(ctx, z, x, sign)
            worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
        assert worst <= 1e-6
    assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# 3. Wronskian identity
# ---------------------------------------------------------------------------

def _wronskian(ctx, z, x):
    m_plus = eval_m(ctx, z, 0.0, +1)
    m_minus = eval_m(ctx, z, 0.0, -1)
    c, cp, s, sp = next(_ode_cs(ctx, [complex(z)], x))
    psi_p, dpsi_p = c + m_plus * s, cp + m_plus * sp
    psi_m, dpsi_m = c + m_minus * s, cp + m_minus * sp
    return psi_m * dpsi_p - dpsi_m * psi_p


def test_03_wronskian_identity(ctx0, ctx1, ctx2):
    """W(psi_-, psi_+) = -1/g to relative 1e-6 at 50 probes, and the value
    does not depend on the probe position to 1e-8."""
    rng = np.random.default_rng(SEED + 1)
    probes = [(ctx0, 10), (ctx1, 20), (ctx2, 20)]
    for ctx, count in probes:
        top = ctx.band.edges[-1]
        for _ in range(count):
            z = complex(rng.uniform(-1.0, top + 1.0),
                        rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.5))
            x = float(rng.uniform(-2.0, 2.0))
            g = eval_green(ctx, z)
            w = _wronskian(ctx, z, x)
            assert abs(w + 1.0 / g) <= 1e-6 * abs(1.0 / g)

    for _ in range(5):
        z = complex(rng.uniform(-1.0, 3.0), rng.uniform(0.4, 1.2))
        g = eval_green(ctx1, z)
        scale = max(1.0, abs(1.0 / g))
        w0 = _wronskian(ctx1, z, -1.2)
        for x in (0.0, 1.4):
            assert abs(_wronskian(ctx1, z, x) - w0) <= 1e-8 * scale


# ---------------------------------------------------------------------------
# 4. Green-function sign on the bands
# ---------------------------------------------------------------------------

def test_04_green_function_sign(ctx0, ctx1, ctx2, ctx3):
    """(1/i) g(z) from the upper rim is positive at 20 mid-band probes per
    background."""
    for ctx in (ctx0, ctx1, ctx2, ctx3):
        bands = ctx.band.bands()
        per_band = max(1, math.ceil(20 / len(bands)))
        count = 0
        for a, b in bands:
            hi = b if math.isfinite(b) else a + 8.0
            width = hi - a
            for t in np.linspace(0.15, 0.85, per_band):
                if count == 20:
                    break
                g = eval_green(ctx, SpectralPoint.upper(a + t * width))
                assert (g / 1j).real > 0.0
                count += 1
        assert count == 20 or len(bands) * per_band >= 20


# ---------------------------------------------------------------------------
# 5. D on the diagonal
# ---------------------------------------------------------------------------

def test_05_d_diagonal_value(ctx0, ctx1, ctx2, ctx3, ctx4):
    """D(x, y, y, x) = -1/4 to 1e-8 over 200 random pairs on every
    background, gap counts 0 through 4, in under a minute."""
    rng = np.random.default_rng(SEED + 2)
    t0 = time.monotonic()
    for ctx, span in ((ctx0, 10.0), (ctx1, 10.0), (ctx2, 10.0),
                      (ctx3, 10.0), (ctx4, 2.8)):
        for _ in range(200):
            x, y = rng.uniform(-span, span, 2)
            assert eval_D(ctx, x, y, y, x, "+") == pytest.approx(
                -0.25, abs=1e-8)
    assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# 6. D symmetry
# ---------------------------------------------------------------------------

def test_06_d_symmetry(ctx1, ctx2, ctx3):
    """Exchanging (x, y, r, s) -> (y, x, s, r) leaves D unchanged to
    1e-10."""
    rng = np.random.default_rng(SEED + 3)
    for ctx in (ctx1, ctx2, ctx3):
        for _ in range(50):
            x, y, r, s = rng.uniform(-9.0, 9.0, 4)
            d1 = eval_D(ctx, x, y, r, s, "+")
            d2 = eval_D(ctx, y, x, s, r, "+")
            assert abs(d1 - d2) <= 1e-10


# ---------------------------------------------------------------------------
# 7. kernel diagonal identity, second order in h
# ---------------------------------------------------------------------------

def test_07_kernel_diagonal_order(ctx0, ctx1):
    """max |K(x,x) - (1/2) int_x q| is O(h^2): measured order in [1.7, 2.3]
    across h = 0.1, 0.05, 0.025 on both kernel backgrounds."""
    for ctx in (ctx0, ctx1):
        t0 = time.monotonic()
        errs = []
        for h in (0.1, 0.05, 0.025):
            grid = solve_kernel(ctx, BUMP, "+", GridParams(-1.0, h),
                                tol=1e-12)
            pos = grid.positions[:grid.half_width + 1]
            worst = max(
                abs(grid.values[i, 0]
                    - 0.5 * quad(BUMP, x, BUMP.support[1], limit=200)[0])
                for i, x in enumerate(pos))
            errs.append(worst)
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(1.7 <= o <= 2.3 for o in orders)
        assert math.isfinite(errs[-1] / 0.025 ** 2)
        assert time.monotonic() - t0 < 300.0


# ---------------------------------------------------------------------------
# 8. two independent routes to the perturbed solutions
# ---------------------------------------------------------------------------

def test_08_oracle_equivalence(ctx0, ctx1, grids):
    """phi through the kernel and phi from its own Volterra iteration differ
    by at most 5e-3 in sup norm on the 0- and 1-gap backgrounds."""
    cases = {
        0: (SpectralPoint.upper(4.0), SpectralPoint(-1.0 + 0.0j),
            SpectralPoint(0.5 + 0.8j)),
        1: (SpectralPoint.upper(0.4), SpectralPoint(-1.0 + 0.0j),
            SpectralPoint.upper(2.5)),
    }
    t0 = time.monotonic()
    for n, ctx in ((0, ctx0), (1, ctx1)):
        grid = grids[n]
        worst = 0.0
        for pt in cases[n]:
            for x in (-0.5, 0.3, 1.0):
                a = jost_from_kernel(ctx, grid, pt, x, "+")
                b = jost_direct(ctx, BUMP, pt, x, "+")
                worst = max(worst, abs(a - b))
        assert worst <= 5e-3
    assert time.monotonic() - t0 < 300.0


# ---------------------------------------------------------------------------
# 9. Schrodinger residual decays at second order
# ---------------------------------------------------------------------------

def test_09_schrodinger_residual_order(ctx1):
    """Halving the lattice step and the difference step together divides the
    equation residual of phi by about four (ratio in [3.5, 4.5])."""
    z = SpectralPoint(-1.0 + 0.0j)
    residuals = []
    for h_lat, h_fd in ((0.04, 0.02), (0.02, 0.01)):
        grid = solve_kernel(ctx1, BUMP, "+", GridParams(-1.0, h_lat),
                            tol=1e-12)
        ev = lambda x: jost_between_nodes(ctx1, grid, z, x)
        residuals.append(
            schrodinger_residual(ctx1, BUMP, ev, z, (0.28, 0.32), h_fd))
    assert 3.5 <= residuals[0] / residuals[1] <= 4.5


# ---------------------------------------------------------------------------
# 10. decay envelope with computed constants
# ---------------------------------------------------------------------------

def test_10_kernel_envelope_bounds(ctx0, ctx1, ctx2, ctx3, grids):
    """Every kernel sample sits inside the computed envelope (no pointwise
    violations) and every row obeys the integrated bound, on all
    backgrounds."""
    for n, ctx in ((0, ctx0), (1, ctx1), (2, ctx2), (3, ctx3)):
        report = kernel_bound_check(ctx, grids[n], BUMP)
        assert report.violations == [], "gap count %d" % n
        assert report.c_of_x_monotone


# ---------------------------------------------------------------------------
# 11. structural identity
# ---------------------------------------------------------------------------

def test_11_structural_identity(ctx1, ctx2, ctx3):
    """|G N + H^2 - Y| <= 1e-5 (1 + |Y|) at 100 random (z, x) probes."""
    rng = np.random.default_rng(SEED + 4)
    for ctx, count in ((ctx1, 34), (ctx2, 33), (ctx3, 33)):
        top = ctx.band.edges[-1]
        for _ in range(count):
            z = complex(rng.uniform(-1.0, top + 1.0),
                        rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.2))
            x = float(rng.uniform(-2.0, 2.0))
            resid = structural_identity_check(ctx, z, x)
            assert resid <= 1e-5 * (1.0 + abs(eval_Y(ctx.band, z)))


# ---------------------------------------------------------------------------
# 12. divisor confinement and reversibility
# ---------------------------------------------------------------------------

def test_12_divisor_confinement_and_reversibility():
    """Every divisor sample stays inside its closed gap over [-20, 20], and
    integrating back from the endpoint reproduces the start to 10x the
    tolerance."""
    tol = 1e-10
    fixtures = [
        ((0.0,), ()),
        ((0.0, 1.0, 2.0), ((1.5, 1),)),
        (periodic_edges(2), ((1.0, 1), (4.0, -1))),
        (periodic_edges(3), ((0.95, -1), (4.01, 1), (9.0, -1))),
    ]
    for edges, entries in fixtures:
        band = BandStructure(edges)
        traj = integrate_dubrovin(band, DirichletDivisor(entries),
                                  -20.0, 20.0, 0.01, tol=tol)
        for j, (glo, ghi) in enumerate(band.gaps):
            mu_j = traj.mu_grid[:, j]
            assert np.all(mu_j >= glo) and np.all(mu_j <= ghi)
        back = integrate_dubrovin(band, traj.divisor_at(20.0), -20.0, 0.0,
                                  0.01, tol=tol)
        if band.gap_count:
            drift = float(np.max(np.abs(back.mu_at(-20.0) - traj.mu_at(0.0))))
            assert drift <= 10.0 * tol


# ---------------------------------------------------------------------------
# 13. validator accepts and rejects
# ---------------------------------------------------------------------------

def test_13_band_hypothesis_validator():
    """The validator accepts the shaped-edge fixtures and rejects each
    crafted violation with its specific error."""
    for n in (2, 3, 4):
        require_hypothesis(validate_band_structure(
            periodic_edges(n), 2.0, 1.0, 1.0))
        cfg = generate_fixture("periodic_like", n=n)
        require_hypothesis(validate_band_structure(
            cfg.edges, cfg.hyp_l, cfg.hyp_C, cfg.hyp_alpha))

    with pytest.raises(NonMonotonic):
        validate_band_structure((0.0, 2.0, 1.0), 2.0, 1.0, 1.0)
    with pytest.raises(EmptyGap):
        validate_band_structure((0.0, 1.0, 1.0), 2.0, 1.0, 1.0)
    report = validate_band_structure((0.0, 1.0, 1.1, 1.5, 1.6),
                                     2.0, 1.0, 1.0)
    assert not report.all_growth_ok
    with pytest.raises(GrowthViolation):
        require_hypothesis(report)


# ---------------------------------------------------------------------------
# 14. byte determinism of full runs
# ---------------------------------------------------------------------------

def test_14_pipeline_determinism(tmp_path):
    """Two complete pipeline runs of one config produce byte-identical CSVs
    and summary JSON."""
    cfg = generate_fixture("free")
    path = tmp_path / "cfg.json"
    cfg.write(path)
    assert main(["all", str(path), "--out", str(tmp_path / "a")]) == 0
    assert main(["all", str(path), "--out", str(tmp_path / "b")]) == 0
    names = ("trajectory.csv", "potential.csv", "weyl_probes.csv",
             "kernel.csv", "jost.csv", "summary.json")
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name
