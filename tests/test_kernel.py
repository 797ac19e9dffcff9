"""Transformation-kernel tests: profiles, edge amplitudes, the D sum, the
Volterra solve, decay bounds, and the two independent Jost routes."""

import gc
import itertools
import json
import math
import re
import tracemalloc
import warnings
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, quad

from conftest import (
    edge_products,
    jacobi_kernel,
    jost_between_nodes,
    jost_profile_rows,
    k_at,
    lattice_bound_check,
    periodic_edges,
    residue_f_plus,
    richardson,
    schrodinger_residual,
)
from levitan import cli, kernel, weyl
from levitan._numerics import rev_cumtrapz
from levitan.dubrovin import (DirichletDivisor, DivisorTrajectory,
                              integrate_dubrovin, trace_potential,
                              trajectory_to_csv)
from levitan.errors import MomentViolation, NoConvergence
from levitan.kernel import (
    GridParams,
    KernelBoundReport,
    PerturbationProfile,
    edge_amplitudes,
    eval_D,
    jost_direct,
    jost_from_kernel,
    jost_profile,
    kernel_bound_check,
    moment_check,
    solve_kernel,
)
from levitan.cli import generate_fixture
from levitan.spectral import BandStructure, SpectralPoint, as_point
from levitan.weyl import (WeylContext, eval_G, eval_green, eval_psi_product,
                          psi_on_grid)


BUMP = PerturbationProfile.gaussian_bump(0.2, 0.0, 0.8)
BUMP_NARROW = PerturbationProfile.gaussian_bump(0.25, 0.0, 0.5)


# ---------------------------------------------------------------------------
# bookkeeping bound on |D| and the kernel equation's integration domains
# ---------------------------------------------------------------------------

def band_beta(band: BandStructure) -> float:
    """Smallest pairwise separation among all band edges (inf for N = 0)."""
    e = band.edge_array
    if len(e) < 2:
        return math.inf
    diffs = np.abs(e[:, None] - e[None, :])
    return float(np.min(diffs[np.triu_indices(len(e), k=1)]))


def band_c1(band: BandStructure) -> float:
    """C_1 = exp(sum of gap widths / beta)."""
    if band.gap_count == 0:
        return 1.0
    widths = 2.0 * band.gap_half
    return float(math.exp(np.sum(widths) / band_beta(band)))


def d_bound(band: BandStructure) -> float:
    """Bookkeeping bound on sup |D|: each gap edge term is at most
    C_1 * width_l / (E_2l - E_0), the E_0 term at most C_1."""
    c1 = band_c1(band)
    total = c1
    for l in range(1, band.gap_count + 1):
        w = band.edges[2 * l] - band.edges[2 * l - 1]
        total += 2.0 * c1 * w / (band.edges[2 * l] - band.edges[0])
    return 0.25 * total


def in_forcing_domain(x: float, s: float, t: float) -> bool:
    """Membership in the forcing-term t-domain of the kernel equation for the
    pair (x, s): the half line t >= (x + s)/2 (and s >= x for K's support)."""
    return s >= x and t >= 0.5 * (x + s)


def in_interaction_domain(x: float, s: float, y: float, t: float) -> bool:
    """Membership in the interaction-term (y, t)-domain for the pair (x, s):

        y >= x,  t >= y,  s + x - y <= t <= s + y - x.

    Equivalent to the rotated-rectangle description used by the solver
    (alpha >= (x+s)/2, 0 <= beta <= (s-x)/2 with y = alpha - beta,
    t = alpha + beta); the equivalence is covered by the tests below.
    """
    return (s >= x and y >= x and t >= y
            and s + x - y <= t <= s + y - x)


@pytest.fixture(scope="module")
def kfree():
    band = BandStructure((0.0,))
    traj = integrate_dubrovin(band, DirichletDivisor(()), -6.0, 14.0,
                              step=0.05, tol=1e-10)
    return WeylContext(band, traj)


@pytest.fixture(scope="module")
def kgap():
    band = BandStructure((0.0, 1.0, 2.0))
    traj = integrate_dubrovin(band, DirichletDivisor(((1.5, 1),)),
                              -16.0, 16.0, step=0.01, tol=1e-11)
    return WeylContext(band, traj)


@pytest.fixture(scope="module")
def kgap_sym():
    # divisor starting on the gap edge: theta(0) = 0, so the flow is even in
    # x and the problem coincides with its own mirror image
    band = BandStructure((0.0, 1.0, 2.0))
    traj = integrate_dubrovin(band, DirichletDivisor(((1.0, 1),)),
                              -10.0, 10.0, step=0.01, tol=1e-11)
    return WeylContext(band, traj)


@pytest.fixture(scope="module")
def kn2():
    band = BandStructure(periodic_edges(2))
    div = DirichletDivisor(((1.0, 1), (4.0, -1)))
    traj = integrate_dubrovin(band, div, -3.0, 3.0, step=0.02, tol=1e-10)
    return WeylContext(band, traj)


# ---------------------------------------------------------------------------
# perturbation profiles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("call, words", [
    pytest.param(lambda ctx: PerturbationProfile.gaussian_bump(0.1, 0.0, 0.0),
                 "width must be positive", id="bump_zero_width"),
    pytest.param(lambda ctx: PerturbationProfile.gaussian_bump(0.1, 0.0, -0.5),
                 "width must be positive", id="bump_negative_width"),
    pytest.param(lambda ctx: PerturbationProfile.compact_poly((1.0, 0.0),
                                                              (0.0, 0.0)),
                 "support must be a nonempty interval", id="poly_point"),
    pytest.param(lambda ctx: PerturbationProfile.compact_poly((1.0, 0.0),
                                                              (1.0, 0.0)),
                 "support must be a nonempty interval", id="poly_reversed"),
    pytest.param(lambda ctx: PerturbationProfile.from_table((0.0, 1.0),
                                                            (0.0,)),
                 "need matching xs/vals with at least two samples",
                 id="table_unequal"),
    pytest.param(lambda ctx: PerturbationProfile.from_table((0.0,), (0.0,)),
                 "need matching xs/vals with at least two samples",
                 id="table_one_sample"),
    pytest.param(lambda ctx: edge_amplitudes(ctx, 5, [0.0]),
                 "edge index 5 out of range", id="edge_past_last"),
    pytest.param(lambda ctx: edge_amplitudes(ctx, -1, [0.0]),
                 "edge index -1 out of range", id="edge_negative"),
    pytest.param(lambda ctx: GridParams(x0=-1.0, h=0.0),
                 "h must be positive", id="grid_zero_h"),
    pytest.param(lambda ctx: GridParams(x0=-1.0, h=-0.05),
                 "h must be positive", id="grid_negative_h"),
    # kn2's trajectory ends at x = 3; the lattice reaches 2 x_max - x0 = 6
    pytest.param(lambda ctx: solve_kernel(ctx, PerturbationProfile.zero(), "+",
                                          GridParams(-1.0, 0.05, 2.5)),
                 "does not cover the kernel lattice", id="lattice_past_flow"),
])
def test_bad_kernel_inputs_fail_loudly(kn2, call, words):
    with pytest.raises(ValueError, match=re.escape(words)):
        call(kn2)


def _gaussian_moment(amp, c, w):
    # int (1+x^2) |A| exp(-(x-c)^2 / 2w^2) dx = |A| sqrt(2 pi) w (1 + c^2 + w^2)
    return abs(amp) * math.sqrt(2.0 * math.pi) * w * (1.0 + c * c + w * w)


def _table_moment(xs, vals):
    """int (1 + x^2) |q| of a nonnegative table, in exact rational
    arithmetic: Simpson's rule is exact on each piece."""
    assert min(vals) >= 0.0
    xs, fs = [Fraction(v) for v in xs], [Fraction(v) for v in vals]
    return float(sum((b - a) / 6 * ((1 + a * a) * fa
                                    + 2 * (1 + ((a + b) / 2) ** 2) * (fa + fb)
                                    + (1 + b * b) * fb)
                     for a, b, fa, fb in zip(xs, xs[1:], fs, fs[1:])))


def _long_table():
    # 13,501 nodes of 0.1 sin^2(40 pi x)(1 - x^2) on [-1, 1]
    xs = np.linspace(-1.0, 1.0, 13501)
    vals = 0.1 * np.sin(40.0 * np.pi * xs) ** 2 * (1.0 - xs * xs)
    vals[0] = vals[-1] = 0.0
    return PerturbationProfile.from_table(xs, vals)


# 0.2 (x^2 - 0.04)(x^2 - 1): sign changes at +-0.2 inside the support
_POLY = PerturbationProfile.compact_poly((0.2, 0.0, -0.208, 0.0, 0.008),
                                         (-1.0, 1.0))
_POLY_QUAD = quad(lambda x: (1.0 + x * x) * abs(_POLY(x)), -1.0, 1.0,
                  points=(-0.2, 0.2), epsabs=1e-15, epsrel=1e-14)[0]
# q = x on [0, 1], 3 - 2x on [1, 2] (zero at 1.5), x - 3 on [2, 3]:
# 3/4 + (19/32 + 35/32) + 13/4 = 91/16
_SIGN_TABLE = PerturbationProfile.from_table((0.0, 1.0, 2.0, 3.0),
                                             (0.0, 1.0, -1.0, 0.0))


@pytest.mark.parametrize("make, expected, rel", [
    pytest.param(lambda: PerturbationProfile.gaussian_bump(1.0, 0.0, 1.0),
                 _gaussian_moment(1.0, 0.0, 1.0), 1e-15, id="gaussian_centred"),
    pytest.param(lambda: PerturbationProfile.gaussian_bump(0.5, 1.2, 0.7),
                 _gaussian_moment(0.5, 1.2, 0.7), 1e-15, id="gaussian_shifted"),
    pytest.param(lambda: PerturbationProfile.gaussian_bump(-0.3, -0.4, 0.2),
                 _gaussian_moment(-0.3, -0.4, 0.2), 1e-15,
                 id="gaussian_negative"),
    pytest.param(lambda: PerturbationProfile.from_table(
                     (-1.0, -0.5, 0.0, 0.5, 1.0), (0.0, 0.05, 0.1, 0.05, 0.0)),
                 7.0 / 60.0, 1e-15, id="table_hat"),
    pytest.param(lambda: _SIGN_TABLE, 91.0 / 16.0, 1e-15,
                 id="table_sign_change"),
    pytest.param(lambda: _POLY, _POLY_QUAD, 1e-14, id="poly_sign_change"),
    pytest.param(lambda: PerturbationProfile.compact_poly((), (-1.0, 1.0)),
                 0.0, 0.0, id="poly_empty"),
    pytest.param(PerturbationProfile.zero, 0.0, 0.0, id="zero"),
    pytest.param(lambda: PerturbationProfile.gaussian_bump(
                     0.5, 1.2, 0.7).mirrored(),
                 _gaussian_moment(0.5, 1.2, 0.7), 1e-15,
                 id="gaussian_mirrored"),
    pytest.param(lambda: _SIGN_TABLE.mirrored(), 91.0 / 16.0, 1e-15,
                 id="table_mirrored"),
    pytest.param(lambda: _POLY.mirrored(), _POLY_QUAD, 1e-14,
                 id="poly_mirrored"),
    pytest.param(_long_table, None, 1e-15, id="table_13501_nodes"),
])
def test_moment_is_exact(make, expected, rel):
    # every form's second moment is a closed form, exact up to rounding and
    # silent even under warnings-as-errors (a 13,501-node table once made an
    # adaptive quadrature warn and miss by 1.6e-6)
    pert = make()
    if expected is None:                # the long table's exact value
        expected = _table_moment(*pert.params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = moment_check(pert)
    assert got == pytest.approx(expected, rel=rel, abs=0.0)


def test_moment_slow_decay_grows_with_window():
    # q ~ 1/(1+|x|) has a non-integrable second moment: the report grows
    # without bound as the table's window [-w, w] widens (a flag for the
    # caller, not an error)
    m = []
    for w in (10.0, 50.0, 150.0):
        xs = np.linspace(-w, w, int(40 * w) + 1)
        vals = 1.0 / (1.0 + np.abs(xs))
        vals[0] = vals[-1] = 0.0
        m.append(moment_check(PerturbationProfile.from_table(xs, vals)))
    assert m[0] < m[1] < m[2]
    assert m[2] > 20.0 * m[0]


@pytest.mark.parametrize("shape, axis", [((1,), 0), ((2,), 0), ((1001,), 0),
                                         ((7, 33), 1), ((33, 7), 0)])
def test_rev_cumtrapz_is_scipys_cumulative_trapezoid(shape, axis):
    # the same floats as scipy's cumulative_trapezoid on the flipped array,
    # for real and complex input
    rng = np.random.default_rng(shape[0])
    a = rng.standard_normal(shape)
    for y in (a, a + 1j * rng.standard_normal(shape)):
        ref = np.flip(cumulative_trapezoid(np.flip(y, axis=axis), dx=0.37,
                                           axis=axis, initial=0.0), axis=axis)
        got = rev_cumtrapz(y, 0.37, axis=axis)
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)


def test_compact_poly_must_vanish_at_support_ends():
    with pytest.raises(ValueError):
        PerturbationProfile.compact_poly((1.0, 0.0, 1.0), (-1.0, 1.0))
    pert = PerturbationProfile.compact_poly((-1.0, 0.0, 1.0), (-1.0, 1.0))
    assert pert(0.0) == pytest.approx(1.0)
    assert pert(2.0) == 0.0


def test_table_must_vanish_at_ends():
    with pytest.raises(ValueError):
        PerturbationProfile.from_table((0.0, 1.0), (0.5, 0.0))
    with pytest.raises(ValueError):
        PerturbationProfile.from_table((0.0, 1.0, 0.5), (0.0, 0.0, 0.0))


def test_mirrored_profiles_reflect():
    perts = [
        PerturbationProfile.gaussian_bump(0.3, 0.4, 0.6),
        PerturbationProfile.compact_poly((1.0, -0.5, -1.0, 0.5), (0.5, 1.0)),
        PerturbationProfile.from_table((-1.0, 0.0, 2.0), (0.0, 0.7, 0.0)),
    ]
    xs = np.linspace(-3.0, 3.0, 301)
    for pert in perts:
        np.testing.assert_allclose(pert.mirrored()(xs), pert(-xs), atol=1e-13)


# ---------------------------------------------------------------------------
# integration-domain predicates vs brute enumeration
# ---------------------------------------------------------------------------

def test_forcing_domain_matches_rotated_form():
    for x, s, t in itertools.product(range(-3, 4), repeat=3):
        rotated = (s >= x) and (2 * t >= x + s)
        assert in_forcing_domain(x, s, t) == rotated


def test_interaction_domain_matches_rotated_form():
    # rotated description: alpha = (y+t)/2 >= (x+s)/2 and 0 <= (t-y)/2 <= (s-x)/2
    for x, s, y, t in itertools.product(range(-3, 4), repeat=4):
        rotated = (s >= x) and (y + t >= x + s) and (0 <= t - y <= s - x)
        assert in_interaction_domain(x, s, y, t) == rotated


# ---------------------------------------------------------------------------
# edge amplitudes
# ---------------------------------------------------------------------------

def test_edge_phase_follows_touch_parity(kgap):
    # the limit phase factor of b_k(t) b_k(0) is +1/-1 according to how many
    # times the gap's divisor point has hit the edge strictly between 0 and t
    traj = kgap.trajectory
    ts = np.linspace(-2.3, 11.7, 15)
    scale = np.abs(edge_products(kgap.band)) ** -0.25
    for k, kind in ((1, "lower"), (2, "upper")):
        a = edge_amplitudes(kgap, k, ts)
        a *= math.copysign(1.0, edge_amplitudes(kgap, k, [0.0])[0])
        for t, av in zip(ts, a):
            touches = traj.touch_points(0, kind)
            touches = touches[(touches > min(t, 0.0) + 1e-9)
                              & (touches < max(t, 0.0) - 1e-9)]
            mod = scale[k] * math.sqrt(
                abs(kgap.band.edges[k] - float(traj.mu_at(t)[0])))
            want = (-1.0) ** len(touches) * mod
            assert av == pytest.approx(want, abs=1e-10 * (1.0 + mod))


def test_ground_edge_amplitude_is_positive_modulus(kgap):
    ts = np.linspace(-2.0, 2.0, 9)
    a = edge_amplitudes(kgap, 0, ts)
    assert np.all(a.imag == 0.0)
    assert np.all(a.real > 0.0)


def test_edge_amplitudes_cached_and_copied(kgap):
    ts = np.array([0.25, 0.75])
    a = edge_amplitudes(kgap, 1, ts)
    a[0] = 123.0
    b = edge_amplitudes(kgap, 1, ts)
    assert b[0] != 123.0


def test_tangential_touch_keeps_sign():
    # theta = 3 x^2 grazes the lower edge at x = 0 without crossing it: the
    # amplitudes are the analytic sqrt(2 w) sin(theta/2) and sqrt(2 w)
    # cos(theta/2) on both sides, with no flip at 0 (the Hermite spline
    # reproduces the quadratic exactly)
    band = BandStructure((0.0, 1.0, 2.0))
    xs = np.linspace(-0.5, 0.5, 101)
    traj = DivisorTrajectory(band, xs, (3.0 * xs ** 2)[:, None],
                             (6.0 * xs)[:, None])
    ctx = WeylContext(band, traj)
    ts = np.linspace(-0.45, 0.45, 19)
    scale = math.sqrt(2.0 * band.gap_half[0]) * np.abs(
        edge_products(band)) ** -0.25
    for k, half in ((1, np.sin), (2, np.cos)):
        a = edge_amplitudes(ctx, k, ts)
        assert np.all(a.imag == 0.0)
        np.testing.assert_allclose(a.real, scale[k] * half(1.5 * ts ** 2),
                                   rtol=1e-10, atol=1e-15)
    assert np.all(edge_amplitudes(ctx, 1, ts[ts != 0.0]).real > 0.0)


def test_residue_vanishes_at_touch(kgap_sym):
    # mu(0) sits exactly on E_1, so every edge-1 amplitude at position 0 is 0
    assert residue_f_plus(kgap_sym, 1, 0.0, 0.5, 0.8, -0.3) == 0.0
    assert residue_f_plus(kgap_sym, 1, 0.5, 0.0, 0.8, -0.3) == 0.0


def _flow_context(kind, n, seed, out):
    """The fixture's config, its flow-stage state and the Weyl context,
    built by the pipeline's own validate and flow stages."""
    cfg = generate_fixture(kind, n=n, seed=seed)
    st = {}
    for stage in ("validate", "flow"):
        cli._STAGE_FNS[stage](cfg, st, {}, out)
    return cfg, st, WeylContext(st["band"], st["traj"])


# random fixtures on which an earlier, eps-limit edge phase stopped the
# kernel stage
FORMERLY_FAILING = [(5, 1), (8, 0), (8, 5), (9, 3), (9, 6)]


@pytest.fixture(scope="module",
                params=[("periodic_like", 4, 0), ("random", 6, 0),
                        ("one_gap", 0, 0)]
                + [("random", n, seed) for n, seed in FORMERLY_FAILING],
                ids=["periodic_like-4", "random-6", "one_gap"]
                + ["random-%d-%d" % p for p in FORMERLY_FAILING])
def kfixture(request, tmp_path_factory):
    return _flow_context(*request.param, tmp_path_factory.mktemp("flow"))[2]


def test_edge_amplitudes_match_closed_form(kfixture):
    # oracle: sign(b_k(t) b_k(0)) is (-1)^(touches strictly between 0 and t),
    # |b_k(t)| is sqrt(prod |E_k - mu_j|) / |prod_{m != k} (E_k - E_m)|^{1/4},
    # and sign(b_k(t)) is read from the angle, sin(theta_j/2) for the lower
    # edge and cos(theta_j/2) for the upper one
    ctx = kfixture
    traj = ctx.trajectory
    ts = np.linspace(traj.x_min, traj.x_max, 61)
    scale = np.abs(edge_products(ctx.band)) ** -0.25
    for k in range(1, len(ctx.band.edges)):
        j = (k + 1) // 2 - 1
        kind, half = ("lower", np.sin) if k % 2 == 1 else ("upper", np.cos)
        a = edge_amplitudes(ctx, k, ts)
        sign0 = math.copysign(1.0, edge_amplitudes(ctx, k, [0.0])[0])
        assert np.all(a.imag == 0.0)
        for t, av in zip(ts, a.real):
            touches = traj.touch_points(j, kind)
            touches = touches[(touches > min(t, 0.0) + 1e-9)
                              & (touches < max(t, 0.0) - 1e-9)]
            mod = scale[k] * math.sqrt(
                np.prod(np.abs(ctx.band.edges[k] - traj.mu_at(t))))
            assert sign0 * av == pytest.approx((-1.0) ** len(touches) * mod,
                                               rel=1e-12, abs=1e-15)
            angle_sign = half(0.5 * traj.theta_at(t)[j])
            if abs(angle_sign) > 1e-6:
                assert math.copysign(1.0, av) == math.copysign(1.0, angle_sign)


def test_eval_D_is_residue_sum_bit_for_bit(kfixture, rng):
    ctx = kfixture
    for _ in range(12):
        x, y, r, s = rng.uniform(-1.0, 3.0, 4)
        total = 0.0
        for k in range(len(ctx.band.edges)):
            total += residue_f_plus(ctx, k, x, y, r, s)
        assert eval_D(ctx, x, y, r, s) == -0.25 * total


@pytest.mark.parametrize("n, seed", FORMERLY_FAILING)
def test_random_fixture_amplitudes_and_D(n, seed, tmp_path):
    cfg, st, ctx = _flow_context("random", n, seed, tmp_path)
    pos = cfg.x0 + cfg.h * np.arange(
        round(2.0 * (st["x_cut"] - cfg.x0) / cfg.h) + 1)
    for k in range(len(ctx.band.edges)):
        assert np.all(np.isfinite(edge_amplitudes(ctx, k, pos)))
    # the verify stage's D rows, with its probes and bounds
    probe = np.random.default_rng(cfg.seed + 1)
    pairs = probe.uniform(cfg.x0, st["x_cut"], size=(40, 2))
    assert max(abs(eval_D(ctx, x, y, y, x) + 0.25) for x, y in pairs) <= 1e-8
    quads = probe.uniform(cfg.x0, st["x_cut"], size=(20, 4))
    assert max(abs(eval_D(ctx, x, y, r, s) - eval_D(ctx, y, x, s, r))
               for x, y, r, s in quads) <= 1e-10


def test_random_fixture_pipeline_passes(tmp_path):
    cfg = replace(generate_fixture("random", n=8, seed=5),
                  out_dir=str(tmp_path))
    summary = cli.run_pipeline(cfg)
    failed = [name for name, row in summary.checks.items() if not row["pass"]]
    assert failed == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_infinite_gap_truncation_is_cauchy_in_n(tmp_path):
    # periodic_like n = 10's probes, perturbation and lattice on gaps at j^2
    # of half width 0.1 j^-4, mu_j at the midpoints on alternating sheets:
    # the N-gap truncations of one infinite-gap background.  Every pipeline
    # passes, K_N settles on the shared lattice and C_const stays put
    kernels, consts = [], []
    for n in (10, 20, 40, 60):
        edges = [0.0] + [j * j + s * 0.1 / j ** 4
                         for j in range(1, n + 1) for s in (-1.0, 1.0)]
        divisor = tuple(((edges[2 * j - 1] + edges[2 * j]) / 2.0,
                         1 if j % 2 == 1 else -1) for j in range(1, n + 1))
        out = tmp_path / str(n)
        summary = cli.run_pipeline(replace(
            generate_fixture("periodic_like", n=10), edges=tuple(edges),
            divisor=divisor, out_dir=str(out)))
        failed = [k for k, row in summary.checks.items() if not row["pass"]]
        assert failed == []
        kernels.append(np.loadtxt(out / "kernel.csv", delimiter=",",
                                  skiprows=1))
        consts.append(json.loads((out / "kernel_meta.json").read_text())
                      ["C_const"])
    for k in kernels[1:]:
        assert np.array_equal(k[:, :2], kernels[0][:, :2])
    steps = [np.max(np.abs(b[:, 2] - a[:, 2]))
             for a, b in zip(kernels, kernels[1:])]
    assert steps[0] > steps[1] > steps[2]
    assert consts == pytest.approx([0.408240] * 4, abs=1e-6)


def _y_prime(band, z):
    norm = math.prod(band.edges[1::2])
    return -np.polyval(np.polyder(np.poly(band.edge_array)), z) / norm ** 2


def test_residue_matches_eps_limit_oracle(kgap, monkeypatch):
    # independent oracle: Richardson limit (in sqrt(delta)) of the full
    # expression G(z,0)^2 / Y'(z) * psi+ psi- psi+ psi- with z approaching
    # the edge through the adjacent band on the upper rim; the product
    # route must accept z within 1e-9 of the gap, at a looser tolerance
    band = kgap.band
    monkeypatch.setattr("levitan.weyl._GAP_MARGIN", 1e-9)
    monkeypatch.setattr("levitan.weyl._QUAD_TOL", 1e-5)
    x, y, r, s = 0.4, -0.9, 1.3, 0.7
    for k in (0, 1, 2):
        side = -1.0 if k % 2 == 1 else 1.0
        vals = []
        for j in range(4):
            z = SpectralPoint.upper(band.edges[k] + side * 1e-3 / 4 ** j)
            pp = [eval_psi_product(kgap, z, t, +1) for t in (x, r)]
            pm = [eval_psi_product(kgap, z, t, -1) for t in (y, s)]
            lit = (eval_G(kgap, z, 0.0) ** 2 / _y_prime(band, z.z.real)
                   * pp[0] * pm[0] * pp[1] * pm[1])
            vals.append(-lit)
        lim, _ = richardson(np.array(vals), ratio=2.0)
        assert residue_f_plus(kgap, k, x, y, r, s) == pytest.approx(
            lim.real, abs=1e-6)
        assert abs(lim.imag) < 1e-6


# ---------------------------------------------------------------------------
# the D sum
# ---------------------------------------------------------------------------

def test_D_diagonal_is_minus_quarter(kfree, kgap, kn2, rng):
    for ctx, span in ((kfree, 5.0), (kgap, 11.0), (kn2, 2.5)):
        for _ in range(12):
            x, y = rng.uniform(-2.0, span, 2)
            assert eval_D(ctx, x, y, y, x, "+") == pytest.approx(
                -0.25, abs=1e-8)


def test_D_symmetry_is_exact(kgap, rng):
    for _ in range(12):
        x, y, r, s = rng.uniform(-2.0, 11.0, 4)
        assert eval_D(kgap, x, y, r, s, "+") - eval_D(kgap, y, x, s, r, "+") == 0.0


def test_D_bounded_by_edge_bookkeeping(kgap, kn2, rng):
    for ctx in (kgap, kn2):
        bound = d_bound(ctx.band)
        lo = ctx.trajectory.x_min + 0.1
        hi = ctx.trajectory.x_max - 0.1
        worst = max(abs(eval_D(ctx, *rng.uniform(lo, hi, 4), "+"))
                    for _ in range(40))
        assert worst <= bound + 1e-12
    assert band_c1(BandStructure((0.0,))) == 1.0


def test_D_minus_side_via_mirror(kgap_sym, rng):
    # the flow is its own mirror image here, so D- must equal D+ at the
    # reflected positions even though it is computed through the mirrored
    # trajectory
    for _ in range(6):
        x, y, r, s = rng.uniform(-2.0, 2.0, 4)
        dm = eval_D(kgap_sym, x, y, r, s, "-")
        dp = eval_D(kgap_sym, -x, -y, -r, -s, "+")
        assert dm == pytest.approx(dp, abs=1e-9)


def test_D_minus_side_is_hand_mirrored_plus_side(kn2, rng):
    # D- equals D+ of a context mirrored by hand, at negated positions, bit
    # for bit; the package builds its mirror once per trajectory
    tr = kn2.trajectory
    hand = WeylContext(kn2.band, DivisorTrajectory(
        kn2.band, -tr.x_grid[::-1], -tr.theta[::-1], tr.dtheta[::-1]))
    for _ in range(6):
        x, y, r, s = rng.uniform(-2.5, 2.5, 4)
        assert eval_D(kn2, x, y, r, s, "-") == \
            eval_D(hand, -x, -y, -r, -s, "+")
    assert kn2.mirrored().trajectory is kn2.mirrored().trajectory


@pytest.fixture(scope="module")
def kten(tmp_path_factory):
    return _flow_context("periodic_like", 10, 0,
                         tmp_path_factory.mktemp("flow"))[2]


@pytest.mark.parametrize("sign", ["+", "-"])
def test_batched_eval_D_equals_scalar_calls(kgap, kten, sign):
    # one call on equal-shape arrays gives, at each index, the float of the
    # scalar call there, bit for bit; a float call gives a float
    rng = np.random.default_rng(20)
    for ctx in (kgap, kten):
        lo, hi = ctx.trajectory.x_min, ctx.trajectory.x_max
        for shape in ((), (7,), (3, 5)):
            x, y, r, s = rng.uniform(lo, hi, (4,) + shape)
            got = eval_D(ctx, x, y, r, s, sign)
            want = [eval_D(ctx, *q, sign) for q in zip(
                x.ravel().tolist(), y.ravel().tolist(),
                r.ravel().tolist(), s.ravel().tolist())]
            assert all(type(v) is float for v in want)
            if shape:
                assert got.shape == shape
            else:
                assert type(got) is float
            assert np.asarray(got).ravel().view(np.int64).tolist() == \
                np.array(want).view(np.int64).tolist()


# ---------------------------------------------------------------------------
# the kernel solve
# ---------------------------------------------------------------------------

def test_zero_perturbation_gives_zero_kernel(kgap):
    grid = solve_kernel(kgap, PerturbationProfile.zero(), "+",
                        GridParams(x0=-1.0, h=0.1), tol=1e-12)
    assert grid.iterations == 1
    assert np.all(grid.values == 0.0)


def test_support_conventions(kgap):
    grid = solve_kernel(kgap, BUMP_NARROW, "+", GridParams(x0=-1.5, h=0.05),
                        tol=1e-10)
    assert np.all(grid.values[np.triu_indices(grid.half_width + 1, k=1)] == 0.0)
    assert k_at(grid, 0.5, 0.0) == 0.0
    assert k_at(grid, 0.0, 2.0 * grid.x_max + 1.0) == 0.0


def test_off_lattice_reads_on_a_two_step_lattice(kgap):
    # M = 2 has too few nodes for a bicubic spline; the quadratic one still
    # carries K smoothly across a cell, from node (x0, x0 + 2h) to the zero
    # node (x0 + h, x0 + 3h)
    grid = solve_kernel(kgap, BUMP, "+", GridParams(x0=-0.2, h=0.05,
                                                    x_max=-0.1), tol=1e-12)
    assert grid.half_width == 2
    ks = [k_at(grid, x, x + 0.1) for x in np.linspace(-0.2, -0.15, 9)]
    assert ks[0] == grid.values[1, 1] > 0.0
    assert ks[-1] == grid.values[2, 1] == 0.0
    assert all(a > b for a, b in zip(ks, ks[1:]))
    z = SpectralPoint(-1.0 + 0.0j)
    phis = [jost_between_nodes(kgap, grid, z, x)
            for x in np.linspace(-0.2, -0.15, 9)]
    assert all(a.real > b.real for a, b in zip(phis, phis[1:]))


def test_diagonal_identity_second_order(kgap):
    errs = []
    for h in (0.1, 0.05, 0.025):
        grid = solve_kernel(kgap, BUMP, "+", GridParams(x0=-1.5, h=h),
                            tol=1e-12)
        pos = grid.positions[:grid.half_width + 1]
        worst = max(
            abs(grid.values[i, 0]
                - 0.5 * quad(BUMP, x, BUMP.support[1], limit=200)[0])
            for i, x in enumerate(pos))
        errs.append(worst)
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.7 <= o <= 2.3 for o in orders)
    constant = errs[-1] / 0.025 ** 2
    assert np.isfinite(constant)


def test_tail_truncation_budget(kgap):
    grid = solve_kernel(kgap, BUMP, "+", GridParams(x0=-1.5, h=0.05),
                        tol=1e-10)
    tail = quad(lambda t: abs(BUMP(t)), grid.x_max, BUMP.support[1])[0]
    total = quad(lambda t: abs(BUMP(t)), grid.x0, BUMP.support[1],
                 points=[0.0], limit=200)[0]
    assert tail < 1e-12 * total


@pytest.mark.parametrize("tol,max_iter", [(0.0, 50), (-1e-9, 50), (1e-9, 0),
                                          (0.0, -1)])
def test_solve_kernel_rejects_nonpositive_tol_or_max_iter(kgap, tol, max_iter):
    # a row stops below tol or at max_iter steps: tol <= 0 is never met and
    # a negative max_iter never reached, so together they loop forever
    for sign in ("+", "-"):
        with pytest.raises(ValueError, match="tol must be positive"):
            solve_kernel(kgap, BUMP, sign, GridParams(x0=-1.5, h=0.1),
                         tol=tol, max_iter=max_iter)


def test_grid_params_x_max_must_exceed_x0():
    for x_max in (-1.5, -3.0):
        with pytest.raises(ValueError, match="must exceed x0"):
            GridParams(x0=-1.5, h=0.05, x_max=x_max)
    assert GridParams(x0=-1.5, h=0.05, x_max=-1.45).x_max == -1.45


def test_no_convergence_reports_deltas(kgap):
    with pytest.raises(NoConvergence) as info:
        solve_kernel(kgap, BUMP, "+", GridParams(x0=-1.5, h=0.1),
                     tol=1e-14, max_iter=1)
    assert len(info.value.deltas) == 1


def test_moment_violation():
    # the closed form |A| w sqrt(2 pi) (1 + c^2 + w^2) overflows to inf
    band = BandStructure((0.0,))
    traj = integrate_dubrovin(band, DirichletDivisor(()), -1.0, 3.0, step=0.1)
    ctx = WeylContext(band, traj)
    pert = PerturbationProfile.gaussian_bump(1e308, 0.0, 10.0)
    assert moment_check(pert) == math.inf
    with pytest.raises(MomentViolation):
        solve_kernel(ctx, pert, "+", GridParams(x0=-1.0, h=0.1))


def test_csv_and_metadata_roundtrip(kgap, tmp_path):
    grid = solve_kernel(kgap, BUMP_NARROW, "+", GridParams(x0=-1.0, h=0.1),
                        tol=1e-10)
    csv = tmp_path / "k.csv"
    meta = tmp_path / "k.json"
    grid.to_csv(csv)
    grid.write_metadata(meta)

    lines = csv.read_text().splitlines()
    assert lines[0] == "x,y,K"
    x, y, k = (float(v) for v in lines[1].split(","))
    assert k == k_at(grid, x, y)

    import json
    md = json.loads(meta.read_text())
    assert set(md) == {"iterations", "final_delta", "h", "X_max", "C_const"}
    assert md["h"] == 0.1

    grid2 = solve_kernel(kgap, BUMP_NARROW, "+", GridParams(x0=-1.0, h=0.1),
                         tol=1e-10)
    csv2 = tmp_path / "k2.csv"
    grid2.to_csv(csv2)
    assert csv.read_bytes() == csv2.read_bytes()


@pytest.fixture(scope="module", params=[("one_gap", 0), ("periodic_like", 4),
                                        ("periodic_like", 10)],
                ids=["one_gap", "periodic_like-4", "periodic_like-10"])
def kpipeline(request, tmp_path_factory):
    kind, n = request.param
    cfg, st, ctx = _flow_context(kind, n, 0, tmp_path_factory.mktemp("flow"))
    return cfg, st["pert"], ctx


def test_row_march_matches_jacobi_reference(kpipeline):
    # same discretization, opposite solution order: the march must land on
    # the Jacobi sweeps' fixed point within the stopping tolerance
    cfg, pert, ctx = kpipeline
    tol = 1e-9
    for h in (0.05, 0.025):
        params = GridParams(cfg.x0, h, None, 1e-12)
        grid = solve_kernel(ctx, pert, "+", params, tol=tol)
        ref = jacobi_kernel(ctx, pert, params, tol)
        assert grid.values.shape == ref.shape
        assert np.max(np.abs(grid.values - ref)) <= 10.0 * tol
        assert grid.final_delta < tol
        assert grid.iterations >= 2


def test_solve_memory_is_quadratic_in_lattice(tmp_path):
    # no per-edge factor over the whole lattice: periodic_like n=10 at
    # h = 0.025 (21 edges, M = 181) holds one (M+1)^2 array plus per-row work
    cfg, st, ctx = _flow_context("periodic_like", 10, 0, tmp_path)
    pert = st["pert"]
    params = GridParams(cfg.x0, 0.025, None, 1e-12)
    solve_kernel(ctx, pert, "+", params)     # trajectory caches built
    tracemalloc.start()
    try:
        grid = solve_kernel(ctx, pert, "+", params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.half_width > 150
    assert peak < 3e6


def _kernel_csv_per_value(grid, path):
    """The per-value writer: every float through f17, row by row."""
    from levitan._numerics import f17
    pos = grid.positions
    m = grid.half_width
    sgn = -1.0 if grid.side == "-" else 1.0
    with open(path, "w") as fh:
        fh.write("x,y,K\n")
        for i in range(m + 1):
            for j in range(i, 2 * m - i + 1, 2):
                fh.write("%s,%s,%s\n" % (
                    f17(sgn * pos[i]), f17(sgn * pos[j]),
                    f17(grid.values[(i + j) // 2, (j - i) // 2])))


def test_kernel_csv_matches_per_value_writer(kgap, tmp_path):
    # h = 0.04 gives 6555 triangle rows, past two write_rows blocks of the
    # three-column table; x = 0 is a lattice position, so the - side writes
    # -0 there
    from levitan._numerics import _BLOCK_VALUES
    for h, side in itertools.product((0.1, 0.04), ("+", "-")):
        grid = solve_kernel(kgap, BUMP_NARROW, side,
                            GridParams(x0=-1.0, h=h), tol=1e-10)
        assert 0.0 in grid.positions
        if h < 0.1:
            assert len(grid.triangle[0]) > 2 * (_BLOCK_VALUES // 3) + 1
        grid.to_csv(tmp_path / "fast.csv")
        _kernel_csv_per_value(grid, tmp_path / "slow.csv")
        slow = (tmp_path / "slow.csv").read_bytes()
        assert (b"\n-0," in slow) == (side == "-")
        assert (tmp_path / "fast.csv").read_bytes() == slow


def test_csv_writers_start_no_garbage_collection(kgap, tmp_path):
    # the writers make no list or tuple per row, so writing a 6555-row
    # kernel.csv and the 3201-row trajectory.csv keeps the count of live
    # containers under even a low gen-0 threshold: no collection starts
    # (one list per row starts about 175 of them at 50)
    grid = solve_kernel(kgap, BUMP_NARROW, "+", GridParams(x0=-1.0, h=0.04),
                        tol=1e-10)
    p = trace_potential(kgap.band, kgap.trajectory)
    thresholds = gc.get_threshold()
    gc.collect()
    gc.set_threshold(50, *thresholds[1:])
    try:
        before = gc.get_stats()[0]["collections"]
        grid.to_csv(tmp_path / "kernel.csv")
        trajectory_to_csv(kgap.band, kgap.trajectory,
                          tmp_path / "trajectory.csv", p)
        after = gc.get_stats()[0]["collections"]
    finally:
        gc.set_threshold(*thresholds)
    assert len(kgap.trajectory.x_grid) > 3000
    assert after == before


# ---------------------------------------------------------------------------
# decay bounds
# ---------------------------------------------------------------------------

def test_bound_report_passes_on_solved_kernel(kgap):
    grid = solve_kernel(kgap, BUMP, "+", GridParams(x0=-1.5, h=0.05),
                        tol=1e-11)
    report = kernel_bound_check(kgap, grid, BUMP)
    assert report.violations == []
    assert report.c_of_x_monotone
    assert report.c_const > 0.0
    assert report.c1_fitted > 0.0
    # C(x) starts at 2C e^{4C tail} and decays to the flat floor 2C
    assert report.c_of_x[-1, 1] == pytest.approx(2.0 * report.c_const, rel=1e-9)


def test_bound_check_catches_inflated_kernel(kgap):
    grid = solve_kernel(kgap, BUMP, "+", GridParams(x0=-1.5, h=0.05),
                        tol=1e-11)
    grid.values = grid.values * 50.0
    report = kernel_bound_check(kgap, grid, BUMP)
    assert len(report.violations) > 0


def test_minus_bound_check_is_the_mirrored_plus_check(kgap, tmp_path):
    # a - grid is the + grid of the mirrored problem, and its audit is that
    # problem's: every field bit for bit, in the mirrored coordinates.  The
    # bump sits off x = 0, so auditing against the unmirrored one differs
    pert = PerturbationProfile.gaussian_bump(0.2, 0.4, 0.6)
    params = GridParams(x0=-1.5, h=0.1)
    minus = solve_kernel(kgap, pert, "-", params, tol=1e-11)
    plus = solve_kernel(kgap.mirrored(), pert.mirrored(), "+", params,
                        tol=1e-11)
    got = kernel_bound_check(kgap, minus, pert)
    want = kernel_bound_check(kgap.mirrored(), plus, pert.mirrored())
    assert got.violations == want.violations == []
    for f in fields(KernelBoundReport):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(a, np.ndarray):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name
    m = minus.half_width
    assert np.array_equal(got.c_of_x[:, 0], minus.positions[:m + 1])
    unmirrored = kernel_bound_check(kgap.mirrored(), plus, pert)
    assert not np.array_equal(unmirrored.c_of_x, got.c_of_x)
    # kernel.csv of a - grid: physical x and y, both descending
    minus.to_csv(tmp_path / "kernel.csv")
    rows = np.loadtxt(tmp_path / "kernel.csv", delimiter=",", skiprows=1)
    assert np.all(np.diff(rows[:, 0]) <= 0.0)
    same_x = np.diff(rows[:, 0]) == 0.0
    assert np.all(np.diff(rows[:, 1])[same_x] < 0.0)


def test_bound_l2_rows_match_row_loop(kgap):
    # the L2 left side of each reported row against the per-row trapezoid
    # of K(x, .)^2 over y, gathered point by point
    grid = solve_kernel(kgap, BUMP, "+", GridParams(x0=-1.5, h=0.05),
                        tol=1e-11)
    grid.values = grid.values * 50.0
    rows = [v for v in kernel_bound_check(kgap, grid, BUMP).violations
            if v[0] == "L2"]
    assert rows
    m = grid.half_width
    for _, x, lhs, _ in rows:
        i = int(round((x - grid.x0) / grid.h))
        row = np.array([grid.values[(i + j) // 2, (j - i) // 2]
                        for j in range(i, 2 * m - i + 1, 2)])
        assert lhs == pytest.approx(np.trapezoid(row ** 2, dx=2.0 * grid.h),
                                    rel=1e-12)


def _violation_table(violations):
    # pointwise rows keyed by (x, y), L2 rows by x
    return {v[:-2]: v[-2:] for v in violations}


def test_bound_check_matches_lattice_reference(kpipeline):
    # the node-vector check against the lattice form, on solved and on
    # 50x-inflated kernels: the same violations (compared as sets: the
    # lattice form orders them by u, the check by x and then y), the same
    # C(x) and Q samples bit for bit
    cfg, pert, ctx = kpipeline
    for h in (0.05, 0.025):
        grid = solve_kernel(ctx, pert, "+", GridParams(cfg.x0, h, None, 1e-12))
        for scale in (1.0, 50.0):
            grid.values = grid.values * scale
            report = kernel_bound_check(ctx, grid, pert)
            ref = lattice_bound_check(grid, pert)
            assert np.array_equal(report.c_of_x, ref.c_of_x)
            assert np.array_equal(report.q_plus, ref.q_plus)
            assert report.c_of_x_monotone == ref.c_of_x_monotone
            assert report.c1_fitted == pytest.approx(ref.c1_fitted, rel=1e-13)
            assert len(report.violations) == len(ref.violations)
            got = _violation_table(report.violations)
            want = _violation_table(ref.violations)
            assert got.keys() == want.keys()
            for key, vals in want.items():
                assert got[key] == pytest.approx(vals, rel=1e-13)
            points = [v[1:3] for v in report.violations if v[0] == "pointwise"]
            assert points == sorted(points)
            assert (len(ref.violations) > 0) == (scale > 1.0)


def test_bound_check_memory_stays_below_lattice(tmp_path):
    # one_gap at h = 0.0125 (M = 458), where the lattice form of the check
    # peaks at 25.8 MB in its (M+1)^2 temporaries
    cfg, st, ctx = _flow_context("one_gap", 0, 0, tmp_path)
    pert = st["pert"]
    grid = solve_kernel(ctx, pert, "+", GridParams(cfg.x0, 0.0125, None, 1e-12))
    kernel_bound_check(ctx, grid, pert)         # first-call costs
    grid = replace(grid)                        # a fresh triangle map
    tracemalloc.start()
    try:
        report = kernel_bound_check(ctx, grid, pert)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.half_width > 450
    assert report.violations == []
    assert peak < 13e6


# ---------------------------------------------------------------------------
# Jost solutions, two routes
# ---------------------------------------------------------------------------

def test_jost_routes_agree_free(kfree):
    grid = solve_kernel(kfree, BUMP_NARROW, "+", GridParams(x0=-2.0, h=0.05),
                        tol=1e-10)
    for z in (SpectralPoint.upper(4.0), SpectralPoint(-1.0 + 0.0j)):
        for x in (-1.0, 0.0, 1.0):
            a = jost_from_kernel(kfree, grid, z, x, "+")
            b = jost_direct(kfree, BUMP_NARROW, z, x, "+")
            assert abs(a - b) <= 5e-3 * max(1.0, abs(b))


def test_jost_routes_agree_one_gap(kgap):
    grid = solve_kernel(kgap, BUMP_NARROW, "+", GridParams(x0=-1.5, h=0.05),
                        tol=1e-10)
    for z in (SpectralPoint(-1.0 + 0.0j), SpectralPoint(-0.5 + 0.8j),
              SpectralPoint(2.5 + 0.4j)):
        for x in (-1.0, 0.0, 0.7):
            a = jost_from_kernel(kgap, grid, z, x, "+")
            b = jost_direct(kgap, BUMP_NARROW, z, x, "+")
            assert abs(a - b) <= 5e-3 * max(1.0, abs(b))


def test_jost_minus_side(kgap):
    grid = solve_kernel(kgap, BUMP_NARROW, "-", GridParams(x0=-1.5, h=0.05),
                        tol=1e-10)
    assert grid.side == "-"
    assert k_at(grid, 0.0, 0.5) == 0.0
    assert k_at(grid, 0.5, 0.0) != 0.0
    z = SpectralPoint(-1.0 + 0.0j)
    for x in (1.0, 0.0, -0.7):
        a = jost_from_kernel(kgap, grid, z, x, "-")
        b = jost_direct(kgap, BUMP_NARROW, z, x, "-")
        assert abs(a - b) <= 5e-3 * max(1.0, abs(b))
    with pytest.raises(ValueError):
        jost_from_kernel(kgap, grid, z, 0.0, "+")


def test_jost_profile_matches_row_reference(kgap):
    z = SpectralPoint(-0.5 + 0.8j)
    for side in ("+", "-"):
        grid = solve_kernel(kgap, BUMP_NARROW, side,
                            GridParams(x0=-1.5, h=0.05), tol=1e-10)
        xs, vals = jost_profile(kgap, grid, z)
        if side == "+":
            ref_xs, ref = jost_profile_rows(kgap, grid, z)
        else:
            ref_xs, ref = jost_profile_rows(kgap.mirrored(), grid, z)
            ref_xs, ref = -ref_xs[::-1], ref[::-1]
        assert np.array_equal(xs, ref_xs)
        assert np.all(np.abs(vals - ref) <= 1e-14 * np.abs(ref))


def test_jost_profile_batch_is_each_points_call(kgap):
    # one psi_on_grid pass for a sequence of points, on a + grid and on a -
    # grid (the mirrored context): every row is its point's own profile,
    # bit for bit
    points = [SpectralPoint(-1.0 + 0.0j), SpectralPoint.upper(0.5),
              SpectralPoint(0.3 + 0.7j)]
    for side in ("+", "-"):
        grid = solve_kernel(kgap, BUMP_NARROW, side,
                            GridParams(x0=-1.5, h=0.05), tol=1e-10)
        xs, vals = jost_profile(kgap, grid, points)
        assert vals.shape == (len(points), grid.half_width + 1)
        for row, z in zip(vals, points):
            one_xs, one = jost_profile(kgap, grid, z)
            assert xs.tobytes() == one_xs.tobytes()
            assert row.tobytes() == one.tobytes()


@pytest.fixture(scope="module")
def k10():
    # the periodic_like n = 10 fixture's band and divisor, on a window that
    # holds both sides' lattices for x0 = -1, x_max = 1.5
    band = BandStructure(periodic_edges(10))
    div = DirichletDivisor(tuple((float(band.gap_mid[j]), 1 - 2 * (j % 2))
                                 for j in range(10)))
    traj = integrate_dubrovin(band, div, -4.5, 4.5, 0.01, tol=1e-11)
    return WeylContext(band, traj)


@pytest.mark.parametrize("name", ["kgap", "k10"])
def test_jost_profile_is_jost_from_kernel_on_the_lattice(name, request):
    # the pipeline's oracle_equivalence row reads phi via the kernel off the
    # profile; lattice index i sits at +-positions[i], entry m - i of a -
    # side profile (ordered by x)
    ctx = request.getfixturevalue(name)
    for side, sgn in (("+", 1.0), ("-", -1.0)):
        grid = solve_kernel(ctx, BUMP_NARROW, side,
                            GridParams(x0=-1.0, h=0.05, x_max=1.5), tol=1e-10)
        m = grid.half_width
        for z in (SpectralPoint(-1.0 + 0.0j), SpectralPoint(0.3 + 0.7j)):
            xs, vals = jost_profile(ctx, grid, z)
            for i in (0, m // 2, m - 1):
                k = i if side == "+" else m - i
                x = sgn * float(grid.positions[i])
                assert xs[k] == x
                want = jost_from_kernel(ctx, grid, z, x, side)
                assert abs(vals[k] - want) <= 1e-12 * abs(want)


def test_jost_from_kernel_refuses_points_left_of_lattice(kgap):
    z = SpectralPoint(-1.0 + 0.0j)
    grid = solve_kernel(kgap, BUMP_NARROW, "+", GridParams(x0=-1.5, h=0.05),
                        tol=1e-10)
    assert np.isfinite(jost_from_kernel(kgap, grid, z, -1.5, "+"))
    for x in (-1.53, -1.55, -1.99):
        with pytest.raises(ValueError, match="left of the kernel lattice"):
            jost_from_kernel(kgap, grid, z, x, "+")
    grid = solve_kernel(kgap, BUMP_NARROW, "-", GridParams(x0=-1.5, h=0.05),
                        tol=1e-10)
    assert np.isfinite(jost_from_kernel(kgap, grid, z, 1.5, "-"))
    for x in (1.53, 1.55, 1.99):
        with pytest.raises(ValueError, match="right of the kernel lattice"):
            jost_from_kernel(kgap, grid, z, x, "-")


def test_jost_from_kernel_refuses_points_between_nodes(kgap):
    # K is read only where it was solved: an x between two nodes short of
    # the truncation radius is refused with the lattice named; past the
    # radius, K = 0 and any x gives psi
    z = SpectralPoint(-1.0 + 0.0j)
    for side, sgn in (("+", 1.0), ("-", -1.0)):
        grid = solve_kernel(kgap, BUMP_NARROW, side,
                            GridParams(x0=-1.5, h=0.05), tol=1e-10)
        lattice = "%g %s i * 0.05" % (-1.5 * sgn, side)
        for x in (-0.325, -1.47, grid.x_max - 0.025):
            with pytest.raises(ValueError, match=re.escape(lattice)):
                jost_from_kernel(kgap, grid, z, sgn * x, side)
        x = sgn * (grid.x_max + 0.013)
        psi = psi_on_grid(kgap, z, np.array([x]), sgn)[0]
        assert jost_from_kernel(kgap, grid, z, x, side) == \
            pytest.approx(psi, rel=1e-10)


def test_jost_equals_psi_beyond_support(kgap):
    grid = solve_kernel(kgap, BUMP_NARROW, "+", GridParams(x0=-1.5, h=0.05),
                        tol=1e-10)
    z = SpectralPoint(-1.0 + 0.0j)
    x = grid.x_max + 0.5
    phi = jost_from_kernel(kgap, grid, z, x, "+")
    psi = eval_psi_product(kgap, z, x, +1)
    assert phi == pytest.approx(psi, rel=1e-10)


def test_jost_direct_trivial_single_iteration(kgap):
    z = SpectralPoint(-1.0 + 0.0j)
    val, deltas = jost_direct(kgap, PerturbationProfile.zero(), z, 0.3, "+",
                              diagnostics=True)
    assert len(deltas) == 1
    assert deltas[0] == 0.0
    assert val == pytest.approx(eval_psi_product(kgap, z, 0.3, +1), rel=1e-9)


def _jost_march(ctx, perturbation, p, x, sign):
    """jost_direct as a psi_on_grid pass per sign, then the march on x's own
    trapezoid grid; returns (phi at x, deltas) and the discrete problem
    (ys, psi_p, psi_m, q, g, phi) on the ascending grid."""
    h, sgn, pt = kernel._JOST_STEP, 1 if sign == "+" else -1, as_point(p)
    g = eval_green(ctx, pt)
    if sgn > 0:
        yhi = max(x + h, perturbation.support[1])
        n = int(math.ceil((yhi - x) / h - 1e-12))
        ys = x + h * np.arange(n + 1)
    else:
        ylo = min(x - h, perturbation.support[0])
        n = int(math.ceil((x - ylo) / h - 1e-12))
        ys = x - h * np.arange(n + 1)[::-1]
    psi_p = psi_on_grid(ctx, pt, ys, +1)
    psi_m = psi_on_grid(ctx, pt, ys, -1)
    qv = np.asarray(perturbation(ys), dtype=float)
    # march order: in from the far end, which takes the trapezoid's half
    # weight; a node's own term drops out since J(y, y) = 0
    order = slice(None, None, -sgn)
    own = (psi_p if sgn > 0 else psi_m)[order]
    hq = h * qv[order]
    hq[0] *= 0.5
    gs = sgn * g
    phi, t1, t2 = [], 0j, 0j
    for o, a, b, wa, wb in zip(own.tolist(), psi_p[order].tolist(),
                               psi_m[order].tolist(),
                               (psi_p[order] * hq).tolist(),
                               (psi_m[order] * hq).tolist()):
        f = o - gs * (b * t1 - a * t2)
        t1 += wa * f
        t2 += wb * f
        phi.append(f)
    phi = np.array(phi)
    result = (complex(phi[-1]), (float(np.max(np.abs(phi - own))),))
    return result, (ys, psi_p, psi_m, qv, g, phi[order])


def _picard_sweep(ys, psi_p, psi_m, qv, g, phi, sign):
    """One successive-approximation sweep of the full trapezoid system, each
    node's own term included, on the ascending grid."""
    h = kernel._JOST_STEP
    if sign == "+":
        i1 = rev_cumtrapz(psi_p * qv * phi, h)
        i2 = rev_cumtrapz(psi_m * qv * phi, h)
        return psi_p - g * (psi_m * i1 - psi_p * i2)
    i1 = cumulative_trapezoid(psi_p * qv * phi, dx=h, initial=0.0)
    i2 = cumulative_trapezoid(psi_m * qv * phi, dx=h, initial=0.0)
    return psi_m + g * (psi_m * i1 - psi_p * i2)


def test_jost_direct_is_the_two_pass_method(kgap, tmp_path, monkeypatch):
    # one product-route pass for psi_+ and psi_- gives the same floats as a
    # pass per sign, on the grid the successive approximation used
    ctx10 = _flow_context("periodic_like", 10, 0, tmp_path)[2]
    passes = []
    flow = weyl._flow_exponent
    monkeypatch.setattr(weyl, "_flow_exponent",
                        lambda *a: passes.append(1) or flow(*a))
    for ctx in (kgap, ctx10):
        for z in (SpectralPoint(-1.0 + 0.0j), SpectralPoint(-0.5 + 0.8j)):
            for sign in ("+", "-"):
                for x in (-0.7, 0.6):
                    passes.clear()
                    got = jost_direct(ctx, BUMP_NARROW, z, x, sign,
                                      diagnostics=True)
                    assert len(passes) == 1
                    assert got == _jost_march(ctx, BUMP_NARROW, z, x, sign)[0]


def test_jost_direct_march_is_the_trapezoid_fixed_point(kgap, tmp_path):
    # the march solves the trapezoid system exactly: a sweep of the
    # successive approximation, which keeps each node's own (vanishing)
    # term, leaves its phi where it is up to rounding
    ctx10 = _flow_context("periodic_like", 10, 0, tmp_path)[2]
    for ctx in (kgap, ctx10):
        for z in (SpectralPoint(-1.0 + 0.0j), SpectralPoint(-0.5 + 0.8j)):
            for sign in ("+", "-"):
                for x in (-0.7, 0.6):
                    (_, (delta,)), problem = _jost_march(
                        ctx, BUMP_NARROW, z, x, sign)
                    phi = problem[-1]
                    moved = np.abs(_picard_sweep(*problem, sign) - phi)
                    assert delta > 1e-3 * np.max(np.abs(phi))
                    assert np.max(moved) <= 1e-13 * np.max(np.abs(phi))


@pytest.mark.parametrize("kind, n", [("free", 0), ("one_gap", 0),
                                     ("periodic_like", 4), ("random", 6),
                                     ("periodic_like", 10)])
def test_jost_direct_array_call_is_its_scalar_calls(kind, n, tmp_path,
                                                    monkeypatch):
    # the pipeline's oracle call: both lattice points from one product-route
    # pass, each the float its own call gives
    cfg, st = generate_fixture(kind, n=n), {}
    for stage in ("validate", "flow", "potential", "weyl", "kernel"):
        cli._STAGE_FNS[stage](cfg, st, {}, tmp_path)
    ctx, pert, grid = st["ctx"], st["pert"], st["grid"]
    xs = grid.positions[[0, grid.half_width // 2]]
    passes = []
    flow = weyl._flow_exponent
    monkeypatch.setattr(weyl, "_flow_exponent",
                        lambda *a: passes.append(1) or flow(*a))
    for pt in st["zpts"][:2]:
        for sign in ("+", "-"):
            passes.clear()
            vals, deltas = jost_direct(ctx, pert, pt, xs, sign,
                                       diagnostics=True)
            assert len(passes) == 1
            assert vals.shape == (2,) and len(deltas) == 2
            for x, v, d in zip(xs.tolist(), vals.tolist(), deltas):
                assert (v, (d,)) == jost_direct(ctx, pert, pt, x, sign,
                                                diagnostics=True)


def test_jost_direct_is_second_order_against_exact_jost(monkeypatch):
    # q = -2 kappa^2 sech^2(kappa (x - c)) on the free background, psi_+- =
    # exp(+-ikx), has the Jost solutions phi_+- = exp(+-ikx)
    # (k +- i kappa tanh(kappa (x - c))) / (k + i kappa)
    band = BandStructure((0.0,))
    ctx = WeylContext(band, integrate_dubrovin(band, DirichletDivisor(()),
                                               -9.0, 10.0, step=0.05,
                                               tol=1e-10))
    kappa, c = 2.0, 0.3
    ts = np.linspace(c - 8.0, c + 8.0, 16001)
    qv = -2.0 * kappa ** 2 / np.cosh(kappa * (ts - c)) ** 2
    qv[[0, -1]] = 0.0
    pert = PerturbationProfile.from_table(ts, qv)
    xs = np.array([-1.0, 0.3, 1.5])
    for z in (SpectralPoint.upper(4.0), SpectralPoint(-1.0 + 0.0j),
              SpectralPoint(1.0 + 1.0j)):
        k = complex(np.sqrt(z.z))
        assert abs(psi_on_grid(ctx, z, np.array([1.0]), +1)[0]
                   - np.exp(1j * k)) < 1e-12
        for sign, s in (("+", 1.0), ("-", -1.0)):
            exact = (np.exp(s * 1j * k * xs)
                     * (k + s * 1j * kappa * np.tanh(kappa * (xs - c)))
                     / (k + 1j * kappa))
            errs = []
            for step in (0.02, 0.01):
                monkeypatch.setattr(kernel, "_JOST_STEP", step)
                vals = jost_direct(ctx, pert, z, xs, sign)
                errs.append(np.abs(vals - exact) / np.abs(exact))
            assert np.all(errs[0] < 5e-4)
            assert np.all(np.abs(errs[0] / errs[1] - 4.0) < 0.05)


# ---------------------------------------------------------------------------
# Schr residual
# ---------------------------------------------------------------------------

def test_residual_trivial_fixture_second_order(kgap):
    z = SpectralPoint(-1.0 + 0.0j)
    qz = PerturbationProfile.zero()
    ev = lambda x: eval_psi_product(kgap, z, x, +1)
    r1 = schrodinger_residual(kgap, qz, ev, z, (0.2, 0.4), 0.02)
    r2 = schrodinger_residual(kgap, qz, ev, z, (0.2, 0.4), 0.01)
    assert 3.5 <= r1 / r2 <= 4.5


def test_residual_end_to_end(kgap):
    grid = solve_kernel(kgap, BUMP, "+", GridParams(x0=-1.5, h=0.05),
                        tol=1e-11)
    z = SpectralPoint(-1.0 + 0.0j)
    ev = lambda x: jost_between_nodes(kgap, grid, z, x)
    res = schrodinger_residual(kgap, BUMP, ev, z, (0.28, 0.32), 1e-3)
    assert res <= 1e-3
