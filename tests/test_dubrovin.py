"""Divisor flow: integration, confinement, trace formula."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline
from scipy.special import ellipj, ellipk, ellipkinc

from levitan import BandStructure, WeylContext, eval_sqrtY, generate_fixture
from levitan import cli, dubrovin
from levitan.dubrovin import (
    DirichletDivisor,
    DivisorTrajectory,
    integrate_dubrovin,
    potential_of_angles,
    trace_potential,
    trajectory_to_csv,
)
from levitan.cli import run_pipeline
from levitan.errors import (
    DegenerateGap,
    NoConvergence,
    QuadratureFailure,
    StepTooLarge,
)

from conftest import (
    dop853_flow,
    midpoint_divisor,
    omega_full_product,
    periodic_edges,
)


ONE_GAP_DMU0 = 1.2247448713915892  # sqrt(1.5): hand-evaluated flow at mu=1.5


@pytest.fixture(scope="module")
def one_gap_traj(one_gap_band):
    div = DirichletDivisor(((1.5, 1),))
    return integrate_dubrovin(one_gap_band, div, -10.0, 10.0, step=0.01,
                              tol=1e-12)


def raw_flow_rhs(band, mu, sigma):
    """Independent oracle: the raw (singular) flow evaluated directly from
    Y^{1/2} and the z-derivative of the divisor product."""
    n = len(mu)
    out = np.empty(n)
    for j in range(n):
        dg = 1.0
        for k in range(n):
            if k != j:
                dg *= mu[j] - mu[k]
        dg /= math.prod(band.edges[1::2])
        y = eval_sqrtY(band, complex(mu[j]))
        assert y.imag == 0.0
        out[j] = -2.0 * sigma[j] * y.real / dg
    return out


# ---------------------------------------------------------------------------
# against the raw flow
# ---------------------------------------------------------------------------

def test_first_derivative_matches_raw_flow(one_gap_band, one_gap_traj):
    oracle = raw_flow_rhs(one_gap_band, np.array([1.5]), np.array([1]))[0]
    assert oracle == pytest.approx(ONE_GAP_DMU0, rel=1e-14)
    i0 = np.searchsorted(one_gap_traj.x_grid, 0.0)
    th, dth = one_gap_traj.theta[i0], one_gap_traj.dtheta[i0]
    dmu = float(one_gap_band.gap_half[0] * math.sin(th[0]) * dth[0])
    assert dmu == pytest.approx(oracle, rel=1e-12)


def test_tiny_step_rk4_reference(one_gap_band, one_gap_traj):
    # classical RK4 on the raw mu-form, fixed step, valid while mu stays
    # interior (sigma frozen at +1 on this span)
    h = 1e-5
    mu = np.array([1.5])
    sig = np.array([1])
    for _ in range(20000):  # to x = 0.2
        k1 = raw_flow_rhs(one_gap_band, mu, sig)
        k2 = raw_flow_rhs(one_gap_band, mu + 0.5 * h * k1, sig)
        k3 = raw_flow_rhs(one_gap_band, mu + 0.5 * h * k2, sig)
        k4 = raw_flow_rhs(one_gap_band, mu + h * k3, sig)
        mu = mu + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    got = one_gap_traj.mu_at(0.2)[0]
    assert got == pytest.approx(mu[0], abs=1e-9)


@pytest.mark.parametrize("n", [0, 1, 2, 4, 10, 60])
def test_omega_is_the_full_product_bit_for_bit(n):
    # the other-gap slabs give the floats of the full product with its
    # own-gap factor set to 1, for one node, a panel, a stack of panels
    # and an output grid; touch angles included
    band = BandStructure(periodic_edges(n))
    rng = np.random.default_rng(n)
    levels = np.array([0.0, 1.0, 2.0, 3.0]) * math.pi
    for shape in [(n,), (49, n), (2, 49, n), (1366, n)]:
        theta = rng.uniform(-4.0 * math.pi, 4.0 * math.pi, size=shape)
        touch = rng.uniform(size=shape) < 0.25
        theta[touch] = rng.choice(levels, size=int(touch.sum()))
        if n:  # and rows with every mu_j on an edge
            rows = theta.reshape(-1, n)
            k = min(4, len(rows))
            rows[:k] = levels[:k, None]
        got = dubrovin._omega(band, theta)
        want = omega_full_product(band, theta)
        assert got.shape == want.shape == shape
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# edges and confinement
# ---------------------------------------------------------------------------

def test_edge_start_is_regular(one_gap_band):
    for mu0, sigma_right, direction in ((1.0, 1, +1.0), (2.0, -1, -1.0)):
        div = DirichletDivisor(((mu0, 1),))
        tr = integrate_dubrovin(one_gap_band, div, -0.5, 1.0, step=0.01,
                                tol=1e-12)
        assert tr.mu_at(0.0)[0] == pytest.approx(mu0, abs=1e-14)
        assert tr.sigma_at(0.0)[0] == sigma_right
        # the flow leaves the edge into the interior immediately
        assert direction * (tr.mu_at(0.05)[0] - mu0) > 0.0
        assert np.all(tr.mu_grid >= 1.0) and np.all(tr.mu_grid <= 2.0)


def test_confinement_random_n3(rng):
    band = BandStructure((0.3, 1.1, 1.4, 2.9, 3.1, 5.0, 5.6))
    div = DirichletDivisor.random_in_gaps(band, rng)
    tr = integrate_dubrovin(band, div, -10.0, 10.0, step=0.05, tol=1e-10)
    lo = band.edge_array[1::2]
    hi = band.edge_array[2::2]
    assert np.all(tr.mu_grid >= lo) and np.all(tr.mu_grid <= hi)
    # and on a dense off-grid sweep through the interpolant
    xs = np.linspace(-10.0, 10.0, 2011)
    mus = tr.mu_at(xs)
    assert np.all(mus >= lo) and np.all(mus <= hi)


def test_reversibility(one_gap_band, one_gap_traj):
    tol = 1e-12
    div_end = one_gap_traj.divisor_at(2.0)
    back = integrate_dubrovin(one_gap_band, div_end, -2.0, 0.0, step=0.01,
                              tol=tol)
    mu0 = back.mu_at(-2.0)[0]
    assert abs(mu0 - 1.5) <= 10.0 * max(tol, 1e-13)


def test_interpolation_order(one_gap_band):
    div = DirichletDivisor(((1.5, 1),))
    ref = integrate_dubrovin(one_gap_band, div, 0.0, 2.0, step=0.0125,
                             tol=1e-13)
    xs = np.linspace(0.013, 1.987, 301)  # off-grid points
    errs = []
    for step in (0.2, 0.1):
        tr = integrate_dubrovin(one_gap_band, div, 0.0, 2.0, step=step,
                                tol=1e-13)
        errs.append(np.abs(tr.mu_at(xs) - ref.mu_at(xs)).max())
    ratio = errs[0] / errs[1]
    assert 6.0 < ratio < 40.0  # cubic Hermite: nominally 16x per halving


def test_step_too_large(one_gap_band):
    div = DirichletDivisor(((1.5, 1),))
    with pytest.raises(StepTooLarge):
        integrate_dubrovin(one_gap_band, div, -1.0, 1.0, step=1.0, tol=1e-10)


def test_degenerate_gap():
    band = BandStructure((0.0, 1.0, 1.0 + 2.5e-13))
    div = DirichletDivisor(((1.0 + 1e-13, 1),))
    with pytest.raises(DegenerateGap):
        integrate_dubrovin(band, div, -1.0, 1.0, step=0.01, tol=1e-10)


def test_divisor_validation(one_gap_band):
    with pytest.raises(ValueError):
        DirichletDivisor(((1.5, 2),))
    with pytest.raises(ValueError):
        DirichletDivisor(((0.5, 1),)).validate_against(one_gap_band)
    with pytest.raises(ValueError):
        DirichletDivisor(()).validate_against(one_gap_band)


def _bits(a) -> list:
    return np.asarray(a, dtype=float).view(np.int64).tolist()


@pytest.mark.parametrize("kind, kwargs", [
    ("one_gap", {}),
    ("periodic_like", {"n": 10}),
    ("random", {"n": 6, "seed": 0}),
])
def test_flow_end_angles_are_the_window_end_rows(kind, kwargs, tmp_path):
    # the pipeline's own flow, and a flow back from the window's right end
    # started cold, as the integrator starts it: the end angles are the
    # rows the integrator writes at the window ends, bit for bit
    cfg = replace(generate_fixture(kind, **kwargs), out_dir=str(tmp_path))
    st = {}
    for stage in ("validate", "flow"):
        cli._STAGE_FNS[stage](cfg, st, {}, tmp_path)
    band, traj = st["band"], st["traj"]
    div = traj.divisor_at(0.0)
    step, tol = cfg.flow_step, cfg.flow_tol
    assert _bits(dubrovin.flow_end_angles(band, div, 0.0, tol)) == _bits(
        traj.theta[np.searchsorted(traj.x_grid, 0.0)])
    hi = float(traj.x_grid[-1])
    end = traj.divisor_at(hi)
    back = integrate_dubrovin(band, end, -hi, 0.0, step, tol=tol)
    got = dubrovin.flow_end_angles(band, end, -hi, tol=tol)
    assert _bits(got) == _bits(back.theta[0]) == _bits(back.theta_at(-hi))
    for x_end in (traj.x_min, traj.x_max):
        fwd = integrate_dubrovin(band, div, min(x_end, 0.0), max(x_end, 0.0),
                                 step, tol=tol)
        row = fwd.theta[0 if x_end < 0.0 else -1]
        assert _bits(dubrovin.flow_end_angles(band, div, x_end, tol)) == \
            _bits(row)


def test_flow_end_angles_raise_what_the_integrator_raises(one_gap_band):
    thin = BandStructure((0.0, 1.0, 1.0 + 2.5e-13))
    cases = [(thin, DirichletDivisor(((1.0 + 1e-13, 1),)), DegenerateGap),
             (one_gap_band, DirichletDivisor(()), ValueError),
             (one_gap_band, DirichletDivisor(((0.5, 1),)), ValueError)]
    for band, div, exc in cases:
        with pytest.raises(exc) as flow:
            integrate_dubrovin(band, div, -1.0, 0.0, step=0.01, tol=1e-10)
        with pytest.raises(exc) as end:
            dubrovin.flow_end_angles(band, div, -1.0, tol=1e-10)
        assert str(end.value) == str(flow.value)


def _pipeline_state(cfg, tmp_path, last):
    """Stage state of a pipeline run through stage ``last``."""
    st = {}
    for stage in cli.STAGES[:cli.STAGES.index(last) + 1]:
        cli._STAGE_FNS[stage](cfg, st, {}, tmp_path)
    return st


def _counting_omega(monkeypatch):
    calls = []
    omega = dubrovin._omega

    def counting(band, theta):
        calls.append(1)
        return omega(band, theta)

    monkeypatch.setattr(dubrovin, "_omega", counting)
    return calls


@pytest.mark.parametrize("kind, kwargs", [
    ("one_gap", {}),
    ("periodic_like", {"n": 10}),
    ("random", {"n": 6, "seed": 0}),
])
def test_warm_back_flow_ends_where_the_cold_one_does(kind, kwargs, tmp_path,
                                                     monkeypatch):
    # the verify stage's back flow starts each panel from the forward
    # trajectory; the sweeps stop at the same target, so the end angles
    # are the cold flow's to within a few panel targets, from a good guess
    # or a bad one (0.3 rad off at every node but the start)
    cfg = replace(generate_fixture(kind, **kwargs), out_dir=str(tmp_path))
    st = _pipeline_state(cfg, tmp_path, "flow")
    band, traj, tol = st["band"], st["traj"], cfg.flow_tol
    target = max(tol / 100.0, 100.0 * np.finfo(float).eps)
    hi = float(traj.x_grid[-1])
    end = traj.divisor_at(hi)

    def forward(s):
        return traj.theta_at(hi + s)

    def bad(s):
        return forward(s) + np.where(np.asarray(s)[..., None] == 0.0, 0.0, 0.3)

    calls = _counting_omega(monkeypatch)
    counts, ends = [], []
    for guess in (None, forward, bad):
        calls.clear()
        ends.append(dubrovin.flow_end_angles(band, end, -hi, tol, guess=guess))
        counts.append(len(calls))
    cold, warm, poor = ends
    assert np.abs(warm - cold).max() <= 10.0 * target
    assert np.abs(poor - cold).max() <= 10.0 * target
    assert counts[1] < counts[0] and counts[1] < counts[2]


def test_verify_back_flow_is_warm_and_still_checks(tmp_path, monkeypatch):
    # the warm start halves the verify stage's Omega calls on the ten-gap
    # fixture (66 when each panel started from its predecessor).  The back
    # flow's guess comes from the trajectory under test, but its end angles
    # do not: moving the forward trajectory's last node by 1e-6 rad still
    # fails the reversibility row
    cfg = replace(generate_fixture("periodic_like", n=10),
                  out_dir=str(tmp_path))
    st = _pipeline_state(cfg, tmp_path, "jost")
    calls = _counting_omega(monkeypatch)
    checks = {}
    cli._STAGE_FNS["verify"](cfg, st, checks, tmp_path)
    assert checks["reversibility"]["pass"]
    assert len(calls) <= 35

    traj = st["traj"]
    theta = traj.theta.copy()
    theta[-1] += 1e-6
    st["traj"] = DivisorTrajectory(traj.band, traj.x_grid, theta, traj.dtheta)
    cli._STAGE_FNS["verify"](cfg, st, checks, tmp_path)
    assert not checks["reversibility"]["pass"]


def test_out_of_range_message_names_the_worst_point(one_gap_traj):
    xs = np.linspace(-12.0, 9.0, 320)
    with pytest.raises(ValueError) as err:
        one_gap_traj.theta_at(xs)
    n_out = int(np.count_nonzero(xs < -10.0))
    assert str(err.value) == ("x = -12 outside trajectory range [-10, 10] "
                              "(%d of 320 points out)" % n_out)
    with pytest.raises(ValueError, match=r"^x = 10\.5 outside .* \(1 of 1 "):
        one_gap_traj.mu_at(10.5)


@pytest.mark.parametrize("x", [-10.5, 11.0, np.float64(-10.5),
                               np.array(11.0)])
def test_scalar_out_of_range_message(one_gap_traj, x):
    # a float takes the two-comparison check; its message is the array's
    with pytest.raises(ValueError) as err:
        one_gap_traj.theta_at(x)
    assert str(err.value) == ("x = %g outside trajectory range [-10, 10] "
                              "(1 of 1 points out)" % float(x))
    with pytest.raises(ValueError) as err:
        one_gap_traj.dtheta_at(x)
    assert str(err.value) == ("x = %g outside trajectory range [-10, 10] "
                              "(1 of 1 points out)" % float(x))
    for inside in (-10.0, 10.0 + 5e-13, np.float64(0.25)):
        assert one_gap_traj.theta_at(inside).shape == (1,)


@pytest.mark.parametrize("x_min, x_max, step, tol, words", [
    (-1.0, 1.0, 0.0, 1e-10, "step and tol must be positive"),
    (-1.0, 1.0, -0.01, 1e-10, "step and tol must be positive"),
    (-1.0, 1.0, 0.01, 0.0, "step and tol must be positive"),
    (0.5, 1.0, 0.01, 1e-10, "window [0.5, 1] must contain x = 0"),
    (-1.0, -0.5, 0.01, 1e-10, "window [-1, -0.5] must contain x = 0"),
], ids=["zero_step", "negative_step", "zero_tol", "window_right_of_0",
        "window_left_of_0"])
def test_integrate_rejects_bad_step_tol_and_window(one_gap_band, x_min,
                                                   x_max, step, tol, words):
    with pytest.raises(ValueError, match=re.escape(words)):
        integrate_dubrovin(one_gap_band, DirichletDivisor(((1.5, 1),)),
                           x_min, x_max, step, tol=tol)


# ---------------------------------------------------------------------------
# trace formula
# ---------------------------------------------------------------------------

def test_trace_midpoint_divisor(n2_band):
    div = midpoint_divisor(n2_band)
    tr = integrate_dubrovin(n2_band, div, 0.0, 0.0, step=0.01, tol=1e-10)
    p = trace_potential(n2_band, tr)
    assert p[0] == pytest.approx(n2_band.edges[0], abs=1e-12)


def test_trace_lower_edge_divisor(n2_band):
    div = DirichletDivisor(tuple((lo, 1) for lo, _ in n2_band.gaps))
    tr = integrate_dubrovin(n2_band, div, 0.0, 0.0, step=0.01, tol=1e-10)
    p = trace_potential(n2_band, tr)
    gap_width_sum = sum(hi - lo for lo, hi in n2_band.gaps)
    assert p[0] == pytest.approx(n2_band.edges[0] + gap_width_sum, rel=1e-14)
    p_upper = potential_of_angles(n2_band, [0.0, 0.0])
    assert p[0] == pytest.approx(p_upper, rel=1e-14)


def test_trace_one_gap_hand_value(one_gap_band, one_gap_traj):
    p = trace_potential(one_gap_band, one_gap_traj)
    i0 = np.searchsorted(one_gap_traj.x_grid, 0.0)
    assert p[i0] == pytest.approx(3.0 - 2.0 * 1.5, abs=1e-13)
    p_lower, p_upper = potential_of_angles(one_gap_band, [[math.pi], [0.0]])
    assert np.all(p >= p_lower - 1e-12)
    assert np.all(p <= p_upper + 1e-12)
    # spline evaluation agrees with the grid samples
    ctx = WeylContext(one_gap_band, one_gap_traj)
    assert ctx.p_of(one_gap_traj.x_grid[::37]) == pytest.approx(
        p[::37], abs=1e-12)


def test_free_background_trace(free_band):
    tr = integrate_dubrovin(free_band, DirichletDivisor(()), -1.0, 1.0,
                            step=0.1, tol=1e-10)
    assert tr.mu_grid.shape == (21, 0)
    p = trace_potential(free_band, tr)
    assert np.all(p == 0.0)


# ---------------------------------------------------------------------------
# sigma bookkeeping
# ---------------------------------------------------------------------------

def test_sigma_flips_only_at_touches(one_gap_traj):
    sig = one_gap_traj.sigma_grid[:, 0]
    mu = one_gap_traj.mu_grid[:, 0]
    flips = np.nonzero(np.diff(sig))[0]
    assert len(flips) > 4  # several oscillations in the window
    for i in flips:
        # at a flip the divisor is within a step^2 neighborhood of an edge
        assert min(abs(mu[i] - 1.0), abs(mu[i] - 2.0),
                   abs(mu[i + 1] - 1.0), abs(mu[i + 1] - 2.0)) < 1e-3
    # strictly monotone between consecutive flips
    for a, b in zip(flips[:-1], flips[1:]):
        seg = np.diff(mu[a + 1:b + 1])
        assert np.all(seg > 0.0) or np.all(seg < 0.0)


def test_touch_points_match_theta_levels(one_gap_traj):
    lows = one_gap_traj.touch_points(0, "lower")
    ups = one_gap_traj.touch_points(0, "upper")
    assert len(lows) and len(ups)
    for t in lows:
        assert one_gap_traj.mu_at(t)[0] == pytest.approx(1.0, abs=1e-8)
    for t in ups:
        assert one_gap_traj.mu_at(t)[0] == pytest.approx(2.0, abs=1e-8)
    # alternation: between two touches of one edge there is one of the other
    both = np.sort(np.concatenate([lows, ups]))
    kinds = ["l" if t in lows else "u" for t in both]
    assert all(a != b for a, b in zip(kinds, kinds[1:]))


def every_piece_flip_points(traj):
    """Reference search: PPoly.solve over every spline piece, for every
    level k*pi the angle range could reach, with no monotonicity assumed."""
    pts = []
    for j in range(traj.band.gap_count):
        col = traj.theta[:, j]
        sp = CubicHermiteSpline(traj.x_grid, col, traj.dtheta[:, j])
        for k in range(math.floor(col.min() / math.pi) - 1,
                       math.ceil(col.max() / math.pi) + 2):
            pts.extend(sp.solve(k * math.pi, extrapolate=False))
    return np.unique(pts)


@pytest.mark.parametrize("kind,kwargs", [
    ("one_gap", {}),
    ("periodic_like", {"n": 4}),
    ("periodic_like", {"n": 10}),
    ("random", {"n": 6, "seed": 0}),
])
def test_flip_points_match_every_piece_solve(kind, kwargs):
    cfg = generate_fixture(kind, **kwargs)
    band = BandStructure(cfg.edges)
    if cfg.divisor is None:
        div = DirichletDivisor.random_in_gaps(
            band, np.random.default_rng(cfg.seed))
    else:
        div = DirichletDivisor(cfg.divisor)
    tr = integrate_dubrovin(band, div, -5.0, 5.0, cfg.flow_step,
                            tol=cfg.flow_tol)
    got = tr.flip_points()
    want = every_piece_flip_points(tr)
    assert len(got) == len(want) > 0
    assert np.abs(got - want).max() <= 1e-12


def test_touch_levels_on_nodes_and_window_ends(one_gap_band):
    # theta = pi x on a dyadic grid: the levels k*pi fall exactly on the
    # nodes x = -2..2, the first and last of them on the window ends
    x = np.arange(-8, 9) * 0.25
    tr = DivisorTrajectory(one_gap_band, x, (math.pi * x)[:, None],
                           np.full((len(x), 1), math.pi))
    assert np.array_equal(tr.touch_points(0, "lower"), [-2.0, 0.0, 2.0])
    assert np.array_equal(tr.touch_points(0, "upper"), [-1.0, 1.0])
    assert np.array_equal(tr.flip_points(), [-2.0, -1.0, 0.0, 1.0, 2.0])


def test_touch_at_origin_on_the_edge(one_gap_band):
    # mu(0) = E_1 puts theta(0) = 0 on a node; the flow is even in x
    tr = integrate_dubrovin(one_gap_band, DirichletDivisor(((1.0, 1),)),
                            -10.0, 10.0, step=0.01, tol=1e-11)
    lows = tr.touch_points(0, "lower")
    assert 0.0 in lows
    np.testing.assert_allclose(lows, -lows[::-1], rtol=0.0, atol=1e-10)
    assert 0.0 in tr.mirrored().touch_points(0, "lower")
    assert np.abs(tr.flip_points() - every_piece_flip_points(tr)).max() \
        <= 1e-12


@pytest.mark.parametrize("theta,dtheta", [
    ([0.0, 1.0, 0.5], [1.0, 1.0, 1.0]),    # decreasing step between nodes
    ([0.0, 1.0, 2.0], [1.0, 0.0, 1.0]),    # stalls at a node
    ([0.0, 0.1, 0.2], [5.0, 5.0, 5.0]),    # cubic overshoots inside a piece
])
def test_touch_search_rejects_non_increasing_angle(one_gap_band, theta,
                                                   dtheta):
    tr = DivisorTrajectory(one_gap_band, np.array([-1.0, 0.0, 1.0]),
                           np.array(theta)[:, None], np.array(dtheta)[:, None])
    assert not tr.increasing(0)
    with pytest.raises(ValueError, match="theta_1"):
        tr.touch_points(0, "lower")


def test_mirrored_trajectory(one_gap_traj):
    mir = one_gap_traj.mirrored()
    for x in (-3.2, -0.7, 0.0, 1.9):
        assert mir.mu_at(x)[0] == pytest.approx(one_gap_traj.mu_at(-x)[0],
                                                abs=1e-12)
        assert mir.sigma_at(x)[0] == -one_gap_traj.sigma_at(-x)[0] or \
            abs(math.sin(one_gap_traj.theta_at(-x)[0])) < 1e-9
    again = mir.mirrored()
    assert np.allclose(again.theta, one_gap_traj.theta, atol=0.0)


# ---------------------------------------------------------------------------
# one-gap elliptic oracle
# ---------------------------------------------------------------------------

def elliptic_mu(x, mu0, sigma0, edges=(0.0, 1.0, 2.0)):
    """Closed-form one-gap divisor (Gesztesy-Holden; DLMF 22.2):
    mu(x) = E2 - (E2 - E1) sn^2(sqrt(E2 - E0) (x - x*) | k),
    k^2 = (E2 - E1) / (E2 - E0), with x* fixed by mu(0) = mu0 and the sheet:
    sigma = +1 (mu increasing) puts the argument on the descending half
    (K, 2K) of sn^2."""
    e0, e1, e2 = edges
    m = (e2 - e1) / (e2 - e0)
    f0 = float(ellipkinc(math.asin(math.sqrt((e2 - mu0) / (e2 - e1))), m))
    u0 = 2.0 * float(ellipk(m)) - f0 if sigma0 > 0 else f0
    sn = ellipj(math.sqrt(e2 - e0) * np.asarray(x) + u0, m)[0]
    return e2 - (e2 - e1) * sn ** 2


@pytest.mark.parametrize("tol", [1e-10, 1e-11])
@pytest.mark.parametrize("mu0,sigma0", [(1.5, 1), (1.2, -1), (1.9, 1)])
def test_one_gap_elliptic_oracle(one_gap_band, mu0, sigma0, tol):
    tr = integrate_dubrovin(one_gap_band, DirichletDivisor(((mu0, sigma0),)),
                            -20.0, 20.0, step=0.01, tol=tol)
    err = np.abs(tr.mu_grid[:, 0] - elliptic_mu(tr.x_grid, mu0, sigma0))
    assert err.max() <= 10.0 * tol
    xs = np.linspace(-19.997, 19.996, 3001)  # off the grid
    err = np.abs(tr.mu_at(xs)[:, 0] - elliptic_mu(xs, mu0, sigma0))
    assert err.max() <= 10.0 * tol
    # consecutive touches of one edge are one period 2K(k)/sqrt(E2 - E0) apart
    period = 2.0 * float(ellipk(0.5)) / math.sqrt(2.0)
    for edge in ("lower", "upper"):
        gaps = np.diff(tr.touch_points(0, edge))
        assert len(gaps) >= 10
        assert np.abs(gaps - period).max() <= 1e-9
    # trace formula: p = E0 + E1 + E2 - 2 mu, on the grid and off it
    p = trace_potential(one_gap_band, tr)
    want = 3.0 - 2.0 * elliptic_mu(tr.x_grid, mu0, sigma0)
    assert np.abs(p - want).max() <= 20.0 * tol
    want = 3.0 - 2.0 * elliptic_mu(xs, mu0, sigma0)
    p = WeylContext(one_gap_band, tr).p_of(xs)
    assert np.abs(p - want).max() <= 20.0 * tol


# ---------------------------------------------------------------------------
# cost of the flow
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("edges,entries", [
    ((0.0, 1.0, 2.0), ((1.5, 1),)),
    (periodic_edges(3), ((0.95, -1), (4.01, 1), (9.0, -1))),
])
def test_rhs_budget_follows_tol(monkeypatch, edges, entries):
    # error-controlled stepping: the RHS count is set by tol, not by the
    # output step (a step-capped run over this window costs ~64k calls)
    band = BandStructure(edges)
    calls = []
    omega = dubrovin._omega

    def counting(band, theta):
        calls.append(1)
        return omega(band, theta)

    monkeypatch.setattr(dubrovin, "_omega", counting)
    counts = {}
    for tol in (1e-10, 1e-11):
        calls.clear()
        integrate_dubrovin(band, DirichletDivisor(entries), -20.0, 20.0,
                           0.01, tol=tol)
        counts[tol] = len(calls)
    assert counts[1e-11] <= 8000
    assert counts[1e-11] > counts[1e-10]


@pytest.mark.parametrize("edges,entries", [
    ((0.0, 1.0, 2.0), ((1.5, 1),)),
    (periodic_edges(3), ((0.95, -1), (4.01, 1), (9.0, -1))),
])
def test_panel_rhs_cap(monkeypatch, edges, entries):
    # one Omega call per Picard sweep over 49 nodes: a few hundred calls
    # over [-20, 20], where DOP853 (15 calls per step) took 4-6k
    band = BandStructure(edges)
    calls = []
    omega = dubrovin._omega

    def counting(band, theta):
        calls.append(1)
        return omega(band, theta)

    monkeypatch.setattr(dubrovin, "_omega", counting)
    integrate_dubrovin(band, DirichletDivisor(entries), -20.0, 20.0, 0.01,
                       tol=1e-11)
    assert len(calls) <= 1000


@pytest.mark.parametrize("omega,error", [
    # a jump in Omega: sweeps settle, but no panel resolves it
    (lambda band, theta: 1.0 + (theta > 2.0), QuadratureFailure),
    # a right-hand side that changes on every call: sweeps never settle
    (lambda band, theta, rng=np.random.default_rng(0):
        1.0 + rng.uniform(size=np.shape(theta)), NoConvergence),
])
def test_unresolvable_panel_raises(monkeypatch, one_gap_band, omega, error):
    monkeypatch.setattr(dubrovin, "_omega", omega)
    with pytest.raises(error, match="divisor flow"):
        integrate_dubrovin(one_gap_band, DirichletDivisor(((1.5, 1),)),
                           -1.0, 1.0, 0.01, tol=1e-11)


def _flow_against_dop853(tmp_path, monkeypatch, kind, n, seed):
    """Run the pipeline's flow stage and compare its trajectory with the
    DOP853 reference on the same window, grid and tolerance."""
    cfg = generate_fixture(kind, n=n, seed=seed)
    seen = []
    flow = dubrovin.integrate_dubrovin

    def recording(*args, **kwargs):
        seen.append((args, kwargs, flow(*args, **kwargs)))
        return seen[-1][2]

    monkeypatch.setattr("levitan.cli.integrate_dubrovin", recording)
    run_pipeline(replace(cfg, out_dir=str(tmp_path / "run")), upto="flow")
    (band, div, lo, hi, step), kwargs, tr = seen[0]
    x_grid, theta = dop853_flow(band, div, lo, hi, step, **kwargs)
    assert np.array_equal(x_grid, tr.x_grid)
    assert np.abs(tr.theta - theta).max(initial=0.0) <= 10.0 * cfg.flow_tol


@pytest.mark.parametrize("kind,n,seed", [
    ("free", 0, 0), ("one_gap", 0, 0), ("periodic_like", 4, 0),
    ("periodic_like", 10, 0),
    # the random n=6 seeds of the benchmark's pipeline workload
    *[("random", 6, s) for s in (1, 4, 12, 23, 26, 27, 28, 32)],
])
def test_panel_flow_matches_dop853_pipeline_fixtures(tmp_path, monkeypatch,
                                                     kind, n, seed):
    _flow_against_dop853(tmp_path, monkeypatch, kind, n, seed)


@pytest.mark.parametrize("n", range(1, 11))
def test_panel_flow_matches_dop853_random(tmp_path, monkeypatch, n):
    for seed in range(8):
        _flow_against_dop853(tmp_path / str(seed), monkeypatch, "random", n,
                             seed)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_csv_format(tmp_path, one_gap_band):
    div = DirichletDivisor(((1.5, 1),))
    tr = integrate_dubrovin(one_gap_band, div, -0.2, 0.2, step=0.1, tol=1e-10)
    path = tmp_path / "traj.csv"
    trajectory_to_csv(one_gap_band, tr, path,
                      trace_potential(one_gap_band, tr))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,theta_1,mu_1,sigma_1,p"
    assert len(lines) == 1 + len(tr.x_grid)
    fields = lines[3].split(",")  # the x = 0 row
    assert float(fields[0]) == 0.0
    assert float(fields[2]) == tr.mu_grid[2, 0]   # 17 digits round-trip
    assert fields[3] in ("1", "-1")


def _csv_reference(band, tr, path):
    """The per-value writer: every float through f17, sigma through %d."""
    from levitan._numerics import f17
    n = band.gap_count
    cols = (["x"] + ["theta_%d" % j for j in range(1, n + 1)]
            + ["mu_%d" % j for j in range(1, n + 1)]
            + ["sigma_%d" % j for j in range(1, n + 1)] + ["p"])
    p = trace_potential(band, tr)
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for i, xv in enumerate(tr.x_grid):
            row = [f17(xv)]
            row += [f17(v) for v in tr.theta[i]]
            row += [f17(v) for v in tr.mu_grid[i]]
            row += ["%d" % v for v in tr.sigma_grid[i]]
            row.append(f17(p[i]))
            fh.write(",".join(row) + "\n")


@pytest.mark.parametrize("edges, divisor", [
    ((0.0,), ()),
    ((0.0, 1.0, 2.0), ((1.0, 1),)),
    (periodic_edges(3), ((1.0, 1), (4.0, -1), (9.0, 1))),
])
def test_csv_matches_per_value_writer(tmp_path, edges, divisor):
    band = BandStructure(edges)
    tr = integrate_dubrovin(band, DirichletDivisor(divisor), -3.0, 3.0,
                            step=0.01, tol=1e-10)
    trajectory_to_csv(band, tr, tmp_path / "fast.csv",
                      trace_potential(band, tr))
    _csv_reference(band, tr, tmp_path / "ref.csv")
    assert (tmp_path / "fast.csv").read_bytes() == \
        (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("blocks, extra", [(2, 1), (3, 0)])
def test_write_rows_seams_match_per_row_format(blocks, extra):
    # rows across whole blocks and a one-row tail, each seam row holding a
    # special value: every byte as the per-row fmt % tuple(row) writes it
    import io
    from levitan._numerics import _BLOCK_VALUES, write_rows
    fmt = "%.17g,%.17g,%d,%.17g\n"
    step = _BLOCK_VALUES // 4
    rng = np.random.default_rng(7)
    rows = rng.standard_normal((blocks * step + extra, 4))
    rows[:, 1] *= 10.0 ** rng.integers(-300, 300, len(rows))
    rows[:, 2] = rng.choice([-1.0, 1.0], len(rows))
    specials = [-0.0, 5e-324, 1.7976931348623157e308, 1e-300, 0.1]
    for k, r in enumerate((0, step - 1, step, 2 * step - 1, len(rows) - 1)):
        rows[r, [0, 1, 3]] = specials[k], specials[-1 - k], -specials[k]
    fh = io.StringIO()
    write_rows(fh, fmt, rows)
    assert fh.getvalue() == "".join(fmt % tuple(r) for r in rows.tolist())
    assert fh.getvalue().startswith("-0,0.10000000000000001,")
