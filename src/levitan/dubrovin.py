"""Divisor flow: the coupled ODE system for the Dirichlet eigenvalues
mu_j(x) and the trace-formula reconstruction of the background potential.

The raw flow

    d mu_j / dx = -2 sigma_j Y^{1/2}(mu_j) / (d/dz G)(mu_j, x)

has square-root turning points at the gap edges.  We integrate the angle form
instead: with mu_j = m_j - w_j cos(theta_j) (m_j the gap midpoint, w_j the
half width) the system becomes

    d theta_j / dx = Omega_j(theta) =
        2 sqrt(mu_j - E_0) * prod_{k != j} sqrt((mu_j - E_{2k-1})(mu_j - E_2k))
                                          / |mu_j - mu_k|,

which is smooth, strictly positive, and keeps every mu_j inside its gap by
construction.  The sheet sign is derived, never stored: sigma_j = +1 exactly
when sin(theta_j) > 0, with the right-limit convention at touch points
(theta at an even multiple of pi, i.e. the lower edge, flips to +1; at an odd
multiple, the upper edge, to -1).

The flow is integrated on Chebyshev-Picard panels (Clenshaw & Norton,
Comput. J. 6, 1963).  On a panel [a, a + L] the angles are sampled at the
49 Chebyshev-Lobatto nodes, and each Picard sweep evaluates Omega once on
all of them and integrates it spectrally, theta <- theta(a) + int_a^x
Omega(theta).  Sweeps stop once they change theta by at most the panel
target; the panel is accepted when the trailing Chebyshev coefficients of
Omega, times L, are below the same target, and is halved otherwise.  Node
values reach the output grid by barycentric interpolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import chebyshev
from scipy.interpolate import CubicHermiteSpline

from ._numerics import barycentric_matrix, cheb_lobatto, write_rows
from .errors import (
    DegenerateGap,
    NoConvergence,
    QuadratureFailure,
    StepTooLarge,
)
from .spectral import BandStructure

__all__ = [
    "DirichletDivisor",
    "DivisorTrajectory",
    "PotentialSamples",
    "integrate_dubrovin",
    "trace_potential",
    "trajectory_to_csv",
]

_DEGENERATE_WIDTH = 1e-12
# panel target = flow tolerance / _TOL_SAFETY, never below the floor under
# which sweep changes and series tails are rounding noise
_TOL_SAFETY = 100.0
_TOL_FLOOR = 100.0 * np.finfo(float).eps
# Chebyshev-Picard panels: _PANEL_DEGREE + 1 Lobatto nodes on panels of at
# most _PANEL_LENGTH, halved down to _PANEL_FLOOR; at most _MAX_SWEEPS
# Picard sweeps per attempt; _TAIL trailing coefficients tested; warm
# starts from the previous panel's series truncated to _WARM_DEGREE (a
# longer series only amplifies its rounding noise beyond the panel)
_PANEL_DEGREE = 48
_PANEL_LENGTH = 1.0
_PANEL_FLOOR = 1e-6
_MAX_SWEEPS = 40
_TAIL = 3
_WARM_DEGREE = 8
_S, _COEF, _INTEG = cheb_lobatto(_PANEL_DEGREE)
# node values of a panel -> node values of its first half
_BISECT = barycentric_matrix(0.5 * (_S - 1.0), _S)


@dataclass(frozen=True)
class DirichletDivisor:
    """One (mu_j, sigma_j) pair per gap; the data that pins the background."""

    entries: tuple

    def __post_init__(self):
        ent = tuple((float(m), int(s)) for m, s in self.entries)
        for m, s in ent:
            if s not in (-1, 1):
                raise ValueError("sigma must be +1 or -1, got %r" % (s,))
        object.__setattr__(self, "entries", ent)

    @property
    def mu(self) -> np.ndarray:
        return np.array([m for m, _ in self.entries])

    @property
    def sigma(self) -> np.ndarray:
        return np.array([s for _, s in self.entries], dtype=int)

    @classmethod
    def random_in_gaps(cls, band: BandStructure, rng) -> "DirichletDivisor":
        out = []
        for (lo, hi) in band.gaps:
            m = rng.uniform(lo, hi)
            s = 1 if rng.uniform() < 0.5 else -1
            out.append((float(m), s))
        return cls(tuple(out))

    def validate_against(self, band: BandStructure) -> None:
        if len(self.entries) != band.gap_count:
            raise ValueError("divisor has %d entries for %d gaps"
                             % (len(self.entries), band.gap_count))
        for j, (m, _) in enumerate(self.entries, start=1):
            lo, hi = band.gaps[j - 1]
            if not lo <= m <= hi:
                raise ValueError("mu_%d = %g outside its gap [%g, %g]"
                                 % (j, m, lo, hi))


def _omega(band: BandStructure, theta: np.ndarray) -> np.ndarray:
    """Angle-form right sides; strictly positive on the whole torus.

    Vectorized over leading axes: theta of shape (..., N) gives (..., N).
    """
    mu = band.gap_mid - band.gap_half * np.cos(theta)
    base = 2.0 * np.sqrt(mu - band.edges[0])
    n = mu.shape[-1]
    if n == 1:
        return base
    lo = band.edge_array[1::2]
    hi = band.edge_array[2::2]
    a = (mu[..., :, None] - lo) * (mu[..., :, None] - hi)
    b = np.abs(mu[..., :, None] - mu[..., None, :])
    diag = np.arange(n)
    a[..., diag, diag] = 1.0
    b[..., diag, diag] = 1.0
    return base * np.prod(np.sqrt(a) / b, axis=-1)


@dataclass
class DivisorTrajectory:
    """Angle samples theta_j(x_i) on a uniform grid, plus derived views.

    mu and sigma are always reconstructed from theta (no separate flip
    bookkeeping).  Between grid nodes the angles are interpolated by a cubic
    Hermite spline using the exact node derivatives, so downstream quadratures
    see a C^1 trajectory whose interpolation error is O(step^4).
    """

    band: BandStructure
    x_grid: np.ndarray
    theta: np.ndarray            # shape (len(x_grid), N)
    dtheta: np.ndarray           # exact RHS at the nodes, same shape

    @cached_property
    def _spline(self) -> CubicHermiteSpline:
        return CubicHermiteSpline(self.x_grid, self.theta, self.dtheta, axis=0)

    @cached_property
    def _dspline(self):
        return self._spline.derivative()

    @property
    def x_min(self) -> float:
        return float(self.x_grid[0])

    @property
    def x_max(self) -> float:
        return float(self.x_grid[-1])

    def _check_range(self, x) -> None:
        lo, hi = self.x_min - 1e-12, self.x_max + 1e-12
        # a float (np.float64 is one) in range costs two comparisons
        if isinstance(x, float) and not (x < lo or x > hi):
            return
        x = np.asarray(x, dtype=float)
        if x.size and (x.min() < lo or x.max() > hi):
            out = x[(x < lo) | (x > hi)]
            worst = out[np.argmax(np.abs(out - np.clip(out, lo, hi)))]
            raise ValueError("x = %g outside trajectory range [%g, %g] (%d of "
                             "%d points out)" % (worst, self.x_min, self.x_max,
                                                 out.size, x.size))

    def theta_at(self, x):
        self._check_range(x)
        if self.band.gap_count == 0:
            return np.zeros(np.shape(x) + (0,))
        return self._spline(x)

    def dtheta_at(self, x):
        self._check_range(x)
        if self.band.gap_count == 0:
            return np.zeros(np.shape(x) + (0,))
        return self._dspline(x)

    def mu_of_theta(self, theta) -> np.ndarray:
        """Gap coordinates from angles, clipped to the closed gap hulls.

        The clip only ever removes the half-ulp overshoot of the midpoint
        parametrization (m + w may round one ulp past E_2j); the flow itself
        cannot leave the gap.
        """
        mu = self.band.gap_mid - self.band.gap_half * np.cos(theta)
        lo = self.band.edge_array[1::2]
        hi = self.band.edge_array[2::2]
        return np.clip(mu, lo, hi)

    def mu_at(self, x) -> np.ndarray:
        return self.mu_of_theta(self.theta_at(x))

    @staticmethod
    def sigma_of_theta(theta) -> np.ndarray:
        # parity of floor(theta/pi): +1 on the ascending branch [0, pi), -1 on
        # the descending one.  Equivalent to sign(sin theta) in the interiors,
        # but lands on the right-limit value at touch angles, where machine
        # sin(k*pi) is a stray 1e-16 of either sign.
        k = np.floor(theta / math.pi).astype(int)
        return np.where(k % 2 == 0, 1, -1).astype(int)

    def sigma_at(self, x) -> np.ndarray:
        return self.sigma_of_theta(self.theta_at(x))

    @cached_property
    def mu_grid(self) -> np.ndarray:
        return self.mu_of_theta(self.theta)

    @cached_property
    def sigma_grid(self) -> np.ndarray:
        return self.sigma_of_theta(self.theta)

    def divisor_at(self, x) -> DirichletDivisor:
        mu = np.atleast_1d(self.mu_at(x))
        sg = np.atleast_1d(self.sigma_at(x))
        return DirichletDivisor(tuple(zip(mu.tolist(), sg.tolist())))

    def increasing(self, gap_index: int) -> bool:
        """True when the Hermite interpolant of theta_j is strictly
        increasing on the whole window.

        The flow always is (Omega > 0, so every node derivative is positive
        and the cubic pieces follow); a hand-built trajectory may not be.
        Checked piece by piece: the derivative is positive at every node and
        at the interior minimum of each piece's derivative parabola.
        """
        m = self.dtheta[:, gap_index]
        if np.any(m <= 0.0):
            return False
        if len(self.x_grid) < 2:
            return True
        c3, c2, c1 = self._spline.c[:3, :, gap_index]
        h = np.diff(self.x_grid)
        with np.errstate(divide="ignore", invalid="ignore"):
            s = -c2 / (3.0 * c3)
            dip = c1 - c2 * c2 / (3.0 * c3)
        inside = (c3 > 0.0) & (s > 0.0) & (s < h)
        return not np.any(dip[inside] <= 0.0)

    def touch_points(self, gap_index: int, edge: str, lo=None, hi=None) -> np.ndarray:
        """x values where mu_j touches its 'lower' or 'upper' gap edge inside
        [lo, hi] (defaults: full range); see :meth:`_level_crossings`."""
        full = self._level_crossings(gap_index, edge == "lower")
        lo = self.x_min if lo is None else lo
        hi = self.x_max if hi is None else hi
        sel = full[(full >= lo - 1e-12) & (full <= hi + 1e-12)]
        return np.clip(sel, lo, hi)

    def _level_crossings(self, j: int, even: bool) -> np.ndarray:
        """Preimages of the levels k*pi (k even: the lower edge's touches;
        odd: the upper edge's) under the spline of theta_j, ascending.

        theta_j must be strictly increasing (see :meth:`increasing`; the
        flow's is, as Omega > 0), else ValueError; then each level has one
        preimage, found by ``searchsorted`` and one cubic solve."""
        if not self.increasing(j):
            raise ValueError(
                "theta_%d is not strictly increasing; its edge touches "
                "are not transversal" % (j + 1))
        col = self.theta[:, j]
        # one spare level at each end: k*pi/pi may round off k
        k = np.arange(math.floor(col[0] / math.pi),
                      math.ceil(col[-1] / math.pi) + 1)
        levels = k[(k % 2 == 0) == even] * math.pi
        levels = levels[(levels >= col[0]) & (levels <= col[-1])]
        x = self.x_grid
        if len(x) < 2:
            return np.full(len(levels), x[0])
        i = np.clip(np.searchsorted(col, levels, side="right") - 1,
                    0, len(x) - 2)
        c3, c2, c1, c0 = self._spline.c[:, i, j]
        h = x[i + 1] - x[i]
        # the local cubic rises from c0 - level <= 0 at s = 0 to >= 0 at
        # s = h: Newton from the secant estimate, kept inside the bracket
        a = np.zeros_like(levels)
        b = h.copy()
        s = h * (levels - col[i]) / (col[i + 1] - col[i])
        for _ in range(60):
            f = ((c3 * s + c2) * s + c1) * s + (c0 - levels)
            a = np.where(f <= 0.0, s, a)
            b = np.where(f >= 0.0, s, b)
            df = (3.0 * c3 * s + 2.0 * c2) * s + c1
            nxt = s - f / df
            nxt = np.where((nxt > a) & (nxt < b), nxt, 0.5 * (a + b))
            done = np.abs(nxt - s) <= 1e-15 * h
            s = nxt
            if np.all(done):
                break
        # a level on a node is met at s = 0 exactly, except the last node
        # (window end), where x[i] + h may miss x[i + 1] by an ulp
        return np.where(col[i + 1] == levels, x[i + 1], x[i] + s)

    def flip_points(self) -> np.ndarray:
        """All edge-touch locations (sigma flip candidates), every gap."""
        return np.unique([x for j in range(self.band.gap_count)
                          for even in (True, False)
                          for x in self._level_crossings(j, even)])

    @cached_property
    def _mirror(self) -> "DivisorTrajectory":
        return DivisorTrajectory(self.band, -self.x_grid[::-1],
                                 -self.theta[::-1], self.dtheta[::-1].copy())

    def mirrored(self) -> "DivisorTrajectory":
        """The trajectory of the space-reflected background, mu~(x) = mu(-x),
        built once and shared along with its spline."""
        return self._mirror


def _flow_panels(band: BandStructure, theta0: np.ndarray, x_end: float,
                 target: float) -> list:
    """Chebyshev-Picard panels of the angle flow from theta0 at x = 0 to
    ``x_end``.

    Returns ``(a, span, theta_nodes)`` per accepted panel, in order of
    integration; ``span`` carries the direction of ``x_end``.  The first
    panel's sweeps start from theta0 throughout, each later one's from the
    previous panel's extrapolation, and a halved one's from its first
    half's interpolant.  Raises NoConvergence (sweeps) or
    QuadratureFailure (tail) once a panel would be halved below
    _PANEL_FLOOR.
    """
    direction = math.copysign(1.0, x_end)
    a, length, theta_a = 0.0, _PANEL_LENGTH, theta0
    guess = np.broadcast_to(theta0, (len(_S), len(theta0)))
    panels = []
    while direction * (x_end - a) > 0.0:
        last = abs(x_end - a) <= length
        span = (x_end - a) if last else direction * length
        if guess is None:
            _, prev_span, prev = panels[-1]
            guess = _extrapolate(prev, 1.0 + (_S + 1.0) * span / prev_span)
        deltas = []
        for _ in range(_MAX_SWEEPS):
            om = _omega(band, guess)
            theta = theta_a + (0.5 * span) * (_INTEG @ om)
            deltas.append(float(np.abs(theta - guess).max()))
            guess = theta
            if deltas[-1] <= target:
                break
        settled = deltas[-1] <= target
        tail = np.abs((_COEF @ om)[-_TAIL:]).max() * abs(span)
        if settled and tail <= target:
            panels.append((a, span, theta))
            a = x_end if last else a + span
            theta_a = theta[-1]
            length = min(_PANEL_LENGTH, 2.0 * abs(span))
            guess = None
            continue
        length = 0.5 * abs(span)
        if length < _PANEL_FLOOR:
            where = "x in [%g, %g]" % tuple(sorted((a, a + span)))
            if not settled:
                raise NoConvergence(
                    "divisor flow: Picard sweeps did not settle below %.3g "
                    "on %s" % (target, where), deltas)
            raise QuadratureFailure(
                "divisor flow: Chebyshev tail %.3g above %.3g on a panel "
                "of length %.3g at %s" % (tail, target, abs(span), where))
        guess = _BISECT @ theta
    return panels


def _extrapolate(theta: np.ndarray, t: np.ndarray) -> np.ndarray:
    """A panel's angles continued to t >= 1 by the first _WARM_DEGREE + 1
    terms of their Chebyshev series, pinned to the panel's end value."""
    c = (_COEF @ theta)[:_WARM_DEGREE + 1]
    return theta[-1] + (chebyshev.chebvander(t, _WARM_DEGREE) - 1.0) @ c


def flow_end_angles(band: BandStructure, divisor: DirichletDivisor,
                    x_end: float, tol: float = 1e-10) -> np.ndarray:
    """The angles at ``x_end`` of the flow from ``divisor`` at x = 0, after
    the guards of every flow run: ValueError for a divisor that does not
    fit the band, DegenerateGap for a gap too thin to integrate.

    At x_end = 0 these are the start angles: theta_j in [0, pi] for
    sigma_j = +1, in [pi, 2 pi] for sigma_j = -1 (sin < 0 on the descending
    branch).  Elsewhere they are the last node of the last panel to x_end,
    which ``integrate_dubrovin`` also puts in its row at a window end x_end
    (barycentric interpolation at t = +-1 returns the node), without an
    output grid or spline.
    """
    divisor.validate_against(band)
    if band.gap_count and band.gap_half.min() <= _DEGENERATE_WIDTH * max(
            1.0, np.abs(band.edge_array).max()):
        raise DegenerateGap("a gap is too thin to integrate (half width %g)"
                            % band.gap_half.min())
    c = np.clip((band.gap_mid - divisor.mu) / band.gap_half, -1.0, 1.0)
    theta0 = np.arccos(c)
    theta0 = np.where(divisor.sigma < 0, 2.0 * math.pi - theta0, theta0)
    if x_end == 0.0 or not band.gap_count:
        return theta0
    panels = _flow_panels(band, theta0, x_end,
                          max(tol / _TOL_SAFETY, _TOL_FLOOR))
    return panels[-1][2][-1]


def integrate_dubrovin(band: BandStructure, divisor: DirichletDivisor,
                       x_min: float, x_max: float, step: float,
                       tol: float = 1e-10) -> DivisorTrajectory:
    """Integrate the angle-form divisor flow over [x_min, 0] and [0, x_max].

    The initial divisor lives at x = 0, so the window must contain it.  The
    output grid is uniform with the given step (the window ends snap to the
    nearest multiple) and doubles as the knot set of the Hermite spline.

    Each half is integrated from x = 0 on Chebyshev-Picard panels of
    _PANEL_DEGREE + 1 = 49 Lobatto nodes and length at most _PANEL_LENGTH
    = 1, against the target ``max(tol / 100, 100 eps)``; the factor 100
    keeps the accumulated global error over a window of a few dozen units
    well below ``tol``.  Picard sweeps on a panel stop once the sup-norm
    change of the node angles is at most the target; the panel is accepted
    when its three trailing Chebyshev coefficients of Omega, times the
    panel length, are too.  Otherwise it is halved (an accepted panel lets
    the next one double again, up to _PANEL_LENGTH).  The node angles reach
    the grid by barycentric interpolation, and the grid derivatives are
    Omega itself.

    Raises NoConvergence when the sweeps of a panel do not settle within
    _MAX_SWEEPS, and QuadratureFailure when its Chebyshev tail stays above
    the target, once halving would take the panel below _PANEL_FLOOR;
    DegenerateGap for a gap too thin to integrate and StepTooLarge when
    the output step is too coarse for the spline.
    """
    if step <= 0.0 or tol <= 0.0:
        raise ValueError("step and tol must be positive")
    if not x_min <= 0.0 <= x_max:
        raise ValueError("window [%g, %g] must contain x = 0" % (x_min, x_max))
    theta0 = flow_end_angles(band, divisor, 0.0, tol)

    k_lo = round(x_min / step)
    k_hi = round(x_max / step)
    x_grid = step * np.arange(k_lo, k_hi + 1)
    n0 = -k_lo  # index of x = 0

    if band.gap_count == 0:
        empty = np.zeros((len(x_grid), 0))
        return DivisorTrajectory(band, x_grid, empty, empty.copy())

    target = max(tol / _TOL_SAFETY, _TOL_FLOOR)
    theta = np.empty((len(x_grid), band.gap_count))
    theta[n0] = theta0
    # each half's rows in order of distance from x = 0
    for rows in (np.arange(n0 + 1, len(x_grid)), np.arange(n0 - 1, -1, -1)):
        if not len(rows):
            continue
        xs = x_grid[rows]
        panels = _flow_panels(band, theta0, xs[-1], target)
        # panel k starts at distance starts[k] from x = 0
        starts = np.array([abs(a) for a, _, _ in panels])
        owner = np.searchsorted(starts, np.abs(xs), side="right") - 1
        for k, (a, span, nodes) in enumerate(panels):
            sel = owner == k
            if np.any(sel):
                t = 2.0 * (xs[sel] - a) / span - 1.0
                theta[rows[sel]] = barycentric_matrix(t, _S) @ nodes

    jump = np.abs(np.diff(theta, axis=0)).max(initial=0.0)
    if jump > 0.5 * math.pi:
        raise StepTooLarge(
            "angle advance %.3g rad per output step exceeds pi/2; "
            "reduce step below %.3g" % (jump, step * 0.5 * math.pi / jump))

    dtheta = _omega(band, theta)
    return DivisorTrajectory(band, x_grid, theta, dtheta)


# ---------------------------------------------------------------------------
# trace formula
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PotentialSamples:
    """p(x) on the trajectory grid.

    The bounds are what the gap confinement of the divisor forces through the
    trace formula: p stays in [p_lower, p_upper] sample by sample.
    """

    x_grid: np.ndarray
    p_values: np.ndarray
    p_lower: float
    p_upper: float


def potential_of_angles(band: BandStructure, theta) -> np.ndarray:
    """The trace formula p = E_0 + sum_j (E_{2j-1} + E_2j - 2 mu_j) in the
    angles, E_0 + 2 sum_j w_j cos(theta_j): no sums of edges cancel.  The
    angles run along the last axis."""
    return band.edges[0] + 2.0 * np.sum(band.gap_half * np.cos(theta),
                                        axis=-1)


def trace_potential(band: BandStructure, trajectory: DivisorTrajectory) -> PotentialSamples:
    """p at the trajectory's grid nodes, with its bounds: every mu_j on its
    upper edge (theta_j = pi) and every one on its lower edge (theta_j = 0)."""
    lo, hi = potential_of_angles(band, np.array([[math.pi], [0.0]]))
    return PotentialSamples(trajectory.x_grid,
                            potential_of_angles(band, trajectory.theta),
                            float(lo), float(hi))


def potential_on(band: BandStructure, trajectory: DivisorTrajectory, x):
    """p evaluated through the spline at arbitrary x (vectorized)."""
    return potential_of_angles(band, trajectory.theta_at(x))


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def trajectory_to_csv(band: BandStructure, trajectory: DivisorTrajectory,
                      path) -> None:
    """CSV with header x,theta_1..theta_N,mu_1..mu_N,sigma_1..sigma_N,p,
    written a block of rows per ``%`` call by ``write_rows``."""
    n = band.gap_count
    cols = (["x"]
            + ["theta_%d" % j for j in range(1, n + 1)]
            + ["mu_%d" % j for j in range(1, n + 1)]
            + ["sigma_%d" % j for j in range(1, n + 1)]
            + ["p"])
    # every float through %.17g, as f17 writes it; sigma, stacked as
    # +-1.0 among the floats, through %d.  With no object made per row,
    # the table costs about what %.17g itself does
    fmt = ",".join(["%.17g"] * (1 + 2 * n) + ["%d"] * n + ["%.17g"]) + "\n"
    rows = np.column_stack([trajectory.x_grid, trajectory.theta,
                            trajectory.mu_grid, trajectory.sigma_grid,
                            trace_potential(band, trajectory).p_values])
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        write_rows(fh, fmt, rows)
