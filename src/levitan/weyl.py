"""Weyl solutions and friends on a finite-gap background.

Everything here is algebra on top of the divisor trajectory: the divisor
product

    G(z, x) = prod_j (z - mu_j(x)) / E_{2j-1},

one O(1) factor at a time, its half x-derivative H = (1/2) dG/dx (a
polynomial in z, from the exact flow derivatives mu_j' and the removed
products of G's factors), the Weyl functions m+- = (H +- Y^{1/2}) / G, the
Green function g = -G(z,0) / (2 Y^{1/2}), and the Weyl solutions

    psi_+-(z, x) = (G(z,x)/G(z,0))^{1/2} exp( +- int_0^x Y^{1/2}(z)/G(z,t) dt )

normalized to 1 at x = 0.  The flow integral has one implementation, on
the Chebyshev-Lobatto panel toolkit of :mod:`levitan._numerics` that the
divisor flow uses too: fixed base panels from x = 0, each with its spectral
indefinite integral, bisected where the Chebyshev tail fails, and read at
any x by barycentric interpolation.  The one-point ``eval_psi_product``, the
grid pass ``psi_on_grid`` and ``probe_csv`` all call it, and each raises
QuadratureFailure when the summed tail estimate exceeds
_QUAD_TOL (1 + |integral|).  A second, independent route builds psi from the
cosine/sine-type solutions of -y'' + p y = z y, propagated from x = 0 by a
fourth-order Magnus method on p(x) alone: psi = c + m+-(z, 0) s.  The two
routes share nothing numerically (quadrature plus square roots versus a
Magnus propagator), which is what makes their agreement a meaningful check;
do not "simplify" one in terms of the other.

The product representation needs z away from the gaps (the square-root
prefactor degenerates as z approaches a moving mu_j); within eps_gap of a gap
hull it refuses and the ODE route must be used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._numerics import (
    barycentric_matrix,
    cheb_lobatto,
    principal_sqrt,
    removed_products,
)
from .dubrovin import DivisorTrajectory, potential_on
from .errors import (
    AmbiguousPole,
    AtDivisorPole,
    BranchAtEdge,
    QuadratureFailure,
    TooCloseToGap,
)
from .spectral import BandStructure, SpectralPoint, as_point, eval_Y, eval_sqrtY

__all__ = [
    "WeylContext",
    "PoleTag",
    "PoleClassification",
    "eval_G",
    "eval_H",
    "eval_m",
    "eval_psi_product",
    "eval_psi_ode",
    "eval_green",
    "wronskian_check",
    "classify_poles",
    "structural_identity_check",
    "psi_on_grid",
    "probe_csv",
]


@dataclass(frozen=True)
class WeylContext:
    """Band + trajectory bundle; the evaluators below are pure in it."""

    band: BandStructure
    trajectory: DivisorTrajectory

    def __post_init__(self):
        if self.trajectory.band is not self.band and \
                self.trajectory.band.edges != self.band.edges:
            raise ValueError("trajectory belongs to a different band structure")
        if not self.trajectory.x_min <= 0.0 <= self.trajectory.x_max:
            raise ValueError("trajectory must cover x = 0 (psi normalization)")

    @property
    def eps_gap(self) -> float:
        """_GAP_MARGIN of the narrowest gap width (0 with no gaps)."""
        width = self.band.min_gap_width
        return _GAP_MARGIN * width if self.band.gap_count else 0.0

    def mirrored(self) -> "WeylContext":
        return WeylContext(self.band, self.trajectory.mirrored())

    def p_of(self, x):
        """Background potential through the trace formula (vectorized)."""
        return potential_on(self.band, self.trajectory, x)


def _check_sign(sign) -> int:
    if sign in (1, +1, "+"):
        return 1
    if sign in (-1, "-"):
        return -1
    raise ValueError("sign must be +1 or -1, got %r" % (sign,))


# ---------------------------------------------------------------------------
# G, H and the Weyl functions
# ---------------------------------------------------------------------------

def eval_G(ctx: WeylContext, p, x: float) -> complex:
    """The divisor product G(z, x); entire in z, exactly 0 at z = mu_j(x)."""
    z = as_point(p).z
    mu = ctx.trajectory.mu_at(x)
    return complex(np.prod((z - mu) * ctx.band.edge_weight[1::2]))


def _mu_rates(ctx: WeylContext, x: float) -> np.ndarray:
    """mu_j'(x) from the exact angle derivative: w_j sin(theta_j) theta_j'."""
    traj = ctx.trajectory
    return ctx.band.gap_half * np.sin(traj.theta_at(x)) * traj.dtheta_at(x)


def eval_H(ctx: WeylContext, p, x: float) -> complex:
    """H(z, x) = (1/2) d/dx G(z, x) = -(1/2) sum_l mu_l' w_l P_l(z), with
    P_l the removed products of G's factors (z - mu_k) w_k, w_k = 1/E_{2k-1}.

    z = mu_j(x) is a perfectly regular point (the residue-sum form of H would
    divide by zero there; this form is what gives H(mu_j, x) = sigma_j
    Y^{1/2}(mu_j)).
    """
    z = as_point(p).z
    w = ctx.band.edge_weight[1::2]
    p_l = removed_products((z - ctx.trajectory.mu_at(x)) * w)
    return complex(-0.5 * np.sum(_mu_rates(ctx, x) * w * p_l))


_POLE_TOL = 1e-9


def eval_m(ctx: WeylContext, p, x: float, sign) -> complex:
    """Weyl function m+- = (H +- Y^{1/2}) / G at (z, x).

    Within _POLE_TOL of a divisor point the owning sign raises AtDivisorPole;
    the other sign is evaluated by its removable limit (both numerator and G
    vanish to first order there).
    """
    sgn = _check_sign(sign)
    pt = as_point(p)
    z = pt.z
    mu = ctx.trajectory.mu_at(x)
    j = int(np.argmin(np.abs(z - mu))) if mu.size else None
    if mu.size and abs(z - mu[j]) < _POLE_TOL:
        sigma = int(ctx.trajectory.sigma_at(x)[j])
        lo, hi = ctx.band.gaps[j]
        if min(abs(mu[j] - lo), abs(mu[j] - hi)) < _POLE_TOL:
            raise AtDivisorPole(
                "z = %s sits at an edge divisor point (square-root pole of "
                "both Weyl functions)" % (z,))
        if sigma == sgn:
            raise AtDivisorPole(
                "z = %s is within %g of mu_%d(%g), a pole of m%s"
                % (z, _POLE_TOL, j + 1, x, "+" if sgn > 0 else "-"))
        # removable limit at mu_j: l'Hopital in z.  With Q_l the removed
        # products of d_k = (mu_j - mu_k) w_k, k != j, G' = w_j prod d and the
        # z-derivatives of H's P_l are w_j Q_l (l != j) and sum_l w_l Q_l (j);
        # mu_j is off the edges, so Y' / Y = sum_m 1 / (mu_j - E_m)
        zj, w = complex(mu[j]), ctx.band.edge_weight[1::2]
        d = np.delete((zj - mu) * w, j)
        rates = _mu_rates(ctx, x)
        dh = -0.5 * w[j] * np.sum((np.delete(rates, j) + rates[j])
                                  * np.delete(w, j) * removed_products(d))
        dsq = 0.5 * eval_sqrtY(ctx.band, zj) * np.sum(
            1.0 / (zj - ctx.band.edge_array))
        return complex((dh + sgn * dsq) / (w[j] * np.prod(d)))
    h = eval_H(ctx, pt, x)
    g = eval_G(ctx, pt, x)
    sq = eval_sqrtY(ctx.band, pt)
    return complex((h + sgn * sq) / g)


def eval_green(ctx: WeylContext, p) -> complex:
    """Green function g(z) = -G(z, 0) / (2 Y^{1/2}(z)); (1/i) g > 0 on upper
    band rims."""
    pt = as_point(p)
    sq = eval_sqrtY(ctx.band, pt)
    if sq == 0.0:
        raise BranchAtEdge("Green function diverges at the band edge %s"
                           % (pt.z,))
    return complex(-eval_G(ctx, pt, 0.0) / (2.0 * sq))


# ---------------------------------------------------------------------------
# psi: product representation
# ---------------------------------------------------------------------------

# the flow integral's panels: _DEGREE + 1 Chebyshev-Lobatto nodes on base
# panels of width _PANEL from x = 0; a panel whose _TAIL trailing Chebyshev
# coefficients, times its width, exceed _PANEL_TOL (|I| + width) is bisected.
# W at x fails when its summed tails exceed _QUAD_TOL (1 + |W|), and z within
# eps_gap = _GAP_MARGIN times the narrowest gap width of a gap hull is refused
_DEGREE = 24
_TAIL = 3
_PANEL = 0.05
_PANEL_TOL = 1e-13
_QUAD_TOL = 1e-10
_GAP_MARGIN = 1e-3
_MAX_DEPTH = 16        # bisection levels below a base panel
_MAX_LIVE = 4096       # panels one refinement level may evaluate
_S, _COEF, _INTEG = cheb_lobatto(_DEGREE)


def _flow_exponent(ctx: WeylContext, pt: SpectralPoint,
                   xs: np.ndarray) -> np.ndarray:
    """W(x) = int_0^x Y^{1/2}(z) / G(z, t) dt at every x of a sorted, unique
    array: the panel engine behind every product-route psi.

    The base panels break at the multiples of _PANEL from x = 0 and at the
    span ends only: no x and no edge touch cuts them (mu_j = m_j - w_j cos
    theta_j is as smooth at a touch as anywhere).  Failing panels are
    bisected, one vectorized ``mu_at`` call per level, up to _MAX_DEPTH
    levels or a level over _MAX_LIVE panels; below that a base panel's
    refinement depends on its end points only.  W at x sums the leaf
    integrals from 0 out to x's leaf and adds that leaf's indefinite
    integral at x, from its node values through the spectral integration
    matrix and the barycentric row of x.  Its estimate sums the tails out
    to and including that leaf; QuadratureFailure above _QUAD_TOL (1 + |W|).
    """
    lo, hi = min(xs[0], 0.0), max(xs[-1], 0.0)
    if lo == hi:
        return np.zeros(len(xs), dtype=complex)
    sq = eval_sqrtY(ctx.band, pt)
    z, w, traj = pt.z, ctx.band.edge_weight[1::2], ctx.trajectory
    inv_g = lambda ts: sq / np.prod((z - traj.mu_at(ts)) * w, axis=-1)
    fill = _PANEL * np.arange(math.ceil(lo / _PANEL),
                              math.floor(hi / _PANEL) + 1)
    cuts = np.unique(np.concatenate([fill, [lo, 0.0, hi]]))
    cuts = cuts[(cuts >= lo) & (cuts <= hi)]

    leaves = []   # (a, b, integrand at the nodes, integral, tail) per level
    a, b = cuts[:-1], cuts[1:]
    for depth in range(_MAX_DEPTH + 1):
        half = 0.5 * (b - a)
        f = inv_g((a + half)[:, None] + half[:, None] * _S)
        val = half * (f @ _INTEG[-1])
        tail = np.abs(f @ _COEF[-_TAIL:].T).max(axis=1) * (b - a)
        done = tail <= _PANEL_TOL * (np.abs(val) + (b - a))
        if depth == _MAX_DEPTH or 2 * np.count_nonzero(~done) > _MAX_LIVE:
            done[:] = True
        leaves.append((a[done], b[done], f[done], val[done], tail[done]))
        if done.all():
            break
        mid = 0.5 * (a[~done] + b[~done])
        a, b = np.concatenate([a[~done], mid]), np.concatenate([mid, b[~done]])
    order = np.argsort(np.concatenate([leaf[0] for leaf in leaves]))
    a, b, f, val, tail = (np.concatenate(part)[order] for part in zip(*leaves))

    # outward sums from 0 to every leaf end; x's leaf k adds -int_x^b left
    # of 0 (its inner end is b) and int_a^x right of it
    i0 = int(np.searchsorted(a, 0.0))
    outward = lambda v: np.concatenate([-np.cumsum(v[:i0][::-1])[::-1], [0.0],
                                        np.cumsum(v[i0:])])
    k = np.minimum(np.searchsorted(a, xs, side="right") - 1, len(a) - 1)
    neg = k < i0
    rows = barycentric_matrix(2.0 * (xs - a[k]) / (b - a)[k] - 1.0,
                              _S) @ _INTEG
    rows[neg] -= _INTEG[-1]
    part = 0.5 * (b - a)[k] * np.einsum("ij,ij->i", rows, f[k])
    w = outward(val)[k + neg] + part
    e = np.abs(outward(tail))[k + ~neg]
    bad = e > _QUAD_TOL * (1.0 + np.abs(w))
    if bad.any():
        i = int(np.argmax(bad))
        raise QuadratureFailure(
            "flow integral error %.3g exceeds tolerance at z = %s, x = %g"
            % (e[i], z, xs[i]))
    return w


def _psi_parts(ctx: WeylContext, p, xs):
    """(prefactor, W) at every x of xs (any order, repeats allowed), from one
    pass of the panel engine; psi_+- = prefactor exp(+-W), exactly 1 at 0."""
    pt = as_point(p)
    d = ctx.band.gap_distance(pt.z)
    if d < ctx.eps_gap:
        raise TooCloseToGap(
            "z = %s is %.3g from a gap hull; the product representation "
            "needs at least eps_gap = %.3g (use the ODE route instead)"
            % (pt.z, d, ctx.eps_gap))
    xs = np.asarray(xs, dtype=float)
    ux, back = np.unique(xs, return_inverse=True)
    w = _flow_exponent(ctx, pt, ux)[back]
    mu_0 = ctx.trajectory.mu_at(0.0)
    pref = np.prod(principal_sqrt((pt.z - ctx.trajectory.mu_at(xs))
                                  / (pt.z - mu_0)), axis=-1)
    return np.where(xs == 0.0, 1.0, pref), w


def eval_psi_product(ctx: WeylContext, p, x: float, sign) -> complex:
    """psi_+- via the square-root-prefactor representation.

    Exactly 1 at x = 0.  Raises TooCloseToGap within eps_gap of a gap hull
    and QuadratureFailure if the flow integral cannot be trusted.
    """
    sgn = _check_sign(sign)
    pref, w = _psi_parts(ctx, p, [x])
    return complex(pref[0] * np.exp(sgn * w[0]))


def psi_on_grid(ctx: WeylContext, p, xs: np.ndarray, sign) -> np.ndarray:
    """psi_+- at every point of a strictly increasing grid in one pass.

    One panel partition covers the whole span and does not depend on the
    grid: the grid points are read off the panels' indefinite integrals, so
    a finer grid costs no more integrand samples, and neighboring grid
    values share their quadrature history; errors are correlated instead of
    independent, which downstream finite differences rely on.  Raises like
    :func:`eval_psi_product`.
    """
    sgn = _check_sign(sign)
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or np.any(np.diff(xs) <= 0.0):
        raise ValueError("xs must be strictly increasing")
    pref, w = _psi_parts(ctx, p, xs)
    return pref * np.exp(sgn * w)


# ---------------------------------------------------------------------------
# psi: initial-value (cosine/sine) representation
# ---------------------------------------------------------------------------

# the (c, s) propagator: a pass of n equal steps samples p at both Gauss
# points of _ODE_BATCH steps at a time and multiplies each batch into one
# running 2x2 product, so its memory does not grow with n.  The first pass
# takes steps of at most _ODE_STEP; passes double until two agree within
# _ODE_TOL, and a pass past _ODE_MAX_STEPS steps is not tried
_ODE_STEP = 0.05
_ODE_TOL = 1e-12
_ODE_BATCH = 512
_ODE_MAX_STEPS = 1 << 18
_GAUSS = np.array([-0.5, 0.5]) / math.sqrt(3.0)


def _mul2(a, b):
    """a @ b for stacks of 2x2 matrices laid out as (2, 2, k)."""
    return a[:, :1] * b[None, 0] + a[:, 1:] * b[None, 1]


def _magnus_pass(ctx: WeylContext, z: complex, x: float,
                 n: int) -> np.ndarray:
    """Y(x) = [[c, s], [c', s']] from n equal fourth-order Magnus steps
    for y' = [[0, 1], [p - z, 0]] y, Y(0) = I.

    A step of signed length h samples q = p - z at the Gauss points
    t_mid -+ h / (2 sqrt 3), giving Omega = [[g, h], [h qbar, -g]] with
    qbar = (q_1 + q_2) / 2 and g = (sqrt 3 / 12) h^2 (q_1 - q_2).  Omega is
    traceless, so exp(Omega) = cosh(r) I + (sinh(r) / r) Omega with
    r^2 = g^2 + h^2 qbar.  Each batch is reduced by a pairwise tree, later
    steps on the left.  Raises QuadratureFailure on a non-finite result.
    """
    h = x / n
    acc = np.eye(2, dtype=complex)
    for k0 in range(0, n, _ODE_BATCH):
        mid = h * (np.arange(k0, min(k0 + _ODE_BATCH, n)) + 0.5)
        q = ctx.p_of(mid[:, None] + h * _GAUSS) - z
        hq = 0.5 * h * (q[:, 0] + q[:, 1])
        g = (math.sqrt(3.0) / 12.0) * h * h * (q[:, 0] - q[:, 1])
        r = np.sqrt(g * g + h * hq)
        ch = np.cosh(r)
        with np.errstate(invalid="ignore"):
            sh = np.where(r == 0.0, 1.0, np.sinh(r) / r)
        m = np.array([[ch + sh * g, sh * h], [sh * hq, ch - sh * g]])
        while m.shape[-1] > 1:
            k = m.shape[-1] // 2 * 2
            m = np.concatenate([_mul2(m[..., 1:k:2], m[..., 0:k:2]),
                                m[..., k:]], axis=-1)
        acc = m[..., 0] @ acc
    if not np.all(np.isfinite(acc)):
        raise QuadratureFailure("ODE integration to x = %g failed: "
                                "non-finite solution from %d steps" % (x, n))
    return acc


def _ode_cs(ctx: WeylContext, z: complex, x: float):
    """Solve -y'' + p y = z y from 0 to x for the (c, s) basis.

    Returns (c, c', s, s') at x.  c(0)=1, c'(0)=0, s(0)=0, s'(0)=1.  The
    solution is a fourth-order Magnus propagator (Iserles & Norsett, Phil.
    Trans. R. Soc. A 357, 1999) on equal steps; it uses p(x) only.  The
    first pass takes steps of at most _ODE_STEP, and the step count
    doubles until two passes, n and 2n steps, agree:
    max |Y_2n - Y_n| <= _ODE_TOL (1 + max |Y_2n|); the finer one is
    returned.  Raises QuadratureFailure on a non-finite pass or when the
    next pass would exceed _ODE_MAX_STEPS steps.
    """
    if x == 0.0:
        return 1.0 + 0.0j, 0.0 + 0.0j, 0.0 + 0.0j, 1.0 + 0.0j
    n = math.ceil(abs(x) / _ODE_STEP)
    fine = _magnus_pass(ctx, z, x, n)
    while 2 * n <= _ODE_MAX_STEPS:
        coarse, n = fine, 2 * n
        fine = _magnus_pass(ctx, z, x, n)
        if np.max(np.abs(fine - coarse)) <= \
                _ODE_TOL * (1.0 + np.max(np.abs(fine))):
            return (complex(fine[0, 0]), complex(fine[1, 0]),
                    complex(fine[0, 1]), complex(fine[1, 1]))
    raise QuadratureFailure(
        "ODE integration to x = %g failed: no two passes of up to %d steps "
        "agree within %g" % (x, n, _ODE_TOL))


def eval_psi_ode(ctx: WeylContext, p, x: float, sign) -> complex:
    """psi_+- as c + m_+-(z, 0) s with (c, s) from the Magnus propagator
    of :func:`_ode_cs`.

    Valid arbitrarily close to the gaps (no square-root prefactor), as long
    as z is not an actual pole of m_+-(., 0).  Raises QuadratureFailure
    when the propagator fails.
    """
    sgn = _check_sign(sign)
    pt = as_point(p)
    m0 = eval_m(ctx, pt, 0.0, sgn)
    c, _, s, _ = _ode_cs(ctx, pt.z, x)
    return c + m0 * s


# ---------------------------------------------------------------------------
# Wronskian and structure checks
# ---------------------------------------------------------------------------

def wronskian_check(ctx: WeylContext, p, x_probe: float) -> float:
    """|W(psi_-, psi_+)(x_probe) + 1/g(z)|, from the (c, s) solve.

    Since W(psi_-, psi_+) = (m_+ - m_-)(c s' - c' s) and (m_+ - m_-) g = -1,
    the residual is |c s' - c' s - 1| / |g| up to rounding: it measures the
    propagator's Liouville drift.  Every Magnus step has determinant 1, so
    the residual reads rounding; the accuracy of the ODE route is checked
    against the product route instead (the pipeline's ``weyl_routes`` row).
    (Through the product representation the identity collapses to algebra
    that holds no matter how wrong the trajectory is.)
    """
    pt = as_point(p)
    m_plus = eval_m(ctx, pt, 0.0, +1)
    m_minus = eval_m(ctx, pt, 0.0, -1)
    c, cp, s, sp = _ode_cs(ctx, pt.z, x_probe)
    psi_p, dpsi_p = c + m_plus * s, cp + m_plus * sp
    psi_m, dpsi_m = c + m_minus * s, cp + m_minus * sp
    w = psi_m * dpsi_p - dpsi_m * psi_p
    g = eval_green(ctx, pt)
    return float(abs(w + 1.0 / g))


_STENCIL_STEP = 1e-2


def structural_identity_check(ctx: WeylContext, p, x: float) -> float:
    """Residual |G N + H^2 - Y| with N = (p - z) G - (1/2) d2G/dx2.

    The second x-derivative of G is taken by a five-point central stencil
    of step _STENCIL_STEP on the trajectory, so the check is an independent
    consistency probe of the flow, not an algebraic identity.
    """
    h = _STENCIL_STEP
    pt = as_point(p)
    z = pt.z
    if not (ctx.trajectory.x_min + 2 * h <= x <= ctx.trajectory.x_max - 2 * h):
        raise ValueError("x = %g too close to the trajectory boundary for a "
                         "width-%g stencil" % (x, h))
    g_at = lambda t: eval_G(ctx, pt, t)
    d2g = (-g_at(x - 2 * h) + 16 * g_at(x - h) - 30 * g_at(x)
           + 16 * g_at(x + h) - g_at(x + 2 * h)) / (12.0 * h * h)
    pval = float(ctx.p_of(x))
    g = g_at(x)
    n_val = (pval - z) * g - 0.5 * d2g
    h_val = eval_H(ctx, pt, x)
    y = eval_Y(ctx.band, pt)
    return float(abs(g * n_val + h_val * h_val - y))


# ---------------------------------------------------------------------------
# pole classification
# ---------------------------------------------------------------------------

class PoleTag(str, Enum):
    M_PLUS = "M_plus"
    M_MINUS = "M_minus"
    EDGE_MHAT = "edge_Mhat"


@dataclass(frozen=True)
class PoleClassification:
    """Per-gap ownership of the divisor pole at x = 0."""

    tags: tuple


_EDGE_REL = 1e-12
_AMBIGUOUS_TOL = 1e-5


def classify_poles(ctx: WeylContext) -> PoleClassification:
    """Tag each divisor point: pole of m+, pole of m-, or edge (both roots).

    Interior mu_j: the sign whose numerator H +- Y^{1/2} survives keeps the
    pole.  On an honest trajectory H(mu_j, 0) = sigma_j Y^{1/2}(mu_j), so the
    tag follows sigma_j and the other numerator vanishes; the comparison is
    still made numerically, and if neither numerator is below 1e-5
    |Y^{1/2}(mu_j)| the divisor data is inconsistent -> AmbiguousPole.  The
    scale is |Y^{1/2}(mu_j)| itself, which shrinks as gaps are added, so the
    test does not depend on the gap count.
    """
    tags = []
    mu = ctx.trajectory.mu_at(0.0)
    for j in range(ctx.band.gap_count):
        lo, hi = ctx.band.gaps[j]
        width = hi - lo
        if min(mu[j] - lo, hi - mu[j]) <= _EDGE_REL * width:
            tags.append(PoleTag.EDGE_MHAT)
            continue
        zj = complex(mu[j])
        h = eval_H(ctx, zj, 0.0)
        sq = eval_sqrtY(ctx.band, zj)
        a = abs(h + sq)   # numerator of m+
        b = abs(h - sq)   # numerator of m-
        scale = abs(sq)
        if min(a, b) >= _AMBIGUOUS_TOL * scale:
            raise AmbiguousPole(
                "neither Weyl numerator vanishes at mu_%d = %g (|H+Y|=%.2g, "
                "|H-Y|=%.2g, |Y^1/2|=%.2g); divisor data degenerate"
                % (j + 1, mu[j], a, b, scale))
        tags.append(PoleTag.M_PLUS if a > b else PoleTag.M_MINUS)
    return PoleClassification(tuple(tags))


# ---------------------------------------------------------------------------
# probe-sweep export
# ---------------------------------------------------------------------------

def probe_csv(ctx: WeylContext, points, xs, path) -> None:
    """CSV sweep of psi_+-, m_+, g over points x positions; one panel-engine
    pass per point, rows in the order of ``xs``."""
    xs = np.asarray(xs, dtype=float)
    with open(path, "w") as fh:
        fh.write("re_z,im_z,side,x,re_psi_plus,im_psi_plus,re_psi_minus,"
                 "im_psi_minus,re_m_plus,im_m_plus,re_g,im_g\n")
        for pt in map(as_point, points):
            g = eval_green(ctx, pt)
            pref, w = _psi_parts(ctx, pt, xs)
            mp = [eval_m(ctx, pt, x, +1) for x in xs.tolist()]
            # psi_+, psi_- and m_+, each viewed as its (re, im) column pair
            vals = np.column_stack([pref * np.exp(w), pref * np.exp(-w), mp])
            fmt = ("%.17g,%.17g,%s," % (pt.z.real, pt.z.imag, pt.side.value)
                   + "%.17g," * 7 + "%.17g,%.17g\n" % (g.real, g.imag))
            rows = np.column_stack([xs, vals.view(float)]).tolist()
            fh.writelines(fmt % tuple(row) for row in rows)
