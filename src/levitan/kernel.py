"""Transformation kernels between a perturbed operator and its finite-gap
background.

Let p be the background potential and q = p + q_tilde a perturbation of it
with finite second moment.  The transformation operator maps background Weyl
solutions to Jost solutions of the perturbed problem,

    phi_+(z, x) = psi_+(z, x) + int_x^inf K_+(x, s) psi_+(z, s) ds,

and K_+ solves a Volterra-type integral equation whose driving kernel is the
band-edge residue sum

    D_+(x, y, r, s) = -1/4 sum_{k} f_+(E_k, x, y, r, s).

Everything in this module leans on one structural fact: each edge term
factorizes over its four position arguments,

    f_+(E_k, x, y, r, s) = (-1)^k b_k(x) b_k(y) b_k(r) b_k(s),

with a real amplitude b_k(t) = L_k(t) prod_j (|E_k - mu_j(t)| S_kj)^{1/2},
each factor normalized by ``BandStructure.edge_scale``, so b_k^4 / (-1)^k
is prod_j |E_k - mu_j|^2 / prod_{m != k} (E_k - E_m), and no factor
overflows however many gaps there are.  The sign L_k has a closed form in
the Dubrovin angles: for the lower edge of gap j, E_{2j-1} - mu_j =
-2 w_j sin^2(theta_j / 2), so the analytic amplitude is a multiple of
sin(theta_j / 2) (cos for the upper edge E_2j).  L_k(t) is the sign of that
factor, read off the branch index floor(theta_j / pi) with the right-limit
convention of the sheet sign; L_0 = 1 (no mu_j reaches E_0).  On the flow
(Omega > 0) the sign flips at each touch of mu_j on E_k; a tangential touch
keeps it.  The sign is the limit phase of the oscillating exponential of
psi_+ as z approaches the edge through the adjacent band, up to a constant
factor that cancels in every product of four amplitudes.  The factorized
form lets the solver build each lattice row's factors from slices of one
(edges, positions) amplitude array, filled by one pass over the divisor, so
no factor over the whole lattice is ever stored.

The - side is never solved directly: all minus-side objects come from the
mirror substitution x -> -x applied to trajectory and perturbation, under
which K_-(x, s) = K~_+(-x, -s) and phi_-(z, x) = phi~_+(z, -x) (a tilde marks
the mirrored problem).  The one deliberate exception is jost_direct, which
marches the Volterra equation of either sign natively, so that it stays an
independent cross-validation oracle for the kernel route.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import RectBivariateSpline

from ._numerics import rev_cumtrapz, write_rows
from .errors import MomentViolation, NoConvergence
from .spectral import as_point
from .weyl import (WeylContext, _check_sign, _psi_parts, eval_green,
                   psi_on_grid)

__all__ = [
    "PerturbationProfile",
    "GridParams",
    "KernelGrid",
    "KernelBoundReport",
    "edge_amplitudes",
    "eval_D",
    "solve_kernel",
    "kernel_bound_check",
    "jost_from_kernel",
    "jost_direct",
    "jost_profile",
    "tail_cutoff",
    "moment_check",
]


# ---------------------------------------------------------------------------
# perturbation profiles
# ---------------------------------------------------------------------------

_TABLE_END_TOL = 1e-12


@dataclass(frozen=True)
class PerturbationProfile:
    """A real, continuous perturbation q_tilde with finite second moment.

    Three forms: a Gaussian bump, a polynomial on a compact support (must
    vanish at the support ends to stay continuous), and a linear-interpolated
    sample table (same endpoint condition).  ``support`` is the effective
    support used for truncations; for the Gaussian it is cut where the tail
    drops below 1e-18 of the amplitude.
    """

    form: str
    params: tuple
    support: tuple

    @classmethod
    def gaussian_bump(cls, amplitude: float, center: float, width: float):
        if width <= 0.0:
            raise ValueError("width must be positive")
        r = width * math.sqrt(2.0 * math.log(1e18)) if amplitude else 1.0
        return cls("gaussian_bump", (float(amplitude), float(center), float(width)),
                   (center - r, center + r))

    @classmethod
    def compact_poly(cls, coeffs, support):
        a, b = float(support[0]), float(support[1])
        if not a < b:
            raise ValueError("support must be a nonempty interval")
        coeffs = tuple(float(c) for c in coeffs)
        scale = max(1.0, max(abs(np.polyval(coeffs, t))
                             for t in np.linspace(a, b, 64)))
        if abs(np.polyval(coeffs, a)) > _TABLE_END_TOL * scale or \
                abs(np.polyval(coeffs, b)) > _TABLE_END_TOL * scale:
            raise ValueError("polynomial must vanish at the support ends "
                             "(q_tilde is required to be continuous)")
        return cls("compact_poly", coeffs, (a, b))

    @classmethod
    def from_table(cls, xs, vals):
        xs = tuple(float(v) for v in xs)
        vals = tuple(float(v) for v in vals)
        if len(xs) != len(vals) or len(xs) < 2:
            raise ValueError("need matching xs/vals with at least two samples")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("xs must be strictly increasing")
        scale = max(1.0, max(abs(v) for v in vals))
        if abs(vals[0]) > _TABLE_END_TOL * scale or abs(vals[-1]) > _TABLE_END_TOL * scale:
            raise ValueError("table must start and end at zero "
                             "(q_tilde is required to be continuous)")
        return cls("table", (xs, vals), (xs[0], xs[-1]))

    @classmethod
    def zero(cls):
        return cls.from_table((-1.0, 1.0), (0.0, 0.0))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.form == "gaussian_bump":
            amp, c, w = self.params
            out = amp * np.exp(-0.5 * ((x - c) / w) ** 2)
        elif self.form == "compact_poly":
            a, b = self.support
            inside = (x >= a) & (x <= b)
            out = np.where(inside, np.polyval(self.params, x), 0.0)
        else:
            xs, vals = self.params
            out = np.interp(x, xs, vals, left=0.0, right=0.0)
        return out if out.ndim else float(out)

    @cached_property
    def moment_value(self) -> float:
        return moment_check(self, self.support)

    def mirrored(self) -> "PerturbationProfile":
        """The profile of the space-reflected problem, q~(x) = q(-x)."""
        if self.form == "gaussian_bump":
            amp, c, w = self.params
            return PerturbationProfile.gaussian_bump(amp, -c, w)
        if self.form == "compact_poly":
            deg = len(self.params) - 1
            coeffs = tuple(c * (-1.0) ** (deg - i)
                           for i, c in enumerate(self.params))
            a, b = self.support
            return PerturbationProfile("compact_poly", coeffs, (-b, -a))
        xs, vals = self.params
        return PerturbationProfile(
            "table", (tuple(-v for v in xs[::-1]), vals[::-1]),
            (-self.support[1], -self.support[0]))


def moment_check(perturbation, window) -> float:
    """int over window of (1 + x^2) |q_tilde(x)| dx by adaptive quadrature."""
    a, b = float(window[0]), float(window[1])
    if not a < b:
        return 0.0
    pts = [p for p in perturbation.support if a < p < b]
    val, _ = quad(lambda x: (1.0 + x * x) * abs(perturbation(x)), a, b,
                  points=pts or None, limit=400, epsabs=1e-12, epsrel=1e-10)
    return float(val)


# ---------------------------------------------------------------------------
# edge amplitudes b_k(t)
# ---------------------------------------------------------------------------

# the signs of sin(theta / 2) and cos(theta / 2) on the branch
# k = floor(theta / pi), by k mod 4: (-1)^(k // 2) and (-1)^((k + 1) // 2)
_HALF_ANGLE_SIGNS = np.array([[1, 1], [1, -1], [-1, -1], [-1, 1]], dtype=float)


def _amplitudes(ctx: WeylContext, edges: slice, ts: np.ndarray) -> np.ndarray:
    """b_k(ts) for each k in the slice ``edges`` of the edge list, shape
    (edges, len(ts)), from one spline evaluation of the angles.

    L_k(t) is the sign of the own-gap factor, sin(theta_j / 2) for E_{2j-1}
    and cos(theta_j / 2) for E_2j, read off the branch index
    floor(theta_j / pi).  A position on a touch takes the sign to its right
    (the amplitude vanishes there anyway); E_0 keeps L_0 = 1.
    """
    traj = ctx.trajectory
    theta = traj.theta_at(ts)
    amp = np.sqrt(np.prod(np.abs(ctx.band.edge_array[edges, None, None]
                                 - traj.mu_of_theta(theta))
                          * ctx.band.edge_scale[edges, None], axis=-1))
    k = np.floor(theta / math.pi).astype(int)
    sign = np.ones((len(k), 2 * k.shape[1] + 1))
    sign[:, 1:] = _HALF_ANGLE_SIGNS[k % 4].reshape(len(k), -1)
    return amp * sign[:, edges].T


def edge_amplitudes(ctx: WeylContext, edge_index: int, ts) -> np.ndarray:
    """b_k at an array of positions, a fresh array on every call (real;
    modulus prod_j (|E_k - mu_j| S_kj)^{1/2}, sign that of sin(theta_j / 2)
    for E_k = E_{2j-1}, cos(theta_j / 2) for E_k = E_2j)."""
    if not 0 <= edge_index < len(ctx.band.edges):
        raise ValueError("edge index %d out of range" % edge_index)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    return _amplitudes(ctx, slice(edge_index, edge_index + 1), ts)[0]


# ---------------------------------------------------------------------------
# residues and D
# ---------------------------------------------------------------------------

def eval_D(ctx: WeylContext, x, y, r, s, sign="+"):
    """D_+- at four positions: -1/4 times the sum of edge terms.

    The positions are floats, giving a float, or equal-shape arrays, giving
    D at each index from one amplitude evaluation of all of them; every
    entry is the float its scalar call gives.  The - side is the + side of
    the mirrored problem evaluated at negated positions.
    """
    pos = np.array([x, y, r, s], dtype=float)
    if _check_sign(sign) < 0:
        ctx = ctx.mirrored()
        pos = -pos
    b = _amplitudes(ctx, slice(None), pos.reshape(-1))
    b = b.reshape((len(b),) + pos.shape)
    # f_+(E_k) = (-1)^k b_k(x) b_k(y) b_k(r) b_k(s); pairwise grouping keeps
    # the (x,y,r,s) <-> (y,x,s,r) exchange exact, so the sum is symmetric.
    # One edge term at a time, in edge order: the running sum along the
    # edge axis is the same float as adding the separate edge terms in turn
    # (never np.sum, which adds pairwise).  Its first row is E_0's term, a
    # product of amplitudes >= +0, so starting from it rather than from 0.0
    # changes no sign of zero
    terms = (b[:, 0] * b[:, 1]) * (b[:, 2] * b[:, 3])
    terms[1::2] = -terms[1::2]
    total = -0.25 * np.cumsum(terms, axis=0)[-1]
    return float(total) if pos.ndim == 1 else total


# ---------------------------------------------------------------------------
# the kernel equation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridParams:
    """Lattice parameters for the kernel solve.

    ``x0`` anchors the left end (for the - side: the mirrored problem's left
    end, i.e. minus the physical right anchor).  ``x_max`` overrides the
    automatic tail truncation.
    """

    x0: float
    h: float = 0.05
    x_max: float = None
    tail_eps: float = 1e-12

    def __post_init__(self):
        if self.h <= 0.0:
            raise ValueError("h must be positive")
        if self.x_max is not None and self.x_max <= self.x0:
            raise ValueError("x_max = %g must exceed x0 = %g"
                             % (self.x_max, self.x0))


@dataclass
class KernelGrid:
    """K on the rotated triangular lattice.

    Internally the solver works with H(u, v) = K(u - v, u + v) on
    u = x0 + m h (m = 0..M), v = l h (l = 0..m); ``values[m, l]`` stores H,
    ``half_width`` is M.  K(x, y) is nonzero only for x <= y <= 2 x_max - x
    (and the mirror image of that statement on the - side).

    ``triangle`` maps the stored triangle back to K: index pairs (i, l),
    ordered by x and then y, with K(x_i, x_{i+2l}) = H[i+l, l] for
    x_i = positions[i] (i = 0..M, l = 0..M-i): row i of K, step 2h in y.
    """

    x0: float
    h: float
    half_width: int
    values: np.ndarray
    iterations: int
    final_delta: float
    x_max: float
    c_const: float
    side: str = "+"

    @cached_property
    def positions(self) -> np.ndarray:
        return self.x0 + self.h * np.arange(2 * self.half_width + 1)

    @cached_property
    def triangle(self) -> tuple:
        i, c = np.triu_indices(self.half_width + 1)
        return i, c - i

    @cached_property
    def _interp(self):
        # Bicubic between lattice nodes: off-lattice evaluation must stay
        # twice differentiable or finite-difference checks of phi would see
        # interpolation kinks instead of the equation's residual.  A lattice
        # with M < 3 has too few nodes for that and takes degree M.
        v = self.h * np.arange(self.half_width + 1)
        k = min(3, self.half_width)
        return RectBivariateSpline(self.positions[:len(v)], v, self.values,
                                   kx=k, ky=k, s=0)

    def to_csv(self, path) -> None:
        """Upper-triangular rows x,y,K over the native lattice, ordered by x
        and then y; every float through %.17g, as f17 writes it.  Each of
        the 2M + 1 side-signed positions goes through %.17g once, and its
        text serves every row that uses it; the rows are written a block
        at a time by ``write_rows``."""
        i, l = self.triangle
        pos = -self.positions if self.side == "-" else self.positions
        text = np.array(["%.17g" % v for v in pos.tolist()], dtype=object)
        rows = np.column_stack([text[i], text[i + 2 * l],
                                self.values[i + l, l].astype(object)])
        with open(path, "w") as fh:
            fh.write("x,y,K\n")
            write_rows(fh, "%s,%s,%.17g\n", rows)

    def metadata(self) -> dict:
        return {"iterations": self.iterations,
                "final_delta": self.final_delta,
                "h": self.h,
                "X_max": self.x_max,
                "C_const": self.c_const}

    def write_metadata(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.metadata(), fh, indent=1, sort_keys=True)
            fh.write("\n")


def tail_cutoff(perturbation: PerturbationProfile, x0: float, h: float,
              tail_eps: float) -> float:
    """Smallest lattice point X with int_X^inf |q| < tail_eps int_{x0}^inf |q|."""
    hi = max(perturbation.support[1], x0 + h)
    grid = np.arange(x0, hi + h, 0.5 * h)
    vals = np.abs(perturbation(grid))
    tail = rev_cumtrapz(vals, 0.5 * h)
    if tail[0] == 0.0:
        return x0 + 4 * h
    idx = int(np.argmax(tail < tail_eps * tail[0]))
    k = max(1, math.ceil((grid[idx] - x0) / h - 1e-9))
    return x0 + k * h


def solve_kernel(ctx: WeylContext, perturbation: PerturbationProfile, sign,
                 grid_params: GridParams, tol: float = 1e-9,
                 max_iter: int = 50) -> KernelGrid:
    """Solve the kernel equation by one march over the rows, from X down.

    In rotated coordinates the equation reads

        H(u, v) = -2 int_u^X q(t) D(u-v, t, t, u+v) dt
                  -4 int_u^X da int_0^v db q(a-b) D(u-v, a-b, a+b, u+v) H(a, b)

    discretized by the trapezoid rule in b along each row and the reverse
    trapezoid rule in a over the rows.  With D factorized over the edges
    (real amplitudes b_k, c_k = -(-1)^k / 4),

        H(u, v) = -2 sum_k c_k b_k(u-v) b_k(u+v) (phi_k(u) + 2 W_k(u, v)),

    where phi_k(u) = int_u^X q b_k^2 and W_k is the double integral of
    q(a-b) b_k(a-b) b_k(a+b) H(a, b).  Row u needs only the rows a >= u,
    which enter W_k through one running (edges, M+1) sum, so the rows are
    solved in turn from u = X (where H = 0) down to u = x0, each as one
    vectorized update over all edges.  A row enters its own W_k with the
    trapezoid's end weight; that implicit part is solved by a fixed point
    started from the row above, stopped once the row moves less than
    ``tol``.  ``iterations`` and ``final_delta`` are the largest step count
    and last change over the rows; a row still moving after ``max_iter``
    steps raises NoConvergence with its delta history.  ``tol`` must be
    positive and ``max_iter`` at least 1, else ValueError.
    """
    if tol <= 0.0 or max_iter < 1:
        raise ValueError("tol must be positive and max_iter at least 1, got "
                         "tol = %g, max_iter = %d" % (tol, max_iter))
    if _check_sign(sign) < 0:
        grid = solve_kernel(ctx.mirrored(), perturbation.mirrored(), "+",
                            grid_params, tol=tol, max_iter=max_iter)
        grid.side = "-"
        return grid

    if not np.isfinite(perturbation.moment_value):
        raise MomentViolation(
            "second moment of the perturbation is not finite "
            "(%r)" % (perturbation.moment_value,))

    x0, h = grid_params.x0, grid_params.h
    x_max = grid_params.x_max
    if x_max is None:
        x_max = tail_cutoff(perturbation, x0, h, grid_params.tail_eps)
    m_steps = max(1, round((x_max - x0) / h))
    x_max = x0 + m_steps * h
    pos = x0 + h * np.arange(2 * m_steps + 1)

    lo_need = min(x0, 0.0)
    hi_need = max(float(pos[-1]), 0.0)
    traj = ctx.trajectory
    if not (traj.x_min <= lo_need and traj.x_max >= hi_need):
        raise ValueError(
            "trajectory range [%g, %g] does not cover the kernel lattice "
            "[%g, %g]" % (traj.x_min, traj.x_max, lo_need, hi_need))

    qt = np.asarray(perturbation(pos), dtype=float)
    amps = _amplitudes(ctx, slice(None), pos)
    c2 = 0.5 * (-1.0) ** np.arange(len(amps))[:, None]        # -2 c_k
    phi = rev_cumtrapz(qt[:m_steps + 1] * amps[:, :m_steps + 1] ** 2, h,
                       axis=1)

    values = np.zeros((m_steps + 1, m_steps + 1))
    # 2 W_k on the current row, less the row's own term
    run = np.zeros((len(amps), m_steps + 1))
    row = np.zeros(m_steps + 1)
    most, worst = 0, 0.0
    for m in range(m_steps, -1, -1):
        outer = amps[:, m::-1] * amps[:, m:2 * m + 1]
        inner = (h * qt[m::-1]) * outer
        outer *= c2
        drive = np.einsum("kl,kl->l", outer, phi[:, m:m + 1] + run[:, :m + 1])
        outer *= h
        row = row[:m + 1]
        deltas = []
        while True:
            # trapezoid in b from 0 to each l along the row
            w = inner * row
            w = w.cumsum(axis=1) - 0.5 * (w + w[:, :1])
            if deltas and deltas[-1] < tol:
                break
            if len(deltas) == max_iter:
                raise NoConvergence(
                    "kernel row u = %g did not contract below %g in %d "
                    "steps" % (pos[m], tol, max_iter), deltas=deltas)
            new = drive + np.einsum("kl,kl->l", outer, w)
            deltas.append(float(abs(new - row).max()))
            row = new
        values[m, :m + 1] = row
        run[:, :m + 1] += (2.0 * h) * w
        most, worst = max(most, len(deltas)), max(worst, deltas[-1])

    # scalar pow per edge: numpy's vectorized pow can differ in the last bit
    c_const = 0.25 * float(np.sum(
        [a ** 4 for a in np.max(np.abs(amps), axis=1).tolist()]))
    return KernelGrid(x0=x0, h=h, half_width=m_steps, values=values,
                      iterations=most, final_delta=worst,
                      x_max=x_max, c_const=c_const, side="+")


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelBoundReport:
    """Decay-bound audit of a solved kernel.

    ``violations`` lists every lattice point where |K(x,y)| exceeds
    C(x) Q(x+y) as ("pointwise", x, y, |K|, bound), ordered by x and then y,
    then every failing L2 row as ("L2", x, lhs, rhs), ordered by x; empty on
    a passing run.  ``c1_fitted`` is the observed constant of the derivative
    bound (reported, never asserted: the true constant is existential).
    """

    c_const: float
    c_of_x: np.ndarray
    q_plus: np.ndarray
    violations: list
    c1_fitted: float
    c_of_x_monotone: bool


def kernel_bound_check(ctx: WeylContext, grid: KernelGrid,
                       perturbation: PerturbationProfile) -> KernelBoundReport:
    """Audit a solved kernel against the decay estimates of the
    transformation operator (Marchenko 1986, ch. 1), with c = grid.c_const,
    Q(w) = int_{w/2}^inf |q| and C(x) = 2c exp(4c int_x^inf 2(s - x)|q| ds):

    - |K(x, y)| <= C(x) Q(x + y) at every stored lattice point;
    - int |K(x, .)|^2 dy <= C(x)^2 Q(2x) int_x^inf 2(s - x)|q| ds by rows;
    - ``c1_fitted``, the least c1 with max(|K_x|, |K_y|) <= c1 (|q(u)| +
      Q(2u)), u = (x + y)/2, at interior nodes: observed, never asserted.

    Every point a bound needs is a node of the tail grid (x = x_i and
    u = x_{i+l} on the triangle), so the bounds come from two node vectors,
    int_t^inf |q| and int_t^inf s|q|, without interpolation.
    """
    if grid.side == "-":
        perturbation = perturbation.mirrored()

    h, m, pos = grid.h, grid.half_width, grid.positions
    # Tail integrals at the solver's own trapezoid resolution and node
    # alignment, so that discretization error cancels between |K| and the
    # bound instead of producing spurious far-tail violations.
    n_tail = max(2 * m, math.ceil((perturbation.support[1] - pos[0]) / h)) + 1
    tgrid = pos[0] + h * np.arange(n_tail + 1)
    aq = np.abs(perturbation(tgrid))
    r1 = rev_cumtrapz(aq, h)[:m + 1]              # int_t^inf |q| = Q(2t)
    r2 = rev_cumtrapz(tgrid * aq, h)[:m + 1]      # int_t^inf s |q|

    c = grid.c_const
    xs = pos[:m + 1]
    tail = 2.0 * (r2 - xs * r1)
    c_of_x = 2.0 * c * np.exp(4.0 * c * tail)

    i, l = grid.triangle
    u = i + l
    kabs = np.abs(grid.values[u, l])
    bound = c_of_x[i] * r1[u]
    bad = np.nonzero(kabs > bound + 1e-12)[0]
    ib, ub = i[bad], u[bad]
    violations = [("pointwise",) + row for row in zip(
        pos[ib].tolist(), pos[2 * ub - ib].tolist(), kabs[bad].tolist(),
        bound[bad].tolist())]

    # the trapezoid in y (step 2h) over row i: its plain sum less half of
    # the two ends H[i, 0] and H[m, m - i]
    ends = grid.values[:, 0] ** 2 + grid.values[m, ::-1] ** 2
    sums = np.bincount(i, weights=kabs ** 2, minlength=m + 1)
    lhs = 2.0 * h * (sums - 0.5 * ends)
    rhs = c_of_x ** 2 * r1 * tail
    violations += [("L2", float(xs[j]), float(lhs[j]), float(rhs[j]))
                   for j in np.nonzero(lhs > rhs + 1e-12)[0]]

    # centered differences at the interior nodes (v > 0, x >= x0 + 2h,
    # u < X), where max(|K_x|, |K_y|) = (|H_u| + |H_v|) / 2
    inner = (l >= 1) & (i >= 2) & (u < m)
    ui, li = u[inner], l[inner]
    vv = grid.values
    dh = (np.abs(vv[ui + 1, li] - vv[ui - 1, li])
          + np.abs(vv[ui, li + 1] - vv[ui, li - 1]))
    floor = (aq[:m + 1] + r1)[ui]
    ok = floor > 1e-14
    c1_fit = float(np.max(dh[ok] / floor[ok], initial=0.0)) / (4.0 * h)

    mono = bool(np.all(np.diff(c_of_x) <= 1e-12 * max(1.0, c_of_x[0])))
    return KernelBoundReport(c_const=c, c_of_x=np.column_stack([xs, c_of_x]),
                             q_plus=np.column_stack([2.0 * xs, r1]),
                             violations=violations, c1_fitted=c1_fit,
                             c_of_x_monotone=mono)


# ---------------------------------------------------------------------------
# Jost solutions: two independent routes
# ---------------------------------------------------------------------------

def jost_from_kernel(ctx: WeylContext, grid: KernelGrid, p, x: float,
                     sign) -> complex:
    """phi via the transformation operator: psi plus the K-smeared tail;
    x must not lie beyond the lattice's anchor x0 (-x0 on the - side)."""
    sgn = _check_sign(sign)
    if grid.side != ("+" if sgn > 0 else "-"):
        raise ValueError("grid was solved for the %s side" % grid.side)
    if sgn * x < grid.x0 - 1e-9 * grid.h:
        lo, hi = sorted((sgn * grid.x0, sgn * grid.x_max))
        raise ValueError("x = %g is %s of the kernel lattice [%g, %g]"
                         % (x, "left" if sgn > 0 else "right", lo, hi))
    if sgn < 0:
        ctx, x = ctx.mirrored(), -x
    h = grid.h
    n = int(math.floor((grid.x_max - x) / h + 1e-9))
    if n <= 0:
        return psi_on_grid(ctx, p, np.array([x]), +1)[0]
    sgrid = x + 2.0 * h * np.arange(n + 1)
    psi = psi_on_grid(ctx, p, sgrid, +1)
    i_x = (x - grid.x0) / h
    if abs(i_x - round(i_x)) < 1e-9:
        i0 = int(round(i_x))
        js = np.arange(n + 1)
        kv = grid.values[i0 + js, js]
    else:
        kv = grid._interp.ev(0.5 * (x + sgrid), 0.5 * (sgrid - x))
    return complex(psi[0] + np.trapezoid(kv * psi, dx=2.0 * h))


def jost_profile(ctx: WeylContext, grid: KernelGrid, p):
    """phi on the grid's own x-lattice, as (positions, values).

    Equivalent to calling jost_from_kernel at every lattice point up to the
    truncation radius, but psi is integrated once over the whole lattice and
    shared across rows, so the profile costs one quadrature pass instead of
    one per point.  The pipeline's ``oracle_equivalence`` row reads its
    kernel-route phi off this profile, at lattice points 0 and M // 2.
    """
    pos, m = grid.positions, grid.half_width
    psi = psi_on_grid(ctx.mirrored() if grid.side == "-" else ctx, p, pos, +1)
    # the trapezoid in s (step 2h) over row i of the triangle: its plain
    # sum less half of the two ends K(x_i, x_i) and K(x_i, x_{2m-i})
    i, l = grid.triangle
    w = grid.values[i + l, l] * psi[i + 2 * l]
    sums = (np.bincount(i, weights=w.real, minlength=m + 1)
            + 1j * np.bincount(i, weights=w.imag, minlength=m + 1))
    ends = grid.values[:, 0] * psi[:m + 1] + grid.values[m, ::-1] * psi[m:][::-1]
    phi = psi[:m + 1] + 2.0 * grid.h * (sums - 0.5 * ends)
    if grid.side == "-":
        return -pos[m::-1], phi[::-1]
    return pos[:m + 1].copy(), phi


# jost_direct's trapezoid step
_JOST_STEP = 0.02


def jost_direct(ctx: WeylContext, perturbation: PerturbationProfile, p, x,
                sign, diagnostics: bool = False):
    """phi at a float x, or at each x of a 1-D array, by one march of its
    Volterra equation,

    phi_+(x) = psi_+(x) - int_x^inf J(x, y) q(y) phi_+(y) dy,
    phi_-(x) = psi_-(x) + int_-inf^x J(x, y) q(y) phi_-(y) dy,

    with J(x, y) = g(z) [psi_+(y) psi_-(x) - psi_+(x) psi_-(y)].  Both signs
    are solved natively (no mirror trick): this function is the independent
    oracle against the kernel route, so it must not share its machinery.
    Each x has its own trapezoid grid out past the support; psi_+- on all of
    them come from one product-route pass, prefactor exp(+-W).  J(y, y) = 0
    drops a node's own trapezoid term, so the rule is explicit (Linz 1985,
    ch. 7): marching in from the far end, each phi follows from the running
    moments int psi_+- q phi over the nodes passed.  With ``diagnostics`` it
    returns (phi, deltas), one max |phi - psi| per x.
    """
    h, sgn, pt = _JOST_STEP, _check_sign(sign), as_point(p)
    gs = sgn * eval_green(ctx, pt)
    far = perturbation.support[1] if sgn > 0 else perturbation.support[0]
    xs = np.asarray(x, dtype=float)
    # each x's grid in march order, from the far end in to x
    grids = [xi + sgn * h * np.arange(
                 math.ceil(max(h, sgn * (far - xi)) / h - 1e-12), -1, -1)
             for xi in xs.reshape(-1).tolist()]
    sizes = [len(ys) for ys in grids]
    ends = np.cumsum(sizes)
    starts = ends - sizes
    ys = np.concatenate(grids)
    pref, w = _psi_parts(ctx, pt, ys)
    psi_p, psi_m = pref * np.exp(w), pref * np.exp(-w)
    own = psi_p if sgn > 0 else psi_m
    hq = h * np.asarray(perturbation(ys), dtype=float)
    hq[starts] *= 0.5                   # the far end's trapezoid weight
    nodes = list(zip(own.tolist(), psi_p.tolist(), psi_m.tolist(),
                     (psi_p * hq).tolist(), (psi_m * hq).tolist()))
    phi = []
    for i, j in zip(starts.tolist(), ends.tolist()):
        t1 = t2 = 0j
        for o, a, b, wa, wb in nodes[i:j]:
            f = o - gs * (b * t1 - a * t2)
            t1 += wa * f
            t2 += wb * f
            phi.append(f)
    phi = np.array(phi)
    val = complex(phi[-1]) if xs.ndim == 0 else phi[ends - 1]
    if diagnostics:
        gaps = np.maximum.reduceat(np.abs(phi - own), starts)
        return val, tuple(gaps.tolist())
    return val
