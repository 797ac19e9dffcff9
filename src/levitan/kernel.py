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
overflows however many gaps there are.  The own-gap factor has a closed
form in the Dubrovin angles: for the lower edge of gap j, E_{2j-1} - mu_j =
-2 w_j sin^2(theta_j / 2), so the analytic amplitude is a multiple of
sin(theta_j / 2) (cos for the upper edge E_2j, where E_2j - mu_j =
2 w_j cos^2(theta_j / 2)).  That factor is taken as it stands, with its
sign: it is exact however thin the gap, where the subtraction E_k - mu_j
would cancel, and L_k(t) is its sign; L_0 = 1 (no mu_j reaches E_0).  On
the flow (Omega > 0) the sign flips at each touch of mu_j on E_k; a
tangential touch keeps it.  The sign is the limit phase of the oscillating
exponential of psi_+ as z approaches the edge through the adjacent band,
up to a constant factor that cancels in every product of four amplitudes.
The factorized form lets the solver build each K-row's factors from
slices of one (edges, positions) amplitude array, filled by one pass over
the divisor, so no factor over the whole lattice is ever stored.

The kernel route is the + side only: K_-(x, s) = K~_+(-x, -s) and
phi_-(z, x) = phi~_+(z, -x), where a tilde marks the problem solved on
``ctx.mirrored()`` and ``perturbation.mirrored()``.  jost_direct alone marches
either sign natively, as the independent oracle for that recipe.  The module
needs numpy alone: moment_check is a closed form, and K is read only on its
nodes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._numerics import f17_column, rev_cumtrapz, write_rows
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
        scale = max(1.0, *np.abs(np.polyval(coeffs, np.linspace(a, b, 64))))
        if abs(np.polyval(coeffs, a)) > _TABLE_END_TOL * scale or \
                abs(np.polyval(coeffs, b)) > _TABLE_END_TOL * scale:
            raise ValueError("polynomial must vanish at the support ends "
                             "(q_tilde is required to be continuous); coeffs "
                             "come highest degree first, as np.polyval takes them")
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

    def tails(self, t) -> np.ndarray:
        """int_t^inf of q_tilde, |q_tilde|, s |q_tilde| and s^2 |q_tilde| at
        each t of a float or an array (+-inf allowed), shape (4,) + t's,
        exact up to rounding (inf on overflow): the Gaussian's by erfc and
        exp, the other forms' by Gauss-Legendre on pieces split where q_tilde
        changes sign and at t, exact: s^2 |q_tilde| is a polynomial there."""
        t = np.asarray(t, dtype=float)
        if self.form == "gaussian_bump":
            amp, c, w = self.params     # i_j = int_t^inf (s - c)^j q / amp
            i1 = w * w * np.exp(-0.5 * ((t - c) / w) ** 2)
            i0 = w * math.sqrt(0.5 * math.pi) * np.vectorize(
                math.erfc, otypes=[float])((t - c) / (w * math.sqrt(2.0)))
            i2 = w * w * i0 + np.where(i1 > 0.0, t - c, 0.0) * i1  # 0, not nan
            with np.errstate(over="ignore"):
                return abs(amp) * np.array([np.sign(amp) * i0, i0, i1 + c * i0,
                                            i2 + c * (2.0 * i1 + c * i0)])
        if self.form == "compact_poly":
            # a leading 0 makes () a polynomial; roots outside clip to the ends
            ends = np.append(np.roots((0.0,) + self.params).real, self.support)
        else:
            ends, vals = (np.array(v) for v in self.params)
            i = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
            ends = np.append(ends, ends[i] + (ends[i + 1] - ends[i])
                             * (vals[i] / (vals[i] - vals[i + 1])))
        t = np.clip(t, *self.support)
        ends = np.unique(np.append(np.clip(ends, *self.support), t))
        # exact to degree 2n - 1 >= len(params) + 2 > deg s^2 q (a table: linear)
        x, wts = np.polynomial.legendre.leggauss(len(self.params) // 2 + 2)
        a, b = ends[:-1, None], ends[1:, None]
        s = 0.5 * ((a + b) + (b - a) * x)
        q = self(s)
        f = 0.5 * (b - a) * np.array([q, abs(q), s * abs(q), s * s * abs(q)]) @ wts
        at = np.unique(t)               # the pieces between them summed pairwise
        part = np.add.reduceat(np.hstack([f, np.zeros((4, 1))]),
                               np.searchsorted(ends, at), axis=1)
        tails = np.cumsum(part[:, ::-1], axis=1)[:, ::-1]       # from the right
        return tails[:, np.searchsorted(at, t)]

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


def moment_check(perturbation) -> float:
    """int (1 + x^2) |q_tilde| dx from the whole-line tails (inf on overflow)."""
    return sum(perturbation.tails(-math.inf)[1::2].tolist())


# ---------------------------------------------------------------------------
# edge amplitudes b_k(t)
# ---------------------------------------------------------------------------

def _amplitudes(ctx: WeylContext, edges: slice, ts: np.ndarray) -> np.ndarray:
    """b_k(ts) for each k in the slice ``edges`` of the edge list, shape
    (edges, len(ts)), from one spline evaluation of the angles.

    The own gap of E_{2j-1} enters as 2 w_j S_kj (``BandStructure.own_gap``)
    under the root and sin(theta_j / 2) outside it, that of E_2j with
    cos(theta_j / 2): closed forms, whose sign is L_k(t), so no edge is
    subtracted from its own mu_j.  E_0 has no own gap and L_0 = 1.
    """
    band, traj = ctx.band, ctx.trajectory
    theta = traj.theta_at(ts)
    mask, own = band.own_gap
    mask, own = mask[edges], own[edges]
    # (edges, gaps, positions): each own-gap entry is one contiguous row
    f = np.abs(band.edge_array[edges, None, None] - traj.mu_of_theta(theta).T)
    f *= band.edge_scale[edges, :, None]
    f[mask] = own[mask][:, None]
    half = np.ones((len(band.edges), len(theta)))
    half[1::2], half[2::2] = np.sin(0.5 * theta.T), np.cos(0.5 * theta.T)
    return np.sqrt(np.prod(f, axis=1)) * half[edges]


def edge_amplitudes(ctx: WeylContext, edge_index: int, ts) -> np.ndarray:
    """b_k at an array of positions, a fresh array on every call (real;
    modulus prod_j (|E_k - mu_j| S_kj)^{1/2}, the own gap's factor in
    closed form, a multiple of sin(theta_j / 2) for E_k = E_{2j-1} and of
    cos(theta_j / 2) for E_k = E_2j, which carries the sign)."""
    if not 0 <= edge_index < len(ctx.band.edges):
        raise ValueError("edge index %d out of range" % edge_index)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    return _amplitudes(ctx, slice(edge_index, edge_index + 1), ts)[0]


# ---------------------------------------------------------------------------
# residues and D
# ---------------------------------------------------------------------------

def eval_D(ctx: WeylContext, x, y, r, s):
    """D_+ at four positions: -1/4 times the sum of edge terms.

    The positions are floats, giving a float, or equal-shape arrays, giving
    D at each index from one amplitude evaluation of all of them; every
    entry is the float its scalar call gives.
    """
    pos = np.array([x, y, r, s], dtype=float)
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

    ``x0`` anchors the left end.  ``x_max`` overrides the automatic tail
    truncation.
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
    ``half_width`` is M.  K(x, y) is nonzero only for x <= y <= 2 x_max - x.

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

    @cached_property
    def positions(self) -> np.ndarray:
        return self.x0 + self.h * np.arange(2 * self.half_width + 1)

    @cached_property
    def triangle(self) -> tuple:
        i, c = np.triu_indices(self.half_width + 1)
        return i, c - i

    def row_trapezoid(self, w) -> np.ndarray:
        """The trapezoid in y (step 2h) along each row i of K of real or
        complex weights ``w`` at the ``triangle`` points: the row's plain
        sum less half of its two ends, y = x_i and y = x_{2M-i}."""
        i, l = self.triangle
        first = np.flatnonzero(l == 0)
        last = np.append(first[1:], len(l)) - 1
        sums = np.bincount(i, weights=w.real)
        if np.iscomplexobj(w):
            sums = sums + 1j * np.bincount(i, weights=w.imag)
        return 2.0 * self.h * (sums - 0.5 * (w[first] + w[last]))

    def to_csv(self, path) -> None:
        """Upper-triangular rows x,y,K over the native lattice, in the order
        of ``triangle``: by x and then y, both ascending.  Every float goes
        through %.17g, as f17 writes it; each of the 2M + 1 positions once,
        by ``f17_column``, and its text serves every row that uses it.  The
        rows are written a block at a time by ``write_rows``."""
        i, l = self.triangle
        text = f17_column(self.positions)
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
    k = max(1, math.ceil((perturbation.support[1] - x0) / h))
    tail = perturbation.tails(x0 + h * np.arange(k + 1))[1]
    if tail[0] == 0.0:
        return x0 + 4 * h
    return x0 + max(1, int(np.argmax(tail < tail_eps * tail[0]))) * h


def _plus_only(sign) -> None:
    """The kernel route takes + (or +1) alone: K_- is K_+ of the mirrored
    problem, read at negated positions."""
    if _check_sign(sign) < 0:
        raise ValueError("the kernel route solves K_+ only; for K_-, solve "
                         "K_+ on ctx.mirrored() and perturbation.mirrored() "
                         "and read it at -x")


def solve_kernel(ctx: WeylContext, perturbation: PerturbationProfile, sign,
                 grid_params: GridParams, tol: float = 1e-9,
                 max_iter: int = 50) -> KernelGrid:
    """Solve for K_+ by one march over the rows of K, from X down.

    In rotated coordinates the equation reads

        H(u, v) = -2 int_u^X q(t) D(u-v, t, t, u+v) dt
                  -4 int_u^X da int_0^v db q(a-b) D(u-v, a-b, a+b, u+v) H(a, b)

    discretized by the trapezoid rule in b along each H-row (fixed u) and
    the reverse trapezoid rule in a over the H-rows.  With D factorized over
    the edges (real amplitudes b_k, c_k = -(-1)^k / 4),

        H(u, v) = -2 sum_k c_k b_k(u-v) b_k(u+v) (phi_k(u) + 2 W_k(u, v)),

    where phi_k(u) = int_u^X q b_k^2 and W_k is the double integral of
    q(a-b) b_k(a-b) b_k(a+b) H(a, b).  Cell H[m, l] needs only itself and
    cells of smaller m - l, so the march goes over the K-rows x_i = x0 + i h,
    i = M down to 0, whose cells H[i+l, l] = K(x_i, x_{i+2l}) are independent
    (Linz 1985, ch. 7): one vectorized step over all edges per K-row, W_k
    from two running (edges, M+1) sums.  The trapezoid's end weight leaves
    each cell one scalar equation, cell = a + b cell with |b| = O(h^2 |q|),
    solved by a fixed point from a until every cell moves less than ``tol``.
    ``iterations`` and ``final_delta`` are the most sweeps and the largest
    last change over the K-rows; a K-row still moving after ``max_iter``
    sweeps raises NoConvergence with its delta history.  ``tol`` must be
    positive and ``max_iter`` at least 1, and ``sign`` must be + (see
    ``_plus_only``), else ValueError.
    """
    _plus_only(sign)
    if tol <= 0.0 or max_iter < 1:
        raise ValueError("tol must be positive and max_iter at least 1, got "
                         "tol = %g, max_iter = %d" % (tol, max_iter))

    moment = moment_check(perturbation)
    if not np.isfinite(moment):
        raise MomentViolation(
            "second moment of the perturbation is not finite (%r)" % moment)

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

    # b_k(x_{i+2l}), l = 0.., is a contiguous slice of one parity's copy;
    # run holds 2 W_k by column over the H-rows done, trap 2h times the
    # trapezoid along each H-row up to its next cell, less that cell's term
    split = amps[:, 0::2].copy(), amps[:, 1::2].copy()
    values = np.zeros((m_steps + 1, m_steps + 1))
    run, trap = np.zeros((2, len(amps), m_steps + 1))
    most, worst = 0, 0.0
    for i in range(m_steps, -1, -1):
        n, hhq = m_steps + 1 - i, h * h * qt[i]
        outer = amps[:, i:i + 1] * split[i % 2][:, i // 2:i // 2 + n]
        c2o = c2 * outer
        a = np.einsum("kl,kl->l", c2o,
                      phi[:, i:] + run[:, :n] + 0.5 * trap[:, i:])
        b = (0.5 * hhq) * np.einsum("kl,kl->l", c2o, outer)
        b[0] = 0.0                      # the trapezoid on [0, 0] is empty
        cell, deltas = a, []
        while not (deltas and deltas[-1] < tol):
            if len(deltas) == max_iter:
                raise NoConvergence(
                    "kernel row x = %g did not contract below %g in %d "
                    "steps" % (pos[i], tol, max_iter), deltas=deltas)
            new = a + b * cell
            deltas.append(float(abs(new - cell).max()))
            cell = new
        values.reshape(-1)[i * (m_steps + 1)::m_steps + 2][:n] = cell
        own = outer * (hhq * cell)
        w = trap[:, i:] + own
        w[:, 0] = 0.0
        run[:, :n] += w
        np.add(w, own, out=trap[:, i:])
        most, worst = max(most, len(deltas)), max(worst, deltas[-1])

    # scalar pow per edge: numpy's vectorized pow can differ in the last bit
    c_const = 0.25 * float(np.sum(
        [a ** 4 for a in np.max(np.abs(amps), axis=1).tolist()]))
    return KernelGrid(x0=x0, h=h, half_width=m_steps, values=values,
                      iterations=most, final_delta=worst,
                      x_max=x_max, c_const=c_const)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelBoundReport:
    """Decay-bound audit of a solved kernel.

    ``violations`` lists every lattice point where |K(x,y)| exceeds
    C(x) Q(x+y) as ("pointwise", x, y, |K|, bound), ordered by x and then y,
    then every failing L2 row as ("L2", x, lhs, rhs), ordered by x; empty on
    a passing run.  ``c1_fitted`` is the observed constant of the
    derivative bound (reported, never asserted: the true constant is
    existential).
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

    The L2 right side reads the exact tails; the rest, int_t^inf |q| and
    s|q| by the trapezoid rule on K's nodes, whose O(h^2) error cancels K's.
    """
    h, m, pos = grid.h, grid.half_width, grid.positions
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

    lhs = grid.row_trapezoid(kabs ** 2)
    q1, q2 = perturbation.tails(xs)[1:3]
    tail = 2.0 * (q2 - xs * q1)
    rhs = (2.0 * c * np.exp(4.0 * c * tail)) ** 2 * q1 * tail
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
    """phi_+ via the transformation operator: psi_+ plus the K-smeared tail.
    x must be a lattice node (to 1e-9 h), where K was solved, or lie past the
    truncation radius, where phi = psi; ``sign`` must be + (``_plus_only``);
    else ValueError."""
    _plus_only(sign)
    if x < grid.x0 - 1e-9 * grid.h:
        raise ValueError("x = %g is left of the kernel lattice [%g, %g]"
                         % (x, grid.x0, grid.x_max))
    h = grid.h
    i_x = (x - grid.x0) / h
    if abs(i_x - round(i_x)) >= 1e-9 and x < grid.x_max:
        raise ValueError("x = %g is not a node %g + i * %g of the kernel "
                         "lattice" % (x, grid.x0, h))
    n = int(math.floor((grid.x_max - x) / h + 1e-9))
    if n <= 0:
        return psi_on_grid(ctx, p, np.array([x]), +1)[0]
    sgrid = x + 2.0 * h * np.arange(n + 1)
    psi = psi_on_grid(ctx, p, sgrid, +1)
    kv = grid.values.diagonal(-round(i_x))[:n + 1]
    return complex(psi[0] + np.trapezoid(kv * psi, dx=2.0 * h))


def jost_profile(ctx: WeylContext, grid: KernelGrid, p):
    """phi_+ on the grid's own x-lattice, as (positions, values); for a
    sequence of points, values has one row per point.

    Equivalent to calling jost_from_kernel at every lattice point up to the
    truncation radius, but psi is integrated once over the whole lattice and
    shared across rows, so the profile costs one quadrature pass instead of
    one per point (one ``psi_on_grid`` pass for a sequence of points).  The
    pipeline's ``oracle_equivalence`` row reads its kernel-route phi off
    this profile, at lattice points 0 and M // 2.
    """
    pos, m = grid.positions, grid.half_width
    psi = psi_on_grid(ctx, p, pos, +1)
    i, l = grid.triangle
    kv = grid.values[i + l, l]
    phi = np.array([row[:m + 1] + grid.row_trapezoid(kv * row[i + 2 * l])
                    for row in np.atleast_2d(psi)]).reshape(
                        psi.shape[:-1] + (m + 1,))
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
    pref, w = next(_psi_parts(ctx, [pt], ys))
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
