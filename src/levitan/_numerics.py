"""Small shared numerical helpers: the round-trip float format, branch-safe
square roots, the removed-factor products of a root list, the reverse
cumulative trapezoid, and the Chebyshev-Lobatto panel toolkit (nodes, the
values-to-coefficients map, the spectral integration matrix and barycentric
interpolation) behind both panel solvers: the divisor flow in
:mod:`levitan.dubrovin` and the flow integral behind psi in
:mod:`levitan.weyl`."""

from __future__ import annotations

import numpy as np
from numpy.polynomial import chebyshev
from scipy.integrate import cumulative_trapezoid


def f17(x) -> str:
    """Format a binary64 with 17 significant digits (round-trip exact)."""
    return "%.17g" % float(x)


def principal_sqrt(w):
    """Principal complex square root with the -0.0 rim folded upward.

    ``np.sqrt(complex(-1, -0.0))`` returns ``-1j``; we always want the branch
    that is continuous from the upper half plane, so any exactly-zero imaginary
    part (either sign) is normalized to +0.0 before taking the root.
    Accepts scalars or arrays.
    """
    w = np.asarray(w, dtype=complex)
    w = np.where(w.imag == 0.0, w.real + 0.0j, w)
    out = np.sqrt(w)
    if out.ndim == 0:
        return complex(out)
    return out


def removed_products(z, roots) -> np.ndarray:
    """P_l(z_l) = prod_{k != l} (z_l - r_k) for every l, in root order: one
    z for all l, or one z per root (``removed_products(r, r)`` gives
    prod_{k != l} (r_l - r_k)).

    Each product is formed explicitly (never as P(z) / (z - r_l)), so z on a
    root is a regular point.  sum_l P_l is the derivative of prod_k (z - r_k).
    """
    n = len(roots)
    d = np.broadcast_to(np.asarray(z)[..., None] - np.asarray(roots),
                        (n, n)).copy()
    np.fill_diagonal(d, 1.0)
    return np.prod(d, axis=1)


def rev_cumtrapz(a: np.ndarray, dx: float, axis: int = 0) -> np.ndarray:
    """int_t^end of a by the trapezoid rule at every node t along ``axis``."""
    acc = cumulative_trapezoid(np.flip(a, axis=axis), dx=dx, axis=axis,
                               initial=0.0)
    return np.flip(acc, axis=axis)


def cheb_lobatto(n: int):
    """The n + 1 Chebyshev-Lobatto points s_k = -cos(k pi / n) of [-1, 1]
    (ascending, ends exact) with the two linear maps a panel solver needs.

    Returns ``(s, coef, integ)``: ``coef @ f`` gives the Chebyshev
    coefficients c_0..c_n of the degree-n interpolant of the node values f,
    and ``integ @ f`` its indefinite integral from -1 at every node
    (Clenshaw & Curtis, Numer. Math. 2, 1960).
    """
    k = np.arange(n + 1)
    s = -np.cos(np.pi * k / n)
    if n % 2 == 0:
        s[n // 2] = 0.0  # not 6e-17
    # discrete cosine transform on the extrema grid, end terms halved
    half = np.where((k == 0) | (k == n), 0.5, 1.0)
    coef = (2.0 / n) * half[:, None] * half[None, :] * np.cos(
        np.pi * np.outer(k, n - k) / n)
    anti = chebyshev.chebint(np.eye(n + 1), lbnd=-1.0)
    integ = chebyshev.chebvander(s, n + 1) @ anti @ coef
    integ[0] = 0.0  # int_{-1}^{-1}, exactly
    return s, coef, integ


def barycentric_matrix(t, s) -> np.ndarray:
    """Rows of weights mapping values at the Chebyshev-Lobatto points ``s``
    to the interpolant's values at ``t`` in [-1, 1]: the second barycentric
    form with weights (-1)^k, halved at the ends (Berrut & Trefethen, SIAM
    Rev. 46, 2004).  A point on a node takes that node's value exactly."""
    t = np.asarray(t, dtype=float)
    w = (-1.0) ** np.arange(len(s))
    w[[0, -1]] *= 0.5
    d = t[:, None] - s[None, :]
    hit = d == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        r = w / d
        out = r / r.sum(axis=1, keepdims=True)
    rows = hit.any(axis=1)
    out[rows] = hit[rows]
    return out
