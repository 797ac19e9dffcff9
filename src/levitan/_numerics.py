"""Small shared numerical helpers: the round-trip float format, branch-safe
square roots, the removed-factor products of a root list and the reverse
cumulative trapezoid.  The one quadrature of the package, the panel engine
behind psi, lives in :mod:`levitan.weyl`."""

from __future__ import annotations

import numpy as np
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
    """P_l(z) = prod_{k != l} (z - r_k) for every l, in root order.

    Each product is formed explicitly (never as P(z) / (z - r_l)), so z on a
    root is a regular point.  sum_l P_l is the derivative of prod_k (z - r_k).
    """
    d = np.broadcast_to(z - np.asarray(roots), (len(roots), len(roots))).copy()
    np.fill_diagonal(d, 1.0)
    return np.prod(d, axis=1)


def rev_cumtrapz(a: np.ndarray, dx: float, axis: int = 0) -> np.ndarray:
    """int_t^end of a by the trapezoid rule at every node t along ``axis``."""
    acc = cumulative_trapezoid(np.flip(a, axis=axis), dx=dx, axis=axis,
                               initial=0.0)
    return np.flip(acc, axis=axis)
