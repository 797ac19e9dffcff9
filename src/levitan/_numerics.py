"""Small shared numerical helpers: the round-trip float format, branch-safe
square roots, complex adaptive quadrature, batched Gauss-Legendre panels and
panel breakpoint merging."""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad


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


def complex_quad(f, a, b, points=None, epsabs=1e-12, epsrel=1e-12, limit=200):
    """Adaptive quadrature of a complex-valued integrand on [a, b].

    Integrates real and imaginary parts separately with ``scipy.integrate.quad``;
    ``points`` marks interior locations where subdivision is forced.  Returns
    ``(value, abserr)`` with the two error estimates combined.
    """
    if points is not None:
        points = [p for p in points if min(a, b) < p < max(a, b)]
        if not points:
            points = None
    re, re_err = quad(lambda t: f(t).real, a, b, points=points,
                      epsabs=epsabs, epsrel=epsrel, limit=limit)
    im, im_err = quad(lambda t: f(t).imag, a, b, points=points,
                      epsabs=epsabs, epsrel=epsrel, limit=limit)
    return complex(re, im), float(np.hypot(re_err, im_err))


def gauss_panels(f, edges, order=12):
    """Fixed-order Gauss-Legendre integral over each panel [edges[i], edges[i+1]].

    ``f`` must be vectorized; all panels are evaluated in one call.  Returns an
    array of per-panel integrals (length ``len(edges) - 1``).
    """
    edges = np.asarray(edges, dtype=float)
    xg, wg = np.polynomial.legendre.leggauss(order)
    lo = edges[:-1]
    half = 0.5 * (edges[1:] - lo)
    mid = lo + half
    # nodes: shape (panels, order)
    nodes = mid[:, None] + half[:, None] * xg[None, :]
    vals = f(nodes.ravel()).reshape(nodes.shape)
    return half * (vals @ wg)


def merge_breakpoints(*groups, lo=None, hi=None, min_sep=0.0):
    """Sorted union of breakpoint groups, clipped to [lo, hi], deduplicated.

    Points closer than ``min_sep`` to their predecessor are dropped (zero-width
    panels upset fixed-order rules).  The clip endpoints are always included.
    """
    pts = np.concatenate([np.atleast_1d(np.asarray(g, dtype=float))
                          for g in groups if len(np.atleast_1d(g))])
    if lo is not None:
        pts = pts[pts >= lo]
    if hi is not None:
        pts = pts[pts <= hi]
    if lo is not None:
        pts = np.append(pts, lo)
    if hi is not None:
        pts = np.append(pts, hi)
    pts = np.unique(pts)
    if min_sep > 0.0 and len(pts) > 1:
        keep = np.ones(len(pts), dtype=bool)
        last = pts[0]
        for i in range(1, len(pts) - 1):
            if pts[i] - last < min_sep:
                keep[i] = False
            else:
                last = pts[i]
        if pts[-1] - last < min_sep and len(pts) > 2:
            # drop the predecessor instead of the endpoint
            keep[np.nonzero(keep[:-1])[0][-1]] = False
        pts = pts[keep]
    return pts
