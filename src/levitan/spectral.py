"""Band structure, the spectral polynomial Y, and the square-root branch.

The background operator has purely absolutely continuous spectrum arranged in
bands ``[E_0, E_1], [E_2, E_3], ..., [E_2N, inf)`` separated by open gaps
``(E_1, E_2), ..., (E_{2N-1}, E_2N)``.  Every downstream quantity (divisor
flow, Weyl solutions, transformation kernels) is built from the polynomial

    Y(z) = -(z - E_0) * prod_j (z - E_{2j-1}) (z - E_{2j}) / E_{2j-1}^2,

one O(1) factor (z - E_m) w_m at a time (``BandStructure.edge_weight``),
and one fixed branch of its square root, assembled factor by factor with
the principal root of each, which alone gives the Green function
g = -G/(2 Y^{1/2}) the sign (1/i) g(z) > 0 on the upper rim of every band
(the pipeline's ``green_sign`` row checks it).

Edge lists also carry the admissibility parameters (l, C, alpha): the gap
moment sum uses l, and the gap-spacing growth condition uses C and alpha.
Both are checked on the finitely many supplied edges; the finite edge list is
treated as an exact finite-gap problem, not as a truncation error.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

from ._numerics import principal_sqrt
from .errors import (
    BranchAtEdge,
    EmptyGap,
    GrowthViolation,
    MalformedEdges,
    NegativeGround,
    NonMonotonic,
)

__all__ = [
    "Side",
    "SpectralPoint",
    "BandStructure",
    "HypothesisReport",
    "validate_band_structure",
    "require_hypothesis",
    "eval_Y",
    "eval_sqrtY",
]


class Side(str, Enum):
    """Which rim of the spectral cut a real energy is evaluated on."""

    OFF_AXIS = "off_axis"
    UPPER = "upper"
    LOWER = "lower"


@dataclass(frozen=True)
class SpectralPoint:
    """A complex energy plus a rim tag for boundary values on the bands.

    ``side`` other than OFF_AXIS is only meaningful for real z inside a band;
    band membership is checked at the evaluation sites (the point itself does
    not know the band structure).
    """

    z: complex
    side: Side = Side.OFF_AXIS

    def __post_init__(self):
        object.__setattr__(self, "z", complex(self.z))
        object.__setattr__(self, "side", Side(self.side))
        if self.side is not Side.OFF_AXIS and self.z.imag != 0.0:
            raise ValueError("upper/lower rim tags require a real energy")

    @classmethod
    def upper(cls, x: float) -> "SpectralPoint":
        return cls(complex(x), Side.UPPER)

    @classmethod
    def lower(cls, x: float) -> "SpectralPoint":
        return cls(complex(x), Side.LOWER)


def as_point(p) -> SpectralPoint:
    """Coerce a bare number to an off-axis SpectralPoint."""
    if isinstance(p, SpectralPoint):
        return p
    return SpectralPoint(complex(p))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class BandStructure:
    """Edge list E_0 < E_1 < ... < E_2N plus admissibility parameters."""

    edges: tuple
    hyp_l: float = 2.0
    hyp_C: float = 1.0
    hyp_alpha: float = 1.0
    gap_count: int = field(init=False)

    def __post_init__(self):
        edges = tuple(float(e) for e in self.edges)
        if len(edges) == 0:
            raise MalformedEdges("at least one edge (E_0) is required")
        if len(edges) % 2 == 0:
            raise MalformedEdges(
                "expected an odd number of edges E_0..E_2N, got %d" % len(edges))
        if edges[0] < 0.0:
            raise NegativeGround("E_0 = %g < 0" % edges[0])
        for k in range(1, len(edges)):
            if edges[k] < edges[k - 1]:
                raise NonMonotonic(
                    "edges out of order at index %d: %g then %g"
                    % (k, edges[k - 1], edges[k]))
            if edges[k] == edges[k - 1]:
                if k % 2 == 0:  # pair (E_{2j-1}, E_{2j}) collapsed
                    raise EmptyGap("gap %d has zero width at E=%g" % (k // 2, edges[k]))
                raise NonMonotonic("repeated edge %g at index %d" % (edges[k], k))
        if not self.hyp_l > 1.0:
            raise ValueError("hyp_l must exceed 1")
        if not (self.hyp_C > 0.0 and self.hyp_alpha > 0.0):
            raise ValueError("hyp_C and hyp_alpha must be positive")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "gap_count", (len(edges) - 1) // 2)

    # -- geometry ---------------------------------------------------------

    @cached_property
    def edge_array(self) -> np.ndarray:
        return _read_only(np.asarray(self.edges, dtype=float))

    @cached_property
    def gaps(self) -> tuple:
        """Closed gap hulls [E_{2j-1}, E_2j], j = 1..N."""
        e = self.edges
        return tuple((e[2 * j - 1], e[2 * j]) for j in range(1, self.gap_count + 1))

    @cached_property
    def gap_mid(self) -> np.ndarray:
        return _read_only(np.array([0.5 * (a + b) for a, b in self.gaps]))

    @cached_property
    def gap_half(self) -> np.ndarray:
        return _read_only(np.array([0.5 * (b - a) for a, b in self.gaps]))

    @cached_property
    def edge_weight(self) -> np.ndarray:
        """w_m = 1 for E_0 and 1/E_{2j-1} for both edges of gap j: the
        per-factor normalization of every product over edges or gaps."""
        w = np.repeat(1.0 / self.edge_array[1::2], 2)
        return _read_only(np.append(1.0, w))

    @cached_property
    def edge_scale(self) -> np.ndarray:
        """S_kj = |(E_k - E_{2j-1})(E_k - E_2j)|^{-1/2} without a zero factor,
        column 1 times |E_k - E_0|^{-1/2}: prod_j S_kj = |P_k|^{-1/2} for the
        edge products P_k = prod_{m != k} (E_k - E_m).  Shape (edges, gaps)."""
        d = np.abs(self.edge_array[:, None] - self.edge_array)
        np.fill_diagonal(d, 1.0)
        s = d[:, 1::2] * d[:, 2::2]
        s[:, :1] *= d[:, :1]
        return _read_only(1.0 / np.sqrt(s))

    @property
    def min_gap_width(self) -> float:
        return float(2.0 * self.gap_half.min()) if self.gap_count else math.inf

    def bands(self) -> list:
        """Closed bands; the last one is [E_2N, inf)."""
        e = self.edges
        out = [(e[2 * j], e[2 * j + 1]) for j in range(self.gap_count)]
        out.append((e[-1], math.inf))
        return out

    def is_edge(self, x: float) -> bool:
        return float(x) in self.edges

    def in_band(self, x: float) -> bool:
        x = float(x)
        if x >= self.edges[-1]:
            return True
        e = self.edges
        return any(e[2 * j] <= x <= e[2 * j + 1] for j in range(self.gap_count))

    def gap_distance(self, z: complex) -> float:
        """Distance from z to the union of closed gap hulls (inf if no gaps)."""
        if self.gap_count == 0:
            return math.inf
        z = complex(z)
        best = math.inf
        for lo, hi in self.gaps:
            dx = max(lo - z.real, 0.0, z.real - hi)
            best = min(best, math.hypot(dx, z.imag))
        return best

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({"edges": list(self.edges), "l": self.hyp_l,
                           "C": self.hyp_C, "alpha": self.hyp_alpha})

    @classmethod
    def from_json(cls, doc: str) -> "BandStructure":
        d = json.loads(doc)
        return cls(edges=tuple(d["edges"]), hyp_l=d["l"], hyp_C=d["C"],
                   hyp_alpha=d["alpha"])


@dataclass(frozen=True)
class HypothesisReport:
    """Admissibility report: gap moment partial sum and growth-condition flags.

    ``growth_ok[n-1]`` covers E_{2n+1} - E_{2n-1} > C * n^alpha for
    n = 1..N-1; ``min_growth_ratio`` is the smallest ratio of left to right
    side (inf when no check is representable).
    """

    partial_sum: float
    growth_ok: tuple
    min_growth_ratio: float

    @property
    def all_growth_ok(self) -> bool:
        return all(self.growth_ok)


def validate_band_structure(edges: Sequence[float], l: float, C: float,
                            alpha: float) -> HypothesisReport:
    """Validate an edge list and report the two admissibility conditions.

    Raises NonMonotonic / EmptyGap / NegativeGround / MalformedEdges on
    structurally bad input.  Growth failures are reported, not raised; see
    :func:`require_hypothesis` for the raising form.
    """
    band = BandStructure(tuple(edges), hyp_l=l, hyp_C=C, hyp_alpha=alpha)
    e = band.edges
    n_gaps = band.gap_count
    partial = 0.0
    for n in range(1, n_gaps + 1):
        partial += e[2 * n - 1] ** l * (e[2 * n] - e[2 * n - 1])
    ok = []
    min_ratio = math.inf
    for n in range(1, n_gaps):
        lhs = e[2 * n + 1] - e[2 * n - 1]
        rhs = C * n ** alpha
        ratio = lhs / rhs
        ok.append(lhs > rhs)
        min_ratio = min(min_ratio, ratio)
    return HypothesisReport(partial_sum=partial, growth_ok=tuple(ok),
                            min_growth_ratio=min_ratio)


def require_hypothesis(report: HypothesisReport) -> HypothesisReport:
    """Raise GrowthViolation if any growth check failed; pass through otherwise."""
    if not report.all_growth_ok:
        bad = [n + 1 for n, ok in enumerate(report.growth_ok) if not ok]
        raise GrowthViolation(
            "gap-spacing growth condition failed at n = %s "
            "(min ratio %.3g)" % (bad, report.min_growth_ratio))
    return report


# ---------------------------------------------------------------------------
# Y and its square root
# ---------------------------------------------------------------------------

def eval_Y(band: BandStructure, p) -> complex:
    """Y(z) = -prod_m (z - E_m) w_m with the weights of ``edge_weight``.

    Entire in z; exactly zero at each edge (the matching factor is exactly
    zero).  The rim tag is irrelevant: Y is a real polynomial.
    """
    z = as_point(p).z
    return complex(-np.prod((z - band.edge_array) * band.edge_weight))


def _sqrt_chain(band: BandStructure, z: complex) -> complex:
    """i * prod_m sqrt((z - E_m) w_m), each factor the principal root, for
    Im z >= 0 only.

    The per-factor chain is analytic in the open upper half plane; the value
    on the real axis is its boundary value from above.  The lower half plane is
    reached by Schwarz reflection in :func:`eval_sqrtY` -- evaluating the
    chain verbatim there would flip the overall sign (the leading i does not
    conjugate) and hang a spurious cut along the gaps and below E_0.
    """
    fac = principal_sqrt((z - band.edge_array) * band.edge_weight)
    return 1j * complex(np.prod(fac))


def eval_sqrtY(band: BandStructure, p) -> complex:
    """The fixed branch of Y^{1/2} at a spectral point.

    Analytic on the plane cut along the bands, real in gap interiors and left
    of E_0, conjugate-symmetric: Y^{1/2}(conj z) = conj(Y^{1/2}(z)).  Real z
    is treated as the limit from the upper half plane (so band interiors get
    the upper-rim boundary value).  An exact edge hit without a rim tag
    raises BranchAtEdge; with a rim tag the value is 0, matching the root of
    Y.  side=lower returns the conjugate of the upper value.
    """
    p = as_point(p)
    z = p.z
    if p.side is Side.OFF_AXIS:
        if z.imag == 0.0 and band.is_edge(z.real):
            raise BranchAtEdge(
                "Y^{1/2} at edge %g needs an upper/lower rim tag" % z.real)
        if z.imag < 0.0:
            return _sqrt_chain(band, z.conjugate()).conjugate()
        return _sqrt_chain(band, z)
    x = z.real
    if not band.in_band(x):
        raise ValueError("rim tag %s requires z inside a band, got %g"
                         % (p.side.value, x))
    up = _sqrt_chain(band, complex(x, 0.0))
    return up if p.side is Side.UPPER else up.conjugate()
