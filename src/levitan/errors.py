"""Exception types raised across the package.

Everything derives from :class:`LevitanError` so callers can catch the whole
family at once; the concrete classes are part of the public contract and are
referenced by name in the verification suite.
"""


class LevitanError(Exception):
    """Base class for every error raised by this package."""


# --- band-structure validation -------------------------------------------------

class MalformedEdges(LevitanError, ValueError):
    """Edge list is structurally unusable (empty, or an even number of entries)."""


class NonMonotonic(MalformedEdges):
    """Band edges are out of order."""


class EmptyGap(MalformedEdges):
    """A gap pair (E_{2j-1}, E_{2j}) has collapsed to zero width."""


class NegativeGround(MalformedEdges):
    """The ground edge E_0 is negative."""


class GrowthViolation(LevitanError):
    """The gap-spacing growth condition E_{2n+1} - E_{2n-1} > C * n^alpha failed."""


# --- branch bookkeeping --------------------------------------------------------

class BranchAtEdge(LevitanError):
    """Square-root evaluation requested exactly at a band edge without a side tag."""


# --- divisor flow --------------------------------------------------------------

class StepTooLarge(LevitanError):
    """Angle advance per output step exceeded pi/2; the flow is under-resolved."""


# --- Weyl evaluation -----------------------------------------------------------

class AtDivisorPole(LevitanError):
    """Evaluation point sits on (or numerically at) a divisor pole of m+/m-."""


class TooCloseToGap(LevitanError):
    """z is closer to a spectral gap than the product representation allows."""


class QuadratureFailure(LevitanError):
    """An adaptive quadrature or ODE integrator failed to reach its error
    target."""


class AmbiguousPole(LevitanError):
    """Neither Weyl function clearly owns the divisor pole (degenerate divisor)."""


# --- transformation kernel -----------------------------------------------------

class NoConvergence(LevitanError):
    """Fixed-point iteration failed to contract below tolerance.

    Carries each step's sup-norm delta in ``deltas`` for post-mortem use.
    """

    def __init__(self, message, deltas=None):
        super().__init__(message)
        self.deltas = list(deltas) if deltas is not None else []


class MomentViolation(LevitanError):
    """Perturbation fails the second-moment integrability budget."""


# --- artifacts -----------------------------------------------------------------

class MissingArtifact(LevitanError, FileNotFoundError):
    """A pipeline artifact required for plotting/verification is absent."""
