"""Error taxonomy shared by every module of the package."""

from __future__ import annotations

__all__ = [
    "SymplextError",
    "ZeroDenominator",
    "ZeroFunction",
    "UnsupportedPoleField",
    "FrameMismatch",
    "NotACochain",
    "NotACoboundary",
    "InternalLiftFailure",
    "NotAFormCochain",
    "DegenerateB",
    "IsotropyViolation",
    "VerticalIntersection",
    "HypothesisUnmet",
    "ClassMismatch",
    "ParseError",
    "HypothesisUnmetWarning",
]


class SymplextError(Exception):
    """Base class for every error raised by this package."""


class ZeroDenominator(SymplextError):
    """A rational function was built with denominator zero."""


class ZeroFunction(SymplextError):
    """Valuation of the zero function was requested."""


class UnsupportedPoleField(SymplextError):
    """A denominator has an irreducible factor of degree >= 2, so some pole
    is not a rational point; only rational pole support is handled."""


class FrameMismatch(SymplextError):
    """Matrix shapes or source/target degree frames are incompatible."""


class NotACochain(SymplextError):
    """A pair of chart matrices fails the gluing relation on the overlap."""


class NotACoboundary(SymplextError):
    """A principal part with nonzero canonical class has no rational lift."""


class InternalLiftFailure(SymplextError):
    """The (anti)symmetrized lift no longer realizes the target principal
    part; this indicates an internal inconsistency and should never occur."""


class NotAFormCochain(SymplextError):
    """Chart matrices fail the shape, symmetry, chart-regularity, or
    overlap-compatibility requirements of a bilinear form cochain."""


class DegenerateB(SymplextError):
    """The off-diagonal block of a form cochain is not invertible."""


class IsotropyViolation(SymplextError):
    """A form cochain does not vanish on the distinguished subbundle."""


class VerticalIntersection(SymplextError):
    """A lattice meets the zero-section-complement degenerately: its
    projection to the second factor is singular, so it is no graph."""


class HypothesisUnmet(SymplextError):
    """A stated hypothesis (vanishing of a section space) fails, so the
    requested construction is not guaranteed to be well defined."""


class ClassMismatch(SymplextError):
    """Two principal parts that must represent the same extension class
    do not."""


class ParseError(SymplextError):
    """Malformed problem-file or expression text."""


class HypothesisUnmetWarning(UserWarning):
    """Advisory counterpart of HypothesisUnmet for operations that still
    return a value when the hypothesis fails."""
