"""Exception types raised by the localization toolkit.

Every library error derives from :class:`WsnlocError` so callers (and the
Monte-Carlo harness, which records failed trials instead of aborting) can
catch one base class. A stack kernel records each system's failure instead of
raising it; its one-system form raises the failure of a stack of one
(:func:`only`).
"""


def only(values, failed):
    """The one entry of a stack of one, ``values[0]``, or its recorded failure raised."""
    if failed[0] is not None:
        raise failed[0]
    return values[0]


class WsnlocError(Exception):
    """Base class for all toolkit errors."""


# --- geometry ---------------------------------------------------------------

class CollinearAnchors(WsnlocError):
    """Anchor layout is (numerically) collinear; the LOP system is rank deficient."""


class LengthMismatch(WsnlocError):
    """Paired sequences (anchors/distances, weights/elements, ...) disagree in length."""


# --- channel ----------------------------------------------------------------

class NonPositiveDistance(WsnlocError):
    """A propagation distance must be strictly positive."""


# --- linear estimators --------------------------------------------------------

class SingularSystem(WsnlocError):
    """Normal equations are numerically singular (condition number > 1e12)."""


# --- array model --------------------------------------------------------------

class WrongGeometry(WsnlocError):
    """Operation requires a different array geometry (ULA vs UCA, or fewer elements)."""


class TooManySources(WsnlocError):
    """Source count must stay below the available array/subspace dimension."""


class TooFewSources(WsnlocError):
    """At least one source must be requested."""


class CoincidentSources(WsnlocError, ValueError):
    """Two sources share an azimuth (a target seen along an interferer's bearing, say)."""

    def __init__(self, message: str = "source azimuths must be distinct"):
        super().__init__(message)


# --- phase-mode beamspace -----------------------------------------------------

class InsufficientElements(WsnlocError):
    """Element count N must exceed twice the highest excited mode."""


class BesselNearZero(WsnlocError):
    """A mode's Bessel amplitude is too close to zero to invert."""


class OutOfSupportedRange(WsnlocError):
    """Bessel order/argument outside the supported evaluation range."""


class DimensionMismatch(WsnlocError):
    """Matrix dimensions do not line up with the transform or plan."""


# --- decorrelation ------------------------------------------------------------

class InvalidPlan(WsnlocError):
    """Smoothing subarray plan cannot decorrelate the declared source count."""


# --- subspace estimators --------------------------------------------------------

class NonHermitian(WsnlocError):
    """Input matrix is not Hermitian within tolerance."""


class NoPeaksFound(WsnlocError):
    """Spectrum has fewer local maxima than requested sources."""


class RootSolveFailure(WsnlocError):
    """Could not extract the requested number of polynomial roots."""


class ArcsinOutOfRange(WsnlocError):
    """Recovered phase maps outside the arcsin domain (|sin| > 1)."""


class RankDeficientSubspace(WsnlocError):
    """Signal subspace lost rank; the invariance equation is unsolvable."""


# --- numerics -----------------------------------------------------------------

class DegenerateLeadingCoefficient(WsnlocError):
    """Polynomial leading coefficient is zero."""


class NearSingular(WsnlocError):
    """Matrix is too close to singular for a stable inverse square root."""


class NumericOverflow(WsnlocError):
    """A quantity left the finite float range (an extreme shadowing draw, say)."""


# --- hybrid fusion --------------------------------------------------------------

class BehindRay(WsnlocError):
    """Circle lies behind the ray origin; no forward intersection or projection."""


class AllIntersectionsFailed(WsnlocError):
    """No element circle produced a usable intersection point."""


class SingularFusionMatrix(WsnlocError):
    """Bearing line is parallel to the LOP line; the 2x2 fusion system is singular."""


# --- harness --------------------------------------------------------------------

class ConfigError(WsnlocError):
    """Scenario configuration is invalid."""


class AllTrialsFailed(WsnlocError):
    """Every trial at one SNR point failed; no RMSE can be reported."""
