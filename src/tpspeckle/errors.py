"""Exception types shared across the package."""

__all__ = [
    "TpspeckleError",
    "MonochromaticPumpError",
    "DegenerateStateError",
    "NotPositiveSemidefiniteError",
    "QuadratureNotConvergedError",
    "TailNotConvergedError",
    "NonFiniteValueError",
]


class TpspeckleError(Exception):
    """Base class for all package errors."""


class MonochromaticPumpError(TpspeckleError):
    """Amplitude evaluation requested for a cw pump (sigma = 0).

    The monochromatic state is a distribution, not a square-integrable
    function; use the closed-form rate limits instead.
    """


class DegenerateStateError(TpspeckleError):
    """The symmetrized-state norm vanishes (theta near pi with s near 0)."""


class NotPositiveSemidefiniteError(TpspeckleError):
    """Covariance matrix needs more diagonal jitter than the budget allows."""


class QuadratureNotConvergedError(TpspeckleError):
    """A rate integral's error estimate or bound exceeds its gate (direct
    quadrature, its exchange tail, or a reduced closed form), or the direct
    quadrature's d axis or tail would not fit in memory or double range."""


class TailNotConvergedError(TpspeckleError):
    """Rate curve has no converged large-delay tail to define R(inf)."""


class NonFiniteValueError(TpspeckleError, ValueError):
    """A computed rate or estimate is NaN or infinite."""
