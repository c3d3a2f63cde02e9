"""Exception types shared across the package."""


class TpspeckleError(Exception):
    """Base class for all package errors."""


class MonochromaticPumpError(TpspeckleError):
    """Amplitude evaluation requested for a cw pump (sigma = 0).

    The monochromatic state is a distribution, not a square-integrable
    function; use the closed-form rate limits instead.
    """


class GridTooNarrowError(TpspeckleError):
    """The quadrature field's outermost cells carry more than
    ``rates.EDGE_MASS_BUDGET`` of the integrand mass."""


class DegenerateStateError(TpspeckleError):
    """The symmetrized-state norm vanishes (theta near pi with s near 0)."""


class NotPositiveSemidefiniteError(TpspeckleError):
    """Covariance matrix needs more diagonal jitter than the budget allows."""


class QuadratureNotConvergedError(TpspeckleError):
    """A rate integral's error estimate exceeds its gate: the Richardson
    estimate of the direct quadrature, or the embedded-rule estimate of a
    reduced closed-form integral."""


class TailNotConvergedError(TpspeckleError):
    """Rate curve has no converged large-delay tail to define R(inf)."""


class NonFiniteValueError(TpspeckleError, ValueError):
    """A computed rate or estimate is NaN or infinite."""
