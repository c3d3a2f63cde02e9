"""Small numerical kernels shared by the state and rate modules.

Everything here is pure and accurate through removable singularities.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf as _erf

SQRT_PI = math.sqrt(math.pi)


# Below this |x| the correctly rounded sin(x)/x and sqrt(pi) erf(x/2)/x are
# both 1: their x^2/6 and x^2/12 terms are under half an ulp.  The guard
# also keeps erf off subnormal arguments, where it loses relative accuracy.
UNIT_BELOW = 1e-8


def _over_x(x, numerator):
    """numerator(x, out) / x, evaluated into one array; 1 where |x| < UNIT_BELOW.

    Returns a float for 0-d input.
    """
    x = np.asarray(x, dtype=float)
    out = np.abs(x, out=np.empty_like(x))
    unit = out < UNIT_BELOW
    numerator(x, out)
    np.divide(out, x, out=out, where=~unit)
    out[unit] = 1.0
    return float(out) if out.ndim == 0 else out


def sinc(x):
    """sin(x)/x with sinc(0) = 1 (unnormalized convention)."""
    return _over_x(x, lambda x, out: np.sin(x, out=out))


def erf_ratio(z):
    """sqrt(pi) * Erf(z/2) / z, the even entire function with value 1 at 0.

    This is the two-photon spectral overlap of the biphoton with its
    frequency-swapped copy at dimensionless pump width z.
    """

    def numerator(z, out):
        np.multiply(0.5, z, out=out)
        _erf(out, out=out)
        out *= SQRT_PI

    return _over_x(z, numerator)


def one_minus_erf_ratio(s: float) -> float:
    """1 - erf_ratio(s), computed without cancellation for small s."""
    if abs(s) < 3e-2:
        s2 = s * s
        return s2 / 12.0 - s2 * s2 / 160.0 + s2 * s2 * s2 / 2688.0
    return 1.0 - erf_ratio(s)
