import mpmath
import numpy as np
import pytest

from tpspeckle._special import erf_ratio, sinc

# 0, +-1e-12..1e-1, both sides of the 1e-8 guard, and the subnormal end,
# where erf(x/2) itself underflows
_X = np.concatenate([[0.0, 5e-324, 1e-300, 9.99e-9, 1.001e-8], np.logspace(-12.0, -1.0, 67)])
_X = np.concatenate([_X, -_X[1:]])


def _sinc_ref(x):
    return mpmath.mpf(1) if x == 0 else mpmath.sin(mpmath.mpf(x)) / mpmath.mpf(x)


def _erf_ratio_ref(x):
    xm = mpmath.mpf(x)
    return mpmath.mpf(1) if x == 0 else mpmath.sqrt(mpmath.pi) * mpmath.erf(xm / 2) / xm


@pytest.mark.parametrize("fn, ref", [(sinc, _sinc_ref), (erf_ratio, _erf_ratio_ref)])
def test_matches_mpmath_near_zero(fn, ref):
    got = fn(_X)
    with mpmath.workdps(40):
        for x, value in zip(_X, got):
            assert abs(value - ref(float(x))) <= 1e-15 * abs(ref(float(x)))
            assert fn(float(x)) == value  # scalar and array calls agree
    assert isinstance(fn(0.0), float)
