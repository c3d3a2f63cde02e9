import math
import warnings

import mpmath
import numpy as np
import pytest

from tpspeckle._special import erf_ratio, erfcx, one_minus_erf_ratio, sinc

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


def test_one_minus_erf_ratio_keeps_relative_accuracy():
    # 1 - erf_ratio(s) = s^2/12 + O(s^4) must not come from a difference of
    # two numbers near 1, on either side of the series' range |s| < 2
    s = np.concatenate([[1e-150, 1e-8, 1e-4, 1.99999999, 2.00000001], np.linspace(-8.0, 8.0, 1601)])
    s = s[s != 0.0]
    got = one_minus_erf_ratio(s)
    with mpmath.workdps(400):
        for x, value in zip(s, got):
            xm = mpmath.mpf(x)
            ref = 1 - mpmath.sqrt(mpmath.pi) * mpmath.erf(xm / 2) / xm
            assert abs(value - ref) <= 1e-15 * ref
            assert one_minus_erf_ratio(float(x)) == value
    assert one_minus_erf_ratio(0.0) == 0.0


# x = sqrt(2)/w of the Fock and coherent forms over w in [1e-3, 1e4], and
# the delay y = |t|/sqrt(2)
_ERFCX_X = np.logspace(-4.0, 3.0, 29)
_ERFCX_Y = np.concatenate([[0.0], np.logspace(-4.0, 3.0, 29)])


def _erfcx_ref(x):
    # mpmath's erfc stops near 1e300; past 1e5 the asymptotic series'
    # eighth term is under 1e-80 of the first
    x = mpmath.mpf(x)
    if x < 1e5:
        return mpmath.exp(x * x) * mpmath.erfc(x)
    total, term = mpmath.mpf(0), mpmath.mpf(1)
    for n in range(8):
        total += term
        term *= -(2 * n + 1) / (2 * x * x)
    return total / (x * mpmath.sqrt(mpmath.pi))


# [0, 80], both sides of the range edge 2, and tiny to huge arguments,
# each with both signs
_RATIO_X = np.concatenate(
    [np.linspace(0.0, 80.0, 16001), np.nextafter(2.0, [0.0, 3.0]), [2.0], np.logspace(-150.0, 300.0)]
)
_RATIO_X = np.concatenate([_RATIO_X, -_RATIO_X])


def test_erf_ratio_matches_mpmath():
    got = erf_ratio(_RATIO_X)
    with mpmath.workdps(40):
        for x, value in zip(_RATIO_X, got):
            ref = _erf_ratio_ref(float(x))
            assert abs(value - ref) <= 4e-16 * ref
            assert erf_ratio(float(x)) == value  # scalar and array calls agree
    assert erf_ratio(math.inf) == 0.0 and erf_ratio(-math.inf) == 0.0
    assert math.isnan(erf_ratio(math.nan)) and np.isnan(erf_ratio(np.array([1.0, math.nan, 3.0]))[1])


def test_real_erfcx_matches_mpmath():
    x = np.concatenate([[0.0], np.logspace(-300.0, 300.0, 121), np.linspace(0.0, 30.0, 121)])
    got = erfcx(x)
    assert got[0] == 1.0
    with mpmath.workdps(40):
        for value, u in zip(got, x):
            assert abs(value - _erfcx_ref(float(u))) <= 1e-15 * _erfcx_ref(float(u))
            assert erfcx(float(u)) == value


def test_complex_erfcx_matches_mpmath():
    z = (_ERFCX_X[:, None] + 1j * _ERFCX_Y).ravel()
    got = erfcx(z)
    with mpmath.workdps(40):
        for value, u in zip(got, z):
            zm = mpmath.mpc(complex(u))
            ref = mpmath.exp(zm * zm) * mpmath.erfc(zm)
            assert abs(value - ref) <= 2e-15 * abs(ref)
            assert erfcx(complex(u)) == value


def test_special_functions_warn_at_no_finite_argument():
    big = np.finfo(float).max
    real = np.array([0.0, 5e-324, 1e-300, 1.0, 1e154, 1e300, big])
    parts = np.concatenate([real, -real])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [erfcx(real), erfcx(real[:, None] + 1j * parts), erf_ratio(parts), one_minus_erf_ratio(parts)]
    assert all(np.all(np.isfinite(v)) for v in values)
    # the 1 / (sqrt(pi) x) asymptote, not an overflow, from 1e154 up
    assert erfcx(1e300) == pytest.approx(1.0 / (math.sqrt(math.pi) * 1e300), rel=1e-15)
    assert erfcx(1e300 + 1e300j) == pytest.approx(1.0 / (math.sqrt(math.pi) * (1e300 + 1e300j)), rel=1e-15)
