"""Small numerical kernels shared by the state and rate modules.

Everything here is pure numpy and accurate through removable
singularities.  The one rational approximation is ``erfcx``:
exp(z^2) erfc(z) = w(i z), w the Faddeeva function, by Weideman's
rational series with N = 40 (J. A. C. Weideman, "Computation of the
Complex Error Function", SIAM J. Numer. Anal. 31 (1994) 1497-1518), for
real or complex z with Re z >= 0, within 2e-15 relative on the Fock and
coherent arguments.

The overlap m(s) = sqrt(pi) erf(s/2) / s and 1 - m(s) share one range
split: below |s| = 2, the Taylor series of 1 - m, which is at most 0.253
there, gives both; from 2 on, erfcx gives m, within 4e-16 relative, and
1 - m >= 0.25 is a plain difference.  Each range runs only on its own
entries, and ``sinc`` and ``erf_ratio`` skip an array that is all below
``UNIT_BELOW``, where they are 1.
"""

from __future__ import annotations

import math

import numpy as np

SQRT_PI = math.sqrt(math.pi)


def _polynomial(x, coeffs):
    """sum_k coeffs[k] x^(n-k) by Horner's rule, into a new array."""
    out = np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        out *= x
        out += c
    return out


# Weideman's series: w(z) = 2 p(Z) / (L - i z)^2 + 1 / (sqrt(pi) (L - i z)),
# Z = (L + i z) / (L - i z), p of degree N - 1, its coefficients the
# cosine transform of exp(-t^2) (L^2 + t^2) on t = L tan(theta / 2) at the
# angles theta = k pi / (2N), |k| < 2N: one FFT.
_WEIDEMAN_N = 40
_WEIDEMAN_L = math.sqrt(_WEIDEMAN_N / math.sqrt(2.0))
# past this |v|, 2 p u^2 is about 1e-150 of u / sqrt(pi)
_WEIDEMAN_BIG = 2.0**500


def _weideman_coefficients() -> np.ndarray:
    m = 2 * _WEIDEMAN_N
    t = _WEIDEMAN_L * np.tan(0.5 * math.pi / m * np.arange(-m + 1, m))
    f = np.concatenate([[0.0], np.exp(-t * t) * (_WEIDEMAN_L**2 + t * t)])
    a = np.fft.fft(np.fft.ifftshift(f)).real / (2 * m)
    return a[_WEIDEMAN_N:0:-1]  # highest power first


_WEIDEMAN_A = _weideman_coefficients()


def _cmul(ar, ai, br, bi):
    """The parts of (ar + i ai) (br + i bi)."""
    return ar * br - ai * bi, ar * bi + ai * br


def _erfcx_real(x):
    v = _WEIDEMAN_L + x
    big = v > _WEIDEMAN_BIG
    u = 1.0 / v
    zeta = (_WEIDEMAN_L - np.where(big, 0.0, x)) * u
    zeta[big] = -1.0
    p = _polynomial(zeta, _WEIDEMAN_A)
    p *= 2.0 * u
    p += 1.0 / SQRT_PI
    p *= u
    return p


def _erfcx_parts(x, y):
    """The parts of erfcx(x + i y), by real arithmetic on the parts: numpy's
    complex product rounds differently in its vector and scalar loops
    (a 1-element in-place product takes the scalar one), and a value must
    not depend on the array it is in.  A big v is scaled by 2^-600, exactly,
    so that |v|^2 stays finite; an infinite part, clipped to 2^500, leaves
    a u that rounds to 0."""
    vr = _WEIDEMAN_L + x
    big = np.maximum(vr, np.abs(y)) > _WEIDEMAN_BIG
    scale = np.where(big, 2.0**-600, 1.0)
    vr *= scale
    np.minimum(vr, _WEIDEMAN_BIG, out=vr)
    vi = np.clip(y * scale, -_WEIDEMAN_BIG, _WEIDEMAN_BIG)
    norm = vr * vr + vi * vi
    ur = vr / norm * scale
    ui = -vi / norm * scale
    zr, zi = _cmul(_WEIDEMAN_L - np.where(big, 0.0, x), -np.where(big, 0.0, y), ur, ui)
    zr[big] = -1.0
    zi[big] = 0.0
    pr, pi = np.full_like(zr, _WEIDEMAN_A[0]), np.zeros_like(zr)
    for c in _WEIDEMAN_A[1:]:
        pr, pi = _cmul(pr, pi, zr, zi)
        pr += c
    pr, pi = _cmul(pr, pi, 2.0 * ur, 2.0 * ui)
    pr += 1.0 / SQRT_PI
    return _cmul(pr, pi, ur, ui)


def erfcx(z):
    """exp(z^2) erfc(z) for real or complex z with Re z >= 0: a new array, a numpy scalar for 0-d input.

    With v = L + z and u = 1 / v, w(i z) = u (2 p((L - z) u) u + 1/sqrt(pi)),
    so nothing grows with |z|: the value falls to the 1 / (sqrt(pi) z)
    asymptote, and to 0 at an infinite real part.  Where a part of v
    passes 2^500, the series term is under an ulp of the other, and its
    argument (L - z) u is taken at its limit -1.
    """
    z = np.asarray(z, dtype=complex if np.iscomplexobj(z) else float)
    flat = z.reshape(-1)
    if z.dtype.kind == "c":
        out = np.empty_like(flat)
        out.real, out.imag = _erfcx_parts(flat.real, flat.imag)
    else:
        out = _erfcx_real(flat)
    return out.reshape(z.shape)[()]


# Below this |x| the correctly rounded sin(x)/x and sqrt(pi) erf(x/2)/x are
# both 1: their x^2/6 and x^2/12 terms are under half an ulp.  So sinc is 1
# there without the 0/0 at x = 0, and an all-below array skips the work.
UNIT_BELOW = 1e-8


def sinc(x):
    """sin(x)/x with sinc(0) = 1 (unnormalized convention); a float for 0-d input."""
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    unit = np.abs(flat) < UNIT_BELOW
    if unit.all():
        out = np.ones_like(flat)
    else:
        out = np.sin(flat)
        np.divide(out, flat, out=out, where=~unit)
        out[unit] = 1.0
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


# 1 - erf_ratio(s) = sum_{n>=1} (-1)^(n+1) q^n / (n! (2n+1)), q = s^2/4.  For
# |s| < 2 the 17 terms below leave out under 2e-17 of the sum.
_OMER_SERIES = [(-1.0) ** (n + 1) / (math.factorial(n) * (2 * n + 1)) for n in range(1, 18)]


def _omer_series(a):
    q = a * (0.25 * a)
    out = _polynomial(q, _OMER_SERIES[::-1])
    out *= q
    return out


def _erf_ratio_far(a):
    """erf_ratio(a) for a >= 2: sqrt(pi) (1 - exp(-x^2) erfcx(x)) / a, x = a/2.

    exp(-x^2) is taken as 0 from x = 30 on (it underflows there), so x^2 cannot overflow.
    """
    x = 0.5 * a
    out = np.minimum(x, 30.0)
    out *= -out
    np.exp(out, out=out)
    out *= _erfcx_real(x)
    np.subtract(1.0, out, out=out)
    out *= SQRT_PI
    out /= a
    return out


def _by_range(z, series, far):
    """``series(|z|)`` where |z| < 2 and ``far(|z|)`` elsewhere, NaN included, each on its own entries.

    Elementwise over an array; returns a float for 0-d input.
    """
    a = np.abs(np.asarray(z, dtype=float))
    flat = a.reshape(-1)
    near = flat < 2.0
    if near.all():
        out = series(flat)
    elif not near.any():
        out = far(flat)
    else:
        out = np.empty_like(flat)
        out[near] = series(flat[near])
        out[~near] = far(flat[~near])
    return float(out[0]) if a.ndim == 0 else out.reshape(a.shape)


def erf_ratio(z):
    """sqrt(pi) * Erf(z/2) / z, the even entire function with value 1 at 0.

    This is the two-photon spectral overlap of the biphoton with its
    frequency-swapped copy at dimensionless pump width z.
    """
    z = np.asarray(z, dtype=float)
    if (np.abs(z) < UNIT_BELOW).all():
        return 1.0 if z.ndim == 0 else np.ones_like(z)
    return _by_range(z, lambda a: 1.0 - _omer_series(a), _erf_ratio_far)


def one_minus_erf_ratio(s):
    """1 - erf_ratio(s), computed without cancellation for every s.

    Elementwise over an array; returns a float for 0-d input.
    """
    return _by_range(s, _omer_series, lambda a: 1.0 - _erf_ratio_far(a))
