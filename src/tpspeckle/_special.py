"""Small numerical kernels shared by the state and rate modules.

Everything here is pure numpy and accurate through removable
singularities.  The two error functions are rational approximations:

* ``erf``: the forms of Cephes ``ndtr.c`` (S. L. Moshier, Cephes Math
  Library), x T(x^2) / U(x^2) of degree 4/5 for |x| <= 1 and
  1 - exp(-x^2) P(|x|) / Q(|x|) of degree 8/8 above, within 4e-16
  relative.  From |x| = 6 on, erfc(x) < 2.2e-17 is under half an ulp
  of 1, and erf is exactly +-1 (Cephes' third form, for erfc past 8,
  is never needed).
* ``erfcx``: exp(z^2) erfc(z) = w(i z), w the Faddeeva function, by
  Weideman's rational series with N = 40 (J. A. C. Weideman, "Computation
  of the Complex Error Function", SIAM J. Numer. Anal. 31 (1994)
  1497-1518), for real or complex z with Re z >= 0, within 2e-15
  relative on the Fock and coherent arguments.

Each function is evaluated only where its values are used: a branch of
``erf`` runs on its own entries, ``_over_x`` skips an array whose entries
it all sets to 1 (a few such entries among others cost less to
overwrite than to pick out), and ``one_minus_erf_ratio`` runs its series
and ``erf_ratio`` each on their own range.
"""

from __future__ import annotations

import math

import numpy as np

SQRT_PI = math.sqrt(math.pi)

# Cephes ndtr.c: erf(x) = x T(x^2) / U(x^2) for |x| <= 1 and
# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 < x < 8; U and Q are monic.
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
# erfc(6) = 2.2e-17 < 2^-54: from here on 1 - erfc(|x|) rounds to 1
_ERF_ONE = 6.0


def _polynomial(x, coeffs, monic=False):
    """sum_k coeffs[k] x^(n-k) by Horner's rule, into a new array; ``monic`` adds a leading x^(n+1)."""
    out = x + coeffs[0] if monic else np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        out *= x
        out += c
    return out


def _erf_small(x):
    """erf for |x| <= 1."""
    z = x * x
    value = _polynomial(z, _ERF_T)
    value *= x
    value /= _polynomial(z, _ERF_U, monic=True)
    return value


def _erf_mid(a):
    """erf for 1 < a < _ERF_ONE, in place of a."""
    value = a * a
    np.negative(value, out=value)
    np.exp(value, out=value)
    value *= _polynomial(a, _ERFC_P)
    value /= _polynomial(a, _ERFC_Q, monic=True)
    return np.subtract(1.0, value, out=a)


def _erf_flat(x):
    """erf of a 1-D array."""
    a = np.abs(x)
    small = a <= 1.0
    if small.all():
        return _erf_small(x)
    mid = ~small & (a < _ERF_ONE)  # NaN is in neither branch
    if mid.all():
        return np.copysign(_erf_mid(a), x, out=a)
    out = np.sign(x)  # +-1 from _ERF_ONE on; NaN stays NaN
    if small.any():
        out[small] = _erf_small(x[small])
    if mid.any():
        out[mid] *= _erf_mid(a[mid])
    return out


def erf(x):
    """erf of a real number or array: a new array, a numpy float for 0-d input.

    Each branch runs only on its own entries, and on the array itself
    where it holds them all.
    """
    x = np.asarray(x, dtype=float)
    return _erf_flat(x.reshape(-1)).reshape(x.shape)[()]


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
# both 1: their x^2/6 and x^2/12 terms are under half an ulp.  The guard
# also keeps erf off subnormal arguments, where it loses relative accuracy.
UNIT_BELOW = 1e-8


def _over_x(x, numerator):
    """numerator(x) / x, with 1 where |x| < UNIT_BELOW; ``numerator`` does not run where every entry is 1.

    ``numerator`` takes an array and returns a new one.  Returns a float
    for 0-d input.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    unit = np.abs(flat) < UNIT_BELOW
    if unit.all():
        out = np.ones_like(flat)
    else:
        out = numerator(flat)
        np.divide(out, flat, out=out, where=~unit)
        out[unit] = 1.0
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def sinc(x):
    """sin(x)/x with sinc(0) = 1 (unnormalized convention)."""
    return _over_x(x, np.sin)


def _erf_half(z):
    out = erf(np.multiply(0.5, z))
    out *= SQRT_PI
    return out


def erf_ratio(z):
    """sqrt(pi) * Erf(z/2) / z, the even entire function with value 1 at 0.

    This is the two-photon spectral overlap of the biphoton with its
    frequency-swapped copy at dimensionless pump width z.
    """
    return _over_x(z, _erf_half)


# 1 - erf_ratio(s) = sum_{n>=1} (-1)^(n+1) q^n / (n! (2n+1)), q = s^2/4.  For
# |s| < 2 the 17 terms below leave out under 2e-17 of the sum; from |s| = 2
# on, 1 - erf_ratio(s) >= 0.25 and the plain difference is good to 1e-15.
_OMER_SERIES = [(-1.0) ** (n + 1) / (math.factorial(n) * (2 * n + 1)) for n in range(1, 18)]


def _omer_series(s):
    q = s * (0.25 * s)
    out = _polynomial(q, _OMER_SERIES[::-1])
    out *= q
    return out


def one_minus_erf_ratio(s):
    """1 - erf_ratio(s), computed without cancellation for every s.

    Elementwise over an array; returns a float for 0-d input.
    """
    s = np.asarray(s, dtype=float)
    small = np.abs(s) < 2.0
    if small.all():
        out = _omer_series(s)
    elif not small.any():
        out = 1.0 - erf_ratio(s)
    else:
        out = np.empty_like(s)
        out[small] = _omer_series(s[small])
        big = ~small
        out[big] = 1.0 - erf_ratio(s[big])
    return float(out) if np.ndim(out) == 0 else out
