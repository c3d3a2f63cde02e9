"""Normalized photocount coincidence rates R(tau) behind the random medium.

Same-mode rates for the four input states, normalized by t_bar^2 so that
two independently transmitted photons give R = 1; the coherent state is
bounded below by 2 instead (classical Gaussian speckle never drops under
the uncorrelated-intensity level):

* entangled:    R = 1 + (1/(s sqrt(pi))) Int_{-1}^{1} f(t,w,x) Erf[(s/2)(1-|x|)] dx
* Fock:         R = 1 + Re erfcx(sqrt(2)/w + i|t|/sqrt(2))
* coherent:     R = 2 + erfcx(sqrt(2)/w) + Re erfcx(sqrt(2)/w + i|t|/sqrt(2))
* symmetrized:  R = 1 + 2 |K_theta|^2 Int f(t,w,x) [I(s,x) + cos(theta) J(s,x)] dx

with dimensionless delay t, pump width s and correlation frequency w.
``f`` is the Fourier transform of |C|^2; for the exponential Model I it is
the Lorentzian ``2w / (4 + w^2 (x + t)^2)``.  For the diffusive Model II
the exact pole expansion of |C_II|^2 makes ``f`` a short sum of
exponentials and the Fock/coherent averages short sums of the
Gaussian x Lorentzian closed form.  The x-integrals of both models use one
composite Gauss-Legendre rule, evaluated as numpy arrays, whose embedded
lower-order rule checks every value.

The Fock/coherent closed forms are evaluated through the scaled
complementary error function: the textbook grouping multiplies
``exp(-t^2/2)`` by an Erf term growing like ``exp(+t^2/2)`` and loses all
precision beyond |t| ~ 6, while ``Re erfcx(z)`` with
``z = sqrt(2)/w + i|t|/sqrt(2)`` is the same quantity evaluated as a single
decaying factor.

``rate_numeric_batch`` is the independent verification route: a
tensor-product trapezoid quadrature (in rotated sum/difference frequency
coordinates, with Richardson extrapolation) of the defining
double-frequency integrals.  It builds one field per curve: the delay
only multiplies the integrand by a phase of the difference frequency, so
the field is built, edge-checked and summed over the pump axis once, and
every tau costs one O(n) contraction.  ``rate_numeric`` is its one-tau
call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Union

import numpy as np
from scipy.integrate import quad
from scipy.special import erf as _scipy_erf
from scipy.special import erfcx as _scipy_erfcx

from ._special import SQRT_PI, erf_ratio, sinc
from .correlation import CorrelationModel, FrequencyGrid, ModelI, ModelII, correlation_sq_magnitude
from .errors import (
    DegenerateStateError,
    GridTooNarrowError,
    NonFiniteValueError,
    QuadratureNotConvergedError,
    RangeError,
    TailNotConvergedError,
)
from .states import (
    CoherentState,
    EntangledState,
    FockState,
    StateSpec,
    SymmetrizedState,
    EDGE_MASS_BUDGET,
    NORM_DEGENERACY_FLOOR,
    _continuum_norm,
    _edge_fraction,
    _theta_norm_denominator,
)

__all__ = [
    "DimensionlessArgs",
    "RateCurve",
    "QuadratureResult",
    "SemiclassicalVerdict",
    "erf_complex",
    "rate_entangled_cw_limit",
    "rate_entangled",
    "rate_fock",
    "rate_coherent",
    "rate_theta",
    "rate_numeric",
    "rate_numeric_batch",
    "rate_cross_mode",
    "rate_closed_form",
    "mean_photocount",
    "visibility",
    "classify_semiclassical",
    "compute_rate_curve",
]

ERF_RANGE = 30.0
CW_LIMIT = "cw-limit"  # the model value of frequency-flat transmission, w = inf
THETA_PI_LIMIT_S = 1e-6


class QuadratureResult(NamedTuple):
    value: float
    error: float


@dataclass(frozen=True)
class DimensionlessArgs:
    """Dimensionless (delay, pump width, correlation frequency) triple.

    Entangled/symmetrized states: t = tau/eta_minus, s = |sigma*eta_plus|,
    w = |Omega*eta_minus|.  Fock/coherent: t = tau*delta, w = Omega/delta
    (s unused, stored as 0).
    """

    t: float
    s: float
    w: float

    @classmethod
    def from_state(cls, state: StateSpec, model: Union[CorrelationModel, str], tau: float):
        scale = _model_scale(model)
        if isinstance(state, (EntangledState, SymmetrizedState)):
            eta_m = state.crystal.eta_minus
            return cls(t=tau / eta_m, s=abs(state.pump.sigma * state.crystal.eta_plus), w=abs(scale * eta_m))
        return cls(t=tau * state.delta, s=0.0, w=scale / state.delta)


def _model_scale(model: Union[CorrelationModel, str]) -> float:
    """omega_corr or omega_th of a correlation model; inf for the flat-transmission ``CW_LIMIT``.

    Anything else, a misspelt cw limit or ``None`` included, raises ``TypeError``.
    """
    if isinstance(model, ModelI):
        return model.omega_corr
    if isinstance(model, ModelII):
        return model.omega_th
    if isinstance(model, str) and model == CW_LIMIT:
        return math.inf
    raise TypeError(f"model must be ModelI, ModelII or {CW_LIMIT!r}, got {model!r}")


@dataclass
class RateCurve:
    """Sampled R(tau) with provenance: state, correlation model, method."""

    taus: np.ndarray
    rs: np.ndarray
    state: StateSpec
    model: Union[CorrelationModel, str]
    method: str

    def __post_init__(self):
        self.taus = np.asarray(self.taus, dtype=float)
        self.rs = np.asarray(self.rs, dtype=float)
        if self.taus.shape != self.rs.shape:
            raise ValueError("taus and rs must have identical shapes")
        if not (np.all(np.isfinite(self.taus)) and np.all(np.isfinite(self.rs))):
            raise NonFiniteValueError("taus and rs must be finite")
        if np.any(np.diff(self.taus) <= 0):
            raise ValueError("taus must be strictly increasing")
        if np.any(self.rs < 0):
            raise ValueError("coincidence rates must be nonnegative")


@dataclass(frozen=True)
class SemiclassicalVerdict:
    classification: str  # "nonclassical" | "consistent-with-classical"
    implied_intensity_variance: Optional[float]


def erf_complex(z):
    """Error function of complex argument, |Re z|, |Im z| <= 30.

    Backed by the Faddeeva evaluation in scipy; odd and conjugate
    symmetric.  Within the documented box the true value can exceed the
    double range (|erf| ~ e^{y^2 - x^2}); those points overflow to inf.
    """
    arr = np.asarray(z, dtype=complex)
    if np.any(np.abs(arr.real) > ERF_RANGE) or np.any(np.abs(arr.imag) > ERF_RANGE):
        raise RangeError(f"erf_complex documented for |Re z|, |Im z| <= {ERF_RANGE}")
    out = _scipy_erf(arr)
    return complex(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Reduced one-dimensional kernels (dimensionless, vectorised over x)

def _i_kernel(s: float, x):
    """I(s,x) = Erf[(s/2)(1-|x|)] / (s sqrt(pi)); continuous s -> 0 limit (1-|x|)/pi."""
    u = 1.0 - np.abs(x)
    return u / math.pi * erf_ratio(s * u)


def _j_kernel(s: float, x):
    """J(s,x) = (1-|x|) exp(-s^2 x^2 / 4) / pi."""
    u = 1.0 - np.abs(x)
    return u / math.pi * np.exp(-0.25 * s * s * x * x)


def _ij_diff(s: float, x):
    """I - J without cancellation; O(s^2) uniformly on [-1, 1]."""
    u = 1.0 - np.abs(x)
    if abs(s) < 3e-2:
        s2 = s * s
        u2 = u * u
        x2 = x * x
        return (
            u
            / math.pi
            * s2
            * ((x2 / 4.0 - u2 / 12.0) + s2 * (u2 * u2 / 160.0 - x2 * x2 / 32.0)
               + s2 * s2 * (x2 ** 3 / 384.0 - u2 ** 3 / 2688.0))
        )
    return _i_kernel(s, x) - _j_kernel(s, x)


# Model II pole expansion.  With v = |dw|/omega_th, |C_II|^2 = psi(v) =
# 2v / (cosh sqrt(2v) - cos sqrt(2v)) is even and meromorphic in v with
# simple poles at v = +-i b_k, b_k = pi^2 k^2, hence
#   psi(v) = sum_k c_k / (v^2 + b_k^2),   c_k = (-1)^(k+1) 4 pi^5 k^5 / sinh(pi k),
#   G(xi)  = Int_0^inf psi(v) cos(xi v) dv = sum_k a_k exp(-b_k |xi|),   a_k = pi c_k / (2 b_k).
# The terms past k = 20 carry under 1e-24 of psi(0) = 1 and of Int_R G = pi.
# The series cancels for large v, so |C|^2 itself stays the direct
# ``correlation_sq_magnitude``.
_POLE_K = np.arange(1.0, 21.0)
_POLE_B = math.pi**2 * _POLE_K**2
_POLE_C = (-1.0) ** (_POLE_K + 1.0) * 4.0 * math.pi**5 * _POLE_K**5 / np.sinh(math.pi * _POLE_K)
_POLE_A = 0.5 * math.pi * _POLE_C / _POLE_B

# Composite Gauss-Legendre rule of the reduced integrals: 20 nodes per
# panel, with the embedded 10-node rule as the error estimate.
_GL_FINE = np.polynomial.legendre.leggauss(20)
_GL_COARSE = np.polynomial.legendre.leggauss(10)
_GL_NODES = np.concatenate([_GL_FINE[0], _GL_COARSE[0]])
REDUCED_ERROR_GATE = 1e-7


def _graded(center: float, smallest: float) -> list:
    """Points center +- smallest * 4^j for widths below 2, the length of [-1, 1]."""
    points = []
    while smallest < 2.0:
        points += [center - smallest, center + smallest]
        smallest *= 4.0
    return points


def _panel_edges(t: float, w: float, s: float) -> np.ndarray:
    """Panel edges on [-1, 1] as offsets d = x - t from the kernel peak.

    Edges sit at x = -1, 0, t, 1 (the kinks of the state kernels and of
    Model II's G).  Toward x = t, clipped to [-1, 1], the panels shrink
    geometrically to 0.25 / (pi^2 w), a quarter of the decay length of
    G_II's slowest term (Model I's Lorentzian is wider still, 2 / w).  For
    s > 4 they also shrink toward x = -1, 0, 1 to 1 / s, because the erf
    and Gaussian factors of the state kernels vary on the scale 2 / s
    there.  Offsets keep w * d exact near the peak.
    """
    lo, hi = -1.0 - t, 1.0 - t
    peak = min(max(0.0, lo), hi)
    edges = [lo, -t, hi, peak] + _graded(peak, 0.25 / (math.pi**2 * w))
    if s > 4.0:
        for center in (lo, -t, hi):
            edges += _graded(center, 1.0 / s)
    edges = np.unique(edges)
    return edges[(edges >= lo) & (edges <= hi)]


def _integrate_reduced(kernel, t: float, w: float, s: float, kind: str) -> float:
    """Int_{-1}^{1} kernel(x) * w * G(w (x - t)) dx by the composite Gauss-Legendre rule.

    G is the Lorentzian 2 / (4 + xi^2) for model I and the exponential sum
    of the Model II pole expansion.  ``kernel`` takes an array of x.  The
    sum over panels of |20-node - 10-node| bounds the error and must stay
    under ``REDUCED_ERROR_GATE``.
    """
    edges = _panel_edges(t, w, s)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    d = mid[:, None] + half[:, None] * _GL_NODES
    xi = np.abs(w * d)
    if kind == "I":
        g = 2.0 / (4.0 + xi * xi)
    else:
        g = np.exp(-xi[..., None] * _POLE_B) @ _POLE_A
    y = kernel(t + d) * (w * g) * half[:, None]
    n = _GL_FINE[0].size
    fine = y[:, :n] @ _GL_FINE[1]
    coarse = y[:, n:] @ _GL_COARSE[1]
    err = float(np.abs(fine - coarse).sum())
    if not err <= REDUCED_ERROR_GATE:
        raise QuadratureNotConvergedError(
            f"reduced rate integral did not converge: estimate {err:.2e}"
        )
    return float(fine.sum())


def _check_args(w: float, kind: str, zero_ok: bool = False) -> None:
    """The one argument check of the reduced forms: w in (0, inf], or in
    [0, inf] with ``zero_ok``, and ``kind`` "I" or "II"; else ``ValueError``."""
    if not (w >= 0.0 if zero_ok else w > 0.0):
        raise ValueError(f"w must lie in {'[' if zero_ok else '('}0, inf], got {w!r}")
    if kind not in ("I", "II"):
        raise ValueError(f'kind must be "I" or "II", got {kind!r}')


# ---------------------------------------------------------------------------
# Entangled state

def rate_entangled_cw_limit(t: float, s: float) -> float:
    """R for frequency-flat transmission (Hong-Ou-Mandel peak), Eq. of the
    interferometer up to the sign of the interference term.

    1 + (sqrt(pi)/s) Erf[(s/2)(1-|t|)] for |t| < 1, else 1; the s -> 0
    limit is the triangle 1 + (1-|t|).
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    t = abs(t)
    if t >= 1.0:
        return 1.0
    u = 1.0 - t
    return 1.0 + u * erf_ratio(s * u)


def rate_entangled(t: float, s: float, w: float, kind: str = "I") -> float:
    """Entangled-state rate at dimensionless (t, s, w) for model ``kind``."""
    if s < 0:
        raise ValueError("s must be >= 0")
    _check_args(w, kind)
    if math.isinf(w):
        return rate_entangled_cw_limit(t, s)
    return 1.0 + _integrate_reduced(lambda x: _i_kernel(s, x), t, w, s, kind)


# ---------------------------------------------------------------------------
# Fock and coherent states

def _gauss_kernel_avg(t: float, w: float, kind: str) -> float:
    """Int_R N(y) |C(y/w)|^2 cos(t y) dy, N the unit normal density.

    Model I: Re erfcx(sqrt2/w + i|t|/sqrt2).  Model II: the pole expansion
    makes it sum_k c_k w^2 Int N(y) cos(t y) / (y^2 + q_k^2) dy, q_k = w b_k,
    and each Gaussian x Lorentzian integral is
    sqrt(pi/8) / q e^{-t^2/2} [erfcx((q - t)/sqrt2) + erfcx((q + t)/sqrt2)].
    For q < t, erfcx(-a) = 2 e^{a^2} - erfcx(a) folds the growing factor
    into 2 e^{q^2/2 - q t}, so no term overflows at large |t|.
    """
    t = abs(t)
    if math.isinf(t):
        return 0.0
    if kind == "I":
        re = 0.0 if math.isinf(w) else math.sqrt(2.0) / w
        return float(_scipy_erfcx(re + 1j * t / math.sqrt(2.0)).real)
    if math.isinf(w):
        return math.exp(-0.5 * t * t)
    q = w * _POLE_B
    a = (q - t) / math.sqrt(2.0)
    below = a < 0.0
    near = _scipy_erfcx((q + t) / math.sqrt(2.0)) + np.where(below, -1.0, 1.0) * _scipy_erfcx(np.abs(a))
    far = np.where(below, 2.0 * np.exp(np.minimum(q * (0.5 * q - t), 0.0)), 0.0)
    voigt = math.exp(-0.5 * t * t) * near + far
    return math.sqrt(math.pi / 8.0) * w * float(np.dot(_POLE_C / _POLE_B, voigt))


def rate_fock(t: float, w: float, kind: str = "I") -> float:
    """Fock-state rate; bounded in [1, 2], Gaussian-smooth at t = 0."""
    _check_args(w, kind)
    return 1.0 + _gauss_kernel_avg(t, w, kind)


def rate_coherent(t: float, w: float, kind: str = "I") -> float:
    """Coherent-state rate; bounded in [2, 4], tail value 2 + erfcx(sqrt2/w)."""
    _check_args(w, kind, zero_ok=True)
    if w == 0.0:
        return 2.0
    return 2.0 + _gauss_kernel_avg(0.0, w, kind) + _gauss_kernel_avg(t, w, kind)


# ---------------------------------------------------------------------------
# Symmetrized states

def _rate_theta_eval(t: float, s: float, w: float, theta: float, kind: str, denom: float) -> float:
    """The rate at a norm denominator ``denom = _theta_norm_denominator(theta, s)``."""
    cpl = 1.0 + math.cos(theta)

    def kernel(x):
        return _ij_diff(s, x) + cpl * _j_kernel(s, x)

    if math.isinf(w):
        t_ = abs(t)
        num = math.pi * kernel(t_) if t_ < 1.0 else 0.0
    else:
        num = _integrate_reduced(kernel, t, w, s, kind)
    return 1.0 + 2.0 * num / denom


def rate_theta(t: float, s: float, w: float, theta: float, kind: str = "I", allow_limit: bool = True) -> float:
    """Rate for the symmetrized state B_theta (same-mode case).

    theta = pi with s = 0 is a 0/0 limit of the norm; it is evaluated at
    s = 1e-6 with one Richardson step toward 0 (exact to O(s^4) because
    the kernels are cancellation-free).  Pass ``allow_limit=False`` to get
    the degenerate-state error instead.
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    _check_args(w, kind)
    denom = _theta_norm_denominator(theta, s)
    if denom < 2.0 * NORM_DEGENERACY_FLOOR:
        if not allow_limit:
            raise DegenerateStateError(
                f"degenerate antisymmetric state at theta={theta}, s={s}"
            )
        s0 = max(s, THETA_PI_LIMIT_S)
        r_full = _rate_theta_eval(t, s0, w, theta, kind, _theta_norm_denominator(theta, s0))
        r_half = _rate_theta_eval(t, 0.5 * s0, w, theta, kind, _theta_norm_denominator(theta, 0.5 * s0))
        return (4.0 * r_half - r_full) / 3.0
    return _rate_theta_eval(t, s, w, theta, kind, denom)


# ---------------------------------------------------------------------------
# Cross-mode rates, photocount, nonclassicality

def rate_cross_mode(state: StateSpec) -> float:
    """R for detectors in two different outgoing modes: parameter-free."""
    return 4.0 if isinstance(state, CoherentState) else 2.0


def mean_photocount(t_bar: float) -> float:
    """Disorder-averaged photon number per outgoing mode: 2 * t_bar for all states."""
    if not 0.0 < t_bar <= 1.0:
        raise ValueError("t_bar must be in (0, 1]")
    return 2.0 * t_bar


def classify_semiclassical(r_value: float) -> SemiclassicalVerdict:
    """Mandel-bound check: any classical intensity distribution forces R >= 2."""
    if r_value < 0:
        raise ValueError("rate must be >= 0")
    implied = 0.5 * r_value - 1.0
    if r_value < 2.0 - 1e-9:
        return SemiclassicalVerdict("nonclassical", None)
    return SemiclassicalVerdict("consistent-with-classical", implied)


def visibility(curve: RateCurve, tail_rtol: float = 1e-4) -> float:
    """|R(0) - R(inf)| / (R(0) + R(inf)), R(inf) from the converged curve tail.

    The tail is the last decade of |tau|; it must be flat to ``tail_rtol``
    relative or ``TailNotConvergedError`` is raised.
    """
    taus = curve.taus
    rs = curve.rs
    at_zero = np.flatnonzero(taus == 0.0)
    if at_zero.size == 0:
        raise ValueError("curve must contain tau = 0")
    r0 = float(rs[at_zero[0]])

    abs_tau = np.abs(taus)
    tau_max = abs_tau.max()
    if tau_max <= 0:
        raise TailNotConvergedError("curve has no tail points")
    tail = abs_tau >= 0.1 * tau_max
    tail_vals = rs[tail]
    r_inf = float(rs[np.argmax(abs_tau)])
    spread = float(tail_vals.max() - tail_vals.min())
    if spread > tail_rtol * max(abs(r_inf), 1e-300):
        raise TailNotConvergedError(
            f"tail not converged: relative spread {spread / max(abs(r_inf), 1e-300):.2e} "
            f"over the last decade of tau"
        )
    return abs(r0 - r_inf) / (r0 + r_inf)


# ---------------------------------------------------------------------------
# Direct quadrature of the defining double-frequency integrals

def _round_to_4k1(n: int) -> int:
    return max(9, ((n - 1) // 4) * 4 + 1)


def _model_d_support(model: CorrelationModel) -> float:
    if isinstance(model, ModelI):
        return 19.0 * model.omega_corr
    return 600.0 * model.omega_th


def _tail_integral(f, a: float, freq: float, weight: str = "cos") -> QuadratureResult:
    """Int_a^inf f(d) w(freq d) dd, w = cos or sin, for decaying f (QUADPACK
    Fourier rule), with its error estimate."""
    if abs(freq) < 1e-12:
        return QuadratureResult(*quad(f, a, np.inf, limit=200)) if weight == "cos" else QuadratureResult(0.0, 0.0)
    value, error = quad(f, a, np.inf, weight=weight, wvar=abs(freq), limit=200)
    return QuadratureResult(-value if weight == "sin" and freq < 0 else value, error)


def _exchange_tail(
    pump, crystal, model, tau: float, d_half: float, theta: Optional[float] = None
) -> QuadratureResult:
    """|d| > d_half remainder of Int dp dd alpha^2 X(p, d) |C|^2 cos(d tau).

    X is the entangled sinc product s_+ s_-, s_pm = sinc(y_pm), or, given
    ``theta``, the symmetrized exchange 2 s_+ s_- + e^{i theta} s_+^2 +
    e^{-i theta} s_-^2.  At large |d| with b = eta_- d and a = eta_+ p,
    s_+ s_- = -2[cos b - cos a] / b^2 and
    s_pm^2 = 2[1 - cos(a +- b)] / b^2 (1 -+ 2a/b); the pump integral is
    then analytic.  The leading terms collapse to the cosine integrals F
    (at tau) and O_pm (at eta_- +- tau) of |C|^2 / d^2:
    S [D F - (O_+ + O_-)/2] for the entangled pair and
    2 S [(D + cos theta) F - (1 + D cos theta)(O_+ + O_-)/2] for the
    symmetrized one, D = exp(-s^2/4).  The 2a/b term of s_pm^2 is odd in
    p but survives against sin a sin b: the symmetrized tail adds
    -S cos(theta) s^2 D / eta_- (Q_+ + Q_-), Q_pm the sine integrals of
    |C|^2 / d^3 at eta_- +- tau.  The entangled product has no such term
    (its expansion is even in a).  The first term both tails leave out
    is (a/b)^2 smaller than the leading one; with |cos| <= 1 it is at
    most k S M H / eta_-^2, M = s^2/2 + |s^2/2 - s^4/4| D, H the integral
    of |C|^2 / d^4, k = 1 (entangled) or 2 + 6 |cos theta| (symmetrized).
    Without the tail, an undamped kernel (|C| ~ 1) loses a 1/(pi Y)
    fraction of the exchange mass, Y = |eta_-| d_half / 2.  The error is
    that bound plus the QUADPACK estimates weighted by the absolute
    coefficients.
    """
    eta_m = crystal.eta_minus
    s = abs(pump.sigma * crystal.eta_plus)

    def csq_over_d2(d):
        return correlation_sq_magnitude(d, model) / (d * d)

    flat = _tail_integral(csq_over_d2, d_half, tau)
    osc = [_tail_integral(csq_over_d2, d_half, eta_m + sign * tau) for sign in (1, -1)]
    sines = [QuadratureResult(0.0, 0.0)] * 2
    scale = 2.0 * pump.sigma * SQRT_PI / (eta_m * eta_m) * 2.0
    damp = math.exp(-0.25 * s * s)
    a, b, c, k = damp, 1.0, 0.0, 1.0
    if theta is not None:
        sines = [
            _tail_integral(lambda d: csq_over_d2(d) / d, d_half, eta_m + sign * tau, "sin")
            for sign in (1, -1)
        ]
        a, b = 2.0 * (damp + math.cos(theta)), 2.0 * (1.0 + damp * math.cos(theta))
        c = -math.cos(theta) * s * s * damp / eta_m
        k = 2.0 + 6.0 * abs(math.cos(theta))
    h = QuadratureResult(*quad(lambda d: csq_over_d2(d) / (d * d), d_half, np.inf, limit=200))
    omitted = k * (0.5 * s * s + abs(0.5 * s * s - 0.25 * s**4) * damp) * (h.value + h.error) / (eta_m * eta_m)
    return QuadratureResult(
        value=scale
        * (a * flat.value - b * 0.5 * (osc[0].value + osc[1].value) + c * (sines[0].value + sines[1].value)),
        error=scale
        * (
            abs(a) * flat.error
            + abs(b) * 0.5 * (osc[0].error + osc[1].error)
            + abs(c) * (sines[0].error + sines[1].error)
            + omitted
        ),
    )


def _strided_reductions(G: np.ndarray, hp: float, hd: float) -> list:
    """For the Richardson strides k = 1, 2, 4: ``(k, h_k, wd_k)`` with
    ``h_k = wp_k @ G[::k, ::k]``, so that the strided trapezoid sum of
    ``G(p, d) phase(d)`` is ``(h_k * phase[::k]) @ wd_k``."""
    out = []
    for k in (1, 2, 4):
        sub = G[::k, ::k]
        wp = np.full(sub.shape[0], hp * k)
        wp[0] = wp[-1] = 0.5 * hp * k
        wd = np.full(sub.shape[1], hd * k)
        wd[0] = wd[-1] = 0.5 * hd * k
        out.append((k, wp @ sub, wd))
    return out


def rate_numeric_batch(
    state: StateSpec,
    model: CorrelationModel,
    taus: Sequence[float],
    grid: Optional[FrequencyGrid] = None,
    *,
    points: Optional[int] = None,
    tolerance: float = 1e-5,
) -> List[QuadratureResult]:
    """Rates at every tau by tensor-product quadrature of the double frequency integral.

    Integration runs in rotated coordinates p = w1 + w2 - 2 wbar (pump
    detuning) and d = w1 - w2 (kernel argument); the |d| kink of |C|^2
    sits on a grid line, so one Richardson step cleans the trapezoid
    error to O(h^4).  If ``grid`` is given, its point count and a rotated
    square circumscribing it set the axes; otherwise state- and
    model-aware axes are built automatically.

    The delay enters only through a phase of d, so the field G(p, d) (the
    integrand without that phase) is built and edge-checked once, and
    reduced over p once per Richardson stride; each tau then costs O(n)
    plus, for the entangled and symmetrized states, the analytic exchange
    tail beyond the d axis.  Their d axis resolves both the delay phase
    tau d and the sinc arguments eta_- d / 2: one cell spans at most
    0.7 rad of ``max(|eta_-|, max |tau|) d``, so the axis follows the
    batch's largest |tau|, and a one-tau call past |tau| = |eta_-| runs on
    its own axis.

    Returns one ``QuadratureResult(value, error)`` per tau and raises
    ``QuadratureNotConvergedError`` when a tau's Richardson error estimate
    exceeds ``tolerance``, or ``GridTooNarrowError`` when the outermost
    cells carry more than 1e-6 of the integrand mass.
    """
    taus = [float(tau) for tau in taus]
    two_photon = not isinstance(state, CoherentState)
    if isinstance(state, (FockState, CoherentState)):
        if points is None:
            points = 1025
        width = state.delta
        omega_bar = state.omega_bar
        p_half = 12.0 * width
        d_half = min(12.0 * width, max(_model_d_support(model), 0.5 * width))
    else:
        # sinc tails and the |d| kink need a denser axis for 1e-6 agreement
        if points is None:
            points = 1537
        if state.pump.sigma <= 0:
            raise ValueError("rate_numeric needs sigma > 0; use the cw closed forms")
        phase_rate = max([abs(state.crystal.eta_minus)] + [abs(tau) for tau in taus])
        omega_bar = state.pump.omega_bar
        p_half = 8.0 * state.pump.sigma
        n_probe = _round_to_4k1(points if grid is None else grid.n)
        resolution_cap = 0.35 * (n_probe - 1) / phase_rate
        d_half = min(_model_d_support(model), resolution_cap)

    if grid is not None:
        n = _round_to_4k1(grid.n)
        p_half = d_half = 2.0 * grid.half_width
        p_center = 2.0 * (grid.center - omega_bar)
    else:
        n = _round_to_4k1(points)
        p_center = 0.0

    p = np.linspace(p_center - p_half, p_center + p_half, n)
    d = np.linspace(-d_half, d_half, n)
    hp = p[1] - p[0]
    hd = d[1] - d[0]
    csq = correlation_sq_magnitude(d, model)
    numerator_scale = 0.5  # Jacobian of (w1, w2) -> (p, d)

    if isinstance(state, (FockState, CoherentState)):
        gauss = np.exp(-0.5 * (p[:, None] ** 2 + d[None, :] ** 2) / state.delta**2) / (
            math.pi * state.delta**2
        )
        G = gauss * csq[None, :]
        denom = 1.0  # analytically normalized Gaussian envelopes
    else:
        crystal = state.crystal
        pump = state.pump
        alpha2 = np.exp(-((p / pump.sigma) ** 2))
        s_plus = sinc(0.5 * (crystal.eta_plus * p[:, None] + crystal.eta_minus * d[None, :]))
        s_minus = sinc(0.5 * (crystal.eta_plus * p[:, None] - crystal.eta_minus * d[None, :]))
        denom = _continuum_norm(state)
        if isinstance(state, EntangledState):
            exchange = s_plus * s_minus  # real: G stays a real array
        else:
            theta = state.theta
            exchange = (
                2.0 * s_plus * s_minus
                + np.exp(1j * theta) * s_plus**2
                + np.exp(-1j * theta) * s_minus**2
            )
        G = exchange * (alpha2[:, None] * csq[None, :])

    edge = _edge_fraction(np.abs(G))
    if edge > EDGE_MASS_BUDGET:
        raise GridTooNarrowError(
            f"grid too narrow for rate_numeric: outermost cells carry {edge:.2e} of the integrand"
        )
    reductions = _strided_reductions(G, hp, hd)

    results = []
    for tau in taus:
        phase = np.exp(-1j * d * tau) if two_photon else np.cos(0.5 * d * tau) ** 2
        s1, s2, s4 = (complex((h * phase[::k]) @ wd) for k, h, wd in reductions)
        r1 = (4.0 * s1 - s2) / 3.0
        err = abs(r1 - (4.0 * s2 - s4) / 3.0) / 8.0
        # analytic |d| > d_half remainder of the sinc-tailed exchange term
        if isinstance(state, (EntangledState, SymmetrizedState)):
            theta = getattr(state, "theta", None)
            tail = _exchange_tail(state.pump, state.crystal, model, tau, d_half, theta)
        else:
            tail = QuadratureResult(0.0, 0.0)
        numerator = numerator_scale * (r1.real + tail.value)
        err_rate = numerator_scale * (err + tail.error) / denom
        if two_photon:
            value = 1.0 + numerator / denom
        else:
            value = 2.0 * (1.0 + numerator / denom)
            err_rate *= 2.0
        if err_rate > tolerance:
            raise QuadratureNotConvergedError(
                f"quadrature not converged: estimate {err_rate:.2e} > tolerance {tolerance:.2e}"
            )
        results.append(QuadratureResult(value=value, error=err_rate))
    return results


def rate_numeric(
    state: StateSpec,
    model: CorrelationModel,
    tau: float,
    grid: Optional[FrequencyGrid] = None,
    *,
    points: Optional[int] = None,
    tolerance: float = 1e-5,
) -> QuadratureResult:
    """``rate_numeric_batch`` at one tau."""
    return rate_numeric_batch(state, model, [tau], grid, points=points, tolerance=tolerance)[0]


# ---------------------------------------------------------------------------
# Curves

def rate_closed_form(state: StateSpec, model: Union[CorrelationModel, str], tau: float) -> float:
    """Single closed-form/reduced rate for a physical state; model may be ``CW_LIMIT``."""
    args = DimensionlessArgs.from_state(state, model, tau)
    kind = "II" if isinstance(model, ModelII) else "I"
    if isinstance(state, EntangledState):
        return rate_entangled(args.t, args.s, args.w, kind)
    if isinstance(state, SymmetrizedState):
        return rate_theta(args.t, args.s, args.w, state.theta, kind)
    if isinstance(state, FockState):
        return rate_fock(args.t, args.w, kind)
    return rate_coherent(args.t, args.w, kind)


def compute_rate_curve(
    state: StateSpec,
    model: Union[CorrelationModel, str],
    taus: Sequence[float],
    method: str = "closed-form",
) -> RateCurve:
    """Evaluate R over a tau grid; ``model`` may be ``CW_LIMIT`` for flat transmission."""
    taus = np.asarray(taus, dtype=float)
    cw = math.isinf(_model_scale(model))
    if method == "closed-form":
        rs = np.array([rate_closed_form(state, model, tau) for tau in taus])
    elif method == "quadrature":
        if cw:
            raise ValueError("quadrature needs a concrete correlation model; cw has closed forms")
        rs = np.array([res.value for res in rate_numeric_batch(state, model, taus)])
    else:
        raise ValueError(f"unknown method {method!r}")
    # suppressed antisymmetric rates can round to -1e-13; clamp roundoff only
    rs[(rs < 0.0) & (rs > -1e-9)] = 0.0
    return RateCurve(taus=taus, rs=rs, state=state, model=model, method=method)
