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
composite 21-point Gauss-Kronrod rule, evaluated as numpy arrays.  Each
node is evaluated once and serves both the value and its error estimate
(against the embedded 10-point Gauss rule) and, in a symmetrized call,
every theta: that kernel is (1 + cos theta) J - K, with J and K free of
theta.

Every form takes w in [0, inf].  Frequency-flat transmission (the cw
limit, a model at infinite scale) is w = inf of the same forms, for
either model: ``f`` integrates to pi, so it becomes pi times a delta at
x = -t, and the Fock/coherent average becomes exp(-t^2/2).  At w = 0
``f`` vanishes and so does the average: every rate is 1 (coherent: 2).  The
symmetrized rate is one ratio of the x-integral to the norm denominator
at every point, both written so that no term cancels at theta = pi, where
each is O(s^2).  Where 1 + cos(theta) rounds to 0, s = 0 is a 0/0 limit,
and s is raised to 1e-8, below which the ratio no longer moves in double
precision; the closed form raises no degenerate-state error.

The reduced forms take numbers or arrays of t (and s, and theta), so a
figure column or a closed-form curve is one call over its abscissa, once
per column rather than once per point, and a figure's theta columns at one
(s, w) are one call over a column of theta; a call with numbers is the
size-1 case of the same code and returns a float.

The Fock/coherent closed forms are evaluated through the scaled
complementary error function: the textbook grouping multiplies
``exp(-t^2/2)`` by an Erf term growing like ``exp(+t^2/2)`` and loses all
precision beyond |t| ~ 6, while ``Re erfcx(z)`` with
``z = sqrt(2)/w + i|t|/sqrt(2)`` is the same quantity evaluated as a single
decaying factor.  ``erfcx`` is Weideman's rational series in numpy
(``_special``), and gives ``erf_ratio`` too, so the closed forms load no
scipy; ``quad``, the one QUADPACK call of the exchange tail,
imports ``scipy.integrate`` on its first call.

``rate_numeric_batch`` is the independent verification route: a
tensor-product trapezoid quadrature (in rotated sum/difference frequency
coordinates, with Richardson extrapolation) of the defining
double-frequency integrals.  The delay only multiplies the integrand by
a phase of the difference frequency d, so the field is summed over the
pump axis once per curve, and every tau costs one O(n_d) contraction.
The state kind picks, once, how those sums are built.  The Fock field
is a Gaussian envelope of the pump axis times a kernel of d, so its sums
are two 1-D sums; its d axis keeps one width at every delay and takes
more points as |tau| grows (one cell per 0.35 rad of the delay phase, up
to ``_BLOCK_VALUES`` points).  The coherent rate is R_F(0) + R_F(tau) of
that field, as in the closed form.  The entangled and symmetrized fields
are built in blocks of pump-axis rows under the ``_BLOCK_VALUES`` budget
of the reduced forms, so no n x n array is held, and their part past the
d axis is the analytic exchange tail, or its bound where |C|^2 has
decayed there; every other axis ends where the integrand is negligible.
``rate_numeric`` is the one-tau call; both take their axes from the
state, the model and the batch's largest |tau|, a model at infinite
scale (the cw limit) included.  Every value comes with its error
estimate; ``rate --method quadrature`` writes the worst one over its
curve into the CSV header.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import List, NamedTuple, Sequence, Union

import numpy as np

from ._special import SQRT_PI, UNIT_BELOW, erf_ratio, erfcx, one_minus_erf_ratio, sinc
from .correlation import CorrelationModel, ModelI, ModelII, _model_scale, correlation_sq_magnitude
from .errors import (
    NonFiniteValueError,
    QuadratureNotConvergedError,
    TailNotConvergedError,
)
from .states import (
    CoherentState,
    EntangledState,
    FockState,
    StateSpec,
    SymmetrizedState,
    _continuum_norm,
    _theta_norm_denominator,
)

__all__ = [
    "DimensionlessArgs",
    "QuadratureResult",
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
]

class QuadratureResult(NamedTuple):
    value: float
    error: float


@dataclass(frozen=True)
class DimensionlessArgs:
    """Dimensionless (delay, pump width, correlation frequency) triple.

    Entangled/symmetrized states: t = tau/eta_minus, s = |sigma*eta_plus|,
    w = |Omega*eta_minus|.  Fock/coherent: t = tau*delta, w = Omega/delta
    (s unused, stored as 0).  An array of tau gives an array of t.
    """

    t: float
    s: float
    w: float

    @classmethod
    def from_state(cls, state: StateSpec, model: CorrelationModel, tau: float):
        scale = _model_scale(model)
        if isinstance(state, (EntangledState, SymmetrizedState)):
            eta_m = state.crystal.eta_minus
            return cls(t=tau / eta_m, s=abs(state.pump.sigma * state.crystal.eta_plus), w=abs(scale * eta_m))
        return cls(t=tau * state.delta, s=0.0, w=scale / state.delta)


# ---------------------------------------------------------------------------
# Reduced one-dimensional kernels (dimensionless, vectorised over s and x)

def _i_kernel(s, x):
    """I(s,x) = Erf[(s/2)(1-|x|)] / (s sqrt(pi)); continuous s -> 0 limit (1-|x|)/pi."""
    u = 1.0 - np.abs(x)
    return u / math.pi * erf_ratio(s * u)


# Model II pole expansion.  With v = |dw|/omega_th, |C_II|^2 = psi(v) =
# 2v / (cosh sqrt(2v) - cos sqrt(2v)) is even and meromorphic in v with
# simple poles at v = +-i b_k, b_k = pi^2 k^2, hence
#   psi(v) = sum_k c_k / (v^2 + b_k^2),   c_k = (-1)^(k+1) 4 pi^5 k^5 / sinh(pi k),
#   G(xi)  = Int_0^inf psi(v) cos(xi v) dv = sum_k a_k exp(-b_k |xi|),   a_k = pi c_k / (2 b_k).
# The terms past k = 20 carry under 1e-24 of psi(0) = 1 and of Int_R G = pi.
# The series cancels at large v, and the 2v / (cosh - cos) form at small v;
# |C|^2 stays ``correlation_sq_magnitude``, whose real parts cancel nowhere.
_POLE_K = np.arange(1.0, 21.0)
_POLE_B = math.pi**2 * _POLE_K**2
_POLE_C = (-1.0) ** (_POLE_K + 1.0) * 4.0 * math.pi**5 * _POLE_K**5 / np.sinh(math.pi * _POLE_K)
_POLE_A = 0.5 * math.pi * _POLE_C / _POLE_B
# exp at or below this argument is subnormal or 0.  Such a term of G lies
# below half an ulp of G's k = 1 term, or, where that term is subnormal
# too, G is under 1e-305: setting them to 0 changes no rate (1 plus an
# integral of G) and skips numpy's slow subnormal path of exp.
_EXP_FLOOR = -708.0

# The 21-point Gauss-Kronrod rule of the reduced integrals (QUADPACK's
# dqk21) on its 11 nonnegative nodes: the Kronrod weights, and the weights
# of the embedded 10-point Gauss rule, whose nodes are every other one (0
# at the rest).  One evaluation per node gives both sums: the K21 sum is a
# panel's value and |K21 - G10| its error estimate.
_GK21_X = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_GK21_WK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_GK21_WG = (
    0.0, 0.066671344308688137593568809893332,
    0.0, 0.149451349150580593145776339657697,
    0.0, 0.219086362515982043995534934228163,
    0.0, 0.269266719309996355091226921569469,
    0.0, 0.295524224714752870173892994651338,
    0.0,
)


def _mirrored(half, sign: float = 1.0) -> np.ndarray:
    """Values at the nonnegative nodes, continued onto the negative ones times ``sign``."""
    half = np.asarray(half)
    return np.concatenate([half, sign * half[-2::-1]])


_GK_NODES = _mirrored(_GK21_X, -1.0)
# one column per sum: K21, G10
_GK_WEIGHTS = np.stack([_mirrored(_GK21_WK), _mirrored(_GK21_WG)], axis=1)
REDUCED_ERROR_GATE = 1e-7
# float64 values (512 kB) of one block of points of ``_integrate_reduced``,
# counted per quadrature node as its Model II pole terms; unblocked, a
# Model II figure column peaks at 5 to 8 MB of temporaries.  The sinc
# field of ``rate_numeric_batch`` takes as many values per block of
# pump-axis rows, and the Fock field's d axis at most as many points.
_BLOCK_VALUES = 2**16


def _graded(smallest) -> np.ndarray:
    """Offsets smallest * 4^j below 2, the length of [-1, 1], one row per smallest.

    All rows are as long as the one of the least ``smallest``; a row's
    entries past its own last offset below 2 are inf.
    """
    smallest = np.asarray(smallest, dtype=float)[..., None]
    least = smallest.min()
    levels = 0
    while least * 4.0**levels < 2.0:
        levels += 1
    steps = smallest * 4.0 ** np.arange(levels)
    steps[steps >= 2.0] = np.inf
    return steps


def _panel_edges(t: np.ndarray, w: float, s: np.ndarray) -> np.ndarray:
    """Panel edges on [-1, 1] as offsets d = x - t from the kernel peak, one sorted row per point (t, s).

    Edges sit at x = -1, 0, t, 1 (the kinks of the state kernels and of
    Model II's G).  Toward x = t, clipped to [-1, 1], the panels shrink
    geometrically to 0.25 / (pi^2 w), a quarter of the decay length of
    G_II's slowest term (Model I's Lorentzian is wider still, 2 / w).  For
    s > 4 they also shrink toward x = -1, 0, 1 to 1 / s, because the erf
    and Gaussian factors of the state kernels vary on the scale 2 / s
    there.  Offsets keep w * d exact near the peak.  A point's edges
    outside its [-1, 1] move onto the ends, so every row has one length
    and may repeat an edge.
    """
    t = t[:, None]
    lo, x0, hi = -1.0 - t, -t, 1.0 - t
    peak = np.minimum(np.maximum(0.0, lo), hi)
    steps = _graded(0.25 / (math.pi**2 * w))
    parts = [lo, x0, hi, peak, peak - steps, peak + steps]
    wide = s > 4.0
    if wide.any():
        steps = _graded(np.divide(1.0, s, out=np.full_like(s, 2.0), where=wide))
        for center in (lo, x0, hi):
            parts += [center - steps, center + steps]
    edges = np.concatenate(parts, axis=1)
    np.maximum(edges, lo, out=edges)
    np.minimum(edges, hi, out=edges)
    edges.sort(axis=1)
    return edges


def _pole_sum(xi: np.ndarray) -> np.ndarray:
    """G_II(xi) = sum_k a_k exp(-b_k xi) for xi >= 0."""
    terms = np.multiply(xi[..., None], -_POLE_B)
    dead = terms <= _EXP_FLOOR
    np.exp(terms, out=terms, where=~dead)
    terms[dead] = 0.0
    return terms @ _POLE_A


def _reduced_block(kernel, t, w: float, s, kind: str, lower, upper):
    """(values, error estimates) of ``_integrate_reduced`` on one block of
    points, whose panels run from ``lower`` to ``upper`` (one row each)."""
    mid = 0.5 * (upper + lower)
    half = 0.5 * (upper - lower)
    d = mid[..., None] + half[..., None] * _GK_NODES
    xi = np.abs(w * d)
    if kind == "II":
        g = _pole_sum(xi)
    else:
        # xi^2 overflows past sqrt(max float), where g is 0 anyway; inf squares silently
        xi[xi > math.sqrt(np.finfo(float).max)] = np.inf
        g = np.square(xi, out=xi)
        g += 4.0
        np.divide(2.0, g, out=g)
    g *= w
    g *= half[..., None]
    x = np.add(d, t[:, None, None], out=d)
    y = kernel(s[:, None, None], x)
    y *= g
    sums = y @ _GK_WEIGHTS
    fine, coarse = sums[..., 0], sums[..., 1]
    return fine.sum(axis=-1), np.abs(fine - coarse).sum(axis=-1)


def _integrate_reduced(kernel, t: np.ndarray, w: float, s: np.ndarray, kind: str):
    """(values, error estimates) of Int_{-1}^{1} kernel(s, x) * w * G(w (x - t)) dx at every point (t, s).

    ``t`` and ``s`` are 1-D arrays of one length and ``w`` is a number.  G
    is the Lorentzian 2 / (4 + xi^2) for model I and the exponential sum
    of the Model II pole expansion.  ``kernel`` takes broadcasting arrays
    of s and x and returns one array of their shape or several stacked on
    a leading axis, its channels: every channel is integrated on the same
    nodes, so each evaluation of G and of the kernel serves them all, and
    both returned arrays have the shape (channels..., points).  Both G
    integrate to pi over the real line, so at w = inf (flat transmission)
    w G(w d) is pi times the delta at d = 0 and the value is
    pi * kernel(s, t) on |t| < 1, 0 elsewhere, for either ``kind``; at
    w = 0 it is 0; both limits are exact, with estimate 0.  Otherwise each
    panel of ``_panel_edges`` takes the 21-point Gauss-Kronrod rule: its
    value is the K21 sum and its estimate |K21 - G10|, with the embedded
    10-point Gauss rule, summed over the panels.  A repeated edge drops
    out, and the points with equal panel counts run together, in blocks of
    at most ``_BLOCK_VALUES`` values, 20 per node for Model II and 8 for
    Model I: each point's value is the one it has on its own.  The caller
    gates the estimates (``_check_reduced``).
    """
    shape = np.shape(kernel(s[:0], t[:0]))[:-1] + t.shape  # the kernel at no point gives its channels
    if w == 0.0:
        return np.zeros(shape), np.zeros(shape)
    if math.isinf(w):
        inside = np.abs(t) < 1.0
        return np.where(inside, math.pi * kernel(s, np.where(inside, t, 0.0)), 0.0), np.zeros(shape)
    edges = _panel_edges(t, w, s)
    lower, upper = edges[:, :-1], edges[:, 1:]
    real = upper > lower
    count = real.sum(axis=1)
    # Model I has no pole terms, but its kernel keeps several arrays of one
    # value per node alive at once: its figure columns ran fastest in blocks
    # of 2^13 nodes, about 30% faster than 2^16, which spill the CPU cache
    per_node = _POLE_B.size if kind == "II" else 8
    value = np.empty(shape)
    error = np.empty(shape)
    for panels in sorted(set(count.tolist())):
        rows = np.flatnonzero(count == panels)
        size = max(1, _BLOCK_VALUES // (max(panels, 1) * _GK_NODES.size * per_node))
        for start in range(0, rows.size, size):
            block = rows[start : start + size]
            keep = real[block]
            value[..., block], error[..., block] = _reduced_block(
                kernel, t[block], w, s[block], kind,
                lower[block][keep].reshape(block.size, panels), upper[block][keep].reshape(block.size, panels),
            )
    return value, error


def _check_reduced(error: np.ndarray, w: float, **where) -> None:
    """``QuadratureNotConvergedError`` naming the worst point unless every
    estimate is within ``REDUCED_ERROR_GATE``; ``where`` holds the points'
    coordinates, one array each, in the order the message gives them."""
    if not (error <= REDUCED_ERROR_GATE).all():
        worst = int(np.argmax(np.where(np.isnan(error), np.inf, error)))
        at = "".join(f"{name}={coord[worst]:.6g}, " for name, coord in where.items())
        raise QuadratureNotConvergedError(
            f"reduced rate integral did not converge: estimate {error[worst]:.2e} at {at}w={w:.6g}"
        )


def _points(*coords):
    """The coordinates of the points broadcast to one shape: (flat float arrays, shape)."""
    arrays = [np.asarray(c, dtype=float) for c in coords]
    shape = np.broadcast(*arrays).shape
    flat = []
    for a in arrays:
        out = np.empty(shape)
        out[...] = a
        flat.append(out.reshape(-1))
    return flat, shape


def _shaped(values, shape):
    """Values of the flattened points in the points' shape; a float for one 0-d point."""
    values = values.reshape(shape)
    return float(values) if values.ndim == 0 else values


def _check_args(t, w: float, kind: str, s=None, theta=None) -> None:
    """The one argument check of the reduced forms, at every w, both
    limits included: no t is NaN; every s is finite and >= 0; every theta
    is finite; w in [0, inf]; and ``kind`` "I" or "II"; else ``ValueError``."""
    if np.isnan(t).any():
        raise ValueError("t must not be NaN")
    if s is not None and not (np.isfinite(s) & (s >= 0.0)).all():
        raise ValueError("s must be finite and >= 0")
    if theta is not None and not np.isfinite(theta).all():
        raise ValueError("theta must be finite")
    if not w >= 0.0:
        raise ValueError(f"w must lie in [0, inf], got {w!r}")
    if kind not in ("I", "II"):
        raise ValueError(f'kind must be "I" or "II", got {kind!r}')


# ---------------------------------------------------------------------------
# Entangled state
#
# Every rate below takes numbers or arrays of t (and s, and theta), which
# broadcast against each other; w and kind are numbers.  An array call
# returns an array of the broadcast shape, a call with numbers a float.

def rate_entangled_cw_limit(t, s):
    """R for frequency-flat transmission (Hong-Ou-Mandel peak), Eq. of the
    interferometer up to the sign of the interference term.

    ``rate_entangled`` at w = inf: 1 + (sqrt(pi)/s) Erf[(s/2)(1-|t|)] for
    |t| < 1, else 1; the s -> 0 limit is the triangle 1 + (1-|t|).
    """
    return rate_entangled(t, s, math.inf)


def rate_entangled(t, s, w: float, kind: str = "I"):
    """Entangled-state rate at dimensionless (t, s, w) for model ``kind``; w = inf is flat transmission."""
    (t, s), shape = _points(t, s)
    _check_args(t, w, kind, s)
    value, error = _integrate_reduced(_i_kernel, t, w, s, kind)
    _check_reduced(error, w, t=t, s=s)
    return _shaped(1.0 + value, shape)


# ---------------------------------------------------------------------------
# Fock and coherent states

def _gauss_kernel_avg(t: np.ndarray, w: float, kind: str) -> np.ndarray:
    """Int_R N(y) |C(y/w)|^2 cos(t y) dy, N the unit normal density, at every t of a 1-D array.

    Model I: Re erfcx(sqrt2/w + i|t|/sqrt2).  Model II: the pole expansion
    makes it sum_k c_k w^2 Int N(y) cos(t y) / (y^2 + q_k^2) dy, q_k = w b_k,
    and each Gaussian x Lorentzian integral is
    sqrt(pi/8) / q e^{-t^2/2} [erfcx((q - t)/sqrt2) + erfcx((q + t)/sqrt2)].
    For q < t, erfcx(-a) = 2 e^{a^2} - erfcx(a) folds the growing factor
    into 2 e^{q^2/2 - q t}, so no term overflows at large |t|.  At w = inf
    |C|^2 = 1 for either model and the average is e^{-t^2/2}; at w = 0
    |C|^2 vanishes off y = 0 and so does the average.
    """
    t = np.abs(t)
    gone = np.isinf(t)
    t = np.where(gone, 0.0, t)
    if w == 0.0:
        avg = np.zeros(t.size)
    elif math.isinf(w):
        avg = np.exp(-0.5 * t * t)
    elif kind == "I":
        avg = erfcx(math.sqrt(2.0) / w + 1j * (t / math.sqrt(2.0))).real
    else:
        gauss = np.exp(-0.5 * t * t)[:, None]
        t = t[:, None]
        q = w * _POLE_B
        a = (q - t) / math.sqrt(2.0)
        below = a < 0.0
        near = erfcx((q + t) / math.sqrt(2.0)) + np.where(below, -1.0, 1.0) * erfcx(np.abs(a))
        far = np.where(below, 2.0 * np.exp(np.minimum(q * (0.5 * q - t), 0.0)), 0.0)
        voigt = gauss * near + far
        avg = math.sqrt(math.pi / 8.0) * w * (voigt @ (_POLE_C / _POLE_B))
    return np.where(gone, 0.0, avg)


def rate_fock(t, w: float, kind: str = "I"):
    """Fock-state rate; bounded in [1, 2], Gaussian-smooth at t = 0."""
    (t,), shape = _points(t)
    _check_args(t, w, kind)
    return _shaped(1.0 + _gauss_kernel_avg(t, w, kind), shape)


def rate_coherent(t, w: float, kind: str = "I"):
    """Coherent-state rate; bounded in [2, 4], tail value 2 + erfcx(sqrt2/w)."""
    (t,), shape = _points(t)
    _check_args(t, w, kind)
    return _shaped(2.0 + _gauss_kernel_avg(np.zeros(1), w, kind) + _gauss_kernel_avg(t, w, kind), shape)


# ---------------------------------------------------------------------------
# Symmetrized states

def _theta_kernels(s, x):
    """The channels J and K of the symmetrized kernel cpl J - K, stacked:
    J = (1-|x|)/pi exp(-s^2 x^2/4) and
    K = (1-|x|)/pi [(1 - erf_ratio(s (1-|x|))) + expm1(-s^2 x^2/4)]."""
    u = 1.0 - np.abs(x)
    su = s * u
    channels = np.empty((2, *su.shape))
    channels[1] = one_minus_erf_ratio(su)
    np.expm1(-0.25 * s * s * x * x, out=channels[0])
    channels[1] += channels[0]
    channels[0] += 1.0
    channels *= u / math.pi
    return channels


def rate_theta(t, s, w: float, theta, kind: str = "I"):
    """Rate for the symmetrized state B_theta (same-mode case).

    R = 1 + 2 Int kernel * w G dx / _theta_norm_denominator(cpl, s), one
    ratio at every point, cpl = 1 + cos(theta).  theta broadcasts against
    t and s as they do against each other, so a column of theta values
    gives one row per theta.  The kernel I(s,x) + cos(theta) J(s,x),
    J(s,x) = (1-|x|) exp(-s^2 x^2/4) / pi, is written cpl J - K with
    K = (1-|x|)/pi [(1 - erf_ratio(s (1-|x|))) + expm1(-s^2 x^2/4)]
    (``_theta_kernels``): J and K do not depend on theta, so they are
    integrated once per distinct (t, s) and combined per theta, and each
    (point, theta) is gated on cpl E_J + E_K, which bounds the estimate of
    cpl J - K.  At theta = pi the value is -K, in which no term cancels, and
    neither does the denominator, so where theta = pi makes both O(s^2)
    the ratio keeps its last bits.  Where cpl rounds to 0 (theta = pi to
    double precision), s = 0 is a 0/0 limit: s is raised to
    ``UNIT_BELOW``, under which the ratio's O(s^2) departure from that
    limit is below half an ulp.  A rate in (-1e-9, 0) is the roundoff of a
    suppressed zero and is returned as 0.
    """
    (t, s, theta), shape = _points(t, s, theta)
    _check_args(t, w, kind, s, theta)
    cpl = 1.0 + np.cos(theta)
    s = np.where(cpl == 0.0, np.maximum(s, UNIT_BELOW), s)
    pairs, at = np.unique(np.stack([t, s]), axis=1, return_inverse=True)
    (j, k), (j_error, k_error) = _integrate_reduced(_theta_kernels, pairs[0], w, pairs[1], kind)
    _check_reduced(cpl * j_error[at] + k_error[at], w, t=t, s=s, theta=theta)
    r = 1.0 + 2.0 * (cpl * j[at] - k[at]) / _theta_norm_denominator(cpl, s)
    # theta = pi, w = inf, t = 0 is an exact 0 at any s, which rounds to -eps
    r[(r < 0.0) & (r > -1e-9)] = 0.0
    return _shaped(r, shape)


# ---------------------------------------------------------------------------
# Cross-mode rates, photocount, visibility

def rate_cross_mode(state: StateSpec) -> float:
    """R for detectors in two different outgoing modes: parameter-free."""
    return 4.0 if isinstance(state, CoherentState) else 2.0


def mean_photocount(t_bar: float) -> float:
    """Disorder-averaged photon number per outgoing mode: 2 * t_bar for all states."""
    if not 0.0 < t_bar <= 1.0:
        raise ValueError("t_bar must be in (0, 1]")
    return 2.0 * t_bar


# relative spread the last decade of |tau| of a curve may keep for ``visibility``
_TAIL_RTOL = 1e-4


def visibility(taus, rs) -> float:
    """|R(0) - R(inf)| / (R(0) + R(inf)) of a sampled curve, R(inf) from its converged tail.

    ``taus`` and ``rs`` must have one shape (else ``ValueError``) and be
    finite (else ``NonFiniteValueError``); the taus must increase strictly,
    the rates be nonnegative and one tau be 0 (else ``ValueError``).  The
    tail is the last decade of |tau|; it must be flat to ``_TAIL_RTOL``
    relative or ``TailNotConvergedError`` is raised.
    """
    taus = np.asarray(taus, dtype=float)
    rs = np.asarray(rs, dtype=float)
    if taus.shape != rs.shape:
        raise ValueError("taus and rs must have identical shapes")
    if not (np.all(np.isfinite(taus)) and np.all(np.isfinite(rs))):
        raise NonFiniteValueError("taus and rs must be finite")
    if np.any(np.diff(taus) <= 0):
        raise ValueError("taus must be strictly increasing")
    if np.any(rs < 0):
        raise ValueError("coincidence rates must be nonnegative")
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
    if spread > _TAIL_RTOL * max(abs(r_inf), 1e-300):
        raise TailNotConvergedError(
            f"tail not converged: relative spread {spread / max(abs(r_inf), 1e-300):.2e} "
            f"over the last decade of tau"
        )
    return abs(r0 - r_inf) / (r0 + r_inf)


# ---------------------------------------------------------------------------
# Direct quadrature of the defining double-frequency integrals

# Trapezoid points of the quadrature's pump axis (Fock) and of both axes
# (entangled and symmetrized, whose sinc tails and |d| kink need the
# denser axis); the Fock d axis takes its count from the delay.  Both are
# 4k + 1, so the Richardson strides 2 and 4 land on grid points.
QUADRATURE_POINTS_GAUSS = 1025
QUADRATURE_POINTS_SINC = 1537
QUADRATURE_ERROR_GATE = 1e-5


def _model_d_support(model: CorrelationModel) -> float:
    """|d| where |C|^2 is e^-38 (Model I) or 2.2e-12 (Model II).  As |C|^2
    falls with |d| under both models, every quadrature axis ends where the
    integrand is at most 2.2e-12 of its peak, so none checks its edge mass:
    the sinc pump axis at +-8 sigma (e^-64), the Fock axes at 12 delta
    (e^-72) or at or past this; the sinc d axis leaves the rest to
    ``_exchange_tail``."""
    return (19.0 if isinstance(model, ModelI) else 600.0) * _model_scale(model)


def quad(f, a: float, freq: float, weight: str = "cos") -> QuadratureResult:
    """Int_a^inf f(d) w(freq d) dd, w = cos or sin, for decaying f (QUADPACK
    Fourier rule), with its error estimate; at freq ~ 0, a plain integral
    held to a relative tolerance, as the default absolute 1.5e-8 is loose.
    Only the exchange tail integrates with QUADPACK, and most commands
    never reach it, so ``scipy.integrate`` is imported on the first call."""
    from scipy.integrate import quad as scipy_quad

    if abs(freq) < 1e-12:
        flat = scipy_quad(f, a, np.inf, epsabs=0.0, limit=200) if weight == "cos" else (0.0, 0.0)
        return QuadratureResult(*flat)
    value, error = scipy_quad(f, a, np.inf, weight=weight, wvar=abs(freq), limit=200)
    return QuadratureResult(-value if weight == "sin" and freq < 0 else value, error)


def _exchange_tail(
    state: Union[EntangledState, SymmetrizedState], model: CorrelationModel, d_half: float, taus: Sequence[float]
) -> List[QuadratureResult]:
    """|d| > d_half remainder of Int dp dd alpha^2 X(p, d) |C|^2 cos(d tau), one per tau.

    X is the entangled sinc product s_+ s_-, s_pm = sinc(y_pm), or, for a
    symmetrized state, the exchange 2 s_+ s_- + e^{i theta} s_+^2 +
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
    of |C|^2 / d^4 past d_half, k = 1 (entangled) or 2 + 6 |cos theta|
    (symmetrized).  As |C| falls with |d|, H >= |C(2 d_half)|^2 7 / (24
    d_half^3); where that alone fails the gate (a huge |tau| cuts d_half
    short), ``QuadratureNotConvergedError`` is raised before any integral
    runs, and so it is where the coefficients or powers of d_half leave
    the double range (a huge s, an eta_- or d_half far from 1), or where a
    QUADPACK node rounds to d = 0 (d_half far below the node spacing).
    Without the tail, an undamped kernel (|C| ~ 1) loses a 1/(pi Y)
    fraction of the exchange mass, Y = |eta_-| d_half / 2.  The error is
    that bound plus the QUADPACK estimates weighted by the absolute
    coefficients.  The fall of |C| bounds each tail integral of |C|^2 / d^p
    by |C(d_half)|^2 d_half^(1-p) / (p-1); where the same weights on these
    give under 1e-3 of ``QUADRATURE_ERROR_GATE`` (|C|^2 decayed by d_half),
    every tail is 0 with that bound as its error, and no integral runs.
    The coefficients, that decision and H do not depend on tau, so they are
    worked out once per batch, and so is each tail integral: one cosine
    integral per distinct frequency among |tau| and |eta_- +- tau| (F and
    O_pm share them, as does a +-tau pair) and, for a symmetrized state,
    one sine integral per distinct |eta_- +- tau|, negated at a negative
    frequency as ``quad`` itself does.  Each tau's value and error are
    then sums of those.  ``quad`` runs every integral; it is the package's
    only use of ``scipy.integrate``.
    """
    pump, crystal = state.pump, state.crystal
    eta_m = crystal.eta_minus
    s = abs(pump.sigma * crystal.eta_plus)
    damp = math.exp(-0.25 * s * s)
    a, b, c, k = damp, 1.0, 0.0, 1.0
    symmetrized = isinstance(state, SymmetrizedState)
    if symmetrized:
        cos_theta = math.cos(state.theta)
        a, b = 2.0 * (damp + cos_theta), 2.0 * (1.0 + damp * cos_theta)
        c = -cos_theta * s * s * damp / eta_m
        k = 2.0 + 6.0 * abs(cos_theta)
    # a tail error reaches the rate times 1/2 (the Jacobian) over the norm
    budget = 2.0 * QUADRATURE_ERROR_GATE * _continuum_norm(state)
    out_of_range = QuadratureNotConvergedError(
        f"quadrature not converged: the exchange tail past |d| = {d_half:.3g} leaves the double range"
    )
    try:
        scale = 2.0 * pump.sigma * SQRT_PI / (eta_m * eta_m) * 2.0
        m = k * (0.5 * s * s + abs(0.5 * s * s - 0.25 * s**4) * damp) / (eta_m * eta_m)
        if scale * m * correlation_sq_magnitude(2.0 * d_half, model) * 7.0 / 24.0 > budget * d_half**3:
            raise QuadratureNotConvergedError(
                f"quadrature not converged: the exchange tail past |d| = {d_half:.3g} leaves out "
                f"more than the error gate {QUADRATURE_ERROR_GATE:.2e} admits"
            )
        # the coefficients on |C(d_half)|^2 d_half^(1-p) / (p-1), p = 2, 3 (twice c), 4
        bound = scale * correlation_sq_magnitude(d_half, model) * (
            (abs(a) + abs(b)) / d_half + abs(c) / d_half**2 + m / (3.0 * d_half**3)
        )
    except (OverflowError, ZeroDivisionError):
        raise out_of_range from None
    if math.isnan(bound):  # an infinite s, or 0 times an infinite coefficient
        raise out_of_range
    if bound < 1e-3 * QUADRATURE_ERROR_GATE:
        return [QuadratureResult(0.0, bound)] * len(taus)

    def csq_over_d2(d):
        return correlation_sq_magnitude(d, model) / (d * d)

    shifted = [(eta_m + tau, eta_m - tau) for tau in taus]
    results = []
    try:
        h = quad(lambda d: csq_over_d2(d) / (d * d), d_half, 0.0)
        omitted = m * (h.value + h.error)
        cos_at = {f: quad(csq_over_d2, d_half, f) for f in dict.fromkeys(map(abs, [*taus, *chain(*shifted)]))}
        sin_at = {}
        if symmetrized:
            sin_at = {f: quad(lambda d: csq_over_d2(d) / d, d_half, f, "sin")
                      for f in dict.fromkeys(map(abs, chain(*shifted)))}
        for tau, pair in zip(taus, shifted):
            flat = cos_at[abs(tau)]
            osc = [cos_at[abs(f)] for f in pair]
            sines = [sin_at.get(abs(f), QuadratureResult(0.0, 0.0)) for f in pair]
            sines = [QuadratureResult(-q.value, q.error) if f < 0.0 else q for f, q in zip(pair, sines)]
            results.append(
                QuadratureResult(
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
            )
    except ZeroDivisionError:  # a QUADPACK node rounds to d = 0: d_half is far below its cell
        raise out_of_range from None
    return results


def _stride_weights(axis: np.ndarray) -> np.ndarray:
    """Trapezoid weights of a uniform axis at the Richardson strides 1, 2
    and 4, one row each: h k on every k-th point, halves on the two ends
    and 0 off the stride."""
    h = axis[1] - axis[0]
    weights = np.zeros((3, axis.size))
    for row, k in zip(weights, (1, 2, 4)):
        row[::k] = h * k
        row[[0, -1]] = 0.5 * h * k
    return weights


def _gaussian_sums(state: Union[FockState, CoherentState], model: CorrelationModel, support: float, taus: list):
    """(d axis, p-summed stride sums, tails, norm) of the Fock field.

    The field is ``envelope(p) kernel(d)``, so each stride sum over p is
    the envelope's weighted sum times the kernel: two 1-D sums.  The d axis
    keeps ``d_half = min(12 delta, max(support, 0.5 delta))`` at every
    |tau|, and the batch's largest |tau| sets only its point count: 8k + 1
    points, at least 1025, with one cell spanning at most 0.35 rad of
    ``max |tau| d`` (8k puts d = 0, Model I's kink, on the stride-4 grid).
    Past ``_BLOCK_VALUES`` points (|tau| delta above about 955), or where
    the field's normalisation 1/(pi delta^2) overflows, it raises
    ``QuadratureNotConvergedError`` before any array is built.  Both axes
    end where the field is negligible (``_model_d_support``), so it has
    no tail past them.
    """
    delta = state.delta
    if not math.pi * delta * delta >= np.finfo(float).tiny:
        raise QuadratureNotConvergedError(
            f"quadrature not converged: the Fock field's 1/(pi delta^2) overflows at delta = {delta:.3g}"
        )
    d_half = min(12.0 * delta, max(support, 0.5 * delta))
    cells = 8 * math.ceil(min(d_half * max(map(abs, taus), default=0.0) / 1.4, _BLOCK_VALUES))
    if cells >= _BLOCK_VALUES:
        raise QuadratureNotConvergedError(
            f"quadrature not converged: the delay phase over a d axis of half-width {d_half:.3g} "
            f"needs more than {_BLOCK_VALUES} points"
        )
    p = np.linspace(-12.0 * delta, 12.0 * delta, QUADRATURE_POINTS_GAUSS)
    d = np.linspace(-d_half, d_half, max(1024, cells) + 1)
    envelope = np.exp(-0.5 * (p / delta) ** 2)
    kernel = np.exp(-0.5 * (d / delta) ** 2) / (math.pi * delta**2) * correlation_sq_magnitude(d, model)
    return d, (_stride_weights(p) @ envelope)[:, None] * kernel, [QuadratureResult(0.0, 0.0)] * len(taus), 1.0


def _sinc_sums(state: Union[EntangledState, SymmetrizedState], model: CorrelationModel, support: float, taus: list):
    """(d axis, p-summed stride sums, exchange tails, norm) of a sinc-tailed field.

    The d axis is cut at ``min(support, 0.35 (n - 1) / max(|eta_-|, max
    |tau|))``: one cell spans at most 0.7 rad of the delay phase and 0.35
    rad of the sinc arguments ``eta_- d / 2``.  The field is built in
    blocks of ``_BLOCK_VALUES // n`` pump-axis rows, each summed over p
    before the next, so no n x n array is held.  The pump axis ends at
    +-8 sigma, where alpha^2 = e^-64, and the part past the d axis is
    ``_exchange_tail``, worked out first: a tail it refuses (a pump width
    whose sinc arguments leave the double range among them) stops the
    batch before any field is built, as does a norm that overflows.
    """
    norm = _continuum_norm(state)
    if not math.isfinite(norm):
        raise QuadratureNotConvergedError(f"quadrature not converged: the state's norm {norm} leaves the double range")
    n = QUADRATURE_POINTS_SINC
    crystal = state.crystal
    d_half = min(support, 0.35 * (n - 1) / max([abs(crystal.eta_minus), *map(abs, taus)]))
    p = np.linspace(-8.0 * state.pump.sigma, 8.0 * state.pump.sigma, n)
    d = np.linspace(-d_half, d_half, n)
    tails = _exchange_tail(state, model, d_half, taus)
    csq = correlation_sq_magnitude(d, model)
    alpha2 = np.exp(-((p / state.pump.sigma) ** 2))
    wp = _stride_weights(p)
    sums = 0.0
    rows_per_block = max(1, _BLOCK_VALUES // n)
    for lo in range(0, n, rows_per_block):
        rows = np.arange(lo, min(lo + rows_per_block, n))
        s_plus = sinc(0.5 * (crystal.eta_plus * p[rows, None] + crystal.eta_minus * d[None, :]))
        s_minus = sinc(0.5 * (crystal.eta_plus * p[rows, None] - crystal.eta_minus * d[None, :]))
        if isinstance(state, EntangledState):
            exchange = s_plus * s_minus  # real: the field stays a real array
        else:
            exchange = (
                2.0 * s_plus * s_minus
                + np.exp(1j * state.theta) * s_plus**2
                + np.exp(-1j * state.theta) * s_minus**2
            )
        sums = sums + wp[:, rows] @ (exchange * (alpha2[rows, None] * csq[None, :]))
    return d, sums, tails, norm


def _contract(taus: list, d: np.ndarray, sums: np.ndarray, tails: list, norm: float) -> List[QuadratureResult]:
    """One ``QuadratureResult`` per tau from the p-summed stride sums on the d axis.

    The stride-k trapezoid sum of G(p, d) exp(-i d tau) is
    ``(sums[k] * phase)[::k] @ wd_k``; Richardson's step on strides 1 and
    2 gives the value, and its distance from the step on 2 and 4 the
    estimate.  That estimate can vanish below the rounding of the sums,
    so the error also carries eps (n_d + |tau| d_half) times the absolute
    sum (the rounding of n_d terms and of the phase d tau) and a floor of
    8 eps |R|.
    """
    wd = _stride_weights(d)
    eps = np.finfo(float).eps
    mass = float(np.abs(sums[0]) @ wd[0])
    results = []
    for tau, tail in zip(taus, tails):
        phase = np.exp(-1j * d * tau)
        s1, s2, s4 = (complex((row[::k] * phase[::k]) @ w[::k]) for k, row, w in zip((1, 2, 4), sums, wd))
        r1 = (4.0 * s1 - s2) / 3.0
        err = abs(r1 - (4.0 * s2 - s4) / 3.0) / 8.0 + eps * (d.size + abs(tau) * d[-1]) * mass
        # 0.5 is the Jacobian of (w1, w2) -> (p, d)
        value = 1.0 + 0.5 * (r1.real + tail.value) / norm
        results.append(QuadratureResult(value, 0.5 * (err + tail.error) / norm + 8.0 * eps * abs(value)))
    return results


def rate_numeric_batch(state: StateSpec, model: CorrelationModel, taus: Sequence[float]) -> List[QuadratureResult]:
    """Rates at every tau by tensor-product quadrature of the double frequency integral.

    Integration runs in rotated coordinates p = w1 + w2 - 2 wbar (pump
    detuning) and d = w1 - w2 (kernel argument); the |d| kink of |C|^2
    sits on a grid line, so one Richardson step cleans the trapezoid
    error to O(h^4).  The delay enters only through a phase of d, so the
    field G(p, d) (the integrand without that phase) is summed over p once
    per Richardson stride for all taus at once, and each tau then costs
    one O(n_d) contraction.  The state kind picks how those sums are
    built, once: the Fock field (``_gaussian_sums``) factorises into two
    1-D sums on a d axis whose width does not depend on the delay, and
    the entangled and symmetrized fields (``_sinc_sums``) are built in
    blocks of pump-axis rows, with the analytic exchange tail past their
    d axis.  The coherent rate is R_F(0) + R_F(tau) of the Fock state
    with the same envelope, from one Fock batch over [0] + taus, with the
    two errors summed.

    Returns one ``QuadratureResult(value, error)`` per tau.  Before it
    builds anything it raises ``TypeError`` for a model that is not a
    ``ModelI`` or a ``ModelII``, ``ValueError`` for a tau that is not
    finite, ``MonochromaticPumpError`` for a cw pump and
    ``DegenerateStateError`` for a degenerate symmetrized state; a model
    at infinite scale is flat transmission.  It raises
    ``QuadratureNotConvergedError`` when a tau's error estimate exceeds
    ``QUADRATURE_ERROR_GATE``, when the Fock d axis would need more than
    ``_BLOCK_VALUES`` points, or when the exchange tail cannot be bounded
    within the gate or in double range.  Every axis ends where the field
    is negligible (``_model_d_support``), so there is no edge-mass check.
    """
    support = _model_d_support(model)
    taus = [float(tau) for tau in taus]
    if not all(math.isfinite(tau) for tau in taus):
        raise ValueError("rate_numeric needs finite taus")
    if isinstance(state, CoherentState):
        zero, *results = _contract([0.0] + taus, *_gaussian_sums(state, model, support, [0.0] + taus))
        results = [QuadratureResult(zero.value + res.value, zero.error + res.error) for res in results]
    elif isinstance(state, FockState):
        results = _contract(taus, *_gaussian_sums(state, model, support, taus))
    else:
        results = _contract(taus, *_sinc_sums(state, model, support, taus))
    for res in results:
        if not res.error <= QUADRATURE_ERROR_GATE:
            raise QuadratureNotConvergedError(
                f"quadrature not converged: estimate {res.error:.2e} > tolerance {QUADRATURE_ERROR_GATE:.2e}"
            )
    return results


def rate_numeric(state: StateSpec, model: CorrelationModel, tau: float) -> QuadratureResult:
    """``rate_numeric_batch`` at one tau."""
    return rate_numeric_batch(state, model, [tau])[0]


# ---------------------------------------------------------------------------
# Curves

def rate_closed_form(state: StateSpec, model: CorrelationModel, tau):
    """Closed-form/reduced rate for a physical state at a delay or an array
    of delays (one call for a whole curve); a model at infinite scale is
    the cw limit."""
    args = DimensionlessArgs.from_state(state, model, np.asarray(tau, dtype=float))
    kind = "II" if isinstance(model, ModelII) else "I"
    if isinstance(state, EntangledState):
        return rate_entangled(args.t, args.s, args.w, kind)
    if isinstance(state, SymmetrizedState):
        return rate_theta(args.t, args.s, args.w, state.theta, kind)
    if isinstance(state, FockState):
        return rate_fock(args.t, args.w, kind)
    return rate_coherent(args.t, args.w, kind)
