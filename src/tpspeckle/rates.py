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

The reduced forms take numbers or arrays of t (and s), so a figure column
or a closed-form curve is one call over its abscissa, once per column
rather than once per point; a call with numbers is the size-1 case of the
same code and returns a float.

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
every tau costs one O(n) contraction.  The field is built in blocks of
pump-axis rows under the ``_BLOCK_VALUES`` budget of the reduced forms,
each reduced before the next, so no n x n array is held.
``rate_numeric`` is its one-tau call; both take their axes from the
state, the model and the batch's largest |tau|, a model at infinite
scale (the cw limit) included.  Every value comes with its error
estimate; ``rate --method quadrature`` writes the worst one over its
curve into the CSV header.  The coherent rate is
R_F(0) + R_F(tau) of the Fock field, as in the closed form, and the
exchange term past the difference-frequency axis is the analytic
exchange tail, or under Model I, where that tail is negligible, its
analytic bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Union

import numpy as np
from scipy.special import erfcx as _scipy_erfcx

from ._special import SQRT_PI, UNIT_BELOW, erf_ratio, one_minus_erf_ratio, sinc
from .correlation import CorrelationModel, ModelI, ModelII, _model_scale, correlation_sq_magnitude
from .errors import (
    GridTooNarrowError,
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
# The series cancels for large v, so |C|^2 itself stays the direct
# ``correlation_sq_magnitude``.
_POLE_K = np.arange(1.0, 21.0)
_POLE_B = math.pi**2 * _POLE_K**2
_POLE_C = (-1.0) ** (_POLE_K + 1.0) * 4.0 * math.pi**5 * _POLE_K**5 / np.sinh(math.pi * _POLE_K)
_POLE_A = 0.5 * math.pi * _POLE_C / _POLE_B
# exp at or below this argument is subnormal or 0.  Such a term of G lies
# below half an ulp of G's k = 1 term, or, where that term is subnormal
# too, G is under 1e-305: setting them to 0 changes no rate (1 plus an
# integral of G) and skips numpy's slow subnormal path of exp.
_EXP_FLOOR = -708.0

# Composite Gauss-Legendre rule of the reduced integrals: 20 nodes per
# panel, with the embedded 10-node rule as the error estimate.
_GL_FINE = np.polynomial.legendre.leggauss(20)
_GL_COARSE = np.polynomial.legendre.leggauss(10)
_GL_NODES = np.concatenate([_GL_FINE[0], _GL_COARSE[0]])
REDUCED_ERROR_GATE = 1e-7
# float64 values (512 kB) of one block of points of ``_integrate_reduced``,
# counted per quadrature node as its Model II pole terms; unblocked, a
# Model II figure column peaks at 5 to 8 MB of temporaries.  The field of
# ``rate_numeric_batch`` takes as many values per block of pump-axis rows.
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


@functools.lru_cache(maxsize=64)
def _peak_offsets(w: float) -> np.ndarray:
    """0 and +-0.25 / (pi^2 w) * 4^j below 2: the edges around the kernel peak, relative to it."""
    steps = _graded(0.25 / (math.pi**2 * w))
    offsets = np.concatenate([[0.0], -steps, steps])
    offsets.flags.writeable = False
    return offsets


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
    parts = [lo, x0, hi, peak + _peak_offsets(w)]
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
    d = mid[..., None] + half[..., None] * _GL_NODES
    xi = np.abs(w * d)
    g = 2.0 / (4.0 + xi * xi) if kind == "I" else _pole_sum(xi)
    y = kernel(s[:, None, None], t[:, None, None] + d) * (w * g) * half[..., None]
    n = _GL_FINE[0].size
    fine = y[..., :n] @ _GL_FINE[1]
    coarse = y[..., n:] @ _GL_COARSE[1]
    return fine.sum(axis=1), np.abs(fine - coarse).sum(axis=1)


def _integrate_reduced(kernel, t: np.ndarray, w: float, s: np.ndarray, kind: str) -> np.ndarray:
    """Int_{-1}^{1} kernel(s, x) * w * G(w (x - t)) dx at every point (t, s) by the composite Gauss-Legendre rule.

    ``t`` and ``s`` are 1-D arrays of one length and ``w`` is a number.  G
    is the Lorentzian 2 / (4 + xi^2) for model I and the exponential sum
    of the Model II pole expansion.  ``kernel`` takes broadcasting arrays
    of s and x.  Both G integrate to pi over the real line, so at w = inf
    (flat transmission) w G(w d) is pi times the delta at d = 0 and the
    value is pi * kernel(s, t) on |t| < 1, 0 elsewhere, for either
    ``kind``; at w = 0 it is 0.  A repeated edge of ``_panel_edges``
    drops out, and the points with equal panel counts run together, in
    blocks of at most ``_BLOCK_VALUES`` values, 20 per node for Model II
    and 8 for Model I: each point's value is the one it has on its own.
    For each point the sum over panels of |20-node - 10-node| bounds the
    error and must stay under ``REDUCED_ERROR_GATE``; otherwise
    ``QuadratureNotConvergedError`` names the worst point.
    """
    if w == 0.0:
        return np.zeros(t.size)
    if math.isinf(w):
        inside = np.abs(t) < 1.0
        return np.where(inside, math.pi * kernel(s, np.where(inside, t, 0.0)), 0.0)
    edges = _panel_edges(t, w, s)
    lower, upper = edges[:, :-1], edges[:, 1:]
    real = upper > lower
    count = real.sum(axis=1)
    # Model I has no pole terms, but its kernel keeps several arrays of one
    # value per node alive at once: its figure columns ran fastest in blocks
    # of 2^13 nodes, about 30% faster than 2^16, which spill the CPU cache
    per_node = _POLE_B.size if kind == "II" else 8
    value = np.empty(t.size)
    error = np.empty(t.size)
    for panels in sorted(set(count.tolist())):
        rows = np.flatnonzero(count == panels)
        size = max(1, _BLOCK_VALUES // (max(panels, 1) * _GL_NODES.size * per_node))
        for start in range(0, rows.size, size):
            block = rows[start : start + size]
            keep = real[block]
            value[block], error[block] = _reduced_block(
                kernel, t[block], w, s[block], kind,
                lower[block][keep].reshape(block.size, panels), upper[block][keep].reshape(block.size, panels),
            )
    if not (error <= REDUCED_ERROR_GATE).all():
        worst = int(np.argmax(np.where(np.isnan(error), np.inf, error)))
        raise QuadratureNotConvergedError(
            f"reduced rate integral did not converge: estimate {error[worst]:.2e} "
            f"at t={t[worst]:.6g}, s={s[worst]:.6g}, w={w:.6g}"
        )
    return value


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


def _check_args(t, w: float, kind: str, s=None) -> None:
    """The one argument check of the reduced forms, at every w, both
    limits included: no t is NaN; every s is finite and >= 0; w in
    [0, inf]; and ``kind`` "I" or "II"; else ``ValueError``."""
    if np.isnan(t).any():
        raise ValueError("t must not be NaN")
    if s is not None and not (np.isfinite(s) & (s >= 0.0)).all():
        raise ValueError("s must be finite and >= 0")
    if not w >= 0.0:
        raise ValueError(f"w must lie in [0, inf], got {w!r}")
    if kind not in ("I", "II"):
        raise ValueError(f'kind must be "I" or "II", got {kind!r}')


# ---------------------------------------------------------------------------
# Entangled state
#
# Every rate below takes numbers or arrays of t (and s), which broadcast
# against each other; w, theta and kind are numbers.  An array call
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
    return _shaped(1.0 + _integrate_reduced(_i_kernel, t, w, s, kind), shape)


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
        avg = _scipy_erfcx(math.sqrt(2.0) / w + 1j * (t / math.sqrt(2.0))).real
    else:
        gauss = np.exp(-0.5 * t * t)[:, None]
        t = t[:, None]
        q = w * _POLE_B
        a = (q - t) / math.sqrt(2.0)
        below = a < 0.0
        near = _scipy_erfcx((q + t) / math.sqrt(2.0)) + np.where(below, -1.0, 1.0) * _scipy_erfcx(np.abs(a))
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

def rate_theta(t, s, w: float, theta: float, kind: str = "I"):
    """Rate for the symmetrized state B_theta (same-mode case).

    R = 1 + 2 Int kernel * w G dx / _theta_norm_denominator(theta, s), one
    ratio at every point.  The kernel I(s,x) + cos(theta) J(s,x),
    J(s,x) = (1-|x|) exp(-s^2 x^2/4) / pi, is evaluated as
    (1-|x|)/pi [cpl - (1 - erf_ratio(s (1-|x|))) + (cpl - 1) expm1(-s^2 x^2/4)],
    cpl = 1 + cos(theta).  No term of the bracket or of the denominator
    cancels, so where theta = pi makes both O(s^2) the ratio keeps its last
    bits.  Where cpl rounds to 0 (theta = pi to double precision), s = 0 is
    a 0/0 limit: s is raised to ``UNIT_BELOW``, under which the ratio's
    O(s^2) departure from that limit is below half an ulp.
    """
    (t, s), shape = _points(t, s)
    _check_args(t, w, kind, s)
    cpl = 1.0 + math.cos(theta)
    if cpl == 0.0:
        s = np.maximum(s, UNIT_BELOW)

    def kernel(s, x):
        u = 1.0 - np.abs(x)
        return u / math.pi * (cpl - one_minus_erf_ratio(s * u) + (cpl - 1.0) * np.expm1(-0.25 * s * s * x * x))

    r = 1.0 + 2.0 * _integrate_reduced(kernel, t, w, s, kind) / _theta_norm_denominator(theta, s)
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

# Trapezoid points per axis of the quadrature: the sinc tails and the |d|
# kink of the entangled and symmetrized fields need the denser axis.
# Both are 4k + 1, so the Richardson strides 2 and 4 land on grid points.
QUADRATURE_POINTS_GAUSS = 1025
QUADRATURE_POINTS_SINC = 1537
QUADRATURE_ERROR_GATE = 1e-5
# Share of the integrand mass allowed on the quadrature field's outermost cells.
EDGE_MASS_BUDGET = 1e-6


def _model_d_support(model: CorrelationModel) -> float:
    return (19.0 if isinstance(model, ModelI) else 600.0) * _model_scale(model)


def quad(*args, **kwargs):
    """``scipy.integrate.quad``, imported on its first call: only the
    exchange tail integrates with QUADPACK, and most commands never reach it."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


def _tail_integral(f, a: float, freq: float, weight: str = "cos") -> QuadratureResult:
    """Int_a^inf f(d) w(freq d) dd, w = cos or sin, for decaying f (QUADPACK
    Fourier rule), with its error estimate."""
    if abs(freq) < 1e-12:
        return QuadratureResult(*quad(f, a, np.inf, limit=200)) if weight == "cos" else QuadratureResult(0.0, 0.0)
    value, error = quad(f, a, np.inf, weight=weight, wvar=abs(freq), limit=200)
    return QuadratureResult(-value if weight == "sin" and freq < 0 else value, error)


def _tail_bound(model: CorrelationModel, d_half: float, power: int) -> float:
    """Bound on |Int_{d_half}^inf |C|^2 / d^power w(d) dd| for any |w| <= 1.

    Under Model I |C|^2 = exp(-2|d|/omega_corr), so the integral is at most
    (omega_corr / 2) exp(-2 d_half / omega_corr) / d_half^power; under
    Model II no bound is taken (inf).
    """
    if not isinstance(model, ModelI):
        return math.inf
    omega = model.omega_corr
    return 0.5 * omega * math.exp(-2.0 * d_half / omega) / d_half**power


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
    divides by a power of d that rounds to 0.
    Without the tail, an undamped kernel (|C| ~ 1) loses a 1/(pi Y)
    fraction of the exchange mass, Y = |eta_-| d_half / 2.  The error is
    that bound plus the QUADPACK estimates weighted by the absolute
    coefficients.  Where the same weights on ``_tail_bound`` give under
    1e-3 of ``QUADRATURE_ERROR_GATE`` (Model I with d_half many omega_corr
    wide), every tail is 0 with that bound as its error, and no integral
    runs.  The coefficients, that decision and H do not depend on tau, so
    they are worked out once per batch; each tau then costs 3 (entangled)
    or 5 (symmetrized) QUADPACK integrals.  These are the package's only
    use of ``scipy.integrate``, which ``quad`` imports on its first call.
    """
    pump, crystal = state.pump, state.crystal
    eta_m = crystal.eta_minus
    s = abs(pump.sigma * crystal.eta_plus)
    scale = 2.0 * pump.sigma * SQRT_PI / (eta_m * eta_m) * 2.0
    damp = math.exp(-0.25 * s * s)
    a, b, c, k = damp, 1.0, 0.0, 1.0
    symmetrized = isinstance(state, SymmetrizedState)
    if symmetrized:
        cos_theta = math.cos(state.theta)
        a, b = 2.0 * (damp + cos_theta), 2.0 * (1.0 + damp * cos_theta)
        c = -cos_theta * s * s * damp / eta_m
        k = 2.0 + 6.0 * abs(cos_theta)
    m = k * (0.5 * s * s + abs(0.5 * s * s - 0.25 * s**4) * damp) / (eta_m * eta_m)
    # a tail error reaches the rate times 1/2 (the Jacobian) over the norm
    budget = 2.0 * QUADRATURE_ERROR_GATE * _continuum_norm(state)
    if scale * m * correlation_sq_magnitude(2.0 * d_half, model) * 7.0 / 24.0 > budget * d_half**3:
        raise QuadratureNotConvergedError(
            f"quadrature not converged: the exchange tail past |d| = {d_half:.3g} leaves out "
            f"more than the error gate {QUADRATURE_ERROR_GATE:.2e} admits"
        )
    bound = scale * (
        (abs(a) + abs(b)) * _tail_bound(model, d_half, 2)
        + 2.0 * abs(c) * _tail_bound(model, d_half, 3)
        + m * _tail_bound(model, d_half, 4)
    )
    if bound < 1e-3 * QUADRATURE_ERROR_GATE:
        return [QuadratureResult(0.0, bound)] * len(taus)

    def csq_over_d2(d):
        return correlation_sq_magnitude(d, model) / (d * d)

    h = QuadratureResult(
        *quad(lambda d: correlation_sq_magnitude(d, model) / (d * d) / (d * d), d_half, np.inf, limit=200)
    )
    omitted = m * (h.value + h.error)
    results = []
    for tau in taus:
        flat = _tail_integral(csq_over_d2, d_half, tau)
        osc = [_tail_integral(csq_over_d2, d_half, eta_m + sign * tau) for sign in (1, -1)]
        sines = [QuadratureResult(0.0, 0.0)] * 2
        if symmetrized:
            sines = [
                _tail_integral(lambda d: csq_over_d2(d) / d, d_half, eta_m + sign * tau, "sin")
                for sign in (1, -1)
            ]
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
    return results


def rate_numeric_batch(state: StateSpec, model: CorrelationModel, taus: Sequence[float]) -> List[QuadratureResult]:
    """Rates at every tau by tensor-product quadrature of the double frequency integral.

    Integration runs in rotated coordinates p = w1 + w2 - 2 wbar (pump
    detuning) and d = w1 - w2 (kernel argument); the |d| kink of |C|^2
    sits on a grid line, so one Richardson step cleans the trapezoid
    error to O(h^4).  The axes follow from the state, the model and the
    batch's largest |tau|: ``QUADRATURE_POINTS_GAUSS`` points per axis for
    the Fock and coherent states, ``QUADRATURE_POINTS_SINC`` for the
    entangled and symmetrized ones.

    The delay enters only through a phase of d, so the field G(p, d) (the
    integrand without that phase) is built, edge-checked and reduced over
    p once per Richardson stride, for all taus at once; each tau then
    costs O(n) plus, for the entangled and symmetrized states, the
    analytic exchange tail beyond the d axis.  The field is never held
    whole: it is built in blocks of ``_BLOCK_VALUES // n`` pump-axis rows
    (42 rows, 1 MB of complex values at n = 1537), and each block adds to
    the mass totals and to the stride sums before the next is built.
    Every d axis resolves the delay phase tau d, and the sinc states' axis
    also the sinc arguments eta_- d / 2: one cell spans at most 0.7 rad of
    ``max |tau| d`` (and of ``|eta_-| d``), so the axis follows the batch's
    largest |tau|, and a one-tau call runs on its own axis past |tau| =
    |eta_-| for the sinc states, and past 29.9 / delta at the latest for
    the Fock and coherent states.
    The coherent rate is R_F(0) + R_F(tau) of the Fock state with the same
    envelope, from one Fock batch over [0] + taus, with the two errors
    summed.  Each error carries a roundoff floor of 8 eps |R|, because the
    Richardson estimate cannot resolve the rounding of the sums.

    Returns one ``QuadratureResult(value, error)`` per tau.  Before it
    builds anything it raises ``TypeError`` for a model that is not a
    ``ModelI`` or a ``ModelII`` and ``ValueError`` for a tau that is not
    finite; a model at infinite scale is flat transmission.  It raises
    ``QuadratureNotConvergedError`` when a tau's error estimate exceeds
    ``QUADRATURE_ERROR_GATE``, or ``GridTooNarrowError`` when the
    outermost cells carry more than ``EDGE_MASS_BUDGET`` of the integrand
    mass: the whole ring for the Fock and coherent states, and the two
    pump-axis edges for the entangled and symmetrized states, whose
    |d| > d_half part is the exchange tail.  A degenerate symmetrized
    state raises ``DegenerateStateError``.
    """
    support = _model_d_support(model)
    taus = [float(tau) for tau in taus]
    if not all(math.isfinite(tau) for tau in taus):
        raise ValueError("rate_numeric needs finite taus")
    coherent = isinstance(state, CoherentState)
    gauss = coherent or isinstance(state, FockState)
    if coherent:
        taus = [0.0] + taus
    if gauss:
        n = QUADRATURE_POINTS_GAUSS
        width = state.delta
        p_half = 12.0 * width
        d_half = min(12.0 * width, max(support, 0.5 * width))
    else:
        denom = _continuum_norm(state)
        n = QUADRATURE_POINTS_SINC
        p_half = 8.0 * state.pump.sigma
        d_half = min(support, 0.35 * (n - 1) / abs(state.crystal.eta_minus))
    # one d cell spans at most 0.7 rad of the delay phase, or the Richardson
    # strides alias it (at hd |tau| = 2 pi every stride sees the phase 1)
    tau_max = max((abs(tau) for tau in taus), default=0.0)
    if tau_max > 0.0:
        d_half = min(d_half, 0.35 * (n - 1) / tau_max)

    p = np.linspace(-p_half, p_half, n)
    d = np.linspace(-d_half, d_half, n)
    hp = p[1] - p[0]
    hd = d[1] - d[0]
    csq = correlation_sq_magnitude(d, model)
    numerator_scale = 0.5  # Jacobian of (w1, w2) -> (p, d)

    if gauss:
        # the Gaussian envelopes of p and d factor the field into two axes
        envelope = np.exp(-0.5 * (p / state.delta) ** 2)
        kernel = np.exp(-0.5 * (d / state.delta) ** 2) / (math.pi * state.delta**2) * csq

        def field(rows):
            return envelope[rows, None] * kernel

        denom = 1.0  # analytically normalized Gaussian envelopes
    else:
        crystal = state.crystal
        alpha2 = np.exp(-((p / state.pump.sigma) ** 2))

        def field(rows):
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
            return exchange * (alpha2[rows, None] * csq[None, :])

    # The stride-k trapezoid sum of G(p, d) phase(d) is
    # ((wp_k @ G)[::k] * phase[::k]) @ wd_k for the Richardson strides k,
    # wp_k the stride-k weights of the p axis (0 off its rows, halves on
    # rows 0 and n - 1); ``sums`` gathers wp_k @ G block by block
    strides = (1, 2, 4)
    wp = np.zeros((len(strides), n))
    wd = []
    for i, k in enumerate(strides):
        wp[i, ::k] = hp * k
        wp[i, [0, -1]] = 0.5 * hp * k
        wd.append(np.full(d[::k].size, hd * k))
        wd[-1][0] = wd[-1][-1] = 0.5 * hd * k
    sums = total = edge = 0.0
    rows_per_block = max(1, _BLOCK_VALUES // n)
    for lo in range(0, n, rows_per_block):
        rows = np.arange(lo, min(lo + rows_per_block, n))
        block = field(rows)
        mass = np.abs(block)
        total += float(mass.sum())
        # a sinc field continues past |d| = d_half in the exchange tail, so
        # only its pump axis may clip; a Gaussian field counts its whole ring
        outer = (rows == 0) | (rows == n - 1)
        edge += float(mass[outer].sum())
        if gauss:
            edge += float(mass[:, [0, -1]][~outer].sum())
        sums = sums + wp[:, rows] @ block
    if edge > EDGE_MASS_BUDGET * total:
        raise GridTooNarrowError(
            f"grid too narrow for rate_numeric: outermost cells carry {edge / total:.2e} of the integrand"
        )

    # analytic |d| > d_half remainder of the sinc-tailed exchange term
    tails = [QuadratureResult(0.0, 0.0)] * len(taus) if gauss else _exchange_tail(state, model, d_half, taus)
    results = []
    for tau, tail in zip(taus, tails):
        phase = np.exp(-1j * d * tau)
        s1, s2, s4 = (complex((row[::k] * phase[::k]) @ wdk) for k, row, wdk in zip(strides, sums, wd))
        r1 = (4.0 * s1 - s2) / 3.0
        err = abs(r1 - (4.0 * s2 - s4) / 3.0) / 8.0
        numerator = numerator_scale * (r1.real + tail.value)
        value = 1.0 + numerator / denom
        # the Richardson estimate can vanish below the rounding of the sums
        floor = 8.0 * np.finfo(float).eps * abs(value)
        results.append(QuadratureResult(value, numerator_scale * (err + tail.error) / denom + floor))
    if coherent:
        zero = results.pop(0)
        results = [QuadratureResult(zero.value + res.value, zero.error + res.error) for res in results]
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
