"""Spectral amplitudes of the input light states.

Four states share the setup of two orthogonally polarized beams ('o' and
'e') entering the medium:

* ``EntangledState`` - type-II down-converted pair with joint amplitude
  ``B(w1, w2) = K * alpha(w1 + w2) * Phi(w1, w2)``, a Gaussian pump
  envelope times the sinc phase-matching factor.  Not symmetric under
  ``w1 <-> w2`` because the two polarizations have different group
  delays ``nu_o``, ``nu_e``.
* ``SymmetrizedState`` - the superposition
  ``B_theta = K_theta * [B(w1, w2) + e^{i theta} B(w2, w1)]``; bosonic
  for ``theta = 0``, fermionic for ``theta = pi``.
* ``FockState`` - separable two-photon state with identical Gaussian
  one-photon envelopes of bandwidth ``delta``.
* ``CoherentState`` - two-mode coherent state with the same envelope.

``grid_amplitude_matrix`` is the one normalized two-photon amplitude: the
n x n matrix on a caller's grid, normalized on that grid (the sinc factor
makes closed-form normalization a tail-truncation question, see
``biphoton_norm_closed_form``).  One-argument envelopes are normalized
analytically, and ``grid_envelope`` renormalizes them on a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from ._special import erf_ratio, one_minus_erf_ratio, sinc
from .correlation import FrequencyGrid
from .errors import DegenerateStateError, MonochromaticPumpError

__all__ = [
    "CrystalParams",
    "PumpParams",
    "EntangledState",
    "SymmetrizedState",
    "FockState",
    "CoherentState",
    "StateSpec",
    "pump_envelope",
    "phase_matching",
    "gaussian_envelope",
    "spectral_width_ratio",
    "biphoton_norm_closed_form",
    "symmetrized_norm_sq",
    "grid_amplitude_matrix",
    "grid_envelope",
]

# Degeneracy threshold for the symmetrized-state norm denominator.
NORM_DEGENERACY_FLOOR = 1e-10


@dataclass(frozen=True)
class CrystalParams:
    """Group-delay mismatches of the down-converted photons (time units)."""

    nu_o: float
    nu_e: float

    def __post_init__(self):
        if not (math.isfinite(self.nu_o) and math.isfinite(self.nu_e)):
            raise ValueError("nu_o and nu_e must be finite")
        if self.nu_o == self.nu_e:
            raise ValueError("nu_o == nu_e gives eta_minus = 0 (infinite coherence time)")

    @property
    def eta_plus(self) -> float:
        return self.nu_o + self.nu_e

    @property
    def eta_minus(self) -> float:
        return self.nu_o - self.nu_e


@dataclass(frozen=True)
class PumpParams:
    """Pump pulse at 2*omega_bar with spectral width sigma (rad/time)."""

    omega_bar: float
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.omega_bar) and self.omega_bar > 0):
            raise ValueError("omega_bar must be finite and > 0")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError("sigma must be finite and >= 0")


@dataclass(frozen=True)
class EntangledState:
    pump: PumpParams
    crystal: CrystalParams


@dataclass(frozen=True)
class SymmetrizedState:
    pump: PumpParams
    crystal: CrystalParams
    theta: float

    def __post_init__(self):
        if not 0.0 <= self.theta < 2.0 * math.pi:
            raise ValueError("theta must lie in [0, 2*pi)")


def _check_envelope(omega_bar: float, delta: float) -> None:
    if not math.isfinite(omega_bar):
        raise ValueError("omega_bar must be finite")
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError("delta must be finite and > 0")


@dataclass(frozen=True)
class FockState:
    omega_bar: float
    delta: float

    def __post_init__(self):
        _check_envelope(self.omega_bar, self.delta)


@dataclass(frozen=True)
class CoherentState:
    omega_bar: float
    delta: float

    def __post_init__(self):
        _check_envelope(self.omega_bar, self.delta)


StateSpec = Union[EntangledState, SymmetrizedState, FockState, CoherentState]


def pump_envelope(omega_sum, pump: PumpParams):
    """Gaussian pump envelope exp[-(w1 + w2 - 2 omega_bar)^2 / 2 sigma^2]."""
    if pump.sigma == 0.0:
        raise MonochromaticPumpError(
            "monochromatic limit: sigma = 0 has no square-integrable amplitude; "
            "use the closed-form cw rates"
        )
    x = (np.asarray(omega_sum, dtype=float) - 2.0 * pump.omega_bar) / pump.sigma
    out = np.exp(-0.5 * x * x)
    return float(out) if out.ndim == 0 else out


def phase_matching(omega1, omega2, crystal: CrystalParams, omega_bar: float):
    """Phase-matching factor sinc[nu_o (w1 - wbar) + nu_e (w2 - wbar)]."""
    arg = crystal.nu_o * (np.asarray(omega1, dtype=float) - omega_bar) + crystal.nu_e * (
        np.asarray(omega2, dtype=float) - omega_bar
    )
    return sinc(arg)


def gaussian_envelope(omega, omega_bar: float, delta: float):
    """Unit-norm Gaussian envelope exp[-(w-wbar)^2/2 delta^2] / (sqrt(pi) delta)^(1/2)."""
    if not delta > 0:
        raise ValueError("delta must be > 0")
    x = (np.asarray(omega, dtype=float) - omega_bar) / delta
    out = np.exp(-0.5 * x * x) / math.sqrt(math.sqrt(math.pi) * delta)
    return float(out) if out.ndim == 0 else out


def spectral_width_ratio(sigma: float, crystal: CrystalParams) -> Tuple[float, float]:
    """FWHM of the o/e beam spectra relative to the cw value 2.78/|eta_minus|.

    Uses the Gaussian replacement exp(-x^2/2.79) for the squared sinc; at
    sigma = 0 both ratios reduce to 2*sqrt(ln2 * 2.79)/2.78 ~ 1.0005
    independent of the crystal.  A zero (or underflowing) ``nu_o * dw_cw``
    or ``nu_e * dw_cw`` raises ``ValueError``.
    """
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    dw_cw = 2.78 / abs(crystal.eta_minus)
    out = []
    for nu in (crystal.nu_o, crystal.nu_e):
        scaled_sq = (nu * dw_cw) ** 2
        if scaled_sq == 0.0:
            raise ValueError(f"spectral_width_ratio needs nonzero nu_o and nu_e, got {nu!r}")
        bracket = 2.79 / scaled_sq + (sigma / dw_cw) ** 2
        out.append(2.0 * abs(nu) / abs(crystal.eta_minus) * math.sqrt(math.log(2.0) * bracket))
    return out[0], out[1]


def biphoton_norm_closed_form(pump: PumpParams, crystal: CrystalParams) -> float:
    """Closed-form <psi|psi> for unit K: pi^(3/2) sigma / |eta_minus|.

    Exact on the infinite frequency plane (the sinc^2 cross-section
    integrates to 2*pi/|eta_minus| independently of the pump detuning);
    finite grids undershoot it by the 1/x^2 tail mass they clip.
    """
    if pump.sigma == 0.0:
        raise MonochromaticPumpError("closed-form norm undefined at sigma = 0")
    return math.pi ** 1.5 * pump.sigma / abs(crystal.eta_minus)


def _theta_norm_denominator(cpl, s):
    """2 [1 + cos(theta) m(s)], m(s) = Erf(s/2) sqrt(pi)/s, of cpl = 1 + cos(theta),
    written as 2 [(1 - m) + cpl m] so it does not cancel at theta = pi.
    Elementwise over arrays of cpl and s.

    The continuum norm of B(w1,w2) + e^{i theta} B(w2,w1) is this times
    ``biphoton_norm_closed_form``.
    """
    return 2.0 * (one_minus_erf_ratio(s) + cpl * erf_ratio(s))


def _continuum_norm(state: Union[EntangledState, SymmetrizedState]) -> float:
    """Infinite-plane norm of a sinc-tailed state's unnormalized amplitude;
    ``DegenerateStateError`` for a symmetrized state whose norm vanishes."""
    norm = biphoton_norm_closed_form(state.pump, state.crystal)
    if isinstance(state, SymmetrizedState):
        s = abs(state.pump.sigma * state.crystal.eta_plus)
        symmetrized_norm_sq(state.theta, s)
        norm *= _theta_norm_denominator(1.0 + math.cos(state.theta), s)
    return norm


def symmetrized_norm_sq(theta: float, s: float) -> float:
    """|K_theta|^2 = 1/2 / [1 + cos(theta) * Erf(s/2) * sqrt(pi)/s], s = sigma*eta_plus.

    Raises ``DegenerateStateError`` when the bracket drops below
    1e-10 (antisymmetric state with a nearly monochromatic pump).
    """
    denom = _theta_norm_denominator(1.0 + math.cos(theta), s)
    if denom < 2.0 * NORM_DEGENERACY_FLOOR:
        raise DegenerateStateError(
            f"degenerate antisymmetric state: norm denominator {0.5 * denom:.3e} < {NORM_DEGENERACY_FLOOR}"
        )
    return 1.0 / denom


def _biphoton_raw(omega1, omega2, pump: PumpParams, crystal: CrystalParams):
    """Unnormalized biphoton amplitude alpha(w1+w2) * Phi(w1, w2)."""
    o1 = np.asarray(omega1, dtype=float)
    o2 = np.asarray(omega2, dtype=float)
    return pump_envelope(o1 + o2, pump) * phase_matching(o1, o2, crystal, pump.omega_bar)


def _raw_matrix(state: StateSpec, grid: FrequencyGrid) -> np.ndarray:
    """Unnormalized B (real) or B + e^{i theta} B^T (complex) on the grid."""
    omega = grid.axis()
    raw = _biphoton_raw(omega[:, None], omega[None, :], state.pump, state.crystal)
    if isinstance(state, SymmetrizedState):
        symmetrized_norm_sq(state.theta, state.pump.sigma * state.crystal.eta_plus)
        raw = raw + np.exp(1j * state.theta) * raw.T
    return raw


def _grid_mass(state: StateSpec, grid: FrequencyGrid, raw: Optional[np.ndarray] = None) -> float:
    """On-grid trapezoid total of the unnormalized |B|^2; ``raw``, the
    caller's ``_raw_matrix(state, grid)``, spares a rebuild."""
    if raw is None:
        raw = _raw_matrix(state, grid)
    wts = grid.trapezoid_weights()
    return float(np.einsum("m,mn,n->", wts, np.abs(raw) ** 2, wts))


def grid_amplitude_matrix(state: StateSpec, grid: FrequencyGrid) -> np.ndarray:
    """Full n x n matrix B(w_m, w_n) of the two-photon amplitude on the grid,
    normalized so that the trapezoid double integral of |B|^2 is 1.

    The Fock amplitude is the outer product of ``grid_envelope``.  The
    entangled and symmetrized amplitudes have sinc tails that decay only
    as 1/x^2, so a grid of half-width Y / |eta_-| clips about 1/(pi Y) of
    their |B|^2 mass.  The grid norm leaves that share out, and callers own
    the truncation: the Monte Carlo oracle rescales its exchange kernel to
    the continuum norm, and the quadrature route ends its axes where the
    field is negligible and adds the exchange tail past them.
    """
    if isinstance(state, CoherentState):
        raise TypeError("coherent state has no two-photon amplitude; use grid_envelope")
    if isinstance(state, FockState):
        env = grid_envelope(state, grid)
        return np.outer(env, env).astype(complex)
    raw = _raw_matrix(state, grid)
    out = raw.astype(complex, copy=False)
    out /= math.sqrt(_grid_mass(state, grid, raw))
    return out


def grid_envelope(state: StateSpec, grid: FrequencyGrid) -> np.ndarray:
    """One-photon envelope on the grid with on-grid unit norm of its square."""
    if not isinstance(state, (FockState, CoherentState)):
        raise TypeError("grid_envelope applies to Fock and coherent states")
    omega = grid.axis()
    wts = grid.trapezoid_weights()
    env = gaussian_envelope(omega, state.omega_bar, state.delta)
    return env / math.sqrt(float(wts @ (env * env)))
