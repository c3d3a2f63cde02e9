import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpspeckle import (
    CoherentState,
    CrystalParams,
    DegenerateStateError,
    EntangledState,
    FockState,
    FrequencyGrid,
    MonochromaticPumpError,
    PumpParams,
    SymmetrizedState,
    biphoton_norm_closed_form,
    gaussian_envelope,
    grid_amplitude_matrix,
    phase_matching,
    pump_envelope,
    spectral_width_ratio,
    symmetrized_norm_sq,
)
from tpspeckle.states import _biphoton_raw


# --- crystal / pump parameter objects

def test_crystal_etas(crystal):
    assert crystal.eta_plus == crystal.nu_o + crystal.nu_e == 2.0
    assert crystal.eta_minus == crystal.nu_o - crystal.nu_e == 1.0


def test_crystal_rejects_zero_eta_minus():
    with pytest.raises(ValueError):
        CrystalParams(nu_o=0.3, nu_e=0.3)


def test_pump_validation():
    with pytest.raises(ValueError):
        PumpParams(omega_bar=-1.0, sigma=1.0)
    with pytest.raises(ValueError):
        PumpParams(omega_bar=1.0, sigma=-0.5)


def test_state_validation():
    with pytest.raises(ValueError):
        FockState(omega_bar=1.0, delta=0.0)
    with pytest.raises(ValueError):
        SymmetrizedState(PumpParams(1.0, 0.1), CrystalParams(1.5, 0.5), theta=7.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_parameters_must_be_finite(bad):
    with pytest.raises(ValueError):
        PumpParams(omega_bar=bad, sigma=1.0)
    with pytest.raises(ValueError):
        PumpParams(omega_bar=1.0, sigma=bad)
    with pytest.raises(ValueError):
        CrystalParams(nu_o=bad, nu_e=0.5)
    with pytest.raises(ValueError):
        CrystalParams(nu_o=1.5, nu_e=bad)
    for cls in (FockState, CoherentState):
        with pytest.raises(ValueError):
            cls(omega_bar=1.0, delta=bad)
        with pytest.raises(ValueError):
            cls(omega_bar=bad, delta=1.0)


# --- pump envelope

def test_pump_envelope_peak(pump_s2):
    assert pump_envelope(2 * pump_s2.omega_bar, pump_s2) == 1.0


def test_pump_envelope_one_over_e(pump_s2):
    x = 2 * pump_s2.omega_bar + pump_s2.sigma * math.sqrt(2.0)
    assert pump_envelope(x, pump_s2) == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_pump_envelope_three_sigma(pump_s2):
    # independent high-precision value of exp(-4.5) (mpmath, 20 digits)
    x = 2 * pump_s2.omega_bar + 3.0 * pump_s2.sigma
    assert pump_envelope(x, pump_s2) == pytest.approx(0.011108996538242306, rel=1e-14)


def test_pump_envelope_rejects_cw():
    with pytest.raises(MonochromaticPumpError):
        pump_envelope(1.0, PumpParams(omega_bar=1.0, sigma=0.0))


# --- phase matching

def test_phase_matching_center(crystal):
    assert phase_matching(100.0, 100.0, crystal, 100.0) == 1.0


def test_phase_matching_zero_at_pi(crystal):
    # nu_o*(w1 - wbar) = pi with w2 = wbar
    w1 = 100.0 + math.pi / crystal.nu_o
    assert phase_matching(w1, 100.0, crystal, 100.0) == pytest.approx(0.0, abs=1e-14)


def test_phase_matching_swap_identity(crystal):
    # Phi(wbar+d, wbar-d) = sinc(eta_minus*d) = Phi(wbar-d, wbar+d)
    for d in np.linspace(-4.0, 4.0, 41):
        a = phase_matching(100.0 + d, 100.0 - d, crystal, 100.0)
        b = phase_matching(100.0 - d, 100.0 + d, crystal, 100.0)
        assert a == pytest.approx(b, abs=1e-15)
        assert a == pytest.approx(math.sin(d) / d if d else 1.0, rel=1e-12)


def test_phase_matching_bounds(crystal):
    x = np.linspace(50.0, 150.0, 3001)
    vals = phase_matching(x, 100.0, crystal, 100.0)
    assert np.all(vals <= 1.0) and np.all(vals >= -0.2173)


# --- gaussian envelope

def test_gaussian_envelope_unit_norm():
    omega = np.linspace(90.0, 110.0, 40001)
    env = gaussian_envelope(omega, 100.0, 1.0)
    norm = np.trapezoid(env**2, omega)
    assert norm == pytest.approx(1.0, abs=1e-8)


def test_gaussian_envelope_peak():
    assert gaussian_envelope(100.0, 100.0, 2.0) == pytest.approx(
        (math.sqrt(math.pi) * 2.0) ** -0.5, rel=1e-14
    )


def test_gaussian_envelope_one_width():
    val = gaussian_envelope(101.0, 100.0, 1.0)
    assert val == pytest.approx(math.exp(-0.5) * math.pi**-0.25, rel=1e-14)


# --- spectral widths (Fig. 2 behavior)

def test_spectral_width_ratio_cw_constant():
    # sigma = 0: ratio = 2 sqrt(ln 2 * 2.79)/2.78 for any crystal (mpmath: 1.00046069657)
    for nus in ((1.5, 0.5), (-0.073, -0.264), (0.2, -1.0)):
        r_o, r_e = spectral_width_ratio(0.0, CrystalParams(*nus))
        assert r_o == pytest.approx(1.0004606965712883, rel=1e-12)
        assert r_e == pytest.approx(1.0004606965712883, rel=1e-12)


def test_spectral_width_ratio_large_sigma_asymptote(crystal):
    dw_cw = 2.78 / abs(crystal.eta_minus)
    sigma = 1e4
    r_o, r_e = spectral_width_ratio(sigma, crystal)
    assert r_o / r_e == pytest.approx(abs(crystal.nu_o / crystal.nu_e), rel=1e-6)
    expect_o = 2 * abs(crystal.nu_o) / abs(crystal.eta_minus) * math.sqrt(math.log(2.0)) * sigma / dw_cw
    assert r_o == pytest.approx(expect_o, rel=1e-6)


def test_spectral_width_ratio_splits_for_unequal_nu(crystal):
    r_o, r_e = spectral_width_ratio(2.0, crystal)
    assert r_o != pytest.approx(r_e, rel=1e-3)


def test_spectral_width_ratio_monotone(crystal):
    sigmas = np.linspace(0.0, 5.0, 21)
    ratios = np.array([spectral_width_ratio(s, crystal) for s in sigmas])
    assert np.all(np.diff(ratios[:, 0]) >= 0)
    assert np.all(np.diff(ratios[:, 1]) >= 0)


# --- biphoton amplitude

# At eta_minus = 1 this grid clips 1/(pi * 640) = 5e-4 of the |B|^2 mass.
SINC_GRID = FrequencyGrid(100.0, 640.0, 2049)
# Symmetric about omega_bar and wide enough for the amplitude's support; it
# clips about 4% of the sinc tails, which the exchange properties do not need.
SMALL_GRID = FrequencyGrid(100.0, 8.0, 129)


def test_biphoton_normalized_on_grid(entangled_s2):
    b = grid_amplitude_matrix(entangled_s2, SINC_GRID)
    w = SINC_GRID.trapezoid_weights()
    total = np.einsum("m,mn,n->", w, np.abs(b) ** 2, w)
    assert total == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("theta", [None, 1.0], ids=["entangled", "symmetrized"])
def test_grid_amplitude_matrix_builds_once_per_call(monkeypatch, pump_s2, crystal, theta):
    from tpspeckle import states

    state = EntangledState(pump_s2, crystal) if theta is None else SymmetrizedState(pump_s2, crystal, theta)
    grid = FrequencyGrid(100.0, 8.0, 97)
    raw_matrix = states._raw_matrix
    calls = []

    def counted(state, grid):
        calls.append(grid)
        return raw_matrix(state, grid)

    monkeypatch.setattr(states, "_raw_matrix", counted)
    b = grid_amplitude_matrix(state, grid)
    assert len(calls) == 1
    grid_amplitude_matrix(state, grid)
    assert len(calls) == 2
    raw = raw_matrix(state, grid)
    w = grid.trapezoid_weights()
    total = float(np.einsum("m,mn,n->", w, np.abs(raw) ** 2, w))
    assert np.array_equal(b, raw.astype(complex) / math.sqrt(total))


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("half_width, n", [(16.0, 257), (32.0, 513)])
def test_grid_clips_the_sinc_tail_share(crystal, sigma, half_width, n):
    # the premise of the Monte Carlo exchange rescale: a grid of half-width
    # Y / |eta_-| holds all but about 1/(pi Y) of the continuum |B|^2 mass
    from tpspeckle.states import _continuum_norm, _grid_mass

    state = EntangledState(PumpParams(100.0, sigma), crystal)
    clipped = 1.0 - _grid_mass(state, FrequencyGrid(100.0, half_width, n)) / _continuum_norm(state)
    share = 1.0 / (math.pi * abs(crystal.eta_minus) * half_width)
    assert clipped == pytest.approx(share, rel=0.08)


def test_biphoton_not_exchange_symmetric(entangled_s2):
    # b.T[m, n] = B(w_n, w_m): the swapped amplitude on the same grid
    b = grid_amplitude_matrix(entangled_s2, SMALL_GRID)
    assert np.max(np.abs(b - b.T)) > 1e-3 * np.max(np.abs(b))


def test_biphoton_closed_form_norm_check(pump_s2, crystal):
    # With K from <psi|psi> = |K|^2 pi^(3/2) sigma/|eta_minus|, the grid
    # integral of |K alpha Phi|^2 lands within 5% of 1 (tail truncation).
    omega = SINC_GRID.axis()
    w = SINC_GRID.trapezoid_weights()
    k_sq = 1.0 / biphoton_norm_closed_form(pump_s2, crystal)
    total = 0.0
    for i0 in range(0, SINC_GRID.n, 512):
        blk = slice(i0, min(i0 + 512, SINC_GRID.n))
        b = _biphoton_raw(omega[blk][:, None], omega[None, :], pump_s2, crystal)
        total += float(np.einsum("m,mn,n->", w[blk], np.abs(b) ** 2, w))
    assert k_sq * total == pytest.approx(1.0, abs=0.05)


def test_amplitudes_pure(entangled_s2):
    a = grid_amplitude_matrix(entangled_s2, SMALL_GRID)
    b = grid_amplitude_matrix(entangled_s2, SMALL_GRID)
    assert np.array_equal(a, b)


# --- symmetrized amplitude

def test_symmetrized_norm_sq_at_pi_over_2():
    assert symmetrized_norm_sq(math.pi / 2, 1.7) == pytest.approx(0.5, rel=1e-12)


def test_symmetrized_norm_sq_limits():
    assert symmetrized_norm_sq(0.0, 1e4) == pytest.approx(0.5, rel=1e-3)
    assert symmetrized_norm_sq(0.0, 1e-8) == pytest.approx(0.25, rel=1e-9)


def test_symmetrized_norm_degenerate():
    with pytest.raises(DegenerateStateError):
        symmetrized_norm_sq(math.pi, 1e-6)


@pytest.mark.parametrize("theta,expect_sign", [(0.0, 1.0), (math.pi, -1.0)])
def test_symmetrized_exchange_identity(pump_s2, crystal, theta, expect_sign):
    b = grid_amplitude_matrix(SymmetrizedState(pump_s2, crystal, theta), SMALL_GRID)
    scale = np.abs(b).max()
    assert scale > 0.01  # the grid must hold the amplitude's support
    assert np.max(np.abs(b - expect_sign * b.T)) <= 1e-12 * scale


@pytest.mark.parametrize("theta", [0.0, math.pi / 2, math.pi])
@pytest.mark.parametrize("s", [0.5, 2.0, 4.0])
def test_symmetrized_normalization(crystal, theta, s):
    pump = PumpParams(omega_bar=100.0, sigma=s / crystal.eta_plus)
    b = grid_amplitude_matrix(SymmetrizedState(pump, crystal, theta), SINC_GRID)
    w = SINC_GRID.trapezoid_weights()
    total = np.einsum("m,mn,n->", w, np.abs(b) ** 2, w)
    assert total == pytest.approx(1.0, abs=1e-4)


def test_symmetrized_rejects_cw(crystal):
    state = SymmetrizedState(PumpParams(100.0, 0.0), crystal, 0.0)
    with pytest.raises(MonochromaticPumpError):
        grid_amplitude_matrix(state, SINC_GRID)


# --- property: erf_ratio-based norm is even and bounded

@given(st.floats(min_value=-50.0, max_value=50.0))
@settings(max_examples=200, deadline=None)
def test_symmetrized_norm_even_in_s(s):
    v1 = symmetrized_norm_sq(0.3, s)
    v2 = symmetrized_norm_sq(0.3, -s)
    assert v1 == v2
    assert 0.0 < v1 <= 0.5 + 1e-12
