import math

import numpy as np
import pytest

from tpspeckle import (
    CoherentState,
    CrystalParams,
    EntangledState,
    DegenerateStateError,
    FockState,
    GridTooNarrowError,
    ModelI,
    ModelII,
    PumpParams,
    QuadratureNotConvergedError,
    SymmetrizedState,
    rate_closed_form,
    rate_coherent,
    rate_entangled,
    rate_fock,
    rate_numeric,
    rate_numeric_batch,
    rate_theta,
)

CRYSTAL = CrystalParams(nu_o=1.5, nu_e=0.5)  # eta- = 1, eta+ = 2
M_I = ModelI(omega_corr=1.0)


def _ent(s):
    return EntangledState(PumpParams(100.0, s / 2.0), CRYSTAL)


def test_entangled_quadrature_matches_closed_form():
    for (t, s, w) in ((0.0, 2.0, 1.0), (0.7, 0.5, 3.0), (1.6, 4.0, 0.3)):
        res = rate_numeric(_ent(s), ModelI(omega_corr=w), tau=t)
        closed = rate_entangled(t, s, w)
        assert res.value == pytest.approx(closed, abs=1e-6)
        assert abs(res.value - closed) <= max(1e-6, res.error)


def test_fock_quadrature_matches_closed_form():
    state = FockState(omega_bar=100.0, delta=1.0)
    for (t, w) in ((1.0, 1.0), (0.0, 0.3), (2.0, 3.0)):
        res = rate_numeric(state, ModelI(omega_corr=w), tau=t)
        assert res.value == pytest.approx(rate_fock(t, w), abs=1e-6)


def test_coherent_quadrature_matches_closed_form():
    state = CoherentState(omega_bar=100.0, delta=1.0)
    for (t, w) in ((0.0, 1.0), (1.0, 0.3), (3.0, 3.0)):
        res = rate_numeric(state, ModelI(omega_corr=w), tau=t)
        assert res.value == pytest.approx(rate_coherent(t, w), abs=1e-6)


def test_coherent_strong_correlation_peak():
    # Omega >> Delta: R(0) -> 4 (the Model I kernel approaches it as 1/w)
    state = CoherentState(omega_bar=100.0, delta=1.0)
    res = rate_numeric(state, ModelI(omega_corr=2e4), tau=0.0)
    assert res.value == pytest.approx(4.0, abs=1e-3)


def test_entangled_flat_correlation_doubles():
    # |C|^2 ~ 1 over the whole grid, sigma small: R(0) -> 2.  The sinc
    # exchange tail beyond the grid is supplied analytically.
    state = _ent(0.05)
    model = ModelI(omega_corr=1e9)
    res = rate_numeric(state, model, tau=0.0)
    assert res.value == pytest.approx(2.0, abs=1e-3)
    assert abs(res.value - rate_closed_form(state, model, 0.0)) <= res.error


@pytest.mark.parametrize("theta", [0.0, math.pi / 2])
def test_symmetrized_flat_correlation(theta):
    # under a nearly flat kernel the d axis cuts the sinc exchange term,
    # whose remainder is the analytic tail: only the pump-axis edges count
    state = SymmetrizedState(PumpParams(100.0, 1.0), CRYSTAL, theta)
    model = ModelI(omega_corr=1e9)
    res = rate_numeric(state, model, tau=0.0)
    assert abs(res.value - rate_closed_form(state, model, 0.0)) <= res.error


@pytest.mark.parametrize("theta", [0.0, 1.0, math.pi / 2, math.pi])
def test_symmetrized_quadrature_matches_closed_form(theta):
    state = SymmetrizedState(PumpParams(100.0, 1.0), CRYSTAL, theta)
    for (t, w) in ((0.0, 1.0), (0.8, 0.5)):
        res = rate_numeric(state, ModelI(omega_corr=w), tau=t)
        closed = rate_theta(t, 2.0, w, theta)
        assert res.value == pytest.approx(closed, abs=1e-6)


@pytest.mark.parametrize("theta", [0.0, math.pi / 2, math.pi])
def test_symmetrized_exchange_tail(theta):
    # omega_corr = 1e3 leaves |C|^2 ~ 1 past the d axis, so the analytic
    # exchange tail carries about 1e-4 of the rate
    state = SymmetrizedState(PumpParams(100.0, 1.0), CRYSTAL, theta)
    res = rate_numeric(state, ModelI(omega_corr=1e3), tau=0.0)
    assert abs(res.value - rate_theta(0.0, 2.0, 1e3, theta)) < 1e-6


def test_symmetrized_tail_error_covers_large_tau_batch():
    # a batch reaching |tau| = 10 |eta_-| shrinks the d axis to 54, where a
    # slowly decaying Model II kernel leaves a tail whose left-out
    # (s / (eta_- d))^2 term is a few 1e-6: the reported error must cover it
    state = SymmetrizedState(PumpParams(100.0, 2.0), CRYSTAL, math.pi)
    model = ModelII(omega_th=3.0)
    taus = [0.0, 1.0, 3.0, 10.0]
    for tau, res in zip(taus, rate_numeric_batch(state, model, taus)):
        assert abs(res.value - rate_closed_form(state, model, tau)) <= res.error


def test_symmetrized_curve_reaching_large_tau():
    # |tau| = 10 shrinks the d axis to 54, inside the slowly decaying
    # Model II kernel: the exchange tail carries the rest of the curve
    state = SymmetrizedState(PumpParams(100.0, 1.0), CRYSTAL, 0.0)
    model = ModelII(omega_th=3.0)
    taus = [0.0, 2.5, 5.0, 10.0]
    for tau, res in zip(taus, rate_numeric_batch(state, model, taus)):
        assert abs(res.value - rate_closed_form(state, model, tau)) <= res.error


def test_model_ii_quadrature_matches_reduced():
    state = _ent(2.0)
    for (t, w) in ((0.5, 0.5), (0.0, 1.0)):
        res = rate_numeric(state, ModelII(omega_th=w), tau=t)
        reduced = rate_entangled(t, 2.0, w, kind="II")
        assert res.value == pytest.approx(reduced, abs=1e-6)
        assert abs(res.value - reduced) <= max(1e-12, res.error)


@pytest.mark.parametrize("model", [M_I, ModelII(omega_th=0.5)])
def test_coherent_is_fock_at_zero_plus_fock_at_tau(model):
    # R_coh(tau) = R_F(0) + R_F(tau) for the same envelope, errors summed
    taus = [-1.0, 0.0, 0.5, 2.0]
    fock = rate_numeric_batch(FockState(100.0, 1.0), model, [0.0] + taus)
    coherent = rate_numeric_batch(CoherentState(100.0, 1.0), model, taus)
    for res, f in zip(coherent, fock[1:]):
        assert res.value == fock[0].value + f.value
        assert res.error == fock[0].error + f.error


def test_degenerate_antisymmetric_state_is_refused():
    # below the norm floor the quadrature's own error estimate no longer
    # covers its error: refuse the state as the Monte Carlo route does
    for sigma in (1e-5, 1e-6, 3e-7):
        with pytest.raises(DegenerateStateError):
            rate_numeric(SymmetrizedState(PumpParams(100.0, sigma), CRYSTAL, math.pi), M_I, tau=0.0)
    state = SymmetrizedState(PumpParams(100.0, 3e-5), CRYSTAL, math.pi)
    res = rate_numeric(state, M_I, tau=0.0)
    assert abs(res.value - rate_closed_form(state, M_I, 0.0)) <= res.error


def test_parity_in_tau():
    state = _ent(1.0)
    a = rate_numeric(state, M_I, tau=0.8).value
    b = rate_numeric(state, M_I, tau=-0.8).value
    assert a == pytest.approx(b, abs=1e-9)


def test_error_estimate_reported():
    res = rate_numeric(FockState(100.0, 1.0), M_I, tau=0.5)
    assert res.error >= 0.0
    assert res.value == pytest.approx(rate_fock(0.5, 1.0), abs=max(1e-6, res.error))


def test_quadrature_not_converged_error(monkeypatch):
    import tpspeckle.rates as rates

    monkeypatch.setattr(rates, "QUADRATURE_POINTS_GAUSS", 33)
    monkeypatch.setattr(rates, "QUADRATURE_ERROR_GATE", 1e-9)
    with pytest.raises(QuadratureNotConvergedError):
        rate_numeric(FockState(100.0, 1.0), M_I, tau=0.5)


def test_grid_too_narrow_error(monkeypatch):
    # a kernel support far narrower than the Fock envelope cuts the d
    # axis at half a width, where the Gaussian ring carries real mass
    import tpspeckle.rates as rates

    monkeypatch.setattr(rates, "_model_d_support", lambda model: 0.0)
    state = FockState(100.0, 1.0)
    with pytest.raises(GridTooNarrowError):
        rate_numeric(state, M_I, tau=0.0)
    with pytest.raises(GridTooNarrowError):
        rate_numeric_batch(state, M_I, [0.0, 1.0])


def test_quadrature_curve(entangled_s2):
    taus = np.linspace(0.0, 1.0, 3)
    for tau, res in zip(taus, rate_numeric_batch(entangled_s2, M_I, taus)):
        assert res.value == pytest.approx(rate_entangled(tau, 2.0, 1.0), abs=1e-6)


_CW_STATES = {
    "entangled": _ent(2.0),
    "theta0": SymmetrizedState(PumpParams(100.0, 1.0), CRYSTAL, 0.0),
    "thetapi": SymmetrizedState(PumpParams(100.0, 1.0), CRYSTAL, math.pi),
    "fock": FockState(100.0, 1.0),
    "coherent": CoherentState(100.0, 1.0),
}


@pytest.mark.parametrize("name", list(_CW_STATES))
def test_quadrature_at_the_cw_limit(name):
    # flat transmission is a model at infinite scale, so the quadrature
    # route checks the cw closed forms; either model gives the same field
    state = _CW_STATES[name]
    taus = [-3.0, -1.0, 0.0, 1.0, 3.0]
    results = rate_numeric_batch(state, ModelI(math.inf), taus)
    for res, closed in zip(results, rate_closed_form(state, ModelI(math.inf), taus)):
        assert abs(res.value - closed) <= res.error
    assert rate_numeric_batch(state, ModelII(math.inf), taus) == results


@pytest.mark.parametrize("state", [_ent(2.0), SymmetrizedState(PumpParams(100.0, 1.0), CRYSTAL, 1.0)],
                         ids=["entangled", "theta"])
@pytest.mark.parametrize("model", [M_I, ModelII(omega_th=1.0)], ids=["I", "II"])
def test_huge_delay_fails_the_gate_before_the_tail_integrals(monkeypatch, state, model):
    # a huge |tau| cuts the d axis short; the left-out term of the exchange
    # tail alone is then over the gate, and no integral divides by a power
    # of d that rounds to 0
    calls = _counting_quad(monkeypatch)
    for tau_max in (1e6, 1e20, 1e100, 1e300):
        with pytest.raises(QuadratureNotConvergedError, match="exchange tail"):
            rate_numeric_batch(state, model, [0.0, tau_max])
    assert calls == []


@pytest.mark.parametrize("state", [FockState(100.0, 1.0), CoherentState(100.0, 1.0)], ids=["fock", "coherent"])
@pytest.mark.parametrize("model", [M_I, ModelII(omega_th=1.0), ModelI(math.inf)], ids=["I", "II", "cw"])
def test_gaussian_axis_follows_the_delay(state, model):
    # on an axis blind to the delay (24 delta over 1024 cells), every
    # Richardson stride sees the delay phase 1 at tau = 2 pi / hd, and the
    # batch would return R(0) with a roundoff-sized error; the axis follows
    # |tau|, and at these taus is too narrow for the Gaussian envelope
    alias = 2.0 * math.pi * 1024 / 24.0
    for tau in (alias, 4.0 * alias):
        with pytest.raises(GridTooNarrowError):
            rate_numeric_batch(state, model, [0.0, tau])


def test_tail_integral_error_estimate_is_checked(monkeypatch):
    # the QUADPACK estimates of the entangled exchange tail feed the
    # reported error and its gate; a nearly flat kernel keeps the tail
    # integrals (at omega_corr = 1 their Model I bound replaces them)
    import tpspeckle.rates as rates

    state = _ent(2.0)
    model = ModelI(omega_corr=1e3)
    healthy = rate_numeric(state, model, tau=0.5)
    quad = rates.quad
    monkeypatch.setattr(rates, "quad", lambda *a, **k: (quad(*a, **k)[0], 1e-3))
    with pytest.raises(QuadratureNotConvergedError):
        rate_numeric(state, model, tau=0.5)
    monkeypatch.setattr(rates, "QUADRATURE_ERROR_GATE", 1.0)
    sloppy = rate_numeric(state, model, tau=0.5)
    assert sloppy.value == healthy.value
    assert sloppy.error > healthy.error + 1e-4


# --- tau batches: one field per curve

_BATCH_TAUS = [-0.8, 0.0, 0.5, 1.6]
_BATCH_STATES = {
    "entangled": _ent(2.0),
    "antisymmetric": SymmetrizedState(PumpParams(100.0, 1.0), CRYSTAL, math.pi),
    "fock": FockState(100.0, 1.0),
    "coherent": CoherentState(100.0, 1.0),
}
# Recorded with ``repr`` when every tau built its own field.
_PER_TAU_VALUES = {
    "entangled": [1.1160233685282164, 1.1314500695732586, 1.125021230592166, 1.0847274719414088],
    "antisymmetric": [0.9976571540455657, 0.9942443753153563, 0.9958259228723391, 1.0011045047978246],
    "fock": [1.3104689333396744, 1.3362040051230326, 1.3257901582106206, 1.2487677287062948],
    "coherent": [2.646672938462707, 2.6724080102460652, 2.6619941633336532, 2.5849717338293274],
}


@pytest.mark.parametrize("name", list(_BATCH_STATES))
def test_batch_matches_per_tau_quadrature(name):
    state = _BATCH_STATES[name]
    batch = rate_numeric_batch(state, M_I, _BATCH_TAUS)
    for tau, res, value in zip(_BATCH_TAUS, batch, _PER_TAU_VALUES[name]):
        assert res.value == pytest.approx(value, abs=1e-14)
        single = rate_numeric(state, M_I, tau)
        assert single.value == pytest.approx(res.value, abs=1e-14)
        assert single.error == pytest.approx(res.error, abs=1e-14)


def test_curve_raises_when_one_tau_fails_the_gate(monkeypatch):
    import tpspeckle.rates as rates

    tail = rates._exchange_tail

    def sloppy_at_half(state, model, d_half, taus):
        results = tail(state, model, d_half, taus)
        return [res._replace(error=1e-3) if tau == 0.5 else res for tau, res in zip(taus, results)]

    monkeypatch.setattr(rates, "_exchange_tail", sloppy_at_half)
    state = _ent(2.0)
    assert len(rate_numeric_batch(state, M_I, [0.0, 1.0])) == 2
    with pytest.raises(QuadratureNotConvergedError, match="quadrature not converged: estimate"):
        rate_numeric_batch(state, M_I, [0.0, 0.5, 1.0])


# --- the field in blocks of pump-axis rows

_CURVE_TAUS = np.linspace(-2.0, 2.0, 17).tolist()


@pytest.mark.parametrize("state", [_ent(2.0), SymmetrizedState(PumpParams(100.0, 1.0), CRYSTAL, 1.0)])
def test_batch_memory_stays_bounded(state):
    # a whole 1537 x 1537 field is 19 MB real and 38 MB complex; the blocks
    # of pump-axis rows keep a 17-tau curve far under one such array
    import tracemalloc

    rate_numeric_batch(state, M_I, _CURVE_TAUS)
    tracemalloc.start()
    try:
        rate_numeric_batch(state, M_I, _CURVE_TAUS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@pytest.mark.parametrize("model", [M_I, ModelII(omega_th=1.0)], ids=["I", "II"])
@pytest.mark.parametrize("name", list(_BATCH_STATES))
def test_batch_does_not_depend_on_the_block_size(monkeypatch, name, model):
    # 7-row blocks are ragged against the Richardson strides 2 and 4; one
    # block holding the whole field is the unblocked sum
    import tpspeckle.rates as rates

    state = _BATCH_STATES[name]
    n = rates.QUADRATURE_POINTS_GAUSS if name in ("fock", "coherent") else rates.QUADRATURE_POINTS_SINC
    default = rate_numeric_batch(state, model, _BATCH_TAUS)
    for rows in (7, n):
        monkeypatch.setattr(rates, "_BLOCK_VALUES", rows * n)
        for res, ref in zip(rate_numeric_batch(state, model, _BATCH_TAUS), default):
            assert abs(res.value - ref.value) <= 1e-15
            assert abs(res.error - ref.error) <= 1e-15


def test_grid_too_narrow_error_in_small_blocks(monkeypatch):
    import tpspeckle.rates as rates

    monkeypatch.setattr(rates, "_model_d_support", lambda model: 0.0)
    monkeypatch.setattr(rates, "_BLOCK_VALUES", 7 * rates.QUADRATURE_POINTS_GAUSS)
    with pytest.raises(GridTooNarrowError):
        rate_numeric_batch(FockState(100.0, 1.0), M_I, [0.0, 1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", list(_BATCH_STATES))
def test_non_finite_tau_is_refused(name, bad):
    with pytest.raises(ValueError, match="finite"):
        rate_numeric_batch(_BATCH_STATES[name], M_I, [0.0, bad])


def test_nan_error_estimate_fails_the_gate(monkeypatch):
    import tpspeckle.rates as rates

    monkeypatch.setattr(
        rates, "_exchange_tail", lambda state, model, d_half, taus: [rates.QuadratureResult(0.0, math.nan)] * len(taus)
    )
    with pytest.raises(QuadratureNotConvergedError):
        rate_numeric_batch(_ent(2.0), M_I, [0.0])


@pytest.mark.parametrize("scale", [0.3, 1.0, 3.0])
@pytest.mark.parametrize("state", [FockState(100.0, 1.0), CoherentState(100.0, 1.0)])
def test_error_has_a_roundoff_floor(state, scale):
    # the Richardson estimate can vanish at some taus; the reported error
    # still covers the rounding of the sums
    model = ModelII(omega_th=scale)
    taus = np.linspace(-3.0, 3.0, 25)
    for res, closed in zip(rate_numeric_batch(state, model, taus), rate_closed_form(state, model, taus)):
        assert res.error >= 8.0 * np.finfo(float).eps * abs(res.value)
        assert abs(res.value - closed) <= res.error


def _counting_quad(monkeypatch):
    import tpspeckle.rates as rates

    calls = []
    quad = rates.quad

    def counted(*args, **kwargs):
        calls.append(args)
        return quad(*args, **kwargs)

    monkeypatch.setattr(rates, "quad", counted)
    return calls


def test_model_i_tail_bound_replaces_the_tail_integrals(monkeypatch):
    # the d axis reaches 19 omega_corr: the whole tail is under
    # exp(-38) and no QUADPACK call runs, while its bound joins the error
    import tpspeckle.rates as rates

    calls = _counting_quad(monkeypatch)
    state = _ent(2.0)
    results = rate_numeric_batch(state, M_I, _CURVE_TAUS)
    assert calls == []
    [bound] = rates._exchange_tail(state, M_I, 19.0, [0.0])
    assert bound.value == 0.0
    assert 0.0 < bound.error < 1e-3 * rates.QUADRATURE_ERROR_GATE
    for tau, res in zip(_CURVE_TAUS, results):
        assert abs(res.value - rate_entangled(tau, 2.0, 1.0)) <= res.error


def test_flat_model_i_kernel_keeps_the_tail_integrals(monkeypatch):
    # omega_corr = 1e3 leaves |C|^2 near 1 past the d axis: the bound is
    # not negligible and the tail is integrated (3 calls and the H integral)
    calls = _counting_quad(monkeypatch)
    state = _ent(2.0)
    model = ModelI(omega_corr=1e3)
    res = rate_numeric_batch(state, model, [0.0])[0]
    assert len(calls) == 4
    assert abs(res.value - rate_closed_form(state, model, 0.0)) <= res.error
