import math

import mpmath
import numpy as np
import pytest

from tpspeckle import (
    CoherentState,
    CrystalParams,
    EntangledState,
    DegenerateStateError,
    FockState,
    ModelI,
    ModelII,
    PumpParams,
    QuadratureNotConvergedError,
    SymmetrizedState,
    correlation_sq_magnitude,
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
    # a 33-point pump axis leaves a Richardson estimate of 3e-3, where
    # 1025 points give 1.3e-9
    import tpspeckle.rates as rates

    monkeypatch.setattr(rates, "QUADRATURE_POINTS_GAUSS", 33)
    with pytest.raises(QuadratureNotConvergedError):
        rate_numeric(FockState(100.0, 1.0), M_I, tau=0.5)


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


_GAUSSIAN_STATES = [FockState(100.0, 1.0), CoherentState(100.0, 1.0)]
_GAUSSIAN_MODELS = [M_I, ModelII(omega_th=1.0), ModelI(math.inf)]


@pytest.mark.parametrize("state", _GAUSSIAN_STATES, ids=["fock", "coherent"])
@pytest.mark.parametrize("model", _GAUSSIAN_MODELS, ids=["I", "II", "cw"])
def test_gaussian_axis_follows_the_delay(state, model):
    # a d axis narrowed to 0.35 * 1024 / 86 = 4.2 delta would cut off about
    # 2.7e-5 of the Gaussian mass, which no error term counts; on an axis
    # blind to the delay (24 delta over 1024 cells) every Richardson stride
    # sees the phase 1 at tau = 2 pi / hd and returns R(0).  The axis keeps
    # its width and takes one cell per 0.35 rad of the delay phase, up to
    # 2^16 points: 4 times that tau (|tau| delta = 1072) needs 73 537
    alias = 2.0 * math.pi * 1024 / 24.0
    for taus in ([0.0, 86.0], [0.0, alias, 2.0 * alias]):
        for res, closed in zip(rate_numeric_batch(state, model, taus), rate_closed_form(state, model, taus)):
            assert abs(res.value - closed) <= res.error
    with pytest.raises(QuadratureNotConvergedError, match="points"):
        rate_numeric_batch(state, model, [0.0, 4.0 * alias])


@pytest.mark.parametrize("state", _GAUSSIAN_STATES, ids=["fock", "coherent"])
def test_gaussian_huge_delay_is_refused_before_any_array(state):
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(QuadratureNotConvergedError, match="points"):
            rate_numeric_batch(state, M_I, [0.0, 1e300])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 1025  # one axis of the smallest field


def test_tail_integral_error_estimate_is_checked(monkeypatch):
    # the QUADPACK estimates of the entangled exchange tail feed the
    # reported error and its gate; a nearly flat kernel keeps the tail
    # integrals (at omega_corr = 1 their Model I bound replaces them)
    import tpspeckle.rates as rates

    state = _ent(2.0)
    model = ModelI(omega_corr=1e3)
    healthy = rate_numeric(state, model, tau=0.5)
    quad = rates.quad
    monkeypatch.setattr(
        rates, "quad", lambda f, a, freq, weight="cos": rates.QuadratureResult(quad(f, a, freq, weight).value, 1e-3)
    )
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
    # sinc fields: 7-row blocks are ragged against the Richardson strides 2
    # and 4, and one block holding the whole field is the unblocked sum.
    # The Fock field has no blocks: the budget only caps its d axis, whose
    # delay phase over max |tau| = 1.6 and d_half = 12 takes 112 cells, so
    # a budget of 113 leaves every rate as it was and one of 112 refuses
    import tpspeckle.rates as rates

    state = _BATCH_STATES[name]
    default = rate_numeric_batch(state, model, _BATCH_TAUS)
    gaussian = name in ("fock", "coherent")
    n = rates.QUADRATURE_POINTS_SINC
    for budget in (113,) if gaussian else (7 * n, n * n):
        monkeypatch.setattr(rates, "_BLOCK_VALUES", budget)
        for res, ref in zip(rate_numeric_batch(state, model, _BATCH_TAUS), default):
            assert abs(res.value - ref.value) <= 1e-15
            assert abs(res.error - ref.error) <= 1e-15
    if gaussian:
        monkeypatch.setattr(rates, "_BLOCK_VALUES", 112)
        with pytest.raises(QuadratureNotConvergedError, match="points"):
            rate_numeric_batch(state, model, _BATCH_TAUS)


@pytest.mark.parametrize("name", list(_BATCH_STATES))
def test_empty_batch_has_no_rates(name):
    assert rate_numeric_batch(_BATCH_STATES[name], M_I, []) == []


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


def test_decayed_model_ii_tail_is_its_bound(monkeypatch):
    # |C_II|^2 falls with |d| as |C_I|^2 does: at omega_th = 0.3 the d axis
    # ends at the support, 180 = 600 omega_th, where it is 2.2e-12, so the
    # tail is its bound, with no QUADPACK call
    calls = _counting_quad(monkeypatch)
    state = _ent(2.0)
    model = ModelII(omega_th=0.3)
    taus = np.linspace(-1.0, 1.0, 13)
    results = rate_numeric_batch(state, model, taus)
    assert calls == []
    for res, closed in zip(results, rate_closed_form(state, model, taus)):
        assert abs(res.value - closed) <= res.error


def test_flat_tail_integral_is_held_to_a_relative_tolerance():
    # Int_{d_half}^inf exp(-2d/omega) / d^2 dd = E_2(2 d_half/omega) / d_half;
    # under omega = 1e9 at d_half = 537.6 the default absolute tolerance
    # of QUADPACK returned it 1.3e-8 off with an estimate of 1.07e-8
    import tpspeckle.rates as rates

    model = ModelI(omega_corr=1e9)
    d_half = 537.6
    res = rates.quad(lambda d: correlation_sq_magnitude(d, model) / (d * d), d_half, 0.0)
    exact = float(mpmath.expint(2, mpmath.mpf(2.0 * d_half / model.omega_corr)) / d_half)
    assert abs(res.value - exact) <= res.error


def test_flat_model_i_kernel_keeps_the_tail_integrals(monkeypatch):
    # omega_corr = 1e3 leaves |C|^2 near 1 past the d axis: the bound is
    # not negligible and the tail is integrated (F(0), one O_pm for both
    # signs of eta_- +- 0, and the H integral)
    calls = _counting_quad(monkeypatch)
    state = _ent(2.0)
    model = ModelI(omega_corr=1e3)
    res = rate_numeric_batch(state, model, [0.0])[0]
    assert len(calls) == 3
    assert abs(res.value - rate_closed_form(state, model, 0.0)) <= res.error


# values and errors of the batch below, as the route gave them when every
# tau ran its own five tail integrals (64 calls in all)
_SHARED_TAIL_BATCH = [
    (1.0003292149164302, 4.093062566445465e-06),
    (1.0005825077870936, 2.4370630169088346e-06),
    (1.0040271095868443, 1.4217384506141584e-06),
    (1.244791362659888, 8.004378786331002e-07),
    (1.4603413884491465, 4.269069903040953e-07),
    (1.6286781018891539, 2.320640062171265e-07),
    (1.742460611439631, 1.6501816270901505e-07),
    (1.628678101889154, 2.3206400625700285e-07),
    (1.4603413884491465, 4.269069902941262e-07),
    (1.2447913626598879, 8.004378786281158e-07),
    (1.0040271095868443, 1.421738450601697e-06),
    (1.0005825077870936, 2.4370630169030223e-06),
    (1.0003292149164302, 4.093062566454602e-06),
]


def test_each_tail_frequency_is_integrated_once_per_batch(monkeypatch):
    # a flat kernel keeps the tail integrals; over 13 taus symmetric about
    # 0 (eta_- = 1) the cosine frequencies |tau| and |1 +- tau| take 11
    # distinct values, and so do the sine frequencies |1 +- tau| (a sine
    # integral at -f is the one at f, negated), so with the H integral the
    # batch makes 23 calls, and each value and error is the one of 5
    # integrals per tau
    calls = _counting_quad(monkeypatch)
    state = SymmetrizedState(PumpParams(100.0, 1.0), CRYSTAL, 0.5 * math.pi)
    results = rate_numeric_batch(state, ModelI(omega_corr=1e3), np.linspace(-1.5, 1.5, 13))
    assert len(calls) == 23
    assert [(float(res.value), float(res.error)) for res in results] == _SHARED_TAIL_BATCH


# --- a seeded random scan over states, models and delays


def _random_batch(rng):
    kind = rng.integers(4)
    width = 10.0 ** rng.uniform(-1.0, math.log10(5.0))
    if kind >= 2:
        state = (FockState if kind == 2 else CoherentState)(100.0, width)
    else:
        pump, crystal = PumpParams(100.0, width), CrystalParams(1.5, rng.uniform(-1.0, 1.0))
        theta = rng.uniform(0.0, math.pi)
        state = EntangledState(pump, crystal) if kind == 0 else SymmetrizedState(pump, crystal, theta)
    scale = math.inf if rng.random() < 0.2 else 10.0 ** rng.uniform(-1.0, 3.0)
    model = (ModelI if rng.random() < 0.5 else ModelII)(scale)
    return state, model, np.sort(rng.uniform(-20.0, 20.0, 5)).tolist()


def test_seeded_scan_values_lie_within_their_error():
    # random state (width 0.1 to 5, nu_e, theta), Model I or II at scale 0.1
    # to 1e3 or inf, and 5 taus up to |tau| = 20: every value the route
    # returns lies within its reported error of the closed form; a refusal
    # (exit 3) is no wrong value, so refusals are counted, not failed
    rng = np.random.default_rng(1)
    refused = 0
    for _ in range(150):
        state, model, taus = _random_batch(rng)
        try:
            results = rate_numeric_batch(state, model, taus)
        except (QuadratureNotConvergedError, DegenerateStateError):
            refused += 1
            continue
        for res, closed in zip(results, rate_closed_form(state, model, taus)):
            assert abs(res.value - closed) <= res.error, (state, model, taus)
    print(f"seeded scan: {refused} of 150 batches refused")
