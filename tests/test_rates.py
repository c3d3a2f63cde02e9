import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad

from tpspeckle import (
    CoherentState,
    DimensionlessArgs,
    FockState,
    ModelI,
    ModelII,
    NonFiniteValueError,
    TailNotConvergedError,
    rate_closed_form,
    rate_coherent,
    rate_entangled,
    rate_entangled_cw_limit,
    rate_fock,
    rate_numeric,
    rate_theta,
    visibility,
)

INF = math.inf
NAN = math.nan


# --- entangled state, Model I

def test_entangled_monochromatic_w1():
    # 1 + (2/pi)(atan(1/2) - ln(5/4)), mpmath 20 digits
    assert rate_entangled(0.0, 0.0, 1.0) == pytest.approx(1.153109638457921, abs=1e-10)


def test_entangled_weak_disorder_doubles():
    assert rate_entangled(0.0, 0.0, INF) == 2.0
    assert rate_entangled(0.0, 1e-9, 1e7) == pytest.approx(2.0, abs=1e-3)


def test_entangled_large_delay_uncorrelated():
    assert rate_entangled(50.0, 2.0, 1.0) == pytest.approx(1.0, abs=1e-3)
    assert rate_entangled_cw_limit(1.0, 2.0) == 1.0
    assert rate_entangled_cw_limit(5.0, 0.0) == 1.0


def test_entangled_cw_limits():
    assert rate_entangled_cw_limit(0.0, 0.0) == 2.0
    assert rate_entangled_cw_limit(0.5, 0.0) == pytest.approx(1.5, rel=1e-14)
    s = 3.0
    expect = 1.0 + math.sqrt(math.pi) / s * math.erf(0.5 * s * 0.5)
    assert rate_entangled_cw_limit(0.5, s) == pytest.approx(expect, rel=1e-13)


def test_entangled_matches_raw_integral():
    # independent evaluation straight from the printed x-integral form
    t, s, w = 0.6, 1.5, 0.8

    def integrand(x):
        f = 2 * w / (4 + w**2 * (x + t) ** 2)
        return f * math.erf(0.5 * s * (1 - abs(x))) / (s * math.sqrt(math.pi))

    expect = 1.0 + quad(integrand, -1, 1, points=[0.0, -t], epsabs=1e-13, limit=200)[0]
    assert rate_entangled(t, s, w) == pytest.approx(expect, abs=1e-9)


# --- Fock state

def test_fock_weak_disorder():
    assert rate_fock(0.0, INF) == 2.0


def test_fock_tail():
    assert rate_fock(40.0, 1.0) == pytest.approx(1.0, abs=1e-3)
    assert rate_fock(INF, 1.0) == 1.0


def test_fock_value_frozen():
    # mpmath: 1 + Re[e^{z^2} erfc(z)], z = sqrt2 + i/sqrt2
    assert rate_fock(1.0, 1.0) == pytest.approx(1.2972559924545785, rel=1e-12)


def test_fock_matches_naive_formula_moderate_t():
    # the textbook grouping is fine for small |t|; both must agree there
    for t, w in ((0.3, 0.7), (1.2, 2.0), (2.5, 0.4)):
        pre = math.exp(-0.5 * (t**2 - (2 / w) ** 2))
        inner = math.cos(2 * t / w) - (
            np.exp(-2j * t / w) * special.erf((2 / w - 1j * t) / math.sqrt(2))
        ).real
        assert rate_fock(t, w) == pytest.approx(1 + pre * inner, abs=1e-10)


def test_fock_cancellation_safe_far_tail():
    # The naive e^{-t^2/2} * Erf grouping loses every digit out here; the
    # erfcx form matches the mpmath values (30 digits, frozen) and shows
    # the algebraic 1/t^2 tail of the finite-w rate.
    expect = {8.0: 1.024485342153353, 12.0: 1.0109998021003082, 20.0: 1.0039792221474675}
    for t, v in expect.items():
        assert rate_fock(t, 1.0) == pytest.approx(v, rel=1e-12)


# --- coherent state

def test_coherent_weak_disorder_peak():
    assert rate_coherent(0.0, INF) == 4.0


def test_coherent_weak_disorder_tail():
    assert rate_coherent(INF, INF) == 3.0
    assert rate_coherent(50.0, 1e8) == pytest.approx(3.0, abs=1e-6)


def test_coherent_no_fluctuations():
    assert rate_coherent(1.3, 0.0) == 2.0
    assert rate_coherent(0.0, 1e-12) == pytest.approx(2.0, abs=1e-9)


def test_coherent_value_frozen():
    assert rate_coherent(1.0, 1.0) == pytest.approx(2.6334599949009197, rel=1e-12)


# --- symmetrized states

def test_theta_pi_over_2_equals_entangled():
    worst = 0.0
    for t in (0.0, 0.4, 0.9, 1.5, 2.5):
        for s in (0.3, 1.0, 2.0, 4.0, 8.0):
            for w in (0.3, 1.0, 3.0):
                a = rate_theta(t, s, w, math.pi / 2)
                b = rate_entangled(t, s, w)
                worst = max(worst, abs(a - b))
    assert worst < 1e-8


def test_theta_pi_complete_suppression():
    # R(0) = 0 for every s at weak disorder, to the last bit: the kernel
    # I - J = O(s^2) must not come from a difference of two numbers near 1
    s = np.linspace(0.0, 8.0, 161)
    assert np.abs(rate_theta(0.0, s, INF, math.pi)).max() <= 1e-15


# theta = pi, t = 0, Model I: 1 + 2 Int_0^1 (I - J)(s, x) w 2 / (4 + w^2 x^2) dx
# over 1 - sqrt(pi) Erf(s/2) / s, by mpmath tanh-sinh quadrature at 50
# digits (split at x = 1/4, 1/2), made without tpspeckle.  At these s,
# I - J is 1e-2 or less of I, so a direct difference of the two cancels.
THETA_PI_ORACLE = {
    1.0: {0.029: 0.99422678067205854912105972621182, 0.031: 0.99422678002109891721321596054355,
          0.05: 0.99422677167941320248435800938282, 0.1: 0.994226731210342932975428849588,
          0.35: 0.99422616041077979205658291895546},
    0.3: {0.029: 0.99982333341312712345720818521007, 0.031: 0.99982333341112566593469965157015,
          0.05: 0.99982333338565927189421230809173, 0.1: 0.99982333326692438128199964879266,
          0.35: 0.99982333255246433432252273132876},
}


@pytest.mark.parametrize("w", sorted(THETA_PI_ORACLE))
def test_theta_pi_small_s_mpmath_oracle(w):
    for s, v in THETA_PI_ORACLE[w].items():
        assert rate_theta(0.0, s, w, math.pi) == pytest.approx(v, abs=1e-12)


def test_theta_zero_weak_disorder_is_two_for_any_s():
    for s in (0.0, 0.5, 2.0, 8.0):
        assert rate_theta(0.0, s, INF, 0.0) == pytest.approx(2.0, abs=1e-12)


def test_theta_pi_limit_matches_analytic_kernel():
    # independent oracle: the s->0 limit kernel derived by expanding
    # I - J and the norm to O(s^2):
    #   R = 1 + (1/pi) Int (1-|x|)(3x^2 - (1-|x|)^2) f(t,w,x) dx
    def analytic(t, w):
        def kern(x):
            u = 1 - abs(x)
            return u * (3 * x * x - u * u) / math.pi * 2 * w / (4 + w**2 * (x - t) ** 2)

        pts = sorted({0.0, min(max(t, -1.0), 1.0)})
        return 1.0 + quad(kern, -1, 1, points=pts, epsabs=1e-13, limit=200)[0]

    for t, w in ((0.0, 1.0), (0.5, 0.3), (1.5, 3.0), (0.0, 0.3)):
        assert rate_theta(t, 0.0, w, math.pi) == pytest.approx(analytic(t, w), abs=1e-9)


def test_theta_pi_limit_frozen_value():
    # mpmath quadrature of the limit kernel at (t, w) = (0.5, 0.3)
    assert rate_theta(0.5, 0.0, 0.3, math.pi) == pytest.approx(
        0.9998290987168762, abs=1e-10
    )


def _theta_cw_mpmath(t, s, cpl):
    # 1 + u [m(s u) + c exp(-s^2 t^2/4)] / [1 + c m(s)] at 50 digits,
    # u = 1 - |t|, m(y) = sqrt(pi) erf(y/2)/y, c + 1 the double cpl
    with mpmath.workdps(50):
        t, s, c = mpmath.mpf(t), mpmath.mpf(s), mpmath.mpf(cpl) - 1

        def m(y):
            return mpmath.mpf(1) if y == 0 else mpmath.sqrt(mpmath.pi) * mpmath.erf(y / 2) / y

        u = 1 - abs(t)
        return float(1 + u * (m(s * u) + c * mpmath.exp(-s * s * t * t / 4)) / (1 + c * m(s)))


@pytest.mark.parametrize("theta", [math.pi + 1e-6, math.pi - 1e-6, math.pi - 2e-7, 3.141593])
def test_theta_near_pi_is_the_exact_ratio_at_small_s(theta):
    # 1 + cos(theta) from 2e-14 to 5e-13 against s^2/12: the rate is the ratio
    # of two O(s^2) quantities at every s, with no limit taken
    cpl = 1.0 + math.cos(theta)
    for s in (0.0, 1e-7, 1e-6, 3e-6, 1e-5, 3e-5):
        for t in (0.0, 0.3, -0.7):
            assert abs(rate_theta(t, s, INF, theta) - _theta_cw_mpmath(t, s, cpl)) <= 2e-15


def test_theta_pi_below_the_unit_floor_is_the_value_there():
    # figure 7's abscissa; the s -> 0 limit at w = inf is 1 + u (3t^2 - u^2)
    t = np.linspace(-3.0, 3.0, 241)
    at_floor = rate_theta(t, 1e-8, INF, math.pi)
    for s in (0.0, 1e-12, 1e-9):
        assert np.array_equal(rate_theta(t, s, INF, math.pi), at_floor)
    with mpmath.workdps(50):
        for ti, r in zip(t.tolist(), at_floor):
            ti = mpmath.mpf(ti)
            u = max(1 - abs(ti), 0)
            assert abs(r - (1 + u * (3 * ti * ti - u * u))) <= 3e-16


def test_theta_small_s_continuity():
    # approaching s -> 0 continuously matches the limit path
    lim = rate_theta(0.3, 0.0, 1.0, math.pi)
    near = rate_theta(0.3, 1e-3, 1.0, math.pi)
    assert near == pytest.approx(lim, abs=1e-6)


# --- Model II

def test_model_ii_weak_disorder_reproduces_cw():
    for t, s in ((0.0, 0.0), (0.5, 2.0), (0.9, 0.5)):
        got = rate_entangled(t, s, 1e4, kind="II")
        assert got == pytest.approx(rate_entangled_cw_limit(t, s), abs=1e-3)


def test_model_ii_fock_weak_disorder():
    for t in (0.0, 1.0, 2.5):
        assert rate_fock(t, 1e4, kind="II") == pytest.approx(
            1.0 + math.exp(-0.5 * t * t), abs=1e-4
        )


def test_model_ii_strong_disorder_suppresses():
    assert rate_entangled(0.0, 0.0, 0.3, kind="II") < rate_entangled(0.0, 0.0, 3.0, kind="II")


def test_model_ii_coherent_bounds():
    for t in (0.0, 1.0, 4.0):
        for w in (0.3, 1.0, 10.0):
            v = rate_coherent(t, w, kind="II")
            assert 2.0 - 1e-9 <= v <= 4.0 + 1e-9


# Model II against mpmath.  Values frozen from mpmath at 40 digits (printed
# to 32), made without tpspeckle:
# * entangled and symmetrized: tanh-sinh quadrature of kernel(x) w G(w (x - t))
#   over [-1, 1], split at -1, 0, t, 1 and at t +- 10^-j (j = 0..7), with
#   G(xi) = sum_{k <= 60} (-1)^(k+1) 2 pi^4 k^3 / sinh(pi k) exp(-pi^2 k^2 |xi|).
#   At s = 0 and w in {0.3, 1} the same rates taken straight from
#   psi = |C_II|^2, as (1/pi) Int_0^inf psi(u/w) cos(u t) 2 (1 - cos u) / u^2 du,
#   agree to 1e-24;
# * theta = pi, s = 0: the s -> 0 limit kernel (1-|x|)(3x^2 - (1-|x|)^2) / pi;
# * Fock and coherent: Int_R N(y) psi(|y|/w) cos(t y) dy straight from psi,
#   N the unit normal density.
MODEL_II_ORACLE = {
    0.3: {
        "entangled": [((0.4, 2.0), 1.4467098962855097627071651113805),
                      ((0.0, 0.0), 1.659233595187566415343870343629)],
        "theta_0": ((0.5, 4.0), 1.4019575506292811045418131514111),
        "theta_pi_s0": (0.0, 0.7372578547082153609762028877497),
        "fock": [(1.0, 1.5976332583561706402358970184279), (50.0, 1.0)],
        "coherent": [(1.0, 3.5024697772482472745876927839067), (50.0, 2.9048365188920766343517957654788)],
    },
    1.0: {
        "entangled": [((0.4, 2.0), 1.5256066972024591630336075769979),
                      ((0.0, 0.0), 1.8920678354691379724737341946713)],
        "theta_0": ((0.5, 4.0), 1.4031918602438562104101811641023),
        "theta_pi_s0": (0.0, 0.31027474924607868300766352184267),
        "fock": [(1.0, 1.6064021360899181107599932218118), (50.0, 1.0)],
        "coherent": [(1.0, 3.5956184450840696965541467038376), (50.0, 2.9892163089941515857941534820258)],
    },
    5e3: {
        "entangled": [((0.4, 2.0), 1.5351535264359846618401711641317),
                      ((0.0, 0.0), 1.9999784124266056060293080840938)],
        "theta_0": ((0.5, 4.0), 1.386770332084556018649031619004),
        "theta_pi_s0": (0.0, 0.000064762720074673153483288847822643),
        "fock": [(1.0, 1.6065306597126334233812979885967), (50.0, 1.0)],
        "coherent": [(1.0, 3.6065306592681889794871180932867), (50.0, 2.9999999995555555561058201046899)],
    },
}


@pytest.mark.parametrize("w", sorted(MODEL_II_ORACLE))
def test_model_ii_mpmath_oracle(w):
    ref = MODEL_II_ORACLE[w]
    for (t, s), v in ref["entangled"]:
        assert rate_entangled(t, s, w, kind="II") == pytest.approx(v, abs=1e-10)
        assert rate_entangled(-t, s, w, kind="II") == pytest.approx(v, abs=1e-10)
    (t, s), v = ref["theta_0"]
    assert rate_theta(t, s, w, 0.0, kind="II") == pytest.approx(v, abs=1e-10)
    t, v = ref["theta_pi_s0"]
    assert rate_theta(t, 0.0, w, math.pi, kind="II") == pytest.approx(v, abs=1e-10)
    for t, v in ref["fock"]:
        got = rate_fock(t, w, kind="II")
        assert math.isfinite(got) and 1.0 <= got <= 2.0
        assert got == pytest.approx(v, abs=1e-10)
    for t, v in ref["coherent"]:
        got = rate_coherent(-t, w, kind="II")
        assert math.isfinite(got) and 2.0 <= got <= 4.0
        assert got == pytest.approx(v, abs=1e-10)


# --- parity and bounds sweeps

def test_parity_in_t():
    rng = np.random.default_rng(11)
    for _ in range(40):
        t = rng.uniform(0.05, 3.0)
        s = rng.uniform(0.0, 6.0)
        w = rng.uniform(0.1, 5.0)
        th = rng.uniform(0.0, 2 * math.pi)
        assert rate_entangled(t, s, w) == pytest.approx(
            rate_entangled(-t, s, w), abs=1e-9
        )
        assert rate_fock(t, w) == pytest.approx(rate_fock(-t, w), abs=1e-12)
        assert rate_coherent(t, w) == pytest.approx(rate_coherent(-t, w), abs=1e-12)
        assert rate_theta(t, s, w, th) == pytest.approx(
            rate_theta(-t, s, w, th), abs=1e-9
        )


def test_bounds_randomized_sweep():
    rng = np.random.default_rng(2024)
    n = 250
    ts = rng.uniform(-4, 4, n)
    ss = rng.uniform(0, 8, n)
    ws = np.exp(rng.uniform(math.log(0.05), math.log(50.0), n))
    thetas = rng.uniform(0, 2 * math.pi, n)
    for i in range(n):
        r_ent = rate_entangled(ts[i], ss[i], ws[i])
        assert 1.0 - 1e-9 <= r_ent <= 2.0 + 1e-9
        r_fock = rate_fock(ts[i], ws[i])
        assert 1.0 - 1e-9 <= r_fock <= 2.0 + 1e-9
        r_coh = rate_coherent(ts[i], ws[i])
        assert 2.0 - 1e-9 <= r_coh <= 4.0 + 1e-9
        r_th = rate_theta(ts[i], ss[i], ws[i], thetas[i])
        assert 0.0 - 1e-9 <= r_th <= 2.0 + 1e-9


def test_peak_monotone_in_disorder():
    # R(0) grows with w (less disorder) for the two-photon states
    ws = [0.2, 0.5, 1.0, 3.0, 10.0]
    for fn in (
        lambda w: rate_entangled(0.0, 0.0, w),
        lambda w: rate_fock(0.0, w),
        lambda w: rate_theta(0.0, 2.0, w, 0.0),
    ):
        vals = [fn(w) for w in ws]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


@given(
    t=st.floats(min_value=-3, max_value=3),
    w=st.floats(min_value=0.05, max_value=100.0),
)
@settings(max_examples=150, deadline=None)
def test_fock_bounds_property(t, w):
    v = rate_fock(t, w)
    assert 1.0 - 1e-9 <= v <= 2.0 + 1e-9


# --- dimensionless mapping

_REDUCED_FORMS = {
    "entangled": lambda w, kind: rate_entangled(0.5, 2.0, w, kind),
    "fock": lambda w, kind: rate_fock(0.5, w, kind),
    "coherent": lambda w, kind: rate_coherent(0.5, w, kind),
    "theta": lambda w, kind: rate_theta(0.5, 2.0, w, 1.0, kind),
}


@pytest.mark.parametrize("name", list(_REDUCED_FORMS))
def test_reduced_forms_check_w_and_kind(name):
    rate = _REDUCED_FORMS[name]
    for w in (-INF, math.nan, -1.0, -1e-300):
        with pytest.raises(ValueError, match=r"w must lie in \[0, inf\]"):
            rate(w, "I")
    assert rate(0.0, "I") == (2.0 if name == "coherent" else 1.0)
    for kind in ("i", "ii", "cw", None):
        for w in (1.0, INF):
            with pytest.raises(ValueError, match="kind must be"):
                rate(w, kind)
    assert rate(INF, "II") == pytest.approx(rate(INF, "I"), abs=1e-12)


@pytest.mark.parametrize("kind", ["I", "II"])
@pytest.mark.parametrize("name", ["entangled", "theta", "fock", "coherent"])
def test_zero_width_is_full_suppression(name, kind):
    # w = 0, where disorder decorrelates every pair of frequencies, is a
    # value of every form: R = 1 (coherent: 2), as at w = 1e-300
    t = np.linspace(-5.0, 5.0, 41)
    rate = {
        "entangled": lambda w: rate_entangled(t, 2.0, w, kind),
        "theta": lambda w: rate_theta(t, 2.0, w, 1.0, kind),
        "fock": lambda w: rate_fock(t, w, kind),
        "coherent": lambda w: rate_coherent(t, w, kind),
    }[name]
    expect = np.full(t.size, 2.0 if name == "coherent" else 1.0)
    assert np.array_equal(rate(0.0), expect)
    assert np.array_equal(rate(1e-300), expect)


@pytest.mark.parametrize("name", ["entangled", "theta", "fock", "coherent"])
def test_flat_limit_does_not_depend_on_kind(name):
    # w = inf is one evaluation for both correlation models
    t = np.linspace(-5.0, 5.0, 241)
    rate = {
        "entangled": lambda kind: rate_entangled(t, 2.0, INF, kind),
        "theta": lambda kind: rate_theta(t, 2.0, INF, 1.0, kind),
        "fock": lambda kind: rate_fock(t, INF, kind),
        "coherent": lambda kind: rate_coherent(t, INF, kind),
    }[name]
    assert np.array_equal(rate("I"), rate("II"))


def test_model_i_huge_width_does_not_overflow():
    # w |x - t| past 1.3e154 would square to inf in the Lorentzian (a
    # RuntimeWarning, an error in this suite); the rate is the flat one
    assert rate_entangled(0.0, 0.0, 1e200, "I") == pytest.approx(2.0, abs=1e-15)
    t = np.linspace(-2.0, 2.0, 41)
    for rate in (lambda w: rate_entangled(t, 2.0, w, "I"), lambda w: rate_theta(t, 2.0, w, 1.0, "I")):
        assert np.abs(rate(1e200) - rate(INF)).max() <= 1e-15


# every reduced form at (t, s); those with a w at finite w and at w = inf
_T_S_FORMS = {
    "entangled_cw_limit": lambda t, s: rate_entangled_cw_limit(t, s),
    "entangled": lambda t, s: rate_entangled(t, s, 1.0),
    "entangled_flat": lambda t, s: rate_entangled(t, s, INF, "II"),
    "theta": lambda t, s: rate_theta(t, s, 1.0, 0.5),
    "theta_flat": lambda t, s: rate_theta(t, s, INF, 0.0),
    "fock": lambda t, s: rate_fock(t, 1.0),
    "fock_flat": lambda t, s: rate_fock(t, INF),
    "coherent": lambda t, s: rate_coherent(t, 1.0, "II"),
    "coherent_flat": lambda t, s: rate_coherent(t, INF),
}


@pytest.mark.parametrize("name", list(_T_S_FORMS))
def test_reduced_forms_check_t_and_s(name):
    rate = _T_S_FORMS[name]
    for t in (NAN, np.array([0.0, NAN])):
        with pytest.raises(ValueError, match="t must not be NaN"):
            rate(t, 1.0)
    if name.startswith(("fock", "coherent")):
        return
    # one rule for s at every w, the flat limit included
    for s in (INF, NAN, -1.0, np.array([1.0, INF])):
        with pytest.raises(ValueError, match="s must be finite and >= 0"):
            rate(0.0, s)


def test_rate_theta_checks_theta():
    # theta broadcasts like t and s, so one bad entry of a column is refused
    for w in (1.0, INF):
        for theta in (NAN, INF, np.array([[0.0], [NAN]])):
            with pytest.raises(ValueError, match="theta must be finite"):
                rate_theta(0.0, 1.0, w, theta)


def test_closed_form_rejects_nan_delay(entangled_s2, antisymmetric_s2):
    for state in (entangled_s2, antisymmetric_s2, FockState(100.0, 1.0), CoherentState(100.0, 1.0)):
        for model in (ModelI(omega_corr=1.0), ModelII(omega_th=1.0), ModelI(omega_corr=INF)):
            with pytest.raises(ValueError, match="t must not be NaN"):
                rate_closed_form(state, model, [0.0, NAN])


def test_dimensionless_args(crystal, pump_s2, entangled_s2):
    args = DimensionlessArgs.from_state(entangled_s2, ModelI(omega_corr=2.0), tau=0.7)
    assert args.t == pytest.approx(0.7 / crystal.eta_minus)
    assert args.s == pytest.approx(abs(pump_s2.sigma * crystal.eta_plus))
    assert args.w == pytest.approx(abs(2.0 * crystal.eta_minus))
    args = DimensionlessArgs.from_state(FockState(100.0, 2.0), ModelII(omega_th=3.0), tau=0.5)
    assert args.t == pytest.approx(1.0)
    assert args.w == pytest.approx(1.5)
    # the cw limit is a model at infinite scale, either kind
    for model in (ModelI(omega_corr=INF), ModelII(omega_th=INF)):
        assert math.isinf(DimensionlessArgs.from_state(FockState(100.0, 2.0), model, tau=0.5).w)
        assert math.isinf(DimensionlessArgs.from_state(entangled_s2, model, tau=0.5).w)


@pytest.mark.parametrize("model", ["II", "cw", "cw-limit", None])
def test_model_must_be_a_model_or_cw_limit(entangled_s2, model):
    # only ModelI and ModelII name a correlation model, the cw limit being
    # either at infinite scale: a string or None must not pass silently
    with pytest.raises(TypeError):
        DimensionlessArgs.from_state(entangled_s2, model, 0.0)
    with pytest.raises(TypeError):
        rate_closed_form(entangled_s2, model, 0.0)
    for state in (entangled_s2, FockState(100.0, 1.0), CoherentState(100.0, 1.0)):
        with pytest.raises(TypeError):
            rate_numeric(state, model, [0.0, 0.5])


# --- visibility

def _ideal_curve(r0, rinf):
    taus = np.concatenate([[0.0], np.linspace(0.5, 20.0, 80)])
    rs = np.full_like(taus, rinf)
    rs[0] = r0
    return taus, rs


def test_visibility_two_photon_max():
    assert visibility(*_ideal_curve(2.0, 1.0)) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_visibility_coherent_max():
    assert visibility(*_ideal_curve(4.0, 3.0)) == pytest.approx(1.0 / 7.0, rel=1e-12)


def test_visibility_antisymmetric_max():
    assert visibility(*_ideal_curve(0.0, 1.0)) == pytest.approx(1.0, rel=1e-12)


def test_visibility_requires_converged_tail():
    taus = np.linspace(0.0, 3.0, 40)
    rs = 1.0 + np.exp(-0.5 * taus**2)  # still decaying at tau = 3
    with pytest.raises(TailNotConvergedError):
        visibility(taus, rs)


def test_visibility_of_computed_fock_curve():
    # tau_max = 60 puts the whole last decade [6, 60] on the converged tail
    taus = np.concatenate([[0.0], np.geomspace(0.1, 60.0, 140)])
    rs = np.array([rate_fock(t, INF) for t in taus])
    assert visibility(taus, rs) == pytest.approx(1.0 / 3.0, abs=1e-3)


def test_rate_curve_validation():
    for taus, rs in (
        ([0.0, 0.0], [1.0, 1.0]),  # a repeated tau
        ([0.0, 1.0], [1.0, -0.1]),  # a negative rate
        ([0.0, 1.0, 2.0], [1.0, 1.0]),  # unequal shapes
        ([1.0, 2.0], [1.0, 1.0]),  # no tau = 0
    ):
        with pytest.raises(ValueError):
            visibility(np.array(taus), np.array(rs))


def test_rate_curve_rejects_non_finite():
    for taus, rs in (([0.0, 1.0], [1.0, math.nan]), ([0.0, 1.0], [1.0, math.inf]), ([0.0, math.nan], [1.0, 1.0])):
        with pytest.raises(NonFiniteValueError):
            visibility(np.array(taus), np.array(rs))


def test_closed_form_curve_over_a_tau_grid(entangled_s2):
    taus = np.linspace(-2, 2, 21)
    rs = rate_closed_form(entangled_s2, ModelI(omega_corr=1.0), taus)
    assert rs.shape == taus.shape
    assert rs[10] == pytest.approx(rate_entangled(0.0, 2.0, 1.0), rel=1e-12)
