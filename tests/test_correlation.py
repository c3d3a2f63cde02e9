import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpspeckle import (
    CrystalParams,
    EntangledState,
    FockState,
    FrequencyGrid,
    ModelI,
    ModelII,
    NotPositiveSemidefiniteError,
    PumpParams,
    correlation,
    correlation_sq_magnitude,
    covariance_factor,
    mc_default_grid,
)
from tpspeckle.correlation import EIG_FLOOR
from tpspeckle.cli import model_from_config, model_to_config

MODEL_I = ModelI(omega_corr=1.0)
MODEL_II = ModelII(omega_th=1.0)


def test_model_validation():
    # a scale lies in (0, inf]; inf is flat transmission, C = 1
    for bad in (0.0, -1.0, -math.inf, math.nan):
        with pytest.raises(ValueError, match=r"must lie in \(0, inf\]"):
            ModelI(omega_corr=bad)
        with pytest.raises(ValueError, match=r"must lie in \(0, inf\]"):
            ModelII(omega_th=bad)
    dw = np.array([0.0, 1.0, -7.5, 1e300])
    for model in (ModelI(math.inf), ModelII(math.inf)):
        assert np.array_equal(correlation(dw, model), np.ones(4, dtype=complex))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_model_scale_must_be_finite(bad):
    # a configured scale is finite: the cw limit is spelt "cw", not a scale
    for kind in ("I", "II"):
        with pytest.raises(ValueError, match="not finite"):
            model_from_config({"model": kind, "scale": bad})


def test_correlation_at_zero_is_exactly_one():
    assert correlation(0.0, MODEL_I) == 1.0 + 0.0j
    assert correlation(0.0, MODEL_II) == 1.0 + 0.0j


def test_model_i_at_scale():
    assert correlation(1.0, MODEL_I) == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_model_ii_branch_invariance():
    # z/sinh z is even in z: negating the square root leaves C unchanged.
    for dw in (0.3, 1.0, 7.5, 40.0):
        z = cmath.sqrt(-1j * dw / MODEL_II.omega_th)
        direct = correlation(dw, MODEL_II)
        other = (-z) / cmath.sinh(-z)
        assert abs(direct - other) <= 1e-14 * abs(direct)


def test_csq_model_i_at_scale():
    assert correlation_sq_magnitude(1.0, MODEL_I) == pytest.approx(math.exp(-2.0), rel=1e-14)


def test_csq_at_zero():
    assert correlation_sq_magnitude(0.0, MODEL_I) == 1.0
    assert correlation_sq_magnitude(0.0, MODEL_II) == 1.0


def test_csq_model_ii_high_precision_oracle():
    # |C(10 Omega_th)|^2 = 10/(sinh^2 sqrt5 + sin^2 sqrt5), evaluated in
    # split real/imaginary arithmetic with mpmath (frozen at 20 digits).
    assert correlation_sq_magnitude(10.0, MODEL_II) == pytest.approx(
        0.45438625343569136, rel=1e-10
    )
    # C and |C|^2 of both models against 40-digit mpmath, from the subnormal
    # detunings to where |C|^2 leaves the double range, both signs
    v = np.concatenate([[5e-324, 1e-310, 1e-300, 1e-20], np.geomspace(1e-16, 6.3e5, 600)])
    oracles = {
        "I": lambda x: mpmath.exp(-abs(x)),
        "II": lambda x: mpmath.sqrt(-1j * x) / mpmath.sinh(mpmath.sqrt(-1j * x)),
    }
    for kind, model in (("I", MODEL_I), ("II", MODEL_II)):
        with mpmath.workdps(40):
            for dw in np.concatenate([v, -v]).tolist():
                ref = oracles[kind](mpmath.mpf(dw))
                ref_sq = abs(ref) ** 2
                if ref_sq <= 1e-290:
                    continue
                assert abs(mpmath.mpc(correlation(dw, model)) - ref) <= 1e-13 * abs(ref)
                assert abs(correlation_sq_magnitude(dw, model) - ref_sq) <= 1e-13 * ref_sq
        assert correlation(0.0, model) == 1.0 and correlation_sq_magnitude(0.0, model) == 1.0
        for dw in (math.inf, -math.inf):
            assert correlation(dw, model) == 0.0 and correlation_sq_magnitude(dw, model) == 0.0


def test_csq_matches_abs_correlation_squared():
    dws = np.linspace(-30.0, 30.0, 301)
    for model in (MODEL_I, MODEL_II):
        c = correlation(dws, model)
        assert np.max(np.abs(np.abs(c) ** 2 - correlation_sq_magnitude(dws, model))) < 1e-13


def test_csq_monotone_decay():
    dws = np.linspace(0.0, 40.0, 400)
    for model in (MODEL_I, MODEL_II):
        vals = correlation_sq_magnitude(dws, model)
        assert np.all(np.diff(vals) <= 1e-15)


@pytest.mark.parametrize("kind", [ModelI, ModelII])
def test_quadrature_axes_end_where_the_kernel_has_decayed(kind):
    # what the quadrature route relies on instead of an edge-mass check:
    # |C|^2 never rises with |d| (by at most 4 ulp, Model II's roundoff
    # under v = 4e-6, where |C|^2 = 1 - v^2/90 is 1 to within 2e-13), so
    # past an axis end it stays under its value there, and at the support
    # that value is e^-38 (Model I) or 2.2e-12 (Model II) at every scale
    from tpspeckle.rates import _model_d_support

    v = np.unique(np.concatenate([np.linspace(0.0, 2000.0, 200001), np.geomspace(1e-9, 1e6, 20001)]))
    for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6):
        model = kind(scale)
        vals = correlation_sq_magnitude(v * scale, model)
        assert np.all(np.diff(vals) <= 8.0 * np.finfo(float).eps * vals[:-1])
        assert np.array_equal(correlation_sq_magnitude(-v * scale, model), vals)
        assert correlation_sq_magnitude(_model_d_support(model), model) <= 1e-11


@given(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))
@settings(max_examples=1000, deadline=None)
def test_hermitian_symmetry(dw):
    for model in (MODEL_I, MODEL_II):
        a = correlation(dw, model)
        b = correlation(-dw, model)
        assert abs(a - b.conjugate()) <= 1e-13


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
@settings(max_examples=500, deadline=None)
def test_magnitude_bounded(dw):
    for model in (MODEL_I, MODEL_II):
        assert abs(correlation(dw, model)) <= 1.0 + 1e-13


def test_large_argument_stable():
    # sinh z would overflow near |z| ~ 700: the real parts carry e^-a instead,
    # and the clip at a = 800 keeps them finite up to infinite detuning
    val = correlation(1e7, MODEL_II)
    assert np.isfinite(val.real) and np.isfinite(val.imag)
    assert abs(val) < 1e-300 or abs(val) <= 1.0


# --- frequency grid

def test_grid_axis_and_weights():
    grid = FrequencyGrid(0.0, 5.0, 11)
    assert grid.spacing == pytest.approx(1.0)
    assert np.allclose(grid.axis(), np.arange(-5.0, 6.0))
    w = grid.trapezoid_weights()
    assert w[0] == w[-1] == 0.5
    assert np.sum(w) == pytest.approx(10.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        FrequencyGrid(0.0, -1.0, 16)
    for n in (0, 1, 7):
        with pytest.raises(ValueError, match="n >= 8"):
            FrequencyGrid(0.0, 1.0, n)
    assert FrequencyGrid(0.0, 1.0, 8).axis().size == 8


# --- covariance factorization

def test_covariance_wide_spacing_is_diagonal():
    # spacing 100 >> omega_corr: off-diagonals e^{-100} are negligible
    grid = FrequencyGrid(0.0, 400.0, 9)
    fac = covariance_factor(grid, MODEL_I, t_bar=0.01)
    expect = math.sqrt(0.01) * np.eye(9)
    assert np.max(np.abs(fac.lower_factor - expect)) < 1e-6


@pytest.mark.parametrize("model", [MODEL_I, MODEL_II])
def test_covariance_reconstruction(model):
    # scipy.linalg is the oracle of the numpy.linalg factorization, on a
    # plain grid and on the Monte Carlo default grids
    import scipy.linalg

    t_bar = 0.02
    states = (
        EntangledState(PumpParams(100.0, 1.0), CrystalParams(nu_o=1.5, nu_e=0.5)),
        FockState(100.0, 2.0),
    )
    for grid in [FrequencyGrid(0.0, 16.0, 64)] + [mc_default_grid(state, model) for state in states]:
        fac = covariance_factor(grid, model, t_bar)
        omega = grid.axis()
        sigma = t_bar * np.asarray(
            [[correlation(wm - wn, model) for wn in omega] for wm in omega]
        )
        recon = fac.lower_factor @ fac.lower_factor.conj().T
        assert np.max(np.abs(recon - sigma)) <= 1e-8 * t_bar + fac.jitter_used + 1e-15
        jitter = max(0.0, EIG_FLOOR * t_bar - scipy.linalg.eigvalsh(sigma).min())
        assert abs(fac.jitter_used - jitter) <= 1e-15 * grid.n * t_bar
        if isinstance(model, ModelI):
            # no jitter and well conditioned; Model II's jittered factors
            # have near-zero pivots, so only the reconstruction binds them
            assert fac.jitter_used == 0.0
            oracle = scipy.linalg.cholesky(sigma, lower=True)
            assert np.max(np.abs(fac.lower_factor - oracle)) <= 1e-12 * math.sqrt(t_bar)


def test_covariance_jitter_within_budget_model_ii():
    # Model II on a dense grid is PSD only to roundoff; jitter stays tiny.
    grid = FrequencyGrid(0.0, 16.0, 128)
    fac = covariance_factor(grid, MODEL_II, t_bar=0.01)
    assert 0.0 <= fac.jitter_used <= 1e-6 * 0.01


def test_covariance_rejects_bad_t_bar():
    grid = FrequencyGrid(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        covariance_factor(grid, MODEL_I, t_bar=0.0)
    with pytest.raises(ValueError):
        covariance_factor(grid, MODEL_I, t_bar=1.5)


def test_covariance_rejects_non_psd(monkeypatch):
    # Both shipped kernels are PSD up to roundoff, so the budget is shrunk
    # to zero to show the rejection path (Model II needs nonzero jitter).
    import sys

    corr_module = sys.modules["tpspeckle.correlation"]
    monkeypatch.setattr(corr_module, "JITTER_BUDGET", 0.0)
    grid = FrequencyGrid(0.0, 16.0, 128)
    with pytest.raises(NotPositiveSemidefiniteError):
        covariance_factor(grid, MODEL_II, t_bar=0.01)


# --- wire format

def test_model_config_roundtrip():
    for model in (ModelI(2.5), ModelII(0.3)):
        assert model_from_config(model_to_config(model)) == model
    assert model_to_config(ModelI(2.5)) == {"model": "I", "scale": 2.5}
    # infinite scale, the cw limit, keeps the CSV headers' "cw"
    assert model_to_config(ModelI(math.inf)) == model_to_config(ModelII(math.inf)) == "cw"
    with pytest.raises(ValueError):
        model_from_config({"model": "X", "scale": 1.0})
