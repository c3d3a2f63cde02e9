import math
import sys

import numpy as np
import pytest

from tpspeckle import (
    CoherentState,
    CrystalParams,
    EnsembleConfig,
    EntangledState,
    FockState,
    FrequencyGrid,
    ModelI,
    ModelII,
    PumpParams,
    SymmetrizedState,
    beam_splitter_check,
    correlation,
    mc_correlator,
    mc_correlator_batch,
    mc_default_grid,
    mc_mean_photocount,
    rate_correlation_relation,
    rate_entangled,
    rate_fock,
    rate_theta,
    sample_transmission,
)

M_I = ModelI(omega_corr=1.0)
_ENT_REF = EntangledState(PumpParams(100.0, 1.0), CrystalParams(1.5, 0.5))


def _fock_cfg(n_real=4000, seed=101, w=1.0):
    model = ModelI(omega_corr=w)
    return EnsembleConfig(
        grid=mc_default_grid(FockState(100.0, 1.0), model),
        model=model,
        t_bar=0.01,
        n_realizations=n_real,
        seed=seed,
    )


def _ent_cfg(n_real=4000, seed=202, w=1.0):
    model = ModelI(omega_corr=w)
    return EnsembleConfig(
        grid=mc_default_grid(_ENT_REF, model),
        model=model,
        t_bar=0.01,
        n_realizations=n_real,
        seed=seed,
    )


# --- transmission sampling

def test_sample_transmission_shapes_and_determinism(_state=None):
    cfg = _fock_cfg()
    t_o, t_e = sample_transmission(cfg, mode_count=2, realization_index=7)
    assert t_o.shape == t_e.shape == (2, 128)
    t_o2, t_e2 = sample_transmission(cfg, mode_count=2, realization_index=7)
    assert np.array_equal(t_o, t_o2) and np.array_equal(t_e, t_e2)
    # different realizations and polarizations are distinct draws
    t_o3, _ = sample_transmission(cfg, mode_count=1, realization_index=8)
    assert not np.allclose(t_o[0], t_o3[0])
    assert not np.allclose(t_o[0], t_e[0])


def test_sample_transmission_moments():
    cfg = _fock_cfg()
    n_draws = 10_000
    n = cfg.grid.n
    acc_mean = np.zeros(n, dtype=complex)
    acc_abs2 = np.zeros(n)
    acc_pseudo = np.zeros(n, dtype=complex)
    for r in range(n_draws):
        t_o, _ = sample_transmission(cfg, 1, r)
        acc_mean += t_o[0]
        acc_abs2 += np.abs(t_o[0]) ** 2
        acc_pseudo += t_o[0] ** 2
    # SEs: Var(t) = t_bar, Var(|t|^2) = t_bar^2, Var(t^2) = 2 t_bar^2
    assert np.max(np.abs(acc_mean / n_draws)) < 4.0 * math.sqrt(cfg.t_bar / n_draws)
    assert np.max(np.abs(acc_abs2 / n_draws - cfg.t_bar)) < 4.0 * cfg.t_bar / math.sqrt(n_draws)
    assert np.max(np.abs(acc_pseudo / n_draws)) < 4.0 * math.sqrt(2.0) * cfg.t_bar / math.sqrt(n_draws)


def test_sampler_covariance_recovery():
    # empirical <t(w_m) t*(w_n)> matches t_bar C(w_m - w_n) within 4 SE
    grid = FrequencyGrid(0.0, 2.0, 8)
    cfg = EnsembleConfig(grid=grid, model=M_I, t_bar=0.02, n_realizations=10_000, seed=5)
    n = grid.n
    acc = np.zeros((n, n), dtype=complex)
    for r in range(cfg.n_realizations):
        t_o, _ = sample_transmission(cfg, 1, r)
        acc += np.outer(t_o[0], np.conj(t_o[0]))
    emp = acc / cfg.n_realizations
    omega = grid.axis()
    target = cfg.t_bar * np.asarray(
        [[correlation(wm - wn, M_I) for wn in omega] for wm in omega]
    )
    # SE of a product of two unit-variance complex Gaussians ~ t_bar/sqrt(N)
    se = cfg.t_bar / math.sqrt(cfg.n_realizations)
    assert np.max(np.abs(emp - target)) < 4.0 * se


# --- same-mode correlator vs closed forms

def test_mc_fock_matches_closed_form():
    est = mc_correlator(FockState(100.0, 1.0), _fock_cfg(10_000), tau=0.0)
    closed = rate_fock(0.0, 1.0)
    assert abs(est.mean - closed) < 3.0 * est.std_error
    assert est.std_error < 0.02 * closed


def test_mc_entangled_matches_closed_form(entangled_s2):
    est = mc_correlator(entangled_s2, _ent_cfg(10_000), tau=0.5)
    closed = rate_entangled(0.5, 2.0, 1.0)
    assert abs(est.mean - closed) < 3.0 * est.std_error


def test_mc_symmetrized_matches_closed_form(pump_s2, crystal):
    state = SymmetrizedState(pump_s2, crystal, theta=math.pi)
    est = mc_correlator(state, _ent_cfg(10_000, seed=303), tau=0.0)
    closed = rate_theta(0.0, 2.0, 1.0, math.pi)
    assert abs(est.mean - closed) < 3.0 * est.std_error


def test_mc_coherent_strong_correlation():
    # Omega >> Delta: R(0) -> 4
    cfg = EnsembleConfig(
        grid=FrequencyGrid(100.0, 8.0, 128),
        model=ModelI(omega_corr=2e4),
        t_bar=0.01,
        n_realizations=8000,
        seed=11,
    )
    est = mc_correlator(CoherentState(100.0, 1.0), cfg, tau=0.0)
    assert abs(est.mean - 4.0) < 3.0 * est.std_error


def test_mc_entangled_large_delay_uncorrelated(entangled_s2):
    # |tau| >> |eta_minus| with weak disorder: photons transmit independently.
    # tau stays below the grid's phase-aliasing bound pi/spacing ~ 8.3.
    est = mc_correlator(entangled_s2, _ent_cfg(6000, seed=42, w=50.0), tau=2.5)
    assert abs(est.mean - 1.0) < 3.0 * est.std_error


def test_mc_model_ii_supported(entangled_s2):
    cfg = EnsembleConfig(
        grid=FrequencyGrid(100.0, 24.0, 128),
        model=ModelII(omega_th=1.0),
        t_bar=0.01,
        n_realizations=3000,
        seed=77,
    )
    est = mc_correlator(entangled_s2, cfg, tau=0.0)
    assert 1.0 - 5 * est.std_error <= est.mean <= 2.0 + 5 * est.std_error


def test_mc_determinism_and_chunk_independence(monkeypatch):
    import sys

    state = FockState(100.0, 1.0)
    cfg = _fock_cfg(700, seed=5)
    ref = mc_correlator(state, cfg, tau=0.3)
    mc_module = sys.modules["tpspeckle.montecarlo"]
    monkeypatch.setattr(mc_module, "_CHUNK", 13)
    alt = mc_correlator(state, cfg, tau=0.3)
    assert ref == alt  # bit identical regardless of batching


def test_mc_single_realization_spread():
    # per-realization R fluctuates; the ensemble mean is stable
    est = mc_correlator(FockState(100.0, 1.0), _fock_cfg(2000), tau=0.0)
    assert est.std_error > 0.0


def test_mc_convergence_scaling():
    state = FockState(100.0, 1.0)
    se = {}
    for n in (2000, 8000):
        se[n] = mc_correlator(state, _fock_cfg(n, seed=31), tau=0.0).std_error
    ratio = se[2000] / se[8000]
    assert ratio == pytest.approx(2.0, rel=0.2)


# --- cross-mode

def test_mc_cross_mode_parameter_free(entangled_s2):
    est = mc_correlator_batch(entangled_s2, _ent_cfg(8000, seed=13), [0.4], cross_mode=True)[0]
    assert abs(est.mean - 2.0) < 3.0 * est.std_error
    est = mc_correlator_batch(FockState(100.0, 1.0), _fock_cfg(8000, seed=14), [0.0], cross_mode=True)[0]
    assert abs(est.mean - 2.0) < 3.0 * est.std_error
    est = mc_correlator_batch(CoherentState(100.0, 1.0), _fock_cfg(8000, seed=15), [0.0], cross_mode=True)[0]
    assert abs(est.mean - 4.0) < 3.0 * est.std_error


# --- mean photocount

def test_mc_mean_photocount_is_two():
    for state in (FockState(100.0, 1.0), CoherentState(100.0, 1.0)):
        est = mc_mean_photocount(_fock_cfg(8000, seed=21), state)
        assert abs(est.mean - 2.0) < 3.0 * est.std_error


def test_mc_mean_photocount_entangled(entangled_s2, antisymmetric_s2):
    for state in (entangled_s2, antisymmetric_s2):
        est = mc_mean_photocount(_ent_cfg(8000, seed=22), state)
        assert abs(est.mean - 2.0) < 3.0 * est.std_error


def test_mc_photocount_t_bar_invariance():
    state = FockState(100.0, 1.0)
    grid = FrequencyGrid(100.0, 8.0, 128)
    ref = mc_mean_photocount(
        EnsembleConfig(grid=grid, model=M_I, t_bar=0.02, n_realizations=500, seed=9), state
    )
    half = mc_mean_photocount(
        EnsembleConfig(grid=grid, model=M_I, t_bar=0.01, n_realizations=500, seed=9), state
    )
    assert ref.mean == pytest.approx(half.mean, rel=1e-12)


def test_mc_same_seed_shares_draws():
    # identical seeds: transmissions identical, estimates differ only via state spectra
    cfg = _fock_cfg(300, seed=99)
    a = mc_correlator(FockState(100.0, 1.0), cfg, tau=0.0)
    b = mc_correlator(FockState(100.0, 2.0), cfg, tau=0.0)
    assert a.mean != b.mean
    t1 = sample_transmission(cfg, 1, 5)
    t2 = sample_transmission(cfg, 1, 5)
    assert np.array_equal(t1[0], t2[0])


# --- correlator/rate relation and beam splitter

def test_rate_correlation_relation_same_mode():
    rel = rate_correlation_relation(0.5, 1.0, same_mode=True)
    assert rel.p2 == 0.25
    assert rel.c_ij == 1.5


def test_rate_correlation_relation_cross_mode():
    rel = rate_correlation_relation(0.5, 1.0, same_mode=False)
    assert rel.p2 == 0.5
    assert rel.c_ij == 0.5


def test_rate_correlation_relation_zero():
    assert rate_correlation_relation(0.0, 1.0, True).p2 == 0.0
    assert rate_correlation_relation(0.0, 1.0, False).p2 == 0.0


def test_beam_splitter_check_exact():
    rep = beam_splitter_check()
    assert rep.p2_same == 0.25
    assert rep.p2_cross == 0.5
    assert rep.normal_ordered_same == 0.5
    assert rep.normal_ordered_cross == 0.5
    assert rep.p1 == 0.5
    assert rep.consistent


def test_ensemble_config_validation():
    grid = FrequencyGrid(0.0, 1.0, 128)
    with pytest.raises(ValueError):
        EnsembleConfig(grid=grid, model=M_I, t_bar=0.0, n_realizations=10, seed=0)
    with pytest.raises(ValueError):
        EnsembleConfig(grid=grid, model=M_I, t_bar=0.01, n_realizations=1, seed=0)
    with pytest.raises(ValueError):
        EnsembleConfig(grid=FrequencyGrid(0.0, 1.0, 4), model=M_I, t_bar=0.01, n_realizations=10, seed=0)

# --- pinned draws and estimators

# Recorded with ``repr`` before the estimators shared one ensemble pass.
# 600 realizations leave a partial last chunk; 1e-12 relative allows BLAS
# summation order but catches any changed draw.
_PIN_CFG = EnsembleConfig(grid=FrequencyGrid(100.0, 8.0, 64), model=M_I, t_bar=0.01, n_realizations=600, seed=11)
_PIN_STATES = {
    "entangled": _ENT_REF,
    "symmetrized": SymmetrizedState(PumpParams(100.0, 1.0), CrystalParams(1.5, 0.5), 1.0),
    "fock": FockState(100.0, 1.0),
    "coherent": CoherentState(100.0, 1.0),
    "antisymmetric": SymmetrizedState(PumpParams(100.0, 0.3), CrystalParams(1.5, 0.5), math.pi),  # s = 0.6
}
_PINNED = {
    ("same", "entangled", 0.0): (1.1177134842941627, 0.03348211085087082),
    ("same", "entangled", 0.7): (1.0882564599482134, 0.031555074474651106),
    ("same", "symmetrized", 0.0): (1.1316377882470599, 0.03563981120720378),
    ("same", "symmetrized", 0.7): (1.0995703407488255, 0.03355994501262853),
    ("same", "fock", 0.0): (1.3394531201071858, 0.05573791892514249),
    ("same", "fock", 0.7): (1.314547882077192, 0.05362858787064121),
    ("same", "coherent", 0.0): (2.73004658613923, 0.15060797595410305),
    ("same", "coherent", 0.7): (2.7713360610062057, 0.16109710754222384),
    ("cross", "entangled", 0.7): (1.9656306956980825, 0.03837779411981038),
    ("cross", "coherent", 0.7): (3.9561512903438794, 0.12916074608551437),
    ("same", "antisymmetric", 0.0): (0.9416547767277562, 0.0232128927180717),
    ("same", "antisymmetric", 0.7): (0.9900958062132594, 0.023617373535391843),
    ("cross", "antisymmetric", 0.7): (1.9202087640197836, 0.030629617999004936),
    ("cross", "fock", 0.7): (1.9884008629686931, 0.05172292570698497),
    ("photocount", "entangled", None): (1.9886817746646563, 0.024670990873518112),
    ("photocount", "coherent", None): (1.9944641204188587, 0.03343730238985643),
}


@pytest.mark.parametrize("key", list(_PINNED), ids=lambda k: "-".join(map(str, k)))
def test_estimators_match_pinned_values(key):
    route, name, tau = key
    state = _PIN_STATES[name]
    if route == "same":
        est = mc_correlator(state, _PIN_CFG, tau)
    elif route == "cross":
        est = mc_correlator_batch(state, _PIN_CFG, [tau], cross_mode=True)[0]
    else:
        est = mc_mean_photocount(_PIN_CFG, state)
    mean, std_error = _PINNED[key]
    assert est.n == 600
    assert est.mean == pytest.approx(mean, rel=1e-12, abs=0)
    assert est.std_error == pytest.approx(std_error, rel=1e-12, abs=0)


def test_sample_transmission_matches_pinned_vector():
    t_o, t_e = sample_transmission(_PIN_CFG, 2, 517)
    assert t_o.shape == t_e.shape == (2, 64)
    expect_o = [-0.05343900073676127 - 0.08876506521640501j, 0.04857622547813379 - 0.08326311788233043j,
                0.06822132787768671 - 0.04554650952496212j]
    expect_e = [-0.057517267702972344 - 0.09084831305783675j, -0.007536690783605153 - 0.05856499475981298j,
                -0.05734637751276009 - 0.03538931850292702j]
    np.testing.assert_allclose(t_o[0, :3], expect_o, rtol=1e-12, atol=0)
    np.testing.assert_allclose(t_e[1, :3], expect_e, rtol=1e-12, atol=0)


@pytest.mark.parametrize("stream_id", [0, 1, 2, 3])
def test_reused_philox_matches_fresh_generators(stream_id):
    # reference: one fresh counter-based generator per realization, two
    # n-normal calls, the complex build and the complex product with L
    from numpy.random import Generator, Philox

    from tpspeckle.correlation import covariance_factor
    from tpspeckle.montecarlo import _CHUNK, _draw_block, _factor, _Workspace

    seed = 2024
    block = range(_CHUNK - 20, _CHUNK + 20)  # crosses a chunk edge

    def reference(L):
        n = L.shape[0]
        u = np.empty((n, len(block)), dtype=complex)
        for j, r in enumerate(block):
            g = Generator(Philox(key=seed, counter=[0, 0, stream_id, r]))
            u[:, j] = (g.standard_normal(n) + 1j * g.standard_normal(n)) / math.sqrt(2.0)
        return L @ u

    ws = _Workspace(16, 2, len(block))
    assert np.array_equal(_draw_block(np.eye(16), seed, stream_id, block, ws), reference(np.eye(16, dtype=complex)))
    # Model I's factor is real and takes the real products; Model II's is complex
    grid = FrequencyGrid(100.0, 10.0, 128)
    ws = _Workspace(grid.n, 2, len(block))
    for model, kind in ((ModelI(omega_corr=1.0), "f"), (ModelII(omega_th=0.5), "c")):
        L = covariance_factor(grid, model, 0.01).lower_factor
        assert L.dtype == complex
        draw_factor = _factor(grid, model, 0.01)
        assert draw_factor.dtype.kind == kind
        assert np.array_equal(_draw_block(draw_factor, seed, stream_id, block, ws), reference(L))


@pytest.mark.parametrize("name", ["entangled", "fock"])
def test_real_exchange_operator_matches_complex(name):
    from tpspeckle.montecarlo import _draws, _operators, _pair_estimator, _Workspace

    state = _PIN_STATES[name]
    ops = _operators(state, _PIN_CFG.grid)
    assert ops.g_t.dtype == float
    complex_ops = ops._replace(g_t=ops.g_t.astype(complex))
    ws = _Workspace(_PIN_CFG.grid.n, 2, 100)
    mode_i, mode_j = _draws(_PIN_CFG, ws, range(500, 600))
    for i, j in ((mode_i, mode_i), (mode_i, mode_j)):
        real_pair = _pair_estimator(ops, _PIN_CFG.grid, _BATCH_TAUS)(ws, i, j)
        complex_pair = _pair_estimator(complex_ops, _PIN_CFG.grid, _BATCH_TAUS)(ws, i, j)
        assert np.array_equal(real_pair, complex_pair)


# --- tau batches: one draw per curve

_BATCH_TAUS = [-0.9, 0.0, 0.35, 1.2, 2.5]


@pytest.mark.parametrize("cross_mode", [False, True], ids=["same", "cross"])
@pytest.mark.parametrize("name", ["entangled", "antisymmetric", "fock", "coherent"])
def test_batch_equals_single_tau_calls(name, cross_mode):
    # 600 realizations cross the 512-realization chunk edge
    state = _PIN_STATES[name]
    batch = mc_correlator_batch(state, _PIN_CFG, _BATCH_TAUS, cross_mode=cross_mode)
    single = [mc_correlator_batch(state, _PIN_CFG, [tau], cross_mode=cross_mode)[0] for tau in _BATCH_TAUS]
    assert batch == single


@pytest.mark.parametrize("budget, draws_per_stream", [(10**9, 2), (1200, 6)], ids=["one-group", "three-groups"])
def test_batch_draws_once_per_tau_group(monkeypatch, budget, draws_per_stream):
    # 600 realizations are two chunks; a 1200-value budget splits 5 taus into groups of 2, 2, 1
    from tpspeckle import montecarlo

    state = _PIN_STATES["entangled"]
    expect = [mc_correlator(state, _PIN_CFG, tau) for tau in _BATCH_TAUS]
    calls = []
    draw = montecarlo._draw_block

    def counted(L, seed, stream_id, realizations, ws):
        calls.append(stream_id)
        return draw(L, seed, stream_id, realizations, ws)

    monkeypatch.setattr(montecarlo, "_VALUE_BUDGET", budget)
    monkeypatch.setattr(montecarlo, "_draw_block", counted)
    assert mc_correlator_batch(state, _PIN_CFG, _BATCH_TAUS) == expect
    assert sorted(calls) == [0] * draws_per_stream + [1] * draws_per_stream


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_batch_refuses_a_non_finite_tau_before_drawing(monkeypatch, bad):
    import tpspeckle.montecarlo as montecarlo

    def no_draws(*args, **kwargs):
        raise AssertionError("drew an ensemble")

    monkeypatch.setattr(montecarlo, "_ensemble", no_draws)
    with pytest.raises(ValueError, match="finite"):
        mc_correlator_batch(FockState(100.0, 1.0), _fock_cfg(n_real=100), [0.0, bad])
    with pytest.raises(ValueError, match="finite"):
        mc_correlator(FockState(100.0, 1.0), _fock_cfg(n_real=100), bad)


# --- one workspace per pass: the bits of the allocating formulas

_WS_MODELS = {"I": M_I, "II": ModelII(omega_th=1.0)}
_WS_TAUS = [-0.9, 0.0, 0.35]


def _ws_cfg(model):
    # 1 300 realizations are chunks of 512, 512 and 276
    return EnsembleConfig(grid=_PIN_CFG.grid, model=_WS_MODELS[model], t_bar=0.01, n_realizations=1300, seed=17)


def _allocating_draw(cfg, stream_id, block):
    # a fresh generator per realization, fresh normals and fresh products
    from numpy.random import Generator, Philox

    from tpspeckle.montecarlo import _factor

    L = _factor(cfg.grid, cfg.model, cfg.t_bar)
    n = L.shape[0]
    z = np.array([Generator(Philox(key=cfg.seed, counter=[0, 0, stream_id, r])).standard_normal(2 * n) for r in block])
    if L.dtype.kind == "c":
        return L @ ((z[:, :n] + 1j * z[:, n:]) / math.sqrt(2.0)).T
    z *= 1.0 / math.sqrt(2.0)
    t = np.empty((n, len(block)), dtype=complex)
    t.real = L @ z[:, :n].T
    t.imag = L @ z[:, n:].T
    return t


def _allocating_pair(ops, grid, taus, mode_i, mode_j):
    (t_oi, t_ei), (t_oj, t_ej) = mode_i, mode_j
    if ops.a2w is not None:
        def intensity(t_o, t_e, phase):
            return ops.a2w @ (np.abs(t_e * phase + t_o) ** 2)

        phases = [np.exp(-1j * grid.axis() * tau)[:, None] for tau in taus]
        return np.array([intensity(t_oi, t_ei, ph) * intensity(t_oj, t_ej, ph) for ph in phases])
    p_oi, p_ei, p_oj, p_ej = (np.abs(t) ** 2 for t in (t_oi, t_ei, t_oj, t_ej))
    direct = np.einsum("mc,mc->c", p_oi, ops.m_direct @ p_ej)
    direct += np.einsum("mc,mc->c", p_ei, ops.m_direct @ p_oj)
    rows = []
    for tau in taus:
        phase = np.exp(1j * grid.axis() * tau)[:, None]
        u_i = phase * np.conj(t_ei) * t_oi
        u_j = phase * np.conj(t_ej) * t_oj
        if ops.g_t.dtype.kind == "c":
            g_u = ops.g_t @ u_i
        else:
            g_u = (ops.g_t @ u_i.view(float)).view(complex)
        rows.append(direct + 2.0 * np.real(np.einsum("mc,mc->c", np.conj(u_j), g_u)))
    return np.array(rows)


def _allocating_values(cfg, modes, per_block, rows):
    values = np.empty((rows, cfg.n_realizations))
    for start in range(0, cfg.n_realizations, 512):
        block = range(start, min(start + 512, cfg.n_realizations))
        draws = [(_allocating_draw(cfg, 2 * m, block), _allocating_draw(cfg, 2 * m + 1, block)) for m in range(modes)]
        values[:, block.start : block.stop] = per_block(*draws)
    return values


def _as_array(estimates):
    return np.array([(e.mean, e.std_error, e.n) for e in estimates])


@pytest.mark.parametrize("model", list(_WS_MODELS))
@pytest.mark.parametrize("cross_mode", [False, True], ids=["same", "cross"])
@pytest.mark.parametrize("name", ["entangled", "antisymmetric", "fock", "coherent"])
def test_workspace_pass_matches_allocating_formulas(name, cross_mode, model):
    from tpspeckle.montecarlo import _ensemble, _estimate, _operators, _pair_estimator

    state, cfg = _PIN_STATES[name], _ws_cfg(model)
    ops = _operators(state, cfg.grid)
    assert (ops.g_t is None or ops.g_t.dtype.kind == "c") == (name in ("antisymmetric", "coherent"))
    modes = 2 if cross_mode else 1

    def reference(*draws):
        return _allocating_pair(ops, cfg.grid, _WS_TAUS, draws[0], draws[-1])

    expect = _allocating_values(cfg, modes, reference, len(_WS_TAUS))
    pair = _pair_estimator(ops, cfg.grid, _WS_TAUS)
    values = _ensemble(cfg, modes, lambda ws, *draws: pair(ws, draws[0], draws[-1]), len(_WS_TAUS))
    assert np.array_equal(values, expect)
    norm = (1.0 if cross_mode else 2.0) * cfg.t_bar**2
    batch = mc_correlator_batch(state, cfg, _WS_TAUS, cross_mode=cross_mode)
    assert np.array_equal(_as_array(batch), _as_array(_estimate(row) for row in expect / norm))


@pytest.mark.parametrize("model", list(_WS_MODELS))
@pytest.mark.parametrize("name", ["entangled", "antisymmetric", "fock", "coherent"])
def test_workspace_photocount_matches_allocating_formulas(name, model):
    from tpspeckle.montecarlo import _estimate, _operators

    state, cfg = _PIN_STATES[name], _ws_cfg(model)
    ops = _operators(state, cfg.grid)
    wo = we = ops.a2w
    if ops.a2w is None:
        wo, we = ops.m_direct.sum(axis=1), ops.m_direct.sum(axis=0)

    def photocount(mode):
        t_o, t_e = mode
        return (wo @ (np.abs(t_o) ** 2) + we @ (np.abs(t_e) ** 2)) / cfg.t_bar

    expect = _estimate(_allocating_values(cfg, 1, photocount, 1)[0])
    assert np.array_equal(_as_array([mc_mean_photocount(cfg, state)]), _as_array([expect]))


@pytest.mark.parametrize("model", list(_WS_MODELS))
def test_workspace_sample_transmission_matches_allocating_draw(model):
    cfg = _ws_cfg(model)
    for r in (0, 511, 512, 1299):
        t_o, t_e = sample_transmission(cfg, 2, r)
        block = range(r, r + 1)
        assert np.array_equal(t_o, np.array([_allocating_draw(cfg, s, block)[:, 0] for s in (0, 2)]))
        assert np.array_equal(t_e, np.array([_allocating_draw(cfg, s, block)[:, 0] for s in (1, 3)]))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts minor page faults by ru_minflt")
@pytest.mark.parametrize("model", list(_WS_MODELS))
@pytest.mark.parametrize("name", ["entangled", "coherent"])
def test_pass_faults_do_not_grow_with_chunks(name, model):
    # one workspace per pass: 20 chunks fault no more pages than 2 do
    import resource

    state = _PIN_STATES[name]

    def faults(n_realizations):
        cfg = EnsembleConfig(grid=FrequencyGrid(100.0, 8.0, 128), model=_WS_MODELS[model], t_bar=0.01,
                             n_realizations=n_realizations, seed=3)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        mc_correlator_batch(state, cfg, [0.0, 0.5])
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    faults(1024)  # warm-up: the covariance factor and the BLAS buffers
    small = faults(1024)
    assert faults(10_240) <= 2 * small + 500
