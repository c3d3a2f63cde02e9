"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import math

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
    correlation,
    covariance_factor,
    mc_correlator,
    mc_default_grid,
    mc_mean_photocount,
    rate_coherent,
    rate_entangled,
    rate_entangled_cw_limit,
    rate_fock,
    rate_numeric,
    rate_theta,
    visibility,
)

CRYSTAL = CrystalParams(nu_o=1.5, nu_e=0.5)  # eta- = 1, eta+ = 2
OMEGA_BAR = 100.0
INF = math.inf
ACCEPTANCE_SEED = 20230817  # pinned: the statistical gate is reproducible


def _entangled(s: float) -> EntangledState:
    return EntangledState(PumpParams(OMEGA_BAR, s / CRYSTAL.eta_plus), CRYSTAL)


def _symmetrized(s: float, theta: float) -> SymmetrizedState:
    return SymmetrizedState(PumpParams(OMEGA_BAR, s / CRYSTAL.eta_plus), CRYSTAL, theta)


def _report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS  {detail}")


# ---------------------------------------------------------------------------

def test_criterion_1_exact_limits():
    tol = 1e-9
    checks = {
        "R_ent_cw(0, s->0) = 2": abs(rate_entangled_cw_limit(0.0, 0.0) - 2.0),
        "R_ent_cw(|t|>=1) = 1": max(
            abs(rate_entangled_cw_limit(1.0, 2.0) - 1.0),
            abs(rate_entangled_cw_limit(3.7, 0.0) - 1.0),
        ),
        "R_Fock(0, w->inf) = 2": abs(rate_fock(0.0, INF) - 2.0),
        "R_coh(0, w->inf) = 4": abs(rate_coherent(0.0, INF) - 4.0),
        "R_coh(inf, w->inf) = 3": abs(rate_coherent(INF, INF) - 3.0),
        "R_coh(., w->0) = 2": max(
            abs(rate_coherent(1.3, 0.0) - 2.0),
            abs(rate_coherent(0.4, 1e-12) - 2.0),
        ),
        "R_theta=pi(0) -> 0": abs(rate_theta(0.0, 0.0, INF, math.pi)),
        "R_theta=0(0, w->inf) = 2": max(
            abs(rate_theta(0.0, s, INF, 0.0) - 2.0) for s in (0.0, 1.0, 5.0)
        ),
    }
    worst = max(checks.values())
    for name, err in checks.items():
        assert err < tol, f"{name}: |error| = {err:.2e} >= {tol}"
    _report("1 (exact limits)", f"worst |error| = {worst:.2e} < 1e-9")


def test_criterion_2_visibility_maxima():
    tol = 1e-3

    def curve_of(fn, tau_max):
        taus = np.concatenate([[0.0], np.geomspace(1e-2, tau_max, 160)])
        return taus, np.array([fn(t) for t in taus])

    cases = {
        "entangled cw": (curve_of(lambda t: rate_entangled_cw_limit(t, 0.0), 20.0), 1 / 3),
        "Fock cw": (curve_of(lambda t: rate_fock(t, INF), 60.0), 1 / 3),
        "symmetric theta=0 cw": (
            curve_of(lambda t: rate_theta(t, 2.0, INF, 0.0), 20.0),
            1 / 3,
        ),
        "coherent cw": (curve_of(lambda t: rate_coherent(t, INF), 60.0), 1 / 7),
        "antisymmetric cw": (
            curve_of(lambda t: rate_theta(t, 0.0, INF, math.pi), 20.0),
            1.0,
        ),
    }
    worst = 0.0
    for name, (curve, expect) in cases.items():
        v = visibility(*curve)
        worst = max(worst, abs(v - expect))
        assert abs(v - expect) < tol, f"{name}: V = {v} vs {expect}"
    _report("2 (visibility maxima)", f"worst |V - target| = {worst:.2e} < 1e-3")


def test_criterion_3_theta_half_pi_equivalence():
    ts = (0.0, 0.4, 0.9, 1.5, 2.5)
    ss = (0.3, 1.0, 2.0, 4.0, 8.0)
    ws = (0.3, 1.0, 3.0)
    worst = 0.0
    for t in ts:
        for s in ss:
            for w in ws:
                diff = abs(
                    rate_theta(t, s, w, math.pi / 2) - rate_entangled(t, s, w)
                )
                worst = max(worst, diff)
    assert worst < 1e-8
    _report("3 (theta = pi/2 equivalence)", f"max |diff| = {worst:.2e} over 75 points < 1e-8")


def test_criterion_4_closed_form_vs_quadrature():
    # 108 points, one quadrature batch per (state, s, w) or (state, w)
    tol = 1e-6
    worst = 0.0
    runs = 0

    # entangled: 3 x 3 x 3
    ts = (0.0, 0.7, 1.6)
    for s in (0.5, 2.0, 4.0):
        for w in (0.3, 1.0, 3.0):
            got = rate_numeric(_entangled(s), ModelI(omega_corr=w), ts)
            for t, res in zip(ts, got):
                worst = max(worst, abs(res.value - rate_entangled(t, s, w)))
                runs += 1

    # symmetrized: 3 x 3 x 3 with theta cycling over the s-axis
    for s, theta in ((0.5, 0.0), (2.0, math.pi / 2), (2.0, math.pi)):
        for w in (0.3, 1.0, 3.0):
            got = rate_numeric(_symmetrized(s, theta), ModelI(omega_corr=w), ts)
            for t, res in zip(ts, got):
                worst = max(worst, abs(res.value - rate_theta(t, s, w, theta)))
                runs += 1

    # Fock and coherent: 9 x 3 each
    ts = (0.0, 0.4, 0.8, 1.2, 1.8, 2.4, 3.0, 4.0, 5.0)
    for state, rate in ((FockState(OMEGA_BAR, 1.0), rate_fock), (CoherentState(OMEGA_BAR, 1.0), rate_coherent)):
        for w in (0.3, 1.0, 3.0):
            got = rate_numeric(state, ModelI(omega_corr=w), ts)
            for t, res in zip(ts, got):
                worst = max(worst, abs(res.value - rate(t, w)))
                runs += 1

    assert runs == 108
    assert worst < tol
    _report("4 (closed form vs quadrature)", f"max |diff| = {worst:.2e} over 108 runs < 1e-6")


def test_criterion_4_model_ii_closed_form_vs_quadrature():
    # the 108 points of criterion 4 under Model II, one quadrature batch per (state, s, w)
    tol = 1e-6
    worst = 0.0
    runs = 0
    ts = (0.0, 0.7, 1.6)
    for s in (0.5, 2.0, 4.0):
        for w in (0.3, 1.0, 3.0):
            got = rate_numeric(_entangled(s), ModelII(omega_th=w), ts)
            for t, res in zip(ts, got):
                worst = max(worst, abs(res.value - rate_entangled(t, s, w, "II")))
                runs += 1
    for s, theta in ((0.5, 0.0), (2.0, math.pi / 2), (2.0, math.pi)):
        for w in (0.3, 1.0, 3.0):
            got = rate_numeric(_symmetrized(s, theta), ModelII(omega_th=w), ts)
            for t, res in zip(ts, got):
                worst = max(worst, abs(res.value - rate_theta(t, s, w, theta, "II")))
                runs += 1

    ts = (0.0, 0.4, 0.8, 1.2, 1.8, 2.4, 3.0, 4.0, 5.0)
    for state, rate in ((FockState(OMEGA_BAR, 1.0), rate_fock), (CoherentState(OMEGA_BAR, 1.0), rate_coherent)):
        for w in (0.3, 1.0, 3.0):
            got = rate_numeric(state, ModelII(omega_th=w), ts)
            for t, res in zip(ts, got):
                worst = max(worst, abs(res.value - rate(t, w, "II")))
                runs += 1

    assert runs == 108
    assert worst < tol
    _report("4 (Model II closed form vs quadrature)", f"max |diff| = {worst:.2e} over 108 runs < 1e-6")


def _mc_sweep_cases():
    """50 Model-I cases: (state, model, tau, closed_form, grid).

    Grids are the estimator-aware defaults (128 points): wide enough for
    the state, spaced finely enough for the kernel.
    """

    def ent_case(t, s, w):
        state = _entangled(s)
        model = ModelI(w)
        return (state, model, t, rate_entangled(t, s, w), mc_default_grid(state, model))

    def sym_case(t, s, w, theta):
        state = _symmetrized(s, theta)
        model = ModelI(w)
        return (state, model, t, rate_theta(t, s, w, theta), mc_default_grid(state, model))

    def env_case(kind, t, w):
        state = FockState(OMEGA_BAR, 1.0) if kind == "fock" else CoherentState(OMEGA_BAR, 1.0)
        model = ModelI(w)
        closed = rate_fock(t, w) if kind == "fock" else rate_coherent(t, w)
        return (state, model, t, closed, mc_default_grid(state, model))

    cases = []
    for t in (0.0, 0.5, 1.2):
        for s in (0.5, 2.0):
            for w in (0.3, 1.0):
                cases.append(ent_case(t, s, w))
    for t, s, w in ((0.0, 1.0, 3.0), (0.5, 1.0, 3.0), (1.2, 1.0, 0.5), (0.0, 0.5, 2.0), (0.5, 2.0, 2.0), (2.0, 1.0, 1.0)):
        cases.append(ent_case(t, s, w))
    for theta in (0.0, math.pi / 2, math.pi):
        for t in (0.0, 0.8):
            cases.append(sym_case(t, 2.0, 1.0, theta))
    for theta, s, w, t in ((math.pi, 1.0, 0.5, 0.0), (0.0, 0.5, 1.0, 0.5), (math.pi / 2, 4.0, 1.0, 0.0)):
        cases.append(sym_case(t, s, w, theta))
    for t in (0.0, 0.7, 1.5):
        for w in (0.3, 1.0, 3.0):
            cases.append(env_case("fock", t, w))
            cases.append(env_case("coh", t, w))
    for t in (0.0, 1.0):
        cases.append(env_case("fock", t, 2.0))
        cases.append(env_case("coh", t, 2.0))
    cases.append(ent_case(0.5, 0.5, 3.0))
    assert len(cases) == 50
    return cases


def test_criterion_5_monte_carlo_oracle():
    n_real = 10_000
    worst_z = 0.0
    worst_se = 0.0
    passes = 0
    for idx, (state, model, tau, closed, grid) in enumerate(_mc_sweep_cases()):
        cfg = EnsembleConfig(
            grid=grid, model=model, t_bar=0.01, n_realizations=n_real, seed=ACCEPTANCE_SEED + idx
        )
        est = mc_correlator(state, cfg, [tau])[0]
        z = abs(est.mean - closed) / est.std_error
        worst_z = max(worst_z, z)
        worst_se = max(worst_se, est.std_error / closed if closed > 0 else est.std_error)
        assert est.std_error < 0.02 * max(closed, est.mean), f"case {idx}: se too large"
        if z < 3.0:
            passes += 1
    assert passes >= math.ceil(0.99 * 50), f"only {passes}/50 cases within 3 sigma"

    # cross-mode runs: parameter-free 2 / 2 / 4
    ent_grid = FrequencyGrid(OMEGA_BAR, 24.0, 128)
    env_grid = FrequencyGrid(OMEGA_BAR, 8.0, 128)
    cross = [
        (_entangled(2.0), ent_grid, 2.0),
        (FockState(OMEGA_BAR, 1.0), env_grid, 2.0),
        (CoherentState(OMEGA_BAR, 1.0), env_grid, 4.0),
    ]
    for k, (state, grid, expect) in enumerate(cross):
        cfg = EnsembleConfig(
            grid=grid, model=ModelI(1.0), t_bar=0.01, n_realizations=n_real,
            seed=ACCEPTANCE_SEED + 100 + k,
        )
        est = mc_correlator(state, cfg, [0.4], cross_mode=True)[0]
        assert abs(est.mean - expect) < 3.0 * est.std_error
    _report(
        "5 (Monte Carlo oracle)",
        f"{passes}/50 cases within 3 sigma (worst z = {worst_z:.2f}, worst se/R = {worst_se:.3f}); "
        "cross-mode 2/2/4 confirmed",
    )


def _beam_splitter(outcomes):
    """Enumerated moments of two photons leaving a two-port beam splitter;
    ``outcomes`` maps (port of photon a, port of photon b) to its probability."""

    def mean(f):
        return sum(p * f(o) for o, p in outcomes.items())

    def n1(o):
        return o.count(1)

    return {
        "p1": mean(lambda o: o[0] == 1),
        "mean_n1": mean(n1),
        "p2_same": mean(lambda o: o == (1, 1)),
        "p2_cross": mean(lambda o: set(o) == {1, 2}),
        "no_same": mean(lambda o: n1(o) * (n1(o) - 1)),  # <:n1^2:> = <n1 (n1 - 1)>
        "no_cross": mean(lambda o: n1(o) * o.count(2)),  # <:n1 n2:> = <n1 n2> = C_12
        "c_same": mean(lambda o: n1(o) ** 2),  # C_11 = <n1 n1>
    }


def test_criterion_6_beam_splitter():
    # two independent photons on a 50:50 beam splitter; photons that always
    # leave by different ports, and photons that always leave together
    independent = _beam_splitter({(a, b): 0.25 for a in (1, 2) for b in (1, 2)})
    apart = _beam_splitter({(1, 2): 0.5, (2, 1): 0.5})
    together = _beam_splitter({(1, 1): 0.5, (2, 2): 0.5})
    for m in (independent, apart, together):
        # P2 = <:n_i n_j:> / (1 + delta_ij) and C_ij = <:n_i n_j:> + delta_ij <n_i>
        assert m["p2_same"] == 0.5 * m["no_same"]
        assert m["p2_cross"] == m["no_cross"]
        assert m["c_same"] == m["no_same"] + m["mean_n1"]
    # equal normally ordered moments, yet P2(1,1) = 1/4 while P2(1,2) = 1/2
    assert independent["p1"] == 0.5
    assert independent["mean_n1"] == 1.0
    assert independent["no_same"] == independent["no_cross"] == 0.5
    assert independent["p2_same"] == 0.25
    assert independent["p2_cross"] == 0.5
    assert independent["c_same"] == 1.5  # and C_12 = <:n1 n2:> = 1/2
    # a vanishing normally ordered moment at <n1> = 1 gives a vanishing rate
    assert apart["mean_n1"] == together["mean_n1"] == 1.0
    assert apart["no_same"] == apart["p2_same"] == 0.0
    assert together["no_cross"] == together["p2_cross"] == 0.0
    _report("6 (beam-splitter check)", "P2(1,1) = 1/4, P2(1,2) = 1/2, <:n1^2:> = 1/2 exactly")


def test_criterion_7_mean_photocount():
    states = [
        _entangled(2.0),
        _symmetrized(2.0, math.pi),
        FockState(OMEGA_BAR, 1.0),
        CoherentState(OMEGA_BAR, 1.0),
    ]
    worst_z = 0.0
    for k, state in enumerate(states):
        grid = (
            FrequencyGrid(OMEGA_BAR, 24.0, 128)
            if isinstance(state, (EntangledState, SymmetrizedState))
            else FrequencyGrid(OMEGA_BAR, 8.0, 128)
        )
        cfg = EnsembleConfig(
            grid=grid, model=ModelI(1.0), t_bar=0.01, n_realizations=10_000,
            seed=ACCEPTANCE_SEED + 200 + k,
        )
        est = mc_mean_photocount(cfg, state)
        z = abs(est.mean - 2.0) / est.std_error
        worst_z = max(worst_z, z)
        assert z < 3.0
    _report("7 (mean photocount)", f"n/t_bar = 2 by MC (worst z = {worst_z:.2f})")


def test_criterion_8_property_suites():
    # Representative re-assertions; the full suites live in the module tests.
    rng = np.random.default_rng(5)

    # parity in tau
    for _ in range(10):
        t, s, w = rng.uniform(0.1, 3), rng.uniform(0, 6), rng.uniform(0.2, 5)
        assert rate_entangled(t, s, w) == pytest.approx(
            rate_entangled(-t, s, w), abs=1e-9
        )

    # state bounds
    for _ in range(50):
        t, s, w = rng.uniform(-4, 4), rng.uniform(0, 8), rng.uniform(0.05, 20)
        assert 1 - 1e-9 <= rate_entangled(t, s, w) <= 2 + 1e-9
        assert 2 - 1e-9 <= rate_coherent(t, w) <= 4 + 1e-9
        assert 0 - 1e-9 <= rate_theta(t, s, w, rng.uniform(0, 2 * math.pi)) <= 2 + 1e-9

    # Hermitian symmetry and branch invariance of C
    m2 = ModelII(omega_th=1.0)
    for dw in rng.uniform(-50, 50, 100):
        assert abs(correlation(dw, m2) - correlation(-dw, m2).conjugate()) < 1e-13

    # covariance factor reconstruction and sampler recovery (compact)
    grid = FrequencyGrid(0.0, 2.0, 8)
    fac = covariance_factor(grid, ModelI(1.0), 0.02)
    omega = grid.axis()
    sigma = 0.02 * np.array([[correlation(a - b, ModelI(1.0)) for b in omega] for a in omega])
    assert np.max(np.abs(fac.lower_factor @ fac.lower_factor.conj().T - sigma)) < 1e-8 * 0.02 + fac.jitter_used

    from tpspeckle.montecarlo import _CHUNK, _draws, _Workspace

    cfg = EnsembleConfig(grid=grid, model=ModelI(1.0), t_bar=0.02, n_realizations=4000, seed=1)
    ws = _Workspace(grid.n, 1, _CHUNK)
    acc = np.zeros((8, 8), dtype=complex)
    for start in range(0, cfg.n_realizations, _CHUNK):
        [(t_o, _)] = _draws(cfg, ws, range(start, min(start + _CHUNK, cfg.n_realizations)))
        acc += t_o @ t_o.conj().T
    emp = acc / cfg.n_realizations
    assert np.max(np.abs(emp - sigma)) < 4.0 * 0.02 / math.sqrt(cfg.n_realizations)

    # Model II reproduces the cw-limit closed form at large w
    worst = max(
        abs(rate_entangled(t, s, 1e4, kind="II") - rate_entangled_cw_limit(t, s))
        for (t, s) in ((0.0, 0.0), (0.5, 2.0), (0.9, 0.5))
    )
    assert worst < 1e-3
    _report("8 (property suites)", f"module invariants re-verified; Model II cw gap = {worst:.1e} < 1e-3")


def test_criterion_9_figure_shapes():
    # Fig. 3: peak decreases as s grows
    peaks3 = [rate_entangled_cw_limit(0.0, s) for s in (0.0, 2.0, 8.0)]
    assert peaks3[0] > peaks3[1] > peaks3[2]

    # Figs. 4/5 (Thouless-model curves): peak decreases and curve broadens as w drops
    for fn in (
        lambda t, w: rate_entangled(t, 0.0, w, kind="II"),
        lambda t, w: rate_fock(t, w, kind="II"),
    ):
        peaks = {w: fn(0.0, w) for w in (INF, 1.0, 0.3)}
        assert peaks[INF] > peaks[1.0] > peaks[0.3] > 1.0
        rel_tail = {w: (fn(2.0, w) - 1.0) / (peaks[w] - 1.0) for w in (INF, 1.0, 0.3)}
        assert rel_tail[0.3] > rel_tail[1.0] > rel_tail[INF]

    # Fig. 5 weak-disorder profile is smooth at t = 0; Fig. 3 cw curve is kinked
    h = 1e-4
    slope_fock = (rate_fock(h, INF) - rate_fock(0.0, INF)) / h
    slope_hom = (rate_entangled_cw_limit(h, 0.0) - rate_entangled_cw_limit(0.0, 0.0)) / h
    assert abs(slope_fock) < 1e-3
    assert slope_hom == pytest.approx(-1.0, abs=1e-6)
    _report(
        "9 (figure shapes)",
        f"peaks ordered, tails broaden, slopes: smooth {slope_fock:.1e} vs kinked {slope_hom:.3f}",
    )


# w falls down the rows (flat transmission first), s grows along them
V_W = np.concatenate([[INF], np.geomspace(100.0, 0.01, 41)])
V_S = np.linspace(0.0, 16.0, 33)


def _visibilities(kind: str):
    """V = |R(0) - R(inf)| / (R(0) + R(inf)) on the grid of criterion 10,
    one (w, s) array per two-photon state and one w column each for Fock
    and coherent; also R(0) of theta = pi."""
    def v(r0, r_inf):
        return np.abs(r0 - r_inf) / (r0 + r_inf)

    r0_pi = np.array([rate_theta(0.0, V_S, w, math.pi, kind) for w in V_W])
    return {
        "entangled": v(np.array([rate_entangled(0.0, V_S, w, kind) for w in V_W]), 1.0),
        "theta=0": v(np.array([rate_theta(0.0, V_S, w, 0.0, kind) for w in V_W]), 1.0),
        "theta=pi": v(r0_pi, 1.0),
        "Fock": v(np.array([rate_fock(0.0, w, kind) for w in V_W]), 1.0),
        "coherent": v(np.array([rate_coherent(0.0, w, kind) for w in V_W]),
                      np.array([rate_coherent(INF, w, kind) for w in V_W])),
    }, r0_pi


@pytest.mark.parametrize("kind", ["I", "II"])
def test_criterion_10_abstract_claims(kind):
    """The abstract's three claims, on closed forms over a (state, s, w) grid.

    (i) Disorder suppresses the interference whatever the state: V does not
    increase as w falls.  (ii) The quantum nature of the state matters
    second: the coherent state's V never exceeds Fock's and is at most
    1/7, reached at w = inf; no order among the other states is assumed,
    as at Model I w = 0.3, s = 1 the coherent V exceeds the entangled one.
    (iii) The bosonic (theta = 0) and fermionic (theta = pi) states keep a
    more robust interference, and the fermionic one inverts its sign:
    against pump width s each keeps at least the entangled state's
    fraction V(s)/V(0), and theta = pi keeps R(0) < R(inf) = 1.  This
    reading of "robust" (against s, at every w) is taken from the abstract
    alone, not from the paper's body.
    """
    vis, r0_pi = _visibilities(kind)
    at_s = [int(np.flatnonzero(V_S == s)[0]) for s in (0.0, 1.0, 4.0, 16.0)]
    for name in ("entangled", "theta=0", "theta=pi"):
        assert (np.diff(vis[name][:, at_s], axis=0) <= 0.0).all(), name
    for name in ("Fock", "coherent"):
        assert (np.diff(vis[name]) <= 0.0).all(), name
    assert (vis["coherent"] <= vis["Fock"]).all()
    assert (vis["coherent"] <= 1.0 / 7.0).all() and vis["coherent"][0] == 1.0 / 7.0
    kept = vis["entangled"] / vis["entangled"][:, :1]
    for name in ("theta=0", "theta=pi"):
        assert (vis[name] / vis[name][:, :1] >= kept).all(), name
    assert (r0_pi < 1.0).all()
    _report(
        f"10 (abstract claims, Model {kind})",
        f"V never rises as w falls, 5 states; coherent <= Fock, <= 1/7; theta = 0, pi keep V over s; "
        f"max R_pi(0) - 1 = {(r0_pi - 1.0).max():.1e}",
    )
