"""The reduced closed forms over arrays: one call per figure column.

A scalar call is the size-1 case of the array code, so a column evaluated
in one call must agree with its points evaluated one at a time.
"""

import argparse
import json
import math
import tracemalloc

import numpy as np
import pytest

from tpspeckle import (
    CrystalParams,
    ModelII,
    PumpParams,
    QuadratureNotConvergedError,
    SymmetrizedState,
    rate_closed_form,
    rate_coherent,
    rate_entangled,
    rate_entangled_cw_limit,
    rate_fock,
    rate_theta,
)
from tpspeckle import cli, rates

_FIGURE_ARGS = argparse.Namespace(s_values=None, nu_o=None, nu_e=None)
_STATE = SymmetrizedState(PumpParams(omega_bar=100.0, sigma=1.0), CrystalParams(nu_o=1.5, nu_e=0.5), 1.0)
_MODEL = ModelII(omega_th=1.0)


@pytest.mark.parametrize("kind", ["I", "II"])
@pytest.mark.parametrize("figure_id", range(3, 11))
def test_column_call_equals_point_calls(figure_id, kind):
    # every group of columns, w = inf included: theta = pi at s = 0 (the
    # Richardson limit) in figures 7 and 8, s up to 8 (the extra graded
    # panels) in 8; a symmetrized group is one call over a column of theta
    _, x, names, groups = cli._figure_columns(figure_id, kind, _FIGURE_ARGS, [])
    assert sorted(names) == sorted(name for group, _ in groups for name in group)
    points = np.arange(0, x.size, 5)
    for group, rate in groups:
        columns = np.atleast_2d(rate(x))
        assert columns.shape == (len(group), x.size), group
        singles = np.column_stack([np.ravel(rate(float(v))) for v in x[points]])
        assert np.max(np.abs(columns[:, points] - singles)) <= 1e-14, group


@pytest.mark.parametrize("kind", ["I", "II"])
def test_theta_column_equals_per_theta_calls(kind):
    # the grids of figures 8 (t = 0 over s) and 9 (s = 4 over t), and
    # s = 0, where theta = pi raises s and so shares no integral
    thetas = np.array([0.0, 0.5 * math.pi, math.pi, 2.5])
    t = np.linspace(-3.0, 3.0, 241)
    for w in (math.inf, 1.0, 0.3):
        for t_axis, s_axis in ((0.0, np.linspace(0.0, 8.0, 161)), (t, 4.0), (t, 0.0)):
            rows = rate_theta(t_axis, s_axis, w, thetas[:, None], kind)
            for row, theta in zip(rows, thetas):
                assert np.max(np.abs(row - rate_theta(t_axis, s_axis, w, theta, kind))) <= 1e-15, (w, theta)


def test_gauss_kronrod_rule_integrates_its_degrees():
    # K21 is exact for x^k up to k = 31, its embedded G10 up to k = 19
    kronrod, gauss = rates._GK_WEIGHTS.T
    for weights, degree in ((kronrod, 31), (gauss, 19)):
        for k in range(degree + 1):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(weights @ rates._GK_NODES**k - exact) <= 1e-15, k
    nodes, weights = np.polynomial.legendre.leggauss(10)
    on = gauss != 0.0
    order = np.argsort(rates._GK_NODES[on])
    assert np.max(np.abs(rates._GK_NODES[on][order] - nodes)) <= 1e-15
    assert np.max(np.abs(gauss[on][order] - weights)) <= 1e-15


def test_figure_8_evaluates_each_node_once_for_every_theta(monkeypatch):
    # its three theta per (s, w) share one integral, on 21 nodes per panel
    # that give value and estimate both: 74 340 pole sums, 317 340 with a
    # call per theta on the 20 + 10 nodes of a Gauss-Legendre pair
    nodes = []
    pole_sum = rates._pole_sum

    def counted(xi):
        nodes.append(xi.size)
        return pole_sum(xi)

    monkeypatch.setattr(rates, "_pole_sum", counted)
    cli._figure_dataset(8, "II", _FIGURE_ARGS)
    assert sum(nodes) <= 74_340


@pytest.mark.parametrize(
    "call",
    [
        lambda: rate_entangled_cw_limit(0.5, 2.0),
        lambda: rate_entangled(0.5, 2.0, 1.0, "II"),
        lambda: rate_entangled(0.5, 2.0, math.inf),
        lambda: rate_fock(0.5, 0.3, "II"),
        lambda: rate_coherent(0.5, 0.3),
        lambda: rate_coherent(0.5, 0.0),
        lambda: rate_theta(0.5, 6.0, 0.3, 1.0, "II"),
        lambda: rate_theta(0.5, 0.0, 1.0, math.pi),
        lambda: rate_closed_form(_STATE, _MODEL, 0.3),
    ],
)
def test_scalar_call_returns_float(call):
    assert type(call()) is float


def test_array_call_keeps_the_broadcast_shape():
    t = np.linspace(-2.0, 2.0, 6).reshape(2, 3)
    s = np.array([0.0, 2.0, 6.0])
    r = rate_theta(t, s, 0.3, math.pi, "II")
    assert r.shape == (2, 3)
    assert r[1, 2] == rate_theta(t[1, 2], s[2], 0.3, math.pi, "II")
    assert rate_fock(t, 1.0).shape == (2, 3)
    assert rate_entangled(np.array([]), 1.0, 1.0).shape == (0,)


def test_closed_form_curve_is_one_call(tmp_path, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return rate_closed_form(*args)

    monkeypatch.setattr(cli, "rate_closed_form", counted)
    out = tmp_path / "r.csv"
    assert cli.main(["rate", "--state", json.dumps(cli.state_to_config(_STATE)),
                     "--model", json.dumps(cli.model_to_config(_MODEL)),
                     "--tau-min", "-2", "--tau-max", "2", "--tau-n", "9", "--out", str(out)]) == 0
    assert len(calls) == 1
    taus, rs = cli.read_curve_csv(str(out))[1].T
    assert np.array_equal(taus, np.linspace(-2.0, 2.0, 9))
    assert np.array_equal(rs, [rate_closed_form(_STATE, _MODEL, tau) for tau in taus])


def test_a_failing_point_inside_a_column_raises():
    # a square-root cusp off every panel edge at one point of the column:
    # its 21-node Kronrod and 10-node Gauss sums disagree far above the gate
    def kernel(s, x):
        return np.where(s > 1.0, np.sqrt(np.abs(x - 0.3)), 1.0 - np.abs(x))

    def integrate(t, s):
        _, error = rates._integrate_reduced(kernel, t, 1.0, s, "I")
        rates._check_reduced(error, 1.0, t=t, s=s)

    t = np.zeros(20)
    s = np.zeros(20)
    integrate(t, s)
    s[13] = 2.0
    with pytest.raises(QuadratureNotConvergedError, match="s=2,"):
        integrate(t, s)


def test_model_ii_figure_8_column_stays_memory_bounded():
    s = np.linspace(0.0, 8.0, 161)
    rate_theta(0.0, s, 1.0, math.pi / 2, "II")  # fills the per-w cache
    tracemalloc.start()
    try:
        rate_theta(0.0, s, 1.0, math.pi / 2, "II")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def test_pole_sum_skips_only_terms_that_change_no_bit():
    # a w = 0.3 column's offsets reach every pole term's underflow
    xi = np.abs(0.3 * np.linspace(-4.0, 4.0, 30 * 401)).reshape(401, 30)
    terms = -xi[..., None] * rates._POLE_B
    assert np.mean(terms <= rates._EXP_FLOOR) > 0.2
    assert np.array_equal(rates._pole_sum(xi), np.exp(terms) @ rates._POLE_A)


def test_model_i_column_blocks_by_its_own_terms(monkeypatch):
    # Model I has no pole terms: its blocks count 8 kernel values per node
    # against the budget (not 20 pole terms), so this column runs in 7
    # blocks of the 21-node rule rather than 13
    blocks = []
    block = rates._reduced_block

    def counted(kernel, t, w, s, kind, lower, upper):
        blocks.append(lower.shape)
        return block(kernel, t, w, s, kind, lower, upper)

    monkeypatch.setattr(rates, "_reduced_block", counted)
    t = np.linspace(-3.0, 3.0, 241)
    column = rate_entangled(t, 2.0, 1.0, "I")
    assert len(blocks) == 7
    assert sum(rows for rows, _ in blocks) == t.size
    assert all(rows * panels * rates._GK_NODES.size * 8 <= rates._BLOCK_VALUES for rows, panels in blocks)
    monkeypatch.setattr(rates, "_reduced_block", block)
    assert np.array_equal(column, [rate_entangled(float(v), 2.0, 1.0, "I") for v in t])


def test_model_i_figure_8_column_stays_memory_bounded():
    s = np.linspace(0.0, 8.0, 161)
    rate_theta(0.0, s, 1.0, math.pi, "I")  # fills the per-w cache
    tracemalloc.start()
    try:
        rate_theta(0.0, s, 1.0, math.pi, "I")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2**20
