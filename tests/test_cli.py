import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import tpspeckle
from tpspeckle import cli
from tpspeckle.cli import main, read_curve_csv

ENT_STATE = json.dumps(
    {"state": "entangled", "omega_bar": 100.0, "sigma": 1.0, "nu_o": 1.5, "nu_e": 0.5}
)
FOCK_STATE = json.dumps({"state": "fock", "omega_bar": 100.0, "delta": 1.0})
MODEL_I = json.dumps({"model": "I", "scale": 1.0})


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


# --- rate

def test_rate_command_writes_curve(tmp_path):
    out = tmp_path / "curve.csv"
    rc = main(
        [
            "rate",
            "--state", ENT_STATE,
            "--model", MODEL_I,
            "--tau-min", "-2", "--tau-max", "2", "--tau-n", "21",
            "--out", str(out),
        ]
    )
    assert rc == 0
    names, data = read_curve_csv(str(out))
    assert names == ["tau", "r"]
    assert data.shape == (21, 2)
    assert np.all(data[:, 1] >= 1.0 - 1e-9)
    header = _read_bytes(out).decode().splitlines()
    assert header[0].startswith("# tpspeckle")
    assert any("config:" in line for line in header[:5])


def test_rate_command_deterministic_bytes(tmp_path):
    args = [
        "rate", "--state", FOCK_STATE, "--model", MODEL_I,
        "--tau-min", "0", "--tau-max", "3", "--tau-n", "7",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert _read_bytes(a) == _read_bytes(b)
    # `--state` also takes the path of a JSON file
    state = tmp_path / "state.json"
    state.write_text(FOCK_STATE)
    c = tmp_path / "c.csv"
    assert main([str(state) if word == FOCK_STATE else word for word in args] + ["--out", str(c)]) == 0
    assert _read_bytes(c) == _read_bytes(a)


def test_rate_command_cw_model(tmp_path):
    out = tmp_path / "cw.csv"
    rc = main(
        ["rate", "--state", ENT_STATE, "--model", "cw",
         "--tau-min", "-2", "--tau-max", "2", "--tau-n", "9", "--out", str(out)]
    )
    assert rc == 0
    _, data = read_curve_csv(str(out))
    # |t| >= 1 branch of the flat-transmission closed form
    assert data[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_rate_quadrature_cw_model(tmp_path):
    # the cw limit is a model at infinite scale, so the quadrature route
    # runs there and checks the flat-transmission closed form
    args = ["rate", "--state", ENT_STATE, "--model", "cw", "--tau-min", "-1", "--tau-max", "1", "--tau-n", "5"]
    quad, closed = tmp_path / "q.csv", tmp_path / "c.csv"
    assert main(args + ["--method", "quadrature", "--out", str(quad)]) == 0
    assert main(args + ["--out", str(closed)]) == 0
    [note] = [line for line in _read_bytes(quad).decode().splitlines() if "worst over the curve" in line]
    worst = float(note.rsplit(" ", 1)[1])
    assert np.all(np.abs(read_curve_csv(str(quad))[1][:, 1] - read_curve_csv(str(closed))[1][:, 1]) <= worst)
    assert '"model": "cw"' in _read_bytes(quad).decode()


def test_rate_quadrature_huge_delay_exits_numerical(tmp_path, capsys):
    # |tau| = 1e300 cuts the entangled d axis to 5e-298, and the run fails
    # the error gate; the Fock d axis would need more than 2^16 points
    out = tmp_path / "q.csv"
    for state in (ENT_STATE, FOCK_STATE):
        assert main(["rate", "--state", state, "--model", MODEL_I, "--tau-min", "0", "--tau-max", "1e300",
                     "--tau-n", "2", "--method", "quadrature", "--out", str(out)]) == 3
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "crystal",
    [{"sigma": 1e300, "nu_o": 1.5, "nu_e": 0.5}, {"sigma": 1.0, "nu_o": 1e-300, "nu_e": 0.0},
     {"sigma": 1.0, "nu_o": 1e300, "nu_e": -1e300}],
    ids=["sigma-1e300", "eta-1e-300", "eta-2e300"],
)
def test_rate_quadrature_tail_out_of_double_range_exits_numerical(tmp_path, capsys, crystal):
    # s^4, eta_-^2 or a power of d_half = 2.7e-298 leaves the double range
    # in the exchange tail's coefficients: refused, not a traceback
    state = json.dumps({"state": "entangled", "omega_bar": 100.0, **crystal})
    out = tmp_path / "q.csv"
    assert main(["rate", "--state", state, "--model", MODEL_I, "--tau-min", "0", "--tau-max", "1",
                 "--tau-n", "2", "--method", "quadrature", "--out", str(out)]) == 3
    assert "double range" in capsys.readouterr().err
    assert not out.exists()


_EXTREME_QUADRATURE = {
    # d_half = 1.9e-19 under a QUADPACK cycle of 3 pi: a node rounds to d = 0
    "tail-node-at-zero": (
        {"state": "entangled", "omega_bar": 100.0, "sigma": 1e-20, "nu_o": 1e-150, "nu_e": 0.0},
        {"model": "I", "scale": 1e-20},
    ),
    # s = sigma eta_+ overflows: the sinc arguments would leave the double
    # range; d_half^3 underflows (eta_- = 1e150) or the tail bound is NaN
    "sinc-past-double-range": (
        {"state": "entangled", "omega_bar": 100.0, "sigma": 1e300, "nu_o": 1e150, "nu_e": 0.0},
        {"model": "I", "scale": 1.0},
    ),
    "sinc-past-double-range-nan-bound": (
        {"state": "entangled", "omega_bar": 100.0, "sigma": 1e300, "nu_o": 1e10, "nu_e": 0.0},
        {"model": "I", "scale": 1.0},
    ),
    # eta_+ = 0 and sigma / eta_- overflows the norm
    "norm-past-double-range": (
        {"state": "entangled", "omega_bar": 100.0, "sigma": 1e300, "nu_o": 1e-150, "nu_e": -1e-150},
        {"model": "I", "scale": 1.0},
    ),
    # 1 / (pi delta^2) overflows
    "fock-delta-1e-300": ({"state": "fock", "omega_bar": 100.0, "delta": 1e-300}, {"model": "I", "scale": 1.0}),
}


@pytest.mark.parametrize("state, model", list(_EXTREME_QUADRATURE.values()), ids=list(_EXTREME_QUADRATURE))
def test_rate_quadrature_extreme_input_exits_numerical_quietly(tmp_path, state, model):
    # refused with one error line and no file; a fresh interpreter, where a
    # RuntimeWarning is printed rather than raised, shows any on stderr
    out = tmp_path / "q.csv"
    src = os.path.dirname(os.path.dirname(tpspeckle.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["rate", "--state", json.dumps(state), "--model", json.dumps(model), "--tau-min", "0",
            "--tau-max", "1", "--tau-n", "2", "--method", "quadrature", "--out", str(out)]
    proc = subprocess.run([sys.executable, "-m", "tpspeckle.cli", *argv], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 3
    assert proc.stderr.startswith("numerical failure: quadrature not converged") and proc.stderr.count("\n") == 1
    assert not out.exists()


def test_underflowing_width_is_full_suppression(tmp_path):
    # w = scale / delta = 1e-300 / 1e300 rounds to 0, an ordinary value: R = 1
    state = {"state": "fock", "omega_bar": 100.0, "delta": 1e300}
    model = {"model": "I", "scale": 1e-300}
    rate, sweep = tmp_path / "r.csv", tmp_path / "s.csv"
    assert main(["rate", "--state", json.dumps(state), "--model", json.dumps(model), "--tau-min", "-1",
                 "--tau-max", "1", "--tau-n", "5", "--out", str(rate)]) == 0
    assert main(["sweep", "--config", json.dumps({"state": state, "model": model, "tau": [0.0, 0.5]}),
                 "--out", str(sweep)]) == 0
    assert read_curve_csv(str(rate))[1][:, 1].tolist() == [1.0] * 5
    assert read_curve_csv(str(sweep))[1][:, -1].tolist() == [1.0] * 2


def test_rate_quadrature_model_ii_past_eta_minus(tmp_path):
    # the d axis follows the curve's largest |tau|, here 3 against |eta_-| = 1
    args = ["rate", "--state", ENT_STATE, "--model", '{"model": "II", "scale": 1.0}',
            "--tau-min", "-3", "--tau-max", "3", "--tau-n", "13"]
    quad, closed = tmp_path / "q.csv", tmp_path / "c.csv"
    assert main(args + ["--method", "quadrature", "--out", str(quad)]) == 0
    assert main(args + ["--out", str(closed)]) == 0
    np.testing.assert_allclose(read_curve_csv(str(quad))[1], read_curve_csv(str(closed))[1], rtol=0, atol=1e-6)


def test_rate_quadrature_reports_its_worst_error_estimate(tmp_path):
    args = ["rate", "--state", ENT_STATE, "--model", MODEL_I, "--tau-min", "-1", "--tau-max", "1",
            "--tau-n", "3", "--method", "quadrature"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert _read_bytes(a) == _read_bytes(b)
    lines = _read_bytes(a).decode().splitlines()
    assert lines[2].startswith("# config: ")
    prefix = "# quadrature error estimate, worst over the curve: "
    (note,) = [line for line in lines if line.startswith(prefix)]
    assert 0.0 < float(note[len(prefix):]) <= 1e-5


def test_rate_quadrature_refuses_a_degenerate_state(tmp_path):
    state = json.dumps({"state": "symmetrized", "omega_bar": 100.0, "sigma": 1e-6, "nu_o": 1.5,
                        "nu_e": 0.5, "theta": math.pi})
    out = tmp_path / "q.csv"
    args = ["rate", "--state", state, "--model", MODEL_I, "--tau-min", "0", "--tau-max", "1",
            "--tau-n", "3", "--method", "quadrature", "--out", str(out)]
    assert main(args) == 3
    assert not out.exists()


def test_rate_command_bad_state_exits_2(tmp_path):
    rc = main(
        ["rate", "--state", '{"state": "nope"}', "--model", MODEL_I,
         "--tau-min", "0", "--tau-max", "1", "--tau-n", "2",
         "--out", str(tmp_path / "x.csv")]
    )
    assert rc == 2


# --- figure

def test_figure_3_dataset(tmp_path):
    out = tmp_path / "fig3.csv"
    assert main(["figure", "--id", "3", "--out", str(out)]) == 0
    names, data = read_curve_csv(str(out))
    t = data[:, 0]
    zero_row = np.flatnonzero(t == 0.0)[0]
    for col, s in zip(range(1, 4), (0.0, 2.0, 8.0)):
        # value at t = 0 equals 1 + sqrt(pi)/s Erf(s/2); s -> 0 limit is 2
        expect = 2.0 if s == 0 else 1.0 + math.sqrt(math.pi) / s * math.erf(0.5 * s)
        assert data[zero_row, col] == pytest.approx(expect, rel=1e-12)
        assert np.allclose(data[np.abs(t) >= 1.0, col], 1.0, atol=1e-12)
    # peak height decreases with s
    assert data[zero_row, 1] > data[zero_row, 2] > data[zero_row, 3]


def test_figure_3_custom_s_values(tmp_path):
    out = tmp_path / "fig3b.csv"
    assert main(["figure", "--id", "3", "--s-values", "1.0", "4.0", "--out", str(out)]) == 0
    names, _ = read_curve_csv(str(out))
    assert len(names) == 3


def test_figure_7_antisymmetric_suppression(tmp_path):
    out = tmp_path / "fig7.csv"
    assert main(["figure", "--id", "7", "--out", str(out)]) == 0
    names, data = read_curve_csv(str(out))
    t = data[:, 0]
    col = names.index("r_theta=3.141593_w=inf")
    assert abs(data[np.flatnonzero(t == 0.0)[0], col]) < 1e-9


@pytest.mark.parametrize("model", ["I", "II"])
def test_figure_8_writes_no_negative_roundoff(tmp_path, model):
    # the theta = pi, w = inf column is a suppressed zero at every s, which
    # rounds to +-2.2e-16 at some of them
    out = tmp_path / "fig8.csv"
    assert main(["figure", "--id", "8", "--model", model, "--out", str(out)]) == 0
    names, data = read_curve_csv(str(out))
    assert np.all(data >= 0.0)
    assert np.all(data[:, names.index("r_theta=3.141593_w=inf")] < 1e-15)


def test_figure_2_requires_crystal(tmp_path):
    assert main(["figure", "--id", "2", "--out", str(tmp_path / "f2.csv")]) == 2
    rc = main(
        ["figure", "--id", "2", "--nu-o", "-0.073", "--nu-e", "-0.264",
         "--out", str(tmp_path / "f2.csv")]
    )
    assert rc == 0
    _, data = read_curve_csv(str(tmp_path / "f2.csv"))
    assert data[0, 1] == pytest.approx(1.0004606965712883, rel=1e-9)


def test_figure_unknown_id(tmp_path):
    assert main(["figure", "--id", "11", "--out", str(tmp_path / "x.csv")]) == 2


def test_figure_4_model_choice_recorded(tmp_path):
    out = tmp_path / "fig4.csv"
    assert main(["figure", "--id", "4", "--model", "I", "--out", str(out)]) == 0
    text = _read_bytes(out).decode()
    assert "correlation model: I" in text


# figure id -> (abscissa name, rows, first and last abscissa, rate columns)
_FIGURE_LAYOUT = {
    2: ("sigma_over_dw_cw", 151, 0.0, 3.0, ["ratio_o", "ratio_e"]),
    3: ("t", 241, -3.0, 3.0, ["r_s=0.0", "r_s=2.0", "r_s=8.0"]),
    4: ("t", 241, -3.0, 3.0, ["r_w=inf", "r_w=1.0", "r_w=0.3"]),
    5: ("t", 241, -5.0, 5.0, ["r_w=inf", "r_w=1.0", "r_w=0.3"]),
    6: ("t", 241, -5.0, 5.0, ["r_w=inf", "r_w=1.0", "r_w=0.3"]),
    7: ("t", 241, -3.0, 3.0, ["r_theta=0.0_w=inf", "r_theta=0.0_w=0.3",
                              "r_theta=3.141593_w=inf", "r_theta=3.141593_w=0.3"]),
    8: ("s", 161, 0.0, 8.0, [f"r_theta={theta}_w={w}"
                             for theta in ("0.0", "1.570796", "3.141593") for w in ("inf", "1.0", "0.3")]),
    9: ("t", 241, -3.0, 3.0, ["r_theta=0.0_s=4.0_w=inf", "r_theta=0.0_s=4.0_w=1.0", "r_theta=0.0_s=4.0_w=0.3",
                              "r_theta=1.570796_s=4.0_w=inf", "r_theta=1.570796_s=4.0_w=1.0",
                              "r_theta=1.570796_s=4.0_w=0.3"]),
    10: ("t", 241, -3.0, 3.0, ["r_theta=0.0_s=4.0_w=inf", "r_theta=0.0_s=4.0_w=1.0", "r_theta=0.0_s=4.0_w=0.3",
                               "r_theta=1.570796_s=0.0_w=inf", "r_theta=1.570796_s=0.0_w=1.0",
                               "r_theta=1.570796_s=0.0_w=0.3"]),
}


@pytest.mark.parametrize("model", ["I", "II"])
@pytest.mark.parametrize("figure_id", sorted(_FIGURE_LAYOUT))
def test_figure_layout_pinned(tmp_path, figure_id, model):
    xname, rows, first, last, columns = _FIGURE_LAYOUT[figure_id]
    out = tmp_path / "fig.csv"
    argv = ["figure", "--id", str(figure_id), "--model", model, "--out", str(out)]
    if figure_id == 2:
        argv += ["--nu-o", "-0.073", "--nu-e", "-0.264"]
    assert main(argv) == 0
    names, data = read_curve_csv(str(out))
    assert names == [xname] + columns
    assert data.shape == (rows, len(names))
    assert (data[0, 0], data[-1, 0]) == (first, last)
    assert np.all(np.isfinite(data))


def test_figure_3_huge_s_is_warning_free(tmp_path):
    # the flat-transmission peak 1 + (1-|t|) erf_ratio(s (1-|t|)) is 1 to
    # double precision at s = 1e200, and no branch of erf_ratio overflows
    out = tmp_path / "fig3.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["figure", "--id", "3", "--s-values", "1e200", "--out", str(out)]) == 0
    names, data = read_curve_csv(str(out))
    assert names == ["t", "r_s=1e+200"]
    assert np.all(data[:, 1] == 1.0)


# --- sweep

def test_sweep_rows_are_cartesian_product(tmp_path):
    cfg = {
        "state": json.loads(FOCK_STATE),
        "model": {"model": "I", "scale": 1.0},
        "tau": [0.0, 0.5, 1.0],
        "vary": {"delta": [0.5, 1.0]},
    }
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", json.dumps(cfg), "--out", str(out)]) == 0
    names, data = read_curve_csv(str(out))
    assert names == ["delta", "tau", "r"]
    assert data.shape[0] == 6


def test_sweep_single_point_matches_rate(tmp_path):
    cfg = {
        "state": json.loads(FOCK_STATE),
        "model": {"model": "I", "scale": 1.0},
        "tau": [1.0],
        "vary": {},
    }
    out = tmp_path / "one.csv"
    assert main(["sweep", "--config", json.dumps(cfg), "--out", str(out)]) == 0
    _, data = read_curve_csv(str(out))
    from tpspeckle import rate_fock

    assert data[0, -1] == pytest.approx(rate_fock(1.0, 1.0), rel=1e-12)


def test_sweep_varies_model_scale(tmp_path):
    from tpspeckle import ModelII, rate_closed_form

    taus = [-1.5, 0.0, 0.4]
    cfg = {"state": json.loads(ENT_STATE), "model": {"model": "II", "scale": 1.0}, "tau": taus,
           "vary": {"scale": [0.3, 1.0, 3.0]}}
    out = tmp_path / "scale.csv"
    assert main(["sweep", "--config", json.dumps(cfg), "--out", str(out)]) == 0
    names, data = read_curve_csv(str(out))
    assert names == ["scale", "tau", "r"]
    assert data[:, 0].tolist() == [0.3] * 3 + [1.0] * 3 + [3.0] * 3
    state = cli.state_from_config(cfg["state"])
    for scale in (0.3, 1.0, 3.0):
        rows = data[data[:, 0] == scale]
        assert np.array_equal(rows[:, 1], taus)
        assert np.array_equal(rows[:, 2], rate_closed_form(state, ModelII(omega_th=scale), taus))


def test_antisymmetric_cw_sweep_writes_no_negative_roundoff(tmp_path):
    # R(0) of the theta = pi state under flat transmission is 0 at every
    # pump width; sweep writes what rate_closed_form returns, unclamped
    s = np.linspace(0.0, 8.0, 401)[1:]
    state = {"state": "symmetrized", "omega_bar": 100.0, "sigma": 1.0, "nu_o": 1.5, "nu_e": 0.5, "theta": math.pi}
    cfg = {"state": state, "model": "cw", "vary": {"sigma": (s / 2.0).tolist()}, "tau": [0.0]}
    out = tmp_path / "anti.csv"
    assert main(["sweep", "--config", json.dumps(cfg), "--out", str(out)]) == 0
    r = read_curve_csv(str(out))[1][:, -1]
    assert r.size == s.size
    assert np.all((r >= 0.0) & (r < 1e-15))


def test_sweep_deterministic(tmp_path):
    cfg = {
        "state": json.loads(FOCK_STATE),
        "model": {"model": "I", "scale": 1.0},
        "tau": {"min": 0.0, "max": 2.0, "n": 5},
        "vary": {"delta": [1.0, 2.0]},
    }
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", json.dumps(cfg), "--out", str(a)]) == 0
    assert main(["sweep", "--config", json.dumps(cfg), "--out", str(b)]) == 0
    assert _read_bytes(a) == _read_bytes(b)


def test_cw_spellings_agree(tmp_path):
    # `rate --model` and a sweep's "model" share one parser: "cw", "CW" and
    # "cw-limit" all name the flat-transmission limit
    taus = [-1.0, -0.5, 0.0, 0.5, 1.0]
    curves = []
    for spelling in ("cw", "CW", "cw-limit"):
        out = tmp_path / "rate.csv"
        assert main(["rate", "--state", ENT_STATE, "--model", spelling, "--tau-min", "-1",
                     "--tau-max", "1", "--tau-n", "5", "--out", str(out)]) == 0
        curves.append(read_curve_csv(str(out))[1][:, 1])
        cfg = {"state": json.loads(ENT_STATE), "model": spelling, "tau": taus}
        assert main(["sweep", "--config", json.dumps(cfg), "--out", str(out)]) == 0
        curves.append(read_curve_csv(str(out))[1][:, 1])
    for curve in curves:
        assert np.array_equal(curve, curves[0])


# --- mc-validate

MC_CONFIG = {
    "seed": 424242,
    "t_bar": 0.01,
    "n_realizations": 2500,
    "cases": [
        {
            "state": {"state": "fock", "omega_bar": 100.0, "delta": 1.0},
            "model": {"model": "I", "scale": 1.0},
            "tau": 0.0,
        },
        {
            "state": {"state": "coherent", "omega_bar": 100.0, "delta": 1.0},
            "model": {"model": "I", "scale": 1.0},
            "tau": 0.5,
        },
    ],
}


def test_mc_validate_healthy(tmp_path):
    out = tmp_path / "mc.csv"
    assert main(["mc-validate", "--config", json.dumps(MC_CONFIG), "--out", str(out)]) == 0
    names, data = read_curve_csv(str(out))
    z = data[:, names.index("z_score")]
    assert np.all(np.abs(z) <= 4.0)


def test_mc_validate_detects_corruption(tmp_path, monkeypatch):
    closed_rate = cli.rate_closed_form
    monkeypatch.setattr(cli, "rate_closed_form", lambda state, model, tau: closed_rate(state, model, tau) + 0.5)
    out = tmp_path / "bad.csv"
    assert main(["mc-validate", "--config", json.dumps(MC_CONFIG), "--out", str(out)]) == 4


def test_mc_validate_model_ii_reports_z(tmp_path):
    # Model II cases run like Model I ones and are compared with the Model II closed forms
    cfg = dict(MC_CONFIG)
    cfg["cases"] = [{**case, "model": {"model": "II", "scale": 1.0}} for case in MC_CONFIG["cases"]]
    out = tmp_path / "mc2.csv"
    assert main(["mc-validate", "--config", json.dumps(cfg), "--out", str(out)]) == 0
    names, data = read_curve_csv(str(out))
    assert data.shape[0] == 2
    closed = [cli.rate_fock(0.0, 1.0, "II"), cli.rate_coherent(0.5, 1.0, "II")]
    np.testing.assert_allclose(data[:, names.index("closed_form")], closed, rtol=1e-15)
    z = data[:, names.index("z_score")]
    assert np.all(np.isfinite(z)) and np.all(np.abs(z) <= 4.0)


def test_mc_validate_std_error_scaling(tmp_path):
    # n = 100 vs 10000: SE ratio ~ 10 (Monte Carlo scaling), within 30%
    outs = {}
    for n in (100, 10_000):
        cfg = {
            "seed": 31415,
            "t_bar": 0.01,
            "n_realizations": n,
            "cases": [MC_CONFIG["cases"][0]],
        }
        out = tmp_path / f"mc{n}.csv"
        assert main(["mc-validate", "--config", json.dumps(cfg), "--out", str(out)]) == 0
        names, data = read_curve_csv(str(out))
        outs[n] = data[0, names.index("mc_std_error")]
    assert outs[100] / outs[10_000] == pytest.approx(10.0, rel=0.3)


# --- visibility

def test_visibility_command(tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    taus = np.concatenate([[0.0], np.geomspace(0.1, 60.0, 80)])
    rows = ["tau,r"] + [f"{float(t)!r},{float(1.0 + math.exp(-0.5 * t * t))!r}" for t in taus]
    curve.write_text("\n".join(rows) + "\n")
    assert main(["visibility", "--in", str(curve)]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(1.0 / 3.0, abs=1e-3)
    # a one-combination sweep writes sigma,tau,r: its rate column is read by
    # name, and gives the visibility of the same cw curve from ``rate``
    sweep = tmp_path / "sweep.csv"
    cfg = {"state": json.loads(ENT_STATE), "vary": {"sigma": [1.0]}, "tau": {"min": -20, "max": 20, "n": 81}}
    assert main(["sweep", "--config", json.dumps(cfg), "--out", str(sweep)]) == 0
    assert read_curve_csv(str(sweep))[0] == ["sigma", "tau", "r"]
    capsys.readouterr()
    assert main(["visibility", "--in", str(sweep)]) == 0
    assert capsys.readouterr().out.strip() == "0.2718864028793013"
    # an mc-validate report has a tau column but no rate column
    report = tmp_path / "report.csv"
    report.write_text("state,case,tau,closed_form,mc_mean\nentangled,0,0.0,2.0,2.0\n")
    assert main(["visibility", "--in", str(report)]) == 2
    assert "no r or mean column" in capsys.readouterr().err
    # figures 2 and 8 run over the pump width, not a delay
    for fig in (["--id", "2", "--nu-o", "-0.073", "--nu-e", "-0.264"], ["--id", "8", "--model", "II"]):
        figure = tmp_path / f"figure-{fig[1]}.csv"
        assert main(["figure", *fig, "--out", str(figure)]) == 0
        assert main(["visibility", "--in", str(figure)]) == 2
        assert "is not the delay t" in capsys.readouterr().err


def test_visibility_not_converged(tmp_path):
    curve = tmp_path / "curve.csv"
    taus = np.linspace(0.0, 2.0, 30)
    rows = ["tau,r"] + [f"{float(t)!r},{float(1.0 + math.exp(-0.5 * t * t))!r}" for t in taus]
    curve.write_text("\n".join(rows) + "\n")
    assert main(["visibility", "--in", str(curve)]) == 3


# --- environment seed default

def test_seed_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("TPSPECKLE_SEED", "777")
    from tpspeckle.cli import build_parser

    args = build_parser().parse_args(
        ["mc-validate", "--config", "{}", "--out", str(tmp_path / "x.csv")]
    )
    assert args.seed == 777


@pytest.mark.parametrize("command", ["rate", "mc-validate"])
def test_bad_seed_env_var_exits_2_where_a_seed_is_read(tmp_path, monkeypatch, capsys, command):
    monkeypatch.setenv("TPSPECKLE_SEED", "abc")
    out = tmp_path / "x.csv"
    argv = {
        "rate": ["rate", "--state", FOCK_STATE, "--model", MODEL_I, "--tau-min", "0", "--tau-max", "1",
                 "--tau-n", "2"],
        "mc-validate": ["mc-validate", "--config", "{}"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert "--seed: invalid int value: 'abc'" in capsys.readouterr().err
    assert not out.exists()


def test_seed_env_var_past_the_philox_key_exits_2(tmp_path, monkeypatch, capsys):
    # case k of mc-validate runs at seed + k, so the second case's key is 2**128
    monkeypatch.setenv("TPSPECKLE_SEED", str(2**128 - 1))
    out = tmp_path / "x.csv"
    assert main(["mc-validate", "--config", '{"n_realizations": 10}', "--out", str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["figure", "sweep", "visibility"])
def test_bad_seed_env_var_is_ignored_without_a_seed(tmp_path, monkeypatch, command):
    monkeypatch.setenv("TPSPECKLE_SEED", "abc")
    out = tmp_path / "x.csv"
    if command == "visibility":
        taus = np.concatenate([[0.0], np.geomspace(0.1, 60.0, 80)])
        rows = ["tau,r"] + [f"{float(t)!r},{float(1.0 + math.exp(-0.5 * t * t))!r}" for t in taus]
        out.write_text("\n".join(rows) + "\n")
    argv = {
        "figure": ["figure", "--id", "5", "--model", "I", "--out", str(out)],
        "sweep": ["sweep", "--config", json.dumps({"state": json.loads(FOCK_STATE)}), "--out", str(out)],
        "visibility": ["visibility", "--in", str(out)],
    }[command]
    assert main(argv) == 0


# --- monte-carlo rate method and the ensemble JSON interface

def test_rate_monte_carlo_csv_columns(tmp_path):
    out = tmp_path / "mc_curve.csv"
    ens = json.dumps(
        {
            "grid": {"half_width": 8.0, "n": 64, "center": 100.0},
            "model": {"model": "I", "scale": 1.0},
            "t_bar": 0.01,
            "n_realizations": 400,
            "seed": 7,
        }
    )
    rc = main(
        ["rate", "--state", FOCK_STATE, "--model", MODEL_I,
         "--tau-min", "0", "--tau-max", "1", "--tau-n", "3",
         "--method", "monte-carlo", "--ensemble", ens, "--out", str(out)]
    )
    assert rc == 0
    names, data = read_curve_csv(str(out))
    assert names == ["tau", "mean", "std_error", "n", "seed"]
    assert data.shape == (3, 5)
    assert np.all(data[:, 3] == 400)
    assert np.all(data[:, 4] == 7)


def test_rate_ensemble_without_seed_uses_seed_option(tmp_path):
    from tpspeckle import EnsembleConfig, ModelI, mc_default_grid

    out = tmp_path / "mc.csv"
    rc = main(["rate", "--state", FOCK_STATE, "--model", MODEL_I, "--tau-min", "0", "--tau-max", "1",
               "--tau-n", "2", "--method", "monte-carlo", "--ensemble", '{"n_realizations": 40}',
               "--seed", "5", "--out", str(out)])
    assert rc == 0
    names, data = read_curve_csv(str(out))
    assert np.all(data[:, names.index("seed")] == 5)
    header = next(line for line in _read_bytes(out).decode().splitlines() if line.startswith("# config: "))
    state = cli.state_from_config(json.loads(FOCK_STATE))
    model = ModelI(1.0)
    expect = EnsembleConfig(grid=mc_default_grid(state, model), model=model, n_realizations=40, seed=5)
    assert json.loads(header[len("# config: "):])["ensemble"] == cli.ensemble_to_config(expect)


@pytest.mark.parametrize(
    "partial",
    [{"t_bar": 0.01}, {"model": {"model": "I", "scale": 1.0}}, {"n_realizations": 10_000, "seed": 3},
     {"grid": {"half_width": 8.0, "n": 128}}],
    ids=["t_bar", "model", "realizations-seed", "grid"],
)
def test_partial_ensemble_equals_default(partial):
    from tpspeckle import EnsembleConfig, ModelI, mc_default_grid
    from tpspeckle.cli import ensemble_from_config, ensemble_to_config

    state = cli.state_from_config(json.loads(FOCK_STATE))
    model = ModelI(1.0)
    default = ensemble_from_config({}, state=state, model=model, seed=3)
    assert default == EnsembleConfig(grid=mc_default_grid(state, model), model=model, seed=3)
    assert default.grid.half_width == 8.0  # the "grid" case spells the default grid out
    assert ensemble_from_config(partial, state=state, model=model, seed=3) == default
    assert ensemble_from_config(ensemble_to_config(default), state=state, model=model, seed=0) == default


def test_ensemble_config_json_roundtrip():
    from tpspeckle import ModelII
    from tpspeckle.cli import ensemble_from_config, ensemble_to_config

    state = cli.state_from_config({"state": "fock", "omega_bar": 10.0, "delta": 1.0})
    cfg = ensemble_from_config(
        {"grid": {"half_width": 4.0, "n": 16}, "model": {"model": "II", "scale": 0.5},
         "t_bar": 0.02, "n_realizations": 50, "seed": 3},
        state=state,
        model=ModelII(0.5),
        seed=0,
    )
    assert cfg.grid.center == 10.0  # a grid without "center" sits on the state
    assert cfg.grid.n == 16
    assert cfg.t_bar == 0.02
    assert cfg.seed == 3
    assert ensemble_from_config(ensemble_to_config(cfg), state=state, model=ModelII(0.5), seed=0) == cfg


def test_figure_refinement_invariance(tmp_path):
    # closed-form figure values at shared abscissa points do not move when
    # the tau grid is refined (pure functions)
    from tpspeckle import rate_entangled_cw_limit

    out = tmp_path / "f3.csv"
    assert main(["figure", "--id", "3", "--out", str(out)]) == 0
    _, data = read_curve_csv(str(out))
    for row in data[:: len(data) // 10]:
        t = row[0]
        assert row[2] == pytest.approx(rate_entangled_cw_limit(t, 2.0), abs=1e-10)


def test_rate_command_antisymmetric_cw(tmp_path):
    # R(0) is a suppressed zero up to roundoff; the curve must still build
    state = json.dumps(
        {"state": "symmetrized", "omega_bar": 100.0, "sigma": 1e-7,
         "nu_o": 1.5, "nu_e": 0.5, "theta": math.pi}
    )
    out = tmp_path / "anti.csv"
    rc = main(["rate", "--state", state, "--model", "cw",
               "--tau-min", "-2", "--tau-max", "2", "--tau-n", "9", "--out", str(out)])
    assert rc == 0
    _, data = read_curve_csv(str(out))
    mid = data[4]
    assert mid[0] == 0.0 and abs(mid[1]) < 1e-9


# --- non-finite inputs and outputs

NAN = float("nan")
INF = float("inf")


def _rate_args(state: dict, out, model: str = MODEL_I):
    return ["rate", "--state", json.dumps(state), "--model", model,
            "--tau-min", "-1", "--tau-max", "1", "--tau-n", "3", "--out", str(out)]


@pytest.mark.parametrize(
    "key, value",
    [("sigma", NAN), ("sigma", INF), ("omega_bar", NAN), ("omega_bar", INF), ("nu_o", NAN), ("nu_e", -INF)],
)
def test_rate_rejects_non_finite_entangled_params(tmp_path, key, value):
    state = {**json.loads(ENT_STATE), key: value}
    out = tmp_path / "r.csv"
    assert main(_rate_args(state, out)) == 2
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("delta", NAN), ("delta", INF), ("omega_bar", NAN)])
def test_rate_rejects_non_finite_envelope_params(tmp_path, key, value):
    for kind in ("fock", "coherent"):
        state = {"state": kind, "omega_bar": 100.0, "delta": 1.0, key: value}
        out = tmp_path / f"{kind}.csv"
        assert main(_rate_args(state, out)) == 2
        assert not out.exists()


@pytest.mark.parametrize("scale", [NAN, INF])
def test_non_finite_model_scale_is_config_error(tmp_path, scale):
    for kind in ("I", "II"):
        model = json.dumps({"model": kind, "scale": scale})
        assert main(_rate_args(json.loads(FOCK_STATE), tmp_path / "r.csv", model)) == 2
        sweep = {"state": json.loads(FOCK_STATE), "model": {"model": kind, "scale": scale}}
        assert main(["sweep", "--config", json.dumps(sweep), "--out", str(tmp_path / "s.csv")]) == 2
    sweep = {"state": json.loads(FOCK_STATE), "model": {"model": "I", "scale": 1.0},
             "vary": {"scale": [1.0, scale]}}
    assert main(["sweep", "--config", json.dumps(sweep), "--out", str(tmp_path / "v.csv")]) == 2
    cfg = {**MC_CONFIG, "cases": [{**MC_CONFIG["cases"][0], "model": {"model": "I", "scale": scale}}]}
    assert main(["mc-validate", "--config", json.dumps(cfg), "--out", str(tmp_path / "m.csv")]) == 2
    assert not any(tmp_path.iterdir())


def test_rate_rejects_non_finite_tau(tmp_path):
    out = tmp_path / "r.csv"
    args = ["rate", "--state", FOCK_STATE, "--model", MODEL_I,
            "--tau-min", "nan", "--tau-max", "1", "--tau-n", "3", "--out", str(out)]
    assert main(args) == 2
    assert not out.exists()


@pytest.mark.parametrize("method", ["closed-form", "quadrature", "monte-carlo"])
def test_rate_rejects_overflowing_tau_axis(tmp_path, capsys, method):
    # the step 1e308 overflows: linspace gives the points [nan, inf, 1e308]
    out = tmp_path / "r.csv"
    args = ["rate", "--state", FOCK_STATE, "--model", MODEL_I, "--tau-min=-1e308", "--tau-max=1e308",
            "--tau-n", "3", "--method", method, "--out", str(out)]
    assert main(args) == 2
    assert "is not finite" in capsys.readouterr().err
    assert not out.exists()
    sweep = {"state": json.loads(FOCK_STATE), "tau": {"min": -1e308, "max": 1e308, "n": 3}}
    assert main(["sweep", "--config", json.dumps(sweep), "--out", str(out)]) == 2
    assert not out.exists()


def test_non_finite_rate_exits_numerical(tmp_path, monkeypatch):
    # a rate that comes out NaN from valid inputs is a numerical failure,
    # and no command may write it
    monkeypatch.setattr(cli, "rate_closed_form", lambda state, model, tau: np.full(np.shape(tau), NAN))
    out = tmp_path / "r.csv"
    assert main(_rate_args(json.loads(FOCK_STATE), out)) == 3
    assert not out.exists()

    monkeypatch.setattr(cli, "rate_closed_form", lambda state, model, tau: np.full(np.shape(tau), INF))
    sweep = {"state": json.loads(FOCK_STATE), "model": {"model": "I", "scale": 1.0}}
    out = tmp_path / "s.csv"
    assert main(["sweep", "--config", json.dumps(sweep), "--out", str(out)]) == 3
    assert not out.exists()

    monkeypatch.setattr(cli, "rate_fock", lambda t, w, kind="I": np.full(np.shape(t), NAN))
    out = tmp_path / "f5.csv"
    assert main(["figure", "--id", "5", "--model", "I", "--out", str(out)]) == 3
    assert not out.exists()
    assert not any(tmp_path.iterdir())


def test_out_of_memory_exits_numerical(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "mc_correlator_batch", exhausted)
    out = tmp_path / "mc.csv"
    assert main(["rate", "--state", ENT_STATE, "--model", MODEL_I, "--tau-min", "0", "--tau-max", "1",
                 "--tau-n", "2", "--method", "monte-carlo", "--out", str(out)]) == 3
    assert "Traceback" not in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("value, code", [(-1e-12, 0), (-1e-9, 3), (-0.5, 3)])
def test_negative_rate_past_roundoff_exits_numerical(tmp_path, capsys, monkeypatch, value, code):
    # a rate in (-1e-9, 0) is roundoff of a suppressed zero and is written
    # as 0; a more negative one refuses the curve
    monkeypatch.setattr(cli, "rate_closed_form", lambda state, model, tau: np.full(np.shape(tau), value))
    out = tmp_path / "r.csv"
    assert main(_rate_args(json.loads(FOCK_STATE), out)) == code
    assert "Traceback" not in capsys.readouterr().err
    if code:
        assert not out.exists()
    else:
        assert read_curve_csv(str(out))[1][:, 1].tolist() == [0.0] * 3


# --- one configuration boundary: every malformed config exits 2

_ENT = json.loads(ENT_STATE)
_ENSEMBLE = '{"grid": %s, "model": {"model": "I", "scale": 1.0}, "t_bar": 0.01, "n_realizations": 10}'
_BAD_GRIDS = ['{"center": NaN, "half_width": 8, "n": 64}', '{"half_width": Infinity, "n": 64}',
              '{"half_width": 8, "n": Infinity}', '{"half_width": 8, "n": 32.7}']


def _mc_validate(blob):
    return ["mc-validate", "--config", blob]


def _sweep(**cfg):
    return ["sweep", "--config", json.dumps({"state": _ENT, **cfg})]


def _rate_from(state):
    return ["rate", "--state", state, "--model", MODEL_I, "--tau-min", "0", "--tau-max", "1", "--tau-n", "2"]


def _mc_rate(ensemble):
    return ["rate", "--state", ENT_STATE, "--model", MODEL_I, "--tau-min", "0", "--tau-max", "1",
            "--tau-n", "2", "--method", "monte-carlo", "--ensemble", ensemble]


_BAD_CONFIGS = {
    "case-without-state": _mc_validate('{"cases": [{"model": {"model": "I", "scale": 1}}]}'),
    "t_bar-string": _mc_validate('{"t_bar": "x"}'),
    "t_bar-nan": _mc_validate('{"t_bar": NaN}'),
    "n_realizations-1": _mc_validate('{"n_realizations": 1}'),
    "n_realizations-inf": _mc_validate('{"n_realizations": Infinity}'),
    "seed-negative": _mc_validate('{"seed": -1, "n_realizations": 10}'),
    # int() would truncate a float or take a bool, and the run would exit 0
    "n_realizations-float": _mc_validate('{"n_realizations": 200.7}'),
    "seed-float": _mc_validate('{"seed": 2.0, "n_realizations": 10}'),
    "seed-bool": _mc_validate('{"seed": true, "n_realizations": 10}'),
    "ensemble-seed-float": _mc_rate('{"n_realizations": 10, "seed": 2.5}'),
    "tau-n-float": _sweep(tau={"min": 0, "max": 1, "n": 2.9}),
    "vary-string": _sweep(vary={"sigma": ["a"]}),
    "vary-number": _sweep(vary={"sigma": 3}),
    "vary-nested-list": _sweep(vary={"sigma": [[1.0]]}),
    "vary-list": _sweep(vary=[1.0]),
    "tau-dict-incomplete": _sweep(tau={"min": 0}),
    # a key the state kind does not read, or a misspelt one, would be ignored
    "state-key-foreign": ["rate", "--state", json.dumps({**json.loads(FOCK_STATE), "sigma": 9}), "--model", MODEL_I,
                          "--tau-min", "0", "--tau-max", "1", "--tau-n", "2"],
    "vary-key-misspelt": _sweep(vary={"deltaa": [0.5, 2.0]}),
    "vary-key-foreign": _sweep(vary={"theta": [0.0, 1.0]}),
    "vary-scale-cw": _sweep(model="cw", vary={"scale": [1.0, 2.0]}),
    # a misspelt key or an empty case list would fall back to the defaults
    "mc-validate-key-misspelt": _mc_validate('{"n_realisations": 2}'),
    "case-key-misspelt": _mc_validate('{"n_realizations": 10, "cases": [{"state": %s, "model": %s, "taus": 0.7}]}'
                                      % (FOCK_STATE, MODEL_I)),
    "cases-empty": _mc_validate('{"cases": []}'),
    "figure-crystal-degenerate": ["figure", "--id", "2", "--nu-o", "1", "--nu-e", "1"],
    "figure-s-negative": ["figure", "--id", "3", "--s-values", "0", "-1"],
    "figure-s-nan": ["figure", "--id", "3", "--s-values", "nan"],
    "figure-s-inf": ["figure", "--id", "3", "--s-values", "0", "inf"],
    "figure-nu-o-zero": ["figure", "--id", "2", "--nu-o", "0", "--nu-e", "-0.264"],
    "figure-nu-e-zero": ["figure", "--id", "2", "--nu-o", "-0.073", "--nu-e", "0"],
    "figure-nu-o-underflow": ["figure", "--id", "2", "--nu-o", "1e-200", "--nu-e", "-0.264"],
    "rate-tau-decreasing": ["rate", "--state", ENT_STATE, "--model", MODEL_I, "--tau-min", "1", "--tau-max", "-1",
                            "--tau-n", "3"],
    "rate-tau-n-1": ["rate", "--state", ENT_STATE, "--model", MODEL_I, "--tau-min", "0", "--tau-max", "1",
                     "--tau-n", "1"],
    "rate-tau-n-2**64": ["rate", "--state", ENT_STATE, "--model", MODEL_I, "--tau-min", "0", "--tau-max", "1",
                         "--tau-n", str(2**64)],
    "state-file-key-foreign": _rate_from("<state file: key-foreign>"),
    "state-file-not-json": _rate_from("<state file: not-json>"),
    # every frequency of a cw ensemble would share one draw
    "rate-monte-carlo-cw": ["rate", "--state", ENT_STATE, "--model", "cw", "--tau-min", "0", "--tau-max", "1",
                            "--tau-n", "2", "--method", "monte-carlo"],
    # a seed is a Philox key, below 2**128
    "ensemble-seed-2**128": _mc_rate('{"n_realizations": 10, "seed": %d}' % 2**128),
    "rate-seed-2**128": ["rate", "--state", ENT_STATE, "--model", MODEL_I, "--tau-min", "0", "--tau-max", "1",
                         "--tau-n", "2", "--method", "monte-carlo", "--seed", str(2**128)],
    # no numpy axis is longer than np.iinfo(np.intp).max
    "ensemble-n_realizations-2**64": _mc_rate('{"n_realizations": %d}' % 2**64),
    "ensemble-grid-n-2**64": _mc_rate(_ENSEMBLE % ('{"half_width": 8, "n": %d}' % 2**64)),
    "ensemble-key-misspelt": _mc_rate('{"grid": {"half_width": 8, "n": 64}, "model": {"model": "I", "scale": 1.0}, '
                                      '"t_bar": 0.01, "n_realizations": 10, "seeds": 3}'),
    "ensemble-grid-key-misspelt": _mc_rate(_ENSEMBLE % '{"centre": 99.0, "half_width": 8, "n": 64}'),
    "ensemble-model-differs": ["rate", "--state", ENT_STATE, "--model", '{"model": "II", "scale": 1.0}',
                               "--tau-min", "0", "--tau-max", "1", "--tau-n", "2", "--method", "monte-carlo",
                               "--ensemble", _ENSEMBLE % '{"half_width": 8, "n": 64}'],
    **{f"ensemble-grid-{i}": _mc_rate(_ENSEMBLE % g) for i, g in enumerate(_BAD_GRIDS)},
    # a sweep with no values would write a header-only file
    "sweep-tau-empty": _sweep(tau=[]),
    "sweep-tau-n-0": _sweep(tau={"min": 0, "max": 1, "n": 0}),
    "sweep-vary-empty": _sweep(vary={"sigma": []}),
    # a misspelt or foreign key in any JSON object the CLI reads
    "sweep-key-misspelt": _sweep(taus=[0.5, 1.0]),
    "tau-axis-key-foreign": _sweep(tau={"min": 0, "max": 1, "n": 3, "step": 9}),
    "model-key-foreign": ["rate", "--state", ENT_STATE, "--model", '{"model": "I", "scale": 1.0, "omega_corr": 3}',
                          "--tau-min", "0", "--tau-max", "1", "--tau-n", "2"],
    # float() would read a string or a bool as a number
    "state-number-string": _rate_from(json.dumps({**json.loads(FOCK_STATE), "omega_bar": "100"})),
    "model-scale-bool": ["rate", "--state", ENT_STATE, "--model", '{"model": "I", "scale": true}',
                         "--tau-min", "0", "--tau-max", "1", "--tau-n", "2"],
    "vary-value-string": _sweep(vary={"sigma": ["1.0"]}),
    "tau-string": _sweep(tau=["0.5"]),
    "ensemble-t_bar-bool": _mc_rate('{"n_realizations": 10, "t_bar": true}'),
    **{f"case-grid-{i}": _mc_validate('{"n_realizations": 10, "cases": [{"state": %s, "model": %s, "grid": %s}]}'
                                      % (ENT_STATE, MODEL_I, g))
       for i, g in enumerate(_BAD_GRIDS)},
}


# `--state` takes a path as well as a JSON blob: each of these words stands
# for a file holding the text
_STATE_FILES = {
    "<state file: key-foreign>": json.dumps({**json.loads(FOCK_STATE), "sigma": 9}),
    "<state file: not-json>": '{"state": "fock", "omega_bar": 100.0, "delta": 1.0',
}


@pytest.mark.parametrize("argv", list(_BAD_CONFIGS.values()), ids=list(_BAD_CONFIGS))
def test_malformed_config_exits_2(tmp_path, tmp_path_factory, capsys, argv):
    state = tmp_path_factory.mktemp("inputs") / "state.json"
    for word in set(argv) & set(_STATE_FILES):
        state.write_text(_STATE_FILES[word])
    argv = [str(state) if word in _STATE_FILES else word for word in argv]
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "text",
    ["tau\n0\n1\n", "tau,r\n0,2\n1\n", "tau,r\n0,2\n-1,1.5\n",
     "tau,r\n0,2\n1,-0.5\n2,1\n", "tau,r\n0,2\n1,abc\n2,1\n", "tau,r\n1,2\n2,1\n3,1\n"],
    ids=["one-column", "ragged", "decreasing-tau", "negative-rate", "non-numeric-cell", "no-tau-zero"],
)
def test_malformed_visibility_input_exits_2(tmp_path, capsys, text):
    curve = tmp_path / "curve.csv"
    curve.write_text(text)
    assert main(["visibility", "--in", str(curve)]) == 2
    assert "Traceback" not in capsys.readouterr().err


# --- property: no config leaf, option value or curve cell makes a command crash

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_VALID_SWEEP = {
    "state": {"state": "fock", "omega_bar": 100.0, "delta": 1.0},
    "model": {"model": "I", "scale": 1.0},
    "vary": {"delta": [1.0, 2.0]},
    "tau": [0.0, 0.5],
}
_VALID_MC = {
    "seed": 3,
    "t_bar": 0.01,
    "n_realizations": 40,
    "cases": [
        {"state": {"state": "entangled", "omega_bar": 100.0, "sigma": 1.0, "nu_o": 1.5, "nu_e": 0.5},
         "model": {"model": "I", "scale": 1.0}, "grid": {"half_width": 8.0, "n": 32}, "tau": 0.5},
        {"state": {"state": "coherent", "omega_bar": 100.0, "delta": 1.0},
         "model": {"model": "I", "scale": 1.0}, "grid": {"half_width": 8.0, "n": 32}, "tau": 0.0},
    ],
}
# the JSON blobs of `rate --state/--model/--ensemble`
_VALID_RATE = {
    "state": {"state": "entangled", "omega_bar": 100.0, "sigma": 1.0, "nu_o": 1.5, "nu_e": 0.5},
    "model": {"model": "I", "scale": 1.0},
    "ensemble": {"grid": {"half_width": 8.0, "n": 32}, "model": {"model": "I", "scale": 1.0},
                 "t_bar": 0.01, "n_realizations": 40, "seed": 3},
}
_RATE_OPTIONS = ["--tau-min", "-1", "--tau-max", "1", "--tau-n", "3", "--method", "monte-carlo"]
_FIGURE_OPTIONS = [
    ["--id", "2", "--nu-o", "-0.073", "--nu-e", "-0.264"],
    ["--id", "3", "--s-values", "0", "2"],
    ["--id", "5", "--model", "I"],
]
_CURVE = [["tau", "r"], ["-1", "1.5"], ["0", "2"], ["1", "1.5"], ["2", "1.0"]]
_BAD_LEAVES = [NAN, INF, -INF, -1, 0, "a", None, [], {}, True]
_BAD_WORDS = ["nan", "inf", "-inf", "-1", "0", "1", "a", "", "1e999", "2.5"]


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(node, list) and node:
        for i, value in enumerate(node):
            yield from _leaf_paths(value, path + (i,))
    else:
        yield path


def _replaced(cfg, path, value):
    cfg = json.loads(json.dumps(cfg))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


def _value_slots(options):
    return [i for i, word in enumerate(options) if not word.startswith("--")]


def _rate_argv(cfg, options):
    return ["rate", "--state", json.dumps(cfg["state"]), "--model", json.dumps(cfg["model"]),
            "--ensemble", json.dumps(cfg["ensemble"]), *options]


def _mutated_argv(kind, where, value, tmp_path):
    if kind in ("sweep", "mc-validate"):
        valid = _VALID_SWEEP if kind == "sweep" else _VALID_MC
        return [kind, "--config", json.dumps(_replaced(valid, where, value))]
    if kind == "rate":
        return _rate_argv(_replaced(_VALID_RATE, where, value), _RATE_OPTIONS)
    if kind == "rate-option":
        return _rate_argv(_VALID_RATE, _replaced(_RATE_OPTIONS, (where,), value))
    if kind == "rate-state-file":
        state = tmp_path / "state.json"
        state.write_text(json.dumps(_replaced(_VALID_RATE["state"], where, value)))
        argv = _rate_argv(_VALID_RATE, _RATE_OPTIONS)
        argv[argv.index("--state") + 1] = str(state)
        return argv
    if kind == "figure":
        figure, slot = where
        return ["figure", *_replaced(_FIGURE_OPTIONS[figure], (slot,), value)]
    curve = tmp_path / "curve.csv"
    curve.write_text("".join(",".join(row) + "\n" for row in _replaced(_CURVE, where, value)))
    return ["visibility", "--in", str(curve)]


_MUTATIONS = st.one_of(
    st.tuples(st.just("sweep"), st.sampled_from(list(_leaf_paths(_VALID_SWEEP))), st.sampled_from(_BAD_LEAVES)),
    st.tuples(st.just("mc-validate"), st.sampled_from(list(_leaf_paths(_VALID_MC))), st.sampled_from(_BAD_LEAVES)),
    st.tuples(st.just("rate"), st.sampled_from(list(_leaf_paths(_VALID_RATE))), st.sampled_from(_BAD_LEAVES)),
    st.tuples(st.just("rate-option"), st.sampled_from(_value_slots(_RATE_OPTIONS)), st.sampled_from(_BAD_WORDS)),
    st.tuples(st.just("rate-state-file"), st.sampled_from(list(_leaf_paths(_VALID_RATE["state"]))),
              st.sampled_from(_BAD_LEAVES)),
    st.tuples(st.just("figure"),
              st.sampled_from([(k, i) for k, options in enumerate(_FIGURE_OPTIONS) for i in _value_slots(options)]),
              st.sampled_from(_BAD_WORDS)),
    st.tuples(st.just("visibility"), st.sampled_from(list(_leaf_paths(_CURVE))), st.sampled_from(_BAD_WORDS)),
)


def _exit_code(argv):
    """The process exit code of ``tpspeckle argv``: argparse usage errors raise SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=_MUTATIONS)
def test_config_leaf_never_crashes(tmp_path, capsys, mutation):
    kind, where, value = mutation
    out = tmp_path / "x.csv"
    if out.exists():
        out.unlink()
    argv = _mutated_argv(kind, where, value, tmp_path)
    rc = _exit_code(argv if kind == "visibility" else argv + ["--out", str(out)])
    assert rc in (0, 2, 3, 4)
    assert "Traceback" not in capsys.readouterr().err
    assert rc == 0 or not out.exists()



def _key_paths(node, path=()):
    """The path of every key of every JSON object inside ``node``."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,)
            yield from _key_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _key_paths(value, path + (i,))


def _renamed(cfg, path):
    cfg = json.loads(json.dumps(cfg))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1] + "_x"] = node.pop(path[-1])
    return cfg


_TAU_AXIS = {"min": 0.0, "max": 0.5, "n": 2}
_RENAMES = [
    *(("sweep", _VALID_SWEEP, path) for path in _key_paths(_VALID_SWEEP)),
    *(("sweep", {**_VALID_SWEEP, "tau": _TAU_AXIS}, path) for path in _key_paths(_TAU_AXIS, ("tau",))),
    *(("mc-validate", _VALID_MC, path) for path in _key_paths(_VALID_MC)),
    # the top level of _VALID_RATE names options, not JSON keys
    *(("rate", _VALID_RATE, path) for path in _key_paths(_VALID_RATE) if len(path) > 1),
]


@pytest.mark.parametrize("command, cfg, path", _RENAMES,
                         ids=[f"{c}:{'.'.join(map(str, path))}" for c, _, path in _RENAMES])
def test_renamed_key_exits_2(tmp_path, capsys, command, cfg, path):
    cfg = _renamed(cfg, path)
    argv = _rate_argv(cfg, _RATE_OPTIONS) if command == "rate" else [command, "--config", json.dumps(cfg)]
    assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("method", ["quadrature", "monte-carlo"])
def test_monochromatic_pump_exits_3(tmp_path, capsys, method):
    # sigma = 0 has no square-integrable amplitude: a numerical failure on
    # both routes that need one, not a traceback
    state = json.dumps({**json.loads(ENT_STATE), "sigma": 0.0})
    out = tmp_path / "r.csv"
    assert main(["rate", "--state", state, "--model", MODEL_I, "--tau-min", "0", "--tau-max", "1",
                 "--tau-n", "2", "--method", method, "--out", str(out)]) == 3
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()
