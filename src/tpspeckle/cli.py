"""Command-line front end: rate curves, figure datasets, sweeps, MC validation.

Every emitted CSV starts with ``#``-prefixed comment lines recording the
package version and the fully resolved configuration (sorted-key JSON), so
a dataset can be regenerated bit-identically from its own header.  Files
are written atomically (temp file + rename).  Exit codes: 0 success,
2 configuration error, 3 numerical failure (running out of memory
included), 4 validation failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import asdict
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .correlation import CorrelationModel, FrequencyGrid, ModelI, ModelII, _model_scale
from .errors import NonFiniteValueError, TpspeckleError
from .montecarlo import EnsembleConfig, mc_correlator, mc_correlator_batch, mc_default_grid
from .rates import (
    DimensionlessArgs,
    rate_closed_form,
    rate_coherent,
    rate_entangled,
    rate_entangled_cw_limit,
    rate_fock,
    rate_numeric_batch,
    rate_theta,
    visibility,
)
from .states import (
    CoherentState,
    CrystalParams,
    EntangledState,
    FockState,
    PumpParams,
    StateSpec,
    SymmetrizedState,
    spectral_width_ratio,
)

SEED_ENV_VAR = "TPSPECKLE_SEED"
EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VALIDATION = 4


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# Config parsing

@contextmanager
def _config_boundary(command: str):
    """Each command parses all of its configuration in this block: a malformed value exits 2."""
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ConfigError(f"bad {command} config: {exc!r}") from exc


def _object(cfg, what: str, keys) -> dict:
    """``cfg``; ``ValueError`` for a non-object or any key outside ``keys`` (no misspelt key falls back)."""
    if not isinstance(cfg, dict):
        raise ValueError(f"{what} must be a JSON object, got {cfg!r}")
    unknown = sorted(set(cfg) - set(keys))
    if unknown:
        raise ValueError(f"unknown {what} key(s) {unknown}; valid keys: {sorted(keys)}")
    return cfg


def _json_int(value, name: str) -> int:
    """``value`` if it is an integer; ``TypeError`` for a bool or a float
    such as 2.5 or 2.0, which ``int()`` would truncate or take silently."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def _json_float(value, name: str) -> float:
    """``value`` as a float; ``TypeError`` for a string or a bool, which ``float()`` would take."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


def _finite(x, name: str) -> float:
    x = _json_float(x, name)
    if not math.isfinite(x):
        raise ValueError(f"{name} {x!r} is not finite")
    return x


def _tau_axis(lo: float, hi: float, n: int) -> List[float]:
    """``n`` evenly spaced taus from ``lo`` to ``hi``.  A step past the double
    range makes points NaN or infinite, without a warning: the caller refuses them."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linspace(lo, hi, n).tolist()


def _load_json(blob: str):
    """The one place a string becomes JSON: a file path or inline JSON."""
    if os.path.exists(blob):
        with open(blob, "r", encoding="utf-8") as fh:
            return json.load(fh)
    try:
        return json.loads(blob)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not a file and not valid JSON: {blob!r} ({exc})") from exc


_STATE_KEYS = {
    "entangled": {"omega_bar", "sigma", "nu_o", "nu_e"},
    "symmetrized": {"omega_bar", "sigma", "nu_o", "nu_e", "theta"},
    "fock": {"omega_bar", "delta"},
    "coherent": {"omega_bar", "delta"},
}
# a sweep varies state parameters and the model scale; the state parser
# then refuses a parameter its kind does not read
_VARY_KEYS = set().union(*_STATE_KEYS.values()) | {"scale"}


def state_from_config(cfg) -> StateSpec:
    """Parse a state ``{"state": kind, ...}``; a key its kind does not read raises ``ValueError``."""
    kind = cfg["state"] if isinstance(cfg, dict) else None
    if kind not in _STATE_KEYS:
        raise ConfigError(f"unknown state kind {kind!r}")
    _object(cfg, f"{kind} state", _STATE_KEYS[kind] | {"state"})
    v = {key: _json_float(cfg[key], key) for key in _STATE_KEYS[kind]}
    if kind in ("entangled", "symmetrized"):
        pump = PumpParams(v["omega_bar"], v["sigma"])
        crystal = CrystalParams(v["nu_o"], v["nu_e"])
        if kind == "entangled":
            return EntangledState(pump=pump, crystal=crystal)
        return SymmetrizedState(pump=pump, crystal=crystal, theta=v["theta"])
    if kind == "fock":
        return FockState(omega_bar=v["omega_bar"], delta=v["delta"])
    return CoherentState(omega_bar=v["omega_bar"], delta=v["delta"])


def state_to_config(state: StateSpec) -> dict:
    if isinstance(state, (EntangledState, SymmetrizedState)):
        cfg = {
            "state": "entangled",
            "omega_bar": state.pump.omega_bar,
            "sigma": state.pump.sigma,
            "nu_o": state.crystal.nu_o,
            "nu_e": state.crystal.nu_e,
        }
        if isinstance(state, SymmetrizedState):
            cfg.update(state="symmetrized", theta=state.theta)
        return cfg
    kind = "fock" if isinstance(state, FockState) else "coherent"
    return {"state": kind, "omega_bar": state.omega_bar, "delta": state.delta}


def model_from_config(cfg) -> CorrelationModel:
    """Parse the {"model": "I"|"II", "scale": <rad/time>} wire format; its scale is finite."""
    cfg = _object(cfg, "model", {"model", "scale"})
    kind, scale = cfg["model"], _finite(cfg["scale"], "model scale")
    if kind == "I":
        return ModelI(omega_corr=scale)
    if kind == "II":
        return ModelII(omega_th=scale)
    raise ValueError(f"unknown correlation model {kind!r}")


def model_to_config(model: CorrelationModel):
    """Serialize to the {"model": "I"|"II", "scale": <rad/time>} wire format, or "cw" at infinite scale."""
    if math.isinf(_model_scale(model)):
        return "cw"
    if isinstance(model, ModelI):
        return {"model": "I", "scale": model.omega_corr}
    return {"model": "II", "scale": model.omega_th}


def _parse_model(cfg):
    """The correlation model of ``rate --model`` or a sweep's ``"model"``.

    "cw", "CW" or "cw-limit" is flat transmission, ``ModelI`` at infinite
    scale; any other string is JSON (inline or a file path) in the model
    wire format.
    """
    if isinstance(cfg, str):
        if cfg.strip().lower() in ("cw", "cw-limit"):
            return ModelI(math.inf)
        cfg = _load_json(cfg)
    return model_from_config(cfg)


def ensemble_from_config(cfg, *, state: StateSpec, model: CorrelationModel, seed: int) -> EnsembleConfig:
    """Parse ``{"grid": {"center", "half_width", "n"}, "model", "t_bar", "n_realizations", "seed"}``.

    Every key is optional: grid ``mc_default_grid(state, model)`` (a given
    grid without ``center`` is centered on the state), the run's ``model``
    (another raises ``ValueError``), seed ``seed``, and ``EnsembleConfig``'s
    ``t_bar`` and ``n_realizations``.
    """
    cfg = _object(cfg, "ensemble", {"grid", "model", "t_bar", "n_realizations", "seed"})
    if "model" in cfg:
        given = model_from_config(cfg["model"])
        if given != model:
            raise ValueError(f"ensemble model {given!r} differs from the run's model {model!r}")
    grid = mc_default_grid(state, model)
    if "grid" in cfg:
        g = _object(cfg["grid"], "ensemble grid", {"center", "half_width", "n"})
        center = _json_float(g["center"], "grid center") if "center" in g else grid.center
        grid = FrequencyGrid(center, _json_float(g["half_width"], "grid half_width"), _json_int(g["n"], "grid n"))
    return EnsembleConfig(
        grid=grid,
        model=model,
        t_bar=_json_float(cfg.get("t_bar", EnsembleConfig.t_bar), "t_bar"),
        n_realizations=_json_int(cfg.get("n_realizations", EnsembleConfig.n_realizations), "n_realizations"),
        seed=_json_int(cfg.get("seed", seed), "seed"),
    )


def ensemble_to_config(ens: EnsembleConfig) -> dict:
    """The wire format of an ensemble; ``ensemble_from_config`` reads it back."""
    return {**asdict(ens), "model": model_to_config(ens.model)}


# ---------------------------------------------------------------------------
# CSV output

def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(float(x))  # shortest round-trip; normalizes numpy scalars
    return str(x)


def write_csv(path: str, comment_lines: Sequence[str], column_names: Sequence[str], rows) -> None:
    """Atomic CSV write: '#' comment header, comma separators, LF endings.

    A NaN or infinite number raises ``NonFiniteValueError`` and leaves no file.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            for line in comment_lines:
                fh.write(f"# {line}\n")
            fh.write(",".join(column_names) + "\n")
            for row in rows:
                if any(isinstance(x, float) and not math.isfinite(x) for x in row):
                    raise NonFiniteValueError(f"non-finite value in output row {list(row)}")
                fh.write(",".join(_fmt(x) for x in row) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_curve_csv(path: str) -> Tuple[List[str], np.ndarray]:
    """Read one of our CSVs; non-numeric cells become NaN."""

    def cell(x: str) -> float:
        try:
            return float(x)
        except ValueError:
            return math.nan

    names: List[str] = []
    data: List[List[float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if not names:
                names = line.split(",")
                continue
            data.append([cell(x) for x in line.split(",")])
    if not names or not data:
        raise ConfigError(f"no data rows in {path}")
    return names, np.asarray(data)


def _header(command: str, config: dict, notes: Sequence[str] = ()) -> List[str]:
    lines = [
        f"tpspeckle {__version__}",
        f"command: {command}",
        "config: " + json.dumps(config, sort_keys=True),
    ]
    lines.extend(notes)
    return lines


# ---------------------------------------------------------------------------
# rate

def cmd_rate(args) -> int:
    with _config_boundary("rate"):
        state = state_from_config(_load_json(args.state))
        model = _parse_model(args.model)
        most = np.iinfo(np.intp).max
        if not 2 <= args.tau_n <= most:
            raise ConfigError(f"tau-n must be >= 2 and at most {most}")
        taus = [_finite(tau, "tau") for tau in _tau_axis(args.tau_min, args.tau_max, args.tau_n)]
        if not args.tau_min < args.tau_max:
            raise ConfigError("tau-min must be below tau-max")
        if args.method == "monte-carlo":
            spec = {} if args.ensemble is None else _load_json(args.ensemble)
            ens = ensemble_from_config(spec, state=state, model=model, seed=args.seed)
    config = {
        "state": state_to_config(state),
        "model": model_to_config(model),
        "tau_grid": [args.tau_min, args.tau_max, args.tau_n],
        "method": args.method,
    }

    notes = []
    if args.method == "monte-carlo":
        config["ensemble"] = ensemble_to_config(ens)
        estimates = mc_correlator_batch(state, ens, taus)
        columns = ["tau", "mean", "std_error", "n", "seed"]
        rows = [(tau, e.mean, e.std_error, e.n, ens.seed) for tau, e in zip(taus, estimates)]
    else:
        if args.method == "quadrature":
            results = rate_numeric_batch(state, model, taus)
            rs = np.array([res.value for res in results])
            worst = float(max(res.error for res in results))
            notes.append(f"quadrature error estimate, worst over the curve: {worst!r}")
        else:
            rs = np.array(rate_closed_form(state, model, taus), dtype=float)
        # suppressed antisymmetric rates can round to -1e-13; clamp roundoff only
        rs[(rs < 0.0) & (rs > -1e-9)] = 0.0
        if (rs < 0.0).any():
            raise TpspeckleError(f"negative coincidence rate {float(rs.min())!r} beyond roundoff")
        columns, rows = ["tau", "r"], zip(taus, rs.tolist())
    write_csv(args.out, _header("rate", config, notes), columns, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# figure

FIGURE_MODEL_DEFAULT = "II"  # captions quote Thouless frequencies
_W_SET = (math.inf, 1.0, 0.3)


def _w_label(w: float) -> str:
    return "inf" if math.isinf(w) else repr(float(w))


def _figure_dataset(figure_id, kind, args):
    """Return (abscissa_name, abscissa, column names, column arrays, notes)."""
    notes = []
    if figure_id == 2:
        if args.nu_o is None or args.nu_e is None:
            raise ConfigError("figure 2 needs --nu-o and --nu-e (no values are printed in the source)")
        sig = np.linspace(0.0, 3.0, 151)  # sigma in units of dw_cw
        with _config_boundary("figure"):
            crystal = CrystalParams(args.nu_o, args.nu_e)
            dw_cw = 2.78 / abs(crystal.eta_minus)
            ratios = np.array([spectral_width_ratio(s * dw_cw, crystal) for s in sig])
        notes.append("nu_o, nu_e are user inputs; literature-style placeholders, not source values")
        return "sigma_over_dw_cw", sig, ["ratio_o", "ratio_e"], [ratios[:, 0], ratios[:, 1]], notes

    xname, x, names, groups = _figure_columns(figure_id, kind, args, notes)
    columns = {}
    for group, rate in groups:
        columns.update(zip(group, np.atleast_2d(rate(x))))
    return xname, x, names, [columns[name] for name in names], notes


def _one_call_per_column(xname, x, columns):
    """``_figure_columns``' return for [(column name, rate over the abscissa)]."""
    return xname, x, [name for name, _ in columns], [([name], rate) for name, rate in columns]


def _figure_columns(figure_id, kind, args, notes):
    """(abscissa name, abscissa, column names, groups) of figures 3..10.

    The names are the CSV's columns in order.  Each group is (its column
    names, a rate over the abscissa array) whose call gives those columns,
    one row each (or the one column itself).  A symmetrized figure makes
    one ``rate_theta`` call per (s, w) with a column of its theta values,
    so the theta columns share their integrals; every other column is a
    call of its own.  The rate functions are looked up in this module's
    namespace during the call, not bound at import, because the
    benchmark's tracer (``perfbench/tracer.py``) wraps the ``cli.rate_*``
    attributes to time them; each is evaluated once per group, with the
    whole abscissa array.
    """
    t = np.linspace(-3.0, 3.0, 241)
    if figure_id == 3:
        svals = args.s_values if args.s_values is not None else [0.0, 2.0, 8.0]
        if not all(math.isfinite(s) and s >= 0 for s in svals):
            raise ConfigError(f"--s-values must be finite and >= 0, got {svals}")
        if args.s_values is None:
            notes.append("s values are placeholders (figure shows them graphically); override with --s-values")
        return _one_call_per_column(
            "t", t, [(f"r_s={_fmt(float(s))}", lambda x, s=s: rate_entangled_cw_limit(x, s)) for s in svals]
        )
    if not 4 <= figure_id <= 10:
        raise ConfigError(f"unknown figure id {figure_id} (valid: 2..10)")

    notes.append(f"correlation model: {kind} (captions leave it implicit; --model overrides)")
    if figure_id == 4:
        return _one_call_per_column(
            "t", t, [(f"r_w={_w_label(w)}", lambda x, w=w: rate_entangled(x, 0.0, w, kind)) for w in _W_SET]
        )
    if figure_id in (5, 6):
        rate = rate_fock if figure_id == 5 else rate_coherent
        columns = [(f"r_w={_w_label(w)}", lambda x, w=w: rate(x, w, kind)) for w in _W_SET]
        return _one_call_per_column("t", np.linspace(-5.0, 5.0, 241), columns)

    def name(theta, s, w):
        s_part = f"_s={_fmt(s)}" if figure_id in (9, 10) else ""
        return f"r_theta={_fmt(round(theta, 6))}{s_part}_w={_w_label(w)}"

    def theta_columns(xname, x, pairs, ws, rate):
        """Columns theta-major over the (theta, s) pairs and the ws, in one
        group per (s, w) over a column of its theta values."""
        names = [name(theta, s, w) for theta, s in pairs for w in ws]
        groups = []
        for s in dict.fromkeys(s for _, s in pairs):
            thetas = [theta for theta, other in pairs if other == s]
            column = np.array(thetas)[:, None]
            for w in ws:
                groups.append(([name(theta, s, w) for theta in thetas],
                               lambda x, s=s, w=w, column=column: rate(x, s, w, column)))
        return xname, x, names, groups

    def over_t(x, s, w, theta):
        return rate_theta(x, s, w, theta, kind)

    if figure_id == 7:
        return theta_columns("t", t, [(0.0, 0.0), (math.pi, 0.0)], (math.inf, 0.3), over_t)
    if figure_id == 8:
        pairs = [(theta, None) for theta in (0.0, math.pi / 2, math.pi)]
        return theta_columns("s", np.linspace(0.0, 8.0, 161), pairs, _W_SET,
                             lambda x, s, w, theta: rate_theta(0.0, x, w, theta, kind))
    pairs = [(0.0, 4.0), (math.pi / 2, 4.0)] if figure_id == 9 else [(0.0, 4.0), (math.pi / 2, 0.0)]
    return theta_columns("t", t, pairs, _W_SET, over_t)


def cmd_figure(args) -> int:
    xname, x, names, cols, notes = _figure_dataset(args.id, args.model, args)
    config = {
        "figure": args.id,
        "model": args.model,
        "nu_o": args.nu_o,
        "nu_e": args.nu_e,
        "s_values": args.s_values,
    }
    rows = zip(x.tolist(), *(c.tolist() for c in cols))
    write_csv(args.out, _header("figure", config, notes), [xname] + names, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep

def cmd_sweep(args) -> int:
    with _config_boundary("sweep"):
        cfg = _object(_load_json(args.config), "sweep", {"state", "model", "vary", "tau"})
        base_state = cfg["state"]
        model_cfg = cfg.get("model", "cw")
        vary = _object(cfg.get("vary", {}), "vary", _VARY_KEYS)
        taus = cfg.get("tau", [0.0])
        if isinstance(taus, dict):
            axis = _object(taus, "tau axis", {"min", "max", "n"})
            taus = _tau_axis(_finite(axis["min"], "tau min"), _finite(axis["max"], "tau max"),
                             _json_int(axis["n"], "tau n"))
        tau_values = [_finite(tau, "tau") for tau in taus]
        model = _parse_model(model_cfg)
        vary_keys = sorted(vary)
        values = [[_finite(v, key) for v in vary[key]] for key in vary_keys]
        if not (tau_values and all(values)):
            raise ValueError(f"a sweep needs at least one tau and one value per varied key, got {cfg!r}")
        points = []
        for combo in itertools.product(*values):
            scfg = dict(base_state)
            mdl = model
            for key, val in zip(vary_keys, combo):
                if key == "scale":
                    if math.isinf(_model_scale(model)):
                        raise ConfigError("cannot vary 'scale' of the cw model")
                    mdl = model_from_config({**model_to_config(model), "scale": val})
                else:
                    scfg[key] = val
            points.append((list(combo), state_from_config(scfg), mdl))

    rows = [
        combo + [tau, float(r)]
        for combo, state, mdl in points
        for tau, r in zip(tau_values, rate_closed_form(state, mdl, tau_values))
    ]
    config = {"state": base_state, "model": model_cfg, "vary": vary, "tau": taus}
    write_csv(
        args.out,
        _header("sweep", config),
        vary_keys + ["tau", "r"],
        rows,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# mc-validate

def _default_mc_cases() -> List[dict]:
    cases = []
    for s, w, tau in ((0.5, 1.0, 0.0), (2.0, 0.3, 0.5)):
        cases.append(
            {
                "state": {"state": "entangled", "omega_bar": 100.0, "sigma": s / 2.0, "nu_o": 1.5, "nu_e": 0.5},
                "model": {"model": "I", "scale": w},
                "tau": tau,
            }
        )
    for w, tau in ((1.0, 0.0), (0.3, 1.0)):
        cases.append(
            {
                "state": {"state": "fock", "omega_bar": 100.0, "delta": 1.0},
                "model": {"model": "I", "scale": w},
                "tau": tau,
            }
        )
        cases.append(
            {
                "state": {"state": "coherent", "omega_bar": 100.0, "delta": 1.0},
                "model": {"model": "I", "scale": w},
                "tau": tau,
            }
        )
    return cases


def cmd_mc_validate(args) -> int:
    with _config_boundary("mc-validate"):
        cfg = _object(_load_json(args.config), "mc-validate", {"seed", "t_bar", "n_realizations", "cases"})
        seed = _json_int(cfg.get("seed", args.seed), "seed")
        shared = {key: cfg[key] for key in ("t_bar", "n_realizations") if key in cfg}
        cases = cfg.get("cases", _default_mc_cases())
        if not (isinstance(cases, list) and cases):
            raise ValueError(f"cases must be a non-empty list, got {cases!r}")
        runs = []
        for idx, case in enumerate(cases):
            case = _object(case, "mc-validate case", {"state", "model", "grid", "tau"})
            state = state_from_config(case["state"])
            spec = dict(shared, grid=case["grid"]) if "grid" in case else shared
            ens = ensemble_from_config(spec, state=state, model=model_from_config(case["model"]), seed=seed + idx)
            runs.append((state, ens, _finite(case.get("tau", 0.0), "tau")))

    rows = []
    worst = 0.0
    for idx, (state, ens, tau) in enumerate(runs):
        est = mc_correlator(state, ens, tau)
        closed = rate_closed_form(state, ens.model, tau)
        z = (est.mean - closed) / est.std_error
        worst = max(worst, abs(z))
        dims = DimensionlessArgs.from_state(state, ens.model, tau)
        rows.append(
            [state_to_config(state)["state"], idx, tau, dims.t, dims.s, dims.w,
             closed, est.mean, est.std_error, est.n, z]
        )
    first = runs[0][1]  # every case shares t_bar and n_realizations
    config = {"seed": seed, "t_bar": first.t_bar, "n_realizations": first.n_realizations, "cases": cases}
    write_csv(
        args.out,
        _header("mc-validate", config),
        ["state", "case", "tau", "t", "s", "w", "closed_form", "mc_mean", "mc_std_error", "n", "z_score"],
        rows,
    )
    if worst > 4.0:
        print(f"mc-validate FAILED: worst |z| = {worst:.2f} > 4", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"mc-validate ok: worst |z| = {worst:.2f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# visibility

def cmd_visibility(args) -> int:
    with _config_boundary("visibility"):
        names, data = read_curve_csv(args.infile)
        if data.ndim != 2 or data.shape[1] < 2:
            raise ConfigError(f"{args.infile} needs a tau and a rate column")
        tau_idx, r_idx = 0, 1  # a figure over the delay t: its abscissa and first column
        if "tau" in names:
            rate_names = [name for name in ("r", "mean") if name in names]
            if not rate_names:
                raise ConfigError(f"{args.infile} has a tau column but no r or mean column")
            tau_idx, r_idx = names.index("tau"), names.index(rate_names[0])
        elif names[0] != "t":
            raise ConfigError(f"{args.infile} has no tau column, and its abscissa {names[0]!r} is not the delay t")
        v = visibility(data[:, tau_idx], data[:, r_idx])
    print(repr(v))
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tpspeckle",
        description="Two-photon coincidence rates behind a diffusive random medium",
    )
    # a string default goes through ``type=int`` only where a command takes
    # --seed, so a bad TPSPECKLE_SEED exits 2 there and nowhere else
    default_seed = os.environ.get(SEED_ENV_VAR, "12345")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rate", help="R(tau) curve for a state and correlation model")
    p.add_argument("--state", required=True, help="state JSON (inline or file path)")
    p.add_argument("--model", required=True, help='{"model": "I"|"II", "scale": f} or "cw"')
    p.add_argument("--tau-min", type=float, required=True)
    p.add_argument("--tau-max", type=float, required=True)
    p.add_argument("--tau-n", type=int, required=True)
    p.add_argument("--method", choices=["closed-form", "quadrature", "monte-carlo"], default="closed-form")
    p.add_argument("--ensemble", default=None, help="ensemble JSON (monte-carlo method), every key optional")
    p.add_argument("--seed", type=int, default=default_seed, help='monte-carlo seed unless --ensemble gives "seed"')
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("figure", help="emit the dataset behind one of the source figures")
    p.add_argument("--id", type=int, required=True, help="figure number, 2..10")
    p.add_argument("--model", choices=["I", "II"], default=FIGURE_MODEL_DEFAULT)
    p.add_argument("--nu-o", type=float, default=None)
    p.add_argument("--nu-e", type=float, default=None)
    p.add_argument("--s-values", type=float, nargs="+", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("sweep", help="Cartesian parameter sweep, long-format CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("mc-validate", help="Monte Carlo vs closed-form z-score report")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=default_seed)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mc_validate)

    p = sub.add_parser("visibility", help="visibility of a rate curve CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_visibility)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TpspeckleError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError:
        print("numerical failure: out of memory", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
