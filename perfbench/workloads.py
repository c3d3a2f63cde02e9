"""The CLI commands each benchmark workload runs, made from the workload seed.

A command is a ``tpspeckle`` argument list without ``--out``; the child
appends ``--out`` itself.  The seed picks only the Monte Carlo seeds: the
closed-form and quadrature routes are deterministic and ignore it.  The
short variants (``short=True``) run fewer taus, cases and realizations and
exist for the self-test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Tuple

DEFAULT_SEED = 0

ENTANGLED = {"state": "entangled", "omega_bar": 100.0, "sigma": 1.0, "nu_o": 1.5, "nu_e": 0.5}
FOCK = {"state": "fock", "omega_bar": 100.0, "delta": 1.0}
COHERENT = {"state": "coherent", "omega_bar": 100.0, "delta": 1.0}
MODEL_I = {"model": "I", "scale": 1.0}
MODEL_II = {"model": "II", "scale": 1.0}

# Figure 2 needs crystal group delays; these are the README's placeholders.
FIGURE_2_DELAYS = ("--nu-o", "-0.073", "--nu-e", "-0.264")

# Model I cases beyond the CLI's six defaults: each on its own grid and
# correlation scale, one tau each, so per-ensemble set-up (covariance
# factor, amplitude matrix) is paid once per case.
EXTRA_VALIDATE_CASES = [
    {"state": ENTANGLED, "model": {"model": "I", "scale": 0.5},
     "grid": {"half_width": 8.0, "n": 96}, "tau": 0.25},
    {"state": FOCK, "model": {"model": "I", "scale": 2.0},
     "grid": {"half_width": 10.0, "n": 160}, "tau": 0.5},
    {"state": COHERENT, "model": {"model": "I", "scale": 0.7},
     "grid": {"half_width": 8.0, "n": 112}, "tau": -0.5},
    {"state": ENTANGLED, "model": {"model": "I", "scale": 3.0},
     "grid": {"half_width": 9.0, "n": 144}, "tau": 1.0},
]


@dataclass(frozen=True)
class Command:
    id: str
    kind: str  # "figure", "quadrature", "monte-carlo" or "mc-validate"
    argv: Tuple[str, ...]


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _rate(state, model, taus, method, *extra) -> Tuple[str, ...]:
    lo, hi, n = taus
    return ("rate", "--state", _dumps(state), "--model", _dumps(model),
            "--tau-min", repr(lo), "--tau-max", repr(hi), "--tau-n", str(n),
            "--method", method, *extra)


def figures(seed: int, short: bool) -> List[Command]:
    """Figures 2-10 under Model II (the default) and Model I.

    The short variant keeps Model I and drops the Model II figures whose
    reduced integrals take seconds each (4 and 7-10).
    """
    cmds = []
    for model in ("II", "I"):
        for fig in range(2, 11):
            if short and model == "II" and fig in (4, 7, 8, 9, 10):
                continue
            argv = ("figure", "--id", str(fig), "--model", model)
            if fig == 2:
                argv += FIGURE_2_DELAYS
            cmds.append(Command(f"figure-{fig}-{model}", "figure", argv))
    return cmds


def _ensemble(seed: int, n_realizations: int) -> str:
    return _dumps({"grid": {"half_width": 8.0, "n": 128}, "model": MODEL_I, "t_bar": 0.01,
                   "n_realizations": n_realizations, "seed": seed})


# tau grids (min, max, n); each short grid is a subset of its full grid, so
# the stored closed-form references cover both.
CURVE_TAUS = {
    "quad-entangled-I": ((-2.0, 2.0, 17), (-2.0, 2.0, 3)),
    "quad-fock-II": ((-3.0, 3.0, 13), (-3.0, 3.0, 3)),
    "mc-entangled-I": ((-1.0, 1.0, 3), (-1.0, 1.0, 2)),
    "mc-coherent-I": ((-1.0, 1.0, 3), (-1.0, 1.0, 2)),
}


def curves(seed: int, short: bool) -> List[Command]:
    """Quadrature and Monte Carlo rate curves, sized to take similar time."""
    taus = {key: grids[1] if short else grids[0] for key, grids in CURVE_TAUS.items()}
    n_real = 2000 if short else 10_000
    return [
        Command("quad-entangled-I", "quadrature",
                _rate(ENTANGLED, MODEL_I, taus["quad-entangled-I"], "quadrature")),
        Command("quad-fock-II", "quadrature",
                _rate(FOCK, MODEL_II, taus["quad-fock-II"], "quadrature")),
        Command("mc-entangled-I", "monte-carlo",
                _rate(ENTANGLED, MODEL_I, taus["mc-entangled-I"], "monte-carlo",
                      "--ensemble", _ensemble(1000 * seed + 1, n_real))),
        Command("mc-coherent-I", "monte-carlo",
                _rate(COHERENT, MODEL_I, taus["mc-coherent-I"], "monte-carlo",
                      "--ensemble", _ensemble(1000 * seed + 2, n_real))),
    ]


def validate(seed: int, short: bool) -> List[Command]:
    """mc-validate on the CLI's six default cases, then on the extra cases."""
    n_real = 2000 if short else 10_000
    extra = EXTRA_VALIDATE_CASES[:2] if short else EXTRA_VALIDATE_CASES
    return [
        Command("validate-default", "mc-validate",
                ("mc-validate", "--config", _dumps({"n_realizations": n_real}),
                 "--seed", str(1000 * seed + 100))),
        Command("validate-extra", "mc-validate",
                ("mc-validate", "--config", _dumps({"n_realizations": n_real, "cases": extra}),
                 "--seed", str(1000 * seed + 200))),
    ]


WORKLOADS = {"figures": figures, "curves": curves, "validate": validate}


def closed_form_companion(cmd: Command) -> Tuple[str, ...]:
    """The closed-form ``rate`` command over the same state, model and taus."""
    argv = list(cmd.argv)
    method = argv.index("--method")
    argv[method + 1] = "closed-form"
    if "--ensemble" in argv:
        at = argv.index("--ensemble")
        del argv[at:at + 2]
    return tuple(argv)


def full_commands(seed: int = DEFAULT_SEED) -> Dict[str, Command]:
    return {c.id: c for make in WORKLOADS.values() for c in make(seed, False)}
