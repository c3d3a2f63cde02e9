import importlib
import json
import math
import os
import subprocess
import sys

import pytest

import tpspeckle
from tpspeckle.cli import main


@pytest.mark.parametrize("module", ["correlation", "states", "rates", "montecarlo"])
def test_module_exports_resolve_from_the_package(module):
    # every public name of a module exists there and is the package's own
    mod = importlib.import_module(f"tpspeckle.{module}")
    for name in mod.__all__:
        assert hasattr(mod, name), f"tpspeckle.{module}.__all__ names a missing {name}"
        assert getattr(tpspeckle, name, None) is getattr(mod, name), f"tpspeckle does not export {name}"


def _src_env():
    src = os.path.dirname(os.path.dirname(tpspeckle.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_cli_imports_only_the_scipy_it_runs():
    # pytest's filterwarnings setting imports scipy.integrate into this
    # process, so a fresh interpreter checks the import
    script = """
import sys
import tpspeckle.cli
loaded = [name for name in sys.modules if name.startswith("scipy")]
assert not loaded, f"import tpspeckle.cli loads {loaded}"
from tpspeckle import CrystalParams, EntangledState, ModelII, PumpParams, rate_numeric_batch
state = EntangledState(PumpParams(100.0, 1.0), CrystalParams(nu_o=1.5, nu_e=0.5))
assert len(rate_numeric_batch(state, ModelII(1.0), [0.0, 0.5])) == 2
assert "scipy.integrate" not in sys.modules, "a decayed exchange tail loads QUADPACK"
# at omega_th = 30, |C|^2 is 0.2 at the d axis's end: the tail integrates
assert len(rate_numeric_batch(state, ModelII(30.0), [0.0, 0.5])) == 2
assert "scipy.integrate" in sys.modules, "the exchange tail ran no QUADPACK integral"
"""
    proc = subprocess.run([sys.executable, "-c", script], env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _without_scipy_commands():
    """Commands that need no scipy: every figure, each state's closed form,
    Monte Carlo, mc-validate and quadrature batches with no QUADPACK call."""
    entangled = {"state": "entangled", "omega_bar": 100.0, "sigma": 1.0, "nu_o": 1.5, "nu_e": 0.5}
    states = [
        entangled,
        dict(entangled, state="symmetrized", theta=math.pi),
        {"state": "fock", "omega_bar": 100.0, "delta": 1.0},
        {"state": "coherent", "omega_bar": 100.0, "delta": 1.0},
    ]
    taus = ["--tau-min", "-2", "--tau-max", "2", "--tau-n", "9"]
    commands = [
        ["figure", "--id", str(fig), "--model", model, *(["--nu-o", "-0.073", "--nu-e", "-0.264"] if fig == 2 else [])]
        for model in ("I", "II")
        for fig in range(2, 11)
    ]
    commands += [
        ["rate", "--state", json.dumps(state), "--model", json.dumps({"model": model, "scale": 1.0}), *taus]
        for state in states
        for model in ("I", "II")
    ]
    ensemble = {"grid": {"half_width": 8.0, "n": 64}, "n_realizations": 1000, "seed": 3}
    commands.append(["rate", "--state", json.dumps(states[3]), "--model", json.dumps({"model": "I", "scale": 1.0}),
                     "--method", "monte-carlo", "--ensemble", json.dumps(ensemble), *taus])
    commands.append(["mc-validate", "--config", json.dumps({"n_realizations": 2000}), "--seed", "100"])
    # Model II 1: the exchange tail has decayed, and the Fock field has none
    for state in (states[0], states[2]):
        commands.append(["rate", "--state", json.dumps(state), "--model", json.dumps({"model": "II", "scale": 1.0}),
                         "--method", "quadrature", "--tau-min", "0", "--tau-max", "0.5", "--tau-n", "2"])
    return commands


def test_commands_run_without_scipy(tmp_path):
    # with scipy unimportable, each command exits 0 and writes the bytes of
    # a run in this process, where scipy is loaded
    script = """
import json, os, sys
sys.modules["scipy"] = None
from tpspeckle.cli import main
commands, out = json.loads(sys.argv[1]), sys.argv[2]
for i, argv in enumerate(commands):
    assert main(argv + ["--out", os.path.join(out, f"{i}.csv")]) == 0, argv
"""
    commands = _without_scipy_commands()
    bare, full = tmp_path / "bare", tmp_path / "full"
    bare.mkdir()
    full.mkdir()
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands), str(bare)], env=_src_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for i, argv in enumerate(commands):
        assert main(argv + ["--out", str(full / f"{i}.csv")]) == 0
        assert (bare / f"{i}.csv").read_bytes() == (full / f"{i}.csv").read_bytes(), argv
