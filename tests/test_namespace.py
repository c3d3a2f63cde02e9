import importlib
import os
import subprocess
import sys

import pytest

import tpspeckle


@pytest.mark.parametrize("module", ["correlation", "states", "rates", "montecarlo"])
def test_module_exports_resolve_from_the_package(module):
    # every public name of a module exists there and is the package's own
    mod = importlib.import_module(f"tpspeckle.{module}")
    for name in mod.__all__:
        assert hasattr(mod, name), f"tpspeckle.{module}.__all__ names a missing {name}"
        assert getattr(tpspeckle, name, None) is getattr(mod, name), f"tpspeckle does not export {name}"


def test_cli_imports_only_the_scipy_it_runs():
    # pytest's filterwarnings setting imports scipy.integrate into this
    # process, so a fresh interpreter checks the import
    script = """
import sys
import tpspeckle.cli
unused = ("scipy.integrate", "scipy.linalg", "scipy.optimize", "scipy.sparse", "scipy.spatial", "scipy.fft")
loaded = [name for name in unused if name in sys.modules]
assert not loaded, f"import tpspeckle.cli loads {loaded}"
from tpspeckle import CrystalParams, EntangledState, ModelII, PumpParams, rate_numeric_batch
state = EntangledState(PumpParams(100.0, 1.0), CrystalParams(nu_o=1.5, nu_e=0.5))
assert len(rate_numeric_batch(state, ModelII(1.0), [0.0, 0.5])) == 2
assert "scipy.integrate" not in sys.modules, "a decayed exchange tail loads QUADPACK"
# at omega_th = 30, |C|^2 is 0.2 at the d axis's end: the tail integrates
assert len(rate_numeric_batch(state, ModelII(30.0), [0.0, 0.5])) == 2
assert "scipy.integrate" in sys.modules, "the exchange tail ran no QUADPACK integral"
"""
    src = os.path.dirname(os.path.dirname(tpspeckle.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
