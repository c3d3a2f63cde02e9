import importlib

import pytest

import tpspeckle


@pytest.mark.parametrize("module", ["correlation", "states", "rates", "montecarlo"])
def test_module_exports_resolve_from_the_package(module):
    # every public name of a module exists there and is the package's own
    mod = importlib.import_module(f"tpspeckle.{module}")
    for name in mod.__all__:
        assert hasattr(mod, name), f"tpspeckle.{module}.__all__ names a missing {name}"
        assert getattr(tpspeckle, name, None) is getattr(mod, name), f"tpspeckle does not export {name}"
