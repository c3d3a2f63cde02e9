"""The benchmark's tracer still finds every attribute it wraps.

``perfbench/tracer.py`` replaces module attributes such as ``rates.quad``,
``cli.rate_theta`` and ``montecarlo.grid_amplitude_matrix`` by recording
wrappers; a renamed or removed one would only show in the slow benchmark
self-test.  This loads the tracer by path, runs one closed-form and one
Monte Carlo command under it, and puts every replaced attribute back.
"""

import importlib.util
import json
from pathlib import Path

from tpspeckle import cli, correlation, montecarlo, rates

ROOT = Path(__file__).resolve().parent.parent
ENT_STATE = json.dumps({"state": "entangled", "omega_bar": 100.0, "sigma": 1.0, "nu_o": 1.5, "nu_e": 0.5})
MODEL_I = json.dumps({"model": "I", "scale": 1.0})


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_reports_every_per_layer_metric(tmp_path):
    declared = [entry["name"] for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    expected = set(declared) - {"trace.overhead_frac", "failed_frac"}
    modules = (cli, rates, montecarlo, correlation)
    before = [dict(vars(module)) for module in modules]
    try:
        tracer = _load_tracer().install(*modules)
        figure = cli.main(["figure", "--id", "5", "--model", "I", "--out", str(tmp_path / "figure.csv")])
        rate = cli.main(["rate", "--state", ENT_STATE, "--model", MODEL_I, "--tau-min", "0", "--tau-max", "1",
                         "--tau-n", "3", "--method", "monte-carlo", "--ensemble", '{"n_realizations": 100}',
                         "--out", str(tmp_path / "mc.csv")])
        metrics = tracer.metrics()
    finally:
        for module, attrs in zip(modules, before):
            for name, value in attrs.items():
                if getattr(module, name) is not value:
                    setattr(module, name, value)
    assert (figure, rate) == (0, 0)
    assert set(metrics) == expected
    assert metrics["cli.commands"] == 2
    assert metrics["rates.closed.points"] > 0
    assert metrics["states.grid_amplitude_matrix.calls"] == 1
    # the 3-tau Monte Carlo curve is one call over one draw of 100 realizations
    assert metrics["montecarlo.mc_correlator.calls"] == 1
    assert metrics["montecarlo.realizations"] == 100
    assert metrics["montecarlo.redraw_ratio"] == 1.0
    assert all(vars(module) == attrs for module, attrs in zip(modules, before))
