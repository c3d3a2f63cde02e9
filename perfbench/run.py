"""tpspeckle benchmark: end-to-end CLI passes and per-layer traced passes.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload figures|curves|validate|all \\
        --seed N --seconds S --trace 0|1 [--short] [--reference PATH]

``--workload all`` runs each workload untraced and traced and prefixes
every metric with the workload's name.

Every pass runs the workload's CLI commands (see ``workloads.py``) in a
fresh child interpreter through ``tpspeckle.cli.main``, because the lazy
caches (the Model II kernel spline, the covariance and grid-norm caches)
are paid by every CLI user on every run.  This parent starts the children
one at a time; each child gets one BLAS thread, which is at most ``nproc``.  Passes
repeat while the next one is expected to end within ``--seconds``.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median pass time
after the import), ``setup_s`` (median time from a child's start to the
end of ``import tpspeckle.cli``, over at least seven children) and
``peak_rss_mb`` (median ``ru_maxrss`` of a pass).  ``--trace 1`` pairs
each untraced pass with a traced one and reports the per-layer metrics of
``tracer.py``, the tracing overhead and ``failed_frac``.

Every pass is checked against ``reference.json`` (see ``check.py``).  The
last line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit code: 0 when every point is correct,
1 when some point failed, 2 when the benchmark could not run (then no
result is printed), for instance when ``src/tpspeckle`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from check import check_command, load_reference
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKDIR = ROOT / ".perfbench"
SETUP_SAMPLES = 7
# One BLAS thread (nproc is 2 on the reference box): the matrices here have
# n <= 1537, and a second thread made no pass faster but doubled the
# pass-to-pass spread when the host's other tenants were busy.
BLAS_THREADS = "1"
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    pass


def metric_units() -> dict:
    """Metric name to unit, for --trace 0 (end-to-end) and --trace 1 (per-layer)."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("TPSPECKLE_SEED", None)  # every seed comes from the workload
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


class Children:
    """Starts child interpreters one at a time and collects their results."""

    def __init__(self, tmpdir: str, deadline: float):
        self.tmpdir = tmpdir
        self.deadline = deadline
        self.env = _child_env()

    def run(self, commands=(), trace=False, probe=False, spans=None) -> dict:
        outdir = tempfile.mkdtemp(dir=self.tmpdir)
        spec_path = os.path.join(outdir, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump({
                "src": str(ROOT / "src"),
                "outdir": outdir,
                "commands": [[c.id, list(c.argv)] for c in commands],
                "trace": trace,
                "probe": probe,
                "spans": spans,
            }, fh)
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S} s")
        started = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), spec_path],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child still running after {timeout:.0f} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        with open(os.path.join(outdir, "result.json"), encoding="utf-8") as fh:
            result = json.load(fh)
        result["setup_s"] = result["import_done"] - started
        result["outdir"] = outdir
        result["stderr"] = proc.stderr
        return result


def _check_pass(commands, result, reference, exact):
    attempted = failed = 0
    for cmd in commands:
        csv_path = os.path.join(result["outdir"], cmd.id + ".csv")
        a, f, note = check_command(cmd, csv_path, result["exit_codes"][cmd.id], reference, exact)
        attempted += a
        failed += f
        if note:
            print(f"failed: {note}", file=sys.stderr)
    if failed and result["stderr"]:
        print(result["stderr"][-4000:], file=sys.stderr)
    return attempted, failed


def run_workload(name, seed, seconds, trace, short, reference, children):
    """Run passes of one workload; return the result object and the environment stamp."""
    commands = WORKLOADS[name](seed, short)
    spans_dir = WORKDIR / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    # the first child of a run also warms the file cache; it is a set-up sample
    setups = [children.run(probe=True)["setup_s"]]
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(children.run(commands))
        if trace:
            spans = spans_dir / f"{name}-seed{seed}-{len(traced)}.jsonl"
            traced.append(children.run(commands, trace=True, spans=str(spans)))
        elapsed = time.perf_counter() - start
        if elapsed / len(plain) * (len(plain) + 1) > seconds:
            break

    # the stored Monte Carlo draws are those of the full-size commands at the reference seed
    exact = seed == reference["seed"] and not short
    attempted = failed = 0
    for result in plain + traced:
        a, f = _check_pass(commands, result, reference, exact)
        attempted += a
        failed += f

    wall = statistics.median(p["wall_s"] for p in plain)
    if trace:
        layers = {key: statistics.median(t["layers"][key] for t in traced) for key in traced[0]["layers"]}
        metrics = {
            **layers,
            "trace.overhead_frac": statistics.median(t["wall_s"] for t in traced) / wall - 1.0,
            "failed_frac": failed / attempted,
        }
    else:
        setups += [p["setup_s"] for p in plain]
        while len(setups) < SETUP_SAMPLES:
            setups.append(children.run(probe=True)["setup_s"])
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
        }
    env = dict(plain[0]["env"], workload=name, seed=seed, short=short,
               passes=len(plain), traced_passes=len(traced))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}, env


def _with_units(metrics: dict, units: dict) -> dict:
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--short", action="store_true",
                        help="fewer taus, cases and realizations (self-test)")
    parser.add_argument("--reference", default=str(BENCH / "reference.json"))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    # `all` runs every workload untraced and traced, prefixing metric names
    every = args.workload == "all"
    names = sorted(WORKLOADS) if every else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        if not (ROOT / "src" / "tpspeckle" / "__init__.py").is_file():
            raise BenchError(f"no tpspeckle sources under {ROOT / 'src'}")
        units = metric_units()
        reference = load_reference(args.reference)
        WORKDIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORKDIR) as tmpdir:
            for name in names:
                for trace in (0, 1) if every else (args.trace,):
                    children = Children(tmpdir, time.perf_counter() + RUN_LIMIT_S)
                    part, env = run_workload(name, args.seed, args.seconds, trace,
                                             args.short, reference, children)
                    print(f"# env: {json.dumps(env, sort_keys=True)}")
                    result["correct"] = result["correct"] and part["correct"]
                    result["attempted"] += part["attempted"]
                    result["failed"] += part["failed"]
                    for metric, value in _with_units(part["metrics"], units[trace]).items():
                        result["metrics"][f"{name}.{metric}" if every else metric] = value
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    for metric, m in result["metrics"].items():
        print(f"# {metric} = {m['value']:.6g} {m['unit']}")
    print(f"# failed {result['failed']} of {result['attempted']} points")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
