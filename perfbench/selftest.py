"""Self-test of the benchmark, mostly in its short mode (about a minute and a half).

Usage, from the root of a checkout: ``python3 perfbench/selftest.py``

Checks that
1. every workload prints, untraced and traced, exactly the metrics that
   ``BENCHMARK.json`` names, each with its unit, and fails no point on
   this code (``failed_frac`` is 0);
2. one perturbed reference value drives ``failed_frac`` above 0 and the
   exit code away from 0, both for a closed form and, in one full-size
   validate pass at the reference seed, for a Monte Carlo mean moved by
   1e-9 relative;
3. in a directory that holds only ``BENCHMARK.json`` and ``perfbench/``
   the benchmark exits non-zero without printing a result.

Exits 0 when all checks pass.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import metric_units

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKDIR = ROOT / ".perfbench"


def _run(*extra, cwd=ROOT, short=True):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", *(["--short"] if short else []), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None), proc


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    expected = metric_units()
    problems = []

    for workload in workloads:
        for trace in (0, 1):
            code, result, proc = _run("--workload", workload, "--seed", "1", "--trace", str(trace))
            where = f"{workload} --trace {trace}"
            if code != 0 or result is None:
                problems.append(f"{where}: exit {code}\n{proc.stderr[-2000:]}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            units = {name: m.get("unit") for name, m in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{where}: metrics or units differ from BENCHMARK.json")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{where}: {result['failed']} of {result['attempted']} points failed")
            if trace and result["metrics"]["failed_frac"]["value"] != 0:
                problems.append(f"{where}: failed_frac is not 0")
            print(f"ok: {where}: {result['attempted']} points, {len(units)} metrics")

    WORKDIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORKDIR) as tmp:
        with open(BENCH / "reference.json", encoding="utf-8") as fh:
            reference = json.load(fh)
        row = reference["commands"]["figure-5-I"]["rows"][0]
        row[1] = repr(float(row[1]) + 1e-6)  # ten times the closed-form tolerance
        validate = reference["commands"]["validate-default"]
        row = validate["rows"][0]
        at = validate["header"].index("mc_mean")
        row[at] = repr(float(row[at]) * (1 + 1e-9))  # far inside |z| <= 4, not bit-identical
        perturbed = Path(tmp) / "reference.json"
        perturbed.write_text(json.dumps(reference), encoding="utf-8")
        for workload, seed, short in (("figures", "1", True), ("validate", str(reference["seed"]), False)):
            code, result, proc = _run("--workload", workload, "--seed", seed, "--trace", "1",
                                      "--reference", str(perturbed), short=short)
            where = f"perturbed {workload} reference"
            if code == 0 or result is None or not result["metrics"]["failed_frac"]["value"] > 0:
                problems.append(f"{where}: exit {code}, result {result and result['failed']}")
            else:
                print(f"ok: {where}: exit {code}, failed_frac {result['metrics']['failed_frac']['value']:.3g}")

        bare = Path(tmp) / "bare"
        shutil.copytree(BENCH, bare / "perfbench")
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, result, proc = _run("--workload", "curves", "--seed", "1", "--trace", "0", cwd=bare)
        if code == 0 or result is not None:
            problems.append(f"without src/: exit {code}, printed a result: {result is not None}")
        else:
            print(f"ok: without src/: exit {code}, no result")

    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
