"""Which output bytes a revision changes: its CSVs against the work tree's.

    python tools/output_diff.py REV

Runs every full-size benchmark command (``perfbench/workloads.py``,
``full_commands(0)``) with ``--out``, and ``tools/quadrature_sweep.py``,
once on the source of REV and once on the work tree, and prints for each
output either "identical" or, per column that moved, the worst |diff|,
absolute and relative to the larger of the two values.  A Monte Carlo
mean column also gets its worst |diff| in units of its standard error.
Header lines and the sweep's text lines are compared number by number.
The commands come from the work tree on both sides; the sweep script
comes from REV's tree where it has one, so that a rename of a name the
script imports does not read as a moved sweep, else from the work tree.
REV is unpacked with ``git archive`` into a temporary directory, which
leaves nothing behind in ``.git`` if a run is cut short.  The script
reports and never gates: it exits 0 whatever moved.
"""

import csv
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # import the benchmark's workloads without writing into perfbench/
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import full_commands  # noqa: E402

SWEEP = "quadrature_sweep.txt"
SWEEP_SCRIPT = Path("tools", "quadrature_sweep.py")
# (mean column, standard error column) of ``rate --method monte-carlo`` and ``mc-validate``
MC_COLUMNS = [("mean", "std_error"), ("mc_mean", "mc_std_error")]
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?\b(?:inf|nan)\b")


def run_outputs(tree: Path, outdir: Path) -> dict:
    """Run every command on the source of ``tree``, and its sweep script (the
    work tree's where it has none), writing into ``outdir``; the exit code
    of each output."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    codes = {}
    for cid, cmd in full_commands(0).items():
        argv = [sys.executable, "-m", "tpspeckle.cli", *cmd.argv, "--out", str(outdir / f"{cid}.csv")]
        codes[f"{cid}.csv"] = subprocess.run(argv, env=env, capture_output=True).returncode
    script = tree / SWEEP_SCRIPT
    if not script.exists():
        script = ROOT / SWEEP_SCRIPT
    sweep = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, text=True)
    (outdir / SWEEP).write_text(sweep.stdout, encoding="utf-8")
    codes[SWEEP] = sweep.returncode
    return codes


def _diff(a: float, b: float):
    """(|a - b|, |a - b| / max(|a|, |b|)); equal values, NaN with NaN included, give (0, 0)."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    d = abs(a - b)
    return d, d / max(abs(a), abs(b))


def _worst(pairs) -> str:
    diffs = [_diff(a, b) for a, b in pairs]
    return f"worst |diff| {max(d for d, _ in diffs):.3g} abs, {max(r for _, r in diffs):.3g} rel"


def _numbers(line: str):
    return [float(x) for x in NUMBER.findall(line)]


def compare_text(old, new) -> list:
    """Report lines for the text lines that moved: their numbers, or the lines themselves."""
    if len(old) != len(new):
        return [f"  text: {len(old)} lines against {len(new)}"]
    moved = [(a, b) for a, b in zip(old, new) if a != b]
    if not moved:
        return []
    out, pairs = [], []
    for a, b in moved:
        if NUMBER.sub("#", a) == NUMBER.sub("#", b):
            pairs.extend(zip(_numbers(a), _numbers(b)))
        else:
            out += [f"  - {a}", f"  + {b}"]
    if pairs:
        out.insert(0, f"  text: {len(moved)} of {len(old)} lines moved, {_worst(pairs)}")
    return out


def _cell(x: str) -> float:
    try:
        return float(x)
    except ValueError:
        return math.nan


def compare_csv(old, new) -> list:
    """Report lines for a CSV: its header lines as text, then each data column that moved."""
    heads = [[line for line in lines if line.startswith("#")] for lines in (old, new)]
    out = compare_text(*heads)
    (names, *a), (new_names, *b) = (list(csv.reader(line for line in lines if not line.startswith("#")))
                                    for lines in (old, new))
    if names != new_names or len(a) != len(b):
        return out + [f"  columns {names} x {len(a)} against {new_names} x {len(b)}"]
    for j, name in enumerate(names):
        col = [(ra[j], rb[j]) for ra, rb in zip(a, b)]
        if all(x == y for x, y in col):
            continue
        pairs = [(_cell(x), _cell(y)) for x, y in col]
        line = f"  {name}: {_worst(pairs)}"
        for mean, std_error in MC_COLUMNS:
            if name == mean and std_error in names:
                k = names.index(std_error)
                sigmas = [_diff(x, y)[0] / _cell(r[k]) for (x, y), r in zip(pairs, a)]
                line += f", {max(sigmas):.3g} std_error"
        out.append(line)
    return out


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    rev = argv[0]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        old_tree, old_out, new_out = tmp / "rev", tmp / "rev-out", tmp / "work-out"
        for d in (old_tree, old_out, new_out):
            d.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", str(old_tree)], input=archive.stdout, check=True)
        old_codes = run_outputs(old_tree, old_out)
        new_codes = run_outputs(ROOT, new_out)
        same = 0
        for name in old_codes:
            if old_codes[name] != new_codes[name]:
                print(f"{name}: exit {old_codes[name]} at {rev}, {new_codes[name]} in the work tree")
            old_path, new_path = old_out / name, new_out / name
            if not (old_path.exists() and new_path.exists()):
                print(f"{name}: written at {rev}: {old_path.exists()}, in the work tree: {new_path.exists()}")
                continue
            old_bytes, new_bytes = old_path.read_bytes(), new_path.read_bytes()
            if old_bytes == new_bytes:
                same += 1
                print(f"{name}: identical")
                continue
            old, new = (data.decode("utf-8").splitlines() for data in (old_bytes, new_bytes))
            print(f"{name}: moved")
            for line in compare_text(old, new) if name == SWEEP else compare_csv(old, new):
                print(line)
        print(f"identical: {same} of {len(old_codes)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
