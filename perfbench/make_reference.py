"""Write ``perfbench/reference.json`` from the tpspeckle in ``src/``.

Usage: ``python3 perfbench/make_reference.py``

Runs every full-size benchmark command at the default seed, plus the
closed-form ``rate`` command over the same taus for each quadrature and
Monte Carlo command, and stores their CSV tables.  The stored file is the
correctness reference of the benchmark: regenerate it only when an output
is meant to change, and say why.
"""

import json
import os
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

from tpspeckle import cli  # noqa: E402

from check import read_csv  # noqa: E402
from workloads import DEFAULT_SEED, closed_form_companion, full_commands  # noqa: E402


def _table(argv, out) -> dict:
    code = cli.main(list(argv) + ["--out", out])
    if code != 0:
        sys.exit(f"exit code {code} from: tpspeckle {' '.join(argv)}")
    config, header, rows = read_csv(out)
    return {"config": config, "header": header, "rows": rows}


def main() -> None:
    reference = {"seed": DEFAULT_SEED, "commands": {}, "closed_forms": {}}
    with tempfile.TemporaryDirectory(dir=os.path.dirname(BENCH)) as tmp:
        out = os.path.join(tmp, "out.csv")
        for cmd in full_commands(DEFAULT_SEED).values():
            reference["commands"][cmd.id] = _table(cmd.argv, out)
            if cmd.kind in ("quadrature", "monte-carlo"):
                closed = _table(closed_form_companion(cmd), out)
                reference["closed_forms"][cmd.id] = [[float(t), float(r)] for t, r in closed["rows"]]
    with open(os.path.join(BENCH, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
