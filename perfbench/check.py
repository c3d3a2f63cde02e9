"""Correctness check of one pass's CSV outputs against stored references.

Each tolerance is the accuracy contract of the route that made the value,
not tighter:

* closed and reduced forms (figures, the ``closed_form`` column of
  ``mc-validate``): 1e-7 absolute, the reduced-integral error gate;
* quadrature: 1e-6 absolute against the closed form at the same tau;
* Monte Carlo: |z| <= 4 against the Model I closed form, and, in a
  full-size run at the reference's seed (``exact``), ``mean`` and
  ``std_error`` within 1e-12 relative of the reference, because the draws
  must stay bit-identical.

A point is one value of a figure column, or one row (tau or case) of a
``rate`` or ``mc-validate`` table.  A command that exits non-zero, or
leaves no CSV, fails all of its points.
"""

from __future__ import annotations

import json
import math
import os
from typing import List, Tuple

CLOSED_TOL = 1e-7
QUAD_TOL = 1e-6
MC_REL_TOL = 1e-12
Z_MAX = 4.0
TAU_TOL = 1e-9


def load_reference(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path) -> Tuple[str, List[str], List[List[str]]]:
    """(config line, column names, rows of cells) of a tpspeckle CSV."""
    config, header, rows = "", [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# config: "):
                config = line[len("# config: "):]
            elif not line or line.startswith("#"):
                continue
            elif not header:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return config, header, rows


def _close(value, ref, tol) -> bool:
    return math.isfinite(value) and abs(value - ref) <= tol


def _rel_close(value, ref) -> bool:
    return math.isfinite(value) and abs(value - ref) <= MC_REL_TOL * abs(ref)


def _z_ok(mean, std_error, closed) -> bool:
    return std_error > 0 and math.isfinite(mean) and abs(mean - closed) <= Z_MAX * std_error


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def expected_points(cmd, ref: dict) -> int:
    if cmd.kind == "figure":
        r = ref["commands"][cmd.id]
        return len(r["rows"]) * (len(r["header"]) - 1)
    if cmd.kind == "mc-validate":
        cases = json.loads(_arg(cmd.argv, "--config")).get("cases")
        return len(cases) if cases else len(ref["commands"][cmd.id]["rows"])
    return int(_arg(cmd.argv, "--tau-n"))


def _closed_at(ref: dict, cmd_id: str, tau: float):
    for t, r in ref["closed_forms"][cmd_id]:
        if abs(t - tau) <= TAU_TOL:
            return r
    return None


def _passed_figure(header, rows, ref) -> int:
    if header != ref["header"]:
        return 0
    passed = 0
    for row, ref_row in zip(rows, ref["rows"]):
        if len(row) != len(ref_row) or not _close(float(row[0]), float(ref_row[0]), TAU_TOL):
            continue
        passed += sum(_close(float(v), float(r), CLOSED_TOL) for v, r in zip(row[1:], ref_row[1:]))
    return passed


def _passed_quadrature(cmd, rows, ref) -> int:
    passed = 0
    for tau, r in rows:
        closed = _closed_at(ref, cmd.id, float(tau))
        passed += closed is not None and _close(float(r), closed, QUAD_TOL)
    return passed


def _passed_rate_mc(cmd, rows, ref, exact) -> int:
    ref_rows = ref["commands"][cmd.id]["rows"]
    passed = 0
    for i, (tau, mean, std_error, *_rest) in enumerate(rows):
        tau, mean, std_error = float(tau), float(mean), float(std_error)
        closed = _closed_at(ref, cmd.id, tau)
        ok = closed is not None and _z_ok(mean, std_error, closed)
        if exact:
            ok = ok and i < len(ref_rows) and _rel_close(mean, float(ref_rows[i][1])) \
                and _rel_close(std_error, float(ref_rows[i][2]))
        passed += ok
    return passed


def _passed_validate(cmd, header, rows, ref, exact) -> int:
    r = ref["commands"][cmd.id]
    if header != r["header"]:
        return 0
    col = {name: k for k, name in enumerate(header)}
    ref_by_case = {row[col["case"]]: row for row in r["rows"]}
    passed = 0
    for row in rows:
        ref_row = ref_by_case.get(row[col["case"]])
        if ref_row is None:
            continue
        closed_ref = float(ref_row[col["closed_form"]])
        mean = float(row[col["mc_mean"]])
        std_error = float(row[col["mc_std_error"]])
        ok = _close(float(row[col["closed_form"]]), closed_ref, CLOSED_TOL) and _z_ok(mean, std_error, closed_ref)
        if exact:
            ok = ok and _rel_close(mean, float(ref_row[col["mc_mean"]])) \
                and _rel_close(std_error, float(ref_row[col["mc_std_error"]]))
        passed += ok
    return passed


def check_command(cmd, csv_path, exit_code, ref: dict, exact: bool) -> Tuple[int, int, str]:
    """(points attempted, points failed, note) for one command of a pass."""
    attempted = expected_points(cmd, ref)
    if exit_code != 0 or not os.path.exists(csv_path):
        return attempted, attempted, f"{cmd.id}: exit code {exit_code}"
    _config, header, rows = read_csv(csv_path)
    try:
        if cmd.kind == "figure":
            passed = _passed_figure(header, rows, ref["commands"][cmd.id])
        elif cmd.kind == "quadrature":
            passed = _passed_quadrature(cmd, rows, ref)
        elif cmd.kind == "monte-carlo":
            passed = _passed_rate_mc(cmd, rows, ref, exact)
        else:
            passed = _passed_validate(cmd, header, rows, ref, exact)
    except (ValueError, IndexError, KeyError):  # a malformed table fails every point
        passed = 0
    failed = attempted - min(passed, attempted)
    return attempted, failed, f"{cmd.id}: {failed} of {attempted} points failed" if failed else ""
