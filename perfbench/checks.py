"""Output checks: each returns the reasons a command's outputs are wrong.

A command fails when any of these hold: it exits with another code than
expected; a report in a verification, tracking, attractor or periodicity
document is not PASS; a chart.csv residual exceeds the chart's ``tol``;
the linear closed-form graph value misses -1/17 by more than 1e-5; an
output differs from reference.json by more than its tolerance; or a rerun
of the same seed gives different bytes (checked by the caller).
"""

from __future__ import annotations

import csv
import functools
import json
from pathlib import Path

REPORT_FILES = ("verification.json", "tracking.json", "attractor.json", "periodicity.json")
M2_TOL = 1e-5  # tolerance of the acceptance suite's linear closed-form criterion
GAP_RTOL = 1e-9  # gap-scan rows are closed-form arithmetic

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


@functools.cache
def _reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def _reports_pass(path: Path) -> list:
    doc = json.loads(path.read_text(encoding="utf-8"))
    bad = [
        f"{path.name}: {r['kind']} not PASS (value {r['value']}, bound {r['bound']})"
        for r in doc.get("reports", [])
        if not r.get("passed")
    ]
    if not doc.get("reports"):
        bad.append(f"{path.name}: no reports")
    if not doc.get("all_pass"):
        bad.append(f"{path.name}: all_pass is false")
    return bad


def _read_chart(path: Path) -> tuple[list, list]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def _chart(path: Path, cmd) -> list:
    header, rows = _read_chart(path)
    tol = json.loads((path.parent / "chart_meta.json").read_text())["tol"]
    bad = []
    res = header.index("residual")
    worst = max(row[res] for row in rows)
    if worst > tol:
        bad.append(f"chart.csv: residual {worst:g} > tol {tol:g}")
    if cmd.m2_target is not None:
        col = header.index("m_2")
        err = max(abs(row[col] - cmd.m2_target) for row in rows)
        if err > M2_TOL:
            bad.append(f"chart.csv: m_2 misses {cmd.m2_target:.12g} by {err:g}")
    if cmd.reference is not None:
        ref = _reference()[cmd.reference]
        if header != ref["header"] or len(rows) != len(ref["rows"]):
            bad.append(f"chart.csv: shape differs from reference {cmd.reference}")
        else:
            cols = [i for i, name in enumerate(header) if name != "residual"]
            err = max(abs(r[i] - q[i]) for r, q in zip(rows, ref["rows"]) for i in cols)
            if err > tol:
                bad.append(f"chart.csv: graph values differ from reference by {err:g}")
    return bad


def _gap_scan(path: Path, cmd) -> list:
    rows = json.loads(path.read_text(encoding="utf-8"))["rows"]
    ref = _reference()[cmd.reference]
    if len(rows) != len(ref) or any(r.keys() != q.keys() for r, q in zip(rows, ref)):
        return [f"gap_scan.json: rows differ in shape from reference {cmd.reference}"]
    for r, q in zip(rows, ref):
        for key, want in q.items():
            got = r[key]
            if isinstance(want, bool) or want is None:
                ok = got == want
            else:
                ok = abs(got - want) <= GAP_RTOL * max(1.0, abs(want))
            if not ok:
                return [f"gap_scan.json: n={q['n']} {key} = {got!r}, reference {want!r}"]
    return []


def check_command(cmd, out_dir: Path, files: list) -> list:
    """Reasons the outputs of ``cmd`` (the ``files`` it wrote) are wrong."""
    if not (out_dir / cmd.main_file).is_file():
        return [f"missing {cmd.main_file}"]
    bad = []
    for path in files:
        if path.name in REPORT_FILES:
            bad += _reports_pass(path)
        elif path.name == "chart.csv":
            bad += _chart(path, cmd)
        elif path.name == "gap_scan.json" and cmd.reference is not None:
            bad += _gap_scan(path, cmd)
        elif path.name == "report.txt":
            if "all_pass: yes" not in path.read_text(encoding="utf-8"):
                bad.append("report.txt: all_pass is not yes")
    return bad
