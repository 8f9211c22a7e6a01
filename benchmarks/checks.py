"""Correctness check of one CLI output file against its stored reference.

References are gzip-compressed copies of the CSV the seed code wrote for
the same workload and CLI seed.  Each data row of the reference is one
checked output.  A row fails when it is missing, when a label column
differs from the reference, or when a compared numeric column differs by
more than ``REL_TOL`` relative (``ABS_TOL`` absolute near zero):

* a trace row: the chosen policy is a label, every column is compared;
* a validation row: the name, criterion and pass flag are labels and only
  ``analytic`` is compared; the row also fails when its pass flag is not
  ``True``.  Its Monte Carlo columns (``empirical``, ``z``) are not
  compared, so a correct change to how the simulation draws its random
  numbers still passes as long as every row does.

Byte identity of the whole file is reported separately; a file may differ
in the last digits and still pass within the stated tolerance.
"""

from __future__ import annotations

import gzip
import math
from dataclasses import dataclass
from pathlib import Path

REL_TOL = 1e-9
ABS_TOL = 1e-12

# per output file name: (label columns compared as text, numeric columns
# compared within tolerance; None compares every column)
COLUMNS = {
    "trace.csv": (("k", "delta_B", "delta_S", "delta_C"), None),
    "validation.csv": (("name", "criterion", "pass"), ("analytic",)),
}
PASS_COLUMN = "pass"


@dataclass(frozen=True)
class CheckResult:
    checked: int
    failed: int
    identical: bool
    rows_passed: int  # validation rows whose pass flag is True


def read_reference(path: Path) -> bytes:
    return gzip.decompress(path.read_bytes())


def write_reference(path: Path, data: bytes) -> None:
    # mtime=0 keeps the compressed bytes a function of the content alone
    path.write_bytes(gzip.compress(data, mtime=0))


def _table(data: bytes) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in data.decode().splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _close(a: str, b: str) -> bool:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return a == b
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return math.isclose(x, y, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def check_output(name: str, output: bytes | None, reference: bytes) -> CheckResult:
    """Compare the CLI output file ``name`` with its reference, row by row."""
    ref_header, ref_rows = _table(reference)
    if output is None:
        return CheckResult(len(ref_rows), len(ref_rows), False, 0)
    header, rows = _table(output)
    checked = max(len(rows), len(ref_rows))
    if header != ref_header:
        return CheckResult(checked, checked, False, 0)
    labels, numeric = COLUMNS[name]
    exact = [header.index(c) for c in labels]
    close = range(len(header)) if numeric is None else [header.index(c) for c in numeric]
    flag = header.index(PASS_COLUMN) if PASS_COLUMN in header else None
    failed = rows_passed = 0
    for i in range(checked):
        if i >= len(rows) or i >= len(ref_rows) or len(rows[i]) != len(ref_header):
            failed += 1
            continue
        row, ref = rows[i], ref_rows[i]
        ok = (all(row[j] == ref[j] for j in exact)
              and all(_close(row[j], ref[j]) for j in close))
        if flag is not None:
            passed = row[flag] == "True"
            rows_passed += passed
            ok = ok and passed
        failed += not ok
    return CheckResult(checked, failed, output == reference, rows_passed)
