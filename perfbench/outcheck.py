"""Check a `--format csv` output of the weakiv CLI against a recorded reference.

Counts, labels, rejection rates and reject decisions must match exactly.
Continuous columns must agree within REL_TOL: the quantile bisection resolves
its root to 1e-12 relative and the package's post-condition |CDF - p| < 1e-10
allows up to ~5e-10 relative at an upper-5% quantile, so any root finder that
meets that post-condition passes, while an algorithmic change (>= 1e-6) fails.
"""

from __future__ import annotations

import math

REL_TOL = 1e-9
ABS_TOL = 1e-12
EXACT_COLUMNS = {
    "design", "reps", "failed", "seed", "tau", "alpha", "benchmark", "method",
    "test", "reject",
}


def parse(text):
    """Header and data rows of a CSV output, skipping `#` comment lines."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _is_exact(column):
    return column in EXACT_COLUMNS or column.startswith("rf_")


def _close(got, want):
    try:
        a, b = float(got), float(want)
    except ValueError:
        return got == want
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def compare(text, reference):
    """List of mismatches between an output and its reference; empty if equal."""
    header, rows = parse(text)
    ref_header, ref_rows = parse(reference)
    if header != ref_header:
        return [f"header {header} != {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows != {len(ref_rows)}"]
    problems = []
    for r, (row, ref) in enumerate(zip(rows, ref_rows)):
        if len(row) != len(ref):
            problems.append(f"row {r}: {len(row)} cells != {len(ref)}")
            continue
        for col, got, want in zip(header, row, ref):
            ok = got == want if _is_exact(col) else _close(got, want)
            if not ok:
                problems.append(f"row {r} {col}: {got} != {want}")
    return problems


def failed_reps(text):
    """The `failed` replication count of a simulate output (0 if absent)."""
    header, rows = parse(text)
    if "failed" not in header:
        return 0
    col = header.index("failed")
    return sum(int(row[col]) for row in rows)
