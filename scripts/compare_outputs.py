"""Largest relative change per column between two `nitschelab run`
output directories.

    python scripts/compare_outputs.py OLD_DIR NEW_DIR

A column is a rates.csv column, named by its header, or a diagnostics.csv
value, named by its `name` field; its rows are the levels.  For each
column the script prints the largest |new - old| / |old| over the rows
(0 where the two files agree), or `inf` where a row is in one directory
only or a zero became non-zero.  A last line says whether the two
report.txt files agree once every number in them is masked: the same
checks with the same verdicts, the same overall line, the same abort.
Exits 2, naming what is missing, when a directory lacks one of the three
files.

The per-column bounds of the committed outputs live here, with
`moved_values`, which applies them; `tests/test_reference.py` and
`large_studies.py` read them from this file.
"""

import csv
import math
import os
import re
import sys

# rates.csv columns that hold counts, compared exactly
INTEGER_COLUMNS = ("dofs", "newton_iters")
OUTPUTS = ("rates.csv", "diagnostics.csv", "report.txt")

# The largest relative change of each float column that counts as rounding,
# for the committed outputs of tests/reference and scripts/large_reference.
# Changes that only reordered floating-point sums moved err_l2 and err_h1 by
# at most 3.8e-15 relative; one more degree in the spaces' quadrature rule
# moves err_l2 by 6e-10 to 8e-4 on the cases of tests/reference (the 1D
# rule of the cosine case does not change).  The Lanczos extremes, the
# adjoint solve and the pq ratio carry solver iterations, so they get more
# room.
REL_BOUND = {
    "h": 1e-15,
    "err_l2": 1e-11,
    "err_h1": 1e-11,
    "slope_l2_running": 1e-11,
    "slope_h1_running": 1e-11,
    "galerkin_defect": 1e-9,
    "adjoint_identity": 1e-9,
    "h2_ratio": 1e-10,
    "lambda_min": 1e-10,
    "lambda_max": 1e-10,
    "inverse_ratio": 1e-12,
    "pq_ratio": 1e-11,
}


def absolute_floors(cfg):
    """Rows that are themselves solver noise pass within 1e-3 times the
    gate that `cli` applies to them; `cfg` maps config keys to values."""
    tols = float(cfg.get("newton_tol", 1e-12)) + float(cfg.get("linear_tol", 1e-12))
    return {"galerkin_defect": 1e-3 * 100.0 * tols, "adjoint_identity": 1e-3 * 0.05}


def _number(text):
    if text == "":
        return None
    return float(text)


def read_columns(directory):
    """{column: {level: value}} from rates.csv and diagnostics.csv; a
    running slope is None at level 0."""
    columns = {}
    with open(os.path.join(directory, "rates.csv"), newline="") as fh:
        for row in csv.DictReader(fh):
            level = int(row.pop("level"))
            for name, text in row.items():
                value = int(text) if name in INTEGER_COLUMNS else _number(text)
                columns.setdefault(name, {})[level] = value
    with open(os.path.join(directory, "diagnostics.csv"), newline="") as fh:
        for row in csv.DictReader(fh):
            columns.setdefault(row["name"], {})[int(row["level"])] = _number(row["value"])
    return columns


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\binf\b|\bnan\b")


def report_text(directory):
    """The lines of report.txt with every number replaced by `#`."""
    with open(os.path.join(directory, "report.txt")) as fh:
        return [_NUMBER.sub("#", line.rstrip("\n")) for line in fh]


def relative_change(old, new):
    if old == new:
        return 0.0
    if old is None or new is None or old == 0:
        return math.inf
    return abs(new - old) / abs(old)


def _paired_values(old_dir, new_dir):
    """(column, level, old, new) for every row of every column of either
    directory, columns in old_dir's order and then new_dir's, levels
    ascending; a row in one directory only reads None on the other side."""
    old, new = read_columns(old_dir), read_columns(new_dir)
    for name in list(old) + [n for n in new if n not in old]:
        rows_old, rows_new = old.get(name, {}), new.get(name, {})
        for level in sorted(set(rows_old) | set(rows_new)):
            yield name, level, rows_old.get(level), rows_new.get(level)


def largest_changes(old_dir, new_dir):
    """{column: largest relative change over its rows}, for every column
    of either directory."""
    changes = {}
    for name, _, old, new in _paired_values(old_dir, new_dir):
        changes.setdefault(name, []).append(relative_change(old, new))
    return {name: max(column) for name, column in changes.items()}


def missing_outputs(*directories):
    """One line naming each output file that one of the directories
    lacks, or no line."""
    missing = [os.path.join(d, f) for d in directories for f in OUTPUTS
               if not os.path.isfile(os.path.join(d, f))]
    return [f"missing output file: {', '.join(missing)}"] if missing else []


def moved_values(ref_dir, new_dir, floors):
    """One line per value in new_dir's outputs that moved beyond rounding
    from ref_dir's, naming its column, level and both values: integer
    columns and running slopes at level 0 must be equal, floats within
    their column's REL_BOUND or its absolute floor, and a row in one
    directory only reads None on the other side.  One more line if the
    report.txt files differ once their numbers are masked.  If either
    directory lacks an output file, the one line of `missing_outputs`."""
    missing = missing_outputs(ref_dir, new_dir)
    if missing:
        return missing
    moved = []
    for name, level, value, new in _paired_values(ref_dir, new_dir):
        if name in INTEGER_COLUMNS or value is None or new is None:
            ok = new == value
        else:
            ok = abs(new - value) <= max(REL_BOUND[name] * abs(value),
                                         floors.get(name, 0.0))
        if not ok:
            moved.append(f"{name} at level {level} moved from {value!r} to {new!r}")
    if report_text(ref_dir) != report_text(new_dir):
        moved.append("report.txt differs once its numbers are masked")
    return moved


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    missing = missing_outputs(*argv)
    if missing:
        print(missing[0], file=sys.stderr)
        return 2
    old_dir, new_dir = argv
    for name, change in largest_changes(old_dir, new_dir).items():
        print(f"{name:20s} {change:.3g}")
    same = report_text(old_dir) == report_text(new_dir)
    print(f"report.txt, numbers aside: {'agree' if same else 'differ'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
