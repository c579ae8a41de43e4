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
"""

import csv
import math
import os
import re
import sys

# rates.csv columns that hold counts, compared exactly
INTEGER_COLUMNS = ("dofs", "newton_iters")
OUTPUTS = ("rates.csv", "diagnostics.csv", "report.txt")


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


def largest_changes(old_dir, new_dir):
    """{column: largest relative change over its rows}, for every column
    of either directory."""
    old, new = read_columns(old_dir), read_columns(new_dir)
    changes = {}
    for name in list(old) + [n for n in new if n not in old]:
        rows_old, rows_new = old.get(name, {}), new.get(name, {})
        changes[name] = max((relative_change(rows_old.get(k), rows_new.get(k))
                             for k in set(rows_old) | set(rows_new)), default=0.0)
    return changes


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    missing = [os.path.join(d, f) for d in argv for f in OUTPUTS
               if not os.path.isfile(os.path.join(d, f))]
    if missing:
        print(f"missing output file: {', '.join(missing)}", file=sys.stderr)
        return 2
    old_dir, new_dir = argv
    for name, change in largest_changes(old_dir, new_dir).items():
        print(f"{name:20s} {change:.3g}")
    same = report_text(old_dir) == report_text(new_dir)
    print(f"report.txt, numbers aside: {'agree' if same else 'differ'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
