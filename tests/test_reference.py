"""Committed CLI outputs hold: verdicts exactly, numbers at rounding.

Each directory under tests/reference holds a config (seed 0, no
output_dir) and the rates.csv, diagnostics.csv and report.txt that
`nitschelab run` wrote for it.  A change that moves an output on purpose
rewrites them in the same commit, by running each config in its own
directory (`nitschelab run config.yaml`), and states the largest change
per column, which `python scripts/compare_outputs.py OLD_DIR NEW_DIR`
prints.
"""

import importlib.util
from pathlib import Path

import pytest
import yaml

from nitschelab.cli import main

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "tests" / "reference"

_spec = importlib.util.spec_from_file_location("compare_outputs",
                                               ROOT / "scripts" / "compare_outputs.py")
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)

# exit code of each case: the four benchmark CLI configs pass; cosine d=1
# P2 fails its Galerkin gate (the integration crime, ROADMAP item 8),
# minimal_surface P1 from 4 cells is pre-asymptotic in L2 as well, and
# minimal_surface P3 from 2 cells fails both rate windows and the Galerkin
# gate.  quartic d=2 P1 runs the P2 adjoint reference of a P1 study, and
# its run from 22 cells has a root of 441 interior dofs, above
# analysis._ROOT_DOFS, so every level's solves run Jacobi-PCG
EXIT_CODES = {
    "rates_p1": 0,
    "adjoint_p2": 0,
    "sampled_p2": 0,
    "galerkin_p2": 0,
    "quartic_p1_adjoint": 0,
    "root_above_cap_p1": 0,
    "cosine_d1_p2_all": 1,
    "minimal_surface_p1": 1,
    "minimal_surface_p3": 1,
}


def test_every_reference_case_is_listed():
    assert sorted(p.name for p in REFERENCE.iterdir() if p.is_dir()) == sorted(EXIT_CODES)


@pytest.mark.parametrize("case", list(EXIT_CODES))
def test_cli_outputs_match_the_reference(tmp_path, case):
    """Same exit code; same report.txt once its numbers are masked (every
    check with its verdict, the overall line, an abort); the same levels,
    dofs and Newton counts; every float within its column's bound."""
    ref = REFERENCE / case
    config = (ref / "config.yaml").read_text()
    path = tmp_path / "config.yaml"
    path.write_text(config + f"output_dir: {tmp_path}\n")
    assert main(["run", str(path)]) == EXIT_CODES[case]
    moved = compare.moved_values(ref, tmp_path, compare.absolute_floors(yaml.safe_load(config)))
    assert not moved, moved


def test_compare_outputs_names_a_missing_file_and_exits_2(tmp_path, capsys):
    """A directory without rates.csv used to end in a FileNotFoundError
    traceback."""
    ref = REFERENCE / "rates_p1"
    for name in ("diagnostics.csv", "report.txt"):
        (tmp_path / name).write_bytes((ref / name).read_bytes())
    assert compare.main([str(ref), str(tmp_path)]) == 2
    assert capsys.readouterr().err.strip() == \
        f"missing output file: {tmp_path / 'rates.csv'}"
    assert compare.main([str(ref), str(ref)]) == 0


def test_large_study_comparison_names_a_float_moved_beyond_its_bound(tmp_path, monkeypatch):
    """The comparison that scripts/large_studies.py makes after each study,
    fed a copy of S1's committed outputs: the copy passes, and once one
    err_l2 row moved by ten times its column's bound, it names that
    column, its level and both values, and without diagnostics.csv it
    names the missing file.  No study runs."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import large_studies

    ref = ROOT / "scripts" / "large_reference" / "S1"
    for name in compare.OUTPUTS:
        (tmp_path / name).write_bytes((ref / name).read_bytes())
    assert large_studies.moved_from_reference("S1", str(tmp_path)) == []

    rows = (tmp_path / "rates.csv").read_text().splitlines()
    header, row = rows[0].split(","), rows[4].split(",")
    column = header.index("err_l2")
    old = float(row[column])
    new = old * (1 + 10 * compare.REL_BOUND["err_l2"])
    row[column] = repr(new)
    rows[4] = ",".join(row)
    (tmp_path / "rates.csv").write_text("\n".join(rows) + "\n")
    assert large_studies.moved_from_reference("S1", str(tmp_path)) == \
        [f"err_l2 at level {row[0]} moved from {old!r} to {new!r}"]
    (tmp_path / "diagnostics.csv").unlink()
    assert large_studies.moved_from_reference("S1", str(tmp_path)) == \
        [f"missing output file: {tmp_path / 'diagnostics.csv'}"]
