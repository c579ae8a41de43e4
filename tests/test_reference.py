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

# The largest relative change of each float column that counts as rounding.
# Changes that only reordered floating-point sums moved err_l2 and err_h1 by
# at most 3.8e-15 relative; one more degree in the spaces' quadrature rule
# moves err_l2 by 6e-10 to 8e-4 on these cases (the 1D rule of the cosine
# case does not change).  The Lanczos extremes, the adjoint solve and the
# pq ratio carry solver iterations, so they get more room.
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
    gate that `cli` applies to them."""
    tols = float(cfg.get("newton_tol", 1e-12)) + float(cfg.get("linear_tol", 1e-12))
    return {"galerkin_defect": 1e-3 * 100.0 * tols, "adjoint_identity": 1e-3 * 0.05}


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
    assert compare.report_text(tmp_path) == compare.report_text(ref)

    floors = absolute_floors(yaml.safe_load(config))
    want, got = compare.read_columns(ref), compare.read_columns(tmp_path)
    assert {name: sorted(rows) for name, rows in got.items()} == \
        {name: sorted(rows) for name, rows in want.items()}
    moved = []
    for name, rows in want.items():
        for level, value in rows.items():
            new = got[name][level]
            if name in compare.INTEGER_COLUMNS or value is None:
                ok = new == value
            else:
                ok = abs(new - value) <= max(REL_BOUND[name] * abs(value),
                                             floors.get(name, 0.0))
            if not ok:
                moved.append((name, level, value, new))
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
