import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from nitschelab import cli
from nitschelab.analysis import DIAGNOSTIC_NAMES, MAX_DOFS
from nitschelab.cli import (EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_OK,
                            EXIT_SOLVER, ConfigError, list_problems,
                            load_config, main, plot_data, run)
from nitschelab.energy import PROBLEM_NAMES


def write_config(tmp_path, text, name="study.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


BASE = """\
problem: quartic
dim: 1
order: 1
levels: 4
coarse_cells: 8
diagnostics: [galerkin]
seed: 0
output_dir: {out}
"""


def test_load_config_roundtrip(tmp_path):
    cfg = load_config(write_config(tmp_path, BASE.format(out=tmp_path)))
    assert cfg.problem == "quartic"
    assert cfg.dim == 1 and cfg.order == 1 and cfg.levels == 4
    assert cfg.diagnostics == ("galerkin",)
    assert cfg.newton_tol == 1e-12


def test_load_config_comma_separated_diagnostics(tmp_path):
    path = write_config(tmp_path, "problem: linear\ndim: 1\norder: 1\n"
                                  "levels: 3\ndiagnostics: galerkin, ellipticity\n")
    cfg = load_config(path)
    assert cfg.diagnostics == ("galerkin", "ellipticity")


@pytest.mark.parametrize("snippet,match", [
    ("problem: heat\ndim: 1\norder: 1\nlevels: 3\n", "problem"),
    ("problem: linear\ndim: 3\norder: 1\nlevels: 3\n", "dim"),
    ("problem: linear\ndim: 1\norder: 4\nlevels: 3\n", "order"),
    ("problem: linear\ndim: 1\norder: 1\nlevels: 2\n", "levels"),
    ("problem: linear\ndim: 1\norder: 1\nlevels: 3\nfoo: 1\n", "unknown"),
    ("problem: linear\ndim: 1\nlevels: 3\n", "missing"),
    ("problem: linear\ndim: 1\norder: 1\nlevels: 3\nnewton_tol: -1\n", "newton_tol"),
    ("problem: linear\ndim: 1\norder: 1\nlevels: 3\nnewton_tol: .nan\n", "newton_tol"),
    ("problem: linear\ndim: 1\norder: 1\nlevels: 3\nnewton_tol: .inf\n", "newton_tol"),
    ("problem: linear\ndim: 1\norder: 1\nlevels: 3\nlinear_tol: .nan\n", "linear_tol"),
    ("problem: linear\ndim: 1\norder: 1\nlevels: 3\nlinear_tol: .inf\n", "linear_tol"),
    ("problem: linear\ndim: 1\norder: 1\nlevels: 3\ndiagnostics: [pq]\n", "pq"),
    ("problem: linear\ndim: 1\norder: 1\nlevels: 3\ndiagnostics: [magic]\n",
     "unknown diagnostics"),
    ("problem: linear\ndim: 1\norder: 1\nlevels: 3\nseed: -1\n", "seed"),
    ("problem: quartic\ndim: 2\norder: 2\nlevels: 3\nseed: -1\ndiagnostics: [pq]\n",
     "seed"),
    ("problem: linear\ndim: 1\norder: 1\nlevels: 3\ndiagnostics: [[galerkin]]\n",
     "diagnostics"),
    ("problem: linear\ndim: 1\norder: 1\nlevels: 3\n1: 2\nfoo: 3\n", "unknown"),
    (f"problem: linear\ndim: 1\norder: 1\nlevels: 3\nnewton_tol: {10**400}\n",
     "newton_tol"),
])
def test_load_config_rejects(tmp_path, snippet, match):
    with pytest.raises(ConfigError, match=match):
        load_config(write_config(tmp_path, snippet))


def test_run_happy_path(tmp_path):
    out = tmp_path / "out"
    code = run(write_config(tmp_path, BASE.format(out=out)))
    assert code == EXIT_OK
    rates = (out / "rates.csv").read_text().splitlines()
    assert rates[0] == ("level,h,dofs,err_l2,err_h1,slope_l2_running,"
                        "slope_h1_running,newton_iters")
    assert len(rates) == 5  # header + 4 levels
    report = (out / "report.txt").read_text()
    assert "fitted L2 slope" in report and "overall: PASS" in report
    diag = (out / "diagnostics.csv").read_text().splitlines()
    assert diag[0] == "level,name,value"
    assert sum("galerkin_defect" in line for line in diag) == 3


ADJOINT_P1 = """\
problem: quartic
dim: 2
order: 1
levels: 3
coarse_cells: 2
diagnostics: [adjoint]
output_dir: {out}
"""


# the benchmark's sampled leg: each level's ellipticity extremes come from
# a Lanczos run started from a seeded random vector
SAMPLED_P2 = """\
problem: quartic
dim: 2
order: 2
levels: 3
coarse_cells: 4
diagnostics: [ellipticity, inverse_estimate]
output_dir: {out}
"""


@pytest.mark.parametrize("config", [BASE, ADJOINT_P1, SAMPLED_P2],
                         ids=["galerkin-p1-d1", "adjoint-p1-d2", "sampled-p2-d2"])
def test_run_deterministic_outputs(tmp_path, config):
    """Byte-identical CSVs on rerun of the same config; the adjoint config
    runs the V-cycled P2 levels of its references, and the sampled config
    the Lanczos ellipticity path."""
    out = tmp_path / "out"
    path = write_config(tmp_path, config.format(out=out))
    assert run(path) == EXIT_OK
    first = {name: (out / name).read_bytes()
             for name in ("rates.csv", "diagnostics.csv", "report.txt")}
    assert run(path) == EXIT_OK
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob


def test_run_config_error_writes_nothing(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, f"problem: quartic\ndim: 1\nlevels: 4\n"
                                  f"output_dir: {out}\n")
    assert run(path) == EXIT_CONFIG
    assert not out.exists()


def test_run_solver_failure_exit_code(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, f"problem: quartic\ndim: 1\norder: 1\n"
                                  f"levels: 3\nnewton_tol: 1e-30\n"
                                  f"output_dir: {out}\n")
    assert run(path) == EXIT_SOLVER
    assert (out / "report.txt").exists()


def test_run_linear_with_galerkin_exits_zero(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, f"problem: linear\ndim: 1\norder: 1\n"
                                  f"levels: 4\ndiagnostics: [galerkin]\n"
                                  f"output_dir: {out}\n")
    assert run(path) == EXIT_OK


def test_run_failed_check_exits_one(tmp_path):
    # the quasilinear density's quadrature crime keeps the coarse-level
    # orthogonality defect above the solver-tolerance threshold, so the
    # enabled check honestly fails
    out = tmp_path / "out"
    path = write_config(tmp_path, f"problem: minimal_surface\ndim: 1\norder: 1\n"
                                  f"levels: 3\ndiagnostics: [galerkin]\n"
                                  f"output_dir: {out}\n")
    assert run(path) == EXIT_CHECK_FAILED
    assert "FAIL" in (out / "report.txt").read_text()


def test_list_problems_output():
    buf = io.StringIO()
    assert list_problems(buf) == EXIT_OK
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == 4
    text = buf.getvalue()
    assert "quartic" in text and "semilinear" in text
    assert "minimal_surface" in text and "quasilinear" in text
    assert "linear" in text and "[linear]" in text


def test_plot_data(tmp_path):
    out = tmp_path / "out"
    run(write_config(tmp_path, BASE.format(out=out)))
    assert plot_data(str(out / "rates.csv")) == EXIT_OK
    l2 = (out / "l2.dat").read_text().splitlines()
    h1 = (out / "h1.dat").read_text().splitlines()
    assert len(l2) == 4 and len(h1) == 4
    # reference slopes anchored at the coarsest data point
    script = (out / "rates.gp").read_text()
    h0, e0 = h1[0].split()
    assert f"(x/{h0})**1" in script and f"(x/{h0})**2" in script
    assert e0 in script
    # determinism on rerun
    before = (out / "l2.dat").read_bytes(), (out / "rates.gp").read_bytes()
    assert plot_data(str(out / "rates.csv")) == EXIT_OK
    assert ((out / "l2.dat").read_bytes(), (out / "rates.gp").read_bytes()) == before


def test_plot_data_rejects_short_csv(tmp_path):
    path = tmp_path / "rates.csv"
    path.write_text("level,h,dofs,err_l2,err_h1,slope_l2_running,"
                    "slope_h1_running,newton_iters\n0,0.5,3,0.1,0.2,,,1\n")
    assert plot_data(str(path)) == EXIT_CONFIG
    assert plot_data(str(tmp_path / "missing.csv")) == EXIT_CONFIG


RATES_HEADER = ("level,h,dofs,err_l2,err_h1,slope_l2_running,"
                "slope_h1_running,newton_iters\n")


@pytest.mark.parametrize("hs,h1,l2,subdir", [
    (("0.5", "0.5", "0.25"), ("0.1", "0.05", "0.025"), None, "out"),     # equal widths
    (("0.5", "0.25", "0.125"), ("0.1", "0.0", "-0.1"), None, "out"),     # < 2 positive errors
    (("0.5", "0.0", "0.125"), ("0.1", "0.05", "0.025"), None, "out"),    # zero width
    (("0.5", "-0.25", "0.125"), ("0.1", "0.05", "0.025"), None, "out"),  # negative width
    (("0.5", "inf", "0.125"), ("0.1", "0.05", "0.025"), None, "out"),    # infinite width
    (("0.5", "0.25", "0.125"), ("0.1", "inf", "0.025"), None, "out"),    # infinite error
    (("0.5", "0.25", "0.125"), ("0.1", "0.05", "0.025"), None, "file/out"),  # under a file
    (("0.5", "0.25", "0.125"), ("0.1", "0.05", "0.025"), ("0.01", "nan", "0.001"), "out"),
    (("0.5", "0.25", "0.125"), ("0.1", "0.05", "0.025"), ("0.01", "0.002", "inf"), "out"),
    (("0.5", "0.25", "0.125"), ("0.0", "0.0", "-0.1"), ("0.01", "0.002", "0.001"), "out"),
    (("0.5", "0.25", "0.125"), ("0.1", "0.05", "0.025"), ("0.0", "-0.01", "0.0"), "out"),
], ids=["equal_h", "few_positive", "zero_h", "negative_h", "inf_h", "inf_error",
        "under_file", "nan_l2_error", "inf_l2_error", "no_positive_h1_error",
        "no_positive_l2_error"])
def test_plot_bad_input_exits_config_and_writes_nothing(tmp_path, capsys, hs, h1, l2, subdir):
    """`l2` None repeats the H1 errors in the err_l2 column."""
    csv_path = tmp_path / "rates.csv"
    csv_path.write_text(RATES_HEADER + "".join(
        f"{k},{h},9,{e2},{e1},,,3\n" for k, (h, e1, e2) in enumerate(zip(hs, h1, l2 or h1))))
    (tmp_path / "file").write_text("a regular file\n")
    before = sorted(tmp_path.rglob("*"))
    assert main(["plot", str(csv_path), "--output-dir", str(tmp_path / subdir)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.strip() and "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before


def test_plot_anchors_each_reference_line_at_its_first_positive_error(tmp_path):
    """A log axis cannot show a zero or negative error, so each reference
    line starts from its own column's first positive row."""
    csv_path = tmp_path / "rates.csv"
    rows = (("0.5", "0.0", "0.0"), ("0.25", "0.05", "-0.01"), ("0.125", "0.025", "0.001"),
            ("0.0625", "0.0125", "0.0002"))
    csv_path.write_text(RATES_HEADER + "".join(
        f"{k},{h},9,{e2},{e1},,,3\n" for k, (h, e1, e2) in enumerate(rows)))
    assert plot_data(str(csv_path)) == EXIT_OK
    script = (tmp_path / "rates.gp").read_text()
    assert "ref_h1(x) = 0.05 * (x/0.25)**1\n" in script
    assert "ref_l2(x) = 0.001 * (x/0.125)**2\n" in script


@pytest.mark.parametrize("blob", [
    b"level,h,dofs,err_l2,err_h1\n0,0.5,9,0.1,0.2\n\xff\xfe,0.25\n",   # not UTF-8
    (RATES_HEADER + "0,0.5,9,0.1,0.1,,,3\n1,0.25,9,0.05\n"
     "2,0.125,9,0.025,0.025,,,3\n").encode(),                              # a short row
    RATES_HEADER.encode() + b"0," + b"9" * 200_000 + b"\n",   # over the csv field limit
], ids=["not_utf8", "short_row", "huge_field"])
def test_plot_malformed_csv_exits_config_and_writes_nothing(tmp_path, capsys, blob):
    csv_path = tmp_path / "rates.csv"
    csv_path.write_bytes(blob)
    before = sorted(tmp_path.rglob("*"))
    assert main(["plot", str(csv_path), "--output-dir", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before


def test_plot_notes_an_excluded_error_without_a_library_warning(tmp_path):
    """A zero error is left out of the fit with a one-line note on stderr;
    no Python warning, with its source file and line, reaches the user."""
    csv_path = tmp_path / "rates.csv"
    csv_path.write_text(RATES_HEADER + "".join(
        f"{k},{h},9,{e},{e},,,3\n" for k, (h, e) in enumerate(
            zip(("0.5", "0.25", "0.125", "0.0625"), ("0.1", "0.05", "0.025", "0.0")))))
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-m", "nitschelab.cli", "plot", str(csv_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK
    assert proc.stderr.strip() == ("note: excluding non-positive errors from the rate "
                                   "fit (at or below solver tolerance)")
    assert (tmp_path / "rates.gp").exists()


def test_outputs_same_bytes_at_any_blas_thread_count(tmp_path):
    """The Galerkin study below (16 641 P2 dofs at its finest level) writes
    different bytes at one and at two BLAS threads unless the CLI pins the
    BLAS to one thread."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        path = write_config(tmp_path, "problem: quartic\ndim: 2\norder: 2\nlevels: 4\n"
                            f"coarse_cells: 8\ndiagnostics: [galerkin]\noutput_dir: {out}\n",
                            name=f"threads{threads}.yaml")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run([sys.executable, "-m", "nitschelab.cli", "run", path],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == EXIT_OK, proc.stderr
        outputs.append({name: (out / name).read_bytes()
                        for name in ("rates.csv", "diagnostics.csv", "report.txt")})
    assert outputs[0] == outputs[1]


def test_blas_pin_skips_a_missing_library_or_setter(monkeypatch):
    monkeypatch.setattr(cli, "_OPENBLAS", (
        (cli.np, "libscipy_openblas64_*.so", "no_such_setter"),
        (cli.np, "no_such_library*.so", "scipy_openblas_set_num_threads64_")))
    # the pin sets the variable for the rest of the process; monkeypatch
    # restores it
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    cli._pin_blas_threads.__wrapped__()
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"


def test_main_subcommands(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path, BASE.format(out=out))
    assert main(["run", path]) == EXIT_OK
    assert main(["list-problems"]) == EXIT_OK
    assert main(["plot", str(out / "rates.csv")]) == EXIT_OK


def test_run_pq_draws_same_test_functions_on_every_level(tmp_path):
    """The pq growth gate compares sampled maxima across levels, so every
    level must draw the same test functions; with per-level draws this
    seed grows by a factor of about 5 and fails the gate."""
    out = tmp_path / "out"
    path = write_config(tmp_path, f"problem: quartic\ndim: 2\norder: 2\n"
                                  f"levels: 3\ncoarse_cells: 2\n"
                                  f"diagnostics: [pq]\nseed: 11\n"
                                  f"output_dir: {out}\n")
    assert run(path) == EXIT_OK
    assert "[PASS] pq" in (out / "report.txt").read_text()


def test_run_diagnostic_failure_exits_solver(tmp_path, monkeypatch, capsys):
    """A library error inside a diagnostic ends the study as a solver
    failure: exit 3, report.txt written, no traceback."""
    from nitschelab import analysis

    def fail(*args, **kwargs):
        raise analysis.PowerIterationError("eigenvalue iteration stagnated")

    monkeypatch.setattr(analysis, "estimate_ellipticity", fail)
    out = tmp_path / "out"
    path = write_config(tmp_path, f"problem: quartic\ndim: 1\norder: 1\n"
                                  f"levels: 3\ndiagnostics: [ellipticity]\n"
                                  f"output_dir: {out}\n")
    assert main(["run", path]) == EXIT_SOLVER
    report = (out / "report.txt").read_text()
    assert "aborted: level 0: eigenvalue iteration stagnated" in report
    assert "Traceback" not in capsys.readouterr().err


def test_run_failed_adjoint_extension_exits_solver(tmp_path, monkeypatch, capsys):
    """For m >= 2 the adjoint of level 0 solves level 1 first; a Newton
    failure there is a solver failure at level 1."""
    from nitschelab import analysis, solver

    original, calls = analysis.minimize, []

    def flaky(model, space, newton, **kwargs):
        calls.append(space)
        if len(calls) == 2:
            raise solver.NewtonError("no convergence (forced)")
        return original(model, space, newton, **kwargs)

    monkeypatch.setattr(analysis, "minimize", flaky)
    out = tmp_path / "out"
    path = write_config(tmp_path, f"problem: quartic\ndim: 2\norder: 2\nlevels: 3\n"
                                  f"coarse_cells: 2\ndiagnostics: [adjoint]\n"
                                  f"output_dir: {out}\n")
    assert main(["run", path]) == EXIT_SOLVER
    report = (out / "report.txt").read_text()
    assert "aborted: level 1: no convergence (forced)" in report
    assert "[FAIL] adjoint: no data" in report
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("dim,order,cells,levels,diagnostics,accepted", [
    # d=1: 4 * cells * order + 1 dofs after two refinements
    (1, 1, (MAX_DOFS - 1) // 4, 3, "[]", True),
    (1, 1, (MAX_DOFS - 1) // 4 + 1, 3, "[]", False),
    (1, 1, 100_000_000, 3, "[]", False),
    (1, 3, 8, 10**6, "[]", False),
    # d=2, adjoint: reference two levels finer at order 2, (32 cells + 1)^2
    (2, 1, 32, 3, "[]", True),
    (2, 1, 31, 3, "[adjoint]", True),
    (2, 1, 32, 3, "[adjoint]", False),
    (2, 3, 10**30, 3, "[]", False),
])
def test_load_config_size_cap(tmp_path, dim, order, cells, levels, diagnostics, accepted):
    """The largest space of the study is bounded before anything runs;
    the library's check (`analysis._check_study`) rejects these sizes,
    and load_config reports its error as a config error."""
    path = write_config(tmp_path, f"problem: quartic\ndim: {dim}\norder: {order}\n"
                                  f"levels: {levels}\ncoarse_cells: {cells}\n"
                                  f"diagnostics: {diagnostics}\n")
    if accepted:
        assert load_config(path).coarse_cells == cells
    else:
        with pytest.raises(ConfigError, match="too large"):
            load_config(path)


def test_run_unwritable_output_dir_is_config_error(tmp_path, monkeypatch, capsys):
    """An output_dir below a regular file exits 2 before any study work."""
    def no_study(*args, **kwargs):
        raise AssertionError("the study ran")

    monkeypatch.setattr(cli, "convergence_study", no_study)
    blocker = tmp_path / "file"
    blocker.write_text("data")
    path = write_config(tmp_path, BASE.format(out=blocker / "out"))
    assert main(["run", path]) == EXIT_CONFIG
    assert blocker.read_text() == "data"
    assert sorted(os.listdir(tmp_path)) == ["file", "study.yaml"]
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


@pytest.mark.parametrize("name,dangling", [
    ("rates.csv", False), ("diagnostics.csv", False), ("report.txt", False),
    ("report.txt", True)], ids=["rates.csv", "diagnostics.csv", "report.txt",
                                "report.txt-dangling-symlink"])
def test_run_output_file_taken_by_a_directory_is_config_error(tmp_path, monkeypatch,
                                                              capsys, name, dangling):
    """An output file whose name a directory or a dangling symlink holds
    exits 2 before any study work, and writes nothing.  A dangling symlink
    used to let the study run and write through it."""
    def no_study(*args, **kwargs):
        raise AssertionError("the study ran")

    monkeypatch.setattr(cli, "convergence_study", no_study)
    out = tmp_path / "out"
    if dangling:
        out.mkdir()
        (out / name).symlink_to(tmp_path / "missing")
    else:
        (out / name).mkdir(parents=True)
    path = write_config(tmp_path, BASE.format(out=out))
    assert main(["run", path]) == EXIT_CONFIG
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == [
        Path("out"), Path("out") / name, Path("study.yaml")]
    err = capsys.readouterr().err
    assert "config error" in err and name in err and "Traceback" not in err


@pytest.mark.parametrize("text,reason", [
    # one P1 cell has no interior dofs, so no coercivity constant
    ("problem: linear\ndim: 1\norder: 1\ncoarse_cells: 1\n"
     "diagnostics: [ellipticity]\n", "needs interior dofs"),
    # a tolerance met at the initial guess on both the level and its
    # reference space leaves the adjoint a zero right-hand side
    ("problem: linear\ndim: 1\norder: 2\ncoarse_cells: 1\nnewton_tol: 1e300\n"
     "diagnostics: [adjoint]\n", "zero right-hand side"),
])
def test_run_undefined_diagnostic_exits_check_failed(tmp_path, capsys, text, reason):
    out = tmp_path / "out"
    path = write_config(tmp_path, f"{text}levels: 3\noutput_dir: {out}\n")
    assert main(["run", path]) == EXIT_CHECK_FAILED
    report = (out / "report.txt").read_text()
    assert "aborted: level 0:" in report and reason in report
    assert "Traceback" not in capsys.readouterr().err


def test_run_cg_breakdown_exits_solver(tmp_path, capsys):
    """Tolerances at the bottom of the float range drive the Newton
    residual into underflow; conjugate gradients stops with a solver
    failure instead of dividing by zero."""
    out = tmp_path / "out"
    path = write_config(tmp_path, f"problem: quartic\ndim: 1\norder: 3\nlevels: 3\n"
                                  f"coarse_cells: 2\nnewton_tol: 5.0e-324\n"
                                  f"linear_tol: 1.0e-300\noutput_dir: {out}\n")
    assert main(["run", path]) == EXIT_SOLVER
    assert "underflowed" in (out / "report.txt").read_text()
    assert "Traceback" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the exit-code contract over arbitrary flat configs

_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.integers(-(10**30), 10**30), st.sampled_from([-(2**70), 2**70, 10**400]),
    st.floats(), st.text(max_size=6), st.lists(st.integers(-1, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))

# values load_config accepts, weighted towards the runnable ones; only at
# most 2 coarse cells and 3 levels (d = 1 or 2) are small enough to run
_VALID = {
    "problem": st.sampled_from(PROBLEM_NAMES),
    "dim": st.sampled_from([1, 1, 1, 2]),
    "order": st.integers(1, 3),
    "levels": st.sampled_from([3, 3, 3, 4]),
    "coarse_cells": st.sampled_from([1, 2, 2, 3]),
    "diagnostics": st.one_of(st.lists(st.sampled_from(DIAGNOSTIC_NAMES), max_size=2),
                             st.sampled_from(DIAGNOSTIC_NAMES)),
    "seed": st.one_of(st.integers(0, 20), st.just(2**70)),
    "newton_tol": st.sampled_from([1e-10, 1e-6, "1e-12", 1e300, 5e-324]),
    "linear_tol": st.sampled_from([1e-10, 1e-6, "1e-12", 1e-300]),
    "output_dir": st.sampled_from(["<out>"] * 4 + ["<under file>", "<nul>"]),
}
_OUTPUT_DIRS = {"<out>": ("out",), "<under file>": ("file", "out"), "<nul>": ("a\x00b",)}


@st.composite
def flat_configs(draw):
    """A valid config with, half of the time, some keys set to junk, one
    key dropped or one unknown key added."""
    cfg = {key: draw(strategy) for key, strategy in _VALID.items()}
    keys = st.sampled_from(sorted(_VALID))
    mutation = draw(st.sampled_from(["none", "none", "junk", "drop", "extra"]))
    if mutation == "junk":
        for key in draw(st.sets(keys, min_size=1, max_size=3)):
            cfg[key] = draw(_JUNK)
    elif mutation == "drop":
        del cfg[draw(keys)]
    elif mutation == "extra":
        cfg[draw(st.one_of(st.text(max_size=4), st.integers()))] = draw(_JUNK)
    return cfg


@settings(deadline=None, max_examples=200, database=None, derandomize=True)
@given(flat_configs())
def test_exit_code_contract(cfg):
    """Exit code in {0, 1, 2, 3}, nothing written on exit 2, and never a
    traceback; only accepted configs of the tiny size (at most 2 coarse
    cells, 3 levels, d = 1 or 2) are run."""
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "file"), "w") as fh:
            fh.write("data")
        if isinstance(cfg.get("output_dir"), str) and cfg["output_dir"] in _OUTPUT_DIRS:
            cfg["output_dir"] = os.path.join(tmp, *_OUTPUT_DIRS[cfg["output_dir"]])
        path = os.path.join(tmp, "study.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(cfg, fh)
        try:
            loaded = load_config(path)
        except ConfigError:
            loaded = None
        if loaded is not None and not (
                loaded.coarse_cells <= 2 and loaded.levels == 3
                and os.path.abspath(loaded.output_dir).startswith(tmp + os.sep)):
            return
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", path])
        assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_SOLVER)
        assert "Traceback" not in err.getvalue()
        if code == EXIT_CONFIG:
            assert sorted(os.listdir(tmp)) == ["file", "study.yaml"]
            with open(os.path.join(tmp, "file")) as fh:
                assert fh.read() == "data"


# ---------------------------------------------------------------------------
# checks that cannot pass without data

@pytest.mark.parametrize("text,code,empty", [
    # one P1 cell has no interior dofs: the study aborts at level 0
    ("problem: linear\ndim: 1\norder: 1\ncoarse_cells: 1\n"
     "diagnostics: [ellipticity]\n", EXIT_CHECK_FAILED, ("ellipticity",)),
    ("problem: linear\ndim: 1\norder: 1\ncoarse_cells: 1\n"
     "diagnostics: [galerkin, ellipticity, inverse_estimate]\n", EXIT_CHECK_FAILED,
     ("ellipticity", "galerkin", "inverse_estimate")),
    # a zero adjoint right-hand side at level 0
    ("problem: linear\ndim: 1\norder: 2\ncoarse_cells: 1\nnewton_tol: 1e300\n"
     "diagnostics: [adjoint]\n", EXIT_CHECK_FAILED, ("adjoint",)),
    # conjugate gradients breaks down at level 0, before any diagnostic
    ("problem: quartic\ndim: 1\norder: 3\ncoarse_cells: 2\nnewton_tol: 5.0e-324\n"
     "linear_tol: 1.0e-300\ndiagnostics: [pq, galerkin, adjoint, ellipticity, "
     "inverse_estimate]\n", EXIT_SOLVER, DIAGNOSTIC_NAMES),
])
def test_run_enabled_diagnostic_without_data_fails(tmp_path, text, code, empty):
    out = tmp_path / "out"
    path = write_config(tmp_path, f"{text}levels: 3\noutput_dir: {out}\n")
    assert run(path) == code
    lines = (out / "report.txt").read_text().splitlines()
    for name in empty:
        assert f"[FAIL] {name}: no data" in lines
        assert not any(line.startswith(f"[PASS] {name}:") for line in lines)
    assert lines[-1] == "overall: FAIL"


def test_run_pq_passes_when_the_third_variation_vanishes(tmp_path):
    """The linear problem's third variation is zero, so every sampled
    ratio is exactly 0; the gate passes and says why."""
    out = tmp_path / "out"
    path = write_config(tmp_path, f"problem: linear\ndim: 1\norder: 2\nlevels: 3\n"
                                  f"coarse_cells: 2\ndiagnostics: [pq]\n"
                                  f"output_dir: {out}\n")
    assert run(path) == EXIT_OK
    lines = (out / "report.txt").read_text().splitlines()
    assert "[PASS] pq: every ratio is 0: the third variation vanishes" in lines
    assert all(line.endswith(",pq_ratio,0.0")
               for line in (out / "diagnostics.csv").read_text().splitlines()[1:])
