import io

import pytest

from nitschelab.cli import (EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_OK,
                            EXIT_SOLVER, ConfigError, list_problems,
                            load_config, main, plot_data, run)


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


def test_run_deterministic_outputs(tmp_path):
    """Byte-identical CSVs on rerun of the same config."""
    out = tmp_path / "out"
    path = write_config(tmp_path, BASE.format(out=out))
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
