"""Command-line front end: run convergence studies from a flat config
file, list the built-in problems, and emit gnuplot-ready rate data.

Config files are flat key/value YAML; see StudyConfig for the schema.
Outputs (rates.csv, diagnostics.csv, report.txt) are written with
shortest round-trip float formatting, so reruns of the same config are
byte-identical.

`main` runs the BLAS bundled with numpy and with scipy on one thread,
so the outputs are the same bytes at any BLAS thread count.

Exit codes: 0 all enabled checks pass, 1 a rate or diagnostic check
failed, 2 config error (no files written), 3 solver failure.  A config
the library rejects (too large for `analysis.MAX_DOFS`, say), or whose
output_dir cannot be created, is a config error found before any work.
"""

import argparse
import csv
import dataclasses
import functools
import os
import sys
import warnings

import numpy as np
import scipy
import yaml

from .analysis import (DIAGNOSTIC_COLUMNS, StudyOptions, _check_study,
                       convergence_study, estimate_rate)
from .energy import PROBLEM_NAMES, build_problem, classify
from .solver import NewtonOptions

__all__ = ["StudyConfig", "ConfigError", "load_config", "run", "list_problems",
           "plot_data", "main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3


class ConfigError(ValueError):
    """Invalid study configuration."""


@dataclasses.dataclass(frozen=True)
class StudyConfig:
    problem: str
    dim: int
    order: int
    levels: int
    coarse_cells: int = StudyOptions.coarse_cells
    diagnostics: tuple = StudyOptions.diagnostics
    seed: int = StudyOptions.seed
    newton_tol: float = NewtonOptions.residual_tol
    linear_tol: float = NewtonOptions.linear_tol
    output_dir: str = "."


def _study(cfg):
    """The library's (problem, StudyOptions) for `cfg`, or its ValueError."""
    problem = build_problem(cfg.problem, cfg.dim)
    newton = NewtonOptions(residual_tol=cfg.newton_tol, linear_tol=cfg.linear_tol)
    opts = StudyOptions(coarse_cells=cfg.coarse_cells, newton=newton,
                        diagnostics=cfg.diagnostics, seed=cfg.seed)
    return problem, _check_study(problem, cfg.order, cfg.levels, opts)


def load_config(path):
    """Parse and validate a flat key/value config file."""
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from err
    except (yaml.YAMLError, UnicodeDecodeError) as err:
        raise ConfigError(f"config is not valid key/value text: {err}") from err
    if not isinstance(data, dict):
        raise ConfigError("config must be a flat mapping of keys to values")

    defaults = {f.name: f.default for f in dataclasses.fields(StudyConfig)}
    unknown = set(data) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown, key=str)}")
    missing = [k for k, v in defaults.items() if v is dataclasses.MISSING and k not in data]
    if missing:
        raise ConfigError(f"missing required config keys: {missing}")
    values = {k: data.get(k, default) for k, default in defaults.items()}

    diagnostics = values["diagnostics"]
    if isinstance(diagnostics, str):
        diagnostics = [s.strip() for s in diagnostics.split(",") if s.strip()]
    # a name that is not a string would reach the library as a TypeError
    if (not isinstance(diagnostics, (list, tuple))
            or not all(isinstance(name, str) for name in diagnostics)):
        raise ConfigError("diagnostics must be a list or comma-separated names")
    values["diagnostics"] = tuple(diagnostics)

    for key in ("newton_tol", "linear_tol"):
        value = values[key]
        # yaml reads exponent forms like 1e-12 as strings; huge ints overflow
        try:
            value = (float(value) if isinstance(value, (int, float, str))
                     and not isinstance(value, bool) else np.nan)
        except (ValueError, OverflowError):
            value = np.nan
        if not 0 < value < np.inf:
            raise ConfigError(f"{key} must be a positive finite number")
        values[key] = value

    if not isinstance(values["output_dir"], str):
        raise ConfigError("output_dir must be a string path")

    cfg = StudyConfig(**values)
    # the library checks every study input; each message names its key
    try:
        _study(cfg)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    return cfg


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(float(value))


def _running_slopes(levels):
    slopes = [(None, None)]
    for prev, cur in zip(levels, levels[1:]):
        dh = np.log(prev.h / cur.h)
        slopes.append((np.log(prev.err_l2 / cur.err_l2) / dh,
                       np.log(prev.err_h1 / cur.err_h1) / dh))
    return slopes


def _write_rates_csv(path, report):
    slopes = _running_slopes(report.levels)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["level", "h", "dofs", "err_l2", "err_h1",
                         "slope_l2_running", "slope_h1_running", "newton_iters"])
        for lr, (s2, s1) in zip(report.levels, slopes):
            writer.writerow([lr.level, _fmt(lr.h), lr.dofs, _fmt(lr.err_l2),
                             _fmt(lr.err_h1), _fmt(s2), _fmt(s1), lr.newton_iters])


def _write_diagnostics_csv(path, report):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["level", "name", "value"])
        for diag in sorted(report.diagnostics):
            names = DIAGNOSTIC_COLUMNS[diag]
            for entry in report.diagnostics[diag]:
                level, values = entry[0], entry[1:]
                for name, value in zip(names, values):
                    writer.writerow([level, name, _fmt(value)])


def _evaluate_checks(cfg, report):
    """(name, passed, detail) for every enabled check."""
    checks = []
    m = cfg.order
    if report.rate_h1 is not None:
        lo, hi = m - 0.15, m + 0.25
        ok = lo <= report.rate_h1.slope <= hi and report.rate_h1.r_squared >= 0.995
        checks.append(("h1_rate", ok,
                       f"slope {_fmt(report.rate_h1.slope)} in [{lo}, {hi}], "
                       f"r2 {_fmt(report.rate_h1.r_squared)} >= 0.995"))
        lo2, hi2 = m + 0.75, m + 1.3
        ok2 = lo2 <= report.rate_l2.slope <= hi2 and report.rate_l2.r_squared >= 0.99
        checks.append(("l2_rate", ok2,
                       f"slope {_fmt(report.rate_l2.slope)} in [{lo2}, {hi2}], "
                       f"r2 {_fmt(report.rate_l2.r_squared)} >= 0.99"))
    else:
        checks.append(("rates", False, "fewer than 3 completed levels"))

    threshold = 100.0 * (cfg.newton_tol + cfg.linear_tol)
    for diag in sorted(report.diagnostics):
        # the first value of every entry is the one checked
        values = [e[1] for e in report.diagnostics[diag]]
        if not values:
            # an enabled diagnostic that recorded nothing certifies nothing
            checks.append((diag, False, "no data"))
        elif diag == "galerkin":
            worst = max(values)
            checks.append(("galerkin", worst <= threshold,
                           f"max defect {_fmt(worst)} <= {_fmt(threshold)}"))
        elif diag == "adjoint":
            worst = max(values)
            checks.append(("adjoint", worst < 0.05,
                           f"max identity residual {_fmt(worst)} < 0.05"))
        elif diag == "ellipticity":
            worst = min(values)
            checks.append(("ellipticity", worst > 0,
                           f"min lambda_min {_fmt(worst)} > 0"))
        elif diag == "pq":
            if max(values) == 0.0:
                checks.append(("pq", True, "every ratio is 0: the third variation vanishes"))
            else:
                growth = max(values) / values[0] if values[0] > 0 else np.inf
                checks.append(("pq", growth < 2.0,
                               f"growth factor {_fmt(growth)} < 2"))
        elif diag == "inverse_estimate":
            spread = max(values) / min(values) - 1.0
            checks.append(("inverse_estimate", spread < 0.10,
                           f"level spread {_fmt(spread)} < 0.1"))
    return checks


def _write_report_txt(path, cfg, report, checks, overall):
    lines = [
        f"problem: {cfg.problem} (dim {cfg.dim}, order {cfg.order})",
        f"levels: {cfg.levels} from {cfg.coarse_cells} cells per side",
        f"tolerances: newton {_fmt(cfg.newton_tol)}, linear {_fmt(cfg.linear_tol)}",
        f"seed: {cfg.seed}",
        "",
        "level        h       dofs       err_l2       err_h1  iters   |u_h|_W14",
    ]
    for lr in report.levels:
        lines.append(f"{lr.level:5d} {lr.h:8.5f} {lr.dofs:10d} {lr.err_l2:12.5e} "
                     f"{lr.err_h1:12.5e} {lr.newton_iters:6d} {lr.stability_w1q:11.5e}")
    lines.append("")
    if report.rate_h1 is not None:
        lines.append(f"fitted H1 slope: {report.rate_h1.slope:.4f} "
                     f"(expected {cfg.order}), r2 {report.rate_h1.r_squared:.6f}")
        lines.append(f"fitted L2 slope: {report.rate_l2.slope:.4f} "
                     f"(expected {cfg.order + 1}), r2 {report.rate_l2.r_squared:.6f}")
    if report.aborted:
        lines.append(f"aborted: {report.aborted}")
    lines.append("")
    lines += [f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}" for name, ok, detail in checks]
    lines += ["", f"overall: {'PASS' if overall else 'FAIL'}"]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def run(config_path):
    """Run the configured study; write rates.csv, diagnostics.csv, report.txt."""
    try:
        cfg = load_config(config_path)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    for name in ("rates.csv", "diagnostics.csv", "report.txt"):
        path = os.path.join(cfg.output_dir, name)
        if os.path.lexists(path) and not os.path.isfile(path):
            print(f"config error: output file {name} is not a regular file", file=sys.stderr)
            return EXIT_CONFIG
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
    except (OSError, ValueError) as err:   # ValueError: a NUL byte in the path
        print(f"config error: cannot create output_dir: {err}", file=sys.stderr)
        return EXIT_CONFIG

    problem, opts = _study(cfg)
    report = convergence_study(problem, cfg.order, cfg.levels, opts)

    checks = _evaluate_checks(cfg, report)
    overall = all(ok for _, ok, _ in checks) and not report.aborted
    _write_rates_csv(os.path.join(cfg.output_dir, "rates.csv"), report)
    _write_diagnostics_csv(os.path.join(cfg.output_dir, "diagnostics.csv"), report)
    _write_report_txt(os.path.join(cfg.output_dir, "report.txt"), cfg, report, checks,
                      overall)

    if report.abort_kind == "solver":
        print(f"solver failure: {report.aborted}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK if overall else EXIT_CHECK_FAILED


def list_problems(stream=None):
    """One line per built-in problem: name, energy, classification."""
    stream = stream or sys.stdout
    for name in PROBLEM_NAMES:
        problem = build_problem(name, 2)
        kind = classify(problem.model)
        stream.write(f"{name:16s} J(u) = int {problem.model.formula} dx  [{kind}]\n")
    return EXIT_OK


def plot_data(rates_csv_path, output_dir=None):
    """Write l2.dat / h1.dat plus a gnuplot script with reference slopes.

    The reference exponents are the fitted H1 slope rounded to the nearest
    integer (the csv schema does not carry the order) and that value plus
    one. Each reference line is anchored at the coarsest row whose error
    in its column is positive, since a log axis shows no other; a column
    without one exits EXIT_CONFIG with nothing written.
    """
    try:
        with open(rates_csv_path) as fh:
            rows = list(csv.DictReader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as err:
        print(f"cannot read rates csv: {err}", file=sys.stderr)
        return EXIT_CONFIG
    if len(rows) < 3:
        print("rates csv has fewer than 3 rows", file=sys.stderr)
        return EXIT_CONFIG
    try:
        hs = [float(r["h"]) for r in rows]
        l2 = [float(r["err_l2"]) for r in rows]
        h1 = [float(r["err_h1"]) for r in rows]
    except (KeyError, ValueError, TypeError) as err:   # TypeError: a short row
        print(f"malformed rates csv: {err}", file=sys.stderr)
        return EXIT_CONFIG
    if not np.isfinite(l2).all():   # the fit below checks the H1 column
        print("malformed rates csv: L2 errors must be finite", file=sys.stderr)
        return EXIT_CONFIG
    if not any(e > 0 for e in l2):
        print("malformed rates csv: no positive L2 error", file=sys.stderr)
        return EXIT_CONFIG

    # the fit validates the data, so it comes before any file is written;
    # its warnings reach the user as notes, not as library warnings
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            m = max(1, int(round(estimate_rate(list(zip(hs, h1))).slope)))
    except ValueError as err:
        print(f"cannot fit a rate to the rates csv: {err}", file=sys.stderr)
        return EXIT_CONFIG
    for warning in caught:
        print(f"note: {warning.message}", file=sys.stderr)
    # a log axis shows only positive errors, so each line is anchored at its
    # column's first positive one (the fit needs two in the H1 column)
    (h1_0, e1_0), (h2_0, e2_0) = ([(h, e) for h, e in zip(hs, errs) if e > 0][0]
                                  for errs in (h1, l2))
    script = "\n".join([
        "set logscale xy",
        "set xlabel 'h'",
        "set ylabel 'error'",
        f"ref_h1(x) = {_fmt(e1_0)} * (x/{_fmt(h1_0)})**{m}",
        f"ref_l2(x) = {_fmt(e2_0)} * (x/{_fmt(h2_0)})**{m + 1}",
        "plot 'h1.dat' with linespoints title 'H1 error', \\",
        "     'l2.dat' with linespoints title 'L2 error', \\",
        f"     ref_h1(x) with lines dashtype 2 title 'h^{m}', \\",
        f"     ref_l2(x) with lines dashtype 2 title 'h^{m + 1}'",
    ]) + "\n"
    out = output_dir or os.path.dirname(os.path.abspath(rates_csv_path))
    try:
        os.makedirs(out, exist_ok=True)
        for fname, errs in (("l2.dat", l2), ("h1.dat", h1)):
            with open(os.path.join(out, fname), "w") as fh:
                for h, e in zip(hs, errs):
                    fh.write(f"{_fmt(h)} {_fmt(e)}\n")
        with open(os.path.join(out, "rates.gp"), "w") as fh:
            fh.write(script)
    except (OSError, ValueError) as err:   # ValueError: a NUL byte in the path
        print(f"cannot write plot data: {err}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


# the OpenBLAS copies that numpy and scipy wheels bundle: (package, file
# pattern in the package's `<package>.libs` folder, thread-count setter)
_OPENBLAS = ((np, "libscipy_openblas64_*.so", "scipy_openblas_set_num_threads64_"),
             (scipy, "libscipy_openblas*.so", "scipy_openblas_set_num_threads"))


@functools.cache
def _pin_blas_threads():
    """Run every bundled OpenBLAS copy on one thread, once per process.

    Threaded BLAS kernels split their sums by thread count, so with more
    than one thread the bytes of a study's outputs depend on it (the
    dense root inverse of the multigrid cycle, for one).  A copy already
    loaded is set through its own setter; one loaded later (scipy's,
    imported by the diagnostics that need it) reads OPENBLAS_NUM_THREADS
    when it starts, so that is set first.  Loading a copy here would cost
    its memory in studies that never use it.  A copy or setter that is
    not there is skipped."""
    import ctypes
    import glob

    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    for package, pattern, setter in _OPENBLAS:
        site = os.path.dirname(os.path.dirname(package.__file__))
        for path in sorted(glob.glob(os.path.join(site, f"{package.__name__}.libs", pattern))):
            try:
                getattr(ctypes.CDLL(path, mode=os.RTLD_NOLOAD), setter)(1)
            except (OSError, AttributeError):
                pass


def main(argv=None):
    _pin_blas_threads()
    parser = argparse.ArgumentParser(
        prog="nitschelab",
        description="convergence-rate laboratory for energy minimization by "
                    "Lagrange finite elements")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a study from a config file")
    p_run.add_argument("config")
    sub.add_parser("list-problems", help="list built-in problems")
    p_plot = sub.add_parser("plot", help="emit gnuplot data from rates.csv")
    p_plot.add_argument("rates_csv")
    p_plot.add_argument("--output-dir", default=None)

    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config)
    if args.command == "list-problems":
        return list_problems()
    return plot_data(args.rates_csv, args.output_dir)


if __name__ == "__main__":
    sys.exit(main())
