"""Self-tests of the benchmark harness.

Run from the repository root:  python3 perfbench/selftest.py

The file name does not match test_*.py, so the library's pytest run does
not collect it.  Exits 0 when every test passes.
"""

import os
import signal
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402
import scipy.sparse as sp  # noqa: E402

import calibration  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from nitschelab import analysis, cli, energy, solver  # noqa: E402
from nitschelab.assembly import SparseOperator  # noqa: E402


def _span(name, start, end, parent):
    s = spans.Span(name, start, parent, 0)
    s.end = end
    return s


def test_self_time_of_synthetic_tree():
    # root [0, 100] > a [10, 40], b [50, 90] > c [60, 70]
    tree = [_span("cli.run", 0, 100, None), _span("solver.minimize", 10, 40, 0),
            _span("analysis.adjoint", 50, 90, 0), _span("assembly.norms", 60, 70, 2)]
    own = [round(t * 1e9) for t in spans.self_times(tree)]
    assert own == [30, 30, 30, 10], own
    assert abs(sum(own) - 100) == 0


def test_line_search_counts():
    # one Newton step with two trial energies, one without a line search,
    # then the converged residual check
    names = ["assembly.residual", "assembly.energy_value", "assembly.hessian",
             "solver.linear_solve", "assembly.energy_value", "assembly.energy_value",
             "assembly.residual", "assembly.energy_value", "assembly.hessian",
             "solver.linear_solve",
             "assembly.residual", "assembly.energy_value"]
    tree = [_span("solver.minimize", 0, 100, None)]
    tree += [_span(n, i + 1, i + 2, 0) for i, n in enumerate(names)]
    m = spans._solver_metrics(tree, spans.self_times(tree))
    assert m["solver.newton_iters"] == 2, m
    assert m["solver.line_search_trials"] == 2, m
    assert m["solver.line_search_accept_ratio"] == 0.5, m


def test_cg_proxy_counts_capped_iterations():
    n = 60
    lap = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]).tocsr()
    op = SparseOperator(lap)
    tracer = spans.Tracer()
    traced = tracer.wrap_linear_solve(solver.linear_solve)
    try:
        traced(op, np.ones(n), tol=1e-15, max_iters=7)
    except solver.LinearSolveError as err:
        capped = err.iterations
    else:
        raise AssertionError("max_iters=7 did not stop conjugate gradients")
    (span,) = tracer.spans
    assert capped == 7
    assert span.counts["cg_iters"] == capped, span.counts
    assert span.error == "LinearSolveError"


def test_install_restores_bindings():
    names = [(m, attr) for modules, attr, _, _ in spans.BINDINGS for m in modules]
    names += [(solver, "linear_solve"), (analysis, "linear_solve"),
              (energy, "build_problem"), (cli, "build_problem")]
    before = [getattr(m, attr) for m, attr in names]
    with spans.installed(spans.Tracer()):
        assert all(getattr(m, attr) is not f for (m, attr), f in zip(names, before))
    assert all(getattr(m, attr) is f for (m, attr), f in zip(names, before))


def test_calibration_measure():
    speed = calibration.Calibration()
    before = signal.getsignal(signal.SIGPROF)
    result, wall, factor = speed.measure(sum, range(10 ** 6))
    assert result == sum(range(10 ** 6))
    assert wall > 0 and factor > 0
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def _fake_cli_result(ref):
    """CLI outputs that reproduce one reference entry exactly."""
    rates = ["level,h,dofs,err_l2,err_h1,slope_l2_running,slope_h1_running,newton_iters"]
    rates += [f"{k},0.1,1,{l2!r},{h1!r},,,1" for k, (l2, h1) in enumerate(ref["errors"])]
    diags = ["level,name,value"]
    for key, values in ref["diagnostics"].items():
        diags += [f"{k},{key},{v!r}" for k, v in enumerate(values)]
    report = [f"[PASS] {c}: ok" for c in ref["report_checks"]] + ["overall: PASS"]
    files = {"rates.csv": rates, "diagnostics.csv": diags, "report.txt": report}
    return {"rc": 0, "bytes_written": 0,
            "files": {k: ("\n".join(v) + "\n").encode() for k, v in files.items()}}


def _failed(checks):
    return [name for name, ok, _ in checks if not ok]


def _leg(workload, label):
    (leg,) = [leg for leg in workloads.WORKLOADS[workload] if leg.label == label]
    return leg


def test_reference_check_flags_perturbed_value():
    reference = workloads.load_reference()["diagnostics_p2"]
    leg = _leg("diagnostics_p2", "sampled")
    exact = _fake_cli_result(reference["sampled"])
    assert _failed(leg.checks(exact, exact, reference)) == []

    ref = reference["sampled"]
    for rel, flagged in ((1e-9, False), (1e-5, True)):
        errors = [[ref["errors"][1][0] * (1 + rel), ref["errors"][1][1]]]
        perturbed = dict(ref, errors=ref["errors"][:1] + errors + ref["errors"][2:])
        failed = _failed(leg.checks(_fake_cli_result(perturbed), None, reference))
        assert failed == (["sampled.level1.err_l2"] if flagged else []), (rel, failed)

    lam = ref["diagnostics"]["lambda_min"]
    perturbed = dict(ref, diagnostics=dict(ref["diagnostics"],
                                           lambda_min=[lam[0] * (1 + 1e-4)] + lam[1:]))
    failed = _failed(leg.checks(_fake_cli_result(perturbed), None, reference))
    assert failed == ["sampled.level0.lambda_min"], failed

    crashed = leg.checks(None, exact, reference)
    assert len(crashed) == len(leg.checks(exact, exact, reference))
    assert all(not ok for _, ok, _ in crashed)


def test_byte_difference_is_flagged():
    reference = workloads.load_reference()["rates_p1"]
    leg = _leg("rates_p1", "study")
    first = _fake_cli_result(reference["study"])
    again = _fake_cli_result(reference["study"])
    again["files"]["report.txt"] += b"\n"
    assert _failed(leg.checks(again, first, reference)) == ["study.identical.report.txt"]


def main():
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok   {name}")
        except Exception:
            failures += 1
            print(f"FAIL {name}")
            traceback.print_exc()
    print(f"{len(tests) - failures}/{len(tests)} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
