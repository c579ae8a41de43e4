"""The benchmark's three workloads and the checks on their outputs.

A workload is a list of legs run in order.  Each leg has
`prepare(seed, workdir)`, which makes its inputs, `run(inputs)`, which
does the timed work through the library, and
`checks(result, first, reference)`, which returns one (name, ok, detail)
triple per check.  `checks` returns the same names whether or not the
leg finished, so a leg that crashed or timed out (`result` None) fails
every one of its checks.

Reference values live in reference.json beside this file; see
make_reference.py.  Why each workload was chosen is in README.md.
"""

import json
import os

from nitschelab import analysis, assembly, cli, energy, felement, mesh, solver

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

CLI_FILES = ("rates.csv", "diagnostics.csv", "report.txt")
NEWTON_TOL = 1e-12
LINEAR_TOL = 1e-12

# Newton stops once the residual sup-norm is below newton_tol.  Tightening
# linear_tol from 1e-12 to 1e-14, or warm-starting every level, moved the
# level errors of a quartic P1 study by at most 4.3e-10 relative; loosening
# newton_tol from 1e-12 to 1e-10 moved them by 6.1e-7.  So an error moves by
# at most about 6e3 * newton_tol when the solver path changes, and the
# reference check allows 1e5 * (newton_tol + linear_tol).
SOLVER_REL_TOL = 1e5 * (NEWTON_TOL + LINEAR_TOL)
# The ellipticity extremes come from LOBPCG (relative residual 1e-6) started
# from seed-dependent vectors, so they are compared at that accuracy.
EIGEN_REL_TOL = 1e-6
# Interpolation errors involve no solver; only the summation order of the
# quadrature can move them.
INTERP_REL_TOL = 1e-9
# AC-3: interpolation slopes within 0.15 of m+1 (L2) and m (H1).
AC3_SLOPE_TOL = 0.15
# The CLI's pq gate: the sampled third-variation ratio grows by less than 2.
PQ_GROWTH_LIMIT = 2.0


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _check_value(name, value, ref, rtol):
    ok = value is not None and abs(value - ref) <= rtol * abs(ref)
    return (name, ok, f"{value!r} vs reference {ref!r}, rtol {rtol:g}")


class CliStudy:
    """One `nitschelab run` study, called in-process through `cli.main`.
    The seed goes into the config's `seed` key."""

    def __init__(self, label, keys):
        self.label = label
        self.keys = keys  # config keys other than seed, tolerances, output_dir

    def prepare(self, seed, workdir):
        out = os.path.join(workdir, self.label)
        os.makedirs(out, exist_ok=True)
        lines = [f"{k}: {v}" for k, v in self.keys.items()]
        lines += [f"seed: {seed}", f"newton_tol: {NEWTON_TOL!r}",
                  f"linear_tol: {LINEAR_TOL!r}", f"output_dir: {out}"]
        path = os.path.join(workdir, f"{self.label}.yaml")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return path, out

    def run(self, inputs):
        path, out = inputs
        for fname in CLI_FILES:
            if os.path.exists(os.path.join(out, fname)):
                os.remove(os.path.join(out, fname))
        rc = cli.main(["run", path])
        files = {}
        for fname in CLI_FILES:
            with open(os.path.join(out, fname), "rb") as fh:
                files[fname] = fh.read()
        return {"rc": rc, "files": files,
                "bytes_written": sum(len(b) for b in files.values())}

    def checks(self, result, first, reference):
        label, ref = self.label, reference[self.label]
        out = [(f"{label}.exit_code", result is not None and result["rc"] == 0,
                f"exit code {result['rc'] if result else None}")]
        lines = result["files"]["report.txt"].decode().splitlines() if result else []
        for check in ref["report_checks"]:
            passed = any(ln.startswith(f"[PASS] {check}:") for ln in lines)
            out.append((f"{label}.report.{check}", passed, "PASS line in report.txt"))
        out.append((f"{label}.report.overall", "overall: PASS" in lines,
                    "overall PASS in report.txt"))
        rates = _parse_rates(result["files"]["rates.csv"]) if result else {}
        for level, (l2, h1) in enumerate(ref["errors"]):
            got = rates.get(level, (None, None))
            out.append(_check_value(f"{label}.level{level}.err_l2", got[0], l2, SOLVER_REL_TOL))
            out.append(_check_value(f"{label}.level{level}.err_h1", got[1], h1, SOLVER_REL_TOL))
        diags = _parse_diagnostics(result["files"]["diagnostics.csv"]) if result else {}
        for key, values in ref["diagnostics"].items():
            rtol = EIGEN_REL_TOL if key.startswith("lambda_") else SOLVER_REL_TOL
            for level, value in enumerate(values):
                out.append(_check_value(f"{label}.level{level}.{key}",
                                        diags.get((level, key)), value, rtol))
        if first is not None:
            for fname in CLI_FILES:
                same = result is not None and result["files"][fname] == first["files"][fname]
                out.append((f"{label}.identical.{fname}", same,
                            "byte-identical to the first run of this seed"))
        return out

    def reference_of(self, result):
        """Reference entry from a finished run (see make_reference.py)."""
        files = result["files"]
        report = files["report.txt"].decode().splitlines()
        diags = {}
        for (level, key), value in sorted(_parse_diagnostics(files["diagnostics.csv"]).items()):
            if key in ("adjoint_identity", "h2_ratio", "lambda_min", "lambda_max"):
                diags.setdefault(key, []).append(value)
        rates = _parse_rates(files["rates.csv"])
        return {"report_checks": [ln[len("[PASS] "):].split(":")[0]
                                  for ln in report if ln.startswith("[PASS] ")],
                "errors": [list(rates[k]) for k in sorted(rates)],
                "diagnostics": diags}


def _parse_rates(data):
    out = {}
    for row in data.decode().splitlines()[1:]:
        cols = row.split(",")
        out[int(cols[0])] = (float(cols[3]), float(cols[4]))
    return out


def _parse_diagnostics(data):
    out = {}
    for row in data.decode().splitlines()[1:]:
        level, name, value = row.split(",")
        out[(int(level), name)] = float(value)
    return out


class PqLevels:
    """The pq diagnostic as AC-9 runs it, on nested P2 minimizers of the
    quartic model in 2-d: one seed for every level, so that the sampled
    ratios are comparable across levels, and the CLI's growth gate."""

    label = "pq"

    def __init__(self, coarse, levels):
        self.coarse = coarse
        self.levels = levels

    def prepare(self, seed, workdir):
        return seed

    def run(self, seed):
        problem = energy.build_problem("quartic", 2)
        opts = solver.NewtonOptions(residual_tol=NEWTON_TOL, linear_tol=LINEAR_TOL)
        m = mesh.build_unit_mesh(2, self.coarse)
        ratios = []
        for level in range(self.levels):
            if level:
                m = mesh.refine(m)
            space = felement.make_space(m, 2, problem.boundary_fn)
            u, _ = solver.minimize(problem.model, space, opts)
            ratios.append(analysis.estimate_pq_constant(problem.model, u, samples=4,
                                                        seed=seed).max_ratio)
        return {"ratios": ratios, "bytes_written": 0}

    def checks(self, result, first, reference):
        ratios = result["ratios"] if result else []
        growth = max(ratios) / ratios[0] if ratios and ratios[0] > 0 else float("inf")
        out = [("pq.growth", growth < PQ_GROWTH_LIMIT,
                f"growth factor {growth!r} < {PQ_GROWTH_LIMIT}")]
        if first is not None:
            out.append(("pq.identical", result is not None and ratios == first["ratios"],
                        "bitwise equal to the first run of this seed"))
        return out


class Interpolation:
    """Nested meshes of (0,1)^2 from `coarse` to `finest` cells per side,
    each checked for conformity and nestedness, then nodal interpolation of
    the sine product in each order with its error norms.  Nothing here is
    random; the seed is recorded only."""

    label = "interpolation"

    def __init__(self, coarse, finest, orders):
        self.coarse = coarse
        self.finest = finest
        self.orders = orders

    def prepare(self, seed, workdir):
        return None

    def run(self, inputs):
        problem = energy.build_problem("linear", 2)
        meshes = [mesh.build_unit_mesh(2, self.coarse)]
        mesh_ok = [mesh.check_conforming(meshes[0])]
        while 2 ** (len(meshes) - 1) * self.coarse < self.finest:
            fine = mesh.refine(meshes[-1])
            mesh_ok.append(mesh.check_conforming(fine) and mesh.check_nested(fine))
            meshes.append(fine)
        errors = {}
        for order in self.orders:
            rows = []
            for m in meshes:
                space = felement.make_space(m, order, problem.boundary_fn)
                rep = assembly.norms(problem.exact,
                                     felement.interpolate(space, problem.exact.value))
                rows.append((mesh.width(m), rep.l2, rep.h1_semi))
            errors[str(order)] = rows
        return {"mesh_ok": mesh_ok, "errors": errors, "bytes_written": 0}

    def checks(self, result, first, reference):
        out = []
        ref = reference[self.label]
        for level in range(len(ref[str(self.orders[0])])):
            ok = result is not None and result["mesh_ok"][level] is True
            out.append((f"mesh.level{level}.conforming_nested", ok,
                        "check_conforming and check_nested return True"))
        for order in self.orders:
            rows = result["errors"][str(order)] if result else None
            if rows:
                s_l2 = analysis.estimate_rate([(h, e) for h, e, _ in rows]).slope
                s_h1 = analysis.estimate_rate([(h, e) for h, _, e in rows]).slope
            else:
                s_l2 = s_h1 = float("nan")
            out.append((f"m{order}.ac3_l2_slope", abs(s_l2 - (order + 1)) <= AC3_SLOPE_TOL,
                        f"slope {s_l2!r} within {AC3_SLOPE_TOL} of {order + 1}"))
            out.append((f"m{order}.ac3_h1_slope", abs(s_h1 - order) <= AC3_SLOPE_TOL,
                        f"slope {s_h1!r} within {AC3_SLOPE_TOL} of {order}"))
            for level, (l2, h1) in enumerate(ref[str(order)]):
                got = rows[level] if rows else (None, None, None)
                out.append(_check_value(f"m{order}.level{level}.l2", got[1], l2, INTERP_REL_TOL))
                out.append(_check_value(f"m{order}.level{level}.h1_semi", got[2], h1,
                                        INTERP_REL_TOL))
        if first is not None:
            same = result is not None and result["errors"] == first["errors"]
            out.append(("identical.errors", same, "bitwise equal to the first run"))
        return out

    def reference_of(self, result):
        return {order: [[l2, h1] for _, l2, h1 in rows]
                for order, rows in result["errors"].items()}


# The sizes keep a run within the benchmark's time budget: every run
# must hold a warm-up and at least three timed repetitions, and all runs
# of all workloads must fit in under an hour (README.md, "Sizes").
WORKLOADS = {
    "rates_p1": [
        CliStudy("study", {"problem": "quartic", "dim": 2, "order": 1, "levels": 4,
                           "coarse_cells": 4}),
    ],
    "diagnostics_p2": [
        CliStudy("adjoint", {"problem": "quartic", "dim": 2, "order": 2, "levels": 3,
                             "coarse_cells": 2, "diagnostics": "[adjoint]"}),
        CliStudy("sampled", {"problem": "quartic", "dim": 2, "order": 2, "levels": 3,
                             "coarse_cells": 4,
                             "diagnostics": "[ellipticity, inverse_estimate]"}),
        CliStudy("galerkin", {"problem": "quartic", "dim": 2, "order": 2, "levels": 3,
                              "coarse_cells": 8, "diagnostics": "[galerkin]"}),
        PqLevels(coarse=3, levels=3),
    ],
    "interpolation_p123": [
        Interpolation(coarse=4, finest=32, orders=(1, 2, 3)),
    ],
}
