"""Span tracing from outside the library, and the per-layer metrics
derived from the spans.

The library modules import each other's functions by name, so a function
is reached through several module bindings (``solver.linear_solve`` for
Newton, ``analysis.linear_solve`` for the adjoint solve).  `installed`
replaces every binding listed in `BINDINGS` with a wrapper that records
a span, and restores the originals on exit.  The energy model and the
exact solution are wrapped callable by callable with
``dataclasses.replace`` on the problem that ``build_problem`` returns.

A span is (name, start_ns, end_ns, parent index, run id, counts, error).
Spans stay in memory; the benchmark writes them out when it ends.
Per-layer times are self times: a span's duration minus the part of it
that its child spans cover.
"""

import contextlib
import dataclasses
import time

from nitschelab import analysis, assembly, cli, energy, felement, mesh, solver

_DENSITY_FIELDS = ("eval", "dL_dp", "dL_dz", "d2L_dpp", "d2L_dpz", "d2L_dzz",
                   "d3L_dppp", "d3L_dppz", "d3L_dpzz", "d3L_dzzz")
_EXACT_FIELDS = ("value", "gradient", "hessian")


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "counts", "error")

    def __init__(self, name, start, parent, run):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run
        self.counts = {}
        self.error = None

    def as_dict(self):
        return {"name": self.name, "start_ns": self.start, "end_ns": self.end,
                "parent": self.parent, "run": self.run, "counts": self.counts,
                "error": self.error}


class CountingOperator:
    """Stands in for a SparseOperator and counts `apply` calls; conjugate
    gradients applies the operator exactly once per iteration."""

    def __init__(self, op):
        self.op = op
        self.applies = 0

    def apply(self, x):
        self.applies += 1
        return self.op.apply(x)

    def diagonal(self):
        return self.op.diagonal()

    def __getattr__(self, name):
        return getattr(self.op, name)


class Tracer:
    """Collects the spans of one traced repetition, all with run id `run`."""

    def __init__(self, run=0):
        self.spans = []
        self._stack = []
        self.run = run

    def wrap(self, name, fn, count=None):
        """Wrapper of `fn` that records a span named `name`.

        `count(args, kwargs)` returns counts stored on the span, taken
        before the call.
        """
        def traced(*args, **kwargs):
            span = self._open(name)
            if count is not None:
                span.counts.update(count(args, kwargs))
            try:
                return fn(*args, **kwargs)
            except BaseException as err:
                span.error = type(err).__name__
                raise
            finally:
                self._close(span)

        traced.__wrapped__ = fn
        return traced

    def wrap_linear_solve(self, fn):
        def traced(op, *args, **kwargs):
            proxy = CountingOperator(op)
            span = self._open("solver.linear_solve")
            try:
                return fn(proxy, *args, **kwargs)
            except BaseException as err:
                span.error = type(err).__name__
                raise
            finally:
                span.counts["cg_iters"] = proxy.applies
                self._close(span)

        traced.__wrapped__ = fn
        return traced

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter_ns(), parent, self.run)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def _close(self, span):
        span.end = time.perf_counter_ns()
        self._stack.pop()

    def traced_problem(self, problem):
        """The problem with every density and exact-solution callable traced."""
        def points(args, kwargs):
            return {"points": len(args[1])}

        model = dataclasses.replace(problem.model, **{
            f: self.wrap("energy.density", getattr(problem.model, f), points)
            for f in _DENSITY_FIELDS})
        exact = dataclasses.replace(problem.exact, **{
            f: self.wrap("energy.exact", getattr(problem.exact, f))
            for f in _EXACT_FIELDS})
        boundary = self.wrap("energy.exact", problem.boundary_fn)
        return dataclasses.replace(problem, model=model, exact=exact,
                                   boundary_fn=boundary)


def _qpoints_of(space):
    return {"qpoints": space.mesh.num_elements * len(space.quad.weights)}


def _qp_fe_arg1(args, kwargs):
    return _qpoints_of(args[1].space)


def _qp_space_arg0(args, kwargs):
    return _qpoints_of(args[0])


def _qp_fe_arg0(args, kwargs):
    return _qpoints_of(args[0].space)


# (modules whose binding is replaced, attribute, span name, counter).
# Every module that calls a traced function by name is listed for it.
BINDINGS = [
    ((mesh, analysis), "refine", "mesh.refine", None),
    ((mesh,), "check_conforming", "mesh.check_conforming", None),
    ((mesh,), "check_nested", "mesh.check_nested", None),
    ((felement, analysis), "make_space", "felement.make_space", None),
    ((felement, analysis, solver), "interpolate", "felement.interpolate", None),
    ((analysis,), "check_inverse_estimate", "felement.check_inverse_estimate", None),
    ((solver,), "energy_value", "assembly.energy_value", _qp_fe_arg1),
    ((solver,), "assemble_residual", "assembly.residual", _qp_fe_arg1),
    ((solver, analysis), "assemble_hessian", "assembly.hessian", _qp_fe_arg1),
    ((analysis,), "apply_third_variation", "assembly.third_variation", _qp_fe_arg1),
    ((analysis,), "assemble_gram_l2", "assembly.gram", _qp_space_arg0),
    ((analysis,), "assemble_gram_h1", "assembly.gram", _qp_space_arg0),
    ((assembly, analysis), "norms", "assembly.norms", _qp_fe_arg1),
    ((analysis,), "lq_norm", "assembly.norms", _qp_fe_arg0),
    ((solver, analysis), "minimize", "solver.minimize", None),
    ((solver, analysis), "embed", "solver.embed", None),
    ((solver, analysis), "embedding_matrix", "solver.embedding_matrix", None),
    ((analysis,), "estimate_ellipticity", "analysis.ellipticity", None),
    ((analysis,), "galerkin_defect", "analysis.galerkin", None),
    ((analysis,), "adjoint_identity_check", "analysis.adjoint", None),
    ((analysis,), "solve_adjoint", "analysis.adjoint", None),
    ((analysis,), "h2_regularity_ratio", "analysis.adjoint", None),
    ((analysis,), "estimate_pq_constant", "analysis.pq", None),
    ((cli,), "convergence_study", "analysis.study", None),
    ((cli,), "run", "cli.run", None),
    ((cli,), "main", "cli.run", None),
]


@contextlib.contextmanager
def installed(tracer):
    """Trace every binding while active; restore the originals on exit."""
    saved = []

    def patch(module, attr, value):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    try:
        for modules, attr, name, count in BINDINGS:
            for module in modules:
                patch(module, attr, tracer.wrap(name, getattr(module, attr), count))
        for module in (solver, analysis):
            patch(module, "linear_solve", tracer.wrap_linear_solve(module.linear_solve))
        for module in (energy, cli):
            def build_problem(*args, _original=module.build_problem, **kwargs):
                return tracer.traced_problem(_original(*args, **kwargs))

            patch(module, "build_problem", build_problem)
        yield tracer
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


# ---------------------------------------------------------------------------
# per-layer metrics


def self_times(spans):
    """Self time in seconds of each span, by index."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return [ns * 1e-9 for ns in own]


def _children(spans):
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            kids[s.parent].append(i)
    return kids


def layer_metrics(spans, bytes_written):
    """Per-layer metrics of one traced run (all spans share one run id)."""
    own = self_times(spans)
    by_name = {}
    calls = {}
    for s, t in zip(spans, own):
        by_name[s.name] = by_name.get(s.name, 0.0) + t
        calls[s.name] = calls.get(s.name, 0) + 1

    def self_s(name):
        return by_name.get(name, 0.0)

    def total(key, prefix=""):
        return sum(s.counts.get(key, 0) for s in spans if s.name.startswith(prefix))

    out = {}
    for key in ("refine", "check_conforming", "check_nested"):
        out[f"mesh.{key}_s"] = self_s(f"mesh.{key}")
    for key in ("make_space", "interpolate", "check_inverse_estimate"):
        out[f"felement.{key}_s"] = self_s(f"felement.{key}")
    out["energy.density_s"] = self_s("energy.density")
    out["energy.density_points"] = total("points", "energy.density")
    out["energy.exact_s"] = self_s("energy.exact")
    for key in ("energy_value", "residual", "hessian", "third_variation", "gram", "norms"):
        out[f"assembly.{key}_s"] = self_s(f"assembly.{key}")
        out[f"assembly.{key}_calls"] = calls.get(f"assembly.{key}", 0)
    out["assembly.qpoints"] = total("qpoints", "assembly.")
    out.update(_solver_metrics(spans, own))
    for key in ("ellipticity", "galerkin", "adjoint", "pq"):
        out[f"analysis.{key}_s"] = self_s(f"analysis.{key}")
    out["analysis.study_self_s"] = self_s("analysis.study")
    out["cli.run_self_s"] = self_s("cli.run")
    out["cli.bytes_written"] = bytes_written
    return out


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "cli.bytes_written":
        return "B"
    return "count"


def _solver_metrics(spans, own):
    kids = _children(spans)
    solves = [i for i, s in enumerate(spans) if s.name == "solver.linear_solve"]
    iters = [spans[i].counts.get("cg_iters", 0) for i in solves]
    steps = trials = searched = 0
    minimize_ns = 0
    for i, s in enumerate(spans):
        if s.name != "solver.minimize":
            continue
        minimize_ns += s.end - s.start
        # one Newton iteration: residual, energy, hessian, solve, then
        # the line-search trial energies; the next residual starts the next
        after_solve = step_trials = 0
        for k in kids[i]:
            name = spans[k].name
            if name == "assembly.residual":
                searched += step_trials > 0
                after_solve = step_trials = 0
            elif name == "solver.linear_solve":
                steps += 1
                after_solve = 1
            elif name == "assembly.energy_value" and after_solve:
                step_trials += 1
                trials += 1
        searched += step_trials > 0
    return {
        "solver.linear_solve_s": sum(own[i] for i in solves),
        "solver.linear_solves": len(solves),
        "solver.cg_iters": sum(iters),
        "solver.cg_iters_max": max(iters, default=0),
        "solver.newton_iters": steps,
        "solver.newton_step_s": minimize_ns * 1e-9 / steps if steps else 0.0,
        "solver.line_search_trials": trials,
        "solver.line_search_accept_ratio": searched / trials if trials else 0.0,
        "solver.embedding_s": sum((t for s, t in zip(spans, own)
                                   if s.name in ("solver.embed", "solver.embedding_matrix")),
                                  0.0),
        "solver.failures": sum(1 for s in spans
                               if s.name.startswith("solver.") and s.error),
    }
