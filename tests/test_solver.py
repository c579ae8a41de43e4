import functools
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from nitschelab.assembly import (SparseOperator, assemble_gram_l2,
                                 assemble_hessian, assemble_residual,
                                 energy_value, norms)
from nitschelab.energy import build_problem
from nitschelab.felement import (FEFunction, interpolate, make_space, reference_basis,
                                 tabulate)
from nitschelab.mesh import _CHILDREN, build_unit_mesh, refine
from nitschelab import solver
from nitschelab.solver import (LinearSolveError, NewtonError, NewtonOptions,
                               embed, linear_solve, minimize)


def test_linear_solve_identity():
    op = SparseOperator(sp.identity(7, format="csr"))
    b = np.arange(7.0)
    assert np.allclose(linear_solve(op, b), b, atol=1e-13)


def test_linear_solve_random_spd():
    rng = np.random.default_rng(0)
    b_mat = rng.standard_normal((50, 50))
    a = sp.csr_matrix(b_mat @ b_mat.T + 50 * np.eye(50))
    b = rng.standard_normal(50)
    x = linear_solve(SparseOperator(a), b, tol=1e-12)
    assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b) * 1.01


def test_linear_solve_poisson_oracle():
    """Stiffness solve with rhs M f, f = pi^2 sin(pi x): the discrete
    solution approximates sin(pi x) with L2 error O(h^2) for P1."""
    problem = build_problem("linear", 1)
    errors = []
    for cells in (16, 32):
        space = make_space(build_unit_mesh(1, cells), 1, 0.0)
        stiff = assemble_hessian(problem.model, space.zero_function())
        f = interpolate(space, lambda x: np.pi**2 * np.sin(np.pi * x[:, 0]))
        b = assemble_gram_l2(space).apply(f.coeffs)
        b[space.boundary_dofs] = 0.0
        u = FEFunction(space, linear_solve(stiff, b))
        errors.append(norms(problem.exact, u).l2)
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.15)


def test_linear_solve_rejects_indefinite():
    a = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(LinearSolveError):
        linear_solve(SparseOperator(a), np.array([0.0, 1.0]))


@pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
def test_linear_solve_rejects_nan_operator_at_once(entry):
    """A NaN on the diagonal fails the diagonal check, one off it makes the
    first curvature NaN; neither may run CG to its iteration cap."""
    a = np.array([[4.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 4.0]])
    a[entry] = a[entry[::-1]] = np.nan
    with pytest.raises(LinearSolveError) as err:
        linear_solve(SparseOperator(sp.csr_matrix(a)), np.ones(3))
    assert err.value.iterations == 0


def test_linear_solve_rejects_an_indefinite_preconditioner_at_once():
    """A preconditioner that returns -r makes r.z negative before the first
    iteration; the error names the preconditioner, not the operator."""
    a = sp.csr_matrix(np.array([[4.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 4.0]]))
    with pytest.raises(LinearSolveError, match="preconditioner not positive definite") as err:
        linear_solve(SparseOperator(a), np.ones(3), preconditioner=lambda r: -r)
    assert err.value.iterations == 0


class CountingOperator(SparseOperator):
    applies = 0

    def apply(self, x):
        self.applies += 1
        return super().apply(x)


def test_linear_solve_with_the_exact_inverse_takes_one_iteration():
    rng = np.random.default_rng(2)
    b_mat = rng.standard_normal((30, 30))
    a = b_mat @ b_mat.T + 30 * np.eye(30)
    inverse = np.linalg.inv(a)
    op = CountingOperator(sp.csr_matrix(a))
    b = rng.standard_normal(30)
    x = linear_solve(op, b, tol=1e-10, preconditioner=lambda r: inverse @ r)
    assert op.applies == 1
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_linear_solve_iteration_cap_reports_residual():
    rng = np.random.default_rng(1)
    b_mat = rng.standard_normal((40, 40))
    a = sp.csr_matrix(b_mat @ b_mat.T + 1e-6 * np.eye(40))
    with pytest.raises(LinearSolveError) as err:
        linear_solve(SparseOperator(a), rng.standard_normal(40), tol=1e-14,
                     max_iters=3)
    assert err.value.residual is not None


@pytest.mark.parametrize("bad", [0, -1, 2.5, 3.0, True, "7"])
def test_linear_solve_rejects_a_cap_that_is_not_a_positive_integer(bad):
    """0 used to fall back to the default cap, -1 to fail with an unbound
    residual; the cap is checked before a zero right-hand side returns."""
    a = SparseOperator(sp.csr_matrix(np.diag([2.0, 3.0])))
    for b in (np.ones(2), np.zeros(2)):
        with pytest.raises(ValueError, match="max_iters"):
            linear_solve(a, b, max_iters=bad)


@pytest.mark.parametrize("tol", [0.0, -1.0, np.inf, np.nan])
def test_linear_solve_rejects_a_tolerance_that_is_not_positive_and_finite(tol):
    """On a 400-point 1-D Laplacian, tol = inf used to return after one CG
    step at relative residual 14.1, and tol = nan and -1 to run until r.z
    underflowed; the tolerance is checked before a zero right-hand side
    returns."""
    n = 400
    lap = SparseOperator(sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
                                  [-1, 0, 1], format="csr"))
    for b in (np.linspace(0.0, 1.0, n), np.zeros(n)):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            linear_solve(lap, b, tol=tol)


@pytest.mark.parametrize("cap", [1, np.int64(1)])
def test_linear_solve_accepts_an_integer_cap(cap):
    a = SparseOperator(sp.csr_matrix(np.diag([2.0, 3.0])))
    np.testing.assert_allclose(linear_solve(a, np.array([2.0, 3.0]), max_iters=cap),
                               [1.0, 1.0])


def test_minimize_linear_problem_single_step():
    problem = build_problem("linear", 1)
    space = make_space(build_unit_mesh(1, 16), 1, problem.boundary_fn)
    rng = np.random.default_rng(2)
    wild = FEFunction(space, rng.standard_normal(space.dim))
    opts = NewtonOptions(initial=wild)
    # a same-space start is copied; the wild start still converges in one
    # Newton step because the energy is quadratic
    opts.initial = FEFunction(space, rng.standard_normal(space.dim))
    u, log = minimize(problem.model, space, opts)
    steps = [it for it in log.iterations if it[2] > 0]
    assert len(steps) == 1


def test_minimize_quartic_converges_quickly():
    problem = build_problem("quartic", 1)
    space = make_space(build_unit_mesh(1, 16), 1, problem.boundary_fn)
    u, log = minimize(problem.model, space, NewtonOptions())
    assert len(log.iterations) - 1 <= 6
    r = assemble_residual(problem.model, u)
    assert np.abs(r).max() <= 1e-12


def test_minimize_beats_interpolant_energy():
    problem = build_problem("quartic", 1)
    space = make_space(build_unit_mesh(1, 32), 1, problem.boundary_fn)
    u, _ = minimize(problem.model, space)
    u_i = interpolate(space, problem.exact.value)
    assert energy_value(problem.model, u) <= energy_value(problem.model, u_i) + 1e-12


def test_minimize_quadratic_convergence_tail():
    problem = build_problem("quartic", 1)
    space = make_space(build_unit_mesh(1, 16), 1, problem.boundary_fn)
    _, log = minimize(problem.model, space)
    rs = log.residual_norms
    for rk, rk1 in zip(rs, rs[1:]):
        if rk < 1e-3:
            assert rk1 <= max(5.0 * rk**2, 2e-12)


def test_minimize_unique_up_to_tolerance():
    problem = build_problem("quartic", 1)
    space = make_space(build_unit_mesh(1, 16), 1, problem.boundary_fn)
    u1, _ = minimize(problem.model, space, NewtonOptions())
    u2, _ = minimize(problem.model, space, NewtonOptions(initial=problem.exact.value))
    assert np.abs(u1.coeffs - u2.coeffs).max() < 1e-10


def test_initial_dispatches_on_its_type():
    """None starts from the boundary lift, a callable from its interpolant
    and an FEFunction on the same space from its coefficients; the
    boundary data is always reset."""
    problem = build_problem("quartic", 1)
    space = make_space(build_unit_mesh(1, 8), 2, problem.boundary_fn)
    on_space = FEFunction(space, np.random.default_rng(7).standard_normal(space.dim))
    interior = space.interior_mask
    cases = [(None, np.zeros(space.dim)),
             (problem.exact.value, interpolate(space, problem.exact.value).coeffs),
             (on_space, on_space.coeffs)]
    for initial, want in cases:
        got = solver._initial_iterate(space, initial).coeffs
        assert np.array_equal(got[interior], want[interior])
        assert np.array_equal(got[space.boundary_dofs], space.boundary_values)


@pytest.mark.parametrize("start_on", ["coarser", "same_mesh_lower_order", "equal_copy"])
def test_minimize_rejects_a_start_on_another_space_before_any_assembly(start_on,
                                                                       monkeypatch):
    """A start on a coarser nested space, on the same mesh at a lower order,
    or on an equal but distinct space raises ValueError before anything is
    assembled: the caller embeds it first."""
    problem = build_problem("quartic", 1)
    coarse_mesh = build_unit_mesh(1, 4)
    space = make_space(refine(coarse_mesh), 2, problem.boundary_fn)
    other = {"coarser": make_space(coarse_mesh, 2, problem.boundary_fn),
             "same_mesh_lower_order": make_space(space.mesh, 1, problem.boundary_fn),
             "equal_copy": make_space(space.mesh, 2, problem.boundary_fn)}[start_on]

    def unreached(*args, **kwargs):
        raise AssertionError("minimize assembled before rejecting its start")

    for name in ("assemble_residual", "energy_value", "assemble_hessian"):
        monkeypatch.setattr(solver, name, unreached)
    with pytest.raises(ValueError, match="another space"):
        minimize(problem.model, space, NewtonOptions(initial=other.zero_function()))


def test_minimize_leaves_a_same_space_start_unchanged():
    problem = build_problem("quartic", 1)
    space = make_space(build_unit_mesh(1, 16), 1, problem.boundary_fn)
    start = FEFunction(space, np.random.default_rng(3).standard_normal(space.dim))
    before = start.coeffs.copy()
    u, log = minimize(problem.model, space, NewtonOptions(initial=start))
    assert u is not start
    assert np.array_equal(start.coeffs, before)


@pytest.mark.parametrize("name", ["quartic", "minimal_surface"])
def test_minimize_evaluates_each_energy_once(name, monkeypatch):
    """The accepted line-search trial is the next iterate, with its energy:
    no coefficient vector is evaluated twice, and every logged energy is
    bitwise the energy of its iterate."""
    problem = build_problem(name, 2)
    space = make_space(build_unit_mesh(2, 4), 1, problem.boundary_fn)
    evaluated, iterates = [], []

    def counting_energy(model, v):
        evaluated.append(v.coeffs.tobytes())
        return energy_value(model, v)

    def recording_residual(model, v):
        iterates.append(v.coeffs.copy())
        return assemble_residual(model, v)

    monkeypatch.setattr(solver, "energy_value", counting_energy)
    monkeypatch.setattr(solver, "assemble_residual", recording_residual)
    _, log = minimize(problem.model, space)
    assert len(iterates) == len(log.iterations) > 2
    assert len(set(evaluated)) == len(evaluated)
    for coeffs, (_, logged, _) in zip(iterates, log.iterations):
        assert logged == energy_value(problem.model, FEFunction(space, coeffs))


def test_minimize_armijo_energy_monotone():
    problem = build_problem("minimal_surface", 2)
    space = make_space(build_unit_mesh(2, 8), 1, problem.boundary_fn)
    _, log = minimize(problem.model, space, NewtonOptions())
    energies = log.energies
    assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(energies, energies[1:]))


def test_minimize_iteration_cap_raises():
    problem = build_problem("quartic", 1)
    space = make_space(build_unit_mesh(1, 16), 1, problem.boundary_fn)
    with pytest.raises(NewtonError):
        minimize(problem.model, space, NewtonOptions(max_iters=1))


@pytest.mark.parametrize("field, bad", [
    ("max_iters", 0), ("max_iters", -1), ("max_iters", 2.5), ("max_iters", True),
    ("residual_tol", 0.0), ("residual_tol", float("nan")), ("residual_tol", float("inf")),
    ("linear_tol", 0.0), ("linear_tol", -1e-12), ("linear_tol", float("nan")),
    ("linear_tol", float("inf")),
])
def test_newton_options_reject_a_cap_or_tolerance_that_is_not_positive(field, bad):
    """At max_iters=0 `minimize` would index an empty log, one that is not
    an integer would fail in `range`, and a linear_tol that is not
    positive would fail every solve as an underflow.  An infinite
    residual_tol declared the boundary lift converged, and an infinite
    linear_tol ran Newton on zero steps until max_iters."""
    with pytest.raises(ValueError, match=field):
        NewtonOptions(**{field: bad})


@pytest.mark.parametrize("bad", [True, "1e-12", None, 1e-12 + 0j],
                         ids=["bool", "str", "None", "complex"])
def test_tolerances_that_are_not_real_numbers_raise_value_error(bad):
    """A bool was taken as a tolerance of 1.0, and a string, None or a
    complex number raised TypeError from the comparison; every tolerance
    raises the documented ValueError instead."""
    for field in ("residual_tol", "linear_tol"):
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            NewtonOptions(**{field: bad})
    a = SparseOperator(sp.csr_matrix(np.diag([2.0, 3.0])))
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        linear_solve(a, np.ones(2), tol=bad)


def test_newton_options_validation():
    with pytest.raises(ValueError, match="initial"):
        NewtonOptions(initial="warm")
    with pytest.raises(ValueError, match="initial"):
        NewtonOptions(initial=0.0)


@pytest.mark.parametrize("dim,order", [(1, 1), (1, 3), (2, 1), (2, 2)])
def test_prolong_exact_at_fine_nodes(dim, order):
    coarse_mesh = build_unit_mesh(dim, 3)
    fine_mesh = refine(coarse_mesh)
    coarse = make_space(coarse_mesh, order, 0.0)
    fine = make_space(fine_mesh, order, 0.0)
    rng = np.random.default_rng(4)
    f = FEFunction(coarse, rng.standard_normal(coarse.dim))
    pf = embed(f, fine)
    fine_vals, _ = tabulate(fine, pf.coeffs, fine.basis.nodes)
    for eid in range(fine_mesh.num_elements):
        pid = eid // 2**dim  # refine's layout
        x = fine_mesh.vertices[fine_mesh.elements[eid, 0]] \
            + fine.basis.nodes @ fine_mesh.inv_jac[eid].T
        ref_c = (x - coarse_mesh.vertices[coarse_mesh.elements[pid, 0]]) \
            @ coarse_mesh.jac[pid].T
        coarse_vals, _ = tabulate(coarse, f.coeffs, ref_c, [pid])
        assert np.abs(coarse_vals[0] - fine_vals[eid]).max() < 1e-14


def test_prolong_constant():
    coarse = make_space(build_unit_mesh(2, 2), 1, 0.0)
    fine = make_space(refine(coarse.mesh), 1, 0.0)
    pf = embed(FEFunction(coarse, np.full(coarse.dim, 4.2)), fine)
    assert np.allclose(pf.coeffs, 4.2, atol=1e-13)


def test_prolong_squared_difference_vanishes():
    """Fine quadrature of (embed(f) - f)^2, with f evaluated through the
    coarse space, is zero to 1e-26."""
    coarse_mesh = build_unit_mesh(2, 2)
    fine_mesh = refine(coarse_mesh)
    coarse = make_space(coarse_mesh, 2, 0.0)
    fine = make_space(fine_mesh, 2, 0.0)
    rng = np.random.default_rng(6)
    f = FEFunction(coarse, rng.standard_normal(coarse.dim))
    pf = embed(f, fine)

    qp, qw = fine.quad.points, fine.quad.weights
    fine_vals, _ = tabulate(fine, pf.coeffs, qp)
    # evaluate f on the same physical points through the coarse elements
    coarse_vals = np.empty_like(fine_vals)
    for eid in range(fine_mesh.num_elements):
        pid = eid // 4  # refine's layout
        x = (fine_mesh.vertices[fine_mesh.elements[eid, 0]][None, :]
             + qp @ fine_mesh.inv_jac[eid].T)
        ref_c = (x - coarse_mesh.vertices[coarse_mesh.elements[pid, 0]][None, :]) \
            @ coarse_mesh.jac[pid].T
        table = coarse.basis.values(ref_c)
        coarse_vals[eid] = table @ f.coeffs[coarse.elem_dofs[pid]]
    integral = float(((fine_vals - coarse_vals) ** 2 @ qw)
                     @ (1.0 / np.abs(fine_mesh.det_jac)))
    assert integral < 1e-26


@pytest.mark.parametrize("name", ["quartic", "cosine", "minimal_surface"])
def test_prolong_energy_invariance(name):
    problem = build_problem(name, 1)
    coarse_mesh = build_unit_mesh(1, 64)
    coarse = make_space(coarse_mesh, 2, problem.boundary_fn)
    fine = make_space(refine(coarse_mesh), 2, problem.boundary_fn)
    f = interpolate(coarse, problem.exact.value)
    assert energy_value(problem.model, embed(f, fine)) == pytest.approx(
        energy_value(problem.model, f), abs=1e-12)


def test_prolong_space_mismatch_errors():
    coarse = make_space(build_unit_mesh(1, 4), 1, 0.0)
    other = make_space(build_unit_mesh(1, 8), 1, 0.0)
    f = FEFunction(coarse, np.zeros(coarse.dim))
    with pytest.raises(ValueError, match="descendant"):
        embed(f, other)


@functools.cache
def exact_basis(dim, order):
    """The reference nodes of `order`, multiples of 1/order, as Fractions,
    and the exact coefficients of the Lagrange basis in the monomials of
    `reference_basis`: the inverse of the Vandermonde matrix at the nodes,
    by Gauss-Jordan elimination in Fractions."""
    basis = reference_basis(dim, order)
    nodes = [[Fraction(x).limit_denominator(order) for x in node] for node in basis.nodes]
    n = len(nodes)
    rows = [monomials(basis.exponents, x) + [Fraction(i == j) for j in range(n)]
            for i, x in enumerate(nodes)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(n):
            if r != col:
                rows[r] = [v - rows[r][col] * w for v, w in zip(rows[r], rows[col])]
    return nodes, [row[n:] for row in rows]


def monomials(exponents, x):
    return [math.prod(xa**e for xa, e in zip(x, exps)) for exps in exponents]


def exact_table(dim, src_order, dst_order, corners):
    """The order-`src_order` basis at the order-`dst_order` nodes of the
    sub-simplex with vertices `corners` (exact reference coordinates of
    the source element), each value rounded once from its exact value."""
    src_nodes, coeffs = exact_basis(dim, src_order)
    dst_nodes, _ = exact_basis(dim, dst_order)
    exps = reference_basis(dim, src_order).exponents
    table = []
    for xi in dst_nodes:
        x = [corners[0][a] + sum(xi[k] * (corners[k + 1][a] - corners[0][a]) for k in range(dim))
             for a in range(dim)]
        mono = monomials(exps, x)
        table.append([float(sum(m * c[i] for m, c in zip(mono, coeffs)))
                      for i in range(len(src_nodes))])
    return np.array(table)


REFERENCE_VERTICES = {1: [[0], [1]], 2: [[0, 0], [1, 0], [0, 1]]}


def child_corners(corners, child):
    """The vertices of a child in refine's layout: the midpoints of the
    parent vertex pairs that `mesh._CHILDREN` lists for it."""
    return [[(corners[i][a] + corners[j][a]) / 2 for a in range(len(corners[0]))]
            for i, j in child]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("src_order, dst_order", [(1, 1), (2, 2), (3, 3), (1, 2), (1, 3), (2, 3)])
def test_transfer_tables_are_the_exact_embedding_rounded_once(dim, src_order, dst_order):
    """Every child's table, and the identity child's of an order raise on
    one mesh, holds bitwise the exact values from a Vandermonde solve."""
    corners = [[Fraction(c) for c in v] for v in REFERENCE_VERTICES[dim]]
    identity = tuple((v, v) for v in range(dim + 1))
    for child in (identity, *_CHILDREN[dim]):
        got = solver._transfer_table(dim, src_order, dst_order, child)
        expected = exact_table(dim, src_order, dst_order, child_corners(corners, child))
        assert got.tobytes() == expected.tobytes(), child


def exact_embedding(src_space, dst_space, levels):
    """The dense embedding into `dst_space`, `levels` refinements below
    `src_space`, each dst element's table composed exactly along its chain
    of children (element e is child e % 2^d of element e // 2^d); asserts
    that every element holding a dst dof gives it the same row."""
    d = src_space.mesh.dim
    dense = np.full((dst_space.dim, src_space.dim), np.nan)
    tables = {}
    for e, dofs in enumerate(dst_space.elem_dofs):
        path, ancestor = [], e
        for _ in range(levels):
            ancestor, k = divmod(ancestor, 2**d)
            path.append(k)
        if tuple(path) not in tables:
            corners = [[Fraction(c) for c in v] for v in REFERENCE_VERTICES[d]]
            for k in reversed(path):
                corners = child_corners(corners, _CHILDREN[d][k])
            tables[tuple(path)] = exact_table(d, src_space.order, dst_space.order, corners)
        for dof, values in zip(dofs, tables[tuple(path)]):
            row = np.zeros(src_space.dim)
            row[src_space.elem_dofs[ancestor]] = values
            assert np.isnan(dense[dof, 0]) or np.array_equal(dense[dof], row)
            dense[dof] = row
    return dense


@pytest.mark.parametrize("cells", [3, 4])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("finer", [1, 2])
def test_embedding_matrix_is_the_exact_embedding(dim, order, cells, finer):
    """The embedding stores bitwise the exact embedding's nonzero entries,
    in canonical CSR order, so products sum alike; none is rounding noise
    (all are at least 1e-12), and no Dirichlet row reaches an interior
    column."""
    coarse_mesh = fine_mesh = build_unit_mesh(dim, cells)
    for _ in range(finer):
        fine_mesh = refine(fine_mesh)
    coarse = make_space(coarse_mesh, order, 0.0)
    fine = make_space(fine_mesh, order, 0.0)
    got = solver.embedding_matrix(coarse, fine)
    expected = sp.csr_matrix(exact_embedding(coarse, fine, finer))
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(got, name), getattr(expected, name))
    assert np.abs(got.data).min() >= 1e-12
    rows = np.repeat(np.arange(fine.dim), np.diff(got.indptr))
    assert not np.any(~fine.interior_mask[rows] & coarse.interior_mask[got.indices])


def test_embed_order_raise_two_levels():
    coarse_mesh = build_unit_mesh(1, 4)
    target_mesh = refine(refine(coarse_mesh))
    coarse = make_space(coarse_mesh, 1, 0.0)
    target = make_space(target_mesh, 2, 0.0)
    rng = np.random.default_rng(8)
    f = FEFunction(coarse, rng.standard_normal(coarse.dim))
    g = embed(f, target)
    for xv in np.linspace(0.03, 0.97, 9):
        ec = min(int(xv * 4), 3)
        ef = min(int(xv * 16), 15)
        vc, _ = tabulate(coarse, f.coeffs, np.array([[xv * 4 - ec]]), [ec])
        vf, _ = tabulate(target, g.coeffs, np.array([[xv * 16 - ef]]), [ef])
        assert abs(vc[0, 0] - vf[0, 0]) < 1e-13
    with pytest.raises(ValueError, match="order"):
        embed(FEFunction(target, np.zeros(target.dim)), coarse)
