import numpy as np
import pytest
import scipy.sparse as sp

from nitschelab.assembly import (SparseOperator, assemble_gram_l2,
                                 assemble_hessian, assemble_residual,
                                 energy_value, norms)
from nitschelab.energy import build_problem
from nitschelab.felement import FEFunction, interpolate, make_space
from nitschelab.mesh import build_unit_mesh, refine
from nitschelab.solver import (LinearSolveError, NewtonError, NewtonOptions,
                               embed, linear_solve, minimize, prolong)


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


def test_linear_solve_iteration_cap_reports_residual():
    rng = np.random.default_rng(1)
    b_mat = rng.standard_normal((40, 40))
    a = sp.csr_matrix(b_mat @ b_mat.T + 1e-6 * np.eye(40))
    with pytest.raises(LinearSolveError) as err:
        linear_solve(SparseOperator(a), rng.standard_normal(40), tol=1e-14,
                     max_iters=3)
    assert err.value.residual is not None


def test_minimize_linear_problem_single_step():
    problem = build_problem("linear", 1)
    space = make_space(build_unit_mesh(1, 16), 1, problem.boundary_fn)
    rng = np.random.default_rng(2)
    wild = FEFunction(space, rng.standard_normal(space.dim))
    opts = NewtonOptions(initial_guess="prolonged_coarse", guess_fe=wild)
    # embed of same-space function is the identity; the wild start still
    # converges in one Newton step because the energy is quadratic
    opts.guess_fe = FEFunction(space, rng.standard_normal(space.dim))
    u, log = minimize(problem.model, space, opts)
    steps = [it for it in log.iterations if it[2] > 0]
    assert log.converged and len(steps) == 1


def test_minimize_quartic_converges_quickly():
    problem = build_problem("quartic", 1)
    space = make_space(build_unit_mesh(1, 16), 1, problem.boundary_fn)
    u, log = minimize(problem.model, space, NewtonOptions())
    assert log.converged
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
    u2, _ = minimize(problem.model, space, NewtonOptions(
        initial_guess="interpolant_of_exact", guess_fn=problem.exact.value))
    assert np.abs(u1.coeffs - u2.coeffs).max() < 1e-10


def test_minimize_armijo_energy_monotone():
    problem = build_problem("minimal_surface", 2)
    space = make_space(build_unit_mesh(2, 8), 1, problem.boundary_fn)
    _, log = minimize(problem.model, space, NewtonOptions(damping="armijo"))
    energies = log.energies
    assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(energies, energies[1:]))


def test_minimize_iteration_cap_raises():
    problem = build_problem("quartic", 1)
    space = make_space(build_unit_mesh(1, 16), 1, problem.boundary_fn)
    with pytest.raises(NewtonError):
        minimize(problem.model, space, NewtonOptions(max_iters=1))


def test_newton_options_validation():
    with pytest.raises(ValueError):
        NewtonOptions(residual_tol=0.0)
    with pytest.raises(ValueError):
        NewtonOptions(armijo_c1=1.5)
    with pytest.raises(ValueError):
        NewtonOptions(armijo_backtrack=0.0)
    with pytest.raises(ValueError):
        NewtonOptions(damping="bogus")
    with pytest.raises(ValueError):
        NewtonOptions(initial_guess="warm")


@pytest.mark.parametrize("dim,order", [(1, 1), (1, 3), (2, 1), (2, 2)])
def test_prolong_exact_at_fine_nodes(dim, order):
    from nitschelab.felement import evaluate
    coarse_mesh = build_unit_mesh(dim, 3)
    fine_mesh = refine(coarse_mesh)
    coarse = make_space(coarse_mesh, order, 0.0)
    fine = make_space(fine_mesh, order, 0.0)
    rng = np.random.default_rng(4)
    f = FEFunction(coarse, rng.standard_normal(coarse.dim))
    pf = prolong(f, fine)
    for eid in range(fine_mesh.num_elements):
        pid = fine_mesh.parent_elements[eid]
        for node in fine.basis.nodes:
            x = fine_mesh.vertices[fine_mesh.elements[eid, 0]] \
                + fine_mesh.inv_jac[eid] @ node
            ref_c = coarse_mesh.jac[pid] @ (x - coarse_mesh.vertices[
                coarse_mesh.elements[pid, 0]])
            vc, _ = evaluate(f, pid, ref_c)
            vf, _ = evaluate(pf, eid, node)
            assert abs(vc - vf) < 1e-14


def test_prolong_constant():
    coarse = make_space(build_unit_mesh(2, 2), 1, 0.0)
    fine = make_space(refine(coarse.mesh), 1, 0.0)
    pf = prolong(FEFunction(coarse, np.full(coarse.dim, 4.2)), fine)
    assert np.allclose(pf.coeffs, 4.2, atol=1e-13)


def test_prolong_squared_difference_vanishes():
    """Fine quadrature of (prolong(f) - f)^2, with f evaluated through the
    coarse space, is zero to 1e-26."""
    from nitschelab.felement import tabulate
    coarse_mesh = build_unit_mesh(2, 2)
    fine_mesh = refine(coarse_mesh)
    coarse = make_space(coarse_mesh, 2, 0.0)
    fine = make_space(fine_mesh, 2, 0.0)
    rng = np.random.default_rng(6)
    f = FEFunction(coarse, rng.standard_normal(coarse.dim))
    pf = prolong(f, fine)

    qp, qw = fine.quad.points, fine.quad.weights
    fine_vals, _ = tabulate(fine, pf.coeffs, qp)
    # evaluate f on the same physical points through the coarse elements
    coarse_vals = np.empty_like(fine_vals)
    for eid in range(fine_mesh.num_elements):
        pid = fine_mesh.parent_elements[eid]
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
    assert energy_value(problem.model, prolong(f, fine)) == pytest.approx(
        energy_value(problem.model, f), abs=1e-12)


def test_prolong_space_mismatch_errors():
    coarse = make_space(build_unit_mesh(1, 4), 1, 0.0)
    fine_wrong_order = make_space(refine(coarse.mesh), 2, 0.0)
    other = make_space(build_unit_mesh(1, 8), 1, 0.0)
    f = FEFunction(coarse, np.zeros(coarse.dim))
    with pytest.raises(ValueError, match="order"):
        prolong(f, fine_wrong_order)
    with pytest.raises(ValueError, match="refine"):
        prolong(f, other)
    with pytest.raises(ValueError, match="descendant"):
        embed(f, other)


def test_embed_order_raise_two_levels():
    from nitschelab.felement import evaluate
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
        vc, _ = evaluate(f, ec, [xv * 4 - ec])
        vf, _ = evaluate(g, ef, [xv * 16 - ef])
        assert abs(vc - vf) < 1e-13
    with pytest.raises(ValueError, match="order"):
        embed(FEFunction(target, np.zeros(target.dim)), coarse)
