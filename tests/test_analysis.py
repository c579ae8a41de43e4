import numpy as np
import pytest
import scipy.sparse as sp

from nitschelab import analysis, solver
from nitschelab.analysis import (adjoint_identity_check, convergence_study,
                                 estimate_ellipticity, estimate_pq_constant,
                                 estimate_rate, galerkin_defect,
                                 h2_regularity_ratio, solve_adjoint,
                                 StudyOptions)
from nitschelab.assembly import (assemble_gram_h1, assemble_gram_l2, assemble_hessian,
                                assemble_residual, norms)
from nitschelab.energy import (PROBLEM_NAMES, ExactSolution, ManufacturedProblem,
                               build_problem, dirichlet_potential_model)
from nitschelab.felement import FEFunction, check_inverse_estimate, interpolate, make_space
from nitschelab.mesh import build_unit_mesh, refine
from nitschelab.solver import NewtonOptions, embed, linear_solve, minimize


def solved(problem, cells, order=1, **kw):
    space = make_space(build_unit_mesh(problem.dim, cells), order,
                       problem.boundary_fn)
    u, log = minimize(problem.model, space, NewtonOptions(**kw))
    return u, log


def solved_pair(problem, cells, order=1):
    coarse_mesh = build_unit_mesh(problem.dim, cells)
    cs = make_space(coarse_mesh, order, problem.boundary_fn)
    fs = make_space(refine(coarse_mesh), order, problem.boundary_fn)
    uc, _ = minimize(problem.model, cs)
    uf, _ = minimize(problem.model, fs)
    return uc, uf


def _exact_by_parts(*parts):
    """The ExactSolution of (value, gradient, hessian) whose jet calls the
    three callables one by one."""
    def jet(x, hessian=True):
        return tuple(part(x) for part in parts[:3 if hessian else 2])

    return ExactSolution(*parts, jet)


# ---------------------------------------------------------------------------
# ellipticity


def p1_laplace_eigs_closed_form(cells):
    """Generalized eigenvalues of (stiffness, mass) for uniform P1 on (0,1)
    with zero boundary: kappa_j = 6(1-cos t)/(h^2 (2+cos t)), t = j pi h."""
    h = 1.0 / cells
    j = np.arange(1, cells)
    t = j * np.pi * h
    return 6.0 * (1 - np.cos(t)) / (h**2 * (2 + np.cos(t)))


def test_ellipticity_closed_form_oracle_1d():
    problem = build_problem("linear", 1)
    cells = 32
    u, _ = solved(problem, cells)
    est = estimate_ellipticity(assemble_hessian(problem.model, u), u)
    kappa = p1_laplace_eigs_closed_form(cells)
    mu = kappa / (1.0 + kappa)   # stiffness against mass + stiffness
    assert est.lambda_min == pytest.approx(mu.min(), rel=1e-9)
    assert est.lambda_max == pytest.approx(mu.max(), rel=1e-9)
    assert est.lambda_min > np.pi**2 / (1 + np.pi**2) * 0.99


def test_ellipticity_level_stability_linear():
    problem = build_problem("linear", 1)
    mins, maxs = [], []
    for cells in (16, 32, 64):
        u, _ = solved(problem, cells)
        est = estimate_ellipticity(assemble_hessian(problem.model, u), u)
        mins.append(est.lambda_min)
        maxs.append(est.lambda_max)
    assert max(mins) / min(mins) - 1 < 0.05
    assert max(maxs) / min(maxs) - 1 < 0.10


def test_ellipticity_quartic_at_zero_matches_linear():
    lin = build_problem("linear", 1)
    quart = build_problem("quartic", 1)
    space = make_space(build_unit_mesh(1, 32), 1, 0.0)
    zero = space.zero_function()
    e1 = estimate_ellipticity(assemble_hessian(lin.model, zero), zero)
    e2 = estimate_ellipticity(assemble_hessian(quart.model, zero), zero)
    assert abs(e1.lambda_min - e2.lambda_min) < 1e-10
    assert abs(e1.lambda_max - e2.lambda_max) < 1e-10


def test_ellipticity_matches_dense_on_a_fine_2d_p1_space():
    """Above 400 interior dofs, where a dense solve used to take over,
    the Lanczos path must agree with a dense reference computed here."""
    import scipy.linalg as la
    from nitschelab.assembly import assemble_gram_h1, assemble_hessian
    problem = build_problem("quartic", 2)
    u, _ = solved(problem, 24, order=1)
    est = estimate_ellipticity(assemble_hessian(problem.model, u), u)
    space = u.space
    idx = np.flatnonzero(space.interior_mask)
    assert len(idx) > 400
    a = assemble_hessian(problem.model, u).matrix[idx][:, idx].toarray()
    g = assemble_gram_h1(space).matrix[idx][:, idx].toarray()
    ev = la.eigh(a, g, eigvals_only=True)
    assert est.lambda_min == pytest.approx(ev[0], rel=1e-5)
    assert est.lambda_max == pytest.approx(ev[-1], rel=1e-4)


def dense_extremes(model, u):
    """Extreme generalized eigenvalues of (d2J(u), G1) on the interior
    dofs, by dense eigh."""
    import scipy.linalg as la
    idx = np.flatnonzero(u.space.interior_mask)
    a = assemble_hessian(model, u).matrix[idx][:, idx].toarray()
    g = assemble_gram_h1(u.space).matrix[idx][:, idx].toarray()
    ev = la.eigh(a, g, eigvals_only=True)
    return ev[0], ev[-1]


def assert_matches_dense(model, u):
    est = estimate_ellipticity(assemble_hessian(model, u), u)
    lam_min, lam_max = dense_extremes(model, u)
    assert est.lambda_min == pytest.approx(lam_min, rel=1e-6)
    assert est.lambda_max == pytest.approx(lam_max, rel=1e-6)
    return est


@pytest.mark.parametrize("name", ["quartic", "cosine"])
def test_ellipticity_matches_dense_in_1d_with_a_clustered_spectrum(name):
    """In d=1 the spectrum accumulates at 1 and the residuals of
    G-normalized vectors are small, so an absolute residual test can be
    met inside the cluster; the extremes must still be found."""
    problem = build_problem(name, 1)
    u, _ = solved(problem, 512, order=2)
    assert_matches_dense(problem.model, u)


# psi = -15 z^2 at the zero state: d2J = K - 30 M, whose lower end is
# negative on every space here, since 30 exceeds pi^2
CONCAVE = dirichlet_potential_model(lambda z: -15.0 * z * z, lambda z: -30.0 * z,
                                    lambda z: np.full_like(z, -30.0),
                                    lambda z: np.zeros_like(z), name="concave")


def test_ellipticity_sees_a_non_coercive_second_variation():
    """The negative lower end must be found and not mistaken for
    coercivity."""
    space = make_space(build_unit_mesh(1, 256), 2, 0.0)
    est = assert_matches_dense(CONCAVE, space.zero_function())
    assert est.lambda_min < 0


def test_ellipticity_sees_a_non_coercive_second_variation_on_a_small_space():
    space = make_space(build_unit_mesh(1, 4), 2, 0.0)
    est = assert_matches_dense(CONCAVE, space.zero_function())
    assert est.lambda_min < 0


@pytest.mark.parametrize("order,cells", [(1, 22), (2, 11), (3, 8)])
@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_ellipticity_matches_dense_on_medium_spaces_2d(name, order, cells):
    """Just above 400 interior dofs, where a dense solve used to take
    over."""
    problem = build_problem(name, 2)
    u, _ = solved(problem, cells, order=order)
    assert_matches_dense(problem.model, u)


@pytest.mark.parametrize("dim,cells", [(1, 8), (2, 4)])
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_ellipticity_matches_dense_on_small_spaces(name, order, dim, cells):
    """7 to 121 interior dofs, fewer than the Lanczos step budget."""
    problem = build_problem(name, dim)
    u, _ = solved(problem, cells, order=order)
    assert_matches_dense(problem.model, u)


@pytest.mark.parametrize("dim,cells", [(1, 2), (1, 3), (1, 4), (1, 5), (2, 2)])
@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_ellipticity_on_one_to_four_interior_dofs(name, dim, cells):
    """P1 with 1 to 4 interior dofs: the run stops by step n, where its
    tridiagonal holds the pencil's whole spectrum, so both ends are exact
    up to rounding."""
    problem = build_problem(name, dim)
    u, _ = solved(problem, cells)
    n = int(u.space.interior_mask.sum())
    est = estimate_ellipticity(assemble_hessian(problem.model, u), u)
    lam_min, lam_max = dense_extremes(problem.model, u)
    assert est.lambda_min == pytest.approx(lam_min, rel=1e-12)
    assert est.lambda_max == pytest.approx(lam_max, rel=1e-12)
    assert 1 <= est.iters_min <= n and 1 <= est.iters_max <= n


@pytest.mark.parametrize("cells", [8, 16])
def test_ellipticity_steps_are_bounded_by_the_interior_dofs(monkeypatch, cells):
    """Quartic d=2 P2 from 8 and 16 cells, 225 and 961 interior dofs: each
    end passes within min(`_LANCZOS_STEPS`, n) steps.  With a residual
    tolerance that no Ritz pair can meet, the run stops at that bound."""
    problem = build_problem("quartic", 2)
    u, _ = solved(problem, cells, order=2)
    n = int(u.space.interior_mask.sum())
    bound = min(analysis._LANCZOS_STEPS, n)
    est = estimate_ellipticity(assemble_hessian(problem.model, u), u)
    assert 0 < est.iters_min <= bound and 0 < est.iters_max <= bound
    if n < analysis._LANCZOS_STEPS:
        monkeypatch.setattr(analysis, "_EIG_RTOL", 0.0)
        with pytest.raises(analysis.PowerIterationError, match=f"after {n} Lanczos steps"):
            estimate_ellipticity(assemble_hessian(problem.model, u), u)


def test_ellipticity_lanczos_passes_both_ends_of_a_stalling_1d_pencil():
    """Quartic d=1, 1000 P1 cells, seed 0: Gram-preconditioned LOBPCG took
    492 iterations on the lower end here, its residual floating above the
    absolute tolerance.  The Lanczos run passes both ends' tests."""
    problem = build_problem("quartic", 1)
    u, _ = solved(problem, 1000)
    assert_matches_dense(problem.model, u)


@pytest.mark.parametrize("seed", [0, 1])
def test_ellipticity_lanczos_runs_on_until_a_clustered_end_passes(seed):
    """minimal_surface d=2 P2 16^2: the lower end sits in a cluster at the
    bottom of the coefficient's range and passes only after more than 200
    Lanczos steps; the same run goes on until it does, and it must match
    the dense extreme to 1e-9."""
    problem = build_problem("minimal_surface", 2)
    u, _ = solved(problem, 16, order=2)
    est = estimate_ellipticity(assemble_hessian(problem.model, u), u, seed=seed)
    assert 200 < est.iters_min <= analysis._LANCZOS_STEPS
    assert est.lambda_min == pytest.approx(dense_extremes(problem.model, u)[0], rel=1e-9)


def test_ellipticity_raises_when_an_end_does_not_pass_within_the_steps(monkeypatch):
    """An end still above the residual tolerance at the last Lanczos step
    is a solver failure, not an estimate."""
    monkeypatch.setattr(analysis, "_LANCZOS_STEPS", 12)
    problem = build_problem("minimal_surface", 2)
    u, _ = solved(problem, 16, order=2)
    with pytest.raises(analysis.PowerIterationError, match="after 12 Lanczos steps"):
        estimate_ellipticity(assemble_hessian(problem.model, u), u)


def test_ellipticity_iterations_do_not_grow_with_refinement():
    """G1^-1 d2J is a compact perturbation of the identity here, so the
    quartic extremes pass in a mesh-independent number of Lanczos steps;
    summed over starting vectors and both ends, the finer level of a nested
    pair takes no more Lanczos steps than the coarser one."""
    problem = build_problem("quartic", 2)
    mesh = build_unit_mesh(2, 16)
    totals = []
    for m in (mesh, refine(mesh)):
        u, _ = minimize(problem.model, make_space(m, 2, problem.boundary_fn))
        hess = assemble_hessian(problem.model, u)
        ests = [estimate_ellipticity(hess, u, seed=s) for s in range(8)]
        assert all(e.iters_min > 0 and e.iters_max > 0 for e in ests)
        totals.append(sum(e.iters_min + e.iters_max for e in ests))
    assert totals[1] <= totals[0]


# ---------------------------------------------------------------------------
# integrated Galerkin orthogonality


def test_galerkin_defect_vanishes_for_a_quadratic_energy():
    problem = build_problem("linear", 1)
    uc, uf = solved_pair(problem, 16)
    assert galerkin_defect(problem.model, uf, uc) < 1e-10


def _t_integral_defect(model, uf, uc):
    """The integrated orthogonality by its definition: a 12-point Gauss
    rule in t of d2J along the segment from uf to the embedded uc, applied
    to the direction P uc - uf and tested against the coarse interior
    basis."""
    prolongation = solver.embedding_matrix(uc.space, uf.space)
    pu = prolongation @ uc.coeffs
    pu[uf.space.boundary_dofs] = uf.coeffs[uf.space.boundary_dofs]
    direction = pu - uf.coeffs
    tg, tw = np.polynomial.legendre.leggauss(12)
    y = sum(0.5 * w * assemble_hessian(model, FEFunction(uf.space, (1 - t) * uf.coeffs + t * pu))
            .apply(direction) for t, w in zip(0.5 * (tg + 1), tw))
    defect = prolongation.T @ y
    defect[uc.space.boundary_dofs] = 0.0
    return float(np.abs(defect).max())


@pytest.mark.parametrize("name,order,cells", [
    ("quartic", 1, 16), ("cosine", 2, 8), ("minimal_surface", 1, 8)])
def test_galerkin_defect_is_the_t_integral_of_the_second_variation(name, order, cells):
    """The closed form dJ(P u_h) - dJ(u_fine) equals the t-integral of d2J
    it replaces, to rounding, on densities that are polynomial (quartic)
    and not (cosine, minimal_surface) in the state."""
    problem = build_problem(name, 1)
    uc, uf = solved_pair(problem, cells, order)
    assert abs(galerkin_defect(problem.model, uf, uc)
               - _t_integral_defect(problem.model, uf, uc)) < 1e-13


@pytest.mark.parametrize("order,cells,table", [
    (2, 4, 2.283e-8), (2, 8, 2.177e-11), (1, 4, 7.305e-11), (3, 2, 2.420e-5)])
def test_galerkin_defect_is_the_integration_crime_on_quartic(order, cells, table):
    """Between minimizers, r_fine(u_fine) ~ 0 and r_coarse(u_h) ~ 0, so the
    defect is what the coarse and the fine rule integrate differently,
    |P^T r_fine(P u_h) - r_coarse(u_h)|: the values of the ROADMAP table."""
    problem = build_problem("quartic", 2)
    uc, uf = solved_pair(problem, cells, order)
    prolongation = solver.embedding_matrix(uc.space, uf.space)
    crime = (prolongation.T @ assemble_residual(problem.model, FEFunction(
        uf.space, prolongation @ uc.coeffs)) - assemble_residual(problem.model, uc))
    crime[uc.space.boundary_dofs] = 0.0
    defect = galerkin_defect(problem.model, uf, uc)
    assert abs(defect - np.abs(crime).max()) < 1e-12
    assert defect == pytest.approx(table, rel=1e-3)


def test_galerkin_defect_detects_unconverged_solution():
    problem = build_problem("quartic", 1)
    coarse_mesh = build_unit_mesh(1, 16)
    cs = make_space(coarse_mesh, 1, problem.boundary_fn)
    fs = make_space(refine(coarse_mesh), 1, problem.boundary_fn)
    u_loose, log = minimize(problem.model, cs, NewtonOptions(residual_tol=1e-3))
    uf, _ = minimize(problem.model, fs)
    defect = galerkin_defect(problem.model, uf, u_loose)
    final_residual = log.residual_norms[-1]
    assert 1e-2 * final_residual <= defect <= 1e2 * final_residual


def test_galerkin_defect_rejects_non_nested():
    problem = build_problem("linear", 1)
    cs = make_space(build_unit_mesh(1, 16), 1, problem.boundary_fn)
    other = make_space(build_unit_mesh(1, 32), 1, problem.boundary_fn)
    u1 = cs.zero_function()
    u2 = other.zero_function()
    with pytest.raises(ValueError, match="refined"):
        galerkin_defect(problem.model, u2, u1)


# ---------------------------------------------------------------------------
# adjoint problem


def test_solve_adjoint_zero_rhs():
    problem = build_problem("linear", 1)
    u, _ = solved(problem, 16, order=2)
    w = solve_adjoint(assemble_hessian(problem.model, u), u.space.zero_function())
    assert np.abs(w.coeffs).max() == 0.0


def test_solve_adjoint_requires_order_2():
    problem = build_problem("linear", 1)
    u, _ = solved(problem, 16, order=1)
    with pytest.raises(ValueError, match="order >= 2"):
        solve_adjoint(assemble_hessian(problem.model, u), u.space.zero_function())


def test_solve_adjoint_rejects_a_hessian_of_another_space():
    problem = build_problem("linear", 1)
    u, _ = solved(problem, 16, order=2)
    other, _ = solved(problem, 8, order=2)
    with pytest.raises(ValueError, match="hess has size 17; the reference space has 33"):
        solve_adjoint(assemble_hessian(problem.model, other), u.space.zero_function())


def test_ellipticity_rejects_a_hessian_of_another_space():
    problem = build_problem("linear", 1)
    u, _ = solved(problem, 16)
    other, _ = solved(problem, 8)
    with pytest.raises(ValueError, match="hess has size 9; v's space has 17 dofs"):
        estimate_ellipticity(assemble_hessian(problem.model, other), u)


def test_solve_adjoint_closed_form_ode():
    """psi = 0, rhs = sin(pi x): the adjoint solves -W'' = -sin(pi x), so
    W = -sin(pi x)/pi^2; discrete error shrinks under refinement."""
    problem = build_problem("linear", 1)
    target = _exact_by_parts(
        lambda x: -np.sin(np.pi * x[:, 0]) / np.pi**2,
        lambda x: (-np.cos(np.pi * x[:, 0]) / np.pi)[:, None],
        lambda x: np.sin(np.pi * x[:, 0])[:, None, None] * np.ones((1, 1, 1)))
    errs = []
    for cells in (8, 16):
        u, _ = solved(problem, cells, order=2)
        rhs = interpolate(u.space, lambda x: np.sin(np.pi * x[:, 0]))
        rhs.coeffs[u.space.boundary_dofs] = 0.0
        w = solve_adjoint(assemble_hessian(problem.model, u), rhs)
        errs.append(norms(target, w).l2)
    assert errs[0] < 1e-4
    assert errs[0] / errs[1] > 4.0


def test_adjoint_identity_residual_decreases_with_reference():
    problem = build_problem("quartic", 1)
    u, _ = solved(problem, 16)
    residuals = [adjoint_identity_check(problem, u, levels_finer=k).identity_residual
                 for k in (1, 2, 3)]
    assert residuals[2] < residuals[0]
    assert residuals[1] < 0.05


def test_adjoint_check_embeds_once_and_solves_to_the_newton_tolerance(monkeypatch):
    """The standalone check solves its P2 reference by nested iteration
    from P2 on u_h's own mesh up, and embeds u_h into P2 once; the other
    embedding matrices are the two prolongations.  The adjoint solve runs
    to the linear tolerance of the Newton options."""
    problem = build_problem("quartic", 1)
    u, _ = solved(problem, 8)
    calls, tols = [], []
    original_matrix, original_solve = solver.embedding_matrix, analysis.linear_solve

    def counting(src, dst):
        calls.append((src, dst))
        return original_matrix(src, dst)

    def recording(op, b, tol, **kwargs):
        tols.append(tol)
        return original_solve(op, b, tol=tol, **kwargs)

    monkeypatch.setattr(solver, "embedding_matrix", counting)
    monkeypatch.setattr(analysis, "embedding_matrix", counting)
    monkeypatch.setattr(analysis, "linear_solve", recording)
    starts, solutions = recorded_minimize(monkeypatch)
    check = adjoint_identity_check(problem, u, newton=NewtonOptions(linear_tol=1e-11))
    assert len(calls) == 3
    [(src, dst)] = [(src, dst) for src, dst in calls if src is u.space]
    assert dst is solutions[0].space
    assert [(v.space.mesh.level, v.space.order) for v in solutions] == [(0, 2), (1, 2), (2, 2)]
    assert solutions[0].space.mesh is u.space.mesh
    assert_nested_iteration(starts, solutions)
    assert tols == [1e-11]
    assert check.identity_residual < 0.05


@pytest.mark.parametrize("order, bad", [
    (1, True), (1, 1.5), (1, -1), (1, "2"), (2, 0), (2, -1), (2, False),
])
def test_adjoint_identity_check_validates_levels_finer(order, bad):
    problem = build_problem("quartic", 1)
    u, _ = solved(problem, 4, order=order)
    with pytest.raises(ValueError, match="levels_finer must be an integer"):
        adjoint_identity_check(problem, u, levels_finer=bad)


def test_adjoint_identity_check_accepts_the_same_space_at_order_1():
    """For m = 1, levels_finer = 0 puts the P2 reference on u_h's mesh."""
    problem = build_problem("quartic", 1)
    u, _ = solved(problem, 8)
    check = adjoint_identity_check(problem, u, levels_finer=np.int64(0))
    assert all(np.isfinite(value) for value in vars(check).values())
    assert check.identity_residual < 0.05


def test_adjoint_identity_check_of_order_1_rejects_an_fefunction_start(monkeypatch):
    """For m = 1 level 0 is a P2 space the check builds, so a start given
    as an FEFunction is rejected before any work; for m >= 2 level 0 is
    u_h's own space and starts at u_h."""
    problem = build_problem("quartic", 1)
    u, _ = solved(problem, 4)
    for name in ("refine", "make_space", "minimize", "embed"):
        monkeypatch.setattr(analysis, name, _no_work)
    with pytest.raises(ValueError, match="FEFunction cannot lie on its space"):
        adjoint_identity_check(problem, u, newton=NewtonOptions(initial=u))


def test_adjoint_check_fields_are_plain_floats():
    problem = build_problem("quartic", 1)
    u, _ = solved(problem, 8)
    check = adjoint_identity_check(problem, u)
    for name, value in vars(check).items():
        assert type(value) is float, (name, type(value))


def test_h2_ratio_scaling_invariance():
    problem = build_problem("linear", 1)
    u, _ = solved(problem, 32, order=2)
    rhs = interpolate(u.space, lambda x: np.sin(np.pi * x[:, 0]))
    rhs.coeffs[u.space.boundary_dofs] = 0.0
    hess = assemble_hessian(problem.model, u)
    w1 = solve_adjoint(hess, rhs)
    r1 = h2_regularity_ratio(w1, norms(None, rhs).l2)
    rhs10 = FEFunction(u.space, 10.0 * rhs.coeffs)
    w10 = solve_adjoint(hess, rhs10)
    r10 = h2_regularity_ratio(w10, norms(None, rhs10).l2)
    assert abs(r1 - r10) < 1e-12


def test_h2_ratio_validates_input():
    problem = build_problem("linear", 1)
    u, _ = solved(problem, 16, order=2)
    with pytest.raises(analysis._UndefinedDiagnostic, match="zero right-hand side"):
        h2_regularity_ratio(u, norms(None, u.space.zero_function()).l2)


@pytest.mark.parametrize("rhs_l2", [True, "1", -1.0, np.nan, np.inf])
def test_h2_ratio_rejects_a_denominator_that_is_not_a_finite_number_of_at_least_0(rhs_l2):
    space = make_space(build_unit_mesh(2, 4), 2, 0.0)
    w = interpolate(space, lambda x: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]))
    with pytest.raises(ValueError, match="rhs_l2 must be a finite number >= 0"):
        h2_regularity_ratio(w, rhs_l2)


# ---------------------------------------------------------------------------
# V-cycle preconditioned solves on the level hierarchy


class CountingOperator:
    """Stands in for a SparseOperator and counts `apply`, as the
    benchmark's tracer does."""

    def __init__(self, op):
        self.op = op
        self.applies = 0

    def apply(self, x):
        self.applies += 1
        return self.op.apply(x)

    def diagonal(self):
        return self.op.diagonal()


def counted_solves(monkeypatch, modules=(solver, analysis)):
    """Wrap each module's `linear_solve` binding to record, per solve, the
    operator's size, whether a preconditioner was passed and the CG
    iterations (operator applications)."""
    solves = []

    def counting(op, b, *args, **kwargs):
        proxy = CountingOperator(op)
        try:
            return linear_solve(proxy, b, *args, **kwargs)
        finally:
            solves.append((op.dim, kwargs.get("preconditioner") is not None,
                           proxy.applies))

    for module in modules:
        monkeypatch.setattr(module, "linear_solve", counting)
    return solves


def hierarchy_of(name, cells, order, levels):
    """A d=2 hierarchy from `cells` coarse cells with `levels` minimizers."""
    hierarchy = analysis._Hierarchy(build_problem(name, 2), NewtonOptions(),
                                    [build_unit_mesh(2, cells)])
    for level in range(levels):
        hierarchy.minimizer(level, order)
    return hierarchy


@pytest.mark.parametrize("name, order, levels, cap", [
    ("quartic", 1, 6, 20), ("quartic", 2, 5, 20), ("quartic", 3, 4, 20),
    ("cosine", 1, 6, 20), ("cosine", 2, 5, 20), ("cosine", 3, 4, 20),
    ("minimal_surface", 1, 6, 40), ("minimal_surface", 2, 5, 40),
    ("minimal_surface", 3, 4, 40),
])
def test_v_cycle_bounds_the_cg_iterations_of_every_hessian_solve(
        monkeypatch, name, order, levels, cap):
    """From 4 coarse cells up to 16 641 dofs (P1, P2) or 9409 (P3), every
    Newton solve on a level of 1089 dofs or more is V-cycle preconditioned
    and takes at most `cap` CG iterations, where Jacobi-PCG's count grows
    like 1/h."""
    solves = counted_solves(monkeypatch)
    hierarchy_of(name, 4, order, levels)
    sized = [(preconditioned, iters) for dim, preconditioned, iters in solves
             if dim >= 1089]
    assert len(sized) >= levels - 3
    assert all(preconditioned for preconditioned, _ in sized)
    assert max(iters for _, iters in sized) <= cap, solves


def cycle_at_the_top(name, cells, order, levels):
    """The finest minimizer's Hessian of a hierarchy, the cycle the
    hierarchy keeps for that level and a random right-hand side with zero
    boundary entries."""
    hierarchy = hierarchy_of(name, cells, order, levels)
    u, _ = hierarchy.minimizers[levels - 1, order]
    hess = assemble_hessian(hierarchy.problem.model, u)
    cycle = hierarchy.cycle(levels - 1, order)
    b = np.random.default_rng(order).standard_normal(u.space.dim)
    b[u.space.boundary_dofs] = 0.0
    return hess, cycle, b


@pytest.mark.parametrize("name, order, levels", [
    ("quartic", 1, 4), ("quartic", 2, 3), ("quartic", 3, 3), ("minimal_surface", 2, 3),
])
def test_v_cycle_solution_agrees_with_jacobi_pcg(name, order, levels):
    hess, cycle, b = cycle_at_the_top(name, 4, order, levels)
    assert hess.dim >= 1089
    x_jacobi = linear_solve(hess, b, tol=1e-12)
    x_cycle = linear_solve(hess, b, tol=1e-12, preconditioner=cycle)
    assert np.linalg.norm(x_cycle - x_jacobi) <= 1e-10 * np.linalg.norm(x_jacobi)


@pytest.mark.parametrize("order, cells, levels", [
    pytest.param(1, 2, 3, id="1"), pytest.param(2, 2, 3, id="2"), pytest.param(3, 2, 3, id="3"),
    pytest.param(1, 22, 2, id="diagonal_root"),
])
def test_v_cycle_is_symmetric_positive_definite(order, cells, levels):
    """Symmetric and positive on random vectors, over the dense root of a
    2-cell mesh and over the diagonal root of P1 on 22 x 22 cells."""
    hess, cycle, b = cycle_at_the_top("quartic", cells, order, levels)
    rng = np.random.default_rng(7)
    for _ in range(3):
        u, v = rng.standard_normal((2, hess.dim))
        uv, vu = u @ cycle(v), v @ cycle(u)
        assert abs(uv - vu) <= 1e-12 * np.sqrt((u @ cycle(u)) * (v @ cycle(v)))
        assert u @ cycle(u) > 0


def quartic_hierarchy(dim, cells, order, levels):
    """A quartic hierarchy in `dim` dimensions from `cells` coarse cells
    with `levels` minimizers, so a kept cycle on every level above 0."""
    hierarchy = analysis._Hierarchy(build_problem("quartic", dim), NewtonOptions(),
                                    [build_unit_mesh(dim, cells)])
    for level in range(levels):
        hierarchy.minimizer(level, order)
    return hierarchy


def masked_level_step(a, weights, prolongation, fine, coarse, coarse_solve, r):
    """One V-cycle level through a copy of the prolongation without the
    fine Dirichlet rows and the coarse Dirichlet columns, and the CSR
    transpose of that copy as the restriction."""
    masked = prolongation.copy()
    rows = np.repeat(np.arange(fine.dim), np.diff(masked.indptr))
    masked.data[~(fine.interior_mask[rows] & coarse.interior_mask[masked.indices])] = 0.0
    masked.eliminate_zeros()
    x = weights * r
    solver._smooth(a, weights, x, r, solver._SMOOTHING_SWEEPS - 1)
    defect = a @ x
    np.subtract(r, defect, out=defect)
    x += masked @ coarse_solve(masked.T.tocsr() @ defect)
    solver._smooth(a, weights, x, r, solver._SMOOTHING_SWEEPS)
    return x


HIERARCHY_SHAPES = [(dim, cells, order, levels) for dim, cells, levels in [(1, 4, 4), (2, 2, 4)]
                    for order in (1, 2, 3)]


@pytest.mark.parametrize("dim, cells, order, levels", HIERARCHY_SHAPES)
def test_v_cycle_transfers_match_the_masked_prolongation_bytewise(dim, cells, order, levels):
    """Restricting by the prolongation's transpose and zeroing the coarse
    Dirichlet entries gives the bytes of the masked transfers on every
    kept cycle, for residuals with zero Dirichlet entries.  The prolonged
    correction needs no zeroing: the exact embedding maps a Dirichlet row
    to Dirichlet columns only, where every coarse cycle returns 0, so the
    correction is 0 on the fine Dirichlet entries already."""
    hierarchy = quartic_hierarchy(dim, cells, order, levels)
    rng = np.random.default_rng(order)
    for level in range(1, levels):
        fine, coarse = hierarchy.space(level, order), hierarchy.space(level - 1, order)
        cycle = hierarchy.cycle(level, order)
        a, weights, prolongation, _, _, coarse_solve = cycle.args
        for _ in range(3):
            r = rng.standard_normal(fine.dim)
            r[fine.boundary_dofs] = 0.0
            assert np.array_equal(cycle(r), masked_level_step(
                a, weights, prolongation, fine, coarse, coarse_solve, r))


@pytest.mark.parametrize("dim, cells, order, levels", HIERARCHY_SHAPES)
def test_a_level_cycle_holds_no_transfer_but_the_hierarchys_prolongation(
        dim, cells, order, levels):
    """Each kept cycle binds the hierarchy's prolongation itself and, as
    its restriction, a transpose view on the same arrays; its only other
    matrix is the Hessian's."""
    hierarchy = quartic_hierarchy(dim, cells, order, levels)
    for level in range(1, levels):
        cycle = hierarchy.cycle(level, order)
        a, _, prolongation, restriction = cycle.args[:4]
        assert prolongation is hierarchy.prolongations[level, order]
        assert restriction.shape == prolongation.shape[::-1]
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(restriction, name), getattr(prolongation, name))
        assert [arg is a or arg is prolongation or arg is restriction
                for arg in cycle.args if sp.issparse(arg)] == [True] * 3


@pytest.mark.parametrize("cells", [21, 22])
def test_a_root_above_the_dense_cap_is_solved_by_its_diagonal(monkeypatch, cells):
    """P1 on 21 x 21 cells has 400 interior dofs, at the root cap
    `_ROOT_DOFS`; on 22 x 22, 441, above it, where the root's solve is
    Jacobi by the diagonal of d2J instead of a dense inverse.  Level 0 is
    Jacobi-preconditioned and level 1 cycled either way; only the cycle
    reads d2J at a minimizer here, level 0's."""
    solves = counted_solves(monkeypatch)
    hierarchy = hierarchy_of("quartic", cells, 1, 2)
    dims = [hierarchy.space(level, 1).dim for level in (0, 1)]
    assert {preconditioned for dim, preconditioned, _ in solves if dim == dims[0]} == {False}
    assert {preconditioned for dim, preconditioned, _ in solves if dim == dims[1]} == {True}
    assert list(hierarchy.hessians) == [(0, 1)]
    root = hierarchy.cycle(0, 1)
    if cells == 21:
        assert root.func is solver._dense_solve
    else:
        assert root.func is solver._jacobi
        assert np.array_equal(root.args[0], hierarchy.hessians[0, 1].diagonal())


@pytest.mark.parametrize("order, cells", [(1, 22), (2, 11), (3, 8)])
def test_a_cycle_over_a_diagonal_root_bounds_cg_by_the_roots_jacobi_pcg(
        monkeypatch, order, cells):
    """Quartic d=2 from a root above `_ROOT_DOFS` (441 interior dofs for
    P1 from 22 cells and P2 from 11, 529 for P3 from 8), three levels:
    every solve on levels 1 and 2 runs the V-cycle over the diagonal root
    and takes at most as many CG iterations as the largest Jacobi-PCG
    solve of level 0."""
    solves = counted_solves(monkeypatch)
    hierarchy = hierarchy_of("quartic", cells, order, 3)
    assert hierarchy.cycle(0, order).func is solver._jacobi
    root = hierarchy.space(0, order).dim
    jacobi = [iters for dim, _, iters in solves if dim == root]
    above = [(preconditioned, iters) for dim, preconditioned, iters in solves if dim != root]
    assert len(above) >= 2 and all(preconditioned for preconditioned, _ in above)
    assert max(iters for _, iters in above) <= max(jacobi), solves


def test_a_level_cycle_is_bound_to_the_hessian_at_its_minimizer(monkeypatch):
    """The hierarchy assembles d2J at a level's minimizer on first read and
    keeps it; the cycle of a level above the root carries its matrix.  The
    levels below the top are read by the cycles that the Newton solves
    above them run; the top's Hessian waits for its first read."""
    assembled = []

    def recording_hessian(model, v):
        assembled.append((v, assemble_hessian(model, v)))
        return assembled[-1][1]

    monkeypatch.setattr(analysis, "assemble_hessian", recording_hessian)
    hierarchy = hierarchy_of("quartic", 4, 2, 3)
    assert [id(v) for v, _ in assembled] == [id(hierarchy.minimizers[level, 2][0])
                                             for level in (0, 1)]
    for level in range(3):
        u, _ = hierarchy.minimizers[level, 2]
        hess = hierarchy.hessian(level, 2)
        assert [id(h) for v, h in assembled if v is u] == [id(hess)]
        assert hierarchy.hessian(level, 2) is hess
        if level:
            assert hierarchy.cycle(level, 2).args[0] is hess.matrix
    assert len(assembled) == 3


def test_a_converged_root_still_cycles_the_levels_above(monkeypatch):
    """Level 0 given with its minimizer as the Newton start takes no step;
    its cycle is then bound to d2J at that minimizer, and every Newton
    solve on the levels above still runs the V-cycle."""
    problem = build_problem("quartic", 2)
    u0, _ = solved(problem, 4)
    hierarchy = analysis._Hierarchy(problem, NewtonOptions(initial=u0),
                                    [u0.space.mesh], spaces={(0, 1): u0.space})
    solves = counted_solves(monkeypatch)
    assert hierarchy.minimizer(0, 1)[1] == 0
    hierarchy.minimizer(2, 1)
    steps = sum(hierarchy.minimizers[level, 1][1] for level in (1, 2))
    assert len(solves) == steps > 0
    assert all(preconditioned for _, preconditioned, _ in solves)


def test_standalone_adjoint_check_starts_its_root_at_u_h(monkeypatch):
    """For m >= 2 the hierarchy's level 0 is u_h's own space: Newton starts
    there at u_h and takes no step, and every solve of the reference
    levels (Newton and adjoint) runs the V-cycle."""
    problem = build_problem("quartic", 2)
    u_h, _ = solved(problem, 4, order=2)
    calls = counted_calls(monkeypatch, "minimize")
    solves = counted_solves(monkeypatch)
    check = adjoint_identity_check(problem, u_h)
    assert np.isfinite(check.identity_residual)
    (u0, log0), *references = calls["minimize"]
    assert len(log0.iterations) == 1 and np.array_equal(u0.coeffs, u_h.coeffs)
    assert len(references) == 2
    assert solves and all(preconditioned for _, preconditioned, _ in solves)


@pytest.mark.parametrize("order, cycle", [(1, True), (2, True)])
def test_adjoint_solve_is_preconditioned_where_its_reference_has_a_chain(
        monkeypatch, order, cycle):
    """Every reference sits on a chain of prolongations down to level 0 of
    its order, so every adjoint solve runs the V-cycle: for m >= 2 the
    reference is a study level, for m = 1 the top of the P2 levels."""
    solves = counted_solves(monkeypatch, modules=(analysis,))
    report = convergence_study(build_problem("quartic", 2), order, 3,
                               StudyOptions(coarse_cells=2, diagnostics=("adjoint",)))
    assert report.aborted is None
    assert len(solves) == 3
    assert {preconditioned for _, preconditioned, _ in solves} == {cycle}


def test_adjoint_embeds_by_the_held_prolongations(monkeypatch):
    """For m >= 2 the embedding of u_h into its reference is the product of
    the two prolongations the hierarchy holds, which equals the two-level
    embedding matrix to rounding; no embedding matrix is built for it."""
    calls = counted_calls(monkeypatch, "embedding_matrix")
    adjoint_solves = recorded_adjoint_solves(monkeypatch)
    report, _, solutions = recorded_study(
        monkeypatch, build_problem("quartic", 2), 2, 3,
        StudyOptions(coarse_cells=2, diagnostics=("adjoint",)))
    assert report.aborted is None
    assert len(calls["embedding_matrix"]) == 4  # the prolongations into levels 1-4
    embedded = [rhs.coeffs + u_ref.coeffs for u_ref, rhs in adjoint_solves]
    assert len(embedded) == 3
    for level, e in enumerate(embedded):
        u_h, ref = solutions[level], solutions[level + 2]
        direct = solver.embedding_matrix(u_h.space, ref.space) @ u_h.coeffs
        interior = ref.space.interior_mask
        np.testing.assert_allclose(e[interior], direct[interior], rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# predominant quadraticity


def test_pq_zero_for_quadratic_energy():
    problem = build_problem("linear", 1)
    u, _ = solved(problem, 16, order=2)
    est = estimate_pq_constant(problem.model, u, samples=4)
    assert est.max_ratio < 1e-13


def test_pq_requires_order_2():
    problem = build_problem("quartic", 1)
    u, _ = solved(problem, 16, order=1)
    with pytest.raises(ValueError, match="order >= 2"):
        estimate_pq_constant(problem.model, u)


def test_pq_norm_pairs():
    problem = build_problem("quartic", 1)
    u, _ = solved(problem, 16, order=2)
    for pair in ((1, 2), (0, 1), (0, 2)):
        est = estimate_pq_constant(problem.model, u, norm_pair=pair, samples=3)
        assert np.isfinite(est.max_ratio) and est.max_ratio > 0
    with pytest.raises(ValueError):
        estimate_pq_constant(problem.model, u, norm_pair=(2, 2), samples=2)


def test_directional_sup_norm_is_the_sampled_sup_of_the_values():
    """The pair (0, inf) names L^inf: sup|v| = 1 for sin(pi x), where
    the W^{1,inf} value would be sup|v'| = pi."""
    space = make_space(build_unit_mesh(1, 64), 2, 0.0)
    v = interpolate(space, lambda x: np.sin(np.pi * x[:, 0]))
    assert abs(analysis._directional_norm(v, (0, np.inf), None) - 1.0) <= 1e-3


@pytest.mark.parametrize("r", [0, 0.5, -1, np.nan, -np.inf])
def test_pq_rejects_an_invalid_lr_exponent(r):
    """(0, inf) is the sampled sup norm; any other r that is not finite
    and >= 1 is rejected, nan included."""
    problem = build_problem("quartic", 1)
    u, _ = solved(problem, 8, order=2)
    assert estimate_pq_constant(problem.model, u, norm_pair=(0, np.inf),
                                samples=1).max_ratio > 0
    with pytest.raises(ValueError, match="finite q >= 1"):
        estimate_pq_constant(problem.model, u, norm_pair=(0, r), samples=1)


@pytest.mark.parametrize("pair", [(1, 3), (2, 2), (0, 0.5), (0,), "12", (0, np.nan),
                                  (True, 2), (1.0, 2), (0, True), (1, "2"), None])
def test_pq_rejects_a_bad_norm_pair_before_any_sample(pair, monkeypatch):
    problem = build_problem("quartic", 1)
    u, _ = solved(problem, 8, order=2)
    calls = []
    monkeypatch.setattr(analysis, "apply_third_variation",
                        lambda *args: calls.append(args) or 0.0)
    with pytest.raises(ValueError, match="norm.pair"):
        estimate_pq_constant(problem.model, u, norm_pair=pair, samples=1)
    assert calls == []


def test_pq_takes_each_norm_once(monkeypatch):
    """With the default pair (1, 2) the directional norm is the W^{1,2}
    norm already taken: 3 norms passes per sample, values unchanged."""
    from nitschelab import analysis as an

    problem = build_problem("quartic", 1)
    u, _ = solved(problem, 16, order=2)
    plain = estimate_pq_constant(problem.model, u, samples=4, seed=2)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return norms(*args, **kwargs)

    monkeypatch.setattr(an, "norms", counted)
    est = estimate_pq_constant(problem.model, u, samples=4, seed=2)
    assert len(calls) == 12
    assert est.max_ratio == plain.max_ratio


def test_pq_minimal_surface_reported():
    problem = build_problem("minimal_surface", 2)
    u, _ = solved(problem, 8, order=2)
    est = estimate_pq_constant(problem.model, u, samples=3)
    assert np.isfinite(est.max_ratio) and est.max_ratio > 0


# ---------------------------------------------------------------------------
# rates


def test_estimate_rate_exact_power_law():
    pairs = [(h, 3.0 * h**2) for h in (0.4, 0.2, 0.1, 0.05)]
    est = estimate_rate(pairs)
    assert est.slope == pytest.approx(2.0, abs=1e-12)
    assert est.r_squared == pytest.approx(1.0, abs=1e-12)


def test_estimate_rate_with_noise():
    rng = np.random.default_rng(12)
    pairs = [(h, 2.0 * h**2 * (1 + 0.05 * rng.uniform(-1, 1)))
             for h in (0.5, 0.25, 0.125, 0.0625, 0.03125)]
    est = estimate_rate(pairs)
    assert 1.9 <= est.slope <= 2.1


def test_estimate_rate_duplicate_h_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        estimate_rate([(0.5, 1.0), (0.5, 0.5), (0.25, 0.25)])


def test_estimate_rate_excludes_nonpositive_with_warning():
    pairs = [(0.5, 1.0), (0.25, 0.25), (0.125, 0.0625), (0.0625, 0.0)]
    with pytest.warns(UserWarning, match="non-positive"):
        est = estimate_rate(pairs)
    assert est.slope == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError):
        estimate_rate([(0.5, 1.0), (0.25, 1.0)])


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_estimate_rate_rejects_errors_that_are_not_finite(bad):
    with pytest.raises(ValueError, match="errors must be finite"):
        estimate_rate([(0.5, 0.1), (0.25, bad), (0.125, 0.02)])


# ---------------------------------------------------------------------------
# studies


def test_convergence_study_with_diagnostics():
    problem = build_problem("quartic", 1)
    opts = StudyOptions(coarse_cells=8,
                        diagnostics=("galerkin", "ellipticity", "inverse_estimate"))
    report = convergence_study(problem, 1, 4, opts)
    assert len(report.levels) == 4
    assert report.aborted is None
    assert 0.85 <= report.rate_h1.slope <= 1.25
    assert 1.75 <= report.rate_l2.slope <= 2.3
    assert len(report.diagnostics["galerkin"]) == 3
    assert all(lam > 0 for _, lam, _ in report.diagnostics["ellipticity"])
    inv = [v for _, v in report.diagnostics["inverse_estimate"]]
    assert max(inv) / min(inv) - 1 < 0.10
    # dofs halve h each level
    hs = [lr.h for lr in report.levels]
    assert all(b == pytest.approx(a / 2) for a, b in zip(hs, hs[1:]))


def recorded_minimize(monkeypatch):
    """Patch analysis's `minimize` to record the start and the solution of
    every Newton solve; returns (starts, solutions)."""
    starts, solutions = [], []
    original = analysis.minimize

    def recording(model, space, newton, **kwargs):
        starts.append(newton.initial)
        u, log = original(model, space, newton, **kwargs)
        solutions.append(u)
        return u, log

    monkeypatch.setattr(analysis, "minimize", recording)
    return starts, solutions


def recorded_study(monkeypatch, problem, order, levels, opts):
    """The study's report, with the start and the solution of every
    level's Newton solve."""
    starts, solutions = recorded_minimize(monkeypatch)
    return convergence_study(problem, order, levels, opts), starts, solutions


def assert_nested_iteration(starts, solutions):
    """The first solve started from the boundary lift, every later one
    from the solution before it, prolonged."""
    assert starts[0] is None
    for start, coarse, fine in zip(starts[1:], solutions, solutions[1:]):
        assert start.space is fine.space
        np.testing.assert_array_equal(start.coeffs, embed(coarse, fine.space).coeffs)


@pytest.mark.parametrize("name, dim, cells, max_iters", [
    ("minimal_surface", 1, 8, [8, 8, 8]),
    ("quartic", 2, 4, [4, 3, 3, 2]),
], ids=["minimal_surface-d1", "quartic-d2"])
def test_convergence_study_nested_iteration(monkeypatch, name, dim, cells, max_iters):
    """Level 0 starts from the boundary lift, every later level from the
    previous level's minimizer prolonged, which saves Newton steps."""
    report, starts, solutions = recorded_study(
        monkeypatch, build_problem(name, dim), 1, len(max_iters),
        StudyOptions(coarse_cells=cells))
    assert report.aborted is None
    assert_nested_iteration(starts, solutions)
    iters = [lr.newton_iters for lr in report.levels]
    assert all(it <= cap for it, cap in zip(iters, max_iters)), iters


def test_convergence_study_builds_each_prolongation_once(monkeypatch):
    """One embedding per level pair serves both the Newton start of the
    fine level and the Galerkin defect."""
    calls = []
    original = solver.embedding_matrix

    def counting(src, dst):
        calls.append((src, dst))
        return original(src, dst)

    monkeypatch.setattr(solver, "embedding_matrix", counting)
    monkeypatch.setattr(analysis, "embedding_matrix", counting)
    levels = 4
    report, _, solutions = recorded_study(
        monkeypatch, build_problem("quartic", 2), 1, levels,
        StudyOptions(coarse_cells=2, diagnostics=("galerkin",)))
    assert report.aborted is None
    assert len(report.diagnostics["galerkin"]) == levels - 1
    assert len(calls) == levels - 1
    for (src, dst), coarse, fine in zip(calls, solutions, solutions[1:]):
        assert src is coarse.space and dst is fine.space


def test_study_takes_its_diagnostics_through_the_public_functions(monkeypatch):
    """A study calls `galerkin_defect`, `solve_adjoint` and
    `h2_regularity_ratio` by name, so a binding of those names sees every
    defect and adjoint solve; the defect with the hierarchy's prolongation
    is bitwise the one built from scratch."""
    problem = build_problem("quartic", 2)
    calls = counted_calls(monkeypatch, "galerkin_defect", "solve_adjoint",
                          "h2_regularity_ratio")
    report, _, solutions = recorded_study(
        monkeypatch, problem, 2, 3,
        StudyOptions(coarse_cells=2, diagnostics=("galerkin", "adjoint")))
    assert report.aborted is None
    assert [len(calls[name]) for name in calls] == [2, 3, 3]
    for (level, defect), recorded in zip(report.diagnostics["galerkin"],
                                         calls["galerkin_defect"]):
        u_h, u_fine = solutions[level], solutions[level + 1]
        assert defect == recorded == galerkin_defect(problem.model, u_fine, u_h)


def two_pass_adjoint_check(hierarchy, level, u_h, l2_exact, levels_finer):
    """`analysis._adjoint_check` written out with d2J(u*) assembled for the
    solve and again for the bilinear term, and ||e||_{L^2} taken for the
    check and again for the ratio."""
    model, order = hierarchy.problem.model, max(u_h.space.order, 2)
    ref_level = level + levels_finer
    u_star, _ = hierarchy.minimizer(ref_level, order)
    space = u_star.space
    coeffs = (u_h.coeffs if u_h.space.order == order
              else embed(u_h, hierarchy.space(level, order)).coeffs)
    for k in range(level + 1, ref_level + 1):
        coeffs = hierarchy.prolongations[k, order] @ coeffs
    e = FEFunction(space, coeffs - u_star.coeffs)
    e.coeffs[space.boundary_dofs] = 0.0
    b = -assemble_gram_l2(space).apply(e.coeffs)
    b[space.boundary_dofs] = 0.0
    w = FEFunction(space, linear_solve(assemble_hessian(model, u_star), b,
                                       tol=hierarchy.newton.linear_tol,
                                       preconditioner=hierarchy.cycle(ref_level, order)))
    bil = float(w.coeffs @ assemble_hessian(model, u_star).apply(e.coeffs))
    nw = norms(None, w, include_broken_h2=True)
    ratio = float((nw.l2 + nw.h1_semi + nw.broken_h2) / norms(None, e).l2)
    return analysis.AdjointCheck(abs(l2_exact**2 + bil) / l2_exact**2, l2_exact,
                                 norms(None, e).l2, ratio)


@pytest.mark.parametrize("order", [1, 2])
def test_adjoint_check_assembles_the_hessian_and_takes_the_error_norm_once(
        monkeypatch, order):
    """Over a study, d2J(u*) is assembled once per reference, by the
    hierarchy on its first read, for the cycle, the adjoint solve and the
    bilinear term; while a check runs, the only Hessians assembled are
    d2J(u*) and those of the levels it solves (for m = 1 the P2 references,
    each read by the cycle of the level above).
    It takes the L^2 norm of the error once, for the check and the ratio,
    and is bitwise the two-pass one."""
    log, checks, original = [], [], analysis._adjoint_check
    for name in ("assemble_hessian", "norms"):
        def recording(*args, _name=name, _original=getattr(analysis, name), **kwargs):
            log.append((_name, args, kwargs))
            return _original(*args, **kwargs)

        monkeypatch.setattr(analysis, name, recording)

    def check(*args):
        start, held = len(log), set(args[0].minimizers)
        out = original(*args)
        checks.append((args, out, log[start:], set(args[0].minimizers) - held))
        return out

    monkeypatch.setattr(analysis, "_adjoint_check", check)
    report = convergence_study(build_problem("quartic", 2), order, 3,
                               StudyOptions(coarse_cells=2, diagnostics=("adjoint",)))
    assert report.aborted is None and len(checks) == 3
    assembled = [v for name, (_, v), _ in log if name == "assemble_hessian"]
    for args, out, calls, solved_here in checks:
        hierarchy, level, _, _, levels_finer = args
        u_star, _ = hierarchy.minimizer(level + levels_finer, max(order, 2))
        assert sum(v is u_star for v in assembled) == 1
        assert sorted(id(v) for name, (_, v), _ in calls if name == "assemble_hessian") == \
            sorted({id(u_star)} | {id(hierarchy.minimizers[key][0]) for key in solved_here})
        assert sum(f is None and g.space is u_star.space and not kwargs.get("include_broken_h2")
                   for name, (f, g), kwargs in calls if name == "norms") == 1
        assert out == two_pass_adjoint_check(*args)


@pytest.mark.parametrize("order", [1, 2])
def test_a_study_assembles_one_hessian_per_level_and_every_check_reads_it(
        monkeypatch, order):
    """With the adjoint and ellipticity diagnostics, analysis assembles
    d2J exactly once at each solved (level, order)'s minimizer and at no
    other state; each ellipticity check and each adjoint solve runs on
    the hierarchy's kept Hessian of its level, the very object."""
    calls = {name: [] for name in ("assemble_hessian", "solve_adjoint",
                                   "estimate_ellipticity", "_adjoint_check")}
    for name in calls:
        def recording(*args, _name=name, _original=getattr(analysis, name), **kwargs):
            calls[_name].append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(analysis, name, recording)
    report = convergence_study(build_problem("quartic", 2), order, 3, StudyOptions(
        coarse_cells=2, diagnostics=("adjoint", "ellipticity")))
    assert report.aborted is None
    hierarchy = calls["_adjoint_check"][0][0]
    assert all(args[0] is hierarchy for args in calls["_adjoint_check"])
    minimizers = {key: u for key, (u, _) in hierarchy.minimizers.items()}
    assembled = [v for _, v in calls["assemble_hessian"]]
    assert len(assembled) == len(minimizers) == len(hierarchy.hessians)
    assert all(sum(v is u for v in assembled) == 1 for u in minimizers.values())
    ellipticity = [args[:2] for args in calls["estimate_ellipticity"]]
    solves = [(hess, rhs.space) for hess, rhs, *_ in calls["solve_adjoint"]]
    assert len(ellipticity) == 3
    for level, (hess, v) in enumerate(ellipticity):
        assert v is minimizers[level, order] and hess is hierarchy.hessian(level, order)
    assert len(solves) == 3
    for level, (hess, space) in enumerate(solves):
        key = (level + analysis._ADJOINT_LEVELS_FINER, max(order, 2))
        assert space is hierarchy.spaces[key] and hess is hierarchy.hessian(*key)


def recorded_adjoint_solves(monkeypatch):
    """Patch analysis's `assemble_hessian` and `solve_adjoint` to record,
    per adjoint solve, the state its operator was assembled at and the
    right-hand side; returns the list of (state, rhs)."""
    assembled, solves = [], []
    original_hessian, original_solve = analysis.assemble_hessian, analysis.solve_adjoint

    def hessian(model, v, *args, **kwargs):
        hess = original_hessian(model, v, *args, **kwargs)
        assembled.append((hess, v))
        return hess

    def solve(hess, rhs, *args, **kwargs):
        solves.append((next(v for op, v in assembled if op is hess), rhs))
        return original_solve(hess, rhs, *args, **kwargs)

    monkeypatch.setattr(analysis, "assemble_hessian", hessian)
    monkeypatch.setattr(analysis, "solve_adjoint", solve)
    return solves


def counted_calls(monkeypatch, *names):
    """Patch analysis's bindings of `names` to record every call's result;
    returns {name: [results]}."""
    calls = {name: [] for name in names}
    for name in names:
        def recording(*args, _name=name, _original=getattr(analysis, name), **kwargs):
            out = _original(*args, **kwargs)
            calls[_name].append(out)
            return out

        monkeypatch.setattr(analysis, name, recording)
    return calls


@pytest.mark.parametrize("order", [1, 2])
def test_study_levels_do_not_depend_on_the_adjoint(order):
    """The adjoint's references come from the study's own hierarchy
    without changing a level's solve: every level value is bitwise equal
    with and without the diagnostic."""
    problem = build_problem("quartic", 2)
    plain, with_adjoint = (
        convergence_study(problem, order, 3,
                          StudyOptions(coarse_cells=2, diagnostics=diagnostics))
        for diagnostics in ((), ("adjoint",)))
    assert with_adjoint.aborted is None
    assert len(with_adjoint.diagnostics["adjoint"]) == 3
    assert [(lr.dofs, lr.err_l2, lr.err_h1, lr.newton_iters) for lr in plain.levels] == \
        [(lr.dofs, lr.err_l2, lr.err_h1, lr.newton_iters) for lr in with_adjoint.levels]


def test_adjoint_references_are_later_study_levels(monkeypatch):
    """For m >= 2 the reference of level l is the study's level l+2
    minimizer; only the two levels past the last are solved in addition
    (4 refinements, 5 spaces and 5 Newton solves for 3 levels)."""
    calls = counted_calls(monkeypatch, "refine", "make_space", "minimize")
    adjoint_solves = recorded_adjoint_solves(monkeypatch)
    report = convergence_study(build_problem("quartic", 2), 2, 3,
                               StudyOptions(coarse_cells=2, diagnostics=("adjoint",)))
    assert report.aborted is None
    refs = [u_ref for u_ref, _ in adjoint_solves]
    assert [len(calls[name]) for name in ("refine", "make_space", "minimize")] == [4, 5, 5]
    solutions = [u for u, _ in calls["minimize"]]
    assert [u.space.mesh.level for u in solutions] == [0, 1, 2, 3, 4]
    assert [u.space.dim for u in solutions[:3]] == [lr.dofs for lr in report.levels]
    assert len(refs) == 3
    for level, ref in enumerate(refs):
        assert ref is solutions[level + 2]


def test_order_1_references_form_a_p2_chain(monkeypatch):
    """For m = 1 the P2 references sit on the study's meshes two levels up.
    The hierarchy solves P2 from level 0 up by nested iteration, so the
    first reference's solve is preceded by those of P2 levels 0 and 1."""
    adjoint_solves = recorded_adjoint_solves(monkeypatch)
    report, starts, solutions = recorded_study(
        monkeypatch, build_problem("quartic", 2), 1, 3,
        StudyOptions(coarse_cells=2, diagnostics=("adjoint",)))
    assert report.aborted is None
    refs = [u_ref for u_ref, _ in adjoint_solves]
    p1 = [u for u in solutions if u.space.order == 1]
    p2 = [(start, u) for start, u in zip(starts, solutions) if u.space.order == 2]
    assert [u.space.mesh.level for _, u in p2] == [0, 1, 2, 3, 4]
    assert all(u.space.mesh is v.space.mesh for u, (_, v) in zip(p1, p2))
    assert_nested_iteration(*zip(*p2))
    assert len(refs) == 3 and all(ref is u for ref, (_, u) in zip(refs, p2[2:]))


@pytest.mark.parametrize("name, cap", [
    ("quartic", 20), ("cosine", 20), ("minimal_surface", 40),
])
def test_order_1_adjoint_studies_cycle_every_large_solve(monkeypatch, name, cap):
    """In a P1 adjoint study from 4 cells every solve of 1089 dofs or more
    (the Newton and the adjoint solves on P2 levels 2-4) runs the V-cycle
    and takes at most `cap` CG iterations; Jacobi-PCG took up to 418
    (quartic), 419 (cosine) and 637 (minimal_surface)."""
    solves = counted_solves(monkeypatch)
    report = convergence_study(build_problem(name, 2), 1, 3,
                               StudyOptions(coarse_cells=4, diagnostics=("adjoint",)))
    assert report.aborted is None
    sized = [(preconditioned, iters) for dim, preconditioned, iters in solves
             if dim >= 1089]
    assert len(sized) >= 6
    assert all(preconditioned for preconditioned, _ in sized)
    assert max(iters for _, iters in sized) <= cap, solves


@pytest.mark.parametrize("order", [1, 2])
def test_largest_hierarchy_space_is_the_config_bound(monkeypatch, order):
    calls = counted_calls(monkeypatch, "make_space")
    convergence_study(build_problem("quartic", 2), order, 3,
                      StudyOptions(coarse_cells=2, diagnostics=("adjoint",)))
    assert max(space.dim for space in calls["make_space"]) == \
        analysis._largest_space_dofs(2, order, 3, 2, ("adjoint",))


def fail_minimize_call(monkeypatch, failing):
    """Make analysis's `minimize` raise a NewtonError on call `failing`
    (counted from 0); returns the spaces of the calls."""
    original, count = analysis.minimize, []

    def flaky(model, space, newton, **kwargs):
        count.append(space)
        if len(count) - 1 == failing:
            raise solver.NewtonError("no convergence (forced)")
        return original(model, space, newton, **kwargs)

    monkeypatch.setattr(analysis, "minimize", flaky)
    return count


def test_a_failed_extension_names_the_level_whose_solve_failed(monkeypatch):
    """The adjoint of level 0 solves level 1 (the second Newton solve)
    first; its failure aborts at level 1, and level 0 keeps no adjoint
    entry."""
    fail_minimize_call(monkeypatch, 1)
    report = convergence_study(build_problem("quartic", 2), 2, 3,
                               StudyOptions(coarse_cells=2, diagnostics=("adjoint",)))
    assert report.aborted == "level 1: no convergence (forced)"
    assert report.abort_kind == "solver"
    assert len(report.levels) == 1
    assert report.diagnostics["adjoint"] == []


def test_a_failed_p2_root_aborts_an_order_1_study_at_its_level(monkeypatch):
    """The adjoint of P1 level 0 first solves P2 level 0 (the second Newton
    solve); its failure aborts at level 0, which keeps no adjoint entry."""
    spaces = fail_minimize_call(monkeypatch, 1)
    report = convergence_study(build_problem("quartic", 2), 1, 3,
                               StudyOptions(coarse_cells=2, diagnostics=("adjoint",)))
    assert (spaces[1].mesh.level, spaces[1].order) == (0, 2)
    assert report.aborted == "level 0: no convergence (forced)"
    assert report.abort_kind == "solver"
    assert len(report.levels) == 1
    assert report.diagnostics["adjoint"] == []


def zero_problem():
    """u = 0 for psi = 0, no forcing and zero boundary data on (0,1)^2:
    every discrete minimizer is exactly 0, and so is every error."""
    zero = np.zeros_like
    exact = _exact_by_parts(lambda x: np.zeros(len(x)), zero,
                            lambda x: np.zeros(x.shape + x.shape[-1:]))
    model = dirichlet_potential_model(zero, zero, zero, zero, name="zero")
    return ManufacturedProblem("zero", 2, model, exact, exact.value)


def test_adjoint_check_of_a_zero_error_raises():
    """The identity residual divides by ||u - u_h||^2; at a zero error a
    standalone check ended in a bare ZeroDivisionError."""
    problem = zero_problem()
    u_h, _ = solved(problem, 2, order=2)
    assert norms(problem.exact, u_h).l2 == 0.0
    with pytest.raises(ValueError, match=r"zero L\^2 error"):
        adjoint_identity_check(problem, u_h)


def test_study_adjoint_of_a_zero_error_aborts_as_diagnostic():
    report = convergence_study(zero_problem(), 2, 3,
                               StudyOptions(coarse_cells=2, diagnostics=("adjoint",)))
    assert report.abort_kind == "diagnostic"
    assert report.aborted == "level 0: zero L^2 error"


def test_study_without_two_positive_errors_fits_no_rate():
    """Every level of the zero problem has zero errors: the study warns
    that the rate fits exclude them and leaves both rates None, where it
    raised "fewer than 2 positive errors" after its last level."""
    with pytest.warns(UserWarning, match="excluding non-positive errors"):
        report = convergence_study(zero_problem(), 1, 3, StudyOptions(coarse_cells=2))
    assert report.aborted is None and len(report.levels) == 3
    assert report.rate_l2 is None and report.rate_h1 is None


def test_convergence_study_marks_solver_abort():
    problem = build_problem("quartic", 1)
    opts = StudyOptions(coarse_cells=8, newton=NewtonOptions(max_iters=1))
    report = convergence_study(problem, 1, 3, opts)
    assert report.aborted is not None
    assert report.abort_kind == "solver"
    assert report.rate_l2 is None


def test_convergence_study_aborts_on_lost_coercivity(monkeypatch):
    from nitschelab import analysis as an
    from nitschelab.analysis import EllipticityEstimate

    def fake(model, v, seed=0):
        return EllipticityEstimate(-1.0, 2.0, 1, 1)

    monkeypatch.setattr(an, "estimate_ellipticity", fake)
    problem = build_problem("quartic", 1)
    report = an.convergence_study(problem, 1, 3,
                                  StudyOptions(diagnostics=("ellipticity",)))
    assert report.abort_kind == "ellipticity"
    assert len(report.levels) == 1


def test_convergence_study_validates_inputs():
    problem = build_problem("quartic", 1)
    with pytest.raises(ValueError, match="3 levels"):
        convergence_study(problem, 1, 2)
    with pytest.raises(ValueError, match="order >= 2"):
        convergence_study(problem, 1, 3, StudyOptions(diagnostics=("pq",)))
    with pytest.raises(ValueError, match="unknown diagnostics"):
        StudyOptions(diagnostics=("bogus",))
    with pytest.raises(TypeError):
        convergence_study(problem.model, 1, 3)


# `max_iters` and `levels_finer` go through the same check, pinned by
# test_solver.py and `test_adjoint_identity_check_validates_levels_finer`
COUNT_ARGUMENTS = {
    "samples": lambda problem, u, bad: estimate_pq_constant(problem.model, u, samples=bad),
    "trials": lambda problem, u, bad: check_inverse_estimate(u.space, bad),
    "coarse_cells": lambda problem, u, bad: StudyOptions(coarse_cells=bad),
    "levels": lambda problem, u, bad: convergence_study(problem, 1, bad),
    "order": lambda problem, u, bad: make_space(u.space.mesh, bad),
    "cells_per_side": lambda problem, u, bad: build_unit_mesh(1, bad),
}


@pytest.mark.parametrize("bad", [0, -1, 2.5, True, "3"])
@pytest.mark.parametrize("name", list(COUNT_ARGUMENTS))
def test_counts_must_be_integers_of_at_least_1(name, bad):
    """Every count of an iteration, a sample set, cells, levels or an
    order is checked the same way: samples=True used to be returned as
    the estimate's sample count, samples=2.5 or trials=2.5 to raise a
    TypeError from `range`, and an order or a cell count of 2.5 or True
    to be truncated to an integer."""
    problem = build_problem("quartic", 1)
    u = make_space(build_unit_mesh(1, 4), 2, problem.boundary_fn).zero_function()
    with pytest.raises(ValueError, match=f"{name} must be an integer >= 1, got "):
        COUNT_ARGUMENTS[name](problem, u, bad)


SEED_ARGUMENTS = {
    "ellipticity": lambda problem, u, seed: estimate_ellipticity(
        assemble_hessian(problem.model, u), u, seed=seed),
    "pq": lambda problem, u, seed: estimate_pq_constant(problem.model, u, samples=1, seed=seed),
    "inverse_estimate": lambda problem, u, seed: check_inverse_estimate(u.space, 1, seed=seed),
}


@pytest.mark.parametrize("bad", [-1, 2.5, True])
@pytest.mark.parametrize("name", list(SEED_ARGUMENTS))
def test_seeds_must_be_integers_of_at_least_0(name, bad):
    """As in `StudyOptions`: seed=-1 used to raise numpy's "expected
    non-negative integer", 2.5 a TypeError, and True to run as seed 1."""
    problem = build_problem("quartic", 1)
    u = make_space(build_unit_mesh(1, 4), 2, problem.boundary_fn).zero_function()
    with pytest.raises(ValueError, match=r"seed must be an integer >= 0, got "):
        SEED_ARGUMENTS[name](problem, u, bad)
    SEED_ARGUMENTS[name](problem, u, np.int64(3))


def _no_work(*args, **kwargs):
    raise AssertionError("a mesh, a space or a Newton solve was made before the check")


@pytest.mark.parametrize("make", [
    lambda p: convergence_study(p, 1, 3, StudyOptions(seed=-1, diagnostics=("inverse_estimate",))),
    lambda p: convergence_study(p, 1, 3, StudyOptions(seed=True)),
    lambda p: convergence_study(p, 1, 3.0),
    lambda p: convergence_study(p, 2.0, 3),
    lambda p: convergence_study(p, 4, 3),
    # d=1: 4 * cells * order + 1 dofs after two refinements
    lambda p: convergence_study(p, 1, 3, StudyOptions(coarse_cells=(analysis.MAX_DOFS - 1) // 4 + 1)),
    lambda p: convergence_study(p, 3, 10**6),
    # with the adjoint: the reference two levels finer at order 2
    lambda p: convergence_study(p, 1, 3, StudyOptions(coarse_cells=2**16,
                                                      diagnostics=("adjoint",))),
    # level 0's space is the study's own, so no FEFunction lies on it
    lambda p: convergence_study(p, 1, 3, StudyOptions(coarse_cells=4, newton=NewtonOptions(
        initial=make_space(build_unit_mesh(1, 4), 1, p.boundary_fn).zero_function()))),
], ids=["seed--1", "seed-True", "levels-3.0", "order-2.0", "order-4",
        "too-large", "too-large-levels", "too-large-adjoint", "fefunction-start"])
def test_study_inputs_are_rejected_before_any_work(monkeypatch, make):
    """A study's inputs are checked before any mesh is built or refined,
    any space made or any Newton step taken.  Each of these used to be
    accepted or to fail late: seed=-1 after level 0 was solved, levels=3.0
    with a TypeError from `range`, order=4 in `make_space`, a study
    whose largest space exceeds MAX_DOFS when the CLI did not bound it,
    and an FEFunction start at level 0's Newton solve."""
    problem = build_problem("quartic", 1)
    for name in ("build_unit_mesh", "refine", "make_space", "minimize"):
        monkeypatch.setattr(analysis, name, _no_work)
    with pytest.raises(ValueError):
        make(problem)


def test_stability_monitor_reported():
    problem = build_problem("quartic", 1)
    report = convergence_study(problem, 1, 3, StudyOptions())
    monitors = [lr.stability_w1q for lr in report.levels]
    assert all(np.isfinite(m) and m > 0 for m in monitors)
    assert max(monitors) / min(monitors) - 1 < 0.10
