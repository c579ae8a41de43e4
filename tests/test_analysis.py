import numpy as np
import pytest

from nitschelab import analysis, solver
from nitschelab.analysis import (adjoint_identity_check, convergence_study,
                                 estimate_ellipticity, estimate_pq_constant,
                                 estimate_rate, galerkin_defect,
                                 h2_regularity_ratio, solve_adjoint,
                                 StudyOptions)
from nitschelab.assembly import assemble_gram_h1, assemble_hessian, norms
from nitschelab.energy import (PROBLEM_NAMES, ExactSolution, build_problem,
                               dirichlet_potential_model)
from nitschelab.felement import FEFunction, interpolate, make_space
from nitschelab.mesh import build_unit_mesh, refine
from nitschelab.solver import NewtonOptions, minimize


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
    est = estimate_ellipticity(problem.model, u)
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
        est = estimate_ellipticity(problem.model, u)
        mins.append(est.lambda_min)
        maxs.append(est.lambda_max)
    assert max(mins) / min(mins) - 1 < 0.05
    assert max(maxs) / min(maxs) - 1 < 0.10


def test_ellipticity_quartic_at_zero_matches_linear():
    lin = build_problem("linear", 1)
    quart = build_problem("quartic", 1)
    space = make_space(build_unit_mesh(1, 32), 1, 0.0)
    zero = space.zero_function()
    e1 = estimate_ellipticity(lin.model, zero)
    e2 = estimate_ellipticity(quart.model, zero)
    assert abs(e1.lambda_min - e2.lambda_min) < 1e-10
    assert abs(e1.lambda_max - e2.lambda_max) < 1e-10


def test_ellipticity_iterative_matches_dense_cutover():
    """Above the dense cutover the LOBPCG path must agree with a dense
    reference computed here."""
    import scipy.linalg as la
    from nitschelab.assembly import assemble_gram_h1, assemble_hessian
    problem = build_problem("quartic", 2)
    u, _ = solved(problem, 24, order=1)
    est = estimate_ellipticity(problem.model, u)
    space = u.space
    idx = np.flatnonzero(space.interior_mask)
    assert len(idx) > 400  # exercises the iterative path
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
    est = estimate_ellipticity(model, u)
    assert est.solver == "lobpcg"   # above the dense cutover
    lam_min, lam_max = dense_extremes(model, u)
    assert est.lambda_min == pytest.approx(lam_min, rel=1e-6)
    assert est.lambda_max == pytest.approx(lam_max, rel=1e-6)
    return est


@pytest.mark.parametrize("name", ["quartic", "cosine"])
def test_ellipticity_matches_dense_in_1d_above_cutover(name):
    """In d=1 the spectrum accumulates at 1 and the residuals of
    G-normalized vectors are small, so LOBPCG's absolute residual test
    can be met inside the cluster; the extremes must still be found."""
    problem = build_problem(name, 1)
    u, _ = solved(problem, 512, order=2)
    assert_matches_dense(problem.model, u)


def test_ellipticity_sees_a_non_coercive_second_variation():
    """psi = -15 z^2 at the zero state: d2J = K - 30 M has a negative
    lower end, which must be found and not mistaken for coercivity."""
    model = dirichlet_potential_model(lambda z: -15.0 * z * z, lambda z: -30.0 * z,
                                      lambda z: np.full_like(z, -30.0),
                                      lambda z: np.zeros_like(z), name="concave")
    space = make_space(build_unit_mesh(1, 256), 2, 0.0)
    est = assert_matches_dense(model, space.zero_function())
    assert est.lambda_min < 0


@pytest.mark.parametrize("order,cells", [(1, 22), (2, 11), (3, 8)])
@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_ellipticity_matches_dense_just_above_cutover_2d(name, order, cells):
    problem = build_problem(name, 2)
    u, _ = solved(problem, cells, order=order)
    assert_matches_dense(problem.model, u)


def test_ellipticity_records_the_solver():
    problem = build_problem("quartic", 2)
    small = estimate_ellipticity(problem.model, solved(problem, 8, order=2)[0])
    assert (small.solver, small.iters_min, small.iters_max) == ("dense", 0, 0)
    large = estimate_ellipticity(problem.model, solved(problem, 16, order=2)[0])
    assert large.solver == "lobpcg"
    assert 0 < large.iters_min <= 500 and 0 < large.iters_max <= 500


def test_ellipticity_lobpcg_iterations_do_not_grow_with_refinement():
    """Gram-preconditioned LOBPCG needs a mesh-independent number of
    iterations; summed over starting blocks and both ends, the finer
    level of a nested pair takes no more than the coarser one."""
    problem = build_problem("quartic", 2)
    mesh = build_unit_mesh(2, 16)
    totals = []
    for m in (mesh, refine(mesh)):
        u, _ = minimize(problem.model, make_space(m, 2, problem.boundary_fn))
        ests = [estimate_ellipticity(problem.model, u, seed=s) for s in range(8)]
        totals.append(sum(e.iters_min + e.iters_max for e in ests))
    assert totals[1] <= totals[0]


# ---------------------------------------------------------------------------
# integrated Galerkin orthogonality


def test_galerkin_defect_quadratic_energy_any_t_order():
    problem = build_problem("linear", 1)
    uc, uf = solved_pair(problem, 16)
    for t_order in (1, 2, 5):
        assert galerkin_defect(problem.model, uf, uc, t_quad_order=t_order) < 1e-10


def test_galerkin_defect_quartic_t_rule_exactness():
    """The segment Hessian is quadratic in t for the quartic potential, so
    2-point Gauss already integrates it exactly."""
    problem = build_problem("quartic", 1)
    uc, uf = solved_pair(problem, 16)
    d2 = galerkin_defect(problem.model, uf, uc, t_quad_order=2)
    d5 = galerkin_defect(problem.model, uf, uc, t_quad_order=5)
    assert abs(d2 - d5) < 1e-13
    assert d2 < 2e-10


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
    w = solve_adjoint(problem.model, u, u.space.zero_function())
    assert np.abs(w.coeffs).max() == 0.0


def test_solve_adjoint_requires_order_2():
    problem = build_problem("linear", 1)
    u, _ = solved(problem, 16, order=1)
    with pytest.raises(ValueError, match="order >= 2"):
        solve_adjoint(problem.model, u, u.space.zero_function())


def test_solve_adjoint_closed_form_ode():
    """psi = 0, rhs = sin(pi x): the adjoint solves -W'' = -sin(pi x), so
    W = -sin(pi x)/pi^2; discrete error shrinks under refinement."""
    problem = build_problem("linear", 1)
    target = ExactSolution(
        lambda x: -np.sin(np.pi * x[:, 0]) / np.pi**2,
        lambda x: (-np.cos(np.pi * x[:, 0]) / np.pi)[:, None],
        lambda x: np.sin(np.pi * x[:, 0])[:, None, None] * np.ones((1, 1, 1)))
    errs = []
    for cells in (8, 16):
        u, _ = solved(problem, cells, order=2)
        rhs = interpolate(u.space, lambda x: np.sin(np.pi * x[:, 0]))
        rhs.coeffs[u.space.boundary_dofs] = 0.0
        w = solve_adjoint(problem.model, u, rhs)
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
    """The reference solve starts from the embedding of u_h, and the
    check's error term is that same embedding; the adjoint solve runs to
    the linear tolerance of the Newton options."""
    problem = build_problem("quartic", 1)
    u, _ = solved(problem, 8)
    calls, tols = [], []
    original_matrix, original_solve = solver.embedding_matrix, analysis.linear_solve

    def counting(src, dst):
        calls.append((src, dst))
        return original_matrix(src, dst)

    def recording(op, b, tol):
        tols.append(tol)
        return original_solve(op, b, tol=tol)

    monkeypatch.setattr(solver, "embedding_matrix", counting)
    monkeypatch.setattr(analysis, "embedding_matrix", counting)
    monkeypatch.setattr(analysis, "linear_solve", recording)
    check = adjoint_identity_check(problem, u, newton=NewtonOptions(linear_tol=1e-11))
    assert len(calls) == 1 and calls[0][0] is u.space
    assert tols == [1e-11]
    assert check.identity_residual < 0.05


def test_h2_ratio_scaling_invariance():
    problem = build_problem("linear", 1)
    u, _ = solved(problem, 32, order=2)
    rhs = interpolate(u.space, lambda x: np.sin(np.pi * x[:, 0]))
    rhs.coeffs[u.space.boundary_dofs] = 0.0
    w1 = solve_adjoint(problem.model, u, rhs)
    r1 = h2_regularity_ratio(w1, rhs)
    rhs10 = FEFunction(u.space, 10.0 * rhs.coeffs)
    w10 = solve_adjoint(problem.model, u, rhs10)
    r10 = h2_regularity_ratio(w10, rhs10)
    assert abs(r1 - r10) < 1e-12


def test_h2_ratio_validates_input():
    problem = build_problem("linear", 1)
    u, _ = solved(problem, 16, order=2)
    with pytest.raises(ValueError, match="zero right-hand side"):
        h2_regularity_ratio(u, u.space.zero_function())


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


def test_convergence_study_continuation():
    problem = build_problem("minimal_surface", 1)
    report = convergence_study(problem, 1, 3,
                               StudyOptions(coarse_cells=8, continuation=True))
    assert report.aborted is None
    assert all(lr.newton_iters <= 8 for lr in report.levels)


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

    def fake(model, v, seed=0, rtol=1e-6, max_iters=500):
        return EllipticityEstimate(-1.0, 2.0, "forced")

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


def test_stability_monitor_reported():
    problem = build_problem("quartic", 1)
    report = convergence_study(problem, 1, 3, StudyOptions())
    monitors = [lr.stability_w1q for lr in report.levels]
    assert all(np.isfinite(m) and m > 0 for m in monitors)
    assert max(monitors) / min(monitors) - 1 < 0.10
