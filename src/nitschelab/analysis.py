"""Diagnostics for the full error-estimate chain of predominantly
quadratic energies.

The continuous minimizer entering the identities is replaced either by
the manufactured exact solution (norms) or by a nested reference solution
on a finer, possibly higher-order space (orthogonality and adjoint
diagnostics); nestedness makes those identities exact up to solver
tolerances, and the replacement error is itself what the adjoint
identity check measures.

Provided checks
  * coercivity and boundedness constants of the second variation,
    as generalized eigenvalue extremes against the H^1 Gram;
  * the defect in the integrated (nonlinear) Galerkin orthogonality
    between nested discrete minimizers;
  * the linearized adjoint solve with L^2 right-hand side, the duality
    identity residual, and the H^2-regularity ratio of its solution;
  * a sampled lower estimate of the third-variation constant
    |d3J(u)(U,V,V)| <= C ||U||_{W^{2,2}} ||V||_{W^{1,2}} ||V||_{W^{o,r}};
  * manufactured-solution convergence studies with log-log rate fits.
"""

import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.polynomial.legendre import leggauss

from .assembly import (AssemblyError, assemble_gram_h1, assemble_gram_l2,
                       assemble_hessian, apply_third_variation, lq_norm, norms)
from .energy import ManufacturedProblem
from .felement import FEFunction, check_inverse_estimate, interpolate, make_space
from .mesh import build_unit_mesh, refine, width
from .solver import (LinearSolveError, NewtonError, NewtonOptions,
                     embed, embedding_matrix, linear_solve, minimize)

__all__ = [
    "EllipticityEstimate",
    "RateEstimate",
    "PQEstimate",
    "AdjointCheck",
    "StudyOptions",
    "LevelResult",
    "ConvergenceReport",
    "PowerIterationError",
    "estimate_ellipticity",
    "galerkin_defect",
    "solve_adjoint",
    "adjoint_identity_check",
    "h2_regularity_ratio",
    "estimate_pq_constant",
    "estimate_rate",
    "convergence_study",
]


class PowerIterationError(RuntimeError):
    """Raised when an eigenvalue iteration fails to settle."""


class _UndefinedDiagnostic(ValueError):
    """A diagnostic is undefined at its input: a space with no interior
    dofs, or a zero adjoint right-hand side."""


@dataclass(frozen=True)
class EllipticityEstimate:
    """Extremes of d2J(v) against the H^1 Gram on interior dofs, with the
    eigen-solver that found them ("dense" or "lobpcg") and its LOBPCG
    iterations at the lower and the upper end (0 for "dense")."""

    lambda_min: float
    lambda_max: float
    state: str
    solver: str = "dense"
    iters_min: int = 0
    iters_max: int = 0


@dataclass(frozen=True)
class RateEstimate:
    """Least-squares slope of log(error) against log(h)."""

    levels: tuple
    slope: float
    r_squared: float


@dataclass(frozen=True)
class PQEstimate:
    """Sampled lower bound on the third-variation constant C3."""

    samples: int
    max_ratio: float
    norm_pair: tuple


@dataclass(frozen=True)
class AdjointCheck:
    """Duality identity residual and companion quantities."""

    identity_residual: float
    err_l2_exact: float
    err_l2_discrete: float
    regularity_ratio: float


# ---------------------------------------------------------------------------
# ellipticity


def _interior_submatrix(matrix, interior):
    return matrix[interior][:, interior]


_DENSE_EIG_CUTOFF = 400
# LOBPCG iterations preconditioned by the Gram inverse before an end that
# has not converged goes on with the Jacobi preconditioner
_GRAM_PHASE_ITERS = 40
# LOBPCG residual tolerance and iteration budget of each end
_EIG_RTOL = 1e-6
_EIG_MAX_ITERS = 500


def _extreme_generalized(a_mat, g_mat, g_solve, largest, seed):
    """Smallest (largest=False) or largest eigenvalue of the pencil (A, G),
    G SPD, by locally optimal block iteration (LOBPCG), and the number of
    preconditioned iterations it took.

    The first `_GRAM_PHASE_ITERS` iterations are preconditioned by G^-1
    (`g_solve`); if the extreme's residual norm is still above `_EIG_RTOL`
    then (an absolute bound on G-normalized vectors, as in LOBPCG's own
    test), the iteration goes on from the same block with the Jacobi
    preconditioner diag(A)^-1 for the rest of `_EIG_MAX_ITERS`.
    """
    import scipy.sparse.linalg as sla

    n = a_mat.shape[0]
    rng = np.random.default_rng(seed)
    block = min(4, max(1, n // 8))
    x = rng.standard_normal((n, block))
    inv_diag = (1.0 / a_mat.diagonal())[:, None]
    iters = 0

    def counted(apply):
        def precond(r):
            nonlocal iters
            iters += 1
            return apply(r)
        return precond

    phases = ((counted(g_solve), _GRAM_PHASE_ITERS),
              (counted(lambda r: inv_diag * r), _EIG_MAX_ITERS - _GRAM_PHASE_ITERS))
    for precond, budget in phases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            vals, x = sla.lobpcg(a_mat, x, B=g_mat, M=precond, largest=largest,
                                 tol=_EIG_RTOL, maxiter=budget)
        idx = int(np.argmax(vals) if largest else np.argmin(vals))
        lam, vec = float(vals[idx]), x[:, idx]
        gvec = g_mat @ vec
        resid = np.linalg.norm(a_mat @ vec - lam * gvec)
        if resid <= _EIG_RTOL:
            break
    scale = np.linalg.norm(gvec) * max(abs(lam), 1.0)
    if not np.isfinite(lam) or resid > 1e-3 * scale:
        raise PowerIterationError(
            f"eigenvalue iteration stagnated (relative residual {resid / scale:.2e})")
    return lam, iters


def estimate_ellipticity(model, v, seed=0):
    """Coercivity and boundedness constants of the second variation at v.

    Returns the extreme generalized eigenvalues of (d2J(v), G1) on the
    interior dofs, where G1 is the full H^1 Gram.  lambda_min > 0 certifies
    discrete coercivity at the linearization point; lambda_max estimates
    the boundedness constant.

    Small systems are solved densely.  Above `_DENSE_EIG_CUTOFF` interior
    dofs both ends come from LOBPCG on the pencil (d2J(v), G1) itself,
    smallest and largest, with G1 factored once per call (sparse LU) and
    shared by both.  The pencil is never swapped: (G1, d2J(v)) has an
    indefinite inner product exactly when coercivity fails, which is the
    case the check exists to see.  G1^-1 is the natural preconditioner:
    d2J(v) is spectrally close to G1 (for the semilinear models
    d2J(v) = K + psi'' M against G1 = K + M), so the iteration count does
    not grow with the mesh and depends far less on the starting block.
    It cannot separate an extreme in the cluster of high-frequency
    eigenvalues near 1, so an end that has not converged after
    `_GRAM_PHASE_ITERS` iterations goes on from the same block with the
    Jacobi preconditioner diag(d2J(v))^-1, which does.  An end whose
    residual stays above 1e-3 relative raises PowerIterationError.
    """
    space = v.space
    interior = np.flatnonzero(space.interior_mask)
    if not len(interior):
        raise _UndefinedDiagnostic("ellipticity needs interior dofs; the space has none")
    a_mat = _interior_submatrix(assemble_hessian(model, v).matrix,
                                interior).tocsr()
    g_mat = _interior_submatrix(assemble_gram_h1(space).matrix,
                                interior).tocsr()
    state = f"{model.name} at discrete state, {len(interior)} interior dofs"
    if len(interior) <= _DENSE_EIG_CUTOFF:
        import scipy.linalg as la
        ev = la.eigh(a_mat.toarray(), g_mat.toarray(), eigvals_only=True)
        return EllipticityEstimate(float(ev[0]), float(ev[-1]), state)
    import scipy.sparse.linalg as sla
    g_solve = sla.splu(g_mat.tocsc()).solve
    lam_min, iters_min = _extreme_generalized(a_mat, g_mat, g_solve, False, seed)
    lam_max, iters_max = _extreme_generalized(a_mat, g_mat, g_solve, True, seed + 1)
    return EllipticityEstimate(lam_min, lam_max, state, "lobpcg",
                               iters_min, iters_max)


# ---------------------------------------------------------------------------
# integrated Galerkin orthogonality


def galerkin_defect(model, u_fine, u_h, t_quad_order=5):
    """Defect in the integrated first-order conditions between nested levels.

    Tests, against every coarse interior basis function V_h, the t-integral
    of d2J evaluated along the segment from the fine solution to the
    embedded coarse one, applied to (V_h, u_h - u_fine).  For discrete
    minimizers on nested spaces the value is zero up to solver tolerances;
    the t-rule (Gauss, `t_quad_order` points) is exact whenever the density
    is polynomial in the state and far below solver noise otherwise.
    """
    coarse, fine = u_h.space, u_fine.space
    if fine.mesh.parent is not coarse.mesh or fine.order != coarse.order:
        raise ValueError("galerkin_defect needs the fine solution on the "
                         "once-refined mesh with the same order")
    if t_quad_order < 1:
        raise ValueError("t_quad_order must be >= 1")
    prolongation = embedding_matrix(coarse, fine)
    pu = prolongation @ u_h.coeffs
    diff = pu - u_fine.coeffs
    diff[fine.boundary_dofs] = 0.0

    tg, tw = leggauss(t_quad_order)
    tg, tw = 0.5 * (tg + 1.0), 0.5 * tw
    y = np.zeros(fine.dim)
    for t, w in zip(tg, tw):
        gamma = FEFunction(fine, (1.0 - t) * u_fine.coeffs + t * pu)
        y += w * assemble_hessian(model, gamma).apply(diff)
    defect = prolongation.T @ y
    defect[coarse.boundary_dofs] = 0.0
    return float(np.abs(defect).max())


# ---------------------------------------------------------------------------
# adjoint problem and regularity


def solve_adjoint(model, u_ref, rhs_diff, linear_tol=1e-12):
    """Solve d2J(u_ref)(W, .) = -(., rhs_diff)_{L^2} on the reference space.

    The reference order must be at least 2 so the solution supports the
    broken-H^2 diagnostics downstream.  W carries zero boundary values.
    """
    space = u_ref.space
    if space.order < 2:
        raise ValueError("adjoint solves need a reference space of order >= 2")
    if rhs_diff.space is not space:
        raise ValueError("rhs_diff must live on the reference space")
    hess = assemble_hessian(model, u_ref)
    b = -assemble_gram_l2(space).apply(rhs_diff.coeffs)
    b[space.boundary_dofs] = 0.0
    w = linear_solve(hess, b, tol=linear_tol)
    return FEFunction(space, w)


def h2_regularity_ratio(w, rhs_diff):
    """(||W||_{L^2} + |W|_{H^1} + broken H^2 of W) / ||rhs||_{L^2}.

    A level-stable ratio under reference refinement is the empirical
    signature of H^2 regularity of the adjoint problem.
    """
    if w.space.order < 2:
        raise ValueError("H^2 ratio needs order >= 2")
    denom = norms(None, rhs_diff).l2
    if denom == 0.0:
        raise _UndefinedDiagnostic("zero right-hand side")
    nw = norms(None, w, include_broken_h2=True)
    return (nw.l2 + nw.h1_semi + nw.broken_h2) / denom


def _reference_solution(problem, u_h, levels_finer, newton):
    """Discrete stand-in for the continuous minimizer: `levels_finer`
    refinements, order max(m, 2), warm-started from the given solution.
    Returns it and the embedding of u_h into its space."""
    mesh = u_h.space.mesh
    for _ in range(levels_finer):
        mesh = refine(mesh)
    ref_space = make_space(mesh, max(u_h.space.order, 2), problem.boundary_fn)
    u_embedded = embed(u_h, ref_space)
    u_star, _ = minimize(problem.model, ref_space, replace(newton, initial=u_embedded))
    return u_star, u_embedded


def adjoint_identity_check(problem, u_h, levels_finer=2, newton=None):
    """Duality identity residual |e_L2^2 + d2J(u)(W, u_h - u)| / e_L2^2.

    The continuous solution is replaced by a nested reference solution;
    W solves the adjoint problem there (to `newton.linear_tol`).  The
    squared discrete difference then cancels the bilinear term exactly up
    to linear-solver noise, so the residual measures how well the
    reference pair reproduces the true L^2 error, and tends to zero under
    reference refinement.  Also returns the H^2-regularity ratio of W.
    """
    newton = newton or NewtonOptions()
    u_star, u_embedded = _reference_solution(problem, u_h, levels_finer, newton)
    ref_space = u_star.space
    e = u_embedded.coeffs - u_star.coeffs
    e[ref_space.boundary_dofs] = 0.0
    e_fe = FEFunction(ref_space, e)

    w = solve_adjoint(problem.model, u_star, e_fe, linear_tol=newton.linear_tol)
    hess = assemble_hessian(problem.model, u_star)
    bil = float(w.coeffs @ hess.apply(e_fe.coeffs))

    l2_exact = norms(problem.exact, u_h).l2
    l2_disc = norms(None, e_fe).l2
    residual = abs(l2_exact**2 + bil) / l2_exact**2
    ratio = h2_regularity_ratio(w, e_fe)
    return AdjointCheck(residual, l2_exact, l2_disc, ratio)


# ---------------------------------------------------------------------------
# predominant quadraticity


def _random_smooth(space, rng, modes=3):
    """Interpolant of a random low-frequency sine combination."""
    dim = space.mesh.dim
    if dim == 1:
        coeff = rng.standard_normal(modes)

        def fn(x):
            return sum(c * np.sin((k + 1) * np.pi * x[:, 0])
                       for k, c in enumerate(coeff))
    else:
        kmax = 2
        coeff = rng.standard_normal((kmax, kmax))

        def fn(x):
            total = np.zeros(len(x))
            for i in range(kmax):
                for j in range(kmax):
                    total += coeff[i, j] * (np.sin((i + 1) * np.pi * x[:, 0])
                                            * np.sin((j + 1) * np.pi * x[:, 1]))
            return total

    return interpolate(space, fn)


def _random_rough(space, rng):
    """White-noise coefficients with zero boundary trace."""
    coeffs = rng.standard_normal(space.dim)
    coeffs[space.boundary_dofs] = 0.0
    return FEFunction(space, coeffs)


def _directional_norm(v, norm_pair, h1):
    """||v||_{W^{o,r}}; `h1` is ||v||_{W^{1,2}}, already at hand."""
    o, r = norm_pair
    if o == 1:
        if r != 2:
            raise ValueError("first-order directional norm supports r=2 only")
        return h1
    if o == 0:
        if not np.isfinite(r):
            return norms(None, v, q=np.inf).w1q
        return lq_norm(v, r)
    raise ValueError(f"unsupported norm pair {norm_pair}")


def estimate_pq_constant(model, u, norm_pair=(1, 2), samples=8, seed=0):
    """Sampled third-variation ratio against the mixed-norm product.

    Draws smooth low-frequency test functions U and two populations of
    directions V (smooth, and rough white-noise coefficients), and returns
    the largest observed |d3J(u)(U,V,V)| / (||U||_{W^{2,2}} ||V||_{W^{1,2}}
    ||V||_{W^{o,r}}).  Sampling only ever gives a lower bound on the
    constant; level stability of the maximum is the quantity of interest.
    """
    space = u.space
    if space.order < 2:
        raise ValueError("the W^{2,2} factor needs order >= 2 for a "
                         "non-degenerate broken H^2 norm")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    max_ratio = 0.0
    for k in range(samples):
        # per-sample seed streams keep the smooth draws identical across
        # levels, so the sampled maxima are comparable under refinement
        fu = _random_smooth(space, np.random.default_rng((seed, k, 0)))
        nu = norms(None, fu, include_broken_h2=True)
        u_w22 = np.sqrt(nu.l2**2 + nu.h1_semi**2 + nu.broken_h2**2)
        for fv in (_random_smooth(space, np.random.default_rng((seed, k, 1))),
                   _random_rough(space, np.random.default_rng((seed, k, 2)))):
            value = abs(apply_third_variation(model, u, fu, fv, fv))
            v_h1 = norms(None, fv).h1
            denom = u_w22 * v_h1 * _directional_norm(fv, norm_pair, v_h1)
            if denom > 0:
                max_ratio = max(max_ratio, value / denom)
    return PQEstimate(samples, float(max_ratio), tuple(norm_pair))


# ---------------------------------------------------------------------------
# rates and studies


def estimate_rate(pairs):
    """Fit log(error) = slope * log(h) + c by least squares.

    Non-positive errors (at or below the solver floor) are excluded with a
    warning; widths that are not positive and finite, or duplicated, and
    errors that are not finite violate the precondition.
    """
    pairs = [(float(h), float(e)) for h, e in pairs]
    if len(pairs) < 3:
        raise ValueError("rate estimation needs at least 3 (h, error) pairs")
    hs = [h for h, _ in pairs]
    if not all(0 < h < np.inf for h in hs):
        raise ValueError("mesh widths must be positive and finite")
    if len(set(hs)) != len(hs):
        raise ValueError("duplicate mesh widths in rate data")
    if not all(np.isfinite(e) for _, e in pairs):
        raise ValueError("errors must be finite")
    kept = [(h, e) for h, e in pairs if e > 0]
    if len(kept) < len(pairs):
        warnings.warn("excluding non-positive errors from the rate fit "
                      "(at or below solver tolerance)", stacklevel=2)
    if len(kept) < 2:
        raise ValueError("fewer than 2 positive errors; cannot fit a rate")
    x = np.log([h for h, _ in kept])
    y = np.log([e for _, e in kept])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateEstimate(tuple(kept), float(slope), float(r2))


# names of the values a study records per level for each diagnostic
DIAGNOSTIC_COLUMNS = {
    "galerkin": ("galerkin_defect",),
    "adjoint": ("adjoint_identity", "h2_ratio"),
    "pq": ("pq_ratio",),
    "ellipticity": ("lambda_min", "lambda_max"),
    "inverse_estimate": ("inverse_ratio",),
}
DIAGNOSTIC_NAMES = tuple(DIAGNOSTIC_COLUMNS)

# fixed sizes of the per-level diagnostics in a study
_PQ_SAMPLES = 4
_INVERSE_TRIALS = 10
_ADJOINT_LEVELS_FINER = 2


@dataclass
class StudyOptions:
    coarse_cells: int = 8
    newton: NewtonOptions = field(default_factory=NewtonOptions)
    diagnostics: tuple = ()
    seed: int = 0
    continuation: bool = False

    def __post_init__(self):
        unknown = set(self.diagnostics) - set(DIAGNOSTIC_NAMES)
        if unknown:
            raise ValueError(f"unknown diagnostics {sorted(unknown)}")


@dataclass
class LevelResult:
    level: int
    h: float
    dofs: int
    err_l2: float
    err_h1: float
    newton_iters: int
    stability_w1q: float


@dataclass
class ConvergenceReport:
    problem: str
    dim: int
    order: int
    levels: list
    rate_l2: RateEstimate | None
    rate_h1: RateEstimate | None
    diagnostics: dict
    aborted: str | None = None
    abort_kind: str | None = None


def convergence_study(problem, order, levels, opts=None):
    """Solve the manufactured problem on a nested mesh hierarchy and fit
    error rates; optional per-level diagnostics as configured.

    A library failure in a level's solve or diagnostics (Newton, CG,
    assembly or eigenvalue iteration) aborts the remaining levels and
    marks the report with abort_kind "solver"; with the ellipticity
    diagnostic enabled, a non-coercive second variation at a converged
    state aborts with abort_kind "ellipticity", and a diagnostic that is
    undefined at a level with abort_kind "diagnostic".  The Galerkin defect
    between levels l-1 and l is taken as soon as level l is solved.
    """
    if not isinstance(problem, ManufacturedProblem):
        raise TypeError("convergence_study needs a ManufacturedProblem")
    if levels < 3:
        raise ValueError("a study needs at least 3 levels")
    opts = opts or StudyOptions()
    if "pq" in opts.diagnostics and order < 2:
        raise ValueError("the pq diagnostic needs order >= 2")

    report = ConvergenceReport(problem.name, problem.dim, order, [],
                               None, None, {name: [] for name in opts.diagnostics})
    solutions = []
    mesh = build_unit_mesh(problem.dim, opts.coarse_cells)
    try:
        for level in range(levels):
            if level > 0:
                mesh = refine(mesh)
            space = make_space(mesh, order, problem.boundary_fn)
            newton = opts.newton
            if opts.continuation and solutions:
                newton = replace(newton, initial=solutions[-1])
            u_h, log = minimize(problem.model, space, newton)

            err_rep = norms(problem.exact, u_h)
            monitor = norms(None, u_h, q=4).w1q
            report.levels.append(LevelResult(
                level, width(mesh), space.dim, err_rep.l2, err_rep.h1,
                len(log.iterations) - 1, monitor))
            solutions.append(u_h)

            if "galerkin" in opts.diagnostics and level > 0:
                defect = galerkin_defect(problem.model, u_h, solutions[-2])
                report.diagnostics["galerkin"].append((level - 1, defect))
            if "ellipticity" in opts.diagnostics:
                est = estimate_ellipticity(problem.model, u_h, seed=opts.seed + level)
                report.diagnostics["ellipticity"].append(
                    (level, est.lambda_min, est.lambda_max))
                if est.lambda_min <= 0:
                    report.aborted = (f"level {level}: second variation not coercive "
                                      f"(lambda_min={est.lambda_min:.3e})")
                    report.abort_kind = "ellipticity"
                    break
            if "inverse_estimate" in opts.diagnostics:
                ratio = check_inverse_estimate(space, _INVERSE_TRIALS,
                                               seed=opts.seed + level)
                report.diagnostics["inverse_estimate"].append((level, ratio))
            if "pq" in opts.diagnostics:
                est = estimate_pq_constant(problem.model, u_h,
                                           samples=_PQ_SAMPLES, seed=opts.seed)
                report.diagnostics["pq"].append((level, est.max_ratio))
            if "adjoint" in opts.diagnostics:
                check = adjoint_identity_check(problem, u_h,
                                               levels_finer=_ADJOINT_LEVELS_FINER,
                                               newton=opts.newton)
                report.diagnostics["adjoint"].append(
                    (level, check.identity_residual, check.regularity_ratio))
    except (NewtonError, LinearSolveError, AssemblyError, PowerIterationError) as err:
        report.aborted = f"level {level}: {err}"
        report.abort_kind = "solver"
    except _UndefinedDiagnostic as err:
        report.aborted = f"level {level}: {err}"
        report.abort_kind = "diagnostic"

    if len(report.levels) >= 3:
        data = [(lr.h, lr.err_l2) for lr in report.levels]
        report.rate_l2 = estimate_rate(data)
        report.rate_h1 = estimate_rate([(lr.h, lr.err_h1) for lr in report.levels])
    return report
