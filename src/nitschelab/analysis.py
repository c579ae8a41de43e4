"""Diagnostics for the full error-estimate chain of predominantly
quadratic energies.

The continuous minimizer entering the identities is replaced either by
the manufactured exact solution (norms) or by a nested discrete
minimizer on a finer, possibly higher-order space (orthogonality and
adjoint diagnostics); nestedness makes those identities exact up to
solver tolerances, and the replacement error is itself what the adjoint
identity check measures.  A study's levels, Galerkin pairs and adjoint
references all read one `_Hierarchy` of meshes, spaces, prolongations
and minimizers, each level solved from the one below, prolonged.  The
reference of level l is the hierarchy's level l+2 at order max(m, 2).
The hierarchy also keeps d2J at each level's minimizer, which the checks
read, and one preconditioner cycle per level bound to it: the root's
solve, or one V-cycle level on top of the cycle below.  Every Newton
solve above the root and every adjoint solve runs the cycle.

Provided checks
  * coercivity and boundedness constants of the second variation,
    as generalized eigenvalue extremes against the H^1 Gram;
  * the defect in the integrated (nonlinear) Galerkin orthogonality
    between nested minimizers, as a difference of two residuals;
  * the linearized adjoint solve with L^2 right-hand side, the duality
    identity residual, and the H^2-regularity ratio of its solution;
  * a sampled lower estimate of the third-variation constant
    |d3J(u)(U,V,V)| <= C ||U||_{W^{2,2}} ||V||_{W^{1,2}} ||V||_{W^{o,r}};
  * manufactured-solution convergence studies with log-log rate fits.
"""

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .assembly import (AssemblyError, _is_number, _matvec, assemble_gram_h1, assemble_gram_l2,
                       assemble_hessian, assemble_residual, apply_third_variation,
                       lq_norm, norms)
from .energy import ManufacturedProblem
from .felement import (FEFunction, _chunks, check_inverse_estimate, interpolate,
                       make_space, reference_basis, sample_lattice, tabulate)
from .mesh import _check_count, build_unit_mesh, refine, width
from .solver import (LinearSolveError, NewtonError, NewtonOptions, _level_cycle,
                     _root_solve, embed, embedding_matrix, linear_solve, minimize)

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
    dofs, a zero adjoint right-hand side or L^2 error, or a rate fit with
    fewer than 2 positive errors."""


@dataclass(frozen=True)
class EllipticityEstimate:
    """Extremes of d2J(v) against the H^1 Gram on interior dofs, with the
    Lanczos steps run when the lower and the upper end passed their
    residual test."""

    lambda_min: float
    lambda_max: float
    iters_min: int
    iters_max: int


@dataclass(frozen=True)
class RateEstimate:
    """Least-squares slope of log(error) against log(h)."""

    levels: tuple
    slope: float
    r_squared: float


@dataclass(frozen=True)
class PQEstimate:
    """Sampled lower bound on the third-variation constant C3."""

    max_ratio: float


@dataclass(frozen=True)
class AdjointCheck:
    """Duality identity residual and companion quantities."""

    identity_residual: float
    err_l2_exact: float
    err_l2_discrete: float
    regularity_ratio: float


# ---------------------------------------------------------------------------
# ellipticity


# steps of the Lanczos run that serves both ends, one G solve each, and the
# budget of each end: an end that has not passed the residual test by the
# last step raises PowerIterationError
_LANCZOS_STEPS = 500
# steps between residual tests of the ends; a test solves a tridiagonal
# eigenproblem per end, which costs about as much as a step
_LANCZOS_TEST_EVERY = 4
# absolute residual tolerance of a G-normalized Ritz vector
_EIG_RTOL = 1e-6


def _lanczos_extremes(a_mat, g_mat, g_solve, seed):
    """Both extremes of the pencil (A, G), G SPD, from one Lanczos run on
    G^-1 A, which is self-adjoint in the G inner product.  Each step
    applies A and `g_solve` once, and after the three-term recurrence
    G-orthogonalizes against every earlier Lanczos vector.

    An end is done at the first test at which its extreme Ritz pair
    (theta, y), y G-normalized, passes ||A y - theta G y|| <= `_EIG_RTOL`.
    The run takes at most min(`_LANCZOS_STEPS`, n) steps for n unknowns
    and tests both ends at the last: after n steps the Krylov space is the
    whole space, and with full reorthogonalization the tridiagonal holds
    the pencil's whole spectrum.  Returns, for the lower and then the
    upper end, (theta, steps): the end's extreme Ritz value and the steps
    run when it passed.  Raises PowerIterationError when an end has not
    passed by the last step.
    """
    import scipy.linalg as la

    n = a_mat.shape[0]
    steps = min(_LANCZOS_STEPS, n)
    basis = np.empty((steps, n))
    alpha, beta = np.empty(steps), np.empty(steps)
    q = np.random.default_rng(seed).standard_normal(n)
    q /= math.sqrt(q @ _matvec(g_mat, q))
    done = [False, False]
    ritz = [None, None]   # per end: theta and the steps run
    for j in range(steps):
        basis[j] = q
        krylov = basis[:j + 1]
        aq = _matvec(a_mat, q)
        alpha[j] = q @ aq
        w = g_solve(aq) - alpha[j] * q
        if j:
            w -= beta[j - 1] * basis[j - 1]
        w -= (krylov @ _matvec(g_mat, w)) @ krylov
        gw = _matvec(g_mat, w)
        beta[j] = math.sqrt(max(w @ gw, 0.0))
        if (j + 1) % _LANCZOS_TEST_EVERY == 0 or j + 1 == steps or beta[j] == 0.0:
            # A y - theta G y = s[-1] G w for every Ritz pair (theta, y = Q s)
            gw_norm = np.linalg.norm(gw)
            for end, k in enumerate((0, j)):
                if done[end]:
                    continue
                theta, s = la.eigh_tridiagonal(alpha[:j + 1], beta[:j], select="i",
                                               select_range=(k, k))
                ritz[end] = (float(theta[0]), j + 1)
                if abs(s[-1, 0]) * gw_norm <= _EIG_RTOL:
                    y = s[:, 0] @ krylov
                    res = _matvec(a_mat, y) - theta[0] * _matvec(g_mat, y)
                    done[end] = np.linalg.norm(res) <= _EIG_RTOL
            if all(done) or beta[j] == 0.0:
                break
        q = w / beta[j]
    if not all(done):
        ends = " and ".join(e for e, ok in zip(("lower", "upper"), done) if not ok)
        raise PowerIterationError(f"eigenvalue iteration did not settle: {ends} end above "
                                  f"the residual tolerance after {j + 1} Lanczos steps")
    return ritz


def estimate_ellipticity(hess, v, seed=0):
    """Coercivity and boundedness constants of the second variation at v.

    Returns the extreme generalized eigenvalues of (d2J(v), G1) on the
    interior dofs, `hess` = assemble_hessian(model, v) of v's space's
    size and G1 the full H^1 Gram.  lambda_min > 0 certifies discrete
    coercivity at the linearization point; lambda_max estimates the
    boundedness constant.

    Both ends come from one Lanczos run on the pencil (d2J(v), G1) itself,
    in the G1 inner product, with G1 factored once per call (sparse LU)
    and the run started from a random vector drawn from `seed`, an integer
    >= 0.  The pencil is never swapped: (G1, d2J(v)) has an indefinite
    inner product exactly when coercivity fails, which is the case the
    check exists to see.  G1^-1 d2J(v) is the natural operator: d2J(v) is
    spectrally close to G1 (for the semilinear models d2J(v) = K + psi'' M
    against G1 = K + M), so an extreme away from 1 converges in a number
    of steps that does not grow with the mesh.  Each end stops on its own,
    at the first test with ||d2J(v) y - theta G1 y|| <= `_EIG_RTOL` for
    G1-normalized y.  An extreme where the spectrum accumulates (at 1, or
    at an end of the range of a variable coefficient) takes more steps, up
    to min(`_LANCZOS_STEPS`, n) on n interior dofs, where at n both ends
    are exact up to rounding; an end that has not passed by then raises
    PowerIterationError.
    """
    _check_count("seed", seed, lowest=0)
    if hess.dim != v.space.dim:
        raise ValueError(f"hess has size {hess.dim}; v's space has {v.space.dim} dofs")
    interior = np.flatnonzero(v.space.interior_mask)
    if not len(interior):
        raise _UndefinedDiagnostic("ellipticity needs interior dofs; the space has none")
    import scipy.sparse.linalg as sla
    a_mat = hess.matrix[interior][:, interior].tocsr()
    g_mat = assemble_gram_h1(v.space).matrix[interior][:, interior].tocsr()
    g_solve = sla.splu(g_mat.tocsc()).solve
    (lam_min, iters_min), (lam_max, iters_max) = _lanczos_extremes(a_mat, g_mat, g_solve, seed)
    return EllipticityEstimate(lam_min, lam_max, iters_min, iters_max)


# ---------------------------------------------------------------------------
# level hierarchy


@dataclass
class _Hierarchy:
    """Nested meshes refined from `meshes[0]`; per (level, order) the
    space, the minimizer with its Newton count, d2J at the minimizer and
    the level's cycle, made on first use and kept.  Level 0 starts from
    `newton.initial`, every level above from the minimizer below,
    prolonged (nested iteration; the prolongation is kept).

    d2J at the minimizer, `hessian(level, order)`, is assembled on first
    read, by the level's checks or its cycle, `cycle(level, order)`, bound
    on first read too, which maps a residual r to its preconditioned z:
    on level 0, the root, `solver._root_solve`, exact by a dense inverse
    or Jacobi by the diagonal, picked by the root's size; above it,
    `solver._level_cycle`, one V-cycle level with the Hessian on top of
    the cycle below, through the kept prolongation.  A level l >= 1
    passes the same binding to `minimize` as `preconditioner_for`, so it
    reads the cycle of level l-1, and each of its Newton steps is
    preconditioned by the binding of its own Hessian.  An adjoint solve
    on a level runs the level's cycle.  The root's Newton solves stay
    Jacobi-preconditioned.
    """

    problem: ManufacturedProblem
    newton: NewtonOptions
    meshes: list
    spaces: dict = field(default_factory=dict)
    prolongations: dict = field(default_factory=dict)
    minimizers: dict = field(default_factory=dict)
    hessians: dict = field(default_factory=dict)
    cycles: dict = field(default_factory=dict)

    def space(self, level, order):
        while len(self.meshes) <= level:
            self.meshes.append(refine(self.meshes[-1]))
        if (level, order) not in self.spaces:
            self.spaces[level, order] = make_space(self.meshes[level], order,
                                                   self.problem.boundary_fn)
        return self.spaces[level, order]

    def minimizer(self, level, order):
        if (level, order) not in self.minimizers:
            space, newton, bind = self.space(level, order), self.newton, None
            if level:
                coarse, _ = self.minimizer(level - 1, order)
                prolongation = embedding_matrix(coarse.space, space)
                self.prolongations[level, order] = prolongation
                newton = replace(newton, initial=FEFunction(space, prolongation @ coarse.coeffs))
                bind = self._binding(level, order)
            u, log = minimize(self.problem.model, space, newton, preconditioner_for=bind)
            self.minimizers[level, order] = (u, len(log.iterations) - 1)
        return self.minimizers[level, order]

    def hessian(self, level, order):
        if (level, order) not in self.hessians:
            u, _ = self.minimizer(level, order)
            self.hessians[level, order] = assemble_hessian(self.problem.model, u)
        return self.hessians[level, order]

    def cycle(self, level, order):
        if (level, order) not in self.cycles:
            hess = self.hessian(level, order)
            self.cycles[level, order] = self._binding(level, order)(hess)
        return self.cycles[level, order]

    def _binding(self, level, order):
        """The map from a Hessian on `level` to its cycle."""
        if level == 0:
            return partial(_root_solve, np.flatnonzero(self.space(0, order).interior_mask))
        return partial(_level_cycle, order, self.prolongations[level, order],
                       self.space(level - 1, order).boundary_dofs, self.cycle(level - 1, order))


# ---------------------------------------------------------------------------
# integrated Galerkin orthogonality


def galerkin_defect(model, u_fine, u_h, *, prolongation=None):
    """Defect in the integrated first-order conditions between nested levels.

    Tests, against every coarse interior basis function V_h, the t-integral
    of d2J along the segment from the fine solution to the embedded coarse
    one P u_h, applied to (V_h, P u_h - u_fine).  By the fundamental
    theorem of calculus that integral is dJ(P u_h)(V_h) - dJ(u_fine)(V_h),
    so it is taken in closed form, exactly for every density, from the
    fine residuals at the two ends.  P u_h takes u_fine's boundary values,
    so the direction has zero boundary data.  For discrete minimizers on
    nested spaces the value is zero up to solver tolerances.
    `prolongation` is the embedding matrix of the level pair, built here
    when None (a study passes the one its hierarchy holds).
    """
    coarse, fine = u_h.space, u_fine.space
    if fine.mesh.parent is not coarse.mesh or fine.order != coarse.order:
        raise ValueError("galerkin_defect needs the fine solution on the "
                         "once-refined mesh with the same order")
    if prolongation is None:
        prolongation = embedding_matrix(coarse, fine)
    pu = prolongation @ u_h.coeffs
    pu[fine.boundary_dofs] = u_fine.coeffs[fine.boundary_dofs]
    defect = prolongation.T @ (assemble_residual(model, FEFunction(fine, pu))
                               - assemble_residual(model, u_fine))
    defect[coarse.boundary_dofs] = 0.0
    return float(np.abs(defect).max())


# ---------------------------------------------------------------------------
# adjoint problem and regularity


def solve_adjoint(hess, rhs_diff, linear_tol=1e-12, *, preconditioner=None):
    """Solve d2J(u_ref)(W, .) = -(., rhs_diff)_{L^2} on the reference
    space, rhs_diff's, with `hess` = assemble_hessian(model, u_ref).

    The reference order must be at least 2 so the solution supports the
    broken-H^2 diagnostics downstream, and `hess` must have the space's
    size.  W carries zero boundary values.  The CG solve is preconditioned
    by `preconditioner`, as in `linear_solve` (None for Jacobi).
    """
    space = rhs_diff.space
    if space.order < 2:
        raise ValueError("adjoint solves need a reference space of order >= 2")
    if hess.dim != space.dim:
        raise ValueError(f"hess has size {hess.dim}; the reference space has {space.dim} dofs")
    b = -assemble_gram_l2(space).apply(rhs_diff.coeffs)
    b[space.boundary_dofs] = 0.0
    w = linear_solve(hess, b, tol=linear_tol, preconditioner=preconditioner)
    return FEFunction(space, w)


def h2_regularity_ratio(w, rhs_l2):
    """(||W||_{L^2} + |W|_{H^1} + broken H^2 of W) / `rhs_l2` = ||rhs||_{L^2}.

    A level-stable ratio under reference refinement is the empirical
    signature of H^2 regularity of the adjoint problem.  `rhs_l2` must be
    a finite number >= 0, not a bool; at 0 the ratio is undefined.
    """
    if w.space.order < 2:
        raise ValueError("H^2 ratio needs order >= 2")
    if not (_is_number(rhs_l2) and 0 <= rhs_l2 < np.inf):
        raise ValueError(f"rhs_l2 must be a finite number >= 0, got {rhs_l2!r}")
    if rhs_l2 == 0.0:
        raise _UndefinedDiagnostic("zero right-hand side")
    nw = norms(None, w, include_broken_h2=True)
    return float((nw.l2 + nw.h1_semi + nw.broken_h2) / rhs_l2)


def adjoint_identity_check(problem, u_h, levels_finer=2, newton=None):
    """Duality identity residual |e_L2^2 + d2J(u)(W, u_h - u)| / e_L2^2.

    The continuous solution is replaced by a nested reference solution,
    `levels_finer` (> 0 for m >= 2) refinements up at order max(m, 2), on
    a hierarchy rooted at u_h's space; W solves the adjoint problem there
    (to `newton.linear_tol`).  The squared discrete difference then cancels
    the bilinear term exactly up to linear-solver noise, so the residual
    measures how well the reference pair reproduces the true L^2 error,
    and tends to zero under reference refinement.  Also returns the
    H^2-regularity ratio of W.  For m >= 2 level 0 starts at u_h; for
    m = 1 it is a P2 space built here, so `newton.initial` must be None or
    a callable (ValueError for an FEFunction, before any work).
    """
    _check_count("levels_finer", levels_finer, lowest=1 if u_h.space.order >= 2 else 0)
    newton = newton or NewtonOptions()
    if u_h.space.order >= 2:  # level 0 is u_h's own space: start it at u_h
        newton = replace(newton, initial=u_h)
    else:                     # level 0 is a P2 space built here
        _check_own_start(newton)
    hierarchy = _Hierarchy(problem, newton, [u_h.space.mesh],
                           spaces={(0, u_h.space.order): u_h.space})
    return _adjoint_check(hierarchy, 0, u_h, norms(problem.exact, u_h).l2, levels_finer)


def _adjoint_check(hierarchy, level, u_h, l2_exact, levels_finer):
    """`adjoint_identity_check` of u_h, the hierarchy's (level, m)
    function, with ||u - u_h||_{L^2} already taken (undefined at 0).  The
    reference u* is the hierarchy's minimizer `levels_finer` levels up at
    order max(m, 2); u_h is embedded by the held prolongations into it,
    for m = 1 after one embedding into P2 on its own mesh.  The held
    d2J(u*) serves the solve and the bilinear term, ||e||_{L^2} the check
    and the ratio; the norm is taken once."""
    if l2_exact == 0.0:
        raise _UndefinedDiagnostic("zero L^2 error")
    ref_level, ref_order = level + levels_finer, max(u_h.space.order, 2)
    u_star, _ = hierarchy.minimizer(ref_level, ref_order)
    coeffs = (u_h.coeffs if u_h.space.order == ref_order
              else embed(u_h, hierarchy.space(level, ref_order)).coeffs)
    for k in range(level + 1, ref_level + 1):
        coeffs = hierarchy.prolongations[k, ref_order] @ coeffs
    e = coeffs - u_star.coeffs
    e[u_star.space.boundary_dofs] = 0.0
    e_fe = FEFunction(u_star.space, e)

    hess = hierarchy.hessian(ref_level, ref_order)
    w = solve_adjoint(hess, e_fe, hierarchy.newton.linear_tol,
                      preconditioner=hierarchy.cycle(ref_level, ref_order))
    bil = float(w.coeffs @ hess.apply(e))
    l2_disc = norms(None, e_fe).l2
    residual = abs(l2_exact**2 + bil) / l2_exact**2
    return AdjointCheck(residual, l2_exact, l2_disc, h2_regularity_ratio(w, l2_disc))


# ---------------------------------------------------------------------------
# predominant quadraticity


def _random_smooth(space, rng):
    """Interpolant of a random low-frequency sine combination,
    sum_k c_k prod_a sin((k_a + 1) pi x_a) over three modes for d = 1 and
    two per axis for d = 2."""
    coeff = rng.standard_normal((3,) if space.mesh.dim == 1 else (2, 2))

    def fn(x):
        return sum(coeff[k] * math.prod(np.sin((ka + 1) * np.pi * x[:, a])
                                        for a, ka in enumerate(k))
                   for k in np.ndindex(coeff.shape))

    return interpolate(space, fn)


def _random_rough(space, rng):
    """White-noise coefficients with zero boundary trace."""
    coeffs = rng.standard_normal(space.dim)
    coeffs[space.boundary_dofs] = 0.0
    return FEFunction(space, coeffs)


def _check_norm_pair(norm_pair):
    """Raise ValueError unless `norm_pair` is (1, 2) or (0, r) with r a
    number >= 1 or inf, o an integer and neither entry a bool."""
    try:
        o, r = norm_pair
    except (TypeError, ValueError):
        raise ValueError(f"norm_pair must be a pair (o, r), got {norm_pair!r}") from None
    if isinstance(o, bool) or not isinstance(o, (int, np.integer)) or o not in (0, 1):
        raise ValueError(f"unsupported norm pair {norm_pair!r}: o must be the integer 0 or 1")
    if o == 1 and not (_is_number(r) and r == 2):
        raise ValueError(f"unsupported norm pair {norm_pair!r}: "
                         "the first-order directional norm supports r = 2 only")
    if o == 0 and not (_is_number(r) and r >= 1):
        raise ValueError(f"unsupported norm pair {norm_pair!r}: "
                         "r must be inf or a finite q >= 1")


def _directional_norm(v, norm_pair, h1):
    """||v||_{W^{o,r}} for a pair that `_check_norm_pair` passed; `h1` is
    ||v||_{W^{1,2}}, already at hand."""
    o, r = norm_pair
    if o == 1:
        return h1
    if r == np.inf:
        # sup|v| on the lattice that `norms(q=inf)` samples, values only
        lattice = sample_lattice(v.space.mesh.dim)
        return max(float(np.abs(tabulate(v.space, v.coeffs, lattice, sl,
                                         gradients=False)[0]).max())
                   for sl in _chunks(v.space.mesh.num_elements, len(lattice)))
    return lq_norm(v, r)


def estimate_pq_constant(model, u, norm_pair=(1, 2), samples=8, seed=0):
    """Sampled third-variation ratio against the mixed-norm product.

    Draws smooth low-frequency test functions U and two populations of
    directions V (smooth, and rough white-noise coefficients), and returns
    the largest observed |d3J(u)(U,V,V)| / (||U||_{W^{2,2}} ||V||_{W^{1,2}}
    ||V||_{W^{o,r}}).  Sampling only ever gives a lower bound on the
    constant; level stability of the maximum is the quantity of interest.
    `norm_pair` (o, r) is (1, 2) or (0, r) with r a number >= 1 or inf,
    o an integer and neither a bool; it is checked before any sample.
    """
    space = u.space
    if space.order < 2:
        raise ValueError("the W^{2,2} factor needs order >= 2 for a "
                         "non-degenerate broken H^2 norm")
    _check_norm_pair(norm_pair)
    _check_count("samples", samples)
    _check_count("seed", seed, lowest=0)
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
    return PQEstimate(float(max_ratio))


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
        raise _UndefinedDiagnostic("fewer than 2 positive errors; cannot fit a rate")
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

# dofs of the largest space a study may build, checked by `_check_study`
MAX_DOFS = 1 << 20


@dataclass
class StudyOptions:
    """Options of `convergence_study`; construction raises ValueError
    unless coarse_cells is an integer >= 1, seed an integer >= 0 (neither
    a bool) and every diagnostic one of DIAGNOSTIC_NAMES."""

    coarse_cells: int = 8
    newton: NewtonOptions = field(default_factory=NewtonOptions)
    diagnostics: tuple = ()
    seed: int = 0

    def __post_init__(self):
        _check_count("coarse_cells", self.coarse_cells)
        _check_count("seed", self.seed, lowest=0)
        unknown = set(self.diagnostics) - set(DIAGNOSTIC_NAMES)
        if unknown:
            raise ValueError(f"unknown diagnostics {sorted(unknown)}; "
                             f"available: {DIAGNOSTIC_NAMES}")


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
    levels: list
    rate_l2: RateEstimate | None
    rate_h1: RateEstimate | None
    diagnostics: dict
    aborted: str | None = None
    abort_kind: str | None = None


def _largest_space_dofs(dim, order, levels, coarse_cells, diagnostics):
    """Dofs of the largest space a study builds: the finest level, or with
    the adjoint diagnostic its reference, _ADJOINT_LEVELS_FINER levels
    finer at order max(m, 2); a lower bound beyond 64 refinements."""
    refinements = levels - 1
    if "adjoint" in diagnostics:
        refinements += _ADJOINT_LEVELS_FINER
        order = max(order, 2)
    n = coarse_cells << min(refinements, 64)
    return (n * order + 1) ** dim


def _check_own_start(newton):
    """Raise ValueError for an FEFunction as `newton.initial` of a level
    0 whose space is built here, so that the start cannot lie on it."""
    if isinstance(newton.initial, FEFunction):
        raise ValueError("the Newton start of a level 0 built here must be None or a "
                         "callable; an FEFunction cannot lie on its space")


def _check_study(problem, order, levels, opts):
    """`opts` or the default options, once `convergence_study`'s arguments
    are checked: order an integer in 1..MAX_ORDER, levels an integer >= 3,
    order >= 2 for the pq diagnostic, a Newton start that is None or a
    callable, and a largest space of at most MAX_DOFS dofs.  The CLI
    checks every config through it."""
    if not isinstance(problem, ManufacturedProblem):
        raise TypeError("convergence_study needs a ManufacturedProblem")
    reference_basis(problem.dim, order)   # checks the order
    if _check_count("levels", levels) < 3:
        raise ValueError(f"a study needs at least 3 levels, got {levels}")
    opts = opts or StudyOptions()
    if "pq" in opts.diagnostics and order < 2:
        raise ValueError("the pq diagnostic needs order >= 2")
    _check_own_start(opts.newton)
    dofs = _largest_space_dofs(problem.dim, order, levels, opts.coarse_cells, opts.diagnostics)
    if dofs > MAX_DOFS:
        raise ValueError(f"study too large: its largest space has at least {dofs} "
                         f"dofs, above the limit of {MAX_DOFS}")
    return opts


def convergence_study(problem, order, levels, opts=None):
    """Solve the manufactured problem on a nested mesh hierarchy and fit
    error rates; optional per-level diagnostics as configured.

    A library failure in a level's solve or diagnostics (Newton, CG,
    assembly or eigenvalue iteration) aborts the remaining levels and
    marks the report with abort_kind "solver"; with the ellipticity
    diagnostic enabled, a non-coercive second variation at a converged
    state aborts with abort_kind "ellipticity", and a diagnostic that is
    undefined at a level with abort_kind "diagnostic".  The Galerkin defect
    between levels l-1 and l is taken as soon as level l is solved.  With
    fewer than 2 positive L^2 or H^1 errors, both rates stay None.

    Level 0's Newton iteration starts from `opts.newton.initial`, which
    must be None or a callable, since the study builds the level's space
    (ValueError for an FEFunction); every later level's starts from the
    previous level's minimizer, prolonged
    (nested iteration), so its `newton_iters` counts the steps from there.
    Every level comes from one `_Hierarchy`, which builds each level
    pair's prolongation once for that start and the Galerkin defect.  For
    m >= 2 the adjoint of level l solves levels l+1 and l+2 as it runs,
    each as above, and takes level l+2 as its reference (the study then
    reads them); a solve that fails there aborts at its own level, and
    level l's adjoint entry is not recorded.  For m = 1 the reference is
    the P2 level l+2, solved likewise from P2 level 0 up.  Every argument,
    and the study's size against MAX_DOFS ("study too large"), is checked
    before any mesh is built (`_check_study`, `StudyOptions`).
    """
    opts = _check_study(problem, order, levels, opts)
    report = ConvergenceReport([], None, None, {name: [] for name in opts.diagnostics})
    hierarchy = _Hierarchy(problem, opts.newton,
                           [build_unit_mesh(problem.dim, opts.coarse_cells)])
    try:
        for level in range(levels):
            at = level  # the level an abort names
            u_h, iters = hierarchy.minimizer(level, order)
            space = u_h.space

            err_rep = norms(problem.exact, u_h)
            monitor = norms(None, u_h, q=4).w1q
            report.levels.append(LevelResult(
                level, width(space.mesh), space.dim, err_rep.l2, err_rep.h1,
                iters, monitor))

            if "galerkin" in opts.diagnostics and level > 0:
                defect = galerkin_defect(
                    problem.model, u_h, hierarchy.minimizer(level - 1, order)[0],
                    prolongation=hierarchy.prolongations[level, order])
                report.diagnostics["galerkin"].append((level - 1, defect))
            if "ellipticity" in opts.diagnostics:
                est = estimate_ellipticity(hierarchy.hessian(level, order), u_h,
                                           seed=opts.seed + level)
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
                if order >= 2:
                    # the reference is a later study level: solve up to it now
                    for at in range(level + 1, level + _ADJOINT_LEVELS_FINER + 1):
                        hierarchy.minimizer(at, order)
                    at = level
                check = _adjoint_check(hierarchy, level, u_h, err_rep.l2,
                                       _ADJOINT_LEVELS_FINER)
                report.diagnostics["adjoint"].append(
                    (level, check.identity_residual, check.regularity_ratio))
    except (NewtonError, LinearSolveError, AssemblyError, PowerIterationError,
            _UndefinedDiagnostic) as err:
        report.aborted = f"level {at}: {err}"
        report.abort_kind = ("diagnostic" if isinstance(err, _UndefinedDiagnostic)
                             else "solver")

    if len(report.levels) >= 3:
        try:  # both rates or neither: the CLI reads them as a pair
            report.rate_l2, report.rate_h1 = [
                estimate_rate([(lr.h, getattr(lr, err)) for lr in report.levels])
                for err in ("err_l2", "err_h1")]
        except _UndefinedDiagnostic:
            pass
    return report
