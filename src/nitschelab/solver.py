"""Sparse SPD solves, damped Newton minimization over the discrete space,
the geometric V-cycle, and exact embedding between nested spaces.

Newton iterates the first-order condition (masked residual = 0) with the
assembled second variation, so a converged iterate is a discrete critical
point; positive definiteness is checked implicitly by the conjugate
gradient solve at every step.  The solves are Jacobi-preconditioned
unless the caller passes another preconditioner: a study's level
hierarchy passes a geometric V-cycle on every level above its root, one
`_level_cycle` bound on top of the cycle below through the level pair's
`embedding_matrix`, down to the root's `_root_solve`, dense or diagonal
by the root's size.  The embedding reads no geometry: each element of a
refined mesh is a child in refine's layout (`mesh._CHILDREN`), whose
rows are a table of exact values rounded once.  Every sparse product of
a solve (the operator in conjugate gradients through
`SparseOperator.apply`, and the operator and both transfers in each
cycle level) is `assembly._matvec`: scipy's compiled CSR kernel called
without the dispatch of `@`, bitwise its result.  All solves are
deterministic.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

# minimize calls neither energy_value nor assemble_residual; both stay
# bound here because perfbench/spans.py rebinds them by this module's names
from .assembly import (_energy_and_residual, _finite, _is_number, _matvec, assemble_hessian,
                       assemble_residual, energy_value)
from .felement import FEFunction, interpolate, make_space, reference_basis
from .mesh import _CHILDREN, _check_count

__all__ = [
    "NewtonOptions",
    "SolveLog",
    "LinearSolveError",
    "NewtonError",
    "linear_solve",
    "minimize",
    "embedding_matrix",
    "embed",
]


class LinearSolveError(RuntimeError):
    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class NewtonError(RuntimeError):
    def __init__(self, message, log=None):
        super().__init__(message)
        self.log = log


# Armijo sufficient-decrease constant and backtracking factor of the line
# search in `minimize`
_ARMIJO_C1 = 1e-4
_ARMIJO_BACKTRACK = 0.5


@dataclass
class NewtonOptions:
    """Controls for the Armijo-damped Newton minimization.

    initial: None starts from the boundary lift, a callable from its
    interpolant, an FEFunction on the solve's space from a copy of it;
    `minimize` raises ValueError for one on another space (`embed` it
    first).  Boundary coefficients are always reset to the prescribed
    data, so iterates stay admissible.  Construction raises ValueError
    unless max_iters is an integer >= 1 (not a bool), both tolerances are
    positive finite real numbers (not bools), and initial is None, a
    callable or an FEFunction.
    """

    max_iters: int = 30
    residual_tol: float = 1e-12
    linear_tol: float = 1e-12
    initial: object = None

    def __post_init__(self):
        _check_count("max_iters", self.max_iters)
        for name, tol in (("residual_tol", self.residual_tol), ("linear_tol", self.linear_tol)):
            if not (_is_number(tol) and 0 < tol < np.inf):
                raise ValueError(f"{name} must be positive and finite, got {tol!r}")
        if not (self.initial is None or callable(self.initial)
                or isinstance(self.initial, FEFunction)):
            raise ValueError("initial must be None, a callable or an FEFunction, "
                             f"got {type(self.initial).__name__}")


@dataclass
class SolveLog:
    """What `minimize` did: one (residual_norm, energy, step) per iterate.
    A returned log ends at the converged iterate, with step 0.0; a
    NewtonError carries the log of the iterates before the failure."""

    iterations: list = field(default_factory=list)

    @property
    def residual_norms(self):
        return [it[0] for it in self.iterations]

    @property
    def energies(self):
        return [it[1] for it in self.iterations]


def linear_solve(op, b, tol=1e-12, max_iters=None, preconditioner=None):
    """Preconditioned conjugate gradients for SPD operators.

    `preconditioner` maps a residual to the preconditioned residual and
    must be symmetric positive definite; None is Jacobi, diag(op)^-1.  The
    operator is applied once per iteration and nowhere else.  Terminates
    when the 2-norm residual drops below tol * ||b||; raises
    LinearSolveError with the final relative residual if the iteration cap
    is reached, or immediately if the operator is found indefinite or
    non-finite (a diagonal entry or a curvature p.Ap that is not a
    positive finite number), the preconditioner is found not positive
    definite (r.z negative or not a number) or r.z underflows.  Raises
    ValueError before any work unless tol is a positive finite real
    number, not a bool.
    """
    if not (_is_number(tol) and 0 < tol < np.inf):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    cap = 10 * n + 100 if max_iters is None else _check_count("max_iters", max_iters)
    bnorm = math.sqrt(b @ b)
    if bnorm == 0.0:
        return np.zeros(n)
    diag = op.diagonal()
    if not np.all((diag > 0) & (diag < np.inf)):
        raise LinearSolveError("operator diagonal not positive and finite; not SPD",
                               iterations=0)
    if preconditioner is None:
        preconditioner = functools.partial(_jacobi, diag)

    x = np.zeros(n)
    r = b.copy()
    z = preconditioner(r)
    p = z.copy()
    rz = float(r @ z)
    _check_rz(rz, 1.0, 0)
    for it in range(cap):
        ap = op.apply(p)
        pap = float(p @ ap)
        if not 0 < pap < np.inf:
            raise LinearSolveError("conjugate gradients found a non-positive or "
                                   "non-finite curvature; operator not SPD",
                                   iterations=it)
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        rnorm = math.sqrt(r @ r)
        if rnorm <= tol * bnorm:
            return x
        z = preconditioner(r)
        rz_new = float(r @ z)
        _check_rz(rz_new, rnorm / bnorm, it + 1)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise LinearSolveError(
        f"conjugate gradients did not reach tol={tol:g} within {cap} iterations",
        residual=rnorm / bnorm, iterations=cap)


def _jacobi(diag, r):
    return r / diag


def _check_rz(rz, residual, iterations):
    """Raise unless the preconditioned residual product r.z is positive."""
    if rz > 0:
        return
    if rz == 0:
        # r.z underflows to zero long before the residual meets a
        # tolerance near the bottom of the float range
        raise LinearSolveError("conjugate gradients broke down: the preconditioned "
                               "residual norm underflowed",
                               residual=residual, iterations=iterations)
    raise LinearSolveError(f"preconditioner not positive definite: r.z = {rz:.3e}",
                           residual=residual, iterations=iterations)


# damped-Jacobi sweeps of `_v_cycle` before and after each coarse correction
_SMOOTHING_SWEEPS = 2
# damping of the V-cycle's Jacobi smoother by polynomial order.  The
# smoother needs damping < 2 / lambda_max(D^-1 A); on minimal_surface d=2
# lambda_max grows under refinement to 2.50, 2.72 and 3.01 (P1 and P2 at
# 16 641 dofs, P3 at 9409), so 0.8 for P1 would sit at the limit
_JACOBI_DAMPING = {1: 0.7, 2: 0.6, 3: 0.5}
# largest root, in interior dofs, that the V-cycle inverts densely; a
# larger root is solved by its diagonal
_ROOT_DOFS = 400


def _v_cycle(a, weights, prolongation, restriction, coarse_bc, coarse_solve, r):
    """One level of a symmetric geometric V-cycle applied to r: a
    preconditioner for `linear_solve` once all but r are bound.

    `a` is the level's CSR operator, `weights` its damped inverse
    diagonal, `prolongation` P, the embedding from the level below, and
    `restriction` its transpose; `coarse_solve` B_c is the cycle of the
    level below, bound the same way, or at the root its `_root_solve`.
    The level smooths by s = `_SMOOTHING_SWEEPS` damped-Jacobi sweeps
    before and after the correction from below.  The restricted residual
    has its coarse Dirichlet entries `coarse_bc` zeroed, as in
    `galerkin_defect`, so B_c returns 0 on them and the correction is 0
    on the fine ones, whose rows reach coarse Dirichlet columns only.
    With M = (I - weights a)^s the cycle is
    B = (I - M^2) a^-1 + (M P) B_c (M P)^T: for SPD `a`, a damping below
    2 / lambda_max(D^-1 a) and any SPD B_c, dense or diagonal, the first
    term is SPD and the second PSD, so B is SPD on vectors with zero
    Dirichlet entries, the only ones `linear_solve` passes.
    """
    x = weights * r
    _smooth(a, weights, x, r, _SMOOTHING_SWEEPS - 1)
    defect = _matvec(a, x)
    np.subtract(r, defect, out=defect)
    coarse = _matvec(restriction, defect)
    coarse[coarse_bc] = 0.0
    x += _matvec(prolongation, coarse_solve(coarse))
    _smooth(a, weights, x, r, _SMOOTHING_SWEEPS)
    return x


def _smooth(a, weights, x, r, sweeps):
    """Damped-Jacobi sweeps on a x = r, updating x in place."""
    for _ in range(sweeps):
        defect = _matvec(a, x)
        np.subtract(r, defect, out=defect)
        defect *= weights
        x += defect


def _level_cycle(order, prolongation, coarse_bc, coarse_solve, hess):
    """`_v_cycle` bound with `hess`, damped for `order`, restricting by the view `prolongation.T`."""
    return functools.partial(_v_cycle, hess.matrix, _JACOBI_DAMPING[order] / hess.diagonal(),
                             prolongation, prolongation.T, coarse_bc, coarse_solve)


def _root_solve(interior, hess):
    """The root's solve with `hess`, bound: exact by a dense inverse of the
    `interior` block up to `_ROOT_DOFS` dofs, Jacobi above."""
    if len(interior) > _ROOT_DOFS:
        return functools.partial(_jacobi, hess.diagonal())
    inverse = np.linalg.inv(hess.matrix[interior][:, interior].toarray())
    return functools.partial(_dense_solve, interior, 0.5 * (inverse + inverse.T))


def _dense_solve(interior, inverse, r):
    x = np.zeros_like(r)
    x[interior] = inverse @ r[interior]
    return x


def _initial_iterate(space, initial):
    if initial is None:
        u = space.with_boundary_values(0.0)
    elif isinstance(initial, FEFunction):
        if initial.space is not space:
            raise ValueError("initial lives on another space than the solve's; embed it first")
        u = initial.copy()
    else:
        u = interpolate(space, initial)
    u.coeffs[space.boundary_dofs] = space.boundary_values
    return u


def minimize(model, space, opts=None, preconditioner_for=None):
    """Damped Newton minimization of the energy over the space.

    Returns (u_h, SolveLog) once the masked residual sup-norm is at or
    below residual_tol.  Raises NewtonError on Hessian solve failure,
    line-search underflow, or the iteration cap, AssemblyError once an
    iterate's residual flux is non-finite, and ValueError before any
    assembly for an `opts.initial` on another space than `space`.
    `preconditioner_for` maps each assembled Hessian to the preconditioner
    of its solve (None for Jacobi); without it every solve is
    Jacobi-preconditioned.  No Hessian outlives the call.

    Every state goes through one `_energy_and_residual` pass: the start,
    and each line-search trial.  The accepted trial is bitwise the next
    iterate, so its energy and residual are that iterate's; a trial whose
    flux is non-finite can still be rejected, and raises only once it is
    the iterate.  Only after a full step taken without a line search is
    the next iterate's pass run afresh.
    """
    opts = opts or NewtonOptions()
    u, state = _initial_iterate(space, opts.initial), None
    log = SolveLog()

    for _ in range(opts.max_iters):
        energy, r = state or _energy_and_residual(model, u)
        r = _finite(r)
        rnorm = float(np.abs(r).max())
        if rnorm <= opts.residual_tol:
            log.iterations.append((rnorm, energy, 0.0))
            return u, log

        hess = assemble_hessian(model, u)
        preconditioner = preconditioner_for and preconditioner_for(hess)
        try:
            step = linear_solve(hess, -r, tol=opts.linear_tol,
                                preconditioner=preconditioner)
        except LinearSolveError as err:
            raise NewtonError(f"Hessian solve failed: {err}", log) from err

        alpha, state = 1.0, None
        slope = float(r @ step)
        # once the predicted decrease is below energy rounding, the line
        # search compares noise; take the full Newton step instead
        if abs(slope) > 1e-14 * (1.0 + abs(energy)):
            while True:
                trial = FEFunction(space, u.coeffs + alpha * step)
                state = _energy_and_residual(model, trial)
                if state[0] <= energy + _ARMIJO_C1 * alpha * slope:
                    break
                alpha *= _ARMIJO_BACKTRACK
                if alpha < 1e-14:
                    raise NewtonError("line search step underflow", log)
        # bitwise the accepted trial, whose energy and residual `state` holds
        u = FEFunction(space, u.coeffs + alpha * step)
        log.iterations.append((rnorm, energy, alpha))

    raise NewtonError(f"no convergence within {opts.max_iters} Newton iterations "
                      f"(last residual {log.iterations[-1][0]:.3e})", log)


# ---------------------------------------------------------------------------
# nested-space embedding


def embedding_matrix(src_space, dst_space):
    """Sparse operator expressing src-space functions exactly in dst-space.

    dst_space must live on the same mesh as src_space or on a refinement
    descendant, with order at least the source order; then every source
    function is a dst-space function and the embedding is exact (the dst
    nodal values of the source polynomial).  Each dst element reads the
    `_transfer_table` of its child in refine's layout, or on the same mesh
    of the identity; a deeper descendant is the product of one-level
    embeddings.  Only nonzero entries are stored: no product of a finite
    vector changes (rows sum from +0).
    """
    if dst_space.order < src_space.order:
        raise ValueError("target order is lower than source order; embedding "
                         "would not be exact")
    mesh, d = dst_space.mesh, dst_space.mesh.dim
    if mesh is src_space.mesh:
        children = (tuple((v, v) for v in range(d + 1)),)
    elif mesh.parent is src_space.mesh:
        children = _CHILDREN[d]
    elif mesh.parent is None:
        raise ValueError("target mesh is not a refinement descendant of the "
                         "source mesh")
    else:
        middle = make_space(mesh.parent, src_space.order)
        return (embedding_matrix(middle, dst_space)
                @ embedding_matrix(src_space, middle)).sorted_indices()
    tables = np.stack([_transfer_table(d, src_space.order, dst_space.order, child)
                       for child in children])

    # each dst dof on one element that holds it: any such element gives the
    # same nonzero entries, since a source basis function that is nonzero
    # at a node shared by two source elements belongs to their common face
    owner = np.empty(dst_space.dim, dtype=np.int64)
    owner[dst_space.elem_dofs.ravel()] = np.arange(dst_space.elem_dofs.size)
    element, local = np.divmod(owner, dst_space.basis.n_local)
    vals = tables[element % len(children), local]

    # row i holds the values at node i of the nloc_s basis functions of its
    # source element, columns ascending as a COO to CSR conversion would
    # leave them; built as CSR directly, since that conversion's first
    # use maps about 0.5 MB more of scipy's compiled code into memory
    nloc_s = src_space.basis.n_local
    cols = src_space.elem_dofs[element // len(children)]
    order = np.argsort(cols, axis=1, kind="stable")
    embedding = sp.csr_matrix((np.take_along_axis(vals, order, axis=1).ravel(),
                               np.take_along_axis(cols, order, axis=1).ravel(),
                               nloc_s * np.arange(dst_space.dim + 1)),
                              shape=(dst_space.dim, src_space.dim))
    embedding.eliminate_zeros()
    return embedding


@functools.cache
def _transfer_table(dim, src_order, dst_order, child):
    """(dst n_local, src n_local) values of the order-`src_order` reference
    basis at the order-`dst_order` nodes of `child` (as in
    `mesh._CHILDREN`), in rationals rounded once, so an exact 0 is 0.0.
    In barycentric coordinates the order-m basis function of node n is
    prod over v and t < m n_v of (m p_v - t) / (t + 1) at p (Silvester)."""
    from fractions import Fraction  # its decimal import costs 1 ms at start-up
    def barycentric(node):  # a reference node's coordinates are k/2 or k/3
        xi = [Fraction(x).limit_denominator(6) for x in node]
        return [1 - sum(xi)] + xi

    m, rows = src_order, []
    src = [barycentric(n) for n in reference_basis(dim, src_order).nodes]
    for node in reference_basis(dim, dst_order).nodes:
        # the child's vertex (i, j) is the parent's point (e_i + e_j) / 2
        p = [sum(lam * ((v == i) + (v == j)) for lam, (i, j) in zip(barycentric(node), child)) / 2
             for v in range(dim + 1)]
        rows.append([float(math.prod((m * p_v - t) / (t + 1) for n_v, p_v in zip(n, p)
                                     for t in range(int(m * n_v)))) for n in src])
    table = np.array(rows)
    table.flags.writeable = False
    return table


def embed(f, dst_space):
    """Exact representation of f in a nested finer or higher-order space."""
    return FEFunction(dst_space, embedding_matrix(f.space, dst_space) @ f.coeffs)

