"""Sparse SPD solves, damped Newton minimization over the discrete space,
and exact embedding between nested spaces.

Newton iterates the first-order condition (masked residual = 0) with the
assembled second variation, so a converged iterate is a discrete critical
point; positive definiteness is checked implicitly by the conjugate
gradient solve at every step.  The solves are Jacobi-preconditioned
unless the caller passes another preconditioner: a study's level
hierarchy passes a geometric V-cycle, one `_v_cycle` level bound on
top of the cycle kept for the level below, and binds the level's own
cycle to the Hessian of the last Newton solve, `SolveLog.hessian`.  All
solves are deterministic.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .assembly import assemble_hessian, assemble_residual, energy_value
from .felement import FEFunction, interpolate
from .mesh import _check_count, _pull

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
    interpolant, an FEFunction on the same space from a copy of it, one
    on a coarser nested space from its embedding.  Boundary coefficients
    are always reset to the prescribed data, so iterates stay admissible.
    Construction raises ValueError unless max_iters is an integer >= 1 (not
    a bool), both tolerances are positive and finite, and initial as above.
    """

    max_iters: int = 30
    residual_tol: float = 1e-12
    linear_tol: float = 1e-12
    initial: object = None

    def __post_init__(self):
        _check_count("max_iters", self.max_iters)
        for name, tol in (("residual_tol", self.residual_tol), ("linear_tol", self.linear_tol)):
            if not 0 < tol < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {tol!r}")
        if not (self.initial is None or callable(self.initial)
                or isinstance(self.initial, FEFunction)):
            raise ValueError("initial must be None, a callable or an FEFunction, "
                             f"got {type(self.initial).__name__}")


@dataclass
class SolveLog:
    """What `minimize` did: one (residual_norm, energy, step) per iterate,
    whether it converged, and `hessian`, the operator of its last Newton
    solve (None when Newton took no step), which the log keeps alive for
    as long as it is held."""

    iterations: list = field(default_factory=list)
    converged: bool = False
    hessian: object = None

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
    ValueError before any work unless tol is positive and finite.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    cap = 10 * n + 100 if max_iters is None else _check_count("max_iters", max_iters)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n)
    diag = op.diagonal()
    if not np.all((diag > 0) & (diag < np.inf)):
        raise LinearSolveError("operator diagonal not positive and finite; not SPD",
                               iterations=0)
    if preconditioner is None:
        def preconditioner(r):
            return r / diag

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
        rnorm = float(np.linalg.norm(r))
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


def _v_cycle(a, weights, prolongation, restriction, coarse_solve, r):
    """One level of a symmetric geometric V-cycle applied to r: a
    preconditioner for `linear_solve` once all but r are bound.

    `a` is the level's CSR operator, `weights` its damped inverse
    diagonal, `prolongation` the map from the level below and
    `restriction` its transpose; `coarse_solve` is the cycle of the level
    below, bound the same way, or at the root an exact solve.  The level
    smooths by `_SMOOTHING_SWEEPS` damped-Jacobi sweeps before and after
    the correction from the level below.  With symmetric positive
    definite operators, a symmetric positive definite root solve and a
    damping below 2 / lambda_max(D^-1 A) on every level, the cycle is
    symmetric positive definite.
    """
    x = weights * r
    _smooth(a, weights, x, r, _SMOOTHING_SWEEPS - 1)
    defect = a @ x
    np.subtract(r, defect, out=defect)
    x += prolongation @ coarse_solve(restriction @ defect)
    _smooth(a, weights, x, r, _SMOOTHING_SWEEPS)
    return x


def _smooth(a, weights, x, r, sweeps):
    """Damped-Jacobi sweeps on a x = r, updating x in place."""
    for _ in range(sweeps):
        defect = a @ x
        np.subtract(r, defect, out=defect)
        defect *= weights
        x += defect


def _initial_iterate(space, initial):
    if initial is None:
        u = space.with_boundary_values(0.0)
    elif isinstance(initial, FEFunction):
        u = initial.copy() if initial.space is space else embed(initial, space)
    else:
        u = interpolate(space, initial)
    u.coeffs[space.boundary_dofs] = space.boundary_values
    return u


def minimize(model, space, opts=None, preconditioner_for=None):
    """Damped Newton minimization of the energy over the space.

    Returns (u_h, SolveLog) once the masked residual sup-norm is at or
    below residual_tol.  Raises NewtonError on Hessian solve failure,
    line-search underflow, or the iteration cap.  `preconditioner_for`
    maps each assembled Hessian to the preconditioner of its solve (None
    for Jacobi); without it every solve is Jacobi-preconditioned.  The
    log's `hessian` is the operator of the last Newton solve, None when
    Newton took no step; the log keeps it alive for as long as it is held.
    """
    opts = opts or NewtonOptions()
    u, energy = _initial_iterate(space, opts.initial), None
    log = SolveLog()

    for _ in range(opts.max_iters):
        r = assemble_residual(model, u)
        rnorm = float(np.abs(r).max())
        if energy is None:
            energy = energy_value(model, u)
        if rnorm <= opts.residual_tol:
            log.iterations.append((rnorm, energy, 0.0))
            log.converged = True
            return u, log

        hess = log.hessian = assemble_hessian(model, u)
        preconditioner = preconditioner_for and preconditioner_for(hess)
        try:
            step = linear_solve(hess, -r, tol=opts.linear_tol,
                                preconditioner=preconditioner)
        except LinearSolveError as err:
            raise NewtonError(f"Hessian solve failed: {err}", log) from err

        alpha, trial_energy = 1.0, None
        slope = float(r @ step)
        # once the predicted decrease is below energy rounding, the line
        # search compares noise; take the full Newton step instead
        if abs(slope) > 1e-14 * (1.0 + abs(energy)):
            while True:
                trial = FEFunction(space, u.coeffs + alpha * step)
                trial_energy = energy_value(model, trial)
                if trial_energy <= energy + _ARMIJO_C1 * alpha * slope:
                    break
                alpha *= _ARMIJO_BACKTRACK
                if alpha < 1e-14:
                    raise NewtonError("line search step underflow", log)
        u = FEFunction(space, u.coeffs + alpha * step)
        log.iterations.append((rnorm, energy, alpha))
        # u is bitwise the accepted trial, whose energy is known already
        energy = trial_energy

    raise NewtonError(f"no convergence within {opts.max_iters} Newton iterations "
                      f"(last residual {log.iterations[-1][0]:.3e})", log)


# ---------------------------------------------------------------------------
# nested-space embedding


def embedding_matrix(src_space, dst_space):
    """Sparse operator expressing src-space functions exactly in dst-space.

    dst_space must live on the same mesh as src_space or on a refinement
    descendant, with order at least the source order; then every source
    function is a dst-space function and the embedding is exact (the dst
    nodal values of the source polynomial).
    """
    if dst_space.order < src_space.order:
        raise ValueError("target order is lower than source order; embedding "
                         "would not be exact")
    dst_mesh = mesh = dst_space.mesh
    ancestor = np.arange(dst_mesh.num_elements)
    while mesh is not src_space.mesh:
        if mesh.parent is None or mesh.parent_elements is None:
            raise ValueError("target mesh is not a refinement descendant of the "
                             "source mesh")
        ancestor = mesh.parent_elements[ancestor]
        mesh = mesh.parent

    src_mesh = src_space.mesh
    nloc_d = dst_space.basis.n_local
    nloc_s = src_space.basis.n_local
    # each dst node once, on the first element that holds it: its physical
    # point, then the reference point in that element's source ancestor,
    # as d broadcast products each (a batched matmul would make one tiny
    # BLAS call per node)
    _, first = np.unique(dst_space.elem_dofs.ravel(), return_index=True)
    owner, local = np.divmod(first, nloc_d)
    anc = ancestor[owner]
    phys = (dst_mesh.vertices[dst_mesh.elements[owner, 0]]
            + _pull(dst_space.basis.nodes[local], dst_mesh.inv_jac[owner]))
    ref = _pull(phys - src_mesh.vertices[src_mesh.elements[anc, 0]],
                src_mesh.jac[anc])
    vals = src_space.basis.values(ref)

    # row i holds the values at node i of the nloc_s basis functions of its
    # source element, columns ascending as a COO to CSR conversion would
    # leave them; built as CSR directly, since that conversion's first
    # use maps about 0.5 MB more of scipy's compiled code into memory
    cols = src_space.elem_dofs[anc]
    order = np.argsort(cols, axis=1, kind="stable")
    return sp.csr_matrix((np.take_along_axis(vals, order, axis=1).ravel(),
                          np.take_along_axis(cols, order, axis=1).ravel(),
                          nloc_s * np.arange(dst_space.dim + 1)),
                         shape=(dst_space.dim, src_space.dim))


def embed(f, dst_space):
    """Exact representation of f in a nested finer or higher-order space."""
    return FEFunction(dst_space, embedding_matrix(f.space, dst_space) @ f.coeffs)

