"""Sparse SPD solves, damped Newton minimization over the discrete space,
and exact embedding between nested spaces.

Newton iterates the first-order condition (masked residual = 0) with the
assembled second variation, so a converged iterate is a discrete critical
point; positive definiteness is checked implicitly by the conjugate
gradient solve at every step.  All solves are deterministic.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .assembly import assemble_hessian, assemble_residual, energy_value
from .felement import FEFunction, interpolate

__all__ = [
    "NewtonOptions",
    "SolveLog",
    "LinearSolveError",
    "NewtonError",
    "linear_solve",
    "minimize",
    "prolong",
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
    """

    max_iters: int = 30
    residual_tol: float = 1e-12
    linear_tol: float = 1e-12
    initial: object = None

    def __post_init__(self):
        if self.residual_tol <= 0:
            raise ValueError("residual_tol must be positive")
        if not (self.initial is None or callable(self.initial)
                or isinstance(self.initial, FEFunction)):
            raise ValueError("initial must be None, a callable or an FEFunction, "
                             f"got {type(self.initial).__name__}")


@dataclass
class SolveLog:
    iterations: list = field(default_factory=list)  # (residual_norm, energy, step)
    converged: bool = False

    @property
    def residual_norms(self):
        return [it[0] for it in self.iterations]

    @property
    def energies(self):
        return [it[1] for it in self.iterations]


def linear_solve(op, b, tol=1e-12, max_iters=None):
    """Jacobi-preconditioned conjugate gradients for SPD operators.

    Terminates when the 2-norm residual drops below tol * ||b||; raises
    LinearSolveError with the final relative residual if the iteration cap
    is reached, or immediately if the operator is found indefinite or
    non-finite (a diagonal entry or a curvature p.Ap that is not a
    positive finite number) or the preconditioned residual r.z underflows.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n)
    diag = op.diagonal()
    if not np.all((diag > 0) & (diag < np.inf)):
        raise LinearSolveError("operator diagonal not positive and finite; not SPD",
                               iterations=0)
    cap = max_iters or 10 * n + 100

    x = np.zeros(n)
    r = b.copy()
    z = r / diag
    p = z.copy()
    rz = float(r @ z)
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
        z = r / diag
        rz_new = float(r @ z)
        if not rz_new > 0:
            # r.z underflows to zero long before the residual meets a
            # tolerance near the bottom of the float range
            raise LinearSolveError("conjugate gradients broke down: the preconditioned "
                                   "residual norm underflowed",
                                   residual=rnorm / bnorm, iterations=it + 1)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise LinearSolveError(
        f"conjugate gradients did not reach tol={tol:g} within {cap} iterations",
        residual=rnorm / bnorm, iterations=cap)


def _initial_iterate(space, initial):
    if initial is None:
        u = space.with_boundary_values(0.0)
    elif isinstance(initial, FEFunction):
        u = initial.copy() if initial.space is space else embed(initial, space)
    else:
        u = interpolate(space, initial)
    u.coeffs[space.boundary_dofs] = space.boundary_values
    return u


def minimize(model, space, opts=None):
    """Damped Newton minimization of the energy over the space.

    Returns (u_h, SolveLog) once the masked residual sup-norm is at or
    below residual_tol.  Raises NewtonError on Hessian solve failure,
    line-search underflow, or the iteration cap.
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

        hess = assemble_hessian(model, u)
        try:
            step = linear_solve(hess, -r, tol=opts.linear_tol)
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
    chain = []
    mesh = dst_space.mesh
    while mesh is not src_space.mesh:
        if mesh.parent is None or mesh.parent_elements is None:
            raise ValueError("target mesh is not a refinement descendant of the "
                             "source mesh")
        chain.append(mesh.parent_elements)
        mesh = mesh.parent

    dst_mesh = dst_space.mesh
    ancestor = np.arange(dst_mesh.num_elements)
    for parent_elements in chain:
        ancestor = parent_elements[ancestor]

    src_mesh = src_space.mesh
    nodes = dst_space.basis.nodes
    phys = (dst_mesh.vertices[dst_mesh.elements[:, 0]][:, None, :]
            + np.einsum("eij,lj->eli", dst_mesh.inv_jac, nodes))
    v0 = src_mesh.vertices[src_mesh.elements[ancestor, 0]]
    ref = np.einsum("eij,elj->eli", src_mesh.jac[ancestor], phys - v0[:, None, :])

    nloc_d = dst_space.basis.n_local
    nloc_s = src_space.basis.n_local
    vals = src_space.basis.values(ref.reshape(-1, src_mesh.dim))

    flat_dofs = dst_space.elem_dofs.ravel()
    uniq, first = np.unique(flat_dofs, return_index=True)
    rows = np.repeat(uniq, nloc_s)
    owner = first // nloc_d
    cols = src_space.elem_dofs[ancestor[owner]].ravel()
    data = vals[first].ravel()
    mat = sp.coo_matrix((data, (rows, cols)),
                        shape=(dst_space.dim, src_space.dim)).tocsr()
    return mat


def embed(f, dst_space):
    """Exact representation of f in a nested finer or higher-order space."""
    return FEFunction(dst_space, embedding_matrix(f.space, dst_space) @ f.coeffs)


def prolong(f, fine_space):
    """Exact representation on the once-refined mesh with the same order."""
    if fine_space.order != f.space.order:
        raise ValueError("prolong keeps the polynomial order; use embed for "
                         "order changes")
    if fine_space.mesh.parent is not f.space.mesh:
        raise ValueError("fine space does not refine the function's mesh")
    return embed(f, fine_space)
