"""nitschelab: a finite-element laboratory for energy minimization.

Solves minimization problems for energies with semilinear (and mildly
quasilinear) Euler-Lagrange systems by order-m Lagrange elements on
uniformly refined simplicial meshes, and verifies the full a-priori
error-estimate chain empirically: interpolation orders, inverse
estimates, coercivity of the second variation, integrated Galerkin
orthogonality between nested levels, the linearized adjoint problem with
its H^2-regularity ratio, the mixed-norm bound on the third variation,
and the resulting H^1 rate m and L^2 rate m+1 on manufactured problems.
"""

import ctypes
import os

from .mesh import (Mesh, build_unit_mesh, refine, width,
                   check_conforming, check_nested)
from .felement import (ReferenceBasis, QuadRule, FESpace, FEFunction,
                       reference_basis, quadrature_rule, make_space,
                       interpolate, tabulate, check_inverse_estimate,
                       sample_lattice)
from .energy import (EnergyModel, ExactSolution, ManufacturedProblem,
                     dirichlet_potential_model, minimal_surface_model,
                     classify, build_problem,
                     with_forcing, with_zeroed_gradient_blocks, PROBLEM_NAMES)
from .assembly import (SparseOperator, NormReport, energy_value,
                       assemble_residual, assemble_hessian,
                       apply_third_variation, assemble_gram_l2,
                       assemble_gram_h1, norms, lq_norm, integrate)
from .solver import (NewtonOptions, SolveLog, LinearSolveError, NewtonError,
                     linear_solve, minimize, embedding_matrix, embed)
from .analysis import (EllipticityEstimate, RateEstimate, PQEstimate,
                       AdjointCheck, StudyOptions, LevelResult,
                       ConvergenceReport, PowerIterationError,
                       estimate_ellipticity, galerkin_defect, solve_adjoint,
                       adjoint_identity_check, h2_regularity_ratio,
                       estimate_pq_constant, estimate_rate, convergence_study)

__version__ = "0.1.0"

# mallopt(3) parameter numbers, from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_the_heap_warm():
    """On glibc, serve blocks under 32 MiB from the heap and keep up to
    64 MiB of freed heap top mapped, so that the kernels' whole-array
    temporaries (0.25-2 MB at the benchmark's sizes, just above glibc's
    dynamic thresholds) reuse warm pages instead of being unmapped after
    each call and page-faulted back in on the next.  32 MiB is where
    glibc's own dynamic mmap threshold stops on 64-bit, and the trim
    threshold is twice it, as glibc's dynamic rule sets it.  Only where
    arrays live changes, never a value.  Does nothing where the C library
    is not glibc or has no mallopt."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return
    if not (libc and libc.startswith("glibc")):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_keep_the_heap_warm()
