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

from .mesh import (Mesh, ElementMap, build_unit_mesh, refine, width,
                   element_map, check_conforming, check_nested,
                   dump_mesh, load_mesh)
from .felement import (ReferenceBasis, QuadRule, FESpace, FEFunction,
                       reference_basis, quadrature_rule, make_space,
                       interpolate, evaluate, check_inverse_estimate)
from .energy import (EnergyModel, ExactSolution, ManufacturedProblem,
                     dirichlet_potential_model, minimal_surface_model,
                     classify, build_problem,
                     with_forcing, with_zeroed_gradient_blocks, PROBLEM_NAMES)
from .assembly import (SparseOperator, NormReport, energy_value,
                       assemble_residual, assemble_hessian,
                       apply_third_variation, assemble_gram_l2,
                       assemble_gram_h1, norms, lq_norm, integrate)
from .solver import (NewtonOptions, SolveLog, LinearSolveError, NewtonError,
                     linear_solve, minimize, prolong, embedding_matrix, embed)
from .analysis import (EllipticityEstimate, RateEstimate, PQEstimate,
                       AdjointCheck, StudyOptions, LevelResult,
                       ConvergenceReport, PowerIterationError,
                       estimate_ellipticity, galerkin_defect, solve_adjoint,
                       adjoint_identity_check, h2_regularity_ratio,
                       estimate_pq_constant, estimate_rate, convergence_study)

__version__ = "0.1.0"
