"""Damped Newton minimization of a nonconvex-looking but coercive energy.

Solves the quartic semilinear benchmark on the square and prints the
Newton history: the residual shows the characteristic quadratic tail,
the energy decreases monotonically, and the converged iterate beats the
interpolant of the exact solution (it is the discrete minimizer).
"""

from nitschelab import (assemble_hessian, build_problem, build_unit_mesh,
                        energy_value, interpolate, make_space, minimize, norms)
from nitschelab.analysis import estimate_ellipticity

problem = build_problem("quartic", 2)
space = make_space(build_unit_mesh(2, 16), 2, problem.boundary_fn)
print(f"space: order 2, {space.dim} dofs, {space.mesh.num_elements} triangles")

u_h, log = minimize(problem.model, space)
print("\nNewton history (residual, energy, step):")
for k, (r, e, a) in enumerate(log.iterations):
    print(f"  it {k}: residual {r:10.3e}   energy {e:.12f}   step {a:.3f}")

u_i = interpolate(space, problem.exact.value)
print(f"\nJ(u_h) = {energy_value(problem.model, u_h):.12f}  <=  "
      f"J(u_I) = {energy_value(problem.model, u_i):.12f}")

rep = norms(problem.exact, u_h)
print(f"errors vs exact solution: L2 {rep.l2:.3e}, H1 {rep.h1:.3e}")

est = estimate_ellipticity(assemble_hessian(problem.model, u_h), u_h)
print(f"second variation at u_h vs H1 Gram: lambda_min {est.lambda_min:.5f} "
      f"(> 0: discrete coercivity), lambda_max {est.lambda_max:.5f}")
