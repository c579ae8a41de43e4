"""Energy densities, their derivative ladder, and structural class.

Every built-in model carries analytic derivatives through third order;
the demo cross-checks one second derivative against finite differences
and prints the Euler-Lagrange classification each model receives from
sampling its third-derivative blocks.
"""

import numpy as np

from nitschelab import build_problem, classify
from nitschelab.energy import PROBLEM_NAMES

rng = np.random.default_rng(0)
p = rng.standard_normal((5, 2))
z = rng.standard_normal(5)

print("built-in problems:")
for name in PROBLEM_NAMES:
    problem = build_problem(name, 2)
    model = problem.model
    print(f"  {name:16s} J(u) = int {model.formula} dx   -> {classify(model)}")

print("\nfinite-difference check of d2L/dz2 for the quartic potential:")
model = build_problem("quartic", 2).model
eps = 1e-6
fd = (model.dL_dz(p, z + eps) - model.dL_dz(p, z - eps)) / (2 * eps)
an = model.d2L_dzz(p, z)
print(f"  max relative mismatch: {np.abs(fd - an).max() / np.abs(an).max():.2e}")

print("\nminimal-surface p-Hessian eigenvalues at a random gradient:")
ms = build_problem("minimal_surface", 2).model
p0 = np.array([[1.5, -0.7]])
w = np.sqrt(1 + (p0**2).sum())
eig = np.sort(np.linalg.eigvalsh(ms.d2L_dpp(p0, np.zeros(1))[0]))
print(f"  computed {eig}, closed form [w^-3, 1/w] = "
      f"[{w**-3:.6f}, {1 / w:.6f}]")

print("\nmanufactured forcing makes the sine product an exact solution:")
for name in PROBLEM_NAMES:
    problem = build_problem(name, 2)
    from nitschelab.energy import el_residual
    pts = rng.uniform(0.1, 0.9, size=(20, 2))
    print(f"  {name:16s} max |Euler-Lagrange residual| = "
          f"{np.abs(el_residual(problem, pts)).max():.2e}")
