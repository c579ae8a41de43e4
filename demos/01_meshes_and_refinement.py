"""Meshes, uniform refinement, and the width/order scaling data.

Builds simplicial meshes of the unit interval and unit square, refines
them uniformly, and prints the per-level quantities that stay constant
for a shape-regular family: h^d * max|det DF_h| and max||DF_h^{-1}|| / h.
"""

import numpy as np

from nitschelab import build_unit_mesh, check_conforming, check_nested, refine, width

print("interval mesh, 4 cells:")
mesh = build_unit_mesh(1, 4)
print(f"  {mesh.num_vertices} vertices, {mesh.num_elements} elements, "
      f"width h = {width(mesh)}")
print(f"  element 0 map: jacobian {mesh.jac[0].ravel()}, det {mesh.det_jac[0]}")

print("\nunit square, 2 cells per side:")
mesh = build_unit_mesh(2, 2)
print(f"  {mesh.num_vertices} vertices, {mesh.num_elements} triangles, "
      f"width h = {width(mesh):.6f}, total area {mesh.volumes.sum():.1f}")

print("\nuniform refinement keeps the scaling constants of the family:")
print(f"  {'level':>5} {'h':>10} {'h^d max|det|':>14} {'max|B|/h':>10}")
m = mesh
for level in range(6):
    h = width(m)
    det_scale = h**2 * np.abs(m.det_jac).max()
    jac_scale = max(np.linalg.norm(m.inv_jac[e], 2)
                    for e in range(m.num_elements)) / h
    print(f"  {level:5d} {h:10.6f} {det_scale:14.8f} {jac_scale:10.6f}")
    if level < 5:
        m_next = refine(m)
        check_conforming(m_next)
        check_nested(m_next)
        m = m_next
