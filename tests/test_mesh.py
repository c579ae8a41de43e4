import hashlib

import numpy as np
import pytest

from nitschelab.felement import make_space
from nitschelab.mesh import (MeshError, Mesh, build_unit_mesh, check_conforming,
                             check_nested, refine, width)


def shoelace(p0, p1, p2):
    return 0.5 * abs((p1[0] - p0[0]) * (p2[1] - p0[1])
                     - (p2[0] - p0[0]) * (p1[1] - p0[1]))


def test_build_interval():
    m = build_unit_mesh(1, 4)
    assert m.num_vertices == 5
    assert m.num_elements == 4
    assert width(m) == pytest.approx(0.25, abs=0)


def test_build_square_2x2():
    m = build_unit_mesh(2, 2)
    assert m.num_vertices == 9
    assert m.num_elements == 8


def test_build_square_1x1_areas():
    m = build_unit_mesh(2, 1)
    assert m.num_vertices == 4
    assert m.num_elements == 2
    assert np.allclose(m.volumes, 0.5)


def test_build_rejects_bad_dim_and_cells():
    with pytest.raises(MeshError):
        build_unit_mesh(3, 2)
    with pytest.raises(MeshError):
        build_unit_mesh(1, 0)


def test_refine_interval():
    m = refine(build_unit_mesh(1, 4))
    assert m.num_elements == 8
    assert width(m) == pytest.approx(0.125, abs=0)
    assert m.level == 1 and m.parent is not None


@pytest.mark.parametrize("dim", [1, 2])
def test_level_is_the_length_of_the_parent_chain(dim):
    m = build_unit_mesh(dim, 2)
    assert m.level == 0
    for level in (1, 2, 3):
        m = refine(m)
        assert m.level == level
    # the same data without a parent is a level-0 mesh
    assert Mesh(dim, m.vertices, m.elements, m.boundary_facets).level == 0


def test_refine_triangles_count_and_area():
    m0 = build_unit_mesh(2, 2)
    m1 = refine(m0)
    assert m1.num_elements == 32
    # partition of the unit square at every level
    m = m0
    for _ in range(3):
        assert m.volumes.sum() == pytest.approx(1.0, abs=1e-13)
        m = refine(m)


def test_width_examples():
    assert width(build_unit_mesh(1, 8)) == pytest.approx(0.125)
    m = build_unit_mesh(2, 2)
    assert width(m) == pytest.approx(np.sqrt(2) / 2)
    assert width(refine(m)) == pytest.approx(width(m) / 2, rel=1e-14)


def test_element_map_interval_scaling():
    m = build_unit_mesh(1, 4)
    assert m.jac[0, 0, 0] == pytest.approx(4.0)
    assert m.det_jac[0] == pytest.approx(4.0)
    # map consistency: |T_h| = |det|^{-1} |T|
    assert 1.0 / abs(m.det_jac[0]) == pytest.approx(0.25)


def test_element_map_reference_triangle_identity():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    m = Mesh(2, verts, np.array([[0, 1, 2]]), np.array([[0, 1], [1, 2], [0, 2]]))
    assert np.allclose(m.jac[0], np.eye(2), atol=1e-14)
    assert np.allclose(m.inv_jac[0], np.eye(2), atol=1e-14)
    assert m.det_jac[0] == pytest.approx(1.0)


def test_element_map_area_matches_shoelace():
    verts = np.array([[0.1, 0.2], [0.9, 0.35], [0.4, 0.8]])
    m = Mesh(2, verts, np.array([[0, 1, 2]]), np.array([[0, 1], [1, 2], [0, 2]]))
    # |T_h| = |det DF_h|^{-1} |T|, |T| = 1/2
    assert 0.5 / abs(m.det_jac[0]) == pytest.approx(shoelace(*verts), abs=1e-14)
    assert m.volumes[0] == pytest.approx(shoelace(*verts), abs=1e-14)


def test_element_map_roundtrip_points():
    """DF_h and its inverse invert each other on every element, and the
    centroid maps to the reference centroid and back."""
    m = refine(build_unit_mesh(2, 3))
    assert np.abs(m.jac @ m.inv_jac - np.eye(2)).max() < 1e-14
    v = m.vertices[m.elements[7]]
    x = v.mean(axis=0)
    ref = m.jac[7] @ (x - v[0])
    assert np.allclose(ref, 1.0 / 3.0, atol=1e-14)
    assert np.allclose(v[0] + m.inv_jac[7] @ ref, x, atol=1e-14)


def test_degenerate_element_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(MeshError):
        Mesh(2, verts, np.array([[0, 1, 2]]), np.zeros((0, 2), dtype=int))


@pytest.mark.parametrize("dim,cells", [(1, 5), (2, 3)])
def test_conformity_across_levels(dim, cells):
    m = build_unit_mesh(dim, cells)
    for _ in range(3):
        assert check_conforming(m)
        m = refine(m)
    assert check_conforming(m)


def test_conformity_detects_bad_boundary():
    m = build_unit_mesh(2, 2)
    broken = Mesh(2, m.vertices.copy(), m.elements.copy(), m.boundary_facets[:-1].copy())
    with pytest.raises(MeshError):
        check_conforming(broken)


def test_conformity_detects_duplicate_vertices():
    verts = np.array([[0.0], [0.5], [0.5], [1.0]])
    m = Mesh(1, verts, np.array([[0, 1], [2, 3]]), np.array([[0], [3]]))
    with pytest.raises(MeshError):
        check_conforming(m)


@pytest.mark.parametrize("dim", [1, 2])
def test_nestedness(dim):
    coarse = build_unit_mesh(dim, 3)
    fine = refine(coarse)
    assert check_nested(fine)
    assert check_nested(refine(fine))
    with pytest.raises(MeshError):
        check_nested(coarse)


@pytest.mark.parametrize("dim", [1, 2])
def test_width_order_scaling_constants(dim):
    """h^d max|det DF_h| and max||DF_h^{-1}||/h stay constant under uniform
    refinement (affine case: exactly, up to rounding)."""
    m = build_unit_mesh(dim, 2)
    dets, jacs = [], []
    for _ in range(6):
        h = width(m)
        dets.append(h**dim * np.abs(m.det_jac).max())
        jacs.append(max(np.linalg.norm(m.inv_jac[e], 2)
                        for e in range(m.num_elements)) / h)
        m = refine(m)
    assert max(dets) / min(dets) - 1 < 0.01
    assert max(jacs) / min(jacs) - 1 < 0.01


def _digest(arrays):
    """sha256 over the shapes and the int64/float64 bytes of `arrays`."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        a = a.astype(np.float64 if a.dtype.kind == "f" else np.int64)
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# Pinned topology of three refinements of build_unit_mesh(1, 5) and
# build_unit_mesh(2, 3): vertex numbering, element order, boundary facet
# order and the dof layout of each order (numbering, edge orientation,
# coordinates) must not change.
_TOPOLOGY_DIGESTS = {
    (1, "mesh"): "a6229ab6abfdfee8a882b957f0978be8889a0d450af2762dcd3bc660cedf4850",
    (1, 1): "20bd4488fb0b5f13ccc0e0828abf96c91a95690d913e6b6e25969f69b4b1f278",
    (1, 2): "450c44b67ba6250777bcb33907e8e3b61b68cda60e8bed13c5c2ab8ae76d4288",
    (1, 3): "d1c8fed06b89571569e960e47a51a6dc99a27b6d84bdf437cc10bf8ed9179256",
    (2, "mesh"): "388ada19c1844ff23dcb568fdc050296738b7ce2a080138df78157b2d697adfd",
    (2, 1): "898c914d67d1bba156cdfb95e76b4ace97c76838ab5800365f4ca37a659910ab",
    (2, 2): "439d76f089d7aec5e5b107e14b328743f3a2e0aaa1c52ab7c64fdb60d1634c31",
    (2, 3): "bfde8cccd43910c6708bd716fa8e06cd8a007158320c7072e8687d3780a94c39",
}


@pytest.mark.parametrize("dim,cells", [(1, 5), (2, 3)])
def test_refined_topology_and_dofs_pinned(dim, cells):
    m = build_unit_mesh(dim, cells)
    for _ in range(3):
        m = refine(m)
    # the pinned digests hash a column of ones after the boundary facets
    markers = np.ones(len(m.boundary_facets), dtype=np.int64)
    assert _digest([m.vertices, m.elements, m.boundary_facets, markers,
                    m.parent_elements]) == _TOPOLOGY_DIGESTS[dim, "mesh"]
    for order in (1, 2, 3):
        s = make_space(m, order, 0.0)
        assert _digest([s.elem_dofs, s.boundary_dofs,
                        s.dof_coords]) == _TOPOLOGY_DIGESTS[dim, order]


def test_conformity_detects_facet_shared_by_three():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0]])
    elements = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
    m = Mesh(2, verts, elements, np.array([[0, 2], [1, 2]]))
    with pytest.raises(MeshError, match=r"facet \(0, 1\) shared by 3 > 2"):
        check_conforming(m)


def test_element_repeating_a_vertex_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshError, match="degenerate"):
        Mesh(2, verts, np.array([[0, 1, 1]]), np.array([[0, 1]]))
    with pytest.raises(MeshError, match="degenerate"):
        Mesh(1, verts[:2, :1], np.array([[1, 1]]), np.array([[1]]))


def test_nestedness_detects_child_outside_parent():
    coarse = build_unit_mesh(2, 2)
    fine = refine(coarse)
    # hand the children of the two triangles of one grid square to each
    # other: counts and volume sums still match, containment does not
    parents = fine.parent_elements.copy()
    parents[:4], parents[4:8] = 1, 0
    swapped = Mesh(2, fine.vertices, fine.elements, fine.boundary_facets,
                   parent=coarse, parent_elements=parents)
    with pytest.raises(MeshError, match="outside parent"):
        check_nested(swapped)


def test_refine_rejects_boundary_facet_that_is_no_edge():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    m = Mesh(2, verts, np.array([[0, 1, 2]]), np.array([[0, 3]]))
    with pytest.raises(MeshError, match="not a facet"):
        refine(m)
