"""Conforming simplicial meshes of (0,1)^d with uniform refinement.

Supports intervals (d=1) and triangles (d=2).  All elements are affine
images of a fixed reference simplex, so the mesh carries, per element,
the affine map data (Jacobian, its inverse, determinant) needed by
assembly and by the width/order scaling diagnostics, and the volume
ratio |T_h|/|T| that every quadrature weight is scaled by.  The 2x2
inverse and determinant are taken in closed form, not from LAPACK, so
the geometry has the same bytes on every CPU.  The mesh width is
computed on its first read and kept.

Meshes are immutable after construction and may be shared freely.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Mesh",
    "build_unit_mesh",
    "refine",
    "width",
    "check_conforming",
    "check_nested",
]

# Reference simplex measures: [0,1] for d=1, triangle (0,0),(1,0),(0,1) for d=2.
_REF_VOLUME = {1: 1.0, 2: 0.5}


class MeshError(ValueError):
    """Raised for invalid or degenerate mesh data."""


def _check_count(name, value, lowest=1, error=ValueError):
    """`value`, once checked to be an integer >= `lowest` (not a bool), or `error`."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < lowest):
        raise error(f"{name} must be an integer >= {lowest}, got {value!r}")
    return value


def _check_dim(dim):
    """`dim`, once checked to be the integer 1 or 2, not a bool."""
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim not in (1, 2):
        raise MeshError(f"dim must be 1 or 2, got {dim!r}")
    return dim


@dataclass
class Mesh:
    """Simplicial partition of a polygonal domain.

    vertices : (nv, dim) float array
    elements : (ne, dim+1) int array of vertex indices
    boundary_facets : (nb, dim) int array; vertices for d=1, edges for d=2
    parent : the mesh this one refines, set by `refine` alone, or None;
        element e is child e % 2^d of its element e // 2^d (`_CHILDREN`)
    level : refinement level, the length of the parent chain (a property;
        0 for a mesh without parent)
    """

    dim: int
    vertices: np.ndarray
    elements: np.ndarray
    boundary_facets: np.ndarray
    parent: "Mesh | None" = field(default=None, init=False)

    # geometry, filled in __post_init__ and read-only
    jac: np.ndarray = field(init=False, repr=False)       # DF_h = B^{-1}, element -> reference
    inv_jac: np.ndarray = field(init=False, repr=False)   # DF_h^{-1} = B, reference -> element
    det_jac: np.ndarray = field(init=False, repr=False)   # det DF_h = 1 / det B, ~ h^{-d}
    volume_ratio: np.ndarray = field(init=False, repr=False)  # |det DF_h|^{-1} = |T_h|/|T|
    # the longest edge, computed on the first call of `width`
    _width: "float | None" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=float)
        self.elements = np.ascontiguousarray(self.elements, dtype=np.int64)
        self.boundary_facets = np.ascontiguousarray(self.boundary_facets, dtype=np.int64)
        _check_dim(self.dim)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != self.dim:
            raise MeshError("vertices must have shape (nv, dim)")
        if self.elements.ndim != 2 or self.elements.shape[1] != self.dim + 1:
            raise MeshError("elements must have shape (ne, dim+1)")
        if self.elements.min(initial=0) < 0 or self.elements.max(initial=-1) >= len(self.vertices):
            raise MeshError("element vertex index out of range")

        # B has the edge vectors (v_i - v_0) as columns; F_h inverts x = v0 + B xref.
        # det B and B^{-1} = adj(B) / det B in closed form, elementwise IEEE
        # operations with the same bytes on every CPU; d = 1 gives b and 1 / b.
        d = self.dim
        verts = self.vertices[self.elements]                 # (ne, d+1, d)
        b_mats = np.empty((len(verts), d, d))
        np.subtract(verts[:, 1:], verts[:, :1], out=np.swapaxes(b_mats, 1, 2))
        adj = np.empty_like(b_mats)
        if d == 1:
            det_b = b_mats[:, 0, 0].copy()
            adj.fill(1.0)
        else:
            det_b = b_mats[:, 0, 0] * b_mats[:, 1, 1]
            det_b -= b_mats[:, 0, 1] * b_mats[:, 1, 0]
            adj[:, 0, 0], adj[:, 1, 1] = b_mats[:, 1, 1], b_mats[:, 0, 0]
            np.negative(b_mats[:, 0, 1], out=adj[:, 0, 1])
            np.negative(b_mats[:, 1, 0], out=adj[:, 1, 0])
        if np.any(np.abs(det_b) < 1e-14):                   # before any division
            raise MeshError("degenerate element (zero volume)")
        adj /= det_b[:, None, None]
        self.inv_jac, self.jac = b_mats, adj
        self.det_jac = np.divide(1.0, det_b, out=det_b)
        self.volume_ratio = np.abs(self.det_jac) ** -1

        for arr in (self.vertices, self.elements, self.boundary_facets,
                    self.jac, self.inv_jac, self.det_jac, self.volume_ratio):
            arr.flags.writeable = False

    @property
    def volumes(self):
        """Element volumes |T_h| = |T| * volume_ratio, computed on each read."""
        return self.volume_ratio * _REF_VOLUME[self.dim]

    @property
    def level(self):
        return 0 if self.parent is None else self.parent.level + 1

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_elements(self):
        return len(self.elements)


def build_unit_mesh(dim, cells_per_side):
    """Mesh (0,1)^dim uniformly with `cells_per_side` cells per side.

    d=1 gives equal intervals; d=2 splits each grid square into two
    triangles along the same diagonal, so all elements are congruent
    up to reflection and the width is the diagonal length.  Raises
    MeshError unless `dim` is 1 or 2 and `cells_per_side` an integer >= 1,
    neither a bool; a float is not truncated.
    """
    _check_dim(dim)
    n = _check_count("cells_per_side", cells_per_side, error=MeshError)

    if dim == 1:
        vertices = np.linspace(0.0, 1.0, n + 1)[:, None]
        elements = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    else:
        xs = np.linspace(0.0, 1.0, n + 1)
        xx, yy = np.meshgrid(xs, xs, indexing="ij")
        vertices = np.column_stack([xx.ravel(), yy.ravel()])
        # grid square (ix, iy), ix-major, splits along its v00-v11 diagonal
        ix, iy = (g.ravel() for g in np.meshgrid(np.arange(n), np.arange(n), indexing="ij"))
        v00, v10 = ix * (n + 1) + iy, (ix + 1) * (n + 1) + iy
        v01, v11 = v00 + 1, v10 + 1
        elements = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)
    facets, _, counts, _ = _facet_table(elements)
    return Mesh(dim, vertices, elements, facets[counts == 1])


# Local facets of an element: its two vertices (d=1), or the edges joining
# local vertices i and (i+1) mod 3 (d=2).
_LOCAL_FACETS = {1: [[0], [1]], 2: [[0, 1], [1, 2], [0, 2]]}


def _facet_keys(facets, n):
    """One integer per sorted vertex tuple, ordered as the tuples are."""
    keys = np.zeros(len(facets), dtype=np.int64)
    for col in facets.T:
        keys = keys * n + col
    return keys


def _facet_table(elements):
    """The (d-1)-faces of a simplicial mesh, each listed once.

    Returns the facets as sorted vertex tuples in lexicographic order
    (nf, d), the facet ids of every element (ne, d+1) in `_LOCAL_FACETS`
    order, the number of elements sharing each facet (nf,), and the
    position (nf,) of each facet's first occurrence when the elements'
    local facets are read in element order.
    """
    elements = np.asarray(elements)
    d = elements.shape[1] - 1
    local = elements[:, _LOCAL_FACETS[d]]                   # (ne, d+1, d), a copy
    if d == 2:  # sort each edge's pair in place; a d = 1 facet is one vertex
        a, b = local[..., 0], local[..., 1]
        lower = np.minimum(a, b)
        np.maximum(a, b, out=b)
        a[...] = lower
    local = local.reshape(-1, d)
    n = int(elements.max(initial=0)) + 1
    _, first, inverse, counts = np.unique(_facet_keys(local, n), return_index=True,
                                          return_inverse=True, return_counts=True)
    return local[first], inverse.reshape(-1, d + 1), counts, first


def _facet_ids(facets, query):
    """Row ids in the lexicographic `facets` table of the vertex tuples
    `query` (either orientation); MeshError if one is not a facet."""
    query = np.sort(np.asarray(query, dtype=np.int64).reshape(-1, facets.shape[1]), axis=1)
    n = int(max(facets.max(initial=0), query.max(initial=0))) + 1
    keys, wanted = _facet_keys(facets, n), _facet_keys(query, n)
    ids = np.searchsorted(keys, wanted)
    # a key above every facet's lands past the end, one between two on a mismatch
    if (ids == len(keys)).any() or (keys[ids] != wanted).any():
        raise MeshError("boundary facet is not a facet of any element")
    return ids


# refine's layout, its one owner: child k of element p is element 2^d p + k,
# and the child's local vertex v is the midpoint of the parent's local
# vertices (i, j) = _CHILDREN[d][k][v], vertex i itself where i == j
_CHILDREN = {1: (((0, 0), (0, 1)), ((0, 1), (1, 1))),
             2: (((0, 0), (0, 1), (0, 2)), ((0, 1), (1, 1), (1, 2)),
                 ((0, 2), (1, 2), (2, 2)), ((0, 1), (1, 2), (0, 2)))}


def refine(mesh):
    """Uniform red refinement: bisection (d=1) or 4 congruent children
    (d=2), laid out as `_CHILDREN` says; the result's `parent` is `mesh`.

    Vertex indices of the coarse mesh are preserved.  The edge midpoints
    are appended as vertices nv, nv+1, ... in the order in which their
    edges are first met, reading the elements' local edges in order.
    """
    d, nv, ne = mesh.dim, mesh.num_vertices, mesh.num_elements
    if d == 1:  # an interval is its own one edge
        edges, elem_edges, first = mesh.elements, np.arange(ne)[:, None], np.arange(ne)
    else:
        edges, elem_edges, _, first = _facet_table(mesh.elements)
    by_rank = np.argsort(first)
    mid = np.empty(len(edges), dtype=np.int64)
    mid[by_rank] = nv + np.arange(len(edges))
    new_vertices = 0.5 * (mesh.vertices[edges[by_rank, 0]] + mesh.vertices[edges[by_rank, 1]])

    # the element's vertices, then its edge midpoints (an interval's edge is [0, 1])
    points = np.concatenate([mesh.elements, mid[elem_edges]], axis=1)
    columns = [i if i == j else d + 1 + _LOCAL_FACETS[2].index([i, j])
               for child in _CHILDREN[d] for i, j in child]
    facets = mesh.boundary_facets
    if d == 2:  # each boundary edge (a, b) becomes (a, m), (b, m): m exceeds every old index
        fa, fb = facets.reshape(-1, 2).T
        fm = mid[_facet_ids(edges, facets)]
        facets = np.stack([fa, fm, fb, fm], axis=1).reshape(-1, 2)
    fine = Mesh(d, np.vstack([mesh.vertices, new_vertices]),
                points[:, columns].reshape(-1, d + 1), facets)
    fine.parent = mesh
    return fine


def width(mesh):
    """Longest edge over all elements, computed on the first call and kept
    on the mesh."""
    if mesh._width is None:
        i, j = np.triu_indices(mesh.dim + 1, 1)             # vertex pairs
        verts = mesh.vertices[mesh.elements]                # (ne, dim+1, dim)
        mesh._width = float(np.linalg.norm(verts[:, j] - verts[:, i], axis=-1).max())
    return mesh._width


def check_conforming(mesh):
    """Verify the partition property: element closures meet in common faces.

    Checks, by sorting (O(ne log ne)): no duplicated vertex coordinates,
    every facet shared by at most two elements, and the facets owned by
    exactly one element coincide with the declared boundary.  Degenerate
    elements, repeated vertices included, are rejected when a Mesh is
    built.  Returns True or raises MeshError describing the first violation.
    """
    verts = mesh.vertices
    order = np.lexsort(verts.T[::-1])
    same = np.all(verts[order[1:]] == verts[order[:-1]], axis=1)
    if same.any():
        # the lowest index repeating an earlier vertex, and that vertex
        k = np.flatnonzero(same)[np.argmin(order[1:][same])]
        raise MeshError(f"duplicate vertex coordinates at indices {order[k]} and {order[k + 1]}")

    facets, _, counts, first = _facet_table(mesh.elements)
    crowded = np.flatnonzero(counts > 2)
    if len(crowded):
        f = crowded[np.argmin(first[crowded])]
        raise MeshError(f"facet {tuple(int(v) for v in facets[f])} shared by "
                        f"{counts[f]} > 2 elements")
    declared = np.unique(np.sort(mesh.boundary_facets.reshape(-1, mesh.dim), axis=1), axis=0)
    if not np.array_equal(declared, facets[counts == 1]):
        raise MeshError("declared boundary facets do not match facet incidence")
    return True


def check_nested(fine):
    """Verify that `fine` is refine's refinement of its parent: 2^d
    children per parent element, each with the vertices 0.5 (x_i + x_j)
    that `_CHILDREN` names, bit for bit.  Returns True or raises
    MeshError naming the first child that differs."""
    coarse, d = fine.parent, fine.dim
    if coarse is None:
        raise MeshError("mesh has no refinement parent")
    if fine.num_elements != 2**d * coarse.num_elements:
        raise MeshError("parent element without exactly 2^d children")
    corners = coarse.vertices[coarse.elements]                 # (ne, d+1, d)
    i, j = np.moveaxis(np.array(_CHILDREN[d]), -1, 0)          # (2^d, d+1) each
    expected = 0.5 * (corners[:, i] + corners[:, j]).reshape(-1, d + 1, d)
    differs = np.any(fine.vertices[fine.elements] != expected, axis=(1, 2))
    if differs.any():
        eid = int(np.argmax(differs))
        raise MeshError(f"child {eid} has a vertex outside parent {eid >> d}'s layout")
    return True
