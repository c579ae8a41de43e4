"""Conforming simplicial meshes of (0,1)^d with uniform refinement.

Supports intervals (d=1) and triangles (d=2).  All elements are affine
images of a fixed reference simplex, so the mesh carries, per element,
the affine map data (Jacobian, offset, determinant) needed by assembly
and by the width/order scaling diagnostics.

Meshes are immutable after construction and may be shared freely.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Mesh",
    "ElementMap",
    "build_unit_mesh",
    "refine",
    "width",
    "element_map",
    "check_conforming",
    "check_nested",
    "dump_mesh",
    "load_mesh",
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
    boundary_markers : (nb,) int array
    parent : the coarser mesh this one refines, or None
    parent_elements : (ne,) int array mapping each element to its parent
        element id, or None on level 0
    level : refinement level, the length of the parent chain (a property;
        0 for a mesh without parent)
    """

    dim: int
    vertices: np.ndarray
    elements: np.ndarray
    boundary_facets: np.ndarray
    boundary_markers: np.ndarray
    parent: "Mesh | None" = None
    parent_elements: np.ndarray | None = None

    # geometry caches, filled in __post_init__
    jac: np.ndarray = field(init=False, repr=False)       # DF_h, element -> reference
    inv_jac: np.ndarray = field(init=False, repr=False)   # DF_h^{-1}, reference -> element
    det_jac: np.ndarray = field(init=False, repr=False)   # det DF_h, ~ h^{-d}
    volumes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=float)
        self.elements = np.ascontiguousarray(self.elements, dtype=np.int64)
        self.boundary_facets = np.ascontiguousarray(self.boundary_facets, dtype=np.int64)
        self.boundary_markers = np.ascontiguousarray(self.boundary_markers, dtype=np.int64)
        _check_dim(self.dim)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != self.dim:
            raise MeshError("vertices must have shape (nv, dim)")
        if self.elements.ndim != 2 or self.elements.shape[1] != self.dim + 1:
            raise MeshError("elements must have shape (ne, dim+1)")
        if self.elements.min(initial=0) < 0 or self.elements.max(initial=-1) >= len(self.vertices):
            raise MeshError("element vertex index out of range")

        # B has the edge vectors (v_i - v_0) as columns; F_h inverts x = v0 + B xref.
        verts = self.vertices[self.elements]                 # (ne, dim+1, dim)
        edge_vecs = verts[:, 1:, :] - verts[:, :1, :]        # (ne, dim, dim) rows are edges
        b_mats = np.swapaxes(edge_vecs, 1, 2)                # columns are edges
        det_b = np.linalg.det(b_mats)
        if np.any(np.abs(det_b) < 1e-14):
            raise MeshError("degenerate element (zero volume)")
        self.inv_jac = b_mats
        self.jac = np.linalg.inv(b_mats)
        self.det_jac = 1.0 / det_b
        self.volumes = np.abs(det_b) * _REF_VOLUME[self.dim]

        for arr in (self.vertices, self.elements, self.boundary_facets,
                    self.boundary_markers, self.jac, self.inv_jac,
                    self.det_jac, self.volumes):
            arr.flags.writeable = False

    @property
    def level(self):
        return 0 if self.parent is None else self.parent.level + 1

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_elements(self):
        return len(self.elements)

    def element_vertices(self, element_id):
        return self.vertices[self.elements[element_id]]


@dataclass(frozen=True)
class ElementMap:
    """Affine map F_h from one element onto the reference simplex.

    F_h(x) = affine_part @ x + offset maps the element to the reference;
    det = det(affine_part) scales like h^{-d}.  The inverse map takes
    reference coordinates back into the element.
    """

    element_id: int
    affine_part: np.ndarray
    offset: np.ndarray
    det: float

    def to_reference(self, x):
        return self.affine_part @ np.asarray(x, dtype=float) + self.offset

    def from_reference(self, xref):
        return np.linalg.solve(self.affine_part, np.asarray(xref, dtype=float) - self.offset)


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
    boundary = facets[counts == 1]
    return Mesh(dim, vertices, elements, boundary, np.ones(len(boundary), dtype=np.int64))


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
    local = np.sort(elements[:, _LOCAL_FACETS[d]], axis=2).reshape(-1, d)
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
    if not np.isin(wanted, keys).all():
        raise MeshError("boundary facet is not a facet of any element")
    return np.searchsorted(keys, wanted)


def refine(mesh):
    """Uniform red refinement: bisection (d=1) or 4 congruent children (d=2).

    Vertex indices of the coarse mesh are preserved; new midpoint vertices
    are appended.  Child elements record their parent element id and the
    mesh records its parent, so nested hierarchies can be walked.
    """
    if mesh.dim == 1:
        return _refine_interval(mesh)
    return _refine_triangles(mesh)


def _refine_interval(mesh):
    nv, ne = mesh.num_vertices, mesh.num_elements
    mids = 0.5 * (mesh.vertices[mesh.elements[:, 0]] + mesh.vertices[mesh.elements[:, 1]])
    m = nv + np.arange(ne)
    elements = np.stack([mesh.elements[:, 0], m, m, mesh.elements[:, 1]], axis=1)
    return Mesh(
        1,
        np.vstack([mesh.vertices, mids]),
        elements.reshape(-1, 2),
        mesh.boundary_facets.copy(),
        mesh.boundary_markers.copy(),
        parent=mesh,
        parent_elements=np.repeat(np.arange(ne), 2),
    )


def _refine_triangles(mesh):
    """Midpoint vertices are numbered nv, nv+1, ... in the order in which
    their edges are first met, reading the elements' edges in order."""
    nv, ne = mesh.num_vertices, mesh.num_elements
    edges, elem_edges, _, first = _facet_table(mesh.elements)
    by_rank = np.argsort(first)
    mid = np.empty(len(edges), dtype=np.int64)
    mid[by_rank] = nv + np.arange(len(edges))
    new_vertices = 0.5 * (mesh.vertices[edges[by_rank, 0]] + mesh.vertices[edges[by_rank, 1]])

    a, b, c = mesh.elements.T
    mab, mbc, mac = mid[elem_edges].T
    elements = np.stack([a, mab, mac, mab, b, mbc, mac, mbc, c, mab, mbc, mac], axis=1)

    # each boundary edge (a, b) becomes (a, m), (b, m): m exceeds every old index
    fa, fb = mesh.boundary_facets.reshape(-1, 2).T
    fm = mid[_facet_ids(edges, mesh.boundary_facets)]
    facets = np.stack([fa, fm, fb, fm], axis=1)
    return Mesh(
        2,
        np.vstack([mesh.vertices, new_vertices]),
        elements.reshape(-1, 3),
        facets.reshape(-1, 2),
        np.repeat(mesh.boundary_markers, 2),
        parent=mesh,
        parent_elements=np.repeat(np.arange(ne), 4),
    )


def width(mesh):
    """Longest edge over all elements."""
    i, j = np.triu_indices(mesh.dim + 1, 1)                 # vertex pairs
    verts = mesh.vertices[mesh.elements]                    # (ne, dim+1, dim)
    return float(np.linalg.norm(verts[:, j] - verts[:, i], axis=-1).max())


def element_map(mesh, element_id):
    """Affine map data for one element.

    The forward Jacobian `affine_part` sends the element onto the
    reference simplex, so |det| ~ h^{-d} while the inverse map's
    derivative norm scales like h (the order-m scaling of the grid;
    affine maps realize it trivially, all higher derivatives vanish).
    """
    eid = int(element_id)
    if not 0 <= eid < mesh.num_elements:
        raise IndexError(f"element id {eid} out of range")
    jac = mesh.jac[eid]
    v0 = mesh.vertices[mesh.elements[eid, 0]]
    return ElementMap(eid, jac.copy(), -(jac @ v0), float(mesh.det_jac[eid]))


def _pull(a, jac):
    """a J^T on every element, for a (e, ..., d) and J (e, d, d): d
    broadcast products, where a batched matmul would make one tiny BLAS
    call per element."""
    d = jac.shape[-1]
    shape = (len(jac),) + (1,) * (a.ndim - 2) + (d,)
    out = a[..., 0, None] * jac[:, :, 0].reshape(shape)
    for i in range(1, d):
        out += a[..., i, None] * jac[:, :, i].reshape(shape)
    return out


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
    """Verify the refinement hierarchy between `fine` and its parent.

    Each parent element must own the right number of children, children
    volumes must sum to the parent volume, and every child vertex must lie
    in the closure of its parent element (barycentric coordinates in
    [0,1] up to rounding).
    """
    coarse = fine.parent
    if coarse is None or fine.parent_elements is None:
        raise MeshError("mesh has no refinement parent")
    expected = 2 ** fine.dim
    child_counts = np.bincount(fine.parent_elements, minlength=coarse.num_elements)
    if not np.all(child_counts == expected):
        raise MeshError("parent element without exactly 2^d children")

    vol_sums = np.bincount(fine.parent_elements, fine.volumes, minlength=coarse.num_elements)
    if not np.allclose(vol_sums, coarse.volumes, rtol=1e-12, atol=0):
        raise MeshError("child volumes do not sum to parent volume")

    tol = 1e-12
    pid = fine.parent_elements
    v0 = coarse.vertices[coarse.elements[pid, 0]]
    rel = fine.vertices[fine.elements] - v0[:, None, :]            # (ne, d+1, d)
    ref = _pull(rel, coarse.jac[pid])
    outside = np.any((ref.min(axis=2) < -tol) | (ref.sum(axis=2) > 1.0 + tol), axis=1)
    if outside.any():
        eid = int(np.argmax(outside))
        raise MeshError(f"child {eid} vertex outside parent {pid[eid]}")
    return True


def dump_mesh(mesh, path):
    """Write the plain-text mesh format.

    One line per vertex (`v x [y]`), element (`e i0 i1 [i2]`) and boundary
    facet (`b i0 [i1] marker`).  Floats use their shortest exact decimal
    representation, so a dump/load round trip is bit-exact.
    """
    lines = []
    for v in mesh.vertices:
        lines.append("v " + " ".join(repr(float(c)) for c in v))
    for e in mesh.elements:
        lines.append("e " + " ".join(str(int(i)) for i in e))
    for f, m in zip(mesh.boundary_facets, mesh.boundary_markers):
        lines.append("b " + " ".join(str(int(i)) for i in f) + f" {int(m)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_mesh(path):
    """Read the plain-text format written by dump_mesh.  A malformed record
    raises MeshError naming its line; the first vertex sets the dimension."""
    records = {"v": [], "e": [], "b": []}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            tag, data = parts[0], parts[1:]
            if tag not in records:
                raise MeshError(f"{path}:{lineno}: unknown record {tag!r}")
            try:
                records[tag].append((lineno, [(float if tag == "v" else int)(c) for c in data]))
            except ValueError:
                raise MeshError(f"{path}:{lineno}: non-numeric field in {tag!r} record") from None
    if not records["v"] or not records["e"]:
        raise MeshError(f"{path}: no vertices or elements")
    dim = len(records["v"][0][1])
    widths = {"v": dim, "e": dim + 1, "b": dim + 1}
    for tag, width in widths.items():
        for lineno, row in records[tag]:
            if len(row) != width:
                raise MeshError(f"{path}:{lineno}: {tag!r} record: {len(row)} fields, not {width}")
    v, e, b = ([row for _, row in records[tag]] for tag in "veb")
    return Mesh(dim, np.array(v), np.array(e), np.array([row[:-1] for row in b]),
                np.array([row[-1] for row in b]))
