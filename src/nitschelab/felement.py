"""Lagrange elements of order 1..3 on the reference simplex, quadrature
rules, and the global C^0 space with exact nodal boundary data.

The reference basis is represented in the monomial basis via an inverted
Vandermonde matrix, which is well conditioned for the orders supported
here and gives values, gradients and second derivatives at arbitrary
reference points from one table.

Global degrees of freedom are laid out structurally (vertex, edge,
interior entities), edges as in the mesh's edge table, with edge dofs
ordered along ascending global vertex index so shared dofs match across
elements without coordinate hashing.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .mesh import _LOCAL_FACETS, Mesh, _check_count, _check_dim, _facet_ids, _facet_table, width

__all__ = [
    "ReferenceBasis",
    "QuadRule",
    "FESpace",
    "FEFunction",
    "reference_basis",
    "quadrature_rule",
    "make_space",
    "interpolate",
    "tabulate",
    "check_inverse_estimate",
    "sample_lattice",
]

MAX_ORDER = 3
# total degree that every space's quadrature integrates exactly, at every
# order: 2m + 2 at m = MAX_ORDER, so one rule per dimension serves them all
QUAD_DEGREE = 2 * MAX_ORDER + 2

# elements per slice in every element loop (assembly, norms, diagnostics),
# sized for rules of at most 16 points; denser point sets get fewer elements
CHUNK = 16384


def _chunks(n, npts):
    """Slices of n elements holding at most CHUNK elements and CHUNK * 16
    evaluation points (npts per element)."""
    size = max(1, min(CHUNK, CHUNK * 16 // npts))
    for start in range(0, n, size):
        yield slice(start, min(start + size, n))


# local vertex pairs forming the reference triangle's edges, lexicographic
_TRI_EDGES = ((0, 1), (0, 2), (1, 2))


def _monomial_exponents(dim, order):
    if dim == 1:
        return [(k,) for k in range(order + 1)]
    return [(a, b) for total in range(order + 1)
            for a in range(total, -1, -1) for b in (total - a,)]


def _reference_nodes(dim, order):
    """Nodes grouped by entity: vertices, then edges (ascending local
    vertex pair, parameter t = k/order), then interior nodes."""
    if dim == 1:
        nodes = [(0.0,), (1.0,)]
        # 1d interior nodes play the role of edge nodes keyed per element
        entity = [("vertex", 0), ("vertex", 1)]
        for k in range(1, order):
            nodes.append((k / order,))
            entity.append(("interior", k - 1))
        return np.array(nodes), entity

    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    nodes = [tuple(v) for v in verts]
    entity = [("vertex", i) for i in range(3)]
    for le, (a, b) in enumerate(_TRI_EDGES):
        for k in range(1, order):
            t = k / order
            nodes.append(tuple(verts[a] + t * (verts[b] - verts[a])))
            entity.append(("edge", le, k))
    if order >= 3:
        nodes.append((1.0 / 3.0, 1.0 / 3.0))
        entity.append(("interior", 0))
    return np.array(nodes), entity


@dataclass(frozen=True)
class ReferenceBasis:
    """Lagrange basis on the reference simplex.

    `coeffs[k, i]` is the coefficient of monomial k in basis function i,
    so phi_i(node_j) = delta_ij by construction.
    """

    dim: int
    order: int
    nodes: np.ndarray
    node_entities: tuple
    exponents: tuple
    coeffs: np.ndarray

    @property
    def n_local(self):
        return len(self.nodes)

    def values(self, pts):
        """(npts, n_local) basis values."""
        return _monomials(self.exponents, pts) @ self.coeffs

    def gradients(self, pts):
        """(npts, n_local, dim) reference gradients."""
        return np.stack([self._derivative(pts, a) for a in range(self.dim)], axis=-1)

    def hessians(self, pts):
        """(npts, n_local, dim, dim) reference second derivatives."""
        return np.stack([np.stack([self._derivative(pts, a, b) for b in range(self.dim)],
                                  axis=-1) for a in range(self.dim)], axis=-2)

    def _derivative(self, pts, *axes):
        """(npts, n_local) derivative of the basis along `axes`."""
        dx = tuple(axes.count(a) for a in range(self.dim))
        return _monomials(self.exponents, pts, dx=dx) @ self.coeffs


def _monomials(exponents, pts, dx=(0, 0)):
    """(npts, len(exponents)) table of the dx-derivative of every monomial
    at every point."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    out = np.empty((len(pts), len(exponents)))
    for k, exps in enumerate(exponents):
        col = np.ones(len(pts))
        for axis, e in enumerate(exps):
            d = dx[axis]
            if e < d:
                col = np.zeros(len(pts))
                break
            col = col * math.perm(e, d) * pts[:, axis] ** (e - d)
        out[:, k] = col
    return out


_BASIS_CACHE = {}


def reference_basis(dim, order):
    """Lagrange basis of `order` on the reference simplex, one per (dim, order);
    ValueError unless `dim` is 1 or 2 and `order` an integer in 1..MAX_ORDER (no bools)."""
    _check_dim(dim)
    if _check_count("order", order) > MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}, got {order}")
    key = (dim, order)
    basis = _BASIS_CACHE.get(key)
    if basis is None:
        nodes, entities = _reference_nodes(dim, order)
        exponents = tuple(_monomial_exponents(dim, order))
        coeffs = np.linalg.inv(_monomials(exponents, nodes))
        basis = ReferenceBasis(dim, order, nodes, tuple(entities), exponents, coeffs)
        _BASIS_CACHE[key] = basis
    return basis


# ---------------------------------------------------------------------------
# quadrature


@dataclass(frozen=True)
class QuadRule:
    """Positive-weight rule on the reference simplex; weights sum to |T|."""

    dim: int
    points: np.ndarray
    weights: np.ndarray
    exactness_degree: int


# Symmetric triangle rules with positive weights (Dunavant).  Orbits are
# given in barycentric form; degrees 3 and 7 are skipped because the
# classical rules of those degrees carry a negative weight.
_TRI_ORBITS = {
    1: [("center", 1.0)],
    2: [("s3", 1.0 / 6.0, 1.0 / 3.0)],
    4: [("s3", 0.445948490915965, 0.223381589678011),
        ("s3", 0.091576213509771, 0.109951743655322)],
    5: [("center", 0.225),
        ("s3", 0.470142064105115, 0.132394152788506),
        ("s3", 0.101286507323456, 0.125939180544827)],
    6: [("s3", 0.249286745170910, 0.116786275726379),
        ("s3", 0.063089014491502, 0.050844906370207),
        ("s6", 0.310352451033785, 0.053145049844816, 0.082851075618374)],
    8: [("center", 0.14431560767776097),
        ("s3", 0.4592925882927089, 0.09509163426729944),
        ("s3", 0.1705693077517449, 0.10321737053472559),
        ("s3", 0.05054722831703234, 0.03245849762320077),
        ("s6", 0.26311282963468774, 0.008394777409931537, 0.027230314174426944)],
}


def _triangle_rule(degree):
    table_deg = min((d for d in _TRI_ORBITS if d >= degree), default=None)
    if table_deg is None:
        return _collapsed_triangle_rule(degree)
    points, weights = [], []
    for kind, *data in _TRI_ORBITS[table_deg]:
        if kind == "center":
            bary, w = (1 / 3, 1 / 3, 1 / 3), data[0]
        elif kind == "s3":
            a, w = data
            bary = (a, a, 1.0 - 2.0 * a)
        else:
            a, b, w = data
            bary = (a, b, 1.0 - a - b)
        # each distinct ordering of the orbit's barycentric coordinates
        for perm in dict.fromkeys(itertools.permutations(bary)):
            points.append(perm[1:])
            weights.append(w)
    return QuadRule(2, np.array(points), 0.5 * np.array(weights), table_deg)


def _collapsed_triangle_rule(degree):
    """Gauss product rule under the Duffy map; positive but not symmetric.

    Only used beyond the tabulated symmetric degrees.
    """
    n = (degree + 3) // 2
    x, wx = leggauss(n)
    u, wu = 0.5 * (x + 1.0), 0.5 * wx
    uu, vv = np.meshgrid(u, u, indexing="ij")
    ww = np.outer(wu, wu) * (1.0 - uu)
    pts = np.column_stack([uu.ravel(), (vv * (1.0 - uu)).ravel()])
    return QuadRule(2, pts, ww.ravel(), degree)


_RULES = {}


def quadrature_rule(dim, degree):
    """Smallest available rule integrating total degree `degree` exactly;
    one read-only rule per (dim, degree) and process."""
    _check_dim(dim)
    degree = max(_check_count("degree", degree, lowest=0), 1)
    rule = _RULES.get((dim, degree))
    if rule is None:
        if dim == 1:
            n = (degree + 2) // 2
            x, w = leggauss(n)
            rule = QuadRule(1, (0.5 * (x + 1.0))[:, None], 0.5 * w, 2 * n - 1)
        else:
            rule = _triangle_rule(degree)
        _owned(rule.points)
        rule.weights.flags.writeable = False
        _RULES[dim, degree] = rule
    return rule


# sup-norm lattice: 16 points on [0,1]; 13 steps per triangle side,
# (13+1)(13+2)/2 = 105 points
_LATTICE_N = {1: 16, 2: 13}
_LATTICES = {}


def sample_lattice(dim):
    """Dense reference lattice used for sup-norm estimates (>= 10^d points);
    one read-only array per dim and process."""
    pts = _LATTICES.get(_check_dim(dim))
    if pts is None:
        n = _LATTICE_N[dim]
        if dim == 1:
            pts = np.linspace(0.0, 1.0, n)[:, None]
        else:
            pts = np.array([(i / n, j / n) for i in range(n + 1) for j in range(n + 1 - i)])
        pts = _LATTICES[dim] = _owned(pts)
    return pts


def _squared_norms(vecs):
    """Squared Euclidean norm of each vector along the last (length-d)
    axis, summed component by component in the order np.linalg.norm sums
    them; numpy reduces a length-d axis one point at a time."""
    sq = vecs[..., 0] * vecs[..., 0]
    for i in range(1, vecs.shape[-1]):
        sq += vecs[..., i] * vecs[..., i]
    return sq


# ---------------------------------------------------------------------------
# reference tables

# Tables of a reference basis at a point set the package owns (the rules of
# quadrature_rule, the sample lattices) are built once per process and kept
# read-only; any other points, one-off points passed to `tabulate`, get a
# fresh table per call, so the cache cannot grow with them.
_OWNED_POINTS = {}
_TABLES = {}


def _owned(points):
    """Register a package-made point array: read-only, and kept alive, so
    its id names it for the life of the process."""
    points.flags.writeable = False
    _OWNED_POINTS[id(points)] = points
    return points


def _is_owned(points):
    return _OWNED_POINTS.get(id(points)) is points


def _rule_table(build, basis, pts):
    """build(basis, pts), once per (build, basis, owned point set)."""
    if not _is_owned(pts) or _BASIS_CACHE.get((basis.dim, basis.order)) is not basis:
        return build(basis, pts)
    key = (build, basis.dim, basis.order, id(pts))
    table = _TABLES.get(key)
    if table is None:
        table = _TABLES[key] = build(basis, pts)
        table.flags.writeable = False
    return table


def _build_reference_table(basis, pts):
    return np.concatenate([basis.gradients(pts), basis.values(pts)[..., None]], axis=-1)


def _reference_table(basis, pts):
    """(npts, n_local, dim + 1) table of the reference gradients, then the
    values, of every basis function at every point."""
    return _rule_table(_build_reference_table, basis, pts)


# ---------------------------------------------------------------------------
# global space


@dataclass
class FESpace:
    """Global order-m Lagrange space on a mesh, with nodal boundary data.

    dof_coords : (ndof, dim) coordinates of the Lagrange nodes
    elem_dofs : (ne, n_local) local-to-global dof map
    boundary_dofs : sorted indices of dofs on the Dirichlet boundary
    boundary_values : prescribed values at those dofs

    `quad` is the rule of every kernel and norm on the space.  The order
    is the basis's.  `_cache` holds data that depends only on the space,
    made on first use: `assembly` keeps there the CSR skeleton, the one
    pattern of every operator on the space, masked or not, the Laplace
    stiffness, and the load vector int f phi_i of each forcing f of a
    forced energy model.  It assumes `mesh`, `quad`
    and the dof arrays are never reassigned after construction.
    To integrate with another rule, make another space,
    `dataclasses.replace(space, quad=rule)`: `_cache` is an `init=False`
    field, so the copy's starts empty.
    """

    mesh: Mesh
    basis: ReferenceBasis
    dof_coords: np.ndarray
    elem_dofs: np.ndarray
    boundary_dofs: np.ndarray
    boundary_values: np.ndarray
    quad: QuadRule = field(repr=False)
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for arr in (self.dof_coords, self.elem_dofs, self.boundary_dofs,
                    self.boundary_values):
            arr.flags.writeable = False

    @property
    def order(self):
        return self.basis.order

    @property
    def dim(self):
        return int(self.dof_coords.shape[0])

    @property
    def interior_mask(self):
        mask = np.ones(self.dim, dtype=bool)
        mask[self.boundary_dofs] = False
        return mask

    def zero_function(self):
        return FEFunction(self, np.zeros(self.dim))

    def with_boundary_values(self, interior=0.0):
        """Coefficient vector carrying the boundary data, `interior` elsewhere."""
        coeffs = np.full(self.dim, float(interior))
        coeffs[self.boundary_dofs] = self.boundary_values
        return FEFunction(self, coeffs)


@dataclass
class FEFunction:
    """Coefficient vector over an FESpace."""

    space: FESpace
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.space.dim,):
            raise ValueError("coefficient vector does not match space dimension")

    def copy(self):
        return FEFunction(self.space, self.coeffs.copy())


def make_space(mesh, order, boundary_fn=0.0):
    """Build the global C^0 Lagrange space of the given order.

    boundary_fn may be a callable of a coordinate array or a constant;
    its nodal values become the prescribed boundary data (the boundary
    trace is assumed exactly representable at the Lagrange nodes).  It
    must give one finite value per boundary dof, or a single one for all.

    Quadrature integrates total degree QUAD_DEGREE = 8 at every order.
    That is 2m+2 at m = MAX_ORDER = 3, the mass integrand's degree 2m with
    two to spare; below m = 3 the exactness over 2m+2 keeps the quadrature
    error of smooth non-polynomial data (forcing, potential terms) below
    solver tolerance even on coarse meshes, so integrated-orthogonality
    identities between nested discrete minimizers hold at solver
    precision.  Raises ValueError unless `order` is an integer in
    1..MAX_ORDER, not a bool (a float is not truncated), and boundary_fn's
    values are as above.
    """
    basis = reference_basis(mesh.dim, order)
    elements, ne = mesh.elements, mesh.num_elements
    dof_coords = [mesh.vertices]
    boundary = [mesh.boundary_facets.ravel()]

    if mesh.dim == 2 and order >= 2:
        # edge i of the facet table owns dofs edge_dofs[i], nodes running
        # from its lower to its higher vertex index
        edges, elem_edges, _, _ = _facet_table(elements)
        va, vb = mesh.vertices[edges[:, 0]], mesh.vertices[edges[:, 1]]
        dof_coords.append(np.stack([va + (k / order) * (vb - va) for k in range(1, order)],
                                   axis=1).reshape(-1, mesh.dim))
        edge_dofs = mesh.num_vertices + np.arange(len(edges) * (order - 1)).reshape(len(edges), -1)
        boundary.append(edge_dofs[_facet_ids(edges, mesh.boundary_facets)].ravel())

    n_interior = _interior_count(mesh.dim, order)
    interior_base = sum(map(len, dof_coords))
    if n_interior:
        dof_coords.append(_interior_coords(mesh, order))

    dof_coords = np.vstack(dof_coords)

    elem_dofs = np.empty((ne, basis.n_local), dtype=np.int64)
    for l, ent in enumerate(basis.node_entities):
        if ent[0] == "vertex":
            elem_dofs[:, l] = elements[:, ent[1]]
        elif ent[0] == "edge":
            pair = _TRI_EDGES[ent[1]]
            a, b = elements[:, pair[0]], elements[:, pair[1]]
            k = np.where(a > b, order - ent[2], ent[2])
            elem_dofs[:, l] = edge_dofs[elem_edges[:, _LOCAL_FACETS[2].index(list(pair))], k - 1]
        else:  # interior
            elem_dofs[:, l] = interior_base + np.arange(ne) * n_interior + ent[1]

    boundary_dofs = np.unique(np.concatenate(boundary))

    fn = boundary_fn if callable(boundary_fn) else (lambda x, c=float(boundary_fn): np.full(len(x), c))
    boundary_values = np.asarray(fn(dof_coords[boundary_dofs]), dtype=float).reshape(-1)
    if boundary_values.size not in (1, len(boundary_dofs)):
        raise ValueError(f"boundary_fn must give one value per boundary dof ({len(boundary_dofs)}) "
                         f"or a single one, got {boundary_values.size}")
    if not np.all(np.isfinite(boundary_values)):
        raise ValueError("boundary_fn must give finite values")

    quad = quadrature_rule(mesh.dim, QUAD_DEGREE)
    return FESpace(mesh, basis, dof_coords, elem_dofs, boundary_dofs,
                   boundary_values, quad)


def _interior_count(dim, order):
    if dim == 1:
        return max(order - 1, 0)
    return 1 if order >= 3 else 0


def _interior_coords(mesh, order):
    verts = mesh.vertices[mesh.elements]
    if mesh.dim == 1:
        # element-private nodes at k/order in the element's own orientation
        a, b = verts[:, 0], verts[:, 1]
        cols = [a + (k / order) * (b - a) for k in range(1, order)]
        return np.stack(cols, axis=1).reshape(-1, 1)
    return verts.mean(axis=1)


def interpolate(space, g):
    """Nodal interpolant of g; reproduces polynomials up to the space order."""
    vals = np.asarray(g(space.dof_coords), dtype=float).reshape(-1)
    if not np.all(np.isfinite(vals)):
        bad = int(np.flatnonzero(~np.isfinite(vals))[0])
        raise ValueError(f"non-finite value at node {bad}, coord {space.dof_coords[bad]}")
    return FEFunction(space, vals)


def tabulate(space, coeffs, ref_pts, sl=slice(None), gradients=True):
    """Values (ne, npts) and physical gradients (ne, npts, dim) of the
    coefficient vector `coeffs` at shared reference points on the elements
    selected by `sl`; every FE evaluation in the package goes through here.
    Without `gradients` only the values are computed, and None stands in
    for the gradients.  Raises ValueError unless `coeffs` has shape
    (space.dim,) and `ref_pts` shape (npts, d) with npts >= 1."""
    coeffs, ref_pts = np.asarray(coeffs), np.asarray(ref_pts)
    if coeffs.shape != (space.dim,) or ref_pts.shape[1:] != (space.mesh.dim,) \
            or not len(ref_pts):
        raise ValueError(f"tabulate needs coeffs of shape ({space.dim},) and ref_pts of "
                         f"shape (npts >= 1, {space.mesh.dim}), got {coeffs.shape} "
                         f"and {ref_pts.shape}")
    local = coeffs[space.elem_dofs[sl]]                        # (ne, nloc)
    tab = _reference_table(space.basis, ref_pts)
    if not gradients:
        return local @ tab[:, :, -1].T, None
    npts, nloc, m = tab.shape
    ref = (local @ tab.transpose(1, 0, 2).reshape(nloc, -1)).reshape(-1, npts, m)
    return ref[..., -1], ref[..., :-1] @ space.mesh.jac[sl]


def check_inverse_estimate(space, trials, seed=0):
    """Largest observed ratio ||v||_{W^{1,inf}(T)} / (h^{-d/2} ||v||_{W^{1,2}(T)})
    over random discrete functions and all elements.

    The sup norm is sampled on a dense reference lattice; the W^{1,2} norm
    uses the space's quadrature.  The ratio is bounded uniformly in h for
    shape-regular meshes, which the level-stability tests verify.
    """
    _check_count("trials", trials)
    rng = np.random.default_rng(_check_count("seed", seed, lowest=0))
    mesh = space.mesh
    d = mesh.dim
    h = width(mesh)
    lattice = sample_lattice(d)
    qpts, qw = space.quad.points, space.quad.weights

    max_ratio = 0.0
    for _ in range(trials):
        coeffs = rng.standard_normal(space.dim)
        for sl in _chunks(mesh.num_elements, len(lattice)):
            vals_l, grads_l = tabulate(space, coeffs, lattice, sl)
            sup = np.maximum(np.abs(vals_l).max(axis=1),
                             np.sqrt(_squared_norms(grads_l).max(axis=1)))

            vals_q, grads_q = tabulate(space, coeffs, qpts, sl)
            dens = vals_q**2 + _squared_norms(grads_q)
            w12 = np.sqrt(mesh.volume_ratio[sl] * (dens @ qw))

            ratio = sup / (h ** (-d / 2) * w12)
            max_ratio = max(max_ratio, float(ratio.max()))
    return max_ratio
