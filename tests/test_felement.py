from dataclasses import replace
from math import factorial

import numpy as np
import pytest

from nitschelab import assembly, felement
from nitschelab.felement import (FEFunction, check_inverse_estimate, interpolate,
                                 make_space, quadrature_rule, reference_basis,
                                 sample_lattice, tabulate)
from nitschelab.mesh import Mesh, build_unit_mesh, refine, width
from nitschelab.analysis import estimate_rate


def exact_monomial_integral(dim, exps):
    if dim == 1:
        return 1.0 / (exps[0] + 1)
    a, b = exps
    return factorial(a) * factorial(b) / factorial(a + b + 2)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_lagrange_and_partition_of_unity(dim, order):
    basis = reference_basis(dim, order)
    vals = basis.values(basis.nodes)
    assert np.allclose(vals, np.eye(basis.n_local), atol=1e-12)
    pts = sample_lattice(dim)
    assert np.allclose(basis.values(pts).sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(basis.gradients(pts).sum(axis=1), 0.0, atol=1e-12)


@pytest.mark.parametrize("order", [0, 4, True, 2.5])
def test_reference_basis_rejects_an_order_outside_1_to_3(order):
    """True used to be built and cached under the P1 key, with order True,
    and 2.5 to fail with a TypeError from `range`."""
    with pytest.raises(ValueError, match="order must be"):
        reference_basis(2, order)
    assert reference_basis(2, 1).order == 1 and type(reference_basis(2, 1).order) is int


@pytest.mark.parametrize("cached", [False, True])
@pytest.mark.parametrize("dim", [0, 3, True, 1.0])
def test_reference_data_rejects_a_dim_other_than_1_or_2(monkeypatch, dim, cached):
    """The per-dim caches are keyed after the check: dim 3 used to give a
    3-node basis and dim 0 a 1-node one, True the P1 interval basis, True
    and 1.0 the interval rule once (1, 8) was cached but MeshError before,
    and sample_lattice(3) a bare KeyError."""
    for cache in ("_BASIS_CACHE", "_RULES", "_LATTICES"):
        monkeypatch.setattr(felement, cache, {})
    if cached:
        reference_basis(1, 1)
        quadrature_rule(1, 8)
        sample_lattice(1)
    for make in (lambda: reference_basis(dim, 1), lambda: quadrature_rule(dim, 8),
                 lambda: sample_lattice(dim)):
        with pytest.raises(ValueError, match="dim must be 1 or 2"):
            make()


@pytest.mark.parametrize("degree", [2.5, True, -3])
def test_quadrature_degree_must_be_an_integer_of_at_least_0(degree):
    """2.5 used to return the degree-2 rule, and True and -3 the degree-1
    rule."""
    with pytest.raises(ValueError, match="degree must be an integer >= 0, got "):
        quadrature_rule(2, degree)
    with pytest.raises(ValueError, match="degree must be an integer >= 0, got "):
        assembly.integrate(build_unit_mesh(2, 2), lambda x: x[:, 0], degree=degree)


@pytest.mark.parametrize("dim", [1, 2])
def test_quadrature_degree_0_is_the_one_point_rule(dim):
    rule = quadrature_rule(dim, 0)
    assert rule is quadrature_rule(dim, 1) and len(rule.weights) == 1
    assert quadrature_rule(dim, np.int64(3)) is quadrature_rule(dim, 3)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("degree", list(range(1, 11)))
def test_quadrature_exactness_and_weights(dim, degree):
    rule = quadrature_rule(dim, degree)
    assert rule.exactness_degree >= degree
    assert np.all(rule.weights > 0)
    ref_measure = 1.0 if dim == 1 else 0.5
    assert rule.weights.sum() == pytest.approx(ref_measure, abs=1e-13)
    for total in range(rule.exactness_degree + 1):
        for a in range(total + 1):
            exps = (a,) if dim == 1 else (a, total - a)
            if dim == 1 and a != total:
                continue
            mono = np.ones(len(rule.weights))
            for axis, e in enumerate(exps):
                mono *= rule.points[:, axis] ** e
            assert rule.weights @ mono == pytest.approx(
                exact_monomial_integral(dim, exps), abs=1e-13)


def test_make_space_interval_m1():
    space = make_space(build_unit_mesh(1, 8), 1, 0.0)
    assert space.dim == 9
    assert len(space.boundary_dofs) == 2
    assert np.all(space.boundary_values == 0.0)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_space_order_is_the_basis_order(dim, order):
    space = make_space(build_unit_mesh(dim, 2), order, 0.0)
    assert space.order == space.basis.order == order
    assert replace(space, quad=felement.quadrature_rule(dim, 12)).order == order


def test_make_space_square_m2_dim():
    # 9 vertices + 16 edge midpoints on the 8-triangle mesh
    space = make_space(build_unit_mesh(2, 2), 2, 0.0)
    assert space.dim == 25


def test_make_space_constant_boundary():
    space = make_space(build_unit_mesh(2, 2), 2, 3.5)
    assert np.all(space.boundary_values == 3.5)
    # a callable's single value is broadcast over the boundary dofs
    space = make_space(build_unit_mesh(2, 4), 1, lambda x: 2.0)
    assert np.all(space.with_boundary_values().coeffs[space.boundary_dofs] == 2.0)


@pytest.mark.parametrize("boundary_fn, message", [
    (lambda x: np.ones(3), r"one value per boundary dof \(16\) or a single one, got 3"),
    (lambda x: np.full(len(x), np.nan), "finite"),
    (lambda x: np.where(x[:, 0] > 0.5, np.inf, 0.0), "finite"),
    (np.nan, "finite"),
], ids=["three-values", "nan", "inf", "nan-constant"])
def test_make_space_rejects_boundary_data_of_the_wrong_size_or_not_finite(
        boundary_fn, message):
    """3 values for the 16 boundary dofs of a 4x4 P1 mesh used to fail
    later in `minimize` with numpy's shape mismatch, and NaN data as an
    AssemblyError in the first residual."""
    with pytest.raises(ValueError, match=f"boundary_fn must give {message}"):
        make_space(build_unit_mesh(2, 4), 1, boundary_fn)


def test_make_space_shared_interface_dofs():
    # C^0: every interior facet's dofs appear in both neighbour elements
    mesh = build_unit_mesh(2, 2)
    space = make_space(mesh, 3, 0.0)
    seen = {}
    for eid in range(mesh.num_elements):
        for dof in space.elem_dofs[eid]:
            seen.setdefault(int(dof), set()).add(eid)
    shared = [d for d, owners in seen.items() if len(owners) > 1]
    assert len(shared) > 0
    for dof in shared:
        for eid in seen[dof]:
            local = int(np.flatnonzero(space.elem_dofs[eid] == dof)[0])
            v0 = mesh.vertices[mesh.elements[eid, 0]]
            node = v0 + mesh.inv_jac[eid] @ space.basis.nodes[local]
            assert np.allclose(space.dof_coords[dof], node, atol=1e-14)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_make_space_dofs_sit_at_element_nodes_in_any_orientation(order):
    """Every local dof maps to the global node at that element's physical
    node position, also when elements, their local vertex order and the
    boundary facets come in scrambled order and orientation."""
    rng = np.random.default_rng(4)
    base = refine(build_unit_mesh(2, 3))
    elements = base.elements[rng.permutation(base.num_elements)]
    elements = np.take_along_axis(elements, rng.random(elements.shape).argsort(axis=1), 1)
    facets = base.boundary_facets[rng.permutation(len(base.boundary_facets))]
    facets = np.take_along_axis(facets, rng.random(facets.shape).argsort(axis=1), 1)
    mesh = Mesh(2, base.vertices, elements, facets)
    space = make_space(mesh, order, 0.0)
    v0 = mesh.vertices[mesh.elements[:, 0]]
    nodes = v0[:, None, :] + np.einsum("eij,lj->eli", mesh.inv_jac, space.basis.nodes)
    assert np.abs(space.dof_coords[space.elem_dofs] - nodes).max() < 1e-14
    on_boundary = np.any((space.dof_coords == 0.0) | (space.dof_coords == 1.0), axis=1)
    assert np.array_equal(space.boundary_dofs, np.flatnonzero(on_boundary))
    assert space.dim == make_space(base, order, 0.0).dim


def test_interpolate_reproduces_linear():
    space = make_space(build_unit_mesh(1, 8), 1, 0.0)
    u = interpolate(space, lambda x: x[:, 0])
    lattice = sample_lattice(1)
    vals, _ = tabulate(space, u.coeffs, lattice)
    mids = space.mesh.vertices[space.mesh.elements[:, 0]][:, None, 0] \
        + lattice[None, :, 0] * 0.125
    assert np.abs(vals - mids).max() < 1e-14


@pytest.mark.parametrize("dim", [1, 2])
def test_interpolate_reproduces_order_polynomials(dim):
    for order in (1, 2, 3):
        space = make_space(build_unit_mesh(dim, 3), order, 0.0)
        if dim == 1:
            g = lambda x: (0.3 + x[:, 0]) ** order
        else:
            g = lambda x: (0.3 + 0.6 * x[:, 0] + 0.4 * x[:, 1]) ** order
        u = interpolate(space, g)
        lattice = sample_lattice(dim)
        vals, _ = tabulate(space, u.coeffs, lattice)
        mesh = space.mesh
        phys = (mesh.vertices[mesh.elements[:, 0]][:, None, :]
                + np.einsum("eij,qj->eqi", mesh.inv_jac, lattice))
        exact = g(phys.reshape(-1, dim)).reshape(vals.shape)
        assert np.abs(vals - exact).max() < 1e-12


def test_interpolation_rates_m1():
    """Condition-1-style orders: L2 about h^2, H1 about h^1 for P1."""
    from nitschelab.assembly import norms
    from nitschelab.energy import build_problem
    exact = build_problem("linear", 1).exact
    pairs_l2, pairs_h1 = [], []
    mesh = build_unit_mesh(1, 4)
    for _ in range(5):
        space = make_space(mesh, 1, 0.0)
        rep = norms(exact, interpolate(space, exact.value))
        pairs_l2.append((width(mesh), rep.l2))
        pairs_h1.append((width(mesh), rep.h1_semi))
        mesh = refine(mesh)
    assert 1.9 <= estimate_rate(pairs_l2).slope <= 2.1
    assert 0.9 <= estimate_rate(pairs_h1).slope <= 1.1


def test_interpolation_stability_w1inf():
    """||u_I||_{W^{1,inf}} / ||g||_{W^{1,inf}} level-stable within 10%."""
    from nitschelab.assembly import norms
    ratios = []
    mesh = build_unit_mesh(1, 8)
    for _ in range(4):
        space = make_space(mesh, 1, 0.0)
        u = interpolate(space, lambda x: np.sin(np.pi * x[:, 0]))
        ratios.append(norms(None, u, q=np.inf).w1q / np.pi)
        mesh = refine(mesh)
    assert max(ratios) / min(ratios) - 1 < 0.10


def test_interpolate_rejects_nonfinite():
    space = make_space(build_unit_mesh(1, 4), 1, 0.0)
    with pytest.raises(ValueError, match="non-finite"):
        interpolate(space, lambda x: np.where(x[:, 0] > 0.4, np.nan, 1.0))


def test_evaluate_constant_and_linear():
    space = make_space(build_unit_mesh(2, 2), 2, 0.0)
    vals, grads = tabulate(space, np.full(space.dim, 2.5), np.array([[0.25, 0.25]]), [3])
    assert vals[0, 0] == pytest.approx(2.5, abs=1e-14)
    assert np.allclose(grads, 0.0, atol=1e-13)
    lin = interpolate(space, lambda x: x[:, 0])
    _, grads = tabulate(space, lin.coeffs, np.array([[0.3, 0.1]]), [0, 5])
    assert np.allclose(grads[:, 0, 0], 1.0, atol=1e-13)
    assert np.allclose(grads[:, 0, 1], 0.0, atol=1e-13)


@pytest.mark.parametrize("dim, coeffs, pts", [
    (2, 25, [[0.25, 0.25]]),                 # more coefficients than dofs
    (2, 5, [[0.25, 0.25]]),                  # fewer
    (1, 4, [0.1, 0.5, 0.9]),                 # 1-D points as a flat array
    (2, 9, [[0.1, 0.2, 0.3]]),               # a third coordinate in 2-D
    (2, 9, [[0.1], [0.2]]),                  # one coordinate in 2-D
    (2, 9, np.zeros((0, 2))),                # no point
    (2, 9, np.zeros((2, 2, 2))),             # a 3-D point array
    (2, (9, 1), [[0.25, 0.25]]),             # coefficients as a column
])
def test_tabulate_rejects_misshaped_input(dim, coeffs, pts):
    """Mis-shaped coefficients or points raise, naming both shapes; without
    the check the first, third and fourth cases return wrong values."""
    space = make_space(build_unit_mesh(dim, 2 if dim == 2 else 3), 1, 0.0)
    assert space.dim == (9 if dim == 2 else 4)
    with pytest.raises(ValueError, match=rf"tabulate needs coeffs of shape \({space.dim},\) "
                                         rf"and ref_pts of shape \(npts >= 1, {dim}\)"):
        tabulate(space, np.ones(coeffs), np.asarray(pts, dtype=float))


@pytest.mark.parametrize("dim,order", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_evaluate_against_monomial_reexpansion(dim, order):
    """Independent oracle: express the local polynomial in the monomial
    basis by solving the nodal conditions, evaluate monomials directly."""
    rng = np.random.default_rng(42)
    if dim == 1:
        verts = np.array([[0.2], [0.7]])
        elements = np.array([[0, 1]])
        facets = np.array([[0], [1]])
        exps = [(k,) for k in range(order + 1)]
    else:
        verts = np.array([[0.1, 0.1], [0.8, 0.2], [0.3, 0.9]])
        elements = np.array([[0, 1, 2]])
        facets = np.array([[0, 1], [1, 2], [0, 2]])
        exps = [(a, b) for t in range(order + 1) for a in range(t + 1)
                for b in (t - a,)]
    mesh = Mesh(dim, verts, elements, facets)
    space = make_space(mesh, order, 0.0)
    f = FEFunction(space, rng.standard_normal(space.dim))

    # monomial coefficients in physical coordinates from the nodal values
    coords = space.dof_coords
    vand = np.column_stack([np.prod(coords ** np.array(e), axis=1) for e in exps])
    mono_coeff = np.linalg.solve(vand, f.coeffs)

    refs = rng.uniform(0.05, 0.3, size=(10, dim))
    vals, grads = tabulate(space, f.coeffs, refs, [0])
    for ref, val, grad in zip(refs, vals[0], grads[0]):
        x = mesh.vertices[mesh.elements[0, 0]] + mesh.inv_jac[0] @ ref
        oracle_val = sum(c * np.prod(x ** np.array(e))
                         for c, e in zip(mono_coeff, exps))
        assert val == pytest.approx(oracle_val, abs=1e-12)
        for axis in range(dim):
            d = 0.0
            for c, e in zip(mono_coeff, exps):
                if e[axis] == 0:
                    continue
                shifted = list(e)
                shifted[axis] -= 1
                d += c * e[axis] * np.prod(x ** np.array(shifted))
            assert grad[axis] == pytest.approx(d, abs=1e-11)


def test_inverse_estimate_constant_function_identity():
    """For constant v: W^{1,inf} = |c| and W^{1,2} = |c| |T_h|^{1/2}."""
    for dim, cells in ((1, 4), (2, 4)):
        mesh = build_unit_mesh(dim, cells)
        space = make_space(mesh, 1, 0.0)
        v = FEFunction(space, np.full(space.dim, 3.0))
        lattice = sample_lattice(dim)
        sup = np.abs(tabulate(space, v.coeffs, lattice)[0]).max()
        assert sup == pytest.approx(3.0, abs=1e-13)
        qp, qw = space.quad.points, space.quad.weights
        vals, _ = tabulate(space, v.coeffs, qp)
        w12 = np.sqrt((vals**2 @ qw) / np.abs(mesh.det_jac))
        assert np.allclose(w12, 3.0 * np.sqrt(mesh.volumes), atol=1e-13)
        h = width(mesh)
        expected_ratio = h ** (dim / 2) / np.sqrt(mesh.volumes.min())
        ratio = sup / (h ** (-dim / 2) * w12.min())
        assert ratio == pytest.approx(expected_ratio, rel=1e-12)


def test_inverse_estimate_level_stable_1d():
    values = []
    mesh = build_unit_mesh(1, 8)
    for _ in range(5):
        values.append(check_inverse_estimate(make_space(mesh, 1, 0.0), 10, seed=3))
        mesh = refine(mesh)
    assert max(values) / min(values) - 1 < 0.10


def test_inverse_estimate_dense_sampling_oracle():
    """Single element: quadrature W^{1,2} matches dense-lattice integration
    within 5%."""
    mesh = build_unit_mesh(1, 1)
    space = make_space(mesh, 2, 0.0)
    rng = np.random.default_rng(0)
    v = FEFunction(space, rng.standard_normal(space.dim))
    qp, qw = space.quad.points, space.quad.weights
    vals, grads = tabulate(space, v.coeffs, qp)
    w12_quad = np.sqrt(((vals**2 + grads[:, :, 0]**2) @ qw)[0])

    xs = np.linspace(0.0, 1.0, 2001)[:, None]
    dense_vals, dense_grads = tabulate(space, v.coeffs, xs)
    dense_vals, dense_grads = dense_vals[0], dense_grads[0, :, 0]
    w12_dense = np.sqrt(np.trapezoid(dense_vals**2 + dense_grads**2, xs[:, 0]))
    assert w12_quad == pytest.approx(w12_dense, rel=0.05)


def test_inverse_estimate_validates_trials():
    space = make_space(build_unit_mesh(1, 4), 1, 0.0)
    with pytest.raises(ValueError):
        check_inverse_estimate(space, 0)


@pytest.mark.parametrize("dim,order", [(1, 3), (2, 2)])
def test_inverse_estimate_independent_of_chunk_size(dim, order, monkeypatch):
    from nitschelab import felement

    space = make_space(refine(build_unit_mesh(dim, 4)), order, 0.0)
    whole = check_inverse_estimate(space, 3, seed=5)
    monkeypatch.setattr(felement, "CHUNK", 7)
    assert space.mesh.num_elements > 7
    assert check_inverse_estimate(space, 3, seed=5) == pytest.approx(whole, rel=1e-13)


def test_chunks_follow_point_budget(monkeypatch):
    from nitschelab import felement

    def sizes(n, npts):
        slices = list(felement._chunks(n, npts))
        assert slices[0].start == 0 and slices[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(slices, slices[1:]))
        return {s.stop - s.start for s in slices[:-1]}

    # rules of at most 16 points keep CHUNK elements; denser sets fewer
    assert sizes(40000, 16) == sizes(40000, 5) == {16384}
    assert sizes(40000, 105) == {16384 * 16 // 105}
    monkeypatch.setattr(felement, "CHUNK", 7)
    assert sizes(50, 16) == {7}
    assert sizes(50, 105) == {1}


@pytest.mark.parametrize("dim,order", [(1, 2), (2, 1), (2, 3)])
def test_sup_norm_and_inverse_ratio_independent_of_chunk_size(dim, order, monkeypatch):
    from nitschelab import felement
    from nitschelab.assembly import norms

    space = make_space(refine(build_unit_mesh(dim, 4)), order, 0.0)
    v = FEFunction(space, np.random.default_rng(3).standard_normal(space.dim))
    sup = norms(None, v, q=np.inf).w1q
    ratio = check_inverse_estimate(space, 2, seed=9)
    monkeypatch.setattr(felement, "CHUNK", 5)
    assert space.mesh.num_elements > 5
    assert norms(None, v, q=np.inf).w1q == pytest.approx(sup, rel=1e-13)
    assert check_inverse_estimate(space, 2, seed=9) == pytest.approx(ratio, rel=1e-13)


# ---------------------------------------------------------------------------
# reference tables, once per basis and rule


@pytest.mark.parametrize("dim,order", [(1, 3), (2, 2)])
def test_reference_tables_built_once_per_basis_and_rule(dim, order):
    basis = reference_basis(dim, order)
    rule = quadrature_rule(dim, 8)
    assert quadrature_rule(dim, 8) is rule and sample_lattice(dim) is sample_lattice(dim)
    for build in (felement._reference_table, assembly._outer_table):
        for pts in (rule.points, sample_lattice(dim)):
            table = build(basis, pts)
            assert build(basis, pts) is table
            assert not table.flags.writeable
            # the same values as a table built afresh from unowned points
            assert np.array_equal(table, build(basis, pts.copy()))
    assert not rule.points.flags.writeable and not rule.weights.flags.writeable


def test_evaluate_leaves_table_cache_unchanged():
    """One-off points passed to `tabulate` are tabulated afresh, never
    cached."""
    space = make_space(build_unit_mesh(2, 2), 2, 0.0)
    f = interpolate(space, lambda x: x[:, 0] * x[:, 1] + x[:, 1] ** 2)
    tabulate(space, f.coeffs, space.quad.points)
    before = len(felement._TABLES), len(felement._OWNED_POINTS)
    rng = np.random.default_rng(3)
    for _ in range(1000):
        a, b = rng.uniform(size=2)
        element = int(rng.integers(space.mesh.num_elements))
        vals, _ = tabulate(space, f.coeffs, np.array([[a * (1 - b), b]]), [element])
        assert np.isfinite(vals).all()
    assert (len(felement._TABLES), len(felement._OWNED_POINTS)) == before
