from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from nitschelab.assembly import (AssemblyError, apply_third_variation,
                                 assemble_gram_h1, assemble_gram_l2,
                                 assemble_hessian, assemble_residual,
                                 energy_value, integrate, lq_norm, norms)
from nitschelab import assembly, felement
from nitschelab.energy import (ExactSolution, build_problem,
                               dirichlet_potential_model, minimal_surface_model,
                               with_forcing, with_zeroed_gradient_blocks)
from nitschelab.felement import FEFunction, interpolate, make_space
from nitschelab.mesh import Mesh, build_unit_mesh, refine
from nitschelab.solver import embedding_matrix, minimize


@pytest.fixture(scope="module")
def problems():
    return {name: build_problem(name, 1)
            for name in ("linear", "quartic", "cosine", "minimal_surface")}


def smooth_state(space, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(3)
    if space.mesh.dim == 1:
        fn = lambda x: sum(c * np.sin((k + 1) * np.pi * x[:, 0])
                           for k, c in enumerate(a))
    else:
        fn = lambda x: sum(c * np.sin((k + 1) * np.pi * x[:, 0])
                           * np.sin(np.pi * x[:, 1]) for k, c in enumerate(a))
    return interpolate(space, fn)


def test_residual_zero_state_zero_data():
    model = build_problem("linear", 1).model  # has forcing; build bare model
    from nitschelab.energy import dirichlet_potential_model
    bare = dirichlet_potential_model(*(lambda z: np.zeros_like(z),) * 4)
    space = make_space(build_unit_mesh(1, 8), 1, 0.0)
    r = assemble_residual(bare, space.zero_function())
    assert np.abs(r).max() == 0.0


@pytest.mark.parametrize("name", ["quartic", "cosine", "minimal_surface"])
def test_residual_matches_energy_fd(name, problems):
    model = problems[name].model
    space = make_space(build_unit_mesh(1, 8), 2, 0.0)
    v = smooth_state(space, seed=2)
    r = assemble_residual(model, v)
    rng = np.random.default_rng(0)
    interior = np.flatnonzero(space.interior_mask)
    eps = 1e-6
    for dof in rng.choice(interior, size=min(20, len(interior)), replace=False):
        up = v.copy()
        up.coeffs[dof] += eps
        dn = v.copy()
        dn.coeffs[dof] -= eps
        fd = (energy_value(model, up) - energy_value(model, dn)) / (2 * eps)
        assert fd == pytest.approx(r[dof], rel=1e-6, abs=1e-9)


def test_residual_masked_at_boundary(problems):
    space = make_space(build_unit_mesh(2, 3), 2, problems["quartic"].boundary_fn)
    r = assemble_residual(problems["quartic"].model, smooth_state(space))
    assert np.abs(r[space.boundary_dofs]).max() == 0.0


def test_hessian_p1_stiffness_hand_values(problems):
    space = make_space(build_unit_mesh(1, 4), 1, 0.0)
    hess = assemble_hessian(problems["linear"].model, space.zero_function())
    dense = hess.toarray()
    interior = dense[1:4, 1:4]
    assert np.allclose(interior, [[8, -4, 0], [-4, 8, -4], [0, -4, 8]], atol=1e-12)
    assert np.allclose(dense[0], np.eye(5)[0], atol=0)  # identity-masked row


def test_hessian_quartic_at_zero_equals_stiffness(problems):
    space = make_space(build_unit_mesh(1, 8), 1, 0.0)
    zero = space.zero_function()
    h_quartic = assemble_hessian(problems["quartic"].model, zero).toarray()
    h_linear = assemble_hessian(problems["linear"].model, zero).toarray()
    assert np.abs(h_quartic - h_linear).max() < 1e-14


@pytest.mark.parametrize("name", ["quartic", "cosine", "minimal_surface"])
def test_hessian_symmetry_and_fd(name, problems):
    model = problems[name].model
    space = make_space(build_unit_mesh(1, 8), 2, 0.0)
    v = smooth_state(space, seed=4)
    hess = assemble_hessian(model, v)
    assert hess.max_asymmetry() < 1e-12

    rng = np.random.default_rng(1)
    w = rng.standard_normal(space.dim)
    w[space.boundary_dofs] = 0.0
    eps = 1e-6
    up, dn = v.copy(), v.copy()
    up.coeffs += eps * w
    dn.coeffs -= eps * w
    fd = (assemble_residual(model, up) - assemble_residual(model, dn)) / (2 * eps)
    an = hess.apply(w)
    scale = max(np.abs(an).max(), 1.0)
    assert np.abs(fd - an).max() / scale < 1e-6


def test_third_variation_quadratic_energy_vanishes(problems):
    space = make_space(build_unit_mesh(1, 6), 1, 0.0)
    one = FEFunction(space, np.ones(space.dim))
    assert apply_third_variation(problems["linear"].model, one, one, one, one) == 0.0


def test_third_variation_quartic_constant_case(problems):
    space = make_space(build_unit_mesh(1, 8), 1, 0.0)
    one = FEFunction(space, np.ones(space.dim))
    val = apply_third_variation(problems["quartic"].model, one, one, one, one)
    assert val == pytest.approx(6.0, abs=1e-12)


@pytest.mark.parametrize("name", ["quartic", "cosine", "minimal_surface"])
def test_third_variation_matches_hessian_fd(name, problems):
    model = problems[name].model
    space = make_space(build_unit_mesh(1, 8), 2, 0.0)
    v = smooth_state(space, seed=6)
    fu = smooth_state(space, seed=7)
    fv = smooth_state(space, seed=8)
    fw = smooth_state(space, seed=9)
    val = apply_third_variation(model, v, fu, fv, fw)
    eps = 1e-6
    up, dn = v.copy(), v.copy()
    up.coeffs += eps * fu.coeffs
    dn.coeffs -= eps * fu.coeffs
    bil_up = fv.coeffs @ assemble_hessian(model, up, mask=False).apply(fw.coeffs)
    bil_dn = fv.coeffs @ assemble_hessian(model, dn, mask=False).apply(fw.coeffs)
    fd = (bil_up - bil_dn) / (2 * eps)
    assert val == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_third_variation_permutation_symmetry(problems):
    model = problems["minimal_surface"].model
    space = make_space(build_unit_mesh(1, 6), 2, 0.0)
    v = smooth_state(space, seed=10)
    args = [smooth_state(space, seed=s) for s in (11, 12, 13)]
    from itertools import permutations
    values = [apply_third_variation(model, v, *perm) for perm in permutations(args)]
    assert max(values) - min(values) < 1e-12


@pytest.mark.parametrize("name", ["quartic", "cosine"])
def test_third_variation_gradient_blocks_irrelevant_semilinear(name, problems):
    model = problems[name].model
    space = make_space(build_unit_mesh(1, 8), 2, 0.0)
    v = smooth_state(space, seed=14)
    args = [smooth_state(space, seed=s) for s in (15, 16, 17)]
    full = apply_third_variation(model, v, *args)
    zeroed = apply_third_variation(with_zeroed_gradient_blocks(model), v, *args)
    assert abs(full - zeroed) < 1e-14


def test_hessian_p_block_state_independent_semilinear(problems):
    """Assembling with the zz block zeroed isolates the gradient block,
    which must not depend on the linearization point for a semilinear
    density."""
    from dataclasses import replace
    model = problems["quartic"].model
    p_only = replace(model, d2L_dzz=lambda p, z: np.zeros_like(z))
    space = make_space(build_unit_mesh(1, 8), 2, 0.0)
    a1 = assemble_hessian(p_only, smooth_state(space, seed=1)).toarray()
    a2 = assemble_hessian(p_only, smooth_state(space, seed=2)).toarray()
    assert np.abs(a1 - a2).max() < 1e-14


def test_gram_l2_hand_values():
    space = make_space(build_unit_mesh(1, 4), 1, 0.0)
    m = assemble_gram_l2(space).toarray()
    h = 0.25
    assert m[1, 1] == pytest.approx(2 * h / 3, abs=1e-14)
    assert m[1, 2] == pytest.approx(h / 6, abs=1e-14)
    ones = np.ones(space.dim)
    assert ones @ m @ ones == pytest.approx(1.0, abs=1e-13)
    assert np.linalg.eigvalsh(m).min() > 0


def test_gram_row_sums_are_basis_integrals():
    space = make_space(build_unit_mesh(2, 2), 2, 0.0)
    m = assemble_gram_l2(space)
    row_sums = np.asarray(m.matrix.sum(axis=1)).ravel()
    # independent evaluation of int(phi_i) by per-element quadrature
    from nitschelab.felement import tabulate
    qp, qw = space.quad.points, space.quad.weights
    vol = 1.0 / np.abs(space.mesh.det_jac)
    expected = np.zeros(space.dim)
    for dof in range(space.dim):
        e = np.zeros(space.dim)
        e[dof] = 1.0
        vals, _ = tabulate(space, e, qp)
        expected[dof] = vol @ (vals @ qw)
    assert np.abs(row_sums - expected).max() < 1e-14
    assert m.max_asymmetry() < 1e-13
    assert row_sums.sum() == pytest.approx(1.0, abs=1e-13)


def test_gram_h1_is_mass_plus_stiffness(problems):
    space = make_space(build_unit_mesh(1, 8), 1, 0.0)
    g1 = assemble_gram_h1(space).toarray()
    mass = assemble_gram_l2(space).toarray()
    stiff = assemble_hessian(problems["linear"].model, space.zero_function(),
                             mask=False).toarray()
    assert np.abs(g1 - mass - stiff).max() < 1e-13


def test_norms_linear_interpolant_exact():
    space = make_space(build_unit_mesh(2, 3), 1, 0.0)
    f = ExactSolution(
        lambda x: 1.0 + 2 * x[:, 0] - x[:, 1],
        lambda x: np.tile([2.0, -1.0], (len(x), 1)),
        lambda x: np.zeros((len(x), 2, 2)))
    rep = norms(f, interpolate(space, f.value), q=np.inf)
    assert rep.l2 < 1e-13 and rep.h1_semi < 1e-13 and rep.w1q < 1e-13


def test_norms_sine_closed_form():
    problem = build_problem("linear", 1)
    space = make_space(build_unit_mesh(1, 256), 1, 0.0)
    rep = norms(problem.exact, space.zero_function(), q=np.inf)
    assert rep.l2 == pytest.approx(np.sqrt(0.5), abs=1e-6)
    assert rep.h1_semi == pytest.approx(np.pi / np.sqrt(2), abs=1e-6)
    assert rep.w1q == pytest.approx(np.pi, abs=1e-6)


def test_norms_w1q_matches_h1_for_q2():
    space = make_space(build_unit_mesh(1, 16), 2, 0.0)
    v = smooth_state(space, seed=20)
    rep = norms(None, v, q=2)
    assert rep.w1q == pytest.approx(np.hypot(rep.l2, rep.h1_semi), abs=1e-12)


def test_norms_broken_h2_requires_order_2():
    space = make_space(build_unit_mesh(1, 8), 1, 0.0)
    v = space.zero_function()
    with pytest.raises(ValueError, match="order >= 2"):
        norms(None, v, include_broken_h2=True)


def test_norms_takes_no_fe_function_as_f():
    """The norms of two FE functions' difference are those of the
    difference taken first; an FE function as f is refused."""
    space = make_space(build_unit_mesh(1, 8), 1, 0.0)
    v = smooth_state(space, seed=3)
    with pytest.raises(TypeError, match="pass None and their difference"):
        norms(v, v)


def test_norms_poincare_consistency():
    """||v||_L2 <= (1/pi) |v|_H1 for zero-boundary functions on (0,1)."""
    space = make_space(build_unit_mesh(1, 32), 2, 0.0)
    rng = np.random.default_rng(5)
    for _ in range(5):
        coeffs = rng.standard_normal(space.dim)
        coeffs[space.boundary_dofs] = 0.0
        rep = norms(None, FEFunction(space, coeffs))
        assert rep.l2 <= rep.h1_semi / np.pi * 1.0001


def test_norms_broken_h2_oracle():
    """|sin(pi x)|_{H^2}^2 = pi^4/2, via a fine P2 interpolant."""
    problem = build_problem("linear", 1)
    space = make_space(build_unit_mesh(1, 128), 2, 0.0)
    rep = norms(problem.exact, space.zero_function(), include_broken_h2=True)
    assert rep.broken_h2 == pytest.approx(np.pi**2 / np.sqrt(2), rel=1e-6)


def _norms_by_parts(exact, g, q, include_broken_h2):
    """norms(exact, g) with the exact solution read callable by callable
    and every squared norm taken by einsum, chunk by chunk as norms does."""
    space = g.space
    mesh, rule, coeffs = space.mesh, space.quad, -g.coeffs

    def diff(sl, pts, with_hess):
        vals, grads = felement.tabulate(space, coeffs, pts, sl)
        flat = assembly._physical_points(mesh, pts, sl).reshape(-1, mesh.dim)
        vals = exact.value(flat).reshape(vals.shape) + vals
        grads = exact.gradient(flat).reshape(grads.shape) + grads
        hess = None
        if with_hess:
            hess = assembly._fe_hessians(space, coeffs, sl, pts)
            hess = exact.hessian(flat).reshape(hess.shape) + hess
        return vals, grads, hess

    l2 = h1 = lq = h2 = 0.0
    for sl, wq in assembly._quadrature(mesh, rule.weights):
        vals, grads, hess = diff(sl, rule.points, include_broken_h2)
        gnorm2 = np.einsum("eqi,eqi->eq", grads, grads)
        l2 += float(np.sum(wq * vals**2))
        h1 += float(np.sum(wq * gnorm2))
        if q not in (2, np.inf):
            lq += float(np.sum(wq * (np.abs(vals) ** q + gnorm2 ** (q / 2))))
        if include_broken_h2:
            h2 += float(np.sum(wq * np.einsum("eqij,eqij->eq", hess, hess)))
    if q == np.inf:
        lattice = felement.sample_lattice(mesh.dim)
        w1q = 0.0
        for sl in felement._chunks(mesh.num_elements, len(lattice)):
            lv, lg, _ = diff(sl, lattice, False)
            w1q = max(w1q, float(np.abs(lv).max()),
                      float(np.sqrt(np.einsum("eqi,eqi->eq", lg, lg).max())))
    elif q == 2:
        w1q = float(np.hypot(np.sqrt(l2), np.sqrt(h1)))
    else:
        w1q = float(lq ** (1.0 / q))
    return assembly.NormReport(float(np.sqrt(l2)), float(np.sqrt(h1)), w1q,
                               np.sqrt(h2) if include_broken_h2 else None)


# 20 000 intervals span two quadrature and two lattice chunks, 40^2 cells
# two lattice chunks
@pytest.mark.parametrize("dim,cells", [(1, 20000), (2, 40)])
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("q", [2, 4, np.inf])
def test_norms_bitwise_equal_through_the_jet_and_by_parts(dim, cells, order, q):
    """norms against the sine product returns bit for bit what it returns
    through the jet derived from the parts, and what the parts give one by
    one with einsum."""
    exact = build_problem("quartic", dim).exact
    g = smooth_state(make_space(build_unit_mesh(dim, cells), order, 0.0), seed=order)
    rep = norms(exact, g, q=q, include_broken_h2=order >= 2)
    assert rep == norms(replace(exact, jet=None), g, q=q, include_broken_h2=order >= 2)
    assert rep == _norms_by_parts(exact, g, q, order >= 2)


def test_norms_reads_an_exact_solution_once_per_chunk_through_its_jet():
    """One jet call per quadrature chunk, with the Hessian only where the
    broken H^2 norm needs it, and one per lattice chunk; no part is called."""
    exact = build_problem("linear", 2).exact
    calls = []

    def jet(x, hessian=True):
        calls.append(hessian)
        return exact.jet(x, hessian=hessian)

    def part(x):
        raise AssertionError("norms called a part of the solution")

    target = ExactSolution(part, part, part, jet)
    space = make_space(build_unit_mesh(2, 40), 2, 0.0)
    norms(target, space.zero_function(), q=np.inf, include_broken_h2=True)
    assert calls == [True, False, False]


# the quasilinear composition Dv/sqrt(1+|Dv|^2) has much larger high-order
# derivatives than the semilinear densities, so the fixed rule reaches the
# stated stability only on finer meshes
@pytest.mark.parametrize("name,dim,cells", [
    ("quartic", 1, 64), ("quartic", 2, 32),
    ("cosine", 1, 64), ("cosine", 2, 32),
    ("minimal_surface", 1, 256), ("minimal_surface", 2, 128),
])
def test_quadrature_refinement_stability(name, dim, cells, problems):
    """Doubling the quadrature exactness moves the residual at smooth random
    states by less than 1e-8 relative (states away from the minimizer, where
    the residual has its natural O(1) scale)."""
    problem = build_problem(name, dim)
    space = make_space(build_unit_mesh(dim, cells), 2, problem.boundary_fn)
    fine_rule = felement.quadrature_rule(dim, 2 * space.quad.exactness_degree)
    fine = replace(space, quad=fine_rule)
    for seed in (0, 1, 2):
        v = smooth_state(space, seed=seed)
        r1 = assemble_residual(problem.model, v)
        r2 = assemble_residual(problem.model, FEFunction(fine, v.coeffs))
        assert np.abs(r1 - r2).max() <= 1e-8 * np.abs(r1).max()


def test_integrate_utility():
    mesh = build_unit_mesh(1, 64)
    val = integrate(mesh, lambda x: np.sin(np.pi * x[:, 0]), degree=10)
    assert val == pytest.approx(2 / np.pi, abs=1e-12)


def test_lq_norm_sine():
    space = make_space(build_unit_mesh(1, 128), 2, 0.0)
    v = interpolate(space, lambda x: np.sin(np.pi * x[:, 0]))
    assert lq_norm(v, 1) == pytest.approx(2 / np.pi, abs=1e-6)
    assert lq_norm(v, 2) == pytest.approx(np.sqrt(0.5), abs=1e-6)
    assert lq_norm(v, 2) == pytest.approx(norms(None, v).l2, rel=1e-12)


@pytest.mark.parametrize("q", [np.inf, -np.inf, 0, 0.5, -1, np.nan, True, np.True_, "2", None])
def test_lq_norm_rejects_q_that_is_not_finite_and_at_least_1(q):
    """q = inf used to return 1 for any v, q = 0 to divide by zero,
    q = -1 and q = nan to return numbers, q = True to run as q = 1, and a
    string or None to raise a TypeError."""
    space = make_space(build_unit_mesh(1, 8), 1, 0.0)
    v = interpolate(space, lambda x: np.sin(np.pi * x[:, 0]))
    with pytest.raises(ValueError, match="finite q >= 1"):
        lq_norm(v, q)


@pytest.mark.parametrize("q", [-np.inf, 0, 0.5, -1, np.nan, True, np.True_, "2", None])
def test_norms_rejects_q_that_is_not_a_number_of_at_least_1(q):
    """q = True used to run as q = 1, and a string or None to raise a
    TypeError from the comparison."""
    space = make_space(build_unit_mesh(1, 8), 1, 0.0)
    v = interpolate(space, lambda x: np.sin(np.pi * x[:, 0]))
    with pytest.raises(ValueError, match="q must be a number >= 1 or inf"):
        norms(None, v, q=q)


def test_hessian_rejects_nonfinite_zz_block(problems):
    model = replace(problems["quartic"].model,
                    d2L_dzz=lambda p, z: np.full(len(z), np.nan))
    space = make_space(build_unit_mesh(2, 4), 1, 0.0)
    with pytest.raises(AssemblyError, match="hessian"):
        assemble_hessian(model, smooth_state(space))


def test_third_variation_rejects_nonfinite_integrand(problems):
    model = replace(problems["quartic"].model,
                    d3L_dzzz=lambda p, z: np.full(len(z), np.inf))
    space = make_space(build_unit_mesh(1, 6), 1, 0.0)
    v = smooth_state(space)
    with pytest.raises(AssemblyError, match="third-variation"):
        apply_third_variation(model, v, v, v, v)


# ---------------------------------------------------------------------------
# oracle for the table-product kernels: the direct einsum formulas, one
# einsum per derivative block


def mixed_model(dim):
    """Minimal surface plus z (b . p): a non-identity d2pp and d2pz = b, so
    the pz and zp blocks of the Hessian are non-zero."""
    base = minimal_surface_model()
    b = np.array([0.7, -0.4])[:dim]
    return replace(
        base, name="minimal_surface_mixed",
        eval=lambda p, z: base.eval(p, z) + z * (p @ b),
        dL_dp=lambda p, z: base.dL_dp(p, z) + z[:, None] * b,
        dL_dz=lambda p, z: p @ b,
        d2L_dpz=lambda p, z: np.broadcast_to(b, p.shape).copy())


def _oracle_state(space, coeffs):
    mesh, rule = space.mesh, space.quad
    local = coeffs[space.elem_dofs]
    vals = local @ space.basis.values(rule.points).T
    ref = np.einsum("el,qlk->eqk", local, space.basis.gradients(rule.points))
    grads = np.einsum("eki,eqk->eqi", mesh.jac, ref)
    wq = (np.abs(mesh.det_jac) ** -1)[:, None] * rule.weights
    return (grads.reshape(-1, mesh.dim), vals.ravel()), grads.shape, wq


def oracle_residual(model, v):
    space = v.space
    flat, gshape, wq = _oracle_state(space, v.coeffs)
    phi = space.basis.values(space.quad.points)
    gref = space.basis.gradients(space.quad.points)
    pulled = np.einsum("eqi,eki->eqk", model.dL_dp(*flat).reshape(gshape), space.mesh.jac)
    r_loc = (np.einsum("eq,eqk,qlk->el", wq, pulled, gref)
             + np.einsum("eq,eq,ql->el", wq, model.dL_dz(*flat).reshape(wq.shape), phi))
    out = np.zeros(space.dim)
    np.add.at(out, space.elem_dofs, r_loc)
    out[space.boundary_dofs] = 0.0
    return out


def oracle_hessian(model, v, mask):
    space = v.space
    flat, gshape, wq = _oracle_state(space, v.coeffs)
    phi = space.basis.values(space.quad.points)
    gref = space.basis.gradients(space.quad.points)
    jac = space.mesh.jac
    d2pp = model.d2L_dpp(*flat).reshape(gshape + gshape[-1:])
    d2pz = model.d2L_dpz(*flat).reshape(gshape)
    d2zz = model.d2L_dzz(*flat).reshape(wq.shape)
    kpp = np.einsum("eai,eqij,ebj->eqab", jac, d2pp, jac)
    loc = np.einsum("eq,qla,eqab,qkb->elk", wq, gref, kpp, gref)
    t = np.einsum("qla,eqa->eql", gref, np.einsum("eai,eqi->eqa", jac, d2pz))
    m1 = np.einsum("eq,eql,qk->elk", wq, t, phi)
    loc += m1 + np.swapaxes(m1, 1, 2)
    loc += np.einsum("eq,eq,ql,qk->elk", wq, d2zz, phi, phi)
    nloc, ed = space.basis.n_local, space.elem_dofs
    mat = sp.coo_matrix(
        (loc.ravel(), (np.repeat(ed, nloc, axis=1).ravel(), np.tile(ed, (1, nloc)).ravel())),
        shape=(space.dim, space.dim)).toarray()
    if mask:
        keep = space.interior_mask.astype(float)
        mat = keep[:, None] * mat * keep[None, :] + np.diag(1.0 - keep)
    return mat


@pytest.mark.parametrize("dim,order", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)])
def test_kernels_match_einsum_oracle_with_mixed_block(dim, order):
    model = mixed_model(dim)
    space = make_space(build_unit_mesh(dim, 7 if dim == 1 else 3), order, 0.0)
    v = FEFunction(space, 0.5 * np.random.default_rng(order).standard_normal(space.dim))
    # the mixed blocks carry weight in the oracle itself
    no_pz = replace(model, d2L_dpz=lambda p, z: np.zeros_like(p))
    assert np.abs(oracle_hessian(model, v, False) - oracle_hessian(no_pz, v, False)).max() > 1e-2

    for mask in (True, False):
        want = oracle_hessian(model, v, mask)
        got = assemble_hessian(model, v, mask=mask).toarray()
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    want = oracle_residual(model, v)
    got = assemble_residual(model, v)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("dim", [1, 2])
def test_hessian_matches_residual_fd_with_mixed_block(dim):
    model = mixed_model(dim)
    space = make_space(build_unit_mesh(dim, 8 if dim == 1 else 3), 2, 0.0)
    v = smooth_state(space, seed=21)
    hess = assemble_hessian(model, v)
    assert hess.max_asymmetry() < 1e-12
    w = np.random.default_rng(22).standard_normal(space.dim)
    w[space.boundary_dofs] = 0.0
    eps = 1e-6
    fd = (assemble_residual(model, FEFunction(space, v.coeffs + eps * w))
          - assemble_residual(model, FEFunction(space, v.coeffs - eps * w))) / (2 * eps)
    an = hess.apply(w)
    assert np.abs(fd - an).max() / max(np.abs(an).max(), 1.0) < 1e-6


# ---------------------------------------------------------------------------
# the per-space load vector of a forcing


def test_forcing_cache_shared_by_two_models_is_bitwise_exact(monkeypatch):
    """Forced models interleaved on one space, each load vector built over
    several chunks and cached under its forcing, give bitwise the values of
    a fresh space and of a copy of the space under a copy of its rule; a
    model with the same forcing reads the same entry."""
    monkeypatch.setattr(felement, "CHUNK", 7)
    mesh = build_unit_mesh(2, 3)
    quartic, cosine = (build_problem(name, 2).model for name in ("quartic", "cosine"))
    twin = with_zeroed_gradient_blocks(quartic)
    assert twin.forcing is quartic.forcing
    models = [quartic, cosine, twin]
    shared = make_space(mesh, 2, 0.0)
    coeffs = 0.3 * np.random.default_rng(5).standard_normal(shared.dim)
    for model in models + models[::-1]:
        fresh = make_space(mesh, 2, 0.0)
        other = replace(shared, quad=replace(shared.quad))
        v, w, o = (FEFunction(s, coeffs) for s in (shared, fresh, other))
        energy = energy_value(model, v)
        assert energy == energy_value(model, w) == energy_value(model, o)
        residual = assemble_residual(model, v)
        assert np.array_equal(residual, assemble_residual(model, w))
        assert np.array_equal(residual, assemble_residual(model, o))
        assert np.array_equal(assemble_hessian(model, v).toarray(),
                              assemble_hessian(model, w).toarray())
    loads = {key: b for key, b in shared._cache.items() if isinstance(key, tuple)}
    assert loads.keys() == {("load", quartic.forcing), ("load", cosine.forcing)}
    assert all(b.shape == (shared.dim,) and not b.flags.writeable for b in loads.values())
    v = FEFunction(shared, coeffs)
    assert energy_value(twin, v) == energy_value(quartic, v)
    assert np.array_equal(assemble_residual(twin, v), assemble_residual(quartic, v))


def test_forcing_evaluated_once_per_chunk_per_space(monkeypatch):
    monkeypatch.setattr(felement, "CHUNK", 16)
    forcing = build_problem("quartic", 1).model.forcing
    calls = []

    def counting(x):
        calls.append(len(x))
        return forcing(x)

    base = dirichlet_potential_model(lambda z: 0.25 * z**4, lambda z: z**3,
                                     lambda z: 3.0 * z**2, lambda z: 6.0 * z)
    model = with_forcing(base, counting)
    space = make_space(build_unit_mesh(1, 64), 1, 0.0)
    npts = len(space.quad.weights)
    _, log = minimize(model, space)
    assert len(log.iterations) > 2
    assert calls == [16 * npts] * 4
    minimize(model, space)
    assert len(calls) == 4
    minimize(model, make_space(build_unit_mesh(1, 64), 1, 0.0))
    assert len(calls) == 8


# ---------------------------------------------------------------------------
# the semilinear split: cached stiffness plus the d2zz-weighted mass


def _raises(*args, **kwargs):
    raise AssertionError("the split path read a gradient block")


@pytest.mark.parametrize("name", ["linear", "quartic", "cosine"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_split_matches_generic_path(name, dim, order):
    model = build_problem(name, dim).model
    assert model.quadratic_gradient
    generic = replace(model, quadratic_gradient=False)
    # the split never calls the gradient blocks it replaces, nor the
    # density with a gradient
    split = replace(model, dL_dp=_raises, d2L_dpp=_raises, d2L_dpz=_raises,
                    eval=lambda p, z: _raises() if p is not None else model.eval(p, z))
    space = make_space(build_unit_mesh(dim, 7 if dim == 1 else 3), order,
                       build_problem(name, dim).boundary_fn)
    for seed in (0, 1):
        v = FEFunction(space, np.random.default_rng(seed).standard_normal(space.dim))
        want = energy_value(generic, v)
        assert abs(energy_value(split, v) - want) <= 1e-13 * abs(want)
        for mask in (True, False):
            want = assemble_hessian(generic, v, mask=mask).toarray()
            got = assemble_hessian(split, v, mask=mask).toarray()
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
            want = assemble_residual(generic, v, mask=mask)
            got = assemble_residual(split, v, mask=mask)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("dim", [1, 2])
def test_quasilinear_models_never_take_the_split(dim, monkeypatch):
    monkeypatch.setattr(assembly, "_stiffness", _raises)
    space = make_space(build_unit_mesh(dim, 4), 2, 0.0)
    v = smooth_state(space, seed=3)
    base = build_problem("minimal_surface", dim).model
    for model in (base, with_zeroed_gradient_blocks(base)):
        assert not model.quadratic_gradient
        calls = []
        counted = replace(model, d2L_dpp=lambda *a: calls.append(1) or model.d2L_dpp(*a))
        assemble_hessian(counted, v)
        assemble_residual(counted, v)
        assert calls


def test_with_zeroed_gradient_blocks_keeps_the_split_on_semilinear_models():
    model = build_problem("quartic", 1).model
    assert with_zeroed_gradient_blocks(model).quadratic_gradient


# ---------------------------------------------------------------------------
# the per-space CSR skeleton


def coo_reference(space, loc, mask):
    """The operator as summed through COO, masked by zeroing boundary rows
    and columns and putting ones on the boundary diagonal."""
    nloc, ed = space.basis.n_local, space.elem_dofs
    mat = sp.coo_matrix(
        (loc.ravel(), (np.repeat(ed, nloc, axis=1).ravel(), np.tile(ed, (1, nloc)).ravel())),
        shape=(space.dim, space.dim)).tocsr()
    if mask:
        keep = space.interior_mask
        mat.data *= np.repeat(keep, np.diff(mat.indptr)) & keep[mat.indices]
        diag = mat.diagonal()
        diag[space.boundary_dofs] = 1.0
        mat.setdiag(diag)
    return mat


@pytest.mark.parametrize("dim,order", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)])
def test_scatter_matches_coo_reference(dim, order):
    space = make_space(build_unit_mesh(dim, 5 if dim == 1 else 3), order, 0.0)
    rng = np.random.default_rng(order)
    nloc = space.basis.n_local
    # small integers sum exactly in any order; whole zero elements and
    # entries that cancel leave exact zeros in the sum
    loc = rng.integers(-3, 4, size=(space.mesh.num_elements, nloc, nloc)).astype(float)
    loc[::3] = 0.0
    loc[1, 0, 1], loc[2, 0, 1] = 1.0, -1.0
    # masked or not, the operator has the one pattern of the space: the
    # mask writes zeros and the unit diagonal in place
    for mask in (False, True):
        want = coo_reference(space, loc, mask)
        got = assembly._scatter(space, loc, mask).matrix
        assert got.has_canonical_format
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)


def boundary_free_pattern(op, space):
    """The unmasked operator on the pattern that leaves out every entry
    in a boundary row or column, with the boundary diagonal set to 1.0."""
    full = op.matrix.tocoo()
    keep = space.interior_mask
    entries = keep[full.row] & keep[full.col] | (full.row == full.col)
    data = np.where(keep[full.row], full.data, 1.0)[entries]
    return sp.csr_matrix((data, (full.row[entries], full.col[entries])), shape=op.matrix.shape)


@pytest.mark.parametrize("name", ["quartic", "minimal_surface"])
@pytest.mark.parametrize("dim,order", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)])
def test_masked_products_are_those_of_the_boundary_free_pattern(name, dim, order):
    """The explicit zeros of a masked operator leave every product bitwise
    as it was on the pattern without the boundary couplings: the split
    Hessian of quartic and the generic one of minimal_surface."""
    model = build_problem(name, dim).model
    assert model.quadratic_gradient == (name == "quartic")
    space = make_space(build_unit_mesh(dim, 6 if dim == 1 else 3), order, 0.0)
    v = smooth_state(space, seed=order)
    masked = assemble_hessian(model, v).matrix
    want = boundary_free_pattern(assemble_hessian(model, v, mask=False), space)
    assert masked.nnz > want.nnz
    rng = np.random.default_rng(dim * 10 + order)
    for x in rng.standard_normal((4, space.dim)):
        assert (masked @ x).tobytes() == (want @ x).tobytes()


def test_operators_share_the_skeletons_read_only_index_arrays():
    """Every operator on a space stores the skeleton's own `indices` and
    `indptr`, read-only: a change of an operator's structure in place
    raises instead of forking it, and later operators are unchanged."""
    space = make_space(build_unit_mesh(2, 3), 2, 0.0)
    loc = np.zeros((space.mesh.num_elements, 6, 6))
    first = assembly._scatter(space, loc, mask=True).matrix
    skeleton = assembly._skeleton(space)
    for op in (first, assemble_gram_h1(space).matrix):
        for name in ("indices", "indptr"):
            assert np.shares_memory(getattr(op, name), getattr(skeleton, name))
            assert not getattr(op, name).flags.writeable
    with pytest.raises(ValueError):
        first.eliminate_zeros()
    again = assembly._scatter(space, np.ones_like(loc), mask=True).matrix
    assert np.array_equal(again.toarray(),
                          coo_reference(space, np.ones_like(loc), True).toarray())


def test_skeleton_and_stiffness_built_once_per_space(monkeypatch):
    builds = {"skeleton": 0, "stiffness": 0}

    def counting(kind, build):
        def wrapped(*args):
            builds[kind] += 1
            return build(*args)
        return wrapped

    monkeypatch.setattr(assembly, "_build_skeleton",
                        counting("skeleton", assembly._build_skeleton))
    monkeypatch.setattr(assembly, "_build_stiffness",
                        counting("stiffness", assembly._build_stiffness))
    model = build_problem("quartic", 2).model
    space = make_space(build_unit_mesh(2, 4), 1, 0.0)
    _, log = minimize(model, space)
    assert len(log.iterations) > 2
    assert builds == {"skeleton": 1, "stiffness": 1}
    minimize(model, space)
    assemble_gram_h1(space)
    assert builds == {"skeleton": 1, "stiffness": 1}
    minimize(model, make_space(build_unit_mesh(2, 4), 1, 0.0))
    assert builds == {"skeleton": 2, "stiffness": 2}


def test_space_under_another_rule_keeps_its_own_caches():
    """A copy of a space under another rule builds its own skeleton,
    stiffness and load vector, with its own points, and leaves the
    original's caches as they were."""
    model = build_problem("quartic", 2).model
    space = make_space(build_unit_mesh(2, 4), 2, 0.0)
    v = smooth_state(space, seed=1)
    hessian = assemble_hessian(model, v).toarray()
    residual = assemble_residual(model, v)
    before = dict(space._cache)
    load = ("load", model.forcing)
    assert before.keys() == {"skeleton", "stiffness", load}

    fine_rule = felement.quadrature_rule(2, 2 * space.quad.exactness_degree)
    fine = replace(space, quad=fine_rule)
    assert not fine._cache
    w = FEFunction(fine, v.coeffs)
    assemble_hessian(model, w)
    assemble_residual(model, w)
    assert fine._cache.keys() == before.keys()
    assert all(fine._cache[key] is not data for key, data in before.items())
    assert np.abs(fine._cache["stiffness"] - before["stiffness"]).max() < 1e-12
    # the finer rule moves the load vector by its quadrature error only
    assert not np.array_equal(fine._cache[load], before[load])
    assert np.abs(fine._cache[load] - before[load]).max() < 1e-6 * np.abs(before[load]).max()

    assert space._cache.keys() == before.keys()
    assert all(space._cache[key] is data for key, data in before.items())
    assert np.array_equal(assemble_hessian(model, v).toarray(), hessian)
    assert np.array_equal(assemble_residual(model, v), residual)


# ---------------------------------------------------------------------------
# the sparse product: scipy's CSR kernel without its dispatch


def scrambled_mesh():
    """The refined 3x3 unit mesh with its elements, their local vertex
    order and its boundary facets in scrambled order, as in
    test_make_space_dofs_sit_at_element_nodes_in_any_orientation."""
    rng = np.random.default_rng(4)
    base = refine(build_unit_mesh(2, 3))
    elements = base.elements[rng.permutation(base.num_elements)]
    elements = np.take_along_axis(elements, rng.random(elements.shape).argsort(axis=1), 1)
    facets = base.boundary_facets[rng.permutation(len(base.boundary_facets))]
    facets = np.take_along_axis(facets, rng.random(facets.shape).argsort(axis=1), 1)
    return Mesh(2, base.vertices, elements, facets)


def assert_products_match(a, rng):
    """`_matvec(a, x)` is bitwise `a @ x` on random vectors, one with
    exact zeros among them."""
    for x in rng.standard_normal((3, a.shape[1])):
        x[::4] = 0.0
        assert assembly._matvec(a, x).tobytes() == (a @ x).tobytes()


def with_int64_indices(a):
    """A copy of the CSR or CSC matrix a whose index arrays are int64;
    scipy's constructor would cast them back to int32."""
    b = a.copy()
    b.indices, b.indptr = a.indices.astype(np.int64), a.indptr.astype(np.int64)
    return b


@pytest.mark.parametrize("dim,order", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)])
def test_matvec_is_bitwise_the_scipy_product_on_operators(dim, order):
    """Masked and unmasked Hessians, both Gram matrices and an interior
    block cut as the ellipticity check cuts it, with int32 and with int64
    index arrays."""
    model = build_problem("quartic", dim).model
    space = make_space(build_unit_mesh(dim, 7 if dim == 1 else 3), order, 0.0)
    v = smooth_state(space, seed=order)
    interior = np.flatnonzero(space.interior_mask)
    ops = [assemble_hessian(model, v).matrix, assemble_hessian(model, v, mask=False).matrix,
           assemble_hessian(build_problem("minimal_surface", dim).model, v).matrix,
           assemble_gram_l2(space).matrix, assemble_gram_h1(space).matrix]
    ops.append(ops[0][interior][:, interior].tocsr())
    rng = np.random.default_rng(10 * dim + order)
    for a in ops:
        assert a.format == "csr" and a.indices.dtype == np.int32
        assert_products_match(a, rng)
        wide = with_int64_indices(a)
        assert wide.indices.dtype == wide.indptr.dtype == np.int64
        assert_products_match(wide, rng)


@pytest.mark.parametrize("dim,order", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)])
def test_matvec_is_bitwise_the_scipy_product_on_transfers(dim, order):
    """Prolongations of one and of two refinements, of one order and from
    the order to P3, and their transposes, which are CSC views."""
    coarse = build_unit_mesh(dim, 3 if dim == 1 else 2)
    mid = refine(coarse)
    src = make_space(coarse, order, 0.0)
    rng = np.random.default_rng(10 * dim + order)
    for dst in (make_space(mid, order, 0.0), make_space(refine(mid), order, 0.0),
                make_space(mid, 3, 0.0)):
        p = embedding_matrix(src, dst)
        assert p.format == "csr" and p.T.format == "csc"
        assert np.shares_memory(p.T.data, p.data)
        for a in (p, p.T, with_int64_indices(p), with_int64_indices(p).T):
            assert_products_match(a, rng)


def test_apply_rejects_a_vector_of_another_length():
    """The kernel reads x without bounds checks, so a shorter or longer
    vector, or a column, raises before it runs."""
    op = assemble_gram_h1(make_space(build_unit_mesh(2, 2), 1, 0.0))
    for x in (np.ones(op.dim - 1), np.ones(op.dim + 1), np.ones((op.dim, 1))):
        for apply in (op.apply, lambda x: assembly._matvec(op.matrix.T, x)):
            with pytest.raises(ValueError, match="columns"):
                apply(x)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("mesh", ["d1", "d2", "scrambled"])
def test_stiffness_product_is_bitwise_the_bincount_of_differences(mesh, order):
    """K v as the kernel's row sums equals, bit for bit, the bincount of
    K_ij (v_j - v_i) over the rows of the skeleton's entries."""
    mesh = {"d1": lambda: build_unit_mesh(1, 9), "d2": lambda: build_unit_mesh(2, 4),
            "scrambled": scrambled_mesh}[mesh]()
    space = make_space(mesh, order, 0.0)
    skeleton = assembly._skeleton(space)
    rows = np.repeat(np.arange(space.dim), np.diff(skeleton.indptr))
    rng = np.random.default_rng(order)
    for coeffs in (smooth_state(space, seed=order).coeffs, rng.standard_normal(space.dim),
                   np.ones(space.dim)):
        diff = coeffs[skeleton.indices] - coeffs[rows]
        want = np.bincount(rows, weights=assembly._stiffness(space) * diff,
                           minlength=space.dim)
        assert assembly._stiffness_product(space, coeffs).tobytes() == want.tobytes()
