from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nitschelab import energy
from nitschelab.assembly import assemble_residual, energy_value, integrate
from nitschelab.energy import (PROBLEM_NAMES, ExactSolution, ManufacturedProblem,
                               build_problem, classify, dirichlet_potential_model, el_residual,
                               minimal_surface_model, with_forcing,
                               with_zeroed_gradient_blocks)
from nitschelab.felement import FEFunction, make_space
from nitschelab.mesh import build_unit_mesh


def quartic_model():
    return dirichlet_potential_model(
        lambda z: 0.25 * z**4, lambda z: z**3,
        lambda z: 3.0 * z**2, lambda z: 6.0 * z, name="quartic")


def random_states(dim, n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, dim)), rng.standard_normal(n), rng


def test_potential_model_structure():
    model = quartic_model()
    p, z, _ = random_states(2, 20)
    assert np.allclose(model.d2L_dpp(p, z), np.eye(2)[None], atol=0)
    assert np.allclose(model.d2L_dpz(p, z), 0.0, atol=0)
    assert np.allclose(model.d2L_dzz(p, z), 3 * z**2, atol=1e-14)
    assert np.allclose(model.d3L_dzzz(p, z), 6 * z, atol=1e-14)


def test_potential_model_zero_psi_is_dirichlet_form():
    model = dirichlet_potential_model(*(lambda z: np.zeros_like(z),) * 4)
    p, z, rng = random_states(2, 10)
    a, b, c = (rng.standard_normal((10, 2)) for _ in range(3))
    assert np.allclose(model.eval(p, z),
                       0.5 * np.einsum("ni,ni->n", p, p), atol=1e-14)
    assert np.abs(model.d3L_dppp(p, z, a, b, c)).max() == 0.0
    assert np.abs(model.d3L_dzzz(p, z)).max() == 0.0


def test_potential_rejects_inconsistent_derivatives():
    with pytest.raises(ValueError, match="inconsistent"):
        dirichlet_potential_model(
            lambda z: 0.25 * z**4, lambda z: z**3,
            lambda z: 2.0 * z**2,  # wrong second derivative
            lambda z: 6.0 * z)


def test_minimal_surface_at_zero_gradient():
    model = minimal_surface_model()
    p = np.zeros((5, 2))
    z = np.zeros(5)
    assert np.allclose(model.eval(p, z), 1.0, atol=0)
    assert np.allclose(model.d2L_dpp(p, z), np.eye(2)[None], atol=1e-15)


def test_minimal_surface_hessian_eigenvalues():
    """Closed form: 1/w with multiplicity d-1 and w^{-3}, w = sqrt(1+|p|^2)."""
    model = minimal_surface_model()
    rng = np.random.default_rng(1)
    p = rng.standard_normal((30, 2)) * 2.0
    z = np.zeros(30)
    mats = model.d2L_dpp(p, z)
    w = np.sqrt(1 + np.einsum("ni,ni->n", p, p))
    for k in range(30):
        eig = np.sort(np.linalg.eigvalsh(mats[k]))
        assert eig[-1] == pytest.approx(1.0 / w[k], rel=1e-12)
        assert eig[0] == pytest.approx(w[k] ** -3, rel=1e-12)


def fd_scalar(fn, arg, eps=1e-6):
    return (fn(arg + eps) - fn(arg - eps)) / (2 * eps)


@pytest.mark.parametrize("name", ["linear", "quartic", "cosine", "minimal_surface"])
@pytest.mark.parametrize("dim", [1, 2])
def test_derivative_ladder_pointwise(name, dim):
    """dL_dp/dL_dz vs FD of eval, d2 blocks vs FD of d1, directional d3
    blocks vs FD of d2, at 100 random states, relative 1e-6."""
    model = build_problem(name, dim).model
    p, z, rng = random_states(dim, 100, seed=5)
    eps = 1e-6

    def rel_ok(fd, an, tol=1e-6):
        scale = np.maximum(np.abs(an), 1.0)
        return np.max(np.abs(fd - an) / scale) < tol

    # first derivatives
    for i in range(dim):
        e = np.zeros((1, dim))
        e[0, i] = eps
        fd = (model.eval(p + e, z) - model.eval(p - e, z)) / (2 * eps)
        assert rel_ok(fd, model.dL_dp(p, z)[:, i])
    fd = (model.eval(p, z + eps) - model.eval(p, z - eps)) / (2 * eps)
    assert rel_ok(fd, model.dL_dz(p, z))

    # second derivatives
    for i in range(dim):
        e = np.zeros((1, dim))
        e[0, i] = eps
        fd = (model.dL_dp(p + e, z) - model.dL_dp(p - e, z)) / (2 * eps)
        assert rel_ok(fd, model.d2L_dpp(p, z)[:, :, i])
        fdz = (model.dL_dz(p + e, z) - model.dL_dz(p - e, z)) / (2 * eps)
        assert rel_ok(fdz, model.d2L_dpz(p, z)[:, i])
    fd = (model.dL_dz(p, z + eps) - model.dL_dz(p, z - eps)) / (2 * eps)
    assert rel_ok(fd, model.d2L_dzz(p, z))

    # third-order directional contractions
    a, b, c = (rng.standard_normal((100, dim)) for _ in range(3))
    fd = np.einsum("nij,ni,nj->n",
                   (model.d2L_dpp(p + eps * c, z)
                    - model.d2L_dpp(p - eps * c, z)) / (2 * eps), a, b)
    assert rel_ok(fd, model.d3L_dppp(p, z, a, b, c))
    fd = np.einsum("nij,ni,nj->n",
                   (model.d2L_dpp(p, z + eps)
                    - model.d2L_dpp(p, z - eps)) / (2 * eps), a, b)
    assert rel_ok(fd, model.d3L_dppz(p, z, a, b))
    fd = np.einsum("ni,ni->n",
                   (model.d2L_dpz(p, z + eps)
                    - model.d2L_dpz(p, z - eps)) / (2 * eps), a)
    assert rel_ok(fd, model.d3L_dpzz(p, z, a))
    fd = (model.d2L_dzz(p, z + eps) - model.d2L_dzz(p, z - eps)) / (2 * eps)
    assert rel_ok(fd, model.d3L_dzzz(p, z))


def test_d2pp_symmetry():
    for name in PROBLEM_NAMES:
        model = build_problem(name, 2).model
        p, z, _ = random_states(2, 50, seed=9)
        mats = model.d2L_dpp(p, z)
        assert np.abs(mats - np.swapaxes(mats, 1, 2)).max() < 1e-14


def test_classifier_labels():
    assert classify(build_problem("linear", 2).model) == "linear"
    assert classify(build_problem("quartic", 2).model) == "semilinear"
    assert classify(build_problem("cosine", 2).model) == "semilinear"
    assert classify(build_problem("minimal_surface", 2).model) == "quasilinear"


def test_zeroed_gradient_blocks_noop_for_semilinear():
    model = build_problem("quartic", 2).model
    zeroed = with_zeroed_gradient_blocks(model)
    p, z, rng = random_states(2, 50, seed=3)
    a, b, c = (rng.standard_normal((50, 2)) for _ in range(3))
    assert np.abs(zeroed.d3L_dppp(p, z, a, b, c)
                  - model.d3L_dppp(p, z, a, b, c)).max() == 0.0


@pytest.mark.parametrize("name", PROBLEM_NAMES)
@pytest.mark.parametrize("dim", [1, 2])
def test_manufactured_el_residual(name, dim):
    problem = build_problem(name, dim)
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.02, 0.98, size=(50, dim))
    assert np.abs(el_residual(problem, pts)).max() < 1e-10


def test_el_residual_sees_an_inconsistent_second_derivative():
    """A model whose d2L_dpp is twice the derivative of its dL_dp gets a
    forcing built from the wrong d2L_dpp; the residual, which
    differentiates the flux itself, sees the Laplacian left over."""
    exact = energy._sine_product(2)
    base = quartic_model()
    doubled = replace(base, d2L_dpp=lambda p, z: 2.0 * base.d2L_dpp(p, z))
    model = with_forcing(doubled, energy._manufactured_forcing(doubled, exact))
    problem = ManufacturedProblem("quartic", 2, model, exact, exact.value)
    pts = np.random.default_rng(11).uniform(0.02, 0.98, size=(50, 2))
    assert np.abs(el_residual(problem, pts)).max() > 1.0


def _generic_forcing(model, exact, x):
    """-(d2L_dpp : H + d2L_dpz . Du) + dL_dz of the jet of `exact` at x."""
    u, du, hess = exact.jet(x)
    return -(np.einsum("nij,nij->n", model.d2L_dpp(du, u), hess)
             + np.einsum("ni,ni->n", model.d2L_dpz(du, u), du)) + model.dL_dz(du, u)


def _jetless(exact):
    """`exact` with its gradient, Hessian and jet replaced by callables
    that fail, so only its value can be read."""
    def unread(*args, **kwargs):
        raise AssertionError("the forcing read more than the value")

    return ExactSolution(exact.value, unread, unread, unread)


@pytest.mark.parametrize("dim", [1, 2])
def test_sine_product_laplacian_is_its_eigenvalue_times_its_value_bitwise(dim):
    """-trace(hessian) == d pi^2 value, bit for bit: the identity the
    Dirichlet-potential forcing is built on."""
    exact = energy._sine_product(dim)
    x = np.random.default_rng(dim).uniform(size=(200_000, dim))
    u, _, hess = exact.jet(x)
    assert energy._sine_product_eigenvalue(dim) == dim * np.pi**2
    laplacian = np.trace(hess, axis1=1, axis2=2)
    assert (-laplacian).tobytes() == (energy._sine_product_eigenvalue(dim) * u).tobytes()


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("name", ["linear", "quartic", "cosine"])
def test_potential_forcing_from_the_value_is_the_generic_formula_bitwise(name, dim):
    """A Dirichlet-potential problem's forcing reads the exact solution's
    value alone, as d pi^2 u + psi'(u), and is bit for bit the generic
    -(d2L_dpp : H + d2L_dpz . Du) + dL_dz of the jet."""
    problem = build_problem(name, dim)
    model, exact = problem.model, problem.exact
    x = np.random.default_rng(10 + dim).uniform(size=(200_000, dim))
    generic = _generic_forcing(model, exact, x)
    assert model.forcing(x).tobytes() == generic.tobytes()
    value_only = energy._manufactured_forcing(model, _jetless(exact),
                                              energy._sine_product_eigenvalue(dim))
    assert value_only(x).tobytes() == generic.tobytes()


@pytest.mark.parametrize("dim", [1, 2])
def test_minimal_surface_forcing_keeps_the_generic_path(dim):
    """minimal_surface is not `quadratic_gradient`: its forcing reads the
    jet even when offered the Laplacian's eigenvalue, and is the generic
    formula bit for bit."""
    problem = build_problem("minimal_surface", dim)
    model, exact = problem.model, problem.exact
    assert not model.quadratic_gradient
    x = np.random.default_rng(20 + dim).uniform(size=(1000, dim))
    assert model.forcing(x).tobytes() == _generic_forcing(model, exact, x).tobytes()
    forcing = energy._manufactured_forcing(model, _jetless(exact),
                                           energy._sine_product_eigenvalue(dim))
    with pytest.raises(AssertionError, match="more than the value"):
        forcing(x)


@pytest.mark.parametrize("dim", [1, 2])
def test_sine_product_bitwise_equal_to_prod_formulation(dim):
    """The exact solution and its derivatives equal, bit for bit, the
    np.prod of per-axis sine/cosine factors, each taken by the half-angle
    formulas from t = tan(pi x/2)."""
    from nitschelab.energy import _sine_product

    x = np.random.default_rng(dim).uniform(size=(5000, dim))
    t = np.tan((0.5 * np.pi) * x)
    inv = 1.0 / (t * t + 1.0)
    s, c = (2.0 * t) * inv, (1.0 - t * t) * inv
    grad = np.empty_like(x)
    hess = np.empty(x.shape + (dim,))
    for i in range(dim):
        parts = s.copy()
        parts[:, i] = c[:, i]
        grad[:, i] = np.pi * np.prod(parts, axis=1)
        for j in range(dim):
            parts = s.copy()
            if i == j:
                parts[:, i] = -s[:, i]
            else:
                parts[:, i], parts[:, j] = c[:, i], c[:, j]
            hess[:, i, j] = np.pi**2 * np.prod(parts, axis=1)
    exact = _sine_product(dim)
    assert np.array_equal(exact.value(x), np.prod(s, axis=1))
    assert np.array_equal(exact.gradient(x), grad)
    assert np.array_equal(exact.hessian(x), hess)


def test_sine_product_factors_within_two_ulp_of_np_sin_and_cos():
    """The half-angle factors are within 4.5e-16 (2 ulp of 1) of np.sin and
    np.cos on [-2, 3], at every integer and half-integer, next to 1 and at
    1e-300; the solution is at most that on the Dirichlet boundary, and no
    entry writes the caller's points."""
    rng = np.random.default_rng(28)
    x = np.concatenate([rng.uniform(-2.0, 3.0, 200_000), np.arange(-4, 7) / 2,
                        1.0 + np.arange(-10, 11) * 1e-16, [1e-300, -1e-300]])
    s, c = energy._sin_cos_pi(x)
    assert s.shape == c.shape == (1, len(x))
    assert np.abs(s[0] - np.sin(np.pi * x)).max() <= 4.5e-16
    assert np.abs(c[0] - np.cos(np.pi * x)).max() <= 4.5e-16
    assert energy._sin_cos_pi(np.zeros(3))[0].tolist() == [[0.0, 0.0, 0.0]]

    exact = energy._sine_product(2)
    edge = rng.uniform(-0.5, 1.5, 400)
    for side in (0.0, 1.0):
        for axis in (0, 1):
            pts = np.column_stack([edge, edge])
            pts[:, axis] = side
            assert np.abs(exact.value(pts)).max() <= 4.5e-16

    pts = rng.uniform(-2.0, 3.0, size=(300, 2))
    before = pts.copy()
    for call in (exact.value, exact.gradient, exact.hessian, exact.jet,
                 lambda y: exact.jet(y, hessian=False)):
        call(pts)
        assert np.array_equal(pts, before)


@pytest.mark.parametrize("dim", [1, 2])
@settings(deadline=None, max_examples=50, database=None, derandomize=True)
@given(data=st.data())
def test_sine_product_jet_bitwise_equal_to_its_parts(dim, data):
    """The jet returns bit for bit what value, gradient and hessian return
    one by one, at any points, inside (0,1)^dim or not."""
    x = data.draw(hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2, max_side=40)
                             .map(lambda s: (s[0], dim)),
                             elements=st.floats(-2.0, 3.0, allow_subnormal=False)))
    exact = energy._sine_product(dim)
    value, gradient, hessian = exact.jet(x)
    assert np.array_equal(value, exact.value(x))
    assert np.array_equal(gradient, exact.gradient(x))
    assert np.array_equal(hessian, exact.hessian(x))
    value, gradient = exact.jet(x, hessian=False)
    assert np.array_equal(value, exact.value(x))
    assert np.array_equal(gradient, exact.gradient(x))


def test_exact_solution_takes_its_jet_and_replace_keeps_it():
    """A solution is built with its jet, which nothing derives from the
    parts: `replace` of a part keeps the given jet."""
    value = lambda x: x[:, 0] ** 2
    with pytest.raises(TypeError, match="jet"):
        ExactSolution(value, lambda x: 2.0 * x, lambda x: np.full((len(x), 1, 1), 2.0))
    sine = energy._sine_product(1)
    assert replace(sine, value=value).jet is sine.jet


def test_manufactured_quartic_forcing_closed_form():
    problem = build_problem("quartic", 1)
    x = np.linspace(0.05, 0.95, 17)[:, None]
    s = np.sin(np.pi * x[:, 0])
    # -u'' + psi'(u) = f with u = sin(pi x): f = pi^2 sin + sin^3
    expected = np.pi**2 * s + s**3
    assert np.allclose(problem.model.forcing(x), expected, atol=1e-12)


def test_manufactured_boundary_trace_vanishes_2d():
    problem = build_problem("quartic", 2)
    edge = np.linspace(0, 1, 20)
    for side in (np.column_stack([edge, np.zeros(20)]),
                 np.column_stack([edge, np.ones(20)]),
                 np.column_stack([np.zeros(20), edge]),
                 np.column_stack([np.ones(20), edge])):
        assert np.abs(problem.boundary_fn(side)).max() < 1e-14


def test_energy_value_of_exact_solution_closed_form():
    """J(u) = int 0.5 u'^2 - f u = pi^2/4 - pi^2/2 = -pi^2/4 for psi = 0."""
    problem = build_problem("linear", 1)
    mesh = build_unit_mesh(1, 128)
    model, exact = problem.model, problem.exact

    def density(x):
        u = exact.value(x)
        du = exact.gradient(x)
        return model.eval(du, u) - model.forcing(x) * u

    value = integrate(mesh, density, degree=12)
    assert value == pytest.approx(-np.pi**2 / 4, abs=1e-10)


def test_manufactured_semilinear_api():
    prob = build_problem("quartic", 1)
    assert prob.name == "quartic"
    prob = build_problem("cosine", 2)
    assert prob.dim == 2
    with pytest.raises(ValueError):
        build_problem("cubic", 1)
    with pytest.raises(ValueError):
        build_problem("quartic", 3)
    for dim in (True, 1.0):   # used to build the 1D problem
        with pytest.raises(ValueError, match="dim must be 1 or 2"):
            build_problem("quartic", dim)


def pointwise_reference(model, v):
    """Energy and unmasked residual of v, each one sum over every
    quadrature point of L(p, z) - fx z and of its first variation, fx the
    forcing at the physical point, with basis tables and points made here."""
    space = v.space
    mesh, rule = space.mesh, space.quad
    d = mesh.dim
    phi = space.basis.values(rule.points)                                   # (nq, nloc)
    gphi = np.einsum("eki,qlk->eqli", mesh.jac, space.basis.gradients(rule.points))
    local = v.coeffs[space.elem_dofs]
    vals = local @ phi.T
    grads = np.einsum("el,eqli->eqi", local, gphi)
    x = (mesh.vertices[mesh.elements[:, 0]][:, None, :]
         + np.einsum("eij,qj->eqi", mesh.inv_jac, rule.points))
    wq = ((np.abs(mesh.det_jac) ** -1)[:, None] * rule.weights).ravel()
    p, z, fx = grads.reshape(-1, d), vals.ravel(), model.forcing(x.reshape(-1, d))
    energy = np.sum(wq * (model.eval(p, z) - fx * z))
    flux_p = (wq[:, None] * model.dL_dp(p, z)).reshape(grads.shape)
    flux_z = (wq * (model.dL_dz(p, z) - fx)).reshape(vals.shape)
    residual = np.zeros(space.dim)
    np.add.at(residual, space.elem_dofs,
              np.einsum("eqi,eqli->el", flux_p, gphi) + flux_z @ phi)
    return energy, residual


@pytest.mark.parametrize("name", PROBLEM_NAMES)
@pytest.mark.parametrize("dim", [1, 2])
def test_forced_model_takes_its_forcing_as_fx(name, dim):
    """The energy and residual of a forced model, which take the forcing
    as a load vector, match the pointwise integral of L - fx z, fx = f(x),
    and its first variation, to 1e-13 relative on P1-P3."""
    model = build_problem(name, dim).model
    mesh = build_unit_mesh(dim, 7 if dim == 1 else 3)
    for order in (1, 2, 3):
        space = make_space(mesh, order, 0.0)
        v = FEFunction(space, 0.5 * np.random.default_rng(order).standard_normal(space.dim))
        energy_want, residual_want = pointwise_reference(model, v)
        assert abs(energy_value(model, v) - energy_want) <= 1e-13 * abs(energy_want)
        residual = assemble_residual(model, v, mask=False)
        assert np.abs(residual - residual_want).max() <= 1e-13 * np.abs(residual_want).max()


def test_forcing_field_of_a_forced_model():
    """Forcing an unforced model sets its one forcing to f; the density
    stays the unforced one."""
    def f(x):
        return np.cos(x[:, 0])

    base = quartic_model()
    assert base.forcing is None
    model = with_forcing(base, f)
    assert model.forcing is f
    p, z, _ = random_states(1, 30, seed=4)
    assert np.array_equal(model.eval(p, z), base.eval(p, z))
    assert np.array_equal(model.dL_dz(p, z), base.dL_dz(p, z))
    assert with_zeroed_gradient_blocks(model).forcing is f


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_with_forcing_rejects_a_second_forcing(name):
    """A model has one forcing: forcing a forced model, a built-in
    manufactured one among them, raises ValueError instead of summing."""
    model = build_problem(name, 1).model
    with pytest.raises(ValueError, match="already has a forcing"):
        with_forcing(model, lambda x: x[:, 0] ** 2)
