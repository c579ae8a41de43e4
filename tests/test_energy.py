from dataclasses import replace

import numpy as np
import pytest

from nitschelab import energy
from nitschelab.assembly import integrate
from nitschelab.energy import (PROBLEM_NAMES, ManufacturedProblem, build_problem,
                               classify, dirichlet_potential_model, el_residual,
                               minimal_surface_model, with_forcing,
                               with_zeroed_gradient_blocks)
from nitschelab.mesh import build_unit_mesh


def quartic_model():
    return dirichlet_potential_model(
        lambda z: 0.25 * z**4, lambda z: z**3,
        lambda z: 3.0 * z**2, lambda z: 6.0 * z, name="quartic")


def random_states(dim, n, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n, dim)), rng.standard_normal(n),
            rng.uniform(size=(n, dim)), rng)


def test_potential_model_structure():
    model = quartic_model()
    p, z, x, _ = random_states(2, 20)
    assert np.allclose(model.d2L_dpp(p, z, x), np.eye(2)[None], atol=0)
    assert np.allclose(model.d2L_dpz(p, z, x), 0.0, atol=0)
    assert np.allclose(model.d2L_dzz(p, z, x), 3 * z**2, atol=1e-14)
    assert np.allclose(model.d3L_dzzz(p, z, x), 6 * z, atol=1e-14)


def test_potential_model_zero_psi_is_dirichlet_form():
    model = dirichlet_potential_model(*(lambda z: np.zeros_like(z),) * 4)
    p, z, x, rng = random_states(2, 10)
    a, b, c = (rng.standard_normal((10, 2)) for _ in range(3))
    assert np.allclose(model.eval(p, z, x),
                       0.5 * np.einsum("ni,ni->n", p, p), atol=1e-14)
    assert np.abs(model.d3L_dppp(p, z, x, a, b, c)).max() == 0.0
    assert np.abs(model.d3L_dzzz(p, z, x)).max() == 0.0


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
    x = np.zeros((5, 2))
    assert np.allclose(model.eval(p, z, x), 1.0, atol=0)
    assert np.allclose(model.d2L_dpp(p, z, x), np.eye(2)[None], atol=1e-15)


def test_minimal_surface_hessian_eigenvalues():
    """Closed form: 1/w with multiplicity d-1 and w^{-3}, w = sqrt(1+|p|^2)."""
    model = minimal_surface_model()
    rng = np.random.default_rng(1)
    p = rng.standard_normal((30, 2)) * 2.0
    z = np.zeros(30)
    x = rng.uniform(size=(30, 2))
    mats = model.d2L_dpp(p, z, x)
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
    p, z, x, rng = random_states(dim, 100, seed=5)
    eps = 1e-6

    def rel_ok(fd, an, tol=1e-6):
        scale = np.maximum(np.abs(an), 1.0)
        return np.max(np.abs(fd - an) / scale) < tol

    # first derivatives
    for i in range(dim):
        e = np.zeros((1, dim))
        e[0, i] = eps
        fd = (model.eval(p + e, z, x) - model.eval(p - e, z, x)) / (2 * eps)
        assert rel_ok(fd, model.dL_dp(p, z, x)[:, i])
    fd = (model.eval(p, z + eps, x) - model.eval(p, z - eps, x)) / (2 * eps)
    assert rel_ok(fd, model.dL_dz(p, z, x))

    # second derivatives
    for i in range(dim):
        e = np.zeros((1, dim))
        e[0, i] = eps
        fd = (model.dL_dp(p + e, z, x) - model.dL_dp(p - e, z, x)) / (2 * eps)
        assert rel_ok(fd, model.d2L_dpp(p, z, x)[:, :, i])
        fdz = (model.dL_dz(p + e, z, x) - model.dL_dz(p - e, z, x)) / (2 * eps)
        assert rel_ok(fdz, model.d2L_dpz(p, z, x)[:, i])
    fd = (model.dL_dz(p, z + eps, x) - model.dL_dz(p, z - eps, x)) / (2 * eps)
    assert rel_ok(fd, model.d2L_dzz(p, z, x))

    # third-order directional contractions
    a, b, c = (rng.standard_normal((100, dim)) for _ in range(3))
    fd = np.einsum("nij,ni,nj->n",
                   (model.d2L_dpp(p + eps * c, z, x)
                    - model.d2L_dpp(p - eps * c, z, x)) / (2 * eps), a, b)
    assert rel_ok(fd, model.d3L_dppp(p, z, x, a, b, c))
    fd = np.einsum("nij,ni,nj->n",
                   (model.d2L_dpp(p, z + eps, x)
                    - model.d2L_dpp(p, z - eps, x)) / (2 * eps), a, b)
    assert rel_ok(fd, model.d3L_dppz(p, z, x, a, b))
    fd = np.einsum("ni,ni->n",
                   (model.d2L_dpz(p, z + eps, x)
                    - model.d2L_dpz(p, z - eps, x)) / (2 * eps), a)
    assert rel_ok(fd, model.d3L_dpzz(p, z, x, a))
    fd = (model.d2L_dzz(p, z + eps, x) - model.d2L_dzz(p, z - eps, x)) / (2 * eps)
    assert rel_ok(fd, model.d3L_dzzz(p, z, x))


def test_d2pp_symmetry():
    for name in PROBLEM_NAMES:
        model = build_problem(name, 2).model
        p, z, x, _ = random_states(2, 50, seed=9)
        mats = model.d2L_dpp(p, z, x)
        assert np.abs(mats - np.swapaxes(mats, 1, 2)).max() < 1e-14


def test_classifier_labels():
    assert classify(build_problem("linear", 2).model) == "linear"
    assert classify(build_problem("quartic", 2).model) == "semilinear"
    assert classify(build_problem("cosine", 2).model) == "semilinear"
    assert classify(build_problem("minimal_surface", 2).model) == "quasilinear"


def test_zeroed_gradient_blocks_noop_for_semilinear():
    model = build_problem("quartic", 2).model
    zeroed = with_zeroed_gradient_blocks(model)
    p, z, x, rng = random_states(2, 50, seed=3)
    a, b, c = (rng.standard_normal((50, 2)) for _ in range(3))
    assert np.abs(zeroed.d3L_dppp(p, z, x, a, b, c)
                  - model.d3L_dppp(p, z, x, a, b, c)).max() == 0.0


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
    doubled = replace(base, d2L_dpp=lambda p, z, x: 2.0 * base.d2L_dpp(p, z, x))
    model = with_forcing(doubled, energy._manufactured_forcing(doubled, exact))
    problem = ManufacturedProblem("quartic", 2, model, exact, exact.value)
    pts = np.random.default_rng(11).uniform(0.02, 0.98, size=(50, 2))
    assert np.abs(el_residual(problem, pts)).max() > 1.0


@pytest.mark.parametrize("dim", [1, 2])
def test_sine_product_bitwise_equal_to_prod_formulation(dim):
    """The exact solution and its derivatives equal, bit for bit, the
    np.prod of per-axis sine/cosine factors."""
    from nitschelab.energy import _sine_product

    x = np.random.default_rng(dim).uniform(size=(5000, dim))
    s, c = np.sin(np.pi * x), np.cos(np.pi * x)
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


def test_manufactured_quartic_forcing_closed_form():
    problem = build_problem("quartic", 1)
    x = np.linspace(0.05, 0.95, 17)[:, None]
    s = np.sin(np.pi * x[:, 0])
    # -u'' + psi'(u) = f with u = sin(pi x): f = pi^2 sin + sin^3
    expected = np.pi**2 * s + s**3
    fd_lz = problem.model.dL_dz(np.zeros((17, 1)), np.zeros(17), x)
    assert np.allclose(-fd_lz, expected, atol=1e-12)


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
        return model.eval(du, u, x)

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


@pytest.mark.parametrize("name", PROBLEM_NAMES)
@pytest.mark.parametrize("dim", [1, 2])
def test_forced_model_takes_its_forcing_as_fx(name, dim):
    """fx = forcing(x) gives bitwise what eval and dL_dz compute alone."""
    model = build_problem(name, dim).model
    p, z, x, _ = random_states(dim, 50, seed=9)
    fx = model.forcing(x)
    assert np.array_equal(model.eval(p, z, x, fx=fx), model.eval(p, z, x))
    assert np.array_equal(model.dL_dz(p, z, x, fx=fx), model.dL_dz(p, z, x))


def test_forcing_field_of_nested_forcings():
    """Only the outer forcing is the model's; the inner one stays inside
    the inner eval and dL_dz."""
    def f1(x):
        return np.cos(x[:, 0])

    def f2(x):
        return x[:, 0] ** 2

    base = quartic_model()
    assert base.forcing is None
    model = with_forcing(with_forcing(base, f1), f2)
    assert model.forcing is f2
    p, z, x, _ = random_states(1, 30, seed=4)
    want = base.dL_dz(p, z, x) - f1(x) - f2(x)
    assert np.array_equal(model.dL_dz(p, z, x, fx=f2(x)), want)
    assert np.array_equal(model.dL_dz(p, z, x), want)
    assert np.array_equal(model.eval(p, z, x, fx=f2(x)), model.eval(p, z, x))
    assert with_zeroed_gradient_blocks(model).forcing is f2
