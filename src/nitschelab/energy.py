"""Energy densities L(p, z, x) with analytic derivatives through third order.

An EnergyModel bundles vectorized callables for L and its partial
derivatives: all callables accept batched arguments, p of shape (n, d),
z of shape (n,), x of shape (n, d), and return arrays over the batch.
Third-order blocks are exposed as directional contractions (the only
form assembly and the third-variation estimates ever need), so no
rank-3 tensors are stored.

Built-in models:
  * quadratic-plus-potential density 0.5|p|^2 + psi(z) - f(x) z, whose
    Euler-Lagrange system -laplace(u) + psi'(u) = f is semilinear;
  * the minimal surface density sqrt(1 + |p|^2), a quasilinear example.

Manufactured problems pick u(x) = prod_i sin(pi x_i) and compute the
matching forcing analytically, so the exact solution and all its
derivatives are available to the error studies.
"""

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "EnergyModel",
    "ExactSolution",
    "ManufacturedProblem",
    "dirichlet_potential_model",
    "minimal_surface_model",
    "classify",
    "build_problem",
    "with_forcing",
    "with_zeroed_gradient_blocks",
    "PROBLEM_NAMES",
]

PROBLEM_NAMES = ("linear", "quartic", "cosine", "minimal_surface")


@dataclass(frozen=True)
class EnergyModel:
    """Batched density callables; immutable and stateless.

    d3L_dppp(p, z, x, a, b, c) contracts the third p-derivative with three
    gradient directions; d3L_dppz with two; d3L_dpzz with one; d3L_dzzz
    takes no direction.

    `forcing` is the f of the -f(x) z term that `with_forcing` adds, None
    for an unforced model.  A forced model's eval and dL_dz take an
    optional keyword fx, f already evaluated at x, and evaluate f(x)
    themselves without it.  Assembly passes fx on the space's own rule,
    from a per-space cache of f at its quadrature points, so an eval or
    dL_dz replaced on a forced model must accept fx as well.

    `quadratic_gradient` declares L = 0.5|p|^2 + G(z, x): dL_dp is p,
    d2L_dpp the identity, d2L_dpz zero, and dL_dz and d2L_dzz never read
    p.  Assembly then takes the gradient part of the residual and the
    Hessian from the space's cached Laplace stiffness, calls dL_dz and
    d2L_dzz with p=None, and never calls dL_dp, d2L_dpp or d2L_dpz.  Only
    `dirichlet_potential_model` sets it, and a copy whose p-derivatives
    are replaced must clear it.
    """

    name: str
    formula: str
    eval: callable
    dL_dp: callable
    dL_dz: callable
    d2L_dpp: callable
    d2L_dpz: callable
    d2L_dzz: callable
    d3L_dppp: callable
    d3L_dppz: callable
    d3L_dpzz: callable
    d3L_dzzz: callable
    forcing: callable = None
    quadratic_gradient: bool = False


@dataclass(frozen=True)
class ExactSolution:
    """A manufactured solution with analytic gradient and Hessian."""

    value: callable       # (n, d) -> (n,)
    gradient: callable    # (n, d) -> (n, d)
    hessian: callable     # (n, d) -> (n, d, d)


@dataclass(frozen=True)
class ManufacturedProblem:
    name: str
    dim: int
    model: EnergyModel
    exact: ExactSolution
    boundary_fn: callable


def _zero(p, z, x, *directions):
    """A derivative block that vanishes identically, as a zero per point."""
    return np.zeros_like(np.asarray(z, dtype=float))


def _zero_pz(p, z, x):
    """The mixed block d2L_dpz of a density without p-z coupling."""
    return np.zeros_like(p, dtype=float)


def dirichlet_potential_model(psi, dpsi, d2psi, d3psi, name="potential",
                              formula="0.5|Du|^2 + psi(u)"):
    """Density 0.5|p|^2 + psi(z); `with_forcing` adds a -f(x) z term.

    The p-Hessian is the identity and every third derivative touching p
    vanishes, so the Euler-Lagrange system is semilinear; the model is
    marked `quadratic_gradient`.  The psi derivatives are cross-checked
    against finite differences of psi at construction to catch
    inconsistent inputs early.
    """
    _check_potential_derivatives(psi, dpsi, d2psi, d3psi)

    def ev(p, z, x):
        return 0.5 * np.einsum("...i,...i->...", p, p) + psi(z)

    def dl_dp(p, z, x):
        return np.array(p, dtype=float, copy=True)

    def dl_dz(p, z, x):
        return dpsi(z)

    def d2_pp(p, z, x):
        d = p.shape[-1]
        eye = np.eye(d)
        return np.broadcast_to(eye, p.shape[:-1] + (d, d)).copy()

    def d2_zz(p, z, x):
        return d2psi(z)

    def d3_zzz(p, z, x):
        return d3psi(z)

    return EnergyModel(name, formula, ev, dl_dp, dl_dz, d2_pp, _zero_pz, d2_zz,
                       _zero, _zero, _zero, d3_zzz, quadratic_gradient=True)


def _check_potential_derivatives(psi, dpsi, d2psi, d3psi, tol=1e-4):
    z = np.linspace(-1.7, 1.7, 13)
    eps = 1e-5
    pairs = [(psi, dpsi), (dpsi, d2psi), (d2psi, d3psi)]
    for k, (fn, dfn) in enumerate(pairs):
        fd = (np.asarray(fn(z + eps), dtype=float) - np.asarray(fn(z - eps), dtype=float)) / (2 * eps)
        an = np.asarray(dfn(z), dtype=float)
        scale = np.maximum(np.abs(an), 1.0)
        if np.max(np.abs(fd - an) / scale) > tol:
            raise ValueError(f"psi derivative of order {k + 1} inconsistent with finite differences")


def minimal_surface_model():
    """Graph area density sqrt(1 + |p|^2); the standard quasilinear example."""

    def w(p):
        return np.sqrt(1.0 + np.einsum("...i,...i->...", p, p))

    def ev(p, z, x):
        return w(p)

    def dl_dp(p, z, x):
        return p / w(p)[..., None]

    def d2_pp(p, z, x):
        d = p.shape[-1]
        ww = w(p)
        eye = np.broadcast_to(np.eye(d), p.shape[:-1] + (d, d))
        outer = np.einsum("...i,...j->...ij", p, p)
        return eye / ww[..., None, None] - outer / (ww**3)[..., None, None]

    def d3_ppp(p, z, x, a, b, c):
        ww = w(p)
        pa = np.einsum("...i,...i->...", p, a)
        pb = np.einsum("...i,...i->...", p, b)
        pc = np.einsum("...i,...i->...", p, c)
        ab = np.einsum("...i,...i->...", a, b)
        ac = np.einsum("...i,...i->...", a, c)
        bc = np.einsum("...i,...i->...", b, c)
        return (-(ab * pc + ac * pb + bc * pa) / ww**3
                + 3.0 * pa * pb * pc / ww**5)

    return EnergyModel("minimal_surface", "sqrt(1 + |Du|^2)",
                       ev, dl_dp, _zero, d2_pp, _zero_pz, _zero,
                       d3_ppp, _zero, _zero, _zero)


def with_forcing(model, f, name=None):
    """Add a -f(x) z term; only the z-derivative of first order changes.

    The result's `forcing` is f; its eval and dL_dz use fx, f already
    evaluated at x, when the caller passes it."""

    def ev(p, z, x, fx=None):
        return model.eval(p, z, x) - (f(x) if fx is None else fx) * z

    def dl_dz(p, z, x, fx=None):
        return model.dL_dz(p, z, x) - (f(x) if fx is None else fx)

    return replace(model, eval=ev, dL_dz=dl_dz, forcing=f,
                   name=name or model.name,
                   formula=model.formula + " - f u")


def with_zeroed_gradient_blocks(model):
    """Copy of the model with the third derivatives that touch two or more
    gradient slots replaced by zero.  For a semilinear density this changes
    nothing; the difference is the quasilinear content of the energy."""
    return replace(model, d3L_dppp=_zero, d3L_dppz=_zero)


def classify(model):
    """Structural class of the Euler-Lagrange system behind the energy.

    Samples the four third-derivative blocks at 100 random 2-d states and
    directions (seed 0).  All blocks vanish (below 1e-12) -> linear; the
    blocks contracting two or three gradients vanish -> semilinear;
    otherwise quasilinear.
    """
    samples, dim, tol = 100, 2, 1e-12
    rng = np.random.default_rng(0)
    p = rng.standard_normal((samples, dim))
    z = rng.standard_normal(samples)
    x = rng.uniform(size=(samples, dim))
    a, b, c = (rng.standard_normal((samples, dim)) for _ in range(3))

    ppp = np.max(np.abs(model.d3L_dppp(p, z, x, a, b, c)))
    ppz = np.max(np.abs(model.d3L_dppz(p, z, x, a, b)))
    pzz = np.max(np.abs(model.d3L_dpzz(p, z, x, a)))
    zzz = np.max(np.abs(model.d3L_dzzz(p, z, x)))

    if max(ppp, ppz, pzz, zzz) < tol:
        return "linear"
    if ppp < tol and ppz < tol:
        return "semilinear"
    return "quasilinear"


# ---------------------------------------------------------------------------
# manufactured problems


def _sine_product(dim):
    """u(x) = prod_i sin(pi x_i) on (0,1)^dim, vanishing on the boundary.

    sin and cos are taken once per call and every derivative multiplies
    its factors left to right, axis by axis."""

    def trig(x):
        px = np.pi * np.atleast_2d(x)
        return np.sin(px), np.cos(px)

    def prod(cols):
        out = cols[0]
        for col in cols[1:]:
            out = out * col
        return out

    def value(x):
        return prod(np.sin(np.pi * np.atleast_2d(x)).T)

    def gradient(x):
        s, c = trig(x)
        grad = np.empty_like(s)
        for i in range(dim):
            grad[:, i] = np.pi * prod([c[:, k] if k == i else s[:, k] for k in range(dim)])
        return grad

    def hessian(x):
        s, c = trig(x)
        hess = np.empty(s.shape + (dim,))
        for i in range(dim):
            for j in range(dim):
                if i == j:
                    cols = [-s[:, k] if k == i else s[:, k] for k in range(dim)]
                else:
                    cols = [c[:, k] if k in (i, j) else s[:, k] for k in range(dim)]
                hess[:, i, j] = np.pi**2 * prod(cols)
        return hess

    return ExactSolution(value, gradient, hessian)


_POTENTIALS = {
    "linear": (lambda z: np.zeros_like(z), lambda z: np.zeros_like(z),
               lambda z: np.zeros_like(z), lambda z: np.zeros_like(z),
               "0.5|Du|^2"),
    "quartic": (lambda z: 0.25 * ((z * z) * (z * z)), lambda z: z * z * z,
                lambda z: 3.0 * (z * z), lambda z: 6.0 * z,
                "0.5|Du|^2 + u^4/4"),
    "cosine": (lambda z: np.cos(z), lambda z: -np.sin(z),
               lambda z: -np.cos(z), lambda z: np.sin(z),
               "0.5|Du|^2 + cos(u)"),
}


def _manufactured_forcing(base_model, exact):
    """Forcing that makes `exact` solve -div dL_dp + dL_dz = f pointwise."""

    def f(x):
        x = np.atleast_2d(x)
        u = exact.value(x)
        du = exact.gradient(x)
        h = exact.hessian(x)
        div_flux = (np.einsum("nij,nij->n", base_model.d2L_dpp(du, u, x), h)
                    + np.einsum("ni,ni->n", base_model.d2L_dpz(du, u, x), du))
        return -div_flux + base_model.dL_dz(du, u, x)

    return f


def build_problem(name, dim):
    """One of the built-in manufactured problems on (0,1)^dim."""
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    exact = _sine_product(dim)
    if name in _POTENTIALS:
        psi, dpsi, d2psi, d3psi, formula = _POTENTIALS[name]
        base = dirichlet_potential_model(psi, dpsi, d2psi, d3psi,
                                         name=name, formula=formula)
    elif name == "minimal_surface":
        base = minimal_surface_model()
    else:
        raise ValueError(f"unknown problem {name!r}; choose from {PROBLEM_NAMES}")
    f = _manufactured_forcing(base, exact)
    model = with_forcing(base, f, name=name)
    return ManufacturedProblem(name, dim, model, exact, exact.value)


# weights of f(x + k h) - f(x - k h), k = 1..4, in the eighth-order central
# difference for h f'(x)
_CENTRAL8 = (4.0 / 5.0, -1.0 / 5.0, 4.0 / 105.0, -1.0 / 280.0)


def el_residual(problem, points):
    """Pointwise Euler-Lagrange residual -div dL_dp + dL_dz of the exact
    solution at given points, forcing included; vanishes for manufactured
    problems up to rounding (about 1e-12).

    The divergence of the flux dL_dp(Du(x), u(x), x) is taken by
    eighth-order central differences in x with step 1e-3, so the check
    does not use d2L_dpp or d2L_dpz, from which the forcing is built."""
    h = 1e-3
    model, exact = problem.model, problem.exact
    x = np.atleast_2d(np.asarray(points, dtype=float))

    def flux(y, axis):
        return model.dL_dp(exact.gradient(y), exact.value(y), y)[:, axis]

    div = np.zeros(len(x))
    for axis in range(x.shape[1]):
        for k, weight in enumerate(_CENTRAL8, start=1):
            shift = np.zeros(x.shape[1])
            shift[axis] = k * h
            div += weight * (flux(x + shift, axis) - flux(x - shift, axis)) / h
    return -div + model.dL_dz(exact.gradient(x), exact.value(x), x)
