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
    takes no direction.  ppp_zero / ppz_zero are structural flags that
    hold identically in (p, z, x), not just at sampled states.

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
    are replaced must clear it.  It is declared, never inferred from
    ppp_zero / ppz_zero, which `with_zeroed_gradient_blocks` also sets
    on the quasilinear minimal-surface model.
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
    ppp_zero: bool
    ppz_zero: bool
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


def _zeros_like_batch(z):
    return np.zeros_like(np.asarray(z, dtype=float))


def dirichlet_potential_model(psi, dpsi, d2psi, d3psi, f=None, name="potential",
                              formula="0.5|Du|^2 + psi(u) - f u"):
    """Density 0.5|p|^2 + psi(z) - f(x) z.

    The p-Hessian is the identity and every third derivative touching p
    vanishes, so the Euler-Lagrange system is semilinear; the model is
    marked `quadratic_gradient`.  The psi derivatives are cross-checked
    against finite differences of psi at construction to catch
    inconsistent inputs early.
    """
    _check_potential_derivatives(psi, dpsi, d2psi, d3psi)
    fz = f if f is not None else (lambda x: np.zeros(len(np.atleast_2d(x))))

    def ev(p, z, x):
        return 0.5 * np.einsum("...i,...i->...", p, p) + psi(z) - fz(x) * z

    def dl_dp(p, z, x):
        return np.array(p, dtype=float, copy=True)

    def dl_dz(p, z, x):
        return dpsi(z) - fz(x)

    def d2_pp(p, z, x):
        d = p.shape[-1]
        eye = np.eye(d)
        return np.broadcast_to(eye, p.shape[:-1] + (d, d)).copy()

    def d2_pz(p, z, x):
        return np.zeros_like(p, dtype=float)

    def d2_zz(p, z, x):
        return d2psi(z)

    def d3_zero3(p, z, x, a, b, c):
        return _zeros_like_batch(z)

    def d3_zero2(p, z, x, a, b):
        return _zeros_like_batch(z)

    def d3_zero1(p, z, x, a):
        return _zeros_like_batch(z)

    def d3_zzz(p, z, x):
        return d3psi(z)

    return EnergyModel(name, formula, ev, dl_dp, dl_dz, d2_pp, d2_pz, d2_zz,
                       d3_zero3, d3_zero2, d3_zero1, d3_zzz,
                       ppp_zero=True, ppz_zero=True, quadratic_gradient=True)


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

    def dl_dz(p, z, x):
        return _zeros_like_batch(z)

    def d2_pp(p, z, x):
        d = p.shape[-1]
        ww = w(p)
        eye = np.broadcast_to(np.eye(d), p.shape[:-1] + (d, d))
        outer = np.einsum("...i,...j->...ij", p, p)
        return eye / ww[..., None, None] - outer / (ww**3)[..., None, None]

    def d2_pz(p, z, x):
        return np.zeros_like(p, dtype=float)

    def d2_zz(p, z, x):
        return _zeros_like_batch(z)

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

    def d3_zero2(p, z, x, a, b):
        return _zeros_like_batch(z)

    def d3_zero1(p, z, x, a):
        return _zeros_like_batch(z)

    def d3_zzz(p, z, x):
        return _zeros_like_batch(z)

    return EnergyModel("minimal_surface", "sqrt(1 + |Du|^2)",
                       ev, dl_dp, dl_dz, d2_pp, d2_pz, d2_zz,
                       d3_ppp, d3_zero2, d3_zero1, d3_zzz,
                       ppp_zero=False, ppz_zero=True)


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

    def d3_zero3(p, z, x, a, b, c):
        return _zeros_like_batch(z)

    def d3_zero2(p, z, x, a, b):
        return _zeros_like_batch(z)

    return replace(model, d3L_dppp=d3_zero3, d3L_dppz=d3_zero2,
                   ppp_zero=True, ppz_zero=True)


def classify(model, dim=2, samples=100, seed=0, tol=1e-12):
    """Structural class of the Euler-Lagrange system behind the energy.

    Samples the four third-derivative blocks at random states and random
    directions.  All blocks vanish -> linear; the blocks contracting two
    or three gradients vanish -> semilinear; otherwise quasilinear.
    """
    rng = np.random.default_rng(seed)
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


def el_residual(problem, points):
    """Pointwise Euler-Lagrange residual -div dL_dp + dL_dz at given points;
    vanishes identically for manufactured problems (up to rounding)."""
    return _manufactured_forcing(problem.model, problem.exact)(points)
