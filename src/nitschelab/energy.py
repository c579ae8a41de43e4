"""Energy densities L(p, z) with analytic derivatives through third order.

The energies are J(u) = int L(Du, u) dx - <f, u>: the density never
reads the physical point, and a forcing f is a linear functional kept
beside it.  An EnergyModel bundles vectorized callables for L and its
partial derivatives: all callables accept batched arguments, p of shape
(n, d) and z of shape (n,), and return arrays over the batch.
Third-order blocks are exposed as directional contractions (the only
form assembly and the third-variation estimates ever need), so no
rank-3 tensors are stored.

Built-in models:
  * quadratic-plus-potential density 0.5|p|^2 + psi(z) with forcing f,
    whose Euler-Lagrange system -laplace(u) + psi'(u) = f is semilinear;
  * the minimal surface density sqrt(1 + |p|^2), a quasilinear example.

Manufactured problems pick u(x) = prod_i sin(pi x_i) and compute the
matching forcing analytically, so the exact solution and all its
derivatives are available to the error studies.  The forcing of a
Dirichlet-potential problem reads the solution's value alone, since
-laplace u = d pi^2 u holds bit for bit for the sine product; the
minimal surface forcing reads its gradient and Hessian too.
"""

import functools
import operator
from dataclasses import dataclass, replace

import numpy as np

from .mesh import _check_dim

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

    d3L_dppp(p, z, a, b, c) contracts the third p-derivative with three
    gradient directions; d3L_dppz with two; d3L_dpzz with one; d3L_dzzz
    takes no direction.

    `forcing` is the f of the energy's linear term -<f, u> that
    `with_forcing` sets, a callable of points (n, d) -> (n,), or None for
    an unforced model.  No density callable sees it: assembly subtracts
    the space's load vector int f phi_i from the residual, and its dot
    product with the coefficients from the energy.

    `quadratic_gradient` declares L = 0.5|p|^2 + G(z): dL_dp is p,
    d2L_dpp the identity, d2L_dpz zero, and dL_dz and d2L_dzz never read
    p, while eval(None, z) returns G(z) alone.  Assembly then takes the
    gradient part of the energy, the residual and the Hessian from the
    space's cached Laplace stiffness, calls eval, dL_dz and d2L_dzz with
    p=None, and never calls dL_dp, d2L_dpp or d2L_dpz.  Only
    `dirichlet_potential_model` sets it, and a copy whose p-derivatives
    or eval are replaced must keep to this protocol or clear it.
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


def _jet_of_parts(parts, x, hessian=True):
    """The jet of a solution built without one: `parts`, its (value,
    gradient, hessian) callables, called one by one."""
    value, gradient, hess = parts
    if hessian:
        return value(x), gradient(x), hess(x)
    return value(x), gradient(x)


@dataclass(frozen=True)
class ExactSolution:
    """A manufactured solution with analytic gradient and Hessian.

    `jet(x)` returns (value, gradient, hessian) at once and
    `jet(x, hessian=False)` returns (value, gradient), sharing the work
    the callables have in common; a jet must return bit for bit what the
    callables return.  `norms`, `el_residual` and the manufactured
    forcing of a model that is not `quadratic_gradient` read the solution
    through it; a Dirichlet-potential forcing reads `value` alone.  A
    solution built without a jet (jet None) gets one that calls the three
    callables one by one, and `dataclasses.replace` derives it again from
    the new callables."""

    value: callable       # (n, d) -> (n,)
    gradient: callable    # (n, d) -> (n, d)
    hessian: callable     # (n, d) -> (n, d, d)
    jet: callable = None  # (n, d), hessian=True -> (value, gradient[, hessian])

    def __post_init__(self):
        if self.jet is None or getattr(self.jet, "func", None) is _jet_of_parts:
            parts = (self.value, self.gradient, self.hessian)
            object.__setattr__(self, "jet", functools.partial(_jet_of_parts, parts))


@dataclass(frozen=True)
class ManufacturedProblem:
    name: str
    dim: int
    model: EnergyModel
    exact: ExactSolution
    boundary_fn: callable


def _zero(p, z, *directions):
    """A derivative block that vanishes identically, as a zero per point."""
    return np.zeros_like(np.asarray(z, dtype=float))


def _zero_pz(p, z):
    """The mixed block d2L_dpz of a density without p-z coupling."""
    return np.zeros_like(p, dtype=float)


def dirichlet_potential_model(psi, dpsi, d2psi, d3psi, name="potential",
                              formula="0.5|Du|^2 + psi(u)"):
    """Density 0.5|p|^2 + psi(z); `with_forcing` adds a forcing.

    The p-Hessian is the identity and every third derivative touching p
    vanishes, so the Euler-Lagrange system is semilinear; the model is
    marked `quadratic_gradient`, and eval(None, z) is psi(z).  The psi
    derivatives are cross-checked against finite differences of psi at
    construction to catch inconsistent inputs early.
    """
    _check_potential_derivatives(psi, dpsi, d2psi, d3psi)

    def ev(p, z):
        if p is None:
            return psi(z)
        return 0.5 * np.einsum("...i,...i->...", p, p) + psi(z)

    def dl_dp(p, z):
        return np.array(p, dtype=float, copy=True)

    def dl_dz(p, z):
        return dpsi(z)

    def d2_pp(p, z):
        d = p.shape[-1]
        eye = np.eye(d)
        return np.broadcast_to(eye, p.shape[:-1] + (d, d)).copy()

    def d2_zz(p, z):
        return d2psi(z)

    def d3_zzz(p, z):
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

    def ev(p, z):
        return w(p)

    def dl_dp(p, z):
        return p / w(p)[..., None]

    def d2_pp(p, z):
        d = p.shape[-1]
        ww = w(p)
        eye = np.broadcast_to(np.eye(d), p.shape[:-1] + (d, d))
        outer = np.einsum("...i,...j->...ij", p, p)
        return eye / ww[..., None, None] - outer / (ww**3)[..., None, None]

    def d3_ppp(p, z, a, b, c):
        ww = w(p)
        pa, pb, pc, ab, ac, bc = (np.einsum("...i,...i->...", u, v) for u, v in
                                  ((p, a), (p, b), (p, c), (a, b), (a, c), (b, c)))
        return (-(ab * pc + ac * pb + bc * pa) / ww**3
                + 3.0 * pa * pb * pc / ww**5)

    return EnergyModel("minimal_surface", "sqrt(1 + |Du|^2)",
                       ev, dl_dp, _zero, d2_pp, _zero_pz, _zero,
                       d3_ppp, _zero, _zero, _zero)


def with_forcing(model, f, name=None):
    """Add the linear term -<f, u> to the energy; the density is unchanged.

    The result's `forcing` is f, or, on a model already forced by g, the
    sum x -> g(x) + f(x)."""
    forcing = f
    if model.forcing is not None:
        inner = model.forcing

        def forcing(x):
            return inner(x) + f(x)

    return replace(model, forcing=forcing, name=name or model.name,
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
    a, b, c = (rng.standard_normal((samples, dim)) for _ in range(3))

    ppp = np.max(np.abs(model.d3L_dppp(p, z, a, b, c)))
    ppz = np.max(np.abs(model.d3L_dppz(p, z, a, b)))
    pzz = np.max(np.abs(model.d3L_dpzz(p, z, a)))
    zzz = np.max(np.abs(model.d3L_dzzz(p, z)))

    if max(ppp, ppz, pzz, zzz) < tol:
        return "linear"
    if ppp < tol and ppz < tol:
        return "semilinear"
    return "quasilinear"


# ---------------------------------------------------------------------------
# manufactured problems


def _sin_cos_pi(x):
    """sin(pi x) and cos(pi x) of the rows of x from one tan pass, by the
    half-angle formulas sin = 2t/(1+t^2), cos = (1-t^2)/(1+t^2) with
    t = tan(pi x/2).

    On x86-64 with AVX-512, numpy 2.4's float64 tan runs a vectorized loop
    where its sin and cos run a scalar one (0.8 against 8.8 and 10.5 ns
    per value), so the pair costs about a sixth of np.sin plus np.cos.
    Where numpy has no vectorized tan for the CPU it calls the scalar
    libm tan, and the pass should be about even with sin+cos (not
    measured).  Both factors are within 2.2e-16 of np.sin and np.cos, but
    not bitwise them, and as accurate as np.sin against the exact value
    (1.26e-15 against 1.25e-15 on [-2, 3]); sin is exactly 0 at x = 0.
    Three arrays are live at a time, and x is never written."""
    t = (0.5 * np.pi) * np.atleast_2d(x)
    np.tan(t, out=t)
    t2 = t * t
    inv = np.add(t2, 1.0)
    np.divide(1.0, inv, out=inv)
    np.multiply(t, 2.0, out=t)
    np.multiply(t, inv, out=t)
    np.subtract(1.0, t2, out=t2)
    np.multiply(t2, inv, out=t2)
    return t, t2


def _sine_product(dim):
    """u(x) = prod_i sin(pi x_i) on (0,1)^dim, vanishing on the boundary.

    Every call takes sin(pi x) and cos(pi x) from one `_sin_cos_pi` pass,
    one tan, not from np.sin and np.cos, and every derivative multiplies
    its factors left to right, axis by axis; the jet takes them once for
    all it returns."""

    def prod(cols):
        return functools.reduce(operator.mul, cols)

    def value_of(s):
        return prod(s.T)

    def gradient_of(s, c):
        grad = np.empty_like(s)
        for i in range(dim):
            grad[:, i] = np.pi * prod([c[:, k] if k == i else s[:, k] for k in range(dim)])
        return grad

    def hessian_of(s, c):
        hess = np.empty(s.shape + (dim,))
        for i in range(dim):
            for j in range(dim):
                if i == j:
                    cols = [-s[:, k] if k == i else s[:, k] for k in range(dim)]
                else:
                    cols = [c[:, k] if k in (i, j) else s[:, k] for k in range(dim)]
                hess[:, i, j] = np.pi**2 * prod(cols)
        return hess

    def value(x):
        return value_of(_sin_cos_pi(x)[0])

    def gradient(x):
        return gradient_of(*_sin_cos_pi(x))

    def hessian(x):
        return hessian_of(*_sin_cos_pi(x))

    def jet(x, hessian=True):
        s, c = _sin_cos_pi(x)
        if not hessian:
            return value_of(s), gradient_of(s, c)
        return value_of(s), gradient_of(s, c), hessian_of(s, c)

    return ExactSolution(value, gradient, hessian, jet)


def _sine_product_eigenvalue(dim):
    """dim pi^2, with -laplace u = dim pi^2 u for u = `_sine_product(dim)`.

    The identity holds bit for bit against the Hessian's trace: each
    diagonal entry is pi^2 times the product with one factor negated,
    -(pi^2 u) rounded once, and summing dim = 1 or 2 of them, like
    multiplying by dim, is exact."""
    return dim * np.pi**2


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


def _manufactured_forcing(base_model, exact, laplace_eigenvalue=None):
    """Forcing that makes `exact` solve -div dL_dp + dL_dz = f pointwise.

    Generically f = -(d2L_dpp : H + d2L_dpz . Du) + dL_dz, from the jet
    of `exact`.  For a `quadratic_gradient` model -div dL_dp is
    -laplace u, so given `laplace_eigenvalue`, the lambda with
    -laplace u = lambda u, f is lambda u + dL_dz(None, u) from the value
    alone, bit for bit the generic result when the identity holds bit for
    bit (as `_sine_product_eigenvalue` states it does)."""
    if base_model.quadratic_gradient and laplace_eigenvalue is not None:
        def f(x):
            u = exact.value(np.atleast_2d(x))
            return laplace_eigenvalue * u + base_model.dL_dz(None, u)

        return f

    def f(x):
        x = np.atleast_2d(x)
        u, du, h = exact.jet(x)
        div_flux = (np.einsum("nij,nij->n", base_model.d2L_dpp(du, u), h)
                    + np.einsum("ni,ni->n", base_model.d2L_dpz(du, u), du))
        return -div_flux + base_model.dL_dz(du, u)

    return f


def build_problem(name, dim):
    """One of the built-in manufactured problems on (0,1)^dim; raises
    ValueError unless `name` is in PROBLEM_NAMES and `dim` the integer 1 or 2."""
    if name not in PROBLEM_NAMES:
        raise ValueError(f"unknown problem {name!r}; choose from {PROBLEM_NAMES}")
    exact = _sine_product(_check_dim(dim))
    if name == "minimal_surface":
        base = minimal_surface_model()
    else:
        psi, dpsi, d2psi, d3psi, formula = _POTENTIALS[name]
        base = dirichlet_potential_model(psi, dpsi, d2psi, d3psi,
                                         name=name, formula=formula)
    f = _manufactured_forcing(base, exact, _sine_product_eigenvalue(dim))
    model = with_forcing(base, f, name=name)
    return ManufacturedProblem(name, dim, model, exact, exact.value)


# weights of f(x + k h) - f(x - k h), k = 1..4, in the eighth-order central
# difference for h f'(x)
_CENTRAL8 = (4.0 / 5.0, -1.0 / 5.0, 4.0 / 105.0, -1.0 / 280.0)


def el_residual(problem, points):
    """Pointwise Euler-Lagrange residual -div dL_dp + dL_dz - f of the
    exact solution at given points; vanishes for manufactured problems up
    to rounding (about 1e-12).

    The divergence of the flux dL_dp(Du(x), u(x)) is taken by
    eighth-order central differences in x with step 1e-3, so the check
    does not use d2L_dpp or d2L_dpz, from which the forcing is built."""
    h = 1e-3
    model, exact = problem.model, problem.exact
    x = np.atleast_2d(np.asarray(points, dtype=float))

    def flux(y, axis):
        u, du = exact.jet(y, hessian=False)
        return model.dL_dp(du, u)[:, axis]

    div = np.zeros(len(x))
    for axis in range(x.shape[1]):
        for k, weight in enumerate(_CENTRAL8, start=1):
            shift = np.zeros(x.shape[1])
            shift[axis] = k * h
            div += weight * (flux(x + shift, axis) - flux(x - shift, axis)) / h
    u, du = exact.jet(x, hessian=False)
    residual = -div + model.dL_dz(du, u)
    return residual if model.forcing is None else residual - model.forcing(x)
