"""Quadrature assembly of the energy, its first three variations, Gram
operators, and broken Sobolev norms.

All element loops are chunked and vectorized.  Local vectors and
matrices are matrix products of per-point coefficients against tables of
the reference basis at the quadrature points, so results are
deterministic for a given problem size and BLAS build and reruns are
byte-identical; they are not bitwise equal to an evaluation that
contracts in another order.

Two caches keep data that depends only on the rule or on x out of the
chunk loops; neither changes a value.  The reference and outer-product
tables are built once per (basis, point set) and process, for the rules
of `quadrature_rule` and the sample lattices (`felement._rule_table`).
The forcing of a forced model (`EnergyModel.forcing`) is evaluated once
per (space, forcing, chunk) at the space's own quadrature points and
kept on the space; `energy_value` and `assemble_residual` pass it to
`eval` and `dL_dz` as fx.  Physical points are recomputed per call.
Dirichlet conditions are imposed by identity-masking boundary rows and
columns, which keeps the operators symmetric on the constrained space.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .felement import (FEFunction, ReferenceBasis, _chunks, _reference_table,
                       _rule_table, quadrature_rule, sample_lattice, tabulate)

__all__ = [
    "SparseOperator",
    "NormReport",
    "energy_value",
    "assemble_residual",
    "assemble_hessian",
    "apply_third_variation",
    "assemble_gram_l2",
    "assemble_gram_h1",
    "norms",
    "lq_norm",
    "integrate",
]


class AssemblyError(RuntimeError):
    """Raised when an integrand evaluates to a non-finite value."""


@dataclass
class SparseOperator:
    """Symmetric sparse operator in CSR storage."""

    matrix: sp.csr_matrix

    @property
    def dim(self):
        return self.matrix.shape[0]

    def apply(self, x):
        return self.matrix @ np.asarray(x, dtype=float)

    def toarray(self):
        return self.matrix.toarray()

    def max_asymmetry(self):
        d = self.matrix - self.matrix.T
        return float(np.abs(d.data).max()) if d.nnz else 0.0

    def diagonal(self):
        return self.matrix.diagonal()


@dataclass(frozen=True)
class NormReport:
    """Broken-norm bundle of a difference f - g."""

    l2: float
    h1_semi: float
    w1q: float
    q: float
    broken_h2: float | None = None

    @property
    def h1(self):
        return float(np.hypot(self.l2, self.h1_semi))


def _quadrature(mesh, points, weights=None):
    """Element chunks with their physical points (n, npts, d) and the
    physical weights |T_h|/|T| * w (n, npts); None without `weights`."""
    vol = np.abs(mesh.det_jac) ** -1               # |det DF_h^{-1}| = |T_h|/|T|
    d, npts = mesh.dim, len(points)
    for sl in _chunks(mesh.num_elements, npts):
        v0 = mesh.vertices[mesh.elements[sl, 0]]
        # B xi for every element and point in one product, rows (e, i),
        # then shifted in place
        x = (mesh.inv_jac[sl].reshape(-1, d) @ points.T).reshape(-1, d, npts).transpose(0, 2, 1)
        x += v0[:, None, :]
        yield sl, x, None if weights is None else vol[sl][:, None] * weights


def _outer_table(basis, points):
    """(npts, (d+1)^2, n_local^2) products tab[q, l, b] tab[q, k, c] of the
    reference table, row (b, c) and column (l, k) at point q; built once
    per basis and rule."""
    return _rule_table(_build_outer_table, basis, points)


def _build_outer_table(basis, points):
    tab = _reference_table(basis, points).transpose(0, 2, 1)    # (nq, d+1, nloc)
    nq, m, nloc = tab.shape
    return (tab[:, :, None, :, None] * tab[:, None, :, None, :]).reshape(nq, m * m, nloc * nloc)


def _density_chunks(model, space, rule):
    """`_quadrature` chunks of the space, each with the keywords of its
    density calls: fx, the model's forcing at the chunk's points, when the
    model is forced and `rule` is the space's own.  f is evaluated once per
    (space, forcing, chunk) and kept in the space's cache, read-only."""
    cache = None
    if model.forcing is not None and rule is space.quad:
        cache = space._forcing_values.setdefault(model.forcing, {})
    for sl, x, wq in _quadrature(space.mesh, rule.points, rule.weights):
        if cache is None:
            yield sl, x, wq, {}
            continue
        fx = cache.get((sl.start, sl.stop))
        if fx is None:
            fx = np.array(model.forcing(x.reshape(-1, x.shape[-1])))
            fx.flags.writeable = False
            cache[sl.start, sl.stop] = fx
        yield sl, x, wq, {"fx": fx}


def _batch(vals, grads, x):
    """(p, z, x) flattened over elements and points, as densities take them."""
    d = x.shape[-1]
    return grads.reshape(-1, d), vals.ravel(), x.reshape(-1, d)


def energy_value(model, v, quad=None):
    """Total energy of a discrete function by element-wise quadrature.

    Unguarded on purpose: a non-finite trial energy fails the Armijo test
    in `minimize`, which then backtracks."""
    space = v.space
    rule = quad or space.quad
    total = 0.0
    for sl, x, wq, kw in _density_chunks(model, space, rule):
        state = tabulate(space, v.coeffs, rule.points, sl)
        dens = model.eval(*_batch(*state, x), **kw)
        total += float(np.sum(wq * dens.reshape(wq.shape)))
    return total


def assemble_residual(model, v, quad=None, mask=True):
    """First-variation vector; boundary test entries are masked to zero."""
    space = v.space
    rule = quad or space.quad
    d = space.mesh.dim
    tab = _reference_table(space.basis, rule.points)            # (nq, nloc, d+1)
    tab = tab.transpose(0, 2, 1).reshape(-1, space.basis.n_local)   # rows (q, c)
    out = np.zeros(space.dim)
    for sl, x, wq, kw in _density_chunks(model, space, rule):
        vals, grads = tabulate(space, v.coeffs, rule.points, sl)
        flat = _batch(vals, grads, x)
        # weighted flux [dL_dp J^T, dL_dz] w against the reference table
        jac = space.mesh.jac[sl]
        flux = np.empty(wq.shape + (d + 1,))
        flux[..., :d] = model.dL_dp(*flat).reshape(grads.shape) @ jac.transpose(0, 2, 1)
        flux[..., d] = model.dL_dz(*flat, **kw).reshape(wq.shape)
        if not np.all(np.isfinite(flux)):
            raise AssemblyError("non-finite density derivative during residual assembly")
        flux *= wq[..., None]
        r_loc = flux.reshape(len(flux), -1) @ tab
        out += np.bincount(space.elem_dofs[sl].ravel(), weights=r_loc.ravel(),
                           minlength=space.dim)
    if mask:
        out[space.boundary_dofs] = 0.0
    return out


def assemble_hessian(model, v, quad=None, mask=True):
    """Second-variation operator at state v, all four derivative blocks.

    At every point the blocks form one weighted coefficient matrix
    [[J d2pp J^T, J d2pz], [(J d2pz)^T, d2zz]] w of size d+1, and the
    local matrices are its product with the outer-product table.
    """
    space = v.space
    rule = quad or space.quad
    d, nloc = space.mesh.dim, space.basis.n_local
    outer = _outer_table(space.basis, rule.points).reshape(-1, nloc * nloc)
    loc = np.empty((space.mesh.num_elements, nloc, nloc))
    for sl, x, wq in _quadrature(space.mesh, rule.points, rule.weights):
        vals, grads = tabulate(space, v.coeffs, rule.points, sl)
        flat = _batch(vals, grads, x)
        jac = space.mesh.jac[sl]
        # (J kron J)[(a, b), (i, j)] = J[a, i] J[b, j]: d2pp pulled back in one product
        jj = (jac[:, :, None, :, None] * jac[:, None, :, None, :]).reshape(-1, d * d, d * d)
        coef = np.empty(wq.shape + (d + 1, d + 1))
        coef[..., :d, :d] = (model.d2L_dpp(*flat).reshape(wq.shape + (d * d,))
                             @ jj.transpose(0, 2, 1)).reshape(wq.shape + (d, d))
        coef[..., :d, d] = model.d2L_dpz(*flat).reshape(grads.shape) @ jac.transpose(0, 2, 1)
        coef[..., d, :d] = coef[..., :d, d]
        coef[..., d, d] = model.d2L_dzz(*flat).reshape(wq.shape)
        if not np.all(np.isfinite(coef)):
            raise AssemblyError("non-finite density derivative during hessian assembly")
        coef *= wq[..., None, None]
        loc[sl] = (coef.reshape(len(coef), -1) @ outer).reshape(-1, nloc, nloc)
    return _scatter(space, loc, mask)


def apply_third_variation(model, v, fu, fv, fw, quad=None):
    """Third variation at v applied to three discrete directions.

    Every derivative block is evaluated (never skipped via the structural
    flags), so substituting a model with zeroed blocks genuinely probes
    whether those blocks vanish.
    """
    space = v.space
    for g in (fu, fv, fw):
        if g.space is not space:
            raise ValueError("third-variation arguments must share the state's space")
    rule = quad or space.quad
    total = 0.0
    for sl, x, wq in _quadrature(space.mesh, rule.points, rule.weights):
        p, z, xx = _batch(*tabulate(space, v.coeffs, rule.points, sl), x)
        (gu, vu, _), (gv, vv, _), (gw, vw, _) = (
            _batch(*tabulate(space, g.coeffs, rule.points, sl), x) for g in (fu, fv, fw))

        s = model.d3L_dppp(p, z, xx, gu, gv, gw)
        s = s + (model.d3L_dppz(p, z, xx, gu, gv) * vw
                 + model.d3L_dppz(p, z, xx, gu, gw) * vv
                 + model.d3L_dppz(p, z, xx, gv, gw) * vu)
        s = s + (model.d3L_dpzz(p, z, xx, gu) * vv * vw
                 + model.d3L_dpzz(p, z, xx, gv) * vu * vw
                 + model.d3L_dpzz(p, z, xx, gw) * vu * vv)
        s = s + model.d3L_dzzz(p, z, xx) * vu * vv * vw
        if not np.all(np.isfinite(s)):
            raise AssemblyError("non-finite density derivative during third-variation assembly")
        total += float(np.sum(wq * s.reshape(wq.shape)))
    return total


def _geometric_local(space, rule, with_stiffness):
    """Element Gram matrices: the per-element coefficient matrix
    [[J J^T, 0], [0, 1]] |T_h|/|T| (no J J^T block without stiffness)
    times the weighted outer-product table of the reference basis."""
    mesh = space.mesh
    d, nloc = mesh.dim, space.basis.n_local
    table = np.tensordot(rule.weights, _outer_table(space.basis, rule.points), axes=1)
    coef = np.zeros((mesh.num_elements, d + 1, d + 1))
    if with_stiffness:
        coef[:, :d, :d] = mesh.jac @ mesh.jac.transpose(0, 2, 1)
    coef[:, d, d] = 1.0
    coef *= (np.abs(mesh.det_jac) ** -1)[:, None, None]
    return (coef.reshape(len(coef), -1) @ table).reshape(-1, nloc, nloc)


def _scatter(space, loc, mask=False):
    """Global operator from element matrices (ne, nloc, nloc); `mask`
    replaces the Dirichlet rows and columns by the identity."""
    nloc = space.basis.n_local
    ed = space.elem_dofs
    mat = sp.coo_matrix(
        (loc.ravel(),
         (np.repeat(ed, nloc, axis=1).ravel(), np.tile(ed, (1, nloc)).ravel())),
        shape=(space.dim, space.dim)).tocsr()
    if mask:
        # in place on the CSR arrays: zero every entry in a boundary row or
        # column, put ones on the boundary diagonal (every dof couples to
        # itself, so no entry is inserted), then drop the stored zeros
        keep = space.interior_mask
        mat.data *= np.repeat(keep, np.diff(mat.indptr)) & keep[mat.indices]
        diag = mat.diagonal()
        diag[space.boundary_dofs] = 1.0
        mat.setdiag(diag)
        mat.eliminate_zeros()
    return SparseOperator(mat)


def assemble_gram_l2(space, quad=None):
    """Unmasked mass matrix; row sums reproduce the basis integrals."""
    return _scatter(space, _geometric_local(space, quad or space.quad, False))


def assemble_gram_h1(space, quad=None):
    """Unmasked H^1 Gram (mass plus Laplace stiffness)."""
    return _scatter(space, _geometric_local(space, quad or space.quad, True))


def lq_norm(v, q):
    """Plain L^q norm of an FE function (no gradient part), q finite."""
    space = v.space
    rule = space.quad
    acc = 0.0
    for sl, _, wq in _quadrature(space.mesh, rule.points, rule.weights):
        vals, _ = tabulate(space, v.coeffs, rule.points, sl)
        acc += float(np.sum(wq * np.abs(vals) ** q))
    return acc ** (1.0 / q)


def integrate(mesh, fn, degree=6):
    """Integral of a pointwise callable over the mesh."""
    rule = quadrature_rule(mesh.dim, degree)
    total = 0.0
    for _, x, wq in _quadrature(mesh, rule.points, rule.weights):
        vals = np.asarray(fn(x.reshape(-1, mesh.dim)), dtype=float)
        total += float(np.sum(wq * vals.reshape(wq.shape)))
    return total


# ---------------------------------------------------------------------------
# norms


def norms(f, g, q=2, include_broken_h2=False, quad=None):
    """Broken norms of the difference f - g.

    f may be an exact solution (value/gradient/hessian callables), another
    FE function on the same space, or None (plain norms of g).  For
    q = inf the sup norm is sampled on a dense per-element lattice, a
    documented approximation; everything else is quadrature on g's space.
    """
    space = g.space
    rule = quad or space.quad
    if not (q == np.inf or q >= 1):
        raise ValueError("q must be >= 1 or inf")
    if include_broken_h2 and space.order < 2:
        raise ValueError("broken H2 norm needs order >= 2 (second derivatives of "
                         "P1 functions vanish identically inside elements)")
    if isinstance(f, FEFunction):
        if f.space is not space:
            raise ValueError("FE functions must share a space; embed first")
        coeffs, exact = f.coeffs - g.coeffs, None
    else:
        coeffs, exact = -g.coeffs, f

    def diff(sl, x, pts, with_hess=False):
        vals, grads = tabulate(space, coeffs, pts, sl)
        hess = _fe_hessians(space, coeffs, sl, pts) if with_hess else None
        if exact is not None:
            flat = x.reshape(-1, space.mesh.dim)
            vals = exact.value(flat).reshape(vals.shape) + vals
            grads = exact.gradient(flat).reshape(grads.shape) + grads
            if with_hess:
                hess = exact.hessian(flat).reshape(hess.shape) + hess
        return vals, grads, hess

    acc_l2 = acc_h1 = acc_q = acc_h2 = 0.0
    for sl, x, wq in _quadrature(space.mesh, rule.points, rule.weights):
        vals, grads, hess = diff(sl, x, rule.points, include_broken_h2)
        gnorm2 = np.einsum("eqi,eqi->eq", grads, grads)
        acc_l2 += float(np.sum(wq * vals**2))
        acc_h1 += float(np.sum(wq * gnorm2))
        if q not in (2, np.inf):
            acc_q += float(np.sum(wq * (np.abs(vals) ** q + gnorm2 ** (q / 2))))
        if include_broken_h2:
            acc_h2 += float(np.sum(wq * np.einsum("eqij,eqij->eq", hess, hess)))

    l2 = np.sqrt(acc_l2)
    h1_semi = np.sqrt(acc_h1)
    if q == np.inf:
        lattice = sample_lattice(space.mesh.dim)
        w1q = 0.0
        for sl, x, _ in _quadrature(space.mesh, lattice):
            lv, lg, _ = diff(sl, x, lattice)
            w1q = max(w1q, float(np.abs(lv).max()),
                      float(np.linalg.norm(lg, axis=2).max()))
    elif q == 2:
        w1q = float(np.hypot(l2, h1_semi))
    else:
        w1q = float(acc_q ** (1.0 / q))
    broken = np.sqrt(acc_h2) if include_broken_h2 else None
    return NormReport(float(l2), float(h1_semi), w1q, q, broken)


def _fe_hessians(space, coeffs, sl, pts):
    href = _rule_table(ReferenceBasis.hessians, space.basis, pts)   # (nq, nloc, d, d)
    nq, nloc, d, _ = href.shape
    local = coeffs[space.elem_dofs[sl]]
    ref = (local @ href.transpose(1, 0, 2, 3).reshape(nloc, -1)).reshape(-1, nq * d, d)
    jac = space.mesh.jac[sl]
    # J^T H J at every point, one product per element over its stacked
    # points: (H J)^T J = J^T H^T J, transposed
    hj = (ref @ jac).reshape(-1, nq, d, d).swapaxes(2, 3).reshape(-1, nq * d, d)
    return (hj @ jac).reshape(-1, nq, d, d).swapaxes(2, 3)
