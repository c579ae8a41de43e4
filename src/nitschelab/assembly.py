"""Quadrature assembly of the energy, its first three variations, Gram
operators, and broken Sobolev norms.

Every kernel and norm integrates with the space's own rule, `space.quad`;
integrating with another rule means another space,
`dataclasses.replace(space, quad=rule)`, whose caches start empty.  All
element loops are chunked and vectorized.  Local vectors and
matrices are matrix products of per-point coefficients against tables of
the reference basis at the quadrature points, so results are
deterministic for a given problem size and BLAS build and reruns are
byte-identical; they are not bitwise equal to an evaluation that
contracts in another order.

For a `quadratic_gradient` model (L = 0.5|p|^2 + G(z, x), the
semilinear class) the second variation is the Laplace stiffness K plus
the mass weighted by d2L_dzz.  `assemble_hessian` then adds K to one
product of the weighted d2L_dzz with the mass column of the outer-product
table, and `assemble_residual` takes K v (summed as differences, see
`_stiffness_product`) plus the values-only dL_dz flux; neither tabulates
gradients.  Every other model takes the generic
path, which evaluates all derivative blocks.  `energy_value` and
`apply_third_variation` always evaluate the full density.

Two caches keep data that depends only on the rule, on x or on the
space out of the element loops; none changes a value it serves.
  * The reference and outer-product tables are built once per (basis,
    point set) and process, for the rules of `quadrature_rule` and the
    sample lattices (`felement._rule_table`).
  * `FESpace._cache` holds what depends only on the space, each entry
    made on first use by `_cached`: the CSR skeleton (the unmasked and
    masked patterns and the data index of every local entry, so every
    operator is one `np.bincount` of its element matrices), the data of
    the unmasked stiffness K, and, per forcing of a forced model
    (`EnergyModel.forcing`), its values at the quadrature points, one
    (ne, npts) array evaluated chunk by chunk.  `energy_value` and
    `assemble_residual` pass a chunk's forcing values to `eval` and
    `dL_dz` as fx.
Physical points are recomputed per call.  Dirichlet conditions are
imposed by identity-masking boundary rows and columns, which keeps the
operators symmetric on the constrained space; a masked operator keeps
every interior entry of the unmasked pattern, explicit zeros included.
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
    broken_h2: float | None = None

    @property
    def h1(self):
        return float(np.hypot(self.l2, self.h1_semi))


def _quadrature(mesh, points, weights=None):
    """Element chunks with their physical points (n, npts, d), C-contiguous
    so that flattening them is a view, and the physical weights
    |T_h|/|T| * w (n, npts); None without `weights`."""
    vol = np.abs(mesh.det_jac) ** -1               # |det DF_h^{-1}| = |T_h|/|T|
    d, npts = mesh.dim, len(points)
    for sl in _chunks(mesh.num_elements, npts):
        v0 = mesh.vertices[mesh.elements[sl, 0]]
        # B xi for every element and point in one product, rows (e, i),
        # shifted into (e, q, i) order one coordinate at a time
        bx = (mesh.inv_jac[sl].reshape(-1, d) @ points.T).reshape(-1, d, npts)
        x = np.empty((len(bx), npts, d))
        for i in range(d):
            np.add(bx[:, i], v0[:, i, None], out=x[:, :, i])
        yield sl, x, None if weights is None else vol[sl][:, None] * weights


def _outer_table(basis, points):
    """(npts, (d+1)^2, n_local^2) products tab[q, l, b] tab[q, k, c] of the
    reference table, row (b, c) and column (l, k) at point q; built once
    per basis and rule.  Its last column (l = k = d) is the mass table."""
    return _rule_table(_build_outer_table, basis, points)


def _build_outer_table(basis, points):
    tab = _reference_table(basis, points).transpose(0, 2, 1)    # (nq, d+1, nloc)
    nq, m, nloc = tab.shape
    return (tab[:, :, None, :, None] * tab[:, None, :, None, :]).reshape(nq, m * m, nloc * nloc)


def _cached(space, key, build, *args):
    """`space._cache[key]`, made by build(space, *args) on first use."""
    value = space._cache.get(key)
    if value is None:
        value = space._cache[key] = build(space, *args)
    return value


def _build_forcing(space, f):
    """f at the space's quadrature points, (ne, npts) read-only; one call
    of f per element chunk."""
    fx = np.empty((space.mesh.num_elements, len(space.quad.weights)))
    for sl, x, _ in _quadrature(space.mesh, space.quad.points):
        fx[sl] = np.reshape(f(x.reshape(-1, x.shape[-1])), x.shape[:2])
    fx.flags.writeable = False
    return fx


def _density_chunks(model, space):
    """`_quadrature` chunks of the space, each with the keywords of its
    density calls: fx, the model's forcing at the chunk's points, when the
    model is forced, from the space's cache."""
    fx = None
    if model.forcing is not None:
        fx = _cached(space, ("forcing", model.forcing), _build_forcing, model.forcing)
    for sl, x, wq in _quadrature(space.mesh, space.quad.points, space.quad.weights):
        yield sl, x, wq, {} if fx is None else {"fx": fx[sl].ravel()}


def _batch(vals, grads, x):
    """(p, z, x) flattened over elements and points, as densities take them."""
    d = x.shape[-1]
    return grads.reshape(-1, d), vals.ravel(), x.reshape(-1, d)


def _pull(a, jac):
    """a J^T on every element, for a (e, q, ..., d) and J (e, d, d): d
    broadcast products, where a batched matmul would make one tiny BLAS
    call per element."""
    d = jac.shape[-1]
    shape = (len(jac),) + (1,) * (a.ndim - 2) + (d,)
    out = a[..., 0, None] * jac[:, :, 0].reshape(shape)
    for i in range(1, d):
        out += a[..., i, None] * jac[:, :, i].reshape(shape)
    return out


def energy_value(model, v):
    """Total energy of a discrete function by element-wise quadrature.

    Unguarded on purpose: a non-finite trial energy fails the Armijo test
    in `minimize`, which then backtracks."""
    space = v.space
    total = 0.0
    for sl, x, wq, kw in _density_chunks(model, space):
        state = tabulate(space, v.coeffs, space.quad.points, sl)
        dens = model.eval(*_batch(*state, x), **kw)
        total += float(np.sum(wq * dens.reshape(wq.shape)))
    return total


def assemble_residual(model, v, mask=True):
    """First-variation vector; boundary test entries are masked to zero.

    For a `quadratic_gradient` model the gradient part is K v with the
    space's cached stiffness K, and only the values flux dL_dz enters the
    element loop."""
    space = v.space
    points = space.quad.points
    d, nloc = space.mesh.dim, space.basis.n_local
    split = model.quadratic_gradient
    tab = _reference_table(space.basis, points)                 # (nq, nloc, d+1)
    if split:
        tab = tab[..., -1:]
    tab = tab.transpose(0, 2, 1).reshape(-1, nloc)              # rows (q, c)
    out = _stiffness_product(space, v.coeffs) if split else np.zeros(space.dim)
    for sl, x, wq, kw in _density_chunks(model, space):
        if split:
            vals, _ = tabulate(space, v.coeffs, points, sl, gradients=False)
            flux = model.dL_dz(None, vals.ravel(), x.reshape(-1, d), **kw).reshape(wq.shape)
        else:
            # weighted flux [dL_dp J^T, dL_dz] against the reference table
            vals, grads = tabulate(space, v.coeffs, points, sl)
            flat = _batch(vals, grads, x)
            flux = np.empty(wq.shape + (d + 1,))
            flux[..., :d] = _pull(model.dL_dp(*flat).reshape(grads.shape), space.mesh.jac[sl])
            flux[..., d] = model.dL_dz(*flat, **kw).reshape(wq.shape)
        if not np.all(np.isfinite(flux)):
            raise AssemblyError("non-finite density derivative during residual assembly")
        flux = flux * wq.reshape(wq.shape + (1,) * (flux.ndim - 2))
        r_loc = flux.reshape(len(flux), -1) @ tab
        out += np.bincount(space.elem_dofs[sl].ravel(), weights=r_loc.ravel(),
                           minlength=space.dim)
    if mask:
        out[space.boundary_dofs] = 0.0
    return out


def assemble_hessian(model, v, mask=True):
    """Second-variation operator at state v.

    At every point the derivative blocks form one weighted coefficient
    matrix [[J d2pp J^T, J d2pz], [(J d2pz)^T, d2zz]] w of size d+1, and
    the local matrices are its product with the outer-product table.  For
    a `quadratic_gradient` model the operator is the space's cached
    stiffness plus the d2zz-weighted mass, the product of d2zz w alone
    with the table's mass column.
    """
    space = v.space
    rule = space.quad
    d, nloc = space.mesh.dim, space.basis.n_local
    split = model.quadratic_gradient
    outer = _outer_table(space.basis, rule.points)
    outer = outer[:, -1] if split else outer.reshape(-1, nloc * nloc)
    loc = np.empty((space.mesh.num_elements, nloc, nloc))
    for sl, x, wq in _quadrature(space.mesh, rule.points, rule.weights):
        if split:
            vals, _ = tabulate(space, v.coeffs, rule.points, sl, gradients=False)
            coef = model.d2L_dzz(None, vals.ravel(), x.reshape(-1, d)).reshape(wq.shape)
        else:
            coef = _coefficients(model, tabulate(space, v.coeffs, rule.points, sl),
                                 x, space.mesh.jac[sl])
        if not np.all(np.isfinite(coef)):
            raise AssemblyError("non-finite density derivative during hessian assembly")
        coef = coef * wq.reshape(wq.shape + (1,) * (coef.ndim - 2))
        loc[sl] = (coef.reshape(len(coef), -1) @ outer).reshape(-1, nloc, nloc)
    return _scatter(space, loc, mask, _stiffness(space) if split else None)


def _coefficients(model, state, x, jac):
    """(e, q, d+1, d+1) unweighted coefficient matrices of every block."""
    vals, grads = state
    flat = _batch(vals, grads, x)
    d = x.shape[-1]
    coef = np.empty(vals.shape + (d + 1, d + 1))
    # J d2pp J^T = (J (d2pp J^T)^T)^T
    pp = _pull(model.d2L_dpp(*flat).reshape(grads.shape + (d,)), jac)
    coef[..., :d, :d] = _pull(pp.swapaxes(2, 3), jac).swapaxes(2, 3)
    coef[..., :d, d] = _pull(model.d2L_dpz(*flat).reshape(grads.shape), jac)
    coef[..., d, :d] = coef[..., :d, d]
    coef[..., d, d] = model.d2L_dzz(*flat).reshape(vals.shape)
    return coef


def apply_third_variation(model, v, fu, fv, fw):
    """Third variation at v applied to three discrete directions.

    Every derivative block is evaluated (never skipped via the structural
    flags), so substituting a model with zeroed blocks genuinely probes
    whether those blocks vanish.
    """
    space = v.space
    for g in (fu, fv, fw):
        if g.space is not space:
            raise ValueError("third-variation arguments must share the state's space")
    rule = space.quad
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


def _geometric_local(space, stiffness=True, mass=True):
    """Element matrices of the Laplace stiffness, the mass or their sum:
    the per-element coefficient matrix [[J J^T, 0], [0, 1]] |T_h|/|T|,
    less the blocks left out, times the weighted outer-product table of
    the reference basis."""
    mesh, rule = space.mesh, space.quad
    d, nloc = mesh.dim, space.basis.n_local
    table = np.tensordot(rule.weights, _outer_table(space.basis, rule.points), axes=1)
    coef = np.zeros((mesh.num_elements, d + 1, d + 1))
    if stiffness:
        coef[:, :d, :d] = _pull(mesh.jac, mesh.jac)
    if mass:
        coef[:, d, d] = 1.0
    coef *= (np.abs(mesh.det_jac) ** -1)[:, None, None]
    return (coef.reshape(len(coef), -1) @ table).reshape(-1, nloc, nloc)


@dataclass(frozen=True)
class _Skeleton:
    """CSR pattern of every operator on a space, arrays read-only.

    `position[e, b, c]` is the index in the unmasked pattern (indptr,
    indices; `rows` holds the row of every entry) of the entry that
    element e's local entry (b, c) adds to.  The masked pattern keeps the
    unmasked entries `take` (interior rows and columns, and the diagonal),
    and its boundary rows hold only their diagonal, at `boundary_diagonal`.
    """

    indptr: np.ndarray
    indices: np.ndarray
    rows: np.ndarray
    position: np.ndarray
    masked_indptr: np.ndarray
    masked_indices: np.ndarray
    take: np.ndarray
    boundary_diagonal: np.ndarray

    def __post_init__(self):
        for arr in vars(self).values():
            arr.flags.writeable = False


def _skeleton(space):
    """The space's skeleton, built on first use."""
    return _cached(space, "skeleton", _build_skeleton)


def _build_skeleton(space):
    n, ed = space.dim, space.elem_dofs
    keys, position = np.unique(ed[:, :, None] * n + ed[:, None, :], return_inverse=True)
    rows, cols = np.divmod(keys, n)
    interior = space.interior_mask
    take = np.flatnonzero(interior[rows] & interior[cols] | (rows == cols))
    index = np.int32 if len(keys) <= np.iinfo(np.int32).max else np.int64
    bounds = np.arange(n + 1)
    masked_indptr = np.searchsorted(rows[take], bounds).astype(index)
    return _Skeleton(np.searchsorted(rows, bounds).astype(index), cols.astype(index), rows,
                     position.ravel(), masked_indptr, cols[take].astype(index), take,
                     masked_indptr[space.boundary_dofs])


def _scatter_data(space, loc):
    """Data of the unmasked operator with element matrices (ne, nloc, nloc):
    one bincount into the space's skeleton."""
    skeleton = _skeleton(space)
    return np.bincount(skeleton.position, weights=loc.ravel(),
                       minlength=len(skeleton.indices))


def _scatter(space, loc, mask=False, base=None):
    """Global operator from element matrices (ne, nloc, nloc), plus `base`,
    data on the unmasked pattern, when given.  `mask` replaces the
    Dirichlet rows and columns by the identity."""
    skeleton = _skeleton(space)
    data = _scatter_data(space, loc)
    if base is not None:
        data += base
    indices, indptr = skeleton.indices, skeleton.indptr
    if mask:
        data = data[skeleton.take]
        data[skeleton.boundary_diagonal] = 1.0
        indices, indptr = skeleton.masked_indices, skeleton.masked_indptr
    # the operator owns its index arrays, so changing it in place leaves
    # the skeleton intact
    return SparseOperator(sp.csr_matrix((data, indices.copy(), indptr.copy()),
                                        shape=(space.dim, space.dim)))


def _stiffness(space):
    """Data of the unmasked Laplace stiffness of the space on its skeleton
    (read-only), built on first use."""
    return _cached(space, "stiffness", _build_stiffness)


def _build_stiffness(space):
    stiffness = _scatter_data(space, _geometric_local(space, mass=False))
    stiffness.flags.writeable = False
    return stiffness


def _stiffness_product(space, coeffs):
    """K v, summed as sum_j K_ij (v_j - v_i): the rows of K sum to zero
    because the basis sums to one.  The plain product cancels O(1) terms
    and leaves a converged residual about ten times the rounding noise of
    the element-wise gradient flux; differencing first keeps it at that
    size, and with it the CG iteration counts of the last Newton steps."""
    skeleton = _skeleton(space)
    diff = coeffs[skeleton.indices] - coeffs[skeleton.rows]
    return np.bincount(skeleton.rows, weights=_stiffness(space) * diff,
                       minlength=space.dim)


def assemble_gram_l2(space):
    """Unmasked mass matrix; row sums reproduce the basis integrals."""
    return _scatter(space, _geometric_local(space, stiffness=False))


def assemble_gram_h1(space):
    """Unmasked H^1 Gram (mass plus Laplace stiffness)."""
    return _scatter(space, _geometric_local(space))


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


def norms(f, g, q=2, include_broken_h2=False):
    """Broken norms of the difference f - g.

    f may be an exact solution (value/gradient/hessian callables), another
    FE function on the same space, or None (plain norms of g).  For
    q = inf the sup norm is sampled on a dense per-element lattice, a
    documented approximation; everything else is quadrature on g's space.
    """
    space = g.space
    rule = space.quad
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
    return NormReport(float(l2), float(h1_semi), w1q, broken)


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
