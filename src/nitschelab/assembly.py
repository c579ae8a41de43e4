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

The energy is J(v) = int L(Dv, v) dx - <f, v>, with a density of
(p, z) alone.  The forcing f of a forced model (`EnergyModel.forcing`)
enters as the space's load vector b_f = int f phi_i: `energy_value`
subtracts b_f . v and `assemble_residual` subtracts b_f.  So physical
points are mapped only where something reads them: in the build of
b_f, in `norms` against an exact solution, and in `integrate`.

For a `quadratic_gradient` model (L = 0.5|p|^2 + G(z), the semilinear
class) the second variation is the Laplace stiffness K plus the mass
weighted by d2L_dzz.  `assemble_hessian` then adds K to one product of
the weighted d2L_dzz with the mass column of the outer-product table,
`assemble_residual` takes K v (summed as differences, see
`_stiffness_product`) plus the values-only dL_dz flux, and
`energy_value` takes 0.5 v.Kv plus the integral of G(z) =
eval(None, z); none of them tabulates gradients.  Every other model
takes the generic path, which evaluates all derivative blocks.
`apply_third_variation` always evaluates every block.

Two caches keep data that depends only on the rule or on the space out
of the element loops; none changes a value it serves.
  * The reference and outer-product tables are built once per (basis,
    point set) and process, for the rules of `quadrature_rule` and the
    sample lattices (`felement._rule_table`).
  * `FESpace._cache` holds what depends only on the space, each entry
    made on first use by `_cached`: the CSR skeleton (the one pattern of
    every operator on the space and the data index of every local entry,
    so every operator is one `np.bincount` of its element matrices), the
    data of the unmasked stiffness K, and one load vector b_f per
    forcing, evaluated chunk by chunk.
Dirichlet conditions are imposed by identity-masking boundary rows and
columns in place, which keeps the operators symmetric on the
constrained space: a masked operator has the space's pattern, with
explicit zeros in its boundary rows and columns off the diagonal.
"""

import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .felement import (FEFunction, ReferenceBasis, _chunks, _reference_table,
                       _rule_table, _squared_norms, quadrature_rule, sample_lattice,
                       tabulate)

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


def _matvec(a, x):
    """a @ x, bitwise, for a float64 CSR matrix or a CSC view of one (its
    `.T`) and a float64 vector x.

    This is what scipy's `@` runs once its dispatch has found a vector:
    the compiled CSR (or CSC) product of its private module
    `scipy.sparse._sparsetools` into a zeroed output, so every row sums
    from +0 in entry order (Saad, Iterative Methods for Sparse Linear
    Systems, 2nd ed., 2003, sec. 3.4).  At the sizes of the studies the
    dispatch costs about as much as the product; calling the kernel
    directly skips it.  Written against scipy 1.17.1, the pinned version;
    `tests/test_assembly.py` checks it bitwise against `@`, so an upgrade
    that changes the module fails there.  The kernel reads x without
    bounds checks, so a vector of another length raises ValueError here,
    as `@` would.
    """
    m, n = a.shape
    if x.shape != (n,):
        raise ValueError(f"matvec: a has {n} columns, x has shape {x.shape}")
    out = np.zeros(m)
    kernel = _sparsetools.csr_matvec if a.format == "csr" else _sparsetools.csc_matvec
    kernel(m, n, a.indptr, a.indices, a.data, x, out)
    return out


@dataclass
class SparseOperator:
    """Symmetric sparse operator in CSR storage.  `apply` takes a vector
    of length `dim` and is the product `_matvec`, bitwise `matrix @ x`."""

    matrix: sp.csr_matrix

    @property
    def dim(self):
        return self.matrix.shape[0]

    def apply(self, x):
        return _matvec(self.matrix, np.asarray(x, dtype=float))

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


def _quadrature(mesh, weights):
    """Element chunks of a rule with weights w, each with its physical
    weights |T_h|/|T| * w (n, npts), the ratio read from the mesh's
    `volume_ratio`."""
    for sl in _chunks(mesh.num_elements, len(weights)):
        yield sl, mesh.volume_ratio[sl][:, None] * weights


def _pull(a, jac):
    """a J^T on every element, for a (e, ..., d) and J (e, d, d): d
    broadcast products, where a batched matmul would make one tiny BLAS
    call per element."""
    d = jac.shape[-1]
    shape = (len(jac),) + (1,) * (a.ndim - 2) + (d,)
    out = a[..., 0, None] * jac[:, :, 0].reshape(shape)
    for i in range(1, d):
        out += a[..., i, None] * jac[:, :, i].reshape(shape)
    return out


def _physical_points(mesh, points, sl):
    """Physical points (n, npts, d) of the reference points on the elements
    `sl`, C-contiguous so that flattening them is a view."""
    d, npts = mesh.dim, len(points)
    v0 = mesh.vertices[mesh.elements[sl, 0]]
    # B xi for every element and point in one product, rows (e, i),
    # shifted into (e, q, i) order one coordinate at a time
    bx = (mesh.inv_jac[sl].reshape(-1, d) @ points.T).reshape(-1, d, npts)
    x = np.empty((len(bx), npts, d))
    for i in range(d):
        np.add(bx[:, i], v0[:, i, None], out=x[:, :, i])
    return x


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


def _load(model, space):
    """The load vector int f phi_i of the model's forcing f on the space
    (read-only), built on first use; None for an unforced model."""
    if model.forcing is None:
        return None
    return _cached(space, ("load", model.forcing), _build_load, model.forcing)


def _build_load(space, f):
    """One call of f per element chunk, at the chunk's physical points."""
    mesh, rule = space.mesh, space.quad
    phi = _reference_table(space.basis, rule.points)[:, :, -1]     # (nq, nloc)
    load = np.zeros(space.dim)
    for sl, wq in _quadrature(mesh, rule.weights):
        x = _physical_points(mesh, rule.points, sl)
        fw = wq * np.reshape(f(x.reshape(-1, mesh.dim)), wq.shape)
        load += np.bincount(space.elem_dofs[sl].ravel(), weights=(fw @ phi).ravel(),
                            minlength=space.dim)
    load.flags.writeable = False
    return load


def _state(space, coeffs, sl, gradients=True):
    """(p, z) of the coefficients at the points of `space.quad` on the
    elements `sl`, flattened over elements and points as densities take
    them; p is None without `gradients`."""
    vals, grads = tabulate(space, coeffs, space.quad.points, sl, gradients)
    return (None if grads is None else grads.reshape(-1, grads.shape[-1])), vals.ravel()


def energy_value(model, v):
    """Total energy int L(Dv, v) dx - <f, v> of a discrete function by
    element-wise quadrature.

    For a `quadratic_gradient` model the gradient part is 0.5 v.Kv with
    the space's cached stiffness K, and the element loop integrates
    G(z) = eval(None, z) from values alone.  Unguarded on purpose: a
    non-finite trial energy fails the Armijo test in `minimize`, which
    then backtracks."""
    space = v.space
    split = model.quadratic_gradient
    load = _load(model, space)
    total = 0.5 * float(v.coeffs @ _stiffness_product(space, v.coeffs)) if split else 0.0
    for sl, wq in _quadrature(space.mesh, space.quad.weights):
        dens = model.eval(*_state(space, v.coeffs, sl, gradients=not split))
        total += float(np.sum(wq * dens.reshape(wq.shape)))
    if load is not None:
        total -= float(load @ v.coeffs)
    return total


def assemble_residual(model, v, mask=True):
    """First-variation vector r_0 - b_f, r_0 the variation of the density
    integral and b_f the load vector of the forcing; boundary test entries
    are masked to zero.

    For a `quadratic_gradient` model the gradient part is K v with the
    space's cached stiffness K, and only the values flux dL_dz enters the
    element loop."""
    space = v.space
    d, nloc = space.mesh.dim, space.basis.n_local
    split = model.quadratic_gradient
    # built before the element loop, whose arrays would otherwise still be
    # alive while it is built
    load = _load(model, space)
    tab = _reference_table(space.basis, space.quad.points)      # (nq, nloc, d+1)
    if split:
        tab = tab[..., -1:]
    tab = tab.transpose(0, 2, 1).reshape(-1, nloc)              # rows (q, c)
    out = _stiffness_product(space, v.coeffs) if split else np.zeros(space.dim)
    for sl, wq in _quadrature(space.mesh, space.quad.weights):
        # the weighted flux [dL_dp J^T, dL_dz] against the reference table,
        # dL_dz alone for a split model
        p, z = _state(space, v.coeffs, sl, gradients=not split)
        flux = model.dL_dz(p, z).reshape(wq.shape + (1,))
        if not split:
            dl_dp = _pull(model.dL_dp(p, z).reshape(wq.shape + (d,)), space.mesh.jac[sl])
            flux = np.concatenate((dl_dp, flux), axis=-1)
        if not np.all(np.isfinite(flux)):
            raise AssemblyError("non-finite density derivative during residual assembly")
        flux = flux * wq[..., None]
        r_loc = flux.reshape(len(flux), -1) @ tab
        out += np.bincount(space.elem_dofs[sl].ravel(), weights=r_loc.ravel(),
                           minlength=space.dim)
    if load is not None:
        out -= load
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
    nloc = space.basis.n_local
    split = model.quadratic_gradient
    outer = _outer_table(space.basis, rule.points)
    outer = outer[:, -1] if split else outer.reshape(-1, nloc * nloc)
    loc = np.empty((space.mesh.num_elements, nloc, nloc))
    for sl, wq in _quadrature(space.mesh, rule.weights):
        p, z = _state(space, v.coeffs, sl, gradients=not split)
        coef = (model.d2L_dzz(p, z).reshape(wq.shape) if split
                else _coefficients(model, p, z, space.mesh.jac[sl]))
        if not np.all(np.isfinite(coef)):
            raise AssemblyError("non-finite density derivative during hessian assembly")
        coef = coef * wq.reshape(wq.shape + (1,) * (coef.ndim - 2))
        loc[sl] = (coef.reshape(len(coef), -1) @ outer).reshape(-1, nloc, nloc)
    return _scatter(space, loc, mask, _stiffness(space) if split else None)


def _coefficients(model, p, z, jac):
    """(e, q, d+1, d+1) unweighted coefficient matrices of every block at
    the state (p, z) of `_state` on the elements of the Jacobians jac."""
    e, d = jac.shape[:2]
    coef = np.empty((e, len(z) // e, d + 1, d + 1))
    shape = coef.shape[:2]
    # J d2pp J^T = (J (d2pp J^T)^T)^T
    pp = _pull(model.d2L_dpp(p, z).reshape(shape + (d, d)), jac)
    coef[..., :d, :d] = _pull(pp.swapaxes(2, 3), jac).swapaxes(2, 3)
    coef[..., :d, d] = _pull(model.d2L_dpz(p, z).reshape(shape + (d,)), jac)
    coef[..., d, :d] = coef[..., :d, d]
    coef[..., d, d] = model.d2L_dzz(p, z).reshape(shape)
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
    total = 0.0
    for sl, wq in _quadrature(space.mesh, space.quad.weights):
        p, z = _state(space, v.coeffs, sl)
        (gu, vu), (gv, vv), (gw, vw) = (_state(space, g.coeffs, sl) for g in (fu, fv, fw))

        s = model.d3L_dppp(p, z, gu, gv, gw)
        s = s + (model.d3L_dppz(p, z, gu, gv) * vw
                 + model.d3L_dppz(p, z, gu, gw) * vv
                 + model.d3L_dppz(p, z, gv, gw) * vu)
        s = s + (model.d3L_dpzz(p, z, gu) * vv * vw
                 + model.d3L_dpzz(p, z, gv) * vu * vw
                 + model.d3L_dpzz(p, z, gw) * vu * vv)
        s = s + model.d3L_dzzz(p, z) * vu * vv * vw
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
    coef *= mesh.volume_ratio[:, None, None]
    return (coef.reshape(len(coef), -1) @ table).reshape(-1, nloc, nloc)


@dataclass(frozen=True)
class _Skeleton:
    """CSR pattern of every operator on a space, arrays read-only.

    `position[e, b, c]` is the index in the pattern (indptr, indices) of
    the entry that element e's local entry (b, c) adds to.
    `boundary_entries` indexes the entries in a boundary row or column,
    `boundary_diagonal` those on the diagonal of a boundary row (both np.intp).
    """

    indptr: np.ndarray
    indices: np.ndarray
    position: np.ndarray
    boundary_entries: np.ndarray
    boundary_diagonal: np.ndarray

    def __post_init__(self):
        for arr in vars(self).values():
            arr.flags.writeable = False


def _skeleton(space):
    """The space's skeleton, built on first use."""
    return _cached(space, "skeleton", _build_skeleton)


def _build_skeleton(space):
    n, ed, boundary = space.dim, space.elem_dofs, space.boundary_dofs
    keys, position = np.unique(ed[:, :, None] * n + ed[:, None, :], return_inverse=True)
    rows, cols = np.divmod(keys, n)
    outside = ~space.interior_mask
    index = np.int32 if len(keys) <= np.iinfo(np.int32).max else np.int64
    return _Skeleton(np.searchsorted(rows, np.arange(n + 1)).astype(index), cols.astype(index),
                     position.ravel(),
                     np.flatnonzero(outside[rows] | outside[cols]),
                     np.searchsorted(keys, boundary * n + boundary))


def _scatter_data(space, loc):
    """Data of the unmasked operator with element matrices (ne, nloc, nloc):
    one bincount into the space's skeleton."""
    skeleton = _skeleton(space)
    return np.bincount(skeleton.position, weights=loc.ravel(),
                       minlength=len(skeleton.indices))


def _scatter(space, loc, mask=False, base=None):
    """Global operator from element matrices (ne, nloc, nloc), plus `base`,
    data on the skeleton, when given.  `mask` replaces the Dirichlet rows
    and columns by the identity in place: 0.0 in their entries, then 1.0
    on their diagonal.  The operator owns its data and shares the
    skeleton's read-only `indices` and `indptr`, so a change of its
    structure in place (`eliminate_zeros`, say) raises ValueError."""
    skeleton = _skeleton(space)
    data = _scatter_data(space, loc)
    if base is not None:
        data += base
    if mask:
        data[skeleton.boundary_entries] = 0.0
        data[skeleton.boundary_diagonal] = 1.0
    return SparseOperator(sp.csr_matrix((data, skeleton.indices, skeleton.indptr),
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
    size, and with it the CG iteration counts of the last Newton steps.

    The row sums are the CSR kernel of `_matvec` with the data
    K_ij (v_j - v_i) against a vector of ones: each row sums its entries
    from +0 in entry order, as `np.bincount` over the entries' rows
    would.  v_i is repeated over row i's entries, so the skeleton holds
    no row index per entry."""
    skeleton, n = _skeleton(space), space.dim
    indptr = skeleton.indptr
    data = np.take(coeffs, skeleton.indices)
    data -= np.repeat(coeffs, indptr[1:] - indptr[:-1])
    data *= _stiffness(space)
    out = np.zeros(n)
    _sparsetools.csr_matvec(n, n, indptr, skeleton.indices, data, np.ones(n), out)
    return out


def assemble_gram_l2(space):
    """Unmasked mass matrix; row sums reproduce the basis integrals."""
    return _scatter(space, _geometric_local(space, stiffness=False))


def assemble_gram_h1(space):
    """Unmasked H^1 Gram (mass plus Laplace stiffness)."""
    return _scatter(space, _geometric_local(space))


def _is_number(q):
    """Whether `q` is a real number, a bool not counting as one."""
    return isinstance(q, numbers.Real) and not isinstance(q, bool)


def lq_norm(v, q):
    """Plain L^q norm of an FE function (no gradient part), q a finite
    number >= 1, not a bool."""
    if not (_is_number(q) and np.isfinite(q) and q >= 1):
        raise ValueError(f"lq_norm needs a finite q >= 1, got {q!r}")
    space = v.space
    rule = space.quad
    acc = 0.0
    for sl, wq in _quadrature(space.mesh, rule.weights):
        vals, _ = tabulate(space, v.coeffs, rule.points, sl, gradients=False)
        acc += float(np.sum(wq * np.abs(vals) ** q))
    return acc ** (1.0 / q)


def integrate(mesh, fn, degree=6):
    """Integral of a pointwise callable over the mesh."""
    rule = quadrature_rule(mesh.dim, degree)
    total = 0.0
    for sl, wq in _quadrature(mesh, rule.weights):
        x = _physical_points(mesh, rule.points, sl)
        vals = np.asarray(fn(x.reshape(-1, mesh.dim)), dtype=float)
        total += float(np.sum(wq * vals.reshape(wq.shape)))
    return total


# ---------------------------------------------------------------------------
# norms


def norms(f, g, q=2, include_broken_h2=False):
    """Broken norms of the difference f - g.

    f is an exact solution (read through its jet) or None (plain norms
    of g); an `FEFunction` f raises TypeError (subtract first).  For
    q = inf the sup norm is sampled on a dense per-element lattice, a
    documented approximation; everything else is quadrature on g's space.
    q must be a number >= 1 or inf, not a bool.
    """
    space = g.space
    rule = space.quad
    if not (_is_number(q) and (q == np.inf or q >= 1)):
        raise ValueError(f"q must be a number >= 1 or inf, got {q!r}")
    if include_broken_h2 and space.order < 2:
        raise ValueError("broken H2 norm needs order >= 2 (second derivatives of "
                         "P1 functions vanish identically inside elements)")
    if isinstance(f, FEFunction):
        raise TypeError("norms takes an exact solution or None as f; for two FE "
                        "functions on one space, pass None and their difference")
    coeffs, exact = -g.coeffs, f

    def diff(sl, pts, with_hess=False):
        vals, grads = tabulate(space, coeffs, pts, sl)
        hess = _fe_hessians(space, coeffs, sl, pts) if with_hess else None
        if exact is not None:
            flat = _physical_points(space.mesh, pts, sl).reshape(-1, space.mesh.dim)
            jet = exact.jet(flat, hessian=with_hess)
            vals = jet[0].reshape(vals.shape) + vals
            grads = jet[1].reshape(grads.shape) + grads
            if with_hess:
                hess = jet[2].reshape(hess.shape) + hess
        return vals, grads, hess

    acc_l2 = acc_h1 = acc_q = acc_h2 = 0.0
    for sl, wq in _quadrature(space.mesh, rule.weights):
        vals, grads, hess = diff(sl, rule.points, include_broken_h2)
        gnorm2 = _squared_norms(grads)
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
        for sl in _chunks(space.mesh.num_elements, len(lattice)):
            lv, lg, _ = diff(sl, lattice)
            w1q = max(w1q, float(np.abs(lv).max()),
                      float(np.sqrt(_squared_norms(lg).max())))
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
