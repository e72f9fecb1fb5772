"""Kirchhoff plate bending on C1-coupled SB-IGA spaces.

Weak form: a(u, v) = int D [(1-nu) Hess(v):Hess(u) + nu Lap(v) Lap(u)],
F(v) = int g v + int_GammaM M dv/dn + int_GammaQ Q v + point loads F*v(x_p).
Element quadrature is Gauss-Legendre with (p+1)^2 points per Bezier element
by default; all quadrature points are strictly inside knot spans, so the
singular scaling center is never evaluated.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import AssemblyError, SolverError, GeometryError
from .geometry import PatchEdge, locate_point, unit_normal
from .splines import INDEX

__all__ = [
    "PlateMaterial",
    "LoadSpec",
    "ExactSolution",
    "cos2_square",
    "manufactured_rhs",
    "point_load_reference",
    "assemble_stiffness",
    "assemble_load",
    "solve",
    "solve_plate",
    "Solution",
    "evaluate",
    "bending_moments",
    "error_norms",
    "ErrorReport",
]


class PlateMaterial:
    """Isotropic plate material; D = E t^3 / (12 (1 - nu^2)) exactly.

    Exactly one of t, D is given; the other is derived.
    """

    __slots__ = ("E", "nu", "t", "D")

    def __init__(self, E, nu, t=None, D=None):
        if not 0.0 <= nu < 0.5:
            raise AssemblyError("Poisson ratio must lie in [0, 0.5)", tag="invalid-material")
        if (t is None) == (D is None):
            raise AssemblyError("give exactly one of t or D", tag="invalid-material")
        self.E = float(E)
        self.nu = float(nu)
        if t is not None:
            self.t = float(t)
            self.D = self.E * self.t**3 / (12.0 * (1.0 - self.nu**2))
        else:
            self.D = float(D)
            self.t = (12.0 * (1.0 - self.nu**2) * self.D / self.E) ** (1.0 / 3.0)


class LoadSpec:
    """Surface load g(x, y), edge shear/moment data and point loads."""

    def __init__(self, surface=None, edge_loads=(), edge_moments=(), point_loads=()):
        self.surface = surface
        self.edge_loads = list(edge_loads)      # (patch index, Q) on outer edges
        self.edge_moments = list(edge_moments)  # (patch index, M) on outer edges
        self.point_loads = [(np.asarray(x, dtype=float), float(F)) for x, F in point_loads]


class ExactSolution:
    """Closed-form reference field with analytic derivatives."""

    def __init__(self, value, grad, hess, biharmonic=None):
        self.value = value
        self.grad = grad
        self.hess = hess
        self.biharmonic = biharmonic


def cos2_square():
    """u = cos^2(pi x) cos^2(pi y): clamped solution on [-1/2, 1/2]^2."""

    def value(x, y):
        return np.cos(np.pi * x) ** 2 * np.cos(np.pi * y) ** 2

    def grad(x, y):
        gx = -np.pi * np.sin(2 * np.pi * x) * np.cos(np.pi * y) ** 2
        gy = -np.pi * np.sin(2 * np.pi * y) * np.cos(np.pi * x) ** 2
        return gx, gy

    def hess(x, y):
        hxx = -2 * np.pi**2 * np.cos(2 * np.pi * x) * np.cos(np.pi * y) ** 2
        hyy = -2 * np.pi**2 * np.cos(2 * np.pi * y) * np.cos(np.pi * x) ** 2
        hxy = np.pi**2 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
        return hxx, hyy, hxy

    def biharmonic(x, y):
        cx = np.cos(2 * np.pi * x)
        cy = np.cos(2 * np.pi * y)
        return 4 * np.pi**4 * (cx + cy) + 16 * np.pi**4 * cx * cy

    return ExactSolution(value, grad, hess, biharmonic)


def manufactured_rhs(exact, D):
    """Surface load g = D * Lap^2(u) from analytic fourth derivatives."""
    if exact.biharmonic is None:
        raise AssemblyError("exact solution carries no biharmonic", tag="load-error")

    def g(x, y):
        return D * exact.biharmonic(x, y)

    return g


def point_load_reference(F=1.0, L=1.0, D=1.0, terms=2000):
    """Navier series for the center deflection of a simply supported square
    plate under a center point load; converges to ~0.01160 F L^2 / D.

    Only odd m, n contribute (sin^2(m pi / 2) factors); ``terms`` bounds m
    and n.
    """
    if terms < 1:
        raise AssemblyError("need terms >= 1", tag="invalid-series")
    n2 = np.arange(1, terms + 1, 2, dtype=float) ** 2
    s = 0.0
    for m2 in n2:
        s += np.sum(1.0 / (m2 + n2) ** 2)
    return 4.0 * F * L**2 / (D * np.pi**4) * s


# ----------------------------------------------------------------------
# assembly


def _quad_counts(cspace, quad):
    p = cspace.domain.p
    return (quad or p + 1, quad or p + 1)


def assemble_stiffness(cspace, material, quad=None):
    """Coupled stiffness A = M1^T ((P^T B) P) M1 in CSC (symmetric, PD when
    clamped), with B = blockdiag(Atilde_first, Atilde_rest) of
    :func:`_uncoupled_stiffness` and P = [M0c; M0].

    The three center functions of a singular group are 1, x and y on the
    first radial span, so their energy there is zero.  M0c is M0 without
    its center columns, so A4 = M0c^T Atilde_first M0c + M0^T Atilde_rest
    M0 leaves that zero exact instead of forming it by cancellation from
    the largest entries of Atilde.

    The congruence goes through the C0 space first: the one-stage
    (M0 M1)^T Atilde (M0 M1) rounds the product M0 M1 against the nearly
    singular center rows.  Both stages are CSC products, B is never copied
    to CSR or kept past the first product, and each product is freed once
    the next is formed; A is sorted in place once, for the solver.  On the
    clamped p=4 square at s=16, B^T, P^T (B P), A4^T or A^T in place of
    what is formed here move the L2 error by <= 0.03 %.  Where the error
    sits on the roundoff floor (p=5 without stabilization at s >= 20) any
    of these, and the order of the two blocks, move it by up to 4x.
    """
    M0, M1 = cspace.M0, cspace.M1
    keep = np.ones(M0.shape[1])
    keep[[c for cols in cspace.m0res.center_cols.values() for c in cols]] = 0.0
    P = sp.vstack([M0 @ sp.diags(keep, format="csc"), M0], format="csc")
    A4 = (P.T.tocsc() @ _uncoupled_stiffness(cspace, material, quad)) @ P
    A = M1.T.tocsc() @ A4
    del A4
    A = A @ M1
    A.sort_indices()
    return A


def _uncoupled_stiffness(cspace, material, quad=None):
    """B = blockdiag(Atilde_first, Atilde_rest) in CSC (:func:`_csc_stiffness`)
    for the integrand h^T C h, h = (H11, H22, H12),
    C = D [[1, nu, 0], [nu, 1, 0], [0, 0, 2 (1 - nu)]]."""
    D, nu = material.D, material.nu

    def c_rows(F):
        return np.stack([F[..., 0, :] + nu * F[..., 1, :], F[..., 1, :] + nu * F[..., 0, :],
                         2.0 * (1.0 - nu) * F[..., 2, :]], axis=-2)

    return _csc_stiffness(cspace, D, c_rows, quad)


def _csc_stiffness(cspace, D, c_rows, quad=None):
    """B = blockdiag(Atilde_first, Atilde_rest) (2N, 2N) in CSC from
    c_rows(F), C / D applied to the Hessian component axis of F: Atilde
    integrated over the first radial span in rows and columns 0..N-1, over
    radial spans 2..S2 in N..2N-1.

    On every span a block pair's stiffness is sum_{t,u} Z_tu (x) X_tu of
    1D matrices (:meth:`~sbiga.space._PatchTables.separable_tables`).  Its
    pattern is known before any value: the functions B_i R_j of block a
    that share an element with B_k R_l of block b are a zeta range of i
    times a radial range of j, read off the span windows of the Gauss
    tables (:func:`_layout`).  Atilde is block diagonal over the patches,
    so each patch's part is laid out once per distinct window signature in
    patch-local numbering and placed at the patch's offsets, and the
    values are written there.
    """
    nq1, nq2 = _quad_counts(cspace, quad)
    N = cspace.N
    tabs = [cspace.uspace.quad_tables(m, nq1, nq2) for m in range(len(cspace.domain.patches))]
    spans = (slice(0, 1), slice(1, None))  # Atilde_first, Atilde_rest
    cache, layouts = {}, []
    for part in spans:
        for tab in tabs:
            wins = [(blk.n1, blk.nj, I, J[part]) for blk, (I, _), (J, _) in zip(tab.blocks, tab.zt, tab.xt)]
            key = tuple((n1, nj, I.shape, I.tobytes(), J.shape, J.tobytes()) for n1, nj, I, J in wins)
            if key not in cache:
                cache[key] = _layout(wins)
            layouts.append(cache[key])
    indptr = np.concatenate([[0], np.cumsum(np.concatenate([np.diff(lay[0]) for lay in layouts]), dtype=np.int64)])
    if indptr[-1] > np.iinfo(INDEX).max:
        raise AssemblyError("%d stiffness entries exceed the sparse index range" % indptr[-1],
                            tag="assembly-failure")
    indptr = indptr.astype(INDEX)
    indices = np.empty(indptr[-1], INDEX)
    data = np.empty(indptr[-1])
    views = []
    for k, (_, idx, _) in enumerate(layouts):
        col = k // len(tabs) * N + tabs[k % len(tabs)].offsets[0]
        at = slice(indptr[col], indptr[col] + len(idx))
        np.add(idx, col, out=indices[at])
        views.append(data[at])
    for m, tab in enumerate(tabs):
        wz, wx, blocks = tab.separable_tables()
        CF = [c_rows(F) * (D * wz)[:, None, None, :] for _, _, _, F, _, _ in blocks]
        WG = [G * wx[:, None, :] for *_, G in blocks]
        pairs = [layouts[k][2] for k in (m, m + len(tabs))]
        for a, b in pairs[0].keys() | pairs[1].keys():
            (n1a, nja, Ia, _, Ja, _), (n1b, njb, Ib, Fb, Jb, Gb) = blocks[a], blocks[b]
            Zg = _span_grams(Ia, CF[a], Ib, Fb, n1a, n1b)
            for part, per, view in zip(spans, pairs, (views[m], views[m + len(tabs)])):
                if (a, b) in per:
                    pos, iz, kz, jx, lx = per[a, b]
                    X = _span_grams(Ja[part], WG[a][:, part], Jb[part], Gb[:, part], nja, njb)
                    view[pos] = np.einsum("it,jt->ij", Zg[iz, kz], X[jx, lx])
    if not np.all(np.isfinite(data)):
        raise AssemblyError("nonfinite stiffness entry", tag="assembly-failure")
    return sp.csc_matrix((data, indices, indptr), shape=(2 * N, 2 * N))


def _layout(wins):
    """The CSC pattern of one patch's stiffness in patch-local numbering,
    from per block (n1, nj, I, J) its size and its zeta and radial span
    windows, over the spans that J lists.  Column (k, l) of block b holds
    the functions of block 0 that share a span with it, then those of
    block 1, ..., each row-major in (i, j): the ranges of :func:`_overlap`,
    so entry (B_i R_j of a, B_k R_l of b) sits at Q[k, l] + i rc[l] + j.
    Returns (indptr, indices, {(a, b): (pos, iz, kz, jx, lx)}) with pos
    (nZ, nX) those positions over all zeta pairs (i, k) = (iz, kz) and
    radial pairs (j, l) = (jx, lx) of the ranges; a pair that shares no
    span is left out."""
    off = np.cumsum([0] + [n1 * nj for n1, nj, _, _ in wins])
    ov = [[_overlap(Ia, Ib, n1a, n1b) + _overlap(Ja, Jb, nja, njb) for n1a, nja, Ia, Ja in wins]
          for n1b, njb, Ib, Jb in wins]
    counts = np.concatenate([sum(zc[:, None] * rc for _, zc, _, rc in per_b).ravel() for per_b in ov])
    indptr = np.concatenate([[0], np.cumsum(counts, dtype=np.intp)])
    indices = np.empty(indptr[-1], INDEX)
    pairs = {}
    for b, ((n1b, njb, _, _), per_b) in enumerate(zip(wins, ov)):
        start = indptr[off[b] : off[b + 1]].reshape(n1b, njb)
        for a, (zlo, zc, rlo, rc) in enumerate(per_b):
            if rc.any():
                Q = start - zlo[:, None] * rc - rlo
                kz, iz = _ranges(zlo, zc)
                lx, jx = _ranges(rlo, rc)
                pos = np.repeat(Q[kz] + iz[:, None] * rc, rc, axis=1)
                pos += jx
                indices[pos] = (off[a] + iz * wins[a][1])[:, None] + jx
                pairs[a, b] = (pos, iz, kz, jx, lx)
                start = start + zc[:, None] * rc
    return indptr, indices, pairs


def _overlap(Wa, Wb, na, nb):
    """(lo, n) such that the functions of one factor whose span windows are
    Wa (S, ka) share a span with function r of the other (windows Wb
    (S, kb)) for lo[r] <= l < lo[r] + n[r]: the union of Wa over the spans
    where r is active.  The radial windows are padded with na and nb."""
    inside = Wa < na
    lo = np.full(nb + 1, na, INDEX)
    hi = np.zeros(nb + 1, INDEX)
    np.minimum.at(lo, Wb, np.where(inside, Wa, na).min(axis=1)[:, None])
    np.maximum.at(hi, Wb, np.where(inside, Wa + 1, 0).max(axis=1)[:, None])
    return lo[:nb], np.maximum(hi - lo, 0)[:nb]


def _ranges(lo, n):
    """(u, r) over the pairs lo[u] <= r < lo[u] + n[u], in order of u, then r."""
    u = np.repeat(np.arange(len(n), dtype=INDEX), n)
    r = np.arange(len(u), dtype=INDEX) - np.repeat((np.cumsum(n) - n).astype(INDEX), n)
    return u, r + lo[u]


def _span_grams(Ia, Pa, Ib, Pb, na, nb):
    """M (na + 1, nb + 1, 9) with M[r, c] = M_tu, M_tu = sum_s Pa[t, s]
    Pb[u, s]^T for Pa (3, S, ka, ...), Pb (3, S, kb, ...) summed where the
    span windows Ia (S, ka) and Ib (S, kb) meet: small GEMMs span by span,
    since one product over all nodes split its inner axis by BLAS thread,
    summed by np.bincount in span order.  The last row and column take the
    padding."""
    Pa, Pb = (P.reshape(P.shape[:3] + (-1,)) for P in (Pa, Pb))
    E = (Pa[:, None] @ Pb[None].swapaxes(-1, -2)).reshape((9, -1))
    at = ((Ia[:, :, None] * (nb + 1) + Ib[:, None, :]) * 9).reshape(-1, 1) + np.arange(9)
    return np.bincount(at.ravel(), E.T.ravel(), (na + 1) * (nb + 1) * 9).reshape(na + 1, nb + 1, 9)


def assemble_load(cspace, loads, quad=None):
    """Coupled load vector f = M1^T (M0^T ftilde), point loads included in
    ftilde; the same two stages as :func:`assemble_stiffness`.

    The surface term is one sum of the basis against W = w |det J| g on
    each patch's Gauss grid (:meth:`~sbiga.space._PatchTables.weighted_sums`).
    """
    uspace = cspace.uspace
    domain = cspace.domain
    nq1, nq2 = _quad_counts(cspace, quad)
    ftil = np.zeros(cspace.N)

    if loads.surface is not None:
        for m in range(len(domain.patches)):
            tab = uspace.quad_tables(m, nq1, nq2)
            geo = tab.patch_geometry()
            W = geo["w"] * np.abs(geo["det"]) * loads.surface(geo["px"], geo["py"])
            for sl, F in tab.weighted_sums(W):
                ftil[sl] += F.ravel()

    for patch_idx, val in loads.edge_loads:
        _edge_functional(uspace, patch_idx, val, ftil, order=0)
    for patch_idx, val in loads.edge_moments:
        _edge_functional(uspace, patch_idx, val, ftil, order=1)

    for xp, F in loads.point_loads:
        m, z, x = locate_point(domain, xp)
        idx, V = uspace.parametric_eval(m, z, x, nders=0)[:2]
        np.add.at(ftil, idx, F * V)
    return np.asarray(cspace.M1.T @ (cspace.M0.T @ ftil)).ravel()


def _edge_functional(uspace, patch_idx, val, ftil, order):
    """Accumulate int_edge val * v ds (order 0) or val * dv/dn ds (order 1)
    over the outer edge of one patch; a callable val(x, y) takes arrays."""
    domain = uspace.domain
    patch = domain.patches[patch_idx]
    edge = PatchEdge(patch_idx, "outer")
    ts, ws, geo = edge.rule(domain, domain.p + 1)
    z, x = edge.points(ts)
    coef = ws * (val(*patch.map(z, x).T) if callable(val) else val)
    if order == 0:
        idx, V = uspace.parametric_eval(patch_idx, z, x, nders=0)[:2]
    else:
        n = unit_normal(geo, edge.ndir)
        idx, _, G, _ = uspace.physical_eval(patch_idx, z, x, nders=1)
        V = (G @ n[:, :, None])[..., 0]
    keep = idx >= 0
    np.add.at(ftil, idx[keep], (coef[:, None] * V)[keep])


# ----------------------------------------------------------------------
# solve


class Solution:
    def __init__(self, space, coeffs, material, loads, residual, cond_estimate):
        self.space = space
        self.coeffs = coeffs
        self.material = material
        self.loads = loads
        self.residual = residual
        self.cond_estimate = cond_estimate
        self._ctil = None

    @property
    def ctil(self):
        if self._ctil is None:
            self._ctil = self.space.expand(self.coeffs)
        return self._ctil


def _cond_estimate(A, lu):
    """Lower-bound estimate of the 1-norm condition number ||A||_1
    ||A^{-1}||_1: the exact column-sum norm of A times the LAPACK xLACN2
    estimate of ||A^{-1}||_1 (Hager 1984, Higham 1988) from solves with
    the LU factors of A.  xLACN2 runs one column, at most five iterations
    and the alternating-sign test vector; its value is the 1-norm of some
    A^{-1} x with ||x||_1 = 1, so a lower bound, and it takes at most 10
    solves: the first and the alternating-sign one are independent and go
    together, with the bits of two single solves."""
    n = A.shape[0]
    alt = (1.0 + np.arange(n) / max(n - 1, 1)) * np.where(np.arange(n) % 2, -1.0, 1.0)
    y, y_alt = lu.solve(np.column_stack([np.full(n, 1.0 / n), alt])).T
    est = np.abs(y).sum()
    if n > 1:
        sgn = np.where(y >= 0.0, 1.0, -1.0)
        j = np.argmax(np.abs(lu.solve(sgn, trans="T")))
        for _ in range(4):  # iterations 2 to 5
            y = lu.solve(np.eye(1, n, j).ravel())
            est_old, est = est, np.abs(y).sum()
            new_sgn = np.where(y >= 0.0, 1.0, -1.0)
            if np.array_equal(new_sgn, sgn) or est <= est_old:
                break
            sgn = new_sgn
            z = np.abs(lu.solve(sgn, trans="T"))
            j_last, j = j, np.argmax(z)
            if z[j_last] == z[j]:
                break
    # for n = 1 the alternating-sign term is 2/3 of est and changes nothing
    est = max(est, 2.0 * np.abs(y_alt).sum() / (3 * n))
    est *= np.max(abs(A).T @ np.ones(n))  # ||A||_1 without a CSC -> CSR copy
    return est if np.isfinite(est) else np.inf


def solve(A, f):
    """Direct sparse solve with one refinement step.

    A is symmetric positive definite by construction (clamped or simply
    supported plates), so the factorization takes diagonal pivots: it is
    Cholesky-like and backward stable, and the minimum-degree ordering of
    A + A^T is used as computed.  Partial pivoting would swap rows, break
    that symmetric ordering and multiply the fill.  A diagonal entry that is
    exactly zero still leads to a row swap, and an exactly singular A raises
    SolverError.  Relaxed supernodes are off and panels are 8 columns wide:
    on the plate matrices that factors faster than SuperLU's defaults with
    the same LU, and relax=64, panel_size=32 corrupted the heap.

    Returns (coeffs, residual, 1-norm condition estimate).  A residual above
    1e-8*||f|| is reported, not raised: the unstabilized fine meshes of the
    stability study are intentionally ill-conditioned.
    """
    A = sp.csc_matrix(A)
    f = np.asarray(f, dtype=float)
    try:
        lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       relax=1, panel_size=8, options={"SymmetricMode": True})
        x = lu.solve(f)
        r = f - A @ x
        x = x + lu.solve(r)
    except RuntimeError as exc:
        raise SolverError("factorization failed: %s" % exc, tag="solver-error")
    if not np.all(np.isfinite(x)):
        raise SolverError("solver produced nonfinite values", tag="solver-error")
    r = f - A @ x
    res = np.sqrt(np.sum(r * r))  # np.linalg.norm takes a BLAS ddot, split by thread
    return x, res, _cond_estimate(A, lu)


def solve_plate(cspace, material, loads, quad=None):
    """Assemble and solve; returns a :class:`Solution`."""
    A = assemble_stiffness(cspace, material, quad=quad)
    f = assemble_load(cspace, loads, quad=quad)
    x, res, est = solve(A, f)
    return Solution(cspace, x, material, loads, res, est)


# ----------------------------------------------------------------------
# postprocessing


def evaluate(solution, points, nders=2):
    """Field values (and physical derivatives) at (patch, zeta, xi) points.

    Derivatives require xi > 0; values are defined at xi = 0 through the
    center functions.  The points of each patch are evaluated in one batch.
    """
    ms, zs, xs = (np.asarray(a) for a in zip(*points))
    if nders > 0 and np.any(xs == 0.0):
        raise GeometryError(
            "derivatives at the scaling center need xi > 0", tag="singular-jacobian"
        )
    out = [np.empty((len(ms),) + shape) for shape in ((), (2,), (2, 2))[: nders + 1]]
    for m in np.unique(ms):
        sel = ms == m
        idx, *parts = solution.space.uspace.physical_eval(m, zs[sel], xs[sel], nders=nders)
        c = solution.ctil[idx][:, None, :]
        for arr, part in zip(out, parts):
            arr[sel] = (c @ part.reshape(part.shape[:2] + (-1,))).reshape(arr[sel].shape)
    if nders == 0:
        return out[0]
    return out[0], out[1], (out[2] if nders >= 2 else None)


def bending_moments(solution, points):
    """(m11, m22, m12) from physical Hessians:
    m11 = D(uxx + nu uyy), m22 = D(uyy + nu uxx), m12 = D(1-nu) uxy."""
    D, nu = solution.material.D, solution.material.nu
    _, _, H = evaluate(solution, points, nders=2)
    m11 = D * (H[:, 0, 0] + nu * H[:, 1, 1])
    m22 = D * (H[:, 1, 1] + nu * H[:, 0, 0])
    m12 = D * (1.0 - nu) * H[:, 0, 1]
    return m11, m22, m12


class ErrorReport:
    """H2 seminorm and L2 norm of u - u_h (Frobenius Hessian convention)."""

    def __init__(self, h2_semi, l2):
        self.h2_semi = h2_semi
        self.l2 = l2

    def __repr__(self):
        return f"ErrorReport(h2_semi={self.h2_semi:.6e}, l2={self.l2:.6e})"


def error_norms(solution, exact, quad=None):
    """H2 seminorm and L2 norm of u - u_h by Gauss quadrature.

    u_h and its parametric derivatives come from each span's windows of
    the block coefficients on the patch's Gauss grid, and one pullback per
    patch maps them to the physical Hessian
    (:meth:`~sbiga.space._PatchTables.field`).
    """
    cspace = solution.space
    uspace = cspace.uspace
    ctil = solution.ctil
    nq1, nq2 = _quad_counts(cspace, quad)
    l2 = h2 = 0.0
    for m in range(len(cspace.domain.patches)):
        uh, uh11, uh22, uh12, geo = uspace.quad_tables(m, nq1, nq2).field(ctil)
        w = geo["w"] * np.abs(geo["det"])
        ue = exact.value(geo["px"], geo["py"])
        e11, e22, e12 = exact.hess(geo["px"], geo["py"])
        l2 += np.sum(w * (uh - ue) ** 2)
        h2 += np.sum(w * ((uh11 - e11) ** 2 + (uh22 - e22) ** 2 + 2.0 * (uh12 - e12) ** 2))
    return ErrorReport(np.sqrt(h2), np.sqrt(l2))
