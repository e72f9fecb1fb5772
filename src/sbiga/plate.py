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
    """Coupled stiffness A = M1^T (M0^T Atilde M0) M1 (symmetric, PD when
    clamped).

    The congruence goes through the C0 space first.  Atilde is nearly
    singular on the center rows, and the one-stage (M0 M1)^T Atilde (M0 M1)
    rounds the product M0 M1 against them: on the clamped p=4 square at
    s=16, a random orthogonal recombination of the interface columns of M1
    moved the L2 error by 20 % in the one-stage form and by 0.05 % here.
    """
    A4 = cspace.M0.T @ _uncoupled_stiffness(cspace, material, quad) @ cspace.M0
    return (cspace.M1.T @ A4 @ cspace.M1).tocsc()


def _uncoupled_stiffness(cspace, material, quad=None):
    """Atilde on the uncoupled space, sparse, for the integrand h^T C h,
    h = (H11, H22, H12), C = D [[1, nu, 0], [nu, 1, 0], [0, 0, 2 (1 - nu)]].

    On the first radial span, where the center functions' energy forms by
    cancellation, and on every span of a patch with S2 <= 2, the element
    matrices of a radial span row are three batched GEMMs over the
    quadrature axis, with wD = D w |det J| per point:
    ((H11 + nu H22) wD) H11^T + ((H22 + nu H11) wD) H22^T
    + (2 (1 - nu) H12 wD) H12^T.  On spans 2..S2 a block pair gets
    sum_{t,u} Z_tu (x) X_tu (:func:`_kronecker_entries`).
    """
    D, nu = material.D, material.nu
    nq1, nq2 = _quad_counts(cspace, quad)
    parts = []
    for m in range(len(cspace.domain.patches)):
        tab = cspace.uspace.quad_tables(m, nq1, nq2)
        kron = tab.S2 > 2
        patch_geo, *sep = tab.separable_tables() if kron else (tab.patch_geometry(),)
        for s2 in range(1 if kron else tab.S2):
            IDX, H11, H22, H12, geo = tab.row_physical(s2, patch_geo)
            wD = (D * geo["w"] * np.abs(geo["det"]))[:, None, :]
            loc = ((H11 + nu * H22) * wD) @ H11.transpose(0, 2, 1)
            loc += ((H22 + nu * H11) * wD) @ H22.transpose(0, 2, 1)
            loc += (2.0 * (1.0 - nu) * H12 * wD) @ H12.transpose(0, 2, 1)
            K = IDX.shape[1]
            parts.append((np.repeat(IDX, K, axis=1).ravel(), np.tile(IDX, (1, K)).ravel(), loc.ravel()))
        if kron:
            wz, wx, blocks = sep
            CF = [np.stack([F[..., 0, :] + nu * F[..., 1, :], F[..., 1, :] + nu * F[..., 0, :],
                            2.0 * (1.0 - nu) * F[..., 2, :]], axis=-2) * (D * wz)[:, None, None, :]
                  for _, _, _, _, F, _, _ in blocks]
            parts += _kronecker_entries(blocks, CF, wx)
    rows, cols, vals = (np.concatenate(a) for a in zip(*parts))
    if not np.all(np.isfinite(vals)):
        raise AssemblyError("nonfinite stiffness entry", tag="assembly-failure")
    return sp.coo_matrix((vals, (rows, cols)), shape=(cspace.N, cspace.N)).tocsc()


def _kronecker_entries(blocks, CF, wx):
    """COO (rows, cols, vals) of sum_{t,u} Z_tu (x) X_tu per block pair
    (a, b) of a patch's :meth:`~sbiga.space._PatchTables.separable_tables`,
    with CF[a] = C F_a wz: Z_tu = sum CF_a[t] F_b[u], X_tu = sum G_a[t]
    G_b[u] wx, where both 1D supports overlap.  einsum forms the values: a
    threaded (nZ x 9)(9 x nX) GEMM changed some with the thread count."""
    for (sa, n1a, nja, Ia, _, Ja, Ga), CFa in zip(blocks, CF):
        WG = Ga * wx[:, None, :]
        for sb, n1b, njb, Ib, Fb, Jb, Gb in blocks:
            iz, kz, Z = _span_grams(Ia, CFa, Ib, Fb, n1a, n1b)
            jx, lx, X = _span_grams(Ja, WG, Jb, Gb, nja, njb)
            yield (np.add.outer(sa + iz * nja, jx).ravel(),
                   np.add.outer(sb + kz * njb, lx).ravel(), np.einsum("it,jt->ij", Z, X).ravel())


def _span_grams(Ia, Pa, Ib, Pb, na, nb):
    """(r, c, M[r, c]) where the span windows Ia (S, ka) and Ib (S, kb)
    overlap, of M_tu = sum_s Pa[t, s] Pb[u, s]^T (na, nb) for Pa (3, S, ka,
    ...), Pb (3, S, kb, ...): small GEMMs summed span by span, since one
    product over all nodes split its inner axis by BLAS thread."""
    Pa, Pb = (P.reshape(P.shape[:3] + (-1,)) for P in (Pa, Pb))
    E = Pa[:, None] @ Pb[None].swapaxes(-1, -2)
    M = np.zeros((na + 1, nb + 1, 9))  # the last row and column take the padding
    np.add.at(M, (Ia[:, :, None], Ib[:, None, :]), E.reshape((9,) + E.shape[2:]).transpose(1, 2, 3, 0))
    r, c = np.nonzero(M[:na, :nb].any(axis=2))
    return r.astype(INDEX), c.astype(INDEX), M[r, c]


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
    res = np.linalg.norm(f - A @ x)
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
