"""Globally C1-smooth coupled bases on SB multipatch domains.

The chain follows six steps: prune the two innermost radial layers of every
singular center group, merge interface traces continuously, append the three
scaling-center functions of each singular group, remove layers that violate
essential boundary conditions (all encoded in M0), assemble the weighted
rows C of normal-derivative jumps across all interfaces (MJ = C^T C), and
span the C1 space with a sparse basis M1 of the null space of C, from one
small column-pivoted QR per interface on the columns its jump rows touch.
M1 is local, has unit columns but is not orthonormal, and its bits do not
depend on the BLAS thread count.  System matrices in the coupled basis are
congruences A = M1^T (M0^T Atilde M0) M1.  The dense eigenvector basis of MJ,
:func:`nullspace`, is kept as the reference that the tests compare with.
"""

import functools

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import qr, solve_triangular

from .errors import CouplingError, GeometryError
from .geometry import ESSENTIAL_LAYERS, unit_normal
from .space import UncoupledSpace

__all__ = [
    "G1Coefficients",
    "asg1_coefficients",
    "verify_asg1",
    "scaling_center_functions",
    "build_m0",
    "assemble_jump_rows",
    "assemble_jump_matrix",
    "c1_basis",
    "nullspace",
    "gram_rank",
    "CoupledSpace",
    "build_coupled_space",
    "reproduction_vector",
    "c1_jump_report",
]

# Least ratio of the smallest kept to the largest dropped pivot of each
# local QR of c1_basis; every level of the bundled configs shows at least
# 6.2e11 (perforated disk, s=4).
_RANK_GAP = 1e6


# ----------------------------------------------------------------------
# AS-G1 gluing data (runtime verification of the coupling geometry)


class G1Coefficients:
    """Gluing functions of one interface: constant alphas, degree-1 betas.

    beta(t) = beta[0] + beta[1]*t and beta = alphaL*betaR - alphaR*betaL
    holds coefficientwise by construction.
    """

    __slots__ = ("alphaL", "alphaR", "beta", "betaL", "betaR")

    def __init__(self, alphaL, alphaR, beta):
        if alphaL * alphaR <= 0.0:
            raise GeometryError("alphaL*alphaR must be positive", tag="invalid-geometry")
        self.alphaL = float(alphaL)
        self.alphaR = float(alphaR)
        self.beta = np.asarray(beta, dtype=float)
        self.betaL = -self.beta / (2.0 * self.alphaR)
        self.betaR = self.beta / (2.0 * self.alphaL)

    def beta_at(self, t):
        return self.beta[0] + self.beta[1] * np.asarray(t, dtype=float)


def asg1_coefficients(domain, interface):
    """Constructive gluing coefficients for one interface.

    Radial interfaces: solve d1*dgammaL(1) + d2*dgammaR(0) = gammaL(1) - x0
    and set alphaR = d1, alphaL = -d2, beta = -(c1 t + c2)/c1.  Parallel
    tangents use (alphaR, alphaL, beta) = (c, 1, 0) with c > 0.  Straight
    interfaces between center groups use the bilinear two-patch branch.
    """
    if interface.kind == "radial":
        pl = domain.patches[interface.left]
        pr = domain.patches[interface.right]
        _, tl = pl.curve.eval_one(1.0, nders=1)
        _, tr = pr.curve.eval_one(0.0, nders=1)
        nl, nr = np.hypot(*tl), np.hypot(*tr)
        if nl < 1e-14 or nr < 1e-14:
            raise GeometryError("zero boundary tangent at interface", tag="degenerate-curve")
        rhs = pl.curve.eval_one(1.0) - pl.x0
        det = tl[0] * tr[1] - tl[1] * tr[0]
        if abs(det) <= 1e-12 * nl * nr:
            c = (tr @ tl) / (tl @ tl)
            if c <= 0.0:
                raise GeometryError(
                    "antiparallel interface tangents", tag="invalid-geometry"
                )
            return G1Coefficients(1.0, c, (0.0, 0.0))
        d1 = (rhs[0] * tr[1] - rhs[1] * tr[0]) / det
        d2 = (tl[0] * rhs[1] - tl[1] * rhs[0]) / det
        alphaR, alphaL = d1, -d2
        scale = max(abs(alphaL), abs(alphaR))
        if alphaR < 0:
            scale = -scale
        beta = np.array([-pl.c2 / pl.c1, -1.0]) / scale
        return G1Coefficients(alphaL / scale, alphaR / scale, beta)

    pa = domain.patches[interface.left]
    pb = domain.patches[interface.right]
    ca = pa.curve
    A0, A1 = ca.eval_one(0.0), ca.eval_one(1.0)
    v = A1 - A0
    L2 = v @ v
    crs_a = (A0[0] - pa.x0[0]) * v[1] - (A0[1] - pa.x0[1]) * v[0]
    crs_b = (A0[0] - pb.x0[0]) * v[1] - (A0[1] - pb.x0[1]) * v[0]
    if crs_a * crs_b >= 0.0:
        raise GeometryError(
            "scaling centers lie on the same side of the cut line", tag="invalid-geometry"
        )
    alphaR = pb.c1 * crs_b
    alphaL = -pa.c1 * crs_a
    scale = max(abs(alphaL), abs(alphaR))
    if alphaR < 0:
        scale = -scale
    alphaR /= scale
    alphaL /= scale
    qB1 = pb.c1 + pb.c2

    def beta_of(mu):
        x = A0 + mu * v
        s = alphaR * pa.c1 * ((x - pa.x0) @ v) + alphaL * pb.c1 * ((x - pb.x0) @ v)
        return -s / (qB1 * L2)

    b0 = beta_of(0.0)
    b1 = beta_of(1.0) - b0
    return G1Coefficients(alphaL, alphaR, (b0, b1))


def verify_asg1(domain, interface, coeffs, samples=50):
    """Max norm of the AS-G1 identity residual at ``samples`` points."""
    ts = np.linspace(0.0, 1.0, samples)
    beta = coeffs.beta_at(ts)[:, None]
    if interface.kind == "radial":
        pl = domain.patches[interface.left]
        pr = domain.patches[interface.right]
        _, tl = pl.curve.eval_one(1.0, nders=1)
        _, tr = pr.curve.eval_one(0.0, nders=1)
        axial = pl.c1 * (pl.curve.eval_one(1.0) - pl.x0)
        q = (pl.c1 * ts + pl.c2)[:, None]
        r = coeffs.alphaR * q * tl - coeffs.alphaL * q * tr + beta * axial
    else:
        pa = domain.patches[interface.left]
        pb = domain.patches[interface.right]
        x, dx = pa.curve.eval(ts, nders=1)
        r = (
            coeffs.alphaR * pa.c1 * (x - pa.x0)
            + coeffs.alphaL * pb.c1 * (x - pb.x0)
            + beta * (pb.c1 + pb.c2) * dx
        )
    return float(np.max(np.hypot(r[:, 0], r[:, 1])))


# ----------------------------------------------------------------------
# M0: prune + C0 + scaling center + boundary conditions


def scaling_center_functions(uspace, group_index):
    """Coefficients of the three center functions of one group.

    Coefficients live on radial indices j <= p of the innermost block of
    every patch in the group: ones for phi1, control-point x/y coordinates
    for phi2/phi3 (value and gradient at the center are then (1,0,0),
    (0,1,0), (0,0,1) and the functions equal 1, x, y on the first radial
    span).  Returns (idx, coeffs): the flat indices and a (3, len(idx))
    array of the coefficients of phi1, phi2, phi3 there.
    """
    domain = uspace.domain
    group = domain.groups[group_index]
    if group.c2 != 0.0:
        raise CouplingError(
            "scaling-center functions need a singular parametrization (c2=0)",
            tag="not-applicable",
        )
    p = domain.p
    idx, coeffs = [np.empty(0, dtype=int)], [np.empty((3, 0))]
    for m in group.patches:
        for b, blk in enumerate(uspace.blocks[m]):
            if blk.j_lo > p:
                continue
            net = blk.net(domain.patches[m])[:, : min(p, blk.j_hi) - blk.j_lo + 1]
            jl = np.arange(net.shape[1])
            idx.append(uspace.flat(m, b, np.arange(blk.n1)[:, None], jl).ravel())
            coeffs.append(np.stack([np.ones(net.shape[:2]), net[..., 0], net[..., 1]]).reshape(3, -1))
    return np.concatenate(idx), np.concatenate(coeffs, axis=1)


class M0Result:
    """M0 with its bookkeeping."""

    def __init__(self, matrix, center_cols, unc2col, removed):
        self.matrix = matrix          # (N, N4) csc
        self.center_cols = center_cols  # group index -> (c1, c2, c3)
        self.unc2col = unc2col        # uncoupled index -> plain column (-1)
        self.removed = removed        # mask of removed uncoupled indices

    @property
    def N4(self):
        return self.matrix.shape[1]


def _blocks_with_layer(uspace, m, j_global):
    """(block, local radial index) of every block of patch m that holds
    radial layer j_global."""
    return [(b, j_global - blk.j_lo) for b, blk in enumerate(uspace.blocks[m])
            if blk.j_lo <= j_global <= blk.j_hi]


def _layer(uspace, m, j_global):
    """Flat indices of radial layer j_global of patch m, over its blocks."""
    return [
        uspace.flat(m, b, np.arange(uspace.blocks[m][b].n1), jl)
        for b, jl in _blocks_with_layer(uspace, m, j_global)
    ]


def _edge_dofs(uspace, edge):
    """Flat indices of the functions of one patch edge's trace, one array
    per block that holds some, each in the order of the edge parameter."""
    m = edge.patch
    blocks = uspace.blocks[m]
    if edge.axis == 0:
        return [uspace.flat(m, b, int(edge.fixed) * (blk.n1 - 1), np.arange(blk.nj))
                for b, blk in enumerate(blocks)]
    layer = int(edge.fixed) * (uspace.domain.patches[m].radial.n - 1)
    return [uspace.flat(m, b, np.arange(blocks[b].n1), jl)
            for b, jl in _blocks_with_layer(uspace, m, layer)]


def build_m0(uspace):
    """Steps 1-4 of the coupling chain as a sparse basis transformation.

    The C0 classes are the connected components of the graph of merged
    trace pairs.  A class is dropped when a member is pruned or lies in a
    boundary-condition layer; the kept classes give the plain columns in
    the order of their smallest member, each column holding ones on its
    members.  The center functions of each singular group follow.
    """
    domain = uspace.domain
    N = uspace.N
    p = domain.p
    n2 = [g.radial.n for g in domain.groups]

    # step 1: prune j <= 1 (0-based) in singular groups
    removed = np.zeros(N, dtype=bool)
    for g in domain.groups:
        if g.c2 == 0.0:
            for m in g.patches:
                for idx in _layer(uspace, m, 0) + _layer(uspace, m, 1):
                    removed[idx] = True

    # step 2: C0 identification across interfaces
    left, right = [np.empty(0, dtype=int)], [np.empty(0, dtype=int)]
    for itf in domain.interfaces:
        traces = [_edge_dofs(uspace, edge) for edge in itf.sides]
        if [len(t) for t in traces[0]] != [len(t) for t in traces[1]]:
            raise GeometryError("bases differ across interface %r" % itf, tag="topology-error")
        left += traces[0]
        right += [t[::-1] for t in traces[1]] if itf.flip else traces[1]
    left, right = np.concatenate(left), np.concatenate(right)
    graph = sp.csr_matrix((np.ones(len(left)), (left, right)), shape=(N, N))
    ncls, cls = sp.csgraph.connected_components(graph, directed=False)

    # step 4 data: essential BC layer removal (applied to merged classes)
    group_constrained = set()
    for be in domain.boundary:
        if be.edge != "outer":
            continue
        nlay = ESSENTIAL_LAYERS.get(be.tag)
        if nlay is None:
            raise GeometryError("unknown bc tag %r" % be.tag, tag="config-error")
        if nlay == 0:
            continue
        gi = domain.group_of(be.patch)
        group_constrained.add(gi)
        for j_global in range(n2[gi] - nlay, n2[gi]):
            for idx in _layer(uspace, be.patch, j_global):
                removed[idx] = True
    for itf in domain.interfaces:
        if itf.kind == "outer":
            group_constrained.add(domain.group_of(itf.left))
            group_constrained.add(domain.group_of(itf.right))
    for gi in group_constrained:
        if domain.groups[gi].c2 == 0.0 and not (p + 1 <= n2[gi] - 2):
            raise CouplingError(
                "center functions of group %d reach constrained layers; "
                "need n2 >= p+3 (got n2=%d, p=%d)" % (gi, n2[gi], p),
                tag="config-error",
            )

    # plain columns: kept classes in the order of their smallest member
    roots = np.unique(cls, return_index=True)[1]
    dropped = np.zeros(ncls, dtype=bool)
    dropped[cls[removed]] = True
    order = np.argsort(roots)
    kept = order[~dropped[order]]
    col = np.full(ncls, -1)
    col[kept] = np.arange(len(kept))
    unc2col = col[cls]
    rows = [np.flatnonzero(unc2col >= 0)]
    cols = [unc2col[rows[0]]]
    vals = [np.ones(len(rows[0]))]

    k = len(kept)
    center_cols = {}
    for gi, g in enumerate(domain.groups):
        if g.c2 == 0.0:
            idx, coeffs = scaling_center_functions(uspace, gi)
            rows += [idx] * 3
            cols += [np.full(len(idx), k + c) for c in range(3)]
            vals += list(coeffs)
            center_cols[gi] = (k, k + 1, k + 2)
            k += 3

    M0 = sp.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(N, k)
    )
    return M0Result(M0, center_cols, unc2col, removed)


# ----------------------------------------------------------------------
# MJ: normal-derivative jump Gram matrix


def _point_rows(idx, vals, N):
    """Sparse (npts, N) operator with row r = sum_k vals[r, k] e_{idx[r, k]}
    over the entries with idx >= 0, kept in the given order."""
    keep = idx >= 0
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    return sp.csr_matrix((vals[keep], idx[keep], indptr), shape=(len(idx), N))


def _interface_sides(itf, ts):
    """Both sides of one interface as (patch, zeta, xi) at the parameters
    ts of its left edge."""
    left, right = itf.sides
    return (left.patch, *left.points(ts)), (right.patch, *right.points(1.0 - ts if itf.flip else ts))


def _side_gradients(uspace, sides):
    """Physical gradients (idx, G) of the uncoupled functions at each
    (patch, zeta, xi) point set of ``sides``, one batched
    :meth:`~sbiga.space.UncoupledSpace.physical_eval` per patch."""
    out = [None] * len(sides)
    for m in dict.fromkeys(m for m, _, _ in sides):
        ks = [k for k, side in enumerate(sides) if side[0] == m]
        z, x = (np.concatenate([sides[k][c] for k in ks]) for c in (1, 2))
        idx, _, G, _ = uspace.physical_eval(m, z, x, nders=1)
        cuts = np.cumsum([len(sides[k][1]) for k in ks[:-1]])
        for k, idx_k, G_k in zip(ks, np.split(idx, cuts), np.split(G, cuts)):
            out[k] = (idx_k, G_k)
    return out


def _jump_operator(N, normal, grads):
    """Sparse (npts, N) operator of the normal-derivative jump
    n . grad(left) - n . grad(right) on the uncoupled functions, n the
    unit normal (npts, 2) of the left edge, from both sides' gradients."""
    (idxL, GL), (idxR, GR) = grads
    normal = normal[:, :, None]
    vals = np.hstack([(GL @ normal)[..., 0], -(GR @ normal)[..., 0]])
    return _point_rows(np.hstack([idxL, idxR]), vals, N)


def assemble_jump_rows(uspace, m0res, nquad=None):
    """Jump rows C of the C0 space (sparse, npts x N4), one walk over the
    interfaces, and the row offsets of each interface's rows.

    Row k is sqrt(w_k) times the normal-derivative jump at interface
    quadrature point k, on the columns of M0, so that ||C v||^2 is the jump
    energy of the C0 field M0 v and MJ = C^T C.  Gauss points are strictly
    inside knot spans (never at xi=0); default p+2 points per span so a
    vanishing quadrature jump certifies a vanishing jump function on radial
    interfaces.  The traces of each patch are evaluated in one call.
    """
    domain = uspace.domain
    nq = nquad or (domain.p + 2)
    quad = [itf.sides[0].rule(domain, nq) for itf in domain.interfaces]
    sides = [_interface_sides(itf, ts) for itf, (ts, _, _) in zip(domain.interfaces, quad)]
    grads = _side_gradients(uspace, [side for pair in sides for side in pair])
    jumps = [sp.csr_matrix((0, uspace.N))] + [
        _jump_operator(uspace.N, unit_normal(geo, itf.sides[0].ndir), grads[2 * k : 2 * k + 2])
        for k, (itf, (_, _, geo)) in enumerate(zip(domain.interfaces, quad))
    ]
    sqrt_w = np.sqrt(np.concatenate([np.empty(0)] + [ws for _, ws, _ in quad]))
    rows = sp.diags(sqrt_w) @ sp.vstack(jumps, format="csr")
    C = (rows @ m0res.matrix.tocsr()).tocsr()
    C.eliminate_zeros()
    return C, np.cumsum([0] + [len(ws) for _, ws, _ in quad])


def _gram(C):
    MJ = (C.T @ C).tocsc()
    MJ.eliminate_zeros()
    return MJ


def assemble_jump_matrix(uspace, m0res, nquad=None):
    """Symmetric PSD Gram matrix MJ = C^T C of normal-derivative jumps
    (sparse, N4^2), C the jump rows of :func:`assemble_jump_rows`."""
    return _gram(assemble_jump_rows(uspace, m0res, nquad)[0])


def nullspace(MJ, tol=1e-10):
    """Orthonormal basis of {v : MJ v = 0} via a spectral cutoff (the dense
    reference for :func:`c1_basis`).

    Rows/columns that are identically zero pass through as identity
    columns; the remaining active block is decomposed densely and
    eigenvectors with eigenvalue <= tol * max eigenvalue are kept,
    ordered by ascending eigenvalue.
    """
    MJ = sp.csc_matrix(MJ)
    N4 = MJ.shape[0]
    rownorm = np.asarray(np.abs(MJ).sum(axis=1)).ravel()
    active = np.flatnonzero(rownorm > 0.0)
    inactive = np.flatnonzero(rownorm == 0.0)
    cols = []
    if len(inactive):
        eye = sp.coo_matrix(
            (np.ones(len(inactive)), (inactive, np.arange(len(inactive)))),
            shape=(N4, len(inactive)),
        )
        cols.append(eye.tocsc())
    svals = np.zeros(0)
    if len(active):
        block = MJ[np.ix_(active, active)].toarray()
        block = 0.5 * (block + block.T)
        lam, vec = np.linalg.eigh(block)
        lmax = lam[-1] if len(lam) else 0.0
        keep = lam <= tol * max(lmax, 0.0)
        svals = lam
        if np.any(keep):
            emb = sp.lil_matrix((N4, int(keep.sum())))
            emb[active, :] = vec[:, keep]
            cols.append(emb.tocsc())
    if not cols:
        raise CouplingError("jump matrix has empty null space", tag="no-c1-space")
    M1 = sp.hstack(cols).tocsc()
    if M1.shape[1] == 0:
        raise CouplingError("jump matrix has empty null space", tag="no-c1-space")
    return M1, svals


def _unit_columns(Z):
    """Z scaled to unit columns, with entries |z| <= eps set to zero."""
    Z = Z / np.linalg.norm(Z, axis=0)
    Z[np.abs(Z) <= np.finfo(float).eps] = 0.0
    return Z


def c1_basis(C, bounds=None, tol=1e-10):
    """Sparse basis M1 of {v : C v = 0}, one row group of C at a time.

    ``bounds`` are the row offsets of the groups (one group per interface);
    ``None`` takes all of C as one group.  N starts as the identity.  For
    each group C_k, the columns J of N that meet the columns of C_k are
    factored densely, C_k N[:, J] P = Q R; pivots |R_kk| <= sqrt(tol) r00,
    r00 the largest column norm of C, count as zero, so ``tol`` is the
    relative eigenvalue cutoff of MJ = C^T C.  The local basis
    Z = P [-R11^{-1} R12; I] has one free variable per column, unit columns
    and no entries |z| <= eps (Householder fill); N[:, J] Z replaces N[:, J],
    rescaled and pruned the same way where it combines earlier columns.
    N is kept as a list of entries and N[:, J] is formed on its rows only.
    The identity columns that no group touches stay first.  Raises
    ``no-c1-space`` when in some group the smallest kept pivot is not
    ``_RANK_GAP`` times the largest dropped one.  Returns (M1, r00, the
    smallest ratio of kept to dropped pivots).
    """
    C = sp.csr_matrix(C)
    N4 = C.shape[1]
    bounds = [0, C.shape[0]] if bounds is None else bounds
    r00 = float(np.max(spla.norm(C, axis=0), initial=0.0))
    crow = np.repeat(np.arange(C.shape[0]), np.diff(C.indptr))
    # entries (row, column, value) of N, and which columns are still e_i
    Ni, Nc, Nd, plain = np.arange(N4), np.arange(N4), np.ones(N4), np.ones(N4, dtype=bool)
    gap = np.inf
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        ek = slice(C.indptr[lo], C.indptr[hi])
        ci, cd, cr = C.indices[ek], C.data[ek], crow[ek] - lo
        meets = np.zeros(N4, dtype=bool)
        meets[ci] = True
        J = np.unique(Nc[meets[Ni]])
        if not len(J):
            continue
        kept = np.ones(len(plain), dtype=bool)
        kept[J] = False
        inJ = ~kept[Nc]
        L = np.unique(Ni[inJ])
        pos = np.full(N4, -1)
        pos[L] = np.arange(len(L))
        on = pos[ci] >= 0
        D = np.zeros((hi - lo, len(L)))
        D[cr[on], pos[ci[on]]] = cd[on]
        # sparse, so that its products run outside BLAS and keep their bits
        # under any thread count
        NJ = sp.csr_matrix((Nd[inJ], (pos[Ni[inJ]], np.searchsorted(J, Nc[inJ]))),
                           shape=(len(L), len(J)))
        _, R, perm = qr(D @ NJ, mode="raw", pivoting=True, check_finite=False)
        pivots = np.abs(np.diagonal(R))
        rank = int(np.count_nonzero(pivots > np.sqrt(tol) * r00))
        if 0 < rank < len(pivots):
            if pivots[rank - 1] < _RANK_GAP * pivots[rank]:
                raise CouplingError(
                    "no clear rank gap in the jump rows: kept pivot %.2e, dropped "
                    "pivot %.2e" % (pivots[rank - 1], pivots[rank]),
                    tag="no-c1-space",
                )
            gap = min(gap, pivots[rank - 1] / max(pivots[rank], np.finfo(float).tiny))
        Z = np.vstack([-solve_triangular(R[:rank, :rank], R[:rank, rank:]), np.eye(len(J) - rank)])
        Z = NJ @ _unit_columns(Z)[np.argsort(perm)]
        if not plain[J].all():  # Z combines earlier columns
            Z = _unit_columns(Z)
        r, c = np.nonzero(Z)
        Ni = np.concatenate([Ni[~inJ], L[r]])
        Nc = np.concatenate([np.cumsum(kept)[Nc[~inJ]] - 1, kept.sum() + c])
        Nd = np.concatenate([Nd[~inJ], Z[r, c]])
        plain = np.concatenate([plain[kept], np.zeros(Z.shape[1], dtype=bool)])
    if not len(plain):
        raise CouplingError("jump matrix has empty null space", tag="no-c1-space")
    return sp.csc_matrix((Nd, (Ni, Nc)), shape=(N4, len(plain))), r00, gap


def gram_rank(MJ, tol):
    """Brute-force rank of a PSD Gram matrix by diagonally pivoted
    elimination (independent of the spectral path)."""
    A = np.array(sp.csc_matrix(MJ).toarray(), dtype=float)
    n = A.shape[0]
    scale = np.max(np.diagonal(A)) if n else 0.0
    if scale <= 0.0:
        return 0
    rank = 0
    for _ in range(n):
        d = np.diagonal(A).copy()
        k = int(np.argmax(d))
        if d[k] <= tol * scale:
            break
        col = A[:, k] / d[k]
        A -= np.outer(col, A[k, :])
        A[k, :] = 0.0
        A[:, k] = 0.0
        rank += 1
    return rank


# ----------------------------------------------------------------------
# coupled space


class CoupledSpace:
    """A C1-coupled multipatch space with its transformation chain.

    ``C`` holds the jump rows, ``M1`` the basis of their null space,
    ``r00`` the largest column norm of C and ``rank_gap`` the smallest
    ratio of kept to dropped QR pivots of :func:`c1_basis`.
    """

    def __init__(self, domain, uspace, m0res, C, M1, r00, rank_gap, tol_null):
        self.domain = domain
        self.uspace = uspace
        self.m0res = m0res
        self.M0 = m0res.matrix
        self.C = C
        self.M1 = M1
        self.r00 = r00
        self.rank_gap = rank_gap
        self.tol_null = tol_null
        self.M = (self.M0 @ self.M1).tocsc()

    @functools.cached_property
    def MJ(self):
        """Jump Gram matrix C^T C, formed on first use (the basis needs only C)."""
        return _gram(self.C)

    @property
    def N(self):
        return self.M0.shape[0]

    @property
    def N4(self):
        return self.M0.shape[1]

    @property
    def N6(self):
        return self.M1.shape[1]

    def expand(self, z):
        """Coupled coefficients -> uncoupled coefficient vector."""
        return np.asarray(self.M @ z).ravel()


def build_coupled_space(domain, tol_null=1e-10, uspace=None):
    """Full chain: M0, jump rows C, M1 with jump-seminorm verification.

    The check bounds ||C z|| of every unit column z of M1 by 1e-8 r00;
    r00^2 is the largest squared column norm of C, no larger than the
    largest eigenvalue of MJ.
    """
    if uspace is None:
        uspace = UncoupledSpace.from_domain(domain)
    m0res = build_m0(uspace)
    C, bounds = assemble_jump_rows(uspace, m0res)
    M1, r00, gap = c1_basis(C, bounds, tol=tol_null)
    semi = np.max(spla.norm(C @ M1, axis=0))
    if semi > 1e-8 * r00:
        raise CouplingError(
            "null-space columns have nonzero jump seminorm (max %.2e)" % semi,
            tag="no-c1-space",
        )
    return CoupledSpace(domain, uspace, m0res, C, M1, r00, gap, tol_null)


def reproduction_vector(cspace, which):
    """Coupled coefficients reproducing the polynomial 1, x or y exactly.

    Uses the isoparametric identity (control net coordinates as
    coefficients); raises if an essential boundary condition removed a
    required function.
    """
    sel = {"1": None, "x": 0, "y": 1}[which]
    uspace = cspace.uspace
    domain = cspace.domain
    ctil = np.empty(cspace.N)
    for m in range(len(domain.patches)):
        patch = domain.patches[m]
        for b, blk in enumerate(uspace.blocks[m]):
            lo = uspace.flat(m, b, 0, 0)
            sz = blk.size
            if sel is None:
                ctil[lo : lo + sz] = 1.0
            else:
                ctil[lo : lo + sz] = blk.net(patch)[:, :, sel].reshape(sz)

    m0res = cspace.m0res
    v4 = np.zeros(cspace.N4)
    comp = {"1": 0, "x": 1, "y": 2}[which]
    for gi, triple in m0res.center_cols.items():
        v4[triple[comp]] = 1.0
    resid = ctil - np.asarray(m0res.matrix @ v4).ravel()
    for a in np.flatnonzero(np.abs(resid) > 1e-12):
        k = m0res.unc2col[a]
        if k < 0:
            raise CouplingError(
                "%r is not representable (boundary conditions removed "
                "required functions)" % which,
                tag="not-applicable",
            )
        v4[k] = resid[a]
    M1 = cspace.M1
    z = spla.spsolve((M1.T @ M1).tocsc(), M1.T @ v4)
    err = np.linalg.norm(M1 @ z - v4)
    if err > 1e-8 * max(np.linalg.norm(v4), 1.0):
        raise CouplingError(
            "reproduction vector of %r is not in the C1 null space "
            "(residual %.2e)" % (which, err),
            tag="no-c1-space",
        )
    return z


def c1_jump_report(cspace, nsamples=50, rng=None):
    """Pointwise two-sided C1 check of every coupled basis function.

    For every interface, samples the normal-derivative jump of all N6
    basis functions and reports max |jump| / gradient scale.  The scale of
    a function is its largest gradient magnitude seen at the interface or
    at interior samples of the two adjacent patches (a function whose
    support merely grazes the interface has a tiny trace there but is not
    C1-defective).
    """
    rng = rng or np.random.default_rng(2024)
    uspace = cspace.uspace
    Mcsr = cspace.M.tocsr()

    def coupled(idx, vals):
        return (_point_rows(idx, vals, uspace.N) @ Mcsr).toarray()

    report = []
    for itf in cspace.domain.interfaces:
        ts = rng.uniform(0.02, 0.98, nsamples)
        interior = [(m, rng.uniform(0.05, 0.95, (25, 2))) for m in (itf.left, itf.right)]
        pair = _interface_sides(itf, ts)
        sides = _side_gradients(uspace, pair)
        m, z, x = pair[0]
        normal = uspace.domain.patches[m].edge_normal(z, x, itf.sides[0].ndir)
        jump = _jump_operator(uspace.N, normal, sides)
        for m, zx in interior:
            idx, _, G, _ = uspace.physical_eval(m, zx[:, 0], zx[:, 1], nders=1)
            sides.append((idx, G))
        scale = np.zeros(cspace.N6)
        for idx, G in sides:
            mag = np.hypot(coupled(idx, G[..., 0]), coupled(idx, G[..., 1]))
            scale = np.maximum(scale, mag.max(axis=0))
        jump_max = np.abs((jump @ Mcsr).toarray()).max(axis=0)
        # functions with (near-)zero gradients around this interface carry
        # roundoff-level jumps; measure those against the global scale
        floor = max(np.max(scale), 1.0) * 1e-4
        rel = jump_max / np.maximum(scale, floor)
        report.append((itf, float(np.max(rel))))
    return report
