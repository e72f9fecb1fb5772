"""Earlier implementations kept as bitwise references for the array code.

* :func:`ders_basis_ratio` is the triangular B-spline algorithm with every
  division guarded by 0/0 := 0;
* :func:`refine_to_segments_per_knot` inserts one knot at a time,
  validating a new knot vector after each;
* :func:`build_m0_union_find` merges C0 traces with a union-find and walks
  the uncoupled DOFs one by one;
* :func:`c1_basis_global_qr` factors all active columns of the jump rows in
  one column-pivoted QR (the one-group case of ``c1_basis``);
* :func:`locate_point_bisection` inverts the SB map by an 80-step bisection
  (``locate_point`` must find the same patch and (zeta, xi) to 1e-12);
* :func:`with_segments_detected` refines a domain by detecting its topology
  again on the refined patches and copying the tags over
  (``MultiPatchDomain.with_segments`` must give the same groups, interfaces
  and boundary edges);
* :func:`interfaces_pairwise` finds the interfaces of a domain by comparing
  end points pair by pair (``make_domain`` must list the same ones in the
  same order).

The production versions in ``src/`` must reproduce them bit for bit; the
tests compare raw bytes, not values within a tolerance.

The second part holds kernels that only the tests call, each the
independent side of some check: the scalar Cox-de Boor recursion
(:func:`eval_basis`, :func:`eval_deriv`) with 0/0 := 0 and the left-limit
convention at t = 1, the knot-vector queries :func:`span_index` and
:func:`regularity`, the rank of a Gram matrix by pivoted elimination
(:func:`gram_rank`), the geometry of one radial span row of the patch
tables (:func:`row_geometry`, :func:`row_physical`), the stiffness with
element GEMMs on every radial span row (:func:`gemm_uncoupled_stiffness`,
the first-span arithmetic of ``plate._uncoupled_stiffness``), the quadrature area
of a domain, a least-squares convergence order, a reader of the VTK
files that ``sbiga.vtkio`` writes and one more trimmed geometry
(:func:`square_with_circle_hole`).
"""

import numpy as np
import scipy.sparse as sp
from scipy.linalg import qr, solve_triangular

from sbiga.coupling import _RANK_GAP
from sbiga.errors import CouplingError, GeometryError, SplineError
from sbiga.geometry import ESSENTIAL_LAYERS, NurbsCurve, circle_arc, line_curve, make_domain, sb_geometry
from sbiga.space import _pullback
from sbiga.splines import INDEX, KnotVector
from sbiga.trim import star_blocks


def _ratio(num, den):
    """num / den with 0/0 := 0 (elementwise)."""
    return np.divide(num, den, out=np.zeros_like(num), where=den != 0.0)


def ders_basis_ratio(kv, t, nders):
    """Reference ders_basis: same return values as the production kernel."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    p = kv.p
    U = kv.values
    span = np.clip(np.searchsorted(U, t, side="right") - 1, p, kv.n - 1)
    ndu = np.zeros((p + 1, p + 1) + t.shape)
    ndu[0, 0] = 1.0
    left = np.zeros((p + 1,) + t.shape)
    right = np.zeros((p + 1,) + t.shape)
    for j in range(1, p + 1):
        left[j] = t - U[span + 1 - j]
        right[j] = U[span + j] - t
        saved = 0.0
        for rr in range(j):
            ndu[j, rr] = right[rr + 1] + left[j - rr]
            temp = _ratio(ndu[rr, j - 1], ndu[j, rr])
            ndu[rr, j] = saved + right[rr + 1] * temp
            saved = left[j - rr] * temp
        ndu[j, j] = saved
    ders = np.zeros((nders + 1, p + 1) + t.shape)
    ders[0] = ndu[:, p]
    a = np.zeros((2, p + 1) + t.shape)
    for rr in range(p + 1):
        s1, s2 = 0, 1
        a[0, 0] = 1.0
        for k in range(1, nders + 1):
            d = 0.0
            rk = rr - k
            pk = p - k
            if rr >= k:
                a[s2, 0] = _ratio(a[s1, 0], ndu[pk + 1, rk])
                d = a[s2, 0] * ndu[rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if rr - 1 <= pk else p - rr
            for j in range(j1, j2 + 1):
                a[s2, j] = _ratio(a[s1, j] - a[s1, j - 1], ndu[pk + 1, rk + j])
                d = d + a[s2, j] * ndu[rk + j, pk]
            if rr <= pk:
                a[s2, k] = _ratio(-a[s1, k - 1], ndu[pk + 1, rr])
                d = d + a[s2, k] * ndu[rr, pk]
            ders[k, rr] = d
            s1, s2 = s2, s1
    rfac = 1.0
    for k in range(1, nders + 1):
        rfac *= p - k + 1
        ders[k] *= rfac
    return (span - p).astype(INDEX), np.ascontiguousarray(np.moveaxis(ders, -1, 0))


def _insert_knot_per_knot(kv, ctrl, t, times):
    p = kv.p
    for _ in range(times):
        U = kv.values
        k = span_index(kv, t)
        new_ctrl = np.empty((ctrl.shape[0] + 1, ctrl.shape[1]))
        new_ctrl[: k - p + 1] = ctrl[: k - p + 1]
        new_ctrl[k + 1 :] = ctrl[k:]
        for i in range(k - p + 1, k + 1):
            den = U[i + p] - U[i]
            a = (t - U[i]) / den if den > 0.0 else 0.0
            new_ctrl[i] = a * ctrl[i] + (1.0 - a) * ctrl[i - 1]
        kv = KnotVector(np.insert(U, k + 1, t), p)
        ctrl = new_ctrl
    return kv, ctrl


def refine_to_segments_per_knot(curve, segments, r):
    """Reference refine_to_segments: one insert_knot call per breakpoint."""
    cur = curve
    target = curve.p - r
    for k in range(1, segments):
        t = k / segments
        missing = target - cur.kv.multiplicity(t)
        if missing < 0:
            raise GeometryError(
                "existing multiplicity at %g exceeds p-r" % t, tag="invalid-regularity"
            )
        if missing > 0:
            kv, hom = _insert_knot_per_knot(cur.kv, cur.homogeneous(), t, missing)
            cur = NurbsCurve(kv, hom[:, :2] / hom[:, 2:3], hom[:, 2])
    return cur


class _UnionFind:
    def __init__(self, n):
        self.parent = np.arange(n)

    def find(self, a):
        p = self.parent
        root = a
        while p[root] != root:
            root = p[root]
        while p[a] != root:
            p[a], a = root, p[a]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _center_function_dicts(uspace, group_index):
    domain = uspace.domain
    group = domain.groups[group_index]
    p = domain.p
    cols = [{}, {}, {}]
    for m in group.patches:
        patch = domain.patches[m]
        for b, blk in enumerate(uspace.blocks[m]):
            if blk.j_lo > p:
                continue
            net = blk.net(patch)
            j_hi_loc = min(p, blk.j_hi) - blk.j_lo
            for i in range(blk.n1):
                for jl in range(j_hi_loc + 1):
                    a = uspace.flat(m, b, i, jl)
                    cols[0][a] = 1.0
                    cols[1][a] = net[i, jl, 0]
                    cols[2][a] = net[i, jl, 1]
    return cols


def _blocks_with_layer(uspace, m, j_global):
    out = []
    for b, blk in enumerate(uspace.blocks[m]):
        if blk.j_lo <= j_global <= blk.j_hi:
            out.append((b, j_global - blk.j_lo))
    return out


def build_m0_union_find(uspace, domain=None):
    """Reference M0: returns (matrix, unc2col, center_cols, removed set)."""
    domain = domain or uspace.domain
    N = uspace.N
    p = domain.p
    n2 = {gi: g.radial.n for gi, g in enumerate(domain.groups)}

    removed = set()
    for gi, g in enumerate(domain.groups):
        if g.c2 != 0.0:
            continue
        for m in g.patches:
            for b, blk in enumerate(uspace.blocks[m]):
                for j_global in (0, 1):
                    if blk.j_lo <= j_global <= blk.j_hi:
                        jl = j_global - blk.j_lo
                        for i in range(blk.n1):
                            removed.add(uspace.flat(m, b, i, jl))

    uf = _UnionFind(N)
    for itf in domain.interfaces:
        if itf.kind == "radial":
            mL, mR = itf.left, itf.right
            bl, br = uspace.blocks[mL], uspace.blocks[mR]
            for b, (bL, bR) in enumerate(zip(bl, br)):
                for jl in range(bL.nj):
                    uf.union(
                        uspace.flat(mL, b, bL.n1 - 1, jl), uspace.flat(mR, b, 0, jl)
                    )
        else:
            mA, mB = itf.left, itf.right
            jA = n2[domain.group_of(mA)] - 1
            jB = n2[domain.group_of(mB)] - 1
            (bA, jlA), = _blocks_with_layer(uspace, mA, jA)
            (bB, jlB), = _blocks_with_layer(uspace, mB, jB)
            n1A = uspace.blocks[mA][bA].n1
            n1B = uspace.blocks[mB][bB].n1
            for i in range(n1A):
                uf.union(
                    uspace.flat(mA, bA, i, jlA),
                    uspace.flat(mB, bB, n1B - 1 - i, jlB),
                )

    for be in domain.boundary:
        if be.edge != "outer":
            continue
        nlay = ESSENTIAL_LAYERS[be.tag]
        if nlay == 0:
            continue
        m = be.patch
        gi = domain.group_of(m)
        for j_global in range(n2[gi] - nlay, n2[gi]):
            for b, jl in _blocks_with_layer(uspace, m, j_global):
                for i in range(uspace.blocks[m][b].n1):
                    removed.add(uspace.flat(m, b, i, jl))

    classes = {}
    for a in range(N):
        classes.setdefault(uf.find(a), []).append(a)
    removed_classes = {
        root for root, members in classes.items() if any(a in removed for a in members)
    }

    rows, cols, vals = [], [], []
    unc2col = np.full(N, -1, dtype=INDEX)
    k = 0
    for root in sorted(classes):
        if root in removed_classes:
            continue
        for a in classes[root]:
            rows.append(a)
            cols.append(k)
            vals.append(1.0)
            unc2col[a] = k
        k += 1

    center_cols = {}
    for gi, g in enumerate(domain.groups):
        if g.c2 != 0.0:
            continue
        triple = []
        for coeffs in _center_function_dicts(uspace, gi):
            for a, v in coeffs.items():
                rows.append(a)
                cols.append(k)
                vals.append(v)
            triple.append(k)
            k += 1
        center_cols[gi] = tuple(triple)

    M0 = sp.csc_matrix((vals, (rows, cols)), shape=(N, k))
    return M0, unc2col, center_cols, removed


def assert_same_bytes(*pairs):
    """Each pair of arrays has the same dtype, shape and bytes."""
    for a, b in pairs:
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_m0(res, uspace, domain=None):
    """An M0Result equals the union-find reference byte for byte."""
    M0, unc2col, center_cols, removed = build_m0_union_find(uspace, domain)
    A = res.matrix
    assert_same_bytes((A.data, M0.data), (A.indices, M0.indices), (A.indptr, M0.indptr),
                      (res.unc2col, unc2col))
    assert res.center_cols == center_cols
    assert set(np.flatnonzero(res.removed)) == removed


def c1_basis_global_qr(C, tol=1e-10):
    """Reference null-space basis of the jump rows: one column-pivoted QR of
    all active columns, P [-R11^{-1} R12; I] with unit columns and entries
    |z| <= eps set to zero, identity columns of the inactive DOFs first.
    Returns (M1, |diag R|)."""
    C = sp.csc_matrix(C)
    N4 = C.shape[1]
    counts = np.diff(C.indptr)
    active, inactive = np.flatnonzero(counts), np.flatnonzero(counts == 0)
    n, rank, pivots = len(active), 0, np.zeros(0)
    rows, cols, vals = [inactive], [np.arange(len(inactive))], [np.ones(len(inactive))]
    if n:
        _, R, perm = qr(C[:, active].toarray(), mode="raw", pivoting=True,
                        overwrite_a=True, check_finite=False)
        pivots = np.abs(np.diagonal(R))
        rank = int(np.count_nonzero(pivots > np.sqrt(tol) * pivots[0]))
        if 0 < rank < len(pivots) and pivots[rank - 1] < _RANK_GAP * pivots[rank]:
            raise CouplingError("no clear rank gap in the jump rows", tag="no-c1-space")
        Z = np.vstack([-solve_triangular(R[:rank, :rank], R[:rank, rank:n]),
                       np.eye(n - rank)])
        Z /= np.linalg.norm(Z, axis=0)
        Z[np.abs(Z) <= np.finfo(float).eps] = 0.0
        r, c = np.nonzero(Z)
        rows.append(active[perm[r]])
        cols.append(len(inactive) + c)
        vals.append(Z[r, c])
    M1 = sp.csc_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                       shape=(N4, N4 - rank))
    return M1, pivots


def locate_point_bisection(domain, xy, tol=1e-9):
    """Reference SB-map inversion: for each patch whose boundary curve
    brackets the ray to xy, an 80-step bisection of the cross product."""
    xy = np.asarray(xy, dtype=float)
    for g in domain.groups:
        if g.c2 == 0.0 and np.hypot(*(xy - g.x0)) <= tol:
            return g.patches[0], 0.5, 0.0
    for k, pa in enumerate(domain.patches):
        v = xy - pa.x0
        rv = np.hypot(*v)
        if rv == 0.0:
            continue

        def miss(z):
            g = pa.curve.eval_one(z) - pa.x0
            return g[0] * v[1] - g[1] * v[0]

        f0, f1 = miss(0.0), miss(1.0)
        if f0 == 0.0:
            z = 0.0
        elif f1 == 0.0:
            z = 1.0
        elif f0 * f1 > 0.0:
            continue
        else:
            lo, hi, flo = 0.0, 1.0, f0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                fm = miss(mid)
                if flo * fm <= 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            z = 0.5 * (lo + hi)
        gpt = pa.curve.eval_one(z) - pa.x0
        if gpt @ v <= 0.0:
            continue
        xi = (rv / np.hypot(*gpt) - pa.c2) / pa.c1
        if -tol <= xi <= 1.0 + tol:
            xi = min(max(xi, 0.0), 1.0)
            if np.max(np.abs(pa.map(z, xi) - xy)) <= max(tol, 1e-9):
                return k, z, xi
    raise GeometryError("point %s lies outside the domain" % xy, tag="load-error")


def with_segments_detected(domain, segments_zeta, segments_xi, r):
    """Reference refinement: ``make_domain`` on the refined patches, then the
    tags of the base domain copied over edge by edge."""
    patches = [pa.with_segments(segments_zeta, segments_xi, r) for pa in domain.patches]
    dom = make_domain(patches)
    for be in dom.boundary:
        src = domain.boundary_for(be.patch, be.edge)
        if src is not None:
            be.tag = src.tag
    return dom


def interfaces_pairwise(domain):
    """Reference interface search of ``make_domain``: end points compared
    pair by pair, (kind, left, right) in the order found.  Radial pairs
    inside each group, then outer pairs across groups whose mirrored xi = 1
    edges coincide."""
    patches, groups = domain.patches, domain.groups

    def same(a, b):
        return np.max(np.abs(np.asarray(a) - np.asarray(b))) <= 1e-12

    found = []
    for g in groups:
        for a in g.patches:
            for b in g.patches:
                if a != b and same(patches[a].curve.points[-1], patches[b].curve.points[0]):
                    found.append(("radial", a, b))
    edges = [pa.outer_edge_curve() for pa in patches]
    ts = np.linspace(0.07, 0.93, 7)
    for gi, ga in enumerate(groups):
        for gb in groups[gi + 1 :]:
            for a in ga.patches:
                for b in gb.patches:
                    ca, cb = edges[a], edges[b]
                    if (same(ca.start(), cb.end()) and same(ca.end(), cb.start())
                            and np.max(np.abs(ca.eval(ts) - cb.eval(1.0 - ts))) <= 1e-9):
                        found.append(("outer", a, b))
    return found


def assert_same_topology(dom, ref):
    """Same groups, interfaces (in order) and tagged boundary edges."""
    assert [(i.kind, i.left, i.right, i.flip) for i in dom.interfaces] == [
        (i.kind, i.left, i.right, i.flip) for i in ref.interfaces
    ]
    assert len(dom.groups) == len(ref.groups)
    for g, h in zip(dom.groups, ref.groups):
        assert_same_bytes((g.x0, h.x0), (g.radial.values, h.radial.values))
        assert (g.c1, g.c2, g.radial.p, g.patches) == (h.c1, h.c2, h.radial.p, h.patches)
    assert [(b.patch, b.edge, b.tag) for b in dom.boundary] == [
        (b.patch, b.edge, b.tag) for b in ref.boundary
    ]


# ----------------------------------------------------------------------
# kernels that only the tests call


def span_index(kv, t):
    """Index k with values[k] <= t < values[k+1] (left limit at t=1)."""
    k = int(np.searchsorted(kv.values, t, side="right")) - 1
    return min(max(k, kv.p), kv.n - 1)


def regularity(kv):
    """Global smoothness p - max interior multiplicity (p-1 if none)."""
    _, counts = kv.interior_multiplicities()
    if len(counts) == 0:
        return kv.p - 1
    return kv.p - int(counts.max())


def _basis_value(values, p, i, t):
    """Cox-DeBoor recursion for a single B-spline value."""
    if p == 0:
        if values[i] <= t < values[i + 1]:
            return 1.0
        # left-limit convention at the right end
        if t == values[-1] and values[i] < t <= values[i + 1]:
            return 1.0
        return 0.0
    left = 0.0
    den = values[i + p] - values[i]
    if den > 0.0:
        left = (t - values[i]) / den * _basis_value(values, p - 1, i, t)
    right = 0.0
    den = values[i + p + 1] - values[i + 1]
    if den > 0.0:
        right = (values[i + p + 1] - t) / den * _basis_value(values, p - 1, i + 1, t)
    return left + right


def eval_basis(kv, i, t):
    """Value of the i-th (0-based) B-spline of ``kv`` at t."""
    if not 0 <= i < kv.n:
        raise SplineError("basis index %d out of range" % i, tag="invalid-index")
    return _basis_value(kv.values, kv.p, i, float(t))


def _deriv_value(values, p, i, t, order):
    if order == 0:
        return _basis_value(values, p, i, t)
    n = len(values) - p - 1
    out = 0.0
    den = values[i + p] - values[i]
    if den > 0.0:
        out += p / den * _deriv_value(values, p - 1, i, t, order - 1)
    den = values[i + p + 1] - values[i + 1]
    # B_{n+1,p-1} := 0 boundary convention
    if den > 0.0 and i + 1 <= n:
        out -= p / den * _deriv_value(values, p - 1, i + 1, t, order - 1)
    return out


def eval_deriv(kv, i, t, order):
    """order-th derivative (order in {1, 2}) of the i-th B-spline at t."""
    if not 0 <= i < kv.n:
        raise SplineError("basis index %d out of range" % i, tag="invalid-index")
    if order > kv.p:
        raise SplineError("derivative order %d > degree" % order, tag="unsupported-order")
    return _deriv_value(kv.values, kv.p, i, float(t), order)


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


def row_geometry(tab, s2):
    """The ``sb_geometry`` dict and the weights w of radial span row s2 of
    the patch tables ``tab``, evaluated on that row's (S1, nq1, nq2) points
    alone: arrays (S1, Q)."""
    patch = tab.patch
    g = [d.reshape(tab.S1, tab.nq1, 1, 2) for d in tab.geom]
    # c1 as a radial array makes every entry a full (S1, nq1, nq2) array
    geo = sb_geometry(*g, patch.q(tab.Xnodes[s2]), np.full(tab.nq2, patch.c1), patch.x0)
    geo["w"] = tab.Zw[:, :, None] * tab.Xw[s2][None, None, :]
    return {k: v.reshape(tab.S1, -1) for k, v in geo.items()}


def row_physical(tab, s2):
    """Physical Hessians (IDX, H11, H22, H12, geo) of the basis on row s2,
    arrays (S1, K, Q), with the geometry of :func:`row_geometry`."""
    IDX, A = tab.row_basis(s2, ("D10", "D01", "D20", "D11", "D02"))
    geo = row_geometry(tab, s2)
    _, _, (H11, H22, H12) = _pullback(A, {k: v[:, None, :] for k, v in geo.items()})
    return IDX, H11, H22, H12, geo


def gemm_uncoupled_stiffness(cspace, material, quad=None):
    """All-GEMM Atilde: the element matrices of every radial span row are
    three batched GEMMs over the quadrature axis, with wD = D w |det J| per
    point, as ``plate._uncoupled_stiffness`` forms them on the first span."""
    D, nu = material.D, material.nu
    nq1 = nq2 = quad or cspace.domain.p + 1
    rows, cols, vals = [], [], []
    for m in range(len(cspace.domain.patches)):
        tab = cspace.uspace.quad_tables(m, nq1, nq2)
        patch_geo = tab.patch_geometry()
        for s2 in range(tab.S2):
            IDX, H11, H22, H12, geo = tab.row_physical(s2, patch_geo)
            wD = (D * geo["w"] * np.abs(geo["det"]))[:, None, :]
            loc = ((H11 + nu * H22) * wD) @ H11.transpose(0, 2, 1)
            loc += ((H22 + nu * H11) * wD) @ H22.transpose(0, 2, 1)
            loc += (2.0 * (1.0 - nu) * H12 * wD) @ H12.transpose(0, 2, 1)
            K = IDX.shape[1]
            rows.append(np.repeat(IDX, K, axis=1).ravel())
            cols.append(np.tile(IDX, (1, K)).ravel())
            vals.append(loc.ravel())
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(cspace.N, cspace.N),
    ).tocsc()


def domain_area(cspace, quad=None):
    """Quadrature area of the domain (the Gauss rule of the assembly)."""
    nq = quad or cspace.domain.p + 1
    total = 0.0
    for m in range(len(cspace.domain.patches)):
        geo = cspace.uspace.quad_tables(m, nq, nq).patch_geometry()
        total += np.sum(geo["w"] * np.abs(geo["det"]))
    return total


def fitted_order(hs, errs):
    """Least-squares slope of log err vs log h."""
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


def read_structured_grid(path):
    """Parse a file written by ``sbiga.vtkio.export_field``."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh]
    i = lines.index("DATASET STRUCTURED_GRID")
    dims = tuple(int(v) for v in lines[i + 1].split()[1:])
    npts = int(lines[i + 2].split()[1])
    pts = np.array([[float(v) for v in lines[i + 3 + k].split()] for k in range(npts)])
    out = {"dimensions": dims, "points": pts, "point_data": {}}
    j = i + 3 + npts
    assert lines[j].startswith("POINT_DATA")
    j += 1
    while j < len(lines) and lines[j].startswith("SCALARS"):
        name = lines[j].split()[1]
        vals = np.array([float(lines[j + 2 + k]) for k in range(npts)])
        out["point_data"][name] = vals
        j += 2 + npts
    return out


def square_with_circle_hole(degree=3, r=0.15, dist=0.32):
    """Unit square minus a circular hole about its middle: four quarter-ring
    star blocks, with diagonal cut lines to the square corners."""
    H = np.array([0.5, 0.5])
    s = 1.0 / np.sqrt(2.0)
    corners = [(1.0, 1.0), (0.0, 1.0), (0.0, 0.0), (1.0, 0.0)]
    blocks = []
    for k in range(4):
        ang = 0.5 * np.pi * k
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        Ap = H + rot @ np.array([r * s, r * s])
        Am = H + rot @ np.array([r * s, -r * s])
        loop = [
            circle_arc(H, r, ang - 0.25 * np.pi, ang + 0.25 * np.pi, degree),   # Am -> Ap
            line_curve(Ap, corners[k], degree),
            line_curve(corners[k], corners[k - 1], degree),                     # a side of the square
            line_curve(corners[k - 1], Am, degree),
        ]
        blocks.append((H + rot @ np.array([dist, 0.0]), loop))
    return star_blocks(blocks)[0]
