"""Uncoupled per-patch tensor bases and their evaluation.

A patch carries one or more *blocks*: a block is a zeta basis (possibly a
coarser representation of the same boundary curve) tensorized with a
contiguous range of radial indices.  The standard space has one block per
patch covering all radial indices; the two-mesh stabilized space has a
coarse block (j <= p) and a fine block (j >= p+1), see :mod:`sbiga.stabilize`.

The array kernels :func:`~sbiga.splines.ders_basis` / ``nurbs_ders_basis``
evaluate each block's tensor factors B_i(zeta) and R_j(xi): at points in
:meth:`UncoupledSpace.parametric_eval` / ``physical_eval``, and at the Gauss
nodes of a patch in :meth:`UncoupledSpace.quad_tables`, built once per Gauss
order and kept on the space.  Each assembly takes its geometry from one
:func:`~sbiga.geometry.sb_geometry` call per patch.  The SB map separates,
so on every radial span the stiffness sums Kronecker products of 1D
matrices integrated span by span, with the zeta factors pulled back at
q = 1 (:meth:`_PatchTables.separable_tables`).  The span windows of the
factors also fix the stiffness pattern: the functions that share an
element with one function are a zeta range times a radial range, so the
stiffness is written into CSC by position (:mod:`sbiga.plate`).  The
load and the error norms contract one weight or coefficient vector with
the 1D factors over the whole grid, Bz^T W Rx and Bz C Rx^T (sum
factorization) one span window at a time, so that no BLAS thread split
reorders a sum, with one pullback per patch.  All share :func:`_pullback`,
which maps parametric derivatives to physical gradients and Hessians
through the closed-form J^{-1}; it is linear, so it maps fields as it maps
functions.
"""

import numpy as np

from .errors import GeometryError
from .geometry import jacobian_inverse, sb_geometry
from .splines import INDEX, ders_basis, nurbs_ders_basis, gauss_points

__all__ = ["PatchBlock", "UncoupledSpace"]

# (zeta order, xi order) of each parametric derivative
_DERIVS = {"V": (0, 0), "D10": (1, 0), "D01": (0, 1), "D20": (2, 0), "D11": (1, 1), "D02": (0, 2)}


class PatchBlock:
    """One tensor block of basis functions on a patch."""

    __slots__ = ("curve", "radial", "j_lo", "j_hi", "_net")

    def __init__(self, curve, radial, j_lo, j_hi):
        if not (0 <= j_lo <= j_hi < radial.n):
            raise GeometryError("invalid radial index range", tag="spec-error")
        self.curve = curve
        self.radial = radial
        self.j_lo = j_lo
        self.j_hi = j_hi
        self._net = None

    @property
    def n1(self):
        return self.curve.n

    @property
    def nj(self):
        return self.j_hi - self.j_lo + 1

    @property
    def size(self):
        return self.n1 * self.nj

    def net(self, patch):
        """Control net restricted to this block's radial range."""
        if self._net is None:
            full = patch.control_net(curve=self.curve, radial=self.radial)
            self._net = full[:, self.j_lo : self.j_hi + 1, :]
        return self._net

    def zeta_ders(self, z, nders):
        if self.curve.weights is not None and not np.all(self.curve.weights == 1.0):
            return nurbs_ders_basis(self.curve.kv, self.curve.weights, z, nders)
        return ders_basis(self.curve.kv, z, nders)

    def radial_window(self, x, nders):
        """Active radial indices of this block at the n parameters x and
        their ders: jloc (n, p+1) and D (n, nders+1, p+1), with jloc = -1
        and zero derivatives for functions outside the block's radial range.
        """
        first, D = ders_basis(self.radial, x, nders)
        jloc = np.add.outer(first - self.j_lo, np.arange(self.radial.p + 1, dtype=INDEX))
        inside = (jloc >= 0) & (jloc < self.nj)
        return np.where(inside, jloc, -1), np.where(inside[:, None, :], D, 0.0)


class UncoupledSpace:
    """Flat-indexed union of all patch blocks of a domain."""

    def __init__(self, domain, blocks):
        self.domain = domain
        self.blocks = blocks  # blocks[m] = list of PatchBlock
        self.offsets = []
        off = 0
        for per_patch in blocks:
            row = []
            for b in per_patch:
                row.append(off)
                off += b.size
            self.offsets.append(row)
        if off > np.iinfo(INDEX).max:
            raise GeometryError("%d basis functions exceed the sparse index range" % off, tag="config-error")
        self.N = off
        self._tables = {}

    @classmethod
    def from_domain(cls, domain):
        blocks = [
            [PatchBlock(pa.curve, pa.radial, 0, pa.radial.n - 1)] for pa in domain.patches
        ]
        return cls(domain, blocks)

    def flat(self, m, b, i, jloc):
        return self.offsets[m][b] + i * self.blocks[m][b].nj + jloc

    # ------------------------------------------------------------------
    # pointwise evaluation

    def parametric_eval(self, m, z, x, nders=2):
        """Active flat indices and parametric value/deriv arrays at (z, x).

        Returns (idx, V, D10, D01, D20, D11, D02); derivatives above
        ``nders`` are None.  For scalar (z, x) the arrays run over the
        active functions.  For arrays of n points they have shape (n, K)
        with the same K at every point; where a multi-block patch has fewer
        active functions in a block, the extra entries have idx = -1 and
        zero values.
        """
        scalar = np.ndim(z) == 0 and np.ndim(x) == 0
        z, x = np.broadcast_arrays(np.atleast_1d(z), np.atleast_1d(x))
        idx, parts = [], []
        for b, blk in enumerate(self.blocks[m]):
            f1, Dz = blk.zeta_ders(z, nders)
            jloc, Dx = blk.radial_window(x, nders)
            ii = np.add.outer(f1, np.arange(blk.curve.p + 1, dtype=INDEX))
            flat = self.offsets[m][b] + ii[:, :, None] * blk.nj + jloc[:, None, :]
            idx.append(np.where(jloc[:, None, :] >= 0, flat, -1).reshape(len(z), -1))
            parts.append(
                [
                    (Dz[:, dz, :, None] * Dx[:, dx, None, :]).reshape(len(z), -1)
                    for dz, dx in _DERIVS.values()
                    if dz + dx <= nders
                ]
            )
        out = [np.concatenate(idx, axis=1)]
        out += [np.concatenate(part, axis=1) for part in zip(*parts)]
        if scalar:
            keep = out[0][0] >= 0
            out = [a[0, keep] for a in out]
        return tuple(out + [None] * (7 - len(out)))

    def physical_eval(self, m, z, x, nders=2):
        """Active indices with physical gradients/Hessians at (z, x).

        Returns (idx, V, G, H) with G[..., :] = grad and H[..., :, :] = Hess
        per active function, over one point or arrays of points as in
        :meth:`parametric_eval`.
        """
        idx, *D = self.parametric_eval(m, z, x, nders)
        if nders == 0:
            return idx, D[0], None, None
        geo = self.domain.patches[m].geom_eval(z, x)
        if np.any(np.abs(geo["det"]) < 1e-14):
            raise GeometryError("Jacobian numerically singular", tag="singular-jacobian")
        # one geometry value per point, broadcast over its active functions
        geo = {k: v.reshape(D[0].shape[:-1] + (1,)) for k, v in geo.items()}
        GX, GY, H = _pullback(dict(zip(_DERIVS, D)), geo)
        if H is not None:
            H11, H22, H12 = H
            H = np.stack([np.stack([H11, H12], axis=-1), np.stack([H12, H22], axis=-1)], axis=-2)
        return idx, D[0], np.stack([GX, GY], axis=-1), H

    # ------------------------------------------------------------------
    # batched quadrature tables

    def zeta_spans(self, m):
        """Element span grid in zeta = spans of the finest block curve."""
        per = [blk.curve.kv.spans() for blk in self.blocks[m]]
        finest = max(per, key=len)
        fine_pts = {round(a, 14) for _, a, b in finest} | {1.0}
        for spans in per:
            for _, a, _ in spans:
                if round(a, 14) not in fine_pts:
                    raise GeometryError(
                        "block zeta meshes are not nested", tag="spec-error"
                    )
        return finest

    def quad_tables(self, m, nq1, nq2):
        """Per-patch Gauss tables for row-batched 2D assembly, built once per
        (m, nq1, nq2) and kept on the space."""
        key = (m, nq1, nq2)
        if key not in self._tables:
            self._tables[key] = self._build_tables(m, nq1, nq2)
        return self._tables[key]

    def _build_tables(self, m, nq1, nq2):
        patch = self.domain.patches[m]
        zs_spans = self.zeta_spans(m)
        xi_spans = patch.radial.spans()
        S1, S2 = len(zs_spans), len(xi_spans)

        Znodes = np.empty((S1, nq1))
        Zw = np.empty((S1, nq1))
        for s, (_, a, b) in enumerate(zs_spans):
            Znodes[s], Zw[s] = gauss_points(nq1, a, b)
        Xnodes = np.empty((S2, nq2))
        Xw = np.empty((S2, nq2))
        for s, (_, a, b) in enumerate(xi_spans):
            Xnodes[s], Xw[s] = gauss_points(nq2, a, b)

        zflat = Znodes.ravel()
        # the curve data (g, g1, g2) of every zeta node, against a radial axis
        geom = [d[:, None, :] for d in patch.curve.eval(zflat, nders=2)]

        # Gauss nodes lie inside spans: one active window per span
        zt = []
        for blk in self.blocks[m]:
            f1, D = blk.zeta_ders(zflat, 2)
            val = D.reshape(S1, nq1, 3, -1).transpose(0, 2, 3, 1)
            idx = np.add.outer(f1[::nq1], np.arange(blk.curve.p + 1, dtype=INDEX))
            zt.append((idx, np.ascontiguousarray(val)))

        xt = []
        for blk in self.blocks[m]:
            jloc, D = blk.radial_window(Xnodes.ravel(), 2)
            val = D.reshape(S2, nq2, 3, -1).transpose(2, 0, 3, 1)
            xt.append((np.where(jloc[::nq2] >= 0, jloc[::nq2], blk.nj), np.ascontiguousarray(val)))

        return _PatchTables(self, m, Znodes, Zw, Xnodes, Xw, geom, zt, xt)


class _PatchTables:
    """Precomputed Gauss data for one patch.

    Per block, zt holds the active zeta functions Zidx (S1, kz) and their
    factor Zv (S1, 3, kz, nq1) per zeta span, and xt the radial windows
    J (S2, p+1) and their factor Xv (3, S2, p+1, nq2) per radial span
    (derivative orders 0..2 on the axis of length 3; J = nj and Xv = 0
    where a function lies outside the block): the basis is their tensor
    product.  The stiffness integrates the two factors apart
    (:meth:`separable_tables`); sums against one coefficient or weight
    vector use the whole patch grid (S1*nq1, S2*nq2).
    """

    def __init__(self, space, m, Znodes, Zw, Xnodes, Xw, geom, zt, xt):
        # the blocks, offsets and patch only: no reference back to the space
        self.blocks = space.blocks[m]
        self.offsets = space.offsets[m]
        self.patch = space.domain.patches[m]
        self.Znodes = Znodes
        self.Zw = Zw
        self.Xnodes = Xnodes
        self.Xw = Xw
        self.geom = geom
        self.zt = zt
        self.xt = xt
        self.S1, self.nq1 = Znodes.shape
        self.S2, self.nq2 = Xnodes.shape

    def patch_geometry(self):
        """The :func:`~sbiga.geometry.sb_geometry` dict and the weights w on
        the whole Gauss grid of the patch, arrays (S1*nq1, S2*nq2)."""
        q = self.patch.q(self.Xnodes.ravel())
        geo = sb_geometry(*self.geom, q, np.full(q.shape, self.patch.c1), self.patch.x0)
        geo["w"] = np.outer(self.Zw, self.Xw)
        return geo

    def separable_tables(self):
        """Factors of the SB-separable stiffness on every radial span: the
        Hessian of B_i R_j is sum_t F_t G_t, G_t = R_j/q^2, R_j'/q, R_j''
        and F_t the :func:`_pullback` at q = 1 of B_i with radial input t,
        and |det J| = q |det J(q=1)|.  Returns (wz, wx, blocks), from one
        sb_geometry call at q = 1: wz = w |det J(q=1)| (S1, nq1) and
        wx = w q (S2, nq2); per block (n1, nj, I, F, J, G): its zeta windows
        I (S1, kz) with F (3, S1, kz, 3, nq1), axes t and Hessian component
        (11, 22, 12), and its radial windows J (S2, p+1) of ``xt`` with
        G (3, S2, p+1, nq2).
        """
        one = np.ones(1)
        geo = sb_geometry(*self.geom, one, self.patch.c1 * one, self.patch.x0)
        unit = {k: v.reshape(self.S1, 1, self.nq1) for k, v in geo.items()}
        xq = self.patch.q(self.Xnodes)[:, None, :]
        blocks = []
        for blk, (I, Zv), (J, R) in zip(self.blocks, self.zt, self.xt):
            B0, B1, B2 = Zv.transpose(1, 0, 2, 3)
            O = np.zeros_like(B0)
            A = {"D10": (B1, O, O), "D01": (O, B0, O), "D20": (B2, O, O), "D11": (O, B1, O), "D02": (O, O, B0)}
            _, _, H = _pullback({k: np.stack(v) for k, v in A.items()}, unit)
            G = np.stack([R[0] / xq**2, R[1] / xq, R[2]])
            blocks.append((blk.n1, blk.nj, I, np.stack(H, axis=-2), J, G))
        return self.Zw * np.abs(unit["det"][:, 0]), self.Xw * xq[:, 0], blocks

    def weighted_sums(self, W):
        """Per block, its flat index range sl and the sums over the patch
        grid of its functions against the weights W (S1*nq1, S2*nq2): yields
        (sl, F), F (n1, nj) = sum_q B_i R_j W.  The zeta and then the radial
        products run over one span's nodes; np.bincount sums the spans in
        span order, the padding J = nj into a dropped row of F."""
        S1, nq1, S2, nq2 = self.S1, self.nq1, self.S2, self.nq2
        Q2 = S2 * nq2
        for b, blk in enumerate(self.blocks):
            (Zidx, Zv), (J, Xv) = self.zt[b], self.xt[b]
            G = np.bincount((Zidx[:, :, None] * Q2 + np.arange(Q2)).ravel(),
                            (Zv[:, 0] @ W.reshape(S1, nq1, Q2)).ravel(), blk.n1 * Q2)
            H = Xv[0] @ G.reshape(blk.n1, S2, nq2).transpose(1, 2, 0)  # (S2, p+1, n1)
            F = np.bincount((J[:, :, None] * blk.n1 + np.arange(blk.n1)).ravel(), H.ravel(), (blk.nj + 1) * blk.n1)
            yield slice(self.offsets[b], self.offsets[b] + blk.size), F.reshape(-1, blk.n1)[:-1].T

    def field(self, c):
        """Value and physical Hessian of the field with flat coefficients c
        on the patch grid: (u, H11, H22, H12, geo), arrays (S1*nq1, S2*nq2).
        The parametric derivatives come from the coefficients of each span's
        radial and zeta windows, one product over each window in turn."""
        A = {k: 0.0 for k in _DERIVS}
        for b, blk in enumerate(self.blocks):
            (Zidx, Zv), (J, Xv) = self.zt[b], self.xt[b]
            C = c[self.offsets[b] : self.offsets[b] + blk.size].reshape(blk.n1, blk.nj)
            Cw = np.pad(C, ((0, 0), (0, 1)))[:, J].transpose(1, 0, 2)  # (S2, n1, p+1), padding J = nj
            CR = [(Cw @ Xv[dx]).transpose(1, 0, 2).reshape(blk.n1, -1) for dx in range(3)]
            for k, (dz, dx) in _DERIVS.items():
                A[k] = A[k] + (Zv[:, dz].transpose(0, 2, 1) @ CR[dx][Zidx]).reshape(self.S1 * self.nq1, -1)
        geo = self.patch_geometry()
        _, _, (H11, H22, H12) = _pullback(A, geo)
        return A["V"], H11, H22, H12, geo


def _pullback(A, geo):
    """Physical gradient and Hessian H = J^{-T} (Hhat - sum_k dphi/dx_k
    Hess F_k) J^{-1} from the parametric derivatives A (D10, D01 and, for
    the Hessian, D20, D11, D02) and the SB-map geometry geo, which
    broadcast against each other.

    Written out for the SB map, whose xi-xi derivatives vanish.  Returns
    (GX, GY, (H11, H22, H12)), with None for the Hessian when A holds no
    second derivatives.
    """
    # J^{-1} = [[a, b], [c, d]]; grad = J^{-T} [D10, D01]
    a, b, c, d = jacobian_inverse(geo)
    GX = a * A["D10"] + c * A["D01"]
    GY = b * A["D10"] + d * A["D01"]
    if A.get("D20") is None:
        return GX, GY, None
    K11 = A["D20"] - GX * geo["F1zz"] - GY * geo["F2zz"]
    K12 = A["D11"] - GX * geo["F1zx"] - GY * geo["F2zx"]
    K22 = A["D02"]
    H11 = a * a * K11 + 2.0 * a * c * K12 + c * c * K22
    H22 = b * b * K11 + 2.0 * b * d * K12 + d * d * K22
    H12 = a * b * K11 + (a * d + b * c) * K12 + c * d * K22
    return GX, GY, (H11, H22, H12)
