"""Uncoupled per-patch tensor bases and their evaluation.

A patch carries one or more *blocks*: a block is a zeta basis (possibly a
coarser representation of the same boundary curve) tensorized with a
contiguous range of radial indices.  The standard space has one block per
patch covering all radial indices; the two-mesh stabilized space has a
coarse block (j <= p) and a fine block (j >= p+1), see :mod:`sbiga.stabilize`.

Every evaluation of the uncoupled basis goes through one path.  The array
kernels :func:`~sbiga.splines.ders_basis` / ``nurbs_ders_basis`` evaluate
each block's zeta and radial factors at all parameters of a call at once:
:meth:`UncoupledSpace.parametric_eval` and
:meth:`UncoupledSpace.physical_eval` take one point or arrays of points,
:meth:`UncoupledSpace.quad_tables` whole radial span rows, the batch unit
of all element loops.  The tables of a patch are built once per Gauss
order and kept on the space, so stiffness, load and error norms share them.
A row keeps the basis as its tensor factors: the zeta factor per span and
the radial factor of the row.  The element stiffness, whose basis index
stays, expands them to (S1, K, Q) Hessian tables and integrates with
batched matmuls; the load and the error norms contract the factors with
one weight or coefficient vector and never form such a table.  Points and
rows share the geometry kernel :func:`~sbiga.geometry.sb_geometry` and one
pullback, :func:`_pullback`, which maps parametric derivatives to physical
gradients and Hessians through the closed-form J^{-1}, of single functions
and of fields alike, since it is linear in them.
"""

import numpy as np

from .errors import GeometryError
from .geometry import jacobian_inverse, sb_geometry
from .splines import ders_basis, nurbs_ders_basis, gauss_points

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
        """Active radial indices of this block at xi = x and their ders.

        For a scalar x only the functions inside the block's radial range
        are returned.  For an array of n parameters jloc has shape (n, p+1)
        and D shape (n, nders+1, p+1); functions outside the range carry
        jloc = -1 and zero derivatives.
        """
        first, D = ders_basis(self.radial, x, nders)
        jloc = np.add.outer(first - self.j_lo, np.arange(self.radial.p + 1))
        inside = (jloc >= 0) & (jloc < self.nj)
        if np.ndim(x) == 0:
            return jloc[inside], D[:, inside]
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

    def patch_slice(self, m):
        lo = self.offsets[m][0]
        last = self.blocks[m][-1]
        hi = self.offsets[m][-1] + last.size
        return lo, hi

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
            ii = np.add.outer(f1, np.arange(blk.curve.p + 1))
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
        geom = [d.reshape(S1, nq1, 1, 2) for d in patch.curve.eval(zflat, nders=2)]

        # Gauss nodes lie inside spans: one active window per span
        zt = []
        for blk in self.blocks[m]:
            f1, D = blk.zeta_ders(zflat, 2)
            val = D.reshape(S1, nq1, 3, -1).transpose(0, 2, 3, 1)
            idx = np.add.outer(f1[::nq1], np.arange(blk.curve.p + 1))
            zt.append((idx, np.ascontiguousarray(val)))

        xt = []
        for blk in self.blocks[m]:
            jloc, D = blk.radial_window(Xnodes.ravel(), 2)
            rows = []
            for s in range(S2):
                cols = jloc[s * nq2] >= 0
                vals = D[s * nq2 : (s + 1) * nq2][:, :, cols].transpose(1, 2, 0)
                rows.append((jloc[s * nq2, cols], np.ascontiguousarray(vals)))
            xt.append(rows)

        return _PatchTables(self, m, zs_spans, xi_spans, Znodes, Zw, Xnodes, Xw, geom, zt, xt)


class _PatchTables:
    """Precomputed Gauss data for one patch; rows are radial spans.

    A row holds, per block, the zeta factor Zv (S1, 3, kz, nq1) of every
    zeta span and the radial factor Xv (3, kx, nq2) of the row: the basis
    on the row is their tensor product.  Arrays (S1, K, Q) of basis
    functions at quadrature points (Q = nq1*nq2, q = q1*nq2 + q2) are built
    only where the basis index stays, as in the element stiffness; sums
    against one coefficient or weight vector contract the factors instead.
    """

    def __init__(self, space, m, zs_spans, xi_spans, Znodes, Zw, Xnodes, Xw, geom, zt, xt):
        # the blocks, offsets and patch only: no reference back to the space
        self.blocks = space.blocks[m]
        self.offsets = space.offsets[m]
        self.patch = space.domain.patches[m]
        self.zs_spans = zs_spans
        self.xi_spans = xi_spans
        self.Znodes = Znodes
        self.Zw = Zw
        self.Xnodes = Xnodes
        self.Xw = Xw
        self.geom = geom
        self.zt = zt
        self.xt = xt
        self.S1 = len(zs_spans)
        self.S2 = len(xi_spans)
        self.nq1 = Znodes.shape[1]
        self.nq2 = Xnodes.shape[1]

    def row_blocks(self, s2):
        """Tensor factors of the blocks active on radial span row s2.

        Yields (flat, Zv, Xv): flat indices (S1, kz, kx), the zeta factor
        (S1, 3, kz, nq1) and the radial factor (3, kx, nq2), with derivative
        orders 0..2 on the second resp. first axis.
        """
        for b, blk in enumerate(self.blocks):
            jloc, Xv = self.xt[b][s2]
            if len(jloc) == 0:
                continue
            Zidx, Zv = self.zt[b]
            flat = self.offsets[b] + Zidx[:, :, None] * blk.nj + jloc[None, None, :]
            yield flat, Zv, Xv

    def row_basis(self, s2, names):
        """Stacked element tensors for radial span row s2.

        Returns (IDX (S1, K), {name: (S1, K, Q)}) for the parametric
        derivatives ``names`` (keys of ``_DERIVS``), K the number of active
        functions.
        """
        S1, Q = self.S1, self.nq1 * self.nq2
        idx, parts = [], {k: [] for k in names}
        for flat, Zv, Xv in self.row_blocks(s2):
            idx.append(flat.reshape(S1, -1))
            for k in names:
                dz, dx = _DERIVS[k]
                T = Zv[:, dz, :, None, :, None] * Xv[dx, None, None, :, None, :]
                parts[k].append(T.reshape(S1, -1, Q))
        return np.concatenate(idx, axis=1), {k: np.concatenate(v, axis=1) for k, v in parts.items()}

    def row_geometry(self, s2):
        """The :func:`~sbiga.geometry.sb_geometry` dict and the weights w of
        row s2, arrays (S1, Q)."""
        patch = self.patch
        # c1 as a radial array makes every entry a full (S1, nq1, nq2) array
        c1 = np.full(self.nq2, patch.c1)
        geo = sb_geometry(*self.geom, patch.q(self.Xnodes[s2]), c1, patch.x0)
        geo["w"] = self.Zw[:, :, None] * self.Xw[s2][None, None, :]
        return {k: v.reshape(self.S1, -1) for k, v in geo.items()}

    def row_physical(self, s2):
        """Physical Hessian components of the basis on row s2.

        Returns (IDX, H11, H22, H12, geo) with arrays (S1, K, Q).
        """
        IDX, A = self.row_basis(s2, ("D10", "D01", "D20", "D11", "D02"))
        geo = self.row_geometry(s2)
        _, _, (H11, H22, H12) = _pullback(A, {k: v[:, None, :] for k, v in geo.items()})
        return IDX, H11, H22, H12, geo

    def row_field(self, s2, c):
        """Value and physical Hessian of the field with flat coefficients c
        on row s2: returns (u, H11, H22, H12, geo), arrays (S1, Q).

        Per block, c[flat] (S1, kz, kx) is contracted with the radial factor
        (one batched matmul per xi order) and then with the zeta factor (one
        per derivative); the pullback is linear in the parametric
        derivatives, so it maps the field's derivatives as it maps each
        basis function's.
        """
        S1 = self.S1
        A = {k: 0.0 for k in _DERIVS}
        for flat, Zv, Xv in self.row_blocks(s2):
            cf = c[flat]
            cX = [cf @ Xv[dx] for dx in range(3)]           # (S1, kz, nq2)
            for k, (dz, dx) in _DERIVS.items():
                A[k] = A[k] + (Zv[:, dz].transpose(0, 2, 1) @ cX[dx]).reshape(S1, -1)
        geo = self.row_geometry(s2)
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
