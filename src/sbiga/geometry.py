"""Scaled-boundary patch geometry.

A patch maps the unit square through F(zeta, xi) = q(xi)(gamma(zeta) - x0) + x0
with a NURBS boundary curve gamma, scaling center x0 and scaling polynomial
q(xi) = c1*xi + c2.  c2 = 0 collapses the xi=0 edge into the (singular)
scaling center.  Domains glue several such patches; boundary curves are
ordered so that the interior lies to the right of the running direction,
which makes det J > 0.
"""

import numpy as np

from .errors import GeometryError
from .splines import (
    KnotVector, boehm_insert, make_open_knot_vector, insert_knot, ders_basis, nurbs_ders_basis,
    gauss_points,
)

__all__ = [
    "NurbsCurve",
    "line_curve",
    "circle_arc",
    "sb_geometry",
    "jacobian_inverse",
    "SBPatch",
    "PatchEdge",
    "Interface",
    "BoundaryEdge",
    "MultiPatchDomain",
    "make_domain",
    "validate_star_shape",
    "locate_point",
]


class NurbsCurve:
    """Planar NURBS curve: knot vector, (n, 2) control points, weights."""

    __slots__ = ("kv", "points", "weights")

    def __init__(self, kv, points, weights=None):
        points = np.asarray(points, dtype=float)
        if weights is None:
            weights = np.ones(len(points))
        weights = np.asarray(weights, dtype=float)
        if points.shape != (kv.n, 2) or weights.shape != (kv.n,):
            raise GeometryError("control data does not match knot vector", tag="invalid-curve")
        if np.any(weights <= 0.0):
            raise GeometryError("curve weights must be positive", tag="invalid-weights")
        points = points.copy()
        weights = weights.copy()
        points.flags.writeable = False
        weights.flags.writeable = False
        self.kv = kv
        self.points = points
        self.weights = weights

    @property
    def p(self):
        return self.kv.p

    @property
    def n(self):
        return self.kv.n

    def homogeneous(self):
        h = np.empty((self.n, 3))
        h[:, :2] = self.points * self.weights[:, None]
        h[:, 2] = self.weights
        return h

    def eval(self, ts, nders=0):
        """Curve point (and derivatives up to nders<=2) at parameters ts."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        first, D = ders_basis(self.kv, ts, nders)
        A = D @ self.homogeneous()[np.add.outer(first, np.arange(self.p + 1))]
        W = A[..., 2]
        out = [A[:, 0, :2] / W[:, 0, None]]
        if nders >= 1:
            out.append((A[:, 1, :2] - out[0] * W[:, 1, None]) / W[:, 0, None])
        if nders >= 2:
            out.append(
                (A[:, 2, :2] - 2.0 * out[1] * W[:, 1, None] - out[0] * W[:, 2, None])
                / W[:, 0, None]
            )
        return out[0] if nders == 0 else tuple(out)

    def eval_one(self, t, nders=0):
        res = self.eval([t], nders)
        if nders == 0:
            return res[0]
        return tuple(r[0] for r in res)

    def start(self):
        return self.points[0].copy()

    def end(self):
        return self.points[-1].copy()

    def insert_knot(self, t, times=1):
        kv, hom = insert_knot(self.kv, self.homogeneous(), t, times)
        return NurbsCurve(kv, hom[:, :2] / hom[:, 2:3], hom[:, 2])

    def refine_to_segments(self, segments, r):
        """Curve with the uniform breakpoints k/segments raised to
        multiplicity p - r.

        Boehm insertion on a knot list, in homogeneous form one breakpoint
        at a time, and one :class:`KnotVector` at the end.  A knot whose
        multiplicity already exceeds p - r is rejected.
        """
        U, p, points, weights = self.kv.values.tolist(), self.p, self.points, self.weights
        for t in np.arange(1, segments) / segments:
            missing = p - r - int(np.count_nonzero(np.abs(np.array(U) - t) <= 1e-12))
            if missing < 0:
                raise GeometryError(
                    "existing multiplicity at %g exceeds p-r" % t, tag="invalid-regularity"
                )
            if missing > 0:
                hom = np.column_stack([points * weights[:, None], weights])
                hom = boehm_insert(U, hom, p, t, missing)
                points, weights = hom[:, :2] / hom[:, 2:3], hom[:, 2]
        return NurbsCurve(KnotVector(U, p), points, weights)

    def reversed_curve(self):
        return NurbsCurve(self.kv.mirrored(), self.points[::-1].copy(), self.weights[::-1].copy())

    def is_straight(self, tol=1e-10):
        chord = self.end() - self.start()
        L = np.hypot(*chord)
        if L == 0.0:
            return False
        d = self.points - self.start()
        cross = d[:, 0] * chord[1] - d[:, 1] * chord[0]
        return bool(np.max(np.abs(cross)) <= tol * max(L, 1.0) * L)


def _elevate_bezier_hom(hom):
    """One degree-elevation step of a Bezier segment in homogeneous form."""
    q = len(hom)  # current degree + 1
    out = np.empty((q + 1, hom.shape[1]))
    out[0] = hom[0]
    out[q] = hom[-1]
    for i in range(1, q):
        a = i / q
        out[i] = a * hom[i - 1] + (1.0 - a) * hom[i]
    return out


def line_curve(p0, p1, degree):
    """Straight segment as a degree-``degree`` Bezier with affine speed."""
    kv = make_open_knot_vector(degree, 1, degree - 1) if degree > 1 else KnotVector(
        np.array([0.0, 0.0, 1.0, 1.0]), 1
    )
    g = kv.greville()
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    pts = p0[None, :] + g[:, None] * (p1 - p0)[None, :]
    return NurbsCurve(kv, pts)


def circle_arc(center, radius, angle0, angle1, degree=2):
    """Exact circular arc (|angle1 - angle0| <= pi/2 + eps) of given degree.

    Built as the standard quadratic rational Bezier and elevated in
    homogeneous form when degree > 2.
    """
    center = np.asarray(center, dtype=float)
    sweep = angle1 - angle0
    if abs(sweep) > 0.5 * np.pi + 1e-12:
        raise GeometryError("arc sweep must not exceed 90 degrees", tag="invalid-arc")
    if degree < 2:
        raise GeometryError("circular arcs need degree >= 2", tag="invalid-arc")
    a0, a1 = angle0, angle1
    P0 = center + radius * np.array([np.cos(a0), np.sin(a0)])
    P2 = center + radius * np.array([np.cos(a1), np.sin(a1)])
    half = 0.5 * sweep
    w1 = np.cos(half)
    amid = 0.5 * (a0 + a1)
    P1 = center + (radius / w1) * np.array([np.cos(amid), np.sin(amid)])
    hom = np.empty((3, 3))
    hom[0] = [P0[0], P0[1], 1.0]
    hom[1] = [w1 * P1[0], w1 * P1[1], w1]
    hom[2] = [P2[0], P2[1], 1.0]
    for _ in range(degree - 2):
        hom = _elevate_bezier_hom(hom)
    kv = make_open_knot_vector(degree, 1, degree - 1)
    return NurbsCurve(kv, hom[:, :2] / hom[:, 2:3], hom[:, 2])


def sb_geometry(g, g1, g2, q, c1, x0):
    """Geometry of the SB map F = q(xi)(gamma(zeta) - x0) + x0 from the
    curve data g, g1, g2 (gamma and its first two derivatives, last axis
    x/y), q = q(xi) and c1, which broadcast against each other.

    Returns the dict of arrays J11, J12, J21, J22 (J = dF/d(zeta, xi)), det,
    the point px, py and the second derivatives F1zz, F2zz, F1zx, F2zx of
    (F1, F2); those in xi-xi vanish since q is linear.
    """
    gx, gy = g[..., 0] - x0[0], g[..., 1] - x0[1]
    J11, J21 = g1[..., 0] * q, g1[..., 1] * q
    J12, J22 = gx * c1, gy * c1
    return {
        "J11": J11, "J12": J12, "J21": J21, "J22": J22,
        "det": J11 * J22 - J12 * J21,
        "px": gx * q + x0[0], "py": gy * q + x0[1],
        "F1zz": g2[..., 0] * q, "F2zz": g2[..., 1] * q,
        "F1zx": g1[..., 0] * c1, "F2zx": g1[..., 1] * c1,
    }


def jacobian_inverse(geo):
    """Entries (I11, I12, I21, I22) of J^{-1} in closed form."""
    det = geo["det"]
    return geo["J22"] / det, -geo["J12"] / det, -geo["J21"] / det, geo["J11"] / det


def unit_normal(geo, ndir):
    """Unit normals J^{-T} ndir / |J^{-T} ndir| from the :func:`sb_geometry`
    dict: ndir = (1, 0) gives the normal of the line zeta = const, (0, 1)
    that of xi = const, both pointing to increasing parameter."""
    a, b, c, d = jacobian_inverse(geo)
    n = np.stack([a * ndir[0] + c * ndir[1], b * ndir[0] + d * ndir[1]], axis=-1)
    return n / np.hypot(n[..., 0], n[..., 1])[..., None]


class SBPatch:
    """One scaled-boundary patch."""

    def __init__(self, curve, x0, c1=1.0, c2=0.0, radial=None):
        if c1 <= 0.0 or c2 < 0.0:
            raise GeometryError("need c1 > 0 and c2 >= 0", tag="invalid-scaling")
        self.curve = curve
        self.x0 = np.asarray(x0, dtype=float)
        self.c1 = float(c1)
        self.c2 = float(c2)
        if radial is None:
            radial = make_open_knot_vector(curve.p, 1, curve.p - 1)
        if radial.p != curve.p:
            raise GeometryError(
                "radial degree %d != curve degree %d" % (radial.p, curve.p),
                tag="degree-mismatch",
            )
        self.radial = radial

    @property
    def p(self):
        return self.curve.p

    def q(self, xi):
        return self.c1 * np.asarray(xi, dtype=float) + self.c2

    def map(self, zeta, xi):
        """Physical point(s) F(zeta, xi); broadcasts over matching shapes."""
        g = self.curve.eval(np.atleast_1d(zeta))
        qv = np.atleast_1d(self.q(xi))
        pts = qv[:, None] * (g - self.x0) + self.x0
        return pts[0] if np.isscalar(zeta) and np.isscalar(xi) else pts

    def geom_eval(self, zeta, xi):
        """The :func:`sb_geometry` dict at points (zeta, xi), scalars or 1-D
        arrays that broadcast against each other; arrays of shape (n,)."""
        zeta, xi = np.broadcast_arrays(np.atleast_1d(zeta), np.atleast_1d(xi))
        qv = self.q(xi)
        if np.any(qv == 0.0):
            raise GeometryError(
                "Jacobian is singular at the scaling center", tag="singular-jacobian"
            )
        return sb_geometry(*self.curve.eval(zeta, nders=2), qv, self.c1, self.x0)

    def edge_normal(self, zeta, xi, ndir):
        """:func:`unit_normal` at points (zeta, xi)."""
        return unit_normal(self.geom_eval(zeta, xi), ndir)

    def control_net(self, curve=None, radial=None):
        """Control net C[i, j] = q(g_j)(C_i - x0) + x0 (g_j radial Greville).

        q has degree 1, so Greville coefficients reproduce it exactly; the
        net is verified against the direct map on construction.
        """
        curve = curve or self.curve
        radial = radial or self.radial
        g = radial.greville()
        qg = self.c1 * g + self.c2
        net = qg[None, :, None] * (curve.points - self.x0)[:, None, :] + self.x0
        rng = np.random.default_rng(52)
        zs = rng.uniform(0.0, 1.0, 20)
        xs = rng.uniform(0.0, 1.0, 20)
        direct = self.map(zs, xs)
        f1, Dz = nurbs_ders_basis(curve.kv, curve.weights, zs, 0)
        f2, Dx = ders_basis(radial, xs, 0)
        ii = np.add.outer(f1, np.arange(curve.p + 1))
        jj = np.add.outer(f2, np.arange(radial.p + 1))
        sub = net[ii[:, :, None], jj[:, None, :]]
        recon = np.einsum("ni,nj,nijk->nk", Dz[:, 0], Dx[:, 0], sub)
        err = np.max(np.abs(recon - direct))
        if err > 1e-10:
            raise GeometryError(
                "control net reproduction error %.2e" % err, tag="net-construction-failed"
            )
        return net

    def with_segments(self, segments_zeta, segments_xi, r):
        """Patch with uniform segments inserted in both directions."""
        curve = self.curve.refine_to_segments(segments_zeta, r)
        radial = make_open_knot_vector(self.p, segments_xi, r)
        return SBPatch(curve, self.x0, self.c1, self.c2, radial)

    def outer_edge_curve(self):
        """The xi = 1 edge as a curve (gamma scaled by q(1))."""
        q1 = self.c1 + self.c2
        pts = q1 * (self.curve.points - self.x0) + self.x0
        return NurbsCurve(self.curve.kv, pts, self.curve.weights.copy())


class PatchEdge:
    """One edge of a patch: 'zeta0' or 'zeta1', which run in xi, or 'outer'
    (xi = 1), which runs in zeta; t is the running parameter.  ``axis`` is
    the parameter held fixed (0 zeta, 1 xi), ``fixed`` its value and
    ``ndir`` the parametric normal direction, towards increasing ``axis``."""

    __slots__ = ("patch", "edge", "axis", "fixed", "ndir")

    _AXES = {"zeta0": (0, 0.0), "zeta1": (0, 1.0), "outer": (1, 1.0)}

    def __init__(self, patch, edge):
        self.patch = patch
        self.edge = edge
        self.axis, self.fixed = self._AXES[edge]
        self.ndir = (1.0 - self.axis, float(self.axis))

    def points(self, t):
        """(zeta, xi) of the edge at parameters t."""
        fixed = np.full_like(t, self.fixed)
        return (fixed, t) if self.axis == 0 else (t, fixed)

    def rule(self, domain, nq):
        """nq-point Gauss rule on every knot span of the edge: parameters t,
        the weights times the arc measure |dF/dt|, and the
        :func:`sb_geometry` dict at the points, for callers that need more
        of the map there."""
        patch = domain.patches[self.patch]
        kv = patch.radial if self.axis == 0 else patch.curve.kv
        rules = [gauss_points(nq, a, b) for _, a, b in kv.spans()]
        ts, ws = (np.concatenate(part) for part in zip(*rules))
        geo = patch.geom_eval(*self.points(ts))
        col = "2" if self.axis == 0 else "1"
        return ts, ws * np.hypot(geo["J1" + col], geo["J2" + col]), geo


class Interface:
    """Two coinciding patch edges, ``sides = (left edge, right edge)``;
    ``flip`` when the right edge runs against the left one.

    kind 'radial': the left patch's zeta1 edge meets the right patch's
    zeta0 edge (same center group), both running in xi.
    kind 'outer': the outer edges of two patches from different center
    groups, reversed, required straight.
    """

    __slots__ = ("kind", "left", "right", "sides", "flip")

    _EDGES = {"radial": ("zeta1", "zeta0", False), "outer": ("outer", "outer", True)}

    def __init__(self, kind, left, right):
        edge_l, edge_r, self.flip = self._EDGES[kind]
        self.kind = kind
        self.left = left
        self.right = right
        self.sides = (PatchEdge(left, edge_l), PatchEdge(right, edge_r))

    def __repr__(self):
        return f"Interface({self.kind}, L={self.left}, R={self.right})"


class BoundaryEdge(PatchEdge):
    """Physical boundary edge of one patch with a BC tag."""

    __slots__ = ("tag",)

    def __init__(self, patch, edge, tag="free"):
        super().__init__(patch, edge)
        self.tag = tag

    def __repr__(self):
        return f"BoundaryEdge(patch={self.patch}, {self.edge}, {self.tag})"


class CenterGroup:
    __slots__ = ("x0", "c1", "c2", "radial", "patches")

    def __init__(self, x0, c1, c2, radial, patches):
        self.x0 = x0
        self.c1 = c1
        self.c2 = c2
        self.radial = radial
        self.patches = patches


class MultiPatchDomain:
    def __init__(self, patches, groups, interfaces, boundary):
        self.patches = patches
        self.groups = groups
        self.interfaces = interfaces
        self.boundary = boundary

    @property
    def p(self):
        return self.patches[0].p

    def group_of(self, patch_index):
        for gi, g in enumerate(self.groups):
            if patch_index in g.patches:
                return gi
        raise GeometryError("patch %d not in any group" % patch_index, tag="topology-error")

    def boundary_for(self, patch_index, edge="outer"):
        for be in self.boundary:
            if be.patch == patch_index and be.edge == edge:
                return be
        return None

    def with_segments(self, segments_zeta, segments_xi, r):
        """Uniformly refined copy.  Knot insertion leaves the geometry, and
        with it the groups, interfaces and tags, unchanged, so they are
        carried over."""
        patches = [pa.with_segments(segments_zeta, segments_xi, r) for pa in self.patches]
        groups = [
            CenterGroup(g.x0, g.c1, g.c2, patches[g.patches[0]].radial, list(g.patches))
            for g in self.groups
        ]
        boundary = [BoundaryEdge(be.patch, be.edge, be.tag) for be in self.boundary]
        return MultiPatchDomain(patches, groups, list(self.interfaces), boundary)


_MATCH_TOL = 1e-12
# The boundary-condition tags and the number of outermost radial layers
# each removes from an outer edge.
ESSENTIAL_LAYERS = {"clamped": 2, "simply_supported": 1, "free": 0}


def _point_gaps(P, Q):
    """Max-norm distances max|P_i - Q_j| between the rows of two point
    arrays, shape (len(P), len(Q))."""
    return np.max(np.abs(P[:, None, :] - Q[None, :, :]), axis=-1)


def _curves_mirror(ca, cb, tol=_MATCH_TOL):
    """cb equals ca with reversed parametrization (control-level check)."""
    if ca.n != cb.n or ca.p != cb.p:
        return False
    if not ca.kv.mirrored() == cb.kv:
        if np.max(np.abs(ca.kv.mirrored().values - cb.kv.values)) > tol:
            return False
    if np.max(np.abs(ca.points - cb.points[::-1])) > tol:
        return False
    return np.max(np.abs(ca.weights - cb.weights[::-1])) <= 1e-10


def make_domain(patches, bc=None):
    """Assemble and validate a multipatch domain.

    Center groups are formed by exact (x0, c1, c2, radial) agreement; radial
    interfaces are detected from matching curve endpoint control points, and
    straight outer interfaces between groups from mirrored xi=1 edges.
    ``bc`` maps patch index (or 'all') to a tag for outer boundary edges.
    """
    if not patches:
        raise GeometryError("empty patch list", tag="topology-error")
    p = patches[0].p
    for k, pa in enumerate(patches):
        if pa.p != p:
            raise GeometryError(
                "patch %d has degree %d, expected %d" % (k, pa.p, p), tag="degree-mismatch"
            )

    # center groups
    x0s = np.array([pa.x0 for pa in patches])
    same_x0 = _point_gaps(x0s, x0s) <= 1e-14
    groups = []
    for k, pa in enumerate(patches):
        placed = False
        for g in groups:
            if (
                same_x0[g.patches[0], k]
                and g.c1 == pa.c1
                and g.c2 == pa.c2
                and g.radial == pa.radial
            ):
                g.patches.append(k)
                placed = True
                break
        if not placed:
            groups.append(CenterGroup(pa.x0.copy(), pa.c1, pa.c2, pa.radial, [k]))

    # orientation: detJ > 0 sampled
    zs = np.array([0.12, 0.5, 0.93])
    for k, pa in enumerate(patches):
        det = pa.geom_eval(zs, 0.77)["det"]
        if np.any(det <= 0.0):
            i = int(np.argmax(det <= 0.0))
            raise GeometryError(
                "patch %d has non-positive Jacobian (det=%.3e at zeta=%.2f); "
                "boundary curves must run with the interior on their right"
                % (k, det[i], zs[i]),
                tag="topology-error",
            )

    # radial interfaces inside groups (gamma_L(1) == gamma_R(0)); corners
    # that almost meet are rejected
    interfaces = []
    has_succ = set()
    has_pred = set()
    for g in groups:
        gaps = _point_gaps(np.array([patches[a].curve.points[-1] for a in g.patches]),
                           np.array([patches[b].curve.points[0] for b in g.patches]))
        np.fill_diagonal(gaps, np.inf)
        for i, j in zip(*np.nonzero(gaps <= 1e-6)):
            a, b = g.patches[i], g.patches[j]
            if gaps[i, j] > _MATCH_TOL:
                raise GeometryError(
                    "corner control points of patches %d/%d almost meet but "
                    "differ by more than 1e-12" % (a, b),
                    tag="topology-error",
                )
            if a in has_succ or b in has_pred:
                raise GeometryError(
                    "ambiguous radial interface at patch %d-%d" % (a, b),
                    tag="topology-error",
                )
            interfaces.append(Interface("radial", a, b))
            has_succ.add(a)
            has_pred.add(b)

    # outer interfaces across groups (mirrored xi=1 edges)
    # (start of a meets end of b and end of a meets start of b, a in an
    # earlier group than b), in the order of groups, then patches
    edges = [pa.outer_edge_curve() for pa in patches]
    gap = _point_gaps(np.array([c.start() for c in edges]), np.array([c.end() for c in edges]))
    gid = np.empty(len(patches), dtype=int)
    for gi, g in enumerate(groups):
        gid[g.patches] = gi
    meets = (gap <= _MATCH_TOL) & (gap.T <= _MATCH_TOL) & (gid[:, None] < gid[None, :])
    ts = np.linspace(0.07, 0.93, 7)
    outer_matched = set()
    left, right = np.nonzero(meets)
    order = np.lexsort((right, left, gid[right], gid[left]))
    for a, b in zip(left[order].tolist(), right[order].tolist()):
        ca, cb = edges[a], edges[b]
        if np.max(np.abs(ca.eval(ts) - cb.eval(1.0 - ts))) > 1e-9:
            continue  # shared endpoints only (two hole halves)
        if not _curves_mirror(ca, cb):
            raise GeometryError(
                "outer edges of patches %d/%d coincide but control "
                "data does not mirror" % (a, b),
                tag="topology-error",
            )
        if not ca.is_straight(1e-10):
            raise GeometryError(
                "interface between center groups (patches %d/%d) is "
                "not straight" % (a, b),
                tag="topology-error",
            )
        interfaces.append(Interface("outer", a, b))
        outer_matched.update((a, b))

    # boundary edges
    boundary = []
    for k in range(len(patches)):
        if k not in outer_matched:
            boundary.append(BoundaryEdge(k, "outer"))
        if k not in has_succ:
            boundary.append(BoundaryEdge(k, "zeta1"))
        if k not in has_pred:
            boundary.append(BoundaryEdge(k, "zeta0"))

    dom = MultiPatchDomain(patches, groups, interfaces, boundary)
    if bc is not None:
        apply_bc_tags(dom, bc)
    return dom


def apply_bc_tags(domain, bc):
    """Set BC tags from {'all': tag} or {patch_index: tag} (outer edges)."""
    if "all" in bc:
        tag = bc["all"]
        if tag not in ESSENTIAL_LAYERS:
            raise GeometryError("unknown bc tag %r" % tag, tag="config-error")
        for be in domain.boundary:
            if be.edge == "outer":
                be.tag = tag
        bc = {k: v for k, v in bc.items() if k != "all"}
    for key, tag in bc.items():
        k = int(key)
        if tag not in ESSENTIAL_LAYERS:
            raise GeometryError("unknown bc tag %r" % tag, tag="config-error")
        be = domain.boundary_for(k, "outer")
        if be is None:
            raise GeometryError(
                "patch %d has no outer boundary edge (it is an interface)" % k,
                tag="config-error",
            )
        be.tag = tag
    for be in domain.boundary:
        if be.edge != "outer" and be.tag != "free":
            raise GeometryError(
                "radial boundary edges support only 'free'", tag="config-error"
            )


def validate_star_shape(patch, samples=400):
    """min over samples of detJ/xi (c2=0) resp. detJ/q(xi); negative means
    the patch is not star-shaped w.r.t. its scaling center.  Both depend on
    zeta only (det J = q c1 (gamma - x0) x gamma'): taken at xi = 1 on
    ``samples`` equispaced zeta, both ends included."""
    det = patch.geom_eval(np.linspace(0.0, 1.0, samples), 1.0)["det"]
    return float(np.min(det if patch.c2 == 0.0 else det / patch.q(1.0)))


def locate_point(domain, xy, tol=1e-9):
    """Invert the SB map: return (patch index, zeta, xi) for a physical point.

    Works patch by patch using the angular monotonicity of star patches.
    """
    xy = np.asarray(xy, dtype=float)
    for gi, g in enumerate(domain.groups):
        if g.c2 == 0.0 and np.hypot(*(xy - g.x0)) <= tol:
            return domain.groups[gi].patches[0], 0.5, 0.0
    for k, pa in enumerate(domain.patches):
        v = xy - pa.x0
        rv = np.hypot(*v)
        if rv == 0.0:
            continue

        def miss(z):
            """cross(F(z) - x0, v) and its derivative at the parameters z."""
            g, dg = pa.curve.eval(z, nders=1)
            g = g - pa.x0
            return g[:, 0] * v[1] - g[:, 1] * v[0], dg[:, 0] * v[1] - dg[:, 1] * v[0]

        # open knot vectors interpolate the end control points
        ends = pa.curve.points[[0, -1]] - pa.x0
        f0, f1 = ends[:, 0] * v[1] - ends[:, 1] * v[0]
        if f0 == 0.0:
            z = 0.0
        elif f1 == 0.0:
            z = 1.0
        elif f0 * f1 > 0.0:
            continue
        else:
            # Newton from the secant point, bisecting whenever it leaves
            # the bracket [lo, hi]
            lo, hi, z = 0.0, 1.0, f0 / (f0 - f1)
            for _ in range(80):
                (fz,), (dfz,) = miss([z])
                lo, hi = (lo, z) if f0 * fz <= 0.0 else (z, hi)
                znew = z - fz / dfz if dfz != 0.0 else -1.0
                if not lo <= znew <= hi:
                    znew = 0.5 * (lo + hi)
                z, step = znew, abs(znew - z)
                if step <= 1e-13:
                    break
        gpt = pa.curve.eval_one(z) - pa.x0
        if gpt @ v <= 0.0:
            continue
        qv = rv / np.hypot(*gpt)
        xi = (qv - pa.c2) / pa.c1
        if -tol <= xi <= 1.0 + tol:
            xi = min(max(xi, 0.0), 1.0)
            if np.max(np.abs(pa.map(z, xi) - xy)) <= max(tol, 1e-9):
                return k, z, xi
    raise GeometryError("point %s lies outside the domain" % xy, tag="load-error")
