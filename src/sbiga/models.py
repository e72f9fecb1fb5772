"""Canonical SB multipatch geometries used by demos, configs and tests.

A builder returns a domain, or (domain, info) when it names patch groups
(``perforated_disk`` and ``l_bracket``).  Boundary loops run with the
interior on their right (det J > 0); all blocks use q(xi) = xi (singular
centers).  The trimmed and multi-block builders split curves with
:func:`~sbiga.trim.split_curve` and hand their block loops to
:func:`~sbiga.trim.star_blocks`, which checks that each loop closes and each
patch is star-shaped.
"""

import numpy as np

from .geometry import NurbsCurve, SBPatch, line_curve, circle_arc, make_domain
from .splines import KnotVector
from .trim import split_curve, star_blocks

__all__ = [
    "square4",
    "disk4",
    "fan2",
    "two_blocks_square",
    "chamfered_square",
    "square_with_hole",
    "perforated_disk",
    "l_bracket",
]


def _rect_loop(lo, hi, degree):
    """Clockwise rectangle boundary: left, top, right, bottom."""
    x0, y0 = lo
    x1, y1 = hi
    return [
        line_curve((x0, y0), (x0, y1), degree),
        line_curve((x0, y1), (x1, y1), degree),
        line_curve((x1, y1), (x1, y0), degree),
        line_curve((x1, y0), (x0, y0), degree),
    ]


def square4(degree=3, side=1.0, center=(0.0, 0.0), offset=(-0.15, 0.1), bc=None):
    """Four-patch square plate with (offset) scaling center."""
    cx, cy = center
    h = 0.5 * side
    loop = _rect_loop((cx - h, cy - h), (cx + h, cy + h), degree)
    x0 = np.array([cx + offset[0], cy + offset[1]])
    patches = [SBPatch(c, x0) for c in loop]
    return make_domain(patches, bc=bc)


def disk4(degree=3, radius=1.0, center=(0.0, 0.0), bc=None):
    """Four-quadrant disk, scaling center at the disk center."""
    arcs = [
        circle_arc(center, radius, 0.0, -0.5 * np.pi, degree),
        circle_arc(center, radius, -0.5 * np.pi, -np.pi, degree),
        circle_arc(center, radius, -np.pi, -1.5 * np.pi, degree),
        circle_arc(center, radius, -1.5 * np.pi, -2.0 * np.pi, degree),
    ]
    patches = [SBPatch(c, center) for c in arcs]
    return make_domain(patches, bc=bc)


def fan2(degree=3, bc=None):
    """Two-triangle ("bilinear") cover of the unit square: scaling center at
    the origin corner, interface along the diagonal."""
    c1 = line_curve((0.0, 1.0), (1.0, 1.0), degree)
    c2 = line_curve((1.0, 1.0), (1.0, 0.0), degree)
    patches = [SBPatch(c1, (0.0, 0.0)), SBPatch(c2, (0.0, 0.0))]
    return make_domain(patches, bc=bc)


def two_blocks_square(degree=3, bc=None):
    """Unit square split at x = 1/2 into two star blocks (two centers);
    the cut line is a straight interface between the center groups."""
    left = [
        line_curve((0.5, 0.0), (0.0, 0.0), degree),
        line_curve((0.0, 0.0), (0.0, 1.0), degree),
        line_curve((0.0, 1.0), (0.5, 1.0), degree),
        line_curve((0.5, 1.0), (0.5, 0.0), degree),
    ]
    right = [
        line_curve((1.0, 0.0), (0.5, 0.0), degree),
        line_curve((0.5, 0.0), (0.5, 1.0), degree),
        line_curve((0.5, 1.0), (1.0, 1.0), degree),
        line_curve((1.0, 1.0), (1.0, 0.0), degree),
    ]
    patches = [SBPatch(c, (0.25, 0.5)) for c in left]
    patches += [SBPatch(c, (0.75, 0.5)) for c in right]
    return make_domain(patches, bc=bc)


def chamfered_square(degree=3):
    """Unit square with one corner cut off by a straight trimming curve from
    (0.6, 0) to (1, 0.4): one star block of five patches."""
    left, top, right, bottom = _rect_loop((0, 0), (1, 1), degree)
    trim = line_curve((0.6, 0.0), (1.0, 0.4), degree)
    loop = [
        left,
        top,
        split_curve(right, [0.6])[0],    # (1,1) -> (1,0.4)
        trim.reversed_curve(),           # (1,0.4) -> (0.6,0)
        split_curve(bottom, [0.4])[1],   # (0.6,0) -> (0,0)
    ]
    return star_blocks([((0.4, 0.5), loop)])[0]


def _polyline_loop(vertices, degree):
    """Closed polyline as one degree-p curve with C0 corner knots."""
    verts = [np.asarray(v, dtype=float) for v in vertices]
    ne = len(verts)
    g = np.linspace(0.0, 1.0, degree + 1)
    pts = []
    for k in range(ne):
        a, b = verts[k], verts[(k + 1) % ne]
        seg = a[None, :] + g[:, None] * (b - a)[None, :]
        pts.append(seg if k == 0 else seg[1:])
    pts = np.vstack(pts)
    knots = np.concatenate(
        [np.zeros(degree + 1)]
        + [np.full(degree, k / ne) for k in range(1, ne)]
        + [np.ones(degree + 1)]
    )
    return np.vstack(pts), KnotVector(knots, degree)


def square_with_hole(degree=3, half_diagonal=0.15):
    """Unit square with an interior diamond hole (a closed trimming loop),
    divided by two horizontal cut lines into two star blocks with straight
    inter-block interfaces."""
    d = half_diagonal
    R, T, L, B = (0.5 + d, 0.5), (0.5, 0.5 + d), (0.5 - d, 0.5), (0.5, 0.5 - d)
    pts, kv = _polyline_loop([R, T, L, B], degree)
    rt, tl, lb, br = split_curve(NurbsCurve(kv, pts), [0.25, 0.5, 0.75])
    left, top, right, bottom = _rect_loop((0, 0), (1, 1), degree)
    left_lo, left_hi = split_curve(left, [0.5])
    right_hi, right_lo = split_curve(right, [0.5])
    upper = [left_hi, top, right_hi, line_curve((1.0, 0.5), R, degree), rt, tl,
             line_curve(L, (0.0, 0.5), degree)]
    lower = [left_lo, line_curve((0.0, 0.5), L, degree), lb, br,
             line_curve(R, (1.0, 0.5), degree), right_lo, bottom]
    return star_blocks([((0.5, 0.85), upper), ((0.5, 0.15), lower)])[0]


def _hole_ring_blocks(H, r, w, degree, dist):
    """Four star blocks covering the square ring [H +- w] minus the hole of
    radius r: one per side, centers at distance ``dist`` from H.

    Returns the blocks as (center, curves) pairs, the arc always the first
    curve of each block.
    """
    H = np.asarray(H, dtype=float)
    s = 1.0 / np.sqrt(2.0)
    blocks = []
    for k in range(4):
        ang = 0.5 * np.pi * k
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])

        def T(pt):
            return H + rot @ np.asarray(pt, dtype=float)

        Ap = T((r * s, r * s))      # arc end at +45 deg
        Am = T((r * s, -r * s))     # arc end at -45 deg
        Cp = T((w, w))
        Cm = T((w, -w))
        arc = circle_arc(H, r, ang - 0.25 * np.pi, ang + 0.25 * np.pi, degree)
        curves = [
            arc,                                    # Am -> Ap (ccw around H)
            line_curve(Ap, Cp, degree),
            line_curve(Cp, Cm, degree),
            line_curve(Cm, Am, degree),
        ]
        blocks.append((T((dist, 0.0)), curves))
    return blocks


def _frame_blocks(lo, hi, ilo, ihi, degree):
    """Four trapezoid star blocks covering rect(lo,hi) minus rect(ilo,ihi)."""
    (x0, y0), (x1, y1) = lo, hi
    (a0, b0), (a1, b1) = ilo, ihi
    quads = [
        # outer edge (cw), corner diag, inner edge, corner diag
        (((x1, y0), (x0, y0)), ((x0, y0), (a0, b0)), ((a0, b0), (a1, b0)), ((a1, b0), (x1, y0)),
         (0.5 * (a0 + a1), 0.5 * (y0 + b0))),
        (((x0, y0), (x0, y1)), ((x0, y1), (a0, b1)), ((a0, b1), (a0, b0)), ((a0, b0), (x0, y0)),
         (0.5 * (x0 + a0), 0.5 * (b0 + b1))),
        (((x0, y1), (x1, y1)), ((x1, y1), (a1, b1)), ((a1, b1), (a0, b1)), ((a0, b1), (x0, y1)),
         (0.5 * (a0 + a1), 0.5 * (b1 + y1))),
        (((x1, y1), (x1, y0)), ((x1, y0), (a1, b0)), ((a1, b0), (a1, b1)), ((a1, b1), (x1, y1)),
         (0.5 * (a1 + x1), 0.5 * (b0 + b1))),
    ]
    blocks = []
    for e0, e1, e2, e3, center in quads:
        curves = [line_curve(p, q, degree) for p, q in (e0, e1, e2, e3)]
        blocks.append((np.asarray(center), curves))
    return blocks


def perforated_disk(degree=3, R=1.0, hole_r=0.05, hole_d=0.4, ring_w=0.1):
    """Simply supported disk with four trimmed holes on the axes (25 star
    blocks).  Returns (domain, info) with info listing rim and hole arc
    patch indices."""
    holes = [np.array([hole_d, 0.0]), np.array([0.0, hole_d]),
             np.array([-hole_d, 0.0]), np.array([0.0, -hole_d])]
    blocks = []
    for H in holes:
        blocks += _hole_ring_blocks(H, hole_r, ring_w, degree, 0.08)
    nhole = len(blocks)

    w = ring_w
    d = hole_d
    # clockwise octagon: top edge left->right, then down the right side
    order = [(-w, d - w), (w, d - w), (d - w, w), (d - w, -w),
             (w, -(d - w)), (-w, -(d - w)), (-(d - w), -w), (-(d - w), w)]
    curves = [
        line_curve(order[i], order[(i + 1) % 8], degree) for i in range(8)
    ]
    blocks.append((np.zeros(2), curves))

    # outer blocks: 4 axis + 4 diagonal, each with a rim arc first
    a_in = np.array([d + w, w])     # inner corner of an axis block, +x hole
    theta = np.arctan2(a_in[1], a_in[0])
    for k in range(4):
        ang = 0.5 * np.pi * k
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])

        def T(pt):
            return rot @ np.asarray(pt, dtype=float)

        Ep = T(R * np.array([np.cos(theta), np.sin(theta)]))
        Em = T(R * np.array([np.cos(theta), -np.sin(theta)]))
        Sp = T((d + w, w))
        Sm = T((d + w, -w))
        curves = [
            circle_arc((0, 0), R, ang + theta, ang - theta, degree),  # Ep -> Em
            line_curve(Em, Sm, degree),
            line_curve(Sm, Sp, degree),
            line_curve(Sp, Ep, degree),
        ]
        blocks.append((T((0.5 * (d + w + R), 0.0)), curves))

        # diagonal block between axis direction k and k+1
        Fp = T(R * np.array([np.cos(0.5 * np.pi - theta), np.sin(0.5 * np.pi - theta)]))
        curves = [
            circle_arc((0, 0), R, ang + 0.5 * np.pi - theta, ang + theta, degree),  # Fp -> Ep
            line_curve(Ep, Sp, degree),
            line_curve(Sp, T((d - w, w)), degree),
            line_curve(T((d - w, w)), T((w, d - w)), degree),
            line_curve(T((w, d - w)), T((w, d + w)), degree),
            line_curve(T((w, d + w)), Fp, degree),
        ]
        blocks.append((T((0.55 / np.sqrt(2.0), 0.55 / np.sqrt(2.0))), curves))

    domain, first = star_blocks(blocks)
    return domain, {"rim_arcs": first[nhole + 1:], "hole_arcs": first[:nhole]}


def l_bracket(degree=3, hole_r=0.15):
    """L-shaped bracket (20 star blocks): vertical leg [0,1]x[0,3] with two
    clamped holes, horizontal leg [1,3]x[0,1], line load on the right edge.
    Returns (domain, info)."""
    w = 0.3
    blocks = []
    hole_blocks = []
    for Hy in (0.5, 2.5):
        hole_blocks += range(len(blocks), len(blocks) + 4)
        blocks += _hole_ring_blocks(np.array([0.5, Hy]), hole_r, w, degree, 0.24)
        blocks += _frame_blocks((0.0, Hy - 0.5), (1.0, Hy + 0.5), (0.2, Hy - w), (0.8, Hy + w), degree)
    # two squares of the vertical leg, then the horizontal leg
    for lo, hi in (((0.0, 1.0), (1.0, 1.5)), ((0.0, 1.5), (1.0, 2.0)),
                   ((1.0, 0.0), (2.0, 1.0)), ((2.0, 0.0), (3.0, 1.0))):
        blocks.append(
            ((0.5 * (lo[0] + hi[0]), 0.5 * (lo[1] + hi[1])), _rect_loop(lo, hi, degree))
        )
    domain, first = star_blocks(blocks)
    # the load is on the right edge of the last square (loop index 2)
    return domain, {"hole_arcs": [first[b] for b in hole_blocks], "load_edges": [first[-1] + 2]}
