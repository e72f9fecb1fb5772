"""Trimming by exact knot insertion.

Boundary and trimming curves are split at given intersection parameters by
raising the knot multiplicity to p+1 (a C^-1 break), which represents the
original curve exactly; the pieces are rescaled to [0, 1] and reassembled
into boundary loops of star-shaped blocks.  Intersection parameters and cut
lines are inputs, never computed.
"""

import numpy as np

from .errors import GeometryError
from .geometry import NurbsCurve, SBPatch, line_curve, make_domain, validate_star_shape
from .splines import KnotVector

__all__ = ["split_curve", "TrimSpec", "assemble_trimmed_domain"]


def split_curve(curve, params):
    """Split a curve at interior parameters into exact [0, 1] segments.

    Parameters already at full multiplicity are accepted (idempotent).
    """
    params = sorted(set(float(t) for t in params))
    p = curve.p
    for t in params:
        if not 0.0 < t < 1.0:
            raise GeometryError("split parameter %g not in (0, 1)" % t, tag="invalid-parameter")
        missing = (p + 1) - curve.kv.multiplicity(t)
        if missing > 0:
            curve = curve.insert_knot(t, missing)

    knots = curve.kv.values
    cuts = [t for t in np.unique(knots[p + 1 : -p - 1]) if curve.kv.multiplicity(t) == p + 1]
    bounds = [0.0] + cuts + [1.0]
    segments = []
    start = 0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        inner = knots[(knots > lo + 1e-15) & (knots < hi - 1e-15)]
        sub = np.concatenate([np.full(p + 1, lo), inner, np.full(p + 1, hi)])
        sub = (sub - lo) / (hi - lo)
        kv = KnotVector(sub, p)
        pts = curve.points[start : start + kv.n]
        wts = curve.weights[start : start + kv.n]
        segments.append(NurbsCurve(kv, pts.copy(), wts.copy()))
        start += kv.n
    return segments


class TrimSpec:
    """Trimming instructions.

    * ``trim_curve``: the trimming curve (may be None for pure cut-line
      decompositions).
    * ``intersections``: (boundary curve id, boundary parameter, trim
      parameter) triples; consistency |gamma_i(z) - gamma_T(s)| <= 1e-8 is
      validated.  Parameters at 0/1 mark endpoint intersections and cause
      no split.
    * ``boundary_splits``: extra (curve id, parameter) split points, e.g.
      where cut lines end on the untrimmed boundary.
    * ``blocks``: one entry per star-shaped block:
      {"center": (x, y), "c1": 1.0, "c2": 0.0, "loop": [segref, ...]}
      where a segref is ("boundary", curve_id, piece, reversed),
      ("trim", piece, reversed), ("curve", NurbsCurve, reversed) or
      ("line", P0, P1); pieces index the split segments of the named curve
      in parameter order.
    """

    def __init__(
        self, trim_curve=None, intersections=(), boundary_splits=(), trim_splits=(), blocks=()
    ):
        self.trim_curve = trim_curve
        self.intersections = list(intersections)
        self.boundary_splits = list(boundary_splits)
        self.trim_splits = list(trim_splits)
        self.blocks = list(blocks)


def _interior(params):
    return [t for t in params if 1e-12 < t < 1.0 - 1e-12]


def _resolve(ref, boundary_pieces, trim_pieces, degree):
    kind = ref[0]
    if kind == "boundary":
        _, cid, piece, rev = ref
        cur = boundary_pieces[cid][piece]
    elif kind == "trim":
        _, piece, rev = ref
        cur = trim_pieces[piece]
    elif kind == "curve":
        _, cur, rev = ref
    elif kind == "line":
        _, p0, p1 = ref
        return line_curve(p0, p1, degree)
    else:
        raise GeometryError("unknown segment reference %r" % (ref,), tag="config-error")
    return cur.reversed_curve() if rev else cur


def assemble_trimmed_domain(domain, spec):
    """Split, reassemble and validate the trimmed multipatch domain.

    ``domain`` provides the untrimmed boundary curves (one per patch).
    Cut-line segments shared by two blocks become straight interfaces
    between center groups.
    """
    curves = [pa.curve for pa in domain.patches]
    degree = domain.p

    per_curve = {}
    trim_params = []
    for cid, z, s in spec.intersections:
        per_curve.setdefault(cid, []).append(z)
        trim_params.append(s)
        if spec.trim_curve is not None:
            gap = np.hypot(*(curves[cid].eval_one(z) - spec.trim_curve.eval_one(s)))
            if gap > 1e-8:
                raise GeometryError(
                    "intersection (%d, %g, %g) mismatch %.2e" % (cid, z, s, gap),
                    tag="topology-error",
                )
    for cid, z in spec.boundary_splits:
        per_curve.setdefault(cid, []).append(z)
    trim_params.extend(spec.trim_splits)

    boundary_pieces = {
        cid: split_curve(curves[cid], _interior(ps)) for cid, ps in per_curve.items()
    }
    for cid in range(len(curves)):
        boundary_pieces.setdefault(cid, [curves[cid]])
    trim_pieces = (
        split_curve(spec.trim_curve, _interior(trim_params))
        if spec.trim_curve is not None
        else []
    )

    patches = []
    for bid, block in enumerate(spec.blocks):
        center = block["center"]
        c1 = block.get("c1", 1.0)
        c2 = block.get("c2", 0.0)
        loop = [
            _resolve(ref, boundary_pieces, trim_pieces, degree) for ref in block["loop"]
        ]
        for ca, cb in zip(loop, loop[1:] + loop[:1]):
            if np.max(np.abs(ca.end() - cb.start())) > 1e-9:
                raise GeometryError(
                    "block %d boundary loop is open between %s and %s"
                    % (bid, ca.end(), cb.start()),
                    tag="topology-error",
                )
        for cur in loop:
            pa = SBPatch(cur, center, c1, c2)
            if validate_star_shape(pa, samples=200) <= 0.0:
                raise GeometryError(
                    "block %d is not star-shaped w.r.t. its center" % bid,
                    tag="not-star-shaped",
                )
            patches.append(pa)
    return make_domain(patches)
