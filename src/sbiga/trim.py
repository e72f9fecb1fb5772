"""Trimming by exact knot insertion.

Boundary and trimming curves are split at given parameters by raising the
knot multiplicity to p+1 (a C^-1 break), which represents the original curve
exactly; the pieces are rescaled to [0, 1].  A builder regroups the pieces
and straight cut lines into the closed boundary loops of star-shaped blocks,
and :func:`star_blocks` turns those into a domain.  Split parameters and cut
lines are inputs, never computed.
"""

import numpy as np

from .errors import GeometryError
from .geometry import NurbsCurve, SBPatch, make_domain, validate_star_shape
from .splines import KnotVector

__all__ = ["split_curve", "star_blocks"]


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


def star_blocks(blocks):
    """Domain of star-shaped blocks given as (center, loop) pairs.

    A loop is a closed list of boundary curves with the interior on their
    right; each curve becomes one patch scaled from the block's center
    (q(xi) = xi).  Every loop must close and every patch must be
    star-shaped with respect to its center.  Patches are numbered block by
    block in loop order.  Returns (domain, index of each block's first
    patch).  Cut-line curves shared by two blocks become straight
    interfaces between center groups.
    """
    patches = []
    first = []
    for bid, (center, loop) in enumerate(blocks):
        for ca, cb in zip(loop, loop[1:] + loop[:1]):
            if np.max(np.abs(ca.end() - cb.start())) > 1e-9:
                raise GeometryError(
                    "block %d boundary loop is open between %s and %s"
                    % (bid, ca.end(), cb.start()),
                    tag="topology-error",
                )
        first.append(len(patches))
        for cur in loop:
            pa = SBPatch(cur, center)
            if validate_star_shape(pa, samples=200) <= 0.0:
                raise GeometryError(
                    "block %d is not star-shaped w.r.t. its center" % bid,
                    tag="not-star-shaped",
                )
            patches.append(pa)
    return make_domain(patches), first
