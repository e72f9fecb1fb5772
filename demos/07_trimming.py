"""Trimming by exact knot insertion: a chamfered square (boundary trim) and
a square with an interior hole split into two star blocks by cut lines."""

import numpy as np

from sbiga.coupling import build_coupled_space, reproduction_vector
from sbiga.models import chamfered_square, square_with_hole
from sbiga.plate import LoadSpec, assemble_load


def area(cs):
    """Integral of 1 over the domain: the unit load tested with the
    coupled coefficients of the constant 1."""
    unit = LoadSpec(surface=lambda x, y: np.ones_like(x))
    return assemble_load(cs, unit) @ reproduction_vector(cs, "1")


dom = chamfered_square(degree=3)
cs = build_coupled_space(dom.with_segments(2, 2, 1))
print("chamfered square: %d patches, 1 center" % len(dom.patches))
print("  area %.12f (exact %.12f)" % (area(cs), 1 - 0.5 * 0.4 * 0.4))

dom = square_with_hole(degree=3)
cs = build_coupled_space(dom.with_segments(2, 2, 1))
outer = [i for i in dom.interfaces if i.kind == "outer"]
print("\nsquare with interior hole: %d patches, %d centers, %d straight cut interfaces"
      % (len(dom.patches), len(dom.groups), len(outer)))
print("  area %.12f (exact %.12f)" % (area(cs), 1 - 2 * 0.15**2))
print("  C1 space dimension:", cs.N6)
