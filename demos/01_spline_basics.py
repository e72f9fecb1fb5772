"""B-spline and NURBS kernel tour: knot vectors, evaluation, derivatives,
knot insertion, and an exact circular arc."""

import numpy as np

from sbiga import KnotVector, make_open_knot_vector
from sbiga.splines import ders_basis
from sbiga.geometry import circle_arc

kv = make_open_knot_vector(p=3, segments=4, r=1)
print("open knot vector, p=3, 4 segments, C^1 interior:")
print(" ", kv.values)
print("  basis count n =", kv.n, "(= segments*(p-r) + r + 1)")

# the p+1 nonzero functions first..first+p at each parameter, with their
# derivatives: D[n, k, j] is the k-th derivative of function first[n] + j
ts = np.array([0.0, 0.37, 0.5, 1.0])
first, D = ders_basis(kv, ts, 1)
print("\npartition of unity and derivative sum:")
for t, f, Dt in zip(ts, first, D):
    print("  t=%.2f: functions %d..%d, values sum to %.15f, derivatives to %.1e"
          % (t, f, f + kv.p, Dt[0].sum(), Dt[1].sum()))

hat = KnotVector([0, 0, 1, 1], 1)
print("\nhat function at 0.25:", ders_basis(hat, np.array([0.25]), 0)[1][0, 0, 0])

arc = circle_arc((0, 0), 1.0, 0.0, -np.pi / 2, degree=3)
ts = np.linspace(0, 1, 9)
pts = arc.eval(ts)
print("\ncubic NURBS quarter arc radii:", np.round(np.hypot(pts[:, 0], pts[:, 1]), 14))

refined = arc.insert_knot(0.5, 2)
print("after knot insertion: control points %d -> %d, geometry drift %.2e"
      % (arc.n, refined.n, np.max(np.abs(arc.eval(ts) - refined.eval(ts)))))
