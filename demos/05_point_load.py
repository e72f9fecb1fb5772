"""Simply supported square plate with a point load applied exactly at the
(singular) scaling center, against the series reference deflection."""

from sbiga.coupling import build_coupled_space
from sbiga.geometry import locate_point
from sbiga.models import square4
from sbiga.plate import (
    LoadSpec, PlateMaterial, evaluate, point_load_reference, solve_plate,
)

uref = point_load_reference(terms=4001)
print("series reference center deflection: %.6f" % uref)

mat = PlateMaterial(E=1e6, nu=0.0, D=1.0)
loads = LoadSpec(point_loads=[((0.0, 0.0), 1.0)])
for s in (4, 6, 8, 10):
    dom = square4(degree=3, offset=(0, 0), bc={"all": "simply_supported"}).with_segments(s, s, 1)
    cspace = build_coupled_space(dom)
    sol = solve_plate(cspace, mat, loads)
    pt = locate_point(dom, (0.0, 0.0))
    uc = float(evaluate(sol, [pt], nders=0)[0])
    print("h=1/%-3d u_center=%.7f  |1-u/uref| = %.3e" % (s, uc, abs(1 - uc / uref)))
