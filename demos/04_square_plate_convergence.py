"""Clamped square plate with a manufactured smooth solution: h-refinement
study and observed convergence orders."""

from sbiga.coupling import build_coupled_space
from sbiga.models import square4
from sbiga.plate import (
    LoadSpec, PlateMaterial, cos2_square, error_norms,
    manufactured_rhs, observed_orders, solve_plate,
)

p = 3
exact = cos2_square()
mat = PlateMaterial(E=1e4, nu=0.0, D=1.0)
loads = LoadSpec(surface=manufactured_rhs(exact, mat.D))

hs, h2s, l2s = [], [], []
print("p=%d, r=1, clamped, scaling center offset (-0.15, 0.1)" % p)
print("%-8s %-8s %-12s %-12s" % ("h", "N6", "H2-semi", "L2"))
for s in (4, 6, 8, 12, 16):
    dom = square4(degree=p, bc={"all": "clamped"}).with_segments(s, s, 1)
    cspace = build_coupled_space(dom)
    sol = solve_plate(cspace, mat, loads)
    rep = error_norms(sol, exact)
    hs.append(1.0 / s); h2s.append(rep.h2_semi); l2s.append(rep.l2)
    print("1/%-6d %-8d %-12.5g %-12.5g" % (s, cspace.N6, rep.h2_semi, rep.l2))

print("\nconsecutive H2 orders:", [round(float(o), 2) for o in observed_orders(hs, h2s)])
print("consecutive L2 orders:", [round(float(o), 2) for o in observed_orders(hs, l2s)])
