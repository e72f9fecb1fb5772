"""Two-mesh stabilization: a radially refined coarse basis near the singular
center combined with the fine basis away from it tames the conditioning of
fine meshes."""

from sbiga.models import square4
from sbiga.coupling import build_coupled_space
from sbiga.plate import (
    LoadSpec, PlateMaterial, cos2_square, error_norms, manufactured_rhs, solve_plate,
)
from sbiga.stabilize import build_combined_space

p = 4
exact = cos2_square()
mat = PlateMaterial(E=1e4, nu=0.0, D=1.0)
loads = LoadSpec(surface=manufactured_rhs(exact, mat.D))

print("p=%d clamped square: plain space vs combined (stabilized) space" % p)
print("%-8s %-14s %-14s" % ("h", "L2 (plain)", "L2 (combined)"))
for s in (4, 8, 12, 16):
    dom = square4(degree=p, bc={"all": "clamped"}).with_segments(s, s, 1)
    sol = solve_plate(build_coupled_space(dom), mat, loads, cond=False)
    l2_plain = error_norms(sol, exact).l2
    cs = build_combined_space(square4(degree=p, bc={"all": "clamped"}), s, 1)
    sol2 = solve_plate(cs, mat, loads, cond=False)
    l2_comb = error_norms(sol2, exact).l2
    print("1/%-6d %-14.5g %-14.5g" % (s, l2_plain, l2_comb))
print("\n(the gap widens on finer meshes and higher degrees, where the plain")
print(" space's condition number explodes near the scaling center)")
