"""Scaled-boundary patches: the map F(z,x) = q(x)(gamma(z)-x0)+x0, control
nets, Jacobians, and star-shape validation."""

import numpy as np

from sbiga.geometry import SBPatch, circle_arc, validate_star_shape
from sbiga.models import square4

arc = circle_arc((0, 0), 1.0, 0.3, -1.1, degree=3)
patch = SBPatch(arc, x0=(0.05, -0.1)).with_segments(2, 2, 1)

print("singular patch (c2 = 0): inner edge collapses to the center")
for z in (0.0, 0.5, 1.0):
    print("  F(%.1f, 0) =" % z, patch.map(z, 0.0))

ge = {k: v[0] for k, v in patch.geom_eval(0.4, 0.6).items()}
jac = np.array([[ge["J11"], ge["J12"]], [ge["J21"], ge["J22"]]])
print("\nJacobian at (0.4, 0.6):\n", jac, "\n det =", ge["det"])
g, g1 = patch.curve.eval_one(0.4, nders=1)
d = g1[0] * (g[1] - patch.x0[1]) - g1[1] * (g[0] - patch.x0[0])
print(" det == xi*c1^2*d(zeta):", np.isclose(ge["det"], 0.6 * d))

net = patch.control_net()
print("\ncontrol net shape:", net.shape, "- first layer all at x0:",
      np.allclose(net[:, 0, :], patch.x0))

print("\nstar-shape margins (positive = star-shaped w.r.t. x0):")
print("  curved patch:", validate_star_shape(patch))
dom = square4(degree=3, offset=(-0.15, 0.1))
print("  offset-center square patches:",
      [round(float(validate_star_shape(pa)), 3) for pa in dom.patches])
