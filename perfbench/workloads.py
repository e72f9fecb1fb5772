"""Workload definitions, reference values and correctness checks.

A workload is a list of studies; a study is one case config from
``configs/`` run at each of its ``study.segments``.  One pass runs every
case of every study.  A case makes the calls ``sbiga run`` makes for one
refinement level (``harness.run_case``): build the space, ``solve_plate``,
``error_norms`` when an exact solution is known, and the deflection at the
evaluation point.  Solutions are not kept across cases.

The checks compare against references computed here, apart from the
program (a Levy series, published figures), or against properties the
method must have (convergence orders, symmetry).  Every check also runs on
a deliberately perturbed solution and must fail there.
"""

import pathlib

import numpy as np

from sbiga import geometry, harness, plate

CONFIG_DIR = pathlib.Path(__file__).resolve().parent / "configs"

# Published reference figures (paper, clamped smooth square p=3, h=1/8, and
# the perforated disk centre deflection).
PINNED_P3_S8 = {"h2": 0.2684, "l2": 2.048e-4}
DISK_CENTRE_REF = 0.008950

# The perforated disk is symmetric under the dihedral group of the square;
# its discrete solution agrees with its images to about 5e-7 relative.
SYMMETRY_TOL = 1e-5
SYMMETRY_POINTS = 3

# Relative size of the perturbation applied to solutions in the controls.
PERTURBATION = 5e-2


def levy_centre_deflection(F=1.0, a=1.0, D=1.0, terms=2000):
    """Centre deflection of a simply supported square plate under a centre
    point load, single (Levy) series of Timoshenko & Woinowsky-Krieger:
    w = F a^2 / (2 pi^3 D) sum_{m odd} (tanh am - am sech^2 am) / m^3,
    am = m pi / 2.  The truncation error is below 1e-7 relative.
    """
    m = np.arange(1, 2 * terms, 2, dtype=float)
    am = 0.5 * np.pi * m
    sech = 2.0 * np.exp(-am) / (1.0 + np.exp(-2.0 * am))
    return F * a * a / (2.0 * np.pi**3 * D) * np.sum((np.tanh(am) - am * sech**2) / m**3)


def solid_disk(q, D, nu, a=1.0):
    """Closed-form deflection of a simply supported solid disk of radius a
    under a uniform load q: w = q (a^2 - r^2) (k a^2 - r^2) / (64 D),
    k = (5 + nu) / (1 + nu)."""
    c, k = q / (64.0 * D), (5.0 + nu) / (1.0 + nu)

    def value(x, y):
        s = x * x + y * y
        return c * (a * a - s) * (k * a * a - s)

    def grad(x, y):
        t = 2.0 * c * (2.0 * (x * x + y * y) - (1.0 + k) * a * a)
        return t * x, t * y

    def hess(x, y):
        t = c * (4.0 * (x * x + y * y) - 2.0 * (1.0 + k) * a * a)
        return t + 8.0 * c * x * x, t + 8.0 * c * y * y, 8.0 * c * x * y

    return plate.ExactSolution(value, grad, hess)


def fitted_slope(hs, errs):
    """Least-squares slope of log(err) against log(h)."""
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


def dihedral_images(x, y):
    """The eight images of (x, y) under the symmetries of the square."""
    return [(x, y), (-y, x), (-x, -y), (y, -x), (x, -y), (-x, y), (y, x), (-y, -x)]


def disk_sample_points(rng, n):
    """Interior points of the perforated disk, clear of the holes, the
    rim and the hole rings (seeded; the only use of the seed)."""
    holes = np.array([[0.4, 0.0], [0.0, 0.4], [-0.4, 0.0], [0.0, -0.4]])
    pts = []
    while len(pts) < n:
        r, t = rng.uniform(0.05, 0.9), rng.uniform(0.0, 2.0 * np.pi)
        xy = np.array([r * np.cos(t), r * np.sin(t)])
        if np.min(np.hypot(*(holes - xy).T)) > 0.12:
            pts.append(xy)
    return pts


class Study:
    """One case config with its prepared inputs."""

    def __init__(self, name, config_file, sample_points=0, exact=None):
        self.name = name
        self.cfg = harness.CaseConfig.from_file(str(CONFIG_DIR / config_file))
        self.base, info = self.cfg.build_base_domain()
        self.loads = self.cfg.load_spec(info)
        self.exact = exact(self.cfg) if exact else self.cfg.exact_solution()
        self.segments = list(self.cfg.segments)
        self.sample_points = sample_points
        self.points = []
        self._located = {}

    def run_case(self, s):
        """The timed calls for one refinement level; returns (solution,
        outputs)."""
        cs = self.cfg.build_space(self.base, s)
        sol = plate.solve_plate(cs, self.cfg.material, self.loads, quad=self.cfg.quad_order)
        return sol, self.measure(sol)

    def measure(self, sol):
        """Error norms and the deflection at the evaluation point, as
        ``harness.run_case`` reports them."""
        out = {}
        if self.exact is not None:
            rep = plate.error_norms(sol, self.exact, quad=self.cfg.quad_order)
            out["h2"], out["l2"] = rep.h2_semi, rep.l2
        ep = (self.cfg.outputs or {}).get("eval_point")
        xy = np.asarray(ep, dtype=float) if ep is not None else sol.space.domain.groups[0].x0
        out["centre"] = deflection(sol, xy)
        return out

    def images(self, sol, s):
        """Untimed pointwise outputs: deflections at the dihedral images of
        each sample point.  The points are located once per level and run
        (``locate_point`` searches every patch); refinement keeps the patch
        order and parametrization, so later passes reuse the locations."""
        if s not in self._located:
            domain = sol.space.domain
            self._located[s] = [geometry.locate_point(domain, xy)
                                for p in self.points for xy in dihedral_images(*p)]
        u = plate.evaluate(sol, self._located[s], nders=0)
        return u.reshape(len(self.points), 8).tolist()


def deflection(sol, xy):
    m, z, x = geometry.locate_point(sol.space.domain, xy)
    return float(plate.evaluate(sol, [(m, z, x)], nders=0)[0])


def perturbed(sol, kind):
    """A copy of ``sol`` with its coefficients deliberately perturbed:
    ``scale`` multiplies them by 1 + PERTURBATION, ``noise`` adds a fixed
    pseudo-random vector of relative size PERTURBATION."""
    c = sol.coeffs
    if kind == "scale":
        c = c * (1.0 + PERTURBATION)
    else:
        xi = np.random.default_rng(12345).standard_normal(c.shape)
        c = c + PERTURBATION * np.max(np.abs(c)) * xi
    return plate.Solution(sol.space, c, sol.material, sol.loads, sol.residual, sol.cond_estimate)


# ----------------------------------------------------------------------
# checks: each takes {segments: outputs} of one study and returns a list
# of (name, ok, detail).  Each has a control: the outputs recomputed from
# perturbed solutions at the levels listed, which the check must reject.


def check_smooth_order(p):
    def check(res):
        segs = sorted(res)
        slope = fitted_slope([1.0 / s for s in segs], [res[s]["h2"] for s in segs])
        ok = abs(slope - (p - 1)) <= 0.3
        return [("h2-order-p%d" % p, ok, "fitted %.3f vs %d +- 0.3" % (slope, p - 1))]

    return check


def check_pinned_p3(res):
    h2, l2 = res[8]["h2"], res[8]["l2"]
    ok_h2 = abs(h2 - PINNED_P3_S8["h2"]) <= 0.1 * PINNED_P3_S8["h2"]
    ok_l2 = abs(l2 - PINNED_P3_S8["l2"]) <= 0.1 * PINNED_P3_S8["l2"]
    return [
        ("pinned-h2-p3-s8", ok_h2, "%.6g vs 0.2684 +- 10%%" % h2),
        ("pinned-l2-p3-s8", ok_l2, "%.6g vs 2.048e-4 +- 10%%" % l2),
    ]


def check_point_load(res):
    ref = levy_centre_deflection()
    limits = {4: 8e-3, 10: 2e-3}
    out = []
    for s, lim in limits.items():
        rel = abs(res[s]["centre"] / ref - 1.0)
        out.append(("point-load-s%d" % s, rel <= lim, "rel err %.3e (<= %.0e)" % (rel, lim)))
    return out


def check_stabilized_p5(res):
    h2_order = np.log(res[8]["h2"] / res[16]["h2"]) / np.log(2.0)
    return [
        ("stab-h2-order-p5", h2_order >= 5 - 1 - 0.3, "order %.3f (>= 3.7)" % h2_order),
        ("stab-l2-decreases", res[16]["l2"] < res[8]["l2"],
         "L2 %.3e -> %.3e" % (res[8]["l2"], res[16]["l2"])),
    ]


def check_disk_centre(res):
    rel = abs(res[2]["centre"] / DISK_CENTRE_REF - 1.0)
    return [("disk-centre", rel <= 5e-3, "u=%.6f, rel err %.2e (<= 5e-3)" % (res[2]["centre"], rel))]


def check_disk_symmetry(res):
    worst = 0.0
    for images in res[2]["images"]:
        worst = max(worst, max(abs(u - images[0]) for u in images))
    rel = worst / abs(res[2]["centre"])
    return [("disk-symmetry", rel <= SYMMETRY_TOL, "max image deviation %.2e rel (<= %.0e)" % (rel, SYMMETRY_TOL))]


class Check:
    """A study-level check and the perturbation of its control."""

    def __init__(self, study, func, kind, levels):
        self.study, self.func, self.kind, self.levels = study, func, kind, levels


class Workload:
    """Studies (as ``Study`` arguments), checks, and the nominal seconds of
    one pass on the reference machine, which fixes the number of passes a
    run makes (see ``run.py``)."""

    def __init__(self, studies, checks, pass_seconds):
        self.studies, self.checks, self.pass_seconds = studies, checks, pass_seconds


WORKLOADS = {
    "square_convergence": Workload(
        [("smooth_p3", "square_smooth_p3.json"),
         ("smooth_p4", "square_smooth_p4.json"),
         ("pointload_p3", "square_pointload_p3.json")],
        [Check("smooth_p3", check_smooth_order(3), "scale", [16]),
         Check("smooth_p4", check_smooth_order(4), "scale", [16]),
         Check("smooth_p3", check_pinned_p3, "scale", [8]),
         Check("pointload_p3", check_point_load, "scale", [4, 10])],
        pass_seconds=9.0,
    ),
    "stabilized_p5": Workload(
        [("stabilized_p5", "square_stabilized_p5.json")],
        [Check("stabilized_p5", check_stabilized_p5, "scale", [16])],
        pass_seconds=16.0,
    ),
    "perforated_disk": Workload(
        # The perforated disk has no exact solution; its error norms are taken
        # against the solid disk, so that the error-norm layer also runs on
        # the 25-block trimmed geometry.  They measure the holes' effect and
        # are reported, not checked.
        [("perforated_disk", "perforated_disk_s2.json", SYMMETRY_POINTS,
          lambda cfg: solid_disk(1.0, cfg.material.D, cfg.material.nu))],
        [Check("perforated_disk", check_disk_centre, "scale", [2]),
         Check("perforated_disk", check_disk_symmetry, "noise", [2])],
        pass_seconds=8.0,
    ),
}
