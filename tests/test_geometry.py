import importlib.util
import pathlib

import numpy as np
import pytest

from reference_kernels import locate_point_bisection
from sbiga import geometry
from sbiga.errors import GeometryError
from sbiga.geometry import (
    NurbsCurve,
    SBPatch,
    circle_arc,
    line_curve,
    locate_point,
    make_domain,
    validate_star_shape,
)
from sbiga.models import disk4, perforated_disk, square4, two_blocks_square
from sbiga.splines import make_open_knot_vector


def make_curved_patch():
    """A curved singular patch: quarter arc, offset center."""
    arc = circle_arc((0.0, 0.0), 1.0, 0.3, -1.1, 3)
    return SBPatch(arc, (0.05, -0.1)).with_segments(2, 2, 1)


class TestSbEval:
    def test_singular_layer_collapses(self):
        pa = make_curved_patch()
        for z in (0.0, 0.3, 1.0):
            assert np.allclose(pa.map(z, 0.0), pa.x0, atol=1e-15)

    def test_outer_edge_is_boundary_curve(self):
        pa = make_curved_patch()
        for z in (0.0, 0.25, 0.8):
            assert np.allclose(pa.map(z, 1.0), pa.curve.eval_one(z), atol=1e-14)

    def test_straight_edge_midpoint(self):
        pa = SBPatch(line_curve((0.0, 1.0), (1.0, 1.0), 2), (0.5, 0.0))
        mid = pa.map(0.5, 1.0)
        assert np.allclose(mid, [0.5, 1.0], atol=1e-14)
        # ray midpoint between center and boundary midpoint
        assert np.allclose(pa.map(0.5, 0.5), [0.5, 0.5], atol=1e-14)

    def test_c2_positive_inner_edge(self):
        pa = SBPatch(line_curve((0.0, 1.0), (1.0, 1.0), 2), (0.5, 0.0), c1=0.5, c2=0.5)
        assert np.allclose(pa.map(0.5, 0.0), [0.5, 0.5], atol=1e-14)


class TestControlNet:
    def test_singular_first_layer(self):
        pa = make_curved_patch()
        net = pa.control_net()
        assert np.allclose(net[:, 0, :], pa.x0, atol=1e-15)

    def test_straight_boundary_radial_lines(self):
        pa = SBPatch(line_curve((0.0, 1.0), (1.0, 1.0), 3), (0.4, 0.0)).with_segments(2, 3, 1)
        net = pa.control_net()
        for i in range(net.shape[0]):
            d = net[i] - pa.x0
            cross = d[:, 0] * d[-1, 1] - d[:, 1] * d[-1, 0]
            assert np.max(np.abs(cross)) <= 1e-13

    def test_reproduces_map(self):
        # verification is built into control_net; also check explicitly
        pa = make_curved_patch()
        net = pa.control_net()
        from sbiga.splines import ders_basis

        rng = np.random.default_rng(0)
        for z, x in rng.uniform(0, 1, (100, 2)):
            (f1,), (Dz,) = ders_basis(pa.curve.kv, np.array([z]), 0)
            w = pa.curve.weights[f1 : f1 + pa.p + 1] * Dz[0]
            w /= w.sum()
            (f2,), (Dx,) = ders_basis(pa.radial, np.array([x]), 0)
            sub = net[f1 : f1 + pa.p + 1, f2 : f2 + pa.p + 1]
            val = np.einsum("i,j,ijk->k", w, Dx[0], sub)
            assert np.allclose(val, pa.map(z, x), atol=1e-12)


class TestGeomEval:
    def test_detj_formula_singular(self):
        pa = make_curved_patch()
        rng = np.random.default_rng(1)
        for z, x in rng.uniform(0.01, 1.0, (50, 2)):
            g, g1 = pa.curve.eval_one(z, nders=1)
            d = g1[0] * (g[1] - pa.x0[1]) - g1[1] * (g[0] - pa.x0[0])
            ge = pa.geom_eval(z, x)
            assert ge["det"][0] == pytest.approx(x * pa.c1**2 * d, rel=1e-12)

    def test_jacobian_finite_differences(self):
        pa = make_curved_patch()
        rng = np.random.default_rng(2)
        eps = 1e-6
        for z, x in rng.uniform(0.05, 0.95, (100, 2)):
            ge = pa.geom_eval(z, x)
            fd0 = (pa.map(z + eps, x) - pa.map(z - eps, x)) / (2 * eps)
            fd1 = (pa.map(z, x + eps) - pa.map(z, x - eps)) / (2 * eps)
            assert np.allclose([ge["J11"][0], ge["J21"][0]], fd0, rtol=1e-6, atol=1e-8)
            assert np.allclose([ge["J12"][0], ge["J22"][0]], fd1, rtol=1e-6, atol=1e-8)

    def test_singular_point_rejected(self):
        pa = make_curved_patch()
        with pytest.raises(GeometryError):
            pa.geom_eval(0.5, 0.0)

    def test_radial_scaling_of_jacobian(self):
        # c2 = 0: the zeta column of J scales linearly in xi
        pa = make_curved_patch()
        for z in (0.2, 0.7):
            j1 = np.array([pa.geom_eval(z, 0.25)[k][0] for k in ("J11", "J21")])
            j2 = np.array([pa.geom_eval(z, 0.5)[k][0] for k in ("J11", "J21")])
            assert np.allclose(2 * j1, j2, rtol=1e-10)


class TestPhysicalDerivs:
    def test_linear_field_zero_hessian(self):
        # physical field x has gradient (1,0) and zero Hessian; its pullback
        # coefficients are the control net x-coordinates
        pa = make_curved_patch()
        net = pa.control_net()
        from sbiga.space import UncoupledSpace

        dom = make_domain([pa])
        us = UncoupledSpace.from_domain(dom)
        coeffs = net[:, :, 0].ravel()
        rng = np.random.default_rng(3)
        for z, x in rng.uniform(0.05, 0.95, (30, 2)):
            idx, V, G, H = us.physical_eval(0, z, x, nders=2)
            c = coeffs[idx]
            assert c @ V == pytest.approx(pa.map(z, x)[0], abs=1e-12)
            assert np.allclose(c @ G, [1.0, 0.0], atol=1e-10)
            assert np.max(np.abs(np.einsum("n,nij->ij", c, H))) <= 1e-9

    def test_field_finite_differences(self):
        pa = make_curved_patch()
        from sbiga.space import UncoupledSpace

        dom = make_domain([pa])
        us = UncoupledSpace.from_domain(dom)
        rng = np.random.default_rng(4)
        coeffs = rng.standard_normal(us.N)

        def field(xy):
            m, z, x = locate_point(dom, xy)
            idx, V = us.parametric_eval(m, z, x, nders=0)[:2]
            return coeffs[idx] @ V

        for _ in range(10):
            z, x = rng.uniform(0.3, 0.7, 2)
            xy = pa.map(z, x)
            idx, V, G, H = us.physical_eval(0, z, x, nders=2)
            g = coeffs[idx] @ G
            eps = 1e-6
            fdx = (field(xy + [eps, 0]) - field(xy - [eps, 0])) / (2 * eps)
            fdy = (field(xy + [0, eps]) - field(xy - [0, eps])) / (2 * eps)
            assert g[0] == pytest.approx(fdx, rel=2e-5, abs=1e-7)
            assert g[1] == pytest.approx(fdy, rel=2e-5, abs=1e-7)

    def test_functional_form(self):
        pa = make_curved_patch()
        from sbiga.space import UncoupledSpace

        us = UncoupledSpace.from_domain(make_domain([pa]))
        _, vals, grads, hess = us.physical_eval(0, 0.4, 0.6, nders=2)
        assert vals.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(grads.sum(axis=0), 0, atol=1e-9)
        assert np.max(np.abs(hess.sum(axis=0))) <= 1e-7


def _dense(idx, vals, N):
    """Rows of per-point (index, value) pairs as a dense (npts, N) array."""
    out = np.zeros((len(idx), N))
    rows = np.broadcast_to(np.arange(len(idx))[:, None], idx.shape)
    keep = idx >= 0
    out[rows[keep], idx[keep]] = vals[keep]
    return out


class TestOneGeometryKernel:
    """Points and quadrature rows share sb_geometry and the pullback."""

    @pytest.fixture(params=["disk4", "stabilized"])
    def uspace(self, request):
        from sbiga.space import UncoupledSpace
        from sbiga.stabilize import build_combined_space

        if request.param == "disk4":
            return UncoupledSpace.from_domain(disk4(degree=3).with_segments(2, 2, 1))
        us = build_combined_space(square4(degree=3), 4, 1).uspace
        assert len(us.blocks[0]) == 2
        return us

    def test_physical_eval_matches_rows(self, uspace):
        tab = uspace.quad_tables(0, 4, 4)
        S1, nq1, nq2 = tab.S1, tab.nq1, tab.nq2
        c = np.random.default_rng(6).standard_normal(uspace.N)
        patch_field = tab.field(c)[:4]
        patch_geo = tab.patch_geometry()
        for s2 in range(tab.S2):
            IDX, H11, H22, H12, _ = tab.row_physical(s2, patch_geo)
            # the patch grid's columns s2*nq2 .. (s2+1)*nq2 are row s2
            field = [f[:, s2 * nq2 : (s2 + 1) * nq2] for f in patch_field]
            # row point q = q1 * nq2 + q2 of zeta span s1
            z = np.repeat(tab.Znodes, nq2, axis=1).ravel()
            x = np.tile(tab.Xnodes[s2], S1 * nq1)
            idx, V, _, H = uspace.physical_eval(0, z, x)
            row_idx = np.repeat(IDX, nq1 * nq2, axis=0)
            point = (H[..., 0, 0], H[..., 1, 1], H[..., 0, 1])
            for Hp, Hr in zip(point, (H11, H22, H12)):
                ref = _dense(row_idx, Hr.transpose(0, 2, 1).reshape(len(z), -1), uspace.N)
                got = _dense(idx, Hp, uspace.N)
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
            cw = np.where(idx >= 0, c[idx], 0.0)
            for vals, ref in zip((V,) + point, field):
                got = np.einsum("nk,nk->n", cw, vals)
                assert np.max(np.abs(got - ref.ravel())) <= 1e-13 * np.max(np.abs(ref))

    def test_edge_normal_matches_solve(self, uspace):
        patch = uspace.domain.patches[0]
        z, x = np.random.default_rng(7).uniform(0.01, 1.0, (2, 50))
        ge = patch.geom_eval(z, x)
        jac = np.stack([np.stack([ge["J11"], ge["J12"]], axis=-1),
                        np.stack([ge["J21"], ge["J22"]], axis=-1)], axis=-2)
        for ndir in ((1.0, 0.0), (0.0, 1.0)):
            rhs = np.broadcast_to(np.array(ndir), (len(z), 2))[..., None]
            ref = np.linalg.solve(np.swapaxes(jac, -1, -2), rhs)[..., 0]
            ref /= np.hypot(ref[:, 0], ref[:, 1])[:, None]
            assert np.max(np.abs(patch.edge_normal(z, x, ndir) - ref)) <= 1e-13


class TestRefine:
    def test_geometry_invariance(self):
        pa = make_curved_patch()
        ref = pa.with_segments(4, 4, 1)
        rng = np.random.default_rng(5)
        zs, xs = rng.uniform(0, 1, (2, 100))
        assert np.max(np.abs(pa.map(zs, xs) - ref.map(zs, xs))) <= 1e-12

    def test_segments_double(self):
        pa = make_curved_patch()
        ref = pa.with_segments(8, 4, 1)
        assert len(ref.curve.kv.breakpoints()) - 1 == 8
        assert len(ref.radial.breakpoints()) - 1 == 4

    def test_count_formula(self):
        pa = make_curved_patch().with_segments(4, 4, 1)
        assert pa.radial.n == 4 * 2 + 1 + 1
        assert pa.curve.n == 4 * 2 + 1 + 1


class TestMakeDomain:
    def test_offset_square_validates(self):
        dom = square4(degree=3, offset=(-0.15, 0.1))
        assert len(dom.interfaces) == 4
        assert all(i.kind == "radial" for i in dom.interfaces)

    def test_disk_validates(self):
        dom = disk4(degree=3)
        assert len(dom.interfaces) == 4

    def test_perturbed_corner_rejected(self):
        c1 = line_curve((0.0, 1.0), (1.0, 1.0), 2)
        c2 = line_curve((1.0 + 1e-9, 1.0), (1.0, 0.0), 2)
        with pytest.raises(GeometryError):
            make_domain([SBPatch(c1, (0, 0)), SBPatch(c2, (0, 0))])

    def test_mixed_degree_rejected(self):
        c1 = line_curve((0.0, 1.0), (1.0, 1.0), 2)
        c2 = line_curve((1.0, 1.0), (1.0, 0.0), 3)
        with pytest.raises(GeometryError):
            make_domain([SBPatch(c1, (0, 0)), SBPatch(c2, (0, 0))])

    def test_wrong_orientation_rejected(self):
        c = line_curve((1.0, 1.0), (0.0, 1.0), 2)  # interior on the left
        with pytest.raises(GeometryError):
            make_domain([SBPatch(c, (0.5, 0.0))])

    def test_ambiguous_radial_interface_rejected(self):
        # a second copy of the top edge also starts where the left edge ends
        ends = [(0, 0), (0, 1), (1, 1), (1, 0), (0, 0)]
        loop = [line_curve(a, b, 2) for a, b in zip(ends, ends[1:])]
        with pytest.raises(GeometryError, match="ambiguous radial interface at patch 0-4"):
            make_domain([SBPatch(c, (0.5, 0.5)) for c in loop + [loop[1]]])

    @staticmethod
    def _two_blocks_with_cut(left_cut, right_cut):
        """The patches of two_blocks_square with the curves of the cut line
        x = 1/2 (patch 3 of the left block, patch 5 of the right) replaced."""
        patches = list(two_blocks_square(degree=2).patches)
        for k, curve in ((3, left_cut), (5, right_cut)):
            patches[k] = SBPatch(curve, patches[k].x0)
        return patches

    def test_coinciding_outer_edges_must_mirror(self):
        # the same line, but one side carries an extra knot
        cut = line_curve((0.5, 1.0), (0.5, 0.0), 2)
        patches = self._two_blocks_with_cut(cut.insert_knot(0.5), cut.reversed_curve())
        with pytest.raises(GeometryError, match="control data does not mirror"):
            make_domain(patches)

    def test_curved_interface_between_groups_rejected(self):
        cut = NurbsCurve(make_open_knot_vector(2, 1, 1), [(0.5, 1.0), (0.55, 0.5), (0.5, 0.0)])
        patches = self._two_blocks_with_cut(cut, cut.reversed_curve())
        with pytest.raises(GeometryError, match="not straight"):
            make_domain(patches)

    def test_outer_edge_curve_built_once_per_patch(self, monkeypatch):
        # make_domain builds each patch's xi = 1 edge once; refinement
        # carries the topology over and builds none
        calls = []
        edge_curve = SBPatch.outer_edge_curve

        def counted(self):
            calls.append(self)
            return edge_curve(self)

        base, _ = perforated_disk(degree=3)
        monkeypatch.setattr(SBPatch, "outer_edge_curve", counted)
        dom = make_domain(base.patches)
        assert len(calls) == len(dom.patches) == len({id(pa) for pa in calls})
        calls.clear()
        dom.with_segments(2, 2, 1)
        assert calls == []

    def test_end_points_compared_once_per_group(self, monkeypatch):
        # one array comparison for the centers, one per group for the radial
        # interfaces and one for the outer ones, not one per pair of patches
        calls = []
        point_gaps = geometry._point_gaps

        def counted(P, Q):
            calls.append((len(P), len(Q)))
            return point_gaps(P, Q)

        base, _ = perforated_disk(degree=3)
        monkeypatch.setattr(geometry, "_point_gaps", counted)
        dom = make_domain(base.patches)
        assert len(calls) == len(dom.groups) + 2

    def test_refined_tags_are_copies(self):
        base = square4(degree=2, bc={"all": "clamped"})
        ref = base.with_segments(2, 2, 1)
        ref.boundary_for(2).tag = "free"
        assert base.boundary_for(2).tag == "clamped"
        assert ref.boundary_for(1).tag == "clamped"

    def test_bc_tags(self):
        dom = square4(degree=2, bc={"all": "clamped", 2: "free"})
        tags = {be.patch: be.tag for be in dom.boundary if be.edge == "outer"}
        assert tags == {0: "clamped", 1: "clamped", 2: "free", 3: "clamped"}
        with pytest.raises(GeometryError):
            square4(degree=2, bc={"all": "weird"})


class TestStarShape:
    def test_convex_positive(self):
        assert validate_star_shape(make_curved_patch()) > 0

    def test_quarter_disk_positive(self):
        arc = circle_arc((0, 0), 1.0, 0.0, -0.5 * np.pi, 2)
        assert validate_star_shape(SBPatch(arc, (0, 0))) > 0

    def test_center_outside_kernel_negative(self):
        # S-shaped boundary: the angular sweep around the center reverses,
        # so some rays from the center cross the curve twice
        kv = make_open_knot_vector(2, 2, 0)
        pts = np.array([[2.0, 0.0], [1.2, 0.3], [1.7, 0.8], [0.6, 0.5], [0.0, 0.0]])
        curve = NurbsCurve(kv, pts)
        pa = SBPatch(curve, (1.0, 3.0), c1=1.0, c2=0.0)
        assert validate_star_shape(pa, samples=800) < 0


class TestLocatePoint:
    def test_round_trip(self):
        dom = square4(degree=3)
        rng = np.random.default_rng(6)
        for _ in range(25):
            m = rng.integers(0, 4)
            z, x = rng.uniform(0.05, 0.95, 2)
            xy = dom.patches[m].map(z, x)
            mi, zi, xi = locate_point(dom, xy)
            assert np.allclose(dom.patches[mi].map(zi, xi), xy, atol=1e-9)

    def test_center_maps_to_xi_zero(self):
        dom = square4(degree=3, offset=(-0.15, 0.1))
        m, z, x = locate_point(dom, (-0.15, 0.1))
        assert x == 0.0

    def test_outside_raises(self):
        dom = square4(degree=3)
        with pytest.raises(GeometryError):
            locate_point(dom, (2.0, 2.0))

    def test_newton_matches_bisection_on_disk(self, monkeypatch):
        # the benchmark's disk sample points (seed 0) and their dihedral
        # images: the same patch and (zeta, xi) as the 80-step bisection,
        # with at most a tenth of its curve evaluations
        root = pathlib.Path(__file__).resolve().parents[1]
        spec = importlib.util.spec_from_file_location("perfbench_workloads", root / "perfbench" / "workloads.py")
        wl = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(wl)
        dom = perforated_disk(degree=3)[0].with_segments(2, 2, 1)
        pts = [xy for p in wl.disk_sample_points(np.random.default_rng(0), 3)
               for xy in wl.dihedral_images(*p)]
        calls = [0]
        curve_eval = NurbsCurve.eval

        def counted(self, *args, **kw):
            calls[0] += 1
            return curve_eval(self, *args, **kw)

        monkeypatch.setattr(NurbsCurve, "eval", counted)
        ref = [locate_point_bisection(dom, xy) for xy in pts]
        n_ref, calls[0] = calls[0], 0
        got = [locate_point(dom, xy) for xy in pts]
        assert 10 * calls[0] <= n_ref
        # the bracket values at zeta = 0 and 1 come from the end control
        # points, without a curve evaluation
        assert calls[0] <= 2800
        for (m, z, x), (mr, zr, xr) in zip(got, ref):
            assert m == mr and abs(z - zr) <= 1e-12 and abs(x - xr) <= 1e-12
