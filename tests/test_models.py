import numpy as np
import pytest

from sbiga.geometry import validate_star_shape
from sbiga.models import disk4, fan2, l_bracket, perforated_disk, square4, two_blocks_square


class TestBasicModels:
    def test_square4_geometry(self):
        dom = square4(degree=3, side=1.0, offset=(-0.15, 0.1))
        assert len(dom.patches) == 4
        assert np.allclose(dom.groups[0].x0, [-0.15, 0.1])

    def test_disk4_is_round(self):
        dom = disk4(degree=4, radius=2.0)
        rng = np.random.default_rng(0)
        for pa in dom.patches:
            pts = pa.curve.eval(rng.uniform(0, 1, 20))
            assert np.allclose(np.hypot(pts[:, 0], pts[:, 1]), 2.0, atol=1e-12)

    def test_fan2_covers_unit_square(self):
        dom = fan2(degree=2)
        rng = np.random.default_rng(1)
        for pa in dom.patches:
            pts = pa.map(rng.uniform(0, 1, 30), rng.uniform(0, 1, 30))
            assert np.all(pts >= -1e-12) and np.all(pts <= 1 + 1e-12)

    def test_two_blocks_have_straight_interface(self):
        dom = two_blocks_square(degree=3)
        outer = [i for i in dom.interfaces if i.kind == "outer"]
        assert len(outer) == 1
        assert dom.patches[outer[0].left].outer_edge_curve().is_straight()


class TestExtendedModels:
    def test_perforated_disk_layout(self):
        dom, info = perforated_disk(degree=3)
        assert len(dom.groups) == 25
        assert len(info["rim_arcs"]) == 8
        assert len(info["hole_arcs"]) == 16
        assert min(validate_star_shape(pa, samples=120) for pa in dom.patches) > 0
        # every patch of the disk has positive orientation and the rim arcs
        # lie on the unit circle
        for k in info["rim_arcs"]:
            pts = dom.patches[k].curve.eval(np.linspace(0, 1, 9))
            assert np.allclose(np.hypot(pts[:, 0], pts[:, 1]), 1.0, atol=1e-12)

    def test_l_bracket_layout(self):
        dom, info = l_bracket(degree=3)
        assert len(dom.groups) == 20
        assert len(info["hole_arcs"]) == 8
        assert len(info["load_edges"]) == 1
        assert min(validate_star_shape(pa, samples=120) for pa in dom.patches) > 0
        edge = dom.patches[info["load_edges"][0]].outer_edge_curve()
        assert np.allclose(edge.eval(np.linspace(0, 1, 5))[:, 0], 3.0, atol=1e-12)

    def test_extended_domains_area(self):
        from reference_kernels import domain_area
        from sbiga.space import UncoupledSpace

        dom, _ = perforated_disk(degree=2)
        cs_like = UncoupledSpace.from_domain(dom.with_segments(1, 1, 1))

        class Stub:
            uspace = cs_like
            domain = cs_like.domain

        exact = np.pi - 4 * np.pi * 0.05**2
        assert domain_area(Stub, quad=7) == pytest.approx(exact, rel=1e-8)

        dom, _ = l_bracket(degree=2)
        us = UncoupledSpace.from_domain(dom.with_segments(1, 1, 1))

        class Stub2:
            uspace = us
            domain = us.domain

        exact = 1.0 * 3 + 2.0 * 1 - 2 * np.pi * 0.15**2
        assert domain_area(Stub2, quad=7) == pytest.approx(exact, rel=1e-8)


class TestRefinementInvariance:
    @pytest.mark.parametrize("builder", ["square4", "disk4", "fan2", "two_blocks_square"])
    def test_geometry_preserved_under_refinement(self, builder):
        import sbiga.models as models

        dom = getattr(models, builder)(degree=3)
        ref = dom.with_segments(3, 2, 1)
        rng = np.random.default_rng(13)
        for m, (pa, pb) in enumerate(zip(dom.patches, ref.patches)):
            zs, xs = rng.uniform(0, 1, (2, 30))
            assert np.max(np.abs(pa.map(zs, xs) - pb.map(zs, xs))) <= 1e-12

    def test_extended_geometry_preserved(self):
        dom, _ = perforated_disk(degree=3)
        ref = dom.with_segments(2, 2, 1)
        rng = np.random.default_rng(14)
        for pa, pb in zip(dom.patches[::7], ref.patches[::7]):
            zs, xs = rng.uniform(0, 1, (2, 10))
            assert np.max(np.abs(pa.map(zs, xs) - pb.map(zs, xs))) <= 1e-12
