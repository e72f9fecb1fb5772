import numpy as np
import pytest

from sbiga.errors import GeometryError
from sbiga.geometry import SBPatch, circle_arc, line_curve, make_domain
from sbiga.models import (
    chamfered_square,
    square_with_circle_hole,
    square_with_hole,
)
from sbiga.trim import TrimSpec, assemble_trimmed_domain, split_curve


class TestSplitCurve:
    def test_line_halves(self):
        line = line_curve((0.0, 0.0), (2.0, 1.0), 3)
        a, b = split_curve(line, [0.5])
        assert np.allclose(a.eval_one(0.0), [0, 0]) and np.allclose(a.eval_one(1.0), [1.0, 0.5])
        assert np.allclose(b.eval_one(0.0), [1.0, 0.5]) and np.allclose(b.eval_one(1.0), [2, 1])
        for seg in (a, b):
            d = seg.points - seg.points[0]
            assert np.max(np.abs(d[:, 0] * 1.0 - d[:, 1] * 2.0)) <= 1e-13

    def test_concatenated_reproduction(self):
        arc = circle_arc((0.3, -0.2), 1.3, 0.2, -1.1, 3)
        params = [0.21, 0.55, 0.83]
        segs = split_curve(arc, params)
        bounds = [0.0] + params + [1.0]
        ts = np.linspace(0, 1, 200)
        for seg, lo, hi in zip(segs, bounds[:-1], bounds[1:]):
            orig = arc.eval(lo + ts * (hi - lo))
            assert np.max(np.abs(seg.eval(ts) - orig)) <= 1e-12

    def test_quarter_circle_pieces_on_circle(self):
        arc = circle_arc((0.0, 0.0), 1.0, 0.0, -0.5 * np.pi, 3)
        for seg in split_curve(arc, [0.3]):
            pts = seg.eval(np.linspace(0, 1, 60))
            assert np.max(np.abs(np.hypot(pts[:, 0], pts[:, 1]) - 1.0)) <= 1e-12

    def test_idempotent_at_existing_break(self):
        line = line_curve((0.0, 0.0), (1.0, 0.0), 2)
        once = split_curve(line.insert_knot(0.5, 3), [0.5])
        twice = split_curve(line, [0.5])
        assert len(once) == len(twice) == 2
        for a, b in zip(once, twice):
            assert np.allclose(a.points, b.points)

    def test_param_outside_rejected(self):
        line = line_curve((0.0, 0.0), (1.0, 0.0), 2)
        with pytest.raises(GeometryError):
            split_curve(line, [0.0])


class TestAssembleTrimmedDomain:
    def test_chamfered_square_is_five_patches(self):
        square, spec = chamfered_square(degree=3)
        dom = assemble_trimmed_domain(square, spec)
        assert len(dom.patches) == 5
        assert len(dom.groups) == 1

    def test_trivial_trim_keeps_domain(self):
        # a "trim" that keeps every original curve reproduces the square
        degree = 2
        loop = [("boundary", cid, 0, False) for cid in range(4)]
        spec = TrimSpec(blocks=[{"center": (0.5, 0.5), "loop": loop}])
        square = make_domain(
            [
                SBPatch(c, (0.5, 0.5))
                for c in (
                    line_curve((0, 0), (0, 1), degree),
                    line_curve((0, 1), (1, 1), degree),
                    line_curve((1, 1), (1, 0), degree),
                    line_curve((1, 0), (0, 0), degree),
                )
            ]
        )
        dom = assemble_trimmed_domain(square, spec)
        assert len(dom.patches) == 4
        for pa, pb in zip(dom.patches, square.patches):
            assert np.allclose(pa.curve.points, pb.curve.points)

    def test_open_loop_rejected(self):
        degree = 2
        loop = [("line", (0.0, 0.0), (1.0, 0.0)), ("line", (1.0, 0.5), (0.0, 0.0))]
        spec = TrimSpec(blocks=[{"center": (0.5, 0.1), "loop": loop}])
        square = make_domain([SBPatch(line_curve((0, 1), (1, 1), degree), (0.5, 0.0))])
        with pytest.raises(GeometryError, match="open"):
            assemble_trimmed_domain(square, spec)

    def test_not_star_shaped_rejected(self):
        square, spec = chamfered_square(degree=2)
        spec.blocks[0]["center"] = (0.95, 0.05)  # inside the cut-off corner
        with pytest.raises(GeometryError):
            assemble_trimmed_domain(square, spec)

    def test_intersection_consistency_enforced(self):
        square, spec = chamfered_square(degree=3)
        bad = TrimSpec(
            trim_curve=spec.trim_curve,
            intersections=[(3, 0.7, 0.0)],  # gamma_3(0.7) != gamma_T(0)
            blocks=spec.blocks,
        )
        with pytest.raises(GeometryError):
            assemble_trimmed_domain(square, bad)

    def test_interior_loop_two_blocks_straight_interfaces(self):
        square, spec = square_with_hole(degree=3)
        dom = assemble_trimmed_domain(square, spec)
        assert len(dom.groups) == 2
        outer = [i for i in dom.interfaces if i.kind == "outer"]
        assert len(outer) == 2
        for itf in outer:
            assert dom.patches[itf.left].outer_edge_curve().is_straight(1e-10)


class TestTrimmedAreas:
    def test_chamfer_area(self):
        from sbiga.coupling import build_coupled_space
        from reference_kernels import domain_area

        square, spec = chamfered_square(degree=3)
        dom = assemble_trimmed_domain(square, spec)
        cs = build_coupled_space(dom.with_segments(2, 2, 1))
        assert domain_area(cs) == pytest.approx(1.0 - 0.5 * 0.4 * 0.4, rel=1e-12)

    def test_circle_hole_area(self):
        from sbiga.coupling import build_coupled_space
        from reference_kernels import domain_area

        square, spec = square_with_circle_hole(degree=3, r=0.15)
        dom = assemble_trimmed_domain(square, spec)
        cs = build_coupled_space(dom.with_segments(2, 2, 1))
        exact = 1.0 - np.pi * 0.15**2
        assert domain_area(cs, quad=8) == pytest.approx(exact, rel=1e-6)

    def test_diamond_hole_area(self):
        from sbiga.coupling import build_coupled_space
        from reference_kernels import domain_area

        square, spec = square_with_hole(degree=3, half_diagonal=0.15)
        dom = assemble_trimmed_domain(square, spec)
        cs = build_coupled_space(dom.with_segments(2, 2, 1))
        assert domain_area(cs) == pytest.approx(1.0 - 2 * 0.15**2, rel=1e-12)
