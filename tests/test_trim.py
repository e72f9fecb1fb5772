import numpy as np
import pytest

from sbiga.errors import GeometryError
from sbiga.geometry import SBPatch, circle_arc, line_curve, make_domain
from sbiga.models import chamfered_square, square_with_hole
from sbiga.trim import split_curve, star_blocks


def _chamfer_loop(degree, bottom_split=0.4):
    """Boundary loop of the chamfered square: the right side split at the
    trimming line's end (1, 0.4), the bottom at its start (0.6, 0) for
    ``bottom_split`` 0.4."""
    left = line_curve((0, 0), (0, 1), degree)
    top = line_curve((0, 1), (1, 1), degree)
    right = line_curve((1, 1), (1, 0), degree)
    bottom = line_curve((1, 0), (0, 0), degree)
    trim = line_curve((0.6, 0.0), (1.0, 0.4), degree)
    return [left, top, split_curve(right, [0.6])[0], trim.reversed_curve(),
            split_curve(bottom, [bottom_split])[1]]


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
    """Trimmed domains assembled from split curves by ``star_blocks``."""

    def test_chamfered_square_is_five_patches(self):
        dom = chamfered_square(degree=3)
        assert len(dom.patches) == 5
        assert len(dom.groups) == 1

    def test_trivial_trim_keeps_domain(self):
        # a block that keeps every original curve reproduces the square
        degree = 2
        loop = [
            line_curve((0, 0), (0, 1), degree),
            line_curve((0, 1), (1, 1), degree),
            line_curve((1, 1), (1, 0), degree),
            line_curve((1, 0), (0, 0), degree),
        ]
        square = make_domain([SBPatch(c, (0.5, 0.5)) for c in loop])
        dom, first = star_blocks([((0.5, 0.5), loop)])
        assert first == [0]
        assert len(dom.patches) == 4
        for pa, pb in zip(dom.patches, square.patches):
            assert np.allclose(pa.curve.points, pb.curve.points)

    def test_open_loop_rejected(self):
        degree = 2
        loop = [line_curve((0.0, 0.0), (1.0, 0.0), degree), line_curve((1.0, 0.5), (0.0, 0.0), degree)]
        with pytest.raises(GeometryError, match="open"):
            star_blocks([((0.5, 0.1), loop)])

    def test_not_star_shaped_rejected(self):
        # the center lies inside the cut-off corner
        with pytest.raises(GeometryError) as exc:
            star_blocks([((0.95, 0.05), _chamfer_loop(2))])
        assert exc.value.tag == "not-star-shaped"

    def test_intersection_consistency_enforced(self):
        # a split at the wrong parameter leaves the loop open: gamma_3(0.7)
        # is (0.3, 0), not the trimming line's start (0.6, 0)
        with pytest.raises(GeometryError, match="open") as exc:
            star_blocks([((0.4, 0.5), _chamfer_loop(3, bottom_split=0.7))])
        assert exc.value.tag == "topology-error"

    def test_interior_loop_two_blocks_straight_interfaces(self):
        dom = square_with_hole(degree=3)
        assert len(dom.groups) == 2
        outer = [i for i in dom.interfaces if i.kind == "outer"]
        assert len(outer) == 2
        for itf in outer:
            assert dom.patches[itf.left].outer_edge_curve().is_straight(1e-10)


class TestTrimmedAreas:
    def test_chamfer_area(self):
        from sbiga.coupling import build_coupled_space
        from reference_kernels import domain_area

        dom = chamfered_square(degree=3)
        cs = build_coupled_space(dom.with_segments(2, 2, 1))
        assert domain_area(cs) == pytest.approx(1.0 - 0.5 * 0.4 * 0.4, rel=1e-12)

    def test_circle_hole_area(self):
        from sbiga.coupling import build_coupled_space
        from reference_kernels import domain_area, square_with_circle_hole

        dom = square_with_circle_hole(degree=3, r=0.15)
        cs = build_coupled_space(dom.with_segments(2, 2, 1))
        exact = 1.0 - np.pi * 0.15**2
        assert domain_area(cs, quad=8) == pytest.approx(exact, rel=1e-6)

    def test_diamond_hole_area(self):
        from sbiga.coupling import build_coupled_space
        from reference_kernels import domain_area

        dom = square_with_hole(degree=3, half_diagonal=0.15)
        cs = build_coupled_space(dom.with_segments(2, 2, 1))
        assert domain_area(cs) == pytest.approx(1.0 - 2 * 0.15**2, rel=1e-12)
