import numpy as np
import pytest

from sbiga.errors import SplineError
from sbiga.geometry import NurbsCurve, SBPatch, circle_arc, line_curve, make_domain
from sbiga.models import square4
from sbiga.space import UncoupledSpace
from sbiga.splines import (
    KnotVector,
    ders_basis,
    eval_basis,
    eval_deriv,
    insert_knot,
    make_open_knot_vector,
    nurbs_ders_basis,
)


def cox_de_boor(values, p, i, t):
    """Independent Cox-DeBoor oracle (plain two-branch recursion)."""
    if p == 0:
        if values[i] <= t < values[i + 1]:
            return 1.0
        if t == 1.0 and values[i] < 1.0 and values[i + 1] == 1.0:
            return 1.0
        return 0.0
    out = 0.0
    den = values[i + p] - values[i]
    if den > 0:
        out += (t - values[i]) / den * cox_de_boor(values, p - 1, i, t)
    den = values[i + p + 1] - values[i + 1]
    if den > 0:
        out += (values[i + p + 1] - t) / den * cox_de_boor(values, p - 1, i + 1, t)
    return out


class TestMakeOpenKnotVector:
    def test_no_interior(self):
        kv = make_open_knot_vector(2, 1, 1)
        assert np.array_equal(kv.values, [0, 0, 0, 1, 1, 1])
        assert kv.n == 3

    def test_two_segments(self):
        kv = make_open_knot_vector(3, 2, 1)
        assert np.array_equal(kv.values, [0, 0, 0, 0, 0.5, 0.5, 1, 1, 1, 1])
        assert kv.n == 2 * (3 - 1) + 1 + 1

    def test_four_segments_count(self):
        kv = make_open_knot_vector(3, 4, 1)
        interior = kv.values[4:-4]
        assert np.array_equal(interior, [0.25, 0.25, 0.5, 0.5, 0.75, 0.75])
        assert kv.n == 4 * (3 - 1) + 1 + 1 == 10

    @pytest.mark.parametrize("p,segments,r", [(2, 3, 0), (3, 5, 2), (4, 2, 1), (5, 7, 1)])
    def test_count_formula(self, p, segments, r):
        kv = make_open_knot_vector(p, segments, r)
        assert kv.n == segments * (p - r) + r + 1

    def test_invalid_regularity(self):
        with pytest.raises(SplineError):
            make_open_knot_vector(3, 2, 3)
        with pytest.raises(SplineError):
            make_open_knot_vector(3, 2, -1)

    def test_multiplicity_invariant(self):
        kv = make_open_knot_vector(4, 6, 2)
        _, mult = kv.interior_multiplicities()
        assert np.all(mult >= 1) and np.all(mult <= kv.p)


class TestEvalBasis:
    def test_hat(self):
        kv = KnotVector([0, 0, 1, 1], 1)
        assert eval_basis(kv, 0, 0.25) == pytest.approx(0.75, abs=1e-15)

    def test_quadratic_midpoint_vs_recursion(self):
        kv = KnotVector([0, 0, 0, 1, 1, 1], 2)
        expected = cox_de_boor(kv.values, 2, 1, 0.5)
        assert expected == pytest.approx(0.5)
        assert eval_basis(kv, 1, 0.5) == pytest.approx(expected, abs=1e-15)

    def test_partition_of_unity(self):
        rng = np.random.default_rng(0)
        kv = make_open_knot_vector(3, 5, 1)
        for t in rng.uniform(0, 1, 30):
            assert sum(eval_basis(kv, i, t) for i in range(kv.n)) == pytest.approx(1.0, abs=1e-12)

    def test_right_closed_at_one(self):
        kv = make_open_knot_vector(3, 4, 1)
        assert eval_basis(kv, kv.n - 1, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_support_containment(self):
        rng = np.random.default_rng(1)
        kv = make_open_knot_vector(3, 4, 2)
        for i in range(kv.n):
            lo, hi = kv.values[i], kv.values[i + kv.p + 1]
            for t in rng.uniform(0, 1, 40):
                if not lo <= t <= hi:
                    assert eval_basis(kv, i, t) == 0.0

    def test_invalid_index(self):
        kv = make_open_knot_vector(2, 1, 1)
        with pytest.raises(SplineError):
            eval_basis(kv, 3, 0.5)

    def test_fast_path_matches_recursion(self):
        rng = np.random.default_rng(2)
        for p, segs, r in ((2, 3, 1), (3, 4, 1), (4, 2, 2)):
            kv = make_open_knot_vector(p, segs, r)
            for t in rng.uniform(0, 1, 25):
                first, D = ders_basis(kv, t, 0)
                for j in range(p + 1):
                    assert D[0, j] == pytest.approx(
                        cox_de_boor(kv.values, p, first + j, t), abs=1e-13
                    )

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_array_path_matches_recursion(self, p):
        # random points, every breakpoint (t = 0 and t = 1 included), every
        # regularity, all derivative orders up to min(2, p)
        rng = np.random.default_rng(10 + p)
        for r in range(p):
            kv = make_open_knot_vector(p, 3, r)
            ts = np.concatenate([rng.uniform(0.0, 1.0, 12), kv.breakpoints()])
            for nders in range(min(2, p) + 1):
                first, D = ders_basis(kv, ts, nders)
                assert first.shape == ts.shape and D.shape == (len(ts), nders + 1, p + 1)
                for t, f, Dt in zip(ts, first, D):
                    for k in range(nders + 1):
                        for j in range(p + 1):
                            if k == 0:
                                ref = eval_basis(kv, f + j, t)
                            else:
                                ref = eval_deriv(kv, f + j, t, k)
                            assert Dt[k, j] == pytest.approx(ref, abs=1e-10 * max(1.0, abs(ref)))


class TestEvalDeriv:
    def test_hat_slopes(self):
        kv = KnotVector([0, 0, 0.5, 1, 1], 1)
        assert eval_deriv(kv, 0, 0.2, 1) == pytest.approx(-2.0)
        assert eval_deriv(kv, 1, 0.2, 1) == pytest.approx(2.0)

    def test_derivative_sum_zero(self):
        rng = np.random.default_rng(3)
        kv = make_open_knot_vector(3, 4, 1)
        for t in rng.uniform(0.01, 0.99, 20):
            assert sum(eval_deriv(kv, i, t, 1) for i in range(kv.n)) == pytest.approx(0.0, abs=1e-10)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(4)
        kv = make_open_knot_vector(3, 4, 1)
        eps = 1e-6
        for t in rng.uniform(0.05, 0.95, 200):
            if min(abs(t - b) for b in kv.breakpoints()) < 10 * eps:
                continue
            for i in range(kv.n):
                fd = (eval_basis(kv, i, t + eps) - eval_basis(kv, i, t - eps)) / (2 * eps)
                d = eval_deriv(kv, i, t, 1)
                assert d == pytest.approx(fd, abs=1e-5 * max(1.0, abs(d)))

    def test_second_derivative_fd_of_first(self):
        rng = np.random.default_rng(5)
        kv = make_open_knot_vector(3, 4, 1)
        eps = 1e-6
        for t in rng.uniform(0.05, 0.95, 60):
            if min(abs(t - b) for b in kv.breakpoints()) < 10 * eps:
                continue
            for i in range(kv.n):
                fd = (eval_deriv(kv, i, t + eps, 1) - eval_deriv(kv, i, t - eps, 1)) / (2 * eps)
                d2 = eval_deriv(kv, i, t, 2)
                assert d2 == pytest.approx(fd, abs=1e-5 * max(1.0, abs(d2)))

    def test_unsupported_order(self):
        kv = KnotVector([0, 0, 1, 1], 1)
        with pytest.raises(SplineError):
            eval_deriv(kv, 0, 0.5, 2)


def nurbs_all(kv, w, t, order):
    """order-th derivative of all kv.n NURBS basis functions at t, zero
    outside the active window of nurbs_ders_basis."""
    first, R = nurbs_ders_basis(kv, w, t, order)
    out = np.zeros(kv.n)
    out[first : first + kv.p + 1] = R[order]
    return out


class TestNurbs:
    def test_unit_weights_reduce_to_bspline(self):
        kv = make_open_knot_vector(3, 3, 1)
        w = np.ones(kv.n)
        rng = np.random.default_rng(6)
        for t in rng.uniform(0, 1, 15):
            R0, R1 = nurbs_all(kv, w, t, 0), nurbs_all(kv, w, t, 1)
            for i in range(kv.n):
                assert R0[i] == pytest.approx(eval_basis(kv, i, t), abs=1e-14)
                assert R1[i] == pytest.approx(eval_deriv(kv, i, t, 1), abs=1e-11)

    def test_rational_partition_of_unity(self):
        kv = make_open_knot_vector(2, 2, 1)
        rng = np.random.default_rng(7)
        w = rng.uniform(0.5, 2.0, kv.n)
        for t in rng.uniform(0, 1, 20):
            assert sum(nurbs_all(kv, w, t, 0)) == pytest.approx(1.0, abs=1e-12)

    def test_quarter_circle_on_unit_circle(self):
        arc = circle_arc((0.0, 0.0), 1.0, 0.0, -0.5 * np.pi, 2)
        assert np.allclose(arc.weights, [1.0, np.sqrt(2) / 2, 1.0])
        pt = arc.eval_one(0.5)
        assert np.hypot(*pt) == pytest.approx(1.0, abs=1e-12)

    def test_rational_derivatives_fd(self):
        kv = make_open_knot_vector(3, 2, 1)
        rng = np.random.default_rng(8)
        w = rng.uniform(0.5, 2.0, kv.n)
        eps = 1e-6
        for t in rng.uniform(0.05, 0.95, 30):
            if min(abs(t - b) for b in kv.breakpoints()) < 10 * eps:
                continue
            _, R0 = nurbs_ders_basis(kv, w, t, 2)
            _, Rp = nurbs_ders_basis(kv, w, t + eps, 1)
            _, Rm = nurbs_ders_basis(kv, w, t - eps, 1)
            assert np.allclose(R0[1], (Rp[0] - Rm[0]) / (2 * eps), atol=1e-5)
            assert np.allclose(R0[2], (Rp[1] - Rm[1]) / (2 * eps), atol=1e-4)

    def test_nonpositive_weight_rejected(self):
        kv = make_open_knot_vector(2, 1, 1)
        with pytest.raises(SplineError):
            nurbs_ders_basis(kv, [1.0, 0.0, 1.0], 0.5, 0)


class TestInsertKnot:
    def test_geometry_invariance(self):
        arc = circle_arc((0.2, -0.3), 0.8, 0.0, -0.5 * np.pi, 3)
        refined = arc.insert_knot(0.37, 2).insert_knot(0.81, 1)
        ts = np.random.default_rng(9).uniform(0, 1, 100)
        assert np.max(np.abs(arc.eval(ts) - refined.eval(ts))) <= 1e-12

    def test_straight_line_stays_collinear(self):
        line = line_curve((0.0, 0.0), (2.0, 1.0), 3)
        ref = line.insert_knot(0.3).insert_knot(0.71, 2)
        d = ref.points - ref.points[0]
        cross = d[:, 0] * 1.0 - d[:, 1] * 2.0
        assert np.max(np.abs(cross)) <= 1e-12

    def test_full_multiplicity_breaks_support(self):
        # inserting to multiplicity p+1 decouples the two sides: every basis
        # function vanishes on one side of the break
        kv = make_open_knot_vector(2, 1, 1)
        ctrl = np.array([[0.0, 0.0], [0.5, 1.0], [1.0, 0.0]])
        kv2, ctrl2 = insert_knot(kv, ctrl, 0.4, 3)
        for i in range(kv2.n):
            left = kv2.values[i] >= 0.4 - 1e-14
            right = kv2.values[i + kv2.p + 1] <= 0.4 + 1e-14
            assert left or right

    def test_multiplicity_overflow(self):
        kv = make_open_knot_vector(2, 1, 1)
        ctrl = np.zeros((3, 2))
        with pytest.raises(SplineError):
            insert_knot(kv, ctrl, 0.4, 4)


class TestTensorSpace:
    """The tensor basis of one patch through UncoupledSpace.parametric_eval."""

    def setup_method(self):
        # patch 0 of the refined square: zeta kv (3, 2, 1), radial kv (3, 3, 1)
        self.space = UncoupledSpace.from_domain(square4(degree=3).with_segments(2, 3, 1))
        self.blk = self.space.blocks[0][0]
        assert self.blk.curve.kv == make_open_knot_vector(3, 2, 1)
        assert self.blk.radial == make_open_knot_vector(3, 3, 1)

    def test_partition_of_unity_and_grad_sum(self):
        rng = np.random.default_rng(10)
        for z, x in rng.uniform(0, 1, (50, 2)):
            idx, V, D10, D01 = self.space.parametric_eval(0, z, x, nders=1)[:4]
            assert V.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.allclose([D10.sum(), D01.sum()], 0.0, atol=1e-9)
            assert len(idx) <= (3 + 1) ** 2

    def test_univariate_product_oracle(self):
        rng = np.random.default_rng(11)
        z, x = rng.uniform(0, 1, 2)
        idx, V = self.space.parametric_eval(0, z, x, nders=0)[:2]
        for k, v in zip(idx, V):
            i, j = divmod(k, self.blk.nj)
            prod = eval_basis(self.blk.curve.kv, i, z) * eval_basis(self.blk.radial, j, x)
            assert v == pytest.approx(prod, abs=1e-14)

    def test_rational_weights_zeta_only(self):
        kvz = make_open_knot_vector(2, 1, 1)
        w = np.array([1.0, 0.7, 1.3])
        curve = NurbsCurve(kvz, [[0.0, 1.0], [0.5, 1.2], [1.0, 1.0]], w)
        patch = SBPatch(curve, (0.5, 0.0)).with_segments(1, 2, 1)
        assert patch.radial == make_open_knot_vector(2, 2, 1)
        space = UncoupledSpace.from_domain(make_domain([patch]))
        V = space.parametric_eval(0, 0.3, 0.6, nders=0)[1]
        assert V.sum() == pytest.approx(1.0, abs=1e-12)


class TestKnotVectorInvariants:
    def test_non_decreasing_required(self):
        with pytest.raises(SplineError):
            KnotVector([0, 0, 0.6, 0.4, 1, 1], 1)

    def test_p_open_required(self):
        with pytest.raises(SplineError):
            KnotVector([0, 0, 0.5, 1, 1, 1], 2)

    def test_greville_reproduces_identity(self):
        kv = make_open_knot_vector(3, 4, 1)
        g = kv.greville()
        rng = np.random.default_rng(12)
        for t in rng.uniform(0, 1, 20):
            first, D = ders_basis(kv, t, 0)
            assert g[first : first + 4] @ D[0] == pytest.approx(t, abs=1e-13)
