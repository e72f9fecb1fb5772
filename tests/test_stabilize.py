import numpy as np
import pytest

from sbiga.coupling import build_coupled_space, reproduction_vector
from sbiga.models import square4
from sbiga.plate import (
    LoadSpec,
    PlateMaterial,
    cos2_square,
    error_norms,
    manufactured_rhs,
    solve_plate,
)
from sbiga.stabilize import build_combined_space, combined_uncoupled_space


class TestCombinedSelection:
    def test_degenerate_equals_standard(self):
        std = build_coupled_space(square4(degree=3).with_segments(1, 1, 1))
        deg = build_combined_space(square4(degree=3), 1, 1)
        assert (std.N, std.N4, std.N6) == (deg.N, deg.N4, deg.N6)

    def test_block_index_split(self):
        base = square4(degree=3)
        fine, us = combined_uncoupled_space(base, 4, 1)
        p = 3
        for per_patch in us.blocks:
            coarse, fine_blk = per_patch
            # coarse block: unrefined zeta, radial indices 0..p
            assert coarse.curve.n == p + 1
            assert (coarse.j_lo, coarse.j_hi) == (0, p)
            # fine block: refined zeta, radial indices p+1..n2-1
            assert fine_blk.curve.n == 4 * 2 + 2
            assert fine_blk.j_lo == p + 1
            assert fine_blk.j_hi == fine_blk.radial.n - 1

    def test_fine_functions_vanish_on_center_ring(self):
        # selected fine functions have first radial knot >= h: identically
        # zero on the ring of fine elements around the center
        base = square4(degree=3)
        fine, us = combined_uncoupled_space(base, 4, 1)
        blk = us.blocks[0][1]
        h = blk.radial.breakpoints()[1]
        for j in range(blk.j_lo, blk.j_hi + 1):
            assert blk.radial.values[j] >= h - 1e-15
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = rng.uniform(0, 1)
            x = rng.uniform(0, h * 0.999)
            jloc, D = blk.radial_window(np.array([x]), 0)
            assert np.all(jloc == -1) or np.max(np.abs(D)) == 0.0

    def test_coarse_functions_cover_center_ring(self):
        base = square4(degree=3)
        fine, us = combined_uncoupled_space(base, 4, 1)
        blk = us.blocks[0][0]
        h = blk.radial.breakpoints()[1]
        jloc, D = blk.radial_window(np.array([h * 0.5]), 0)
        assert np.any(jloc >= 0) and D[0, 0].sum() == pytest.approx(1.0, abs=1e-12)

    def test_union_linearly_independent(self):
        # Gram matrix of the combined uncoupled basis has full numerical rank
        base = square4(degree=2)
        fine, us = combined_uncoupled_space(base, 2, 1)
        rng = np.random.default_rng(1)
        lo, hi = us.offsets[0][0], us.offsets[0][-1] + us.blocks[0][-1].size
        n = hi - lo
        pts = rng.uniform(0.001, 0.999, (6 * n, 2))
        rows = np.zeros((len(pts), n))
        for r, (z, x) in enumerate(pts):
            idx, V = us.parametric_eval(0, z, x, nders=0)[:2]
            rows[r, idx - lo] = V
        G = rows.T @ rows
        lam = np.linalg.eigvalsh(G)
        assert lam.min() > 1e-10 * lam.max()

    def test_reproduction_preserved(self):
        cs = build_combined_space(square4(degree=3), 3, 1)
        for which in ("1", "x", "y"):
            z = reproduction_vector(cs, which)
            ctil = cs.expand(z)
            rng = np.random.default_rng(2)
            for _ in range(30):
                m = int(rng.integers(0, 4))
                ze, xe = rng.uniform(0.01, 0.99, 2)
                idx, V = cs.uspace.parametric_eval(m, ze, xe, nders=0)[:2]
                xph, yph = cs.domain.patches[m].map(ze, xe)
                tgt = {"1": 1.0, "x": xph, "y": yph}[which]
                assert ctil[idx] @ V == pytest.approx(tgt, abs=1e-10)


class TestStabilizedSolve:
    def test_matches_reported_stabilized_errors(self):
        # smooth clamped square, p=3, h=1/4 with the two-mesh space:
        # reported H2 ~ 1.4925, L2 ~ 5.669e-3
        cs = build_combined_space(
            square4(degree=3, bc={"all": "clamped"}), 4, 1
        )
        exact = cos2_square()
        mat = PlateMaterial(E=1e4, nu=0.0, D=1.0)
        sol = solve_plate(cs, mat, LoadSpec(surface=manufactured_rhs(exact, mat.D)))
        rep = error_norms(sol, exact)
        assert rep.h2_semi == pytest.approx(1.492521055221044, rel=1e-3)
        assert rep.l2 == pytest.approx(0.005669154686944, rel=1e-3)

    def test_c1_property_holds(self):
        from sbiga.coupling import c1_jump_report

        cs = build_combined_space(square4(degree=3), 3, 1)
        for _, rel in c1_jump_report(cs, nsamples=30):
            assert rel <= 1e-8
