import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import subspace_angles

from reference_kernels import assert_same_bytes, c1_basis_global_qr, gram_rank
from sbiga.coupling import (
    asg1_coefficients,
    assemble_jump_matrix,
    assemble_jump_rows,
    build_coupled_space,
    build_m0,
    c1_basis,
    c1_jump_report,
    nullspace,
    reproduction_vector,
    scaling_center_functions,
    verify_asg1,
)
from sbiga.errors import CouplingError, GeometryError
from sbiga.geometry import SBPatch, line_curve, make_domain
from sbiga.models import disk4, fan2, square4, two_blocks_square
from sbiga.space import UncoupledSpace
from sbiga.splines import gauss_points


def open_fan(degree=3, segments=2):
    c = line_curve((0.0, 1.0), (1.0, 1.0), degree)
    return make_domain([SBPatch(c, (0.0, 0.0)).with_segments(segments, segments, 1)])


class TestAsg1Coefficients:
    def test_symmetric_interface(self):
        # mirror-symmetric pair: |alphaL| == |alphaR|
        dom = square4(degree=3, offset=(0.0, 0.0))
        co = asg1_coefficients(dom, dom.interfaces[0])
        assert abs(co.alphaL) == pytest.approx(abs(co.alphaR), rel=1e-12)
        assert co.alphaL * co.alphaR > 0

    def test_collinear_equal_speed_parallel_branch(self):
        c1 = line_curve((0.0, 1.0), (1.0, 1.0), 3)
        c2 = line_curve((1.0, 1.0), (2.0, 1.0), 3)
        dom = make_domain([SBPatch(c1, (1.0, 0.0)), SBPatch(c2, (1.0, 0.0))])
        co = asg1_coefficients(dom, dom.interfaces[0])
        assert (co.alphaR, co.alphaL) == pytest.approx((1.0, 1.0))
        assert np.allclose(co.beta, 0.0)

    def test_antiparallel_rejected(self):
        # two curves meeting head-on (left curve ends where right starts but
        # tangents oppose): geometrically invalid coupling
        c1 = line_curve((0.0, 1.0), (1.0, 1.0), 2)
        c2 = line_curve((1.0, 1.0), (0.0, 1.0), 2)
        dom = make_domain([SBPatch(c1, (0.5, 0.0)), SBPatch(c2, (0.5, 2.0))])
        from sbiga.geometry import Interface

        itf = Interface("radial", 0, 1)
        with pytest.raises(GeometryError):
            asg1_coefficients(dom, itf)

    def test_disk_residual(self):
        dom = disk4(degree=3)
        for itf in dom.interfaces:
            co = asg1_coefficients(dom, itf)
            assert verify_asg1(dom, itf, co, samples=50) <= 1e-12

    def test_homogeneous_scaling_invariance(self):
        dom = disk4(degree=2)
        itf = dom.interfaces[1]
        co = asg1_coefficients(dom, itf)
        from sbiga.coupling import G1Coefficients

        scaled = G1Coefficients(3.7 * co.alphaL, 3.7 * co.alphaR, 3.7 * co.beta)
        assert verify_asg1(dom, itf, scaled, samples=50) <= 1e-11

    def test_perturbation_detected(self):
        dom = disk4(degree=3)
        itf = dom.interfaces[0]
        co = asg1_coefficients(dom, itf)
        from sbiga.coupling import G1Coefficients

        bad = G1Coefficients(co.alphaL * (1 + 1e-3), co.alphaR, co.beta)
        assert verify_asg1(dom, itf, bad, samples=50) >= 1e-5

    def test_outer_interface(self):
        dom = two_blocks_square(degree=3)
        outer = [i for i in dom.interfaces if i.kind == "outer"]
        assert outer
        for itf in outer:
            co = asg1_coefficients(dom, itf)
            assert co.alphaL * co.alphaR > 0
            assert verify_asg1(dom, itf, co, samples=50) <= 1e-12

    def test_beta_combination_identity(self):
        dom = square4(degree=3)
        co = asg1_coefficients(dom, dom.interfaces[2])
        combo = co.alphaL * co.betaR - co.alphaR * co.betaL
        assert np.allclose(combo, co.beta, atol=1e-14)


def _center_coeffs(us, gi):
    """Dense (3, N) coefficients of the center functions of group gi."""
    idx, coeffs = scaling_center_functions(us, gi)
    dense = np.zeros((3, us.N))
    dense[:, idx] = coeffs
    return dense


class TestScalingCenterFunctions:
    def test_values_near_center(self):
        dom = open_fan(3, 3)
        us = UncoupledSpace.from_domain(dom)
        cols = _center_coeffs(us, 0)
        pa = dom.patches[0]
        rng = np.random.default_rng(0)
        # first radial knot span: functions equal 1, x, y there
        hspan = pa.radial.breakpoints()[1]
        for _ in range(100):
            z = rng.uniform(0, 1)
            x = rng.uniform(0, hspan * 0.999)
            idx, V = us.parametric_eval(0, z, x, nders=0)[:2]
            vals = []
            for col in cols:
                c = col[idx]
                vals.append(c @ V)
            xph, yph = pa.map(z, x)
            assert vals[0] == pytest.approx(1.0, abs=1e-12)
            assert vals[1] == pytest.approx(xph, abs=1e-12)
            assert vals[2] == pytest.approx(yph, abs=1e-12)

    def test_gradient_limit_at_center(self):
        dom = open_fan(3, 3)
        us = UncoupledSpace.from_domain(dom)
        cols = _center_coeffs(us, 0)
        for x in (1e-4, 1e-6):
            idx, V, G, _ = us.physical_eval(0, 0.37, x, nders=1)
            c2 = cols[1][idx]
            c3 = cols[2][idx]
            assert np.allclose(c2 @ G, [1.0, 0.0], atol=1e-8)
            assert np.allclose(c3 @ G, [0.0, 1.0], atol=1e-8)

    def test_center_hessian_vanishes_nearby(self):
        dom = open_fan(3, 3)
        us = UncoupledSpace.from_domain(dom)
        cols = _center_coeffs(us, 0)
        idx, V, G, H = us.physical_eval(0, 0.61, 0.02, nders=2)
        for col in cols:
            c = col[idx]
            assert np.max(np.abs(np.einsum("n,nij->ij", c, H))) <= 1e-10

    def test_regular_center_not_applicable(self):
        c = line_curve((0.0, 1.0), (1.0, 1.0), 2)
        dom = make_domain([SBPatch(c, (0.5, 0.0), c1=0.5, c2=0.5)])
        us = UncoupledSpace.from_domain(dom)
        with pytest.raises(CouplingError):
            scaling_center_functions(us, 0)


class TestBuildM0:
    def test_single_patch_count(self):
        dom = open_fan(3, 2)
        us = UncoupledSpace.from_domain(dom)
        res = build_m0(us)
        n1 = dom.patches[0].curve.n
        assert res.N4 == us.N - 2 * n1 + 3

    def test_two_patch_count(self):
        dom = fan2(degree=3).with_segments(2, 2, 1)
        us = UncoupledSpace.from_domain(dom)
        res = build_m0(us)
        n1 = dom.patches[0].curve.n
        n2 = dom.patches[0].radial.n
        assert res.N4 == us.N - 2 * (2 * n1) + 3 - (n2 - 2)

    def test_clamped_boundary_annihilated(self):
        dom = square4(degree=3, bc={"all": "clamped"}).with_segments(4, 4, 1)
        us = UncoupledSpace.from_domain(dom)
        res = build_m0(us)
        rng = np.random.default_rng(1)
        M = res.matrix
        for _ in range(50):
            m = rng.integers(0, 4)
            z = rng.uniform(0, 1)
            idx, V, G, _ = us.physical_eval(m, z, 1.0, nders=1)
            row_v = np.zeros(us.N)
            row_v[idx] = V
            vals = np.abs(M.T @ row_v)
            assert np.max(vals) <= 1e-12
            for comp in range(2):
                row_g = np.zeros(us.N)
                row_g[idx] = G[:, comp]
                assert np.max(np.abs(M.T @ row_g)) <= 1e-12

    def test_simply_supported_removes_one_layer(self):
        dom_c = square4(degree=3, bc={"all": "clamped"}).with_segments(3, 3, 1)
        dom_s = square4(degree=3, bc={"all": "simply_supported"}).with_segments(3, 3, 1)
        dom_f = square4(degree=3).with_segments(3, 3, 1)
        dims = []
        for dom in (dom_c, dom_s, dom_f):
            us = UncoupledSpace.from_domain(dom)
            dims.append(build_m0(us).N4)
        # removing constraints strictly increases N4
        assert dims[0] < dims[1] < dims[2]


class TestJumpMatrix:
    def test_single_patch_zero(self):
        dom = open_fan(3, 2)
        us = UncoupledSpace.from_domain(dom)
        res = build_m0(us)
        MJ = assemble_jump_matrix(us, res)
        assert MJ.nnz == 0

    def test_symmetry_and_psd(self):
        dom = square4(degree=3).with_segments(2, 2, 1)
        us = UncoupledSpace.from_domain(dom)
        res = build_m0(us)
        MJ = assemble_jump_matrix(us, res).toarray()
        assert np.max(np.abs(MJ - MJ.T)) <= 1e-10 * max(np.max(np.abs(MJ)), 1)
        lam = np.linalg.eigvalsh(0.5 * (MJ + MJ.T))
        assert lam.min() >= -1e-10 * max(lam.max(), 1.0)

    def test_interior_function_zero_row(self):
        dom = fan2(degree=3).with_segments(4, 4, 1)
        us = UncoupledSpace.from_domain(dom)
        res = build_m0(us)
        MJ = assemble_jump_matrix(us, res)
        # a basis function well inside patch 0 (away from the diagonal
        # interface) must have a zero row
        blk = us.blocks[0][0]
        a = us.flat(0, 0, 2, 4)
        k = res.unc2col[a]
        assert k >= 0
        row = np.abs(MJ[k].toarray())
        assert row.max() == 0.0

    def test_map_evaluated_once_per_edge(self, monkeypatch):
        # the arc measure and the normal of an interface share one
        # evaluation of the SB map; the gradients add one per patch
        dom = two_blocks_square(degree=3).with_segments(2, 2, 1)
        us = UncoupledSpace.from_domain(dom)
        res = build_m0(us)
        calls = []
        geom_eval = SBPatch.geom_eval

        def counted(self, zeta, xi):
            calls.append(self)
            return geom_eval(self, zeta, xi)

        monkeypatch.setattr(SBPatch, "geom_eval", counted)
        assemble_jump_rows(us, res)
        patches = {m for itf in dom.interfaces for m in (itf.left, itf.right)}
        assert len(calls) == len(dom.interfaces) + len(patches)

    def test_over_integration_oracle(self):
        dom = fan2(degree=2).with_segments(1, 1, 1)
        us = UncoupledSpace.from_domain(dom)
        res = build_m0(us)
        MJ1 = assemble_jump_matrix(us, res, nquad=4).toarray()
        MJ2 = assemble_jump_matrix(us, res, nquad=16).toarray()
        scale = np.max(np.abs(MJ2))
        assert np.max(np.abs(MJ1 - MJ2)) <= 1e-10 * scale


def _jump_energy_pointwise(cs, v4, nq):
    """Interface integral of the squared normal-derivative jump of the C0
    field M0 v4, one point at a time through physical_eval."""
    us, domain = cs.uspace, cs.domain
    ctil = cs.M0 @ v4
    total = 0.0
    for itf in domain.interfaces:
        pl = domain.patches[itf.left]
        radial = itf.kind == "radial"
        spans = pl.radial.spans() if radial else pl.curve.kv.spans()
        for _, a, b in spans:
            for t, w in zip(*gauss_points(nq, a, b)):
                if radial:
                    sides = ((1.0, itf.left, 1.0, t), (-1.0, itf.right, 0.0, t))
                else:
                    sides = ((1.0, itf.left, t, 1.0), (-1.0, itf.right, 1.0 - t, 1.0))
                ge = pl.geom_eval(sides[0][2], sides[0][3])
                jac = np.array([[ge["J11"][0], ge["J12"][0]], [ge["J21"][0], ge["J22"][0]]])
                n = np.linalg.solve(jac.T, [1.0, 0.0] if radial else [0.0, 1.0])
                n /= np.hypot(*n)
                speed = np.hypot(*jac[:, 1 if radial else 0])
                jump = 0.0
                for sign, m, z, x in sides:
                    idx, _, G, _ = us.physical_eval(m, z, x, nders=1)
                    jump += sign * (ctil[idx] @ (G @ n))
                total += w * speed * jump**2
    return total


class TestJumpMatrixOracle:
    """v^T MJ v equals the pointwise interface integral of the squared jump."""

    @pytest.mark.parametrize("case", ["fan2", "trimmed_hole", "stabilized_square"])
    def test_quadratic_form(self, case):
        from sbiga.models import square_with_hole
        from sbiga.stabilize import build_combined_space
        from sbiga.trim import assemble_trimmed_domain

        if case == "fan2":
            cs = build_coupled_space(fan2(degree=3).with_segments(2, 2, 1))
        elif case == "trimmed_hole":
            dom = assemble_trimmed_domain(*square_with_hole(degree=3)).with_segments(2, 2, 1)
            assert any(itf.kind == "outer" for itf in dom.interfaces)
            cs = build_coupled_space(dom)
        else:
            cs = build_combined_space(square4(degree=3), 4, 1)
            assert len(cs.uspace.blocks[0]) == 2
        rng = np.random.default_rng(8)
        for _ in range(3):
            v4 = rng.standard_normal(cs.N4)
            ref = _jump_energy_pointwise(cs, v4, cs.domain.p + 2)
            assert v4 @ (cs.MJ @ v4) == pytest.approx(ref, rel=1e-12)


class TestNullspace:
    def test_zero_matrix_identity(self):
        M1, sv = nullspace(sp.csc_matrix((5, 5)))
        assert M1.shape == (5, 5)
        assert np.allclose(M1.toarray(), np.eye(5))

    def test_diag_one_zero(self):
        M1, sv = nullspace(sp.csc_matrix(np.diag([1.0, 0.0])))
        assert M1.shape == (2, 1)
        assert np.allclose(np.abs(M1.toarray()).ravel(), [0.0, 1.0])

    def test_rank_oracle_two_patch_bilinear(self):
        # acceptance criterion 9 instance: p=3, r=1, h=1/2
        dom = fan2(degree=3).with_segments(2, 2, 1)
        us = UncoupledSpace.from_domain(dom)
        res = build_m0(us)
        MJ = assemble_jump_matrix(us, res)
        M1, _ = nullspace(MJ, tol=1e-10)
        rank = gram_rank(MJ, tol=1e-11)
        assert M1.shape[1] == res.N4 - rank

    def test_orthonormal_columns(self):
        dom = square4(degree=3).with_segments(2, 2, 1)
        cs = build_coupled_space(dom)
        M1, _ = nullspace(cs.MJ)
        G = (M1.T @ M1).toarray()
        assert np.allclose(G, np.eye(cs.N6), atol=1e-12)


ROOT = pathlib.Path(__file__).resolve().parents[1]


def _config_spaces(path):
    """Coupled spaces of every study level of a case config."""
    from sbiga.harness import CaseConfig

    cfg = CaseConfig.from_file(str(ROOT / path))
    base, _ = cfg.build_base_domain()
    return [cfg.build_space(base, s) for s in cfg.segments]


def _oracle_contract(cs):
    """Check the production M1 against the eigh oracle of MJ.

    With sigma the smallest nonzero singular value of C, an orthonormal
    basis Q of a computed null space lies within sin(angle) <= ||C Q|| /
    sigma of the exact one.  The angle between M1 and the oracle is checked
    against the sum of both such bounds, and M1's own bound against 1e-10
    where the relative gap of MJ is at least 1e-6.  Returns (angle, own
    bound, relative gap, cond(M1) on the active rows).
    """
    M1o, lam = nullspace(cs.MJ, tol=cs.tol_null)
    assert cs.N6 == M1o.shape[1]
    assert np.max(np.abs(spla.norm(cs.M1, axis=0) - 1.0)) <= 1e-14
    assert np.max(spla.norm(cs.C @ cs.M1, axis=0)) <= np.max(spla.norm(cs.C @ M1o, axis=0))
    # both bases put the identity columns of the inactive DOFs first
    active = np.flatnonzero(np.diff(cs.C.tocsc().indptr))
    k = cs.N4 - len(active)
    Ca = cs.C[:, active].toarray()
    Z, Zo = cs.M1[active][:, k:].toarray(), M1o[active][:, k:].toarray()
    sigma2 = lam[lam > cs.tol_null * lam[-1]][0]
    own = np.linalg.norm(Ca @ np.linalg.qr(Z)[0], 2) / np.sqrt(sigma2)
    oracle = np.linalg.norm(Ca @ Zo, 2) / np.sqrt(sigma2)
    angle = np.max(subspace_angles(Z, Zo), initial=0.0)
    gap = sigma2 / lam[-1]
    # the angle itself is computed to about 100 eps
    assert np.sin(angle) <= own + oracle + 100 * np.finfo(float).eps
    if gap >= 1e-6:
        assert own <= 1e-10
    return angle, own, gap, np.linalg.cond(Z)


class TestC1Basis:
    def test_small_jump_rows(self):
        # v1 - v2 = 0, v3 free: one unit column (1, 1, 0)/sqrt(2), one identity
        M1, r00, gap = c1_basis(sp.csr_matrix([[1.0, -1.0, 0.0]]), [0, 1])
        assert M1.shape == (3, 2)
        assert np.allclose(M1.toarray(), [[0.0, 0.5**0.5], [0.0, 0.5**0.5], [1.0, 0.0]])
        assert r00 == pytest.approx(1.0) and gap == np.inf

    def test_chained_row_groups(self):
        # group 1: v0 = v1; group 2: v1 = 2 v2, sharing column 1; v3 free.
        # The null space is span{(2, 2, 1, 0), e3}; per group and in one
        # group alike the basis is e3 and (2, 2, 1, 0)/3 with unit columns.
        C = sp.csr_matrix([[1.0, -1.0, 0.0, 0.0], [0.0, 1.0, -2.0, 0.0]])
        exact = [[0.0, 2 / 3], [0.0, 2 / 3], [0.0, 1 / 3], [1.0, 0.0]]
        for bounds in ([0, 1, 2], [0, 2]):
            M1, r00, gap = c1_basis(C, bounds)
            assert np.allclose(M1.toarray(), exact, rtol=0.0, atol=1e-15)
            assert r00 == 2.0 and gap > 1e15

    @pytest.mark.parametrize("path", ["configs/l_bracket.json", "perfbench/configs/square_smooth_p4.json"])
    def test_one_group_is_global_qr(self, path):
        # without row groups c1_basis is the global QR, byte for byte
        for cs in _config_spaces(path):
            M1, _, _ = c1_basis(cs.C, [0, cs.C.shape[0]], tol=cs.tol_null)
            ref, _ = c1_basis_global_qr(cs.C, tol=cs.tol_null)
            assert M1.shape == ref.shape
            assert_same_bytes((M1.data, ref.data), (M1.indices, ref.indices), (M1.indptr, ref.indptr))

    def test_unclear_rank_gap_raises(self):
        # a cutoff of 1e-30 (pivots below 1e-15 |R_00|) lands inside the
        # roundoff cluster of dropped pivots
        dom = square4(degree=3).with_segments(2, 2, 1)
        with pytest.raises(CouplingError, match="rank gap") as exc:
            build_coupled_space(dom, tol_null=1e-30)
        assert exc.value.tag == "no-c1-space"

    def test_example_spaces_match_oracle(self, example_spaces):
        for name, cs in example_spaces.items():
            print("%-18s angle %.1e own %.1e gap %.1e cond %.1f" % ((name,) + _oracle_contract(cs)))

    @pytest.mark.parametrize("path", [
        "configs/l_bracket.json",
        "configs/square_smooth.json",
        "configs/square_pointload.json",
        "perfbench/configs/perforated_disk_s2.json",
        "perfbench/configs/square_smooth_p3.json",
        "perfbench/configs/square_smooth_p4.json",
        "perfbench/configs/square_pointload_p3.json",
        "perfbench/configs/square_stabilized_p5.json",
    ])
    def test_config_spaces_match_oracle(self, path):
        for cs in _config_spaces(path):
            print("%s N6=%d angle %.1e own %.1e gap %.1e cond %.1f"
                  % ((path, cs.N6) + _oracle_contract(cs)))


_HASH_SCRIPT = """
import hashlib, sys
import numpy as np
from sbiga.harness import CaseConfig
from sbiga.plate import assemble_stiffness
cfg = CaseConfig.from_file(sys.argv[1])
base, _ = cfg.build_base_domain()
cs = cfg.build_space(base, int(sys.argv[2]))
for M in (cs.M1, assemble_stiffness(cs, cfg.material).tocsc()):
    h = hashlib.sha256()
    for a in (M.data, M.indices, M.indptr):
        h.update(np.ascontiguousarray(a).tobytes())
    print(h.hexdigest())
"""


def test_same_bits_under_any_blas_thread_count():
    # M1 and A of the smooth square at s=16, built in fresh processes under
    # one and two BLAS threads, hash the same (the global QR did not)
    hashes = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", _HASH_SCRIPT, str(ROOT / "configs" / "square_smooth.json"), "16"],
                             env=env, capture_output=True, text=True, check=True)
        hashes.append(out.stdout.split())
    assert len(hashes[0]) == 2 and hashes[0] == hashes[1]


class TestCoupledSpace:
    def test_clamped_square_builds(self):
        dom = square4(degree=3, bc={"all": "clamped"}).with_segments(4, 4, 1)
        cs = build_coupled_space(dom)
        assert cs.N6 > 0
        assert cs.N6 <= cs.N4 <= cs.N

    def test_free_space_contains_constants(self):
        dom = open_fan(3, 2)
        cs = build_coupled_space(dom)
        z = reproduction_vector(cs, "1")
        ctil = cs.expand(z)
        idx, V = cs.uspace.parametric_eval(0, 0.3, 0.77, nders=0)[:2]
        assert ctil[idx] @ V == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("builder", [square4, disk4, two_blocks_square])
    def test_c1_across_interfaces(self, builder):
        dom = builder(degree=3).with_segments(2, 2, 1)
        cs = build_coupled_space(dom)
        for itf, rel in c1_jump_report(cs, nsamples=50):
            assert rel <= 1e-8

    def test_two_sided_value_and_gradient_agreement(self):
        dom = square4(degree=3).with_segments(2, 2, 1)
        cs = build_coupled_space(dom)
        rng = np.random.default_rng(2)
        Mcsr = cs.M.tocsr()
        itf = dom.interfaces[0]
        for t in rng.uniform(0.05, 0.95, 20):
            sides = []
            for m, (z, x) in ((itf.left, (1.0, t)), (itf.right, (0.0, t))):
                idx, V, G, _ = cs.uspace.physical_eval(m, z, x, nders=1)
                rows_v = np.zeros(cs.N6)
                rows_g = np.zeros((cs.N6, 2))
                for a, v, g in zip(idx, V, G):
                    sl = slice(Mcsr.indptr[a], Mcsr.indptr[a + 1])
                    rows_v[Mcsr.indices[sl]] += Mcsr.data[sl] * v
                    rows_g[Mcsr.indices[sl]] += Mcsr.data[sl][:, None] * g
                sides.append((rows_v, rows_g))
            scale_v = max(np.max(np.abs(sides[0][0])), 1e-12)
            scale_g = max(np.max(np.abs(sides[0][1])), 1e-12)
            assert np.max(np.abs(sides[0][0] - sides[1][0])) <= 1e-10 * scale_v
            assert np.max(np.abs(sides[0][1] - sides[1][1])) <= 1e-8 * scale_g

    def test_dimension_matches_brute_force_on_small_instance(self):
        # W == V restated: coupled dimension equals N4 - rank(MJ) under an
        # independent elimination-based rank at 10x tighter tolerance
        dom = square4(degree=3).with_segments(2, 2, 1)
        cs = build_coupled_space(dom)
        rank = gram_rank(cs.MJ, tol=1e-11)
        assert cs.N6 == cs.N4 - rank

    @pytest.mark.parametrize("which", ["1", "x", "y"])
    def test_polynomial_reproduction(self, which):
        dom = disk4(degree=3).with_segments(2, 2, 1)
        cs = build_coupled_space(dom)
        z = reproduction_vector(cs, which)
        ctil = cs.expand(z)
        rng = np.random.default_rng(3)
        for _ in range(40):
            m = rng.integers(0, len(dom.patches))
            ze, xe = rng.uniform(0.01, 0.99, 2)
            idx, V = cs.uspace.parametric_eval(m, ze, xe, nders=0)[:2]
            xph, yph = dom.patches[m].map(ze, xe)
            tgt = {"1": 1.0, "x": xph, "y": yph}[which]
            assert ctil[idx] @ V == pytest.approx(tgt, abs=1e-10)
