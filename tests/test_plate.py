import functools
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from reference_kernels import (
    assert_same_bytes,
    assert_same_m0,
    domain_area,
    gemm_uncoupled_stiffness,
    gram_rank,
    row_geometry,
    row_physical,
)
from sbiga import space as sbiga_space
from sbiga.coupling import (
    CoupledSpace,
    build_coupled_space,
    c1_basis,
    c1_jump_report,
    reproduction_vector,
)
from sbiga.errors import AssemblyError, GeometryError, SolverError
from sbiga.geometry import NurbsCurve, SBPatch, circle_arc, line_curve, locate_point, make_domain
from sbiga.harness import CaseConfig, _reproduction_error
from sbiga.models import _polyline_loop, fan2, perforated_disk, square4
from sbiga.plate import (
    LoadSpec,
    PlateMaterial,
    Solution,
    _cond_estimate,
    _kronecker_entries,
    _uncoupled_stiffness,
    assemble_load,
    assemble_stiffness,
    bending_moments,
    cos2_square,
    error_norms,
    evaluate,
    manufactured_rhs,
    point_load_reference,
    solve,
    solve_plate,
)
from sbiga.splines import INDEX, KnotVector
from sbiga.stabilize import build_combined_space


ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def clamped_square():
    dom = square4(degree=3, bc={"all": "clamped"}).with_segments(4, 4, 1)
    return build_coupled_space(dom)


@pytest.fixture(scope="module")
def material():
    return PlateMaterial(E=1e4, nu=0.0, D=1.0)


class TestMaterial:
    def test_stiffness_formula(self):
        m = PlateMaterial(E=200.0, nu=0.3, t=0.1)
        assert m.D == pytest.approx(200.0 * 1e-3 / (12 * (1 - 0.09)))

    def test_thickness_from_stiffness(self):
        m = PlateMaterial(E=1e4, nu=0.0, D=1.0)
        assert m.D == 1.0
        assert PlateMaterial(E=1e4, nu=0.0, t=m.t).D == pytest.approx(1.0, rel=1e-14)

    def test_exactly_one_of_t_d(self):
        with pytest.raises(AssemblyError):
            PlateMaterial(E=1.0, nu=0.0)
        with pytest.raises(AssemblyError):
            PlateMaterial(E=1.0, nu=0.0, t=0.1, D=1.0)


class TestAssembleStiffness:
    def test_symmetry(self, clamped_square, material):
        A = assemble_stiffness(clamped_square, material)
        d = abs(A - A.T)
        assert d.max() <= 1e-12 * abs(A).max()

    def test_nu_zero_matches_reduced_integrand_bitwise(self):
        # general path at nu=0 vs the kernel without the nu terms: the GEMMs
        # of every row at S2 = 2; at S2 = 4 those of the first row and past
        # it the Kronecker sums with C = D diag(1, 1, 2)
        mat0 = PlateMaterial(E=1.0, nu=0.0, D=2.5)
        D = mat0.D
        for s in (2, 4):
            dom = fan2(degree=2).with_segments(s, s, 1)
            cs = build_coupled_space(dom)
            A = assemble_stiffness(cs, mat0)
            rows, cols, vals = [], [], []
            for m in range(len(dom.patches)):
                tab = cs.uspace.quad_tables(m, 3, 3)
                if s == 2:
                    patch_geo, gemm_rows = tab.patch_geometry(), range(tab.S2)
                else:
                    patch_geo, wz, wx, blocks = tab.separable_tables()
                    gemm_rows = (0,)
                for s2 in gemm_rows:
                    IDX, H11, H22, H12, geo = tab.row_physical(s2, patch_geo)
                    wD = (D * geo["w"] * np.abs(geo["det"]))[:, None, :]
                    loc = (H11 * wD) @ H11.transpose(0, 2, 1)
                    loc += (H22 * wD) @ H22.transpose(0, 2, 1)
                    loc += (2.0 * H12 * wD) @ H12.transpose(0, 2, 1)
                    K = IDX.shape[1]
                    rows.append(np.repeat(IDX, K, axis=1).ravel())
                    cols.append(np.tile(IDX, (1, K)).ravel())
                    vals.append(loc.ravel())
                if s > 2:
                    CF = [F * np.array([1.0, 1.0, 2.0])[:, None] * (D * wz)[:, None, None, :]
                          for _, _, _, _, F, _, _ in blocks]
                    for r, c, v in _kronecker_entries(blocks, CF, wx):
                        rows.append(r)
                        cols.append(c)
                        vals.append(v)
            Atil = sp.coo_matrix(
                (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                shape=(cs.N, cs.N),
            ).tocsc()
            B = (cs.M1.T @ (cs.M0.T @ Atil @ cs.M0) @ cs.M1).tocsc()
            assert (A != B).nnz == 0, s  # bitwise identical

    def test_geometry_evaluated_once_per_patch(self, monkeypatch):
        # the first radial span row and the q = 1 factors of the Kronecker
        # rows share one evaluation of the SB map per patch (one per row
        # would be S2 = 16)
        cs = build_combined_space(square4(degree=5, bc={"all": "clamped"}), 16, 1)
        calls = []
        sb_geometry = sbiga_space.sb_geometry

        def counted(*args):
            calls.append(1)
            return sb_geometry(*args)

        monkeypatch.setattr(sbiga_space, "sb_geometry", counted)
        _uncoupled_stiffness(cs, PlateMaterial(E=1.0, nu=0.3, D=1.0))
        assert len(calls) == len(cs.domain.patches) == 4

    def test_positive_definite_when_clamped(self, clamped_square, material):
        A = assemble_stiffness(clamped_square, material)
        lam = np.linalg.eigvalsh(A.toarray())
        assert lam.min() > 0

    def test_over_integration_oracle_regular_patch(self):
        # on a regular (c2 > 0) patch the rational integrand is analytic and
        # Gauss quadrature converges exponentially: entries at order 8 match
        # the order-12 reference almost exactly
        c = line_curve((0.0, 1.0), (1.0, 1.0), 3)
        dom = make_domain([SBPatch(c, (0.5, 0.0), c1=1.0, c2=1.0).with_segments(2, 2, 1)])
        cs = build_coupled_space(dom)
        mat = PlateMaterial(E=1.0, nu=0.2, D=1.0)
        A8 = assemble_stiffness(cs, mat, quad=8).toarray()
        A12 = assemble_stiffness(cs, mat, quad=12).toarray()
        assert np.max(np.abs(A8 - A12)) <= 1e-9 * np.max(np.abs(A12))

    def test_l2_error_independent_of_basis(self):
        # clamped p=4, s=16 sits near the roundoff floor of the unstabilized
        # space; recombining the interface columns of M1 by a fixed random
        # orthogonal matrix spans the same space, and the congruence through
        # M0 keeps the L2 error within 1 % (measured 0.05 %; a one-stage
        # (M0 M1)^T Atilde (M0 M1) moved it by 20 %)
        exact = cos2_square()
        mat = PlateMaterial(E=1e4, nu=0.0, D=1.0)
        loads = LoadSpec(surface=manufactured_rhs(exact, mat.D))
        cs = build_coupled_space(square4(degree=4, bc={"all": "clamped"}).with_segments(16, 16, 1))
        k = cs.N4 - np.count_nonzero(np.diff(cs.C.tocsc().indptr))  # identity columns
        rng = np.random.default_rng(41)
        Q = np.linalg.qr(rng.standard_normal((cs.N6 - k, cs.N6 - k)))[0]
        M1 = sp.hstack([cs.M1[:, :k], cs.M1[:, k:] @ Q]).tocsc()
        mixed = CoupledSpace(cs.domain, cs.uspace, cs.m0res, cs.C, M1, cs.r00, cs.rank_gap, cs.tol_null)
        l2 = [error_norms(solve_plate(c, mat, loads), exact).l2 for c in (cs, mixed)]
        assert abs(l2[1] / l2[0] - 1.0) < 0.01


class TestAssembleLoad:
    def test_zero_loads_zero_vector(self, clamped_square):
        f = assemble_load(clamped_square, LoadSpec())
        assert np.all(f == 0.0)

    def test_constant_load_total_equals_area(self):
        # free space represents constants: f . z_1 = integral of 1 = area
        dom = square4(degree=3).with_segments(3, 3, 1)
        cs = build_coupled_space(dom)
        f = assemble_load(cs, LoadSpec(surface=lambda x, y: np.ones_like(x)))
        z1 = reproduction_vector(cs, "1")
        assert f @ z1 == pytest.approx(domain_area(cs), rel=1e-10)

    def test_point_load_reproduction_identity(self):
        dom = square4(degree=3, offset=(-0.15, 0.1)).with_segments(3, 3, 1)
        cs = build_coupled_space(dom)
        # load at the scaling center: the dual pairing with the constant 1
        f = assemble_load(cs, LoadSpec(point_loads=[((-0.15, 0.1), 2.5)]))
        z1 = reproduction_vector(cs, "1")
        assert f @ z1 == pytest.approx(2.5, abs=1e-12)

    def test_point_load_outside_domain(self, clamped_square):
        with pytest.raises(GeometryError):
            assemble_load(clamped_square, LoadSpec(point_loads=[((3.0, 0.0), 1.0)]))

    def test_load_and_field_same_bits_under_any_blas_thread_count(self):
        # f and the patch field of a random c on the clamped stabilized p=4
        # square at s=28, criterion 6's last level, in fresh processes under
        # one and two BLAS threads; whole-grid BLAS products split their
        # inner axis by thread there
        hashes = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
            out = subprocess.run([sys.executable, "-c", _LOAD_FIELD_SCRIPT],
                                 env=env, capture_output=True, text=True, check=True)
            hashes.append(out.stdout.split())
        assert len(hashes[0]) == 5 and hashes[0] == hashes[1]


_LOAD_FIELD_SCRIPT = """
import hashlib
import numpy as np
from sbiga.models import square4
from sbiga.plate import LoadSpec, assemble_load, cos2_square, manufactured_rhs
from sbiga.stabilize import build_combined_space
cs = build_combined_space(square4(degree=4, bc={"all": "clamped"}), 28, 1)
f = assemble_load(cs, LoadSpec(surface=manufactured_rhs(cos2_square(), 1.0)))
c = np.random.default_rng(0).standard_normal(cs.N)
for a in [f, *cs.uspace.quad_tables(0, 5, 5).field(c)[:4]]:
    print(hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest())
"""


class TestIndexType:
    """Index arrays are 32-bit from the Gauss tables to the solver."""

    @pytest.fixture(scope="class")
    def stabilized(self):
        cfg = CaseConfig.from_file(str(ROOT / "perfbench/configs/square_stabilized_p5.json"))
        base, _ = cfg.build_base_domain()
        return cfg, cfg.build_space(base, 16)

    def test_operators_and_windows_are_int32(self, stabilized):
        cfg, cs = stabilized
        for M in (cs.M0, cs.C, cs.M1, assemble_stiffness(cs, cfg.material)):
            assert M.indices.dtype == np.int32 and M.indptr.dtype == np.int32
        for m in range(len(cs.domain.patches)):
            tab = cs.uspace.quad_tables(m, 6, 6)
            assert len(tab.zt) == 2
            for (Zidx, _), (J, _) in zip(tab.zt, tab.xt):
                assert Zidx.dtype == np.int32 and J.dtype == np.int32
        idx = cs.uspace.parametric_eval(0, np.array([0.3, 0.6]), np.array([0.2, 0.9]))[0]
        assert idx.dtype == np.int32

    def test_stiffness_traced_peak_below_three_and_a_half_matrices(self, stabilized):
        # the COO parts and their CSC conversion: 2.9 nbytes(A) with 32-bit
        # indices, 4.4 with 64-bit ones
        cfg, cs = stabilized
        tracemalloc.start()
        try:
            A = assemble_stiffness(cs, cfg.material)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)

    def test_space_past_the_index_range_raises(self):
        # blocks that only carry sizes: no array of that length is made
        class Stub:
            def __init__(self, size):
                self.size = size

        limit = np.iinfo(INDEX).max
        assert sbiga_space.UncoupledSpace(None, [[Stub(limit - 1), Stub(1)]]).N == limit
        with pytest.raises(GeometryError, match="sparse index range") as exc:
            sbiga_space.UncoupledSpace(None, [[Stub(2**30)], [Stub(2**30)]])
        assert exc.value.tag == "config-error"


class TestSolve:
    def test_identity(self):
        A = sp.identity(5, format="csc")
        f = np.arange(5.0)
        x, res, est = solve(A, f)
        assert np.allclose(x, f)
        assert res <= 1e-14
        assert est == pytest.approx(1.0, rel=0.2)

    def test_explicit_inverse_oracle(self):
        rng = np.random.default_rng(0)
        B = rng.standard_normal((3, 3))
        A = B @ B.T + 3 * np.eye(3)
        f = rng.standard_normal(3)
        x, res, _ = solve(sp.csc_matrix(A), f)
        assert np.allclose(x, np.linalg.inv(A) @ f, atol=1e-12)

    def test_clamped_case_factorizes(self, clamped_square, material):
        exact = cos2_square()
        loads = LoadSpec(surface=manufactured_rhs(exact, material.D))
        sol = solve_plate(clamped_square, material, loads)
        assert sol.residual <= 1e-8 * np.linalg.norm(
            assemble_load(clamped_square, loads)
        )
        assert np.isfinite(sol.cond_estimate) and sol.cond_estimate > 1.0

    def test_singular_matrix_raises(self):
        A = sp.csc_matrix(np.zeros((3, 3)))
        with pytest.raises(SolverError):
            solve(A, np.ones(3))

    def test_singular_rank_one_raises(self):
        A = sp.csc_matrix(np.ones((2, 2)))
        with pytest.raises(SolverError):
            solve(A, np.array([1.0, 2.0]))

    def test_zero_diagonal_swaps_rows(self):
        A = sp.csc_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        x, res, _ = solve(A, np.array([2.0, 3.0]))
        assert np.array_equal(x, [3.0, 2.0])
        assert res == 0.0


@functools.lru_cache(maxsize=None)
def _plate_system(p, s, stabilized=False, point_load=False, one_group=False):
    """Stiffness matrix and load of the clamped cos2 square (or of the
    simply supported point-loaded square) as the acceptance studies build them,
    or with ``one_group`` on the basis of one global QR of all jump rows.
    Each system is assembled once and shared by the tests below."""
    if point_load:
        base = square4(degree=p, offset=(0.0, 0.0), bc={"all": "simply_supported"})
        mat, loads = PlateMaterial(E=1e6, nu=0.0, D=1.0), LoadSpec(point_loads=[((0.0, 0.0), 1.0)])
    else:
        base = square4(degree=p, bc={"all": "clamped"})
        mat = PlateMaterial(E=1e4, nu=0.0, D=1.0)
        loads = LoadSpec(surface=manufactured_rhs(cos2_square(), mat.D))
    if stabilized:
        cs = build_combined_space(base, s, 1)
    else:
        cs = build_coupled_space(base.with_segments(s, s, 1))
    if one_group:
        basis = c1_basis(cs.C, [0, cs.C.shape[0]], tol=cs.tol_null)  # (M1, r00, rank gap)
        cs = CoupledSpace(cs.domain, cs.uspace, cs.m0res, cs.C, *basis, cs.tol_null)
    return sp.csc_matrix(assemble_stiffness(cs, mat)), assemble_load(cs, loads)


def _solver_lu(monkeypatch, A, f):
    """Run ``solve`` and return the LU object of its one splu call."""
    calls = []
    splu = spla.splu

    def wrapped(*args, **kw):
        calls.append(splu(*args, **kw))
        return calls[-1]

    monkeypatch.setattr(spla, "splu", wrapped)
    solve(A, f)
    assert len(calls) == 1
    return calls[0]


class TestSolverPivoting:
    """The SPD plate matrix is factored with diagonal pivots, so the
    symmetric minimum-degree ordering survives (perm_r == perm_c)."""

    def test_partial_pivoting_oracle(self):
        A, f = _plate_system(5, 8, stabilized=True)
        lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A")
        ref = lu.solve(f)
        ref = ref + lu.solve(f - A @ ref)
        x, _, _ = solve(A, f)
        assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)

    @pytest.mark.parametrize("case, max_fill", [
        (dict(p=4, s=8), 2.0),
        (dict(p=5, s=8, stabilized=True), None),
        (dict(p=3, s=10, point_load=True), None),
    ], ids=["p4-s8", "stab-p5-s8", "point-load-s10"])
    def test_diagonal_pivots_kept(self, monkeypatch, case, max_fill):
        A, f = _plate_system(**case)
        lu = _solver_lu(monkeypatch, A, f)
        assert np.array_equal(lu.perm_r, lu.perm_c)
        if max_fill is not None:
            # the fill is measured against A on the one-group (global QR)
            # basis of the same case, which couples the whole active block;
            # the per-interface basis makes A sparser and its LU no larger
            A1, f1 = _plate_system(**case, one_group=True)
            lu1 = _solver_lu(monkeypatch, A1, f1)
            assert (lu.L.nnz + lu.U.nnz) / A1.nnz < max_fill
            assert lu.L.nnz + lu.U.nnz <= lu1.L.nnz + lu1.U.nnz


@functools.lru_cache(maxsize=None)
def _config_systems(path):
    """(A, f) of every study level of a case config, as ``sbiga run``
    assembles them."""
    cfg = CaseConfig.from_file(str(ROOT / path))
    base, info = cfg.build_base_domain()
    loads = cfg.load_spec(info)
    out = []
    for s in cfg.segments:
        cs = cfg.build_space(base, s)
        out.append((sp.csc_matrix(assemble_stiffness(cs, cfg.material, quad=cfg.quad_order)),
                    assemble_load(cs, loads, quad=cfg.quad_order)))
    return out


class TestSolverOracle:
    """``solve`` against SuperLU at its default supernode settings (relax
    and panel_size not given) with the same ordering, pivots and one
    refinement step."""

    @pytest.mark.parametrize("systems", [
        lambda: _config_systems("configs/square_smooth.json"),
        lambda: _config_systems("configs/l_bracket.json"),
        lambda: [_plate_system(5, 8, stabilized=True)],
    ], ids=["square_smooth", "l_bracket", "stab-p5-s8"])
    def test_matches_default_superlu(self, systems):
        for A, f in systems():
            lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                           options={"SymmetricMode": True})
            ref = lu.solve(f)
            ref = ref + lu.solve(f - A @ ref)
            x, _, _ = solve(A, f)
            assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)


class _CountingLU:
    """An LU proxy that counts its solves."""

    def __init__(self, lu):
        self.lu = lu
        self.solves = 0

    def solve(self, b, trans="N"):
        self.solves += 1
        return self.lu.solve(b, trans=trans)


class TestCondEstimate:
    """The 1-norm estimate against the dense condition number on the
    levels of the benchmark's square studies with n <= 3400."""

    @pytest.mark.parametrize("case", [
        dict(p=3, s=4), dict(p=3, s=6), dict(p=3, s=8), dict(p=3, s=12),
        dict(p=4, s=4), dict(p=4, s=6), dict(p=4, s=8),
        dict(p=3, s=4, point_load=True), dict(p=3, s=10, point_load=True),
        dict(p=5, s=8, stabilized=True),
    ], ids=lambda c: "-".join(k if v is True else "%s%s" % (k, v) for k, v in c.items()))
    def test_lower_bound_within_three(self, monkeypatch, case):
        A, f = _plate_system(**case)
        lu = _CountingLU(_solver_lu(monkeypatch, A, f))
        est = _cond_estimate(A, lu)
        kappa = np.linalg.cond(A.toarray(), 1)
        # both carry roundoff of relative size about kappa * eps
        assert kappa / 3.0 <= est <= kappa * (1.0 + kappa * np.finfo(float).eps)
        assert lu.solves <= 11

    def test_repeatable(self):
        A, f = _plate_system(4, 8)
        assert solve(A, f)[2] == solve(A, f)[2]


class TestEvaluate:
    def test_zero_coeffs(self, clamped_square, material):
        sol = Solution(clamped_square, np.zeros(clamped_square.N6), material, LoadSpec(), 0, 1)
        u, g, H = evaluate(sol, [(0, 0.3, 0.5), (2, 0.9, 0.1)])
        assert np.all(u == 0) and np.all(g == 0) and np.all(H == 0)

    def test_x_reproduction_field(self, material):
        dom = square4(degree=3).with_segments(3, 3, 1)
        cs = build_coupled_space(dom)
        z = reproduction_vector(cs, "x")
        sol = Solution(cs, z, material, LoadSpec(), 0, 1)
        rng = np.random.default_rng(1)
        pts = [(int(rng.integers(0, 4)), rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98))
               for _ in range(100)]
        u, g, H = evaluate(sol, pts)
        xs = np.array([dom.patches[m].map(z_, x_)[0] for m, z_, x_ in pts])
        assert np.max(np.abs(u - xs)) <= 1e-10
        assert np.max(np.abs(g - [1.0, 0.0])) <= 1e-10
        assert np.max(np.abs(H)) <= 1e-9

    def test_finite_difference_oracle(self, clamped_square, material):
        exact = cos2_square()
        loads = LoadSpec(surface=manufactured_rhs(exact, material.D))
        sol = solve_plate(clamped_square, material, loads)
        dom = clamped_square.domain
        rng = np.random.default_rng(2)

        def u_at(xy):
            return float(evaluate(sol, [locate_point(dom, xy)], nders=0)[0])

        for _ in range(8):
            m = int(rng.integers(0, 4))
            zp, xp = rng.uniform(0.35, 0.65, 2)
            xy = dom.patches[m].map(zp, xp)
            _, g, _ = evaluate(sol, [(m, zp, xp)])
            eps = 1e-6
            fdx = (u_at(xy + [eps, 0.0]) - u_at(xy - [eps, 0.0])) / (2 * eps)
            fdy = (u_at(xy + [0.0, eps]) - u_at(xy - [0.0, eps])) / (2 * eps)
            assert g[0][0] == pytest.approx(fdx, rel=1e-4, abs=1e-8)
            assert g[0][1] == pytest.approx(fdy, rel=1e-4, abs=1e-8)

    def test_derivatives_at_center_rejected(self, clamped_square, material):
        sol = Solution(clamped_square, np.zeros(clamped_square.N6), material, LoadSpec(), 0, 1)
        with pytest.raises(GeometryError):
            evaluate(sol, [(0, 0.5, 0.0)], nders=1)
        assert evaluate(sol, [(0, 0.5, 0.0)], nders=0)[0] == 0.0


class TestBendingMoments:
    def test_nu_zero_m11(self):
        dom = fan2(degree=3).with_segments(2, 2, 1)
        cs = build_coupled_space(dom)
        mat = PlateMaterial(E=1.0, nu=0.0, D=3.0)
        z = reproduction_vector(cs, "x")
        sol = Solution(cs, z, mat, LoadSpec(), 0, 1)
        pts = [(0, 0.4, 0.6), (1, 0.7, 0.3)]
        m11, m22, m12 = bending_moments(sol, pts)
        _, _, H = evaluate(sol, pts)
        assert np.allclose(m11, mat.D * H[:, 0, 0], atol=1e-14)

    def test_quadratic_field_constant_moments(self):
        # fit u = x^2/2 on a polynomial fan patch; m11 = D, m22 = nu D, m12 = 0
        dom = fan2(degree=3).with_segments(2, 2, 1)
        cs = build_coupled_space(dom)
        mat = PlateMaterial(E=1.0, nu=0.3, D=2.0)
        rng = np.random.default_rng(3)
        pts = [(int(rng.integers(0, 2)), rng.uniform(0.02, 0.98), rng.uniform(0.05, 1.0))
               for _ in range(3 * cs.N6)]
        rows = np.zeros((len(pts), cs.N6))
        rhs = np.zeros(len(pts))
        Mcsr = cs.M.tocsr()
        for r, (m, zp, xp) in enumerate(pts):
            idx, V = cs.uspace.parametric_eval(m, zp, xp, nders=0)[:2]
            for a, v in zip(idx, V):
                sl = slice(Mcsr.indptr[a], Mcsr.indptr[a + 1])
                rows[r, Mcsr.indices[sl]] += Mcsr.data[sl] * v
            rhs[r] = 0.5 * dom.patches[m].map(zp, xp)[0] ** 2
        z, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
        assert np.max(np.abs(rows @ z - rhs)) <= 1e-9  # x^2/2 is in the space
        sol = Solution(cs, z, mat, LoadSpec(), 0, 1)
        m11, m22, m12 = bending_moments(sol, [(0, 0.3, 0.7), (1, 0.6, 0.4)])
        assert np.allclose(m11, mat.D, atol=1e-7)
        assert np.allclose(m22, mat.nu * mat.D, atol=1e-7)
        assert np.allclose(m12, 0.0, atol=1e-7)


class TestErrorNorms:
    def test_exact_in_space_field(self, material):
        dom = square4(degree=3).with_segments(2, 2, 1)
        cs = build_coupled_space(dom)
        z = reproduction_vector(cs, "x")
        sol = Solution(cs, z, material, LoadSpec(), 0, 1)
        from sbiga.plate import ExactSolution

        exact = ExactSolution(
            value=lambda x, y: x,
            grad=lambda x, y: (np.ones_like(x), np.zeros_like(x)),
            hess=lambda x, y: (np.zeros_like(x),) * 3,
        )
        rep = error_norms(sol, exact)
        assert rep.h2_semi <= 1e-12 and rep.l2 <= 1e-12

    def test_quadrature_convergence(self, clamped_square, material):
        exact = cos2_square()
        loads = LoadSpec(surface=manufactured_rhs(exact, material.D))
        sol = solve_plate(clamped_square, material, loads)
        r1 = error_norms(sol, exact)
        r2 = error_norms(sol, exact, quad=8)
        assert abs(r1.h2_semi - r2.h2_semi) <= 1e-3 * r2.h2_semi
        assert abs(r1.l2 - r2.l2) <= 1e-3 * r2.l2


# ----------------------------------------------------------------------
# the quadrature kernels against their einsum forms over (S1, K, Q) tables


def _einsum_uncoupled_stiffness(cs, material):
    D, nu = material.D, material.nu
    nq = cs.domain.p + 1
    rows, cols, vals = [], [], []
    for m in range(len(cs.domain.patches)):
        tab = cs.uspace.quad_tables(m, nq, nq)
        for s2 in range(tab.S2):
            IDX, H11, H22, H12, geo = row_physical(tab, s2)
            w = geo["w"] * np.abs(geo["det"])
            lap = H11 + H22
            loc = D * (1.0 - nu) * (
                np.einsum("saq,sbq,sq->sab", H11, H11, w)
                + np.einsum("saq,sbq,sq->sab", H22, H22, w)
                + 2.0 * np.einsum("saq,sbq,sq->sab", H12, H12, w)
            ) + D * nu * np.einsum("saq,sbq,sq->sab", lap, lap, w)
            K = IDX.shape[1]
            rows.append(np.repeat(IDX, K, axis=1).ravel())
            cols.append(np.tile(IDX, (1, K)).ravel())
            vals.append(loc.ravel())
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(cs.N, cs.N),
    ).tocsc()


def _einsum_load(cs, g):
    nq = cs.domain.p + 1
    ftil = np.zeros(cs.N)
    for m in range(len(cs.domain.patches)):
        tab = cs.uspace.quad_tables(m, nq, nq)
        for s2 in range(tab.S2):
            IDX, A = tab.row_basis(s2, ("V",))
            geo = row_geometry(tab, s2)
            w = geo["w"] * np.abs(geo["det"]) * g(geo["px"], geo["py"])
            np.add.at(ftil, IDX.ravel(), np.einsum("saq,sq->sa", A["V"], w).ravel())
    return cs.M1.T @ (cs.M0.T @ ftil)


def _einsum_errors(sol, exact):
    cs = sol.space
    nq = cs.domain.p + 1
    l2 = h2 = 0.0
    for m in range(len(cs.domain.patches)):
        tab = cs.uspace.quad_tables(m, nq, nq)
        for s2 in range(tab.S2):
            IDX, H11, H22, H12, geo = row_physical(tab, s2)
            V = tab.row_basis(s2, ("V",))[1]["V"]
            w = geo["w"] * np.abs(geo["det"])
            c = sol.ctil[IDX]
            uh = np.einsum("sa,saq->sq", c, V)
            e11, e22, e12 = exact.hess(geo["px"], geo["py"])
            l2 += np.sum(w * (uh - exact.value(geo["px"], geo["py"])) ** 2)
            h2 += np.sum(w * (
                (np.einsum("sa,saq->sq", c, H11) - e11) ** 2
                + (np.einsum("sa,saq->sq", c, H22) - e22) ** 2
                + 2.0 * (np.einsum("sa,saq->sq", c, H12) - e12) ** 2
            ))
    return np.sqrt(h2), np.sqrt(l2)


@pytest.fixture(scope="module", params=["fan2", "stabilized_p5_s8", "perforated_disk_s2"])
def kernel_case(request):
    if request.param == "fan2":
        return build_coupled_space(fan2(degree=3, bc={"all": "clamped"}).with_segments(4, 4, 1))
    if request.param == "stabilized_p5_s8":
        return build_combined_space(
            square4(degree=5, bc={"all": "clamped"}), 8, 1
        )
    return build_coupled_space(perforated_disk(degree=3)[0].with_segments(2, 2, 1))


class TestKernelOracles:
    mat = PlateMaterial(E=1.0, nu=0.3, D=1.7)

    def test_stiffness_matches_einsum(self, kernel_case):
        # compared before the congruence: M0 sums large center-row entries
        # of Atilde that cancel, which scales element roundoff up ~1000x
        A = _uncoupled_stiffness(kernel_case, self.mat)
        B = _einsum_uncoupled_stiffness(kernel_case, self.mat)
        assert abs(A - B).max() <= 1e-13 * abs(B).max()

    def test_error_norms_match_einsum(self, kernel_case):
        rng = np.random.default_rng(5)
        sol = Solution(kernel_case, rng.standard_normal(kernel_case.N6), self.mat, None, 0, 1)
        rep = error_norms(sol, cos2_square())
        h2, l2 = _einsum_errors(sol, cos2_square())
        assert rep.h2_semi == pytest.approx(h2, rel=1e-13)
        assert rep.l2 == pytest.approx(l2, rel=1e-13)

    def test_load_matches_einsum(self, kernel_case):
        g = lambda x, y: np.sin(3.0 * x) + y**2 + 0.5
        f = assemble_load(kernel_case, LoadSpec(surface=g))
        ref = _einsum_load(kernel_case, g)
        assert np.max(np.abs(f - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_first_span_columns_match_all_gemm_bitwise(self):
        # the radial layers j <= p-2 are supported on the first span only,
        # which keeps its GEMMs, so their columns of Atilde are the all-GEMM
        # ones bit for bit; the other columns agree to roundoff per row
        for cs in (
            build_coupled_space(square4(degree=4, bc={"all": "clamped"}).with_segments(16, 16, 1)),
            build_combined_space(square4(degree=5, bc={"all": "clamped"}), 8, 1),
        ):
            A = _uncoupled_stiffness(cs, self.mat)
            B = gemm_uncoupled_stiffness(cs, self.mat)
            us, p = cs.uspace, cs.domain.p
            first = [
                us.flat(m, b, i, jloc)
                for m, per in enumerate(us.blocks)
                for b, blk in enumerate(per)
                for i in range(blk.n1)
                for jloc in range(max(0, p - 1 - blk.j_lo))
            ]
            assert len(first) > 0
            Af, Bf = A[:, first], B[:, first]
            assert_same_bytes((Af.data, Bf.data), (Af.indices, Bf.indices), (Af.indptr, Bf.indptr))
            rowmax = abs(B).max(axis=1).toarray().ravel()
            assert np.all(abs(A - B).max(axis=1).toarray().ravel() <= 1e-14 * rowmax)

    def test_scaled_patch_matches_einsum(self):
        # c1 != 1, with c2 > 0 or c2 = 0: the load and the error norms take
        # the patch's scaling through their geometry on the whole Gauss
        # grid, the stiffness past the first radial span through q in its
        # radial weights and c1 in det J(q=1)
        c = line_curve((0.0, 1.0), (1.0, 1.0), 3)
        g = lambda x, y: np.sin(3.0 * x) + y**2 + 0.5
        for c1, c2 in ((0.5, 0.5), (2.0, 0.0)):
            cs = build_coupled_space(make_domain([SBPatch(c, (0.5, 0.0), c1=c1, c2=c2)]).with_segments(4, 4, 1))
            A = _uncoupled_stiffness(cs, self.mat)
            B = _einsum_uncoupled_stiffness(cs, self.mat)
            assert abs(A - B).max() <= 1e-13 * abs(B).max()
            ref = _einsum_load(cs, g)
            assert np.max(np.abs(assemble_load(cs, LoadSpec(surface=g)) - ref)) <= 1e-13 * np.max(np.abs(ref))
            sol = Solution(cs, np.random.default_rng(5).standard_normal(cs.N6), self.mat, None, 0, 1)
            rep = error_norms(sol, cos2_square())
            h2, l2 = _einsum_errors(sol, cos2_square())
            assert rep.h2_semi == pytest.approx(h2, rel=1e-13)
            assert rep.l2 == pytest.approx(l2, rel=1e-13)


def _star_polygon_domain(gaps, radii, phase, degree, bc="clamped"):
    """Domain of one scaling center at the origin, clamped by default: one
    patch per edge of the polygon whose vertices sit at the given radii and
    at angles that fall by the given gaps (clockwise, interior on the
    right)."""
    theta = phase - 2.0 * np.pi * np.cumsum(gaps) / np.sum(gaps)
    pts, _ = _polyline_loop(list(zip(radii * np.cos(theta), radii * np.sin(theta))), degree)
    bezier = KnotVector([0.0] * (degree + 1) + [1.0] * (degree + 1), degree)
    patches = [
        SBPatch(NurbsCurve(bezier, pts[k * degree : (k + 1) * degree + 1]), (0.0, 0.0))
        for k in range(len(gaps))
    ]
    return make_domain(patches, bc={"all": bc})


@st.composite
def _star_polygons(draw):
    n = draw(st.integers(3, 6))
    # gap ratios within 1.5 keep every angular gap below 0.86 pi
    gaps = np.array(draw(st.lists(st.floats(1.0, 1.5), min_size=n, max_size=n)))
    radii = np.array(draw(st.lists(st.floats(0.6, 1.4), min_size=n, max_size=n)))
    return gaps, radii, draw(st.floats(0.0, 2.0 * np.pi)), draw(st.floats(0.0, 0.45))


class TestRandomStarPolygons:
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(_star_polygons())
    def test_clamped_stiffness(self, case):
        gaps, radii, phase, nu = case
        cs = build_coupled_space(_star_polygon_domain(gaps, radii, phase, 3).with_segments(2, 2, 1))
        mat = PlateMaterial(E=1.0, nu=nu, D=1.0)
        A = assemble_stiffness(cs, mat)
        assert abs(A - A.T).max() <= 1e-13 * abs(A).max()
        np.linalg.cholesky(A.toarray())  # raises unless positive definite
        At = _uncoupled_stiffness(cs, mat)
        B = _einsum_uncoupled_stiffness(cs, mat)
        assert abs(At - B).max() <= 1e-13 * abs(B).max()

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(_star_polygons())
    def test_c1_space(self, case):
        gaps, radii, phase, _ = case
        cs = build_coupled_space(_star_polygon_domain(gaps, radii, phase, 3).with_segments(2, 2, 1))
        assert max(rel for _, rel in c1_jump_report(cs, nsamples=20)) <= 1e-8
        assert cs.N6 == cs.N4 - gram_rank(cs.MJ, tol=1e-11)
        free = build_coupled_space(
            _star_polygon_domain(gaps, radii, phase, 3, bc="free").with_segments(2, 2, 1)
        )
        for which in ("1", "x", "y"):
            assert _reproduction_error(free, which) <= 1e-10
        for space in (cs, free):
            assert_same_m0(space.m0res, space.uspace)


def _star_arc_domain(gaps, radii, sweeps, phase, degree, bc="clamped"):
    """Domain of one scaling center at the origin, clamped by default, whose
    edges are circular arcs (NURBS patches): edge k runs clockwise from
    vertex k to vertex k+1, placed as in :func:`_star_polygon_domain`, and
    turns by sweeps[k] radians, bulging out where sweeps[k] < 0."""
    theta = phase - 2.0 * np.pi * np.cumsum(gaps) / np.sum(gaps)
    verts = np.stack([radii * np.cos(theta), radii * np.sin(theta)], axis=1)
    patches = []
    for a, b, sweep in zip(verts, np.roll(verts, -1, axis=0), sweeps):
        # the arc's center lies on the bisector of the chord a -> b
        center = 0.5 * (a + b) + np.array([a[1] - b[1], b[0] - a[0]]) / (2.0 * np.tan(0.5 * sweep))
        angle0 = np.arctan2(a[1] - center[1], a[0] - center[0])
        arc = circle_arc(center, np.hypot(*(a - center)), angle0, angle0 + sweep, degree)
        patches.append(SBPatch(arc, (0.0, 0.0)))
    return make_domain(patches, bc={"all": bc})


@st.composite
def _star_arcs(draw):
    n = draw(st.integers(4, 6))
    gaps = np.array(draw(st.lists(st.floats(1.0, 1.5), min_size=n, max_size=n)))
    radii = np.array(draw(st.lists(st.floats(0.6, 1.4), min_size=n, max_size=n)))
    # 0.1 to 1 rad bulging out, 0.04 to 0.4 rad bulging in: with four or
    # more edges every patch stays star-shaped (det J / xi >= 0.19 on all
    # corners of these ranges)
    sweeps = [draw(st.floats(0.1, 1.0)) * draw(st.sampled_from([-1.0, 0.4])) for _ in range(n)]
    return gaps, radii, np.array(sweeps), draw(st.floats(0.0, 2.0 * np.pi)), draw(st.floats(0.0, 0.45))


class TestRandomStarArcs:
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(_star_arcs())
    def test_clamped_space(self, case):
        gaps, radii, sweeps, phase, nu = case
        cs = build_coupled_space(_star_arc_domain(gaps, radii, sweeps, phase, 3).with_segments(2, 2, 1))
        mat = PlateMaterial(E=1.0, nu=nu, D=1.0)
        A = assemble_stiffness(cs, mat)
        assert abs(A - A.T).max() <= 1e-13 * abs(A).max()
        np.linalg.cholesky(A.toarray())  # raises unless positive definite
        assert max(rel for _, rel in c1_jump_report(cs, nsamples=20)) <= 1e-8
        # the patch-level load and error norms against their (S1, K, Q) forms
        g = lambda x, y: np.sin(3.0 * x) + y**2 + 0.5
        f = assemble_load(cs, LoadSpec(surface=g))
        ref = _einsum_load(cs, g)
        assert np.max(np.abs(f - ref)) <= 1e-13 * np.max(np.abs(ref))
        sol = Solution(cs, np.random.default_rng(5).standard_normal(cs.N6), mat, None, 0, 1)
        rep = error_norms(sol, cos2_square())
        h2, l2 = _einsum_errors(sol, cos2_square())
        assert rep.h2_semi == pytest.approx(h2, rel=1e-13)
        assert rep.l2 == pytest.approx(l2, rel=1e-13)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(_star_arcs())
    def test_free_space_reproduces_linears(self, case):
        gaps, radii, sweeps, phase, _ = case
        free = build_coupled_space(
            _star_arc_domain(gaps, radii, sweeps, phase, 3, bc="free").with_segments(2, 2, 1)
        )
        for which in ("1", "x", "y"):
            assert _reproduction_error(free, which) <= 1e-10


class TestManufacturedRhs:
    def test_zero_for_zero(self):
        from sbiga.plate import ExactSolution

        exact = ExactSolution(None, None, None, biharmonic=lambda x, y: 0.0 * x)
        g = manufactured_rhs(exact, 5.0)
        assert g(0.3, 0.4) == 0.0

    def test_x3y_is_biharmonic(self):
        # Lap^2(x^3 y) = 0: finite differences of the exact biharmonic field
        h = 1e-2
        u = lambda x, y: x**3 * y

        def lap(f, x, y):
            return (f(x + h, y) + f(x - h, y) + f(x, y + h) + f(x, y - h) - 4 * f(x, y)) / h**2

        val = lap(lambda a, b: lap(u, a, b), 0.21, -0.13)
        assert abs(val) <= 1e-6

    def test_cos2_fd_oracle(self):
        exact = cos2_square()
        g = manufactured_rhs(exact, 1.0)
        h = 1e-2

        def lap(f, x, y):
            return (f(x + h, y) + f(x - h, y) + f(x, y + h) + f(x, y - h) - 4 * f(x, y)) / h**2

        for xy in ((0.0, 0.0), (0.21, -0.37), (-0.4, 0.11)):
            fd = lap(lambda a, b: lap(exact.value, a, b), *xy)
            assert g(*xy) == pytest.approx(fd, rel=1e-3, abs=1e-3 * abs(fd) + 1.0)


class TestPointLoadReference:
    def test_single_term(self):
        assert point_load_reference(terms=1) == pytest.approx(4 / (np.pi**4 * 4), rel=1e-14)

    def test_large_sum_matches_reported_value(self):
        assert point_load_reference(terms=10000) == pytest.approx(0.01160, abs=5e-6)

    def test_monotone_in_terms(self):
        vals = [point_load_reference(terms=t) for t in (1, 3, 9, 33, 101)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestStructuralInvariants:
    def test_energy_monotone_under_nested_refinement(self):
        # Galerkin orthogonality proxy: for nested clamped spaces the energy
        # of the discrete solution is non-decreasing
        from sbiga.models import square4

        exact = cos2_square()
        mat = PlateMaterial(E=1e4, nu=0.0, D=1.0)
        loads = LoadSpec(surface=manufactured_rhs(exact, mat.D))
        energies = []
        for s in (2, 4, 8):
            dom = square4(degree=3, bc={"all": "clamped"}).with_segments(s, s, 1)
            cs = build_coupled_space(dom)
            A = assemble_stiffness(cs, mat)
            f = assemble_load(cs, loads)
            x, _, _ = solve(A, f)
            energies.append(float(x @ (A @ x)))
        assert energies[0] <= energies[1] * (1 + 1e-12)
        assert energies[1] <= energies[2] * (1 + 1e-12)

    def test_point_load_reflection_symmetry(self):
        # centered point load on the symmetric mesh: u(x, y) == u(y, x)
        # == u(-x, -y) at matched samples
        from sbiga.geometry import locate_point
        from sbiga.models import square4

        dom = square4(degree=3, offset=(0.0, 0.0), bc={"all": "simply_supported"})
        cs = build_coupled_space(dom.with_segments(4, 4, 1))
        mat = PlateMaterial(E=1e6, nu=0.0, D=1.0)
        sol = solve_plate(cs, mat, LoadSpec(point_loads=[((0.0, 0.0), 1.0)]))
        rng = np.random.default_rng(7)

        def u_at(xy):
            return float(evaluate(sol, [locate_point(cs.domain, xy)], nders=0)[0])

        for _ in range(20):
            x, y = rng.uniform(-0.45, 0.45, 2)
            base = u_at((x, y))
            for mirror in ((y, x), (-x, -y), (-y, -x)):
                assert u_at(mirror) == pytest.approx(base, rel=1e-6, abs=1e-12)

    def test_m11_symmetric_under_xy_swap(self):
        # swapping x and y maps m11 to m22; for the centered point load the
        # m11 field at (x, y) equals m11 at (y, x) after the swap symmetry
        from sbiga.geometry import locate_point
        from sbiga.models import square4

        dom = square4(degree=3, offset=(0.0, 0.0), bc={"all": "simply_supported"})
        cs = build_coupled_space(dom.with_segments(4, 4, 1))
        mat = PlateMaterial(E=1e6, nu=0.0, D=1.0)
        sol = solve_plate(cs, mat, LoadSpec(point_loads=[((0.0, 0.0), 1.0)]))
        rng = np.random.default_rng(8)
        for _ in range(12):
            x, y = rng.uniform(0.05, 0.4, 2)
            p1 = locate_point(cs.domain, (x, y))
            p2 = locate_point(cs.domain, (y, x))
            m11_a, m22_a, _ = bending_moments(sol, [p1])
            m11_b, m22_b, _ = bending_moments(sol, [p2])
            assert m11_a[0] == pytest.approx(m22_b[0], rel=1e-6, abs=1e-9)
            assert m22_a[0] == pytest.approx(m11_b[0], rel=1e-6, abs=1e-9)


class TestEdgeFunctionals:
    def test_edge_load_work_against_reproductions(self):
        # int_edge Q * v ds tested through the exactly reproduced fields:
        # with v = 1 the load vector pairs to Q * edge length, with v = x to
        # Q * int_edge x ds
        from sbiga.models import square4

        dom = square4(degree=3).with_segments(2, 2, 1)
        cs = build_coupled_space(dom)
        # patch 1 outer edge is the top side y = 0.5, x in [-0.5, 0.5]
        f = assemble_load(cs, LoadSpec(edge_loads=[(1, 2.0)]))
        z1 = reproduction_vector(cs, "1")
        zx = reproduction_vector(cs, "x")
        assert f @ z1 == pytest.approx(2.0 * 1.0, rel=1e-12)
        assert f @ zx == pytest.approx(0.0, abs=1e-12)

    def test_edge_moment_work_against_reproductions(self):
        # int_edge M * dv/dn ds: zero for v = 1, M * length * n_y for v = y
        from sbiga.models import square4

        dom = square4(degree=3).with_segments(2, 2, 1)
        cs = build_coupled_space(dom)
        f = assemble_load(cs, LoadSpec(edge_moments=[(1, 3.0)]))
        z1 = reproduction_vector(cs, "1")
        zy = reproduction_vector(cs, "y")
        assert f @ z1 == pytest.approx(0.0, abs=1e-12)
        # top edge outward normal is (0, 1): dv/dn of y is 1
        assert f @ zy == pytest.approx(3.0 * 1.0, rel=1e-12)


class TestPointLoadStructure:
    def test_center_load_hits_only_center_columns(self):
        # at the scaling center every pruned-layer function vanishes, so the
        # C0-level load vector is supported on the three center columns
        from sbiga.models import square4

        dom = square4(degree=3, offset=(-0.15, 0.1)).with_segments(3, 3, 1)
        cs = build_coupled_space(dom)
        from sbiga.geometry import locate_point

        m, z, x = locate_point(dom, (-0.15, 0.1))
        idx, V = cs.uspace.parametric_eval(m, z, x, nders=0)[:2]
        row = np.zeros(cs.N)
        row[idx] = V
        f4 = np.asarray(cs.M0.T @ row).ravel()
        nz = set(np.flatnonzero(np.abs(f4) > 1e-14))
        center_cols = set(cs.m0res.center_cols[0])
        assert nz <= center_cols and nz
