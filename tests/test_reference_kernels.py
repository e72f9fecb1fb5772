"""The array kernels of the set-up path against their earlier versions in
:mod:`reference_kernels`, compared byte for byte."""

import pathlib

import numpy as np
import pytest

from reference_kernels import (
    assert_same_bytes,
    assert_same_m0,
    assert_same_topology,
    ders_basis_ratio,
    interfaces_pairwise,
    refine_to_segments_per_knot,
    regularity,
    with_segments_detected,
)
from sbiga import models
from sbiga.coupling import build_m0
from sbiga.harness import _GEOMETRY_BUILDERS, CaseConfig, _trimmed
from sbiga.space import UncoupledSpace
from sbiga.splines import KnotVector, ders_basis, insert_knot, make_open_knot_vector
from sbiga.stabilize import combined_uncoupled_space

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = sorted(
    str(p.relative_to(ROOT))
    for p in list((ROOT / "configs").glob("*.json")) + list((ROOT / "perfbench" / "configs").glob("*.json"))
)


def _split_knot_vector(p):
    """C^-1 breaks as left by curve splitting: interior multiplicity p+1 at
    0.3, a multiplicity-p knot at 0.55 and a simple one at 0.8."""
    kv = make_open_knot_vector(p, 1, p - 1)
    ctrl = np.zeros((kv.n, 1))
    for t, times in ((0.3, p + 1), (0.55, p), (0.8, 1)):
        kv, ctrl = insert_knot(kv, ctrl, t, times)
    return kv


def _knot_vectors():
    for p in range(1, 6):
        for r in range(p):
            for segments in (1, 3, 7):
                yield make_open_knot_vector(p, segments, r)
        yield _split_knot_vector(p)


class TestDersBasisReference:
    @pytest.mark.parametrize(
        "kv", list(_knot_vectors()), ids=lambda kv: "p%d-n%d-r%d" % (kv.p, kv.n, regularity(kv))
    )
    def test_bitwise_equal(self, kv):
        rng = np.random.default_rng(kv.n)
        bps = kv.breakpoints()
        ts = np.concatenate([rng.uniform(0.0, 1.0, 64), bps, np.nextafter(bps, 0.5), [0.0, 1.0]])
        for nders in range(kv.p + 2):
            # every division is by a positive knot difference: none raises
            with np.errstate(divide="raise", invalid="raise"):
                first, D = ders_basis(kv, ts, nders)
            ref_first, ref_D = ders_basis_ratio(kv, ts, nders)
            assert_same_bytes((first, ref_first), (D, ref_D))
            for t in (0.0, 1.0, bps[len(bps) // 2], ts[0]):
                f, d = ders_basis(kv, np.array([t]), nders)
                rf, rd = ders_basis_ratio(kv, np.array([t]), nders)
                assert_same_bytes((f, rf), (d, rd))

    def test_split_vector_has_c_minus_1_break(self):
        for p in range(1, 6):
            assert _split_knot_vector(p).multiplicity(0.3) == p + 1

    @pytest.mark.parametrize("values", [
        [0.0, 0.0, 0.0, 0.5, 1.0, 1.0],  # knot 0 repeated p+2 times
        [0.0, 0.0, 0.5, 1.0, 1.0, 1.0],  # knot 1 repeated p+2 times
    ])
    def test_rejects_end_multiplicity_above_p_plus_1(self, values):
        from sbiga.errors import SplineError

        with pytest.raises(SplineError, match="p-open"):
            KnotVector(values, 1)


def _config_levels(path):
    cfg = CaseConfig.from_file(str(ROOT / path))
    base, _ = cfg.build_base_domain()
    return cfg, base


@pytest.mark.parametrize("path", CONFIGS)
class TestConfigLevels:
    def test_refine_to_segments_bitwise(self, path):
        cfg, base = _config_levels(path)
        levels = cfg.segments + ([cfg.stabilize_fine] if cfg.stabilize_fine else [])
        for s in levels:
            for patch in base.patches:
                new = patch.curve.refine_to_segments(s, cfg.r)
                ref = refine_to_segments_per_knot(patch.curve, s, cfg.r)
                assert_same_bytes((new.kv.values, ref.kv.values), (new.points, ref.points),
                                  (new.weights, ref.weights))

    def test_build_m0_bitwise(self, path):
        cfg, base = _config_levels(path)
        for s in cfg.segments:
            if cfg.stabilize:
                _, us = combined_uncoupled_space(base, cfg.stabilize_fine or s, cfg.r)
            else:
                us = UncoupledSpace.from_domain(base.with_segments(s, s, cfg.r))
            assert_same_m0(build_m0(us), us)


    def test_topology_carried_over(self, path):
        cfg, base = _config_levels(path)
        for s in cfg.segments + ([cfg.stabilize_fine] if cfg.stabilize_fine else []):
            assert_same_topology(base.with_segments(s, s, cfg.r),
                                 with_segments_detected(base, s, s, cfg.r))


_BUILDERS = dict(_GEOMETRY_BUILDERS, square_with_circle_hole=_trimmed(models.square_with_circle_hole))


@pytest.mark.parametrize("name", sorted(_BUILDERS))
def test_model_topology_carried_over(name):
    built = _BUILDERS[name](degree=3)
    base = built[0] if isinstance(built, tuple) else built
    assert_same_topology(base.with_segments(3, 2, 1), with_segments_detected(base, 3, 2, 1))


@pytest.mark.parametrize("name", sorted(_BUILDERS))
def test_model_interfaces_match_pairwise_search(name):
    built = _BUILDERS[name](degree=3)
    base = built[0] if isinstance(built, tuple) else built
    assert [(i.kind, i.left, i.right) for i in base.interfaces] == interfaces_pairwise(base)


def test_example_spaces_m0_bitwise(example_spaces):
    for cs in example_spaces.values():
        assert_same_m0(cs.m0res, cs.uspace, cs.domain)
