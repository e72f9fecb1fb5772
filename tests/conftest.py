"""Shared fixtures: expensive studies are session-scoped and reused by the
acceptance module."""

import time

import pytest

from sbiga.coupling import build_coupled_space
from sbiga.geometry import locate_point
from sbiga.models import square4
from sbiga.plate import (
    LoadSpec,
    PlateMaterial,
    cos2_square,
    error_norms,
    evaluate,
    manufactured_rhs,
    point_load_reference,
    solve_plate,
)
from sbiga.stabilize import build_combined_space


class Study:
    def __init__(self):
        self.h = []
        self.h2 = []
        self.l2 = []
        self.extra = {}


def smooth_square_study(p, segment_list, stabilized=False):
    exact = cos2_square()
    mat = PlateMaterial(E=1e4, nu=0.0, D=1.0)
    loads = LoadSpec(surface=manufactured_rhs(exact, mat.D))
    out = Study()
    for s in segment_list:
        if stabilized:
            cs = build_combined_space(
                square4(degree=p, bc={"all": "clamped"}), s, 1
            )
        else:
            dom = square4(degree=p, bc={"all": "clamped"}).with_segments(s, s, 1)
            cs = build_coupled_space(dom)
        sol = solve_plate(cs, mat, loads)
        rep = error_norms(sol, exact)
        out.h.append(1.0 / s)
        out.h2.append(rep.h2_semi)
        out.l2.append(rep.l2)
    return out


def point_load_study(segment_list, stabilized=False, p=3):
    uref = point_load_reference(terms=4001)
    mat = PlateMaterial(E=1e6, nu=0.0, D=1.0)
    loads = LoadSpec(point_loads=[((0.0, 0.0), 1.0)])
    out = Study()
    out.extra["uref"] = uref
    rels = []
    for s in segment_list:
        base = square4(degree=p, offset=(0.0, 0.0), bc={"all": "simply_supported"})
        if stabilized:
            cs = build_combined_space(base, s, 1)
        else:
            cs = build_coupled_space(base.with_segments(s, s, 1))
        sol = solve_plate(cs, mat, loads)
        m, z, x = locate_point(cs.domain, (0.0, 0.0))
        uc = float(evaluate(sol, [(m, z, x)], nders=0)[0])
        out.h.append(1.0 / s)
        rels.append(abs(1.0 - uc / uref))
    out.extra["rel"] = rels
    return out


@pytest.fixture(scope="session")
def smooth_p3():
    t0 = time.perf_counter()
    study = smooth_square_study(3, [4, 6, 8, 12, 16])
    study.extra["wall"] = time.perf_counter() - t0
    return study


@pytest.fixture(scope="session")
def smooth_p4():
    return smooth_square_study(4, [4, 6, 8, 12, 16])


@pytest.fixture(scope="session")
def pointload_p3():
    return point_load_study([4, 10])


@pytest.fixture(scope="session")
def stab_smooth_p4():
    return smooth_square_study(4, [4, 8, 12, 16, 20, 24, 28], stabilized=True)


@pytest.fixture(scope="session")
def stab_pointload_p3():
    return point_load_study([4, 8, 12, 16, 20, 24, 28], stabilized=True)


@pytest.fixture(scope="session")
def p5_trend():
    levels = [4, 8, 12, 16, 20, 24]
    return {
        "levels": levels,
        "unstab": smooth_square_study(5, levels),
        "stab": smooth_square_study(5, levels, stabilized=True),
    }


@pytest.fixture(scope="session")
def example_spaces():
    """Coupled spaces of every bundled geometry family (free BCs), used by
    the C1 / AS-G1 / reproduction acceptance criteria."""
    from sbiga.models import (
        chamfered_square,
        disk4,
        square_with_hole,
        two_blocks_square,
    )
    from sbiga.trim import assemble_trimmed_domain

    spaces = {}
    spaces["square"] = build_coupled_space(square4(degree=3).with_segments(4, 4, 1))
    spaces["disk"] = build_coupled_space(disk4(degree=3).with_segments(2, 2, 1))
    spaces["two_blocks"] = build_coupled_space(two_blocks_square(degree=3).with_segments(2, 2, 1))
    spaces["chamfered"] = build_coupled_space(
        assemble_trimmed_domain(*chamfered_square(degree=3)).with_segments(2, 2, 1)
    )
    spaces["diamond_hole"] = build_coupled_space(
        assemble_trimmed_domain(*square_with_hole(degree=3)).with_segments(2, 2, 1)
    )
    spaces["stabilized_square"] = build_combined_space(
        square4(degree=3), 4, 1
    )
    return spaces
