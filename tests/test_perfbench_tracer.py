"""Guard for the benchmark's per-layer tracer.

``perfbench/tracer.py`` rebinds public functions and methods of the
package by name for one traced pass.  A renamed or deleted name breaks
``perfbench/run.py --trace 1``; this test runs one small case under the
tracer so that such a change fails here.  The tracer file is loaded from
its path and not modified.
"""

import importlib.util
import pathlib
import sys

import scipy.sparse.linalg as spla

from sbiga import coupling, geometry, space
from sbiga.harness import CaseConfig
from sbiga.plate import solve_plate

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores():
    tracer = load_tracer()
    cfg = CaseConfig({
        "geometry": {"builtin": "square4"},
        "discretization": {"p": 3, "r": 1},
        "material": {"E": 1e4, "nu": 0.0, "D": 1.0},
        "bcs": {"all": "clamped"},
        "loads": {"surface": "from_exact"},
        "exact": {"builtin": "cos2_square"},
        "study": {"segments": [2]},
    })
    base, info = cfg.build_base_domain()
    owners = [m for n, m in sys.modules.items() if n == "sbiga" or n.startswith("sbiga.")]
    owners += [geometry.MultiPatchDomain, space.UncoupledSpace, coupling.CoupledSpace, spla]
    before = {id(owner): dict(vars(owner)) for owner in owners}

    with tracer.Tracer() as tr:
        rebound = [(owner, attr) for owner, attr, _ in tr._undo]
        cs = cfg.build_space(base, 2)
        solve_plate(cs, cfg.material, cfg.load_spec(info), quad=cfg.quad_order)

    metrics = tr.metrics()
    assert metrics["coupling.n6"][0] == cs.N6
    assert metrics["plate.a_nnz"][0] > 0
    assert rebound
    for owner, attr in rebound:
        assert vars(owner)[attr] is before[id(owner)][attr], (owner, attr)
