"""Per-layer timers and counters for the traced pass.

The tracer rebinds public functions of the ``sbiga`` modules (and the
``splu`` that ``plate.solve`` calls) to timing or counting wrappers for the
duration of one pass, then restores them.  A function imported by name
into several modules is rebound in every module that holds it, so calls
through any of those names are seen.  Nothing in the package is edited.
"""

import sys
import time
from collections import defaultdict

import numpy as np
import scipy.sparse.linalg as spla

from sbiga import coupling, geometry, plate, space, stabilize

# Span names whose intervals are disjoint within a pass; their sum can not
# exceed the pass time.
TOP_LEVEL_SPANS = (
    "geometry.refine_s", "coupling.build_s", "plate.stiffness_s", "plate.load_s",
    "plate.solve_s", "plate.errors_s", "plate.evaluate_s",
)
# Spans nested inside coupling.build_s.
BUILD_SPANS = ("coupling.m0_s", "coupling.mj_s", "coupling.nullspace_s", "coupling.basis_product_s")

SIZE_NAMES = (
    "coupling.n", "coupling.n4", "coupling.n6", "coupling.interfaces",
    "coupling.active_interface_dofs", "coupling.mj_nnz", "coupling.m1_nnz",
    "coupling.m_nnz", "plate.a_nnz", "plate.lu_nnz",
)
COUNT_NAMES = ("space.quad_tables_calls", "space.physical_eval_calls", "splines.ders_basis_calls")


class Tracer:
    """Accumulates span times, call counts and sizes over one pass."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self.sizes = defaultdict(int)
        self.n6_per_case = []
        self.a_rows_per_case = []
        self._open = defaultdict(int)
        self._undo = []

    # -- wrappers ------------------------------------------------------

    def _timed(self, name, func, on_result=None):
        def wrapper(*args, **kwargs):
            if self._open[name]:  # nested call of the same span: time once
                return func(*args, **kwargs)
            self._open[name] += 1
            t0 = time.perf_counter()
            try:
                out = func(*args, **kwargs)
            finally:
                self.seconds[name] += time.perf_counter() - t0
                self._open[name] -= 1
            if on_result is not None:
                on_result(out)
            return out

        return wrapper

    def _counted(self, name, func):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    def _replace(self, owner, attr, wrapper):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _rebind(self, func, wrapper):
        """Replace ``func`` in every loaded sbiga module that binds it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "sbiga" or mod_name.startswith("sbiga."):
                for attr, val in list(vars(mod).items()):
                    if val is func:
                        self._replace(mod, attr, wrapper)

    # -- result hooks --------------------------------------------------

    def _on_space(self, cs):
        MJ = cs.MJ.tocsr()
        active = np.count_nonzero(np.diff(MJ.indptr)) if MJ.nnz else 0
        for name, val in (
            ("coupling.n", cs.N), ("coupling.n4", cs.N4), ("coupling.n6", cs.N6),
            ("coupling.interfaces", len(cs.domain.interfaces)),
            ("coupling.active_interface_dofs", active), ("coupling.mj_nnz", MJ.nnz),
            ("coupling.m1_nnz", cs.M1.nnz), ("coupling.m_nnz", cs.M.nnz),
        ):
            self.sizes[name] += int(val)
        self.n6_per_case.append(cs.N6)

    def _on_stiffness(self, A):
        self.sizes["plate.a_nnz"] += int(A.nnz)
        self.a_rows_per_case.append(A.shape[0])

    def _on_lu(self, lu):
        self.sizes["plate.lu_nnz"] += int(lu.L.nnz + lu.U.nnz)

    # -- install / remove ----------------------------------------------

    def install(self):
        refine = "geometry.refine_s"
        self._replace(geometry.MultiPatchDomain, "with_segments",
                      self._timed(refine, geometry.MultiPatchDomain.with_segments))
        self._rebind(stabilize.combined_uncoupled_space,
                     self._timed(refine, stabilize.combined_uncoupled_space))
        self._replace(space.UncoupledSpace, "quad_tables",
                      self._counted("space.quad_tables_calls",
                                    self._timed("space.quad_tables_s", space.UncoupledSpace.quad_tables)))
        self._replace(space.UncoupledSpace, "physical_eval",
                      self._counted("space.physical_eval_calls", space.UncoupledSpace.physical_eval))
        for mod in (space, geometry):
            for attr in ("ders_basis", "nurbs_ders_basis"):
                if attr in vars(mod):
                    self._replace(mod, attr, self._counted("splines.ders_basis_calls", getattr(mod, attr)))
        for func, name, hook in (
            (coupling.build_m0, "coupling.m0_s", None),
            (coupling.assemble_jump_matrix, "coupling.mj_s", None),
            (coupling.nullspace, "coupling.nullspace_s", None),
            (coupling.build_coupled_space, "coupling.build_s", self._on_space),
            (plate.assemble_stiffness, "plate.stiffness_s", self._on_stiffness),
            (plate.assemble_load, "plate.load_s", None),
            (plate.solve, "plate.solve_s", None),
            (plate.error_norms, "plate.errors_s", None),
            (plate.evaluate, "plate.evaluate_s", None),
        ):
            self._rebind(func, self._timed(name, func, hook))
        self._replace(coupling.CoupledSpace, "__init__",
                      self._timed("coupling.basis_product_s", coupling.CoupledSpace.__init__))
        self._replace(spla, "splu", self._timed("plate.factor_s", spla.splu, self._on_lu))

    def remove(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- report --------------------------------------------------------

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        out = {}
        for name in TOP_LEVEL_SPANS + BUILD_SPANS + ("space.quad_tables_s", "plate.factor_s"):
            out[name] = (self.seconds[name], "s")
        for name in COUNT_NAMES:
            out[name] = (self.counts[name], "count")
        for name in SIZE_NAMES:
            out[name] = (self.sizes[name], "count")
        a_nnz, lu_nnz, n6 = self.sizes["plate.a_nnz"], self.sizes["plate.lu_nnz"], self.sizes["coupling.n6"]
        out["plate.a_nnz_per_row"] = (a_nnz / n6 if n6 else 0.0, "nnz/row")
        out["plate.lu_fill"] = (lu_nnz / a_nnz if a_nnz else 0.0, "ratio")
        return out
