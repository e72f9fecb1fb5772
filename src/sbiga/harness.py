"""Configuration-driven case execution: build, solve, postprocess, report.

A case config is a single JSON document:

{
  "geometry": {"builtin": "square4", "params": {"offset": [-0.15, 0.1]}},
  "discretization": {"p": 3, "r": 1, "quad_order": null, "tol_null": 1e-10,
                     "stabilize": {"enabled": false, "fine_segments": null}},
  "material": {"E": 1e4, "nu": 0.0, "D": 1.0},          # exactly one of t | D
  "bcs": {"all": "clamped"},                            # or per_patch / groups
  "loads": {"surface": "from_exact",                    # | {"const": v} | {"expr": "..."}
            "point": [{"at": [0, 0], "F": 1.0}],
            "edges": [{"group": "load_edges", "Q": 100.0}]},
  "exact": {"builtin": "cos2_square"},
  "reference": {"builtin": "point_load_series", "terms": 4001},  # or {"value": v}
  "study": {"segments": [4, 8]},
  "outputs": {"csv": "out.csv", "fields": null, "sample_grid": [9, 9],
              "eval_point": [0, 0]}
}

Sections with a fixed key set reject unknown keys, and malformed values
raise a ConfigError, with a message that names the key's path (e.g.
``study.segmentz``).
"""

import ast
import functools
import inspect
import json
import operator
import time

import numpy as np

from . import models
from .coupling import build_coupled_space, verify_asg1, asg1_coefficients, c1_jump_report, reproduction_vector
from .errors import ConfigError
from .geometry import ESSENTIAL_LAYERS, apply_bc_tags, locate_point
from .trim import assemble_trimmed_domain
from .plate import (
    LoadSpec,
    PlateMaterial,
    cos2_square,
    error_norms,
    evaluate,
    manufactured_rhs,
    point_load_reference,
    solve_plate,
)
from .stabilize import build_combined_space

__all__ = ["CaseConfig", "ResultRow", "run_case", "verify_case", "export_case", "write_csv"]

CSV_COLUMNS = [
    "h", "p", "r", "N", "N4", "N6", "h2_semi", "l2",
    "center_deflection", "u_over_uref", "cond_estimate", "wall_time_s",
]

_BUILTIN_EXACT = {"cos2_square": cos2_square}


def _trimmed(builder):
    """Builder of the trimmed domain of a (square, TrimSpec) model, with the
    model's signature."""
    return functools.wraps(builder)(lambda **params: assemble_trimmed_domain(*builder(**params)))


_GEOMETRY_BUILDERS = {
    "square4": models.square4,
    "disk4": models.disk4,
    "fan2": models.fan2,
    "two_blocks_square": models.two_blocks_square,
    "perforated_disk": models.perforated_disk,
    "l_bracket": models.l_bracket,
    "chamfered_square": _trimmed(models.chamfered_square),
    "square_with_hole": _trimmed(models.square_with_hole),
}


class ResultRow:
    def __init__(self, **kw):
        for c in CSV_COLUMNS:
            setattr(self, c, kw.get(c))

    def as_list(self):
        return [getattr(self, c) for c in CSV_COLUMNS]


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def write_csv(rows, path):
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row.as_list()) + "\n")


# Allowed keys of every section with a fixed key set; maps keyed by user
# names (bcs.groups, bcs.per_patch) are not checked here, and the keys of
# geometry.params are checked against the builder's signature.
_SECTION_KEYS = {
    "": {"description", "geometry", "discretization", "material", "bcs", "loads",
         "exact", "reference", "study", "outputs"},
    "geometry": {"builtin", "params"},
    "discretization": {"p", "r", "quad_order", "tol_null", "stabilize"},
    "discretization.stabilize": {"enabled", "fine_segments"},
    "material": {"E", "nu", "t", "D"},
    "bcs": {"all", "per_patch", "groups"},
    "loads": {"surface", "point", "edges"},
    "loads.point": {"at", "F"},
    "loads.edges": {"patch", "group", "Q", "M"},
    "exact": {"builtin"},
    "reference": {"value", "builtin", "F", "L", "terms"},
    "study": {"segments"},
    "outputs": {"csv", "fields", "sample_grid", "eval_point"},
}


_LIST_SECTIONS = {"loads.point", "loads.edges"}


def _check_keys(sec, name="", path=""):
    """Raise ConfigError naming the path of the first unknown key or of a
    section that is not an object (a list of objects in _LIST_SECTIONS);
    a null section counts as empty."""
    for key in sorted(sec):
        if key not in _SECTION_KEYS[name]:
            raise ConfigError("unknown config key %r" % (path + key), tag="config-error")
        child, val = (name + "." + key).lstrip("."), sec[key]
        if child not in _SECTION_KEYS or val is None:
            continue
        if child in _LIST_SECTIONS:
            if not (isinstance(val, list) and all(isinstance(e, dict) for e in val)):
                raise ConfigError("%s must be a list of objects" % (path + key), tag="config-error")
            for k, entry in enumerate(val):
                _check_keys(entry, child, "%s%s[%d]." % (path, key, k))
        elif not isinstance(val, dict):
            raise ConfigError("%s must be an object" % (path + key), tag="config-error")
        else:
            _check_keys(val, child, path + key + ".")


def _number(val, path, kind=int):
    """kind(val), or a ConfigError naming ``path``."""
    try:
        return kind(val)
    except (TypeError, ValueError):
        raise ConfigError("%s must be a number, got %r" % (path, val), tag="config-error") from None


def _point(val, path):
    """[x, y] as floats, or a ConfigError naming ``path``."""
    if not isinstance(val, (list, tuple)) or len(val) != 2:
        raise ConfigError("%s must be a list [x, y], got %r" % (path, val), tag="config-error")
    return [_number(v, "%s[%d]" % (path, k), float) for k, v in enumerate(val)]


_EXPR_NAMES = {"x": lambda x, y: x, "y": lambda x, y: y, "pi": lambda x, y: np.pi}
_EXPR_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}


def _expr_pow(a, b):
    # int ** int is exact and unbounded in size: 10**10**10 would not return
    if isinstance(a, int) and isinstance(b, int):
        return float(a) ** b
    return a ** b


_EXPR_BINOPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.Pow: _expr_pow,
}


def load_expression(text):
    """Surface load g(x, y) from an expression string.

    Allowed: the names x, y and pi, calls of sin, cos and exp with one
    argument, int and float literals, + - * / ** and unary minus.  Anything
    else raises ConfigError, as does a constant part that overflows or
    divides by zero.  The expression is never handed to eval: it becomes a
    tree of closures that apply the same NumPy operations in the same order
    as Python would; only a power of two integers is taken in floating
    point.
    """
    if not isinstance(text, str):
        raise ConfigError("loads.surface.expr must be a string", tag="config-error")
    try:
        tree = ast.parse(text, mode="eval")
    except (SyntaxError, ValueError) as exc:
        raise ConfigError("loads.surface.expr does not parse: %s" % exc, tag="config-error")
    g = _expr_node(tree.body, text)
    try:
        g(np.float64(0.5), np.float64(0.5))
    except (OverflowError, ZeroDivisionError) as exc:
        raise ConfigError("loads.surface.expr %r: %s" % (text, exc), tag="config-error")
    return g


def _expr_node(node, text):
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        v = node.value
        return lambda x, y: v
    if isinstance(node, ast.Name) and node.id in _EXPR_NAMES:
        return _EXPR_NAMES[node.id]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        f = _expr_node(node.operand, text)
        return lambda x, y: -f(x, y)
    if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_BINOPS:
        op = _EXPR_BINOPS[type(node.op)]
        a, b = _expr_node(node.left, text), _expr_node(node.right, text)
        return lambda x, y: op(a(x, y), b(x, y))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _EXPR_FUNCS and len(node.args) == 1 and not node.keywords):
        fn, a = _EXPR_FUNCS[node.func.id], _expr_node(node.args[0], text)
        return lambda x, y: fn(a(x, y))
    raise ConfigError(
        "loads.surface.expr %r: %r is not allowed" % (text, ast.get_source_segment(text, node)),
        tag="config-error",
    )


class CaseConfig:
    """Validated case description; raises ConfigError with a path hint."""

    def __init__(self, doc):
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object", tag="config-error")
        _check_keys(doc)
        self.doc = doc
        geo = self._get("geometry", dict)
        if "builtin" not in geo:
            raise ConfigError("geometry.builtin is required", tag="config-error")
        if geo["builtin"] not in _GEOMETRY_BUILDERS:
            raise ConfigError("unknown geometry %r" % geo["builtin"], tag="config-error")
        self.geometry_params = geo.get("params") or {}
        if not isinstance(self.geometry_params, dict):
            raise ConfigError("geometry.params must be an object", tag="config-error")
        known = set(inspect.signature(_GEOMETRY_BUILDERS[geo["builtin"]]).parameters) - {"degree"}
        unknown = sorted(set(self.geometry_params) - known)
        if unknown:
            raise ConfigError(
                "unknown config key 'geometry.params.%s'; %s takes %s"
                % (unknown[0], geo["builtin"], ", ".join(sorted(known))), tag="config-error",
            )
        dis = self._get("discretization", dict)
        self.p = _number(dis.get("p", 3), "discretization.p")
        self.r = _number(dis.get("r", 1), "discretization.r")
        if not 0 <= self.r <= self.p - 1:
            raise ConfigError("discretization.r must satisfy 0 <= r <= p-1", tag="config-error")
        self.quad_order = dis.get("quad_order")
        if self.quad_order is not None:
            self.quad_order = _number(self.quad_order, "discretization.quad_order")
        self.tol_null = _number(dis.get("tol_null", 1e-10), "discretization.tol_null", float)
        st = dis.get("stabilize", {}) or {}
        self.stabilize = bool(st.get("enabled", False))
        self.stabilize_fine = st.get("fine_segments")
        if self.stabilize_fine is not None:
            self.stabilize_fine = _number(self.stabilize_fine, "discretization.stabilize.fine_segments")
        mat = self._get("material", dict)
        if ("t" in mat) == ("D" in mat):
            raise ConfigError("material needs exactly one of t or D", tag="config-error")
        num = {k: _number(v, "material." + k, float) for k, v in mat.items()}
        if not 0.0 <= num.get("nu", 0.0) < 0.5:
            raise ConfigError("material.nu must lie in [0, 0.5)", tag="config-error")
        self.material = PlateMaterial(
            num.get("E", 1.0), num.get("nu", 0.0), t=num.get("t"), D=num.get("D")
        )
        self.bcs = doc.get("bcs", {}) or {}
        for tag in self._bc_tags(self.bcs):
            if tag not in ESSENTIAL_LAYERS:
                raise ConfigError("unknown bc tag %r" % tag, tag="config-error")
        self.loads = doc.get("loads", {}) or {}
        self.point_loads = []
        for k, pl in enumerate(self.loads.get("point") or []):
            if "at" not in pl:
                raise ConfigError("loads.point[%d].at is required" % k, tag="config-error")
            path = "loads.point[%d]." % k
            self.point_loads.append(
                (_point(pl["at"], path + "at"), _number(pl.get("F", 1.0), path + "F", float))
            )
        for k, e in enumerate(self.loads.get("edges") or []):
            for key in ("Q", "M"):
                if key in e:
                    _number(e[key], "loads.edges[%d].%s" % (k, key), float)
        surface = self.loads.get("surface")
        self.surface_expr = None
        if isinstance(surface, dict) and "expr" in surface:
            self.surface_expr = load_expression(surface["expr"])
        if isinstance(surface, dict) and "const" in surface:
            _number(surface["const"], "loads.surface.const", float)
        self.exact_name = (doc.get("exact") or {}).get("builtin")
        if self.exact_name is not None and self.exact_name not in _BUILTIN_EXACT:
            raise ConfigError("unknown exact solution %r" % self.exact_name, tag="config-error")
        self.reference = doc.get("reference")
        for key, kind in (("value", float), ("F", float), ("L", float), ("terms", int)):
            if key in (self.reference or {}):
                _number(self.reference[key], "reference." + key, kind)
        study = doc.get("study", {}) or {}
        segments = study.get("segments", [1])
        if not isinstance(segments, list):
            raise ConfigError("study.segments must be a list", tag="config-error")
        self.segments = [_number(s, "study.segments[%d]" % k) for k, s in enumerate(segments)]
        if any(s < 1 for s in self.segments):
            raise ConfigError("study.segments must be >= 1", tag="config-error")
        self.outputs = doc.get("outputs", {}) or {}
        ep = self.outputs.get("eval_point")
        self.eval_point = None if ep is None else _point(ep, "outputs.eval_point")

    @staticmethod
    def _bc_tags(bcs):
        for key, val in bcs.items():
            if key in ("groups", "per_patch"):
                yield from val.values()
            else:
                yield val

    def _get(self, key, typ):
        if key not in self.doc or not isinstance(self.doc[key], typ):
            raise ConfigError("missing or invalid %r section" % key, tag="config-error")
        return self.doc[key]

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError("config is not valid JSON: %s" % exc, tag="config-error")
        return cls(doc)

    # ------------------------------------------------------------------

    def build_base_domain(self):
        """Unrefined domain with BC tags applied; returns (domain, info).

        BC group names and edge-load patch indices are checked against it."""
        geo = self.doc["geometry"]
        name = geo["builtin"]
        built = _GEOMETRY_BUILDERS[name](degree=self.p, **self.geometry_params)
        domain, info = built if isinstance(built, tuple) else (built, {})
        bc = {}
        if "all" in self.bcs:
            bc["all"] = self.bcs["all"]
        for k, v in (self.bcs.get("per_patch") or {}).items():
            bc[_number(k, "bcs.per_patch")] = v
        for gname, tag in (self.bcs.get("groups") or {}).items():
            if gname not in info:
                raise ConfigError(
                    "unknown bcs.groups name %r; %s defines %s"
                    % (gname, name, ", ".join(map(repr, sorted(info))) or "no groups"),
                    tag="config-error",
                )
            for k in info[gname]:
                bc[int(k)] = tag
        if bc:
            apply_bc_tags(domain, bc)
        npatches = len(domain.patches)
        for k, e in enumerate(self.loads.get("edges") or []):
            if "patch" in e and not 0 <= _number(e["patch"], "loads.edges[%d].patch" % k) < npatches:
                raise ConfigError(
                    "loads.edges patch %d is not in 0..%d" % (int(e["patch"]), npatches - 1),
                    tag="config-error",
                )
        return domain, info

    def build_space(self, base_domain, segments):
        if self.stabilize:
            fine = self.stabilize_fine or segments
            return build_combined_space(base_domain, fine, self.r, tol_null=self.tol_null)
        dom = base_domain.with_segments(segments, segments, self.r)
        return build_coupled_space(dom, tol_null=self.tol_null)

    def exact_solution(self):
        return _BUILTIN_EXACT[self.exact_name]() if self.exact_name else None

    def load_spec(self, info):
        surface = None
        src = self.loads.get("surface")
        if src == "from_exact":
            exact = self.exact_solution()
            if exact is None:
                raise ConfigError("loads.surface = from_exact needs exact", tag="config-error")
            surface = manufactured_rhs(exact, self.material.D)
        elif isinstance(src, dict) and "const" in src:
            c = float(src["const"])
            surface = lambda x, y: np.full_like(np.asarray(x, dtype=float), c)
        elif self.surface_expr is not None:
            surface = self.surface_expr
        elif src is not None:
            raise ConfigError("unrecognized loads.surface", tag="config-error")
        edge_loads, edge_moments = [], []
        for e in self.loads.get("edges", []):
            targets = [int(e["patch"])] if "patch" in e else list(info.get(e.get("group"), []))
            if not targets:
                raise ConfigError("edge load names no patch", tag="config-error")
            for t in targets:
                if "Q" in e:
                    edge_loads.append((t, float(e["Q"])))
                if "M" in e:
                    edge_moments.append((t, float(e["M"])))
        return LoadSpec(surface, edge_loads, edge_moments, self.point_loads)

    def reference_value(self):
        ref = self.reference
        if ref is None:
            return None
        if "value" in ref:
            return float(ref["value"])
        if ref.get("builtin") == "point_load_series":
            return point_load_reference(
                F=ref.get("F", 1.0),
                L=ref.get("L", 1.0),
                D=self.material.D,
                terms=int(ref.get("terms", 4001)),
            )
        raise ConfigError("unrecognized reference", tag="config-error")


def run_case(cfg, csv_path=None, progress=None):
    """Execute the study of a config; returns (rows, last solution)."""
    base, info = cfg.build_base_domain()
    exact = cfg.exact_solution()
    loads = cfg.load_spec(info)
    uref = cfg.reference_value()
    quad = cfg.quad_order
    rows = []
    solution = None
    for s in cfg.segments:
        t0 = time.perf_counter()
        cs = cfg.build_space(base, s)
        solution = solve_plate(cs, cfg.material, loads, quad=quad)
        h2 = l2 = None
        if exact is not None:
            rep = error_norms(solution, exact, quad=quad)
            h2, l2 = rep.h2_semi, rep.l2
        xy = np.asarray(cfg.eval_point if cfg.eval_point is not None else cs.domain.groups[0].x0)
        m, z, x = locate_point(cs.domain, xy)
        center = float(evaluate(solution, [(m, z, x)], nders=0)[0])
        row = ResultRow(
            h=1.0 / s, p=cfg.p, r=cfg.r, N=cs.N, N4=cs.N4, N6=cs.N6,
            h2_semi=h2, l2=l2, center_deflection=center,
            u_over_uref=(center / uref if uref else None),
            cond_estimate=solution.cond_estimate,
            wall_time_s=time.perf_counter() - t0,
        )
        rows.append(row)
        if progress:
            progress(row)
    path = csv_path or cfg.outputs.get("csv")
    if path:
        write_csv(rows, path)
    return rows, solution


def convergence_table(rows):
    """Per-refinement observed orders (log ratios of consecutive rows)."""
    table = []
    for prev, cur in zip([None] + rows[:-1], rows):
        entry = {"h": cur.h, "h2_semi": cur.h2_semi, "l2": cur.l2}
        for key in ("h2_semi", "l2"):
            order = None
            if prev is not None and cur.h != prev.h:
                a, b = getattr(prev, key), getattr(cur, key)
                if a and b and a > 0 and b > 0:
                    order = float(np.log(a / b) / np.log(prev.h / cur.h))
            entry[key + "_order"] = order
        table.append(entry)
    return table


def verify_case(cfg, checks=("all",)):
    """Geometry/space verification; returns (ok, report lines)."""
    checks = set(checks)
    unknown = checks - {"asg1", "c1-jump", "reproduction", "all"}
    if unknown:
        raise ConfigError(
            "unknown checks %s; choose from asg1, c1-jump, reproduction, all"
            % ", ".join(map(repr, sorted(unknown))), tag="config-error",
        )
    if "all" in checks:
        checks = {"asg1", "c1-jump", "reproduction"}
    base, info = cfg.build_base_domain()
    lines = []
    ok = True
    if "asg1" in checks:
        for itf in base.interfaces:
            res = verify_asg1(base, itf, asg1_coefficients(base, itf), samples=50)
            good = res <= 1e-12
            ok &= good
            lines.append(("asg1", repr(itf), res, 1e-12, good))
    if checks & {"c1-jump", "reproduction"}:
        s = cfg.segments[0]
        cs = cfg.build_space(base, s)
        if "c1-jump" in checks:
            for itf, rel in c1_jump_report(cs, nsamples=50):
                good = rel <= 1e-8
                ok &= good
                lines.append(("c1-jump", repr(itf), rel, 1e-8, good))
        if "reproduction" in checks:
            free, _ = cfg.build_base_domain()
            for be in free.boundary:
                be.tag = "free"
            csf = cfg.build_space(free, s)
            for which in ("1", "x", "y"):
                err = _reproduction_error(csf, which)
                good = err <= 1e-10
                ok &= good
                lines.append(("reproduction", which, err, 1e-10, good))
    return ok, lines


def _reproduction_error(cspace, which, nsamples=40, rng=None):
    rng = rng or np.random.default_rng(5)
    z = reproduction_vector(cspace, which)
    ctil = cspace.expand(z)
    npatch = len(cspace.domain.patches)
    draws = [(rng.integers(0, npatch), *rng.uniform(0.01, 0.99, 2)) for _ in range(nsamples)]
    ms, zs, xs = (np.array(a) for a in zip(*draws))
    worst = 0.0
    for m in np.unique(ms):
        sel = ms == m
        idx, V = cspace.uspace.parametric_eval(m, zs[sel], xs[sel], nders=0)[:2]
        xy = cspace.domain.patches[m].map(zs[sel], xs[sel])
        target = {"1": np.ones(len(idx)), "x": xy[:, 0], "y": xy[:, 1]}[which]
        worst = max(worst, np.max(np.abs(np.einsum("nk,nk->n", ctil[idx], V) - target)))
    return worst


def export_case(cfg, out_path):
    from .vtkio import export_field

    rows, solution = run_case(cfg)
    grid = cfg.outputs.get("sample_grid", [9, 9])
    return export_field(solution, grid, out_path)
