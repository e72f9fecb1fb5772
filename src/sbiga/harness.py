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
            "edges": [{"group": "load_edges", "Q": 100.0}]},  # patch | group; Q and/or M
  "exact": {"builtin": "cos2_square"},
  "reference": {"builtin": "point_load_series", "terms": 4001},  # or {"value": v}
  "study": {"segments": [4, 8]},
  "outputs": {"csv": "out.csv", "sample_grid": [9, 9], "eval_point": [0, 0]}
}

geometry.params takes the keyword arguments of the builder other than
degree and bc.  Numbers are JSON numbers, not strings or booleans: counts
and indices are integers, other values finite integers or floats, and the
keys of bcs.per_patch decimal digits.  Counts (segments, quad_order,
fine_segments, terms, sample_grid), tol_null and the material's E, t and D
must be > 0.  Unknown keys, malformed values and an unreadable config file
raise a ConfigError whose message names the key's path (e.g.
``study.segmentz``) or the file.
"""

import ast
import functools
import inspect
import json
import operator
import os
import sys
import time

import numpy as np

from . import models
from .coupling import build_coupled_space, verify_asg1, asg1_coefficients, c1_jump_report, reproduction_vector
from .errors import ConfigError, GeometryError
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


def _section(value, path, allowed, required=False):
    """The object at ``path``, with keys from ``allowed`` (any key when None);
    null or, unless required, absent reads as empty.  A ConfigError names
    the path of a missing or non-object section or of an unknown key."""
    if value is None and not required:
        return {}
    where = path or "config"
    if not isinstance(value, dict):
        raise ConfigError("%s %s" % (where, "is required" if value is None else "must be an object"))
    unknown = sorted(set(value) - allowed) if allowed is not None else []
    if unknown:
        key = "%s.%s" % (path, unknown[0]) if path else unknown[0]
        raise ConfigError("unknown config key %r; %s takes %s" % (key, where, ", ".join(sorted(allowed))))
    return value


def _entries(section, key, path, allowed):
    """The list of objects ``section[key]`` (empty when null or absent),
    each checked by _section."""
    path = "%s.%s" % (path, key)
    val = section.get(key)
    if val is None:
        return []
    if not isinstance(val, list):
        raise ConfigError("%s must be a list of objects" % path)
    return [_section(e, "%s[%d]" % (path, k), allowed, required=True) for k, e in enumerate(val)]


def _number(val, path, kind=int, positive=False):
    """kind(val) for an integer (kind int) or a finite integer or float
    (kind float), never a boolean; else a ConfigError naming ``path``.
    With ``positive`` the value must be > 0."""
    if kind is int:
        ok, what = isinstance(val, int), "an integer"
    else:
        ok, what = isinstance(val, (int, float)) and abs(val) <= sys.float_info.max, "a finite number"
    if isinstance(val, bool) or not ok:
        raise ConfigError("%s must be %s, got %r" % (path, what, val))
    num = kind(val)
    if positive and not num > 0:
        raise ConfigError("%s must be > 0, got %r" % (path, val))
    return num


def _pair(val, path, kind=float, positive=False):
    """[a, b] of _number values, or a ConfigError naming ``path``."""
    if not isinstance(val, (list, tuple)) or len(val) != 2:
        raise ConfigError("%s must be a list of two numbers, got %r" % (path, val))
    return [_number(v, "%s[%d]" % (path, k), kind, positive) for k, v in enumerate(val)]


def segment_list(val, path):
    """Refinement levels, a non-empty list of counts > 0; else a ConfigError naming ``path``."""
    if not isinstance(val, list) or not val:
        raise ConfigError("%s must be a non-empty list" % path)
    return [_number(s, "%s[%d]" % (path, k), positive=True) for k, s in enumerate(val)]


def _choice(val, path, choices):
    """val if it is one of the names ``choices``, else a ConfigError."""
    if isinstance(val, str) and val in choices:
        return val
    raise ConfigError("%s must be one of %s, got %r" % (path, ", ".join(sorted(choices)), val))


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
        raise ConfigError("loads.surface.expr must be a string")
    try:
        tree = ast.parse(text, mode="eval")
    except (SyntaxError, ValueError) as exc:
        raise ConfigError("loads.surface.expr does not parse: %s" % exc)
    g = _expr_node(tree.body, text)
    try:
        g(np.float64(0.5), np.float64(0.5))
    except (OverflowError, ZeroDivisionError) as exc:
        raise ConfigError("loads.surface.expr %r: %s" % (text, exc))
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
        "loads.surface.expr %r: %r is not allowed" % (text, ast.get_source_segment(text, node))
    )


class CaseConfig:
    """Validated case description.  Every config value is read, checked and
    converted here; a malformed one raises a ConfigError naming its path."""

    def __init__(self, doc):
        doc = _section(doc, "", {"description", "geometry", "discretization", "material", "bcs",
                                 "loads", "exact", "reference", "study", "outputs"}, required=True)
        geo = _section(doc.get("geometry"), "geometry", {"builtin", "params"}, required=True)
        self.geometry_name = _choice(geo.get("builtin"), "geometry.builtin", _GEOMETRY_BUILDERS)
        # boundary conditions are set by bcs alone, not by a builder's bc
        # argument; a value is a number or a pair, as the builder's default
        known = {k: v.default for k, v in inspect.signature(_GEOMETRY_BUILDERS[self.geometry_name])
                 .parameters.items() if k not in ("degree", "bc")}
        self.geometry_params = {
            k: (_pair if isinstance(known[k], tuple) else _number)(v, "geometry.params." + k, float)
            for k, v in _section(geo.get("params"), "geometry.params", set(known)).items()}

        dis = _section(doc.get("discretization"), "discretization",
                       {"p", "r", "quad_order", "tol_null", "stabilize"}, required=True)
        self.p = _number(dis.get("p", 3), "discretization.p")
        self.r = _number(dis.get("r", 1), "discretization.r")
        if not 0 <= self.r <= self.p - 1:
            raise ConfigError("discretization.r must satisfy 0 <= r <= p-1")
        quad = dis.get("quad_order")
        self.quad_order = None if quad is None else _number(quad, "discretization.quad_order", positive=True)
        self.tol_null = _number(dis.get("tol_null", 1e-10), "discretization.tol_null", float, positive=True)
        st = _section(dis.get("stabilize"), "discretization.stabilize", {"enabled", "fine_segments"})
        self.stabilize = st.get("enabled", False)
        if not isinstance(self.stabilize, bool):
            raise ConfigError("discretization.stabilize.enabled must be true or false")
        fine = st.get("fine_segments")
        self.stabilize_fine = (None if fine is None else
                               _number(fine, "discretization.stabilize.fine_segments", positive=True))

        mat = _section(doc.get("material"), "material", {"E", "nu", "t", "D"}, required=True)
        if ("t" in mat) == ("D" in mat):
            raise ConfigError("material needs exactly one of t or D")
        num = {k: _number(v, "material." + k, float, positive=k != "nu") for k, v in mat.items()}
        if not 0.0 <= num.get("nu", 0.0) < 0.5:
            raise ConfigError("material.nu must lie in [0, 0.5)")
        self.material = PlateMaterial(num.get("E", 1.0), num.get("nu", 0.0), t=num.get("t"), D=num.get("D"))

        bcs = _section(doc.get("bcs"), "bcs", {"all", "per_patch", "groups"})
        self.bc = {}
        if "all" in bcs:
            self.bc["all"] = _choice(bcs["all"], "bcs.all", ESSENTIAL_LAYERS)
        for k, tag in _section(bcs.get("per_patch"), "bcs.per_patch", None).items():
            path = "bcs.per_patch.%s" % k
            if not (isinstance(k, str) and k.isascii() and k.isdigit()):
                raise ConfigError("%s: a patch index is written in decimal digits, got %r" % (path, k))
            self.bc[int(k)] = _choice(tag, path, ESSENTIAL_LAYERS)
        self.bc_groups = {name: _choice(tag, "bcs.groups.%s" % name, ESSENTIAL_LAYERS)
                          for name, tag in _section(bcs.get("groups"), "bcs.groups", None).items()}

        exact = _section(doc.get("exact"), "exact", {"builtin"}).get("builtin")
        self.exact_name = None if exact is None else _choice(exact, "exact.builtin", _BUILTIN_EXACT)

        loads = _section(doc.get("loads"), "loads", {"surface", "point", "edges"})
        self.point_loads = []
        for k, pl in enumerate(_entries(loads, "point", "loads", {"at", "F"})):
            path = "loads.point[%d]." % k
            self.point_loads.append(
                (_pair(pl.get("at"), path + "at"), _number(pl.get("F", 1.0), path + "F", float)))
        # (patch index or group name, Q or None, M or None)
        self.edge_loads = []
        for k, e in enumerate(_entries(loads, "edges", "loads", {"patch", "group", "Q", "M"})):
            path = "loads.edges[%d]" % k
            if (("patch" in e) == ("group" in e) or not {"Q", "M"} & set(e)
                    or not isinstance(e.get("group", ""), str)):
                raise ConfigError("%s needs a patch index or a group name, and Q or M" % path)
            target = _number(e["patch"], path + ".patch") if "patch" in e else e["group"]
            self.edge_loads.append((target, *(
                _number(e[key], "%s.%s" % (path, key), float) if key in e else None for key in ("Q", "M"))))
        surface = loads.get("surface")
        self.surface = None
        if surface == "from_exact":
            if self.exact_name is None:
                raise ConfigError("loads.surface = from_exact needs exact.builtin")
            self.surface = manufactured_rhs(self.exact_solution(), self.material.D)
        elif surface is not None:
            if not isinstance(surface, dict) or len(surface) != 1:
                raise ConfigError("loads.surface must be from_exact, {const: v} or {expr: text}, got %r"
                                  % (surface,))
            surface = _section(surface, "loads.surface", {"const", "expr"})
            if "expr" in surface:
                self.surface = load_expression(surface["expr"])
            else:
                c = _number(surface["const"], "loads.surface.const", float)
                self.surface = lambda x, y: np.full_like(np.asarray(x, dtype=float), c)

        # None, a float, or the point-load series, which reference_value sums
        ref = doc.get("reference")
        self.reference = None
        if ref is not None:
            ref = _section(ref, "reference", {"value", "builtin", "F", "L", "terms"})
            if "value" in ref:
                if len(ref) > 1:
                    raise ConfigError("reference.value takes no other reference key")
                self.reference = _number(ref["value"], "reference.value", float)
            else:
                _choice(ref.get("builtin"), "reference.builtin", {"point_load_series"})
                self.reference = functools.partial(
                    point_load_reference, D=self.material.D,
                    F=_number(ref.get("F", 1.0), "reference.F", float),
                    L=_number(ref.get("L", 1.0), "reference.L", float),
                    terms=_number(ref.get("terms", 4001), "reference.terms", positive=True))

        self.segments = segment_list(_section(doc.get("study"), "study", {"segments"}).get("segments", [1]),
                                     "study.segments")

        out = _section(doc.get("outputs"), "outputs", {"csv", "sample_grid", "eval_point"})
        csv, grid, ep = out.get("csv"), out.get("sample_grid"), out.get("eval_point")
        if csv is not None and not isinstance(csv, str):
            raise ConfigError("outputs.csv must be a file path, got %r" % (csv,))
        self.outputs = {
            "csv": csv,
            "sample_grid": [9, 9] if grid is None else _pair(grid, "outputs.sample_grid", int, positive=True),
            "eval_point": None if ep is None else _pair(ep, "outputs.eval_point"),
        }

    @classmethod
    def from_file(cls, path):
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError("cannot read config %s: %s" % (path, exc.strerror or exc)) from None
        except json.JSONDecodeError as exc:
            raise ConfigError("config is not valid JSON: %s" % exc)
        return cls(doc)

    # ------------------------------------------------------------------

    def build_base_domain(self):
        """Unrefined domain with BC tags applied; returns (domain, info).

        BC group names and edge-load targets are checked against it, and a
        domain the builder rejects is a config error of geometry.params."""
        try:
            built = _GEOMETRY_BUILDERS[self.geometry_name](degree=self.p, **self.geometry_params)
        except GeometryError as exc:
            raise ConfigError("geometry.params of %s: %s" % (self.geometry_name, exc)) from exc
        domain, info = built if isinstance(built, tuple) else (built, {})
        bc = dict(self.bc)
        for name, tag in self.bc_groups.items():
            bc.update((int(k), tag) for k in self._group(info, name, "bcs.groups"))
        if bc:
            apply_bc_tags(domain, bc)
        npatches = len(domain.patches)
        for k, (target, _, _) in enumerate(self.edge_loads):
            if isinstance(target, str):
                self._group(info, target, "loads.edges[%d].group" % k)
            elif not 0 <= target < npatches:
                raise ConfigError("loads.edges[%d].patch %d is not in 0..%d" % (k, target, npatches - 1))
        return domain, info

    def _group(self, info, name, path):
        if name not in info:
            raise ConfigError("unknown %s name %r; %s defines %s" % (
                path, name, self.geometry_name, ", ".join(map(repr, sorted(info))) or "no groups"))
        return info[name]

    def build_space(self, base_domain, segments):
        if self.stabilize:
            fine = self.stabilize_fine or segments
            return build_combined_space(base_domain, fine, self.r, tol_null=self.tol_null)
        dom = base_domain.with_segments(segments, segments, self.r)
        return build_coupled_space(dom, tol_null=self.tol_null)

    def exact_solution(self):
        return _BUILTIN_EXACT[self.exact_name]() if self.exact_name else None

    def load_spec(self, info):
        """Loads on the domain whose groups are ``info``."""
        edge_loads, edge_moments = [], []
        for target, Q, M in self.edge_loads:
            for t in info[target] if isinstance(target, str) else [target]:
                if Q is not None:
                    edge_loads.append((t, Q))
                if M is not None:
                    edge_moments.append((t, M))
        return LoadSpec(self.surface, edge_loads, edge_moments, self.point_loads)

    def reference_value(self):
        return self.reference() if callable(self.reference) else self.reference


def check_output_dir(path, name):
    """A ConfigError naming ``name`` unless the directory of the output
    ``path`` exists and is writable; checked before the first level is
    solved."""
    folder = os.path.dirname(os.path.abspath(path))
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise ConfigError("%s %s: directory %s does not exist or is not writable" % (name, path, folder))


def run_case(cfg, csv_path=None, progress=None):
    """Execute the study of a config; returns (rows, last solution)."""
    if csv_path is None and cfg.outputs["csv"]:
        check_output_dir(cfg.outputs["csv"], "outputs.csv")
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
        ep = cfg.outputs["eval_point"]
        xy = np.asarray(ep if ep is not None else cs.domain.groups[0].x0)
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
    path = csv_path or cfg.outputs["csv"]
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
            % ", ".join(map(repr, sorted(unknown))),
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
    return export_field(solution, cfg.outputs["sample_grid"], out_path)
