import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import sbiga
from reference_kernels import read_structured_grid
from sbiga.cli import main as cli_main
from sbiga import harness
from sbiga.errors import ConfigError
from sbiga.harness import CSV_COLUMNS, CaseConfig, run_case, verify_case
from sbiga.vtkio import export_field

SMOOTH = {
    "geometry": {"builtin": "square4", "params": {"offset": [-0.15, 0.1]}},
    "discretization": {"p": 3, "r": 1},
    "material": {"E": 1e4, "nu": 0.0, "D": 1.0},
    "bcs": {"all": "clamped"},
    "loads": {"surface": "from_exact"},
    "exact": {"builtin": "cos2_square"},
    "study": {"segments": [2, 4]},
    "outputs": {},
}


def write_cfg(tmp_path, doc, name="case.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestCaseConfig:
    def test_valid_roundtrip(self, tmp_path):
        cfg = CaseConfig.from_file(write_cfg(tmp_path, SMOOTH))
        assert cfg.p == 3 and cfg.segments == [2, 4]

    def test_malformed_bc_tag(self, tmp_path):
        doc = dict(SMOOTH, bcs={"all": "pinned"})
        with pytest.raises(ConfigError):
            CaseConfig.from_file(write_cfg(tmp_path, doc))

    def test_material_needs_one_of_t_d(self, tmp_path):
        doc = dict(SMOOTH, material={"E": 1.0, "nu": 0.0})
        with pytest.raises(ConfigError):
            CaseConfig.from_file(write_cfg(tmp_path, doc))

    def test_unknown_geometry(self, tmp_path):
        doc = dict(SMOOTH, geometry={"builtin": "hexagon"})
        with pytest.raises(ConfigError):
            CaseConfig.from_file(write_cfg(tmp_path, doc))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            CaseConfig.from_file(str(path))

    def test_unknown_key_rejected_with_path(self, tmp_path):
        doc = dict(SMOOTH, study={"segmentz": [4]})
        with pytest.raises(ConfigError, match="study.segmentz"):
            CaseConfig.from_file(write_cfg(tmp_path, doc))

    def test_unknown_key_in_list_entry(self, tmp_path):
        doc = dict(SMOOTH, loads={"point": [{"at": [0, 0], "f": 1.0}]})
        with pytest.raises(ConfigError, match=r"loads.point\[0\].f"):
            CaseConfig.from_file(write_cfg(tmp_path, doc))

    def test_unknown_bc_group_rejected(self, tmp_path):
        root = pathlib.Path(__file__).resolve().parents[1]
        doc = json.loads((root / "configs" / "l_bracket.json").read_text())
        doc["bcs"] = {"groups": {"hole_arcz": "clamped"}}
        cfg = CaseConfig.from_file(write_cfg(tmp_path, doc))
        with pytest.raises(ConfigError, match="'hole_arcz'.*'hole_arcs'") as exc:
            cfg.build_base_domain()
        assert exc.value.tag == "config-error"

    def test_edge_load_patch_range_checked(self, tmp_path):
        doc = dict(SMOOTH, loads={"edges": [{"patch": 7, "Q": 1.0}]})
        cfg = CaseConfig.from_file(write_cfg(tmp_path, doc))
        with pytest.raises(ConfigError, match="patch 7") as exc:
            cfg.build_base_domain()
        assert exc.value.tag == "config-error"
        doc = dict(SMOOTH, loads={"edges": [{"patch": 3, "Q": 1.0}]})
        cfg = CaseConfig.from_file(write_cfg(tmp_path, doc))
        _, info = cfg.build_base_domain()
        assert cfg.load_spec(info).edge_loads == [(3, 1.0)]
        doc = dict(SMOOTH, loads={"edges": [{"group": "load_edges", "M": 1.0}]})
        with pytest.raises(ConfigError, match=r"loads.edges\[0\].group name 'load_edges'.*no groups"):
            CaseConfig(doc).build_base_domain()

    @pytest.mark.parametrize("expr", [
        "().__class__.__mro__",
        "__import__('os')",
        "z * x",
        "np.sin(x)",
        "sin(x, y)",
        "x if y else 1",
        "True * x",
        "x % 2",
        "(",
        "10**10**10 * x",
        "1 / (1 - 1) * x",
    ])
    def test_unsafe_load_expression_rejected(self, tmp_path, expr):
        doc = dict(SMOOTH, loads={"surface": {"expr": expr}})
        with pytest.raises(ConfigError) as exc:
            CaseConfig(doc)
        assert exc.value.tag == "config-error"
        assert cli_main(["run", write_cfg(tmp_path, doc)]) == 2

    def test_load_expression_values_bitwise(self):
        doc = dict(SMOOTH, loads={"surface": {"expr": "sin(pi*x)*cos(2*y) - 3*exp(-x**2)/y + -1.5 + 2**-1"}})
        cfg = CaseConfig(doc)
        g = cfg.load_spec({}).surface
        rng = np.random.default_rng(2)
        x, y = rng.uniform(0.1, 1.0, (2, 7, 5))
        ref = np.sin(np.pi * x) * np.cos(2 * y) - 3 * np.exp(-x**2) / y + -1.5 + 2**-1
        assert np.array_equal(g(x, y), ref)

    def test_bundled_configs_load(self):
        # what each bundled config yields: p, segments, D, nu, the outer-edge
        # patches of each boundary tag, the edge and point loads, the
        # surface load at (0.1, 0.2), the reference value and eval_point
        square = {"clamped": [0, 1, 2, 3]}
        pointload = (3, [4, 6, 8, 10], 1.0, 0.0, {"simply_supported": [0, 1, 2, 3]}, [],
                     [([0.0, 0.0], 1.0)], None, 0.011600839360252647, [0.0, 0.0])
        disk = (3, [2, 3, 4], 7.3260073260073275, 0.3,
                {"free": list(range(0, 64, 4)), "simply_supported": [72, 76, 82, 86, 92, 96, 102, 106]},
                [], [], 1.0, 0.00895, [0.0, 0.0])
        cos2 = 825.2630624929991
        expected = {
            "configs/l_bracket.json": (
                3, [2], 16666.666666666668, 0.0,
                {"clamped": [0, 4, 8, 12, 32, 36, 40, 44],
                 "free": [16, 20, 52, 56, 60, 64, 66, 68, 70, 73, 75, 77, 78, 79]},
                [(78, 100.0)], [], None, None, [3.0, 0.5]),
            "configs/perforated_disk.json": disk,
            "configs/square_pointload.json": pointload,
            "configs/square_smooth.json": (3, [4, 6, 8, 12, 16], 1.0, 0.0, square, [], [], cos2, None, None),
            "perfbench/configs/perforated_disk_s2.json": (3, [2]) + disk[2:8] + (None, [0.0, 0.0]),
            "perfbench/configs/square_pointload_p3.json": (3, [4, 10]) + pointload[2:8] + (None, [0.0, 0.0]),
            "perfbench/configs/square_smooth_p3.json": (3, [4, 6, 8, 12, 16], 1.0, 0.0, square, [], [], cos2, None, None),
            "perfbench/configs/square_smooth_p4.json": (4, [4, 6, 8, 12, 16], 1.0, 0.0, square, [], [], cos2, None, None),
            "perfbench/configs/square_stabilized_p5.json": (5, [8, 16], 1.0, 0.0, square, [], [], cos2, None, None),
        }
        root = pathlib.Path(__file__).resolve().parents[1]
        paths = sorted(root.glob("configs/*.json")) + sorted(root.glob("perfbench/configs/*.json"))
        assert sorted(str(path.relative_to(root)) for path in paths) == sorted(expected)
        for path in paths:
            p, segments, D, nu, tags, edges, points, surface, ref, ep = expected[str(path.relative_to(root))]
            cfg = CaseConfig.from_file(str(path))
            assert (cfg.p, cfg.r, cfg.segments) == (p, 1, segments)
            assert (cfg.material.D, cfg.material.nu) == (D, nu)
            domain, info = cfg.build_base_domain()
            got = {}
            for be in domain.boundary:
                got.setdefault(be.tag, []).append(be.patch)
            assert {tag: sorted(v) for tag, v in got.items()} == tags
            loads = cfg.load_spec(info)
            assert (loads.edge_loads, loads.edge_moments) == (edges, [])
            assert [(x.tolist(), F) for x, F in loads.point_loads] == points
            if surface is None:
                assert loads.surface is None
            else:
                assert float(loads.surface(np.float64(0.1), np.float64(0.2))) == pytest.approx(surface, rel=1e-14)
            assert cfg.reference_value() == (None if ref is None else pytest.approx(ref, rel=1e-14))
            assert cfg.outputs["eval_point"] == ep


class TestRunCase:
    def test_csv_written_and_stable(self, tmp_path):
        cfg = CaseConfig.from_file(write_cfg(tmp_path, SMOOTH))
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        rows1, _ = run_case(cfg, csv_path=str(out1))
        rows2, _ = run_case(cfg, csv_path=str(out2))
        lines1 = out1.read_text().splitlines()
        lines2 = out2.read_text().splitlines()
        assert lines1[0] == ",".join(CSV_COLUMNS)
        assert len(lines1) == 3
        # identical config => bitwise identical CSV apart from wall time
        drop = CSV_COLUMNS.index("wall_time_s")
        for a, b in zip(lines1, lines2):
            assert a.split(",")[:drop] == b.split(",")[:drop]

    def test_errors_decrease(self, tmp_path):
        cfg = CaseConfig.from_file(write_cfg(tmp_path, SMOOTH))
        rows, _ = run_case(cfg)
        assert rows[1].h2_semi < rows[0].h2_semi
        assert rows[1].l2 < rows[0].l2
        assert rows[0].N6 < rows[1].N6

    def test_point_load_reference_column(self, tmp_path):
        doc = {
            "geometry": {"builtin": "square4", "params": {"offset": [0.0, 0.0]}},
            "discretization": {"p": 3, "r": 1},
            "material": {"E": 1e6, "nu": 0.0, "D": 1.0},
            "bcs": {"all": "simply_supported"},
            "loads": {"point": [{"at": [0.0, 0.0], "F": 1.0}]},
            "reference": {"builtin": "point_load_series", "terms": 2001},
            "study": {"segments": [4]},
            "outputs": {"eval_point": [0.0, 0.0]},
        }
        cfg = CaseConfig.from_file(write_cfg(tmp_path, doc))
        rows, _ = run_case(cfg)
        assert abs(1.0 - rows[0].u_over_uref) <= 8e-3


class TestVerifyCase:
    def test_all_checks_pass_on_smooth_square(self, tmp_path):
        cfg = CaseConfig.from_file(write_cfg(tmp_path, SMOOTH))
        ok, lines = verify_case(cfg, ("all",))
        assert ok
        kinds = {k for k, *_ in lines}
        assert kinds == {"asg1", "c1-jump", "reproduction"}


class TestCli:
    def test_run_subcommand(self, tmp_path):
        path = write_cfg(tmp_path, SMOOTH)
        csv = str(tmp_path / "out.csv")
        assert cli_main(["run", path, "--csv", csv]) == 0

    def test_converge_subcommand(self, tmp_path):
        path = write_cfg(tmp_path, SMOOTH)
        csv = tmp_path / "out.csv"
        assert cli_main(["run", path, "--segments", "2", "3", "--csv", str(csv)]) == 0
        assert [line.split(",")[0] for line in csv.read_text().splitlines()[1:]] == [repr(1 / 2), repr(1 / 3)]

    @pytest.mark.parametrize("segments", [["0"], ["2", "-1"]])
    def test_bad_segments_flag_exit_code_2(self, tmp_path, segments, capsys):
        # checked like study.segments, before any level is built
        path = write_cfg(tmp_path, SMOOTH)
        assert cli_main(["run", path, "--segments", *segments]) == 2
        assert "--segments[%d] must be > 0" % (len(segments) - 1) in capsys.readouterr().err

    def test_malformed_bc_exit_code_2(self, tmp_path):
        doc = dict(SMOOTH, bcs={"all": "bolted"})
        path = write_cfg(tmp_path, doc)
        assert cli_main(["run", path]) == 2

    def test_unknown_key_exit_code_2(self, tmp_path):
        doc = dict(SMOOTH, study={"segmentz": [4]})
        assert cli_main(["run", write_cfg(tmp_path, doc)]) == 2

    def test_coupling_config_error_exit_code_2(self, tmp_path):
        # one radial span cannot hold the center functions of a clamped
        # square: build_m0 raises a CouplingError tagged config-error
        doc = dict(SMOOTH, study={"segments": [1]})
        assert cli_main(["run", write_cfg(tmp_path, doc)]) == 2

    def test_bc_on_missing_patch_exit_code_2(self, tmp_path):
        # apply_bc_tags raises a GeometryError tagged config-error
        doc = dict(SMOOTH, bcs={"per_patch": {"7": "clamped"}})
        assert cli_main(["run", write_cfg(tmp_path, doc)]) == 2

    def test_unknown_bc_group_exit_code_2(self, tmp_path):
        root = pathlib.Path(__file__).resolve().parents[1]
        doc = json.loads((root / "configs" / "l_bracket.json").read_text())
        doc["bcs"] = {"groups": {"hole_arcz": "clamped"}}
        assert cli_main(["run", write_cfg(tmp_path, doc)]) == 2

    def test_edge_load_on_missing_patch_exit_code_2(self, tmp_path):
        doc = dict(SMOOTH, loads={"edges": [{"patch": 7, "Q": 1.0}]})
        assert cli_main(["run", write_cfg(tmp_path, doc)]) == 2

    @pytest.mark.parametrize("change,path", [
        ({"study": {"segments": 4}}, "study.segments"),
        ({"study": {"segments": ["a"]}}, r"study.segments\[0\]"),
        ({"discretization": {"p": "x", "r": 1}}, "discretization.p"),
        ({"study": 5}, "study"),
        ({"loads": {"point": [{"F": 1.0}]}}, r"loads.point\[0\].at"),
        ({"material": {"E": 1e4, "nu": 0.7, "D": 1.0}}, "material.nu"),
        ({"geometry": {"builtin": "square4", "params": {"foo": 1}}}, "geometry.params.foo"),
        ({"loads": {"point": [{"at": [0, 0], "F": "x"}]}}, r"loads.point\[0\].F"),
        ({"loads": {"point": [{"at": "x"}]}}, r"loads.point\[0\].at"),
        ({"loads": {"surface": {"const": "x"}}}, "loads.surface.const"),
        ({"loads": {"edges": [{"patch": 0, "Q": "x"}]}}, r"loads.edges\[0\].Q"),
        ({"reference": {"value": "x"}}, "reference.value"),
        ({"reference": {"builtin": "point_load_series", "terms": "x"}}, "reference.terms"),
        ({"outputs": {"eval_point": "x"}}, "outputs.eval_point"),
        ({"outputs": {"csv": 2}}, "outputs.csv"),
        ({"outputs": {"csv": True}}, "outputs.csv"),
        ({"outputs": {"fields": None}}, "outputs.fields"),
        ({"outputs": {"sample_grid": [9]}}, "outputs.sample_grid"),
        ({"outputs": {"sample_grid": "ab"}}, "outputs.sample_grid"),
        ({"geometry": {"builtin": "square4", "params": {"bc": {"all": "clamped"}}}}, "geometry.params.bc"),
        ({"discretization": {"p": 3, "r": 1, "stabilize": {"enabled": True, "fine_segments": 0}}},
         "discretization.stabilize.fine_segments"),
        ({"discretization": {"p": 3, "r": 1, "stabilize": {"enabled": "no"}}}, "discretization.stabilize.enabled"),
        ({"discretization": {"p": 3, "r": 1, "quad_order": 0}}, "discretization.quad_order"),
        ({"discretization": {"p": 3, "r": 1, "tol_null": 0.0}}, "discretization.tol_null"),
        ({"discretization": {"p": 3, "r": 1, "tol_null": -1e-10}}, "discretization.tol_null"),
        ({"discretization": {"p": None, "r": 1}}, "discretization.p"),
        ({"material": {"E": 1e4, "nu": 0.0, "D": None}}, "material.D"),
        ({"material": {"E": 1e4, "nu": 0.0, "D": 0.0}}, "material.D"),
        ({"material": {"E": -1.0, "nu": 0.0, "t": 0.1}}, "material.E"),
        ({"loads": {"edges": [{"patch": 0}]}}, r"loads.edges\[0\]"),
        ({"loads": {"edges": [{"patch": 0, "group": "g", "Q": 1.0}]}}, r"loads.edges\[0\]"),
        ({"loads": {"surface": {"const": 1.0, "expr": "x"}}}, "loads.surface"),
        ({"loads": {"surface": "from_exakt"}}, "loads.surface"),
        ({"reference": {"builtin": "point_load_series", "terms": 0}}, "reference.terms"),
        ({"reference": {"value": 1.0, "terms": 3}}, "reference.value"),
        ({"study": {"segments": []}}, "study.segments"),
        ({"bcs": {"per_patch": ["clamped"]}}, "bcs.per_patch"),
        ({"exact": {"builtin": ["cos2_square"]}}, "exact.builtin"),
        ({"geometry": {"builtin": "square4", "params": {"offset": "x"}}}, "geometry.params.offset"),
        ({"geometry": {"builtin": "l_bracket", "params": {"hole_r": "a"}}}, "geometry.params.hole_r"),
        # numbers are JSON numbers: no booleans, strings or truncated floats
        ({"discretization": {"p": True, "r": 1}}, "discretization.p"),
        ({"discretization": {"p": "3", "r": 1}}, "discretization.p"),
        ({"discretization": {"p": 3.7, "r": 1}}, "discretization.p"),
        ({"study": {"segments": ["4"]}}, r"study.segments\[0\]"),
        ({"geometry": {"builtin": "square4", "params": {"offset": ["-0.15", 0.1]}}},
         r"geometry.params.offset\[0\]"),
        ({"material": {"E": 1e4, "nu": 0.0, "D": "1"}}, "material.D"),
        ({"outputs": {"sample_grid": [9.5, 9]}}, r"outputs.sample_grid\[0\]"),
        ({"bcs": {"per_patch": {" 0": "clamped"}}}, "bcs.per_patch. 0"),
        ({"material": {"E": 10**400, "nu": 0.0, "D": 1.0}}, "material.E"),
        ({"material": {"E": 1e4, "nu": 0.0, "D": float("inf")}}, "material.D"),
        ({"loads": {"point": [{"at": [0, 0], "F": float("nan")}]}}, r"loads.point\[0\].F"),
    ])
    def test_malformed_value_exit_code_2(self, tmp_path, change, path):
        doc = dict(SMOOTH, **change)
        with pytest.raises(ConfigError, match=path) as exc:
            CaseConfig(doc)
        assert exc.value.tag == "config-error"
        assert cli_main(["run", write_cfg(tmp_path, doc)]) == 2

    @pytest.mark.parametrize("geometry,tag", [
        ({"builtin": "square_with_hole", "params": {"half_diagonal": 0.49}}, "not-star-shaped"),
        ({"builtin": "square4", "params": {"offset": [0.9, 0]}}, "topology-error"),
    ])
    def test_invalid_geometry_exit_code_2(self, tmp_path, geometry, tag):
        doc = dict(SMOOTH, geometry=geometry)
        with pytest.raises(ConfigError, match=r"geometry.params .*\[%s\]" % tag) as exc:
            CaseConfig(doc).build_base_domain()
        assert exc.value.tag == "config-error"
        assert cli_main(["run", write_cfg(tmp_path, doc)]) == 2

    @pytest.mark.parametrize("checks", ["asg2", "", "asg1,c1jump"])
    def test_unknown_verify_check_exit_code_2(self, tmp_path, checks, capsys):
        path = write_cfg(tmp_path, SMOOTH)
        assert cli_main(["verify", path, "--checks", checks]) == 2
        assert "unknown checks" in capsys.readouterr().err

    def test_cli_process_entry(self, tmp_path):
        doc = dict(SMOOTH, study={"segments": [2]})
        path = write_cfg(tmp_path, doc)
        # the child imports the same package as this process, also when
        # pytest put src/ on sys.path only through its pythonpath setting
        src = str(pathlib.Path(sbiga.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "sbiga", "verify", path, "--checks", "asg1"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "asg1" in proc.stdout
        bad = write_cfg(tmp_path, dict(SMOOTH, outputs={"csv": 2}), "bad.json")
        proc = subprocess.run(
            [sys.executable, "-m", "sbiga", "run", bad], capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 2
        assert "outputs.csv" in proc.stderr

    def test_unreadable_config_exit_code_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nonexistent.json")
        assert cli_main(["run", missing]) == 2
        assert "cannot read config %s" % missing in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag", [
        (["run", "--csv", "{dir}/x.csv"], "--csv"),
        (["export", "--out", "{dir}/field"], "--out"),
        (["run"], "outputs.csv"),
        (["export", "--out", "{tmp}/field"], "outputs.csv"),
    ])
    def test_missing_output_dir_exit_code_2(self, tmp_path, monkeypatch, capsys, command, flag):
        # the output directory is checked before the first level is solved
        missing = str(tmp_path / "nonexistent")
        doc = dict(SMOOTH, outputs={"csv": missing + "/x.csv"} if flag == "outputs.csv" else {})
        path = write_cfg(tmp_path, doc)
        monkeypatch.setattr(harness, "solve_plate", lambda *a, **k: pytest.fail("a level was solved"))
        argv = [command[0], path] + [a.format(dir=missing, tmp=tmp_path) for a in command[1:]]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert flag in err and missing in err

    def test_export_subcommand(self, tmp_path):
        doc = dict(SMOOTH, study={"segments": [2]})
        path = write_cfg(tmp_path, doc)
        out = str(tmp_path / "field")
        assert cli_main(["export", path, "--out", out]) == 0
        files = sorted(tmp_path.glob("field_p*.vtk"))
        assert len(files) == 4


@pytest.fixture(scope="module")
def vtk_solution():
    from sbiga.coupling import build_coupled_space
    from sbiga.models import square4
    from sbiga.plate import LoadSpec, PlateMaterial, cos2_square, manufactured_rhs, solve_plate

    dom = square4(degree=3, bc={"all": "clamped"}).with_segments(2, 2, 1)
    cs = build_coupled_space(dom)
    exact = cos2_square()
    mat = PlateMaterial(E=1e4, nu=0.0, D=1.0)
    return solve_plate(cs, mat, LoadSpec(surface=manufactured_rhs(exact, mat.D)))


class TestVtkExport:
    def test_round_trip(self, vtk_solution, tmp_path):
        paths = export_field(vtk_solution, (5, 4), str(tmp_path / "f"))
        assert len(paths) == 4
        data = read_structured_grid(paths[0])
        assert data["dimensions"] == (5, 4, 1)
        from sbiga.plate import bending_moments, evaluate

        zs = np.linspace(0, 1, 5)
        xs = np.linspace(0, 1, 5)[1:]
        pts = [(0, z, x) for x in xs for z in zs]
        u = evaluate(vtk_solution, pts, nders=0)
        assert np.array_equal(data["point_data"]["u"], u)
        m11, _, _ = bending_moments(vtk_solution, pts)
        assert np.array_equal(data["point_data"]["m11"], m11)

    def test_zero_solution_zero_fields(self, vtk_solution, tmp_path):
        from sbiga.plate import LoadSpec, Solution

        zero = Solution(vtk_solution.space, np.zeros(vtk_solution.space.N6),
                        vtk_solution.material, LoadSpec(), 0.0, 1.0)
        paths = export_field(zero, (4, 3), str(tmp_path / "z"))
        data = read_structured_grid(paths[2])
        for vals in data["point_data"].values():
            assert np.all(vals == 0.0)

    def test_field_max_consistent_with_evaluate(self, vtk_solution, tmp_path):
        paths = export_field(vtk_solution, (9, 9), str(tmp_path / "g"))
        best = (None, -np.inf)
        for k, p in enumerate(paths):
            data = read_structured_grid(p)
            u = data["point_data"]["u"]
            if u.max() > best[1]:
                best = (k, u.max())
        # deflection peaks near the plate center for the clamped smooth case
        from sbiga.plate import evaluate
        from sbiga.geometry import locate_point

        m, z, x = locate_point(vtk_solution.space.domain, (0.0, 0.0))
        u_center = float(evaluate(vtk_solution, [(m, z, x)], nders=0)[0])
        assert best[1] <= u_center * 1.05


class TestStabilizedConfig:
    def test_stabilize_flag_builds_combined_space(self, tmp_path):
        doc = dict(
            SMOOTH,
            discretization={"p": 3, "r": 1, "stabilize": {"enabled": True}},
            study={"segments": [3]},
        )
        cfg = CaseConfig.from_file(write_cfg(tmp_path, doc))
        base, _ = cfg.build_base_domain()
        cs = cfg.build_space(base, 3)
        # coarse + fine block per patch
        assert all(len(per) == 2 for per in cs.uspace.blocks)

    def test_fine_segments_override(self, tmp_path):
        doc = dict(
            SMOOTH,
            discretization={"p": 3, "r": 1,
                            "stabilize": {"enabled": True, "fine_segments": 4}},
            study={"segments": [2]},
        )
        cfg = CaseConfig.from_file(write_cfg(tmp_path, doc))
        base, _ = cfg.build_base_domain()
        cs = cfg.build_space(base, 2)
        from sbiga.stabilize import build_combined_space

        ref_base, _ = cfg.build_base_domain()
        ref = build_combined_space(ref_base, 4, 1)
        assert (cs.N, cs.N4, cs.N6) == (ref.N, ref.N4, ref.N6)


class TestLBracketSolve:
    """configs/l_bracket.json at its level s = 2: a clamped, loaded space
    whose stiffness is positive definite and whose solve and C1 coupling
    hold."""

    @pytest.fixture(scope="class")
    def case(self):
        from sbiga.plate import assemble_load, assemble_stiffness

        root = pathlib.Path(__file__).resolve().parents[1]
        cfg = CaseConfig.from_file(str(root / "configs" / "l_bracket.json"))
        base, info = cfg.build_base_domain()
        cs = cfg.build_space(base, 2)
        A = assemble_stiffness(cs, cfg.material)
        f = assemble_load(cs, cfg.load_spec(info))
        return cs, A, f

    def test_stiffness_positive_definite(self, case):
        cs, A, _ = case
        assert cs.N6 == A.shape[0] == 848
        np.linalg.cholesky(A.toarray())  # raises unless positive definite

    @pytest.mark.xfail(strict=True, reason=(
        "|A - A^T| / |A| is 2.0e-12: Atilde is symmetric to 1.7e-16, but the "
        "congruence through M0 sums large center-row entries that cancel "
        "(5.2e-13 after M0, 2.0e-12 after M1)"))
    def test_stiffness_symmetric(self, case):
        _, A, _ = case
        assert abs(A - A.T).max() <= 1e-13 * abs(A).max()

    def test_solve_backward_stable(self, case):
        # cond(A) is 6.8e7, so ||f - A x|| / ||f|| is about 2e-11 for any
        # backward-stable solve (dense LAPACK gives 3.9e-11); the normwise
        # backward error is the measure that does not scale with it
        from sbiga.plate import solve

        _, A, f = case
        x, res, _ = solve(A, f)
        scale = abs(A).sum(axis=0).max() * np.abs(x).sum() + np.abs(f).sum()
        assert np.linalg.norm(f) > 0.0
        assert res <= 1e-15 * scale

    def test_c1_jumps(self, case):
        from sbiga.coupling import c1_jump_report

        cs, _, _ = case
        assert max(rel for _, rel in c1_jump_report(cs, nsamples=50)) <= 1e-8
