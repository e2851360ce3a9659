"""Command-line interface: exit codes, formats, determinism, error paths."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import darboux
from conftest import fresh_interpreter
from darboux.cli import main

DOCS = os.path.join(os.path.dirname(__file__), "..", "docs")


def run(argv, capsys=None):
    code = main(argv)
    if capsys is not None:
        return code, capsys.readouterr()
    return code


class TestTrace:
    def test_sphere_latitude_csv(self, tmp_path):
        out = tmp_path / "circle.csv"
        code = run(["trace", "--surface", "builtin:sphere?r=1",
                    "--axis", "0,0,1", "--angle", "45",
                    "--seed", "0,0.785398", "--length", "4.45",
                    "--step", "0.001", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("s,x,y,z,u,v,tx,")
        assert 4400 <= len(lines) - 1 <= 4500
        first = np.array([float(x) for x in lines[1].split(",")[1:4]])
        last = np.array([float(x) for x in lines[-1].split(",")[1:4]])
        assert np.linalg.norm(first - last) <= 1e-5

    def test_deterministic_bytes(self, tmp_path):
        args = ["trace", "--surface", "builtin:sphere?r=1", "--axis", "0,0,1",
                "--angle", "60", "--seed", "0,1.0", "--length", "1.0",
                "--step", "0.001"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_plane_domain_error_exit_2(self, capsys):
        code, captured = run(["trace", "--surface", "builtin:plane",
                              "--axis", "0,0,1", "--angle", "30",
                              "--seed", "0,0"], capsys)
        assert code == 2
        assert "no isophote at this level near guess" in captured.err
        assert "Traceback" not in captured.err

    def test_cylinder_singular_exit_2(self, capsys):
        code, captured = run(["trace", "--surface", "builtin:cylinder?r=1",
                              "--axis", "0,0,1", "--angle", "90",
                              "--seed", "0,0"], capsys)
        assert code == 2
        assert "singular" in captured.err

    def test_obj_output_closed_polyline(self, tmp_path):
        out = tmp_path / "circle.obj"
        code = run(["trace", "--surface", "builtin:sphere?r=1",
                    "--axis", "0,0,1", "--angle", "45",
                    "--seed", "0,0.785398", "--length", "4.45",
                    "--step", "0.01", "--format", "obj", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        vertices = [l for l in lines if l.startswith("v ")]
        polylines = [l for l in lines if l.startswith("l ")]
        assert len(polylines) == 1
        indices = polylines[0].split()[1:]
        assert indices[0] == "1" and indices[-1] == "1"  # closed
        assert len(indices) == len(vertices) + 1

    def test_json_output(self, tmp_path):
        out = tmp_path / "t.json"
        code = run(["trace", "--surface", "builtin:sphere?r=1",
                    "--axis", "0,0,1", "--angle", "45",
                    "--seed", "0,0.785398", "--length", "0.5",
                    "--step", "0.01", "--format", "json", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "trace"
        assert payload["termination"] == "length reached"
        assert len(payload["samples"]) == 51

    def test_family_sweep(self, tmp_path):
        out = tmp_path / "fam.csv"
        code = run(["trace", "--surface", "builtin:sphere?r=1",
                    "--axis", "0,0,1", "--angle", "45",
                    "--seed", "0,0.785398", "--length", "0.3",
                    "--step", "0.01", "--family", "30:60:3",
                    "--out", str(out)])
        assert code == 0
        for angle in ("30", "45", "60"):
            assert (tmp_path / f"fam_deg{angle}.csv").exists()

    def test_family_files_match_single_traces(self, tmp_path):
        base = ["trace", "--surface", "builtin:sphere?r=1", "--axis", "0,0,1",
                "--angle", "45", "--seed", "0,0.785398", "--length", "0.3",
                "--step", "0.01"]
        assert run(base + ["--family", "30:60:3", "--out", str(tmp_path / "fam.csv")]) == 0
        for angle in ("30", "45", "60"):
            single = tmp_path / f"single{angle}.csv"
            args = base[:]
            args[args.index("--angle") + 1] = angle
            assert run(args + ["--out", str(single)]) == 0
            assert (tmp_path / f"fam_deg{angle}.csv").read_bytes() == single.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json", "obj"])
    def test_implicit_family_files_match_single_traces(self, fmt, tmp_path):
        base = ["trace-implicit", "--surface", "builtin:torus?R=2&r=0.5", "--axis", "0,0,1",
                "--angle", "60", "--seed", "2.5,0,0.1", "--length", "0.2", "--step", "0.01",
                "--format", fmt]
        assert run(base + ["--family", "55:65:3", "--out", str(tmp_path / f"fam.{fmt}")]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"fam_deg{angle}.{fmt}" for angle in ("55", "60", "65")]
        for angle in ("55", "60", "65"):
            single = tmp_path / f"single{angle}.{fmt}"
            args = base[:]
            args[args.index("--angle") + 1] = angle
            assert run(args + ["--out", str(single)]) == 0
            assert (tmp_path / f"fam_deg{angle}.{fmt}").read_bytes() == single.read_bytes()

    def test_family_stops_at_the_first_failing_angle(self, tmp_path, capsys):
        # 180 degrees has no level near the guess: the files of 30 and 105
        # degrees are written, in order, and the sweep exits 2 at 180
        base = ["trace", "--surface", "builtin:sphere?r=1", "--axis", "0,0,1",
                "--angle", "45", "--seed", "0,0.785398", "--length", "0.3", "--step", "0.01"]
        code, captured = run(base + ["--family", "30:180:3",
                                     "--out", str(tmp_path / "fam.csv")], capsys)
        assert code == 2
        assert captured.err == "no isophote at this level near guess\n"
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fam_deg105.csv", "fam_deg30.csv"]
        for angle in ("30", "105"):
            args = base[:]
            args[args.index("--angle") + 1] = angle
            assert run(args + ["--out", str(tmp_path / "single.csv")]) == 0
            assert ((tmp_path / f"fam_deg{angle}.csv").read_bytes()
                    == (tmp_path / "single.csv").read_bytes())

    def test_eps_sing_flag_sets_the_threshold(self, capsys):
        # an absurdly large threshold makes every point look singular
        code, captured = run(["trace", "--surface", "builtin:sphere?r=1",
                              "--axis", "0,0,1", "--angle", "45",
                              "--seed", "0,0.785398", "--length", "0.5",
                              "--step", "0.01", "--eps-sing", "1e6"], capsys)
        assert code == 2
        assert "singular" in captured.err

    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    def test_eps_sing_named(self, value, capsys):
        # every point of the plane z = 0 is singular for e_z: with a
        # threshold no norm is within (nan, -1) the solve would divide by 0
        code, captured = run(["trace-implicit", "--surface", "implicit:f=z", "--axis", "0,0,1",
                              "--angle", "0", "--seed", "0,0,0", "--eps-sing", value], capsys)
        assert code == 2
        assert captured.err == f"--eps-sing must be a finite number >= 0, got {float(value)!r}\n"

    def test_eps_sing_default_is_trace_configs(self, tmp_path, capsys):
        # the flag's default is TraceConfig's, which the help text names
        with pytest.raises(SystemExit):
            main(["trace", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"singularity threshold (default {darboux.trace.EPS_SING_DEFAULT:g})" in help_text
        argv = SPHERE_TRACE + ["--out"]
        assert run(argv + [str(tmp_path / "default.csv")]) == 0
        assert run(argv + [str(tmp_path / "flag.csv"), "--eps-sing",
                           repr(darboux.trace.EPS_SING_DEFAULT)]) == 0
        assert (tmp_path / "default.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()


class TestTraceImplicit:
    def test_torus_csv_has_empty_chart_columns(self, tmp_path):
        out = tmp_path / "torus.csv"
        code = run(["trace-implicit", "--surface", "builtin:torus?R=2&r=0.5",
                    "--axis", "0,0,1", "--angle", "60",
                    "--seed", "2.5,0,0.1", "--length", "1.0",
                    "--step", "0.01", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        cells = lines[1].split(",")
        assert cells[4] == "" and cells[5] == ""

    def test_expression_surface(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run(["trace-implicit", "--surface", "implicit:f=x^2+y^2+z^2-1",
                    "--axis", "0,0,1", "--angle", "45",
                    "--seed", "0.7,0,0.7", "--length", "0.5",
                    "--step", "0.01", "--out", str(out)])
        assert code == 0

    def test_seed_search_projects_to_project_tol(self, tmp_path, capsys):
        # the guess is off the 60-degree level, so the seed snap falls back
        # to the seed search; at this scale |f| cannot reach 1e-12
        out = tmp_path / "torus.csv"
        code, captured = run(["trace-implicit", "--surface", "builtin:torus?R=2e30&r=5e29",
                              "--axis", "0,0,1", "--angle", "60", "--seed", "2.5e30,0,1e29",
                              "--step", "2e28", "--length", "1e30", "--project-tol", "1e108",
                              "--out", str(out)], capsys)
        assert (code, captured.err) == (0, "")
        seed = out.read_text().splitlines()[1].split(",")
        # angle_dot = <U, d> = cos 60 degrees at the snapped seed
        assert float(seed[12]) == pytest.approx(0.5, abs=1e-9)

    def test_singular_seed_named_as_a_point(self, capsys):
        code, captured = run(["trace-implicit", "--surface", "implicit:f=x^2+y^2+z^2",
                              "--axis", "0,0,1", "--angle", "45", "--seed", "0,0,0"], capsys)
        assert code == 2
        assert captured.err == "implicit_expr: |grad f| <= 1e-10 at (0.0, 0.0, 0.0)\n"

    def test_implicit_plane_exit_2(self, capsys):
        code, captured = run(["trace-implicit", "--surface", "implicit:f=z",
                              "--axis", "0,0,1", "--angle", "0",
                              "--seed", "0,0,0"], capsys)
        assert code == 2
        assert "singular" in captured.err


class TestSeedFind:
    def test_parametric(self, capsys):
        code, captured = run(["seed-find", "--surface", "builtin:sphere?r=1",
                              "--axis", "0,0,1", "--angle", "60",
                              "--guess", "0,0.4"], capsys)
        assert code == 0
        u, v = (float(x) for x in captured.out.split())
        assert v == pytest.approx(math.pi / 6, abs=1e-11)

    def test_implicit(self, capsys):
        code, captured = run(["seed-find", "--surface", "builtin:sphere?r=1",
                              "--implicit", "--axis", "0,0,1", "--angle", "45",
                              "--guess", "0.6,0,0.8"], capsys)
        assert code == 0
        x, y, z = (float(t) for t in captured.out.split())
        assert z == pytest.approx(math.sqrt(2) / 2, abs=1e-12)

    def test_no_level_exit_2(self, capsys):
        code, captured = run(["seed-find", "--surface", "builtin:plane",
                              "--axis", "0,0,1", "--angle", "30",
                              "--guess", "0,0"], capsys)
        assert code == 2

    @pytest.mark.parametrize("query", ["r=1e+0", "r=1e0", "r=%31", "r=1&"])
    def test_builtin_parameter_spellings(self, query, capsys):
        # the "+" of an exponent is the number's own, not a form-encoded space
        code, captured = run(["seed-find", "--surface", f"builtin:sphere?{query}",
                              "--axis", "0,0,1", "--angle", "60",
                              "--guess", "0,0.4"], capsys)
        assert (code, captured.err) == (0, "")
        assert float(captured.out.split()[1]) == pytest.approx(math.pi / 6, abs=1e-11)

    @pytest.mark.parametrize("query, message", [
        ("r=1e 0", "bad number for builtin parameter r='1e 0'"),
        ("r=", "bad number for builtin parameter r=''"),
        ("q=1", "builtin 'sphere' has no parameter 'q' (parameters: r)"),
    ])
    def test_bad_builtin_parameters_exit_2(self, query, message, capsys):
        code, captured = run(["seed-find", "--surface", f"builtin:sphere?{query}",
                              "--axis", "0,0,1", "--angle", "60",
                              "--guess", "0,0.4"], capsys)
        assert code == 2
        assert message in captured.err


class TestClassify:
    def test_helix_on_cylinder_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["classify", "--surface", "builtin:cylinder?r=1",
                    "--curve", "param:u=s;v=s", "--samples", "200",
                    "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["verdicts"]["rel_normal_slant"]["is_constant"] is True
        assert report["verdicts"]["isophotic"]["is_constant"] is True
        assert report["flags"]["geodesic"]["value"] is True

    def test_report_validates_against_schema(self, tmp_path):
        out = tmp_path / "report.json"
        run(["classify", "--surface", "builtin:cylinder?r=1",
             "--curve", "param:u=s;v=s", "--samples", "64", "--out", str(out)])
        schema = json.load(open(os.path.join(DOCS, "report.schema.json")))
        jsonschema.validate(json.loads(out.read_text()), schema)

    def test_tol_sets_the_constancy_tolerance(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["classify", "--surface", "builtin:cylinder?r=1", "--curve",
                    "param:u=s;v=s", "--samples", "64", "--tol", "0.25",
                    "--out", str(out)]) == 0
        verdicts = json.loads(out.read_text())["verdicts"]
        # every verdict judged, all but the TU position one (k_g = 0 here)
        assert {name: v["tol"] for name, v in verdicts.items() if "tol" in v} == dict.fromkeys(
            ["isophotic", "isophotic_position", "rectifying", "rel_normal_slant",
             "slant_helix"], 0.25)

    def test_space_curve_on_implicit_surface(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["classify", "--surface", "implicit:f=x^2+y^2+z^2-1",
                    "--curve",
                    "space:x=0.7071067811865476*cos(s);"
                    "y=0.7071067811865476*sin(s);z=0.7071067811865476",
                    "--samples", "100", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["verdicts"]["isophotic"]["is_constant"] is True
        assert report["flags"]["line_of_curvature"]["value"] is True
        schema = json.load(open(os.path.join(DOCS, "report.schema.json")))
        jsonschema.validate(report, schema)

    def test_curve_off_surface_exit_2(self, capsys):
        code, captured = run(["classify", "--surface", "implicit:f=x^2+y^2+z^2-1",
                              "--curve", "space:x=2*cos(s);y=2*sin(s);z=0"],
                             capsys)
        assert code == 2

    def test_degenerate_line_still_reports(self, tmp_path):
        out = tmp_path / "line.json"
        code = run(["classify", "--surface", "builtin:plane",
                    "--curve", "param:u=s;v=0;s=0,5", "--samples", "50",
                    "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert "error" in report["verdicts"]["rel_normal_slant"]
        assert report["flags"]["geodesic"]["value"] is True
        schema = json.load(open(os.path.join(DOCS, "report.schema.json")))
        jsonschema.validate(report, schema)

    # a torus curve whose exponential integral overflows
    OVERFLOW_ARGV = ["classify", "--surface", "builtin:torus", "--curve",
                     "param:u=(-1.428)+(-0.355)*s;v=(-1.409)+(-30.0)*s+(0.453)*sin(s);s=0,2.0",
                     "--samples", "15"]

    @pytest.mark.filterwarnings("error")
    def test_overflowing_integral_writes_no_warning(self, tmp_path, capsys):
        out = tmp_path / "overflow.json"
        code, captured = run(self.OVERFLOW_ARGV + ["--out", str(out)], capsys)
        assert code == 0
        assert captured.err == ""
        # the overflow stays in the report as Infinity
        values = json.loads(out.read_text())["series"]["lambda1"]["values"]
        assert math.inf in [abs(x) for x in values if x is not None]

    def test_too_few_samples_report_verdict_errors(self, tmp_path):
        # 5 samples are fewer than a constancy verdict needs: the run still
        # exits 0, and each measure's verdict is its error
        out = tmp_path / "few.json"
        assert run(["classify", "--surface", "builtin:cylinder?r=1", "--curve",
                    "param:u=s;v=s", "--samples", "5", "--out", str(out)]) == 0
        verdicts = json.loads(out.read_text())["verdicts"]
        for name in ("rel_normal_slant", "isophotic", "slant_helix"):
            assert list(verdicts[name]) == ["error"]
            assert "5 unmasked samples < 8" in verdicts[name]["error"]


class TestFrames:
    def test_csv_columns(self, capsys):
        code, captured = run(["frames", "--surface", "builtin:cylinder?r=1",
                              "--curve", "param:u=s;v=s", "--samples", "16"],
                             capsys)
        assert code == 0
        lines = captured.out.splitlines()
        assert lines[0] == "s,x,y,z,tx,ty,tz,vx,vy,vz,ux,uy,uz,kg,kn,tg"
        assert len(lines) == 17
        row = [float(x) for x in lines[1].split(",")]
        assert row[13] == pytest.approx(0.0, abs=1e-9)   # kg
        assert row[14] == pytest.approx(-0.5, abs=1e-9)  # kn
        assert row[15] == pytest.approx(0.5, abs=1e-9)   # tg

    def test_json(self, capsys):
        code, captured = run(["frames", "--surface", "builtin:cylinder?r=1",
                              "--curve", "param:u=s;v=s", "--samples", "8",
                              "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["kind"] == "frames"
        assert len(payload["samples"]) == 8


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--surface", "builtin:sphere?r=1"])
        assert exc.value.code == 1

    def test_bad_axis(self, capsys):
        code, captured = run(["trace", "--surface", "builtin:sphere?r=1",
                              "--axis", "0,0,0", "--angle", "45",
                              "--seed", "0,0.7"], capsys)
        assert code == 2
        assert "nonzero" in captured.err

    def test_angle_out_of_range(self, capsys):
        code, captured = run(["trace", "--surface", "builtin:sphere?r=1",
                              "--axis", "0,0,1", "--angle", "200",
                              "--seed", "0,0.7"], capsys)
        assert code == 2

    @pytest.mark.parametrize("flag", [["--project-isophote"], ["--project-tol", "1e-10"]],
                             ids=["project-isophote", "project-tol"])
    def test_projection_options_only_on_trace_implicit(self, flag, tmp_path, capsys):
        # a chart trace projects nothing: trace rejects the options as usage
        with pytest.raises(SystemExit) as exc:
            main(SPHERE_TRACE + flag)
        assert exc.value.code == 1
        assert flag[0] in capsys.readouterr().err
        out = tmp_path / "torus.csv"
        code = run(["trace-implicit", "--surface", "builtin:torus?R=2&r=0.5",
                    "--axis", "0,0,1", "--angle", "60", "--seed", "2.5,0,0.1",
                    "--length", "0.05", "--step", "0.01", "--out", str(out)] + flag)
        assert code == 0

    def test_bad_surface_spec(self, capsys):
        code, captured = run(["catalog"], capsys)
        assert code == 0
        assert "sphere" in captured.out


SPHERE_TRACE = ["trace", "--surface", "builtin:sphere?r=1", "--axis", "0,0,1",
                "--angle", "45", "--seed", "0,0.7", "--length", "0.1", "--step", "0.01"]
TORUS_TRACE = ["trace-implicit", "--surface", "builtin:torus?R=2&r=0.5", "--axis", "0,0,1",
               "--angle", "60", "--seed", "2.5,0,0.1", "--length", "0.05", "--step", "0.01"]


PARAM_TRACE = ["trace", "--surface", "param:x=u;y=v;z=u*v;u=0,1;v=0,1", "--axis", "0,0,1",
               "--angle", "45", "--seed", "0.5,0.5", "--length", "0.01"]


def _frames_argv(surface, curve):
    return ["frames", "--surface", surface, "--curve", curve, "--samples", "8"]


def _with(argv, **flags):
    argv = list(argv)
    for flag, value in flags.items():
        flag = "--" + flag.replace("_", "-")
        if flag in argv:
            argv[argv.index(flag) + 1] = value
        else:
            argv += [flag, value]
    return argv


BAD_INPUTS = {
    "negative-step": _with(SPHERE_TRACE, step="-1"),
    "family-two-fields": _with(SPHERE_TRACE, family="30:60"),
    "family-zero-count": _with(SPHERE_TRACE, family="30:60:0"),
    "builtin-bad-number": _with(SPHERE_TRACE, surface="builtin:sphere?r=x"),
    "builtin-unknown-param": _with(SPHERE_TRACE, surface="builtin:sphere?q=1"),
    "builtin-nonfinite-param": _with(SPHERE_TRACE, surface="builtin:sphere?r=inf"),
    "axis-nan": _with(SPHERE_TRACE, axis="nan,0,1"),
    "project-tol-zero": _with(TORUS_TRACE, project_tol="0"),
    "project-tol-negative": _with(TORUS_TRACE, project_tol="-1"),
    "project-tol-nan": _with(TORUS_TRACE, project_tol="nan"),
    "closure-tol-zero": _with(SPHERE_TRACE, closure_tol="0"),
    "closure-tol-negative": _with(SPHERE_TRACE, closure_tol="-1"),
    "closure-tol-nan": _with(SPHERE_TRACE, closure_tol="nan"),
    "closure-tol-inf": _with(TORUS_TRACE, closure_tol="inf"),
    "classify-c-const-zero": ["classify", "--surface", "builtin:cylinder?r=1",
                              "--curve", "param:u=s;v=s", "--samples", "8",
                              "--c-const", "0"],
    "frames-negative-samples": ["frames", "--surface", "builtin:cylinder?r=1",
                                "--curve", "param:u=s;v=s", "--samples", "-1"],
    "param-sin-of-infinity": ["trace", "--surface",
                              "param:x=sin(u*1e300*1e300);y=v;z=u;u=0,1;v=0,1",
                              "--axis", "0,0,1", "--angle", "45", "--seed", "0.5,0.5",
                              "--length", "0.01"],
    # ranges that are not finite: a nan bound, an infinite one, a width
    # that overflows
    "range-nan": _with(PARAM_TRACE, surface="param:x=u;y=v;z=u*v;u=0,nan;v=0,1"),
    "range-inf": _with(PARAM_TRACE, surface="param:x=u;y=v;z=u*v;u=0,inf;v=0,1"),
    "curve-range-inf": _frames_argv("builtin:cylinder?r=1", "param:u=s;v=s;s=0,inf"),
    "curve-range-overflows": _frames_argv("builtin:cylinder?r=1",
                                          "param:u=s;v=s;s=-1e308,1e308"),
    "space-curve-range-inf": _frames_argv("builtin:sphere?r=1",
                                          "space:x=cos(s);y=sin(s);z=0;s=0,inf"),
    # ranges that are reversed or empty
    "range-reversed": _with(PARAM_TRACE, surface="param:x=u;y=v;z=u*v;u=1,0;v=0,1"),
    "range-empty": _with(PARAM_TRACE, surface="param:x=u;y=v;z=u*v;u=0.5,0.5;v=0,1"),
    "curve-range-empty": _frames_argv("builtin:cylinder?r=1", "param:u=s;v=s;s=1,1"),
    # curve specs
    "curve-no-prefix": _frames_argv("builtin:cylinder?r=1", "u=s;v=s"),
    "curve-unknown-kind": _frames_argv("builtin:cylinder?r=1", "foo:u=s;v=s"),
    "param-curve-missing-v": _frames_argv("builtin:cylinder?r=1", "param:u=s"),
    "param-curve-on-implicit": _frames_argv("implicit:f=z", "param:u=s;v=s"),
    "space-curve-missing-z": _frames_argv("builtin:sphere?r=1", "space:x=cos(s);y=sin(s)"),
    "space-curve-on-param": _frames_argv("param:x=u;y=v;z=0;u=0,1;v=0,1",
                                         "space:x=s;y=0;z=0"),
    # surface specs
    "param-surface-missing-z": _with(PARAM_TRACE, surface="param:x=u;y=v;u=0,1;v=0,1"),
    "surface-unknown-kind": _with(PARAM_TRACE, surface="foo:x=u"),
    "spec-field-without-equals": _with(PARAM_TRACE,
                                       surface="param:x=u;y=v;z=u*v;u=0,1;v=0,1;junk"),
    "range-one-number": _with(PARAM_TRACE, surface="param:x=u;y=v;z=u*v;u=0,1;v=0"),
    "implicit-missing-f": _with(TORUS_TRACE, surface="implicit:g=z"),
    "implicit-no-fields": _with(TORUS_TRACE, surface="implicit:"),
    # fields a spec kind does not have, or gives twice
    "param-surface-unknown-field": _with(PARAM_TRACE,
                                         surface="param:x=u;y=v;z=u*v;u=0,1;v=0,1;w=0,1"),
    "param-surface-repeated-field": _with(PARAM_TRACE,
                                          surface="param:x=u;y=v;z=u*v;u=0,1;v=0,1;x=v"),
    "param-surface-bad-periodic": _with(PARAM_TRACE,
                                        surface="param:x=u;y=v;z=u*v;u=0,1;v=0,1;periodic=uw"),
    "implicit-unknown-field": _with(TORUS_TRACE, surface="implicit:f=z;g=x"),
    "implicit-repeated-field": _with(TORUS_TRACE, surface="implicit:f=z;f=x"),
    "param-curve-unknown-field": _frames_argv("builtin:cylinder?r=1", "param:u=s;v=s;S=0,1"),
    "param-curve-repeated-field": _frames_argv("builtin:cylinder?r=1", "param:u=s;v=s;u=2*s"),
    "space-curve-unknown-field": _frames_argv("builtin:sphere?r=1",
                                              "space:x=cos(s);y=sin(s);z=0;t=0,1"),
    "space-curve-repeated-field": _frames_argv("builtin:sphere?r=1",
                                               "space:x=cos(s);y=sin(s);z=0;s=0,1;s=0,2"),
    # curves whose arclength table overflows: the table's checks name them
    "curve-range-midpoints-overflow": ["classify", "--surface", "builtin:cylinder?r=1",
                                       "--curve", "param:u=s;v=s;s=0,1e308", "--samples", "5"],
    "space-curve-speed-overflows": ["classify", "--surface", "builtin:sphere?r=1", "--curve",
                                    "space:x=1e300*cos(s);y=sin(s);z=0", "--samples", "5"],
    "space-curve-range-midpoints-overflow": ["classify", "--surface", "builtin:sphere?r=1",
                                             "--curve", "space:x=cos(s);y=sin(s);z=0;s=0,1e308",
                                             "--samples", "5"],
    # trace options
    "seed-three-numbers-on-a-chart": _with(SPHERE_TRACE, seed="0.5,0.5,1"),
    "seed-not-a-number": _with(SPHERE_TRACE, seed="0.5,a"),
    "family-bad-number": _with(SPHERE_TRACE, family="30:x:4"),
    "eps-sing-nan": _with(TORUS_TRACE, eps_sing="nan"),
    "eps-sing-negative": _with(TORUS_TRACE, eps_sing="-1"),
    "eps-sing-inf": _with(TORUS_TRACE, eps_sing="inf"),
}


class TestBoundaryErrors:
    """Values that parse but cannot be used: exit 2 with a one-line message."""

    # a numpy warning must fail the row: pytest's capture would keep it off stderr
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_exit_2_one_line_no_traceback(self, case, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code, captured = run(BAD_INPUTS[case] + ["--out", str(out)], capsys)
        assert code == 2
        assert "Traceback" not in captured.err
        assert len(captured.err.splitlines()) == 1
        assert not list(tmp_path.iterdir())

    def test_axis_nan_named_as_axis(self, capsys):
        code, captured = run(BAD_INPUTS["axis-nan"], capsys)
        assert "--axis" in captured.err
        assert "no isophote" not in captured.err

    @pytest.mark.parametrize("value", ["0", "-1", "nan"])
    def test_project_tol_named_before_the_seed_snap(self, value, capsys):
        code, captured = run(_with(TORUS_TRACE, project_tol=value), capsys)
        assert code == 2
        assert captured.err == (f"--project-tol must be a positive finite number, "
                                f"got {float(value)!r}\n")

    CLASSIFY_HELIX = ["classify", "--surface", "builtin:cylinder?r=1", "--curve",
                      "param:u=s;v=s", "--samples", "8"]

    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    def test_classify_tol_named(self, value, tmp_path, capsys):
        # nan and -1 would make every verdict false and inf every verdict true
        out = tmp_path / "report.json"
        code, captured = run(self.CLASSIFY_HELIX + ["--tol", value, "--out", str(out)], capsys)
        assert code == 2
        assert captured.err == f"--tol must be a finite number >= 0, got {float(value)!r}\n"
        assert not out.exists()

    def test_classify_tol_zero_is_valid(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(self.CLASSIFY_HELIX + ["--tol", "0", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["tolerances"]["constancy"] == 0.0

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_closure_tol_named(self, value, capsys):
        code, captured = run(_with(SPHERE_TRACE, closure_tol=value), capsys)
        assert code == 2
        assert captured.err == (f"--closure-tol must be a positive finite number, "
                                f"got {float(value)!r}\n")

    def test_closure_tol_of_twice_the_step_is_the_default(self, tmp_path):
        # the closed sphere circuit: 2 * step is the default closure radius
        argv = ["trace", "--surface", "builtin:sphere?r=1", "--axis", "0,0,1",
                "--angle", "45", "--seed", "0,0.785398", "--length", "4.5",
                "--step", "0.01", "--format", "json"]
        default, explicit = tmp_path / "default.json", tmp_path / "explicit.json"
        assert run(argv + ["--out", str(default)]) == 0
        assert run(argv + ["--closure-tol", "0.02", "--out", str(explicit)]) == 0
        assert json.loads(default.read_text())["termination"] == "closed"
        assert explicit.read_bytes() == default.read_bytes()

    def test_sin_of_infinity_names_the_call(self, capsys):
        code, captured = run(BAD_INPUTS["param-sin-of-infinity"], capsys)
        assert code == 2
        assert "sin of infinite value in 'sin(u*1e+300*1e+300)'" in captured.err

    NOT_FINITE = "is not finite (need finite lo, hi and hi - lo)"
    EMPTY = "is empty or reversed (need lo < hi)"
    RANGES = [("range-nan", "0,nan", NOT_FINITE), ("range-inf", "0,inf", NOT_FINITE),
              ("curve-range-inf", "0,inf", NOT_FINITE),
              ("curve-range-overflows", "-1e308,1e308", NOT_FINITE),
              ("space-curve-range-inf", "0,inf", NOT_FINITE),
              ("range-reversed", "1,0", EMPTY), ("range-empty", "0.5,0.5", EMPTY),
              ("curve-range-empty", "1,1", EMPTY)]

    # a range that is not finite, empty or reversed is named before it is used
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case,text,why", RANGES, ids=[f"{c}-{t}" for c, t, _ in RANGES])
    def test_range_not_finite_named_before_any_warning(self, case, text, why, capsys):
        code, captured = run(BAD_INPUTS[case], capsys)
        assert code == 2
        assert captured.err == f"range {text!r} {why}\n"

    FIELDS = [("param-surface-unknown-field", "unknown spec field 'w' "
               "(fields: x, y, z, u, v, periodic)"),
              ("param-surface-repeated-field", "spec field 'x' given twice"),
              ("param-surface-bad-periodic", "bad periodic='uw' (expected letters u and v)"),
              ("implicit-unknown-field", "unknown spec field 'g' (fields: f)"),
              ("implicit-repeated-field", "spec field 'f' given twice"),
              ("param-curve-unknown-field", "unknown spec field 'S' (fields: u, v, s)"),
              ("param-curve-repeated-field", "spec field 'u' given twice"),
              ("space-curve-unknown-field", "unknown spec field 't' (fields: x, y, z, s)"),
              ("space-curve-repeated-field", "spec field 's' given twice")]

    @pytest.mark.parametrize("case,message", FIELDS, ids=[case for case, _ in FIELDS])
    def test_spec_field_named(self, case, message, capsys):
        code, captured = run(BAD_INPUTS[case], capsys)
        assert code == 2
        assert captured.err == message + "\n"

    def test_unparsable_curve_fails_alike_twice(self, capsys):
        # a text that fails to compile is not cached: each call raises again
        argv = _frames_argv("builtin:cylinder?r=1", "param:u=2*;v=s")
        first = run(argv, capsys)
        second = run(argv, capsys)
        assert first == second
        assert first[0] == 2 and len(first[1].err.splitlines()) == 1

    def test_family_without_out_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code, captured = run(_with(SPHERE_TRACE, family="30:60:3"), capsys)
        assert code == 2
        assert captured.err == "--family requires --out (one file per angle)\n"
        assert captured.out == ""
        assert not list(tmp_path.iterdir())


# Path coefficients: zero (a zero-speed path), small values, and offsets
# that put a non-periodic parameter off the chart.
_COEFFICIENTS = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 30.0, -30.0]),
                          st.floats(-3.0, 3.0).map(lambda x: round(x, 3)))


@st.composite
def _curve_argv(draw):
    """classify/frames argv on a random catalog surface and curve spec."""
    command = draw(st.sampled_from(["classify", "frames"]))
    a, b, c, d, e = (draw(_COEFFICIENTS) for _ in range(5))
    hi = draw(st.sampled_from([0.5, 2.0, 6.0]))
    if draw(st.booleans()):
        surface = draw(st.sampled_from(
            ["sphere", "cylinder", "plane", "torus", "helicoid", "ellipsoid", "monkey_saddle"]))
        curve = f"param:u=({a})+({b})*s;v=({c})+({d})*s+({e})*sin(s);s=0,{hi}"
    else:
        # a latitude-like circle: on the implicit sphere for a = 0, b = 1
        surface = draw(st.sampled_from(["sphere", "cylinder", "plane", "torus"]))
        curve = (f"space:x=({b})*cos(s)*cos({a});y=({b})*sin(s)*cos({a});"
                 f"z=({b})*sin({a})+({c})*s;s=0,{hi}")
    samples = draw(st.integers(2, 50))
    return [command, "--surface", f"builtin:{surface}", "--curve", curve,
            "--samples", str(samples)]


# a numpy warning fails the run too: the CLI writes none on these inputs.
# The examples run on every pass: a torus path whose classify once warned,
# and a ruling of a cylinder scaled so far that |grad f|^3 overflows in the
# column pass of U' and U'' (the ruling lies on the level set exactly)
@pytest.mark.filterwarnings("error")
@settings(max_examples=40, deadline=None)
@given(argv=_curve_argv())
@example(argv=["classify", "--surface", "builtin:torus", "--curve",
               "param:u=(-1.428)+(-0.355)*s;v=(-1.409)+(-30.0)*s+(0.453)*sin(s);s=0,2.0",
               "--samples", "15"])
@example(argv=["classify", "--surface", "builtin:cylinder?r=1e110", "--curve",
               "space:x=1e110;y=0*s;z=s;s=0,2", "--samples", "15"])
def test_curve_commands_never_trace_back(argv, tmp_path_factory):
    """Any catalog surface and curve spec ends in exit 0, 1 or 2 and never
    in a stack trace, whichever stage (table, inversion, frames) fails."""
    out = tmp_path_factory.mktemp("fuzz") / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv + ["--out", str(out)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# A parameter range so short that the arclength increments underflow to 0
TINY_RANGE_ARGV = ["frames", "--surface", "builtin:plane", "--curve",
                   "param:u=s;v=s;s=0,1e-320", "--samples", "5"]


def test_tiny_parameter_range_exits_2_with_a_typed_error(tmp_path):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(TINY_RANGE_ARGV + ["--out", str(tmp_path / "out")])
    assert code == 2
    assert "arclength table for t in [0, 9.99989e-321] cannot be inverted" in err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_subnormal_parameter_range_exits_2_with_a_typed_error(tmp_path):
    """s = 0..1e-310 builds a table whose PCHIP coefficients overflow, which
    would invert every sample to nan: the run exits 2 with the typed
    message, no numpy warning and no stack trace."""
    argv = ["frames", "--surface", "builtin:plane", "--curve", "param:u=s;v=s;s=0,1e-310",
            "--samples", "5", "--out", str(tmp_path / "out.csv")]
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        assert main(argv) == 2
    assert err.getvalue() == (
        "arclength table for t in [0, 1e-310] cannot be inverted: its arclengths are not "
        "finite and strictly increasing, or their slopes are not finite (the range may be "
        "too short or too long for float arclengths)\n")


# A torus path whose speed jumps at s = 1.05 (the kink of abs): Simpson
# stops splitting a few dozen ulps short of the kink instead of landing on it
KINK_ARGV = ["frames", "--surface", "builtin:torus?R=2&r=0.5", "--curve",
             "param:u=abs(s-1.05)+s;v=sinh(0.5*s);s=0,2", "--samples", "20"]


def test_speed_kink_is_integrated_across(tmp_path):
    out = tmp_path / "out.csv"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(KINK_ARGV + ["--out", str(out)]) == 0
    assert err.getvalue() == ""
    rows = out.read_text().splitlines()
    assert len(rows) == 21
    assert all(math.isfinite(float(x)) for row in rows[1:] for x in row.split(","))


def test_import_loads_no_scipy():
    """The package imports no scipy, so starting the CLI does not pay for
    it."""
    probe = ("import sys, darboux, darboux.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert fresh_interpreter(probe).strip() == "[]"


def _loaded_after(argv: list, out) -> list:
    """The darboux submodules and numpy.polynomial modules a fresh
    interpreter holds after ``main(argv + ['--out', out])``."""
    probe = "\n".join([
        "import json, sys",
        "from darboux.cli import main",
        f"assert main({argv + ['--out', str(out)]!r}) == 0",
        "print(json.dumps(sorted(m for m in sys.modules",
        "                        if m.startswith(('darboux.', 'numpy.polynomial')))))",
    ])
    return json.loads(fresh_interpreter(probe))


LAUNCHES = {
    "trace": SPHERE_TRACE,
    "trace-implicit": TORUS_TRACE,
    "seed-find": ["seed-find", "--surface", "builtin:sphere?r=1", "--axis", "0,0,1",
                  "--angle", "45", "--guess", "0,0.7"],
    "classify": ["classify", "--surface", "builtin:cylinder?r=1", "--curve",
                 "param:u=s;v=0.9*s", "--samples", "50"],
    "frames": ["frames", "--surface", "builtin:sphere?r=1", "--curve",
               "space:x=cos(s)*cos(0.4);y=sin(s)*cos(0.4);z=sin(0.4)", "--samples", "30"],
}


@pytest.mark.parametrize("command", ["trace", "trace-implicit", "seed-find"])
def test_trace_commands_load_no_frames_classify_or_polynomial(command, tmp_path):
    """A trace, an implicit trace and a seed search run on surface and
    trace alone: frames, classify and numpy.polynomial never load."""
    assert _loaded_after(LAUNCHES[command], tmp_path / "out") == [
        "darboux.cli", "darboux.errors", "darboux.expr", "darboux.surface", "darboux.trace"]


@pytest.mark.parametrize("command", ["classify", "frames"])
def test_classify_and_frames_load_no_trace(command, tmp_path):
    loaded = _loaded_after(LAUNCHES[command], tmp_path / "out")
    assert "darboux.frames" in loaded
    assert "darboux.trace" not in loaded
    assert ("darboux.classify" in loaded) == (command == "classify")


def test_import_darboux_loads_no_submodule():
    """The package's names resolve on first use: importing it loads none of
    its modules."""
    probe = ("import sys, darboux; "
             "print(sorted(m for m in sys.modules if m.startswith('darboux.')))")
    assert fresh_interpreter(probe).strip() == "[]"


def test_classify_and_frames_load_no_scipy_interpolate_or_integrate(tmp_path):
    """classify on a chart path and on a space curve, and frames, invert
    arclength and integrate with numpy alone: scipy's interpolate and
    integrate never load."""
    calls = [
        ["classify", "--surface", "builtin:cylinder?r=1", "--curve", "param:u=s;v=0.9*s",
         "--samples", "50"],
        ["classify", "--surface", "builtin:sphere?r=1", "--curve",
         "space:x=cos(s)*cos(0.4);y=sin(s)*cos(0.4);z=sin(0.4)", "--samples", "30"],
        ["frames", "--surface", "builtin:torus?R=2&r=0.5", "--curve", "param:u=s;v=2*s",
         "--samples", "50"],
    ]
    probe = "\n".join([
        "import sys",
        "from darboux.cli import main",
        *(f"assert main({argv + ['--out', str(tmp_path / f'out{k}')]!r}) == 0"
          for k, argv in enumerate(calls)),
        "print(sorted(m for m in sys.modules",
        "             if m.startswith(('scipy.interpolate', 'scipy.integrate'))))",
    ])
    assert fresh_interpreter(probe).strip() == "[]"


class TestCatalog:
    def test_lists_builtins(self, capsys):
        code, captured = run(["catalog"], capsys)
        assert code == 0
        for name in ("sphere", "cylinder", "plane", "torus", "helicoid",
                     "ellipsoid", "monkey_saddle"):
            assert name in captured.out


# Catalog scales from 1e-150 to 1e150: Python float arithmetic overflows,
# divides by zero or leaves a math domain where numpy gave inf or nan.
# Hypothesis leans towards the first entry; at 1e60 |w|**3 overflows.
_SCALES = st.sampled_from([1e60, 1e-150, 1e-60, 1e-20, 1.0, 1e20, 1e100, 1e150])


@st.composite
def _trace_argv(draw):
    """trace/trace-implicit/seed-find argv on a scaled catalog surface."""
    command = draw(st.sampled_from(["trace", "trace-implicit", "seed-find"]))
    implicit = command == "trace-implicit" or (command == "seed-find" and draw(st.booleans()))
    scale = draw(_SCALES)
    ratio = draw(st.sampled_from([0.1, 0.25, 0.5]))
    names = ["sphere", "torus", "cylinder", "plane"]
    if not implicit:
        names[2:2] = ["ellipsoid", "helicoid", "monkey_saddle"]
    name = draw(st.sampled_from(names))
    big, mid, small = (repr(x) for x in (scale, scale * ratio, scale * ratio * ratio))
    query = {"sphere": f"r={big}", "cylinder": f"r={big}", "torus": f"R={big}&r={mid}",
             "helicoid": f"a={big}", "ellipsoid": f"a={big}&b={mid}&c={small}",
             "plane": "", "monkey_saddle": ""}[name]
    surface = f"builtin:{name}" + (f"?{query}" if query else "")
    axis = draw(st.sampled_from(["0,0,1", "1,0,0", "1,0,2", "0.3,-0.5,0.8"]))
    angle = draw(st.sampled_from(["45", "0", "30", "60", "90", "135", "180"]))
    if implicit:
        seed = ",".join(repr(scale * draw(st.sampled_from([0.0, 0.1, 1.0, 1.3, -2.5])))
                        for _ in range(3))
    else:
        seed = ",".join(repr(draw(st.floats(-1.5, 1.5).map(lambda x: round(x, 3))))
                        for _ in range(2))
    if command == "seed-find":
        # "--guess=-1,2" keeps argparse from reading a negative guess as a flag
        return ["seed-find", "--surface", surface, "--axis", axis, "--angle", angle,
                f"--guess={seed}"] + (["--implicit"] if implicit else [])
    step = draw(st.sampled_from([1e-3, 1e-2 * scale]))
    return [command, "--surface", surface, "--axis", axis, "--angle", angle, f"--seed={seed}",
            "--step", repr(step), "--length", repr(3 * step)]


@settings(max_examples=60, deadline=None)
@given(argv=_trace_argv())
def test_trace_commands_never_trace_back(argv, tmp_path_factory):
    """Any scaled catalog surface ends trace, trace-implicit and seed-find in
    exit 0, 1 or 2 and never in a stack trace."""
    out = tmp_path_factory.mktemp("fuzz") / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv + ["--out", str(out)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("argv", [
    ["classify", "--surface", "builtin:cylinder?r=1e60", "--curve", "param:u=s;v=s",
     "--samples", "20"],
    ["frames", "--surface", "builtin:torus?R=1e60&r=1e59", "--curve", "param:u=s;v=s",
     "--samples", "20"],
], ids=["classify-cylinder-1e60", "frames-torus-1e60"])
def test_curve_commands_on_huge_scales_finish(argv, tmp_path, capsys):
    # the arclength table stops splitting at the rounding level of these
    # 1e60-long intervals instead of running to full depth
    code, captured = run(argv + ["--out", str(tmp_path / "out")], capsys)
    assert code in (0, 1, 2)
    assert "Traceback" not in captured.err


def test_path_through_a_pole_exits_2_within_seconds():
    """u = tan(0.3 s) has a pole at s = 5.236, inside [0, 2 pi]: the
    arclength table never settles there, and the CLI reports that (exit 2,
    the interval named) instead of splitting depth first for minutes."""
    src = os.path.dirname(os.path.dirname(darboux.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    argv = ["frames", "--surface", "builtin:cylinder?r=1", "--curve",
            "param:u=tan(0.3*s);v=sqrt(2+s)", "--samples", "64"]
    out = subprocess.run([sys.executable, "-m", "darboux.cli", *argv], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert "arclength table does not settle" in out.stderr
    assert "t in [5.23" in out.stderr
