"""Golden outputs: CLI bytes compared with files under tests/golden/.

Each file was written by the CLI with the argv listed next to it.  A
refactor that keeps the operations and their order keeps these bytes; any
change to a golden file is numeric drift and is listed in CHANGES.md with
its maximum absolute difference and its reason.
"""

import argparse
import os

import pytest

from darboux.cli import main, make_parser

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

CASES = {
    # the closed 45-degree circuit on the unit sphere at step 1e-2
    "sphere_circuit_step1e-2.csv": [
        "trace", "--surface", "builtin:sphere?r=1", "--axis", "0,0,1",
        "--angle", "45", "--seed", "0,0.785398", "--length", "4.5", "--step", "1e-2"],
    # the same circuit on the sphere given as expressions (symbolic chart jets)
    "sphere_param_circuit_step1e-2.csv": [
        "trace", "--surface",
        "param:x=1.0*cos(v)*cos(u);y=1.0*cos(v)*sin(u);z=1.0*sin(v);"
        "u=-3.141592653589793,3.141592653589793;"
        "v=-1.5707953267948966,1.5707953267948966;periodic=u",
        "--axis", "0,0,1", "--angle", "45", "--seed", "0,0.785398", "--length", "4.5",
        "--step", "1e-2"],
    # a short 60-degree isophote on the implicit torus
    "torus_implicit_step1e-2.csv": [
        "trace-implicit", "--surface", "builtin:torus?R=2&r=0.5", "--axis", "0,0,1",
        "--angle", "60", "--seed", "2.5,0,0.1", "--length", "0.5", "--step", "1e-2"],
    # the unit-speed helix on the unit cylinder
    "cylinder_helix_classify.json": [
        "classify", "--surface", "builtin:cylinder?r=1", "--curve", "param:u=s;v=s",
        "--samples", "64"],
    # the implicit torus on the minus branch, Newton-projected onto the level
    "torus_implicit_minus_project.csv": [
        "trace-implicit", "--surface", "builtin:torus?R=2&r=0.5", "--axis", "0,0,1",
        "--angle", "60", "--seed", "2.5,0,0.1", "--length", "0.2", "--step", "1e-2",
        "--branch", "minus", "--project-isophote"],
    # a helicoid helix that runs off the chart at u = 2 pi ("left domain")
    "helicoid_left_domain.json": [
        "trace", "--surface", "builtin:helicoid?a=1", "--axis", "0,0,1",
        "--angle", "135", "--seed", "6.1,1", "--length", "1", "--step", "1e-2",
        "--format", "json"],
    # the implicit torus given as an expression (symbolic gradient and Hessian)
    "torus_expr_implicit.csv": [
        "trace-implicit", "--surface", "implicit:f=(x^2+y^2+z^2+3.75)^2-16*(x^2+y^2)",
        "--axis", "0,0,1", "--angle", "60", "--seed", "2.5,0,0.1", "--length", "0.2",
        "--step", "1e-2"],
    # Darboux frames along a (1, 2) winding of the catalog torus
    "torus_frames.csv": [
        "frames", "--surface", "builtin:torus?R=2&r=0.5", "--curve", "param:u=s;v=2*s",
        "--samples", "20"],
    # a latitude of the unit sphere given as a space curve (resampled to unit speed)
    "sphere_latitude_space_classify.json": [
        "classify", "--surface", "builtin:sphere?r=1", "--curve",
        "space:x=cos(s)*cos(0.5);y=sin(s)*cos(0.5);z=sin(0.5)", "--samples", "100"],
    # a wavy chart path on the ellipsoid, with the analytic tau_g'
    "ellipsoid_classify.json": [
        "classify", "--surface", "builtin:ellipsoid?a=2&b=1.5&c=1", "--curve",
        "param:u=0.5*s;v=0.3*sin(s);s=0,3", "--samples", "48"],
    # the closed sphere circuit as a polyline (the closing index 1)
    "sphere_circuit_step1e-2.obj": [
        "trace", "--surface", "builtin:sphere?r=1", "--axis", "0,0,1",
        "--angle", "45", "--seed", "0,0.785398", "--length", "4.5", "--step", "1e-2",
        "--format", "obj"],
    # an implicit trace as JSON (u and v are null off a chart)
    "torus_implicit_length0.2.json": [
        "trace-implicit", "--surface", "builtin:torus?R=2&r=0.5", "--axis", "0,0,1",
        "--angle", "60", "--seed", "2.5,0,0.1", "--length", "0.2", "--step", "1e-2",
        "--format", "json"],
    # the same implicit trace as a polyline (not closed)
    "torus_implicit_length0.2.obj": [
        "trace-implicit", "--surface", "builtin:torus?R=2&r=0.5", "--axis", "0,0,1",
        "--angle", "60", "--seed", "2.5,0,0.1", "--length", "0.2", "--step", "1e-2",
        "--format", "obj"],
    # an oblique frame series on the ellipsoid: |k_n| 0.36-0.93, |tau_g| up to
    # 0.21, |k_g| up to 0.107 and zero only at its symmetric points
    "ellipsoid_oblique_frames.csv": [
        "frames", "--surface", "builtin:ellipsoid", "--curve", "param:u=s;v=0.3*sin(s)",
        "--samples", "300"],
    # the frames of torus_frames.csv as JSON
    "torus_frames.json": [
        "frames", "--surface", "builtin:torus?R=2&r=0.5", "--curve", "param:u=s;v=2*s",
        "--samples", "20", "--format", "json"],
    # a closing oblique isophote on the implicit torus: k_g and tau_g are
    # both nonzero along it, and the last sample is the closure step
    "torus_oblique_closed_step2e-2.csv": [
        "trace-implicit", "--surface", "builtin:torus?R=2&r=0.5", "--axis", "1,0,0.2",
        "--angle", "50", "--seed", "2.5,0,0.1", "--length", "10", "--step", "2e-2"],
    # a torus chart path whose first-order speed reads ^, exp and sqrt, the
    # first evaluated lane by lane with Python's power and the others not
    "torus_pow_exp_sqrt_frames.csv": [
        "frames", "--surface", "builtin:torus?R=2&r=0.5", "--curve",
        "param:u=0.4*(1+s)^1.5;v=exp(0.3*s)-sqrt(1+s)", "--samples", "40"],
    # a space curve on the cylinder whose raw speed reads tan (lane by lane)
    "cylinder_tan_space_classify.json": [
        "classify", "--surface", "builtin:cylinder?r=1", "--curve",
        "space:x=cos(s);y=sin(s);z=s*tan(0.3*s);s=0,3", "--samples", "40"],
    # a chart path on the cone x^2 + y^2 = z^2, on which every curve is
    # isophotic (mu_u = 1) and lies in span{T, V}
    "cone_classify.json": [
        "classify", "--surface", "param:x=u*cos(v);y=u*sin(v);z=u;u=0.5,5;v=-10,10",
        "--curve", "param:u=1+0.3*s+0.1*s*s;v=0.7*s;s=0,2", "--samples", "64"],
    # the same curve as a space curve on the implicit cone (analytic tau_g')
    "cone_space_classify.json": [
        "classify", "--surface", "implicit:f=x^2+y^2-z^2", "--curve",
        "space:x=(1+0.3*s+0.1*s*s)*cos(0.7*s);y=(1+0.3*s+0.1*s*s)*sin(0.7*s);"
        "z=1+0.3*s+0.1*s*s;s=0,2", "--samples", "64"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_bytes(name, tmp_path):
    out = tmp_path / name
    assert main(CASES[name] + ["--out", str(out)]) == 0
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        expected = fh.read()
    assert out.read_bytes() == expected


def _format_choices():
    """{command: (--format choices, default)} for every subcommand with a --format."""
    sub = next(a for a in make_parser()._actions if isinstance(a, argparse._SubParsersAction))
    out = {}
    for command, parser in sub.choices.items():
        for action in parser._actions:
            if action.dest == "format":
                out[command] = (action.choices, action.default)
    return out


def test_every_output_format_has_a_golden():
    formats = _format_choices()
    assert set(formats) >= {"trace", "trace-implicit", "frames"}
    covered = set()
    for argv in CASES.values():
        command = argv[0]
        if command in formats:
            fmt = argv[argv.index("--format") + 1] if "--format" in argv else formats[command][1]
            covered.add((command, fmt))
        else:
            covered.add((command, None))
    wanted = {(command, fmt) for command, (choices, _) in formats.items() for fmt in choices}
    wanted.add(("classify", None))
    assert sorted(wanted - covered, key=str) == []
