"""Smoke tests for the benchmark itself (tiny inputs; not part of tier-1).

    python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import gate  # noqa: E402
import workloads  # noqa: E402
from darboux import cli  # noqa: E402
from darboux.surface import parse_surface_spec  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    summary = [line.split() for line in proc.stdout.splitlines()[:-1]]
    for m in declared:
        assert [m["name"], m["unit"]] in ([w[0], w[2]] for w in summary if len(w) > 2)
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))


def _trace_csv(tmp_path, call):
    out = tmp_path / "trace.csv"
    assert cli.main([*call.argv, "--out", str(out)]) == 0
    return out.read_text()


def _perturb(text, column, row, delta):
    lines = text.splitlines()
    k = lines[0].split(",").index(column)
    fields = lines[row].split(",")
    fields[k] = repr(float(fields[k]) + delta)
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_gate_rejects_perturbed_trace_csv(tmp_path):
    sphere, torus = workloads.make_calls("trace-catalog", 7, "smoke")
    text = _trace_csv(tmp_path, sphere)
    phi, step = sphere.check["angles"][0], sphere.check["step"]
    assert gate.check_trace(text, phi, step, closed=True) == []
    assert gate.check_trace(_perturb(text, "angle_dot", 5, 1e-7), phi, step, closed=True)
    assert gate.check_trace(_perturb(text, "x", -1, 0.1), phi, step, closed=True)

    text = _trace_csv(tmp_path, torus)
    surface = parse_surface_spec(torus.check["implicit"], implicit=True)
    psi, rows = torus.check["angles"][0], torus.check["rows"]
    assert gate.check_trace(text, psi, step, implicit_surface=surface, rows=rows) == []
    assert gate.check_trace(_perturb(text, "z", 3, 1e-6), psi, step, implicit_surface=surface)
    stopped_early = "\n".join(text.splitlines()[:-3]) + "\n"
    assert gate.check_trace(stopped_early, psi, step, implicit_surface=surface, rows=rows)


def test_gate_rejects_non_orthonormal_frames(tmp_path):
    call = workloads.make_calls("classify-frames", 7, "smoke")[1]
    out = tmp_path / "frames.csv"
    assert cli.main([*call.argv, "--out", str(out)]) == 0
    text = out.read_text()
    assert gate.check_frames(text, call.check["rows"]) == []
    assert gate.check_frames(_perturb(text, "vx", 2, 1e-6), call.check["rows"])
    assert gate.check_frames(text, call.check["rows"] + 1)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "trace-catalog", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_inputs_follow_the_seed():
    for name in workloads.BUILDERS:
        assert workloads.make_calls(name, 11) == workloads.make_calls(name, 11)
        keys = {c.key for c in workloads.all_calls(name)}
        assert {c.key for c in workloads.make_calls(name, 11)} <= keys
    sphere = workloads.make_calls("trace-catalog", 3)[0]
    assert math.isclose(float(sphere.argv[sphere.argv.index("--length") + 1]),
                        workloads.SIZES["full"]["circuit"] + 0.05)
