"""darboux benchmark: CLI throughput on four workloads, per-layer attribution.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Runs from the root of a source checkout and imports darboux from its
``src/``.  The load is a closed loop with one client: this process calls
``darboux.cli.main(argv)`` in-process, each call issued after the previous
one returns, after one uncounted warm-up call.  A run repeats whole passes
over the workload's call list for as long as they fit in ``--seconds``; with
``--trace 0``, fresh-interpreter set-up launches are spread between the calls
and their time is not part of the window.  Every
output goes through the correctness gate (gate.py); a failed call is
counted, never dropped or retried.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced pass with a traced one (tracing.py) and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--smoke`` runs
tiny inputs, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / ".out"
SETUP_LAUNCHES = 11
# Host calibration: the shared 2-core host this benchmark was defined on
# changes speed by up to 2x within seconds, which no number of calls in one
# run averages out.  A fixed loop of the same kind of work as darboux
# (small numpy vectors, float math) is timed between calls, and each call's
# wall time is scaled by CALIBRATION_REF_S / (loop time around the call).
# The scaled times are what a host whose loop takes CALIBRATION_REF_S would
# see; raw wall times are reported alongside.
CALIBRATION_REF_S = 0.09


def _pin_to_one_cpu():
    """Pin this process, and so the threads darboux starts, to one CPU.

    darboux's work holds the GIL, so its ``--family`` pool gains nothing
    from a second CPU, but unpinned its threads hand the GIL across CPUs:
    on the shared 2-core host this benchmark was defined on, that made
    ``family`` calls 35% slower and their spread over ten seeds 0.19-0.21,
    against 0.02-0.07 pinned.  Pinned, the calibration loop also runs on the
    CPU the calls run on.  Returns the CPU set the process had, for the
    set-up launches, which should see what a user's interpreter sees."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    return cpus


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, one set-up launch")
    return p.parse_args(argv)


def _import_darboux():
    """Import darboux from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "darboux" / "cli.py").is_file():
        raise SystemExit(f"benchmark: no darboux sources under {src}")
    sys.path.insert(0, str(src))
    import darboux.cli

    if Path(darboux.__file__).resolve().parent != src / "darboux":
        raise SystemExit(f"benchmark: imported darboux from {darboux.__file__}, not {src}")
    return darboux.cli


def _metadata(workload, seed, smoke):
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((ROOT / "src" / "darboux").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": workload, "seed": seed, "size": "smoke" if smoke else "full",
        "commit": commit, "source_sha256": src_hash.hexdigest(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "machine": f"{platform.system()} {platform.release()} {platform.machine()}, {cpu}",
    }


def calibration_loop() -> float:
    """Seconds taken by a fixed loop that does not touch darboux."""
    import math

    import numpy as np

    a, b, acc = np.array([0.3, -0.2, 0.9]), np.array([0.1, 0.7, -0.4]), 0.0
    start = time.perf_counter()
    for i in range(2400):
        c = np.cross(a, b)
        acc += math.sin(math.sqrt(float(c @ c)) * i)
        a = a + 1e-6 * c
    return time.perf_counter() - start


class Calibrated:
    """Times work and scales each wall time by the host calibration measured
    just before and just after it.  ``time`` records a call into ``raw`` and
    ``scaled``; ``record`` records into the caller's lists, so that set-up
    launches and calls share one sequence of loops."""

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.loops: list[float] = []
        self.before = self._loop()

    def _loop(self) -> float:
        seconds = calibration_loop()
        self.loops.append(seconds)
        return seconds

    def time(self, fn):
        return self.record(fn, self.raw, self.scaled)

    def record(self, fn, raw, scaled):
        start = time.perf_counter()
        value = fn()
        wall = time.perf_counter() - start
        after = self._loop()
        raw.append(wall)
        scaled.append(wall * CALIBRATION_REF_S / (0.5 * (self.before + after)))
        self.before = after
        return value


class SetupLaunches:
    """Fresh interpreters that import darboux and parse the workload's specs,
    spread evenly over a run's window and timed by ``clock`` like a call.

    Launch k is due once the calls have used k / count of the window; launches
    still owed when the window closes run back to back.  A shared host drifts
    in speed over tens of seconds, and launches made in a row all land in
    one phase of it.  The launch runs unpinned in another process, but the
    loop around it still tracks the host's drift: the scaled median spreads
    less over seeds than the raw one (README.md, *Host calibration*)."""

    def __init__(self, calls, count: int, seconds: float, clock: Calibrated, cpus=None):
        from workloads import surface_and_curve_specs

        specs = json.dumps(surface_and_curve_specs(calls))
        self.cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(ROOT), specs]
        self.count = count
        self.seconds = seconds
        self.clock = clock
        self.cpus = cpus
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.spent = 0.0                      # launches and their loops

    def launch(self):
        start = time.perf_counter()
        unpin = None if self.cpus is None else (lambda: os.sched_setaffinity(0, self.cpus))
        proc = self.clock.record(
            lambda: subprocess.run(self.cmd, capture_output=True, text=True, preexec_fn=unpin),
            self.raw, self.scaled)
        self.spent += time.perf_counter() - start
        if proc.returncode != 0:
            raise SystemExit(f"benchmark: set-up probe failed:\n{proc.stderr}")

    def run_due(self, elapsed: float):
        """Run the launches due after ``elapsed`` seconds of calls."""
        while (len(self.raw) < self.count
               and elapsed >= len(self.raw) * self.seconds / self.count):
            self.launch()

    def finish(self):
        while len(self.raw) < self.count:
            self.launch()


class Runner:
    """Issues calls, times them, and gates every output."""

    def __init__(self, cli, work_dir: Path, reference: dict):
        from gate import ReportChecker

        self.cli = cli
        self.work_dir = work_dir
        self.reference = reference
        self.reports = ReportChecker(ROOT / "docs" / "report.schema.json")
        self.surfaces = {}
        self.digests_matched = 0
        self.outputs = 0
        self.failures = []

    def _invoke(self, argv):
        try:
            return self.cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return "raised"

    def run(self, index, call, clock, tracer=None, call_id=None):
        """Run one call, timed by ``clock`` and traced by ``tracer`` if
        given; returns (output rows, passed)."""
        out = self.work_dir / f"c{index}.{call.ext}"
        for path, _ in self.output_files(out, call):   # never gate a stale file
            path.unlink(missing_ok=True)
        argv = [*call.argv, "--out", str(out)]
        if tracer is None:
            rc = clock.time(lambda: self._invoke(argv))
        else:
            tracer.install()
            try:
                rc = clock.time(lambda: tracer.call(call_id, self._invoke, argv))
            finally:
                tracer.uninstall()
        if rc != 0:
            self.failures.append(f"{call.key}: exit {rc}")
            return 0, False
        try:
            rows, problems = self.check(out, call)
        except Exception as exc:  # an unreadable output is a failed call
            rows, problems = 0, [f"unreadable output: {exc!r}"]
        if problems:
            self.failures.append(f"{call.key}: {'; '.join(problems)}")
        return rows, not problems

    def output_files(self, out, call):
        """The files a call writes for ``--out out``, with the angle traced."""
        if not call.check.get("family"):
            return [(out, call.check.get("angles", [None])[0])]
        return [(out.with_name(f"{out.stem}_deg{a:g}{out.suffix}"), a)
                for a in call.check["angles"]]

    def check(self, out, call):
        """Output rows and gate problems of one call's outputs."""
        import gate

        files = self.output_files(out, call)
        raw = [path.read_bytes() for path, _ in files]
        texts = [b.decode() for b in raw]
        expected = self.reference.get(call.key, {})
        digests = [hashlib.sha256(b).hexdigest() for b in raw]
        recorded = expected.get("sha256", [])
        self.outputs += len(digests)
        self.digests_matched += sum(a == b for a, b in zip(digests, recorded))
        if call.command == "classify":
            rows = call.check["rows"]
            return rows, self.reports.check(texts[0], expected.get("verdicts"))
        if call.command == "frames":
            rows = len(texts[0].splitlines()) - 1
            return rows, gate.check_frames(texts[0], call.check["rows"])
        problems, rows = [], 0
        surface = None
        if "implicit" in call.check:
            spec = call.check["implicit"]
            if spec not in self.surfaces:
                from darboux.surface import parse_surface_spec
                self.surfaces[spec] = parse_surface_spec(spec, implicit=True)
            surface = self.surfaces[spec]
        for (path, angle), text in zip(files, texts):
            rows += len(text.splitlines()) - 1
            problems += gate.check_trace(text, angle, call.check["step"],
                                         closed=call.check.get("closed", False),
                                         implicit_surface=surface,
                                         rows=call.check.get("rows"))
        return rows, problems


def _kind(call):
    if call.check.get("family"):
        return "family"
    return "trace" if call.command.startswith("trace") else "curve"


def _window_full(now, cycle_start, seconds):
    """True when one more pass, as long as the last, would overrun the
    window; the first pass always runs."""
    return now + (now - cycle_start) > seconds


def _median_pass(walls, per_pass):
    """Wall time of a median pass: each call's median over the run's passes,
    summed over the pass.  A pooled median of unlike calls (a sphere circuit
    and a torus trace) falls in the gap between them and jumps with the
    noise of both tails, and a plain sum follows the slowest calls."""
    return sum(statistics.median(walls[i::per_pass]) for i in range(per_pass))


def timed_run(runner, calls, seconds, launches, cpus):
    """Whole passes over ``calls`` while they fit in ``seconds``, with
    ``launches`` set-up launches spread between the calls and kept out of
    the window."""
    clock = Calibrated()
    setup = SetupLaunches(calls, launches, seconds, clock, cpus)
    rows, attempted, failed, passes = 0, 0, 0, 0
    start = time.perf_counter()

    def elapsed():
        return time.perf_counter() - start - setup.spent

    while True:
        cycle_start = elapsed()
        for index, call in enumerate(calls):
            setup.run_due(elapsed())
            n, ok = runner.run(index, call, clock)
            rows += n
            attempted += 1
            failed += not ok
        passes += 1
        if _window_full(elapsed(), cycle_start, seconds):
            break
    setup.finish()
    per_pass = len(calls)
    metrics = {
        "samples_per_s": rows / passes / _median_pass(clock.scaled, per_pass),
        "call_p50_s": _median_pass(clock.scaled, per_pass) / per_pass,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup.scaled),
    }
    raw = {"samples_per_s": rows / passes / _median_pass(clock.raw, per_pass),
           "call_p50_s": _median_pass(clock.raw, per_pass) / per_pass,
           "setup_s": statistics.median(setup.raw)}
    return metrics, attempted, failed, {"calls_timed": len(clock.raw), "rows": rows,
                                        "passes": passes, "raw": raw,
                                        "call_walls_s": clock.raw,
                                        "call_scaled_s": clock.scaled,
                                        "calibration_loops_s": clock.loops,
                                        "setup_launches_s": setup.raw,
                                        "setup_launches_scaled_s": setup.scaled}


def traced_run(runner, calls, seconds, span_path):
    """Alternate untraced and traced passes while they fit in ``seconds``."""
    import tracing

    plain, traced = Calibrated(), Calibrated()
    passes, attempted, failed = [], 0, 0
    first = None
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter() - start
        for index, call in enumerate(calls):
            _, ok = runner.run(index, call, plain)
            attempted += 1
            failed += not ok
        tracer = tracing.Tracer()
        info = {}
        for index, call in enumerate(calls):
            n, ok = runner.run(index, call, traced, tracer=tracer, call_id=index)
            info[index] = {"rows": n, "kind": _kind(call)}
            attempted += 1
            failed += not ok
        passes.append(tracing.layer_metrics(tracer.spans, info))
        first = first or tracer
        if _window_full(time.perf_counter() - start, cycle_start, seconds):
            break
    first.write(span_path)
    repeat = all(p[name] == passes[0][name] for p in passes for name in tracing.COUNT_METRICS)
    if not repeat:
        print("benchmark: call counts differ between traced passes", file=sys.stderr)
    # counts from the first traced pass, times as the median over passes
    metrics = {name: passes[0][name] if name in tracing.COUNT_METRICS
               else statistics.median(p[name] for p in passes) for name in passes[0]}
    metrics["bench.tracing_overhead"] = sum(traced.scaled) / sum(plain.scaled)
    return metrics, attempted, failed, {"traced_passes": len(passes), "counts_repeat": repeat}


def main(argv=None) -> int:
    args = _parse_args(argv)
    cpus = _pin_to_one_cpu()
    cli = _import_darboux()
    os.environ.pop("DARBOUX_EPS_SING", None)   # the program sees only the argv
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    if args.workload not in workloads.BUILDERS:
        raise SystemExit(f"benchmark: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.BUILDERS)}")
    size = "smoke" if args.smoke else "full"
    calls = workloads.make_calls(args.workload, args.seed, size)
    meta = _metadata(args.workload, args.seed, args.smoke)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"calls-{os.getpid()}"
    work_dir.mkdir()
    try:
        runner = Runner(cli, work_dir, reference)
        runner.run(0, calls[0], Calibrated())             # warm-up, not counted
        runner.failures.clear()
        runner.digests_matched = runner.outputs = 0
        if args.trace == 0:
            launches = 1 if args.smoke else SETUP_LAUNCHES
            metrics, attempted, failed, extra = timed_run(runner, calls, args.seconds,
                                                          launches, cpus)
            names = [m["name"] for m in spec["end_to_end"]]
        else:
            span_path = OUT_DIR / f"spans-{args.workload}.csv.gz"
            metrics, attempted, failed, extra = traced_run(
                runner, calls, args.seconds, span_path)
            extra["spans"] = str(span_path.relative_to(ROOT))
            names = [m["name"] for m in spec["per_layer"]]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    extra.update(outputs=runner.outputs, outputs_matching_seed_digests=runner.digests_matched,
                 error_rate=failed / attempted, failures=runner.failures[:20])
    for line in runner.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names}}
    (OUT_DIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, **result, "detail": extra}, indent=2) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} size={meta['size']}")
    for n in names:
        print(f"{n:40s} {metrics[n]:14.6g} {units[n]}")
    if args.trace == 0:
        print(f"{'  call_p50_s sample count':40s} {extra['calls_timed']:14d}")
        for n, value in extra["raw"].items():
            print(f"{'  raw wall-time ' + n:40s} {value:14.6g} {units[n]}")
    print(f"{'error_rate':40s} {failed / attempted:14.6g} ratio ({failed}/{attempted})")
    print(f"{'outputs matching seed-commit digests':40s} "
          f"{runner.digests_matched:>14d} of {runner.outputs}")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
