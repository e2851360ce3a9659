"""Record the reference data the benchmark compares against: the sha256 of
every output and the verdicts of every classification report, for every
call any seed can generate, at full and smoke size.

    python3 perfbench/record_reference.py

Run it at the commit whose outputs are the reference (the seed commit of
the benchmark); it rewrites perfbench/reference.json.  Every recorded call
must also pass the rest of the correctness gate.
"""

import hashlib
import json
import os
import shutil
import sys

import run


def main() -> int:
    cli = run._import_darboux()
    sys.path.insert(0, str(run.BENCH_DIR))
    import gate
    import workloads

    run.OUT_DIR.mkdir(exist_ok=True)
    work_dir = run.OUT_DIR / f"record-{os.getpid()}"
    work_dir.mkdir()
    reference, bad = {}, []
    try:
        runner = run.Runner(cli, work_dir, reference)
        for size in workloads.SIZES:
            for workload in workloads.BUILDERS:
                for call in workloads.all_calls(workload, size):
                    out = work_dir / f"c0.{call.ext}"
                    if cli.main([*call.argv, "--out", str(out)]) != 0:
                        bad.append(f"{call.key}: nonzero exit")
                        continue
                    raw = [path.read_bytes() for path, _ in runner.output_files(out, call)]
                    entry = {"sha256": [hashlib.sha256(b).hexdigest() for b in raw]}
                    if call.command == "classify":
                        entry["verdicts"] = gate.verdict_summary(json.loads(raw[0]))
                    reference[call.key] = entry
                    _, problems = runner.check(out, call)
                    bad += [f"{call.key}: {p}" for p in problems]
                    print(f"{size:5s} {workload:15s} {len(reference):4d}", flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    (run.BENCH_DIR / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")
    for line in bad:
        print(f"FAILED {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
