"""Compare a git revision with the working tree: alternating benchmark pairs
and the output digests of every benchmark input.

    python tools/ab_pairs.py [--rev HEAD] [--pairs 5] [--workloads NAME,...]
                             [--seed 1] [--no-bench] [--no-digests]

Run from the repository root.  The revision is extracted with
``git archive`` into a temporary directory; the working tree is run as it
stands, uncommitted edits included.

Benchmark: for each workload (default: every workload ``perfbench``
defines), ``perfbench/run.py --trace 0`` runs for ``BENCHMARK.json``'s
``run_seconds`` in the revision's checkout and in the working tree, one
after the other, for ``--pairs`` pairs (pair i uses seed ``--seed`` + i,
and the side that runs first alternates).  Printed per end-to-end metric
of ``BENCHMARK.json``: each side's values, their medians, the revision's
quartiles, the median ratio (tree / revision) and the pairs the tree won.

Digests: every ``workloads.all_calls`` argv of the working tree's
``perfbench``, full and smoke size, runs in-process through
``darboux.cli.main`` in one fresh interpreter per side, each call writing
into an empty directory.  A call's digest is the sha256 of its standard
output, standard error and output files; the script prints the calls whose
exit code or digest differ between the sides.

Exits 1 when a digest differs or a benchmark call failed.  Only the
standard library is used here; the runs need what ``perfbench`` needs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads as wl  # noqa: E402  (perfbench's call lists)


def extract(rev: str, dest: Path) -> Path:
    """The tree of ``rev`` written under ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def bench_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last JSON line of one ``perfbench/run.py --trace 0`` run in ``root``."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"ab_pairs: benchmark failed in {root}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def bench(base: Path, workloads, pairs: int, seed: int) -> bool:
    """Run and print the alternating pairs; False if a call failed."""
    seconds = BENCHMARK["run_seconds"]
    clean = True
    for workload in workloads:
        runs = {"rev": [], "tree": []}
        for i in range(pairs):
            order = [("rev", base), ("tree", ROOT)]
            for side, root in order if i % 2 == 0 else order[::-1]:
                out = bench_once(root, workload, seed + i, seconds)
                clean &= out["failed"] == 0
                runs[side].append({k: v["value"] for k, v in out["metrics"].items()})
        print(f"{workload}: {pairs} pairs of {seconds:g} s, seeds {seed}-{seed + pairs - 1}")
        for m in BENCHMARK["end_to_end"]:
            name, higher = m["name"], m["better"] == "higher"
            a = [r[name] for r in runs["rev"]]
            b = [r[name] for r in runs["tree"]]
            wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
            lo, hi = quartiles(a)
            ma, mb = statistics.median(a), statistics.median(b)
            print(f"  {name}: rev {' / '.join(f'{x:.4g}' for x in a)}"
                  f" -> tree {' / '.join(f'{x:.4g}' for x in b)}")
            print(f"    median {ma:.4g} -> {mb:.4g} ({mb / ma:.3f}x), rev quartiles "
                  f"{lo:.4g}-{hi:.4g}, tree better in {wins} of {len(a)}")
    return clean


def digest_worker(root: str) -> None:
    """Run the argv lists read from stdin with ``root``'s darboux and print
    one [exit code, sha256] per call as JSON."""
    sys.path.insert(0, str(Path(root) / "src"))
    os.environ.pop("DARBOUX_EPS_SING", None)
    import darboux.cli

    results = []
    for argv in json.load(sys.stdin):
        with tempfile.TemporaryDirectory() as tmp:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = darboux.cli.main([*argv, "--out", str(Path(tmp) / "out.dat")])
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 1
            h = hashlib.sha256(out.getvalue().encode() + b"\0" + err.getvalue().encode())
            for path in sorted(Path(tmp).iterdir()):
                h.update(b"\0" + path.name.encode() + b"\0" + path.read_bytes())
        results.append([rc, h.hexdigest()])
    json.dump(results, sys.stdout)


def digests(base: Path, workloads) -> bool:
    """Compare every benchmark argv's exit code and digest; True if equal."""
    argvs = [list(call.argv) for w in workloads for size in ("full", "smoke")
             for call in wl.all_calls(w, size)]
    sides = {}
    for side, root in (("rev", base), ("tree", ROOT)):
        proc = subprocess.run([sys.executable, __file__, "--digest-worker", str(root)],
                              input=json.dumps(argvs), capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"ab_pairs: digest run failed in {root}:\n{proc.stderr}")
        sides[side] = json.loads(proc.stdout)
    differ = [argv for argv, a, b in zip(argvs, sides["rev"], sides["tree"]) if a != b]
    for argv in differ:
        print("  differs:", " ".join(argv))
    print(f"digests: {len(argvs) - len(differ)} of {len(argvs)} argv equal"
          " (exit code and sha256)")
    return not differ


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--rev", default="HEAD")
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument("--workloads", default=",".join(wl.BUILDERS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--no-bench", action="store_true")
    p.add_argument("--no-digests", action="store_true")
    p.add_argument("--digest-worker", metavar="ROOT", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.digest_worker:
        digest_worker(args.digest_worker)
        return 0
    workloads = args.workloads.split(",")
    ok = True
    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as tmp:
        base = extract(args.rev, Path(tmp))
        if not args.no_digests:
            ok &= digests(base, workloads)
        if not args.no_bench:
            ok &= bench(base, workloads, args.pairs, args.seed)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
