"""Correctness gate applied to the output of every call.

A call passes only if its outputs meet the acceptance tolerances:

- traces: max |angle_dot - cos(phi)| <= 1e-8; on implicit surfaces |f| <=
  1e-9 at every output point, recomputed through the surface's public
  ``value``; a sphere circuit closes (last point within 2 step of the first);
  a trace that does not close has round(length / step) + 1 rows, so one that
  stops early (the tracer ends on a domain or singularity error and still
  writes what it has) fails;
- classify: the report validates against docs/report.schema.json and its
  verdicts equal those recorded for the same input at the seed commit;
- frames: the row count equals --samples and T, V, U are orthonormal to 1e-9.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

ANGLE_TOL = 1e-8
LEVEL_TOL = 1e-9
ORTHO_TOL = 1e-9


def read_csv(text: str) -> tuple[list[str], np.ndarray]:
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [[float(x) if x else math.nan for x in line.split(",")] for line in lines[1:]]
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


def check_trace(text: str, phi_deg: float, step: float, closed: bool = False,
                implicit_surface=None, rows: int | None = None) -> list[str]:
    """Problems found in one trace CSV (empty when it passes).  ``rows`` is
    the expected sample count of a trace that runs its full length."""
    header, data = read_csv(text)
    if len(data) < 2:
        return [f"trace has {len(data)} samples"]
    if rows is not None and len(data) != rows:
        return [f"trace has {len(data)} samples, expected {rows}"]
    col = {name: data[:, k] for k, name in enumerate(header)}
    problems = []
    drift = float(np.max(np.abs(col["angle_dot"] - math.cos(math.radians(phi_deg)))))
    if not drift <= ANGLE_TOL:
        problems.append(f"angle drift {drift:.3g} > {ANGLE_TOL:g}")
    points = np.column_stack([col["x"], col["y"], col["z"]])
    if implicit_surface is not None:
        level = max(abs(implicit_surface.value(p)) for p in points)
        if not level <= LEVEL_TOL:
            problems.append(f"max |f| {level:.3g} > {LEVEL_TOL:g}")
    if closed:
        gap = float(np.linalg.norm(points[-1] - points[0]))
        if not gap <= 2.0 * step:
            problems.append(f"circuit not closed: gap {gap:.3g} > {2.0 * step:g}")
    return problems


def check_frames(text: str, samples: int) -> list[str]:
    header, data = read_csv(text)
    problems = []
    if len(data) != samples:
        problems.append(f"{len(data)} rows, expected {samples}")
    k = header.index("tx")
    frame = data[:, k:k + 9].reshape(-1, 3, 3)          # rows T, V, U
    gram = np.einsum("nij,nkj->nik", frame, frame)
    err = float(np.max(np.abs(gram - np.eye(3)))) if len(frame) else math.inf
    if not err <= ORTHO_TOL:
        problems.append(f"frame not orthonormal: {err:.3g} > {ORTHO_TOL:g}")
    return problems


def verdict_summary(report: dict) -> dict:
    """The boolean outcomes of a classification report: what a refactor
    must not change, free of last-ulp noise in the measured values."""
    out = {}
    for name, verdict in sorted(report["verdicts"].items()):
        if name == "cross_checks":
            out[name] = [[c["name"], c["hypotheses_met"], c.get("consistent")]
                         for c in verdict]
        elif "error" in verdict:
            out[name] = "error"
        else:
            out[name] = verdict.get("is_constant", verdict.get("is_rectifying"))
    out["flags"] = {name: flag["value"] for name, flag in sorted(report["flags"].items())}
    return out


class ReportChecker:
    def __init__(self, schema_path: Path):
        import jsonschema

        schema = json.loads(schema_path.read_text())
        self._validator = jsonschema.Draft202012Validator(schema)

    def check(self, text: str, expected_verdicts) -> list[str]:
        report = json.loads(text)
        problems = [f"schema: {e.message}" for e in self._validator.iter_errors(report)]
        if problems:
            return problems[:3]
        if expected_verdicts is None:
            return ["no recorded verdicts for this input"]
        if verdict_summary(report) != expected_verdicts:
            problems.append("verdicts differ from the seed commit's")
        return problems
