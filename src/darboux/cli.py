"""Command-line front end.

Subcommands: frames, classify, trace, trace-implicit, seed-find, catalog.
Domain failures (degenerate input, singular points, seeds off-level) exit
with code 2 and the module error verbatim on stderr; usage errors exit 1.
Angles are taken in degrees on the command line and converted to radians
internally.  Output formats are documented bit-exactly in docs/formats.md:
CSV, OBJ and seed-find fields are rendered with %.17g, each file through
one row template, and JSON by a dedicated writer that gives the bytes of
``json.dumps(payload, indent=2, sort_keys=True)`` while formatting each
list of scalars once, so identical inputs give identical bytes.

A subcommand imports the modules it runs inside its own function, so a
launch loads only those: a trace loads no ``frames`` or ``classify``, and
``classify`` and ``frames`` load no ``trace``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import surface as _surface
from .errors import DarbouxError

TRACE_COLUMNS = ("s,x,y,z,u,v,tx,ty,tz,kg,kn,tg,angle_dot,"
                 "res_constraint,res_unit_speed")
FRAMES_COLUMNS = "s,x,y,z,tx,ty,tz,vx,vy,vz,ux,uy,uz,kg,kn,tg"


def _trace_table(result) -> tuple[np.ndarray, tuple[str, ...]]:
    """Every sample of a trace.TraceResult as one row of floats in
    TRACE_COLUMNS order, and the columns the rows leave out: u and v on an
    implicit trace, which has no chart."""
    chart = () if result.chart is None else (result.chart,)
    table = np.column_stack((result.s, result.points, *chart, result.tangents, result.kg,
                             result.kn, result.tg, result.angle_dot,
                             result.constraint_residual, result.unit_speed_residual))
    return table, () if chart else ("u", "v")


def _frames_table(curve, grid) -> np.ndarray:
    """The frames of curve sampled on grid, every sample as one row of
    floats in FRAMES_COLUMNS order."""
    from . import frames as _frames

    data = _frames.sample_frames(curve, grid)
    return np.column_stack((data.s, data.gamma, data.T, data.V, data.U,
                            data.kg, data.kn, data.tg))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _parse_floats(text: str, n: int, label: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != n:
        raise DarbouxError(f"{label} needs {n} comma-separated numbers, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise DarbouxError(f"bad number in {label}: {text!r}") from None


def _axis(text: str) -> np.ndarray:
    d = np.array(_parse_floats(text, 3, "--axis"))
    if not np.isfinite(d).all():
        raise DarbouxError(f"--axis must be finite, got {text!r}")
    n = _surface.norm3(d.tolist())
    if n == 0.0:
        raise DarbouxError("--axis must be nonzero")
    return d / n


def _angle_rad(deg: float) -> float:
    if not 0.0 <= deg <= 180.0:
        raise DarbouxError(f"--angle must be in [0, 180] degrees, got {deg!r}")
    return math.radians(deg)


def _positive(value: float, label: str) -> float:
    if not (math.isfinite(value) and value > 0.0):
        raise DarbouxError(f"{label} must be a positive finite number, got {value!r}")
    return value


def _nonnegative(value: float, label: str) -> float:
    if not (math.isfinite(value) and value >= 0.0):
        raise DarbouxError(f"{label} must be a finite number >= 0, got {value!r}")
    return value


def _grid(curve, samples: int) -> np.ndarray:
    from . import frames as _frames

    if samples < 2:
        raise DarbouxError(f"--samples must be at least 2, got {samples}")
    return _frames.uniform_grid(*curve.s_range, samples)


def _curve_and_grid(args):
    """--curve on --surface (a space: curve on its implicit form) and its --samples grid."""
    surface = _surface.parse_surface_spec(args.surface, implicit=args.curve.startswith("space:"))
    curve = build_curve(surface, args.curve)
    return curve, _grid(curve, args.samples)


def _family_angles(text: str) -> np.ndarray:
    """Degrees of ``--family A:B:N``: N >= 1 angles from A to B, each in [0, 180]."""
    parts = text.split(":")
    if len(parts) != 3:
        raise DarbouxError(f"--family needs A:B:N, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise DarbouxError(f"bad number in --family: {text!r}") from None
    if count < 1:
        raise DarbouxError(f"--family needs N >= 1 angles, got {text!r}")
    for deg in (lo, hi):
        _angle_rad(deg)
    return np.linspace(lo, hi, count)


def _write(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise DarbouxError(f"cannot write {path}: {exc.strerror or exc}") from None


# ---------------------------------------------------------------------------
# Curve specs: param:u=<expr in s>;v=<expr in s>[;s=<lo>,<hi>]
#              space:x=..;y=..;z=..[;s=<lo>,<hi>]


CURVE_FIELDS = {"param": ("u", "v", "s"), "space": ("x", "y", "z", "s")}  # all but s required


def build_curve(surface, spec: str):
    from . import frames as _frames

    if ":" not in spec:
        raise DarbouxError(f"curve spec needs a 'param:' or 'space:' prefix: {spec!r}")
    kind, rest = spec.split(":", 1)
    if kind not in CURVE_FIELDS:
        raise DarbouxError(f"unknown curve spec kind {kind!r}")
    fields = _surface._split_fields(rest, CURVE_FIELDS[kind])
    for key in CURVE_FIELDS[kind][:-1]:
        if key not in fields:
            raise DarbouxError(f"{kind} curve spec missing {key}=...: {spec!r}")
    s_range = _surface._parse_range(fields["s"]) if "s" in fields else (0.0, 2.0 * math.pi)
    if kind == "param":
        if not isinstance(surface, _surface.ParametricSurface):
            raise DarbouxError("param: curves need a parametric surface")
        path = _frames.ChartPath.from_expressions(fields["u"], fields["v"], s_range)
        return _frames.unit_speed_chart_curve(surface, path)
    if not isinstance(surface, _surface.ImplicitSurface):
        raise DarbouxError("space: curves need an implicit surface")
    raw = _frames.ParamCurve.from_expressions(fields["x"], fields["y"], fields["z"], s_range)
    curve = _frames.resample_unit_speed(raw)
    return _frames.CurveOnSurface(surface, space_curve=curve)


# ---------------------------------------------------------------------------
# Output writers


def _csv(columns: str, table: np.ndarray, blank: tuple[str, ...] = ()) -> str:
    """The header line, then one line per row of table through one %.17g
    row template; the columns named in blank, which table has no column
    for, are empty fields."""
    row = ",".join("" if name in blank else "%.17g" for name in columns.split(",")) + "\n"
    return columns + "\n" + (row * len(table)) % tuple(table.ravel().tolist())


_INF = float("inf")
_quote = json.encoder.encode_basestring_ascii
_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))


def _float(x: float) -> str:
    """x as json spells it: float.__repr__, or NaN, Infinity, -Infinity."""
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _scalar(x) -> str:
    """A JSON scalar in json's spelling, checked in json's order; TypeError
    for a value json cannot serialize."""
    if isinstance(x, str):
        return _quote(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        return _float(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _value(obj, level: int, memo: dict) -> str:
    """obj at indent level, in the bytes json.dumps(indent=2, sort_keys=True)
    writes.  A list or tuple is formatted once per level: memo maps
    (id, level) to its text, so a list object shared by several keys (the
    report's s column) is formatted once."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = "\n" + "  " * (level + 1)
        return "{" + inner + ("," + inner).join([
            _quote(key if isinstance(key, str) else _scalar(key)) + ": "
            + _value(value, level + 1, memo)
            for key, value in sorted(obj.items())]) + "\n" + "  " * level + "}"
    if not isinstance(obj, (list, tuple)):
        return _scalar(obj)
    if not obj:
        return "[]"
    text = memo.get((id(obj), level))
    if text is None:
        inner = "\n" + "  " * (level + 1)
        sep = "," + inner
        kinds = set(map(type, obj))
        if kinds == {float}:
            body = sep.join(map(float.__repr__, obj))
            if "n" in body:  # nan or inf, which json spells NaN/Infinity
                body = sep.join(map(_float, obj))
        elif kinds == {bool}:
            body = sep.join(["true" if x else "false" for x in obj])
        elif kinds <= _SCALAR_TYPES:
            body = sep.join(map(_scalar, obj))
        else:
            body = sep.join([_value(x, level + 1, memo) for x in obj])
        text = memo[(id(obj), level)] = "[" + inner + body + "\n" + "  " * level + "]"
    return text


def _json(payload) -> str:
    """json.dumps(payload, indent=2, sort_keys=True) + "\\n", byte for byte."""
    return _value(payload, 0, {}) + "\n"


def trace_csv(result) -> str:
    return _csv(TRACE_COLUMNS, *_trace_table(result))


def trace_json(result, surface_name: str) -> str:
    table, blank = _trace_table(result)
    samples = table.tolist()
    if blank:  # the implicit trace's u and v, columns 4 and 5, are null
        for row in samples:
            row[4:4] = (None, None)
    return _json({
        "kind": "trace",
        "surface": surface_name,
        "axis": result.d.tolist(),
        "angle_deg": math.degrees(result.phi),
        "termination": result.termination,
        "columns": TRACE_COLUMNS.split(","),
        "samples": samples,
    })


def trace_obj(result) -> str:
    vertices = ("v %.17g %.17g %.17g\n" * result.n) % tuple(result.points.ravel().tolist())
    indices = list(range(1, result.n + 1))
    if result.closed:
        indices.append(1)
    return vertices + "l " + " ".join(map(str, indices)) + "\n"


def frames_csv(c, grid) -> str:
    return _csv(FRAMES_COLUMNS, _frames_table(c, grid))


def frames_json(c, grid) -> str:
    return _json({
        "kind": "frames",
        "columns": FRAMES_COLUMNS.split(","),
        "samples": _frames_table(c, grid).tolist(),
    })


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_trace(args, implicit: bool) -> int:
    from . import trace as _trace

    surface = _surface.parse_surface_spec(args.surface, implicit=implicit)
    d = _axis(args.axis)
    phi = _angle_rad(args.angle)
    # only trace-implicit projects, so only it takes the projection options
    projection = ({"projection_tol": _positive(args.project_tol, "--project-tol"),
                   "project_isophote": args.project_isophote} if implicit else {})
    step, length = _positive(args.step, "--step"), _positive(args.length, "--length")
    closure_tol = (None if args.closure_tol is None
                   else _positive(args.closure_tol, "--closure-tol"))
    # checked before TraceConfig, whose own check raises ValueError; without
    # the flag TraceConfig keeps its default
    eps_sing = ({} if args.eps_sing is None
                else {"eps_sing": _nonnegative(args.eps_sing, "--eps-sing")})
    config = _trace.TraceConfig(step=step, max_length=length, branch=args.branch,
                                closure_tol=closure_tol, **eps_sing, **projection)
    guess = _parse_floats(args.seed, 3 if implicit else 2, "--seed")

    if args.family:
        angles = _family_angles(args.family)
        if args.out is None:
            raise DarbouxError("--family requires --out (one file per angle)")
        root, ext = os.path.splitext(args.out)
        phis, paths = [math.radians(a) for a in angles], [f"{root}_deg{a:g}{ext}" for a in angles]
    else:
        phis, paths = [phi], [args.out]
    # the CLI treats --seed as a guess: each angle snaps it onto its exact level
    results, error = _trace._sweep(surface, d, phis, guess, config, snap=True)
    for result, path in zip(results, paths):
        if args.format == "csv":
            _write(path, trace_csv(result))
        elif args.format == "json":
            _write(path, trace_json(result, surface.name))
        else:
            _write(path, trace_obj(result))
    if error is not None:
        raise error
    return 0


def _cmd_seed_find(args) -> int:
    from . import trace as _trace

    surface = _surface.parse_surface_spec(args.surface, implicit=args.implicit)
    d = _axis(args.axis)
    phi = _angle_rad(args.angle)
    n = 3 if isinstance(surface, _surface.ImplicitSurface) else 2
    guess = _parse_floats(args.guess, n, "--guess")
    seed = _trace.find_seed(surface, d, phi, guess)
    values = np.atleast_1d(np.asarray(seed, dtype=float)).tolist()
    text = " ".join(map("%.17g".__mod__, values)) + "\n"
    _write(args.out, text)
    return 0


def _cmd_classify(args) -> int:
    from . import classify as _classify

    if not (math.isfinite(args.c_const) and args.c_const != 0.0):
        raise DarbouxError(f"--c-const must be finite and nonzero, got {args.c_const!r}")
    tol = None if args.tol is None else _nonnegative(args.tol, "--tol")
    curve, grid = _curve_and_grid(args)
    report = _classify.classify_report(curve, grid, constancy=tol, c_const=args.c_const)
    _write(args.out, _json(report.as_dict()))
    return 0


def _cmd_frames(args) -> int:
    curve, grid = _curve_and_grid(args)
    if args.format == "json":
        _write(args.out, frames_json(curve, grid))
    else:
        _write(args.out, frames_csv(curve, grid))
    return 0


def _cmd_catalog(args) -> int:
    lines = ["builtin surfaces (use as builtin:<name>?<params>):"]
    for name, (parametric_ctor, implicit_ctor) in _surface.CATALOG.items():
        s = parametric_ctor()
        forms = "parametric" + (", implicit" if implicit_ctor else "")
        lines.append(
            f"  {name:14s} {forms:22s} u in [{s.u_range[0]:g}, {s.u_range[1]:g}]"
            f"{' (periodic)' if s.periodic_u else ''}, "
            f"v in [{s.v_range[0]:g}, {s.v_range[1]:g}]"
            f"{' (periodic)' if s.periodic_v else ''}"
        )
    _write(args.out, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# Argument wiring


def _add_common_output(p):
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def _add_curve_args(p):
    p.add_argument("--surface", required=True)
    p.add_argument("--curve", required=True, help="param:u=..;v=..[;s=lo,hi] or space:x=..;y=..;z=..")
    p.add_argument("--samples", type=int, default=200)


def _add_trace_args(p, implicit: bool):
    p.add_argument("--surface", required=True, help="surface spec string")
    p.add_argument("--axis", required=True, help="axis d as x,y,z (normalized)")
    p.add_argument("--angle", type=float, required=True, help="angle in degrees [0, 180]")
    p.add_argument("--seed", required=True,
                   help="seed guess: u,v (parametric) or x,y,z (implicit); snapped to the level")
    p.add_argument("--step", type=float, default=1e-3, help="arclength step (default 1e-3)")
    p.add_argument("--length", type=float, default=10.0, help="max arclength (default 10)")
    p.add_argument("--branch", choices=("plus", "minus"), default="plus")
    p.add_argument("--closure-tol", type=float, default=None,
                   help="closure detection radius (default 2*step)")
    p.add_argument("--eps-sing", type=float, default=None,
                   help="singularity threshold (default 1e-10)")
    if implicit:
        p.add_argument("--project-tol", type=float, default=1e-12,
                       help="projection tolerance")
        p.add_argument("--project-isophote", action="store_true",
                       help="also Newton-project onto the isophote level each step")
    p.add_argument("--family", default=None, metavar="A:B:N",
                   help="sweep N angles from A to B degrees, traced one after another")
    p.add_argument("--format", choices=("csv", "json", "obj"), default="csv")
    _add_common_output(p)


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and then shared: parse_args
    fills a new namespace on each call, so calls do not share state."""
    parser = _Parser(prog="darboux",
                     description="Darboux-frame invariants, curve classification, "
                                 "and isophote tracing on surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("frames", help="Darboux frames along a curve")
    _add_curve_args(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common_output(p)

    p = sub.add_parser("classify", help="classification report (JSON)")
    _add_curve_args(p)
    p.add_argument("--c-const", type=float, default=1.0,
                   help="free constant in the position coefficients (nonzero)")
    p.add_argument("--tol", type=float, default=None,
                   help="constancy tolerance (default 1e-6 analytic, 1e-3 sampled)")
    _add_common_output(p)

    p = sub.add_parser("trace", help="trace an isophote on a parametric surface")
    _add_trace_args(p, implicit=False)

    p = sub.add_parser("trace-implicit", help="trace an isophote on an implicit surface")
    _add_trace_args(p, implicit=True)

    p = sub.add_parser("seed-find", help="locate a point on the isophote level set")
    p.add_argument("--surface", required=True)
    p.add_argument("--axis", required=True)
    p.add_argument("--angle", type=float, required=True)
    p.add_argument("--guess", required=True, help="u,v (parametric) or x,y,z (implicit)")
    p.add_argument("--implicit", action="store_true",
                   help="resolve a builtin surface to its implicit form")
    _add_common_output(p)

    p = sub.add_parser("catalog", help="list builtin surfaces")
    _add_common_output(p)

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if args.command == "trace":
            return _cmd_trace(args, implicit=False)
        if args.command == "trace-implicit":
            return _cmd_trace(args, implicit=True)
        if args.command == "seed-find":
            return _cmd_seed_find(args)
        if args.command == "classify":
            return _cmd_classify(args)
        if args.command == "frames":
            return _cmd_frames(args)
        return _cmd_catalog(args)  # the parser admits no other command
    except DarbouxError as exc:
        sys.stderr.write(f"{exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
