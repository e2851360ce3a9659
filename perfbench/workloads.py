"""Workload generation: the seed picks angles and curve coefficients from
fixed grids, and the program only ever sees the generated argv.

Every parameter comes from a finite grid so that every input the benchmark
can generate has a recorded output digest and classification verdict in
``reference.json`` (see ``record_reference.py``).

Sizes are scaled down from the ROADMAP baseline inputs so that one call
lasts about a second on a 2-core host and a run holds enough calls for a
stable median; README.md gives the mapping.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

# Full-size and smoke-size parameters.  Each sphere trace is one closed
# circuit of length CIRCUIT at step 1e-3, whatever the angle: the radius is
# chosen so that r sin(phi) * 2 pi == CIRCUIT.
SIZES = {
    "full": {"circuit": 1.5, "torus_length": 1.5, "hi": 200, "lo": 20,
             "space": 100, "family_length": 0.05},
    "smoke": {"circuit": 0.06, "torus_length": 0.05, "hi": 12, "lo": 8,
              "space": 8, "family_length": 0.02},
}

STEP = 1e-3
SPHERE_ANGLES = range(40, 51)        # 45 +- 5 degrees
TORUS_ANGLES = range(55, 66)         # 60 +- 5 degrees
HELIX_SLOPES = tuple(round(0.8 + 0.05 * k, 2) for k in range(9))  # v = a s
TORUS_PATH_SLOPES = (2.0, 2.5, 3.0, 3.5, 4.0)                      # v = b s
SPACE_LATITUDES = tuple(round(0.3 + 0.05 * k, 2) for k in range(9))
FAMILY_STARTS = range(30, 41)        # --family A:A+30:8
FAMILY_COUNT = 8

TORUS_SPEC = "builtin:torus?R=2&r=0.5"
TORUS_EXPR_SPEC = "implicit:f=(x^2+y^2+z^2+3.75)^2-16*(x^2+y^2)"
TORUS_SEED = "2.5,0,0.1"


@dataclass(frozen=True)
class Call:
    """One ``darboux.cli.main`` invocation (``--out`` is appended at run time).

    ``check`` carries what the correctness gate needs to know about the
    input: the angle(s) traced, the implicit surface to recompute |f| on,
    whether the trace must close, and the expected row count (per file, for
    a trace that does not close).
    """

    argv: tuple[str, ...]
    ext: str
    check: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def key(self) -> str:
        """Canonical identity of the input, used to look up reference data."""
        return " ".join(self.argv)


def _full_length_rows(length: float) -> int:
    """Samples of a trace that runs its whole length, the seed included."""
    return round(length / STEP) + 1


def _sphere_radius(phi_deg: int, circuit: float) -> float:
    return circuit / (2.0 * math.pi * math.sin(math.radians(phi_deg)))


def _sphere_param_spec(r: float) -> str:
    half = math.pi / 2 - 1e-6   # the catalog sphere's pole margin
    return (f"param:x={r!r}*cos(v)*cos(u);y={r!r}*cos(v)*sin(u);z={r!r}*sin(v);"
            f"u={-math.pi!r},{math.pi!r};v={-half!r},{half!r};periodic=u")


def _trace_calls(size: dict, phi: int, psi: int, expr: bool) -> list[Call]:
    r = _sphere_radius(phi, size["circuit"])
    sphere = _sphere_param_spec(r) if expr else f"builtin:sphere?r={r!r}"
    torus = TORUS_EXPR_SPEC if expr else TORUS_SPEC
    sphere_call = Call(
        ("trace", "--surface", sphere, "--axis", "0,0,1", "--angle", str(phi),
         "--seed", f"0,{math.radians(90 - phi):.6f}",
         "--length", repr(size["circuit"] + 0.05), "--step", repr(STEP)),
        "csv", {"angles": [phi], "closed": True, "step": STEP})
    torus_call = Call(
        ("trace-implicit", "--surface", torus, "--axis", "0,0,1", "--angle", str(psi),
         "--seed", TORUS_SEED, "--length", repr(size["torus_length"]),
         "--step", repr(STEP)),
        "csv", {"angles": [psi], "implicit": torus, "step": STEP,
                "rows": _full_length_rows(size["torus_length"])})
    return [sphere_call, torus_call]


def _curve_call(command: str, surface: str, curve: str, samples: int) -> Call:
    return Call((command, "--surface", surface, "--curve", curve, "--samples", str(samples)),
                "json" if command == "classify" else "csv", {"rows": samples})


def _classify_frames_calls(size: dict, a: float, b: float, c: float) -> list[Call]:
    helix = ("builtin:cylinder?r=1", f"param:u=s;v={a!r}*s")
    torus_path = (TORUS_SPEC, f"param:u=s;v={b!r}*s")
    space = ("builtin:sphere?r=1",
             f"space:x=cos(s)*cos({c!r});y=sin(s)*cos({c!r});z=sin({c!r})")
    return [
        _curve_call("classify", *helix, size["hi"]),
        _curve_call("frames", *torus_path, size["hi"]),
        _curve_call("classify", *torus_path, size["lo"]),
        _curve_call("frames", *helix, size["lo"]),
        _curve_call("classify", *space, size["space"]),
    ]


def _family_calls(size: dict, lo: int) -> list[Call]:
    hi = lo + 30
    angles = np.linspace(lo, hi, FAMILY_COUNT).tolist()   # as the CLI spaces them
    return [Call(
        ("trace", "--surface", "builtin:sphere?r=1", "--axis", "0,0,1", "--angle", str(lo),
         "--seed", "0,0.785398", "--family", f"{lo}:{hi}:{FAMILY_COUNT}",
         "--length", repr(size["family_length"]), "--step", repr(STEP)),
        "csv", {"angles": angles, "family": True, "step": STEP,
                "rows": _full_length_rows(size["family_length"])})]


# workload -> (call-list builder, the grid each of its parameters is drawn from)
BUILDERS = {
    "trace-catalog": (lambda size, phi, psi: _trace_calls(size, phi, psi, expr=False),
                      (SPHERE_ANGLES, TORUS_ANGLES)),
    "trace-expr": (lambda size, phi, psi: _trace_calls(size, phi, psi, expr=True),
                   (SPHERE_ANGLES, TORUS_ANGLES)),
    "classify-frames": (_classify_frames_calls,
                        (HELIX_SLOPES, TORUS_PATH_SLOPES, SPACE_LATITUDES)),
    "family": (_family_calls, (FAMILY_STARTS,)),
}


def make_calls(workload: str, seed: int, size: str = "full") -> list[Call]:
    """The workload's call list for one seed (one pass over it is a cycle)."""
    build, grids = BUILDERS[workload]
    rng = random.Random(f"{workload}/{seed}")
    return build(SIZES[size], *(rng.choice(grid) for grid in grids))


def all_calls(workload: str, size: str = "full") -> list[Call]:
    """Every distinct call the workload can generate, over all seeds.

    Each call depends on one grid parameter only, so walking the grids side
    by side reaches every call."""
    build, grids = BUILDERS[workload]
    seen = {}
    for k in range(max(len(g) for g in grids)):
        for call in build(SIZES[size], *(g[min(k, len(g) - 1)] for g in grids)):
            seen.setdefault(call.key, call)
    return list(seen.values())


def surface_and_curve_specs(calls: list[Call]) -> list[dict]:
    """The specs a fresh interpreter parses when set-up time is measured."""
    specs = []
    for call in calls:
        args = dict(zip(call.argv[1::2], call.argv[2::2]))
        entry = {"surface": args["--surface"],
                 "implicit": call.command == "trace-implicit"
                 or args.get("--curve", "").startswith("space:")}
        if "--curve" in args:
            entry["curve"] = args["--curve"]
        specs.append(entry)
    return specs
