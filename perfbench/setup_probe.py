"""Set-up probe, run in a fresh interpreter: import darboux and darboux.cli,
then parse every surface and curve spec of a workload.

    python3 perfbench/setup_probe.py <repo root> '<json list of specs>'

Each spec is {"surface": str, "implicit": bool, "curve": str (optional)}.
Curve specs are split with the same field and range parsers as
``darboux.cli.build_curve`` and parsed into their expression-backed path or
space curve; the arclength table is not built (that is per-call work).
"""

import json
import math
import sys
from pathlib import Path


def main(root: str, specs_json: str) -> int:
    sys.path.insert(0, str(Path(root) / "src"))
    import darboux
    import darboux.cli  # noqa: F401  (the import is part of what is timed)
    from darboux.surface import _parse_range, _split_fields

    for spec in json.loads(specs_json):
        darboux.surface.parse_surface_spec(spec["surface"], implicit=spec["implicit"])
        if "curve" not in spec:
            continue
        kind, rest = spec["curve"].split(":", 1)
        fields = _split_fields(rest)
        s_range = _parse_range(fields["s"]) if "s" in fields else (0.0, 2.0 * math.pi)
        if kind == "param":
            darboux.ChartPath.from_expressions(fields["u"], fields["v"], s_range)
        else:
            darboux.ParamCurve.from_expressions(fields["x"], fields["y"], fields["z"], s_range)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
