"""The benchmark's per-layer tracer wraps darboux functions and methods by
name (perfbench/tracing.py).  A rename in ``src/`` must fail here, not only
when ``perfbench/run.py --trace 1`` is run."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_resolves_on_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # Tracer.install reads owner.__dict__[attr]: an inherited or missing name fails there
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in tracing._targets()
               if not callable(owner.__dict__.get(attr))]
    assert missing == []
