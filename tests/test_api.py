"""The tolerance parameters of the public API.  A threshold that no caller
sets is a named module constant, not a keyword; these are the ones a
caller can set."""

import importlib
import inspect
import re

TOLERANCE = re.compile(r"eps|eps_\w+|\w+_tol|tol|axis_gap|dratio")

EPS_REG_OWNERS = ("ParametricSurface", "ImplicitSurface", "sphere", "cylinder", "plane",
                  "torus", "helicoid", "ellipsoid", "monkey_saddle", "implicit_sphere",
                  "implicit_cylinder", "implicit_plane", "implicit_torus")

SETTABLE = {
    "classify.ConstancyVerdict tol",  # the tolerance a verdict was made at
    "classify.is_constant tol",
    "classify.rectifying_from_scalars tol",
    "frames.CurveOnSurface on_surface_tol",
    *(f"surface.{name} eps_reg" for name in EPS_REG_OWNERS),
    "surface.project_to_implicit tol",
    "trace.TraceConfig closure_tol",
    "trace.TraceConfig eps_sing",
    "trace.TraceConfig projection_tol",
    "trace.TraceConfig seed_tol",
    "trace.find_seed projection_tol",
}


def _public_signatures():
    """(owner, signature) of every callable and class in a module's __all__,
    and of each public method a class defines."""
    for module_name in ("classify", "cli", "errors", "expr", "frames", "surface", "trace"):
        module = importlib.import_module(f"darboux.{module_name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            owners = [(name, obj)]
            if inspect.isclass(obj):
                owners += [(f"{name}.{attr}", getattr(obj, attr)) for attr in vars(obj)
                           if not attr.startswith("_") and callable(getattr(obj, attr))]
            for owner, fn in owners:
                if callable(fn):
                    yield f"{module_name}.{owner}", inspect.signature(fn)


def test_the_settable_tolerances_are_exactly_the_ones_callers_set():
    found = {f"{owner} {param}" for owner, signature in _public_signatures()
             for param in signature.parameters if TOLERANCE.fullmatch(param)}
    assert found == SETTABLE
