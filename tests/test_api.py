"""The tolerance parameters of the public API.  A threshold that no caller
sets is a named module constant, not a keyword; these are the ones a
caller can set.  And the package's own names, which resolve on first
access to their modules' objects."""

import importlib
import inspect
import json
import re

import pytest

from conftest import fresh_interpreter

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


def test_every_package_name_is_its_owning_modules():
    """In a fresh interpreter, each name of darboux.__all__ resolves on first
    access to the object its defining module holds: a submodule to itself,
    anything else to the attribute of the module named by its __module__."""
    probe = "\n".join([
        "import json, sys, types, darboux",
        "wrong = []",
        "for name in darboux.__all__:",
        "    obj = getattr(darboux, name)",
        "    if isinstance(obj, types.ModuleType):",
        "        expected = sys.modules[f'darboux.{name}']",
        "    else:",
        "        expected = getattr(sys.modules[obj.__module__], name)",
        "    if obj is not expected:",
        "        wrong.append(name)",
        "print(json.dumps(wrong))",
    ])
    assert json.loads(fresh_interpreter(probe)) == []


def test_star_import_binds_every_package_name():
    # the star binds frames.darboux over the package's own name
    probe = ("import json, darboux as package\nfrom darboux import *\n"
             "print(json.dumps([n for n in package.__all__"
             " if globals().get(n) is not getattr(package, n)]))")
    assert json.loads(fresh_interpreter(probe)) == []


def test_package_names_are_listed_and_unknown_names_raise():
    import darboux

    assert len(set(darboux.__all__)) == len(darboux.__all__)
    assert set(darboux.__all__) <= set(dir(darboux))
    assert {"ChartPath", "trace", "DarbouxError", "trace_isophote"} <= set(darboux.__all__)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        darboux.no_such_name
