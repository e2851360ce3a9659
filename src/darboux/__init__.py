"""Darboux-frame invariants of surface curves: classification of relatively
normal-slant helices and isophotic curves, and isophote generation on
parametric and implicit surfaces.

The submodules and the public names below load on first access (a module
``__getattr__``, PEP 562): ``import darboux`` loads none of them, and
``darboux.X`` imports the module that defines X and keeps X here.
"""

import sys

# module -> the public names it gives the package
_EXPORTS = {
    "classify": (
        "AxisEstimate",
        "CharacterizationSeries",
        "ClassificationReport",
        "ConstancyVerdict",
        "classify_report",
        "is_constant",
        "mu_u_series",
        "mu_v_series",
        "position_decomposition",
        "position_theorem_residual",
        "plane_ode_residual",
        "recover_axis",
        "rectifying_check",
        "slant_helix_series",
        "theorem_functions",
    ),
    "errors": ("DarbouxError",),
    "expr": (),
    "frames": (
        "ChartPath",
        "CurveOnSurface",
        "DarbouxFrame",
        "FrenetFrame",
        "ParamCurve",
        "UnitSpeedCurve",
        "darboux",
        "frenet",
        "normal_angle_series",
        "resample_unit_speed",
        "sample_frames",
        "uniform_grid",
        "unit_speed_chart_curve",
    ),
    "surface": (
        "ChartJet",
        "FirstForm",
        "ImplicitSurface",
        "ParametricSurface",
        "cylinder",
        "ellipsoid",
        "first_form",
        "helicoid",
        "implicit_cylinder",
        "implicit_plane",
        "implicit_sphere",
        "implicit_torus",
        "monkey_saddle",
        "normal_derivatives",
        "parse_surface_spec",
        "plane",
        "project_to_implicit",
        "sphere",
        "torus",
        "unit_normal",
    ),
    "trace": (
        "TraceConfig",
        "TraceResult",
        "delta_coefficients",
        "find_seed",
        "isophote_direction_implicit",
        "isophote_direction_parametric",
        "omega_coefficients",
        "trace_isophote",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_OWNER]
__version__ = "0.1.0"


def _submodule(name: str):
    """darboux.<name>, imported by the builtin __import__, whose imports
    ``python -X importtime`` lists (importlib.import_module's are not)."""
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    if name in _EXPORTS:
        value = _submodule(name)
    elif name in _OWNER:
        value = getattr(_submodule(_OWNER[name]), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
