"""Darboux-frame invariants of surface curves: classification of relatively
normal-slant helices and isophotic curves, and isophote generation on
parametric and implicit surfaces."""

from . import classify, errors, expr, frames, surface, trace
from .classify import (
    AxisEstimate,
    CharacterizationSeries,
    ClassificationReport,
    ConstancyVerdict,
    classify_report,
    is_constant,
    mu_u_series,
    mu_v_series,
    position_decomposition,
    position_theorem_residual,
    plane_ode_residual,
    recover_axis,
    rectifying_check,
    slant_helix_series,
    theorem_functions,
)
from .errors import DarbouxError
from .frames import (
    ChartPath,
    CurveOnSurface,
    DarbouxFrame,
    FrenetFrame,
    ParamCurve,
    UnitSpeedCurve,
    darboux,
    frenet,
    normal_angle_series,
    resample_unit_speed,
    sample_frames,
    uniform_grid,
    unit_speed_chart_curve,
)
from .surface import (
    ChartJet,
    FirstForm,
    ImplicitSurface,
    ParametricSurface,
    cylinder,
    ellipsoid,
    first_form,
    helicoid,
    implicit_cylinder,
    implicit_plane,
    implicit_sphere,
    implicit_torus,
    monkey_saddle,
    normal_derivatives,
    parse_surface_spec,
    plane,
    project_to_implicit,
    sphere,
    torus,
    unit_normal,
)
from .trace import (
    TraceConfig,
    TraceResult,
    delta_coefficients,
    find_seed,
    isophote_direction_implicit,
    isophote_direction_parametric,
    omega_coefficients,
    trace_isophote,
)

__version__ = "0.1.0"
