"""Shared geometric fixtures: the two closed-form curves used throughout.

helix_curve: the unit-speed helix u = v = s/sqrt(2) on the unit cylinder
(outward normal).  Closed forms: k_g = 0, k_n = -1/2, tau_g = 1/2,
kappa = tau = 1/2, V = (sin(u), -cos(u), 1)/sqrt(2).

latitude_curve: the latitude circle v0 = pi/4 on the unit sphere, u = s/cos(v0).
Closed forms: k_g = tan(v0) = 1, k_n = -1, tau_g = 0, kappa = sqrt(2), tau = 0,
U = gamma (outward).

cone_curve: the chart path u = 1 + 0.3 t + 0.1 t^2, v = 0.7 t (t in [0, 2])
on the cone x = u cos(v), y = u sin(v), z = u, brought to unit speed.  The
cone's normal keeps 45 degrees to e_z and its position vector lies in the
tangent plane, so the curve is isophotic (mu_u = +1) and lies in span{T, V},
with k_g, k_n and tau_g all at least 0.16 in absolute value.
``make_space_cone_curve`` gives the same curve as a space curve on the
implicit cone x^2 + y^2 - z^2 = 0, whose normal grad f/|grad f| is the
chart's negated, so there mu_u = -1.

fresh_interpreter runs a probe in a new Python process that imports this
checkout's package, for what only a fresh process shows (the modules a
launch loads).
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import darboux
from darboux.frames import (
    ChartPath,
    CurveOnSurface,
    ParamCurve,
    resample_unit_speed,
    unit_speed_chart_curve,
)
from darboux.surface import implicit_from_expression, parametric_from_expressions

SQRT2 = math.sqrt(2.0)
V0 = math.pi / 4


def fresh_interpreter(probe: str) -> str:
    """stdout of ``python -c probe`` with this checkout's package first."""
    src = os.path.dirname(os.path.dirname(darboux.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True, timeout=120).stdout


def constant_speed_path(cu, cv, du, dv, s_range):
    """Chart path with constant derivative (du, dv) from point (cu, cv)."""
    return ChartPath(lambda s: ((cu + du * s, cv + dv * s), (du, dv), (0.0, 0.0), (0.0, 0.0)),
                     s_range)


def make_helix_curve(s_max=4 * math.pi):
    path = constant_speed_path(0.0, 0.0, 1 / SQRT2, 1 / SQRT2, (0.0, s_max))
    return CurveOnSurface(darboux.cylinder(1.0), chart_path=path)


def make_latitude_curve():
    c = math.cos(V0)
    path = constant_speed_path(0.0, V0, 1 / c, 0.0, (0.0, 2 * math.pi * c))
    return CurveOnSurface(darboux.sphere(1.0), chart_path=path)


def make_line_on_plane(s_max=5.0):
    path = constant_speed_path(0.0, 0.0, 1.0, 0.0, (0.0, s_max))
    return CurveOnSurface(darboux.plane(), chart_path=path)


def make_circle_on_plane():
    """Origin-centered unit circle on the plane z = 0."""
    path = ChartPath(
        lambda s: ((math.cos(s), math.sin(s)), (-math.sin(s), math.cos(s)),
                   (-math.cos(s), -math.sin(s)), (math.sin(s), -math.cos(s))),
        (0.0, 2 * math.pi),
    )
    return CurveOnSurface(darboux.plane(), chart_path=path)


def make_latitude_on_implicit_sphere():
    """The same latitude circle as a space curve on the implicit unit sphere."""
    c = math.cos(V0)
    z0 = math.sin(V0)

    def jet(s):
        return (np.array([c * math.cos(s / c), c * math.sin(s / c), z0]),
                np.array([-math.sin(s / c), math.cos(s / c), 0.0]),
                np.array([-math.cos(s / c) / c, -math.sin(s / c) / c, 0.0]),
                np.array([math.sin(s / c) / c**2, -math.cos(s / c) / c**2, 0.0]))

    curve = darboux.UnitSpeedCurve(jet, 2 * math.pi * c)
    return CurveOnSurface(darboux.implicit_sphere(1.0), space_curve=curve)


def make_cone_curve():
    cone = parametric_from_expressions("u*cos(v)", "u*sin(v)", "u", (0.1, 10.0),
                                       (-math.pi, math.pi), periodic_v=True)
    path = ChartPath.from_expressions("1+0.3*s+0.1*s*s", "0.7*s", (0.0, 2.0))
    return unit_speed_chart_curve(cone, path, 512)


def make_space_cone_curve():
    r = "(1+0.3*s+0.1*s*s)"
    raw = ParamCurve.from_expressions(f"{r}*cos(0.7*s)", f"{r}*sin(0.7*s)", r, (0.0, 2.0))
    return CurveOnSurface(implicit_from_expression("x^2+y^2-z^2"),
                          space_curve=resample_unit_speed(raw))


def make_unit_helix_space_curve(s_max=4 * math.pi):
    """The b=1 helix as a bare unit-speed space curve."""

    def jet(s):
        t = s / SQRT2
        return (np.array([math.cos(t), math.sin(t), t]),
                np.array([-math.sin(t), math.cos(t), 1.0]) / SQRT2,
                np.array([-math.cos(t), -math.sin(t), 0.0]) / 2.0,
                np.array([math.sin(t), -math.cos(t), 0.0]) / (2.0 * SQRT2))

    return darboux.UnitSpeedCurve(jet, s_max)


@pytest.fixture
def helix_curve():
    return make_helix_curve()


@pytest.fixture
def latitude_curve():
    return make_latitude_curve()


@pytest.fixture
def helix_grid():
    return np.linspace(0.0, 4.0, 201)


@pytest.fixture
def latitude_grid():
    return np.linspace(0.0, 2 * math.pi * math.cos(V0), 201)


@pytest.fixture
def cone_curve():
    return make_cone_curve()
