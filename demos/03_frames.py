"""Darboux frames along surface curves.

The running example is the unit-speed helix u = v = s/sqrt(2) on the unit
cylinder: its frame scalars are constants (k_g, k_n, tau_g) = (0, -1/2, 1/2),
which makes every later classification statement checkable by hand.
"""

import math

import numpy as np

import darboux
from darboux.frames import (
    ChartPath,
    CurveOnSurface,
    ParamCurve,
    darboux as darboux_frame,
    frenet,
    normal_angle_series,
    resample_unit_speed,
    unit_speed_chart_curve,
)

SQRT2 = math.sqrt(2.0)

# --- helix on the cylinder, already unit speed ------------------------------
# A chart path is its jet ((u, v), (u', v'), (u'', v''), (u''', v''')) at s.
path = ChartPath(
    lambda s: ((s / SQRT2, s / SQRT2), (1 / SQRT2, 1 / SQRT2), (0.0, 0.0), (0.0, 0.0)),
    (0.0, 4 * math.pi),
)
helix = CurveOnSurface(darboux.cylinder(1.0), chart_path=path)

fr = darboux_frame(helix, 1.0)
print("T  =", fr.T)
print("V  =", fr.V)
print("U  =", fr.U)
print("k_g, k_n, tau_g =", fr.kg, fr.kn, fr.tg)

ff = frenet(helix, 1.0)
print("kappa, tau      =", ff.kappa, ff.tau)

# The angle between the principal normal and V stays on one branch, and the
# geodesic-torsion relation tau_g = tau - theta' closes to machine precision.
grid = np.linspace(0.0, 4.0, 101)
series = normal_angle_series(helix, grid)
print("theta (constant -pi/2 for a geodesic):", series.theta[:3])
print("max |tau_g - (tau - theta')|:", np.abs(series.r3).max())

# --- arbitrary parametrizations are reparametrized to unit speed ------------
raw = ParamCurve(
    lambda t: np.array([math.cos(t), math.sin(t), t]),
    lambda t: np.array([-math.sin(t), math.cos(t), 1.0]),
    lambda t: np.array([-math.cos(t), -math.sin(t), 0.0]),
    lambda t: np.array([math.sin(t), -math.cos(t), 0.0]),
    (0.0, 2 * math.pi),
)
unit = resample_unit_speed(raw, 128)
print("helix arclength:", unit.length, "=", 2 * math.pi * SQRT2)

# Chart paths reparametrize the same way (here speed sqrt(2) -> unit):
chart = ChartPath.from_expressions("s", "s", (0.0, 2 * math.pi))
on_cyl = unit_speed_chart_curve(darboux.cylinder(1.0), chart, n=128)
print("reparametrized frame:", darboux_frame(on_cyl, 1.0).kn, "= -1/2")
