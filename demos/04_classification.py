"""Classifying surface curves: slant-helix and isophotic characterizations.

A curve is a relatively normal-slant helix when its Darboux V field keeps a
constant angle to some fixed axis, and isophotic when the surface normal U
does.  Both properties are decided by the constancy of a scalar function of
the frame invariants, and the axis itself is recoverable from the frame
samples.
"""

import json
import math

import numpy as np

import darboux
from darboux.classify import (
    classify_report,
    mu_u_series,
    mu_v_series,
    recover_axis,
    theorem_functions,
)
from darboux.frames import ChartPath, CurveOnSurface, sample_frames

SQRT2 = math.sqrt(2.0)

path = ChartPath(
    lambda s: ((s / SQRT2, s / SQRT2), (1 / SQRT2, 1 / SQRT2), (0.0, 0.0), (0.0, 0.0)),
    (0.0, 4 * math.pi),
)
helix = CurveOnSurface(darboux.cylinder(1.0), chart_path=path)
grid = np.linspace(0.0, 4.0, 201)

# --- the two constancy measures ----------------------------------------------
mu_v = mu_v_series(helix, grid)   # constant <=> relatively normal-slant helix
mu_u = mu_u_series(helix, grid)   # constant <=> isophotic curve
print("mu_v:", mu_v.values[0], " (constant 1: N-slant helix)")
print("mu_u:", mu_u.values[0], " (constant 0: isophotic)")

# --- axis recovery -----------------------------------------------------------
data = sample_frames(helix, grid)
v_axis = recover_axis(data.V)
u_axis = recover_axis(data.U)
print("V axis:", v_axis.d, "angle:", math.degrees(v_axis.angle), "deg")
print("U axis:", u_axis.d, "angle:", math.degrees(u_axis.angle), "deg")

# --- the exponential-integral criterion (span{T,V} family) -------------------
tf = theorem_functions(helix, grid, family="TV")
print("isophote criterion:", tf.isophote_criterion.values[0], "= 1/sqrt(2)")

# --- one-call report ----------------------------------------------------------
report = classify_report(helix, grid)
print("\nflags   :", {k: v["value"] for k, v in report.flags.items()})
print("verdicts:", {k: v.get("is_constant") for k, v in report.verdicts.items()
                    if isinstance(v, dict) and "is_constant" in v})
print("\nfull report is JSON-ready:")
print(json.dumps(report.as_dict()["axes"], indent=2, sort_keys=True))
