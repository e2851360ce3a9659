"""Surfaces: chart jets, fundamental forms, normals, and implicit geometry.

Every surface is expression text: the catalog fills its parameters into
templates, and a surface written out as expressions gets the same jets from
the same symbolic differentiation, bit for bit.
"""

import math

import numpy as np

import darboux
from darboux.surface import parametric_from_expressions, parse_surface_spec

# --- catalog surface: the unit sphere --------------------------------------
sphere = darboux.sphere(1.0)
jet = sphere.chart_jet(0.3, 0.4)
print("sigma      :", jet.sigma)
print("sigma_u    :", jet.sigma_u)
print("sigma_v    :", jet.sigma_v)

ff = sphere.first_form(0.3, 0.4)
print("E, F, G    :", ff.E, ff.F, ff.G, " (sphere: cos^2 v, 0, 1)")
print("normal     :", sphere.unit_normal(0.3, 0.4), "= the point itself")

# Analytic derivatives of the unit normal drive the isophote machinery.
U_u, U_v = sphere.normal_derivatives(0.3, 0.4)
print("U_u == sigma_u:", np.allclose(U_u, jet.sigma_u))

# --- the same sphere from expression text ----------------------------------
twin = parametric_from_expressions(
    "cos(v)*cos(u)", "cos(v)*sin(u)", "sin(v)",
    (-math.pi, math.pi), sphere.v_range, periodic_u=True)
print("catalog and expression jets agree:",
      np.array_equal(jet.sigma_uu, twin.chart_jet(0.3, 0.4).sigma_uu))

# --- implicit surfaces ------------------------------------------------------
torus = darboux.implicit_torus(2.0, 0.5)
p = np.array([2.5, 0.0, 0.0])
f, grad, hess = torus.jet(p)
print("torus f(p) :", f, " grad:", grad)

# Newton projection keeps traced points on the level set.
off = p + np.array([1e-3, 2e-3, -1e-3])
back = darboux.project_to_implicit(torus, off, 1e-12)
print("projected |f|:", abs(torus.value(back)))

# --- spec strings (the CLI speaks these) ------------------------------------
s1 = parse_surface_spec("builtin:torus?R=2&r=0.5")
s2 = parse_surface_spec("param:x=v*cos(u);y=v*sin(u);z=u;u=-3,3;v=-2,2")
s3 = parse_surface_spec("implicit:f=x^2+y^2+z^2-4")
print("parsed:", s1.name, "|", s2.name, "|", s3.name)
