"""Generating isophotic curves on an implicit surface f(x, y, z) = 0.

The tangent is grad(f) x grad(g) with g = <grad f, d>/|grad f|: orthogonal
to grad(f) keeps the trace on the surface, orthogonal to grad(g) keeps the
normal angle constant.  Each RK4 step is followed by a Newton projection
back onto f = 0.
"""

import math

import numpy as np

import darboux
from darboux.trace import TraceConfig, find_seed, omega_coefficients, trace_isophote

torus = darboux.implicit_torus(2.0, 0.5)
d = np.array([0.0, 0.0, 1.0])
phi = math.pi / 3

seed = find_seed(torus, d, phi, (2.5, 0.0, 0.1))
print("seed:", seed, " |f|:", abs(torus.value(seed)))

config = TraceConfig(step=1e-3, max_length=5.0)
res = trace_isophote(torus, d, phi, seed, config)
print("termination:", res.termination)
print("max |f|          :", res.surface_residual.max())
print("max angle drift  :", np.abs(res.angle_dot - math.cos(phi)).max())
print("max |grad f . t| :", np.abs(res.grad_dot_t).max())
print("max |Omega . t|  :", np.abs(res.constraint_residual).max())

# The verification triple Omega = k_n d + tau_g (d x U) is orthogonal
# to the tangent along a correct isophote.
p, t = res.points[100], res.tangents[100]
print("Omega . t at a sample:", omega_coefficients(torus, d, p, t) @ t)

# Optional second projection keeps <U, d> pinned to cos(phi) as well.
tight = trace_isophote(torus, d, phi, seed,
                       TraceConfig(step=1e-2, max_length=2.0, project_isophote=True))
print("with isophote projection, drift:",
      np.abs(tight.angle_dot - math.cos(phi)).max())

# Expression-defined surfaces work the same way.
blob = darboux.surface.implicit_from_expression("x^4+y^4+z^4-1")
seed_b = find_seed(blob, d, math.pi / 4, (0.7, 0.2, 0.7))
res_b = trace_isophote(blob, d, math.pi / 4, seed_b, TraceConfig(step=1e-3, max_length=2.0))
print("quartic blob:", res_b.termination, "max |f|:", res_b.surface_residual.max())
