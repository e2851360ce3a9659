"""Parametric and implicit surfaces with analytic jets to third order.

The public functions and methods take and return plain numpy arrays of
shape (3,), float64.  Each wraps a float kernel that works on tuples of
Python floats (``chart_point``, ``level_point`` and the ``_``-prefixed
functions below), which is what the isophote tracer and the frame sampler
run on.

Every surface the package builds is defined once, as expression text:
the catalog (sphere, cylinder, plane, torus, helicoid, ellipsoid, monkey
saddle; implicit sphere, cylinder, plane, torus) fills its parameters into
templates, and ``param:``/``implicit:`` specs give the text directly.  Its
jets come from symbolic differentiation, compiled once per distinct text
and process (``expr.compile``), and the compiled functions' columns give
the array tangents of the arclength speeds, the jets of a chart trace's
samples and the chart and level points of a frame grid.

Orientation conventions: the parametric unit normal is sigma_u x sigma_v
normalized; the implicit unit normal is grad(f)/|grad(f)|.  Sign-sensitive
quantities (normal curvature, geodesic torsion) inherit these choices.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple
from urllib.parse import unquote

import numpy as np

from . import expr as _expr
from .errors import (
    ARITHMETIC_ERRORS,
    DarbouxError,
    OutOfDomainError,
    ProjectionError,
    RegularityError,
)

__all__ = [
    "dot3",
    "FirstForm",
    "ChartJet",
    "ParametricSurface",
    "ImplicitSurface",
    "first_form",
    "unit_normal",
    "normal_derivatives",
    "project_to_implicit",
    "sphere",
    "cylinder",
    "plane",
    "torus",
    "helicoid",
    "ellipsoid",
    "monkey_saddle",
    "implicit_sphere",
    "implicit_cylinder",
    "implicit_plane",
    "implicit_torus",
    "parse_surface_spec",
    "CATALOG",
]

EPS_REG_DEFAULT = 1e-10
# Chart poles (e.g. sphere v = +-pi/2) are excluded by shrinking the domain.
POLE_MARGIN = 1e-6
ON_SURFACE_TOL = 1e-9  # a point of an implicit surface has |f| <= ON_SURFACE_TOL

# What evaluating a chart, a level set, a path or a curve can raise: the
# domain errors, and ZeroDivisionError/OverflowError/ValueError from float
# arithmetic and math.  A grid reading that raises one of these is redone
# point by point.
_EVALUATION_ERRORS = (DarbouxError, *ARITHMETIC_ERRORS)


# ---------------------------------------------------------------------------
# Float kernels.  A 3-vector is a sequence of three Python floats (a tuple,
# or the list an array's tolist() gives); a 3x3 matrix is three such rows.
# Every inner product is dot3's left-to-right sum, so the bits depend on
# neither the numpy build nor the BLAS kernel the CPU selects.
#
# The same kernels are the package's only arithmetic on columns: they take
# (N,) float64 columns in place of the floats (the frame sampler, the
# trace diagnostics, the arclength speeds), and an (N, 3) array
# passes as its .T view, three columns.  Elementwise + - * / and np.sqrt
# round as Python's float operations do, and their powers go through _pow
# (or come from the caller, as n**3 does into _normal_partials), which
# keeps Python's float power lane by lane.


def dot3(a, b) -> float:
    """a . b of two 3-vectors summed left to right, (a0 b0 + a1 b1) + a2 b2,
    each product and each sum rounded once (no fused multiply-add)."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return a0 * b0 + a1 * b1 + a2 * b2


def norm3(a) -> float:
    """|a| of a 3-vector: the _sqrt of dot3(a, a)."""
    return _sqrt(dot3(a, a))


def _sqrt(x):
    """The square root of a float, by math.sqrt (ValueError where negative),
    or of an (N,) column, where math.sqrt raises TypeError, by np.sqrt (nan
    where negative); both are correctly rounded."""
    try:
        return math.sqrt(x)
    except TypeError:
        return np.sqrt(x)


def _pow(x, k, overflow: float = math.nan):
    """x**k with Python's float power, on an (N,) column lane by lane
    (np.power differs from it on some lanes).  A column lane whose power
    overflows, where Python raises OverflowError, reads ``overflow``: nan
    by default, which every later product, sum and quotient keeps, so the
    lane stays visible."""
    if not isinstance(x, np.ndarray):
        return x**k
    lanes = x.tolist()
    try:
        return np.fromiter(map(pow, lanes, itertools.repeat(k)), float, len(lanes))
    except OverflowError:
        return np.array([_pow_or(a, k, overflow) for a in lanes], dtype=float)


def _pow_or(a: float, k, overflow: float) -> float:
    try:
        return a**k
    except OverflowError:
        return overflow


def _column(values, shape=None) -> np.ndarray:
    """np.array(values, dtype=float) for a column of N equally shaped
    floats or nested sequences of floats (of the given shape, else the
    first one's), read in one flat pass (np.array's own scan of nested
    tuples is about 2.5 times slower)."""
    if shape is None:
        shape = np.shape(values[0])
    flat = values
    for _ in shape:
        flat = itertools.chain.from_iterable(flat)
    return np.fromiter(flat, float, len(values) * math.prod(shape)).reshape(-1, *shape)


def _stacked(values):
    """N lane values as (N,) float columns, nested as one value is: a value
    of one shape (the first lane's np.shape) read in one flat pass, an
    irregular nest (level's (grad f, H)) part by part."""
    try:
        shape = np.shape(values[0])
    except ValueError:  # an irregular nest
        return tuple(_stacked([v[k] for v in values]) for k in range(len(values[0])))
    return _unstack(np.ascontiguousarray(np.moveaxis(_column(values, shape), 0, -1)))


def _unstack(a):
    """An (..., N) array as nested tuples of its (N,) rows."""
    return a if a.ndim == 1 else tuple(map(_unstack, a))


def _lanes(fn, columns) -> list:
    """fn at each lane of the (N,) columns, on the lane's Python floats."""
    return list(map(fn, *(x.tolist() for x in columns)))


def _compiled_columns(columns, *fns) -> list:
    """[fn at each lane of the (N,) columns, for each fn of fns], nested as
    fn's value is and with its bits lane by lane: one pass of a compiled
    expression function's columns (see expr.compile), else, where fn has no
    columns (a Python callable) or they decline, fn on each lane's floats
    (_lanes), where a lane that raises raises."""
    out = []
    for fn in fns:
        evaluate = getattr(fn, "columns", None)
        value = None if evaluate is None else evaluate(*columns)
        out.append(_stacked(_lanes(fn, columns)) if value is None else value)
    return out


def _cross(a, b) -> tuple:
    """a x b of two 3-vectors, with np.cross's products in its order."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def _cross_sum(a, b, c, d) -> tuple:
    """a x b + c x d."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    c0, c1, c2 = c
    d0, d1, d2 = d
    return (a1 * b2 - a2 * b1 + (c1 * d2 - c2 * d1),
            a2 * b0 - a0 * b2 + (c2 * d0 - c0 * d2),
            a0 * b1 - a1 * b0 + (c0 * d1 - c1 * d0))


def _lincomb(a: float, x, b: float, y) -> tuple:
    """a x + b y for scalars a, b and 3-vectors x, y."""
    x0, x1, x2 = x
    y0, y1, y2 = y
    return (a * x0 + b * y0, a * x1 + b * y1, a * x2 + b * y2)


def _div3(x, s: float) -> tuple:
    """x / s for a 3-vector x."""
    x0, x1, x2 = x
    return (x0 / s, x1 / s, x2 / s)


def _matvec(A, x) -> tuple:
    """A x for a 3x3 matrix A given by its rows."""
    r0, r1, r2 = A
    return (dot3(r0, x), dot3(r1, x), dot3(r2, x))


def _floats(a) -> list:
    """A 3-vector, a 3x3 matrix or a jet of 3-vectors given as an array or
    nested sequences, as (nested) lists of Python floats."""
    return np.asarray(a, dtype=float).tolist()


def _point(p) -> tuple:
    """A point given as an array or a sequence, as a 3-tuple of floats."""
    return tuple(_floats(p))


def _unit_second_derivative(w, n, n2, n3, w_a, w_b, w_ab) -> tuple:
    """d_b d_a (w/|w|) at |w| = n, with n2 = n**2 and n3 = n**3: the
    quotient rule expanded once more."""
    na = dot3(w, w_a) / n
    nb = dot3(w, w_b) / n
    nab = (dot3(w_b, w_a) + dot3(w, w_ab) - na * nb) / n
    return tuple([ab / n - (a * nb + b * na + x * nab) / n2 + 2.0 * x * na * nb / n3
                  for x, a, b, ab in zip(w, w_a, w_b, w_ab)])


def _chart_w(jet) -> tuple:
    """(w, |w|) for w = sigma_u x sigma_v of a chart jet."""
    w = _cross(jet[1], jet[2])
    return w, norm3(w)


def _first_form(jet) -> tuple:
    """(E, F, G) = (sigma_u.sigma_u, sigma_u.sigma_v, sigma_v.sigma_v)."""
    su, sv = jet[1], jet[2]
    return dot3(su, su), dot3(su, sv), dot3(sv, sv)


def _normal_partials(jet, w, n, n3) -> tuple:
    """(U_u, U_v) of U = w/|w|, w = sigma_u x sigma_v with |w| = n and
    n3 = n**3: the quotient rule d_a (w/|w|) = w_a/n - w (w . w_a)/n^3 on
    w_u = sigma_uu x sigma_v + (sigma_u x sigma_uv) and
    w_v = sigma_uv x sigma_v + (sigma_u x sigma_vv).

    Straight-line code with the operations of _cross_sum and dot3 in their
    order.  The caller passes the power in, so the trace's hot path takes
    no type test for it."""
    _, (a0, a1, a2), (b0, b1, b2), (p0, p1, p2), (q0, q1, q2), (r0, r1, r2) = jet
    w0, w1, w2 = w
    x0 = p1 * b2 - p2 * b1 + (a1 * q2 - a2 * q1)
    x1 = p2 * b0 - p0 * b2 + (a2 * q0 - a0 * q2)
    x2 = p0 * b1 - p1 * b0 + (a0 * q1 - a1 * q0)
    y0 = q1 * b2 - q2 * b1 + (a1 * r2 - a2 * r1)
    y1 = q2 * b0 - q0 * b2 + (a2 * r0 - a0 * r2)
    y2 = q0 * b1 - q1 * b0 + (a0 * r1 - a1 * r0)
    k = w0 * x0 + w1 * x1 + w2 * x2
    m = w0 * y0 + w1 * y1 + w2 * y2
    return ((x0 / n - w0 * k / n3, x1 / n - w1 * k / n3, x2 / n - w2 * k / n3),
            (y0 / n - w0 * m / n3, y1 / n - w1 * m / n3, y2 / n - w2 * m / n3))


def _normal_second_partials(jet, third, w, n, n3) -> tuple:
    """(U_uu, U_uv, U_vv): the quotient rule applied twice to
    w = sigma_u x sigma_v, |w| = n, n3 = n**3, with the third partials of
    the chart."""
    _, su, sv, suu, suv, svv = jet
    suuu, suuv, suvv, svvv = third
    c = _cross
    w_u = _cross_sum(suu, sv, su, suv)
    w_v = _cross_sum(suv, sv, su, svv)
    w_uu = [a + 2.0 * b + d for a, b, d in zip(c(suuu, sv), c(suu, suv), c(su, suuv))]
    w_uv = [a + b + d + e for a, b, d, e in zip(c(suuv, sv), c(suu, svv), c(suv, suv),
                                                c(su, suvv))]
    w_vv = [a + 2.0 * b + d for a, b, d in zip(c(suvv, sv), c(suv, svv), c(su, svvv))]
    n2 = _pow(n, 2)
    return (_unit_second_derivative(w, n, n2, n3, w_u, w_u, w_uu),
            _unit_second_derivative(w, n, n2, n3, w_u, w_v, w_uv),
            _unit_second_derivative(w, n, n2, n3, w_v, w_v, w_vv))


def _normal_jacobian(g, n, H) -> tuple:
    """Rows of d/dp (g/|g|) = H/n - g (H g)^T/n^3 from g = grad f, n = |g|
    and the (symmetric) Hessian H given by its rows."""
    Hg = _matvec(H, g)
    n3 = _pow(n, 3)
    return tuple(tuple([h / n - gi * k / n3 for h, k in zip(row, Hg)])
                 for gi, row in zip(g, H))


def _project(surface: "ImplicitSurface", p, tol: float = 1e-12) -> tuple:
    """project_to_implicit on a 3-tuple of floats: the projected point, where
    the last check has read f."""
    for _ in range(8):
        f = surface._f(*p)
        if abs(f) <= tol:
            return p
        g0, g1, g2 = surface._level(*p)[0]
        gg = g0 * g0 + g1 * g1 + g2 * g2
        if gg <= surface.eps_reg**2:
            raise RegularityError(f"{surface.name}: vanishing gradient near {p!r}")
        x, y, z = p
        p = (x - f * g0 / gg, y - f * g1 / gg, z - f * g2 / gg)
    f = surface._f(*p)
    if abs(f) <= tol:
        return p
    raise ProjectionError(
        f"{surface.name}: projection did not reach |f| <= {tol:g} in 8 iterations"
    )


@dataclass(frozen=True)
class FirstForm:
    """First-fundamental-form coefficients E, F, G of a chart."""

    E: float
    F: float
    G: float

    @property
    def det(self) -> float:
        return self.E * self.G - self.F * self.F

    @property
    def area_element(self) -> float:
        return math.sqrt(self.det)


class ChartJet(NamedTuple):
    """Chart map value and partials to second order at one (u, v), in the
    order of the six 3-vectors a float kernel's jet holds."""

    sigma: np.ndarray
    sigma_u: np.ndarray
    sigma_v: np.ndarray
    sigma_uu: np.ndarray
    sigma_uv: np.ndarray
    sigma_vv: np.ndarray


class ParametricSurface:
    """Chart map sigma(u, v) with analytic partials.

    ``jet_fn(u, v)`` returns the six ChartJet vectors and ``jet3_fn(u, v)``
    the four third partials (uuu, uuv, uvv, vvv) used for analytic
    derivatives of frame scalars, each a 3-vector (a tuple of floats, the
    form the float kernels read, or an array).  Where ``jet_fn`` has the
    ``columns`` of an ``expr.compile`` function, ``tangents_many``, a chart
    trace's diagnostics and the frame sampler (with ``jet3_fn``'s) read the
    jets of many lanes from one pass of them; otherwise, and where they
    decline, the jet is evaluated once per lane.  Domain is a rectangle
    with optional periodic wrapping per parameter.
    """

    def __init__(
        self,
        name: str,
        jet_fn: Callable,
        u_range: tuple[float, float],
        v_range: tuple[float, float],
        periodic_u: bool = False,
        periodic_v: bool = False,
        *,
        jet3_fn: Callable,
        eps_reg: float = EPS_REG_DEFAULT,
    ):
        self.name = name
        self._jet_fn = jet_fn
        self._jet3_fn = jet3_fn
        self.u_range = (float(u_range[0]), float(u_range[1]))
        self.v_range = (float(v_range[0]), float(v_range[1]))
        self.periodic_u = bool(periodic_u)
        self.periodic_v = bool(periodic_v)
        self.eps_reg = float(eps_reg)

    def __repr__(self):
        return f"ParametricSurface({self.name!r})"

    def wrap(self, u: float, v: float) -> tuple[float, float]:
        """Wrap periodic parameters into range, (t - lo) % (hi - lo) + lo;
        raise if outside a non-periodic range (u is checked first)."""
        lo, hi = self.u_range
        if self.periodic_u:
            u = (u - lo) % (hi - lo) + lo
        elif u < lo or u > hi:
            raise self._outside("u", u, lo, hi)
        lo, hi = self.v_range
        if self.periodic_v:
            v = (v - lo) % (hi - lo) + lo
        elif v < lo or v > hi:
            raise self._outside("v", v, lo, hi)
        return u, v

    def _outside(self, label, t, lo, hi) -> OutOfDomainError:
        return OutOfDomainError(
            f"{self.name}: parameter {label}={float(t):g} outside [{lo:g}, {hi:g}]"
        )

    def chart_point(self, u: float, v: float):
        """The float kernel of chart_jet: (jet, w, |w|) at (u, v), with jet
        the six 3-vectors of jet_fn and w = sigma_u x sigma_v.  Raises
        OutOfDomainError off the chart and RegularityError where
        |w| <= eps_reg."""
        return self._chart_point(*self.wrap(u, v))

    def _chart_point(self, u: float, v: float):
        """chart_point at an already wrapped (u, v)."""
        jet = self._jet_fn(u, v)
        w, n = _chart_w(jet)
        if n <= self.eps_reg:
            raise self._irregular(u, v)
        return jet, w, n

    def _irregular(self, u, v) -> RegularityError:
        """The error of a point where |sigma_u x sigma_v| <= eps_reg."""
        return RegularityError(f"{self.name}: |sigma_u x sigma_v| <= {self.eps_reg:g} "
                               f"at (u, v)=({float(u):g}, {float(v):g})")

    def chart_jet(self, u: float, v: float) -> ChartJet:
        return ChartJet(*(np.array(a, dtype=float) for a in self.chart_point(u, v)[0]))

    def tangents_many(self, u, v):
        """(sigma_u, sigma_v) at each lane of the (N,) arrays u, v, as two
        (N, 3) arrays with chart_jet's bits.  Raises chart_jet's error for
        the first lane that chart_jet would reject."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        with np.errstate(all="ignore"):  # numpy warns on nan and infinite lanes
            uw, vw, outside = self._wrap_many(u, v)
            try:
                jet = None if outside.any() else _compiled_columns((uw, vw), self._jet_fn)[0]
            except _EVALUATION_ERRORS:
                jet = None
            if jet is None or (norm3(_cross(jet[1], jet[2])) <= self.eps_reg).any():
                # chart_point raises the first failing lane's own error
                for a, b in zip(u.tolist(), v.tolist()):
                    self.chart_point(a, b)
        return np.column_stack(jet[1]), np.column_stack(jet[2])

    def _point_columns(self, u, v):
        """(chart_point's (jet, w, |w|), _jet3's partials, mask of the lanes
        outside a non-periodic range or where |w| <= eps_reg) at each lane
        of the (N,) arrays u, v (_compiled_columns at the wrapped lanes)."""
        uw, vw, outside = self._wrap_many(u, v)
        jet, third = _compiled_columns((uw, vw), self._jet_fn, self._jet3_fn)
        w, n = _chart_w(jet)
        return (jet, w, n), third, outside | (n <= self.eps_reg)

    def _wrap_many(self, u: np.ndarray, v: np.ndarray):
        """wrap for (N,) arrays, with a mask of the lanes outside a
        non-periodic range in place of the error; np.remainder has the bits
        of Python's %."""
        outside = np.zeros(len(u), dtype=bool)
        wrapped = []
        for t, (lo, hi), periodic in ((u, self.u_range, self.periodic_u),
                                      (v, self.v_range, self.periodic_v)):
            if periodic:
                t = np.remainder(t - lo, hi - lo) + lo
            else:
                outside |= (t < lo) | (t > hi)
            wrapped.append(t)
        return wrapped[0], wrapped[1], outside

    def jet3(self, u: float, v: float):
        """Third partials (sigma_uuu, sigma_uuv, sigma_uvv, sigma_vvv)."""
        return tuple(np.array(a, dtype=float) for a in self._jet3(u, v))

    def _jet3(self, u: float, v: float):
        """The float kernel of jet3: the four 3-vectors of jet3_fn."""
        return self._jet3_fn(*self.wrap(u, v))

    def first_form(self, u: float, v: float) -> FirstForm:
        return FirstForm(*_first_form(self.chart_point(u, v)[0]))

    def unit_normal(self, u: float, v: float) -> np.ndarray:
        """U = w/|w| at (u, v); chart_point has checked |w| against eps_reg."""
        _, w, n = self.chart_point(u, v)
        return np.array(_div3(w, n))

    def normal_derivatives(self, u: float, v: float):
        return normal_derivatives(self, u, v)

    def normal_second_derivatives(self, u: float, v: float):
        """Second partials (U_uu, U_uv, U_vv) of the unit normal: the
        quotient rule applied twice to w = sigma_u x sigma_v."""
        third = self._jet3(u, v)
        jet, w, n = self.chart_point(u, v)
        return tuple(np.array(a) for a in _normal_second_partials(jet, third, w, n, n**3))


class ImplicitSurface:
    """Level set f(x, y, z) = 0 with analytic partials to third order.

    ``f(x, y, z)``, ``level(x, y, z)`` and ``third(x, y, z)`` return f,
    (gradient, Hessian by rows) and the Hessians of df/dx, df/dy, df/dz, in
    Python floats (the form the float kernels read) or arrays.  The frame
    sampler reads a grid's level points from one pass of each one's
    ``columns`` (an ``expr.compile`` function's), else, where it has none or
    they decline, lane by lane."""

    def __init__(
        self,
        name: str,
        f: Callable,
        level: Callable,
        eps_reg: float = EPS_REG_DEFAULT,
        *,
        third: Callable,
    ):
        self.name = name
        self._f = f
        self._level = level
        self._third = third
        self.eps_reg = float(eps_reg)

    def __repr__(self):
        return f"ImplicitSurface({self.name!r})"

    def value(self, p: np.ndarray) -> float:
        return float(self._f(*_point(p)))

    def gradient(self, p: np.ndarray) -> np.ndarray:
        return np.array(self._level(*_point(p))[0], dtype=float)

    def hessian(self, p: np.ndarray) -> np.ndarray:
        return np.array(self._level(*_point(p))[1], dtype=float)

    def jet(self, p: np.ndarray):
        """(f, grad f, Hessian) at p, level evaluated once."""
        p = _point(p)
        f = float(self._f(*p))
        g, H = self._level(*p)
        return f, np.array(g, dtype=float), np.array(H, dtype=float)

    def level_point(self, p):
        """The float kernel of the normal: (grad f, |grad f|, H) at the
        3-tuple p.  Raises RegularityError where |grad f| <= eps_reg."""
        g, H = self._level(*p)
        n = norm3(g)
        if n <= self.eps_reg:
            raise self._irregular(p)
        return g, n, H

    def _irregular(self, p) -> RegularityError:
        """The error of a point where |grad f| <= eps_reg."""
        return RegularityError(f"{self.name}: |grad f| <= {self.eps_reg:g} at {p!r}")

    def _level_columns(self, x, y, z):
        """(f, level_point's (grad f, |grad f|, H), third partials, mask of
        the lanes where |grad f| <= eps_reg) at each lane of the (N,) arrays
        x, y, z (_compiled_columns)."""
        f, (g, H), third = _compiled_columns((x, y, z), self._f, self._level, self._third)
        n = norm3(g)
        return f, (g, n, H), third, n <= self.eps_reg

    def unit_normal(self, p: np.ndarray) -> np.ndarray:
        g, n, _ = self.level_point(_point(p))
        return np.array(_div3(g, n))

    def normal_jacobian(self, p: np.ndarray) -> np.ndarray:
        """d/dp of grad(f)/|grad(f)| as a 3x3 matrix."""
        return np.array(_normal_jacobian(*self.level_point(_point(p))))


# ---------------------------------------------------------------------------
# Operations on evaluated jets (callers evaluate a point once and pass it
# down).  Each wraps its float kernel.


def first_form(jet: ChartJet) -> FirstForm:
    """E = sigma_u.sigma_u, F = sigma_u.sigma_v, G = sigma_v.sigma_v."""
    return FirstForm(*_first_form(_floats(jet)))


def unit_normal(jet: ChartJet) -> np.ndarray:
    """sigma_u x sigma_v, normalized (orientation fixed by chart order).  A
    bare jet has no surface, so the regularity threshold is the default
    eps_reg."""
    w, n = _chart_w(_floats(jet))
    if n <= EPS_REG_DEFAULT:
        raise RegularityError(f"|sigma_u x sigma_v| = {n:g} below regularity threshold")
    return np.array(_div3(w, n))


def normal_derivatives(surface: ParametricSurface, u: float, v: float):
    """Analytic partials (U_u, U_v) of the unit normal at (u, v): the
    quotient rule on w = sigma_u x sigma_v."""
    jet, w, n = surface.chart_point(u, v)
    return tuple(np.array(a) for a in _normal_partials(jet, w, n, n**3))


def project_to_implicit(surface: ImplicitSurface, p: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Newton-project p onto f = 0 along grad f: p <- p - f grad/|grad|^2.

    At most 8 iterations; raises ProjectionError on non-convergence and
    RegularityError on a vanishing gradient.
    """
    return np.array(_project(surface, _point(p), tol))


def deriv_uniform(values: np.ndarray, h: float) -> np.ndarray:
    """First derivative on a uniform grid: 5-point central stencil in the
    interior (O(h^4)), 4th-order one-sided stencils at the edges."""
    f = np.asarray(values, dtype=float)
    if len(f) < 5:
        return np.gradient(f, h, axis=0)
    out = np.empty_like(f)
    out[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)
    out[0] = (-25.0 * f[0] + 48.0 * f[1] - 36.0 * f[2] + 16.0 * f[3] - 3.0 * f[4]) / (12.0 * h)
    out[1] = (-3.0 * f[0] - 10.0 * f[1] + 18.0 * f[2] - 6.0 * f[3] + f[4]) / (12.0 * h)
    out[-2] = (3.0 * f[-1] + 10.0 * f[-2] - 18.0 * f[-3] + 6.0 * f[-4] - f[-5]) / (12.0 * h)
    out[-1] = (25.0 * f[-1] - 48.0 * f[-2] + 36.0 * f[-3] - 16.0 * f[-4] + 3.0 * f[-5]) / (12.0 * h)
    return out


# ---------------------------------------------------------------------------
# Expression-backed surfaces (jets from symbolic differentiation)

# Distinct texts whose compiled functions a process keeps, in each of
# _chart_functions, _level_functions and frames' _path_functions and
# _curve_functions.  It pays only where one process builds the same text
# again (a catalog surface in a library loop, or cli.main called in a loop,
# each call rebuilding its surface and curve); a one-command CLI process
# builds each once.
COMPILED_TEXTS = 64


@functools.lru_cache(maxsize=COMPILED_TEXTS)
def _chart_functions(x_src: str, y_src: str, z_src: str) -> tuple:
    """(jet_fn, jet3_fn) of the chart (x, y, z)(u, v), compiled once per
    text: the jet as six 3-vectors (sigma and its partials u, v, uu, uv,
    vv), the third partials as four (uuu, uuv, uvv, vvv), each order
    differentiated from the one before it."""
    sigma = [_expr.parse(src, ["u", "v"]) for src in (x_src, y_src, z_src)]

    def d(vectors, var):
        return [_expr.differentiate(e, var) for e in vectors]

    su, sv = d(sigma, "u"), d(sigma, "v")
    suu, suv, svv = d(su, "u"), d(su, "v"), d(sv, "v")
    return (_expr.compile([sigma, su, sv, suu, suv, svv], ["u", "v"]),
            _expr.compile([d(suu, "u"), d(suu, "v"), d(suv, "v"), d(svv, "v")], ["u", "v"]))


@functools.lru_cache(maxsize=COMPILED_TEXTS)
def _level_functions(f_src: str) -> tuple:
    """(f, level, third) of the level set f(x, y, z) = 0, compiled once per
    text: f, level's (grad f, Hessian by rows) and the third partials
    d_i d_j d_k f nested [i][j][k].  A mirror of a partial (indices permuted)
    is its sorted twin's tree, differentiated once and computed once."""
    xyz = ["x", "y", "z"]
    f = _expr.parse(f_src, xyz)
    grad = [_expr.differentiate(f, w) for w in xyz]
    hess = [[_expr.differentiate(grad[min(i, j)], xyz[max(i, j)]) for j in range(3)]
            for i in range(3)]
    d3 = functools.cache(lambda i, j, k: _expr.differentiate(hess[i][j], xyz[k]))
    third = [[[d3(*sorted((i, j, k))) for k in range(3)] for j in range(3)] for i in range(3)]
    return _expr.compile(f, xyz), _expr.compile([grad, hess], xyz), _expr.compile(third, xyz)


def parametric_from_expressions(
    x_src: str,
    y_src: str,
    z_src: str,
    u_range: tuple[float, float],
    v_range: tuple[float, float],
    periodic_u: bool = False,
    periodic_v: bool = False,
    eps_reg: float = EPS_REG_DEFAULT,
    name: str = "param_expr",
) -> ParametricSurface:
    """Build a ParametricSurface from component expressions in (u, v)."""
    jet_fn, jet3_fn = _chart_functions(x_src, y_src, z_src)
    return ParametricSurface(name, jet_fn, u_range, v_range, periodic_u=periodic_u,
                             periodic_v=periodic_v, jet3_fn=jet3_fn, eps_reg=eps_reg)


def implicit_from_expression(f_src: str, eps_reg: float = EPS_REG_DEFAULT,
                             name: str = "implicit_expr") -> ImplicitSurface:
    """Build an ImplicitSurface from an expression in (x, y, z)."""
    f, level, third = _level_functions(f_src)
    return ImplicitSurface(name, f, level, eps_reg, third=third)


# ---------------------------------------------------------------------------
# Catalog surfaces: expression templates whose {key} fields a constructor
# fills with the repr of its float parameters (repr parses back to the same
# float).  The spellings keep the bits the catalog has always had: the
# ellipsoid's a*cos(v)*cos(u) without the exact 1.0* factor, or the implicit
# torus's x^2+y^2 written x*x+y*y, changes them on some points.

_ANGLE = (-math.pi, math.pi)
_POLAR_V = (-(math.pi / 2 - POLE_MARGIN), math.pi / 2 - POLE_MARGIN)


def _filled(name: str, template: str, params: dict) -> str:
    """template with each {key} replaced by (repr(float(params[key])))."""
    values = {key: float(value) for key, value in params.items()}
    for key, value in values.items():
        if not math.isfinite(value):
            raise DarbouxError(f"{name}: template parameter {key}={value!r} is not finite")
    return template.format(**{key: f"({value!r})" for key, value in values.items()})


def _catalog_chart(name: str, templates, u_range, v_range, periodic_u=False, periodic_v=False,
                   eps_reg=EPS_REG_DEFAULT, **params) -> ParametricSurface:
    return parametric_from_expressions(
        *(_filled(name, t, params) for t in templates), u_range, v_range,
        periodic_u=periodic_u, periodic_v=periodic_v, eps_reg=eps_reg, name=name)


def sphere(r: float = 1.0, eps_reg: float = EPS_REG_DEFAULT) -> ParametricSurface:
    """sigma = r (cos v cos u, cos v sin u, sin v); poles excluded."""
    xyz = ("{r}*cos(v)*cos(u)", "{r}*cos(v)*sin(u)", "{r}*sin(v)")
    return _catalog_chart(f"sphere(r={float(r):g})", xyz, _ANGLE, _POLAR_V, periodic_u=True,
                          eps_reg=eps_reg, r=r)


def cylinder(r: float = 1.0, v_range: tuple[float, float] = (-20.0, 20.0),
             eps_reg: float = EPS_REG_DEFAULT) -> ParametricSurface:
    """sigma = (r cos u, r sin u, v)."""
    return _catalog_chart(f"cylinder(r={float(r):g})", ("{r}*cos(u)", "{r}*sin(u)", "v"), _ANGLE,
                          v_range, periodic_u=True, eps_reg=eps_reg, r=r)


def plane(u_range=(-20.0, 20.0), v_range=(-20.0, 20.0),
          eps_reg: float = EPS_REG_DEFAULT) -> ParametricSurface:
    """sigma = (u, v, 0)."""
    return _catalog_chart("plane", ("u", "v", "0"), u_range, v_range, eps_reg=eps_reg)


def torus(R: float = 2.0, r: float = 0.5, eps_reg: float = EPS_REG_DEFAULT) -> ParametricSurface:
    """sigma = ((R + r cos v) cos u, (R + r cos v) sin u, r sin v)."""
    xyz = ("({R}+{r}*cos(v))*cos(u)", "({R}+{r}*cos(v))*sin(u)", "{r}*sin(v)")
    return _catalog_chart(f"torus(R={float(R):g},r={float(r):g})", xyz, _ANGLE, _ANGLE,
                          periodic_u=True, periodic_v=True, eps_reg=eps_reg, R=R, r=r)


def helicoid(a: float = 1.0, u_range=(-2 * math.pi, 2 * math.pi), v_range=(-5.0, 5.0),
             eps_reg: float = EPS_REG_DEFAULT) -> ParametricSurface:
    """sigma = (v cos u, v sin u, a u)."""
    return _catalog_chart(f"helicoid(a={float(a):g})", ("v*cos(u)", "v*sin(u)", "{a}*u"),
                          u_range, v_range, eps_reg=eps_reg, a=a)


def ellipsoid(a: float = 2.0, b: float = 1.5, c: float = 1.0,
              eps_reg: float = EPS_REG_DEFAULT) -> ParametricSurface:
    """sigma = (a cos v cos u, b cos v sin u, c sin v); poles excluded."""
    xyz = ("{a}*(1.0*cos(v)*cos(u))", "{b}*(1.0*cos(v)*sin(u))", "{c}*(1.0*sin(v))")
    return _catalog_chart(f"ellipsoid(a={a:g},b={b:g},c={c:g})", xyz, _ANGLE, _POLAR_V,
                          periodic_u=True, eps_reg=eps_reg, a=a, b=b, c=c)


def monkey_saddle(u_range=(-2.0, 2.0), v_range=(-2.0, 2.0),
                  eps_reg: float = EPS_REG_DEFAULT) -> ParametricSurface:
    """sigma = (u, v, u^3 - 3 u v^2)."""
    return _catalog_chart("monkey_saddle", ("u", "v", "u^3-3.0*u*v*v"), u_range, v_range,
                          eps_reg=eps_reg)


def implicit_sphere(r: float = 1.0, eps_reg: float = EPS_REG_DEFAULT) -> ImplicitSurface:
    """f = x^2 + y^2 + z^2 - r^2 (outward normal)."""
    name = f"implicit_sphere(r={r:g})"
    return implicit_from_expression(_filled(name, "x*x+y*y+z*z-{r2}", {"r2": float(r) ** 2}),
                                    eps_reg, name)


def implicit_cylinder(r: float = 1.0, eps_reg: float = EPS_REG_DEFAULT) -> ImplicitSurface:
    """f = x^2 + y^2 - r^2."""
    name = f"implicit_cylinder(r={r:g})"
    return implicit_from_expression(_filled(name, "x^2+y^2-{r2}", {"r2": float(r) ** 2}),
                                    eps_reg, name)


def implicit_plane(eps_reg: float = EPS_REG_DEFAULT) -> ImplicitSurface:
    """f = z."""
    return implicit_from_expression("z", eps_reg, "implicit_plane")


def implicit_torus(R: float = 2.0, r: float = 0.5, eps_reg: float = EPS_REG_DEFAULT) -> ImplicitSurface:
    """f = (x^2 + y^2 + z^2 + R^2 - r^2)^2 - 4 R^2 (x^2 + y^2)."""
    R, r = float(R), float(r)
    name = f"implicit_torus(R={R:g},r={r:g})"
    params = {"A": R * R - r * r, "F": 4.0 * R * R}
    return implicit_from_expression(_filled(name, "(x*x+y*y+z*z+{A})^2-{F}*(x^2+y^2)", params),
                                    eps_reg, name)


# ---------------------------------------------------------------------------
# Surface spec strings (CLI front end)

CATALOG = {
    "sphere": (sphere, implicit_sphere),
    "cylinder": (cylinder, implicit_cylinder),
    "plane": (plane, implicit_plane),
    "torus": (torus, implicit_torus),
    "helicoid": (helicoid, None),
    "ellipsoid": (ellipsoid, None),
    "monkey_saddle": (monkey_saddle, None),
}


def parse_surface_spec(spec: str, implicit: bool = False):
    """Parse a surface spec string.

    Forms: ``builtin:sphere?r=1``, ``builtin:torus?R=2&r=0.5``,
    ``param:x=<expr>;y=<expr>;z=<expr>;u=<lo>,<hi>;v=<lo>,<hi>``,
    ``implicit:f=<expr>``.  With ``implicit=True`` a builtin name resolves
    to its implicit counterpart (where one exists).  The surface's eps_reg
    is EPS_REG_DEFAULT.
    """
    if ":" not in spec:
        raise DarbouxError(f"surface spec needs a 'builtin:', 'param:' or 'implicit:' prefix: {spec!r}")
    kind, rest = spec.split(":", 1)
    if kind == "builtin":
        name, _, query = rest.partition("?")
        if name not in CATALOG:
            raise DarbouxError(f"unknown builtin surface {name!r} (see 'catalog')")
        parametric_ctor, implicit_ctor = CATALOG[name]
        ctor = implicit_ctor if implicit else parametric_ctor
        if ctor is None:
            raise DarbouxError(f"builtin {name!r} has no implicit form")
        return ctor(**_builtin_params(name, ctor, query))
    if kind == "param":
        fields = _split_fields(rest, ("x", "y", "z", "u", "v", "periodic"))
        for key in ("x", "y", "z", "u", "v"):
            if key not in fields:
                raise DarbouxError(f"param surface spec missing {key}=...: {spec!r}")
        periodic = fields.get("periodic", "")
        if not set(periodic) <= {"u", "v"}:
            raise DarbouxError(f"bad periodic={periodic!r} (expected letters u and v)")
        return parametric_from_expressions(
            fields["x"], fields["y"], fields["z"],
            _parse_range(fields["u"]), _parse_range(fields["v"]),
            periodic_u="u" in periodic, periodic_v="v" in periodic,
        )
    if kind == "implicit":
        fields = _split_fields(rest, ("f",))
        if "f" not in fields:
            raise DarbouxError(f"implicit surface spec missing f=...: {spec!r}")
        return implicit_from_expression(fields["f"])
    raise DarbouxError(f"unknown surface spec kind {kind!r}")


def _builtin_params(name: str, ctor: Callable, query: str) -> dict[str, float]:
    """Numeric ``key=value`` pairs of a builtin spec, checked against the
    constructor's scalar parameters."""
    allowed = [
        key for key, param in inspect.signature(ctor).parameters.items()
        if key != "eps_reg" and isinstance(param.default, (int, float))
    ]
    params = {}
    # split and %-decoded by hand: form decoding (parse_qsl) would read the
    # "+" of "1e+60" as a space
    for key, _, value in (map(unquote, pair.partition("=")) for pair in query.split("&") if pair):
        if key not in allowed:
            expected = ", ".join(allowed) or "none"
            raise DarbouxError(f"builtin {name!r} has no parameter {key!r} (parameters: {expected})")
        try:
            number = float(value)
        except ValueError:
            number = math.nan
        if not math.isfinite(number):
            raise DarbouxError(f"bad number for builtin parameter {key}={value!r}")
        params[key] = number
    return params


def _split_fields(rest: str, allowed: tuple[str, ...] | None = None) -> dict[str, str]:
    """The ``key=value`` fields of a spec, split at ``;``: a key given twice,
    or one not in allowed (where given), raises."""
    fields = {}
    for part in rest.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise DarbouxError(f"bad spec field {part!r} (expected key=value)")
        key, value = (t.strip() for t in part.split("=", 1))
        if allowed is not None and key not in allowed:
            raise DarbouxError(f"unknown spec field {key!r} (fields: {', '.join(allowed)})")
        if key in fields:
            raise DarbouxError(f"spec field {key!r} given twice")
        fields[key] = value
    return fields


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(t) for t in text.split(","))
    except ValueError:
        raise DarbouxError(f"bad range {text!r} (expected lo,hi)") from None
    if not math.isfinite(hi - lo):  # nan or inf in either bound, or an overflowing width
        raise DarbouxError(f"range {text!r} is not finite (need finite lo, hi and hi - lo)")
    if not lo < hi:
        raise DarbouxError(f"range {text!r} is empty or reversed (need lo < hi)")
    return lo, hi
