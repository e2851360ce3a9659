"""Frenet and Darboux frames along unit-speed curves on surfaces.

Curves are arclength-parametrized.  A curve on a parametric surface is a
chart path (u(s), v(s)) given by its jet to third order; a curve on an
implicit surface is a unit-speed space curve, given by its jet, confined to
the level set.  Frame scalars:

    gamma'' = k_n U + k_g V,     k_n = gamma''.U,   k_g = gamma''.V,
    tau_g = V'.U = -U'.V  (computed from analytic normal derivatives).

Arbitrary regular parametrizations are brought to unit speed through an
arclength table (adaptive Simpson, tol 1e-10) inverted by monotone cubic
interpolation and polished by up to three Newton steps, stopping at a fixed
point, with chain-rule derivatives to third order.  The table and the
Newton steps read only the first-order speed |gamma'(t)|; the third-order
chain is evaluated at the sample points alone.

Both run batched over an array-valued speed: the table takes one speed
call for its nodes and midpoints and one per Simpson recursion depth, and
the Newton polish runs on all samples of a grid at once.  Each lane keeps
the bits of a point-by-point evaluation: the operations are elementwise in
the same order, and the sums of a row (the |gamma'| dot product and the
Gauss-Legendre sum) are accumulated left to right as ``surface.dot3`` sums.

Every batched path keeps one error rule: it records which lanes failed
and raises the failure a point-by-point pass meets first, with that pass's
type and message.  First is grid order on a grid, and in the arclength
table the nodes, then the midpoints, then the pre-order of the depth-first
Simpson recursion, which is the order of the intervals' left endpoints.  A
table whose Simpson level outgrows its lane cap (a pole of the path) raises
ArclengthTableError, naming the interval, instead.

The speed reads the path first: for paths and curves from expressions,
one pass of the compiled function's columns (``expr.compile``'s
``fn.columns``, the same generated code on (N,) columns), else lane by
lane (see below).  ``ChartPath.from_expressions``
compiles two functions, its jet (nested as jet returns it) and the
first-order (u, v, u', v') the speed reads, so a path whose higher
derivatives fail where its first-order ones do not (u = s^2.5 at s = 0)
still has a speed; ``ParamCurve.from_expressions`` compiles c, c1, c2 and
c3.  Like a surface's, they are compiled once per distinct text and
process (``surface.COMPILED_TEXTS``).

The per-point functions (``darboux``, ``frenet``, ``gamma_jet``) run the
float kernels of ``surface`` on tuples of Python floats, with one bivariate
chain rule (``_chart_chain``) for the curve and for U and one univariate
chain rule (``_arclength_rule``) through t(s).  The frame sampler runs the
same kernels once over a grid, on (N,) float64 columns in place of the
floats: elementwise arithmetic, np.sqrt and the lane-by-lane Python powers
of ``surface._pow`` give each lane the bits of a point-by-point evaluation.
Its samples (path or curve jets, chart or level point) come from one pass
of each function's columns: the path jet, or c, c1, c2 and c3, at the
inverted t, or the Hermite interpolant of a polyline's stacked jet at s, and
the chart's or the level set's functions at the samples' points.  One
reader decides this for every function (``surface._compiled_columns``): a
function that has no columns (a Python callable), or whose columns
decline, runs on each lane's Python floats instead, and only it.  All that
follows, from the chain rule through t(s) to tau_g', runs on the columns.

Reading a grid either gives the columns and a mask of the lanes that fail
a check (outside a non-periodic chart range, regularity, on the surface),
or raises (a lane's evaluation, or the batched inversion), and then every
lane is flagged.  On the columns of the frame sampler and of the Frenet
pass a lane also fails where it fails unit speed or kappa > EPS_KAPPA, or
where a value it computed is not finite, which is how a quotient by zero or
an overflowing power, both errors on floats, show on a column.  ``_redo``
evaluates the flagged lanes again in grid order on floats: the first that
raises gives the error, and the others overwrite their own lane.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import expr as _expr
from .errors import (
    ArclengthTableError,
    DarbouxError,
    FrenetUndefinedError,
    VanishingSpeedError,
    numerical,
)
from .surface import (
    COMPILED_TEXTS,
    ON_SURFACE_TOL,
    _EVALUATION_ERRORS,
    ImplicitSurface,
    ParametricSurface,
    _compiled_columns,
    _cross,
    _div3,
    _floats,
    _lincomb,
    _matvec,
    _normal_jacobian,
    _normal_partials,
    _normal_second_partials,
    _pow,
    _unit_second_derivative,
    _unstack,
    deriv_uniform,
    dot3,
    norm3,
)

__all__ = [
    "FrenetFrame",
    "DarbouxFrame",
    "ParamCurve",
    "UnitSpeedCurve",
    "ChartPath",
    "CurveOnSurface",
    "FrameData",
    "AngleSeries",
    "frenet",
    "darboux",
    "sample_frames",
    "normal_angle_series",
    "resample_unit_speed",
    "unit_speed_chart_curve",
    "uniform_grid",
    "deriv_uniform",
]

EPS_KAPPA = 1e-9       # the Frenet frame is defined where kappa > EPS_KAPPA
EPS_SPEED = 1e-12      # a table speed at or below it vanishes
SIMPSON_TOL = 1e-10    # the arclength table's adaptive Simpson tolerance
UNIT_SPEED_TOL = 1e-7
RESAMPLE_N = 512       # arclength table intervals of a unit-speed reparametrization


@dataclass(frozen=True)
class FrenetFrame:
    T: np.ndarray
    N: np.ndarray
    B: np.ndarray
    kappa: float
    tau: float


@dataclass(frozen=True)
class DarbouxFrame:
    T: np.ndarray
    V: np.ndarray
    U: np.ndarray
    kg: float
    kn: float
    tg: float


# ---------------------------------------------------------------------------
# Curve types


class ParamCurve:
    """Regular 3D curve gamma(t) with derivative evaluators to third order.

    Each evaluator returns a 3-vector as an array or a sequence of floats;
    ``from_expressions`` gives the compiled expressions' float tuples."""

    def __init__(self, c, c1, c2, c3, t_range: tuple[float, float]):
        self.c, self.c1, self.c2, self.c3 = c, c1, c2, c3
        self.t_range = (float(t_range[0]), float(t_range[1]))

    @classmethod
    def from_expressions(cls, x_src: str, y_src: str, z_src: str,
                         t_range: tuple[float, float], var: str = "s") -> "ParamCurve":
        """The curve (x, y, z)(t) of three expressions in var: c, c1, c2 and
        c3, compiled once per distinct text and process (the texts and var
        are the key, t_range is not)."""
        return cls(*_curve_functions(x_src, y_src, z_src, var), t_range)


class UnitSpeedCurve:
    """Arclength-parametrized curve on [0, L] given by its jet: jet(s) is
    (gamma, gamma', gamma'', gamma''') at s, each 3-vector an array or a
    sequence of floats."""

    def __init__(self, jet, length: float, analytic: bool = True):
        self.jet = jet
        self.length = float(length)
        self.analytic = analytic

    def _jet_of(self, s):
        """The jet at s as lists of Python floats."""
        return _floats(self.jet(s))

    def _jet_columns(self, grid):
        """(jet at each s of grid as four 3-vectors of (N,) columns, mask of
        the lanes failing a check, none on a bare curve): _compiled_columns,
        one pass of from_polyline's Hermite interpolant."""
        return _compiled_columns([grid], self.jet)[0], np.zeros(len(grid), dtype=bool)

    @classmethod
    def from_polyline(cls, points: np.ndarray, length: float | None = None) -> "UnitSpeedCurve":
        """Curve from uniformly spaced samples assumed unit-speed.

        Derivatives come from 5-point central stencils at interior nodes
        (O(h^4)) and one-sided stencils at the ends; values between nodes are
        cubic Hermite interpolated, with the next derivative as slopes: one
        interpolant of the stacked (n, 4, 3) jet.  Marked non-analytic so
        downstream constancy statistics use the looser tolerance and drop
        endpoints.  ``length`` defaults to the chord sum, short of a curved
        polyline's arclength by enough to fail the unit-speed check
        (UNIT_SPEED_TOL): pass the arclength where known (a trace's s[-1]).
        """
        points = np.asarray(points, dtype=float)
        n = len(points)
        if n < 5:
            raise DarbouxError("polyline needs at least 5 samples")
        if not np.isfinite(points).all():
            raise DarbouxError("polyline samples must be finite")
        if length is None:
            length = float(np.sum(norm3(np.diff(points, axis=0).T)))
        s = np.linspace(0.0, length, n)
        h = s[1] - s[0]
        jets = [points]
        for _ in range(4):
            jets.append(deriv_uniform(jets[-1], h))
        return cls(_Hermite(s, np.stack(jets[:4], axis=1), np.stack(jets[1:], axis=1)),
                   length, analytic=False)


class ChartPath:
    """Chart path (u(s), v(s)) given by its jet: jet(s) is ((u, v),
    (u', v'), (u'', v''), (u''', v''')) at s.  first_order(s) is the
    (u, v, u', v') the arclength speed reads, by default off the whole jet:
    a path whose higher derivatives fail where its first order does not
    must pass first_order."""

    def __init__(self, jet, s_range: tuple[float, float], first_order=None):
        self.jet = jet
        if first_order is None:
            def first_order(s):
                (u, v), (du, dv), _, _ = jet(s)
                return u, v, du, dv
        self.first_order = first_order
        self.s_range = (float(s_range[0]), float(s_range[1]))

    @classmethod
    def from_expressions(cls, u_src: str, v_src: str, s_range: tuple[float, float],
                         var: str = "s") -> "ChartPath":
        """The path (u(s), v(s)) of two expressions in var, compiled as two
        functions once per distinct text and process (the texts and var are
        the key, s_range is not): its jet, nested as jet returns it, and
        first_order's (u, v, u', v'), which reads no higher derivative
        (u = s^2.5 has a first_order at s = 0 but no jet)."""
        jet, first_order = _path_functions(u_src, v_src, var)
        return cls(jet, s_range, first_order=first_order)

    def _sample(self, surface: ParametricSurface, s):
        """(path jet, chart point, third partials) at s, the surface evaluated
        once at the path's (u, v): chart_point's (jet, w, |w|) and the float
        third partials."""
        jet = self.jet(s)
        u, v = jet[0]
        return jet, surface.chart_point(u, v), surface._jet3(u, v)

    def _sample_columns(self, surface: ParametricSurface, xs):
        """(_sample at each lane of the (N,) xs as columns, mask of the lanes
        outside the chart or where |w| <= eps_reg): the path jet's
        _compiled_columns and ParametricSurface._point_columns."""
        jet, = _compiled_columns([xs], self.jet)
        chart, third, bad = surface._point_columns(*jet[0])
        return (jet, chart, third), bad


def _derivatives(srcs, var: str) -> list:
    """The expressions srcs in var and their first three derivatives: four
    lists over srcs, each order differentiated from the one before it."""
    jet = [[_expr.parse(src, [var]) for src in srcs]]
    for _ in range(3):
        jet.append([_expr.differentiate(e, var) for e in jet[-1]])
    return jet


@functools.lru_cache(maxsize=COMPILED_TEXTS)
def _path_functions(u_src: str, v_src: str, var: str) -> tuple:
    """(jet, first_order) of ChartPath.from_expressions."""
    jet = _derivatives((u_src, v_src), var)
    return _expr.compile(jet, [var]), _expr.compile([*jet[0], *jet[1]], [var])


@functools.lru_cache(maxsize=COMPILED_TEXTS)
def _curve_functions(x_src: str, y_src: str, z_src: str, var: str) -> tuple:
    """(c, c1, c2, c3) of ParamCurve.from_expressions."""
    return tuple(_expr.compile(order, [var]) for order in _derivatives((x_src, y_src, z_src), var))


class CurveOnSurface:
    """Unit-speed curve lying on a surface (chart path or confined space curve)."""

    def __init__(self, surface, chart_path: ChartPath | None = None,
                 space_curve: UnitSpeedCurve | None = None,
                 on_surface_tol: float = ON_SURFACE_TOL):
        if (chart_path is None) == (space_curve is None):
            raise DarbouxError("provide exactly one of chart_path / space_curve")
        self.surface = surface
        self.path = chart_path
        self.curve = space_curve
        self.on_surface_tol = float(on_surface_tol)
        if chart_path is not None:
            if not isinstance(surface, ParametricSurface):
                raise DarbouxError("chart paths require a parametric surface")
            self.kind = "parametric"
            self.s_range = chart_path.s_range
        else:
            if not isinstance(surface, ImplicitSurface):
                raise DarbouxError("space curves require an implicit surface")
            self.kind = "implicit"
            self.s_range = (0.0, space_curve.length)

    @property
    def analytic(self) -> bool:
        return self.curve.analytic if self.curve is not None else True

    def gamma_jet(self, s: float):
        """(gamma, gamma', gamma'', gamma''') at arclength s."""
        return tuple(np.array(x) for x in self._jet_of(s))

    def _on_surface(self, s, p):
        """Raise where the space-curve point p at s is off the implicit
        surface."""
        f = self.surface.value(p)
        if abs(f) > self.on_surface_tol:
            raise DarbouxError(
                f"curve leaves surface: |f(gamma({float(s):g}))| = "
                f"{abs(f):g} > {self.on_surface_tol:g}"
            )

    def _level(self, s, p):
        """(level_point, third partials) at the space-curve point p of s, once
        p is checked to be on the surface."""
        self._on_surface(s, p)
        p = tuple(p)
        return self.surface.level_point(p), self.surface._third(*p)

    def _jet_of(self, s):
        """The curve jet at s as float 3-vectors: the space-curve jet checked
        against the surface, or the chain rule on the chart sample."""
        if self.kind == "implicit":
            jets = self.curve._jet_of(s)
            self._on_surface(s, jets[0])
            return jets
        return self._jets(self._sample(s))

    def _sample(self, s):
        """What the frame at s is built from, as floats: the chart sample, or
        the space-curve jet, its level point (grad f, |grad f|, H) and the
        third partials of f."""
        if self.kind == "implicit":
            jets = self.curve._jet_of(s)
            return (jets, *self._level(s, jets[0]))
        return self.path._sample(self.surface, s)

    def _sample_columns(self, grid):
        """(_sample at each s of grid as (N,) columns, mask of the lanes whose
        point is off the surface or fails a regularity check); a space
        curve's level points come from ImplicitSurface._level_columns."""
        if self.kind == "parametric":
            return self.path._sample_columns(self.surface, grid)
        jets, bad = self.curve._jet_columns(grid)
        f, point, third, irregular = self.surface._level_columns(*jets[0])
        return (jets, point, third), bad | irregular | (abs(f) > self.on_surface_tol)

    def _jet_columns(self, grid):
        """(curve jet at each s of grid as (N,) columns, mask of the lanes
        _sample_columns flags), read from the frame samples."""
        sample, bad = self._sample_columns(grid)
        return self._jets(sample), bad

    def _jets(self, sample):
        """The curve jet of a sample (floats or columns): the space-curve jet,
        or the chain rule on the chart sample."""
        if self.kind == "implicit":
            return sample[0]
        (_, *d), (jet, _, _), third = sample
        return _chart_rule_jets(jet, third, *d)


def _chart_rule_jets(jet, jet3, d1, d2, d3):
    """(gamma, gamma', gamma'', gamma''') of gamma = sigma(u(s), v(s)) from
    the chart jet, its third partials and the path's derivatives."""
    return (jet[0], *_chart_chain((d1, d2, d3), (jet[1:3], jet[3:6], jet3)))


def _chart_chain(d, partials) -> list:
    """[x', x''] of x(u(s), v(s)) along a chart path, and x''' when partials
    holds a third entry: d holds the path's (u', v'), (u'', v''),
    (u''', v''') and partials x's (x_u, x_v), (x_uu, x_uv, x_vv),
    (x_uuu, x_uuv, x_uvv, x_vvv), each a 3-vector (floats or columns)."""
    (du, dv), (ddu, ddv) = d[0], d[1]
    (x_u, x_v), (x_uu, x_uv, x_vv) = partials[0], partials[1]
    out = [_lincomb(du, x_u, dv, x_v),
           _weighted_sum((ddu, ddv, du * du, 2.0 * du * dv, dv * dv),
                         (x_u, x_v, x_uu, x_uv, x_vv))]
    if len(partials) > 2:
        dddu, dddv = d[2]
        out.append(_weighted_sum(
            (dddu, dddv, 3.0 * du * ddu, 3.0 * (ddu * dv + du * ddv), 3.0 * dv * ddv,
             _pow(du, 3), 3.0 * du * du * dv, 3.0 * du * dv * dv, _pow(dv, 3)),
            (x_u, x_v, x_uu, x_uv, x_vv, *partials[2])))
    return out


def _weighted_sum(coefs, vectors) -> tuple:
    """c_0 x_0 + c_1 x_1 + ... for scalars c_k and 3-vectors x_k, summed
    left to right from k = 0."""
    (c, *cs), ((a, b, e), *xs) = coefs, vectors
    a, b, e = c * a, c * b, c * e
    for c, (x, y, z) in zip(cs, xs):
        a, b, e = a + c * x, b + c * y, e + c * z
    return a, b, e


# ---------------------------------------------------------------------------
# Frames


@numerical
def frenet(curve, s: float) -> FrenetFrame:
    """Frenet frame at s: T = gamma', kappa = |gamma''|, N = gamma''/kappa,
    B = T x N, tau = (gamma' x gamma'').gamma''' / kappa^2."""
    T, N, B, kappa, tau, _ = _frenet(curve._jet_of(s), s)
    return FrenetFrame(np.array(T), np.array(N), np.array(B), kappa, tau)


def _frenet(jets, s) -> tuple:
    """frenet's (T, N, B, kappa, tau) and the undefined mask from the curve
    jet at s.  On floats kappa <= EPS_KAPPA raises FrenetUndefinedError (the
    mask is then False); on columns the mask flags those lanes."""
    _, d1, d2, d3 = jets
    kappa = norm3(d2)
    undefined = kappa <= EPS_KAPPA
    if undefined is True:
        raise FrenetUndefinedError(
            f"Frenet frame undefined: curvature {kappa:g} <= {EPS_KAPPA:g} at s={float(s):g}"
        )
    N = _div3(d2, kappa)
    return d1, N, _cross(d1, N), kappa, _triple(d1, d2, d3) / _pow(kappa, 2), undefined


def _triple(a, b, c) -> float:
    """(a x b) . c of three 3-vectors."""
    return dot3(_cross(a, b), c)


def _frenet_columns(curve, grid) -> list:
    """[gamma, T, N, B, kappa, tau] at each s of grid, vectors (N, 3): _frenet
    on the jet columns, the lanes it flags (a failed check, kappa <=
    EPS_KAPPA, a value not finite; every lane where reading the jets
    raised) evaluated again by _redo."""
    grid = np.asarray(grid, dtype=float)
    with np.errstate(all="ignore"):
        try:
            jets, bad = curve._jet_columns(grid)
            *values, undefined = _frenet(jets, grid)
            values, bad = (jets[0], *values), bad | undefined
        except _EVALUATION_ERRORS:
            values, bad = None, np.ones(len(grid), dtype=bool)

        def row(i):
            jet = curve._jet_of(float(grid[i]))
            return jet[0], *_frenet(jet, grid[i])[:-1]

        return _redo(values, bad, row)


def _redo(values, bad, row, unchecked=()) -> list:
    """values as arrays (3-vectors of columns stacked to (N, 3)), the lanes
    flagged in bad or not finite in a value outside unchecked evaluated
    again on floats, in order: row(i) raises lane i's error (the first a
    point-by-point pass meets) or gives its values, written over the lane.
    Where values is None (reading the grid raised), every lane's row,
    stacked."""
    if values is None:
        return [np.array(x, dtype=float) for x in zip(*map(row, range(len(bad))))]
    columns = [np.column_stack(x) if isinstance(x, tuple) else x for x in values]
    for k, x in enumerate(columns):
        if k not in unchecked:
            bad = bad | ~np.isfinite(x.reshape(len(bad), -1)).all(axis=1)
    for i in np.flatnonzero(bad).tolist():
        for column, value in zip(columns, row(i)):
            column[i] = value
    return columns


@numerical
def darboux(c: CurveOnSurface, s: float) -> DarbouxFrame:
    """Darboux frame {T, V, U} and scalars (k_g, k_n, tau_g) at s.

    U comes from the surface orientation; V = U x T; tau_g is computed
    analytically as -U'.V (equal to V'.U by orthonormality), with U' from
    analytic normal derivatives.
    """
    jets, U, U1, _ = _frame(c, c._sample(s))
    V, kg, kn, tg, _ = _darboux_scalars(jets, U, U1, s)
    return DarbouxFrame(np.array(jets[1]), np.array(V), np.array(U), kg, kn, tg)


def _frame(c: CurveOnSurface, sample):
    """(curve jet, U, U', U''), primes along the curve, from a sample of c:
    the floats of one (3-vectors of floats) or the columns of a grid
    (3-vectors of columns).  U'' comes from the surface's third partials: on
    a space curve, U = w/|w| with w = grad f, w' = H gamma' and
    w'' = T[gamma', gamma'] + H gamma'', T the third partials of f."""
    jets = c._jets(sample)
    if c.kind == "implicit":
        (g, n, H), third = sample[1:]
        _, d1, d2, _ = jets
        w1 = _matvec(H, d1)
        w2 = [a + b for a, b in zip(_matvec([_matvec(t, d1) for t in third], d1), _matvec(H, d2))]
        return (jets, _div3(g, n), _matvec(_normal_jacobian(g, n, H), d1),
                _unit_second_derivative(g, n, _pow(n, 2), _pow(n, 3), w1, w1, w2))
    (_, *d), (jet, w, n), third = sample
    n3 = _pow(n, 3)
    U1, U2 = _chart_chain(d, (_normal_partials(jet, w, n, n3),
                              _normal_second_partials(jet, third, w, n, n3)))
    return jets, _div3(w, n), U1, U2


def _darboux_scalars(jets, U, U1, s) -> tuple:
    """(V, k_g, k_n, tau_g, off) at s from the curve jet, U and U', with
    V = U x T and T = gamma'.  On floats a sample off unit speed raises
    DarbouxError (off is then False); on columns off flags those lanes."""
    _, d1, d2, _ = jets
    speed = norm3(d1)
    off = abs(speed - 1.0) > UNIT_SPEED_TOL
    if off is True:
        raise DarbouxError(
            f"curve is not unit speed at s={float(s):g}: |gamma'| - 1 = {speed - 1.0:.3g}, "
            f"beyond the tolerance {UNIT_SPEED_TOL:g}")
    V = _cross(U, d1)
    return V, dot3(d2, V), dot3(d2, U), -dot3(U1, V), off


# ---------------------------------------------------------------------------
# Sampled frame data (shared by the angle series and the classifiers)


@dataclass
class FrameData:
    """Frame samples over a uniform arclength grid.

    dkg, dkn and dtg are analytic (third-order curve and surface jets).
    ``kappa`` is hypot(kg, kn) and ``accel`` is |gamma''| read off the curve
    jet, independent of the frame.
    """

    s: np.ndarray
    gamma: np.ndarray
    T: np.ndarray
    V: np.ndarray
    U: np.ndarray
    kg: np.ndarray
    kn: np.ndarray
    tg: np.ndarray
    dkg: np.ndarray
    dkn: np.ndarray
    dtg: np.ndarray
    kappa: np.ndarray
    tau: np.ndarray
    analytic: bool
    accel: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.s)

    @property
    def frenet_mask(self) -> np.ndarray:
        return self.kappa > EPS_KAPPA


@numerical
def sample_frames(c: CurveOnSurface, grid: np.ndarray) -> FrameData:
    """Evaluate Darboux data over a uniform grid of arclength values.

    The grid's samples come from one pass of the compiled functions'
    columns (CurveOnSurface._sample_columns), and one pass of the frame
    kernels over them gives every column of FrameData.  The lanes flagged
    (an evaluation that raised, a failed regularity, on-surface or
    unit-speed check, a value that is not finite) are evaluated again in
    grid order by _redo: the first raises its own error."""
    grid = np.asarray(grid, dtype=float)
    _require_uniform(grid)
    with np.errstate(all="ignore"):
        try:
            sample, bad = c._sample_columns(grid)
            values, kap2, off = _frame_values(c, grid, sample)
            bad = bad | off | ~np.isfinite(kap2)
        except _EVALUATION_ERRORS:
            values, bad = None, np.ones(len(grid), dtype=bool)
        # tau (9) is nan wherever kappa <= EPS_KAPPA; every other value of a
        # lane that raises on floats is not finite on the columns
        gam, T, V, U, kg, kn, tg, dkg, dkn, tau, accel, dtg = _redo(
            values, bad,
            lambda i: _frame_values(c, float(grid[i]), c._sample(float(grid[i])))[0],
            unchecked=(9,))
    return FrameData(grid, gam, T, V, U, kg, kn, tg, dkg, dkn, dtg, np.hypot(kg, kn), tau,
                     analytic=c.analytic, accel=accel)


def _frame_values(c: CurveOnSurface, s, sample) -> tuple:
    """((gamma, T, V, U, k_g, k_n, tau_g, k_g', k_n', tau, |gamma''|,
    tau_g'), k_g^2 + k_n^2, off) at s from a sample of c: the floats of one
    sample, where a failing check or float operation raises, or the columns
    of a grid (s a column too), where off flags the lanes off unit speed."""
    jets, U, U1, U2 = _frame(c, sample)
    g, d1, d2, d3 = jets
    V, kg, kn, tg, off = _darboux_scalars(jets, U, U1, s)
    kap2 = _pow(kg, 2) + _pow(kn, 2)
    tau = np.divide(_triple(d1, d2, d3), kap2, out=np.full(np.shape(kap2), np.nan),
                    where=kap2 > EPS_KAPPA**2)
    return (g, d1, V, U, kg, kn, tg,
            # k_g' = gamma'''.V + tau_g k_n ; k_n' = gamma'''.U - tau_g k_g
            dot3(d3, V) + tg * kn, dot3(d3, U) - tg * kg,
            # tau_g' = -U''.V - k_n k_g
            tau, norm3(d2), -dot3(U2, V) - kn * kg), kap2, off


@dataclass
class AngleSeries:
    """theta(s) = atan2(k_n, k_g) on a continuous branch, with residuals
    r1 = k_n - kappa sin(theta), r2 = k_g - kappa cos(theta),
    r3 = tau_g - (tau - theta')."""

    s: np.ndarray
    theta: np.ndarray
    theta_prime: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    r3: np.ndarray


def normal_angle_series(c: CurveOnSurface, grid: np.ndarray) -> AngleSeries:
    """Signed normal angle along the curve; requires kappa > EPS_KAPPA on the
    grid."""
    data = sample_frames(c, grid)
    if not data.frenet_mask.all():
        bad = data.s[~data.frenet_mask]
        raise FrenetUndefinedError(
            f"Frenet frame undefined (kappa <= {EPS_KAPPA:g}) at s={float(bad[0]):g}"
        )
    # |gamma''| rather than hypot(kg, kn): keeps r1/r2 sensitive to frame error
    kappa = data.accel
    theta = np.unwrap(np.arctan2(data.kn, data.kg))
    theta_prime = deriv_uniform(theta, data.s[1] - data.s[0])
    r1 = data.kn - kappa * np.sin(theta)
    r2 = data.kg - kappa * np.cos(theta)
    r3 = data.tg - (data.tau - theta_prime)
    return AngleSeries(data.s, theta, theta_prime, r1, r2, r3)


# ---------------------------------------------------------------------------
# Arclength reparametrization


# An interval also stops splitting once Simpson's error estimate is within
# a few ulps of the estimate itself (8 |whole| 2^-52): there it is rounding
# noise, which splitting does not shrink, and on arclengths far above the
# absolute tolerance (curves scaled to 1e60) it would split to full depth.
_SIMPSON_ROUNDING = 8.0 * 2.0**-52
# Or once it is a few dozen ulps wide: at a kink of the speed, splitting on
# would land a point on the kink, where the path has no derivative.
_SIMPSON_WIDTH = 2.0**-46

# Lanes one level of the breadth-first Simpson may hold: a table that needs
# more raises ArclengthTableError (memory and time stay bounded where the
# speed blows up, as near a pole of tan).
_MAX_SIMPSON_LANES = 1 << 16


def _speeds(speed, ts):
    """(speed at each lane of ts, {lane: error}): one call for all lanes,
    or, where that call raises, one call per lane, a lane that raises
    keeping its own error and reading nan."""
    try:
        return speed(ts), {}
    except _EVALUATION_ERRORS:
        values, errors = np.full(len(ts), np.nan), {}
    for i in range(len(ts)):
        try:
            values[i] = speed(ts[i:i + 1])[0]
        except _EVALUATION_ERRORS as exc:
            errors[i] = exc
    return values, errors


def _adaptive_simpson_many(speed, a, b, fa, fm, fb, whole, tol, depth):
    """Adaptive Simpson on each [a_i, b_i], breadth first: one speed call per
    recursion depth, the values summed back pair by pair as the depth-first
    recursion sums them, with its bits.  A lane fails where its speed raised
    (at lm, then rm) or where it would split on an estimate that is not
    finite, and then does not split.  The recursion's pre-order is the order
    of left endpoints: a node comes before its descendants and everything to
    its right, a failed node has no descendants, and the live lanes of one
    level never share a left endpoint.  So where lanes fail, only the lanes
    left of the leftmost one split on, and so do all their descendants: a
    later failure comes before it.  The failure recorded last is raised
    after the last level, and a level beyond the lane cap raises
    ArclengthTableError."""
    levels, first = [], None  # first: the error first in pre-order so far
    while len(a):
        count = len(a)
        m = 0.5 * (a + b)
        f_new, errors = _speeds(speed, np.concatenate([0.5 * (a + m), 0.5 * (m + b)]))
        flm, frm = f_new[:count], f_new[count:]
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        err = left + right - whole
        # the recursion's tests in its order: within tol (or at depth 0), not
        # finite (a failure), within rounding of whole or narrow
        abs_err, finite = np.abs(err), np.isfinite(err)
        settled = (abs_err <= 15.0 * tol) | (finite & (
            (abs_err <= _SIMPSON_ROUNDING * np.abs(whole))
            | (b - a <= _SIMPSON_WIDTH * np.maximum(np.abs(a), np.abs(b)))))
        split = ~settled if depth > 0 else np.zeros(count, dtype=bool)
        failed = split & ~finite
        failed[[i % count for i in errors]] = True
        split &= ~failed
        if failed.any():
            lanes = np.flatnonzero(failed)
            j = int(lanes[np.argmin(a[lanes])])
            first = errors.get(j) or errors.get(j + count) or DarbouxError(
                f"speed not finite for t in [{float(a[j]):g}, {float(b[j]):g}]")
            split &= a < a[j]
        split = np.flatnonzero(split)
        levels.append((split, left + right + err / 15.0))
        if 2 * len(split) > _MAX_SIMPSON_LANES:
            raise ArclengthTableError(
                f"arclength table does not settle: {len(split)} intervals of t in "
                f"[{a[split].min():g}, {b[split].max():g}] still split after {len(levels)} "
                "Simpson levels (the speed may blow up there)")
        a, b = np.concatenate([a[split], m[split]]), np.concatenate([m[split], b[split]])
        fa, fm, fb = (np.concatenate([fa[split], fm[split]]),
                      np.concatenate([flm[split], frm[split]]),
                      np.concatenate([fm[split], fb[split]]))
        whole = np.concatenate([left[split], right[split]])
        tol = 0.5 * tol
        depth -= 1
    if first is not None:
        raise first
    values = None
    for split, value in reversed(levels):
        if len(split):
            value[split] = values[:len(split)] + values[len(split):]
        values = value
    return values


# The 12-point Gauss-Legendre rule on [-1, 1], as
# numpy.polynomial.legendre.leggauss(12) gives it, written out so that
# importing this module does not load numpy.polynomial.
_GL_NODES = np.array([
    -0.9815606342467192, -0.9041172563704748, -0.7699026741943047, -0.5873179542866175,
    -0.3678314989981802, -0.1252334085114689, 0.1252334085114689, 0.3678314989981802,
    0.5873179542866175, 0.7699026741943047, 0.9041172563704748, 0.9815606342467192])
_GL_WEIGHTS = np.array([
    0.04717533638651141, 0.10693932599531907, 0.16007832854334642, 0.20316742672306573,
    0.2334925365383546, 0.2491470458134027, 0.2491470458134027, 0.2334925365383546,
    0.20316742672306573, 0.16007832854334642, 0.10693932599531907, 0.04717533638651141])


def _gl_sum(speeds: np.ndarray) -> np.ndarray:
    """sum_j w_j f_j of each row of the (N, 12) speeds, accumulated left to
    right from j = 0 (no BLAS, so the bits do not depend on its kernel)."""
    total = speeds[:, 0] * _GL_WEIGHTS[0]
    for j in range(1, len(_GL_WEIGHTS)):
        total = total + speeds[:, j] * _GL_WEIGHTS[j]
    return total


def _clip(x: np.ndarray, lo, hi) -> np.ndarray:
    """min(max(x, lo), hi) lane by lane, ties and nans resolved as Python's."""
    x = np.where(lo > x, lo, x)
    return np.where(hi < x, hi, x)


def _pchip_end_slope(h0, h1, m0, m1):
    """PchipInterpolator._edge_case on numpy scalars: the one-sided
    three-point slope, zeroed or limited to 3 m0 to keep the shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


class _Hermite:
    """scipy.interpolate.CubicHermiteSpline(x, y, slopes) for a strictly
    increasing finite x, with its bits: the coefficients in scipy's
    operations and order; a call evaluates as PPoly's compiled loop does.
    y and slopes are (n, ...); a query of shape Q gives shape
    Q + y.shape[1:], each entry's cubic evaluated elementwise.  Built
    without numpy warnings."""

    def __init__(self, x: np.ndarray, y: np.ndarray, slopes: np.ndarray):
        self.x, self.slopes = x, slopes
        with np.errstate(all="ignore"):
            h = (x[1:] - x[:-1]).reshape(-1, *(1,) * (y.ndim - 1))
            m = (y[1:] - y[:-1]) / h
            t = (slopes[:-1] + slopes[1:] - 2 * m) / h
            self.c = (t / h, (m - slopes[:-1]) / h - t, slopes[:-1], y[:-1])

    def __call__(self, s) -> np.ndarray:
        """The interpolant at each lane of s: the interval x[i] <= s < x[i+1]
        (the first or last one outside), its cubic in z = s - x[i] summed
        from the constant term up, and nan on nan lanes."""
        s = np.asarray(s, dtype=float)
        i = np.clip(np.searchsorted(self.x, s, side="right") - 1, 0, len(self.x) - 2)
        c0, c1, c2, c3 = (c[i] for c in self.c)
        lanes = (..., *(None,) * (c3.ndim - s.ndim))  # z and the nan mask per lane
        with np.errstate(all="ignore"):
            z = (s - self.x[i])[lanes]
            zz = z * z
            value = 0.0 + c3 + c2 * z + c1 * zz + c0 * (zz * z)
        return np.where(np.isnan(s)[lanes], np.nan, value)

    def columns(self, s) -> tuple:
        """The interpolant at each lane of the (N,) s as (N,) columns, nested
        as a value is, with the bits of a call per lane."""
        return _unstack(np.moveaxis(self(s), 0, -1))


class _Pchip(_Hermite):
    """scipy.interpolate.PchipInterpolator(x, y) for a strictly increasing
    finite x and an (n,) y, with its bits: the slopes of
    ``_find_derivatives`` and ``_edge_case`` in their operations and order,
    on ``_Hermite``.  Built without numpy warnings, where scipy warns on an
    overflowing slope."""

    def __init__(self, x: np.ndarray, y: np.ndarray):
        with np.errstate(all="ignore"):
            h = x[1:] - x[:-1]
            m = (y[1:] - y[:-1]) / h
            if len(m) == 1:
                d = np.concatenate([m, m])
            else:
                w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
                sign = np.sign(m)
                flat = (sign[1:] != sign[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
                inner = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
                d = np.concatenate([[_pchip_end_slope(h[0], h[1], m[0], m[1])], inner,
                                    [_pchip_end_slope(h[-1], h[-2], m[-1], m[-2])]])
        super().__init__(x, y, d)


class ArclengthMap:
    """Invertible map between a raw parameter t and arclength s.

    ``speed`` maps an (N,) array of parameters to the (N,) speeds |gamma'(t)|,
    each lane with the bits of a one-lane call.  Table built with adaptive
    Simpson (SIMPSON_TOL) at n+1 uniform t-nodes, from the speeds taken at the
    nodes and midpoints for the vanishing-speed check, one speed call per
    recursion depth.  A call that raises is made again lane by lane, and the
    error is the one a point-by-point build meets first: the first node's
    or midpoint's (its own or VanishingSpeedError), else the first Simpson
    failure in pre-order.  A table whose arclengths are not finite and
    strictly increasing, or whose coefficients are not finite, raises
    ArclengthTableError.  Inverted by monotone cubic interpolation
    (``_Pchip``: PCHIP slopes on the package's cubic Hermite, with the bits
    of scipy's PchipInterpolator) and polished with up to three Newton
    steps against locally Gauss-Legendre-integrated arclength, each lane
    stopping at its own fixed point.
    """

    def __init__(self, speed: Callable, t_range: tuple[float, float], n: int):
        t0, t1 = t_range
        if not t1 > t0:
            raise DarbouxError("empty parameter range")
        self.speed = speed
        # an overflow (the midpoints of a huge range, the speeds of a huge
        # curve) shows as a table the checks below reject
        with np.errstate(over="ignore", invalid="ignore"):
            self.t_nodes = np.linspace(t0, t1, max(int(n), 8) + 1)
            increments = self._increments(SIMPSON_TOL, EPS_SPEED)
            self.s_nodes = np.concatenate([[0.0], np.cumsum(increments)])
        self.length = float(self.s_nodes[-1])
        self._inverse = _Pchip(self.s_nodes, self.t_nodes)
        # the tables PchipInterpolator refuses, and those whose cubics overflow
        if not (np.isfinite(self.s_nodes).all() and (self.s_nodes[1:] > self.s_nodes[:-1]).all()
                and np.isfinite(self._inverse.c).all()):
            raise ArclengthTableError(
                f"arclength table for t in [{float(t0):g}, {float(t1):g}] cannot be inverted: "
                "its arclengths are not finite and strictly increasing, or their slopes are "
                "not finite (the range may be too short or too long for float arclengths)")

    def _increments(self, tol, eps_speed):
        """The arclength of each table interval."""
        nodes = self.t_nodes
        n = len(nodes) - 1
        ts = np.concatenate([nodes, 0.5 * (nodes[:-1] + nodes[1:])])
        speeds, errors = _speeds(self.speed, ts)
        failing = [*errors, *np.flatnonzero(speeds <= eps_speed).tolist()]
        if failing:
            i = min(failing)
            raise errors.get(i) or VanishingSpeedError(f"vanishing speed at t={float(ts[i]):g}")
        a, b, fa, fb, fm = nodes[:-1], nodes[1:], speeds[:n], speeds[1:n + 1], speeds[n + 1:]
        whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
        return _adaptive_simpson_many(self.speed, a, b, fa, fm, fb, whole, tol, 50)

    def t_of_s(self, s: float) -> float:
        return float(self.t_of_s_many([s])[0])

    def t_of_s_many(self, s) -> np.ndarray:
        """t(s) at each lane of s: the PCHIP guess, then up to three Newton
        steps on all lanes at once, each step one speed call for the 12
        Gauss-Legendre points and the Newton speed of every moving lane."""
        lo, hi = self.t_nodes[0], self.t_nodes[-1]
        s = _clip(np.asarray(s, dtype=float), 0.0, self.length)
        t = _clip(np.asarray(self._inverse(s), dtype=float), lo, hi)
        lanes = np.arange(len(t))
        for _ in range(3):
            if not len(lanes):
                break
            tl = t[lanes]
            k = np.searchsorted(self.t_nodes, tl, side="right") - 1
            k = np.clip(k, 0, len(self.t_nodes) - 2)
            a = self.t_nodes[k]
            half = 0.5 * (tl - a)
            pts = a[:, None] + half[:, None] * (_GL_NODES + 1.0)
            speeds = self.speed(np.concatenate([pts, tl[:, None]], axis=1).ravel())
            speeds = speeds.reshape(len(lanes), len(_GL_NODES) + 1)
            err = self.s_nodes[k] + half * _gl_sum(speeds[:, :-1]) - s[lanes]
            t_new = _clip(tl - err / speeds[:, -1], lo, hi)
            # a lane at its fixed point would repeat the same step: it stops
            moved = t_new != tl
            lanes = lanes[moved]
            t[lanes] = t_new[moved]
        return t


def _arclength_chain(c1, c2, c3):
    """(t', t'', t''') of t(s), the inverse of arclength, from the curve's
    raw derivatives c1, c2, c3 in t, 3-vectors of floats or of columns."""
    v = norm3(c1)
    vd = dot3(c1, c2) / v
    vdd = (dot3(c2, c2) + dot3(c1, c3) - vd * vd) / v
    tp = 1.0 / v
    tpp = -vd / _pow(v, 3)
    tppp = (3.0 * vd * vd - v * vdd) / _pow(v, 5)
    return tp, tpp, tppp


def _arclength_rule(x1, x2, x3, tp, tpp, tppp) -> tuple:
    """(x', x'', x''') in s of x(t(s)) from x's derivatives x1, x2, x3 in t
    and (t', t'', t'''), for one component x (a float or a column) of a
    chart path or of a space curve."""
    return (x1 * tp, x2 * tp * tp + x1 * tpp,
            x3 * _pow(tp, 3) + 3.0 * x2 * tp * tpp + x1 * tppp)


class _ResampledCurve(UnitSpeedCurve):
    """A regular ParamCurve reparametrized by arclength.  A grid's jets come
    from one batched inversion, one pass of the compiled curve functions'
    columns and one chain rule on columns."""

    def __init__(self, raw: ParamCurve, amap: ArclengthMap):
        self.raw, self.amap = raw, amap
        self.length = amap.length
        self.analytic = True

    def jet(self, s: float):
        t, = self.amap.t_of_s_many([s]).tolist()
        return self._reparametrized(self._raw_jet(t))

    def _jet_columns(self, grid):
        """(jet at each s of grid as columns, mask of no lane): one batched
        inversion, the _compiled_columns of c, c1, c2 and c3 at t(s), then
        the chain rule."""
        raw = self.raw
        jet = _compiled_columns([self.amap.t_of_s_many(grid)], raw.c, raw.c1, raw.c2, raw.c3)
        return self._reparametrized(jet), np.zeros(len(grid), dtype=bool)

    def _raw_jet(self, t):
        """(c, c1, c2, c3) at t, evaluated c1, c2, c3 and then c: a lane
        where several fail raises the error of the chain rule's inputs."""
        raw = self.raw
        c1, c2, c3 = raw.c1(t), raw.c2(t), raw.c3(t)
        return raw.c(t), c1, c2, c3

    @staticmethod
    def _reparametrized(raw_jet) -> tuple:
        """(gamma, gamma', gamma'', gamma''') in s from the raw jet in t at
        t(s), floats or columns: the chain rule through t(s)."""
        c, c1, c2, c3 = raw_jet
        rule = _arclength_chain(c1, c2, c3)
        g1, g2, g3 = zip(*[_arclength_rule(x1, x2, x3, *rule) for x1, x2, x3 in zip(c1, c2, c3)])
        return c, g1, g2, g3


def resample_unit_speed(raw: ParamCurve, n: int = RESAMPLE_N) -> UnitSpeedCurve:
    """Arclength reparametrization of a regular curve, derivatives chained
    through third order."""
    amap = ArclengthMap(lambda ts: norm3(_compiled_columns([ts], raw.c1)[0]), raw.t_range, n)
    return _ResampledCurve(raw, amap)


class _UnitSpeedChartPath(ChartPath):
    """A chart path reparametrized to unit metric speed on one surface: its
    (u, v) and derivatives come together from one arclength inversion."""

    def __init__(self, surface: ParametricSurface, raw: ChartPath, amap: ArclengthMap):
        super().__init__(lambda s: self._sample(surface, s)[0], (0.0, amap.length))
        self.surface, self.raw, self.amap = surface, raw, amap

    def _sample(self, surface: ParametricSurface, s):
        """The chart sample at s: t(s), the raw path and the chart at t, then
        the chain rule through t(s); the chart point and third partials come
        along for the frame."""
        if surface is not self.surface:
            return super()._sample(surface, s)
        t, = self.amap.t_of_s_many([s]).tolist()
        return self._reparametrized(self.raw._sample(surface, t))

    def _sample_columns(self, surface: ParametricSurface, grid):
        """_sample at each s of grid as columns: one t_of_s_many call, the
        raw path's _sample_columns at t(s) and one chain rule on the
        columns."""
        if surface is not self.surface:
            return super()._sample_columns(surface, grid)
        sample, bad = self.raw._sample_columns(surface, self.amap.t_of_s_many(grid))
        return self._reparametrized(sample), bad

    @staticmethod
    def _reparametrized(sample) -> tuple:
        """A raw chart sample at t(s), floats or columns, with its path jet in
        t replaced by the unit-speed path jet in s."""
        ((u, v), *d), point, third = sample
        rule = _arclength_chain(*_chart_rule_jets(point[0], third, *d)[1:])
        u_jet, v_jet = (_arclength_rule(*x, *rule) for x in zip(*d))
        return ((u, v), *zip(u_jet, v_jet)), point, third


def unit_speed_chart_curve(surface: ParametricSurface, path: ChartPath,
                           n: int = RESAMPLE_N) -> CurveOnSurface:
    """Reparametrize a chart path to unit (metric) speed and wrap it as a
    CurveOnSurface."""

    def speed(ts):
        # |gamma'| = |u' sigma_u + v' sigma_v|, the path read on all lanes
        # before the chart
        u, v, du, dv = _compiled_columns([ts], path.first_order)[0]
        sigma_u, sigma_v = surface.tangents_many(u, v)
        return norm3(_lincomb(du, sigma_u.T, dv, sigma_v.T))

    amap = ArclengthMap(speed, path.s_range, n)
    return CurveOnSurface(surface, chart_path=_UnitSpeedChartPath(surface, path, amap))


# ---------------------------------------------------------------------------
# Grid helpers


def uniform_grid(s0: float, s1: float, n: int) -> np.ndarray:
    return np.linspace(float(s0), float(s1), int(n))


def _require_uniform(grid: np.ndarray):
    if len(grid) < 2:
        raise DarbouxError("grid needs at least 2 samples")
    steps = np.diff(grid)
    h = steps[0]
    if h <= 0 or not np.allclose(steps, h, rtol=1e-9, atol=1e-12 * abs(h)):
        raise DarbouxError("grid must be uniformly spaced and increasing")
