"""Isophote tracing: curves along which the surface normal keeps a constant
angle with a fixed axis.

The integrated field is the direction-free form of the constant-angle
condition: with g = <U, d>, an isophote is a level curve of g, so on a chart
the tangent solves g_u u' + g_v v' = 0 (normalized to unit metric speed) and
on an implicit surface it is grad(f) x grad(g), normalized.  The coefficient
forms Delta/Delta* (chart) and Omega (implicit) are kept as verification
operations evaluated with the realized direction: along a correct trace
Delta u' + Delta* v' and Omega . t vanish.

Integration is classical fixed-step RK4.  Branch continuity picks, at every
field evaluation, the sign that best aligns with the running tangent, and a
sample's own oriented slope is the first stage of the step that leaves it.
Each stage point is evaluated once, by one straight-line stage kernel per
surface kind (_chart_eval, _implicit_eval; see _integrate).  Implicit traces
are Newton-projected back to f = 0 after every step.  When a trace returns
within the closure radius of its seed it is closed with one final
shortened step landing on the seed's transversal plane (the one sample
exempt from the fixed-step spacing).

The trace runs on the float kernels of ``surface``: states, RK4 slopes,
jets, normals and recorded rows are tuples of Python floats, and arrays are
built only for the columns of the TraceResult.  A sample records only its
state: a chart sample its (u, v) and oriented slope, an implicit one its
point and unit tangent.  Where float arithmetic fails (an overflow, a
division by zero, a math domain error) a NumericalError is raised, or the
trace ends with an ``error:`` termination once it has samples.

A trace is one angle of a sweep (_sweep) of one surface, axis and seed:
each angle runs its own RK4 loop, then one column pass computes the
diagnostics of all their samples (U, <U, d>, k_n, tau_g, the verification
and speed residuals, |f|), which do not depend on the angle.  One kernel per
surface kind runs on the (N,) columns of the samples' jets, or f, grad f and
H, read in one pass of the surface's compiled columns, so each lane has the
bits of the public per-point functions, which run it on floats.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ARITHMETIC_ERRORS,
    DarbouxError,
    NumericalError,
    OutOfDomainError,
    ProjectionError,
    SeedError,
    SingularPointError,
    numerical,
)
from .surface import (
    ON_SURFACE_TOL,
    ImplicitSurface,
    ParametricSurface,
    _chart_w,
    _column,
    _compiled_columns,
    _cross,
    _div3,
    _first_form,
    _floats,
    _lincomb,
    _matvec,
    _normal_jacobian,
    _normal_partials,
    _point,
    _pow,
    _project,
    _sqrt,
    deriv_uniform,
    dot3,
    norm3,
)
# bound here by name: the benchmark's per-layer tracer wraps them on this module
from .surface import first_form, project_to_implicit, unit_normal  # noqa: F401

__all__ = [
    "TraceConfig",
    "TraceResult",
    "find_seed",
    "snap_seed",
    "isophote_direction_parametric",
    "delta_coefficients",
    "isophote_direction_implicit",
    "omega_coefficients",
    "trace_isophote",
]

EPS_SING_DEFAULT = 1e-10
FIND_SEED_TOL = 1e-12  # find_seed's point has |<U, d> - cos(phi)| <= FIND_SEED_TOL


@dataclass
class TraceConfig:
    step: float = 1e-3
    max_length: float = 10.0
    branch: str = "plus"  # initial sign of the direction field
    closure_tol: float | None = None  # default 2 * step
    eps_sing: float = EPS_SING_DEFAULT
    projection_tol: float = 1e-12
    project_isophote: bool = False
    seed_tol: float = 1e-9

    def __post_init__(self):
        if not (0.0 < self.step < math.inf and 0.0 < self.max_length < math.inf):
            raise ValueError("step and max_length must be positive and finite")
        if self.branch not in ("plus", "minus"):
            raise ValueError(f"branch must be 'plus' or 'minus', got {self.branch!r}")
        if self.closure_tol is not None and not 0.0 < self.closure_tol < math.inf:
            raise ValueError(f"closure_tol must be positive and finite, got {self.closure_tol!r}")
        if not 0.0 <= self.eps_sing < math.inf:
            raise ValueError(f"eps_sing must be a finite number >= 0, got {self.eps_sing!r}")
        if not 0.0 <= self.seed_tol < math.inf:
            raise ValueError(f"seed_tol must be a finite number >= 0, got {self.seed_tol!r}")
        if not 0.0 < self.projection_tol < math.inf:
            raise ValueError(
                f"projection_tol must be positive and finite, got {self.projection_tol!r}")

    @property
    def closure_radius(self) -> float:
        return self.closure_tol if self.closure_tol is not None else 2.0 * self.step


@dataclass
class TraceResult:
    """Ordered samples of a traced isophote with per-sample diagnostics.

    All samples are spaced ``step`` apart in arclength except a final
    closure sample.  ``constraint_residual`` is Delta u' + Delta* v' for
    chart traces and Omega . t, Omega = k_n d + tau_g (d x U), for implicit
    ones; ``angle_dot`` is <U, d>.
    """

    s: np.ndarray
    points: np.ndarray
    tangents: np.ndarray
    normals: np.ndarray
    angle_dot: np.ndarray
    constraint_residual: np.ndarray
    unit_speed_residual: np.ndarray
    kn: np.ndarray
    tg: np.ndarray
    termination: str
    d: np.ndarray
    phi: float
    chart: np.ndarray | None = None            # (n, 2) for parametric traces
    surface_residual: np.ndarray | None = None  # |f| for implicit traces
    grad_dot_t: np.ndarray | None = None        # grad(f) . t for implicit traces
    kg: np.ndarray = field(init=False)

    def __post_init__(self):
        self.kg = self._estimate_kg()

    @property
    def closed(self) -> bool:
        return self.termination == "closed"

    @property
    def n(self) -> int:
        return len(self.s)

    def _estimate_kg(self) -> np.ndarray:
        # k_g = gamma''.V with gamma'' differenced from the sampled tangents
        n = len(self.s)
        if n < 5:
            return np.full(n, np.nan)
        V = np.column_stack(_cross(self.normals.T, self.tangents.T))
        h = self.s[1] - self.s[0]
        uniform = n if self.termination != "closed" else n - 1
        kg = np.empty(n)
        dT = deriv_uniform(self.tangents[:uniform], h)
        kg[:uniform] = dot3(dT.T, V[:uniform].T)
        if uniform < n:
            ds = self.s[-1] - self.s[-2]
            dT_last = (self.tangents[-1] - self.tangents[-2]) / ds if ds > 0 else dT[-1]
            kg[-1] = dot3(dT_last.tolist(), V[-1].tolist())
        return kg


# ---------------------------------------------------------------------------
# Seed finding


def find_seed(surface, d, phi: float, guess, max_iter: int = 100, projection_tol: float = 1e-12,
              lines: dict | None = None):
    """Locate a point on the level set <U, d> = cos(phi) near ``guess``, to
    FIND_SEED_TOL.

    Parametric surfaces: 1-D bracket-and-bisect (with Newton polish) along
    the coordinate lines through the guess.  Implicit surfaces: projected
    Newton descent of <U, d> - cos(phi) in the tangent plane, each point
    projected onto f = 0 to ``projection_tol``.  Raises
    SeedError("no isophote at this level near guess") when no crossing is
    found, and ValueError for a bad ``projection_tol`` or ``max_iter``.
    ``lines`` keeps the <U, d> values read on a parametric guess's
    coordinate lines, for searches from the same guess, surface and axis.
    """
    if not 0.0 < projection_tol < math.inf:
        raise ValueError(f"projection_tol must be positive and finite, got {projection_tol!r}")
    if isinstance(max_iter, bool) or not isinstance(max_iter, (int, np.integer)) or max_iter < 0:
        raise ValueError(f"max_iter must be an int >= 0, got {max_iter!r}")
    return _find_seed(surface, d, phi, guess, max_iter, projection_tol, lines)


@numerical
def _find_seed(surface, d, phi, guess, max_iter, projection_tol, lines):
    d = _floats(_unit(d))
    target = math.cos(phi)
    if isinstance(surface, ParametricSurface):
        return _find_seed_parametric(surface, d, target, guess, FIND_SEED_TOL, max_iter,
                                     {} if lines is None else lines)
    return np.array(_find_seed_implicit(surface, d, target, guess, FIND_SEED_TOL, max_iter,
                                        projection_tol))


@numerical
def snap_seed(surface, d, phi: float, guess, config: TraceConfig, lines: dict | None = None):
    """The seed a trace from ``guess`` starts at: the guess itself (projected
    onto f = 0 on an implicit surface, as an array) where it is on the level
    <U, d> = cos(phi) to ``config.seed_tol``, else find_seed's point (with
    ``lines`` passed on).  The level is read as trace_isophote's seed check
    reads it."""
    adapter = _adapter(surface, d, phi, config)
    seed = adapter.start(guess)
    if abs(_angle_dot(adapter.evaluate(seed), adapter.d) - adapter.target) <= config.seed_tol:
        return guess if isinstance(surface, ParametricSurface) else np.array(seed)
    return find_seed(surface, d, phi, guess, projection_tol=config.projection_tol, lines=lines)


def _angle_value_parametric(surface, d, u, v):
    _, w, n = surface.chart_point(u, v)
    return dot3(_div3(w, n), d)


def _find_seed_parametric(surface, d, target, guess, tol, max_iter, lines):
    u0, v0 = float(guess[0]), float(guess[1])
    if abs(_angle_value_parametric(surface, d, u0, v0) - target) <= tol:
        return (u0, v0)

    on_v = lambda t: _angle_value_parametric(surface, d, u0, t)
    on_u = lambda t: _angle_value_parametric(surface, d, t, v0)
    for line, value, (lo, hi), center in (("v", on_v, surface.v_range, v0),
                                          ("u", on_u, surface.u_range, u0)):
        bracket = _nearest_bracket(value, target, lo, hi, center, lines.setdefault(line, {}))
        t = (None if bracket is None
             else _bisect_newton(lambda t: value(t) - target, *bracket, tol, max_iter))
        if t is not None:
            return (u0, t) if line == "v" else (t, v0)
    raise SeedError("no isophote at this level near guess")


def _nearest_bracket(value, target, lo, hi, center, values: dict, n: int = 256):
    """The cell of the n-cell grid on [lo, hi] whose ends g = value - target
    does not give the same sign and whose midpoint is nearest ``center`` (the
    lower index on a tie), as (a, g(a), b, g(b)), or None.  Cells are visited
    nearest first, so value is read only at the ends of the cells up to the
    chosen one and not again where ``values`` (grid index -> value, nan
    where value raised a DarbouxError: no sign) holds it already."""
    grid = np.linspace(lo, hi, n + 1)
    dists = np.abs(0.5 * (grid[:-1] + grid[1:]) - center)
    ts = grid.tolist()

    def g(i):
        if i not in values:
            try:
                values[i] = value(ts[i])
            except DarbouxError:
                values[i] = math.nan
        return values[i] - target

    for i in np.argsort(dists, kind="stable").tolist():
        if not dists[i] < np.inf:  # only inf and nan distances are left
            return None
        a, b = g(i), g(i + 1)
        if math.isnan(a) or math.isnan(b) or a * b > 0:
            continue
        return ts[i], a, ts[i + 1], b
    return None


def _bisect_newton(g, a, ga, b, gb, tol, max_iter):
    """A root of g in [a, b] from g's values ga, gb at the ends."""
    if ga == 0.0:
        return a
    if gb == 0.0:
        return b
    t = 0.5 * (a + b)
    for _ in range(max_iter):
        gt = g(t)
        if abs(gt) <= tol:
            return t
        if ga * gt < 0:
            b, gb = t, gt
        else:
            a, ga = t, gt
        # secant proposal inside the bracket, else plain bisection
        denom = gb - ga
        prop = a - ga * (b - a) / denom if denom != 0 else 0.5 * (a + b)
        t = prop if a < prop < b else 0.5 * (a + b)
    return t if abs(g(t)) <= tol else None


def _find_seed_implicit(surface, d, target, guess, tol, max_iter, projection_tol):
    p = _project(surface, _point(guess), projection_tol)
    for _ in range(max_iter):
        grad, H = surface._level(*p)
        n = norm3(grad)
        if n <= surface.eps_reg:
            raise SeedError("no isophote at this level near guess")
        nhat = _div3(grad, n)
        g = dot3(nhat, d) - target
        if abs(g) <= tol:
            return p
        grad_g = _level_gradient((grad, n, H), d)
        k = dot3(grad_g, nhat)
        gt = tuple([a - k * b for a, b in zip(grad_g, nhat)])
        gt2 = dot3(gt, gt)
        # the point's length scale: gt2 is a squared inverse length
        size = 1.0 + norm3(p)
        if gt2 * (size * size) <= 1e-30:
            break
        scale = -g / gt2
        step = tuple([scale * a for a in gt])
        # damp long steps; Newton is only trusted locally
        limit = 0.5 * size
        step_len = norm3(step)
        if step_len > limit:
            step = tuple([a * (limit / step_len) for a in step])
        try:
            p = _project(surface, tuple([a + b for a, b in zip(p, step)]), projection_tol)
        except ProjectionError:  # no seed where a Newton step lands beyond its reach
            break
    raise SeedError("no isophote at this level near guess")


# ---------------------------------------------------------------------------
# Direction fields: float kernels, and the public per-point functions over
# them


def _chart_eval(surface, d, eps_sing: float, key) -> tuple:
    """A chart point's evaluation at its wrapped key (u, v): (k, t3, error,
    sigma, w, |w|), w = sigma_u x sigma_v, with k = (u', v') the field's
    plus-branch slope (g_u u' + g_v v' = 0 at unit metric speed, g = <U, d>)
    and t3 = sigma_u u' + sigma_v v'.  Where the solve fails, k and t3 are
    None and error is its arithmetic error, or None at a singular point
    (|g_u|, |g_v| <= eps_sing).  Raises _chart_point's RegularityError where
    |w| <= eps_reg.  The operations of _chart_w, _first_form, dot3 and
    _lincomb in their order, written out."""
    jet = surface._jet_fn(*key)
    (a0, a1, a2), (b0, b1, b2) = jet[1], jet[2]
    w0, w1, w2 = w = (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
    n = math.sqrt(w0 * w0 + w1 * w1 + w2 * w2)
    if n <= surface.eps_reg:
        raise surface._irregular(*key)
    (x0, x1, x2), (y0, y1, y2) = _normal_partials(jet, w, n, n**3)
    d0, d1, d2 = d
    g_u = x0 * d0 + x1 * d1 + x2 * d2
    g_v = y0 * d0 + y1 * d1 + y2 * d2
    if abs(g_u) <= eps_sing and abs(g_v) <= eps_sing:
        return None, None, None, jet[0], w, n
    E, F, G = (a0 * a0 + a1 * a1 + a2 * a2, a0 * b0 + a1 * b1 + a2 * b2,
               b0 * b0 + b1 * b1 + b2 * b2)
    try:
        W = math.sqrt(E * g_v**2 - 2.0 * F * g_u * g_v + G * g_u**2)
        du, dv = -g_v / W, g_u / W
    except ARITHMETIC_ERRORS as exc:
        return None, None, exc, jet[0], w, n
    return ((du, dv), (du * a0 + dv * b0, du * a1 + dv * b1, du * a2 + dv * b2), None,
            jet[0], w, n)


def _chart_singular(u, v) -> SingularPointError:
    """A singular chart point, named at the state (u, v) asked for."""
    return SingularPointError("singular point of the isophote field: no isophotic curve with "
                              f"this axis/angle at (u, v)=({float(u):g}, {float(v):g})")


@numerical
def isophote_direction_parametric(surface: ParametricSurface, d, u: float, v: float,
                                  branch: str = "plus"):
    """Unit-metric-speed chart direction (u', v') of the isophote through
    (u, v): solves g_u u' + g_v v' = 0 for g = <U, d>.

    Raises SingularPointError when both g_u and g_v fall below EPS_SING_DEFAULT
    (no isophotic curve with this axis exists through the point)."""
    k, _, error = _chart_eval(surface, _floats(d), EPS_SING_DEFAULT, surface.wrap(u, v))[:3]
    if k is None:
        raise error or _chart_singular(u, v)
    return (-k[0], -k[1]) if branch == "minus" else k


@numerical
def direction_scalars_parametric(surface: ParametricSurface, d, u: float, v: float,
                                 direction) -> tuple[float, float]:
    """(k_n, tau_g) of a unit chart direction at a point (point functions of
    the direction, no curve needed)."""
    cols = _chart_columns(surface.chart_point(u, v)[0], _floats(d), *direction, 1.0)
    return cols["kn"], cols["tg"]


@numerical
def delta_coefficients(surface: ParametricSurface, d, u: float, v: float,
                       direction) -> tuple[float, float]:
    """Verification coefficients (Delta, Delta*) for a unit chart direction;
    along an isophote Delta u' + Delta* v' = 0.

    Delta  = sqrt(EG - F^2) k_n <sigma_u, d> + E tau_g <sigma_v, d> - F tau_g <sigma_u, d>
    Delta* = sqrt(EG - F^2) k_n <sigma_v, d> + F tau_g <sigma_v, d> - G tau_g <sigma_u, d>
    with k_n, tau_g evaluated for the supplied direction."""
    return _chart_columns(surface.chart_point(u, v)[0], _floats(d), *direction, 1.0)["delta"]


def _chart_columns(jet, d, du, dv, sign) -> dict:
    """Diagnostics of chart directions (u', v') = (du, dv) from the jets at
    their points: the float kernels on floats (one point) or on (N,) columns
    (a trace's samples), each lane with the bits of the float evaluation.
    Returns sigma, U, <U, d>, k_n, tau_g, (Delta, Delta*), Delta u' +
    Delta* v', E u'^2 + 2 F u' v' + G v'^2 - 1 and the tangent: sign (1.0
    or -1.0) times the tangent of sign (u', v'), as a trace negates the
    plus-branch tangent where it reverses the field (a zero keeps its sign).
    Where EG - F^2 < 0, Delta's _sqrt raises math's ValueError on floats and
    reads nan on a column lane."""
    with np.errstate(all="ignore"):
        sigma, su, sv, suu, suv, svv = jet
        w, n = _chart_w(jet)
        U = _div3(w, n)
        U_u, U_v = _normal_partials(jet, w, n, _pow(n, 3))
        E, F, G = _first_form(jet)
        t = _lincomb(du, su, dv, sv)
        kn = dot3(suu, U) * du * du + 2.0 * dot3(suv, U) * du * dv + dot3(svv, U) * dv * dv
        tg = -dot3(_lincomb(du, U_u, dv, U_v), _cross(U, t))
        su_d, sv_d = dot3(su, d), dot3(sv, d)
        root = _sqrt(E * G - F * F)
        delta = root * kn * su_d + E * tg * sv_d - F * tg * su_d
        delta_star = root * kn * sv_d + F * tg * sv_d - G * tg * su_d
        return {"points": sigma, "normals": U, "angle_dot": dot3(U, d), "kn": kn, "tg": tg,
                "tangents": tuple([sign * x for x in _lincomb(sign * du, su, sign * dv, sv)]),
                "delta": (delta, delta_star), "constraint_residual": delta * du + delta_star * dv,
                "unit_speed_residual": E * du * du + 2.0 * F * du * dv + G * dv * dv - 1.0}


@numerical
def isophote_direction_implicit(surface: ImplicitSurface, d, p,
                                branch: str = "plus") -> np.ndarray:
    """Unit tangent of the isophote through p on f = 0 (|f| <= ON_SURFACE_TOL):
    grad(f) x grad(g) normalized, g = <grad f, d>/|grad f|.

    Raises SingularPointError when the two gradients are parallel or grad(g)
    vanishes (the level set degenerates; no isophotic curve exists)."""
    p = _point(p)
    f = surface._f(*p)
    if abs(f) > ON_SURFACE_TOL:
        raise DarbouxError(f"point is not on the surface: |f| = {abs(f):g} > {ON_SURFACE_TOL:g}")
    t, _, error = _implicit_eval(surface, _floats(d), EPS_SING_DEFAULT, p)[:3]
    if t is None:
        raise error or _implicit_singular(p)
    return np.array(_negated(t) if branch == "minus" else t)


def _level_gradient(point, d) -> tuple:
    """grad g of g = <grad f, d>/|grad f| from a point's (grad f, |grad f|, H):
    H d/n - <grad f, d> H grad f/n^3, with dot3's sums written out."""
    (g0, g1, g2), n, ((a0, a1, a2), (b0, b1, b2), (c0, c1, c2)) = point
    d0, d1, d2 = d
    gd = g0 * d0 + g1 * d1 + g2 * d2
    n3 = n**3
    return ((a0 * d0 + a1 * d1 + a2 * d2) / n - gd * (a0 * g0 + a1 * g1 + a2 * g2) / n3,
            (b0 * d0 + b1 * d1 + b2 * d2) / n - gd * (b0 * g0 + b1 * g1 + b2 * g2) / n3,
            (c0 * d0 + c1 * d1 + c2 * d2) / n - gd * (c0 * g0 + c1 * g1 + c2 * g2) / n3)


def _implicit_eval(surface, d, eps_sing: float, p) -> tuple:
    """The evaluation of the surface point p, laid out as _chart_eval's: (t,
    t, error, p, grad f, |grad f|), t the plus unit tangent grad f x grad g
    over its norm.  Where that solve fails, t is None and error holds its
    arithmetic error, or None at a singular point (the norm <= eps_sing).
    The operations of level_point's check, _level_gradient, _cross and norm3
    in their order, written out."""
    grad, H = surface._level(*p)
    g0, g1, g2 = grad
    n = math.sqrt(g0 * g0 + g1 * g1 + g2 * g2)
    if n <= surface.eps_reg:
        raise surface._irregular(p)
    try:
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = H
        d0, d1, d2 = d
        gd = g0 * d0 + g1 * d1 + g2 * d2
        n3 = n**3
        l0 = (a0 * d0 + a1 * d1 + a2 * d2) / n - gd * (a0 * g0 + a1 * g1 + a2 * g2) / n3
        l1 = (b0 * d0 + b1 * d1 + b2 * d2) / n - gd * (b0 * g0 + b1 * g1 + b2 * g2) / n3
        l2 = (c0 * d0 + c1 * d1 + c2 * d2) / n - gd * (c0 * g0 + c1 * g1 + c2 * g2) / n3
        w0 = g1 * l2 - g2 * l1
        w1 = g2 * l0 - g0 * l2
        w2 = g0 * l1 - g1 * l0
        wn = math.sqrt(w0 * w0 + w1 * w1 + w2 * w2)
        if wn <= eps_sing:
            return None, None, None, p, grad, n
        t = (w0 / wn, w1 / wn, w2 / wn)
        return t, t, None, p, grad, n
    except ARITHMETIC_ERRORS as exc:
        return None, None, exc, p, grad, n


def _implicit_singular(p) -> SingularPointError:
    """A singular surface point, named at the state p asked for."""
    return SingularPointError(f"singular isophote point at {np.round(p, 9).tolist()}: "
                              "no isophotic curve with this axis/angle")


@numerical
def direction_scalars_implicit(surface: ImplicitSurface, d, p, t) -> tuple[float, float]:
    """(k_n, tau_g) of a unit tangent t at a surface point p."""
    cols = _implicit_point_columns(surface, d, p, t)
    return cols["kn"], cols["tg"]


@numerical
def omega_coefficients(surface: ImplicitSurface, d, p, t) -> np.ndarray:
    """Verification triple Omega = k_n d + tau_g (d x U), U the unit normal.
    Differentiating <U, d> = cos(phi) with U' = -k_n T - tau_g V gives
    k_n <t, d> + tau_g <t, d x U> = 0: along an isophote Omega . t = 0 and t
    is parallel to grad(f) x Omega."""
    return np.array(_implicit_point_columns(surface, d, p, t)["omega"])


def _implicit_point_columns(surface, d, p, t) -> dict:
    """_implicit_columns of one tangent t at one surface point p, on floats."""
    grad, n, H = surface.level_point(_point(p))
    return _implicit_columns(_floats(d), _floats(grad), n, _floats(H), _floats(t))


def _implicit_columns(d, g, n, H, t) -> dict:
    """Diagnostics of unit tangents t at points of f = 0 from g = grad f,
    n = |g| and the Hessian H by rows: the float kernels on floats (one
    point) or on (N,) columns (a trace's samples), each lane with the bits
    of the float evaluation.

    Returns the 3-vectors U = g/n and Omega = k_n d + tau_g (d x U),
    and the scalars <U, d>, k_n = -<t, H t>/n, tau_g = -<J t, U x t> with J
    the Jacobian of U (_normal_jacobian), Omega . t, |t| - 1 and
    grad f . t.  On columns an overflow gives inf or nan without a warning,
    as Python float arithmetic does; on floats the power n**3 raises
    OverflowError where it overflows."""
    with np.errstate(all="ignore"):
        U = _div3(g, n)
        kn = -dot3(t, _matvec(H, t)) / n
        tg = -dot3(_matvec(_normal_jacobian(g, n, H), t), _cross(U, t))
        omega = _lincomb(kn, d, tg, _cross(d, U))
        return {"normals": U, "angle_dot": dot3(U, d), "kn": kn, "tg": tg,
                "omega": omega, "constraint_residual": dot3(omega, t),
                "unit_speed_residual": norm3(t) - 1.0, "grad_dot_t": dot3(g, t)}


# ---------------------------------------------------------------------------
# Tracing


def _unit(d) -> np.ndarray:
    d = np.asarray(d, dtype=float)
    n = norm3(d.tolist())
    if not 0.0 < n < math.inf:  # also a nan or inf entry, or an overflowing length
        raise DarbouxError("axis must be a nonzero vector of finite length")
    return d / n


def _adapter(surface, d, phi, config):
    """The trace adapter of the isophote <U, d> = cos(phi), d normalized."""
    kind = _ChartTrace if isinstance(surface, ParametricSurface) else _ImplicitTrace
    return kind(surface, _floats(_unit(d)), math.cos(phi), config)


@numerical
def trace_isophote(surface, d, phi: float, seed, config: TraceConfig | None = None) -> TraceResult:
    """Trace the isophote <U, d> = cos(phi) from an on-level seed.

    The seed must satisfy the level to ``config.seed_tol`` (use find_seed to
    snap a guess).  Samples are ``config.step`` apart; the trace stops on
    max length, closure (one final shortened step onto the seed's
    transversal plane), leaving the chart domain, or a singular point.
    This is the one-angle sweep (_sweep).
    """
    results, error = _sweep(surface, d, (phi,), seed, config or TraceConfig(), snap=False)
    if error is not None:
        raise error
    return results[0]


def _sweep(surface, d, phis, seed, config: TraceConfig, snap: bool) -> tuple:
    """The traces of <U, d> = cos(phi) for phi in phis, in order, from
    ``seed``, or (snap) from snap_seed's seed for it as a guess, the guess's
    coordinate lines scanned once for all angles.  Each angle runs its own
    RK4 loop (_integrate); one column pass then computes the diagnostics of
    all their samples, and a trace ends at its first lane that raises on
    floats.  Returns the results of the angles before the first that fails
    (its snap, seed or seed lane raises; no later angle is traced after a
    failed snap or seed) and that failure, else None."""
    lines, traces, blocks, error = {}, [], [], None
    for phi in phis:
        try:
            phi = float(phi)
            adapter = _adapter(surface, d, phi, config)
            start = snap_seed(surface, d, phi, seed, config, lines) if snap else seed
            rows, termination = _integrate(adapter, start)
            blocks.append([_column(x) for x in zip(*rows)])  # rows are not kept as tuples
            traces.append((adapter, phi, len(rows), termination))
        except (DarbouxError, *ARITHMETIC_ERRORS) as exc:
            error = exc if isinstance(exc, DarbouxError) else NumericalError.of(exc)
            break
    if not traces:
        return [], error
    arrays = blocks[0] if len(blocks) == 1 else [np.concatenate(x) for x in zip(*blocks)]
    columns, failures = traces[0][0].columns(*arrays)
    results, hi = [], 0
    for adapter, phi, n_rows, termination in traces:
        lo, hi = hi, hi + n_rows
        n, exc = next(((i, e) for i, e in failures if lo <= i < hi), (hi, None))
        if n == lo:
            return results, NumericalError.of(exc)
        if exc is not None:
            termination = f"error: {NumericalError.of(exc)}"
        results.append(TraceResult(**{name: x[lo:n] for name, x in columns.items()},
                                   termination=termination, d=np.array(adapter.d), phi=phi))
    return results, error


def _axpy3(y, a, k) -> tuple:
    """y + a k for a state y and a slope k of 3 components."""
    return (y[0] + a * k[0], y[1] + a * k[1], y[2] + a * k[2])


def _rk4_sum(y, a, k1, k2, k3, k4) -> tuple:
    """y + a (k1 + 2 k2 + 2 k3 + k4) for a state of 2 or 3 components, the
    slopes summed left to right per component (1.0 k4 is k4 bit for bit)."""
    if len(y) == 2:
        return (y[0] + a * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
                y[1] + a * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]))
    return (y[0] + a * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
            y[1] + a * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
            y[2] + a * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2]))


def _angle_dot(point, d) -> float:
    """<U, d> at an evaluated point, U its normal w/|w| or grad f/|grad f|."""
    return dot3(_div3(point[4], point[5]), d)


def _integrate(adapter, seed) -> tuple:
    """Fixed-step RK4 along an adapter's direction field, with branch
    continuity and closure onto the seed: the rows the adapter records, one
    per sample, and the termination.

    The adapter (_ChartTrace or _ImplicitTrace) maps the seed to a state,
    (y, a, k) to the key of the RK4 stage point y + a k in one call (stage:
    the point wrapped on a chart, the point itself on f = 0) and a key to
    its evaluation by its surface kind's stage kernel (_chart_eval or
    _implicit_eval), which carries the field's plus-branch slope or the
    error its solve raised.  It orients that slope into an RK4 slope and a
    3-D tangent (raising the error there, so a seed off its level is
    reported first), fixes up each new state (wrap or reprojection; a state
    is its own key) and records a sample.  States, slopes and tangents are
    tuples of floats.  Each sample's oriented slope is the first RK4 stage
    of the step that leaves it, and a stage whose key repeats the last one
    shares its evaluation.  A sample's tangent is normalized for the
    closure test only within the closure radius of the seed.
    """
    config, stage, record = adapter.config, adapter.stage, adapter.record
    evaluate, direction, fix = adapter.evaluate, adapter.direction, adapter.fix

    def step(y, h, k1, ref, s):
        # one RK4 step from the sample y with its oriented slope k1 and
        # tangent ref, and the new sample's (state, evaluation, slope,
        # tangent), recorded at arclength s
        nonlocal last_key, last
        c = stage(y, 0.5 * h, k1)
        if c != last_key:
            last_key, last = c, evaluate(c)
        k2 = direction(c, last, ref)[0]
        c = stage(y, 0.5 * h, k2)
        if c != last_key:
            last_key, last = c, evaluate(c)
        k3 = direction(c, last, ref)[0]
        c = stage(y, h, k3)
        if c != last_key:
            last_key, last = c, evaluate(c)
        k4 = direction(c, last, ref)[0]
        y = fix(*_rk4_sum(y, h / 6.0, k1, k2, k3, k4))
        if y != last_key:
            last_key, last = y, evaluate(y)
        k, t3 = direction(y, last, ref)
        rows.append(record(s, y, last, k, t3))
        return y, last, k, t3

    y = adapter.start(seed)
    last_key, last = y, evaluate(y)
    gap = abs(_angle_dot(last, adapter.d) - adapter.target)
    if not gap <= config.seed_tol:
        raise SeedError(f"seed is not on the isophote level: |<U,d> - cos(phi)| = {gap:g} > "
                        f"{config.seed_tol:g}; use find_seed")

    k, t3 = direction(y, last, None)
    if config.branch == "minus":
        k, t3 = _negated(k), _negated(t3)
    seed_point, seed_tan = last[3], adapter.unit(t3)
    rows = [record(0.0, y, last, k, t3)]
    h = config.step
    radius, s_closing = config.closure_radius, 10.0 * h
    termination = "length reached"
    try:
        n_steps = int(math.floor(config.max_length / h + 1e-9))
        s_done = 0.0
        for _ in range(n_steps):
            s_done += h
            y, point, k, t3 = step(y, h, k, t3, s_done)
            if s_done < s_closing:
                continue
            delta = _closure_step(point[3], t3, adapter.unit, seed_point, seed_tan, radius, h)
            if delta is not None:
                step(y, delta, k, t3, s_done + delta)
                termination = "closed"
                break
    except OutOfDomainError:
        termination = "left domain"
    except SingularPointError:
        termination = "singular point"
    except DarbouxError as exc:
        termination = f"error: {exc}"
    except ARITHMETIC_ERRORS as exc:
        termination = f"error: {NumericalError.of(exc)}"
    return rows, termination


def _negated(x) -> tuple:
    return tuple([-a for a in x])


def _closure_step(p, t3, unit, seed_p, seed_t, radius, step):
    """Length of a final step from the sample at p with tangent t3 landing
    on the seed's transversal plane, or None if not closing here.  The unit
    tangent unit(t3) is computed only within ``radius`` of the seed."""
    p0, p1, p2 = p
    a0, a1, a2 = seed_p
    g0, g1, g2 = a0 - p0, a1 - p1, a2 - p2
    if math.sqrt(g0 * g0 + g1 * g1 + g2 * g2) > radius:
        return None
    if dot3(unit(t3), seed_t) < 0.5:
        return None
    delta = dot3((g0, g1, g2), seed_t)
    if not 0.0 < delta <= step:
        return None
    return delta


class _ChartTrace:
    """Isophote on a chart.  The state is (u, v), wrapped after each step;
    RK4 slopes are (u', v') and the reference tangent is sigma_u u' + sigma_v v'.
    A stage point's key is the point wrapped, so equal points share a key,
    and a key's evaluation is _chart_eval's.  A sample's record is its state,
    its oriented slope and the slope's sign against the plus branch; the
    diagnostic columns of a sweep's records are computed once, after their
    loops, by _chart_columns on one pass of the surface's jet columns."""

    def __init__(self, surface, d, target, config):
        self.surface, self.d, self.target, self.config = surface, d, target, config
        self.evaluate = functools.partial(_chart_eval, surface, d, config.eps_sing)
        self.fix = wrap = surface.wrap
        self.stage = lambda y, a, k: wrap(y[0] + a * k[0], y[1] + a * k[1])

    def start(self, seed):
        return self.surface.wrap(float(seed[0]), float(seed[1]))

    def direction(self, y, point, ref):
        k, t3 = point[0], point[1]
        if k is None:
            raise point[2] or _chart_singular(y[0], y[1])
        if ref is not None and t3[0] * ref[0] + t3[1] * ref[1] + t3[2] * ref[2] < 0.0:
            return (-k[0], -k[1]), (-t3[0], -t3[1], -t3[2])
        return k, t3

    unit = staticmethod(lambda t3: _div3(t3, norm3(t3)))

    def record(self, s, y, point, k, t3):
        return s, y, k, 1.0 if k is point[0] else -1.0

    def columns(self, s, y, k, sign) -> tuple:
        jet = _compiled_columns(tuple(y.T), self.surface._jet_fn)[0]
        cols = _chart_columns(jet, self.d, *k.T, sign)
        del cols["delta"]
        # a lane that raises on floats (a negative EG - F^2) reads nan: each
        # such lane, in order, with its error
        failures = []
        for i in np.flatnonzero(np.isnan(cols["constraint_residual"])).tolist():
            try:
                jet = self.surface._chart_point(*y[i].tolist())[0]
                _chart_columns(jet, self.d, *k[i].tolist(), sign[i])
            except ARITHMETIC_ERRORS as exc:
                failures.append((i, exc))
        cols = {name: np.column_stack(x) if isinstance(x, tuple) else x
                for name, x in cols.items()}
        return {"s": s, "chart": y, **cols}, failures


class _ImplicitTrace:
    """Isophote on f = 0.  The state is the point itself, Newton-projected
    back onto the surface (and optionally the level) after each step; the
    RK4 slope is the unit tangent.  A stage point is its own key (_axpy3),
    and a key's evaluation is _implicit_eval's.

    A sample's record is its state, the point and its unit tangent.  The
    diagnostic columns of a sweep's records are computed once, after their
    loops, by _implicit_columns on one pass of the surface's f and level
    columns, which cannot raise: the loop has read both at every point it
    recorded (f in the projection, level in the evaluation)."""

    def __init__(self, surface, d, target, config):
        self.surface, self.d, self.target, self.config = surface, d, target, config
        self.evaluate = functools.partial(_implicit_eval, surface, d, config.eps_sing)

    def start(self, seed):
        return _project(self.surface, _point(seed), self.config.projection_tol)

    # a point is its own key, and the field's tangent is unit already
    stage = staticmethod(_axpy3)
    unit = staticmethod(lambda t: t)

    def direction(self, p, point, ref):
        t = point[0]
        if t is None:
            raise point[2] or _implicit_singular(p)
        if ref is not None and t[0] * ref[0] + t[1] * ref[1] + t[2] * ref[2] < 0.0:
            t = (-t[0], -t[1], -t[2])
        return t, t

    def fix(self, *q):
        q = _project(self.surface, q, self.config.projection_tol)
        if self.config.project_isophote:
            q = _project_two_constraints(self.surface, self.d, self.target, q,
                                         self.config.projection_tol)
        return q

    def record(self, s, q, point, k, t):
        return s, q, t

    def columns(self, s, q, t) -> tuple:
        f, (grad, H) = _compiled_columns(tuple(q.T), self.surface._f, self.surface._level)
        cols = _implicit_columns(self.d, grad, norm3(grad), H, t.T)
        del cols["omega"]
        cols["normals"] = np.column_stack(cols["normals"])
        return {"s": s, "points": q, "tangents": t, "surface_residual": np.abs(f), **cols}, ()


def _project_two_constraints(surface, d, target, p, tol):
    """Newton onto {f = 0} intersected with {<U, d> = cos(phi)}: each step
    solves (J J^T) x = -(f, g) for the 2x3 Jacobian J = (grad f; grad g) in
    closed form and moves by J^T x.  A singular system leaves p as it is.
    Returns the point, where f has been read (once more after a last step
    that moved it, so that f's error at the point is raised here)."""
    for _ in range(8):
        grad, H = surface._level(*p)
        n = norm3(grad)
        f = surface._f(*p)
        g = dot3(grad, d) / n - target
        if abs(f) <= tol and abs(g) <= tol:
            return p
        grad_g = _level_gradient((grad, n, H), d)
        a, b, c = dot3(grad, grad), dot3(grad, grad_g), dot3(grad_g, grad_g)
        det = a * c - b * b
        if det == 0.0:
            return p
        x0 = (b * g - c * f) / det
        x1 = (b * f - a * g) / det
        p = tuple([pi + (x0 * ai + x1 * bi) for pi, ai, bi in zip(p, grad, grad_g)])
    surface._f(*p)
    return p
