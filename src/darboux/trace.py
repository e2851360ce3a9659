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
Each point is evaluated once, by straight-line kernels per surface kind,
with the field's plus-branch slope or the error its solve raised (met where
the slope is read); a sample's evaluation is passed to its record.
Implicit traces are Newton-projected back to f = 0 after every step.  When a
trace returns to its seed it is closed with one final shortened step landing
on the seed's transversal plane (the one sample exempt from the fixed-step
spacing).

The trace runs on the float kernels of ``surface``: states, RK4 slopes,
jets, normals and recorded rows are tuples of Python floats, and arrays are
built only for the columns of the TraceResult.  A chart sample records its
row of diagnostics.  An implicit sample records only what can fail or needs
a Python float (the point, its tangent, grad f, |grad f|, H and |f|); its
diagnostics (U, <U, d>, k_n, tau_g, Omega . t, |t| - 1 and grad f . t) are
computed once, after the RK4 loop, by the same float kernels run on the
samples' (N,) columns (the kernels ``frames`` runs for a space curve's
U and U'), so each lane has the bits of the per-point functions.  Those
public functions (directions, scalars, verification coefficients) run the
kernels on floats.  Where float arithmetic fails (an overflow, a division
by zero, a math domain error) a NumericalError is raised, or the trace ends
with an ``error:`` termination once it has samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ARITHMETIC_ERRORS,
    DarbouxError,
    NumericalError,
    OutOfDomainError,
    SeedError,
    SingularPointError,
    numerical,
)
from .frames import deriv_uniform
from .surface import (
    ImplicitSurface,
    ParametricSurface,
    _column,
    _cross,
    _div3,
    _floats,
    _lincomb,
    _matvec,
    _normal_jacobian,
    _normal_partials,
    _point,
    _project,
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
        if self.step <= 0 or self.max_length <= 0:
            raise ValueError("step and max_length must be positive")
        if self.branch not in ("plus", "minus"):
            raise ValueError(f"branch must be 'plus' or 'minus', got {self.branch!r}")

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


@numerical
def find_seed(surface, d, phi: float, guess, tol: float = 1e-12,
              max_iter: int = 100, projection_tol: float = 1e-12):
    """Locate a point on the level set <U, d> = cos(phi) near ``guess``.

    Parametric surfaces: 1-D bracket-and-bisect (with Newton polish) along
    the coordinate lines through the guess.  Implicit surfaces: projected
    Newton descent of <U, d> - cos(phi) in the tangent plane, each point
    projected onto f = 0 to ``projection_tol``.  Raises
    SeedError("no isophote at this level near guess") when no crossing is
    found.
    """
    d = _floats(_unit(d))
    target = math.cos(phi)
    if isinstance(surface, ParametricSurface):
        return _find_seed_parametric(surface, d, target, guess, tol, max_iter)
    return np.array(_find_seed_implicit(surface, d, target, guess, tol, max_iter,
                                        projection_tol))


@numerical
def snap_seed(surface, d, phi: float, guess, config: TraceConfig):
    """The seed a trace from ``guess`` starts at: the guess itself (projected
    onto f = 0 on an implicit surface, as an array) where it is on the level
    <U, d> = cos(phi) to ``config.seed_tol``, else find_seed's point.  The
    level is read as trace_isophote's seed check reads it."""
    adapter = _adapter(surface, d, phi, config)
    seed = adapter.start(guess)
    if abs(adapter.level(adapter.evaluate(seed)) - adapter.target) <= config.seed_tol:
        return guess if isinstance(surface, ParametricSurface) else np.array(seed)
    return find_seed(surface, d, phi, guess, projection_tol=config.projection_tol)


def _angle_value_parametric(surface, d, u, v):
    _, w, n = surface.chart_point(u, v)
    return dot3(_div3(w, n), d)


def _find_seed_parametric(surface, d, target, guess, tol, max_iter):
    u0, v0 = float(guess[0]), float(guess[1])
    if abs(_angle_value_parametric(surface, d, u0, v0) - target) <= tol:
        return (u0, v0)

    on_v = lambda t: _angle_value_parametric(surface, d, u0, t) - target
    on_u = lambda t: _angle_value_parametric(surface, d, t, v0) - target
    for g, (lo, hi), center in ((on_v, surface.v_range, v0), (on_u, surface.u_range, u0)):
        bracket = _nearest_bracket(g, lo, hi, center)
        t = None if bracket is None else _bisect_newton(g, *bracket, tol, max_iter)
        if t is not None:
            return (u0, t) if g is on_v else (t, v0)
    raise SeedError("no isophote at this level near guess")


def _nearest_bracket(g, lo, hi, center, n: int = 256):
    """The cell of the n-cell grid on [lo, hi] whose ends g does not give
    the same sign and whose midpoint is nearest ``center`` (the lower index
    on a tie), as (a, g(a), b, g(b)), or None.  Cells are visited nearest
    first, so g is evaluated only at the ends of the cells up to the chosen
    one; a point where g raises a DarbouxError has no sign."""
    grid = np.linspace(lo, hi, n + 1)
    dists = np.abs(0.5 * (grid[:-1] + grid[1:]) - center)
    ts = grid.tolist()
    vals = {}

    def value(i):
        if i not in vals:
            try:
                vals[i] = g(ts[i])
            except DarbouxError:
                vals[i] = math.nan
        return vals[i]

    for i in np.argsort(dists, kind="stable").tolist():
        if not dists[i] < np.inf:  # only inf and nan distances are left
            return None
        a, b = value(i), value(i + 1)
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
    p, _ = _project(surface, _point(guess), projection_tol)
    for _ in range(max_iter):
        grad = surface._grad(*p)
        n = norm3(grad)
        if n <= surface.eps_reg:
            raise SeedError("no isophote at this level near guess")
        nhat = _div3(grad, n)
        g = dot3(nhat, d) - target
        if abs(g) <= tol:
            return p
        grad_g = _level_gradient((grad, n, surface._level(*p)[1]), d)
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
        p, _ = _project(surface, tuple([a + b for a, b in zip(p, step)]), projection_tol)
    raise SeedError("no isophote at this level near guess")


# ---------------------------------------------------------------------------
# Direction fields: float kernels, and the public per-point functions over
# them


def _chart_stage(point, d) -> tuple:
    """A chart point's (jet, U, U_u, U_v, (E, F, G), g_u, g_v) from its
    (jet, w, |w|) and the axis d: U = w/|w| and its partials, the first
    form and the partials of g = <U, d>.  Straight-line code with the
    operations of _div3, _first_form and dot3 in their order."""
    jet, w, n = point
    (x0, x1, x2), (y0, y1, y2) = U_u, U_v = _normal_partials(jet, w, n, n**3)
    a0, a1, a2 = jet[1]
    b0, b1, b2 = jet[2]
    d0, d1, d2 = d
    return (jet, (w[0] / n, w[1] / n, w[2] / n), U_u, U_v,
            (a0 * a0 + a1 * a1 + a2 * a2, a0 * b0 + a1 * b1 + a2 * b2,
             b0 * b0 + b1 * b1 + b2 * b2),
            x0 * d0 + x1 * d1 + x2 * d2, y0 * d0 + y1 * d1 + y2 * d2)


def _chart_solve(stage, eps_sing: float) -> tuple:
    """(k, t3, error) at a _chart_stage: the field's plus-branch slope
    k = (u', v') (g_u u' + g_v v' = 0 at unit metric speed) and its tangent
    t3 = sigma_u u' + sigma_v v', with _lincomb's operations.  Where the
    solve fails, k and t3 are None and error is its arithmetic error, or
    None at a singular point (|g_u|, |g_v| <= eps_sing)."""
    jet, _, _, _, (E, F, G), g_u, g_v = stage
    if abs(g_u) <= eps_sing and abs(g_v) <= eps_sing:
        return None, None, None
    try:
        W = math.sqrt(E * g_v**2 - 2.0 * F * g_u * g_v + G * g_u**2)
        du, dv = -g_v / W, g_u / W
    except ARITHMETIC_ERRORS as exc:
        return None, None, exc
    (a0, a1, a2), (b0, b1, b2) = jet[1], jet[2]
    return (du, dv), (du * a0 + dv * b0, du * a1 + dv * b1, du * a2 + dv * b2), None


def _chart_singular(u, v) -> SingularPointError:
    """A singular chart point, named at the state (u, v) asked for."""
    return SingularPointError("singular point of the isophote field: no isophotic curve with "
                              f"this axis/angle at (u, v)=({float(u):g}, {float(v):g})")


def isophote_direction_parametric(surface: ParametricSurface, d, u: float, v: float,
                                  branch: str = "plus",
                                  eps_sing: float = EPS_SING_DEFAULT):
    """Unit-metric-speed chart direction (u', v') of the isophote through
    (u, v): solves g_u u' + g_v v' = 0 for g = <U, d>.

    Raises SingularPointError when both g_u and g_v fall below ``eps_sing``
    (no isophotic curve with this axis exists through the point)."""
    k, _, error = _chart_solve(_chart_stage(surface.chart_point(u, v), _floats(d)), eps_sing)
    if k is None:
        raise error or _chart_singular(u, v)
    return (-k[0], -k[1]) if branch == "minus" else k


def direction_scalars_parametric(surface: ParametricSurface, d, u: float, v: float,
                                 direction) -> tuple[float, float]:
    """(k_n, tau_g) of a unit chart direction at a point (point functions of
    the direction, no curve needed)."""
    jet, U, U_u, U_v, *_ = _chart_stage(surface.chart_point(u, v), _floats(d))
    return _chart_scalars(jet, U, U_u, U_v, direction)


def _chart_scalars(jet, U, U_u, U_v, direction) -> tuple[float, float]:
    """(k_n, tau_g) of a chart direction from the point's jet, unit normal
    and normal partials."""
    du, dv = direction
    _, su, sv, suu, suv, svv = jet
    L = dot3(suu, U)
    M = dot3(suv, U)
    N = dot3(svv, U)
    kn = L * du * du + 2.0 * M * du * dv + N * dv * dv
    V = _cross(U, _lincomb(du, su, dv, sv))
    tg = -dot3(_lincomb(du, U_u, dv, U_v), V)
    return kn, tg


def delta_coefficients(surface: ParametricSurface, d, u: float, v: float,
                       direction) -> tuple[float, float]:
    """Verification coefficients (Delta, Delta*) for a unit chart direction;
    along an isophote Delta u' + Delta* v' = 0.

    Delta  = sqrt(EG - F^2) k_n <sigma_u, d> + E tau_g <sigma_v, d> - F tau_g <sigma_u, d>
    Delta* = sqrt(EG - F^2) k_n <sigma_v, d> + F tau_g <sigma_v, d> - G tau_g <sigma_u, d>
    with k_n, tau_g evaluated for the supplied direction."""
    d = _floats(d)
    jet, U, U_u, U_v, ff, *_ = _chart_stage(surface.chart_point(u, v), d)
    kn, tg = _chart_scalars(jet, U, U_u, U_v, direction)
    return _delta(jet, ff, d, kn, tg)


def _delta(jet, ff, d, kn, tg) -> tuple[float, float]:
    """(Delta, Delta*) from the point's jet and first form (E, F, G) and the
    direction's (k_n, tau_g)."""
    E, F, G = ff
    su_d = dot3(jet[1], d)
    sv_d = dot3(jet[2], d)
    root = math.sqrt(E * G - F * F)
    delta = root * kn * su_d + E * tg * sv_d - F * tg * su_d
    delta_star = root * kn * sv_d + F * tg * sv_d - G * tg * su_d
    return delta, delta_star


def isophote_direction_implicit(surface: ImplicitSurface, d, p, branch: str = "plus",
                                eps_sing: float = EPS_SING_DEFAULT,
                                on_surface_tol: float = 1e-9) -> np.ndarray:
    """Unit tangent of the isophote through p on f = 0: grad(f) x grad(g)
    normalized, g = <grad f, d>/|grad f|.

    Raises SingularPointError when the two gradients are parallel or grad(g)
    vanishes (the level set degenerates; no isophotic curve exists)."""
    p = _point(p)
    f = surface._f(*p)
    if abs(f) > on_surface_tol:
        raise DarbouxError(f"point is not on the surface: |f| = {abs(f):g} > {on_surface_tol:g}")
    *_, t, error = _implicit_stage(surface.level_point(p), _floats(d), eps_sing)
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


def _implicit_stage(point, d, eps_sing: float) -> tuple:
    """A surface point's evaluation from its (grad f, |grad f|, H) and the
    axis d: (grad f, |grad f|, H, t, error), t the plus unit tangent
    grad f x grad g over its norm, written out.  Where that solve fails, t
    is None and error holds its arithmetic error, or None at a singular
    point (the norm within ``eps_sing`` of 0)."""
    grad, n, H = point
    try:
        g0, g1, g2 = grad
        l0, l1, l2 = _level_gradient(point, d)
        w0 = g1 * l2 - g2 * l1
        w1 = g2 * l0 - g0 * l2
        w2 = g0 * l1 - g1 * l0
        wn = math.sqrt(w0 * w0 + w1 * w1 + w2 * w2)
        if wn <= eps_sing:
            return grad, n, H, None, None
        return grad, n, H, (w0 / wn, w1 / wn, w2 / wn), None
    except ARITHMETIC_ERRORS as exc:
        return grad, n, H, None, exc


def _implicit_singular(p) -> SingularPointError:
    """A singular surface point, named at the state p asked for."""
    return SingularPointError(f"singular isophote point at {np.round(p, 9).tolist()}: "
                              "no isophotic curve with this axis/angle")


def direction_scalars_implicit(surface: ImplicitSurface, d, p, t) -> tuple[float, float]:
    """(k_n, tau_g) of a unit tangent t at a surface point p."""
    cols = _implicit_point_columns(surface, d, p, t)
    return cols["kn"], cols["tg"]


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
    """
    config = config or TraceConfig()
    phi = float(phi)
    return _integrate(_adapter(surface, d, phi, config), phi, seed)


# TraceResult fields every trace fills, in the order of a chart record's row
_ROW_FIELDS = ("s", "points", "tangents", "normals", "angle_dot", "constraint_residual",
               "unit_speed_residual", "kn", "tg")


def _axpy(y, a, k) -> tuple:
    """y + a k for a state y and slope k of 2 or 3 components, written out."""
    if len(y) == 2:
        return (y[0] + a * k[0], y[1] + a * k[1])
    return (y[0] + a * k[0], y[1] + a * k[1], y[2] + a * k[2])


def _integrate(adapter, phi, seed):
    """Fixed-step RK4 along an adapter's direction field, with branch
    continuity, closure onto the seed and one record per sample.

    The adapter (_ChartTrace or _ImplicitTrace) maps the seed to a state, an
    RK4 stage point to the key of its point (a chart point wrapped once; a
    state, wrapped or reprojected already, is its own key) and a key to its
    evaluation, which carries the field's plus-branch slope or the error its
    solve raised.  It orients that slope into an RK4 slope and a 3-D tangent
    (raising the error there, so a seed off its level is reported first), fixes
    up each new state (wrap or reprojection) and records a sample.  States,
    slopes and tangents are tuples of floats.  Each sample's oriented slope is
    the first RK4 stage of the step that leaves it (the field oriented by its
    own tangent is the slope again, bit for bit), and its evaluation is passed
    to its record and closure test.  The last evaluated key and its evaluation
    are kept while the requested key repeats, so stages whose slopes agree
    share one evaluation.
    """
    config = adapter.config
    last = [None, None]

    def at(key):
        if key != last[0]:
            last[:] = key, adapter.evaluate(key)
        return last[1]

    def field(y, ref):
        return adapter.direction(y, at(adapter.key(y)), ref)[0]

    def step(y, h, k1, ref):
        k2 = field(_axpy(y, 0.5 * h, k1), ref)
        k3 = field(_axpy(y, 0.5 * h, k2), ref)
        k4 = field(_axpy(y, h, k3), ref)
        # y + h/6 (k1 + 2 k2 + 2 k3 + k4), summed left to right (1.0 k4 is k4)
        return adapter.fix(_axpy(y, h / 6.0, _axpy(_axpy(_axpy(k1, 2.0, k2), 2.0, k3), 1.0, k4)))

    rows = []

    def record(s, y, point, k, t3):
        rows.append((s, *adapter.record(y, point, k, t3)))

    y = adapter.start(seed)
    point = at(y)
    level = adapter.level(point)
    if not abs(level - adapter.target) <= config.seed_tol:
        raise SeedError(
            f"seed is not on the isophote level: |<U,d> - cos(phi)| = "
            f"{abs(level - adapter.target):g} > {config.seed_tol:g}; use find_seed"
        )

    k, t3 = adapter.direction(y, point, None)
    if config.branch == "minus":
        k, t3 = _negated(k), _negated(t3)
    seed_point, seed_tan = adapter.closure_frame(y, point, t3)
    record(0.0, y, point, k, t3)
    h = config.step
    termination = "length reached"
    try:
        n_steps = int(math.floor(config.max_length / h + 1e-9))
        s_done = 0.0
        for _ in range(n_steps):
            y = step(y, h, k, t3)
            s_done += h
            point = at(y)
            k, t3 = adapter.direction(y, point, t3)
            record(s_done, y, point, k, t3)
            delta = _closure_step(*adapter.closure_frame(y, point, t3),
                                  seed_point, seed_tan, s_done, config)
            if delta is not None:
                y = step(y, delta, k, t3)
                s_done += delta
                point = at(y)
                k, t3 = adapter.direction(y, point, t3)
                record(s_done, y, point, k, t3)
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
    return TraceResult(**adapter.columns(*map(_column, zip(*rows))),
                       termination=termination, d=np.array(adapter.d), phi=phi)


def _negated(x) -> tuple:
    return tuple([-a for a in x])


def _closure_step(p, t, seed_p, seed_t, s_done, config):
    """Length of a final step landing on the seed's transversal plane, or
    None if not closing here."""
    if s_done < 10.0 * config.step:
        return None
    p0, p1, p2 = p
    a0, a1, a2 = seed_p
    g0, g1, g2 = a0 - p0, a1 - p1, a2 - p2
    if math.sqrt(g0 * g0 + g1 * g1 + g2 * g2) > config.closure_radius:
        return None
    if dot3(t, seed_t) < 0.5:
        return None
    delta = dot3((g0, g1, g2), seed_t)
    if not 0.0 < delta <= config.step:
        return None
    return delta


class _ChartTrace:
    """Isophote on a chart.  The state is (u, v), wrapped after each step;
    RK4 slopes are (u', v') and the reference tangent is sigma_u u' + sigma_v v'.
    A point's evaluation is its _chart_stage and _chart_solve.  A sample's
    record is its row of TraceResult fields."""

    def __init__(self, surface, d, target, config):
        self.surface, self.d, self.target, self.config = surface, d, target, config

    def start(self, seed):
        return self.surface.wrap(float(seed[0]), float(seed[1]))

    def level(self, point):
        return dot3(point[1], self.d)

    def evaluate(self, key):
        # the key is wrapped already: evaluating it wraps nothing again
        stage = _chart_stage(self.surface._chart_point(*key), self.d)
        return stage + _chart_solve(stage, self.config.eps_sing)

    def direction(self, y, point, ref):
        k, t3 = point[7], point[8]
        if k is None:
            raise point[-1] or _chart_singular(y[0], y[1])
        if ref is not None and dot3(t3, ref) < 0.0:
            return (-k[0], -k[1]), _negated(t3)
        return k, t3

    def fix(self, y):
        return self.surface.wrap(y[0], y[1])

    # an RK4 stage point: wrapping sends equal points to one key
    key = fix

    def closure_frame(self, y, point, t3):
        return point[0][0], _div3(t3, norm3(t3))

    def record(self, y, point, k, t3):
        jet, U, U_u, U_v, ff, *_ = point
        du, dv = k
        E, F, G = ff
        kn, tg = _chart_scalars(jet, U, U_u, U_v, k)
        delta, delta_star = _delta(jet, ff, self.d, kn, tg)
        return (jet[0], t3, U, dot3(U, self.d), delta * du + delta_star * dv,
                E * du * du + 2 * F * du * dv + G * dv * dv - 1.0, kn, tg, y)

    @staticmethod
    def columns(*columns) -> dict:
        return dict(zip(_ROW_FIELDS + ("chart",), columns))


class _ImplicitTrace:
    """Isophote on f = 0.  The state is the point itself, Newton-projected
    back onto the surface (and optionally the level) after each step; the
    RK4 slope is the unit tangent.  A point's evaluation is its
    _implicit_stage.

    A sample's record keeps what can fail or needs a Python float: the
    point, its tangent, grad f, |grad f|, H and |f|.  f is the value
    the projection read at the state it returned (the state recorded next),
    else it is evaluated.  The diagnostic columns are computed from the
    records once, after the loop (_implicit_columns)."""

    def __init__(self, surface, d, target, config):
        self.surface, self.d, self.target, self.config = surface, d, target, config
        self.f = None  # f at the last state start or fix returned, if known

    def start(self, seed):
        p, self.f = _project(self.surface, _point(seed), self.config.projection_tol)
        return p

    def level(self, point):
        return dot3(_div3(point[0], point[1]), self.d)

    def key(self, p):
        return p

    def evaluate(self, p):
        return _implicit_stage(self.surface.level_point(p), self.d, self.config.eps_sing)

    def direction(self, p, point, ref):
        t = point[3]
        if t is None:
            raise point[-1] or _implicit_singular(p)
        if ref is not None and dot3(t, ref) < 0.0:
            t = _negated(t)
        return t, t

    def fix(self, q):
        q, self.f = _project(self.surface, q, self.config.projection_tol)
        if self.config.project_isophote:
            q, self.f = _project_two_constraints(self.surface, self.d, self.target, q,
                                                 self.config.projection_tol)
        return q

    def closure_frame(self, p, point, t):
        # the field's tangent is unit already
        return p, t

    def record(self, q, point, k, t):
        grad, n, H, _, _ = point
        f = self.f if self.f is not None else self.surface._f(*q)
        return q, t, grad, n, H, abs(f)

    def columns(self, s, q, t, grad, n, H, f) -> dict:
        cols = _implicit_columns(self.d, grad.T, n, H.transpose(1, 2, 0), t.T)
        del cols["omega"]
        cols["normals"] = np.column_stack(cols["normals"])
        return {"s": s, "points": q, "tangents": t, "surface_residual": f, **cols}


def _project_two_constraints(surface, d, target, p, tol):
    """Newton onto {f = 0} intersected with {<U, d> = cos(phi)}: each step
    solves (J J^T) x = -(f, g) for the 2x3 Jacobian J = (grad f; grad g) in
    closed form and moves by J^T x.  A singular system leaves p as it is.
    Returns (p, f(p)), with None for f where the last step moved p."""
    for _ in range(8):
        grad = surface._grad(*p)
        n = norm3(grad)
        f = surface._f(*p)
        g = dot3(grad, d) / n - target
        if abs(f) <= tol and abs(g) <= tol:
            return p, f
        grad_g = _level_gradient((grad, n, surface._level(*p)[1]), d)
        a, b, c = dot3(grad, grad), dot3(grad, grad_g), dot3(grad_g, grad_g)
        det = a * c - b * b
        if det == 0.0:
            return p, f
        x0 = (b * g - c * f) / det
        x1 = (b * f - a * g) / det
        p = tuple([pi + (x0 * ai + x1 * bi) for pi, ai, bi in zip(p, grad, grad_g)])
    return p, None
