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
field evaluation, the sign that best aligns with the running tangent.
Implicit traces are Newton-projected back to f = 0 after every step.  When a
trace returns to its seed it is closed with one final shortened step landing
on the seed's transversal plane (the one sample exempt from the fixed-step
spacing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DarbouxError,
    OutOfDomainError,
    RegularityError,
    SeedError,
    SingularPointError,
)
from .frames import deriv_uniform
from .surface import (
    ImplicitSurface,
    ParametricSurface,
    chart_normal_derivatives,
    cross3,
    first_form,
    implicit_normal_jacobian,
    norm3,
    project_to_implicit,
    unit_normal,
)

__all__ = [
    "TraceConfig",
    "TraceResult",
    "find_seed",
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
    chart traces and Omega . t for implicit ones; ``angle_dot`` is <U, d>.
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
    kg: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.kg is None:
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
        V = np.cross(self.normals, self.tangents)
        h = self.s[1] - self.s[0]
        uniform = n if self.termination != "closed" else n - 1
        kg = np.empty(n)
        dT = deriv_uniform(self.tangents[:uniform], h)
        kg[:uniform] = np.einsum("ij,ij->i", dT, V[:uniform])
        if uniform < n:
            ds = self.s[-1] - self.s[-2]
            dT_last = (self.tangents[-1] - self.tangents[-2]) / ds if ds > 0 else dT[-1]
            kg[-1] = dT_last @ V[-1]
        return kg


# ---------------------------------------------------------------------------
# Seed finding


def find_seed(surface, d, phi: float, guess, tol: float = 1e-12,
              max_iter: int = 100):
    """Locate a point on the level set <U, d> = cos(phi) near ``guess``.

    Parametric surfaces: 1-D bracket-and-bisect (with Newton polish) along
    the coordinate lines through the guess.  Implicit surfaces: projected
    Newton descent of <U, d> - cos(phi) in the tangent plane.  Raises
    SeedError("no isophote at this level near guess") when no crossing is
    found.
    """
    d = _unit(d)
    target = math.cos(phi)
    if isinstance(surface, ParametricSurface):
        return _find_seed_parametric(surface, d, target, guess, tol, max_iter)
    return _find_seed_implicit(surface, d, target, guess, tol, max_iter)


def _angle_value_parametric(surface, d, u, v):
    return float(unit_normal(surface.chart_jet(u, v)) @ d)


def _find_seed_parametric(surface, d, target, guess, tol, max_iter):
    u0, v0 = float(guess[0]), float(guess[1])
    if abs(_angle_value_parametric(surface, d, u0, v0) - target) <= tol:
        return (u0, v0)

    for coord in ("v", "u"):
        if coord == "v":
            lo, hi = surface.v_range
            g = lambda t: _angle_value_parametric(surface, d, u0, t) - target
            center = v0
        else:
            lo, hi = surface.u_range
            g = lambda t: _angle_value_parametric(surface, d, t, v0) - target
            center = u0
        bracket = _nearest_bracket(g, lo, hi, center)
        if bracket is None:
            continue
        t = _bisect_newton(g, *bracket, tol, max_iter)
        if t is not None:
            return (u0, t) if coord == "v" else (t, v0)
    raise SeedError("no isophote at this level near guess")


def _nearest_bracket(g, lo, hi, center, n: int = 256):
    """The cell of the n-cell grid on [lo, hi] whose ends g does not give
    the same sign and whose midpoint is nearest ``center`` (the lower index
    on a tie), as (a, g(a), b, g(b)), or None.  Cells are visited nearest
    first, so g is evaluated only at the ends of the cells up to the chosen
    one; a point where g raises a DarbouxError has no sign."""
    ts = np.linspace(lo, hi, n + 1)
    dists = np.abs(0.5 * (ts[:-1] + ts[1:]) - center)
    vals = {}

    def value(i):
        if i not in vals:
            try:
                vals[i] = g(ts[i])
            except DarbouxError:
                vals[i] = np.nan
        return vals[i]

    for i in np.argsort(dists, kind="stable"):
        if not dists[i] < np.inf:  # only inf and nan distances are left
            return None
        a, b = value(i), value(i + 1)
        if np.isnan(a) or np.isnan(b) or a * b > 0:
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


def _find_seed_implicit(surface, d, target, guess, tol, max_iter):
    p = project_to_implicit(surface, np.asarray(guess, dtype=float), 1e-12)
    for _ in range(max_iter):
        n_vec = surface.gradient(p)
        n_norm = norm3(n_vec)
        if n_norm <= surface.eps_reg:
            raise SeedError("no isophote at this level near guess")
        nhat = n_vec / n_norm
        g = float(nhat @ d) - target
        if abs(g) <= tol:
            return p
        H = surface.hessian(p)
        grad_g = H @ d / n_norm - float(n_vec @ d) * (H @ n_vec) / n_norm**3
        gt = grad_g - float(grad_g @ nhat) * nhat
        gt2 = float(gt @ gt)
        if gt2 <= 1e-30:
            break
        step = -g / gt2 * gt
        # damp long steps; Newton is only trusted locally
        limit = 0.5 * (1.0 + norm3(p))
        step_len = norm3(step)
        if step_len > limit:
            step *= limit / step_len
        p = project_to_implicit(surface, p + step, 1e-12)
    raise SeedError("no isophote at this level near guess")


# ---------------------------------------------------------------------------
# Direction fields


def isophote_direction_parametric(surface: ParametricSurface, d, u: float, v: float,
                                  branch: str = "plus",
                                  eps_sing: float = EPS_SING_DEFAULT):
    """Unit-metric-speed chart direction (u', v') of the isophote through
    (u, v): solves g_u u' + g_v v' = 0 for g = <U, d>.

    Raises SingularPointError when both g_u and g_v fall below ``eps_sing``
    (no isophotic curve with this axis exists through the point)."""
    d = np.asarray(d, dtype=float)
    jet = surface.chart_jet(u, v)
    du, dv = _chart_direction((jet, *chart_normal_derivatives(jet)), d, eps_sing, u, v)
    if branch == "minus":
        du, dv = -du, -dv
    return du, dv


def _chart_direction(point, d, eps_sing, u, v):
    """(u', v') on the plus branch from a chart point's (jet, U_u, U_v)."""
    jet, U_u, U_v = point
    g_u = float(U_u @ d)
    g_v = float(U_v @ d)
    if abs(g_u) <= eps_sing and abs(g_v) <= eps_sing:
        raise SingularPointError(
            "singular point of the isophote field: no isophotic curve with "
            f"this axis/angle at (u, v)=({float(u):g}, {float(v):g})"
        )
    ff = first_form(jet)
    W = math.sqrt(ff.E * g_v**2 - 2.0 * ff.F * g_u * g_v + ff.G * g_u**2)
    return -g_v / W, g_u / W


def direction_scalars_parametric(surface: ParametricSurface, d, u: float, v: float,
                                 direction) -> tuple[float, float]:
    """(k_n, tau_g) of a unit chart direction at a point (point functions of
    the direction, no curve needed)."""
    jet = surface.chart_jet(u, v)
    U = unit_normal(jet)
    U_u, U_v = chart_normal_derivatives(jet)
    return _chart_scalars(jet, U, U_u, U_v, direction)


def _chart_scalars(jet, U, U_u, U_v, direction) -> tuple[float, float]:
    """(k_n, tau_g) of a chart direction from the point's jet, unit normal
    and normal partials."""
    du, dv = direction
    L = float(jet.sigma_uu @ U)
    M = float(jet.sigma_uv @ U)
    N = float(jet.sigma_vv @ U)
    kn = L * du * du + 2.0 * M * du * dv + N * dv * dv
    T = du * jet.sigma_u + dv * jet.sigma_v
    U_prime = du * U_u + dv * U_v
    V = cross3(U, T)
    tg = float(-U_prime @ V)
    return kn, tg


def delta_coefficients(surface: ParametricSurface, d, u: float, v: float,
                       direction) -> tuple[float, float]:
    """Verification coefficients (Delta, Delta*) for a unit chart direction;
    along an isophote Delta u' + Delta* v' = 0.

    Delta  = sqrt(EG - F^2) k_n <sigma_u, d> + E tau_g <sigma_v, d> - F tau_g <sigma_u, d>
    Delta* = sqrt(EG - F^2) k_n <sigma_v, d> + F tau_g <sigma_v, d> - G tau_g <sigma_u, d>
    with k_n, tau_g evaluated for the supplied direction."""
    d = np.asarray(d, dtype=float)
    jet = surface.chart_jet(u, v)
    kn, tg = direction_scalars_parametric(surface, d, u, v, direction)
    return _delta(jet, first_form(jet), d, kn, tg)


def _delta(jet, ff, d, kn, tg) -> tuple[float, float]:
    """(Delta, Delta*) from the point's jet and first form and the
    direction's (k_n, tau_g)."""
    su_d = float(jet.sigma_u @ d)
    sv_d = float(jet.sigma_v @ d)
    root = ff.area_element
    delta = root * kn * su_d + ff.E * tg * sv_d - ff.F * tg * su_d
    delta_star = root * kn * sv_d + ff.F * tg * sv_d - ff.G * tg * su_d
    return delta, delta_star


def isophote_direction_implicit(surface: ImplicitSurface, d, p, branch: str = "plus",
                                eps_sing: float = EPS_SING_DEFAULT,
                                on_surface_tol: float = 1e-9) -> np.ndarray:
    """Unit tangent of the isophote through p on f = 0: grad(f) x grad(g)
    normalized, g = <grad f, d>/|grad f|.

    Raises SingularPointError when the two gradients are parallel or grad(g)
    vanishes (the level set degenerates; no isophotic curve exists)."""
    d = np.asarray(d, dtype=float)
    p = np.asarray(p, dtype=float)
    f = surface.value(p)
    if abs(f) > on_surface_tol:
        raise DarbouxError(f"point is not on the surface: |f| = {abs(f):g} > {on_surface_tol:g}")
    t = _implicit_direction(_implicit_point(surface, p), d, eps_sing, p)
    return -t if branch == "minus" else t


def _implicit_point(surface, p):
    """(grad f, |grad f|, Hessian) at p; raises RegularityError where the
    gradient vanishes."""
    grad = surface.gradient(p)
    n = norm3(grad)
    if n <= surface.eps_reg:
        raise RegularityError(f"{surface.name}: vanishing gradient at {p!r}")
    return grad, n, surface.hessian(p)


def _implicit_direction(point, d, eps_sing, p) -> np.ndarray:
    """Unit tangent on the plus branch from a point's (grad f, |grad f|, H)."""
    grad, n, H = point
    grad_g = H @ d / n - float(grad @ d) * (H @ grad) / n**3
    w = cross3(grad, grad_g)
    wn = norm3(w)
    if wn <= eps_sing:
        raise SingularPointError(
            f"singular isophote point at {np.round(p, 9).tolist()}: "
            "no isophotic curve with this axis/angle"
        )
    return w / wn


def direction_scalars_implicit(surface: ImplicitSurface, d, p, t) -> tuple[float, float]:
    """(k_n, tau_g) of a unit tangent t at a surface point p."""
    return _implicit_scalars(_implicit_point(surface, p), np.asarray(t, dtype=float))


def _implicit_scalars(point, t) -> tuple[float, float]:
    """(k_n, tau_g) of a unit tangent from the point's (grad f, |grad f|, H)."""
    grad, n, H = point
    kn = float(-t @ H @ t) / n
    U = grad / n
    U_prime = implicit_normal_jacobian(grad, n, H) @ t
    V = cross3(U, t)
    tg = float(-U_prime @ V)
    return kn, tg


def omega_coefficients(surface: ImplicitSurface, d, p, t) -> np.ndarray:
    """Verification triple Omega = k_n d + tau_g (d x grad f); along an
    isophote Omega . t = 0 and t is parallel to grad(f) x Omega."""
    d = np.asarray(d, dtype=float)
    p = np.asarray(p, dtype=float)
    kn, tg = direction_scalars_implicit(surface, d, p, t)
    return _omega(d, surface.gradient(p), kn, tg)


def _omega(d, grad, kn, tg) -> np.ndarray:
    """Omega from the axis, grad(f) and the direction's (k_n, tau_g)."""
    return kn * d + tg * cross3(d, grad)


# ---------------------------------------------------------------------------
# Tracing


def _unit(d) -> np.ndarray:
    d = np.asarray(d, dtype=float)
    n = float(np.linalg.norm(d))
    if n == 0.0:
        raise DarbouxError("axis must be a nonzero vector")
    return d / n


def trace_isophote(surface, d, phi: float, seed, config: TraceConfig | None = None) -> TraceResult:
    """Trace the isophote <U, d> = cos(phi) from an on-level seed.

    The seed must satisfy the level to ``config.seed_tol`` (use find_seed to
    snap a guess).  Samples are ``config.step`` apart; the trace stops on
    max length, closure (one final shortened step onto the seed's
    transversal plane), leaving the chart domain, or a singular point.
    """
    config = config or TraceConfig()
    d = _unit(d)
    phi = float(phi)
    kind = _ChartTrace if isinstance(surface, ParametricSurface) else _ImplicitTrace
    return _integrate(kind(surface, d, math.cos(phi), config), phi, seed)


# TraceResult fields filled from the recorded rows, in row order; each
# adapter's ``extra`` names the fields that follow them
_ROW_FIELDS = ("s", "points", "tangents", "normals", "angle_dot", "constraint_residual",
               "unit_speed_residual", "kn", "tg")


def _integrate(adapter, phi, seed):
    """Fixed-step RK4 along an adapter's direction field, with branch
    continuity, closure onto the seed and one record per sample.

    The adapter (_ChartTrace or _ImplicitTrace) maps the seed to a state,
    evaluates the point of a state once, turns an evaluation into an RK4
    slope and a 3-D tangent, fixes up each new state (wrap or
    reprojection) and records a sample.  The last evaluated point and its
    evaluation are kept and reused while the requested point repeats: RK4's
    first stage is the previous post-step point, each sample is recorded
    at the point its direction was taken from, and stages whose slopes
    agree land on the same point.
    """
    config = adapter.config
    last = [None, None]

    def at(y):
        key = adapter.key(y)
        if key != last[0]:
            last[:] = key, adapter.evaluate(y)
        return last[1]

    def field(y, ref):
        return adapter.direction(y, at(y), ref)

    def step(y, h, ref):
        k1, _ = field(y, ref)
        k2, _ = field(y + 0.5 * h * k1, ref)
        k3, _ = field(y + 0.5 * h * k2, ref)
        k4, _ = field(y + h * k3, ref)
        return adapter.fix(y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))

    rows = []

    def record(s, y, k, t3):
        rows.append((s, *adapter.record(y, at(y), k, t3)))

    y = adapter.start(seed)
    level = adapter.level(y, at)
    if abs(level - adapter.target) > config.seed_tol:
        raise SeedError(
            f"seed is not on the isophote level: |<U,d> - cos(phi)| = "
            f"{abs(level - adapter.target):g} > {config.seed_tol:g}; use find_seed"
        )

    h = config.step
    termination = "length reached"
    try:
        k, t3 = field(y, None)
        if config.branch == "minus":
            k, t3 = -k, -t3
        seed_point, seed_tan = adapter.closure_frame(y, at(y), t3)
        record(0.0, y, k, t3)
        n_steps = int(math.floor(config.max_length / h + 1e-9))
        s_done = 0.0
        for _ in range(n_steps):
            y = step(y, h, t3)
            s_done += h
            k, t3 = field(y, t3)
            record(s_done, y, k, t3)
            delta = _closure_step(*adapter.closure_frame(y, at(y), t3),
                                  seed_point, seed_tan, s_done, config)
            if delta is not None:
                y = step(y, delta, t3)
                s_done += delta
                k, t3 = field(y, t3)
                record(s_done, y, k, t3)
                termination = "closed"
                break
    except OutOfDomainError:
        if not rows:
            raise
        termination = "left domain"
    except SingularPointError:
        if not rows:
            raise
        termination = "singular point"
    except DarbouxError as exc:
        if not rows:
            raise
        termination = f"error: {exc}"
    columns = (np.array(column) for column in zip(*rows))
    return TraceResult(**dict(zip(_ROW_FIELDS + adapter.extra, columns)),
                       termination=termination, d=adapter.d, phi=phi)


def _closure_step(p, t, seed_p, seed_t, s_done, config):
    """Length of a final step landing on the seed's transversal plane, or
    None if not closing here."""
    if s_done < 10.0 * config.step:
        return None
    gap = seed_p - p
    if norm3(gap) > config.closure_radius:
        return None
    if float(t @ seed_t) < 0.5:
        return None
    delta = float(gap @ seed_t)
    if not 0.0 < delta <= config.step:
        return None
    return delta


class _ChartTrace:
    """Isophote on a chart.  The state is (u, v), wrapped after each step;
    RK4 slopes are (u', v') and the reference tangent is sigma_u u' + sigma_v v'.
    A point's evaluation is its chart jet with the normal's partials."""

    extra = ("chart",)

    def __init__(self, surface, d, target, config):
        self.surface, self.d, self.target, self.config = surface, d, target, config

    def start(self, seed):
        return np.array(self.surface.wrap(float(seed[0]), float(seed[1])))

    def level(self, y, at):
        return float(unit_normal(at(y)[0]) @ self.d)

    def key(self, y):
        # the chart point evaluated: wrapping sends equal points to one key
        return self.surface.wrap(y[0], y[1])

    def evaluate(self, y):
        jet = self.surface.chart_jet(y[0], y[1])
        return (jet, *chart_normal_derivatives(jet))

    def direction(self, y, point, ref):
        du, dv = _chart_direction(point, self.d, self.config.eps_sing, y[0], y[1])
        jet = point[0]
        t3 = du * jet.sigma_u + dv * jet.sigma_v
        if ref is not None and float(t3 @ ref) < 0.0:
            return np.array([-du, -dv]), -t3
        return np.array([du, dv]), t3

    def fix(self, y):
        return np.array(self.surface.wrap(y[0], y[1]))

    def closure_frame(self, y, point, t3):
        return point[0].sigma, t3 / norm3(t3)

    def record(self, y, point, k, t3):
        jet, U_u, U_v = point
        U = unit_normal(jet)
        du, dv = k
        ff = first_form(jet)
        kn, tg = _chart_scalars(jet, U, U_u, U_v, k)
        delta, delta_star = _delta(jet, ff, self.d, kn, tg)
        return (jet.sigma, t3, U, float(U @ self.d), delta * du + delta_star * dv,
                ff.E * du * du + 2 * ff.F * du * dv + ff.G * dv * dv - 1.0, kn, tg,
                (y[0], y[1]))


class _ImplicitTrace:
    """Isophote on f = 0.  The state is the point itself, Newton-projected
    back onto the surface (and optionally the level) after each step; the
    RK4 slope is the unit tangent.  A point's evaluation is
    (grad f, |grad f|, H)."""

    extra = ("surface_residual", "grad_dot_t")

    def __init__(self, surface, d, target, config):
        self.surface, self.d, self.target, self.config = surface, d, target, config

    def start(self, seed):
        return project_to_implicit(self.surface, np.asarray(seed, dtype=float),
                                   self.config.projection_tol)

    def level(self, p, at):
        return float(self.surface.unit_normal(p) @ self.d)

    def key(self, p):
        return p.tobytes()

    def evaluate(self, p):
        return _implicit_point(self.surface, p)

    def direction(self, p, point, ref):
        t = _implicit_direction(point, self.d, self.config.eps_sing, p)
        if ref is not None and float(t @ ref) < 0.0:
            return -t, -t
        return t, t

    def fix(self, q):
        q = project_to_implicit(self.surface, q, self.config.projection_tol)
        if self.config.project_isophote:
            q = _project_two_constraints(self.surface, self.d, self.target, q,
                                         self.config.projection_tol)
        return q

    def closure_frame(self, p, point, t):
        # the field's tangent is unit already
        return p, t

    def record(self, q, point, k, t):
        grad, n, _ = point
        U = grad / n
        kn, tg = _implicit_scalars(point, t)
        omega = _omega(self.d, grad, kn, tg)
        return (q.copy(), t.copy(), U, float(U @ self.d), float(omega @ t),
                norm3(t) - 1.0, kn, tg, abs(self.surface.value(q)), float(grad @ t))


def _project_two_constraints(surface, d, target, p, tol):
    """Newton onto {f = 0} intersected with {<U, d> = cos(phi)}."""
    for _ in range(8):
        grad = surface.gradient(p)
        n = norm3(grad)
        f = surface.value(p)
        g = float(grad @ d) / n - target
        if abs(f) <= tol and abs(g) <= tol:
            return p
        H = surface.hessian(p)
        grad_g = H @ d / n - float(grad @ d) * (H @ grad) / n**3
        J = np.vstack([grad, grad_g])
        r = np.array([f, g])
        try:
            correction = J.T @ np.linalg.solve(J @ J.T, -r)
        except np.linalg.LinAlgError:
            return p
        p = p + correction
    return p
