"""Frenet and Darboux frames along unit-speed curves on surfaces.

Curves are arclength-parametrized.  A curve on a parametric surface is a
chart path (u(s), v(s)) with derivatives to third order; a curve on an
implicit surface is a unit-speed space curve confined to the level set.
Frame scalars:

    gamma'' = k_n U + k_g V,     k_n = gamma''.U,   k_g = gamma''.V,
    tau_g = V'.U = -U'.V  (computed from analytic normal derivatives).

Arbitrary regular parametrizations are brought to unit speed through an
arclength table (adaptive Simpson, tol 1e-10) inverted by monotone cubic
interpolation and polished by up to three Newton steps, stopping at a fixed
point, with chain-rule derivatives to third order.  The table and the
Newton steps read only the first-order speed |gamma'(t)|; the third-order
chain is evaluated at the sample points alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import expr as _expr
from .errors import (
    DarbouxError,
    FrenetUndefinedError,
    VanishingSpeedError,
)
from .surface import (
    ImplicitSurface,
    ParametricSurface,
    chart_normal_derivatives,
    chart_normal_second_derivatives,
    cross3,
    norm3,
    unit_normal,
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

EPS_KAPPA_DEFAULT = 1e-9
EPS_SPEED = 1e-12
UNIT_SPEED_TOL = 1e-7


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
    """Regular 3D curve gamma(t) with derivative evaluators to third order."""

    def __init__(self, c, c1, c2, c3, t_range: tuple[float, float]):
        self.c, self.c1, self.c2, self.c3 = c, c1, c2, c3
        self.t_range = (float(t_range[0]), float(t_range[1]))

    @classmethod
    def from_expressions(cls, x_src: str, y_src: str, z_src: str,
                         t_range: tuple[float, float], var: str = "s") -> "ParamCurve":
        comps = [_expr.parse(src, [var]) for src in (x_src, y_src, z_src)]
        jets = [comps]
        for _ in range(3):
            jets.append([_expr.differentiate(e, var) for e in jets[-1]])

        def make(level):
            fn = _expr.compile(jets[level], [var])
            return lambda t: np.array(fn(t))

        return cls(make(0), make(1), make(2), make(3), t_range)


class UnitSpeedCurve:
    """Arclength-parametrized curve on [0, L] with evaluators to 3rd order."""

    def __init__(self, gamma, d1, d2, d3, length: float, analytic: bool = True):
        self.gamma, self.d1, self.d2, self.d3 = gamma, d1, d2, d3
        self.length = float(length)
        self.analytic = analytic

    @property
    def domain(self) -> tuple[float, float]:
        return (0.0, self.length)

    def jet(self, s: float):
        return self.gamma(s), self.d1(s), self.d2(s), self.d3(s)

    @classmethod
    def from_polyline(cls, points: np.ndarray, length: float | None = None) -> "UnitSpeedCurve":
        """Curve from uniformly spaced samples assumed unit-speed.

        Derivatives come from 5-point central stencils at interior nodes
        (O(h^4)) and one-sided stencils at the ends; values between nodes are
        cubic-spline interpolated.  Marked non-analytic so downstream
        constancy statistics use the looser tolerance and drop endpoints.
        """
        points = np.asarray(points, dtype=float)
        n = len(points)
        if n < 5:
            raise DarbouxError("polyline needs at least 5 samples")
        if length is None:
            length = float(np.sum(np.linalg.norm(np.diff(points, axis=0), axis=1)))
        s = np.linspace(0.0, length, n)
        h = s[1] - s[0]
        d1 = deriv_uniform(points, h)
        d2 = deriv_uniform(d1, h)
        d3 = deriv_uniform(d2, h)
        from scipy.interpolate import CubicSpline  # deferred: scipy is slow to import

        splines = [CubicSpline(s, arr) for arr in (points, d1, d2, d3)]

        def ev(spl):
            return lambda t: np.asarray(spl(t), dtype=float)

        return cls(ev(splines[0]), ev(splines[1]), ev(splines[2]), ev(splines[3]),
                   length, analytic=False)


class ChartPath:
    """Chart path (u(s), v(s)) with derivatives to third order."""

    def __init__(self, u, v, du, dv, ddu, ddv, dddu, dddv, s_range: tuple[float, float]):
        self.u, self.v = u, v
        self.du, self.dv = du, dv
        self.ddu, self.ddv = ddu, ddv
        self.dddu, self.dddv = dddu, dddv
        self.s_range = (float(s_range[0]), float(s_range[1]))

    def point(self, s: float) -> tuple[float, float]:
        return self.u(s), self.v(s)

    def jet(self, s: float):
        """((u, v), (u', v'), (u'', v''), (u''', v'''))."""
        return (
            (self.u(s), self.v(s)),
            (self.du(s), self.dv(s)),
            (self.ddu(s), self.ddv(s)),
            (self.dddu(s), self.dddv(s)),
        )

    @classmethod
    def from_expressions(cls, u_src: str, v_src: str, s_range: tuple[float, float],
                         var: str = "s") -> "ChartPath":
        eu = _expr.parse(u_src, [var])
        ev = _expr.parse(v_src, [var])
        fns = []
        for e in (eu, ev):
            cur = e
            for _ in range(4):
                fn = _expr.compile([cur], [var])
                fns.append(lambda t, _fn=fn: _fn(t)[0])
                cur = _expr.differentiate(cur, var)
        u, du, ddu, dddu, v, dv, ddv, dddv = fns
        return cls(u, v, du, dv, ddu, ddv, dddu, dddv, s_range)

    @classmethod
    def from_functions(cls, u, v, du, dv, ddu, ddv, dddu, dddv, s_range) -> "ChartPath":
        return cls(u, v, du, dv, ddu, ddv, dddu, dddv, s_range)


class CurveOnSurface:
    """Unit-speed curve lying on a surface (chart path or confined space curve)."""

    def __init__(self, surface, chart_path: ChartPath | None = None,
                 space_curve: UnitSpeedCurve | None = None,
                 on_surface_tol: float = 1e-9):
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
            self.s_range = space_curve.domain

    @property
    def analytic(self) -> bool:
        return self.curve.analytic if self.curve is not None else True

    def gamma_jet(self, s: float):
        """(gamma, gamma', gamma'', gamma''') at arclength s."""
        if self.kind == "implicit":
            g = self.curve.jet(s)
            f = self.surface.value(g[0])
            if abs(f) > self.on_surface_tol:
                raise DarbouxError(
                    f"curve leaves surface: |f(gamma({float(s):g}))| = "
                    f"{abs(f):g} > {self.on_surface_tol:g}"
                )
            return g
        return self._chart_sample(s)[0]

    def _chart_sample(self, s: float):
        """The curve jet at s on a chart path, with the chart jet, the third
        partials and the path's (u', v'), (u'', v'') it was built from."""
        (u, v), d1, d2, d3 = self.path.jet(s)
        jet = self.surface.chart_jet(u, v)
        jet3 = self.surface.jet3(u, v)
        return _chart_rule_jets(jet, jet3, d1, d2, d3), jet, jet3, d1, d2


def _chart_rule_jets(jet, jet3, d1, d2, d3):
    du, dv = d1
    ddu, ddv = d2
    dddu, dddv = d3
    su, sv = jet.sigma_u, jet.sigma_v
    suu, suv, svv = jet.sigma_uu, jet.sigma_uv, jet.sigma_vv
    suuu, suuv, suvv, svvv = jet3
    g = jet.sigma
    g1 = du * su + dv * sv
    g2 = ddu * su + ddv * sv + du * du * suu + 2.0 * du * dv * suv + dv * dv * svv
    g3 = (
        dddu * su + dddv * sv
        + 3.0 * du * ddu * suu + 3.0 * (ddu * dv + du * ddv) * suv + 3.0 * dv * ddv * svv
        + du**3 * suuu + 3.0 * du * du * dv * suuv + 3.0 * du * dv * dv * suvv + dv**3 * svvv
    )
    return g, g1, g2, g3


# ---------------------------------------------------------------------------
# Frames


def frenet(curve, s: float, eps_kappa: float = EPS_KAPPA_DEFAULT) -> FrenetFrame:
    """Frenet frame at s: T = gamma', kappa = |gamma''|, N = gamma''/kappa,
    B = T x N, tau = (gamma' x gamma'').gamma''' / kappa^2."""
    g, d1, d2, d3 = _curve_jet(curve, s)
    kappa = norm3(d2)
    if kappa <= eps_kappa:
        raise FrenetUndefinedError(
            f"Frenet frame undefined: curvature {kappa:g} <= {eps_kappa:g} at s={float(s):g}"
        )
    T = d1
    N = d2 / kappa
    B = cross3(T, N)
    tau = float(cross3(d1, d2) @ d3) / kappa**2
    return FrenetFrame(T, N, B, kappa, tau)


def _curve_jet(curve, s):
    if isinstance(curve, CurveOnSurface):
        return curve.gamma_jet(s)
    return curve.jet(s)


def darboux(c: CurveOnSurface, s: float) -> DarbouxFrame:
    """Darboux frame {T, V, U} and scalars (k_g, k_n, tau_g) at s.

    U comes from the surface orientation; V = U x T; tau_g is computed
    analytically as -U'.V (equal to V'.U by orthonormality), with U' from
    analytic normal derivatives.
    """
    jets, U, U_prime, _ = _frame_sample(c, s)
    return _darboux_frame(jets, U, U_prime, s)


def _frame_sample(c: CurveOnSurface, s: float):
    """Curve jet, unit normal U and its arclength derivative U' at s, each
    surface quantity evaluated once.  On chart paths the chart data that
    tau_g' needs comes along: (jet, jet3, U_u, U_v, (u', v'), (u'', v''))."""
    if c.kind == "implicit":
        jets = c.gamma_jet(s)
        U, J = c.surface.normal_and_jacobian(jets[0])
        return jets, U, J @ jets[1], None
    jets, jet, jet3, d1, d2 = c._chart_sample(s)
    U_u, U_v = chart_normal_derivatives(jet)
    du, dv = d1
    return jets, unit_normal(jet), du * U_u + dv * U_v, (jet, jet3, U_u, U_v, d1, d2)


def _darboux_frame(jets, U, U_prime, s) -> DarbouxFrame:
    _, d1, d2, _ = jets
    speed = norm3(d1)
    if abs(speed - 1.0) > UNIT_SPEED_TOL:
        raise DarbouxError(
            f"curve is not unit speed at s={float(s):g}: |gamma'| = {speed:.6g}")
    T = d1
    V = cross3(U, T)
    kn = float(d2 @ U)
    kg = float(d2 @ V)
    tg = float(-U_prime @ V)
    return DarbouxFrame(T, V, U, kg, kn, tg)


# ---------------------------------------------------------------------------
# Sampled frame data (shared by the angle series and the classifiers)


@dataclass
class FrameData:
    """Frame samples over a uniform arclength grid.

    dkg/dkn are always analytic (third-order curve jets); dtg is analytic
    on chart paths (third-order chart jets) and a 5-point central difference
    of tg on space curves.
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
    eps_kappa: float = EPS_KAPPA_DEFAULT

    @property
    def n(self) -> int:
        return len(self.s)

    @property
    def frenet_mask(self) -> np.ndarray:
        return self.kappa > self.eps_kappa


def sample_frames(c: CurveOnSurface, grid: np.ndarray,
                  eps_kappa: float = EPS_KAPPA_DEFAULT) -> FrameData:
    """Evaluate Darboux data over a uniform grid of arclength values."""
    grid = np.asarray(grid, dtype=float)
    _require_uniform(grid)
    n = len(grid)
    gam = np.empty((n, 3))
    T = np.empty((n, 3))
    V = np.empty((n, 3))
    U = np.empty((n, 3))
    kg = np.empty(n)
    kn = np.empty(n)
    tg = np.empty(n)
    dkg = np.empty(n)
    dkn = np.empty(n)
    tau = np.empty(n)
    tg_analytic = c.kind == "parametric"
    dtg = np.empty(n) if tg_analytic else None

    for i, s in enumerate(grid):
        jets, normal, U_prime, chart = _frame_sample(c, s)
        g, d1, d2, d3 = jets
        fr = _darboux_frame(jets, normal, U_prime, s)
        gam[i] = g
        T[i], V[i], U[i] = fr.T, fr.V, fr.U
        kg[i], kn[i], tg[i] = fr.kg, fr.kn, fr.tg
        # k_g' = gamma'''.V + tau_g k_n ; k_n' = gamma'''.U - tau_g k_g
        dkg[i] = d3 @ fr.V + fr.tg * fr.kn
        dkn[i] = d3 @ fr.U - fr.tg * fr.kg
        kap2 = fr.kg**2 + fr.kn**2
        tau[i] = (cross3(d1, d2) @ d3) / kap2 if kap2 > eps_kappa**2 else np.nan
        if tg_analytic:
            # tau_g' = -U''.V - k_n k_g with U'' along the curve
            jet, jet3, U_u, U_v, (du, dv), (ddu, ddv) = chart
            U_uu, U_uv, U_vv = chart_normal_second_derivatives(jet, jet3)
            U_pp = (ddu * U_u + ddv * U_v
                    + du * du * U_uu + 2.0 * du * dv * U_uv + dv * dv * U_vv)
            dtg[i] = -(U_pp @ fr.V) - fr.kn * fr.kg

    if not tg_analytic:
        dtg = deriv_uniform(tg, grid[1] - grid[0])
    kappa = np.hypot(kg, kn)
    return FrameData(grid, gam, T, V, U, kg, kn, tg, dkg, dkn, dtg, kappa, tau,
                     analytic=c.analytic, eps_kappa=eps_kappa)


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


def normal_angle_series(c: CurveOnSurface, grid: np.ndarray,
                        eps_kappa: float = EPS_KAPPA_DEFAULT) -> AngleSeries:
    """Signed normal angle along the curve; requires kappa > eps on the grid."""
    data = sample_frames(c, grid, eps_kappa=eps_kappa)
    if not data.frenet_mask.all():
        bad = data.s[~data.frenet_mask]
        raise FrenetUndefinedError(
            f"Frenet frame undefined (kappa <= {eps_kappa:g}) at s={float(bad[0]):g}"
        )
    # |gamma''| rather than hypot(kg, kn): keeps r1/r2 sensitive to frame error
    kappa = np.array([norm3(c.gamma_jet(s)[2]) for s in data.s])
    theta = np.unwrap(np.arctan2(data.kn, data.kg))
    theta_prime = deriv_uniform(theta, data.s[1] - data.s[0])
    r1 = data.kn - kappa * np.sin(theta)
    r2 = data.kg - kappa * np.cos(theta)
    r3 = data.tg - (data.tau - theta_prime)
    return AngleSeries(data.s, theta, theta_prime, r1, r2, r3)


# ---------------------------------------------------------------------------
# Arclength reparametrization


def _adaptive_simpson(f, a, b, fa, fm, fb, whole, tol, depth):
    """Adaptive Simpson on [a, b] from f at a, the midpoint and b and the
    Simpson estimate `whole` built from them."""
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    half = 0.5 * tol
    return (_adaptive_simpson(f, a, m, fa, flm, fm, left, half, depth - 1)
            + _adaptive_simpson(f, m, b, fm, frm, fb, right, half, depth - 1))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


class ArclengthMap:
    """Invertible map between a raw parameter t and arclength s.

    Table built with adaptive Simpson (tol 1e-10) at n+1 uniform t-nodes,
    starting from the speeds already taken at the nodes and midpoints for
    the vanishing-speed check.  Inverted by monotone cubic (PCHIP)
    interpolation and polished with up to three Newton steps against
    locally Gauss-Legendre-integrated arclength, stopping at a fixed point.
    """

    def __init__(self, speed: Callable, t_range: tuple[float, float], n: int,
                 tol: float = 1e-10, eps_speed: float = EPS_SPEED):
        t0, t1 = t_range
        if not t1 > t0:
            raise DarbouxError("empty parameter range")
        self.speed = speed
        self.t_nodes = np.linspace(t0, t1, max(int(n), 8) + 1)
        mids = 0.5 * (self.t_nodes[:-1] + self.t_nodes[1:])
        node_speeds = [self._checked_speed(t, eps_speed) for t in self.t_nodes]
        mid_speeds = [self._checked_speed(t, eps_speed) for t in mids]
        increments = []
        for k, (a, b) in enumerate(zip(self.t_nodes[:-1], self.t_nodes[1:])):
            fa, fm, fb = node_speeds[k], mid_speeds[k], node_speeds[k + 1]
            whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
            increments.append(_adaptive_simpson(speed, a, b, fa, fm, fb, whole, tol, 50))
        self.s_nodes = np.concatenate([[0.0], np.cumsum(increments)])
        self.length = float(self.s_nodes[-1])
        from scipy.interpolate import PchipInterpolator  # deferred: scipy is slow to import

        self._inverse = PchipInterpolator(self.s_nodes, self.t_nodes)

    def _checked_speed(self, t, eps_speed):
        value = self.speed(t)
        if value <= eps_speed:
            raise VanishingSpeedError(f"vanishing speed at t={float(t):g}")
        return value

    def _arclength_from_node(self, k: int, t: float) -> float:
        a = self.t_nodes[k]
        half = 0.5 * (t - a)
        pts = a + half * (_GL_NODES + 1.0)
        return self.s_nodes[k] + half * float(_GL_WEIGHTS @ np.array([self.speed(p) for p in pts]))

    def t_of_s(self, s: float) -> float:
        s = min(max(float(s), 0.0), self.length)
        t = float(self._inverse(s))
        t = min(max(t, self.t_nodes[0]), self.t_nodes[-1])
        for _ in range(3):
            k = int(np.searchsorted(self.t_nodes, t, side="right") - 1)
            k = min(max(k, 0), len(self.t_nodes) - 2)
            err = self._arclength_from_node(k, t) - s
            t_new = t - err / self.speed(t)
            t_new = min(max(t_new, self.t_nodes[0]), self.t_nodes[-1])
            if t_new == t:
                # a further step would repeat this one on the same t
                break
            t = t_new
        return t


def _arclength_chain(c1, c2, c3):
    """(t', t'', t''') of t(s), the inverse of arclength, from the curve's
    raw derivatives c1, c2, c3 in t."""
    v = norm3(c1)
    vd = float(c1 @ c2) / v
    vdd = (float(c2 @ c2) + float(c1 @ c3) - vd * vd) / v
    tp = 1.0 / v
    tpp = -vd / v**3
    tppp = (3.0 * vd * vd - v * vdd) / v**5
    return tp, tpp, tppp


def resample_unit_speed(raw: ParamCurve, n: int = 512) -> UnitSpeedCurve:
    """Arclength reparametrization of a regular curve, derivatives chained
    through third order."""

    def speed(t):
        return norm3(raw.c1(t))

    amap = ArclengthMap(speed, raw.t_range, n)
    memo = {}

    def chain(s):
        if memo.get("s") == s:
            return memo["value"]
        t = amap.t_of_s(s)
        c1, c2, c3 = raw.c1(t), raw.c2(t), raw.c3(t)
        tp, tpp, tppp = _arclength_chain(c1, c2, c3)
        g1 = c1 * tp
        g2 = c2 * tp * tp + c1 * tpp
        g3 = c3 * tp**3 + 3.0 * c2 * tp * tpp + c1 * tppp
        value = (raw.c(t), g1, g2, g3)
        memo["s"], memo["value"] = s, value
        return value

    return UnitSpeedCurve(
        lambda s: chain(s)[0],
        lambda s: chain(s)[1],
        lambda s: chain(s)[2],
        lambda s: chain(s)[3],
        amap.length,
    )


def unit_speed_chart_curve(surface: ParametricSurface, path: ChartPath,
                           n: int = 512) -> CurveOnSurface:
    """Reparametrize a chart path to unit (metric) speed and wrap it as a
    CurveOnSurface."""

    def speed(t):
        # |gamma'| = |u' sigma_u + v' sigma_v|, the g1 of _chart_rule_jets
        u, v, du, dv = path.u(t), path.v(t), path.du(t), path.dv(t)
        jet = surface.chart_jet(u, v)
        return norm3(du * jet.sigma_u + dv * jet.sigma_v)

    amap = ArclengthMap(speed, path.s_range, n)
    jet_memo = {}

    def chart_jet_of_s(s):
        if jet_memo.get("s") == s:
            return jet_memo["value"]
        t = amap.t_of_s(s)
        (u, vv_), d1, d2, d3 = path.jet(t)
        _, c1, c2, c3 = _chart_rule_jets(surface.chart_jet(u, vv_), surface.jet3(u, vv_),
                                         d1, d2, d3)
        tp, tpp, tppp = _arclength_chain(c1, c2, c3)
        (du, dv), (ddu, ddv), (dddu, dddv) = d1, d2, d3
        u_s = du * tp
        v_s = dv * tp
        u_ss = ddu * tp * tp + du * tpp
        v_ss = ddv * tp * tp + dv * tpp
        u_sss = dddu * tp**3 + 3.0 * ddu * tp * tpp + du * tppp
        v_sss = dddv * tp**3 + 3.0 * ddv * tp * tpp + dv * tppp
        value = (u, vv_), (u_s, v_s), (u_ss, v_ss), (u_sss, v_sss)
        jet_memo["s"], jet_memo["value"] = s, value
        return value

    new_path = ChartPath(
        lambda s: chart_jet_of_s(s)[0][0],
        lambda s: chart_jet_of_s(s)[0][1],
        lambda s: chart_jet_of_s(s)[1][0],
        lambda s: chart_jet_of_s(s)[1][1],
        lambda s: chart_jet_of_s(s)[2][0],
        lambda s: chart_jet_of_s(s)[2][1],
        lambda s: chart_jet_of_s(s)[3][0],
        lambda s: chart_jet_of_s(s)[3][1],
        (0.0, amap.length),
    )
    return CurveOnSurface(surface, chart_path=new_path)


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
