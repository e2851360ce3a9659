"""Frenet and Darboux frames: fixture oracles, structure relations, the
normal-angle series, and arclength reparametrization."""

import functools
import math
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator

import darboux
from conftest import (
    SQRT2,
    V0,
    constant_speed_path,
    make_circle_on_plane,
    make_helix_curve,
    make_latitude_curve,
    make_latitude_on_implicit_sphere,
    make_line_on_plane,
    make_unit_helix_space_curve,
)
from darboux import frames as _frames
from darboux.errors import (
    ArclengthTableError,
    DarbouxError,
    EvalDomainError,
    FrenetUndefinedError,
    OutOfDomainError,
    ParseError,
    VanishingSpeedError,
)
from darboux.frames import (
    ArclengthMap,
    ChartPath,
    CurveOnSurface,
    ParamCurve,
    UnitSpeedCurve,
    _chart_rule_jets,
    darboux as darboux_frame,
    deriv_uniform,
    frenet,
    normal_angle_series,
    resample_unit_speed,
    sample_frames,
    uniform_grid,
    unit_speed_chart_curve,
)
from darboux.surface import ParametricSurface, norm3


class TestFrenet:
    def test_helix_curvature_torsion(self):
        # b = 1 circular helix: kappa = tau = 1/(1 + b^2) = 1/2
        c = make_unit_helix_space_curve()
        fr = frenet(c, 1.3)
        assert fr.kappa == pytest.approx(0.5, abs=1e-12)
        assert fr.tau == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(np.cross(fr.T, fr.N), fr.B, atol=1e-15)

    def test_circle_curvature(self):
        r = 2.5

        def jet(s):
            return (np.array([r * math.cos(s / r), r * math.sin(s / r), 0.0]),
                    np.array([-math.sin(s / r), math.cos(s / r), 0.0]),
                    np.array([-math.cos(s / r), -math.sin(s / r), 0.0]) / r,
                    np.array([math.sin(s / r), -math.cos(s / r), 0.0]) / r**2)

        c = UnitSpeedCurve(jet, 2 * math.pi * r)
        fr = frenet(c, 0.7)
        assert fr.kappa == pytest.approx(1 / r, abs=1e-12)
        assert fr.tau == pytest.approx(0.0, abs=1e-12)

    def test_straight_line_undefined(self):
        line = UnitSpeedCurve(
            lambda s: (np.array([s, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]), np.zeros(3),
                       np.zeros(3)),
            10.0,
        )
        with pytest.raises(FrenetUndefinedError, match="Frenet frame undefined"):
            frenet(line, 1.0)


class TestDarboux:
    def test_helix_on_cylinder(self, helix_curve):
        fr = darboux_frame(helix_curve, 0.8)
        assert fr.kg == pytest.approx(0.0, abs=1e-12)
        assert fr.kn == pytest.approx(-0.5, abs=1e-12)
        assert fr.tg == pytest.approx(0.5, abs=1e-12)
        s = 0.8 / SQRT2
        expected_v = np.array([math.sin(s), -math.cos(s), 1.0]) / SQRT2
        np.testing.assert_allclose(fr.V, expected_v, atol=1e-12)

    def test_latitude_circle(self, latitude_curve):
        fr = darboux_frame(latitude_curve, 0.5)
        assert fr.kg == pytest.approx(1.0, abs=1e-12)  # tan(pi/4)
        assert fr.kn == pytest.approx(-1.0, abs=1e-12)
        assert fr.tg == pytest.approx(0.0, abs=1e-12)

    def test_straight_line_on_plane(self):
        fr = darboux_frame(make_line_on_plane(), 1.0)
        assert (fr.kg, fr.kn, fr.tg) == (0.0, 0.0, 0.0)

    def test_latitude_on_implicit_sphere_matches_chart(self, latitude_curve):
        imp = make_latitude_on_implicit_sphere()
        a = darboux_frame(latitude_curve, 0.9)
        b = darboux_frame(imp, 0.9)
        assert b.kg == pytest.approx(a.kg, abs=1e-12)
        assert b.kn == pytest.approx(a.kn, abs=1e-12)
        assert b.tg == pytest.approx(a.tg, abs=1e-12)
        np.testing.assert_allclose(a.U, b.U, atol=1e-12)

    def test_darboux_orthonormal_200_samples(self, helix_curve, latitude_curve):
        for curve in (helix_curve, latitude_curve):
            grid = np.linspace(*curve.s_range, 200)
            for s in grid:
                fr = darboux_frame(curve, s)
                M = np.vstack([fr.T, fr.V, fr.U])
                np.testing.assert_allclose(M @ M.T, np.eye(3), atol=1e-9)

    def test_v_equals_u_cross_t(self, latitude_curve):
        fr = darboux_frame(latitude_curve, 1.2)
        np.testing.assert_array_equal(fr.V, np.cross(fr.U, fr.T))

    def test_non_unit_speed_rejected(self):
        path = constant_speed_path(0.0, 0.0, 1.0, 1.0, (0.0, 2.0))  # speed sqrt(2)
        c = CurveOnSurface(darboux.cylinder(1.0), chart_path=path)
        with pytest.raises(DarbouxError, match="unit speed"):
            darboux_frame(c, 0.5)

    def test_non_unit_speed_message_shows_the_deviation(self):
        # speed 1 + 3e-7, off by 3 tolerances: %.6g of the speed prints 1
        path = constant_speed_path(0.0, 0.0, 1.0000003, 0.0, (0.0, 2.0))
        c = CurveOnSurface(darboux.cylinder(1.0), chart_path=path)
        with pytest.raises(DarbouxError) as exc:
            darboux_frame(c, 0.5)
        assert str(exc.value) == ("curve is not unit speed at s=0.5: |gamma'| - 1 = 3e-07, "
                                  "beyond the tolerance 1e-07")

    def test_curve_leaving_implicit_surface_rejected(self):
        line = UnitSpeedCurve(
            lambda s: (np.array([1.0 + s, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]), np.zeros(3),
                       np.zeros(3)),
            1.0,
        )
        c = CurveOnSurface(darboux.implicit_sphere(1.0), space_curve=line)
        with pytest.raises(DarbouxError, match="leaves surface"):
            c.gamma_jet(0.5)


class TestStructureEquations:
    """Finite-difference frame derivatives against the Darboux matrix."""

    @pytest.mark.parametrize("maker", [make_helix_curve, make_latitude_curve],
                             ids=["helix", "latitude"])
    def test_frame_derivatives(self, maker):
        c = maker()
        h = 1e-6
        for s in np.linspace(0.2, 2.0, 7):
            f0 = darboux_frame(c, s - h)
            f1 = darboux_frame(c, s + h)
            fr = darboux_frame(c, s)
            T_prime = (f1.T - f0.T) / (2 * h)
            U_prime = (f1.U - f0.U) / (2 * h)
            V_prime = (f1.V - f0.V) / (2 * h)
            np.testing.assert_allclose(T_prime, fr.kg * fr.V + fr.kn * fr.U, atol=1e-6)
            np.testing.assert_allclose(U_prime, -fr.kn * fr.T - fr.tg * fr.V, atol=1e-6)
            np.testing.assert_allclose(V_prime, -fr.kg * fr.T + fr.tg * fr.U, atol=1e-6)

    def test_analytic_scalar_derivatives_match_fd(self):
        # a genuinely varying curve: reparametrized chart path on a torus.
        # The stencil converges at 4th order to the analytic values, so at
        # h ~ 1e-2 agreement to 1e-7 pins the analytic formulas.
        path = ChartPath.from_expressions("s", "0.8*s", (0.0, 3.0))
        c = unit_speed_chart_curve(darboux.torus(2.0, 0.5), path, n=256)
        grid = np.linspace(0.1, c.s_range[1] - 0.1, 401)
        data = sample_frames(c, grid)
        h = grid[1] - grid[0]
        np.testing.assert_allclose(deriv_uniform(data.kg, h), data.dkg, atol=1e-7)
        np.testing.assert_allclose(deriv_uniform(data.kn, h), data.dkn, atol=1e-7)
        np.testing.assert_allclose(deriv_uniform(data.tg, h), data.dtg, atol=1e-7)


class TestNormalAngleSeries:
    def test_helix_angle_and_residuals(self, helix_curve, helix_grid):
        series = normal_angle_series(helix_curve, helix_grid)
        np.testing.assert_allclose(series.theta, -math.pi / 2, atol=1e-12)
        assert np.abs(series.r1).max() <= 1e-9
        assert np.abs(series.r2).max() <= 1e-9
        assert np.abs(series.r3).max() <= 1e-9

    def test_latitude_angle(self, latitude_curve, latitude_grid):
        series = normal_angle_series(latitude_curve, latitude_grid)
        np.testing.assert_allclose(series.theta, -math.pi / 4, atol=1e-12)
        assert np.abs(series.r3).max() <= 1e-9

    def test_geodesic_angle_is_minus_half_pi(self, helix_curve, helix_grid):
        # geodesic <=> k_g = 0; with k_n < 0 the branch is exactly -pi/2
        series = normal_angle_series(helix_curve, helix_grid)
        assert series.theta[0] == pytest.approx(-math.pi / 2, abs=1e-15)

    def test_unwrapping_is_continuous(self):
        c = make_circle_on_plane()
        grid = np.linspace(0.0, 2 * math.pi, 181)
        series = normal_angle_series(c, grid)
        assert np.abs(np.diff(series.theta)).max() < 0.2

    def test_generic_curve_torsion_relation(self):
        # a curve where theta genuinely varies: pins the signs in
        # tau_g = tau - theta' and the unwrap branch over several radians
        path = ChartPath.from_expressions("s", "0.9*s+0.2*sin(s)", (0.0, 5.0))
        c = unit_speed_chart_curve(darboux.torus(2.0, 0.5), path, n=512)
        grid = np.linspace(0.1, c.s_range[1] - 0.1, 401)
        series = normal_angle_series(c, grid)
        assert series.theta.max() - series.theta.min() > 2.0
        assert np.abs(series.r1).max() <= 1e-9
        assert np.abs(series.r2).max() <= 1e-9
        assert np.abs(series.r3).max() <= 1e-6

    def test_straight_line_rejected(self):
        with pytest.raises(FrenetUndefinedError):
            normal_angle_series(make_line_on_plane(), np.linspace(0.0, 2.0, 21))


class TestNormalAngleSeriesInversions:
    def test_each_sample_inverted_once_with_the_jets_bits(self):
        # |gamma''| comes from sample_frames' own jets: one inverted lane per
        # sample (not a second pass through gamma_jet), with the same bits
        path = ChartPath.from_expressions("s", "2*s", (0.0, 2 * math.pi))
        c = unit_speed_chart_curve(darboux.torus(2.0, 0.5), path, 128)
        amap = c.path.amap
        lanes = []
        many = amap.t_of_s_many

        def counted(s):
            lanes.append(len(s))
            return many(s)

        amap.t_of_s_many = counted
        grid = uniform_grid(0.0, c.s_range[1], 401)
        series = normal_angle_series(c, grid)
        assert sum(lanes) == 401
        data = sample_frames(c, grid)
        kappa = np.array([norm3(c.gamma_jet(s)[2].tolist()) for s in grid])
        expected = data.kn - kappa * np.sin(series.theta)
        assert expected.tobytes() == series.r1.tobytes()


# Catalog-like charts as expression text in {u} and {v}; the paths below
# keep v in [-0.2, 1.3], inside each chart's regular part.
ORIENTATION_CHARTS = {
    "torus": ("(2+0.5*cos({v}))*cos({u})", "(2+0.5*cos({v}))*sin({u})", "0.5*sin({v})"),
    "ellipsoid": ("2*cos({v})*cos({u})", "1.5*cos({v})*sin({u})", "sin({v})"),
    "helicoid": ("{v}*cos({u})", "{v}*sin({u})", "{u}"),
    "monkey_saddle": ("{u}", "{v}", "{u}^3-3*{u}*{v}^2"),
}


@functools.cache
def _orientation_chart(name, swapped):
    """The chart as a param: surface, with u and v exchanged if swapped."""
    u, v = ("v", "u") if swapped else ("u", "v")
    x, y, z = (src.format(u=u, v=v) for src in ORIENTATION_CHARTS[name])
    return darboux.parse_surface_spec(f"param:x={x};y={y};z={z};u=-10,10;v=-10,10")


ORIENTATION_PATHS = st.tuples(
    st.sampled_from(sorted(ORIENTATION_CHARTS)),
    st.floats(-1.0, 1.0), st.floats(0.5, 1.5),                          # u = u0 + a s
    st.floats(0.3, 0.8), st.floats(-0.3, 0.3), st.floats(-0.2, 0.2))    # v = v0 + b s + c sin s


def _orientation_frames(name, params, swapped=False, reversed_=False, samples=21):
    """sample_frames along the path on [0, 1] (run backwards if reversed_)
    on the chart (with u and v exchanged, the path too, if swapped)."""
    u0, a, v0, b, c = params
    s = "(1-s)" if reversed_ else "s"
    u_src, v_src = f"{u0!r}+{a!r}*{s}", f"{v0!r}+{b!r}*{s}+{c!r}*sin({s})"
    if swapped:
        u_src, v_src = v_src, u_src
    path = ChartPath.from_expressions(u_src, v_src, (0.0, 1.0))
    curve = unit_speed_chart_curve(_orientation_chart(name, swapped), path, 64)
    return sample_frames(curve, uniform_grid(0.0, curve.s_range[1], samples))


class TestOrientation:
    """Sign laws of the Darboux scalars.  Exchanging u and v flips the
    surface normal U, so V = U x T flips too: k_n and k_g change sign and
    tau_g = -U'.V does not.  Reversing the curve flips T and V but not U:
    only k_g changes sign (and tau_g', a derivative of an unchanged scalar
    along the reversed arclength)."""

    @settings(max_examples=20, deadline=None)
    @given(ORIENTATION_PATHS)
    def test_swapped_chart_flips_kn_and_kg(self, case):
        name, *params = case
        a = _orientation_frames(name, params)
        b = _orientation_frames(name, params, swapped=True)
        assert np.array_equal(a.s, b.s)
        # measured at most 2.7e-15 (the chain rule sums in another order)
        np.testing.assert_allclose(b.kn, -a.kn, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b.kg, -a.kg, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b.tg, a.tg, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b.dtg, a.dtg, rtol=0, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(ORIENTATION_PATHS)
    def test_reversed_curve_flips_kg_only(self, case):
        name, *params = case
        a = _orientation_frames(name, params)
        b = _orientation_frames(name, params, reversed_=True)
        assert b.s[-1] == pytest.approx(a.s[-1], rel=1e-12)
        # measured at most 1.9e-12 (two arclength tables, two inversions)
        np.testing.assert_allclose(b.kg[::-1], -a.kg, rtol=0, atol=1e-9)
        np.testing.assert_allclose(b.kn[::-1], a.kn, rtol=0, atol=1e-9)
        np.testing.assert_allclose(b.tg[::-1], a.tg, rtol=0, atol=1e-9)
        np.testing.assert_allclose(b.dtg[::-1], -a.dtg, rtol=0, atol=1e-9)


class TestUnitSpeedCondition:
    @pytest.mark.parametrize("maker", [make_helix_curve, make_latitude_curve],
                             ids=["helix", "latitude"])
    def test_metric_residual(self, maker):
        self.assert_unit_metric_speed(maker())

    def test_metric_residual_after_reparametrization(self):
        # u = s, v = 2 s winds the torus at metric speed between 2.2 and 2.7
        path = ChartPath.from_expressions("s", "2*s", (0.0, 2 * math.pi))
        self.assert_unit_metric_speed(unit_speed_chart_curve(darboux.torus(2.0, 0.5), path, 256))

    @staticmethod
    def assert_unit_metric_speed(c):
        for s in np.linspace(*c.s_range, 50):
            u, v, du, dv = c.path.first_order(s)
            ff = c.surface.first_form(u, v)
            residual = ff.E * du**2 + 2 * ff.F * du * dv + ff.G * dv**2 - 1.0
            assert abs(residual) <= 1e-9


class TestResample:
    def test_helix_length(self):
        raw = ParamCurve(
            lambda t: np.array([math.cos(t), math.sin(t), t]),
            lambda t: np.array([-math.sin(t), math.cos(t), 1.0]),
            lambda t: np.array([-math.cos(t), -math.sin(t), 0.0]),
            lambda t: np.array([math.sin(t), -math.cos(t), 0.0]),
            (0.0, 2 * math.pi),
        )
        c = resample_unit_speed(raw, 128)
        assert c.length == pytest.approx(2 * math.pi * SQRT2, abs=1e-9)
        for s in np.linspace(0.0, c.length, 25):
            assert np.linalg.norm(c.jet(s)[1]) == pytest.approx(1.0, abs=1e-11)
        fr = frenet(c, 1.0)
        assert fr.kappa == pytest.approx(0.5, abs=1e-10)
        assert fr.tau == pytest.approx(0.5, abs=1e-9)

    def test_identity_on_unit_speed_input(self):
        raw = ParamCurve(
            lambda t: np.array([math.cos(t), math.sin(t), 0.0]),
            lambda t: np.array([-math.sin(t), math.cos(t), 0.0]),
            lambda t: np.array([-math.cos(t), -math.sin(t), 0.0]),
            lambda t: np.array([math.sin(t), -math.cos(t), 0.0]),
            (0.0, 2 * math.pi),
        )
        c = resample_unit_speed(raw, 64)
        assert c.length == pytest.approx(2 * math.pi, abs=1e-10)
        for s in (0.3, 1.7, 5.9):
            np.testing.assert_allclose(c.jet(s)[0],
                                       [math.cos(s), math.sin(s), 0.0], atol=1e-10)

    def test_vanishing_speed(self):
        raw = ParamCurve(
            lambda t: np.array([t**3, 0.0, 0.0]),
            lambda t: np.array([3 * t**2, 0.0, 0.0]),
            lambda t: np.array([6 * t, 0.0, 0.0]),
            lambda t: np.array([6.0, 0.0, 0.0]),
            (-0.1, 0.1),
        )
        with pytest.raises(VanishingSpeedError):
            resample_unit_speed(raw, 64)

    @pytest.mark.parametrize("n", [64, 65])
    def test_vanishing_speed_on_chart_path(self, n):
        # u = s^3 stops at s = 0: a table node for n = 64, a midpoint for n = 65
        path = ChartPath.from_expressions("s^3", "0", (-0.1, 0.1))
        with pytest.raises(VanishingSpeedError):
            unit_speed_chart_curve(darboux.plane(), path, n)

    def test_chart_reparametrization_unit_speed(self):
        # u = v = s on the unit cylinder has metric speed sqrt(2)
        path = ChartPath.from_expressions("s", "s", (0.0, 2 * math.pi))
        c = unit_speed_chart_curve(darboux.cylinder(1.0), path, n=128)
        assert c.s_range[1] == pytest.approx(2 * math.pi * SQRT2, abs=1e-9)
        fr = darboux_frame(c, 1.0)
        assert fr.kn == pytest.approx(-0.5, abs=1e-9)
        assert fr.tg == pytest.approx(0.5, abs=1e-9)
        g, d1, d2, d3 = c.gamma_jet(2.0)
        assert np.linalg.norm(d1) == pytest.approx(1.0, abs=1e-11)

    def test_unit_speed_path_reparametrizes_to_itself(self):
        # the unit-speed path's speed reads its first_order lane by lane
        torus = darboux.torus(2.0, 0.5)
        c = unit_speed_chart_curve(torus, ChartPath.from_expressions("s", "2*s", (0.0, 1.0)), 64)
        again = unit_speed_chart_curve(torus, c.path, 64)
        assert again.s_range[1] == pytest.approx(c.s_range[1], rel=1e-10)
        for s in (0.1, 0.9, 1.7):
            np.testing.assert_allclose(again.gamma_jet(s), c.gamma_jet(s), atol=1e-8)

    def test_unit_speed_path_on_another_surface_object(self):
        # an equal torus that is not the path's own: each sample is read
        # through the path's jet, with the bits of the curve on its own torus
        c = unit_speed_chart_curve(darboux.torus(2.0, 0.5),
                                   ChartPath.from_expressions("s", "2*s", (0.0, 1.0)), 128)
        other = CurveOnSurface(darboux.torus(2.0, 0.5), chart_path=c.path)
        assert other.surface is not c.surface
        grid = uniform_grid(0.0, c.s_range[1], 21)
        mine, theirs = sample_frames(c, grid), sample_frames(other, grid)
        for name in ("gamma", "T", "V", "U", "kg", "kn", "tg", "dkg", "dkn", "dtg", "tau"):
            assert getattr(mine, name).tobytes() == getattr(theirs, name).tobytes()
        for s in (0.0, 0.4, c.s_range[1]):
            a, b = darboux_frame(c, s), darboux_frame(other, s)
            for name in ("T", "V", "U", "kg", "kn", "tg"):
                assert np.array_equal(getattr(a, name), getattr(b, name))


def _helix_param_curve():
    return ParamCurve(
        lambda t: np.array([math.cos(t), math.sin(t), t]),
        lambda t: np.array([-math.sin(t), math.cos(t), 1.0]),
        lambda t: np.array([-math.cos(t), -math.sin(t), 0.0]),
        lambda t: np.array([math.sin(t), -math.cos(t), 0.0]),
        (0.0, 2 * math.pi),
    )


def _adaptive_simpson(f, a, b, fa, fm, fb, whole, tol, depth):
    """Adaptive Simpson on [a, b] from f at a, the midpoint and b and the
    Simpson estimate `whole` built from them, depth first: the recursion
    whose bits and first error the breadth-first arclength table keeps."""
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if depth <= 0 or abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    if not math.isfinite(err):
        raise DarbouxError(f"speed not finite for t in [{float(a):g}, {float(b):g}]")
    # the estimate is rounding noise, or [a, b] is a few dozen ulps wide
    if abs(err) <= 8.0 * 2.0**-52 * abs(whole) or b - a <= 2.0**-46 * max(abs(a), abs(b)):
        return left + right + err / 15.0
    half = 0.5 * tol
    return (_adaptive_simpson(f, a, m, fa, flm, fm, left, half, depth - 1)
            + _adaptive_simpson(f, m, b, fm, frm, fb, right, half, depth - 1))


def _third_order_chart_speed(surface, path):
    """|gamma'(t)| read off the full third-order chain, as the chart speed
    was first computed."""

    def speed(t):
        (u, v), d1, d2, d3 = path.jet(t)
        return norm3(_chart_rule_jets(surface.chart_jet(u, v), surface.jet3(u, v),
                                      d1, d2, d3)[1])

    return speed


class _ReferenceArclength:
    """The arclength map as first written: Simpson evaluates its end and
    midpoint speeds afresh, and t_of_s always takes three Newton steps."""

    GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(12)

    def __init__(self, speed, t_range, n, tol=1e-10):
        self.speed = speed
        self.t_nodes = np.linspace(t_range[0], t_range[1], max(int(n), 8) + 1)
        increments = []
        for a, b in zip(self.t_nodes[:-1], self.t_nodes[1:]):
            fa, fm, fb = speed(a), speed(0.5 * (a + b)), speed(b)
            whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
            increments.append(_adaptive_simpson(speed, a, b, fa, fm, fb, whole, tol, 50))
        self.s_nodes = np.concatenate([[0.0], np.cumsum(increments)])
        self.length = float(self.s_nodes[-1])
        self.inverse = PchipInterpolator(self.s_nodes, self.t_nodes)

    def t_of_s(self, s):
        s = min(max(float(s), 0.0), self.length)
        t = float(self.inverse(s))
        t = min(max(t, self.t_nodes[0]), self.t_nodes[-1])
        for _ in range(3):
            k = int(np.searchsorted(self.t_nodes, t, side="right") - 1)
            k = min(max(k, 0), len(self.t_nodes) - 2)
            a = self.t_nodes[k]
            half = 0.5 * (t - a)
            pts = a + half * (self.GL_NODES + 1.0)
            # the Gauss-Legendre sum accumulated left to right, one rounding
            # per product and per sum (not sum(), which compensates on 3.12+)
            terms = [w * self.speed(p) for w, p in zip(self.GL_WEIGHTS.tolist(), pts.tolist())]
            total = terms[0]
            for term in terms[1:]:
                total += term
            arc = self.s_nodes[k] + half * total
            t -= (arc - s) / self.speed(t)
            t = min(max(t, self.t_nodes[0]), self.t_nodes[-1])
        return t


def _per_lane(speed):
    """An array-valued speed for ArclengthMap from a scalar one."""
    return lambda ts: np.array([speed(t) for t in ts], dtype=float)


class _ArclengthCase(NamedTuple):
    amap: ArclengthMap             # the map under test, on the reference's speed
    ref: _ReferenceArclength
    curve_length: float            # of the unit-speed curve built by the library
    point_of_s: Callable           # s -> that curve's point
    point_of_t: Callable           # t -> the same point from the raw parameter


@functools.cache
def _arclength_cases():
    """A torus chart path and a resampled space helix, each at n = 64."""
    n = 64
    torus = darboux.torus(2.0, 0.5)
    path = ChartPath.from_expressions("s", "2*s", (0.0, 2 * math.pi))
    speed = _third_order_chart_speed(torus, path)
    chart = unit_speed_chart_curve(torus, path, n)
    raw = _helix_param_curve()

    def helix_speed(t):
        return norm3(raw.c1(t))

    helix = resample_unit_speed(raw, n)
    return {
        "torus chart path": _ArclengthCase(
            ArclengthMap(_per_lane(speed), path.s_range, n),
            _ReferenceArclength(speed, path.s_range, n),
            chart.s_range[1], lambda s: np.array(chart.path.jet(s)[0]),
            lambda t: np.array(path.jet(t)[0])),
        "space helix": _ArclengthCase(
            ArclengthMap(_per_lane(helix_speed), raw.t_range, n),
            _ReferenceArclength(helix_speed, raw.t_range, n),
            helix.length, lambda s: helix.jet(s)[0], raw.c),
    }


ARCLENGTH_CASES = ["torus chart path", "space helix"]


class TestArclengthBitIdentity:
    """The cheap arclength inversion (first-order chart speed, table speeds
    reused, Newton exit at a fixed point) gives the bits of the map as first
    written."""

    @pytest.mark.parametrize("name", ARCLENGTH_CASES)
    def test_table_matches_reference(self, name):
        case = _arclength_cases()[name]
        assert np.array_equal(case.amap.s_nodes, case.ref.s_nodes)
        assert case.amap.length == case.ref.length
        assert case.curve_length == case.ref.length

    @settings(max_examples=50, deadline=None)
    @given(name=st.sampled_from(ARCLENGTH_CASES), frac=st.floats(0.0, 1.0))
    def test_t_of_s_matches_three_fixed_steps(self, name, frac):
        case = _arclength_cases()[name]
        s = frac * case.ref.length
        t_ref = case.ref.t_of_s(s)
        assert case.amap.t_of_s(s) == t_ref
        assert np.array_equal(case.point_of_s(s), case.point_of_t(t_ref))


class TestBatchedInversion:
    """t_of_s_many runs the Newton polish on all lanes at once and gives
    each lane the bits of t_of_s and of the map as first written."""

    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(ARCLENGTH_CASES),
           fracs=st.lists(st.floats(-0.1, 1.1), min_size=1, max_size=40))
    def test_lanes_match_scalar_inversion(self, name, fracs):
        case = _arclength_cases()[name]
        s = [f * case.ref.length for f in fracs]
        many = case.amap.t_of_s_many(s)
        assert [t.hex() for t in many.tolist()] == [case.amap.t_of_s(x).hex() for x in s]
        assert [t.hex() for t in many.tolist()] == [float(case.ref.t_of_s(x)).hex() for x in s]

    @pytest.mark.parametrize("name", ARCLENGTH_CASES)
    def test_uniform_grid(self, name):
        case = _arclength_cases()[name]
        grid = uniform_grid(0.0, case.ref.length, 257)
        many = case.amap.t_of_s_many(grid)
        assert [t.hex() for t in many.tolist()] == [
            float(case.ref.t_of_s(x)).hex() for x in grid]


def _depth_first_chart_table(surface, path, n, eps_speed=1e-12):
    """unit_speed_chart_curve's arclength table built point by point from a
    scalar first-order speed: every node, then every midpoint, checked
    against eps_speed, then Simpson depth first on each interval."""

    def speed(t):
        u, v, du, dv = path.first_order(t)
        jet = surface.chart_jet(u, v)
        return norm3(du * jet.sigma_u + dv * jet.sigma_v)

    def checked(t):
        value = speed(t)
        if value <= eps_speed:
            raise VanishingSpeedError(f"vanishing speed at t={float(t):g}")
        return value

    nodes = np.linspace(*path.s_range, max(n, 8) + 1)
    f_nodes = [checked(t) for t in nodes]
    f_mids = [checked(t) for t in 0.5 * (nodes[:-1] + nodes[1:])]
    return [_adaptive_simpson(speed, a, b, f_nodes[k], f_mids[k], f_nodes[k + 1],
                              (b - a) / 6.0 * (f_nodes[k] + 4.0 * f_mids[k] + f_nodes[k + 1]),
                              1e-10, 50)
            for k, (a, b) in enumerate(zip(nodes[:-1], nodes[1:]))]


def _raised(fn, *args):
    """(type, message) of the exception fn(*args) raises, or None."""
    try:
        fn(*args)
    except Exception as exc:  # the comparison is the point
        return type(exc), str(exc)
    return None


class TestArclengthErrorParity:
    """A table batch records the lanes that fail and raises the failure a
    depth-first build meets first (nodes, midpoints, then the recursion's
    pre-order), and a failing frame-input batch evaluates the flagged
    samples in grid order: either way the error is the one a point-by-point
    pass meets first."""

    def assert_same_error(self, surface, path, n, expected):
        error = _raised(unit_speed_chart_curve, surface, path, n)
        assert error == _raised(_depth_first_chart_table, surface, path, n)
        assert error is not None and error[0] is expected
        return error

    # per-lane chart jets on the helicoid, array tangents on the cylinder
    @pytest.mark.parametrize("surface", [darboux.helicoid(1.0),
                                         darboux.cylinder(1.0, v_range=(-5.0, 5.0))], ids=repr)
    @settings(max_examples=20, deadline=None)
    @given(slope=st.floats(2.6, 20.0), n=st.integers(8, 80))
    def test_path_leaving_the_chart(self, surface, slope, n):
        # v = slope s leaves v <= 5 at s = 5 / slope, inside (0, 2)
        path = ChartPath.from_expressions("s", f"{slope!r}*s", (0.0, 2.0))
        self.assert_same_error(surface, path, n, OutOfDomainError)

    def test_speed_batch_keeps_lane_order(self):
        # the first node leaves the chart (v = 9), and the path fails from
        # s = 2 on (ln of -0.5 at the last node): the batch reads the path on
        # every lane before the chart, so it raises the path's error, and the
        # table raises the first node's
        surface = darboux.cylinder(1.0, v_range=(-5.0, 5.0))
        path = ChartPath.from_expressions("ln(2-s)", "10*s", (0.9, 2.5))
        self.assert_same_error(surface, path, 8, OutOfDomainError)

    # The kink at 5/32 is a Simpson point of the first level (interval 1),
    # the one at 1/256 of the fourth (interval 0): the breadth-first table
    # evaluates 5/32 first, but 1/256 comes first in pre-order.  5/64 and
    # 9/64 are both points of the second level, in the right half of
    # interval 0 and the left half of interval 1: that level holds the left
    # halves first, so its lane order puts 9/64 first, pre-order 5/64.
    @pytest.mark.parametrize("first,second", [("0.00390625", "0.15625"),
                                              ("0.078125", "0.140625")])
    def test_two_kinks_raise_the_first_in_pre_order(self, first, second):
        path = ChartPath.from_expressions(f"abs(s-{first})+abs(s-{second})+3*s", "s",
                                          (0.0, 1.0))
        error = self.assert_same_error(darboux.plane(), path, 8, EvalDomainError)
        assert f"'sign(s - {first})'" in error[1]

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_dyadic_kinks_at_different_levels(self, data):
        # each kink c = k/8 + (2j+1)/(32 2^L) is first evaluated at Simpson
        # level L of table interval k (n = 8 on [0, 1]); with 3 or 4 kinks,
        # failures on three or four levels must still raise in pre-order
        count = data.draw(st.integers(2, 4))
        intervals = data.draw(st.lists(st.integers(0, 7), min_size=count, max_size=count,
                                       unique=True))
        levels = data.draw(st.lists(st.integers(0, 6), min_size=count, max_size=count,
                                    unique=True))
        kinks = [k / 8 + (2 * data.draw(st.integers(0, 2 ** (level + 1) - 1)) + 1)
                 / (32 * 2**level) for k, level in zip(intervals, levels)]
        path = ChartPath.from_expressions(
            "".join(f"abs(s-{kink!r})+" for kink in kinks) + "3*s", "s", (0.0, 1.0))
        self.assert_same_error(darboux.plane(), path, 8, EvalDomainError)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_zero_speed_on_the_plane(self, data):
        # u = (s - c)^3 stops at s = c, a table node (even k) or midpoint (odd k)
        n = data.draw(st.integers(8, 80))
        c = data.draw(st.integers(0, 2 * n)) / (2 * n)
        path = ChartPath.from_expressions(f"(s-{c!r})^3", "0", (0.0, 1.0))
        self.assert_same_error(darboux.plane(), path, n, VanishingSpeedError)

    @settings(max_examples=20, deadline=None)
    @given(c=st.floats(0.05, 0.95), n=st.integers(8, 80))
    def test_log_through_nonpositive_argument(self, c, n):
        # 0.1 ln keeps u inside the plane chart wherever ln is defined
        path = ChartPath.from_expressions(f"0.1*ln({c!r}-s)", "0.5*s", (-1.0, 1.0))
        self.assert_same_error(darboux.plane(), path, n, EvalDomainError)

    def test_frames_keep_grid_order(self):
        # u = s, v = 3 s at speed > 1 on the helicoid: the first sample's
        # frame fails (not unit speed) before v leaves the chart at s = 5/3
        c = CurveOnSurface(darboux.helicoid(1.0),
                           chart_path=constant_speed_path(0.0, 0.0, 1.0, 3.0, (0.0, 3.0)))
        grid = uniform_grid(0.0, 3.0, 31)

        def point_by_point():
            for s in grid:
                darboux_frame(c, s)

        error = _raised(sample_frames, c, grid)
        assert error == _raised(point_by_point)
        assert error[0] is DarbouxError and "not unit speed at s=0:" in error[1]

    def test_hole_between_the_points_the_table_reads(self):
        # u fails on (0.2972, 0.3005), between the table's nodes, midpoints
        # and quarter points (k/256): the table is built, the batched
        # inversion of the grid raises, every sample is inverted again on
        # its own, and the first whose Newton step reads the hole raises
        def u(s):
            if 0.2972 < s < 0.3005:
                raise DarbouxError(f"no path point at s={s:g}")
            return s

        path = ChartPath(lambda s: ((u(s), 0.0), (1.0, 0.0), (0.0, 0.0), (0.0, 0.0)), (0.0, 1.0))
        c = unit_speed_chart_curve(darboux.plane(), path, 64)
        grid = uniform_grid(0.0, c.s_range[1], 11)

        def point_by_point():
            for s in grid:
                darboux_frame(c, s)

        error = _raised(sample_frames, c, grid)
        assert error == _raised(point_by_point)
        assert error[0] is DarbouxError and "no path point" in error[1]

    def test_speed_blowing_up_raises_a_typed_error(self):
        # u = tan(0.3 s) has a pole at s = 5.236: every speed lane is finite,
        # but Simpson would split forever there, so the table stops at the
        # lane cap and names the interval
        path = ChartPath.from_expressions("tan(0.3*s)", "sqrt(2+s)", (0.0, 2 * math.pi))
        with pytest.raises(ArclengthTableError, match=r"t in \[5\.2\d*, 5\.2\d*\]"):
            unit_speed_chart_curve(darboux.cylinder(1.0), path, 64)

    def test_non_finite_speed_raises(self):
        # a nan speed inside the table used to split Simpson to full depth
        def speed(ts):
            return np.where(ts > 0.3, np.nan, 1.0)

        with pytest.raises(DarbouxError, match="speed not finite for t in"):
            ArclengthMap(speed, (0.0, 1.0), 8)


    def test_range_below_float_arclengths_raises_a_typed_error(self):
        # the increments underflow to 0: the table is not strictly
        # increasing, and the error names the range
        with pytest.raises(ArclengthTableError, match=r"t in \[0, 9\.88131e-323\]"):
            ArclengthMap(lambda ts: np.full(len(ts), SQRT2), (0.0, 1e-322), 8)

    def test_overflowing_arclength_raises_a_typed_error(self):
        # each increment is 1.25e308: the second node's arclength is inf
        with pytest.raises(ArclengthTableError, match="cannot be inverted"), \
                np.errstate(over="ignore"):
            ArclengthMap(lambda ts: np.full(len(ts), 1e300), (0.0, 1e9), 8)


def _bit_list(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


@st.composite
def _pchip_table(draw):
    """A strictly increasing table of n >= 2 nodes at a scale from 1e-300
    to 1e300, y with plateaus, sign changes and monotone runs, and queries
    at the knots, at and beyond both ends, between knots and on nan lanes."""
    n = draw(st.integers(2, 40))
    scale = 10.0 ** draw(st.integers(-300, 300))
    gaps = draw(st.lists(st.floats(0.01, 100.0), min_size=n - 1, max_size=n - 1))
    x = (draw(st.floats(-100.0, 100.0)) + np.concatenate([[0.0], np.cumsum(gaps)])) * scale
    # y on x's scale (moderate slopes) or on its own (slopes may overflow)
    k = round(math.log10(scale))
    y_scale = 10.0 ** draw(st.integers(max(k - 5, -300), min(k + 5, 300))
                           | st.integers(-300, 300))
    levels = st.floats(-100.0, 100.0) | st.sampled_from([0.0, -0.0, 1.0])
    y = np.array(draw(st.lists(levels, min_size=n, max_size=n))) * y_scale
    if draw(st.booleans()):
        y = np.sort(y)
    fractions = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n - 1, max_size=n - 1)))
    queries = np.concatenate([
        x, x[:-1] + fractions * (x[1:] - x[:-1]),
        [x[0] - scale, x[-1] + scale, np.nan, -np.nan, np.inf, -np.inf]])
    return x, y, queries


class TestPchipPort:
    """frames._Pchip against scipy's PchipInterpolator, which it replaces:
    the same bits on every query lane, and non-finite slopes exactly where
    scipy refuses the table."""

    @settings(max_examples=300, deadline=None)
    @given(table=_pchip_table())
    def test_bits_match_scipy(self, table):
        x, y, queries = table
        assert (x[1:] > x[:-1]).all() and np.isfinite(x).all()
        port = _frames._Pchip(x, y)
        try:
            with np.errstate(all="ignore"):
                reference = PchipInterpolator(x, y)
        except ValueError as exc:
            assert "finite" in str(exc)
            assert not np.isfinite(port.slopes).all()
            return
        assert np.isfinite(port.slopes).all()
        assert _bit_list(port(queries)) == _bit_list(reference(queries))

    def test_two_nodes_are_linear(self):
        x, y = np.array([1.0, 3.0]), np.array([2.0, -2.0])
        q = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        assert _bit_list(_frames._Pchip(x, y)(q)) == _bit_list(PchipInterpolator(x, y)(q))


class TestHermitePort:
    """frames._Hermite against scipy's CubicHermiteSpline, which it
    replaces (from_polyline's interpolants, and _Pchip's cubics): the same
    bits on every query lane, for (n,) and (n, 3) values and for array and
    scalar queries, nan lanes included."""

    @settings(max_examples=300, deadline=None)
    @given(table=_pchip_table(), seed=st.integers(0, 2**32 - 1),
           width=st.sampled_from([None, 3]))
    def test_bits_match_scipy(self, table, seed, width):
        x, y, queries = table
        rng = np.random.default_rng(seed)
        with np.errstate(all="ignore"):
            if width:
                y = y[:, None] * rng.uniform(-2.0, 2.0, width)
            # slopes on the secants' scale, finite as scipy requires
            slopes = rng.uniform(-2.0, 2.0, y.shape) * (np.max(np.abs(y)) / (x[-1] - x[0]))
        assume(np.isfinite(y).all() and np.isfinite(slopes).all())
        port = _frames._Hermite(x, y, slopes)
        with np.errstate(all="ignore"):
            reference = CubicHermiteSpline(x, y, slopes)
        assert _bit_list(port(queries)) == _bit_list(reference(queries))
        for q in queries.tolist():
            value = port(q)
            assert value.shape == y.shape[1:]
            assert _bit_list(value) == _bit_list(reference(q))


class TestScaledArclength:
    """Arclengths far above the absolute Simpson tolerance: the table stops
    splitting where the error estimate is rounding noise of the interval's
    arclength, and agrees bit for bit with the depth-first build."""

    @pytest.mark.parametrize("surface", [darboux.cylinder(1e60), darboux.torus(1e60, 1e59)],
                             ids=repr)
    def test_table_builds_stop_at_rounding_level(self, surface):
        path = ChartPath.from_expressions("s", "s", (0.0, 2 * math.pi))
        amap = unit_speed_chart_curve(surface, path, 64).path.amap
        lanes = [0]
        speed = amap.speed

        def counted(ts):
            lanes[0] += len(ts)
            return speed(ts)

        amap.speed = counted
        by_level = amap._increments(1e-10, 1e-12)
        assert 2 * 64 + 1 < lanes[0] < 50_000  # measured 257 and 12637 lanes
        depth_first = _depth_first_chart_table(surface, path, 64)
        assert [float(x).hex() for x in by_level] == [float(x).hex() for x in depth_first]
        assert math.isfinite(amap.length) and amap.length > 6e60


class TestArclengthEvaluationCounts:
    """Raw chart evaluations made by unit_speed_chart_curve and the frame
    samples read from it, counted through the public constructor."""

    @staticmethod
    def counting_torus(calls):
        base = darboux.torus(2.0, 0.5)

        def jet(u, v):
            calls["jet"] += 1
            j = base.chart_jet(u, v)
            return j.sigma, j.sigma_u, j.sigma_v, j.sigma_uu, j.sigma_uv, j.sigma_vv

        def jet3(u, v):
            calls["jet3"] += 1
            return base.jet3(u, v)

        return ParametricSurface("counted torus", jet, base.u_range, base.v_range,
                                 periodic_u=True, periodic_v=True, jet3_fn=jet3)

    def test_torus_winding(self):
        calls = {"jet": 0, "jet3": 0}
        surface = self.counting_torus(calls)
        n, samples = 512, 200
        path = ChartPath.from_expressions("s", "2*s", (0.0, 2 * math.pi))
        c = unit_speed_chart_curve(surface, path, n)
        # the table reads the first-order speed once at each of the n + 1
        # nodes and n midpoints, and Simpson adds two points per interval
        assert calls == {"jet": 4 * n + 1, "jet3": 0}
        calls["jet"] = 0
        sample_frames(c, uniform_grid(0.0, c.s_range[1], samples))
        # each sample: one chart jet and one jet3 at (u(s), v(s)), shared by
        # the third-order chain through t(s) and the frame itself
        assert calls["jet3"] == samples
        # the rest are Newton steps of 13 speeds each, at most three per
        # sample; the fixed-point exit saves a step on many samples
        newton_speeds = calls["jet"] - samples
        assert newton_speeds % 13 == 0
        assert newton_speeds // 13 < 3 * samples
        # measured 30.2 chart jets per sample (2.2 Newton steps)
        assert calls["jet"] <= 31 * samples


class TestPolyline:
    def test_from_samples_of_latitude_circle(self):
        c_exact = make_latitude_curve()
        n = 400
        L = c_exact.s_range[1]
        s = np.linspace(0.0, L, n)
        pts = np.array([c_exact.gamma_jet(t)[0] for t in s])
        poly = UnitSpeedCurve.from_polyline(pts, length=L)
        assert not poly.analytic
        cos = CurveOnSurface(darboux.implicit_sphere(1.0), space_curve=poly,
                             on_surface_tol=1e-6)
        fr = darboux_frame(cos, L / 2)
        assert fr.kn == pytest.approx(-1.0, abs=1e-4)
        assert fr.kg == pytest.approx(1.0, abs=1e-4)

    def test_rejects_too_few_samples(self):
        with pytest.raises(DarbouxError):
            UnitSpeedCurve.from_polyline(np.zeros((3, 3)))

    def test_stacked_interpolant_keeps_the_bits_of_one_per_order(self):
        # the polyline's one interpolant of its (n, 4, 3) jet against four
        # per-order interpolants of the same stencils: on the nodes (both
        # ends included), between them, and just inside each end
        n, L = 41, 1.7
        s = np.linspace(0.0, L, n)
        pts = np.column_stack([np.cos(s), np.sin(s), 0.3 * s**2])
        poly = UnitSpeedCurve.from_polyline(pts, length=L)
        jets = [pts]
        for _ in range(4):
            jets.append(deriv_uniform(jets[-1], s[1] - s[0]))
        orders = [_frames._Hermite(s, y, slopes) for y, slopes in zip(jets, jets[1:])]
        grid = np.concatenate([s, 0.5 * (s[:-1] + s[1:]), [1e-9, L - 1e-9]])
        columns, bad = poly._jet_columns(grid)
        assert not bad.any()
        for column, interpolant in zip(columns, orders):
            assert [x.tobytes() for x in column] == [x.tobytes() for x in interpolant(grid).T]
        for x in grid.tolist():
            assert (np.array(poly._jet_of(x)).tobytes()
                    == np.array([interpolant(x) for interpolant in orders]).tobytes())


class TestTypedInputErrors:
    """Inputs the public constructors and samplers refuse, each with a
    DarbouxError that names what is wrong."""

    def test_polyline_with_a_non_finite_sample(self):
        points = np.zeros((8, 3))
        points[3, 1] = math.nan
        with pytest.raises(DarbouxError, match="polyline samples must be finite"):
            UnitSpeedCurve.from_polyline(points)

    def test_curve_on_surface_takes_exactly_one_curve(self):
        helix = make_helix_curve()
        with pytest.raises(DarbouxError, match="exactly one"):
            CurveOnSurface(darboux.cylinder(1.0))
        with pytest.raises(DarbouxError, match="exactly one"):
            CurveOnSurface(darboux.cylinder(1.0), chart_path=helix.path,
                           space_curve=make_unit_helix_space_curve())

    def test_curve_kind_must_match_the_surface(self):
        with pytest.raises(DarbouxError, match="chart paths require a parametric surface"):
            CurveOnSurface(darboux.implicit_sphere(1.0), chart_path=make_helix_curve().path)
        with pytest.raises(DarbouxError, match="space curves require an implicit surface"):
            CurveOnSurface(darboux.cylinder(1.0), space_curve=make_unit_helix_space_curve())

    def test_empty_parameter_range(self):
        path = ChartPath.from_expressions("s", "s", (1.0, 1.0))
        with pytest.raises(DarbouxError, match="empty parameter range"):
            unit_speed_chart_curve(darboux.cylinder(1.0), path)

    @pytest.mark.parametrize("grid,why", [
        ([0.5], "at least 2 samples"),
        ([0.0, 0.1, 0.3], "uniformly spaced and increasing"),
        ([0.2, 0.1, 0.0], "uniformly spaced and increasing"),
    ])
    def test_sample_frames_grid(self, grid, why):
        with pytest.raises(DarbouxError, match=why):
            sample_frames(make_helix_curve(), np.array(grid))


class TestCompiledPaths:
    """Expression paths and curves: one compile per function they keep,
    and arclength speeds from the compiled functions' columns with the bits
    of their lanes."""

    def test_first_order_reads_no_higher_derivative(self):
        # u = s^2.5 has u' = 0 at s = 0, but its third derivative 1.875 s^-0.5 fails there
        path = ChartPath.from_expressions("s^2.5", "s", (0.0, 1.0))
        assert path.first_order(0.0) == (0.0, 0.0, 0.0, 1.0)
        with pytest.raises(EvalDomainError, match="pow domain error"):
            path.jet(0.0)
        assert path.first_order(0.25) == (*path.jet(0.25)[0], *path.jet(0.25)[1])

    def test_jet_raises_the_first_failing_component(self):
        # u'' = -1/(4 s^1.5) fails at s = 0 before v = ln(s) is read;
        # v fails first where both u and v are defined but v' is not
        path = ChartPath.from_expressions("sqrt(s)", "ln(s)", (0.0, 1.0))
        with pytest.raises(EvalDomainError, match="ln of nonpositive"):
            path.jet(0.0)
        path = ChartPath.from_expressions("s", "sqrt(s)", (0.0, 1.0))
        with pytest.raises(EvalDomainError, match="division by zero"):
            path.jet(0.0)

    def test_one_compile_per_kept_function(self, monkeypatch):
        # a cached text compiles nothing: start from empty caches
        _frames._path_functions.cache_clear()
        _frames._curve_functions.cache_clear()
        calls = []
        compile_ = darboux.expr.compile

        def counted(exprs, variables):
            calls.append(len(darboux.expr._flattener(exprs)(exprs)))  # leaves
            return compile_(exprs, variables)

        monkeypatch.setattr(darboux.expr, "compile", counted)
        ChartPath.from_expressions("s", "2*s", (0.0, 1.0))
        assert calls == [8, 4]  # the jet and first_order
        calls.clear()
        ParamCurve.from_expressions("cos(s)", "sin(s)", "s", (0.0, 1.0))
        assert calls == [3, 3, 3, 3]  # c, c1, c2, c3

    PATHS = [("s", "2*s"), ("0.4*(1+s)^1.5", "exp(0.3*s)-sqrt(1+s)"),
             ("s+0.2*tan(0.3*s)", "ln(2+s)*cosh(0.2*s)"), ("abs(s+1)^2", "sinh(0.5*s)")]

    @staticmethod
    def lane_by_lane(*fns):
        """fns as Python functions: no columns, so a speed reads them lane by
        lane."""
        return [lambda *args, fn=fn: fn(*args) for fn in fns]

    @pytest.mark.parametrize("u_src,v_src", PATHS)
    def test_chart_speed_columns_match_lanes(self, u_src, v_src):
        surface = darboux.torus(2.0, 0.5)
        path = ChartPath.from_expressions(u_src, v_src, (0.0, 2.0))
        assert path.first_order.columns(np.linspace(0.0, 2.0, 9)) is not None
        by_columns = unit_speed_chart_curve(surface, path, 64).path.amap
        jet, first_order = self.lane_by_lane(path.jet, path.first_order)
        by_lanes = unit_speed_chart_curve(surface, ChartPath(jet, path.s_range, first_order),
                                          64).path.amap
        s = uniform_grid(0.0, by_lanes.length, 101)
        assert by_columns.s_nodes.tobytes() == by_lanes.s_nodes.tobytes()
        assert by_columns.t_of_s_many(s).tobytes() == by_lanes.t_of_s_many(s).tobytes()

    @pytest.mark.parametrize("z_src", ["s*tan(0.3*s)", "0.3*s^1.5", "exp(0.2*s)-sqrt(1+s)"])
    def test_space_curve_speed_columns_match_lanes(self, z_src):
        raw = ParamCurve.from_expressions("cos(s)", "sin(s)", z_src, (0.0, 3.0))
        by_columns = resample_unit_speed(raw, 64).amap
        by_lanes = resample_unit_speed(ParamCurve(*self.lane_by_lane(raw.c, raw.c1, raw.c2, raw.c3),
                                                  raw.t_range), 64).amap
        s = uniform_grid(0.0, by_lanes.length, 101)
        assert by_columns.s_nodes.tobytes() == by_lanes.s_nodes.tobytes()
        assert by_columns.t_of_s_many(s).tobytes() == by_lanes.t_of_s_many(s).tobytes()

    def test_declining_columns_fall_back_to_lanes(self):
        # ln(2-s) fails on the lane s = 2.5: the columns decline and the
        # lane path raises that lane's error
        path = ChartPath.from_expressions("ln(2-s)", "s", (0.0, 0.1))
        c = unit_speed_chart_curve(darboux.plane(), path, 8)
        assert path.first_order.columns(np.array([0.5, 2.5])) is None
        with pytest.raises(EvalDomainError, match="ln of nonpositive"):
            c.path.amap.speed(np.array([0.5, 2.5]))


class TestCompiledTexts:
    """Paths and space curves, like surfaces, compile each distinct text
    once per process: the texts and the variable are the key, the range is
    not."""

    def test_same_text_shares_the_functions(self, monkeypatch):
        path = ChartPath.from_expressions("s", "s*s", (0.0, 1.0))
        curve = ParamCurve.from_expressions("cos(s)", "sin(s)", "s", (0.0, 1.0))
        calls = []
        compile_ = darboux.expr.compile
        monkeypatch.setattr(darboux.expr, "compile",
                            lambda *args: calls.append(args) or compile_(*args))
        again = ChartPath.from_expressions("s", "s*s", (0.0, 1.0))
        assert again.jet is path.jet and again.first_order is path.first_order
        assert ParamCurve.from_expressions("cos(s)", "sin(s)", "s", (0.0, 1.0)).c3 is curve.c3
        assert calls == []

    def test_other_text_or_variable_compiles_anew(self):
        path = ChartPath.from_expressions("s", "s*s", (0.0, 1.0))
        for other in (ChartPath.from_expressions("s", "s*s*s", (0.0, 1.0)),
                      ChartPath.from_expressions("t", "t*t", (0.0, 1.0), var="t")):
            assert other.jet is not path.jet and other.first_order is not path.first_order
        curve = ParamCurve.from_expressions("cos(s)", "sin(s)", "s", (0.0, 1.0))
        assert ParamCurve.from_expressions("cos(s)", "sin(s)", "2*s", (0.0, 1.0)).c3 is not curve.c3
        assert ParamCurve.from_expressions("cos(t)", "sin(t)", "t", (0.0, 1.0),
                                           var="t").c3 is not curve.c3

    def test_other_range_shares_the_functions_keeps_its_range(self):
        path = ChartPath.from_expressions("s", "s*s", (0.0, 1.0))
        wider = ChartPath.from_expressions("s", "s*s", (0.0, 2.0))
        assert wider.jet is path.jet and wider.first_order is path.first_order
        assert (path.s_range, wider.s_range) == ((0.0, 1.0), (0.0, 2.0))
        curve = ParamCurve.from_expressions("cos(s)", "sin(s)", "s", (0.0, 1.0))
        longer = ParamCurve.from_expressions("cos(s)", "sin(s)", "s", (0.0, 3.0))
        assert longer.c is curve.c and longer.c3 is curve.c3
        assert (curve.t_range, longer.t_range) == ((0.0, 1.0), (0.0, 3.0))

    def test_a_failing_text_raises_on_every_call(self):
        for _ in range(2):
            with pytest.raises(ParseError):
                ChartPath.from_expressions("2*", "s", (0.0, 1.0))
            with pytest.raises(ParseError):
                ParamCurve.from_expressions("s", "2*", "s", (0.0, 1.0))

    def test_caches_keep_compiled_texts_entries(self):
        for cached in (_frames._path_functions, _frames._curve_functions,
                       darboux.surface._chart_functions, darboux.surface._level_functions):
            assert cached.cache_parameters()["maxsize"] == darboux.surface.COMPILED_TEXTS

    def test_catalog_surfaces_share_their_functions(self):
        assert darboux.torus(2, 0.5)._jet_fn is darboux.torus(2, 0.5)._jet_fn
        assert darboux.implicit_torus(2, 0.5)._level is darboux.implicit_torus(2, 0.5)._level
