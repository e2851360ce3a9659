"""Characterization series, constancy verdicts, axis recovery, and the
aggregate report."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson

import darboux
from conftest import (
    SQRT2,
    make_circle_on_plane,
    make_helix_curve,
    make_latitude_curve,
    make_latitude_on_implicit_sphere,
    make_line_on_plane,
    make_space_cone_curve,
    make_unit_helix_space_curve,
)
from darboux.classify import (
    CharacterizationSeries,
    _cumulative_integral,
    classify_report,
    is_constant,
    mu_u_series,
    mu_v_series,
    plane_ode_residual,
    position_decomposition,
    position_theorem_residual,
    recover_axis,
    rectifying_from_scalars,
    slant_helix_series,
    slant_series_from_scalars,
    theorem_functions,
)
from darboux.errors import (
    DarbouxError,
    DegenerateFrameError,
    FrenetUndefinedError,
    InsufficientSamplesError,
    OutOfDomainError,
    SeedError,
)
from darboux.frames import (
    ChartPath,
    CurveOnSurface,
    FrameData,
    UnitSpeedCurve,
    frenet,
    sample_frames,
    uniform_grid,
    unit_speed_chart_curve,
)
from darboux.surface import dot3, implicit_from_expression, parametric_from_expressions
from darboux.trace import TraceConfig, find_seed, trace_isophote


class TestMuSeries:
    def test_helix_mu_v_is_one(self, helix_curve, helix_grid):
        series = mu_v_series(helix_curve, helix_grid)
        np.testing.assert_allclose(series.values, 1.0, atol=1e-12)

    def test_helix_mu_u_is_zero(self, helix_curve, helix_grid):
        series = mu_u_series(helix_curve, helix_grid)
        np.testing.assert_allclose(series.values, 0.0, atol=1e-12)

    def test_latitude_mu_v_is_one(self, latitude_curve, latitude_grid):
        np.testing.assert_allclose(
            mu_v_series(latitude_curve, latitude_grid).values, 1.0, atol=1e-12)

    def test_latitude_mu_u_is_plus_one(self, latitude_curve, latitude_grid):
        # tau_g = 0 on a sphere, so mu_u = k_g q / q^{3/2} = k_g/|k_n| = +1
        np.testing.assert_allclose(
            mu_u_series(latitude_curve, latitude_grid).values, 1.0, atol=1e-12)

    def test_straight_line_degenerate(self):
        line = make_line_on_plane()
        grid = np.linspace(0.0, 2.0, 21)
        with pytest.raises(DegenerateFrameError):
            mu_v_series(line, grid)
        with pytest.raises(DegenerateFrameError):
            mu_u_series(line, grid)

    def test_implicit_curve_matches_chart_curve(self, latitude_curve, latitude_grid):
        imp = make_latitude_on_implicit_sphere()
        a = mu_u_series(latitude_curve, latitude_grid).values
        b = mu_u_series(imp, latitude_grid).values
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_traced_oblique_isophote_is_isophotic(self):
        # k_g, k_n and tau_g are all nonzero along this isophote, so the sign
        # of mu_u's k_g q term decides the verdict: with U' = -k_n T - tau_g V,
        # <U, d> = cos(phi) gives (k_n tau_g' - tau_g k_n' + k_g q)/q^{3/2}
        # = +-cot(phi), here -cot(70 degrees)
        itor = darboux.implicit_torus(2.0, 0.5)
        d = np.array([0.3, 0.1, 1.0]) / math.sqrt(1.1)
        phi = math.radians(70.0)
        seed = find_seed(itor, d, phi, (2.5, 0.0, 0.1))
        res = trace_isophote(itor, d, phi, seed, TraceConfig(step=1e-3, max_length=3.0))
        curve = CurveOnSurface(itor, space_curve=UnitSpeedCurve.from_polyline(res.points))
        report = classify_report(curve, np.linspace(0.0, curve.curve.length, 101))
        verdict = report.verdicts["isophotic"]
        assert verdict["is_constant"], verdict
        assert verdict["mean"] == pytest.approx(-1.0 / math.tan(phi), abs=1e-6)
        assert report.axes["U_axis"]["angle_deg"] == pytest.approx(70.0, abs=1e-6)
        np.testing.assert_allclose(report.axes["U_axis"]["d"], d, atol=1e-9)


# Implicit surfaces for the isophote round trip, each with a map from two
# angles to a point near it (find_seed's guess)
ROUND_TRIP_SURFACES = {
    "torus": (darboux.implicit_torus(2.0, 0.5), lambda a, b: (
        (2.0 + 0.5 * math.cos(b)) * math.cos(a), (2.0 + 0.5 * math.cos(b)) * math.sin(a),
        0.5 * math.sin(b))),
    "ellipsoid": (implicit_from_expression("x^2/4+y^2/2.25+z^2-1"), lambda a, b: (
        2.0 * math.cos(b / 2) * math.cos(a), 1.5 * math.cos(b / 2) * math.sin(a),
        math.sin(b / 2))),
    # x = v cos(u), y = v sin(u), z = u
    "helicoid": (implicit_from_expression("x*sin(z)-y*cos(z)"), lambda a, b: (
        (1.0 + 0.3 * b) * math.cos(a / 3), (1.0 + 0.3 * b) * math.sin(a / 3), a / 3)),
}
_ANGLES = st.floats(-math.pi, math.pi)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(ROUND_TRIP_SURFACES)),
       axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: math.hypot(*v) > 0.2),
       phi_deg=st.floats(30.0, 75.0), a=_ANGLES, b=_ANGLES)
def test_traced_isophote_round_trip(name, axis, phi_deg, a, b):
    """trace, then polyline, then classify gives back the isophote: the
    isophotic verdict, the axis and angle, and |mean mu_u| = cot(phi)."""
    surface, guess = ROUND_TRIP_SURFACES[name]
    d = np.array(axis) / math.hypot(*axis)
    phi = math.radians(phi_deg)
    try:
        seed = find_seed(surface, d, phi, guess(a, b))
    except SeedError:  # the seed search found no point
        assume(False)
    res = trace_isophote(surface, d, phi, seed, TraceConfig(step=1e-3, max_length=3.0))
    assume(res.termination == "length reached")
    # the polyline's end stencils resolve the curve to the unit-speed
    # tolerance only while kappa h stays small, and U must turn along it:
    # where |U'|^2 = k_n^2 + tau_g^2 nearly vanishes, mu_u is a quotient of
    # the polyline's difference noise and the U samples span no cone
    assume(np.hypot(res.kg, res.kn).max() <= 10.0)
    assume((res.kn**2 + res.tg**2).min() >= 1e-3)
    curve = CurveOnSurface(surface, space_curve=UnitSpeedCurve.from_polyline(res.points, res.s[-1]))
    report = classify_report(curve, np.linspace(0.0, curve.curve.length, 101))
    verdict = report.verdicts["isophotic"]
    assert verdict["is_constant"], verdict
    assert abs(verdict["mean"]) == pytest.approx(1.0 / math.tan(phi), abs=1e-5)
    axis_estimate = report.axes["U_axis"]
    assert axis_estimate["angle_deg"] == pytest.approx(phi_deg, abs=1e-6)
    assert abs(np.dot(axis_estimate["d"], d)) == pytest.approx(1.0, abs=1e-9)


class TestSlantHelixSeries:
    def test_circular_helix_is_degenerately_constant(self):
        c = make_unit_helix_space_curve()
        grid = np.linspace(0.0, 4.0, 51)
        series = slant_helix_series(c, grid)
        np.testing.assert_allclose(series.values, 0.0, atol=1e-10)

    def test_planar_circle(self):
        c = make_circle_on_plane()
        grid = np.linspace(0.0, 2 * math.pi, 65)
        series = slant_helix_series(c, grid)
        np.testing.assert_allclose(series.values, 0.0, atol=1e-9)

    def test_polyline_drops_the_stencil_ends(self):
        # a sampled curve's ends are one-sided stencils: masked, as in mu_u
        circle = make_latitude_on_implicit_sphere()
        length = circle.s_range[1]
        points = [circle.gamma_jet(t)[0] for t in np.linspace(0.0, length, 201)]
        poly = CurveOnSurface(darboux.implicit_sphere(1.0), on_surface_tol=1e-6,
                              space_curve=UnitSpeedCurve.from_polyline(points, length))
        series = slant_helix_series(poly, np.linspace(0.0, length, 41))
        assert series.mask.tolist() == [False] * 2 + [True] * 37 + [False] * 2
        np.testing.assert_allclose(series.values[series.mask], 0.0, atol=1e-6)
        # a grid of at most 4 samples keeps every sample, as the measures do
        assert slant_helix_series(poly, np.linspace(0.0, length, 4)).mask.tolist() == [True] * 4

    def test_synthetic_linear_torsion(self):
        # kappa = 1, tau = s: value kappa^2/(kappa^2+tau^2)^{3/2} * 1, so 1 at s=0
        grid = np.linspace(-1.0, 1.0, 41)
        series = slant_series_from_scalars(grid, np.ones_like(grid), grid)
        mid = np.argmin(np.abs(grid))
        assert series.values[mid] == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(series.values, (1 + grid**2) ** -1.5, atol=1e-9)


class TestTheoremFunctions:
    def test_latitude_tu_function_is_one(self, latitude_curve, latitude_grid):
        tf = theorem_functions(latitude_curve, latitude_grid, family="TU")
        np.testing.assert_allclose(tf.slant_criterion.values, 1.0, atol=1e-12)

    def test_helix_tv_function_is_inv_sqrt2(self, helix_curve, helix_grid):
        tf = theorem_functions(helix_curve, helix_grid, family="TV")
        np.testing.assert_allclose(tf.isophote_criterion.values, 1 / SQRT2, atol=1e-12)

    def test_grid_must_increase(self):
        # a hand-built FrameData whose s repeats a value
        ones, rows = np.ones(5), np.zeros((5, 3))
        data = FrameData(np.array([0.0, 0.1, 0.1, 0.3, 0.4]), rows, rows, rows, rows,
                         ones, ones, ones, 0 * ones, 0 * ones, 0 * ones, ones, ones, True)
        with pytest.raises(ValueError, match="Input x must be strictly increasing"):
            theorem_functions(data, family="TU")

    def test_helix_tu_family_degenerate(self, helix_curve, helix_grid):
        with pytest.raises(DegenerateFrameError, match="TU"):
            theorem_functions(helix_curve, helix_grid, family="TU")

    def test_verdict_invariant_under_free_constant(self, latitude_curve, latitude_grid):
        verdicts = []
        for c_const in (0.1, 1.0, 10.0):
            tf = theorem_functions(latitude_curve, latitude_grid, c_const=c_const,
                                   family="TU")
            verdicts.append(is_constant(tf.slant_criterion, 1e-6).is_constant)
            # the coefficient series scale linearly with c
            assert tf.lambda2.values[0] == pytest.approx(c_const, abs=1e-12)
        assert verdicts == [True, True, True]

    def test_zero_constant_rejected(self, latitude_curve, latitude_grid):
        with pytest.raises(ValueError):
            theorem_functions(latitude_curve, latitude_grid, c_const=0.0)

    def test_unknown_family_rejected(self, latitude_curve, latitude_grid):
        with pytest.raises(ValueError, match="unknown family 'UV'"):
            theorem_functions(latitude_curve, latitude_grid, family="UV")

    def test_both_families_match_the_single_family_calls(self, latitude_curve,
                                                          latitude_grid):
        data = sample_frames(latitude_curve, latitude_grid)
        both = theorem_functions(data, c_const=-2.5, family="both")
        tu = theorem_functions(data, c_const=-2.5, family="TU")
        tv = theorem_functions(data, c_const=-2.5, family="TV")
        assert both.c_const == tu.c_const == tv.c_const == -2.5
        for one, names in ((tu, ("slant_criterion", "lambda1", "lambda2")),
                           (tv, ("isophote_criterion", "mu1", "mu2"))):
            for name in names:
                a, b = getattr(both, name), getattr(one, name)
                assert a.name == b.name == name
                assert a.s.tobytes() == b.s.tobytes()
                assert a.values.tobytes() == b.values.tobytes()
                assert a.mask.tobytes() == b.mask.tobytes()
        assert tu.isophote_criterion is tu.mu1 is tu.mu2 is None
        assert tv.slant_criterion is tv.lambda1 is tv.lambda2 is None


class TestPositionDecomposition:
    def test_latitude_equals_normal(self, latitude_curve, latitude_grid):
        pd = position_decomposition(latitude_curve, latitude_grid)
        np.testing.assert_allclose(pd.dot_T.values, 0.0, atol=1e-12)
        np.testing.assert_allclose(pd.dot_V.values, 0.0, atol=1e-12)
        np.testing.assert_allclose(pd.dot_U.values, 1.0, atol=1e-12)
        assert pd.in_plane_TU and not pd.in_plane_TV

    def test_unit_circle_on_plane(self):
        c = make_circle_on_plane()
        pd = position_decomposition(c, np.linspace(0.0, 2 * math.pi, 33))
        np.testing.assert_allclose(pd.dot_T.values, 0.0, atol=1e-12)
        np.testing.assert_allclose(np.abs(pd.dot_V.values), 1.0, atol=1e-12)
        np.testing.assert_allclose(pd.dot_U.values, 0.0, atol=1e-12)

    def test_helix_at_start(self, helix_curve):
        pd = position_decomposition(helix_curve, np.linspace(0.0, 0.2, 9))
        assert pd.dot_T.values[0] == pytest.approx(0.0, abs=1e-12)
        assert pd.dot_V.values[0] == pytest.approx(0.0, abs=1e-12)
        assert pd.dot_U.values[0] == pytest.approx(1.0, abs=1e-12)


class TestPositionTheoremResidual:
    def test_helix_tv_hypotheses_unmet(self, helix_curve, helix_grid):
        series = position_theorem_residual(helix_curve, helix_grid, which="TV")
        # claimed combination is (0, 0, 1) while gamma sits on the cylinder
        assert series.values[series.mask].min() > 0.5

    def test_synthetic_exact_position(self, latitude_curve, latitude_grid):
        data = sample_frames(latitude_curve, latitude_grid)
        q = (data.kg**2 + data.tg**2) ** 1.5
        data.gamma = ((data.kg * data.tg / q)[:, None] * data.T
                      + (data.kg**2 / q)[:, None] * data.U)
        series = position_theorem_residual(data, which="TU")
        assert series.values[series.mask].max() <= 1e-12

    def test_synthetic_exact_position_tv(self, helix_curve, helix_grid):
        data = sample_frames(helix_curve, helix_grid)
        q = (data.kn**2 + data.tg**2) ** 1.5
        data.gamma = ((data.kn**2 / q)[:, None] * data.V
                      - (data.kn * data.tg / q)[:, None] * data.T)
        series = position_theorem_residual(data, which="TV")
        assert series.name == "position_residual_TV"
        assert series.mask.all()
        assert series.values.max() <= 1e-12

    def test_degenerate_error(self):
        line = make_line_on_plane()
        with pytest.raises(DegenerateFrameError):
            position_theorem_residual(line, np.linspace(0.0, 2.0, 21), which="TU")

    def test_bad_which(self, helix_curve, helix_grid):
        with pytest.raises(ValueError):
            position_theorem_residual(helix_curve, helix_grid, which="XY")


class TestPlaneOdeResidual:
    def test_latitude_tu_with_unit_constant(self, latitude_curve, latitude_grid):
        series = plane_ode_residual(latitude_curve, latitude_grid, c_const=1.0,
                                    which="TU")
        assert series.values.max() <= 1e-12

    def test_helix_tv_with_chosen_constant(self, helix_curve, helix_grid):
        series = plane_ode_residual(helix_curve, helix_grid, c_const=-SQRT2,
                                    which="TV")
        np.testing.assert_allclose(series.values, 1 / SQRT2, atol=1e-12)

    def test_zero_constant_rejected(self, helix_curve, helix_grid):
        with pytest.raises(ValueError):
            plane_ode_residual(helix_curve, helix_grid, c_const=0.0, which="TV")

    def test_vanishing_divisor_rejected(self, helix_curve, helix_grid):
        # k_g = 0 on the cylinder helix: the TU ratio tau_g/k_g is undefined
        with pytest.raises(DegenerateFrameError, match="plane relation TU: divisor below"):
            plane_ode_residual(helix_curve, helix_grid, which="TU")

    def test_cone_tv_relation_with_its_constant(self, cone_curve):
        # k_g, k_n and tau_g are all nonzero on this path, so the sign of the
        # (r^2 + 1) k_g term matters: r' + (r^2 + 1) k_g = -(1/c) e^{-J}
        # with c = <gamma, V> at s = 0
        data = sample_frames(cone_curve, np.linspace(*cone_curve.s_range, 201))
        c_const = dot3(data.gamma[0].tolist(), data.V[0].tolist())
        series = plane_ode_residual(data, c_const=c_const, which="TV")
        assert series.values[series.mask].max() <= 1e-8
        assert position_decomposition(data).in_plane_TV
        np.testing.assert_allclose(mu_u_series(data).values, 1.0, atol=1e-12)

    def test_space_cone_is_isophotic_and_in_plane_tv(self):
        # the cone curve as a space curve: tau_g' comes from the implicit
        # surface's third partials, so mu_u and the TV relation (which reads
        # tau_g') hold to the analytic tolerances, as on the chart path
        curve = make_space_cone_curve()
        grid = np.linspace(*curve.s_range, 201)
        report = classify_report(curve, grid)
        verdict = report.verdicts["isophotic"]
        assert verdict["is_constant"], verdict
        assert abs(verdict["mean"]) == pytest.approx(1.0, abs=1e-9)
        assert report.flags["in_plane_TV"]["value"]
        data = sample_frames(curve, grid)
        c_const = dot3(data.gamma[0].tolist(), data.V[0].tolist())
        series = plane_ode_residual(data, c_const=c_const, which="TV")
        assert series.values[series.mask].max() <= 1e-8


class TestIsConstant:
    def test_helix_mu_u_constant_zero_mean(self, helix_curve, helix_grid):
        verdict = is_constant(mu_u_series(helix_curve, helix_grid), 1e-9)
        assert verdict.is_constant
        assert verdict.mean == pytest.approx(0.0, abs=1e-12)

    def test_linear_series_not_constant(self):
        s = np.linspace(0.0, 1.0, 33)
        series = CharacterizationSeries(s, s.copy(), np.ones(33, bool), "linear")
        assert not is_constant(series, 1e-6).is_constant

    def test_constant_plus_small_noise(self):
        rng = np.random.default_rng(3)
        s = np.linspace(0.0, 1.0, 64)
        vals = 5.0 + 1e-8 * rng.standard_normal(64)
        series = CharacterizationSeries(s, vals, np.ones(64, bool), "noisy")
        verdict = is_constant(series, 1e-6)
        assert verdict.is_constant
        assert verdict.mean == pytest.approx(5.0, abs=1e-7)

    def test_scale_aware(self):
        rng = np.random.default_rng(4)
        s = np.linspace(0.0, 1.0, 64)
        base = 1.0 + 1e-8 * rng.standard_normal(64)
        small = CharacterizationSeries(s, base, np.ones(64, bool), "a")
        big = CharacterizationSeries(s, 1e6 * base, np.ones(64, bool), "b")
        assert is_constant(small, 1e-6).is_constant == is_constant(big, 1e-6).is_constant

    def test_insufficient_samples(self):
        s = np.linspace(0.0, 1.0, 5)
        series = CharacterizationSeries(s, s, np.ones(5, bool), "short")
        with pytest.raises(InsufficientSamplesError):
            is_constant(series, 1e-6)


class TestRecoverAxis:
    def test_helix_v_series(self, helix_curve, helix_grid):
        data = sample_frames(helix_curve, helix_grid)
        est = recover_axis(data.V)
        np.testing.assert_allclose(est.d, [0, 0, 1], atol=1e-9)
        assert est.angle == pytest.approx(math.pi / 4, abs=1e-9)
        assert est.variance <= 1e-12

    def test_latitude_u_series(self, latitude_curve, latitude_grid):
        data = sample_frames(latitude_curve, latitude_grid)
        est = recover_axis(data.U)
        np.testing.assert_allclose(est.d, [0, 0, 1], atol=1e-9)
        assert est.angle == pytest.approx(math.pi / 4, abs=1e-9)

    def test_constant_series_is_ambiguous(self):
        w = np.tile(np.array([0.0, 0.6, 0.8]), (5, 1))
        est = recover_axis(w)
        assert est.ambiguous
        np.testing.assert_allclose(est.d, [0, 0.6, 0.8], atol=1e-12)
        assert est.angle == pytest.approx(0.0, abs=1e-12)

    def test_two_equal_variances_report_both_candidates(self):
        # +-e_x and 0: every axis orthogonal to e_x has projection variance 0
        est = recover_axis(np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        assert est.ambiguous
        assert est.angle == pytest.approx(math.pi / 2, abs=1e-12)
        candidates = est.as_dict()["candidates"]
        assert len(candidates) == 2
        for c in candidates:
            assert c[0] == pytest.approx(0.0, abs=1e-12)
            assert dot3(c, c) == pytest.approx(1.0, abs=1e-12)
        assert dot3(*candidates) == pytest.approx(0.0, abs=1e-12)

    def test_exact_cone_recovery(self):
        # w_i = cos(phi) d + sin(phi)(cos(a_i) e1 + sin(a_i) e2)
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = rng.standard_normal(3)
            d /= np.linalg.norm(d)
            e1 = np.cross(d, [1.0, 0.3, -0.5])
            e1 /= np.linalg.norm(e1)
            e2 = np.cross(d, e1)
            phi = rng.uniform(0.05, math.pi / 2 - 0.05)
            alphas = rng.uniform(0.0, 2 * math.pi, 9)
            w = (math.cos(phi) * d[None, :]
                 + math.sin(phi) * (np.cos(alphas)[:, None] * e1[None, :]
                                    + np.sin(alphas)[:, None] * e2[None, :]))
            est = recover_axis(w)
            assert min(np.linalg.norm(est.d - d), np.linalg.norm(est.d + d)) <= 1e-9
            assert est.angle == pytest.approx(phi, abs=1e-9)

    def test_too_few_vectors(self):
        with pytest.raises(Exception):
            recover_axis(np.zeros((2, 3)))

    def test_second_candidate_faces_the_mean(self):
        # +-e_x, +-e_y, +-e_z about a mean: three equal variances, and each
        # candidate axis is oriented to a nonnegative projection of the mean
        mean = np.array([0.1, -0.5, 0.2])
        est = recover_axis(mean + np.vstack([np.eye(3), -np.eye(3)]))
        assert est.ambiguous and est.variance == pytest.approx(1.0 / 3.0, abs=1e-15)
        for c in est.candidates:
            assert dot3(mean.tolist(), c.tolist()) >= 0.0


class TestRectifying:
    def test_synthetic_linear_ratio(self):
        grid = np.linspace(0.0, 2.0, 33)
        check = rectifying_from_scalars(grid, np.ones_like(grid), grid + 1.0)
        assert check.is_rectifying
        assert check.slope == pytest.approx(1.0, abs=1e-12)
        assert check.intercept == pytest.approx(1.0, abs=1e-12)

    def test_circular_helix_not_rectifying(self):
        c = make_unit_helix_space_curve()
        grid = np.linspace(0.0, 4.0, 33)
        check = darboux.rectifying_check(c, grid)
        assert not check.is_rectifying  # slope 0: ratio constant
        assert check.slope == pytest.approx(0.0, abs=1e-9)

    def test_planar_circle_not_rectifying(self):
        c = make_circle_on_plane()
        check = darboux.rectifying_check(c, np.linspace(0.0, 2 * math.pi, 33))
        assert not check.is_rectifying


class TestFrenetSeriesInversions:
    """slant_helix_series and rectifying_check read the jets of a whole grid
    from one batched inversion, with the bits of frenet at each sample, and
    raise the error a point-by-point pass meets first."""

    def test_each_grid_inverted_once_with_the_frenet_bits(self):
        path = ChartPath.from_expressions("s", "0.9*s+0.2*sin(s)", (0.0, 2 * math.pi))
        c = unit_speed_chart_curve(darboux.cylinder(1.0), path, 128)
        amap = c.path.amap
        lanes = []
        many = amap.t_of_s_many

        def counted(s):
            lanes.append(len(s))
            return many(s)

        amap.t_of_s_many = counted
        grid = uniform_grid(0.0, c.s_range[1], 101)
        series = slant_helix_series(c, grid)
        check = darboux.rectifying_check(c, grid)
        assert lanes == [101, 101]

        frames = [frenet(c, s) for s in grid]
        kappa = np.array([fr.kappa for fr in frames])
        tau = np.array([fr.tau for fr in frames])
        expected = slant_series_from_scalars(grid, kappa, tau)
        assert series.values.tobytes() == expected.values.tobytes()
        fit = rectifying_from_scalars(grid, kappa, tau)
        assert (check.slope, check.intercept, check.fit_residual) == (
            fit.slope, fit.intercept, fit.fit_residual)
        dot_n = np.array([dot3(c.gamma_jet(s)[0].tolist(), fr.N.tolist())
                          for s, fr in zip(grid, frames)])
        assert check.gamma_dot_N.values.tobytes() == dot_n.tobytes()

    @staticmethod
    def plane_curve_rising_after(s_rise, raising):
        """A line on the implicit plane z = 0 (Frenet frame undefined
        everywhere) that rises off the plane beyond s_rise, where its gamma''
        also raises if ``raising``."""

        def d2(s):
            if raising and s > s_rise:
                raise OutOfDomainError(f"d2 undefined at s={s:g}")
            return np.zeros(3)

        curve = darboux.UnitSpeedCurve(
            lambda s: (np.array([s, 0.0, max(s - s_rise, 0.0) ** 3]), np.array([1.0, 0.0, 0.0]),
                       d2(s), np.zeros(3)), 2.0)
        return CurveOnSurface(darboux.implicit_plane(), space_curve=curve)

    @pytest.mark.parametrize("fn", [slant_helix_series, darboux.rectifying_check],
                             ids=["slant_helix_series", "rectifying_check"])
    @pytest.mark.parametrize("raising", [False, True], ids=["leaves surface", "jet raises"])
    def test_first_error_in_grid_order(self, fn, raising):
        c = self.plane_curve_rising_after(1.0, raising)
        with pytest.raises(FrenetUndefinedError, match="at s=0$"):
            fn(c, np.linspace(0.0, 2.0, 21))
        # a grid past s = 1: the jet's own error comes before the frame's
        with pytest.raises(OutOfDomainError if raising else DarbouxError,
                           match="d2 undefined" if raising else "leaves surface"):
            fn(c, np.linspace(1.5, 2.0, 11))

    @pytest.mark.parametrize("fn", [slant_helix_series, darboux.rectifying_check],
                             ids=["slant_helix_series", "rectifying_check"])
    def test_zero_curvature_before_a_later_jet_failure(self, fn):
        # kappa = |s - 1| vanishes on the middle lane s = 1, and gamma''
        # raises on every lane past s = 1.5: the column pass flags both,
        # and the middle lane's Frenet error comes first in grid order
        def d2(s):
            if s > 1.5:
                raise OutOfDomainError(f"d2 undefined at s={s:g}")
            return np.array([0.0, s - 1.0, 0.0])

        curve = darboux.UnitSpeedCurve(
            lambda s: (np.array([s, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]), d2(s),
                       np.array([0.0, 1.0, 0.0])), 2.0)
        grid = np.linspace(0.0, 2.0, 21)

        def point_by_point():
            for s in grid:
                frenet(curve, s)

        with pytest.raises(FrenetUndefinedError) as by_columns:
            fn(curve, grid)
        with pytest.raises(FrenetUndefinedError) as by_point:
            point_by_point()
        assert str(by_columns.value) == str(by_point.value) == (
            "Frenet frame undefined: curvature 0 <= 1e-09 at s=1")


class TestAlgebraicIdentities:
    """The exponential-integral characterizations and the mu measures are the
    same function, bridged by the curvature-ratio form."""

    @staticmethod
    def random_triples(rng, n):
        s = np.linspace(0.0, 2.0, 9)
        for _ in range(n):
            coeffs = rng.uniform(-1.0, 1.0, (3, 5))
            freqs = rng.uniform(0.5, 2.0, (3, 5))
            phases = rng.uniform(0.0, 2 * math.pi, (3, 5))

            def smooth(i):
                val = np.sum(coeffs[i][:, None]
                             * np.sin(freqs[i][:, None] * s[None, :] + phases[i][:, None]),
                             axis=0)
                der = np.sum(coeffs[i][:, None] * freqs[i][:, None]
                             * np.cos(freqs[i][:, None] * s[None, :] + phases[i][:, None]),
                             axis=0)
                return val, der

            kg, dkg = smooth(0)
            kn, dkn = smooth(1)
            tg, dtg = smooth(2)
            yield s, kg, dkg, kn, dkn, tg, dtg

    def test_tu_bridge(self):
        rng = np.random.default_rng(17)
        for s, kg, dkg, kn, dkn, tg, dtg in self.random_triples(rng, 1000):
            ok = np.abs(kg) > 1e-6
            if not ok.any():
                continue
            q = kg**2 + tg**2
            mu_v = (kg * dtg - tg * dkg - kn * q) / q**1.5
            ratio = tg / kg
            dratio = (dtg * kg - dkg * tg) / kg**2
            bridge = kg**2 / q**1.5 * (dratio - (ratio**2 + 1.0) * kn)
            err = np.abs(bridge - mu_v)[ok]
            assert (err <= 1e-9 * (1.0 + np.abs(mu_v[ok]))).all()

    def test_tv_bridge(self):
        rng = np.random.default_rng(18)
        for s, kg, dkg, kn, dkn, tg, dtg in self.random_triples(rng, 1000):
            ok = np.abs(kn) > 1e-6
            if not ok.any():
                continue
            q = kn**2 + tg**2
            mu_u = (kn * dtg - tg * dkn - kg * q) / q**1.5
            ratio = tg / kn
            dratio = (dtg * kn - dkn * tg) / kn**2
            bridge = kn**2 / q**1.5 * (dratio - (ratio**2 + 1.0) * kg)
            err = np.abs(bridge - mu_u)[ok]
            assert (err <= 1e-9 * (1.0 + np.abs(mu_u[ok]))).all()


class TestClassifyReport:
    def test_helix_report(self, helix_curve, helix_grid):
        report = classify_report(helix_curve, helix_grid)
        assert report.flags["geodesic"]["value"]
        assert not report.flags["asymptotic"]["value"]
        assert report.verdicts["rel_normal_slant"]["is_constant"]
        assert report.verdicts["rel_normal_slant"]["mean"] == pytest.approx(1.0, abs=1e-9)
        assert report.verdicts["isophotic"]["is_constant"]
        assert "error" in report.verdicts["rel_normal_slant_position"]  # k_g = 0
        assert report.verdicts["isophotic_position"]["is_constant"]
        u_axis = report.axes["U_axis"]
        np.testing.assert_allclose(u_axis["d"], [0, 0, 1], atol=1e-9)
        assert u_axis["angle_deg"] == pytest.approx(90.0, abs=1e-9)

    def test_latitude_report(self, latitude_curve, latitude_grid):
        report = classify_report(latitude_curve, latitude_grid)
        assert report.flags["line_of_curvature"]["value"]
        assert report.verdicts["isophotic"]["is_constant"]
        assert report.flags["in_plane_TU"]["value"]
        kn = np.array(report.series["kn"]["values"], dtype=float)
        np.testing.assert_allclose(kn, -1.0, atol=1e-9)
        checks = {c["name"]: c for c in report.verdicts["cross_checks"]}
        tu = checks["line_of_curvature_TU_slant_implies_kg_constant"]
        assert tu["hypotheses_met"]
        assert tu["consistent"]

    def test_straight_line_report_flags_only(self):
        line = make_line_on_plane()
        report = classify_report(line, np.linspace(0.0, 2.0, 41))
        assert report.flags["geodesic"]["value"]
        assert report.flags["asymptotic"]["value"]
        assert report.flags["line_of_curvature"]["value"]
        for name in ("rel_normal_slant", "isophotic", "slant_helix", "rectifying"):
            assert "error" in report.verdicts[name]

    def test_grid_refinement_stability(self, helix_curve):
        means = []
        for n in (201, 401):
            report = classify_report(helix_curve, np.linspace(0.0, 4.0, n))
            means.append({
                name: report.verdicts[name]["mean"]
                for name in ("rel_normal_slant", "isophotic", "isophotic_position")
            })
        for name in means[0]:
            assert abs(means[0][name] - means[1][name]) <= 1e-6

    def test_report_dict_shape(self, latitude_curve, latitude_grid):
        d = classify_report(latitude_curve, latitude_grid).as_dict()
        assert set(d.keys()) == {"series", "verdicts", "flags", "axes",
                                 "tolerances", "orientation"}

    def test_sampled_input_uses_loose_tolerance(self):
        exact = make_latitude_curve()
        L = exact.s_range[1]
        pts = np.array([exact.gamma_jet(t)[0] for t in np.linspace(0.0, L, 600)])
        poly = darboux.UnitSpeedCurve.from_polyline(pts, length=L)
        c = darboux.CurveOnSurface(darboux.implicit_sphere(1.0), space_curve=poly,
                                   on_surface_tol=1e-6)
        grid = np.linspace(0.05, L - 0.05, 101)
        report = classify_report(c, grid)
        assert report.tolerances["constancy"] == 1e-3
        assert report.verdicts["isophotic"]["is_constant"]


def _chart_curve(x, y, z, u_range, v_range, u_path, v_path, s_range):
    surface = parametric_from_expressions(x, y, z, u_range, v_range)
    path = ChartPath.from_expressions(u_path, v_path, s_range)
    return unit_speed_chart_curve(surface, path)


# A curve that meets each cross-check's hypotheses, its place in the list
# and the mean of the constancy detail.
CROSS_CHECK_CURVES = {
    # the circle cut from the unit sphere about (0, 0, 2) by the sphere on
    # the segment from the origin to (0, 0, 2): a line of curvature of
    # constant k_n = -1 with <gamma, U> = 0
    "line_of_curvature_TV_isophotic_implies_kn_constant": (
        1, -1.0,
        ("cos(v)*cos(u)", "cos(v)*sin(u)", "2+sin(v)", (-10.0, 10.0), (-1.5, 1.5),
         "s", repr(-math.pi / 6), (0.0, 6.0))),
    # the same unit-speed geodesic of the cone z = sqrt(x^2 + y^2) on its
    # principal normal surface, where it is asymptotic with <gamma, N> = 0
    "asymptotic_TU_slant_iff_frenet_shape_constant": (
        2, SQRT2,
        ("(1/cos(u/sqrt(2))+v/sqrt(2))*cos(u)", "(1/cos(u/sqrt(2))+v/sqrt(2))*sin(u)",
         "1/cos(u/sqrt(2))-v/sqrt(2)", (-2.0, 2.0), (-1.0, 1.0), "s", "0", (-1.0, 1.0))),
    # a geodesic of the cone z = sqrt(x^2 + y^2), a straight line of the
    # unrolled cone; every point of the cone has <gamma, U> = 0
    "geodesic_TV_isophotic_iff_frenet_shape_constant": (
        3, SQRT2,
        ("v*cos(u)", "v*sin(u)", "v", (-3.0, 3.0), (0.1, 5.0),
         "s", "1/cos(s/sqrt(2))", (-1.0, 1.0))),
}


@pytest.mark.parametrize("name", sorted(CROSS_CHECK_CURVES))
def test_cross_check_with_hypotheses_met(name):
    index, mean, spec = CROSS_CHECK_CURVES[name]
    c = _chart_curve(*spec)
    report = classify_report(c, np.linspace(*c.s_range, 101))
    checks = report.verdicts["cross_checks"]
    assert len(checks) == 4
    item = checks[index]
    assert item["name"] == name
    assert item["hypotheses_met"] is True
    assert item["consistent"] is True
    detail = item["detail"]
    assert set(detail) == {"is_constant", "mean", "max_abs_dev", "tol"}
    assert detail["is_constant"] is True
    assert detail["mean"] == pytest.approx(mean, abs=1e-12)
    assert detail["max_abs_dev"] <= 1e-13
    assert detail["tol"] == 1e-6


@st.composite
def _simpson_samples(draw):
    """(y, s): n = 2 to 5 (the trapezoid fallback below 3) or an odd or even
    n up to 41, strictly increasing unequal s, y with nan and inf lanes."""
    n = draw(st.sampled_from([2, 3, 4, 5]) | st.integers(6, 41))
    gaps = draw(st.lists(st.floats(1e-3, 10.0), min_size=n - 1, max_size=n - 1))
    s = draw(st.floats(-10.0, 10.0)) + np.concatenate([[0.0], np.cumsum(gaps)])
    values = st.floats(-1e6, 1e6) | st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0])
    y = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    return y, s


@settings(max_examples=300, deadline=None)
@given(samples=_simpson_samples())
def test_cumulative_integral_matches_scipy_bits(samples):
    """classify's cumulative Simpson is scipy's cumulative_simpson(y, x=s)
    after a leading 0, bit for bit, nan and inf lanes included."""
    y, s = samples
    with np.errstate(all="ignore"):
        reference = np.concatenate([[0.0], cumulative_simpson(y, x=s)])
        port = _cumulative_integral(y, s)
    assert port.view(np.int64).tolist() == reference.view(np.int64).tolist()
