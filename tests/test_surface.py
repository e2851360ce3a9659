"""Surfaces: catalog jets against sympy's derivatives, fundamental forms,
normals, implicit jets, and projection."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import darboux
from darboux.errors import (
    DarbouxError,
    EvalDomainError,
    OutOfDomainError,
    ProjectionError,
    RegularityError,
)
from darboux.surface import (
    ImplicitSurface,
    first_form,
    implicit_from_expression,
    normal_derivatives,
    parametric_from_expressions,
    parse_surface_spec,
    project_to_implicit,
    unit_normal,
)

RNG = np.random.default_rng(11)

CATALOG_CHARTS = [
    darboux.sphere(1.0),
    darboux.cylinder(1.0),
    darboux.plane(),
    darboux.torus(2.0, 0.5),
    darboux.helicoid(1.0),
    darboux.ellipsoid(2.0, 1.5, 1.0),
    darboux.monkey_saddle(),
]

CATALOG_LEVELS = [
    darboux.implicit_sphere(1.0),
    darboux.implicit_cylinder(1.0),
    darboux.implicit_plane(),
    darboux.implicit_torus(2.0, 0.5),
]


def sympy_charts(sp, u, v):
    """The catalog charts of CATALOG_CHARTS written in sympy, from the
    formulas of their docstrings, by name."""
    return {
        "sphere(r=1)": (sp.cos(v) * sp.cos(u), sp.cos(v) * sp.sin(u), sp.sin(v)),
        "cylinder(r=1)": (sp.cos(u), sp.sin(u), v),
        "plane": (u, v, sp.Integer(0)),
        "torus(R=2,r=0.5)": ((2 + sp.Rational(1, 2) * sp.cos(v)) * sp.cos(u),
                             (2 + sp.Rational(1, 2) * sp.cos(v)) * sp.sin(u),
                             sp.Rational(1, 2) * sp.sin(v)),
        "helicoid(a=1)": (v * sp.cos(u), v * sp.sin(u), u),
        "ellipsoid(a=2,b=1.5,c=1)": (2 * sp.cos(v) * sp.cos(u),
                                     sp.Rational(3, 2) * sp.cos(v) * sp.sin(u), sp.sin(v)),
        "monkey_saddle": (u, v, u**3 - 3 * u * v**2),
    }


def sympy_levels(sp, x, y, z):
    """The implicit catalog surfaces of CATALOG_LEVELS in sympy, by name."""
    return {
        "implicit_sphere(r=1)": x**2 + y**2 + z**2 - 1,
        "implicit_cylinder(r=1)": x**2 + y**2 - 1,
        "implicit_plane": z,
        "implicit_torus(R=2,r=0.5)": (x**2 + y**2 + z**2 + sp.Rational(15, 4))**2
        - 16 * (x**2 + y**2),
    }


def interior_points(surface, n=30):
    (u0, u1), (v0, v1) = surface.u_range, surface.v_range
    du, dv = 0.05 * (u1 - u0), 0.05 * (v1 - v0)
    us = RNG.uniform(u0 + du, u1 - du, n)
    vs = RNG.uniform(v0 + dv, v1 - dv, n)
    return list(zip(us, vs))


def regular_points(surface, n=30):
    pts = []
    for u, v in interior_points(surface, 4 * n):
        try:
            surface.chart_jet(u, v)
        except (RegularityError, OutOfDomainError, EvalDomainError):
            continue
        pts.append((u, v))
        if len(pts) == n:
            break
    return pts


def test_vector_lagrange_identity():
    # |a x b|^2 = |a|^2 |b|^2 - (a.b)^2 for the vectors this package trades in
    rng = np.random.default_rng(1)
    for _ in range(200):
        a, b = rng.uniform(-10.0, 10.0, (2, 3))
        lhs = float(np.cross(a, b) @ np.cross(a, b))
        rhs = float((a @ a) * (b @ b) - (a @ b) ** 2)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


@pytest.mark.parametrize("surface", CATALOG_CHARTS, ids=[s.name for s in CATALOG_CHARTS])
def test_catalog_jets_match_symbolic_oracle(surface):
    """Each catalog jet to third order against sympy.diff of the chart."""
    sp = pytest.importorskip("sympy")
    u, v = sp.symbols("u v")
    sigma = sympy_charts(sp, u, v)[surface.name]
    orders = [(u,), (v,), (u, u), (u, v), (v, v), (u, u, u), (u, u, v), (u, v, v), (v, v, v)]
    oracle = [sp.lambdify((u, v), sigma, "math")] + [
        sp.lambdify((u, v), [sp.diff(c, *order) for c in sigma], "math") for order in orders]
    for a, b in regular_points(surface, 15):
        jet = surface.chart_jet(a, b)
        for got, want in zip([*jet, *surface.jet3(a, b)], oracle):
            np.testing.assert_allclose(got, np.array(want(a, b), dtype=float),
                                       rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("surface", CATALOG_LEVELS, ids=[s.name for s in CATALOG_LEVELS])
def test_catalog_level_jets_match_symbolic_oracle(surface):
    """Each implicit catalog surface's f, gradient, Hessian and third
    partials against sympy.diff of f."""
    sp = pytest.importorskip("sympy")
    xyz = sp.symbols("x y z")
    f = sympy_levels(sp, *xyz)[surface.name]
    value = sp.lambdify(xyz, f, "math")
    grad = sp.lambdify(xyz, [sp.diff(f, w) for w in xyz], "math")
    hess = sp.lambdify(xyz, [[sp.diff(f, a, b) for b in xyz] for a in xyz], "math")
    third = sp.lambdify(xyz, [[[sp.diff(f, a, b, c) for c in xyz] for b in xyz] for a in xyz],
                        "math")
    for p in RNG.uniform(-2.0, 2.0, (30, 3)):
        np.testing.assert_allclose(np.array(surface._third(*p.tolist())),
                                   np.array(third(*p), dtype=float), rtol=1e-12, atol=1e-12)
        got_f, got_g, got_H = surface.jet(p)
        np.testing.assert_allclose(got_f, value(*p), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(got_g, np.array(grad(*p), dtype=float),
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(got_H, np.array(hess(*p), dtype=float),
                                   rtol=1e-12, atol=1e-12)


class TestChartJet:
    def test_sphere_at_origin_chart_point(self):
        jet = darboux.sphere(1.0).chart_jet(0.0, 0.0)
        np.testing.assert_allclose(jet.sigma, [1, 0, 0], atol=1e-15)
        np.testing.assert_allclose(jet.sigma_u, [0, 1, 0], atol=1e-15)
        np.testing.assert_allclose(jet.sigma_v, [0, 0, 1], atol=1e-15)

    def test_plane_second_partials_vanish(self):
        jet = darboux.plane().chart_jet(3.0, -2.0)
        for arr in (jet.sigma_uu, jet.sigma_uv, jet.sigma_vv):
            np.testing.assert_array_equal(arr, [0, 0, 0])

    def test_sphere_pole_is_outside_shrunk_domain(self):
        # poles are excluded by construction: the chart stops 1e-6 short
        with pytest.raises(OutOfDomainError):
            darboux.sphere(1.0).chart_jet(0.0, math.pi / 2)

    def test_pole_inside_domain_raises_regularity(self):
        wide = parametric_from_expressions(
            "cos(v)*cos(u)", "cos(v)*sin(u)", "sin(v)",
            (-math.pi, math.pi), (-2.0, 2.0))
        with pytest.raises(RegularityError):
            wide.chart_jet(0.0, math.pi / 2)

    def test_periodic_wrap(self):
        s = darboux.sphere(1.0)
        a = s.chart_jet(0.3, 0.2)
        b = s.chart_jet(0.3 + 2 * math.pi, 0.2)
        np.testing.assert_allclose(a.sigma, b.sigma, atol=1e-15)

    def test_out_of_domain_nonperiodic(self):
        with pytest.raises(OutOfDomainError):
            darboux.plane().chart_jet(100.0, 0.0)


# Every catalog chart, plus charts with regular and irregular lanes: a
# sphere small enough that |sigma_u x sigma_v| = r^2 cos(v) falls below
# eps_reg = 1e-10 for |v| > 0.80 (per-lane tangents), and a torus whose
# |sigma_u x sigma_v| = r (R + r cos(v)) is at most eps_reg = 1 where
# cos(v) <= 0 (array tangents).
TANGENT_CHARTS = CATALOG_CHARTS + [
    darboux.sphere(1.2e-5), darboux.torus(2.0, 0.5, eps_reg=1.0)]

# Charts from expressions, whose tangents come from one pass of the compiled
# jet's columns: a periodic torus; a cap whose jet fails (sqrt of a negative)
# off the unit disc; and a chart whose 1e300*u*u overflows to an infinite
# float without raising for |u| above about 1.8e8.  The columns decline on
# the last two and on nan lanes, and tangents_many then runs chart_point.
PARAM_TANGENT_CHARTS = [
    parametric_from_expressions(
        "(2+0.5*cos(v))*cos(u)", "(2+0.5*cos(v))*sin(u)", "0.5*sin(v)",
        (-math.pi, math.pi), (-math.pi, math.pi), periodic_u=True, periodic_v=True,
        name="torus_expr"),
    parametric_from_expressions("u", "v", "sqrt(1-u^2-v^2)+u*v", (-0.9, 0.9), (-0.9, 0.9),
                                name="cap_expr"),
    parametric_from_expressions("u", "v", "1e300*u*u+tan(v)", (-1e150, 1e150), (-1.0, 1.0),
                                name="overflow_expr"),
]
TANGENT_CHARTS += PARAM_TANGENT_CHARTS


def _bits(values):
    return [struct.pack("<d", x) for x in np.asarray(values, dtype=float).ravel().tolist()]


def _raised(fn, *args):
    """(type, message) of what fn(*args) raises, or None and the value."""
    try:
        return None, fn(*args)
    except Exception as exc:  # the comparison is the point
        return (type(exc), str(exc)), None


def _chart_parameter(surface, which):
    """Periodic parameters from three periods either side of the range, the
    others from the range widened by 5 % at each end (some lanes outside)."""
    lo, hi = surface.u_range if which == "u" else surface.v_range
    periodic = surface.periodic_u if which == "u" else surface.periodic_v
    pad = 3.0 * (hi - lo) if periodic else 0.05 * (hi - lo)
    return st.floats(lo - pad, hi + pad)


class TestTangentsMany:
    """tangents_many is chart_jet's (sigma_u, sigma_v) lane by lane, to the
    bit, and raises chart_jet's error for the first lane it rejects."""

    @staticmethod
    def scalar_tangents(surface, us, vs):
        jets = [surface.chart_jet(u, v) for u, v in zip(us, vs)]
        return [j.sigma_u for j in jets], [j.sigma_v for j in jets]

    @pytest.mark.parametrize("surface", TANGENT_CHARTS, ids=repr)
    def test_bits_on_regular_points(self, surface):
        pts = regular_points(surface, 40)
        us, vs = [p[0] for p in pts], [p[1] for p in pts]
        su, sv = surface.tangents_many(us, vs)
        ref_u, ref_v = self.scalar_tangents(surface, us, vs)
        assert _bits(su) == _bits(ref_u)
        assert _bits(sv) == _bits(ref_v)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_lanes_match_chart_jet(self, data):
        surface = data.draw(st.sampled_from(TANGENT_CHARTS))
        lanes = data.draw(st.lists(
            st.tuples(_chart_parameter(surface, "u"), _chart_parameter(surface, "v")),
            min_size=1, max_size=8))
        us, vs = [p[0] for p in lanes], [p[1] for p in lanes]
        error, many = _raised(surface.tangents_many, us, vs)
        ref_error, ref = _raised(self.scalar_tangents, surface, us, vs)
        assert error == ref_error
        if ref is not None:
            assert _bits(many[0]) == _bits(ref[0])
            assert _bits(many[1]) == _bits(ref[1])

    def test_no_lanes(self):
        su, sv = darboux.torus().tangents_many([], [])
        assert su.shape == sv.shape == (0, 3)

    @staticmethod
    def edge_lanes(surface):
        """Lanes on the edges of the chart: wrapped several periods, on the
        range ends (the sphere and ellipsoid pole margins among them), and
        just outside a non-periodic range."""
        (ulo, uhi), (vlo, vhi) = surface.u_range, surface.v_range
        us, vs = [0.3, ulo, uhi], [0.2, vlo, vhi]
        if surface.periodic_u:
            us += [0.3 + 4 * math.pi, -0.3 - 6 * math.pi, uhi + 1e-9]
        if surface.periodic_v:
            vs += [0.2 + 4 * math.pi, vhi + 1e-9]
        inside = [(u, v) for u in us for v in vs]
        outside = [] if surface.periodic_v else [(0.3, math.nextafter(vhi, math.inf)),
                                                  (0.3, math.nextafter(vlo, -math.inf))]
        if not surface.periodic_u:
            outside.append((math.nextafter(uhi, math.inf), 0.2))
        return inside, outside

    @pytest.mark.parametrize("surface", CATALOG_CHARTS, ids=repr)
    def test_catalog_array_tangents_on_the_chart_edges(self, surface):
        # every catalog chart has array tangents (its compiled jet's columns,
        # which take these lanes), bit-equal to chart_point lane by lane
        inside, outside = self.edge_lanes(surface)
        us, vs = [p[0] for p in inside], [p[1] for p in inside]
        assert surface._jet_fn.columns(np.array(us), np.array(vs)) is not None
        su, sv = surface.tangents_many(us, vs)
        jets = [surface.chart_point(u, v)[0] for u, v in inside]
        assert _bits(su) == _bits([j[1] for j in jets])
        assert _bits(sv) == _bits([j[2] for j in jets])
        # a lane outside the range: chart_point's error for it
        for u, v in outside:
            error, _ = _raised(surface.tangents_many, us + [u], vs + [v])
            assert error == _raised(surface.chart_point, u, v)[0]
            assert error[0] is OutOfDomainError

    @pytest.mark.parametrize("surface", PARAM_TANGENT_CHARTS, ids=repr)
    def test_expression_charts_read_the_jet_columns(self, surface):
        """A chart from expressions takes sigma_u and sigma_v from its jet's
        columns; where they decline, tangents_many evaluates chart_point
        lane by lane and returns its values or raises its error."""
        us, vs = [0.3, 0.1, -0.2], [0.2, -0.4, 0.5]
        assert surface._jet_fn.columns(np.array(us), np.array(vs)) is not None
        inside, outside = self.edge_lanes(surface)
        for lanes in (list(zip(us, vs)), inside, inside + outside[:1],
                      [(0.3, math.nan)] + inside, [(math.nan, 0.2)]):
            lu, lv = [p[0] for p in lanes], [p[1] for p in lanes]
            error, many = _raised(surface.tangents_many, lu, lv)
            ref_error, ref = _raised(self.scalar_tangents, surface, lu, lv)
            assert error == ref_error
            if ref is not None:
                assert _bits(many[0]) == _bits(ref[0])
                assert _bits(many[1]) == _bits(ref[1])

    def test_declining_columns_keep_chart_point(self):
        torus, cap, overflow = PARAM_TANGENT_CHARTS
        # sqrt of a negative: the columns decline, chart_point's error
        assert cap._jet_fn.columns(np.array([0.3, 0.8]), np.array([0.2, 0.8])) is None
        error, _ = _raised(cap.tangents_many, [0.3, 0.8], [0.2, 0.8])
        assert error == _raised(cap.chart_point, 0.8, 0.8)[0]
        assert error[0] is EvalDomainError
        # an infinite jet with no error: the columns decline, chart_point's values
        us, vs = [0.3, 1e149], [0.2, -0.5]
        assert overflow._jet_fn.columns(np.array(us), np.array(vs)) is None
        su, sv = overflow.tangents_many(us, vs)
        jets = [overflow.chart_point(u, v)[0] for u, v in zip(us, vs)]
        assert _bits(su) == _bits([j[1] for j in jets])
        assert _bits(sv) == _bits([j[2] for j in jets])
        assert math.isinf(su[1, 2])
        # a nan lane: the columns decline, chart_point's nan lane
        su, sv = torus.tangents_many([0.3, math.nan], [0.2, 0.2])
        assert _bits(su) == _bits([torus.chart_point(u, 0.2)[0][1] for u in (0.3, math.nan)])
        assert np.isnan(su[1, :2]).all()


class TestFirstForm:
    def test_sphere(self):
        s = darboux.sphere(1.0)
        for v in (0.0, 0.4, -1.1):
            ff = first_form(s.chart_jet(0.7, v))
            assert ff.E == pytest.approx(math.cos(v) ** 2, abs=1e-15)
            assert ff.F == pytest.approx(0.0, abs=1e-15)
            assert ff.G == pytest.approx(1.0, abs=1e-15)

    def test_plane_identity_metric(self):
        ff = first_form(darboux.plane().chart_jet(1.0, 2.0))
        assert (ff.E, ff.F, ff.G) == (1.0, 0.0, 1.0)

    def test_cylinder(self):
        ff = first_form(darboux.cylinder(1.0).chart_jet(0.5, 2.0))
        assert (ff.E, ff.F, ff.G) == pytest.approx((1.0, 0.0, 1.0), abs=1e-15)

    @pytest.mark.parametrize("surface", CATALOG_CHARTS, ids=[s.name for s in CATALOG_CHARTS])
    def test_positive_definite_everywhere(self, surface):
        for u, v in regular_points(surface, 100):
            ff = first_form(surface.chart_jet(u, v))
            assert ff.E > 0 and ff.G > 0 and ff.det > 0

    @pytest.mark.parametrize("surface", CATALOG_CHARTS, ids=[s.name for s in CATALOG_CHARTS])
    def test_area_element_is_the_normal_length(self, surface):
        # Lagrange's identity: sqrt(EG - F^2) = |sigma_u x sigma_v|, the area
        # element Delta reads
        (u0, u1), (v0, v1) = surface.u_range, surface.v_range
        rng = np.random.default_rng(5)
        checked = 0
        for u, v in zip(rng.uniform(u0, u1, 2000).tolist(), rng.uniform(v0, v1, 2000).tolist()):
            try:
                jet, _, n = surface.chart_point(u, v)
            except RegularityError:
                continue
            checked += 1
            assert abs(n - first_form(jet).area_element) <= 1e-14 * n
        assert checked >= 1900


class TestUnitNormal:
    def test_sphere_outward(self):
        np.testing.assert_allclose(
            unit_normal(darboux.sphere(1.0).chart_jet(0.0, 0.0)), [1, 0, 0], atol=1e-15)

    def test_plane_constant(self):
        np.testing.assert_allclose(
            unit_normal(darboux.plane().chart_jet(5.0, -3.0)), [0, 0, 1], atol=1e-15)

    def test_cylinder_outward(self):
        np.testing.assert_allclose(
            unit_normal(darboux.cylinder(1.0).chart_jet(0.0, 0.0)), [1, 0, 0], atol=1e-15)

    @pytest.mark.parametrize("surface", CATALOG_CHARTS, ids=[s.name for s in CATALOG_CHARTS])
    def test_unit_and_orthogonal(self, surface):
        for u, v in regular_points(surface, 100):
            jet = surface.chart_jet(u, v)
            U = unit_normal(jet)
            assert abs(np.linalg.norm(U) - 1.0) <= 1e-12
            assert abs(U @ jet.sigma_u) <= 1e-10 * (1 + np.linalg.norm(jet.sigma_u))
            assert abs(U @ jet.sigma_v) <= 1e-10 * (1 + np.linalg.norm(jet.sigma_v))


class TestNormalDerivatives:
    def test_sphere_normal_equals_position(self):
        s = darboux.sphere(1.0)
        U_u, U_v = normal_derivatives(s, 0.0, 0.0)
        jet = s.chart_jet(0.0, 0.0)
        np.testing.assert_allclose(U_u, jet.sigma_u, atol=1e-14)
        np.testing.assert_allclose(U_v, jet.sigma_v, atol=1e-14)
        np.testing.assert_allclose(U_u, [0, 1, 0], atol=1e-14)

    def test_plane_zero(self):
        U_u, U_v = normal_derivatives(darboux.plane(), 1.0, 1.0)
        np.testing.assert_array_equal(U_u, [0, 0, 0])
        np.testing.assert_array_equal(U_v, [0, 0, 0])

    def test_cylinder(self):
        U_u, U_v = normal_derivatives(darboux.cylinder(1.0), 0.0, 0.0)
        np.testing.assert_allclose(U_u, [0, 1, 0], atol=1e-14)
        np.testing.assert_allclose(U_v, [0, 0, 0], atol=1e-14)

    @pytest.mark.parametrize("surface", CATALOG_CHARTS, ids=[s.name for s in CATALOG_CHARTS])
    def test_tangency_and_fd_agreement(self, surface):
        h = 1e-6
        for u, v in regular_points(surface, 25):
            U_u, U_v = normal_derivatives(surface, u, v)
            U = unit_normal(surface.chart_jet(u, v))
            assert abs(U_u @ U) <= 1e-9
            assert abs(U_v @ U) <= 1e-9
            try:
                fd_u = (unit_normal(surface.chart_jet(u + h, v))
                        - unit_normal(surface.chart_jet(u - h, v))) / (2 * h)
                fd_v = (unit_normal(surface.chart_jet(u, v + h))
                        - unit_normal(surface.chart_jet(u, v - h))) / (2 * h)
            except (OutOfDomainError, RegularityError):
                continue
            np.testing.assert_allclose(U_u, fd_u, atol=1e-7)
            np.testing.assert_allclose(U_v, fd_v, atol=1e-7)

    def test_second_derivatives_match_fd(self):
        s = darboux.torus(2.0, 0.5)
        h = 1e-5
        for u, v in regular_points(s, 10):
            U_uu, U_uv, U_vv = s.normal_second_derivatives(u, v)
            fd_uu = (np.array(s.normal_derivatives(u + h, v)[0])
                     - np.array(s.normal_derivatives(u - h, v)[0])) / (2 * h)
            fd_uv = (np.array(s.normal_derivatives(u, v + h)[0])
                     - np.array(s.normal_derivatives(u, v - h)[0])) / (2 * h)
            fd_vv = (np.array(s.normal_derivatives(u, v + h)[1])
                     - np.array(s.normal_derivatives(u, v - h)[1])) / (2 * h)
            np.testing.assert_allclose(U_uu, fd_uu, atol=1e-6)
            np.testing.assert_allclose(U_uv, fd_uv, atol=1e-6)
            np.testing.assert_allclose(U_vv, fd_vv, atol=1e-6)


class TestImplicitJet:
    def test_repr_names_the_surface(self):
        assert repr(darboux.implicit_sphere(1.0)) == "ImplicitSurface('implicit_sphere(r=1)')"

    def test_unit_sphere(self):
        f, g, H = darboux.implicit_sphere(1.0).jet(np.array([1.0, 0.0, 0.0]))
        assert f == 0.0
        np.testing.assert_array_equal(g, [2, 0, 0])
        np.testing.assert_array_equal(H, 2 * np.eye(3))

    def test_jet_evaluates_level_once(self):
        sphere, p, calls = darboux.implicit_sphere(1.0), np.array([0.6, 0.0, 0.8]), []
        counted = ImplicitSurface(sphere.name, sphere._f,
                                  lambda *q: calls.append(q) or sphere._level(*q),
                                  third=sphere._third)
        f, g, H = counted.jet(p)
        assert calls == [(0.6, 0.0, 0.8)]
        assert (f, g.tolist(), H.tolist()) == (sphere.value(p), sphere.gradient(p).tolist(),
                                               sphere.hessian(p).tolist())

    def test_cylinder(self):
        f, g, _ = darboux.implicit_cylinder(1.0).jet(np.array([0.0, 1.0, 5.0]))
        assert f == 0.0
        np.testing.assert_array_equal(g, [0, 2, 0])

    def test_plane(self):
        f, g, H = darboux.implicit_plane().jet(np.array([0.0, 0.0, 0.0]))
        assert f == 0.0
        np.testing.assert_array_equal(g, [0, 0, 1])
        np.testing.assert_array_equal(H, np.zeros((3, 3)))

    @pytest.mark.parametrize("surface", [
        darboux.implicit_sphere(1.0),
        darboux.implicit_cylinder(1.0),
        darboux.implicit_torus(2.0, 0.5),
        implicit_from_expression("x^2+y^2+z^2-1"),
        implicit_from_expression("(x^2+y^2+z^2+3.75)^2-16*(x^2+y^2)"),
    ], ids=lambda s: s.name)
    def test_gradient_hessian_match_fd(self, surface):
        h = 1e-6
        for _ in range(20):
            p = RNG.uniform(-2.0, 2.0, 3)
            f, g, H = surface.jet(p)
            for i in range(3):
                dp = np.zeros(3)
                dp[i] = h
                fd_g = (surface.value(p + dp) - surface.value(p - dp)) / (2 * h)
                scale = 1.0 + abs(fd_g)
                assert abs(g[i] - fd_g) <= 1e-6 * scale
                fd_H = (surface.gradient(p + dp) - surface.gradient(p - dp)) / (2 * h)
                np.testing.assert_allclose(H[:, i], fd_H, rtol=1e-5,
                                           atol=1e-6 * (1 + np.abs(fd_H).max()))

    def test_sphere_normal_jacobian(self):
        # U = p on the unit sphere, so dU/dp = (I - U U^T) with |p| = 1
        p = np.array([0.6, 0.0, 0.8])
        J = darboux.implicit_sphere(1.0).normal_jacobian(p)
        np.testing.assert_allclose(J, np.eye(3) - np.outer(p, p), atol=1e-15)

    def test_cone_apex_has_no_normal(self):
        # the apex of x^2 + y^2 - z^2 = 0 lies on the surface with grad f = 0
        cone = implicit_from_expression("x^2+y^2-z^2")
        apex = np.zeros(3)
        assert cone.value(apex) == 0.0
        with pytest.raises(RegularityError, match="grad f"):
            cone.normal_jacobian(apex)
        with pytest.raises(RegularityError, match="grad f"):
            darboux.trace.isophote_direction_implicit(cone, [0.0, 0.0, 1.0], apex)

    def test_torus_implicit_matches_parametric_points(self):
        tor = darboux.torus(2.0, 0.5)
        itor = darboux.implicit_torus(2.0, 0.5)
        for u, v in regular_points(tor, 20):
            p = tor.chart_jet(u, v).sigma
            assert abs(itor.value(p)) <= 1e-12


class TestProjectToImplicit:
    def test_radial_projection(self):
        s = darboux.implicit_sphere(1.0)
        p = project_to_implicit(s, np.array([1.001, 0.0, 0.0]), 1e-12)
        np.testing.assert_allclose(p, [1, 0, 0], atol=1e-12)

    def test_fixed_point(self):
        s = darboux.implicit_sphere(1.0)
        p0 = np.array([0.0, 1.0, 0.0])
        np.testing.assert_array_equal(project_to_implicit(s, p0, 1e-12), p0)

    def test_vanishing_gradient(self):
        s = implicit_from_expression("x^2+y^2+z^2")
        with pytest.raises(RegularityError):
            project_to_implicit(s, np.array([1e-11, 0.0, 0.0]), 1e-30)

    def test_nonconvergence(self):
        s = darboux.implicit_sphere(1.0)
        with pytest.raises(ProjectionError):
            project_to_implicit(s, np.array([25.0, 0.0, 0.0]), 1e-15)

    def test_reached_by_the_eighth_step(self):
        # Newton on x^3 = 1 from x = 100 shrinks x by about 2/3 per step:
        # |f| is 200 after 7 steps and 59 after 8, the last one checked
        s = implicit_from_expression("x^3-1")
        p = project_to_implicit(s, np.array([100.0, 0.0, 0.0]), 60.0)
        assert p[0] == pytest.approx(3.9156492831183054, rel=1e-12)
        with pytest.raises(ProjectionError):
            project_to_implicit(s, np.array([100.0, 0.0, 0.0]), 58.0)


class TestSurfaceSpecStrings:
    def test_builtin_sphere(self):
        s = parse_surface_spec("builtin:sphere?r=2")
        assert np.linalg.norm(s.chart_jet(0.3, 0.1).sigma) == pytest.approx(2.0, abs=1e-14)

    def test_builtin_torus_params(self):
        s = parse_surface_spec("builtin:torus?R=2&r=0.5")
        assert s.name == "torus(R=2,r=0.5)"

    def test_builtin_implicit_resolution(self):
        s = parse_surface_spec("builtin:sphere?r=1", implicit=True)
        assert abs(s.value(np.array([1.0, 0.0, 0.0]))) == 0.0

    def test_param_spec(self):
        s = parse_surface_spec("param:x=cos(u);y=sin(u);z=v;u=-3,3;v=-1,1")
        np.testing.assert_allclose(s.chart_jet(0.0, 0.5).sigma, [1, 0, 0.5], atol=1e-15)

    def test_empty_fields_are_skipped(self):
        s = parse_surface_spec("param:;x=cos(u); ;y=sin(u);;z=v;u=-3,3;v=-1,1;")
        np.testing.assert_allclose(s.chart_jet(0.0, 0.5).sigma, [1, 0, 0.5], atol=1e-15)

    def test_implicit_spec(self):
        s = parse_surface_spec("implicit:f=x^2+y^2+z^2-4")
        assert s.value(np.array([2.0, 0.0, 0.0])) == 0.0

    def test_unknown_builtin(self):
        with pytest.raises(DarbouxError, match="unknown builtin"):
            parse_surface_spec("builtin:moebius")

    def test_missing_prefix(self):
        with pytest.raises(DarbouxError):
            parse_surface_spec("sphere")

    def test_non_finite_template_parameter_is_a_typed_error(self):
        # a catalog surface is expression text, which has no inf or nan
        with pytest.raises(DarbouxError, match=r"template parameter r=inf is not finite"):
            darboux.sphere(math.inf)
        with pytest.raises(DarbouxError, match=r"implicit_torus\(R=1e\+200,r=1e\+199\): "
                                               r"template parameter A=nan is not finite"):
            parse_surface_spec("builtin:torus?R=1e200&r=1e199", implicit=True)

    def test_helicoid_has_no_implicit_form(self):
        with pytest.raises(DarbouxError, match="no implicit form"):
            parse_surface_spec("builtin:helicoid", implicit=True)
