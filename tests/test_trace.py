"""Seed finding, isophote direction fields, coefficient checks, and traces."""

import contextlib
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import darboux
import darboux.trace as trace_module
from conftest import constant_speed_path
from darboux.classify import classify_report
from darboux.cli import main
from darboux.errors import (
    DarbouxError,
    NumericalError,
    RegularityError,
    SeedError,
    SingularPointError,
)
from darboux.frames import ChartPath, CurveOnSurface, unit_speed_chart_curve
from darboux.frames import darboux as darboux_frame
from darboux.surface import (
    ImplicitSurface,
    ParametricSurface,
    dot3,
    first_form,
    norm3,
    parse_surface_spec,
    unit_normal,
)
from darboux.trace import (
    TraceConfig,
    _nearest_bracket,
    delta_coefficients,
    direction_scalars_implicit,
    direction_scalars_parametric,
    find_seed,
    isophote_direction_implicit,
    isophote_direction_parametric,
    omega_coefficients,
    snap_seed,
    trace_isophote,
)

EZ = np.array([0.0, 0.0, 1.0])
SQRT2 = math.sqrt(2.0)


def polyline_distance(points, polyline):
    """Max over ``points`` of the distance to the piecewise-linear curve
    through ``polyline`` (one-sided Hausdorff)."""
    a = polyline[:-1]
    b = polyline[1:]
    ab = b - a
    denom = np.einsum("ij,ij->i", ab, ab)
    out = 0.0
    for p in points:
        ap = p[None, :] - a
        t = np.clip(np.einsum("ij,ij->i", ap, ab) / denom, 0.0, 1.0)
        closest = a + t[:, None] * ab
        out = max(out, float(np.min(np.linalg.norm(p[None, :] - closest, axis=1))))
    return out


class TestFindSeed:
    def test_sphere_meridian_search(self):
        seed = find_seed(darboux.sphere(1.0), EZ, math.pi / 3, (0.0, 0.4))
        assert seed[0] == 0.0
        assert seed[1] == pytest.approx(math.pi / 6, abs=1e-11)

    def test_plane_has_no_level(self):
        with pytest.raises(SeedError, match="no isophote at this level near guess"):
            find_seed(darboux.plane(), EZ, math.pi / 6, (0.0, 0.0))

    def test_implicit_sphere(self):
        p = find_seed(darboux.implicit_sphere(1.0), EZ, math.pi / 4, (0.6, 0.0, 0.8))
        assert p[2] == pytest.approx(SQRT2 / 2, abs=1e-12)
        assert abs(np.linalg.norm(p) - 1.0) <= 1e-12

    def test_implicit_vanishing_gradient_finds_nothing(self):
        # the guess is the cone's apex, on f = 0, where grad f = 0
        cone = parse_surface_spec("implicit:f=x^2+y^2-z^2")
        with pytest.raises(SeedError, match="no isophote at this level near guess"):
            find_seed(cone, EZ, math.pi / 4, (0.0, 0.0, 0.0))

    def test_implicit_newton_step_beyond_projection_finds_nothing(self):
        # a damped Newton step lands where 8 projection steps do not reach f = 0
        helicoid = parse_surface_spec("implicit:f=x*sin(z)-y*cos(z)")
        with pytest.raises(SeedError, match="no isophote at this level near guess"):
            find_seed(helicoid, (1e-8, 0.923, 7.4e-177), math.radians(30.0), (1.0, 3.3e-9, 3.3e-9))

    def test_already_on_level_returns_guess(self):
        seed = find_seed(darboux.sphere(1.0), EZ, math.pi / 4, (0.3, math.pi / 4))
        assert seed == (0.3, math.pi / 4)

    def test_axis_normalized(self):
        seed = find_seed(darboux.sphere(1.0), np.array([0.0, 0.0, 5.0]),
                         math.pi / 3, (0.0, 0.4))
        assert seed[1] == pytest.approx(math.pi / 6, abs=1e-11)

    @pytest.mark.parametrize("guess", [(0.3, 0.0), (-0.3, 0.0)], ids=["low-end", "high-end"])
    def test_level_exactly_at_a_bracket_end(self, guess):
        # cos(u) = cos(0) on the cylinder: g is exactly 0 at the grid point
        # u = 0, the lower end of the bracket nearest 0.3 and the upper end
        # of the one nearest -0.3
        seed = find_seed(darboux.cylinder(1.0), (1.0, 0.0, 0.0), 0.0, guess)
        assert seed == (0.0, 0.0)

    def test_bisection_out_of_iterations_finds_nothing(self):
        # no bisection step: the v-line's bracket gives no root, and the
        # u-line of the sphere has no sign change
        with pytest.raises(SeedError, match="no isophote at this level near guess"):
            find_seed(darboux.sphere(1.0), EZ, math.pi / 3, (0.0, 0.4), max_iter=0)

    @pytest.mark.parametrize("implicit", [False, True], ids=["chart", "implicit"])
    @pytest.mark.parametrize("kwargs, message", [
        ({"projection_tol": math.nan}, "projection_tol must be positive and finite"),
        ({"projection_tol": -1.0}, "projection_tol must be positive and finite"),
        ({"projection_tol": 0.0}, "projection_tol must be positive and finite"),
        ({"projection_tol": math.inf}, "projection_tol must be positive and finite"),
        ({"max_iter": -1}, "max_iter must be an int >= 0"),
        ({"max_iter": 2.0}, "max_iter must be an int >= 0"),
        ({"max_iter": True}, "max_iter must be an int >= 0"),
    ], ids=["tol-nan", "tol-negative", "tol-zero", "tol-inf", "iter-negative", "iter-float",
            "iter-bool"])
    def test_bad_arguments_raise_value_error(self, implicit, kwargs, message):
        # checked before any search, so no SeedError or ProjectionError names them
        surface, guess = ((darboux.implicit_sphere(1.0), (0.6, 0.0, 0.8)) if implicit
                          else (darboux.sphere(1.0), (0.0, 0.4)))
        with pytest.raises(ValueError, match=message):
            find_seed(surface, EZ, math.pi / 3, guess, **kwargs)


class TestSnapSeed:
    """snap_seed reads the guess's level as trace_isophote reads its seed's:
    through the trace's adapter, with the axis normalized."""

    AXIS = (0.0, 0.0, 2.0)

    def test_on_level_guess_is_kept(self):
        guess = (0.3, math.pi / 4)
        assert snap_seed(darboux.sphere(1.0), self.AXIS, math.pi / 4, guess,
                         TraceConfig()) is guess

    def test_level_of_the_unnormalized_axis_is_searched(self, monkeypatch):
        # <U, (0, 0, 2)> = cos(pi/4) here, but <U, e_z> is half that
        sphere, phi, guess = darboux.sphere(1.0), math.pi / 4, (0.3, 0.361367123906708)
        config = TraceConfig(step=1e-2, max_length=0.1)
        searched = []

        def counted(*args, **kwargs):
            searched.append(args)
            return find_seed(*args, **kwargs)

        monkeypatch.setattr(trace_module, "find_seed", counted)
        seed = snap_seed(sphere, self.AXIS, phi, guess, config)
        assert searched == [(sphere, self.AXIS, phi, guess)]
        assert seed[1] == pytest.approx(math.pi / 4, abs=1e-9)
        res = trace_isophote(sphere, self.AXIS, phi, seed, config)
        assert res.termination == "length reached"


def _nearest_bracket_full_scan(g, lo, hi, center, n=256):
    """The bracket scan as first written: g at every grid point, then the
    sign-change cell whose midpoint is nearest ``center`` by a strict <."""
    ts = np.linspace(lo, hi, n + 1)
    vals = np.empty(n + 1)
    for i, t in enumerate(ts):
        try:
            vals[i] = g(t)
        except DarbouxError:
            vals[i] = np.nan
    best = None
    best_dist = np.inf
    for i in range(n):
        a, b = vals[i], vals[i + 1]
        if np.isnan(a) or np.isnan(b) or a * b > 0:
            continue
        mid = 0.5 * (ts[i] + ts[i + 1])
        dist = abs(mid - center)
        if dist < best_dist:
            best, best_dist = (ts[i], ts[i + 1]), dist
    return best


class TestNearestBracket:
    @staticmethod
    def grid_function(ts, values, calls):
        """g on the grid points: a value, nan, or (None) a DarbouxError."""
        index = {t: i for i, t in enumerate(ts.tolist())}

        def g(t):
            calls.append(t)
            value = values[index[float(t)]]
            if value is None:
                raise DarbouxError("no value here")
            return value

        return g

    def test_same_bracket_as_the_full_scan(self):
        rng = np.random.default_rng(11)
        calls_full, calls_nearest = [], []
        for _ in range(600):
            n = int(rng.choice([4, 16, 256]))
            lo, hi = np.sort(rng.uniform(-4.0, 4.0, 2))
            ts = np.linspace(lo, hi, n + 1)
            # a random walk crosses zero a few times; holes are nan or raise
            values = list(np.cumsum(rng.normal(size=n + 1)) + rng.normal())
            for i in range(n + 1):
                r = rng.random()
                values[i] = (np.nan if r < 0.08 else None if r < 0.12
                             else 0.0 if r < 0.14 else float(values[i]))
            center = rng.choice([
                rng.uniform(lo - 1.0, hi + 1.0),
                ts[rng.integers(0, n + 1)],  # equal distances to two cells
                0.5 * (ts[0] + ts[1]),
                lo, hi, np.nan, np.inf,
            ])
            full = _nearest_bracket_full_scan(
                self.grid_function(ts, values, calls_full), lo, hi, center, n)
            nearest = _nearest_bracket(
                self.grid_function(ts, values, calls_nearest), 0.0, lo, hi, center, {}, n)
            if full is None:
                assert nearest is None
            else:
                a, ga, b, gb = nearest
                assert (a, b) == full
                # the values at the ends come along for the bisection
                i = int(np.flatnonzero(ts == a)[0])
                assert (ga, gb) == (values[i], values[i + 1])
        assert len(calls_nearest) < len(calls_full) / 2

    def test_seed_search_reuses_the_bracket_values(self, monkeypatch):
        # the bisection starts from g at the bracket ends the scan took:
        # 99 evaluations of g where re-evaluating both ends took 101
        calls = []
        angle_value = trace_module._angle_value_parametric

        def counted(*args):
            calls.append(args)
            return angle_value(*args)

        monkeypatch.setattr(trace_module, "_angle_value_parametric", counted)
        seed = find_seed(darboux.sphere(1.0), EZ, math.radians(35.0), (0.0, 0.4))
        assert len(calls) == 99
        # the bits of dot3's left-to-right sums
        assert [float(x).hex() for x in seed] == ["0x0.0p+0", "0x1.eb7c166fdfff2p-1"]


class TestParametricDirection:
    def test_sphere_latitude_direction(self):
        du, dv = isophote_direction_parametric(darboux.sphere(1.0), EZ, 0.0, math.pi / 4)
        assert dv == pytest.approx(0.0, abs=1e-15)
        assert abs(du) == pytest.approx(SQRT2, abs=1e-12)  # 1/cos(pi/4)

    def test_branch_flips_sign(self):
        s = darboux.sphere(1.0)
        plus = isophote_direction_parametric(s, EZ, 0.0, 0.5, branch="plus")
        minus = isophote_direction_parametric(s, EZ, 0.0, 0.5, branch="minus")
        assert plus[0] == -minus[0] and plus[1] == -minus[1]

    def test_cylinder_with_axis_is_singular_everywhere(self):
        c = darboux.cylinder(1.0)
        for u, v in ((0.0, 0.0), (1.0, 3.0), (-2.0, -5.0)):
            with pytest.raises(SingularPointError):
                isophote_direction_parametric(c, EZ, u, v)

    def test_plane_singular(self):
        with pytest.raises(SingularPointError):
            isophote_direction_parametric(darboux.plane(), EZ, 0.0, 0.0)

    def test_unit_metric_speed_and_level_tangency(self):
        rng = np.random.default_rng(2)
        tor = darboux.torus(2.0, 0.5)
        d = np.array([0.3, -0.2, 0.9])
        d /= np.linalg.norm(d)
        for _ in range(50):
            u, v = rng.uniform(-math.pi, math.pi, 2)
            try:
                du, dv = isophote_direction_parametric(tor, d, u, v)
            except SingularPointError:
                continue
            ff = tor.first_form(u, v)
            assert ff.E * du**2 + 2 * ff.F * du * dv + ff.G * dv**2 == pytest.approx(1.0, abs=1e-12)
            U_u, U_v = tor.normal_derivatives(u, v)
            assert (U_u @ d) * du + (U_v @ d) * dv == pytest.approx(0.0, abs=1e-12)


class TestDeltaCoefficients:
    def test_sphere_latitude_values(self):
        s = darboux.sphere(1.0)
        du, dv = SQRT2, 0.0
        delta, dstar = delta_coefficients(s, EZ, 0.0, math.pi / 4, (du, dv))
        assert delta == pytest.approx(0.0, abs=1e-12)
        assert dstar == pytest.approx(-0.5, abs=1e-12)
        assert delta * du + dstar * dv == pytest.approx(0.0, abs=1e-12)

    def test_plane_all_zero(self):
        delta, dstar = delta_coefficients(darboux.plane(), EZ, 0.0, 0.0, (1.0, 0.0))
        assert delta == 0.0 and dstar == 0.0

    def test_helix_direction_on_cylinder(self):
        # the unit-speed helix direction keeps <U, z> = 0, so it solves the
        # phi = pi/2 isophote equation: Delta u' + Delta* v' = 0
        c = darboux.cylinder(1.0)
        direction = (1 / SQRT2, 1 / SQRT2)
        kn, tg = direction_scalars_parametric(c, EZ, 0.0, 0.0, direction)
        assert kn == pytest.approx(-0.5, abs=1e-12)
        assert tg == pytest.approx(0.5, abs=1e-12)
        delta, dstar = delta_coefficients(c, EZ, 0.0, 0.0, direction)
        assert delta * direction[0] + dstar * direction[1] == pytest.approx(0.0, abs=1e-12)
        # for an axis the direction is NOT isophotic for, the residual is felt
        # (with d = z every cylinder direction is trivially isophotic)
        ex = np.array([1.0, 0.0, 0.0])
        d2, ds2 = delta_coefficients(c, ex, 0.5, 0.0, direction)
        assert abs(d2 * direction[0] + ds2 * direction[1]) > 1e-3

    def test_closed_form_matches_field_at_random_points(self):
        rng = np.random.default_rng(42)
        tor = darboux.torus(2.0, 0.5)
        d = np.array([1.0, 0.5, 1.0])
        d /= np.linalg.norm(d)
        checked = 0
        while checked < 100:
            u, v = rng.uniform(-math.pi, math.pi, 2)
            try:
                du, dv = isophote_direction_parametric(tor, d, u, v)
            except SingularPointError:
                continue
            delta, dstar = delta_coefficients(tor, d, u, v, (du, dv))
            ff = tor.first_form(u, v)
            W2 = ff.E * dstar**2 - 2 * ff.F * delta * dstar + ff.G * delta**2
            if W2 <= 1e-20:
                continue
            W = math.sqrt(W2)
            got = np.array([du, dv])
            want = np.array([dstar / W, -delta / W])
            err = min(np.abs(got - want).max(), np.abs(got + want).max())
            assert err <= 1e-8
            checked += 1


class TestImplicitDirection:
    def test_sphere_example(self):
        s = darboux.implicit_sphere(1.0)
        p = np.array([SQRT2 / 2, 0.0, SQRT2 / 2])
        t = isophote_direction_implicit(s, EZ, p)
        np.testing.assert_allclose(np.abs(t), [0, 1, 0], atol=1e-14)

    def test_point_off_the_surface(self):
        with pytest.raises(DarbouxError, match="point is not on the surface"):
            isophote_direction_implicit(darboux.implicit_sphere(1.0), EZ,
                                        np.array([0.0, 0.0, 1.5]))

    def test_implicit_plane_singular(self):
        with pytest.raises(SingularPointError):
            isophote_direction_implicit(darboux.implicit_plane(), EZ,
                                        np.array([0.0, 0.0, 0.0]))

    def test_sphere_pole_singular(self):
        with pytest.raises(SingularPointError):
            isophote_direction_implicit(darboux.implicit_sphere(1.0), EZ,
                                        np.array([0.0, 0.0, 1.0]))

    def test_tangency_constraints(self):
        rng = np.random.default_rng(9)
        tor = darboux.implicit_torus(2.0, 0.5)
        d = np.array([0.2, 0.3, 0.9])
        d /= np.linalg.norm(d)
        count = 0
        while count < 40:
            u, v = rng.uniform(-math.pi, math.pi, 2)
            p = darboux.torus(2.0, 0.5).chart_jet(u, v).sigma
            try:
                t = isophote_direction_implicit(tor, d, p)
            except SingularPointError:
                continue
            count += 1
            assert np.linalg.norm(t) == pytest.approx(1.0, abs=1e-12)
            assert tor.gradient(p) @ t == pytest.approx(0.0, abs=1e-9)


class TestOmegaCoefficients:
    def test_sphere_example(self):
        s = darboux.implicit_sphere(1.0)
        p = np.array([SQRT2 / 2, 0.0, SQRT2 / 2])
        t = np.array([0.0, 1.0, 0.0])
        omega = omega_coefficients(s, EZ, p, t)
        np.testing.assert_allclose(omega, [0, 0, -1], atol=1e-14)
        grad_cross = np.cross(s.gradient(p), omega)
        # parallel to the tangent
        assert np.linalg.norm(np.cross(grad_cross, t)) == pytest.approx(0.0, abs=1e-12)
        assert omega @ t == pytest.approx(0.0, abs=1e-15)

    def test_line_of_curvature_reduces_to_kn_d(self):
        # on a sphere every direction has tau_g = 0, so Omega = k_n d
        s = darboux.implicit_sphere(1.0)
        d = np.array([0.3, -0.5, 0.81])
        d /= np.linalg.norm(d)
        p = np.array([0.0, 1.0, 0.0])
        t = np.array([1.0, 0.0, 0.0])
        omega = omega_coefficients(s, d, p, t)
        np.testing.assert_allclose(omega, -d, atol=1e-12)  # k_n = -1

    def test_overflowing_cube_of_the_gradient_norm_raises(self):
        # |grad f| = 1e120: the Jacobian of U divides by |grad f|^3, which
        # overflows, and the per-point functions raise the typed error of a
        # failed float power
        s = parse_surface_spec("implicit:f=1e120*z+1e120*x*x", implicit=True)
        p, t = np.zeros(3), np.array([1.0, 0.0, 0.0])
        for call in (lambda: isophote_direction_implicit(s, EZ, p),
                     lambda: direction_scalars_implicit(s, EZ, p, t),
                     lambda: omega_coefficients(s, EZ, p, t)):
            with pytest.raises(NumericalError, match="float arithmetic failed"):
                call()


@pytest.fixture(scope="module")
def sphere_circuit():
    cfg = TraceConfig(step=1e-3, max_length=4.45)
    return trace_isophote(darboux.sphere(1.0), EZ, math.pi / 4,
                          (0.0, math.pi / 4), cfg)


@pytest.fixture(scope="module")
def torus_trace():
    itor = darboux.implicit_torus(2.0, 0.5)
    seed = find_seed(itor, EZ, math.pi / 3, (2.5, 0.0, 0.1))
    cfg = TraceConfig(step=1e-3, max_length=5.0)
    return trace_isophote(itor, EZ, math.pi / 3, seed, cfg)


class TestTraceParametric:
    def test_closes_and_holds_level(self, sphere_circuit):
        res = sphere_circuit
        assert res.termination == "closed"
        assert np.abs(res.angle_dot - SQRT2 / 2).max() <= 1e-8
        assert np.linalg.norm(res.points[-1] - res.points[0]) <= 1e-5

    def test_constraint_residual(self, sphere_circuit):
        assert np.abs(sphere_circuit.constraint_residual).max() <= 1e-6

    def test_fixed_spacing_except_closure(self, sphere_circuit):
        ds = np.diff(sphere_circuit.s)
        assert np.abs(ds[:-1] - 1e-3).max() <= 1e-12
        assert 0.0 < ds[-1] <= 1e-3 + 1e-12

    def test_sphere_umbilicity(self, sphere_circuit):
        assert np.abs(sphere_circuit.tg).max() <= 1e-8
        assert np.abs(sphere_circuit.kn + 1.0).max() <= 1e-8

    def test_unit_tangents(self, sphere_circuit):
        norms = np.linalg.norm(sphere_circuit.tangents, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-9

    def test_closure_radius_beyond_the_circuit(self, sphere_circuit):
        # every sample lies within 3 of the seed (the circuit's diameter is
        # sqrt(2)): the heading test passes over the far side, and the trace
        # closes at the seed as it does with the default radius
        cfg = TraceConfig(step=1e-3, max_length=4.45, closure_tol=3.0)
        res = trace_isophote(darboux.sphere(1.0), EZ, math.pi / 4, (0.0, math.pi / 4), cfg)
        assert res.termination == "closed"
        assert res.s.tolist() == sphere_circuit.s.tolist()

    def test_zero_axis_rejected(self):
        with pytest.raises(DarbouxError, match="axis must be a nonzero vector"):
            trace_isophote(darboux.sphere(1.0), (0.0, 0.0, 0.0), math.pi / 4,
                           (0.0, math.pi / 4))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("axis", [(math.nan, 0.0, 1.0), (math.inf, 0.0, 1.0),
                                      (1e200, 0.0, 1e200)], ids=["nan", "inf", "overflow"])
    @pytest.mark.parametrize("call", [
        lambda s, d, phi, p: find_seed(s, d, phi, p),
        lambda s, d, phi, p: snap_seed(s, d, phi, p, TraceConfig()),
        lambda s, d, phi, p: trace_isophote(s, d, phi, p),
    ], ids=["find_seed", "snap_seed", "trace_isophote"])
    def test_axis_of_no_finite_length_rejected(self, axis, call):
        with pytest.raises(DarbouxError, match="axis must be a nonzero vector of finite length"):
            call(darboux.sphere(1.0), axis, math.pi / 4, (0.3, math.pi / 4))

    @pytest.mark.parametrize("spec, seed", [
        ("param:x=u;y=v;z=u*1e308*10;u=0,1;v=0,1", (0.5, 0.5)),
        ("implicit:f=z*1e308*10", (0.5, 0.5, 0.0)),
    ], ids=["chart", "implicit"])
    def test_seed_of_nan_level_rejected(self, spec, seed):
        # the normal's norm is inf or nan there, so <U, d> is nan
        with pytest.raises(SeedError, match=r"= nan > 1e-09; use find_seed"):
            trace_isophote(parse_surface_spec(spec), EZ, math.pi / 4, seed, TraceConfig())

    def test_seed_off_level_rejected(self):
        with pytest.raises(SeedError, match="find_seed"):
            trace_isophote(darboux.sphere(1.0), EZ, math.pi / 4, (0.0, 0.6),
                           TraceConfig())

    def test_both_branches_same_point_set(self, sphere_circuit):
        cfg = TraceConfig(step=1e-3, max_length=4.45, branch="minus")
        minus = trace_isophote(darboux.sphere(1.0), EZ, math.pi / 4,
                               (0.0, math.pi / 4), cfg)
        assert minus.termination == "closed"
        # opposite traversal of the same circle
        assert minus.tangents[0] @ sphere_circuit.tangents[0] == pytest.approx(-1.0, abs=1e-12)
        assert polyline_distance(minus.points[::25], sphere_circuit.points) <= 1e-6

    def test_cylinder_axis_trace_singular(self):
        with pytest.raises(SingularPointError):
            trace_isophote(darboux.cylinder(1.0), EZ, math.pi / 2, (0.0, 0.0),
                           TraceConfig())

    def test_plane_trace_singular(self):
        with pytest.raises(SingularPointError):
            trace_isophote(darboux.plane(), EZ, 0.0, (0.0, 0.0), TraceConfig())

    def test_leaves_domain(self):
        # on the helicoid the z-axis isophotes are u-coordinate lines, which
        # run into the chart boundary (u is not periodic)
        heli = darboux.helicoid(1.0)
        phi = 2.0
        seed = find_seed(heli, EZ, phi, (0.0, 0.3))
        res = trace_isophote(heli, EZ, phi, seed,
                             TraceConfig(step=1e-2, max_length=50.0))
        assert res.termination == "left domain"
        assert abs(res.chart[-1, 0]) > 5.0  # got close to u = +-2*pi

    def test_short_trace_has_no_kg_estimate(self):
        # k_g is differenced over 5 samples: fewer give nan
        res = trace_isophote(darboux.sphere(1.0), EZ, math.pi / 4, (0.0, math.pi / 4),
                             TraceConfig(step=1e-2, max_length=0.03))
        assert res.n == 4 and np.isnan(res.kg).all()

    def test_max_length_termination(self):
        cfg = TraceConfig(step=1e-3, max_length=1.0)
        res = trace_isophote(darboux.sphere(1.0), EZ, math.pi / 4,
                             (0.0, math.pi / 4), cfg)
        assert res.termination == "length reached"
        assert res.s[-1] == pytest.approx(1.0, abs=1e-9)
        assert res.n == 1001


class TestTraceImplicit:
    def test_stays_on_surface(self, torus_trace):
        assert torus_trace.surface_residual.max() <= 1e-9

    def test_holds_level(self, torus_trace):
        assert np.abs(torus_trace.angle_dot - 0.5).max() <= 1e-7

    def test_tangency_residuals(self, torus_trace):
        assert np.abs(torus_trace.grad_dot_t).max() <= 1e-9
        assert np.abs(torus_trace.constraint_residual).max() <= 1e-6
        assert np.abs(torus_trace.unit_speed_residual).max() <= 1e-9

    def test_sphere_implicit_matches_parametric_circle(self):
        isph = darboux.implicit_sphere(1.0)
        seed = np.array([SQRT2 / 2, 0.0, SQRT2 / 2])
        cfg = TraceConfig(step=1e-3, max_length=4.45)
        res = trace_isophote(isph, EZ, math.pi / 4, seed, cfg)
        assert res.termination == "closed"
        # the parametric circuit lives on the z = cos(phi) circle
        param = trace_isophote(darboux.sphere(1.0), EZ, math.pi / 4,
                               (0.0, math.pi / 4), cfg)
        assert polyline_distance(res.points[::50], param.points) <= 1e-6

    def test_project_isophote_flag(self):
        itor = darboux.implicit_torus(2.0, 0.5)
        seed = find_seed(itor, EZ, math.pi / 3, (2.5, 0.0, 0.1))
        cfg = TraceConfig(step=1e-2, max_length=2.0, project_isophote=True)
        res = trace_isophote(itor, EZ, math.pi / 3, seed, cfg)
        assert np.abs(res.angle_dot - 0.5).max() <= 1e-11
        assert res.surface_residual.max() <= 1e-11

    def test_implicit_plane_singular(self):
        with pytest.raises(SingularPointError):
            trace_isophote(darboux.implicit_plane(), EZ, 0.0,
                           (0.0, 0.0, 0.0), TraceConfig())


class TestEvaluationCounts:
    """Raw surface evaluations per trace, counted through the public
    constructors: each point a trace visits is evaluated once, and a
    sweep's diagnostics read the jets, or f and level, of all its samples
    in one column pass."""

    @staticmethod
    def counting_sphere(calls):
        """The unit sphere with a jet function that counts its calls in
        calls["jet"], and the sphere's compiled columns, counting their
        calls and lanes in calls["columns"] and calls["lanes"]."""
        base = darboux.sphere(1.0)

        def jet(u, v):
            calls["jet"] += 1
            j = base.chart_jet(u, v)
            return j.sigma, j.sigma_u, j.sigma_v, j.sigma_uu, j.sigma_uv, j.sigma_vv

        def columns(u, v):
            calls["columns"] += 1
            calls["lanes"] += len(u)
            return base._jet_fn.columns(u, v)

        jet.columns = columns
        return ParametricSurface("counted sphere", jet, base.u_range, base.v_range,
                                 periodic_u=True, jet3_fn=base.jet3)

    @staticmethod
    def counting_torus(calls):
        """The implicit torus with f and level functions that count their
        calls in calls["f"] and calls["level"], and the torus's compiled
        columns of each, counting their calls in calls["f columns"] and
        calls["level columns"] and their lanes in calls["lanes"]."""
        base = darboux.implicit_torus(2.0, 0.5)

        def counted(name, fn, columns):
            def wrapper(*p):
                calls[name] += 1
                return fn(p)

            def counted_columns(*xyz):
                calls[f"{name} columns"] += 1
                calls["lanes"] += len(xyz[0])
                return columns(*xyz)

            wrapper.columns = counted_columns
            return wrapper

        return ImplicitSurface(
            "counted torus", counted("f", base.value, base._f.columns),
            counted("level", lambda p: (base.gradient(p), base.hessian(p)), base._level.columns),
            third=base._third)

    @staticmethod
    def torus_calls():
        return {"f": 0, "level": 0, "f columns": 0, "level columns": 0, "lanes": 0}

    def test_sphere_circuit_jets(self):
        calls = {"jet": 0, "columns": 0, "lanes": 0}
        res = trace_isophote(self.counting_sphere(calls), EZ, math.pi / 4,
                             (0.0, math.pi / 4), TraceConfig(step=1e-2, max_length=4.5))
        assert res.termination == "closed"
        # on a latitude the four RK4 slopes agree, so k2 and k3 share a point
        # and k4 lands on the next sample: two jets per step, one at the seed
        assert res.n == 446
        assert calls["jet"] == 2 * (res.n - 1) + 1
        assert (calls["columns"], calls["lanes"]) == (1, res.n)

    def test_implicit_torus_evaluations(self):
        calls = self.torus_calls()
        surface = self.counting_torus(calls)
        seed = find_seed(surface, EZ, math.pi / 3, (2.5, 0.0, 0.1))
        for name in calls:
            calls[name] = 0
        res = trace_isophote(surface, EZ, math.pi / 3, seed,
                             TraceConfig(step=1e-2, max_length=2.0))
        assert res.termination == "length reached"
        # RK4 stages 2-4 and the new sample take grad and H in one level
        # call (the projection, already within its tolerance, takes none);
        # the projection takes f.  The column pass reads f, grad f and H of
        # every sample in one call of each function's columns, no lane
        assert res.n == 201
        assert calls["level"] == 4 * (res.n - 1) + 1
        assert calls["f"] == res.n
        assert (calls["f columns"], calls["level columns"], calls["lanes"]) == (1, 1, 2 * res.n)

    def test_implicit_sweep_reads_its_columns_once(self):
        # one column pass covers the samples of every angle
        calls = self.torus_calls()
        phis = (math.pi / 3, math.radians(55.0), math.radians(65.0))
        results, error = trace_module._sweep(self.counting_torus(calls), EZ, phis,
                                             (2.5, 0.0, 0.1),
                                             TraceConfig(step=1e-2, max_length=0.5), snap=True)
        assert error is None
        assert [res.termination for res in results] == ["length reached"] * 3
        n = sum(res.n for res in results)
        assert (calls["f columns"], calls["level columns"], calls["lanes"]) == (1, 1, 2 * n)


class TestConvergence:
    def test_parametric_order(self):
        d = np.array([1.0, 0.0, 1.0]) / SQRT2
        sph = darboux.sphere(1.0)
        phi = math.pi / 4
        seed = find_seed(sph, d, phi, (0.9, 0.1))
        drifts = []
        for h in (0.02, 0.01):
            res = trace_isophote(sph, d, phi, seed, TraceConfig(step=h, max_length=3.0))
            drifts.append(np.abs(res.angle_dot - math.cos(phi)).max())
        assert drifts[0] / drifts[1] >= 11.0

    def test_implicit_order(self):
        itor = darboux.implicit_torus(2.0, 0.5)
        d = np.array([1.0, 0.0, 2.0]) / math.sqrt(5.0)
        phi = math.pi / 3
        seed = find_seed(itor, d, phi, (2.4, 0.3, 0.2))
        drifts = []
        for h in (0.02, 0.01):
            res = trace_isophote(itor, d, phi, seed, TraceConfig(step=h, max_length=3.0))
            drifts.append(np.abs(res.angle_dot - math.cos(phi)).max())
        assert drifts[0] / drifts[1] >= 11.0


class TestTraceConfig:
    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            TraceConfig(step=0.0)

    def test_rejects_bad_branch(self):
        with pytest.raises(ValueError):
            TraceConfig(branch="sideways")

    def test_closure_radius_default(self):
        assert TraceConfig(step=0.5).closure_radius == 1.0

    @pytest.mark.parametrize("field", ["step", "max_length"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_rejects_a_step_or_length_not_positive_and_finite(self, field, value):
        # a nan step or an infinite length would give a one-sample trace
        # ending in "cannot convert float NaN to integer"
        with pytest.raises(ValueError, match="must be positive and finite"):
            TraceConfig(**{field: value})

    @pytest.mark.parametrize("value", [-1.0, 0.0, math.nan, math.inf])
    def test_rejects_a_closure_tol_not_positive_and_finite(self, value):
        # a negative or nan radius would silently never close
        with pytest.raises(ValueError, match="closure_tol must be positive and finite"):
            TraceConfig(closure_tol=value)

    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
    def test_rejects_an_eps_sing_not_finite_and_non_negative(self, value):
        with pytest.raises(ValueError, match="eps_sing must be a finite number >= 0"):
            TraceConfig(eps_sing=value)

    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
    def test_rejects_a_seed_tol_not_finite_and_non_negative(self, value):
        # a nan or negative tolerance would reject every seed with a SeedError
        # that points at find_seed
        with pytest.raises(ValueError, match="seed_tol must be a finite number >= 0"):
            TraceConfig(seed_tol=value)

    @pytest.mark.parametrize("value", [-1.0, 0.0, math.nan, math.inf])
    def test_rejects_a_projection_tol_not_positive_and_finite(self, value):
        # a nan or negative tolerance fails every projection, and 0 ends an
        # implicit trace after its seed
        with pytest.raises(ValueError, match="projection_tol must be positive and finite"):
            TraceConfig(projection_tol=value)

    def test_accepts_the_edge_values(self):
        assert TraceConfig(eps_sing=0.0, closure_tol=1e-300).closure_radius == 1e-300
        assert TraceConfig(seed_tol=0.0, projection_tol=1e-300).seed_tol == 0.0


def _without_columns(surface):
    """surface with a jet function that has no columns: a trace's
    diagnostics evaluate its jets lane by lane."""
    fn = surface._jet_fn
    return ParametricSurface(surface.name, lambda u, v: fn(u, v), surface.u_range,
                             surface.v_range, surface.periodic_u, surface.periodic_v,
                             jet3_fn=surface._jet3_fn)


def _declining_columns(surface):
    """surface with compiled columns that decline wherever a lane has u > 0."""
    fn = surface._jet_fn

    def jet(u, v):
        return fn(u, v)

    jet.columns = lambda u, v: None if (u > 0.0).any() else fn.columns(u, v)
    return ParametricSurface(surface.name, jet, surface.u_range, surface.v_range,
                             surface.periodic_u, surface.periodic_v, jet3_fn=surface._jet3_fn)


# Chart surfaces whose traces' columns are checked against the public
# per-point functions: the compiled columns of a catalog chart, of the monkey
# saddle (its power runs through math lane by lane) and of a param: spec, and
# the jets lane by lane where a jet function has no columns or they decline
COLUMN_SURFACES = {
    "torus": lambda: darboux.torus(2.0, 0.5),
    "monkey_saddle": darboux.monkey_saddle,
    "param_sphere": lambda: parse_surface_spec(
        "param:x=cos(v)*cos(u);y=cos(v)*sin(u);z=sin(v);u=-3.141592653589793,3.141592653589793;"
        "v=-1.5,1.5;periodic=u"),
    "torus_without_columns": lambda: _without_columns(darboux.torus(2.0, 0.5)),
    "torus_declining_columns": lambda: _declining_columns(darboux.torus(2.0, 0.5)),
}


def _hex(values):
    return [float(x).hex() for x in np.asarray(values, dtype=float).ravel().tolist()]


class TestRecordedColumnsMatchPublicFunctions:
    """A trace's columns come from the diagnostics kernel that the public
    per-point functions run on floats, so every recorded column has their
    bits."""

    @staticmethod
    def assert_chart_columns_match(surface, res):
        """Every recorded column of a chart trace against the public
        per-point functions, bit for bit."""
        for i in range(res.n):
            u, v = res.chart[i].tolist()
            jet = surface.chart_jet(u, v)
            du, dv = isophote_direction_parametric(surface, res.d, u, v)
            t3 = du * jet.sigma_u + dv * jet.sigma_v
            if dot3(t3.tolist(), res.tangents[i].tolist()) < 0.0:
                du, dv, t3 = -du, -dv, -t3
            assert _hex(t3) == _hex(res.tangents[i])
            assert _hex(jet.sigma) == _hex(res.points[i])
            U = unit_normal(jet)
            assert _hex(U) == _hex(res.normals[i])
            assert _hex([dot3(U.tolist(), res.d.tolist())]) == _hex([res.angle_dot[i]])
            kn, tg = direction_scalars_parametric(surface, res.d, u, v, (du, dv))
            assert _hex([kn, tg]) == _hex([res.kn[i], res.tg[i]])
            delta, delta_star = delta_coefficients(surface, res.d, u, v, (du, dv))
            assert _hex([delta * du + delta_star * dv]) == _hex([res.constraint_residual[i]])
            ff = first_form(jet)
            speed = ff.E * du * du + 2 * ff.F * du * dv + ff.G * dv * dv - 1.0
            assert _hex([speed]) == _hex([res.unit_speed_residual[i]])

    def test_sphere_chart(self):
        sph = darboux.sphere(1.0)
        d = np.array([1.0, 0.0, 1.0]) / SQRT2
        phi = math.pi / 4
        seed = find_seed(sph, d, phi, (0.9, 0.1))
        res = trace_isophote(sph, d, phi, seed, TraceConfig(step=0.05, max_length=2.0))
        assert res.n > 20
        self.assert_chart_columns_match(sph, res)

    @pytest.mark.parametrize("name", sorted(COLUMN_SURFACES))
    @settings(max_examples=12, deadline=None)
    @given(axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: math.hypot(*v) > 0.2),
           phi_deg=st.floats(20.0, 80.0), a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0),
           branch=st.sampled_from(["plus", "minus"]))
    def test_chart_surfaces(self, name, axis, phi_deg, a, b, branch):
        surface = COLUMN_SURFACES[name]()
        (u0, u1), (v0, v1) = surface.u_range, surface.v_range
        d, phi = np.array(axis) / math.hypot(*axis), math.radians(phi_deg)
        try:
            seed = find_seed(surface, d, phi, (u0 + a * (u1 - u0), v0 + b * (v1 - v0)))
        except SeedError:
            assume(False)
        res = trace_isophote(surface, d, phi, seed,
                             TraceConfig(step=0.05, max_length=2.0, branch=branch))
        self.assert_chart_columns_match(surface, res)

    def test_implicit_torus(self):
        itor = darboux.implicit_torus(2.0, 0.5)
        d = np.array([1.0, 0.0, 2.0]) / math.sqrt(5.0)
        phi = math.pi / 3
        seed = find_seed(itor, d, phi, (2.4, 0.3, 0.2))
        res = trace_isophote(itor, d, phi, seed, TraceConfig(step=0.05, max_length=2.0))
        assert res.n > 20
        for i in range(res.n):
            p, t = res.points[i], res.tangents[i]
            field = isophote_direction_implicit(itor, res.d, p)
            assert _hex(t) in (_hex(field), _hex(-field))
            U = itor.unit_normal(p)
            assert _hex(U) == _hex(res.normals[i])
            assert _hex([dot3(U.tolist(), res.d.tolist())]) == _hex([res.angle_dot[i]])
            kn, tg = direction_scalars_implicit(itor, res.d, p, t)
            assert _hex([kn, tg]) == _hex([res.kn[i], res.tg[i]])
            omega = omega_coefficients(itor, res.d, p, t)
            assert _hex([dot3(omega.tolist(), t.tolist())]) == _hex([res.constraint_residual[i]])
            assert _hex([norm3(t.tolist()) - 1.0]) == _hex([res.unit_speed_residual[i]])
            assert _hex([abs(itor.value(p))]) == _hex([res.surface_residual[i]])
            grad_t = dot3(itor.gradient(p).tolist(), t.tolist())
            assert _hex([grad_t]) == _hex([res.grad_dot_t[i]])

    @staticmethod
    def assert_implicit_columns_match(surface, res):
        """Every recorded column of an implicit trace against the public
        per-point functions, bit for bit."""
        assert res.n > 20
        for i in range(res.n):
            p, t = res.points[i], res.tangents[i]
            field = isophote_direction_implicit(surface, res.d, p)
            assert _hex(t) in (_hex(field), _hex(-field))
            U = surface.unit_normal(p)
            assert _hex(U) == _hex(res.normals[i])
            assert _hex([dot3(U.tolist(), res.d.tolist())]) == _hex([res.angle_dot[i]])
            kn, tg = direction_scalars_implicit(surface, res.d, p, t)
            assert _hex([kn, tg]) == _hex([res.kn[i], res.tg[i]])
            omega = omega_coefficients(surface, res.d, p, t)
            assert _hex([dot3(omega.tolist(), t.tolist())]) == _hex([res.constraint_residual[i]])
            assert _hex([norm3(t.tolist()) - 1.0]) == _hex([res.unit_speed_residual[i]])
            assert _hex([abs(surface.value(p))]) == _hex([res.surface_residual[i]])
            grad_t = dot3(surface.gradient(p).tolist(), t.tolist())
            assert _hex([grad_t]) == _hex([res.grad_dot_t[i]])

    def test_expression_torus(self):
        itor = parse_surface_spec("implicit:f=(x^2+y^2+z^2+3.75)^2-16*(x^2+y^2)",
                                  implicit=True)
        d = np.array([1.0, 0.0, 2.0]) / math.sqrt(5.0)
        phi = math.pi / 3
        seed = find_seed(itor, d, phi, (2.4, 0.3, 0.2))
        res = trace_isophote(itor, d, phi, seed, TraceConfig(step=0.05, max_length=2.0))
        self.assert_implicit_columns_match(itor, res)

    def test_project_isophote(self):
        itor = darboux.implicit_torus(2.0, 0.5)
        seed = find_seed(itor, EZ, math.pi / 3, (2.5, 0.0, 0.1))
        res = trace_isophote(itor, EZ, math.pi / 3, seed,
                             TraceConfig(step=0.1, max_length=3.0, project_isophote=True))
        self.assert_implicit_columns_match(itor, res)

    def test_closing_oblique_trace(self):
        # k_g and tau_g are both far from zero along this closed isophote
        itor = darboux.implicit_torus(2.0, 0.5)
        d = np.array([1.0, 0.0, 0.2])
        phi = math.radians(50.0)
        seed = find_seed(itor, d, phi, (2.5, 0.0, 0.1))
        res = trace_isophote(itor, d, phi, seed, TraceConfig(step=0.02, max_length=10.0))
        assert res.termination == "closed"
        assert np.abs(res.kg * res.tg).max() > 0.5
        # Omega = k_n d + tau_g (d x U) is orthogonal to every traced tangent
        assert np.abs(res.constraint_residual).max() <= 1e-12
        self.assert_implicit_columns_match(itor, res)


def test_two_constraint_projection_leaves_p_on_a_singular_system():
    # on the plane grad g vanishes, so J J^T is singular: no Newton step
    p = (0.1, 0.2, 0.3)
    plane = darboux.implicit_plane()
    out = trace_module._project_two_constraints(plane, (0.0, 0.0, 1.0), 0.5, p, 1e-12)
    assert out is p


def test_two_constraint_projection_keeps_its_last_point():
    # 1e-14 lies below the torus's rounding of f near |p| = 2.5 (2^-46): the
    # two-constraint Newton stops after 8 steps at its last point, whose |f|
    # the sample records, until a plain projection cannot reach the tolerance
    itor = darboux.implicit_torus(2.0, 0.5)
    d, phi = [1.0, 0.0, 0.2], math.radians(60.0)
    seed = find_seed(itor, d, phi, (2.5, 0.0, 0.1))
    res = trace_isophote(itor, d, phi, seed, TraceConfig(
        step=0.1, max_length=1.0, project_isophote=True, projection_tol=1e-14))
    assert res.termination.startswith("error: ")
    assert "projection did not reach |f| <= 1e-14" in res.termination
    assert (res.surface_residual > 1e-14).any()
    assert _hex(res.surface_residual) == _hex([abs(itor.value(p)) for p in res.points])


def test_two_constraint_projection_reads_f_at_its_last_point(monkeypatch):
    # as above, the two-constraint Newton ends some samples on a point its
    # last step moved to.  Where f raises there, the trace ends before that
    # sample with an error termination: the projection reads f at the point
    # it returns, so the column pass after the loop meets no failing lane
    itor = darboux.implicit_torus(2.0, 0.5)
    levels, poisoned, moved = [], set(), []

    def f(*p):
        if p in poisoned:
            raise ZeroDivisionError("f fails here")
        return itor._f(*p)

    def level(*p):
        levels.append(p)
        return itor._level(*p)

    level.columns = itor._level.columns
    surface = ImplicitSurface("torus", f, level, third=itor._third)
    project = trace_module._project_two_constraints

    def spy(*args):
        # a point level was not read at in this call: the last step moved it
        # (Newton may also move back onto an earlier point below rounding)
        start = len(levels)
        q = project(*args)
        if q not in levels[start:]:
            moved.append(q)
        return q

    monkeypatch.setattr(trace_module, "_project_two_constraints", spy)
    d, phi = [1.0, 0.0, 0.2], math.radians(60.0)
    seed = find_seed(itor, d, phi, (2.5, 0.0, 0.1))
    config = TraceConfig(step=0.1, max_length=1.0, project_isophote=True, projection_tol=1e-14)
    res = trace_isophote(surface, d, phi, seed, config)
    points = [tuple(p) for p in res.points.tolist()]
    assert moved and moved[0] in points
    poisoned.add(moved[0])
    cut = trace_isophote(surface, d, phi, seed, config)
    assert cut.termination == "error: float arithmetic failed: f fails here"
    assert cut.n == points.index(moved[0])
    assert _hex(cut.points) == _hex(res.points[:cut.n])


def test_arithmetic_error_at_the_seed_raises():
    # |grad f| = 1e120: the seed's direction solve divides by |grad f|^3,
    # which overflows before the trace has a sample
    plane = parse_surface_spec("implicit:f=1e120*z", implicit=True)
    with pytest.raises(NumericalError, match="out of range"):
        trace_isophote(plane, [0.6, 0.0, 0.8], math.acos(0.8), (0.0, 0.0, 0.0))


class TestFieldSolves:
    """Work per trace point, counted on the surfaces of TestEvaluationCounts:
    the field is solved once per evaluated point (the stage kernel runs once
    per jet or level call), and a sample's own oriented slope is RK4's first
    stage."""

    @staticmethod
    def counted(monkeypatch, name, calls):
        fn = getattr(trace_module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(trace_module, name, wrapper)

    def test_sphere_circuit_direction_solves(self, monkeypatch):
        calls = {"jet": 0, "_chart_eval": 0, "columns": 0, "lanes": 0}
        self.counted(monkeypatch, "_chart_eval", calls)
        surface = TestEvaluationCounts.counting_sphere(calls)
        res = trace_isophote(surface, EZ, math.pi / 4, (0.0, math.pi / 4),
                             TraceConfig(step=1e-2, max_length=4.5))
        assert res.termination == "closed"
        # on a latitude RK4 stages 2 and 3 share a point and stage 4 lands
        # on the next sample: two solves per step, one at the seed
        assert calls["_chart_eval"] == calls["jet"] == 2 * (res.n - 1) + 1

    def test_implicit_torus_direction_solves(self, monkeypatch):
        calls = {**TestEvaluationCounts.torus_calls(), "_implicit_eval": 0}
        surface = TestEvaluationCounts.counting_torus(calls)
        seed = find_seed(surface, EZ, math.pi / 3, (2.5, 0.0, 0.1))
        calls["level"] = calls["f"] = 0
        self.counted(monkeypatch, "_implicit_eval", calls)
        res = trace_isophote(surface, EZ, math.pi / 3, seed,
                             TraceConfig(step=1e-2, max_length=2.0))
        assert res.termination == "length reached"
        # RK4 stages 2-4 and the new sample each evaluate a new point, and
        # the projection reads f once per sample
        assert calls["_implicit_eval"] == calls["level"] == 4 * (res.n - 1) + 1
        assert calls["f"] == res.n

    def test_oblique_chart_torus_direction_solves(self, monkeypatch):
        calls = {"jet": 0, "_chart_eval": 0}
        base = darboux.torus(2.0, 0.5)

        def jet(u, v):
            calls["jet"] += 1
            return base._jet_fn(u, v)

        jet.columns = base._jet_fn.columns
        surface = ParametricSurface("counted torus", jet, base.u_range, base.v_range,
                                    periodic_u=True, periodic_v=True, jet3_fn=base.jet3)
        d, phi = (0.3, 0.2, 1.0), math.radians(60.0)
        seed = find_seed(surface, d, phi, (0.3, 1.0))
        calls["jet"] = 0
        self.counted(monkeypatch, "_chart_eval", calls)
        res = trace_isophote(surface, d, phi, seed, TraceConfig(step=1e-2, max_length=2.0))
        assert res.termination == "length reached"
        # off a latitude no two stage points share a key: RK4 stages 2-4 and
        # the new sample each evaluate a new point, one at the seed
        assert calls["_chart_eval"] == calls["jet"] == 4 * (res.n - 1) + 1


class TestDeferredSolveErrors:
    """An evaluation keeps the error of its field solve, raised where its
    slope is read: the seed's level is checked first, and a singular point
    is named at the state the field was asked at."""

    def test_off_level_singular_seed_raises_seed_error(self):
        # on the plane every point is singular, and <U, e_z> = 1 != cos 45
        with pytest.raises(SeedError, match="seed is not on the isophote level"):
            trace_isophote(darboux.plane(), EZ, math.pi / 4, (0.5, 0.25), TraceConfig())
        with pytest.raises(SeedError, match="seed is not on the isophote level"):
            trace_isophote(darboux.implicit_plane(), EZ, math.pi / 4, (0.5, 0.25, 0.0),
                           TraceConfig())

    @pytest.mark.parametrize("surface, seed, where", [
        (darboux.plane(), (0.5, 0.25), "(0.5, 0.25)"),
        # the seed state is wrapped into the cylinder's periodic u range first
        (darboux.cylinder(1.0), (7.0, 1.0), f"({7.0 - 2.0 * math.pi:g}, 1)"),
    ], ids=["plane", "cylinder-wrapped"])
    def test_on_level_singular_seed_names_its_state(self, surface, seed, where):
        phi = 0.0 if surface.name == "plane" else math.pi / 2
        with pytest.raises(SingularPointError) as err:
            trace_isophote(surface, EZ, phi, seed, TraceConfig())
        assert str(err.value) == ("singular point of the isophote field: no isophotic "
                                  f"curve with this axis/angle at (u, v)={where}")

    def test_on_level_singular_implicit_seed(self):
        with pytest.raises(SingularPointError) as err:
            trace_isophote(darboux.implicit_plane(), EZ, 0.0, (0.5, 0.25, 0.0),
                           TraceConfig())
        assert str(err.value) == ("singular isophote point at [0.5, 0.25, 0.0]: "
                                  "no isophotic curve with this axis/angle")

    @pytest.mark.parametrize("implicit", [False, True])
    def test_mid_trace_singular_point_keeps_the_samples(self, implicit):
        # an oblique axis: the field's norm varies along the isophote, and
        # a threshold inside its range stops the trace part way
        d = np.array([1.0, 0.0, 2.0]) / math.sqrt(5.0)
        if implicit:
            surface, guess, eps = darboux.implicit_torus(2.0, 0.5), (2.5, 0.0, 0.1), 32.0
        else:
            surface, guess, eps = darboux.ellipsoid(2.0, 1.0, 0.5), (0.3, 0.3), 2.0
        seed = find_seed(surface, d, math.pi / 3, guess)
        full = trace_isophote(surface, d, math.pi / 3, seed,
                              TraceConfig(step=1e-2, max_length=3.0))
        res = trace_isophote(surface, d, math.pi / 3, seed,
                             TraceConfig(step=1e-2, max_length=3.0, eps_sing=eps))
        assert res.termination == "singular point"
        assert 1 < res.n < full.n
        assert _hex(res.points) == _hex(full.points[:res.n])
        assert _hex(res.tangents) == _hex(full.tangents[:res.n])


class TestSurfaceRegularityThreshold:
    """A chart's own eps_reg decides where it is regular: points whose
    |sigma_u x sigma_v| lies between it and the default 1e-10 have a unit
    normal, a seed and a trace."""

    def test_unit_normal_below_the_default_threshold(self):
        sph = darboux.sphere(1e-4, eps_reg=1e-14)
        _, _, n = sph.chart_point(0.0, 1.565)
        assert 1e-14 < n < 1e-10
        U = sph.unit_normal(0.0, 1.565)
        np.testing.assert_allclose(U, [math.cos(1.565), 0.0, math.sin(1.565)], atol=1e-12)
        assert math.isclose(sph.first_form(0.0, 1.565).area_element, n, rel_tol=1e-9)
        # a bare jet carries no surface: the default threshold holds there
        with pytest.raises(RegularityError):
            unit_normal(sph.chart_jet(0.0, 1.565))

    def test_seed_and_trace_on_a_tiny_sphere(self):
        # every point has |w| = 1e-12 cos(v), below the default threshold
        sph = darboux.sphere(1e-6, eps_reg=1e-20)
        seed = find_seed(sph, EZ, math.pi / 4, (0.0, 0.7))
        assert abs(seed[1] - math.pi / 4) <= 1e-9
        res = trace_isophote(sph, EZ, math.pi / 4, seed,
                             TraceConfig(step=1e-8, max_length=2e-7))
        assert res.termination == "length reached"
        assert res.n == 21
        assert np.abs(res.angle_dot - math.cos(math.pi / 4)).max() <= 1e-12
        assert np.abs(res.unit_speed_residual).max() <= 1e-12

    @pytest.mark.parametrize("implicit", [False, True])
    def test_mid_trace_regularity_error_keeps_the_samples(self, implicit):
        # eps_reg lies between |w| (|grad f|) at the seed, 0.566 (19.99),
        # and its minimum along the trace, 0.501 (19.68): the stage kernel
        # raises the surface's own RegularityError part way
        d = np.array([1.0, 0.0, 2.0]) / math.sqrt(5.0)
        if implicit:
            make, guess, eps = (lambda e: darboux.implicit_torus(2.0, 0.5, eps_reg=e),
                                (2.5, 0.0, 0.1), 19.8)
            message = "error: implicit_torus(R=2,r=0.5): |grad f| <= 19.8 at ("
        else:
            make, guess, eps = (lambda e: darboux.ellipsoid(2.0, 1.0, 0.5, eps_reg=e),
                                (0.3, 0.3), 0.53)
            message = "error: ellipsoid(a=2,b=1,c=0.5): |sigma_u x sigma_v| <= 0.53 at (u, v)=("
        config = TraceConfig(step=1e-2, max_length=3.0)
        seed = find_seed(make(1e-10), d, math.pi / 3, guess)
        full = trace_isophote(make(1e-10), d, math.pi / 3, seed, config)
        res = trace_isophote(make(eps), d, math.pi / 3, seed, config)
        assert res.termination.startswith(message)
        assert 1 < res.n < full.n
        assert _hex(res.points) == _hex(full.points[:res.n])
        assert _hex(res.tangents) == _hex(full.tangents[:res.n])

    def test_darboux_frame_on_a_tiny_sphere(self):
        r, v0 = 1e-6, math.pi / 4
        path = constant_speed_path(0.0, v0, 1.0 / (r * math.cos(v0)), 0.0, (0.0, 1e-7))
        frame = darboux_frame(CurveOnSurface(darboux.sphere(r, eps_reg=1e-20), chart_path=path), 0.0)
        np.testing.assert_allclose(frame.U, [math.cos(v0), 0.0, math.sin(v0)], atol=1e-12)


class TestProjectIsophoteActs:
    """At step 0.1 the RK4 drift off the level is large enough for the
    two-constraint Newton step to move the points."""

    def run(self, flag):
        itor = darboux.implicit_torus(2.0, 0.5)
        seed = find_seed(itor, EZ, math.pi / 3, (2.5, 0.0, 0.1))
        cfg = TraceConfig(step=0.1, max_length=2.0, project_isophote=flag)
        return trace_isophote(itor, EZ, math.pi / 3, seed, cfg)

    def test_level_holds_with_the_flag_only(self):
        plain, projected = self.run(False), self.run(True)
        assert plain.n == projected.n == 21
        assert np.abs(plain.angle_dot - 0.5).max() > 1e-12
        assert np.abs(projected.angle_dot - 0.5).max() <= 1e-12
        assert projected.surface_residual.max() <= 1e-12


# what the failing sphere's jet raises, and the termination it gives
MID_TRACE_ERRORS = [
    (DarbouxError("no jet past u = 0.5"), "error: no jet past u = 0.5"),
    (ZeroDivisionError("float division by zero"),
     "error: float arithmetic failed: float division by zero"),
]


class TestMidTraceTerminations:
    """A trace that fails after its first sample keeps its samples and
    names the failure in ``termination``."""

    def test_singular_point(self):
        ell = darboux.ellipsoid(2.0, 1.0, 0.5)
        d = np.array([1.0, 0.0, 1.0]) / SQRT2
        seed = find_seed(ell, d, math.pi / 3, (0.3, 0.3))
        # along this closed isophote max(|g_u|, |g_v|) falls from 2.74 at the
        # seed to 0.43, below eps_sing
        res = trace_isophote(ell, d, math.pi / 3, seed,
                             TraceConfig(step=1e-2, eps_sing=1.59))
        assert res.termination == "singular point"
        assert res.n == 115
        assert np.abs(res.angle_dot - 0.5).max() <= 1e-6

    @staticmethod
    def failing_sphere(exc):
        """The unit sphere with a jet function that raises ``exc`` past u = 0.5."""
        base = darboux.sphere(1.0)

        def jet(u, v):
            if u > 0.5:
                raise exc
            j = base.chart_jet(u, v)
            return j.sigma, j.sigma_u, j.sigma_v, j.sigma_uu, j.sigma_uv, j.sigma_vv

        return ParametricSurface("failing sphere", jet, base.u_range, base.v_range,
                                 periodic_u=True, jet3_fn=base.jet3)

    @pytest.mark.parametrize("exc, termination", MID_TRACE_ERRORS)
    def test_error_keeps_the_samples_before_it(self, exc, termination):
        # the minus branch runs along the latitude towards increasing u
        res = trace_isophote(self.failing_sphere(exc), EZ, math.pi / 4, (0.0, math.pi / 4),
                             TraceConfig(step=1e-2, max_length=4.5, branch="minus"))
        assert res.termination == termination
        assert res.n == 36
        u = res.chart[:, 0]
        assert np.all(np.diff(u) > 0.0) and u[-1] <= 0.5
        full = trace_isophote(darboux.sphere(1.0), EZ, math.pi / 4, (0.0, math.pi / 4),
                              TraceConfig(step=1e-2, max_length=4.5, branch="minus"))
        assert _hex(res.points) == _hex(full.points[:res.n])


def _sheared_sphere(u0, lam=1e9, v0=math.inf):
    """The unit sphere whose jet, past u = u0 or v = v0, is the jet of the
    sheared chart sigma(u + lam v, v) at the same point: sigma_v + lam
    sigma_u is nearly parallel to sigma_u, so E G - F^2 (about lam^2 E^2)
    rounds to either sign while |sigma_u x sigma_v| stays near its value on
    the sphere, far above eps_reg."""
    base = darboux.sphere(1.0)

    def jet(u, v):
        s, su, sv, suu, suv, svv = base._jet_fn(u, v)
        if u > u0 or v > v0:
            sv = tuple(b + lam * a for a, b in zip(su, sv))
            svv = tuple(c + 2.0 * lam * b + lam * lam * a for a, b, c in zip(suu, suv, svv))
            suv = tuple(b + lam * a for a, b in zip(suu, suv))
        return s, su, sv, suu, suv, svv

    return ParametricSurface("sheared sphere", jet, base.u_range, base.v_range,
                             periodic_u=True, jet3_fn=base.jet3)


class TestNegativeFirstFormDeterminant:
    """Where E G - F^2 rounds below 0, the sample's sqrt(E G - F^2) (in
    Delta) raises math's ValueError: the trace ends before that sample, or
    raises at the seed."""

    def test_mid_trace_sample_ends_the_trace(self):
        # the minus branch runs along the latitude towards increasing u
        res = trace_isophote(_sheared_sphere(0.5), EZ, math.pi / 4, (0.0, math.pi / 4),
                             TraceConfig(step=1e-2, max_length=1.5, branch="minus"))
        assert res.termination == "error: float arithmetic failed: math domain error"
        assert res.n == 38
        full = trace_isophote(darboux.sphere(1.0), EZ, math.pi / 4, (0.0, math.pi / 4),
                              TraceConfig(step=1e-2, max_length=1.5, branch="minus"))
        assert _hex(res.points[:36]) == _hex(full.points[:36])

    def test_seed_sample_raises(self):
        # the sheared jet's |<U, d> - cos(phi)| is 2.6e-9 at this seed
        with pytest.raises(NumericalError, match="float arithmetic failed: math domain error"):
            trace_isophote(_sheared_sphere(-10.0), EZ, math.pi / 4, (0.04, math.pi / 4),
                           TraceConfig(step=1e-2, max_length=0.1, seed_tol=1e-6))


TRACE_COLUMNS = ("s", "points", "tangents", "normals", "angle_dot", "constraint_residual",
                 "unit_speed_residual", "kn", "tg", "kg", "chart")


class TestSweep:
    """_sweep traces its angles one after another and computes the
    diagnostics of all their samples in one column pass: each angle's
    result is its own trace_isophote's, bit for bit."""

    def test_each_angle_ends_or_fails_as_its_own_trace(self):
        # past u = 0.5 or v = 1.1 E G - F^2 rounds to either sign: the
        # 40-degree trace ends at a mid-trace lane, the 25-degree seed lane
        # raises, and the sweep returns the angles before it
        surface = _sheared_sphere(0.5, v0=1.1)
        config = TraceConfig(step=1e-2, max_length=0.4, branch="minus", seed_tol=1e-6)
        guess, degrees = (0.0, 0.5), (55, 40, 60, 25, 75)
        results, error = trace_module._sweep(surface, EZ, [math.radians(a) for a in degrees],
                                             guess, config, snap=True)
        assert type(error) is NumericalError
        assert str(error) == "float arithmetic failed: math domain error"
        assert [res.n for res in results] == [41, 33, 41]
        assert results[1].termination == "error: float arithmetic failed: math domain error"
        for res, a in zip(results, degrees):
            phi = math.radians(a)
            single = trace_isophote(surface, EZ, phi, snap_seed(surface, EZ, phi, guess, config),
                                    config)
            assert (res.termination, res.phi) == (single.termination, single.phi)
            for name in TRACE_COLUMNS:
                assert _hex(getattr(res, name)) == _hex(getattr(single, name)), name
        phi = math.radians(25)
        with pytest.raises(NumericalError, match="^float arithmetic failed: math domain error$"):
            trace_isophote(surface, EZ, phi, snap_seed(surface, EZ, phi, guess, config), config)

    def test_snap_failure_stops_the_sweep(self):
        # the plane has no level near any guess: nothing is traced
        results, error = trace_module._sweep(darboux.plane(), EZ, [0.5, 0.6], (0.0, 0.0),
                                             TraceConfig(), snap=True)
        assert results == []
        assert type(error) is SeedError

    def test_seed_line_is_scanned_once(self, monkeypatch):
        # the angles' seed searches share the guess's coordinate-line values:
        # each line point is read once, the bisections stay per angle
        calls = []
        angle_value = trace_module._angle_value_parametric

        def counted(*args):
            calls.append(args)
            return angle_value(*args)

        monkeypatch.setattr(trace_module, "_angle_value_parametric", counted)
        sphere, config = darboux.sphere(1.0), TraceConfig(step=1e-2, max_length=0.05)
        grid = set(np.linspace(*sphere.v_range, 257).tolist())
        phis = [math.radians(a) for a in (30.0, 34.0, 38.0, 42.0)]
        seeds = [snap_seed(sphere, EZ, phi, (0.0, 0.785398), config) for phi in phis]
        separate = [args[3] for args in calls]
        calls.clear()
        results, error = trace_module._sweep(sphere, EZ, phis, (0.0, 0.785398), config,
                                             snap=True)
        assert error is None
        assert [tuple(res.chart[0]) for res in results] == seeds
        shared = [args[3] for args in calls]
        # every search reads the guess and bisects; the shared scan reads
        # each grid point of the v-line once
        on_grid = [t for t in shared if t in grid]
        assert len(on_grid) == len(set(on_grid)) == len({t for t in separate if t in grid})
        assert [t for t in shared if t not in grid] == [t for t in separate if t not in grid]
        assert (len(separate), len(shared)) == (130, 68)


def _scaled_torus_trace(scale):
    """(surface, d, phi, seed, config) of a closing oblique isophote on the
    implicit torus scaled by ``scale``: the seed is the torus point at
    (u, v) = (0.3, 0.7) and phi its own angle, so the seed needs no search
    (find_seed projects to an absolute 1e-12)."""
    R, r, u0, v0 = 2.0 * scale, 0.5 * scale, 0.3, 0.7
    rho = R + r * math.cos(v0)
    seed = (rho * math.cos(u0), rho * math.sin(u0), r * math.sin(v0))
    U = (math.cos(v0) * math.cos(u0), math.cos(v0) * math.sin(u0), math.sin(v0))
    d = np.array([1.0, 0.0, 0.2]) / math.sqrt(1.04)
    phi = math.acos(dot3(U, d.tolist()))
    config = TraceConfig(step=0.02 * scale, max_length=10.0 * scale, eps_sing=1e-300,
                         projection_tol=1e-12 * scale**4)
    return darboux.implicit_torus(R, r, eps_reg=1e-300), d, phi, seed, config


class TestNoNumpyWarnings:
    """The implicit diagnostics are numpy columns, and numpy warns on an
    overflow or an invalid operation where Python float arithmetic is
    silent: no trace warns, and a CLI run that exits 0 writes nothing to
    stderr."""

    def test_mid_trace_terminations(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            TestMidTraceTerminations().test_singular_point()
            for exc, termination in MID_TRACE_ERRORS:
                TestMidTraceTerminations().test_error_keeps_the_samples_before_it(
                    exc, termination)

    @pytest.mark.parametrize("scale", [1e30, 1e-30])
    def test_scaled_implicit_torus(self, scale):
        surface, d, phi, seed, config = _scaled_torus_trace(scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = trace_isophote(surface, d, phi, snap_seed(surface, d, phi, seed, config),
                                 config)
        assert res.termination == "closed"
        assert np.abs(res.angle_dot - math.cos(phi)).max() <= 1e-6
        assert np.all(np.isfinite(res.kn)) and np.all(np.isfinite(res.tg))

    def test_cli_exit_0_writes_no_stderr(self, tmp_path):
        _, d, phi, seed, _ = _scaled_torus_trace(1e30)
        argv = ["trace-implicit", "--surface", "builtin:torus?R=2e30&r=5e29",
                "--axis", ",".join(map(repr, d.tolist())), "--angle", repr(math.degrees(phi)),
                "--seed", ",".join(map(repr, seed)), "--step", "2e28", "--length", "1e31",
                "--project-tol", "1e108", "--format", "json"]
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            assert main(argv + ["--out", str(tmp_path / "torus.json")]) == 0
        assert err.getvalue() == ""
        assert '"termination": "closed"' in (tmp_path / "torus.json").read_text()


# The torus (R, r) = (2, 0.5) as chart text, and its image under a rotation
TORUS_XYZ = ("(2+0.5*cos(v))*cos(u)", "(2+0.5*cos(v))*sin(u)", "0.5*sin(v)")
_PERIODIC = "u=-3.141592653589793,3.141592653589793;v=-3.141592653589793,3.141592653589793"


def _rotated_torus(R):
    """The param: torus whose chart is R sigma, written out as text."""
    rows = [" + ".join(f"({a!r})*({c})" for a, c in zip(row, TORUS_XYZ)) for row in R.tolist()]
    return parse_surface_spec(f"param:x={rows[0]};y={rows[1]};z={rows[2]};{_PERIODIC};periodic=uv")


TORUS_F = "(X*X+Y*Y+Z*Z+3.75)^2-16*(X^2+Y^2)"   # implicit_torus(2, 0.5) in X, Y, Z


def _rotated_implicit_torus(R):
    """The implicit: torus f(R^T p), the entries of R^T p written out as text."""
    f = TORUS_F
    for name, column in zip("XYZ", R.T.tolist()):
        f = f.replace(name, "(" + " + ".join(f"({a!r})*{x}" for a, x in zip(column, "xyz")) + ")")
    return parse_surface_spec(f"implicit:f={f}", implicit=True)


def _rotation(a, b, c):
    """R_z(a) R_y(b) R_z(c)."""
    def rz(t):
        return np.array([[math.cos(t), -math.sin(t), 0.0], [math.sin(t), math.cos(t), 0.0],
                         [0.0, 0.0, 1.0]])
    ry = np.array([[math.cos(b), 0.0, math.sin(b)], [0.0, 1.0, 0.0],
                   [-math.sin(b), 0.0, math.cos(b)]])
    return rz(a) @ ry @ rz(c)


_EULER = st.tuples(*[st.floats(-math.pi, math.pi)] * 3)


class TestRigidMotionInvariance:
    """Rotating the surface and the axis rotates the trace and the report's
    axes and leaves the Darboux scalars and the verdicts as they are, up to
    the rounding of the rotated chart's arithmetic (1e-9)."""

    D = np.array([1.0, 0.0, 0.2]) / math.sqrt(1.04)

    @settings(max_examples=8, deadline=None)
    @given(euler=_EULER)
    def test_trace_rotates_with_the_surface(self, euler):
        R = _rotation(*euler)
        torus = parse_surface_spec(f"param:x={TORUS_XYZ[0]};y={TORUS_XYZ[1]};z={TORUS_XYZ[2]};"
                                   f"{_PERIODIC};periodic=uv")
        phi = math.radians(50.0)
        seed = find_seed(torus, self.D, phi, (0.0, 0.5))
        config = TraceConfig(step=1e-2, max_length=3.0)
        res = trace_isophote(torus, self.D, phi, seed, config)
        moved = trace_isophote(_rotated_torus(R), R @ self.D, phi, seed, config)
        assert (moved.termination, moved.n) == (res.termination, res.n)
        np.testing.assert_allclose(moved.points, res.points @ R.T, rtol=0, atol=1e-9)
        for name in ("kn", "tg", "kg", "angle_dot"):
            np.testing.assert_allclose(getattr(moved, name), getattr(res, name),
                                       rtol=0, atol=1e-9, err_msg=name)

    @settings(max_examples=8, deadline=None)
    @given(euler=_EULER)
    def test_implicit_trace_rotates_with_the_surface(self, euler):
        R = _rotation(*euler)
        torus = parse_surface_spec("implicit:f=" + TORUS_F.replace("X", "x").replace("Y", "y")
                                   .replace("Z", "z"), implicit=True)
        phi = math.radians(50.0)
        seed = find_seed(torus, self.D, phi, (2.5, 0.0, 0.1))
        config = TraceConfig(step=1e-2, max_length=3.0)
        res = trace_isophote(torus, self.D, phi, seed, config)
        moved = trace_isophote(_rotated_implicit_torus(R), R @ self.D, phi, R @ seed, config)
        assert (moved.termination, moved.n) == (res.termination, res.n) == ("length reached", 301)
        np.testing.assert_allclose(moved.points, res.points @ R.T, rtol=0, atol=1e-9)
        for name in ("kn", "tg", "kg", "angle_dot"):
            np.testing.assert_allclose(getattr(moved, name), getattr(res, name),
                                       rtol=0, atol=1e-9, err_msg=name)

    @pytest.mark.parametrize("v_src", ["0.7", "0.7+0.3*sin(2*s)"])
    @settings(max_examples=4, deadline=None)
    @given(euler=_EULER)
    def test_report_rotates_with_the_surface(self, v_src, euler):
        # v = 0.7 is a latitude, isophotic for the torus axis e_z
        R = _rotation(*euler)
        path = ChartPath.from_expressions("s", v_src, (0.0, 3.0))
        reports = [classify_report(unit_speed_chart_curve(surface, path), np.linspace(0, 3, 64))
                   for surface in (_rotated_torus(np.eye(3)), _rotated_torus(R))]
        for name, verdict in reports[0].verdicts.items():
            moved = reports[1].verdicts[name]
            if isinstance(verdict, dict) and "mean" in verdict:
                assert moved["is_constant"] == verdict["is_constant"], name
                assert moved["mean"] == pytest.approx(verdict["mean"], abs=1e-9), name
        assert {k: f["value"] for k, f in reports[1].flags.items()} == {
            k: f["value"] for k, f in reports[0].flags.items()}
        assert reports[0].verdicts["isophotic"]["is_constant"] == (v_src == "0.7")
        for name in ("U_axis", "V_axis"):
            d0, d1 = (np.array(report.axes[name]["d"]) for report in reports)
            np.testing.assert_allclose(d1, R @ d0, rtol=0, atol=1e-9, err_msg=name)
