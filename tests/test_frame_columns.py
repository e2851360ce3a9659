"""The column pass of sample_frames: every FrameData column has the bits
of the per-point functions and float kernels at each s, and its mask rule
raises the error a point-by-point pass meets first."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import darboux
from darboux.cli import main
from darboux.errors import DarbouxError, NumericalError, OutOfDomainError, RegularityError
from darboux.frames import (
    ArclengthMap,
    ChartPath,
    CurveOnSurface,
    ParamCurve,
    UnitSpeedCurve,
    _chart_chain,
    _triple,
    darboux as darboux_frame,
    frenet,
    resample_unit_speed,
    sample_frames,
    uniform_grid,
    unit_speed_chart_curve,
)
from darboux.surface import (
    ImplicitSurface,
    ParametricSurface,
    _matvec,
    _unit_second_derivative,
    dot3,
    implicit_from_expression,
    norm3,
    parse_surface_spec,
)

EPS_KAPPA = 1e-9
COEF = st.floats(0.1, 1.0).map(lambda x: round(x, 6))
GRID_SIZES = st.sampled_from([2, 5, 20, 200])


def _without_columns(fn):
    """fn as a Python function: no columns, so a grid reads it lane by lane."""
    return lambda *args: fn(*args)


def _declining(fn, limit):
    """fn, with columns that decline on a batch holding a lane whose first
    variable exceeds limit."""

    def wrapped(*args):
        return fn(*args)

    wrapped.columns = lambda x, *rest: None if (x > limit).any() else fn.columns(x, *rest)
    return wrapped


def _chart_with(surface, wrap):
    """surface with its jet and third-partial functions passed through wrap."""
    return ParametricSurface(surface.name, wrap(surface._jet_fn), surface.u_range,
                             surface.v_range, surface.periodic_u, surface.periodic_v,
                             jet3_fn=wrap(surface._jet3_fn))


def _level_with(surface, wrap):
    """surface with its f, level and third-partial functions passed through wrap."""
    return ImplicitSurface(surface.name, wrap(surface._f), wrap(surface._level),
                           third=wrap(surface._third))


PARAM_SURFACE = "param:x=u;y=v;z=0.3*u*u-0.2*v*v+0.1*u*v;u=-3,3;v=-3,3"


def _polyline_helix(a, b):
    """The unit-speed helix (cos(w s), sin(w s), c s) on the implicit unit
    cylinder, w : c = a : b, as a 301-sample polyline over s in [0, 3]."""
    w, c = a / math.hypot(a, b), b / math.hypot(a, b)
    s = np.linspace(0.0, 3.0, 301)
    points = np.column_stack([np.cos(w * s), np.sin(w * s), c * s])
    return CurveOnSurface(darboux.implicit_cylinder(1.0),
                          space_curve=UnitSpeedCurve.from_polyline(points, 3.0))


# Oblique chart paths (k_g and tau_g both nonzero along them) and space
# curves on implicit surfaces, each drawn from two coefficients in [0.1, 1].
CURVES = {
    "torus": lambda a, b: unit_speed_chart_curve(
        darboux.torus(2.0, 0.5),
        ChartPath.from_expressions("s", f"{3 * a!r}*s+{b!r}*sin(s)", (0.0, 3.0))),
    "ellipsoid": lambda a, b: unit_speed_chart_curve(
        darboux.ellipsoid(),
        ChartPath.from_expressions("s", f"{b!r}*sin({2 * a!r}*s)", (0.0, 3.0))),
    "helicoid": lambda a, b: unit_speed_chart_curve(
        darboux.helicoid(1.0),
        ChartPath.from_expressions(f"{a!r}*s", f"0.5+{b!r}*s", (0.0, 3.0))),
    "param surface": lambda a, b: unit_speed_chart_curve(
        parse_surface_spec(PARAM_SURFACE),
        ChartPath.from_expressions(f"{0.7 * a!r}*s", f"{b!r}*sin(2*s)", (0.0, 4.0))),
    # u^3 is math.pow lane by lane on the columns
    "monkey saddle": lambda a, b: unit_speed_chart_curve(
        darboux.monkey_saddle(),
        ChartPath.from_expressions(f"{a!r}*s-0.5", f"{b!r}*sin(s)-0.3", (0.0, 1.5))),
    # exp and tan are math's lane by lane on the columns
    "param exp tan": lambda a, b: unit_speed_chart_curve(
        parse_surface_spec("param:x=u;y=v;z=0.3*exp(0.5*u)*tan(0.4*v);u=-3,3;v=-2,2"),
        ChartPath.from_expressions(f"{a!r}*s-1", f"{b!r}*cos(s)", (0.0, 3.0))),
    "jet_fn without columns": lambda a, b: unit_speed_chart_curve(
        _chart_with(darboux.torus(2.0, 0.5), _without_columns),
        ChartPath.from_expressions("s", f"{3 * a!r}*s+{b!r}*sin(s)", (0.0, 3.0))),
    # u reaches 4a - 1: the chart's columns decline where a > 0.5
    "chart columns declining": lambda a, b: unit_speed_chart_curve(
        _chart_with(parse_surface_spec(PARAM_SURFACE), lambda fn: _declining(fn, 1.0)),
        ChartPath.from_expressions(f"{2 * a!r}*s-1", f"{b!r}*sin(2*s)", (0.0, 2.0))),
    "torus knot": lambda a, b: CurveOnSurface(
        darboux.implicit_torus(2.0, 0.5),
        space_curve=resample_unit_speed(ParamCurve.from_expressions(
            f"(2+0.5*cos(2*s+{a!r}))*cos(s)", f"(2+0.5*cos(2*s+{a!r}))*sin(s)",
            f"0.5*sin(2*s+{a!r})", (0.0, 1.0 + 2.0 * b)))),
    "cylinder helix": lambda a, b: CurveOnSurface(
        darboux.implicit_cylinder(1.0),
        space_curve=resample_unit_speed(ParamCurve.from_expressions(
            f"cos({a!r}*s)", f"sin({a!r}*s)", f"{b!r}*s", (0.0, 3.0)))),
    # a tilted circle on the ellipsoid (x/2)^2 + y^2 + (2z)^2 = 1
    "ellipsoid with ^": lambda a, b: CurveOnSurface(
        implicit_from_expression("(0.5*x)^2+y^2+(2*z)^2-1"),
        space_curve=resample_unit_speed(ParamCurve.from_expressions(
            f"2*cos(s)*cos({a!r})", "sin(s)", f"0.5*cos(s)*sin({a!r})", (0.0, 1.0 + 3.0 * b)))),
    # x starts at (2 + 0.5 cos(2a + b)) cos(a): the level functions'
    # columns decline where it exceeds 2 (a small a)
    "level columns declining": lambda a, b: CurveOnSurface(
        _level_with(darboux.implicit_torus(2.0, 0.5), lambda fn: _declining(fn, 2.0)),
        space_curve=resample_unit_speed(ParamCurve.from_expressions(
            f"(2+0.5*cos(2*s+{b!r}))*cos(s)", f"(2+0.5*cos(2*s+{b!r}))*sin(s)",
            f"0.5*sin(2*s+{b!r})", (a, 3.0)))),
    # from_polyline's Hermite interpolants give their columns
    "polyline helix": _polyline_helix,
}


def _reference(c, s):
    """sample_frames' values at s from darboux(), gamma_jet() and the float
    kernels, one point at a time."""
    g, d1, d2, d3 = (x.tolist() for x in c.gamma_jet(s))
    fr = darboux_frame(c, s)
    V, U = fr.V.tolist(), fr.U.tolist()
    kg, kn, tg = fr.kg, fr.kn, fr.tg
    kap2 = kg**2 + kn**2
    row = {"gamma": g, "T": fr.T.tolist(), "V": V, "U": U, "kg": kg, "kn": kn, "tg": tg,
           "dkg": dot3(d3, V) + tg * kn, "dkn": dot3(d3, U) - tg * kg,
           "tau": _triple(d1, d2, d3) / kap2 if kap2 > EPS_KAPPA**2 else math.nan,
           "accel": norm3(d2), "kappa": np.hypot(kg, kn)}
    if c.kind == "parametric":
        (u, v), *d = c.path.jet(s)
        U_1 = tuple(x.tolist() for x in c.surface.normal_derivatives(u, v))
        U_2 = tuple(x.tolist() for x in c.surface.normal_second_derivatives(u, v))
        U2 = _chart_chain(d, (U_1, U_2))[1]
    else:
        # U = w/|w| along gamma, w = grad f: w' = H gamma' and
        # w'' = d_k H gamma'_k gamma' + H gamma''
        grad, n, H = c.surface.level_point(tuple(g))
        w1 = _matvec(H, d1)
        w2 = [dot3(_matvec(T_i, d1), d1) + h
              for T_i, h in zip(c.surface._third(*g), _matvec(H, d2))]
        U2 = _unit_second_derivative(grad, n, n**2, n**3, w1, w1, w2)
    row["dtg"] = -dot3(U2, V) - kn * kg
    return row


def _assert_same(column, values, name):
    """Equal bits lane by lane, nan in the same places."""
    a, b = np.asarray(column, dtype=float), np.asarray(values, dtype=float)
    assert a.shape == b.shape, name
    nan = np.isnan(a)
    assert (nan == np.isnan(b)).all(), name
    assert a[~nan].tobytes() == b[~nan].tobytes(), name


class TestColumnBits:
    @pytest.mark.parametrize("name", sorted(CURVES))
    @settings(max_examples=6, deadline=None)
    @given(a=COEF, b=COEF, n=GRID_SIZES)
    def test_columns_match_the_per_point_values(self, name, a, b, n):
        c = CURVES[name](a, b)
        grid = uniform_grid(*c.s_range, n)
        data = sample_frames(c, grid)
        rows = [_reference(c, s) for s in grid.tolist()]
        for key in rows[0]:
            _assert_same(getattr(data, key), [row[key] for row in rows], key)


@pytest.fixture
def lane_calls(monkeypatch):
    """(fn, lanes) for each surface._lanes call, one entry per function a
    grid reads lane by lane on its Python floats."""
    calls = []
    lanes = darboux.surface._lanes

    def counted(fn, columns):
        calls.append((fn, len(columns[0])))
        return lanes(fn, columns)

    monkeypatch.setattr(darboux.surface, "_lanes", counted)
    return calls


def _assert_reads(lane_calls, grid_reads, speed_fn=None):
    """lane_calls are the arclength speed's reads of speed_fn, if given (13
    lanes, the Gauss-Legendre points and the Newton point, per lane a Newton
    step moves), then grid_reads."""
    k = len(lane_calls) - len(grid_reads)
    assert lane_calls[k:] == grid_reads
    speed = lane_calls[:k]
    assert all(fn is speed_fn and n % 13 == 0 for fn, n in speed)
    assert bool(speed) == (speed_fn is not None)


def _sphere_latitude():
    """The latitude circle at 0.3 rad on the implicit unit sphere."""
    return CurveOnSurface(darboux.implicit_sphere(1.0), space_curve=resample_unit_speed(
        ParamCurve.from_expressions("cos(s)*cos(0.3)", "sin(s)*cos(0.3)", "sin(0.3)",
                                    (0.0, 2 * math.pi))))


def _sphere_latitude_polyline():
    """The same latitude circle as a 2001-sample polyline."""
    s = np.linspace(0.0, 2 * math.pi * math.cos(0.3), 2001)
    t = s / math.cos(0.3)
    points = np.column_stack([np.cos(t) * math.cos(0.3), np.sin(t) * math.cos(0.3),
                              np.full(len(s), math.sin(0.3))])
    return CurveOnSurface(darboux.implicit_sphere(1.0),
                          space_curve=UnitSpeedCurve.from_polyline(points, s[-1]))


def _assert_same_frames(data, expected):
    for key in ("gamma", "T", "V", "U", "kg", "kn", "tg", "dkg", "dkn", "dtg", "tau", "accel"):
        _assert_same(getattr(data, key), getattr(expected, key), key)


class TestColumnPath:
    """Which path reads a grid's samples: the compiled columns, or _lanes
    lane by lane for a function that has none or whose columns decline."""

    @pytest.mark.parametrize("make", [lambda: CURVES["torus"](0.5, 0.5), _sphere_latitude,
                                      _sphere_latitude_polyline],
                             ids=["catalog chart path", "sphere latitude", "latitude polyline"])
    def test_compiled_functions_evaluate_no_lane(self, make, lane_calls):
        c = make()
        lane_calls.clear()
        sample_frames(c, uniform_grid(*c.s_range, 200))
        assert lane_calls == []

    def test_jet_fn_without_columns_evaluates_every_lane(self, lane_calls):
        c = CURVES["jet_fn without columns"](0.5, 0.5)
        lane_calls.clear()
        sample_frames(c, uniform_grid(*c.s_range, 200))
        surface = c.surface
        _assert_reads(lane_calls, [(surface._jet_fn, 200), (surface._jet3_fn, 200)],
                      surface._jet_fn)

    def test_declining_chart_columns_evaluate_every_lane(self, lane_calls):
        c = CURVES["chart columns declining"](0.8, 0.5)
        grid = uniform_grid(*c.s_range, 50)
        lane_calls.clear()
        data = sample_frames(c, grid)
        surface = c.surface
        _assert_reads(lane_calls, [(surface._jet_fn, 50), (surface._jet3_fn, 50)],
                      surface._jet_fn)
        compiled = unit_speed_chart_curve(parse_surface_spec(PARAM_SURFACE), c.path.raw)
        lane_calls.clear()
        _assert_same_frames(data, sample_frames(compiled, grid))
        assert lane_calls == []

    def test_declining_space_curve_columns(self, lane_calls):
        # the curve functions decline past s = 2 and the level functions
        # where x > 0.5: each falls back on its own
        raw = ParamCurve.from_expressions("cos(s)*cos(0.3)", "sin(s)*cos(0.3)", "sin(0.3)",
                                          (0.0, 3.0))
        declining = ParamCurve(*(_declining(fn, 2.0) for fn in (raw.c, raw.c1, raw.c2, raw.c3)),
                               raw.t_range)
        sphere = darboux.implicit_sphere(1.0)
        level = _level_with(sphere, lambda fn: _declining(fn, 0.5))
        compiled = CurveOnSurface(sphere, space_curve=resample_unit_speed(raw))
        grid = uniform_grid(*compiled.s_range, 40)
        expected = sample_frames(compiled, grid)
        for curve, surface in [(declining, sphere), (raw, level), (declining, level)]:
            c = CurveOnSurface(surface, space_curve=resample_unit_speed(curve))
            lane_calls.clear()
            _assert_same_frames(sample_frames(c, grid), expected)
            reads = []
            if curve is declining:
                reads += [(fn, 40) for fn in (curve.c, curve.c1, curve.c2, curve.c3)]
            if surface is level:
                reads += [(fn, 40) for fn in (level._f, level._level, level._third)]
            _assert_reads(lane_calls, reads, declining.c1 if curve is declining else None)

    @pytest.mark.parametrize("name,lanes", [("torus", []), ("torus knot", [])])
    def test_flagged_inversion_evaluates_lanes_again_on_floats(self, name, lanes, monkeypatch,
                                                               lane_calls):
        # a batched inversion that raises flags every lane: no function is
        # read on the grid, and each lane is sampled again on its own
        c = CURVES[name](0.5, 0.5)
        grid = uniform_grid(*c.s_range, 20)
        expected = sample_frames(c, grid)
        t_of_s_many = ArclengthMap.t_of_s_many

        def one_lane_only(amap, s):
            if len(s) > 1:
                raise DarbouxError("batched inversion failed")
            return t_of_s_many(amap, s)

        monkeypatch.setattr(ArclengthMap, "t_of_s_many", one_lane_only)
        lane_calls.clear()
        _assert_same_frames(sample_frames(c, grid), expected)
        assert lane_calls == lanes

    def test_lane_outside_a_non_periodic_range(self, lane_calls):
        # the unit-speed plane line u = s + 19 leaves u <= 20 from s = 1 on:
        # those lanes join the mask, and the first one raises on floats
        c = CurveOnSurface(darboux.plane(),
                           chart_path=ChartPath.from_expressions("s+19", "0.5", (0.0, 2.0)))
        grid = uniform_grid(0.0, 2.0, 21)
        with pytest.raises(OutOfDomainError) as excinfo:
            sample_frames(c, grid)
        assert str(excinfo.value) == "plane: parameter u=20.1 outside [-20, 20]"
        assert str(excinfo.value) == _point_by_point_error(c, grid)
        assert lane_calls == []

    def test_python_callable_path_reads_only_its_own_lanes(self, lane_calls):
        # the path's functions have no columns; the compiled cylinder reads
        # the path's lanes in one pass of its own columns
        path = ChartPath.from_expressions("s", "0.5*s+0.2*sin(s)", (0.0, 3.0))
        callable_path = ChartPath(_without_columns(path.jet), path.s_range,
                                  _without_columns(path.first_order))
        surface = darboux.cylinder(1.0)
        c = unit_speed_chart_curve(surface, callable_path)
        grid = uniform_grid(*c.s_range, 200)
        lane_calls.clear()
        data = sample_frames(c, grid)
        _assert_reads(lane_calls, [(callable_path.jet, 200)], callable_path.first_order)
        _assert_same_frames(data, sample_frames(unit_speed_chart_curve(surface, path), grid))

    def test_nan_lane_of_a_python_callable_path(self, lane_calls, monkeypatch):
        # the third derivatives of the unit-speed cylinder path (0.6 s, 0.8 s)
        # read nan at s = 1: k_g' and k_n' are not finite on that lane alone,
        # which is evaluated again on floats and written back
        grid = uniform_grid(0.0, 2.0, 21)
        nan_s = grid[10]
        path = ChartPath(lambda s: ((0.6 * s, 0.8 * s), (0.6, 0.8), (0.0, 0.0),
                                    (math.nan if s == nan_s else 0.0, 0.0)), (0.0, 2.0))
        c = CurveOnSurface(darboux.cylinder(1.0), chart_path=path)
        rows = [_reference(c, s) for s in grid.tolist()]
        rerun = []
        sample = CurveOnSurface._sample
        monkeypatch.setattr(CurveOnSurface, "_sample",
                            lambda self, s: rerun.append(s) or sample(self, s))
        lane_calls.clear()
        data = sample_frames(c, grid)
        assert lane_calls == [(path.jet, 21)]
        assert rerun == [nan_s]
        assert np.isnan(data.dkg[10]) and np.isfinite(np.delete(data.dkg, 10)).all()
        for key in rows[0]:
            _assert_same(getattr(data, key), [row[key] for row in rows], key)


def _run(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().err


class TestMaskErrorOrder:
    """Each case raises the error (class and message) the point-by-point
    sampler raised before the column pass."""

    def test_power_overflow(self, capsys):
        # |sigma_u x sigma_v| = 1e110, whose cube overflows on every lane
        argv = ["frames", "--surface", "builtin:cylinder?r=1e110",
                "--curve", "param:u=s*1e-110;v=0.5*s", "--samples", "50"]
        assert _run(argv, capsys) == (
            2, "float arithmetic failed: Numerical result out of range\n")

    def test_power_overflow_from_a_middle_lane(self):
        # |w| = r (R + r cos v) crosses the cube's overflow edge (about
        # 5.6e102) as v winds from pi: the lanes before it are finite
        c = unit_speed_chart_curve(darboux.torus(4.8e51, 1e51),
                                   ChartPath.from_expressions("s", f"{math.pi!r}+s", (0.0, 6.0)))
        grid = uniform_grid(*c.s_range, 40)
        first = next(i for i, s in enumerate(grid.tolist()) if _overflows(c, s))
        assert 0 < first < 39
        with pytest.raises(NumericalError, match="^float arithmetic failed: Numerical result "
                                                 "out of range$"):
            sample_frames(c, grid)
        assert np.isfinite(sample_frames(c, grid[:first]).tg).all()

    def test_path_leaving_the_chart(self, capsys):
        argv = ["frames", "--surface", "builtin:sphere?r=1",
                "--curve", "param:u=s;v=0.2*s;s=0,9", "--samples", "40"]
        assert _run(argv, capsys) == (
            2, "sphere(r=1): parameter v=1.57148 outside [-1.5708, 1.5708]\n")

    def test_space_curve_leaving_the_surface_mid_grid(self, capsys):
        argv = ["classify", "--surface", "builtin:sphere?r=1",
                "--curve", "space:x=cos(s);y=sin(s);z=0.01*s", "--samples", "40"]
        assert _run(argv, capsys) == (
            2, "curve leaves surface: |f(gamma(0.161115))| = 2.59556e-06 > 1e-09\n")

    def test_chart_regularity_mid_grid(self, capsys):
        argv = ["classify", "--surface", "param:x=u*cos(v);y=u*sin(v);z=u;u=-2,2;v=-4,4",
                "--curve", "param:u=s-1;v=0.5*s;s=0,2", "--samples", "21"]
        assert _run(argv, capsys) == (
            2, "param_expr: |sigma_u x sigma_v| <= 1e-10 at (u, v)=(0, 0.5)\n")

    def test_level_regularity_mid_grid(self, capsys):
        argv = ["classify", "--surface", "implicit:f=x^2+y^2-z^2",
                "--curve", "space:x=s-1;y=0;z=s-1;s=0,2", "--samples", "21"]
        assert _run(argv, capsys) == (
            2, "implicit_expr: |grad f| <= 1e-10 at "
               "(1.5543122344752192e-15, 0.0, 1.5543122344752192e-15)\n")

    def test_chart_regularity_of_a_finite_lane(self):
        # a unit-speed generator of the cone passes 1e-12 from its apex at
        # s = 1: |w| is tiny there but every value is finite, so only the
        # regularity check flags the lane
        cone = parse_surface_spec("param:x=u*cos(v)*0.7071067811865476;"
                                  "y=u*sin(v)*0.7071067811865476;z=u*0.7071067811865476;"
                                  "u=-2,2;v=-4,4")
        c = CurveOnSurface(cone, chart_path=ChartPath.from_expressions(
            "s-1+1e-12", "0.5", (0.0, 2.0)))
        grid = uniform_grid(0.0, 2.0, 21)
        with pytest.raises(RegularityError) as excinfo:
            sample_frames(c, grid)
        assert str(excinfo.value) == _point_by_point_error(c, grid)
        assert str(excinfo.value) == (
            "param_expr: |sigma_u x sigma_v| <= 1e-10 at (u, v)=(1e-12, 0.5)")

    @pytest.mark.parametrize("k", [0, 15, 30])
    def test_unit_speed_check_first_middle_and_last_lane(self, k):
        # the plane line u = s at speed 1.5 from lane k on, leaving the chart
        # (u <= 20) on every lane after k: lane k's unit-speed check comes
        # first in grid order, before the later lanes' domain errors
        grid = uniform_grid(0.0, 3.0, 31)
        sk = grid[k]
        path = ChartPath(lambda s: ((s + 100.0 * (s > sk), 0.0), (1.5 if s >= sk else 1.0, 0.0),
                                    (0.0, 0.0), (0.0, 0.0)), (0.0, 3.0))
        c = CurveOnSurface(darboux.plane(), chart_path=path)
        with pytest.raises(DarbouxError) as excinfo:
            sample_frames(c, grid)
        assert type(excinfo.value) is DarbouxError
        assert str(excinfo.value) == (
            f"curve is not unit speed at s={sk:g}: |gamma'| - 1 = 0.5, beyond the tolerance 1e-07")
        assert str(excinfo.value) == _point_by_point_error(c, grid)

    def test_python_callable_path_raises_on_floats(self):
        # v = 0*(1/(s-1)) divides by zero at s = 1 on Python floats; numpy
        # float64 lanes would read nan there instead of raising
        path = ChartPath(lambda s: ((s, 0 * (1 / (s - 1))), (1.0, 0.0), (0.0, 0.0), (0.0, 0.0)),
                         (0.0, 2.0))
        c = CurveOnSurface(darboux.plane(), chart_path=path)
        for frame in (darboux_frame, frenet):
            with pytest.raises(NumericalError, match="^float arithmetic failed: float division "
                                                     "by zero$"):
                frame(c, 1.0)
        with pytest.raises(NumericalError, match="^float arithmetic failed: float division "
                                                 "by zero$"):
            sample_frames(c, uniform_grid(0.0, 2.0, 21))
        assert np.isfinite(sample_frames(c, uniform_grid(0.0, 0.9, 10)).gamma).all()

    def test_zero_curvature_is_not_flagged(self, monkeypatch, tmp_path):
        # kappa = 0 on every lane: tau is nan there, a value, not a failure,
        # so no lane is evaluated again
        c = unit_speed_chart_curve(darboux.plane(),
                                   ChartPath.from_expressions("s", "0*s", (0.0, 2.0)))
        rerun = []
        sample = CurveOnSurface._sample
        monkeypatch.setattr(CurveOnSurface, "_sample",
                            lambda self, s: rerun.append(s) or sample(self, s))
        data = sample_frames(c, uniform_grid(*c.s_range, 30))
        assert rerun == []
        assert np.isnan(data.tau).all() and (data.kappa == 0.0).all()
        monkeypatch.undo()
        for command in ("frames", "classify"):
            assert main([command, "--surface", "builtin:plane", "--curve", "param:u=s;v=0*s",
                         "--samples", "30", "--out", str(tmp_path / command)]) == 0


def _overflows(c, s):
    try:
        darboux_frame(c, s)
    except NumericalError as exc:
        return str(exc) == "float arithmetic failed: Numerical result out of range"
    return False


def _point_by_point_error(c, grid):
    for s in grid.tolist():
        try:
            darboux_frame(c, s)
        except DarbouxError as exc:
            return str(exc)
    return None
