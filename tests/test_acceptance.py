"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail line
per criterion.
"""

import functools
import math

import numpy as np
import pytest

import darboux
from conftest import (
    SQRT2,
    make_helix_curve,
    make_latitude_curve,
    make_line_on_plane,
)
from darboux.classify import (
    is_constant,
    mu_u_series,
    mu_v_series,
    recover_axis,
    theorem_functions,
)
from darboux.cli import main as cli_main
from darboux.errors import DegenerateFrameError, ParseError, SingularPointError
from darboux.expr import differentiate, evaluate, parse
from darboux.frames import darboux as darboux_frame
from darboux.frames import normal_angle_series, sample_frames
from darboux.trace import (
    TraceConfig,
    delta_coefficients,
    find_seed,
    isophote_direction_parametric,
    trace_isophote,
)
from test_expr import fd_derivative, random_expression, usable_points
from test_trace import polyline_distance

EZ = np.array([0.0, 0.0, 1.0])


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:2d}] FAIL  {desc}")
                raise
            print(f"[criterion {num:2d}] PASS  {desc}")
        return wrapper
    return deco


@pytest.fixture(scope="module")
def helix():
    c = make_helix_curve()
    grid = np.linspace(0.0, 4.0, 201)
    return c, grid, sample_frames(c, grid)


@pytest.fixture(scope="module")
def latitude():
    c = make_latitude_curve()
    grid = np.linspace(0.0, 2 * math.pi * math.cos(math.pi / 4), 201)
    return c, grid, sample_frames(c, grid)


@pytest.fixture(scope="module")
def sphere_circuit():
    cfg = TraceConfig(step=1e-3, max_length=4.45)
    return trace_isophote(darboux.sphere(1.0), EZ, math.pi / 4,
                          (0.0, math.pi / 4), cfg)


@pytest.fixture(scope="module")
def torus_trace():
    itor = darboux.implicit_torus(2.0, 0.5)
    seed = find_seed(itor, EZ, math.pi / 3, (2.5, 0.0, 0.1))
    return trace_isophote(itor, EZ, math.pi / 3, seed,
                          TraceConfig(step=1e-3, max_length=5.0))


@criterion(1, "frame correctness on helix and latitude fixtures")
def test_c01_frames(helix, latitude):
    for (c, grid, data), expected in ((helix, (0.0, -0.5, 0.5)),
                                      (latitude, (1.0, -1.0, 0.0))):
        # orthonormality <= 1e-9
        for i in range(data.n):
            M = np.vstack([data.T[i], data.V[i], data.U[i]])
            assert np.abs(M @ M.T - np.eye(3)).max() <= 1e-9
        # closed-form scalars to 1e-9
        assert np.abs(data.kg - expected[0]).max() <= 1e-9
        assert np.abs(data.kn - expected[1]).max() <= 1e-9
        assert np.abs(data.tg - expected[2]).max() <= 1e-9
        # angle relations
        series = normal_angle_series(c, grid)
        assert np.abs(series.r1).max() <= 1e-8
        assert np.abs(series.r2).max() <= 1e-8
        assert np.abs(series.r3).max() <= 1e-6
        # unit-speed metric residual <= 1e-9
        for s in grid[::20]:
            u, v, du, dv = c.path.first_order(s)
            ff = c.surface.first_form(u, v)
            assert abs(ff.E * du**2 + 2 * ff.F * du * dv + ff.G * dv**2 - 1.0) <= 1e-9


@criterion(2, "constancy measures mu_v / mu_u on the fixtures")
def test_c02_characterizations(helix, latitude):
    _, _, hdata = helix
    _, _, ldata = latitude
    assert np.abs(mu_v_series(hdata).values - 1.0).max() <= 1e-8
    assert np.abs(mu_u_series(hdata).values).max() <= 1e-9
    assert np.abs(mu_v_series(ldata).values - 1.0).max() <= 1e-8
    assert np.abs(mu_u_series(ldata).values - 1.0).max() <= 1e-8
    line = make_line_on_plane()
    with pytest.raises(DegenerateFrameError):
        mu_v_series(line, np.linspace(0.0, 2.0, 33))


@criterion(3, "algebraic identity bridges on 1000 random smooth triples")
def test_c03_identities():
    rng = np.random.default_rng(123)
    s = np.linspace(0.0, 2.0, 9)
    for _ in range(1000):
        coeffs = rng.uniform(-1.0, 1.0, (3, 4))
        freqs = rng.uniform(0.5, 2.0, (3, 4))
        phases = rng.uniform(0.0, 2 * math.pi, (3, 4))
        vals, ders = [], []
        for i in range(3):
            arg = freqs[i][:, None] * s[None, :] + phases[i][:, None]
            vals.append(np.sum(coeffs[i][:, None] * np.sin(arg), axis=0))
            ders.append(np.sum(coeffs[i][:, None] * freqs[i][:, None] * np.cos(arg), axis=0))
        (kg, kn, tg), (dkg, dkn, dtg) = vals, ders
        # TU: -k_n q in mu_v, -(r^2 + 1) k_n in the bridge; TV: +k_g q in
        # mu_u, +(r^2 + 1) k_g in the bridge
        for a, da, other, sign, ok in ((kg, dkg, kn, 1.0, np.abs(kg) > 1e-6),
                                       (kn, dkn, kg, -1.0, np.abs(kn) > 1e-6)):
            if not ok.any():
                continue
            q = a**2 + tg**2
            mu = (a * dtg - tg * da - sign * other * q) / q**1.5
            ratio = tg / a
            dratio = (dtg * a - da * tg) / a**2
            bridge = a**2 / q**1.5 * (dratio - sign * (ratio**2 + 1.0) * other)
            err = np.abs(bridge - mu)[ok]
            assert (err <= 1e-9 * (1.0 + np.abs(mu[ok]))).all()


@criterion(4, "exponential-integral criteria constant at the derived values")
def test_c04_theorem_functions(helix, latitude):
    _, _, hdata = helix
    _, _, ldata = latitude
    tv = theorem_functions(hdata, family="TV")
    assert np.abs(tv.isophote_criterion.values - 1 / SQRT2).max() <= 1e-8
    tu = theorem_functions(ldata, family="TU")
    assert np.abs(tu.slant_criterion.values - 1.0).max() <= 1e-8
    verdicts = set()
    for c_const in (0.1, 1.0, 10.0):
        f = theorem_functions(ldata, c_const=c_const, family="TU")
        verdicts.add(is_constant(f.slant_criterion, 1e-6).is_constant)
        f = theorem_functions(hdata, c_const=c_const, family="TV")
        verdicts.add(is_constant(f.isophote_criterion, 1e-6).is_constant)
    assert verdicts == {True}


@criterion(5, "axis recovery from V and U frame series")
def test_c05_axis_recovery(helix, latitude):
    _, _, hdata = helix
    _, _, ldata = latitude
    est = recover_axis(hdata.V)
    assert math.acos(min(abs(est.d @ EZ), 1.0)) <= 1e-9  # angular error
    assert abs(math.degrees(est.angle) - 45.0) <= 1e-9
    est = recover_axis(ldata.U)
    assert math.acos(min(abs(est.d @ EZ), 1.0)) <= 1e-9
    assert abs(math.degrees(est.angle) - 45.0) <= 1e-9


@criterion(6, "parametric isophote tracing on the sphere")
def test_c06_parametric_tracing(sphere_circuit):
    res = sphere_circuit
    assert res.termination == "closed"
    assert np.abs(res.angle_dot - SQRT2 / 2).max() <= 1e-8
    assert np.linalg.norm(res.points[-1] - res.points[0]) <= 1e-5
    assert np.abs(res.constraint_residual).max() <= 1e-6
    # corrected-sign closed form vs the integrated field at 100 random points
    rng = np.random.default_rng(6)
    sph = darboux.sphere(1.0)
    checked = 0
    while checked < 100:
        u = rng.uniform(-math.pi, math.pi)
        v = rng.uniform(-1.4, 1.4)
        try:
            du, dv = isophote_direction_parametric(sph, EZ, u, v)
        except SingularPointError:
            continue
        delta, dstar = delta_coefficients(sph, EZ, u, v, (du, dv))
        ff = sph.first_form(u, v)
        W = math.sqrt(ff.E * dstar**2 - 2 * ff.F * delta * dstar + ff.G * delta**2)
        if W < 1e-12:
            continue
        got = np.array([du, dv])
        want = np.array([dstar / W, -delta / W])
        assert min(np.abs(got - want).max(), np.abs(got + want).max()) <= 1e-8
        checked += 1


@criterion(7, "implicit isophote tracing on torus and sphere")
def test_c07_implicit_tracing(torus_trace, sphere_circuit):
    res = torus_trace
    assert res.s[-1] >= 5.0 - 1e-9
    assert res.surface_residual.max() <= 1e-9
    assert np.abs(res.angle_dot - 0.5).max() <= 1e-7
    assert np.abs(res.grad_dot_t).max() <= 1e-9
    assert np.abs(res.constraint_residual).max() <= 1e-6
    # implicit sphere trace reproduces the parametric latitude circle
    isph = darboux.implicit_sphere(1.0)
    seed = np.array([SQRT2 / 2, 0.0, SQRT2 / 2])
    imp = trace_isophote(isph, EZ, math.pi / 4, seed,
                         TraceConfig(step=1e-3, max_length=4.45))
    assert imp.termination == "closed"
    assert polyline_distance(imp.points[::40], sphere_circuit.points) <= 1e-6


@criterion(8, "RK4 convergence: halving h cuts drift by >= 11x")
def test_c08_convergence():
    sph = darboux.sphere(1.0)
    d = np.array([1.0, 0.0, 1.0]) / SQRT2
    phi = math.pi / 4
    seed = find_seed(sph, d, phi, (0.9, 0.1))
    drifts = []
    for h in (0.02, 0.01):
        res = trace_isophote(sph, d, phi, seed, TraceConfig(step=h, max_length=3.0))
        drifts.append(np.abs(res.angle_dot - math.cos(phi)).max())
    assert drifts[0] / drifts[1] >= 11.0
    itor = darboux.implicit_torus(2.0, 0.5)
    d2 = np.array([1.0, 0.0, 2.0]) / math.sqrt(5.0)
    phi2 = math.pi / 3
    seed2 = find_seed(itor, d2, phi2, (2.4, 0.3, 0.2))
    drifts = []
    for h in (0.02, 0.01):
        res = trace_isophote(itor, d2, phi2, seed2, TraceConfig(step=h, max_length=3.0))
        drifts.append(np.abs(res.angle_dot - math.cos(phi2)).max())
    assert drifts[0] / drifts[1] >= 11.0


@criterion(9, "degenerate surfaces fail; both branches give one point set")
def test_c09_degeneracies(sphere_circuit):
    with pytest.raises(SingularPointError):
        trace_isophote(darboux.plane(), EZ, 0.0, (0.0, 0.0), TraceConfig())
    with pytest.raises(SingularPointError):
        trace_isophote(darboux.implicit_plane(), EZ, 0.0, (0.0, 0.0, 0.0),
                       TraceConfig())
    with pytest.raises(SingularPointError):
        trace_isophote(darboux.cylinder(1.0), EZ, math.pi / 2, (0.0, 0.0),
                       TraceConfig())
    minus = trace_isophote(darboux.sphere(1.0), EZ, math.pi / 4,
                           (0.0, math.pi / 4),
                           TraceConfig(step=2e-3, max_length=4.45, branch="minus"))
    assert minus.tangents[0] @ sphere_circuit.tangents[0] < 0  # opposite sense
    assert polyline_distance(minus.points[::20], sphere_circuit.points) <= 1e-6


@criterion(10, "parser: derivatives vs central differences; positioned errors")
def test_c10_parser():
    rng = np.random.default_rng(1010)
    variables = ["u", "v"]
    expressions = 0
    while expressions < 100:
        src = random_expression(rng, variables, depth=3)
        e = parse(src, variables)
        points = usable_points(e, variables, rng)
        if len(points) < 5:
            continue
        expressions += 1
        for var in variables:
            d = differentiate(e, var)
            for env in points:
                try:
                    sym = evaluate(d, env)
                    fd = fd_derivative(e, var, env)
                    fd_half = fd_derivative(e, var, env, h=5e-6)
                except Exception:
                    continue
                if not all(math.isfinite(x) for x in (sym, fd, fd_half)):
                    continue
                if abs(fd - fd_half) > 2e-7 * (1.0 + max(abs(fd), abs(fd_half))):
                    continue
                assert abs(sym - fd) <= 1e-6 * (1.0 + max(abs(sym), abs(fd)))
    for bad in ("u + ", "((u)", "2u", "sin(", ")u(", "", "u @ v", "1 + * 2",
                "foo(u)", "u ^ ^ 2", "cos u"):
        with pytest.raises(ParseError) as exc:
            parse(bad, ["u", "v"])
        assert isinstance(exc.value.position, int)


@criterion(11, "CLI determinism: byte-identical CSV across runs")
def test_c11_cli_determinism(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    args = ["trace", "--surface", "builtin:sphere?r=1", "--axis", "0,0,1",
            "--angle", "45", "--seed", "0,0.785398", "--length", "4.45",
            "--step", "0.001"]
    a, b = tmp / "a.csv", tmp / "b.csv"
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    rows = a.read_text().splitlines()
    first = np.array([float(x) for x in rows[1].split(",")[1:4]])
    last = np.array([float(x) for x in rows[-1].split(",")[1:4]])
    assert np.linalg.norm(first - last) <= 1e-5
