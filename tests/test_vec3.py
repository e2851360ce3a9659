"""Scalar 3-vector helpers: _cross gives the bits of np.cross on floats and
on (N,) columns; dot3, norm3 and the Gauss-Legendre row sum are
left-to-right sums, pinned against exact rational arithmetic rounded once
per operation in that order.  The straight-line trace kernels give the bits
of the same formulas composed from those helpers; norm3, _pow and the
implicit diagnostics on (N,) columns give each lane the bits of the float
call."""

import ast
import itertools
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import darboux
from darboux.errors import ARITHMETIC_ERRORS
from darboux.frames import _GL_NODES, _GL_WEIGHTS, _gl_sum
from darboux.surface import (
    _chart_w,
    _cross,
    _cross_sum,
    _div3,
    _first_form,
    _lincomb,
    _matvec,
    _normal_partials,
    _pow,
    dot3,
    norm3,
)
from darboux.errors import RegularityError
from darboux.surface import ImplicitSurface, ParametricSurface
from darboux.trace import (
    _chart_eval,
    _implicit_columns,
    _implicit_eval,
    _level_gradient,
)

FINITE = st.floats(allow_nan=False, allow_infinity=False)
VEC3 = arrays(np.float64, 3, elements=FINITE)

TINY = 5e-324          # smallest subnormal
SUB = 2.2250738585072014e-308 / 3.0
BIG = 1.7976931348623157e308
ROOT_BIG = 1.3407807929942596e154   # about sqrt(max float)

EXPLICIT = [
    (np.array([-0.0, -0.0, -0.0]), np.array([1.0, -1.0, 2.0])),
    (np.array([TINY, -TINY, SUB]), np.array([SUB, TINY, -SUB])),
    (np.array([TINY, 1.0, -TINY]), np.array([1e-300, -1e-10, 3.0])),
    (np.array([BIG, -BIG, 1.0]), np.array([1.0, 2.0, -BIG])),
    (np.array([ROOT_BIG, ROOT_BIG, -ROOT_BIG]), np.array([ROOT_BIG, -ROOT_BIG, ROOT_BIG])),
    (np.array([BIG, BIG, BIG]), np.array([BIG, BIG, BIG])),
]


def _same_bits(x, y) -> bool:
    return np.asarray(x, dtype=np.float64).tobytes() == np.asarray(y, dtype=np.float64).tobytes()


# IEEE round-to-nearest sends magnitudes from max float + half an ulp up to inf
OVERFLOW = Fraction(2**1024 - 2**970)


def _rounded(x: Fraction) -> float:
    """x rounded once to the nearest float, ties to even, as IEEE arithmetic
    rounds (int/int division is correctly rounded below the overflow edge)."""
    if abs(x) >= OVERFLOW:
        return math.inf if x > 0 else -math.inf
    return float(x)


def _mul(a: float, b: float) -> float:
    if not (math.isfinite(a) and math.isfinite(b)) or a == 0.0 or b == 0.0:
        return a * b  # exact: inf/nan propagate, zeros keep the sign rule
    return _rounded(Fraction(a) * Fraction(b))


def _add(a: float, b: float) -> float:
    if not (math.isfinite(a) and math.isfinite(b)):
        return a + b
    total = Fraction(a) + Fraction(b)
    if total == 0:
        # an exact zero sum is -0 only when both terms are -0
        return -0.0 if math.copysign(1.0, a) < 0 and math.copysign(1.0, b) < 0 else 0.0
    return _rounded(total)


def reference_dot(a, b) -> float:
    """sum_i a_i b_i from i = 0, each product and each sum rounded once."""
    total = _mul(a[0], b[0])
    for x, y in zip(a[1:], b[1:]):
        total = _add(total, _mul(x, y))
    return total


def reference_norm(a) -> float:
    # sqrt is correctly rounded in IEEE arithmetic, so one more rounding
    return math.sqrt(reference_dot(a, a))


def _cross_of(a, b) -> np.ndarray:
    """_cross of two shape-(3,) arrays, on their floats."""
    return np.array(_cross(a.tolist(), b.tolist()))


ROWS3 = arrays(np.float64, st.tuples(st.integers(0, 6), st.just(3)), elements=FINITE)


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(0, 6), st.just(2), st.just(3)),
              elements=FINITE))
def test_cross_matches_np_cross(pairs):
    # on each pair of rows' floats, and on their columns, N = 0 included
    a, b = pairs[:, 0], pairs[:, 1]
    with np.errstate(all="ignore"):
        expected = np.cross(a, b).reshape(-1, 3)
        for x, y, row in zip(a, b, expected):
            assert _same_bits(_cross_of(x, y), row)
        assert _same_bits(np.column_stack(_cross(a.T, b.T)), expected)


@settings(max_examples=300, deadline=None)
@given(st.tuples(FINITE, FINITE, FINITE), st.tuples(FINITE, FINITE, FINITE))
def test_dot3_matches_exact_left_to_right(a, b):
    assert _same_bits(dot3(a, b), reference_dot(a, b))


@settings(max_examples=300, deadline=None)
@given(VEC3)
def test_norm3_matches_exact_left_to_right(a):
    assert _same_bits(norm3(a.tolist()), reference_norm(a.tolist()))


@settings(max_examples=100, deadline=None)
@given(ROWS3)
def test_norm3_rows_matches_exact_left_to_right(rows):
    # the norm of each row of an (N, 3) array, through its .T view, N = 0 included
    with np.errstate(all="ignore"):
        many = norm3(rows.T)
    assert isinstance(many, np.ndarray)
    assert _same_bits(many, [reference_norm(r) for r in rows.tolist()])


@settings(max_examples=100, deadline=None)
@given(ROWS3)
def test_norm3_on_columns_matches_each_lane(rows):
    # the frame sampler's 3-tuples of (N,) columns, N = 0 and 1 included
    with np.errstate(all="ignore"):
        many = norm3(tuple(rows.T))
    assert _same_bits(many, [norm3(r) for r in rows.tolist()])


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.integers(0, 8), elements=st.floats()), st.sampled_from([2, 3, 5]))
def test_pow_on_a_column_is_python_power_lane_by_lane(column, k):
    # Python raises OverflowError where the column reads nan
    expected = []
    for x in column.tolist():
        try:
            expected.append(x**k)
        except OverflowError:
            expected.append(math.nan)
    assert _same_bits(_pow(column, k), expected)


def test_pow_fills_overflowing_lanes():
    # classify's q^{3/2} reads inf where the power overflows, as np.power did
    q = np.array([4.0, 1e300, 0.0, math.inf, math.nan])
    np.testing.assert_array_equal(_pow(q, 1.5, math.inf), [8.0, math.inf, 0.0, math.inf, math.nan])
    np.testing.assert_array_equal(_pow(q, 1.5), [8.0, math.nan, 0.0, math.inf, math.nan])


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.just(12)),
              elements=st.floats(0.0, 1e6)))
def test_gauss_legendre_row_sum_matches_exact_left_to_right(speeds):
    weights = _GL_WEIGHTS.tolist()
    assert _same_bits(_gl_sum(speeds),
                      [reference_dot(row, weights) for row in speeds.tolist()])


def test_gauss_legendre_literals_are_leggauss_bit_for_bit():
    nodes, weights = np.polynomial.legendre.leggauss(12)
    assert _GL_NODES.dtype == _GL_WEIGHTS.dtype == np.float64
    assert _GL_NODES.tobytes() == nodes.tobytes()
    assert _GL_WEIGHTS.tobytes() == weights.tobytes()


@pytest.mark.parametrize("a, b", EXPLICIT)
def test_explicit_cases(a, b):
    with np.errstate(all="ignore"):
        assert _same_bits(_cross_of(a, b), np.cross(a, b))
        assert _same_bits(_cross_of(b, a), np.cross(b, a))
    for x, y in ((a, b), (b, a), (a, a)):
        assert _same_bits(dot3(x.tolist(), y.tolist()), reference_dot(x.tolist(), y.tolist()))
    assert _same_bits(norm3(a.tolist()), reference_norm(a.tolist()))
    assert _same_bits(norm3(b.tolist()), reference_norm(b.tolist()))


def test_signed_zero_combinations():
    zeros = (0.0, -0.0)
    vectors = [np.array(v) for v in itertools.product(zeros, repeat=3)]
    for a, b in itertools.product(vectors, repeat=2):
        assert _same_bits(_cross_of(a, b), np.cross(a, b))
        assert _same_bits(dot3(a.tolist(), b.tolist()), reference_dot(a.tolist(), b.tolist()))
        assert _same_bits(norm3(a.tolist()), reference_norm(a.tolist()))


def test_types():
    a, b = np.array([1.0, 2.0, 3.0]), np.array([-1.0, 0.5, 2.0])
    assert all(isinstance(x, float) for x in _cross(a.tolist(), b.tolist()))
    assert isinstance(norm3(a.tolist()), float)
    assert isinstance(dot3(a.tolist(), b.tolist()), float)


@pytest.mark.parametrize("module", ["trace.py", "surface.py"])
def test_no_matmul_operator(module):
    """The trace kernel and the surfaces take every inner product through
    dot3: no ``@`` (whose 3-vector dot goes to the BLAS build's ddot)."""
    path = Path(darboux.__file__).parent / module
    tree = ast.parse(path.read_text())
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)]
    assert found == []


# numpy products that send 3-vectors to BLAS (or to SIMD kernels with their
# own summation order); np.linalg.eigh in classify.recover_axis is not one
BLAS_PRODUCTS = {("np", "dot"), ("np", "vecdot"), ("np", "inner"), ("np", "einsum"),
                 ("np", "cross"), ("np", "linalg", "norm")}


def _dotted(node) -> tuple:
    """The name chain of an attribute access, ("np", "linalg", "norm") for
    np.linalg.norm, or () for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return (node.id, *reversed(parts)) if isinstance(node, ast.Name) else ()


def test_no_blas_products_in_the_package():
    """The output bytes depend on every 3-vector product being a dot3-style
    left-to-right sum: no ``@`` and no numpy product call anywhere in the
    package."""
    found = []
    for path in sorted(Path(darboux.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{path.name}:{node.lineno} @")
            elif isinstance(node, ast.Call) and _dotted(node.func) in BLAS_PRODUCTS:
                found.append(f"{path.name}:{node.lineno} {'.'.join(_dotted(node.func))}")
    assert found == []


def test_package_imports_only_the_standard_library_and_numpy():
    """numpy is the package's one run-time dependency: every import in the
    package is relative (the package itself), from the standard library or
    from numpy.  scipy stays a test dependency, the reference for the bits
    of the numpy ports (PCHIP, the cubic Hermite, the cumulative Simpson
    integral)."""
    found = []
    for path in sorted(Path(darboux.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {m}" for m in modules
                      if m.split(".")[0] not in (*sys.stdlib_module_names, "numpy")]
    assert found == []


POWER_CALLS = {("np", "power"), ("np", "float_power")}


def test_no_numpy_power_in_the_package():
    """A numpy column that reproduces a Python float formula takes its
    powers from Python (surface._pow, lane by lane) or as products, never
    from np.power or np.float_power.  On an AVX-512 host with numpy 2.4.6,
    np.power(a, 3) differed from Python's x**3 on 21591 of 400000 lanes
    drawn uniformly from [0, 1) (default_rng(0)), and np.power(a, 1.5)
    from x**1.5 on about 5 % of lanes: numpy computes powers with its own
    vectorised kernel, not the C library's pow.  np.float_power agreed with
    Python there; it is rejected as another route to a power ufunc.  The
    classify measures' q^{3/2} go through _pow too, so no report depends on
    numpy's power kernel."""
    found = {}
    for path in sorted(Path(darboux.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and _dotted(node.func) in POWER_CALLS:
                found[path.name] = found.get(path.name, 0) + 1
    assert found == {}


def _except_clause_calls(source: str) -> list:
    """Calls made inside an except clause of source to a function or method
    that source defines (by name, at any depth), as "line name"."""
    tree = ast.parse(source)
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    found = []
    for handler in ast.walk(tree):
        if isinstance(handler, ast.ExceptHandler):
            for node in ast.walk(handler):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name in defined:
                        found.append(f"{node.lineno} {name}")
    return found


def test_no_frames_function_runs_only_from_an_except_clause():
    """The batched frame and arclength paths raise the error a point-by-point
    pass meets first by one rule: record the failing lanes, then raise the
    first one or evaluate the flagged lanes again in order.  A point-by-point
    twin run from an except clause to pick the error is a second copy of the
    path, so no except clause of frames.py calls a function of frames.py."""
    assert _except_clause_calls((Path(darboux.__file__).parent / "frames.py").read_text()) == []


# Moderate magnitudes: n**3 of a norm above 1e-100 is finite and nonzero,
# as at every point a trace records (its field solve divided by n**3).
MODERATE = st.floats(-1e3, 1e3)
TRIPLE = st.tuples(MODERATE, MODERATE, MODERATE)


def _composed_normal_partials(jet, w, n):
    """(U_u, U_v) composed from _cross_sum and dot3: the quotient rule
    w_a/n - w (w . w_a)/n^3 on w_u and w_v."""
    _, su, sv, suu, suv, svv = jet

    def unit_derivative(w_a):
        k = dot3(w, w_a)
        return tuple(a / n - x * k / n**3 for x, a in zip(w, w_a))

    return (unit_derivative(_cross_sum(suu, sv, su, suv)),
            unit_derivative(_cross_sum(suv, sv, su, svv)))


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[TRIPLE] * 6))
def test_normal_partials_compose_cross_sum_and_dot3(jet):
    w = _cross(jet[1], jet[2])
    n = norm3(w)
    assume(n > 1e-100)
    assert _same_bits(_normal_partials(jet, w, n, n**3), _composed_normal_partials(jet, w, n))


@settings(max_examples=300, deadline=None)
@given(TRIPLE, st.tuples(TRIPLE, TRIPLE, TRIPLE), TRIPLE)
def test_level_gradient_and_direction_compose_matvec_and_dot3(g, H, d):
    n = norm3(g)
    assume(n > 1e-100)
    point = (g, n, H)
    gd = dot3(g, d)
    composed = tuple(a / n - gd * b / n**3 for a, b in zip(_matvec(H, d), _matvec(H, g)))
    assert _same_bits(_level_gradient(point, d), composed)
    w = _cross(g, composed)
    if norm3(w) > 1e-10:
        surface = ImplicitSurface("fixed level", None, lambda *q: (g, H), 0.0, third=None)
        assert _same_bits(_implicit_eval(surface, d, 1e-10, (0.0, 0.0, 0.0))[0],
                          _div3(w, norm3(w)))


def _plus_solve(solve):
    """(plus, None) from solve(), or (None, the error type) where it raises an
    arithmetic error."""
    try:
        return solve(), None
    except ARITHMETIC_ERRORS as exc:
        return None, type(exc)


def _same_solve(stage_plus, stage_error, plus, error):
    """A stage kernel's (plus, error) against the composed solve's: the same
    bits, the same error type, or both None at a singular point."""
    if plus is not None:
        return stage_error is None and _same_bits(stage_plus, plus)
    if error is not None:
        return stage_plus is None and type(stage_error) is error
    return stage_plus is None and stage_error is None


# the field's solve: 0 keeps exact zeros singular, 1e300 makes every point so
EPS_SING = st.sampled_from([0.0, 1e-10, 1e300])


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[TRIPLE] * 6), TRIPLE, EPS_SING)
# a plane: g_u = g_v = 0 exactly; sigma_vv = 1e200 e_z: g_v**2 overflows
@example(((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)) + ((0.0, 0.0, 0.0),) * 3,
         (0.0, 0.0, 1.0), 0.0)
@example(((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 0.0),
          (0.0, 0.0, 0.0), (0.0, 0.0, 1e200)), (0.0, 1.0, 0.0), 1e-10)
def test_chart_stage_composes_normal_partials_first_form_and_dot3(jet, d, eps_sing):
    w, n = _chart_w(jet)
    assume(n > 1e-100)
    # the chart kernel evaluates the jet itself: a surface whose jet is jet
    surface = ParametricSurface("fixed jet", lambda u, v: jet, (-1.0, 1.0), (-1.0, 1.0),
                                jet3_fn=None, eps_reg=0.0)
    stage = _chart_eval(surface, d, eps_sing, (0.0, 0.0))
    U_u, U_v = _normal_partials(jet, w, n, n**3)
    E, F, G = _first_form(jet)
    g_u, g_v = dot3(U_u, d), dot3(U_v, d)
    assert len(stage) == 6 and stage[3] is jet[0]
    assert _same_bits(stage[4], w) and _same_bits(stage[5], n)

    def solve():
        # the reference solve: unit metric speed, then sigma_u u' + sigma_v v'
        W = math.sqrt(E * g_v**2 - 2.0 * F * g_u * g_v + G * g_u**2)
        du, dv = -g_v / W, g_u / W
        return (du, dv) + _lincomb(du, jet[1], dv, jet[2])

    singular = abs(g_u) <= eps_sing and abs(g_v) <= eps_sing
    plus, error = (None, None) if singular else _plus_solve(solve)
    k, t3, stage_error = stage[:3]
    assert (k is None) == (t3 is None)
    assert _same_solve(None if k is None else k + t3, stage_error, plus, error)


@settings(max_examples=300, deadline=None)
@given(TRIPLE, st.tuples(TRIPLE, TRIPLE, TRIPLE), TRIPLE, EPS_SING)
# |grad f| = 1e120: n**3 overflows in the level gradient
@example((0.0, 0.0, 1e120), ((0.0,) * 3,) * 3, (0.6, 0.0, 0.8), 1e-10)
def test_implicit_eval_composes_level_gradient_cross_and_norm3(g, H, d, eps_sing):
    n = norm3(g)
    assume(n > 1e-100)
    point = (g, n, H)
    p = (0.5, -0.25, 2.0)
    # the kernel reads grad f and H from the surface and |grad f| by norm3
    surface = ImplicitSurface("fixed level", None, lambda *q: (g, H), 0.0, third=None)
    stage = _implicit_eval(surface, d, eps_sing, p)
    assert stage[1] is stage[0] and stage[3] is p
    assert stage[4] is g and _same_bits(stage[5], n)
    plus, error = _plus_solve(lambda: _cross(g, _level_gradient(point, d)))
    if plus is not None:
        wn = norm3(plus)
        plus = None if wn <= eps_sing else _div3(plus, wn)
    assert _same_solve(stage[0], stage[2], plus, error)


def test_stage_kernels_raise_the_surfaces_regularity_errors():
    # at |w| or |grad f| <= eps_reg the kernels raise chart_point's and
    # level_point's own errors before any solve
    jet = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (2.0, 0.0, 0.0)) + ((0.0, 0.0, 0.0),) * 3
    chart = ParametricSurface("folded", lambda u, v: jet, (-1.0, 1.0), (-1.0, 1.0),
                              jet3_fn=None)
    with pytest.raises(RegularityError) as want:
        chart.chart_point(0.5, 0.25)
    with pytest.raises(RegularityError) as got:
        _chart_eval(chart, (0.0, 0.0, 1.0), 1e-10, (0.5, 0.25))
    assert str(got.value) == str(want.value)
    level = ImplicitSurface("flat", None, lambda *q: ((0.0, 0.0, 0.0), ((0.0,) * 3,) * 3),
                            third=None)
    with pytest.raises(RegularityError) as want:
        level.level_point((0.5, 0.25, 0.0))
    with pytest.raises(RegularityError) as got:
        _implicit_eval(level, (0.0, 0.0, 1.0), 1e-10, (0.5, 0.25, 0.0))
    assert str(got.value) == str(want.value)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(TRIPLE, st.tuples(TRIPLE, TRIPLE, TRIPLE), TRIPLE),
                min_size=1, max_size=6), TRIPLE)
def test_implicit_columns_match_the_scalar_formulas(rows, d):
    # the trace's columns, (N, 3) and (N, 3, 3) arrays passed as .T views,
    # against the float evaluation of each lane
    rows = [(g, H, t) for g, H, t in rows if norm3(g) > 1e-100]
    assume(rows)
    g, H, t = (np.array(c, dtype=float) for c in zip(*rows))
    n = np.array([norm3(r[0]) for r in rows])
    cols = _implicit_columns(d, g.T, n, H.transpose(1, 2, 0), t.T)
    for i, (gi, Hi, ti) in enumerate(rows):
        expected = _implicit_columns(d, gi, float(n[i]), Hi, ti)
        for name, value in expected.items():
            lane = [c[i] for c in cols[name]] if isinstance(value, tuple) else cols[name][i]
            assert _same_bits(lane, value), name


# numpy functions that give math's bits on an (N,) float64 column (sin and
# cos on this platform; abs and sqrt are exact or correctly rounded); tan,
# exp, log and power are numpy SIMD kernels that differ on some lanes
COLUMN_UFUNCS = {"abs", "sqrt", "sin", "cos"}


def test_column_bindings_use_no_other_numpy_ufunc():
    """expr.compile's column form binds the generated code's helper names
    in ``_COLUMN_HELPERS``, with ``_lanes`` running a math function lane by
    lane: no numpy ufunc there but the four above, in the source and in the
    bound values."""
    from darboux import expr

    tree = ast.parse(Path(expr.__file__).read_text())
    bindings = [node for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "_COLUMN_HELPERS" for t in node.targets)
                or isinstance(node, ast.FunctionDef) and node.name == "_lanes"]
    assert len(bindings) == 2
    names = {_dotted(node)[1] for binding in bindings for node in ast.walk(binding)
             if isinstance(node, ast.Attribute) and _dotted(node)[:1] == ("np",)}
    assert {name for name in names if isinstance(getattr(np, name), np.ufunc)} <= COLUMN_UFUNCS
    bound = {value.__name__ for value in expr._COLUMN_HELPERS.values()
             if isinstance(value, np.ufunc)}
    assert bound == {"absolute", "sqrt", "sin", "cos"}
    assert set(expr._COLUMN_HELPERS) == set(expr._HELPERS)


def _is_compiled(fn) -> bool:
    """Whether fn is a function generated by expr.compile: the generated
    code's function, carrying the columns that compile attaches."""
    return (fn.__qualname__ == "_make.<locals>.compiled"
            and callable(getattr(fn, "columns", None)))


@pytest.mark.parametrize("name", sorted(darboux.surface.CATALOG))
def test_catalog_surfaces_are_compiled_expressions(name):
    """Each catalog surface is one chart (or level) definition: expression
    text whose jets expr.compile derives, not formulas written out by hand."""
    parametric, implicit = darboux.surface.CATALOG[name]
    chart = parametric()
    assert _is_compiled(chart._jet_fn) and _is_compiled(chart._jet3_fn)
    if implicit is not None:
        level = implicit()
        assert all(map(_is_compiled, (level._f, level._level, level._third)))


TRANSCENDENTAL_CALLS = {(module, fn) for module in ("math", "np")
                        for fn in ("sin", "cos", "tan", "exp", "log", "sinh", "cosh")}


def test_surface_module_writes_no_chart_formula():
    """surface.py evaluates no sin, cos or other transcendental function
    itself: chart and level formulas live in expression text only."""
    tree = ast.parse((Path(darboux.__file__).parent / "surface.py").read_text())
    found = [f"{node.lineno} {'.'.join(_dotted(node.func))}" for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _dotted(node.func) in TRANSCENDENTAL_CALLS]
    assert found == []
