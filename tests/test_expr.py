"""Parser, evaluator, and symbolic differentiation."""

import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from darboux.errors import EvalDomainError, ParseError
from darboux.expr import (
    CONSTANTS,
    FUNCTIONS,
    BinOp,
    Call,
    Const,
    Expression,
    Neg,
    Num,
    Var,
    compile,
    differentiate,
    evaluate,
    parse,
    unparse,
)
from darboux.surface import implicit_from_expression, parametric_from_expressions


def fd_derivative(e, var, env, h=1e-5):
    """Central-difference oracle for d e / d var at env."""
    up = dict(env, **{var: env[var] + h})
    dn = dict(env, **{var: env[var] - h})
    return (evaluate(e, up) - evaluate(e, dn)) / (2.0 * h)


class TestParse:
    def test_product_of_cosines(self):
        e = parse("cos(v)*cos(u)", ["u", "v"])
        assert evaluate(e, {"u": 0.0, "v": 0.0}) == 1.0
        assert evaluate(e, {"u": math.pi / 2, "v": 0.0}) == pytest.approx(0.0, abs=1e-15)

    def test_sphere_residual(self):
        e = parse("x^2+y^2+z^2-1", ["x", "y", "z"])
        assert evaluate(e, {"x": 1.0, "y": 0.0, "z": 0.0}) == 0.0

    def test_error_at_end_of_input(self):
        with pytest.raises(ParseError) as exc:
            parse("u + ", ["u"])
        assert exc.value.position == 4

    def test_undeclared_identifier(self):
        with pytest.raises(ParseError, match="undeclared"):
            parse("u + w", ["u"])

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function"):
            parse("foo(u)", ["u"])

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError):
            parse("2u", ["u"])

    def test_empty_source(self):
        with pytest.raises(ParseError):
            parse("   ", ["u"])

    def test_precedence_and_associativity(self):
        e = parse("2+3*4^2", [])
        assert evaluate(e, {}) == 50.0
        # ^ is right-associative
        e = parse("2^3^2", [])
        assert evaluate(e, {}) == 512.0
        e = parse("-2^2", [])
        assert evaluate(e, {}) == -4.0
        e = parse("2^-1", [])
        assert evaluate(e, {}) == 0.5

    def test_whitespace_insignificant(self):
        a = parse("  sin( u ) * 2 ", ["u"])
        b = parse("sin(u)*2", ["u"])
        assert evaluate(a, {"u": 0.7}) == evaluate(b, {"u": 0.7})


class TestEvaluate:
    def test_constants(self):
        assert evaluate(parse("pi", []), {}) == math.pi
        assert evaluate(parse("e", []), {}) == math.e

    def test_sqrt_domain_error(self):
        with pytest.raises(EvalDomainError, match="sqrt"):
            evaluate(parse("sqrt(u)", ["u"]), {"u": -1.0})

    def test_ln_domain_error(self):
        with pytest.raises(EvalDomainError, match="ln"):
            evaluate(parse("ln(u)", ["u"]), {"u": 0.0})

    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError, match="division by zero"):
            evaluate(parse("1/u", ["u"]), {"u": 0.0})

    def test_inverse_pair(self):
        assert evaluate(parse("exp(ln(u))", ["u"]), {"u": 2.5}) == pytest.approx(2.5, abs=1e-15)

    def test_error_reports_subexpression(self):
        with pytest.raises(EvalDomainError) as exc:
            evaluate(parse("1 + sqrt(u - 3)", ["u"]), {"u": 0.0})
        assert "sqrt(u - 3.0)" in str(exc.value)

    def test_unbound_variable(self):
        with pytest.raises(EvalDomainError, match="unbound"):
            evaluate(parse("u+v", ["u", "v"]), {"u": 1.0})

    @pytest.mark.parametrize("fn", ["sin", "cos", "tan"])
    @pytest.mark.parametrize("x", [math.inf, -math.inf])
    def test_trig_of_infinity_names_the_call(self, fn, x):
        with pytest.raises(EvalDomainError) as exc:
            evaluate(parse(f"1 + {fn}(u)", ["u"]), {"u": x})
        assert str(exc.value) == f"{fn} of infinite value in '{fn}(u)'"
        assert exc.value.subexpression == f"{fn}(u)"

    def test_folding_an_infinite_trig_argument_keeps_the_call(self):
        # d/du folds cos(1e999), which used to raise a bare ValueError
        d = differentiate(parse("sin(1e999) + u", ["u"]), "u")
        assert evaluate(d, {"u": 0.0}) == 1.0


class TestDifferentiate:
    def test_power_rule(self):
        e = parse("u^2*v", ["u", "v"])
        d = differentiate(e, "u")
        assert evaluate(d, {"u": 1.0, "v": 3.0}) == 6.0

    def test_sin_at_zero(self):
        d = differentiate(parse("sin(u)", ["u"]), "u")
        assert evaluate(d, {"u": 0.0}) == 1.0

    def test_second_partial_matches_fd_oracle(self):
        # oracle: central second difference of cos(v)*cos(u) in u at (0, 0)
        e = parse("cos(v)*cos(u)", ["u", "v"])
        h = 1e-5
        env = {"u": 0.0, "v": 0.0}
        oracle = (evaluate(e, {"u": h, "v": 0.0}) - 2.0 * evaluate(e, env)
                  + evaluate(e, {"u": -h, "v": 0.0})) / h**2
        d2 = differentiate(differentiate(e, "u"), "u")
        sym = evaluate(d2, env)
        assert sym == pytest.approx(oracle, abs=1e-6)
        assert sym == -1.0

    def test_undeclared_differentiation_variable(self):
        with pytest.raises(ValueError):
            differentiate(parse("u", ["u"]), "v")

    def test_abs_sign_based_derivative(self):
        d = differentiate(parse("abs(u)", ["u"]), "u")
        assert evaluate(d, {"u": 2.0}) == 1.0
        assert evaluate(d, {"u": -2.0}) == -1.0
        with pytest.raises(EvalDomainError, match="sign"):
            evaluate(d, {"u": 0.0})

    def test_general_power(self):
        e = parse("u^v", ["u", "v"])
        env = {"u": 1.7, "v": 2.3}
        assert evaluate(differentiate(e, "u"), env) == pytest.approx(
            fd_derivative(e, "u", env), rel=1e-8)
        assert evaluate(differentiate(e, "v"), env) == pytest.approx(
            fd_derivative(e, "v", env), rel=1e-8)

    def test_quotient_and_chain(self):
        e = parse("sin(u)/ (1 + cos(u)^2)", ["u"])
        env = {"u": 0.9}
        assert evaluate(differentiate(e, "u"), env) == pytest.approx(
            fd_derivative(e, "u", env), rel=1e-9)

    @pytest.mark.parametrize("source, derivative", [
        ("u/1", "1.0"),  # the quotient rule's division by 1^2 folds away
        ("u^1", "1.0"),  # the power rule's u^0 folds to 1
        # 1e200^2 overflows, so it stays symbolic and evaluating it raises
        ("u/1e200", "1e+200/1e+200^2.0"),
    ])
    def test_constant_folds(self, source, derivative):
        d = differentiate(parse(source, ["u"]), "u")
        assert unparse(d) == derivative
        if "^" in derivative:
            with pytest.raises(EvalDomainError, match=r"pow domain error \(1e\+200\^2.0\)"):
                evaluate(d, {"u": 1.0})

    def test_expression_methods(self):
        e = parse("u*v", ["u", "v"])
        assert str(e) == unparse(e) == "u*v"
        assert e(u=2.0, v=3.0) == 6.0
        assert e.diff("u") == differentiate(e, "u")


# ---------------------------------------------------------------------------
# Random-expression properties

SAFE_FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt", "sinh", "cosh", "abs")


def random_expression(rng, variables, depth):
    if depth == 0 or rng.random() < 0.25:
        kind = rng.integers(0, 3)
        if kind == 0:
            return rng.choice(variables)
        if kind == 1:
            return f"{rng.uniform(0.2, 3.0):.4f}"
        return rng.choice(["pi", "e", rng.choice(variables)])
    op = rng.integers(0, 6)
    a = random_expression(rng, variables, depth - 1)
    b = random_expression(rng, variables, depth - 1)
    if op == 0:
        return f"({a} + {b})"
    if op == 1:
        return f"({a} - {b})"
    if op == 2:
        return f"({a})*({b})"
    if op == 3:
        return f"({a})/({b})"
    if op == 4:
        return f"({a})^{rng.integers(2, 4)}"
    fn = rng.choice(SAFE_FUNCTIONS)
    return f"{fn}({a})"


def usable_points(e, variables, rng, h=1e-5, want=20):
    """Random evaluation points away from domain boundaries: the expression
    and its shifted copies must evaluate to moderate values."""
    points = []
    for _ in range(400):
        env = {v: float(rng.uniform(-2.0, 2.0)) for v in variables}
        try:
            vals = [evaluate(e, env)]
            for v in variables:
                vals.append(evaluate(e, dict(env, **{v: env[v] + h})))
                vals.append(evaluate(e, dict(env, **{v: env[v] - h})))
        except EvalDomainError:
            continue
        if all(math.isfinite(x) and abs(x) < 1e3 for x in vals):
            points.append(env)
        if len(points) >= want:
            break
    return points


def test_random_derivatives_match_central_differences():
    rng = np.random.default_rng(20240817)
    variables = ["u", "v"]
    checked = 0
    expressions = 0
    while expressions < 100:
        src = random_expression(rng, variables, depth=3)
        try:
            e = parse(src, variables)
        except ParseError:  # pragma: no cover - generator emits valid syntax
            continue
        points = usable_points(e, variables, rng)
        if len(points) < 5:
            continue
        expressions += 1
        for var in variables:
            try:
                d = differentiate(e, var)
            except ValueError:  # pragma: no cover
                continue
            for env in points:
                try:
                    sym = evaluate(d, env)
                    fd = fd_derivative(e, var, env)
                    fd_half = fd_derivative(e, var, env, h=5e-6)
                except EvalDomainError:
                    continue
                if not all(math.isfinite(x) for x in (sym, fd, fd_half)):
                    continue
                scale = 1.0 + max(abs(fd), abs(fd_half))
                if abs(fd - fd_half) > 2e-7 * scale:
                    continue  # the difference oracle itself is unstable here
                assert abs(sym - fd) <= 1e-6 * (1.0 + max(abs(sym), abs(fd))), src
                checked += 1
    assert checked > 1000


def test_roundtrip_parse_unparse_parse():
    rng = np.random.default_rng(7)
    variables = ["u", "v"]
    done = 0
    while done < 100:
        src = random_expression(rng, variables, depth=3)
        e = parse(src, variables)
        e2 = parse(unparse(e), variables)
        points = usable_points(e, variables, rng, want=10)
        if not points:
            continue
        done += 1
        for env in points:
            a = evaluate(e, env)
            b = evaluate(e2, env)
            assert b == pytest.approx(a, rel=2.3e-16, abs=5e-324) or a == b


def test_derivative_unparse_reparses():
    e = parse("abs(u*v) + sqrt(u^2+1)", ["u", "v"])
    d = differentiate(e, "u")
    d2 = parse(unparse(d), ["u", "v"])
    env = {"u": 1.3, "v": -0.4}
    assert evaluate(d2, env) == evaluate(d, env)


def test_known_function_list_is_closed():
    for fn in FUNCTIONS:
        parse(f"{fn}(u)", ["u"])


# ---------------------------------------------------------------------------
# Compiled expressions against the tree walk


def bits(x):
    """The bits of x, every NaN alike: CPython's float + and * give
    ``nan + -nan`` a sign bit that changes once the interpreter specializes
    the instruction, so not even the tree walk repeats a NaN's sign."""
    return b"nan" if math.isnan(x) else struct.pack("<d", x)


class TestCompile:
    def test_values_in_order(self):
        exprs = [parse(src, ["u", "v"]) for src in ("cos(v)*cos(u)", "u^v", "2*pi - e")]
        fn = compile(exprs, ["u", "v"])
        env = {"u": 1.7, "v": 0.3}
        assert fn(1.7, 0.3) == tuple(evaluate(e, env) for e in exprs)

    def test_empty_list_and_no_variables(self):
        assert compile([], ["u"])(1.0) == ()
        assert compile([parse("2^3", [])], [])() == (8.0,)

    def test_constants_keep_their_bits(self):
        values = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324]
        fn = compile([Expression(Num(x), ()) for x in values], [])
        assert [struct.pack("<d", x) for x in fn()] == [struct.pack("<d", x) for x in values]

    def test_undeclared_variable_rejected(self):
        with pytest.raises(ValueError, match="not among"):
            compile([parse("u + v", ["u", "v"])], ["u"])

    @pytest.mark.parametrize("u", [0.0, -1.0])
    def test_domain_error_text_is_the_tree_walks(self, u):
        e = parse("1 + ln(u)", ["u"])
        with pytest.raises(EvalDomainError) as walked:
            evaluate(e, {"u": u})
        with pytest.raises(EvalDomainError) as compiled:
            compile([e], ["u"])(u)
        assert str(compiled.value) == str(walked.value) == "ln of nonpositive value in 'ln(u)'"
        assert compiled.value.subexpression == "ln(u)"

    def test_first_failing_expression_is_reported(self):
        a, b = parse("sqrt(u)", ["u"]), parse("ln(u)", ["u"])
        with pytest.raises(EvalDomainError, match="sqrt of negative"):
            compile([a, b], ["u"])(-1.0)
        with pytest.raises(EvalDomainError, match="ln of nonpositive"):
            compile([b, a], ["u"])(-1.0)

    # the texts below are those the tree-walked surfaces raised
    def test_operand_order_is_kept_where_subtrees_repeat(self):
        srcs = ["u - v", "v - u", "u/v", "v/u", "u^v", "v^u", "(u - v)*(v - u)"]
        exprs = [parse(src, ["u", "v"]) for src in srcs]
        expected = tuple(evaluate(e, {"u": 1.5, "v": 0.25}) for e in exprs)
        assert compile(exprs, ["u", "v"])(1.5, 0.25) == expected

    def test_parametric_surface_domain_error(self):
        surface = parametric_from_expressions("ln(u)", "v", "u", (-1.0, 1.0), (0.0, 1.0))
        with pytest.raises(EvalDomainError) as exc:
            surface.chart_jet(-0.5, 0.5)
        assert str(exc.value) == "ln of nonpositive value in 'ln(u)'"
        with pytest.raises(EvalDomainError) as exc:
            surface.jet3(0.0, 0.5)
        assert str(exc.value) == "division by zero in '-(-1.0*(2.0*u))/(u^2.0)^2.0'"

    def test_implicit_surface_domain_error(self):
        surface = implicit_from_expression("sqrt(x) + y^2 + z^2 - 1")
        p = np.array([-1.0, 0.0, 0.0])
        for method in (surface.value, surface.gradient, surface.hessian):
            with pytest.raises(EvalDomainError) as exc:
                method(p)
            assert str(exc.value) == "sqrt of negative value in 'sqrt(x)'"


VARIABLES = ("u", "v")

_FLOATS = st.one_of(
    st.floats(-4.0, 4.0),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.floats(),
)


def _trees(numbers):
    leaves = st.one_of(
        numbers.map(Num),
        st.sampled_from(VARIABLES).map(Var),
        st.sampled_from(sorted(CONSTANTS)).map(Const),
    )
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            kids.map(Neg),
            st.builds(BinOp, st.sampled_from("+-*/^"), kids, kids),
            st.builds(Call, st.sampled_from(FUNCTIONS), kids),
        ),
        max_leaves=10,
    )


def assert_compiled_matches_tree_walk(fn, exprs, u, v):
    """Equal bits where the tree walk evaluates, the same EvalDomainError
    (message and subexpression) where it raises."""
    try:
        expected = [evaluate(e, {"u": u, "v": v}) for e in exprs]
    except EvalDomainError as walked:
        with pytest.raises(EvalDomainError) as compiled:
            fn(u, v)
        assert str(compiled.value) == str(walked)
        assert compiled.value.subexpression == walked.subexpression
        return
    assert [bits(x) for x in fn(u, v)] == [bits(x) for x in expected]


# ordinary values, signed zeros, the extremes, overflow edges for exp/sinh/cosh
GRID = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.5, 3.0, 710.0, -710.0, 1e308, -1e308,
        5e-324, math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("root", [
    *(BinOp(op, Var("u"), Var("v")) for op in "+-*/^"),
    Neg(Var("u")),
    *(Call(fn, Var("u")) for fn in FUNCTIONS),
], ids=lambda root: unparse(Expression(root, VARIABLES)))
def test_each_operation_matches_tree_walk_on_a_grid(root):
    exprs = [Expression(root, VARIABLES)]
    fn = compile(exprs, VARIABLES)
    for u in GRID:
        for v in GRID:
            assert_compiled_matches_tree_walk(fn, exprs, u, v)


def sign_of_nan(node, env):
    """Whether a sign() in the tree reads a NaN: its result is that NaN's
    sign bit, which the tree walk itself does not repeat (see ``bits``)."""
    if isinstance(node, Call) and node.fn == "sign":
        try:
            if math.isnan(evaluate(Expression(node.arg, VARIABLES), env)):
                return True
        except EvalDomainError:
            pass
    children = [getattr(node, name) for name in ("arg", "left", "right") if hasattr(node, name)]
    return any(sign_of_nan(child, env) for child in children)


@settings(max_examples=300, deadline=None)
@given(st.lists(_trees(_FLOATS), min_size=1, max_size=3), _FLOATS, _FLOATS, st.booleans())
def test_compiled_equals_tree_walk_bit_for_bit(roots, u, v, with_derivatives):
    exprs = [Expression(root, VARIABLES) for root in roots]
    if with_derivatives:  # repeated subtrees, shared by the compiled code
        exprs += [differentiate(e, w) for e in exprs for w in VARIABLES]
    assume(not any(sign_of_nan(e.root, {"u": u, "v": v}) for e in exprs))
    assert_compiled_matches_tree_walk(compile(exprs, VARIABLES), exprs, u, v)


@settings(max_examples=300, deadline=None)
@given(_trees(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)))
def test_unparse_parse_gives_an_equal_tree(root):
    # the parser makes only finite nonnegative numbers; a minus is a Neg node
    e = Expression(root, VARIABLES)
    assert parse(unparse(e), VARIABLES) == e


# ---------------------------------------------------------------------------
# The column form of a compiled function


def _lanes_of(fn, us, vs):
    """fn at each lane, or None for a lane where it raises."""
    out = []
    for u, v in zip(us, vs):
        try:
            out.append(fn(u, v))
        except EvalDomainError:
            out.append(None)
    return out


def assert_columns_match_lanes(fn, us, vs):
    """fn.columns gives each lane fn's bits, and declines wherever a lane
    raises.  Returns whether the columns declined."""
    columns = fn.columns(np.array(us, dtype=float), np.array(vs, dtype=float))
    lanes = _lanes_of(fn, us, vs)
    if columns is None:
        return True
    assert None not in lanes
    assert all(c.shape == (len(us),) for c in columns)
    for i, values in enumerate(lanes):
        assert [bits(c[i]) for c in columns] == [bits(x) for x in values]
    return False


# lanes mostly inside every function's domain, some at its edges
_LANE = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([0.0, -0.0, 1.0, 710.0, 1e308]),
                  _FLOATS)


@settings(max_examples=300, deadline=None)
@given(st.lists(_trees(st.floats(-4.0, 4.0)), min_size=1, max_size=3),
       st.lists(st.tuples(_LANE, _LANE), min_size=1, max_size=6), st.booleans())
def test_columns_equal_the_compiled_function_lane_by_lane(roots, lanes, with_derivatives):
    exprs = [Expression(root, VARIABLES) for root in roots]
    if with_derivatives:
        exprs += [differentiate(e, w) for e in exprs for w in VARIABLES]
    us, vs = [u for u, _ in lanes], [v for _, v in lanes]
    assert_columns_match_lanes(compile(exprs, VARIABLES), us, vs)


@pytest.mark.parametrize("root", [
    *(BinOp(op, Var("u"), Var("v")) for op in "+-*/^"),
    Neg(Var("u")),
    *(Call(fn, Var("u")) for fn in FUNCTIONS),
], ids=lambda root: unparse(Expression(root, VARIABLES)))
def test_each_operation_has_columns_inside_its_domain(root):
    # u, v in [0.25, 2.5]: every operation is defined and finite on each lane
    rng = np.random.default_rng(7)
    us, vs = rng.uniform(0.25, 2.5, (2, 64)).tolist()
    fn = compile([Expression(root, VARIABLES)], VARIABLES)
    assert not assert_columns_match_lanes(fn, us, vs)
    # a lane at a domain edge: the columns decline where it raises (and on
    # any lane that is not finite)
    for bad in (-1.0, 0.0, 1e308, math.inf, math.nan):
        declined = assert_columns_match_lanes(fn, us + [bad], vs + [bad])
        assert declined or math.isfinite(bad)


class TestColumns:
    def test_constant_outputs_are_broadcast(self):
        fn = compile([parse(src, ["s"]) for src in ("s", "2", "-pi", "s - s")], ["s"])
        s = np.linspace(0.0, 1.0, 5)
        u, two, minus_pi, zero = fn.columns(s)
        assert [x.shape for x in (u, two, minus_pi, zero)] == [(5,)] * 4
        assert two.tolist() == [2.0] * 5 and minus_pi.tolist() == [-math.pi] * 5
        # no output shares memory with the input or with another output
        assert not np.shares_memory(u, s)
        assert not any(np.shares_memory(a, b) for a, b in
                       itertools.combinations((u, two, minus_pi, zero), 2))
        u[0] = 7.0
        assert s[0] == 0.0

    def test_non_finite_constant_declines(self):
        fn = compile([Expression(BinOp("*", Num(math.inf), Var("u")), ("u",))], ["u"])
        assert fn.columns(np.array([1.0, 2.0])) is None
        assert fn(1.0) == (math.inf,)

    def test_overflow_declines_where_floats_give_inf(self):
        # Python's float product overflows to inf without raising; the
        # columns raise under np.errstate and decline
        fn = compile([parse("u*1e300", ["u"])], ["u"])
        assert fn(1e10) == (math.inf,)
        assert fn.columns(np.array([1.0, 1e10])) is None
        assert fn.columns(np.array([1.0, 2.0]))[0].tolist() == [1e300, 2e300]

    def test_quotient_by_zero_declines(self):
        fn = compile([parse("1/u", ["u"]), parse("(u - u)/(u - u)", ["u"])], ["u"])
        assert fn.columns(np.array([1.0, -0.0])) is None
        assert fn.columns(np.array([1.0, 2.0])) is None

    def test_one_exec_per_compile(self, monkeypatch):
        import builtins

        calls = []
        real = builtins.exec

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(builtins, "exec", counted)
        fn = compile([parse("sin(u)^2", ["u"])], ["u"])
        assert len(calls) == 1
        fn.columns(np.array([0.5, 1.5]))
        fn(0.5)
        assert len(calls) == 1
