"""Tiny real-valued expression language: parse, evaluate, differentiate.

Surfaces and curves can be supplied as text like ``"cos(v)*cos(u)"``; this
module turns such text into an immutable AST, evaluates it in binary64, and
produces exact symbolic partial derivatives (with constant folding, no
algebraic simplification) so chart jets and gradients stay analytic.
``compile`` turns a (nested) list of expressions into one generated Python
function with the same operations, returning nested tuples, so hot callers
skip the tree walk; the tree walk (``evaluate``) stays the reference and
reports domain errors.

The same generated source, from the same ``exec``, is bound a second time
for (N,) float64 columns and attached as ``fn.columns``: elementwise
``+ - * /``, negation, ``np.abs``, ``np.sqrt``, ``np.sin`` and ``np.cos``
round as the float code does, and ``^``, tan, exp, ln, sinh, cosh and sign
stay ``math``'s, lane by lane.  The columns decline (return None) rather
than raise: wherever a constant or an input lane is not finite, a numpy
operation signals under ``np.errstate(all="raise", under="ignore")`` or a
lane-wise function raises (which is also where an output lane would not be
finite).  A caller then evaluates lane by lane, which raises the float
code's error in its order.

Grammar (whitespace insignificant, implicit multiplication NOT allowed):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Known functions: sin cos tan exp ln sqrt sinh cosh abs sign.  ``sign`` only
shows up in derivatives of ``abs`` but is accepted by the parser so printed
derivatives re-parse.  Constants: pi, e.
"""

from __future__ import annotations

import functools
import math
import re
import struct
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import EvalDomainError, ParseError

__all__ = ["Expression", "parse", "differentiate", "evaluate", "compile", "unparse"]

CONSTANTS = {"pi": math.pi, "e": math.e}


def _sign(x: float) -> float:
    # a ValueError at 0, as math's functions raise out of their domain
    if x == 0.0:
        raise ValueError("sign undefined at 0")
    return math.copysign(1.0, x)


# Each function's Python function: the tree walk calls it and the compiled
# code binds it.  A ValueError from it is a domain error, reported with its
# message here; sin, cos and tan raise one only at +-inf, and no other
# function raises one.
_FUNCTIONS = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan, "exp": math.exp, "ln": math.log,
    "sqrt": math.sqrt, "sinh": math.sinh, "cosh": math.cosh, "abs": abs, "sign": _sign,
}
_DOMAIN_ERRORS = {"ln": "ln of nonpositive value", "sqrt": "sqrt of negative value",
                  "sign": "sign undefined at 0 (abs has no derivative there)"}
FUNCTIONS = tuple(_FUNCTIONS)


# ---------------------------------------------------------------------------
# AST nodes (immutable)


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str  # "pi" or "e"


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Node"


Node = Num | Var | Const | Neg | BinOp | Call


@dataclass(frozen=True)
class Expression:
    """Parsed expression plus its declared variable list."""

    root: Node
    variables: tuple[str, ...]

    def __str__(self) -> str:
        return unparse(self)

    def __call__(self, **bindings: float) -> float:
        return evaluate(self, bindings)

    def diff(self, var: str) -> "Expression":
        return differentiate(self, var)


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"""
    (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
    """,
    re.VERBOSE,
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        if source[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Recursive-descent parser


class _Parser:
    def __init__(self, source: str, variables: tuple[str, ...]):
        self.tokens = _tokenize(source)
        self.variables = variables
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", pos)
        self.advance()

    def parse(self) -> Node:
        node = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.unary())
            else:
                return node

    def unary(self) -> Node:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return BinOp("^", base, self.unary())  # right-associative
        return base

    def atom(self) -> Node:
        kind, text, pos = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            nk, nt, _ = self.peek()
            if nk == "op" and nt == "(":
                if text not in FUNCTIONS:
                    raise ParseError(f"unknown function {text!r}", pos)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            if text in CONSTANTS:
                return Const(text)
            if text not in self.variables:
                raise ParseError(f"undeclared identifier {text!r}", pos)
            return Var(text)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected {text!r}", pos)


def parse(source: str, variables) -> Expression:
    """Parse ``source`` over the declared ``variables`` (list of names).

    Raises ParseError (with position) on malformed input, unknown function
    names, or identifiers that are neither declared variables nor pi/e.
    """
    if not source or not source.strip():
        raise ParseError("empty expression", 0)
    variables = tuple(variables)
    return Expression(_Parser(source, variables).parse(), variables)


# ---------------------------------------------------------------------------
# Evaluation


def _eval(node: Node, env: Mapping[str, float]) -> float:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Const):
        return CONSTANTS[node.name]
    if isinstance(node, Var):
        try:
            return float(env[node.name])
        except KeyError:
            raise EvalDomainError(f"unbound variable {node.name!r}", node.name) from None
    if isinstance(node, Neg):
        return -_eval(node.arg, env)
    if isinstance(node, BinOp):
        a = _eval(node.left, env)
        b = _eval(node.right, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            if b == 0.0:
                raise EvalDomainError("division by zero", _unparse(node))
            return a / b
        # '^'
        try:
            return math.pow(a, b)
        except (ValueError, OverflowError):
            raise EvalDomainError(f"pow domain error ({a!r}^{b!r})", _unparse(node)) from None
    # Call
    x = _eval(node.arg, env)
    try:
        return _FUNCTIONS[node.fn](x)
    except OverflowError:
        raise EvalDomainError("overflow", _unparse(node)) from None
    except ValueError:
        message = _DOMAIN_ERRORS.get(node.fn, f"{node.fn} of infinite value")
        raise EvalDomainError(message, _unparse(node)) from None


def evaluate(e: Expression, bindings: Mapping[str, float]) -> float:
    """Evaluate at the given variable bindings (IEEE binary64).

    Raises EvalDomainError naming the offending subexpression when evaluation
    leaves the real domain.
    """
    return _eval(e.root, bindings)


# ---------------------------------------------------------------------------
# Compilation (one generated function per list of expressions)


# names the generated code calls, bound as closure cells of the function
_HELPERS = {"_float": float, "_pow": math.pow, **{f"_{name}": fn for name, fn in _FUNCTIONS.items()}}


def _lanes(fn):
    """fn on (N,) columns lane by lane, Python floats in and out, so each
    lane has fn's bits and raises fn's error; on scalars, fn's value as a
    float64 scalar, whose arithmetic signals as a column's does."""

    def column(*args):
        if all(np.ndim(a) == 0 for a in args):
            return np.float64(fn(*args))
        args = np.broadcast_arrays(*args)
        return np.fromiter(map(fn, *(a.tolist() for a in args)), float, args[0].size)

    return column


# the same names bound for (N,) float64 columns: elementwise + - * / and
# these four numpy functions round as Python's floats and math's do (sin
# and cos on this platform; tests/test_expr.py checks each operation's
# columns against its floats); every other function keeps math's, lane by
# lane
_COLUMN_HELPERS = {
    "_float": functools.partial(np.array, dtype=np.float64), "_pow": _lanes(math.pow),
    "_abs": np.abs, "_sign": _lanes(_sign), "_sin": np.sin, "_cos": np.cos,
    "_tan": _lanes(math.tan), "_exp": _lanes(math.exp), "_ln": _lanes(math.log),
    "_sqrt": np.sqrt, "_sinh": _lanes(math.sinh), "_cosh": _lanes(math.cosh),
}


class _Emitter:
    """Straight-line source for a list of trees: one local per distinct
    subtree, assigned where the tree walk first reaches it.  Each node's
    value depends only on its operands, so a subtree that repeats (common
    across the partial derivatives of one expression) is computed once
    with the same bits."""

    def __init__(self, variables: tuple[str, ...]):
        self.variables = variables
        self.used: set[int] = set()  # positions i of the variables read, as x{i}
        self.consts: list[float] = []
        self.names: dict[tuple, str] = {}
        self.lines: list[str] = []

    def emit(self, node: Node) -> str:
        """Name of the local that holds ``node``'s value."""
        if isinstance(node, (Num, Const)):
            value = node.value if isinstance(node, Num) else CONSTANTS[node.name]
            # keyed by the bits, so -0.0 and 0.0 (and each nan) stay apart
            key = ("k", struct.pack("<d", value))
            name = self.names.get(key)
            if name is None:
                name = self.names[key] = f"k{len(self.consts)}"
                self.consts.append(value)
            return name
        if isinstance(node, Var):
            if node.name not in self.variables:
                raise ValueError(f"variable {node.name!r} not among {self.variables}")
            i = self.variables.index(node.name)
            self.used.add(i)
            return f"x{i}"
        if isinstance(node, Neg):
            a = self.emit(node.arg)
            return self._assign(("neg", a), f"-{a}")
        if isinstance(node, BinOp):
            a = self.emit(node.left)
            b = self.emit(node.right)
            code = f"_pow({a}, {b})" if node.op == "^" else f"{a} {node.op} {b}"
            return self._assign((node.op, a, b), code)
        a = self.emit(node.arg)
        return self._assign((node.fn, a), f"_{node.fn}({a})")

    def _assign(self, key: tuple, code: str) -> str:
        name = self.names.get(key)
        if name is None:
            name = self.names[key] = f"t{len(self.lines)}"
            self.lines.append(f"{name} = {code}")
        return name


def _nested(tree, values):
    """The next values of the iterator ``values`` nested as ``tree`` is:
    a value for an expression, a tuple for a list."""
    if isinstance(tree, Expression):
        return next(values)
    return tuple([_nested(part, values) for part in tree])


def compile(exprs, variables):
    """One function ``fn(*values)`` returning the values of ``exprs`` at
    ``variables`` bound positionally to ``values``.  ``exprs`` is an
    Expression or a (nested) list of them, and the result nests alike: a
    float for an Expression, a tuple for a list.

    The generated code makes the tree walk's operations in its order
    (``math.pow`` for ``^``, the same ``math`` functions, ``float()`` of
    each variable), computing a repeated subtree once, so every value has
    the bits ``evaluate`` gives.  When
    it fails with ArithmeticError or ValueError it re-runs ``evaluate``
    over the same expressions in the same order (depth first), which
    raises the EvalDomainError the tree walk raises.

    ``fn.columns(*columns)`` runs the same generated code once on (N,)
    float64 columns, one per variable (see ``_columns``): the (N,) column
    of each expression, with the bits of ``fn`` lane by lane, as one flat
    tuple in depth-first order, or None where it declines.
    """
    if not isinstance(exprs, Expression):
        exprs = list(exprs)
    variables = tuple(variables)
    flat = _flattener(exprs)
    leaves = flat(exprs)  # the expressions, depth first
    emitter = _Emitter(variables)
    results = [emitter.emit(e.root) for e in leaves]
    args = [f"a{i}" for i in range(len(variables))]
    entry = [f"x{i} = _float(a{i})" for i in sorted(emitter.used)]
    cells = ["_fallback", *_HELPERS, *(f"k{i}" for i in range(len(emitter.consts)))]
    # the repr of a nest of local names, unquoted, is its display
    nested = repr(_nested(exprs, iter(results))).replace("'", "")
    body = entry + emitter.lines + [f"return {nested}"]
    source = "\n".join([
        f"def _make({', '.join(cells)}):",
        f"    def compiled({', '.join(args)}):",
        "        try:",
        *(f"            {line}" for line in body),
        "        except (ArithmeticError, ValueError):",
        f"            return _fallback({', '.join(args)})",
        "    return compiled",
    ])

    def fallback(*values):
        env = dict(zip(variables, values))
        return _nested(exprs, (_eval(e.root, env) for e in leaves))

    namespace: dict = {}
    exec(source, namespace)
    make = namespace["_make"]
    compiled = make(fallback, *_HELPERS.values(), *emitter.consts)
    compiled.columns = _columns(make, emitter.consts, flat)
    return compiled


def _flattener(tree):
    """The function taking a value nested as ``tree`` (tuples or lists) to
    the tuple of its leaves' values, depth first."""
    if isinstance(tree, Expression):
        return lambda value: (value,)
    if all(isinstance(part, Expression) for part in tree):
        return tuple
    parts = [_flattener(part) for part in tree]
    return lambda value: tuple([x for f, part in zip(parts, value) for x in f(part)])


def _decline(*values):
    return None


def _columns(make, consts, flat):
    """``fn.columns``: the generated code of ``make`` bound to
    ``_COLUMN_HELPERS``, with the decline rule of the module docstring and
    the constants as numpy float64 scalars, its nested value read flat by
    ``flat``.  Every operation is then a numpy one (on columns or on
    float64 scalars, which the lane-wise functions also return) or a
    ``math`` call that raises: from finite
    constants and inputs, an operation that neither signals nor raises
    gives a finite value, so where the columns return, no lane raised on
    floats, every lane is finite, and each lane's operations are the float
    code's, correctly rounded alike.  Constant outputs are broadcast to the
    inputs' shape as the rows of one block (one np.full each cost more than
    a short pass), and no output shares memory with an input."""
    if not all(map(math.isfinite, consts)):
        return _decline
    evaluate = make(_decline, *(_COLUMN_HELPERS[name] for name in _HELPERS),
                    *map(np.float64, consts))

    def columns(*values):
        values = [np.asarray(x, dtype=np.float64) for x in values]
        if not all(np.isfinite(x).all() for x in values):
            return None
        with np.errstate(all="raise", under="ignore"):
            out = evaluate(*values)
        if out is None:
            return None
        out = flat(out)
        constant = [k for k, x in enumerate(out) if type(x) is not np.ndarray]
        block = np.empty((len(constant), *(values[0].shape if values else ())))
        block.T[...] = [out[k] for k in constant]
        rows = dict(zip(constant, block))
        return tuple([rows.get(k, x) for k, x in enumerate(out)])

    return columns


# ---------------------------------------------------------------------------
# Differentiation (exact; folds constant subtrees, nothing more)


def _is_num(node: Node, value: float | None = None) -> bool:
    return isinstance(node, Num) and (value is None or node.value == value)


def _add(a: Node, b: Node) -> Node:
    if _is_num(a) and _is_num(b):
        return Num(a.value + b.value)
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    return BinOp("+", a, b)


def _sub(a: Node, b: Node) -> Node:
    if _is_num(a) and _is_num(b):
        return Num(a.value - b.value)
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return _neg(b)
    return BinOp("-", a, b)


def _neg(a: Node) -> Node:
    if _is_num(a, 0.0):
        return Num(0.0)
    if _is_num(a):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _mul(a: Node, b: Node) -> Node:
    if _is_num(a) and _is_num(b):
        return Num(a.value * b.value)
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    return BinOp("*", a, b)


def _div(a: Node, b: Node) -> Node:
    if _is_num(a, 0.0):
        return Num(0.0)
    if _is_num(b, 1.0):
        return a
    if _is_num(a) and _is_num(b) and b.value != 0.0:
        return Num(a.value / b.value)
    return BinOp("/", a, b)


def _pow(a: Node, b: Node) -> Node:
    if _is_num(b, 1.0):
        return a
    if _is_num(b, 0.0):
        return Num(1.0)
    if _is_num(a) and _is_num(b):
        try:
            return Num(math.pow(a.value, b.value))
        except (ValueError, OverflowError):
            pass  # keep symbolic; evaluation will report the domain error
    return BinOp("^", a, b)


def _call(fn: str, arg: Node) -> Node:
    if _is_num(arg):
        try:
            return Num(_eval(Call(fn, arg), {}))
        except EvalDomainError:
            pass
    return Call(fn, arg)


def _diff(node: Node, var: str) -> Node:
    if isinstance(node, (Num, Const)):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0) if node.name == var else Num(0.0)
    if isinstance(node, Neg):
        return _neg(_diff(node.arg, var))
    if isinstance(node, BinOp):
        u, v = node.left, node.right
        du, dv = _diff(u, var), _diff(v, var)
        if node.op == "+":
            return _add(du, dv)
        if node.op == "-":
            return _sub(du, dv)
        if node.op == "*":
            return _add(_mul(du, v), _mul(u, dv))
        if node.op == "/":
            return _div(_sub(_mul(du, v), _mul(u, dv)), _pow(v, Num(2.0)))
        # '^': constant exponent gets the plain power rule (valid for
        # negative bases too); the general case goes through exp/ln.
        if _is_num(v):
            return _mul(_mul(v, _pow(u, Num(v.value - 1.0))), du)
        return _mul(
            _pow(u, v),
            _add(_mul(dv, _call("ln", u)), _mul(v, _div(du, u))),
        )
    # Call
    u, du = node.arg, _diff(node.arg, var)
    fn = node.fn
    if fn == "sin":
        return _mul(_call("cos", u), du)
    if fn == "cos":
        return _neg(_mul(_call("sin", u), du))
    if fn == "tan":
        return _div(du, _pow(_call("cos", u), Num(2.0)))
    if fn == "exp":
        return _mul(_call("exp", u), du)
    if fn == "ln":
        return _div(du, u)
    if fn == "sqrt":
        return _div(du, _mul(Num(2.0), _call("sqrt", u)))
    if fn == "sinh":
        return _mul(_call("cosh", u), du)
    if fn == "cosh":
        return _mul(_call("sinh", u), du)
    if fn == "abs":
        return _mul(_call("sign", u), du)
    # sign is piecewise constant: zero derivative away from the corner
    return Num(0.0)


def differentiate(e: Expression, var: str) -> Expression:
    """Exact symbolic partial derivative with respect to ``var``.

    Constant subtrees are folded so repeated application stays compact.
    abs differentiates to a sign factor whose evaluation at exactly 0 raises
    EvalDomainError instead of silently picking a branch.
    """
    if var not in e.variables:
        raise ValueError(f"variable {var!r} not declared for this expression")
    return Expression(_diff(e.root, var), e.variables)


# ---------------------------------------------------------------------------
# Unparsing (re-parseable, structure-preserving)

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_NEG, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(node: Node) -> int:
    if isinstance(node, Num):
        return _LEVEL_NEG if node.value < 0 else _LEVEL_ATOM
    if isinstance(node, (Var, Const, Call)):
        return _LEVEL_ATOM
    if isinstance(node, Neg):
        return _LEVEL_NEG
    return {"+": _LEVEL_ADD, "-": _LEVEL_ADD, "*": _LEVEL_MUL, "/": _LEVEL_MUL, "^": _LEVEL_POW}[node.op]


def _wrap(node: Node, minimum: int) -> str:
    text = _unparse(node)
    return f"({text})" if _level(node) < minimum else text


def _unparse(node: Node) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Const):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({_unparse(node.arg)})"
    if isinstance(node, Neg):
        return f"-{_wrap(node.arg, _LEVEL_NEG)}"
    if node.op in "+-":
        return f"{_wrap(node.left, _LEVEL_ADD)} {node.op} {_wrap(node.right, _LEVEL_ADD + 1)}"
    if node.op in "*/":
        return f"{_wrap(node.left, _LEVEL_MUL)}{node.op}{_wrap(node.right, _LEVEL_MUL + 1)}"
    return f"{_wrap(node.left, _LEVEL_ATOM)}^{_wrap(node.right, _LEVEL_NEG)}"


def unparse(e: Expression) -> str:
    """Render back to source text that re-parses to an equivalent tree."""
    return _unparse(e.root)
