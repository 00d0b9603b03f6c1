"""Tiny expression language for user-supplied forcing functions.

Grammar (infix, no implicit multiplication):

    expr     := term (('+' | '-') term)*
    term     := unary (('*' | '/') unary)*
    unary    := '-' unary | power
    power    := atom ('^' exponent)?          # '^' is right-leaning but the
    exponent := ['-'] NUMBER | '(' exponent ')'  # exponent must be a literal
    atom     := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Recognized names:

    variables  tau, th1, th1d, th2, th2d
    constants  pi, w1 (slow mode frequency), w2 (fast mode frequency)
    functions  sin, cos, sqrt, exp, abs

``w1`` and ``w2`` are injected by the library so forcing text can hit the
pendulum mode frequencies exactly instead of going through truncated
decimals.  Exponents are restricted to numeric literals: integer exponents
are real for any nonzero base, real exponents only for positive bases.

Expressions are immutable after parsing, and :func:`parse`,
:func:`compile_expr` and :func:`diff` are cached, so each forcing text of a
run is parsed, differentiated and compiled once.  :func:`compile_expr` is
the one evaluator: its functions are pure and reentrant, and return every
domain fault (sqrt of a negative, ``1/0``, overflow, ...) as NaN or inf,
never as an exception.  Callers evaluate inside ``np.errstate(all="ignore")``
and check finiteness.  :func:`diff` differentiates an expression in one
variable, as an expression of the same nodes that ``compile_expr`` compiles
(plus ``sign``, the derivative of ``abs``, which forcing text cannot name).
:func:`harmonic_bound` reads from the AST and its ``tau`` partials how
many harmonics a forcing can have along an orbit of one frequency, and
:func:`kinks` where it may stop being smooth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import OMEGA1, OMEGA2

VARIABLES = ("tau", "th1", "th1d", "th2", "th2d")

CONSTANTS = {
    "pi": math.pi,
    "w1": OMEGA1,
    "w2": OMEGA2,
}

FUNCTIONS = {"sin": np.sin, "cos": np.cos, "sqrt": np.sqrt, "exp": np.exp, "abs": np.abs}
# What a ``Call`` may name: the functions above, and the derivative of
# ``abs``, which only ``diff`` writes.  ``np.sign`` is 0 at 0, never NaN
# on a number.
_KERNELS = {**FUNCTIONS, "sign": np.sign}


class ExprSyntaxError(ValueError):
    """Malformed expression text.  ``offset`` is the byte offset of the fault."""

    def __init__(self, message, text, pos):
        self.offset = len(text[:pos].encode("utf-8"))
        super().__init__(f"{message} (byte offset {self.offset})")


class ExprDomainError(ArithmeticError):
    """A forcing came back NaN or inf where a finite value was needed."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Num | Var | Const | Neg | BinOp | Call


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_OPERATOR_CHARS = "+-*/^(),"


def _tokenize(text):
    """Yield (kind, value, position) triples; kind is 'num', 'name' or a symbol."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPERATOR_CHARS:
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lexeme = text[i:j]
            try:
                value = float(lexeme)
            except ValueError:
                raise ExprSyntaxError(f"bad number {lexeme!r}", text, i) from None
            tokens.append(("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", text, i)
    tokens.append(("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.advance()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {what}", self.text, tok[2])
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError(
                "unexpected trailing input (implicit multiplication is not allowed)",
                self.text,
                tok[2],
            )
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in "+-":
            op = self.advance()[0]
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in "*/":
            op = self.advance()[0]
            node = BinOp(op, node, self.unary())
        return node

    def unary(self):
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            return BinOp("^", base, self.exponent())
        return base

    def exponent(self):
        # The exponent of '^' must be a (possibly negated, possibly
        # parenthesized) numeric literal, so every power is real or NaN/inf.
        tok = self.peek()
        if tok[0] == "-":
            self.advance()
            inner = self.exponent()
            return Neg(inner)
        if tok[0] == "(":
            self.advance()
            inner = self.exponent()
            self.expect(")", "')'")
            return inner
        if tok[0] == "num":
            self.advance()
            return Num(tok[1])
        raise ExprSyntaxError("exponent of '^' must be a numeric literal", self.text, tok[2])

    def atom(self):
        tok = self.advance()
        kind, value, pos = tok
        if kind == "num":
            return Num(value)
        if kind == "(":
            node = self.expr()
            self.expect(")", "')'")
            return node
        if kind == "name":
            if value in FUNCTIONS:
                if self.peek()[0] != "(":
                    raise ExprSyntaxError(
                        f"function {value!r} needs a parenthesized argument", self.text, pos
                    )
                self.advance()
                args = [self.expr()]
                while self.peek()[0] == ",":
                    self.advance()
                    args.append(self.expr())
                self.expect(")", "')'")
                if len(args) != 1:
                    raise ExprSyntaxError(
                        f"function {value!r} takes 1 argument, got {len(args)}", self.text, pos
                    )
                return Call(value, args[0])
            if value in VARIABLES:
                node = Var(value)
            elif value in CONSTANTS:
                node = Const(value)
            else:
                raise ExprSyntaxError(f"unknown identifier {value!r}", self.text, pos)
            if self.peek()[0] == "(":
                raise ExprSyntaxError(f"{value!r} is not a function", self.text, self.peek()[2])
            return node
        if kind == "end":
            raise ExprSyntaxError("unexpected end of input", self.text, pos)
        raise ExprSyntaxError(f"unexpected {value!r}", self.text, pos)


# Parsed and compiled forcings kept per process.  A run uses two; the bound
# keeps a long-lived process that reads forcing after forcing at a fixed size.
COMPILE_CACHE_SIZE = 64


@lru_cache(maxsize=COMPILE_CACHE_SIZE)
def parse(text):
    """Parse expression text into an immutable AST (cached per text)."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Vectorized compilation
# ---------------------------------------------------------------------------

def _emit(node, literals):
    """Emit numpy source for a node; literal i is appended and named ``_num_<i>``."""
    if isinstance(node, Num):
        literals.append(node.value)
        return f"_num_{len(literals) - 1}"
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Const):
        return f"_const_{node.name}"
    if isinstance(node, Neg):
        return f"(-{_emit(node.operand, literals)})"
    if isinstance(node, Call):
        return f"_fn_{node.func}({_emit(node.arg, literals)})"
    if isinstance(node, BinOp):
        op = "**" if node.op == "^" else node.op
        return f"({_emit(node.lhs, literals)} {op} {_emit(node.rhs, literals)})"
    raise TypeError(f"not an expression node: {node!r}")


@lru_cache(maxsize=COMPILE_CACHE_SIZE)
def compile_expr(expr):
    """Compile an Expr into a numpy-vectorized function.

    The function takes (tau, th1, th1d, th2, th2d) and broadcasts like
    numpy; a constant expression returns a scalar even for array arguments,
    and callers needing a full grid broadcast it themselves.  Literals and
    constants are bound as numpy ``float64``, so no subexpression is Python
    scalar arithmetic: a domain fault anywhere, even among literals alone,
    comes back as NaN or inf.  numpy warns about such a fault, so callers
    (the periodicity audit, quadrature, integrators) evaluate inside one
    ``np.errstate(all="ignore")`` around many calls, then check finiteness
    and report.
    """
    literals = []
    body = _emit(expr, literals)
    if isinstance(expr, Var):
        body = f"+{body}"  # a copy, so the result never aliases an argument
    source = f"def _compiled(tau, th1, th1d, th2, th2d):\n    return {body}"
    namespace = {f"_fn_{name}": fn for name, fn in _KERNELS.items()}
    for i, value in enumerate(literals):
        namespace[f"_num_{i}"] = np.float64(value)
    for name, value in CONSTANTS.items():
        namespace[f"_const_{name}"] = np.float64(value)
    exec(compile(source, "<expr>", "exec"), namespace)  # noqa: S102 - source built from a closed AST
    return namespace["_compiled"]


# ---------------------------------------------------------------------------
# Derivatives
# ---------------------------------------------------------------------------

def _is(node, value):
    return isinstance(node, Num) and node.value == value


def _fold(op, a, b):
    """``a op b`` on two literals, as ``compile_expr`` would evaluate it (NaN or inf on a fault)."""
    x, y = np.float64(a.value), np.float64(b.value)
    with np.errstate(all="ignore"):
        return Num(float({"+": x + y, "-": x - y, "*": x * y, "/": x / y, "^": x**y}[op]))


def _neg(a):
    if isinstance(a, Num):
        return Num(-a.value)
    return a.operand if isinstance(a, Neg) else Neg(a)


def _add(a, b):
    if _is(a, 0.0):
        return b
    if _is(b, 0.0):
        return a
    return _fold("+", a, b) if isinstance(a, Num) and isinstance(b, Num) else BinOp("+", a, b)


def _sub(a, b):
    if _is(b, 0.0):
        return a
    if _is(a, 0.0):
        return _neg(b)
    return _fold("-", a, b) if isinstance(a, Num) and isinstance(b, Num) else BinOp("-", a, b)


def _mul(a, b):
    if _is(a, 0.0) or _is(b, 0.0):
        return Num(0.0)
    if _is(a, 1.0):
        return b
    if _is(b, 1.0):
        return a
    return _fold("*", a, b) if isinstance(a, Num) and isinstance(b, Num) else BinOp("*", a, b)


def _div(a, b):
    if _is(a, 0.0):
        return Num(0.0)
    if _is(b, 1.0):
        return a
    return _fold("/", a, b) if isinstance(a, Num) and isinstance(b, Num) else BinOp("/", a, b)


def _pow(base, n):
    if n == 0.0:
        return Num(1.0)
    return base if n == 1.0 else BinOp("^", base, Num(n))


def _literal(node):
    """The value of a ``^`` exponent: a number, negated any number of times."""
    return -_literal(node.operand) if isinstance(node, Neg) else node.value


# d/du of f(u), for each function f, in terms of the call f(u) itself.
_OUTER = {
    "sin": lambda call: Call("cos", call.arg),
    "cos": lambda call: _neg(Call("sin", call.arg)),
    "sqrt": lambda call: _div(Num(0.5), call),
    "exp": lambda call: call,
    "abs": lambda call: Call("sign", call.arg),
}


@lru_cache(maxsize=COMPILE_CACHE_SIZE)
def diff(expr, var):
    """The partial derivative of ``expr`` in the variable named ``var``, simplified.

    The chain, product and quotient rules, with ``u^n -> n u^(n-1) u'`` for
    the literal ``n`` and ``abs(u) -> sign(u) u'``, where ``sign`` is 0 at
    0.  Each rule simplifies as it builds: a term with a 0 factor is 0, a 1
    factor or 0 term drops, and ``+ - * /`` on two numbers is folded.  So
    the partial in a variable ``expr`` does not read is ``Num(0.0)``.  The
    result compiles with ``compile_expr``; where ``expr`` is finite, so is
    its partial, barring overflow, except at a 0 of a ``sqrt`` or of a base
    with exponent below 1.  Cached per ``(expr, var)``.
    """
    if isinstance(expr, (Num, Const)):
        return Num(0.0)
    if isinstance(expr, Var):
        return Num(1.0 if expr.name == var else 0.0)
    if isinstance(expr, Neg):
        return _neg(diff(expr.operand, var))
    if isinstance(expr, Call):
        inner = diff(expr.arg, var)
        return Num(0.0) if _is(inner, 0.0) else _mul(_OUTER[expr.func](expr), inner)
    u, v = expr.lhs, expr.rhs
    if expr.op == "^":
        n = _literal(v)
        return _mul(_mul(Num(n), _pow(u, n - 1.0)), diff(u, var))
    du, dv = diff(u, var), diff(v, var)
    if expr.op == "+":
        return _add(du, dv)
    if expr.op == "-":
        return _sub(du, dv)
    if expr.op == "*":
        return _add(_mul(du, v), _mul(u, dv))
    return _sub(_div(du, v), _div(_mul(u, dv), _pow(v, 2.0)))


@lru_cache(maxsize=COMPILE_CACHE_SIZE)
def kinks(expr):
    """The arguments at whose zeros ``expr`` may lose smoothness while it stays finite.

    The argument of each ``abs`` or ``sqrt`` and the base of each ``^``
    with a non-integer exponent, in the order met, each once; an argument
    that reads no variable is left out.  Away from their zeros the
    compiled ``expr`` is analytic wherever it is finite.  Cached per
    ``expr``.
    """
    found = []

    def walk(node):
        if isinstance(node, Neg):
            walk(node.operand)
        elif isinstance(node, Call):
            if node.func in ("abs", "sqrt") and not _constant(node.arg):
                found.append(node.arg)
            walk(node.arg)
        elif isinstance(node, BinOp):
            if node.op == "^" and not float(_literal(node.rhs)).is_integer() and not _constant(node.lhs):
                found.append(node.lhs)
            walk(node.lhs)
            walk(node.rhs)

    walk(expr)
    return tuple(dict.fromkeys(found))


# ---------------------------------------------------------------------------
# Harmonic bound
# ---------------------------------------------------------------------------

_SIMPLIFY = {"+": _add, "-": _sub, "*": _mul, "/": _div}


def _simplified(node):
    """``node`` rebuilt bottom-up by ``diff``'s simplifying rules, with ``^`` of two numbers folded.

    ``diff`` simplifies only what it builds and copies the untouched
    subtrees of its input as they are, so a partial can keep a factor such
    as ``tau * 0`` or ``0^0.5`` that reads a variable for nothing.
    """
    if isinstance(node, Neg):
        return _neg(_simplified(node.operand))
    if isinstance(node, Call):
        return Call(node.func, _simplified(node.arg))
    if not isinstance(node, BinOp):
        return node
    lhs, rhs = _simplified(node.lhs), _simplified(node.rhs)
    if node.op != "^":
        return _SIMPLIFY[node.op](lhs, rhs)
    return _fold("^", lhs, rhs) if isinstance(lhs, Num) else _pow(lhs, rhs.value)


def _constant(node, free=frozenset()):
    """True when ``node`` reads no variable but those named in ``free``."""
    if isinstance(node, Var):
        return node.name in free
    if isinstance(node, BinOp):
        return _constant(node.lhs, free) and _constant(node.rhs, free)
    if isinstance(node, (Neg, Call)):
        return _constant(node.operand if isinstance(node, Neg) else node.arg, free)
    return True


def _harmonics(node, p, period):
    if _constant(node):
        return 0
    if isinstance(node, Var):
        return None if node.name == "tau" else p
    if isinstance(node, Neg):
        return _harmonics(node.operand, p, period)
    if isinstance(node, Call):
        if node.func not in ("sin", "cos") or not _constant(node.arg, {"tau"}):
            return None
        rate = _simplified(diff(node.arg, "tau"))
        if not _constant(rate):
            return None
        h = abs(float(compile_expr(rate)(0.0, 0.0, 0.0, 0.0, 0.0))) * period / (2.0 * math.pi)
        if not math.isfinite(h) or abs(h - round(h)) > 64.0 * np.finfo(float).eps * max(h, 1.0):
            return None
        return round(h)
    if node.op == "/":
        return _harmonics(node.lhs, p, period) if _constant(node.rhs) else None
    if node.op == "^":
        n = node.rhs.value if isinstance(node.rhs, Num) else -1.0
        base = _harmonics(node.lhs, p, period)
        return None if base is None or n < 0 or not n.is_integer() else int(n) * base
    lhs, rhs = _harmonics(node.lhs, p, period), _harmonics(node.rhs, p, period)
    if lhs is None or rhs is None:
        return None
    return max(lhs, rhs) if node.op in "+-" else lhs + rhs


def harmonic_bound(expr, p, period):
    """The highest harmonic of ``expr`` along an orbit, in units of ``2 pi / period``; None if unbounded.

    On an orbit whose states each oscillate with harmonic ``p``, ``expr``
    is a trigonometric polynomial of ``tau`` of at most this degree.  A
    number or constant has 0 and a state ``p``; ``+`` and ``-`` take the
    max of their operands, ``*`` the sum, and ``^`` with a non-negative
    integer literal ``n`` takes ``n`` times its base.  ``sin`` or ``cos``
    of an argument that names no state and whose ``diff`` in ``tau`` is a
    constant ``a`` has ``|a| * period / (2 pi)`` if that is an integer to
    roundoff.  Anything else has no bound: ``sqrt``, ``exp``, ``abs`` or
    ``diff``'s ``sign`` of a non-constant, a state inside ``sin`` or
    ``cos``, a division by a non-constant, or ``tau`` outside ``sin`` or
    ``cos``.
    """
    with np.errstate(all="ignore"):
        return _harmonics(expr, p, period)
