"""Expression language: grammar, compiled evaluation, errors, round trips."""

import math
import random

import numpy as np
import pytest

from oracles import format_expr
from pendavg.expr import (
    COMPILE_CACHE_SIZE,
    BinOp,
    Call,
    Const,
    ExprSyntaxError,
    Neg,
    Num,
    Var,
    VARIABLES,
    compile_expr,
    diff,
    harmonic_bound,
    kinks,
    parse,
)
from pendavg.constants import T1, T2

# (tau, th1, th1d, th2, th2d)
ENV = (0.7, 0.3, -0.2, 1.1, 0.4)

W1 = math.sqrt(2.0 - math.sqrt(2.0))
W2 = math.sqrt(2.0 + math.sqrt(2.0))


def _at(text, env=ENV):
    return compile_expr(parse(text))(*env)


def test_parse_corollary1_forcing_structure():
    e = parse("(1 - th1^2) * sin(w1 * tau)")
    assert e == BinOp(
        "*",
        BinOp("-", Num(1.0), BinOp("^", Var("th1"), Num(2.0))),
        Call("sin", BinOp("*", Const("w1"), Var("tau"))),
    )


def test_parse_corollary2_forcing_structure():
    e = parse("th2d + th1^2 * cos(w2 * tau)")
    assert e == BinOp(
        "+",
        Var("th2d"),
        BinOp("*", BinOp("^", Var("th1"), Num(2.0)), Call("cos", BinOp("*", Const("w2"), Var("tau")))),
    )


def test_parse_zero_is_constant():
    assert parse("0") == Num(0.0)
    assert _at("0") == 0.0


def test_eval_reserved_constants():
    assert _at("w1") == W1
    assert _at("w2") == W2
    assert _at("sin(pi/2)") == 1.0


def test_precedence_and_unary_minus():
    assert _at("1 + 2 * 3") == 7.0
    assert _at("-th1^2") == -(0.3**2)
    assert _at("2 * -3") == -6.0
    assert _at("2^-2") == 0.25
    assert _at("th1^(-2)") == 0.3**-2
    assert _at("1 - 2 - 3") == -4.0
    assert _at("12 / 2 / 3") == 2.0


@pytest.mark.parametrize(
    "text",
    ["2x", "(1 + ", "sin th1", "1 +* 2", "", "foo + 1", "sin(th1, th2)", "th1^th2", "th1("],
)
def test_syntax_errors_carry_offsets(text):
    with pytest.raises(ExprSyntaxError) as err:
        parse(text)
    assert err.value.offset >= 0


def test_unknown_identifier_message():
    with pytest.raises(ExprSyntaxError, match="unknown identifier 'theta'"):
        parse("theta + 1")


def test_arity_mismatch_message():
    with pytest.raises(ExprSyntaxError, match="takes 1 argument"):
        parse("sin(1, 2)")


def test_implicit_multiplication_rejected():
    with pytest.raises(ExprSyntaxError, match="implicit multiplication"):
        parse("2 th1")


@pytest.mark.parametrize(
    "text",
    [
        "sqrt(0 - 1)",
        "1 / (th1 - th1)",
        "0^(-1)",
        "(0 - 2)^0.5",
        "exp(1e308)",
        "1/0",
        "pi / (pi - pi)",
        "th1 * (0 - 2)^0.5",
    ],
)
def test_domain_faults_come_back_non_finite(text):
    # Faults in literal-only subexpressions too: no exception, no complex
    # value.  Callers evaluate inside one errstate, as here.
    fn = compile_expr(parse(text))
    grid = np.linspace(0.1, 2.0, 7)
    with np.errstate(all="ignore"):
        values = fn(*ENV), fn(grid, grid, grid, grid, grid)
    for value in values:
        assert np.isrealobj(value)
        assert not np.isfinite(value).any()


def test_integer_exponent_allows_negative_base():
    assert _at("(0 - 2)^3") == -8.0
    assert _at("(0 - 2)^2") == 4.0


def test_nonfinite_input_comes_back_non_finite():
    # Non-finite states are not rejected here: they flow through to the
    # finiteness checks of quadrature and the integrators.
    with np.errstate(all="ignore"):
        assert _at("th1", (0.0, math.inf, 0.0, 0.0, 0.0)) == math.inf
        assert math.isnan(_at("0 * th1", (0.0, math.inf, 0.0, 0.0, 0.0)))


def test_eval_is_pure():
    fn = compile_expr(parse("sin(w1 * tau) * exp(th1) - th2d / 3"))
    assert fn(*ENV) == fn(*ENV)


_CORPUS = [
    "0",
    "w1",
    "(1 - th1^2) * sin(w1 * tau)",
    "th2d + th1^2 * cos(w2 * tau)",
    "-(th1 + th2) / (1 + tau)",
    "exp(-tau) * abs(th1d - th2d)",
    "sqrt(th1^2 + 1) - 2 ^ -3",
    "1 - 2 - 3 - th1",
    "1 / 2 / (3 / tau)",
    "-sin(pi * tau) * -cos(pi * th2)",
]


@pytest.mark.parametrize("text", _CORPUS)
def test_format_round_trip_on_corpus(text):
    e = parse(text)
    assert parse(format_expr(e)) == e


def _random_expr(rng, depth):
    # Stays within the parser's image: literals are non-negative (a leading
    # minus always parses as negation, never as part of the number).
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(
            [
                Num(round(rng.uniform(0, 5), 3)),
                Var(rng.choice(["tau", "th1", "th1d", "th2", "th2d"])),
                Const(rng.choice(["pi", "w1", "w2"])),
            ]
        )
    kind = rng.random()
    if kind < 0.15:
        return Neg(_random_expr(rng, depth - 1))
    if kind < 0.35:
        return Call(rng.choice(["sin", "cos", "exp", "abs"]), _random_expr(rng, depth - 1))
    if kind < 0.45:
        return BinOp("^", _random_expr(rng, depth - 1), Num(float(rng.randint(0, 4))))
    op = rng.choice(["+", "-", "*", "/"])
    return BinOp(op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))


def test_format_round_trip_on_random_trees():
    rng = random.Random(1234)
    for _ in range(300):
        e = _random_expr(rng, 4)
        assert parse(format_expr(e)) == e


def test_parser_never_crashes_on_junk():
    # Whatever bytes arrive from a config file or flag, the parser either
    # returns an Expr or raises its own syntax error, nothing else.
    rng = random.Random(7)
    alphabet = "01234567890.+-*/^()abcdefgwxyz_ ,\tsincoexpqrtau"
    for _ in range(500):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
        try:
            parse(text)
        except ExprSyntaxError:
            pass


# Hand-written values of every _CORPUS entry without '/' (random points
# could hit a zero divisor), independent of the parser and the compiler.
_REFERENCE = {
    "0": lambda tau, th1, th1d, th2, th2d: 0.0,
    "w1": lambda tau, th1, th1d, th2, th2d: W1,
    "(1 - th1^2) * sin(w1 * tau)": (
        lambda tau, th1, th1d, th2, th2d: (1 - th1**2) * np.sin(W1 * tau)
    ),
    "th2d + th1^2 * cos(w2 * tau)": (
        lambda tau, th1, th1d, th2, th2d: th2d + th1**2 * np.cos(W2 * tau)
    ),
    "exp(-tau) * abs(th1d - th2d)": (
        lambda tau, th1, th1d, th2, th2d: math.exp(-tau) * abs(th1d - th2d)
    ),
    "sqrt(th1^2 + 1) - 2 ^ -3": (
        lambda tau, th1, th1d, th2, th2d: math.sqrt(th1**2 + 1) - 0.125
    ),
    "1 - 2 - 3 - th1": lambda tau, th1, th1d, th2, th2d: -4.0 - th1,
    "-sin(pi * tau) * -cos(pi * th2)": (
        lambda tau, th1, th1d, th2, th2d: math.sin(math.pi * tau) * math.cos(math.pi * th2)
    ),
}


def test_compiled_matches_hand_written_formulas():
    assert sorted(_REFERENCE) == sorted(t for t in _CORPUS if "/" not in t)
    rng = random.Random(99)
    for text, reference in _REFERENCE.items():
        fn = compile_expr(parse(text))
        for _ in range(25):
            env = [rng.uniform(0.1, 2.0) for _ in range(5)]
            got = float(fn(*env))
            assert math.isclose(reference(*env), got, rel_tol=1e-13, abs_tol=1e-13)


def test_compiled_broadcasts_over_arrays():
    text = "(1 - th1^2) * sin(w1 * tau)"
    fn = compile_expr(parse(text))
    taus = np.linspace(0.0, 5.0, 11)
    th1 = np.linspace(-1.0, 1.0, 11)
    out = fn(taus, th1, 0.0, 0.0, 0.0)
    assert out.shape == (11,)
    assert compile_expr(parse("th1"))(taus, th1, 0.0, 0.0, 0.0) is not th1
    for i in range(11):
        want = _REFERENCE[text](taus[i], th1[i], 0.0, 0.0, 0.0)
        assert math.isclose(out[i], want, rel_tol=1e-14, abs_tol=1e-14)


def test_the_compile_cache_is_bounded():
    # A process that compiles forcing after forcing keeps at most the bound.
    for k in range(200):
        compile_expr(parse(f"{k + 1} * sin(w1 * tau)"))
    assert compile_expr.cache_info().currsize <= COMPILE_CACHE_SIZE


def test_a_repeated_forcing_hits_the_compile_cache():
    expr = parse("(1 - th1^2) * sin(w1 * tau) + 0.25")
    first = compile_expr(expr)
    hits = compile_expr.cache_info().hits
    assert compile_expr(parse("(1 - th1^2) * sin(w1 * tau) + 0.25")) is first
    assert compile_expr.cache_info().hits == hits + 1


def test_the_parse_cache_is_bounded():
    for k in range(200):
        parse(f"{k + 1} * cos(w2 * tau)")
    assert parse.cache_info().currsize <= COMPILE_CACHE_SIZE


def test_a_repeated_forcing_hits_the_parse_cache():
    first = parse("(1 - th1^2) * sin(w1 * tau) + 0.5")
    hits = parse.cache_info().hits
    assert parse("(1 - th1^2) * sin(w1 * tau) + 0.5") is first
    assert parse.cache_info().hits == hits + 1


@pytest.mark.parametrize(
    "text, p, period, bound",
    [
        ("0", 1, T1, 0),
        ("1/0", 1, T1, 0),
        ("th1", 1, T1, 1),
        ("-th2d / sqrt(2)", 2, 2 * T1, 2),
        ("th1^0", 1, T1, 0),
        ("(th1 + th2) * (th1d - th2d)", 1, T2, 2),
        ("(1 - th1^2) * sin(w1 * tau)", 1, T1, 3),
        ("(1 - th1^2) * sin(w1 * tau)", 2, 2 * T1, 6),
        ("th2d + th1^2 * cos(w2 * tau)", 1, T2, 3),
        ("1.25 * ((1 - 0.75 * th1^2) * sin(w1 * tau + 2.5))", 1, T1, 3),
        ("1.25 * ((1 - 0.75 * th1^2) * sin(w1 * tau + 2.5))", 2, 2 * T1, 6),
        ("sin(w1 * tau / 2)", 2, 2 * T1, 1),
        ("cos(w1 * (tau + 1)) * sin(-w1 * tau)", 1, T1, 2),
        ("sin(w2 * tau)^3", 1, T2, 3),
        ("th1^2 * sin(5 * w1 * tau)", 1, T1, 7),
        ("sin(w1 * tau^1)", 1, T1, 1),
        # A tau-reading product with an exact zero factor in a trig call.
        ("sin(sin((pi * tau * (tau * 0))^3))", 1, T1, 0),
        ("w2 + sin((0^0.5 * -tau)^3)", 1, T2, 0),
    ],
)
def test_harmonic_bound_of_a_band_limited_forcing(text, p, period, bound):
    assert harmonic_bound(parse(text), p, period) == bound


@pytest.mark.parametrize(
    "text",
    [
        "sin(th1)",
        "sqrt(1 + th1^2)",
        "abs(th2d)",
        "exp(th1) * sin(w1 * tau)",
        "tau",
        "0 * tau",
        "th1 / th2",
        "th1 / cos(w1 * tau)",
        "th1^-1",
        "th1^0.5",
        "sin(pi * tau)",
        "sin(tau * tau)",
        "cos(tau / tau)",
        "sin(w1 * tau + 0 * th1)",
    ],
)
def test_harmonic_bound_is_none_beyond_the_rules(text):
    # A state inside a trig call, sqrt, abs or exp of a non-constant, tau
    # outside a trig call, division by a non-constant, a negative or
    # fractional power, and a non-integer or non-affine frequency.
    assert harmonic_bound(parse(text), 1, T1) is None


@pytest.mark.parametrize(
    "text, want",
    [
        ("(1 - th1^2) * sin(w1 * tau)", []),
        ("abs(th2d) * sin(w1 * tau)", ["th2d"]),
        ("0 * sqrt(4.686291501015239 + 0.3 - th2d^2)", ["4.686291501015239 + 0.3 - th2d^2"]),
        ("(th1^2)^0.5 + th2^-1 + th1^3 + abs(-3) + sqrt(pi)", ["th1^2"]),
        ("sqrt(abs(th1 - tau)) + abs(th1 - tau)", ["abs(th1 - tau)", "th1 - tau"]),
        ("abs(sin(w1 * tau))", ["sin(w1 * tau)"]),
    ],
)
def test_kinks_are_the_arguments_of_abs_sqrt_and_fractional_powers(text, want):
    # Each argument once, in the order met; one that reads no variable and
    # the base of an integer power are no kinks.
    assert kinks(parse(text)) == tuple(parse(w) for w in want)


# Factors of a rate: each a number or a constant expression, all of them
# powers of 2 times 1 or 3, so that every rate is exact enough to land on
# an integer harmonic to roundoff when it is one.
_FACTORS = ("1", "2", "3", "0.5", "cos(0)", "sqrt(4)", "2^2", "abs(-3)", "exp(0)", "(1/4)")
_OFFSETS = ("pi", "w2", "sin(1)", "sqrt(2)", "exp(0.5)", "-1.5")


def _random_tau_affine(rng, depth):
    """Text of a random ``a * tau + b`` from the grammar, with no state in it."""
    if depth == 0 or rng.random() < 0.25:
        return "tau" if rng.random() < 0.5 else rng.choice(_OFFSETS)
    u = _random_tau_affine(rng, depth - 1)
    kind = rng.randrange(6)
    if kind == 0:
        return f"-({u})"
    if kind == 1:
        return f"({u}) {rng.choice('+-')} ({_random_tau_affine(rng, depth - 1)})"
    if kind == 2:
        return f"{rng.choice(_FACTORS)} * ({u})"
    if kind == 3:
        return f"({u}) * {rng.choice(_FACTORS)}"
    if kind == 4:
        return f"({u}) / {rng.choice(_FACTORS)}"
    return f"({u})^1"


def test_harmonic_bound_of_a_random_tau_affine_argument_is_its_measured_rate():
    # The rate of each argument, measured by a central difference of its
    # compiled function, is the harmonic the bound gives, or, when it is
    # no integer, the bound is None.
    rng = random.Random(31)
    bounds = []
    for _ in range(400):
        frequency, period = rng.choice((("w1", T1), ("w1", 2 * T1), ("w2", T2)))
        scale = rng.choice(("1", "0.5", "0.75"))
        arg = parse(f"{frequency} * {scale} * ({_random_tau_affine(rng, 4)})")
        f = compile_expr(arg)
        h = 1e-3
        rate = (f(0.7 + h, *ENV[1:]) - f(0.7 - h, *ENV[1:])) / (2.0 * h)
        harmonic = abs(rate) * period / (2.0 * math.pi)
        integral = abs(harmonic - round(harmonic)) < 1e-6
        bound = harmonic_bound(Call(rng.choice(("sin", "cos")), arg), 1, period)
        assert bound == (round(harmonic) if integral else None), format_expr(arg)
        bounds.append(bound)
    # Each kind of verdict comes often: None, 0 and a higher harmonic.
    assert min(bounds.count(None), bounds.count(0), sum(map(bool, bounds))) > 50


# ---------------------------------------------------------------------------
# Derivatives
# ---------------------------------------------------------------------------

def _full_random_expr(rng, depth):
    # The whole closed grammar, sqrt and negative and fractional exponents
    # included; literals stay away from 0 so few trees are constant.
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(
            [
                Num(round(rng.uniform(0.5, 3.0), 3)),
                Var(rng.choice(VARIABLES)),
                Const(rng.choice(["pi", "w1", "w2"])),
            ]
        )
    kind = rng.random()
    if kind < 0.1:
        return Neg(_full_random_expr(rng, depth - 1))
    if kind < 0.35:
        func = rng.choice(["sin", "cos", "sqrt", "exp", "abs"])
        return Call(func, _full_random_expr(rng, depth - 1))
    if kind < 0.5:
        exponent = rng.choice([0.0, 1.0, 2.0, 3.0, -1.0, -2.0, 0.5, 1.5])
        return BinOp("^", _full_random_expr(rng, depth - 1), Num(exponent))
    op = rng.choice(["+", "-", "*", "/"])
    return BinOp(op, _full_random_expr(rng, depth - 1), _full_random_expr(rng, depth - 1))


def _names(node):
    if isinstance(node, Var):
        return {node.name}
    children = {Neg: ("operand",), Call: ("arg",), BinOp: ("lhs", "rhs")}.get(type(node), ())
    return set().union(*(_names(getattr(node, c)) for c in children))


def _central_difference(f, points, i, h):
    up, down = points.copy(), points.copy()
    up[i] += h
    down[i] -= h
    return (f(*up) - f(*down)) / (up[i] - down[i])


def test_diff_matches_central_differences_on_random_trees():
    # At every point where the tree is smooth on the scale of both steps
    # (their differences agree), the compiled partial meets the finer one.
    # A partial in a variable the tree does not read is the literal 0.
    rng = random.Random(2027)
    points = np.random.default_rng(5).uniform(-1.5, 1.5, size=(5, 64))
    compared = zeros = 0
    for _ in range(400):
        e = _full_random_expr(rng, 4)
        f = compile_expr(e)
        for i, name in enumerate(VARIABLES):
            d = diff(e, name)
            if name not in _names(e):
                assert d == Num(0.0)
                zeros += 1
                continue
            with np.errstate(all="ignore"):
                got = np.broadcast_to(compile_expr(d)(*points), points.shape[1:])
                value = np.broadcast_to(f(*points), points.shape[1:])
                coarse = _central_difference(f, points, i, 1e-3)
                fine = _central_difference(f, points, i, 1e-4)
            smooth = (
                np.isfinite(value)
                & np.isfinite(coarse)
                & np.isfinite(fine)
                & (np.abs(coarse - fine) <= 1e-5 * (1.0 + np.abs(fine)))
            )
            gap = np.abs(got[smooth] - fine[smooth])
            assert (gap <= 1e-6 * (1.0 + np.abs(fine[smooth]) + np.abs(value[smooth]))).all(), e
            compared += int(smooth.sum())
    assert compared > 15_000 and zeros > 100


@pytest.mark.parametrize(
    "text, var, want",
    [
        ("abs(th1)", "th1", lambda th1, th2: np.sign(th1)),
        ("abs(th1 - th2)", "th2", lambda th1, th2: -np.sign(th1 - th2)),
        ("sqrt(th1^2 + 1)", "th1", lambda th1, th2: th1 / np.sqrt(th1**2 + 1.0)),
        ("sqrt(th1)", "th1", lambda th1, th2: 0.5 / np.sqrt(th1)),
        ("th1^-2", "th1", lambda th1, th2: -2.0 * th1**-3.0),
        ("th1^(-0.5)", "th1", lambda th1, th2: -0.5 * th1**-1.5),
        ("th1^1.5", "th1", lambda th1, th2: 1.5 * th1**0.5),
        ("th1 / th2", "th1", lambda th1, th2: 1.0 / th2),
        ("th1 / th2", "th2", lambda th1, th2: -th1 / th2**2),
        ("(1 + th1) / (2 - th1)", "th1", lambda th1, th2: 3.0 / (2.0 - th1) ** 2),
        ("exp(th1 * th2)", "th1", lambda th1, th2: th2 * np.exp(th1 * th2)),
        ("sin(th1)^3", "th1", lambda th1, th2: 3.0 * np.sin(th1) ** 2 * np.cos(th1)),
        ("-cos(th2) * th1", "th2", lambda th1, th2: np.sin(th2) * th1),
    ],
)
def test_diff_by_hand(text, var, want):
    th1 = np.array([0.25, 0.5, 1.25, 3.0])
    th2 = np.array([0.75, -1.5, 0.5, -2.0])
    got = compile_expr(diff(parse(text), var))(0.0, th1, 0.0, th2, 0.0)
    assert got == pytest.approx(want(th1, th2), rel=1e-14, abs=1e-300)


def test_the_partial_of_abs_is_zero_at_zero():
    d = compile_expr(diff(parse("abs(th1 - 1) * th2"), "th1"))
    with np.errstate(invalid="ignore"):
        got = d(0.0, np.array([1.0, 3.0, -1.0, 1.0]), 0.0, np.array([2.0, 2.0, 2.0, np.inf]), 0.0)
    assert got[:3].tolist() == [0.0, 2.0, -2.0]
    # sign(0) * inf is NaN: the value's own fault, not the partial's.
    assert np.isnan(got[3])


def test_diff_simplifies_unread_and_cancelled_terms():
    corollary1 = parse("(1 - th1^2) * sin(w1 * tau)")
    assert diff(corollary1, "th2d") == Num(0.0)
    assert diff(corollary1, "th1") == BinOp(
        "*",
        Neg(BinOp("*", Num(2.0), Var("th1"))),
        Call("sin", BinOp("*", Const("w1"), Var("tau"))),
    )
    assert diff(parse("0 * sqrt(9 - th1^2)"), "th1") == Num(0.0)
    assert diff(parse("th2d + th1^2 * cos(w2 * tau)"), "th2d") == Num(1.0)
    assert diff(parse("th1^0"), "th1") == Num(0.0)
    assert diff(parse("th1^3"), "th1") == BinOp("*", Num(3.0), BinOp("^", Var("th1"), Num(2.0)))
    assert diff(parse("th1^-1"), "th1") == BinOp("*", Num(-1.0), BinOp("^", Var("th1"), Num(-2.0)))


def test_forcing_text_cannot_name_the_derivative_of_abs():
    # ``sign`` is what ``diff`` writes for abs', not part of the grammar.
    with pytest.raises(ExprSyntaxError, match="unknown identifier 'sign'"):
        parse("sign(th1)")
