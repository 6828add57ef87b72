"""Expression parser and evaluator."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from reference import coord, partial
from tractorlab import expr, jets


def test_parse_add_pow():
    tree = expr.parse("1 + x0^2")
    assert tree == expr.BinOp("+", expr.Const(1.0), expr.Pow(expr.Coord(0), 2))


def test_parse_functions():
    tree = expr.parse("sin(x1)*exp(-x0)")
    assert tree == expr.BinOp(
        "*", expr.Call("sin", expr.Coord(1)), expr.Call("exp", expr.Neg(expr.Coord(0)))
    )


def test_syntax_error_offset():
    with pytest.raises(expr.ExprSyntaxError) as err:
        expr.parse("x0 +")
    assert err.value.offset == 4


def test_unknown_identifier():
    with pytest.raises(expr.UnknownIdentifierError):
        expr.parse("foo + 1")


def test_empty_and_malformed():
    with pytest.raises(expr.ExprSyntaxError):
        expr.parse("   ")
    with pytest.raises(expr.ExprSyntaxError):
        expr.parse("(x0")
    with pytest.raises(expr.ExprSyntaxError):
        expr.parse("x0^x1")  # integer exponents only
    with pytest.raises(expr.ExprSyntaxError):
        expr.parse("exp(x0, x1)")


def test_precedence():
    assert expr.parse("-x0^2") == expr.Neg(expr.Pow(expr.Coord(0), 2))
    assert expr.parse("2*x0 + 1") == expr.BinOp(
        "+", expr.BinOp("*", expr.Const(2.0), expr.Coord(0)), expr.Const(1.0)
    )
    # left associativity
    assert expr.parse("1 - 2 - 3") == expr.BinOp(
        "-", expr.BinOp("-", expr.Const(1.0), expr.Const(2.0)), expr.Const(3.0)
    )


def _leaf():
    return st.one_of(
        st.integers(0, 3).map(expr.Coord),
        st.floats(0, 10, allow_nan=False).map(lambda v: expr.Const(round(v, 3))),
    )


def _tree():
    return st.recursive(
        _leaf(),
        lambda children: st.one_of(
            st.tuples(st.sampled_from("+-*/"), children, children).map(
                lambda t: expr.BinOp(t[0], t[1], t[2])
            ),
            st.tuples(children, st.integers(0, 4)).map(lambda t: expr.Pow(t[0], t[1])),
            children.map(expr.Neg),
            st.tuples(st.sampled_from(expr.FUNCTIONS), children).map(
                lambda t: expr.Call(t[0], t[1])
            ),
        ),
        max_leaves=25,
    )


@given(_tree())
@settings(max_examples=200, deadline=None)
def test_roundtrip(tree):
    printed = expr.to_string(tree)
    assert expr.parse(printed) == tree


def _evaluate(text, point, order):
    """The jet of one expression at one point, through a one-root `Program`."""
    return expr.Program([expr.parse(text)], len(point))(point, order)[0]


def test_eval_product():
    alg = jets.algebra(2, 1)
    j = _evaluate("x0*x1", (2.0, 3.0), 1)
    assert alg.value(j) == 6.0
    assert partial(alg, j, (1, 0)) == 3.0
    assert partial(alg, j, (0, 1)) == 2.0


def test_eval_exp_series():
    assert np.allclose(_evaluate("exp(x0)", (0.0,), 3), [1, 1, 0.5, 1 / 6])


def test_eval_domain_error_names_subexpression():
    with pytest.raises(expr.ExprEvalError) as err:
        _evaluate("ln(x0)", (0.0,), 2)
    assert "ln(x0)" in str(err.value)


def test_eval_coordinate_out_of_range():
    with pytest.raises(expr.ExprError):
        _evaluate("x5", (0.0, 0.0), 1)


# -- compiled programs against a recursive reference ---------------------------

EPS = np.finfo(float).eps
N = 4


def _assert_close(got, want, size=1.0):
    """Normwise: the largest error is at most 1e3 eps of the largest coefficient of
    `want`, or of `size` if that is larger.

    Both sides round differently (the Taylor shift against jet products, a
    matrix product against a vector product), and a function of a large
    argument spreads that rounding over coefficients much smaller than the
    largest, so coefficients are not compared one by one.  An expression
    whose value is small next to the values it is computed from (x^3 / x^3
    near x = 0 divides by a jet whose reciprocal has coefficients of order
    x^-6; sin of a large argument) is ill-conditioned, and both sides can
    differ by the rounding of those intermediate values.  So, as a forward
    error bound, `size` is the largest coefficient of any subexpression the
    reference evaluates, the reciprocal of each divisor included
    (`_reference(..., sizes)`).
    """
    assert got.shape == want.shape
    scale = max(1.0, size, np.abs(want).max(initial=0.0))
    assert np.abs(got - want).max(initial=0.0) <= 1e3 * EPS * scale


def _reference(node, point, order, sizes=None):
    """Recursive evaluation over `JetAlgebra` operations, one node at a time.

    `sizes`, if given, collects the largest coefficient magnitude of every
    subexpression and of the reciprocal of every divisor.
    """
    alg = jets.algebra(len(point), order)
    if isinstance(node, expr.Const):
        out = alg.const(node.value)
    elif isinstance(node, expr.Coord):
        out = coord(alg, node.index, point)
    elif isinstance(node, expr.Neg):
        out = -_reference(node.operand, point, order, sizes)
    elif isinstance(node, expr.Pow):
        out = alg.powi(_reference(node.base, point, order, sizes), node.exponent)
    elif isinstance(node, expr.Call):
        fn = {"exp": alg.exp, "ln": alg.log, "sin": alg.sin, "cos": alg.cos,
              "sqrt": alg.sqrt}[node.name]
        out = fn(_reference(node.arg, point, order, sizes))
    else:
        left = _reference(node.left, point, order, sizes)
        right = _reference(node.right, point, order, sizes)
        out = {"+": np.add, "-": np.subtract, "*": alg.mul, "/": alg.div}[node.op](left, right)
        if node.op == "/" and sizes is not None:
            sizes.append(np.abs(alg.reciprocal(right)).max())
    if sizes is not None:
        sizes.append(np.abs(out).max())
    return out


@given(_tree(), st.integers(0, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
# x0^3 / x0^3 at x0 = 0.0098: the two sides differed by 1.9e-9 against 1e3 eps
@example(tree=expr.Neg(expr.Neg(expr.BinOp("/", expr.Pow(expr.Coord(0), 3),
                                           expr.Pow(expr.Coord(0), 3)))),
         order=3, seed=1459)
# sin(8.312^4): the argument 4773.3 rounds differently on the two sides
@example(tree=expr.Neg(expr.Call("sin", expr.Pow(expr.Const(8.312), 4))), order=0, seed=0)
def test_program_matches_reference(tree, order, seed):
    point = np.random.default_rng(seed).uniform(-2.0, 2.0, N)
    sizes = []
    with np.errstate(all="ignore"):
        try:
            want = _reference(tree, point, order, sizes)
        except jets.JetDomainError:
            with pytest.raises(expr.ExprEvalError, match="in subexpression"):
                expr.Program([tree], N)(point, order)
            return
        got = expr.Program([tree], N)(point, order)[0]
    assume(np.all(np.isfinite(want)) and np.all(np.isfinite(sizes)))
    _assert_close(got, want, max(sizes))


def test_program_shares_only_equal_subtrees():
    # pairs of roots differ in one child, one label or one constant
    texts = ["exp(x0) + exp(x1)", "exp(x0) + exp(x2)", "exp(x1) + exp(x2)", "exp(x0) - exp(x1)",
             "exp(x1) - exp(x0)", "sin(x0)", "cos(x0)", "exp(x0)^2", "exp(x0)^3", "1/exp(x0)",
             "2/exp(x0)", "exp(x0)/2", "3*exp(x0)", "exp(x0)*3 + x1", "-exp(x0)", "sqrt(x1^2 + 1)"]
    roots = [expr.parse(t) for t in texts]
    point = np.array([0.3, -0.7, 1.1, 0.4])
    got = expr.Program(roots, N)(point, 3)
    for tree, row in zip(roots, got):
        _assert_close(row, _reference(tree, point, 3))


@given(_tree(), st.integers(0, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_program_batch_equals_stacked_points(tree, order, seed):
    points = np.random.default_rng(seed).uniform(-2.0, 2.0, (7, N))
    program = expr.Program([tree, expr.Call("exp", tree)], N)
    with np.errstate(all="ignore"):
        try:
            each = np.stack([program(p, order) for p in points])
        except expr.ExprEvalError:
            return
        batch = program(points, order)
    assume(np.all(np.isfinite(each)))
    assert batch.shape == (7, 2, jets.algebra(N, order).ncoef)
    for got, want in zip(batch, each):
        _assert_close(got, want)


def test_program_rejects_coordinates_beyond_its_dimension():
    with pytest.raises(expr.ExprError, match="x4 out of range"):
        expr.Program([expr.parse("1 + exp(x4)")], 4)
    with pytest.raises(expr.ExprError):
        expr.Program([expr.parse("x0")], 4)((0.0, 0.0, 0.0), 1)
