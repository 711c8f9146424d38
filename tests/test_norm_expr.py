"""Expression parser: shapes, precedence, errors, printing round-trips."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minksub.jets import Jet4
from minksub.norm_expr import (ArityError, Bin, ExprSyntaxError, Neg,
                               NonFiniteConstant, Num, Pow, Sqrt,
                               UnknownVariable, Var, evaluate, fold,
                               parse_norm)

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def to_text(node, _parent_prec: int = 0) -> str:
    """Print a tree so that parse_norm(to_text(t)) reproduces it.

    Round-tripping is structural for any tree the parser itself produces
    (literals come out of the parser nonnegative; negation is a Neg node).
    """
    if isinstance(node, Num):
        v = node.value
        s = repr(int(v)) if v == int(v) and abs(v) < 1e16 else repr(v)
        return f"({s})" if v < 0 else s
    if isinstance(node, Var):
        return f"y{node.index}"
    if isinstance(node, Bin):
        prec = _PREC[node.op]
        # the right operand of - and / needs parens at equal precedence
        left = to_text(node.left, prec)
        right = to_text(node.right, prec + 1)
        s = f"{left} {node.op} {right}"
        return f"({s})" if prec < _parent_prec else s
    if isinstance(node, Pow):
        base = to_text(node.base, 5)  # only atoms may carry '^' unwrapped
        s = f"{base}^{node.exponent}"
        return f"({s})" if _parent_prec >= 5 else s
    if isinstance(node, Sqrt):
        return f"sqrt({to_text(node.arg)})"
    if isinstance(node, Neg):
        s = f"-{to_text(node.arg, 3)}"
        return f"({s})" if _parent_prec > 3 else s
    raise TypeError(f"not an expression node: {node!r}")


def ev(text, dim, args):
    return evaluate(parse_norm(text, dim), list(args))


def test_arithmetic_values():
    assert ev("1 + 2 * 3", 1, [0.0]) == 7.0
    assert ev("(1 + 2) * 3", 1, [0.0]) == 9.0
    assert ev("2 * 3 ^ 2", 1, [0.0]) == 18.0  # ^ binds tighter than *
    with pytest.raises(ExprSyntaxError):
        ev("2 ^ 3 ^ 1", 1, [0.0])  # chained exponents need parens
    assert ev("8 / 4 / 2", 1, [0.0]) == 1.0  # left-associative
    assert ev("1 - 2 - 3", 1, [0.0]) == -4.0


def test_variables_and_sqrt():
    assert ev("y1 * y2", 2, [3.0, 5.0]) == 15.0
    assert ev("sqrt(y1^2 + y2^2)", 2, [3.0, 4.0]) == 5.0
    assert ev("sqrt(2) * sqrt(2)", 1, [0.0]) == pytest.approx(2.0)


def test_unary_minus_precedence():
    # -y1^2 parses as -(y1^2), and a*-b as a*(-b)
    assert ev("-y1^2", 1, [3.0]) == -9.0
    assert ev("2 * -3", 1, [0.0]) == -6.0
    assert ev("-2^2", 1, [0.0]) == -4.0
    assert ev("(-2)^2", 1, [0.0]) == 4.0
    assert ev("--2", 1, [0.0]) == 2.0


def test_negative_exponent():
    assert ev("2^-2", 1, [0.0]) == 0.25


def test_scientific_notation():
    assert ev("1.5e2 + .5", 1, [0.0]) == 150.5
    assert ev("2E-1", 1, [0.0]) == pytest.approx(0.2)


def test_tree_shape():
    tree = parse_norm("y1 + y2 * y1", 2)
    assert tree == Bin("+", Var(1), Bin("*", Var(2), Var(1)))
    assert parse_norm("-y1^2", 1) == Neg(Pow(Var(1), 2))
    assert parse_norm("--y1^2", 1) == Neg(Neg(Pow(Var(1), 2)))
    assert parse_norm("sqrt(y1)", 1) == Sqrt(Var(1))


def test_syntax_error_positions():
    with pytest.raises(ExprSyntaxError) as err:
        parse_norm("y1 + ", 1)
    assert err.value.pos == 5
    with pytest.raises(ExprSyntaxError) as err:
        parse_norm("y1 @ y1", 1)
    assert err.value.pos == 3
    with pytest.raises(ExprSyntaxError) as err:
        parse_norm("(y1 + 1", 1)
    assert err.value.pos == 7
    with pytest.raises(ExprSyntaxError) as err:
        parse_norm("y1 1", 1)
    assert "trailing" in str(err.value)
    with pytest.raises(ExprSyntaxError):
        parse_norm("y1 ^ y1", 1)  # exponent must be an integer literal
    with pytest.raises(ExprSyntaxError):
        parse_norm("2 ^ 1.5", 1)
    # float() reads these as inf; an inf exponent would even escape the
    # integer check as OverflowError
    for text, pos in [("1e999", 0), ("y1 + 2 * 1.5e400", 9), ("y1^1e999", 3)]:
        with pytest.raises(ExprSyntaxError, match="not finite") as err:
            parse_norm(text, 1)
        assert err.value.pos == pos


def test_unknown_variable():
    with pytest.raises(UnknownVariable):
        parse_norm("y3", 2)
    with pytest.raises(UnknownVariable):
        parse_norm("z1", 2)
    with pytest.raises(UnknownVariable) as err:
        parse_norm("y1 + spam", 2)
    assert err.value.name == "spam"


def test_sqrt_arity():
    with pytest.raises(ArityError):
        parse_norm("sqrt()", 1)


def test_evaluate_over_jets_matches_floats():
    text = "sqrt(y1^2 + 2*y2^2) + y1/4"
    tree = parse_norm(text, 2)
    base = np.array([1.0, 0.5])
    jet = evaluate(tree, list(Jet4.variables(2, base)))
    assert jet.value == pytest.approx(evaluate(tree, list(base)))
    # gradient against central differences
    grad = jet.partial_tensors(1)[1]
    eps = 1e-6
    for i in range(2):
        bumped = base.copy()
        bumped[i] += eps
        plus = evaluate(tree, list(bumped))
        bumped[i] -= 2 * eps
        minus = evaluate(tree, list(bumped))
        assert grad[i] == pytest.approx((plus - minus) / (2 * eps), abs=1e-8)


def test_to_text_round_trips_fixed_cases():
    cases = [
        "y1 - (y2 - 1)",
        "y1 / (y2 / 2)",
        "-(y1 + y2)",
        "(y1 + y2)^3",
        "-y1^2 + sqrt(y1 * y2)",
        "2^-1 * y1",
    ]
    for text in cases:
        tree = parse_norm(text, 2)
        assert parse_norm(to_text(tree), 2) == tree


def node_strategy():
    leaves = st.one_of(
        st.integers(min_value=0, max_value=9).map(lambda v: Num(float(v))),
        st.integers(min_value=1, max_value=3).map(Var),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*/"), children, children).map(
                lambda t: Bin(*t)),
            children.map(Neg),
            children.map(Sqrt),
            st.tuples(children, st.integers(min_value=-3, max_value=3)).map(
                lambda t: Pow(*t)),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=120, deadline=None)
@given(node_strategy())
def test_to_text_round_trips_random_trees(tree):
    assert parse_norm(to_text(tree), 3) == tree


# -- shared subtrees ----------------------------------------------------------

SHARED_TEXT = ("(1.1*y1^2 + 0.9*y2^2 + 0.8*y3^2) / 2 + 0.5 * (y1^4 - "
               "2*y1^2*y2^2 + y3^4) / (y1^2 + y2^2 + y3^2) / 20 "
               "+ sqrt(y1^2 + y2^2 + y3^2) / 7")


def _unshared(node):
    """The same tree with a new object at every position."""
    if isinstance(node, Bin):
        return Bin(node.op, _unshared(node.left), _unshared(node.right))
    if isinstance(node, Pow):
        return Pow(_unshared(node.base), node.exponent)
    if isinstance(node, (Sqrt, Neg)):
        return type(node)(_unshared(node.arg))
    return type(node)(*vars(node).values())


def _positions(node):
    yield node
    for child in (getattr(node, f) for f in ("left", "right", "base", "arg")
                  if hasattr(node, f)):
        yield from _positions(child)


def test_parse_shares_equal_subtrees():
    tree = parse_norm(SHARED_TEXT, 3)
    nodes = list(_positions(tree))
    assert len({id(x) for x in nodes}) == len(set(nodes)) < len(nodes)
    plain = _unshared(tree)
    assert plain == tree
    assert len({id(x) for x in _positions(plain)}) == len(nodes)


@pytest.mark.parametrize("rows", [None, 4])
def test_shared_evaluation_equals_the_unshared_tree(rows):
    tree = parse_norm(SHARED_TEXT, 3)
    plain = _unshared(tree)
    rng = np.random.default_rng(8)
    base = rng.uniform(0.3, 1.5, ((rows,) if rows else ()) + (3,))
    for order in (2, 4):
        got = evaluate(tree, Jet4.variables(3, base, order))
        want = evaluate(plain, Jet4.variables(3, base, order))
        assert np.array_equal(got.coeffs, want.coeffs)
        assert got.deg == want.deg
    for y in base.reshape(-1, 3):
        assert evaluate(tree, list(y)) == evaluate(plain, list(y))


# -- folded polynomial subtrees -----------------------------------------------

FOLD_TEXT = ("sqrt(y1^2 + 2*y2^2) * y3 + (y1*y2)^2 / 2 - y1^-2 + y2^6 "
             "+ y3 / (1 + y1^2) + y3")


def test_fold_finds_the_maximal_polynomial_subtrees():
    # sqrt, division by a non-number, negative powers and degree 6 stay
    # ring ops; bare variables are not pieces; a polynomial tree is one
    nodes, pieces = fold(parse_norm(FOLD_TEXT, 3), 3)
    assert sorted(map(to_text, nodes)) == [
        "(y1 * y2)^2 / 2", "1 + y1^2", "y1^2 + 2 * y2^2"]
    assert sorted(pieces.degs) == [2, 2, 4]
    tree = parse_norm("(y1^2 + y2^2) / 2 - y1 * y2^3", 2)
    assert fold(tree, 2)[0] == (tree,)
    assert fold(parse_norm("sqrt(y1) + y2", 2), 2)[0] == ()


@pytest.mark.parametrize("text, what", [
    ("(y1^2 + y2^2) / 2 + 1e300 * 1e300 * 1e300", "constant"),
    ("(y1^2 + y2^2) / 2 + 1e300 * 1e300 * y1^2", "constant"),
    ("(y1^2 + y2^2) / 2 * (1 + 1e300 * 1e300 - 1e300 * 1e300)", "constant"),
    ("sqrt(y1^2 + y2^2) * (1e200)^2", "constant"),
    ("(y1^2 + y2^2) / 2 + 1e200 * y1^2 * 1e200", "coefficient"),
])
def test_fold_rejects_overflowing_constants_and_coefficients(text, what):
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no RuntimeWarning escapes
        with pytest.raises(NonFiniteConstant, match=f"{what}.*not finite|"
                                                    f"non-finite {what}"):
            fold(parse_norm(text, 2), 2)
    # large but finite constants still fold, and so does a constant y^0
    assert fold(parse_norm("(y1^2 + y2^2) * 1e150 * 1e150", 2), 2)[0]
    assert fold(parse_norm("(y1 + 2)^0 * 1e300 * y2^2", 2), 2)[0]


@pytest.mark.parametrize("rows", [None, 5])
def test_folded_jets_match_the_ring_ops(rows):
    # the folded pieces' jets, shifted to the coordinate jets' base, order
    # and cap, against the ring ops on those coordinate jets
    tree = parse_norm(FOLD_TEXT, 3)
    nodes, pieces = fold(tree, 3)
    rng = np.random.default_rng(31)
    base = rng.uniform(0.3, 1.5, ((rows,) if rows else ()) + (3,))

    def folded(y, order, normal):
        ys = Jet4.variables(3, y, order, normal)
        return evaluate(tree, ys, (nodes, pieces.jet(y, order, normal))), ys

    for order, normal in ((4, 0), (4, 1), (2, 0)):
        got, ys = folded(base, order, normal)
        want = evaluate(tree, ys)
        assert got.deg == want.deg and got.mask == want.mask
        for k in range(rows or 1):
            row = (k,) if rows else ()
            scale = 1.0 + np.max(np.abs(want.coeffs[row]))
            assert np.max(np.abs(got.coeffs[row] - want.coeffs[row])) <= \
                1e-14 * scale, k
            if rows:
                one, _ = folded(base[k], order, normal)
                assert one.coeffs.tobytes() == got.coeffs[k].tobytes()
