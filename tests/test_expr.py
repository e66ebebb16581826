import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmbox.expr import (BinOp, Call, Expression, ExpressionError, Neg, Node, Num,
                        Var, parse)
from qmbox.lattice import make_lattice


class TestEvaluation:
    def test_polynomial_over_two(self):
        e = parse("x^2/2", {"x"})
        assert e(x=2.0) == 2.0

    def test_one_plus_square(self):
        assert parse("1+x^2", {"x"})(x=1.0) == 2.0

    def test_two_variables(self):
        e = parse("x^2*y - y^3/3", {"x", "y"})
        assert e(x=1.0, y=3.0) == pytest.approx(-6.0)

    def test_exp_zero(self):
        assert parse("exp(0)", set())() == 1.0

    def test_sin_zero(self):
        assert parse("sin(0)", set())() == 0.0

    def test_rational_mass_factor(self):
        assert parse("(1+x^2)/(2+x^2)", {"x"})(x=0.0) == 0.5

    def test_power_right_associative(self):
        assert parse("2^3^2", set())() == 512.0

    def test_unary_minus_binds_below_power(self):
        assert parse("-x^2", {"x"})(x=2.0) == -4.0

    def test_unary_minus_binds_above_multiply(self):
        # -a*b is (-a)*b, consistent with -x^2 = -(x^2)
        assert parse("-2*3", set())() == -6.0

    def test_vectorized_over_arrays(self):
        e = parse("sin(x)*cos(x)", {"x"})
        x = np.linspace(-2, 2, 11)
        np.testing.assert_allclose(e(x=x), np.sin(x) * np.cos(x))

    def test_division_by_zero_propagates_nonfinite(self):
        e = parse("1/x", {"x"})
        assert math.isinf(e(x=0.0))

    def test_domain_error_propagates_nan(self):
        assert math.isnan(parse("sqrt(0-1)", set())())

    def test_negative_base_fractional_power_raises(self):
        e = parse("x^0.5", {"x"})
        with pytest.raises(ExpressionError, match="negative base"):
            e(x=-2.0)

    def test_negative_base_integer_power_ok(self):
        assert parse("x^3", {"x"})(x=-2.0) == -8.0

    @pytest.mark.parametrize("L,M", [(25.0, 60), (140.0, 150)])
    def test_integer_powers_are_exactly_odd_or_even(self, L, M):
        x = make_lattice(L, M).x
        cube, fourth, sixth = (parse(f"x^{n}", {"x"})(x=x) for n in (3, 4, 6))
        np.testing.assert_array_equal(cube, -cube[::-1])
        np.testing.assert_array_equal(fourth, fourth[::-1])
        np.testing.assert_array_equal(sixth, sixth[::-1])

    def test_power_of_a_nonnegative_base_is_numpy_power(self):
        x = make_lattice(140.0, 150).x
        x = x[x >= 0]
        for n in (2, 3, 4, 5, 6, -1, 0.5, 2.5):
            with np.errstate(divide="ignore"):   # 0^-1
                expected = np.power(x, n)
            np.testing.assert_array_equal(parse(f"x^({n})", {"x"})(x=x), expected)

    def test_power_keeps_scalars_scalar(self):
        value = parse("x^3", {"x"})(x=-2.0)
        assert value == -8.0 and np.ndim(value) == 0 and not isinstance(value, np.ndarray)
        np.testing.assert_array_equal(parse("(0-2)^x", {"x"})(x=np.array([1.0, 2.0, 3.0])),
                                      [-2.0, 4.0, -8.0])

    def test_missing_binding(self):
        e = parse("x+1", {"x"})
        with pytest.raises(ExpressionError, match="missing variable"):
            e()

    def test_repeat_evaluation_bit_identical(self):
        e = parse("tanh(x)^3 - exp(-x^2)/7", {"x"})
        first = e(x=0.731)
        assert all(e(x=0.731) == first for _ in range(5))


class TestParseErrors:
    @pytest.mark.parametrize("source", ["", "   "])
    def test_empty_source(self, source):
        with pytest.raises(ExpressionError):
            parse(source, {"x"})

    def test_unknown_identifier_has_position(self):
        with pytest.raises(ExpressionError) as err:
            parse("x + foo", {"x"})
        assert "foo" in str(err.value)
        assert err.value.position == 4

    def test_unknown_function(self):
        with pytest.raises(ExpressionError, match="unknown function"):
            parse("sinh(x)", {"x"})

    def test_arity_mismatch(self):
        with pytest.raises(ExpressionError, match="1 argument"):
            parse("sin(x, x)", {"x"})

    def test_unbalanced_parens(self):
        with pytest.raises(ExpressionError):
            parse("(x+1", {"x"})

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionError, match="trailing"):
            parse("x+1)", {"x"})

    def test_undeclared_variable_set(self):
        with pytest.raises(ExpressionError, match="unknown identifier"):
            parse("x*y", {"x"})

    def test_deep_nesting_is_expression_error(self):
        with pytest.raises(ExpressionError, match="nested too deeply"):
            parse("(" * 2000 + "x" + ")" * 2000, {"x"})

    def test_deep_tree_evaluation_is_expression_error(self):
        root = Var("x")
        for _ in range(5000):
            root = Neg(root)
        deep = Expression(root=root, source="-" * 5000 + "x", variables=frozenset({"x"}))
        with pytest.raises(ExpressionError, match="nested too deeply"):
            deep(x=1.0)


# --- Property tests ----------------------------------------------------------

_leaves = st.one_of(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
      .map(Num),
    st.sampled_from(["x", "y"]).map(Var),
)


def _branches(children):
    return st.one_of(
        children.map(Neg),
        st.builds(Call, st.sampled_from(sorted(["sin", "cos", "exp", "sqrt", "abs", "tanh"])), children),
        st.builds(BinOp, st.sampled_from(list("+-*/^")), children, children),
    )


_asts = st.recursive(_leaves, _branches, max_leaves=25)


# --- Printer for the round trip ----------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(node: Node) -> int:
    if isinstance(node, BinOp):
        if node.op in "+-":
            return _PREC_ADD
        if node.op in "*/":
            return _PREC_MUL
        return _PREC_POW
    if isinstance(node, Neg):
        return _PREC_NEG
    if isinstance(node, Num) and (node.value < 0 or np.copysign(1.0, node.value) < 0):
        return _PREC_NEG  # negative literal prints with a leading minus
    return _PREC_ATOM


def _wrap(text: str, need: bool) -> str:
    return f"({text})" if need else text


def unparse(node: Node) -> str:
    """Render an AST back to source text; reparsing yields an identical AST."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({unparse(node.arg)})"
    if isinstance(node, Neg):
        inner = unparse(node.operand)
        return "-" + _wrap(inner, _prec(node.operand) < _PREC_NEG)
    op = node.op
    if op in "+-":
        left = _wrap(unparse(node.left), _prec(node.left) < _PREC_ADD)
        right = _wrap(unparse(node.right), _prec(node.right) <= _PREC_ADD)
        return f"{left} {op} {right}"
    if op in "*/":
        left = _wrap(unparse(node.left), _prec(node.left) < _PREC_MUL)
        right = _wrap(unparse(node.right), _prec(node.right) <= _PREC_MUL)
        return f"{left}{op}{right}"
    # '^' is right-associative and binds tighter than unary minus, so any
    # non-atom base needs parentheses; the exponent parses as a factor.
    base = _wrap(unparse(node.left), _prec(node.left) <= _PREC_POW)
    expo = _wrap(unparse(node.right), _prec(node.right) < _PREC_NEG)
    return f"{base}^{expo}"


@given(_asts)
@settings(max_examples=300, deadline=None)
def test_unparse_reparse_round_trip(root):
    text = unparse(root)
    reparsed = parse(text, {"x", "y"})
    assert reparsed.root == root


@given(st.text(max_size=40))
@settings(max_examples=500, deadline=None)
def test_parser_total_on_arbitrary_text(text):
    # never crashes with anything but the structured error
    try:
        parse(text, {"x", "y"})
    except ExpressionError:
        pass


@given(st.binary(max_size=30))
@settings(max_examples=200, deadline=None)
def test_parser_total_on_arbitrary_bytes(blob):
    try:
        parse(blob.decode("latin-1"), {"x"})
    except ExpressionError:
        pass
