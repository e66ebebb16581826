"""Tiny arithmetic expression language for user-defined potentials and masses.

Grammar (standard precedence, tightest first):

    power:  ``^`` right-associative, e.g. ``2^3^2`` is ``2^(3^2)``
    unary:  ``-x^2`` is ``-(x^2)`` but ``-a*b`` is ``(-a)*b``
    muldiv: ``*`` ``/``
    addsub: ``+`` ``-``

Allowed atoms are numeric literals, the declared grid variables, and the
one-argument functions sin, cos, exp, sqrt, abs, tanh.  Tokens may be
separated by whitespace.  A number is digits with an optional point and
fraction, or a point and digits (``2``, ``5.``, ``.5``, ``2.5``), with an
optional exponent (``1e-3``, ``5.E+2``); a name starts with a letter or
``_`` and goes on with letters, digits and ``_``; the operators are
``+ - * / ^ ( ) ,``.  Anything else is an error.  Expressions are
immutable after parsing and evaluation is reentrant, so a parsed potential
can be shared freely between threads and grids.
"""

from __future__ import annotations

import contextlib
import operator
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Union

import numpy as np


class ExpressionError(ValueError):
    """Parse or evaluation failure, carrying the offending source position."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


FUNCTIONS: dict[str, Callable] = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "tanh": np.tanh,
}


# --- AST -------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


Node = Union[Num, Var, Neg, BinOp, Call]


@dataclass(frozen=True)
class Expression:
    """Immutable parsed expression; call it with variable bindings."""

    root: Node
    source: str
    variables: frozenset[str]

    def __call__(self, **bindings):
        """Evaluate with scalars or numpy arrays bound to the variables.

        IEEE double semantics: division by zero and domain errors propagate
        as non-finite values and are flagged by the caller.  The one
        exception is a fractional power of a negative base, which raises
        instead of silently producing a complex branch.
        """
        missing = self.variables - set(bindings)
        if missing:
            raise ExpressionError(f"missing variable binding for {sorted(missing)}")
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"), _depth_guard():
            return _eval(self.root, bindings)


# --- Parser ----------------------------------------------------------------

# One token after optional whitespace: an operator, a number (a lone "." is
# a malformed one), a name, or any other character, which is refused.
_TOKEN = re.compile(r"\s*(?:(?P<op>[-+*/^(),])|(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|\.)"
                    r"|(?P<name>\w+)|(?P<bad>\S))")
#: The binary operators left-associative from the loosest level in, each
#: level's operands binding tighter; unary minus and ``^`` bind tightest.
_LEVELS = ("+-", "*/")


class _Parser:
    """Recursive descent over the tokens of ``source``, recording the
    variables it meets."""

    def __init__(self, source: str, allowed_vars: frozenset[str]):
        self.allowed = allowed_vars
        self.variables: set[str] = set()
        self.tokens = []
        for match in _TOKEN.finditer(source):
            kind = match.lastgroup
            text, at = match[kind], match.start(kind)
            if text == ".":
                raise ExpressionError("malformed number '.'", at)
            # \w also holds numerals such as "½": a name starts with a letter or "_"
            if kind == "bad" or kind == "name" and not (text[0].isalpha() or text[0] == "_"):
                raise ExpressionError(f"unexpected character {text[0]!r}", at)
            self.tokens.append((kind, text, at))
        self.tokens.append(("end", "", len(source)))
        self.at = 0

    def take(self, ops: str | None = None):
        """Consume the next token and return it; with ``ops``, only an
        operator among them, else return None."""
        token = self.tokens[self.at]
        if ops is None or token[0] == "op" and token[1] in ops:
            self.at += 1
            return token
        return None

    def parse(self) -> Node:
        node = self.binary()
        kind, text, at = self.take()
        if kind != "end":
            raise ExpressionError(f"unexpected trailing {text!r}", at)
        return node

    def binary(self, level: int = 0) -> Node:
        """A left-associative chain of the operators of ``_LEVELS[level]``
        over operands that bind tighter."""
        if level == len(_LEVELS):
            return self.unary()
        node = self.binary(level + 1)
        while op := self.take(_LEVELS[level]):
            node = BinOp(op[1], node, self.binary(level + 1))
        return node

    def unary(self) -> Node:
        if self.take("-"):
            return Neg(self.unary())
        base = self.atom()
        if self.take("^"):
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Node:
        kind, text, at = self.take()
        if kind == "num":
            return Num(float(text))
        if kind == "name" and not self.take("("):
            if text not in self.allowed:
                raise ExpressionError(f"unknown identifier {text!r}", at)
            self.variables.add(text)
            return Var(text)
        if kind == "name" and text not in FUNCTIONS:
            raise ExpressionError(f"unknown function {text!r}", at)
        if kind != "name" and text != "(":
            raise ExpressionError(f"expected a value, got {text!r}" if text else "unexpected end of input", at)
        # a parenthesized expression, or a call with its one argument
        args = [self.binary()]
        while kind == "name" and self.take(","):
            args.append(self.binary())
        if not self.take(")"):
            raise ExpressionError("expected ')'", self.tokens[self.at][2])
        if len(args) != 1:
            raise ExpressionError(f"function {text!r} takes 1 argument, got {len(args)}", at)
        return Call(text, args[0]) if kind == "name" else args[0]


def parse(source: str, allowed_vars) -> Expression:
    """Parse ``source`` into an Expression over the given variable names."""
    if not isinstance(source, str) or not source.strip():
        raise ExpressionError("empty expression")
    with _depth_guard():
        parser = _Parser(source, frozenset(allowed_vars))
        root = parser.parse()
    return Expression(root=root, source=source, variables=frozenset(parser.variables))


@contextlib.contextmanager
def _depth_guard():
    """Parser and evaluator recurse once per nesting level; an expression
    nested beyond Python's recursion limit is an ExpressionError."""
    try:
        yield
    except RecursionError:
        raise ExpressionError("expression nested too deeply") from None


# --- Evaluation ------------------------------------------------------------

def _eval(node: Node, point: Mapping[str, float]):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return point[node.name]
    if isinstance(node, Neg):
        return -_eval(node.operand, point)
    if isinstance(node, Call):
        return FUNCTIONS[node.func](_eval(node.arg, point))
    return _BINARY[node.op](_eval(node.left, point), _eval(node.right, point))


def _power(base, exponent):
    """base^exponent, refusing a fractional power of a negative base rather
    than taking a complex branch."""
    if np.any((np.asarray(base) < 0) & (np.asarray(exponent) != np.round(exponent))):
        raise ExpressionError("fractional power of a negative base")
    # |b|^n, negated for odd integer n: exactly even or odd in b, which
    # np.power(b, n) is not for every n; unchanged for b >= 0
    magnitude = np.power(np.abs(base), exponent)
    odd = np.abs(np.fmod(exponent, 2)) == 1
    return np.where(odd, np.copysign(magnitude, base), magnitude)[()]


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": np.divide, "^": _power}
