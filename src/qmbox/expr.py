"""Tiny arithmetic expression language for user-defined potentials and masses.

Grammar (standard precedence, tightest first):

    power:  ``^`` right-associative, e.g. ``2^3^2`` is ``2^(3^2)``
    unary:  ``-x^2`` is ``-(x^2)`` but ``-a*b`` is ``(-a)*b``
    muldiv: ``*`` ``/``
    addsub: ``+`` ``-``

Allowed atoms are numeric literals, the declared grid variables, and the
one-argument functions sin, cos, exp, sqrt, abs, tanh.  Expressions are
immutable after parsing and evaluation is reentrant, so a parsed potential
can be shared freely between threads and grids.
"""

from __future__ import annotations

import contextlib
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


# --- Tokenizer -------------------------------------------------------------

_OPS = set("+-*/^(),")


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    """Return (kind, text, position) triples; kind in {num, ident, op}."""
    tokens = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            seen_dot = seen_exp = False
            while j < n:
                d = source[j]
                if d.isdigit():
                    j += 1
                elif d == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    j += 1
                elif d in "eE" and j > i and not seen_exp and source[i:j] not in (".",):
                    # exponent must be followed by digits, optionally signed
                    k = j + 1
                    if k < n and source[k] in "+-":
                        k += 1
                    if k < n and source[k].isdigit():
                        seen_exp = True
                        j = k
                    else:
                        break
                else:
                    break
            text = source[i:j]
            try:
                float(text)
            except ValueError:
                raise ExpressionError(f"malformed number {text!r}", i)
            tokens.append(("num", text, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("ident", source[i:j], i))
            i = j
            continue
        raise ExpressionError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


# --- Parser ----------------------------------------------------------------

class _Parser:
    def __init__(self, source: str, allowed_vars: frozenset[str]):
        self.source = source
        self.allowed = allowed_vars
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str):
        kind, tok, at = self.peek()
        if kind != "op" or tok != text:
            raise ExpressionError(f"expected {text!r}", at)
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        kind, tok, at = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected trailing {tok!r}", at)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, tok, _ = self.peek()
            if kind == "op" and tok in "+-":
                self.advance()
                node = BinOp(tok, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, tok, _ = self.peek()
            if kind == "op" and tok in "*/":
                self.advance()
                node = BinOp(tok, node, self.factor())
            else:
                return node

    def factor(self) -> Node:
        kind, tok, _ = self.peek()
        if kind == "op" and tok == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        kind, tok, _ = self.peek()
        if kind == "op" and tok == "^":
            self.advance()
            return BinOp("^", base, self.factor())
        return base

    def atom(self) -> Node:
        kind, tok, at = self.advance()
        if kind == "num":
            return Num(float(tok))
        if kind == "ident":
            k, nxt, _ = self.peek()
            if k == "op" and nxt == "(":
                if tok not in FUNCTIONS:
                    raise ExpressionError(f"unknown function {tok!r}", at)
                self.advance()
                args = [self.expr()]
                while True:
                    k, nxt, _ = self.peek()
                    if k == "op" and nxt == ",":
                        self.advance()
                        args.append(self.expr())
                    else:
                        break
                self.expect_op(")")
                if len(args) != 1:
                    raise ExpressionError(
                        f"function {tok!r} takes 1 argument, got {len(args)}", at)
                return Call(tok, args[0])
            if tok not in self.allowed:
                raise ExpressionError(f"unknown identifier {tok!r}", at)
            return Var(tok)
        if kind == "op" and tok == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionError(f"expected a value, got {tok!r}" if tok else "unexpected end of input", at)


def parse(source: str, allowed_vars) -> Expression:
    """Parse ``source`` into an Expression over the given variable names."""
    if not isinstance(source, str) or not source.strip():
        raise ExpressionError("empty expression")
    allowed = frozenset(allowed_vars)
    with _depth_guard():
        root = _Parser(source, allowed).parse()
        return Expression(root=root, source=source, variables=_collect_vars(root))


@contextlib.contextmanager
def _depth_guard():
    """Parser and evaluator recurse once per nesting level; an expression
    nested beyond Python's recursion limit is an ExpressionError."""
    try:
        yield
    except RecursionError:
        raise ExpressionError("expression nested too deeply") from None


def _collect_vars(node: Node) -> frozenset[str]:
    if isinstance(node, Var):
        return frozenset((node.name,))
    if isinstance(node, Neg):
        return _collect_vars(node.operand)
    if isinstance(node, BinOp):
        return _collect_vars(node.left) | _collect_vars(node.right)
    if isinstance(node, Call):
        return _collect_vars(node.arg)
    return frozenset()


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
    left = _eval(node.left, point)
    right = _eval(node.right, point)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if node.op == "/":
        return np.divide(left, right)
    # power: reject fractional exponents of negative bases
    if np.any((np.asarray(left) < 0) & (np.asarray(right) != np.round(right))):
        raise ExpressionError("fractional power of a negative base")
    # |b|^n, negated for odd integer n: exactly even or odd in b, which
    # np.power(b, n) is not for every n; unchanged for b >= 0
    magnitude = np.power(np.abs(left), right)
    odd = np.abs(np.fmod(right, 2)) == 1
    return np.where(odd, np.copysign(magnitude, left), magnitude)[()]
