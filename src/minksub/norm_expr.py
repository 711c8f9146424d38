"""Recursive-descent parser for the norm expression language.

Grammar (whitespace insignificant, precedence ^ then unary minus then */
then +-; numbers must be finite):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | base ('^' integer)?
    base   := number | 'y' integer | '(' expr ')' | 'sqrt' '(' expr ')'

Variables are written y1 .. yN for an N-dimensional norm.  Trees evaluate
over any commutative ring with the usual operators, so the same tree
serves float evaluation and jet evaluation.  ``fold`` finds a tree's
maximal polynomial subtrees of degree <= 4 and compiles them for one Taylor
shift; ``evaluate`` takes their jets from its caller, who shifts them to
the coordinate jets' base, order and cap.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from .jets import MAX_ORDER, Jet4, Polynomials


class ExprSyntaxError(ValueError):
    """Malformed expression text; carries the character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnknownVariable(ValueError):
    """A variable outside y1..yN was referenced."""

    def __init__(self, name: str, pos: int):
        super().__init__(f"unknown variable {name!r} (at position {pos})")
        self.name = name
        self.pos = pos


class ArityError(ValueError):
    """A function was applied to the wrong number of arguments."""


class NonFiniteConstant(ValueError):
    """A constant subexpression, or a coefficient of a folded polynomial
    subtree, overflows."""


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based, as written in the source


@dataclass(frozen=True)
class Bin:
    op: str  # '+', '-', '*', '/'
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class Sqrt:
    arg: object


@dataclass(frozen=True)
class Neg:
    arg: object


_TOKEN = re.compile(r"\s*(?:(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?"
                    r"|([A-Za-z]+\d*)|([-+*/^()]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", at)
        if m.group(1) is not None:
            value = float(m.group(1) + (m.group(2) or ""))
            if not math.isfinite(value):    # 1e999 parses to inf
                raise ExprSyntaxError("number is not finite", m.start(1))
            tokens.append(("num", value, m.start(1)))
        elif m.group(3) is not None:
            tokens.append(("name", m.group(3), m.start(3)))
        else:
            tokens.append(("op", m.group(4), m.start(4)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, dim: int):
        self.text = text
        self.dim = dim
        self.tokens = _tokenize(text)
        self.i = 0
        self.shared = {}

    def node(self, cls, *fields):   # equal subtrees become one object
        node = cls(*fields)
        return self.shared.setdefault(node, node)

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)
        self.advance()

    def parse(self):
        node = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError("trailing input", pos)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                node = self.node(Bin, val, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                node = self.node(Bin, val, node, self.factor())
            else:
                return node

    def factor(self):
        # unary minus distributes over the exponent: -y1^2 is -(y1^2)
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return self.node(Neg, self.factor())
        node = self.base()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            node = self.node(Pow, node, self.integer())
        return node

    def integer(self) -> int:
        sign = 1
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            sign = -1
            self.advance()
            kind, val, pos = self.peek()
        if kind != "num" or val != int(val):
            raise ExprSyntaxError("exponent must be an integer", pos)
        self.advance()
        return sign * int(val)

    def base(self):
        kind, val, pos = self.advance()
        if kind == "num":
            return self.node(Num, val)
        if kind == "name":
            if val == "sqrt":
                self.expect_op("(")
                k, v, p = self.peek()
                if k == "op" and v == ")":
                    raise ArityError(f"sqrt expects one argument (at position {p})")
                node = self.expr()
                self.expect_op(")")
                return self.node(Sqrt, node)
            m = re.fullmatch(r"y(\d+)", val)
            if m is None:
                raise UnknownVariable(val, pos)
            idx = int(m.group(1))
            if not 1 <= idx <= self.dim:
                raise UnknownVariable(val, pos)
            return self.node(Var, idx)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError("expected a number, variable, or '('", pos)


def parse_norm(text: str, dim: int):
    """Parse expression text into a tree, validating variables against dim."""
    return _Parser(text, dim).parse()


def evaluate(node, args, folded=None):
    """Evaluate a tree over floats or jets; args[i] is the value of y(i+1).
    A subtree object that occurs several times is computed once, and the
    subtrees of ``folded`` = (nodes, values) take their given values (fold's
    nodes with their Polynomials' jets at the base, order and cap of args)."""
    nodes, values = folded or ((), ())
    return _evaluate(node, args, dict(zip(map(id, nodes), values)))


def _evaluate(node, args, memo):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return args[node.index - 1]
    out = memo.get(id(node))
    if out is not None:
        return out
    if isinstance(node, Bin):
        out = _OPS[node.op](_evaluate(node.left, args, memo),
                            _evaluate(node.right, args, memo))
    elif isinstance(node, Pow):
        b = _evaluate(node.base, args, memo)
        out = (b if isinstance(b, Jet4) else float(b)) ** node.exponent
    elif isinstance(node, Sqrt):
        arg = _evaluate(node.arg, args, memo)
        out = arg.sqrt() if isinstance(arg, Jet4) else math.sqrt(arg)
    elif isinstance(node, Neg):
        out = -_evaluate(node.arg, args, memo)
    else:
        raise TypeError(f"not an expression node: {node!r}")
    memo[id(node)] = out
    return out


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "/": operator.truediv}
_KIDS = {Bin: ("left", "right"), Pow: ("base",), Sqrt: ("arg",),
         Neg: ("arg",)}


def fold(tree, dim: int) -> tuple:
    """The maximal polynomial subtrees of tree (numbers, variables, +, -, *,
    powers >= 0, division by a nonzero number) of degree 1..4, bare
    variables aside, and one Polynomials of them, whose jets ``evaluate``
    takes as the subtrees' values.  NonFiniteConstant when a constant
    subtree or a coefficient is not finite."""
    degrees, found, consts = {}, {}, {}

    def degree(node):
        if id(node) not in degrees:
            kids = [getattr(node, f) for f in _KIDS.get(type(node), ())]
            ds = [degree(kid) for kid in kids]
            op = getattr(node, "op", type(node))
            if None in ds or op is Sqrt or op is Pow and node.exponent < 0 \
                    or op == "/" and not (isinstance(node.right, Num)
                                          and node.right.value):
                d = None
            else:           # Num 0, Var 1; Neg, +, - and / by a number: max
                d = ds[0] * node.exponent if op is Pow else sum(ds) \
                    if op == "*" else max(ds, default=int(op is Var))
            if d is None or d > MAX_ORDER:
                found.update((id(k), k) for k, dk in zip(kids, ds) if dk
                             and dk <= MAX_ORDER and not isinstance(k, Var))
            degrees[id(node)] = d
            if d == 0 and not isinstance(node, Num):    # a constant
                try:        # variables only occur as y^0, and nan^0 is 1
                    value = _evaluate(node, (math.nan,) * dim, consts)
                except OverflowError:                   # float ** int
                    value = math.inf
                if not math.isfinite(value):
                    raise NonFiniteConstant("a constant subexpression is "
                                            "not finite")
        return degrees[id(node)]

    degree(Sqrt(tree))      # a root that is no polynomial: tree may be one
    zero, memo = Jet4.variables(dim, np.zeros(dim)), {}   # jets about 0
    with np.errstate(all="ignore"):     # checked below
        coeffs = [_evaluate(x, zero, memo).coeffs for x in found.values()]
    if not all(np.isfinite(c).all() for c in coeffs):
        raise NonFiniteConstant("a polynomial subtree has a non-finite "
                                "coefficient")
    return tuple(found.values()), Polynomials(dim, coeffs)
