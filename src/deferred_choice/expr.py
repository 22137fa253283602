"""Boolean condition expressions over external variables.

Conditional events and conditional oracle variants share this little
language: comparisons of a variable against an unsigned constant, combined
with ``&&``, ``||`` and ``!``. Precedence from lowest to highest:

    expr  := or
    or    := and ("||" and)*
    and   := unary ("&&" unary)*
    unary := "!" unary | atom
    atom  := "(" expr ")" | IDENT OP NUMBER

Identifiers match ``[A-Za-z_][A-Za-z0-9_]*``; numbers are unsigned decimals
that must fit the 64-bit data word; OP is one of ``< <= == != >= >``
(``=`` is accepted as an alias for ``==``). Parentheses and ``!`` nest
at most ``MAX_NESTING`` deep, and a tree at most ``MAX_NESTING`` levels of
operators high, so a chain ``a && b && ...`` has at most ``MAX_NESTING + 1``
terms. Evaluation is over unsigned integers and always yields a boolean.
"""

from __future__ import annotations

import functools
import operator
import re
from collections.abc import Mapping
from dataclasses import dataclass

CONSTANT_MAX = 2**64 - 1
MAX_NESTING = 100  # well inside the interpreter's recursion limit

# each comparison operator and the test it applies
_COMPARE = {
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    "!=": operator.ne,
    ">=": operator.ge,
    ">": operator.gt,
}
COMPARISON_OPS = tuple(_COMPARE)


class ExprError(ValueError):
    """Base class for expression failures."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class ExprEvalError(ExprError):
    """Evaluation touched a variable missing from the valuation."""


@dataclass(frozen=True)
class Comparison:
    """``var op value``: a variable compared with a constant."""
    var: str
    op: str
    value: int

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise ExprError(f"unknown comparison operator {self.op!r}")
        if not 0 <= self.value <= CONSTANT_MAX:
            raise ExprError(f"constant out of range: {self.value}")


@dataclass(frozen=True)
class Not:
    """``!operand``: logical negation."""
    operand: "Expr"


@dataclass(frozen=True)
class And:
    """``left && right``: logical conjunction."""
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Or:
    """``left || right``: logical disjunction."""
    left: "Expr"
    right: "Expr"


Expr = Comparison | Not | And | Or


IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")  # the variable names a condition can hold

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    rf"|(?P<ident>{IDENTIFIER.pattern})"
    r"|(?P<num>\d+)"
    r"|(?P<op><=|>=|==|!=|&&|\|\||[=<>!()])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if match.lastgroup != "ws":
            tokens.append((match.lastgroup, match.group(), pos))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0  # the parentheses and negations open at the cursor
        self.height = 0  # operator levels of the tree the last rule built

    def parse(self) -> Expr:
        if not self.tokens:
            raise ExprSyntaxError("empty expression", 0)
        node = self._or()
        if self.index < len(self.tokens):
            _, value, pos = self.tokens[self.index]
            raise ExprSyntaxError(f"unexpected token {value!r}", pos)
        return node

    def _peek(self) -> tuple[str, str, int] | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def _take(self) -> tuple[str, str, int]:
        token = self._peek()
        if token is None:
            raise ExprSyntaxError("unexpected end of expression", len(self.text))
        self.index += 1
        return token

    def _nested(self, rule, pos: int) -> Expr:
        """``rule()`` one level deeper, opened at ``pos``."""
        if self.depth == MAX_NESTING:
            raise ExprSyntaxError(f"nested deeper than {MAX_NESTING}", pos)
        self.depth += 1
        node = rule()
        self.depth -= 1
        return node

    def _grown(self, node: Expr, height: int, pos: int) -> Expr:
        """``node``, a tree ``height`` levels high whose top operator is at
        ``pos``; one higher than ``MAX_NESTING`` is rejected there."""
        if height > MAX_NESTING:
            raise ExprSyntaxError(f"nested deeper than {MAX_NESTING}", pos)
        self.height = height
        return node

    def _chain(self, operand, symbol: str, node_type) -> Expr:
        """Operands of ``operand()`` joined by ``symbol``, left-associated."""
        node = operand()
        while (tok := self._peek()) is not None and tok[1] == symbol:
            left = self.height
            self._take()
            node = self._grown(node_type(node, operand()), max(left, self.height) + 1, tok[2])
        return node

    def _or(self) -> Expr:
        return self._chain(self._and, "||", Or)

    def _and(self) -> Expr:
        return self._chain(self._unary, "&&", And)

    def _unary(self) -> Expr:
        tok = self._peek()
        if tok is not None and tok[1] == "!":
            self._take()
            return self._grown(Not(self._nested(self._unary, tok[2])), self.height + 1, tok[2])
        return self._atom()

    def _atom(self) -> Expr:
        kind, value, pos = self._take()
        if value == "(":
            node = self._nested(self._or, pos)
            kind, value, pos = self._take()
            if value != ")":
                raise ExprSyntaxError("expected ')'", pos)
            return node
        if kind != "ident":
            raise ExprSyntaxError(f"expected variable or '(', got {value!r}", pos)
        var = value
        kind, op, pos = self._take()
        if kind != "op" or op not in ("<", "<=", "==", "!=", ">=", ">", "="):
            raise ExprSyntaxError(f"expected comparison operator, got {op!r}", pos)
        if op == "=":
            op = "=="
        kind, number, pos = self._take()
        if kind != "num":
            raise ExprSyntaxError(f"expected constant, got {number!r}", pos)
        constant = int(number)
        if constant > CONSTANT_MAX:
            raise ExprSyntaxError("constant out of range", pos)
        self.height = 0
        return Comparison(var, op, constant)


@functools.lru_cache(maxsize=1024)
def parse(text: str) -> Expr:
    """Parse expression text into an AST; raises ExprSyntaxError with position.

    Each text is parsed once while it stays among the most recently used:
    nodes are frozen, so every caller can share the one tree."""
    return _Parser(text).parse()


def evaluate(expr: Expr, valuation: Mapping[str, int]) -> bool:
    """Evaluate against a variable valuation (unsigned comparison semantics)."""
    if isinstance(expr, Comparison):
        try:
            value = valuation[expr.var]
        except KeyError:
            raise ExprEvalError(f"unknown variable {expr.var!r}") from None
        return _COMPARE[expr.op](value, expr.value)
    if isinstance(expr, Not):
        return not evaluate(expr.operand, valuation)
    if isinstance(expr, And):
        return evaluate(expr.left, valuation) and evaluate(expr.right, valuation)
    if isinstance(expr, Or):
        return evaluate(expr.left, valuation) or evaluate(expr.right, valuation)
    raise ExprError(f"not an expression node: {expr!r}")


def variables(expr: Expr) -> frozenset[str]:
    """The exact set of variable names referenced by the expression."""
    if isinstance(expr, Comparison):
        return frozenset((expr.var,))
    if isinstance(expr, Not):
        return variables(expr.operand)
    if isinstance(expr, (And, Or)):
        return variables(expr.left) | variables(expr.right)
    raise ExprError(f"not an expression node: {expr!r}")


_PRECEDENCE = {Or: 1, And: 2, Not: 3, Comparison: 4}


def _render(expr: Expr, parent_prec: int, is_right: bool) -> str:
    prec = _PRECEDENCE[type(expr)]
    if isinstance(expr, Comparison):
        text = f"{expr.var} {expr.op} {expr.value}"
    elif isinstance(expr, Not):
        inner = _render(expr.operand, prec, False)
        if not isinstance(expr.operand, Not):
            inner = f"({inner})"
        text = f"!{inner}"
        return text if prec >= parent_prec else f"({text})"
    else:
        symbol = "&&" if isinstance(expr, And) else "||"
        text = f"{_render(expr.left, prec, False)} {symbol} {_render(expr.right, prec, True)}"
    if prec < parent_prec or (prec == parent_prec and is_right):
        return f"({text})"
    return text


def render(expr: Expr) -> str:
    """Canonical text form; ``parse(render(e))`` reproduces ``e`` exactly."""
    return _render(expr, 0, False)
