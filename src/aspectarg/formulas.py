"""Textual aspect formulas: parsing, evaluation to algebra elements, printing.

Grammar, lowest to highest precedence::

    iff     := implies ('<->' implies)*          (left-associative)
    implies := or ('->' implies)?                (right-associative)
    or      := and ('|' and)*
    and     := unary ('&' unary)*
    unary   := '~' unary | '0' | '1' | name | '(' iff ')'

Whitespace is insignificant.  ``a -> b`` abbreviates ``~a | b`` and
``a <-> b`` abbreviates ``(a -> b) & (b -> a)``; both are desugared at
evaluation time only, so printing keeps the arrows.

A formula may nest at most :data:`MAX_DEPTH` levels, counting each operator
and each parenthesised group on the way down to a leaf, so that evaluating
and printing it stay within Python's recursion limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Union

from .algebra import Algebra, Element
from .errors import FormulaError


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Const:
    value: bool


@dataclass(frozen=True)
class Not:
    operand: "AspectExpr"


@dataclass(frozen=True)
class And:
    left: "AspectExpr"
    right: "AspectExpr"


@dataclass(frozen=True)
class Or:
    left: "AspectExpr"
    right: "AspectExpr"


@dataclass(frozen=True)
class Implies:
    left: "AspectExpr"
    right: "AspectExpr"


@dataclass(frozen=True)
class Iff:
    left: "AspectExpr"
    right: "AspectExpr"


AspectExpr = Union[Atom, Const, Not, And, Or, Implies, Iff]

_TOKEN = re.compile(r"\s*(<->|->|[&|~()]|[01]|[A-Za-z_][A-Za-z0-9_]*)")

IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

#: Deepest formula tree the parser accepts.  Model files nest a few levels;
#: synthesized witnesses write flat disjunctions of up to 20 propositions.
MAX_DEPTH = 100


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens: list[tuple[str, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise FormulaError(f"unexpected character {stripped[0]!r}", offset=len(text) - len(stripped))
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive descent; every rule returns its tree and the tree's depth."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.nesting = 0  # open "~", "(" and "->" levels, bounded so recursion stays shallow

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def next_offset(self) -> int:
        return self.tokens[self.i][1] if self.i < len(self.tokens) else len(self.text)

    def take(self) -> str:
        tok = self.tokens[self.i][0]
        self.i += 1
        return tok

    def expect(self, tok: str) -> None:
        if self.peek() != tok:
            raise FormulaError(f"expected {tok!r}", offset=self.next_offset())
        self.take()

    def too_deep(self, offset: int) -> FormulaError:
        return FormulaError(f"formula nests deeper than {MAX_DEPTH} levels", offset=offset)

    def descend(self, offset: int) -> None:
        """Enter a nested rule; recursion stops before it can exhaust the stack."""
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise self.too_deep(offset)

    def joined(self, cls, left, right, offset: int) -> tuple[AspectExpr, int]:
        depth = max(left[1], right[1]) + 1
        if depth > MAX_DEPTH:
            raise self.too_deep(offset)
        return cls(left[0], right[0]), depth

    def parse_iff(self) -> tuple[AspectExpr, int]:
        e = self.parse_implies()
        while self.peek() == "<->":
            offset = self.next_offset()
            self.take()
            e = self.joined(Iff, e, self.parse_implies(), offset)
        return e

    def parse_implies(self) -> tuple[AspectExpr, int]:
        e = self.parse_or()
        if self.peek() == "->":
            offset = self.next_offset()
            self.take()
            self.descend(offset)
            right = self.parse_implies()
            self.nesting -= 1
            return self.joined(Implies, e, right, offset)
        return e

    def parse_or(self) -> tuple[AspectExpr, int]:
        e = self.parse_and()
        while self.peek() == "|":
            offset = self.next_offset()
            self.take()
            e = self.joined(Or, e, self.parse_and(), offset)
        return e

    def parse_and(self) -> tuple[AspectExpr, int]:
        e = self.parse_unary()
        while self.peek() == "&":
            offset = self.next_offset()
            self.take()
            e = self.joined(And, e, self.parse_unary(), offset)
        return e

    def parse_unary(self) -> tuple[AspectExpr, int]:
        tok = self.peek()
        if tok is None:
            raise FormulaError("unexpected end of input", offset=len(self.text))
        offset = self.next_offset()
        if tok == "~":
            self.take()
            self.descend(offset)
            operand, depth = self.parse_unary()
            self.nesting -= 1
            e = Not(operand)
        elif tok == "(":
            self.take()
            self.descend(offset)
            e, depth = self.parse_iff()
            self.nesting -= 1
            self.expect(")")
        elif tok == "0" or tok == "1":
            self.take()
            return Const(tok == "1"), 0
        elif IDENT.match(tok):
            self.take()
            return Atom(tok), 0
        else:
            raise FormulaError(f"unexpected token {tok!r}", offset=offset)
        if depth + 1 > MAX_DEPTH:
            raise self.too_deep(offset)
        return e, depth + 1


def parse(text: str) -> AspectExpr:
    """Parse a formula; raises :class:`FormulaError` with a byte offset on bad input."""
    if not text.strip():
        raise FormulaError("empty formula", offset=0)
    p = _Parser(text)
    e, _ = p.parse_iff()
    if p.peek() is not None:
        raise FormulaError(f"trailing input {p.peek()!r}", offset=p.next_offset())
    return e


def evaluate(expr: AspectExpr, algebra: Algebra) -> Element:
    """The element whose minterms are exactly the satisfying assignments of ``expr``."""
    if isinstance(expr, Atom):
        return algebra.prop(expr.name)
    if isinstance(expr, Const):
        return algebra.top if expr.value else algebra.bottom
    if isinstance(expr, Not):
        return ~evaluate(expr.operand, algebra)
    if isinstance(expr, And):
        return evaluate(expr.left, algebra) & evaluate(expr.right, algebra)
    if isinstance(expr, Or):
        return evaluate(expr.left, algebra) | evaluate(expr.right, algebra)
    if isinstance(expr, Implies):
        return ~evaluate(expr.left, algebra) | evaluate(expr.right, algebra)
    if isinstance(expr, Iff):
        left, right = evaluate(expr.left, algebra), evaluate(expr.right, algebra)
        return (~left | right) & (~right | left)
    raise TypeError(f"not an aspect expression: {expr!r}")


_LEVEL = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5}


def _fmt(expr: AspectExpr, parent_level: int) -> str:
    if isinstance(expr, Atom):
        return expr.name
    if isinstance(expr, Const):
        return "1" if expr.value else "0"
    level = _LEVEL[type(expr)]
    if isinstance(expr, Not):
        body = f"~{_fmt(expr.operand, level)}"
    elif isinstance(expr, Implies):
        # right-associative: only the right child may be another bare implies
        body = f"{_fmt(expr.left, level + 1)} -> {_fmt(expr.right, level)}"
    else:
        op = {And: "&", Or: "|", Iff: "<->"}[type(expr)]
        body = f"{_fmt(expr.left, level)} {op} {_fmt(expr.right, level + 1)}"
    return f"({body})" if level < parent_level else body


def format_expr(expr: AspectExpr) -> str:
    """Canonical text for an expression; re-parsing evaluates to the same element."""
    return _fmt(expr, 0)


def render_element(
    element: Element,
    preferred: Mapping[Element, str] | None = None,
    max_atoms: int = 64,
) -> str:
    """Readable formula for an element.

    Prefers a formula from ``preferred`` (e.g. the formulas authored in a model
    file) when one denotes the same element; otherwise falls back to a
    disjunctive normal form over the algebra's atoms.
    """
    if preferred and element in preferred:
        return preferred[element]
    if element.is_bottom:
        return "0"
    if element.is_top:
        return "1"
    algebra = element.algebra
    for name in algebra.props:
        prop = algebra.prop(name)
        if element == prop:
            return name
        if element == ~prop:
            return f"~{name}"
    count = element.mask.bit_count()
    if count > max_atoms:
        return f"<element covering {count} of {algebra.n_minterms} atoms>"
    terms = []
    for m in element.minterms():
        lits = []
        for i, name in enumerate(algebra.props):
            lits.append(name if (m >> i) & 1 else f"~{name}")
        terms.append(" & ".join(lits) if len(lits) == 1 else "(" + " & ".join(lits) + ")")
    return " | ".join(terms)
