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

One tokenizer (a single regular expression) and one precedence-climbing loop
over the operator table ``_OPERATORS``, which encodes the four binary rules,
read every formula; :func:`evaluate` and :func:`format_expr` read the same
table.  The parser folds each operator as it goes: :func:`parse` folds to the
expression tree, and :class:`ElementReader`, which the model-file loader uses,
folds straight to the masks of algebra elements without building a tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Mapping, Union

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

#: One match per token: group 1 a token, group 2 a character no token starts
#: with.  Matches are contiguous, so a text tokenizes by one ``findall``.
_TOKEN = re.compile(r"\s*(?:(<->|->|[&|~()01]|[A-Za-z_][A-Za-z0-9_]*)|(\S))")

#: The binary operators: token -> (precedence, right-associative, tree node).
#: A higher precedence binds tighter; ``~`` binds tighter than all of them.
_OPERATORS = {"<->": (1, False, Iff), "->": (2, True, Implies),
              "|": (3, False, Or), "&": (4, False, And)}

#: Each binary node's token and the precedence and associativity it prints with.
_SYNTAX = {node: (tok, prec, right) for tok, (prec, right, node) in _OPERATORS.items()}

#: Tokens that cannot start an operand.
_NO_OPERAND = frozenset(_OPERATORS) | {")"}

IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

#: Deepest formula tree the parser accepts.  Model files nest a few levels;
#: synthesized witnesses write flat disjunctions of up to 20 propositions.
MAX_DEPTH = 100


class _Fold:
    """What the parser makes of each leaf and operator; ``binary`` maps each
    binary tree node to the fold of its two operands.

    ``atom`` may return ``None`` for a name it does not know; the parser then
    folds on with ``const(False)`` and reports the first such name once the
    whole text has parsed.
    """

    __slots__ = ("atom", "const", "neg", "binary")

    def __init__(self, atom: Callable, const: Callable, neg: Callable,
                 binary: Mapping[type, Callable]):
        self.atom, self.const, self.neg, self.binary = atom, const, neg, binary


#: The fold that builds the expression tree.
_TREE = _Fold(Atom, Const, Not, {node: node for node in _SYNTAX})


def _mask_fold(algebra: Algebra) -> _Fold:
    """The fold that computes element masks over ``algebra``."""
    full = algebra.full_mask
    masks = {name: algebra.prop(name).mask for name in algebra.props}
    return _Fold(
        masks.get,
        (0, full).__getitem__,  # False -> bottom, True -> top
        full.__xor__,  # complement
        {
            And: int.__and__,
            Or: int.__or__,
            Implies: lambda left, right: left ^ full | right,  # ~left | right
            Iff: lambda left, right: left ^ right ^ full,  # ~(left xor right)
        },
    )


class _Parser:
    """Precedence climbing over one text; every rule returns its folded value
    and the depth of its tree.

    Token offsets are found again only for an error message, so the parse
    itself reads plain strings.
    """

    __slots__ = ("text", "fold", "tokens", "i", "nesting", "unknown")

    def __init__(self, text: str, fold: _Fold):
        pairs = _TOKEN.findall(text)
        if not pairs:
            raise FormulaError("empty formula", offset=0)
        tokens, bad = zip(*pairs)
        if any(bad):
            m = next(m for m in _TOKEN.finditer(text) if m.group(2))
            raise FormulaError(f"unexpected character {m.group(2)!r}", offset=m.start(2))
        self.text = text
        self.fold = fold
        self.tokens = tokens + (None,)  # None marks the end of input
        self.i = 0
        self.nesting = 0  # open "~", "(" and "->" levels, bounded so recursion stays shallow
        self.unknown: str | None = None  # the first name ``fold.atom`` did not know

    def run(self):
        value, _ = self.parse_binary(1)
        tok = self.tokens[self.i]
        if tok is not None:
            raise FormulaError(f"trailing input {tok!r}", offset=self.offset(self.i))
        return value

    def offset(self, i: int) -> int:
        """Offset of token ``i``, or the text's length past the last token."""
        if i == len(self.tokens) - 1:
            return len(self.text)
        return next(islice(_TOKEN.finditer(self.text), i, None)).start(1)

    def too_deep(self, at: int) -> FormulaError:
        return FormulaError(f"formula nests deeper than {MAX_DEPTH} levels", offset=self.offset(at))

    def descend(self, at: int) -> None:
        """Enter a nested rule; recursion stops before it can exhaust the stack."""
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise self.too_deep(at)

    def joined(self, op, left, right, at: int):
        depth = (left[1] if left[1] > right[1] else right[1]) + 1
        if depth > MAX_DEPTH:
            raise self.too_deep(at)
        return op(left[0], right[0]), depth

    def parse_binary(self, least: int):
        """An operand and every binary operator after it of precedence at
        least ``least``; a right-associative one nests, and its level counts."""
        e = self.parse_unary()
        while True:
            op = _OPERATORS.get(self.tokens[self.i])
            if op is None or op[0] < least:
                return e
            prec, right, node = op
            at = self.i
            self.i += 1
            if right:
                self.descend(at)
                operand = self.parse_binary(prec)
                self.nesting -= 1
            else:
                operand = self.parse_binary(prec + 1)
            e = self.joined(self.fold.binary[node], e, operand, at)

    def parse_unary(self):
        at = self.i
        tok = self.tokens[at]
        if tok is None:
            raise FormulaError("unexpected end of input", offset=len(self.text))
        if tok in _NO_OPERAND:
            raise FormulaError(f"unexpected token {tok!r}", offset=self.offset(at))
        self.i = at + 1
        if tok == "~":
            self.descend(at)
            operand, depth = self.parse_unary()
            self.nesting -= 1
            value = self.fold.neg(operand)
        elif tok == "(":
            self.descend(at)
            value, depth = self.parse_binary(1)
            self.nesting -= 1
            if self.tokens[self.i] != ")":
                raise FormulaError("expected ')'", offset=self.offset(self.i))
            self.i += 1
        elif tok == "0" or tok == "1":
            return self.fold.const(tok == "1"), 0
        else:
            value = self.fold.atom(tok)
            if value is None:
                if self.unknown is None:
                    self.unknown = tok
                value = self.fold.const(False)
            return value, 0
        if depth + 1 > MAX_DEPTH:
            raise self.too_deep(at)
        return value, depth + 1


def parse(text: str) -> AspectExpr:
    """Parse a formula; raises :class:`FormulaError` with a byte offset on bad input."""
    return _Parser(text, _TREE).run()


class ElementReader:
    """Reads formula texts over one algebra straight to element masks.

    The grammar is the one :func:`parse` uses, folded to minterm masks through
    one name-to-mask dict built here, so a formula costs one tokenization and
    builds no tree.  ``read(text)`` is the mask of
    ``evaluate(parse(text), algebra)`` and raises the same errors: a syntax
    error anywhere in the text before an unknown proposition, and of those the
    first in the text.
    """

    def __init__(self, algebra: Algebra):
        self.algebra = algebra
        self.fold = _mask_fold(algebra)

    def read(self, text: str) -> int:
        parser = _Parser(text, self.fold)
        mask = parser.run()
        if parser.unknown is not None:
            self.algebra.prop(parser.unknown)  # raises the unknown-proposition error
        return mask


def evaluate(expr: AspectExpr, algebra: Algebra) -> Element:
    """The element whose minterms are exactly the satisfying assignments of ``expr``."""
    fold = _mask_fold(algebra)

    def mask(e: AspectExpr) -> int:
        if isinstance(e, Atom):
            m = fold.atom(e.name)
            return algebra.prop(e.name).mask if m is None else m
        if isinstance(e, Const):
            return fold.const(e.value)
        if isinstance(e, Not):
            return fold.neg(mask(e.operand))
        op = fold.binary.get(type(e))
        if op is None:
            raise TypeError(f"not an aspect expression: {e!r}")
        return op(mask(e.left), mask(e.right))

    return Element(algebra, mask(expr))


def _fmt(expr: AspectExpr, parent_level: int) -> str:
    if isinstance(expr, Atom):
        return expr.name
    if isinstance(expr, Const):
        return "1" if expr.value else "0"
    if isinstance(expr, Not):
        level = len(_OPERATORS) + 1  # tighter than every binary operator
        body = f"~{_fmt(expr.operand, level)}"
    else:
        tok, level, right = _SYNTAX[type(expr)]
        # only the child on the associative side may be a bare operator of this level
        body = f"{_fmt(expr.left, level + right)} {tok} {_fmt(expr.right, level + (not right))}"
    return f"({body})" if level < parent_level else body


def format_expr(expr: AspectExpr) -> str:
    """Canonical text for an expression; re-parsing evaluates to the same element."""
    return _fmt(expr, 0)


def render_element(
    element: Element,
    preferred: Mapping[int, str] | None = None,
    max_atoms: int = 64,
) -> str:
    """Readable formula for an element.

    Prefers the formula ``preferred`` holds for the element's mask (e.g.
    ``Interpretation.formulas``, the formulas authored in a model file);
    otherwise falls back to a disjunctive normal form over the algebra's atoms.
    """
    if preferred:
        name = preferred.get(element.mask)
        if name is not None:
            return name
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
