"""Textual aspect formulas: reading them to algebra elements, and printing elements.

Grammar, lowest to highest precedence::

    iff     := implies ('<->' implies)*          (left-associative)
    implies := or ('->' implies)?                (right-associative)
    or      := and ('|' and)*
    and     := unary ('&' unary)*
    unary   := '~' unary | '0' | '1' | name | '(' iff ')'

Whitespace is insignificant.  ``a -> b`` means ``~a | b`` and ``a <-> b``
means ``(a -> b) & (b -> a)``.

A formula may nest at most :data:`MAX_DEPTH` levels, counting each operator
and each parenthesised group on the way down to a leaf, so that the trees
:func:`parse` builds compare and print within Python's recursion limit.

One tokenizer (a single regular expression whose groups name each token's
kind) and one loop with an operator stack over the operator table
``_OPERATORS``, which encodes the four binary rules, read every formula.  The
loop keeps no token and does not recurse, so a text of any length reads in
memory bounded by :data:`MAX_DEPTH`.  It folds each operator as it reduces
it.  :class:`ElementReader`, which the model-file loader uses, folds straight
to the masks of algebra elements; it is the one evaluator.  :func:`parse`
folds to a tree of the seven node classes; no command uses it, but the traced
benchmark counts its calls and the tests' reference parser builds the same
nodes.  :func:`render_element` is the one printer: it writes an element, not
a tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Mapping, NoReturn, Union

from .algebra import Algebra, Element, _prop_mask
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

#: A proposition name.
_NAME_PATTERN = r"[A-Za-z_][A-Za-z0-9_]*"

#: One match per token, the group that matched naming its kind.  Matches are
#: contiguous; a text's last is the empty _END token at the text's length.
_TOKEN = re.compile(
    rf"\s*(?:(\()|(~)|({_NAME_PATTERN})|(\))|(<->|->|[&|])|([01])|(\S)|(\Z))")
#: ``Match.lastindex`` of each kind: _BAD is a character no token starts with.
_OPEN, _NOT, _NAME, _CLOSE, _BINARY, _CONST, _BAD, _END = range(1, 9)

#: The binary operators: token -> (precedence, right-associative).  A higher
#: precedence binds tighter; ``~`` binds tighter than all of them.
_OPERATORS = {"<->": (1, False), "->": (2, True), "|": (3, False), "&": (4, False)}

IDENT = re.compile(rf"{_NAME_PATTERN}\Z")

#: Deepest formula tree the parser accepts.  Model files nest a few levels;
#: synthesized witnesses write flat disjunctions of up to 20 propositions.
MAX_DEPTH = 100


class _Fold:
    """What the parser makes of each leaf and operator; ``binary`` maps each
    binary operator's token to the fold of its two operands.

    ``atom`` may return ``None`` for a name it does not know; the parser then
    folds on with ``const(False)`` and reports the first such name once the
    whole text has parsed.  ``ops`` holds each binary token's precedence, the
    least precedence it reduces, whether it opens a level, and its fold.
    """

    __slots__ = ("atom", "const", "neg", "ops")

    def __init__(self, atom: Callable, const: Callable, neg: Callable,
                 binary: Mapping[str, Callable]):
        self.atom, self.const, self.neg = atom, const, neg
        self.ops = {tok: (prec, prec + right, right, binary[tok])
                    for tok, (prec, right) in _OPERATORS.items()}


#: The fold that builds the expression tree.
_TREE = _Fold(Atom, Const, Not, {"<->": Iff, "->": Implies, "|": Or, "&": And})


def _mask_fold(algebra: Algebra) -> _Fold:
    """The fold that computes element masks over ``algebra``."""
    k, full = algebra.k, algebra.full_mask
    masks = {name: _prop_mask(k, i) for i, name in enumerate(algebra.props)}
    return _Fold(
        masks.get,
        (0, full).__getitem__,  # False -> bottom, True -> top
        full.__xor__,  # complement
        {
            "&": int.__and__,
            "|": int.__or__,
            "->": lambda left, right: left ^ full | right,  # ~left | right
            "<->": lambda left, right: left ^ right ^ full,  # ~(left xor right)
        },
    )


def _fail(m: re.Match, match: Callable, message: str, offset: int) -> NoReturn:
    """Raise ``message`` at ``offset``, unless token ``m`` or one ``match``
    walks to after it is a character no token starts with, which wins."""
    while m is not None:
        if m.lastindex == _BAD:
            raise FormulaError(f"unexpected character {m[_BAD]!r}", offset=m.start(_BAD))
        m = match()
    raise FormulaError(message, offset=offset)


def _too_deep(m: re.Match, match: Callable, at: re.Match) -> NoReturn:
    _fail(m, match, f"formula nests deeper than {MAX_DEPTH} levels", at.start(at.lastindex))


#: Precedence of ``~`` on the parser's stack: whatever follows its operand reduces it.
_NOT_PREC = len(_OPERATORS) + 1


def _read(text: str, fold: _Fold):
    """The folded value of ``text`` and the first name ``fold.atom`` did not
    know, or ``None``.

    The stack holds each pending ``(`` as ``(0, None, match)`` and each
    pending operator as ``(precedence, fold or None for ~, match, left value,
    left depth, opens a level)``.  A binary operator, ``)`` or the end first
    reduces every pending operator that binds at least as tight (for ``->``:
    tighter).  ``nesting`` counts the pending ``~``, ``(`` and ``->``, each
    operand carries its tree's depth, and either past :data:`MAX_DEPTH` is an
    error at the token that opened the level."""
    match = _TOKEN.scanner(text).match
    m = match()
    if m.lastindex == _END:
        raise FormulaError("empty formula", offset=0)
    atom, const, neg, ops = fold.atom, fold.const, fold.neg, fold.ops
    stack: list[tuple] = []
    nesting = 0
    unknown = None
    while True:
        # an operand: a ``~`` or ``(`` opens a level, a leaf completes it
        kind = m.lastindex
        if kind <= _NOT:  # "(" or "~"
            nesting += 1
            if nesting > MAX_DEPTH:
                _too_deep(m, match, m)
            stack.append((_NOT_PREC, None, m, None, 0, 1) if kind == _NOT else (0, None, m))
            m = match()
            continue
        if kind == _NAME:
            value = atom(m[_NAME])
            if value is None:
                unknown = unknown or m[_NAME]
                value = const(False)
        elif kind == _CONST:
            value = const(m[_CONST] == "1")
        else:
            _fail(m, match, "unexpected end of input" if kind == _END
                  else f"unexpected token {m[kind]!r}", m.start(kind))
        depth = 0
        m = match()
        # after an operand: reduce, then a binary operator, a ")" or the end
        while True:
            kind = m.lastindex
            if kind == _BINARY:
                prec, least, right, join = ops[m[_BINARY]]
            else:
                least = 1
            while stack and stack[-1][0] >= least:
                _, fold_pending, at, left, left_depth, opened = stack.pop()
                nesting -= opened
                if left_depth > depth:
                    depth = left_depth
                depth += 1
                if depth > MAX_DEPTH:
                    _too_deep(m, match, at)
                value = neg(value) if fold_pending is None else fold_pending(left, value)
            if kind == _BINARY:
                if right:
                    nesting += 1
                    if nesting > MAX_DEPTH:
                        _too_deep(m, match, m)
                stack.append((prec, join, m, value, depth, right))
                m = match()
                break
            if kind == _CLOSE and stack:  # the top is the "(" this closes
                at = stack.pop()[2]
                nesting -= 1
                depth += 1
                if depth > MAX_DEPTH:
                    _too_deep(m, match, at)
                m = match()
                continue
            if stack:
                _fail(m, match, "expected ')'", m.start(kind))
            if kind != _END:
                _fail(m, match, f"trailing input {m[kind]!r}", m.start(kind))
            return value, unknown


def parse(text: str) -> AspectExpr:
    """Parse a formula; raises :class:`FormulaError` with a byte offset on bad input."""
    return _read(text, _TREE)[0]


class ElementReader:
    """Reads formula texts over one algebra straight to element masks.

    The grammar is the one :func:`parse` uses, folded to minterm masks through
    one name-to-mask dict built here, so a formula costs one tokenization and
    builds no tree.  ``read(text)`` is the mask of the element whose minterms
    are exactly the assignments that satisfy ``text``.  It raises the
    :class:`FormulaError` :func:`parse` raises, so a syntax error anywhere in
    the text comes before an unknown proposition, and of those it names the
    first in the text.
    """

    def __init__(self, algebra: Algebra):
        self.algebra = algebra
        self.fold = _mask_fold(algebra)

    def read(self, text: str) -> int:
        mask, unknown = _read(text, self.fold)
        if unknown is not None:
            self.algebra.prop(unknown)  # raises the unknown-proposition error
        return mask


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
    mask, k = element.mask, algebra.k
    complement = mask ^ algebra.full_mask
    for i, name in enumerate(algebra.props):
        prop = _prop_mask(k, i)
        if mask == prop:
            return name
        if complement == prop:
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
