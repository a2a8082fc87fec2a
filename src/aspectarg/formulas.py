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

One regular expression tokenizes every formula, by one ``findall`` per
window of the text (at most 4 KB bar one longer name, ending where a token
does), and one loop with an operator stack reads the tokens.  The loop keeps
one window and does not recurse, so a text of any length reads in memory
bounded by the window, its longest name and :data:`MAX_DEPTH`; an error's
offset is found only when it is raised.  The loop folds each operator as it
reduces it.  :class:`ElementReader`, which the model-file loader uses, folds
straight to the masks of algebra elements; it is the one evaluator.
:func:`parse` folds to a tree of the seven node classes; no command uses it,
but the traced benchmark counts its calls and the tests' reference parser
builds the same nodes.  :func:`render_element` is the one printer: it writes an element, not
a tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
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

#: Every token but a name.  Any other character that no name starts with is
#: read as a token of its own, which the grammar never accepts.
_SIGNS = frozenset(("(", ")", "~", "&", "|", "->", "<->", "0", "1"))
#: One match per token, the signs of more than one character first: what
#: lies between matches is whitespace.
_TOKEN = re.compile(rf"<->|->|{_NAME_PATTERN}|\S")
#: A match ends after the last character that no token runs on past (any but
#: a name's and a sign's but its last), where a window of the text may end.
_CUT = re.compile(r"(?s).*[^A-Za-z0-9_<-]")
#: The characters a window of the text holds at most, bar one long name.
_WINDOW = 4096
#: The constants, by their truth values, and the empty token that ends a
#: window of the text.
_LEAF_OR_END = {"0": False, "1": True, "": None}

IDENT = re.compile(rf"{_NAME_PATTERN}\Z")

#: Deepest formula tree the parser accepts.  Model files nest a few levels;
#: synthesized witnesses write flat disjunctions of up to 20 propositions.
MAX_DEPTH = 100
_TOO_DEEP = f"formula nests deeper than {MAX_DEPTH} levels"


class _Fold:
    """What the parser makes of each leaf and operator.

    ``atom`` returns ``None`` for a token that is no name, and may for a
    name it does not know; the parser then folds on with
    ``const(False)`` and reports the first such name once the whole text has
    parsed.  ``ops`` maps each binary operator to its precedence (a higher
    one binds tighter, and ``~`` tighter than all), the least precedence it
    reduces (above its own for the right-associative ``->``), whether it
    opens a level, and the fold of its two operands.
    """

    __slots__ = ("atom", "const", "neg", "ops")

    def __init__(self, atom: Callable, const: Callable, neg: Callable,
                 iff: Callable, implies: Callable, or_: Callable, and_: Callable):
        self.atom, self.const, self.neg = atom, const, neg
        self.ops = {"<->": (1, 1, False, iff), "->": (2, 3, True, implies),
                    "|": (3, 3, False, or_), "&": (4, 4, False, and_)}


#: The fold that builds the expression tree.
_TREE = _Fold(lambda name: Atom(name) if IDENT.match(name) else None, Const, Not,
              Iff, Implies, Or, And)


def _mask_fold(algebra: Algebra) -> _Fold:
    """The fold that computes element masks over ``algebra``."""
    k, full = algebra.k, algebra.full_mask
    # a name no token reads as stays unknown
    masks = {name: _prop_mask(k, i) for i, name in enumerate(algebra.props) if IDENT.match(name)}
    return _Fold(
        masks.get,
        (0, full).__getitem__,  # False -> bottom, True -> top
        full.__xor__,  # complement
        lambda left, right: left ^ right ^ full,  # <->: ~(left xor right)
        lambda left, right: left ^ full | right,  # ->: ~left | right
        int.__or__,
        int.__and__,
    )


def _window(text: str, start: int) -> tuple[list[str], int]:
    """The tokens of ``text`` from ``start`` to a token's end at most
    :data:`_WINDOW` characters on, or just past one longer name, then the
    empty token; and where the next window starts, or 0 after the last."""
    end = start + _WINDOW
    while end < len(text):
        cut = _CUT.match(text, start, end)
        if cut is not None:
            end = cut.end()
            break
        # no space in the window, and its last two tokens may begin one token
        tokens = _TOKEN.findall(text, start, end)
        if len(tokens) > 2:
            end -= len(tokens.pop()) + len(tokens.pop())
            tokens.append("")
            return tokens, end
        # a name runs on past the window: hold the whole of it
        end = _TOKEN.match(text, end - len(tokens[-1])).end() + _WINDOW
    tokens = _TOKEN.findall(text, start, end)
    tokens.append("")
    return tokens, end if end < len(text) else 0


def _offset(text: str, number: int, start: int = 0) -> int:
    """Where token ``number``, counted from 0 at ``start``, starts: the end
    of the text for the empty token after the last."""
    m = next(islice(_TOKEN.finditer(text, start), number, None), None)
    return len(text) if m is None else m.start()


def _fail(text: str, number: int, message: str, at: int | None = None) -> NoReturn:
    """Raise ``message`` at token number ``at``, by default ``number``, unless
    that token or a later one is a character no token starts with, which
    wins."""
    start = _offset(text, number)
    while True:
        tokens, more = _window(text, start)
        bad = [tok for tok in set(tokens).difference(_SIGNS, [""]) if not IDENT.match(tok)]
        if bad:
            first = min(map(tokens.index, bad))
            raise FormulaError(f"unexpected character {tokens[first]!r}",
                               offset=_offset(text, first, start))
        if not more:
            raise FormulaError(message, offset=_offset(text, number if at is None else at))
        start = more


#: Precedence of ``~`` on the parser's stack: whatever follows its operand reduces it.
_NOT_PREC = 5


def _read(text: str, fold: _Fold):
    """The folded value of ``text`` and the first name ``fold.atom`` did not
    know, or ``None``.

    ``tok`` is ``tokens[i]``, the text's token number ``base + i``; a window
    but the last ends in an empty token that stands for the next.  The stack
    holds each pending ``(`` as ``(0, None, number)`` and each pending
    operator as ``(precedence, fold or None for ~, number, left value, left
    depth, opens a level)``.  A binary operator, ``)`` or the end first
    reduces every pending operator that binds at least as tight (for ``->``:
    tighter).  ``nesting`` counts the pending ``~``, ``(`` and ``->``, each
    operand carries its tree's depth, and either past :data:`MAX_DEPTH` is an
    error at the token that opened the level."""
    if not text or text.isspace():
        raise FormulaError("empty formula", offset=0)
    atom, const, neg, ops = fold.atom, fold.const, fold.neg, fold.ops
    tokens, more = _window(text, 0)
    tok, i, base = tokens[0], 0, 0
    stack: list[tuple] = []
    nesting = 0
    unknown = None
    while True:
        # an operand: a ``~`` or ``(`` opens a level, a leaf completes it
        if tok == "(" or tok == "~":
            nesting += 1
            if nesting > MAX_DEPTH:
                _fail(text, base + i, _TOO_DEEP)
            stack.append((0, None, base + i) if tok == "("
                         else (_NOT_PREC, None, base + i, None, 0, 1))
            i += 1
            tok = tokens[i]
            continue
        if tok not in _LEAF_OR_END:
            value = atom(tok)
            if value is None:
                if not IDENT.match(tok):  # ")", an operator or a character no token starts with
                    _fail(text, base + i, f"unexpected token {tok!r}")
                unknown = unknown or tok
                value = const(False)
        elif tok:
            value = const(_LEAF_OR_END[tok])
        elif more:  # the end of a window
            base += i
            tokens, more = _window(text, more)
            tok, i = tokens[0], 0
            continue
        else:
            _fail(text, base + i, "unexpected end of input")
        depth = 0
        i += 1
        tok = tokens[i]
        # after an operand: reduce, then a binary operator, a ")" or the end
        while True:
            op = ops.get(tok)
            if op is not None:
                prec, least, right, join = op
            elif not tok and more:
                base += i
                tokens, more = _window(text, more)
                tok, i = tokens[0], 0
                continue
            else:
                least = 1
            while stack and stack[-1][0] >= least:
                _, fold_pending, at, left, left_depth, opened = stack.pop()
                nesting -= opened
                if left_depth > depth:
                    depth = left_depth
                depth += 1
                if depth > MAX_DEPTH:
                    _fail(text, base + i, _TOO_DEEP, at)
                value = neg(value) if fold_pending is None else fold_pending(left, value)
            if op is not None:
                if right:
                    nesting += 1
                    if nesting > MAX_DEPTH:
                        _fail(text, base + i, _TOO_DEEP)
                stack.append((prec, join, base + i, value, depth, right))
                i += 1
                tok = tokens[i]
                break
            if tok == ")" and stack:  # the top is the "(" this closes
                at = stack.pop()[2]
                nesting -= 1
                depth += 1
                if depth > MAX_DEPTH:
                    _fail(text, base + i, _TOO_DEEP, at)
                i += 1
                tok = tokens[i]
                continue
            if stack:
                _fail(text, base + i, "expected ')'")
            if tok:
                _fail(text, base + i, f"trailing input {tok!r}")
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
