"""Report assembly and rendering (human text and machine JSON).

Reports are deterministic: violations are sorted by constraint id and
witness, theme sets and extensions are sorted lexicographically, and the
machine rendering is plain JSON of the same structure.
"""

from __future__ import annotations

from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Iterable, Mapping, Sequence

from .constraints import ExactRegionWitnesses, RegionContext, Witnesses, WitnessRows, violation_row
from .model import Violation


def violations_block(
    groups: Mapping[str, Sequence[Violation]]
) -> dict[str, Sequence[Violation]]:
    """The non-empty violation lists by constraint id; ``to_json`` writes each
    ``Violation`` as the record of its set fields."""
    return {cid: vs for cid, vs in sorted(groups.items()) if vs}


def human_violations(groups: Mapping[str, Sequence[Violation]]) -> list[str]:
    lines = []
    for cid in sorted(groups):
        vs = groups[cid]
        details = vs.details() if isinstance(vs, Witnesses) else (v.detail for v in vs)
        lines += map(f"  [{cid}] ".__add__, details)
    return lines


def to_json(report: dict[str, Any]) -> str:
    """Exactly ``json.dumps(report, indent=2, sort_keys=True) + "\\n"``.

    The standard encoder falls back to its pure-Python implementation when
    ``indent`` is set, which dominated the time of large reports.  This
    writer escapes strings with the same (C) ``encode_basestring_ascii`` and
    lays out lines the same way.  It accepts what a report holds: ``str``,
    ``int``, ``bool``, ``None``, lists, tuples, dicts with ``str`` keys,
    ``Violation``s, which are written as the dict of their set fields, and
    the checkers' ``Witnesses``, written as the list of their violations.
    Violation records, the bulk of a large report, are written from one
    :class:`_Layout` per indent, which both record writers read: its record
    start, end and field prefixes are built once, and each distinct string
    list is written once.  Neither builds a ``Violation``: one writes the
    field rows of ``WitnessRows`` (and of a list of ``Violation``s), the
    other E's witness runs.
    """
    chunks: list[str] = []
    _write(report, "\n", chunks, {})
    chunks.append("\n")
    return "".join(chunks)


def _write(value: Any, nl: str, chunks: list[str], layouts: dict[str, _Layout]) -> None:
    """Append ``value`` to ``chunks``; ``nl`` is a newline and the indent of
    the line the value starts on, ``layouts`` holds the record layout of
    each indent that records were written at.  The commonest kinds are
    tested first, and the costlier test against ``Witnesses`` last."""
    if isinstance(value, str):
        chunks.append(_quote(value))
    elif isinstance(value, dict):
        if not value:
            chunks.append("{}")
            return
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(value):
            chunks.append(sep + _quote(key) + ": ")
            _write(value[key], inner, chunks, layouts)
            sep = "," + inner
        chunks.append(nl + "}")
    elif value is None:
        chunks.append("null")
    elif value is True:
        chunks.append("true")
    elif value is False:
        chunks.append("false")
    elif isinstance(value, int):
        chunks.append(int.__repr__(value))
    elif isinstance(value, Violation):
        _write_records((violation_row(value),), _layout(nl, layouts), chunks)
    elif isinstance(value, (list, tuple, Witnesses)):
        if not value:
            chunks.append("[]")
            return
        inner = nl + "  "
        if isinstance(value, WitnessRows):
            chunks.append("[" + inner)
            _write_records(value.rows, _layout(inner, layouts), chunks)
        elif isinstance(value, ExactRegionWitnesses):
            chunks.append("[" + inner)
            _write_region_records(value, _layout(inner, layouts), chunks)
        elif all(map(isinstance, value, repeat(Violation))):
            chunks.append("[" + inner)
            _write_records(map(violation_row, value), _layout(inner, layouts), chunks)
        else:
            sep = "[" + inner
            for item in value:
                chunks.append(sep)
                _write(item, inner, chunks, layouts)
                sep = "," + inner
        chunks.append(nl + "]")
    else:
        raise TypeError(f"a report cannot hold {type(value).__name__}")


#: A record's fields after ``constraint``, in sorted key order.
_FIELDS = ("detail", "rel_type", "relation", "statements", "theme_set", "theme_set2")


class _Layout(dict):
    """How violation records on lines indented as ``nl`` are written: the
    record ``start``, from the comma after the record before up to the
    ``"constraint": `` prefix, the record ``end``, and each other field's
    ``"key": `` prefix, after its comma.  As a dict, it maps each tuple of
    strings to its written string list, and each of E's text contexts to its
    record pieces (:func:`_region_pieces`).  A report repeats few distinct
    theme sets and statement lists, so each is written once per indent."""

    __slots__ = ("nl", "start", "end", *_FIELDS)

    def __init__(self, nl: str) -> None:
        inner = nl + "  "
        self.nl, self.start, self.end = nl, "," + nl + "{" + inner + '"constraint": ', nl + "}"
        for key in _FIELDS:
            setattr(self, key, f',{inner}"{key}": ')

    def __missing__(self, items: tuple[str, ...]) -> str:
        text = "[]"
        if items:
            nl = self.nl + "  "
            inner = nl + "  "
            text = "[" + inner + ("," + inner).join(map(_quote, items)) + nl + "]"
        self[items] = text
        return text


def _layout(nl: str, layouts: dict[str, _Layout]) -> _Layout:
    layout = layouts.get(nl)
    if layout is None:
        layout = layouts[nl] = _Layout(nl)
    return layout


def _write_records(rows: Iterable[tuple], layout: _Layout, chunks: list[str]) -> None:
    """A non-empty run of violations, as their field rows, as records laid
    out by ``layout``, separated by commas: ``constraint`` and ``detail``
    always, each other field when set (``statements`` when non-empty, the
    rest when not ``None``), in sorted key order."""
    start, end = layout.start, layout.end
    detail, rel_type, relation = layout.detail, layout.rel_type, layout.relation
    statements, theme_set, theme_set2 = layout.statements, layout.theme_set, layout.theme_set2
    append = chunks.append
    first = len(chunks)
    for cid, named, pair, themes, themes2, kind, text in rows:
        append(start)
        append(_quote(cid))
        append(detail)
        append(_quote(text))
        if kind is not None:
            append(rel_type)
            append(_quote(kind))
        if pair is not None:
            append(relation)
            append(layout[pair])
        if named:
            append(statements)
            append(layout[named])
        if themes is not None:
            append(theme_set)
            append(layout[themes])
        if themes2 is not None:
            append(theme_set2)
            append(layout[themes2])
        append(end)
    chunks[first] = start[len(layout.nl) + 1 :]  # the first record follows no comma


def _region_pieces(context: RegionContext, layout: _Layout) -> tuple[list, ...]:
    """The pieces of E's records of one text context, laid out by
    ``layout``.  By statement index: the record up to its quoted detail head
    without the closing quote, and its ``statements`` field.  By subset
    index: its first-set text without quotes and its ``theme_set`` field;
    its second-set text without the opening quote, and its ``theme_set2``
    field with the closing brace.  ``encode_basestring_ascii`` escapes code
    point by code point, so ``quote(a + b) == quote(a)[:-1] + quote(b)[1:]``."""
    return (
        [
            layout.start + _quote(cid) + layout.detail + _quote(head)[:-1]
            for cid, head in zip(context.cids, context.heads)
        ],
        [layout.statements + layout[named] for named in context.named],
        [_quote(text)[1:-1] for text in context.firsts],
        [layout.theme_set + layout[key] for key in context.keys],
        [_quote(text)[1:] for text in context.seconds],
        [layout.theme_set2 + layout[key] + layout.end for key in context.keys],
    )


def _write_region_records(vs: ExactRegionWitnesses, layout: _Layout, chunks: list[str]) -> None:
    """E's non-empty witness runs as the records :func:`_write_records`
    writes for their violations.  A record is four chunks: its statement's
    head and its first set's text, its second set's text, its statement's
    ``statements`` field and its first set's ``theme_set`` field, and its
    second set's ``theme_set2`` field.  A run joins its two leading pieces
    once and repeats them for each of its witnesses; the list's chunks are
    then laid out by slice assignment, with no work per witness in Python.
    The layout keeps the pieces by text context, which the three lists of
    one check share."""
    pieces = layout.get(vs.context)
    if pieces is None:
        pieces = layout[vs.context] = _region_pieces(vs.context, layout)
    heads, named, first_texts, theme_sets, second_texts, theme_sets2 = pieces
    leads: list[str] = []
    middles: list[str] = []
    seconds: list[int] = []
    for j, i1, run in vs.runs:
        leads += repeat(heads[j] + first_texts[i1], len(run))
        middles += repeat(named[j] + theme_sets[i1], len(run))
        seconds += run
    block: list[str] = [""] * (4 * len(leads))
    block[0::4] = leads
    block[1::4] = map(second_texts.__getitem__, seconds)
    block[2::4] = middles
    block[3::4] = map(theme_sets2.__getitem__, seconds)
    block[0] = block[0][len(layout.nl) + 1 :]  # the first record follows no comma
    chunks += block
