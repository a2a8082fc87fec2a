"""Report assembly and rendering (human text and machine JSON).

Reports are deterministic: violations are sorted by constraint id and
witness, theme sets and extensions are sorted lexicographically, and the
machine rendering is plain JSON of the same structure.
"""

from __future__ import annotations

from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Mapping, Sequence

from .constraints import ExactRegionWitnesses, RegionContext
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
        details = vs.details() if isinstance(vs, ExactRegionWitnesses) else (v.detail for v in vs)
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
    E's ``ExactRegionWitnesses``, written as the list of their violations.
    A list of violations, the bulk of a large report, is written by one loop
    that computes its indents and keys once and writes each distinct string
    list once per indent.
    """
    chunks: list[str] = []
    _write(report, "\n", chunks, {})
    chunks.append("\n")
    return "".join(chunks)


def _write(value: Any, nl: str, chunks: list[str], memos: dict) -> None:
    """Append ``value`` to ``chunks``; ``nl`` is a newline and the indent of
    the line the value starts on, ``memos`` holds the written string lists
    of violations by indent and E's record pieces by text context and
    indent."""
    if isinstance(value, Violation):
        _write_records((value,), nl, chunks, memos)
    elif isinstance(value, str):
        chunks.append(_quote(value))
    elif value is None:
        chunks.append("null")
    elif value is True:
        chunks.append("true")
    elif value is False:
        chunks.append("false")
    elif isinstance(value, int):
        chunks.append(int.__repr__(value))
    elif isinstance(value, (list, tuple, ExactRegionWitnesses)):
        if not value:
            chunks.append("[]")
            return
        inner = nl + "  "
        if isinstance(value, ExactRegionWitnesses):
            chunks.append("[" + inner)
            _write_region_records(value, inner, chunks, memos)
        elif all(map(isinstance, value, repeat(Violation))):
            chunks.append("[" + inner)
            _write_records(value, inner, chunks, memos)
        else:
            sep = "[" + inner
            for item in value:
                chunks.append(sep)
                _write(item, inner, chunks, memos)
                sep = "," + inner
        chunks.append(nl + "]")
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
            _write(value[key], inner, chunks, memos)
            sep = "," + inner
        chunks.append(nl + "}")
    else:
        raise TypeError(f"a report cannot hold {type(value).__name__}")


class _StringLists(dict):
    """Written string lists, by their tuple, for fields indented as ``nl``;
    a report repeats few distinct theme sets and statement lists, so each
    is written once per indent."""

    def __init__(self, nl: str) -> None:
        self.nl = nl

    def __missing__(self, items: tuple[str, ...]) -> str:
        text = "[]"
        if items:
            inner = self.nl + "  "
            text = "[" + inner + ("," + inner).join(map(_quote, items)) + self.nl + "]"
        self[items] = text
        return text


def _string_lists(inner: str, memos: dict) -> _StringLists:
    lists = memos.get(inner)
    if lists is None:
        lists = memos[inner] = _StringLists(inner)
    return lists


def _write_records(vs: Sequence[Violation], nl: str, chunks: list[str], memos: dict) -> None:
    """A non-empty run of violations as records on lines indented as ``nl``,
    separated by commas: ``constraint`` and ``detail`` always, each other
    field when set (``statements`` when non-empty, the rest when not
    ``None``), in sorted key order."""
    inner = nl + "  "
    lists = _string_lists(inner, memos)
    detail, rel_type, relation, statements, theme_set, theme_set2 = (
        f',{inner}"{key}": '
        for key in ("detail", "rel_type", "relation", "statements", "theme_set", "theme_set2")
    )
    start, end = "," + nl + "{" + inner + '"constraint": ', nl + "}"
    append = chunks.append
    first = len(chunks)
    for v in vs:
        append(start)
        append(_quote(v.constraint))
        append(detail)
        append(_quote(v.detail))
        if v.rel_type is not None:
            append(rel_type)
            append(_quote(v.rel_type))
        if v.relation is not None:
            append(relation)
            append(lists[v.relation])
        if v.statements:
            append(statements)
            append(lists[v.statements])
        if v.theme_set is not None:
            append(theme_set)
            append(lists[v.theme_set])
        if v.theme_set2 is not None:
            append(theme_set2)
            append(lists[v.theme_set2])
        append(end)
    chunks[first] = start[len(nl) + 1 :]  # the first record follows no comma


def _region_pieces(context: RegionContext, nl: str, lists: _StringLists) -> tuple[list, ...]:
    """The pieces of E's records of one text context, written at indent
    ``nl``.  By statement index: the record up to its quoted detail head
    without the closing quote, and its ``statements`` field.  By subset
    index: as a first set, its detail text without quotes and its
    ``theme_set`` field; as a second set, its detail text without the
    opening quote, and its ``theme_set2`` field with the closing brace.
    ``encode_basestring_ascii`` escapes code point by code point, so
    ``quote(a + b) == quote(a)[:-1] + quote(b)[1:]``."""
    inner = nl + "  "
    start = "," + nl + "{" + inner + '"constraint": '
    detail, statements = f',{inner}"detail": ', f',{inner}"statements": '
    theme_set, theme_set2 = f',{inner}"theme_set": ', f',{inner}"theme_set2": '
    end = nl + "}"
    subsets = range(len(context.keys))
    theme_lists = [lists[key] for key in context.keys]
    return (
        [
            start + _quote(cid) + detail + _quote(head)[:-1]
            for cid, head in zip(context.cids, context.heads)
        ],
        [statements + lists[named] for named in context.named],
        [_quote(context.first(i))[1:-1] for i in subsets],
        [theme_set + text for text in theme_lists],
        [_quote(context.second(i))[1:] for i in subsets],
        [theme_set2 + text + end for text in theme_lists],
    )


def _write_region_records(
    vs: ExactRegionWitnesses, nl: str, chunks: list[str], memos: dict
) -> None:
    """E's non-empty witness runs as the records :func:`_write_records`
    writes for their violations.  A record is four chunks: its statement's
    head and its first set's text, its second set's text, its statement's
    ``statements`` field and its first set's ``theme_set`` field, and its
    second set's ``theme_set2`` field.  A run joins its two leading pieces
    once and repeats them for each of its witnesses; the list's chunks are
    then laid out by slice assignment, with no work per witness in Python.
    The pieces are kept per text context and indent, which the three lists
    of one check share."""
    key = (vs.context, nl)
    pieces = memos.get(key)
    if pieces is None:
        pieces = memos[key] = _region_pieces(vs.context, nl, _string_lists(nl + "  ", memos))
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
    block[0] = block[0][len(nl) + 1 :]  # the first record follows no comma
    chunks += block
