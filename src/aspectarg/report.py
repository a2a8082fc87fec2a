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
        lines.extend(f"  [{cid}] {detail}" for detail in details)
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


class _RegionPieces(dict):
    """The pieces of E's records of one text context, written at indent
    ``nl``: ``statements[j]`` is statement ``j``'s record up to its detail
    head, then its ``statements`` list; ``self[i1, i2]``, made on first
    lookup, is a pair's detail tail, then its two theme sets and the
    closing brace.  ``encode_basestring_ascii`` escapes code point by code
    point, so ``quote(head + tail) == quote(head)[:-1] + quote(tail)[1:]``."""

    def __init__(self, context: RegionContext, nl: str, lists: _StringLists) -> None:
        inner = nl + "  "
        start = "," + nl + "{" + inner + '"constraint": '
        detail, statements = f',{inner}"detail": ', f',{inner}"statements": '
        self.statements = [
            (start + _quote(cid) + detail + _quote(head)[:-1], statements + lists[named])
            for cid, named, head in zip(context.cids, context.named, context.heads)
        ]
        self.context, self.lists = context, lists
        self.theme_set, self.theme_set2 = f',{inner}"theme_set": ', f',{inner}"theme_set2": '
        self.end = nl + "}"

    def __missing__(self, pair: tuple[int, int]) -> tuple[str, str]:
        i1, i2 = pair
        keys, lists = self.context.keys, self.lists
        pieces = self[pair] = (
            _quote(self.context.tail(i1, i2))[1:],
            self.theme_set + lists[keys[i1]] + self.theme_set2 + lists[keys[i2]] + self.end,
        )
        return pieces


def _write_region_records(
    vs: ExactRegionWitnesses, nl: str, chunks: list[str], memos: dict
) -> None:
    """E's non-empty witness rows as the records :func:`_write_records`
    writes for their violations, each from two pieces of its statement and
    two of its theme-set pair.  The pieces are kept per text context and
    indent, which the three lists of one check share."""
    key = (vs.context, nl)
    pieces = memos.get(key)
    if pieces is None:
        pieces = memos[key] = _RegionPieces(vs.context, nl, _string_lists(nl + "  ", memos))
    by_statement = pieces.statements
    append = chunks.append
    first = len(chunks)
    for j, i1, i2 in vs.rows:
        head, named = by_statement[j]
        tail, themes = pieces[i1, i2]
        append(head)
        append(tail)
        append(named)
        append(themes)
    chunks[first] = chunks[first][len(nl) + 1 :]  # the first record follows no comma
