"""Report assembly and rendering (human text and machine JSON).

Reports are deterministic: violations are sorted by constraint id and
witness, theme sets and extensions are sorted lexicographically, and the
machine rendering is plain JSON of the same structure.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Mapping, Sequence

from .model import Violation


def violations_block(groups: Mapping[str, list[Violation]]) -> dict[str, list[Violation]]:
    """The non-empty violation lists by constraint id; ``to_json`` writes each
    ``Violation`` as the record of its set fields."""
    return {cid: vs for cid, vs in sorted(groups.items()) if vs}


def human_violations(groups: Mapping[str, list[Violation]]) -> list[str]:
    lines = []
    for cid in sorted(groups):
        for v in groups[cid]:
            lines.append(f"  [{cid}] {v.detail}")
    return lines


def to_json(report: dict[str, Any]) -> str:
    """Exactly ``json.dumps(report, indent=2, sort_keys=True) + "\\n"``.

    The standard encoder falls back to its pure-Python implementation when
    ``indent`` is set, which dominated the time of large reports.  This
    writer escapes strings with the same (C) ``encode_basestring_ascii`` and
    lays out lines the same way.  It accepts what a report holds: ``str``,
    ``int``, ``bool``, ``None``, lists, tuples, dicts with ``str`` keys and
    ``Violation``s, which are written as the dict of their set fields.  A
    list of violations, the bulk of a large report, is written by one loop
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
    of violations by indent."""
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
    elif isinstance(value, (list, tuple)):
        if not value:
            chunks.append("[]")
            return
        inner = nl + "  "
        if all(isinstance(item, Violation) for item in value):
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


def _write_records(vs: Sequence[Violation], nl: str, chunks: list[str], memos: dict) -> None:
    """A non-empty run of violations as records on lines indented as ``nl``,
    separated by commas: ``constraint`` and ``detail`` always, each other
    field when set (``statements`` when non-empty, the rest when not
    ``None``), in sorted key order."""
    inner = nl + "  "
    lists = memos.get(inner)
    if lists is None:
        lists = memos[inner] = _StringLists(inner)
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
