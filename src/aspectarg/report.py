"""Report assembly and rendering (human text and machine JSON).

Reports are deterministic: violations are sorted by constraint id and
witness, theme sets and extensions are sorted lexicographically, and the
machine rendering is plain JSON of the same structure.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Mapping

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
    ``Violation``s, which are written as the dict of their set fields.
    """
    chunks: list[str] = []
    _write(report, "\n", chunks, {})
    chunks.append("\n")
    return "".join(chunks)


def _write(value: Any, nl: str, chunks: list[str], memo: dict) -> None:
    """Append ``value`` to ``chunks``; ``nl`` is a newline and the indent of
    the line the value starts on, ``memo`` holds the written string lists of
    violations."""
    if isinstance(value, Violation):
        _write_violation(value, nl, chunks, memo)
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
        sep = "[" + inner
        for item in value:
            chunks.append(sep)
            _write(item, inner, chunks, memo)
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
            _write(value[key], inner, chunks, memo)
            sep = "," + inner
        chunks.append(nl + "}")
    else:
        raise TypeError(f"a report cannot hold {type(value).__name__}")


def _write_violation(v: Violation, nl: str, chunks: list[str], memo: dict) -> None:
    """A violation as its record: ``constraint`` and ``detail`` always, each
    other field when set (``statements`` when non-empty, the rest when not
    ``None``), in sorted key order."""
    inner = nl + "  "
    record = '{%s"constraint": %s,%s"detail": %s' % (
        inner, _quote(v.constraint), inner, _quote(v.detail)
    )
    if v.rel_type is not None:
        record += ',%s"rel_type": %s' % (inner, _quote(v.rel_type))
    if v.relation is not None:
        record += ',%s"relation": %s' % (inner, _strings(v.relation, inner, memo))
    if v.statements:
        record += ',%s"statements": %s' % (inner, _strings(v.statements, inner, memo))
    if v.theme_set is not None:
        record += ',%s"theme_set": %s' % (inner, _strings(v.theme_set, inner, memo))
    if v.theme_set2 is not None:
        record += ',%s"theme_set2": %s' % (inner, _strings(v.theme_set2, inner, memo))
    chunks.append(record + nl + "}")


def _strings(items: tuple[str, ...], nl: str, memo: dict) -> str:
    """A list of strings starting on a line indented as ``nl``; a report
    repeats few distinct theme sets and statement lists, so each is written
    once per report."""
    text = memo.get((items, nl))
    if text is None:
        inner = nl + "  "
        text = "[" + inner + ("," + inner).join(map(_quote, items)) + nl + "]" if items else "[]"
        memo[items, nl] = text
    return text
