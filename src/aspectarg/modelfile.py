"""The model file format: a JSON document describing graph + interpretation.

Layout::

    {
      "themes": ["t1", "t2"],
      "props": ["aP", "aCostH"],
      "statements": [
        {"id": "s1", "kind": "ordinary", "themes": ["t1"]},
        {"id": "p1", "kind": "pointer", "theme": "t1", "target": "s1", "themes": ["t2"]},
        {"id": "p2", "kind": "pointer", "theme": "t1", "target": "@summary", "themes": ["t1"]}
      ],
      "relations": [
        {"from": "p1", "to": "s1", "types": ["attack"], "themes": ["t1"]}
      ],
      "interpretation": {
        "default": "union",
        "theme_aspects": [{"themes": ["t1"], "aspects": "ALL"}],
        "statement_aspects": [{"themes": ["t1"], "statement": "s1", "aspects": ["aP"]}]
      }
    }

Aspects are formula strings in the aspect language; the string ``"ALL"``
(theme rows only) denotes the full carrier.  ``"@summary"`` marks a pointer
to a theme's summary; ``"@omega"`` is reserved.  ``"default"`` may be left
out; its one value, ``"union"``, names the defaulting rule of
:class:`~aspectarg.model.Interpretation`.  The interpretation block may be
omitted (e.g. in inputs to witness synthesis), in which case every aspect
set is empty.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Any

from .algebra import Element, mk_algebra
from .errors import AspectArgError, ModelFileError
from .formulas import IDENT, ElementReader, render_element
from .model import (
    OMEGA,
    REL_TYPES,
    SUMMARY,
    AspectSet,
    Interpretation,
    Model,
    Relation,
    Statement,
)

RESERVED_IDS = (OMEGA, SUMMARY)
#: The one value of ``interpretation.default``: multi-theme statement rows
#: default to the union of the singleton rows.
_UNION = "union"


@dataclass
class Document:
    """A loaded model file."""

    model: Model
    interpretation: Interpretation


def _expect(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise ModelFileError(f"{where}: {message}")


def _string_list(value: Any, where: str) -> list[str]:
    _expect(isinstance(value, list), where, "expected a list of strings")
    for x in value:
        _expect(isinstance(x, str), where, "expected a list of strings")
    return list(value)


def load_path(path: str | Path) -> Document:
    p = Path(path)
    try:
        raw = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ModelFileError(f"cannot read {p}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ModelFileError(f"{p} is not UTF-8 text: {exc}") from exc
    return loads(raw)


def loads(text: str) -> Document:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ModelFileError("invalid JSON: nested too deeply") from exc
    return from_dict(data)


def from_dict(data: Any) -> Document:
    _expect(isinstance(data, dict), "document", "expected a JSON object")
    for key in ("themes", "props", "statements", "relations"):
        _expect(key in data, "document", f"missing required key {key!r}")

    themes = _string_list(data["themes"], "themes")
    _expect(len(set(themes)) == len(themes), "themes", "duplicate theme ids")
    for t in themes:
        _expect(t not in RESERVED_IDS, "themes", f"{t!r} is reserved")
        _expect(bool(t), "themes", "theme ids must be non-empty")

    props = _string_list(data["props"], "props")
    for name in props:
        _expect(
            bool(IDENT.match(name)),
            "props",
            f"proposition {name!r} is not a valid identifier",
        )
    try:
        algebra = mk_algebra(props)
    except AspectArgError as exc:
        raise ModelFileError(f"props: {exc}") from exc

    statements: list[Statement] = []
    statement_themes: dict[str, list[str]] = {}
    _expect(isinstance(data["statements"], list), "statements", "expected a list")
    for i, entry in enumerate(data["statements"]):
        where = f"statements[{i}]"
        _expect(isinstance(entry, dict), where, "expected an object")
        sid = entry.get("id")
        _expect(isinstance(sid, str) and sid != "", where, "missing or empty id")
        _expect(sid not in RESERVED_IDS, where, f"statement id {sid!r} is reserved")
        _expect(sid not in statement_themes, where, f"duplicate statement id {sid!r}")
        kind = entry.get("kind", "ordinary")
        _expect(kind in ("ordinary", "pointer"), where, f"unknown kind {kind!r}")
        if kind == "pointer":
            theme, target = entry.get("theme"), entry.get("target")
            _expect(isinstance(theme, str), where, "pointer needs a 'theme'")
            _expect(isinstance(target, str), where, "pointer needs a 'target'")
            _expect(target != OMEGA, where, f"{OMEGA!r} cannot be a pointer target")
            ref_target = None if target == SUMMARY else target
            statements.append(Statement(sid, ref_theme=theme, ref_target=ref_target))
        else:
            _expect("theme" not in entry and "target" not in entry, where,
                    "ordinary statements take no 'theme'/'target'")
            statements.append(Statement(sid))
        statement_themes[sid] = _string_list(entry.get("themes", []), where + ".themes")

    relations: list[Relation] = []
    _expect(isinstance(data["relations"], list), "relations", "expected a list")
    for i, entry in enumerate(data["relations"]):
        where = f"relations[{i}]"
        _expect(isinstance(entry, dict), where, "expected an object")
        src, dst = entry.get("from"), entry.get("to")
        _expect(isinstance(src, str) and isinstance(dst, str), where, "needs 'from' and 'to'")
        types = _string_list(entry.get("types", []), where + ".types")
        for ty in types:
            _expect(ty in REL_TYPES, where, f"unknown relation type {ty!r}")
        rel_themes = _string_list(entry.get("themes", []), where + ".themes")
        relations.append(Relation(src, dst, frozenset(types), frozenset(rel_themes)))

    try:
        model = Model.build(themes, statements, statement_themes, relations)
    except AspectArgError as exc:
        raise ModelFileError(str(exc)) from exc

    interp_data = data.get("interpretation")
    # the shortest formula written for each element, to name it in reports
    formulas: dict[Element, str] = {}

    def remember(formula: str, element: Element) -> None:
        prev = formulas.get(element)
        if prev is None or len(formula) < len(prev):
            formulas[element] = formula

    reader = ElementReader(algebra)
    # each formula text this document has read, to its element: a text written
    # in many rows is read once, and nothing outlives the document
    read: dict[str, Element] = {}

    def parse_aspects(value: Any, where: str, allow_all: bool) -> AspectSet:
        if value == "ALL":
            _expect(allow_all, where, '"ALL" is only valid for theme aspects')
            return AspectSet(algebra, full=True)
        elements = set()
        for f in _string_list(value, where):
            element = read.get(f)
            if element is None:
                try:
                    element = reader.read(f)
                except AspectArgError as exc:
                    raise ModelFileError(f"{where}: bad formula {f!r}: {exc}") from exc
                read[f] = element
            remember(f, element)
            elements.add(element)
        return AspectSet(algebra, frozenset(elements))

    def parse_theme_key(value: Any, where: str) -> frozenset[str]:
        key_themes = _string_list(value, where)
        for t in key_themes:
            _expect(t in themes, where, f"unknown theme {t!r}")
        return frozenset(key_themes)

    theme_rows: dict[frozenset[str], AspectSet] = {}
    statement_rows: dict[tuple[frozenset[str], str], AspectSet] = {}
    if interp_data is not None:
        _expect(isinstance(interp_data, dict), "interpretation", "expected an object")
        default = interp_data.get("default", _UNION)
        _expect(default == _UNION, "interpretation.default", f"expected 'union', got {default!r}")
        theme_entries = interp_data.get("theme_aspects", [])
        _expect(isinstance(theme_entries, list), "interpretation.theme_aspects", "expected a list")
        for i, entry in enumerate(theme_entries):
            where = f"interpretation.theme_aspects[{i}]"
            _expect(isinstance(entry, dict), where, "expected an object")
            key = parse_theme_key(entry.get("themes"), where + ".themes")
            _expect(key not in theme_rows, where, "duplicate theme-aspect row")
            theme_rows[key] = parse_aspects(entry.get("aspects"), where + ".aspects", True)
        statement_entries = interp_data.get("statement_aspects", [])
        _expect(isinstance(statement_entries, list), "interpretation.statement_aspects",
                "expected a list")
        for i, entry in enumerate(statement_entries):
            where = f"interpretation.statement_aspects[{i}]"
            _expect(isinstance(entry, dict), where, "expected an object")
            key = parse_theme_key(entry.get("themes"), where + ".themes")
            sid = entry.get("statement")
            _expect(isinstance(sid, str), where, "needs a 'statement' id")
            _expect(model.has_statement(sid), where, f"unknown statement {sid!r}")
            _expect((key, sid) not in statement_rows, where, "duplicate statement-aspect row")
            statement_rows[(key, sid)] = parse_aspects(
                entry.get("aspects"), where + ".aspects", False
            )

    return Document(model, Interpretation(algebra, theme_rows, statement_rows, formulas))


def to_dict(model: Model, interp: Interpretation) -> dict:
    """Serialise a model and an interpretation; :func:`from_dict` reads it back.

    A full theme row is ``"ALL"``.  Every other row lists its elements in
    ascending mask order, each named by ``interp.formulas`` or else by a formula
    :func:`render_element` spells out, so every row parses back to itself.  A
    full statement row lists its carrier, which has at most 4 propositions when
    a file listed it.
    """
    algebra = interp.algebra

    def aspects(row: AspectSet) -> list[str]:
        elements = algebra.elements() if row.full else sorted(row.elements, key=attrgetter("mask"))
        return [render_element(e, interp.formulas, max_atoms=algebra.n_minterms) for e in elements]

    out: dict[str, Any] = {
        "themes": list(model.themes),
        "props": list(algebra.props),
        "statements": [],
        "relations": [],
    }
    for s in model.statements:
        entry: dict[str, Any] = {"id": s.id, "kind": "pointer" if s.is_pointer else "ordinary"}
        if s.is_pointer:
            entry["theme"] = s.ref_theme
            entry["target"] = SUMMARY if s.is_summary_pointer else s.ref_target
        entry["themes"] = sorted(model.themes_of(s.id))
        out["statements"].append(entry)
    for r in sorted(model.relations, key=lambda r: r.pair):
        out["relations"].append(
            {
                "from": r.source,
                "to": r.target,
                "types": sorted(r.rel_types),
                "themes": sorted(r.themes),
            }
        )
    block: dict[str, Any] = {"default": _UNION, "theme_aspects": [], "statement_aspects": []}
    theme_rows = interp.theme_aspects
    for key in sorted(theme_rows, key=lambda k: (len(k), sorted(k))):
        row = theme_rows[key]
        block["theme_aspects"].append(
            {"themes": sorted(key), "aspects": "ALL" if row.full else aspects(row)}
        )
    rows = interp.statement_aspects
    for (key, sid) in sorted(rows, key=lambda ks: (sorted(ks[0]), ks[1])):
        block["statement_aspects"].append(
            {"themes": sorted(key), "statement": sid, "aspects": aspects(rows[(key, sid)])}
        )
    out["interpretation"] = block
    return out


def dumps(data: dict) -> str:
    return json.dumps(data, indent=2) + "\n"
