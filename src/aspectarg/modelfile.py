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
from pathlib import Path
from typing import Any, NoReturn

from .algebra import Element, mk_algebra
from .errors import AspectArgError, ModelFileError
from .formulas import IDENT, ElementReader, render_element
from .model import (
    FULL_ROW,
    OMEGA,
    REL_TYPES,
    SUMMARY,
    Interpretation,
    Model,
    Relation,
    Row,
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


def _fail(where: str, message: str) -> NoReturn:
    raise ModelFileError(f"{where}: {message}")


def _is_strings(value: Any) -> bool:
    """Whether ``value`` is a list of strings."""
    if not isinstance(value, list):
        return False
    for x in value:
        if not isinstance(x, str):
            return False
    return True


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
    """Read a parsed model file.  The first problem in document order raises a
    :class:`ModelFileError`, whose text is built only then."""
    if not isinstance(data, dict):
        _fail("document", "expected a JSON object")
    for key in ("themes", "props", "statements", "relations"):
        if key not in data:
            _fail("document", f"missing required key {key!r}")

    themes = data["themes"]
    if not _is_strings(themes):
        _fail("themes", "expected a list of strings")
    declared = set(themes)
    if len(declared) != len(themes):
        _fail("themes", "duplicate theme ids")
    for t in themes:
        if t in RESERVED_IDS:
            _fail("themes", f"{t!r} is reserved")
        if not t:
            _fail("themes", "theme ids must be non-empty")

    props = data["props"]
    if not _is_strings(props):
        _fail("props", "expected a list of strings")
    for name in props:
        if not IDENT.match(name):
            _fail("props", f"proposition {name!r} is not a valid identifier")
    try:
        algebra = mk_algebra(props)
    except AspectArgError as exc:
        raise ModelFileError(f"props: {exc}") from exc

    statements: list[Statement] = []
    statement_themes: dict[str, list[str]] = {}
    entries = data["statements"]
    if not isinstance(entries, list):
        _fail("statements", "expected a list")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            _fail(f"statements[{i}]", "expected an object")
        sid = entry.get("id")
        if not isinstance(sid, str) or sid == "":
            _fail(f"statements[{i}]", "missing or empty id")
        if sid in RESERVED_IDS:
            _fail(f"statements[{i}]", f"statement id {sid!r} is reserved")
        if sid in statement_themes:
            _fail(f"statements[{i}]", f"duplicate statement id {sid!r}")
        kind = entry.get("kind", "ordinary")
        if kind == "ordinary":
            if "theme" in entry or "target" in entry:
                _fail(f"statements[{i}]", "ordinary statements take no 'theme'/'target'")
            statements.append(Statement(sid))
        elif kind == "pointer":
            theme, target = entry.get("theme"), entry.get("target")
            if not isinstance(theme, str):
                _fail(f"statements[{i}]", "pointer needs a 'theme'")
            if not isinstance(target, str):
                _fail(f"statements[{i}]", "pointer needs a 'target'")
            if target == OMEGA:
                _fail(f"statements[{i}]", f"{OMEGA!r} cannot be a pointer target")
            ref_target = None if target == SUMMARY else target
            statements.append(Statement(sid, ref_theme=theme, ref_target=ref_target))
        else:
            _fail(f"statements[{i}]", f"unknown kind {kind!r}")
        typed = entry.get("themes", [])
        if not _is_strings(typed):
            _fail(f"statements[{i}].themes", "expected a list of strings")
        statement_themes[sid] = typed

    relations: list[Relation] = []
    entries = data["relations"]
    if not isinstance(entries, list):
        _fail("relations", "expected a list")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            _fail(f"relations[{i}]", "expected an object")
        src, dst = entry.get("from"), entry.get("to")
        if not (isinstance(src, str) and isinstance(dst, str)):
            _fail(f"relations[{i}]", "needs 'from' and 'to'")
        types = entry.get("types", [])
        if not _is_strings(types):
            _fail(f"relations[{i}].types", "expected a list of strings")
        for ty in types:
            if ty not in REL_TYPES:
                _fail(f"relations[{i}]", f"unknown relation type {ty!r}")
        rel_themes = entry.get("themes", [])
        if not _is_strings(rel_themes):
            _fail(f"relations[{i}].themes", "expected a list of strings")
        relations.append(Relation(src, dst, frozenset(types), frozenset(rel_themes)))

    try:
        model = Model.build(themes, statements, statement_themes, relations)
    except AspectArgError as exc:
        raise ModelFileError(str(exc)) from exc

    # the shortest formula written for each element mask, to name it in reports
    formulas: dict[int, str] = {}
    reader = ElementReader(algebra)
    # each formula text this document has read, to the one-mask set of its
    # element: a text written in many rows is read once, a row is the union of
    # such sets, which keeps each mask's hash, and nothing outlives the document
    read: dict[str, frozenset[int]] = {}

    def aspects(value: Any, block: str, i: int) -> Row:
        """The row that ``interpretation.<block>[i].aspects`` lists."""
        if value == "ALL":
            if block == "theme_aspects":
                return FULL_ROW
            _fail(f"interpretation.{block}[{i}].aspects", '"ALL" is only valid for theme aspects')
        if not _is_strings(value):
            _fail(f"interpretation.{block}[{i}].aspects", "expected a list of strings")
        singles = []
        for f in value:
            single = read.get(f)
            if single is None:
                try:
                    mask = reader.read(f)
                except AspectArgError as exc:
                    raise ModelFileError(
                        f"interpretation.{block}[{i}].aspects: bad formula {f!r}: {exc}"
                    ) from exc
                single = read[f] = frozenset((mask,))
                if len(formulas.setdefault(mask, f)) > len(f):
                    formulas[mask] = f
            singles.append(single)
        if len(singles) == 1:
            return (False, singles[0])
        return (False, frozenset().union(*singles))

    def theme_key(value: Any, block: str, i: int) -> frozenset[str]:
        if not _is_strings(value):
            _fail(f"interpretation.{block}[{i}].themes", "expected a list of strings")
        for t in value:
            if t not in declared:
                _fail(f"interpretation.{block}[{i}].themes", f"unknown theme {t!r}")
        return frozenset(value)

    theme_rows: dict[frozenset[str], Row] = {}
    statement_rows: dict[tuple[frozenset[str], str], Row] = {}
    interp_data = data.get("interpretation")
    if interp_data is not None:
        if not isinstance(interp_data, dict):
            _fail("interpretation", "expected an object")
        default = interp_data.get("default", _UNION)
        if default != _UNION:
            _fail("interpretation.default", f"expected 'union', got {default!r}")
        block = "theme_aspects"
        entries = interp_data.get(block, [])
        if not isinstance(entries, list):
            _fail(f"interpretation.{block}", "expected a list")
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                _fail(f"interpretation.{block}[{i}]", "expected an object")
            key = theme_key(entry.get("themes"), block, i)
            if key in theme_rows:
                _fail(f"interpretation.{block}[{i}]", "duplicate theme-aspect row")
            theme_rows[key] = aspects(entry.get("aspects"), block, i)
        block = "statement_aspects"
        entries = interp_data.get(block, [])
        if not isinstance(entries, list):
            _fail(f"interpretation.{block}", "expected a list")
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                _fail(f"interpretation.{block}[{i}]", "expected an object")
            key = theme_key(entry.get("themes"), block, i)
            sid = entry.get("statement")
            if not isinstance(sid, str):
                _fail(f"interpretation.{block}[{i}]", "needs a 'statement' id")
            if not model.has_statement(sid):
                _fail(f"interpretation.{block}[{i}]", f"unknown statement {sid!r}")
            if (key, sid) in statement_rows:
                _fail(f"interpretation.{block}[{i}]", "duplicate statement-aspect row")
            statement_rows[(key, sid)] = aspects(entry.get("aspects"), block, i)

    return Document(model, Interpretation(algebra, theme_rows, statement_rows, formulas))


def to_dict(model: Model, interp: Interpretation) -> dict:
    """Serialise a model and an interpretation; :func:`from_dict` reads it back.

    A full theme row is ``"ALL"``.  Every other row lists its elements in
    ascending mask order, each named by ``interp.formulas`` or else by a formula
    :func:`render_element` spells out, so every row parses back to itself.  A
    full statement row lists its carrier, which has at most 4 propositions:
    :class:`Interpretation` refuses any larger one.
    """
    algebra = interp.algebra
    formulas = interp.formulas

    def aspects(row: Row) -> list[str]:
        full, masks = row
        out = []
        for mask in range(algebra.carrier_size) if full else sorted(masks):
            name = formulas.get(mask)
            if name is None:
                name = render_element(Element(algebra, mask), max_atoms=algebra.n_minterms)
            out.append(name)
        return out

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
            {"themes": sorted(key), "aspects": "ALL" if row[0] else aspects(row)}
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
