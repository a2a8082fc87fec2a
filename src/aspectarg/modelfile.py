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

The loader, :func:`from_dict`, reads each distinct formula text once and
names each element in :class:`~aspectarg.model.ElementNames` pairs, so a
mask is hashed only for its one-mask row set.  The writer, :func:`to_dict`
and :func:`dumps`, is its inverse; :func:`dumps` writes the bytes of
``json.dumps(data, indent=2)`` without the standard library's pure-Python
encoder.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote
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
    ElementNames,
    Interpretation,
    Model,
    Relation,
    Row,
    Statement,
    _listable,
)

RESERVED_IDS = (OMEGA, SUMMARY)
_REL_TYPES = frozenset(REL_TYPES)
#: The one value of ``interpretation.default``: multi-theme statement rows
#: default to the union of the singleton rows.
_UNION = "union"
#: The longest formula an error line quotes whole; a longer one is quoted
#: as an excerpt of twice ``_EXCERPT`` characters.
MAX_QUOTED = 1000
_EXCERPT = 100


@dataclass
class Document:
    """A loaded model file."""

    model: Model
    interpretation: Interpretation


def _fail(where: str, message: str) -> NoReturn:
    raise ModelFileError(f"{where}: {message}")


def _bad_formula(where: str, text: str, exc: AspectArgError) -> ModelFileError:
    """The error of formula ``text``: quoted whole up to :data:`MAX_QUOTED`
    characters, else by its length and an excerpt around the error's offset,
    so the line stays short however long the text is."""
    if len(text) <= MAX_QUOTED:
        return ModelFileError(f"{where}: bad formula {text!r}: {exc}")
    start = max(0, (getattr(exc, "offset", None) or 0) - _EXCERPT)
    excerpt = text[start : start + 2 * _EXCERPT]
    return ModelFileError(
        f"{where}: bad formula of {len(text)} characters, {excerpt!r} from offset {start}: {exc}"
    )


def _is_strings(value: Any) -> bool:
    """Whether ``value`` is a list of strings."""
    if not isinstance(value, list):
        return False
    for x in value:
        if not isinstance(x, str):
            return False
    return True


def load_path(path: str | Path) -> Document:
    """Load the model file at ``path``.  Its bytes are read in one call and
    decoded at once, and line ends are translated as ``Path.read_text`` does,
    so a JSON error names the same line, column and character.  An error
    names the file as ``Path(path)`` prints it, which is built only then."""
    try:
        try:
            fh = open(path, "rb", buffering=0)
        except OSError:
            # ``Path`` drops "." parts and extra slashes, which can make an
            # unreadable text name a readable file: open what it names
            fh = open(Path(path), "rb", buffering=0)
        with fh:
            raw = fh.read().decode("utf-8")
    except OSError as exc:
        raise ModelFileError(f"cannot read {Path(path)}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ModelFileError(f"{Path(path)} is not UTF-8 text: {exc}") from exc
    except MemoryError as exc:
        raise ModelFileError(f"cannot read {Path(path)}: out of memory") from exc
    if "\r" in raw:
        raw = raw.replace("\r\n", "\n").replace("\r", "\n")
    return loads(raw)


def loads(text: str) -> Document:
    """Read the text of a model file.  An integer past ``int``'s digit limit
    is refused as invalid JSON, and so is a lone surrogate, which no report
    can print as UTF-8: only a ``\\u`` escape writes one in UTF-8 text."""
    try:
        data = json.loads(text)
        # a lone surrogate is all that stops a string from encoding; a text
        # with no backslash is passed by one search for a single character
        if "\\" in text and "\\u" in text:
            json.dumps(data, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as exc:
        escape = f"\\u{ord(exc.object[exc.start]):04x}"
        raise ModelFileError(f"invalid JSON: a string holds the lone surrogate {escape}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"invalid JSON: {exc}") from exc
    except ValueError as exc:  # the one other: ``int`` refuses too many digits
        raise ModelFileError("invalid JSON: an integer has too many digits") from exc
    except RecursionError as exc:
        raise ModelFileError("invalid JSON: nested too deeply") from exc
    return from_dict(data)


def from_dict(data: Any) -> Document:
    """Read a parsed model file.  The first problem in document order raises a
    :class:`ModelFileError`, whose text is built only then.

    Each statement, relation and row gets one cheap test that a well-formed
    entry passes; only an entry that fails it is checked field by field, in
    document order, which raises its first problem or accepts it.
    """
    if not isinstance(data, dict):
        _fail("document", "expected a JSON object")
    for key in ("themes", "props", "statements", "relations"):
        if key not in data:
            _fail("document", f"missing required key {key!r}")

    themes = data["themes"]
    if not _is_strings(themes):
        _fail("themes", "expected a list of strings")
    declared = frozenset(themes)
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
    statement_themes: dict[str, frozenset[str]] = {}
    # the ids a statement may not take: the empty and reserved ones, and each taken
    taken = {"", *RESERVED_IDS}
    entries = data["statements"]
    if not isinstance(entries, list):
        _fail("statements", "expected a list")
    for i, entry in enumerate(entries):
        try:
            sid, kind, typed = entry["id"], entry.get("kind", "ordinary"), entry.get("themes", [])
            typing = frozenset(typed)
            fits = (type(entry) is dict and type(sid) is str and sid not in taken
                    and type(typed) is list and typing <= declared
                    and ("theme" not in entry and "target" not in entry if kind == "ordinary"
                         else kind == "pointer" and type(entry.get("theme")) is str
                         and type(entry.get("target")) is str and entry["target"] != OMEGA))
        except (AttributeError, KeyError, TypeError):
            fits = False
        if not fits:
            sid, typing = _statement(i, entry, taken)
        target = entry.get("target")
        statements.append(Statement(sid, entry.get("theme"), None if target == SUMMARY else target))
        taken.add(sid)
        statement_themes[sid] = typing

    # by (from, to), the relation of every entry with those ends, merged
    relations: dict[tuple[str, str], Relation] = {}
    entries = data["relations"]
    if not isinstance(entries, list):
        _fail("relations", "expected a list")
    for i, entry in enumerate(entries):
        try:
            src, dst = entry["from"], entry["to"]
            types, rel_themes = entry.get("types", []), entry.get("themes", [])
            type_set, theme_set = frozenset(types), frozenset(rel_themes)
            fits = (type(entry) is dict and type(src) is str and type(dst) is str
                    and type(types) is list and type_set <= _REL_TYPES
                    and type(rel_themes) is list and theme_set <= declared)
        except (AttributeError, KeyError, TypeError):
            fits = False
        if not fits:
            src, dst, type_set, theme_set = _relation(i, entry)
        prev = relations.get((src, dst))
        if prev is not None:
            type_set, theme_set = prev.rel_types | type_set, prev.themes | theme_set
        relations[src, dst] = Relation(src, dst, type_set, theme_set)

    # what Model.build makes of these entries, which are checked and merged
    model = Model(tuple(themes), tuple(statements), statement_themes, tuple(relations.values()))

    # each element mask with each formula written for it, to name it in reports
    formulas: list[tuple[int, str]] = []
    reader = ElementReader(algebra)
    # each formula text this document has read, to the one-mask set of its
    # element: a text written in many rows is read once, a row is the union of
    # such sets, which keeps each mask's hash, and nothing outlives the document
    read: dict[str, frozenset[int]] = {}
    listable = _listable(algebra)
    theme_rows: dict[frozenset[str], Row] = {}
    statement_rows: dict[tuple[frozenset[str], str], Row] = {}
    interp_data = data.get("interpretation")
    if interp_data is not None:
        if not isinstance(interp_data, dict):
            _fail("interpretation", "expected an object")
        default = interp_data.get("default", _UNION)
        if default != _UNION:
            _fail("interpretation.default", f"expected 'union', got {default!r}")
        for block, rows in (("theme_aspects", theme_rows), ("statement_aspects", statement_rows)):
            by_statement = rows is statement_rows
            entries = interp_data.get(block, [])
            if not isinstance(entries, list):
                _fail(f"interpretation.{block}", "expected a list")
            for i, entry in enumerate(entries):
                try:
                    value, aspects = entry["themes"], entry["aspects"]
                    key = frozenset(value)
                    fits = type(entry) is dict and type(value) is list and key <= declared
                    if by_statement:
                        sid = entry["statement"]
                        fits = fits and sid in statement_themes
                        key = (key, sid)
                    fits = fits and key not in rows and (
                        _is_strings(aspects) or aspects == "ALL" and not by_statement)
                except (KeyError, TypeError):
                    fits = False
                if not fits:
                    key, aspects = _row(block, i, entry, rows, declared, statement_themes)
                if not isinstance(aspects, list):  # "ALL"
                    rows[key] = FULL_ROW
                    continue
                singles = []
                for f in aspects:
                    single = read.get(f)
                    if single is None:  # a new text
                        try:
                            mask = reader.read(f)
                        except AspectArgError as exc:
                            where = f"interpretation.{block}[{i}].aspects"
                            raise _bad_formula(where, f, exc) from exc
                        single = read[f] = frozenset((mask,))
                        formulas.append((mask, f))
                    singles.append(single)
                masks = singles[0] if len(singles) == 1 else frozenset().union(*singles)
                # as in Interpretation, a listed whole carrier is the full row
                rows[key] = FULL_ROW if len(masks) == listable else (False, masks)

    return Document(
        model, Interpretation._of_rows(algebra, theme_rows, statement_rows, ElementNames(formulas))
    )


def _statement(i: int, entry: Any, taken: set[str]) -> tuple[str, frozenset[str]]:
    """The id and theme set of statement ``i``; its first problem raises."""
    where = f"statements[{i}]"
    if not isinstance(entry, dict):
        _fail(where, "expected an object")
    sid = entry.get("id")
    if not isinstance(sid, str) or sid == "":
        _fail(where, "missing or empty id")
    if sid in RESERVED_IDS:
        _fail(where, f"statement id {sid!r} is reserved")
    if sid in taken:
        _fail(where, f"duplicate statement id {sid!r}")
    kind = entry.get("kind", "ordinary")
    if kind == "ordinary":
        if "theme" in entry or "target" in entry:
            _fail(where, "ordinary statements take no 'theme'/'target'")
    elif kind == "pointer":
        theme, target = entry.get("theme"), entry.get("target")
        if not isinstance(theme, str):
            _fail(where, "pointer needs a 'theme'")
        if not isinstance(target, str):
            _fail(where, "pointer needs a 'target'")
        if target == OMEGA:
            _fail(where, f"{OMEGA!r} cannot be a pointer target")
    else:
        _fail(where, f"unknown kind {kind!r}")
    typed = entry.get("themes", [])
    if not _is_strings(typed):
        _fail(f"{where}.themes", "expected a list of strings")
    return sid, frozenset(typed)


def _relation(i: int, entry: Any) -> tuple[str, str, frozenset[str], frozenset[str]]:
    """The ends, type set and theme set of relation ``i``; its first problem raises."""
    where = f"relations[{i}]"
    if not isinstance(entry, dict):
        _fail(where, "expected an object")
    src, dst = entry.get("from"), entry.get("to")
    if not (isinstance(src, str) and isinstance(dst, str)):
        _fail(where, "needs 'from' and 'to'")
    types, rel_themes = entry.get("types", []), entry.get("themes", [])
    if not _is_strings(types):
        _fail(f"{where}.types", "expected a list of strings")
    for ty in types:
        if ty not in _REL_TYPES:
            _fail(where, f"unknown relation type {ty!r}")
    if not _is_strings(rel_themes):
        _fail(f"{where}.themes", "expected a list of strings")
    return src, dst, frozenset(types), frozenset(rel_themes)


def _row(block: str, i: int, entry: Any, rows: dict, declared: frozenset[str],
         statement_themes: dict[str, frozenset[str]]) -> tuple[Any, Any]:
    """The key and aspects (``"ALL"`` or a list of strings) of row ``i`` of
    ``block``; its first problem before its formulas raises."""
    where = f"interpretation.{block}[{i}]"
    if not isinstance(entry, dict):
        _fail(where, "expected an object")
    value = entry.get("themes")
    if not _is_strings(value):
        _fail(f"{where}.themes", "expected a list of strings")
    for theme in value:
        if theme not in declared:
            _fail(f"{where}.themes", f"unknown theme {theme!r}")
    key: Any = frozenset(value)
    by_statement = block == "statement_aspects"
    if by_statement:
        sid = entry.get("statement")
        if not isinstance(sid, str):
            _fail(where, "needs a 'statement' id")
        if sid not in statement_themes:
            _fail(where, f"unknown statement {sid!r}")
        key = (key, sid)
    if key in rows:
        _fail(where, f"duplicate {block[:-1].replace('_', '-')} row")
    aspects = entry.get("aspects")
    if aspects == "ALL":
        if by_statement:
            _fail(f"{where}.aspects", '"ALL" is only valid for theme aspects')
    elif not _is_strings(aspects):
        _fail(f"{where}.aspects", "expected a list of strings")
    return key, aspects


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
    """Exactly ``json.dumps(data, indent=2) + "\\n"``, the text of a model file.

    With ``indent`` set, the standard library runs its pure-Python encoder.
    This writer escapes strings with the same C ``encode_basestring_ascii``,
    writes dicts in insertion order and lists item by item, each line at its
    indent, and a list of strings in one join.  It accepts what
    :func:`to_dict` emits and ``int``, ``bool`` and ``None``: dicts with
    ``str`` keys, lists, tuples and strings.  Any other type raises
    ``TypeError``.
    """
    chunks: list[str] = []
    _write(data, "\n", chunks)
    chunks.append("\n")
    return "".join(chunks)


def _write(value: Any, nl: str, chunks: list[str]) -> None:
    """Append ``value`` to ``chunks``; ``nl`` is a newline and the indent of
    the line the value starts on."""
    if isinstance(value, str):
        chunks.append(_quote(value))
    elif isinstance(value, dict):
        if not value:
            chunks.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"model file keys must be str, not {type(key).__name__}")
            chunks.append(sep + _quote(key) + ": ")
            _write(item, inner, chunks)
            sep = "," + inner
        chunks.append(nl + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            chunks.append("[]")
            return
        inner = nl + "  "
        if all(map(isinstance, value, repeat(str))):
            chunks.append("[" + inner + ("," + inner).join(map(_quote, value)) + nl + "]")
            return
        sep = "[" + inner
        for item in value:
            chunks.append(sep)
            _write(item, inner, chunks)
            sep = "," + inner
        chunks.append(nl + "]")
    elif value is None:
        chunks.append("null")
    elif value is True:
        chunks.append("true")
    elif value is False:
        chunks.append("false")
    elif isinstance(value, int):
        chunks.append(int.__repr__(value))
    else:
        raise TypeError(f"a model file cannot hold {type(value).__name__}")
