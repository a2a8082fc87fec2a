"""Every refusal of the model-file loader and every well-formedness rule,
one bad input per message, and the writer.

Loader refusals are pinned as the exact ``error:`` line of ``validate``; the
well-formedness rules a file can break as the exact machine report of
``validate``; the rules only code can break (the loader refuses such files
first) as the records ``validate_wellformed`` returns.  The writer, ``dumps``,
is pinned to the bytes of ``json.dumps(data, indent=2)``.
"""

import copy
import io
import json
import random
import re
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspectarg.algebra import Element, mk_algebra
from aspectarg.cli import run
from aspectarg.corpus import CORPUS_NAMES, corpus_path
from aspectarg import modelfile
from aspectarg.errors import AspectArgError, ModelFileError
from aspectarg.formulas import ElementReader, render_element
from aspectarg.model import (
    WELLFORMED,
    Interpretation,
    Model,
    Relation,
    Statement,
    Violation,
    validate_wellformed,
)
from aspectarg.modelfile import MAX_QUOTED, dumps, from_dict, load_path, to_dict
from aspectarg.synthesis import synthesize_core_witness
from helpers import random_graphic_safe_model

MINIMAL = {
    "themes": ["t"],
    "props": ["p"],
    "statements": [{"id": "s", "kind": "ordinary", "themes": ["t"]}],
    "relations": [],
    "interpretation": {
        "default": "union",
        "theme_aspects": [{"themes": ["t"], "aspects": "ALL"}],
        "statement_aspects": [{"themes": ["t"], "statement": "s", "aspects": ["p"]}],
    },
}

#: Marks a key to delete.
DROP = object()


def edited(path, value):
    """``MINIMAL`` with the value at ``path`` (keys and list indices) set to
    ``value``, appended when the index is one past the end, or deleted for
    :data:`DROP`; the empty path replaces the whole document."""
    if not path:
        return value
    doc = copy.deepcopy(MINIMAL)
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if value is DROP:
        del node[last]
    elif isinstance(node, list) and last == len(node):
        node.append(value)
    else:
        node[last] = value
    return doc


def pointer(sid, **fields):
    return {"id": sid, "kind": "pointer", "themes": ["t"], **fields}


def rows_cases(block, row):
    """The refusals both interpretation blocks share, for rows like ``row``."""
    where = f"interpretation.{block}"
    kind = block[:-1].replace("_", "-")
    return [
        (f"{where}: expected a list", ("interpretation", block), {}),
        (f"{where}[0]: expected an object", ("interpretation", block, 0), "row"),
        (
            f"{where}[0].themes: expected a list of strings",
            ("interpretation", block, 0),
            {**row, "themes": "t"},
        ),
        (f"{where}[0].themes: unknown theme 'u'", ("interpretation", block, 0), {**row, "themes": ["u"]}),
        (
            f"{where}[0].aspects: expected a list of strings",
            ("interpretation", block, 0),
            {**row, "aspects": "p"},
        ),
        (
            f"{where}[0].aspects: bad formula 'p &': unexpected end of input (at offset 3)",
            ("interpretation", block, 0),
            {**row, "aspects": ["p &"]},
        ),
        (f"{where}[1]: duplicate {kind} row", ("interpretation", block, 1), row),
    ]


#: (the message, the path of the edit to MINIMAL, the value put there)
LOADER_REFUSALS = [
    ("document: expected a JSON object", (), []),
    # a key the loader does not read still has to parse
    ("invalid JSON: an integer has too many digits", ("x",), 10**5000 - 1),
    # written as the escape "\ud800"; a surrogate pair loads
    ("invalid JSON: a string holds the lone surrogate \\ud800", ("statements", 0, "id"), "\ud800"),
    ("document: missing required key 'themes'", ("themes",), DROP),
    ("document: missing required key 'relations'", ("relations",), DROP),
    ("themes: expected a list of strings", ("themes",), "t"),
    ("themes: duplicate theme ids", ("themes",), ["t", "t"]),
    ("themes: '@omega' is reserved", ("themes",), ["t", "@omega"]),
    ("themes: theme ids must be non-empty", ("themes",), ["t", ""]),
    ("props: expected a list of strings", ("props",), ["p", 1]),
    ("props: proposition '1p' is not a valid identifier", ("props",), ["p", "1p"]),
    ("props: an algebra needs at least one proposition", ("props",), []),
    ("props: duplicate proposition names: p", ("props",), ["p", "p"]),
    ("props: 21 propositions exceed the cap of 20", ("props",), [f"p{i}" for i in range(21)]),
    ("statements: expected a list", ("statements",), {}),
    ("statements[1]: expected an object", ("statements", 1), "s2"),
    ("statements[0]: missing or empty id", ("statements", 0, "id"), ""),
    ("statements[0]: statement id '@summary' is reserved", ("statements", 0, "id"), "@summary"),
    ("statements[0]: statement id '@omega' is reserved", ("statements", 0, "id"), "@omega"),
    ("statements[1]: duplicate statement id 's'", ("statements", 1), {"id": "s", "themes": ["t"]}),
    ("statements[0]: ordinary statements take no 'theme'/'target'", ("statements", 0, "target"), "s"),
    ("statements[1]: pointer needs a 'theme'", ("statements", 1), pointer("q", target="s")),
    ("statements[1]: pointer needs a 'target'", ("statements", 1), pointer("q", theme="t")),
    (
        "statements[1]: '@omega' cannot be a pointer target",
        ("statements", 1),
        pointer("q", theme="t", target="@omega"),
    ),
    ("statements[0]: unknown kind 'claim'", ("statements", 0, "kind"), "claim"),
    ("statements[0].themes: expected a list of strings", ("statements", 0, "themes"), "t"),
    ("relations: expected a list", ("relations",), None),
    ("relations[0]: expected an object", ("relations", 0), ["s", "s"]),
    ("relations[0]: needs 'from' and 'to'", ("relations", 0), {"from": "s"}),
    (
        "relations[0].types: expected a list of strings",
        ("relations", 0),
        {"from": "s", "to": "s", "types": "attack"},
    ),
    (
        "relations[0]: unknown relation type 'attak'",
        ("relations", 0),
        {"from": "s", "to": "s", "types": ["attak"]},
    ),
    (
        "relations[0].themes: expected a list of strings",
        ("relations", 0),
        {"from": "s", "to": "s", "themes": "t"},
    ),
    ("interpretation: expected an object", ("interpretation",), []),
    ("interpretation.default: expected 'union', got 'empty'", ("interpretation", "default"), "empty"),
    *rows_cases("theme_aspects", MINIMAL["interpretation"]["theme_aspects"][0]),
    *rows_cases("statement_aspects", MINIMAL["interpretation"]["statement_aspects"][0]),
    (
        'interpretation.statement_aspects[0].aspects: "ALL" is only valid for theme aspects',
        ("interpretation", "statement_aspects", 0, "aspects"),
        "ALL",
    ),
    (
        "interpretation.statement_aspects[0]: needs a 'statement' id",
        ("interpretation", "statement_aspects", 0, "statement"),
        DROP,
    ),
    (
        "interpretation.statement_aspects[0]: unknown statement 'ghost'",
        ("interpretation", "statement_aspects", 0, "statement"),
        "ghost",
    ),
]

#: Entries that hold every field the loader's cheap test reads, and so reach
#: it, each refused with the line LOADER_REFUSALS gives that field: a list
#: member that is itself a list or a dict, in each field whose list the
#: loader tests as a whole; a member that is a number; an id, a relation's
#: types or themes, or a pointer's theme or target that alone is wrong; and
#: an ordinary statement with a theme, and a statement of an unknown kind,
#: that have all a pointer's fields.
COMPLETE_ENTRY_REFUSALS = [
    ("statements[0].themes: expected a list of strings", ("statements", 0, "themes"), ["t", ["t"]]),
    ("statements[0].themes: expected a list of strings", ("statements", 0, "themes"), ["t", 5]),
    ("statements[0]: ordinary statements take no 'theme'/'target'", ("statements", 0, "theme"), "t"),
    (
        "statements[0]: unknown kind 'claim'",
        ("statements", 0),
        {"id": "s", "kind": "claim", "theme": "t", "target": "s", "themes": ["t"]},
    ),
    ("statements[1]: pointer needs a 'target'", ("statements", 1), pointer("q", theme="t", target=5)),
    (
        "relations[0].types: expected a list of strings",
        ("relations", 0),
        {"from": "s", "to": "s", "types": [["attack"]], "themes": ["t"]},
    ),
    (
        "relations[0].themes: expected a list of strings",
        ("relations", 0),
        {"from": "s", "to": "s", "types": ["attack"], "themes": ["t", {"t": 1}]},
    ),
    (
        "relations[0].themes: expected a list of strings",
        ("relations", 0),
        {"from": "s", "to": "s", "types": ["attack"], "themes": ["t", 5]},
    ),
    *[
        (f"interpretation.{block}[0].{field}: expected a list of strings",
         ("interpretation", block, 0), {**MINIMAL["interpretation"][block][0], field: value})
        for block in ("theme_aspects", "statement_aspects")
        for field, value in (("themes", [["t"]]), ("aspects", ["p", {"p": 1}]))
    ],
    (
        "relations[0]: unknown relation type 'attak'",
        ("relations", 0),
        {"from": "s", "to": "s", "types": ["attack", "attak"], "themes": ["t"]},
    ),
    (
        "relations[0].themes: expected a list of strings",
        ("relations", 0),
        {"from": "s", "to": "s", "types": ["attack"], "themes": "t"},
    ),
    (
        "relations[0].types: expected a list of strings",
        ("relations", 0),
        {"from": "s", "to": "s", "types": {"attack": 1}, "themes": ["t"]},
    ),
    ("statements[0]: missing or empty id", ("statements", 0, "id"), 5),
    ("statements[1]: pointer needs a 'theme'", ("statements", 1), pointer("q", theme=5, target="s")),
    (
        "relations[0]: needs 'from' and 'to'",
        ("relations", 0),
        {"from": 5, "to": "s", "types": ["attack"], "themes": ["t"]},
    ),
    (
        "relations[0]: needs 'from' and 'to'",
        ("relations", 0),
        {"from": "s", "to": ["s"], "types": ["attack"], "themes": ["t"]},
    ),
]

#: (the one violation's detail, the path of the edit to MINIMAL, the value put there)
FILE_WF_RULES = [
    ("statement s untyped (no themes)", ("statements", 0, "themes"), []),
    ("statement s typed with undeclared themes ['u']", ("statements", 0, "themes"), ["t", "u"]),
    ("pointer q references undeclared theme 'u'", ("statements", 1), pointer("q", theme="u", target="s")),
    (
        "pointer q targets pointer r; pointers must reference ordinary statements",
        ("statements",),
        [MINIMAL["statements"][0], pointer("q", theme="t", target="r"), pointer("r", theme="t", target="s")],
    ),
    (
        "q and r both point to statement 's' of theme 't'; a pointer statement is "
        "identified by its reference",
        ("statements",),
        [MINIMAL["statements"][0], pointer("q", theme="t", target="s"), pointer("r", theme="t", target="s")],
    ),
    (
        "relation ('s', 'x') endpoint missing",
        ("relations", 0),
        {"from": "s", "to": "x", "types": ["attack"], "themes": ["t"]},
    ),
    (
        "relation ('s', 's') has no attack/support type",
        ("relations", 0),
        {"from": "s", "to": "s", "types": [], "themes": ["t"]},
    ),
    (
        "relation ('s', 's') has no themes",
        ("relations", 0),
        {"from": "s", "to": "s", "types": ["attack"], "themes": []},
    ),
    (
        "relation ('s', 's') typed with themes ['u'] outside the themes of its endpoints",
        ("relations", 0),
        {"from": "s", "to": "s", "types": ["attack"], "themes": ["u"]},
    ),
]

S = Statement("s")
SELF = ("s", "s")

#: (the one violation, the model that breaks its rule)
CODE_WF_RULES = [
    (Violation(WELLFORMED, detail="duplicate theme ids"), (["t", "t"], [S], {"s": {"t"}}, [])),
    (Violation(WELLFORMED, detail="empty theme id"), (["t", ""], [S], {"s": {"t"}}, [])),
    (Violation(WELLFORMED, detail="empty statement id"), (["t"], [Statement("")], {"": {"t"}}, [])),
    (
        Violation(WELLFORMED, ("x",), detail="typing for unknown statement x"),
        (["t"], [S], {"s": {"t"}, "x": {"t"}}, []),
    ),
    (
        Violation(WELLFORMED, relation=SELF, detail="relation ('s', 's') has unknown types ['attak']"),
        (["t"], [S], {"s": {"t"}}, [Relation("s", "s", frozenset({"attak"}), frozenset({"t"}))]),
    ),
]


def case_id(text):
    return "-".join(re.findall(r"[a-z0-9]+", text.lower()))


def validate(tmp_path, doc, *options):
    path = tmp_path / "model.json"
    # write an integer of any length; the loader keeps the interpreter's
    # digit limit and refuses one past it
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        path.write_text(json.dumps(doc))
    finally:
        sys.set_int_max_str_digits(limit)
    out, err = io.StringIO(), io.StringIO()
    code = run(["validate", str(path), *options], out=out, err=err)
    return str(path), code, out.getvalue(), err.getvalue()


def test_every_case_is_one_message():
    messages = [m for m, *_ in LOADER_REFUSALS + FILE_WF_RULES]
    messages += [v.detail for v, _ in CODE_WF_RULES]
    assert len(set(messages)) == len(messages)
    assert len({case_id(m) for m in messages}) == len(messages)
    assert {m for m, *_ in COMPLETE_ENTRY_REFUSALS} <= set(messages)


@pytest.mark.parametrize(
    "message, edit, value",
    LOADER_REFUSALS + COMPLETE_ENTRY_REFUSALS,
    ids=[case_id(m) for m, *_ in LOADER_REFUSALS]
    + [f"complete-entry-{n}" for n in range(len(COMPLETE_ENTRY_REFUSALS))],
)
def test_the_loader_refuses_with_one_error_line(tmp_path, message, edit, value):
    _, code, out, err = validate(tmp_path, edited(edit, value))
    assert (code, out, err) == (2, "", f"error: {message}\n")


#: A document whose fourth line follows the third without a comma.
NO_COMMA = '{\n "themes": ["t"],\n "props": ["p"]\n "statements": [],\n "relations": []\n}\n'


def validate_bytes(tmp_path, data: bytes) -> tuple[int, str, str]:
    path = tmp_path / "model.json"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    code = run(["validate", str(path)], out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_each_line_end_counts_as_one_character(tmp_path, newline):
    """The file's line ends are translated before JSON reads it, so a CRLF or
    CR file names the line, column and character of its LF twin."""
    data = NO_COMMA.replace("\n", newline).encode()
    assert validate_bytes(tmp_path, data) == (
        2, "", "error: invalid JSON: Expecting ',' delimiter: line 4 column 2 (char 37)\n"
    )


def test_a_byte_order_mark_is_refused(tmp_path):
    data = b"\xef\xbb\xbf" + json.dumps(MINIMAL).encode()
    assert validate_bytes(tmp_path, data) == (
        2,
        "",
        "error: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)\n",
    )


@pytest.mark.parametrize(
    "detail, edit, value", FILE_WF_RULES, ids=[case_id(d) for d, *_ in FILE_WF_RULES]
)
def test_a_file_breaking_one_rule_gets_one_violation(tmp_path, detail, edit, value):
    path, code, out, err = validate(tmp_path, edited(edit, value), "--format", "machine")
    report = {"command": "validate", "file": path, "violations": [detail], "wellformed": False}
    assert (code, out, err) == (2, json.dumps(report, indent=2, sort_keys=True) + "\n", "")


def test_a_file_breaking_every_rule_gets_each_violation_in_order(tmp_path):
    # each rule of FILE_WF_RULES is broken once, by its own statement,
    # pointer or relation
    statements = [
        MINIMAL["statements"][0],
        {"id": "e", "kind": "ordinary", "themes": []},
        {"id": "w", "kind": "ordinary", "themes": ["t", "u"]},
        pointer("q", theme="u", target="s"),
        pointer("r", theme="t", target="q"),
        pointer("a", theme="t", target="s"),
        pointer("b", theme="t", target="s"),
    ]
    relations = [
        {"from": "s", "to": "x", "types": ["attack"], "themes": ["t"]},
        {"from": "s", "to": "a", "types": [], "themes": ["t"]},
        {"from": "s", "to": "b", "types": ["attack"], "themes": []},
        {"from": "s", "to": "r", "types": ["attack"], "themes": ["u"]},
    ]
    doc = {**MINIMAL, "statements": statements, "relations": relations}
    path, code, out, err = validate(tmp_path, doc, "--format", "machine")
    # in Violation.sort_key order: relation records (no statements) first,
    # by pair, then the statement records by their ids
    details = [
        "relation ('s', 'a') has no attack/support type",
        "relation ('s', 'b') has no themes",
        "relation ('s', 'r') typed with themes ['u'] outside the themes of its endpoints",
        "relation ('s', 'x') endpoint missing",
        "a and b both point to statement 's' of theme 't'; a pointer statement is "
        "identified by its reference",
        "statement e untyped (no themes)",
        "pointer q references undeclared theme 'u'",
        "pointer r targets pointer q; pointers must reference ordinary statements",
        "statement w typed with undeclared themes ['u']",
    ]
    assert len(details) == len(FILE_WF_RULES)
    report = {"command": "validate", "file": path, "violations": details, "wellformed": False}
    assert (code, out, err) == (2, json.dumps(report, indent=2, sort_keys=True) + "\n", "")


@pytest.mark.parametrize(
    "violation, build", CODE_WF_RULES, ids=[case_id(v.detail) for v, _ in CODE_WF_RULES]
)
def test_a_model_breaking_one_rule_gets_one_violation(violation, build):
    assert validate_wellformed(Model.build(*build)) == [violation]


def formula_error(tmp_path, text):
    """The ``error:`` line of ``validate`` on MINIMAL with the one formula ``text``."""
    rows = [{"themes": ["t"], "statement": "s", "aspects": [text]}]
    _, code, out, err = validate(tmp_path, edited(("interpretation", "statement_aspects"), rows))
    assert (code, out) == (2, "")
    return err


@pytest.mark.parametrize("length", [MAX_QUOTED - 1, MAX_QUOTED])
def test_a_formula_of_up_to_the_quote_limit_is_quoted_whole(tmp_path, length):
    text = "p" + " " * (length - 2) + "&"  # unexpected end of input
    with pytest.raises(AspectArgError) as info:
        ElementReader(mk_algebra(["p"])).read(text)
    where = "interpretation.statement_aspects[0].aspects"
    assert formula_error(tmp_path, text) == f"error: {where}: bad formula {text!r}: {info.value}\n"


@pytest.mark.parametrize(
    "text, start",
    [
        ("p" + " " * 1100 + ")", 1001),  # an unexpected token at offset 1101
        ("|".join(["p"] * 50_001), 101),  # too deep at offset 201
        ("?" + " " * 1200 + "p", 0),  # a bad character at offset 0
    ],
    ids=["token", "depth", "character"],
)
def test_a_longer_formula_is_quoted_as_an_excerpt(tmp_path, text, start):
    with pytest.raises(AspectArgError) as info:
        ElementReader(mk_algebra(["p"])).read(text)
    assert info.value.offset - start == min(info.value.offset, 100)
    where = "interpretation.statement_aspects[0].aspects"
    excerpt = text[start : start + 200]
    assert formula_error(tmp_path, text) == (
        f"error: {where}: bad formula of {len(text)} characters, {excerpt!r} from offset "
        f"{start}: {info.value}\n"
    )
    assert len(formula_error(tmp_path, text)) < 2048


# ---------------------------------------------------------------------------
# The writer: ``dumps`` is ``json.dumps(data, indent=2)`` plus a newline.
# ---------------------------------------------------------------------------


def json_dumps(value):
    return json.dumps(value, indent=2) + "\n"


def witness_documents():
    """Model files of synthesized witnesses, of up to 16 propositions."""
    rng = random.Random(34)
    for _ in range(12):
        model = random_graphic_safe_model(rng)
        yield to_dict(model, synthesize_core_witness(model))


# Characters the escaper treats specially: quotes, backslashes, control
# characters, DEL, non-ASCII in and beyond the basic plane, lone surrogates.
SPECIAL = '"\\/\b\f\n\r\t\x00\x1f\x7f\x80\xe9\u20ac\u2028\U0001f600\U0010ffff\ud800\udfff'
TEXT = st.text(st.sampled_from(SPECIAL) | st.characters(exclude_categories=()), max_size=6)

#: Trees of what a model file can hold; a drawn dict keeps its keys in the
#: order drawn, which the writer must keep.
TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=12,
)


class TestDumps:
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_corpus_files(self, name):
        data = json.loads(corpus_path(name).read_text(encoding="utf-8"))
        assert dumps(data) == json_dumps(data)
        doc = load_path(corpus_path(name))
        written = to_dict(doc.model, doc.interpretation)
        assert dumps(written) == json_dumps(written)

    def test_synthesized_witnesses(self):
        for data in witness_documents():
            assert dumps(data) == json_dumps(data)

    @settings(max_examples=300)
    @given(TREES)
    def test_drawn_trees(self, value):
        assert dumps(value) == json_dumps(value)

    @pytest.mark.parametrize("text", [*SPECIAL, SPECIAL, 'a "quoted" \\ path\n', "été"])
    def test_strings_as_keys_values_and_list_items(self, text):
        value = {text: text, "list": [text, text], "nested": [{text: [text]}]}
        assert dumps(value) == json_dumps(value)

    @pytest.mark.parametrize(
        "value",
        [
            {},
            [],
            {"a": {}, "b": [], "c": [[]], "d": [{}]},
            [[[]], [{}], {"": {"": []}}],
            {"a": [{"b": [{"c": {}}, []]}, {}], "e": []},
            {"b": 1, "a": 2, "B": 3, "é": 4, "": 5},
            {"t": True, "f": False, "none": None, "ints": [0, -1, 10**30]},
            {"tuples": ("x", "y"), "nested": ((), ["z", ()], (1, None))},
        ],
    )
    def test_edge_values(self, value):
        assert dumps(value) == json_dumps(value)

    @pytest.mark.parametrize(
        "value",
        [1.5, {"a": [0.0]}, {1: "x"}, {"a": {None: 1}}, [{"x"}], b"x"],
        ids=["float", "nested float", "int key", "None key", "set", "bytes"],
    )
    def test_refuses_other_types(self, value):
        with pytest.raises(TypeError):
            dumps(value)


def test_each_written_element_mask_is_hashed_once(monkeypatch):
    """A 16-proposition mask has 65,536 bits, and Python hashes an ``int`` in
    full each time.  Loading a written file hashes each mask once, for its
    one-mask row set; naming it in the interpretation, writing it back and
    rendering it compare masks and hash none."""
    texts = [dumps(data) for data in witness_documents()]
    for name in CORPUS_NAMES:
        doc = load_path(corpus_path(name))
        texts.append(dumps(to_dict(doc.model, doc.interpretation)))
    hashes = Counter()

    class CountedMask(int):
        __slots__ = ()

        def __hash__(self):
            hashes[int(self)] += 1
            return int.__hash__(self)

    read = ElementReader.read
    monkeypatch.setattr(ElementReader, "read", lambda self, text: CountedMask(read(self, text)))
    written = 0
    for text in texts:
        hashes.clear()
        doc = from_dict(json.loads(text))
        interp = doc.interpretation
        assert dumps(to_dict(doc.model, interp)) == text
        rows = [*interp.theme_aspects.values(), *interp.statement_aspects.values()]
        masks = sorted(m for _, row in rows for m in row)
        for mask in masks:
            rendered = render_element(Element(interp.algebra, mask), preferred=interp.formulas)
            assert rendered == interp.formulas[mask]
        assert hashes == dict.fromkeys({int(m) for m in masks}, 1)
        written += len(hashes)
    assert written >= 100


class TestLoadWork:
    """A load builds what it returns once: a readable file's ``Path`` is
    never built, and neither ``Model.build`` nor ``Interpretation``'s
    normalisation passes again over what the loader built."""

    @staticmethod
    def texts():
        texts = [dumps(data) for data in witness_documents()]
        return texts + [corpus_path(name).read_text() for name in CORPUS_NAMES]

    def test_a_readable_file_builds_no_path(self, monkeypatch):
        built = []
        path_type = modelfile.Path
        monkeypatch.setattr(modelfile, "Path", lambda *args: built.append(args) or path_type(*args))
        for name in CORPUS_NAMES:
            load_path(str(corpus_path(name)))
        assert built == []

    def test_an_error_names_the_file_as_its_path_prints(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "model.json").write_text(json.dumps(MINIMAL))
        # "." parts and extra slashes name the file the text names once dropped
        assert load_path(".//model.json/").model == load_path("model.json").model
        for given, message in (
            ("./missing.json", "cannot read missing.json: [Errno 2] No such file or directory: "
                               "'missing.json'"),
            ("", "cannot read .: [Errno 21] Is a directory: '.'"),
        ):
            with pytest.raises(ModelFileError) as refused:
                load_path(given)
            assert str(refused.value) == message

    def test_the_model_and_interpretation_are_built_once(self, monkeypatch):
        texts = self.texts()
        calls = []
        build = Model.build.__func__
        monkeypatch.setattr(
            Model, "build", classmethod(lambda cls, *args: calls.append("build") or build(cls, *args))
        )
        normalise = Interpretation.__post_init__
        monkeypatch.setattr(
            Interpretation, "__post_init__", lambda self: calls.append("rows") or normalise(self)
        )
        for text in texts:
            from_dict(json.loads(text))
        assert calls == []


#: Texts of every element over ``p`` and over ``p`` and ``q``, in which a
#: row lists a whole carrier, and other texts of some of those elements.
CARRIERS = {
    1: ["0", "1", "p", "~p"],
    2: ["0", "1", "p", "~p", "q", "~q", "p & q", "p & ~q", "~p & q", "~p & ~q", "p | q",
        "p | ~q", "~p | q", "~p | ~q", "p <-> q", "~(p <-> q)"],
}
SYNONYMS = ["p | p", "~~p", "p & 1", "0 | ~p", "p -> 0"]


def random_document(rng: random.Random) -> dict:
    """A valid model file of 1-3 themes over ``p`` (and ``q``): statements
    and pointers, relations that repeat a (from, to) pair, and rows drawn
    from few texts, some listing a whole carrier."""
    themes = [f"t{i}" for i in range(rng.randint(1, 3))]
    k = rng.randint(1, 2)

    def some(items, least=1):
        return rng.sample(items, rng.randint(least, len(items)))

    statements = [{"id": f"s{i}", "themes": some(themes)} for i in range(rng.randint(1, 4))]
    statements.append({"id": "ptr", "kind": "pointer", "theme": rng.choice(themes),
                       "target": rng.choice(["s0", "@summary"]), "themes": some(themes)})
    ids = [s["id"] for s in statements]
    pairs = [(rng.choice(ids), rng.choice(ids)) for _ in range(3)]
    relations = [
        {"from": a, "to": b, "types": some(["attack", "support"], 0), "themes": some(themes, 0)}
        for a, b in (rng.choice(pairs) for _ in range(rng.randint(0, 6)))
    ]
    texts = CARRIERS[k][2:5] + SYNONYMS

    def aspects():
        if rng.random() < 0.3:
            return rng.sample(CARRIERS[k], len(CARRIERS[k])) + rng.sample(SYNONYMS, 1)
        return [rng.choice(texts) for _ in range(rng.randint(0, 3))]

    keys = {frozenset(some(themes, 0)) for _ in range(3)}
    theme_rows = [{"themes": sorted(key), "aspects": "ALL" if rng.random() < 0.3 else aspects()}
                  for key in keys]
    cells = {(frozenset(some(themes)), rng.choice(ids)) for _ in range(5)}
    statement_rows = [{"themes": sorted(key), "statement": sid, "aspects": aspects()}
                      for key, sid in cells]
    return {"themes": themes, "props": ["p", "q"][:k], "statements": statements,
            "relations": relations,
            "interpretation": {"theme_aspects": theme_rows, "statement_aspects": statement_rows}}


def test_the_loader_builds_what_the_public_constructors_build():
    """The loader merges relations and normalises rows itself.  Its model
    equals ``Model.build`` over the same entries, and its interpretation
    the one the public constructor makes of each row's masks as listed."""
    rng = random.Random(39)
    merged = full = 0
    for _ in range(300):
        data = random_document(rng)
        doc = from_dict(copy.deepcopy(data))
        statements = [
            Statement(s["id"], s.get("theme"), {"@summary": None}.get(s.get("target"), s.get("target")))
            for s in data["statements"]
        ]
        relations = [Relation(r["from"], r["to"], frozenset(r["types"]), frozenset(r["themes"]))
                     for r in data["relations"]]
        typing = {s["id"]: s["themes"] for s in data["statements"]}
        assert doc.model == Model.build(data["themes"], statements, typing, relations)
        merged += len(relations) - len(doc.model.relations)

        algebra = doc.interpretation.algebra
        reader = ElementReader(algebra)

        def listed(aspects):
            if aspects == "ALL":
                return (True, frozenset())
            return (False, frozenset(map(reader.read, aspects)))

        block = data["interpretation"]
        public = Interpretation(
            algebra,
            {frozenset(r["themes"]): listed(r["aspects"]) for r in block["theme_aspects"]},
            {(frozenset(r["themes"]), r["statement"]): listed(r["aspects"])
             for r in block["statement_aspects"]},
            doc.interpretation.formulas,
        )
        assert doc.interpretation == public
        full += sum(r["aspects"] != "ALL" and len(set(r["aspects"])) > algebra.carrier_size
                    for r in block["theme_aspects"] + block["statement_aspects"])
    assert merged > 100 and full > 100
