import inspect
import json
import random
import sys
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspectarg.algebra import mk_algebra
from aspectarg.errors import AspectArgError, FormulaError, ModelFileError
from aspectarg.formulas import (
    MAX_DEPTH,
    And,
    Atom,
    Const,
    ElementReader,
    Iff,
    Implies,
    Not,
    Or,
    evaluate,
    format_expr,
    parse,
    render_element,
)
from aspectarg.modelfile import loads
from helpers import oracle_formula, oracle_parse, random_expr, truth_table_element


class TestParse:
    def test_implication_binds_loosest_of_the_pair(self):
        expr = parse("plltn & hmns -> clmtchng")
        assert expr == Implies(And(Atom("plltn"), Atom("hmns")), Atom("clmtchng"))

    def test_constants(self):
        assert parse("0") == Const(False)
        assert parse("1") == Const(True)

    def test_negated_disjunction_equals_implication(self):
        a = mk_algebra(["x", "y"])
        assert evaluate(parse("~x | ~y"), a) == evaluate(parse("x -> ~y"), a)

    def test_parens_and_whitespace(self):
        assert parse(" ( x &y ) ") == And(Atom("x"), Atom("y"))

    def test_empty_input(self):
        with pytest.raises(FormulaError):
            parse("   ")

    def test_error_carries_offset(self):
        with pytest.raises(FormulaError) as exc:
            parse("x & ?y")
        assert exc.value.offset == 4

    def test_trailing_garbage(self):
        with pytest.raises(FormulaError, match="trailing"):
            parse("x y")

    def test_unbalanced_paren(self):
        with pytest.raises(FormulaError, match="expected"):
            parse("(x | y")


class TestEvaluate:
    def test_straw_man_iff_aspect(self):
        a = mk_algebra(["plltn", "hmns", "extrm", "clmtchng"])
        got = evaluate(parse("hmns <-> clmtchng"), a)
        h, c = a.prop("hmns"), a.prop("clmtchng")
        assert got == (h & c) | (~h & ~c)

    def test_tautology(self):
        a = mk_algebra(["x", "y"])
        assert evaluate(parse("x | ~x"), a) == a.top

    def test_unknown_atom(self):
        a = mk_algebra(["x"])
        with pytest.raises(Exception, match="unknown proposition"):
            evaluate(parse("z"), a)

    def test_against_truth_table_oracle(self):
        rng = random.Random(3)
        a = mk_algebra(["x", "y", "z"])
        for _ in range(200):
            expr = random_expr(rng, ["x", "y", "z"])
            assert evaluate(expr, a) == truth_table_element(expr, a)

    def test_homomorphism(self):
        a = mk_algebra(["x", "y"])
        rng = random.Random(4)
        for _ in range(50):
            e1 = random_expr(rng, ["x", "y"], depth=2)
            e2 = random_expr(rng, ["x", "y"], depth=2)
            assert evaluate(And(e1, e2), a) == evaluate(e1, a) & evaluate(e2, a)
            assert evaluate(Or(e1, e2), a) == evaluate(e1, a) | evaluate(e2, a)
            assert evaluate(Not(e1), a) == ~evaluate(e1, a)

    def test_precedence(self):
        a = mk_algebra(["a", "b", "c"])
        assert evaluate(parse("a | b & c"), a) == evaluate(parse("a | (b & c)"), a)
        assert evaluate(parse("a -> b -> c"), a) == evaluate(parse("a -> (b -> c)"), a)
        assert evaluate(parse("a <-> b -> c"), a) == evaluate(parse("a <-> (b -> c)"), a)


class TestFormat:
    def test_canonical_spacing(self):
        assert format_expr(parse("x&y")) == "x & y"

    def test_implication_not_desugared(self):
        assert "->" in format_expr(parse("x -> y"))
        assert format_expr(parse("x -> y")) == "x -> y"

    def test_round_trip_semantics(self):
        rng = random.Random(5)
        a = mk_algebra(["x", "y", "z"])
        for _ in range(200):
            expr = random_expr(rng, ["x", "y", "z"])
            text = format_expr(expr)
            assert evaluate(parse(text), a) == evaluate(expr, a), text

    def test_structural_cases(self):
        cases = {
            "(x -> y) -> z": Implies(Implies(Atom("x"), Atom("y")), Atom("z")),
            "x -> y -> z": Implies(Atom("x"), Implies(Atom("y"), Atom("z"))),
            "~(x & y)": Not(And(Atom("x"), Atom("y"))),
            "(x | y) & z": And(Or(Atom("x"), Atom("y")), Atom("z")),
            "x <-> y": Iff(Atom("x"), Atom("y")),
        }
        for text, tree in cases.items():
            assert format_expr(tree) == text
            assert parse(text) == tree


_exprs = st.recursive(
    st.one_of(
        st.sampled_from([Atom("x"), Atom("y"), Atom("z")]),
        st.booleans().map(Const),
    ),
    lambda sub: st.one_of(
        sub.map(Not),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Implies, sub, sub),
        st.builds(Iff, sub, sub),
    ),
    max_leaves=25,
)


class TestFormatProperties:
    @given(_exprs)
    @settings(max_examples=300)
    def test_round_trip_preserves_semantics(self, expr):
        algebra = mk_algebra(["x", "y", "z"])
        assert evaluate(parse(format_expr(expr)), algebra) == evaluate(expr, algebra)

    @given(_exprs)
    @settings(max_examples=150)
    def test_evaluate_agrees_with_truth_table(self, expr):
        algebra = mk_algebra(["x", "y", "z"])
        assert evaluate(expr, algebra) == truth_table_element(expr, algebra)


class TestRenderElement:
    def test_extremes(self, fig1):
        assert render_element(fig1.bottom) == "0"
        assert render_element(fig1.top) == "1"

    def test_prop_and_negation(self, fig1):
        assert render_element(fig1.prop("x")) == "x"
        assert render_element(~fig1.prop("x")) == "~x"

    def test_prefers_authored_formula(self, fig1, ev):
        e = ev("x <-> y")
        assert render_element(e, preferred={e.mask: "x <-> y"}) == "x <-> y"

    def test_dnf_round_trip(self, fig1, ev):
        e = ev("x <-> y")
        assert ev(render_element(e)) == e

    def test_placeholder_for_wide_elements(self):
        a = mk_algebra([f"p{i}" for i in range(16)])
        wide = a.prop("p0") & a.prop("p1") | a.prop("p2") & a.prop("p3") & a.prop("p4")
        assert render_element(wide, max_atoms=8) == (
            f"<element covering {wide.mask.bit_count()} of 65536 atoms>"
        )

    def test_dnf_at_the_atom_limit(self, fig1, ev):
        e = ev("x | y")  # three minterms
        assert render_element(e, max_atoms=3) == "(x & ~y) | (~x & y) | (x & y)"
        assert render_element(e, max_atoms=2) == "<element covering 3 of 4 atoms>"


#: The three shapes that used to overflow Python's stack.
DEEP_FORMULAS = {
    "negations": "~" * 5000 + "aP",
    "parentheses": "(" * 3000 + "aP" + ")" * 3000,
    "flat_chain": " & ".join(["aP"] * 5000),
}


class TestDepthLimit:
    @pytest.mark.parametrize("shape", sorted(DEEP_FORMULAS))
    def test_deep_formula_is_a_formula_error(self, shape):
        with pytest.raises(FormulaError) as info:
            parse(DEEP_FORMULAS[shape])
        assert info.value.offset is not None
        assert "nests deeper" in str(info.value)

    @pytest.mark.parametrize(
        "make",
        [
            lambda n: "~" * n + "p",
            lambda n: "(" * n + "p" + ")" * n,
            lambda n: " | ".join(["p"] * (n + 1)),
            lambda n: " -> ".join(["p"] * (n + 1)),
        ],
    )
    def test_limit_is_exact(self, make):
        a = mk_algebra(["p"])
        assert evaluate(parse(make(MAX_DEPTH)), a) in (a.prop("p"), ~a.prop("p"), a.top)
        with pytest.raises(FormulaError):
            parse(make(MAX_DEPTH + 1))

    @pytest.mark.parametrize(
        "text",
        [
            "(" * MAX_DEPTH + "p" + ")" * MAX_DEPTH,
            "~" * MAX_DEPTH + "p",
            " -> ".join(["p"] * (MAX_DEPTH + 1)),
            "(~" * (MAX_DEPTH // 2) + "p" + ")" * (MAX_DEPTH // 2),
        ],
        ids=["parentheses", "negations", "implications", "negated_groups"],
    )
    def test_limit_needs_few_frames_per_level(self, text):
        """A formula at the depth limit parses in under three frames a level."""
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 3 * MAX_DEPTH)
        try:
            tree = parse(text)
        finally:
            sys.setrecursionlimit(limit)
        assert tree == oracle_parse(text)

    def test_synthesized_chains_parse(self):
        chain = " | ".join(f"w1_{i}" for i in range(1, 21))
        a = mk_algebra([f"w1_{i}" for i in range(1, 21)])
        assert format_expr(parse(chain)) == chain
        assert evaluate(parse(chain), a).mask.bit_count() == a.n_minterms - 1


# ---------------------------------------------------------------------------
# The loader reads formulas straight to masks; the reference reader in
# ``helpers`` gives the error text or the tree it must agree with.
# ---------------------------------------------------------------------------

PROPS = ["x", "y", "z"]

#: Characters to scatter into formulas: stray ASCII, non-ASCII letters,
#: Unicode whitespace, and pieces of tokens.
STRAY = ["?", "!", "2", "<", ">", "-", "=", "\u00e9", "\u03bb", "\u00a0", "\t", "\u2003",
         "(", ")", "~", "&", "|", "->", "<->", "0", "1", "zz", " "]

#: Formulas at, just under and just over the depth limit, in the three
#: shapes that nest: negations, parentheses, and binary operators.
DEPTH_SHAPES = [
    shape
    for n in (MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1)
    for shape in ("~" * n + "x", "(" * n + "x" + ")" * n, " | ".join(["x"] * (n + 1)),
                  " -> ".join(["y"] * (n + 1)))
]


@st.composite
def formula_texts(draw):
    """A printed random formula, or a depth shape, with a few mutations."""
    if draw(st.integers(0, 4)) == 0:
        text = draw(st.sampled_from(DEPTH_SHAPES))
    else:
        rng = random.Random(draw(st.integers(0, 2**32)))
        text = format_expr(random_expr(rng, PROPS, depth=draw(st.integers(0, 4))))
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(("insert", "delete", "space", "unknown", "trail")))
        at = draw(st.integers(0, len(text)))
        if op == "insert":
            text = text[:at] + draw(st.sampled_from(STRAY)) + text[at:]
        elif op == "delete":
            text = text[:at] + text[at + 1:]
        elif op == "space":
            text = text.replace(" ", draw(st.sampled_from(["\u00a0", "\t", "  ", ""])))
        elif op == "unknown":
            # an unknown atom before whatever error comes later in the text
            text = "zz & " + text
        else:
            text = text + draw(st.sampled_from([")", "(", " x", " & ", " ~", "y y"]))
    return text


def _document(*rows: list[str]) -> str:
    """A model file whose statement ``s<i>`` has the aspects ``rows[i]``."""
    return json.dumps({
        "themes": ["t"],
        "props": PROPS,
        "statements": [{"id": f"s{i}", "kind": "ordinary", "themes": ["t"]}
                       for i in range(len(rows))],
        "relations": [],
        "interpretation": {
            "default": "union",
            "theme_aspects": [{"themes": ["t"], "aspects": "ALL"}],
            "statement_aspects": [
                {"themes": ["t"], "statement": f"s{i}", "aspects": aspects}
                for i, aspects in enumerate(rows)
            ],
        },
    })


class TestLoaderMatchesTheReferenceReader:
    @given(formula_texts())
    @settings(max_examples=400)
    def test_error_text_or_truth_table(self, text):
        algebra = mk_algebra(PROPS)
        doc = _document([text])
        try:
            tree = oracle_formula(text, algebra)
        except AspectArgError as exc:
            with pytest.raises(ModelFileError) as info:
                loads(doc)
            where = "interpretation.statement_aspects[0].aspects"
            assert str(info.value) == f"{where}: bad formula {text!r}: {exc}"
            with pytest.raises(AspectArgError) as info:
                ElementReader(algebra).read(text)
            assert str(info.value) == str(exc)
        else:
            row = loads(doc).interpretation.statement_aspects[(frozenset(["t"]), "s0")]
            assert row == (False, frozenset([truth_table_element(tree, algebra).mask]))

    @given(formula_texts())
    @settings(max_examples=200)
    def test_parse_builds_the_reference_tree(self, text):
        try:
            tree = oracle_parse(text)
        except FormulaError as exc:
            with pytest.raises(FormulaError) as info:
                parse(text)
            assert (str(info.value), info.value.offset) == (str(exc), exc.offset)
        else:
            assert parse(text) == tree

    @pytest.mark.parametrize(
        "text, message",
        [
            ("zz & (", "unexpected end of input (at offset 6)"),
            ("zz & ? & (", "unexpected character '?' (at offset 5)"),
            ("x &\u00a0\u00e9", "unexpected character '\u00e9' (at offset 4)"),
            ("zz & x", "unknown proposition 'zz'"),
            ("x | zz | ww", "unknown proposition 'zz'"),
            ("(" * 101 + "zz" + ")" * 101, f"formula nests deeper than {MAX_DEPTH} levels (at offset 100)"),
        ],
    )
    def test_syntax_errors_come_before_unknown_propositions(self, text, message):
        with pytest.raises(AspectArgError) as info:
            ElementReader(mk_algebra(PROPS)).read(text)
        assert str(info.value) == message


BINARY_TOKENS = ["&", "|", "->", "<->"]


def _error(parser, text: str) -> tuple[str, int | None]:
    with pytest.raises(FormulaError) as info:
        parser(text)
    return str(info.value), info.value.offset


class TestOperatorPairs:
    """Every ordered pair of binary operators, against the reference parser."""

    @pytest.mark.parametrize("op1, op2", list(product(BINARY_TOKENS, repeat=2)))
    def test_precedence_and_associativity(self, op1, op2):
        for text in (f"a {op1} b {op2} c", f"~a {op1} b {op2} c",
                     f"a {op1} (b {op2} c)", f"(a {op1} b) {op2} c"):
            tree = parse(text)
            assert tree == oracle_parse(text), text
            assert parse(format_expr(tree)) == tree, text

    @pytest.mark.parametrize("op1, op2", list(product(BINARY_TOKENS, repeat=2)))
    def test_missing_operands(self, op1, op2):
        for text in (f"a {op1} {op2} b", f"{op1} a", f"a {op1}"):
            assert _error(parse, text) == _error(oracle_parse, text), text


class TestLoaderCheckOrder:
    """The first problem in document order is the one reported."""

    WHERE = "interpretation.statement_aspects[0]"

    def load_error(self, doc: dict) -> str:
        with pytest.raises(ModelFileError) as info:
            loads(json.dumps(doc))
        return str(info.value)

    def test_a_later_non_string_comes_before_an_earlier_bad_formula(self):
        doc = json.loads(_document(["x &", "y", 5]))
        assert self.load_error(doc) == f"{self.WHERE}.aspects: expected a list of strings"

    def test_an_unknown_theme_comes_before_a_bad_formula_in_its_row(self):
        doc = json.loads(_document(["x &"]))
        doc["interpretation"]["statement_aspects"][0]["themes"] = ["t", "nope"]
        assert self.load_error(doc) == f"{self.WHERE}.themes: unknown theme 'nope'"


class TestFormulasAreReadOncePerDocument:
    @pytest.fixture
    def reads(self, monkeypatch):
        counted: Counter = Counter()
        read = ElementReader.read

        def counting(self, text):
            counted[text] += 1
            return read(self, text)

        monkeypatch.setattr(ElementReader, "read", counting)
        return counted

    def test_a_repeated_formula_is_read_once(self, reads):
        interp = loads(_document(*[["x & y", "z"]] * 5)).interpretation
        assert reads == {"x & y": 1, "z": 1}
        assert len(interp.statement_aspects) == 5

    def test_a_second_document_reads_again(self, reads):
        doc = _document(["x & y"], ["x & y"])
        first, second = loads(doc), loads(doc)
        assert reads == {"x & y": 2}
        assert first.interpretation == second.interpretation

    def test_a_bad_formula_after_a_memo_hit_names_its_row(self, reads):
        with pytest.raises(ModelFileError) as info:
            loads(_document(["x"], ["x", "x &"]))
        assert str(info.value).startswith("interpretation.statement_aspects[1].aspects: ")

    def test_a_shorter_text_in_a_later_row_renames_the_element(self, reads):
        algebra = mk_algebra(PROPS)
        interp = loads(_document(["x & y"], ["x & y", "x&y"], ["y & x"])).interpretation
        assert interp.formulas == {evaluate(parse("x & y"), algebra).mask: "x&y"}
        assert reads == {"x & y": 1, "x&y": 1, "y & x": 1}

    def test_names_are_the_shortest_text_first_written(self, reads):
        algebra = mk_algebra(PROPS)
        interp = loads(_document(["(x & y)", "y&x"], ["x&y", "y&x", "x & y"])).interpretation
        assert interp.formulas == {evaluate(parse("x & y"), algebra).mask: "y&x"}
        assert reads == {"(x & y)": 1, "y&x": 1, "x&y": 1, "x & y": 1}
