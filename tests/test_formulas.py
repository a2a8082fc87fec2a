import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspectarg.algebra import mk_algebra
from aspectarg.errors import FormulaError
from aspectarg.formulas import (
    MAX_DEPTH,
    And,
    Atom,
    Const,
    Iff,
    Implies,
    Not,
    Or,
    evaluate,
    format_expr,
    parse,
    render_element,
)
from helpers import random_expr, truth_table_element


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
        assert render_element(e, preferred={e: "x <-> y"}) == "x <-> y"

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

    def test_synthesized_chains_parse(self):
        chain = " | ".join(f"w1_{i}" for i in range(1, 21))
        a = mk_algebra([f"w1_{i}" for i in range(1, 21)])
        assert format_expr(parse(chain)) == chain
        assert evaluate(parse(chain), a).mask.bit_count() == a.n_minterms - 1
