import copy
import dataclasses
import inspect
import pickle
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspectarg.algebra import Element, mk_algebra
from aspectarg.constraints import check_exact_region
from aspectarg.corpus import corpus_path
from aspectarg.errors import CapExceeded, ModelError, UnknownIdError
from aspectarg.formulas import evaluate, parse
from aspectarg.model import (
    FULL_ROW,
    OMEGA,
    AspectSet,
    AspectTable,
    Interpretation,
    Model,
    Relation,
    Statement,
    Violation,
    effective_aspect,
    lookup,
    theme_subsets,
    validate_wellformed,
)
from aspectarg.modelfile import load_path
from helpers import (
    intersection,
    issubset,
    oracle_aspects,
    oracle_effective,
    random_model_any,
    random_total_interpretation,
    union,
    with_extra_rows,
)


def ev(text, algebra):
    return evaluate(parse(text), algebra)


class TestAspectSet:
    def test_full_normalisation(self, fig1):
        everything = frozenset(fig1.elements())
        assert AspectSet(fig1, everything).full

    def test_subset_and_intersection_with_full(self, fig1, ev):
        full = AspectSet(fig1, full=True)
        small = AspectSet(fig1, frozenset({ev("x")}))
        assert issubset(small, full)
        assert not issubset(full, small)
        assert intersection(full, small) == small
        assert union(small, full).full

    def test_size(self, fig1):
        assert len(list(AspectSet(fig1, full=True))) == 16
        assert AspectSet(fig1).is_empty


class TestInterpretationRows:
    """Rows are held compiled, as ``(full, element masks)``, and are read-only."""

    KEY = (frozenset(["t"]), "s")

    def test_aspect_sets_are_compiled_once(self, fig1, ev):
        x = ev("x")
        interp = Interpretation(
            fig1,
            {frozenset(["t"]): AspectSet(fig1, full=True)},
            {self.KEY: AspectSet(fig1, frozenset({x}))},
            {x.mask: "x"},
        )
        assert interp.theme_aspects == {frozenset(["t"]): (True, frozenset())}
        assert interp.statement_aspects == {self.KEY: (False, frozenset({x.mask}))}
        assert interp == Interpretation(
            fig1, {frozenset(["t"]): (True, frozenset())},
            {self.KEY: (False, frozenset({x.mask}))}, {x.mask: "x"},
        )

    def test_a_listed_small_carrier_is_the_full_row(self, fig1):
        listed = (False, frozenset(range(fig1.carrier_size)))
        assert Interpretation(fig1, {}, {self.KEY: listed}).statement_aspects == {
            self.KEY: (True, frozenset())
        }

    def test_rows_and_names_are_read_only(self, fig1, ev):
        x = ev("x")
        rows = {self.KEY: (False, frozenset({x.mask}))}
        interp = Interpretation(fig1, {}, rows, {x.mask: "x"})
        with pytest.raises(TypeError):
            interp.statement_aspects[self.KEY] = (True, frozenset())
        with pytest.raises(TypeError):
            interp.theme_aspects[frozenset(["t"])] = (True, frozenset())
        with pytest.raises(TypeError):
            interp.formulas[x.mask] = "y"
        with pytest.raises(dataclasses.FrozenInstanceError):
            interp.statement_aspects = {}
        # the interpretation holds its own copy of the rows it was given
        rows[self.KEY] = (True, frozenset())
        assert interp.statement_aspects[self.KEY] == (False, frozenset({x.mask}))

    @pytest.mark.parametrize("row", ["aspect set", "compiled"])
    def test_a_full_statement_row_past_four_propositions_is_refused(self, row):
        """A model file has no ``"ALL"`` for statement rows, and a carrier of
        more than 4 propositions cannot be listed, so no file holds this row."""
        algebra = mk_algebra(list("abcde"))
        full = AspectSet(algebra, full=True) if row == "aspect set" else (True, frozenset())
        with pytest.raises(ModelError, match=r"^statement row \(\['t'\], 's'\) is the full carrier"):
            Interpretation(algebra, {}, {self.KEY: full})
        # a full theme row is written as "ALL", and a 4-proposition carrier can be listed
        assert Interpretation(algebra, {frozenset(["t"]): full}).theme_aspects
        small = mk_algebra(list("abcd"))
        assert Interpretation(small, {}, {self.KEY: (True, frozenset())}).statement_aspects

    def test_a_copy_and_a_pickle_are_equal(self, fear):
        interp = fear.interpretation
        assert pickle.loads(pickle.dumps(interp)) == interp
        assert copy.deepcopy(interp) == interp
        assert pickle.loads(pickle.dumps(fear.model)) == fear.model


@pytest.fixture(scope="module")
def fear():
    return load_path(corpus_path("fear_appeal"))


class TestLookup:
    def test_fear_appeal_singleton_row(self, fear):
        got = lookup(fear.interpretation, fear.model, ["t1"], "s1")
        assert set(got) == {ev("~aP & (aP -> aCostH)", fear.interpretation.algebra)}

    def test_empty_theme_set_is_empty(self, fear):
        assert lookup(fear.interpretation, fear.model, [], "s1").is_empty
        assert lookup(fear.interpretation, fear.model, [], "s2").is_empty

    def test_union_default_across_themes(self, fig1):
        model = Model.build(
            ["t1", "t2"], [Statement("s")], {"s": {"t1", "t2"}}, []
        )
        interp = Interpretation(
            fig1,
            {},
            {
                (frozenset(["t1"]), "s"): AspectSet(fig1, frozenset({fig1.prop("x")})),
                (frozenset(["t2"]), "s"): AspectSet(fig1, frozenset({fig1.prop("y")})),
            },
        )
        got = lookup(interp, model, ["t1", "t2"], "s")
        assert set(got) == {fig1.prop("x"), fig1.prop("y")}

    def test_explicit_row_overrides_default(self, fig1):
        model = Model.build(["t1", "t2"], [Statement("s")], {"s": {"t1", "t2"}}, [])
        interp = Interpretation(
            fig1,
            {},
            {
                (frozenset(["t1"]), "s"): AspectSet(fig1, frozenset({fig1.prop("x")})),
                (frozenset(["t1", "t2"]), "s"): AspectSet(fig1, frozenset({fig1.top})),
            },
        )
        assert set(lookup(interp, model, ["t2", "t1"], "s")) == {fig1.top}

    def test_summary_pointers_never_default(self, fig1):
        model = Model.build(
            ["t1", "t2"],
            [Statement("a"), Statement("c", ref_theme="t1", ref_target=None)],
            {"a": {"t1"}, "c": {"t1", "t2"}},
            [],
        )
        interp = Interpretation(
            fig1,
            {},
            {(frozenset(["t1"]), "c"): AspectSet(fig1, frozenset({fig1.prop("x")}))},
        )
        assert lookup(interp, model, ["t1", "t2"], "c").is_empty
        assert set(lookup(interp, model, ["t1"], "c")) == {fig1.prop("x")}

    def test_theme_order_insensitive(self, fear):
        a = lookup(fear.interpretation, fear.model, ["t1", "t2"], "s1")
        b = lookup(fear.interpretation, fear.model, ["t2", "t1", "t1"], "s1")
        assert a == b

    def test_unknown_ids_raise(self, fear):
        with pytest.raises(UnknownIdError):
            lookup(fear.interpretation, fear.model, ["nope"], "s1")
        with pytest.raises(UnknownIdError):
            lookup(fear.interpretation, fear.model, ["t1"], "nope")

    def test_monotone_in_theme_set_for_non_summary(self, fear):
        small = lookup(fear.interpretation, fear.model, ["t1"], "s2")
        big = lookup(fear.interpretation, fear.model, ["t1", "t2"], "s2")
        assert issubset(small, big)


class TestEffectiveAspect:
    def test_pair_meets(self, fig1):
        model = Model.build(["t"], [Statement("s")], {"s": {"t"}}, [])
        interp = Interpretation(
            fig1,
            {},
            {
                (frozenset(["t"]), "s"): AspectSet(
                    fig1, frozenset({ev("x | y", fig1), ev("~y", fig1)})
                )
            },
        )
        assert effective_aspect(interp, model, ["t"], "s") == ev("x & ~y", fig1)

    def test_absent(self, fig1):
        model = Model.build(["t"], [Statement("s")], {"s": {"t"}}, [])
        interp = Interpretation(fig1, {}, {})
        assert effective_aspect(interp, model, ["t"], "s") is None

    def test_singleton(self, fig1):
        model = Model.build(["t"], [Statement("s")], {"s": {"t"}}, [])
        interp = Interpretation(
            fig1, {}, {(frozenset(["t"]), "s"): AspectSet(fig1, frozenset({ev("x | y", fig1)}))}
        )
        assert effective_aspect(interp, model, ["t"], "s") == ev("x | y", fig1)

    def test_effective_aspect_below_every_member(self, fear):
        row = lookup(fear.interpretation, fear.model, ["t1"], "s2")
        eff = effective_aspect(fear.interpretation, fear.model, ["t1"], "s2")
        assert all(eff <= member for member in row)


class TestWellformedness:
    def test_untyped_statement(self):
        model = Model.build(["t"], [Statement("s")], {"s": set()}, [])
        problems = validate_wellformed(model)
        assert any("untyped" in v.detail and v.statements == ("s",) for v in problems)

    def test_relation_theme_outside_endpoints(self):
        model = Model.build(
            ["t1", "t2"],
            [Statement("a"), Statement("b")],
            {"a": {"t1"}, "b": {"t1"}},
            [Relation("a", "b", frozenset({"attack"}), frozenset({"t2"}))],
        )
        problems = validate_wellformed(model)
        assert any("outside the themes of its endpoints" in v.detail for v in problems)

    def test_missing_endpoint(self):
        model = Model.build(
            ["t"],
            [Statement("a")],
            {"a": {"t"}},
            [Relation("a", "ghost", frozenset({"attack"}), frozenset({"t"}))],
        )
        assert any("endpoint missing" in v.detail for v in validate_wellformed(model))

    def test_pointer_to_pointer_rejected(self):
        model = Model.build(
            ["t"],
            [
                Statement("a"),
                Statement("p", ref_theme="t", ref_target="a"),
                Statement("q", ref_theme="t", ref_target="p"),
            ],
            {"a": {"t"}, "p": {"t"}, "q": {"t"}},
            [],
        )
        assert any("pointers must reference ordinary" in v.detail for v in validate_wellformed(model))

    def test_untyped_relation(self):
        model = Model.build(
            ["t"],
            [Statement("a"), Statement("b")],
            {"a": {"t"}, "b": {"t"}},
            [Relation("a", "b", frozenset(), frozenset({"t"}))],
        )
        assert any("no attack/support type" in v.detail for v in validate_wellformed(model))

    @pytest.mark.parametrize(
        "name",
        [
            "fear_appeal",
            "false_flag",
            "straw_man",
            "question_begging_opium",
            "question_begging_god",
            "contradictory_conclusion",
        ],
    )
    def test_corpus_is_wellformed(self, name):
        doc = load_path(corpus_path(name))
        assert validate_wellformed(doc.model) == []

    def test_duplicate_pointer_identity_rejected(self):
        # a pointer statement is its (theme, target) reference; two ids for
        # the same reference would make the statement set a multiset
        model = Model.build(
            ["t"],
            [
                Statement("a"),
                Statement("p1", ref_theme="t", ref_target="a"),
                Statement("p2", ref_theme="t", ref_target="a"),
            ],
            {"a": {"t"}, "p1": {"t"}, "p2": {"t"}},
            [],
        )
        assert any(
            v.statements == ("p1", "p2") and "identified by its reference" in v.detail
            for v in validate_wellformed(model)
        )

    def test_duplicate_relations_merge(self):
        model = Model.build(
            ["t1", "t2"],
            [Statement("a"), Statement("b")],
            {"a": {"t1", "t2"}, "b": {"t1", "t2"}},
            [
                Relation("a", "b", frozenset({"attack"}), frozenset({"t1"})),
                Relation("a", "b", frozenset({"support"}), frozenset({"t2"})),
            ],
        )
        assert len(model.relations) == 1
        assert model.relations[0].rel_types == {"attack", "support"}
        assert model.relations[0].themes == {"t1", "t2"}


# ---------------------------------------------------------------------------
# The compiled table against the defaulting rule, read off the raw rows.
# ---------------------------------------------------------------------------


class TestTableAgainstDefaultingRule:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_lookup_and_effective_aspect(self, seed):
        rng = random.Random(seed)
        # one proposition lists its carrier of 4 often, which the small-carrier
        # rule turns into the full row; three give rows of a 256-element one
        algebra = mk_algebra(rng.choice([["p"], ["p", "q"], ["p", "q", "r"]]))
        model = random_model_any(rng, max_themes=5)
        interp = random_total_interpretation(rng, model, algebra)
        if rng.random() < 0.7:
            interp = with_extra_rows(rng, model, interp)
        # point reads from one table, whole columns from the other
        table, swept = AspectTable(interp, model), AspectTable(interp, model)
        for n in range(len(model.themes) + 1):
            for combo in combinations(model.themes, n):
                themes = list(combo)
                rng.shuffle(themes)
                tmask = table.mask(themes)
                for s in [x.id for x in model.statements] + [OMEGA]:
                    full, masks = oracle_aspects(interp, model, combo, s)
                    want = oracle_effective(interp, full, masks)
                    # the table's own rows: an AspectSet would make a listed
                    # small carrier full by itself
                    assert table.row(tmask, s) == (full, masks)
                    assert table.inf(tmask, s) == want
                    rows, infs = swept.columns(s)
                    assert (rows[tmask], infs[tmask]) == ((full, masks), want)
                    got = lookup(interp, model, themes, s)
                    assert (got.full, {e.mask for e in got.elements}) == (full, masks)
                    eff = effective_aspect(interp, model, themes, s)
                    assert (None if eff is None else eff.mask) == want
        assert not table._columns  # every read of ``table`` was a point read

    def test_unknown_ids_still_raise(self, fear):
        with pytest.raises(UnknownIdError):
            effective_aspect(fear.interpretation, fear.model, ["nope"], "s1")
        with pytest.raises(UnknownIdError):
            effective_aspect(fear.interpretation, fear.model, ["t1"], "nope")

    def test_a_union_that_lists_a_small_carrier_is_full(self):
        algebra = mk_algebra(["p"])  # the carrier is the masks 0 to 3
        model = Model.build(["t1", "t2", "t3"], [Statement("s")], {"s": {"t1", "t2"}}, [])
        rows = {
            (frozenset([t]), "s"): AspectSet(
                algebra, frozenset(Element(algebra, m) for m in masks)
            )
            for t, masks in (("t1", (1, 2)), ("t2", (0, 3)), ("t3", (2,)))
        }
        interp = Interpretation(algebra, {}, rows)
        table = AspectTable(interp, model)
        for themes in (["t1", "t2"], ["t1", "t2", "t3"]):
            assert table.row(table.mask(themes), "s") == FULL_ROW
            assert lookup(interp, model, themes, "s") == AspectSet(algebra, full=True)
            assert effective_aspect(interp, model, themes, "s") == algebra.bottom
        assert not lookup(interp, model, ["t1", "t3"], "s").full
        assert effective_aspect(interp, model, ["t2", "t3"], "s") == algebra.bottom

    def test_a_row_keyed_by_an_undeclared_theme_is_ignored(self, fig1, ev):
        model = Model.build(["t1", "t2"], [Statement("s")], {"s": {"t1", "t2"}}, [])
        row = AspectSet(fig1, frozenset({ev("x")}))
        ghost = AspectSet(fig1, frozenset({ev("y")}))
        interp = Interpretation(
            fig1,
            {frozenset(["t1", "ghost"]): AspectSet(fig1, full=True)},
            {
                (frozenset(["t1"]), "s"): row,
                (frozenset(["ghost"]), "s"): ghost,
                (frozenset(["t1", "ghost"]), "s"): ghost,
            },
        )
        empty = AspectSet(fig1)
        for themes in ([], ["t1"], ["t2"], ["t1", "t2"]):
            want = row if "t1" in themes else empty
            assert lookup(interp, model, themes, "s") == want
            assert lookup(interp, model, themes, OMEGA) == empty
        with pytest.raises(UnknownIdError):
            lookup(interp, model, ["t1", "ghost"], "s")

    @pytest.mark.parametrize("read", ["row", "inf", "columns", "lookup"])
    def test_an_unknown_statement_raises_even_with_rows(self, fig1, ev, read):
        model = Model.build(["t1"], [Statement("s")], {"s": {"t1"}}, [])
        rows = {(frozenset(["t1"]), sid): AspectSet(fig1, frozenset({ev("x")})) for sid in "sn"}
        interp = Interpretation(fig1, {}, rows)
        table = AspectTable(interp, model)
        reads = {
            "row": lambda: table.row(1, "n"),
            "inf": lambda: table.inf(1, "n"),
            "columns": lambda: table.columns("n"),
            "lookup": lambda: lookup(interp, model, ["t1"], "n"),
        }
        with pytest.raises(UnknownIdError):
            reads[read]()


class TestTableRowsAreBuiltOnce:
    def test_exact_region_on_six_themes(self, monkeypatch):
        rng = random.Random(31)
        themes = [f"t{i}" for i in range(6)]
        statements = [Statement(f"s{i}") for i in range(5)]
        statements += [Statement("c", ref_theme="t0"), Statement("p", "t1", "s1")]
        st_themes = {s.id: set(rng.sample(themes, rng.randint(1, 4))) for s in statements}
        model = Model.build(themes, statements, st_themes, [])
        interp = random_total_interpretation(rng, model, mk_algebra(["p", "q"]))

        built: Counter = Counter()
        build = AspectTable._build_columns

        def counting(self, s):
            built[s] += 1
            return build(self, s)

        monkeypatch.setattr(AspectTable, "_build_columns", counting)
        check_exact_region(model, interp)
        # every statement's column is built, and omega's, each exactly once
        assert built == Counter([s.id for s in statements] + [OMEGA])


class TestThemeSubsets:
    def test_order_is_size_then_combinations(self):
        got = list(theme_subsets(["a", "b", "c"], min_size=1))
        assert got == [("a",), ("b",), ("c",), ("a", "b"), ("a", "c"), ("b", "c"),
                       ("a", "b", "c")]
        assert list(theme_subsets([])) == [()]

    def test_cap_is_checked_when_the_enumerator_is_made(self):
        with pytest.raises(CapExceeded):
            theme_subsets([f"t{i}" for i in range(13)])


class TestViolation:
    """The record every checker returns: frozen, slotted, compared by fields."""

    FULL = Violation("eos", ("s",), ("a", "b"), ("t1",), ("t2",), "attack", "text")

    def test_positional_and_keyword_construction_agree(self):
        by_keyword = Violation(
            "eos",
            statements=("s",),
            relation=("a", "b"),
            theme_set=("t1",),
            theme_set2=("t2",),
            rel_type="attack",
            detail="text",
        )
        assert by_keyword == self.FULL
        assert Violation(constraint="wf") == Violation("wf", (), None, None, None, None, "")

    def test_defaults(self):
        v = Violation("wf")
        assert (v.statements, v.relation, v.theme_set, v.theme_set2, v.rel_type, v.detail) == (
            (), None, None, None, None, ""
        )

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.FULL.detail = "other"
        # a new attribute has no slot; which error says so varies by Python version
        with pytest.raises((AttributeError, TypeError)):
            self.FULL.extra = 1

    def test_equality_and_hash_go_by_fields(self):
        same = Violation("eos", ("s",), ("a", "b"), ("t1",), ("t2",), "attack", "text")
        assert same == self.FULL and hash(same) == hash(self.FULL)
        assert Violation("eos", ("s",), ("a", "b"), ("t1",), ("t2",), "attack", "x") != self.FULL
        assert len({self.FULL, same, Violation("wf")}) == 2

    def test_repr(self):
        assert repr(Violation("wf", ("s",), detail="d")) == (
            "Violation(constraint='wf', statements=('s',), relation=None, theme_set=None, "
            "theme_set2=None, rel_type=None, detail='d')"
        )

    def test_pickle_round_trip(self):
        assert pickle.loads(pickle.dumps(self.FULL)) == self.FULL

    def test_no_instance_dict(self):
        assert not hasattr(self.FULL, "__dict__")
        assert [f.name for f in dataclasses.fields(Violation)] == list(Violation.__slots__)

    @pytest.mark.parametrize(
        "duplicate",
        [copy.copy, copy.deepcopy, dataclasses.replace],
        ids=["copy", "deepcopy", "replace"],
    )
    def test_copies_are_equal_records(self, duplicate):
        for v in (self.FULL, Violation("wf")):
            twin = duplicate(v)
            assert twin == v and hash(twin) == hash(v) and repr(twin) == repr(v)
        assert dataclasses.replace(self.FULL, detail="x") == Violation(
            "eos", ("s",), ("a", "b"), ("t1",), ("t2",), "attack", "x"
        )

    def test_signature(self):
        params = inspect.signature(Violation).parameters
        assert [(p.name, p.default, p.kind) for p in params.values()] == [
            ("constraint", inspect.Parameter.empty, inspect.Parameter.POSITIONAL_OR_KEYWORD),
            ("statements", (), inspect.Parameter.POSITIONAL_OR_KEYWORD),
            ("relation", None, inspect.Parameter.POSITIONAL_OR_KEYWORD),
            ("theme_set", None, inspect.Parameter.POSITIONAL_OR_KEYWORD),
            ("theme_set2", None, inspect.Parameter.POSITIONAL_OR_KEYWORD),
            ("rel_type", None, inspect.Parameter.POSITIONAL_OR_KEYWORD),
            ("detail", "", inspect.Parameter.POSITIONAL_OR_KEYWORD),
        ]
        assert [(f.name, f.default) for f in dataclasses.fields(Violation)] == [
            (name, dataclasses.MISSING if p.default is inspect.Parameter.empty else p.default)
            for name, p in params.items()
        ]

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            (("eos", ("s",), ("a", "b"), ("t1",), ("t2",), "attack", "text", "extra"), {}),
            (("eos",), {"witness": ("s",)}),
            ((), {"detail": "text"}),
            (("eos",), {"constraint": "eos"}),
        ],
        ids=["too many positional", "unknown keyword", "missing constraint", "given twice"],
    )
    def test_bad_arguments_are_refused(self, args, kwargs):
        with pytest.raises(TypeError):
            Violation(*args, **kwargs)
