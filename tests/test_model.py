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
from aspectarg.errors import CapExceeded, UnknownIdError
from aspectarg.formulas import evaluate, parse
from aspectarg.model import (
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
    random_model_any,
    random_total_interpretation,
    union,
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


def oracle_aspects(interp: Interpretation, model: Model, themes, s: str) -> tuple[bool, set]:
    """(full, element masks) of a lookup, from the paper's defaulting rule.

    An explicit row wins.  Otherwise the empty and singleton theme sets read
    empty, summary pointers read empty (they are explicit only), and larger
    sets read the union of the singleton rows.
    """
    t = frozenset(themes)
    if s == OMEGA:
        row = interp.theme_aspects.get(t)
    else:
        row = interp.statement_aspects.get((t, s))
    if row is not None:
        return row.full, {e.mask for e in row.elements}
    summary = any(x.id == s and x.ref_theme and x.ref_target is None for x in model.statements)
    if s == OMEGA or len(t) < 2 or summary:
        return False, set()
    full, masks = False, set()
    for th in t:
        single = interp.statement_aspects.get((frozenset([th]), s))
        if single is not None:
            full = full or single.full
            masks |= {e.mask for e in single.elements}
    if full or len(masks) == 1 << interp.algebra.n_minterms:
        return True, set()
    return False, masks


def oracle_effective(interp: Interpretation, full: bool, masks: set) -> int | None:
    if full:
        return 0  # the whole carrier contains the bottom element
    if not masks:
        return None
    out = (1 << interp.algebra.n_minterms) - 1
    for m in masks:
        out &= m
    return out


def with_extra_rows(rng: random.Random, model: Model, interp: Interpretation) -> Interpretation:
    """Add explicit multi-theme, empty-set and full rows."""
    algebra = interp.algebra
    rows = dict(interp.statement_aspects)
    theme_sets = [frozenset(c) for n in range(len(model.themes) + 1)
                  for c in combinations(model.themes, n)]
    for s in model.statements:
        for t in rng.sample(theme_sets, min(2, len(theme_sets))):
            if rng.random() < 0.2:
                rows[(t, s.id)] = AspectSet(algebra, full=True)
            else:
                masks = rng.sample(range(algebra.carrier_size), rng.randint(0, 3))
                rows[(t, s.id)] = AspectSet(algebra, frozenset(Element(algebra, m) for m in masks))
    return Interpretation(algebra, interp.theme_aspects, rows)


class TestTableAgainstDefaultingRule:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_lookup_and_effective_aspect(self, seed):
        rng = random.Random(seed)
        algebra = mk_algebra(["p", "q"])
        model = random_model_any(rng, max_themes=3)
        interp = random_total_interpretation(rng, model, algebra)
        if rng.random() < 0.7:
            interp = with_extra_rows(rng, model, interp)
        for n in range(len(model.themes) + 1):
            for combo in combinations(model.themes, n):
                themes = list(combo)
                rng.shuffle(themes)
                for s in [x.id for x in model.statements] + [OMEGA]:
                    full, masks = oracle_aspects(interp, model, combo, s)
                    got = lookup(interp, model, themes, s)
                    assert (got.full, {e.mask for e in got.elements}) == (full, masks)
                    eff = effective_aspect(interp, model, themes, s)
                    want = oracle_effective(interp, full, masks)
                    assert (None if eff is None else eff.mask) == want

    def test_unknown_ids_still_raise(self, fear):
        with pytest.raises(UnknownIdError):
            effective_aspect(fear.interpretation, fear.model, ["nope"], "s1")
        with pytest.raises(UnknownIdError):
            effective_aspect(fear.interpretation, fear.model, ["t1"], "nope")


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
        build = AspectTable._build

        def counting(self, tmask, s):
            built[(tmask, s)] += 1
            return build(self, tmask, s)

        monkeypatch.setattr(AspectTable, "_build", counting)
        check_exact_region(model, interp)
        assert max(built.values()) == 1
        # every non-empty theme set is read for every statement and for omega
        assert len(built) >= 63 * (len(statements) + 1)


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
