import copy
import dataclasses
import inspect
import pickle
import random
import runpy
from collections import Counter
from collections.abc import Mapping
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspectarg import model as model_module
from aspectarg.algebra import Element, mk_algebra
from aspectarg.constraints import check_core, check_exact_region, run_group
from aspectarg.corpus import corpus_path
from aspectarg.errors import AlgebraError, CapExceeded, ModelError, UnknownIdError
from aspectarg.formulas import ElementReader
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
from aspectarg.modelfile import from_dict, load_path
from aspectarg.semantics import SEMANTICS_IDS, detect_logical_fallacy
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
    return Element(algebra, ElementReader(algebra).read(text))


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

    def test_a_model_breaking_every_rule_gets_each_violation_in_order(self):
        # each of the fourteen rules is broken once; the records come back
        # whole and in Violation.sort_key order
        attack = frozenset({"attack"})
        model = Model.build(
            ["t", "t", "", "u"],
            [
                Statement("s"),
                Statement(""),
                Statement("e"),
                Statement("w"),
                Statement("q", ref_theme="v", ref_target="s"),
                Statement("r", ref_theme="t", ref_target="q"),
                Statement("a", ref_theme="t", ref_target="s"),
                Statement("b", ref_theme="t", ref_target="s"),
            ],
            {
                **{sid: {"t"} for sid in ["s", "", "q", "r", "a", "b", "ghost"]},
                "e": set(),
                "w": {"t", "x"},
            },
            [
                Relation("s", "x", attack, frozenset({"t"})),
                Relation("s", "a", frozenset(), frozenset({"t"})),
                Relation("s", "b", attack, frozenset()),
                Relation("s", "r", attack, frozenset({"u"})),
                Relation("s", "e", frozenset({"attak"}), frozenset({"t"})),
            ],
        )
        wf = model_module.WELLFORMED
        assert validate_wellformed(model) == [
            Violation(wf, detail="duplicate theme ids"),
            Violation(wf, detail="empty statement id"),
            Violation(wf, detail="empty theme id"),
            Violation(wf, relation=("s", "a"), detail="relation ('s', 'a') has no attack/support type"),
            Violation(wf, relation=("s", "b"), detail="relation ('s', 'b') has no themes"),
            Violation(wf, relation=("s", "e"), detail="relation ('s', 'e') has unknown types ['attak']"),
            Violation(
                wf,
                relation=("s", "r"),
                detail="relation ('s', 'r') typed with themes ['u'] outside the themes of its endpoints",
            ),
            Violation(wf, relation=("s", "x"), detail="relation ('s', 'x') endpoint missing"),
            Violation(
                wf,
                ("a", "b"),
                detail="a and b both point to statement 's' of theme 't'; a pointer statement "
                "is identified by its reference",
            ),
            Violation(wf, ("e",), detail="statement e untyped (no themes)"),
            Violation(wf, ("ghost",), detail="typing for unknown statement ghost"),
            Violation(wf, ("q",), detail="pointer q references undeclared theme 'v'"),
            Violation(
                wf,
                ("r",),
                detail="pointer r targets pointer q; pointers must reference ordinary statements",
            ),
            Violation(wf, ("w",), detail="statement w typed with undeclared themes ['x']"),
        ]


# ---------------------------------------------------------------------------
# The compiled table against the defaulting rule, read off the raw rows.
# ---------------------------------------------------------------------------


def with_covering_singleton_rows(rng: random.Random, model: Model, interp: Interpretation):
    """Give about half the statements of two or more themes singleton rows
    that together list the whole carrier, so their union at all their themes
    lists it too."""
    rows = dict(interp.statement_aspects)
    carrier = list(range(interp.algebra.carrier_size))
    for s in model.statements:
        themes = sorted(model.themes_of(s.id))
        if len(themes) < 2 or rng.random() < 0.5:
            continue
        rng.shuffle(carrier)
        parts: dict[str, set[int]] = {t: set() for t in themes}
        for i, m in enumerate(carrier):
            parts[themes[i] if i < len(themes) else rng.choice(themes)].add(m)
        for t, masks in parts.items():
            rows[(frozenset([t]), s.id)] = (False, frozenset(masks))
    return Interpretation(interp.algebra, interp.theme_aspects, rows)


def without_some_omega_rows(rng: random.Random, interp: Interpretation):
    """Drop about half the omega rows, which never default."""
    omega = {t: row for t, row in interp.theme_aspects.items() if rng.random() < 0.5}
    return Interpretation(interp.algebra, omega, interp.statement_aspects)


def with_empty_and_full_singleton_rows(rng: random.Random, model: Model, interp: Interpretation):
    """Make about a fifth of the singleton rows empty and a tenth full."""
    rows = dict(interp.statement_aspects)
    for s in model.statements:
        for t in sorted(model.themes_of(s.id)):
            roll = rng.random()
            if roll < 0.2:
                rows[(frozenset([t]), s.id)] = (False, frozenset())
            elif roll < 0.3:
                rows[(frozenset([t]), s.id)] = FULL_ROW
    return Interpretation(interp.algebra, interp.theme_aspects, rows)


class TestTableAgainstDefaultingRule:
    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_lookup_and_effective_aspect(self, rng):
        # one proposition lists its carrier of 4 often, which the small-carrier
        # rule turns into the full row; three give rows of a 256-element one
        algebra = mk_algebra(rng.choice([["p"], ["p", "q"], ["p", "q", "r"]]))
        model = random_model_any(rng, max_themes=6)
        interp = random_total_interpretation(rng, model, algebra)
        if rng.random() < 0.7:
            interp = with_extra_rows(rng, model, interp)
        # a small carrier listed in full by a union is the full row
        if algebra.k == 1 and rng.random() < 0.7:
            interp = with_covering_singleton_rows(rng, model, interp)
        if rng.random() < 0.5:
            interp = without_some_omega_rows(rng, interp)
        # one table read in mask order, as a sweep reads, the other in a
        # shuffled order, so their memos fill in different orders
        table, shuffled = AspectTable(interp, model), AspectTable(interp, model)
        ids = [x.id for x in model.statements] + [OMEGA]
        cases = [combo for n in range(len(model.themes) + 1)
                 for combo in combinations(model.themes, n)]
        for combo in cases:
            themes = list(combo)
            rng.shuffle(themes)
            tmask = table.mask(themes)
            for s in ids:
                full, masks = oracle_aspects(interp, model, combo, s)
                want = oracle_effective(interp, full, masks)
                # the table's own rows: an AspectSet would make a listed
                # small carrier full by itself
                assert (table.rows(s)[tmask], table.infs(s)[tmask]) == ((full, masks), want)
                got = lookup(interp, model, themes, s)
                assert (got.full, {e.mask for e in got.elements}) == (full, masks)
                eff = effective_aspect(interp, model, themes, s)
                assert (None if eff is None else eff.mask) == want
        rng.shuffle(cases)
        for combo in cases:
            tmask = table.mask(combo)
            for s in ids:
                assert shuffled.infs(s)[tmask] == table.infs(s)[tmask]
                assert shuffled.rows(s)[tmask] == table.rows(s)[tmask]

    @settings(max_examples=80, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_infima_read_before_or_after_the_rows(self, rng):
        # an infimum read first is the meet of the singleton infima where the
        # row defaults, and the explicit row's where it does not; read after
        # the rows, it is the row's own
        algebra = mk_algebra(rng.choice([["p"], ["p", "q"]]))
        model = random_model_any(rng, max_themes=5)
        interp = random_total_interpretation(rng, model, algebra)
        interp = with_empty_and_full_singleton_rows(rng, model, interp)
        if rng.random() < 0.8:
            interp = with_extra_rows(rng, model, interp)
        if rng.random() < 0.5:
            # a listed union of a carrier of 4 or 16 elements is full
            interp = with_covering_singleton_rows(rng, model, interp)
        ids = [x.id for x in model.statements] + [OMEGA]
        cases = []
        for tmask in range(1 << len(model.themes)):
            combo = [t for i, t in enumerate(model.themes) if tmask >> i & 1]
            for s in ids:
                full, masks = oracle_aspects(interp, model, combo, s)
                cases.append((s, tmask, (full, masks), oracle_effective(interp, full, masks)))
        rng.shuffle(cases)
        infs_first, rows_first = AspectTable(interp, model), AspectTable(interp, model)
        for s, tmask, _, want in cases:
            assert infs_first.infs(s)[tmask] == want
        for s, tmask, row, _ in cases:
            assert infs_first.rows(s)[tmask] == row
            assert rows_first.rows(s)[tmask] == row
        for s, tmask, _, want in cases:
            assert rows_first.infs(s)[tmask] == want

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
            assert table.rows("s")[table.mask(themes)] == FULL_ROW
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

    @pytest.mark.parametrize("read", ["rows", "infs", "lookup", "effective_aspect"])
    def test_an_unknown_statement_raises_even_with_rows(self, fig1, ev, read):
        model = Model.build(["t1"], [Statement("s")], {"s": {"t1"}}, [])
        rows = {(frozenset(["t1"]), sid): AspectSet(fig1, frozenset({ev("x")})) for sid in "sn"}
        interp = Interpretation(fig1, {}, rows)
        table = AspectTable(interp, model)
        reads = {
            "rows": lambda: table.rows("n"),
            "infs": lambda: table.infs("n"),
            "lookup": lambda: lookup(interp, model, ["t1"], "n"),
            "effective_aspect": lambda: effective_aspect(interp, model, ["t1"], "n"),
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
        build = AspectTable._statement_rows

        def counting(self, s):
            built[s] += 1
            return build(self, s)

        monkeypatch.setattr(AspectTable, "_statement_rows", counting)
        check_exact_region(model, interp)
        # every statement's rows are made, and omega's, each exactly once
        assert built == Counter([s.id for s in statements] + [OMEGA])

    def test_core_unions_each_projection_of_the_singleton_rows_once(self, monkeypatch):
        # twelve themes, twelve statements, each with 1-3 rows, all singleton
        bench = Path(__file__).resolve().parent.parent / "bench"
        doc = runpy.run_path(str(bench / "workloads.py"))["random_total_doc"](
            random.Random("12/12"), 12, 12
        )
        loaded = from_dict(doc)
        singles = Counter(
            s for themes, s in loaded.interpretation.statement_aspects if len(themes) == 1
        )
        unions, original = [], model_module._union
        monkeypatch.setattr(model_module, "_union", lambda a, b: unions.append(1) or original(a, b))
        found = check_core(loaded.model, loaded.interpretation)
        # a default reads only its mask's bits among the statement's k
        # singleton rows: at most k unions for each of their 2**k projections
        assert 0 < len(unions) <= sum(k << k for k in singles.values())
        counts = {cid: len(vs) for cid, vs in found.items() if vs}
        assert counts == {"aass": 17, "pr": 10240, "ss": 3}

    def test_the_singleton_rows_are_found_in_one_pass(self):
        # thirty declared themes; each statement is read once, at one mask
        themes = [f"t{i}" for i in range(30)]
        statements = [Statement(f"s{i}") for i in range(12)]
        typing = {s.id: {themes[i], themes[i + 1]} for i, s in enumerate(statements)}
        model = Model.build(themes, statements, typing, [])
        algebra = mk_algebra(["p"])
        interp = Interpretation(
            algebra,
            {},
            {
                (frozenset([t]), sid): (False, frozenset({algebra.full_mask}))
                for sid, ts in typing.items()
                for t in ts
            },
        )
        given, reads = interp.statement_aspects, Counter()

        class Counted(Mapping):
            """The rows, counting passes over them and reads of a key."""

            def __getitem__(self, key):
                reads["key"] += 1
                return given[key]

            def __iter__(self):
                reads["pass"] += 1
                return iter(given)

            def __len__(self):
                return len(given)

        object.__setattr__(interp, "statement_aspects", Counted())
        table = AspectTable(interp, model)
        tmask = table.mask(["t1"])
        infs = [table.infs(s.id)[tmask] for s in statements]
        assert infs == [algebra.full_mask, algebra.full_mask] + [None] * 10
        # one pass reads each of the 24 rows once, by mask for every statement
        assert reads == {"pass": 1, "key": 24}
        # and no later read touches the interpretation
        for s in statements:
            table.rows(s.id)[table.mask(typing[s.id])]
            table.infs(s.id)[table.mask(themes[:4])]
        assert reads == {"pass": 1, "key": 24}


class TestTheScanReadsNoUnion:
    @pytest.mark.parametrize(
        "index, rows, verdicts",
        [(2, 27, [False] * 5), (5, 19, [True] * 5)],
        ids=["consistent", "planted"],
    )
    def test_each_row_is_read_once_and_no_union_is_built(
        self, monkeypatch, index, rows, verdicts
    ):
        # the extensions workload's graphs on three themes, whose statements
        # have singleton rows only
        bench = Path(__file__).resolve().parent.parent / "bench"
        workloads = runpy.run_path(str(bench / "workloads.py"))
        rng = random.Random(f"extensions/{index}")
        doc, _ = workloads["extensions_doc"](rng, 3, index % 2 == 1)
        loaded = from_dict(doc)
        model, interp = loaded.model, loaded.interpretation
        given, reads = interp.statement_aspects, Counter()
        assert len(given) == rows
        assert all(len(themes) == 1 for themes, _ in given)

        class Counted(Mapping):
            """The rows, counting passes over them and reads of a key."""

            def __getitem__(self, key):
                reads["key"] += 1
                return given[key]

            def __iter__(self):
                reads["pass"] += 1
                return iter(given)

            def __len__(self):
                return len(given)

        object.__setattr__(interp, "statement_aspects", Counted())
        unions, original = [], model_module._union
        monkeypatch.setattr(model_module, "_union", lambda a, b: unions.append(1) or original(a, b))
        found = [detect_logical_fallacy(model, interp, sem).found for sem in SEMANTICS_IDS]
        assert found == verdicts
        # each scan makes one table, which makes one pass that reads each row
        # once, and takes every infimum without a union row
        assert unions == []
        assert reads == {"pass": 5, "key": 5 * rows}


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


@pytest.mark.parametrize(
    "record, by_keyword",
    [
        (Statement("p", "t", "s"), Statement(id="p", ref_theme="t", ref_target="s")),
        (
            Relation("a", "b", frozenset({"attack"}), frozenset({"t"})),
            Relation(source="a", target="b", rel_types=frozenset({"attack"}), themes=frozenset({"t"})),
        ),
    ],
    ids=["statement", "relation"],
)
def test_a_graph_record_is_a_frozen_slotted_value(record, by_keyword):
    """Statement and Relation are built by their generated constructors and
    stay frozen, slotted values compared by their fields."""
    cls = type(record)
    names = [f.name for f in dataclasses.fields(cls)]
    assert names == list(cls.__slots__) and not hasattr(record, "__dict__")
    params = inspect.signature(cls).parameters
    assert [(p.name, p.default) for p in params.values()] == [
        (f.name, inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default)
        for f in dataclasses.fields(cls)
    ]
    assert by_keyword == record and hash(by_keyword) == hash(record)
    assert dataclasses.replace(record, **{names[0]: "z"}) != record
    for twin in (
        copy.copy(record),
        copy.deepcopy(record),
        pickle.loads(pickle.dumps(record)),
        dataclasses.replace(record),
    ):
        assert twin == record and hash(twin) == hash(record) and repr(twin) == repr(record)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, names[0], "z")
    with pytest.raises((AttributeError, TypeError)):
        record.extra = 1
    assert Statement("s") == Statement("s", None, None)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: Model.build(["t"], [Statement("s"), Statement("s")], {"s": ["t"]}, []), ModelError),
        (lambda: mk_algebra(["p", ""]), AlgebraError),
        (lambda: next(mk_algebra(["p1", "p2", "p3", "p4", "p5"]).elements()), CapExceeded),
        (lambda: corpus_path("nope"), KeyError),
        (
            lambda: run_group(Model.build([], [], {}, []), Interpretation(mk_algebra(["p"])), "bogus"),
            ValueError,
        ),
    ],
    ids=["duplicate statement", "empty proposition", "carrier cap", "corpus name",
         "constraint group"],
)
def test_library_refusals(call, error):
    with pytest.raises(error):
        call()
