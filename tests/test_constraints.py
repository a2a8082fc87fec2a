import dataclasses
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspectarg.algebra import Element, mk_algebra
from aspectarg.constraints import (
    ALPHA_GROUPS,
    CORE,
    EXACT_REGION_IDS,
    all_violations,
    check_core,
    check_das,
    check_exact_region,
    check_fresh_aspects,
    check_graphic,
    check_nwci,
    classify_normal_form,
    classify_relations,
    recheck,
    run_group,
)
from aspectarg.corpus import corpus_path
from aspectarg.model import (
    ATTACK,
    OMEGA,
    SUPPORT,
    AspectSet,
    Interpretation,
    Model,
    Relation,
    AspectTable,
    Statement,
    Violation,
    effective_aspect,
    lookup,
)
from aspectarg.modelfile import load_path
from helpers import (
    block_instance,
    issubset,
    oracle_core,
    oracle_exact_region,
    oracle_fresh_aspects,
    oracle_graphic,
    oracle_relation_kinds,
    random_graphic_safe_model,
    random_model_any,
    random_total_interpretation,
    redundant_instance,
    with_extra_rows,
    with_odd_omega_rows,
)


def aspects(algebra, *elements):
    return AspectSet(algebra, frozenset(elements))


def single_theme_model(*statement_ids, relations=()):
    return Model.build(
        ["t"],
        [Statement(s) for s in statement_ids],
        {s: {"t"} for s in statement_ids},
        list(relations),
    )


class TestGraphic:
    def test_false_flag_violates_nnp_only(self):
        doc = load_path(corpus_path("false_flag"))
        out = check_graphic(doc.model)
        assert [v.statements for v in out["nnp"]] == [("s1",)]
        assert not any(out[c] for c in ("tr", "nsa", "kos", "nss"))

    def test_theme_relevance_proof_graph(self):
        # relation typed with a theme neither endpoint carries in common
        model = Model.build(
            ["t1", "t2"],
            [Statement("a1"), Statement("a2")],
            {"a1": {"t1"}, "a2": {"t1", "t2"}},
            [Relation("a1", "a2", frozenset({ATTACK}), frozenset({"t2"}))],
        )
        out = check_graphic(model)
        assert [v.relation for v in out["tr"]] == [("a1", "a2")]

    def test_self_attack(self):
        model = single_theme_model(
            "s", relations=[Relation("s", "s", frozenset({ATTACK}), frozenset({"t"}))]
        )
        out = check_graphic(model)
        assert [v.relation for v in out["nsa"]] == [("s", "s")]

    def test_self_support_is_fine(self):
        model = single_theme_model(
            "s", relations=[Relation("s", "s", frozenset({SUPPORT}), frozenset({"t"}))]
        )
        assert not check_graphic(model)["nsa"]

    def test_kos_pointer_typed_beyond_target(self):
        model = Model.build(
            ["t1", "t2"],
            [Statement("a"), Statement("p", ref_theme="t1", ref_target="a")],
            {"a": {"t1"}, "p": {"t1", "t2"}},
            [],
        )
        out = check_graphic(model)
        assert [v.statements for v in out["kos"]] == [("p",)]

    def test_nnp_summary_pointer_uninhabited_theme(self):
        model = Model.build(
            ["t1", "t2"],
            [Statement("a"), Statement("c", ref_theme="t2", ref_target=None)],
            {"a": {"t1"}, "c": {"t1"}},
            [],
        )
        assert [v.statements for v in check_graphic(model)["nnp"]] == [("c",)]

    def test_nnp_summary_pointer_may_inhabit_its_own_theme(self):
        model = Model.build(
            ["t1"],
            [Statement("c", ref_theme="t1", ref_target=None)],
            {"c": {"t1"}},
            [],
        )
        assert not check_graphic(model)["nnp"]

    def test_nss_double_typed_relation(self):
        model = single_theme_model(
            "a", "b",
            relations=[Relation("a", "b", frozenset({ATTACK, SUPPORT}), frozenset({"t"}))],
        )
        out = check_graphic(model)
        assert any(v.relation == ("a", "b") and not v.statements for v in out["nss"])

    def test_nss_double_supporter(self):
        model = single_theme_model(
            "a", "b", "s",
            relations=[
                Relation("a", "b", frozenset({ATTACK}), frozenset({"t"})),
                Relation("s", "a", frozenset({SUPPORT}), frozenset({"t"})),
                Relation("s", "b", frozenset({SUPPORT}), frozenset({"t"})),
            ],
        )
        out = check_graphic(model)
        assert any(v.statements == ("s",) and "supports both ends" in v.detail for v in out["nss"])

    def test_nss_double_supportee(self):
        model = single_theme_model(
            "a", "b", "s",
            relations=[
                Relation("a", "b", frozenset({ATTACK}), frozenset({"t"})),
                Relation("a", "s", frozenset({SUPPORT}), frozenset({"t"})),
                Relation("b", "s", frozenset({SUPPORT}), frozenset({"t"})),
            ],
        )
        out = check_graphic(model)
        assert any(v.statements == ("s",) and "supported by both" in v.detail for v in out["nss"])

    def test_nss_no_shared_theme_no_violation(self):
        model = Model.build(
            ["t1", "t2"],
            [Statement(s) for s in ("a", "b", "s")],
            {"a": {"t1", "t2"}, "b": {"t1", "t2"}, "s": {"t1", "t2"}},
            [
                Relation("a", "b", frozenset({ATTACK}), frozenset({"t1"})),
                Relation("s", "a", frozenset({SUPPORT}), frozenset({"t1"})),
                Relation("s", "b", frozenset({SUPPORT}), frozenset({"t2"})),
            ],
        )
        assert not check_graphic(model)["nss"]


class TestCore:
    def test_fear_appeal_fails_inclusion_at_t2_s2_only(self):
        doc = load_path(corpus_path("fear_appeal"))
        out = check_core(doc.model, doc.interpretation)
        assert [(v.statements, v.theme_set) for v in out["i"]] == [(("s2",), ("t2",))]
        clean = {cid for cid, vs in out.items() if not vs}
        assert clean == {"aass", "vi", "bat", "pr", "mat", "manss", "ss"}

    def test_existence_model_satisfies_all_core(self):
        # one ordinary statement, one theme, the four-element algebra
        algebra = mk_algebra(["x"])
        model = Model.build(["t1"], [Statement("a1")], {"a1": {"t1"}}, [])
        interp = Interpretation(
            algebra,
            {frozenset(["t1"]): AspectSet(algebra, full=True)},
            {(frozenset(["t1"]), "a1"): aspects(algebra, algebra.prop("x"))},
        )
        assert not all_violations(check_core(model, interp))

    def test_substantial_statement_rejects_bottom(self, fig1):
        model = single_theme_model("s")
        interp = Interpretation(
            fig1,
            {frozenset(["t"]): AspectSet(fig1, full=True)},
            {(frozenset(["t"]), "s"): aspects(fig1, fig1.prop("x"), ~fig1.prop("x"))},
        )
        out = check_core(model, interp)
        assert [v.statements for v in out["ss"]] == [("s",)]
        assert "inconsistent" in out["ss"][0].detail

    def test_substantial_statement_rejects_top(self, fig1):
        model = single_theme_model("s")
        interp = Interpretation(
            fig1,
            {frozenset(["t"]): AspectSet(fig1, full=True)},
            {(frozenset(["t"]), "s"): aspects(fig1, fig1.top)},
        )
        assert check_core(model, interp)["ss"]

    def test_self_attack_breaks_aass_regardless_of_aspects(self, fig1):
        # with aspects present the two sides are equal; absent, they are empty
        model = single_theme_model(
            "s", relations=[Relation("s", "s", frozenset({ATTACK}), frozenset({"t"}))]
        )
        with_aspects = Interpretation(
            fig1,
            {frozenset(["t"]): AspectSet(fig1, full=True)},
            {(frozenset(["t"]), "s"): aspects(fig1, fig1.prop("x"))},
        )
        without = Interpretation(fig1, {}, {})
        assert check_core(model, with_aspects)["aass"]
        assert check_core(model, without)["aass"]

    def test_vacuous_interpretation_flags_explicit_empty_key(self, fig1):
        model = single_theme_model("s")
        interp = Interpretation(
            fig1, {}, {(frozenset(), "s"): aspects(fig1, fig1.prop("x"))}
        )
        assert [v.statements for v in check_core(model, interp)["vi"]] == [("s",)]

    def test_bat_requires_closure(self, fig1):
        model = single_theme_model("s")
        interp = Interpretation(
            fig1,
            {frozenset(["t"]): aspects(fig1, fig1.bottom, fig1.top, fig1.prop("x"))},
            {},
        )
        out = check_core(model, interp)
        assert [v.theme_set for v in out["bat"]] == [("t",)]

    @pytest.mark.parametrize(
        "props, formula", [("xy", "x"), ("xy", "1"), ("p", "p")], ids=["x", "1", "p"]
    )
    def test_bat_rejects_a_one_element_row(self, ev, props, formula):
        # a one-element row lacks 0 or 1, so it is no subalgebra
        algebra = mk_algebra(list(props))
        model = single_theme_model("s")
        interp = Interpretation(algebra, {frozenset(["t"]): aspects(algebra, ev(formula, algebra))}, {})
        assert [v.theme_set for v in check_core(model, interp)["bat"]] == [("t",)]

    def test_ss_ranges_over_the_statements_own_themes(self, fig1):
        # s carries only t1, so its inconsistent row at {t1, t2} breaks pr, not ss
        model = Model.build(["t1", "t2"], [Statement("s")], {"s": {"t1"}}, [])
        x = fig1.prop("x")
        interp = Interpretation(
            fig1,
            {},
            {
                (frozenset(["t1"]), "s"): aspects(fig1, x),
                (frozenset(["t1", "t2"]), "s"): aspects(fig1, x, ~x),
            },
        )
        out = check_core(model, interp)
        assert out["ss"] == []
        assert [v.theme_set for v in out["pr"]] == [("t1", "t2")]

    def test_ss_lists_only_the_statements_own_theme_sets(self, fig1):
        # s carries only t1; its effective aspect is 1 at {t1} and 0 at {t2}
        # and, by the union default, at {t1, t2}: only {t1} is an ss witness
        model = Model.build(["t1", "t2"], [Statement("s")], {"s": {"t1"}}, [])
        x = fig1.prop("x")
        interp = Interpretation(
            fig1,
            {},
            {
                (frozenset(["t1"]), "s"): aspects(fig1, fig1.top),
                (frozenset(["t2"]), "s"): aspects(fig1, x, ~x),
            },
        )
        assert effective_aspect(interp, model, ["t1", "t2"], "s") == fig1.bottom
        out = check_core(model, interp)
        assert [v.theme_set for v in out["ss"]] == [("t1",)]
        assert "trivial (1)" in out["ss"][0].detail

    def test_bat_accepts_subalgebra_and_full(self, fig1):
        model = single_theme_model("s")
        x = fig1.prop("x")
        interp = Interpretation(
            fig1,
            {frozenset(["t"]): aspects(fig1, fig1.bottom, fig1.top, x, ~x)},
            {},
        )
        assert not check_core(model, interp)["bat"]

    def test_pr_ordinary_statement_range(self, fig1):
        model = Model.build(
            ["t1", "t2"], [Statement("s")], {"s": {"t1"}}, []
        )
        interp = Interpretation(
            fig1,
            {},
            {(frozenset(["t2"]), "s"): aspects(fig1, fig1.prop("x"))},
        )
        out = check_core(model, interp)
        assert any(v.statements == ("s",) and v.theme_set == ("t2",) for v in out["pr"])

    def test_pr_pointer_bounded_by_target(self, fig1):
        model = Model.build(
            ["t1"],
            [Statement("a"), Statement("p", ref_theme="t1", ref_target="a")],
            {"a": {"t1"}, "p": {"t1"}},
            [],
        )
        interp = Interpretation(
            fig1,
            {},
            {
                (frozenset(["t1"]), "a"): aspects(fig1, fig1.prop("x")),
                (frozenset(["t1"]), "p"): aspects(fig1, fig1.prop("y")),
            },
        )
        assert any(v.statements == ("p",) for v in check_core(model, interp)["pr"])

    def test_pr_dangling_pointer_with_aspects(self, fig1):
        model = Model.build(
            ["t1"],
            [Statement("p", ref_theme="t1", ref_target="ghost")],
            {"p": {"t1"}},
            [],
        )
        interp = Interpretation(
            fig1, {}, {(frozenset(["t1"]), "p"): aspects(fig1, fig1.prop("x"))}
        )
        assert check_core(model, interp)["pr"]

    def test_mat_monotone_theme_aspects(self, fig1):
        model = Model.build(["t1", "t2"], [Statement("s")], {"s": {"t1", "t2"}}, [])
        interp = Interpretation(
            fig1,
            {frozenset(["t1"]): AspectSet(fig1, full=True)},
            {},
        )
        out = check_core(model, interp)
        assert any(v.theme_set == ("t1",) and v.theme_set2 == ("t1", "t2") for v in out["mat"])

    def test_manss_shrinking_statement_aspects(self, fig1):
        model = Model.build(["t1", "t2"], [Statement("s")], {"s": {"t1", "t2"}}, [])
        interp = Interpretation(
            fig1,
            {},
            {
                (frozenset(["t1"]), "s"): aspects(fig1, fig1.prop("x")),
                (frozenset(["t1", "t2"]), "s"): aspects(fig1, fig1.prop("y")),
            },
        )
        assert check_core(model, interp)["manss"]

    def test_manss_exempts_summary_pointers(self, fig1):
        model = Model.build(
            ["t1", "t2"],
            [Statement("a"), Statement("c", ref_theme="t1", ref_target=None)],
            {"a": {"t1"}, "c": {"t1", "t2"}},
            [],
        )
        interp = Interpretation(
            fig1,
            {},
            {(frozenset(["t1"]), "c"): aspects(fig1, fig1.prop("x"))},
        )
        # lookup({t1,t2}, c) is empty although lookup({t1}, c) is not
        assert not check_core(model, interp)["manss"]

    def test_aass_support_needs_comparability(self, fig1):
        model = single_theme_model(
            "a", "b",
            relations=[Relation("a", "b", frozenset({SUPPORT}), frozenset({"t"}))],
        )
        interp = Interpretation(
            fig1,
            {frozenset(["t"]): AspectSet(fig1, full=True)},
            {
                (frozenset(["t"]), "a"): aspects(fig1, fig1.prop("x")),
                (frozenset(["t"]), "b"): aspects(fig1, fig1.prop("y")),
            },
        )
        out = check_core(model, interp)
        assert [v.relation for v in out["aass"]] == [("a", "b")]


class TestExactRegion:
    def test_post_hoc_aspect_growth_violates_eos(self, fig1):
        # an ordinary statement gains an aspect when a wider context observes it
        model = Model.build(
            ["t1968", "tAP"], [Statement("a_he")], {"a_he": {"t1968", "tAP"}}, []
        )
        win, retreat = fig1.prop("x"), fig1.prop("y")
        interp = Interpretation(
            fig1,
            {
                frozenset(["t1968"]): AspectSet(fig1, full=True),
                frozenset(["tAP"]): AspectSet(fig1, full=True),
                frozenset(["t1968", "tAP"]): AspectSet(fig1, full=True),
            },
            {
                (frozenset(["t1968"]), "a_he"): aspects(fig1, win),
                (frozenset(["tAP"]), "a_he"): aspects(fig1, win),
                (frozenset(["t1968", "tAP"]), "a_he"): aspects(fig1, win, retreat),
            },
        )
        assert not all_violations(check_core(model, interp))  # why eos is not core
        out = check_exact_region(model, interp)
        assert any(v.statements == ("a_he",) for v in out["eos"])

    def test_constant_interpretation_passes(self, fig1):
        model = Model.build(
            ["t1", "t2"],
            [
                Statement("a"),
                Statement("p", ref_theme="t1", ref_target="a"),
                Statement("c", ref_theme="t1", ref_target=None),
            ],
            {"a": {"t1", "t2"}, "p": {"t1"}, "c": {"t1"}},
            [],
        )
        x = fig1.prop("x")
        rows = {}
        for t_set in (frozenset(["t1"]), frozenset(["t2"]), frozenset(["t1", "t2"])):
            for sid in ("a", "p", "c"):
                rows[(t_set, sid)] = aspects(fig1, x)
        interp = Interpretation(
            fig1,
            {
                frozenset(["t1"]): AspectSet(fig1, full=True),
                frozenset(["t2"]): AspectSet(fig1, full=True),
                frozenset(["t1", "t2"]): AspectSet(fig1, full=True),
            },
            rows,
        )
        assert not all_violations(check_exact_region(model, interp))

    def test_pointer_context_dependence_violates_ensr(self, fig1):
        model = Model.build(
            ["t1", "t2"],
            [Statement("a"), Statement("p", ref_theme="t1", ref_target="a")],
            {"a": {"t1", "t2"}, "p": {"t1", "t2"}},
            [],
        )
        x = fig1.prop("x")
        interp = Interpretation(
            fig1,
            {
                frozenset(["t1"]): AspectSet(fig1, full=True),
                frozenset(["t2"]): AspectSet(fig1, full=True),
            },
            {
                (frozenset(["t1"]), "a"): aspects(fig1, x),
                (frozenset(["t2"]), "a"): aspects(fig1, x),
                (frozenset(["t1"]), "p"): aspects(fig1, x),
            },
        )
        out = check_exact_region(model, interp)
        assert any(v.constraint == "ensr" and v.statements == ("p",) for v in out["ensr"])

    def test_summary_reinterpretation_violates_esr(self, fig1):
        model = Model.build(
            ["t1", "t2"],
            [Statement("a"), Statement("c", ref_theme="t1", ref_target=None)],
            {"a": {"t1", "t2"}, "c": {"t1", "t2"}},
            [],
        )
        x, y = fig1.prop("x"), fig1.prop("y")
        interp = Interpretation(
            fig1,
            {
                frozenset(["t1"]): AspectSet(fig1, full=True),
                frozenset(["t2"]): AspectSet(fig1, full=True),
            },
            {
                (frozenset(["t1"]), "c"): aspects(fig1, x),
                (frozenset(["t2"]), "c"): aspects(fig1, y),
            },
        )
        out = check_exact_region(model, interp)
        assert any(v.statements == ("c",) for v in out["esr"])

    def test_core_plus_region_constraints_give_monotone_statements(self):
        rng = random.Random(6)
        for _ in range(30):
            model, interp = block_instance(rng)
            assert not all_violations(check_core(model, interp))
            assert not all_violations(check_exact_region(model, interp))
            subsets = list(interp.theme_aspects)
            for s in model.statements:
                for t1 in subsets:
                    for t2 in subsets:
                        if t1 <= t2:
                            assert issubset(
                                lookup(interp, model, t1, s.id), lookup(interp, model, t2, s.id)
                            )


def shuffled(rng, model):
    """``model`` with its themes and statements declared in a random order."""
    themes, statements = list(model.themes), list(model.statements)
    rng.shuffle(themes)
    rng.shuffle(statements)
    return Model.build(themes, statements, model.statement_themes, model.relations)


class TestExactRegionOracle:
    """E against a checker written from the definition, and its lists in
    report order without a sort."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32), st.booleans())
    def test_witnesses_match_the_oracle(self, seed, blocks):
        rng = random.Random(seed)
        if blocks:
            model, interp = block_instance(rng)
            # break E at one row so block instances report witnesses too
            key, (full, masks) = rng.choice(sorted(interp.statement_aspects.items(), key=repr))
            if not full:
                rows = {**interp.statement_aspects, key: (False, masks | {interp.algebra.full_mask})}
                interp = dataclasses.replace(interp, statement_aspects=rows)
        else:
            model = random_model_any(rng, max_themes=3)
            interp = random_total_interpretation(rng, model, mk_algebra(["p", "q"]))
        model = shuffled(rng, model)
        out = check_exact_region(model, interp)
        assert set(out) == set(EXACT_REGION_IDS)
        found = [
            (v.constraint, v.statements[0], v.theme_set, v.theme_set2)
            for vs in out.values()
            for v in vs
        ]
        assert sorted(found) == sorted(oracle_exact_region(model, interp))
        for vs in out.values():
            assert all(len(v.statements) == 1 for v in vs)
            assert vs == sorted(vs, key=Violation.sort_key)


class TestCoreOracle:
    """Core against a checker written from the definitions."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from(["any", "blocks", "redundant"]))
    def test_witnesses_match_the_oracle(self, seed, source):
        rng = random.Random(seed)
        if source == "any":
            model = random_model_any(rng, max_themes=3)
            interp = random_total_interpretation(rng, model, mk_algebra(["p", "q"]))
            if rng.random() < 0.5:
                interp = with_extra_rows(rng, model, interp)
            if rng.random() < 0.5:
                interp = with_odd_omega_rows(rng, model, interp)
        else:
            make = block_instance if source == "blocks" else redundant_instance
            model, interp = make(rng)
            # add 0 or 1 to one row, so core reports witnesses here too
            key, (full, masks) = rng.choice(sorted(interp.statement_aspects.items(), key=repr))
            extra = rng.choice([0, interp.algebra.full_mask])
            rows = {**interp.statement_aspects, key: (full, masks | {extra})}
            interp = dataclasses.replace(interp, statement_aspects=rows)
        model = shuffled(rng, model)
        found = [
            (v.constraint, v.statements, v.relation, v.theme_set, v.theme_set2, v.rel_type)
            for v in classify_normal_form(model, interp, {"core"}).violations
        ]
        assert sorted(found, key=repr) == sorted(oracle_core(model, interp), key=repr)


class TestDasNwci:
    def test_straw_man_fails_das_on_both_supports(self):
        doc = load_path(corpus_path("straw_man"))
        out = check_das(doc.model, doc.interpretation)
        assert [(v.relation, v.theme_set) for v in out] == [
            (("s2", "s1"), ("t",)),
            (("s2", "s3"), ("t",)),
        ]

    @pytest.mark.parametrize("check", [check_das, check_nwci, check_core])
    def test_a_relation_over_undeclared_themes_only_is_not_read(self, fig1, check):
        # not well-formed: only the API builds it; the relation has no theme
        # set to be checked at, so its unknown target is never looked up
        model = single_theme_model(
            "a",
            relations=[
                Relation("a", "ghost", frozenset({ATTACK, SUPPORT}), frozenset({"elsewhere"}))
            ],
        )
        found = check(model, Interpretation(fig1))
        assert not (found if isinstance(found, list) else found["aass"])

    def test_das_attack_must_be_incomparable(self, fig1):
        model = single_theme_model(
            "a", "b",
            relations=[Relation("a", "b", frozenset({ATTACK}), frozenset({"t"}))],
        )
        interp = Interpretation(
            fig1,
            {frozenset(["t"]): AspectSet(fig1, full=True)},
            {
                (frozenset(["t"]), "a"): aspects(fig1, fig1.prop("x") & fig1.prop("y")),
                (frozenset(["t"]), "b"): aspects(fig1, fig1.prop("x")),
            },
        )
        assert check_das(model, interp)

    def test_nwci_accepts_exact_contradiction(self, fig1):
        model = single_theme_model(
            "a", "b",
            relations=[Relation("a", "b", frozenset({ATTACK}), frozenset({"t"}))],
        )
        interp = Interpretation(
            fig1,
            {frozenset(["t"]): AspectSet(fig1, full=True)},
            {
                (frozenset(["t"]), "a"): aspects(fig1, ~fig1.prop("x")),
                (frozenset(["t"]), "b"): aspects(fig1, fig1.prop("x")),
            },
        )
        assert not check_nwci(model, interp)

    def test_nwci_rejects_weakened_contradiction(self, fig1, ev):
        model = single_theme_model(
            "a", "b",
            relations=[Relation("a", "b", frozenset({ATTACK}), frozenset({"t"}))],
        )
        interp = Interpretation(
            fig1,
            {frozenset(["t"]): AspectSet(fig1, full=True)},
            {
                (frozenset(["t"]), "a"): aspects(fig1, ev("~x | ~y")),
                (frozenset(["t"]), "b"): aspects(fig1, ev("x")),
            },
        )
        out = check_nwci(model, interp)
        assert any("weakened contradiction" in v.detail for v in out)

    def test_nwci_rejects_incomparable_alternative(self, fig1):
        model = single_theme_model(
            "a", "b",
            relations=[Relation("a", "b", frozenset({ATTACK}), frozenset({"t"}))],
        )
        interp = Interpretation(
            fig1,
            {frozenset(["t"]): AspectSet(fig1, full=True)},
            {
                (frozenset(["t"]), "a"): aspects(fig1, fig1.prop("y")),
                (frozenset(["t"]), "b"): aspects(fig1, fig1.prop("x")),
            },
        )
        out = check_nwci(model, interp)
        assert any("incomparable" in v.detail for v in out)

    def test_core_plus_das_forbids_double_typing(self, fig1):
        # a relation typed both attack and support cannot satisfy core + das
        model = single_theme_model(
            "a", "b",
            relations=[
                Relation("a", "b", frozenset({ATTACK, SUPPORT}), frozenset({"t"}))
            ],
        )
        rng = random.Random(8)
        for _ in range(60):
            interp = random_total_interpretation(rng, model, fig1)
            core_ok = not all_violations(check_core(model, interp))
            das_ok = not check_das(model, interp)
            assert not (core_ok and das_ok)


class TestFreshAspectRecords:
    def test_one_record_per_redundant_pair(self, ev):
        # c -> a -> b -> s and d -> a, all supports: b has the depth sets
        # {c, a, b} and {d, a, b}, and s the same two with s, so the one
        # redundant pair a, b lies in two depth sets of each anchor
        algebra = mk_algebra(["p", "q"])
        pq = aspects(algebra, ev("p", algebra), ev("q", algebra))
        rows = {
            "a": pq,
            "b": pq,
            "c": aspects(algebra, ev("~p", algebra)),
            "d": aspects(algebra, ev("~q", algebra)),
            "s": aspects(algebra, ev("p | q", algebra)),
        }
        model = single_theme_model(
            *rows,
            relations=[
                Relation(a, b, frozenset({SUPPORT}), frozenset({"t"}))
                for a, b in (("a", "b"), ("b", "s"), ("c", "a"), ("d", "a"))
            ],
        )
        interp = Interpretation(
            algebra,
            {frozenset(["t"]): AspectSet(algebra, full=True)},
            {(frozenset(["t"]), sid): row for sid, row in rows.items()},
        )
        found = check_fresh_aspects(model, interp)
        assert [v.statements for v in found["faD"]] == [("b", "a", "b"), ("s", "a", "b")]
        assert [v.statements for v in found["faW"]] == [("b", "a", "b")]
        for v in found["faD"] + found["faW"]:
            assert recheck(model, interp, v)


class TestFreshAspectOrder:
    def test_lists_are_in_report_order(self):
        # the report and classify_normal_form's join rely on each list
        # already being in sort_key order
        rng = random.Random(43)
        unordered_lists = {"faW": 0, "faD": 0}  # lists that any reordering would break
        for _ in range(40):
            model, interp = redundant_instance(rng)
            found = check_fresh_aspects(model, interp)
            assert classify_normal_form(model, interp, (CORE, "F")).groups["F"] == found
            for cid, vs in found.items():
                keys = [v.sort_key() for v in vs]
                assert keys == sorted(keys)
                if len(set(keys)) > 1:
                    unordered_lists[cid] += 1
        assert min(unordered_lists.values()) >= 30, unordered_lists


def with_isolated_statements(rng, model):
    """``model`` with every relation of one or two of its statements dropped:
    anchors with no predecessor, whose rows may equal other statements'."""
    isolated = set(rng.sample([s.id for s in model.statements], min(2, len(model.statements))))
    kept = [r for r in model.relations if not {r.source, r.target} & isolated]
    return Model.build(model.themes, model.statements, model.statement_themes, kept)


class TestFreshAspectOracle:
    """F against the statements-set and redundancy oracles."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32), st.booleans(), st.booleans())
    def test_witnesses_match_the_oracle(self, seed, redundant, isolated):
        rng = random.Random(seed)
        if redundant:
            model, interp = redundant_instance(rng)
        else:
            model = random_model_any(rng, max_themes=3)
            interp = random_total_interpretation(rng, model, mk_algebra(["p", "q"]))
        if isolated:
            model = with_isolated_statements(rng, model)
        model = shuffled(rng, model)
        found = check_fresh_aspects(model, interp)
        got = [
            (v.constraint, v.statements, v.theme_set, v.rel_type)
            for vs in found.values()
            for v in vs
        ]
        assert got == oracle_fresh_aspects(model, interp)


class TestGraphicOracle:
    """The graphic constraints against a checker written from the definitions."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32), st.booleans())
    def test_witnesses_match_the_oracle(self, seed, safe):
        rng = random.Random(seed)
        if safe:
            model = random_graphic_safe_model(rng, max_themes=3, max_relations=5)
        else:
            model = random_model_any(rng, max_themes=3)
        model = shuffled(rng, model)
        found = [
            (v.constraint, v.statements, v.relation, v.theme_set)
            for vs in check_graphic(model).values()
            for v in vs
        ]
        assert sorted(found, key=repr) == oracle_graphic(model)


class TestClassifyRelation:
    @pytest.fixture
    def pair(self, fig1):
        model = single_theme_model(
            "src", "dst",
            relations=[Relation("src", "dst", frozenset({ATTACK}), frozenset({"t"}))],
        )

        def classify(u, v):
            interp = Interpretation(
                fig1,
                {frozenset(["t"]): AspectSet(fig1, full=True)},
                {
                    (frozenset(["t"]), "src"): aspects(fig1, u),
                    (frozenset(["t"]), "dst"): aspects(fig1, v),
                },
            )
            [(_, _, labels)] = classify_relations(model, interp, ["t"])
            return labels

        return classify

    def test_weakened_contradiction(self, pair, ev):
        assert pair(ev("~x | ~y"), ev("x")) == {"weakened_contradiction"}

    def test_affirmation(self, pair, ev):
        assert pair(ev("x"), ev("x")) == {"affirmation"}

    def test_incomparable_alternative(self, pair, ev):
        assert pair(ev("y"), ev("x")) == {"incomparable_alternative"}

    def test_strengthening(self, pair, ev):
        assert pair(ev("x & y"), ev("x")) == {"strengthening"}

    def test_weakening(self, pair, ev):
        assert pair(ev("x | y"), ev("x")) == {"weakening"}

    def test_contrary(self, pair, ev):
        assert pair(ev("~x & y"), ev("x")) == {"contrary"}
        assert pair(ev("~x"), ev("x")) == {"contrary"}

    def test_labels_may_overlap(self, pair, ev):
        # bottom is below everything: strengthening and contrary at once
        got = pair(ev("0"), ev("x"))
        assert {"strengthening", "contrary"} <= got

    def test_undefined_when_absent(self, fig1):
        model = single_theme_model(
            "src", "dst",
            relations=[Relation("src", "dst", frozenset({ATTACK}), frozenset({"t"}))],
        )
        interp = Interpretation(fig1, {}, {})
        [(_, _, got)] = classify_relations(model, interp, ["t"])
        assert got == {"undefined"}

    def test_never_empty_when_defined(self, pair, fig1):
        rng = random.Random(9)
        from aspectarg.algebra import Element

        for _ in range(100):
            u = Element(fig1, rng.randrange(fig1.carrier_size))
            v = Element(fig1, rng.randrange(fig1.carrier_size))
            assert pair(u, v)


@st.composite
def aspect_pairs(draw):
    """Source and target aspects, each possibly absent, in a 1-3 proposition algebra."""
    algebra = mk_algebra([f"p{i}" for i in range(draw(st.integers(1, 3)))])
    element = st.none() | st.integers(0, algebra.full_mask).map(lambda m: Element(algebra, m))
    return algebra, draw(element), draw(element)


class TestRelationKinds:
    """The six relation kinds against an oracle, and aass, das and nwci as
    the paper's rules over them."""

    COMPARABLE = {"affirmation", "strengthening", "weakening"}

    @staticmethod
    def one_relation(algebra, u, v, rel_type):
        model = single_theme_model(
            "src", "dst",
            relations=[Relation("src", "dst", frozenset({rel_type}), frozenset({"t"}))],
        )
        rows = {
            (frozenset(["t"]), sid): aspects(algebra, e)
            for sid, e in (("src", u), ("dst", v))
            if e is not None
        }
        theme_rows = {frozenset(["t"]): AspectSet(algebra, full=True)}
        return model, Interpretation(algebra, theme_rows, rows)

    @settings(max_examples=300)
    @given(aspect_pairs(), st.sampled_from([ATTACK, SUPPORT]))
    def test_kinds_decide_the_relation_constraints(self, case, rel_type):
        algebra, u, v = case
        model, interp = self.one_relation(algebra, u, v, rel_type)
        kinds = oracle_relation_kinds(u, v)
        [(_, themes, labels)] = classify_relations(model, interp)
        assert (themes, labels) == (("t",), kinds)

        aass = check_core(model, interp)["aass"]
        das, nwci = check_das(model, interp), check_nwci(model, interp)
        assert {w.rel_type for w in aass + das + nwci} <= {rel_type}
        absent = kinds == {"undefined"}
        if rel_type == ATTACK:
            assert bool(aass) == (absent or "affirmation" in kinds)
            assert bool(das) == bool(kinds & self.COMPARABLE)
            assert len(nwci) == len(kinds & {"weakened_contradiction", "incomparable_alternative"})
            assert (not aass and not das and not nwci) == (kinds == {"contrary"})
        else:
            assert bool(aass) == (absent or not kinds & self.COMPARABLE)
            assert bool(das) == (not absent and "affirmation" not in kinds)
            assert not nwci
            assert (not aass and not das) == ("affirmation" in kinds)


class TestNormalForms:
    def test_straw_man_verdicts(self):
        doc = load_path(corpus_path("straw_man"))
        assert classify_normal_form(doc.model, doc.interpretation, [CORE]).normal
        assert not classify_normal_form(doc.model, doc.interpretation, [CORE, "das"]).normal

    def test_question_begging_verdicts(self):
        for name in ("question_begging_opium", "question_begging_god"):
            doc = load_path(corpus_path(name))
            assert classify_normal_form(doc.model, doc.interpretation, [CORE]).normal
            verdict = classify_normal_form(doc.model, doc.interpretation, [CORE, "F"])
            assert not verdict.normal
            assert any(v.constraint == "faD" for v in verdict.violations)

    def test_existence_model_normal_for_every_alpha(self):
        algebra = mk_algebra(["x"])
        model = Model.build(["t1"], [Statement("a1")], {"a1": {"t1"}}, [])
        interp = Interpretation(
            algebra,
            {frozenset(["t1"]): AspectSet(algebra, full=True)},
            {(frozenset(["t1"]), "a1"): aspects(algebra, algebra.prop("x"))},
        )
        from itertools import combinations

        extras = [g for g in ALPHA_GROUPS if g != CORE]
        for n in range(len(extras) + 1):
            for combo in combinations(extras, n):
                assert classify_normal_form(model, interp, {CORE, *combo}).normal

    def test_alpha_must_contain_core(self, fig1):
        model = single_theme_model("s")
        interp = Interpretation(fig1, {}, {})
        with pytest.raises(ValueError):
            classify_normal_form(model, interp, ["das"])

    def test_unknown_group_rejected(self, fig1):
        model = single_theme_model("s")
        interp = Interpretation(fig1, {}, {})
        with pytest.raises(ValueError):
            classify_normal_form(model, interp, [CORE, "bogus"])

    def test_one_table_serves_every_group(self, monkeypatch):
        doc = load_path(corpus_path("question_begging_god"))
        built = []
        init = AspectTable.__init__

        def counting(self, interp, model):
            built.append(model)
            init(self, interp, model)

        monkeypatch.setattr(AspectTable, "__init__", counting)
        verdict = classify_normal_form(doc.model, doc.interpretation, ALPHA_GROUPS)
        assert built == [doc.model]
        monkeypatch.undo()
        # the shared table changes nothing: each group alone finds the same
        alone = [
            v for g in ALPHA_GROUPS for vs in run_group(doc.model, doc.interpretation, g).values()
            for v in vs
        ]
        assert verdict.violations == tuple(sorted(alone, key=Violation.sort_key))

    def test_violations_are_the_groups_joined_in_sort_key_order(self):
        rng = random.Random(41)
        algebras = [mk_algebra(["p", "q"]), mk_algebra(["p", "q", "r"])]
        extras = [g for g in ALPHA_GROUPS if g != CORE]
        alphas = [{CORE, *c} for n in range(len(extras) + 1) for c in combinations(extras, n)]
        instances = [
            (model, random_total_interpretation(rng, model, algebras[i % 2]))
            for i, model in enumerate(random_model_any(rng, max_themes=3) for _ in range(40))
        ] + [block_instance(rng) for _ in range(5)]
        mixed = 0
        for model, interp in instances:
            for alpha in alphas:
                verdict = classify_normal_form(model, interp, alpha)
                found = [v for g in alpha for v in all_violations(run_group(model, interp, g))]
                assert verdict.violations == tuple(sorted(found, key=Violation.sort_key))
                assert list(verdict.groups) == [g for g in ALPHA_GROUPS if g in alpha]
                mixed += len({v.constraint for v in verdict.violations}) > 1
        assert mixed > 100  # the join crosses constraints and groups

    def test_a_table_of_another_model_is_refused(self, fig1):
        model, other = single_theme_model("s"), single_theme_model("s")
        interp = Interpretation(fig1, {}, {})
        with pytest.raises(ValueError, match="another model"):
            run_group(model, interp, CORE, AspectTable(interp, other))


def candidate_witnesses(model):
    """Every witness record a semantic checker could report on ``model``."""
    theme_sets = [
        tuple(c) for n in range(len(model.themes) + 1) for c in combinations(model.themes, n)
    ]
    ids = [s.id for s in model.statements]
    for t1 in theme_sets:
        yield Violation("bat", theme_set=t1)
        for cid in ("i", "vi", "pr", "ss"):
            for sid in ids:
                yield Violation(cid, (sid,), theme_set=t1)
        for r in model.relations:
            for cid in ("aass", "das", "nwci"):
                for rel_type in (ATTACK, SUPPORT):
                    yield Violation(cid, relation=r.pair, theme_set=t1, rel_type=rel_type)
        for t2 in theme_sets:
            yield Violation("mat", theme_set=t1, theme_set2=t2)
            for cid in ("manss", "esr", "ensr", "eos"):
                for sid in ids:
                    yield Violation(cid, (sid,), theme_set=t1, theme_set2=t2)
    for anchor in ids:
        for first in ids:
            for second in ids:
                for t in model.themes:
                    for cid in ("faW", "faD"):
                        for rel_type in (ATTACK, SUPPORT):
                            yield Violation(
                                cid, (anchor, first, second), theme_set=(t,), rel_type=rel_type
                            )


def witness_key(v, symmetric=False):
    themes = (v.theme_set, v.theme_set2)
    if symmetric:
        themes = tuple(sorted(themes))
    return (v.constraint, v.statements, v.relation, themes, v.rel_type)


class TestWitnessSoundness:
    @pytest.mark.parametrize(
        "name,alpha",
        [
            ("fear_appeal", (CORE,)),
            ("false_flag", (CORE,)),
            ("straw_man", (CORE, "das", "nwci")),
            ("question_begging_opium", (CORE, "F")),
            ("question_begging_god", (CORE, "F")),
        ],
    )
    def test_corpus_violations_recheck(self, name, alpha):
        doc = load_path(corpus_path(name))
        found = list(all_violations(check_graphic(doc.model)))
        for group in alpha:
            found.extend(all_violations(run_group(doc.model, doc.interpretation, group)))
        for violation in found:
            assert recheck(doc.model, doc.interpretation, violation), violation

    @pytest.mark.parametrize(
        "ghost",
        [
            *(
                pytest.param(
                    Violation(cid, relation=("nope", "x"), theme_set=("t1",), rel_type=ATTACK),
                    id=f"{cid}-relation",
                )
                for cid in ("aass", "das", "nwci")
            ),
            *(
                pytest.param(Violation(cid, ("nope",), theme_set=("t1",)), id=f"{cid}-statement")
                for cid in ("i", "ss")
            ),
            *(
                pytest.param(
                    Violation(cid, ("nope",), theme_set=("t1",), theme_set2=("t1", "t2")),
                    id=f"{cid}-statement",
                )
                for cid in ("manss", "eos")
            ),
            pytest.param(Violation("i", ("s1",), theme_set=("nope",)), id="i-theme"),
        ],
    )
    def test_unknown_relation_does_not_recheck(self, ghost):
        doc = load_path(corpus_path("fear_appeal"))
        assert recheck(doc.model, doc.interpretation, ghost) is False

    def test_random_violations_recheck(self):
        rng = random.Random(10)
        algebra = mk_algebra(["p", "q"])
        checked = 0
        for _ in range(40):
            model = random_model_any(rng)
            interp = random_total_interpretation(rng, model, algebra)
            found = list(all_violations(check_graphic(model)))
            for group in ALPHA_GROUPS:
                found.extend(all_violations(run_group(model, interp, group)))
            for violation in found:
                checked += 1
                assert recheck(model, interp, violation), violation
        assert checked > 50

    def test_recheck_accepts_exactly_the_reported_witnesses(self):
        rng = random.Random(23)
        algebra = mk_algebra(["p", "q"])
        instances = [
            (model, random_total_interpretation(rng, model, algebra))
            for model in (random_model_any(rng) for _ in range(40))
        ] + [block_instance(rng) for _ in range(20)]
        for model, interp in instances:
            reported = set()
            for group in ALPHA_GROUPS:
                for v in all_violations(run_group(model, interp, group)):
                    reported.add(witness_key(v, symmetric=v.constraint in EXACT_REGION_IDS))
            for w in candidate_witnesses(model):
                key = witness_key(w, symmetric=w.constraint in EXACT_REGION_IDS)
                assert recheck(model, interp, w) == (key in reported), w


class TestManyDeclaredThemes:
    """A check that reads a few theme sets makes point reads, so a model may
    declare more themes than the theme cap where nothing enumerates them."""

    def test_point_reads_agree_with_the_columns_of_the_narrow_model(self, monkeypatch):
        rng = random.Random(41)
        algebra = mk_algebra(["p", "q"])
        cases = []
        for _ in range(30):
            narrow = random_model_any(rng, max_themes=3)
            interp = random_total_interpretation(rng, narrow, algebra)
            if rng.random() < 0.5:
                interp = with_extra_rows(rng, narrow, interp)
            unused = tuple(f"unused{i}" for i in range(30 - len(narrow.themes)))
            wide = dataclasses.replace(narrow, themes=narrow.themes + unused)
            # the sweeps build every column of the narrow model
            verdict = classify_normal_form(narrow, interp, ALPHA_GROUPS)
            cases.append((narrow, wide, interp, verdict))

        def refuse(self, s):
            raise AssertionError(f"built a column of {s} over 30 themes")

        monkeypatch.setattr(AspectTable, "_build_columns", refuse)
        for narrow, wide, interp, verdict in cases:
            for group in ("das", "nwci", "F"):
                assert run_group(wide, interp, group) == verdict.groups[group]
            assert classify_relations(wide, interp) == classify_relations(narrow, interp)
            for violation in verdict.violations:
                assert recheck(wide, interp, violation), violation
            ids = [s.id for s in narrow.statements] + [OMEGA]
            for n in range(len(narrow.themes) + 1):
                for themes in combinations(narrow.themes, n):
                    for s in ids:
                        assert lookup(interp, wide, themes, s) == lookup(interp, narrow, themes, s)
                        assert effective_aspect(interp, wide, themes, s) == effective_aspect(
                            interp, narrow, themes, s
                        )


class TestProperRangeConsequences:
    def test_unconnected_themes_add_nothing(self):
        # with pr and manss satisfied, aspects are stable under adding
        # themes disjoint from the statement's own
        rng = random.Random(12)
        for _ in range(30):
            model, interp = block_instance(rng)
            assert not all_violations(check_core(model, interp))
            all_theme_sets = list(interp.theme_aspects) + [frozenset()]
            for s in model.statements:
                if s.is_pointer:
                    continue
                own = model.themes_of(s.id)
                for t_set in all_theme_sets:
                    for extra in all_theme_sets:
                        if extra & own:
                            continue
                        assert lookup(interp, model, t_set, s.id) == lookup(
                            interp, model, t_set | extra, s.id
                        )
