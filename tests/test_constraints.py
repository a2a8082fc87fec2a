import random

import pytest

from aspectarg.algebra import mk_algebra
from aspectarg.constraints import (
    ALPHA_GROUPS,
    CORE,
    all_violations,
    check_core,
    check_das,
    check_exact_region,
    check_fresh_aspects,
    check_graphic,
    check_nwci,
    classify_normal_form,
    classify_relation,
    recheck,
    run_group,
)
from aspectarg.corpus import corpus_path
from aspectarg.model import (
    ATTACK,
    SUPPORT,
    AspectSet,
    Interpretation,
    Model,
    Relation,
    Statement,
    Violation,
    lookup,
)
from aspectarg.modelfile import load_path
from helpers import block_instance, random_model_any, random_total_interpretation


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
                            assert lookup(interp, model, t1, s.id).issubset(
                                lookup(interp, model, t2, s.id)
                            )


class TestDasNwci:
    def test_straw_man_fails_das_on_both_supports(self):
        doc = load_path(corpus_path("straw_man"))
        out = check_das(doc.model, doc.interpretation)
        assert [(v.relation, v.theme_set) for v in out] == [
            (("s2", "s1"), ("t",)),
            (("s2", "s3"), ("t",)),
        ]

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
            return classify_relation(interp, model, ["t"], model.relations[0])

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
        got = classify_relation(interp, model, ["t"], model.relations[0])
        assert got == {"undefined"}

    def test_never_empty_when_defined(self, pair, fig1):
        rng = random.Random(9)
        from aspectarg.algebra import Element

        for _ in range(100):
            u = Element(fig1, rng.randrange(fig1.carrier_size))
            v = Element(fig1, rng.randrange(fig1.carrier_size))
            assert pair(u, v)


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

    def test_unknown_relation_does_not_recheck(self):
        doc = load_path(corpus_path("fear_appeal"))
        for cid in ("aass", "das", "nwci"):
            ghost = Violation(cid, relation=("nope", "x"), theme_set=("t1",), rel_type=ATTACK)
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
